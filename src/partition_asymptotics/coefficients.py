"""Expansion coefficients: exact pi-polynomial form, numeric values, bounds.

The m-th coefficient of the expansion is

    c_m = (-1)^m / (4*sqrt(6))^m * sum_{k=0}^{floor((m+1)/2)}
          binom(m+1, k) * (m+1-k) / (m+1-2k)! * (pi/6)^(m-2k),

so (4*sqrt(6))^m * |c_m| is a finite sum of positive rationals times integer
powers of pi, with exponents m, m-2, ... down to 0 for even m and to -1 for
odd m.  One integer kernel serves every use of that exact form: multiplied
by pi * D_m, with D_m = (m+1)! * 6^m, it is a polynomial in pi with positive
integer coefficients and exponents >= 0, evaluated by fixed-point Horner in
pi^2 from both ends of the rational ``pi_enclosure`` bracket.  Strict
inequalities between coefficients are decided in integer arithmetic on that
outward-rounded enclosure, never on rounded floats, and the rounded values
are its midpoint.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .errors import PrecisionError
from .precision import PrecisionContext, context, pi_enclosure


@dataclass(frozen=True)
class PiPolynomial:
    """Exact value of (4*sqrt(6))^m * |c_m| as sum of q_e * pi^e terms.

    ``terms`` maps the integer exponent e (m, m-2, ..., down to 0 for even m
    and to -1 for odd m) to its positive rational coefficient;
    ``scale_exponent`` is m.  The signed coefficient is
    (-1)^m * (sum of terms) / (4*sqrt(6))^m.
    """

    terms: dict
    scale_exponent: int


@dataclass(frozen=True)
class CoefficientSeq:
    """Coefficients c_0..c_m as Reals bound to one context."""

    entries: tuple
    context: PrecisionContext


@functools.lru_cache(maxsize=None)
def _integer_form(m: int) -> tuple:
    """(a_0, ..., a_K) and D_m with D_m * pi * (4*sqrt(6))^m * |c_m| = sum_k a_k * pi^(m+1-2k).

    a_k = binom(m+1, k) * (m+1-k) * 6^(2k) * (m+1)! / (m+1-2k)! and
    D_m = (m+1)! * 6^m are positive integers; K = floor((m+1)/2).
    """
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    top = factorial(m + 1)
    numerators = tuple(
        comb(m + 1, k) * (m + 1 - k) * 36**k * (top // factorial(m + 1 - 2 * k))
        for k in range((m + 1) // 2 + 1)
    )
    return numerators, top * 6**m


def coeff_exact(m: int) -> PiPolynomial:
    """Exact pi-polynomial form of (4*sqrt(6))^m * |c_m|."""
    numerators, denominator = _integer_form(m)
    terms = {m - 2 * k: Fraction(a, denominator) for k, a in enumerate(numerators)}
    return PiPolynomial(terms=terms, scale_exponent=m)


def _bracket(m: int, bits: int) -> tuple:
    """Integers lo <= 2^bits * sum_k a_k * pi^(m+1-2k) <= hi (see ``_integer_form``).

    Horner in x = pi^2 on bits-bit fixed-point values, once from the lower end
    of ``pi_enclosure`` rounding every step down and once from the upper end
    rounding every step up.  All coefficients and exponents are nonnegative, so
    each step is monotone in pi and the two results enclose the exact value.
    """
    numerators = _integer_form(m)[0]
    bracket = []
    # sign 1 floors every shift; sign -1 ceils it, as -((-v) >> bits)
    for pi_q, sign in zip(pi_enclosure(bits // 3 + 1), (1, -1)):
        pi_fixed = sign * ((sign * pi_q.numerator << bits) // pi_q.denominator)
        x = sign * (sign * pi_fixed * pi_fixed >> bits)
        acc = 0
        for a in numerators:
            acc = sign * (sign * acc * x >> bits) + (a << bits)
        if m % 2 == 0:  # even m: the exponents m+1-2k are odd
            acc = sign * (sign * acc * pi_fixed >> bits)
        bracket.append(acc)
    return tuple(bracket)


@functools.lru_cache(maxsize=None)
def _coeff_value(m: int, digits: int):
    mp = context(digits + 10).mp
    bits = (digits + 10) * 10 // 3 + 64
    lo, hi = _bracket(m, bits)
    denominator = _integer_form(m)[1]
    magnitude = mp.ldexp(lo + hi, -bits - 1) / (mp.pi * denominator * mp.sqrt(96) ** m)
    signed = -magnitude if m % 2 else magnitude
    return context(digits).real(signed)


def coeff_c(m: int, ctx: PrecisionContext):
    """c_m at context precision.  Memoized per (m, digits)."""
    return ctx.real(_coeff_value(m, ctx.digits))


def coeff_sequence(m_max: int, ctx: PrecisionContext) -> CoefficientSeq:
    return CoefficientSeq(entries=tuple(coeff_c(m, ctx) for m in range(m_max + 1)), context=ctx)


@functools.lru_cache(maxsize=None)
def _even_odd_prefactor(digits: int):
    mp = context(digits).mp
    base = 6 * mp.sqrt(2) / mp.pi ** mp.mpf("1.5")
    return base * mp.sinh(mp.pi / 6), base * mp.cosh(mp.pi / 6)


def coeff_bound(m: int, ctx: PrecisionContext):
    """Proven upper bound for |c_m|.

    Even m = 2j:  (6*sqrt(2)/pi^(3/2)) sinh(pi/6) sqrt(2j+1)/sqrt(24)^(2j) * sqrt(1 + 1/(4j+1))
    Odd  m = 2j+1: same with cosh, sqrt(2j+2)/sqrt(24)^(2j+1), sqrt(1 - 1/(4j+5)).
    """
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    mp = ctx.mp
    even_pref, odd_pref = map(ctx.real, _even_odd_prefactor(ctx.digits))
    root24 = mp.sqrt(24)
    if m % 2 == 0:
        j = m // 2
        return even_pref * mp.sqrt(2 * j + 1) / root24 ** (2 * j) * mp.sqrt(1 + mp.mpf(1) / (4 * j + 1))
    j = (m - 1) // 2
    return odd_pref * mp.sqrt(2 * j + 2) / root24 ** (2 * j + 1) * mp.sqrt(1 - mp.mpf(1) / (4 * j + 5))


def coeff_asymptotic(m: int, ctx: PrecisionContext):
    """Leading large-m approximation of c_m (signed): the bound without its
    sqrt(1 +- ...) correction factor."""
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    mp = ctx.mp
    even_pref, odd_pref = map(ctx.real, _even_odd_prefactor(ctx.digits))
    root24 = mp.sqrt(24)
    if m % 2 == 0:
        j = m // 2
        return even_pref * mp.sqrt(2 * j + 1) / root24 ** (2 * j)
    j = (m - 1) // 2
    return -odd_pref * mp.sqrt(2 * j + 2) / root24 ** (2 * j + 1)


def darboux_approximant(m: int, ctx: PrecisionContext):
    """m-th Maclaurin coefficient of the dominant-singularity approximant,
    on the c_m scale.

    The approximant is (3/(sqrt(2)*pi)) * (e^(pi/6) (1+z)^(-3/2)
    - e^(-pi/6) (1-z)^(-3/2)); its m-th coefficient is
    (3/(sqrt(2)*pi)) * ((-1)^m e^(pi/6) - e^(-pi/6)) * binom(m+1/2, m),
    divided here by sqrt(24)^m.
    """
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    mp = ctx.mp
    half_binom = Fraction((2 * m + 1) * comb(2 * m, m), 4**m)  # binom(m+1/2, m)
    amplitude = 3 / (mp.sqrt(2) * mp.pi) * ((-1) ** m * mp.exp(mp.pi / 6) - mp.exp(-mp.pi / 6))
    return amplitude * mp.mpf(half_binom.numerator) / half_binom.denominator / mp.sqrt(24) ** m


_CERTIFY_START_BITS = 256
_CERTIFY_MAX_BITS = 1 << 16


def certified_abs_less(m: int, other: int) -> bool:
    """Decide |c_m| < |c_other| exactly.

    With H_m = sum_k a_k * pi^(m+1-2k) from ``_integer_form``,
    |c_m| = H_m / (pi * D_m * sqrt(96)^m), so squaring both sides and clearing
    the common pi turns the comparison into
    H_m^2 * D_other^2 < 96^(m-other) * H_other^2 * D_m^2, with the power of 96
    moved to the left when m < other.  Both H are enclosed by ``_bracket`` and
    the two sides compared in integers, doubling the bit width until the
    enclosures separate, so rounding can never decide a near-tie the wrong way.
    """
    d_m, d_other = _integer_form(m)[1], _integer_form(other)[1]
    if m == other:
        return False
    left = d_other**2 * 96 ** max(other - m, 0)
    right = d_m**2 * 96 ** max(m - other, 0)
    bits = _CERTIFY_START_BITS
    while bits <= _CERTIFY_MAX_BITS:
        lo_m, hi_m = _bracket(m, bits)
        lo_other, hi_other = _bracket(other, bits)
        if hi_m**2 * left < lo_other**2 * right:
            return True
        if lo_m**2 * left >= hi_other**2 * right:
            return False
        bits *= 2
    raise PrecisionError(
        f"could not separate |c_{m}| and |c_{other}| below {_CERTIFY_MAX_BITS} bits"
    )
