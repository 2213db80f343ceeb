"""Expansion coefficients: exact pi-polynomial form, numeric values, bounds.

The m-th coefficient of the expansion is

    c_m = (-1)^m / (4*sqrt(6))^m * sum_{k=0}^{floor((m+1)/2)}
          binom(m+1, k) * (m+1-k) / (m+1-2k)! * (pi/6)^(m-2k),

so (4*sqrt(6))^m * |c_m| is a finite sum of positive rationals times integer
powers of pi, with exponents m, m-2, ... down to 0 for even m and to -1 for
odd m.  One integer kernel serves every use of that exact form: multiplied
by pi * D_m, with D_m = (m+1)! * 6^m, it is a polynomial in pi with positive
integer coefficients a_k, each built from the one before by an exact integer
ratio, and exponents >= 0.  It is evaluated by Horner in pi^2 from both ends
of the rational ``pi_enclosure`` bracket, in fixed point of a given width
with one pi and pi^2 per width, on an accumulator bounded to that width plus
a few guard bits and rounded outward at every step.  Strict inequalities
between coefficients are decided in integer arithmetic on that enclosure,
never on rounded floats, and the rounded values are its midpoint.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import comb, factorial

from .errors import PrecisionError
from .precision import PrecisionContext, pi_enclosure


@functools.lru_cache(maxsize=None)
def _integer_form(m: int) -> tuple:
    """(a_0, ..., a_K) and D_m with D_m * pi * (4*sqrt(6))^m * |c_m| = sum_k a_k * pi^(m+1-2k).

    a_k = binom(m+1, k) * (m+1-k) * 6^(2k) * (m+1)! / (m+1-2k)! and
    D_m = (m+1)! * 6^m are positive integers; K = floor((m+1)/2).  The a_k are
    built from a_0 = m+1 by their exact integer ratio,
    a_{k+1} = a_k * 36 * (m-k) * (m+1-2k) * (m-2k) / (k+1).
    """
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    numerators = [m + 1]
    for k in range((m + 1) // 2):
        numerators.append(numerators[-1] * 36 * (m - k) * (m + 1 - 2 * k) * (m - 2 * k) // (k + 1))
    return tuple(numerators), factorial(m + 1) * 6**m


# guard bits of the Horner accumulator beyond the fixed-point width
_GUARD_BITS = 16


def _shift(value: int, places: int, sign: int) -> int:
    """value / 2^places, floored with sign 1 and ceiled with sign -1 (exact if places <= 0)."""
    if places <= 0:
        return value << -places
    return sign * (sign * value >> places)


@functools.lru_cache(maxsize=None)
def _pi_fixed(bits: int) -> tuple:
    """(pi_fixed, x) at each end of ``pi_enclosure``, shared by every m at this width.

    pi_fixed is 2^bits * pi and x is pi_fixed^2 / 2^bits, rounded down at the
    lower end and up at the upper end, so each end stays on its side of pi.
    """
    ends = []
    for pi_q, sign in zip(pi_enclosure(bits // 3 + 1), (1, -1)):
        pi_fixed = sign * ((sign * pi_q.numerator << bits) // pi_q.denominator)
        ends.append((pi_fixed, _shift(pi_fixed * pi_fixed, bits, sign)))
    return tuple(ends)


def _bracket(m: int, bits: int) -> tuple:
    """Integers lo <= 2^bits * sum_k a_k * pi^(m+1-2k) <= hi (see ``_integer_form``).

    Horner in x = pi^2 from the two ends of ``_pi_fixed``, once rounding every
    step down and once rounding every step up.  The accumulator is bounded:
    after step k it is a mantissa times 2^e_k, with e_k = len(a_k) - bits -
    ``_GUARD_BITS``.  Each a_k is at least 72 > pi^2 times a_(k-1), so the
    mantissa stays near bits + guard bits and every product is about
    bits x bits wide, whatever the size of a_k.  All coefficients and
    exponents are nonnegative, so each step is monotone in pi and in the
    accumulator, and the two results enclose the exact value.
    """
    numerators = _integer_form(m)[0]
    exponents = [a.bit_length() - bits - _GUARD_BITS for a in numerators]
    # e_k > e_(k-1), so every product is shifted right by more than bits places
    steps = [bits + e - previous for previous, e in zip(exponents, exponents[1:])]
    bracket = []
    for (pi_fixed, x), sign in zip(_pi_fixed(bits), (1, -1)):
        addends = [_shift(a, e, sign) for a, e in zip(numerators, exponents)]
        mantissa = addends[0]
        for addend, step in zip(addends[1:], steps):
            mantissa = sign * (sign * mantissa * x >> step) + addend  # _shift, inlined
        exponent = exponents[-1]
        if m % 2 == 0:  # even m: the exponents m+1-2k are odd
            mantissa, exponent = mantissa * pi_fixed, exponent - bits
        bracket.append(_shift(mantissa, -exponent - bits, sign))
    return tuple(bracket)


@functools.lru_cache(maxsize=None)
def _root(k: int, digits: int):
    """sqrt(k) at ``digits``, taken once per digit count and shared by every m."""
    return PrecisionContext(digits).mp.sqrt(k)


@functools.lru_cache(maxsize=None)
def coeff_c(m: int, ctx: PrecisionContext):
    """c_m at context precision.  Memoized per (m, context), that is per (m, digits)."""
    digits = ctx.digits
    mp = PrecisionContext(digits + 10).mp
    bits = (digits + 10) * 10 // 3 + 64
    lo, hi = _bracket(m, bits)
    denominator = _integer_form(m)[1]
    magnitude = mp.ldexp(lo + hi, -bits - 1) / (mp.pi * denominator * _root(96, digits + 10) ** m)
    return ctx.real(-magnitude if m % 2 else magnitude)


@functools.lru_cache(maxsize=None)
def _even_odd_prefactor(digits: int):
    mp = PrecisionContext(digits).mp
    base = 6 * mp.sqrt(2) / mp.pi ** mp.mpf("1.5")
    return base * mp.sinh(mp.pi / 6), base * mp.cosh(mp.pi / 6)


@functools.lru_cache(maxsize=None)
def coeff_envelope(m: int, ctx: PrecisionContext) -> tuple:
    """(amplitude, shape, correction) of the proven envelope
    |c_m| <= amplitude * shape / sqrt(24)^m * correction.

    Even m = 2j:   (6*sqrt(2)/pi^(3/2)) sinh(pi/6), sqrt(2j+1), sqrt(1 + 1/(4j+1)).
    Odd  m = 2j+1: (6*sqrt(2)/pi^(3/2)) cosh(pi/6), sqrt(2j+2), sqrt(1 - 1/(4j+5)).
    Memoized per (m, context); the amplitudes are computed once per digit count.
    """
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    mp = ctx.mp
    even_pref, odd_pref = _even_odd_prefactor(ctx.digits)
    j = m // 2
    if m % 2 == 0:
        return even_pref, mp.sqrt(2 * j + 1), mp.sqrt(1 + mp.mpf(1) / (4 * j + 1))
    return odd_pref, mp.sqrt(2 * j + 2), mp.sqrt(1 - mp.mpf(1) / (4 * j + 5))


def coeff_bound(m: int, ctx: PrecisionContext):
    """Proven upper bound for |c_m|: the full envelope of :func:`coeff_envelope`."""
    amplitude, shape, correction = coeff_envelope(m, ctx)
    return amplitude * shape / _root(24, ctx.digits) ** m * correction


def coeff_asymptotic(m: int, ctx: PrecisionContext):
    """Leading large-m approximation of c_m (signed): the bound without its
    sqrt(1 +- ...) correction factor."""
    amplitude, shape, _ = coeff_envelope(m, ctx)
    if m % 2:
        amplitude = -amplitude
    return amplitude * shape / _root(24, ctx.digits) ** m


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
    return amplitude * mp.mpf(half_binom.numerator) / half_binom.denominator / _root(24, ctx.digits) ** m


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
