"""Expansion coefficients: exact pi-polynomial form, numeric values, bounds.

The m-th coefficient of the expansion is

    c_m = (-1)^m / (4*sqrt(6))^m * sum_{k=0}^{floor((m+1)/2)}
          binom(m+1, k) * (m+1-k) / (m+1-2k)! * (pi/6)^(m-2k),

so (4*sqrt(6))^m * |c_m| is a finite sum of positive rationals times integer
powers of pi, with exponents m, m-2, ... down to 0 for even m and to -1 for
odd m.

Values.  With a = pi/6, the numbers g_m = sqrt(24)^m * c_m satisfy

    a(2m+6) g_{m+3} = ((m+1)(m+4) - a^2) g_{m+2} + a(2m+7) g_{m+1} - (m+2)(m+4) g_m,

from g_0 = 1, g_1 = -(a/2 + 1/a), g_2 = a^2/8 + 3/2.  They are the Maclaurin
coefficients of F(z) = e^(-a u) (1/(1-z^2) - (z/a) (1-z^2)^(-3/2)) with
u = z/(1 + sqrt(1-z^2)).  Put z = 2t/(1+t^2): then u = t, sqrt(1-z^2) =
(1-t^2)/(1+t^2) and z d/dz = t(1+t^2)/(1-t^2) d/dt, so F = e^(-at) R(t) with R
rational, and z d/dz keeps the shape e^(-at) * (rational in t).  Multiplying
the recurrence by z^(m+3) and summing over m >= 0 turns it into
sum_k z^(3-k) P_k(theta-k) (F - F_<k) = 0, where theta = z d/dz, P_k(m) is
the polynomial that multiplies g_{m+k} and F_<k holds the first k terms of F.
The e^(-at) part and the rational part of that sum each cancel identically,
so F satisfies a linear ODE (F is D-finite) and the g_m the recurrence; the
tests check the two cancellations symbolically and the recurrence exactly on
the closed form for m <= 400.

Run forward, the recurrence is unstable: an error in g_m, g_{m+1}, g_{m+2}
reaches g_{m+3} multiplied by at most rho_m = (|(m+1)(m+4) - a^2| + a(2m+7)
+ (m+2)(m+4)) / (a(2m+6)), which grows like m.  One process-wide source holds
c_0..c_M, each rounded to D + 10 digits, where D is the largest digit count
asked for so far; it runs the recurrence at D + 10 + ceil(log10 prod rho_m)
+ 6 digits and grows by a factor 1.25 in M or D when a request goes past
it.  ``coeff_c`` rounds the stored c_m once more to the context's digits.

Comparisons.  One integer kernel decides strict inequalities between the
|c_m| (``certified_abs_less``): multiplied by pi * D_m, with D_m = (m+1)! * 6^m,
(4*sqrt(6))^m * |c_m| is a polynomial in pi with positive integer
coefficients a_k, each built from the one before by an exact integer ratio,
and exponents >= 0.  It is evaluated by Horner in pi^2 from both ends of the
rational ``pi_enclosure`` bracket, in fixed point of a given width with one
pi and pi^2 per width, on an accumulator bounded to that width plus a few
guard bits and rounded outward at every step, and the comparison is made in
integer arithmetic on that enclosure, never on rounded floats.
"""

from __future__ import annotations

import functools
import math
import threading
from fractions import Fraction
from math import comb, factorial

from mpmath.ctx_mp import MPContext

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


# a = pi/6 = 0.52359877... lies between _A_LO / _A_SCALE and _A_HI / _A_SCALE.
_A_LO, _A_HI, _A_SCALE = 5235, 5236, 10000
# Units of 2^-prec that bound the rounding of one step, relative to the sum
# of the step's |terms| over a(2m+6): about 11.1 counted, from nine
# round-to-nearest operations and the errors of a, a^2 and 1/a.
_STEP_ROUNDING = 16
# Digits beyond log10 of the error growth, for the rounding and the size of g_m.
_GUARD_MARGIN = 6
# The fewest terms the source holds, and its growth factor in terms and digits.
_SOURCE_FLOOR = 16
_SOURCE_GROWTH = 1.25

# (D, (c_0, ..., c_M)), the values rounded to D + 10 digits.  A build is
# published by assigning a new tuple, so a reader sees one whole build.
_source = (0, ())
_source_lock = threading.Lock()


def _growth(m: int) -> tuple:
    """(numerator, denominator), integers whose ratio bounds rho_m from above
    (|(m+1)(m+4) - a^2| < (m+1)(m+4), since 0 < a^2 < 4)."""
    numerator = _A_SCALE * ((m + 1) * (m + 4) + (m + 2) * (m + 4)) + _A_HI * (2 * m + 7)
    return numerator, _A_LO * (2 * m + 6)


def _guard_digits(size: int) -> int:
    """ceil(log10 of the product of rho_m over the steps to g_size) + _GUARD_MARGIN.

    The doubles round each logarithm by under 1e-15 relative; the 1e-6 added
    before the ceiling dwarfs their sum for any size this toolkit reaches.
    """
    growth = sum(math.log10(top) - math.log10(bottom) for top, bottom in map(_growth, range(size - 2)))
    return math.ceil(growth + 1e-6) + _GUARD_MARGIN


def _attempt(size: int, digits: int, guard: int):
    """c_0..c_size rounded to digits + 10, from the recurrence at digits + 10 + guard.

    Every operation rounds to nearest, by at most u = 2^-prec relative.  The
    error of g_{m+3} is bounded, in integers counting u, by rho_m times the
    largest error of g_m, g_{m+1}, g_{m+2} plus _STEP_ROUNDING u times the sum
    of the step's |terms| over a(2m+6); scaling by sqrt(24)^-m adds at most
    3m + 2 roundings of |g_m|.  Returns None unless |g_m| exceeds
    10^(digits+10) times that total for every m, so that each c_m is within
    10^-(digits+10) of its own size before it is stored.
    """
    mp = MPContext()  # a throwaway precision, kept out of the shared contexts
    mp.dps = digits + 10 + guard
    a = mp.pi / 6
    a2, inverse_a = a * a, 1 / a
    g = [mp.mpf(1), -(a / 2 + inverse_a), a2 / 8 + mp.mpf(3) / 2]
    sizes = [int(abs(value)) + 1 for value in g]  # integers above |g_m|
    errors = [0, 3 * _STEP_ROUNDING, 2 * _STEP_ROUNDING]  # the seeds round by under 9u and 2u
    for m in range(size - 2):
        g0, g1, g2 = g[-3:]
        b0, b1, b2 = sizes[-3:]
        step = ((m + 1) * (m + 4) - a2) * g2 + a * (2 * m + 7) * g1 - (m + 2) * (m + 4) * g0
        g.append(step * inverse_a / (2 * m + 6))
        sizes.append(int(abs(g[-1])) + 1)
        terms = _A_SCALE * ((m + 1) * (m + 4) * b2 + (m + 2) * (m + 4) * b0) + _A_HI * (2 * m + 7) * b1
        top, bottom = _growth(m)
        errors.append(-(-(top * max(errors[-3:]) + _STEP_ROUNDING * terms) // bottom))
    target = 10 ** (digits + 10)
    inverse_root, scale, values = 1 / mp.sqrt(24), mp.mpf(1), []
    for m, (value, bound, error) in enumerate(zip(g, sizes, errors)):
        if mp.ldexp(abs(value), mp.prec) <= target * (error + (3 * m + 2) * bound):
            return None
        values.append(mp.mpf(value * scale, dps=digits + 10))
        scale *= inverse_root
    return tuple(values)


def _coefficients(m: int, digits: int) -> tuple:
    """The source's values, c_0..c_M with M >= m, rounded to D + 10 >= digits + 10.

    A request past the source rebuilds it, with M and D each raised to at
    least _SOURCE_GROWTH times what was held if it is exceeded, and M to at
    least _SOURCE_FLOOR; a build whose error check fails is repeated with
    twice the guard digits.
    """
    global _source
    held, values = _source
    if m < len(values) and digits <= held:
        return values
    with _source_lock:
        held, values = _source
        if m < len(values) and digits <= held:
            return values
        size = len(values) - 1
        if m > size:
            size = max(m, _SOURCE_FLOOR, math.ceil(_SOURCE_GROWTH * size))
        if digits > held:
            held = max(digits, math.ceil(_SOURCE_GROWTH * held))
        guard = _guard_digits(size)
        while (values := _attempt(size, held, guard)) is None:
            guard *= 2
        _source = (held, values)
    return values


@functools.lru_cache(maxsize=None)
def coeff_c(m: int, ctx: PrecisionContext):
    """c_m at context precision: the source's c_m, rounded once.

    Memoized per (m, context), that is per (m, digits).  A caller that will
    read a range asks for its last index first, so the source grows once.
    """
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    return ctx.real(_coefficients(m, ctx.digits)[m])


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
