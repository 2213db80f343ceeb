"""Expansion coefficients: closed form, recurrence, values, bounds.

The m-th coefficient of the expansion is

    c_m = (-1)^m / (4*sqrt(6))^m * sum_{k=0}^{floor((m+1)/2)}
          binom(m+1, k) * (m+1-k) / (m+1-2k)! * (pi/6)^(m-2k),

so (4*sqrt(6))^m * |c_m| is a finite sum of positive rationals times integer
powers of pi, with exponents m, m-2, ... down to 0 for even m and to -1 for
odd m.  The tests keep this closed form as their oracle.

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
asked for so far, and grows by a factor 1.25 in M or D when a request goes
past it, up to M = COEFF_CAP.  A build runs the recurrence on integers
scaled by 2^P, with P a few bits above (D + 10 + ceil(log10 prod rho_m) + 6)
log2 10, and carries with each g_m an integer radius that bounds its error: every
floor and the errors of the fixed-point a and 1/a are counted, and the
radius recurrence is written in ``_attempt``.  It divides g_m by 24^j once
to give c_m and checks that each c_m is within 10^-(D+10) of its own size
before it is rounded.  ``coeff_c`` rounds the stored c_m once more to the
context's digits.  ``_horner`` sums the stored c_m against the powers of a
u in (0, 1] by Horner on integers scaled by 2^P, and its result is proved
to lie within 3N units of 2^P times the sum of the first N terms.

Comparisons.  ``certified_abs_less`` decides |c_m| < |c_other| from the
same stored values: each lies within a proven relative radius of c_m, the
build's 10^-(D+10) plus the rounding to D + 10 digits, and the two balls are
compared in integer arithmetic on their mantissas and exponents, never on
rounded floats.  Balls that overlap are undecided, and the source is rebuilt
at twice the digits until they separate.
"""

from __future__ import annotations

import functools
import math
import threading
from fractions import Fraction
from math import comb

from mpmath.libmp import dps_to_prec, from_man_exp, round_nearest

from .errors import PrecisionError, ResourceError
from .precision import MIN_DIGITS, PrecisionContext, pi_enclosure


@functools.lru_cache(maxsize=None)
def _root(k: int, digits: int):
    """sqrt(k) at ``digits``, taken once per digit count and shared by every m."""
    return PrecisionContext(digits).mp.sqrt(k)


# a = pi/6 = 0.52359877... lies between _A_LO / _A_SCALE and _A_HI / _A_SCALE.
_A_LO, _A_HI, _A_SCALE = 5235, 5236, 10000
# Digits beyond log10 of the error growth, for the rounding and the size of g_m.
_GUARD_MARGIN = 6
# Bits of the fixed-point scale beyond (digits + 10 + guard) * log2(10),
# about one more digit.
_SCALE_MARGIN = 4
# The fewest terms the source holds, and its growth factor in terms and digits.
_SOURCE_FLOOR = 16
_SOURCE_GROWTH = 1.25
# The largest index the source serves: enough for the full sum at n = 1 and
# 2000 digits (2909 terms).  The build to c_3000 at 2000 digits takes 9 s and
# 24 MB on a 2-core machine; c_(10^5) would take about 20 GB.
COEFF_CAP = 3000

# (D, (c_0, ..., c_M)), the values as raw mpf tuples rounded to D + 10 digits.
# A build is published by assigning a new tuple, so a reader sees one whole build.
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
    """c_0..c_size as raw mpf rounded to digits + 10, from the recurrence in fixed point.

    With P = ceil((digits + 10 + guard) log2 10) + _SCALE_MARGIN, the integers
    A = floor(2^P lo / 6) and B = floor(6 * 2^P / hi), from ``pi_enclosure``
    with hi - lo < 2^-P, satisfy |A - 2^P a| < 2 and |B - 2^P / a| < 2.  Each
    step forms, with G_m the integer standing for 2^P g_m,

        S = (m+1)(m+4) G_{m+2} - (m+2)(m+4) G_m                  (exact)
        G_{m+3} = floor((floor(S B / 2^P) - floor(A G_{m+2} / 2^P) + (2m+7) G_{m+1}) / (2m+6)).

    If |2^P g_k - G_k| <= E_k for k = m, m+1, m+2, the three errors reach
    G_{m+3} multiplied by at most rho_m in all, the errors of A and B add under
    2 (|S| + |G_{m+2}|) / 2^P, the two inner floors under 1 and the outer floor
    under 1 more, so

        E_{m+3} = ceil((top * max(E_m, E_{m+1}, E_{m+2}) + _A_LO * F) / bottom) + 1,
        F = floor((|S| + |G_{m+2}|) / 2^(P-1)) + 2,

    with (top, bottom) from ``_growth`` and E_0, E_1, E_2 = 0, 4, 2 for the
    seeds 2^P, -(floor(A/2) + B) and floor(A^2 / 2^(P+3)) + 3 * 2^(P-1).
    Then W_m = floor(G_m / 24^j) for m = 2j and W_m = floor(floor(G_m R / 2^P)
    / 24^j) for m = 2j+1, with R = floor(2^P / sqrt(24)) from ``math.isqrt``,
    is within e_m = floor((E_m + floor(|G_m| / 2^P) + 2) / 24^j) + 2 of
    2^P c_m.  Returns None unless |W_m| > (10^(digits+10) + 1) e_m for every
    m, so that each W_m / 2^P is within 10^-(digits+10) |c_m| of c_m before
    it is rounded to nearest.
    """
    bits = math.ceil((digits + 10 + guard) * math.log2(10)) + _SCALE_MARGIN
    lo, hi = pi_enclosure(bits // 3 + 1)
    a = (lo.numerator << bits) // (6 * lo.denominator)
    inverse_a = (6 * hi.denominator << bits) // hi.numerator
    g = [1 << bits, -((a >> 1) + inverse_a), (a * a >> bits + 3) + (3 << bits - 1)]
    radii = [0, 4, 2]
    for m in range(size - 2):
        g0, g1, g2 = g[-3:]
        step = (m + 1) * (m + 4) * g2 - (m + 2) * (m + 4) * g0
        g.append(((step * inverse_a >> bits) - (a * g2 >> bits) + (2 * m + 7) * g1) // (2 * m + 6))
        top, bottom = _growth(m)
        floors = (abs(step) + abs(g2) >> bits - 1) + 2
        radii.append(-(-(top * max(radii[-3:]) + _A_LO * floors) // bottom) + 1)
    target = 10 ** (digits + 10) + 1
    prec = dps_to_prec(digits + 10)
    inverse_root = math.isqrt((1 << 2 * bits) // 24)
    values, power = [], 1  # power = 24^j
    for m, (value, radius) in enumerate(zip(g, radii)):
        scaled = (value * inverse_root >> bits if m % 2 else value) // power
        if abs(scaled) <= target * ((radius + (abs(value) >> bits) + 2) // power + 2):
            return None
        values.append(from_man_exp(scaled, -bits, prec, round_nearest))
        power *= 24 if m % 2 else 1
    return tuple(values)


def _coefficients(m: int, digits: int) -> tuple:
    """The source (D, (c_0, ..., c_M)) with M >= m and D >= digits.

    A request past the source rebuilds it, with M and D each raised to at
    least _SOURCE_GROWTH times what was held if it is exceeded, and M to at
    least _SOURCE_FLOOR but at most COEFF_CAP; a build whose error check fails
    is repeated with twice the guard digits.  An m past COEFF_CAP raises
    ResourceError before any build.
    """
    global _source
    source = _source
    if m < len(source[1]) and digits <= source[0]:
        return source
    if m > COEFF_CAP:
        raise ResourceError(f"m={m} exceeds cap {COEFF_CAP}")
    with _source_lock:
        source = _source
        held, values = source
        if m < len(values) and digits <= held:
            return source
        size = len(values) - 1
        if m > size:
            size = min(max(m, _SOURCE_FLOOR, math.ceil(_SOURCE_GROWTH * size)), COEFF_CAP)
        if digits > held:
            held = max(digits, math.ceil(_SOURCE_GROWTH * held))
        guard = _guard_digits(size)
        while (values := _attempt(size, held, guard)) is None:
            guard *= 2
        _source = source = (held, values)
    return source


def _horner(N: int, P: int, U: int, digits: int) -> int:
    """An integer within 3N of 2^P sum_{m<N} x_m u^m, for U = floor(2^P u), 0 < u <= 1.

    The x_m are the source's c_m at ``digits`` or more.  With C_m =
    floor(2^P x_m), Horner runs acc = floor(acc U / 2^P) + C_m over
    m = N-1, ..., 0 from acc = 0.  Write T_k = sum_{k<=m<N} x_m u^(m-k) and
    e_k = acc_k - 2^P T_k, so e_N = 0, and U = 2^P u - d with 0 <= d < 1.
    With f, f' in [0, 1) the two floors of step k,

        e_k = u e_{k+1} - d acc_{k+1} / 2^P - f - f'.

    ``coeff_envelope`` gives |c_m| <= 1.7376 sqrt(m+1) / sqrt(24)^m for every
    m >= 1, so sum_{m>=1} |c_m| < 0.67; each x_m is within a relative
    10^-(digits+9) of c_m (see ``certified_abs_less``), so |T_k| < 0.7 for
    k >= 1 and |acc_{k+1}| < 0.7 * 2^P + |e_{k+1}|.  Hence |e_k| < |e_{k+1}| (1 + 2^-P) + 2.7, and by induction
    |e_k| < 3(N - k) whenever 10N <= 2^P.
    """
    acc = 0
    if N:
        for sign, mantissa, exponent, _ in reversed(_coefficients(N - 1, digits)[1][:N]):
            value, shift = -mantissa if sign else mantissa, exponent + P
            acc = (acc * U >> P) + (value << shift if shift >= 0 else value >> -shift)
    return acc


@functools.lru_cache(maxsize=None)
def coeff_c(m: int, ctx: PrecisionContext):
    """c_m at context precision: the source's c_m, rounded once.

    Memoized per (m, context), that is per (m, digits).  A caller that will
    read a range asks for its last index first, so the source grows once.
    """
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    return ctx.mp.mpf(_coefficients(m, ctx.digits)[1][m])


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


# The most digits a certified comparison rebuilds the source at.
_CERTIFY_MAX_DIGITS = 1 << 12


def certified_abs_less(m: int, other: int) -> bool:
    """Decide |c_m| < |c_other| exactly.

    A stored value x of the source at D digits satisfies |c - x| <= r |x|
    with r = 10^-(D+10) + 2^(1-prec), prec the bits of D + 10 digits: the
    build's relative error, the half-ulp 2^-prec of rounding to nearest, and
    one more 2^-prec for their product.  The answer is True when
    |x_m| (1 + r) < |x_other| (1 - r) and False when
    |x_m| (1 - r) >= |x_other| (1 + r), compared in integers on the
    mantissas and exponents.  Otherwise the source is rebuilt at twice the
    digits, up to _CERTIFY_MAX_DIGITS, so rounding can never decide a
    near-tie the wrong way.
    """
    if min(m, other) < 0:
        raise ValueError(f"m must be nonnegative, got {m if m < 0 else other}")
    if m == other:
        return False
    held, values = _source
    digits = max(held, MIN_DIGITS)
    while True:
        if max(m, other) >= len(values) or digits > held:
            held, values = _coefficients(max(m, other), digits)
        decimal, binary = 10 ** (held + 10), 1 << dps_to_prec(held + 10) - 1
        # (1 + r) and (1 - r) times decimal * binary, for r = 1/decimal + 1/binary
        wide, narrow = decimal * binary + binary + decimal, decimal * binary - binary - decimal
        _, mantissa, exponent, _ = values[m]
        _, other_mantissa, other_exponent, _ = values[other]
        low = min(exponent, other_exponent)
        mantissa <<= exponent - low
        other_mantissa <<= other_exponent - low
        if mantissa * wide < other_mantissa * narrow:
            return True
        if mantissa * narrow >= other_mantissa * wide:
            return False
        if digits >= _CERTIFY_MAX_DIGITS:
            raise PrecisionError(f"could not separate |c_{m}| and |c_{other}| at {held} digits")
        digits = min(2 * digits, _CERTIFY_MAX_DIGITS)
