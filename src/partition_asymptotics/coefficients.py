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
c_0..c_M as integers W_m at scale 2^-P, each with an integer radius e_m,
|W_m - 2^P c_m| <= e_m.  It is built for D digits, the largest digit count
asked for so far, and grows by a factor 1.25 in M or D when a request goes
past it, up to M = COEFF_CAP.  A build runs the recurrence on integers
scaled by 2^P, with P a few bits above (D + 10 + ceil(log10 prod rho_m) + 6)
log2 10, and carries with each g_m an integer radius that bounds its error: every
floor and the errors of the fixed-point a and 1/a are counted, and the
radius recurrence is written in ``_attempt``.  It divides g_m by 24^j once
to give W_m and checks |W_m| > (10^(D+10) + 1) e_m, so that W_m / 2^P is
within 10^-(D+10) of c_m relative to its size.  ``coeff_c`` rounds W_m / 2^P
once to the context's digits.  ``_horner`` sums the W_m, floored to a
coarser scale, against the powers of a u in (0, 1] by Horner on integers,
and its result is proved to lie within 3N units of the sum of the first N
terms at that scale.

Comparisons.  ``certified_abs_less`` decides |c_m| < |c_other| from the
same integers: |c_m| lies in the ball |W_m| +- e_m at scale 2^-P, and two
balls are compared exactly.  Balls that overlap are undecided, and the
source is rebuilt at twice the digits until they separate.
"""

from __future__ import annotations

import functools
import math
import threading
from fractions import Fraction
from math import comb

from mpmath.libmp import (
    from_int,
    from_man_exp,
    mpf_cosh_sinh,
    mpf_div,
    mpf_mul,
    mpf_pi,
    mpf_sqrt,
    round_nearest,
)

from .errors import DomainError, PrecisionError, ResourceError
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
# 2000 digits (2909 terms).  The build to c_3000 at 2000 digits takes about
# 8 s on a 2-core machine, in a process that peaks at 42 MB resident;
# c_(10^5) would take about 20 GB.
COEFF_CAP = 3000

# (D, P, (W_0, ..., W_M), (e_0, ..., e_M)): |W_m - 2^P c_m| <= e_m, built for D digits.
# A build is published by assigning a new tuple, so a reader sees one whole build.
_source = (0, 0, (), ())
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
    """(P, W, e): c_0..c_size as integers W_m within e_m of 2^P c_m, from the recurrence in fixed point.

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
    2^P c_m.  W_m and e_m overwrite G_m and E_m in place, so a build holds
    one integer pair per m.  Returns None unless
    |W_m| > (10^(digits+10) + 1) e_m for every m, so that each W_m / 2^P is
    within 10^-(digits+10) |c_m| of c_m.
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
    inverse_root = math.isqrt((1 << 2 * bits) // 24)
    power = 1  # power = 24^j
    for m, (value, radius) in enumerate(zip(g, radii)):
        g[m] = (value * inverse_root >> bits if m % 2 else value) // power
        radii[m] = (radius + (abs(value) >> bits) + 2) // power + 2
        if abs(g[m]) <= target * radii[m]:
            return None
        power *= 24 if m % 2 else 1
    return bits, tuple(g), tuple(radii)


def _coefficients(m: int, digits: int) -> tuple:
    """The source (D, P, W, e) with M >= m and D >= digits.

    A request past the source rebuilds it, with M and D each raised to at
    least _SOURCE_GROWTH times what was held if it is exceeded, and M to at
    least _SOURCE_FLOOR but at most COEFF_CAP; a build whose error check fails
    is repeated with twice the guard digits.  An m past COEFF_CAP raises
    ResourceError before any build.
    """
    global _source
    source = _source
    if m < len(source[2]) and digits <= source[0]:
        return source
    if m > COEFF_CAP:
        raise ResourceError(f"m={m} exceeds cap {COEFF_CAP}")
    with _source_lock:
        source = _source
        held, _, values, _ = source
        if m < len(values) and digits <= held:
            return source
        size = len(values) - 1
        if m > size:
            size = min(max(m, _SOURCE_FLOOR, math.ceil(_SOURCE_GROWTH * size)), COEFF_CAP)
        if digits > held:
            held = max(digits, math.ceil(_SOURCE_GROWTH * held))
        guard = _guard_digits(size)
        while (built := _attempt(size, held, guard)) is None:
            guard *= 2
        _source = source = (held, *built)
    return source


def _horner(N: int, P: int, U: int, digits: int) -> int:
    """An integer within 3N of 2^P sum_{m<N} x_m u^m, for U = floor(2^P u), 0 < u <= 1.

    The x_m = W_m / 2^bits are the source's values at ``digits`` or more;
    bits >= (digits + 16) log2 10 + 4 is more than 53 past the precision of
    ``digits``, so for P up to that, C_m = floor(2^P x_m) is W_m >> (bits - P).
    Horner runs acc = floor(acc U / 2^P) + C_m over m = N-1, ..., 0 from
    acc = 0.  Write T_k = sum_{k<=m<N} x_m u^(m-k) and e_k = acc_k - 2^P T_k,
    so e_N = 0, and U = 2^P u - d with 0 <= d < 1.  With f, f' in [0, 1) the
    two floors of step k,

        e_k = u e_{k+1} - d acc_{k+1} / 2^P - f - f'.

    ``coeff_envelope`` gives |c_m| <= 1.7376 sqrt(m+1) / sqrt(24)^m for every
    m >= 1, so sum_{m>=1} |c_m| < 0.67; each x_m is within a relative
    10^-(digits+10) of c_m (see ``_attempt``), so |T_k| < 0.7 for k >= 1 and
    |acc_{k+1}| < 0.7 * 2^P + |e_{k+1}|.  Hence |e_k| < |e_{k+1}| (1 + 2^-P)
    + 2.7, and by induction |e_k| < 3(N - k) whenever 10N <= 2^P.
    """
    acc = 0
    if N:
        _, bits, values, _ = _coefficients(N - 1, digits)
        for value in reversed(values[:N]):
            acc = (acc * U >> P) + (value >> bits - P)
    return acc


@functools.lru_cache(maxsize=None)
def coeff_c(m: int, ctx: PrecisionContext):
    """c_m at context precision: the source's W_m / 2^P, rounded once to nearest.

    Memoized per (m, context), that is per (m, digits).  A caller that will
    read a range asks for its last index first, so the source grows once.
    """
    if m < 0:
        raise DomainError(f"m must be nonnegative, got {m}")
    _, bits, values, _ = _coefficients(m, ctx.digits)
    return ctx.mp.make_mpf(from_man_exp(values[m], -bits, ctx.mp.prec, round_nearest))


# Bits beyond the precision at which the envelope amplitudes are formed.
_AMPLITUDE_GUARD = 32


@functools.lru_cache(maxsize=None)
def _even_odd_prefactor(prec: int) -> tuple:
    """(even, odd): 6 sqrt(2) / pi^(3/2) times sinh(pi/6) and cosh(pi/6), raw mpfs of prec bits.

    Formed from mpmath's low-level functions at w = prec + _AMPLITUDE_GUARD
    bits, with 6 sqrt(2) = sqrt(72) and pi^(3/2) = pi sqrt(pi).  Each of the
    seven operations before the last errs by under two units in the last
    place at w bits, so the exact product of the last multiplication is
    within 2^-(prec+27) relative of the amplitude, and that multiplication
    rounds it once to nearest at prec bits: the result is within
    (1/2 + 2^-25) ulp of the amplitude.  Memoized per width, so every
    context of the same precision shares them, and no context is built.
    """
    wide = prec + _AMPLITUDE_GUARD
    pi = mpf_pi(wide)
    base = mpf_div(mpf_sqrt(from_int(72), wide), mpf_mul(pi, mpf_sqrt(pi, wide), wide), wide)
    cosh, sinh = mpf_cosh_sinh(mpf_div(pi, from_int(6), wide), wide)
    return mpf_mul(base, sinh, prec, round_nearest), mpf_mul(base, cosh, prec, round_nearest)


def _sqrt_ratio(num: int, den: int, prec: int) -> tuple:
    """sqrt(num / den) for positive integers, correctly rounded to nearest at prec bits, as a raw mpf.

    With s = max(0, prec + 3 - floor((bits(num) - bits(den)) / 2)), the
    integer r = isqrt(floor(4^s num / den)) = floor(2^s sqrt(num / den)) is
    at least 2^(prec+2).  The root is exactly r when r^2 den = 4^s num, and
    lies strictly inside (r, r + 1) otherwise.  Every rounding boundary of a
    prec-bit number is then an even multiple of 2^-s, so none falls inside
    that interval, and r + 1/2 (r with a sticky bit) rounds the same way as
    the root: the result is correctly rounded, from one rounding.
    """
    shift = max(0, prec + 3 - (num.bit_length() - den.bit_length()) // 2)
    scaled = num << 2 * shift
    root = math.isqrt(scaled // den)
    return from_man_exp(2 * root + (root * root * den != scaled), -shift - 1, prec, round_nearest)


@functools.lru_cache(maxsize=None)
def coeff_envelope(m: int, ctx: PrecisionContext) -> tuple:
    """(amplitude, shape, correction) of the proven envelope
    |c_m| <= amplitude * shape / sqrt(24)^m * correction.

    Even m = 2j:   (6*sqrt(2)/pi^(3/2)) sinh(pi/6), sqrt(2j+1), sqrt(1 + 1/(4j+1)).
    Odd  m = 2j+1: (6*sqrt(2)/pi^(3/2)) cosh(pi/6), sqrt(2j+2), sqrt(1 - 1/(4j+5)).
    The shape sqrt(m+1) and the correction, sqrt((4j+2)/(4j+1)) or
    sqrt((4j+4)/(4j+5)), are correctly rounded by ``_sqrt_ratio``; the
    amplitudes come from ``_even_odd_prefactor``.  Memoized per (m, context).
    """
    if m < 0:
        raise DomainError(f"m must be nonnegative, got {m}")
    mp = ctx.mp
    prec = mp.prec
    even, odd = _even_odd_prefactor(prec)
    j = m // 2
    if m % 2 == 0:
        amplitude, num, den = even, 4 * j + 2, 4 * j + 1
    else:
        amplitude, num, den = odd, 4 * j + 4, 4 * j + 5
    make = mp.make_mpf
    return make(amplitude), make(_sqrt_ratio(m + 1, 1, prec)), make(_sqrt_ratio(num, den, prec))


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
        raise DomainError(f"m must be nonnegative, got {m}")
    mp = ctx.mp
    half_binom = Fraction((2 * m + 1) * comb(2 * m, m), 4**m)  # binom(m+1/2, m)
    amplitude = 3 / (mp.sqrt(2) * mp.pi) * ((-1) ** m * mp.exp(mp.pi / 6) - mp.exp(-mp.pi / 6))
    return amplitude * mp.mpf(half_binom.numerator) / half_binom.denominator / _root(24, ctx.digits) ** m


# The most digits a certified comparison rebuilds the source at.
_CERTIFY_MAX_DIGITS = 1 << 12


def certified_abs_less(m: int, other: int) -> bool:
    """Decide |c_m| < |c_other| exactly.

    The source's integers W and e, from one build at scale 2^-P, put
    2^P |c_m| in [|W_m| - e_m, |W_m| + e_m].  The answer is True when
    |W_m| + e_m < |W_other| - e_other and False when
    |W_m| - e_m >= |W_other| + e_other.  Otherwise the source is rebuilt at
    twice the digits, up to _CERTIFY_MAX_DIGITS, so rounding can never
    decide a near-tie the wrong way.
    """
    if min(m, other) < 0:
        raise DomainError(f"m must be nonnegative, got {m if m < 0 else other}")
    if m == other:
        return False
    held, _, values, radii = _source
    digits = max(held, MIN_DIGITS)
    while True:
        if max(m, other) >= len(values) or digits > held:
            held, _, values, radii = _coefficients(max(m, other), digits)
        if abs(values[m]) + radii[m] < abs(values[other]) - radii[other]:
            return True
        if abs(values[m]) - radii[m] >= abs(values[other]) + radii[other]:
            return False
        if digits >= _CERTIFY_MAX_DIGITS:
            raise PrecisionError(f"could not separate |c_{m}| and |c_{other}| at {held} digits")
        digits = min(2 * digits, _CERTIFY_MAX_DIGITS)
