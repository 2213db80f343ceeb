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
within 10^-(D+10) of c_m relative to its size.  ``coeff_c`` rounds c_m's ball
(``_ball_c``) once, by ``_ball_round``.  ``_horner`` sums the W_m, floored to a
coarser scale, against the powers of a u in (0, 1] by Horner on integers,
and its result is proved to lie within 3N units of the sum of the first N
terms at that scale.

Comparisons.  ``certified_abs_less`` decides |c_m| < |c_other| on the
balls of ``_ball_c``, compared exactly; ``_ratio_within_cap`` decides lemma
1's step ratio |c_m / c_(m-1)| against its cap on the same balls, and
``_within_envelope`` lemma 2's |c_m| < envelope, with the envelope's ball at
their scale.  Each is one ``_ball_decide`` group (``_certified``) that starts
_START_BITS below the size of the last |c_k| it reads, whatever the source
holds; only ``_coefficients`` reads the source itself.

Envelope.  Lemma 2's bound on |c_m| is one ball, ``_ball_envelope``, which
T2, T3, lemma2 and thm2 decide on; ``coeff_bound`` is it, and
``coeff_asymptotic`` it without the correction, rounded once to the context.
The gf and asymptotics sweeps compare the source's ball of g_m, ``_ball_g``,
with ``series``' and with the approximants ``_ball_asymptotic`` and ``_ball_darboux``.
"""

from __future__ import annotations

import functools
import math
import threading
from math import comb

from .errors import DomainError, ResourceError
from .precision import (
    _BALL_GUARD,
    _START_BITS,
    PrecisionContext,
    _ball_add,
    _ball_bits,
    _ball_decide,
    _ball_digits,
    _ball_div,
    _ball_exp,
    _ball_mul,
    _ball_pi,
    _ball_round,
    _ball_scale,
    _ball_sign,
    _ball_sqrt,
    _held,
    _root_below,
)


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

    With P = ceil((digits + 10 + guard) log2 10) + _SCALE_MARGIN and the ball
    (Pi, 1) = ``_ball_pi(P)``, so |2^P pi - Pi| <= 1, the integers
    A = floor((Pi - 1) / 6) and B = floor(6 * 4^P / Pi) satisfy
    |A - 2^P a| < 1 + 2/6 < 2 and, as 2^P / a = 6 * 4^P / (2^P pi) is within
    6 * 4^P / (Pi (Pi - 1)) < 1 of 6 * 4^P / Pi, |B - 2^P / a| < 2.  Each
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
    pi = _ball_pi(bits)[0]
    a, inverse_a = (pi - 1) // 6, (6 << 2 * bits) // pi
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

    ``_ball_envelope`` gives |c_m| <= 1.7376 sqrt(m+1) / sqrt(24)^m for every
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
    """c_m at context precision: its ball (``_ball_c``) rounded once to nearest, by ``_round_envelope``.

    Memoized per (m, context), that is per (m, digits).  A caller that will
    read a range asks for its last index first, so the source grows once.
    """
    return _round_envelope(m, ctx, lambda _, bits: _ball_c(m, bits))


def _ball_c(m: int, bits: int, top: int | None = None) -> tuple:
    """c_m as a ball at scale 2^-bits: the source's (W_m, e_m), floored from its scale 2^-Q by a right shift.

    The source is asked for c_0..c_t, t = top (m when None, else at least m), and for the digits that c_t
    (about sqrt(t+1) / sqrt(24)^t) needs relative to its size, d = ``_ball_digits(bits - s)``, s =
    ``_root_below(t + 1, 24^t)``: the context's digits at the scale ``_round_envelope`` starts from.  Q > bits:
    the source holds D >= d digits at Q >= (d + 10 + G) log2 10 + 4, G >= ``_guard_digits(M)`` its guard digits,
    M >= t (see ``_attempt``), and bits - s - _BALL_GUARD <= (d + 3/2) log2 10 (``_ball_digits``), so Q - bits >=
    (G + 17/2) log2 10 - 28 - s > G log2 10 - s.  Each ``_growth`` bound on rho_k exceeds sqrt(24) (the least, at
    k = 0, is about 4.99), so G log2 10 >= (t - 2) log2 sqrt(24) + 6 log2 10 > s + 15, as s <= t log2 sqrt(24).
    Flooring by 2^(Q-bits) moves the midpoint by under 1 and divides the radius: the radius is
    floor(e_m / 2^(Q-bits)) + 2, as in ``_ball_scale``.  Every c_k with k <= t is read from the one request for
    c_t's digits.
    """
    top = m if top is None else top
    _, source_bits, values, radii = _coefficients(top, _ball_digits(bits - _root_below(top + 1, 24**top)))
    shift = source_bits - bits
    return values[m] >> shift, (radii[m] >> shift) + 2


def _ball_g(m: int, bits: int) -> tuple:
    """g_m = sqrt(24)^m c_m as a ball at scale 2^-bits, formed at the finer scale 2^-w, w = bits + bitlen(24^j) + 3.

    c_m is ``_ball_c(m, w)``, times 24^j exactly (``_ball_scale``) and, for m = 2j+1, times ``_ball_sqrt(24, w)``
    (``_ball_mul``); the product is floored to 2^-bits by ``_ball_scale``, and each helper proves its radius.  As
    2^(w-bits) > 8 * 24^j, the floor takes c_m's radius, grown by 24^j (and sqrt(24)), below 5/8 of what it was.
    Nothing depends on the source's scale.
    """
    power = 24 ** (m // 2)
    width = bits + power.bit_length() + 3
    ball = _ball_scale(_ball_c(m, width), power)
    if m % 2:
        ball = _ball_mul(_ball_sqrt(24, width), ball, width)
    return _ball_scale(ball, 1, 1 << width - bits)


# Bits of the scale finer than the one asked at which ``_amplitude`` forms its ball.
_AMPLITUDE_GUARD = 8


def _amplitude(sign: int, bits: int) -> int:
    """For ``_held``: L with L <= 2^bits A < L + 2 for the envelope amplitude A = 6 sqrt(2) / pi^(3/2) times
    sinh(pi/6) (sign -1) or cosh(pi/6) (sign 1), from 2A = sqrt(72 / pi^3) (e^a + sign e^-a), a = pi/6.

    At the finer scale 2^-w, w = bits + g with g = _AMPLITUDE_GUARD and bits
    >= 16, each ball encloses its value by the helper that forms it:
    (Pi, 1) = ``_ball_pi(w)``; a = (Pi, 1) / 6 has radius 2 (``_ball_scale``);
    D = e^-a has radius at most 4 + 2 * 2 = 8 (``_ball_exp``); and E = e^a =
    1 / D (``_ball_div``) has radius at most ceil(4^w 8 / ((M_D - 8) M_D)) + 1
    <= 33, as 2^w e^-a > 0.59 2^w keeps M_D - 8 > 2^(w-1).  The sum
    T = E + sign D has radius at most 41 and |M_T| < 2^(w+2), as
    e^a + e^-a < 2.3.  The root R = isqrt(floor(72 2^(5w) / Pi^3)), by
    ``_ball_sqrt``, is within 1 of 2^w sqrt(72 / p^3) at p = Pi / 2^w; as
    |p - pi| <= 2^-w and the derivative of sqrt(72 / x^3) is at most
    (3/2) sqrt(72) 3^(-5/2) < 1 in size for x >= 3, R is within 2 of
    2^w sqrt(72 / pi^3), and R < 2^(w+1), as sqrt(72 / pi^3) < 1.53.  The
    product R T / 2^(w+1) (``_ball_mul`` at 2^-(w+1)) has radius at most
    floor((2^(w+1) 41 + 2^(w+2) 2 + 82) / 2^(w+1)) + 2 <= 47 < 2^(g-1).  So
    with (M, e) that ball, L = floor((M - e) / 2^g) is at most 2^bits A, and
    2^bits A <= (M + e) / 2^g < L + 1 + 2e / 2^g < L + 2.
    """
    wide = bits + _AMPLITUDE_GUARD
    half_turn = _ball_pi(wide)
    decay = _ball_exp(_ball_scale(half_turn, 1, 6), wide)
    hyperbolic = _ball_add(_ball_div((1 << wide, 0), decay, wide), _ball_scale(decay, sign))
    root = _ball_sqrt(72 << 3 * wide, wide, half_turn[0] ** 3)
    middle, radius = _ball_mul((root[0], root[1] + 1), hyperbolic, wide + 1)
    return middle - radius >> _AMPLITUDE_GUARD


# the envelope amplitudes of even and odd m, held at the widest scale asked
_AMPLITUDES = tuple(_held(functools.partial(_amplitude, sign)) for sign in (-1, 1))


def _ball_amplitude(m: int, bits: int) -> tuple:
    """The envelope amplitude of c_m at scale 2^-bits, sinh (even m) or cosh (odd m): radius 1, by ``_held``.

    The amplitudes are 0.835... and 1.737...
    """
    return _AMPLITUDES[m % 2](bits)


def _ball_amplitude_root(m: int, num: int, den: int, bits: int) -> tuple:
    """The envelope amplitude of c_m (even or odd m) times sqrt(num / den), as a ball at 2^-bits.

    The root is one ball at 2^-bits.  The amplitude ball is formed at 2^-s,
    s = bits less about the bits the root sits below 1 (at least _BALL_GUARD),
    as wide relative to its value as the root, and ``_ball_mul`` of the two
    lands at the root's scale.
    """
    coarse = max(bits - _root_below(num, den), _BALL_GUARD)
    return _ball_mul(_ball_amplitude(m, coarse), _ball_sqrt(num, bits, den), coarse)


def _ball_envelope(m: int, power: int, bits: int) -> tuple:
    """The proven envelope of |c_m| sqrt(24^m / power) as a ball at 2^-bits: for power = (24n)^m, of |c_m| / n^(m/2).

        Even m = 2j:   |c_m| <= (6 sqrt(2) / pi^(3/2)) sinh(pi/6) sqrt(2j+1) / sqrt(24)^m * sqrt(1 + 1/(4j+1)),
        Odd  m = 2j+1: |c_m| <= (6 sqrt(2) / pi^(3/2)) cosh(pi/6) sqrt(2j+2) / sqrt(24)^m * sqrt(1 - 1/(4j+5)).

    With a / b = (4j+2) / (4j+1) or (4j+4) / (4j+5), the square of the
    correction, the shape, the correction and the power are the one root
    sqrt((m+1) a / (b power)) of ``_ball_amplitude_root``.
    """
    j = m // 2
    a, b = (4 * j + 2, 4 * j + 1) if m % 2 == 0 else (4 * j + 4, 4 * j + 5)
    return _ball_amplitude_root(m, (m + 1) * a, b * power, bits)


def _round_envelope(m: int, ctx: PrecisionContext, ball):
    """The real of ball(24^m, P) rounded once to the context, from the scale where sqrt((m+1) / 24^m), about |c_m|, keeps its precision."""
    if m < 0:
        raise DomainError(f"m must be nonnegative, got {m}")
    power = 24**m
    return _ball_round(lambda P: [ball(power, P)], _ball_bits(ctx.digits, m + 1, power), ctx)[0]


def coeff_bound(m: int, ctx: PrecisionContext):
    """Proven upper bound for |c_m|: its envelope (``_ball_envelope``), rounded once to the context."""
    return _round_envelope(m, ctx, functools.partial(_ball_envelope, m))


def _ball_asymptotic(m: int, power: int, bits: int) -> tuple:
    """(-1)^m amplitude sqrt((m+1) / power) as a ball at 2^-bits: the envelope without its correction, with the sign of c_m."""
    return _ball_scale(_ball_amplitude_root(m, m + 1, power, bits), (-1) ** m)


def coeff_asymptotic(m: int, ctx: PrecisionContext):
    """Leading large-m approximation of c_m, ``_ball_asymptotic`` at power 24^m, rounded once to the context."""
    return _round_envelope(m, ctx, functools.partial(_ball_asymptotic, m))


def _ball_darboux(m: int, bits: int) -> tuple:
    """The m-th coefficient of the dominant-singularity approximant of the g_m = sqrt(24)^m c_m, as a ball at 2^-bits.

    The approximant (3 / (sqrt(2) pi)) (e^a (1+z)^(-3/2) - e^(-a) (1-z)^(-3/2)), a = pi/6,
    has m-th coefficient (-1)^m (sqrt(pi) / 2) A_m (2m+1) binom(2m, m) / 4^m, A_m the envelope
    amplitude.  For (Pi, 1) = ``_ball_pi(bits)``, (S, e) = ``_ball_sqrt(Pi, bits, 2^bits)`` holds
    sqrt(Pi / 2^bits), within 2^-bits / (2 sqrt(3)) of sqrt(pi), so (S, e + 1) holds sqrt(pi).
    """
    root = _ball_sqrt(_ball_pi(bits)[0], bits, 1 << bits)
    ball = _ball_mul((root[0], root[1] + 1), _ball_amplitude(m, bits), bits)
    return _ball_scale(ball, (-1) ** m * (2 * m + 1) * comb(2 * m, m), 2 << 2 * m)


def _certified(top: int, balls, what: str) -> bool:
    """Whether lhs < rhs for the balls (lhs, rhs) = balls(P, c) at scale 2^-P, c(k) the ball of |c_k| for k <= top.

    One ``_ball_decide`` group from P = _START_BITS + ``_root_below(top + 1, 24^top)``, _START_BITS below
    the size of c_top, whatever the source holds.  c(k) is the absolute value of ``_ball_c(k, P, top)``, so
    each scale reads the source for c_top's digits once, and the source is rebuilt only while the balls overlap.
    """

    def signs(P):
        def c(k):
            middle, radius = _ball_c(k, P, top)
            return abs(middle), radius

        return [_ball_sign(*balls(P, c))]

    return _ball_decide(signs, _START_BITS + _root_below(top + 1, 24**top), what)[0] < 0


def certified_abs_less(m: int, other: int) -> bool:
    """Decide |c_m| < |c_other| exactly, on the balls of |c_m| and |c_other| that ``_certified`` reads."""
    if min(m, other) < 0:
        raise DomainError(f"m must be nonnegative, got {m if m < 0 else other}")
    if m == other:
        return False
    what = f"the comparison of |c_{m}| and |c_{other}|"
    return _certified(max(m, other), lambda _, c: (c(m), c(other)), what)


def _ratio_within_cap(m: int) -> bool:
    """Decide |c_m / c_(m-1)| < cap for m >= 2: pi / (8 sqrt(6)) for even m, (pi/6 + 12/pi) / (4 sqrt(6)) for odd m.

    Cleared of denominators, 8 sqrt(6) |c_m| < pi |c_(m-1)| and 24 sqrt(6) pi |c_m| < (pi^2 + 72) |c_(m-1)|,
    on the balls of |c_m| and |c_(m-1)| that ``_certified`` reads, ``_ball_pi(P)`` and ``_ball_sqrt(6, P)``,
    all at one scale 2^-P.
    """

    def balls(bits, c):
        half_turn, root6, current, previous = _ball_pi(bits), _ball_sqrt(6, bits), c(m), c(m - 1)
        if m % 2 == 0:
            return _ball_scale(_ball_mul(root6, current, bits), 8), _ball_mul(half_turn, previous, bits)
        lhs = _ball_scale(_ball_mul(half_turn, _ball_mul(root6, current, bits), bits), 24)
        return lhs, _ball_mul(_ball_add(_ball_mul(half_turn, half_turn, bits), (72 << bits, 0)), previous, bits)

    return _certified(m, balls, f"the cap on |c_{m}/c_{m - 1}|")


def _within_envelope(m: int) -> bool:
    """Decide |c_m| < its envelope, lemma 2's bound, on the ball of |c_m| that ``_certified`` reads and
    ``_ball_envelope(m, 24^m, .)``, both at one scale 2^-P."""
    power = 24**m
    return _certified(m, lambda bits, c: (c(m), _ball_envelope(m, power, bits)), f"the envelope bound on |c_{m}|")
