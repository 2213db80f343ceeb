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
g_0..g_M as entries (G_m, E_m, w_m): the integer G_m that the recurrence forms
at width w_m, with an integer radius E_m, |G_m - 2^w_m g_m| <= E_m.  It is
built for D digits, the largest digit count asked for so far, and grows by a
factor 1.25 in M or D when a request goes past it, up to M = COEFF_CAP.  A
build runs the recurrence on integers scaled by 2^w, and carries with each g_m
an integer radius that bounds its error: every floor and the errors of the
fixed-point a and 1/a are counted, and the radius recurrence is written in
``_attempt``.  An error made at step m is amplified only by the rho_j after
it, so step m runs at a width w_m a few bits above (D + 16) log2 10 + log2
prod_{j>=m} rho_j, which falls as m grows.  |G_m| > (10^(D+10) + 1) E_m is
checked, so that G_m / 2^w_m is within 10^-(D+10) of g_m, and of c_m too,
relative to its size.  Every reader floors the entries to its scale:
``_ball_g`` one of them, ``_horner`` and ``expansion._ball_pass`` those they
sum against the powers of u = 1/sqrt(24n), as c_m n^(-m/2) = g_m u^m.
``coeff_c`` rounds c_m's ball (``_ball_c``, g_m over sqrt(24)^m) once, by
``_ball_round``.

Comparisons.  ``certified_abs_less`` decides |c_m| < |c_other| on the balls
of |g_m| and |g_other|, the one of the smaller index times sqrt(24) to the
difference; ``_ratio_within_cap`` decides lemma 1's step ratio against its
cap, and ``_within_envelope`` lemma 2's |c_m| < envelope, on the same balls
and with the envelope's ball times sqrt(24)^m.  Each is one ``_ball_decide``
group (``_certified``) that starts at _START_BITS, below the size of every
|g_m| >= 1, whatever the source holds; only ``_coefficients`` reads the
source itself.

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
from itertools import accumulate
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
# The first guard digits of a build's base width, beyond digits + 10: for the
# errors the steps add and the size of g_m; doubled while a build fails its check.
_GUARD_MARGIN = 6
# Bits of the base width beyond (digits + 10 + guard) * log2(10), about one more digit.
_SCALE_MARGIN = 4
# The fewest bits a build narrows its working width by.
_NARROW_STEP = 64
# The fewest terms the source holds, and its growth factor in terms and digits.
_SOURCE_FLOOR = 16
_SOURCE_GROWTH = 1.25
# The largest index the source serves: enough for the full sum at n = 1 and
# 2000 digits (2909 terms).  The build to c_3000 at 2000 digits takes about
# 2.3 s on a 2-core machine, in a process that peaks at 23 MB resident;
# c_(10^5) would take about 11 GB.
COEFF_CAP = 3000

# (D, ((G_0, E_0, w_0), ..., (G_M, E_M, w_M))): |G_m - 2^w_m g_m| <= E_m, each entry at the
# width it was formed at, built for D digits.  A build is published by assigning a new tuple, so a
# reader sees one whole build.
_source = (0, ())
_source_lock = threading.Lock()


def _growth(m: int) -> tuple:
    """(numerator, denominator), integers whose ratio bounds rho_m from above
    (|(m+1)(m+4) - a^2| < (m+1)(m+4), since 0 < a^2 < 4)."""
    numerator = _A_SCALE * ((m + 1) * (m + 4) + (m + 2) * (m + 4)) + _A_HI * (2 * m + 7)
    return numerator, _A_LO * (2 * m + 6)


def _headroom(size: int) -> list:
    """L_0..L_(size-2): L_i = ceil(log2 of the product of the ``_growth`` bounds on rho_j for i <= j < size - 2).

    The doubles round each logarithm by under 1e-15 relative; the 1e-6 added
    before the ceiling dwarfs their sum for any size this toolkit reaches, so
    L_i is at least the logarithm of the product, and L_(size-2) = 0.
    """
    logs = [math.log2(top) - math.log2(bottom) for top, bottom in map(_growth, range(size - 2))]
    return [math.ceil(total + 1e-6) for total in accumulate(reversed(logs), initial=0.0)][::-1]


def _attempt(size: int, digits: int, guard: int):
    """((G_m, E_m, w_m) for m = 0..size): g_0..g_size as integers G_m within E_m of 2^w_m g_m, from the recurrence in fixed point.

    Widths.  With base = ceil((digits + 10 + guard) log2 10) + _SCALE_MARGIN
    and L_i from ``_headroom``, step m runs at a width w of at least
    base + L_m bits: an error made there reaches the last entry multiplied by
    at most the product of rho_j over the steps after it, which L_m covers.
    The build starts at w = base + L_0 and narrows before step m to
    base + L_m once that is _NARROW_STEP or more bits below w, so the widths
    never rise.

    A step.  With the ball (Pi, 1) = ``_ball_pi(w)``, so |2^w pi - Pi| <= 1,
    the integers A = floor((Pi - 1) / 6) and B = floor(6 * 4^w / Pi) satisfy
    |A - 2^w a| < 1 + 2/6 < 2 and, as 2^w / a = 6 * 4^w / (2^w pi) is within
    6 * 4^w / (Pi (Pi - 1)) < 1 of 6 * 4^w / Pi, |B - 2^w / a| < 2.  Each
    step forms, with G_m the integer standing for 2^w g_m,

        S = (m+1)(m+4) G_{m+2} - (m+2)(m+4) G_m                  (exact)
        G_{m+3} = floor((floor(S B / 2^w) - floor(A G_{m+2} / 2^w) + (2m+7) G_{m+1}) / (2m+6)).

    If |2^w g_k - G_k| <= E_k for k = m, m+1, m+2, the three errors reach
    G_{m+3} multiplied by at most rho_m in all, the errors of A and B add under
    2 (|S| + |G_{m+2}|) / 2^w, the two inner floors under 1 and the outer floor
    under 1 more, so

        E_{m+3} = ceil((top * max(E_m, E_{m+1}, E_{m+2}) + _A_LO * F) / bottom) + 1,
        F = floor((|S| + |G_{m+2}|) / 2^(w-1)) + 2,

    with (top, bottom) from ``_growth`` and E_0, E_1, E_2 = 0, 4, 2 for the
    seeds 2^w, -(floor(A/2) + B) and floor(A^2 / 2^(w+3)) + 3 * 2^(w-1).

    Narrowing by c >= 1 bits floors G_m, G_{m+1}, G_{m+2}, A and B by 2^c.
    A floor adds at most one unit to each value: floor(X / 2^c) lies in
    (X / 2^c - 1, X / 2^c].  So |floor(G_k / 2^c) - 2^(w-c) g_k| < E_k / 2^c + 1
    <= floor(E_k / 2^c) + 2, the new E_k: the three balls (G_k, E_k) are
    floored by ``_ball_scale``.  A and B stay within 2 / 2^c + 1 <= 2 of
    2^(w-c) a and 2^(w-c) / a, as the step needs.

    Entry m is the (G_m, E_m) of the width w_m it was formed at (the start
    width for m < 3), not a narrowed copy.  Returns None unless
    |G_m| > (10^(digits+10) + 1) E_m for every m: then E_m 10^(digits+10) <
    |G_m| - E_m <= 2^w_m |g_m|, so each G_m / 2^w_m is within
    10^-(digits+10) |g_m| of g_m.
    """
    base = math.ceil((digits + 10 + guard) * math.log2(10)) + _SCALE_MARGIN
    headroom = _headroom(size)
    width = base + headroom[0]
    pi = _ball_pi(width)[0]
    a, inverse_a = (pi - 1) // 6, (6 << 2 * width) // pi
    live = (1 << width, 0), (-((a >> 1) + inverse_a), 4), ((a * a >> width + 3) + (3 << width - 1), 2)
    entries = [(*ball, width) for ball in live]
    (g0, e0), (g1, e1), (g2, e2) = live
    for m in range(size - 2):
        cut = width - base - headroom[m]
        if cut >= _NARROW_STEP:
            width -= cut
            (g0, e0), (g1, e1), (g2, e2) = (_ball_scale(ball, 1, 1 << cut) for ball in ((g0, e0), (g1, e1), (g2, e2)))
            a, inverse_a = a >> cut, inverse_a >> cut
        step = (m + 1) * (m + 4) * g2 - (m + 2) * (m + 4) * g0
        value = ((step * inverse_a >> width) - (a * g2 >> width) + (2 * m + 7) * g1) // (2 * m + 6)
        top, bottom = _growth(m)
        floors = (abs(step) + abs(g2) >> width - 1) + 2
        radius = -(-(top * max(e0, e1, e2) + _A_LO * floors) // bottom) + 1
        g0, g1, g2, e0, e1, e2 = g1, g2, value, e1, e2, radius
        entries.append((value, radius, width))
    target = 10 ** (digits + 10) + 1
    if any(abs(value) <= target * radius for value, radius, _ in entries):
        return None
    return tuple(entries)


def _coefficients(m: int, digits: int) -> tuple:
    """The source (D, entries), entries[k] = (G_k, E_k, w_k) for k <= M, with M >= m and D >= digits.

    A request past the source rebuilds it, with M and D each raised to at
    least _SOURCE_GROWTH times what was held if it is exceeded, and M to at
    least _SOURCE_FLOOR but at most COEFF_CAP; a build starts at _GUARD_MARGIN
    guard digits, and one whose error check fails is repeated with twice
    them.  An m past COEFF_CAP raises ResourceError before any build.
    """
    global _source
    source = _source
    if m < len(source[1]) and digits <= source[0]:
        return source
    if m > COEFF_CAP:
        raise ResourceError(f"m={m} exceeds cap {COEFF_CAP}")
    with _source_lock:
        source = _source
        held, entries = source
        if m < len(entries) and digits <= held:
            return source
        size = len(entries) - 1
        if m > size:
            size = min(max(m, _SOURCE_FLOOR, math.ceil(_SOURCE_GROWTH * size)), COEFF_CAP)
        if digits > held:
            held = max(digits, math.ceil(_SOURCE_GROWTH * held))
        guard = _GUARD_MARGIN
        while (built := _attempt(size, held, guard)) is None:
            guard *= 2
        _source = source = (held, built)
    return source


def _horner(N: int, P: int, U: int, digits: int) -> int:
    """An integer within 7 of 2^P sum_{m<N} x_m u^m, for U = floor(2^P u), 0 < u <= 1/sqrt(24).

    The x_m = G_m / 2^w_m are the source's values of g_m at ``digits`` or
    more, and w_m > P for P up to the ball scale of ``digits`` (see
    ``_ball_g``), so C_m = floor(2^P x_m) is G_m >> (w_m - P).  Horner runs
    acc = floor(acc U / 2^P) + C_m over m = N-1, ..., 0 from acc = 0.  Write
    T_k = sum_{k<=m<N} x_m u^(m-k), X_k the same sum of the |x_m|, and
    e_k = acc_k - 2^P T_k, so e_N = 0, and U = 2^P u - d with 0 <= d < 1.
    With f, f' in [0, 1) the two floors of step k,

        e_k = u e_{k+1} + delta_k,  delta_k = -d acc_{k+1} / 2^P - f - f',

    so e_0 = sum_{k<N} u^k delta_k: an error shrinks by a factor u at each
    later step.  A floor adds under 1 to a size, so |acc_k| < u |acc_{k+1}|
    + 2^P |x_k| + 2 and |acc_k| < 2^P X_k + 2 / (1 - u) < 2^P X_k + 3; hence
    |delta_k| < X_{k+1} + 2 + 3 / 2^P.  Summed, sum_k u^k X_{k+1} =
    sum_{1<=m<N} m |x_m| u^(m-1).  ``_ball_envelope`` gives |g_m| <=
    1.7376 sqrt(m+1) for every m, and x_m is within a relative 10^-(digits+10)
    of g_m (see ``_attempt``), so with u <= 1/sqrt(24) that sum is under
    1.7377 * 2.477 < 4.31, and |e_0| < 4.31 + (2 + 3 / 2^P) / (1 - u) < 7.
    """
    acc = 0
    if N:
        for value, _, width in reversed(_coefficients(N - 1, digits)[1][:N]):
            acc = (acc * U >> P) + (value >> width - P)
    return acc


@functools.lru_cache(maxsize=None)
def coeff_c(m: int, ctx: PrecisionContext):
    """c_m at context precision: its ball (``_ball_c``) rounded once to nearest, by ``_round_envelope``.

    Memoized per (m, context), that is per (m, digits).  A caller that will
    read a range asks for its last index first, so the source grows once.
    """
    return _round_envelope(m, ctx, lambda _, bits: _ball_c(m, bits))


def _ball_c(m: int, bits: int) -> tuple:
    """c_m = g_m / sqrt(24)^m as a ball at scale 2^-bits, for ``coeff_c``.

    c_m sits about s = ``_root_below(m + 1, 24^m)`` bits below g_m, so g_m is
    read at the coarser scale 2^-(bits - s) (``_ball_g``) and scaled by
    2^s / 24^j, j = floor(m/2), to g_m / 24^j at 2^-bits (``_ball_scale``);
    for odd m that is multiplied by 1 / sqrt(24), ``_ball_sqrt(1, bits, 24)``
    (``_ball_mul``).  Each helper proves its radius.  The source is asked for
    the digits of scale 2^-(bits - s): the context's digits at the scale
    ``_round_envelope`` starts from.
    """
    shift = _root_below(m + 1, 24**m)
    ball = _ball_scale(_ball_g(m, bits - shift), 1 << shift, 24 ** (m // 2))
    return _ball_mul(_ball_sqrt(1, bits, 24), ball, bits) if m % 2 else ball


def _ball_g(m: int, bits: int) -> tuple:
    """g_m = sqrt(24)^m c_m as a ball at scale 2^-bits: the source's entry (G_m, E_m, w_m), floored from 2^-w_m by a right shift.

    The source is asked for g_0..g_m at d = ``_ball_digits(bits)`` digits.
    It holds D >= d digits, built at guard G >= 6, and every width w_m is at
    least base = ceil((D + 10 + G) log2 10) + 4 (see ``_attempt``), while
    bits - _BALL_GUARD <= (d + 3/2) log2 10 (``_ball_digits``), so
    w_m - bits >= (G + 17/2) log2 10 + 4 - 32 > 20.  Flooring by
    2^(w_m - bits) moves the midpoint by under 1 and divides the radius: the
    radius is floor(E_m / 2^(w_m - bits)) + 2, as in ``_ball_scale``.  The
    scale is the one asked, whatever the source holds.
    """
    value, radius, width = _coefficients(m, _ball_digits(bits))[1][m]
    return value >> width - bits, (radius >> width - bits) + 2


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


def _certified(balls, what: str) -> bool:
    """Whether lhs < rhs for the balls (lhs, rhs) = balls(P, g) at scale 2^-P, g(k) the ball of |g_k|.

    One ``_ball_decide`` group from P = _START_BITS: every |g_k| the source
    serves is at least 1, so that is _START_BITS below its size, whatever the
    source holds.  g(k) is the absolute value of ``_ball_g(k, P)``, and the
    source is rebuilt only while the balls overlap.
    """

    def signs(P):
        def g(k):
            middle, radius = _ball_g(k, P)
            return abs(middle), radius

        return [_ball_sign(*balls(P, g))]

    return _ball_decide(signs, _START_BITS, what)[0] < 0


def certified_abs_less(m: int, other: int) -> bool:
    """Decide |c_m| < |c_other| exactly, on the balls of |g_m| and |g_other| that ``_certified`` reads.

    Times sqrt(24)^k for the larger index k, the claim is |g_m| sqrt(24)^(k-m) < |g_other| sqrt(24)^(k-other):
    the ball of the smaller index is multiplied by 24^floor(d/2) exactly and, for an odd difference d, by
    ``_ball_sqrt(24, P)`` (``_ball_mul``).
    """
    if min(m, other) < 0:
        raise DomainError(f"m must be nonnegative, got {m if m < 0 else other}")
    if m == other:
        return False
    low, high = sorted((m, other))
    power = 24 ** ((high - low) // 2)

    def balls(bits, g):
        top = g(high)  # the last index first, so the source grows once
        bottom = _ball_scale(g(low), power)
        if (high - low) % 2:
            bottom = _ball_mul(_ball_sqrt(24, bits), bottom, bits)
        return (top, bottom) if m == high else (bottom, top)

    return _certified(balls, f"the comparison of |c_{m}| and |c_{other}|")


def _ratio_within_cap(m: int) -> bool:
    """Decide |c_m / c_(m-1)| < cap for m >= 2: pi / (8 sqrt(6)) for even m, (pi/6 + 12/pi) / (4 sqrt(6)) for odd m.

    As c_m / c_(m-1) = g_m / (sqrt(24) g_(m-1)) and sqrt(24) = 2 sqrt(6), cleared of denominators the caps are
    4 |g_m| < pi |g_(m-1)| and 12 pi |g_m| < (pi^2 + 72) |g_(m-1)|, on the balls of |g_m| and |g_(m-1)| that
    ``_certified`` reads and ``_ball_pi(P)``, all at one scale 2^-P.
    """

    def balls(bits, g):
        current, previous, half_turn = g(m), g(m - 1), _ball_pi(bits)
        if m % 2 == 0:
            return _ball_scale(current, 4), _ball_mul(half_turn, previous, bits)
        lhs = _ball_scale(_ball_mul(half_turn, current, bits), 12)
        return lhs, _ball_mul(_ball_add(_ball_mul(half_turn, half_turn, bits), (72 << bits, 0)), previous, bits)

    return _certified(balls, f"the cap on |c_{m}/c_{m - 1}|")


def _within_envelope(m: int) -> bool:
    """Decide |c_m| < its envelope, lemma 2's bound, as |g_m| < ``_ball_envelope(m, 1, .)``, the envelope times
    sqrt(24)^m, on the ball of |g_m| that ``_certified`` reads, both at one scale 2^-P."""
    return _certified(lambda bits, g: (g(m), _ball_envelope(m, 1, bits)), f"the envelope bound on |c_{m}|")
