"""The integer balls the enclosure sweeps decide on.

Each ball must hold its value computed with mpmath at three times the
digits, from the closed form of c_m and the exact p(n); a near-tie of the
remainder must be decided only after one escalation; and the printed (mpf)
values of the bounds and the remainder must agree with the balls.
"""

import functools
from fractions import Fraction
from math import comb, factorial

import pytest

from partition_asymptotics import (
    PrecisionContext,
    PrecisionError,
    nu,
    partition_pentagonal,
    remainder_exact,
    thm1_bounds,
    thm2_bounds,
    thm3_bounds,
)
from partition_asymptotics import bounds, coefficients, expansion, precision, verify

DIGITS = (30, 80, 166)
POINTS = (1, 7, 141, 499, 1026)
ORDERS = range(13)


@functools.lru_cache(maxsize=None)
def _table():
    return partition_pentagonal(max(POINTS))


def _reference(bits):
    """An mpmath context at three times the decimal digits of a ball scale."""
    return PrecisionContext(3 * (int(bits * 0.30103) + 1)).mp


@functools.lru_cache(maxsize=None)
def _closed_form(M, bits):
    """c_0 .. c_M from the closed form, at three times the digits of scale 2^-bits."""
    mp = _reference(bits)
    return tuple(
        (-1) ** m
        * mp.fsum(comb(m + 1, k) * (m + 1 - k) * (mp.pi / 6) ** (m - 2 * k) / factorial(m + 1 - 2 * k) for k in range((m + 1) // 2 + 1))
        / (4 * mp.sqrt(6)) ** m
        for m in range(M + 1)
    )


def _assert_encloses(ball, bits, value):
    """The ball holds ``value`` and its radius stays far below the guard bits."""
    middle, radius = ball
    mp = value.context
    assert abs(middle - mp.ldexp(value, bits)) <= radius, (ball, value)
    assert 0 <= radius < 2 ** (precision._BALL_GUARD - 8), ball


@functools.lru_cache(maxsize=None)
def _memo():
    """The sweeps' memo of per-n balls (P(n), E(n), U), with the exp width of the largest point."""
    return expansion._ball_memo(max(POINTS))


@pytest.mark.parametrize("digits", DIGITS)
def test_coefficient_root_and_amplitude_balls_enclose_their_values(digits):
    bits = precision._ball_bits(PrecisionContext(digits))
    mp = _reference(bits)
    values = _closed_form(40, bits)
    for m in (*ORDERS, 25, 40):
        _assert_encloses(coefficients._ball_c(m, bits), bits, values[m])
    base = 6 * mp.sqrt(2) / mp.pi ** mp.mpf(1.5)
    for m, amplitude in ((0, base * mp.sinh(mp.pi / 6)), (1, base * mp.cosh(mp.pi / 6)), (12, base * mp.sinh(mp.pi / 6))):
        ball = coefficients._ball_amplitude(m, bits)
        _assert_encloses(ball, bits, amplitude)
        assert ball[1] == 2  # the docstring's radius
    for num, den in ((3, 1), (1, 1026**12), (13 * 26, 25 * (24 * 499) ** 12), (7, 6), (3474**2 * 5, 1000**2 * (24 * 141) ** 4)):
        ball = precision._ball_sqrt(num, bits, den)
        _assert_encloses(ball, bits, mp.sqrt(mp.mpf(num) / den))
        assert ball[1] == 1


@pytest.mark.parametrize("digits", DIGITS)
def test_per_n_and_sum_balls_enclose_their_values(digits):
    ctx = PrecisionContext(digits)
    bits = precision._ball_bits(ctx)
    mp = _reference(bits)
    values = _closed_form(max(ORDERS), bits)
    for n in POINTS:
        x = mp.pi * mp.sqrt(mp.mpf(2 * n) / 3)
        normalized, E, U = _memo()(n, bits)
        _assert_encloses(normalized, bits, 4 * mp.sqrt(3) * n * _table().p(n) * mp.exp(-x))
        _assert_encloses(E, bits, mp.exp(-x / 2))
        assert U == precision._ball_sqrt(1, bits, n)[0]
        for N in ORDERS:
            partial = mp.fsum(values[m] / mp.mpf(n) ** (mp.mpf(m) / 2) for m in range(N))
            _assert_encloses(expansion._ball_sum(n, N, U, bits), bits, partial)
            _assert_encloses(expansion._ball_term(n, N, bits), bits, abs(values[N]) / mp.mpf(n) ** (mp.mpf(N) / 2))
        # the full sum against the mpf route at three times the digits, whose error is far below the tail
        whole = expansion.full_sum(n, PrecisionContext(3 * digits))
        _assert_encloses(expansion._ball_sum(n, None, U, bits), bits, mp.mpf(whole))


def _sinh_cosh_envelope(n, N, mp):
    """The envelope of |c_N| / n^(N/2), from its plain formula."""
    j, base = N // 2, 6 * mp.sqrt(2) / mp.pi ** mp.mpf(1.5)
    if N % 2 == 0:
        amplitude, correction = base * mp.sinh(mp.pi / 6), mp.sqrt(1 + mp.mpf(1) / (4 * j + 1))
    else:
        amplitude, correction = base * mp.cosh(mp.pi / 6), mp.sqrt(1 - mp.mpf(1) / (4 * j + 5))
    return amplitude * mp.sqrt(N + 1) * correction / mp.sqrt(24 * n) ** N


@pytest.mark.parametrize("digits", DIGITS)
def test_bound_balls_enclose_their_values(digits):
    ctx = PrecisionContext(digits)
    bits = precision._ball_bits(ctx)
    mp = _reference(bits)
    for n in POINTS:
        for N in ORDERS:
            envelope = _sinh_cosh_envelope(n, N, mp)
            _assert_encloses(bounds._ball_envelope(N, (24 * n) ** N, bits), bits, envelope)
            for pair_N, C in verify.THM3_REFERENCE_PAIRS:
                if pair_N == N:
                    C = Fraction(C)
                    algebraic = mp.mpf(C.numerator) / C.denominator * mp.sqrt(N + 1) / mp.sqrt(24 * n) ** N
                    lower, upper = bounds._ball_thm3(n, N, C, bits)
                    ends = (-algebraic, algebraic + envelope) if N % 2 == 0 else (-algebraic - envelope, algebraic)
                    _assert_encloses(lower, bits, ends[0])
                    _assert_encloses(upper, bits, ends[1])


def test_remainder_near_tie_is_decided_after_one_escalation(ctx80):
    """R_7(1026) < Q / 2^P, with the integer Q between the midpoint of its ball and its true value.

    The midpoints answer wrongly at P, and the balls overlap; at 2P the true
    verdict comes out.  With the radii of both P(n) and S_N set to 0 this fails.
    """
    n, N = 1026, 7
    bits = precision._ball_bits(ctx80)
    mp = _reference(bits)
    values = _closed_form(N, bits)
    normalized = 4 * mp.sqrt(3) * n * _table().p(n) * mp.exp(-mp.pi * mp.sqrt(mp.mpf(2 * n) / 3))
    true = mp.ldexp(normalized - mp.fsum(values[m] / mp.mpf(n) ** (mp.mpf(m) / 2) for m in range(N)), bits)
    per_n = expansion._ball_memo(n)
    middle, radius = expansion._ball_remainder(per_n, n, N, bits)
    assert abs(true - middle) > 1  # so an integer lies strictly between them
    target = middle + 1 if true > middle else middle - 1
    holds = true < target
    assert (middle < target) != holds  # the midpoints give the wrong answer
    scales = []

    def signs(P):
        scales.append(P)
        return [precision._ball_sign(expansion._ball_remainder(per_n, n, N, P), (target << P - bits, 0))]

    assert precision._ball_decide(signs, bits) == [-1 if holds else 1]
    assert scales == [bits, 2 * bits]


@pytest.mark.filterwarnings("ignore::partition_asymptotics.PrecisionWarning")  # 30 digits is below every recommendation here
@pytest.mark.parametrize("digits", DIGITS)
def test_printed_route_agrees_with_the_balls(digits):
    """thm1/thm2/thm3_bounds and remainder_exact lie within a few ulp of the balls the sweeps decide on.

    The mpf route rounds x = pi sqrt(2n/3) before its exp, and an exp turns
    that into a relative error of a few x 2^-prec: so an end of T1 or T2
    must lie within its ball's radius plus (4 + 2x) ulp, and the remainder,
    whose operands P(n) and S_N lie near 1, within (4 + 2x) ulp of 1.  T3's
    ends take no exp and must lie within 2 ulp.  At 30 digits
    remainder_exact refuses some points for cancellation, which the balls
    decide.
    """
    ctx = PrecisionContext(digits)
    bits = precision._ball_bits(ctx)
    mp = ctx.mp

    def assert_near(value, ball, ulps, scale=None):
        ulp = mp.ldexp(1, mp.mag(value if scale is None else scale) - mp.prec)
        assert abs(value - mp.ldexp(ball[0], -bits)) <= mp.ldexp(ball[1], -bits) + ulps * ulp, (value, ball)

    refused = 0
    for n in POINTS:
        x = float(mp.pi * mp.sqrt(mp.mpf(2 * n) / 3))
        _, E, _ = _memo()(n, bits)
        for N in ORDERS:
            term, envelope = expansion._ball_term(n, N, bits), bounds._ball_envelope(N, (24 * n) ** N, bits)
            for report, above in ((thm1_bounds(n, N, ctx), term), (thm2_bounds(n, N, ctx), envelope)):
                lower, upper = bounds._ball_enclosure(N, E, precision._ball_add(above, E))
                assert_near(report.lower, lower, 4 + 2 * x)
                assert_near(report.upper, upper, 4 + 2 * x)
            for pair_N, C in verify.THM3_REFERENCE_PAIRS:
                if pair_N == N and n >= nu(N, C, ctx):
                    report, (lower, upper) = thm3_bounds(n, N, C, ctx), bounds._ball_thm3(n, N, C, bits)
                    assert_near(report.lower, lower, 2)
                    assert_near(report.upper, upper, 2)
            try:
                remainder = remainder_exact(n, N, _table(), ctx).remainder
            except PrecisionError:
                assert digits == 30
                refused += 1
                continue
            assert_near(remainder, expansion._ball_remainder(_memo(), n, N, bits), 4 + 2 * x, scale=1)
    assert refused == (18 if digits == 30 else 0)
