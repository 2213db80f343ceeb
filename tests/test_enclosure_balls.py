"""The integer balls the enclosure sweeps decide on.

Each ball must hold its value computed with mpmath at three times the
digits, from the closed form of c_m and the exact p(n); a near-tie of the
remainder must be decided only after one escalation; and every printed value
must be its ball rounded once: inside the ball plus half an ulp, and equal to
the value at three times the digits rounded to the context.
"""

import functools
from fractions import Fraction
from math import comb, factorial

import pytest

from partition_asymptotics import (
    PrecisionContext,
    exp_error_term,
    full_sum,
    nu,
    partition_pentagonal,
    r_hat,
    remainder_exact,
    thm1_bounds,
    thm2_bounds,
    thm3_bounds,
)
from partition_asymptotics import bounds, coefficients, expansion, precision, series, verify

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


@pytest.mark.parametrize("digits", DIGITS)
def test_coefficient_root_and_amplitude_balls_enclose_their_values(digits):
    bits = precision._ball_bits(digits)
    mp = _reference(bits)
    values = _closed_form(40, bits)
    for m in (*ORDERS, 25, 40):
        _assert_encloses(coefficients._ball_c(m, bits), bits, values[m])
    base = 6 * mp.sqrt(2) / mp.pi ** mp.mpf(1.5)
    for m, amplitude in ((0, base * mp.sinh(mp.pi / 6)), (1, base * mp.cosh(mp.pi / 6)), (12, base * mp.sinh(mp.pi / 6))):
        ball = coefficients._ball_amplitude(m, bits)
        _assert_encloses(ball, bits, amplitude)
        assert ball[1] == 1  # the held ball's radius
    for num, den in ((3, 1), (1, 1026**12), (13 * 26, 25 * (24 * 499) ** 12), (7, 6), (3474**2 * 5, 1000**2 * (24 * 141) ** 4)):
        ball = precision._ball_sqrt(num, bits, den)
        _assert_encloses(ball, bits, mp.sqrt(mp.mpf(num) / den))
        assert ball[1] == 1


@pytest.mark.parametrize("digits", DIGITS)
def test_generating_function_and_darboux_balls_enclose_their_values(digits):
    # on the g scale, g_m = sqrt(24)^m c_m: the source's ball, the explicit expansion's and the Darboux approximant's
    bits = precision._ball_bits(digits)
    mp = _reference(bits)
    values = _closed_form(40, bits)
    expansion_balls = series._ball_gf(40, bits)
    a = mp.pi / 6
    for m in range(41):
        g = mp.sqrt(24) ** m * values[m]
        _assert_encloses(coefficients._ball_g(m, bits), bits, g)
        _assert_encloses(expansion_balls[m], bits, g)
        darboux = 3 / (mp.sqrt(2) * mp.pi) * ((-1) ** m * mp.exp(a) - mp.exp(-a)) * (2 * m + 1) * comb(2 * m, m) / mp.mpf(4) ** m
        _assert_encloses(coefficients._ball_darboux(m, bits), bits, darboux)


@pytest.mark.parametrize("digits", DIGITS)
def test_per_n_and_sum_balls_enclose_their_values(digits):
    ctx = PrecisionContext(digits)
    bits = precision._ball_bits(ctx.digits)
    mp = _reference(bits)
    values = _closed_form(max(ORDERS), bits)
    for n in POINTS:
        x = mp.pi * mp.sqrt(mp.mpf(2 * n) / 3)
        # the one exp of n gives sqrt(3) e^-x at its own, finer scale 2^-2w, and floor(2^P / sqrt(n))
        wide, _, Q, U = expansion._ball_per_n(n, bits)
        assert U == precision._ball_sqrt(1, bits, n)[0]
        fine = _reference(2 * wide)
        middle, radius = Q
        assert abs(middle - fine.ldexp(fine.sqrt(3) * fine.exp(-2 * fine.pi * fine.sqrt(fine.mpf(n) / 6)), 2 * wide)) <= radius <= middle >> bits
        _assert_encloses(expansion._ball_normalized(n, _table().p(n), bits), bits, 4 * mp.sqrt(3) * n * _table().p(n) * mp.exp(-x))
        _assert_encloses(expansion._ball_error_term(n, bits), bits, mp.exp(-x / 2))
        # the prefactor is far above 1: its radius is bounded relative to its midpoint
        middle, radius = expansion._ball_prefactor(n, bits)
        assert abs(middle - mp.ldexp(mp.exp(x) / (4 * mp.sqrt(3) * n), bits)) <= radius <= middle >> bits - 8
        # the full sum at three times the digits, whose rounding is far below the tail
        whole = mp.mpf(full_sum(n, PrecisionContext(3 * digits)))
        _assert_encloses(expansion._ball_sum(n, None, bits), bits, whole)
        for N in ORDERS:
            partial = mp.fsum(values[m] / mp.mpf(n) ** (mp.mpf(m) / 2) for m in range(N))
            term = abs(values[N]) / mp.mpf(n) ** (mp.mpf(N) / 2)
            _assert_encloses(expansion._ball_sum(n, N, bits), bits, partial)
            _assert_encloses(expansion._ball_term(n, N, bits), bits, term)
            # theta at the scale where its numerator keeps the context's precision, as remainder_exact starts it;
            # theta is near 1 there, so its radius is bounded relative to its midpoint
            scale = bits + max(expansion._decay_bits(n), N * (24 * n).bit_length() // 2)
            middle, radius = expansion._ball_theta(n, N, scale)
            assert abs(middle - mp.ldexp((-1) ** N * (whole - partial) / term, scale)) <= radius <= middle >> bits - 32


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
    bits = precision._ball_bits(ctx.digits)
    mp = _reference(bits)
    values = _closed_form(max(ORDERS), bits)
    for n in POINTS:
        E = mp.exp(-mp.pi * mp.sqrt(mp.mpf(2 * n) / 3) / 2)
        for N in ORDERS:
            envelope = _sinh_cosh_envelope(n, N, mp)
            _assert_encloses(coefficients._ball_envelope(N, (24 * n) ** N, bits), bits, envelope)
            # the T1 and T2 ends: -E and the term or envelope plus E, mirrored for odd N
            term = abs(values[N]) / mp.mpf(n) ** (mp.mpf(N) / 2)
            for above, value in ((expansion._ball_term(n, N, bits), term), (coefficients._ball_envelope(N, (24 * n) ** N, bits), envelope)):
                ends = (-E, value + E) if N % 2 == 0 else (-value - E, E)
                for ball, end in zip(bounds._ball_exponential(n, N, above, bits), ends):
                    _assert_encloses(ball, bits, end)
            for pair_N, C in verify.THM3_REFERENCE_PAIRS:
                if pair_N == N:
                    C = Fraction(C)
                    algebraic = mp.mpf(C.numerator) / C.denominator * mp.sqrt(N + 1) / mp.sqrt(24 * n) ** N
                    lower, upper = bounds._ball_thm3(n, N, C, bits)
                    ends = (-algebraic, algebraic + envelope) if N % 2 == 0 else (-algebraic - envelope, algebraic)
                    _assert_encloses(lower, bits, ends[0])
                    _assert_encloses(upper, bits, ends[1])


def test_remainder_near_tie_is_decided_after_one_escalation():
    """R_7(1026) < Q / 2^(2P), with the integer Q halfway between the midpoint of its ball at 2^-P and its true value.

    The midpoints answer wrongly at P, and the balls overlap (the target
    floored to 2^-P has radius 2); at 2P the true verdict comes out.
    """
    n, N = 1026, 7
    bits = precision._ball_bits(80)
    mp = _reference(bits)
    values = _closed_form(N, bits)
    normalized = 4 * mp.sqrt(3) * n * _table().p(n) * mp.exp(-mp.pi * mp.sqrt(mp.mpf(2 * n) / 3))
    true = mp.ldexp(normalized - mp.fsum(values[m] / mp.mpf(n) ** (mp.mpf(m) / 2) for m in range(N)), bits)
    p = _table().p(n)
    middle, radius = expansion._ball_remainder(n, N, p, bits)
    target = int(mp.nint(mp.ldexp(middle + true, bits - 1)))  # at 2^-2P
    assert abs(true - middle) > 0.25 and middle << bits != target
    holds = true < mp.ldexp(target, -bits)
    assert (middle << bits < target) != holds  # the midpoints give the wrong answer
    scales = []

    def signs(P):
        scales.append(P)
        return [precision._ball_sign(expansion._ball_remainder(n, N, p, P), precision._ball_scale((target, 0), 1, 1 << 2 * bits - P))]

    assert precision._ball_decide(signs, bits) == [-1 if holds else 1]
    assert scales == [bits, 2 * bits]


def _inside(value, ball, bits, ctx):
    """The exact binary value of ``value`` lies within the ball at scale 2^-bits widened by half an ulp of ``value``."""
    sign, man, exp, count = value._mpf_
    exact = Fraction(-man if sign else man) * Fraction(2) ** exp
    half = Fraction(2) ** (exp + count - ctx.mp.prec) / 2 if man else 0
    return abs(exact - Fraction(ball[0], 1 << bits)) <= Fraction(ball[1], 1 << bits) + half


@pytest.mark.parametrize("digits", DIGITS)
def test_printed_route_agrees_with_the_balls(digits):
    """Every printed value lies inside its ball plus half an ulp, and none is refused.

    thm1/thm2/thm3_bounds, remainder_exact (with theta), r_hat,
    exp_error_term and full_sum each round a ball once; here each is held
    against the ball of its sweep form at n's scale, where every value but a
    cancelled remainder has the context's precision.  At 30 digits the
    remainders of 18 of these points cancel below 10 digits, which the mpf
    route once refused.
    """
    ctx = PrecisionContext(digits)
    for n in POINTS:
        bits, p = expansion._per_n_bits(n, ctx.digits), _table().p(n)
        E = expansion._ball_error_term(n, bits)
        assert _inside(exp_error_term(n, ctx), E, bits, ctx)
        assert _inside(full_sum(n, ctx), expansion._ball_sum(n, None, bits), bits, ctx)
        assert _inside(r_hat(n, _table(), ctx), expansion._ball_remainder(n, None, p, bits), bits, ctx)
        for N in ORDERS:
            term, envelope = expansion._ball_term(n, N, bits), coefficients._ball_envelope(N, (24 * n) ** N, bits)
            for report, above in ((thm1_bounds(n, N, ctx), term), (thm2_bounds(n, N, ctx), envelope)):
                lower, upper = bounds._ball_exponential(n, N, above, bits)
                assert _inside(report.lower, lower, bits, ctx) and _inside(report.upper, upper, bits, ctx), (n, N)
            for pair_N, C in verify.THM3_REFERENCE_PAIRS:
                if pair_N == N and n >= nu(N, C):
                    report, (lower, upper) = thm3_bounds(n, N, C, ctx), bounds._ball_thm3(n, N, C, bits)
                    assert _inside(report.lower, lower, bits, ctx) and _inside(report.upper, upper, bits, ctx), (n, N)
            row = remainder_exact(n, N, _table(), ctx, include_theta=True)
            assert _inside(row.remainder, expansion._ball_remainder(n, N, p, bits), bits, ctx), (n, N)
            assert _inside(row.partial_sum, expansion._ball_sum(n, N, bits), bits, ctx), (n, N)
            assert _inside(row.prefactor, expansion._ball_prefactor(n, bits), bits, ctx), (n, N)
            scale = precision._ball_bits(ctx.digits) + max(expansion._decay_bits(n), N * (24 * n).bit_length() // 2)
            assert _inside(row.theta, expansion._ball_theta(n, N, scale), scale, ctx), (n, N)


@pytest.mark.parametrize("digits", DIGITS)
def test_printed_values_are_rounded_once(digits, table):
    """Each printed value is its plain formula at three times the digits rounded once to the context, bit for bit.

    The plain formulas take c_m from the closed form and p(n) from the
    table.  S_0 = 0 and S_1 = 1 are exact, and so are their printed values.
    """
    ctx = PrecisionContext(digits)
    hi = PrecisionContext(3 * digits + 20).mp
    values = _closed_form(12, precision._ball_bits(3 * digits + 20))

    def rounded(value):
        return ctx.real(value)._mpf_

    for n in (1, 7, 200, 2200):
        x = hi.pi * hi.sqrt(hi.mpf(2 * n) / 3)
        E = hi.exp(-x / 2)
        P = 4 * hi.sqrt(3) * n * table.p(n) * hi.exp(-x)
        whole = hi.mpf(full_sum(n, PrecisionContext(3 * digits + 20)))
        assert exp_error_term(n, ctx)._mpf_ == rounded(E), n
        assert full_sum(n, ctx)._mpf_ == rounded(whole), n
        assert r_hat(n, table, ctx)._mpf_ == rounded(P - whole), n
        for N in (0, 1, 4, 12):
            partial = hi.fsum(hi.mpf(values[m]) / hi.mpf(n) ** (hi.mpf(m) / 2) for m in range(N))
            term = hi.mpf(values[N]) / hi.mpf(n) ** (hi.mpf(N) / 2)
            row = remainder_exact(n, N, table, ctx, include_theta=True)
            assert row.remainder._mpf_ == rounded(P - partial), (n, N)
            assert row.partial_sum._mpf_ == rounded(partial), (n, N)
            assert row.prefactor._mpf_ == rounded(hi.exp(x) / (4 * hi.sqrt(3) * n)), (n, N)
            assert row.theta._mpf_ == rounded((whole - partial) / term), (n, N)
            below, above = E, abs(term) + E
            t1 = thm1_bounds(n, N, ctx)
            assert (t1.lower._mpf_, t1.upper._mpf_) == ((rounded(-below), rounded(above)) if N % 2 == 0 else (rounded(-above), rounded(below))), (n, N)
        assert remainder_exact(n, 0, table, ctx).partial_sum._mpf_ == ctx.mp.mpf(0)._mpf_
        assert remainder_exact(n, 1, table, ctx).partial_sum._mpf_ == ctx.mp.mpf(1)._mpf_
