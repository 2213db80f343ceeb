"""Remainders, tail sums, the tail mediant, and the residual envelopes."""

import concurrent.futures
import functools
import inspect
import sys
import threading
import warnings

import pytest

from partition_asymptotics import (
    DomainError,
    PartitionTable,
    PrecisionContext,
    coeff_c,
    exp_error_term,
    full_sum,
    partition_pentagonal,
    r_hat,
    remainder_exact,
    banerjee_bounds,
    thm1_bounds,
    thm2_bounds,
    thm3_bounds,
)
from partition_asymptotics import bounds, coefficients, expansion, precision, verify
from partition_asymptotics.cli import format_scientific

from helpers import ulp


def _lemma3_balls(n, ctx):
    """(P, chain): the lemma3 sweep's balls at n, at the context's scale 2^-P."""
    bits = precision._ball_bits(ctx.digits)
    return bits, verify._lemma3_chain(n, bits)


def _midpoint(ball, bits, ctx):
    """A ball's midpoint M / 2^P, rounded once to the context."""
    return ctx.mp.ldexp(ctx.mp.mpf(ball[0]), -bits)


def _assert_encloses(ball, bits, value):
    """The ball holds ``value``, taken at three times the digits, and its radius is bounded."""
    middle, radius = ball
    mp = value.context
    assert abs(middle - mp.ldexp(value, bits)) <= radius, (ball, value)
    assert 0 <= radius < 2 ** (precision._BALL_GUARD - 8), ball


def _mu(n, ctx):
    """(P, mu ball), mu(n) = (pi/6) sqrt(24n - 1), as the lemma3 sweep forms it."""
    bits, chain = _lemma3_balls(n, ctx)
    return bits, chain[1]


def test_mu_values(ctx80):
    mp = ctx80.mp
    hi = PrecisionContext(240).mp
    for n in (1, 7, 432, 1000, 5000):
        bits, ball = _mu(n, ctx80)
        _assert_encloses(ball, bits, hi.pi * hi.sqrt(24 * n - 1) / 6)

    def mu(n):
        bits, ball = _mu(n, ctx80)
        return _midpoint(ball, bits, ctx80)

    assert mp.almosteq(mu(1), mp.pi * mp.sqrt(23) / 6, rel_eps=mp.mpf(10) ** -75)
    assert mp.nstr(mu(1), 5) == "2.5111"
    assert mp.nstr(mu(1000), 4) == "81.11"
    # mu^2 = pi^2 (24n - 1)/36 exactly as an identity on rationals times pi^2
    for n in (1, 7, 432, 1000):
        value = mu(n) ** 2
        expected = mp.pi**2 * (24 * n - 1) / 36
        assert abs(value - expected) <= 8 * ulp(expected, ctx80)


def test_prefactor_values(ctx80, table):
    mp = ctx80.mp

    def prefactor(n):
        return remainder_exact(n, 0, table, ctx80).prefactor

    expected_1 = mp.exp(mp.pi * mp.sqrt(mp.mpf(2) / 3)) / (4 * mp.sqrt(3))
    assert mp.almosteq(prefactor(1), expected_1, rel_eps=mp.mpf(10) ** -75)
    assert mp.nstr(prefactor(1), 5) == "1.8767"
    # at n = 6 the exponent is exactly 2 pi
    expected_6 = mp.exp(2 * mp.pi) / (24 * mp.sqrt(3))
    assert mp.almosteq(prefactor(6), expected_6, rel_eps=mp.mpf(10) ** -75)
    # e^x / (4 sqrt(3) n) rounded once: within half an ulp of its value at three times the digits
    hi = PrecisionContext(240).mp
    for n in (1, 6, 100, 1000):
        exact = hi.exp(hi.pi * hi.sqrt(hi.mpf(2 * n) / 3)) / (4 * hi.sqrt(3) * n)
        assert abs(hi.mpf(prefactor(n)) - exact) <= hi.mpf(ulp(prefactor(n), ctx80)) / 2, n


def test_partial_sum_values(ctx80, table):
    mp = ctx80.mp
    assert remainder_exact(5, 0, table, ctx80).partial_sum == 0
    assert remainder_exact(5, 1, table, ctx80).partial_sum == 1
    expected = 1 + coeff_c(1, ctx80) / 2
    S_2 = remainder_exact(4, 2, table, ctx80).partial_sum
    assert mp.almosteq(S_2, expected, rel_eps=mp.mpf(10) ** -75)
    assert mp.nstr(S_2, 4) == "0.7784"


def test_remainder_reference_values(ctx80, table):
    assert format_scientific(remainder_exact(200, 4, table, ctx80).remainder) == "0.9016237417e-7"
    assert format_scientific(remainder_exact(500, 6, table, ctx80).remainder) == "0.1523607771e-11"
    assert format_scientific(remainder_exact(1000, 10, table, ctx80).remainder) == "0.1676334056e-17"


def test_low_precision_remainders_are_the_wide_values_rounded(table):
    # at 30 digits the remainders of n = 1000 cancel most of the context's
    # digits from some N on; none is refused, and each row is the same row at
    # 2 * 30 + 10 digits rounded to 30
    low, wide = PrecisionContext(30), PrecisionContext(70)
    rows = [remainder_exact(1000, N, table, low) for N in range(13)]
    for N, row in enumerate(rows):
        wide_row = remainder_exact(1000, N, table, wide)
        for field in ("remainder", "partial_sum", "prefactor"):
            assert getattr(row, field)._mpf_ == low.real(getattr(wide_row, field))._mpf_, (N, field)


def test_reconstruction(ctx80, table):
    # p(n) = prefactor * (partial_sum + remainder) to relative 10^-(digits-12)
    mp = ctx80.mp
    tolerance = mp.mpf(10) ** (-(ctx80.digits - 12))
    for n in (1, 2, 3, 10, 57, 200, 500, 1000):
        for N in range(0, 15):
            result = remainder_exact(n, N, table, ctx80)
            rebuilt = result.prefactor * (result.partial_sum + result.remainder)
            assert abs(rebuilt - table.p(n)) / table.p(n) <= tolerance


def test_remainder_result_fields(ctx80, table):
    result = remainder_exact(200, 4, table, ctx80, include_theta=True)
    assert result.n == 200 and result.N == 4
    assert 0 < result.theta < 1
    # the tail over the first omitted term, formed at three times the digits and rounded once
    wide = PrecisionContext(240)
    tail = full_sum(200, wide) - remainder_exact(200, 4, table, wide).partial_sum
    assert result.theta == ctx80.real(tail / (coeff_c(4, wide) / wide.mp.mpf(200) ** 2))
    plain = remainder_exact(200, 4, table, ctx80)
    assert plain.theta is None


def _theta(n, N, table, ctx):
    return remainder_exact(n, N, table, ctx, include_theta=True).theta


def test_theta_in_unit_interval(ctx80, table):
    for n in (1, 2, 5, 37, 100, 200):
        for N in range(0, 11):
            value = _theta(n, N, table, ctx80)
            assert 0 < value < 1


def test_theta_pinned_value(ctx80, table):
    assert ctx80.mp.nstr(_theta(100, 3, table, ctx80), 25) == "0.9884180737712142499929038"
    assert ctx80.mp.nstr(_theta(1, 0, table, ctx80), 25) == "0.5949167432490240509183246"


def test_full_sum_mediates(ctx80, table):
    # full_sum(1) = S_0(1) + theta_0(1) * c_0
    mp = ctx80.mp
    lhs = full_sum(1, ctx80)
    row = remainder_exact(1, 0, table, ctx80, include_theta=True)
    rhs = row.partial_sum + row.theta * coeff_c(0, ctx80)
    assert abs(lhs - rhs) <= 8 * ulp(lhs, ctx80)


def test_full_sum_stop_bounds_the_true_tail():
    # the proven tail bound after M terms dominates the tail of a sum at twice the
    # digits, and the stop is the first M where it falls below 10^-(digits+5)
    for n, digits in ((1, 30), (2, 50), (37, 80), (500, 80), (12345, 160)):
        stop = expansion._series_length(n, digits)
        wide = PrecisionContext(2 * digits)
        mp = wide.mp
        q = mp.sqrt(mp.mpf(24 * n))
        amplitude = mp.ldexp(sum(coefficients._ball_amplitude(1, mp.prec)), -mp.prec)  # the upper end of its ball

        def bound(M):
            return amplitude * mp.sqrt(2 * (M + 1)) / q**M / (1 - 1 / q) ** 2

        reference = full_sum(n, wide)
        for M in (0, 1, stop // 2, stop - 1, stop):
            partial = mp.fsum(coeff_c(m, wide) / mp.sqrt(n) ** m for m in range(M))
            assert abs(reference - partial) <= bound(M), (n, digits, M)
        assert bound(stop) < mp.mpf(10) ** (-(digits + 5)) <= bound(stop - 1)


def test_full_sum_stop_reads_the_amplitude_as_its_exact_value(monkeypatch):
    # the stop from the upper end of the cosh amplitude's ball at 2^-64 is
    # the stop from the amplitude itself, taken at 60 digits
    mp = PrecisionContext(60).mp
    exact = 6 * mp.sqrt(2) / mp.pi ** mp.mpf("1.5") * mp.cosh(mp.pi / 6)
    points = [(n, digits) for n in (1, 2, 7, 37, 200, 500, 2200, 12345, 20000) for digits in (30, 50, 80, 166, 301, 1145)]
    stops = [expansion._series_length(n, digits) for n, digits in points]
    monkeypatch.setattr(expansion, "_ball_amplitude", lambda m, bits: (int(mp.nint(mp.ldexp(exact, bits))), 0))
    assert [expansion._series_length(n, digits) for n, digits in points] == stops


def _assert_rounded_once(value, reference, ctx, where):
    """value is reference, taken at a far wider context, rounded once to ctx: within half an ulp, and a hair."""
    mp = reference.context
    half = mp.mpf(ulp(value, ctx)) / 2 if value != 0 else mp.mpf(0)
    assert abs(mp.mpf(value) - reference) <= half * (1 + mp.mpf(2) ** -40) + abs(reference) * mp.mpf(10) ** (-2 * ctx.digits), where


@pytest.mark.parametrize("digits", (30, 50, 80, 160))
def test_sums_and_terms_against_a_wider_plain_sum(digits):
    # every S_N, the full sum and every end of T1 (a term plus E(n)) within
    # half an ulp of plain mpmath sums and products formed at 2 digits + 20
    # from the coefficients at that width; S_0 = 0 exactly
    ctx, wide = PrecisionContext(digits), PrecisionContext(2 * digits + 20)
    mp = wide.mp
    for n in (1, 2, 3, 7, 150, 1000, 20000):
        M = expansion._series_length(n, digits)
        u = 1 / mp.sqrt(n)
        exact = [coeff_c(m, wide) * u**m for m in range(M + 2)]
        reference = [mp.mpf(0)]
        for term in exact:
            reference.append(reference[-1] + term)
        E = mp.exp(-mp.pi * mp.sqrt(mp.mpf(2 * n) / 3) / 2)
        assert remainder_exact(n, 0, _table_20000(), ctx).partial_sum._mpf_ == ctx.mp.mpf(0)._mpf_
        for N in (*range(1, 14), M, M + 2):
            _assert_rounded_once(remainder_exact(n, N, _table_20000(), ctx).partial_sum, reference[N], ctx, (n, digits, N))
        _assert_rounded_once(full_sum(n, ctx), reference[M], ctx, (n, digits))
        for m in range(14):
            report = thm1_bounds(n, m, ctx)
            _assert_rounded_once(report.upper if m % 2 == 0 else -report.lower, abs(exact[m]) + E, ctx, (n, digits, m))


def test_full_sum_is_shared_per_n_and_digits(ctx80):
    # a second call at the same digits reads the same balls: no new Horner pass, no new exp
    first = full_sum(123, ctx80), exp_error_term(123, ctx80)
    misses = expansion._ball_sum.cache_info().misses, expansion._ball_per_n.cache_info().misses
    assert (full_sum(123, PrecisionContext(80)), exp_error_term(123, PrecisionContext(80))) == first
    assert (expansion._ball_sum.cache_info().misses, expansion._ball_per_n.cache_info().misses) == misses


def test_r_hat_envelope_and_pin(ctx100, table):
    mp = ctx100.mp
    value = r_hat(1, table, ctx100)
    assert mp.nstr(value, 25) == "-0.06205812942182545328498796"
    for n in (1, 2, 10, 100, 500):
        assert abs(r_hat(n, table, ctx100)) <= exp_error_term(n, ctx100)


def test_remainder_minus_r_hat_is_theta_term(ctx80, table):
    mp = ctx80.mp
    tolerance = mp.mpf(10) ** (-(ctx80.digits - 20))
    for n in (1, 13, 100, 200):
        residual = r_hat(n, table, ctx80)
        root_n = mp.sqrt(mp.mpf(n))
        for N in range(0, 11):
            row = remainder_exact(n, N, table, ctx80, include_theta=True)
            difference = row.remainder - residual
            mediated = row.theta * coeff_c(N, ctx80) / root_n**N
            assert abs(difference - mediated) <= tolerance


def test_t_bound_full_matches_term_by_term(ctx80):
    # independent re-evaluation of the five-term envelope at n = 1, at three times the digits
    mp = ctx80.mp
    hi = PrecisionContext(240).mp
    m = hi.pi / 6 * hi.sqrt(23)
    c = 12 * hi.cbrt(2)
    terms = [
        1 / hi.sqrt(2),
        (c - hi.sqrt(2)) / m,
        (m**2 / hi.cbrt(4) - c) * hi.exp(-m / 2),
        (1 / hi.sqrt(2) + (2 - c) / m) * hi.exp(-m),
        (1 + 1 / m) * hi.exp(-3 * m / 2),
    ]
    expected = sum(terms) * hi.exp(-m / 2)
    bits, (_, _, decay, _, bracket) = _lemma3_balls(1, ctx80)
    envelope = precision._ball_mul(bracket, decay, bits)
    _assert_encloses(envelope, bits, expected)
    assert mp.almosteq(_midpoint(envelope, bits, ctx80), expected, rel_eps=mp.mpf(10) ** -70)


def test_t_bound_positive_and_ordered(ctx80):
    hi = PrecisionContext(240).mp
    for n in range(1, 1001, 7):
        bits, (_, _, decay, bracket, full_bracket) = _lemma3_balls(n, ctx80)
        full_value = precision._ball_mul(full_bracket, decay, bits)
        m = hi.pi * hi.sqrt(24 * n - 1) / 6
        _assert_encloses(decay, bits, hi.exp(-m / 2))
        _assert_encloses(bracket, bits, 1 / hi.sqrt(2) + 14 / m + (2 * m**2 / 3 - 13) * hi.exp(-m / 2))
        assert full_value[0] - full_value[1] > 0
        assert precision._ball_sign(full_value, precision._ball_mul(bracket, decay, bits)) == -1


def test_simple_bracket_threshold(ctx80):
    mp = ctx80.mp
    hi = PrecisionContext(240).mp
    bits, at_431 = _lemma3_balls(431, ctx80)
    _, (_, _, decay, at_432, full_bracket) = _lemma3_balls(432, ctx80)
    for n, ball in ((431, at_431[3]), (432, at_432)):
        mu = hi.pi * hi.sqrt(24 * n - 1) / 6
        _assert_encloses(ball, bits, 1 / hi.sqrt(2) + 14 / mu + (2 * mu**2 / 3 - 13) * hi.exp(-mu / 2))
    sign, scale = precision._ball_sign, precision._ball_scale
    threshold = (97 << bits, 0)  # 0.97, times 100
    assert sign(scale(at_432, 100), threshold) == -1 and sign(threshold, scale(at_431[3], 100)) == -1
    assert mp.nstr(_midpoint(at_432, bits, ctx80), 10) == "0.9697117096"
    full_value = precision._ball_mul(full_bracket, decay, bits)
    assert sign(scale(full_value, 100), scale(decay, 97)) == -1


def test_cancellation_guard(table):
    # R_12(1000) is about 2^-115: at 30 digits its P(n) and S_12 cancel more
    # than the context holds, and it is formed at finer scales until it
    # rounds, to the value at 2 * 30 + 10 digits rounded once
    low = PrecisionContext(30)
    result = remainder_exact(1000, 12, table, low)
    wide = remainder_exact(1000, 12, table, PrecisionContext(70))
    assert result.remainder._mpf_ == low.real(wide.remainder)._mpf_
    high = PrecisionContext(80)
    result = remainder_exact(1000, 12, table, high)
    assert result.remainder != 0


def test_invalid_arguments(ctx80, table):
    with pytest.raises(ValueError):
        full_sum(0, ctx80)
    with pytest.raises(ValueError):
        remainder_exact(0, 1, table, ctx80)
    with pytest.raises(ValueError):
        remainder_exact(10, -1, table, ctx80)
    with pytest.raises(ValueError):
        remainder_exact(1, -1, table, ctx80, include_theta=True)


# ---------------------------------------------------------------------------
# the per-n memo: every value as the plain formulas give it, bit for bit
# ---------------------------------------------------------------------------

MEMO_NS = list(range(1, 25)) + list(range(25, 1201, 53)) + [1200, 10007, 20000]


@functools.lru_cache(maxsize=None)
def _table_20000():
    return partition_pentagonal(20000)


def _plain_lemma3(n, ctx):
    """The lemma3 sweep's reals at n with every formula written out and formed afresh."""
    mp = ctx.mp
    m = mp.pi / 6 * mp.sqrt(mp.mpf(24 * n - 1))
    twelve_cbrt2 = 12 * mp.cbrt(2)
    inv_sqrt2 = 1 / mp.sqrt(2)
    bracket = (
        inv_sqrt2
        + (twelve_cbrt2 - mp.sqrt(2)) / m
        + (m**2 / mp.cbrt(4) - twelve_cbrt2) * mp.exp(-m / 2)
        + (inv_sqrt2 + (2 - twelve_cbrt2) / m) * mp.exp(-m)
        + (1 + 1 / m) * mp.exp(-3 * m / 2)
    )
    simple_bracket = 1 / mp.sqrt(2) + 14 / m + (mp.mpf(2) / 3 * m**2 - 13) * mp.exp(-m / 2)
    return {
        "r": mp.sqrt(mp.mpf(24 * n - 1)),
        "decay": mp.exp(-m / 2),
        "mu": m,
        "t_bound_full": bracket * mp.exp(-m / 2),
        "t_bound_simple_bracket": simple_bracket,
        "t_bound_simple": simple_bracket * mp.exp(-m / 2),
    }


@functools.lru_cache(maxsize=None)
def _plain_envelope_shapes(digits):
    """The envelope of |c_N| without its power of sqrt(24n), N = 0..12: amplitude times shape times correction."""
    mp = PrecisionContext(digits).mp
    base = 6 * mp.sqrt(2) / mp.pi ** mp.mpf(1.5)
    return [
        (base * mp.sinh(mp.pi / 6) * mp.sqrt(1 + mp.mpf(1) / (4 * (N // 2) + 1)) if N % 2 == 0 else base * mp.cosh(mp.pi / 6) * mp.sqrt(1 - mp.mpf(1) / (4 * (N // 2) + 5)))
        * mp.sqrt(N + 1)
        for N in range(13)
    ]


def _plain_values(n, p, ctx):
    """The per-n reals with every formula written out and formed afresh, at three times the digits of ``ctx``."""
    hi = PrecisionContext(3 * ctx.digits)
    mp = hi.mp
    exponent = mp.pi * mp.sqrt(mp.mpf(2 * n) / 3)
    E = mp.exp(-exponent / 2)
    powers = [mp.sqrt(24 * n) ** N for N in range(13)]
    envelopes = [shape / power for shape, power in zip(_plain_envelope_shapes(hi.digits), powers)]
    algebraic = [mp.sqrt(N + 1) / power for N, power in enumerate(powers)]
    comparison = [(6 / mp.pi) ** N * mp.sqrt(mp.mpf(N // 2 + 1 + N % 2) / mp.mpf(24 * n) ** N) for N in range(13)]
    M = expansion._series_length(n, 3 * ctx.digits)
    u, power, terms = 1 / mp.sqrt(n), mp.mpf(1), []
    for k in range(max(M, expansion._series_length(n, ctx.digits) + 2) + 1):
        terms.append(coeff_c(k, hi) * power)
        power *= u
    sums = [mp.mpf(0)]
    for term in terms:
        sums.append(sums[-1] + term)
    P = 4 * mp.sqrt(3) * n * p * mp.exp(-exponent)
    half = mp.mpf("0.5")
    return {
        "prefactor": mp.exp(exponent) / (4 * mp.sqrt(3) * n),
        "P": P,
        "E": E,
        "terms": terms,
        "sums": sums,
        "full": sums[M],
        "r_hat": P - sums[M],
        # the even-N pair (below, above) of T1, T2 and T3 with C = 1/2
        "T1": [(E, abs(term) + E) for term in terms[:13]],
        "T2": [(E, envelope + E) for envelope in envelopes],
        "T3": [(half * f, half * f + envelope) for f, envelope in zip(algebraic, envelopes)],
        "Banerjee": [(13 * f, 16 * f) if N % 2 == 0 else (11 * f, 21 * f) for N, f in enumerate(comparison)],
    }


def _clear_memo():
    for cache in (expansion._ball_per_n, expansion._ball_normalized, expansion._ball_prefactor, expansion._ball_sum, expansion._ball_term):
        cache.cache_clear()


def _memo_values(n, table, ctx, order):
    """The same reals through the public functions and the lemma3 sweep's
    chain (as balls), from a cold memo filled in ``order``."""
    _clear_memo()
    out = {}

    def rows():
        out["rows"] = [remainder_exact(n, N, table, ctx, include_theta=True) for N in range(13)]

    def bounds():
        out["T1"] = [thm1_bounds(n, N, ctx) for N in range(13)]
        out["T2"] = [thm2_bounds(n, N, ctx) for N in range(13)]
        out["T3"] = [None] + [thm3_bounds(n, N, "0.5", ctx) for N in range(1, 13)]
        out["Banerjee"] = [None, None] + [banerjee_bounds(n, N, ctx) for N in range(2, 13)]

    def scalars():
        bits = precision._ball_bits(ctx.digits)
        r, m, decay, simple_bracket, full = verify._lemma3_chain(n, bits)
        out.update(
            r=r,
            decay=decay,
            mu=m,
            t_bound_full=precision._ball_mul(full, decay, bits),
            t_bound_simple_bracket=simple_bracket,
            t_bound_simple=precision._ball_mul(simple_bracket, decay, bits),
            E=exp_error_term(n, ctx),
            r_hat=r_hat(n, table, ctx),
        )

    def series():
        out["full"] = full_sum(n, ctx)

    def beyond():
        # a partial sum past the series length, formed before the full sum
        out["beyond"] = remainder_exact(n, expansion._series_length(n, ctx.digits) + 2, table, ctx).partial_sum

    steps = {"rows": rows, "bounds": bounds, "scalars": scalars, "series": series, "beyond": beyond}
    for step in order:
        steps[step]()
    return out


def test_a_fresh_digit_count_builds_one_context(table):
    """Every bound, remainder and residual at a new digit count shares its one context, T3 and its threshold nu included."""
    shared = PrecisionContext._shared
    digits = next(d for d in range(171, 1000) if d not in shared)
    before = set(shared)
    ctx = PrecisionContext(digits)
    n = 2000
    for N in range(13):
        remainder_exact(n, N, table, ctx, include_theta=True)
        thm1_bounds(n, N, ctx)
        thm2_bounds(n, N, ctx)
        if N:
            thm3_bounds(n, N, "0.5", ctx)
    r_hat(n, table, ctx)
    assert set(shared) - before == {digits}


def test_memo_is_bit_identical_to_the_plain_formulas():
    # in every order of filling the memo, each value is its plain formula at
    # three times the digits rounded once to the context, bit for bit
    orders = (
        ("series", "bounds", "rows", "scalars", "beyond"),
        ("rows", "scalars", "bounds", "series", "beyond"),
        ("beyond", "series", "rows", "bounds", "scalars"),
    )
    for digits in (50, 80, 160):
        ctx = PrecisionContext(digits)
        for n in MEMO_NS:
            table = _table_20000()
            plain = _plain_values(n, table.p(n), ctx)
            # the lemma3 chain's balls hold the plain values at three times the digits
            lemma3 = _plain_lemma3(n, PrecisionContext(3 * digits))

            def rounded(value):
                return ctx.real(value)._mpf_

            for order in orders:
                memo = _memo_values(n, table, ctx, order)
                where = (n, digits, order)
                for key, value in lemma3.items():
                    _assert_encloses(memo[key], precision._ball_bits(ctx.digits), value)
                for key in ("E", "full", "r_hat"):
                    assert memo[key]._mpf_ == rounded(plain[key]), (key, where)
                assert memo["beyond"]._mpf_ == rounded(plain["sums"][expansion._series_length(n, digits) + 2]), where
                for N in range(13):
                    row, term, partial = memo["rows"][N], plain["terms"][N], plain["sums"][N]
                    assert row.partial_sum._mpf_ == rounded(partial), (N, where)
                    assert row.remainder._mpf_ == rounded(plain["P"] - partial), (N, where)
                    assert row.prefactor._mpf_ == rounded(plain["prefactor"]), (N, where)
                    assert row.theta._mpf_ == rounded((plain["full"] - partial) / term), (N, where)
                    for family in ("T1", "T2", "T3", "Banerjee"):
                        report = memo[family][N]
                        if report is None:
                            continue
                        below, above = plain[family][N]
                        lower, upper = (-below, above) if N % 2 == 0 else (-above, below)
                        assert (report.lower._mpf_, report.upper._mpf_) == (rounded(lower), rounded(upper)), (family, N, where)


def test_per_n_caches_are_bounded():
    # every cache the module defines is bounded: the one exp per n and
    # scale, P(n) and the prefactor formed from it, the Horner passes and
    # the terms per (n, N, scale), and the sums' constants per scale
    cached = {
        name: value.cache_info().maxsize
        for name, value in vars(expansion).items()
        if hasattr(value, "cache_info") and value.__module__ == expansion.__name__
    }
    assert cached == {"_ball_per_n": 4, "_ball_normalized": 4, "_ball_prefactor": 4, "_ball_sum": 32, "_ball_term": 32, "_ball_context": 16}


def test_invalid_n_is_not_memoized(ctx80, table):
    # every public function of n in expansion and bounds, so that a new one
    # cannot skip the one argument check; it must reject n or N with the
    # check's own text before a cache or a warning sees it
    functions = {
        name: value
        for module in (expansion, bounds)
        for name, value in vars(module).items()
        if inspect.isfunction(value)
        and value.__module__ == module.__name__
        and not name.startswith("_")
        and "n" in inspect.signature(value).parameters
    }
    assert {"full_sum", "exp_error_term", "recommended_digits", "remainder_exact", "r_hat"} <= set(functions)
    assert {"thm1_bounds", "thm2_bounds", "thm3_bounds", "banerjee_bounds"} <= set(functions)
    for n, N in ((0, 3), (-3, 3), (5, -1)):
        arguments = {"n": n, "N": N, "C": "3.474", "table": table, "ctx": ctx80}
        for name, function in functions.items():
            params = inspect.signature(function).parameters
            if "N" in params:
                if N < 0:
                    text = f"N must be nonnegative, got {N}"
                else:
                    text = f"need n >= 1 and N >= 0, got n={n}, N={N}"
            elif n < 1:
                text = f"n must be positive, got {n}"
            else:
                continue  # a function of n alone has no N to reject
            before = [cache.cache_info() for cache in (expansion._ball_per_n, expansion._ball_sum, expansion._ball_term)]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError) as caught:
                    function(**{key: arguments[key] for key in params if key in arguments})
            assert str(caught.value) == text, (name, n, N)
            assert [cache.cache_info() for cache in (expansion._ball_per_n, expansion._ball_sum, expansion._ball_term)] == before, (name, n, N)


def test_normalized_partition_is_kept_per_p(ctx80, table):
    # two tables that differ only at p(n): alternating between them, each call
    # must subtract the series from its own table's P(n), never the other's,
    # and give it rounded once from the plain value at three times the digits
    n = 200
    values = list(table.values[: n + 1])
    values[n] += 1
    other = PartitionTable(values=tuple(values), n_max=n)
    wide = PrecisionContext(240)
    hi = wide.mp
    decay = hi.exp(-hi.pi * hi.sqrt(hi.mpf(2 * n) / 3))
    partial, whole = remainder_exact(n, 4, table, wide).partial_sum, full_sum(n, wide)
    seen = set()
    for _ in range(2):
        for source in (table, other, other, table):
            P = 4 * hi.sqrt(3) * n * source.p(n) * decay
            result = remainder_exact(n, 4, source, ctx80)
            assert result.remainder._mpf_ == ctx80.real(P - partial)._mpf_
            assert r_hat(n, source, ctx80)._mpf_ == ctx80.real(P - whole)._mpf_
            seen.add(result.remainder._mpf_)
    assert len(seen) == 2


def test_one_record_shared_by_threads(ctx80):
    # four threads on a cold memo, switching as often as the interpreter
    # allows: each forms the balls of n while the others form, read or evict
    # theirs, for two values of p(n); every value must be the one a single
    # thread gets
    n, trials = 37, 10
    base = list(partition_pentagonal(n).values)
    tables = []
    for p in (21637, 21638):
        base[n] = p
        tables.append(PartitionTable(values=tuple(base), n_max=n))

    def values(order):
        out = []
        for table in order:
            for N in range(0, 13, 3):
                row = remainder_exact(n, N, table, ctx80, include_theta=True)
                report = thm1_bounds(n, N, ctx80)
                out += [row.remainder._mpf_, row.partial_sum._mpf_, row.prefactor._mpf_, row.theta._mpf_, report.lower._mpf_, report.upper._mpf_]
        return out

    _clear_memo()
    alone = [values(tables), values(tables[::-1])]

    def work(start, i):
        start.wait(timeout=60)
        return values(tables if i % 2 == 0 else tables[::-1])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            for trial in range(trials):
                _clear_memo()
                start = threading.Barrier(4)
                # two threads take the two p in one order, two in the other
                futures = [pool.submit(work, start, i) for i in range(4)]
                assert [future.result(timeout=60) for future in futures] == [alone[i % 2] for i in range(4)], trial
    finally:
        sys.setswitchinterval(interval)
