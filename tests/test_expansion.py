"""Remainders, tail sums, the tail mediant, and the residual envelopes."""

import concurrent.futures
import functools
import inspect
import math
import sys
import threading
import warnings

import pytest

from partition_asymptotics import (
    DomainError,
    PartitionTable,
    PrecisionContext,
    PrecisionError,
    PrecisionWarning,
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
    bits = precision._ball_bits(ctx)
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
    for n in (1, 6, 100, 1000):
        inverse = prefactor(n) * 4 * mp.sqrt(3) * n * mp.exp(-mp.pi * mp.sqrt(mp.mpf(2 * n) / 3))
        assert abs(inverse - 1) <= 4 * ulp(inverse, ctx80)


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


def test_low_precision_rejects_only_from_a_positive_N(table):
    # at 30 digits the cancellation guard turns n = 1000 away from some N on,
    # but never at N = 0, where nothing is subtracted
    low = PrecisionContext(30)
    failing = []
    with pytest.warns(PrecisionWarning):
        for N in range(13):
            try:
                remainder_exact(1000, N, table, low)
            except PrecisionError:
                failing.append(N)
    assert failing and failing[0] > 0


def _logarithmic_guard(lhs, series, ctx):
    """Significant digits left by lhs - series, by the full-precision log10 alone."""
    scale = max(abs(lhs), abs(series), ctx.mp.mpf(1))
    return ctx.digits - 12 - float(ctx.mp.log10(scale / abs(lhs - series)))


def test_cancellation_guard_decides_as_the_logarithm(ctx50):
    # the binary-magnitude shortcut may only accept what the log10 test
    # accepts; every result from a digit beyond the threshold to well inside
    # it, at several scales and mantissas, gets the same verdict and text
    mp = ctx50.mp
    threshold = ctx50.digits - 12 - 10  # digits lost at which a result is rejected
    for lhs in (mp.mpf("0.37"), mp.mpf(1), mp.mpf(3), mp.mpf("1e5"), mp.mpf(-2)):
        for step in range(-300, 101):
            lost = threshold + step / 100
            result = abs(lhs) * mp.mpf(10) ** -lost * (1 + mp.mpf(step % 7) / 10)
            series = lhs - result
            remaining = _logarithmic_guard(lhs, series, ctx50)
            if remaining < 10:
                with pytest.raises(PrecisionError) as caught:
                    expansion._subtract(lhs, series, ctx50, "probe")
                assert str(caught.value) == (
                    f"probe: cancellation leaves ~{remaining:.1f} significant digits "
                    f"at digits={ctx50.digits}; raise the context precision"
                )
            else:
                assert expansion._subtract(lhs, series, ctx50, "probe") == lhs - series


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
    # the tail over the first omitted term, from the same partial sum
    assert result.theta == (full_sum(200, ctx80) - result.partial_sum) / expansion._per_n(200, ctx80).term(4)
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
        stop = expansion._series_length(n, PrecisionContext(digits))
        wide = PrecisionContext(2 * digits)
        mp = wide.mp
        q = mp.sqrt(mp.mpf(24 * n))
        amplitude = coefficients.coeff_envelope(1, wide)[0]

        def bound(M):
            return amplitude * mp.sqrt(2 * (M + 1)) / q**M / (1 - 1 / q) ** 2

        reference = full_sum(n, wide)
        per = expansion._per_n(n, wide)
        for M in (0, 1, stop // 2, stop - 1, stop):
            assert abs(reference - per.partial_sum(M)) <= bound(M), (n, digits, M)
        assert bound(stop) < mp.mpf(10) ** (-(digits + 5)) <= bound(stop - 1)


@pytest.mark.parametrize("digits", (30, 50, 80, 160))
def test_sums_and_terms_against_a_wider_plain_sum(digits):
    # every S_N (and the full sum) within one ulp, and every term within
    # (3m + 3) 2^-prec relative, of plain mpmath sums and products formed
    # at 2 digits + 20 from the coefficients at that width
    ctx, wide = PrecisionContext(digits), PrecisionContext(2 * digits + 20)
    mp = wide.mp
    relative = (mp.mpf(2) ** -ctx.mp.prec) * 3
    for n in (1, 2, 3, 7, 150, 1000, 20000):
        M = expansion._series_length(n, ctx)
        u = 1 / mp.sqrt(n)
        exact = [coeff_c(m, wide) * u**m for m in range(M + 2)]
        reference = [mp.mpf(0)]
        for term in exact:
            reference.append(reference[-1] + term)
        per = expansion._per_n(n, ctx)
        assert per.partial_sum(0)._mpf_ == ctx.mp.mpf(0)._mpf_
        for N in (*range(1, 14), M, M + 2):
            error = abs(mp.mpf(per.partial_sum(N)) - reference[N])
            assert error <= ulp(reference[N], ctx), (n, digits, N)
        assert abs(mp.mpf(full_sum(n, ctx)) - reference[M]) <= ulp(reference[M], ctx), (n, digits)
        for m in range(14):
            error = abs(mp.mpf(per.term(m)) - exact[m])
            assert error <= (m + 1) * relative * abs(exact[m]), (n, digits, m)


def test_full_sum_is_shared_per_n_and_digits(ctx80):
    assert full_sum(123, ctx80) is full_sum(123, PrecisionContext(80))
    assert exp_error_term(123, ctx80) is exp_error_term(123, PrecisionContext(80))


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
    low = PrecisionContext(30)
    with pytest.warns(PrecisionWarning):
        with pytest.raises(PrecisionError):
            remainder_exact(1000, 12, table, low)
    high = PrecisionContext(80)
    result = remainder_exact(1000, 12, table, high)
    assert result.remainder != 0


def test_low_precision_warning_only_when_needed(table):
    high = PrecisionContext(80)
    with warnings.catch_warnings():
        warnings.simplefilter("error", PrecisionWarning)
        remainder_exact(500, 4, table, high)  # 80 digits is above the recommendation


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


def _plain_values(n, p, ctx):
    """The per-n reals with every formula written out and formed afresh."""
    mp = ctx.mp
    exponent = mp.pi * mp.sqrt(mp.mpf(2 * n) / 3)
    E = mp.exp(-exponent / 2)
    half = mp.mpf("0.5")
    root = coefficients._sqrt_ratio
    # the envelope of |c_N| / n^(N/2): amplitude times the one root sqrt((N+1) a / (b (24n)^N)),
    # a / b = (4j+2)/(4j+1) for N = 2j and (4j+4)/(4j+5) for N = 2j+1
    corrections = [(4 * (N // 2) + 2, 4 * (N // 2) + 1) if N % 2 == 0 else (4 * (N // 2) + 4, 4 * (N // 2) + 5) for N in range(13)]
    envelopes = [
        coefficients.coeff_envelope(N, ctx)[0] * root((N + 1) * a, b * (24 * n) ** N, ctx)
        for N, (a, b) in enumerate(corrections)
    ]
    algebraic = [root(N + 1, (24 * n) ** N, ctx) for N in range(13)]
    comparison = [(6 / mp.pi) ** N * root(N // 2 + 1 + N % 2, (24 * n) ** N, ctx) for N in range(13)]
    M = expansion._series_length(n, ctx)
    length = max(M + 3, 13)
    # terms: c_m times the one root sqrt(1/n^m)
    terms = [coeff_c(k, ctx) * root(1, n**k, ctx) for k in range(length)]
    # sums: Horner on the source's values W_k / 2^bits floored to 2^-P, with
    # U = floor(2^P/sqrt(n)), P = prec + bit_length(3 COEFF_CAP) + 4, and the
    # integer rounded once to nearest
    _, bits, stored, _ = coefficients._coefficients(length - 1, ctx.digits)
    P = mp.prec + (3 * coefficients.COEFF_CAP).bit_length() + 4
    U = math.isqrt(4**P // n)

    def horner(N):
        acc = 0
        for value in reversed(stored[:N]):
            acc = acc * U // 2**P + value * 2**P // 2**bits
        return mp.ldexp(mp.mpf(acc), -P)

    sums = {N: horner(N) for N in (*range(13), M, M + 2)}
    return {
        "prefactor": mp.exp(exponent) / (4 * mp.sqrt(3) * n),
        "P": 4 * mp.sqrt(3) * n * p * mp.exp(-exponent),
        "E": E,
        "terms": terms,
        "sums": sums,
        "full": sums[M],
        # the even-N pair (below, above) of T2, T3 with C = 1/2, and the comparison family
        "T2": [(E, envelope + E) for envelope in envelopes],
        "T3": [(half * f, half * f + envelope) for f, envelope in zip(algebraic, envelopes)],
        "Banerjee": [(13 * f, 16 * f) if N % 2 == 0 else (11 * f, 21 * f) for N, f in enumerate(comparison)],
    }


def _memo_values(n, table, ctx, order):
    """The same reals through the public functions, the per-n record and the
    lemma3 sweep's chain (as balls), the memo filled in ``order``."""
    expansion._per_n.cache_clear()
    out = {"rows": {}}

    def rows():
        for N in range(13):
            try:
                out["rows"][N] = remainder_exact(n, N, table, ctx, include_theta=True)
            except PrecisionError as exc:
                out["rows"][N] = str(exc)

    def bounds():
        out["T1"] = [thm1_bounds(n, N, ctx) for N in range(13)]
        out["T2"] = [thm2_bounds(n, N, ctx) for N in range(13)]
        out["T3"] = [None] + [thm3_bounds(n, N, "0.5", ctx) for N in range(1, 13)]
        out["Banerjee"] = [None, None] + [banerjee_bounds(n, N, ctx) for N in range(2, 13)]

    def scalars():
        bits = precision._ball_bits(ctx)
        r, m, decay, simple_bracket, full = verify._lemma3_chain(n, bits)
        out.update(
            r=r,
            decay=decay,
            mu=m,
            t_bound_full=precision._ball_mul(full, decay, bits),
            t_bound_simple_bracket=simple_bracket,
            t_bound_simple=precision._ball_mul(simple_bracket, decay, bits),
            prefactor=expansion._per_n(n, ctx).prefactor,
            P=expansion._per_n(n, ctx).normalized(table.p(n)),
            E=exp_error_term(n, ctx),
        )

    def series():
        per = expansion._per_n(n, ctx)
        out["full"] = full_sum(n, ctx)
        out["theta"] = [per.theta(N, per.partial_sum(N)) for N in range(13)]
        out["partial"] = [per.partial_sum(N) for N in range(13)]

    def beyond():
        # partial sums past the series length, kept before the full sum is formed
        out["beyond"] = expansion._per_n(n, ctx).partial_sum(expansion._series_length(n, ctx) + 2)

    steps = {"rows": rows, "bounds": bounds, "scalars": scalars, "series": series, "beyond": beyond}
    for step in order:
        steps[step]()
    return out


def test_a_fresh_digit_count_builds_one_context(table):
    """Every bound, remainder and residual at a new digit count shares its one context.

    The T3 threshold nu is solved at 2d + 10 digits, and its Lambert W at
    twice that plus 10, by design; those two are made first, so that any
    other context the pass built would show.
    """
    shared = PrecisionContext._shared
    digits = next(d for d in range(171, 1000) if not {d, 2 * d + 10, 4 * d + 30} & set(shared))
    for wide in (2 * digits + 10, 4 * digits + 30):
        PrecisionContext(wide)
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
            for order in orders:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", PrecisionWarning)
                    memo = _memo_values(n, table, ctx, order)
                where = (n, digits, order)
                for key, value in lemma3.items():
                    _assert_encloses(memo[key], precision._ball_bits(ctx), value)
                for key in ("prefactor", "P", "E", "full"):
                    assert memo[key]._mpf_ == plain[key]._mpf_, (key, where)
                beyond = plain["sums"][expansion._series_length(n, ctx) + 2]
                assert memo["beyond"]._mpf_ == beyond._mpf_, where
                for N in range(13):
                    term, partial = plain["terms"][N], plain["sums"][N]
                    assert memo["partial"][N]._mpf_ == partial._mpf_, (N, where)
                    assert memo["theta"][N]._mpf_ == ((plain["full"] - partial) / term)._mpf_, (N, where)
                    E = plain["E"]
                    even = (-E, abs(term) + E)
                    lower, upper = even if N % 2 == 0 else (-even[1], -even[0])
                    report = memo["T1"][N]
                    assert (report.lower._mpf_, report.upper._mpf_) == (lower._mpf_, upper._mpf_), (N, where)
                    for family in ("T2", "T3", "Banerjee"):
                        report = memo[family][N]
                        if report is None:
                            continue
                        below, above = plain[family][N]
                        even = (-below, above)
                        lower, upper = even if N % 2 == 0 else (-even[1], -even[0])
                        assert (report.lower._mpf_, report.upper._mpf_) == (lower._mpf_, upper._mpf_), (family, N, where)
                    try:
                        remainder = expansion._subtract(plain["P"], partial, ctx, f"remainder_exact(n={n}, N={N})")
                    except PrecisionError as exc:
                        assert memo["rows"][N] == str(exc), (N, where)
                        continue
                    row = memo["rows"][N]
                    assert row.remainder._mpf_ == remainder._mpf_, (N, where)
                    assert row.partial_sum._mpf_ == partial._mpf_, (N, where)
                    assert row.prefactor._mpf_ == plain["prefactor"]._mpf_, (N, where)
                    assert row.theta._mpf_ == memo["theta"][N]._mpf_, (N, where)


def test_per_n_caches_are_bounded():
    assert isinstance(expansion._per_n.cache_info().maxsize, int)
    # every other cache the module defines is per context or per ball scale, not per n
    cached = {
        name
        for name, value in vars(expansion).items()
        if hasattr(value, "cache_info") and value.__module__ == expansion.__name__
    }
    assert cached == {"_per_n", "_four_sqrt3", "_ball_context"}
    assert expansion._ball_context.cache_info().maxsize == 16


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
            before = expansion._per_n.cache_info()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError) as caught:
                    function(**{key: arguments[key] for key in params if key in arguments})
            assert str(caught.value) == text, (name, n, N)
            assert expansion._per_n.cache_info() == before, (name, n, N)


def test_normalized_partition_is_kept_per_p(ctx80, table):
    # two tables that differ only at p(n): alternating between them, each call
    # must subtract the series from its own table's P(n), never the other's
    n = 200
    values = list(table.values[: n + 1])
    values[n] += 1
    other = PartitionTable(values=tuple(values), n_max=n)
    mp = ctx80.mp
    decay = mp.exp(-mp.pi * mp.sqrt(mp.mpf(2 * n) / 3))
    for _ in range(2):
        for source in (table, other, other, table):
            P = 4 * mp.sqrt(3) * n * source.p(n) * decay
            result = remainder_exact(n, 4, source, ctx80)
            assert result.remainder._mpf_ == (P - expansion._per_n(n, ctx80).partial_sum(4))._mpf_
            assert r_hat(n, source, ctx80)._mpf_ == (P - full_sum(n, ctx80))._mpf_


def test_one_record_shared_by_threads(ctx80):
    # four threads on one fresh record, switching as often as the interpreter
    # allows: each term is formed while other threads form theirs, and each
    # P(n) is read while another thread replaces it for another p; both must
    # be the values one thread alone gets
    n, M, trials = 37, 40, 25
    alone = expansion._PerN(n, ctx80)
    terms = [alone.term(m)._mpf_ for m in range(M)]
    normalized = {p: alone.normalized(p)._mpf_ for p in (21637, 21638)}

    def work(record, start, ps):
        start.wait(timeout=60)
        wrong = [m for m in range(M) if record.term(m)._mpf_ != terms[m]]
        for _ in range(50):
            wrong += [p for p in ps if record.normalized(p)._mpf_ != normalized[p]]
        return wrong

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            for trial in range(trials):
                record, start = expansion._PerN(n, ctx80), threading.Barrier(4)
                # two threads alternate the two p in one order, two in the other
                futures = [pool.submit(work, record, start, sorted(normalized, reverse=i % 2)) for i in range(4)]
                assert [future.result(timeout=60) for future in futures] == [[]] * 4, trial
    finally:
        sys.setswitchinterval(interval)
