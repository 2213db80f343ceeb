"""Bound families T1/T2/T3, the validity threshold, and the comparison family."""

from fractions import Fraction

import pytest

from partition_asymptotics import (
    DomainError,
    PrecisionContext,
    PrecisionError,
    banerjee_bounds,
    coeff_bound,
    coeff_c,
    exp_error_term,
    nu,
    remainder_exact,
    thm1_bounds,
    thm2_bounds,
    thm3_bounds,
)
from partition_asymptotics.cli import format_at_exponent, format_scientific

from helpers import near_tie_constant, ulp


def test_t1_structure(ctx80):
    mp = ctx80.mp
    report = thm1_bounds(200, 4, ctx80)
    E = exp_error_term(200, ctx80)
    assert report.theorem == "T1" and report.valid
    assert abs(report.lower + E) <= 4 * ulp(E, ctx80)
    expected_upper = coeff_c(4, ctx80) / mp.mpf(200) ** 2 + E
    assert abs(report.upper - expected_upper) <= 4 * ulp(expected_upper, ctx80)
    odd = thm1_bounds(200, 5, ctx80)
    assert abs(odd.upper - E) <= 4 * ulp(E, ctx80)


def test_t1_reference_strings(ctx80):
    cases = {
        (200, 4): (-7, "-0.1326689978e-7", "0.9713458636e-7"),
        (200, 5): (-7, "-0.1582129737e-7", "0.1326689978e-7"),
        (500, 7): (-12, "-0.3758934747e-12", "0.3507558324e-12"),
    }
    for (n, N), (e10, lower, upper) in cases.items():
        report = thm1_bounds(n, N, ctx80)
        assert format_at_exponent(report.lower, e10) == lower
        assert format_at_exponent(report.upper, e10) == upper


def test_t2_relaxes_t1(ctx80, table):
    for n in (1, 10, 100, 500):
        for N in range(0, 13):
            t1 = thm1_bounds(n, N, ctx80)
            t2 = thm2_bounds(n, N, ctx80)
            assert t2.lower <= t1.lower and t1.upper <= t2.upper
            remainder = remainder_exact(n, N, table, ctx80).remainder
            assert t2.lower < remainder < t2.upper


def test_t2_even_upper_is_coeff_bound_plus_exponential(ctx80):
    mp = ctx80.mp
    report = thm2_bounds(500, 6, ctx80)
    expected = coeff_bound(6, ctx80) / mp.mpf(500) ** 3 + exp_error_term(500, ctx80)
    assert abs(report.upper - expected) <= 4 * ulp(expected, ctx80)


def test_t2_pinned_values(ctx50):
    report = thm2_bounds(200, 4, ctx50)
    assert format_scientific(report.lower) == "-0.1326689978e-7"
    assert format_scientific(report.upper) == "0.9867265388e-7"


def test_t2_width_approaches_t1_width(ctx80):
    def ratio(n, N):
        t1 = thm1_bounds(n, N, ctx80)
        t2 = thm2_bounds(n, N, ctx80)
        return (t2.upper - t2.lower) / (t1.upper - t1.lower)

    near = abs(ratio(10**4, 40) - 1)
    far = abs(ratio(10**4, 4) - 1)
    assert near < far


def test_nu_reference_value(ctx80):
    assert nu(4, "3.474", ctx80) == 116
    assert nu(4, Fraction(3474, 1000), ctx80) == 116
    assert nu(4, "0.0001", ctx80) > 116  # smaller constants push the threshold up
    assert nu(2, 1, ctx80) == 19


def test_nu_near_an_integer_is_undecided(ctx80):
    # the true nu_4(C) is 200 + epsilon with epsilon < 10^-80, so its ceiling
    # is 201; at 80 digits that cannot be told from 200, and snapping to the
    # nearest integer would certify T3 at n = 200, one below the threshold
    C = near_tie_constant()
    with pytest.raises(PrecisionError, match=r"^nu\(N=4, C='0\.1366994983"):
        nu(4, C, ctx80)
    with pytest.raises(PrecisionError):
        thm3_bounds(200, 4, C, ctx80)
    assert nu(4, C, PrecisionContext(400)) == 201


def test_nu_nonincreasing_in_constant(ctx80):
    grids = {
        2: ["0.1", "0.5", "1", "2", "4"],
        5: ["0.1", "1", "10", "100", "1000"],
        11: ["0.1", "1", "100", "10000", "1000000"],
    }
    for N, constants in grids.items():
        values = [nu(N, C, ctx80) for C in constants]
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_nu_monotonic_toward_growth_rate(ctx80):
    # ratio to (6/pi^2) (N log N)^2 decreases toward 1; pinned measurements
    mp = ctx80.mp
    ratios = {}
    for N in (50, 100, 200):
        ratios[N] = nu(N, 1, ctx80) / (6 / mp.pi**2 * (N * mp.log(N)) ** 2)
    assert ratios[50] > ratios[100] > ratios[200] > 1
    assert mp.nstr(ratios[50], 8) == "3.3731634"
    assert mp.nstr(ratios[100], 8) == "3.0192659"
    assert mp.nstr(ratios[200], 8) == "2.7585955"


def test_nu_domain_error(ctx80):
    with pytest.raises(DomainError):
        nu(2, 10, ctx80)  # W argument below -1/e
    with pytest.raises(DomainError):
        nu(0, 1, ctx80)
    with pytest.raises(DomainError):
        nu(4, "-1", ctx80)


def test_t3_reference_strings(ctx80):
    cases = [
        (500, 6, Fraction(1, 4), -11, "-0.0382776521e-11", "0.1709265000e-11"),
        (1000, 10, 5839, -17, "-0.2432084216e-17", "0.2432440132e-17"),
        (500, 7, 24, -12, "-0.3837969630e-12", "0.3586095691e-12"),
        (1000, 11, 866061, -17, "-0.2432081529e-17", "0.2432076748e-17"),
    ]
    for n, N, C, e10, lower, upper in cases:
        report = thm3_bounds(n, N, C, ctx80)
        assert report.valid, (n, N, C)
        assert format_at_exponent(report.lower, e10) == lower
        assert format_at_exponent(report.upper, e10) == upper


def test_t3_validity_flag(ctx80):
    below = thm3_bounds(115, 4, "3.474", ctx80)
    at = thm3_bounds(116, 4, "3.474", ctx80)
    assert not below.valid
    assert at.valid


def test_t3_rejects_bad_arguments(ctx80):
    with pytest.raises(DomainError):
        thm3_bounds(100, 0, 1, ctx80)
    with pytest.raises(DomainError):
        thm3_bounds(100, 4, 0, ctx80)


def test_t3_corollary_constants(ctx80):
    # with N=4, C=3.474 the bounds are -0.0135/n^2 and 0.017/n^2 (printed figures)
    report = thm3_bounds(1, 4, "3.474", ctx80)
    lower_const = -report.lower  # bounds scale as const / n^2; n = 1 exposes const
    upper_const = report.upper
    assert f"{float(lower_const):.3g}" == "0.0135"
    assert f"{float(upper_const):.2g}" == "0.017"


def test_comparison_constants_and_width(ctx80):
    mp = ctx80.mp
    report = banerjee_bounds(1, 4, ctx80)
    assert report.theorem == "Banerjee" and not report.valid
    lower_const = -report.lower
    upper_const = report.upper
    # formula constants 13 (6/pi)^4 sqrt(3)/576 and 16 (6/pi)^4 sqrt(3)/576;
    # published as safe roundings 0.55 and 0.65
    assert mp.nstr(lower_const, 4) == "0.5201"
    assert mp.nstr(upper_const, 4) == "0.6401"
    assert lower_const < mp.mpf("0.55") and upper_const < mp.mpf("0.65")
    thm3_upper_const = thm3_bounds(1, 4, "3.474", ctx80).upper
    assert 30 < upper_const / thm3_upper_const < 40  # roughly 38x wider


def test_comparison_width_growth(ctx80):
    # algebraic widths gain a factor ~(6/pi)^2 per even N step relative to T2
    mp = ctx80.mp
    n = 100
    E = exp_error_term(n, ctx80)

    def banerjee_upper(N):
        return banerjee_bounds(n, N, ctx80).upper

    def t2_algebraic_upper(N):
        return thm2_bounds(n, N, ctx80).upper - E

    growth = (banerjee_upper(22) / banerjee_upper(20)) / (
        t2_algebraic_upper(22) / t2_algebraic_upper(20)
    )
    assert abs(growth / (6 / mp.pi) ** 2 - 1) < mp.mpf("0.06")


def test_comparison_rejects_small_order(ctx80):
    with pytest.raises(DomainError):
        banerjee_bounds(100, 1, ctx80)
    with pytest.raises(DomainError):
        banerjee_bounds(100, 0, ctx80)


def test_domain_checks(ctx80):
    with pytest.raises(DomainError):
        thm1_bounds(0, 4, ctx80)
    with pytest.raises(DomainError):
        thm1_bounds(10, -1, ctx80)


def test_reports_are_proper_intervals(ctx80):
    for n in (1, 100, 1000):
        for N in range(0, 13):
            for report in (thm1_bounds(n, N, ctx80), thm2_bounds(n, N, ctx80)):
                assert report.lower < report.upper
            if N >= 2:
                assert banerjee_bounds(n, N, ctx80).lower < banerjee_bounds(n, N, ctx80).upper
            if N >= 1:
                # C small enough that the threshold exists for every N >= 1
                t3 = thm3_bounds(n, N, "0.5", ctx80)
                assert t3.lower < t3.upper
