"""Bound families T1/T2/T3, the validity threshold, and the comparison family."""

from fractions import Fraction

import pytest

from partition_asymptotics import (
    DomainError,
    PrecisionContext,
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


def test_nu_reference_value():
    assert nu(4, "3.474") == 116
    assert nu(4, Fraction(3474, 1000)) == 116
    assert nu(4, "0.0001") > 116  # smaller constants push the threshold up
    assert nu(2, 1) == 19


def test_nu_near_an_integer_is_exact(ctx80):
    # the true nu_4(C) is 200 + epsilon with epsilon < 10^-80, so its ceiling
    # is 201; snapping to the nearest integer would certify T3 at n = 200, one
    # below the threshold.  The search decides n = 200 on balls, at whatever
    # scale that takes, so nu needs no context
    C = near_tie_constant()
    assert nu(4, C) == 201
    assert not thm3_bounds(200, 4, C, ctx80).valid
    assert thm3_bounds(201, 4, C, ctx80).valid
    # a hair above that C, the threshold is 200 - epsilon, and nu is 200
    assert nu(4, near_tie_constant(above=True)) == 200


def test_nu_walks_to_the_threshold_from_any_first_guess(monkeypatch):
    # the double-precision root only saves steps: from a guess 7 below or 7
    # above, the search walks up or down to the same threshold
    from partition_asymptotics import bounds

    guess = bounds._nu_guess
    pairs = ((4, "3.474", 116), (2, "1", 19), (6, "1/4", 497), (4, near_tie_constant(), 201), (4, near_tie_constant(above=True), 200), (1, "0.98", 1))
    for shift in (-7, 7):
        monkeypatch.setattr(bounds, "_nu_guess", lambda N, p, q: max(guess(N, p, q) + shift, 1))
        bounds.nu.cache_clear()
        assert [nu(N, C) for N, C, _ in pairs] == [value for _, _, value in pairs], shift
    bounds.nu.cache_clear()


def test_nu_can_be_one():
    # for N = 1 and C in about (0.9607, 0.9936] the threshold is n = 1, where
    # the search stops without asking about n = 0
    mp = PrecisionContext(200).mp
    for C, value in (("0.96", 2), ("0.9608", 1), ("0.98", 1), ("0.9936", 1)):
        assert nu(1, C) == _lambert_nu(1, C, mp) == value, C


def test_nu_and_t3_take_an_mpmath_float(ctx80):
    # an mpf stands for the exact binary rational man 2^exp it holds
    mp = ctx80.mp
    C = mp.mpf("3.474")
    assert nu(4, C) == nu(4, C.man * Fraction(2) ** C.exp) == 116
    assert thm3_bounds(500, 4, C, ctx80).C._mpf_ == C._mpf_
    for bad in (mp.inf, mp.nan, mp.mpf(0), -C):
        with pytest.raises(DomainError):
            nu(4, bad)


def test_nu_at_the_branch_point_is_decided():
    # C a hair below and above (24/(pi e))^2 / sqrt(3), where W_-1's argument is
    # -1/e and nu_2 is ceil(24/pi^2) = 3: below it the threshold is 3, above it none
    mp = PrecisionContext(300).mp
    exact = int(mp.floor((24 / (mp.pi * mp.e)) ** 2 / mp.sqrt(3) * mp.mpf(10) ** 120))
    below, above = (f"{digits // 10**120}.{digits % 10**120:0120d}" for digits in (exact, exact + 1))
    assert nu(2, below) == 3
    with pytest.raises(DomainError) as caught:
        nu(2, above)
    assert str(caught.value) == f"nu(N=2, C={above!r}): lambert_w_minus1 requires x >= -1/e, got -0.367879441171442"


def test_nu_nonincreasing_in_constant():
    grids = {
        2: ["0.1", "0.5", "1", "2", "4"],
        5: ["0.1", "1", "10", "100", "1000"],
        11: ["0.1", "1", "100", "10000", "1000000"],
    }
    for N, constants in grids.items():
        values = [nu(N, C) for C in constants]
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_nu_monotonic_toward_growth_rate(ctx80):
    # ratio to (6/pi^2) (N log N)^2 decreases toward 1; pinned measurements
    mp = ctx80.mp
    ratios = {}
    for N in (50, 100, 200):
        ratios[N] = nu(N, 1) / (6 / mp.pi**2 * (N * mp.log(N)) ** 2)
    assert ratios[50] > ratios[100] > ratios[200] > 1
    assert mp.nstr(ratios[50], 8) == "3.3731634"
    assert mp.nstr(ratios[100], 8) == "3.0192659"
    assert mp.nstr(ratios[200], 8) == "2.7585955"


# the (N, C) grid nu is pinned on: N = 1..18 times 17 constants from 10^-4 to 10^6
NU_GRID_CONSTANTS = (
    "0.0001", "0.001", "0.01", "0.1", "0.25", "0.5", "1", "2", "3.474", "5",
    "10", "100", "1000", "5839", "10000", "100000", "1000000",
)


def _w_argument(N, C, mp):
    """W_-1's argument -(pi/(12N)) (C sqrt(N+1))^(1/N) in plain mpmath."""
    exact = Fraction(C)
    return -(mp.pi / (12 * N)) * (mp.mpf(exact.numerator) / exact.denominator * mp.sqrt(N + 1)) ** (mp.mpf(1) / N)


def _lambert_nu(N, C, mp):
    """nu_N(C) by the Lambert W formula in plain mpmath, or None where W_-1's argument is below -1/e."""
    argument = _w_argument(N, C, mp)
    if argument < -1 / mp.e:
        return None
    return int(mp.ceil(mp.mpf(3) / 2 * ((2 * N / mp.pi) * mp.lambertw(argument, -1).real) ** 2))


def test_nu_equals_the_lambert_formula_on_a_grid():
    # 306 pairs, 34 of them without a threshold; at 200 digits no value on the
    # grid is near enough an integer for the formula's ceiling to be in doubt
    mp = PrecisionContext(200).mp
    missing = 0
    for N in range(1, 19):
        for C in NU_GRID_CONSTANTS:
            expected = _lambert_nu(N, C, mp)
            if expected is None:
                missing += 1
                with pytest.raises(DomainError, match=r"lambert_w_minus1 requires x >= -1/e"):
                    nu(N, C)
            else:
                assert nu(N, C) == expected, (N, C)
    assert missing == 34


def test_nu_domain_error_shows_the_argument_as_nstr():
    # W_-1's argument -(pi/(12N)) (C sqrt(N+1))^(1/N) to 15 digits, as mpmath's
    # nstr shows it, for pairs with no threshold: fixed point, and from 10^15
    # on with an exponent
    mp = PrecisionContext(200).mp
    cases = [(N, C) for N in (1, 2, 3, 4, 7, 12, 18) for C in ("3.474", "10", "1e5", "866061", "1e12", "7/3", "1e40", "1e300")]
    shown = 0
    for N, C in cases:
        argument = _w_argument(N, C, mp)
        if argument >= -1 / mp.e:
            continue
        shown += 1
        with pytest.raises(DomainError) as caught:
            nu(N, C)
        assert str(caught.value) == f"nu(N={N}, C={C!r}): lambert_w_minus1 requires x >= -1/e, got {mp.nstr(argument, 15)}", (N, C)
    assert shown >= 30


def test_nu_domain_error():
    with pytest.raises(DomainError):
        nu(2, 10)  # W argument below -1/e
    with pytest.raises(DomainError):
        nu(0, 1)
    with pytest.raises(DomainError):
        nu(4, "-1")


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


def test_t3_reports_its_constant_rounded_once():
    # the exact rational C rounded once, half to even: what mpmath's
    # from_rational gives, and, where C's numerator fits the precision,
    # bit for bit what the context's real(C) gives
    from mpmath.libmp import from_rational, round_nearest

    for digits in (30, 80, 166):
        ctx = PrecisionContext(digits)
        tie = Fraction((1 << ctx.prec) + 1, 1 << ctx.prec + 5)  # halfway between two floats
        for C in ("3.474", "1/4", 24, 5839, 866061, "1e-30", "2/3", Fraction(10**40 + 7, 3 * 10**30), tie, near_tie_constant()):
            exact = Fraction(C)
            reported = thm3_bounds(500, 11, C, ctx).C._mpf_
            assert reported == from_rational(exact.numerator, exact.denominator, ctx.prec, round_nearest), (C, digits)
            if exact.numerator.bit_length() <= ctx.prec:
                assert reported == ctx.real(C)._mpf_, (C, digits)


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


def test_an_exact_algebraic_end_on_a_rounding_boundary_rounds_to_even():
    # C / 864 = 2^-10 (1 + 2^-prec) is exactly the midpoint between two
    # numbers of the context: its exact root ball rounds by the tie rule
    # instead of never deciding
    ctx = PrecisionContext(30)
    C = Fraction(864, 1024) * (1 + Fraction(1, 2**ctx.mp.prec))
    assert thm3_bounds(6, 3, C, ctx).upper == ctx.mp.ldexp(1, -10)


def test_algebraic_factors_are_correctly_rounded():
    # the T3 factor sqrt((N+1)/(24n)^N) is one correctly rounded root: C = 1/2
    # scales it exactly, so |lower| (even N) or upper (odd N) over C is the
    # factor, within half an ulp of the root taken at three times the digits
    for digits in (30, 80, 166):
        ctx = PrecisionContext(digits)
        wide = PrecisionContext(3 * digits + 20).mp
        for n in (1, 2, 7, 100, 499, 1000, 20000):
            for N in range(1, 15):
                report = thm3_bounds(n, N, "0.5", ctx)
                factor = (-report.lower if N % 2 == 0 else report.upper) / ctx.real("0.5")
                reference = wide.sqrt(wide.mpf(N + 1) / wide.mpf(24 * n) ** N)
                assert abs(wide.mpf(factor) - reference) <= wide.mpf(ulp(factor, ctx)) / 2, (n, N, digits)
    # each comparison end is its constant times (6/pi)^N sqrt(k/(24n)^N), k = N//2 + 1 + N%2, rounded once
    for digits in (30, 80):
        ctx = PrecisionContext(digits)
        wide = PrecisionContext(3 * digits + 20).mp
        for n in (1, 7, 499, 20000):
            for N in range(2, 15):
                report = banerjee_bounds(n, N, ctx)
                factor = (6 / wide.pi) ** N * wide.sqrt(wide.mpf(N // 2 + 1 + N % 2) / wide.mpf(24 * n) ** N)
                low, high = (-13, 16) if N % 2 == 0 else (-21, 11)
                assert (report.lower._mpf_, report.upper._mpf_) == (ctx.real(low * factor)._mpf_, ctx.real(high * factor)._mpf_), (n, N, digits)
