"""Acceptance gate: every headline claim, at its stated tolerance.

Each test prints one `[acceptance] <criterion>: PASS|FAIL` line so the gate
can be read off a plain `pytest -s tests/test_acceptance.py` run.
"""

import time
from fractions import Fraction

import pytest

from partition_asymptotics import (
    coeff_asymptotic,
    coeff_c,
    nu,
    r_hat,
    remainder_exact,
    run_suite,
    thm3_bounds,
)
from partition_asymptotics.cli import format_at_exponent, normalized_exponent
# Frozen reference strings for the table1/table2 outputs.  Per block
# (n, N[, C]): exact remainder, lower bound, upper bound, all three sharing
# the exponent of the block's largest entry.
TABLE1_REFERENCE = {
    (200, 4): ("0.9016237417e-7", "-0.1326689978e-7", "0.9713458636e-7"),
    (500, 6): ("0.1523607771e-11", "-0.0350755832e-11", "0.1660290513e-11"),
    (200, 5): ("0.0629468759e-7", "-0.1582129737e-7", "0.1326689978e-7"),
    (500, 7): ("0.2140730897e-12", "-0.3758934747e-12", "0.3507558324e-12"),
}

TABLE2_REFERENCE = {
    (500, 6, Fraction(1, 4)): ("0.1523607771e-11", "-0.0382776520e-11", "0.1709265000e-11"),
    (1000, 10, 5839): ("0.1676334056e-17", "-0.2432084216e-17", "0.2432440132e-17"),
    (500, 7, 24): ("0.2140730897e-12", "-0.3837969630e-12", "0.3586095691e-12"),
    (1000, 11, 866061): ("0.1675981042e-17", "-0.2432081529e-17", "0.2432076748e-17"),
}

# The same table with the one entry whose reference string is not the
# round-to-nearest rendering of the underlying value: the (500, 6, 1/4) lower
# bound is exactly -(1/4)*sqrt(7)/sqrt(12000)^6 = -0.0382776520698...e-11,
# which rounds to ...21, while the reference string ends in ...20 (a
# final-digit truncation; the other 23 entries across both tables are
# rounded).
TABLE2_RECOMPUTED = dict(TABLE2_REFERENCE)
TABLE2_RECOMPUTED[(500, 6, Fraction(1, 4))] = (
    "0.1523607771e-11",
    "-0.0382776521e-11",
    "0.1709265000e-11",
)


def _report(criterion: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {criterion}: {status}{suffix}")
    return ok


def _block_strings(n, N, lower, upper, exact):
    e10 = max(normalized_exponent(v) for v in (exact, lower, upper))
    return (
        format_at_exponent(exact, e10),
        format_at_exponent(lower, e10),
        format_at_exponent(upper, e10),
    )


def test_criterion_01_table1_strings(ctx80, table):
    from partition_asymptotics import thm1_bounds

    started = time.monotonic()
    produced = {}
    for n, N in TABLE1_REFERENCE:
        report = thm1_bounds(n, N, ctx80)
        exact = remainder_exact(n, N, table, ctx80).remainder
        produced[(n, N)] = _block_strings(n, N, report.lower, report.upper, exact)
    elapsed = time.monotonic() - started
    ok = produced == TABLE1_REFERENCE and elapsed < 10
    assert _report("1 first-table reproduction", ok, f"{elapsed:.2f}s")


def _table2_strings(ctx, table):
    produced = {}
    for n, N, C in TABLE2_REFERENCE:
        report = thm3_bounds(n, N, C, ctx)
        exact = remainder_exact(n, N, table, ctx).remainder
        produced[(n, N, C)] = _block_strings(n, N, report.lower, report.upper, exact)
    return produced


@pytest.mark.xfail(
    strict=True,
    reason="the (500, 6, 1/4) lower-bound reference string is one final-digit ulp "
    "below the correctly rounded value -0.0382776520698e-11; a renderer matching "
    "the other 23 reference entries (round-to-nearest) cannot reproduce it",
)
def test_criterion_02_table2_strings_as_printed(ctx80, table):
    produced = _table2_strings(ctx80, table)
    ok = produced == TABLE2_REFERENCE
    assert _report("2 second-table reproduction (as printed)", ok)


def test_criterion_02_table2_strings_recomputed(ctx80, table):
    started = time.monotonic()
    produced = _table2_strings(ctx80, table)
    elapsed = time.monotonic() - started
    mismatched = {k for k in produced if produced[k] != TABLE2_RECOMPUTED[k]}
    agree_with_print = sum(produced[k] == TABLE2_REFERENCE[k] for k in produced)
    ok = not mismatched and agree_with_print == 3 and elapsed < 30
    assert _report(
        "2 second-table reproduction (round-to-nearest)",
        ok,
        f"{agree_with_print}/4 blocks fully as printed, {elapsed:.2f}s",
    )


def test_criterion_03_threshold_value():
    value = nu(4, "3.474")
    assert _report("3 threshold nu_4(3.474)", value == 116, f"nu = {value}")


def test_criterion_04_quartic_corollary(ctx80, table):
    report = thm3_bounds(1, 4, "3.474", ctx80)
    lower_const, upper_const = -report.lower, report.upper
    constants_ok = (
        f"{float(lower_const):.3g}" == "0.0135" and f"{float(upper_const):.2g}" == "0.017"
    )
    mp = ctx80.mp
    lo = -mp.mpf("0.0135")
    up = mp.mpf("0.017")
    enclosed = True
    for n in range(116, 1001):
        r4 = remainder_exact(n, 4, table, ctx80).remainder
        nn = mp.mpf(n) ** 2
        if not (lo / nn < r4 < up / nn):
            enclosed = False
            break
    assert _report("4 quartic remainder corollary", constants_ok and enclosed)


def test_criterion_05_t1_enclosure_sweep():
    started = time.monotonic()
    result = run_suite("thm1", n_max=500, digits=80)
    elapsed = time.monotonic() - started
    ok = result.ok and result.checked == 6500 and elapsed < 120
    detail = f"{result.checked} cases, {elapsed:.1f}s"
    if result.counterexample:
        detail += f", {result.counterexample}"
    assert _report("5 T1 enclosure sweep", ok, detail)


def test_criterion_06_t2_enclosure_and_nesting():
    result = run_suite("thm2", n_max=500, digits=80)
    ok = result.ok and result.checked == 6500
    assert _report("6 T2 enclosure and nesting", ok, result.counterexample or "")


def test_criterion_07_coefficients_decreasing_certified():
    result = run_suite("lemma1", m_max=400)
    ok = result.ok and result.checked == 400
    assert _report("7 |c_m| strictly decreasing (certified)", ok, result.counterexample or "")


def test_criterion_08_coefficient_bound():
    result = run_suite("lemma2", m_max=400, digits=80)
    ok = result.ok and result.checked == 20702
    assert _report("8 coefficient envelope", ok, result.counterexample or "")


def test_criterion_09_residual_envelope():
    result = run_suite("lemma3", n_max=500, digits=80)
    ok = result.ok and result.checked == 7492
    assert _report("9 residual envelope and brackets", ok, result.counterexample or "")


def test_criterion_10_generating_function():
    result = run_suite("gf", m_max=100, digits=60)
    # each m: the explicit expansion's ball of g_m overlaps the coefficient source's
    deviation_ok = result.ok and result.checked == 101
    assert _report("10 generating-function identity", deviation_ok, result.counterexample or "")


def test_criterion_11_coefficient_asymptotics(ctx80):
    mp = ctx80.mp

    def deviation(m):
        return abs(coeff_c(m, ctx80) / coeff_asymptotic(m, ctx80) - 1)

    dev50, dev300 = deviation(50), deviation(300)
    pinned = (
        abs(dev50 - mp.mpf("0.00313724024623957")) < mp.mpf("1e-15")
        and abs(dev300 - mp.mpf("0.000525522230399728")) < mp.mpf("1e-15")
    )
    ok = dev300 < dev50 and dev300 < mp.mpf("0.05") and pinned
    assert _report(
        "11 coefficient asymptotics",
        ok,
        f"dev(50)={mp.nstr(dev50, 6)}, dev(300)={mp.nstr(dev300, 6)}",
    )


def test_criterion_12_oracle_equivalence():
    result = run_suite("oracle", n_max=2000)
    ok = result.ok and result.checked == 2001
    assert _report("12 two-algorithm equivalence", ok, f"{result.checked} values")


def test_criterion_13_tail_mediant_identity(ctx80, table):
    mp = ctx80.mp
    tolerance = mp.mpf(10) ** (-(ctx80.digits - 20))
    ok = True
    detail = ""
    for n in range(1, 201):
        residual = r_hat(n, table, ctx80)
        root_n = mp.sqrt(mp.mpf(n))
        for N in range(0, 11):
            row = remainder_exact(n, N, table, ctx80, include_theta=True)
            mediant = row.theta
            if not (0 < mediant < 1):
                ok, detail = False, f"mediant out of (0,1) at n={n}, N={N}"
                break
            difference = row.remainder - residual
            mediated = mediant * coeff_c(N, ctx80) / root_n**N
            if abs(difference - mediated) > tolerance:
                ok, detail = False, f"identity off at n={n}, N={N}"
                break
        if not ok:
            break
    assert _report("13 tail mediant identity", ok, detail)


def test_criterion_bonus_t3_threshold_sweeps():
    # T3 enclosure from each reference threshold upward (supports criteria 2-4)
    result = run_suite("thm3", digits=80)
    ok = result.ok and result.checked == 1005
    assert _report("T3 threshold sweeps", ok, result.counterexample or "")
