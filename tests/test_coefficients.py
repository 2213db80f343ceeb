"""Coefficient values, exact pi-polynomial structure, bounds, and asymptotics."""

import concurrent.futures
from fractions import Fraction
from math import comb, factorial

import pytest
from mpmath.ctx_mp import MPContext

from partition_asymptotics import (
    PrecisionContext,
    PrecisionError,
    certified_abs_less,
    coeff_asymptotic,
    coeff_bound,
    coeff_c,
    coeff_exact,
    coeff_sequence,
    darboux_approximant,
)
from partition_asymptotics import coefficients


def _exact_terms(m):
    """The closed form's pi-power coefficients, built directly from the formula."""
    return {
        m - 2 * k: Fraction(comb(m + 1, k) * (m + 1 - k), factorial(m + 1 - 2 * k)) * Fraction(1, 6) ** (m - 2 * k)
        for k in range((m + 1) // 2 + 1)
    }


def _pi_sum(m, mp):
    """(4*sqrt(6))^m * |c_m| evaluated term by term in the mpmath context mp."""
    return sum(mp.mpf(q.numerator) / q.denominator * mp.pi**e for e, q in _exact_terms(m).items())


def _closed_form(m, dps):
    """c_m from the exact pi-polynomial, evaluated in a fresh mpmath context."""
    mp = MPContext()
    mp.dps = dps
    magnitude = _pi_sum(m, mp) / mp.sqrt(96) ** m
    return -magnitude if m % 2 else magnitude


def test_exact_terms_first_three():
    assert coeff_exact(0).terms == {0: Fraction(1)}
    assert coeff_exact(1).terms == {1: Fraction(1, 6), -1: Fraction(12)}
    assert coeff_exact(2).terms == {2: Fraction(1, 72), 0: Fraction(6)}
    assert coeff_exact(7).scale_exponent == 7


def test_exact_exponent_structure():
    for m in (0, 1, 2, 5, 12, 33):
        poly = coeff_exact(m)
        expected = {m - 2 * k for k in range((m + 1) // 2 + 1)}
        assert set(poly.terms) == expected
        assert all(q > 0 for q in poly.terms.values())


def test_values_first_three(ctx80):
    mp = ctx80.mp
    assert coeff_c(0, ctx80) == 1
    expected_1 = -(mp.pi / 6 + 12 / mp.pi) / (4 * mp.sqrt(6))
    assert mp.almosteq(coeff_c(1, ctx80), expected_1, rel_eps=mp.mpf(10) ** -75)
    expected_2 = (mp.pi**2 / 72 + 6) / 96
    assert mp.almosteq(coeff_c(2, ctx80), expected_2, rel_eps=mp.mpf(10) ** -75)
    assert mp.nstr(coeff_c(1, ctx80), 4) == "-0.4433"
    assert mp.nstr(coeff_c(2, ctx80), 3) == "0.0639"


def test_signs_alternate(ctx80):
    for m in range(0, 401):
        value = coeff_c(m, ctx80)
        assert (value > 0) == (m % 2 == 0)


def test_magnitudes_strictly_decreasing_numeric(ctx80):
    previous = abs(coeff_c(0, ctx80))
    for m in range(1, 401):
        current = abs(coeff_c(m, ctx80))
        assert current < previous
        previous = current


def test_certified_comparison_direction():
    assert certified_abs_less(1, 0)
    assert not certified_abs_less(0, 1)
    assert certified_abs_less(2, 1)
    assert certified_abs_less(100, 99)


CERTIFY_PAIRS = ((0, 2), (2, 0), (3, 1), (1, 3), (7, 2), (401, 400))


def _oracle_abs_less(m, other):
    return abs(_closed_form(m, 100)) < abs(_closed_form(other, 100))


def test_certified_comparison_pairs():
    for m, other in CERTIFY_PAIRS:
        assert certified_abs_less(m, other) == _oracle_abs_less(m, other), (m, other)


def test_certified_comparison_equal_index():
    assert not certified_abs_less(5, 5)
    assert not certified_abs_less(0, 0)
    with pytest.raises(ValueError):
        certified_abs_less(-1, -1)


def test_certified_comparison_escalates(monkeypatch):
    widths = []
    bracket = coefficients._bracket

    def loosened(m, bits):
        # still an enclosure, but below 64 bits too wide to separate any pair
        widths.append(bits)
        lo, hi = bracket(m, bits)
        return (lo // 4, hi * 4) if bits < 64 else (lo, hi)

    monkeypatch.setattr(coefficients, "_CERTIFY_START_BITS", 8)
    monkeypatch.setattr(coefficients, "_bracket", loosened)
    for m, other in CERTIFY_PAIRS + ((100, 99),):
        assert certified_abs_less(m, other) == _oracle_abs_less(m, other), (m, other)
    assert sorted(set(widths)) == [8, 16, 32, 64]


def test_certified_comparison_undecided_raises(monkeypatch):
    monkeypatch.setattr(coefficients, "_CERTIFY_MAX_BITS", 1024)
    monkeypatch.setattr(coefficients, "_bracket", lambda m, bits: (0, 1 << (bits + 4000)))
    with pytest.raises(PrecisionError):
        certified_abs_less(3, 2)


def test_bracket_encloses_exact_value():
    mp = MPContext()
    mp.dps = 200
    for m in (0, 1, 2, 7, 60, 301):
        denominator = coefficients._integer_form(m)[1]
        exact = mp.pi * _pi_sum(m, mp) * denominator
        for bits in (8, 64, 256):
            lo, hi = coefficients._bracket(m, bits)
            assert lo <= mp.ldexp(exact, bits) <= hi, (m, bits)
            assert lo < hi


def test_integer_form_reproduces_exact_terms():
    for m in range(61):
        numerators, denominator = coefficients._integer_form(m)
        assert all(isinstance(a, int) and a > 0 for a in numerators)
        from_integers = {m - 2 * k: Fraction(a, denominator) for k, a in enumerate(numerators)}
        assert from_integers == _exact_terms(m) == coeff_exact(m).terms


def test_values_within_one_ulp_of_closed_form():
    contexts = [PrecisionContext(digits) for digits in (50, 80, 160)]
    for m in range(401):
        oracle = _closed_form(m, 2 * 160)
        for ctx in contexts:
            value = coeff_c(m, ctx)
            ulp = ctx.mp.ldexp(1, ctx.mp.mag(value) - ctx.mp.prec)
            assert abs(oracle - value) <= ulp, (m, ctx.digits)


def test_step_ratio_bounds(ctx80):
    mp = ctx80.mp
    even_cap = (mp.pi / 2) / (4 * mp.sqrt(6))
    odd_cap = (mp.pi / 6 + 12 / mp.pi) / (4 * mp.sqrt(6))
    for m in range(1, 201):
        ratio = abs(coeff_c(m, ctx80) / coeff_c(m - 1, ctx80))
        assert ratio <= (even_cap if m % 2 == 0 else odd_cap)


def test_bound_values(ctx80):
    mp = ctx80.mp
    expected_0 = 6 * mp.sqrt(2) / mp.pi ** mp.mpf("1.5") * mp.sinh(mp.pi / 6) * mp.sqrt(2)
    assert mp.almosteq(coeff_bound(0, ctx80), expected_0, rel_eps=mp.mpf(10) ** -70)
    assert mp.nstr(coeff_bound(0, ctx80), 4) == "1.181"
    expected_1 = (
        6
        * mp.sqrt(2)
        / mp.pi ** mp.mpf("1.5")
        * mp.cosh(mp.pi / 6)
        * mp.sqrt(2)
        / mp.sqrt(24)
        * mp.sqrt(mp.mpf(4) / 5)
    )
    assert mp.almosteq(coeff_bound(1, ctx80), expected_1, rel_eps=mp.mpf(10) ** -70)


def test_bound_dominates(ctx80):
    for m in range(0, 401):
        assert abs(coeff_c(m, ctx80)) <= coeff_bound(m, ctx80)


def test_asymptotic_signs_and_m0(ctx80):
    mp = ctx80.mp
    assert mp.nstr(coeff_asymptotic(0, ctx80), 4) == "0.8348"
    for m in range(0, 60):
        assert (coeff_asymptotic(m, ctx80) > 0) == (m % 2 == 0)


def test_asymptotic_convergence(ctx80):
    deviation = abs(coeff_c(200, ctx80) / coeff_asymptotic(200, ctx80) - 1)
    assert deviation < ctx80.mp.mpf("0.01")


def test_darboux_m0(ctx80):
    mp = ctx80.mp
    expected = 6 / (mp.sqrt(2) * mp.pi) * mp.sinh(mp.pi / 6)
    assert mp.almosteq(darboux_approximant(0, ctx80), expected, rel_eps=mp.mpf(10) ** -70)


def test_darboux_signs_and_convergence(ctx80):
    mp = ctx80.mp
    for m in range(1, 40):
        assert (darboux_approximant(m, ctx80) > 0) == (m % 2 == 0)
    deviation = abs(darboux_approximant(300, ctx80) / coeff_c(300, ctx80) - 1)
    assert deviation < mp.mpf("0.02")


def test_sequence_type(ctx80):
    seq = coeff_sequence(20, ctx80)
    assert len(seq.entries) == 21
    assert seq.context == ctx80
    assert seq.entries[0] == 1
    assert seq.entries[3] == coeff_c(3, ctx80)


def test_memo_consistent_under_threads(ctx80):
    serial = [coeff_c(m, ctx80) for m in range(60)]
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(lambda m: coeff_c(m, ctx80), range(60)))
    assert serial == threaded


def test_negative_m_rejected(ctx80):
    with pytest.raises(ValueError):
        coeff_exact(-1)
    with pytest.raises(ValueError):
        coeff_bound(-1, ctx80)
