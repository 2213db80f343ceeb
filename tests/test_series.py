"""Truncated power series primitives and the generating-function cross-check."""

import random
from fractions import Fraction

import pytest

from partition_asymptotics import DomainError, darboux_approximant, gf_coefficients, gf_reference
from partition_asymptotics.series import _exp, _mul, _power

from helpers import ulp


def power_series(values, ctx, order=None):
    """A series from a coefficient list, zero-padded or truncated to ``order``."""
    converted = [ctx.real(v) for v in values]
    if order is None:
        order = len(converted) - 1
    return (converted + [ctx.mp.mpf(0)] * (order + 1))[: order + 1]


def test_mul_identity(ctx60):
    a = power_series([3, 1, 4, 1, 5], ctx60)
    one = power_series([1], ctx60, order=len(a) - 1)
    assert _mul(a, one, ctx60.mp) == a


def test_mul_difference_of_squares(ctx60):
    plus = power_series([1, 1], ctx60, order=4)
    minus = power_series([1, -1], ctx60, order=4)
    product = _mul(plus, minus, ctx60.mp)
    assert [float(c) for c in product] == [1.0, 0.0, -1.0, 0.0, 0.0]


def test_mul_commutes_on_random_inputs(ctx60):
    rng = random.Random(20240)
    a = power_series([Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(21)], ctx60)
    b = power_series([Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(21)], ctx60)
    ab, ba = _mul(a, b, ctx60.mp), _mul(b, a, ctx60.mp)
    for x, y in zip(ab, ba):
        # reassociating a k-term convolution moves the result by up to ~k ulps
        assert abs(x - y) <= len(a) * ulp(max(abs(x), abs(y), 1), ctx60)


def test_exp_of_zero(ctx60):
    z = power_series([0], ctx60, order=6)
    result = _exp(z, ctx60.mp)
    assert [float(c) for c in result] == [1.0] + [0.0] * 6


def test_exp_of_z(ctx60):
    z = power_series([0, 1], ctx60, order=5)
    result = _exp(z, ctx60.mp)
    expected = [Fraction(1), Fraction(1), Fraction(1, 2), Fraction(1, 6), Fraction(1, 24), Fraction(1, 120)]
    for got, want in zip(result, expected):
        assert abs(got - ctx60.real(want)) <= 4 * ulp(ctx60.real(want), ctx60)


def test_exp_group_law(ctx60):
    rng = random.Random(7)
    values = [0] + [Fraction(rng.randint(-50, 50), 100) for _ in range(30)]
    a = power_series(values, ctx60)
    minus_a = power_series([-v for v in values], ctx60)
    mp = ctx60.mp
    product = _mul(_exp(a, mp), _exp(minus_a, mp), mp)
    assert abs(product[0] - 1) <= 8 * ulp(product[0], ctx60)
    for c in product[1:]:
        assert abs(c) <= 8 * ulp(ctx60.real(1), ctx60)


def test_exp_requires_zero_constant(ctx60):
    with pytest.raises(DomainError):
        _exp(power_series([1, 1], ctx60), ctx60.mp)


def test_binomial_power_alpha_zero(ctx60):
    base = power_series([1, 5, -2, 7], ctx60)
    result = _power(base, 0, ctx60.mp)
    assert [float(c) for c in result] == [1.0, 0.0, 0.0, 0.0]


def test_binomial_power_geometric(ctx60):
    base = power_series([1, -1], ctx60, order=4)
    result = _power(base, -1, ctx60.mp)
    for c in result:
        assert abs(c - 1) <= 4 * ulp(ctx60.real(1), ctx60)


def test_binomial_power_inverse_sqrt(ctx60):
    base = power_series([1, 0, -1], ctx60, order=4)
    result = _power(base, ctx60.real(Fraction(-1, 2)), ctx60.mp)
    expected = [Fraction(1), Fraction(0), Fraction(1, 2), Fraction(0), Fraction(3, 8)]
    for got, want in zip(result, expected):
        assert abs(got - ctx60.real(want)) <= 4 * ulp(ctx60.real(max(want, 1)), ctx60)


def _dense_power(base, alpha, mp):
    """The power recurrence with every term added, zero coefficients included."""
    alpha = mp.mpf(alpha)
    out = [mp.mpf(1)] + [mp.mpf(0)] * (len(base) - 1)
    for k in range(1, len(base)):
        acc = mp.mpf(0)
        for i in range(1, k + 1):
            acc += ((alpha + 1) * i - k) * base[i] * out[k - i]
        out[k] = acc / k
    return out


def test_power_matches_dense_recurrence_bit_for_bit(ctx60):
    mp = ctx60.mp
    rng = random.Random(11)
    dense = [1] + [Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(30)]
    bases = (
        power_series([1, 0, -1], ctx60, order=40),  # 1 - z^2, as gf_coefficients passes it
        power_series([1, 0, 0, Fraction(2, 7), 0, -3], ctx60, order=25),
        power_series(dense, ctx60),
    )
    for base in bases:
        for alpha in (mp.mpf(1) / 2, -1, -mp.mpf(3) / 2, mp.pi):
            got, want = _power(base, alpha, mp), _dense_power(base, alpha, mp)
            assert [v._mpf_ for v in got] == [v._mpf_ for v in want]


def test_binomial_power_requires_unit_constant(ctx60):
    with pytest.raises(DomainError):
        _power(power_series([2, 1], ctx60), 2, ctx60.mp)


def test_gf_first_coefficients(ctx60):
    from partition_asymptotics import coeff_c

    mp = ctx60.mp
    coeffs = gf_coefficients(1, ctx60)
    assert abs(coeffs[0] - 1) <= 8 * ulp(ctx60.real(1), ctx60)
    expected_1 = mp.sqrt(24) * coeff_c(1, ctx60)
    assert abs(coeffs[1] - expected_1) <= 8 * ulp(expected_1, ctx60)


def test_gf_matches_closed_form(ctx60):
    # the generating-function route reproduces sqrt(24)^m c_m through order 100
    mp = ctx60.mp
    produced = gf_coefficients(100, ctx60)
    reference = gf_reference(100, ctx60)
    worst = mp.mpf(0)
    for got, want in zip(produced, reference):
        worst = max(worst, abs(got - want) / abs(want))
    assert worst < mp.mpf(10) ** (-(ctx60.digits - 15))


def test_gf_approaches_singularity_approximant(ctx60):
    # relative gap to the two-singularity approximant shrinks from m=50 to m=300
    mp = ctx60.mp
    produced = gf_coefficients(300, ctx60)

    def deviation(m):
        scaled = darboux_approximant(m, ctx60) * mp.sqrt(24) ** m
        return abs(produced[m] - scaled) / abs(produced[m])

    assert deviation(300) < deviation(50)


def test_order_zero(ctx60):
    coeffs = gf_coefficients(0, ctx60)
    assert len(coeffs) == 1
    with pytest.raises(DomainError):
        gf_coefficients(-1, ctx60)
    with pytest.raises(DomainError, match="order must be nonnegative"):
        gf_reference(-1, ctx60)
