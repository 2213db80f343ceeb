"""The generating function's coefficients as balls of the explicit expansion, and the mpmath series oracle.

``series._ball_gf`` forms g_m = sqrt(24)^m c_m from the Lagrange-inversion
expansion in Q[a, 1/a].  The tests check that expansion exactly against the
closed form of c_m, and its balls against the coefficient source and against
the generating function rebuilt here from truncated mpmath power series
(Cauchy product, exp and real powers) at three times the digits.
"""

import random
from fractions import Fraction
from math import comb, factorial

import pytest

from partition_asymptotics import DomainError, PrecisionContext
from partition_asymptotics import coefficients, precision, verify
from partition_asymptotics.series import _ball_gf

from helpers import ulp


def _mul(a: list, b: list, mp) -> list:
    """Cauchy product truncated at the shorter of the two orders."""
    order = min(len(a), len(b)) - 1
    out = [mp.mpf(0)] * (order + 1)
    for i in range(order + 1):
        ai = a[i]
        if ai == 0:
            continue
        for j in range(order + 1 - i):
            out[i + j] += ai * b[j]
    return out


def _exp(a: list, mp) -> list:
    """exp of a series with zero constant term, via (exp a)' = a' * exp a."""
    if a[0] != 0:
        raise DomainError("series exp needs a zero constant term")
    out = [mp.mpf(1)] + [mp.mpf(0)] * (len(a) - 1)
    for k in range(1, len(a)):
        acc = mp.mpf(0)
        for i in range(1, k + 1):
            acc += i * a[i] * out[k - i]
        out[k] = acc / k
    return out


def _power(base: list, alpha, mp) -> list:
    """base^alpha for a series with unit constant term, via (f^a)' f = a f' f^a."""
    if base[0] != 1:
        raise DomainError("series power needs a unit constant term")
    alpha_plus_1 = mp.mpf(alpha) + 1
    support = [i for i in range(1, len(base)) if base[i] != 0]
    out = [mp.mpf(1)] + [mp.mpf(0)] * (len(base) - 1)
    for k in range(1, len(base)):
        acc = mp.mpf(0)
        for i in support:
            if i > k:
                break
            acc += (alpha_plus_1 * i - k) * base[i] * out[k - i]
        out[k] = acc / k
    return out


def _series_gf(order: int, mp) -> list:
    """g_0..g_order as the Maclaurin coefficients of e^(-(pi/6) z/(sqrt(1-z^2)+1)) (1/(1-z^2) - (6/pi) z (1-z^2)^(-3/2)),
    from the series primitives in the context ``mp``."""
    half = mp.mpf(1) / 2
    one_minus_z2 = [mp.mpf(c) for c in ([1, 0, -1] + [0] * order)[: order + 1]]
    root = _power(one_minus_z2, half, mp)  # sqrt(1-z^2)
    # z / (sqrt(1-z^2) + 1): normalize the constant term to 1 before inverting
    half_root_plus_1 = [(root[0] + 1) * half] + [c * half for c in root[1:]]
    inverse = [c * half for c in _power(half_root_plus_1, -1, mp)]
    exp_part = _exp([c * -mp.pi / 6 for c in [mp.mpf(0)] + inverse[:order]], mp)
    inv = _power(one_minus_z2, -1, mp)  # 1/(1-z^2)
    inv_32 = _power(one_minus_z2, -mp.mpf(3) / 2, mp)  # (1-z^2)^(-3/2)
    # the shift by z written as an offset
    bracket = inv[:1] + [c - d * 6 / mp.pi for c, d in zip(inv[1:], inv_32)]
    return _mul(exp_part, bracket, mp)


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
        power_series([1, 0, -1], ctx60, order=40),  # 1 - z^2, as _series_gf passes it
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


def _encloses(ball, bits, value) -> bool:
    middle, radius = ball
    return abs(middle - value.context.ldexp(value, bits)) <= radius


def _lagrange(m: int) -> dict:
    """g_m from the Lagrange-inversion expansion, exactly: {exponent of a: Fraction}."""

    def E(l):
        if l == 0:
            return {0: Fraction(1)}
        return {j: Fraction((-1) ** j * j * comb(l, (l - j) // 2), factorial(j) * l * 2**l) for j in range(2 - l % 2, l + 1, 2)}

    g = {}
    for l in range(m + 1):
        i, odd = divmod(m - l, 2)
        for exponent, q in E(l).items():
            if odd:
                exponent, q = exponent - 1, -q * (2 * i + 1) * comb(2 * i, i) / 4**i
            g[exponent] = g.get(exponent, 0) + q
    return {exponent: q for exponent, q in g.items() if q}


def _closed(m: int) -> dict:
    """g_m = sqrt(24)^m c_m from the closed form of the ``coefficients`` docstring: {exponent of a: Fraction}."""
    return {m - 2 * k: Fraction((-1) ** m * comb(m + 1, k) * (m + 1 - k), factorial(m + 1 - 2 * k) * 2**m) for k in range((m + 1) // 2 + 1)}


def test_lagrange_inversion_equals_the_closed_form():
    assert _lagrange(1) == {1: Fraction(-1, 2), -1: Fraction(-1)}  # g_1 = -(a/2 + 1/a)
    for m in range(41):
        assert _lagrange(m) == _closed(m), m


def test_gf_first_coefficients(ctx60):
    bits = precision._ball_bits(60)
    G = _ball_gf(2, bits)
    assert G[0] == (1 << bits, 0)
    mp = PrecisionContext(3 * ctx60.digits).mp
    a = mp.pi / 6
    assert _encloses(G[1], bits, -(a / 2 + 1 / a))
    assert _encloses(G[2], bits, a**2 / 8 + mp.mpf(3) / 2)


def test_gf_matches_closed_form(ctx60):
    # the expansion's balls overlap the coefficient source's through order 100,
    # and hold the series route at three times the digits
    bits = precision._ball_bits(60)
    G = _ball_gf(100, bits)
    series = _series_gf(100, PrecisionContext(3 * ctx60.digits).mp)
    for m in range(101):
        assert precision._ball_sign(G[m], coefficients._ball_g(m, bits)) == 0, m
        assert _encloses(G[m], bits, series[m]), m


@pytest.mark.parametrize("digits", (30, 60, 80, 166))
def test_gf_radii_keep_the_check_sharp(digits):
    # on the default grid every radius is far below the guard bits of the scale
    G = _ball_gf(100, precision._ball_bits(digits))
    assert max(radius for _, radius in G) < 1 << precision._BALL_GUARD
    assert all(radius < 16 * (m + 1) ** 1.5 for m, (_, radius) in enumerate(G))


def test_gf_approaches_singularity_approximant():
    # relative gap to the two-singularity approximant shrinks from m=50 to m=300
    bits = precision._ball_bits(60)
    G = _ball_gf(300, bits)

    def deviation(m):
        middle = coefficients._ball_darboux(m, bits)[0]
        return abs(Fraction(G[m][0] - middle, G[m][0]))

    assert deviation(300) < deviation(50)


def _plain_ball_gf(order, bits):
    """``_ball_gf`` with each binomial of E_l from math.comb: the reference its running binomials must equal."""
    one = (1 << bits, 0)
    a = precision._ball_scale(precision._ball_pi(bits), 1, 6)
    falling = [one]
    for j in range(1, order + 1):
        falling.append(precision._ball_scale(precision._ball_mul(falling[-1], a, bits), 1, j))
    E = [one]
    for l in range(1, order + 1):
        terms = [precision._ball_scale(falling[j], j * comb(l, (l - j) // 2)) for j in range(2 - l % 2, l + 1, 2)]
        E.append(precision._ball_scale((sum(t[0] for t in terms), sum(t[1] for t in terms)), (-1) ** l, l << l))
    inverse = precision._ball_div(one, a, bits)
    b = {k: precision._ball_scale(inverse, -k * comb(k - 1, k // 2), 1 << k - 1) for k in range(1, order + 1, 2)}
    balls = []
    for m in range(order + 1):
        products = [precision._ball_mul(E[l], b[m - l], bits) if (m - l) % 2 else E[l] for l in range(m + 1)]
        balls.append((sum(p[0] for p in products), sum(p[1] for p in products)))
    return balls


@pytest.mark.parametrize("order, bits", ((100, 235), (100, 600), (160, 1000)))
def test_running_binomials_leave_the_balls_bit_identical(order, bits):
    assert _ball_gf(order, bits) == _plain_ball_gf(order, bits)


def test_order_zero():
    assert _ball_gf(0, 64) == [(1 << 64, 0)]
    assert len(_ball_gf(1, 64)) == 2


def test_gf_suite_fails_on_a_wrong_expansion(monkeypatch):
    # a ball moved off g_7 by a thousand radii is disjoint from the source's: the suite names m
    def moved(order, bits):
        balls = _ball_gf(order, bits)
        middle, radius = balls[7]
        balls[7] = middle + 1000 * radius + 1000, radius
        return balls

    monkeypatch.setattr(verify, "_ball_gf", moved)
    result = verify.run_suite("gf", m_max=20)
    assert (result.ok, result.checked, result.counterexample) == (False, 8, "generating-function ball disjoint from the source's at m=7")
