"""Coefficient values, exact pi-polynomial structure, bounds, and asymptotics."""

import concurrent.futures
import functools
import io
import math
import random
import sys
from collections import defaultdict
from fractions import Fraction
from math import comb, factorial

import pytest
from mpmath.ctx_mp import MPContext

from partition_asymptotics import (
    DomainError,
    PrecisionContext,
    PrecisionError,
    ResourceError,
    certified_abs_less,
    coeff_asymptotic,
    coeff_bound,
    coeff_c,
)
from partition_asymptotics import cli, coefficients, expansion, precision, verify


def _exact_terms(m):
    """The closed form's pi-power coefficients, built directly from the formula."""
    return {
        m - 2 * k: Fraction(comb(m + 1, k) * (m + 1 - k), factorial(m + 1 - 2 * k)) * Fraction(1, 6) ** (m - 2 * k)
        for k in range((m + 1) // 2 + 1)
    }


@functools.lru_cache(maxsize=None)
def _factorial_form(m):
    """(a_0, ..., a_K) and D_m with D_m * pi * (4*sqrt(6))^m * |c_m| = sum_k a_k * pi^(m+1-2k):
    a_k = binom(m+1, k) * (m+1-k) * 36^k * (m+1)! / (m+1-2k)! and D_m = (m+1)! * 6^m,
    positive integers, with K = floor((m+1)/2)."""
    top = factorial(m + 1)
    numerators = tuple(
        comb(m + 1, k) * (m + 1 - k) * 36**k * (top // factorial(m + 1 - 2 * k))
        for k in range((m + 1) // 2 + 1)
    )
    return numerators, top * 6**m


def _integer_terms(m):
    """The same pi-power coefficients, read back from ``_factorial_form``."""
    numerators, denominator = _factorial_form(m)
    return {m - 2 * k: Fraction(a, denominator) for k, a in enumerate(numerators)}


@functools.lru_cache(maxsize=None)
def _closed_forms(m_max, dps):
    """c_0 .. c_{m_max} term by term from the closed form, in one mpmath context.

    Term k of (4*sqrt(6))^m * |c_m| is binom(m+1, k) * (m+1-k) * w_{m+1-2k}, with
    w_j = (pi/6)^(j-1) / j!; the w_j are built once, from powers of pi built by
    repeated multiplication.
    """
    mp = MPContext()
    mp.dps = dps
    pi_powers = [1 / mp.pi, mp.mpf(1)]  # pi^(j-1) for j = 0, 1, ...
    while len(pi_powers) < m_max + 2:
        pi_powers.append(pi_powers[-1] * mp.pi)
    weights = [6 * pi_powers[j] / (factorial(j) * 6**j) for j in range(m_max + 2)]
    values = []
    for m in range(m_max + 1):
        terms = (comb(m + 1, k) * (m + 1 - k) * weights[m + 1 - 2 * k] for k in range((m + 1) // 2 + 1))
        magnitude = mp.fsum(terms) / mp.sqrt(96) ** m
        values.append(-magnitude if m % 2 else magnitude)
    return tuple(values)


def test_exact_terms_first_three():
    assert _integer_terms(0) == {0: Fraction(1)}
    assert _integer_terms(1) == {1: Fraction(1, 6), -1: Fraction(12)}
    assert _integer_terms(2) == {2: Fraction(1, 72), 0: Fraction(6)}
    assert max(_integer_terms(7)) == 7


def test_exact_exponent_structure():
    for m in (0, 1, 2, 5, 12, 33):
        terms = _integer_terms(m)
        expected = {m - 2 * k for k in range((m + 1) // 2 + 1)}
        assert set(terms) == expected
        assert all(q > 0 for q in terms.values())
        assert terms == _exact_terms(m)


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
    values = _closed_forms(401, 100)
    return abs(values[m]) < abs(values[other])


def test_certified_comparison_pairs():
    for m, other in CERTIFY_PAIRS:
        assert certified_abs_less(m, other) == _oracle_abs_less(m, other), (m, other)


def test_certified_comparison_equal_index():
    assert not certified_abs_less(5, 5)
    assert not certified_abs_less(0, 0)
    with pytest.raises(ValueError):
        certified_abs_less(-1, -1)


def _scaled_g(j, scale):
    """scale * g_j as {power of pi: integer}, for a multiple ``scale`` of 2^j * D_j.

    g_j = sqrt(24)^j * c_j = (-1)^j * H_j / (2^j * pi * D_j), with H_j and D_j
    from ``_factorial_form``.
    """
    numerators, denominator = _factorial_form(j)
    factor, rest = divmod(scale, 2**j * denominator)
    assert rest == 0
    return {j - 2 * k: (-1) ** j * factor * a for k, a in enumerate(numerators)}


def test_recurrence_holds_exactly_on_the_closed_form():
    """36 * 2^(m+3) * D_(m+3) times the recurrence, with a = pi/6, is an identity of
    Laurent polynomials in pi for every m <= 397, that is up to g_400; the seeds
    are g_0 = 1, g_1 = -(pi/12 + 6/pi) and g_2 = pi^2/288 + 3/2."""
    seeds = ({0: 1}, {1: Fraction(-1, 12), -1: -6}, {2: Fraction(1, 288), 0: Fraction(3, 2)})
    for j, seed in enumerate(seeds):
        scale = 2**j * _factorial_form(j)[1]
        assert {power: Fraction(c, scale) for power, c in _scaled_g(j, scale).items()} == seed
    for m in range(398):
        scale = 2 ** (m + 3) * _factorial_form(m + 3)[1]
        g = [_scaled_g(m + j, scale) for j in range(4)]
        # (each power of pi it multiplies, integer factor) per g_(m+j)
        factors = (
            ((0, 36 * (m + 2) * (m + 4)),),
            ((1, -6 * (2 * m + 7)),),
            ((0, -36 * (m + 1) * (m + 4)), (2, 1)),
            ((1, 6 * (2 * m + 6)),),
        )
        total = defaultdict(int)
        for poly, pairs in zip(g, factors):
            for shift, factor in pairs:
                for power, coefficient in poly.items():
                    total[power + shift] += factor * coefficient
        assert not any(total.values()), m


def test_recurrence_proven_symbolically():
    """The generating function e^(-a u) (1/(1-z^2) - (z/a) (1-z^2)^(-3/2)),
    u = z/(1+sqrt(1-z^2)), satisfies the ODE that the recurrence is, for any a."""
    sp = pytest.importorskip("sympy")
    t, a, x = sp.symbols("t a x", positive=True)
    z = 2 * t / (1 + t**2)  # then u = t and sqrt(1-z^2) = (1-t^2)/(1+t^2)
    stretch = t * (1 + t**2) / (1 - t**2)  # theta = z d/dz = stretch * d/dt
    rational = (1 + t**2) ** 2 / (1 - t**2) ** 2 - (2 * t / a) * (1 + t**2) ** 2 / (1 - t**2) ** 3
    # P_k(m) multiplies g_(m+k); the seeds g_0, g_1, g_2
    P = (
        (x + 2) * (x + 4),
        -a * (2 * x + 7),
        -((x + 1) * (x + 4) - a**2),
        a * (2 * x + 6),
    )
    seeds = (sp.Integer(1), -(a / 2 + 1 / a), a**2 / 8 + sp.Rational(3, 2))
    # theta^j F = e^(-at) * powers[j], from theta(e^(-at) S) = e^(-at) * stretch * (S' - a S)
    powers = [rational]
    for _ in range(2):
        powers.append(sp.cancel(stretch * (sp.diff(powers[-1], t) - a * powers[-1])))
    # sum_k z^(3-k) P_k(theta - k) (F - F_<k): its e^(-at) part and its rational part
    exponential_part = rational_part = 0
    for k in range(4):
        operator = sp.Poly(sp.expand(P[k].subs(x, x - k)), x)
        exponential_part += z ** (3 - k) * sum(c * powers[j] for (j,), c in operator.terms())
        rational_part -= z ** (3 - k) * sum(P[k].subs(x, j - k) * seeds[j] * z**j for j in range(k))
    assert sp.cancel(sp.together(exponential_part)) == 0
    assert sp.expand(rational_part) == 0


def test_values_within_one_ulp_of_closed_form():
    # each value is correctly rounded: bit-identical to the closed form at
    # three times the digits, rounded once to the context
    for digits in (50, 80, 160):
        ctx = PrecisionContext(digits)
        for m, oracle in enumerate(_closed_forms(400, 3 * digits)):
            assert coeff_c(m, ctx)._mpf_ == ctx.mp.mpf(oracle)._mpf_, (m, digits)


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


def _amplitudes(mp):
    """(even, odd) envelope amplitudes written out in ``mp``'s arithmetic."""
    base = 6 * mp.sqrt(2) / mp.pi ** mp.mpf("1.5")
    return base * mp.sinh(mp.pi / 6), base * mp.cosh(mp.pi / 6)


def test_envelope_pieces():
    # the even and odd amplitude balls at each context's ball scale enclose their values at twice the digits
    for digits in (30, 31, 80, 166, 1145):
        bits = precision._ball_bits(digits)
        wide = PrecisionContext(2 * digits).mp
        for m, reference in enumerate(_amplitudes(wide)):
            middle, radius = coefficients._ball_amplitude(m, bits)
            assert radius == 1 and abs(middle - wide.ldexp(reference, bits)) <= radius, (m, digits)


AMPLITUDE_WIDTHS = (16, 17, 24, 31, 53, 64, 100, 301, 1000, 4099, 1 << 14)


def test_amplitude_balls_enclose_their_values_at_every_width():
    # each amplitude form returns L <= 2^w A < L + 2, and the held ball at
    # every width, asked up and then down, encloses A with radius 1; the
    # references are taken at three times the digits of the widest scale
    wide = PrecisionContext(3 * (math.ceil(max(AMPLITUDE_WIDTHS) * math.log10(2)) + 1)).mp
    for m, reference in enumerate(_amplitudes(wide)):
        form = coefficients._AMPLITUDES[m].__wrapped__
        for width in AMPLITUDE_WIDTHS:
            scaled = wide.ldexp(reference, width)
            lower = form(width)
            assert lower <= scaled < lower + 2, (m, width)
        for width in (*AMPLITUDE_WIDTHS, *reversed(AMPLITUDE_WIDTHS)):
            middle, radius = coefficients._ball_amplitude(m, width)
            assert radius == 1 and abs(middle - wide.ldexp(reference, width)) <= radius, (m, width)


@pytest.mark.parametrize("digits", (30, 31, 80, 166, 1145))
def test_envelope_against_twice_the_digits(digits):
    # coeff_bound and coeff_asymptotic are the plain formulas at twice the
    # digits rounded once to the context
    ctx = PrecisionContext(digits)
    wide = PrecisionContext(2 * digits).mp
    references = _amplitudes(wide)
    for m in (*range(0, 64), 399, 400, 2999, 3000):
        j = m // 2
        num, den = (4 * j + 2, 4 * j + 1) if m % 2 == 0 else (4 * j + 4, 4 * j + 5)
        asymptotic = references[m % 2] * wide.sqrt(m + 1) / wide.sqrt(24) ** m
        bound = asymptotic * wide.sqrt(wide.mpf(num) / den)
        assert coeff_bound(m, ctx)._mpf_ == ctx.real(bound)._mpf_, m
        assert coeff_asymptotic(m, ctx)._mpf_ == ctx.real(asymptotic if m % 2 == 0 else -asymptotic)._mpf_, m


def test_amplitudes_do_not_depend_on_the_order_of_digit_counts(monkeypatch):
    # the held amplitude balls depend on the widest scale asked so far; the
    # envelope values rounded from them must not
    digit_counts = (30, 31, 57, 80, 142, 166, 188, 300, 1145)

    def visit(order):
        fresh = tuple(precision._held(held.__wrapped__) for held in coefficients._AMPLITUDES)
        monkeypatch.setattr(coefficients, "_AMPLITUDES", fresh)
        return {
            d: [(coeff_bound(m, PrecisionContext(d))._mpf_, coeff_asymptotic(m, PrecisionContext(d))._mpf_) for m in (0, 1, 12, 13)]
            for d in order
        }

    ascending = visit(digit_counts)
    assert visit(reversed(digit_counts)) == ascending


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
    bits = precision._ball_bits(80)
    mp = PrecisionContext(3 * ctx80.digits).mp
    middle, radius = coefficients._ball_darboux(0, bits)
    assert abs(middle - mp.ldexp(6 / (mp.sqrt(2) * mp.pi) * mp.sinh(mp.pi / 6), bits)) <= radius


def test_darboux_signs_and_convergence():
    # on the g scale: D_m and g_m = sqrt(24)^m c_m
    bits = precision._ball_bits(80)
    for m in range(1, 40):
        middle, radius = coefficients._ball_darboux(m, bits)
        assert abs(middle) > radius and (middle > 0) == (m % 2 == 0)
    darboux, g = coefficients._ball_darboux(300, bits)[0], coefficients._ball_g(300, bits)[0]
    assert abs(Fraction(darboux, g) - 1) < Fraction(2, 100)


def test_memo_consistent_under_threads(ctx80):
    serial = [coeff_c(m, ctx80) for m in range(60)]
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(lambda m: coeff_c(m, ctx80), range(60)))
    assert serial == threaded


def _cold_source(monkeypatch):
    """Empty the recurrence source and the coeff_c memo; the old source returns after the test."""
    monkeypatch.setattr(coefficients, "_source", (0, 0, (), ()))
    coeff_c.cache_clear()


def test_cold_source_grows_consistently_under_threads(monkeypatch):
    requests = [(m, digits) for m in range(121) for digits in (50, 80, 160)]
    random.Random(11).shuffle(requests)

    def value(request):
        m, digits = request
        return coeff_c(m, PrecisionContext(digits))._mpf_

    _cold_source(monkeypatch)
    serial = [value(request) for request in requests]
    _cold_source(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(value, request) for request in requests]
            threaded = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
    held, _, values, radii = coefficients._source
    assert held >= 160 and len(values) == len(radii) > 120


@pytest.fixture
def builds(monkeypatch):
    """(size, digits, guard) of every build attempt of the recurrence source."""
    seen = []
    attempt = coefficients._attempt

    def recorded(size, digits, guard):
        seen.append((size, digits, guard))
        return attempt(size, digits, guard)

    monkeypatch.setattr(coefficients, "_attempt", recorded)
    return seen


def test_source_guard_passes_its_check_first_time(monkeypatch, builds):
    for size, digits in ((32, 30), (120, 300), (400, 80)):
        _cold_source(monkeypatch)
        builds.clear()
        coeff_c(size, PrecisionContext(digits))
        assert builds == [(size, digits, coefficients._guard_digits(size))]
    expected = [coeff_c(m, PrecisionContext(80)) for m in range(121)]
    # a guard too small for the error bound fails the check and is doubled until it passes
    monkeypatch.setattr(coefficients, "_guard_digits", lambda size: 8)
    _cold_source(monkeypatch)
    builds.clear()
    assert [coeff_c(m, PrecisionContext(80)) for m in range(120, -1, -1)][::-1] == expected
    guards = [guard for _, _, guard in builds]
    assert guards[:3] == [8, 16, 32] and len(guards) > 3


def test_range_readers_grow_the_source_once(monkeypatch, builds, ctx80, table):
    readers = (
        lambda: cli.run(["coeff", "60"], stream=io.StringIO()),
        lambda: verify.run_suite("lemma1", m_max=60),
        lambda: verify.run_suite("lemma2", m_max=60),
        lambda: verify.run_suite("asymptotics"),
        lambda: verify.run_suite("gf", m_max=60),
        lambda: expansion.full_sum(10, ctx80),
        lambda: expansion.remainder_exact(10, 3, table, ctx80, include_theta=True),
    )
    for read in readers:
        _cold_source(monkeypatch)
        expansion._ball_sum.cache_clear()
        builds.clear()
        read()
        assert len(builds) == 1, read


def test_ball_g_is_formed_at_its_own_scale_whatever_the_source_holds(monkeypatch):
    # g_m's ball reads c_m at 2^-(bits + bitlen(24^j) + 3) and multiplies
    # there, not at the source's scale: the same balls, with sqrt(24) formed
    # at that scale, from a cold source and after a 1500-digit build
    bits = verify._GF_BITS
    scales = []
    root = coefficients._ball_sqrt
    monkeypatch.setattr(coefficients, "_ball_sqrt", lambda num, P, den=1: scales.append(P) or root(num, P, den))
    expected = [bits + (24 ** (m // 2)).bit_length() + 3 for m in range(1, 101, 2)]
    balls = []
    for built in (False, True):
        _cold_source(monkeypatch)
        if built:
            coefficients._coefficients(400, 1500)
        scales.clear()
        balls.append([coefficients._ball_g(m, bits) for m in range(100, -1, -1)])
        assert sorted(scales) == expected, built
    assert balls[0] == balls[1]


def test_lemma1_decides_its_ratios_on_the_source_as_built(monkeypatch, builds):
    # at any --digits the source is built once, for the 9 digits of every
    # comparison's start scale, at 2^-1519, and no ratio escalates
    assert precision._ball_digits(precision._START_BITS) == 9
    for digits in ("30", "50"):
        _cold_source(monkeypatch)
        builds.clear()
        assert cli.run(["--digits", digits, "verify", "lemma1", "--m-max", "200"], stream=io.StringIO()) == 0
        assert builds == [(200, 9, coefficients._guard_digits(200))]
        assert coefficients._source[:2] == (9, 1519)


def test_step_ratio_decided_on_the_source(monkeypatch):
    _cold_source(monkeypatch)
    assert all(coefficients._ratio_within_cap(m) for m in range(2, 401))
    # |c_2/c_1| is 10% and |c_3/c_2| 2.1% below its cap: lifted past them, the checks fail
    for m, percent in ((2, 115), (3, 105)):
        _cold_source(monkeypatch)
        held, bits, values, radii = coefficients._coefficients(40, 40)
        lifted = list(values)
        lifted[m] = values[m] * percent // 100
        monkeypatch.setattr(coefficients, "_source", (held, bits, tuple(lifted), radii))
        assert not coefficients._ratio_within_cap(m), m


def test_envelope_decided_on_the_source(monkeypatch):
    _cold_source(monkeypatch)
    assert all(coefficients._within_envelope(m) for m in range(0, 401))
    # |c_0| is 15% and |c_399| 2.8e-5 below its envelope: lifted past them, the checks fail
    for m, lift in ((0, Fraction(6, 5)), (399, 1 + Fraction(3, 10**5))):
        _cold_source(monkeypatch)
        held, bits, values, radii = coefficients._coefficients(400, 40)
        lifted = list(values)
        lifted[m] = values[m] * lift.numerator // lift.denominator
        monkeypatch.setattr(coefficients, "_source", (held, bits, tuple(lifted), radii))
        assert not coefficients._within_envelope(m), m


@pytest.mark.parametrize("digits", (30, 31, 80))
def test_lemma2_decides_on_the_source_as_built(monkeypatch, builds, digits):
    # every bound and central binomial check decides on the source built for
    # the digits of the bounds' start scale, whatever --digits, at the first
    # scale: one build, and no rebuild
    _cold_source(monkeypatch)
    stream = io.StringIO()
    assert cli.run(["--digits", str(digits), "verify", "lemma2"], stream=stream) == 0
    assert "checked = 20702" in stream.getvalue()
    assert builds == [(400, 9, coefficients._guard_digits(400))]
    assert coefficients._source[:2] == (9, 3346)


def test_negative_m_rejected(ctx80, monkeypatch):
    def untouched(m, digits):
        raise AssertionError("the source was asked for a negative index")

    monkeypatch.setattr(coefficients, "_coefficients", untouched)
    cached = coeff_c.cache_info().currsize
    with pytest.raises(ValueError, match="m must be nonnegative, got -1"):
        coeff_c(-1, ctx80)
    assert coeff_c.cache_info().currsize == cached
    with pytest.raises(ValueError):
        coeff_bound(-1, ctx80)


@pytest.mark.parametrize(
    "call",
    (
        lambda ctx: coeff_c(-1, ctx),
        lambda ctx: coeff_asymptotic(-1, ctx),
        lambda ctx: certified_abs_less(-1, 0),
        lambda ctx: certified_abs_less(0, -1),
    ),
    ids=("coeff_c", "coeff_asymptotic", "certified_abs_less", "certified_abs_less_other"),
)
def test_negative_m_is_a_domain_error(call, ctx80):
    with pytest.raises(DomainError, match="^m must be nonnegative, got -1$"):
        call(ctx80)


def test_certified_comparison_consecutive_without_escalation(monkeypatch, builds):
    _cold_source(monkeypatch)
    assert certified_abs_less(400, 399)  # the last index first, as lemma1 asks for it
    for m in range(1, 400):
        assert certified_abs_less(m, m - 1), m
    # every comparison starts _START_BITS below |c_m|, where 9 digits serve
    assert builds == [(400, 9, coefficients._guard_digits(400))]


def test_certified_comparison_escalates(monkeypatch, builds):
    for m, other in CERTIFY_PAIRS + ((100, 99),):
        _cold_source(monkeypatch)
        held, bits, values, radii = coefficients._coefficients(max(m, other), 40)
        # |W_m| moved past |W_other| to the wrong side, by a quarter of the two radii:
        # the midpoints now give the wrong answer, and the balls overlap
        step = 1 if _oracle_abs_less(m, other) else -1
        moved = abs(values[other]) + step * ((radii[m] + radii[other]) // 4)
        assert 0 < abs(moved - abs(values[other])) < radii[m] + radii[other]
        tied = list(values)
        tied[m] = -moved if m % 2 else moved
        monkeypatch.setattr(coefficients, "_source", (held, bits, tuple(tied), radii))
        builds.clear()
        assert certified_abs_less(m, other) == _oracle_abs_less(m, other), (m, other)
        # one _ball_decide group from _START_BITS below |c_top|, top = max(m, other): the tampered balls,
        # floored, overlap at every doubled scale that the digits held serve, and the one rebuild is for
        # the digits of the first scale past them, grown by the source's factor
        top = max(m, other)
        below = precision._root_below(top + 1, 24**top)
        scale = precision._START_BITS + below
        while precision._ball_digits(scale - below) <= held:
            scale *= 2
        rebuilt = max(precision._ball_digits(scale - below), math.ceil(coefficients._SOURCE_GROWTH * held))
        assert [digits for _, digits, _ in builds] == [rebuilt] and rebuilt > held, (m, other)


def test_coeff_c_escalates_when_the_source_sits_past_a_rounding_boundary(monkeypatch, builds):
    # a source entry moved just past the rounding boundary half an ulp from
    # the correctly rounded c_m, its radius widened so that its ball still
    # holds c_m: the midpoint rounds to the neighbouring float, the ball
    # straddles the boundary, so coeff_c escalates, the source is rebuilt for
    # more digits, and the value is the correctly rounded one again
    ctx = PrecisionContext(50)
    for m in (7, 40):
        _cold_source(monkeypatch)
        held, bits, values, radii = coefficients._coefficients(60, 50)
        expected = coeff_c(m, ctx)._mpf_
        _, man, exp, count = expected
        assert man != 1  # a power of two has a nearer boundary below it
        nearest = man << exp + bits  # |c_m| rounded, at the source's scale 2^-bits
        side = 1 if abs(values[m]) > nearest else -1
        moved = nearest + side * ((1 << exp + count - ctx.prec + bits - 1) + 4)
        assert precision._rounded_float(moved, bits, ctx.prec)[1:] != expected[1:]
        tampered = list(values), list(radii)
        tampered[0][m] = -moved if m % 2 else moved
        tampered[1][m] = abs(moved - abs(values[m])) + radii[m]
        monkeypatch.setattr(coefficients, "_source", (held, bits, *map(tuple, tampered)))
        coeff_c.cache_clear()
        builds.clear()
        assert coeff_c(m, ctx)._mpf_ == expected, m
        assert len(builds) == 1 and builds[0][1] > held, (m, builds)


def test_certified_comparison_undecided_raises(monkeypatch):
    built = []

    def tied(size, digits, guard):
        # every value is the ball 1 +- 1, at a scale finer than any asked, so no two of them separate
        built.append(digits)
        return 2048, (1 << 2048,) * (size + 1), (1 << 2048,) * (size + 1)

    monkeypatch.setattr(coefficients, "_attempt", tied)
    monkeypatch.setattr(precision, "_BALL_MAX_BITS", 700)
    _cold_source(monkeypatch)
    with pytest.raises(PrecisionError, match=r"^the comparison of \|c_3\| and \|c_2\| is undecided at 700 bits$"):
        certified_abs_less(3, 2)
    # from _START_BITS below |c_3|, 2^-69, doubled up to the widest scale; each scale asks for the digits
    # _START_BITS past its root_below(4, 24^3) = 5 bits
    assert precision._START_BITS + precision._root_below(4, 24**3) == 69
    assert built == [precision._ball_digits(bits - 5) for bits in (69, 138, 276, 552, 700)] == [9, 29, 71, 154, 199]


def test_source_values_within_their_radius(monkeypatch):
    for size, digits in ((200, 50), (400, 80), (120, 187)):
        _cold_source(monkeypatch)
        held, bits, values, radii = coefficients._coefficients(size, digits)
        assert (held, len(values), len(radii)) == (digits, size + 1, size + 1)
        # the closed form at more than bits + 64 bits leaves an error far below one unit of 2^-bits
        dps = math.ceil((bits + 65) / math.log2(10)) + 1
        mp = MPContext()
        mp.dps = dps
        assert mp.prec > bits + 64
        for m, (value, radius, exact) in enumerate(zip(values, radii, _closed_forms(size, dps))):
            assert abs(mp.mpf(value) - mp.ldexp(exact, bits)) <= radius, (size, digits, m)
            assert abs(value) > (10 ** (digits + 10) + 1) * radius, (size, digits, m)


def test_source_request_past_the_cap_raises_before_any_build(monkeypatch, capsys):
    def refused(size, digits, guard):
        raise AssertionError("a request past the cap started a build")

    monkeypatch.setattr(coefficients, "_attempt", refused)
    cap = coefficients.COEFF_CAP
    with pytest.raises(ResourceError, match=f"m={cap + 1} exceeds cap {cap}"):
        coeff_c(cap + 1, PrecisionContext(30))
    with pytest.raises(ResourceError):
        certified_abs_less(cap + 1, cap)
    for argv in (
        ["coeff", "100000"],
        ["verify", "lemma1", "--m-max", "100000"],
        ["verify", "lemma2", "--m-max", "100000"],
        ["verify", "gf", "--m-max", "100000"],
    ):
        stream = io.StringIO()
        assert cli.run(argv, stream=stream) == 2
        assert (stream.getvalue(), capsys.readouterr().err) == ("", f"error: m=100000 exceeds cap {cap}\n")
