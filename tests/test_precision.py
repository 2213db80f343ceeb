"""Context arithmetic, the rational pi enclosure, the Lambert W branch and the integer ball layer."""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from mpmath.ctx_mp import MPContext
from mpmath.functions.functions import SpecialFunctions
from mpmath.libmp import from_man_exp, prec_to_dps, round_nearest

from partition_asymptotics import (
    DomainError,
    PrecisionContext,
    PrecisionError,
    coefficients,
    lambert_w_minus1,
    precision,
    verify,
)

from helpers import ulp

def pi_enclosure(digits):
    """The ball layer's rational enclosure of pi as two Fractions."""
    lo, hi, den = precision._pi_enclosure(digits)
    return Fraction(lo, den), Fraction(hi, den)


# pi truncated after 50 decimal places (published digits; the next ones are 582...)
PI_TRUNCATED = Fraction("3.14159265358979323846264338327950288419716939937510")


def test_context_rejects_low_digits():
    for bad in (29, 0, 40.0, "40"):
        with pytest.raises(DomainError):
            PrecisionContext(bad)
        with pytest.raises(DomainError):
            PrecisionContext(bad)  # a rejected setting is not remembered


def test_context_equality_and_hash():
    assert PrecisionContext(40) is PrecisionContext(40)
    assert PrecisionContext(40) == PrecisionContext(40)
    assert hash(PrecisionContext(40)) == hash(PrecisionContext(40))
    assert PrecisionContext(40) != PrecisionContext(41)
    assert PrecisionContext(40).mp is PrecisionContext(40).mp


def _public(obj):
    return {name for name in dir(obj) if not name.startswith("_")}


def test_context_has_the_public_attributes_of_a_stock_context():
    assert _public(PrecisionContext(80).mp) == _public(MPContext())


# every mpmath function and constant the package reads from a context
PARITY_CALLS = {
    "sqrt": lambda mp: [mp.sqrt(k) for k in (2, 3, 24, 2001, mp.mpf(24 * 12345 - 1), mp.mpf(2) / 3)],
    "cbrt": lambda mp: [mp.cbrt(2), mp.cbrt(4), mp.cbrt(mp.mpf(7) / 3)],
    "exp": lambda mp: [mp.exp(x) for x in (1, -mp.pi / 6, mp.pi * mp.sqrt(mp.mpf(4000) / 3), -mp.mpf(250) / 7)],
    "log": lambda mp: [mp.log(x) for x in (2, mp.mpf(10) ** -40, mp.pi)],
    "log10": lambda mp: [mp.log10(x) for x in (2, mp.mpf(7) ** 90, mp.mpf(1) / 3)],
    "sinh": lambda mp: [mp.sinh(mp.pi / 6), mp.sinh(mp.mpf(-3) / 7)],
    "cosh": lambda mp: [mp.cosh(mp.pi / 6), mp.cosh(mp.mpf(5) / 2)],
    "lambertw": lambda mp: [mp.lambertw(x, -1) for x in (mp.mpf(-1) / 4, -mp.mpf(10) ** -20, -mp.exp(-1) + mp.mpf(10) ** -9)],
    "nint": lambda mp: [mp.nint(mp.mpf(7) / 2), mp.nint(mp.pi * 1000)],
    "ceil": lambda mp: [mp.ceil(mp.pi * 10**6), mp.ceil(-mp.e)],
    "mag": lambda mp: [mp.mag(x) for x in (mp.pi, mp.mpf(10) ** -70, mp.mpf(3) / 1024)],
    "nstr": lambda mp: [mp.nstr(mp.pi, 15), mp.nstr(mp.e ** 100, 40), mp.nstr(-mp.mpf(1) / 3, mp.dps)],
    "pi": lambda mp: [+mp.pi, mp.pi / 6, mp.pi ** mp.mpf("1.5")],
    "e": lambda mp: [+mp.e, mp.e * mp.mpf(10) ** -30],
}


def _bits(values):
    return [getattr(value, "_mpf_", value) for value in values]


@pytest.mark.parametrize("digits", (30, 80, 166, 1145))
@pytest.mark.parametrize("name", sorted(PARITY_CALLS))
def test_context_results_are_bit_identical_to_a_stock_context(name, digits):
    stock = MPContext()
    stock.dps = digits
    light = PrecisionContext(digits).mp
    assert light.prec == stock.prec
    assert _bits(PARITY_CALLS[name](light)) == _bits(PARITY_CALLS[name](stock))


def test_context_skips_only_what_mpmath_has_already_wrapped():
    """The light context relies on how mpmath 1.3.0 sets up a context.

    Importing mpmath builds its global context, whose constructor sets every
    special function on the ``MPContext`` class; a later constructor sets the
    same functions there again, and puts the same names on the instance
    whether or not it re-wraps.  Any mpmath that does otherwise fails here
    rather than handing out a context that lacks a function or holds a
    different one.
    """
    names = SpecialFunctions.defined_functions
    assert isinstance(mpmath.mp, MPContext)
    assert names and all(name in MPContext.__dict__ for name in names)
    before = {name: MPContext.__dict__[name] for name in names}
    stock = MPContext()
    for name, (f, wrap) in names.items():
        again = MPContext.__dict__[name]
        if wrap:
            # a fresh wrapper around the same function, from the same code
            assert again.__code__ is before[name].__code__, name
            assert f in [cell.cell_contents for cell in again.__closure__], name
        else:
            assert again is f is before[name], name
    light = PrecisionContext(80).mp
    assert type(light) is not MPContext and isinstance(light, MPContext)
    assert set(vars(light)) == set(vars(stock))
    assert not set(names) & set(vars(type(light)))
    for name in names:
        assert getattr(type(light), name) is MPContext.__dict__[name], name


def test_real_exact_decimal_strings(ctx80):
    assert ctx80.real("3.474") == ctx80.real(Fraction(3474, 1000))
    assert ctx80.real("1/4") == ctx80.real(Fraction(1, 4))
    assert ctx80.real(7) == 7


def test_real_rejects_strings_that_are_not_numbers(ctx80):
    for text in ("1/0", "0/0", "abc"):
        with pytest.raises(DomainError) as caught:
            ctx80.real(text)
        assert str(caught.value) == f"cannot interpret {text!r} as a real number"


def test_pi_thirty_digits():
    ctx = PrecisionContext(30)
    lo, hi = pi_enclosure(30)
    assert ctx.mp.nstr(ctx.real((lo + hi) / 2), 30) == "3.14159265358979323846264338328"


def test_pi_refinement_consistency():
    # a finer enclosure sits inside a coarser one
    lo30, hi30 = pi_enclosure(30)
    lo60, hi60 = pi_enclosure(60)
    assert lo30 <= lo60 < hi60 <= hi30


def test_pi_sin_is_zero():
    # sin changes sign across the enclosure, so pi lies inside it
    ctx = PrecisionContext(80)
    lo, hi = pi_enclosure(60)
    assert ctx.mp.sin(ctx.real(lo)) > 0 > ctx.mp.sin(ctx.real(hi))


def test_pi_against_rational_enclosure(ctx80):
    lo, hi = pi_enclosure(60)
    assert hi - lo < Fraction(1, 10**60)
    # the enclosure sits inside the window pinned by the known 50-digit prefix
    assert PI_TRUNCATED < lo < hi < PI_TRUNCATED + Fraction(1, 10**50)
    pi_val = ctx80.mp.pi
    assert ctx80.real(lo) <= pi_val <= ctx80.real(hi)


def _fraction_pi_enclosure(digits):
    """Machin's enclosure summed term by term in Fractions, stopping at the
    first even k whose arctan term is below 10^-(digits+4)."""

    def arctan_inv_bounds(q):
        target = Fraction(1, 10 ** (digits + 4))
        s, k, power = Fraction(0), 0, Fraction(1, q)
        while True:
            term = power / (2 * k + 1)
            if term < target and k % 2 == 0:
                return s, s + term
            s += term if k % 2 == 0 else -term
            power /= q * q
            k += 1

    a_lo, a_hi = arctan_inv_bounds(5)
    b_lo, b_hi = arctan_inv_bounds(239)
    return 16 * a_lo - 4 * b_hi, 16 * a_hi - 4 * b_lo


def test_pi_enclosure_equals_fraction_series():
    for digits in (3, 30, 86, 122, 230, 1200):
        lo, hi = pi_enclosure(digits)
        assert (lo, hi) == _fraction_pi_enclosure(digits), digits
        assert hi - lo < Fraction(1, 10**digits)


def _hyperbolic_pi_over_six(ctx):
    # sinh(pi/6) and cosh(pi/6) as src computes them: the midpoints of the
    # even and odd amplitude balls of the coefficient envelope at the
    # context's precision, over 6*sqrt(2)/pi^(3/2)
    mp = ctx.mp
    base = 6 * mp.sqrt(2) / mp.pi ** mp.mpf("1.5")
    return tuple(mp.ldexp(coefficients._ball_amplitude(m, ctx.prec)[0], -ctx.prec) / base for m in (0, 1))


def test_sinh_pi_over_six_against_taylor(ctx80):
    # independent oracle: 30 Taylor terms each of sinh and cosh at pi/6
    mp = ctx80.mp
    x = mp.pi / 6
    sinh_sum, cosh_sum = mp.mpf(0), mp.mpf(0)
    odd_term, even_term = x, mp.mpf(1)
    for k in range(30):
        sinh_sum += odd_term
        cosh_sum += even_term
        odd_term = odd_term * x * x / ((2 * k + 2) * (2 * k + 3))
        even_term = even_term * x * x / ((2 * k + 1) * (2 * k + 2))
    sinh_value, cosh_value = _hyperbolic_pi_over_six(ctx80)
    assert abs(sinh_value - sinh_sum) <= 32 * ulp(sinh_value, ctx80)
    assert abs(cosh_value - cosh_sum) <= 32 * ulp(cosh_value, ctx80)
    assert mp.nstr(sinh_value, 10) == "0.5478534739"


def test_hyperbolic_pythagorean_identity():
    for digits in (30, 50, 80, 160):
        ctx = PrecisionContext(digits)
        s, c = _hyperbolic_pi_over_six(ctx)
        assert abs(c**2 - s**2 - 1) <= 8 * ulp(c**2, ctx)


# ---------------------------------------------------------------------------
# Lambert W, branch -1
# ---------------------------------------------------------------------------


def _bisect_w(x, ctx):
    # independent oracle: bisection on w*e^w = x over [-60, -1],
    # where w*e^w decreases from ~0^- down to -1/e
    mp = ctx.mp
    lo, hi = mp.mpf(-60), mp.mpf(-1)
    for _ in range(ctx.digits * 4):
        mid = (lo + hi) / 2
        if mid * mp.exp(mid) > x:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_lambert_branch_point(ctx80):
    x = -ctx80.mp.exp(-1)
    assert lambert_w_minus1(x, ctx80) == -1


def test_lambert_exact_point(ctx80):
    x = ctx80.real(-2) * ctx80.mp.exp(-2)
    w = lambert_w_minus1(x, ctx80)
    assert abs(w + 2) <= 4 * ulp(w, ctx80)


def test_lambert_against_bisection(ctx80):
    # the argument that reproduces the threshold value 116 downstream
    mp = ctx80.mp
    x = -(mp.pi / 48) * (ctx80.real("3.474") * mp.sqrt(5)) ** ctx80.real(Fraction(1, 4))
    assert mp.nstr(x, 5) == "-0.10927"
    w = lambert_w_minus1(x, ctx80)
    assert abs(w - _bisect_w(x, ctx80)) <= 4 * ulp(w, ctx80)
    assert mp.nstr(w, 3) == "-3.45"


def _lambert_grid(ctx):
    # dense near the branch point (down to 10^-79 above it), log-spaced toward zero
    mp = ctx.mp
    xs = []
    for k in range(2, 80):
        xs.append(-mp.exp(-1) + mp.mpf(10) ** -k)
    for k in range(1, 13):
        xs.append(-mp.mpf(10) ** (-mp.mpf(k) / 2))
    return sorted(x for x in xs if -mp.exp(-1) <= x < 0)


def test_lambert_residual_and_branch_on_grid(ctx80):
    mp = ctx80.mp
    for x in _lambert_grid(ctx80):
        w = lambert_w_minus1(x, ctx80)
        assert w <= -1
        assert abs(w * mp.exp(w) - x) <= 4 * ulp(w, ctx80)


def test_lambert_strictly_decreasing(ctx80):
    previous = None
    for x in _lambert_grid(ctx80):
        w = lambert_w_minus1(x, ctx80)
        if previous is not None:
            assert w < previous
        previous = w


def test_lambert_refinement(ctx80):
    fine = PrecisionContext(160)
    for x_str in ("-0.05", "-0.2", "-0.35"):
        coarse = lambert_w_minus1(ctx80.real(x_str), ctx80)
        refined = ctx80.real(lambert_w_minus1(fine.real(x_str), fine))
        assert abs(coarse - refined) <= 2 * ulp(coarse, ctx80)


def test_lambert_domain_errors(ctx80):
    with pytest.raises(DomainError):
        lambert_w_minus1(ctx80.real("-0.4"), ctx80)  # below -1/e
    with pytest.raises(DomainError):
        lambert_w_minus1(ctx80.real(0), ctx80)
    with pytest.raises(DomainError):
        lambert_w_minus1(ctx80.real("0.1"), ctx80)


def test_lambert_domain_errors_show_x_to_15_digits(ctx80):
    for x, text in (
        (-ctx80.mp.pi / 8, "x >= -1/e, got -0.392699081698724"),
        (ctx80.real("-0.4"), "x >= -1/e, got -0.4"),
        (ctx80.real(0), "x < 0, got 0.0"),
        (ctx80.real("0.1"), "x < 0, got 0.1"),
    ):
        with pytest.raises(DomainError) as caught:
            lambert_w_minus1(x, ctx80)
        assert str(caught.value) == f"lambert_w_minus1 requires {text}"


# ---------------------------------------------------------------------------
# integer balls: (M, e) at scale 2^-P stands for the reals x, |2^P x - M| <= e
# ---------------------------------------------------------------------------

BALL_DIGITS = (30, 80, 500)


def _ball_scales(digits):
    """The ball scales of these digit counts, each with its digits as id, and lemma 3's coarser start scale."""
    lemma3 = verify._LEMMA3_BITS
    return [*(pytest.param(precision._ball_bits(d), id=str(d)) for d in digits), pytest.param(lemma3, id=f"{lemma3}-bits")]


def _reference(bits):
    """An mpmath context at three times the decimal digits of a ball scale."""
    return PrecisionContext(3 * (int(bits * 0.30103) + 1)).mp


def _encloses(ball, bits, value, mp):
    middle, radius = ball
    return radius >= 0 and abs(middle - mp.ldexp(value, bits)) <= radius


@pytest.mark.parametrize("bits", _ball_scales(BALL_DIGITS))
def test_ball_constants_enclose_their_values(bits):
    mp = _reference(bits)
    for ball, value, radius in (
        (precision._ball_pi(bits), mp.pi, 1),
        (precision._ball_ln2(bits), mp.log(2), 1),
        (precision._ball_cbrt2(bits), mp.cbrt(2), 1),
        (precision._ball_sqrt2(bits), mp.sqrt(2), 1),
        *((precision._ball_sqrt(k, bits), mp.sqrt(k), int(math.isqrt(k) ** 2 != k)) for k in (0, 1, 2, 23, 24 * 5000, 10**40 + 1, 4**40)),
    ):
        assert _encloses(ball, bits, value, mp), value
        assert ball[1] == radius  # each docstring's radius: 0 for an exact root


def test_integer_cube_root():
    for k in (*range(1, 2000), 2 << 900, 10**300, 3**600 - 1, 3**600, 3**600 + 1):
        root = precision._icbrt(k)
        assert root**3 <= k < (root + 1) ** 3, k


@pytest.mark.parametrize("digits", (30, 80, 166, 500))
def test_ball_log_encloses_every_point_of_its_argument(digits):
    bits = precision._ball_bits(digits)
    mp = _reference(bits)
    # below 1, at 1 and powers of two (s = 0), near 2 (s near 1/3), pi, and integers far above 1
    for y in (mp.mpf("0.001"), mp.mpf("0.75"), 1, mp.mpf(2) - mp.ldexp(1, -40), 2, mp.pi, 10**6 + 1, mp.mpf(10) ** 300):
        for radius in (0, 1, 1000):
            middle = int(mp.floor(mp.ldexp(y, bits)))
            ball = precision._ball_log((middle, radius), bits)
            for point in (middle - radius, middle, middle + radius):
                assert _encloses(ball, bits, mp.log(mp.ldexp(point, -bits)), mp), (y, radius, point)
            k = middle.bit_length() - 1 - bits
            assert ball[1] == abs(k) + 1 + -(-(radius << bits) // (middle - radius)), (y, radius)  # the docstring's radius
    with pytest.raises(PrecisionError):
        precision._ball_log((5, 5), bits)  # not known to be positive


@pytest.mark.parametrize("bits", _ball_scales((30, 80, 166, 500, 2000)))
def test_ball_exp_encloses_every_point_of_its_argument(bits):
    mp = _reference(bits)
    tiny = mp.ldexp(1, -bits)
    ln2 = precision._ball_ln2(bits)[0]
    # y = k ln 2 + t: k = bits / 2 truncates the reduced argument to the result's
    # narrower scale, k = bits - 1 and bits leave it a few bits, and k > bits needs no series
    reduced = (mp.log(2) * k + mp.mpf("0.3") for k in (bits // 2, bits - 1, bits, bits + 1, 2 * bits))
    exact = {}  # point -> e^-(point / 2^bits), each formed once
    for y in (0, tiny, mp.mpf(10) ** -30, mp.mpf("0.001"), mp.log(2), 1, mp.mpf("2.5"), 40, 91, 100, *reduced):
        for radius in (0, 1, 3):
            middle = int(mp.floor(mp.ldexp(y, bits)))
            if middle < radius:
                continue  # the ball must hold only y >= 0
            ball = precision._ball_exp((middle, radius), bits)
            for point in (middle - radius, middle, middle + radius):
                if point not in exact:
                    exact[point] = mp.exp(-mp.ldexp(point, -bits))
                assert _encloses(ball, bits, exact[point], mp), (y, radius, point)
            k = middle // ln2
            assert ball[1] <= 3 + (2 * (k + radius) >> k) <= 4 + 2 * radius, (y, radius)  # the docstring's radius
    with pytest.raises(PrecisionError):
        precision._ball_exp((1 << bits, 1 << bits - 1), bits)  # y in [1/2, 3/2] is not known to 1/2


def test_ball_arithmetic_encloses_every_combination():
    for bits in (verify._LEMMA3_BITS, 301):
        mp = _reference(bits)
        a, b = (7 << bits, 5), (-(3 << bits) + 12345, 9)
        c = (math.isqrt(2 << 2 * bits), 1)
        for x in (a[0] - a[1], a[0] + a[1]):
            for y in (b[0] - b[1], b[0] + b[1]):
                for z in (c[0] - c[1], c[0] + c[1]):
                    X, Y, Z = (mp.ldexp(v, -bits) for v in (x, y, z))
                    assert _encloses(precision._ball_add(a, b), bits, X + Y, mp)
                    assert _encloses(precision._ball_mul(a, b, bits), bits, X * Y, mp)
                    assert _encloses(precision._ball_div(b, c, bits), bits, Y / Z, mp)
                    assert _encloses(precision._ball_scale(b, -13, 6), bits, Y * -13 / 6, mp)
                    assert _encloses(precision._ball_scale(b, -13), bits, Y * -13, mp)


def test_ball_div_refuses_a_divisor_not_known_to_be_positive():
    bits = 20
    assert precision._ball_div((1 << bits, 0), (5 << bits - 2, 1), bits)[1] >= 0
    for divisor in (
        (5 << bits - 2, 3 << bits - 1),  # [-0.25, 2.75] holds 0: the radius would come out negative
        (-(1 << bits), 1 << bits - 1),  # [-1.5, -0.5]: 1/y spans [-2, -2/3], wider than the quotient's radius
        (1 << bits, 1 << bits),  # [0, 2]
    ):
        with pytest.raises(PrecisionError):
            precision._ball_div((1 << bits, 0), divisor, bits)


def test_ball_sign_is_undecided_while_balls_overlap():
    sign = precision._ball_sign
    assert sign((10, 2), (5, 2)) == 1
    assert sign((5, 2), (10, 2)) == -1
    assert sign((9, 2), (5, 2)) == 0  # 7 is in both
    assert sign((7, 0), (7, 0)) == 0  # an exact tie is never decided


def test_near_tie_is_decided_after_one_escalation():
    """simple bracket(432) < Q / 2^P, with the integer Q between its midpoint and its true value.

    The midpoints answer wrongly at P, and the balls overlap; at 2P the true
    verdict comes out.  With every radius of the layer set to 0 this fails.
    """
    bits = precision._ball_bits(80)
    mp = _reference(bits)
    m = mp.pi / 6 * mp.sqrt(24 * 432 - 1)
    true = mp.ldexp(1 / mp.sqrt(2) + 14 / m + (2 * m**2 / 3 - 13) * mp.exp(-m / 2), bits)
    middle, radius = verify._lemma3_chain(432, bits)[3]
    assert abs(true - middle) > 1  # so an integer lies strictly between them
    target = middle + 1 if true > middle else middle - 1
    holds = true < target
    assert (middle < target) != holds  # the midpoints give the wrong answer
    scales = []

    def signs(P):
        scales.append(P)
        return [precision._ball_sign(verify._lemma3_chain(432, P)[3], (target << P - bits, 0))]

    assert precision._ball_decide(signs, bits) == [-1 if holds else 1]
    assert scales == [bits, 2 * bits]


def test_exact_tie_raises_at_the_cap():
    scales = []

    def signs(P):
        scales.append(P)
        # sqrt(2) sqrt(8) = 4 exactly
        return [precision._ball_sign(precision._ball_mul(precision._ball_sqrt(2, P), precision._ball_sqrt(8, P), P), (4 << P, 0))]

    with pytest.raises(PrecisionError):
        precision._ball_decide(signs, precision._ball_bits(80))
    assert scales[-1] == precision._BALL_MAX_BITS
    assert all(later == min(2 * earlier, precision._BALL_MAX_BITS) for earlier, later in zip(scales, scales[1:]))


def test_ball_decide_reads_only_the_first_sign_that_is_not_minus_one():
    calls = []

    def signs(P):
        calls.append(P)
        return [-1, 1, 0]  # the group fails at its second claim; the third is not needed

    assert precision._ball_decide(signs, 64) == [-1, 1, 0]
    assert calls == [64]


@pytest.mark.parametrize("digits", (30, 80))
def test_ball_round_decides_only_when_both_ends_round_alike(digits):
    # balls about powers of two, rounding boundaries and ordinary points, of
    # either sign: whenever a ball is rounded at its first scale, both of its
    # ends round to the result; past it the ball turns exact at its midpoint,
    # so every call returns that midpoint rounded
    ctx = PrecisionContext(digits)
    prec, P = ctx.mp.prec, ctx.mp.prec + 40
    rng = random.Random(digits)
    decided = 0
    for _ in range(4000):
        k = rng.choice((P, P + 1, P - 5, P + 70))  # the value is about 2^(k - P)
        base = 1 << k
        if rng.random() < 0.5:  # near a rounding boundary of 2^k's binade or the one below
            base += rng.randint(-4, 4) * (1 << k - prec) + rng.choice((0, 1 << k - prec - 1, 1 << k - prec - 2))
        else:
            base += rng.randint(0, 1 << k - 1)
        middle = rng.choice((1, -1)) * (base + rng.randint(-64, 64))
        radius = rng.choice((0, 1, 7, 1 << max(k - prec - 3, 0), 1 << max(k - prec - 1, 0)))
        scales = []

        def balls(Q):
            scales.append(Q)
            return [(middle, radius) if Q == P else (middle << Q - P, 0)]

        (value,) = precision._ball_round(balls, P, ctx)
        exact = from_man_exp(middle, -P, prec, round_nearest)
        if scales == [P]:
            decided += 1
            ends = {from_man_exp(middle + side, -P, prec, round_nearest) for side in (-radius, radius)}
            assert ends == {value._mpf_}, (middle, radius)
        else:
            assert value._mpf_ == exact and scales == [P, 2 * P], (middle, radius)
    assert 1000 < decided < 4000


# ---------------------------------------------------------------------------
# the package's own float rounding and conversions, against mpmath's
# ---------------------------------------------------------------------------


def test_rounded_float_is_bit_identical_to_mpmath():
    # exact ties above a kept part of either parity, a carry into the next
    # power of two, the points next to them, zero, negative midpoints and
    # negative scales, then random midpoints
    rng = random.Random(25)
    cases = []
    for prec in (2, 3, 53, 103, 269, 1000):
        for drop in (1, 2, 7, 65, 300):
            for kept in (1 << prec - 1, (1 << prec - 1) + 1, (1 << prec) - 2, (1 << prec) - 1):
                tie = (kept << drop) + (1 << drop - 1)
                cases += [(middle, prec) for middle in (tie - 1, tie, tie + 1, kept << drop, (kept << drop) - 1)]
    cases += [(0, prec) for prec in (1, 53, 269)]
    for _ in range(3000):
        prec = rng.choice((1, 2, 30, 53, 103, 269, 1000))
        cases.append((rng.getrandbits(rng.randint(1, 3 * prec + 80)), prec))
    for middle, prec in cases:
        for bits in (-70, -1, 0, 1, 64, prec + 40, 3000):
            for signed in {middle, -middle}:
                assert precision._rounded_float(signed, bits, prec) == from_man_exp(signed, -bits, prec, round_nearest), (signed, bits, prec)


def test_precision_in_bits_and_digits_are_mpmath_conversions():
    # prec is what mpmath sets for dps = d, checked on one stock context
    # (building a shared context per digit count would hold them all), and
    # the contexts the tests build carry it too
    stock = MPContext()
    for digits in range(30, 5001):
        stock.dps = digits
        assert precision._digits_to_bits(digits) == stock.prec, digits
    for digits in (30, 31, 50, 80, 166, 1145):
        ctx = PrecisionContext(digits)
        assert ctx.prec == ctx.mp.prec, digits
    for bits in range((1 << 14) + 1):
        assert precision._ball_digits(bits) == prec_to_dps(bits - precision._BALL_GUARD), bits


def test_the_renderer_rounds_as_a_precision_context(table):
    # every value a ball is rounded to is the same raw float in both contexts
    from partition_asymptotics import banerjee_bounds, coeff_bound, coeff_c, remainder_exact, thm1_bounds, thm2_bounds

    for digits in (30, 80, 301):
        ctx, rendering = PrecisionContext(digits), precision._Rendering(digits)
        assert rendering is precision._Rendering(digits) and (rendering.digits, rendering.prec) == (digits, ctx.prec)
        for n, N in ((1, 2), (200, 4), (2200, 12)):
            for values in (
                lambda c: remainder_exact(n, N, table, c, include_theta=True),
                lambda c: thm1_bounds(n, N, c)[2:4],
                lambda c: thm2_bounds(n, N, c)[2:4],
                lambda c: banerjee_bounds(n, N, c)[2:4],
                lambda c: [coeff_c(N, c), coeff_bound(N, c)],
            ):
                expected = [value._mpf_ for value in values(ctx) if hasattr(value, "_mpf_")]
                rendered = values(rendering)
                assert [value._mpf_ for value in rendered if hasattr(value, "_mpf_")] == expected, (digits, n, N)
                assert all(type(value) is precision._Float for value in rendered if hasattr(value, "_mpf_"))
