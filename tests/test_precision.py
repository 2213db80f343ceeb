"""Context arithmetic, the rational pi enclosure, and the Lambert W branch."""

from fractions import Fraction

import mpmath
import pytest
from mpmath.ctx_mp import MPContext
from mpmath.functions.functions import SpecialFunctions

from partition_asymptotics import (
    DomainError,
    PrecisionContext,
    lambert_w_minus1,
    pi_enclosure,
)
from partition_asymptotics.coefficients import coeff_envelope

from helpers import ulp

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
    # sinh(pi/6) and cosh(pi/6) as src computes them: the even and odd
    # amplitudes of the coefficient envelope over 6*sqrt(2)/pi^(3/2)
    mp = ctx.mp
    base = 6 * mp.sqrt(2) / mp.pi ** mp.mpf("1.5")
    return coeff_envelope(0, ctx)[0] / base, coeff_envelope(1, ctx)[0] / base


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
