"""Sweep-style verification of every inequality the toolkit implements.

Each suite is a generator over one family of claims on a parameter grid: it
yields once per check, ``None`` when the check holds and the counterexample
message when it fails.  One driver, :func:`run_suite`, counts the checks and
stops at the first message.  The CLI ``verify`` subcommand dispatches here;
the test suite runs the same sweeps through pytest.

The lemma3, thm1, thm2 and thm3 sweeps decide every claim on integer balls
(see ``precision``), formed per n from one exp: the same balls the printed
bounds and remainders are rounded from.  thm1, thm2 and thm3 start each
group at the context's ball scale; lemma3, whose claims are about fixed
reals, at _LEMMA3_BITS whatever the digits, and ``_ball_decide`` doubles
the scale of any group still undecided.  lemma1 decides its step ratios, and
lemma2 each |c_m| against its envelope, on the coefficient source's
integers; lemma2's central binomial inequality is decided on a ball of pi.
gf and asymptotics compare balls of g_m = sqrt(24)^m c_m: gf the source's
with those of the explicit expansion in ``series`` (a consistency check of
two enclosures, not a proof of equality), asymptotics the source's with the
leading and the dominant-singularity approximants.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import factorial
from typing import NamedTuple, Optional

from .bounds import _ball_exponential, _ball_thm3, nu
from .coefficients import (
    _ball_asymptotic,
    _ball_darboux,
    _ball_envelope,
    _ball_g,
    _coefficients,
    _ratio_within_cap,
    _within_envelope,
    certified_abs_less,
)
from .errors import DomainError, _check_digits
from .expansion import _ball_error_term, _ball_remainder, _ball_term, _decay_bits
from .partitions import partition_dp_row, partition_pentagonal
from .precision import (
    _ball_add,
    _ball_bits,
    _ball_cbrt2,
    _ball_decide,
    _ball_div,
    _ball_exp,
    _ball_mul,
    _ball_pi,
    _ball_scale,
    _ball_sign,
    _ball_sqrt,
    _ball_sqrt2,
)
from .series import _ball_gf

# the enclosure sweeps check every N in 0..ENCLOSURE_N_MAX at each n
ENCLOSURE_N_MAX = 12
# The scale lemma 3's groups start at, whatever the digits.  Its claims are
# about fixed reals whose relative margins are far wider than 2^-64: the
# narrowest, the decrease of the simple bracket at n = 5000, is about 1e-5.
_LEMMA3_BITS = 64


class VerifyResult(NamedTuple):
    suite: str
    checked: int
    ok: bool
    counterexample: Optional[str] = None


def _lemma1(m_max: int, digits: int):
    """|c_m| strictly decreasing and step ratios bounded (both certified), signs alternating.

    |c_1/c_0| is the odd cap itself, as g_0 = 1 and g_1 = -(a/2 + 1/a): an identity no rounding can decide.
    The sign of c_m is that of the source's W_m, which is certified: |W_m| exceeds its radius.
    """
    values = _coefficients(m_max, digits)[2]  # the last index first, so the coefficient source grows once
    for m in range(1, m_max + 1):
        if not certified_abs_less(m, m - 1):
            yield f"|c_{m}| >= |c_{m - 1}|"
        elif (values[m] > 0) != (m % 2 == 0):
            yield f"sign of c_{m} is not (-1)^{m}"
        elif m > 1 and not _ratio_within_cap(m):
            yield f"|c_{m}/c_{m - 1}| exceeds its cap"
        else:
            yield None


def _weierstrass_holds(m: int, k: int) -> bool:
    # product_{j=1..k} (1 - k/(m+j)) = m!^2 / ((m-k)! (m+k)!)  >=  1 - k^2/(m+1),
    # compared in exact integer arithmetic
    rhs_numerator = m + 1 - k * k
    if rhs_numerator <= 0:
        return True
    lhs = factorial(m) ** 2 * (m + 1)
    rhs = rhs_numerator * factorial(m - k) * factorial(m + k)
    return lhs >= rhs


def _lemma2(m_max: int, digits: int):
    """|c_m| below its envelope, plus the two inequalities its proof rests on, each decided on balls or integers.

    The central binomial inequality binom(2m, m) sqrt(pi (m + 1/4)) < 4^m is
    squared into binom(2m, m)^2 pi (4m+1) < 4 * 16^m, on one ``_ball_pi``.
    """
    bits, binom = _ball_bits(digits), 1  # binom(2m, m), updated incrementally
    _coefficients(m_max, digits)  # the last index first, so the coefficient source grows once

    def central(m, square, P):
        return [_ball_sign(_ball_scale(_ball_pi(P), square * (4 * m + 1)), (1 << 4 * m + 2 + P, 0))]

    for m in range(m_max + 1):
        if m > 0:
            binom = binom * (2 * m) * (2 * m - 1) // (m * m)
        if not _within_envelope(m):
            yield f"|c_{m}| exceeds its bound"
        elif _ball_decide(functools.partial(central, m, binom * binom), bits)[0] > 0:
            yield f"central binomial inequality fails at m={m}"
        else:
            yield None
    for m in range(0, min(m_max, 200) + 1):
        for k in range(0, m + 1):
            yield None if _weierstrass_holds(m, k) else f"product inequality fails at m={m}, k={k}"


def _lemma3_chain(n: int, bits: int, full: bool = True) -> tuple:
    """Balls at scale 2^-bits for (sqrt(24n-1), mu, e^(-mu/2), simple bracket, full bracket) at one n.

    mu = (pi/6) sqrt(24n-1).  The simple bracket
    1/sqrt(2) + 14/mu + ((2/3) mu^2 - 13) e^(-mu/2) is decreasing for n >= 8,
    and times e^(-mu/2) it is the simple envelope.  The full bracket, which
    times e^(-mu/2) is the five-term envelope of the residual source term,

      1/sqrt(2) + (12*2^(1/3) - sqrt(2))/mu + (mu^2 2^(1/3)/2 - 12*2^(1/3)) e^(-mu/2)
      + (1/sqrt(2) + (2 - 12*2^(1/3))/mu) e^(-mu) + (1 + 1/mu) e^(-3mu/2),

    is formed by Horner in D = e^(-mu/2) only when ``full`` is true, and is
    None otherwise.  One exp per n: e^(-mu) = D^2 and e^(-3mu/2) = D^3.
    """
    one = (1 << bits, 0)
    r = _ball_sqrt(24 * n - 1, bits)
    mu = _ball_scale(_ball_mul(_ball_pi(bits), r, bits), 1, 6)
    inverse = _ball_div(one, mu, bits)
    decay = _ball_exp(_ball_scale(mu, 1, 2), bits)
    square = _ball_mul(mu, mu, bits)
    sqrt2 = _ball_sqrt2(bits)
    root_half = _ball_scale(sqrt2, 1, 2)
    simple = _ball_add(
        _ball_add(root_half, _ball_scale(inverse, 14)),
        _ball_mul(_ball_add(_ball_scale(square, 2, 3), _ball_scale(one, -13)), decay, bits),
    )
    if not full:
        return r, mu, decay, simple, None
    # bracket = 1/sqrt(2) + a/mu + D (k1 + D (k2 + D k3)), with c = 2^(1/3),
    # a = 12c - sqrt(2), k1 = mu^2 c/2 - 12c, k2 = 1/sqrt(2) + (2 - 12c)/mu, k3 = 1 + 1/mu
    cbrt2 = _ball_cbrt2(bits)
    minus_twelve_cbrt2 = _ball_scale(cbrt2, -12)
    a = _ball_add(_ball_scale(cbrt2, 12), _ball_scale(sqrt2, -1))
    k1 = _ball_add(_ball_scale(_ball_mul(square, cbrt2, bits), 1, 2), minus_twelve_cbrt2)
    k2 = _ball_add(root_half, _ball_mul(_ball_add(_ball_scale(one, 2), minus_twelve_cbrt2), inverse, bits))
    k3 = _ball_add(one, inverse)
    horner = _ball_add(k1, _ball_mul(decay, _ball_add(k2, _ball_mul(decay, k3, bits)), bits))
    bracket = _ball_add(_ball_add(root_half, _ball_mul(a, inverse, bits)), _ball_mul(decay, horner, bits))
    return r, mu, decay, simple, bracket


def _lemma3(n_max: int, _digits):
    """|r_hat(n)| <= exp(-(pi/2) sqrt(2n/3)), envelope shape, and proof chain.

    Every claim is decided on integer balls from the ``precision`` helpers,
    whatever the digits: each group of comparisons starts at _LEMMA3_BITS, or
    at that many bits below E(n) for r_hat(n), is redone at twice the scale
    while undecided, and raises PrecisionError past the widest.  A sign of -1
    means the claim holds.
    """
    bits, table = _LEMMA3_BITS, partition_pentagonal(n_max)

    def residual(n, P):
        middle, radius = _ball_remainder(n, None, table.p(n), P)
        return [_ball_sign((abs(middle), radius), _ball_error_term(n, P))]

    for n in range(1, n_max + 1):
        bad = _ball_decide(functools.partial(residual, n), bits + _decay_bits(n))[0] > 0
        yield f"|r_hat({n})| exceeds the exponential envelope" if bad else None

    @functools.lru_cache(maxsize=4)  # n - 1 and n, at one or two scales
    def chain(n, P):
        return _lemma3_chain(n, P, full=n <= 1000)

    def below_097(P):
        return [_ball_sign(_ball_scale(chain(432, P)[3], 100), (97 << P, 0))]

    def envelope(n, P):
        # full bracket < simple bracket: the two envelopes share the factor e^(-mu/2) > 0.
        # With E1 = exp(-(pi/12)/(sqrt(24n-1) + sqrt(24n))) and
        # mu - pi sqrt(2n/3) = (pi/6)(sqrt(24n-1) - sqrt(24n)) = -(pi/6)/(sqrt(24n-1) + sqrt(24n)),
        # the damping factor (24n/(24n-1)) exp(mu - pi sqrt(2n/3)) < 1 is 24n E1^2 < 24n - 1,
        # and the absorption 0.97 exp((pi/12)/(sqrt(24n-1) + sqrt(24n))) < 1 is 0.97 < E1
        r, _, _, simple, bracket = chain(n, P)
        E1 = _ball_exp(_ball_div(_ball_pi(P), _ball_scale(_ball_add(r, _ball_sqrt(24 * n, P)), 12), P), P)
        return [
            _ball_sign(bracket, simple),
            _ball_sign(_ball_scale(_ball_mul(E1, E1, P), 24 * n), ((24 * n - 1) << P, 0)),
            _ball_sign((97 << P, 0), _ball_scale(E1, 100)),
        ]

    def decrease(n, P):
        return [_ball_sign(chain(n, P)[3], chain(n - 1, P)[3])]

    powers = {}  # P -> [q, q^2, ...] for q = exp(-pi/48000) at 2^-P, grown on demand

    def grid(i, P):
        # exp(-pi x/12) <= 1 - x^2 at x = i/4000, times 4000^2 on both sides; exp(-pi i/48000) = q^i,
        # whose radius grows by about e_q + 2 per power
        if P not in powers:
            powers[P] = [_ball_exp(_ball_scale(_ball_pi(P), 1, 48000), P)]
        ladder = powers[P]
        while len(ladder) < i:
            ladder.append(_ball_mul(ladder[-1], ladder[0], P))
        return [_ball_sign(_ball_scale(ladder[i - 1], 4000**2), ((4000**2 - i * i) << P, 0))]

    if _ball_decide(below_097, bits)[0] > 0:
        yield "simple bracket at n=432 is not below 0.97"  # counted only when it fails
    # one pass over n: the envelope chain for n <= 1000, and the decrease of
    # the simple bracket from n = 8 on
    messages = ("full envelope exceeds simple envelope", "damping factor exceeds 1", "0.97 absorption fails")
    for n in range(1, 5001):
        if n <= 1000:
            signs = _ball_decide(functools.partial(envelope, n), bits)
            failed = next((message for message, sign in zip(messages, signs) if sign > 0), None)
            yield f"{failed} at n={n}" if failed else None
        if n > 8:
            fails = _ball_decide(functools.partial(decrease, n), bits)[0] > 0
            yield f"simple bracket not decreasing at n={n}" if fails else None
    for i in range(1, 1001):
        bad = _ball_decide(functools.partial(grid, i), bits)[0] > 0
        yield f"exp(-pi x/12)/(1-x^2) exceeds 1 at x={i / 4000:.6g}" if bad else None


def _inside(remainder: tuple, lower: tuple, upper: tuple) -> list:
    """lower < R < upper as two signs, -1 each when it holds."""
    return [_ball_sign(lower, remainder), _ball_sign(remainder, upper)]


def _thm1(n_max: int, digits: int):
    """Strict enclosure of the exact remainder by the T1 interval, decided on balls."""
    bits, table = _ball_bits(digits), partition_pentagonal(n_max)

    def signs(n, N, P):
        return _inside(_ball_remainder(n, N, table.p(n), P), *_ball_exponential(n, N, _ball_term(n, N, P), P))

    for n in range(1, n_max + 1):
        for N in range(ENCLOSURE_N_MAX + 1):
            enclosed = max(_ball_decide(functools.partial(signs, n, N), bits)) < 0
            yield None if enclosed else f"T1 enclosure fails at n={n}, N={N}"


def _thm2(n_max: int, digits: int):
    """Strict T2 enclosure plus nesting, decided on balls.

    The T1 and T2 intervals share their E(n) parts, so T1 sits inside T2
    exactly when |c_N| / n^(N/2) is below its envelope.
    """
    bits, table = _ball_bits(digits), partition_pentagonal(n_max)

    def signs(n, N, P):
        envelope = _ball_envelope(N, (24 * n) ** N, P)
        lower, upper = _ball_exponential(n, N, envelope, P)
        return [*_inside(_ball_remainder(n, N, table.p(n), P), lower, upper), _ball_sign(_ball_term(n, N, P), envelope)]

    for n in range(1, n_max + 1):
        for N in range(ENCLOSURE_N_MAX + 1):
            found = _ball_decide(functools.partial(signs, n, N), bits)
            if max(found[:2]) > 0:
                yield f"T2 enclosure fails at n={n}, N={N}"
            elif found[2] > 0:
                yield f"T1 interval not inside T2 at n={n}, N={N}"
            else:
                yield None


THM3_REFERENCE_PAIRS = (
    (4, "3.474"),
    (6, Fraction(1, 4)),
    (7, 24),
    (10, 5839),
    (11, 866061),
)
THM3_SPAN = 200


def _thm3(_size, digits: int):
    """T3 enclosure from each reference threshold up through threshold + THM3_SPAN, decided on balls.

    The sweep visits each n once and checks there every pair whose range covers it.
    """
    thresholds = [(N, C, max(nu(N, C), 1)) for N, C in THM3_REFERENCE_PAIRS]
    first = min(start for _, _, start in thresholds)
    last = max(start for _, _, start in thresholds) + THM3_SPAN
    bits, table = _ball_bits(digits), partition_pentagonal(last)

    def signs(n, N, C, P):
        return _inside(_ball_remainder(n, N, table.p(n), P), *_ball_thm3(n, N, C, P))

    for n in range(first, last + 1):
        for N, C, start in thresholds:
            if start <= n <= start + THM3_SPAN:
                enclosed = max(_ball_decide(functools.partial(signs, n, N, C), bits)) < 0
                yield None if enclosed else f"T3 enclosure fails at n={n}, N={N}, C={C}"


def _gf(order: int, digits: int):
    """The explicit expansion's ball of each g_m = sqrt(24)^m c_m overlaps the coefficient source's.

    Both balls hold g_m, so disjoint balls prove a defect in one of the two routes.
    """
    bits = _ball_bits(digits)
    # the last index first: it checks order against the coefficient cap, and the source grows once
    source = [_ball_g(m, bits) for m in reversed(range(order + 1))][::-1]
    for m, ball in enumerate(_ball_gf(order, bits)):
        yield None if _ball_sign(ball, source[m]) == 0 else f"generating-function ball disjoint from the source's at m={m}"


def _asymptotics(_size, digits: int):
    """Large-m behaviour: the leading and the dominant-singularity approximants converge onto g_m, decided on balls.

    With s = (-1)^m, an approximant x_m within |x_m| / k of g_m is
    (k-1) sx < k sg < (k+1) sx: for the leading one, A_m =
    ``_ball_asymptotic(m, 1, .)``, the ball that ``coeff_asymptotic`` rounds
    at power 24^m, at even m, and for the dominant-singularity one at m = 301.
    A relative deviation |x_m - y_m| / |y_m| smaller at m = 300 than at
    m = 50 is |x_300 - y_300| |y_50| < |x_50 - y_50| |y_300|, and the same
    check holds for the odd pair 51 and 301.  An approximant of the wrong
    sign at odd m deviates by about 2 at both, slightly less at 301, so the
    bound at m = 301 is what sees it.
    """
    bits = _ball_bits(digits)
    _ball_g(400, bits)  # the last index first, so the coefficient source grows once

    def leading(m, P):
        return _ball_asymptotic(m, 1, P)

    def within(x, m, k, P):
        A, g = (_ball_scale(ball, (-1) ** m) for ball in (x(m, P), _ball_g(m, P)))
        return [_ball_sign(_ball_scale(A, k - 1), _ball_scale(g, k)), _ball_sign(_ball_scale(g, k), _ball_scale(A, k + 1))]

    def closer(x, y, P):
        def pair(m):  # |x_m - y_m| and |y_m|
            (u, d), (v, e) = x(m, P), y(m, P)
            return (abs(u - v), d + e), (abs(v), e)

        signs = []
        for low, high in ((50, 300), (51, 301)):  # one even and one odd pair
            (gap_high, size_high), (gap_low, size_low) = pair(high), pair(low)
            signs.append(_ball_sign(_ball_mul(gap_high, size_low, P), _ball_mul(gap_low, size_high, P)))
        return signs

    def holds(signs, *args):
        return max(_ball_decide(functools.partial(signs, *args), bits)) < 0

    yield None if holds(closer, _ball_g, leading) else "leading-order deviation not smaller at m=300, 301 than m=50, 51"
    yield None if holds(within, leading, 300, 20) else "leading-order deviation at m=300 not below 0.05"
    approaches = holds(closer, _ball_darboux, _ball_g) and holds(within, _ball_darboux, 301, 20)
    yield None if approaches else "approximant deviation not smaller at m=300, 301 than m=50, 51, or not below 0.05 at m=301"
    for m in range(100, 401, 2):
        yield None if holds(within, leading, m, 20) else f"deviation at even m={m} not below 0.05"
    for m in range(200, 401, 2):
        yield None if holds(within, leading, m, 100) else f"deviation at even m={m} not below 0.01"


def _oracle(n_max: int, _digits):
    """Pentagonal-recurrence values equal part-counting DP values."""
    table = partition_pentagonal(n_max)
    oracle = partition_dp_row(n_max)
    for n in range(n_max + 1):
        yield None if table.p(n) == oracle[n] else f"p({n}) differs between the two algorithms"


# name -> (sweep, grid argument of run_suite or None, default grid size, default digits)
SUITES = {
    "lemma1": (_lemma1, "m_max", 400, 50),
    "lemma2": (_lemma2, "m_max", 400, 80),
    "lemma3": (_lemma3, "n_max", 500, 80),
    "thm1": (_thm1, "n_max", 500, 80),
    "thm2": (_thm2, "n_max", 500, 80),
    "thm3": (_thm3, None, None, 80),
    "gf": (_gf, "m_max", 100, 60),
    "asymptotics": (_asymptotics, None, None, 80),
    "oracle": (_oracle, "n_max", 2000, 80),
}
SUITE_NAMES = tuple(SUITES)


def run_suite(
    name: str,
    n_max: Optional[int] = None,
    m_max: Optional[int] = None,
    digits: Optional[int] = None,
) -> VerifyResult:
    """Run a named suite at its default grid size and digits unless overridden.

    ``n_max`` or ``m_max`` resizes the suites whose grid it names and is
    ignored by the others; only ``None`` selects the default.  A negative
    size, an unknown name or digits that ``_check_digits`` refuses raise
    DomainError.  The result counts every check made, up to and including the first that fails.
    """
    if name not in SUITES:
        raise DomainError(f"unknown suite {name!r}")
    sweep, grid, default, default_digits = SUITES[name]
    digits = default_digits if digits is None else digits
    _check_digits(digits)
    size = {"n_max": n_max, "m_max": m_max}.get(grid)
    if size is None:
        size = default
    elif size < 0:
        raise DomainError(f"{grid} must be nonnegative, got {size}")
    checked = 0
    for checked, counterexample in enumerate(sweep(size, digits), 1):
        if counterexample is not None:
            return VerifyResult(name, checked, False, counterexample)
    return VerifyResult(name, checked, True)
