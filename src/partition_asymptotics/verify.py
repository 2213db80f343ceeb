"""Sweep-style verification of every inequality the toolkit implements.

Each suite is a generator over one family of claims on a parameter grid: it
yields once per check, ``None`` when the check holds and the counterexample
message when it fails.  One driver, :func:`run_suite`, counts the checks and
stops at the first message.  The CLI ``verify`` subcommand dispatches here;
the test suite runs the same sweeps through pytest.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Optional

from .bounds import nu, thm1_bounds, thm2_bounds, thm3_bounds
from .coefficients import (
    certified_abs_less,
    coeff_asymptotic,
    coeff_bound,
    coeff_c,
    darboux_approximant,
)
from .errors import DomainError
from .expansion import exp_error_term, r_hat, remainder_exact
from .partitions import partition_dp_row, partition_pentagonal
from .precision import PrecisionContext
from .series import gf_coefficients, gf_reference

# the enclosure sweeps check every N in 0..ENCLOSURE_N_MAX at each n
ENCLOSURE_N_MAX = 12


@dataclass(frozen=True)
class VerifyResult:
    suite: str
    checked: int
    ok: bool
    counterexample: Optional[str] = None


def _lemma1(m_max: int, ctx: PrecisionContext):
    """|c_m| strictly decreasing (certified), signs alternating, step ratios bounded."""
    mp = ctx.mp
    even_ratio_cap = (mp.pi / 2) / (4 * mp.sqrt(6))
    odd_ratio_cap = (mp.pi / 6 + 12 / mp.pi) / (4 * mp.sqrt(6))
    coeff_c(m_max, ctx)  # the last index first, so the coefficient source grows once
    for m in range(1, m_max + 1):
        value = coeff_c(m, ctx)
        ratio = abs(value / coeff_c(m - 1, ctx))
        cap = even_ratio_cap if m % 2 == 0 else odd_ratio_cap
        if not certified_abs_less(m, m - 1):
            yield f"|c_{m}| >= |c_{m - 1}|"
        elif (value > 0) != (m % 2 == 0):
            yield f"sign of c_{m} is not (-1)^{m}"
        elif ratio > cap:
            yield f"|c_{m}/c_{m - 1}| = {mp.nstr(ratio, 12)} exceeds {mp.nstr(cap, 12)}"
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


def _lemma2(m_max: int, ctx: PrecisionContext):
    """|c_m| <= coeff_bound(m), plus the two inequalities its proof rests on."""
    mp = ctx.mp
    binom = 1  # binom(2m, m), updated incrementally
    coeff_c(m_max, ctx)  # the last index first, so the coefficient source grows once
    for m in range(m_max + 1):
        if m > 0:
            binom = binom * (2 * m) * (2 * m - 1) // (m * m)
        if abs(coeff_c(m, ctx)) > coeff_bound(m, ctx):
            yield f"|c_{m}| exceeds its bound"
        elif binom * mp.sqrt(mp.pi * (m + mp.mpf(1) / 4)) > 2 ** (2 * m):
            yield f"central binomial inequality fails at m={m}"
        else:
            yield None
    for m in range(0, min(m_max, 200) + 1):
        for k in range(0, m + 1):
            yield None if _weierstrass_holds(m, k) else f"product inequality fails at m={m}, k={k}"


@functools.lru_cache(maxsize=None)
def _lemma3_constants(ctx: PrecisionContext) -> tuple:
    """(pi/6, sqrt(2), 1/sqrt(2), 12*2^(1/3), 2^(2/3), 2/3) at one context, formed once."""
    mp = ctx.mp
    sqrt2 = mp.sqrt(2)
    return mp.pi / 6, sqrt2, 1 / sqrt2, 12 * mp.cbrt(2), mp.cbrt(4), mp.mpf(2) / 3


def _lemma3_chain(n: int, ctx: PrecisionContext, full: bool = True) -> tuple:
    """(sqrt(24n-1), mu, e^(-mu/2), simple bracket, full envelope) at one n, mu = (pi/6) sqrt(24n-1).

    The simple bracket 1/sqrt(2) + 14/mu + ((2/3) mu^2 - 13) e^(-mu/2) is
    decreasing for n >= 8, and times e^(-mu/2) it is the simple envelope.  The
    five-term envelope of the residual source term,

    [ 1/sqrt(2) + (12*2^(1/3) - sqrt(2))/mu + (mu^2/2^(2/3) - 12*2^(1/3)) e^(-mu/2)
      + (1/sqrt(2) + (2 - 12*2^(1/3))/mu) e^(-mu) + (1 + 1/mu) e^(-3mu/2) ] * e^(-mu/2),

    is formed only when ``full`` is true, and is None otherwise.
    """
    mp = ctx.mp
    pi_6, sqrt2, inv_sqrt2, twelve_cbrt2, cbrt4, two_thirds = _lemma3_constants(ctx)
    r = mp.sqrt(mp.mpf(24 * n - 1))
    mu = pi_6 * r
    decay = mp.exp(-mu / 2)
    simple = inv_sqrt2 + 14 / mu + (two_thirds * mu**2 - 13) * decay
    if not full:
        return r, mu, decay, simple, None
    bracket = (
        inv_sqrt2
        + (twelve_cbrt2 - sqrt2) / mu
        + (mu**2 / cbrt4 - twelve_cbrt2) * decay
        + (inv_sqrt2 + (2 - twelve_cbrt2) / mu) * mp.exp(-mu)
        + (1 + 1 / mu) * mp.exp(-3 * mu / 2)
    )
    return r, mu, decay, simple, bracket * decay


def _lemma3(n_max: int, ctx: PrecisionContext):
    """|r_hat(n)| <= exp(-(pi/2) sqrt(2n/3)), envelope shape, and proof chain."""
    mp = ctx.mp
    pi_6 = _lemma3_constants(ctx)[0]
    ninety_seven, pi_12 = mp.mpf("0.97"), mp.pi / 12
    table = partition_pentagonal(n_max)
    for n in range(1, n_max + 1):
        bad = abs(r_hat(n, table, ctx)) > exp_error_term(n, ctx)
        yield f"|r_hat({n})| exceeds the exponential envelope" if bad else None
    if not _lemma3_chain(432, ctx, full=False)[3] < ninety_seven:
        yield "simple bracket at n=432 is not below 0.97"  # counted only when it fails
    # one pass over n: the envelope chain for n <= 1000, and the decrease of
    # the simple bracket from n = 8 on
    for n in range(1, 5001):
        r, mu, decay, current, full = _lemma3_chain(n, ctx, full=n <= 1000)
        if n <= 1000:
            q = mp.sqrt(mp.mpf(24 * n))
            # (24n/(24n-1)) * exp(mu - pi sqrt(2n/3)) <= 1, with mu - pi sqrt(2n/3) = (pi/6)(r - q)
            damping = mp.mpf(24 * n) / (24 * n - 1) * mp.exp(pi_6 * (r - q))
            # 0.97 * exp((pi/12)/(sqrt(24n-1)+sqrt(24n))) < 1
            wiggle = ninety_seven * mp.exp(pi_12 / (r + q))
            if full > current * decay:
                yield f"full envelope exceeds simple envelope at n={n}"
            elif damping > 1:
                yield f"damping factor exceeds 1 at n={n}"
            elif not wiggle < 1:
                yield f"0.97 absorption fails at n={n}"
            else:
                yield None
        if n >= 8:
            if n > 8:
                yield None if current < previous else f"simple bracket not decreasing at n={n}"
            previous = current
    for i in range(1, 1001):
        x = mp.mpf(i) / 4000  # grid over (0, 1/4]
        bad = mp.exp(-mp.pi * x / 12) / (1 - x**2) > 1
        yield f"exp(-pi x/12)/(1-x^2) exceeds 1 at x={mp.nstr(x, 6)}" if bad else None


def _thm1(n_max: int, ctx: PrecisionContext):
    """Strict enclosure of the exact remainder by the T1 interval."""
    table = partition_pentagonal(n_max)
    for n in range(1, n_max + 1):
        for N in range(ENCLOSURE_N_MAX + 1):
            report = thm1_bounds(n, N, ctx)
            enclosed = report.lower < remainder_exact(n, N, table, ctx).remainder < report.upper
            yield None if enclosed else f"T1 enclosure fails at n={n}, N={N}"


def _thm2(n_max: int, ctx: PrecisionContext):
    """Strict T2 enclosure plus nesting: the T1 interval sits inside T2."""
    table = partition_pentagonal(n_max)
    for n in range(1, n_max + 1):
        for N in range(ENCLOSURE_N_MAX + 1):
            remainder = remainder_exact(n, N, table, ctx).remainder
            t1 = thm1_bounds(n, N, ctx)
            t2 = thm2_bounds(n, N, ctx)
            if not (t2.lower < remainder < t2.upper):
                yield f"T2 enclosure fails at n={n}, N={N}"
            elif not (t2.lower <= t1.lower and t1.upper <= t2.upper):
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


def _thm3(_size, ctx: PrecisionContext):
    """T3 enclosure from each reference threshold up through threshold + THM3_SPAN.

    The sweep visits each n once and checks there every pair whose range covers it.
    """
    thresholds = [(N, C, max(nu(N, C, ctx), 1)) for N, C in THM3_REFERENCE_PAIRS]
    first = min(start for _, _, start in thresholds)
    last = max(start for _, _, start in thresholds) + THM3_SPAN
    table = partition_pentagonal(last)
    for n in range(first, last + 1):
        for N, C, start in thresholds:
            if not start <= n <= start + THM3_SPAN:
                continue
            report = thm3_bounds(n, N, C, ctx)
            if not report.valid:
                yield f"threshold not honored at n={n}, N={N}, C={C}"
            elif not (report.lower < remainder_exact(n, N, table, ctx).remainder < report.upper):
                yield f"T3 enclosure fails at n={n}, N={N}, C={C}"
            else:
                yield None


def _gf(order: int, ctx: PrecisionContext):
    """Series route equals closed-form route for the scaled coefficients."""
    mp = ctx.mp
    tolerance = mp.mpf(10) ** (-(ctx.digits - 15))
    reference = gf_reference(order, ctx)  # first: it checks order against the coefficient cap
    produced = gf_coefficients(order, ctx)
    for m in range(order + 1):
        deviation = abs(produced[m] - reference[m]) / abs(reference[m])
        yield f"relative deviation {mp.nstr(deviation, 6)} at m={m}" if deviation > tolerance else None


def _asymptotics(_size, ctx: PrecisionContext):
    """Large-m behaviour: approximants converge onto c_m from both routes."""
    small, tight = ctx.mp.mpf("0.05"), ctx.mp.mpf("0.01")
    coeff_c(400, ctx)  # the last index first, so the coefficient source grows once

    def leading_dev(m: int):
        return abs(coeff_c(m, ctx) / coeff_asymptotic(m, ctx) - 1)

    def singularity_dev(m: int):
        return abs(darboux_approximant(m, ctx) / coeff_c(m, ctx) - 1)

    ok = leading_dev(300) < leading_dev(50)
    yield None if ok else "leading-order deviation not smaller at m=300 than m=50"
    yield None if leading_dev(300) < small else "leading-order deviation at m=300 not below 0.05"
    ok = singularity_dev(300) < singularity_dev(50)
    yield None if ok else "approximant deviation not smaller at m=300 than m=50"
    for m in range(100, 401, 2):
        yield None if leading_dev(m) < small else f"deviation at even m={m} not below 0.05"
    for m in range(200, 401, 2):
        yield None if leading_dev(m) < tight else f"deviation at even m={m} not below 0.01"


def _oracle(n_max: int, _ctx):
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
    ctx: Optional[PrecisionContext] = None,
) -> VerifyResult:
    """Run a named suite at its default grid size and digits unless overridden.

    ``n_max`` or ``m_max`` resizes the suites whose grid it names and is
    ignored by the others; only ``None`` selects the default.  A negative
    size or an unknown name raises DomainError.  The result counts every
    check made, up to and including the first that fails.
    """
    if name not in SUITES:
        raise DomainError(f"unknown suite {name!r}")
    sweep, grid, default, digits = SUITES[name]
    size = {"n_max": n_max, "m_max": m_max}.get(grid)
    if size is None:
        size = default
    elif size < 0:
        raise DomainError(f"{grid} must be nonnegative, got {size}")
    checked = 0
    for checked, counterexample in enumerate(sweep(size, ctx or PrecisionContext(digits)), 1):
        if counterexample is not None:
            return VerifyResult(name, checked, False, counterexample)
    return VerifyResult(name, checked, True)
