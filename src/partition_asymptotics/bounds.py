"""Enclosing bounds for the truncation remainder, and the validity threshold.

Three bound families, each an interval (lower, upper) guaranteed to contain
R_N(n) on its stated domain:

  T1  first-omitted-term bounds: from c_N itself plus the exponential term;
  T2  coefficient-free bounds: c_N replaced by its proven envelope;
  T3  purely algebraic bounds with a tunable constant C, valid once
      n >= nu_N(C), the threshold where the exponential term is absorbed.

The comparison family restates an earlier published result on the same
remainder ("Banerjee" tag); its validity threshold is not computable here, so
those reports always carry valid=False and exist for width comparisons only.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

from .coefficients import coeff_envelope
from .errors import DomainError, PrecisionError
from .expansion import _check, _per_n
from .precision import PrecisionContext, lambert_w_minus1


@dataclass(frozen=True)
class BoundsReport:
    """One (lower, upper) enclosure for R_N(n), tagged with its origin."""

    n: int
    N: int
    lower: object
    upper: object
    theorem: str
    valid: bool
    C: Optional[object] = None


def _enclosure(theorem, n, N, below, above, valid=True, C=None) -> BoundsReport:
    """-below < R_N(n) < above for even N; the mirror -above < R_N(n) < below for odd N.

    Every family encloses R_N(n) between an exponentially small or algebraic
    part and the first omitted term (or its envelope), on the side of c_N's
    sign (-1)^N, so each passes only its even-N pair.
    """
    lower, upper = (-below, above) if N % 2 == 0 else (-above, below)
    return BoundsReport(n=n, N=N, lower=lower, upper=upper, theorem=theorem, valid=valid, C=C)


def thm1_bounds(n: int, N: int, ctx: PrecisionContext) -> BoundsReport:
    """First-omitted-term enclosure, valid for all n >= 1, N >= 0.

    Even N = 2j:  -E < R_N(n) < c_{2j}/n^j + E
    Odd  N = 2j+1: c_{2j+1}/n^(j+1/2) - E < R_N(n) < E
    with E = exp(-(pi/2) sqrt(2n/3)).
    """
    _check(n, N)
    per = _per_n(n, ctx)
    E = per.error_term
    return _enclosure("T1", n, N, E, abs(per.term(N)) + E)


def thm2_bounds(n: int, N: int, ctx: PrecisionContext) -> BoundsReport:
    """Coefficient-free enclosure: T1 with c_N relaxed to its proven envelope."""
    _check(n, N)
    per = _per_n(n, ctx)
    E = per.error_term
    amplitude, shape, correction = coeff_envelope(N, ctx)
    envelope = amplitude * shape / per.q ** N * correction
    return _enclosure("T2", n, N, E, envelope + E)


@functools.lru_cache(maxsize=None)
def nu(N: int, C, ctx: PrecisionContext) -> int:
    """Smallest n from which the T3 bounds with constant C hold:

        nu_N(C) = ceil( (3/2) * ( (2N/pi) * W_-1(-(pi/(12N)) (C sqrt(N+1))^(1/N)) )^2 )

    Raises DomainError when the W_-1 argument falls below -1/e (no threshold
    exists for that (N, C) pair), and PrecisionError when the value is within
    10^-digits of an integer, where its ceiling is undecided.  Results are
    cached per (N, C, digits), so C must be hashable.
    """
    if N < 1:
        raise DomainError(f"N must be positive, got {N}")
    work = PrecisionContext(2 * ctx.digits + 10)
    mp = work.mp
    c_val = work.real(C)
    if not c_val > 0:
        raise DomainError(f"C must be positive, got {C!r}")
    argument = -(mp.pi / (12 * N)) * (c_val * mp.sqrt(N + 1)) ** (mp.mpf(1) / N)
    try:
        w = lambert_w_minus1(argument, work)
    except DomainError as exc:
        raise DomainError(f"nu(N={N}, C={C!r}): {exc}") from exc
    value = mp.mpf(3) / 2 * ((2 * N / mp.pi) * w) ** 2
    nearest = mp.nint(value)
    if abs(value - nearest) < mp.mpf(10) ** (-ctx.digits):
        # the true threshold may lie on either side of the integer
        raise PrecisionError(
            f"nu(N={N}, C={C!r}) is within 10^-{ctx.digits} of {int(nearest)}; "
            "raise the precision to decide its ceiling"
        )
    return int(mp.ceil(value))


def thm3_bounds(n: int, N: int, C, ctx: PrecisionContext) -> BoundsReport:
    """Purely algebraic enclosure with tunable constant C.

    Even N = 2j (j >= 1):
        -C sqrt(2j+1)/sqrt(24n)^(2j) < R_N(n)
          < (C + envelope_even(j)) sqrt(2j+1)/sqrt(24n)^(2j)
    Odd N = 2j+1 (j >= 0): mirrored with sqrt(2j+2) and the odd envelope.

    Holds once n >= nu_N(C); below the threshold the report is returned with
    valid=False rather than raising, so sweeps can cross the boundary.
    """
    _check(n, N)
    if N < 1:
        raise DomainError(f"T3 bounds need N >= 1, got N={N}")
    valid = n >= nu(N, C, ctx)  # nu also rejects C <= 0
    c_val = ctx.real(C)
    amplitude, shape, correction = coeff_envelope(N, ctx)
    factor = shape / _per_n(n, ctx).q ** N
    widening = amplitude * correction
    return _enclosure("T3", n, N, c_val * factor, (c_val + widening) * factor, valid, c_val)


def banerjee_bounds(n: int, N: int, ctx: PrecisionContext) -> BoundsReport:
    """Comparison enclosure from the earlier published result (N >= 2).

    Even N = 2j (j >= 1):
        -13 (6/pi)^(2j) sqrt(j+1)/sqrt(24n)^(2j) < R_N(n)
          < 16 (6/pi)^(2j) sqrt(j+1)/sqrt(24n)^(2j)
    Odd N = 2j+1 (j >= 1): constants (-21, 11) with sqrt(j+2).

    Its validity threshold is not computable from the inputs available here,
    so valid is always False; the report exists for width comparisons.
    """
    _check(n, N)
    if N < 2:
        raise DomainError(f"comparison bounds are stated for N >= 2, got N={N}")
    mp = ctx.mp
    factor = (6 / mp.pi) ** N * mp.sqrt(N // 2 + 1 + N % 2) / _per_n(n, ctx).q ** N
    below, above = (13, 16) if N % 2 == 0 else (11, 21)
    return _enclosure("Banerjee", n, N, below * factor, above * factor, valid=False)
