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

Each end of every family takes one route: an integer ball (the ``_ball_*``
forms, which the sweeps decide on) rounded once to the context by
``_ball_round``, from the scale that fits the end.  Only T3's threshold nu
needs context arithmetic (mpmath's Lambert W); the other families, the
comparison family too, accept any context ``_ball_round`` does.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Optional

from .coefficients import _ball_envelope
from .errors import DomainError, PrecisionError
from .expansion import _ball_error_term, _ball_term, _check, _per_n_bits
from .precision import (
    _BALL_GUARD,
    PrecisionContext,
    _ball_add,
    _ball_bits,
    _ball_div,
    _ball_mul,
    _ball_pi,
    _ball_round,
    _ball_scale,
    _ball_sqrt,
    lambert_w_minus1,
)


class BoundsReport(NamedTuple):
    """One (lower, upper) enclosure for R_N(n), tagged with its origin."""

    n: int
    N: int
    lower: object
    upper: object
    theorem: str
    valid: bool
    C: Optional[object] = None


def _ball_enclosure(N: int, below: tuple, above: tuple) -> tuple:
    """The balls (lower, upper) of -below < R_N(n) < above for even N, and of the mirror -above < R_N(n) < below for odd N.

    Every family encloses R_N(n) between an exponentially small or algebraic
    part and the first omitted term (or its envelope), on the side of c_N's
    sign (-1)^N, so each passes only its even-N pair.
    """
    return ((-below[0], below[1]), above) if N % 2 == 0 else ((-above[0], above[1]), below)


def _ball_exponential(n: int, N: int, above: tuple, bits: int) -> tuple:
    """T1's or T2's balls (lower, upper) at 2^-bits: E(n) below and ``above``, the term or its envelope, + E(n) above."""
    E = _ball_error_term(n, bits)
    return _ball_enclosure(N, E, _ball_add(above, E))


def _report(theorem: str, n: int, N: int, ends, bits: int, ctx: PrecisionContext, valid=True, C=None) -> BoundsReport:
    """The report whose lower and upper ends are the balls ``ends(P)``, rounded once to the context from P = bits on."""
    lower, upper = _ball_round(ends, bits, ctx)
    return BoundsReport(n=n, N=N, lower=lower, upper=upper, theorem=theorem, valid=valid, C=C)


def thm1_bounds(n: int, N: int, ctx: PrecisionContext) -> BoundsReport:
    """First-omitted-term enclosure, valid for all n >= 1, N >= 0.

    Even N = 2j:  -E < R_N(n) < c_{2j}/n^j + E
    Odd  N = 2j+1: c_{2j+1}/n^(j+1/2) - E < R_N(n) < E
    with E = exp(-(pi/2) sqrt(2n/3)).
    """
    _check(n, N)
    return _report("T1", n, N, lambda P: _ball_exponential(n, N, _ball_term(n, N, P), P), _per_n_bits(n, ctx), ctx)


def thm2_bounds(n: int, N: int, ctx: PrecisionContext) -> BoundsReport:
    """Coefficient-free enclosure: T1 with c_N relaxed to its proven envelope."""
    _check(n, N)
    power = (24 * n) ** N
    return _report("T2", n, N, lambda P: _ball_exponential(n, N, _ball_envelope(N, power, P), P), _per_n_bits(n, ctx), ctx)


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
    """Purely algebraic enclosure with tunable constant C, an exact rational (decimal or fraction string, int or Fraction).

    Even N = 2j (j >= 1):
        -C sqrt(2j+1)/sqrt(24n)^(2j) < R_N(n)
          < C sqrt(2j+1)/sqrt(24n)^(2j) + envelope of |c_N|/n^j
    Odd N = 2j+1 (j >= 0): mirrored with sqrt(2j+2) and the odd envelope.
    Both ends start where the algebraic part keeps the context's precision.

    Holds once n >= nu_N(C); below the threshold the report is returned with
    valid=False rather than raising, so sweeps can cross the boundary.
    """
    from fractions import Fraction  # here, as T3 alone takes a constant

    _check(n, N)
    if N < 1:
        raise DomainError(f"T3 bounds need N >= 1, got N={N}")
    valid = n >= nu(N, C, ctx)  # nu also rejects C <= 0
    exact = Fraction(C)
    bits = _ball_bits(ctx, exact.numerator**2 * (N + 1), exact.denominator**2 * (24 * n) ** N)
    return _report("T3", n, N, functools.partial(_ball_thm3, n, N, exact), bits, ctx, valid, ctx.real(C))


def _ball_thm3(n: int, N: int, C, bits: int) -> tuple:
    """The balls (lower, upper) of the T3 enclosure at scale 2^-bits, for a rational C > 0.

    The algebraic part C sqrt((N+1)/(24n)^N) is one root ball of
    C^2 (N+1) / (24n)^N, and the envelope shares the integer (24n)^N.
    """
    from fractions import Fraction

    power, C = (24 * n) ** N, Fraction(C)
    algebraic = _ball_sqrt(C.numerator**2 * (N + 1), bits, C.denominator**2 * power)
    return _ball_enclosure(N, algebraic, _ball_add(algebraic, _ball_envelope(N, power, bits)))


def banerjee_bounds(n: int, N: int, ctx: PrecisionContext) -> BoundsReport:
    """Comparison enclosure from the earlier published result (N >= 2).

    Even N = 2j (j >= 1):
        -13 (6/pi)^(2j) sqrt(j+1)/sqrt(24n)^(2j) < R_N(n)
          < 16 (6/pi)^(2j) sqrt(j+1)/sqrt(24n)^(2j)
    Odd N = 2j+1 (j >= 1): constants (-21, 11) with sqrt(j+2).

    Its validity threshold is not computable from the inputs available here,
    so valid is always False; the report exists for width comparisons.
    Both ends start where sqrt(k/(24n)^N), k = j+1 or j+2, keeps the context's precision.
    """
    _check(n, N)
    if N < 2:
        raise DomainError(f"comparison bounds are stated for N >= 2, got N={N}")
    bits = _ball_bits(ctx, N // 2 + 1 + N % 2, (24 * n) ** N)
    return _report("Banerjee", n, N, functools.partial(_ball_comparison, n, N), bits, ctx, valid=False)


def _ball_comparison(n: int, N: int, bits: int) -> tuple:
    """The balls (lower, upper) of the comparison enclosure at scale 2^-bits: its constants times (6/pi)^N sqrt(k/(24n)^N).

    The root is one ball at 2^-bits.  (6/pi)^N is 6 over ``_ball_pi``
    (``_ball_div``) raised to the N-th power by squaring (``_ball_mul``), at
    the scale 2^-c, c = bits less about the bits the root sits below 1 (at
    least _BALL_GUARD), plus bitlen(N) for the N-fold relative error of the
    power: as wide relative to its value as the root.  ``_ball_mul`` of the
    two lands at the root's scale, and each step is a ball helper that proves
    its radius.
    """
    k, power = N // 2 + 1 + N % 2, (24 * n) ** N
    coarse = max(bits - (power.bit_length() - k.bit_length()) // 2, _BALL_GUARD) + N.bit_length()
    ratio = _ball_div((6 << coarse, 0), _ball_pi(coarse), coarse)
    scaled = ratio
    for bit in bin(N)[3:]:
        scaled = _ball_mul(scaled, scaled, coarse)
        if bit == "1":
            scaled = _ball_mul(scaled, ratio, coarse)
    factor = _ball_mul(scaled, _ball_sqrt(k, bits, power), coarse)
    low, high = (-13, 16) if N % 2 == 0 else (-21, 11)
    return _ball_scale(factor, low), _ball_scale(factor, high)
