"""Truncated expansion values and exact remainders.

Writing P(n) = 4*sqrt(3)*n*p(n)*exp(-pi*sqrt(2n/3)) for the normalized
partition number, the remainder after keeping N terms is

    R_N(n) = P(n) - sum_{m=0}^{N-1} c_m / n^(m/2),

computed here from the exact p(n) so that every bound under test is checked
against a value that does not depend on the bounds themselves.  The full
(convergent) series likewise gives the residual error

    r_hat(n) = P(n) - sum_{m=0}^{inf} c_m / n^(m/2)

and the tail mediant theta_N(n) = (full tail) / (first omitted term).
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Optional

from .coefficients import coeff_c, coeff_envelope
from .errors import PrecisionError, PrecisionWarning
from .partitions import PartitionTable
from .precision import PrecisionContext

# remainder values are trusted only down to this many digits above the noise
# floor; below it the subtraction has cancelled too much to report a result
_MIN_SIG_DIGITS = 10
_ERROR_MARGIN_DIGITS = 12
_LOG10_2 = math.log10(2)


@dataclass(frozen=True)
class RemainderResult:
    """One evaluated truncation: p(n) = prefactor * (partial_sum + remainder)."""

    n: int
    N: int
    remainder: object
    partial_sum: object
    prefactor: object
    theta: Optional[object] = None


def mu(n: int, ctx: PrecisionContext):
    """(pi/6) * sqrt(24n - 1)."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    mp = ctx.mp
    return mp.pi / 6 * mp.sqrt(mp.mpf(24 * n - 1))


def _exponent(n: int, ctx: PrecisionContext):
    """pi*sqrt(2n/3), the exponent of the growth of p(n)."""
    mp = ctx.mp
    return mp.pi * mp.sqrt(mp.mpf(2 * n) / 3)


def prefactor(n: int, ctx: PrecisionContext):
    """exp(pi*sqrt(2n/3)) / (4*sqrt(3)*n)."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    mp = ctx.mp
    return mp.exp(_exponent(n, ctx)) / (4 * mp.sqrt(3) * n)


def _term(m: int, root_n, ctx: PrecisionContext):
    """c_m / n^(m/2), the m-th term of the expansion, given root_n = sqrt(n)."""
    return coeff_c(m, ctx) / root_n**m


def _partial_sums(n: int, ctx: PrecisionContext):
    """The running partial sums S_0 = 0, S_1, S_2, ... at n (unbounded)."""
    mp = ctx.mp
    root_n = mp.sqrt(mp.mpf(n))
    total = mp.mpf(0)
    for m in itertools.count():
        yield total
        total += _term(m, root_n, ctx)


def partial_sum(n: int, N: int, ctx: PrecisionContext):
    """sum_{m=0}^{N-1} c_m / n^(m/2); zero when N == 0."""
    if n < 1 or N < 0:
        raise ValueError(f"need n >= 1 and N >= 0, got n={n}, N={N}")
    return next(itertools.islice(_partial_sums(n, ctx), N, None))


def normalized_partition(n: int, table: PartitionTable, ctx: PrecisionContext):
    """4*sqrt(3)*n*p(n)*exp(-pi*sqrt(2n/3)), the quantity the series approximates."""
    mp = ctx.mp
    return 4 * mp.sqrt(3) * n * table.p(n) * mp.exp(-_exponent(n, ctx))


def recommended_digits(n: int) -> int:
    """Digits needed so the exponential prefactor leaves ~30 digits of headroom."""
    return 30 + math.ceil(math.pi * math.sqrt(2 * n / 3) / math.log(10))


def _warn_if_low_precision(n: int, ctx: PrecisionContext) -> None:
    needed = recommended_digits(n)
    if ctx.digits < needed:
        warnings.warn(
            f"digits={ctx.digits} is below the recommended {needed} for n={n}; "
            "cancellation may leave few significant digits",
            PrecisionWarning,
            stacklevel=3,
        )


def _subtract(lhs, series, ctx: PrecisionContext, what: str):
    """lhs - series, rejected when fewer than _MIN_SIG_DIGITS significant digits survive."""
    result = lhs - series
    if result == 0:
        raise PrecisionError(f"{what}: complete cancellation at digits={ctx.digits}")
    mp = ctx.mp
    # |x| < 2^mag(x) <= 2|x|, so fewer than ``bound`` digits were lost; a
    # result that keeps a digit to spare even then needs no logarithm
    bound = (max(mp.mag(lhs), mp.mag(series), 1) - mp.mag(result) + 1) * _LOG10_2
    if ctx.digits - _ERROR_MARGIN_DIGITS - bound >= _MIN_SIG_DIGITS + 1:
        return result
    scale = max(abs(lhs), abs(series), mp.mpf(1))
    lost = float(mp.log10(scale / abs(result)))
    remaining = ctx.digits - _ERROR_MARGIN_DIGITS - lost
    if remaining < _MIN_SIG_DIGITS:
        raise PrecisionError(
            f"{what}: cancellation leaves ~{remaining:.1f} significant digits "
            f"at digits={ctx.digits}; raise the context precision"
        )
    return result


def remainder_exact(
    n: int,
    N: int,
    table: PartitionTable,
    ctx: PrecisionContext,
    include_theta: bool = False,
) -> RemainderResult:
    """Exact remainder after N retained terms, solved from the exact p(n).

    Raises PrecisionError when the subtraction cancels so much that fewer
    than 10 significant digits survive at the context precision.
    """
    if N < 0:
        raise ValueError(f"N must be nonnegative, got {N}")
    _warn_if_low_precision(n, ctx)
    lhs = normalized_partition(n, table, ctx)
    partial = partial_sum(n, N, ctx)
    return RemainderResult(
        n=n,
        N=N,
        remainder=_subtract(lhs, partial, ctx, f"remainder_exact(n={n}, N={N})"),
        partial_sum=partial,
        prefactor=prefactor(n, ctx),
        theta=_theta(n, N, partial, ctx) if include_theta else None,
    )


def remainder_row(n: int, N_max: int, table: PartitionTable, ctx: PrecisionContext):
    """Yield remainder_exact(n, N, table, ctx) for N = 0..N_max, bit for bit.

    P(n) and the prefactor are evaluated once and the partial sums accumulate
    term by term.  Each entry is guarded against cancellation as it is
    yielded, so a PrecisionError arrives at the first N that remainder_exact
    rejects and no earlier.
    """
    if n < 1 or N_max < 0:
        raise ValueError(f"need n >= 1 and N_max >= 0, got n={n}, N_max={N_max}")
    _warn_if_low_precision(n, ctx)
    lhs = normalized_partition(n, table, ctx)
    factor = prefactor(n, ctx)
    for N, partial in zip(range(N_max + 1), _partial_sums(n, ctx)):
        remainder = _subtract(lhs, partial, ctx, f"remainder_row(n={n}, N={N})")
        yield RemainderResult(n=n, N=N, remainder=remainder, partial_sum=partial, prefactor=factor)


@functools.lru_cache(maxsize=None)
def full_sum(n: int, ctx: PrecisionContext):
    """sum_{m=0}^{inf} c_m / n^(m/2), summed to context precision.

    The partial sum of the first ``_series_length(n, ctx)`` terms, memoized
    per (n, digits) since there is one context per digit count.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return partial_sum(n, _series_length(n, ctx), ctx)


def _series_length(n: int, ctx: PrecisionContext) -> int:
    """The first M whose proven tail bound is below 10^-(digits+5).

    With q = sqrt(24n) and A the odd (cosh) amplitude of ``coeff_envelope``,
    the envelope gives |c_m| / n^(m/2) <= A sqrt(2(m+1)) q^(-m) for every m,
    so the tail after M terms is at most A sqrt(2(M+1)) q^(-M) / (1 - 1/q)^2.
    The terms alternate in sign and shrink, so every partial sum after S_0
    lies in (0, 1] and the cutoff is also relative to the sum.  The bound is
    compared in double-precision logarithms, whose rounding the 1e-6 margin
    dwarfs.
    """
    log_q = math.log(24 * n) / 2
    log_scale = math.log(coeff_envelope(1, ctx)[0]) - 2 * math.log(1 - math.exp(-log_q))
    goal = -(ctx.digits + 5) * math.log(10) - 1e-6
    M = 0
    while log_scale + math.log(2 * (M + 1)) / 2 - M * log_q >= goal:
        M += 1
    return M


def theta(n: int, N: int, ctx: PrecisionContext):
    """Tail mediant: (sum_{m>=N} c_m/n^(m/2)) / (c_N/n^(N/2)); lies in (0, 1)."""
    if n < 1 or N < 0:
        raise ValueError(f"need n >= 1 and N >= 0, got n={n}, N={N}")
    return _theta(n, N, partial_sum(n, N, ctx), ctx)


def _theta(n: int, N: int, partial, ctx: PrecisionContext):
    """theta_N(n) from the partial sum S_N already formed at n."""
    mp = ctx.mp
    return (full_sum(n, ctx) - partial) / _term(N, mp.sqrt(mp.mpf(n)), ctx)


def r_hat(n: int, table: PartitionTable, ctx: PrecisionContext):
    """Residual of the full convergent series against the normalized p(n)."""
    _warn_if_low_precision(n, ctx)
    lhs = normalized_partition(n, table, ctx)
    return _subtract(lhs, full_sum(n, ctx), ctx, f"r_hat(n={n})")


def t_bound_full(n: int, ctx: PrecisionContext):
    """Five-term envelope for the residual source term, times e^(-mu/2).

    [ 1/sqrt(2) + (12*2^(1/3) - sqrt(2))/mu + (mu^2/2^(2/3) - 12*2^(1/3)) e^(-mu/2)
      + (1/sqrt(2) + (2 - 12*2^(1/3))/mu) e^(-mu) + (1 + 1/mu) e^(-3mu/2) ] * e^(-mu/2)
    """
    mp = ctx.mp
    m = mu(n, ctx)
    twelve_cbrt2 = 12 * mp.cbrt(2)
    inv_sqrt2 = 1 / mp.sqrt(2)
    bracket = (
        inv_sqrt2
        + (twelve_cbrt2 - mp.sqrt(2)) / m
        + (m**2 / mp.cbrt(4) - twelve_cbrt2) * mp.exp(-m / 2)
        + (inv_sqrt2 + (2 - twelve_cbrt2) / m) * mp.exp(-m)
        + (1 + 1 / m) * mp.exp(-3 * m / 2)
    )
    return bracket * mp.exp(-m / 2)


def t_bound_simple_bracket(n: int, ctx: PrecisionContext):
    """1/sqrt(2) + 14/mu + ((2/3) mu^2 - 13) e^(-mu/2); decreasing for n >= 8."""
    mp = ctx.mp
    m = mu(n, ctx)
    return 1 / mp.sqrt(2) + 14 / m + (mp.mpf(2) / 3 * m**2 - 13) * mp.exp(-m / 2)


def t_bound_simple(n: int, ctx: PrecisionContext):
    """Coarser envelope: t_bound_simple_bracket(n) * e^(-mu/2)."""
    return t_bound_simple_bracket(n, ctx) * ctx.mp.exp(-mu(n, ctx) / 2)


@functools.lru_cache(maxsize=None)
def exp_error_term(n: int, ctx: PrecisionContext):
    """exp(-(pi/2) * sqrt(2n/3)): the exponentially small part of every bound.

    Memoized per (n, digits), like :func:`full_sum`: the T1 and T2 bounds
    take it once for every N at the same n.
    """
    return ctx.mp.exp(-_exponent(n, ctx) / 2)
