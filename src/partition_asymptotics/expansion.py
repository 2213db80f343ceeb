"""Truncated expansion values and exact remainders.

Writing P(n) = 4*sqrt(3)*n*p(n)*exp(-pi*sqrt(2n/3)) for the normalized
partition number, the remainder after keeping N terms is

    R_N(n) = P(n) - sum_{m=0}^{N-1} c_m / n^(m/2),

computed here from the exact p(n) so that every bound under test is checked
against a value that does not depend on the bounds themselves.  The full
(convergent) series likewise gives the residual error

    r_hat(n) = P(n) - sum_{m=0}^{inf} c_m / n^(m/2)

and the tail mediant theta_N(n) = (full tail) / (first omitted term).

Every S_N, and so the full sum, theta_N and r_hat, takes one route: an
integer Horner pass over the coefficient source in fixed point, with guard
bits taken from its proven error bound, rounded once to nearest.  A single
term c_m/n^(m/2), which needs relative rather than absolute accuracy, is
c_m times the correctly rounded root sqrt(1/n^m).

The sweeps read the same quantities as integer balls (the ``_ball_*``
forms): P(n) and E(n) from one exp per n, S_N and the full sum from the same
Horner pass with its proven radius.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Optional

from mpmath.libmp import from_man_exp, round_nearest, to_float

from .coefficients import COEFF_CAP, _ball_c, _even_odd_prefactor, _horner, _sqrt_ratio, coeff_c
from .errors import DomainError, PrecisionError, PrecisionWarning
from .partitions import PartitionTable, partition_pentagonal
from .precision import (
    PrecisionContext,
    _ball_add,
    _ball_digits,
    _ball_exp,
    _ball_mul,
    _ball_pi,
    _ball_scale,
    _ball_sqrt,
    _ball_sqrt3,
)

# remainder values are trusted only down to this many digits above the noise
# floor; below it the subtraction has cancelled too much to report a result
_MIN_SIG_DIGITS = 10
_ERROR_MARGIN_DIGITS = 12
_LOG10_2 = math.log10(2)
# Bits of the fixed point beyond the precision: _horner errs by under 3N units
# and N <= COEFF_CAP, so 3N * 2^-(prec + _GUARD_BITS) < 2^-(prec + 4).
_GUARD_BITS = (3 * COEFF_CAP).bit_length() + 4


@dataclass(frozen=True)
class RemainderResult:
    """One evaluated truncation: p(n) = prefactor * (partial_sum + remainder)."""

    n: int
    N: int
    remainder: object
    partial_sum: object
    prefactor: object
    theta: Optional[object] = None


class _PerN:
    """The reals at one n and precision that every evaluation at that n shares.

    Each is formed on first use and kept: x = pi*sqrt(2n/3), the prefactor
    e^x/(4*sqrt(3)*n) and e^(-x/2); the fixed point (P, U) of the sums and
    the full sum; and P(n) for the last p(n) it was given.  A partial sum or
    a term is not kept: each is one integer Horner pass or one integer root,
    rounded once.  The last P(n) is replaced by one new pair, never changed
    in place, so threads that share a record read no half-made value.
    """

    def __init__(self, n: int, ctx: PrecisionContext):
        self.n, self.ctx = n, ctx
        self._normalized = None

    @functools.cached_property
    def x(self):
        """pi*sqrt(2n/3), the exponent of the growth of p(n)."""
        mp = self.ctx.mp
        return mp.pi * mp.sqrt(mp.mpf(2 * self.n) / 3)

    @functools.cached_property
    def prefactor(self):
        """exp(pi*sqrt(2n/3)) / (4*sqrt(3)*n)."""
        return self.ctx.mp.exp(self.x) / (_four_sqrt3(self.ctx) * self.n)

    @functools.cached_property
    def error_term(self):
        """exp(-(pi/2)*sqrt(2n/3))."""
        return self.ctx.mp.exp(-self.x / 2)

    def normalized(self, p: int):
        """P(n) = 4*sqrt(3)*n*p*exp(-x), the quantity the series approximates, for p = p(n).

        Kept as one pair (p, P(n)) for the last p only and formed again for
        any other, so two tables that disagree at n each get their own P(n).
        """
        kept = self._normalized
        if kept is None or kept[0] != p:
            kept = self._normalized = (p, _four_sqrt3(self.ctx) * self.n * p * self.ctx.mp.exp(-self.x))
        return kept[1]

    def term(self, m: int):
        """c_m / n^(m/2), with sqrt(1/n^m) correctly rounded by ``_sqrt_ratio``."""
        return coeff_c(m, self.ctx) * _sqrt_ratio(1, self.n**m, self.ctx)

    @functools.cached_property
    def scale(self):
        """(P, U): the fixed point 2^P of every S_N, P = prec + _GUARD_BITS, and U = floor(2^P/sqrt(n))."""
        P = self.ctx.mp.prec + _GUARD_BITS
        return P, math.isqrt((1 << 2 * P) // self.n)

    def partial_sum(self, N: int):
        """S_N = sum_{m<N} c_m / n^(m/2), from one fixed-point Horner pass rounded once to nearest.

        ``_horner`` is within 3N units of 2^P times the sum of the source's
        values, which lies within 10^-(digits+9) of S_N.  Every S_N with
        N >= 1 lies in [1/2, 1] (the terms alternate in sign and shrink, and
        S_2 = 1 + c_1/sqrt(n) > 1/2), so its ulp is at least 2^-prec, and
        _GUARD_BITS keep the error before rounding under 1/8 ulp.  S_0 = 0
        and S_1 = 1 exactly.
        """
        P, U = self.scale
        acc = _horner(N, P, U, self.ctx.digits)
        return self.ctx.mp.make_mpf(from_man_exp(acc, -P, self.ctx.mp.prec, round_nearest))

    @functools.cached_property
    def full_sum(self):
        """S_M for M = _series_length(n, ctx)."""
        return self.partial_sum(_series_length(self.n, self.ctx))

    def theta(self, N: int, partial):
        """(full_sum - S_N) / (c_N / n^(N/2)), for partial = S_N."""
        return (self.full_sum - partial) / self.term(N)


# Every sweep finishes one n before it moves to the next, and the reference
# tables alternate between two n, so two records cover all the reuse there is.
@functools.lru_cache(maxsize=2)
def _per_n(n: int, ctx: PrecisionContext) -> _PerN:
    return _PerN(n, ctx)


@functools.lru_cache(maxsize=None)
def _four_sqrt3(ctx: PrecisionContext):
    """4*sqrt(3), the constant of P(n) and of the prefactor, formed once per context."""
    return 4 * ctx.mp.sqrt(3)


def _check(n: int, N: Optional[int] = None) -> None:
    """The argument check every public function makes before a cache or warning sees n.

    A function of n alone needs n >= 1; one of (n, N) needs N >= 0 as well.
    """
    if N is None:
        if n < 1:
            raise DomainError(f"n must be positive, got {n}")
    elif N < 0:
        raise DomainError(f"N must be nonnegative, got {N}")
    elif n < 1:
        raise DomainError(f"need n >= 1 and N >= 0, got n={n}, N={N}")


def recommended_digits(n: int) -> int:
    """Digits needed so the exponential prefactor leaves ~30 digits of headroom."""
    _check(n)
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

    P(n), the prefactor and the full sum are read from the per-n record, so
    they are formed once per n however many N are asked for; S_N is one
    Horner pass, shared with θ.  Raises PrecisionError
    when the subtraction cancels so much that fewer than 10 significant digits
    survive at the context precision.
    """
    _check(n, N)
    _warn_if_low_precision(n, ctx)
    per = _per_n(n, ctx)
    if include_theta:
        per.full_sum  # first: it asks for the last coefficient, so the source grows once
    lhs, partial = per.normalized(table.p(n)), per.partial_sum(N)
    return RemainderResult(
        n=n,
        N=N,
        remainder=_subtract(lhs, partial, ctx, f"remainder_exact(n={n}, N={N})"),
        partial_sum=partial,
        prefactor=per.prefactor,
        theta=per.theta(N, partial) if include_theta else None,
    )


def full_sum(n: int, ctx: PrecisionContext):
    """sum_{m=0}^{inf} c_m / n^(m/2), summed to context precision.

    The partial sum of the first ``_series_length(n, ctx)`` terms, kept in
    the per-n record.
    """
    _check(n)
    return _per_n(n, ctx).full_sum


def _series_length(n: int, ctx: PrecisionContext) -> int:
    """The first M whose proven tail bound is below 10^-(digits+5).

    With q = sqrt(24n) and A the odd (cosh) amplitude of ``coeff_envelope``,
    read from ``_even_odd_prefactor`` so that no envelope triple is formed,
    the envelope gives |c_m| / n^(m/2) <= A sqrt(2(m+1)) q^(-m) for every m,
    so the tail after M terms is at most A sqrt(2(M+1)) q^(-M) / (1 - 1/q)^2.
    The terms alternate in sign and shrink, so every partial sum after S_0
    lies in (0, 1] and the cutoff is also relative to the sum.  The bound is
    compared in double-precision logarithms, whose rounding the 1e-6 margin
    dwarfs.
    """
    log_q = math.log(24 * n) / 2
    amplitude = to_float(_even_odd_prefactor(ctx.mp.prec)[1], rnd=round_nearest)
    log_scale = math.log(amplitude) - 2 * math.log(1 - math.exp(-log_q))
    goal = -(ctx.digits + 5) * math.log(10) - 1e-6
    M = 0
    while log_scale + math.log(2 * (M + 1)) / 2 - M * log_q >= goal:
        M += 1
    return M


@functools.lru_cache(maxsize=16)
def _ball_context(bits: int) -> tuple:
    """(ctx, source, tail) for sums at scale 2^-bits, with ctx the context of d = ``_ball_digits(bits)`` digits.

    source = ceil(2^(bits+1) / 10^(d+10)) bounds, in units of 2^-bits, the
    source's share of the error of any S_N or full sum: each of its values
    x_m is within 10^-(d+10) |c_m| of c_m (see ``_horner``), and
    sum_m |c_m| n^(-m/2) <= 1 + 0.67 < 2.  tail = ceil(2^bits / 10^(d+5))
    bounds the tail after the ``_series_length(n, ctx)`` terms of a full sum.
    """
    digits = _ball_digits(bits)
    return PrecisionContext(digits), -(-(2 << bits) // 10 ** (digits + 10)), -(-(1 << bits) // 10 ** (digits + 5))


def _ball_per_n(n: int, p: int, bits: int, wide: int) -> tuple:
    """(P(n), E(n), U) at scale 2^-bits for p = p(n), from one exp at scale 2^-wide; U = floor(2^bits / sqrt(n)).

    The exp is E_w = e^-y for the ball y = pi sqrt(n/6) = x/2 at 2^-wide,
    so e^-x = E_w^2 and P(n) = 4np sqrt(3) E_w^2; E(n) and P(n) are E_w and
    that product floored to 2^-bits.  Each step is a ball helper whose
    docstring proves its radius, so both balls enclose their values.  The
    width keeps P(n) tight: for wide >= bits + bitlen(4np), 4np < 2^(wide-bits),
    so the scaling by 4np and the floor leave floor(4np e / 2^(wide-bits)) + 2
    <= e + 2 units, with e the radius of sqrt(3) E_w^2.  A sweep takes one
    wide for all its n, so that pi and sqrt(3) are formed once.
    """
    decay = _ball_exp(_ball_mul(_ball_pi(wide), _ball_sqrt(n, wide, 6), wide), wide)
    normalized = _ball_scale(_ball_mul(_ball_sqrt3(wide), _ball_mul(decay, decay, wide), wide), 4 * n * p)
    down = 1 << wide - bits
    return _ball_scale(normalized, 1, down), _ball_scale(decay, 1, down), _ball_sqrt(1, bits, n)[0]


def _ball_sum(n: int, N: Optional[int], U: int, bits: int) -> tuple:
    """S_N at scale 2^-bits, or for N None the full sum, for U = floor(2^bits / sqrt(n)).

    The midpoint is ``_horner`` at d = ``_ball_digits(bits)`` digits, within
    3N units of 2^bits times the sum of the source's values, which is within
    ``source`` units of 2^bits S_N (see ``_ball_context``).  The full sum is
    S_M for M = ``_series_length(n, ctx)``, whose tail adds ``tail`` units.
    So the radius is 3N + source, plus tail for the full sum.
    """
    ctx, source, tail = _ball_context(bits)
    if N is None:
        N, source = _series_length(n, ctx), source + tail
    return _horner(N, bits, U, ctx.digits), 3 * N + source


def _ball_term(n: int, N: int, bits: int) -> tuple:
    """|c_N| / n^(N/2) at scale 2^-bits: |c_N| times the root ball of 1 / n^N.

    |c_N| is ``_ball_c`` with its midpoint's sign dropped, which moves no
    point farther from it than the radius.
    """
    middle, radius = _ball_c(N, bits)
    return _ball_mul((abs(middle), radius), _ball_sqrt(1, bits, n**N), bits)


def _ball_memo(n_top: int):
    """A memo of ``_ball_per_n`` at (n, P) for 1 <= n <= n_top, from one table and one exp width.

    The exp runs at P + bitlen(4 n_top p(n_top)), enough for every n up to
    n_top (p increases); it keeps n - 1 and n, at one or two scales.
    """
    table = partition_pentagonal(n_top)
    extra = (4 * n_top * table.p(n_top)).bit_length()

    @functools.lru_cache(maxsize=4)
    def balls(n, P):
        return _ball_per_n(n, table.p(n), P, P + extra)

    return balls


def _ball_remainder(per_n, n: int, N: Optional[int], P: int) -> tuple:
    """R_N(n) = P(n) - S_N, or r_hat(n) for N None, as a ball at scale 2^-P from the memo of ``_ball_memo``."""
    normalized, _, U = per_n(n, P)
    return _ball_add(normalized, _ball_scale(_ball_sum(n, N, U, P), -1))


def r_hat(n: int, table: PartitionTable, ctx: PrecisionContext):
    """Residual of the full convergent series against the normalized p(n)."""
    _check(n)
    _warn_if_low_precision(n, ctx)
    per = _per_n(n, ctx)
    return _subtract(per.normalized(table.p(n)), per.full_sum, ctx, f"r_hat(n={n})")


def exp_error_term(n: int, ctx: PrecisionContext):
    """exp(-(pi/2) * sqrt(2n/3)): the exponentially small part of every bound.

    Kept in the per-n record, like :func:`full_sum`: the T1 and T2 bounds take
    it once for every N at the same n.
    """
    _check(n)
    return _per_n(n, ctx).error_term
