"""Truncated expansion values and exact remainders.

Writing P(n) = 4*sqrt(3)*n*p(n)*exp(-pi*sqrt(2n/3)) for the normalized
partition number, the remainder after keeping N terms is

    R_N(n) = P(n) - sum_{m=0}^{N-1} c_m / n^(m/2),

computed here from the exact p(n) so that every bound under test is checked
against a value that does not depend on the bounds themselves.  The full
(convergent) series likewise gives the residual error

    r_hat(n) = P(n) - sum_{m=0}^{inf} c_m / n^(m/2)

and the tail mediant theta_N(n) = (full tail) / (first omitted term).

Every value takes one route: an integer ball (the ``_ball_*`` forms, see
``precision``).  P(n), E(n) = exp(-x/2) with x = pi*sqrt(2n/3), and the
prefactor come from one exp per n and scale; the terms c_m/n^(m/2) =
g_m u^m, u = 1/sqrt(24n), and the partial sums S_N up to a K from one
integer pass per (n, K, scale) over the coefficient source's g_m, and the
full sum from one Horner pass, each with its proven radius.  The sweeps decide on these balls, and a returned value is
the real its ball encloses, rounded once to the context by ``_ball_round``.
A ball starts at the scale that fits its value, the context's ball scale
plus about the bits the value sits below 1, and is formed again at twice
the scale while it straddles a rounding boundary, so cancellation costs
time, never digits.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, NamedTuple, Optional

from .coefficients import _SOURCE_FLOOR, _ball_amplitude, _coefficients, _horner
from .errors import DomainError
from .precision import (
    PrecisionContext,
    _ball_add,
    _ball_bits,
    _ball_digits,
    _ball_div,
    _ball_exp,
    _ball_mul,
    _ball_pi,
    _ball_round,
    _ball_scale,
    _ball_sqrt,
)

if TYPE_CHECKING:  # it only annotates arguments here, so bounds and nu load no partitions code
    from .partitions import PartitionTable


class RemainderResult(NamedTuple):
    """One evaluated truncation: p(n) = prefactor * (partial_sum + remainder)."""

    n: int
    N: int
    remainder: object
    partial_sum: object
    prefactor: object
    theta: Optional[object] = None


def _check(n: int, N: Optional[int] = None) -> None:
    """The argument check every public function makes before a cache sees n.

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
    """Digits at which the exponential prefactor leaves ~30 digits of headroom.

    Every value is rounded once from its ball at any digit count; below this
    one a remainder that cancels costs finer scales, not digits.
    """
    _check(n)
    return 30 + math.ceil(math.pi * math.sqrt(2 * n / 3) / math.log(10))


def _series_length(n: int, digits: int) -> int:
    """The first M whose proven tail bound is below 10^-(digits+5).

    With q = sqrt(24n) and A at least the odd (cosh) amplitude of
    ``_ball_envelope``, the upper end of its ball at 2^-64, the envelope gives
    |c_m| / n^(m/2) <= A sqrt(2(m+1)) q^(-m) for every m,
    so the tail after M terms is at most A sqrt(2(M+1)) q^(-M) / (1 - 1/q)^2.
    The terms alternate in sign and shrink, so every partial sum after S_0
    lies in (0, 1] and the cutoff is also relative to the sum.  The bound is
    compared in double-precision logarithms, whose rounding the 1e-6 margin
    dwarfs, and so is A's.  The log bound falls with M and exceeds
    log A' - M log q, A' = A / (1 - 1/q)^2, so the search starts below (log A' - goal) / log q.
    """
    log_q = math.log(24 * n) / 2
    log_scale = math.log(sum(_ball_amplitude(1, 64)) / 2**64) - 2 * math.log(1 - math.exp(-log_q))
    goal = -(digits + 5) * math.log(10) - 1e-6
    M = max(0, math.floor((log_scale - goal) / log_q) - 1)
    while log_scale + math.log(2 * (M + 1)) / 2 - M * log_q >= goal:
        M += 1
    return M


def _decay_bits(n: int) -> int:
    """About how many bits E(n) = e^(-x/2) sits below 1, x / (2 ln 2) rounded up in doubles: it only sets a start scale."""
    return math.ceil(math.pi * math.sqrt(2 * n / 3) / (2 * math.log(2)))


def _per_n_bits(n: int, digits: int) -> int:
    """The scale every value at n starts from, ``_ball_bits(digits)`` + ``_decay_bits(n)``.

    E(n) is the smallest of the values at n but the remainders, which lie
    within E(n) of a term, so each but a cancelled one keeps the context's
    precision here, and all share one exp.
    """
    return _ball_bits(digits) + _decay_bits(n)


@functools.lru_cache(maxsize=4)
def _ball_per_n(n: int, bits: int) -> tuple:
    """(w, E, Q, U) at n and 2^-bits: E(n) = e^(-x/2), Q = sqrt(3) e^-x at 2^-2w and U = floor(2^bits / sqrt(24n)).

    One exp gives D = e^-y, y = pi sqrt(n/6) = x/2, at 2^-w, w = bits + ``_decay_bits(n)`` + bitlen(n) + 8;
    E is D floored to 2^-bits, and Q is D^2, exact at 2^-2w, times ``_ball_sqrt(3, w)``, each step a ball
    helper that proves its radius.  y's radius is under pi + sqrt(n/6) + 3, so D's is under 2^(bitlen(n) + 5),
    and D and Q are known to about 2^-(bits + 2) relative.  D is about 2^-``_decay_bits(n)``, so the exp's
    series runs at about 2^-(bits + bitlen(n) + 8): the decay bits of w cost it nothing.  Memoized per
    (n, scale); p(n) enters later.
    """
    wide = bits + _decay_bits(n) + n.bit_length() + 8
    decay = _ball_exp(_ball_mul(_ball_pi(wide), _ball_sqrt(n, wide, 6), wide), wide)
    square = _ball_mul(_ball_sqrt(3, wide), _ball_mul(decay, decay, 0), wide)
    return wide, _ball_scale(decay, 1, 1 << wide - bits), square, _ball_sqrt(1, bits, 24 * n)[0]


def _ball_error_term(n: int, bits: int) -> tuple:
    """E(n) = e^(-x/2) at scale 2^-bits, from ``_ball_per_n``."""
    return _ball_per_n(n, bits)[1]


@functools.lru_cache(maxsize=4)
def _ball_normalized(n: int, p: int, bits: int) -> tuple:
    """P(n) = 4np sqrt(3) e^-x at scale 2^-bits for p = p(n): Q of ``_ball_per_n`` times 4np, floored by ``_ball_scale``."""
    wide, _, square, _ = _ball_per_n(n, bits)
    return _ball_scale(square, 4 * n * p, 1 << 2 * wide - bits)


@functools.lru_cache(maxsize=4)
def _ball_prefactor(n: int, bits: int) -> tuple:
    """e^x / (4 sqrt(3) n) = 1 / (4n Q) at scale 2^-bits, for Q of ``_ball_per_n``, by ``_ball_div``."""
    wide, _, square, _ = _ball_per_n(n, bits)
    return _ball_div((1 << 2 * wide, 0), _ball_scale(square, 4 * n), bits)


@functools.lru_cache(maxsize=4)
def _ball_pass(n: int, K: int, bits: int) -> tuple:
    """(terms, sums) at n and scale 2^-bits: balls of |c_m| / n^(m/2) for m < K and of S_0..S_K, K >= 1, memoized per (n, K, scale).

    One loop on integers, as c_m / n^(m/2) = g_m u^m with u = 1/sqrt(24n) and
    U = floor(2^bits u).  The powers V_0 = 2^bits, V_m = floor(V_(m-1) U / 2^bits)
    lie in (v_m - 3, v_m], v_m = 2^bits u^m: as V_(m-1) <= 2^bits, the gap is
    u times the last one, plus V_(m-1) (u - U / 2^bits) < 1, plus a floor's
    fraction, so under 2 / (1 - u) < 3 for u <= 1/sqrt(24).  The source
    holds each (G_m, E_m) at its width w_m > bits (see ``coefficients._ball_g``),
    so C_m = floor(G_m / 2^(w_m-bits)) is within
    r = floor(E_m / 2^(w_m-bits)) + 2 of 2^bits g_m (``_ball_scale``), and
    T_m = floor(C_m V_m / 2^bits) within r + 3 (|C_m| + r) / 2^bits + 1 of
    2^bits g_m u^m: the radius is that with its middle part floored, plus 1.
    T_0 = 2^bits and S_0 = 0 are exact, S_(m+1) = S_m + T_m adds the radii
    (``_ball_add``), and dropping a term's sign moves no point farther from
    its midpoint.
    """
    entries = _coefficients(K - 1, _ball_digits(bits))[1]
    U, power = _ball_sqrt(1, bits, 24 * n)[0], 1 << bits
    terms, sums = [(power, 0)], [(0, 0), (power, 0)]
    for m in range(1, K):
        power = power * U >> bits
        value, radius, width = entries[m]
        g, r = value >> width - bits, (radius >> width - bits) + 2
        term, radius = g * power >> bits, r + ((abs(g) + r) * 3 >> bits) + 2
        terms.append((abs(term), radius))
        sums.append((sums[-1][0] + term, sums[-1][1] + radius))
    return tuple(terms), tuple(sums)


@functools.lru_cache(maxsize=32)
def _ball_sum(n: int, N: Optional[int], bits: int) -> tuple:
    """S_N at scale 2^-bits, read from ``_ball_pass``, or for N None the full sum.

    A pass read here or by ``_ball_term`` holds at least the _SOURCE_FLOOR
    terms the source always holds, so every N below that at one (n, scale)
    reads one pass.

    The full sum is ``_horner`` over the M = ``_series_length(n, d + 5)``
    terms at d = ``_ball_digits(bits)`` digits, with U of ``_ball_per_n``:
    within 7 units of 2^bits sum_m x_m u^m for the source's values x_m.
    Each x_m is within 10^-(d+10) |g_m| of g_m (see ``_horner``) and
    sum_m |g_m| u^m = sum_m |c_m| n^(-m/2) < 1 + 0.67 < 2, so that is within
    s = ceil(2^(bits+1) / 10^(d+10)) units of 2^bits S_M, and the tail after
    S_M, under 10^-(d+10), adds under s more: the radius is 7 + 2s.
    """
    if N is not None:
        return _ball_pass(n, max(N, _SOURCE_FLOOR), bits)[1][N]
    digits = _ball_digits(bits)
    M = _series_length(n, digits + 5)
    return _horner(M, bits, _ball_per_n(n, bits)[3], digits), 7 - 2 * (-(2 << bits) // 10 ** (digits + 10))


def _ball_term(n: int, N: int, bits: int) -> tuple:
    """|c_N| / n^(N/2) at scale 2^-bits, from ``_ball_pass`` as ``_ball_sum`` reads it."""
    return _ball_pass(n, max(N + 1, _SOURCE_FLOOR), bits)[0][N]


def _ball_remainder(n: int, total: tuple, p: int, bits: int) -> tuple:
    """P(n) minus the ball ``total`` of a sum at scale 2^-bits, for p = p(n): R_N(n) for S_N, r_hat(n) for the full sum."""
    return _ball_add(_ball_normalized(n, p, bits), _ball_scale(total, -1))


def _ball_theta(n: int, N: int, bits: int) -> tuple:
    """theta_N(n) = (full sum - S_N) / (c_N / n^(N/2)) at scale 2^-bits.

    c_N has the sign (-1)^N, so theta is (-1)^N (full sum - S_N) over the
    ball of |c_N| / n^(N/2) from ``_ball_term``, by ``_ball_div``.
    """
    tail = _ball_add(_ball_sum(n, None, bits), _ball_scale(_ball_sum(n, N, bits), -1))
    return _ball_div(_ball_scale(tail, (-1) ** N), _ball_term(n, N, bits), bits)


def remainder_exact(
    n: int,
    N: int,
    table: PartitionTable,
    ctx: PrecisionContext,
    include_theta: bool = False,
) -> RemainderResult:
    """Exact remainder after N retained terms, solved from the exact p(n).

    Each field is its ball rounded once to the context, from n's scale
    (``_per_n_bits``) or, with theta, from where c_N / n^(N/2) (about
    2^-(N log2(24n) / 2)) keeps the context's precision too, if finer.  A
    remainder that cancels is formed at finer scales until it rounds.
    """
    _check(n, N)
    p, bits = table.p(n), _per_n_bits(n, ctx.digits)
    if include_theta:
        bits = max(bits, _ball_bits(ctx.digits) + N * (24 * n).bit_length() // 2)

    def balls(P):
        # theta first: its full sum asks for the last coefficient, so the source grows once
        theta = [_ball_theta(n, N, P)] if include_theta else []
        partial = _ball_sum(n, N, P)
        return [*theta, _ball_remainder(n, partial, p, P), partial, _ball_prefactor(n, P)]

    *theta, remainder, partial_sum, prefactor = _ball_round(balls, bits, ctx)
    return RemainderResult(n, N, remainder, partial_sum, prefactor, theta[0] if theta else None)


def full_sum(n: int, ctx: PrecisionContext):
    """sum_{m=0}^{inf} c_m / n^(m/2), rounded once to the context from its ball."""
    _check(n)
    return _ball_round(lambda P: [_ball_sum(n, None, P)], _per_n_bits(n, ctx.digits), ctx)[0]


def r_hat(n: int, table: PartitionTable, ctx: PrecisionContext):
    """Residual of the full convergent series against the normalized p(n), rounded once to the context."""
    _check(n)
    p = table.p(n)
    return _ball_round(lambda P: [_ball_remainder(n, _ball_sum(n, None, P), p, P)], _per_n_bits(n, ctx.digits), ctx)[0]


def exp_error_term(n: int, ctx: PrecisionContext):
    """exp(-(pi/2) * sqrt(2n/3)): the exponentially small part of every bound, rounded once to the context.

    It is D of ``_ball_per_n``, so the T1 and T2 bounds and the remainders
    at the same n share its one exp.
    """
    _check(n)
    return _ball_round(lambda P: [_ball_error_term(n, P)], _per_n_bits(n, ctx.digits), ctx)[0]
