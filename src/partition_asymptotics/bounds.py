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
``_ball_round``, from the scale that fits the end.  T3's threshold nu is an
exact integer search on balls that takes no context, so every family accepts
any context ``_ball_round`` does.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Optional

from .coefficients import _ball_envelope
from .errors import DomainError
from .expansion import _ball_error_term, _ball_term, _check, _per_n_bits
from .precision import (
    _BALL_GUARD,
    PrecisionContext,
    _ball_add,
    _ball_bits,
    _ball_decide,
    _ball_div,
    _ball_exp,
    _ball_ln2,
    _ball_log,
    _ball_mul,
    _ball_pi,
    _ball_round,
    _ball_scale,
    _ball_sign,
    _ball_sqrt,
    _root_below,
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
    return _report("T1", n, N, lambda P: _ball_exponential(n, N, _ball_term(n, N, P), P), _per_n_bits(n, ctx.digits), ctx)


def thm2_bounds(n: int, N: int, ctx: PrecisionContext) -> BoundsReport:
    """Coefficient-free enclosure: T1 with c_N relaxed to its proven envelope."""
    _check(n, N)
    power = (24 * n) ** N
    return _report("T2", n, N, lambda P: _ball_exponential(n, N, _ball_envelope(N, power, P), P), _per_n_bits(n, ctx.digits), ctx)


def _constant(C):
    """C as an exact Fraction, from a decimal or fraction string, an int, a float, a Fraction or an mpmath float."""
    from fractions import Fraction  # here, as only nu and T3 take a constant

    try:
        raw = getattr(C, "_mpf_", None)  # an mpmath float (sign, man, exp, bc) is exactly (-1)^sign man 2^exp
        if raw is not None and (raw[1] or not raw[2]):  # but not inf or nan, which have man = 0 and exp != 0
            return (-1) ** raw[0] * raw[1] * Fraction(2) ** raw[2]
        return Fraction(C)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise DomainError(f"cannot interpret {C!r} as a real number") from None


@functools.lru_cache(maxsize=None)
def nu(N: int, C) -> int:
    """Smallest n from which the T3 bounds with constant C hold:

        nu_N(C) = ceil( (3/2) * ( (2N/pi) * W_-1(-(pi/(12N)) (C sqrt(N+1))^(1/N)) )^2 ),

    found as an exact integer, with no Lambert W.  With x(n) = pi sqrt(2n/3)
    and C = p/q, it is the smallest integer n with x(n) > 2N and
    (24n)^N q^2 e^-x(n) < p^2 (N+1): the square of
    x^N e^(-x/2) <= (pi/6)^N C sqrt(N+1) with the powers of pi cancelled,
    whose left side decreases once x > 2N, on W_-1's branch.  Neither side
    can equal the other (e^(pi sqrt(2n/3)) is transcendental), so each
    comparison, taken in logarithms so that its balls stay narrow at any N,
    is decided on balls by ``_ball_decide``; a double-precision root is the
    first n tried, and the search steps from it to the n that holds where
    n - 1 does not.

    Raises DomainError when no threshold exists, that is when
    p^2 (N+1) pi^(2N) > q^2 (12N)^(2N) e^(-2N) (W_-1's argument is below
    -1/e), showing that argument as mpmath's nstr(x, 15) does.  It returns an
    integer and takes no context; results are cached per (N, C), so C must be hashable.
    """
    if N < 1:
        raise DomainError(f"N must be positive, got {N}")
    exact = _constant(C)
    if exact <= 0:
        raise DomainError(f"C must be positive, got {C!r}")
    p, q = exact.numerator, exact.denominator
    if _ball_decide(functools.partial(_ball_nu_exists, N, p, q), 64)[0] > 0:
        argument = _ball_nstr(functools.partial(_ball_w_argument, N, p, q))
        raise DomainError(f"nu(N={N}, C={C!r}): lambert_w_minus1 requires x >= -1/e, got -{argument}")

    def holds(n):
        return max(_ball_decide(functools.partial(_ball_nu_signs, N, p, q, n), 64)) < 0

    n = _nu_guess(N, p, q)
    if holds(n):
        while n > 1 and holds(n - 1):  # n = 0 never holds (x(0) = 0), and ln 24n needs n >= 1
            n -= 1
        return n
    n += 1
    while not holds(n):
        n += 1
    return n


def _nu_guess(N: int, p: int, q: int) -> int:
    """nu_N(p/q) in double precision: x = 2N u with ln u - u = c, c = ln((pi/6)^N C sqrt(N+1)) / N - ln 2N.

    ln u - u - c is concave and decreasing for u > 1 and negative at
    u = 2(1 - c) when c <= -1, so Newton's method from there falls onto the
    root from the right; it stops at u = 1 when rounding leaves no root.
    """
    c = (N * math.log(math.pi / 6) + math.log(p) - math.log(q) + math.log(N + 1) / 2) / N - math.log(2 * N)
    u = 2 * (1 - c)
    for _ in range(64):
        step = (math.log(u) - u - c) / (1 / u - 1)
        u = max(u - step, 1.0)
        if u == 1.0 or step <= 1e-13 * u:
            break
    return max(math.ceil(6 * N * N * u * u / math.pi**2), 1)


def _ball_ln(z: int, bits: int) -> tuple:
    """ln z for an integer z >= 1, at scale 2^-bits: ``_ball_log`` of the exact ball (2^bits z, 0)."""
    return _ball_log((z << bits, 0), bits)


def _ball_nu_exists(N: int, p: int, q: int, bits: int) -> list:
    """The sign of ln(p^2 (N+1)) + 2N (1 + ln pi) against ln(q^2) + 2N ln(12N), -1 when nu_N(p/q) exists.

    It is the logarithm of p^2 (N+1) pi^(2N) < q^2 (12N)^(2N) e^(-2N); each
    side's ball, at scale 2^-bits, is about 2N bitlen(12N) units wide.
    """
    left = _ball_add(_ball_ln(p * p * (N + 1), bits), _ball_scale(_ball_add((1 << bits, 0), _ball_log(_ball_pi(bits), bits)), 2 * N))
    return [_ball_sign(left, _ball_add(_ball_ln(q * q, bits), _ball_scale(_ball_ln(12 * N, bits), 2 * N)))]


def _ball_nu_signs(N: int, p: int, q: int, n: int, bits: int) -> list:
    """The signs of 6 N^2 against pi^2 n (x(n) > 2N) and of ln((24n)^N q^2) against ln(p^2 (N+1)) + x(n), -1 each when it holds.

    The second is the logarithm of (24n)^N q^2 e^-x(n) < p^2 (N+1).  Its balls,
    at scale 2^-bits, are about N bitlen(24n) + sqrt(n) units wide.
    """
    x = _ball_mul(_ball_pi(bits), _ball_sqrt(2 * n, bits, 3), bits)
    return [
        _ball_sign((6 * N * N << bits, 0), _ball_scale(_ball_mul(_ball_pi(bits), _ball_pi(bits), bits), n)),
        _ball_sign(_ball_add(_ball_scale(_ball_ln(24 * n, bits), N), _ball_ln(q * q, bits)), _ball_add(_ball_ln(p * p * (N + 1), bits), x)),
    ]


def _ball_w_argument(N: int, p: int, q: int, bits: int) -> tuple:
    """|x| = (pi/(12N)) (C sqrt(N+1))^(1/N), W_-1's argument for C = p/q > the branch constant, at scale 2^-bits.

    It is pi/(12N) e^y, y = (ln(p^2 (N+1)) - ln(q^2)) / (2N).  With
    j = ceil(M_y / L) + 1 from y's midpoint and (L, 1) = ``_ball_ln2(bits)``,
    e^y = 2^j e^-(j ln 2 - y), and j ln 2 - y >= 0 is ``_ball_exp``'s argument.
    Where no threshold exists, |x| > 1/e gives y > ln(12N/(pi e)) > 0, so j >= 2.
    """
    y = _ball_scale(_ball_add(_ball_ln(p * p * (N + 1), bits), _ball_scale(_ball_ln(q * q, bits), -1)), 1, 2 * N)
    ln2 = _ball_ln2(bits)
    j = -(-y[0] // ln2[0]) + 1
    power = _ball_scale(_ball_exp(_ball_add(_ball_scale(ln2, j), _ball_scale(y, -1)), bits), 1 << j)
    return _ball_scale(_ball_mul(_ball_pi(bits), power, bits), 1, 12 * N)


def _ball_nstr(ball) -> str:
    """mpmath's nstr(y, 15) of y > 1/e, the real that the balls ``ball(P)`` at scale 2^-P enclose.

    nstr rounds y half up to 15 significant digits D 10^(E - 14), with
    10^14 <= D < 10^15, and prints them in fixed point while -5 < E < 15,
    else as D's digits times 10^E, trailing zeros stripped.  Each end of the ball is rounded
    so; from P = 64, ``_ball_decide`` redoes it at twice the scale while the
    two ends give different digits.  y is never a tie, as W_-1's argument
    is transcendental.
    """
    found = []

    def agree(P):
        middle, radius = ball(P)
        low, high = middle - radius, middle + radius
        exponent = math.floor(math.log10(low) - P * math.log10(2))

        def digits(end):  # floor(end 10^(14 - E) / 2^P + 1/2)
            shift = 14 - exponent
            return (2 * end * 10 ** max(shift, 0) + (10 ** max(-shift, 0) << P)) // (10 ** max(-shift, 0) << P + 1)

        while not 10**14 <= (rounded := digits(low)) < 10**15:
            exponent += 1 if rounded >= 10**15 else -1
        found[:] = rounded, exponent
        return [-1 if digits(high) == rounded else 0]

    _ball_decide(agree, 64)
    text, exponent = str(found[0]), found[1]
    if -5 < exponent < 15:
        text, split, suffix = "0" * -exponent + text, max(exponent, 0) + 1, ""
    else:
        split, suffix = 1, f"e{exponent:+d}"
    body = (text[:split] + "." + text[split:]).rstrip("0")
    return body + ("0" if body.endswith(".") else "") + suffix


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
    _check(n, N)
    if N < 1:
        raise DomainError(f"T3 bounds need N >= 1, got N={N}")
    valid = n >= nu(N, C)  # nu also rejects C <= 0
    exact = _constant(C)
    p, q = exact.numerator, exact.denominator
    bits = _ball_bits(ctx.digits, p * p * (N + 1), q * q * (24 * n) ** N)
    # the reported C is the exact rational rounded once: the root of C^2, a ball of radius 0 when it is exact
    (rounded,) = _ball_round(lambda P: [_ball_sqrt(p * p, P, q * q)], _ball_bits(ctx.digits, p * p, q * q), ctx)
    return _report("T3", n, N, functools.partial(_ball_thm3, n, N, exact), bits, ctx, valid, rounded)


def _ball_thm3(n: int, N: int, C, bits: int) -> tuple:
    """The balls (lower, upper) of the T3 enclosure at scale 2^-bits, for a Fraction C > 0 (see ``_constant``).

    The algebraic part C sqrt((N+1)/(24n)^N) is one root ball of
    C^2 (N+1) / (24n)^N, and the envelope shares the integer (24n)^N.
    """
    power = (24 * n) ** N
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
    bits = _ball_bits(ctx.digits, N // 2 + 1 + N % 2, (24 * n) ** N)
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
    coarse = max(bits - _root_below(k, power), _BALL_GUARD) + N.bit_length()
    ratio = _ball_div((6 << coarse, 0), _ball_pi(coarse), coarse)
    scaled = ratio
    for bit in bin(N)[3:]:
        scaled = _ball_mul(scaled, scaled, coarse)
        if bit == "1":
            scaled = _ball_mul(scaled, ratio, coarse)
    factor = _ball_mul(scaled, _ball_sqrt(k, bits, power), coarse)
    low, high = (-13, 16) if N % 2 == 0 else (-21, 11)
    return _ball_scale(factor, low), _ball_scale(factor, high)


def __getattr__(name: str):
    # nu no longer calls lambert_w_minus1; perfbench's tracer test reads its binding here (ROADMAP item 1)
    if name == "lambert_w_minus1":
        from .precision import lambert_w_minus1

        return lambert_w_minus1
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
