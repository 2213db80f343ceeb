"""Truncated formal power series, enough to rebuild the coefficient generator.

A series is a dense list of Maclaurin coefficients 0..order, mpmath floats of
one precision context.  Only the operations the generating-function check
needs are here: Cauchy product, exp of a series with zero constant term, and
real powers of a series with unit constant term; sums, scalings and shifts by
z are written inline where they are used.
"""

from __future__ import annotations

from .coefficients import coeff_c
from .errors import DomainError
from .precision import PrecisionContext


def _mul(a: list, b: list, mp) -> list:
    """Cauchy product truncated at the shorter of the two orders."""
    order = min(len(a), len(b)) - 1
    out = [mp.mpf(0)] * (order + 1)
    for i in range(order + 1):
        ai = a[i]
        if ai == 0:
            continue
        for j in range(order + 1 - i):
            out[i + j] += ai * b[j]
    return out


def _exp(a: list, mp) -> list:
    """exp of a series with zero constant term, via (exp a)' = a' * exp a."""
    if a[0] != 0:
        raise DomainError("series exp needs a zero constant term")
    out = [mp.mpf(1)] + [mp.mpf(0)] * (len(a) - 1)
    for k in range(1, len(a)):
        acc = mp.mpf(0)
        for i in range(1, k + 1):
            acc += i * a[i] * out[k - i]
        out[k] = acc / k
    return out


def _power(base: list, alpha, mp) -> list:
    """base^alpha for a series with unit constant term, via (f^a)' f = a f' f^a."""
    if base[0] != 1:
        raise DomainError("series power needs a unit constant term")
    alpha_plus_1 = mp.mpf(alpha) + 1
    support = [i for i in range(1, len(base)) if base[i] != 0]
    out = [mp.mpf(1)] + [mp.mpf(0)] * (len(base) - 1)
    for k in range(1, len(base)):
        acc = mp.mpf(0)
        for i in support:
            if i > k:
                break
            acc += (alpha_plus_1 * i - k) * base[i] * out[k - i]
        out[k] = acc / k
    return out


def gf_coefficients(order: int, ctx: PrecisionContext) -> list:
    """Maclaurin coefficients of the coefficient generator, up to z^order.

    Assembles exp(-(pi/6) * z/(sqrt(1-z^2)+1)) * (1/(1-z^2)
    - (6/pi) * z/(1-z^2)^(3/2)) from the series primitives; coefficient m
    equals sqrt(24)^m * c_m, which is what :func:`coefficients.coeff_c`
    produces from its recurrence source, so comparing the two routes checks both.
    """
    if order < 0:
        raise DomainError("order must be nonnegative")
    mp = ctx.mp
    half = mp.mpf(1) / 2
    one_minus_z2 = [mp.mpf(c) for c in ([1, 0, -1] + [0] * order)[: order + 1]]
    root = _power(one_minus_z2, half, mp)  # sqrt(1-z^2)
    # z / (sqrt(1-z^2) + 1): normalize the constant term to 1 before inverting
    half_root_plus_1 = [(root[0] + 1) * half] + [c * half for c in root[1:]]
    inverse = [c * half for c in _power(half_root_plus_1, -1, mp)]
    inner = [mp.mpf(0)] + inverse[:order]
    rate = -mp.pi / 6
    exp_part = _exp([c * rate for c in inner], mp)
    inv = _power(one_minus_z2, -1, mp)  # 1/(1-z^2)
    inv_32 = _power(one_minus_z2, -mp.mpf(3) / 2, mp)  # (1-z^2)^(-3/2)
    # 1/(1-z^2) - (6/pi) z (1-z^2)^(-3/2), the shift by z written as an offset
    weight = -6 / mp.pi
    bracket = inv[:1] + [c + d * weight for c, d in zip(inv[1:], inv_32)]
    return _mul(exp_part, bracket, mp)


def gf_reference(order: int, ctx: PrecisionContext) -> list:
    """The same coefficients from :func:`coefficients.coeff_c`: sqrt(24)^m * c_m."""
    if order < 0:
        raise DomainError("order must be nonnegative")
    root24 = ctx.mp.sqrt(24)
    # the last index first, so the coefficient source grows once
    return [root24**m * coeff_c(m, ctx) for m in reversed(range(order + 1))][::-1]
