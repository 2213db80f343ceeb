"""Precision-context real arithmetic, the Lambert W branch -1 and a rational pi enclosure.

A :class:`PrecisionContext` fixes the number of decimal significant digits for
all real arithmetic derived from it.  Values are mpmath floats bound to the
context that produced them; there is one shared context per digit count, so
two different precisions never interfere and nothing global is mutated.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from mpmath.ctx_mp import MPContext

from .errors import DomainError

MIN_DIGITS = 30

# extra working digits used inside composite operations before rounding back
_GUARD_DIGITS = 10


class _LightContext(MPContext):
    """An mpmath context that skips re-wrapping the special functions.

    Importing mpmath builds its global context, which sets a wrapper for each
    of its ~200 special functions as an attribute of the ``MPContext`` class.
    The stock constructor sets every one of them on the class again, the same
    for each new instance, which is a third or more of its time.  This
    subclass inherits them as they stand, so a context here has the same
    attributes and gives the same results for about two thirds of the cost.
    """

    @classmethod
    def _wrap_specfun(cls, name, f, wrap):
        pass


class PrecisionContext:
    """Working precision (decimal significant digits) for real arithmetic.

    Settings below ``MIN_DIGITS`` are rejected: the toolkit refuses to run in a
    regime where its own guard margins are larger than the precision itself.
    ``PrecisionContext(d)`` returns one shared instance per ``d``, so equal
    digits mean the same object.
    """

    __slots__ = ("digits", "_mp")
    _shared: dict = {}

    def __new__(cls, digits: int):
        if not isinstance(digits, int) or digits < MIN_DIGITS:
            raise DomainError(f"digits must be an integer >= {MIN_DIGITS}, got {digits!r}")
        if digits not in cls._shared:
            self = object.__new__(cls)
            object.__setattr__(self, "digits", digits)
            mp = _LightContext()
            mp.dps = digits
            object.__setattr__(self, "_mp", mp)
            cls._shared.setdefault(digits, self)
        return cls._shared[digits]

    def __setattr__(self, name, value):
        raise AttributeError("PrecisionContext is immutable")

    def __repr__(self):
        return f"PrecisionContext(digits={self.digits})"

    @property
    def mp(self) -> MPContext:
        """The underlying mpmath context (dps == digits)."""
        return self._mp

    def real(self, value):
        """Convert ``value`` to a Real at this precision.

        Accepts int, Fraction, decimal string, float, and mpmath floats from
        any context.  Decimal strings and Fractions are converted exactly and
        then rounded once, so e.g. "3.474" means exactly 3474/1000.
        """
        mp = self._mp
        if isinstance(value, Fraction):
            return mp.mpf(value.numerator) / value.denominator
        if isinstance(value, str):
            try:
                return self.real(Fraction(value))
            except (ValueError, ZeroDivisionError):
                raise DomainError(f"cannot interpret {value!r} as a real number") from None
        if isinstance(value, (int, float)):
            return mp.mpf(value)
        raw = getattr(value, "_mpf_", None)
        if raw is not None:
            return mp.mpf(raw)
        raise DomainError(f"cannot interpret {value!r} as a real number")


def lambert_w_minus1(x, ctx: PrecisionContext):
    """Branch -1 of the Lambert W function: the solution w <= -1 of w*e^w = x.

    Defined for -1/e <= x < 0; an x within 10^-digits of -1/e is taken as the
    branch point itself, where w = -1.  Elsewhere mpmath's ``lambertw`` solves
    at twice the working precision and the result is rounded back once.
    """
    hi = PrecisionContext(2 * ctx.digits + _GUARD_DIGITS).mp
    x = hi.mpf(ctx.real(x)._mpf_)
    if x >= 0:
        raise DomainError(f"lambert_w_minus1 requires x < 0, got {hi.nstr(x, 15)}")
    t = 1 + hi.e * x  # distance above the branch point -1/e
    if abs(t) <= hi.mpf(10) ** (-ctx.digits):
        # x is the branch point up to representation noise at ctx precision
        return ctx.real(-1)
    if t < 0:
        raise DomainError(f"lambert_w_minus1 requires x >= -1/e, got {hi.nstr(x, 15)}")
    return ctx.real(hi.lambertw(x, -1))


@functools.lru_cache(maxsize=None)
def pi_enclosure(digits: int) -> tuple[Fraction, Fraction]:
    """Rational enclosure lo < pi < hi with hi - lo < 10^-digits.

    Machin's identity pi = 16*arctan(1/5) - 4*arctan(1/239), with each arctan
    bracketed by consecutive partial sums of its alternating series.  Entirely
    integer arithmetic, so the enclosure is independent of any float library.
    """

    def arctan_inv_bounds(q: int) -> tuple[int, int, int]:
        # partial sums of sum_k (-1)^k / ((2k+1) q^(2k+1)) alternate around the
        # limit; stop at the first even k whose term is below 10^-(digits+4)
        target = 10 ** (digits + 4)
        k, power = 0, q  # power = q^(2k+1)
        while k % 2 or (2 * k + 1) * power <= target:
            k, power = k + 1, power * q * q
        # over the common denominator lcm(1, 3, ..., 2k+1) * q^(2k+1) the first
        # k terms sum to s (Horner in q^2), and the pending term k is lcm / (2k+1);
        # it is positive, so s undershoots and s + term overshoots
        lcm = math.lcm(*range(1, 2 * k + 2, 2))
        s = 0
        for j in range(k):
            s = (s + (-1) ** j * (lcm // (2 * j + 1))) * q * q
        return s, s + lcm // (2 * k + 1), lcm * power

    a_lo, a_hi, a_den = arctan_inv_bounds(5)
    b_lo, b_hi, b_den = arctan_inv_bounds(239)
    den = a_den * b_den
    return (
        Fraction(16 * a_lo * b_den - 4 * b_hi * a_den, den),
        Fraction(16 * a_hi * b_den - 4 * b_lo * a_den, den),
    )
