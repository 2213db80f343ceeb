"""Precision-context real arithmetic, the Lambert W branch -1 and integer balls.

A :class:`PrecisionContext` fixes the number of decimal significant digits for
all real arithmetic derived from it.  Its values are mpmath floats bound to
the context that produced them; there is one shared context per digit count,
so two different precisions never interfere and nothing global is mutated.
mpmath loads when the first context is built, not with this module: a value
the toolkit rounds from a ball is the raw float ``(sign, man, exp, bc)`` of
``_rounded_float``, and a caller that only prints it passes a ``_Rendering``,
whose ``value`` holds that raw float and nothing else.

Balls.  A ball (M, e) at scale 2^-P is a pair of integers, e >= 0, that
stands for every real x with |2^P x - M| <= e.  The ``_ball_*`` helpers form
roots, pi, ln 2, 2^(1/3), e^-y and ln y as balls from integer arithmetic alone
(pi by Machin's arctangents and ln 2 as 2 atanh(1/3), both from one series of
exact floors, ``_odd_series``), and combine balls so that the result encloses
every combination of the reals the operands enclose; each docstring proves
its radius.  e^-y, about 2^-k, runs its Taylor series (two terms per
multiplication, split into even and odd powers) and its squarings only at the
scale 2^-(P - k) its result needs, plus guard bits, and needs no series below 2^-P.  A comparison
of two balls holds, fails or is undecided, and ``_ball_decide`` redoes an
undecided one at twice the scale, up to _BALL_MAX_BITS, so rounding never
decides a near-tie the wrong way.  Every value the toolkit prints from a
ball is rounded once by ``_ball_round``, in the same doubling loop.
"""

from __future__ import annotations

import functools
import math

from .errors import DomainError, PrecisionError, _check_digits

# extra working digits used inside composite operations before rounding back
_GUARD_DIGITS = 10
# mpmath's log2(10), in its conversions between decimal digits and bits
_BITS_PER_DIGIT = 3.3219280948873626


def _digits_to_bits(digits: int) -> int:
    """The precision in bits of ``digits`` decimal digits: mpmath's dps_to_prec."""
    return max(1, round((digits + 1) * _BITS_PER_DIGIT))


def _rounded_float(middle: int, bits: int, prec: int) -> tuple:
    """middle / 2^bits rounded half to even to prec bits, as mpmath's raw float (sign, man, exp, bc).

    It is what mpmath's from_man_exp(middle, -bits, prec, round_nearest)
    returns: an odd mantissa (1 for a power of two), and (0, 0, 0, 0) for 0.
    A mantissa of more than prec bits keeps its top prec, plus one when the
    bits dropped are over half a unit, or exactly half of it and the kept
    part is odd.
    """
    if not middle:
        return 0, 0, 0, 0
    man, exp = abs(middle), -bits
    drop = man.bit_length() - prec
    if drop > 0:
        half = man >> drop - 1  # the kept bits and the first dropped one
        man = (half >> 1) + (half & 1 and bool(half & 2 or man & (1 << drop - 1) - 1))
        exp += drop
    zeros = (man & -man).bit_length() - 1
    man >>= zeros
    return int(middle < 0), man, exp + zeros, man.bit_length()


@functools.lru_cache(maxsize=None)
def _light_context() -> type:
    """An mpmath context class that skips re-wrapping the special functions; importing it imports mpmath.

    Importing mpmath builds its global context, which sets a wrapper for each
    of its ~200 special functions as an attribute of the ``MPContext`` class.
    The stock constructor sets every one of them on the class again, the same
    for each new instance, which is a third or more of its time.  This
    subclass inherits them as they stand, so a context here has the same
    attributes and gives the same results for about two thirds of the cost.
    """
    from mpmath.ctx_mp import MPContext

    class LightContext(MPContext):
        @classmethod
        def _wrap_specfun(cls, name, f, wrap):
            pass

    return LightContext


class PrecisionContext:
    """Working precision (decimal significant digits) for real arithmetic.

    Settings below ``errors.MIN_DIGITS`` are rejected: the toolkit refuses to
    run in a regime where its own guard margins are larger than the precision
    itself.
    ``PrecisionContext(d)`` returns one shared instance per ``d``, so equal
    digits mean the same object.  Building one imports mpmath; ``prec`` is
    its precision in bits, and ``value`` makes the mpmath float of a raw one.
    """

    __slots__ = ("digits", "prec", "value", "_mp")
    _shared: dict = {}

    def __new__(cls, digits: int):
        _check_digits(digits)
        if digits not in cls._shared:
            self = object.__new__(cls)
            mp = _light_context()()
            mp.dps = digits
            for name, value in (("digits", digits), ("prec", _digits_to_bits(digits)), ("value", mp.make_mpf), ("_mp", mp)):
                object.__setattr__(self, name, value)
            cls._shared.setdefault(digits, self)
        return cls._shared[digits]

    def __setattr__(self, name, value):
        raise AttributeError("PrecisionContext is immutable")

    def __repr__(self):
        return f"PrecisionContext(digits={self.digits})"

    @property
    def mp(self):
        """The underlying mpmath context (dps == digits)."""
        return self._mp

    def real(self, value):
        """Convert ``value`` to a Real at this precision.

        Accepts int, Fraction, decimal string, float, and mpmath floats from
        any context.  Decimal strings and Fractions are converted exactly and
        then rounded once, so e.g. "3.474" means exactly 3474/1000.
        """
        from fractions import Fraction

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


class _Float:
    """A raw float ``(sign, man, exp, bc)`` under the attribute an mpmath float keeps it in, and nothing else."""

    __slots__ = ("_mpf_",)

    def __init__(self, raw: tuple):
        self._mpf_ = raw


class _Rendering:
    """The context of values that are only printed: ``digits``, ``prec`` and a ``value`` that holds a raw float.

    It stands in for a ``PrecisionContext`` wherever every value is a ball rounded
    once by ``_ball_round``, and loads no mpmath.  One shared instance per digit count; ``cli`` checks the digits.
    """

    __slots__ = ("digits", "prec")
    _shared: dict = {}
    value = staticmethod(_Float)

    def __new__(cls, digits: int):
        if digits not in cls._shared:
            self = object.__new__(cls)
            self.digits, self.prec = digits, _digits_to_bits(digits)
            cls._shared.setdefault(digits, self)
        return cls._shared[digits]


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


# Bits of a ball's scale beyond the context's precision, and the widest scale
# an undecided comparison is redone at.
_BALL_GUARD = 32
_BALL_MAX_BITS = 1 << 14
# The bits below their values' size at which the sweeps' groups start, whatever
# the digits.  Their claims are about fixed reals whose relative margins are far
# wider than 2^-64: the narrowest in lemmas 1 to 3, lemma 2's central binomial
# inequality at m = 3000, is about 3.5e-9.
_START_BITS = 64


def _root_below(num: int, den: int) -> int:
    """About how many bits sqrt(num / den) sits below 1, negative when it sits above: (bitlen(den) - bitlen(num)) // 2."""
    return (den.bit_length() - num.bit_length()) // 2


def _ball_bits(digits: int, num: int = 1, den: int = 1) -> int:
    """The scale P of the balls for ``digits`` digits: their precision in bits plus _BALL_GUARD,
    plus the ``_root_below`` of sqrt(num / den), if it sits below 1, for a value of about that size."""
    return _digits_to_bits(digits) + _BALL_GUARD + max(_root_below(num, den), 0)


def _ball_digits(bits: int) -> int:
    """The digits of the context whose ball scale is ``bits``; about twice them at twice its scale.

    It is mpmath's prec_to_dps of bits - _BALL_GUARD, which inverts
    ``_digits_to_bits``, so at P = ``_ball_bits(d)`` this is d.  For
    every bits, d + 1 = round((bits - _BALL_GUARD) / log2 10), so
    2^(bits - _BALL_GUARD) <= 10^(d + 3/2).
    """
    return max(1, round((bits - _BALL_GUARD) / _BITS_PER_DIGIT) - 1)


def _ball_sqrt(num: int, bits: int, den: int = 1) -> tuple:
    """sqrt(num / den) for integers num >= 0 and den > 0: (S, e), S = isqrt(floor(4^bits num / den)).

    For an integer k >= 0, k <= sqrt(floor(t)) exactly when k^2 <= t, so
    S = floor(2^bits sqrt(num / den)) and 2^bits sqrt(num / den) is in [S, S + 1):
    e = 1, or 0 when S^2 den = 4^bits num and the root is S exactly.
    """
    root = math.isqrt((scaled := num << 2 * bits) // den)
    return root, int(root * root * den != scaled)


def _width(bits: int) -> int:
    """bits rounded up to a multiple of a quarter of the power of two at or below it, so constants take few widths."""
    step = 1 << max(bits.bit_length() - 3, 0)
    return -(-bits // step) * step


def _held(form):
    """The ball (L' + 1, 1) of a constant c at any scale 2^-bits, from one integer held at the widest scale asked.

    form(w) returns an integer L with L <= 2^w c < L + 2, formed at
    w = ``_width`` of the scale asked (at least 16) and held until a wider
    one is asked.  A scale b <= w is L' = L >> (w - b): L' <= 2^b c <
    (L + 2) / 2^(w-b) <= L' + 1 + 2^-(w-b) <= L' + 2, so the radius stays 1.
    """
    widest = (0, 0)

    @functools.wraps(form)
    def ball(bits: int) -> tuple:
        nonlocal widest
        width, lower = widest
        if bits > width:
            width = max(16, _width(bits))
            widest = width, lower = width, form(width)
        return (lower >> width - bits) + 1, 1

    return ball


def _odd_series(width: int, q: int, sign: int) -> tuple:
    """(S, J): S = sum_{j<J} sign^j floor(t_j / (2j+1)), t_0 = floor(2^width / q), t_j = floor(t_(j-1) / q^2),
    J the first j with t_j = 0, for an integer q >= 3 and sign 1 or -1.

    As floor(floor(x / a) / b) = floor(x / (a b)) for integers a, b >= 1,
    t_j = floor(2^width / q^(2j+1)) and each summand is the floor of its true
    term T_j = 2^width / ((2j+1) q^(2j+1)), so under it by less than 1.  J is
    the first j with q^(2j+1) > 2^width, so T_J < 1, and the terms decrease
    with ratios under 1/q^2 <= 1/9.  With sign 1 the series is
    2^width atanh(1/q): every floor and the tail from J on, under (9/8) T_J,
    fall short of it, so 0 <= 2^width atanh(1/q) - S < J + 9/8.  With sign -1
    it is 2^width arctan(1/q): the ceil(J/2) floors of even j fall short, the
    floor(J/2) of odd j overshoot, each by less than 1, and the alternating
    tail is under T_J < 1 in size, so |2^width arctan(1/q) - S| < ceil(J/2) + 1.
    """
    total, odd, term, square, factor = 0, 1, (1 << width) // q, q * q, 1
    while term:
        total += factor * (term // odd)
        odd, term, factor = odd + 2, term // square, factor * sign
    return total, odd // 2


@_held
def _ball_pi(bits: int) -> int:
    """pi: L, from Machin's pi = 16 arctan(1/5) - 4 arctan(1/239) by ``_odd_series``.

    At the finer scale 2^-w, w = bits + g with g = bits.bit_length(), the
    sum A at width w + 4 with q = 5, of J_a terms, is within ceil(J_a/2) + 1
    of 2^w 16 arctan(1/5), and B at width w + 2 with q = 239, of J_b terms,
    within ceil(J_b/2) + 1 of 2^w 4 arctan(1/239): D = A - B has
    |D - 2^w pi| < E = ceil(J_a/2) + ceil(J_b/2) + 2.  As q^(2J-1) <= 2^width,
    J_a <= (w+4)/(2 log2 5) + 1/2 and J_b <= (w+2)/(2 log2 239) + 1/2, so
    2E <= J_a + J_b + 6 < (w+2)/3.5 + 8 <= bits + 1 <= 2^g for bits >= 16.
    L = floor((D - E) / 2^g) has 2^g L <= D - E < 2^w pi, and
    2^w pi < D + E < 2^g (L + 1) + 2E <= 2^g (L + 2): L <= 2^bits pi < L + 2.
    """
    extra = bits.bit_length()
    width = bits + extra
    (a, terms_a), (b, terms_b) = _odd_series(width + 4, 5, -1), _odd_series(width + 2, 239, -1)
    return a - b - (-(-terms_a // 2) - (-terms_b // 2) + 2) >> extra


@_held
def _ball_ln2(bits: int) -> int:
    """ln 2: L, from ln 2 = 2 atanh(1/3) by ``_odd_series``.

    At the finer scale 2^-w, w = bits + g with g = bits.bit_length(), the
    sum S at width w + 1 with q = 3, of J terms, has
    S <= 2^w ln 2 < S + J + 9/8.  J is the first j with 3^(2j+1) > 2^(w+1),
    so J < (w+1)/3 + 1 <= bits - 1 < 2^g - 9/8 for bits >= 16, and
    L = floor(S / 2^g) <= 2^bits ln 2 < (S + J + 9/8) / 2^g < L + 2.
    """
    extra = bits.bit_length()
    return _odd_series(bits + extra + 1, 3, 1)[0] >> extra


def _icbrt(k: int) -> int:
    """floor(k^(1/3)) for an integer k >= 1, by Newton's method on integers.

    From x = 2^ceil(bits(k)/3) > k^(1/3), each step takes
    y = floor((2x + floor(k/x^2)) / 3) = floor((2x + k/x^2) / 3), which is at
    least floor(k^(1/3)) by the mean inequality.  While x > floor(k^(1/3)),
    x^3 > k gives k/x^2 < x and so y < x; the loop stops at the first y >= x,
    which is therefore at x = floor(k^(1/3)).
    """
    x = 1 << -(-k.bit_length() // 3)
    while (y := (2 * x + k // (x * x)) // 3) < x:
        x = y
    return x


@_held
def _ball_cbrt2(bits: int) -> int:
    """2^(1/3): L = floor(2^bits 2^(1/3)), the integer cube root of 2^(3 bits + 1), so L <= 2^bits 2^(1/3) < L + 1."""
    return _icbrt(2 << 3 * bits)


def _ball_scale(a: tuple, num: int, den: int = 1) -> tuple:
    """a * num / den for integers num and den > 0.

    The midpoint floor(M num / den) is within 1 of M num / den, and the
    operand's radius contributes e |num| / den: the radius is
    floor(e |num| / den) + 2, and exactly e |num| when den = 1.
    """
    if den == 1:
        return a[0] * num, a[1] * abs(num)
    return a[0] * num // den, a[1] * abs(num) // den + 2


def _ball_add(a: tuple, b: tuple) -> tuple:
    """a + b at one scale: the midpoints and the radii add, exactly."""
    return a[0] + b[0], a[1] + b[1]


def _ball_mul(a: tuple, b: tuple, bits: int) -> tuple:
    """a * b for a ball a at scale 2^-bits: the product lands at b's scale, whatever it is.

    With X = M_a + d_a and Y = M_b + d_b, |d_a| <= e_a and |d_b| <= e_b,
    X Y / 2^bits - M_a M_b / 2^bits = (M_a d_b + M_b d_a + d_a d_b) / 2^bits,
    at most (|M_a| e_b + |M_b| e_a + e_a e_b) / 2^bits in size, and the
    midpoint floor(M_a M_b / 2^bits) is within 1 more: the radius is that
    floored, plus 2.  With both at 2^-bits the product is at 2^-bits too.
    """
    (x, ex), (y, ey) = a, b
    return x * y >> bits, (abs(x) * ey + abs(y) * ex + ex * ey >> bits) + 2


def _ball_div(a: tuple, b: tuple, bits: int) -> tuple:
    """a / b at scale 2^-bits, for balls a, b at one scale (any) and b of positive reals (M_b > e_b); else PrecisionError.

    With X, Y as in ``_ball_mul``, 2^bits X / Y - 2^bits M_a / M_b =
    2^bits (d_a M_b - M_a d_b) / (Y M_b), at most
    2^bits (e_a M_b + |M_a| e_b) / ((M_b - e_b) M_b) in size; the radius is
    that rounded up, plus 1 for the floor of the midpoint
    floor(2^bits M_a / M_b).
    """
    (x, ex), (y, ey) = a, b
    if y <= ey:
        raise PrecisionError(f"a divisor ball is not known to be positive at {bits} bits")
    return (x << bits) // y, -(-((ex * y + abs(x) * ey) << bits) // ((y - ey) * y)) + 1


def _ball_exp(y: tuple, bits: int) -> tuple:
    """e^-y for a ball y of reals y >= 0, at scale 2^-bits.

    Reduction.  With (L, 1) = ``_ball_ln2(bits)`` and Y = max(M_y, 0) (no
    farther than M_y from 2^bits y, as y >= 0), k = floor(Y / L) and
    T = Y - k L in [0, L).  The point z = k ln 2 + T / 2^bits has
    |2^bits (z - y)| <= k + e_y, and 2^bits e^-z = 2^b e^-t with b = bits - k
    and t = T / 2^bits < ln 2: the series and the squarings run at 2^-b and
    guard bits, not at 2^-bits.  And |e^-y - e^-z| <= e^-z e^d d with
    d = |y - z| <= (k + e_y) / 2^bits, where e^-z <= 2^-k; while
    k + e_y < 2^(bits-1) < 2^bits ln 2, e^d < 2, so 2^bits |e^-y - e^-z| < F + 1,
    F = floor(2 (k + e_y) / 2^k).  A wider argument ball raises PrecisionError.
    When k > bits, 0 < 2^bits e^-z <= 1/2, and the ball is (0, F + 2), with no series.
    Halving.  Else t' = t / 2^s, with h = floor(3 isqrt(b) / 4) and
    s = max(0, h - (bits - bitlen(T))) so that t' < 2^-h and t' < 1, is read at
    the finer scale 2^-w, w = b + g, g = 2h + s + 16, as X = floor(2^w t') =
    floor(T 2^(2h + 16 - k)): exact while k <= 2h + 16, and else truncated, so that
    x = X / 2^w <= t' has 2^w |e^-x - e^-t'| <= 2^w (t' - x) < 1.
    Series, split as e^-x = C - x S, C = sum_i x^(2i) / (2i)!, S = sum_i x^(2i) / (2i+1)!.
    With Q = floor(X^2 / 2^w) > 2^w x^2 - 1 and o_0 = 2^w, pass i = 1, 2, ...
    forms e_i = floor(floor(o_(i-1) Q / 2^w) / (2i)) and o_i = floor(e_i / (2i+1)),
    two terms per multiplication, until the first o_I = 0.  Each is under its
    true term, E_i = 2^w x^(2i) / (2i)! or O_i = E_i / (2i+1), by less than 2:
    with O_(i-1) <= 2^w, e_i falls short by under (o_(i-1)'s shortfall) x^2 / (2i)
    + 1/i + 1, which is under 2 at i = 1 (o_0 is exact) and under 2/4 + 3/2 after,
    and o_i by under 2 / (2i+1) + 1.  Then O_I < 2, and the rest of both
    series, with term ratios at most 1/12, is under (12/11) O_I / (2I+2) < 3/5.
    So the sums of the e_i and the o_i fall short of 2^w C and 2^w S by under
    2I + 3/5, and V = (sum e_i) - floor((sum o_i) X / 2^w) is under 2^w e^-x by
    less than 2I + 3/5 and over it by less than x (2I + 3/5) + 1: with X's
    truncation, the error R_0 < 2I + 3.
    Squaring.  s times V -> floor(V^2 / 2^w): with the true values at most
    2^w (t >= 0), an error R becomes at most R (2^(w+1) + R) / 2^w + 1, that
    is 2R + floor(R^2 / 2^w) + 2, computed alongside.
    Result.  M = floor(V / 2^g) is within R_s / 2^g + 1 of 2^b e^-t = 2^bits e^-z.
    The radius is floor(R_s / 2^g) + 2 + F + 1.
    Size.  O_i < 2^w / (2i+1)! <= 2^(w - 2i), so I <= w/2 + 1 and R_0 < w + 5;
    s <= h and w + 7 < 2^(8 + b/2) keep R under 2^(w/2), where a squaring gives
    2R + 2, so R_s < 2^h (w + 7) < 2^(2h+16) <= 2^g, as b < (4h/3 + 3)^2.  The
    radius is at most 3 + F <= 4 + 2 e_y.
    """
    middle, radius = y
    ln2 = _ball_ln2(bits)[0]
    k, reduced = divmod(max(middle, 0), ln2)
    if k + radius >= 1 << bits - 1:
        raise PrecisionError(f"the argument of exp is not known to 1/2 at {bits} bits")
    far = 2 * (k + radius) >> k
    if k > bits:
        return 0, far + 2
    small = math.isqrt(bits - k) * 3 // 4
    halvings = max(0, small - (bits - reduced.bit_length()))
    guard = 2 * small + halvings + 16
    width = bits - k + guard
    lift = 2 * small + 16 - k
    x = reduced << lift if lift >= 0 else reduced >> -lift
    square = x * x >> width
    even = odd = term = 1 << width
    i = 0
    while term:
        i += 1
        term = (term * square >> width) // (2 * i)
        even += term
        term //= 2 * i + 1
        odd += term
    total, error = even - (odd * x >> width), 2 * i + 3
    for _ in range(halvings):
        total = total * total >> width
        error = 2 * error + (error * error >> width) + 2
    return total >> guard, (error >> guard) + 3 + far


def _ball_log(y: tuple, bits: int) -> tuple:
    """ln y for a ball y of positive reals (M > e) at scale 2^-bits, at that scale; else PrecisionError.

    Reduction.  With D = 2^(bitlen(M) - 1) and k = bitlen(M) - 1 - bits,
    ln(M / 2^bits) = k ln 2 + ln z, z = M / D in [1, 2), and ln z = 2 atanh(s),
    s = (M - D) / (M + D) in [0, 1/3).  k ln 2 is k (L, 1) = ``_ball_ln2(bits)``,
    of radius |k|.
    Series, at the finer scale 2^-w, w = bits + g, g = bitlen(bits) + 4.
    S = floor(2^w s) and Q = floor(S^2 / 2^w) have 2^w s^2 - 2 < Q <= 2^w s^2.
    From t_0 = S, t_j = floor(t_(j-1) Q / 2^w) is under T_j = 2^w s^(2j+1), and
    by less than 2: the shortfall d_j is under 2 T_(j-1) / 2^w + d_(j-1) / 9 + 1
    < 2/3 + 2/9 + 1.  So floor(t_j / (2j+1)) is under T_j / (2j+1) by less than
    3, and at the first t_J = 0, T_J < 2 and the rest of the series, with term
    ratios s^2 < 1/9, is under 9/4: the sum V of the J floors has
    0 <= 2^w atanh(s) - V < 3J + 9/4.  As T_j < 2^w / 3^(2j+1), J <= w/3 + 1,
    so 2 (3J + 9/4) <= 2w + 11 < 2^g for bits >= 16: floor(2V / 2^g) is within
    [0, 2) below 2^bits ln z, and the ball (floor(2V / 2^g) + 1, 1) holds it.
    Radius.  ln is 1/t-Lipschitz, so every real of y has a logarithm within
    e / (M - e) of ln(M / 2^bits): the radius is |k| + 1 + ceil(2^bits e / (M - e)).
    """
    middle, radius = y
    if middle <= radius:
        raise PrecisionError(f"the argument of log is not known to be positive at {bits} bits")
    low = 1 << middle.bit_length() - 1
    k = middle.bit_length() - 1 - bits
    guard = bits.bit_length() + 4
    width = bits + guard
    term = ((middle - low) << width) // (middle + low)
    square = term * term >> width
    total, odd = 0, 1
    while term:
        total += term // odd
        term, odd = term * square >> width, odd + 2
    ln2 = _ball_scale(_ball_ln2(bits), k)
    return ln2[0] + (total >> guard - 1) + 1, ln2[1] + 1 - (-(radius << bits) // (middle - radius))


def _ball_sign(a: tuple, b: tuple) -> int:
    """1 when every real of ball a exceeds every real of ball b, -1 for the reverse, 0 when the balls overlap.

    A 0 is undecided, so two balls never decide an exact tie.
    """
    if a[0] - a[1] > b[0] + b[1]:
        return 1
    if a[0] + a[1] < b[0] - b[1]:
        return -1
    return 0


def _ball_decide(signs, bits: int, what: str = "a ball comparison") -> list:
    """signs(P) at P = bits, then at twice the scale while the first nonnegative sign is 0.

    ``signs(P)`` returns the ``_ball_sign`` of each comparison of a group,
    from balls at scale 2^-P; the group's verdict is read off its first sign
    that is not -1, so only that one needs deciding.  Past _BALL_MAX_BITS it
    raises PrecisionError naming ``what``, so an undecided comparison never passes.
    """
    while True:
        found = signs(bits)
        if 0 not in found or next(sign for sign in found if sign != -1):  # the first that is not -1
            return found
        if bits >= _BALL_MAX_BITS:
            raise PrecisionError(f"{what} is undecided at {bits} bits")
        bits = min(2 * bits, _BALL_MAX_BITS)


def _ball_round(balls, bits: int, ctx) -> list:
    """The reals the balls (M, e) = ``balls(P)`` at scale 2^-P enclose, each rounded once to nearest at the context.

    ``ctx`` is a ``PrecisionContext``, or a ``_Rendering``; each value is ``ctx.value`` of its raw float.

    Let r = s m 2^x, m odd of k bits, be M / 2^P rounded.  Every real within
    h = 2^(x + k - prec - 1), half an ulp of r, of |r| rounds to r, or within
    h / 2 below it when m = 1 (|r| a power of two).  So with H = h 2^P >= 4
    and d = |M| - m 2^(x + P), a ball with |d| + e < H, or < H / 2 when m = 1,
    holds only reals that round to r; a radius 0 is exact.  From P = bits,
    ``_ball_decide`` redoes the group at twice the scale while any ball fails.
    """
    prec, rounded = ctx.prec, []

    def agree(P):
        rounded[:] = []
        decided = True
        for middle, radius in balls(P):
            raw = _rounded_float(middle, P, prec)
            _, man, exponent, count = raw
            half = exponent + count - prec - 1 + P
            inside = man and half >= 2 and abs(abs(middle) - (man << exponent + P)) + radius < 1 << half - (man == 1)
            decided &= not radius or bool(inside)
            rounded.append(raw)
        return [-1 if decided else 0]

    _ball_decide(agree, bits)
    return [ctx.value(raw) for raw in rounded]
