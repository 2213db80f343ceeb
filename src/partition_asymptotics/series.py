"""The Maclaurin coefficients g_m = sqrt(24)^m c_m of the coefficient generator as integer balls.

With a = pi/6, g_m is the coefficient of z^m in F(z) = e^(-a u) (1/(1-z^2) -
(z/a) (1-z^2)^(-3/2)), u = z/(1 + sqrt(1-z^2)) (see ``coefficients``).  As
u = (z/2) C(z^2/4) for the Catalan generating function C, Lagrange inversion
(Flajolet and Sedgewick, Analytic Combinatorics, 2009) makes each g_m an
explicit element of Q[a, 1/a], with no series arithmetic.
"""

from __future__ import annotations

import functools
from math import comb

from .precision import _ball_add, _ball_div, _ball_mul, _ball_pi, _ball_scale


def _ball_gf(order: int, bits: int) -> list:
    """[G_0, ..., G_order], balls of g_0, ..., g_order at scale 2^-bits: G_m = sum_{l<=m} E_l b_(m-l), where

        E_l = [z^l] e^(-a u) = sum_{j = l (2)} (-a)^j / j! (j/l) binom(l, (l-j)/2) / 2^l  (E_0 = 1),
        b_(2i) = 1 and b_(2i+1) = -(1/a) w_i, w_i = (2i+1) binom(2i, i) / 4^i, the bracket's coefficients,

    and (j/l) binom(l, (l-j)/2) / 2^l is [z^l] u^j.  All terms of one E_l have the sign (-1)^l, so
    nothing cancels within it.  Each ball encloses its value by the helper that forms it; for bits >= 16
    the radii are these.  a = (Pi, 1) / 6 has radius 2 and midpoint below 0.53 * 2^bits.
    F_j = F_(j-1) a / j, from F_0 = 1, has radius 4 at j = 1 and by induction at most 5 after: the
    product's is at most 6, and dividing by j >= 2 leaves floor(6 / j) + 2.  E_l sums the F_j times the
    integers j binom(l, (l-j)/2), which add up to at most l 2^(l-1), and is divided once by l 2^l:
    radius at most 4, and |E_l| < e^a - 1 < 0.7.  1/a has radius at most 9 and midpoint below
    1.91 * 2^bits, so b_(2i+1) has radius at most 9 w_i + 2, where w_i <= sqrt(2i+1) as
    binom(2i, i) / 4^i <= 1/sqrt(3i+1), and E_l b_(2i+1) radius at most 14 w_i + 4.  With
    E_l b_(2i) = E_l, G_m has radius at most 2m + 4(k + 1) + 14 k sqrt(m), k = ceil(m/2): below
    16 (m+1)^(3/2) units.
    """
    one = (1 << bits, 0)
    a = _ball_scale(_ball_pi(bits), 1, 6)
    falling = [one]  # F_j = a^j / j!
    for j in range(1, order + 1):
        falling.append(_ball_scale(_ball_mul(falling[-1], a, bits), 1, j))
    E = [one]
    for l in range(1, order + 1):
        total, binom = (0, 0), 1  # binom(l, k) for k = (l - j)/2, from j = l down: one product per term
        for k, j in enumerate(range(l, 0, -2)):
            total = _ball_add(total, _ball_scale(falling[j], j * binom))
            binom = binom * (l - k) // (k + 1)
        E.append(_ball_scale(total, (-1) ** l, l << l))
    inverse = _ball_div(one, a, bits)
    # b_k for odd k = 2i+1 is -(1/a) k binom(k-1, i) / 2^(k-1); for even k, E_l b_k is E_l
    b = {k: _ball_scale(inverse, -k * comb(k - 1, k // 2), 1 << k - 1) for k in range(1, order + 1, 2)}
    balls = []
    for m in range(order + 1):
        products = (_ball_mul(E[l], b[m - l], bits) if (m - l) % 2 else E[l] for l in range(m + 1))
        balls.append(functools.reduce(_ball_add, products))
    return balls
