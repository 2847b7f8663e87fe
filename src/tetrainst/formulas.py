"""Closed-form partition functions evaluated at an exact specialization point.

All generating functions here come from plethystic-exponential expressions.
The rational factor in front is the bracket of the fixed virtual character

    A = [t1 t2][t1 t3][t2 t3] / ([t1][t2][t3][t4])

and the inner geometric factor is expanded with the q -> 0 convention

    1 / ([k^(1/2) q][k^(1/2) q^(-1)]) = -sum_{m>=1} ([k^m]/[k]) q^m,

so the exponential body collapses to ``A * sum_m [kappa^m] q^m`` with the
[kappa] factors cancelled (which also covers kappa = 1 smoothly).
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .algebra import Character, bracket_eval, euler_eval, eval_monomial, monomial, t_monomial
from .partitions import rank_vector
from .series import QSeries, macmahon_power, plethystic_exp, rational


def sgn(x):
    return (x > 0) - (x < 0)


def kappa_rbar(rvec):
    """``kappa_rbar = prod_i t_i^(-r_i)`` as a packed weight."""
    return monomial(tuple(-2 * ri for ri in rank_vector(rvec)))


# [t1t2][t1t3][t2t3] / ([t1][t2][t3][t4]) as a virtual character
_A_CHAR = Character({
    **{t_monomial(i) + t_monomial(j): 1 for i, j in ((1, 2), (1, 3), (2, 3))},
    **{t_monomial(i): -1 for i in range(1, 5)},
})


def closed_Z_K(rvec, order, p):
    """The explicit plethystic formula for ``Z_rvec(q)`` at point ``p``.

    When ``kappa_rbar`` is symbolically trivial (all r_i equal) the series
    is the constant 1: this is the vanishing statement.
    """
    rvec = rank_vector(rvec)
    kap = kappa_rbar(rvec)
    if not kap:
        return QSeries.one(order)

    # the n-th Adams power of a weight m is n*m, since the packing is linear
    def body(n):
        a_val = bracket_eval(Character({n * m: c for m, c in _A_CHAR.terms.items()}), p)
        coeffs = [Fraction(0)]
        for m in range(1, order // n + 1):  # plethystic_exp reads no further
            coeffs.append(a_val * bracket_eval(Character.of(n * m * kap), p))
        return QSeries(coeffs)

    g = plethystic_exp(body, order)
    return g.q_scale(sign=(-1) ** sum(rvec))


def rank1_Z(i, order, p):
    """The rank-1 series for leg ``i`` (the unit rank vector in slot i)."""
    rvec = tuple(1 if k == i else 0 for k in range(1, 5))
    return closed_Z_K(rvec, order, p)


def factorization_scale(rvec, i, l):
    """The kappa-monomial rescaling the rank-1 factor in slot ``(i, l)``.

    The doubled-exponent storage keeps the genuine half powers exact:
    the monomial is ``kappa_i^((-r_i-1)/2 + l) * prod_j kappa_j^(r_j*sgn(i-j)/2)``.
    """
    rvec = rank_vector(rvec)
    texp = [0, 0, 0, 0]
    texp[i - 1] += -(-(rvec[i - 1]) - 1 + 2 * l)  # kappa_i = t_i^(-1), doubled
    for j in range(1, 5):
        texp[j - 1] += rvec[j - 1] * sgn(i - j) * (-1)
    return monomial(texp)


def factorized_Z(rvec, order, p):
    """Product of q-rescaled rank-1 series, one factor per framing slot."""
    rvec = rank_vector(rvec)
    sign = (-1) ** (sum(rvec) + 1)
    out = QSeries.one(order)
    for i in range(1, 5):
        if not rvec[i - 1]:
            continue
        z = rank1_Z(i, order, p)
        for l in range(1, rvec[i - 1] + 1):
            c = eval_monomial(factorization_scale(rvec, i, l), p)
            out = out * z.q_scale(c, sign)
    return out


def closed_Z_coh(rvec, order, p):
    """Cohomological closed form: the MacMahon series to the power minus
    ``r . s`` times the Euler class of the ``A`` that :func:`closed_Z_K` brackets."""
    rvec = rank_vector(rvec)
    rs = sum(ri * si for ri, si in zip(rvec, p.s))
    alpha = -euler_eval(_A_CHAR, p) * rs
    return macmahon_power(alpha, order).q_scale(sign=(-1) ** sum(rvec))


def check_kappa_identity(sqrt_xs, order):
    """Standalone weight identity behind the factorization theorem.

    The weights ``x_i`` are given through exact square roots ``b_i`` (so
    ``x_i = b_i**2``).  Both sides are expanded as q-series with the c_m rule:

        sum_i [x_i] / ([x_i^(1/2) q_i][x_i^(1/2) q_i^(-1)])
            = [X] / ([X^(1/2) q][X^(1/2) q^(-1)]),

    where ``q_i = q * prod_j x_j^(sgn(i-j)/2)`` and ``X = prod_i x_i``.
    Returns True when the two expansions agree to the given order; a float
    square root raises ``ValueError``.
    """
    bs = [rational(b) for b in sqrt_xs]
    if any(b <= 0 for b in bs):
        raise ValueError("square-root weights must be positive")
    lhs = [Fraction(0)] * (order + 1)
    for i, b in enumerate(bs):
        c = prod((bj ** sgn(i - j) for j, bj in enumerate(bs)), start=Fraction(1))
        for m in range(1, order + 1):
            lhs[m] += -(b ** m - b ** (-m)) * c ** m
    B = prod(bs, start=Fraction(1))
    rhs = [Fraction(0)] + [-(B ** m - B ** (-m)) for m in range(1, order + 1)]
    return QSeries(lhs) == QSeries(rhs)
