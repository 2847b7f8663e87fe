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

from .algebra import Character, bracket_eval, check_leg, euler_eval, eval_monomial, monomial, t_monomial
from .partitions import rank_vector
from .series import QSeries, check_order, macmahon_power, plethystic_exp, rational


def sgn(x):
    return (x > 0) - (x < 0)


def _kappa_power(exps):
    """The packed weight ``prod_j kappa_j^(e_j)``, ``kappa_j = t_j^(-1)``, for
    the four ints or half-integer ``Fraction``s ``e_j`` of ``exps``, each
    doubled once into the t-exponents that :func:`monomial` packs."""
    return monomial([int(-2 * e) for e in exps])


def kappa_rbar(rvec):
    """``kappa_rbar = prod_j kappa_j^(r_j) = prod_j t_j^(-r_j)`` as a packed weight."""
    return _kappa_power(rank_vector(rvec))


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
    return g.q_scale((-1) ** sum(rvec))


def factorization_scale(rvec, i, l):
    """The kappa-monomial rescaling the rank-1 factor in slot ``(i, l)``:
    ``kappa_i^((-r_i-1)/2 + l) * prod_(j != i) kappa_j^(r_j*sgn(i-j)/2)``.
    The half powers are exact ``Fraction`` exponents.  A slot the rank vector
    does not have, a leg outside 1..4 or ``l`` outside ``1..r_i``, raises
    ``ValueError``."""
    rvec = rank_vector(rvec)
    if not 1 <= l <= rvec[check_leg(i) - 1]:
        raise ValueError(f"leg {i} of rank vector {rvec} has no slot {l}")
    return _kappa_power(
        Fraction(-rj - 1, 2) + l if j == i else Fraction(rj * sgn(i - j), 2)
        for j, rj in enumerate(rvec, start=1)
    )


def factorized_Z(rvec, order, p):
    """Product of q-rescaled rank-1 series, one factor per framing slot."""
    rvec = rank_vector(rvec)
    sign = (-1) ** (sum(rvec) + 1)
    out = QSeries.one(order)
    for i in range(1, 5):
        if not rvec[i - 1]:
            continue
        z = closed_Z_K(tuple(int(j == i) for j in range(1, 5)), order, p)
        for l in range(1, rvec[i - 1] + 1):
            c = eval_monomial(factorization_scale(rvec, i, l), p)
            out = out * z.q_scale(sign * c)
    return out


def closed_Z_coh(rvec, order, p):
    """Cohomological closed form: the MacMahon series to the power minus
    ``r . s`` times the Euler class of the ``A`` that :func:`closed_Z_K` brackets."""
    rvec = rank_vector(rvec)
    rs = sum(ri * si for ri, si in zip(rvec, p.s))
    alpha = -euler_eval(_A_CHAR, p) * rs
    return macmahon_power(alpha, order).q_scale((-1) ** sum(rvec))


def check_kappa_identity(sqrt_xs, order):
    """Standalone weight identity behind the factorization theorem.

    The weights ``x_i`` are given through exact square roots ``b_i`` (so
    ``x_i = b_i**2``).  Both sides are expanded as q-series with the c_m rule:

        sum_i [x_i] / ([x_i^(1/2) q_i][x_i^(1/2) q_i^(-1)])
            = [X] / ([X^(1/2) q][X^(1/2) q^(-1)]),

    where ``q_i = q * prod_j x_j^(sgn(i-j)/2)`` and ``X = prod_i x_i``.  The
    coefficient of ``q^m`` is ``-sum_i (b_i^m - b_i^(-m)) c_i^m`` on the left,
    with ``c_i = prod_j b_j^sgn(i-j)``, and ``-(B^m - B^(-m))`` on the right,
    with ``B = prod_i b_i``.  Each ``b_j = p_j/q_j`` enters ``b_i^(+-1) c_i``
    and ``B^(+-1)`` to a power ``e_j`` of -1, 0 or 1, so each of these times
    ``D = prod_j p_j q_j`` is the int ``prod_j p_j^(1+e_j) q_j^(1-e_j)``, and
    order ``m`` is one equality of ints, both sides times ``-D^m``.
    Returns True when the two expansions agree to the given order; a float
    square root or a negative order raises ``ValueError``.
    """
    bs = [rational(b) for b in sqrt_xs]
    if any(b <= 0 for b in bs):
        raise ValueError("square-root weights must be positive")
    check_order(order)

    def times_D(exps):
        return prod(b.numerator ** (1 + e) * b.denominator ** (1 - e) for b, e in zip(bs, exps))

    terms = []  # (D b_i c_i, D b_i^(-1) c_i)
    for i in range(len(bs)):
        c = [sgn(i - j) for j in range(len(bs))]
        terms.append((
            times_D([e + (j == i) for j, e in enumerate(c)]),
            times_D([e - (j == i) for j, e in enumerate(c)]),
        ))
    top, bottom = times_D([1] * len(bs)), times_D([-1] * len(bs))  # D B, D B^(-1)
    return all(
        sum(u**m - d**m for u, d in terms) == top**m - bottom**m for m in range(1, order + 1)
    )
