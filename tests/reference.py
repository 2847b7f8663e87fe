"""Reference routes that the tests check the package's routes against.

Each is a second, independent way to compute something the package computes,
or a predicate the package never needs at run time, so none of it is in
``src/tetrainst``:

* the theta measure of one weight as a product of theta factors, against
  the plethystic form of ``algebra.theta_eval``;
* the MacMahon series as a product, and the log of a series, against the
  sigma_2 route of ``series.macmahon_power``; ``binomial``, ``invert`` and
  ``power`` serve these two products;
* the virtual tangent through the ambient space and the obstruction bundle,
  against ``vertex.virtual_tangent``, and the vertex reassembled from its
  blocks, against ``vertex.vertex``;
* the linear relation among the four rank-1 first coefficients;
* the order-ideal test and the truncation of a series.
"""

from fractions import Fraction

from tetrainst.algebra import Character, bracket_eval, eval_monomial, monomial, t_monomial
from tetrainst.formulas import rank1_Z
from tetrainst.series import BadConstantTermError, QSeries
from tetrainst.vertex import vertex_block


# ---------------------------------------------------------------------------
# series


def binomial(c, n, order):
    """The polynomial ``1 + c*q^n`` truncated at ``order``."""
    coeffs = [Fraction(0)] * (order + 1)
    coeffs[0] = Fraction(1)
    if n <= order:
        coeffs[n] = Fraction(c)
    return QSeries(coeffs)


def truncate(f, order):
    """``f`` cut, or padded with zeros, to ``order``."""
    if order >= f.order:
        return QSeries(f.coeffs + (0,) * (order - f.order))
    return QSeries(f.coeffs[: order + 1])


def invert(f):
    """The multiplicative inverse of ``f``; its constant term must be nonzero."""
    c0 = f.coeffs[0]
    if c0 == 0:
        raise BadConstantTermError("cannot invert a series with zero constant term")
    out = [Fraction(0)] * (f.order + 1)
    out[0] = 1 / c0
    for n in range(1, f.order + 1):
        s = sum(f.coeffs[k] * out[n - k] for k in range(1, n + 1))
        out[n] = -s / c0
    return QSeries(out)


def power(f, n):
    """``f**n`` by square and multiply; a negative ``n`` inverts first."""
    if n < 0:
        return power(invert(f), -n)
    if n <= 1:
        return f if n else QSeries.one(f.order)
    half = power(f, n // 2)
    out = half * half
    return out * f if n & 1 else out


def log(f):
    """The log of a series with constant term 1."""
    if f.coeffs[0] != 1:
        raise BadConstantTermError("log needs constant term 1")
    out = [Fraction(0)] * (f.order + 1)
    for n in range(1, f.order + 1):
        s = sum((k * out[k] * f.coeffs[n - k] for k in range(1, n)), Fraction(0))
        out[n] = f.coeffs[n] - s / n
    return QSeries(out)


def macmahon(order):
    """The MacMahon series ``prod_{n>=1} (1-q^n)^(-n)`` truncated at ``order``."""
    out = QSeries.one(order)
    for n in range(1, order + 1):
        out = out * power(invert(binomial(-1, n, order)), n)
    return out


# ---------------------------------------------------------------------------
# measures and closed forms


def theta_monomial(m, p, order):
    """The theta measure of one weight, as a series in the elliptic parameter.

    Returns ``[x] * prod_{n>=1} (1 - x p^n)(1 - 1/x p^n)`` truncated at
    ``order``; the ``p^(1/12)`` prefactor is tracked by the caller.  The
    constant term is ``bracket_eval(Character.of(m), p)``.
    """
    y = eval_monomial(m, p)
    f = QSeries.constant(bracket_eval(Character.of(m), p), order)
    for n in range(1, order + 1):
        f = f * binomial(-y, n, order)
        f = f * binomial(-1 / y, n, order)
    return f


def rank1_relation_residual(p):
    """The linear relation among the four rank-1 first coefficients.

    Returns ``sum_i (prod_{j<i} t_j^(-1)) * t_i^(-1/2) * Z1^(i)`` where
    ``Z1^(i)`` is the q^1 coefficient of the leg-i rank-1 series; the value
    is identically zero.
    """
    total = Fraction(0)
    for i in range(1, 5):
        texp = [0, 0, 0, 0]
        for j in range(1, i):
            texp[j - 1] -= 2
        texp[i - 1] -= 1
        coeff = eval_monomial(monomial(texp), p)
        total += coeff * rank1_Z(i, 1, p).coefficient(1)
    return total


# ---------------------------------------------------------------------------
# fixed-point characters


def ambient_tangent(fp):
    """Tangent character of the smooth ambient moduli space."""
    Q = fp.Q
    c4 = Character({0: -1, **{t_monomial(i, -1): 1 for i in range(1, 5)}})
    return c4 * Q * Q.dual() + fp.K.dual() * Q


def obstruction_fiber(fp):
    """Fiber character of the orthogonal bundle cutting out the moduli space."""
    Q, T = fp.Q, fp.T
    Qd = Q.dual()
    # the six weights t_i^(-1) t_j^(-1), i < j, are distinct
    lam2 = Character({t_monomial(i, -1) + t_monomial(j, -1): 1 for i in range(1, 5) for j in range(i + 1, 5)})
    return Character.sum([lam2 * Q * Qd, T * Qd, T.dual() * Q])


def virtual_tangent_via_ambient(fp):
    """Ambient tangent minus obstruction plus cotangent."""
    TA = ambient_tangent(fp)
    return TA - obstruction_fiber(fp) + TA.dual()


def vertex_from_blocks(fp):
    """The vertex term reassembled from its blocks (decomposition identity)."""
    slots = list(fp.Z)
    return Character.sum(
        vertex_block(fp, i, l, j, k) for a, (i, l) in enumerate(slots) for (j, k) in slots[a:]
    )


# ---------------------------------------------------------------------------
# partitions


def is_order_ideal(boxes):
    """Whether ``boxes`` is an order ideal of Z^d_{>=0}: no coordinate is
    negative, and with each box every box one step below it is there."""
    cells = set(boxes)
    for box in cells:
        if any(c < 0 for c in box):
            return False
        for k in range(len(box)):
            if box[k] > 0:
                below = list(box)
                below[k] -= 1
                if tuple(below) not in cells:
                    return False
    return True
