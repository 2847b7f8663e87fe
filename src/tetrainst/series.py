"""Truncated formal power series with exact rational coefficients.

A :class:`QSeries` of order ``N`` stores coefficients ``c_0..c_N``; every
operation is exact and truncation-consistent (computing at a higher order and
truncating gives the same result), and a float coefficient or scale factor is
inexact, so it raises ``ValueError``.  :class:`QPSeries` is the bigraded
variant used for the elliptic partition function.  The module holds what the
partition functions use: sums, products, ``exp`` and the plethystic
exponential.  The product form of the MacMahon series, and the log, inverse
and powers of a series that it needs, are in ``tests/reference.py``, which
checks :func:`macmahon_power` against them.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import factorial


class BadConstantTermError(ValueError):
    """exp and the plethystic exponential need a zero constant term."""


def rational(x):
    """``x`` as a ``Fraction``; a float is inexact, so it raises ``ValueError``."""
    if isinstance(x, float):
        raise ValueError(f"expected an exact rational, got the float {x!r}")
    return Fraction(x)


def check_order(order):
    """``order``, the highest power a truncated series keeps, as an int; a
    negative order raises ``ValueError`` and a non-integer ``TypeError``.
    Sizes are checked here too: a configuration of size n feeds the q^n term."""
    order = operator.index(order)
    if order < 0:
        raise ValueError("a series needs at least its constant term")
    return order


class QSeries:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(c if type(c) is Fraction else rational(c) for c in coeffs)
        if not self.coeffs:
            raise ValueError("a series needs at least its constant term")

    @property
    def order(self):
        return len(self.coeffs) - 1

    @classmethod
    def zero(cls, order):
        return cls((0,) * (order + 1))

    @classmethod
    def one(cls, order):
        return cls.constant(1, order)

    @classmethod
    def constant(cls, c, order):
        return cls((c,) + (0,) * check_order(order))

    def coefficient(self, n):
        return self.coeffs[check_order(n)]

    def __eq__(self, other):
        return isinstance(other, QSeries) and self.coeffs == other.coeffs

    def __add__(self, other):
        n = min(self.order, other.order)
        return QSeries([self.coeffs[k] + other.coeffs[k] for k in range(n + 1)])

    def __sub__(self, other):
        n = min(self.order, other.order)
        return QSeries([self.coeffs[k] - other.coeffs[k] for k in range(n + 1)])

    def __neg__(self):
        return QSeries([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, QSeries):
            n = min(self.order, other.order)
            out = [Fraction(0)] * (n + 1)
            for i, a in enumerate(self.coeffs[: n + 1]):
                if a == 0:
                    continue
                for j in range(n + 1 - i):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] += a * b
            return QSeries(out)
        return QSeries([c * other for c in self.coeffs])

    __rmul__ = __mul__

    def exp(self):
        """exp of a series with zero constant term."""
        if self.coeffs[0] != 0:
            raise BadConstantTermError("exp needs zero constant term")
        out = [Fraction(0)] * (self.order + 1)
        out[0] = Fraction(1)
        for n in range(1, self.order + 1):
            # n*e_n = sum_{k=1..n} k f_k e_{n-k}, from (exp f)' = f' exp f
            s = sum((k * self.coeffs[k] * out[n - k] for k in range(1, n + 1)), Fraction(0))
            out[n] = s / n
        return QSeries(out)

    def shift(self, k):
        """Multiply by ``q^k``; for negative ``k`` the low coefficients must vanish."""
        if k >= 0:
            return QSeries(((0,) * k + self.coeffs)[: self.order + 1])
        if any(self.coeffs[: -k]):
            raise ValueError("negative shift of a series with nonzero low-order terms")
        return QSeries(self.coeffs[-k:] + (0,) * (-k))

    def q_scale(self, c):
        """Substitute ``q -> c*q`` for a rational ``c``: ``c_n -> c_n*c^n``."""
        factor = rational(c)
        return QSeries([coef * factor ** n for n, coef in enumerate(self.coeffs)])

    def __repr__(self):
        return "QSeries[" + ", ".join(str(c) for c in self.coeffs) + "]"


def plethystic_exp(coeff_fn, order):
    """Plethystic exponential ``Exp(f) = exp(sum_n f(params^n; q^n)/n)``.

    ``coeff_fn(n)`` must return ``f`` with all parameters already raised to
    the n-th power, as a :class:`QSeries` in the *original* variable q with
    zero constant term; the ``q -> q^n`` substitution happens here.  Its
    coefficients past ``order`` are ignored and missing ones count as zero.
    The log ``sum_n f_n(q^n)/n`` is collected in one list and exponentiated
    once, in ``Fraction``s.  The closed K-theoretic form is exponentiated
    here; the theta measure and the MacMahon power have integer log
    numerators over one graded denominator and go through
    :func:`exp_numerators` instead.
    """
    log = [Fraction(0)] * (order + 1)
    for n in range(1, order + 1):
        f = coeff_fn(n).coeffs
        if f[0] != 0:
            raise BadConstantTermError("plethystic argument needs zero constant term")
        for k in range(1, min(len(f) - 1, order // n) + 1):
            log[n * k] += f[k] / n
    return QSeries(log).exp()


def exp_numerators(lam):
    """The ints ``G_0..G_N`` with ``exp(sum_M lam[M] y^M / M) = sum_n G_n y^n / n!``.

    ``lam[0]`` is ignored and ``lam[1..N]`` must be ints.  From
    ``(exp f)' = f' exp f``, ``G_n = sum_{j=1..n} lam[j] G_{n-j} (n-1)!/(n-j)!``
    with ``G_0 = 1``; the falling factorial is an int, so nothing is divided.
    A log ``sum_M L_M y^M`` with ``L_M = lam[M] / (M D^M)`` exponentiates to
    the coefficients ``G_n / (n! D^n)``.
    """
    G = [1]
    for n in range(1, len(lam)):
        total, ff = 0, 1  # ff = (n-1)!/(n-j)!
        for j in range(1, n + 1):
            total += lam[j] * G[n - j] * ff
            ff *= n - j
        G.append(total)
    return G


def macmahon_power(alpha, order):
    """``M(q)**alpha = Exp(alpha q/(1-q)**2)`` for a rational exponent ``alpha``
    (a float raises ``ValueError``).

    The log is ``sum_M alpha sigma_2(M) q^M / M``; with ``alpha = a/b`` its
    numerators over ``M b^M`` are the ints ``a sigma_2(M) b^(M-1)``, so
    :func:`exp_numerators` gives the coefficients ``G_n / (n! b^n)``.  This
    route is independent of the product form ``tests/reference.py::macmahon``
    that the tests compare it with.
    """
    order = check_order(order)
    alpha = rational(alpha)
    a, b = alpha.numerator, alpha.denominator
    sigma2 = [0] * (order + 1)
    for d in range(1, order + 1):
        for M in range(d, order + 1, d):
            sigma2[M] += d * d
    lam = [0] + [a * sigma2[M] * b ** (M - 1) for M in range(1, order + 1)]
    return QSeries([Fraction(g, factorial(n) * b**n) for n, g in enumerate(exp_numerators(lam))])


class QPSeries:
    """A series in q whose coefficients are truncated series in p."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(rows)
        if not rows:
            raise ValueError("need at least the q^0 row")
        p_order = rows[0].order
        if any(r.order != p_order for r in rows):
            raise ValueError("all rows must share the same p-order")
        self.rows = rows

    @property
    def q_order(self):
        return len(self.rows) - 1

    @property
    def p_order(self):
        return self.rows[0].order

    def coefficient(self, q_pow, p_pow):
        return self.rows[check_order(q_pow)].coefficient(p_pow)

    def p_slice(self, p_pow):
        """The q-series of coefficients of ``p**p_pow``."""
        p_pow = check_order(p_pow)
        return QSeries([r.coeffs[p_pow] for r in self.rows])

    def __eq__(self, other):
        return isinstance(other, QPSeries) and self.rows == other.rows

    def __repr__(self):
        return "QPSeries[" + "; ".join(repr(r) for r in self.rows) + "]"
