import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, strategies as st

from tetrainst.series import (
    BadConstantTermError,
    QPSeries,
    QSeries,
    exp_numerators,
    macmahon_power,
    plethystic_exp,
)

from reference import binomial, invert, log, macmahon, power, truncate

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


def geometric(order):
    return QSeries([1] * (order + 1))


def test_exp_log_roundtrip():
    f = QSeries([1, 1, 0, 0, 0])
    assert log(f).exp() == f


def test_geometric_inverse():
    # (1 - q) * sum q^n = 1
    one_minus_q = binomial(-1, 1, 6)
    assert one_minus_q * geometric(6) == QSeries.one(6)
    assert invert(one_minus_q) == geometric(6)


def test_binomial_product_order3():
    f = binomial(1, 1, 3) * binomial(1, 2, 3)
    assert f == QSeries([1, 1, 1, 1])


def test_invert_needs_nonzero_constant():
    with pytest.raises(BadConstantTermError):
        invert(QSeries([0, 1, 2]))


def test_exp_needs_zero_constant():
    with pytest.raises(BadConstantTermError):
        QSeries([1, 1]).exp()


def test_pow_negative():
    f = binomial(-1, 1, 5)
    assert power(f, -2) == power(invert(f), 2)


def test_pow_multiplies_only_as_often_as_needed(monkeypatch):
    calls = []
    mul = QSeries.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    f = QSeries([1, 2, Fraction(1, 3), -1])
    for n in range(1, 9):
        want = f
        for _ in range(n - 1):
            want = mul(want, f)
        monkeypatch.setattr(QSeries, "__mul__", counted)
        calls.clear()
        got = power(f, n)
        monkeypatch.undo()
        # square-and-multiply: one squaring per bit below the top, one product per lower set bit
        assert len(calls) == (n.bit_length() - 1) + (bin(n).count("1") - 1)
        assert got == want


def test_shift():
    f = QSeries([1, 2, 3, 0, 0, 0])
    assert f.shift(1).coeffs[:3] == (Fraction(0), Fraction(1), Fraction(2))
    with pytest.raises(ValueError):
        f.shift(-1)
    assert QSeries([0, 0, 5, 7]).shift(-2) == QSeries([5, 7, 0, 0])
    # a shift past the whole series leaves zeros of the same order
    for order in range(4):
        f = QSeries(range(1, order + 2))
        for k in range(order + 4):
            g = f.shift(k)
            assert g.order == order
            assert g.coeffs == ((0,) * k + f.coeffs)[: order + 1]


def test_q_scale():
    f = QSeries([1, 1, 0])
    assert f.q_scale(1) == f
    assert f.q_scale(2) == QSeries([1, 2, 0])
    # double substitution composes multiplicatively
    g = f.q_scale(2).q_scale(3)
    assert g == f.q_scale(6)
    assert f.q_scale(-1) == QSeries([1, -1, 0])


def test_floats_raise():
    # a float's binary value is not the rational it was written as
    with pytest.raises(ValueError, match=r"float 0\.5"):
        QSeries([0.5, 0.1])
    with pytest.raises(ValueError, match=r"float 0\.1"):
        QSeries([1, 2]).q_scale(0.1)
    with pytest.raises(ValueError, match=r"float 0\.1"):
        QSeries([1]) * 0.1


def test_plethystic_exp_geometric():
    # Exp(q) = 1/(1-q)
    f = plethystic_exp(lambda n: QSeries([0, 1, 0, 0, 0, 0, 0]), 6)
    assert f == geometric(6)


def test_plethystic_exp_macmahon():
    # Exp(q/(1-q)^2) = M(q)
    def body(n):
        inner = power(invert(binomial(-1, 1, 6)), 2)
        return inner.shift(1)

    assert plethystic_exp(body, 6) == macmahon(6)


def test_plethystic_exp_zero():
    assert plethystic_exp(lambda n: QSeries.zero(4), 4) == QSeries.one(4)


def test_plethystic_exp_additive():
    rng = random.Random(11)
    f_coeffs = [0] + [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(5)]
    g_coeffs = [0] + [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(5)]

    def f(n):
        return QSeries([c * Fraction(2, 3) ** (n * k) for k, c in enumerate(f_coeffs)])

    def g(n):
        return QSeries([c * Fraction(2, 3) ** (n * k) for k, c in enumerate(g_coeffs)])

    def both(n):
        return f(n) + g(n)

    assert plethystic_exp(both, 5) == plethystic_exp(f, 5) * plethystic_exp(g, 5)


@example([1], 6)  # shorter than the order
@example([1, -2, 0, 3, -1, 2, 1], 3)  # longer than the order
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=7), st.integers(0, 6))
def test_plethystic_exp_matches_the_product_route(cs, order):
    # Exp(sum_k c_k q^k) = prod_k (1 - q^k)^(-c_k); no parameter, so every
    # plethystic power of the argument is the argument itself
    f = QSeries([0, *cs])
    want = QSeries.one(order)
    for k, c in enumerate(cs, start=1):
        want = want * power(binomial(-1, k, order), -c)
    got = plethystic_exp(lambda n: f, order)
    assert got == want
    assert all(type(c) is Fraction for c in got.coeffs)


@example([], 1)
@example([1], 1)  # exp(y) = sum y^n / n!, so every G_n is 1
@given(st.lists(st.integers(-(10**6), 10**6), max_size=10), st.integers(1, 10**4))
def test_exp_numerators_match_the_fraction_exp(lam, D):
    # exp(sum_M lam_M y^M / (M D^M)) has the coefficients G_n / (n! D^n)
    G = exp_numerators([0, *lam])
    assert len(G) == len(lam) + 1 and all(type(g) is int for g in G)
    want = QSeries([0, *(Fraction(c, M * D**M) for M, c in enumerate(lam, start=1))]).exp()
    assert [Fraction(g, factorial(n) * D**n) for n, g in enumerate(G)] == list(want.coeffs)


def test_macmahon_coefficients():
    assert [int(c) for c in macmahon(6).coeffs] == [1, 1, 3, 6, 13, 24, 48]


def test_macmahon_power():
    assert macmahon_power(0, 5) == QSeries.one(5)
    assert macmahon_power(1, 6) == macmahon(6)
    assert macmahon_power(2, 5) == power(macmahon(5), 2)
    assert power(macmahon_power(Fraction(1, 2), 5), 2) == macmahon(5)


def test_macmahon_power_rejects_floats():
    for alpha in (0.1, 2.0, -0.5):
        with pytest.raises(ValueError, match="float"):
            macmahon_power(alpha, 2)
    assert macmahon_power("1/2", 5) == macmahon_power(Fraction(1, 2), 5)


def test_macmahon_power_via_sigma2_matches_the_log_of_the_product(monkeypatch):
    alphas = [0, 1, 2, Fraction(1, 2), Fraction(-7, 3), Fraction(123456789, 987), Fraction(-123457, 9876)]
    want = {
        (alpha, n): (Fraction(alpha) * log(macmahon(n))).exp()
        for alpha in alphas
        for n in range(9)
    }

    def forbidden(*args):
        raise AssertionError("macmahon_power must not take the Fraction exp route")

    monkeypatch.setattr(QSeries, "exp", forbidden)
    for (alpha, n), f in want.items():
        assert macmahon_power(alpha, n) == f


def test_macmahon_coefficients_are_positive_integers():
    for c in macmahon(8).coeffs:
        assert c.denominator == 1 and c > 0


@given(st.lists(rationals, min_size=9, max_size=9), st.lists(rationals, min_size=9, max_size=9))
def test_truncation_consistency_mul(a, b):
    f8, g8 = QSeries(a), QSeries(b)
    f4, g4 = truncate(f8, 4), truncate(g8, 4)
    assert truncate(f8 * g8, 4) == f4 * g4


@given(st.lists(rationals, min_size=8, max_size=8))
def test_truncation_consistency_exp(a):
    f8 = QSeries([0] + a)
    assert truncate(f8.exp(), 4) == truncate(f8, 4).exp()


def brute_force_expansion(c, order):
    """1/([k^(1/2)q][k^(1/2)q^(-1)]) for k = c**2, expanded around q = 0.

    The product of brackets is k^(1/2) + k^(-1/2) - q - 1/q, so multiplying
    through by q the function is -q / (q**2 - (c + 1/c)q + 1); expand the
    denominator polynomial directly.
    """
    c = Fraction(c)
    den = truncate(QSeries([1, -(c + 1 / c), 1]), order)
    return -(invert(den).shift(1))


def test_expansion_convention_oracle():
    # the adopted c_m rule: 1/([k^(1/2)q][k^(1/2)q^(-1)]) = -sum ([k^m]/[k]) q^m
    for c in (Fraction(2), Fraction(3, 5), Fraction(7, 4)):
        expected = [Fraction(0)]
        for m in range(1, 6):
            expected.append(-(c ** m - c ** -m) / (c - 1 / c))
        assert brute_force_expansion(c, 5) == QSeries(expected)


def test_qpseries_basics():
    rows = [QSeries([1, 2, 3]), QSeries([0, 5, 0])]
    f = QPSeries(rows)
    assert f.q_order == 1 and f.p_order == 2
    assert f.coefficient(1, 1) == 5
    assert f.p_slice(1) == QSeries([2, 5])
    assert f == QPSeries(rows)
    with pytest.raises(ValueError):
        QPSeries([QSeries([1]), QSeries([1, 2])])


def test_a_coefficient_read_refuses_a_negative_index():
    # a negative index would read from the end, as a tuple's does
    f = QSeries([1, 2, 3])
    g = QPSeries([f, QSeries([0, 5, 0])])
    for call in (
        lambda: f.coefficient(-1),
        lambda: g.coefficient(-1, 0),
        lambda: g.coefficient(0, -1),
        lambda: g.coefficient(-1, -1),
        lambda: g.p_slice(-1),
    ):
        with pytest.raises(ValueError, match="a series needs at least its constant term"):
            call()
    # an index past the order is still an IndexError
    for call in (lambda: f.coefficient(3), lambda: g.coefficient(2, 0), lambda: g.coefficient(0, 3),
                 lambda: g.p_slice(3)):
        with pytest.raises(IndexError):
            call()
    assert (f.coefficient(2), g.coefficient(1, 1), g.p_slice(2)) == (3, 5, QSeries([3, 0]))
