from fractions import Fraction
from itertools import product
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from tetrainst import formulas

from tetrainst.algebra import (
    Character,
    CohPoint,
    EvalPoint,
    PoleAtPointError,
    bracket_eval,
    eval_monomial,
    monomial,
    t_monomial,
)
from tetrainst.formulas import (
    check_kappa_identity,
    closed_Z_K,
    closed_Z_coh,
    factorization_scale,
    factorized_Z,
    kappa_rbar,
    sgn,
)
from tetrainst.localization import sample_until
from tetrainst.partitions import enumerate_configurations, rank_vector
from tetrainst.series import QSeries

from reference import kappa_identity_by_fractions, rank1_relation_residual


def kpoint(seed):
    from tetrainst.localization import sample_point

    return sample_point(seed, (0, 0, 0, 0), "k")


def test_rank_vector():
    assert rank_vector([1, 0, "2", 0]) == (1, 0, 2, 0)
    assert kappa_rbar((1, 0, 2, 0)) == t_monomial(1, -1) + t_monomial(3, -2)
    assert kappa_rbar((1, 1, 1, 1)) == 0
    for bad in ((1, 2, 3), (1, 0, 0, 0, 0), (1, -1, 0, 0)):
        with pytest.raises(ValueError):
            rank_vector(bad)
        with pytest.raises(ValueError):
            kappa_rbar(bad)
    # a non-integer entry is rejected, not truncated
    for bad in ((1.5, 0, 0, 0), (0, 0, 0, 2.0), (Fraction(3, 2), 0, 0, 0), (0, Fraction(1), 0, 0)):
        with pytest.raises(ValueError):
            rank_vector(bad)
        with pytest.raises(ValueError):
            kappa_rbar(bad)
        with pytest.raises(ValueError):
            enumerate_configurations(bad, 1)
    # strings are ASCII digits, with whitespace around them at most
    assert rank_vector([" 1", "0 ", "\t2\n", 0]) == (1, 0, 2, 0)
    for bad in (("1_0", 0, 0, 0), ("+1", 0, 0, 0), ("-0", 0, 0, 0), ("\u0661", 0, 0, 0),
                ("\uff11", 0, 0, 0), ("\u00b2", 0, 0, 0), ("", 0, 0, 0), ("1 0", 0, 0, 0),
                (True, 0, 0, 0), (0, 0, 0, False)):
        with pytest.raises(ValueError):
            rank_vector(bad)
        with pytest.raises(ValueError):
            enumerate_configurations(bad, 1)


def test_closed_Z_K_vanishing():
    p = kpoint(2)
    f = closed_Z_K((1, 1, 1, 1), 3, p)
    assert f == QSeries.one(3)
    assert closed_Z_K((2, 2, 2, 2), 2, p) == QSeries.one(2)


def test_closed_Z_K_order_zero():
    assert closed_Z_K((0, 0, 0, 1), 0, kpoint(3)) == QSeries.one(0)


def one_box_weight(p):
    # [t1t2][t1t3][t2t3] / ([t1][t2][t3]) at p
    num = Character()
    den = Character()
    for i, j in ((1, 2), (1, 3), (2, 3)):
        num = num + Character.of(t_monomial(i) + t_monomial(j))
    for i in (1, 2, 3):
        den = den + Character.of(t_monomial(i))
    return bracket_eval(num - den, p)


def test_closed_Z_K_first_coefficient():
    def run(p):
        return closed_Z_K((0, 0, 0, 1), 1, p).coefficient(1), one_box_weight(p)

    (got, want), _, _ = sample_until(run, 5, (0, 0, 0, 1))
    assert got == want


def test_rank1_symmetry_under_swap():
    # swapping a1 and a4 exchanges legs 1 and 4
    p = EvalPoint((Fraction(2, 3), Fraction(5, 7), Fraction(3, 4)))
    swapped = EvalPoint((p.sqrt_t[3], p.sqrt_t[1], p.sqrt_t[2]))
    assert swapped.sqrt_t[3] == p.sqrt_t[0]
    assert closed_Z_K((1, 0, 0, 0), 3, swapped) == closed_Z_K((0, 0, 0, 1), 3, p)


def test_factorization_scale_exponents():
    # rvec = (2,0,0,0): the two factors carry kappa_1^(-1/2) and kappa_1^(1/2)
    assert factorization_scale((2, 0, 0, 0), 1, 1) == monomial((1, 0, 0, 0))
    assert factorization_scale((2, 0, 0, 0), 1, 2) == monomial((-1, 0, 0, 0))
    # a single rank-1 slot carries no rescaling at all
    assert factorization_scale((0, 0, 0, 1), 4, 1) == 0


def test_factorization_scale_refuses_a_slot_the_rank_vector_lacks():
    # factorized_Z has no factor there; legs 0 and 5 are in test_a_leg_outside_1_to_4_raises
    for rvec, i, l in (
        ((1, 1, 0, 0), 3, 1), ((1, 1, 0, 0), 1, 0), ((1, 1, 0, 0), 2, 2),
        ((2, 0, 0, 1), 1, 3), ((2, 0, 0, 1), 4, 0), ((2, 0, 0, 1), 4, 2), ((2, 0, 0, 1), 2, 1),
    ):
        with pytest.raises(ValueError, match=f"leg {i} of rank vector .* has no slot {l}"):
            factorization_scale(rvec, i, l)


def _packed_kappa_power(exps):
    """``prod_j kappa_j^(e_j)`` with ``kappa_j = t_j^(-1)``: ``monomial`` takes
    the doubled t-exponents ``-2 e_j``, each an int."""
    doubled = [-2 * Fraction(e) for e in exps]
    assert all(d.denominator == 1 for d in doubled)
    return monomial([int(d) for d in doubled])


def test_kappa_powers_are_the_docstring_exponents():
    slots = 0
    for rvec in product(range(4), repeat=4):
        assert kappa_rbar(rvec) == _packed_kappa_power(rvec)
        for i in range(1, 5):
            for l in range(1, rvec[i - 1] + 1):
                exps = [Fraction(rj * ((i > j) - (i < j)), 2) for j, rj in enumerate(rvec, start=1)]
                exps[i - 1] = Fraction(-rvec[i - 1] - 1, 2) + l
                assert factorization_scale(rvec, i, l) == _packed_kappa_power(exps)
                slots += 1
    assert slots == 1536


def test_factorized_rank1_is_rank1():
    p = kpoint(11)
    assert factorized_Z((0, 0, 0, 1), 3, p) == closed_Z_K((0, 0, 0, 1), 3, p)


@pytest.mark.parametrize("rvec", [(1, 1, 0, 0), (2, 0, 0, 0), (1, 0, 1, 0)])
def test_factorized_equals_closed(rvec):
    for seed in range(5):
        def run(p):
            return closed_Z_K(rvec, 3, p), factorized_Z(rvec, 3, p)

        (a, b), _, _ = sample_until(run, 100 + seed, rvec)
        assert a == b


def test_closed_Z_coh_vanishing():
    p = CohPoint((1, 2, 3))
    assert closed_Z_coh((1, 1, 1, 1), 4, p) == QSeries.one(4)


def test_closed_Z_coh_first_coefficient():
    # s = (1,2,3,-6), rvec = (0,0,0,1): exponent -(3)(4)(5)(-6)/(1*2*3*(-6)) = -10,
    # and the (-1)^r twist flips the q^1 coefficient to +10
    p = CohPoint((1, 2, 3))
    f = closed_Z_coh((0, 0, 0, 1), 1, p)
    assert f.coefficient(1) == 10


def test_closed_Z_coh_degenerate_point():
    # s4 = 0: a denominator factor of A vanishes, so the point is degenerate
    with pytest.raises(PoleAtPointError):
        closed_Z_coh((0, 0, 0, 1), 2, CohPoint((1, 2, -3), (5,)))


def test_closed_Z_coh_ignores_framing_components():
    a = CohPoint((1, 2, 3), (5,))
    b = CohPoint((1, 2, 3), (-9,))
    assert closed_Z_coh((0, 0, 0, 1), 3, a) == closed_Z_coh((0, 0, 0, 1), 3, b)


def test_kappa_identity_rank1():
    assert check_kappa_identity([Fraction(3, 2)], 6)


def test_kappa_identity_higher_rank():
    assert check_kappa_identity([Fraction(2), Fraction(5, 3)], 6)
    assert check_kappa_identity([Fraction(2), Fraction(3), Fraction(7, 5)], 6)
    assert check_kappa_identity([Fraction(2), Fraction(3, 2), Fraction(5, 4), Fraction(7, 6)], 6)


def test_kappa_identity_product_one():
    # total weight 1: the right side is identically zero, so the left side
    # must cancel order by order
    assert check_kappa_identity([Fraction(2), Fraction(1, 2)], 6)


def test_kappa_identity_fails_without_the_exponent_rule(monkeypatch):
    # reversing sgn is no mutant: it swaps which side of slot i each b_j is
    # on, and the sum still telescopes
    monkeypatch.setattr(formulas, "sgn", lambda x: -sgn(x))
    assert check_kappa_identity([Fraction(2), Fraction(5, 3)], 6)
    monkeypatch.setattr(formulas, "sgn", lambda x: 0)
    assert not check_kappa_identity([Fraction(2), Fraction(5, 3)], 6)
    assert not check_kappa_identity([Fraction(2), Fraction(3), Fraction(7, 5)], 6)


# exponent rules for b_j in c_i: the true one, and rules under which the
# identity holds (reversed) or fails
_RULES = [sgn, lambda x: -sgn(x), lambda x: 0, lambda x: int(x > 0), lambda x: -int(x < 0)]


@example([Fraction(2), Fraction(1, 2)], 6, 0)
@example([Fraction(2), Fraction(5, 3)], 6, 2)
@given(
    st.lists(st.fractions(min_value=Fraction(1, 40), max_value=40, max_denominator=40), min_size=1, max_size=5),
    st.integers(0, 8),
    st.sampled_from(range(len(_RULES))),
)
def test_kappa_identity_agrees_with_the_fraction_expansion(bs, order, which):
    rule = _RULES[which]
    with mock.patch.object(formulas, "sgn", rule):
        got = check_kappa_identity(bs, order)
    assert got == kappa_identity_by_fractions(bs, order, rule)


def test_kappa_identity_rejects_a_negative_order():
    with pytest.raises(ValueError):
        check_kappa_identity([Fraction(2)], -1)


def test_kappa_identity_rejects_nonpositive():
    with pytest.raises(ValueError):
        check_kappa_identity([Fraction(-2)], 4)


def test_kappa_identity_rejects_floats():
    for sqrt_xs in ([0.1, 2.5], [Fraction(2), 1.5], [2.0]):
        with pytest.raises(ValueError, match="float"):
            check_kappa_identity(sqrt_xs, 3)
    # ints and strings stay exact
    assert check_kappa_identity([2, "5/3"], 4)


def test_rank1_relation():
    for seed in range(5):
        val, _, _ = sample_until(rank1_relation_residual, 50 + seed, (0, 0, 0, 1))
        assert val == 0
