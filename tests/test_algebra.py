import random
from fractions import Fraction
from functools import reduce
from math import prod
from operator import add

import pytest
from hypothesis import assume, example, given, strategies as st

from tetrainst import algebra
from tetrainst.algebra import (
    FIELD_BITS,
    Character,
    CohPoint,
    EvalPoint,
    FractionalPowerError,
    PoleAtPointError,
    TrivialWeightError,
    _root,
    bracket_eval,
    bracket_ratio,
    eval_monomial,
    euler_eval,
    exponents,
    monomial,
    t_monomial,
    theta_eval,
    theta_sums,
    w_monomial,
)
from tetrainst.localization import Z_loc_ell, sample_point
from tetrainst.partitions import enumerate_configurations
from tetrainst.series import QSeries
from tetrainst.vertex import build_fixed_point, char_P, vertex

from reference import invert, power, theta_monomial, truncate


def test_canonicalize_relation():
    # t1 t2 t3 t4 is the trivial weight
    assert monomial((2, 2, 2, 2)) == 0
    # t4 = t1^-1 t2^-1 t3^-1, stored that way
    assert t_monomial(4) == monomial((-2, -2, -2, 0))
    assert exponents(t_monomial(4)) == (-2, -2, -2)
    # already canonical stays put
    assert exponents(monomial((2, 0, 0, 0), (1,))) == (2, 0, 0, 1)


def test_w_monomial_is_the_packed_framing_weight():
    # w_monomial packs in closed form; monomial packs field by field
    for slot in (0, 1, 2, 3, 7, 39):
        assert w_monomial(slot) == monomial((0, 0, 0, 0), (0,) * slot + (2,))
        assert exponents(w_monomial(slot)) == (0, 0, 0) + (0,) * slot + (2,)


def test_weight_constructors_reject_what_they_cannot_pack():
    # each of these once aliased another weight (t_monomial(0) was t4,
    # w_monomial(-1) was t3), dropped an entry or raised IndexError
    for i in (0, -1, 5):
        with pytest.raises(ValueError, match="leg index"):
            t_monomial(i)
    with pytest.raises(ValueError, match="w-slot"):
        w_monomial(-1)
    for texp in ((2, 0, 0), (2, 0, 0, 0, 7), ()):
        with pytest.raises(ValueError, match="4 entries"):
            monomial(texp)
    # valid input packs to the same ints as before
    f = FIELD_BITS
    assert [t_monomial(i) for i in range(1, 5)] == [2, 2 << f, 2 << 2 * f, -2 - (2 << f) - (2 << 2 * f)]
    assert (t_monomial(2, -1), t_monomial(4, 3)) == (-(2 << f), -6 - (6 << f) - (6 << 2 * f))
    assert [w_monomial(s) for s in (0, 1, 5)] == [2 << 3 * f, 2 << 4 * f, 2 << 8 * f]
    assert monomial((2, 0, 0, 0)) == 2
    assert monomial((1, -1, 3, 1), (0, -2, 5)) == (-2 << f) + (2 << 2 * f) + (-2 << 4 * f) + (5 << 5 * f)


def test_canonical_idempotent_and_multiplicative():
    rng = random.Random(1)
    for _ in range(50):
        ea = tuple(rng.randint(-4, 4) for _ in range(4))
        eb = tuple(rng.randint(-4, 4) for _ in range(4))
        a, b = monomial(ea), monomial(eb)
        fields = exponents(a)
        assert len(fields) <= 3
        assert monomial(fields + (0,) * (4 - len(fields))) == a
        assert a + b == monomial(tuple(x + y for x, y in zip(ea, eb)))
        assert -a == monomial(tuple(-x for x in ea))
        assert 3 * a == monomial(tuple(3 * x for x in ea))


_exponents = st.integers(-4, 4)
_monomials = st.builds(
    monomial, st.tuples(*[_exponents] * 4), st.tuples(_exponents, _exponents)
)
_characters = st.dictionaries(
    _monomials, st.sampled_from([-2, -1, 1, 2]), max_size=4
).map(Character)


@given(st.tuples(*[_exponents] * 4), st.tuples(_exponents), st.integers(-3, 3))
def test_constructor_absorbs_the_calabi_yau_relation(texp, wexp, c):
    assert monomial(tuple(e + c for e in texp), wexp) == monomial(texp, wexp)


@given(_monomials, _monomials, _monomials)
def test_monomial_product_associative(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + -a == 0
    # the packed sum is the product of the values
    p = EvalPoint((Fraction(2, 3), 5, 7), (Fraction(3, 2), 11))
    assert eval_monomial(a + b, p) == eval_monomial(a, p) * eval_monomial(b, p)


_HALF = 2 ** (FIELD_BITS - 1)
_field = st.integers(-_HALF, _HALF - 1)


def _packed(fields):
    """The weight with the given t1, t2, t3 and w fields (t4 exponent 0)."""
    fields = list(fields)
    fields += [0] * (3 - len(fields))
    return monomial((*fields[:3], 0), fields[3:])


@given(st.tuples(_field, _field, _field), st.lists(_field, max_size=5), st.integers(-(2**40), 2**40))
def test_exponents_round_trip(t3, wexp, c):
    canonical = list(t3) + wexp
    while canonical and not canonical[-1]:
        canonical.pop()
    assert exponents(monomial(tuple(e + c for e in t3) + (c,), wexp)) == tuple(canonical)


@given(
    st.tuples(*[_exponents] * 4),
    st.lists(_exponents, max_size=3),
    st.tuples(*[_exponents] * 4),
    st.lists(_exponents, max_size=3),
    st.integers(-5, 5),
)
def test_packing_is_linear(ta, wa, tb, wb, n):
    a, b = monomial(ta, wa), monomial(tb, wb)
    # an absent w-slot is a zero exponent
    width = max(len(wa), len(wb))
    wa, wb = (w + [0] * (width - len(w)) for w in (wa, wb))
    assert a + b == monomial(
        tuple(x + y for x, y in zip(ta, tb)), tuple(x + y for x, y in zip(wa, wb))
    )
    assert -a == monomial(tuple(-x for x in ta), tuple(-x for x in wa))
    assert n * a == monomial(tuple(n * x for x in ta), tuple(n * x for x in wa))


_half_fields = st.lists(st.integers(-(2**20), 2**20), max_size=6)


def _unrow(row):
    """The fields of the root ``row``, as :func:`exponents` gives them."""
    fields = [0] * row[0]
    for k, h in zip(row[1::2], row[2::2]):
        assert h and not fields[k]
        fields[k] = h
    return tuple(fields)


@given(_half_fields.filter(lambda h: any(e < 0 for e in h)))
def test_sqrt_halves_every_field(halves):
    m = _packed(2 * e for e in halves)
    row = _root(m)
    assert type(row) is tuple and all(type(x) is int for x in row)
    assert _unrow(row) == exponents(_packed(halves))
    # the pairs name the nonzero fields only, in field order
    assert list(row[1::2]) == [k for k, e in enumerate(halves) if e]
    assert _root(m) is row


@given(_half_fields, st.integers(0, 5), st.integers(-(2**20), 2**20))
def test_sqrt_rejects_any_odd_field(halves, k, odd):
    fields = [2 * e for e in halves] + [0] * (6 - len(halves))
    fields[k] = 2 * odd + 1
    with pytest.raises(FractionalPowerError):
        _root(_packed(fields))


def test_a_half_integer_weight_fails_on_every_call():
    m = monomial((1, 0, 0, 0), (2,))
    p, q = EvalPoint((2, 3, 5), (7,)), CohPoint((3, 5, 7), (2,))
    for _ in range(2):
        with pytest.raises(FractionalPowerError):
            _root(m)
        with pytest.raises(FractionalPowerError):
            bracket_eval(Character.of(m), p)
        with pytest.raises(FractionalPowerError):
            euler_eval(Character.of(m), q)
        with pytest.raises(FractionalPowerError):
            theta_eval(Character({m: 1, t_monomial(1): -1}), p, 2)
    # its double is an integer weight, and its root is m's fields
    assert _unrow(_root(2 * m)) == exponents(m)


@pytest.mark.parametrize("k", range(5))
def test_field_overflow(k):
    def at(e):
        return _packed([0] * k + [e])

    for e in (-_HALF, _HALF - 1):
        assert exponents(at(e))[k] == e
    for e in (-_HALF - 1, _HALF):
        with pytest.raises(OverflowError):
            at(e)
    # the t-fields are checked after t4 is eliminated
    if k < 3:
        texp = [0, 0, 0, 1]
        texp[k] = -_HALF
        with pytest.raises(OverflowError):
            monomial(texp)


@given(st.integers(0, 3), st.integers(0, 3))
def test_weight_beyond_the_point_raises(nslots, slot):
    m = w_monomial(slot) + t_monomial(1)
    p = EvalPoint((2, 3, 5), range(7, 7 + nslots))
    q = CohPoint((3, 5, 7), range(2, 2 + nslots))
    if slot < nslots:
        assert eval_monomial(m, p) == 4 * (7 + slot) ** 2
        assert euler_eval(Character.of(m), q) == 3 + 2 + slot
    else:
        with pytest.raises(ValueError):
            eval_monomial(m, p)
        with pytest.raises(ValueError):
            euler_eval(Character.of(m), q)
        with pytest.raises(ValueError):
            bracket_eval(Character.of(m), p)


def test_a_decoded_weight_is_checked_against_every_point():
    # the weight's root is decoded at a 2-slot point, then read back from the
    # cache at a 1-slot point, where it has no base for w-slot 1
    m = w_monomial(1) + t_monomial(2)
    _root.cache_clear()
    measures = (
        lambda V, slots: bracket_eval(V, EvalPoint((2, 3, 5), range(7, 7 + slots))),
        lambda V, slots: euler_eval(V, CohPoint((3, 5, 7), range(2, 2 + slots))),
        lambda V, slots: theta_eval(V, EvalPoint((2, 3, 5), range(7, 7 + slots)), 3),
    )
    for measure in measures:
        V = Character({m: 1, t_monomial(1): -1})
        measure(V, 2)
        hits = _root.cache_info().hits
        with pytest.raises(ValueError, match=r"weight t2\^\(1\)\*w\[1\]\^\(1\) has more slots"):
            measure(V, 1)
        assert _root.cache_info().hits > hits


def _reordered(data, V):
    """``V`` rebuilt from a drawn permutation of its terms."""
    return Character(dict(data.draw(st.permutations(list(V.terms.items())))))


@given(_characters, st.data())
def test_a_character_in_any_term_order_is_equal_and_hashes_equal(V, data):
    W = _reordered(data, V)
    assert W == V and hash(W) == hash(V)


@given(st.lists(_characters, min_size=1, max_size=3), st.data())
def test_characters_deduplicate_as_their_terms_do(pool, data):
    chars = [_reordered(data, data.draw(st.sampled_from(pool))) for _ in range(data.draw(st.integers(0, 6)))]
    by_terms = {}
    for V in chars:
        by_terms.setdefault(frozenset(V.terms.items()), V)
    # the same characters, the first of each, in the same order
    assert list(map(id, dict.fromkeys(chars))) == list(map(id, by_terms.values()))


@given(_characters, _characters, _characters)
def test_character_ring_axioms(U, V, W):
    assert (U * V) * W == U * (V * W)
    assert U * (V + W) == U * V + U * W
    assert (U + V) * W == U * W + V * W


@given(st.lists(_characters, max_size=5))
def test_sum_is_repeated_addition(xs):
    assert Character.sum(xs) == reduce(add, xs, Character())
    assert Character.sum(iter(xs)) == Character.sum(xs)


@given(_characters, _characters)
def test_operations_leave_their_operands_unchanged(V, W):
    before = (dict(V.terms), dict(W.terms))
    results = [V + W, V - W, V * W, -V, V.dual(), Character.sum([V, W, V])]
    assert (V.terms, W.terms) == before
    # and no result shares its dict with an operand
    assert all(r.terms is not x.terms for r in results for x in (V, W))


@given(st.lists(_characters, min_size=2, max_size=4))
def test_no_stored_multiplicity_is_zero(xs):
    V, W = xs[0], xs[1]
    zeros = Character({**dict.fromkeys(W.terms, 0), **V.terms})
    assert zeros == V
    for r in (zeros, V + W, V - W, V - V, V * W, -V, V.dual(), Character({0: V.terms.get(0, 0)}), Character.sum(xs)):
        assert 0 not in r.terms.values()


@given(_characters, _characters)
def test_dual_is_an_involution_respecting_products(V, W):
    assert V.dual().dual() == V
    assert (V * W).dual() == V.dual() * W.dual()
    assert (V + W).dual() == V.dual() + W.dual()


def test_dual():
    V = Character({t_monomial(1): 1, t_monomial(2, -1): 2})
    assert V.dual() == Character({t_monomial(1, -1): 1, t_monomial(2): 2})
    assert Character.one().dual() == Character.one()
    P = char_P({1, 2, 3})
    assert P.dual().dual() == P


def test_character_arithmetic():
    one = Character.one()
    t1 = Character.of(t_monomial(1))
    t1i = Character.of(t_monomial(1, -1))
    assert (one - t1) * (one - t1i) == one + one - t1 - t1i
    V = char_P({1, 2}) * char_P({3})
    assert V - V == Character()


def test_P123_plus_dual_is_P1234():
    # needs the Calabi-Yau relation to hold at construction
    P = char_P({1, 2, 3})
    assert P + P.dual() == char_P({1, 2, 3, 4})
    for j in range(1, 5):
        others = {k for k in range(1, 5) if k != j}
        Pj = char_P(others)
        assert Pj + Pj.dual() == char_P({1, 2, 3, 4})


def test_fixed_and_movable_parts():
    V = Character({0: 3, t_monomial(1): 1})
    fixed = Character({0: V.terms.get(0, 0)})
    assert fixed == Character({0: 3})
    assert V - fixed == Character.of(t_monomial(1))
    assert 0 not in (V - fixed).terms
    assert Character().terms.get(0, 0) == 0


def test_character_repr_prints_weights_as_powers():
    V = Character({
        monomial((1, 0, 0, 0), (0, -2)): 2,
        t_monomial(4): -1,
        monomial((0, 0, 0, 0), (1,)): 3,
        t_monomial(1): 1,
    })
    assert repr(V) == (
        "Character(-1*t1^(-1)*t2^(-1)*t3^(-1) + 3*w[0]^(1/2) + 2*t1^(1/2)*w[1]^(-1) + 1*t1^(1))"
    )
    assert repr(Character()) == "Character(0)"
    with pytest.raises(PoleAtPointError, match=r"bracket factor t1\^\(1\) vanishes$"):
        bracket_eval(Character.of(t_monomial(1), -1), EvalPoint((1, 3, 5)))


def test_eval_monomial():
    p = EvalPoint((2, 3, 5))
    assert eval_monomial(t_monomial(1), p) == 4
    assert eval_monomial(monomial((1, 0, 0, 0)), p) == 2
    assert eval_monomial(t_monomial(4), p) == Fraction(1, 900)
    pw = EvalPoint((2, 3, 5), (7,))
    assert eval_monomial(w_monomial(0), pw) == 49


def test_eval_point_relation():
    p = EvalPoint((Fraction(2, 3), 5, 7))
    a1, a2, a3, a4 = p.sqrt_t
    assert a1 * a2 * a3 * a4 == 1
    # the third Adams power of a weight is its packed int times 3
    m = t_monomial(1) + t_monomial(3, -1)
    cubed = EvalPoint((Fraction(8, 27), 125, 343))
    assert bracket_eval(Character.of(3 * m), p) == bracket_eval(Character.of(m), cubed)


def test_points_reject_floats():
    p = EvalPoint((2, 3, 5), (7,))
    for build in (
        lambda: EvalPoint((0.1, 2, 3)),
        lambda: EvalPoint((2, 3, 5), (0.5,)),
        lambda: p.with_sqrt_w((0.5,)),
        lambda: CohPoint((0.1, 2, 3)),
        lambda: CohPoint((2, 3, 5), (0.5,)),
    ):
        with pytest.raises(ValueError, match="float"):
            build()
    # exact rationals given as strings stay exact
    assert EvalPoint(("1/10", 2, 3)).sqrt_t[0] == Fraction(1, 10)


@pytest.mark.parametrize("sqrt_t3, sqrt_w", [
    ((0, 3, 5), (7,)),
    ((2, 3, Fraction(0)), (7,)),
    ((2, 3, 5), (7, 0)),
], ids=["t1", "t3", "w-slot"])
def test_a_zero_square_root_base_raises(sqrt_t3, sqrt_w):
    # one check over all bases, before a4 = 1 / (a1 a2 a3) is taken
    with pytest.raises(ValueError, match="^square-root bases must be nonzero$"):
        EvalPoint(sqrt_t3, sqrt_w)


def test_bracket_basics():
    p = EvalPoint((2, 3, 5))
    assert bracket_eval(Character.of(t_monomial(1)), p) == Fraction(3, 2)
    assert bracket_eval(Character.of(t_monomial(1, -1)), p) == Fraction(-3, 2)
    with pytest.raises(TrivialWeightError):
        bracket_eval(Character.of(0), p)
    with pytest.raises(TrivialWeightError):
        bracket_eval(Character.one(), p)


def test_bracket_multiplicative_and_dual_sign():
    rng = random.Random(5)
    p = EvalPoint((Fraction(2, 3), Fraction(5, 7), Fraction(11, 2)))
    for _ in range(30):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            m = monomial(tuple(2 * rng.randint(-2, 2) for _ in range(4)))
            if not m:
                continue
            terms[m] = terms.get(m, 0) + rng.choice([1, 2, -1])
        V = Character(terms)
        if 0 in V.terms:
            continue
        try:
            val = bracket_eval(V, p)
            dval = bracket_eval(V.dual(), p)
        except PoleAtPointError:
            continue
        assert dval == (-1) ** (V.rank() % 2) * val
        W = Character.of(t_monomial(2), 3)
        assert bracket_eval(V + W, p) == val * bracket_eval(W, p)


def test_bracket_pole():
    # a1 = 1 makes [t1] = 0, so the point is degenerate for any character
    # with t1 in it, whether in the denominator or in the numerator
    p = EvalPoint((1, 3, 5))
    for mult in (-1, 1, 2):
        with pytest.raises(PoleAtPointError):
            bracket_eval(Character.of(t_monomial(1), mult), p)
    with pytest.raises(PoleAtPointError):
        bracket_eval(Character.of(t_monomial(1)), p)


def test_zero_over_zero_is_a_pole_in_either_term_order():
    # a1 = a2 makes both [t1/t2] and [t2/t1] vanish
    p = EvalPoint((3, 3, 5))
    up = t_monomial(1) + t_monomial(2, -1)
    down = -up
    for terms in ({up: 1, down: -1}, {down: -1, up: 1}):
        with pytest.raises(PoleAtPointError):
            bracket_eval(Character(terms), p)
    q = CohPoint((3, 3, 5))
    for terms in ({up: 1, down: -1}, {down: -1, up: 1}):
        with pytest.raises(PoleAtPointError):
            euler_eval(Character(terms), q)


def _outcome(measure, V, p):
    try:
        return measure(V, p)
    except (PoleAtPointError, TrivialWeightError, FractionalPowerError) as exc:
        return type(exc)


# t1/t2 and t2/t1 vanish under both measures at the points below (a1 = a2,
# s1 = s2); the trivial and the half weight are invalid in a character
_T12 = t_monomial(1) + t_monomial(2, -1)
_WEIGHT_POOL = [
    _T12,
    -_T12,
    t_monomial(1),
    t_monomial(3),
    t_monomial(1) + t_monomial(3),
    0,
    monomial((0, 0, 1, 0)),
]


@given(
    st.dictionaries(st.sampled_from(_WEIGHT_POOL), st.sampled_from([-2, -1, 1, 2]), min_size=1),
    st.data(),
)
def test_measures_ignore_term_order(terms, data):
    items = list(terms.items())
    shuffled = data.draw(st.permutations(items))
    for measure, point in (
        (bracket_eval, lambda: EvalPoint((3, 3, 5))),
        (euler_eval, lambda: CohPoint((3, 3, 5))),
    ):
        want = _outcome(measure, Character(dict(items)), point())
        assert _outcome(measure, Character(dict(shuffled)), point()) == want
        # the per-point values filled by the first order serve the second
        p = point()
        _outcome(measure, Character(dict(items)), p)
        assert _outcome(measure, Character(dict(shuffled)), p) == want


def _reduced_ratio(V, p):
    num, den = bracket_ratio(V, p)
    assert type(num) is int and type(den) is int
    return Fraction(num, den)


@given(
    st.dictionaries(st.sampled_from(_WEIGHT_POOL), st.sampled_from([-2, -1, 1, 2]), min_size=1),
    st.data(),
)
def test_the_bracket_pair_reduces_to_the_bracket_in_any_term_order(terms, data):
    # a fixed part, a half weight or a vanishing factor raises the same error
    # from the pair as from the bracket, whatever the order of the terms
    shuffled = Character(dict(data.draw(st.permutations(list(terms.items())))))
    for point in (lambda: EvalPoint((3, 3, 5)), _generic_point):
        want = _outcome(bracket_eval, Character(terms), point())
        assert _outcome(_reduced_ratio, shuffled, point()) == want
        # and from values the bracket filled in at the same point
        p = point()
        _outcome(bracket_eval, Character(terms), p)
        assert _outcome(_reduced_ratio, shuffled, p) == want


def _ref_bracket(m, p):
    """The bracket of one weight in Fractions: ``s - 1/s`` for its root ``s``."""
    bases = p.sqrt_t[:3] + p.sqrt_w
    s = prod((a ** e for a, e in zip(bases, exponents(m >> 1))), start=Fraction(1))
    return s - 1 / s


def _ref_euler(m, q):
    """The Euler class of one weight in Fractions."""
    return sum((s * e for s, e in zip(q.s[:3] + q.v, exponents(m >> 1))), Fraction(0))


def _by_factors(V, p, ref):
    """``prod ref(m, p) ** mult`` over ``V``, one Fraction factor at a time,
    or the type of the error the measures raise on ``V``."""
    if 0 in V.terms:
        return TrivialWeightError
    if any(e % 2 for m in V.terms for e in exponents(m)):
        return FractionalPowerError
    factors = [(ref(m, p), mult) for m, mult in V.terms.items()]
    if any(not x for x, _ in factors):
        return PoleAtPointError
    return prod((x ** mult for x, mult in factors), start=Fraction(1))


def _same_as_by_factors(measure, V, p, ref):
    got = _outcome(measure, V, p)
    assert got == _by_factors(V, p, ref)
    assert isinstance(got, type) or type(got) is Fraction


_BY_FACTORS_POINTS = [
    # a1 * a2 == 1: the int pair of t1*t2 is (6, 6), reduced only at the end
    (bracket_eval, _ref_bracket,
     lambda: EvalPoint((Fraction(3, 2), Fraction(2, 3), 5), (Fraction(-7, 3), Fraction(1, 4)))),
    # negative bases
    (bracket_eval, _ref_bracket,
     lambda: EvalPoint((Fraction(-2, 5), 3, Fraction(9, 4)), (2, Fraction(-1, 6)))),
    # roots with different denominators, and root sums that vanish
    (euler_eval, _ref_euler,
     lambda: CohPoint((Fraction(1, 6), Fraction(-3, 4), Fraction(5, 9)), (Fraction(3, 4), -1))),
]


# a lone numerator factor that vanishes at the first point (a1 * a2 == 1)
@example(Character.of(t_monomial(1) + t_monomial(2)), 0)
@given(_characters, st.sampled_from(range(len(_BY_FACTORS_POINTS))))
def test_measures_match_fraction_products_factor_by_factor(V, which):
    measure, ref, point = _BY_FACTORS_POINTS[which]
    # doubling every weight makes it an integer weight, so the product is taken
    doubled = Character({2 * m: mult for m, mult in V.terms.items()})
    for W in (V, doubled):
        _same_as_by_factors(measure, W, point(), ref)


@pytest.mark.parametrize("seed", range(3))
def test_measures_match_fraction_products_on_minus_the_vertex(seed):
    rvec = (1, 1, 0, 0)
    p, q = sample_point(seed, rvec, "k"), sample_point(seed, rvec, "coh")
    for n in range(4):
        for config in enumerate_configurations(rvec, n):
            V = -vertex(build_fixed_point(config))
            _same_as_by_factors(bracket_eval, V, p, _ref_bracket)
            _same_as_by_factors(euler_eval, V, q, _ref_euler)


def test_derived_points_start_with_no_values():
    V = Character({t_monomial(1): 1, w_monomial(0): -1})
    W = Character(
        {t_monomial(1) - w_monomial(0): 2, t_monomial(3, -1) - w_monomial(0): -1, t_monomial(2): 1}
    )
    p = EvalPoint((Fraction(2, 3), 5, 7), (Fraction(3, 2),))
    bracket_eval(V, p)
    bracket_eval(W, p)
    theta_eval(V, p, 2)
    assert p.values
    # a derived point evaluates from its own integer bases, as a point built
    # directly from the same bases does
    for derived, fresh in (
        (p.with_sqrt_w((11,)), EvalPoint((Fraction(2, 3), 5, 7), (11,))),
        (p.with_sqrt_w((Fraction(-5, 7),)), EvalPoint((Fraction(2, 3), 5, 7), (Fraction(-5, 7),))),
    ):
        assert derived.bases == fresh.bases
        assert bracket_eval(V, derived) == bracket_eval(V, fresh)
        assert bracket_eval(W, derived) == bracket_eval(W, fresh) != bracket_eval(W, p)
        assert theta_eval(V, derived, 2) == theta_eval(V, fresh, 2)
    c = CohPoint((3, 5, 7), (2,))
    euler_eval(V, c)
    euler_eval(W, c)
    assert c.values
    for v in ((4,), (Fraction(5, 12),), (Fraction(-1, 10),)):
        derived, fresh = CohPoint(c.s[:3], v), CohPoint((3, 5, 7), v)
        assert (derived.denominator, derived.bases) == (fresh.denominator, fresh.bases)
        assert euler_eval(V, derived) == euler_eval(V, fresh)
        assert euler_eval(W, derived) == euler_eval(W, fresh) != euler_eval(W, c)


def test_bracket_needs_integer_weight():
    p = EvalPoint((2, 3, 5))
    with pytest.raises(FractionalPowerError):
        bracket_eval(Character.of(monomial((1, 0, 0, 0))), p)


def test_euler_basics():
    p = CohPoint((3, 5, 7))
    assert p.s[3] == -15
    m = t_monomial(1) + t_monomial(2, -1)
    assert euler_eval(Character.of(m), p) == 3 - 5
    V = Character({t_monomial(1): 1, t_monomial(2): 1})
    assert euler_eval(V, p) == 15
    assert euler_eval(Character.of(t_monomial(1), -1), p) == Fraction(1, 3)
    with pytest.raises(TrivialWeightError):
        euler_eval(Character.of(0), p)


def test_euler_multiplicative():
    p = CohPoint((3, 5, 7), (2,))
    V = Character({t_monomial(1): 2})
    W = Character({w_monomial(0): 1})
    assert euler_eval(V + W, p) == euler_eval(V, p) * euler_eval(W, p)


def test_theta_refuses_a_negative_prefactor_before_any_work(monkeypatch):
    # the series of a negative rank starts below p^0; the rank is named
    # before any root, bracket or Adams sum is computed
    def no_work(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(algebra, "_root_at", no_work)
    p = EvalPoint((2, 3, 5), (7,))
    valid = Character.of(t_monomial(1)) - Character.of(w_monomial(0))
    negative, half = Character.of(t_monomial(1), -12), Character.of(t_monomial(1), 6)
    message = r"a character of rank -12 has the prefactor p\^\(-1\)"
    with pytest.raises(ValueError, match=message):
        theta_eval(negative, p, 3)
    for groups in ([[valid, negative]], [[valid], [negative]], [[negative], [half]]):
        with pytest.raises(ValueError, match=message):
            theta_sums(groups, p, 3)
    # in character order, after the fractional check of each character
    with pytest.raises(FractionalPowerError):
        theta_sums([[valid, half], [negative]], p, 3)
    with pytest.raises(ValueError, match="rank -24 has the prefactor"):
        theta_eval(Character.of(t_monomial(1), -24), p, 0)


def test_theta_constant_term_is_bracket():
    rng = random.Random(17)
    p = EvalPoint((Fraction(3, 2), Fraction(7, 5), Fraction(2, 9)))
    checked = 0
    while checked < 100:
        # random rank-0 movable character
        plus, minus = [], []
        for _ in range(rng.randint(1, 3)):
            for bucket in (plus, minus):
                m = monomial(tuple(2 * rng.randint(-2, 2) for _ in range(4)))
                bucket.append(m)
        terms = {}
        for m in plus:
            terms[m] = terms.get(m, 0) + 1
        for m in minus:
            terms[m] = terms.get(m, 0) - 1
        V = Character(terms)
        if 0 in V.terms or V.rank() != 0:
            continue
        try:
            f = theta_eval(V, p, 3)
            b = bracket_eval(V, p)
        except PoleAtPointError:
            continue
        assert f.coeffs[0] == b
        checked += 1


def test_theta_antisymmetry():
    p = EvalPoint((2, 3, 5))
    m = t_monomial(1)
    assert theta_monomial(-m, p, 4) == -theta_monomial(m, p, 4)


def test_theta_cancellation():
    p = EvalPoint((2, 3, 5))
    V = Character({t_monomial(1): 1}) - Character({t_monomial(1): 1})
    f = theta_eval(V, p, 4)
    assert all(c == 0 for c in f.coeffs[1:]) and f.coeffs[0] == 1


def test_theta_fractional_prefactor():
    p = EvalPoint((2, 3, 5))
    with pytest.raises(FractionalPowerError):
        theta_eval(Character.of(t_monomial(1)), p, 2)


def _theta_by_products(V, p, order):
    """The product-form route: each weight's theta series to its multiplicity."""
    val = QSeries.one(order)
    for m, mult in V.terms.items():
        f = theta_monomial(m, p, order)
        val = val * (power(f, mult) if mult >= 0 else power(invert(f), -mult))
    assert V.rank() % 12 == 0
    return val.shift(V.rank() // 12)


_THETA_POINTS = [
    EvalPoint((Fraction(2, 3), Fraction(5, 7), Fraction(11, 2)), (Fraction(3, 5), 13, Fraction(17, 19))),
    # negative square-root bases flip the signs of the brackets' factors
    EvalPoint((Fraction(-3, 2), Fraction(5, 7), Fraction(-2, 9)), (Fraction(-11, 4), Fraction(3, 5))),
]


@pytest.mark.parametrize("rvec, max_size", [((1, 0, 0, 1), 3), ((1, 1, 0, 0), 2)])
def test_theta_matches_the_product_route_on_minus_the_vertex(rvec, max_size):
    p = _THETA_POINTS[0]
    for n in range(max_size + 1):
        for config in enumerate_configurations(rvec, n):
            V = -vertex(build_fixed_point(config))
            for order in range(6):
                assert theta_eval(V, p, order) == _theta_by_products(V, p, order)


def test_theta_matches_the_product_route_at_negative_bases():
    p = _THETA_POINTS[1]
    for n in range(4):
        for config in enumerate_configurations((1, 0, 0, 1), n):
            V = -vertex(build_fixed_point(config))
            assert theta_eval(V, p, 6) == _theta_by_products(V, p, 6)


def _minus_vertices(rvec, n):
    """Minus the vertex of each configuration of size ``n``, built directly."""
    return [-vertex(build_fixed_point(c)) for c in enumerate_configurations(rvec, n)]


def test_theta_needs_no_series_product_and_no_fraction_exp(monkeypatch):
    p = _THETA_POINTS[0]
    levels = [_minus_vertices((1, 0, 0, 1), n) for n in range(3)]
    want = [_theta_by_products(V, p, 4) for V in levels[2]]
    rows = [reduce(add, (_theta_by_products(V, p, 4) for V in level)) for level in levels]

    def forbidden(*args):
        raise AssertionError("theta_eval must stay in ints until its coefficients")

    monkeypatch.setattr(QSeries, "__mul__", forbidden)
    monkeypatch.setattr(QSeries, "exp", forbidden)
    assert [theta_eval(V, p, 4) for V in levels[2]] == want
    assert list(Z_loc_ell((1, 0, 0, 1), 2, 4, p).rows) == rows


# the vertex of size n reaches the doubled exponent 2n in each t-field, so
# every level widens the exponent table past the levels below it, and a
# denominator taken from fewer weights than the call's is not a multiple of
# every weight's n*d
@pytest.mark.parametrize("rvec, q_order, p_order", [
    ((1, 0, 0, 1), 3, 6),
    ((1, 1, 0, 0), 2, 4),
    ((0, 0, 0, 1), 5, 4),
])
@pytest.mark.parametrize("which", range(len(_THETA_POINTS)))
def test_Z_loc_ell_is_the_sum_of_each_levels_theta_evals(rvec, q_order, p_order, which):
    p = _THETA_POINTS[which]
    rows = [
        reduce(add, (theta_eval(V, p, p_order) for V in _minus_vertices(rvec, n)))
        for n in range(q_order + 1)
    ]
    assert list(Z_loc_ell(rvec, q_order, p_order, p).rows) == rows


# weights in two of the point's three w-slots; a doubled exponent that is odd
# in any field makes a half-integer weight, which the bracket rejects
_theta_weights = st.builds(
    lambda t, w, half: monomial(tuple(e if half else 2 * e for e in t), tuple(2 * e for e in w)),
    st.tuples(*[st.integers(-2, 2)] * 4),
    st.tuples(*[st.integers(-1, 1)] * 2),
    st.booleans(),
).filter(bool)


def _anchored(terms, rank):
    """The character of ``terms`` with the anchor weight added to bring its
    rank to ``rank``, 0 or 12, so that p^(rank/12) is an integer power."""
    anchor = t_monomial(1) + w_monomial(1)
    return Character.sum([Character(terms), Character.of(anchor, rank - Character(terms).rank())])


@example({t_monomial(1) + t_monomial(2, -1): -2}, 12, 3, 0)
@example({monomial((1, 0, 0, 0)): 1, t_monomial(3): -1}, 0, 2, 0)
@example({t_monomial(1) + w_monomial(0): 2, t_monomial(2) + t_monomial(3, -1) - w_monomial(1): -3}, 12, 6, 1)
@given(
    st.dictionaries(_theta_weights, st.sampled_from([-3, -2, -1, 1, 2]), max_size=4),
    st.sampled_from([0, 12]),
    st.integers(0, 4),
    st.sampled_from(range(len(_THETA_POINTS))),
)
def test_theta_matches_the_product_route_on_any_character(terms, rank, order, which):
    V = _anchored(terms, rank)
    assert V.rank() == rank
    p = _THETA_POINTS[which]
    got = _outcome(lambda V, p: theta_eval(V, p, order), V, p)
    assert got == _outcome(lambda V, p: _theta_by_products(V, p, order), V, p)
    assert isinstance(got, QSeries) or got is FractionalPowerError


_theta_characters = st.builds(
    _anchored,
    st.dictionaries(_theta_weights, st.sampled_from([-3, -2, -1, 1, 2]), max_size=4),
    st.sampled_from([0, 12]),
)
# a1 = a2 makes the bracket of t1/t2 and of its powers vanish, so poles
# come up as well as half-integer weights
_GROUP_POINTS = [*_THETA_POINTS, EvalPoint((3, 3, 5), (7, Fraction(2, 11)))]
# the order in which theta_sums reports the errors of its characters
_THETA_ERRORS = [TrivialWeightError, FractionalPowerError, PoleAtPointError]


@example([[Character({t_monomial(1) + t_monomial(2, -1): 1, t_monomial(3): -1})],
          [Character({monomial((1, 0, 0, 0)): 1, t_monomial(3): -1})]], 2, 2)
@example([[], [Character(), Character.of(t_monomial(1), 12)]], 3, 0)
@given(
    st.lists(st.lists(_theta_characters, max_size=3), max_size=3),
    st.integers(0, 4),
    st.sampled_from(range(len(_GROUP_POINTS))),
)
def test_theta_sums_is_the_sum_of_each_groups_theta_evals(groups, order, which):
    p = _GROUP_POINTS[which]
    each = [[_outcome(lambda V, p: theta_eval(V, p, order), V, p) for V in g] for g in groups]
    errors = [out for g in each for out in g if not isinstance(out, QSeries)]
    if errors:
        want = min(errors, key=_THETA_ERRORS.index)
    else:
        want = [reduce(add, g, QSeries.zero(order)) for g in each]
    got = _outcome(lambda groups, p: theta_sums(groups, p, order), groups, p)
    assert got == want


def test_theta_zero_and_pole_in_either_term_order():
    # a1 = a2 makes [t1/t2] and [t2/t1] vanish, and with them their theta
    # series: the point is degenerate for both routes, in the numerator as in
    # the denominator
    p = EvalPoint((3, 3, 5))
    up = t_monomial(1) + t_monomial(2, -1)
    t3 = t_monomial(3)
    for terms in ({up: 1, t3: -1}, {t3: -1, up: 1}, {up: 1, -up: -1}, {-up: -1, up: 1}):
        V = Character(terms)
        for order in range(4):
            with pytest.raises(PoleAtPointError):
                theta_eval(V, p, order)
            with pytest.raises(PoleAtPointError):
                _theta_by_products(V, p, order)


# integer weights only: the measures take square roots of their weights
_integer_weights = st.builds(
    lambda t, w: monomial(tuple(2 * e for e in t), (2 * w,)),
    st.tuples(*[st.integers(-2, 2)] * 4),
    st.integers(-2, 2),
)
# rank-0 characters, so that the theta prefactor p^(rank/12) is an integer power
_rank0_characters = st.lists(
    st.tuples(_integer_weights, _integer_weights, st.sampled_from([-2, -1, 1, 2])), max_size=3
).map(lambda pairs: sum(
    (Character({a: c}) - Character({b: c}) for a, b, c in pairs), Character()
))


# no nontrivial integer weight evaluates to 1 at these points: the bases'
# prime exponents are independent, and the Chern roots are far apart in size
def _generic_point():
    return EvalPoint((Fraction(2, 3), Fraction(5, 7), Fraction(11, 2)), (Fraction(3, 5),))


@given(_integer_weights, st.integers(1, 4))
def test_adams_power_is_a_multiple_of_the_weight(m, n):
    assume(m)
    p = _generic_point()
    powered = EvalPoint([a ** n for a in p.sqrt_t[:3]], [b ** n for b in p.sqrt_w])
    assert bracket_eval(Character.of(n * m), p) == bracket_eval(Character.of(m), powered)


_MEASURES = [
    (bracket_eval, _generic_point),
    (euler_eval, lambda: CohPoint((1, 100, 10000), (1000000,))),
    (lambda V, p: theta_eval(V, p, 3), _generic_point),
]


@given(_rank0_characters, _rank0_characters, st.sampled_from(range(len(_MEASURES))))
def test_measures_are_multiplicative(A, B, which):
    assume(0 not in A.terms and 0 not in B.terms)
    measure, point = _MEASURES[which]
    p = point()
    assert measure(A + B, p) == measure(A, p) * measure(B, p)
    # and from a fresh point, with nothing cached
    assert measure(A + B, point()) == measure(A, p) * measure(B, p)


# rank 24 shifts the series by p^2, past the whole series at order 0
@example(Character(), 12, 0, 5)
@example(Character(), 24, 0, 5)
@given(_rank0_characters, st.sampled_from([0, 12, 24]), st.integers(0, 5), st.integers(0, 5))
def test_theta_truncation_consistent(V, rank, low, high):
    assume(0 not in V.terms)
    V = V + Character.of(t_monomial(1), rank)
    low, high = sorted((low, high))
    p = _generic_point()
    assert truncate(theta_eval(V, p, high), low) == theta_eval(V, p, low)
