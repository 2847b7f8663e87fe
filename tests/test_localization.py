from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from tetrainst import localization, partitions
from tetrainst.algebra import (
    Character,
    CohPoint,
    EvalPoint,
    PoleAtPointError,
    bracket_eval,
    eval_monomial,
    t_monomial,
    theta_eval,
    w_monomial,
)
from tetrainst.formulas import closed_Z_K, closed_Z_coh, factorization_scale, factorized_Z
from tetrainst.localization import (
    SamplerExhaustedError,
    Z_loc_K,
    Z_loc_coh,
    Z_loc_ell,
    check_euler_characteristics,
    check_framing_independence,
    check_rho_tilde_vanishes,
    check_sign_identity,
    run_kappa_check,
    run_sign_sweep,
    sample_point,
    sample_until,
    verify_main,
)
from tetrainst.partitions import (
    Configuration,
    PlanePartition,
    enumerate_configurations,
    enumerate_plane_partitions,
)
from tetrainst.series import QSeries, macmahon_power
from tetrainst.vertex import build_fixed_point, tilde_vertex, vertex_block

from reference import is_order_ideal, macmahon, parent, power, truncate


def test_sample_point_deterministic():
    a = sample_point(42, (1, 0, 0, 0), "k")
    b = sample_point(42, (1, 0, 0, 0), "k")
    assert a.sqrt_t == b.sqrt_t and a.sqrt_w == b.sqrt_w
    c = sample_point(43, (1, 0, 0, 0), "k")
    assert a.sqrt_t != c.sqrt_t


def test_sample_point_invariants():
    p = sample_point(7, (1, 1, 0, 0), "k")
    a1, a2, a3, a4 = p.sqrt_t
    assert a1 * a2 * a3 * a4 == 1
    assert len(p.sqrt_w) == 2
    s = sample_point(7, (1, 1, 0, 0), "coh")
    assert sum(s.s) == 0
    assert len(s.v) == 2


def test_sample_until_retries_poles():
    calls = []

    def flaky(point):
        calls.append(point)
        if len(calls) < 3:
            raise PoleAtPointError("synthetic")
        return "ok"

    result, point, tries = sample_until(flaky, 5, (0, 0, 0, 1))
    assert result == "ok" and tries == 3


def test_sample_until_exhausts(monkeypatch):
    def always(point):
        raise PoleAtPointError("synthetic")

    monkeypatch.setattr(localization, "SAMPLER_MAX_TRIES", 4)
    with pytest.raises(SamplerExhaustedError, match="in 4 tries"):
        sample_until(always, 5, (0, 0, 0, 1))


def test_a_vanishing_factor_makes_the_point_degenerate():
    # a1 * a2 == 1 makes [t1 t2] vanish.  Scored as 0, it would make both
    # routes 1 + 0q + 0q^2 and agree without testing anything.
    for route in (closed_Z_K, Z_loc_K):
        p = EvalPoint((Fraction(3, 5), Fraction(5, 3), 7), (Fraction(2, 9), Fraction(11, 4)))
        with pytest.raises(PoleAtPointError):
            route((1, 1, 0, 0), 2, p)


def test_a_vanishing_factor_makes_the_sign_rule_point_degenerate():
    # the point above: each nonempty configuration's identities have a
    # factor [t1 t2] or its inverse, and the point is not scored
    p = EvalPoint((Fraction(3, 5), Fraction(5, 3), 7), (Fraction(2, 9), Fraction(11, 4)))
    assert check_sign_identity(enumerate_configurations((1, 1, 0, 0), 0)[0], p)
    for n in (1, 2):
        for config in enumerate_configurations((1, 1, 0, 0), n):
            with pytest.raises(PoleAtPointError):
                check_sign_identity(config, p)


def test_Z_loc_constant_term():
    p = sample_point(3, (1, 1, 0, 0), "k")
    assert Z_loc_K((1, 1, 0, 0), 0, p) == QSeries.one(0)


def test_Z_loc_matches_closed_rank1():
    def run(p):
        return Z_loc_K((0, 0, 0, 1), 2, p), closed_Z_K((0, 0, 0, 1), 2, p)

    (loc, closed), _, _ = sample_until(run, 9, (0, 0, 0, 1))
    assert loc == closed


def test_Z_loc_vanishing():
    def run(p):
        return Z_loc_K((1, 1, 1, 1), 2, p)

    loc, _, _ = sample_until(run, 13, (1, 1, 1, 1))
    assert loc == QSeries.one(2)


def test_Z_loc_coh_one_box():
    # frozen oracle value at s = (1,2,3,-6): q^1 coefficient is 10
    p = CohPoint((1, 2, 3), (5,))
    f = Z_loc_coh((0, 0, 0, 1), 1, p)
    assert f.coefficient(1) == 10
    assert f == closed_Z_coh((0, 0, 0, 1), 1, p)


def test_Z_loc_coh_framing_independent():
    def run(p):
        other = CohPoint(p.s[:3], (Fraction(19, 3), Fraction(-23, 7)))
        return Z_loc_coh((1, 1, 0, 0), 2, p), Z_loc_coh((1, 1, 0, 0), 2, other)

    (a, b), _, _ = sample_until(run, 53, (1, 1, 0, 0), "coh")
    assert a == b


def test_Z_loc_ell_p0_slice():
    def run(p):
        ell = Z_loc_ell((0, 0, 0, 1), 2, 2, p)
        return ell, Z_loc_K((0, 0, 0, 1), 2, p)

    (ell, zk), _, _ = sample_until(run, 17, (0, 0, 0, 1))
    assert ell.p_slice(0) == zk


def test_Z_loc_ell_framing_dependence_observed():
    # the elliptic refinement genuinely depends on the framing weights
    def run(p):
        other = p.with_sqrt_w((Fraction(13, 3), Fraction(17, 6)))
        return Z_loc_ell((0, 0, 0, 2), 1, 1, p), Z_loc_ell((0, 0, 0, 2), 1, 1, other)

    (a, b), _, _ = sample_until(run, 19, (0, 0, 0, 2))
    assert a.p_slice(0) == b.p_slice(0)
    assert a.p_slice(1) != b.p_slice(1)


@pytest.mark.parametrize(("rvec", "q_order", "p_order", "seed"), [
    *(((1, 1, 1, 1), 4, 3, seed) for seed in range(4)),
    *(((2, 2, 2, 2), 3, 2, seed) for seed in range(2)),
])
def test_Z_loc_ell_vanishing_at_equal_ranks_observed(rvec, q_order, p_order, seed):
    # at equal ranks closed_Z_K is 1, the paper's vanishing statement, and
    # the elliptic series is exactly 1 as well: every coefficient but
    # (q^0, p^0) cancels.  Observed at these points, not proved.
    ell, _, _ = sample_until(lambda p: Z_loc_ell(rvec, q_order, p_order, p), seed, rvec)
    assert ell.rows == (QSeries.one(p_order),) + (QSeries.zero(p_order),) * q_order


_orders = st.tuples(st.integers(0, 3), st.integers(0, 3)).map(sorted)


@settings(deadline=None)
@given(
    st.sampled_from([(0, 0, 0, 1), (1, 0, 0, 0), (0, 2, 0, 0), (1, 1, 0, 0), (1, 0, 0, 1)]),
    _orders,
    st.tuples(st.integers(0, 2), st.integers(0, 2)).map(sorted),
    st.integers(0, 1000),
)
def test_localization_series_truncation_consistent(rvec, orders, p_orders, seed):
    low, high = orders
    p_low, p_high = p_orders

    def k_and_ell(p):
        return (
            truncate(Z_loc_K(rvec, high, p), low) == Z_loc_K(rvec, low, p),
            [truncate(row, p_low) for row in Z_loc_ell(rvec, high, p_high, p).rows[: low + 1]]
            == list(Z_loc_ell(rvec, low, p_low, p).rows),
        )

    def coh(p):
        return truncate(Z_loc_coh(rvec, high, p), low) == Z_loc_coh(rvec, low, p)

    assert sample_until(k_and_ell, seed, rvec)[0] == (True, True)
    assert sample_until(coh, seed, rvec, "coh")[0]


def test_check_sign_identity_empty():
    config = Configuration((0, 0, 0, 1), ((), (), (), (PlanePartition([]),)))
    p = sample_point(1, (0, 0, 0, 1), "k")
    assert check_sign_identity(config, p)


def test_check_sign_identity_one_box():
    config = Configuration((0, 0, 0, 1), ((), (), (), (PlanePartition([(0, 0, 0)]),)))

    def run(p):
        return check_sign_identity(config, p)

    ok, _, _ = sample_until(run, 21, (0, 0, 0, 1))
    assert ok


def test_sign_sweep():
    rep = run_sign_sweep((1, 0, 1, 0), 2, 23, 2)
    assert rep.passed
    assert rep.points_used == 2


@pytest.mark.parametrize("rvec", [(1, 1, 0, 0), (2, 0, 0, 1)])
def test_sign_rule_pair_identities_are_not_trivial(rvec):
    # the default P-factor is the pair's larger leg, not leg 4's Pbar_123;
    # were it leg 4, each pair identity would compare a block with itself
    nontrivial = 0
    for level in localization._levels(rvec, 2):
        for node in level:
            fp = node[1]
            slots = list(fp.Z)
            for a, (i, l) in enumerate(slots):
                for (j, k) in slots[a:]:
                    assert vertex_block(fp, i, l, j, k) == vertex_block(fp, i, l, j, k, pleg=j)
            pairs = localization._sign_identities(*node)[1 + len(slots) :]
            assert len(pairs) == len(slots) * (len(slots) - 1) // 2
            nontrivial += sum(lhs != rhs for _, lhs, rhs in pairs)
    assert nontrivial > 0


@pytest.mark.parametrize("name", ["configuration_sign", "sign_rho"])
def test_the_sign_sweep_fails_with_a_flipped_sign(monkeypatch, name):
    assert run_sign_sweep((1, 1, 0, 0), 2, 0, 2).passed
    sign = getattr(localization, name)
    monkeypatch.setattr(localization, name, lambda *args: not sign(*args))
    assert not run_sign_sweep((1, 1, 0, 0), 2, 0, 2).passed


@pytest.mark.parametrize(("rvec", "max_size", "distinct"), [
    ((1, 1, 0, 0), 3, 75),
    ((1, 1, 1, 0), 3, 164),
    ((2, 0, 0, 1), 3, 154),
    ((0, 0, 0, 1), 6, 191),
    ((1, 1, 1, 1), 3, 289),
])
def test_the_sign_sweep_decides_each_distinct_identity_once(monkeypatch, rvec, max_size, distinct):
    decided = []
    hold = localization._identities_hold

    def spy(identities, p):
        decided.append(identities)
        return hold(identities, p)

    monkeypatch.setattr(localization, "_identities_hold", spy)
    assert run_sign_sweep(rvec, max_size, 0, 1).passed
    assert len(decided[0]) == len(set(decided[0])) == distinct


def _fraction_verdict(identities, p):
    """Whether ``sign * [lhs] == [rhs]`` for every identity, compared as
    reduced ``Fraction``s, or the type of the error that decides it first."""
    try:
        return all(sign * bracket_eval(lhs, p) == bracket_eval(rhs, p) for sign, lhs, rhs in identities)
    except PoleAtPointError as exc:
        return type(exc)


def _verdict(identities, p):
    try:
        return localization._identities_hold(identities, p)
    except PoleAtPointError as exc:
        return type(exc)


_T12 = t_monomial(1) + t_monomial(2, -1)  # vanishes at a1 == a2
_SIGN_POOL = [t_monomial(1), t_monomial(3), t_monomial(1) + t_monomial(3), _T12, -_T12,
              w_monomial(0), t_monomial(2) - w_monomial(0)]
_sign_chars = st.dictionaries(st.sampled_from(_SIGN_POOL), st.sampled_from([-2, -1, 1, 2]), max_size=3).map(Character)


def _identity(sign, lhs, rhs, kind):
    """``(sign, lhs, rhs)``, with ``rhs`` drawn apart or tied to ``lhs``: its
    dual holds with the sign ``(-1)^rank``, itself with the sign 1."""
    return sign, lhs, {"apart": rhs, "same": lhs, "dual": lhs.dual()}[kind]


_identities = st.lists(
    st.builds(_identity, st.sampled_from([1, -1]), _sign_chars, _sign_chars,
              st.sampled_from(["apart", "same", "dual"])),
    max_size=3,
)


# a factor that vanishes on both sides makes the point degenerate: an
# lhs - rhs fold would cancel it
@example([(1, Character.of(_T12), Character.of(_T12))], True)
# the first identity fails, so the degenerate second is never evaluated
@example([(-1, Character.of(t_monomial(1)), Character.of(t_monomial(1))),
          (1, Character.of(_T12), Character.of(_T12))], True)
@given(_identities, st.booleans())
def test_cross_multiplied_verdict_is_the_fraction_verdict(identities, degenerate):
    def point():
        if degenerate:
            return EvalPoint((3, 3, 5), (7,))
        return EvalPoint((Fraction(2, 3), Fraction(5, 7), Fraction(11, 2)), (Fraction(3, 5),))

    assert _verdict(identities, point()) == _fraction_verdict(identities, point())


def test_rho_tilde_sweep():
    assert check_rho_tilde_vanishes(4)


def test_framing_independence():
    rep = check_framing_independence((0, 0, 0, 2), 2, 29, 3)
    assert rep.passed
    rep = check_framing_independence((0, 0, 0, 1), 2, 29, 2)
    assert rep.passed
    with pytest.raises(ValueError):
        check_framing_independence((0, 0, 0, 2), 2, 29, 1)


@pytest.mark.parametrize("seed", range(6))
def test_framings_drawn_apart_from_the_point(monkeypatch, seed):
    # framings drawn from the sampler's own stream would give the first variant
    # sqrt_w = (a1, a2) of the point, a pole for (1,1,0,0) at q^3
    points = []

    def recording_Z_loc_K(rvec, order, p):
        points.append(p)
        return Z_loc_K(rvec, order, p)

    monkeypatch.setattr(localization, "Z_loc_K", recording_Z_loc_K)
    rep = check_framing_independence((1, 1, 0, 0), 3, seed, 3)
    assert rep.passed and rep.points_tried == 1
    point, *framed = points
    assert not {b for q in framed for b in q.sqrt_w} & set(point.sqrt_t)


def test_verify_main_k():
    rep = verify_main((1, 1, 0, 0), 2, 37, 2, "k")
    assert rep.passed
    assert rep.points_used == 2


def test_verify_main_coh():
    rep = verify_main((0, 0, 0, 1), 2, 41, 2, "coh")
    assert rep.passed


def test_verify_main_records_the_series_themselves():
    rvec, order, seed = (1, 1, 0, 0), 2, 1
    rep = verify_main(rvec, order, seed, 2)
    for idx, detail in enumerate(rep.details):
        _, point, _ = sample_until(lambda p: localization.MODES["k"](rvec, order, None, p), seed + idx, rvec, "k")
        assert isinstance(detail["localization"], QSeries)
        assert detail["localization"] == Z_loc_K(rvec, order, point)


def test_verify_main_bad_mode():
    with pytest.raises(ValueError):
        verify_main((0, 0, 0, 1), 1, 1, 1, "elliptic")


def test_euler_characteristics():
    assert check_euler_characteristics(0, 4).passed
    rep = check_euler_characteristics(1, 6)
    assert rep.passed
    counts = [d["configurations"] for d in rep.details]
    assert counts == [1, 1, 3, 6, 13, 24, 48]
    assert check_euler_characteristics(2, 4).passed


def test_kappa_check():
    rep = run_kappa_check(6, 43, 2)
    assert rep.passed


def test_localization_sum_order_independent():
    # exact rational addition: summing configurations in reverse must agree
    def run(p):
        configs = enumerate_configurations((1, 1, 0, 0), 2)
        from tetrainst.algebra import bracket_eval
        from tetrainst.vertex import build_fixed_point, vertex

        forward = sum(bracket_eval(-vertex(build_fixed_point(c)), p) for c in configs)
        backward = sum(
            bracket_eval(-vertex(build_fixed_point(c)), p) for c in reversed(configs)
        )
        return forward, backward

    (f, b), _, _ = sample_until(run, 47, (1, 1, 0, 0))
    assert f == b


def test_characters_built_once_per_configuration(monkeypatch):
    localization._level.cache_clear()
    built = Counter()
    tilde = Counter()

    def counting_build(config, parent=None):
        built[config] += 1
        return build_fixed_point(config, parent)

    def counting_tilde(fp):
        tilde[id(fp)] += 1
        return tilde_vertex(fp)

    monkeypatch.setattr(localization, "build_fixed_point", counting_build)
    monkeypatch.setattr(localization, "tilde_vertex", counting_tilde)
    rvec = (1, 1, 0, 0)
    assert verify_main(rvec, 3, 11, 5).passed
    assert check_framing_independence(rvec, 3, 11, 3).passed
    # the sign rule reads the same fixed-point data and minus vertex
    assert run_sign_sweep(rvec, 3, 11, 2).passed
    assert set(built) == {c for n in range(4) for c in enumerate_configurations(rvec, n)}
    assert max(built.values()) == 1
    # the sweep builds each configuration's sign identities once, for all its points
    assert tilde == Counter(id(fp) for level in localization._levels(rvec, 3) for _, fp, _ in level)


def test_the_rank_vector_is_checked_once_per_call(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in ("rank_vector", "enumerate_configurations"):
        wrapper = counted(name, getattr(partitions, name))
        for module in (partitions, localization):
            monkeypatch.setattr(module, name, wrapper)
    localization._level.cache_clear()
    # the levels grow every configuration from the size below, with no
    # enumeration and no second check of the rank vector
    p = EvalPoint((Fraction(2, 3), Fraction(5, 7), Fraction(11, 2)), (Fraction(3, 5), 13, Fraction(7, 4), 3))
    for _ in range(2):
        Z_loc_K([1, 1, 1, 1], 4, p)
    assert calls == {"rank_vector": 2}


@pytest.mark.parametrize(
    "rvec, max_size",
    [((1, 1, 1, 1), 4), ((0, 0, 0, 1), 9), ((2, 0, 1, 0), 4), ((0, 3, 0, 0), 4), ((0, 0, 0, 0), 3)],
)
def test_each_level_holds_its_configurations_once(rvec, max_size):
    # facts that do not come from Configuration.children: every slot is a plane
    # partition, every configuration of level n has size n, none repeats, and
    # level n counts as many as the MacMahon power says there are, so it
    # holds each configuration of size n once
    levels = localization._levels(rvec, max_size)
    assert len(levels) == max_size + 1
    counts = power(macmahon(max_size), sum(rvec))
    for n, level in enumerate(levels):
        configs = [config for config, _, _ in level]
        for config in configs:
            assert config.rvec == rvec and config.size == n
            assert all(is_order_ideal(pp.boxes) for _, pp in config.slots())
        assert len(configs) == len(set(configs)) == counts.coefficient(n)
        for config, _, _ in levels[n - 1] if n else ():
            for child, slot, box in config.children():
                assert parent(child) == (config, slot, box)


def test_the_euler_suite_counts_the_growth_the_sums_use(monkeypatch):
    # a growth rule that misses one configuration of size 4 must fail the suite
    lost = Configuration(
        (2, 0, 0, 0),
        ((PlanePartition([(0, 0, 0), (1, 0, 0)]), PlanePartition([(0, 0, 0), (0, 1, 0)])), (), (), ()),
    )
    children = Configuration.children
    monkeypatch.setattr(
        Configuration, "children", lambda config: [node for node in children(config) if node[0] != lost]
    )
    partitions._configurations.cache_clear()
    try:
        report = check_euler_characteristics(2, 4)
    finally:
        partitions._configurations.cache_clear()
    assert not report.passed
    assert [d["n"] for d in report.details if not d["passed"]] == [4]


def test_growth_never_aliases_or_writes_into_a_parent():
    rvec = (1, 1, 1, 1)
    localization._level.cache_clear()
    snapshots = {}
    # each size is snapshot before the next size's configurations grow from it
    for n in range(5):
        for config, fp, v in localization._level(rvec, n):
            snapshots[config] = (dict(v.terms), {s: dict(Z.terms) for s, Z in fp.Z.items()}, dict(fp.w))
    nodes = [node for level in localization._levels(rvec, 4) for node in level]
    for config, fp, v in nodes:
        assert (dict(v.terms), {s: dict(Z.terms) for s, Z in fp.Z.items()}, dict(fp.w)) == snapshots[config]
    assert len({id(v.terms) for _, _, v in nodes}) == len(nodes) == len(snapshots)
    assert len({id(fp.Z) for _, fp, _ in nodes}) == len(nodes)
    # a grown configuration equals, and hashes as, one built by the public constructors
    for config, _, _ in nodes:
        public = Configuration(
            list(rvec), tuple(tuple(PlanePartition(pp.boxes) for pp in leg) for leg in config.legs)
        )
        assert config == public and hash(config) == hash(public)
        if config.size:
            assert parent(config)[0] in snapshots


def test_Z_loc_K_same_from_warm_and_cleared_caches():
    rvec = (1, 1, 0, 0)
    sqrt_t3, sqrt_w = (Fraction(2, 3), Fraction(5, 7), Fraction(11, 2)), (Fraction(3, 5), 13)
    p = EvalPoint(sqrt_t3, sqrt_w)
    warm = [Z_loc_K(rvec, 3, p) for _ in range(2)]
    localization._level.cache_clear()
    cold = Z_loc_K(rvec, 3, EvalPoint(sqrt_t3, sqrt_w))
    assert warm[0] == warm[1] == cold
    assert cold == closed_Z_K(rvec, 3, EvalPoint(sqrt_t3, sqrt_w))


def _slots(rvec):
    return [(i, l) for i in range(1, 5) for l in range(1, rvec[i - 1] + 1)]


def _unit(i):
    return tuple(int(j == i) for j in range(1, 5))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("rvec, order", [
    ((1, 1, 0, 0), 3), ((2, 0, 0, 1), 3), ((0, 0, 0, 3), 3), ((1, 1, 1, 0), 2),
])
def test_Z_loc_K_is_the_product_of_rescaled_rank1_localization_sums(rvec, order, seed):
    # the paper's factorization with localization on both sides and no closed
    # form: slot (i, l) gives leg i's rank-1 sum at the first framing, with
    # q -> (-1)^(|r|+1) * factorization_scale(rvec, i, l) * q
    sign = (-1) ** (sum(rvec) + 1)

    def run(p):
        rank1 = p.with_sqrt_w(p.sqrt_w[:1])
        out = QSeries.one(order)
        for i, l in _slots(rvec):
            c = eval_monomial(factorization_scale(rvec, i, l), p)
            out = out * Z_loc_K(_unit(i), order, rank1).q_scale(sign * c)
        return Z_loc_K(rvec, order, p), out

    (got, want), _, _ = sample_until(run, seed, rvec)
    assert got == want


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("rvec", [(1, 1, 0, 0), (2, 0, 0, 1), (0, 0, 0, 3)])
def test_Z_loc_coh_is_the_product_of_rank1_localization_sums(rvec, seed):
    # the cohomological limit of the factorization: q -> (-1)^(|r|+1) q, no rescaling
    sign = (-1) ** (sum(rvec) + 1)

    def run(p):
        rank1 = CohPoint(p.s[:3], p.v[:1])
        out = QSeries.one(3)
        for i, _ in _slots(rvec):
            out = out * Z_loc_coh(_unit(i), 3, rank1).q_scale(sign)
        return Z_loc_coh(rvec, 3, p), out

    (got, want), _, _ = sample_until(run, seed, rvec, "coh")
    assert got == want


_ELL_POINT = EvalPoint((2, 3, 5), (7,))


@pytest.mark.parametrize("call", [
    lambda: QSeries.one(-1),
    lambda: macmahon_power(1, -1),
    lambda: closed_Z_K((1, 1, 1, 1), -1, sample_point(0, (1, 1, 1, 1))),
    lambda: closed_Z_K((0, 0, 0, 1), -1, sample_point(0, (0, 0, 0, 1))),
    lambda: closed_Z_coh((0, 0, 0, 1), -1, sample_point(0, (0, 0, 0, 1), "coh")),
    lambda: factorized_Z((0, 0, 0, 1), -1, sample_point(0, (0, 0, 0, 1))),
    lambda: Z_loc_K((0, 0, 0, 1), -1, sample_point(0, (0, 0, 0, 1))),
    lambda: Z_loc_coh((0, 0, 0, 1), -1, sample_point(0, (0, 0, 0, 1), "coh")),
    lambda: Z_loc_ell((0, 0, 0, 1), -1, 1, _ELL_POINT),
    lambda: theta_eval(Character.of(t_monomial(1)) - Character.of(w_monomial(0)), _ELL_POINT, -1),
    lambda: check_euler_characteristics(1, -1),
    lambda: run_sign_sweep((0, 0, 0, 1), -1, 0, 1),
    lambda: verify_main((0, 0, 0, 1), -1, 0, 1),
    lambda: check_framing_independence((0, 0, 0, 1), -1, 0),
    lambda: run_kappa_check(-1, 0),
    lambda: enumerate_configurations((0, 0, 0, 1), -1),
    lambda: enumerate_plane_partitions(-1),
    lambda: check_rho_tilde_vanishes(-1),
], ids=[
    "QSeries.one", "macmahon_power", "closed_Z_K-equal-ranks", "closed_Z_K", "closed_Z_coh",
    "factorized_Z", "Z_loc_K", "Z_loc_coh", "Z_loc_ell", "theta_eval", "check_euler_characteristics",
    "run_sign_sweep", "verify_main", "check_framing_independence", "run_kappa_check",
    "enumerate_configurations", "enumerate_plane_partitions", "check_rho_tilde_vanishes",
])
def test_a_negative_order_raises(call):
    # the CLI's IntRange(0) rejects a negative order before any of these
    # runs; an API caller gets the same ValueError from each, and a size is
    # an order: a configuration of size n feeds the q^n term
    with pytest.raises(ValueError, match="a series needs at least its constant term"):
        call()


@pytest.mark.parametrize("leg", [0, 5])
@pytest.mark.parametrize("call", [
    lambda i: t_monomial(i),
    lambda i: partitions.embed_to_solid(PlanePartition(((0, 0, 0),)), i),
    lambda i: partitions.sign_rho_tilde(partitions.SolidPartition(((0, 0, 0, 0),)), i),
    lambda i: factorization_scale((1, 1, 1, 1), i, 1),
], ids=["t_monomial", "embed_to_solid", "sign_rho_tilde", "factorization_scale"])
def test_a_leg_outside_1_to_4_raises(call, leg):
    # algebra.check_leg is the one leg rule
    with pytest.raises(ValueError, match=r"leg index must be 1\.\.4"):
        call(leg)


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("call, message", [
    (lambda n: verify_main((0, 0, 0, 1), 2, 0, n), "need at least 1 point"),
    (lambda n: run_sign_sweep((0, 0, 0, 1), 2, 0, n), "need at least 1 point"),
    (lambda n: run_kappa_check(6, 0, n), "need at least 1 sample"),
], ids=["verify_main", "run_sign_sweep", "run_kappa_check"])
def test_a_check_with_no_points_raises(monkeypatch, call, message, n):
    # with nothing checked a report would read passed; as with fewer than 2
    # framings in check_framing_independence, the call fails before any work
    def no_work(*args):
        raise AssertionError("work started")

    for name in ("_levels", "sample_until", "check_kappa_identity"):
        monkeypatch.setattr(localization, name, no_work)
    with pytest.raises(ValueError, match=message):
        call(n)
