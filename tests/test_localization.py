from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tetrainst import localization, partitions
from tetrainst.algebra import CohPoint, EvalPoint, PoleAtPointError, SamplerExhaustedError
from tetrainst.formulas import closed_Z_K, closed_Z_coh
from tetrainst.localization import (
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
from tetrainst.partitions import Configuration, PlanePartition, enumerate_configurations
from tetrainst.series import QSeries
from tetrainst.vertex import build_fixed_point, tilde_vertex, vertex_block

from reference import truncate


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
    for n in range(3):
        for config in enumerate_configurations(rvec, n):
            fp = localization._characters(config)[0]
            slots = list(fp.Z)
            for a, (i, l) in enumerate(slots):
                for (j, k) in slots[a:]:
                    assert vertex_block(fp, i, l, j, k) == vertex_block(fp, i, l, j, k, pleg=j)
            pairs = localization._sign_identities(config)[1 + len(slots) :]
            assert len(pairs) == len(slots) * (len(slots) - 1) // 2
            nontrivial += sum(lhs != rhs for _, lhs, rhs in pairs)
    assert nontrivial > 0


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
    localization._characters.cache_clear()
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
    assert tilde == Counter(id(localization._characters(c)[0]) for c in built)


def test_the_rank_vector_is_checked_once_per_enumeration(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in ("rank_vector", "enumerate_configurations"):
        monkeypatch.setattr(partitions, name, counted(name, getattr(partitions, name)))
    partitions._configurations.cache_clear()
    localization._characters.cache_clear()
    # building the characters reaches every parent through the parent link
    for n in range(5):
        for config in partitions.enumerate_configurations((1, 1, 1, 1), n):
            localization._characters(config)
    assert calls["enumerate_configurations"] == 5
    assert calls["rank_vector"] == calls["enumerate_configurations"]


def test_growth_never_aliases_or_writes_into_a_parent():
    rvec = (1, 1, 1, 1)
    localization._characters.cache_clear()
    configs = [c for n in range(5) for c in enumerate_configurations(rvec, n)]
    snapshots = {}
    # each size is snapshot before the next size's configurations grow from it
    for config in configs:
        fp, v = localization._characters(config)
        snapshots[config] = (dict(v.terms), {s: dict(Z.terms) for s, Z in fp.Z.items()}, dict(fp.w))
    for config in configs:
        fp, v = localization._characters(config)
        assert (dict(v.terms), {s: dict(Z.terms) for s, Z in fp.Z.items()}, dict(fp.w)) == snapshots[config]
    cached = [localization._characters(c) for c in configs]
    assert len({id(v.terms) for _, v in cached}) == len(configs)
    assert len({id(fp.Z) for fp, _ in cached}) == len(configs)
    for config in configs[1:]:
        parent = config.parent()[0]
        public = Configuration(
            list(rvec), tuple(tuple(PlanePartition(pp.boxes) for pp in leg) for leg in parent.legs)
        )
        assert parent == public and hash(parent) == hash(public)
        assert public in snapshots


def test_Z_loc_K_same_from_warm_and_cleared_caches():
    rvec = (1, 1, 0, 0)
    sqrt_t3, sqrt_w = (Fraction(2, 3), Fraction(5, 7), Fraction(11, 2)), (Fraction(3, 5), 13)
    p = EvalPoint(sqrt_t3, sqrt_w)
    warm = [Z_loc_K(rvec, 3, p) for _ in range(2)]
    localization._characters.cache_clear()
    cold = Z_loc_K(rvec, 3, EvalPoint(sqrt_t3, sqrt_w))
    assert warm[0] == warm[1] == cold
    assert cold == closed_Z_K(rvec, 3, EvalPoint(sqrt_t3, sqrt_w))
