import random

import pytest

from tetrainst import localization
from tetrainst.algebra import Character, t_monomial, w_monomial
from tetrainst.partitions import Configuration, PlanePartition, enumerate_configurations
from tetrainst.vertex import (
    PBAR,
    build_fixed_point,
    char_P,
    other_indices,
    partition_character,
    tilde_vertex,
    vertex,
    vertex_block,
    virtual_tangent,
)

from reference import ambient_tangent, obstruction_fiber, vertex_from_blocks, virtual_tangent_via_ambient

RVECS = [(0, 0, 0, 1), (1, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (2, 0, 0, 0), (1, 1, 1, 1)]


def configs_up_to(rvec, nmax):
    for n in range(nmax + 1):
        yield from enumerate_configurations(rvec, n)


def one_box_leg4():
    return Configuration((0, 0, 0, 1), ((), (), (), (PlanePartition([(0, 0, 0)]),)))


def test_char_P():
    assert char_P(set()) == Character.one()
    assert char_P({1}) == Character.one() - Character.of(t_monomial(1))
    P = char_P({1, 2, 3})
    assert P + P.dual() == char_P({1, 2, 3, 4})


def test_other_indices():
    assert other_indices(1) == (2, 3, 4)
    assert other_indices(4) == (1, 2, 3)


def test_partition_character_leg4():
    pp = PlanePartition([(0, 0, 0), (1, 0, 0)])
    Z = partition_character(pp, 4)
    assert Z == Character({0: 1, t_monomial(1): 1})


def test_partition_character_leg1():
    # leg 1 uses the variable set {2,3,4} in increasing order
    pp = PlanePartition([(0, 0, 0), (1, 0, 0)])
    Z = partition_character(pp, 1)
    assert Z == Character({0: 1, t_monomial(2): 1})


def test_build_fixed_point_single_box():
    fp = build_fixed_point(one_box_leg4())
    assert fp.Z[(4, 1)] == Character.one()
    assert fp.Q == Character.of(w_monomial(0))
    assert fp.Q.rank() == 1
    assert fp.K == Character.of(w_monomial(0))


def test_build_fixed_point_empty():
    fp = build_fixed_point(Configuration((1, 1, 0, 0), ((PlanePartition([]),), (PlanePartition([]),), (), ())))
    assert fp.Q == Character()
    assert fp.K.rank() == 2


def test_slots_get_framing_weights_in_slot_order():
    # the order in which the sampler hands out sqrt_w
    for rvec in [(1, 1, 0, 0), (2, 0, 0, 1), (1, 1, 1, 1)]:
        for config in configs_up_to(rvec, 2):
            fp = build_fixed_point(config)
            Q = Character()
            for k, ((i, l), pp) in enumerate(config.slots()):
                Q = Q + Character.of(w_monomial(k)) * partition_character(pp, i)
            assert fp.Q == Q
            T = Character()
            for s, ((i, _), _) in enumerate(config.slots()):
                T = T + Character.of(w_monomial(s) + t_monomial(i))
            assert fp.T == T
            assert fp.K.rank() == sum(rvec)


def test_rank_of_Q_is_size():
    for config in configs_up_to((1, 1, 0, 0), 3):
        fp = build_fixed_point(config)
        assert fp.Q.rank() == config.size


def test_one_box_vertex_explicit():
    fp = build_fixed_point(one_box_leg4())
    v = vertex(fp)
    expected = Character()
    for i in (1, 2, 3):
        expected = expected + Character.of(t_monomial(i, -1))
    for i, j in ((1, 2), (1, 3), (2, 3)):
        m = t_monomial(i, -1) + t_monomial(j, -1)
        expected = expected - Character.of(m)
    assert v == expected


def test_one_box_tilde_vertex():
    fp = build_fixed_point(one_box_leg4())
    vt = tilde_vertex(fp)
    assert vt == Character.one() - char_P({1, 2, 3}).dual()


def test_virtual_tangent_rank_zero():
    for rvec in [(0, 0, 0, 1), (1, 1, 0, 0)]:
        for config in configs_up_to(rvec, 3):
            fp = build_fixed_point(config)
            assert virtual_tangent(fp).rank() == 0


def test_virtual_tangent_two_routes():
    for rvec in RVECS:
        for config in configs_up_to(rvec, 3):
            fp = build_fixed_point(config)
            assert virtual_tangent(fp) == virtual_tangent_via_ambient(fp)


def test_square_root_and_movability():
    for rvec in RVECS:
        for config in configs_up_to(rvec, 3):
            fp = build_fixed_point(config)
            v = vertex(fp)
            assert v + v.dual() == virtual_tangent(fp)
            assert 0 not in v.terms
            assert 0 not in tilde_vertex(fp).terms


def test_K_t_Qbar_is_movable():
    # T Qbar = sum_i K_i t_i Qbar
    for config in configs_up_to((1, 0, 1, 0), 3):
        fp = build_fixed_point(config)
        assert 0 not in (fp.T * fp.Q.dual()).terms


def test_empty_config_everything_vanishes():
    fp = build_fixed_point(Configuration((0, 0, 0, 1), ((), (), (), (PlanePartition([]),))))
    assert vertex(fp) == Character()
    assert virtual_tangent(fp) == Character()
    assert tilde_vertex(fp) == Character()
    assert ambient_tangent(fp) == Character()
    assert obstruction_fiber(fp) == Character()


def _vertex_by_leg_prefixes(fp):
    """The vertex from Q, K, T and the leg prefixes ``C_k = Q_1 + ... + Q_k``:
    the pairs with ``max(i,j) = k`` add up to ``C_k Cbar_k - C_{k-1} Cbar_{k-1}``."""
    CC = [Character()]  # CC[k] = C_k Cbar_k
    for k in range(1, 5):
        C = Character.sum(
            Character.of(w) * fp.Z[(i, l)] for (i, l), w in fp.w.items() if i <= k
        )
        CC.append(C * C.dual())
    return Character.sum([
        fp.K.dual() * fp.Q,
        -fp.T * fp.Q.dual(),
        *(-PBAR[k] * (CC[k] - CC[k - 1]) for k in range(1, 5)),
    ])


@pytest.mark.parametrize(
    "rvec, max_size",
    [((1, 1, 1, 1), 4), ((1, 1, 0, 0), 4), ((0, 0, 0, 1), 8), ((1, 1, 1, 0), 4), ((2, 1, 0, 1), 3)],
)
def test_vertex_matches_the_leg_prefix_formula(rvec, max_size):
    for config in configs_up_to(rvec, max_size):
        fp = build_fixed_point(config)
        assert vertex(fp) == _vertex_by_leg_prefixes(fp)


def test_diagonal_block_is_rank1_vertex():
    fp = build_fixed_point(one_box_leg4())
    assert vertex_block(fp, 4, 1, 4, 1) == vertex(fp)


def test_blocks_sum_to_vertex():
    rng = random.Random(23)
    pool = []
    for rvec in RVECS:
        pool.extend(configs_up_to(rvec, 3))
    picks = rng.sample(pool, 50)
    for config in picks:
        fp = build_fixed_point(config)
        assert vertex_from_blocks(fp) == vertex(fp)


def test_off_diagonal_block_of_empty_partitions():
    config = Configuration(
        (1, 1, 0, 0), ((PlanePartition([]),), (PlanePartition([]),), (), ())
    )
    fp = build_fixed_point(config)
    assert vertex_block(fp, 1, 1, 2, 1) == Character()


@pytest.mark.parametrize(
    "rvec, max_size",
    [
        ((1, 1, 1, 1), 4),
        ((0, 0, 0, 3), 4),
        ((0, 2, 1, 1), 3),
        ((0, 0, 0, 1), 9),
        # leg-1 boxes grow through the Pbar_{1^} block, max(a, j) = 1
        ((1, 0, 0, 0), 7),
        ((2, 1, 0, 1), 3),
    ],
)
def test_grown_characters_match_the_direct_route(rvec, max_size):
    # from a cleared cache every nonempty configuration is grown box by box
    # from the empty one, through build_fixed_point and vertex with a parent
    localization._level.cache_clear()
    for config, fp, v in (node for level in localization._levels(rvec, max_size) for node in level):
        direct = build_fixed_point(config)
        assert fp.Z == direct.Z
        assert fp.w == direct.w
        assert v == vertex(direct)
