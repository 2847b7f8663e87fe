import pytest
from hypothesis import given, strategies as st

from tetrainst.partitions import (
    Configuration,
    PlanePartition,
    SolidPartition,
    configuration_sign,
    embed_to_solid,
    enumerate_configurations,
    enumerate_plane_partitions,
    sign_rho,
    sign_rho_tilde,
)
from tetrainst.series import macmahon_power

from reference import is_order_ideal, macmahon, order_ideals, parent


def test_counts_match_macmahon():
    expected = [int(c) for c in macmahon(10).coeffs]
    assert expected == [1, 1, 3, 6, 13, 24, 48, 86, 160, 282, 500]
    for n, want in enumerate(expected):
        assert len(enumerate_plane_partitions(n)) == want


def test_enumerated_partitions_are_valid_and_unique():
    for n in range(9):
        pps = enumerate_plane_partitions(n)
        assert len(set(pps)) == len(pps)
        for pp in pps:
            assert pp.size == n
            assert is_order_ideal(pp.boxes)


def test_deterministic_canonical_order():
    pps = enumerate_plane_partitions(4)
    assert list(pps) == sorted(pps, key=lambda p: p.boxes)
    assert pps == enumerate_plane_partitions(4)


def test_box_removal_property():
    # removing a box keeps validity iff the box is maximal in the ideal
    for pp in enumerate_plane_partitions(4):
        cells = set(pp.boxes)
        for box in pp.boxes:
            rest = PlanePartition(cells - {box})
            has_successor = any(
                tuple(box[m] + (1 if m == k else 0) for m in range(3)) in cells
                for k in range(3)
            )
            assert is_order_ideal(rest.boxes) == (not has_successor)


@given(st.integers(min_value=0, max_value=5))
def test_every_subideal_closed_downward(n):
    for pp in enumerate_plane_partitions(n):
        for (a, b, c) in pp:
            for below in ((a - 1, b, c), (a, b - 1, c), (a, b, c - 1)):
                if all(x >= 0 for x in below):
                    assert below in set(pp.boxes)


def test_configuration_counts():
    assert len(enumerate_configurations((1, 1, 0, 0), 1)) == 2
    assert len(enumerate_configurations((2, 1, 0, 1), 0)) == 1
    for n in range(4):
        assert len(enumerate_configurations((0, 0, 0, 1), n)) == len(
            enumerate_plane_partitions(n)
        )
    for r in (2, 3, 4):
        rvec = [0, 0, 0, 0]
        for k in range(r):
            rvec[k % 4] += 1
        mm = macmahon_power(r, 5)
        for n in range(6):
            assert len(enumerate_configurations(tuple(rvec), n)) == mm.coefficient(n)


def test_configurations_are_built_once_per_rank_vector_and_size():
    configs = enumerate_configurations([1, 1, 0, 0], 2)
    assert isinstance(configs, tuple)
    assert enumerate_configurations((1, 1, 0, 0), 2) is configs
    assert enumerate_configurations(("1", "1", "0", "0"), 2) is configs
    assert enumerate_configurations((1, 1, 0, 0), 1) is not configs


@pytest.mark.parametrize("rvec, max_size", [((0, 0, 0, 1), 6), ((1, 1, 0, 1), 4)])
def test_parent_removes_a_corner_of_the_last_nonempty_slot(rvec, max_size):
    for n in range(1, max_size + 1):
        smaller = enumerate_configurations(rvec, n - 1)
        for config in enumerate_configurations(rvec, n):
            less, slot, box = parent(config)
            assert less in smaller
            slots, parent_slots = dict(config.slots()), dict(less.slots())
            assert list(slots) == list(parent_slots)
            # the slot plus the box gives back the configuration; later slots are empty
            for s, pp in slots.items():
                if s == slot:
                    assert pp == PlanePartition([*parent_slots[s], box])
                    assert box == max(pp.boxes)
                else:
                    assert pp == parent_slots[s]
                    assert s < slot or pp.size == 0
            # a corner: no box of the partition lies just beyond it
            for d in range(3):
                beyond = list(box)
                beyond[d] += 1
                assert tuple(beyond) not in slots[slot].boxes


def test_the_empty_configuration_has_no_parent():
    for rvec in [(0, 0, 0, 1), (1, 1, 0, 1)]:
        with pytest.raises(ValueError):
            parent(enumerate_configurations(rvec, 0)[0])


def test_configuration_shape_validation():
    with pytest.raises(ValueError):
        Configuration((1, 0, 0, 0), ((), (), (), ()))


def test_configuration_needs_four_ranks():
    empty = PlanePartition([])
    # zip would pair the three ranks with the first three legs
    with pytest.raises(ValueError):
        Configuration((1, 0, 0), ((empty,), (), (), ()))
    assert Configuration([1, 0, 0, 0], ((empty,), (), (), ())).rvec == (1, 0, 0, 0)


def test_enumeration_rejects_a_negative_rank():
    # a negative rank has no compositions of n >= 1, so nothing would be summed
    with pytest.raises(ValueError):
        enumerate_configurations((1, -1, 0, 0), 1)
    # a negative size is rejected as enumerate_plane_partitions rejects it,
    # on every call, not answered with an empty tuple
    for n in (-1, -3):
        with pytest.raises(ValueError):
            enumerate_plane_partitions(n)
        for _ in range(2):
            with pytest.raises(ValueError):
                enumerate_configurations((0, 0, 0, 1), n)
    # a size that is not an integer is rejected before any growth
    for n in (1.5, 2.0, "2"):
        with pytest.raises(TypeError):
            enumerate_plane_partitions(n)
        with pytest.raises(TypeError):
            enumerate_configurations((0, 0, 0, 1), n)


def test_embed_to_solid():
    pp = PlanePartition([(0, 0, 0), (1, 0, 0)])
    sp = embed_to_solid(pp, 4)
    assert sp.boxes == ((0, 0, 0, 0), (1, 0, 0, 0))
    assert is_order_ideal(sp.boxes)
    for i in range(1, 5):
        for pp in enumerate_plane_partitions(3):
            sp = embed_to_solid(pp, i)
            assert sp.size == pp.size
            assert is_order_ideal(sp.boxes)
            assert all(box[i - 1] == 0 for box in sp.boxes)


def test_sign_rho():
    assert sign_rho(SolidPartition([(0, 0, 0, 0), (0, 0, 0, 1)])) == 1
    assert sign_rho(SolidPartition([])) == 0
    assert sign_rho(SolidPartition([(0, 0, 0, 0), (1, 0, 0, 0)])) == 0


def test_sign_rho_tilde_vanishes_on_embeddings():
    for n in range(5):
        for pp in enumerate_plane_partitions(n):
            for i in range(1, 5):
                assert sign_rho_tilde(embed_to_solid(pp, i), i) == 0


def test_sign_rho_tilde_leg4_matches_rho():
    sp = SolidPartition([(0, 0, 0, 0), (0, 0, 0, 1)])
    assert sign_rho_tilde(sp, 4) == sign_rho(sp) == 1


def _box_rule(sp, i):
    """The parity of boxes whose coordinates other than the i-th tie below the i-th."""
    return sum(len({*box[: i - 1], *box[i:]}) == 1 and box[i - 1] > min(box) for box in sp.boxes) % 2


def test_sign_rules_on_every_solid_partition_up_to_size_8():
    counts, odd = [], 0
    for n in range(9):
        sps = [SolidPartition(boxes) for boxes in order_ideals(4, n)]
        counts.append(len(set(sps)))
        for sp in sps:
            assert is_order_ideal(sp.boxes) and sp.size == n
            assert sign_rho(sp) == sign_rho_tilde(sp, 4)
            for i in range(1, 5):
                assert sign_rho_tilde(sp, i) == _box_rule(sp, i)
            odd += sign_rho(sp) if n <= 7 else 0
    # OEIS A000293, the solid partitions of n; odd counts those of sizes <= 7
    assert counts == [1, 1, 4, 10, 26, 59, 140, 307, 684]
    assert odd == 251


def test_configuration_sign():
    one_box = Configuration((0, 0, 0, 1), ((), (), (), (PlanePartition([(0, 0, 0)]),)))
    assert configuration_sign(one_box) == 0
    # leg 4 embeds (a,b,c) as (a,b,c,0): the 4th coordinate is never largest
    col4 = Configuration(
        (0, 0, 0, 1), ((), (), (), (PlanePartition([(0, 0, 0), (0, 0, 1)]),))
    )
    assert configuration_sign(col4) == 0
    # leg 1 embeds (a,b,c) as (0,a,b,c): the box (0,0,1) becomes (0,0,0,1)
    col1 = Configuration(
        (1, 0, 0, 0), ((PlanePartition([(0, 0, 0), (0, 0, 1)]),), (), (), ())
    )
    assert configuration_sign(col1) == 1
