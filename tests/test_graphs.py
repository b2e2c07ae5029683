import pickle
import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, strategies as st

from connposet import (
    BudgetExceededError,
    EdgeSet,
    edge_slot,
    enumerate_level,
    is_connected,
    level_census,
    slot_count,
    slot_edge,
)

from connposet.graphs import (
    FAMILIES,
    _census_counts,
    _connected_bits,
    _family_plane,
    _level_bits,
    _members_plane,
    _plane_members,
    _planes,
    _shadow_plane,
)

from conftest import (
    bits_edges,
    connected_census,
    deletion_shadow,
    skeleton_walk,
    uf_connected_bits,
    uf_two_edge_connected,
)


def test_edge_slot_examples():
    assert edge_slot(1, 2, 4) == 0
    assert edge_slot(3, 4, 4) == 5
    assert edge_slot(1, 3, 5) == 1


def test_edge_slot_boundaries():
    for n in range(2, 11):
        assert edge_slot(1, 2, n) == 0
        assert edge_slot(n - 1, n, n) == slot_count(n) - 1


def test_slot_roundtrip_exhaustive():
    for n in range(2, 11):
        for s in range(slot_count(n)):
            i, j = slot_edge(s, n)
            assert edge_slot(i, j, n) == s


def test_slot_prefix_stable():
    # the slot of a pair does not depend on the ambient vertex count
    assert edge_slot(2, 4, 5) == edge_slot(2, 4, 10)


def test_edge_slot_rejects_bad_pairs():
    with pytest.raises(ValueError):
        edge_slot(3, 3, 4)
    with pytest.raises(ValueError):
        edge_slot(4, 2, 4)
    with pytest.raises(ValueError):
        edge_slot(1, 5, 4)
    with pytest.raises(ValueError):
        slot_edge(6, 4)


def test_edgeset_validation():
    with pytest.raises(ValueError):
        EdgeSet(4, 1 << 6)
    with pytest.raises(ValueError):
        EdgeSet(11, 0)
    with pytest.raises(ValueError):
        EdgeSet(0, 0)
    with pytest.raises(ValueError):
        EdgeSet(4, -1)
    with pytest.raises(ValueError):
        EdgeSet(3, 7)._replace(bits=8)


def test_edgeset_is_the_tuple_n_bits():
    g = EdgeSet(4, 0b101)
    assert hash(g) == hash((4, 0b101))
    assert g == (4, 0b101) and tuple(g) == (4, 0b101)
    assert sorted([EdgeSet(4, 3), EdgeSet(3, 7), EdgeSet(4, 1)]) == [(3, 7), (4, 1), (4, 3)]
    assert repr(g) == "EdgeSet(n=4, bits=5)" and str(g) == "4:5"
    again = pickle.loads(pickle.dumps(g))
    assert type(again) is EdgeSet and again == g
    assert not hasattr(g, "__dict__")


def test_text_form():
    triangle = EdgeSet.complete(3)
    assert triangle.text() == "3:7"
    assert EdgeSet.from_text("3:7") == triangle
    assert EdgeSet.from_text("4:0").bits == 0
    with pytest.raises(ValueError):
        EdgeSet.from_text("nonsense")
    with pytest.raises(ValueError):
        EdgeSet.from_text("4:zz")


@given(st.integers(min_value=1, max_value=8), st.data())
def test_text_roundtrip(n, data):
    bits = data.draw(st.integers(min_value=0, max_value=(1 << slot_count(n)) - 1))
    g = EdgeSet(n, bits)
    assert EdgeSet.from_text(g.text()) == g


def test_edges_and_adjacency():
    g = EdgeSet.from_edges(4, [(1, 2), (3, 4)])
    assert g.edges() == [(1, 2), (3, 4)]
    assert g.to_adjacency() == {1: [2], 2: [1], 3: [4], 4: [3]}
    assert g.has_edge(2, 1) and not g.has_edge(1, 3)
    assert g.with_edge(1, 3).edge_count == 3
    assert g.without_edge(1, 2).edges() == [(3, 4)]


def test_is_connected_examples():
    assert is_connected(EdgeSet.complete(3))
    assert not is_connected(EdgeSet.from_edges(4, [(1, 2), (3, 4)]))
    assert is_connected(EdgeSet.empty(1))
    assert not is_connected(EdgeSet.empty(2))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_is_connected_matches_union_find(n):
    for bits in range(1 << slot_count(n)):
        assert is_connected(EdgeSet(n, bits)) == uf_connected_bits(n, bits)


def test_enumerate_level_examples():
    level = list(enumerate_level(4, 3, "connected"))
    assert len(level) == 16
    # independent brute force: all 3-subsets of slots, union-find filter
    expected = [
        bits
        for bits in (sum(1 << s for s in combo) for combo in combinations(range(6), 3))
        if uf_connected_bits(4, bits)
    ]
    assert [g.bits for g in level] == sorted(expected)

    assert [g.bits for g in enumerate_level(4, 6, "connected")] == [63]
    assert len(list(enumerate_level(3, 2, "connected"))) == 3


def test_enumerate_level_is_ascending_and_restartable():
    first = [g.bits for g in enumerate_level(5, 4, "connected")]
    second = [g.bits for g in enumerate_level(5, 4, "connected")]
    assert first == second == sorted(first)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_full_family_level_sizes(n):
    m = slot_count(n)
    for k in range(m + 1):
        assert len(list(enumerate_level(n, k, "all"))) == comb(m, k)


def test_enumerate_level_rejects():
    with pytest.raises(ValueError):
        list(enumerate_level(4, 7))
    with pytest.raises(ValueError):
        list(enumerate_level(4, 3, "bogus"))


def test_budget_gate():
    with pytest.raises(BudgetExceededError):
        level_census(7)
    assert list(enumerate_level(7, 0, "all", budget_override=True)) == [EdgeSet(7, 0)]
    with pytest.raises(BudgetExceededError):
        list(enumerate_level(8, 0, "all", budget_override=True))


def test_census_budget_reaches_one_vertex_further():
    with pytest.raises(BudgetExceededError):
        level_census(8)
    with pytest.raises(BudgetExceededError):
        level_census(9, budget_override=True)
    # the scans that list members keep the n <= 7 cap
    with pytest.raises(BudgetExceededError):
        _family_plane(8, "connected")
    with pytest.raises(BudgetExceededError):
        _level_bits(8, "all")


@pytest.mark.parametrize("n", range(1, 8))
def test_level_census_matches_recurrence(n):
    assert level_census(n, budget_override=True).counts == connected_census(n)
    assert level_census(n, "all", budget_override=True).counts == tuple(
        comb(slot_count(n), k) for k in range(slot_count(n) + 1)
    )


@pytest.mark.parametrize("n", range(1, 6))
def test_planes_match_union_find(n):
    planes = _planes(n)
    for bits in range(1 << slot_count(n)):
        assert planes.connected >> bits & 1 == uf_connected_bits(n, bits)
        two = uf_two_edge_connected(n, bits_edges(n, bits))
        assert planes.two_edge_connected >> bits & 1 == two
        assert planes.levels[bits.bit_count()] >> bits & 1


@pytest.mark.parametrize("n", range(1, 7))
def test_planes_match_per_mask_predicates(n):
    planes = _planes(n)
    bridgeless = {bits for bits, bridges, _ in skeleton_walk(n) if not bridges}
    for bits in range(1 << slot_count(n)):
        assert planes.connected >> bits & 1 == _connected_bits(n, bits)
        assert planes.two_edge_connected >> bits & 1 == (bits in bridgeless)


@pytest.mark.parametrize(
    "n, split", [(2, 1), (3, 1), (4, 1), (4, 2), (5, 3), (6, 4), (6, 5), (7, 5), (7, 6)]
)
def test_chunked_census_matches_one_chunk(n, split):
    # the cycle families count from one plane, whatever the split
    for family in ("all", "connected", "two_edge_connected"):
        assert _census_counts(n, family, split) == _census_counts(n, family)


def test_level_census_values():
    assert level_census(3).total == 4
    census = level_census(4)
    assert census.counts == (0, 0, 0, 16, 15, 6, 1)
    assert census.total == 38
    assert level_census(4, "all").total == 2 ** 6
    assert level_census(4, "two_edge_connected").total == 10


def test_census_connected_zero_below_tree_level():
    for n in (3, 4, 5):
        census = level_census(n)
        assert all(census.counts[k] == 0 for k in range(n - 1))


def test_census_matches_union_find_oracle():
    per_level = [0] * 7
    for bits in range(1 << 6):
        if uf_connected_bits(4, bits):
            per_level[bin(bits).count("1")] += 1
    assert tuple(per_level) == level_census(4).counts


def _shadow_members(n, members):
    """The plane shadow of a family given by its members, as a set."""
    plane = _members_plane(members, 1 << slot_count(n))
    return set(_plane_members(_shadow_plane(_planes(n).slots, plane)))


def test_shadow_examples():
    assert _shadow_members(3, [7]) == {3, 5, 6}  # K3 loses any one of its edges
    path = EdgeSet.from_edges(3, [(1, 2), (2, 3)]).bits
    assert _shadow_members(3, [path]) == {1, 4}
    # neither one-edge graph below the path is connected
    assert not _shadow_plane(_planes(3).slots, 1 << path) & _planes(3).connected
    assert _shadow_members(3, [0]) == set()  # the empty graph has nothing below it


@pytest.mark.parametrize("n", range(1, 6))
def test_shadow_plane_matches_deletion_oracle(n):
    # every level of every built-in family, against the oracle's sets
    for family in FAMILIES:
        plane = _family_plane(n, family)
        for k, level in enumerate(_planes(n).levels):
            members = list(_plane_members(plane & level))
            assert _shadow_members(n, members) == deletion_shadow(members), (family, k)


def test_shadow_plane_matches_deletion_oracle_n6():
    rng = random.Random(2026)
    levels = {family: _level_bits(6, family) for family in FAMILIES}
    for _ in range(60):
        family = rng.choice(FAMILIES)
        level = rng.choice([lv for lv in levels[family] if lv])
        members = rng.sample(level, rng.randint(1, len(level)))
        assert _shadow_members(6, members) == deletion_shadow(members)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_members_plane_inverts_plane_members(n):
    width = 1 << slot_count(n)
    rng = random.Random(n)
    for plane in (0, (1 << width) - 1, _family_plane(n, "connected"), rng.getrandbits(width)):
        assert _members_plane(_plane_members(plane), width) == plane
    members = sorted(rng.sample(range(width), width // 3))
    assert list(_plane_members(_members_plane(members, width))) == members


@pytest.mark.parametrize("n", [3, 4, 5])
def test_connectivity_upward_closed(n):
    m = slot_count(n)
    for g in enumerate_level(n, n - 1, "connected"):
        for s in range(m):
            if not g.bits >> s & 1:
                assert is_connected(EdgeSet(n, g.bits | 1 << s))


def test_shadow_restriction_matches_connected_universe():
    # 200 random uniform-level families at n=5: the plane shadow restricted
    # to the connected plane is the oracle's shadow of connected graphs
    rng = random.Random(20250808)
    levels = {k: _level_bits(5, "connected")[k] for k in range(4, 11)}
    for _ in range(200):
        k = rng.choice(list(levels))
        family = rng.sample(levels[k], rng.randint(1, min(30, len(levels[k]))))
        plane = _shadow_plane(_planes(5).slots, _members_plane(family, 1 << 10))
        restricted = {b for b in deletion_shadow(family) if uf_connected_bits(5, b)}
        assert set(_plane_members(plane & _planes(5).connected)) == restricted


def test_shadow_monotone_in_family():
    rng = random.Random(7)
    level = _level_bits(5, "connected")[6]
    for _ in range(50):
        big = rng.sample(level, rng.randint(2, 40))
        small = rng.sample(big, rng.randint(1, len(big)))
        assert _shadow_members(5, small) <= _shadow_members(5, big)
