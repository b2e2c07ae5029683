import itertools
import os
import random
import time
from array import array

import pytest
from hypothesis import given, strategies as st

from connposet import (
    BudgetExceededError,
    EdgeSet,
    chain_partition,
    is_connected,
    property_poset_report,
    sperner_verdict,
)
from connposet.graphs import FAMILIES, _level_bits, enumerate_level, slot_count
from connposet.poset import (
    ChainPartitionError,
    SpernerReport,
    _bracket_images,
    _bracket_matching,
    _family_width,
    _glued_chains,
    _glued_partners,
    _level_pair_adjacency,
    _level_rank,
    _level_sizes,
    _searched,
    check_chain_certificate,
    check_matching_certificate,
    hopcroft_karp,
    level_matchings,
)

from conftest import (
    augmenting_path_matching,
    bracket_step,
    bridges_by_deletion,
    brute_width,
    contains_triangle,
    dilworth_width,
    family_dilworth_width,
    level_pair_rows,
    predicate_levels,
)


def random_bipartite(rng, n_left, n_right, density):
    return [
        sorted(v for v in range(n_right) if rng.random() < density)
        for _ in range(n_left)
    ]


def test_matchers_agree_on_random_instances():
    rng = random.Random(424242)
    for _ in range(40):
        nl, nr = rng.randint(1, 25), rng.randint(1, 25)
        adj = random_bipartite(rng, nl, nr, rng.choice([0.05, 0.2, 0.5]))
        size_a, ml, mr = hopcroft_karp(nl, nr, adj.__getitem__)
        size_b, _, _ = augmenting_path_matching(nl, nr, adj.__getitem__)
        assert size_a == size_b
        # matched pairs are actual edges and mutually consistent
        for u, v in enumerate(ml):
            if v >= 0:
                assert v in adj[u] and mr[v] == u
        assert size_a == sum(1 for v in ml if v >= 0) == sum(1 for u in mr if u >= 0)


@st.composite
def bipartite_graphs(draw):
    n_left = draw(st.integers(1, 10))
    n_right = draw(st.integers(1, 10))
    adj = [
        sorted(draw(st.sets(st.integers(0, n_right - 1), max_size=n_right)))
        for _ in range(n_left)
    ]
    return n_left, n_right, adj


@given(bipartite_graphs(), st.data())
def test_seeded_matching_keeps_the_maximum(graph, data):
    # any sub-matching of a matching is a valid seed: the search repairs the
    # rest to a maximum matching of the same size
    n_left, n_right, adj = graph
    size, match_l, _ = augmenting_path_matching(n_left, n_right, adj.__getitem__)
    kept = data.draw(st.sets(st.sampled_from(range(n_left))))
    seed = [v if u in kept else -1 for u, v in enumerate(match_l)]
    seeded, ml, mr = hopcroft_karp(n_left, n_right, adj.__getitem__, seed)
    assert seeded == size == hopcroft_karp(n_left, n_right, adj.__getitem__)[0]
    for u, v in enumerate(ml):
        if v >= 0:
            assert v in adj[u] and mr[v] == u
    assert seeded == sum(v >= 0 for v in ml)


@given(bipartite_graphs(), st.data())
def test_seeded_matching_rejects_a_bad_seed(graph, data):
    n_left, n_right, adj = graph
    seed = [-1] * n_left
    u = data.draw(st.integers(0, n_left - 1))
    seed[u] = data.draw(st.one_of(st.integers(n_right, n_right + 5), st.integers(-5, -2)))
    with pytest.raises(ValueError, match="seed sends left"):
        hopcroft_karp(n_left, n_right, adj.__getitem__, seed)
    if n_left > 1:
        seed = [-1] * n_left
        a, b = data.draw(st.lists(st.integers(0, n_left - 1), min_size=2, max_size=2,
                                  unique=True))
        seed[a] = seed[b] = data.draw(st.integers(0, n_right - 1))
        with pytest.raises(ValueError, match="seed sends lefts"):
            hopcroft_karp(n_left, n_right, adj.__getitem__, seed)
    with pytest.raises(ValueError, match="entries"):
        hopcroft_karp(n_left, n_right, adj.__getitem__, [-1] * (n_left + 1))


@pytest.mark.parametrize("m", range(13))
def test_bracket_table_matches_stack_walk(m):
    full = (1 << m) - 1
    for direction in ("up", "down"):
        images = list(_bracket_images(full, range(full + 1), direction))
        assert images == [bracket_step(b, m, direction) for b in range(full + 1)]


@given(st.integers(13, 21).flatmap(
    lambda m: st.tuples(st.just(m), st.lists(st.integers(0, (1 << m) - 1), max_size=40))))
def test_bracket_table_matches_stack_walk_on_wide_masks(case):
    m, masks = case
    for direction in ("up", "down"):
        images = list(_bracket_images((1 << m) - 1, masks, direction))
        assert images == [bracket_step(b, m, direction) for b in masks]


@pytest.mark.parametrize("m", range(13))
def test_bracket_maps_are_inverse_and_injective(m):
    full = (1 << m) - 1
    up = list(_bracket_images(full, range(full + 1), "up"))
    down = list(_bracket_images(full, range(full + 1), "down"))
    for b in range(full + 1):
        if up[b] != b:
            assert (up[b] ^ b).bit_count() == 1 and up[b] & b == b
            assert down[up[b]] == b
        else:  # no unmatched "(": only at k >= m/2
            assert 2 * b.bit_count() >= m
        if down[b] != b:
            assert (down[b] ^ b).bit_count() == 1 and down[b] & b == down[b]
            assert up[down[b]] == b
        else:
            assert 2 * b.bit_count() <= m
    for images in (up, down):
        moved = [t for b, t in enumerate(images) if t != b]
        assert len(set(moved)) == len(moved)


def _adjacency_route(full):
    return _searched(lambda *pair: _level_pair_adjacency(full, *pair))


def _assert_routes_agree(monkeypatch, levels, full):
    """_family_width's bracket route and the adjacency route (_glued_chains
    over _level_pair_adjacency) give the same level data, and with it the
    same width."""
    import connposet.poset as poset_mod

    bracket = _family_width(0, "family", levels, full)
    with monkeypatch.context() as patch:
        patch.setattr(poset_mod, "_bracket_matching", _adjacency_route)
        adjacency = _family_width(0, "family", levels, full)
    assert bracket == adjacency


@pytest.mark.parametrize(
    "n,family",
    # the two-edge-connected family on [2] is empty: it has no width
    [(n, f) for n in range(1, 7) for f in FAMILIES if (n, f) != (2, "two_edge_connected")],
)
def test_bracket_route_agrees_with_adjacency_route(monkeypatch, n, family):
    _assert_routes_agree(monkeypatch, _level_bits(n, family), (1 << slot_count(n)) - 1)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", range(1, 7))
def test_bracket_glues_up_sets_below_half_without_search(monkeypatch, n, family):
    import connposet.poset as poset_mod

    def no_search(*args):
        raise AssertionError("searched below m/2")

    monkeypatch.setattr(poset_mod, "hopcroft_karp", no_search)
    m = slot_count(n)
    match = _bracket_matching((1 << m) - 1)
    levels = _level_bits(n, family)
    for k in range((m + 1) // 2):
        if levels[k] and levels[k + 1]:
            size, partner = match(levels[k], levels[k + 1], "up")
            assert size == len(levels[k])
            assert [levels[k + 1][j] ^ b for b, j in zip(levels[k], partner)] == [
                bracket_step(b, m, "up") ^ b for b in levels[k]]


def test_bracket_route_repairs_misses_below_largest_level(monkeypatch):
    # the triangle-free graphs on [5] are a down-set with no level gap; the
    # up map sends some of them below K onto a triangle, so the search runs
    n = 5
    full = (1 << slot_count(n)) - 1
    levels = predicate_levels(n, lambda g: not contains_triangle(g))
    K = max(range(len(levels)), key=lambda k: len(levels[k]))
    misses = 0
    for k in range(K):
        rank = _level_rank(full, levels[k + 1])
        misses += sum(rank[t] < 0 for t in _bracket_images(full, levels[k], "up"))
    assert misses > 0 and all(levels[: K + 1])
    _assert_routes_agree(monkeypatch, levels, full)


def test_wrong_bracket_seed_fails_the_chain_certificate(monkeypatch):
    import connposet.poset as poset_mod

    real = poset_mod._bracket_images

    def rotated(full, bits, direction):
        images = list(real(full, bits, direction))
        return images[1:] + images[:1]  # a complete, injective, wrong proposal

    monkeypatch.setattr(poset_mod, "_bracket_images", rotated)
    with pytest.raises(AssertionError, match="exactly one edge"):
        poset_mod.sperner_verdict(4)


def level_matching(n, k, direction, universe="connected"):
    """The record of level_matchings(n, universe, k) from level k into
    level k + 1 (up) or k - 1 (down)."""
    k_to = k + 1 if direction == "up" else k - 1
    (res,) = [res for res in level_matchings(n, universe, k) if res.k_to == k_to]
    return res


def test_matching_up_into_tiny_level():
    res = level_matching(3, 2, "up")
    assert (res.size_from, res.size_to) == (3, 1)
    assert res.matching_size == 1
    assert not res.complete
    assert res.violator is not None
    assert {g.bits for g in res.violator} == {3, 5, 6}


def test_matching_down_from_level_five():
    res = level_matching(4, 5, "down")
    assert (res.size_from, res.size_to) == (6, 15)
    assert res.matching_size == 6
    assert res.complete and res.violator is None


def test_matching_up_against_smaller_level():
    res = level_matching(4, 3, "up")
    assert (res.size_from, res.size_to) == (16, 15)
    assert res.matching_size == 15
    assert not res.complete


def test_matched_pairs_are_one_edge_steps():
    res = level_matching(5, 6, "down")
    for g, h in res.pairs:
        assert h.bits & g.bits == h.bits
        assert g.edge_count - h.edge_count == 1
        assert is_connected(h)


def test_violator_really_violates_hall():
    res = level_matching(4, 3, "up")
    violator_bits = {g.bits for g in res.violator}
    m = slot_count(4)
    level_up = {g.bits for g in enumerate_level(4, 4, "connected")}
    neighborhood = set()
    for b in violator_bits:
        for s in range(m):
            if not b >> s & 1 and (b | 1 << s) in level_up:
                neighborhood.add(b | 1 << s)
    assert len(neighborhood) < len(violator_bits)


def test_matching_rejects_bad_levels():
    # a level outside 0..m is refused; a pair that leaves 0..m or meets an
    # empty level is not listed
    for k in (-1, 7):
        with pytest.raises(ValueError, match="must lie in 0..6"):
            list(level_matchings(4, k=k))
    assert [(res.k_from, res.k_to) for res in level_matchings(4, k=6)] == [(6, 5)]
    assert [(res.k_from, res.k_to) for res in level_matchings(4, k=3)] == [(3, 4)]
    assert list(level_matchings(4, k=0)) == []


def test_families_are_names():
    # a per-graph predicate is no family: every width and matching entry
    # point refuses it and names the families it reads from planes
    pred = lambda g: True
    for call in (lambda: sperner_verdict(3, universe=pred),
                 lambda: list(level_matchings(3, universe=pred)),
                 lambda: chain_partition(3, universe=pred)):
        with pytest.raises(ValueError, match="'all', 'connected', 'two_edge_connected'"):
            call()
    with pytest.raises(
        ValueError, match=r"\['contains_triangle', 'hamiltonian', 'two_edge_connected'\]"
    ):
        property_poset_report(3, pred)


def test_chain_partition_n3():
    part = chain_partition(3)
    assert part.count == 3
    chains = [[g.bits for g in chain] for chain in part.chains]
    assert sorted(len(c) for c in chains) == [1, 1, 2]
    covered = {b for chain in chains for b in chain}
    assert covered == {3, 5, 6, 7}


@pytest.mark.parametrize(
    "n,expected_count,expected_total",
    [(3, 3, 4), (4, 16, 38), (5, 222, 728)],
)
def test_chain_partition_counts(n, expected_count, expected_total):
    part = chain_partition(n)
    assert part.count == expected_count
    elements = [g for chain in part.chains for g in chain]
    assert len(elements) == expected_total
    assert len(set(elements)) == expected_total


def test_chains_are_saturated_chains():
    for chain in chain_partition(4).chains:
        for lower, upper in zip(chain, chain[1:]):
            assert lower.bits & upper.bits == lower.bits
            assert upper.edge_count == lower.edge_count + 1


def test_width_trivial_shapes():
    assert dilworth_width(list(range(5)), successors=lambda a: range(a + 1, 5)) == 1
    assert dilworth_width(list(range(7)), successors=lambda a: []) == 7


def test_width_two_levels_n3():
    elements = sorted(
        list(enumerate_level(3, 2, "connected")) + list(enumerate_level(3, 3, "connected"))
    )
    lt = lambda a, b: a.bits & b.bits == a.bits and a != b
    width = dilworth_width(elements, successors=lambda a: [b for b in elements if lt(a, b)])
    assert width == 3 == brute_width(elements, lt)
    assert family_dilworth_width([[g.bits for g in elements]]) == 3


def test_width_matches_brute_force_on_random_posets():
    rng = random.Random(99)
    for _ in range(25):
        n = rng.randint(2, 11)
        # random DAG given by a random strict upper-triangular relation,
        # transitively closed
        above = {i: set() for i in range(n)}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.3:
                    above[i].add(j)
        for i in reversed(range(n)):
            for j in list(above[i]):
                above[i] |= above[j]
        lt = lambda a, b: b in above[a]
        width = dilworth_width(list(range(n)), successors=lambda a: sorted(above[a]))
        assert width == brute_width(list(range(n)), lt)


def test_sperner_verdict_small():
    # the three paths on [3], then the triangle
    assert sperner_verdict(3) == SpernerReport(3, "connected", 4, {2: 3, 3: 1}, 2, 3)

    v4 = sperner_verdict(4)
    assert (v4.width, v4.max_level_k, v4.element_count) == (16, 3, 38)

    v5 = sperner_verdict(5)
    assert v5.width == 222 and v5.max_level_k == 5
    assert v5.level_sizes == {4: 125, 5: 222, 6: 205, 7: 120, 8: 45, 9: 10, 10: 1}


def test_sperner_verdict_full_universe_is_boolean_lattice():
    # levels 1 and 2 tie; the lower one is reported and certified
    assert sperner_verdict(3, universe="all") == SpernerReport(
        3, "all", 8, {0: 1, 1: 3, 2: 3, 3: 1}, 1, 3)


def without_level_4(g):
    # connected graphs on [4] minus level 4: the level gap blocks the chain route
    return is_connected(g) and g.edge_count != 4


def test_sperner_verdict_streamed_neighbors():
    # levels 3, 5, 6 hold 16, 6, 1 graphs; no two trees are comparable, so the
    # width is level 3's, but level 5 has no level 4 to glue down into
    levels = predicate_levels(4, without_level_4)
    assert family_dilworth_width(levels) == 16
    with pytest.raises(ChainPartitionError, match="level 5 is larger than level 4") as err:
        _family_width(4, "without_level_4", levels, (1 << slot_count(4)) - 1)
    assert (err.value.k_from, err.value.k_to) == (5, 4)


def test_sperner_verdict_falls_back_on_level_gap():
    # no fallback is left: the gap that blocks chain_partition's route
    # blocks the width verdict's too, at the same first pair
    levels = predicate_levels(3, lambda g: g.edge_count != 2)
    full = (1 << slot_count(3)) - 1
    with pytest.raises(ChainPartitionError) as err:
        _glued_chains(_adjacency_route(full), levels)
    assert (err.value.k_from, err.value.k_to) == (3, 2)
    with pytest.raises(ChainPartitionError) as err:
        _family_width(3, "custom", levels, full)
    assert (err.value.k_from, err.value.k_to) == (3, 2)
    assert _level_sizes(levels) == {0: 1, 1: 3, 3: 1}
    assert family_dilworth_width(levels) == 3


@pytest.mark.parametrize(
    "n,universe",
    [(n, u) for n in (1, 2, 3, 4, 5) for u in ("connected", "two_edge_connected", "all")
     if (n, u) != (2, "two_edge_connected")]
    + [(6, "connected")],
)
def test_chain_route_agrees_with_dilworth(n, universe):
    report = sperner_verdict(n, universe)
    levels = _level_bits(n, universe)
    assert report.element_count == sum(map(len, levels))
    assert report.level_sizes == _level_sizes(levels)
    assert report.width == len(levels[report.max_level_k]) == family_dilworth_width(levels)


def test_check_chain_certificate_accepts():
    check_chain_certificate([3, 5, 6, 7], [[3, 7], [5], [6]])  # connected, n = 3
    check_chain_certificate([0, 1, 2, 3], [[0, 1, 3], [2]])
    check_chain_certificate([], [])
    high = [1 << 20, 1 << 20 | 1 << 16]  # the top slot of n = 7: a 2^21-mask cube
    check_chain_certificate(high, [high])


@pytest.mark.parametrize(
    "chains,problem",
    [
        ([[0, 1, 3], [1]], "repeated"),  # 1 twice, 2 left out
        ([[0, 3], [1, 2]], "exactly one edge"),  # 0 -> 3 adds two edges
        ([[0, 1, 3], []], "missing"),  # 2 left out
        ([[0, 1, 3], [2], []], "largest level has 2"),  # one chain too many
        ([[0, 1, 3], [2, 6]], "outside"),  # 6 is not in the universe
    ],
)
def test_check_chain_certificate_rejects(chains, problem):
    # the Boolean lattice on two edge slots: levels {0}, {1, 2}, {3}
    with pytest.raises(AssertionError, match=problem):
        check_chain_certificate([0, 1, 2, 3], chains)


def test_check_chain_certificate_rejects_a_repeated_universe_element():
    # the chains are a valid partition of the set, but not of the universe
    with pytest.raises(AssertionError, match="cover 4 of 5 elements; 0x3 is missing"):
        check_chain_certificate([0, 1, 2, 3, 3], [[0, 1, 3], [2]])


@pytest.mark.parametrize(
    "chains,problem",
    [
        # a chain's members are checked before its steps
        ([[0, 3, 7], [1, 2]], "member 0x7 is repeated or outside"),
        ([[0, 3], [1, 2, 7]], "step 0x0 -> 0x3 does not add exactly one edge"),
        ([[0, 1, 3], [2, 6, 2]], "member 0x6 is repeated or outside"),
        ([[3, 1, 0], [2]], "step 0x3 -> 0x1 does not add exactly one edge"),  # downward
        ([[0, 1], [2, -1]], "member -0x1 is repeated or outside"),  # no wrap to 0x3
    ],
)
def test_check_chain_certificate_reports_the_first_failure(chains, problem):
    with pytest.raises(AssertionError, match=problem):
        check_chain_certificate([0, 1, 2, 3], chains)


def test_sperner_verdict_checks_chain_certificate(monkeypatch):
    import connposet.poset as poset_mod

    real_partners, real_chains = poset_mod._glued_partners, poset_mod._glued_chains

    def shared_partner(match, levels):
        K, partner = real_partners(match, levels)
        k = next(k for k in partner if len(partner[k]) > 1)
        partner[k][1] = partner[k][0]
        return K, partner

    def dropped_member(match, levels):
        chains = real_chains(match, levels)
        chains[0].pop()
        return chains

    with monkeypatch.context() as patch:
        patch.setattr(poset_mod, "_glued_partners", shared_partner)
        with pytest.raises(AssertionError, match="share a partner"):
            poset_mod.sperner_verdict(4)
    with monkeypatch.context() as patch:
        patch.setattr(poset_mod, "_glued_chains", dropped_member)
        with pytest.raises(AssertionError, match="missing"):
            poset_mod.chain_partition(4)


# the Boolean lattice on three edge slots, glued through K = 1
CUBE = [(0,), (1, 2, 4), (3, 5, 6), (7,)]
CUBE_PARTNER = {0: [0], 2: [0, 2, 1], 3: [0]}  # 3 -> 1, 5 -> 4, 6 -> 2, 7 -> 3


def _cube(levels=(), partner=()):
    """CUBE and CUBE_PARTNER with the given levels and partner arrays
    replaced, a partner array of None deleted."""
    cube = [list(level) for level in CUBE]
    arrays = {k: array("i", p) for k, p in CUBE_PARTNER.items()}
    for k, level in dict(levels).items():
        cube[k] = level
    for k, p in dict(partner).items():
        if p is None:
            del arrays[k]
        else:
            arrays[k] = p
    return cube, arrays


def test_check_matching_certificate_accepts():
    levels, partner = _cube()
    check_matching_certificate(levels, 1, partner)
    covers = {(0, 1), (1, 3), (4, 5), (2, 6), (3, 7)}
    check_matching_certificate(levels, 1, partner, covers)
    check_matching_certificate([(), (1, 2)], 1, {})  # empty levels need no partners


@pytest.mark.parametrize(
    "K,levels,partner,problem",
    [
        (1, {}, {2: [0, 0, 1]}, "two members of level 2 share a partner in level 1"),
        (1, {}, {2: [-1, 2, 1]}, "a partner of level 2 lies outside level 1"),
        (1, {}, {2: [0, 3, 1]}, "a partner of level 2 lies outside level 1"),
        (1, {}, {3: None}, "level 3 has no complete matching into level 2"),
        (1, {}, {2: [0, 2]}, "level 2 has no complete matching into level 1"),
        (1, {1: [1, 2, 2, 4]}, {}, "level 1 is not strictly ascending"),
        (1, {1: [2, 1, 4]}, {}, "level 1 is not strictly ascending"),
        (1, {2: [3, 5, 7]}, {}, "level 2 holds a member without 2 edges"),
        (1, {0: [3]}, {}, "level 0 holds a member without 0 edges"),
        (3, {}, {}, "level 3 is not a largest level"),
        (4, {}, {}, "level 4 is not a largest level"),
        (1, {}, {2: [0, 1, 2]}, "step 0x2 -> 0x5 does not add exactly one edge"),
    ],
)
def test_check_matching_certificate_rejects(K, levels, partner, problem):
    levels, partner = _cube(levels, partner)
    with pytest.raises(AssertionError, match=problem):
        check_matching_certificate(levels, K, partner)


def test_check_matching_certificate_uses_the_given_covers():
    levels, partner = _cube()
    covers = {(0, 1), (1, 3), (4, 5), (2, 6)}  # 3 -> 7 is not recorded
    with pytest.raises(AssertionError, match="0x3 -> 0x7 is not a cover of the order"):
        check_matching_certificate(levels, 1, partner, covers)


def _rotating(match, k_from):
    """match, with the partners of level k_from rotated by one: complete and
    injective, but not the matching found."""

    def rotated(from_bits, to_bits, direction):
        size, partner = match(from_bits, to_bits, direction)
        if from_bits and from_bits[0].bit_count() == k_from:
            partner = partner[1:] + partner[:1]
        return size, partner

    return rotated


def _check_chains_over_covers(levels, chains, covers):
    """The chain check with recorded covers for its steps: the quotient's
    canonical bitmasks of a covering pair need not differ by one edge."""
    members = sorted(itertools.chain.from_iterable(levels))
    if sorted(itertools.chain.from_iterable(chains)) != members:
        raise AssertionError("the chains do not partition the universe")
    if not all(pair in covers for chain in chains for pair in zip(chain, chain[1:])):
        raise AssertionError("a chain step is not a cover")


def _verdicts(match, levels, covers=None):
    """Whether check_matching_certificate accepts _glued_partners' matchings,
    and whether check_chain_certificate (over covers: the check above)
    accepts _glued_chains' chains."""
    K, partner = _glued_partners(match, levels)
    chains = _glued_chains(match, levels)
    checks = (
        lambda: check_matching_certificate(levels, K, partner, covers),
        lambda: check_chain_certificate(itertools.chain.from_iterable(levels), chains)
        if covers is None else _check_chains_over_covers(levels, chains, covers),
    )
    verdicts = []
    for check in checks:
        try:
            check()
        except AssertionError:
            verdicts.append(False)
        else:
            verdicts.append(True)
    assert len(chains) == len(levels[K])
    return verdicts


def _assert_certificates_agree(match, levels, covers=None):
    """Both checks accept the real gluing, and agree on one whose partners
    are rotated on each level in turn."""
    assert _verdicts(match, levels, covers) == [True, True]
    for k, level in enumerate(levels):
        if len(level) > 1:
            accepted, chained = _verdicts(_rotating(match, k), levels, covers)
            assert accepted == chained, k


@pytest.mark.parametrize(
    "n,family",
    [(n, f) for n in range(1, 6) for f in FAMILIES if (n, f) != (2, "two_edge_connected")],
)
def test_matching_certificate_agrees_with_chain_certificate(n, family):
    levels = _level_bits(n, family)
    _assert_certificates_agree(_bracket_matching((1 << slot_count(n)) - 1), levels)


def test_matching_certificate_agrees_on_cprime_hosts(monkeypatch):
    import connposet.poset as poset_mod
    import connposet.quotient as quotient_mod

    real = quotient_mod._family_width
    hosts = []

    def spy(n, universe, levels, full):
        hosts.append((levels, full))
        return real(n, universe, levels, full)

    monkeypatch.setattr(poset_mod, "_usable_cpus", lambda: 1)  # the spy sees every host
    monkeypatch.setattr(quotient_mod, "_family_width", spy)
    quotient_mod.cprime_search(5)
    assert len(hosts) == 30
    for levels, full in hosts:
        _assert_certificates_agree(_bracket_matching(full), levels)


@pytest.mark.parametrize("n", range(1, 7))
def test_matching_certificate_agrees_on_the_quotient(monkeypatch, n):
    import connposet.quotient as quotient_mod

    real = quotient_mod._glued_partners
    glued = []

    def spy(match, levels):
        glued.append((match, levels))
        return real(match, levels)

    monkeypatch.setattr(quotient_mod, "_glued_partners", spy)
    quotient_mod.quotient_sperner(n)
    qp = quotient_mod.quotient_poset(n)
    canon = [cls.canon.bits for cls in qp.classes]
    covers = {(canon[c.from_index], canon[c.to_index]) for c in qp.covers}
    [(match, levels)] = glued
    _assert_certificates_agree(match, levels, covers)


def test_matching_stops_once_the_smaller_side_is_saturated():
    # the greedy pass matches every graph of level 9 from level 8, so no
    # phase is layered: each left's row is read once
    n, k = 6, 8
    levels = _level_bits(n, "connected")
    rows = _level_pair_adjacency((1 << slot_count(n)) - 1, levels[k], levels[k + 1], "up")
    calls = []

    def neighbors(u):
        calls.append(u)
        return rows[u]

    size, match_l, match_r = hopcroft_karp(len(levels[k]), len(levels[k + 1]), neighbors)
    assert size == len(levels[k + 1]) < len(levels[k])
    assert -1 not in match_r
    assert calls == list(range(len(levels[k])))


def test_upper_degree_identity_n4():
    # a connected graph with k edges has exactly m-k one-edge extensions,
    # all connected; a graph with k+1 edges has at most k+1 one-edge deletions
    m = slot_count(4)
    for k in range(3, m):
        for g in enumerate_level(4, k, "connected"):
            ups = [
                EdgeSet(4, g.bits | 1 << s) for s in range(m) if not g.bits >> s & 1
            ]
            assert len(ups) == m - k
            assert all(is_connected(h) for h in ups)
    for k in range(4, m + 1):
        for h in enumerate_level(4, k, "connected"):
            downs = [
                EdgeSet(4, h.bits ^ 1 << s)
                for s in range(m)
                if h.bits >> s & 1
            ]
            assert len(downs) == k
            assert sum(1 for d in downs if is_connected(d)) <= k


@pytest.mark.parametrize("n", [3, 4, 5])
def test_lower_degree_bound_via_bridges(n):
    # non-bridge deletions keep connectivity, and bridges number < n, so a
    # connected graph with j edges has at least j+1-n connected deletions
    m = slot_count(n)
    for k in range(n - 1, m + 1):
        for g in enumerate_level(n, k, "connected"):
            bridge_count = len(bridges_by_deletion(g))
            assert bridge_count <= n - 1
            assert k - bridge_count >= k + 1 - n


def test_chain_partition_trivial_universe():
    part = chain_partition(1)
    assert part.count == 1 and part.chains == ((EdgeSet(1, 0),),)


def test_chain_partition_error_reports_pair(monkeypatch):
    import connposet.poset as poset_mod

    real = poset_mod._level_pair_adjacency

    def sabotaged(full, from_bits, to_bits, direction):
        adj = real(full, from_bits, to_bits, direction)
        if (from_bits[0].bit_count(), direction) == (6, "down"):
            return [[] for _ in adj]
        return adj

    monkeypatch.setattr(poset_mod, "_level_pair_adjacency", sabotaged)
    with pytest.raises(ChainPartitionError) as err:
        poset_mod.chain_partition(4)
    assert (err.value.k_from, err.value.k_to) == (6, 5)


# the level-pair searches of `chains` and `matchings`, and the hosts of
# `explore cprime`, shared with a forked child


def _outcome(compute):
    """compute()'s result, or its error's type and text."""
    try:
        return compute()
    except Exception as exc:  # the error is the outcome
        return type(exc), str(exc)


def _split_outcomes(monkeypatch, compute, cpus):
    """compute()'s outcome with _usable_cpus patched to cpus and the number
    of forks it made; no child may be left unreaped."""
    import connposet.poset as poset_mod

    forks = []
    real_fork = os.fork

    def counted_fork():
        forks.append(1)
        return real_fork()

    with monkeypatch.context() as patch:
        patch.setattr(poset_mod, "_usable_cpus", lambda: cpus)
        patch.setattr(os, "fork", counted_fork)
        outcome = _outcome(compute)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return outcome, len(forks)


def _chains(n, family):
    return lambda: chain_partition(n, family).chain_bits


def _matchings(n, family):
    return lambda: list(level_matchings(n, family))


@pytest.mark.parametrize("compute", [_chains, _matchings])
@pytest.mark.parametrize("family", FAMILIES)
def test_split_searches_match_one_process(monkeypatch, compute, family):
    # every MatchingResult field, every chain, and every error agree
    for n in range(1, 7):
        one, forks_one = _split_outcomes(monkeypatch, compute(n, family), 1)
        two, forks_two = _split_outcomes(monkeypatch, compute(n, family), 2)
        assert two == one and forks_one == 0
        assert forks_two == 1 or n < 6


def _sabotaged_child(monkeypatch, how):
    """Make _level_rank, which every level-pair search and every bracket
    match calls, fail in a forked child: raise at once, or leave by
    os._exit(1) on its second call; os.fork raising OSError when how is
    "fork"."""
    import connposet.poset as poset_mod

    parent, calls = os.getpid(), []
    real = poset_mod._level_rank

    def sabotaged(*args, **kwargs):
        if os.getpid() != parent:
            calls.append(1)
            if how == "raise":
                raise RuntimeError("search failed in the child")
            if len(calls) > 1:
                os._exit(1)
        return real(*args, **kwargs)

    def no_fork():
        raise OSError("fork refused")

    if how == "fork":
        monkeypatch.setattr(os, "fork", no_fork)
    else:
        monkeypatch.setattr(poset_mod, "_level_rank", sabotaged)


@pytest.mark.parametrize("how", ["raise", "exit", "fork"])
@pytest.mark.parametrize("compute", [_chains, _matchings])
def test_split_recovers_from_a_failed_child(monkeypatch, compute, how):
    import connposet.poset as poset_mod

    monkeypatch.setattr(poset_mod, "_usable_cpus", lambda: 2)
    expected = [compute(n, "connected")() for n in (5, 6)]
    _sabotaged_child(monkeypatch, how)
    assert [compute(n, "connected")() for n in (5, 6)] == expected
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("how", ["raise", "exit", "fork"])
def test_split_error_is_the_first_in_task_order(monkeypatch, how):
    # level 6 of n = 4 cannot glue down in either process; the child's own
    # failure or death does not change which pair the error names
    import connposet.poset as poset_mod

    real = poset_mod._level_pair_adjacency

    def blocked(full, from_bits, to_bits, direction):
        adj = real(full, from_bits, to_bits, direction)
        return [[] for _ in adj] if from_bits[0].bit_count() == 6 else adj

    monkeypatch.setattr(poset_mod, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(poset_mod, "_level_pair_adjacency", blocked)
    _sabotaged_child(monkeypatch, how)
    outcome, _ = _split_outcomes(monkeypatch, _chains(4, "connected"), 2)
    assert outcome == (ChainPartitionError, "no complete matching from level 6 into level 5")


def _cprime_search(n):
    from connposet.quotient import cprime_search

    return lambda: cprime_search(n)


def test_split_cprime_search_matches_one_process(monkeypatch):
    # every report agrees field by field, and the parent, slowed down, runs
    # only a share of the hosts: a report that cannot cross the pipe would
    # send the child's whole share back to be rerun here
    import connposet.quotient as quotient_mod

    parent, real, ran = os.getpid(), quotient_mod.cprime_sperner, []

    def slow_parent(g, budget_override):
        if os.getpid() == parent:
            ran.append(g)
            time.sleep(0.005)
        return real(g, budget_override)

    for n in range(2, 7):
        hosts = sum(len(quotient_mod.connected_classes(k)) for k in range(2, n + 1))
        one, forks_one = _split_outcomes(monkeypatch, _cprime_search(n), 1)
        ran.clear()
        with monkeypatch.context() as patch:
            patch.setattr(quotient_mod, "cprime_sperner", slow_parent)
            two, forks_two = _split_outcomes(monkeypatch, _cprime_search(n), 2)
        assert two == one and len(one) == hosts and forks_one == 0
        assert all(type(report) is SpernerReport for report in two)
        assert forks_two == int(hosts > 1)
        assert len(ran) < hosts or n < 5


@pytest.mark.parametrize("how", ["raise", "exit", "fork"])
def test_split_cprime_search_recovers_from_a_failed_child(monkeypatch, how):
    import connposet.poset as poset_mod

    monkeypatch.setattr(poset_mod, "_usable_cpus", lambda: 2)
    expected = [_cprime_search(n)() for n in (5, 6)]
    _sabotaged_child(monkeypatch, how)
    assert [_cprime_search(n)() for n in (5, 6)] == expected
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_split_cprime_error_is_the_first_host(monkeypatch, capsys):
    # every host fails to glue in either process; the error is the first
    # host's in task order (K_2), not the first one either process ran
    import connposet.poset as poset_mod
    from connposet import cli

    def no_chains(match, levels):
        raise ChainPartitionError(0, 1, f"no gluing over {len(levels) - 1} edges")

    monkeypatch.setattr(poset_mod, "_glued_partners", no_chains)
    explore = lambda: cli.main(["explore", "cprime", "--n", "5"])
    assert _split_outcomes(monkeypatch, explore, 2) == (1, 1)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "FAIL cprime: no gluing over 1 edges (pair 0->1)\n"


def test_cprime_hosts_at_the_scan_cap_fit_the_split_queue(monkeypatch):
    # _run_split stays in one process beyond PIPE_BUF // 4 tasks; at the
    # scan cap cprime_search queues one host per connected class on 2..n
    # vertices (OEIS A001349), so a higher cap must still fit, or split
    # otherwise, before it silently loses the child
    from connposet.limits import SCAN_OVERRIDE_MAX_N
    from connposet.poset import _run_split
    from connposet.quotient import connected_classes

    classes = {2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
    assert {n: len(connected_classes(n)) for n in range(2, 7)} == {
        n: classes[n] for n in range(2, 7)
    }
    assert SCAN_OVERRIDE_MAX_N in classes, "count the connected classes at the new cap"
    hosts = sum(classes[n] for n in range(2, SCAN_OVERRIDE_MAX_N + 1))
    queue = lambda: _run_split([int] * hosts, range(hosts))
    assert _split_outcomes(monkeypatch, queue, 2) == ([0] * hosts, 1)


@pytest.mark.parametrize("costs", [[1, 20, 1, 10], [1, 10, 1, 20]])
def test_run_split_raises_the_first_failing_task(monkeypatch, costs):
    # tasks 1 and 3 fail wherever they run; the error is task 1's, from
    # this process, whichever of the two failing tasks is queued first
    import connposet.poset as poset_mod

    def task(i):
        if i % 2:
            raise ValueError(f"task {i} failed in {os.getpid()}")
        return i, bytes([i])

    monkeypatch.setattr(poset_mod, "_usable_cpus", lambda: 2)
    tasks = [lambda i=i: task(i) for i in range(4)]
    with pytest.raises(ValueError, match=f"task 1 failed in {os.getpid()}"):
        poset_mod._run_split(tasks, costs)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert poset_mod._run_split(tasks[::2], [1, 2]) == [(0, b"\0"), (2, b"\2")]


@pytest.mark.parametrize("where", ["thread", "platform"])
def test_run_split_stays_in_one_process(monkeypatch, where):
    # beside another thread, or off Linux, no fork is tried
    import sys
    import threading

    import connposet.poset as poset_mod

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(poset_mod, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", no_fork)
    if where == "platform":
        monkeypatch.setattr(sys, "platform", "darwin")
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(10,))
    if where == "thread":
        thread.start()
    try:
        assert poset_mod._run_split([lambda: 1, lambda: 2], [1, 2]) == [1, 2]
    finally:
        release.set()
        if where == "thread":
            thread.join(10)
    assert not thread.is_alive()


def test_run_split_tolerates_a_reaped_child(monkeypatch):
    # with SIGCHLD ignored the kernel reaps the child itself, and the
    # results still come back through the pipe
    import signal

    import connposet.poset as poset_mod

    forks, real_fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    monkeypatch.setattr(poset_mod, "_usable_cpus", lambda: 2)
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        assert poset_mod._run_split([lambda: 1, lambda: 2], [1, 2]) == [1, 2]
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert forks == [1]


def test_run_split_kills_the_child_when_interrupted(monkeypatch):
    # an interrupt here does not wait for the child's share
    import connposet.poset as poset_mod

    parent = os.getpid()

    def task():
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)

    monkeypatch.setattr(poset_mod, "_usable_cpus", lambda: 2)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        poset_mod._run_split([task, task], [1, 1])
    assert time.monotonic() - start < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _assert_rows_match_oracle(monkeypatch, full, levels):
    """Every adjacent level pair, both directions: the dense-rank rows equal
    the hash-index oracle's, row by row and in order, and every entry is the
    int object that the target level's rank holds, so the rows allocate no
    int of their own."""
    import connposet.poset as poset_mod

    real = poset_mod._level_rank
    ranks = []

    def spy(full, level):
        ranks.append(real(full, level))
        return ranks[-1]

    with monkeypatch.context() as patch:
        patch.setattr(poset_mod, "_level_rank", spy)
        for lower, upper in zip(levels, levels[1:]):
            if not lower or not upper:
                continue
            for from_bits, to_bits, direction in ((lower, upper, "up"), (upper, lower, "down")):
                ranks.clear()
                rows = _level_pair_adjacency(full, from_bits, to_bits, direction)
                [rank] = ranks
                assert all(rank[to_bits[r]] is r for row in rows for r in row)
                assert rows == level_pair_rows(full, from_bits, to_bits, direction)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", range(1, 7))
def test_level_pair_rows_match_oracle(monkeypatch, n, family):
    _assert_rows_match_oracle(monkeypatch, (1 << slot_count(n)) - 1, _level_bits(n, family))


@pytest.mark.parametrize("family", FAMILIES)
def test_search_over_list_rows_matches_array_rows(family):
    # the list rows give Hopcroft-Karp the same matching as array rows would
    for n in range(1, 7):
        full = (1 << slot_count(n)) - 1
        levels = _level_bits(n, family)
        pairs = [(k, k + 1, "up") for k in range(len(levels) - 1)]
        pairs += [(k, k - 1, "down") for k in range(1, len(levels))]
        for k, k_to, direction in pairs:
            if not levels[k] or not levels[k_to]:
                continue
            rows = _level_pair_adjacency(full, levels[k], levels[k_to], direction)
            arrays = [array("i", row) for row in rows]
            sides = len(levels[k]), len(levels[k_to])
            assert (hopcroft_karp(*sides, rows.__getitem__)[1]
                    == hopcroft_karp(*sides, arrays.__getitem__)[1])


def test_cprime_level_pair_rows_match_oracle(monkeypatch):
    import connposet.poset as poset_mod
    import connposet.quotient as quotient_mod

    real = quotient_mod._family_width
    seen = []

    def spy(n, universe, levels, full):
        seen.append((levels, full))
        return real(n, universe, levels, full)

    monkeypatch.setattr(poset_mod, "_usable_cpus", lambda: 1)  # the spy sees every host
    monkeypatch.setattr(quotient_mod, "_family_width", spy)
    reports = quotient_mod.cprime_search(5)
    assert len(seen) == len(reports) == sum(
        len(quotient_mod.connected_classes(n)) for n in range(2, 6)
    )
    for levels, full in seen:
        _assert_rows_match_oracle(monkeypatch, full, levels)
        _assert_routes_agree(monkeypatch, levels, full)


@pytest.mark.parametrize("n", range(3, 7))
def test_hamiltonian_bracket_route_agrees_with_adjacency_route(monkeypatch, n):
    import connposet.quotient as quotient_mod

    real = quotient_mod._family_width
    seen = []

    def spy(n, universe, levels, full):
        seen.append((levels, full))
        return real(n, universe, levels, full)

    monkeypatch.setattr(quotient_mod, "_family_width", spy)
    quotient_mod.property_poset_report(n, "hamiltonian")
    assert len(seen) == 1
    _assert_routes_agree(monkeypatch, *seen[0])


@pytest.mark.parametrize("family", FAMILIES)
def test_result_views_are_edge_sets_of_stored_bitmasks(family):
    violators = 0
    for n in range(1, 6):
        for res in level_matchings(n, family):
            assert res.pairs == tuple((EdgeSet(n, a), EdgeSet(n, b)) for a, b in res.pair_bits)
            assert len(res.pair_bits) == res.matching_size
            if res.violator_bits is None:
                assert res.violator is None
            else:
                violators += 1
                assert res.violator == tuple(EdgeSet(n, b) for b in res.violator_bits)
        if any(_level_bits(n, family)):
            part = chain_partition(n, family)
            assert part.chains == tuple(
                tuple(EdgeSet(n, b) for b in chain) for chain in part.chain_bits
            )
            assert part.count == len(part.chain_bits)
    assert violators > 0


def test_chain_partition_checks_bitmask_chains(monkeypatch):
    import connposet.poset as poset_mod

    real = poset_mod.check_chain_certificate
    checked = []

    def spy(universe, chains):
        checked.append(chains)
        return real(universe, chains)

    monkeypatch.setattr(poset_mod, "check_chain_certificate", spy)
    part = poset_mod.chain_partition(4)
    assert len(checked) == 1 and checked[0] is part.chain_bits
    assert all(isinstance(b, int) for chain in part.chain_bits for b in chain)
