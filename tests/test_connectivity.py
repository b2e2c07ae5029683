import json
import pickle
from collections import Counter
from itertools import combinations, combinations_with_replacement, product
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from connposet import EdgeSet, MultiGraph, is_cactus, is_chorded_cycle_free
from connposet.connectivity import (
    _bits_at,
    _free_classes,
    _part_codes,
    _pattern,
    _split_planes,
    chorded_cycle_sweep,
    doubled_star,
    removability_findings,
    skeleton_findings,
)
from connposet.graphs import (
    _component_masks,
    _lanes,
    _orbit,
    _plane_members,
    _planes,
    enumerate_level,
    slot_count,
)
from connposet.limits import CHORDED_MAX_Q, BudgetExceededError

from conftest import (
    _induced_bits,
    bits_edges,
    bridges_by_deletion,
    chorded_sweep_all_patterns,
    condensation_of,
    cycle_chord_free,
    cycles_edge_disjoint,
    is_two_edge_connected,
    packed_pattern,
    pairs_on,
    pattern_verdicts,
    relabel_min_key,
    removability_findings_by_walk,
    removal_walk,
    skeleton_findings_by_walk,
    skeleton_walk,
    uf_connected_bits,
    uf_two_edge_connected,
)


def test_two_edge_connected_conventions():
    # the per-graph reference and the plane the sweeps read: one vertex
    # qualifies, one edge not
    examples = [
        (EdgeSet.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)]), True),
        (EdgeSet.from_edges(3, [(1, 2), (2, 3)]), False),
        (EdgeSet.empty(1), True),
        (EdgeSet.complete(2), False),
        (EdgeSet.from_edges(4, [(1, 2), (3, 4)]), False),
    ]
    for g, expected in examples:
        assert is_two_edge_connected(g) == expected, g
        assert _planes(g.n).two_edge_connected >> g.bits & 1 == expected, g


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_skeleton_structure_exhaustive(n):
    checked, findings = skeleton_findings(n)
    assert findings == []
    assert checked == sum(
        len(list(enumerate_level(n, k, "connected"))) for k in range(slot_count(n) + 1)
    )


@pytest.mark.parametrize("n", [1, 3, 4, 5])
def test_removability_bounds_exhaustive(n):
    checked, findings = removability_findings(n)
    assert findings == []
    if n == 5:
        assert checked == 253


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_sweeps_visit_each_member_once(n):
    masks = range(1 << slot_count(n))
    assert skeleton_findings(n)[0] == sum(uf_connected_bits(n, b) for b in masks)
    assert removability_findings(n)[0] == sum(
        uf_two_edge_connected(n, bits_edges(n, b)) for b in masks
    )


def test_chorded_memo_reports_every_graph(monkeypatch):
    # reject one condensation: every graph that condenses to it must get its
    # own finding, not only the first one the memo saw
    import connposet.connectivity as connectivity

    target = MultiGraph(2, ((1, 2, 2),))
    real = connectivity.is_chorded_cycle_free
    monkeypatch.setattr(
        connectivity, "is_chorded_cycle_free", lambda h: h != target and real(h)
    )
    expected = [
        f"5:{bits:x}" for bits, r, parts in removal_walk(5)
        if condensation_of(5, r, parts) == target
    ]
    _, findings = removability_findings(5)
    assert len(expected) > 1
    assert [f["graph"] for f in findings] == expected
    assert {f["condensation"] for f in findings} == {target.to_json()}


@pytest.mark.parametrize("n", range(1, 7))
def test_plane_sweeps_match_the_walk(n):
    assert skeleton_findings(n) == skeleton_findings_by_walk(n)
    assert removability_findings(n) == removability_findings_by_walk(n)


@pytest.mark.parametrize("n", [5, 6])
def test_plane_sweep_reports_what_the_walk_reports(monkeypatch, n):
    # a predicate that rejects every condensation on three parts or with a
    # doubled edge flags graphs on both the fixed-shape and per-graph routes
    import connposet.connectivity as connectivity

    real = connectivity.is_chorded_cycle_free
    monkeypatch.setattr(
        connectivity, "is_chorded_cycle_free",
        lambda h: h.q != 3 and all(c < 2 for _, _, c in h.edges) and real(h),
    )
    checked, findings = removability_findings(n)
    assert len(findings) > 100
    assert (checked, findings) == removability_findings_by_walk(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_part_codes_number_the_components_of_g_minus_r(n):
    # the parts the removability sweep reads from the reach planes of G - R,
    # on every two-edge-connected graph (the open ones among them), against
    # the components of G - R numbered by smallest vertex
    two = _planes(n).two_edge_connected
    rp = _split_planes(n, two)
    pairs = pairs_on(n)
    joined = [rp.reach[i][j] for i, j in pairs]
    for x in _plane_members(two):
        masks = _component_masks(n, x ^ _bits_at(rp.leaving, x))
        part = [0] * (n + 1)
        for p, mask in enumerate(masks, start=1):
            for v in range(1, n + 1):
                part[v] += p * (mask >> v & 1)
        codes = [min(part[i], part[j]) * 16 + max(part[i], part[j]) for i, j in pairs]
        assert _part_codes(n, pairs, _bits_at(joined, x)) == (len(masks), codes), f"{n}:{x:x}"


def _leader_bits(parts):
    """Bit v - 1 for the smallest vertex v of each part (vertex masks)."""
    return sum(1 << (mask & -mask).bit_length() - 2 for mask in parts)


@pytest.mark.parametrize("n", range(1, 6))
def test_split_planes_match_the_walks(n):
    # per graph: the bridges B, the leaders of G - B (so t), the pairs that
    # reach each other in G - B, and the same three of R and G - R (so q),
    # against the union-find walks
    sk = _split_planes(n, _planes(n).connected)
    rp = _split_planes(n, _planes(n).two_edge_connected)
    pairs = pairs_on(n)
    inside = [sk.reach[i][j] for i, j in pairs]
    joined = [rp.reach[i][j] for i, j in pairs]
    skeletons = {bits: (b, parts) for bits, b, parts in skeleton_walk(n)}
    removals = {bits: (r, parts) for bits, r, parts in removal_walk(n)}

    def joined_slots(parts):
        return sum(
            1 << s for s, (i, j) in enumerate(pairs)
            if any(mask >> i & mask >> j & 1 for mask in parts)
        )

    for x in range(1 << slot_count(n)):
        bridges, leaders = _bits_at(sk.leaving, x), _bits_at(sk.leaders, x)
        removable, parts = _bits_at(rp.leaving, x), _bits_at(rp.leaders, x)
        if x not in skeletons:
            assert bridges == leaders == removable == parts == _bits_at(inside, x) == 0
            continue
        walked_bridges, skeleton_parts = skeletons[x]
        assert bridges == walked_bridges
        assert leaders == _leader_bits(skeleton_parts)
        assert _bits_at(inside, x) == joined_slots(skeleton_parts)
        if x not in removals:
            assert removable == parts == _bits_at(joined, x) == 0
            continue
        walked_r, removal_parts = removals[x]
        assert removable == walked_r
        assert parts == _leader_bits(removal_parts)
        # every R edge joins two parts: no slot of R is joined
        assert _bits_at(joined, x) == joined_slots(removal_parts)
        assert removable & _bits_at(joined, x) == 0


def test_removability_condenses_graphs_the_shapes_do_not_fix(monkeypatch):
    # with the connected plane standing in for the two-edge-connected one,
    # R(x) is the bridge set, and two bridges (a triangle with two pendant
    # edges) leave three parts: the doubled edge is the condensation only
    # where |R| = 2 leaves two parts
    import connposet.connectivity as connectivity
    from connposet.graphs import _planes

    planes = _planes(5)
    fake = planes._replace(two_edge_connected=planes.connected)
    monkeypatch.setattr(connectivity, "_planes", lambda n: fake)
    doubled = MultiGraph(2, ((1, 2, 2),))
    real = connectivity.is_chorded_cycle_free
    monkeypatch.setattr(
        connectivity, "is_chorded_cycle_free", lambda h: h != doubled and real(h)
    )
    bridge_counts = {
        b: len(bridges_by_deletion(EdgeSet(5, b)))
        for b in range(1 << 10) if uf_connected_bits(5, b)
    }
    checked, findings = removability_findings(5)
    assert checked == 728 and 2 in bridge_counts.values()
    assert findings == [
        {"graph": EdgeSet(5, b).text(), "problem": "removable set of size 1"}
        for b, count in bridge_counts.items() if count == 1
    ]


@pytest.mark.parametrize("sweep", [skeleton_findings, removability_findings])
@pytest.mark.parametrize("n, override", [(7, False), (8, True)])
def test_sweeps_check_the_budget_before_any_plane(monkeypatch, sweep, n, override):
    import connposet.connectivity as connectivity

    def no_planes(n):
        raise AssertionError(f"planes started at n={n}")

    monkeypatch.setattr(connectivity, "_planes", no_planes)
    with pytest.raises(BudgetExceededError, match=f"full scan at n={n} exceeds"):
        sweep(n, override)


# ---------------------------------------------------------------------------
# multigraphs


def test_multigraph_validation():
    with pytest.raises(ValueError):
        MultiGraph(3, ((2, 2, 1),))
    with pytest.raises(ValueError):
        MultiGraph(3, ((1, 2, 0),))
    with pytest.raises(ValueError):
        MultiGraph(3, ((1, 2, 1), (1, 2, 2)))
    with pytest.raises(ValueError):
        MultiGraph(2, ((1, 3, 1),))


def test_multigraph_sorts_its_edges_and_pickles():
    h = MultiGraph(3, [(2, 3, 1), (1, 3, 2), (1, 2, 1)])
    assert h.edges == ((1, 2, 1), (1, 3, 2), (2, 3, 1))
    assert h == MultiGraph(3, h.edges[::-1])
    assert h._replace(edges=h.edges[::-1]) == h
    with pytest.raises(ValueError):
        h._replace(edges=((2, 1, 1),))
    assert hash(h) == hash((3, h.edges))
    again = pickle.loads(pickle.dumps(h))
    assert type(again) is MultiGraph and again == h


def test_multigraph_from_pairs_and_json():
    h = MultiGraph.from_pairs(3, [(1, 2), (2, 1), (2, 3)])
    assert h.edges == ((1, 2, 2), (2, 3, 1))
    assert h.edge_total == 3
    again = MultiGraph.from_json(h.to_json())
    assert again == h
    assert json.loads(h.to_json()) == {"q": 3, "edges": [[1, 2, 2], [2, 3, 1]]}


@pytest.mark.parametrize("q", [0, -1, "2", 2.0, True, None])
def test_multigraph_refuses_a_vertex_count_that_is_no_positive_int(q):
    with pytest.raises(ValueError, match="vertex count q must be an int >= 1"):
        MultiGraph(q, ())


@pytest.mark.parametrize("text", [
    '{"q": "2", "edges": []}',
    '{"q": 0, "edges": []}',
    "{}",
    '{"q": 2}',
    "[1]",
    "3",
    "not json",
    '{"q": 2, "edges": [[1, 2]]}',
    '{"q": 2, "edges": [["1", 2, 1]]}',
    '{"q": 2, "edges": [1]}',
])
def test_multigraph_from_json_refuses_malformed_input(text):
    with pytest.raises(ValueError, match="malformed MultiGraph JSON form"):
        MultiGraph.from_json(text)


def test_chorded_cycle_examples():
    assert is_chorded_cycle_free(MultiGraph(2, ((1, 2, 2),)))
    assert not is_chorded_cycle_free(MultiGraph(2, ((1, 2, 3),)))
    k4 = MultiGraph.from_pairs(4, combinations(range(1, 5), 2))
    assert not is_chorded_cycle_free(k4)
    c5 = MultiGraph.from_pairs(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    assert is_chorded_cycle_free(c5)


@pytest.mark.parametrize("q, mult_max", [(1, 3), (2, 3), (3, 3), (4, 3), (5, 2)])
def test_chorded_cycle_free_matches_cycle_enumeration(q, mult_max):
    # every multiplicity pattern: 4^6 = 4,096 at q = 4, 3^10 = 59,049 at q = 5
    pairs = list(combinations(range(1, q + 1), 2))
    for mults in product(range(mult_max + 1), repeat=len(pairs)):
        edges = tuple((u, v, c) for (u, v), c in zip(pairs, mults) if c)
        assert is_chorded_cycle_free(MultiGraph(q, edges)) == cycle_chord_free(q, edges), edges


def test_chorded_cycle_free_matches_on_every_sweep_condensation(monkeypatch):
    # the condensations removability_findings tests at n <= 6, seen through
    # the module name that _condensation_free looks up at call time
    import connposet.connectivity as connectivity

    seen = set()
    real = connectivity.is_chorded_cycle_free

    def spy(h):
        seen.add(h)
        return real(h)

    monkeypatch.setattr(connectivity, "is_chorded_cycle_free", spy)
    for n in range(1, 7):
        removability_findings(n)
    assert max(h.q for h in seen) == 6 and len(seen) > 100
    for h in seen:
        assert real(h) == cycle_chord_free(h.q, h.edges), h.to_json()


def multigraphs(q):
    # a cycle through 2..q vertices plus up to q more edge copies, so both
    # verdicts come up
    pairs = list(combinations(range(1, q + 1), 2))

    def build(drawn):
        order, length, extra = drawn
        ring = order[:length]
        return MultiGraph.from_pairs(q, list(zip(ring, ring[1:] + ring[:1])) + extra)

    return st.tuples(
        st.permutations(range(1, q + 1)), st.integers(2, q),
        st.lists(st.sampled_from(pairs), max_size=q),
    ).map(build)


@given(st.sampled_from([6, 7]).flatmap(multigraphs))
def test_chorded_cycle_free_matches_cycle_enumeration_q6_q7(h):
    assert is_chorded_cycle_free(h) == cycle_chord_free(h.q, h.edges)


def test_cactus_examples():
    assert is_cactus(MultiGraph(2, ((1, 2, 2),)))
    assert not is_cactus(MultiGraph(2, ((1, 2, 3),)))
    assert is_cactus(MultiGraph.from_pairs(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]))
    # two triangles sharing a vertex
    assert is_cactus(
        MultiGraph.from_pairs(5, [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5)])
    )
    # two triangles sharing an edge
    assert not is_cactus(
        MultiGraph.from_pairs(4, [(1, 2), (2, 3), (1, 3), (2, 4), (3, 4)])
    )


def test_predicates_diverge_on_complete_bipartite_2_3():
    """The one shape where the two tests disagree at q = 5: every cycle of
    K_{2,3} spans exactly its own edges (no chord anywhere), yet the graph
    is a single block that is neither an edge nor a cycle."""
    k23 = MultiGraph.from_pairs(5, [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)])
    assert is_chorded_cycle_free(k23)
    assert not is_cactus(k23)
    assert k23.edge_total <= 2 * 5 - 2  # the edge bound is still respected


def test_cactus_implies_chorded_cycle_free_q4():
    pairs = list(combinations(range(1, 5), 2))
    for mults in product(range(4), repeat=len(pairs)):
        edges = tuple((u, v, c) for (u, v), c in zip(pairs, mults) if c)
        h = MultiGraph(4, edges)
        if is_cactus(h):
            assert is_chorded_cycle_free(h)


@pytest.mark.parametrize("q, mult_max", [(1, 3), (2, 3), (3, 3), (4, 3), (5, 2)])
def test_cactus_matches_cycle_enumeration(q, mult_max):
    pairs = list(combinations(range(1, q + 1), 2))
    for mults in product(range(mult_max + 1), repeat=len(pairs)):
        edges = tuple((u, v, c) for (u, v), c in zip(pairs, mults) if c)
        assert is_cactus(MultiGraph(q, edges)) == cycles_edge_disjoint(q, edges), edges


@given(st.sampled_from([6, 7]).flatmap(multigraphs))
def test_cactus_matches_cycle_enumeration_q6_q7(h):
    assert is_cactus(h) == cycles_edge_disjoint(h.q, h.edges)


def test_chorded_cycle_sweep_small():
    sweep = chorded_cycle_sweep(4)
    assert sweep["bound_violations"] == []
    assert sweep["mismatches"] == []
    assert sweep["per_q"][4]["multigraphs"] == 4 ** 6
    for q in (2, 3, 4):
        assert sweep["per_q"][q]["doubled_star_tight"]


@pytest.mark.parametrize("q", range(1, 5))
def test_chorded_predicates_hold_on_every_lower_cover(q):
    # the assumption chorded_cycle_sweep's walk relies on: a pattern that
    # passes passes with any one edge fewer, so every free class is reached
    # from a free class
    pairs = list(combinations(range(1, q + 1), 2))

    def multigraph(mults):
        return MultiGraph(q, tuple((u, v, c) for (u, v), c in zip(pairs, mults) if c))

    for mults in product(range(3), repeat=len(pairs)):
        h = multigraph(mults)
        lower = [multigraph(mults[:i] + (c - 1,) + mults[i + 1:])
                 for i, c in enumerate(mults) if c]
        for predicate in (is_chorded_cycle_free, is_cactus):
            if predicate(h):
                assert all(predicate(g) for g in lower), (predicate.__name__, h.to_json())


@pytest.mark.parametrize("q_max", range(1, 6))
@pytest.mark.parametrize("mult_max", [3])  # the oracle's bound, fixed in the sweep
def test_chorded_cycle_sweep_matches_all_patterns(q_max, mult_max):
    assert chorded_cycle_sweep(q_max) == chorded_sweep_all_patterns(q_max, mult_max)


def test_chorded_cycle_sweep_q5_count():
    assert chorded_cycle_sweep(5)["per_q"][5]["chorded_cycle_free"] == 4003


@pytest.mark.parametrize("q", range(1, 5))
def test_class_keys_are_the_relabel_minimum(q):
    # every pattern: its lane key is the brute-force minimum, it unpacks to
    # its multigraph, and q! over the lanes equal to the key counts the
    # patterns of its class, so the orbit sizes partition all 3^C(q,2)
    pairs = list(combinations(range(1, q + 1), 2))
    keys, sizes = Counter(), {}
    for mults in product(range(3), repeat=len(pairs)):
        packed = packed_pattern(q, mults)
        lanes = _orbit(packed, q, 2).tolist()
        key = min(lanes)
        assert key == relabel_min_key(q, mults), mults
        assert _pattern(q, packed) == MultiGraph(
            q, tuple((u, v, c) for (u, v), c in zip(pairs, mults) if c))
        keys[key] += 1
        sizes[key] = factorial(q) // lanes.count(key)
    assert keys == sizes and sum(sizes.values()) == 3 ** len(pairs)


@given(st.sampled_from([5, 6, 7]).flatmap(
    lambda q: st.tuples(st.just(q), st.lists(st.integers(0, 2), min_size=comb(q, 2),
                                             max_size=comb(q, 2)))))
def test_class_key_is_the_relabel_minimum_q5_q7(drawn):
    q, mults = drawn
    # 2 * C(q, 2) bits: 32-bit lanes up to q = 6, 64-bit lanes at q = 7
    assert _lanes(q, 2)[0] == ("I" if q < 7 else "Q")
    assert min(_orbit(packed_pattern(q, mults), q, 2)) == relabel_min_key(q, mults)


@pytest.mark.parametrize("q", range(1, 5))
def test_free_classes_are_the_free_patterns_by_class(q):
    # the walk yields each class of chorded-cycle-free patterns once, by
    # edge total, with q! over its fixed relabellings as its pattern count
    classes = Counter()
    for mults, (free, _) in pattern_verdicts(q).items():
        if free:
            classes[relabel_min_key(q, mults), sum(mults)] += 1
    walked = list(_free_classes(q))
    assert [total for _, total, _ in walked] == sorted(total for _, total, _ in walked)
    assert {(key, total): factorial(q) // fixed for key, total, fixed in walked} == classes
    assert len(walked) == len(classes)


@pytest.mark.parametrize("q_max", [CHORDED_MAX_Q + 1, CHORDED_MAX_Q + 2])
def test_chorded_sweep_checks_the_budget_before_any_pattern(monkeypatch, q_max):
    # the refusal must come before the walk starts its first class at q = 1
    import connposet.connectivity as connectivity

    def no_walk(q):
        raise AssertionError(f"patterns started at q={q}")

    monkeypatch.setattr(connectivity, "_free_classes", no_walk)
    with pytest.raises(BudgetExceededError, match=f"chorded-cycle sweep at q={q_max} exceeds"):
        chorded_cycle_sweep(q_max)
    with pytest.raises(AssertionError, match="patterns started at q=1"):
        chorded_cycle_sweep(CHORDED_MAX_Q)


@pytest.mark.parametrize("n", range(1, 6))
def test_induced_bits_relabels_in_order(n):
    pairs = pairs_on(n)
    graphs = [(1 << len(pairs)) - 1, sum(1 << s for s in range(0, len(pairs), 3))]
    for bits in graphs:
        for mask in range(2, 2 << n, 2):
            verts = [v for v in range(1, n + 1) if mask >> v & 1]
            sub_pairs = pairs_on(len(verts))
            expected = sum(
                1 << sub_pairs.index((verts.index(i) + 1, verts.index(j) + 1))
                for i, j in bits_edges(n, bits)
                if i in verts and j in verts
            )
            assert _induced_bits(n, bits, mask) == (len(verts), expected)


@pytest.mark.parametrize("q", range(1, 5))
def test_chorded_cycle_free_up_to_two_edges(q):
    # a chorded cycle needs three edges, so the shapes that the removability
    # sweep reads off the planes (no edge, one doubled edge) always pass
    pairs = list(combinations(range(1, q + 1), 2))
    for k in range(3):
        for chosen in combinations_with_replacement(pairs, k):
            assert is_chorded_cycle_free(MultiGraph.from_pairs(q, chosen)), chosen


def test_doubled_star_is_tight():
    for q in range(2, 7):
        star = doubled_star(q)
        assert star.edge_total == 2 * q - 2
        assert is_chorded_cycle_free(star)
        assert is_cactus(star)
