import random
from collections import Counter
from itertools import combinations, permutations

import pytest

from connposet import (
    BudgetExceededError,
    EdgeSet,
    canonical_form,
    connected_classes,
    cprime_search,
    cprime_sperner,
    is_hamiltonian,
    property_poset_report,
    quotient_poset,
    quotient_sperner,
    sperner_verdict,
)
from connposet.graphs import (
    FAMILIES,
    _family_plane,
    _lanes,
    _orbit,
    enumerate_level,
    level_census,
    slot_count,
)
from connposet.poset import ChainPartitionError, SpernerReport, _family_width
from connposet.quotient import _connected_classes, _property_closure, relabel

from conftest import (
    bits_edges,
    closure_and_minimal_levels,
    contains_triangle,
    covers_one_level,
    dilworth_width,
    family_dilworth_width,
    host_subgraph_levels,
    is_two_edge_connected,
    iso_classes_by_relabel,
    pairs_on,
    predicate_levels,
    slot_sum_orbit,
    uf_connected_bits,
    uf_two_edge_connected,
)

# the per-graph reference of each family
PREDICATES = {
    "hamiltonian": is_hamiltonian,
    "two_edge_connected": is_two_edge_connected,
    "contains_triangle": contains_triangle,
    "all": lambda g: True,
    "connected": lambda g: uf_connected_bits(g.n, g.bits),
}


def core_against_dilworth(n, levels, full):
    """The shared width core on a graded family, checked against the
    full-comparability Dilworth matching; returns the width."""
    verdict = _family_width(n, "family", levels, full)
    assert verdict.width == family_dilworth_width(levels)
    assert verdict.width == len(levels[verdict.max_level_k])
    assert verdict.element_count == sum(map(len, levels))
    return verdict.width


def test_canonical_form_single_edge():
    g = EdgeSet.from_edges(3, [(1, 3)])
    assert canonical_form(g) == EdgeSet.from_edges(3, [(1, 2)])


def test_canonical_form_identifies_paths():
    paths = [EdgeSet(3, b) for b in (3, 5, 6)]
    canons = {canonical_form(g) for g in paths}
    assert canons == {EdgeSet(3, 3)}


def test_canonical_form_idempotent_and_budgeted():
    g = EdgeSet.from_edges(5, [(2, 4), (4, 5), (1, 5)])
    c = canonical_form(g)
    assert canonical_form(c) == c
    with pytest.raises(ValueError):
        canonical_form(EdgeSet.empty(9))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_lane_orbit_matches_slot_sums_exhaustive(n):
    for bits in range(1 << slot_count(n)):
        assert sorted(_orbit(bits, n)) == sorted(slot_sum_orbit(n, bits)), bits


@pytest.mark.parametrize("n,code,samples", [(6, "H", 40), (7, "I", 12), (8, "I", 3)])
def test_lane_orbit_matches_slot_sums_sampled(n, code, samples):
    # 16-bit lanes up to 15 slots (n = 6), 32-bit lanes at 21 and 28 slots
    assert _lanes(n)[0] == code
    m = slot_count(n)
    rng = random.Random(n)
    masks = [0, (1 << m) - 1, 1 << (m - 1), *(rng.getrandbits(m) for _ in range(samples))]
    for bits in masks:
        assert sorted(_orbit(bits, n)) == sorted(slot_sum_orbit(n, bits)), bits


@pytest.mark.parametrize("n", [7, 8])
def test_canonical_form_is_the_relabel_minimum(n):
    rng = random.Random(n)
    perms = [dict(zip(range(1, n + 1), p)) for p in permutations(range(1, n + 1))]
    path = EdgeSet.from_edges(n, [(i, i + 1) for i in range(1, n)])
    for g in (path, EdgeSet(n, rng.getrandbits(slot_count(n)))):
        assert canonical_form(g).bits == min(relabel(g, p).bits for p in perms), g.text()


@pytest.mark.parametrize("n", [3, 4, 5])
def test_canonical_form_isomorphism_invariant(n):
    rng = random.Random(555)
    perms = list(permutations(range(1, n + 1)))
    levels = [
        list(enumerate_level(n, k, "connected"))
        for k in range(n - 1, slot_count(n) + 1)
    ]
    graphs = [g for level in levels for g in level]
    for _ in range(100):
        g = rng.choice(graphs)
        perm = dict(zip(range(1, n + 1), rng.choice(perms)))
        assert canonical_form(relabel(g, perm)) == canonical_form(g)


def test_tree_classes_n4():
    trees = [c for c in connected_classes(4) if c.level == 3]
    assert len(trees) == 2
    assert sorted(c.orbit_size for c in trees) == [4, 12]


@pytest.mark.parametrize("n,expected", [(3, 2), (4, 6), (5, 21), (6, 112)])
def test_connected_class_counts(n, expected):
    assert len(connected_classes(n)) == expected


def test_class_level_counts_n4():
    per_level = {}
    for cls in connected_classes(4):
        per_level[cls.level] = per_level.get(cls.level, 0) + 1
    assert per_level == {3: 2, 4: 2, 5: 1, 6: 1}


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_orbit_sizes_partition_labeled_counts(n):
    census = level_census(n, budget_override=True)
    by_level = {}
    for cls in connected_classes(n):
        by_level[cls.level] = by_level.get(cls.level, 0) + cls.orbit_size
        assert _factorial(n) % cls.orbit_size == 0
    for k, count in enumerate(census.counts):
        assert by_level.get(k, 0) == count


def _factorial(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_classes_match_relabel_oracle(n):
    classes, class_of = iso_classes_by_relabel(n)
    assert [(c.canon.bits, c.orbit_size) for c in connected_classes(n)] == classes
    _, index = _connected_classes(n)
    assert list(index) == [class_of.get(bits, -1) for bits in range(1 << slot_count(n))]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_quotient_covers_match_relabel_oracle(n):
    classes, class_of = iso_classes_by_relabel(n)
    expected = {}  # class pair -> first one-edge witness, in first-occurrence order
    for i, (bits, _) in enumerate(classes):
        for s in range(slot_count(n)):
            if not bits >> s & 1:
                expected.setdefault((i, class_of[bits | 1 << s]), bits | 1 << s)
    qp = quotient_poset(n)
    assert [(c.from_index, c.to_index) for c in qp.covers] == list(expected)
    assert [c.witness_to.bits for c in qp.covers] == list(expected.values())
    assert all(c.witness_from == qp.classes[c.from_index].canon for c in qp.covers)


def test_connected_classes_refuse_n8():
    with pytest.raises(BudgetExceededError):
        connected_classes(8)


def test_quotient_covers_sound_and_complete():
    qp = quotient_poset(4)
    canon_bits = {i: cls.canon.bits for i, cls in enumerate(qp.classes)}
    recorded = set()
    for cover in qp.covers:
        assert cover.witness_to.bits & cover.witness_from.bits == cover.witness_from.bits
        assert cover.witness_to.edge_count == cover.witness_from.edge_count + 1
        assert canonical_form(cover.witness_from).bits == canon_bits[cover.from_index]
        assert canonical_form(cover.witness_to).bits == canon_bits[cover.to_index]
        recorded.add((cover.from_index, cover.to_index))
    # completeness: every labeled one-edge extension lands on a recorded cover
    index_of = {bits: i for i, bits in canon_bits.items()}
    m = slot_count(4)
    for k in range(3, m):
        for g in enumerate_level(4, k, "connected"):
            for s in range(m):
                if not g.bits >> s & 1:
                    src = index_of[canonical_form(g).bits]
                    dst = index_of[canonical_form(EdgeSet(4, g.bits | 1 << s)).bits]
                    assert (src, dst) in recorded


def test_quotient_sperner_n3():
    # the path and the triangle; their levels tie, and the lower one is K
    assert quotient_sperner(3) == SpernerReport(3, "iso_classes", 2, {2: 1, 3: 1}, 2, 1)


@pytest.mark.parametrize("n,width", [(3, 1), (4, 2), (5, 5)])
def test_quotient_widths(n, width):
    report = quotient_sperner(n)
    assert report.width == width == max(report.level_sizes.values())
    assert report.level_sizes[report.max_level_k] == width


def closure_dilworth_report(n):
    """The quotient verdict by the route the chain core replaced: the
    transitive closure of the recorded covers, matched by conftest's
    dilworth_width."""
    qp = quotient_poset(n)
    levels = [cls.level for cls in qp.classes]
    succ = [set() for _ in qp.classes]
    for cover in qp.covers:
        succ[cover.from_index].add(cover.to_index)
    for i in sorted(range(len(succ)), key=lambda i: -levels[i]):
        for j in list(succ[i]):
            succ[i] |= succ[j]
    width = dilworth_width(list(range(len(succ))), successors=succ.__getitem__)
    sizes = dict(Counter(levels))
    k = max(sizes, key=lambda k: (sizes[k], -k))
    return SpernerReport(n, "iso_classes", len(succ), sizes, k, width)


@pytest.mark.parametrize("n,width", [(1, 1), (2, 1), (3, 1), (4, 2), (5, 5), (6, 22)])
def test_quotient_chain_route_matches_closure_dilworth(n, width):
    report = quotient_sperner(n)
    assert report == closure_dilworth_report(n)
    assert report.width == width


def test_quotient_certificate_steps_are_recorded_covers(monkeypatch):
    import connposet.quotient as quotient_mod

    real = quotient_mod.check_matching_certificate
    seen = []

    def spy(levels, K, partner, covers):
        seen.append((levels, K, partner, covers))
        return real(levels, K, partner, covers)

    monkeypatch.setattr(quotient_mod, "check_matching_certificate", spy)
    report = quotient_sperner(5)
    qp = quotient_poset(5)
    canon = [cls.canon.bits for cls in qp.classes]
    covers = {(canon[c.from_index], canon[c.to_index]) for c in qp.covers}
    [(levels, K, partner, checked)] = seen
    assert sorted(b for level in levels for b in level) == sorted(canon)
    assert K == report.max_level_k and len(levels[K]) == report.width
    assert checked == covers
    # a matched pair that is not a recorded cover is refused
    k = next(k for k in partner if len(levels[k]) > 1)
    rotated = dict(partner)
    rotated[k] = partner[k][1:] + partner[k][:1]
    with pytest.raises(AssertionError, match="is not a cover of the order"):
        real(levels, K, rotated, covers)


def test_blocked_quotient_level_pair_fails(monkeypatch, capsys):
    import connposet.quotient as quotient_mod
    from connposet import cli

    n = 5
    K = quotient_sperner(n).max_level_k
    real = quotient_mod.quotient_poset

    def blocked(n, budget_override=False):
        # every cover leaving one class on level K - 1 is dropped
        qp = real(n, budget_override)
        cut = next(i for i, cls in enumerate(qp.classes) if cls.level == K - 1)
        return qp._replace(covers=tuple(c for c in qp.covers if c.from_index != cut))

    monkeypatch.setattr(quotient_mod, "quotient_poset", blocked)
    with pytest.raises(ChainPartitionError) as err:
        quotient_sperner(n)
    assert (err.value.k_from, err.value.k_to) == (K - 1, K)
    assert cli.main(["explore", "quotient", "--n", str(n)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("FAIL quotient: ")
    assert f"(pair {K - 1}->{K})" in captured.err


def test_quotient_antichain_independent_comparability():
    """Cross-check the quotient order: classes are comparable exactly when
    some relabeling of one canonical form embeds into the other."""
    n = 4
    qp = quotient_poset(n)
    perms = [dict(zip(range(1, n + 1), p)) for p in permutations(range(1, n + 1))]

    def class_less(a: EdgeSet, b: EdgeSet) -> bool:
        if a.edge_count >= b.edge_count:
            return False
        return any(relabel(a, p).bits & b.bits == relabel(a, p).bits for p in perms)

    # closure of the recorded covers equals the representative-based order
    succ = {i: set() for i in range(len(qp.classes))}
    for cover in qp.covers:
        succ[cover.from_index].add(cover.to_index)
    for i in sorted(succ, key=lambda i: -qp.classes[i].level):
        for j in list(succ[i]):
            succ[i] |= succ[j]
    for i, a in enumerate(qp.classes):
        for j, b in enumerate(qp.classes):
            if i != j:
                assert (j in succ[i]) == class_less(a.canon, b.canon)


def test_cprime_k3():
    # the three paths and the triangle
    assert cprime_sperner(EdgeSet.complete(3)) == SpernerReport(
        3, "spanning_connected(3:7)", 4, {2: 3, 3: 1}, 2, 3)


def test_cprime_tree_is_trivial():
    tree = EdgeSet.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
    report = cprime_sperner(tree)
    assert report.element_count == 1 and report.width == 1


def test_cprime_complete_graph_matches_whole_poset():
    report = cprime_sperner(EdgeSet.complete(4))
    verdict = sperner_verdict(4)
    assert report.element_count == verdict.element_count == 38
    assert report.width == verdict.width == 16
    assert report.level_sizes == verdict.level_sizes


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cprime_chain_route_agrees_with_dilworth(monkeypatch, capsys, n):
    import connposet.poset as poset_mod
    from connposet import cli

    hosts = connected_classes(n)
    for cls in hosts:
        host = cls.canon.bits
        levels = host_subgraph_levels(n, host)
        assert cprime_sperner(cls.canon).width == core_against_dilworth(n, levels, host)

    # a host's subgraphs have no level gap; a blocked gluing raises, with no
    # other width to fall back on
    def no_chains(match, levels):
        raise ChainPartitionError(0, 1, "chain route disabled")

    monkeypatch.setattr(poset_mod, "_glued_partners", no_chains)
    for cls in hosts:
        with pytest.raises(ChainPartitionError, match="chain route disabled"):
            cprime_sperner(cls.canon)
    assert cli.main(["explore", "cprime", "--n", str(n)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "FAIL cprime: chain route disabled (pair 0->1)\n"


def assert_host_levels_match_union_find(host):
    """cprime_sperner's level sizes against one union-find test per subset
    of the host's edge slots."""
    slots = [s for s in range(host.bits.bit_length()) if host.bits >> s & 1]
    sizes = Counter(
        k
        for k in range(len(slots) + 1)
        for subset in combinations(slots, k)
        if uf_connected_bits(host.n, sum(1 << s for s in subset))
    )
    report = cprime_sperner(host)
    assert report.level_sizes == dict(sizes), host.text()
    assert report.element_count == sum(sizes.values())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_cprime_host_planes_match_union_find(n):
    for cls in connected_classes(n):
        assert_host_levels_match_union_find(cls.canon)


@pytest.mark.parametrize("n", [8, 9, 10])
def test_cprime_random_hosts_match_union_find(n):
    # a random tree plus the edge {n-1, n} (slot 44 on [10]) and random
    # extra edges, at most 12 in all
    rng = random.Random(n)
    for _ in range(3):
        edges = {(rng.randrange(1, v), v) for v in range(2, n + 1)} | {(n - 1, n)}
        target = rng.randint(len(edges), 12)
        while len(edges) < target:
            edges.add(rng.choice(pairs_on(n)))
        assert_host_levels_match_union_find(EdgeSet.from_edges(n, edges))


def test_cprime_hosts_in_high_edge_slots():
    # slots are ordered colex, so these hosts use edge slots up to 44 (path on
    # [10]) and 27 (8-cycle); the certificate check must not scale with 2^slot
    path = EdgeSet.from_edges(10, [(i, i + 1) for i in range(1, 10)])
    report = cprime_sperner(path)
    assert (report.width, report.level_sizes) == (1, {9: 1})
    cycle = EdgeSet.from_edges(8, [(i, i % 8 + 1) for i in range(1, 9)])
    report = cprime_sperner(cycle)
    assert (report.width, report.level_sizes) == (8, {7: 8, 8: 1})


def test_cprime_rejects_disconnected():
    with pytest.raises(ValueError):
        cprime_sperner(EdgeSet.from_edges(4, [(1, 2), (3, 4)]))


def test_cprime_search_refuses_before_the_first_host(monkeypatch):
    import connposet.quotient as quotient_mod

    hosts = []
    monkeypatch.setattr(quotient_mod, "cprime_sperner", lambda *args: hosts.append(args))
    with pytest.raises(BudgetExceededError, match="budget of n<=7"):
        cprime_search(8, budget_override=True)
    with pytest.raises(BudgetExceededError, match="--budget-override"):
        cprime_search(7)
    assert hosts == []


def test_cprime_search_n4():
    reports = cprime_search(4)
    # one representative per connected class on 2..4 vertices: 1 + 2 + 6
    hosts = {f"spanning_connected({cls.canon.text()})": cls.canon
             for n in (2, 3, 4) for cls in connected_classes(n)}
    assert len(reports) == len(hosts) == 9
    assert [(r.n, r.universe) for r in reports] == sorted((g.n, u) for u, g in hosts.items())
    for report in reports:
        host = hosts[report.universe]
        levels = host_subgraph_levels(host.n, host.bits)
        assert report.width == family_dilworth_width(levels)
        assert report.level_sizes == {k: len(lv) for k, lv in enumerate(levels) if lv}


def test_hamiltonian_predicate():
    assert is_hamiltonian(EdgeSet.complete(3))
    assert is_hamiltonian(EdgeSet.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)]))
    assert not is_hamiltonian(EdgeSet.from_edges(3, [(1, 2), (2, 3)]))
    assert not is_hamiltonian(EdgeSet.complete(2))
    assert not is_hamiltonian(EdgeSet.from_edges(5, [(1, 2), (2, 3), (3, 1), (4, 5)]))


@pytest.mark.parametrize("n", range(1, 6))
def test_two_edge_connected_predicate_matches_union_find(n):
    for bits in range(1 << slot_count(n)):
        expected = uf_two_edge_connected(n, bits_edges(n, bits))
        assert is_two_edge_connected(EdgeSet(n, bits)) == expected, f"{n}:{bits:x}"


def test_contains_triangle_predicate():
    assert contains_triangle(EdgeSet.complete(3))
    assert not contains_triangle(EdgeSet.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)]))


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("prop", FAMILIES)
def test_property_planes_match_predicates(prop, n):
    # the plane holds the per-mask reference's family, which is upward closed
    m = slot_count(n)
    members = {b for level in predicate_levels(n, PREDICATES[prop]) for b in level}
    plane = _family_plane(n, prop)
    assert {b for b in range(1 << m) if plane >> b & 1} == members
    assert all(b | 1 << s in members for b in members for s in range(m))
    if members:  # `all` on [6] is over the width budget
        assert _property_closure(n, prop, True)[1]


@pytest.mark.parametrize("n", range(1, 6))
def test_level_census_counts_every_family(n):
    for family in FAMILIES:
        levels = predicate_levels(n, PREDICATES[family])
        assert level_census(n, family).counts == tuple(map(len, levels)), family


def stand_in(monkeypatch, levels):
    """Make the family that levels list stand in for the plane of every
    family, which _property_closure reads: the closure step then runs on a
    family that no name gives."""
    import connposet.quotient as quotient_mod

    plane = sum(1 << b for level in levels for b in level)
    monkeypatch.setattr(quotient_mod, "_family_plane", lambda n, prop: plane)


def assert_closure_matches_oracle(monkeypatch, n, prop):
    """The closure step of property_poset_report, which runs before the
    width and so also on a family whose levels do not glue.  A per-graph
    predicate's family stands in for a family's plane."""
    levels = predicate_levels(n, PREDICATES.get(prop, prop))
    if callable(prop):
        stand_in(monkeypatch, levels)
        prop = "hamiltonian"
    closed_levels, upward_closed, minimal_levels = _property_closure(n, prop, False)
    assert closed_levels == list(levels)
    members = [b for level in levels for b in level]
    expected = closure_and_minimal_levels(members, slot_count(n))
    assert (upward_closed, minimal_levels) == expected, members


def test_hamiltonian_poset_n4():
    report = property_poset_report(4, "hamiltonian")
    assert report.element_count == 10
    assert report.level_sizes == {4: 3, 5: 6, 6: 1}
    assert report.upward_closed
    assert report.graded
    # graded claims one-edge covers, which the oracle finds member by member
    assert covers_one_level([b for level in predicate_levels(4, is_hamiltonian) for b in level])
    assert report.minimal_levels == (4,)
    assert report.width == 6 and report.max_level_k == 5


def test_hamiltonian_upward_closed_n5():
    report = property_poset_report(5, "hamiltonian")
    assert report.upward_closed
    assert report.graded
    assert report.level_sizes == {5: 12, 6: 60, 7: 90, 8: 45, 9: 10, 10: 1}
    assert report.width == 90 and report.max_level_k == 7


def test_property_poset_custom_predicate(monkeypatch):
    # an upward-closed family that no name gives, standing in for a
    # family's plane, runs the whole report
    stand_in(monkeypatch, predicate_levels(4, lambda g: g.edge_count >= 5))
    report = property_poset_report(4, "hamiltonian")
    assert report.element_count == 7
    assert report.upward_closed and report.graded


def test_property_poset_ungraded_family(monkeypatch):
    # levels 2 and 4 only: every comparable pair jumps two levels with no
    # intermediate, so edge count is not a grading
    levels = predicate_levels(4, lambda g: g.edge_count in (2, 4))
    stand_in(monkeypatch, levels)
    closed_levels, upward_closed, minimal_levels = _property_closure(4, "hamiltonian", False)
    assert closed_levels == list(levels)
    assert not upward_closed
    assert not covers_one_level([b for level in levels for b in level])
    assert minimal_levels == (2,)
    # levels 2 and 4 tie, so K = 2, and level 4 has no level 3 to glue into
    assert family_dilworth_width(levels) == 15
    with pytest.raises(ChainPartitionError) as err:
        _family_width(4, "custom", levels, (1 << slot_count(4)) - 1)
    assert (err.value.k_from, err.value.k_to) == (4, 3)


def test_property_poset_graded_but_not_upward_closed(monkeypatch):
    # every cover is a one-edge step, but the family is not upward closed,
    # so the package does not call it graded: only an upward-closed family
    # (every named family) is
    levels = predicate_levels(4, lambda g: g.edge_count in (2, 3))
    assert covers_one_level([b for level in levels for b in level])
    stand_in(monkeypatch, levels)
    report = property_poset_report(4, "hamiltonian")
    assert not report.upward_closed
    assert not report.graded
    assert report.minimal_levels == (2,)
    assert report.level_sizes == {2: 15, 3: 20}
    assert report.width == 20 and report.max_level_k == 3


@pytest.mark.parametrize(
    "prop",
    [
        lambda g: g.edge_count >= 5,
        lambda g: g.edge_count in (2, 4),
        lambda g: g.edge_count in (2, 3),
        lambda g: g.edge_count == 6 or (g.edge_count == 3 and contains_triangle(g)),
        *PREDICATES.values(),  # as per-graph predicates
        *FAMILIES,  # as planes
    ],
)
@pytest.mark.parametrize("n", [4, 5])
def test_property_closure_matches_oracle_on_custom_predicates(monkeypatch, prop, n):
    assert_closure_matches_oracle(monkeypatch, n, prop)


@pytest.mark.parametrize("n", [3, 4])  # 3 and 6 slots
def test_property_closure_matches_oracle_on_random_families(monkeypatch, n):
    rng = random.Random(n)
    checked = 0
    while checked < 300:
        density = rng.random()
        members = {b for b in range(1 << slot_count(n)) if rng.random() < density}
        if members:
            assert_closure_matches_oracle(monkeypatch, n, lambda g: g.bits in members)
            checked += 1


def test_property_poset_triangles_below_complete(monkeypatch):
    # the four triangles sit three levels below the complete graph with no
    # member in between, so the cover relation skips levels
    levels = predicate_levels(
        4, lambda g: g.edge_count == 6 or (g.edge_count == 3 and contains_triangle(g))
    )
    stand_in(monkeypatch, levels)
    closed_levels, upward_closed, minimal_levels = _property_closure(4, "hamiltonian", False)
    assert sum(map(len, closed_levels)) == 5
    assert minimal_levels == (3,)
    assert not upward_closed
    assert not covers_one_level([b for level in levels for b in level])
    assert family_dilworth_width(levels) == 4
    with pytest.raises(ChainPartitionError) as err:
        _family_width(4, "custom", levels, (1 << slot_count(4)) - 1)
    assert (err.value.k_from, err.value.k_to) == (6, 5)


@pytest.mark.parametrize(
    "prop,n",
    [(prop, n) for prop in FAMILIES for n in (3, 4, 5)]
    + [(prop, 1) for prop in ("all", "connected", "two_edge_connected")],
)
def test_property_chain_route_agrees_with_dilworth(prop, n):
    levels = predicate_levels(n, PREDICATES[prop])
    width = core_against_dilworth(n, levels, (1 << slot_count(n)) - 1)
    assert property_poset_report(n, prop).width == width


def test_property_poset_width_budget(monkeypatch):
    # only `all` on [6], with 32,768 members, exceeds the 30,000-element
    # budget (the next largest, contains_triangle, has 26,979), so the
    # check is also tried on a lower budget: the 218 Hamiltonian graphs on
    # [5] exceed 100
    from connposet import limits

    with pytest.raises(BudgetExceededError, match="over 32768 elements"):
        property_poset_report(6, "all")
    monkeypatch.setattr(limits, "WIDTH_DEFAULT_MAX_ELEMENTS", 100)
    with pytest.raises(BudgetExceededError, match="over 218 elements"):
        property_poset_report(5, "hamiltonian")
    assert property_poset_report(5, "hamiltonian", budget_override=True).element_count == 218


def test_property_poset_rejects_unknown():
    with pytest.raises(ValueError, match=r"unknown family 'chromatic'; expected one of \("):
        property_poset_report(4, "chromatic")


@pytest.mark.parametrize("n", range(1, 6))
def test_property_poset_of_connected_and_all_matches_sperner(n):
    # property_poset_report reads the families of `sperner` too, graded
    # from their lowest level: trees for the connected graphs
    for family, lowest in (("connected", n - 1), ("all", 0)):
        report = property_poset_report(n, family)
        verdict = sperner_verdict(n, family)
        assert report.upward_closed and report.minimal_levels == (lowest,)
        assert (report.element_count, report.level_sizes, report.width, report.max_level_k) == (
            verdict.element_count, verdict.level_sizes, verdict.width, verdict.max_level_k)


def test_two_edge_connected_property_poset():
    report = property_poset_report(4, "two_edge_connected")
    assert report.upward_closed  # adding an edge can never create a bridge
    assert report.graded
    # bridgeless connected graphs on [4] coincide with the Hamiltonian ones
    ham = property_poset_report(4, "hamiltonian")
    assert report.element_count == ham.element_count == 10
    assert report.level_sizes == ham.level_sizes
