"""Shared independent oracles for the test suite.

The oracles here deliberately use different algorithms from the package
(union-find instead of frontier BFS, per-edge deletion instead of bridge
planes, subset enumeration instead of matching, one augmenting path at a
time instead of phases, cycle enumeration instead of the per-edge Menger
test and the spanning-forest cactus test, a counting recurrence instead of
bit planes, a hash index instead of a dense rank, per-mask retests instead
of bit planes, per-graph canonical forms instead of one orbit expansion per
class, a sum of image slots per permutation and a relabel-by-relabel
minimum of packed multiplicity patterns instead of lane-packed columns,
a bracket stack walk instead of a chunk table, one deletion at a time
instead of shifted planes for the shadow) so the two sides of every
check share no code path.  The exceptions are `pattern_verdicts` and
`chorded_sweep_all_patterns`, which call the package's multigraph
predicates on every pattern, because what they check is which patterns the
sweep skips and how it decides the rest, `is_two_edge_connected`, which
retests each one-edge deletion with the package's per-graph
`graphs._connected_bits`, because union-find checks it and it checks the
two-edge-connected plane, `iso_classes_by_relabel`, which
relabels through the package's `quotient.relabel`, `dilworth_width`, which
matches the full comparability relation with the package's
`hopcroft_karp` (checked against `augmenting_path_matching`; one augmenting
path at a time does not finish the connected relation on [6] in the test
budget), because what it checks is the glued level matchings, and
`removability_findings_by_walk`, which judges each condensation with the
package's `MultiGraph` and `is_chorded_cycle_free`, because what it checks
is how the plane sweep finds R, the parts and the condensation of each
graph.
"""

from collections import Counter
from functools import lru_cache
from itertools import combinations, permutations, product
from math import comb

from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def pairs_on(n):
    """All vertex pairs in slot order (colexicographic)."""
    return [(i, j) for j in range(2, n + 1) for i in range(1, j)]


def uf_roots(n, edges):
    """The union-find root of each vertex 1..n of an explicit edge list."""
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in edges:
        parent[find(i)] = find(j)
    return [find(v) for v in range(1, n + 1)]


def uf_connected(n, edges):
    """Union-find connectivity over an explicit edge list."""
    return len(set(uf_roots(n, edges))) == 1


def uf_components(n, edges):
    """Vertex masks of the components of an explicit edge list on [n], by
    union-find, numbered by smallest vertex."""
    masks = {}  # by root, first reached from the component's smallest vertex
    for v, root in enumerate(uf_roots(n, edges), start=1):
        masks[root] = masks.get(root, 0) | 1 << v
    return list(masks.values())


def bits_edges(n, bits):
    """Edge list of a bitmask graph, in slot order."""
    return [pair for s, pair in enumerate(pairs_on(n)) if bits >> s & 1]


def uf_connected_bits(n, bits):
    return uf_connected(n, bits_edges(n, bits))


def predicate_levels(n, pred):
    """The graphs on [n] that a per-graph predicate accepts, by edge count,
    each level ascending: one call per mask of the 2^m, where the package
    reads its families from planes."""
    from connposet import EdgeSet

    levels = [[] for _ in range(comb(n, 2) + 1)]
    for bits in range(1 << comb(n, 2)):
        if pred(EdgeSet(n, bits)):
            levels[bits.bit_count()].append(bits)
    return tuple(map(tuple, levels))


# the (n, family) pairs of graphs.FAMILIES with no member: no graph on [2]
# is two-edge-connected, and no graph on [1] or [2] holds a cycle
EMPTY_FAMILIES = {(2, "two_edge_connected"),
                  *((n, f) for n in (1, 2) for f in ("hamiltonian", "contains_triangle"))}


def contains_triangle(g):
    """Whether an EdgeSet holds all three edges of some triple of vertices."""
    edges = set(bits_edges(g.n, g.bits))
    return any(
        {(a, b), (a, c), (b, c)} <= edges for a, b, c in combinations(range(1, g.n + 1), 3)
    )


def is_two_edge_connected(g):
    """Whether an EdgeSet is connected, and still connected after deleting
    each edge, by the package's per-graph `graphs._connected_bits`; a single
    vertex qualifies, a single edge not."""
    from connposet.graphs import _connected_bits

    slots = [s for s in range(g.bits.bit_length()) if g.bits >> s & 1]
    return _connected_bits(g.n, g.bits) and all(
        _connected_bits(g.n, g.bits ^ 1 << s) for s in slots
    )


@lru_cache(maxsize=None)
def connected_census(n):
    """Connected labeled graphs on [n] per edge count k, from the exact
    recurrence that counts all graphs by the component of vertex 1:

        c(n, k) = C(m, k) - sum_{j<n} C(n-1, j-1) sum_i c(j, i) C(C(n-j, 2), k-i)

    with m = C(n, 2).  The totals are OEIS A001187.
    """
    m = comb(n, 2)
    counts = [comb(m, k) for k in range(m + 1)]
    for j in range(1, n):
        ways = comb(n - 1, j - 1)
        rest = comb(n - j, 2)
        for i, c in enumerate(connected_census(j)):
            for k in range(i, i + rest + 1):
                counts[k] -= ways * c * comb(rest, k - i)
    return tuple(counts)


@lru_cache(maxsize=None)
def iso_classes_by_relabel(n):
    """The isomorphism classes of the connected graphs on [n], each graph
    canonicalised on its own as the smallest bitmask over all n! `relabel`
    calls.

    Returns (classes, class_of): classes lists (canon bits, orbit size) by
    edge count, then canon; class_of maps each connected graph's bitmask to
    the position of its class in that list.
    """
    from connposet import EdgeSet
    from connposet.quotient import relabel

    perms = [dict(zip(range(1, n + 1), p)) for p in permutations(range(1, n + 1))]
    canon = {
        bits: min(relabel(EdgeSet(n, bits), p).bits for p in perms)
        for bits in range(1 << comb(n, 2))
        if uf_connected_bits(n, bits)
    }
    sizes = Counter(canon.values())
    order = sorted(sizes, key=lambda c: (c.bit_count(), c))
    position = {c: i for i, c in enumerate(order)}
    return [(c, sizes[c]) for c in order], {b: position[c] for b, c in canon.items()}


@lru_cache(maxsize=None)
def perm_slot_images(n):
    """For every permutation of [n], in itertools.permutations order, the
    image slot bit of every slot."""
    pairs = pairs_on(n)
    bit_of = {}
    for s, (i, j) in enumerate(pairs):
        bit_of[i, j] = bit_of[j, i] = 1 << s
    return [
        [bit_of[perm[i - 1], perm[j - 1]] for i, j in pairs]
        for perm in permutations(range(1, n + 1))
    ]


def slot_sum_orbit(n, bits):
    """A graph relabeled by every permutation of [n], repeats included: per
    permutation, the sum of its slots' image bits."""
    slots = [s for s in range(comb(n, 2)) if bits >> s & 1]
    return [sum(image[s] for s in slots) for image in perm_slot_images(n)]


def deletion_shadow(members):
    """The graphs one edge below a member, one edge deleted at a time."""
    return {bits & ~(1 << s) for bits in members for s in range(bits.bit_length())
            if bits >> s & 1}


def bridges_by_deletion(g):
    """Bridges of a connected EdgeSet, sorted: the edges whose deletion
    disconnects it, found by one union-find test per edge."""
    edges = bits_edges(g.n, g.bits)
    if not uf_connected(g.n, edges):
        raise ValueError("bridges requires a connected graph")
    return sorted(e for e in edges if not uf_connected(g.n, [f for f in edges if f != e]))


def uf_two_edge_connected(n, edges):
    """Connected, and still connected after deleting any one edge (n = 1 counts)."""
    return uf_connected(n, edges) and all(
        uf_connected(n, [f for f in edges if f != e]) for e in edges
    )


def removable_by_retest(g):
    """R(G) of a 2-edge-connected EdgeSet, sorted: the edges whose deletion
    leaves a graph that is not 2-edge-connected, one union-find retest each."""
    edges = bits_edges(g.n, g.bits)
    if not uf_two_edge_connected(g.n, edges):
        raise ValueError("removable edges require a 2-edge-connected graph")
    return sorted(
        e for e in edges if not uf_two_edge_connected(g.n, [f for f in edges if f != e])
    )


def irk_table_by_retest(n):
    """(edge count, |R|) census of the 2-edge-connected graphs on [n], in
    ascending key order: every mask tested with union-find, and R counted as
    the edges whose deletion leaves a graph that is not 2-edge-connected."""
    cells = Counter()
    for bits in range(1 << comb(n, 2)):
        edges = bits_edges(n, bits)
        if uf_two_edge_connected(n, edges):
            r = sum(
                not uf_two_edge_connected(n, [f for f in edges if f != e]) for e in edges
            )
            cells[len(edges), r] += 1
    return dict(sorted(cells.items()))


def chorded_sweep_all_patterns(q_max, mult_max):
    """The result of connectivity.chorded_cycle_sweep with both predicates
    called on every multiplicity pattern (multiplicities <= min(mult_max, 2),
    read from `pattern_verdicts`), not once per isomorphism class."""
    from connposet.connectivity import MultiGraph, doubled_star, is_chorded_cycle_free

    results = {"per_q": {}, "bound_violations": [], "mismatches": []}
    for q in range(1, q_max + 1):
        pair_list = list(combinations(range(1, q + 1), 2))
        free_count = 0
        for mults, (free, cactus) in pattern_verdicts(q).items():
            if max(mults, default=0) > mult_max:
                continue
            h = MultiGraph(q, tuple((u, v, c) for (u, v), c in zip(pair_list, mults) if c))
            if free != cactus:
                results["mismatches"].append(h.to_json())
            if free:
                free_count += 1
                if h.edge_total > 2 * q - 2:
                    results["bound_violations"].append(h.to_json())
        star = doubled_star(q)
        results["per_q"][q] = {
            "multigraphs": (mult_max + 1) ** len(pair_list),
            "chorded_cycle_free": free_count,
            "doubled_star_edges": star.edge_total,
            "doubled_star_tight": q < 2
            or (star.edge_total == 2 * q - 2 and is_chorded_cycle_free(star)),
        }
    return results


def covers_one_level(members):
    """Every cover of a family of edge bitmasks under inclusion adds exactly
    one edge, with each cover found by testing every member in between."""
    for a in members:
        for b in members:
            if a == b or a & b != a or (a ^ b).bit_count() == 1:
                continue
            if not any(c not in (a, b) and a & c == a and c & b == c for c in members):
                return False
    return True


def closure_and_minimal_levels(members, slots):
    """Whether a family of edge bitmasks on `slots` slots is upward closed,
    by looking up every one-edge extension of every member, and the edge
    counts of its minimal members, by testing every pair for inclusion."""
    member_set = set(members)
    upward_closed = all(
        (bits | 1 << s) in member_set
        for bits in members
        for s in range(slots)
        if not bits >> s & 1
    )
    minimals = [
        bits for bits in members
        if not any(other != bits and other & bits == other for other in members)
    ]
    return upward_closed, tuple(sorted({b.bit_count() for b in minimals}))


def level_pair_rows(full, from_bits, to_bits, direction):
    """Adjacency rows between two adjacent levels of edge bitmasks on the
    slots of full = 2^m - 1, from a hash index of the target level: row u
    lists, by ascending slot, the index in to_bits of each member that adds
    one edge to (up) or drops one edge from (down) from_bits[u]."""
    index = {b: i for i, b in enumerate(to_bits)}
    rows = []
    for b in from_bits:
        row = []
        for s in range(full.bit_length()):
            bit = 1 << s
            if direction == "up" and not b & bit:
                other = b | bit
            elif direction == "down" and b & bit:
                other = b ^ bit
            else:
                continue
            if other in index:
                row.append(index[other])
        rows.append(row)
    return rows


def bracket_step(bits, m, direction):
    """The symmetric-chain bracket map by a stack walk over the m slots, an
    edge read as ")" and a non-edge as "(": up sets the leftmost unmatched
    "(", down clears the rightmost unmatched ")", and a mask with no such
    slot maps to itself."""
    opens, closes = [], []  # unmatched "(" (a stack) and ")" so far
    for s in range(m):
        if not bits >> s & 1:
            opens.append(s)
        elif opens:
            opens.pop()
        else:
            closes.append(s)
    if direction == "up":
        return bits | 1 << opens[0] if opens else bits
    return bits & ~(1 << closes[-1]) if closes else bits


def augmenting_path_matching(n_left, n_right, neighbors):
    """Maximum bipartite matching one augmenting path at a time (Kuhn).

    Returns (size, match_l, match_r) with -1 for unmatched, the shape of
    connposet.poset.hopcroft_karp, which it cross-checks.
    """
    match_l = [-1] * n_left
    match_r = [-1] * n_right

    def try_augment(u, seen):
        for v in neighbors(u):
            if not seen[v]:
                seen[v] = True
                if match_r[v] < 0 or try_augment(match_r[v], seen):
                    match_r[v] = u
                    match_l[u] = v
                    return True
        return False

    size = 0
    for u in range(n_left):
        if try_augment(u, [False] * n_right):
            size += 1
    return size, match_l, match_r


def brute_width(elements, lt):
    """Maximum antichain size by enumerating all subsets (tiny posets only)."""
    n = len(elements)
    assert n <= 20
    best = 0
    for mask in range(1 << n):
        chosen = [elements[i] for i in range(n) if mask >> i & 1]
        if all(
            not lt(a, b) and not lt(b, a)
            for a, b in combinations(chosen, 2)
        ):
            best = max(best, len(chosen))
    return best


def dilworth_width(elements, successors):
    """Width of a finite strict order by Dilworth's theorem: |P| minus a
    maximum matching between a left and a right copy of P, with u -> v for
    every v strictly above u (Fulkerson 1956).  successors(a) lists the
    elements strictly above a; brute_width cross-checks the reduction."""
    from array import array

    from connposet.poset import hopcroft_karp

    index = {e: i for i, e in enumerate(elements)}
    assert len(index) == len(elements), "elements must be distinct"
    rows = [array("i", (index[s] for s in successors(e))) for e in elements]
    return len(rows) - hopcroft_karp(len(rows), len(rows), rows.__getitem__)[0]


def family_dilworth_width(levels):
    """dilworth_width of a family of bitmasks, listed by level, under strict
    inclusion: the members above bits are the members bits | t, t a nonempty
    submask of the family's union outside bits."""
    members = [b for level in levels for b in level]
    member_set = set(members)
    full = 0
    for b in members:
        full |= b

    def successors(bits):
        free = full & ~bits
        t = free
        while t:
            if bits | t in member_set:
                yield bits | t
            t = (t - 1) & free

    return dilworth_width(members, successors)


def host_subgraph_levels(n, host):
    """The connected spanning subgraphs of a host bitmask on [n], listed by
    edge count, by union-find over every mask below the host."""
    levels = [[] for _ in range(host.bit_count() + 1)]
    for b in range(host + 1):
        if b & host == b and uf_connected_bits(n, b):
            levels[b.bit_count()].append(b)
    return levels


def _simple_cycles(q, ends):
    """(edge ids, vertex set) of every simple cycle of the multigraph whose
    edge copies are `ends`, once per direction of travel.  Parallel copies
    have their own ids, so two copies of a pair form a 2-cycle."""
    incident = {v: [] for v in range(1, q + 1)}
    for eid, (u, v) in enumerate(ends):
        incident[u].append((v, eid))
        incident[v].append((u, eid))
    for start in range(1, q + 1):
        # paths from start through larger vertices; closing one back at
        # start by an unused edge gives every cycle whose least vertex is start
        stack = [(start, {start}, frozenset())]
        while stack:
            u, verts, used = stack.pop()
            for w, eid in incident[u]:
                if eid in used:
                    continue
                if w == start and used:
                    yield used | {eid}, verts
                elif w > start and w not in verts:
                    stack.append((w, verts | {w}, used | {eid}))


def cycle_chord_free(q, edges):
    """No cycle of the multigraph has a chord, by enumerating simple cycles.

    `edges` holds (u, v, multiplicity) triples on vertices 1..q.  A chord is
    an edge off the cycle with both ends on it (for a 2-cycle, a third
    parallel copy).
    """
    ends = [(u, v) for u, v, mult in edges for _ in range(mult)]
    return not any(
        other not in cycle and a in verts and b in verts
        for cycle, verts in _simple_cycles(q, ends)
        for other, (a, b) in enumerate(ends)
    )


def cycles_edge_disjoint(q, edges):
    """No edge copy lies on two distinct simple cycles, by enumerating them:
    the multigraph is a cactus."""
    ends = [(u, v) for u, v, mult in edges for _ in range(mult)]
    seen, covered = set(), set()
    for cycle, _ in _simple_cycles(q, ends):
        if cycle not in seen:  # the same cycle, travelled the other way
            if covered & cycle:
                return False
            seen.add(cycle)
            covered |= cycle
    return True


def packed_pattern(q, mults):
    """A multiplicity pattern (multiplicities <= 2 on the pairs of [q] in
    `combinations` order) packed two bits a pair at the pair's slot s: bit
    2s for its first copy, 2s + 1 for its second."""
    slot = {pair: s for s, pair in enumerate(pairs_on(q))}
    return sum(((1 << c) - 1) << 2 * slot[pair]
               for pair, c in zip(combinations(range(1, q + 1), 2), mults))


def relabel_min_key(q, mults):
    """The smallest packed pattern over all q! relabellings of a
    multiplicity pattern, each relabelled pair by pair."""
    pair_list = list(combinations(range(1, q + 1), 2))
    mult_of = dict(zip(pair_list, mults))
    return min(
        packed_pattern(q, [mult_of[tuple(sorted((p[i - 1], p[j - 1])))] for i, j in pair_list])
        for p in permutations(range(1, q + 1))
    )


@lru_cache(maxsize=None)
def pattern_verdicts(q):
    """(is_chorded_cycle_free, is_cactus) of every multiplicity pattern with
    multiplicities <= 2 on the pairs of [q] in `combinations` order, keyed by
    the multiplicity tuple, in `product` order."""
    from connposet.connectivity import MultiGraph, is_cactus, is_chorded_cycle_free

    pair_list = list(combinations(range(1, q + 1), 2))
    verdicts = {}
    for mults in product(range(3), repeat=len(pair_list)):
        h = MultiGraph(q, tuple((u, v, c) for (u, v), c in zip(pair_list, mults) if c))
        verdicts[mults] = (is_chorded_cycle_free(h), is_cactus(h))
    return verdicts


# ---------------------------------------------------------------------------
# the lemma sweeps graph by graph: the walk the plane sweeps replaced


@lru_cache(maxsize=None)
def skeleton_walk(n):
    """(bits, B, parts) of every connected graph on [n], ascending: B its
    bridges by per-edge deletion, as a slot mask, and the parts the vertex
    masks of the components of G - B, numbered by smallest vertex."""
    from connposet import EdgeSet

    slot = {pair: 1 << s for s, pair in enumerate(pairs_on(n))}
    walk = []
    for bits in range(1 << comb(n, 2)):
        if uf_connected_bits(n, bits):
            bridges = sum(slot[e] for e in bridges_by_deletion(EdgeSet(n, bits)))
            walk.append((bits, bridges, tuple(uf_components(n, bits_edges(n, bits ^ bridges)))))
    return tuple(walk)


@lru_cache(maxsize=None)
def removal_walk(n):
    """(bits, R, parts) of every two-edge-connected graph on [n], ascending:
    R(G) by removable_by_retest, as a slot mask, and the parts the vertex
    masks of the components of G - R, numbered by smallest vertex."""
    from connposet import EdgeSet

    slot = {pair: 1 << s for s, pair in enumerate(pairs_on(n))}
    walk = []
    for bits, bridges, _ in skeleton_walk(n):
        if not bridges:
            r = sum(slot[e] for e in removable_by_retest(EdgeSet(n, bits)))
            walk.append((bits, r, tuple(uf_components(n, bits_edges(n, bits ^ r)))))
    return tuple(walk)


@lru_cache(maxsize=None)
def _induced_slot_map(n, vertex_mask):
    """(slot bit on [n], slot bit on 1..|mask|) of every pair inside the
    masked vertices, the vertices relabeled in ascending order."""
    verts = [v for v in range(1, n + 1) if vertex_mask >> v & 1]
    return tuple(
        (1 << pairs_on(n).index((verts[i - 1], verts[j - 1])), 1 << s)
        for s, (i, j) in enumerate(pairs_on(len(verts)))
    )


def _induced_bits(n, bits, vertex_mask):
    """Induced subgraph on the masked vertices, relabeled to 1..|mask|."""
    sub = 0
    for source, target in _induced_slot_map(n, vertex_mask):
        if bits & source:
            sub |= target
    return vertex_mask.bit_count(), sub


def skeleton_findings_by_walk(n):
    """connectivity.skeleton_findings from the skeleton walk: each part
    relabelled alone and tested with uf_two_edge_connected."""
    findings = []
    two_edge_connected = {}  # relabelled part: its verdict
    walk = skeleton_walk(n)
    for bits, bridges, parts in walk:
        if bridges.bit_count() != len(parts) - 1:
            findings.append(
                {"graph": f"{n}:{bits:x}", "problem": "bridge count != t-1",
                 "bridges": bridges.bit_count(), "t": len(parts)}
            )
        for mask in parts:
            part = _induced_bits(n, bits, mask)
            if part not in two_edge_connected:
                two_edge_connected[part] = uf_two_edge_connected(part[0], bits_edges(*part))
            if not two_edge_connected[part]:
                findings.append(
                    {"graph": f"{n}:{bits:x}", "problem": "part not 2-edge-connected",
                     "part": [v for v in range(1, n + 1) if mask >> v & 1]}
                )
    return len(walk), findings


def condensation_of(n, r, parts):
    """The multigraph that the R edges (a slot mask) induce on the parts."""
    from connposet.connectivity import MultiGraph

    part_of = {v: p for p, mask in enumerate(parts, start=1)
               for v in range(1, n + 1) if mask >> v & 1}
    return MultiGraph.from_pairs(
        len(parts), [(part_of[i], part_of[j]) for i, j in bits_edges(n, r)]
    )


def removability_findings_by_walk(n):
    """connectivity.removability_findings from the removal walk: each
    condensation judged by the package's is_chorded_cycle_free."""
    from connposet.connectivity import is_chorded_cycle_free

    findings = []
    chorded_free = {}
    walk = removal_walk(n)
    for bits, r_bits, parts in walk:
        r, q = r_bits.bit_count(), len(parts)
        if r > 2 * q - 2:
            findings.append(
                {"graph": f"{n}:{bits:x}", "problem": "removable set exceeds 2q-2",
                 "r": r, "q": q}
            )
        if r == 1:
            findings.append({"graph": f"{n}:{bits:x}", "problem": "removable set of size 1"})
        condensed = condensation_of(n, r_bits, parts)
        free = chorded_free.get(condensed)
        if free is None:
            free = chorded_free[condensed] = is_chorded_cycle_free(condensed)
        if not free:
            findings.append(
                {"graph": f"{n}:{bits:x}", "problem": "condensation has a chorded cycle",
                 "condensation": condensed.to_json()}
            )
    return len(walk), findings


def tech_sweep_by_walk(n):
    """bounds.tech_inequality_sweep from the skeleton walk: each connected
    graph with a bridge and at least M edges split into its parts, each
    part's |R| from removable_by_retest on the part relabelled alone, and the
    minimum taken over (lhs, k, bits)."""
    from connposet import EdgeSet

    M = (comb(n, 2) + 1) // 2
    checked = excluded = holding = 0
    best = None
    for bits, bridges, masks in skeleton_walk(n):
        if not bridges or bits.bit_count() < M:
            continue
        parts = [mask.bit_count() for mask in masks]
        if len(parts) == 2 and min(parts) == 1:
            excluded += 1
            continue
        checked += 1
        r = sum(len(removable_by_retest(EdgeSet(*_induced_bits(n, bits, mask))))
                for mask in masks)
        lhs = (n * n - sum(a * a for a in parts)) // 2 - 2 * (len(parts) - 1) - r
        holding += lhs >= n
        key = (lhs, bits.bit_count(), bits)
        if best is None or key < best:
            best = key
    return {
        "n": n,
        "checked": checked,
        "excluded": excluded,
        "holding": holding,
        "empirical_min": None if best is None else best[0],
        "witness": None if best is None else f"{n}:{best[2]:x}",
    }
