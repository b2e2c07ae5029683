"""Multigraphs, their chorded-cycle and cactus tests, and the lemma sweeps.

The skeleton of a connected graph is the pair (B, {A_1,...,A_t}): B its set
of bridges and A_1..A_t the vertex sets of the components left after the
bridges are deleted.  For a bridgeless (2-edge-connected) graph, R(G) is the
set of edges whose deletion destroys 2-edge-connectivity; deleting them
splits the graph into q components, and |R(G)| is at most 2q-2 because the
multigraph induced on those components never contains a chorded cycle.

The sweeps check these facts for every graph on [n] at once on the universe
planes of `graphs`; no graph is split on its own.  Conventions: a one-vertex
graph is 2-edge-connected (skeleton parts of size one must qualify); a
two-vertex single edge is not (the edge is a bridge).
"""

from __future__ import annotations

import json
from math import factorial
from typing import Iterable, Iterator, NamedTuple, Sequence

from .graphs import (
    _byte_tables,
    _component_masks,
    _iter_bits,
    _leaving_planes,
    _orbit,
    _plane_members,
    _planes,
    _reach_planes,
    _reachable_mask,
    _slot_pairs,
    _sliced_count,
    _sliced_equal,
    _sliced_greater,
)
from .limits import check_chorded_budget, check_scan_budget


# ---------------------------------------------------------------------------
# multigraphs and chorded cycles


class _MultiGraphFields(NamedTuple):
    q: int
    edges: tuple[tuple[int, int, int], ...]


class MultiGraph(_MultiGraphFields):
    """Loop-free multigraph on vertex set {1,...,q} with edge multiplicities,
    the edges (u, v, multiplicity) sorted."""

    __slots__ = ()

    def __new__(cls, q: int, edges: Iterable[tuple[int, int, int]]) -> "MultiGraph":
        edges = tuple(sorted(edges))
        seen = set()
        for u, v, mult in edges:
            if not (1 <= u < v <= q):
                raise ValueError(f"bad edge ({u},{v}): need 1 <= u < v <= q={q}")
            if mult < 1:
                raise ValueError(f"multiplicity must be >= 1, got {mult}")
            if (u, v) in seen:
                raise ValueError(f"duplicate pair ({u},{v}); merge multiplicities")
            seen.add((u, v))
        return super().__new__(cls, q, edges)

    @classmethod
    def _make(cls, fields: Iterable) -> "MultiGraph":
        return cls(*fields)  # so that _replace checks and sorts too

    @property
    def edge_total(self) -> int:
        return sum(mult for _, _, mult in self.edges)

    @classmethod
    def from_pairs(cls, q: int, pairs: Iterable[tuple[int, int]]) -> "MultiGraph":
        counts: dict[tuple[int, int], int] = {}
        for u, v in pairs:
            if u > v:
                u, v = v, u
            counts[(u, v)] = counts.get((u, v), 0) + 1
        return cls(q, tuple((u, v, c) for (u, v), c in counts.items()))

    def to_json(self) -> str:
        return json.dumps(
            {"q": self.q, "edges": [[u, v, mult] for u, v, mult in self.edges]}
        )

    @classmethod
    def from_json(cls, text: str) -> "MultiGraph":
        data = json.loads(text)
        return cls(data["q"], tuple(tuple(e) for e in data["edges"]))


def is_chorded_cycle_free(h: MultiGraph) -> bool:
    """True iff no cycle of h has a chord: an edge off the cycle with both
    ends on it (for a 2-cycle, a third parallel copy).

    By Dirac and Plummer, a copy f of the pair uv is a chord exactly when
    h - f still holds two internally disjoint u-v paths, a remaining
    parallel copy counting as one.  So a pair of multiplicity 3 fails, a
    doubled pair fails where some u-v path avoids uv, and a simple pair
    fails unless u and v are disconnected in h - uv or one vertex w splits
    them there (Menger).
    """
    adj = [0] * (h.q + 1)
    for u, v, _ in h.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    for u, v, mult in h.edges:
        if mult >= 3:
            return False
        rest = list(adj)
        rest[u] ^= 1 << v
        rest[v] ^= 1 << u
        reach = _reachable_mask(h.q, rest, u)
        if not reach >> v & 1:
            continue
        if mult == 2 or all(
            _reachable_mask(h.q, [a & ~(1 << w) for a in rest], u) >> v & 1
            for w in _iter_bits(reach ^ 1 << u ^ 1 << v)
        ):
            return False
    return True


def is_cactus(h: MultiGraph) -> bool:
    """Every block (biconnected component) is a single edge or a cycle.

    This is a strictly stronger condition than is_chorded_cycle_free: the
    complete bipartite graph on parts of sizes 2 and 3 has no chorded cycle
    yet is a single non-cycle block.  Both predicates imply the 2q-2 edge
    bound; they first diverge at q = 5.

    Each edge copy off a spanning forest closes a cycle with the forest path
    between its ends.  These cycles span the cycle space, so h is a cactus
    (no edge on two cycles) iff no forest edge lies on two of them.
    """
    near: list[list[int]] = [[] for _ in range(h.q + 1)]
    for u, v, mult in h.edges:
        near[u] += [v] * mult
        near[v] += [u] * mult
    parent, depth = [0] * (h.q + 1), [-1] * (h.q + 1)
    for root in range(1, h.q + 1):
        if depth[root] < 0:
            depth[root], order = 0, [root]
            for u in order:  # breadth first
                for v in near[u]:
                    if depth[v] < 0:
                        parent[v], depth[v] = u, depth[u] + 1
                        order.append(v)
    on_cycle = [False] * (h.q + 1)  # the forest edge from v to its parent
    for u, v, mult in h.edges:
        for _ in range(mult - (parent[u] == v or parent[v] == u)):
            a, b = u, v
            while a != b:
                if depth[a] < depth[b]:
                    a, b = b, a
                if on_cycle[a]:
                    return False
                on_cycle[a], a = True, parent[a]
    return True


# ---------------------------------------------------------------------------
# exhaustive sweeps
#
# Both sweeps check every graph at once on the universe planes of `graphs`
# (2^m-bit integers, one bit per graph); a graph is looked at on its own only
# where a check flags it or where the planes leave its condensation open.


def _bits_at(planes: Sequence[int], x: int) -> int:
    """Graph x's row of the planes: bit i holds bit x of planes[i]."""
    return sum((plane >> x & 1) << i for i, plane in enumerate(planes))


class _SplitPlanes(NamedTuple):
    leaving: list[int]  # slot s leaves the family at x: a bridge of x, or in R(x)
    kept: list[int]  # x holds s and s does not leave: an edge of G - B, or of G - R
    leaders: list[int]  # per vertex v (index v - 1): v is the smallest vertex of its part
    reach: list[list[int]]  # reach[u][v]: u < n reaches v by kept edges (reach[0] empty)


def _split_planes(n: int, family: int) -> _SplitPlanes:
    """Every graph x of the family plane split by the slots that leave it:
    over the connected plane by its bridges into the parts of G - B, over
    the two-edge-connected plane by R(G) into the parts of G - R(G).  The
    leaders count the parts."""
    pairs = _slot_pairs(n)
    slots = _planes(n).slots
    leaving = _leaving_planes(slots, family)
    kept = [plane ^ out for plane, out in zip(slots, leaving)]
    reach = [[]] + [_reach_planes(n, pairs, kept, u, family) for u in range(1, n)]
    leaders = []
    for v in range(1, n + 1):
        led = family
        for u in range(1, v):
            led ^= led & reach[u][v]
        leaders.append(led)
    return _SplitPlanes(leaving, kept, leaders, reach)


def skeleton_findings(n: int, budget_override: bool = False) -> tuple[int, list[dict]]:
    """Check |B| = t-1 and 2-edge-connected parts over all connected graphs:
    t counts the leaders of G - B, and a part is 2-edge-connected where none
    of its edges is a bridge of G - B."""
    check_scan_budget(n, budget_override)
    pairs = _slot_pairs(n)
    connected = _planes(n).connected
    bridges, kept, leaders, reach = _split_planes(n, connected)
    del reach  # not read: t counts the leaders
    # |B| + 1 = t: the bit-sliced count of the B_s and C against the leaders'
    plus_one, t = _sliced_count(bridges + [connected]), _sliced_count(leaders)
    miscounted = _sliced_greater(plus_one, t, connected) | _sliced_greater(t, plus_one, connected)
    # an edge s = (i, j) of G - B is a bridge of G - B where i reaches j only by s
    cut = []
    for s, (i, j) in enumerate(pairs):
        holding = kept[s] & connected
        without = kept[:s] + [0] + kept[s + 1:]
        cut.append(holding ^ _reach_planes(n, pairs, without, i, holding)[j])
    flagged = miscounted
    for plane in cut:
        flagged |= plane
    findings = []
    for x in _plane_members(flagged):
        graph = f"{n}:{x:x}"
        if miscounted >> x & 1:
            findings.append(
                {"graph": graph, "problem": "bridge count != t-1",
                 "bridges": _bits_at(bridges, x).bit_count(),
                 "t": _bits_at(leaders, x).bit_count()}
            )
        cut_slots = list(_iter_bits(_bits_at(cut, x)))
        for mask in _component_masks(n, _bits_at(kept, x)):
            if any(mask >> pairs[s][0] & 1 for s in cut_slots):
                findings.append(
                    {"graph": graph, "problem": "part not 2-edge-connected",
                     "part": list(_iter_bits(mask))}
                )
    return connected.bit_count(), findings


# The condensations that the planes fix, as (|R|, q, crossing part pairs,
# the pair u < v as 16u + v): with R empty, G - R is G itself; the two
# edges of an R of size 2 that both join the only two parts are a doubled
# edge.
_FIXED_SHAPES = ((0, 1, []), (2, 2, [0x12, 0x12]))


def _condensation_free(memo: dict, q: int, cross: list[int]) -> tuple[bool, MultiGraph]:
    """Whether the condensation on q parts with the given crossing part
    pairs (u < v as 16u + v) is chorded-cycle-free, and the condensation;
    `memo` keeps each verdict, so each shape is tested once."""
    key = (q, bytes(sorted(cross)))
    hit = memo.get(key)
    if hit is None:
        condensed = MultiGraph.from_pairs(q, [(c >> 4, c & 15) for c in key[1]])
        hit = memo[key] = (is_chorded_cycle_free(condensed), condensed)
    return hit


def _part_codes(n: int, pairs: Sequence[tuple[int, int]], word: int) -> tuple[int, list[int]]:
    """The part count of a graph whose reach word has bit s where pairs[s]
    share a part, and the part pair (a <= b as 16a + b) of each slot: parts
    are numbered by leader, the least vertex that reaches v, in turn."""
    lead = list(range(n + 1))
    for s, (u, v) in enumerate(pairs):
        if word >> s & 1 and lead[v] == v:
            lead[v] = u
    number: dict[int, int] = {}
    part = [0] + [number.setdefault(u, len(number) + 1) for u in lead[1:]]
    return len(number), [min(part[i], part[j]) << 4 | max(part[i], part[j]) for i, j in pairs]


def removability_findings(n: int, budget_override: bool = False) -> tuple[int, list[dict]]:
    """Check |R| <= 2q-2, |R| != 1 and a chorded-cycle-free condensation
    over all 2-edge-connected graphs on [n]: |R| counts the R_s planes, q
    the leaders of G - R, and only a graph whose condensation the planes do
    not fix (|R| >= 3) is condensed on its own."""
    check_scan_budget(n, budget_override)
    pairs = _slot_pairs(n)
    two = _planes(n).two_edge_connected
    removable, kept, leaders, reach = _split_planes(n, two)
    # an R edge inside one part of G - R would be a loop of the condensation
    joined = [reach[i][j] for i, j in pairs]
    inner = [r & plane for r, plane in zip(removable, joined)]
    del kept, reach  # not read past here
    if any(inner):
        x = min((plane & -plane).bit_length() - 1 for plane in inner if plane)
        i, j = min(pair for pair, plane in zip(pairs, inner) if plane >> x & 1)
        raise AssertionError(
            f"removable edge ({i},{j}) does not cross components in {n}:{x:x}"
        )
    r_digits = _sliced_count(removable)
    q_digits = _sliced_count(leaders)
    # |R| > 2q - 2 is |R| + 2 > 2q
    exceeds = _sliced_greater(_sliced_count(removable + [two, two]), [0] + q_digits, two)
    single = _sliced_equal(r_digits, 1, two)
    # few distinct condensations recur across the sweep; the memo lives
    # only as long as this call
    memo: dict = {}
    open_graphs = two
    rejected_shapes = []  # (plane, condensation) of each fixed shape rejected
    for r, q, cross in _FIXED_SHAPES:
        plane = _sliced_equal(r_digits, r, two) & _sliced_equal(q_digits, q, two)
        open_graphs ^= plane
        if plane:
            free, condensed = _condensation_free(memo, q, cross)
            if not free:
                rejected_shapes.append((plane, condensed))
    # every other graph is condensed on its own, its R and its parts read
    # from the planes; few partitions recur, so each is labelled once
    tables = list(zip(_byte_tables(removable, 1 << len(pairs)),
                      _byte_tables(joined, 1 << len(pairs))))
    del joined
    rejected: dict[int, MultiGraph] = {}
    labelled: dict[int, tuple[int, list[int]]] = {}  # reach word: part count, codes
    for x in _plane_members(open_graphs):
        r_bits = word = 0
        for g, (r_table, joined_table) in enumerate(tables):
            r_bits |= r_table[x] << 8 * g
            word |= joined_table[x] << 8 * g
        hit = labelled.get(word)
        if hit is None:
            hit = labelled[word] = _part_codes(n, pairs, word)
        q, codes = hit
        free, condensed = _condensation_free(memo, q, [codes[s] for s in _iter_bits(r_bits)])
        if not free:
            rejected[x] = condensed
    flagged = exceeds | single
    for plane, _ in rejected_shapes:
        flagged |= plane
    findings = []
    for x in sorted(rejected.keys() | set(_plane_members(flagged))):
        graph = f"{n}:{x:x}"
        if exceeds >> x & 1:
            findings.append(
                {"graph": graph, "problem": "removable set exceeds 2q-2",
                 "r": _bits_at(removable, x).bit_count(),
                 "q": _bits_at(leaders, x).bit_count()}
            )
        if single >> x & 1:
            findings.append({"graph": graph, "problem": "removable set of size 1"})
        condensed = rejected.get(x)
        for plane, shape in rejected_shapes:
            if plane >> x & 1:
                condensed = shape
        if condensed is not None:
            findings.append(
                {"graph": graph, "problem": "condensation has a chorded cycle",
                 "condensation": condensed.to_json()}
            )
    return two.bit_count(), findings


def doubled_star(q: int) -> MultiGraph:
    """Star on q vertices with every edge doubled: 2q-2 edges, all 2-cycles."""
    if q < 2:
        return MultiGraph(max(q, 1), ())
    return MultiGraph(q, tuple((1, v, 2) for v in range(2, q + 1)))


def _pattern(q: int, lane: int) -> MultiGraph:
    """The multigraph of a multiplicity pattern packed as in _lanes(q, 2):
    pair s has bit 2s for its first copy and 2s + 1 for its second."""
    pairs = _slot_pairs(q)
    return MultiGraph(q, ((*pairs[s], (lane >> 2 * s & 3).bit_count())
                          for s in range(len(pairs)) if lane >> 2 * s & 3))


def _free_classes(q: int) -> Iterator[tuple[int, int, int]]:
    """The chorded-cycle-free isomorphism classes of multiplicity patterns
    (multiplicities <= 2) on [q], breadth first by edge total: per class its
    key, the smallest lane of its orbit, its edge total and the number of
    relabellings that fix the key.  Chorded-cycle-freeness is hereditary, so
    every free class is a free class plus one edge copy."""
    layer, total, slots = {0: factorial(q)}, 0, range(len(_slot_pairs(q)))
    while layer:
        yield from ((key, total, fixed) for key, fixed in layer.items())
        tried: dict[int, int] = {}
        for parent in layer:
            for s in slots:
                if (copies := parent >> 2 * s & 3) < 2:
                    orbit = _orbit(parent | copies + 1 << 2 * s, q, 2)
                    if (key := min(orbit)) not in tried:
                        tried[key] = (is_chorded_cycle_free(_pattern(q, key))
                                      and orbit.tolist().count(key))
        layer, total = {key: fixed for key, fixed in tried.items() if fixed}, total + 1


def chorded_cycle_sweep(q_max: int = 5) -> dict:
    """Exhaust all multigraphs with q <= q_max vertices, multiplicity <= 3.

    Returns per-q statistics, any violations of the 2q-2 edge bound among
    chorded-cycle-free instances, tightness of the doubled star, and every
    instance on which the cactus block test disagrees with the chorded-cycle
    test.  q_max is refused above limits.CHORDED_MAX_Q before any pattern.
    """
    check_chorded_budget(q_max)
    results = {"per_q": {}, "bound_violations": [], "mismatches": []}
    # a pair at multiplicity 3 is a 2-cycle plus a chord and also a
    # non-cycle block, so both predicates reject it: only the patterns with
    # every multiplicity <= 2 are walked, the rest just counted
    for q in range(1, q_max + 1):
        # slots in the order `product` over `combinations` lists the pairs
        order = sorted(range(len(_slot_pairs(q))), key=_slot_pairs(q).__getitem__)
        found: dict[str, set[int]] = {"mismatches": set(), "bound_violations": set()}
        free = 0
        for key, total, fixed in _free_classes(q):
            free += factorial(q) // fixed
            for name, flagged in (("mismatches", not is_cactus(_pattern(q, key))),
                                  ("bound_violations", total > 2 * q - 2)):
                if flagged:
                    found[name].update(_orbit(key, q, 2))
        # reported by index, as `product` over the pairs lists them
        for name, lanes in found.items():
            results[name] += [_pattern(q, lane).to_json() for lane in sorted(
                lanes, key=lambda lane: [lane >> 2 * s & 3 for s in order])]
        star = doubled_star(q)
        results["per_q"][q] = {
            "multigraphs": 4 ** (q * (q - 1) // 2),
            "chorded_cycle_free": free,
            "doubled_star_edges": star.edge_total,
            "doubled_star_tight": q < 2
            or (star.edge_total == 2 * q - 2 and is_chorded_cycle_free(star)),
        }
    return results
