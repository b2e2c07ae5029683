"""Isomorphism quotients and poset explorers for property-restricted families.

Three exploration surfaces:

* the quotient of the connected poset by graph isomorphism, built from
  exact canonical forms (lexicographic minimum over all n! relabelings);
* the poset of spanning connected subgraphs of one fixed host graph;
* posets of all graphs on [n] satisfying a decidable property, each held
  as one plane, with the grading itself verified instead of assumed.

The last two are families of edge bitmasks graded by edge count and share
sperner_verdict's width core, the level matchings glued through the largest
level; a level pair that cannot be glued raises ChainPartitionError.  The
quotient glues its levels along the one-edge extension steps between
classes, which generate the representative-based order: every labeled
comparability factors through one-edge steps, and supergraphs of connected
graphs stay connected.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from functools import lru_cache
from itertools import combinations, permutations
from typing import Callable, NamedTuple

from .graphs import (
    EdgeSet,
    _check_n,
    _connected_bits,
    _family_plane,
    _iter_bits,
    _members_plane,
    _plane_members,
    _planes,
    _slot_pairs,
    _span_planes,
    _vertex_adjacency,
    slot_count,
)
from .limits import CANONICAL_MAX_N, CPRIME_MAX_EDGES, check_scan_budget, check_width_budget
from .poset import (
    SpernerReport,
    _family_width,
    _glued_partners,
    _level_sizes,
    _run_split,
    _searched,
    _universe_levels,
    check_matching_certificate,
)


@lru_cache(maxsize=None)
def _lanes(n: int) -> tuple[str, int, tuple[int, ...]]:
    """The orbit table of [n]: per slot s one int, whose lane p holds the
    image slot bit of s under the p-th permutation of [n] (in
    itertools.permutations order).  A lane is an array item, 16 bits while
    m <= 16 and 32 bits up to m = 28.  Returns the item code, the byte
    length of a column and the columns."""
    pairs = _slot_pairs(n)
    code = "H" if len(pairs) <= 16 else "I"
    bit_of = {}
    for s, (i, j) in enumerate(pairs):
        bit_of[i, j] = bit_of[j, i] = 1 << s
    perms = list(permutations(range(1, n + 1)))
    columns = tuple(
        int.from_bytes(array(code, [bit_of[p[i - 1], p[j - 1]] for p in perms]), sys.byteorder)
        for i, j in pairs
    )
    return code, len(perms) * array(code).itemsize, columns


def _orbit(bits: int, n: int) -> memoryview:
    """A graph relabeled by every permutation of [n], one lane each, repeats
    included: the OR of its slots' columns, read back lane by lane."""
    code, size, columns = _lanes(n)
    lanes = 0
    for s in _iter_bits(bits):
        lanes |= columns[s]
    return memoryview(lanes.to_bytes(size, sys.byteorder)).cast(code)


def relabel(g: EdgeSet, perm: dict[int, int]) -> EdgeSet:
    """Apply a vertex relabeling (a bijection on 1..n) to a graph."""
    return EdgeSet.from_edges(g.n, ((perm[i], perm[j]) for i, j in g.edges()))


def canonical_form(g: EdgeSet) -> EdgeSet:
    """Smallest bits value over all vertex relabelings; isomorphism-invariant."""
    if g.n > CANONICAL_MAX_N:
        raise ValueError(
            f"canonical labeling enumerates n! relabelings; n={g.n} exceeds {CANONICAL_MAX_N}"
        )
    return EdgeSet(g.n, min(_orbit(g.bits, g.n)))


class IsoClass(NamedTuple):
    """An isomorphism class: canonical representative, orbit size, level."""

    canon: EdgeSet
    orbit_size: int

    @property
    def level(self) -> int:
        return self.canon.edge_count


@lru_cache(maxsize=8)
def _connected_classes(n: int) -> tuple[tuple[IsoClass, ...], array]:
    """All isomorphism classes of connected graphs on [n], plus the class
    index of every graph on [n] (-1 where the graph is disconnected).

    Level by level, the next graph still flagged is the smallest of its
    orbit, so it is the canonical form; its orbit gets the next class index
    and loses its flags.  One orbit expansion per class replaces per-graph
    canonicalization, and no graph is visited twice.
    """
    connected = _family_plane(n, "connected")
    size = 1 << slot_count(n)
    class_of = array("i", [-1]) * size
    spread = bytes.maketrans(b"01", b"\0\1")  # a binary digit to a byte
    classes: list[IsoClass] = []
    for level in _planes(n).levels:
        # byte x is bit x of the level's connected plane
        flags = bytearray(f"{connected & level:0{size}b}"[::-1].encode()).translate(spread)
        bits = flags.find(1)
        while bits >= 0:
            orbit = set(_orbit(bits, n))
            index = len(classes)
            for member in orbit:
                class_of[member] = index
                flags[member] = 0
            classes.append(IsoClass(EdgeSet(n, bits), len(orbit)))
            bits = flags.find(1, bits + 1)
    return tuple(classes), class_of


def connected_classes(n: int) -> tuple[IsoClass, ...]:
    classes, _ = _connected_classes(n)
    return classes


class Cover(NamedTuple):
    """A one-edge-extension step between classes, with a labeled witness."""

    from_index: int
    to_index: int
    witness_from: EdgeSet
    witness_to: EdgeSet


class QuotientPoset(NamedTuple):
    """Connected-graph classes ordered by the closure of one-edge covers."""

    n: int
    classes: tuple[IsoClass, ...]
    covers: tuple[Cover, ...]


def quotient_poset(n: int, budget_override: bool = False) -> QuotientPoset:
    check_scan_budget(n, budget_override)
    classes, class_of = _connected_classes(n)
    full = (1 << slot_count(n)) - 1
    steps: dict[tuple[int, int], int] = {}  # first witness of each cover
    for i, cls in enumerate(classes):
        bits = cls.canon.bits
        for s in _iter_bits(full ^ bits):
            bigger = bits | 1 << s
            steps.setdefault((i, class_of[bigger]), bigger)
    covers = tuple(
        Cover(i, j, classes[i].canon, EdgeSet(n, bigger)) for (i, j), bigger in steps.items()
    )
    return QuotientPoset(n, classes, covers)


def quotient_sperner(n: int, budget_override: bool = False) -> SpernerReport:
    """Width of the isomorphism quotient, by the chain core over the classes'
    canonical bitmasks: the rows are the recorded covers, and so is every
    matched pair.  A level pair that cannot be glued raises
    ChainPartitionError.  The expected answer (conjectured, not proved) is
    that the quotient is Sperner.
    """
    qp = quotient_poset(n, budget_override)
    canon = [cls.canon.bits for cls in qp.classes]
    levels = [[b for b in canon if b.bit_count() == k] for k in range(slot_count(n) + 1)]
    covers = [(canon[c.from_index], canon[c.to_index]) for c in qp.covers]
    neighbors: dict[int, list[int]] = {b: [] for b in canon}  # covers either way
    for lower, upper in covers:
        neighbors[lower].append(upper)
        neighbors[upper].append(lower)

    def cover_rows(from_bits, to_bits, direction):
        rank = {b: i for i, b in enumerate(to_bits)}
        return [[rank[c] for c in neighbors[b] if c in rank] for b in from_bits]

    K, partner = _glued_partners(_searched(cover_rows), levels)
    check_matching_certificate(levels, K, partner, set(covers))
    sizes = _level_sizes(levels)
    return SpernerReport(n, "iso_classes", len(canon), sizes, K, sizes[K])


def cprime_sperner(g: EdgeSet, budget_override: bool = False) -> SpernerReport:
    """Width verdict for the spanning connected subgraphs of one host graph.

    The subgraphs are read from the planes of the host's own edges: bit s of
    a member is the host's s-th edge, by the degree sum of its ends in the
    host, ties by slot.  These local coordinates are an order isomorphism of
    the host's subsets, so the element count, level sizes and width are
    those of the subgraphs themselves.  The order is for the width core,
    whose bracket map drops the last unmatched edge of a graph: an edge
    between well-connected vertices is seldom a bridge, so fewer drops leave
    the family (1,993 against 4,890 graphs over the hosts at n <= 6 in
    ascending slot order).  It forks no child: the width core searches its
    level pairs in this process, and cprime_search shares whole hosts.
    """
    if g.edge_count > CPRIME_MAX_EDGES:
        raise ValueError(f"host has {g.edge_count} edges; budget is {CPRIME_MAX_EDGES}")
    full = (1 << g.edge_count) - 1
    degree = Counter(v for edge in g.edges() for v in edge)
    pairs = sorted(g.edges(), key=lambda edge: degree[edge[0]] + degree[edge[1]])
    level_planes, connected = _span_planes(g.n, pairs)[2:]
    if not connected >> full & 1:
        raise ValueError("host graph must be connected")
    levels = [tuple(_plane_members(connected & level)) for level in level_planes]
    del level_planes  # the width core reads the members only
    check_width_budget(sum(map(len, levels)), budget_override)
    return _family_width(g.n, f"spanning_connected({g.text()})", levels, full)


def cprime_search(n_max: int, budget_override: bool = False) -> list[SpernerReport]:
    """Run cprime_sperner on a representative of every connected class,
    n <= n_max; returns every report, sorted by (n, universe).

    On Linux, with two usable CPUs and no other thread in the process, the
    hosts are shared with one forked child, largest subset cube first (see
    _run_split), which is reaped before this returns; the reports are the
    same.  Each host's width verdict runs whole in one process."""
    _check_n(n_max)
    check_scan_budget(n_max, budget_override)  # before the first host, not at n_max
    hosts = [cls.canon for n in range(2, n_max + 1) for cls in connected_classes(n)]
    # a report's fields cross the pipe, as the NamedTuple itself is not marshal-able
    tasks = [lambda g=g: tuple(cprime_sperner(g, budget_override)) for g in hosts]
    found = _run_split(tasks, [1 << g.edge_count for g in hosts])
    reports = [SpernerReport(*fields) for fields in found]
    reports.sort(key=lambda r: (r.n, r.universe))
    return reports


# ---------------------------------------------------------------------------
# property-restricted posets


def is_hamiltonian(g: EdgeSet) -> bool:
    """Does g contain a cycle through all n vertices (n >= 3 required)?"""
    n = g.n
    if n < 3 or g.edge_count < n:
        return False
    if not _connected_bits(n, g.bits):
        return False
    adj = _vertex_adjacency(n, g.bits)
    if any(adj[v].bit_count() < 2 for v in range(1, n + 1)):
        return False
    for perm in permutations(range(2, n + 1)):
        cyc = (1,) + perm
        if all(adj[cyc[i]] >> cyc[(i + 1) % n] & 1 for i in range(n)):
            return True
    return False


def contains_triangle(g: EdgeSet) -> bool:
    adj = _vertex_adjacency(g.n, g.bits)
    return any(
        adj[a] >> b & 1 and adj[b] >> c & 1 and adj[a] >> c & 1
        for a, b, c in combinations(range(1, g.n + 1), 3)
    )


def is_two_edge_connected(g: EdgeSet) -> bool:
    """Connected, and still connected after deleting each edge; a single
    vertex qualifies, a single edge not."""
    return _connected_bits(g.n, g.bits) and all(
        _connected_bits(g.n, g.bits ^ 1 << s) for s in _iter_bits(g.bits)
    )


PROPERTY_BUILTINS: dict[str, Callable[[EdgeSet], bool]] = {
    "hamiltonian": is_hamiltonian,
    "two_edge_connected": is_two_edge_connected,
    "contains_triangle": contains_triangle,
}


@lru_cache(maxsize=None)
def _property_plane(n: int, name: str) -> int:
    """The plane of a built-in property; callers enforce the scan budget.  A
    triangle is E_ab & E_bc & E_ac; a Hamiltonian cycle is the AND of its n
    slot planes, listed once as 1, perm with perm[0] < perm[-1]."""
    planes = _planes(n)
    if name == "two_edge_connected":
        return planes.two_edge_connected
    edge = dict(zip(_slot_pairs(n), planes.slots))
    if name == "contains_triangle":
        cycles = list(combinations(range(1, n + 1), 3))
    else:
        cycles = [(1, *p) for p in permutations(range(2, n + 1)) if n > 2 and p[0] < p[-1]]
    family = 0
    for cycle in cycles:
        graphs = planes.ones
        for pair in zip(cycle, cycle[1:] + cycle[:1]):
            graphs &= edge[min(pair), max(pair)]
        family |= graphs
    return family


class PropertyPosetReport(NamedTuple):
    """Gradedness and width data for the graphs on [n] with a property."""

    n: int
    property_name: str
    element_count: int
    level_sizes: dict[int, int]
    upward_closed: bool
    covers_one_step: bool
    minimal_levels: tuple[int, ...]
    width: int
    max_level_k: int

    @property
    def graded(self) -> bool:
        """Edge count is a valid grading: saturated covers, one minimal level."""
        return self.covers_one_step and len(self.minimal_levels) == 1


def property_poset_report(
    n: int, prop="hamiltonian", budget_override: bool = False
) -> PropertyPosetReport:
    """Explore the poset of all graphs on [n] satisfying a predicate.

    _property_closure lists the family by level and verifies its grading;
    the width is _family_width's, so a level pair that cannot be glued
    raises ChainPartitionError.
    """
    name, levels, upward_closed, covers_one_step, minimal_levels = _property_closure(
        n, prop, budget_override
    )
    verdict = _family_width(n, name, levels, (1 << slot_count(n)) - 1)
    return PropertyPosetReport(
        n=n,
        property_name=name,
        element_count=verdict.element_count,
        level_sizes=verdict.level_sizes,
        upward_closed=upward_closed,
        covers_one_step=covers_one_step,
        minimal_levels=minimal_levels,
        width=verdict.width,
        max_level_k=verdict.max_level_k,
    )


def _property_closure(
    n: int, prop, budget_override: bool
) -> tuple[str, list[tuple[int, ...]], bool, bool, tuple[int, ...]]:
    """The property's name and its family's levels, with the family's
    upward_closed, covers_one_step and minimal_levels.

    Gradedness by edge count is verified, not assumed: the poset is graded
    iff every cover relation is a one-edge step and all minimal elements
    share one edge count.  The family is one plane F: a built-in property's
    comes from the slot planes, a custom predicate's from one call per mask.
    The superset transform Up of F gives the graphs above a member; F is
    upward closed iff Up == F, which makes every cover a one-edge step.
    """
    if callable(prop):
        name = getattr(prop, "__name__", "custom")
        _, levels = _universe_levels(n, prop, budget_override)
        family = _members_plane((b for level in levels for b in level), 1 << slot_count(n))
    elif prop in PROPERTY_BUILTINS:
        name = prop
        check_scan_budget(n, budget_override)
        family = _property_plane(n, prop)
    else:
        raise ValueError(f"unknown property {prop!r}; built-ins: {sorted(PROPERTY_BUILTINS)}")
    if not family:
        raise ValueError(f"property {name!r} is empty on [{n}]")
    check_width_budget(family.bit_count(), budget_override)
    planes = _planes(n)
    up = family  # the graphs holding a member
    for s, plane in enumerate(planes.slots):
        up |= plane & (up << (1 << s))
    above = 0  # the graphs strictly above a member
    for s, plane in enumerate(planes.slots):
        above |= plane & (up << (1 << s))
    upward_closed = up == family
    minimal = family & ~above
    levels = [tuple(_plane_members(family & level)) for level in planes.levels]
    covers_one_step = upward_closed
    if not upward_closed:
        members = [b for level in levels for b in level]
        covers_one_step = _covers_saturated(members, set(members))
    minimal_levels = tuple(k for k, level in enumerate(planes.levels) if minimal & level)
    return name, levels, upward_closed, covers_one_step, minimal_levels


def _covers_saturated(members: list[int], member_set: set[int]) -> bool:
    """Every cover relation jumps exactly one level.  Equivalently, each
    comparable pair two or more levels apart has a member one edge above its
    lower end and below its upper end: a longer cover has none, and otherwise
    the first step of a maximal chain between the pair is one."""
    for bits in members:
        for other in members:
            if bits & other != bits or other.bit_count() - bits.bit_count() < 2:
                continue
            if not any((bits | 1 << s) in member_set for s in _iter_bits(other & ~bits)):
                return False
    return True
