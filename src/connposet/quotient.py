"""Isomorphism quotients and poset explorers for property-restricted families.

Three exploration surfaces:

* the quotient of the connected poset by graph isomorphism, built from
  exact canonical forms (lexicographic minimum over all n! relabelings);
* the poset of spanning connected subgraphs of one fixed host graph;
* posets of all graphs on [n] satisfying a decidable property, with the
  grading itself verified instead of assumed.

The last two are families of edge bitmasks graded by edge count and share
sperner_verdict's width core: glued level matchings first, the Dilworth
matching only when gluing fails.  Quotient classes are not bitmasks, so
the quotient's width comes from width_dilworth directly.

The quotient order is generated by one-edge extension steps between classes
and closed transitively, which matches the representative-based order:
every labeled comparability factors through one-edge steps, and supergraphs
of connected graphs stay connected.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from typing import Callable, Iterable

from .connectivity import is_two_edge_connected
from .graphs import (
    EdgeSet,
    _check_n,
    _connected_bits,
    _iter_bits,
    _level_bits,
    _plane_members,
    _slot_pairs,
    _span_planes,
    _vertex_adjacency,
    slot_count,
)
from .limits import CANONICAL_MAX_N, CPRIME_MAX_EDGES, check_scan_budget, check_width_budget
from .poset import _family_width, _largest_level, _universe_levels, width_dilworth


@lru_cache(maxsize=None)
def _perm_slot_tables(n: int) -> tuple[tuple[int, ...], ...]:
    """For every permutation of [n], the induced permutation of edge slots."""
    pairs = _slot_pairs(n)
    slot_of = {pair: s for s, pair in enumerate(pairs)}
    tables = []
    for perm in permutations(range(1, n + 1)):
        table = []
        for i, j in pairs:
            a, b = perm[i - 1], perm[j - 1]
            if a > b:
                a, b = b, a
            table.append(slot_of[(a, b)])
        tables.append(tuple(table))
    return tuple(tables)


def _apply_table(bits: int, table: tuple[int, ...]) -> int:
    out = 0
    for s in _iter_bits(bits):
        out |= 1 << table[s]
    return out


def relabel(g: EdgeSet, perm: dict[int, int]) -> EdgeSet:
    """Apply a vertex relabeling (a bijection on 1..n) to a graph."""
    return EdgeSet.from_edges(g.n, ((perm[i], perm[j]) for i, j in g.edges()))


def canonical_form(g: EdgeSet) -> EdgeSet:
    """Smallest bits value over all vertex relabelings; isomorphism-invariant."""
    if g.n > CANONICAL_MAX_N:
        raise ValueError(
            f"canonical labeling enumerates n! relabelings; n={g.n} exceeds {CANONICAL_MAX_N}"
        )
    best = g.bits
    for table in _perm_slot_tables(g.n):
        candidate = _apply_table(g.bits, table)
        if candidate < best:
            best = candidate
    return EdgeSet(g.n, best)


@dataclass(frozen=True)
class IsoClass:
    """An isomorphism class: canonical representative, orbit size, level."""

    canon: EdgeSet
    orbit_size: int

    @property
    def level(self) -> int:
        return self.canon.edge_count


@lru_cache(maxsize=8)
def _connected_classes(n: int) -> tuple[tuple[IsoClass, ...], dict[int, int]]:
    """All isomorphism classes of connected graphs on [n] plus a bits->canon map.

    Graphs are scanned in ascending bits order, so the first member of each
    orbit encountered is its canonical form; one orbit expansion per class
    replaces per-graph canonicalization.
    """
    if n > CANONICAL_MAX_N:
        raise ValueError(f"n={n} exceeds the canonical-labeling budget {CANONICAL_MAX_N}")
    tables = _perm_slot_tables(n)
    canon_of: dict[int, int] = {}
    classes: list[IsoClass] = []
    for level in _level_bits(n, "connected"):
        for bits in level:
            if bits in canon_of:
                continue
            orbit = {_apply_table(bits, table) for table in tables}
            for member in orbit:
                canon_of[member] = bits
            classes.append(IsoClass(EdgeSet(n, bits), len(orbit)))
    return tuple(classes), canon_of


def connected_classes(n: int) -> tuple[IsoClass, ...]:
    classes, _ = _connected_classes(n)
    return classes


@dataclass(frozen=True)
class Cover:
    """A one-edge-extension step between classes, with a labeled witness."""

    from_index: int
    to_index: int
    witness_from: EdgeSet
    witness_to: EdgeSet


@dataclass(frozen=True)
class QuotientPoset:
    """Connected-graph classes ordered by the closure of one-edge covers."""

    n: int
    classes: tuple[IsoClass, ...]
    covers: tuple[Cover, ...]


def quotient_poset(n: int, budget_override: bool = False) -> QuotientPoset:
    check_scan_budget(n, budget_override)
    classes, canon_of = _connected_classes(n)
    index_of = {cls.canon.bits: i for i, cls in enumerate(classes)}
    full = (1 << slot_count(n)) - 1
    covers = []
    seen: set[tuple[int, int]] = set()
    for i, cls in enumerate(classes):
        bits = cls.canon.bits
        for s in _iter_bits(full ^ bits):
            bigger = bits | 1 << s
            j = index_of[canon_of[bigger]]
            if (i, j) not in seen:
                seen.add((i, j))
                covers.append(Cover(i, j, EdgeSet(n, bits), EdgeSet(n, bigger)))
    return QuotientPoset(n, classes, tuple(covers))


@dataclass(frozen=True)
class ExplorerReport:
    """Width-versus-largest-level verdict for an explored poset."""

    universe: str
    n: int
    element_count: int
    level_sizes: dict[int, int]
    max_level_k: int
    max_level_size: int
    width: int
    note: str = ""

    @property
    def sperner(self) -> bool:
        return self.width == self.max_level_size

    @property
    def margin(self) -> int:
        return self.width - self.max_level_size


def _closure_from_covers(count: int, covers: Iterable[Cover], levels: list[int]) -> list[set[int]]:
    succ: list[set[int]] = [set() for _ in range(count)]
    for cover in covers:
        succ[cover.from_index].add(cover.to_index)
    for i in sorted(range(count), key=lambda i: -levels[i]):
        extra: set[int] = set()
        for j in succ[i]:
            extra |= succ[j]
        succ[i] |= extra
    return succ


def quotient_sperner(n: int, budget_override: bool = False) -> ExplorerReport:
    """Exact width of the isomorphism quotient versus its largest level.

    The expected answer (conjectured, not proved) is that the quotient is
    Sperner; the verdict here is the exact desk-scale computation.
    """
    qp = quotient_poset(n, budget_override)
    levels = [cls.level for cls in qp.classes]
    succ = _closure_from_covers(len(qp.classes), qp.covers, levels)
    result = width_dilworth(
        list(range(len(qp.classes))),
        successors=lambda i: succ[i],
        budget_override=budget_override,
    )
    level_sizes = dict(Counter(levels))
    max_level_k = _largest_level(level_sizes)
    return ExplorerReport(
        universe="iso_classes",
        n=n,
        element_count=result.element_count,
        level_sizes=level_sizes,
        max_level_k=max_level_k,
        max_level_size=level_sizes[max_level_k],
        width=result.width,
        note="conjectured answer: yes (Sperner)",
    )


def cprime_sperner(g: EdgeSet, budget_override: bool = False) -> ExplorerReport:
    """Width verdict for the spanning connected subgraphs of one host graph.

    The subgraphs are read from the planes of the host's own edges: bit s of
    a member is the host's s-th edge, ascending.  These local coordinates
    are an order isomorphism of the host's subsets, so the element count,
    level sizes and width are those of the subgraphs themselves.
    """
    if g.edge_count > CPRIME_MAX_EDGES:
        raise ValueError(f"host has {g.edge_count} edges; budget is {CPRIME_MAX_EDGES}")
    full = (1 << g.edge_count) - 1
    level_planes, connected = _span_planes(g.n, g.edges())[2:]
    if not connected >> full & 1:
        raise ValueError("host graph must be connected")
    levels = [tuple(_plane_members(connected & level)) for level in level_planes]
    del level_planes  # the width core reads the members only
    check_width_budget(sum(map(len, levels)), budget_override)
    verdict = _family_width(levels, full, budget_override)
    return ExplorerReport(
        universe=f"spanning_connected({g.text()})",
        n=g.n,
        element_count=verdict.element_count,
        level_sizes=verdict.level_sizes,
        max_level_k=verdict.max_level_k,
        max_level_size=verdict.max_level_size,
        width=verdict.width,
    )


def cprime_search(n_max: int, budget_override: bool = False) -> list[ExplorerReport]:
    """Run cprime_sperner on a representative of every connected class, n <= n_max.

    Returns every report, sorted with non-Sperner findings (if any) first and
    then by closeness of the margin.
    """
    _check_n(n_max)
    if n_max > 6 and not budget_override:
        raise ValueError("cprime_search is budgeted to n_max <= 6")
    reports = []
    for n in range(2, n_max + 1):
        for cls in connected_classes(n):
            reports.append(cprime_sperner(cls.canon, budget_override))
    reports.sort(key=lambda r: (-r.margin, r.n, r.universe))
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


PROPERTY_BUILTINS: dict[str, Callable[[EdgeSet], bool]] = {
    "hamiltonian": is_hamiltonian,
    "two_edge_connected": is_two_edge_connected,
    "contains_triangle": contains_triangle,
}


@dataclass(frozen=True)
class PropertyPosetReport:
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
    max_level_size: int

    @property
    def graded(self) -> bool:
        """Edge count is a valid grading: saturated covers, one minimal level."""
        return self.covers_one_step and len(self.minimal_levels) == 1

    @property
    def sperner(self) -> bool:
        return self.width == self.max_level_size


def property_poset_report(
    n: int, prop="hamiltonian", budget_override: bool = False
) -> PropertyPosetReport:
    """Explore the poset of all graphs on [n] satisfying a predicate.

    Gradedness by edge count is verified, not assumed: the poset is graded
    iff every cover relation is a one-edge step and all minimal elements
    share one edge count.  For upward-closed properties the first condition
    is automatic once upward closure has been checked exhaustively.
    """
    if callable(prop):
        name = getattr(prop, "__name__", "custom")
        predicate = prop
    else:
        if prop not in PROPERTY_BUILTINS:
            raise ValueError(
                f"unknown property {prop!r}; built-ins: {sorted(PROPERTY_BUILTINS)}"
            )
        name = prop
        predicate = PROPERTY_BUILTINS[prop]

    _, levels = _universe_levels(n, predicate, budget_override)
    members = [b for level in levels for b in level]
    if not members:
        raise ValueError(f"property {name!r} is empty on [{n}]")
    member_set = set(members)
    full = (1 << slot_count(n)) - 1

    upward_closed = all(
        (bits | 1 << s) in member_set
        for bits in members
        for s in _iter_bits(full ^ bits)
    )

    minimals: list[int] = []
    if upward_closed:
        for bits in members:
            if all((bits ^ 1 << s) not in member_set for s in _iter_bits(bits)):
                minimals.append(bits)
    else:
        for bits in members:
            if not any(
                other != bits and other & bits == other for other in members
            ):
                minimals.append(bits)
    minimal_levels = {b.bit_count() for b in minimals}

    covers_one_step = upward_closed or _covers_saturated(members, member_set)
    check_width_budget(len(members), budget_override)
    verdict = _family_width(levels, full, budget_override)
    return PropertyPosetReport(
        n=n,
        property_name=name,
        element_count=verdict.element_count,
        level_sizes=verdict.level_sizes,
        upward_closed=upward_closed,
        covers_one_step=covers_one_step,
        minimal_levels=tuple(sorted(minimal_levels)),
        width=verdict.width,
        max_level_k=verdict.max_level_k,
        max_level_size=verdict.max_level_size,
    )


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
