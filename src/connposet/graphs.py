"""Bitmask representation of labeled graphs on [n] and level enumeration.

A graph on vertex set {1,...,n} is an m-bit integer, m = n(n-1)/2, one bit
per unordered vertex pair.  Pairs are indexed colexicographically:

    slot(i, j) = (j-1)(j-2)/2 + (i-1)      for 1 <= i < j <= n

so slot(1,2) = 0 and slot(n-1,n) = m-1, and the slot of a pair does not
depend on n (encodings are prefix-stable across vertex counts).

All enumeration is in ascending order of the bits value, which makes every
stream deterministic and restartable.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator

from .limits import TYPE_MAX_N, check_scan_budget

FAMILIES = ("all", "connected", "two_edge_connected")


def slot_count(n: int) -> int:
    """Number of edge slots for vertex count n."""
    _check_n(n)
    return n * (n - 1) // 2


def _check_n(n: int) -> None:
    if not 1 <= n <= TYPE_MAX_N:
        raise ValueError(f"vertex count must be in 1..{TYPE_MAX_N}, got {n}")


def edge_slot(i: int, j: int, n: int) -> int:
    """Bit position of the edge {i, j}, requiring 1 <= i < j <= n."""
    _check_n(n)
    if not (1 <= i < j <= n):
        raise ValueError(f"need 1 <= i < j <= n, got i={i}, j={j}, n={n}")
    return (j - 1) * (j - 2) // 2 + (i - 1)


def slot_edge(slot: int, n: int) -> tuple[int, int]:
    """Inverse of edge_slot: the vertex pair stored at a bit position."""
    m = slot_count(n)
    if not 0 <= slot < m:
        raise ValueError(f"slot must be in 0..{m - 1}, got {slot}")
    return _slot_pairs(n)[slot]


@lru_cache(maxsize=None)
def _slot_pairs(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, j) for j in range(2, n + 1) for i in range(1, j))


@dataclass(frozen=True, order=True)
class EdgeSet:
    """A labeled graph on {1,...,n} encoded as an m-bit edge set."""

    n: int
    bits: int

    def __post_init__(self) -> None:
        m = slot_count(self.n)
        if not 0 <= self.bits < (1 << m):
            raise ValueError(f"bits out of range for n={self.n}: {self.bits}")

    @property
    def edge_count(self) -> int:
        return self.bits.bit_count()

    def edges(self) -> list[tuple[int, int]]:
        pairs = _slot_pairs(self.n)
        return [pairs[s] for s in _iter_bits(self.bits)]

    def has_edge(self, i: int, j: int) -> bool:
        if i > j:
            i, j = j, i
        return bool(self.bits >> edge_slot(i, j, self.n) & 1)

    def with_edge(self, i: int, j: int) -> "EdgeSet":
        if i > j:
            i, j = j, i
        return EdgeSet(self.n, self.bits | 1 << edge_slot(i, j, self.n))

    def without_edge(self, i: int, j: int) -> "EdgeSet":
        if i > j:
            i, j = j, i
        return EdgeSet(self.n, self.bits & ~(1 << edge_slot(i, j, self.n)))

    def text(self) -> str:
        """Canonical text form `n:HEX` (lowercase hex bits)."""
        return f"{self.n}:{self.bits:x}"

    def to_adjacency(self) -> dict[int, list[int]]:
        """Adjacency-list form, every vertex present (isolated ones included)."""
        adj: dict[int, list[int]] = {v: [] for v in range(1, self.n + 1)}
        for i, j in self.edges():
            adj[i].append(j)
            adj[j].append(i)
        return adj

    @classmethod
    def from_text(cls, text: str) -> "EdgeSet":
        try:
            n_str, hex_str = text.strip().split(":")
            return cls(int(n_str), int(hex_str, 16))
        except ValueError as exc:
            raise ValueError(f"malformed EdgeSet text form: {text!r}") from exc

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "EdgeSet":
        bits = 0
        for i, j in edges:
            if i > j:
                i, j = j, i
            bits |= 1 << edge_slot(i, j, n)
        return cls(n, bits)

    @classmethod
    def empty(cls, n: int) -> "EdgeSet":
        return cls(n, 0)

    @classmethod
    def complete(cls, n: int) -> "EdgeSet":
        return cls(n, (1 << slot_count(n)) - 1)

    def __str__(self) -> str:
        return self.text()


def _iter_bits(bits: int) -> Iterator[int]:
    while bits:
        lsb = bits & -bits
        yield lsb.bit_length() - 1
        bits ^= lsb


def _vertex_adjacency(n: int, bits: int) -> list[int]:
    """Per-vertex neighbor masks (vertex v occupies bit v), index 0 unused."""
    pairs = _slot_pairs(n)
    adj = [0] * (n + 1)
    for s in _iter_bits(bits):
        i, j = pairs[s]
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return adj


def _reachable_mask(n: int, adj: list[int], start: int) -> int:
    reach = 1 << start
    frontier = reach
    while frontier:
        nxt = 0
        for v in _iter_bits(frontier):
            nxt |= adj[v]
        frontier = nxt & ~reach
        reach |= frontier
    return reach


def _connected_bits(n: int, bits: int) -> bool:
    if n == 1:
        return True
    adj = _vertex_adjacency(n, bits)
    return _reachable_mask(n, adj, 1) == ((1 << (n + 1)) - 2)


def _component_masks(n: int, bits: int) -> list[int]:
    """Vertex masks of the connected components, ordered by smallest vertex."""
    adj = _vertex_adjacency(n, bits)
    seen = 0
    comps = []
    for v in range(1, n + 1):
        if seen >> v & 1:
            continue
        mask = _reachable_mask(n, adj, v)
        comps.append(mask)
        seen |= mask
    return comps


def is_connected(g: EdgeSet) -> bool:
    """True iff every pair of vertices is joined by a path (n=1 counts)."""
    return _connected_bits(g.n, g.bits)


def _family_predicate(family: str) -> Callable[[int, int], bool]:
    if family == "all":
        return lambda n, bits: True
    if family == "connected":
        return _connected_bits
    if family == "two_edge_connected":
        from .connectivity import _two_edge_connected_bits

        return _two_edge_connected_bits
    raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")


def _iter_k_subsets(m: int, k: int) -> Iterator[int]:
    """All m-bit values with exactly k bits set, ascending (Gosper's hack)."""
    if k == 0:
        yield 0
        return
    v = (1 << k) - 1
    limit = 1 << m
    while v < limit:
        yield v
        u = v & -v
        t = v + u
        v = t | (((v ^ t) >> 2) // u)


def enumerate_level(
    n: int, k: int, family: str = "connected", budget_override: bool = False
) -> Iterator[EdgeSet]:
    """All graphs with k edges in the family, ascending bits order."""
    m = slot_count(n)
    if not 0 <= k <= m:
        raise ValueError(f"edge count must be in 0..{m}, got {k}")
    pred = _family_predicate(family)
    check_scan_budget(n, budget_override)
    for bits in _iter_k_subsets(m, k):
        if pred(n, bits):
            yield EdgeSet(n, bits)


@dataclass(frozen=True)
class LevelCensus:
    """Per-level counts of a graph family on [n]."""

    n: int
    family: str
    counts: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.counts)


def scan_masks(n: int, family: str) -> Iterator[int]:
    """Masks of all 2^m graphs on [n] accepted by the family predicate, ascending.

    Every full scan in the package goes through here; callers enforce the
    public budget, and n above the override limit is always refused.
    """
    pred = _family_predicate(family)
    check_scan_budget(n, override=True)
    for bits in range(1 << slot_count(n)):
        if pred(n, bits):
            yield bits


def level_census(
    n: int, family: str = "connected", budget_override: bool = False
) -> LevelCensus:
    """Exact per-edge-count census obtained by scanning all 2^m graphs."""
    m = slot_count(n)
    _family_predicate(family)  # an unknown family fails before the budget check
    check_scan_budget(n, budget_override)
    counts = Counter(bits.bit_count() for bits in scan_masks(n, family))
    return LevelCensus(n, family, tuple(counts[k] for k in range(m + 1)))


@lru_cache(maxsize=64)
def _level_bits(n: int, family: str) -> tuple[tuple[int, ...], ...]:
    """Cached per-level bit lists (index k); callers enforce the public budget."""
    levels: list[list[int]] = [[] for _ in range(slot_count(n) + 1)]
    for bits in scan_masks(n, family):
        levels[bits.bit_count()].append(bits)
    return tuple(tuple(lv) for lv in levels)


def _shadow_bits(bits_set: Iterable[int]) -> set[int]:
    out: set[int] = set()
    for bits in bits_set:
        for s in _iter_bits(bits):
            out.add(bits ^ (1 << s))
    return out


def _validate_uniform(X: Iterable[EdgeSet], min_level: int = 0) -> tuple[int, int, list[EdgeSet]]:
    members = list(X)
    if not members:
        raise ValueError("empty family")
    n = members[0].n
    k = members[0].edge_count
    for g in members:
        if g.n != n:
            raise ValueError("mixed vertex counts in family")
        if g.edge_count != k:
            raise ValueError("mixed-level family: members must share one edge count")
    if k < min_level:
        raise ValueError(f"level must be at least {min_level}, got {k}")
    return n, k, members


def shadow(X: Iterable[EdgeSet], universe: str = "connected") -> set[EdgeSet]:
    """One-edge-deletion neighbors of a uniform-level family.

    With universe="connected" only connected neighbors are kept (and all
    members must be connected); with universe="all" every deletion counts.
    """
    n, _, members = _validate_uniform(X, min_level=1)
    if universe not in ("connected", "all"):
        raise ValueError(f"universe must be 'connected' or 'all', got {universe!r}")
    if universe == "connected":
        for g in members:
            if not is_connected(g):
                raise ValueError(f"member {g.text()} is not in the connected universe")
    down = _shadow_bits(g.bits for g in members)
    if universe == "connected":
        down = {b for b in down if _connected_bits(n, b)}
    return {EdgeSet(n, b) for b in down}


def upper_shadow(X: Iterable[EdgeSet]) -> set[EdgeSet]:
    """One-edge-extension neighbors of a uniform-level connected family.

    Supergraphs of connected graphs are connected, so no filtering is needed.
    """
    n, k, members = _validate_uniform(X)
    m = slot_count(n)
    if k >= m:
        raise ValueError("cannot extend the complete graph")
    for g in members:
        if not is_connected(g):
            raise ValueError(f"member {g.text()} is not connected")
    full = (1 << m) - 1
    out: set[int] = set()
    for g in members:
        for s in _iter_bits(full ^ g.bits):
            out.add(g.bits | 1 << s)
    return {EdgeSet(n, b) for b in out}
