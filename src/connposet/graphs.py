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

import sys
from array import array
from functools import lru_cache
from itertools import combinations, permutations
from typing import Iterable, Iterator, NamedTuple, Sequence

from .limits import TYPE_MAX_N, check_census_budget, check_scan_budget

FAMILIES = ("all", "connected", "two_edge_connected", "hamiltonian", "contains_triangle")


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


@lru_cache(maxsize=None)
def _lanes(n: int, copies: int = 1) -> tuple[str, int, tuple[int, ...]]:
    """The orbit table of [n] for up to `copies` edge copies per pair: the
    copy c of slot s is bit copies * s + c, and its column is one int whose
    lane p holds the image bit under the p-th permutation of [n] (in
    itertools.permutations order).  A lane is the smallest array item of
    16, 32 or 64 bits that holds copies * m bits.  Returns the item code,
    the byte length of a column and the columns, by bit."""
    pairs = _slot_pairs(n)
    code = next(c for c in "HIQ" if 8 * array(c).itemsize >= copies * len(pairs))
    bit_of = {}
    for s, (i, j) in enumerate(pairs):
        bit_of[i, j] = bit_of[j, i] = 1 << copies * s
    perms = list(permutations(range(1, n + 1)))
    columns = tuple(
        int.from_bytes(array(code, [bit_of[p[i - 1], p[j - 1]] << c for p in perms]),
                       sys.byteorder)
        for i, j in pairs for c in range(copies)
    )
    return code, len(perms) * array(code).itemsize, columns


def _orbit(bits: int, n: int, copies: int = 1) -> memoryview:
    """A graph (or, with copies = 2, a pattern of edge multiplicities up to
    2) relabeled by every permutation of [n], one lane each, repeats
    included: the OR of its bits' columns, read back lane by lane."""
    code, size, columns = _lanes(n, copies)
    lanes = 0
    for b in _iter_bits(bits):
        lanes |= columns[b]
    return memoryview(lanes.to_bytes(size, sys.byteorder)).cast(code)


class _EdgeSetFields(NamedTuple):
    n: int
    bits: int


class EdgeSet(_EdgeSetFields):
    """A labeled graph on {1,...,n} encoded as an m-bit edge set.  It is the
    tuple (n, bits): it orders and hashes as that tuple."""

    __slots__ = ()

    def __new__(cls, n: int, bits: int) -> "EdgeSet":
        if not 0 <= bits < (1 << slot_count(n)):
            raise ValueError(f"bits out of range for n={n}: {bits}")
        return super().__new__(cls, n, bits)

    @classmethod
    def _make(cls, fields: Iterable[int]) -> "EdgeSet":
        return cls(*fields)  # so that _replace checks too

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


def _check_family(family: str) -> None:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")


# ---------------------------------------------------------------------------
# universe planes
#
# A plane is a 2^m-bit integer with one bit per graph on [n]: bit x is set
# when the graph with edge mask x has the plane's property.  The built-in
# families come out for every graph at once from shifts, ANDs and ORs on
# planes, not from one predicate call per mask.

# Vertex count of the largest universe held as one plane (2^21 bits).  A
# census on more vertices runs chunk by chunk: each chunk fixes the slots
# above this universe and is one plane of it.
_CHUNK_N = 7

_Pairs = Sequence[tuple[int, int]]  # the vertex pair of each slot a plane spans


class _Planes(NamedTuple):
    ones: int  # every graph
    slots: tuple[int, ...]  # E_s: the graphs holding slot s
    levels: tuple[int, ...]  # L_k: the graphs with k edges
    connected: int
    two_edge_connected: int


@lru_cache(maxsize=None)
def _planes(n: int) -> _Planes:
    """The planes of the graphs on [n]; callers enforce the scan budget."""
    _check_n(n)
    ones, slots, levels, connected = _span_planes(n, _slot_pairs(n))
    return _Planes(ones, slots, levels, connected, _two_edge_connected_plane(slots, connected, ()))


def _span_planes(n: int, pairs: _Pairs) -> tuple[int, tuple[int, ...], tuple[int, ...], int]:
    """The planes of the graphs on [n] whose edges lie among the given vertex
    pairs, slot s standing for pairs[s]: every graph, the slot planes E_s, the
    level planes L_k and the connected plane."""
    m = len(pairs)
    width = 1 << m
    ones = (1 << width) - 1
    slots = []
    for s in range(m):
        # bit x of E_s is bit s of x: 2^s zeros then 2^s ones, repeated
        plane, span = ((1 << (1 << s)) - 1) << (1 << s), 2 << s
        while span < width:
            plane |= plane << span
            span <<= 1
        slots.append(plane)
    digits = _sliced_count(slots)
    levels = tuple(_sliced_equal(digits, k, ones) for k in range(m + 1))
    return ones, tuple(slots), levels, _connected_plane(n, pairs, slots, ones)


def _sliced_count(planes: Iterable[int]) -> list[int]:
    """Bit-sliced count of the planes holding each graph: digit i holds bit i
    of that count, one ripple add per plane."""
    digits: list[int] = []
    for carry in planes:
        for i, digit in enumerate(digits):
            digits[i] = digit ^ carry
            carry &= digit
        if carry:
            digits.append(carry)
    return digits


def _sliced_equal(digits: Sequence[int], value: int, within: int) -> int:
    """The graphs of the plane `within` whose bit-sliced count is `value`."""
    if value >> len(digits):
        return 0  # more than the digits can hold
    plane = within
    for i, digit in enumerate(digits):
        # plane ^ (plane & digit) is plane & ~digit without a negative operand
        plane = plane & digit if value >> i & 1 else plane ^ (plane & digit)
    return plane


def _sliced_greater(a: Sequence[int], b: Sequence[int], within: int) -> int:
    """The graphs of the plane `within` whose bit-sliced count a exceeds b,
    compared digit by digit from the top."""
    greater, equal = 0, within
    for i in reversed(range(max(len(a), len(b)))):
        ai = a[i] if i < len(a) else 0
        bi = b[i] if i < len(b) else 0
        above = equal & ai
        greater |= above ^ (above & bi)
        equal ^= equal & (ai ^ bi)
    return greater


def _reach_planes(n: int, pairs: _Pairs, slots: Sequence[int], root: int, start: int) -> list[int]:
    """The reach planes R_v from a root vertex (index 0 unused; bit x of R_v:
    x lies in the plane `start` and vertex v is reached from the root in x).
    R_root is `start`; R_i and R_j take each other over the graphs holding
    slot s, pairs[s] = (i, j), sweep after sweep, until stable."""
    reach = [0] * (n + 1)
    reach[root] = start
    before = None
    while reach != before:
        before = list(reach)
        for (i, j), plane in zip(pairs, slots):
            ri, rj = reach[i], reach[j]
            reach[i], reach[j] = ri | rj & plane, rj | ri & plane
    return reach


def _connected_plane(n: int, pairs: _Pairs, slots: Sequence[int], ones: int) -> int:
    """AND of the reach planes from vertex 1 over every graph."""
    connected = ones
    for plane in _reach_planes(n, pairs, slots, 1, ones)[1:]:
        connected &= plane
    return connected


def _leaving_planes(slots: Sequence[int], family: int) -> list[int]:
    """Per slot s, the graphs x of the family that hold s while x - s is not
    in it: E_s & F & ~(F << 2^s), as bit x of F << 2^s is bit x - 2^s of F.
    Over the connected plane these are the bridge planes, over the
    two-edge-connected plane the removable planes."""
    out = []
    for s, plane in enumerate(slots):
        inside = plane & family
        out.append(inside ^ (inside & (family << (1 << s))))
    return out


def _two_edge_connected_plane(
    slots: Sequence[int], connected: int, cleared: Iterable[int]
) -> int:
    """The connected graphs with no bridge.  `cleared` holds, per slot fixed
    on above the plane, the connected plane with that slot fixed off instead."""
    two = connected
    for plane in _leaving_planes(slots, connected):
        two ^= two & plane
    for plane in cleared:
        two &= plane
    return two


@lru_cache(maxsize=None)
def _family_plane(n: int, family: str) -> int:
    """The plane of a family; n above the override limit is always refused,
    and callers enforce the public budget.  A triangle is E_ab & E_bc & E_ac;
    a Hamiltonian cycle is the AND of its n slot planes, listed once as
    1, perm with perm[0] < perm[-1]."""
    _check_family(family)
    check_scan_budget(n, override=True)
    planes = _planes(n)
    if family in ("all", "connected", "two_edge_connected"):
        return planes.ones if family == "all" else getattr(planes, family)
    edge = dict(zip(_slot_pairs(n), planes.slots))
    if family == "contains_triangle":
        cycles = combinations(range(1, n + 1), 3)
    else:
        cycles = [(1, *p) for p in permutations(range(2, n + 1)) if n > 2 and p[0] < p[-1]]
    plane = 0
    for cycle in cycles:
        graphs = planes.ones
        for pair in zip(cycle, cycle[1:] + cycle[:1]):
            graphs &= edge[min(pair), max(pair)]
        plane |= graphs
    return plane


def _byte_tables(planes: Sequence[int], width: int) -> list[bytes]:
    """Planes of `width` graphs read graph by graph, 8 planes to a table: byte
    x of table g holds bit x of planes[8g + b] at bit b."""
    spread = bytes.maketrans(b"01", b"\0\1")  # a binary digit to a byte
    tables = []
    for g in range(0, len(planes), 8):
        word = 0
        for b, plane in enumerate(planes[g:g + 8]):
            # one byte per binary digit, bit width-1 first: read big-endian,
            # bit x of the plane is byte x
            word |= int.from_bytes(f"{plane:0{width}b}".encode().translate(spread), "big") << b
        tables.append(word.to_bytes(width, "little"))
    return tables


def _plane_members(plane: int) -> Iterator[int]:
    """The set bits of a plane, ascending."""
    bits = bin(plane)[:1:-1]
    x = bits.find("1")
    while x >= 0:
        yield x
        x = bits.find("1", x + 1)


def _members_plane(members: Iterable[int], width: int) -> int:
    """The plane of `width` graphs whose set bits are the members: the inverse
    of _plane_members."""
    digits = bytearray(b"0") * width  # digit x is bit x
    for x in members:
        digits[x] = 49  # ord("1")
    return int(digits[::-1], 2)


def _shadow_plane(slots: Sequence[int], plane: int) -> int:
    """The graphs one edge below a member of the plane: OR_s (P & E_s) >> 2^s,
    as bit x of the shift is bit x + 2^s of P & E_s."""
    out = 0
    for s, slot in enumerate(slots):
        out |= (plane & slot) >> (1 << s)
    return out


def _census_counts(n: int, family: str, split: int = _CHUNK_N) -> list[int]:
    """Per-level counts of a family, one chunk at a time: each chunk is one
    plane of the universe on min(n, split) vertices, with the slots above it
    fixed to the bits of the chunk index.  The cycle families count from
    their one plane, so n = 8 is refused for them before any chunk."""
    if family in ("hamiltonian", "contains_triangle"):
        plane = _family_plane(n, family)
        return [(plane & level).bit_count() for level in _planes(n).levels]
    low = _planes(min(n, split))
    top = slot_count(n) - len(low.slots)
    counts = [0] * (slot_count(n) + 1)
    connected: list[int] = []  # per chunk, for the bridges among its top slots
    for chunk in range(1 << top):
        if family == "all":
            plane = low.ones
        elif not top:
            plane = getattr(low, family)
        else:
            fixed = [low.ones if chunk >> t & 1 else 0 for t in range(top)]
            plane = _connected_plane(n, _slot_pairs(n), low.slots + tuple(fixed), low.ones)
            if family == "two_edge_connected":
                connected.append(plane)
                # top slot t is a bridge where the chunk without t is disconnected
                cleared = (connected[chunk ^ 1 << t] for t in range(top) if chunk >> t & 1)
                plane = _two_edge_connected_plane(low.slots, plane, cleared)
        base = chunk.bit_count()
        for k, level in enumerate(low.levels):
            counts[base + k] += (plane & level).bit_count()
    return counts


def enumerate_level(
    n: int, k: int, family: str = "connected", budget_override: bool = False
) -> Iterator[EdgeSet]:
    """All graphs with k edges in the family, ascending bits order."""
    m = slot_count(n)
    if not 0 <= k <= m:
        raise ValueError(f"edge count must be in 0..{m}, got {k}")
    _check_family(family)
    check_scan_budget(n, budget_override)
    for bits in _plane_members(_family_plane(n, family) & _planes(n).levels[k]):
        yield EdgeSet(n, bits)


class LevelCensus(NamedTuple):
    """Per-level counts of a graph family on [n]."""

    n: int
    family: str
    counts: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.counts)


def level_census(
    n: int, family: str = "connected", budget_override: bool = False
) -> LevelCensus:
    """Exact per-edge-count census of all 2^m graphs, counted on the planes
    without listing members (so it reaches one vertex further with override)."""
    _check_n(n)
    _check_family(family)  # an unknown family fails before the budget check
    check_census_budget(n, budget_override)
    return LevelCensus(n, family, tuple(_census_counts(n, family)))


@lru_cache(maxsize=64)
def _level_bits(n: int, family: str) -> tuple[tuple[int, ...], ...]:
    """Cached per-level bit lists (index k); callers enforce the public budget."""
    plane = _family_plane(n, family)
    return tuple(tuple(_plane_members(plane & level)) for level in _planes(n).levels)

