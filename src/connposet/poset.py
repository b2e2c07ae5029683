"""Exact width, level matchings and chain partitions of graph posets.

The poset under study orders connected graphs on [n] by strict edge-set
inclusion; its levels are the connected graphs of a fixed edge count.  A
maximum matching between two adjacent levels decides whether a complete
matching (an injection pairing every graph with a comparable neighbor)
exists; when it does not, a certificate family violating Hall's condition
is extracted from the final alternating-reachability cut.

Complete matchings from every level into its neighbor toward the largest
level K glue into |level K| chains of one-edge steps; such a partition
proves width = |level K|, the paper's route to the Sperner property, and it
is the only width route: a level pair that cannot be glued raises
ChainPartitionError.  The width verdicts check the matchings themselves,
pair by pair, and list no chain; `chains` lists the chains it prints and
checks them.  For a family of edge bitmasks the symmetric-chain bracket map
proposes each partner: on an up-set it is a complete matching from every
level below m/2, so those pairs need no adjacency and no search, and
Hopcroft-Karp, started from the proposals, repairs only the pairs where
some image leaves the family.  `chains` and `matchings` print their
matchings, so they keep the search over every adjacency row.  Their level
pairs are independent of each other, so _run_split shares them between
the process and one forked child on Linux when two CPUs are free; the
output is the same.  The bracket route stays in one process: at n = 6
its pairs cost about what a fork does.  The host graphs of
quotient.cprime_search are shared the same way, each host whole, so each
host's bracket route runs in one process.  A row lists the int objects of
the target level's rank, so reading or building one allocates no int.
"""

from __future__ import annotations

import itertools
import marshal
import operator
import os
import select
import signal
import sys
from array import array
from collections import Counter, deque
from functools import lru_cache, partial
from typing import AbstractSet, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .graphs import EdgeSet, _check_family, _level_bits, slot_count
from .limits import ChainPartitionError, check_scan_budget

_BIG = 1 << 60


# ---------------------------------------------------------------------------
# bipartite maximum matching


def hopcroft_karp(
    n_left: int,
    n_right: int,
    neighbors: Callable[[int], Iterable[int]],
    seed: Sequence[int] | None = None,
) -> tuple[int, list[int], list[int]]:
    """Maximum bipartite matching by breadth-layered alternating phases.

    neighbors(u) yields the right-side indices adjacent to left index u; it
    may be a list lookup or a generator, so adjacency can be streamed for
    instances too large to materialize.  seed, if given, is a matching to
    start from: seed[u] is u's right partner, or -1.  Its pairs are taken as
    edges unread, so only the lefts it leaves unmatched, and the alternating
    paths through them, cost a neighbors call; a seed that sends two lefts
    to one right, or holds an index out of range, raises ValueError.
    Returns (size, match_l, match_r) with -1 for unmatched.
    """
    match_r = [-1] * n_right
    if seed is None:
        match_l = [-1] * n_left
    else:
        if len(seed) != n_left:
            raise ValueError(f"seed has {len(seed)} entries for {n_left} lefts")
        match_l = list(seed)
        for u, v in enumerate(match_l):
            if v == -1:
                continue
            if not 0 <= v < n_right:
                raise ValueError(f"seed sends left {u} to {v}, out of 0..{n_right - 1}")
            if match_r[v] >= 0:
                raise ValueError(f"seed sends lefts {match_r[v]} and {u} to right {v}")
            match_r[v] = u
    size = n_left - match_l.count(-1)
    for u in range(n_left):
        if match_l[u] >= 0:
            continue
        for v in neighbors(u):
            if match_r[v] < 0:
                match_r[v] = u
                match_l[u] = v
                size += 1
                break

    dist: list[int] = []

    def bfs() -> list[int]:
        """Layer the lefts from the free ones; the free lefts if an augmenting
        path exists, else an empty list."""
        free = [u for u, v in enumerate(match_l) if v < 0]
        dist[:] = [_BIG] * n_left
        for u in free:
            dist[u] = 0
        queue = deque(free)
        found = _BIG
        while queue:
            u = queue.popleft()
            du = dist[u]
            if du >= found:
                continue
            for v in neighbors(u):
                w = match_r[v]
                if w < 0:
                    if found == _BIG:
                        found = du + 1
                elif dist[w] == _BIG:
                    dist[w] = du + 1
                    queue.append(w)
        return free if found != _BIG else []

    def dfs(start: int) -> bool:
        stack = [(start, iter(neighbors(start)))]
        while stack:
            node, it = stack[-1]
            advanced = False
            for v in it:
                w = match_r[v]
                if w < 0:
                    # augment along the alternating path on the stack
                    for s_node, _ in reversed(stack):
                        nxt = match_l[s_node]
                        match_l[s_node] = v
                        match_r[v] = s_node
                        v = nxt
                    return True
                if dist[w] == dist[node] + 1:
                    stack.append((w, iter(neighbors(w))))
                    advanced = True
                    break
            if not advanced:
                dist[node] = _BIG
                stack.pop()
        return False

    # a left stays free until a search starts from it, so the phase tries
    # the lefts that were free when it was layered, in order; once the
    # smaller side is matched no augmenting path is left to layer
    while size < min(n_left, n_right) and (free := bfs()):
        for u in free:
            if dfs(u):
                size += 1
    return size, match_l, match_r


def _alternating_reachable(
    n_left: int,
    n_right: int,
    neighbors: Callable[[int], Iterable[int]],
    match_l: list[int],
    match_r: list[int],
) -> tuple[list[bool], list[bool]]:
    """Left/right vertices reachable from unmatched lefts by alternating paths
    (non-matching edges rightward, matching edges leftward)."""
    seen_l = [False] * n_left
    seen_r = [False] * n_right
    queue = deque(u for u in range(n_left) if match_l[u] < 0)
    for u in queue:
        seen_l[u] = True
    while queue:
        u = queue.popleft()
        for v in neighbors(u):
            if not seen_r[v]:
                seen_r[v] = True
                w = match_r[v]
                if w >= 0 and not seen_l[w]:
                    seen_l[w] = True
                    queue.append(w)
    return seen_l, seen_r


# ---------------------------------------------------------------------------
# level-pair searches in two processes


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def _lone_thread() -> bool:
    """Whether this process runs one thread.  /proc/self/task lists every
    thread, a native pool's (BLAS, OpenMP) as well as Python's."""
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _run_queue(tasks: Sequence[Callable], queue, done: dict) -> None:
    """done[i] = tasks[i]() for each index i read from queue in turn, up to
    the first task that raises; whoever reads done runs that task again."""
    while item := queue.read(4):  # one read call: the other process reads too
        i = int.from_bytes(item, "little")
        try:
            done[i] = tasks[i]()
        except Exception:
            return


def _run_split(tasks: Sequence[Callable], costs: Sequence[float]) -> list:
    """[task() for task in tasks], shared between this process and a forked
    child on Linux, when there are two tasks or more, two usable CPUs and
    no other thread.

    Both processes take their next task from one queue, a pipe that lists
    the tasks longest-first by cost, so neither idles while a task waits.
    The child sends its results, which must be marshal-able, through a
    second pipe once the queue is empty, and leaves by os._exit.  A task
    with no result, because it raised in either process or the child died
    (or os.fork failed) before its results were whole, runs here, in task
    order, so the first task that fails raises its own error, as it does
    in one process.  The child is reaped before this returns.
    """
    done: dict = {}
    # elsewhere than Linux a fork may be missing or unsafe (macOS); a fork
    # copies only this thread, so a lock another thread held would stay
    # held in the child; the queue is one write of at most PIPE_BUF bytes,
    # which is atomic, so each 4-byte read gets a whole index
    if (sys.platform == "linux" and 2 <= len(tasks) <= select.PIPE_BUF // 4
            and _usable_cpus() >= 2 and _lone_thread()):
        order = sorted(range(len(tasks)), key=costs.__getitem__, reverse=True)
        queue_r, queue_w = os.pipe()
        results_r, results_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            pid = -1
        if pid == 0:
            try:
                os.close(queue_w)
                os.close(results_r)
                with open(queue_r, "rb", buffering=0) as queue:
                    _run_queue(tasks, queue, done)
                with open(results_w, "wb") as pipe:
                    marshal.dump(done, pipe)
            finally:
                os._exit(0)
        os.close(results_w)
        with (open(queue_r, "rb", buffering=0) as queue,
              open(queue_w, "wb", buffering=0) as writer,
              open(results_r, "rb") as pipe):
            if pid > 0:
                try:
                    # written after the fork, so no pipe holds it unread
                    writer.write(b"".join(i.to_bytes(4, "little") for i in order))
                    writer.close()  # the queue ends for both readers
                    _run_queue(tasks, queue, done)
                    try:
                        done.update(marshal.load(pipe))
                    except (EOFError, ValueError):  # the child's results are not whole
                        pass
                except BaseException:
                    os.kill(pid, signal.SIGKILL)
                    raise
                finally:
                    pipe.close()  # a child still writing gets EPIPE
                    try:
                        os.waitpid(pid, 0)
                    except ChildProcessError:  # reaped already: SIGCHLD ignored, say
                        pass
    return [done[i] if i in done else task() for i, task in enumerate(tasks)]


# ---------------------------------------------------------------------------
# adjacent-level matchings


class MatchingResult(NamedTuple):
    """Maximum matching between two adjacent levels, matched from k_from."""

    n: int
    universe: str
    k_from: int
    k_to: int
    size_from: int
    size_to: int
    matching_size: int
    pair_bits: tuple[tuple[int, int], ...]  # matched (from, to) edge bitmasks
    violator_bits: tuple[int, ...] | None  # a Hall violator in level k_from

    @property
    def complete(self) -> bool:
        return self.matching_size == self.size_from

    @property
    def pairs(self) -> tuple[tuple[EdgeSet, EdgeSet], ...]:
        n = self.n
        return tuple((EdgeSet(n, a), EdgeSet(n, b)) for a, b in self.pair_bits)

    @property
    def violator(self) -> tuple[EdgeSet, ...] | None:
        if self.violator_bits is None:
            return None
        return tuple(EdgeSet(self.n, b) for b in self.violator_bits)


def _universe_levels(n: int, universe: str, budget_override: bool) -> tuple[tuple[int, ...], ...]:
    check_scan_budget(n, budget_override)
    _check_family(universe)
    return _level_bits(n, universe)


def _level_rank(full: int, level: Sequence[int], compact: bool = False) -> Sequence[int]:
    """Dense rank over the 2^m masks (full is 2^m - 1): the index in level of
    each member, -1 for every other mask.  A list, whose int objects the rows
    share; compact gives an array("i") instead, 4 bytes a mask, for the
    bracket route, which reads few entries and builds few rows."""
    rank = array("i", [-1]) * (full + 1) if compact else [-1] * (full + 1)
    for i, b in enumerate(level):
        rank[b] = i
    return rank


def _one_edge_row(rank: Sequence[int], full: int, direction: str) -> Callable[[int], list[int]]:
    """row(b) lists, by ascending slot, the rank of each member one edge above
    (up) or below (down) b.  Setting a slot that b already holds (up), or
    clearing one it lacks (down), gives b itself, which lies off the ranked
    level, so no slot is tested.  Over a list rank each entry is the int
    object that rank holds, so a row allocates no int of its own."""
    singles = [1 << s for s in range(full.bit_length())]
    if direction == "up":
        return lambda b: [r for s in singles if (r := rank[b | s]) >= 0]
    holes = [full ^ s for s in singles]
    return lambda b: [r for h in holes if (r := rank[b & h]) >= 0]


def _level_pair_adjacency(
    full: int, from_bits: Sequence[int], to_bits: Sequence[int], direction: str
) -> list[list[int]]:
    """Row u lists, by ascending slot, the index in to_bits of each member one
    edge above (up) or below (down) from_bits[u]; full is 2^m - 1."""
    return list(map(_one_edge_row(_level_rank(full, to_bits), full, direction), from_bits))


@lru_cache(maxsize=None)
def _bracket_table() -> tuple[tuple[int, int, int, int], ...]:
    """For each 8-slot chunk, read with an edge as ")" (-1) and a non-edge as
    "(" (+1): the chunk's change of height, the least height after one of its
    slots, and the first and last slot count (1..8) at which it is reached."""
    table = []
    for chunk in range(256):
        h, low, first, last = 0, 9, 0, 0
        for j in range(1, 9):
            h += -1 if chunk >> j - 1 & 1 else 1
            if h < low:
                low, first, last = h, j, j
            elif h == low:
                last = j
        table.append((h, low, first, last))
    return tuple(table)


def _bracket_images(full: int, bits: Iterable[int], direction: str) -> Iterator[int]:
    """The symmetric-chain bracket map of each mask of bits (de Bruijn,
    Tengbergen & Kruyswijk 1951; Greene & Kleitman 1976).

    Read the slots in order, an edge as ")" and a non-edge as "(", and let h
    be the height (non-edges minus edges) after each prefix.  Up sets the
    leftmost unmatched "(", the slot at the last argmin of h if that argmin
    is below m; down clears the rightmost unmatched ")", the slot just
    before the first argmin of h if the minimum is below 0.  A mask with no
    such slot maps to itself.  The two maps are mutually inverse and each is
    injective on every level; up is defined on every level k < m/2, so on an
    up-set it is a complete matching from level k into level k + 1.  The
    chunks of _bracket_table are read only up to the top edge: the slots
    beyond it are "(", which only climb.
    """
    table = _bracket_table()
    if direction == "up":
        for b in bits:
            x, h, low, last, base = b, 0, 0, 0, 0
            while x:
                delta, chunk_low, _, chunk_last = table[x & 255]
                chunk_low += h
                if chunk_low <= low:
                    low, last = chunk_low, base + chunk_last
                h += delta
                x >>= 8
                base += 8
            yield b | 1 << last & full
    else:
        for b in bits:
            x, h, low, first, base = b, 0, 0, 0, 0
            while x:
                delta, chunk_low, chunk_first, _ = table[x & 255]
                chunk_low += h
                if chunk_low < low:
                    low, first = chunk_low, base + chunk_first
                h += delta
                x >>= 8
                base += 8
            yield b ^ 1 << first - 1 if low < 0 else b


def _pair_search(
    full: int, from_bits: Sequence[int], to_bits: Sequence[int], direction: str
) -> tuple[int, bytes, tuple[int, ...] | None]:
    """Hopcroft-Karp over every one-edge row of a level pair, as marshal-able
    data: the matching size, match_l as array("i").tobytes(), and the indices
    in from_bits of a Hall violator (None when the matching is complete).
    The violator is the alternating-reachability cut, asserted to have a
    smaller neighbourhood than itself."""
    adj = _level_pair_adjacency(full, from_bits, to_bits, direction)
    size, match_l, match_r = hopcroft_karp(len(from_bits), len(to_bits), adj.__getitem__)
    side = None
    if size < len(from_bits):
        seen_l, _ = _alternating_reachable(
            len(from_bits), len(to_bits), adj.__getitem__, match_l, match_r
        )
        side = tuple(itertools.compress(range(len(from_bits)), seen_l))
        neighborhood = set()
        for u in side:
            neighborhood.update(adj[u])
        if len(neighborhood) >= len(side):
            raise AssertionError("alternating cut failed to violate Hall's condition")
    return size, array("i", match_l).tobytes(), side


def _search_cost(levels: Sequence[Sequence[int]], k: int, k_to: int) -> int:
    """Estimated cost of searching level pair k -> k_to, to queue the
    searches longest first: timed at n = 7, a member's search costs about
    k/2 times as much down as up."""
    return len(levels[k]) * (k if k_to < k else 2)


def _matching_result(
    n: int, name: str, k: int, k_to: int, from_bits: Sequence[int], to_bits: Sequence[int],
    size: int, match: bytes, side: tuple[int, ...] | None,
) -> MatchingResult:
    """The MatchingResult of one _pair_search."""
    partners = array("i", match)
    return MatchingResult(
        n=n,
        universe=name,
        k_from=k,
        k_to=k_to,
        size_from=len(from_bits),
        size_to=len(to_bits),
        matching_size=size,
        # to_bits[-1] pairs each unmatched member, and compress drops it
        pair_bits=tuple(itertools.compress(
            zip(from_bits, map(to_bits.__getitem__, partners)), map((-1).__ne__, partners)
        )),
        violator_bits=None if side is None else tuple(map(from_bits.__getitem__, side)),
    )


def level_matchings(
    n: int, universe: str = "connected", k: int | None = None, budget_override: bool = False
) -> Iterator[MatchingResult]:
    """The adjacent-level matchings of every level, or of level k alone, by
    k, up before down: the table of `matchings`.  The searches run first,
    shared by _run_split between this process and a forked child; each
    MatchingResult is built just before it is yielded, so no process holds
    every pair's pair_bits."""
    levels = _universe_levels(n, universe, budget_override)
    m = slot_count(n)
    if k is not None and not 0 <= k <= m:
        raise ValueError(f"--k must lie in 0..{m} for n={n}, got {k}")
    pairs = [
        (k_from, k_to, direction)
        for k_from in ([k] if k is not None else range(m + 1))
        for k_to, direction in ((k_from + 1, "up"), (k_from - 1, "down"))
        if 0 <= k_to <= m and levels[k_from] and levels[k_to]
    ]
    tasks = [partial(_pair_search, (1 << m) - 1, levels[k_from], levels[k_to], d)
             for k_from, k_to, d in pairs]
    found = _run_split(tasks, [_search_cost(levels, k_from, k_to) for k_from, k_to, _ in pairs])
    found.reverse()  # popped in task order, so each result is freed once used
    for k_from, k_to, _ in pairs:
        yield _matching_result(
            n, universe, k_from, k_to, levels[k_from], levels[k_to], *found.pop()
        )


# ---------------------------------------------------------------------------
# chain partition through the largest level


class ChainPartition(NamedTuple):
    """Chains of one-edge steps partitioning a graph universe, glued through
    its largest level."""

    n: int
    chain_bits: Sequence[Sequence[int]]  # edge bitmasks, by increasing edge count

    @property
    def count(self) -> int:
        return len(self.chain_bits)

    @property
    def chains(self) -> tuple[tuple[EdgeSet, ...], ...]:
        n = self.n
        return tuple(tuple(EdgeSet(n, b) for b in chain) for chain in self.chain_bits)


def _largest_level(level_sizes: Mapping[int, int]) -> int:
    """The level k with the most elements; ties go to the smallest k."""
    if not level_sizes:
        raise ValueError("the universe is empty: it has no largest level")
    return max(level_sizes, key=lambda k: (level_sizes[k], -k))


def _level_sizes(levels: Sequence[Sequence[int]]) -> dict[int, int]:
    return {k: len(level) for k, level in enumerate(levels) if level}


def _complete_matching(
    match: Callable, levels: Sequence[Sequence[int]], k_from: int, k_to: int
) -> bytes:
    """Partner index in level k_to of every element of level k_from, as
    array("i").tobytes()."""
    direction = "up" if k_to > k_from else "down"
    from_bits, to_bits = levels[k_from], levels[k_to]
    if len(from_bits) > len(to_bits):
        raise ChainPartitionError(
            k_from, k_to,
            f"level {k_from} is larger than level {k_to}; cannot glue {direction}ward",
        )
    size, match_l = match(from_bits, to_bits, direction)
    if size < len(from_bits):
        raise ChainPartitionError(
            k_from, k_to, f"no complete matching from level {k_from} into level {k_to}"
        )
    return array("i", match_l).tobytes()


def _searched(rows: Callable) -> Callable:
    """match= for _glued_partners: Hopcroft-Karp over every row that
    rows(from_bits, to_bits, direction) gives, _level_pair_adjacency's
    one-edge steps or the quotient's covers."""

    def match(from_bits, to_bits, direction):
        adj = rows(from_bits, to_bits, direction)
        return hopcroft_karp(len(from_bits), len(to_bits), adj.__getitem__)[:2]

    return match


def _bracket_matching(full: int) -> Callable:
    """match= for _glued_partners on a family of edge bitmasks within full.

    Each element's bracket image (_bracket_images) is its proposed partner.
    Where every image lies in the target level, the proposals are the
    matching (the map is injective on a level, and
    check_matching_certificate re-verifies every pair): no row is built and
    nothing is searched.
    Otherwise Hopcroft-Karp starts from them and repairs the misses,
    building the one-edge row of each element it visits the first time it
    visits it, in a list indexed like from_bits.  On an up-set a miss is a
    down-step or an up-step at k >= m/2.
    """

    def match(from_bits, to_bits, direction):
        rank = _level_rank(full, to_bits, compact=True)
        seed = array("i", map(rank.__getitem__, _bracket_images(full, from_bits, direction)))
        if -1 not in seed:
            return len(seed), seed
        row = _one_edge_row(rank, full, direction)
        rows: list = [None] * len(from_bits)

        def neighbors(u):
            r = rows[u]
            if r is None:
                r = rows[u] = array("i", row(from_bits[u]))
            return r

        return hopcroft_karp(len(from_bits), len(to_bits), neighbors, seed)[:2]

    return match


def _glued_partners(
    match: Callable, levels: Sequence[Sequence[int]], split: bool = False
) -> tuple[int, dict[int, array]]:
    """Complete level matchings toward the largest level K.

    match(from_bits, to_bits, direction) gives a maximum matching of a level
    pair as (size, match_l), match_l[u] the index in to_bits of from_bits[u]'s
    partner (-1 for none): _searched over the caller's rows, or
    _bracket_matching.  Below K every level must match completely into the
    next one up; above K every level must match completely into the next one
    down.  Returns K and partner, partner[k][u] the index of levels[k][u]'s
    partner in level k + 1 (k < K) or k - 1 (k > K), for every level k
    between the lowest and highest nonempty ones but K.  If some pair lacks
    the required matching, ChainPartitionError names the first one; a gap
    between nonempty levels always yields such a pair (a nonempty level
    facing an empty one on its side of K).  With split, _run_split shares
    the pairs between this process and a forked child.
    """
    sizes = _level_sizes(levels)
    K = _largest_level(sizes)
    lo, hi = min(sizes), max(sizes)
    steps = [(k, k + 1) for k in range(lo, K)] + [(k, k - 1) for k in range(K + 1, hi + 1)]
    tasks = [partial(_complete_matching, match, levels, *step) for step in steps]
    if split:
        found: Iterable[bytes] = _run_split(tasks, [_search_cost(levels, *step) for step in steps])
    else:
        found = (task() for task in tasks)
    return K, {k: array("i", match) for (k, _), match in zip(steps, found)}


def _glued_chains(match: Callable, levels: Sequence[Sequence[int]]) -> list[list[int]]:
    """The chains of _glued_partners' matchings, split between two processes:
    each element of level K anchors one, listed by increasing level, and the
    chains partition the universe."""
    K, partner = _glued_partners(match, levels, split=True)
    chains = [[b] for b in levels[K]]
    lo, hi = min(partner, default=K), max(partner, default=K)
    for side in (range(K - 1, lo - 1, -1), range(K + 1, hi + 1)):
        # chain index of each element of the level glued last
        owner: Sequence[int] = range(len(chains))
        for k in side:
            owner = [owner[j] for j in partner[k]]
            for b, c in zip(levels[k], owner):
                chains[c].append(b)
        if side.step < 0:  # grown downward from K; restore increasing order
            for chain in chains:
                chain.reverse()
    return chains


def check_matching_certificate(
    levels: Sequence[Sequence[int]],
    K: int,
    partner: Mapping[int, Sequence[int]],
    covers: AbstractSet[tuple[int, int]] | None = None,
) -> None:
    """Re-verify that glued level matchings prove width = |levels[K]|, with
    no chain listed.

    K must be a largest level, and each levels[k] strictly ascending with
    only members of k edges.  Every nonempty level k but K needs a complete
    partner[k] as _glued_partners gives it, its indices in range and no two
    of them equal, and each member and its partner must be a cover of the
    order (a (lower, upper) pair of covers, or by default: the upper adds
    exactly one edge to the lower).  The matchings then glue into |levels[K]|
    chains partitioning the levels, so no antichain is larger than level K,
    itself an antichain.  Beyond the input the check holds one byte per
    member of a target level.  Raises AssertionError otherwise.
    """
    if not 0 <= K < len(levels) or len(levels[K]) != max(map(len, levels)):
        raise AssertionError(f"level {K} is not a largest level")
    for k, level in enumerate(levels):
        if any(map(operator.ge, level, itertools.islice(level, 1, None))):
            raise AssertionError(f"level {k} is not strictly ascending")
        if not {k}.issuperset(map(int.bit_count, level)):
            raise AssertionError(f"level {k} holds a member without {k} edges")
    for k, level in enumerate(levels):
        if k == K or not level:
            continue
        k_to = k + 1 if k < K else k - 1
        target, match = levels[k_to], partner.get(k)
        if match is None or len(match) != len(level):
            raise AssertionError(f"level {k} has no complete matching into level {k_to}")
        if min(match) < 0 or max(match) >= len(target):
            raise AssertionError(f"a partner of level {k} lies outside level {k_to}")
        hits = bytearray(len(target))
        for j in match:
            hits[j] = 1
        if hits.count(1) != len(match):
            raise AssertionError(f"two members of level {k} share a partner in level {k_to}")
        up = k < K
        if covers is not None:
            if not covers.issuperset(_matched_pairs(level, target, match, up)):
                lower, upper = next(pair for pair in _matched_pairs(level, target, match, up)
                                    if pair not in covers)
                raise AssertionError(f"chain step {lower:#x} -> {upper:#x} "
                                     "is not a cover of the order")
        elif not {1}.issuperset(
            map(int.bit_count, map(operator.xor, level, map(target.__getitem__, match)))
        ):
            lower, upper = next((a, b) for a, b in _matched_pairs(level, target, match, up)
                                if (a ^ b).bit_count() != 1)
            raise AssertionError(f"chain step {lower:#x} -> {upper:#x} "
                                 "does not add exactly one edge")


def _matched_pairs(
    level: Sequence[int], target: Sequence[int], match: Sequence[int], up: bool
) -> Iterator[tuple[int, int]]:
    """Each member of level and its partner in target, as (lower, upper)."""
    partners = map(target.__getitem__, match)
    return zip(level, partners) if up else zip(partners, level)


def check_chain_certificate(universe: Iterable[int], chains: Sequence[Sequence[int]]) -> None:
    """Re-verify that chains of bitmasks prove width = largest level.

    Every element of the universe must appear exactly once, each consecutive
    pair (lower, upper) of a chain must be a cover of the order (upper adds
    exactly one edge to lower), and there must be as many chains as the
    largest level (by bit count) has elements.  A partition into that many
    chains admits no larger antichain, and the largest level is itself an
    antichain.  A chain's members are checked before its steps.  Membership
    takes one byte per mask of the 2^m cube, m the bit length of the largest
    element.  Raises AssertionError otherwise.
    """
    left = bytearray()  # per mask: its copies in the universe that no chain holds yet
    for b in universe:
        if b >= len(left):
            left += bytes((1 << b.bit_length()) - len(left))
        left[b] += 1
    cube = len(left)
    largest = max(Counter(map(int.bit_count, itertools.compress(itertools.count(), left))).values(),
                  default=0)
    if len(chains) != largest:
        raise AssertionError(
            f"{len(chains)} chains, but the largest level has {largest} elements"
        )
    covered = 0
    for chain in chains:
        for b in chain:
            if not (0 <= b < cube and left[b]):
                raise AssertionError(
                    f"chain member {b:#x} is repeated or outside the universe"
                )
            left[b] -= 1
        covered += len(chain)
        steps = iter(chain)
        lower = next(steps, 0)
        for upper in steps:
            if upper & lower != lower or (upper ^ lower).bit_count() != 1:
                raise AssertionError(f"chain step {lower:#x} -> {upper:#x} "
                                     "does not add exactly one edge")
            lower = upper
    if left.count(0) != cube:
        missing = cube - len(left.lstrip(b"\0"))  # the first mask with a copy left
        raise AssertionError(
            f"chains cover {covered} of {covered + sum(left)} elements; {missing:#x} is missing"
        )


def chain_partition(
    n: int, universe: str = "connected", budget_override: bool = False
) -> ChainPartition:
    """Chains through the largest level of a universe (see _glued_chains).

    For the connected universe at n <= 7 the largest level is the middle
    level ceil(m/2).  The chains are re-verified by check_chain_certificate;
    if some level pair blocks the gluing, ChainPartitionError names it.

    On Linux, with two usable CPUs and no other thread in the process, the
    level-pair searches are shared with one forked child (see _run_split),
    which is reaped before this returns; the result is the same.
    """
    levels = _universe_levels(n, universe, budget_override)
    full = (1 << slot_count(n)) - 1
    rows = lambda *pair: _level_pair_adjacency(full, *pair)
    chains = _glued_chains(_searched(rows), levels)
    check_chain_certificate(itertools.chain.from_iterable(levels), chains)
    return ChainPartition(n, chains)


# ---------------------------------------------------------------------------
# the largest-antichain verdict


class SpernerReport(NamedTuple):
    """A width verdict: the level data of a graded graph poset, whose width
    is the size of its largest level K, proved by the glued level matchings;
    level K is a largest antichain."""

    n: int
    universe: str
    element_count: int
    level_sizes: dict[int, int]
    max_level_k: int
    width: int


def _family_width(
    n: int, universe: str, levels: Sequence[Sequence[int]], full: int
) -> SpernerReport:
    """Exact width of a family of edge bitmasks graded by edge count.

    levels[k] holds the members with k edges, all within the edge set full.
    The level matchings, glued through the largest level K by the bracket
    route, are re-verified pair by pair by check_matching_certificate, so the
    width is |levels[K]| and levels[K] is a largest antichain.  A level pair
    that cannot be glued (an incomplete matching, or a gap between nonempty
    levels) raises ChainPartitionError.
    """
    K, partner = _glued_partners(_bracket_matching(full), levels)
    check_matching_certificate(levels, K, partner)
    sizes = _level_sizes(levels)
    return SpernerReport(n, universe, sum(sizes.values()), sizes, K, sizes[K])


def sperner_verdict(
    n: int, universe: str = "connected", budget_override: bool = False
) -> SpernerReport:
    """Exact width of the whole universe, by _family_width; a level pair
    that cannot be glued raises ChainPartitionError."""
    levels = _universe_levels(n, universe, budget_override)
    return _family_width(n, universe, levels, (1 << slot_count(n)) - 1)
