"""Output checks for the benchmark jobs, independent of connposet.

Nothing here imports connposet: graphs are decoded from their `n:HEX` text
form and tested with this file's own connectivity code, so a defect in the
package's matcher, scanner or serialiser cannot hide itself.  Every check
returns a list of problems; an empty list means the job's output is correct.

The facts pinned here are the exact values at n = 6:

* connected graphs: 26,704 elements, width = largest level = 6165 (k = 8);
* 2-edge-connected graphs: 11,968 elements, width = largest level = 3595 (k = 9);
* a chain partition of the connected poset has exactly 6165 chains;
* the adjacent-level matching table has 41,078 matched pairs;
* at q <= 5 the chorded-cycle sweep has no bound violation and exactly ten
  block-test mismatches, the labeled copies of K_{2,3}, which is documented
  expected output rather than a failure;
* the isomorphism quotient has 112 classes and width 22; the spanning-
  subgraph explorer writes 142 reports, all Sperner; the Hamiltonian poset
  has 10,078 elements, is graded and has width 3070.
"""

from __future__ import annotations

import json
from functools import cache
from itertools import combinations

N = 6
M = N * (N - 1) // 2

CONNECTED_LEVELS = (0, 0, 0, 0, 0, 1296, 3660, 5700, 6165, 4945, 2997,
                    1365, 455, 105, 15, 1)
TWO_EDGE_CONNECTED_LEVELS = (0, 0, 0, 0, 0, 0, 60, 900, 2805, 3595, 2697,
                             1335, 455, 105, 15, 1)
MATCHED_PAIRS = 41_078
CHORDED_FREE_PER_Q = {1: 1, 2: 3, 3: 20, 4: 232, 5: 4003}
BINOM_6_5_3 = 6.5 * 5.5 * 4.5 / 6


# ---------------------------------------------------------------------------
# graphs, decoded and tested without connposet


def _pairs(n: int) -> list[tuple[int, int]]:
    # colexicographic slots: slot(i, j) = (j-1)(j-2)/2 + (i-1), 1 <= i < j <= n
    return [(i, j) for j in range(2, n + 1) for i in range(1, j)]


PAIRS = _pairs(N)


def parse_graph(text) -> int:
    """Edge bitmask of an `n:HEX` graph on N vertices; ValueError otherwise."""
    if not isinstance(text, str):
        raise ValueError(f"graph is not a string: {text!r}")
    n_str, _, hex_str = text.partition(":")
    if n_str != str(N) or not hex_str:
        raise ValueError(f"not a graph on {N} vertices: {text!r}")
    bits = int(hex_str, 16)
    if not 0 <= bits < 1 << M:
        raise ValueError(f"edge bits out of range: {text!r}")
    return bits


def is_connected(bits: int) -> bool:
    adj = [set() for _ in range(N + 1)]
    for s, (i, j) in enumerate(PAIRS):
        if bits >> s & 1:
            adj[i].add(j)
            adj[j].add(i)
    seen = {1}
    todo = [1]
    while todo:
        for w in adj[todo.pop()] - seen:
            seen.add(w)
            todo.append(w)
    return len(seen) == N


def is_two_edge_connected(bits: int) -> bool:
    """Connected, and still connected after deleting any single edge."""
    return is_connected(bits) and all(
        is_connected(bits & ~(1 << s)) for s in range(M) if bits >> s & 1
    )


@cache
def connected_masks() -> frozenset[int]:
    return frozenset(b for b in range(1 << M) if is_connected(b))


def one_edge_step(lower: int, upper: int) -> bool:
    return lower & upper == lower and (upper ^ lower).bit_count() == 1


def level_sizes(masks) -> tuple[int, ...]:
    counts = [0] * (M + 1)
    for b in masks:
        counts[b.bit_count()] += 1
    return tuple(counts)


def antichain_problems(masks: list[int]) -> list[str]:
    """Pairwise incomparability by plain subset tests (one level: distinct suffices)."""
    if len(set(masks)) != len(masks):
        return ["antichain repeats an element"]
    if len({b.bit_count() for b in masks}) <= 1:
        return []
    for a, b in combinations(masks, 2):
        if a & b in (a, b):
            return [f"antichain elements {a:x} and {b:x} are comparable"]
    return []


# ---------------------------------------------------------------------------
# per-job checks: (stdout text) -> problems


def _doc(stdout: str) -> dict:
    doc = json.loads(stdout)
    if not isinstance(doc, dict):
        raise ValueError("output is not a JSON object")
    return doc


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def _check_sperner(stdout: str, levels: tuple[int, ...], member, family: str) -> list[str]:
    doc = _doc(stdout)
    p: list[str] = []
    top = max(levels)
    _expect(p, "universe", doc.get("universe"), family)
    _expect(p, "element_count", doc.get("element_count"), sum(levels))
    _expect(p, "level_sizes", doc.get("level_sizes"),
            {str(k): c for k, c in enumerate(levels) if c})
    _expect(p, "max_level_k", doc.get("max_level_k"), levels.index(top))
    _expect(p, "max_level_size", doc.get("max_level_size"), top)
    _expect(p, "width", doc.get("width"), top)
    _expect(p, "sperner", doc.get("sperner"), True)
    antichain = [parse_graph(g) for g in doc.get("antichain", [])]
    _expect(p, "antichain size", len(antichain), top)
    if not all(member(b) for b in antichain):
        p.append(f"antichain holds a graph outside the {family} universe")
    return p + antichain_problems(antichain)


def check_sperner_connected(stdout: str) -> list[str]:
    return _check_sperner(stdout, CONNECTED_LEVELS, connected_masks().__contains__,
                          "connected")


def check_sperner_two_edge_connected(stdout: str) -> list[str]:
    return _check_sperner(stdout, TWO_EDGE_CONNECTED_LEVELS, is_two_edge_connected,
                          "two_edge_connected")


def check_chains(stdout: str) -> list[str]:
    """6165 chains of one-edge steps that cover every connected graph once."""
    doc = _doc(stdout)
    p: list[str] = []
    chains = [[parse_graph(g) for g in chain] for chain in doc.get("chains", [])]
    width = max(CONNECTED_LEVELS)
    _expect(p, "count", doc.get("count"), width)
    _expect(p, "chain count", len(chains), width)
    seen = [b for chain in chains for b in chain]
    if len(set(seen)) != len(seen):
        p.append("a graph appears in more than one chain position")
    if set(seen) != connected_masks():
        p.append("chains do not cover exactly the connected graphs")
    for chain in chains:
        if not chain or not all(one_edge_step(a, b) for a, b in zip(chain, chain[1:])):
            p.append(f"chain is empty or takes a step that is not one edge: {chain[:3]}")
            break
    return p


def check_matchings_ndjson(stdout: str) -> list[str]:
    """41,078 one-edge pairs, each block a matching between adjacent levels."""
    p: list[str] = []
    lines = stdout.splitlines()
    _expect(p, "pair count", len(lines), MATCHED_PAIRS)
    connected = connected_masks()
    used: dict[tuple[int, int], tuple[set[int], set[int]]] = {}
    for line in lines:
        rec = json.loads(line)
        a, b = parse_graph(rec["from"]), parse_graph(rec["to"])
        ka, kb = rec["k_from"], rec["k_to"]
        if (rec["n"], a.bit_count(), b.bit_count()) != (N, ka, kb):
            p.append(f"pair levels disagree with its graphs: {line}")
            break
        if not (one_edge_step(a, b) or one_edge_step(b, a)):
            p.append(f"pair is not a one-edge step: {line}")
            break
        if a not in connected or b not in connected:
            p.append(f"pair leaves the connected universe: {line}")
            break
        froms, tos = used.setdefault((ka, kb), (set(), set()))
        if a in froms or b in tos:
            p.append(f"graph matched twice in block {ka}->{kb}: {line}")
            break
        froms.add(a)
        tos.add(b)
    return p


def _check_lemma_clean(stdout: str, lemma: str, checked: int) -> list[str]:
    p: list[str] = []
    _expect(p, "output", _doc(stdout),
            {"lemma": lemma, "n": N, "checked": checked, "findings": []})
    return p


def check_removable(stdout: str) -> list[str]:
    return _check_lemma_clean(stdout, "removable", sum(TWO_EDGE_CONNECTED_LEVELS))


def check_skeleton(stdout: str) -> list[str]:
    return _check_lemma_clean(stdout, "skeleton", sum(CONNECTED_LEVELS))


def check_irk(stdout: str) -> list[str]:
    """The (k, r) table counts every 2-edge-connected graph once, by level."""
    doc = _doc(stdout)
    p: list[str] = []
    _expect(p, "lemma", doc.get("lemma"), "irk")
    per_level = [0] * (M + 1)
    for key, count in doc.get("table", {}).items():
        k, r = (int(x) for x in key.split(","))
        if r == 1 or not 0 <= k <= M:
            p.append(f"impossible table cell {key}")
        else:
            per_level[k] += count
    _expect(p, "table by level", tuple(per_level), TWO_EDGE_CONNECTED_LEVELS)
    return p


def check_census_two_edge_connected(stdout: str) -> list[str]:
    p: list[str] = []
    _expect(p, "census", _doc(stdout),
            {"n": N, "family": "two_edge_connected",
             "counts": list(TWO_EDGE_CONNECTED_LEVELS),
             "total": sum(TWO_EDGE_CONNECTED_LEVELS)})
    return p


def _is_labeled_k23(text: str) -> bool:
    mg = json.loads(text)
    edges = mg["edges"]
    if mg["q"] != 5 or len(edges) != 6 or any(c != 1 for _, _, c in edges):
        return False
    pairs = {(u, v) for u, v, _ in edges}
    for small in combinations(range(1, 6), 2):
        big = [v for v in range(1, 6) if v not in small]
        if pairs == {tuple(sorted((a, b))) for a in small for b in big}:
            return True
    return False


def check_chorded(stdout: str) -> list[str]:
    """No bound violation; the ten K_{2,3} mismatches are expected output."""
    doc = _doc(stdout)
    p: list[str] = []
    _expect(p, "bound_violations", doc.get("bound_violations"), [])
    mismatches = doc.get("mismatches", [])
    _expect(p, "mismatch count", len(mismatches), 10)
    if len(set(mismatches)) != len(mismatches) or not all(
        _is_labeled_k23(t) for t in mismatches
    ):
        p.append("mismatches are not the ten labeled copies of K_{2,3}")
    per_q = doc.get("per_q", {})
    for q, free in CHORDED_FREE_PER_Q.items():
        stats = per_q.get(str(q), {})
        _expect(p, f"q={q} multigraphs", stats.get("multigraphs"), 4 ** (q * (q - 1) // 2))
        _expect(p, f"q={q} chorded_cycle_free", stats.get("chorded_cycle_free"), free)
        _expect(p, f"q={q} doubled_star_tight", stats.get("doubled_star_tight"), True)
    return p


def _check_explorer(doc: dict, elements: int, width: int) -> list[str]:
    p: list[str] = []
    _expect(p, "element_count", doc.get("element_count"), elements)
    _expect(p, "level_sizes total", sum(doc.get("level_sizes", {}).values()), elements)
    _expect(p, "width", doc.get("width"), width)
    _expect(p, "max_level_size", doc.get("max_level_size"), width)
    _expect(p, "sperner", doc.get("sperner"), True)
    return p


def check_quotient(stdout: str) -> list[str]:
    return _check_explorer(_doc(stdout), 112, 22)


def check_cprime(stdout: str) -> list[str]:
    doc = _doc(stdout)
    p: list[str] = []
    reports = doc.get("reports", [])
    _expect(p, "report count", len(reports), 142)
    _expect(p, "non_sperner", doc.get("non_sperner"), [])
    if not all(r.get("sperner") is True and r.get("width") == r.get("max_level_size")
               for r in reports):
        p.append("a report is not Sperner")
    return p


def check_hamiltonian(stdout: str) -> list[str]:
    doc = _doc(stdout)
    p = _check_explorer(doc, 10_078, 3070)
    _expect(p, "graded", doc.get("graded"), True)
    return p


def check_binom(stdout: str) -> list[str]:
    value = _doc(stdout).get("value")
    if not isinstance(value, (int, float)) or abs(value - BINOM_6_5_3) > 1e-9:
        return [f"binom(6.5, 3): got {value!r}, expected {BINOM_6_5_3!r}"]
    return []


def check_job(check, returncode: int, stdout: str) -> list[str]:
    """Problems with one finished job: a non-zero exit or a failed output check."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        return check(stdout)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
