"""Log-space bound arithmetic and the counting inequalities it feeds.

Quantities compared here (counts of graph families versus binomial-type
expressions) overflow fixed-width integers quickly, so every magnitude is
carried as a base-2 logarithm, with an exact integer form kept alongside
whenever the value is an integer below 2^63.  A comparison is exact when
both sides are exact and a log-space comparison at relative tolerance 1e-9
otherwise.

The binomial coefficient is extended to real upper arguments by

    binom(x, k) = x(x-1)...(x-k+1) / k!   for x >= k,   0 for x < k

with binom(x, 0) = 1; this is the orientation every use in this package
requires (the ratio and shift identities below are stated for it).
"""

from __future__ import annotations

import math
from functools import lru_cache
from math import comb, log2
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from .limits import check_scan_budget

# The plane sweeps import graphs and connectivity where they run, so the
# log-space arithmetic (binom, squares, technical, appendix) loads neither.
if TYPE_CHECKING:
    from .graphs import EdgeSet

LOG2_TOL = 1e-9
EXACT_LIMIT = 1 << 63
# the epsilon of the unbalanced-split row of shadow_ratio_report
DIFF_EPSILON = 1 / 40


class LogValue(NamedTuple):
    """A nonnegative magnitude as log2 (-inf encodes zero) plus optional exact form."""

    log2: float
    exact: int | None = None

    @classmethod
    def from_int(cls, v: int) -> "LogValue":
        if v < 0:
            raise ValueError(f"LogValue requires a nonnegative quantity, got {v}")
        if v == 0:
            return cls(float("-inf"), 0)
        return cls(math.log2(v), v if v < EXACT_LIMIT else None)

    @classmethod
    def from_real(cls, v: float) -> "LogValue":
        if v < 0:
            raise ValueError(f"LogValue requires a nonnegative quantity, got {v}")
        if v == 0:
            return cls(float("-inf"), 0)
        if isinstance(v, int) or float(v).is_integer():
            return cls.from_int(int(v))
        return cls(math.log2(v))

    def value(self) -> float:
        """The magnitude as a float; inf where it exceeds the float range."""
        if self.exact is not None:
            return float(self.exact)
        try:
            return 2.0 ** self.log2
        except OverflowError:
            return math.inf


def _leq(lhs: LogValue, rhs: LogValue, strict: bool = False) -> bool:
    if lhs.exact is not None and rhs.exact is not None:
        return lhs.exact < rhs.exact if strict else lhs.exact <= rhs.exact
    if lhs.log2 == float("-inf"):
        return not strict or rhs.log2 > float("-inf")
    tol = LOG2_TOL * max(1.0, abs(lhs.log2), abs(rhs.log2))
    if strict:
        return rhs.log2 - lhs.log2 > tol
    return rhs.log2 - lhs.log2 >= -tol


@lru_cache(maxsize=4096)
def _log2_factorial(k: int) -> float:
    return math.log2(math.factorial(k)) if k > 1 else 0.0


def ext_binom(x: float, k: int) -> LogValue:
    """binom(x, k) for real x >= 0 and integer k >= 0 (zero when x < k)."""
    if k < 0:
        raise ValueError(f"k must be a nonnegative integer, got {k}")
    if not 0 <= x < math.inf:
        raise ValueError(f"x must be finite and nonnegative, got {x}")
    if k == 0:
        return LogValue(0.0, 1)
    if x < k:
        return LogValue(float("-inf"), 0)
    if float(x).is_integer():
        return LogValue.from_int(comb(int(round(x)), k))
    # a plain left-to-right loop, not sum(): from Python 3.12 on, sum() of
    # floats is compensated, which changes the last digits between versions
    log2v = 0.0
    for i in range(k):
        log2v += log2(x - i)
    return LogValue(log2v - _log2_factorial(k))


def binom_inverse(target, k: int) -> float:
    """The unique x >= k with binom(x, k) equal to target, by bisection.

    target may be a number or a LogValue; it must be at least binom(k,k) = 1.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if isinstance(target, LogValue):
        tlog = target.log2
    else:
        if not 0 < target < math.inf:
            raise ValueError(f"target must be finite and positive, got {target}")
        tlog = math.log2(target)
    if tlog < 0:
        raise ValueError("target is below binom(k, k) = 1; no x >= k exists")
    if tlog == 0:
        return float(k)
    lo, hi = float(k), float(2 * k + 2)
    while ext_binom(hi, k).log2 < tlog:
        lo, hi = hi, hi * 2
        if hi == math.inf:
            raise ValueError(f"x with binom(x, {k}) = {target} is too large to bracket in floats")
    for _ in range(200):
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
        mid = 0.5 * (lo + hi)
        if ext_binom(mid, k).log2 < tlog:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def appendix_property_check(
    property_id: int, x: float, k: int, delta: float | None = None
) -> bool:
    """Evaluate one of the four extended-binomial identities as stated.

    1. binom(x,k-1)/binom(x,k) = k/(x-k+1)            for x >= k, k >= 1
    2. binom(x+d,k) > 2^d binom(x,k)                  for d > 0, k <= x <= 2k-d
    3. binom(x+1,k) < x binom(x,k) and
       binom(x,k) < x binom(x,k+1)                    for x >= k
    4. binom(x,k) <= binom(x+1,k) and
       binom(x,k) <= binom(x+1,k+1)                   for x >= k

    Equalities are compared at 1e-9 relative tolerance in log space; strict
    inequalities are compared strictly.  Items 2 and 3 are genuinely false
    in slivers of their stated domains (item 2 at its upper boundary, item 3
    for x within about 1 of k); this evaluator reports what actually holds.
    """
    if property_id == 1:
        if not (k >= 1 and x >= k):
            raise ValueError("item 1 requires x >= k >= 1")
        lhs = ext_binom(x, k - 1).log2 - ext_binom(x, k).log2
        rhs = math.log2(k / (x - k + 1))
        return abs(lhs - rhs) <= LOG2_TOL * max(1.0, abs(lhs), abs(rhs))
    if property_id == 2:
        if delta is None or delta <= 0:
            raise ValueError("item 2 requires delta > 0")
        if not (k <= x <= 2 * k - delta):
            raise ValueError("item 2 requires k <= x <= 2k - delta")
        lhs = ext_binom(x, k)
        rhs = ext_binom(x + delta, k)
        if (
            lhs.exact is not None
            and rhs.exact is not None
            and float(delta).is_integer()
        ):
            return (1 << int(delta)) * lhs.exact < rhs.exact
        scaled = delta + lhs.log2
        return rhs.log2 - scaled > LOG2_TOL * max(1.0, abs(scaled), abs(rhs.log2))
    if property_id == 3:
        if not x >= k:
            raise ValueError("item 3 requires x >= k")
        first = _leq(ext_binom(x + 1, k), _scale(x, ext_binom(x, k)), strict=True)
        second = _leq(ext_binom(x, k), _scale(x, ext_binom(x, k + 1)), strict=True)
        return first and second
    if property_id == 4:
        if not x >= k:
            raise ValueError("item 4 requires x >= k")
        return _leq(ext_binom(x, k), ext_binom(x + 1, k)) and _leq(
            ext_binom(x, k), ext_binom(x + 1, k + 1)
        )
    raise ValueError(f"property_id must be 1..4, got {property_id}")


def _scale(factor: float, v: LogValue) -> LogValue:
    if v.exact == 0:
        return v
    if v.exact is not None and float(factor).is_integer():
        return LogValue.from_int(int(factor) * v.exact)
    return LogValue(math.log2(factor) + v.log2)


def appendix_grid(property_id: int) -> list[tuple[float, int, float | None]]:
    """Deterministic (x, k, delta) evaluation grids of 1,000 points for the
    binomial identities.

    Items 1 and 4 are sampled across their whole domains including the
    x = k boundary.  Item 2 is sampled at least one unit below its upper
    boundary x = 2k - delta, where the strict inequality degenerates to
    equality (and dips below for fractional delta); item 3 is sampled at
    x >= k + 2, above the sliver x < k + 2 where both of its products cross.
    The excluded boundary behaviour is pinned separately in the test suite.
    """
    if property_id == 2:
        grid: list[tuple[float, int, float | None]] = []
        deltas = (0.5, 1.0, 2.0)
        i = 0
        while len(grid) < 1000:
            k = i % 59 + 2
            delta = deltas[i % 3]
            hi = 2 * k - delta - 1.0
            if hi >= k:
                x = k + (i * 7919 % 1009) / 1009.0 * (hi - k)
                grid.append((x, k, delta))
            i += 1
        return grid
    if property_id not in (1, 3, 4):
        raise ValueError(f"property_id must be 1..4, got {property_id}")
    shift = 2 if property_id == 3 else 0
    return [(k + shift + (i * 9973 % 100_000) / 10.0, k, None)
            for i in range(1000) for k in [i % 50 + 1]]


# ---------------------------------------------------------------------------
# composition inequalities


class SquaresResult(NamedTuple):
    """Truth of the four composition inequalities for a_1 + ... + a_s = n."""

    binom_sum_ok: bool
    pair_product_ok: bool
    cap_applicable: bool | None = None
    capped_binom_sum_ok: bool | None = None
    capped_pair_product_ok: bool | None = None


def squares_check(parts: Sequence[int], k: int | None = None) -> SquaresResult:
    """Check, for positive integers summing to n = sum(parts), s = len(parts):

        sum binom(a_i, 2) <= binom(n-s+1, 2)
        sum_{i<j} a_i a_j >= (n-s+1)(s-1) + binom(s-1, 2)

    and, when a cap k with all a_i <= k and n/2 < k <= n-s+1 is supplied:

        sum binom(a_i, 2) <= binom(n-k-s+2, 2) + binom(k, 2)
        sum_{i<j} a_i a_j >= k(n-k)

    The capped pair is only evaluated when its precondition holds exactly.
    """
    if not parts or any(a < 1 or a != int(a) for a in parts):
        raise ValueError("parts must be positive integers")
    parts = [int(a) for a in parts]
    n = sum(parts)
    s = len(parts)
    binom_sum = sum(a * (a - 1) // 2 for a in parts)
    pair_products = (n * n - sum(a * a for a in parts)) // 2

    first = binom_sum <= comb(n - s + 1, 2)
    second = pair_products >= (n - s + 1) * (s - 1) + comb(s - 1, 2)

    if k is None:
        return SquaresResult(first, second)
    applicable = max(parts) <= k and 2 * k > n and k <= n - s + 1
    if not applicable:
        return SquaresResult(first, second, cap_applicable=False)
    third = binom_sum <= comb(n - k - s + 2, 2) + comb(k, 2)
    fourth = pair_products >= k * (n - k)
    return SquaresResult(first, second, True, third, fourth)


def _partitions(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def squares_sweep(n_max: int = 20) -> tuple[int, list[dict]]:
    """Exhaust the composition inequalities over all partitions of n <= n_max.

    Both sides are invariant under reordering, so partitions suffice.  Every
    violation is returned with its witness; the expected result is none.
    """
    checked = 0
    violations = []
    for n in range(1, n_max + 1):
        for parts in _partitions(n):
            s = len(parts)
            base = squares_check(parts)
            checked += 1
            if not base.binom_sum_ok:
                violations.append({"parts": parts, "inequality": "binom_sum"})
            if not base.pair_product_ok:
                violations.append({"parts": parts, "inequality": "pair_products"})
            for k in range(n // 2 + 1, n - s + 2):
                res = squares_check(parts, k)
                if not res.cap_applicable:
                    continue
                checked += 1
                if not res.capped_binom_sum_ok:
                    violations.append(
                        {"parts": parts, "k": k, "inequality": "capped_binom_sum"}
                    )
                if not res.capped_pair_product_ok:
                    violations.append(
                        {"parts": parts, "k": k, "inequality": "capped_pair_products"}
                    )
    return checked, violations


# ---------------------------------------------------------------------------
# bound reports


class BoundReport(NamedTuple):
    """Comparison of two magnitudes; the stated claim is always lhs <= rhs."""

    name: str
    params: dict
    lhs: LogValue
    rhs: LogValue
    note: str = ""

    @property
    def holds(self) -> bool:
        return _leq(self.lhs, self.rhs)

    @property
    def margin_log2(self) -> float:
        return self.rhs.log2 - self.lhs.log2

    def as_row(self) -> dict:
        row = {"name": self.name}
        row.update(self.params)
        row.update(
            {
                "lhs_log2": self.lhs.log2,
                "rhs_log2": self.rhs.log2,
                "holds": self.holds,
                "margin_log2": self.margin_log2,
            }
        )
        if self.note:
            row["note"] = self.note
        return row


def lovasz_check(X: Iterable[EdgeSet]) -> BoundReport:
    """Lower-shadow bound for a uniform-level family in the full universe.

    With |X| = binom(x, k), the shadow satisfies |shadow(X)| >= binom(x, k-1),
    equivalently |shadow(X)|/|X| >= k/(x-k+1).  This holds for every family,
    with equality for full levels.  The shadow is counted on the universe
    planes, so n above the override limit is refused.
    """
    from .graphs import _members_plane, _planes, _shadow_plane, slot_count
    members = list(X)
    if not members:
        raise ValueError("empty family")
    n, k = members[0].n, members[0].edge_count
    for g in members:
        if g.n != n:
            raise ValueError("mixed vertex counts in family")
        if g.edge_count != k:
            raise ValueError("mixed-level family: members must share one edge count")
    if k < 1:
        raise ValueError(f"level must be at least 1, got {k}")
    check_scan_budget(n, override=True)
    plane = _members_plane((g.bits for g in members), 1 << slot_count(n))
    return _lovasz_report(n, k, len(members), _shadow_plane(_planes(n).slots, plane).bit_count())


def _lovasz_report(n: int, k: int, size: int, shadow_size: int) -> BoundReport:
    """The bound for a family of `size` graphs with k edges whose shadow has
    `shadow_size` graphs."""
    x = binom_inverse(size, k)
    return BoundReport(
        name="lovasz",
        params={
            "n": n,
            "k": k,
            "family_size": size,
            "x": x,
            "shadow_size": shadow_size,
            "ratio_bound": k / (x - k + 1),
        },
        lhs=ext_binom(x, k - 1),
        rhs=LogValue.from_int(shadow_size),
    )


def lovasz_sweep(n: int, seed: int, trials: int,
                 budget_override: bool = False) -> tuple[list[dict], list[dict]]:
    """The Lovasz bound on each full level 1..m of the n-vertex universe and
    on `trials` seeded random subfamilies of it, each family a plane whose
    shadow plane is counted.

    Returns the rows (per level, the full level and then its sampled family
    of smallest margin) and the row of every family the bound fails on.
    """
    import random
    from .graphs import _level_bits, _members_plane, _planes, _shadow_plane, slot_count
    rng = random.Random(seed)
    m = slot_count(n)
    check_scan_budget(n, budget_override)
    planes = _planes(n)
    rows: list[dict] = []
    violations: list[dict] = []
    for k in range(1, m + 1):
        level = _level_bits(n, "all")[k]
        full_shadow = _shadow_plane(planes.slots, planes.levels[k]).bit_count()
        full_report = _lovasz_report(n, k, len(level), full_shadow)
        rows.append(full_report.as_row())
        if not full_report.holds:
            violations.append(full_report.as_row())
        worst = None
        for _ in range(trials):
            size = rng.randint(1, len(level))
            family = _members_plane(rng.sample(level, size), 1 << m)
            report = _lovasz_report(n, k, size, _shadow_plane(planes.slots, family).bit_count())
            if not report.holds:
                violations.append(report.as_row())
            if worst is None or report.margin_log2 < worst["margin_log2"]:
                worst = report.as_row()
        worst["note"] = "smallest margin among sampled families"
        rows.append(worst)
    return rows, violations


def disconnected_report(n: int, budget_override: bool = False) -> list[BoundReport]:
    """Exact disconnected-graph counts against their counting bounds.

    The first row compares the disconnected total D_n with 2^binom(n-1,2);
    its (typically negative) margin is the subexponential slack and is
    reported, not asserted.  The split rows bound the graphs having an
    isolated vertex by n 2^binom(n-1,2) and the rest by 2^n 2^(binom(n-2,2)+1);
    both are exact counting facts and are expected to hold at every n.
    """
    from .graphs import _planes, _slot_pairs
    check_scan_budget(n, budget_override)
    planes = _planes(n)
    disconnected = planes.ones.bit_count() - planes.connected.bit_count()
    # vertex v is isolated in the graphs holding none of its slots
    touching = [0] * (n + 1)
    for (i, j), plane in zip(_slot_pairs(n), planes.slots):
        touching[i] |= plane
        touching[j] |= plane
    isolated = 0
    for plane in touching[1:]:
        isolated |= planes.ones & ~plane
    with_isolated = (isolated & ~planes.connected).bit_count()
    bulk = disconnected - with_isolated

    base = comb(n - 1, 2)
    slack = (math.log2(disconnected) if disconnected else float("-inf")) - base
    rows = [
        BoundReport(
            name="disc_total",
            params={"n": n, "disconnected": disconnected, "slack_log2": slack},
            lhs=LogValue.from_int(disconnected),
            rhs=LogValue.from_int(1 << base),
            note="margin is the subexponential slack; reported, not asserted",
        ),
        BoundReport(
            name="disc_isolated_split",
            params={"n": n, "count": with_isolated},
            lhs=LogValue.from_int(with_isolated),
            rhs=LogValue.from_int(n << base),
        ),
    ]
    if n >= 2:
        rows.append(
            BoundReport(
                name="disc_bulk_split",
                params={"n": n, "count": bulk},
                lhs=LogValue.from_int(bulk),
                rhs=LogValue.from_int(1 << (n + comb(n - 2, 2) + 1)),
            )
        )
    return rows


class IRCensus(NamedTuple):
    """Counts of 2-edge-connected graphs by (edge count, removable-set size)."""

    n: int
    epsilon: float
    table: dict[tuple[int, int], int]
    reports: list[BoundReport]

    def total(self) -> int:
        return sum(self.table.values())


def _check_epsilon(epsilon: float) -> None:
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")


def i_r_census(n: int, epsilon: float = 1.0, budget_override: bool = False) -> IRCensus:
    """Exhaustive (k, r) census of 2-edge-connected graphs with bound rows.

    The table is counted on the universe planes, for every graph at once and
    without listing one: slot s is removable from x where x holds s, x is in
    the 2-edge-connected plane T and x - s is not (E_s & T & ~(T << 2^s)), a
    bit-sliced counter over those planes gives r = |R(x)|, and cell (k, r)
    is the popcount of T on level k with count r.

    For every nonempty cell with 2 <= r <= n and M <= k <= M + n the count is
    compared against binom(binom(n - r/2, 2) + epsilon*r*n, k).  The bound is
    asymptotic, so rows are reports.  The full table always carries every
    count; cells whose count is zero, or whose right-hand side degenerates to
    the zero binomial at desk scale (upper argument below k), produce no
    comparison row so that every emitted row has finite log-space values.
    """
    from .graphs import _leaving_planes, _planes, _sliced_count, _sliced_equal, slot_count
    _check_epsilon(epsilon)
    check_scan_budget(n, budget_override)
    m = slot_count(n)
    if _threshold(n, n, epsilon) == math.inf:  # the largest threshold, at r = n
        raise ValueError(f"--epsilon {epsilon} is too large: epsilon*r*n overflows at r = n = {n}")
    M = (m + 1) // 2
    planes = _planes(n)
    two = planes.two_edge_connected
    digits = _sliced_count(_leaving_planes(planes.slots, two))
    by_r = [_sliced_equal(digits, r, two) for r in range(1 << len(digits))]
    table = {}
    for k, level in enumerate(planes.levels):
        for r, plane in enumerate(by_r):
            count = (plane & level).bit_count()
            if count:
                table[k, r] = count
    reports = []
    for (k, r), count in table.items():
        if not (2 <= r <= n and M <= k <= M + n):
            continue
        rhs = ext_binom(_threshold(n, r, epsilon), k)
        if rhs.exact == 0:
            continue
        reports.append(
            BoundReport(
                name="irk",
                params={"n": n, "k": k, "r": r, "epsilon": epsilon, "count": count},
                lhs=LogValue.from_int(count),
                rhs=rhs,
                note="asymptotic bound; reported, not asserted",
            )
        )
    return IRCensus(n, epsilon, table, reports)


# ---------------------------------------------------------------------------
# skeleton-sum inequality


class TechEvaluation(NamedTuple):
    lhs: int
    hypothesis_met: bool

    def holds(self, n: int) -> bool:
        return self.lhs >= n


def tech_inequality_eval(
    parts: Sequence[int], r_values: Sequence[int], n: int
) -> TechEvaluation:
    """Evaluate  sum_{i<j} a_i a_j - 2(t-1) - sum_i r_i  for skeleton data.

    The hypothesis of interest is t >= 3 or both smallest parts exceeding 1;
    the pair (n-1, 1) is exactly the excluded shape.
    """
    if len(parts) != len(r_values):
        raise ValueError("parts and r_values must align")
    if len(parts) < 2:
        raise ValueError("need at least two parts")
    if any(a < 1 for a in parts) or any(r < 0 for r in r_values):
        raise ValueError("parts must be >= 1 and r_values >= 0")
    if sum(parts) != n:
        raise ValueError(f"parts sum to {sum(parts)}, expected n={n}")
    t = len(parts)
    pair_products = (n * n - sum(a * a for a in parts)) // 2
    lhs = pair_products - 2 * (t - 1) - sum(r_values)
    hypothesis = t >= 3 or min(parts) > 1
    return TechEvaluation(lhs=lhs, hypothesis_met=hypothesis)


def _part_removable_planes(bridges: list[int], kept: list[int]) -> list[int]:
    """Per slot s, from the bridge and kept planes of the connected plane's
    split, the graphs x where s lies in R of its part of G - B: x keeps s
    and x - s has more bridges than x (bit x of d << 2^s is bit x - 2^s of
    d), as deleting s adds bridges only inside its own part."""
    from .graphs import _sliced_count, _sliced_greater
    count = _sliced_count(bridges)
    return [
        _sliced_greater([d << (1 << s) for d in count], count, plane)
        for s, plane in enumerate(kept)
    ]


def tech_inequality_sweep(n: int, budget_override: bool = False) -> dict:
    """Evaluate the skeleton-sum inequality on every actual witness graph.

    Witnesses are the connected, non-2-edge-connected graphs on [n] with at
    least M edges whose skeleton meets the hypothesis.  The guarantee is
    asymptotic, so the sweep reports the empirical minimum instead of
    asserting lhs >= n.

    Every term is a bit-sliced count on the skeleton planes, for all graphs
    at once.  With S the vertex pairs inside one part of G - B (the reach
    planes), sum_{i<j} a_i a_j is m - S, so the left side is
    m + 2 - (S + 2t + sum_i r_i); the excluded shape (n-1, 1) is t = 2 with
    S = binom(n-1, 2).
    """
    from .connectivity import _split_planes
    from .graphs import _planes, _sliced_count, _sliced_equal, _slot_pairs, slot_count
    check_scan_budget(n, budget_override)
    planes = _planes(n)
    m = slot_count(n)
    M = (m + 1) // 2
    # connected with a bridge (not 2-edge-connected), on a level k >= M (the
    # level planes are disjoint, so their sum is their union)
    candidates = (planes.connected ^ planes.two_edge_connected) & sum(planes.levels[M:])
    bridges, kept, leaders, reach = _split_planes(n, planes.connected)
    inside = [reach[i][j] for i, j in _slot_pairs(n)]
    del reach  # not read past here
    excluded = _sliced_equal(_sliced_count(leaders), 2, candidates) & _sliced_equal(
        _sliced_count(inside), comb(n - 1, 2), candidates
    )
    checked = candidates ^ excluded
    total = _sliced_count(inside + leaders + leaders + _part_removable_planes(bridges, kept))
    holding = 0
    best = None
    # the witness is the first minimum in (lhs, k, bits) order: the largest
    # total, on its lowest level, at its lowest bit
    for value in reversed(range(1 << len(total))):
        plane = _sliced_equal(total, value, checked)
        if not plane:
            continue
        lhs = m + 2 - value
        if lhs >= n:
            holding += plane.bit_count()
        if best is None:
            low = next(plane & level for level in planes.levels if plane & level)
            best = lhs, (low & -low).bit_length() - 1
    return {
        "n": n,
        "checked": checked.bit_count(),
        "excluded": excluded.bit_count(),
        "holding": holding,
        "empirical_min": None if best is None else best[0],
        "witness": None if best is None else f"{n}:{best[1]:x}",
    }


def technical_lemma_check(a: float, b: float, c1: float, c2: float, c3: float) -> bool:
    """With A1 = a(1-c1), A2 = a(1+c2), B = b(1+c3), test

        a + b <= A1 + max(B, A2 - A1).

    Guaranteed whenever c1 <= c2*c3; inputs violating that are simply tested.
    c1 = 0 is accepted as the degenerate boundary.
    """
    if a <= 0 or b <= 0 or c2 <= 0 or c3 <= 0 or c1 < 0:
        raise ValueError("a, b, c2, c3 must be positive and c1 nonnegative")
    a1 = a * (1 - c1)
    a2 = a * (1 + c2)
    cap_b = b * (1 + c3)
    return a + b <= a1 + max(cap_b, a2 - a1) + 1e-12 * max(1.0, a, b)


def technical_sweep(seed: int, trials: int) -> list[dict]:
    """technical_lemma_check on `trials` seeded draws with c1 <= c2*c3, where
    it is guaranteed; returns the inputs of every draw it fails on."""
    import random
    rng = random.Random(seed)
    violations = []
    for _ in range(trials):
        a = rng.uniform(1e-3, 10.0)
        b = rng.uniform(1e-3, 10.0)
        c2 = rng.uniform(1e-3, 2.0)
        c3 = rng.uniform(1e-3, 2.0)
        c1 = c2 * c3 * rng.uniform(0.0, 1.0)
        if not technical_lemma_check(a, b, c1, c2, c3):
            violations.append({"a": a, "b": b, "c1": c1, "c2": c2, "c3": c3})
    return violations


# ---------------------------------------------------------------------------
# shadow-ratio reports for the levels just above the middle


def _threshold(n: int, r: float, epsilon: float) -> float:
    return ext_binom(n - r / 2, 2).value() + epsilon * r * n


def _hypothesis_threshold(n: int, r: int, epsilon: float) -> float:
    return ext_binom(n - (r + 1) / 2, 2).value() + epsilon * r * n


def _pick_r_interval(n: int, x: float, epsilon: float) -> int | None:
    """The unique positive r < n with the two-sided threshold bracket

        binom(n-(r+1)/2, 2) + eps*(r+1)*n  <=  x  <  binom(n-r/2, 2) + eps*r*n.

    At desk scale x usually sits above the r=1 bracket (the family is in the
    large-family regime), in which case there is no such r.
    """
    for r in range(1, n):
        if _threshold(n, r + 1, epsilon) <= x < _threshold(n, r, epsilon):
            return r
    return None


def _pick_r_smallest(n: int, x: float, epsilon: float) -> int | None:
    """Smallest positive r < n with x > binom(n-(r+1)/2, 2) + eps*r*n, the
    hypothesis form of the per-family shadow ratio bounds (smaller r gives
    the stronger conclusion)."""
    for r in range(1, n):
        if x > _hypothesis_threshold(n, r, epsilon):
            return r
    return None


def _shadow_counts(n: int, k: int) -> tuple[int, int, int, int, int, int]:
    """The sizes of level k's connected graphs X, their 2-edge-connected side
    Y and the rest Z, of shadow(X) and shadow(Z) in the connected universe,
    and of the 2-edge-connected graphs in shadow(Y), on the universe planes."""
    from .graphs import _planes, _shadow_plane
    planes = _planes(n)
    level = planes.connected & planes.levels[k]
    y = planes.two_edge_connected & level
    z = level ^ y
    shadow_y = _shadow_plane(planes.slots, y)
    # deleting any edge of a bridgeless graph keeps it connected, so the
    # full-universe shadow of Y must already be the connected one
    if shadow_y & planes.connected != shadow_y:
        raise AssertionError("shadow of the 2-edge-connected side left the universe")
    shadow_z = _shadow_plane(planes.slots, z) & planes.connected
    return (level.bit_count(), y.bit_count(), z.bit_count(), (shadow_y | shadow_z).bit_count(),
            shadow_z.bit_count(), (shadow_y & planes.two_edge_connected).bit_count())


def shadow_ratio_report(
    n: int,
    k: int | None = None,
    epsilon: float = 1 / 18,
    budget_override: bool = False,
) -> list[BoundReport]:
    """Shadow-growth evaluations for levels strictly between M and M + n.

    Per level the graphs split into Y (2-edge-connected) and Z (the rest).
    Exact shadow sizes are computed and compared against the asymptotic
    ratio bounds that drive the middle-level matching argument; every row is
    a report, never an assertion, since the bounds only claim anything for
    large n.  Rows whose side is empty or whose scale parameter r does not
    exist in range are emitted with an explanatory note where meaningful and
    skipped where no finite quantity exists.
    """
    from .graphs import slot_count
    _check_epsilon(epsilon)
    check_scan_budget(n, budget_override)
    m = slot_count(n)
    M = (m + 1) // 2
    ks = [k] if k is not None else list(range(M + 1, min(M + n, m + 1)))
    rows: list[BoundReport] = []
    for lvl in ks:
        if not (M < lvl < M + n and lvl <= m):
            raise ValueError(f"level {lvl} outside the report range ({M}, {min(M + n, m + 1)})")
        size_x, size_y, size_z, shadow_x, shadow_z, retained = _shadow_counts(n, lvl)
        x_val = binom_inverse(size_x, lvl)
        guard = ext_binom(n - 1, 2).value() + epsilon * n
        rows.append(
            BoundReport(
                name="shadow_large_family",
                params={
                    "n": n,
                    "k": lvl,
                    "epsilon": epsilon,
                    "size": size_x,
                    "x": x_val,
                    "guard_ok": x_val > guard,
                },
                lhs=LogValue.from_int(size_x),
                rhs=LogValue.from_int(shadow_x),
                note="asymptotic; claim applies when x exceeds the guard",
            )
        )

        r_theorem = _pick_r_interval(n, x_val, epsilon)
        if size_y:
            y_val = binom_inverse(size_y, lvl)
            r_y = _pick_r_smallest(n, y_val, epsilon)
            # skip when nothing can be retained (the level below has no
            # 2-edge-connected graphs); a zero count has no finite log
            if r_y is not None and retained > 0:
                ratio_bound = 1 - 4 * r_y / n**2
                rows.append(
                    BoundReport(
                        name="shadow_2ec_retention",
                        params={
                            "n": n,
                            "k": lvl,
                            "epsilon": epsilon,
                            "r": r_y,
                            "y": y_val,
                            "size": size_y,
                            "retained": retained,
                        },
                        lhs=LogValue.from_real(ratio_bound * size_y),
                        rhs=LogValue.from_int(retained),
                        note="asymptotic; reported only",
                    )
                )
        if size_z:
            z_val = binom_inverse(size_z, lvl)
            r_z = _pick_r_smallest(n, z_val, epsilon)
            if r_z is not None:
                growth = 1 + (4 - 4 * r_z / n) / n
                rows.append(
                    BoundReport(
                        name="shadow_growth_split",
                        params={
                            "n": n,
                            "k": lvl,
                            "epsilon": epsilon,
                            "r": r_z,
                            "z": z_val,
                            "size": size_z,
                            "shadow_size": shadow_z,
                        },
                        lhs=LogValue.from_real(growth * size_z),
                        rhs=LogValue.from_int(shadow_z),
                        note="asymptotic; reported only",
                    )
                )
        # unbalanced-split row with its own constants
        r0 = -(-2 * n // 3)
        unbalanced = size_z > n * size_y or size_y > n * size_z
        z_threshold_ok = None
        if size_z:
            z_threshold_ok = binom_inverse(size_z, lvl) > _threshold(n, r0, DIFF_EPSILON)
        rows.append(
            BoundReport(
                name="shadow_unbalanced_split",
                params={
                    "n": n,
                    "k": lvl,
                    "epsilon": DIFF_EPSILON,
                    "r": r0,
                    "hypothesis_met": unbalanced,
                    "z_threshold_ok": z_threshold_ok,
                },
                lhs=LogValue.from_int(size_x),
                rhs=LogValue.from_int(shadow_x),
                note="claim applies only when the split is unbalanced",
            )
        )
        r_const = r_theorem if r_theorem is not None else _pick_r_smallest(n, x_val, epsilon)
        if r_const is not None:
            c1 = 4 * r_const / n**2
            c2_num = 2 * r_const / n - r_const**2 / (2 * n**2) - 9 * epsilon * r_const / n
            c2_den = 1 - 2 * r_const / n + r_const**2 / (2 * n**2) + 9 * epsilon
            c3 = (4 - 4 * r_const / n) / n
            if c2_num > 0 and c2_den > 0:
                c2 = c2_num / c2_den
                rows.append(
                    BoundReport(
                        name="middle_constants",
                        params={
                            "n": n,
                            "k": lvl,
                            "epsilon": epsilon,
                            "r": r_const,
                            "r_theorem": r_theorem,
                            "c1": c1,
                            "c2": c2,
                            "c3": c3,
                        },
                        lhs=LogValue.from_real(c1),
                        rhs=LogValue.from_real(c2 * c3),
                        note="constant comparison driving the middle-level argument"
                        + ("" if r_theorem is not None
                           else "; no bracketed r in range, smallest admissible r used"),
                    )
                )
    return rows
