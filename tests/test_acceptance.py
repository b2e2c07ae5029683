"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -rA` to see the per-criterion
lines.  Criterion 5 is split: 5a checks the edge bound and its tightness;
5b checks that the cactus block test is a sound stand-in for the
chorded-cycle test on all multigraphs with q <= 5.  The two cannot agree
everywhere - the complete bipartite graph on parts of sizes 2 and 3 has no
chorded cycle yet is a single non-cycle block - so 5b pins their divergence
to exactly the ten labelings of that graph on {1..5}.
"""

import json
import math
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from functools import lru_cache
from itertools import combinations
import pytest

from connposet import (
    EdgeSet,
    chain_partition,
    connected_classes,
    cprime_search,
    cprime_sperner,
    disconnected_report,
    i_r_census,
    lovasz_check,
    property_poset_report,
    quotient_sperner,
    shadow_ratio_report,
    sperner_verdict,
)
from connposet.bounds import appendix_grid, appendix_property_check, squares_sweep
from connposet.bounds import tech_inequality_sweep
from connposet.connectivity import (
    MultiGraph,
    chorded_cycle_sweep,
    is_cactus,
    is_chorded_cycle_free,
    removability_findings,
    skeleton_findings,
)
from connposet.graphs import _level_bits, level_census, slot_count
from connposet.poset import level_matchings
from conftest import (
    augmenting_path_matching,
    cycle_chord_free,
    deletion_shadow,
    family_dilworth_width,
    host_subgraph_levels,
    uf_connected_bits,
)


@contextmanager
def criterion(tag, description):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {tag}: FAIL - {description} ({time.time() - start:.1f}s)")
        raise
    print(f"ACCEPTANCE {tag}: PASS - {description} ({time.time() - start:.1f}s)")


@lru_cache(maxsize=None)
def verdict(n):
    return sperner_verdict(n)


CONNECTED_TOTALS = {3: 4, 4: 38, 5: 728, 6: 26704}
DISCONNECTED_TOTALS = {4: 26, 5: 296, 6: 6064}


def test_criterion_1_sperner_widths():
    with criterion(1, "width equals largest level for n = 3..6"):
        expected_widths = {3: 3, 4: 16}
        for n in (3, 4, 5, 6):
            start = time.time()
            report = verdict(n)
            elapsed = time.time() - start
            census_max = max(level_census(n).counts)
            assert report.width == report.level_sizes[report.max_level_k] == census_max
            if n in expected_widths:
                assert report.width == expected_widths[n]
            assert report.element_count == CONNECTED_TOTALS[n]
            limit = 600 if n == 6 else 10
            assert elapsed < limit
        # n=5 width must equal the census size of its middle level
        assert verdict(5).width == level_census(5).counts[5] == 222
        assert verdict(6).width == level_census(6).counts[8]


def test_criterion_2_census_cross_checks():
    with criterion(2, "connected and disconnected totals by independent brute force"):
        for n in (3, 4, 5, 6):
            m = slot_count(n)
            oracle_connected = sum(
                1 for bits in range(1 << m) if uf_connected_bits(n, bits)
            )
            assert oracle_connected == CONNECTED_TOTALS[n]
            assert level_census(n).total == oracle_connected
            if n >= 4:
                assert (1 << m) - oracle_connected == DISCONNECTED_TOTALS[n]


def test_criterion_3_skeleton_structure():
    with criterion(3, "skeleton bridge count and 2-edge-connected parts, n <= 6"):
        for n in range(1, 7):
            checked, findings = skeleton_findings(n)
            assert findings == []
            if n >= 3:
                assert checked == CONNECTED_TOTALS.get(n, checked)


def test_criterion_4_removability_bounds():
    with criterion(4, "removable-edge bounds and condensation structure, n <= 6"):
        start = time.time()
        totals = {}
        for n in range(1, 7):
            checked, findings = removability_findings(n)
            assert findings == []
            totals[n] = checked
        assert totals[6] == 11968
        assert time.time() - start < 300


@lru_cache(maxsize=1)
def multigraph_sweep():
    return chorded_cycle_sweep(5)


def test_criterion_5a_chorded_cycle_bound_and_tightness():
    with criterion(
        "5a", "chorded-cycle-free multigraphs respect the 2q-2 bound; star tight"
    ):
        sweep = multigraph_sweep()
        assert sweep["bound_violations"] == []
        for q in range(2, 6):
            assert sweep["per_q"][q]["doubled_star_tight"]
        assert sweep["per_q"][5]["multigraphs"] == 4 ** 10


def test_criterion_5b_block_test_oracle_agreement():
    with criterion(
        "5b",
        "block test agrees with the chorded-cycle test on q <= 5 except on "
        "the ten labeled K_{2,3}, which are chorded-cycle-free non-cacti",
    ):
        sweep = multigraph_sweep()
        mismatches = [MultiGraph.from_json(text) for text in sweep["mismatches"]]
        witnesses = {(h.q, h.edges) for h in mismatches}
        assert len(witnesses) == len(mismatches), "duplicate mismatches"
        assert all(h.q == 5 for h in mismatches), "the two tests disagree at q <= 4"
        # K_{2,3} labeled by its part of size 2; every 4-vertex subset spans
        # exactly 4 edges, so none of its cycles has a chord
        k23 = set()
        for part in combinations(range(1, 6), 2):
            rest = [v for v in range(1, 6) if v not in part]
            edges = sorted((min(a, b), max(a, b), 1) for a in part for b in rest)
            k23.add((5, tuple(edges)))
        assert len(k23) == 10
        assert witnesses == k23, (
            f"the block (cactus) test and the chorded-cycle test must "
            f"disagree on exactly the ten labelings of K_{{2,3}}; extra: "
            f"{sorted(witnesses - k23)}, missing: {sorted(k23 - witnesses)}"
        )
        for h in mismatches:
            assert is_chorded_cycle_free(h) and not is_cactus(h), h.to_json()
            assert cycle_chord_free(h.q, h.edges), h.to_json()
            assert h.edge_total <= 2 * h.q - 2


def test_criterion_6_composition_inequalities():
    with criterion(6, "composition inequalities for every partition of n <= 20"):
        start = time.time()
        checked, violations = squares_sweep(20)
        elapsed = time.time() - start
        assert violations == []
        assert checked > 5000
        assert elapsed < 10


def test_criterion_7_shadow_lower_bound():
    with criterion(7, "shadow bound for 200 random families per level at n = 5"):
        rng = random.Random(728)
        m = slot_count(5)
        for k in range(1, m + 1):
            level = [EdgeSet(5, b) for b in _level_bits(5, "all")[k]]
            full = lovasz_check(level)
            assert full.holds
            assert abs(full.margin_log2) <= 1e-9  # full levels meet the bound exactly
            for _ in range(200):
                family = rng.sample(level, rng.randint(1, len(level)))
                report = lovasz_check(family)
                assert report.holds, report.as_row()


def test_criterion_8_binomial_identity_grids():
    with criterion(8, "extended-binomial identity grids (1000 points each)"):
        for item in (1, 2, 3, 4):
            grid = appendix_grid(item)
            assert len(grid) == 1000
            for x, k, delta in grid:
                assert appendix_property_check(item, x, k, delta), (item, x, k, delta)


def test_criterion_9_matching_framework():
    with criterion(9, "matchings agree with the independent matcher at n = 5"):
        m = slot_count(5)
        levels = _level_bits(5, "connected")
        pairs = []
        for result in level_matchings(5):
            k, k_to = result.k_from, result.k_to
            pairs.append((k, k_to))
            # independent instance build + one-path-at-a-time matcher
            to_index = {b: i for i, b in enumerate(levels[k_to])}
            adj = []
            for b in levels[k]:
                row = []
                if k_to > k:
                    flips = (s for s in range(m) if not b >> s & 1)
                else:
                    flips = (s for s in range(m) if b >> s & 1)
                for s in flips:
                    other = b ^ (1 << s)
                    if other in to_index:
                        row.append(to_index[other])
                adj.append(row)
            size, _, _ = augmenting_path_matching(
                len(adj), len(levels[k_to]), adj.__getitem__
            )
            assert size == result.matching_size
            assert result.complete == (size == len(levels[k]))
            if not result.complete:
                violator = {g.bits for g in result.violator}
                neighborhood = set()
                for b in violator:
                    i = levels[k].index(b)
                    neighborhood.update(adj[i])
                assert len(neighborhood) < len(violator)
        # every pair of adjacent nonempty levels, each way
        assert pairs == [
            (k, k_to) for k in range(m + 1) for k_to in (k + 1, k - 1)
            if 0 <= k_to <= m and levels[k] and levels[k_to]
        ]
        partition = chain_partition(5)
        assert partition.count == 222
        elements = [g for chain in partition.chains for g in chain]
        assert len(elements) == 728 and len(set(elements)) == 728


def test_criterion_10_asymptotic_reports():
    with criterion(10, "census and shadow-ratio reports generate, identities hold"):
        rows = []
        for n in (4, 5, 6):
            rows.extend(disconnected_report(n))
        for n in (4, 5, 6):
            for eps in (1 / 18, 1 / 40):
                census = i_r_census(n, eps)
                rows.extend(census.reports)
                expected = sum(len(lv) for lv in _level_bits(n, "two_edge_connected"))
                assert census.total() == expected
        for n in (4, 5, 6):
            for eps in (1 / 18, 1 / 40):
                rows.extend(shadow_ratio_report(n, epsilon=eps))
        for n in (5, 6):
            summary = tech_inequality_sweep(n)
            assert summary["checked"] > 0
        for row in rows:
            assert math.isfinite(row.lhs.log2), row.as_row()
            assert math.isfinite(row.rhs.log2), row.as_row()
            assert math.isfinite(row.margin_log2), row.as_row()
        # split identity and the two-way shadow computation at n = 5
        m = slot_count(5)
        M = (m + 1) // 2
        from connposet.graphs import _members_plane, _planes, _plane_members, _shadow_plane

        for k in range(M + 1, min(M + 5, m + 1)):
            conn = set(_level_bits(5, "connected")[k])
            twoec = set(_level_bits(5, "two_edge_connected")[k])
            assert len(twoec) + len(conn - twoec) == len(conn)
            if twoec:
                plane = _shadow_plane(_planes(5).slots, _members_plane(twoec, 1 << m))
                via_planes = set(_plane_members(plane & _planes(5).connected))
                via_oracle = {b for b in deletion_shadow(twoec) if uf_connected_bits(5, b)}
                assert via_planes == via_oracle


def test_criterion_11_explorers():
    with criterion(11, "quotient, host-subgraph and property explorers"):
        q3 = quotient_sperner(3)
        assert q3.element_count == 2 and q3.width == 1

        k3 = cprime_sperner(EdgeSet.complete(3))
        assert k3.width == 3 and k3.level_sizes[k3.max_level_k] == 3

        reports = cprime_search(4)
        assert len(reports) == 9
        hosts = {f"spanning_connected({cls.canon.text()})": cls.canon
                 for n in (2, 3, 4) for cls in connected_classes(n)}
        for report in reports:
            host = hosts[report.universe]
            assert report.width == family_dilworth_width(host_subgraph_levels(host.n, host.bits))

        ham = property_poset_report(5, "hamiltonian")
        assert ham.graded
        assert ham.width == ham.level_sizes[ham.max_level_k] == 90

        for n in (3, 4, 5, 6):
            assert quotient_sperner(n).width <= verdict(n).width


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "connposet", *args], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_criterion_12_byte_identical_reruns():
    with criterion(12, "identical runs produce byte-identical output"):
        for args in (
            ("sperner", "--n", "4"),
            ("census", "--n", "5", "--format", "csv"),
            ("lemma", "lovasz", "--n", "4", "--trials", "40", "--seed", "11"),
            ("lemma", "shadow-ratio", "--n", "5", "--format", "ndjson"),
        ):
            assert run_cli(*args) == run_cli(*args)
