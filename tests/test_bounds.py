import math
import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from connposet import (
    BudgetExceededError,
    EdgeSet,
    appendix_property_check,
    binom_inverse,
    disconnected_report,
    ext_binom,
    i_r_census,
    lovasz_check,
    shadow_ratio_report,
    squares_check,
    tech_inequality_eval,
    technical_lemma_check,
)
from connposet.bounds import (
    LogValue,
    _part_removable_planes,
    _shadow_counts,
    appendix_grid,
    squares_sweep,
    tech_inequality_sweep,
)
from connposet.connectivity import _bits_at, _split_planes
from connposet.graphs import _level_bits, _planes, level_census, slot_count

from conftest import (
    _induced_bits,
    deletion_shadow,
    irk_table_by_retest,
    pairs_on,
    removable_by_retest,
    removal_walk,
    skeleton_walk,
    tech_sweep_by_walk,
)


def frac_binom_log2(x: float, k: int) -> float:
    """High-precision oracle: exact rational product, then one log."""
    fx = Fraction(x)
    prod = Fraction(1)
    for i in range(k):
        prod *= fx - i
    for i in range(1, k + 1):
        prod /= i
    assert prod > 0
    return math.log2(prod.numerator) - math.log2(prod.denominator)


def test_ext_binom_examples():
    assert abs(ext_binom(6.5, 3).value() - 26.8125) < 1e-9
    assert ext_binom(3, 5).exact == 0
    assert ext_binom(5, 5).exact == 1
    assert ext_binom(10, 0).exact == 1
    assert ext_binom(0, 0).exact == 1
    assert ext_binom(0.5, 2).exact == 0


def test_ext_binom_rejects():
    with pytest.raises(ValueError):
        ext_binom(-1, 2)
    with pytest.raises(ValueError):
        ext_binom(3, -1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="x must be finite"):
            ext_binom(bad, 2)


def test_ext_binom_exact_integer_agreement():
    for x in range(61):
        for k in range(x + 1):
            assert ext_binom(x, k).exact == comb(x, k)


def test_ext_binom_against_rational_oracle():
    # spread of real upper arguments across [k, 1e4]
    for i in range(300):
        k = i % 25 + 1
        x = k + (i * 131071 % 9999000) / 1000.0
        got = ext_binom(x, k).log2
        want = frac_binom_log2(x, k)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_exact_form_capped_at_64_bits():
    small = ext_binom(40, 20)
    assert small.exact == comb(40, 20)
    big = ext_binom(200, 100)
    assert big.exact is None
    assert abs(big.log2 - math.log2(comb(200, 100))) < 1e-9


def test_logvalue_zero():
    zero = LogValue.from_int(0)
    assert zero.exact == 0 and zero.log2 == float("-inf")


def test_binom_inverse_examples():
    assert binom_inverse(1, 4) == 4.0
    assert abs(binom_inverse(15, 2) - 6) < 1e-6
    assert abs(binom_inverse(26.8125, 3) - 6.5) < 1e-6


def test_binom_inverse_rejects():
    with pytest.raises(ValueError):
        binom_inverse(0, 3)
    with pytest.raises(ValueError):
        binom_inverse(0.5, 3)
    with pytest.raises(ValueError):
        binom_inverse(10, 0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="target must be finite"):
            binom_inverse(bad, 2)
    with pytest.raises(ValueError, match="too large to bracket"):
        binom_inverse(1e308, 1)


@given(
    st.integers(min_value=1, max_value=20),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_binom_inverse_roundtrip(k, frac):
    x = k + frac * 1000.0
    target = ext_binom(x, k)
    back = binom_inverse(target, k)
    assert abs(back - x) <= 1e-6 * max(1.0, x)


# ---------------------------------------------------------------------------
# the binomial identities


def test_appendix_item_examples():
    assert appendix_property_check(1, 10, 4)  # ratio 4/7 exactly
    assert appendix_property_check(2, 10, 8, 2)  # 495 > 4*45
    assert appendix_property_check(4, 7.3, 3)


def test_appendix_item1_holds_across_domain():
    for i in range(200):
        k = i % 20 + 1
        x = k + i * 0.37
        assert appendix_property_check(1, x, k)


def test_appendix_domain_validation():
    with pytest.raises(ValueError):
        appendix_property_check(1, 3, 4)
    with pytest.raises(ValueError):
        appendix_property_check(2, 10, 8, 0)
    with pytest.raises(ValueError):
        appendix_property_check(2, 16, 8, 2)  # x above 2k - delta
    with pytest.raises(ValueError):
        appendix_property_check(5, 1, 1)


def test_appendix_item2_upper_boundary_degenerates():
    # at x = 2k - delta with delta = 1 the two sides are exactly equal, so
    # the strict form fails there; one unit inside it holds again
    assert not appendix_property_check(2, 5, 3, 1)  # binom(6,3) = 2 * binom(5,3)
    assert appendix_property_check(2, 4, 3, 1)


def test_appendix_item3_fails_in_boundary_sliver():
    # both products cross within roughly one unit of x = k
    assert not appendix_property_check(3, 5, 5)
    assert not appendix_property_check(3, 5.4, 5)
    assert appendix_property_check(3, 7, 5)
    assert appendix_property_check(3, 5 + 2, 5)


def test_appendix_item4_boundary_equality_is_fine():
    assert appendix_property_check(4, 6, 6)  # binom(6,6) = binom(7,7) = 1


@pytest.mark.parametrize("item", [1, 2, 3, 4])
def test_appendix_grid_holds(item):
    grid = appendix_grid(item)
    assert len(grid) == 1000
    failures = [
        (x, k, d) for x, k, d in grid if not appendix_property_check(item, x, k, d)
    ]
    assert failures == []


def test_appendix_grids():
    # items 1 and 4 share one grid, and item 3's is that grid shifted up by 2 in x
    one, three = appendix_grid(1), appendix_grid(3)
    assert appendix_grid(4) == one
    assert one[:2] == [(1.0, 1, None), (999.3, 2, None)] and one[-1] == (6352.7, 50, None)
    assert [(k, d) for _, k, d in three] == [(k, d) for _, k, d in one]
    assert [x3 - x1 for (x1, _, _), (x3, _, _) in zip(one, three)] == pytest.approx([2] * 1000)
    assert appendix_grid(2)[:2] == [(2.0, 2, 0.5), (3.848364717542121, 3, 1.0)]
    with pytest.raises(ValueError, match="property_id must be 1..4, got 5"):
        appendix_grid(5)


# ---------------------------------------------------------------------------
# composition inequalities


def test_squares_examples():
    res = squares_check([2, 1, 1])
    assert res.binom_sum_ok and res.pair_product_ok
    # values behind the booleans: sum binom = 1 = binom(2,2); products 5 = 5

    res = squares_check([6])
    assert res.binom_sum_ok and res.pair_product_ok

    res = squares_check([3, 3], k=3)
    assert res.cap_applicable is False  # needs k > n/2 strictly

    res = squares_check([4, 3], k=4)
    assert res.cap_applicable
    assert res.capped_binom_sum_ok  # 9 <= binom(3,2) + binom(4,2) = 9
    assert res.capped_pair_product_ok  # 12 >= 4*3


def test_squares_rejects_bad_parts():
    with pytest.raises(ValueError):
        squares_check([])
    with pytest.raises(ValueError):
        squares_check([2, 0])


def test_squares_sweep_small():
    checked, violations = squares_sweep(12)
    assert violations == []
    assert checked > 500


# ---------------------------------------------------------------------------
# family-size bounds


def test_lovasz_full_level_equality():
    level = [EdgeSet(4, b) for b in _level_bits(4, "all")[3]]
    report = lovasz_check(level)
    assert report.holds
    assert report.params["shadow_size"] == 15
    assert abs(report.params["x"] - 6) < 1e-6
    assert abs(report.margin_log2) < 1e-9


def test_lovasz_single_graph():
    report = lovasz_check([EdgeSet.complete(3)])
    assert report.params["shadow_size"] == 3
    assert abs(report.params["x"] - 3) < 1e-6
    assert report.holds and abs(report.margin_log2) < 1e-9


def test_lovasz_check_validation():
    k3 = EdgeSet.complete(3)
    path = EdgeSet.from_edges(3, [(1, 2), (2, 3)])
    with pytest.raises(ValueError, match="empty family"):
        lovasz_check([])
    with pytest.raises(ValueError, match="mixed-level"):
        lovasz_check([k3, path])
    with pytest.raises(ValueError, match="at least 1"):
        lovasz_check([EdgeSet.empty(3)])
    with pytest.raises(ValueError, match="mixed vertex counts"):
        lovasz_check([path, EdgeSet.from_edges(4, [(1, 2), (3, 4)])])


def test_lovasz_check_refuses_n8_before_any_plane(monkeypatch):
    from connposet import graphs

    def no_plane(*args):
        raise AssertionError("a plane was built")

    monkeypatch.setattr(graphs, "_planes", no_plane)
    monkeypatch.setattr(graphs, "_members_plane", no_plane)
    with pytest.raises(BudgetExceededError, match="n=8"):
        lovasz_check([EdgeSet.from_edges(8, [(1, 2)])])


def test_lovasz_random_families_n4():
    rng = random.Random(4040)
    for _ in range(200):
        k = rng.randint(1, 6)
        level = [EdgeSet(4, b) for b in _level_bits(4, "all")[k]]
        family = rng.sample(level, rng.randint(1, len(level)))
        assert lovasz_check(family).holds


def test_disconnected_report_values():
    rows = {r.name: r for r in disconnected_report(4)}
    assert rows["disc_total"].params["disconnected"] == 26
    assert abs(rows["disc_total"].params["slack_log2"] - (math.log2(26) - 3)) < 1e-12
    assert rows["disc_isolated_split"].holds
    assert rows["disc_bulk_split"].holds
    counts = (
        rows["disc_isolated_split"].params["count"]
        + rows["disc_bulk_split"].params["count"]
    )
    assert counts == 26

    rows5 = {r.name: r for r in disconnected_report(5)}
    assert rows5["disc_total"].params["disconnected"] == 296


def test_i_r_census_n4():
    census = i_r_census(4, 1.0)
    assert census.table == {(4, 4): 3, (5, 4): 6, (6, 0): 1}
    assert census.total() == level_census(4, "two_edge_connected").total
    for report in census.reports:
        assert math.isfinite(report.lhs.log2) and math.isfinite(report.rhs.log2)


def test_i_r_census_n5_totals():
    census = i_r_census(5, 1.0)
    assert census.total() == 253
    assert all(count >= 0 for count in census.table.values())
    assert all(r >= 0 and k >= 0 for k, r in census.table)


@pytest.mark.parametrize("n", range(1, 6))
def test_i_r_census_matches_retest(n):
    table = i_r_census(n).table
    assert list(table.items()) == list(irk_table_by_retest(n).items())


def test_i_r_census_matches_labelled_walk_n6():
    walk = Counter((bits.bit_count(), r.bit_count()) for bits, r, _ in removal_walk(6))
    table = i_r_census(6).table
    assert table == dict(walk)
    assert list(table) == sorted(table)


def test_i_r_census_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        i_r_census(4, 0)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_epsilon_must_be_finite_and_positive(bad):
    with pytest.raises(ValueError, match="epsilon must be finite and positive"):
        i_r_census(4, bad)
    with pytest.raises(ValueError, match="epsilon must be finite and positive"):
        shadow_ratio_report(4, epsilon=bad)


# ---------------------------------------------------------------------------
# skeleton-sum inequality and the reals lemma


def test_tech_eval_two_triangles():
    ev = tech_inequality_eval([3, 3], [3, 3], 6)
    assert ev.lhs == 9 - 2 - 6 == 1
    assert ev.hypothesis_met
    assert not ev.holds(6)


def test_tech_eval_two_triangles_realized_by_a_graph():
    g = EdgeSet.from_edges(6, [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (5, 6), (4, 6)])
    (masks,) = [parts for bits, _, parts in skeleton_walk(6) if bits == g.bits]
    parts = [mask.bit_count() for mask in masks]
    assert parts == [3, 3]
    r_values = [len(removable_by_retest(EdgeSet.complete(3)))] * 2
    assert tech_inequality_eval(parts, r_values, 6).lhs == 1


def test_tech_eval_singleton_partition():
    n = 6
    ev = tech_inequality_eval([1] * n, [0] * n, n)
    assert ev.lhs == comb(n, 2) - 2 * (n - 1)
    assert ev.hypothesis_met  # t >= 3


def test_tech_eval_excluded_shape():
    ev = tech_inequality_eval([5, 1], [0, 0], 6)
    assert not ev.hypothesis_met


def test_tech_eval_validation():
    with pytest.raises(ValueError):
        tech_inequality_eval([3, 3], [1], 6)
    with pytest.raises(ValueError):
        tech_inequality_eval([6], [0], 6)
    with pytest.raises(ValueError):
        tech_inequality_eval([3, 2], [0, 0], 6)


def test_tech_sweep_n5():
    summary = tech_inequality_sweep(5)
    assert summary["checked"] > 0
    assert summary["empirical_min"] is not None
    assert summary["witness"] is not None


@pytest.mark.parametrize("n", range(1, 7))
def test_tech_sweep_matches_walk(n):
    assert tech_inequality_sweep(n) == tech_sweep_by_walk(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_tech_sweep_covers_every_candidate(n):
    # each connected graph with a bridge and at least M edges is checked or
    # excluded (5,040 at n = 6, of the 26,704 connected graphs)
    summary = tech_inequality_sweep(n)
    M = (slot_count(n) + 1) // 2
    connected = level_census(n, "connected").counts
    bridgeless = level_census(n, "two_edge_connected").counts
    candidates = sum(connected[M:]) - sum(bridgeless[M:])
    assert summary["checked"] + summary["excluded"] == candidates
    if n == 6:
        assert candidates == 5040


@pytest.mark.parametrize("n", range(1, 6))
def test_part_r_values_match_relabelled_parts(n):
    # the plane R of each skeleton part, slot by slot, against the part
    # relabelled and retested alone; its popcount is the graph's sum of r_i
    sk = _split_planes(n, _planes(n).connected)
    removable = _part_removable_planes(sk.leaving, sk.kept)
    slot = {pair: s for s, pair in enumerate(pairs_on(n))}
    walked = {bits: parts for bits, _, parts in skeleton_walk(n)}
    for bits in range(1 << slot_count(n)):
        expected = 0
        for mask in walked.get(bits, ()):
            part = [v for v in range(1, n + 1) if mask >> v & 1]
            for a, b in removable_by_retest(EdgeSet(*_induced_bits(n, bits, mask))):
                expected |= 1 << slot[part[a - 1], part[b - 1]]
        assert _bits_at(removable, bits) == expected, f"{n}:{bits:x}"


def test_technical_lemma_examples():
    assert technical_lemma_check(1, 1, 0.01, 0.1, 0.1)  # boundary c1 = c2*c3
    assert technical_lemma_check(1, 1, 0.0, 0.5, 0.5)  # degenerate c1 = 0
    with pytest.raises(ValueError):
        technical_lemma_check(0, 1, 0.1, 0.1, 0.1)
    with pytest.raises(ValueError):
        technical_lemma_check(1, 1, -0.1, 0.1, 0.1)


def test_technical_lemma_random_property():
    rng = random.Random(31337)
    for _ in range(2000):
        a = rng.uniform(1e-3, 10)
        b = rng.uniform(1e-3, 10)
        c2 = rng.uniform(1e-3, 2)
        c3 = rng.uniform(1e-3, 2)
        c1 = c2 * c3 * rng.uniform(0, 1)
        assert technical_lemma_check(a, b, c1, c2, c3)


# ---------------------------------------------------------------------------
# shadow-ratio reports


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("epsilon", [1 / 18, 1 / 40])
def test_shadow_ratio_report_generates(n, epsilon):
    rows = shadow_ratio_report(n, epsilon=epsilon)
    assert rows
    for row in rows:
        assert math.isfinite(row.lhs.log2)
        assert math.isfinite(row.rhs.log2)
        assert math.isfinite(row.margin_log2)


@pytest.mark.parametrize("n", range(1, 7))
def test_shadow_counts_match_sets(n):
    # the plane shadow algebra against the per-level member sets and their
    # shadows, one deletion at a time
    m = slot_count(n)
    connected = _level_bits(n, "connected")
    two = _level_bits(n, "two_edge_connected")
    for k in range(1, m + 1):
        x, y = set(connected[k]), set(two[k])
        down = set(connected[k - 1])
        shadow_y = deletion_shadow(y) & down
        shadow_z = deletion_shadow(x - y) & down
        assert _shadow_counts(n, k) == (
            len(x), len(y), len(x - y), len(shadow_y | shadow_z), len(shadow_z),
            len(shadow_y & set(two[k - 1])),
        ), k


def test_shadow_ratio_level_identity():
    m = slot_count(5)
    M = (m + 1) // 2
    for k in range(M + 1, min(M + 5, m + 1)):
        conn = set(_level_bits(5, "connected")[k])
        twoec = set(_level_bits(5, "two_edge_connected")[k])
        assert twoec <= conn
        rows = [r for r in shadow_ratio_report(5, k=k) if r.name == "shadow_large_family"]
        assert rows[0].params["size"] == len(conn)


def test_shadow_ratio_middle_constants_tight_at_default_epsilon():
    # with epsilon = 1/18 the three constants satisfy c1 = c2*c3 identically
    rows = [r for r in shadow_ratio_report(5) if r.name == "middle_constants"]
    assert rows
    for row in rows:
        assert abs(row.params["c1"] - row.params["c2"] * row.params["c3"]) < 1e-12
        assert row.holds


def test_shadow_ratio_rejects_out_of_range_level():
    with pytest.raises(ValueError):
        shadow_ratio_report(5, k=5)  # the middle level itself is excluded
