import json
import subprocess
import sys

import pytest

from connposet.graphs import enumerate_level

from conftest import connected_census


def run_cli(*args, expect=0):
    proc = subprocess.run(
        [sys.executable, "-m", "connposet", *args],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == expect, proc.stderr or proc.stdout
    return proc


def test_sperner_json():
    proc = run_cli("sperner", "--n", "4", "--format", "json")
    doc = json.loads(proc.stdout)
    assert doc["n"] == 4
    assert doc["width"] == 16
    assert doc["max_level_k"] == 3
    assert doc["max_level_size"] == 16
    assert doc["sperner"] is True
    assert len(doc["antichain"]) == 16
    assert doc["method"] == "chains"


@pytest.mark.parametrize("n,family", [
    (n, family) for n in range(1, 6) for family in ("connected", "all", "two_edge_connected")
    if (n, family) != (2, "two_edge_connected")  # an empty family has no width
])
def test_sperner_antichain_is_the_largest_level(capsys, n, family):
    from connposet import cli

    assert cli.main(["sperner", "--n", str(n), "--family", family]) == 0
    doc = json.loads(capsys.readouterr().out)
    K = doc["max_level_k"]
    assert doc["antichain"] == [g.text() for g in enumerate_level(n, K, family)]
    assert len(doc["antichain"]) == doc["width"] == max(doc["level_sizes"].values())


@pytest.mark.parametrize("argv, name, pair", [
    (["sperner", "--n", "4"], "sperner", (4, 3)),
    (["sperner", "--n", "4", "--family", "two_edge_connected"], "sperner", (4, 5)),
    (["explore", "hamiltonian", "--n", "4"], "hamiltonian", (4, 5)),
], ids=["connected", "two_edge_connected", "hamiltonian"])
def test_blocked_width_gluing_fails(monkeypatch, capsys, argv, name, pair):
    # a level pair that cannot be glued is the width core's only failure:
    # every level matching comes back empty, so the first pair raises
    from connposet import cli, poset

    monkeypatch.setattr(poset, "_bracket_matching",
                        lambda full: lambda from_bits, to_bits, direction: (0, None))
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    a, b = pair
    assert captured.err == (f"FAIL {name}: no complete matching from level {a} "
                            f"into level {b} (pair {a}->{b})\n")


def test_blocked_chain_gluing_fails(monkeypatch, capsys):
    from connposet import cli, limits, poset

    def blocked(n, universe="connected", budget_override=False):
        raise limits.ChainPartitionError(3, 4, "no complete matching")

    monkeypatch.setattr(poset, "chain_partition", blocked)
    assert cli.main(["chains", "--n", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "FAIL chains: no complete matching (pair 3->4)\n"


def test_census_formats():
    doc = json.loads(run_cli("census", "--n", "4").stdout)
    assert doc["counts"] == [0, 0, 0, 16, 15, 6, 1]
    assert doc["total"] == 38

    csv_out = run_cli("census", "--n", "4", "--format", "csv").stdout.splitlines()
    assert csv_out[0] == "n,family,k,count"
    assert csv_out[4] == "4,connected,3,16"

    nd = run_cli("census", "--n", "3", "--format", "ndjson").stdout.splitlines()
    records = [json.loads(line) for line in nd]
    assert sum(r["count"] for r in records) == 4


def test_binom_evaluator():
    doc = json.loads(run_cli("binom", "--x", "6.5", "--k", "3").stdout)
    assert doc["value"] == 26.8125
    doc = json.loads(run_cli("binom", "--target", "15", "--k", "2").stdout)
    assert abs(doc["x"] - 6) < 1e-6
    run_cli("binom", "--k", "3", expect=2)
    run_cli("binom", "--x", "2", "--target", "3", "--k", "3", expect=2)


def test_binom_beyond_float_range_reports_null_value():
    # 2 ** log2 overflows a float; the value is null and log2 stays finite
    doc = json.loads(run_cli("binom", "--x", "1e308", "--k", "3").stdout)
    assert doc["value"] is None
    assert 3066 < doc["log2"] < 3067


def test_binom_rejects_unknown_format():
    proc = run_cli("binom", "--x", "5", "--k", "3", "--format", "xml", expect=2)
    assert proc.stdout == ""
    assert "invalid choice: 'xml'" in proc.stderr


@pytest.mark.parametrize("which", ["cprime", "quotient", "hamiltonian"])
def test_explore_rejects_family(which):
    # the explorers fix their own universes; --family is a usage error
    proc = run_cli("explore", which, "--n", "4", "--family", "two_edge_connected",
                   expect=2)
    assert proc.stdout == ""
    assert "unrecognized arguments: --family" in proc.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("lemma", "disc", "--n", "4", "--family", "two_edge_connected"),
        ("explore", "quotient", "--n", "4", "--k", "3"),
        ("explore", "quotient", "--n", "4", "--epsilon", "7"),
        ("explore", "hamiltonian", "--n", "4", "--seed", "5"),
        ("explore", "cprime", "--n", "4", "--trials", "9"),
        ("census", "--n", "4", "--k", "3"),
        ("census", "--n", "4", "--epsilon", "0.5"),
        ("sperner", "--n", "4", "--seed", "5"),
        ("sperner", "--n", "4", "--trials", "9"),
        ("chains", "--n", "4", "--k", "3"),
        ("chains", "--n", "4", "--seed", "5"),
        ("matchings", "--n", "4", "--epsilon", "0.5"),
        ("matchings", "--n", "4", "--seed", "5"),
        ("matchings", "--n", "4", "--trials", "9"),
    ],
)
def test_flags_a_subcommand_would_ignore_exit_2(args):
    # no lemma reads --family, no explorer a level, tolerance or sample,
    # census, sperner and chains none of those either, and matchings only
    # the level
    proc = run_cli(*args, expect=2)
    assert proc.stdout == ""
    assert f"unrecognized arguments: {args[-2]} {args[-1]}" in proc.stderr


# per lemma id, a sweep flag it does not read
UNREAD_LEMMA_FLAGS = [
    ("squares", "--n", "4"),
    ("disc", "--epsilon", "0.5"),
    ("skeleton", "--k", "3"),
    ("removable", "--seed", "1"),
    ("chorded", "--n", "9"),
    ("chorded", "--epsilon", "2"),
    ("irk", "--trials", "9"),
    ("tech", "--epsilon", "3"),
    ("tech", "--k", "2"),
    ("tech", "--seed", "4"),
    ("tech", "--trials", "9"),
    ("tech", "--q-max", "2"),
    ("tech", "--n-max", "3"),
    ("lovasz", "--k", "3"),
    ("technical", "--n", "4"),
    ("shadow-ratio", "--q-max", "3"),
    ("appendix", "--seed", "1"),
    ("selftest", "--n", "4"),
]


@pytest.mark.parametrize("lemma,flag,value", UNREAD_LEMMA_FLAGS)
def test_lemma_rejects_a_flag_it_does_not_read(lemma, flag, value):
    proc = run_cli("lemma", lemma, flag, value, expect=2)
    assert proc.stdout == ""
    assert proc.stderr == f"error: lemma {lemma} does not read {flag}\n"


def test_lemma_takes_workers_and_its_own_flags():
    # --workers is taken everywhere; a lemma's own flags change its output
    plain = run_cli("lemma", "chorded", "--q-max", "3").stdout
    assert run_cli("lemma", "chorded", "--q-max", "3", "--workers", "2").stdout == plain
    assert run_cli("lemma", "chorded", "--q-max", "2").stdout != plain


def test_lemma_names_the_first_unread_flag():
    proc = run_cli("lemma", "tech", "--n", "5", "--epsilon", "3", "--k", "2", "--seed", "4",
                   "--trials", "9", "--q-max", "2", "--n-max", "3", expect=2)
    assert proc.stdout == ""
    assert proc.stderr == "error: lemma tech does not read --k\n"


@pytest.mark.parametrize("lemma", ["skeleton", "removable"])
@pytest.mark.parametrize("args", [("--n", "7"), ("--n", "8", "--budget-override")])
def test_sweeps_exit_2_over_budget(lemma, args):
    proc = run_cli("lemma", lemma, *args, expect=2)
    assert proc.stdout == ""
    assert f"budget error: full scan at n={args[1]} exceeds the budget" in proc.stderr


@pytest.mark.parametrize("args", [("--q-max", "8"), ("--q-max", "9", "--budget-override")])
def test_chorded_exits_2_over_budget(args):
    proc = run_cli("lemma", "chorded", *args, expect=2)
    assert proc.stdout == ""
    assert proc.stderr.startswith(
        f"budget error: chorded-cycle sweep at q={args[1]} exceeds the budget of q<=7"
    )


def test_matchings_table():
    doc = json.loads(run_cli("matchings", "--n", "3").stdout)
    rows = {(r["k_from"], r["k_to"]): r for r in doc["matchings"]}
    assert rows[(2, 3)]["matching_size"] == 1
    assert rows[(2, 3)]["complete"] is False
    assert sorted(rows[(2, 3)]["violator"]) == ["3:3", "3:5", "3:6"]
    assert rows[(3, 2)]["complete"] is True

    nd = run_cli("matchings", "--n", "3", "--format", "ndjson").stdout.splitlines()
    pairs = [json.loads(line) for line in nd]
    assert all({"from", "to", "k_from", "k_to", "n"} <= set(p) for p in pairs)


def test_chains_honour_family():
    doc = json.loads(run_cli("chains", "--n", "4", "--family", "two_edge_connected").stdout)
    # 2-edge-connected graphs on [4]: 3 four-cycles, 6 with five edges, K4
    assert doc["count"] == 6
    flattened = [g for chain in doc["chains"] for g in chain]
    assert len(flattened) == len(set(flattened)) == 10
    assert "4:3f" in flattened and "4:f" not in flattened  # K4 in, a paw out


def test_chains_output():
    doc = json.loads(run_cli("chains", "--n", "3").stdout)
    assert doc["count"] == 3
    flattened = [g for chain in doc["chains"] for g in chain]
    assert sorted(flattened) == ["3:3", "3:5", "3:6", "3:7"]

    nd = run_cli("chains", "--n", "4", "--format", "ndjson").stdout.splitlines()
    assert len(nd) == 16


def test_lemma_exit_codes():
    run_cli("lemma", "removable", "--n", "4")
    run_cli("lemma", "skeleton", "--n", "4")
    run_cli("lemma", "squares", "--n-max", "10")
    run_cli("lemma", "technical", "--trials", "500")
    run_cli("lemma", "appendix")
    run_cli("lemma", "selftest", expect=1)


def test_lemma_selftest_prints_counterexample():
    proc = run_cli("lemma", "selftest", expect=1)
    assert "FAIL selftest" in proc.stderr


# Each lemma's failing path, reached by patching the compute call it reads so
# that it reports an invariant that does not hold.


def _failed_lemma(capsys, *argv):
    """The document and stderr of a lemma run that must exit 1."""
    from connposet import cli

    assert cli.main(["lemma", *argv]) == 1
    captured = capsys.readouterr()
    return json.loads(captured.out), captured.err


def _json(value):
    """A document as json.loads gives it back (int keys become strings)."""
    return json.loads(json.dumps(value))


def _fail_lines(name, findings):
    lines = [f"FAIL {name}: {json.dumps(f, sort_keys=True)}\n" for f in findings[:20]]
    if len(findings) > 20:
        lines.append(f"FAIL {name}: ... {len(findings) - 20} more\n")
    return "".join(lines)


def test_lemma_squares_fails(monkeypatch, capsys):
    from connposet import bounds

    finding = {"parts": [2, 1], "problem": "sum of squares too large"}
    monkeypatch.setattr(bounds, "squares_sweep", lambda n_max: (7, [finding]))
    doc, err = _failed_lemma(capsys, "squares")
    assert doc == {"lemma": "squares", "n_max": 20, "checked": 7, "violations": [finding]}
    assert err == _fail_lines("squares", [finding])


def test_lemma_disc_fails_on_a_split_row_only(monkeypatch, capsys):
    from connposet import bounds

    real = bounds.disconnected_report

    def broken_bulk_split(n, budget_override=False):
        return [r._replace(lhs=bounds.LogValue.from_int(100)) if r.name == "disc_bulk_split"
                else r for r in real(n, budget_override)]

    rows = [r.as_row() for r in broken_bulk_split(4)]
    # disc_total does not hold at n = 4 either, but it is a report
    assert [r["name"] for r in rows if not r["holds"]] == ["disc_total", "disc_bulk_split"]
    monkeypatch.setattr(bounds, "disconnected_report", broken_bulk_split)
    doc, err = _failed_lemma(capsys, "disc", "--n", "4")
    assert doc == _json({"lemma": "disc", "n": 4, "rows": rows})
    assert err == _fail_lines("disc", [rows[2]])


def test_lemma_irk_fails_on_a_census_total_mismatch(monkeypatch, capsys):
    from connposet import bounds

    real = bounds.i_r_census

    def missing_graph(n, epsilon=1.0, budget_override=False):
        census = real(n, epsilon, budget_override)
        table = dict(census.table)
        table[6, 0] -= 1  # the complete graph K4
        return census._replace(table=table)

    monkeypatch.setattr(bounds, "i_r_census", missing_graph)
    doc, err = _failed_lemma(capsys, "irk", "--n", "4")
    assert doc == _json({"lemma": "irk", "n": 4, "epsilon": 1.0,
                         "table": {"4,4": 3, "5,4": 6, "6,0": 0},
                         "rows": [r.as_row() for r in real(4).reports]})
    assert err == _fail_lines(
        "irk", [{"problem": "census total mismatch", "total": 9, "expected": 10}])


@pytest.mark.parametrize("lemma,compute", [("skeleton", "skeleton_findings"),
                                           ("removable", "removability_findings")])
def test_lemma_connectivity_sweep_fails(monkeypatch, capsys, lemma, compute):
    from connposet import connectivity

    finding = {"graph": "3:7", "problem": f"{lemma} invariant broken"}
    monkeypatch.setattr(connectivity, compute, lambda n, budget_override=False: (4, [finding]))
    doc, err = _failed_lemma(capsys, lemma, "--n", "3")
    assert doc == {"lemma": lemma, "n": 3, "checked": 4, "findings": [finding]}
    assert err == _fail_lines(lemma, [finding])


def test_lemma_chorded_fails_after_its_divergence_note(monkeypatch, capsys):
    from connposet import connectivity

    real = connectivity.chorded_cycle_sweep
    violation = {"q": 3, "edges": [[1, 2, 2], [2, 3, 2], [1, 3, 1]]}

    def broken(q_max):
        sweep = real(q_max)
        sweep["bound_violations"].append(violation)
        sweep["per_q"][2]["doubled_star_tight"] = False
        sweep["mismatches"].append(violation)
        return sweep

    expected = broken(3)
    monkeypatch.setattr(connectivity, "chorded_cycle_sweep", broken)
    doc, err = _failed_lemma(capsys, "chorded", "--q-max", "3")
    assert doc == _json({"lemma": "chorded", "q_max": 3, **expected})
    assert err == (
        "note: block test and chorded-cycle test diverge on 1 instances "
        "(reported, not asserted)\n"
        + _fail_lines("chorded", [violation, {"problem": "doubled star not tight", "q": 2}])
    )


def test_lemma_lovasz_fails(monkeypatch, capsys):
    from connposet import bounds
    from connposet.graphs import EdgeSet

    real = bounds._lovasz_report

    def broken(*args):
        return real(*args)._replace(lhs=bounds.LogValue.from_int(5))

    monkeypatch.setattr(bounds, "_lovasz_report", broken)
    # n = 2 has one level of one graph, so the one trial samples that level
    row = bounds.lovasz_check([EdgeSet(2, 1)]).as_row()
    assert not row["holds"]
    doc, err = _failed_lemma(capsys, "lovasz", "--n", "2", "--trials", "1")
    assert doc == _json({"lemma": "lovasz", "n": 2, "trials": 1, "seed": 0, "rows": [
        row, {**row, "note": "smallest margin among sampled families"}]})
    assert err == _fail_lines("lovasz", [row, row])


def test_lemma_technical_fails(monkeypatch, capsys):
    from connposet import bounds

    calls = []

    def first_draw_fails(a, b, c1, c2, c3):
        calls.append({"a": a, "b": b, "c1": c1, "c2": c2, "c3": c3})
        return len(calls) > 1

    monkeypatch.setattr(bounds, "technical_lemma_check", first_draw_fails)
    doc, err = _failed_lemma(capsys, "technical", "--trials", "3")
    assert len(calls) == 3
    assert doc == {"lemma": "technical", "trials": 3, "seed": 0, "violations": calls[:1]}
    assert err == _fail_lines("technical", calls[:1])


def test_lemma_appendix_fails_and_truncates(monkeypatch, capsys):
    from connposet import bounds

    monkeypatch.setattr(bounds, "appendix_property_check",
                        lambda item, x, k, delta=None: not (item == 4 and k >= 49))
    findings = [{"item": 4, "x": x, "k": k, "delta": None}
                for x, k, _ in bounds.appendix_grid(4) if k >= 49]
    doc, err = _failed_lemma(capsys, "appendix")
    assert doc == {"lemma": "appendix", "violations": findings, "rows": [
        {"item": item, "points": 1000, "failures": 40 if item == 4 else 0}
        for item in (1, 2, 3, 4)]}
    assert err.count("\n") == 21 and err.endswith("FAIL appendix: ... 20 more\n")
    assert err == _fail_lines("appendix", findings)


def test_lovasz_checks_the_vertex_count_before_the_budget():
    proc = run_cli("lemma", "lovasz", "--n", "11", expect=2)
    assert proc.stdout == ""
    assert proc.stderr == "error: vertex count must be in 1..10, got 11\n"


def test_usage_errors_exit_2():
    proc = subprocess.run(
        [sys.executable, "-m", "connposet", "frobnicate"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    run_cli("census", "--n", "8", expect=2)
    run_cli("census", "--n", "7", expect=2)  # needs --budget-override
    run_cli("census", "--n", "9", "--budget-override", expect=2)
    run_cli("lemma", "nonsense", expect=2)


@pytest.mark.parametrize(
    "args",
    [
        ("matchings", "--n", "4", "--k", "7"),
        ("matchings", "--n", "4", "--k", "-1"),
        ("matchings", "--n", "4", "--k", "99"),
        ("lemma", "lovasz", "--n", "3", "--trials", "0"),
        ("lemma", "technical", "--trials", "0"),
        ("lemma", "technical", "--trials", "-5"),
        ("lemma", "squares", "--n-max", "0"),
        ("lemma", "squares", "--n-max", "-1"),
        ("lemma", "chorded", "--q-max", "0"),
        ("lemma", "chorded", "--q-max", "-2"),
    ],
)
def test_out_of_range_arguments_exit_2(args):
    proc = run_cli(*args, expect=2)
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("n", ["0", "-3"])
def test_explore_cprime_rejects_vertex_count(n):
    # as every other subcommand does, instead of an empty report
    proc = run_cli("explore", "cprime", "--n", n, expect=2)
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: vertex count must be in 1..10")


N_COMMANDS = [
    ("census",), ("sperner",), ("matchings",), ("chains",),
    *[("lemma", i) for i in ("disc", "skeleton", "removable", "irk", "tech", "lovasz",
                              "shadow-ratio")],
    *[("explore", w) for w in ("cprime", "quotient", "hamiltonian")],
]


@pytest.mark.parametrize("n", ["0", "-3"])
@pytest.mark.parametrize("command", N_COMMANDS, ids=" ".join)
def test_every_subcommand_rejects_vertex_count(command, n):
    proc = run_cli(*command, "--n", n, expect=2)
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: vertex count must be in 1..10")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "args,problem",
    [
        (("binom", "--target", "nan", "--k", "2"), "target must be finite"),
        (("binom", "--target", "inf", "--k", "2"), "target must be finite"),
        (("binom", "--x", "inf", "--k", "2"), "x must be finite"),
        (("binom", "--x", "nan", "--k", "2"), "x must be finite"),
        (("binom", "--target", "1e308", "--k", "1"), "x with binom(x, 1) = 1e+308 is too large"),
        (("lemma", "irk", "--n", "4", "--epsilon", "nan"), "epsilon must be finite"),
        (("lemma", "irk", "--n", "4", "--epsilon", "inf"), "epsilon must be finite"),
        (("lemma", "shadow-ratio", "--n", "4", "--epsilon", "0"), "epsilon must be finite"),
        (("lemma", "shadow-ratio", "--n", "4", "--epsilon", "-1"), "epsilon must be finite"),
        (("lemma", "shadow-ratio", "--n", "4", "--epsilon", "nan"), "epsilon must be finite"),
    ],
)
def test_non_finite_or_out_of_range_reals_exit_2(args, problem):
    proc = run_cli(*args, expect=2)
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: {problem}")


@pytest.mark.parametrize("command", ["census", "sperner", "matchings", "chains"])
def test_unknown_family_names_the_choices(command):
    proc = run_cli(command, "--family", "bogus", expect=2)
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: unknown family 'bogus'; expected one of (")


def test_census_n8_matches_recurrence():
    doc = json.loads(run_cli("census", "--n", "8", "--budget-override").stdout)
    assert doc["counts"] == list(connected_census(8))
    assert doc["total"] == 251_548_592
    assert max(doc["counts"]) == doc["counts"][14] == 39_183_840


def test_oversized_poset_reports_budget_error():
    proc = run_cli("sperner", "--n", "7", expect=2)
    assert "budget" in proc.stderr


def test_explore_quotient():
    doc = json.loads(run_cli("explore", "quotient", "--n", "4").stdout)
    assert doc["element_count"] == 6
    assert doc["width"] == 2
    assert doc["sperner"] is True


def test_explore_cprime():
    doc = json.loads(run_cli("explore", "cprime", "--n", "3").stdout)
    assert doc["non_sperner"] == []
    assert len(doc["reports"]) == 3


@pytest.mark.parametrize("argv, hint", [
    (("--n", "7"), "--budget-override"),
    (("--n", "8", "--budget-override"), "budget of n<=7"),
])
def test_explore_cprime_budget_names_the_limit(argv, hint):
    proc = run_cli("explore", "cprime", *argv, expect=2)
    assert proc.stdout == ""
    assert proc.stderr.startswith("budget error: ") and hint in proc.stderr


def test_explore_hamiltonian():
    doc = json.loads(run_cli("explore", "hamiltonian", "--n", "4").stdout)
    assert doc["element_count"] == 10
    assert doc["graded"] is True
    assert doc["width"] == 6


def test_shadow_ratio_and_reports_run():
    run_cli("lemma", "shadow-ratio", "--n", "4")
    run_cli("lemma", "disc", "--n", "4")
    run_cli("lemma", "irk", "--n", "4")
    run_cli("lemma", "tech", "--n", "5")
    run_cli("lemma", "chorded", "--q-max", "4")


def test_lovasz_seeded():
    proc = run_cli("lemma", "lovasz", "--n", "4", "--trials", "25", "--seed", "9")
    doc = json.loads(proc.stdout)
    assert doc["seed"] == 9 and doc["trials"] == 25


@pytest.mark.parametrize(
    "args",
    [
        ("sperner", "--n", "4"),
        ("census", "--n", "5"),
        ("lemma", "lovasz", "--n", "4", "--trials", "20", "--seed", "7"),
        ("lemma", "shadow-ratio", "--n", "5", "--format", "csv"),
        ("explore", "quotient", "--n", "4", "--format", "ndjson"),
        ("chains", "--n", "4", "--format", "ndjson"),
    ],
)
def test_byte_identical_reruns(args):
    first = run_cli(*args).stdout
    second = run_cli(*args).stdout
    assert first == second


def test_out_file_writing(tmp_path):
    target = tmp_path / "census.json"
    run_cli("census", "--n", "4", "--out", str(target))
    doc = json.loads(target.read_text(encoding="utf-8"))
    assert doc["total"] == 38
    assert target.read_text().endswith("\n")


@pytest.mark.parametrize("path", [".", "missing/x.json"])
def test_out_path_that_cannot_be_opened_exits_2(path, tmp_path):
    # a directory, and a file in a directory that does not exist
    target = tmp_path / path
    proc = run_cli("census", "--n", "3", "--out", str(target), expect=2)
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: cannot write --out {target}: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("path", [".", "missing/x.json", ""])
def test_unwritable_out_fails_before_the_sweep(path, tmp_path, monkeypatch, capsys):
    from connposet import bounds, cli

    def no_sweep(*args):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(bounds, "lovasz_sweep", no_sweep)
    monkeypatch.chdir(tmp_path)  # where a file named by a relative path would go
    target = tmp_path / path if path else ""
    assert cli.main(["lemma", "lovasz", "--n", "6", "--out", str(target)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write --out {target}: ")
    assert list(tmp_path.iterdir()) == []  # no file made


def test_failed_write_exits_2_without_traceback(tmp_path, monkeypatch, capsys):
    # the path opens, but the write fails, as on a full disk
    import errno
    import io
    import os

    from connposet import cli

    class FullFile(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli, "open", lambda *args, **kwargs: FullFile(), raising=False)
    target = tmp_path / "census.json"
    assert cli.main(["census", "--n", "3", "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write --out {target}: {os.strerror(errno.ENOSPC)}\n"


def test_workers_do_not_change_output(tmp_path):
    one = tmp_path / "w1.json"
    two = tmp_path / "w2.json"
    run_cli("census", "--n", "5", "--workers", "1", "--out", str(one))
    run_cli("census", "--n", "5", "--workers", "3", "--out", str(two))
    assert one.read_bytes() == two.read_bytes()
    for args in (
        ("census", "--family", "connected"),
        ("census", "--family", "all"),
        ("census", "--family", "two_edge_connected"),
        ("lemma", "skeleton"),
        ("lemma", "removable"),
        ("lemma", "irk"),
        ("explore", "hamiltonian"),
        ("sperner",),
        ("chains",),
        ("matchings", "--k", "4"),
    ):
        serial = run_cli(*args, "--n", "5", "--workers", "1").stdout
        assert run_cli(*args, "--n", "5", "--workers", "2").stdout == serial, args


@pytest.mark.parametrize("command", ["sperner", "chains"])
def test_empty_universe_is_reported(command):
    # no graph on two vertices is 2-edge-connected
    proc = run_cli(command, "--n", "2", "--family", "two_edge_connected", expect=2)
    assert proc.stdout == ""
    assert proc.stderr == "error: the universe is empty: it has no largest level\n"


@pytest.mark.parametrize(
    "args",
    [("matchings", "--n", "5", "--format", "ndjson")]
    + [("chains", "--n", "5", "--format", fmt) for fmt in ("json", "ndjson", "csv")],
)
def test_out_file_holds_the_stdout_bytes(args, tmp_path):
    path = tmp_path / "out"
    stdout = run_cli(*args).stdout
    assert stdout
    assert run_cli(*args, "--out", str(path)).stdout == ""
    assert path.read_bytes() == stdout.encode("utf-8")
