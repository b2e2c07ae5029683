"""Self-tests of the benchmark: its checker must reject bad output.

    python3 -m pytest -q perfbench

Each mutation below starts from a real, passing job output and breaks one
fact the checker is meant to enforce.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import checks
import run

ROOT = Path(__file__).resolve().parent.parent


def connposet(*argv: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-m", "connposet", *argv], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    return done.stdout


@pytest.fixture(scope="module")
def chains_doc() -> dict:
    return json.loads(connposet("chains", "--n", "6"))


@pytest.fixture(scope="module")
def sperner_doc() -> dict:
    return json.loads(connposet("sperner", "--n", "6"))


def test_pinned_levels_match_an_independent_scan():
    connected = checks.connected_masks()
    assert checks.level_sizes(connected) == checks.CONNECTED_LEVELS
    two_ec = [b for b in connected if checks.is_two_edge_connected(b)]
    assert checks.level_sizes(two_ec) == checks.TWO_EDGE_CONNECTED_LEVELS


def test_real_outputs_pass(chains_doc, sperner_doc):
    assert checks.check_chains(json.dumps(chains_doc)) == []
    assert checks.check_sperner_connected(json.dumps(sperner_doc)) == []


def test_chain_with_duplicate_graph_fails(chains_doc):
    doc = json.loads(json.dumps(chains_doc))
    long_chain = next(c for c in doc["chains"] if len(c) > 2)
    other = next(c for c in doc["chains"] if c is not long_chain)
    long_chain[1] = other[0]
    assert checks.check_chains(json.dumps(doc))


def test_chain_with_two_edge_step_fails(chains_doc):
    doc = json.loads(json.dumps(chains_doc))
    chain = next(c for c in doc["chains"] if len(c) > 2)
    del chain[1]
    problems = checks.check_chains(json.dumps(doc))
    assert any("one edge" in p for p in problems)


def test_wrong_chain_count_fails(chains_doc):
    doc = json.loads(json.dumps(chains_doc))
    doc["chains"].pop()
    doc["count"] -= 1
    assert checks.check_chains(json.dumps(doc))
    doc = json.loads(json.dumps(chains_doc))
    doc["count"] += 1
    assert checks.check_chains(json.dumps(doc))


def test_wrong_width_fails(sperner_doc):
    doc = dict(sperner_doc, width=sperner_doc["width"] - 1)
    assert checks.check_sperner_connected(json.dumps(doc))
    doc = dict(sperner_doc, antichain=sperner_doc["antichain"][:-1])
    assert checks.check_sperner_connected(json.dumps(doc))


def test_comparable_antichain_fails():
    assert checks.antichain_problems([0b011, 0b111])
    assert checks.antichain_problems([0b011, 0b011])
    assert checks.antichain_problems([0b011, 0b101, 0b110]) == []


def test_matching_pair_that_is_not_a_step_fails():
    good = {"n": 6, "k_from": 5, "k_to": 6, "from": "6:44b", "to": "6:44f"}
    bad = dict(good, to="6:45f", k_to=7)
    text = "\n".join(json.dumps(r) for r in [bad] * checks.MATCHED_PAIRS)
    assert checks.check_matchings_ndjson(text)


def test_job_exiting_1_is_a_failure():
    runner = run.Runner(deadline=time.perf_counter() + 120)
    result = runner.run(run.Job("selftest", ("lemma", "selftest"), checks.check_removable))
    assert result.problems == ["exit code 1"]
    assert (runner.attempted, len(runner.problems)) == (1, 1)


def test_injected_bad_output_is_a_failure():
    runner = run.Runner(deadline=time.perf_counter() + 120)
    assert runner.run(run.SETUP_JOB).problems == []
    result = runner.run(run.Job("binom-as-quotient", run.SETUP_JOB.argv,
                                checks.check_quotient))
    assert result.problems
    assert (runner.attempted, len(runner.problems)) == (2, 1)


def test_trace_collects_pool_workers():
    runner = run.Runner(deadline=time.perf_counter() + 120)
    prefix = run.WORKDIR / "trace" / "selftest-census"
    job = run.Job("census", ("census", "--n", "5", "--workers", "2"), lambda out: [])
    assert runner.run(job, prefix).problems == []
    trace = run.read_trace(prefix)
    assert trace["calls"]["graphs.scan"] == 2
    assert trace["counts"]["graphs.scan.masks"] == 1 << 10
    assert trace["missing"] == set()


def test_benchmark_json_matches_run_py():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
