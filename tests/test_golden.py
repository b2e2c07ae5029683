"""Byte-level regression guard for the command-line output.

`tests/golden_stdout.json` maps each command below to the exit code and the
sha256 of the stdout it produced when the file was recorded.  The commands
cover every subcommand at n <= 5 in json, ndjson and csv, the n = 6
commands of the benchmark workloads, the other n = 6 formats of `matchings`
and `chains`, `lemma tech`, `lemma shadow-ratio` and `lemma lovasz` at n = 6,
and the census, `sperner` (connected and two-edge-connected), `lemma disc`,
`lemma irk`, `lemma skeleton`, `lemma removable`, `lemma tech`,
`lemma shadow-ratio`, `explore quotient`, `explore hamiltonian`, `chains`
and `explore cprime` at n = 7, and `lemma chorded` at q = 6 and 7.  Stderr
is not compared.

Re-record (only after a deliberate output change) with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden_stdout.json")
FORMATS = ("json", "ndjson", "csv")
FAMILIES = ("connected", "all", "two_edge_connected")


def small_commands():
    base = []
    for n in range(1, 6):
        for family in FAMILIES:
            for sub in ("census", "sperner", "matchings", "chains"):
                base.append((sub, "--n", str(n), "--family", family))
        for lemma in ("disc", "skeleton", "removable", "irk", "tech", "lovasz",
                      "shadow-ratio"):
            base.append(("lemma", lemma, "--n", str(n)))
        for which in ("cprime", "quotient", "hamiltonian"):
            base.append(("explore", which, "--n", str(n)))
    base += [
        ("matchings", "--n", "4", "--k", "3"),
        ("lemma", "squares"),
        ("lemma", "chorded", "--q-max", "4"),
        ("lemma", "technical", "--trials", "2000"),
        ("lemma", "appendix"),
        ("lemma", "selftest"),
        ("binom", "--x", "6.5", "--k", "3"),
        ("binom", "--target", "15", "--k", "2"),
    ]
    return [argv + ("--format", fmt) for fmt in FORMATS for argv in base]


# the n = 6 jobs of perfbench/run.py's workloads, argument for argument
BENCH_COMMANDS = [
    ("sperner", "--n", "6"),
    ("sperner", "--n", "6", "--family", "two_edge_connected"),
    ("chains", "--n", "6"),
    ("matchings", "--n", "6", "--format", "ndjson"),
    ("lemma", "removable", "--n", "6", "--workers", "2"),
    ("lemma", "skeleton", "--n", "6", "--workers", "2"),
    ("lemma", "irk", "--n", "6", "--workers", "2"),
    ("census", "--n", "6", "--family", "two_edge_connected", "--workers", "2"),
    ("lemma", "chorded", "--q-max", "5"),
    ("explore", "quotient", "--n", "6"),
    ("explore", "cprime", "--n", "6"),
    ("explore", "hamiltonian", "--n", "6"),
]


# the n = 6 formats of the bitmask writers that the workloads do not run,
# recorded from the writers that went through json.dumps and csv
WRITER_COMMANDS = [
    ("matchings", "--n", "6", "--format", "json"),
    ("matchings", "--n", "6", "--format", "csv"),
    ("chains", "--n", "6", "--format", "ndjson"),
    ("chains", "--n", "6", "--format", "csv"),
]


# the tech sweep at n = 6, recorded from parts relabelled and labelled alone,
# and the shadow-ratio report at n = 6, recorded from the per-level bit lists
# and their shadows as Python sets
TECH_COMMANDS = [("lemma", "tech", "--n", "6"), ("lemma", "shadow-ratio", "--n", "6")]


# the Lovasz sweep at n = 6, recorded from families of EdgeSets and their
# shadows as Python sets
LOVASZ_COMMANDS = [("lemma", "lovasz", "--n", "6")]


# census and disc at n = 7, recorded from the per-mask predicate scans, irk
# at n = 7, recorded from the labelled walk over the bridgeless graphs, the
# quotient at n = 7, recorded from the per-bit relabelling and the
# labelled-graph canon dict, the Hamiltonian poset at n = 7, recorded from
# the per-mask predicate scan and the member-list closure loops, and the
# skeleton and removability sweeps at n = 7, recorded from the labelled walk
# that gave each connected graph its cut labels, and the tech sweep and the
# shadow-ratio report at n = 7, recorded from the same walk and from the
# per-level bit lists, and the sperner verdicts at n = 7, recorded from level
# matchings that searched every adjacency row, and `chains` and `explore
# cprime` at n = 7, recorded from level-pair searches and hosts that ran in
# one process
N7_COMMANDS = [
    ("census", "--n", "7", "--budget-override", "--family", family) for family in FAMILIES
] + [("sperner", "--n", "7", "--budget-override"),
     ("sperner", "--n", "7", "--budget-override", "--family", "two_edge_connected"),
     ("lemma", "disc", "--n", "7", "--budget-override"),
     ("lemma", "irk", "--n", "7", "--budget-override"),
     ("lemma", "skeleton", "--n", "7", "--budget-override"),
     ("lemma", "removable", "--n", "7", "--budget-override"),
     ("lemma", "tech", "--n", "7", "--budget-override"),
     ("lemma", "shadow-ratio", "--n", "7", "--budget-override"),
     ("explore", "quotient", "--n", "7", "--budget-override"),
     ("explore", "hamiltonian", "--n", "7", "--budget-override"),
     ("chains", "--n", "7", "--budget-override"),
     ("explore", "cprime", "--n", "7", "--budget-override")]


# the chorded-cycle sweep at q = 6, recorded from the walk over all 3^15
# multiplicity patterns that called both predicates wherever every lower
# cover passed, and at q = 7, recorded from the walk over one pattern per
# isomorphism class, whose 2,757,682 chorded-cycle-free patterns, no bound
# violation and 56,616 non-cacti at q = 7 match an earlier, independent walk
CHORDED_COMMANDS = [("lemma", "chorded", "--q-max", "6"), ("lemma", "chorded", "--q-max", "7")]


def run(argv):
    """Exit code and stdout sha256 of one in-process CLI run."""
    from connposet import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return [code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()]


def _mismatches(commands):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    bad = []
    for argv in commands:
        key = " ".join(argv)
        got = run(argv)
        if golden[key] != got:
            bad.append((key, golden[key], got))
    return bad


def test_small_outputs_match_golden():
    assert _mismatches(small_commands()) == []


def test_bench_outputs_match_golden():
    assert _mismatches(BENCH_COMMANDS) == []


def test_writer_n6_outputs_match_golden():
    assert _mismatches(WRITER_COMMANDS) == []


def test_tech_n6_output_matches_golden():
    assert _mismatches(TECH_COMMANDS) == []


def test_lovasz_n6_output_matches_golden():
    assert _mismatches(LOVASZ_COMMANDS) == []


def test_n7_outputs_match_golden():
    assert _mismatches(N7_COMMANDS) == []


def test_chorded_q6_output_matches_golden():
    assert _mismatches(CHORDED_COMMANDS) == []


if __name__ == "__main__":
    commands = (small_commands() + BENCH_COMMANDS + WRITER_COMMANDS + TECH_COMMANDS
                + LOVASZ_COMMANDS + N7_COMMANDS + CHORDED_COMMANDS)
    record = {" ".join(argv): run(argv) for argv in commands}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(record)} commands to {GOLDEN}", file=sys.stderr)
