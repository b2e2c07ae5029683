"""Batch command-line interface.

Every verification, census and explorer is a subcommand writing
machine-readable output (json, ndjson or csv).  Exit codes: 0 when all
asserted invariants passed, 1 when an asserted invariant failed (the
counterexample is printed), 2 for usage or budget errors.  Rows evaluating
asymptotic bounds are reports and never affect the exit code.  Identical
invocations (including --seed) produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

# Each subcommand imports the compute modules it calls, so a process compiles
# only those: `binom` loads bounds and no graph module (README, Start-up).
from .limits import BudgetExceededError, ChainPartitionError

# The sweep flags each lemma reads, with their defaults.  Every sweep flag is
# None on the parser, so one given to a lemma that does not read it shows and
# is a usage error; --format, --out, --budget-override and --workers are
# taken by every lemma.
SWEEP_FLAGS = ("n", "k", "epsilon", "seed", "trials", "q_max", "n_max")
LEMMA_FLAGS = {
    "squares": {"n_max": 20}, "disc": {"n": 5}, "skeleton": {"n": 5}, "removable": {"n": 5},
    "chorded": {"q_max": 5}, "irk": {"n": 5, "epsilon": 1.0}, "tech": {"n": 5},
    "lovasz": {"n": 5, "seed": 0, "trials": 200}, "technical": {"seed": 0, "trials": 100_000},
    "shadow-ratio": {"n": 5, "k": None, "epsilon": 1 / 18}, "appendix": {}, "selftest": {},
}

FORMATS = ("json", "ndjson", "csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="connposet",
        description="Verification and exploration of the connected-graph edge poset.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, default_n: int | None = 4) -> None:
        p.add_argument("--n", type=int, default=default_n, help="vertex count")
        p.add_argument("--workers", type=int, default=1,
                       help="accepted for compatibility; has no effect")
        p.add_argument("--format", dest="fmt", default="json", choices=FORMATS)
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--budget-override", action="store_true")

    def family(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
        # the lemmas and the explorers fix their own universes and take no --family
        p.add_argument("--family", default="connected",
                       help="graph family: connected | all | two_edge_connected | "
                            "hamiltonian | contains_triangle")
        return p

    # the family subcommands take no tolerance or sample, and only
    # `matchings` takes a level
    common(family(sub.add_parser("census", help="per-level counts of a family")))
    common(family(sub.add_parser("sperner", help="exact width versus largest level")))
    matchings = family(sub.add_parser("matchings", help="adjacent-level matching table"))
    matchings.add_argument("--k", type=int, default=None, help="edge-count level")
    common(matchings)
    common(family(sub.add_parser("chains", help="chain partition through the largest level")))

    lemma = sub.add_parser("lemma", help="run one verification sweep")
    lemma.add_argument("id", choices=LEMMA_FLAGS)
    lemma.add_argument("--k", type=int, default=None, help="edge-count level")
    lemma.add_argument("--epsilon", type=float, default=None)
    lemma.add_argument("--seed", type=int, default=None)
    lemma.add_argument("--trials", type=int, default=None, help="randomized trial count")
    common(lemma, default_n=None)
    lemma.add_argument("--q-max", type=int, default=None, help="multigraph sweep size")
    lemma.add_argument("--n-max", type=int, default=None,
                       help="largest n for the composition sweep (squares)")

    explore = sub.add_parser("explore", help="open-question explorers")
    explore.add_argument("which", choices=("cprime", "quotient", "hamiltonian"))
    common(explore, default_n=4)

    binom = sub.add_parser("binom", help="extended binomial evaluator")
    binom.add_argument("--x", type=float, default=None)
    binom.add_argument("--k", type=int, required=True)
    binom.add_argument("--target", type=float, default=None,
                       help="invert: find x with binom(x, k) = target")
    binom.add_argument("--out", default=None)
    binom.add_argument("--format", dest="fmt", default="json", choices=FORMATS)
    return parser


# ---------------------------------------------------------------------------
# serialization


def _clean(value):
    if isinstance(value, float) and (value != value or value in (float("inf"), float("-inf"))):
        return None
    if isinstance(value, dict):
        return {str(k): _clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    return value


def _check_out(out: str) -> None:
    """Refuse an --out path that _write could not open, before any
    computation, with the error _write would give; no file is made."""
    import errno
    import os

    parent = os.path.dirname(out) or "."
    if os.path.isdir(out):
        code = errno.EISDIR
    elif not out or not os.path.isdir(parent):
        code = errno.ENOENT
    elif not os.access(out if os.path.exists(out) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise ValueError(f"cannot write --out {out}: {os.strerror(code)}")


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:  # a path that cannot be written is a usage error
            raise ValueError(f"cannot write --out {out}: {exc.strerror}") from None


def _emit(doc, records, fmt: str, out: str | None, columns: list[str] | None = None) -> None:
    """Write one document (json) or its row expansion (ndjson/csv)."""
    if fmt == "json":
        text = json.dumps(_clean(doc), sort_keys=True) + "\n"
    elif fmt == "ndjson":
        text = "".join(json.dumps(_clean(rec), sort_keys=True) + "\n" for rec in records)
    else:
        if columns is None:
            keys: list[str] = []
            for rec in records:
                for key in rec:
                    if key not in keys:
                        keys.append(key)
            columns = keys
        if not columns:
            _write("", out)
            return
        import csv
        import io
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=columns, extrasaction="ignore",
                                restval="", lineterminator="\n")
        writer.writeheader()
        for rec in records:
            writer.writerow({k: _csv_cell(v) for k, v in _clean(rec).items()})
        text = buf.getvalue()
    _write(text, out)


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, dict)):
        return json.dumps(_clean(value), sort_keys=True)
    return value


# ---------------------------------------------------------------------------
# subcommands


def _cmd_census(args) -> int:
    from . import graphs
    census = graphs.level_census(args.n, args.family, args.budget_override)
    doc = {
        "n": census.n,
        "family": census.family,
        "counts": list(census.counts),
        "total": census.total,
    }
    rows = [
        {"n": census.n, "family": census.family, "k": k, "count": c}
        for k, c in enumerate(census.counts)
    ]
    _emit(doc, rows, args.fmt, args.out, ["n", "family", "k", "count"])
    return 0


# The width core proves width = |level K|, so that level K is a largest
# antichain, or raises ChainPartitionError, which exits 1: every width
# document it writes carries these keys unchanged.
PROVED = {"sperner": True, "strict": True, "margin": 0, "non_sperner": [],
          "note": "conjectured answer: yes (Sperner)"}
WIDTH_KEYS = ("element_count", "level_sizes", "max_level_k", "max_level_size", "width",
              "sperner")


def _width_doc(report, *keys: str) -> dict:
    """A width report's keys, in the command's order (csv takes its columns
    from it): the report's fields, level_sizes keyed by str, the largest
    level's size, which is the width, and the PROVED keys."""
    values = {**PROVED, "max_level_size": report.width,
              "level_sizes": {str(k): v for k, v in sorted(report.level_sizes.items())}}
    return {key: values[key] if key in values else getattr(report, key) for key in keys}


def _cmd_sperner(args) -> int:
    from . import graphs, poset
    report = poset.sperner_verdict(args.n, args.family, args.budget_override)
    level = graphs._level_bits(args.n, args.family)[report.max_level_k]
    doc = {**_width_doc(report, "n", "universe", *WIDTH_KEYS, "strict"),
           "antichain": list(map(f"{args.n}:%x".__mod__, level)),
           "method": "chains"}  # the glued level matchings, the only width route
    rows = [{k: v for k, v in doc.items() if k not in ("antichain", "level_sizes")}]
    _emit(doc, rows, args.fmt, args.out)
    return 0


# The writers below format edge bitmasks straight into the bytes that
# json.dumps(..., sort_keys=True) or the csv module gives: every value is an
# int or an "n:HEX" string, which needs no escaping or quoting.


def _cmd_matchings(args) -> int:
    from . import poset
    results = poset.level_matchings(args.n, args.family, args.k, args.budget_override)
    if args.fmt == "ndjson":
        chunks = []
        for res in results:
            n = res.n
            line = (f'{{"from": "{n}:%x", "k_from": {res.k_from}, "k_to": {res.k_to}, '
                    f'"n": {n}, "to": "{n}:%x"}}\n')
            chunks.append("".join(map(line.__mod__, res.pair_bits)))
        text = "".join(chunks)
        del chunks  # free the pieces before _write encodes a copy of the text
        _write(text, args.out)
        return 0
    table = [
        {
            "n": res.n,
            "universe": res.universe,
            "k_from": res.k_from,
            "k_to": res.k_to,
            "size_from": res.size_from,
            "size_to": res.size_to,
            "matching_size": res.matching_size,
            "complete": res.complete,
            "violator": None
            if res.violator_bits is None
            else [f"{res.n}:{b:x}" for b in res.violator_bits],
        }
        for res in results
    ]
    doc = {"n": args.n, "universe": args.family, "matchings": table}
    rows = [{k: v for k, v in row.items() if k != "violator"} for row in table]
    _emit(doc, rows, args.fmt, args.out,
          ["n", "universe", "k_from", "k_to", "size_from", "size_to",
           "matching_size", "complete"])
    return 0


def _cmd_chains(args) -> int:
    from . import poset
    partition = poset.chain_partition(args.n, args.family, args.budget_override)
    n, chains = partition.n, partition.chain_bits
    if args.fmt == "csv":
        text = "chain_index,position,graph\n" + "".join(
            "".join(map(f"{i},%d,{n}:%x\n".__mod__, enumerate(chain)))
            for i, chain in enumerate(chains)
        )
    else:
        graph = f'"{n}:%x"'.__mod__
        lists = (f'[{", ".join(map(graph, chain))}]' for chain in chains)
        if args.fmt == "json":
            text = (f'{{"chains": [{", ".join(lists)}], '
                    f'"count": {partition.count}, "n": {n}}}\n')
        else:
            text = "".join(f'{{"chain": {chain}}}\n' for chain in lists)
    _write(text, args.out)
    return 0


def _fail(name: str, findings) -> int:
    for finding in findings[:20]:
        print(f"FAIL {name}: {json.dumps(_clean(finding), sort_keys=True)}", file=sys.stderr)
    if len(findings) > 20:
        print(f"FAIL {name}: ... {len(findings) - 20} more", file=sys.stderr)
    return 1


def _at_least_one(flag: str, value: int) -> int:
    """A sweep size; below 1 the sweep would check nothing and still pass."""
    if value < 1:
        raise ValueError(f"{flag} must be at least 1, got {value}")
    return value


def _cmd_lemma(args) -> int:
    name = args.id
    reads = LEMMA_FLAGS[name]
    for dest in SWEEP_FLAGS:
        if getattr(args, dest) is None:
            setattr(args, dest, reads.get(dest))
        elif dest not in reads:
            raise ValueError(f"lemma {name} does not read --{dest.replace('_', '-')}")
    # each branch computes the document, its rows and the failed invariants
    columns = None
    if name == "squares":
        from . import bounds
        checked, findings = bounds.squares_sweep(_at_least_one("--n-max", args.n_max))
        doc = {"lemma": name, "n_max": args.n_max, "checked": checked,
               "violations": findings}
        rows = findings or [{"checked": checked}]
    elif name == "disc":
        from . import bounds
        rows = [r.as_row() for r in bounds.disconnected_report(args.n, args.budget_override)]
        doc = {"lemma": name, "n": args.n, "rows": rows}
        findings = [r for r in rows if r["name"] != "disc_total" and not r["holds"]]
    elif name in ("skeleton", "removable"):
        from . import connectivity
        sweep = (connectivity.skeleton_findings if name == "skeleton"
                 else connectivity.removability_findings)
        checked, findings = sweep(args.n, args.budget_override)
        doc = {"lemma": name, "n": args.n, "checked": checked, "findings": findings}
        rows = findings or [{"checked": checked}]
    elif name == "chorded":
        from . import connectivity
        sweep = connectivity.chorded_cycle_sweep(_at_least_one("--q-max", args.q_max))
        doc = {"lemma": name, "q_max": args.q_max, **sweep}
        rows = [{"q": q, **stats} for q, stats in sorted(sweep["per_q"].items())]
        findings = sweep["bound_violations"] + [
            {"problem": "doubled star not tight", "q": q}
            for q, stats in sweep["per_q"].items()
            if not stats["doubled_star_tight"]
        ]
        if sweep["mismatches"]:
            print(
                f"note: block test and chorded-cycle test diverge on "
                f"{len(sweep['mismatches'])} instances (reported, not asserted)",
                file=sys.stderr,
            )
    elif name == "irk":
        from . import bounds, graphs
        census = bounds.i_r_census(args.n, args.epsilon, args.budget_override)
        rows = [r.as_row() for r in census.reports]
        doc = {
            "lemma": name,
            "n": args.n,
            "epsilon": args.epsilon,
            "table": {f"{k},{r}": c for (k, r), c in sorted(census.table.items())},
            "rows": rows,
        }
        columns = ["name", "n", "k", "r", "epsilon", "count",
                   "lhs_log2", "rhs_log2", "holds", "margin_log2", "note"]
        total = census.total()
        # the (k, r) table's total against the census of the two-edge-connected plane
        expected = graphs.level_census(args.n, "two_edge_connected", args.budget_override).total
        findings = [] if total == expected else [
            {"problem": "census total mismatch", "total": total, "expected": expected}]
    elif name == "tech":
        from . import bounds
        summary = bounds.tech_inequality_sweep(args.n, args.budget_override)
        doc, rows, findings = {"lemma": name, **summary}, [summary], []
    elif name == "lovasz":
        from . import bounds
        trials = _at_least_one("--trials", args.trials)
        rows, findings = bounds.lovasz_sweep(args.n, args.seed, trials, args.budget_override)
        doc = {"lemma": name, "n": args.n, "trials": trials, "seed": args.seed,
               "rows": rows}
    elif name == "technical":
        from . import bounds
        trials = _at_least_one("--trials", args.trials)
        findings = bounds.technical_sweep(args.seed, trials)
        doc = {"lemma": name, "trials": trials, "seed": args.seed, "violations": findings}
        rows = findings or [{"trials": trials, "violations": 0}]
    elif name == "shadow-ratio":
        from . import bounds
        reports = bounds.shadow_ratio_report(args.n, args.k, args.epsilon, args.budget_override)
        rows, findings = [r.as_row() for r in reports], []
        doc = {"lemma": name, "n": args.n, "epsilon": args.epsilon, "rows": rows}
    elif name == "appendix":
        from . import bounds
        rows, findings = [], []
        for item in (1, 2, 3, 4):
            grid = bounds.appendix_grid(item)
            failures = [
                {"item": item, "x": x, "k": k, "delta": d}
                for x, k, d in grid
                if not bounds.appendix_property_check(item, x, k, d)
            ]
            rows.append({"item": item, "points": len(grid), "failures": len(failures)})
            findings += failures
        doc = {"lemma": name, "rows": rows, "violations": findings}
    else:
        findings = [{"problem": "synthetic failing invariant (test hook)",
                     "witness": "selftest"}]
        doc, rows = {"lemma": name, "findings": findings}, findings
    _emit(doc, rows, args.fmt, args.out, columns)
    return _fail(name, findings) if findings else 0


def _cmd_explore(args) -> int:
    from . import quotient
    if args.which == "cprime":
        reports = quotient.cprime_search(args.n, args.budget_override)
        docs = [_width_doc(r, "universe", "n", *WIDTH_KEYS, "margin") for r in reports]
        doc = {"explore": "cprime", "n_max": args.n, "non_sperner": PROVED["non_sperner"],
               "reports": docs}
        rows = [{k: v for k, v in d.items() if k != "level_sizes"} for d in docs]
        _emit(doc, rows, args.fmt, args.out)
        return 0
    if args.which == "quotient":
        report = quotient.quotient_sperner(args.n, args.budget_override)
        doc = {"explore": "quotient",
               **_width_doc(report, "universe", "n", *WIDTH_KEYS, "margin", "note")}
    else:  # the parser's choices leave only hamiltonian
        report = quotient.property_poset_report(args.n, "hamiltonian", args.budget_override)
        doc = {"explore": "hamiltonian",
               **_width_doc(report, "n", "element_count", "level_sizes", "graded",
                            "upward_closed", "minimal_levels", "width", "max_level_k",
                            "max_level_size", "sperner")}
    _emit(doc, [{k: v for k, v in doc.items() if k != "level_sizes"}],
          args.fmt, args.out)
    return 0


def _cmd_binom(args) -> int:
    from . import bounds
    if (args.x is None) == (args.target is None):
        print("binom: provide exactly one of --x or --target", file=sys.stderr)
        return 2
    if args.target is not None:
        x = bounds.binom_inverse(args.target, args.k)
        doc = {"k": args.k, "target": args.target, "x": x}
    else:
        value = bounds.ext_binom(args.x, args.k)
        numeric = (
            value.exact
            if value.exact is not None
            else float(f"{value.value():.12g}")
        )
        doc = {"x": args.x, "k": args.k, "value": numeric, "log2": value.log2}
    _emit(doc, [doc], args.fmt, args.out)
    return 0


COMMANDS = {
    "census": _cmd_census,
    "sperner": _cmd_sperner,
    "matchings": _cmd_matchings,
    "chains": _cmd_chains,
    "lemma": _cmd_lemma,
    "explore": _cmd_explore,
    "binom": _cmd_binom,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.out is not None:
            _check_out(args.out)
        return COMMANDS[args.command](args)
    except ChainPartitionError as exc:  # a level pair blocks the gluing
        name = args.which if args.command == "explore" else args.command
        print(f"FAIL {name}: {exc} (pair {exc.k_from}->{exc.k_to})", file=sys.stderr)
        return 1
    except BudgetExceededError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"FAIL invariant: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
