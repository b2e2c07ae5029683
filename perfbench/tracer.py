"""Run one connposet CLI job with a span recorded around each layer call.

    python3 perfbench/tracer.py OUT_PREFIX -- <connposet arguments>

The package is not changed: this script replaces the module-level functions
named in LAYERS with wrappers (in every connposet module that imported
them), then calls `connposet.cli.main(argv)` and exits with its return code.
Each wrapper records a span (layer, start, end, parent) in memory.  When the
job ends, the spans are reduced to per-layer calls and self time (a span's
duration minus the time covered by its child spans) and written once, to
OUT_PREFIX.main.json.

`--workers` pools fork from the job process, so the wrappers are active in
the workers too.  A worker's spans are reset at fork and written to
OUT_PREFIX.<pid>.<n>.json each time one of its top-level spans (one pool
task) ends, before the task's result goes back to the pool.  A pool started
with the spawn method would not carry the wrappers, and its layer time would
be missing from the trace.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from array import array
from collections import Counter

ROOT = "cli.main"

# (module, function, layer).  Several functions may feed one layer.
LAYERS = (
    ("graphs", "level_census", "graphs.scan"),
    ("graphs", "_census_range", "graphs.scan"),
    ("graphs", "_level_bits", "graphs.scan"),
    ("connectivity", "_bridge_slots", "connectivity.bridges"),
    ("connectivity", "_removable_slots", "connectivity.removable"),
    ("connectivity", "_skeleton_range", "connectivity.sweep"),
    ("connectivity", "_removability_range", "connectivity.sweep"),
    ("connectivity", "is_chorded_cycle_free", "connectivity.chorded"),
    ("connectivity", "is_cactus", "connectivity.cactus"),
    ("connectivity", "chorded_cycle_sweep", "connectivity.chorded_sweep"),
    ("poset", "_subset_order_neighbors", "poset.adjacency"),
    ("poset", "_level_pair_adjacency", "poset.adjacency"),
    ("poset", "hopcroft_karp", "poset.matching"),
    ("poset", "_alternating_reachable", "poset.certificate"),
    ("poset", "adjacent_level_matching", "poset.level_matching"),
    ("poset", "chain_partition", "poset.chains"),
    ("poset", "width_dilworth", "poset.width"),
    ("poset", "sperner_verdict", "poset.width"),
    ("quotient", "_connected_classes", "quotient.classes"),
    ("quotient", "quotient_poset", "quotient.classes"),
    ("quotient", "_closure_from_covers", "quotient.classes"),
    ("quotient", "quotient_sperner", "quotient.classes"),
    ("quotient", "cprime_sperner", "quotient.cprime"),
    ("quotient", "property_poset_report", "quotient.property"),
    ("bounds", "i_r_census", "bounds.irk"),
    ("cli", "_emit", "cli.emit"),
)


def _masks(n: int) -> int:
    return 1 << (n * (n - 1) // 2)


def _rows_pairs(rows) -> int:
    return sum(len(row) for row in rows)


# Counters taken from a call's arguments and result, by function name.
COUNTERS = {
    "level_census": lambda c, a, r: c.update({"graphs.scan.masks": _masks(a[0])}),
    "_census_range": lambda c, a, r: c.update({"graphs.scan.masks": a[3] - a[2]}),
    # the adjacency getter is a bound list.__getitem__ unless rows are streamed
    "_subset_order_neighbors": lambda c, a, r: c.update(
        {"poset.adjacency.pairs": _rows_pairs(getattr(r, "__self__", ()))}),
    "_level_pair_adjacency": lambda c, a, r: c.update(
        {"poset.adjacency.pairs": _rows_pairs(r)}),
    "hopcroft_karp": lambda c, a, r: c.update({"poset.matching.size": r[0]}),
}


class Recorder:
    """Spans of one process, kept in flat arrays until they are written."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.main_pid = os.getpid()
        self.names: list[str] = [ROOT]
        self.ids = {ROOT: 0}
        self.written = 0
        self.missing: list[str] = []
        self.reset()

    def reset(self) -> None:
        self.layer = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def layer_id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def open(self, layer: int) -> int:
        i = len(self.layer)
        self.layer.append(layer)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def task_done(self) -> None:
        """In a pool worker, write the spans of each finished top-level task."""
        if not self.stack and os.getpid() != self.main_pid:
            self.write(f"{os.getpid()}.{self.written}")

    def wrap(self, fn, layer: str):
        layer_no = self.layer_id(layer)
        count = COUNTERS.get(fn.__name__)
        # the per-level bit lists are cached per process; count hits and fills
        cache_info = getattr(fn, "cache_info", None) if fn.__name__ == "_level_bits" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            misses = cache_info().misses if cache_info else 0
            i = self.open(layer_no)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if cache_info:
                missed = cache_info().misses - misses
                self.counts["graphs.levels.calls"] += 1
                self.counts["graphs.levels.misses"] += missed
                if missed:
                    self.counts["graphs.scan.masks"] += _masks(args[0])
            if count:
                count(self.counts, args, result)
            self.task_done()
            return result

        return wrapper

    def summary(self) -> dict:
        """Calls and self time per layer; self = duration - children's durations."""
        child = [0.0] * len(self.layer)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i, layer in enumerate(self.layer):
            name = self.names[layer]
            calls[name] += 1
            self_s[name] += self.end[i] - self.start[i] - child[i]
        return {"pid": os.getpid(), "spans": len(self.layer),
                "calls": dict(calls), "self_s": dict(self_s),
                "counts": dict(self.counts), "missing": self.missing}

    def write(self, tag: str) -> None:
        with open(f"{self.prefix}.{tag}.json", "w", encoding="utf-8") as fh:
            json.dump(self.summary(), fh)
        self.written += 1
        self.reset()


def _count_patterns(rec: Recorder, gen_fn):
    """Count the multiplicity patterns a sweep enumerates (no span: 10^6 items)."""

    @functools.wraps(gen_fn)
    def counted(*args, **kwargs):
        for item in gen_fn(*args, **kwargs):
            rec.counts["connectivity.chorded_sweep.patterns"] += 1
            yield item

    return counted


def _emit_bytes(rec: Recorder, write_fn):
    @functools.wraps(write_fn)
    def counted(text, out):
        rec.counts["cli.emit.bytes"] += len(text.encode("utf-8"))
        return write_fn(text, out)

    return counted


def _replace(original, replacement) -> None:
    """Rebind every connposet module global that names `original`."""
    for name, module in list(sys.modules.items()):
        if name == "connposet" or name.startswith("connposet."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(rec: Recorder) -> None:
    """Wrap every function in LAYERS; names that no longer exist go to rec.missing."""
    importlib.import_module("connposet")
    missing = rec.missing
    for mod_name, fn_name, layer in LAYERS:
        module = importlib.import_module(f"connposet.{mod_name}")
        fn = getattr(module, fn_name, None)
        if fn is None:
            missing.append(f"{mod_name}.{fn_name}")
            continue
        _replace(fn, rec.wrap(fn, layer))
    for mod_name, fn_name, make in (("connectivity", "_multigraphs_on", _count_patterns),
                                    ("cli", "_write", _emit_bytes)):
        module = importlib.import_module(f"connposet.{mod_name}")
        fn = getattr(module, fn_name, None)
        if fn is None:
            missing.append(f"{mod_name}.{fn_name}")
        else:
            _replace(fn, make(rec, fn))


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py OUT_PREFIX -- <connposet arguments>", file=sys.stderr)
        return 2
    rec = Recorder(argv[0])
    install(rec)
    os.register_at_fork(after_in_child=rec.reset)
    from connposet import cli

    root = rec.open(0)
    try:
        return cli.main(argv[2:])
    finally:
        rec.close(root)
        rec.write("main")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
