"""connposet benchmark: exhaustive n=6 verdicts, run the way users run them.

    python3 perfbench/run.py --workload verdict-n6 --seed 1 --seconds 30 --trace 0

Every job is a fresh `python -m connposet ...` process with `src` on
PYTHONPATH, launched one at a time from this single parent process, so each
job pays its own interpreter start, scan and level-cache fill, just as a CLI
user does.  Every job's exit code and output are checked by checks.py, which
does not import connposet.  A pass runs all of the workload's jobs once, in
an order shuffled by --seed; the seed changes nothing else.  Passes repeat
until --seconds have gone by (a pass that has started is finished).

--trace 0 prints the end-to-end metrics:
  setup_s      median wall time of the trivial job `binom --x 6.5 --k 3`,
               run three times before each pass (interpreter start, package
               import, argument parsing);
  wall_s       one pass over all jobs: the sum of each job's median wall time;
  peak_rss_mb  the largest job peak RSS in a pass, pool workers included
               (from os.wait4), median over passes.
--trace 1 runs every job twice per pass, untraced and then under tracer.py,
and prints the per-layer metrics: self time, calls and work counts summed
over the job and its pool workers, plus the untraced CPU time and the
tracing overhead.  README.md says which end-to-end metric each one explains.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it records the seed, the
machine and per-job detail.  Run artefacts go to .perfbench_run/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import select
import signal
import sys
import time
from collections import Counter
from statistics import median
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_run"

# The benchmark must end within 180 s; a job still running near then is killed.
RUN_LIMIT_S = 170.0
SETUP_PER_PASS = 3


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    check: Callable[[str], list[str]]


SETUP_JOB = Job("binom", ("binom", "--x", "6.5", "--k", "3"), checks.check_binom)

WORKLOADS: dict[str, tuple[Job, ...]] = {
    # The paper's headline verdict: width = largest level, for the connected
    # poset and its 2-edge-connected variant, a chain partition and the
    # adjacent-level matchings.  Half the time is the 5.86 M comparability
    # pairs in poset; the 2.76 MB ndjson output loads cli serialisation.
    "verdict-n6": (
        Job("sperner", ("sperner", "--n", "6"), checks.check_sperner_connected),
        Job("sperner-2ec", ("sperner", "--n", "6", "--family", "two_edge_connected"),
            checks.check_sperner_two_edge_connected),
        Job("chains", ("chains", "--n", "6"), checks.check_chains),
        Job("matchings", ("matchings", "--n", "6", "--format", "ndjson"),
            checks.check_matchings_ndjson),
    ),
    # The lemma sweeps: bridges, removable edges and the multigraph
    # chorded/cactus tests, with poset doing no work.  The only workload on
    # the --workers path; irk ignores --workers today, so a change that makes
    # it honour the flag shows here.
    "sweep-n6": (
        Job("removable", ("lemma", "removable", "--n", "6", "--workers", "2"),
            checks.check_removable),
        Job("skeleton", ("lemma", "skeleton", "--n", "6", "--workers", "2"),
            checks.check_skeleton),
        Job("irk", ("lemma", "irk", "--n", "6", "--workers", "2"), checks.check_irk),
        Job("census-2ec", ("census", "--n", "6", "--family", "two_edge_connected",
                           "--workers", "2"), checks.check_census_two_edge_connected),
        Job("chorded", ("lemma", "chorded", "--q-max", "5"), checks.check_chorded),
    ),
    # The same width core as verdict-n6, used differently: 144 width_dilworth
    # calls, most on small posets, plus the quotient layer (orbits, covers,
    # property posets).  A matcher change that helps one big poset but adds
    # per-call set-up cost shows here.
    "explore-n6": (
        Job("quotient", ("explore", "quotient", "--n", "6"), checks.check_quotient),
        Job("cprime", ("explore", "cprime", "--n", "6"), checks.check_cprime),
        Job("hamiltonian", ("explore", "hamiltonian", "--n", "6"),
            checks.check_hamiltonian),
    ),
}

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))

# (metric, unit): "<layer>.self_s" and "<layer>.calls" come from the spans,
# the other counts from tracer.py's counters.
PER_LAYER = (
    ("graphs.scan.self_s", "s"),
    ("graphs.scan.masks", "count"),
    ("graphs.levels.cache_hit_ratio", "ratio"),
    ("connectivity.bridges.calls", "count"),
    ("connectivity.bridges.self_s", "s"),
    ("connectivity.removable.calls", "count"),
    ("connectivity.removable.self_s", "s"),
    ("connectivity.sweep.self_s", "s"),
    ("connectivity.chorded.calls", "count"),
    ("connectivity.chorded.self_s", "s"),
    ("connectivity.cactus.calls", "count"),
    ("connectivity.cactus.self_s", "s"),
    ("connectivity.chorded_sweep.self_s", "s"),
    ("connectivity.chorded_sweep.patterns", "count"),
    ("poset.adjacency.self_s", "s"),
    ("poset.adjacency.pairs", "count"),
    ("poset.matching.calls", "count"),
    ("poset.matching.self_s", "s"),
    ("poset.matching.size", "count"),
    ("poset.certificate.self_s", "s"),
    ("poset.level_matching.calls", "count"),
    ("poset.level_matching.self_s", "s"),
    ("poset.chains.self_s", "s"),
    ("poset.width.calls", "count"),
    ("poset.width.self_s", "s"),
    ("quotient.classes.self_s", "s"),
    ("quotient.cprime.calls", "count"),
    ("quotient.cprime.self_s", "s"),
    ("quotient.property.self_s", "s"),
    ("bounds.irk.self_s", "s"),
    ("cli.emit.self_s", "s"),
    ("cli.emit.bytes", "count"),
    ("proc.cpu_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.total_s", "s"),
)


@dataclass
class JobRun:
    job: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    problems: list[str]


class JobTimeout(Exception):
    pass


class Runner:
    """Spawns one job at a time and waits for it with os.wait4."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        (WORKDIR / "trace").mkdir(parents=True, exist_ok=True)
        src = str(ROOT / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{path}" if path else src)
        self.stdout = WORKDIR / "stdout"
        self.stderr = WORKDIR / "stderr"
        self.attempted = 0
        self.problems: list[str] = []

    def _spawn(self, argv: list[str]) -> tuple[float, int, os.struct_rusage]:
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 1, str(self.stdout), flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, str(self.stderr), flags, 0o644)]
        start = time.perf_counter()
        # own process group, so a job killed at the deadline takes its pool along
        pid = os.posix_spawn(sys.executable, argv, self.env, file_actions=actions,
                             setpgroup=0)
        ready = []
        try:
            pidfd = os.pidfd_open(pid)
            try:
                ready, _, _ = select.select([pidfd], [], [], max(0.0, self.deadline - start))
            finally:
                os.close(pidfd)
        finally:
            if not ready:
                os.killpg(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        if not ready:
            raise JobTimeout(f"{argv[1:]} still running at the run's time limit")
        return wall, os.waitstatus_to_exitcode(status), usage

    def run(self, job: Job, trace_prefix: Path | None = None) -> JobRun:
        if trace_prefix is None:
            argv = [sys.executable, "-m", "connposet", *job.argv]
        else:
            for stale in trace_prefix.parent.glob(trace_prefix.name + ".*.json"):
                stale.unlink()
            argv = [sys.executable, str(HERE / "tracer.py"), str(trace_prefix), "--",
                    *job.argv]
        self.attempted += 1
        wall, code, usage = self._spawn(argv)
        problems = checks.check_job(
            job.check, code, self.stdout.read_text(encoding="utf-8", errors="replace"))
        if problems:
            tail = self.stderr.read_text(encoding="utf-8", errors="replace")[-2000:]
            self.problems.append(f"{job.name}: {'; '.join(problems)[:500]}")
            print(f"FAIL {job.name}: {problems}\n{tail}", file=sys.stderr)
        return JobRun(job.name, wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024, problems)


def read_trace(prefix: Path) -> dict:
    """Sum the span summaries the traced job and its pool workers wrote."""
    calls: Counter = Counter()
    self_s: Counter = Counter()
    counts: Counter = Counter()
    missing: set[str] = set()
    for path in prefix.parent.glob(prefix.name + ".*.json"):
        part = json.loads(path.read_text(encoding="utf-8"))
        calls.update(part["calls"])
        self_s.update(part["self_s"])
        counts.update(part["counts"])
        missing.update(part["missing"])
        path.unlink()
    return {"calls": calls, "self_s": self_s, "counts": counts, "missing": missing}


def layer_metrics(trace: dict) -> dict[str, float]:
    """One traced pass's per-layer values, but for proc.cpu_s and trace.overhead_s,
    which compare against the untraced runs."""
    calls, self_s, counts = trace["calls"], trace["self_s"], trace["counts"]
    level_calls = counts["graphs.levels.calls"]
    values: dict[str, float] = {
        "graphs.levels.cache_hit_ratio":
            (level_calls - counts["graphs.levels.misses"]) / level_calls if level_calls else 0.0,
        "trace.total_s": sum(self_s.values()),
    }
    for name, _ in PER_LAYER:
        if name in ("proc.cpu_s", "trace.overhead_s"):
            continue
        layer, _, field = name.rpartition(".")
        if field == "self_s":
            values.setdefault(name, self_s[layer])
        elif field == "calls":
            values.setdefault(name, calls[layer])
        else:
            values.setdefault(name, counts[name])
    return values


def git_commit() -> str | None:
    """HEAD of a checkout's .git, read directly; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu": cpu_model(), "commit": git_commit()}


@dataclass
class Passes:
    plain: list[list[JobRun]] = field(default_factory=list)
    traced: list[list[JobRun]] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)

    def job_values(self, job: str, attr: str) -> list[float]:
        return [getattr(r, attr) for p in self.plain for r in p if r.job == job]


def run_passes(runner: Runner, jobs: tuple[Job, ...], rng: random.Random,
               seconds: float, traced: bool) -> Passes:
    """Passes until `seconds` are up.  Untraced, each pass starts with
    SETUP_PER_PASS set-up jobs, so setup_s samples the whole run; traced,
    every job also runs a traced twin right after its untraced run."""
    out = Passes()
    end = time.perf_counter() + seconds
    while not out.plain or time.perf_counter() < end:
        if not traced:
            out.setup_s += [runner.run(SETUP_JOB).wall_s for _ in range(SETUP_PER_PASS)]
        order = list(jobs)
        rng.shuffle(order)
        out.plain.append([])
        out.traced.append([])
        trace = {"calls": Counter(), "self_s": Counter(), "counts": Counter(), "missing": set()}
        for job in order:
            out.plain[-1].append(runner.run(job))
            if traced:
                prefix = WORKDIR / "trace" / job.name
                out.traced[-1].append(runner.run(job, prefix))
                for key, value in read_trace(prefix).items():
                    trace[key].update(value)
        out.traces.append(trace)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "connposet" / "__main__.py").is_file():
        print(f"error: no connposet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    runner = Runner(started + RUN_LIMIT_S)
    jobs = WORKLOADS[args.workload]
    try:
        # untimed: the first job in a fresh checkout also compiles the bytecode
        runner.run(SETUP_JOB)
        passes = run_passes(runner, jobs, random.Random(args.seed), args.seconds,
                            bool(args.trace))
    except JobTimeout as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    walls = {job.name: median(passes.job_values(job.name, "wall_s")) for job in jobs}
    pass_walls = [sum(r.wall_s for r in p) for p in passes.plain]
    missing: list[str] = []
    if args.trace:
        per_pass = [layer_metrics(t) for t in passes.traces]
        values = {name: median(v[name] for v in per_pass) for name in per_pass[0]}
        values["proc.cpu_s"] = median(sum(r.cpu_s for r in p) for p in passes.plain)
        values["trace.overhead_s"] = median(
            sum(r.wall_s for r in t) - w for t, w in zip(passes.traced, pass_walls))
        units = dict(PER_LAYER)
        missing = sorted(set().union(*(t["missing"] for t in passes.traces)))
    else:
        values = {
            "setup_s": median(passes.setup_s),
            "wall_s": sum(walls.values()),
            "peak_rss_mb": median(max(r.rss_mb for r in p) for p in passes.plain),
        }
        units = dict(END_TO_END)

    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(),
        "passes": len(passes.plain),
        "pass_wall_s": [round(w, 4) for w in pass_walls],
        "setup_wall_s": [round(w, 4) for w in passes.setup_s],
        "job_wall_s": {job.name: [round(w, 4) for w in passes.job_values(job.name, "wall_s")]
                       for job in jobs},
        "job_median_cpu_s": {job.name: round(median(passes.job_values(job.name, "cpu_s")), 4)
                             for job in jobs},
        "job_max_rss_mb": {job.name: round(max(passes.job_values(job.name, "rss_mb")), 1)
                           for job in jobs},
        "traced_functions_missing": missing,
        "problems": runner.problems,
        "elapsed_s": round(time.perf_counter() - started, 2),
    }
    print(json.dumps({"info": info}, sort_keys=True))
    failed = len(runner.problems)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
