"""Benchmark of the certified p(n) toolkit: four workloads, every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: sweep-enclosure, coeff-certify, large-n, cli (see README.md).  A run
repeats rounds of the workload until the next round would end after S
seconds.  Every round is a fresh process (a CLI round is one fresh process per
command), so every round starts with cold caches, as a CLI user does; one
client runs the rounds one after another, never two at a time.

Every timing is in reference seconds (see pace.py): the wall time of a piece
of work, scaled by the machine's pace measured right before and after it, so
that the speed regimes of a shared VM cancel.  The record keeps the wall times
and paces too.

With ``--trace 0`` the run reports the end-to-end metrics.  With ``--trace 1``
rounds alternate untraced and traced, and the run reports the per-layer
metrics of the traced rounds plus the tracing overhead.  The last line of
stdout is the result object; the line before it is a JSON record with the
machine facts and the sample count behind every median and tail.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import pace
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
CHILD_TIMEOUT_S = 150
PROBES_PER_ROUND = 4  # set-up probes before every round, so they span the run

# the end-to-end metrics of BENCHMARK.json; error_rate is printed too, but it is
# 0 when the program is correct and travels as `attempted` / `failed`
END_TO_END = ("run_s", "setup_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb")


class Child:
    """One finished child process: its wall time, output and result file."""

    def __init__(self, argv: list, tmpdir: str):
        out_path = os.path.join(tmpdir, "child-result.json")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, CHILD, argv[0], out_path, *argv[1:]],
                cwd=ROOT,
                capture_output=True,
                timeout=CHILD_TIMEOUT_S,
            )
            self.status, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
            self.status, stdout, stderr = f"timeout after {CHILD_TIMEOUT_S} s", exc.stdout, exc.stderr
        self.wall_s = time.monotonic() - spawned
        self.stdout = (stdout or b"").decode("utf-8", "replace")
        self.stderr = (stderr or b"").decode("utf-8", "replace")
        self.data = None
        if os.path.exists(out_path):
            with open(out_path, encoding="utf-8") as fh:
                try:
                    self.data = json.load(fh)
                except ValueError:  # a child killed while writing; counted as a failure
                    pass
            os.remove(out_path)
        ready = self.data.get("ready") if self.data else None
        self.setup_s = None if ready is None else ready - spawned

    def process_failures(self) -> list:
        reasons = []
        if self.status != 0:
            reasons.append(f"exit status {self.status}")
        if self.stderr:
            reasons.append(f"stderr: {self.stderr.strip().splitlines()[-1][:200]}")
        if self.data is None:
            reasons.append("no result file")
        return reasons


class Run:
    """Samples and failure counts of one benchmark run."""

    def __init__(self, workload: str, seed: int, tmpdir: str):
        self.workload = workload
        self.inputs = workloads.inputs_for(workload, seed)
        self.tmpdir = tmpdir
        self.setup = []
        self.rounds = 0
        self.segments = {False: [], True: []}  # traced? -> per round, its segments in reference seconds
        self.wall_bodies = []  # untraced round bodies, wall seconds
        self.paces = []
        self.pace = pace.measure()  # the latest pace; each child is bracketed by two
        self.latencies = []
        self.rss = []
        self.traces = []
        self.kind_s = {}  # suite or subcommand -> untraced latencies
        self.attempted = 0
        self.failed = 0
        self.reasons = []
        self._oracle = None
        self._specs = {}

    @property
    def oracle(self) -> workloads.Oracle:
        if self._oracle is None:
            self._oracle = workloads.Oracle()
        return self._oracle

    def spawn(self, argv: list) -> Child:
        """Run one child between two pace measurements.  Its set-up is scaled
        by the paces just before the spawn and just after it was ready."""
        before = self.pace
        child = Child(argv, self.tmpdir)
        self.pace = pace.measure()
        self.paces.append(self.pace)
        child.pace_s = (before + self.pace) / 2
        if child.setup_s is not None:
            self.setup.append(pace.scale(child.setup_s, (before + child.data["pace_s"]) / 2))
        return child

    def count(self, reasons: list) -> None:
        self.attempted += 1
        if reasons:
            self.failed += 1
            self.reasons.extend(reasons)

    def probe_setup(self) -> None:
        for _ in range(PROBES_PER_ROUND):
            self.spawn(["probe"])

    def _spec(self, traced: bool) -> str:
        if traced not in self._specs:
            path = os.path.join(self.tmpdir, f"spec-{int(traced)}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"workload": self.workload, "inputs": self.inputs, "trace": traced, "tmpdir": self.tmpdir}, fh)
            self._specs[traced] = path
        return self._specs[traced]

    def round(self, index: int, traced: bool) -> None:
        self.rounds += 1
        if self.workload == "cli":
            self._cli_round(index, traced)
        else:
            self._process_round(traced)

    def _process_round(self, traced: bool) -> None:
        child = self.spawn(["round", self._spec(traced)])
        broken = child.process_failures()
        data = None if broken else child.data
        if data:
            self.segments[traced].append([pace.scale(wall_s, pace_s) for wall_s, pace_s in data["segments"]])
            if not traced:
                self.wall_bodies.append(sum(wall_s for wall_s, _ in data["segments"]))
        if data and traced:
            self.traces.append(data["trace"])
        if data and not traced:
            self.rss.append(data["maxrss_mb"])
        if self.workload == "large-n":
            if not data:
                for _ in self.inputs["points"]:
                    self.count(broken)
                return
            trip = [] if data["table_round_trip"] else ["reloaded table differs from the built one"]
            for op in data["ops"]:
                self.count(trip + workloads.check_large_n_point(op, self.oracle))
                if not traced:
                    self.latencies.append(pace.scale(op["latency_s"], op["pace_s"]))
            return
        # a sweep round is one op: the whole set of suites in one process
        if not data:
            self.count(broken)
            return
        expected = {name: checked for name, _, checked in self._suites()}
        reasons = [] if [op["suite"] for op in data["ops"]] == list(expected) else ["suites missing"]
        for op in data["ops"]:
            reasons += workloads.check_suite(op["suite"], expected.get(op["suite"]), op)
            if not traced:
                self.kind_s.setdefault(op["suite"], []).append(pace.scale(op["latency_s"], op["pace_s"]))
        self.count(reasons)

    def _suites(self):
        return workloads.SWEEP_SUITES if self.workload == "sweep-enclosure" else workloads.COEFF_SUITES

    def _cli_round(self, index: int, traced: bool) -> None:
        cache = os.path.join(self.tmpdir, f"cache-{index}.tsv")
        finished = []
        for position, command in enumerate(self.inputs["commands"]):
            argv = workloads.cli_argv(command, index, position, cache)
            finished.append((command, argv[1], self.spawn(["cli", "1" if traced else "0", "--", *argv])))
        # a pass is its commands, each from spawn to exit
        latencies = [pace.scale(c.wall_s, c.pace_s) for _, _, c in finished]
        if os.path.exists(cache):
            os.remove(cache)
        # the oracles run after the pass, outside its timed body
        for (command, fmt, child), latency_s in zip(finished, latencies):
            reasons = child.process_failures()
            if not reasons:
                reasons = workloads.check_cli_output(command, fmt, child.stdout, self.oracle)
            self.count(reasons)
            if not traced:
                self.latencies.append(latency_s)
                self.kind_s.setdefault(command[0], []).append(latency_s)
                if child.data:
                    self.rss.append(child.data["maxrss_mb"])
        self.segments[traced].append(latencies)
        if not traced:
            self.wall_bodies.append(sum(c.wall_s for _, _, c in finished))
        if traced:
            self.traces.append(tracer.sum_raw(c.data["trace"] for _, _, c in finished if c.data))


def _median(samples) -> float:
    """Median, or 0 when a broken program left no sample (the run then fails)."""
    samples = list(samples)
    return statistics.median(samples) if samples else 0.0


def tail(samples: list) -> tuple:
    """(value, percentile): the highest order statistic with ten samples beyond it.

    With fewer than eleven samples no percentile has ten beyond it; the median
    stands in (percentile 50), since the maximum of a few rounds on a machine
    whose speed moves in phases is mostly noise.
    """
    ordered = sorted(samples)
    if len(ordered) < 11:
        return _median(ordered), 50.0
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered)


def typical_round(rows: list) -> float:
    """A round's typical time: the sum over its segments of each segment's
    median over the rounds, so that a change of the machine's regime inside
    one segment of one round moves only that segment's sample."""
    return sum(_median(column) for column in zip(*rows))


def end_to_end(run: Run) -> dict:
    rows = run.segments[False]
    run_s = typical_round(rows)
    if run.workload in workloads.SWEEPS:  # an op is a round, and there are too few for a tail
        p50, value, percentile, op_samples = run_s, run_s, 50.0, len(rows)
    else:
        p50, (value, percentile), op_samples = _median(run.latencies), tail(run.latencies), len(run.latencies)
    return {
        "run_s": {"value": run_s, "unit": "s", "samples": len(rows)},
        "setup_s": {"value": _median(run.setup), "unit": "s", "samples": len(run.setup)},
        "op_p50_ms": {"value": 1000 * p50, "unit": "ms", "samples": op_samples},
        "op_tail_ms": {
            "value": 1000 * value,
            "unit": "ms",
            "samples": op_samples,
            "percentile": round(percentile, 2),
        },
        "peak_rss_mb": {"value": max(run.rss, default=0.0), "unit": "MB", "samples": len(run.rss)},
        "error_rate": {
            "value": run.failed / run.attempted,
            "unit": "ratio",
            "samples": run.attempted,
        },
    }


def per_layer(run: Run) -> dict:
    metrics = {}
    layer_values = [tracer.layer_metrics(raw) for raw in run.traces]
    for name, unit in tracer.PER_LAYER_UNITS.items():
        metrics[name] = {"value": _median(v[name] for v in layer_values), "unit": unit}
    traced, untraced = typical_round(run.segments[True]), typical_round(run.segments[False])
    metrics["trace.run_s"] = {"value": traced, "unit": "s"}
    metrics["trace.untraced_run_s"] = {"value": untraced, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced - untraced, "unit": "s"}
    metrics["trace.spans"] = {"value": _median(r["spans"] for r in run.traces), "unit": "count"}
    for entry in metrics.values():
        entry["samples"] = len(run.traces)
    return metrics


def machine_facts() -> dict:
    import mpmath

    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "git_sha": git_sha(),
        "source_sha256": digest.hexdigest(),
    }


def git_sha() -> str:
    """HEAD of the repository whose top level is this checkout, else "unknown"."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def execute(workload: str, seed: int, seconds: float, trace: bool, tmpdir: str) -> Run:
    Child(["probe"], tmpdir)  # unmeasured: the first process of a fresh checkout compiles bytecode
    run = Run(workload, seed, tmpdir)
    min_rounds = max(3 if workload == "cli" else 1, 2 if trace else 1)
    walls = []
    started = time.monotonic()
    while True:
        round_started = time.monotonic()
        index = len(walls)
        run.probe_setup()
        run.round(index, traced=trace and index % 2 == 1)
        walls.append(time.monotonic() - round_started)
        elapsed = time.monotonic() - started
        if len(walls) >= min_rounds and elapsed + statistics.median(walls) > seconds:
            return run


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "partition_asymptotics", "__init__.py")):
        print(f"error: no partition_asymptotics package under {SRC}", file=sys.stderr)
        return 2
    if args.workload in ("large-n", "cli"):
        try:
            workloads.Oracle()
        except ImportError as exc:
            print(f"error: the p(n) oracle needs sympy: {exc}", file=sys.stderr)
            return 2
    tmpdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        run = execute(args.workload, args.seed, args.seconds, bool(args.trace), tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    e2e = end_to_end(run)
    layers = per_layer(run) if args.trace else {}
    record = {
        "benchmark": "perfbench",
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": run.inputs["seed_used"],
        "seconds": args.seconds,
        "trace": args.trace,
        "facts": machine_facts(),
        "rounds": run.rounds,
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.reasons[:20],
        "end_to_end": e2e,
        "per_layer": layers,
        "op_kind_ms": {k: 1000 * statistics.median(v) for k, v in sorted(run.kind_s.items())},
        "wall_run_s": _median(run.wall_bodies),
        "pace_s": {"median": _median(run.paces), "min": min(run.paces, default=0.0), "max": max(run.paces, default=0.0), "reference": pace.REFERENCE_S},
    }
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} rounds={record['rounds']}")
    for name, entry in list(e2e.items()) + list(layers.items()):
        extra = f" p{entry['percentile']}" if "percentile" in entry else ""
        print(f"  {name:<32} {entry['value']:>14.6g} {entry['unit']:<6} n={entry['samples']}{extra}")
    print(json.dumps(record, sort_keys=False))
    reported = layers if args.trace else {k: e2e[k] for k in END_TO_END}
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in reported.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
