"""One fresh benchmark process: a set-up probe, a workload round, or one CLI command.

    python3 perfbench/child.py probe OUT
    python3 perfbench/child.py round OUT SPEC
    python3 perfbench/child.py cli OUT TRACE -- <partition-asymptotics arguments>

Every mode first imports ``partition_asymptotics`` from ``src``.  The probe
and round modes then build a ``PrecisionContext``, stamp ``ready`` on the
system-wide monotonic clock (the parent stamped the spawn on the same clock)
and measure the machine's pace (see pace.py).  A round measures the pace again
after every timed segment, and gives each segment the mean of the paces before
and after it.  The cli mode stamps and measures nothing and builds no context
of its own, so that a command's latency holds only the program's work.
Results go to the JSON file OUT, so that stdout and stderr carry only what the
program itself prints.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import partition_asymptotics  # noqa: E402

READY = None
if sys.argv[1:2] != ["cli"]:
    partition_asymptotics.PrecisionContext(80)
    READY = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402

import pace  # noqa: E402

PACE = None if READY is None else pace.measure()


class Pacer:
    """The pace of each timed segment: the mean of the paces measured right
    before and right after it, the first of them being the one after ready."""

    def __init__(self):
        self.last = PACE

    def segment(self) -> float:
        before, self.last = self.last, pace.measure()
        return (before + self.last) / 2


def _maxrss_mb() -> float:
    """Peak RSS of this process image.  ru_maxrss is not used where VmHWM exists:
    across exec it keeps the high-water mark of the parent's address space."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _write(path: str, payload: dict) -> None:
    payload.update({"ready": READY, "pace_s": PACE, "maxrss_mb": _maxrss_mb()})
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_suites(inputs: dict, tracer, pacer: Pacer) -> list:
    from partition_asymptotics import verify

    ops = []
    for name, overrides in inputs["suites"]:
        if tracer is not None:
            tracer.new_op()
        started = time.perf_counter()
        try:
            result = verify.run_suite(name, **overrides)
            outcome = {"ok": result.ok, "checked": result.checked, "counterexample": result.counterexample}
        except Exception as exc:  # counted as a failed op, the round goes on
            outcome = {"error": _error(exc)}
        outcome.update({"suite": name, "latency_s": time.perf_counter() - started, "pace_s": pacer.segment()})
        ops.append(outcome)
    return ops


def run_large_n(inputs: dict, tracer, tmpdir: str, pacer: Pacer) -> tuple:
    """Build, save and reload the table, then every sampled n with all its N.

    The table is one timed segment and each n is another."""
    from partition_asymptotics import PrecisionContext, bounds, expansion, partitions

    started = time.perf_counter()
    built = partitions.partition_pentagonal(inputs["table_n"])
    path = os.path.join(tmpdir, f"table-{os.getpid()}.tsv")
    partitions.save_table(built, path)
    table = partitions.load_table(path)
    segment = {"latency_s": time.perf_counter() - started, "pace_s": pacer.segment()}
    ops = []
    for n in inputs["points"]:
        if tracer is not None:
            tracer.new_op()
        started = time.perf_counter()
        failures = []
        try:
            ctx = PrecisionContext(expansion.recommended_digits(n))
            for N in range(1, inputs["max_N"] + 1):
                result = expansion.remainder_exact(n, N, table, ctx, include_theta=True)
                for report in (bounds.thm1_bounds(n, N, ctx), bounds.thm2_bounds(n, N, ctx)):
                    if not report.lower < result.remainder < report.upper:
                        failures.append(f"{report.theorem} enclosure fails at n={n}, N={N}")
                if not 0 < result.theta < 1:
                    failures.append(f"theta out of (0, 1) at n={n}, N={N}")
            if abs(expansion.r_hat(n, table, ctx)) > expansion.exp_error_term(n, ctx):
                failures.append(f"|r_hat({n})| exceeds the exponential envelope")
        except Exception as exc:  # counted as a failed op, the round goes on
            failures.append(_error(exc))
        latency_s = time.perf_counter() - started
        ops.append({"n": n, "latency_s": latency_s, "pace_s": pacer.segment(), "failures": failures})
    return segment, ops, (built, table, path)


def _install_tracer():
    import tracer as tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    return tracer


def round_main(out_path: str, spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = _install_tracer() if spec["trace"] else None
    inputs = spec["inputs"]
    pacer = Pacer()
    # the body is its timed segments: the table (large-n) and the ops
    if spec["workload"] == "large-n":
        table_segment, ops, (built, table, path) = run_large_n(inputs, tracer, spec["tmpdir"], pacer)
        segments = [table_segment, *ops]
    else:
        ops = run_suites(inputs, tracer, pacer)
        segments = ops
    payload = {"segments": [[s["latency_s"], s["pace_s"]] for s in segments], "ops": ops}
    if spec["workload"] == "large-n":
        # outside the timed body: the reloaded table must equal the built one
        payload["table_round_trip"] = table.values == built.values
        for op in ops:
            op["p"] = str(table.p(op["n"]))
        os.remove(path)
    if tracer is not None:
        payload["trace"] = tracer.raw()
    _write(out_path, payload)
    return 0


def cli_main(out_path: str, trace: bool, argv: list) -> int:
    tracer = None
    if trace:
        import partition_asymptotics.cli  # noqa: F401  (bind before wrapping)

        tracer = _install_tracer()
        tracer.new_op()
        tracer.counters["cli_processes"] += 1
    from partition_asymptotics import cli

    sys.argv = ["partition-asymptotics", *argv]
    try:
        cli.main()
        status = 0
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    sys.stdout.flush()
    payload = {"status": status}
    if tracer is not None:
        payload["trace"] = tracer.raw()
    _write(out_path, payload)
    return status


def main(argv: list) -> int:
    mode, out_path = argv[0], argv[1]
    if mode == "probe":
        _write(out_path, {})
        return 0
    if mode == "round":
        return round_main(out_path, argv[2])
    if mode == "cli" and argv[3] == "--":
        return cli_main(out_path, argv[2] == "1", argv[4:])
    raise SystemExit(__doc__)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
