"""Tests of the benchmark itself (not collected by the repository's tier-1 run).

    python3 -m pytest -q perfbench
"""

import json
import os
import subprocess
import sys

import pytest

import pace
import run
import tracer
import workloads


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert workloads.inputs_for(workload, 7) == workloads.inputs_for(workload, 7)


@pytest.mark.parametrize("workload", ["large-n", "cli"])
def test_seed_drives_the_generated_inputs(workload):
    assert workloads.inputs_for(workload, 1) != workloads.inputs_for(workload, 2)
    assert workloads.inputs_for(workload, 1)["seed_used"]


@pytest.mark.parametrize("workload", ["sweep-enclosure", "coeff-certify"])
def test_fixed_grid_sweeps_ignore_the_seed(workload):
    assert workloads.inputs_for(workload, 1) == workloads.inputs_for(workload, 2)
    assert not workloads.inputs_for(workload, 1)["seed_used"]


@pytest.mark.parametrize("seed", range(20))
def test_large_n_points_are_one_per_stratum(seed):
    points = workloads.large_n_points(seed)
    lo, hi = workloads.LARGE_N_BAND
    width = (hi - lo) // workloads.LARGE_N_POINTS
    assert len(points) == workloads.LARGE_N_POINTS
    for i, n in enumerate(points):
        assert lo + i * width < n <= lo + (i + 1) * width <= hi


@pytest.mark.parametrize("seed", range(20))
def test_cli_pass_covers_every_subcommand_and_primes_the_cache(seed):
    commands = workloads.cli_commands(seed)
    names = {name for name, _ in commands}
    assert names == {"partition", "coeff", "remainder", "bounds", "nu", "table1", "table2", "verify"}
    theorems = {args[3] for name, args in commands if name == "bounds"}
    assert theorems == {"t1", "t2", "t3", "banerjee"}
    assert ("nu", ["4", "3.474"]) in commands
    cache_users = [(name, args) for name, args in commands if name in workloads.CACHE_COMMANDS]
    assert 0.4 <= len(cache_users) / len(commands) <= 0.6
    first_name, first_args = cache_users[0]
    needed = [int(args[0]) for name, args in cache_users if name in ("partition", "remainder")] + [1000]
    assert first_name == "partition" and int(first_args[0]) == max(needed)
    formats = {
        workloads.cli_argv(command, pass_index, position, "c")[1]
        for pass_index in range(3)
        for position, command in enumerate(commands)
        if command[0] == "table2"
    }
    assert formats == set(workloads.FORMATS)


# ---------------------------------------------------------------------------
# spans and self time
# ---------------------------------------------------------------------------


def test_self_time_on_a_synthetic_span_tree():
    #  0 root   [0, 10]
    #  1  a     [1, 4]
    #  2  b     [5, 9]
    #  3   b1   [5.5, 6]
    #  4   b2   [6.5, 8]
    starts = [0.0, 1.0, 5.0, 5.5, 6.5]
    ends = [10.0, 4.0, 9.0, 6.0, 8.0]
    parents = [-1, 0, 0, 2, 2]
    assert tracer.self_times(starts, ends, parents) == pytest.approx([3.0, 3.0, 2.0, 0.5, 1.5])


def test_tracer_records_parents_self_time_and_counters():
    t = tracer.Tracer()
    inner = t.wrap("bounds.nu", lambda N, C, ctx: N, tracer.HOOKS["bounds.nu"])
    outer = t.wrap("verify.run_suite", lambda: [inner(4, "3.474", None) for _ in range(3)])
    t.new_op()
    assert outer() == [4, 4, 4]
    assert list(t.parent_of) == [-1, 0, 0, 0]
    assert list(t.trace_of) == [1, 1, 1, 1]
    raw = t.raw()
    assert raw["calls"] == {"verify.run_suite": 1, "bounds.nu": 3}
    metrics = tracer.layer_metrics(raw)
    assert metrics["bounds.nu_calls"] == 3
    assert metrics["bounds.nu_reuse_ratio"] == pytest.approx(2 / 3)
    total = t.end[0] - t.start[0]
    assert metrics["verify.self_s"] + metrics["bounds.self_s"] == pytest.approx(total)


def test_install_wraps_functions_wherever_they_are_bound():
    # in a fresh interpreter: wrapping rebinds module attributes for good
    code = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracer
import partition_asymptotics as pa
from partition_asymptotics import bounds, cli, coefficients, expansion, precision, verify
originals = (coefficients.certified_abs_less, bounds.nu, precision.lambert_w_minus1, expansion.full_sum)
tracer.install(tracer.Tracer())
for fn, bound in [
    (originals[0], (verify.certified_abs_less, coefficients.certified_abs_less, pa.certified_abs_less)),
    (originals[1], (bounds.nu, verify.nu, cli.nu, pa.nu)),
    (originals[2], (bounds.lambert_w_minus1, precision.lambert_w_minus1)),
    (originals[3], (expansion.full_sum, pa.full_sum)),
]:
    assert all(b.__wrapped__ is fn for b in bound), fn
assert cli.COMMANDS["nu"] is cli.cmd_nu and cli.cmd_nu.__wrapped__
assert not hasattr(pa.PrecisionContext, "__wrapped__")
"""
    proc = subprocess.run(
        [sys.executable, "-c", code, os.path.dirname(run.__file__), run.SRC],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_traced_cli_child_reports_layers(tmp_path):
    out = tmp_path / "out.json"
    proc = subprocess.run(
        [sys.executable, run.CHILD, "cli", str(out), "1", "--", "nu", "4", "3.474"],
        capture_output=True,
        text=True,
        cwd=run.ROOT,
        timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "N = 4\nC = 3.474\nnu = 116\n\n", "")
    metrics = tracer.layer_metrics(json.loads(out.read_text())["trace"])
    assert metrics["cli.processes"] == 1
    assert metrics["bounds.nu_calls"] == 1
    assert metrics["precision.lambert_calls"] == 1
    assert metrics["cli.self_s"] > 0


def test_scale_cancels_the_machine_pace():
    assert pace.scale(3.0, pace.REFERENCE_S) == pytest.approx(3.0)
    assert pace.scale(3.0, 2 * pace.REFERENCE_S) == pytest.approx(1.5)
    assert pace.measure() > 0


def test_timings_are_scaled_by_the_pace_around_them(monkeypatch, tmp_path):
    slow = 2 * pace.REFERENCE_S  # the machine runs at half the reference speed

    class Fake:
        status, stdout, stderr, wall_s, setup_s = 0, "", "", 9.0, 0.2
        process_failures = run.Child.process_failures

        def __init__(self, argv, tmpdir):
            ops = [
                {"suite": name, "ok": True, "checked": checked, "counterexample": None, "latency_s": 1.0, "pace_s": slow}
                for name, _, checked in workloads.SWEEP_SUITES
            ]
            self.data = {"ready": 0.0, "pace_s": slow, "maxrss_mb": 1.0, "segments": [[1.0, slow]] * len(ops), "ops": ops}

    monkeypatch.setattr(run.pace, "measure", lambda: slow)
    monkeypatch.setattr(run, "Child", Fake)
    result = run.execute("sweep-enclosure", 0, seconds=0.0, trace=False, tmpdir=str(tmp_path))
    assert (result.attempted, result.failed) == (1, 0)
    assert result.wall_bodies == [pytest.approx(4.0)]
    assert result.segments[False] == [[pytest.approx(0.5)] * len(workloads.SWEEP_SUITES)]
    assert run.end_to_end(result)["run_s"]["value"] == pytest.approx(2.0)
    assert result.setup == [pytest.approx(0.1)] * (run.PROBES_PER_ROUND + 1)
    assert set(result.kind_s) == {name for name, _, _ in workloads.SWEEP_SUITES}


def test_typical_round_sums_the_median_of_each_segment():
    rows = [[1.0, 10.0], [2.0, 30.0], [9.0, 20.0]]
    assert run.typical_round(rows) == 22.0
    assert run.typical_round([]) == 0


def test_tail_needs_ten_samples_beyond():
    assert run.tail([5, 1, 3]) == (3, 50.0)
    assert run.tail([]) == (0.0, 50.0)
    samples = list(range(1, 13))
    assert run.tail(samples) == (2, pytest.approx(100 * 2 / 12))


# ---------------------------------------------------------------------------
# the correctness gate
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def oracle():
    pytest.importorskip("sympy")
    return workloads.Oracle()


@pytest.mark.parametrize("fmt", workloads.FORMATS)
def test_pinned_table_passes_and_one_wrong_digit_fails(fmt, oracle):
    good = workloads.render_records(fmt, workloads.pinned_table("table1"))
    assert workloads.check_cli_output(("table1", []), fmt, good, oracle) == []
    bad = good.replace("0.9016237417e-7", "0.9016237418e-7")
    assert workloads.check_cli_output(("table1", []), fmt, bad, oracle)


def test_wrong_values_are_failures(oracle):
    assert workloads.check_cli_output(("partition", ["100"]), "human", "n = 100\np = 190569292\n\n", oracle) == []
    assert workloads.check_cli_output(("partition", ["100"]), "human", "n = 100\np = 190569293\n\n", oracle)
    assert workloads.check_cli_output(("nu", ["4", "3.474"]), "json", '{"N": "4", "C": "3.474", "nu": "117"}\n', oracle)
    assert workloads.check_cli_output(("coeff", ["3"]), "csv", "", oracle)
    assert workloads.check_suite("thm1", 1950, {"ok": True, "checked": 1949, "counterexample": None})
    assert workloads.check_suite("thm1", 1950, {"ok": False, "checked": 1950, "counterexample": "x"})
    assert workloads.check_large_n_point({"n": 10, "p": "42", "failures": []}, oracle) == []
    assert workloads.check_large_n_point({"n": 10, "p": "43", "failures": []}, oracle)


SHORT_PASS = [
    ("partition", ["600"]),
    ("table1", []),
    ("remainder", ["300", "4", "--theta"]),
    ("nu", ["4", "3.474"]),
]


def test_injected_wrong_output_is_counted_without_aborting(monkeypatch, tmp_path):
    class Corrupting(run.Child):
        def __init__(self, argv, tmpdir):
            super().__init__(argv, tmpdir)
            if "table1" in argv:
                self.stdout = self.stdout.replace("0.9016237417", "0.9016237418")

    monkeypatch.setattr(workloads, "cli_commands", lambda seed: list(SHORT_PASS))
    monkeypatch.setattr(run, "Child", Corrupting)
    result = run.execute("cli", 0, seconds=0.0, trace=False, tmpdir=str(tmp_path))
    passes = len(result.segments[False])
    assert passes == 3
    assert result.attempted == len(SHORT_PASS) * passes
    assert result.failed == passes
    assert all("table1" in reason for reason in result.reasons)


def _tree(root):
    snapshot = {}
    for folder, dirs, files in os.walk(root):
        dirs[:] = [d for d in dirs if d not in ("__pycache__", ".git", ".pytest_cache")]
        for name in files:
            path = os.path.join(folder, name)
            stat = os.stat(path)
            snapshot[path] = (stat.st_size, stat.st_mtime_ns)
    return snapshot


def test_run_leaves_the_tree_unchanged_and_caches_only_in_its_temp_dir(monkeypatch, capsys):
    made, cache_seen = [], []
    real_mkdtemp = run.tempfile.mkdtemp

    def mkdtemp(**kwargs):
        made.append(real_mkdtemp(**kwargs))
        return made[-1]

    class Watching(run.Child):
        def __init__(self, argv, tmpdir):
            super().__init__(argv, tmpdir)
            if "--cache" in argv:
                path = argv[argv.index("--cache") + 1]
                cache_seen.append((os.path.dirname(path), os.path.exists(path)))

    monkeypatch.setattr(workloads, "cli_commands", lambda seed: list(SHORT_PASS))
    monkeypatch.setattr(run.tempfile, "mkdtemp", mkdtemp)
    monkeypatch.setattr(run, "Child", Watching)
    before = _tree(run.ROOT)
    assert run.main(["--workload", "cli", "--seed", "3", "--seconds", "0"]) == 0
    assert _tree(run.ROOT) == before
    assert len(made) == 1 and os.path.dirname(made[0]) == run.ROOT
    assert not os.path.exists(made[0])
    assert cache_seen and all(folder == made[0] and exists for folder, exists in cache_seen)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_a_crashed_round_counts_every_op_as_failed(monkeypatch, tmp_path):
    class Crashed:
        wall_s, status, stdout, stderr, data, setup_s = 0.01, 1, "", "Traceback\nZeroDivisionError\n", None, None
        process_failures = run.Child.process_failures

        def __init__(self, argv, tmpdir):
            pass

    monkeypatch.setattr(run, "Child", Crashed)
    result = run.execute("large-n", 0, seconds=0.0, trace=False, tmpdir=str(tmp_path))
    assert result.attempted == result.failed == workloads.LARGE_N_POINTS
    assert "stderr: ZeroDivisionError" in result.reasons
    assert run.end_to_end(result)["error_rate"]["value"] == 1.0
