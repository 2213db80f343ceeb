"""Fresh-process start-up: each CLI subcommand loads only the modules it uses, and none loads mpmath.

The in-process tests run with every module of the package already imported,
so they cannot see a lazy import that is missing, or one that loads too much.
Each case here is a fresh interpreter that runs the CLI module as
``python -m partition_asymptotics.cli`` does and then writes its
``sys.modules`` to a file.  Its exit code, stdout and stderr must match the
golden corpus, and its modules the rules below; no timing is checked.
"""

import os
import subprocess
import sys

import partition_asymptotics

from test_cli_golden import CACHE_ENV_VAR, _read_corpus

PACKAGE = "partition_asymptotics"
SRC = os.path.dirname(os.path.dirname(partition_asymptotics.__file__))

# run the CLI module as ``-m`` does, then list sys.modules in the file argv[1]
PROBE = """
import runpy, sys
out = sys.argv.pop(1)
try:
    if sys.argv[1:]:
        runpy.run_module("partition_asymptotics.cli", run_name="__main__", alter_sys=True)
    else:
        import partition_asymptotics
finally:
    with open(out, "w", encoding="utf-8") as handle:
        handle.write("\\n".join(sorted(sys.modules)))
"""

# one corpus entry per subcommand, and an error case
CASES = [
    ["partition", "100"],
    ["--digits", "30", "--format", "human", "coeff", "12"],
    ["--digits", "30", "--format", "human", "remainder", "1", "0", "--theta"],
    ["--digits", "30", "--format", "json", "bounds", "7", "3", "--theorem", "t1"],
    ["--digits", "30", "--format", "csv", "bounds", "1", "0", "--theorem", "t2"],
    ["--digits", "30", "--format", "human", "bounds", "200", "4", "--theorem", "t3", "--constant", "1/4"],
    ["--digits", "30", "--format", "human", "bounds", "7", "3", "--theorem", "banerjee"],
    ["nu", "4", "3.474"],
    ["table1"],
    ["--format", "csv", "table2"],
    ["--format", "json", "verify", "oracle", "--n-max", "20"],
    ["--cache", "/nonexistent/dir/x", "partition", "5"],
]


def _fresh(argv, tmp_path):
    """(exit code, stdout, stderr, loaded modules) of one fresh process."""
    out = tmp_path / "modules.txt"
    env = {key: value for key, value in os.environ.items() if key != CACHE_ENV_VAR}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(out), *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr, set(out.read_text(encoding="utf-8").split("\n"))


def _ours(modules):
    """The package's submodules among ``modules``, by short name."""
    return {name.removeprefix(f"{PACKAGE}.") for name in modules if name.startswith(f"{PACKAGE}.")}


def test_importing_the_package_loads_no_submodule(tmp_path):
    code, out, err, modules = _fresh([], tmp_path)
    assert (code, out, err) == (0, "", "")
    assert PACKAGE in modules
    assert _ours(modules) == set()
    assert "dataclasses" not in modules


def test_each_subcommand_loads_only_what_it_uses(tmp_path):
    corpus = {tuple(argv): expected for argv, *expected in _read_corpus()}
    for argv in CASES:
        code, out, err, modules = _fresh(argv, tmp_path)
        assert [code, out, err] == corpus[tuple(argv)], argv
        ours = _ours(modules)
        assert "dataclasses" not in modules, argv
        if "partition" in argv:
            assert "mpmath" not in modules and "precision" not in ours, (argv, sorted(ours))
        # every command prints balls rounded once, so none loads mpmath; only
        # those that parse a constant C (nu, T3, table2's and verify's pairs) load fractions
        assert "mpmath" not in modules, argv
        assert "fractions" not in modules or bool({"nu", "t3", "table2", "verify"} & set(argv)), argv
        if {"bounds", "nu"} & set(argv):
            assert "partitions" not in ours, (argv, sorted(ours))
        assert ("verify" in argv) == ("verify" in ours) == ("series" in ours), (argv, sorted(ours))


# a library caller who runs a sweep passes no context, and gets a verdict, not a real
LIBRARY = """
import sys
from partition_asymptotics import run_suite
results = [run_suite("oracle", n_max=10), run_suite("thm1", n_max=5)]
print([(result.checked, result.ok) for result in results], "mpmath" in sys.modules)
"""


def test_a_library_sweep_loads_no_mpmath():
    env = {key: value for key, value in os.environ.items() if key != CACHE_ENV_VAR}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", LIBRARY], capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[(11, True), (65, True)] False\n", "")
