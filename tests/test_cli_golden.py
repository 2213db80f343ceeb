"""CLI output pinned byte for byte: a corpus of commands replayed in-process.

``data/cli_golden.txt`` holds, for each command, its arguments, exit code,
stdout and stderr as one fresh ``python -m partition_asymptotics.cli``
process printed them.  The test replays every command through ``cli.run``
and compares all three.  Run this file as a script to write the corpus anew
from fresh processes:

    PYTHONPATH=src python3 tests/test_cli_golden.py
"""

import io
import os
import shlex
import subprocess
import sys

from partition_asymptotics.cli import CACHE_ENV_VAR, run

CORPUS = os.path.join(os.path.dirname(__file__), "data", "cli_golden.txt")
FORMATS = ("human", "csv", "json")


def _commands():
    """The corpus: every subcommand, every format, and the error cases."""
    commands = [["partition", "100"], ["--format", "json", "partition", "0"], ["partition", "-1"]]
    for fmt, digits in zip(FORMATS, ("30", "31", "80")):
        commands.append(["--digits", digits, "--format", fmt, "coeff", "12"])
    turn = 0
    for digits in ("30", "80", "166"):
        for n, N in (("1", "0"), ("200", "4"), ("2200", "12")):
            commands.append(["--digits", digits, "--format", FORMATS[turn % 3], "remainder", n, N, "--theta"])
            turn += 1
        for n, N in (("1", "0"), ("7", "3"), ("200", "4"), ("2200", "12"), ("1500", "25")):
            for theorem in (["t1"], ["t2"], ["t3", "--constant", "1/4"], ["t3", "--constant", "3.474"], ["banerjee"]):
                commands.append(["--digits", digits, "--format", FORMATS[turn % 3], "bounds", n, N, "--theorem", *theorem])
                turn += 1
    for N, C in (("4", "3.474"), ("6", "1/4"), ("7", "24"), ("10", "5839"), ("11", "866061")):
        commands.append(["nu", N, C])
    commands += [
        ["--digits", "30", "remainder", "141", "4"],
        ["bounds", "2200", "10000", "--theorem", "t2"],
        ["bounds", "2200", "10000", "--theorem", "t3", "--constant", "1/4"],
        ["bounds", "2200", "100000", "--theorem", "t3", "--constant", "1/4"],
        ["table1"],
        ["--format", "csv", "table2"],
        ["--digits", "30", "verify", "lemma1"],
        ["--digits", "30", "verify", "lemma2"],
        ["verify", "thm1", "--n-max", "20"],
        *(["--format", fmt, "verify", "lemma3", "--n-max", "20"] for fmt in FORMATS),
        ["--digits", "30", "verify", "lemma3", "--n-max", "20"],
        ["--format", "json", "verify", "oracle", "--n-max", "20"],
        ["--digits", "30", "verify", "gf"],
        ["--digits", "166", "--format", "json", "verify", "gf"],
        ["--digits", "30", "verify", "asymptotics"],
        ["--format", "csv", "verify", "asymptotics"],
        ["verify", "gf", "--m-max", "3001"],
        ["coeff", "-1"],
        ["bounds", "0", "3"],
        ["bounds", "100", "4", "--theorem", "t3", "--constant", "1/0"],
        ["nu", "4", "1/0"],
        ["nu", "4", "-1"],
        ["bounds", "1", "1", "--theorem", "t3", "--constant", "3.474"],
        ["--digits", "29", "partition", "5"],
        ["--cache", "/nonexistent/dir/x", "partition", "5"],
        # values rounded for the renderer at digit counts the rest lacks
        ["--digits", "31", "bounds", "1000", "11", "--theorem", "banerjee"],
        ["--digits", "300", "--format", "csv", "coeff", "40"],
        ["--digits", "51", "--format", "json", "table1"],
        ["--digits", "47", "--format", "csv", "remainder", "2200", "12", "--theta"],
        ["--digits", "1000", "bounds", "9", "7", "--theorem", "t2"],
        # coefficients rounded once from their balls, and the certified lemmas past the default grid
        ["--digits", "50", "coeff", "60"],
        ["--digits", "160", "--format", "json", "coeff", "60"],
        ["verify", "lemma1", "--m-max", "300"],
        ["verify", "lemma2", "--m-max", "300"],
        # lemma 3 starts at one scale whatever the digits
        ["--digits", "300", "verify", "lemma3", "--n-max", "40"],
    ]
    return commands


def _block(argv, code, out, err) -> str:
    assert all(text == "" or text.endswith("\n") for text in (out, err)), argv
    return (
        f"$ {shlex.join(argv)}\nexit {code}\n"
        f"stdout {out.count(chr(10))}\n{out}stderr {err.count(chr(10))}\n{err}"
    )


def _read_corpus():
    """(argv, exit code, stdout, stderr) for each command of the corpus."""
    with open(CORPUS, encoding="utf-8") as handle:
        lines = handle.read().splitlines(keepends=True)
    cases, i = [], 0
    while i < len(lines):
        argv = shlex.split(lines[i].removeprefix("$ "))
        code = int(lines[i + 1].split()[1])
        streams, i = [], i + 2
        for _ in ("stdout", "stderr"):
            count = int(lines[i].split()[1])
            streams.append("".join(lines[i + 1 : i + 1 + count]))
            i += 1 + count
        cases.append((argv, code, *streams))
    return cases


def test_cli_matches_the_golden_corpus(capsys, monkeypatch):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    cases = _read_corpus()
    assert [argv for argv, *_ in cases] == _commands()
    capsys.readouterr()
    for argv, code, out, err in cases:
        stream = io.StringIO()
        status = run(argv, stream=stream)
        assert (status, stream.getvalue(), capsys.readouterr().err) == (code, out, err), argv


def _write_corpus() -> None:
    env = {key: value for key, value in os.environ.items() if key != CACHE_ENV_VAR}
    blocks = []
    for argv in _commands():
        proc = subprocess.run(
            [sys.executable, "-m", "partition_asymptotics.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        blocks.append(_block(argv, proc.returncode, proc.stdout, proc.stderr))
    os.makedirs(os.path.dirname(CORPUS), exist_ok=True)
    with open(CORPUS, "w", encoding="utf-8") as handle:
        handle.write("".join(blocks))


if __name__ == "__main__":
    _write_corpus()
