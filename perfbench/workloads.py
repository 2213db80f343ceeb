"""Workload inputs, pinned references, independent oracles and output checks.

Everything here runs in the benchmark's parent process and never imports the
program: inputs are generated from the seed alone, and outputs are judged
against references copied into the benchmark or recomputed by code that
shares nothing with the program but the published formulas.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from fractions import Fraction
from math import comb, factorial

import mpmath

WORKLOADS = ("sweep-enclosure", "coeff-certify", "large-n", "cli")
SWEEPS = ("sweep-enclosure", "coeff-certify")  # one process runs a fixed set of suites

# (suite, run_suite overrides, expected checked count).  The grids of thm1,
# thm2 and lemma3 (n_max 500 -> 150) and of lemma1 and lemma2 (m_max 400 ->
# 200) are shrunk so that a round takes a few seconds; at the acceptance grids
# the counts are thm1 6500, thm2 6500, lemma3 7492, lemma1 400, lemma2 20702.
# thm3, gf and asymptotics keep their acceptance grids.
SWEEP_SUITES = (
    ("thm1", {"n_max": 150}, 1950),
    ("thm2", {"n_max": 150}, 1950),
    ("thm3", {}, 1005),
    ("lemma3", {"n_max": 150}, 7142),
)
COEFF_SUITES = (
    ("lemma1", {"m_max": 200}, 200),
    ("lemma2", {"m_max": 200}, 20502),
    ("gf", {}, 101),
    ("asymptotics", {}, 255),
)

# large-n: the table is always built to the top of the band, so its cost does
# not depend on the seed; the sampled points are stratified over the band.
LARGE_N_BAND = (10_000, 20_000)
LARGE_N_POINTS = 12
LARGE_N_MAX_N = 12

# Reference strings of the two tables, as tests/test_acceptance.py pins them.
# The (500, 6, 1/4) lower bound is the documented entry: the CLI prints the
# correctly rounded ...21 where the printed reference reads ...20.
TABLE1_REFERENCE = (
    ((200, 4), ("0.9016237417e-7", "-0.1326689978e-7", "0.9713458636e-7")),
    ((500, 6), ("0.1523607771e-11", "-0.0350755832e-11", "0.1660290513e-11")),
    ((200, 5), ("0.0629468759e-7", "-0.1582129737e-7", "0.1326689978e-7")),
    ((500, 7), ("0.2140730897e-12", "-0.3758934747e-12", "0.3507558324e-12")),
)
TABLE2_REFERENCE = (
    ((500, 6, "1/4"), ("0.1523607771e-11", "-0.0382776521e-11", "0.1709265000e-11")),
    ((1000, 10, "5839"), ("0.1676334056e-17", "-0.2432084216e-17", "0.2432440132e-17")),
    ((500, 7, "24"), ("0.2140730897e-12", "-0.3837969630e-12", "0.3586095691e-12")),
    ((1000, 11, "866061"), ("0.1675981042e-17", "-0.2432081529e-17", "0.2432076748e-17")),
)

# nu_N(C) for the T3 reference pairs; nu_4(3.474) = 116 is the published value,
# the others are pinned at the commit that introduced this benchmark.
NU_PINNED = {
    (4, "3.474"): 116,
    (6, "1/4"): 497,
    (7, "24"): 499,
    (10, "5839"): 1000,
    (11, "866061"): 1000,
}

FORMATS = ("human", "csv", "json")
CACHE_COMMANDS = ("partition", "remainder", "table1", "table2")
CLI_MAX_N = 2000  # 80 digits (the CLI default) cover recommended_digits(n) up to here


# ---------------------------------------------------------------------------
# seeded generators
# ---------------------------------------------------------------------------


def large_n_points(seed: int) -> list:
    """One point drawn uniformly from each of LARGE_N_POINTS equal strata of the band."""
    rng = random.Random(f"large-n:{seed}")
    lo, hi = LARGE_N_BAND
    width = (hi - lo) // LARGE_N_POINTS
    return [lo + i * width + rng.randint(1, width) for i in range(LARGE_N_POINTS)]


def cli_commands(seed: int) -> list:
    """One pass of CLI commands, as (subcommand, args) pairs, in run order.

    Every subcommand appears once (bounds once per theorem, nu twice, partition
    and remainder twice); the table-reading commands (CACHE_COMMANDS) share the
    pass's cache file, and the first of them is ``partition`` at the largest n
    any of them needs, so that it writes the file and all later ones read it.
    """
    rng = random.Random(f"cli:{seed}")
    n_big = rng.randint(CLI_MAX_N, CLI_MAX_N + 200)
    primer = ("partition", [str(n_big)])
    pairs = sorted(NU_PINNED)
    t3_N, t3_C = rng.choice(pairs)
    nu_pair = rng.choice(pairs[1:])

    def n_and_N(low_N):
        return [str(rng.randint(500, CLI_MAX_N)), str(rng.randint(low_N, 12))]

    # the ranges are narrow so that a pass does about the same work whatever the seed
    commands = [
        ("partition", [str(rng.randint(500, n_big))]),
        ("remainder", n_and_N(4) + ["--theta"]),
        ("remainder", n_and_N(4) + ["--theta"]),
        ("table1", []),
        ("table2", []),
        ("coeff", [str(rng.randint(25, 35))]),
        ("bounds", n_and_N(2) + ["--theorem", "t1"]),
        ("bounds", n_and_N(2) + ["--theorem", "t2"]),
        ("bounds", [str(rng.randint(NU_PINNED[(t3_N, t3_C)], CLI_MAX_N)), str(t3_N), "--theorem", "t3", "--constant", t3_C]),
        ("bounds", n_and_N(2) + ["--theorem", "banerjee"]),
        ("nu", ["4", "3.474"]),
        ("nu", [str(nu_pair[0]), nu_pair[1]]),
        ("verify", ["thm1", "--n-max", str(rng.randint(40, 50))]),
    ]
    rng.shuffle(commands)
    first_cache_user = next(i for i, (cmd, _) in enumerate(commands) if cmd in CACHE_COMMANDS)
    commands.insert(first_cache_user, primer)
    return commands


def cli_argv(command, pass_index: int, position: int, cache_path: str) -> list:
    """Full argv of one command; the format rotates so three passes cover all three."""
    name, args = command
    argv = ["--format", FORMATS[(position + pass_index) % len(FORMATS)]]
    if name in CACHE_COMMANDS:
        argv += ["--cache", cache_path]
    return argv + [name] + list(args)


def inputs_for(workload: str, seed: int) -> dict:
    """Everything a workload's rounds receive; the sweeps ignore the seed."""
    if workload == "sweep-enclosure":
        return {"suites": [[name, kw] for name, kw, _ in SWEEP_SUITES], "seed_used": False}
    if workload == "coeff-certify":
        return {"suites": [[name, kw] for name, kw, _ in COEFF_SUITES], "seed_used": False}
    if workload == "large-n":
        return {
            "points": large_n_points(seed),
            "table_n": LARGE_N_BAND[1],
            "max_N": LARGE_N_MAX_N,
            "seed_used": True,
        }
    if workload == "cli":
        return {"commands": cli_commands(seed), "seed_used": True}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


class Oracle:
    """p(n) from sympy's Hardy-Ramanujan-Rademacher code, and c_m / R_N(n) from
    the closed forms, evaluated here with mpmath at generous precision."""

    def __init__(self):
        from sympy.functions.combinatorial.numbers import partition

        self._partition = partition
        self._p = {}
        self.mp = mpmath.MPContext()

    def p(self, n: int) -> int:
        if n not in self._p:
            self._p[n] = int(self._partition(n))
        return self._p[n]

    def _dps(self, n: int) -> int:
        return 60 + math.ceil(math.pi * math.sqrt(2 * n / 3) / math.log(10))

    def c(self, m: int, dps: int):
        mp = self.mp
        mp.dps = dps
        total = mp.mpf(0)
        for k in range((m + 1) // 2 + 1):
            q = Fraction(comb(m + 1, k) * (m + 1 - k), factorial(m + 1 - 2 * k))
            total += mp.mpf(q.numerator) / q.denominator * (mp.pi / 6) ** (m - 2 * k)
        value = total / (4 * mp.sqrt(6)) ** m
        return -value if m % 2 else value

    def remainder(self, n: int, N: int):
        """(R_N(n), partial sum, prefactor) from the exact p(n)."""
        mp = self.mp
        dps = self._dps(n)
        terms = [self.c(m, dps) for m in range(N)]
        mp.dps = dps
        growth = mp.exp(mp.pi * mp.sqrt(mp.mpf(2 * n) / 3))
        prefactor = growth / (4 * mp.sqrt(3) * n)
        partial = sum((t / mp.sqrt(n) ** m for m, t in enumerate(terms)), mp.mpf(0))
        return self.p(n) / prefactor - partial, partial, prefactor


# ---------------------------------------------------------------------------
# output checks: each returns a list of failure reasons (empty when correct)
# ---------------------------------------------------------------------------


def check_suite(name: str, expected_checked: int, outcome: dict) -> list:
    if "error" in outcome:
        return [f"{name}: raised {outcome['error']}"]
    reasons = []
    if not outcome["ok"]:
        reasons.append(f"{name}: verdict not ok ({outcome['counterexample']})")
    if outcome["checked"] != expected_checked:
        reasons.append(f"{name}: checked {outcome['checked']}, expected {expected_checked}")
    return reasons


def check_large_n_point(op: dict, oracle: Oracle) -> list:
    reasons = list(op.get("failures", []))
    if int(op["p"]) != oracle.p(op["n"]):
        reasons.append(f"p({op['n']}) differs from the oracle")
    return reasons


def parse_records(fmt: str, text: str) -> list:
    """CLI output in any format -> list of {key: string} records."""
    if fmt == "json":
        return [json.loads(line) for line in text.splitlines() if line]
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        return [dict(zip(rows[0], row)) for row in rows[1:]] if rows else []
    records = []
    for block in text.split("\n\n"):
        lines = [line for line in block.splitlines() if line]
        if lines:
            records.append(dict(line.split(" = ", 1) for line in lines))
    return records


def render_records(fmt: str, records: list) -> str:
    """The exact bytes the CLI prints for ``records`` (used for pinned tables)."""
    if fmt == "json":
        return "".join(json.dumps(r) + "\n" for r in records)
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(records[0].keys())
        for r in records:
            writer.writerow(r.values())
        return out.getvalue()
    return "".join("".join(f"{k} = {v}\n" for k, v in r.items()) + "\n" for r in records)


def pinned_table(name: str) -> list:
    rows = []
    if name == "table1":
        for (n, N), (exact, lower, upper) in TABLE1_REFERENCE:
            rows.append({"n": str(n), "N": str(N), "exact": exact, "lower": lower, "upper": upper})
    else:
        for (n, N, C), (exact, lower, upper) in TABLE2_REFERENCE:
            rows.append({"n": str(n), "N": str(N), "C": C, "exact": exact, "lower": lower, "upper": upper})
    return rows


def _close(printed: str, value, rel: float, mp) -> bool:
    x = mp.mpf(printed)
    return abs(x - value) <= rel * abs(value)


def check_cli_output(command, fmt: str, stdout: str, oracle: Oracle) -> list:
    """Judge one CLI command's stdout against its oracle or pinned string."""
    name, args = command
    if name in ("table1", "table2"):
        expected = render_records(fmt, pinned_table(name))
        return [] if stdout == expected else [f"{name} ({fmt}) differs from the pinned table"]
    try:
        records = parse_records(fmt, stdout)
    except (ValueError, csv.Error) as exc:
        return [f"{name} ({fmt}): unparseable output: {exc}"]
    if not records or (name != "coeff" and len(records) != 1):
        return [f"{name} ({fmt}): expected one record, got {len(records)}"]
    mp = oracle.mp
    rec = records[0]
    try:
        if name == "partition":
            n = int(args[0])
            ok = rec == {"n": str(n), "p": str(oracle.p(n))}
            return [] if ok else [f"partition {n}: wrong p(n)"]
        if name == "nu":
            key = (int(args[0]), args[1])
            ok = rec == {"N": args[0], "C": args[1], "nu": str(NU_PINNED[key])}
            return [] if ok else [f"nu {args[0]} {args[1]}: differs from pinned {NU_PINNED[key]}"]
        if name == "verify":
            n_max = int(args[2])
            expected = {"suite": args[0], "checked": str(13 * n_max), "ok": "true", "counterexample": ""}
            return [] if rec == expected else [f"verify {args[0]} --n-max {n_max}: {rec}"]
        if name == "coeff":
            return _check_coeff(int(args[0]), records, oracle)
        if name == "remainder":
            n, N = int(args[0]), int(args[1])
            exact, partial, prefactor = oracle.remainder(n, N)
            theta = mp.mpf(rec["theta"])
            ok = (
                rec["n"] == str(n)
                and rec["N"] == str(N)
                and _close(rec["remainder"], exact, 1e-9, mp)
                and _close(rec["partial_sum"], partial, 1e-9, mp)
                and _close(rec["prefactor"], prefactor, 1e-9, mp)
                and 0 < theta < 1
            )
            return [] if ok else [f"remainder {n} {N}: differs from the oracle"]
        if name == "bounds":
            return _check_bounds(args, rec, oracle)
    except (KeyError, ValueError, TypeError) as exc:
        return [f"{name} ({fmt}): malformed record {rec!r}: {exc!r}"]
    return [f"{name}: no check for this subcommand"]


def _check_coeff(max_m: int, records: list, oracle: Oracle) -> list:
    mp = oracle.mp
    if [r["m"] for r in records] != [str(m) for m in range(max_m + 1)]:
        return [f"coeff {max_m}: wrong rows"]
    for m, rec in enumerate(records):
        exact = oracle.c(m, 60)
        c_m, bound, asymptotic = (mp.mpf(rec[k]) for k in ("c_m", "bound", "asymptotic"))
        if not (abs(c_m - exact) <= mp.mpf("1e-25") * abs(exact) and abs(c_m) <= bound):
            return [f"coeff: c_{m} or its bound differs from the oracle"]
        if not 0.5 < asymptotic / c_m < 2:
            return [f"coeff: asymptotic approximant of c_{m} is off"]
    return []


def _check_bounds(args, rec, oracle: Oracle) -> list:
    mp = oracle.mp
    n, N, theorem = int(args[0]), int(args[1]), args[3]
    lower, upper = mp.mpf(rec["lower"]), mp.mpf(rec["upper"])
    label = f"bounds {n} {N} {theorem}"
    if theorem == "banerjee":
        ok = rec["theorem"] == "Banerjee" and rec["valid"] == "false" and lower < upper
        return [] if ok else [f"{label}: malformed comparison bounds"]
    exact, _, _ = oracle.remainder(n, N)
    ok = rec["valid"] == "true" and lower < exact < upper
    if theorem == "t3":
        ok = ok and rec["C"] == args[5]
    return [] if ok else [f"{label}: the exact remainder is not enclosed"]
