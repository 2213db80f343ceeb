"""Command-line interface: values, reference tables, verification sweeps.

Output is deterministic: identical invocations produce byte-identical output.
Decimal rendering is explicit everywhere, with mantissas printed as
``[-]0.<digits>e<exponent>``; reference-table blocks share one exponent per
block (that of the largest entry), which is how regression strings are pinned.
Every printed number is the exact binary value of its float, ``man * 2^exp``,
rounded half to even once, in integer arithmetic.  Warnings go to stderr as
``warning: <message>``, each distinct one once, with no path or line number.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import warnings

from .bounds import banerjee_bounds, nu, thm1_bounds, thm2_bounds, thm3_bounds
from .coefficients import coeff_asymptotic, coeff_bound, coeff_c
from .errors import DomainError, PrecisionError, PrecisionWarning, ResourceError
from .expansion import _check, remainder_exact
from .partitions import PartitionTable, load_table, partition_pentagonal, save_table
from .precision import PrecisionContext
from .verify import SUITE_NAMES, run_suite

CACHE_ENV_VAR = "PARTITION_ASYMPTOTICS_CACHE"

# reference tables: (n, N) cases with T1 bounds, (n, N, C) cases with T3 bounds,
# C an exact decimal or rational string as on the command line
TABLE_CASES = {
    "table1": ((200, 4), (500, 6), (200, 5), (500, 7)),
    "table2": ((500, 6, "1/4"), (1000, 10, "5839"), (500, 7, "24"), (1000, 11, "866061")),
}
# --theorem name -> bound family; t3 alone takes the constant C
THEOREMS = {"t1": thm1_bounds, "t2": thm2_bounds, "t3": thm3_bounds, "banerjee": banerjee_bounds}
TABLE_BOUNDS = {"table1": THEOREMS["t1"], "table2": THEOREMS["t3"]}
TABLE_MIN_DIGITS = 50


# ---------------------------------------------------------------------------
# decimal rendering
# ---------------------------------------------------------------------------


def _divide(man: int, exp: int, k: int) -> tuple:
    """Floor, remainder and denominator of man * 2^exp * 10^k, by one exact integer division."""
    num, den = man * 10 ** max(k, 0) << max(exp, 0), 10 ** max(-k, 0) << max(-exp, 0)
    return (*divmod(num, den), den)


def normalized_exponent(x) -> int:
    """The e with 10^(e-1) <= |x| < 10^e (0 for zero), so that |x| / 10^e lies in [0.1, 1)."""
    _, man, exp, bc = x._mpf_
    if not man:
        return 0
    bits = exp + bc - 1  # 2^bits <= |x|, and 1233/4096 < log10(2) < 1234/4096
    e = (bits * (1233 if bits >= 0 else 1234) >> 12) + 1
    while _divide(man, exp, -e)[0]:  # counted up from that lower bound while |x| >= 10^e
        e += 1
    return e


def _mantissa(x, e10: int, sig: int) -> int:
    """|x| * 10^(sig - e10) from the exact value of x, rounded to the nearest integer (ties to even)."""
    _, man, exp, _ = x._mpf_
    quotient, rest, den = _divide(man, exp, sig - e10)
    return quotient + (2 * rest > den or (2 * rest == den and quotient & 1))


def format_at_exponent(x, e10: int, sig: int = 10) -> str:
    """Render x as [-]0.<sig digits>e<e10> (round to nearest, ties to even)."""
    sign = "-" if x._mpf_[0] else ""
    return f"{sign}0.{str(_mantissa(x, e10, sig)).rjust(sig, '0')}e{e10}"


def format_scientific(x, sig: int = 10) -> str:
    """Self-normalized rendering with mantissa in [0.1, 1)."""
    e10 = normalized_exponent(x)
    if _mantissa(x, e10, sig) == 10**sig:  # rounding carried the mantissa into the next decade
        e10 += 1
    return format_at_exponent(x, e10, sig)


# ---------------------------------------------------------------------------
# partition table cache
# ---------------------------------------------------------------------------


def _resolve_cache_path(explicit: str | None) -> str | None:
    return explicit or os.environ.get(CACHE_ENV_VAR) or None


def _obtain_table(n_needed: int, cache_path: str | None) -> PartitionTable:
    """The cached table if it covers ``n_needed``, else a fresh one written back.

    A cache file that ``load_table`` rejects (unreadable, without the versioned
    header, or failing its checksum or invariants) is reported on stderr and
    rebuilt, never served.
    """
    if cache_path and os.path.exists(cache_path):
        try:
            table = load_table(cache_path)
        except ValueError as exc:
            print(f"warning: rebuilding unreadable cache: {exc}", file=sys.stderr)
        else:
            if table.n_max >= n_needed:
                return table
    table = partition_pentagonal(n_needed)
    if cache_path:
        save_table(table, cache_path)
    return table


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_partition(args, ctx: PrecisionContext) -> list:
    if args.n < 0:
        raise DomainError(f"n must be nonnegative, got {args.n}")
    table = _obtain_table(args.n, _resolve_cache_path(args.cache))
    return [{"n": str(args.n), "p": str(table.p(args.n))}]


def cmd_coeff(args, ctx: PrecisionContext) -> list:
    coeff_c(args.max_m, ctx)  # the last index first: it checks max_m and grows the source once
    return [
        {
            "m": str(m),
            "c_m": format_scientific(coeff_c(m, ctx), sig=30),
            "bound": format_scientific(coeff_bound(m, ctx), sig=30),
            "asymptotic": format_scientific(coeff_asymptotic(m, ctx), sig=30),
        }
        for m in range(args.max_m + 1)
    ]


def cmd_remainder(args, ctx: PrecisionContext) -> list:
    _check(args.n, args.N)  # before the cache, so that the error does not depend on it
    table = _obtain_table(args.n, _resolve_cache_path(args.cache))
    result = remainder_exact(args.n, args.N, table, ctx, include_theta=args.theta)
    payload = {
        "n": str(args.n),
        "N": str(args.N),
        "remainder": format_scientific(result.remainder),
        "partial_sum": format_scientific(result.partial_sum),
        "prefactor": format_scientific(result.prefactor),
    }
    if result.theta is not None:
        payload["theta"] = format_scientific(result.theta)
    return [payload]


def cmd_bounds(args, ctx: PrecisionContext) -> list:
    constant = ()
    if args.theorem == "t3":
        if args.constant is None:
            raise DomainError("t3 bounds need --constant C")
        constant = (args.constant,)
    elif args.constant is not None:
        raise DomainError("--constant applies only to --theorem t3")
    report = THEOREMS[args.theorem](args.n, args.N, *constant, ctx)
    payload = {
        "n": str(args.n),
        "N": str(args.N),
        "theorem": report.theorem,
    }
    if report.C is not None:
        payload["C"] = args.constant
    payload.update(
        {
            "lower": format_scientific(report.lower),
            "upper": format_scientific(report.upper),
            "valid": "true" if report.valid else "false",
        }
    )
    return [payload]


def cmd_nu(args, ctx: PrecisionContext) -> list:
    value = nu(args.N, args.C, ctx)
    return [{"N": str(args.N), "C": args.C, "nu": str(value)}]


def _table_block(report, exact) -> dict:
    e10 = max(normalized_exponent(v) for v in (exact, report.lower, report.upper) if v != 0)
    return {
        "exact": format_at_exponent(exact, e10),
        "lower": format_at_exponent(report.lower, e10),
        "upper": format_at_exponent(report.upper, e10),
    }


def cmd_table(args, ctx: PrecisionContext) -> list:
    if ctx.digits < TABLE_MIN_DIGITS:
        raise DomainError(f"table commands need --digits >= {TABLE_MIN_DIGITS}")
    cases, bound = TABLE_CASES[args.command], TABLE_BOUNDS[args.command]
    table = _obtain_table(max(case[0] for case in cases), _resolve_cache_path(args.cache))
    records = []
    for n, N, *constant in cases:
        exact = remainder_exact(n, N, table, ctx).remainder
        report = bound(n, N, *constant, ctx)
        payload = dict(zip(("n", "N", "C"), (str(n), str(N), *constant)))
        payload.update(_table_block(report, exact))
        records.append(payload)
    return records


def cmd_verify(args, ctx: PrecisionContext) -> tuple[list, int]:
    result = run_suite(args.suite, n_max=args.n_max, m_max=args.m_max, ctx=ctx)
    record = {
        "suite": result.suite,
        "checked": str(result.checked),
        "ok": "true" if result.ok else "false",
        "counterexample": result.counterexample or "",
    }
    return [record], 0 if result.ok else 1


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _emit_human(records: list, stream) -> None:
    for record in records:
        for key, value in record.items():
            stream.write(f"{key} = {value}\n")
        stream.write("\n")


def _emit_csv(records: list, stream) -> None:
    if not records:
        return
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(records[0].keys())
    for record in records:
        writer.writerow(record.values())


def _emit_json(records: list, stream) -> None:
    for record in records:
        stream.write(json.dumps(record) + "\n")


EMITTERS = {"human": _emit_human, "csv": _emit_csv, "json": _emit_json}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partition-asymptotics",
        description="Exact partition numbers, expansion remainders, and certified bounds.",
    )
    parser.add_argument("--digits", type=int, default=80, help="decimal working precision (>= 30)")
    parser.add_argument("--format", choices=sorted(EMITTERS), default="human")
    parser.add_argument("--cache", default=None, help=f"partition table file (or ${CACHE_ENV_VAR})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="exact p(n)")
    p.add_argument("n", type=int)

    p = sub.add_parser("coeff", help="coefficient table: m, c_m, bound, asymptotic")
    p.add_argument("max_m", type=int)

    p = sub.add_parser("remainder", help="exact truncation remainder R_N(n)")
    p.add_argument("n", type=int)
    p.add_argument("N", type=int)
    p.add_argument("--theta", action="store_true", help="include the tail mediant")

    p = sub.add_parser("bounds", help="remainder bounds for one (n, N)")
    p.add_argument("n", type=int)
    p.add_argument("N", type=int)
    p.add_argument("--theorem", choices=tuple(THEOREMS), default="t1")
    p.add_argument("--constant", default=None, help="C for t3 (exact decimal or rational)")

    p = sub.add_parser("nu", help="validity threshold nu_N(C)")
    p.add_argument("N", type=int)
    p.add_argument("C", help="exact decimal or rational, e.g. 3.474 or 1/4")

    sub.add_parser("table1", help="reference table: remainders with T1 bounds")
    sub.add_parser("table2", help="reference table: remainders with T3 bounds")

    p = sub.add_parser("verify", help="run one verification sweep")
    p.add_argument("suite", choices=SUITE_NAMES)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--m-max", type=int, default=None)

    return parser


COMMANDS = {
    "partition": cmd_partition,
    "coeff": cmd_coeff,
    "remainder": cmd_remainder,
    "bounds": cmd_bounds,
    "nu": cmd_nu,
    "table1": cmd_table,
    "table2": cmd_table,
}


def _report_warnings(caught: list) -> None:
    """Each distinct PrecisionWarning once, in order, as ``warning: <message>``;
    any other warning as Python shows it."""
    printed = set()
    for item in caught:
        message = str(item.message)
        if not issubclass(item.category, PrecisionWarning):
            warnings.showwarning(item.message, item.category, item.filename, item.lineno)
        elif message not in printed:
            printed.add(message)
            print(f"warning: {message}", file=sys.stderr)


def run(argv=None, stream=None) -> int:
    stream = stream or sys.stdout
    args = build_parser().parse_args(argv)
    failure = None
    with warnings.catch_warnings(record=True) as caught:
        try:
            ctx = PrecisionContext(args.digits)
            if args.command == "verify":
                records, status = cmd_verify(args, ctx)
            else:
                records, status = COMMANDS[args.command](args, ctx), 0
        except (DomainError, PrecisionError, ResourceError, ValueError, OSError) as exc:
            failure = exc
    _report_warnings(caught)
    if failure is not None:
        print(f"error: {failure}", file=sys.stderr)
        return 2
    EMITTERS[args.format](records, stream)
    return status


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
