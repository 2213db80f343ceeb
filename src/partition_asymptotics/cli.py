"""Command-line interface: values, reference tables, verification sweeps.

Output is deterministic: identical invocations produce byte-identical output.
Decimal rendering is explicit everywhere, with mantissas printed as
``[-]0.<digits>e<exponent>``; reference-table blocks share one exponent per
block (that of the largest entry), which is how regression strings are pinned.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

from .bounds import banerjee_bounds, nu, thm1_bounds, thm2_bounds, thm3_bounds
from .coefficients import coeff_asymptotic, coeff_bound, coeff_c
from .errors import DomainError, PrecisionError, ResourceError
from .expansion import remainder_exact
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
_LOG10_2 = math.log10(2)
# relative distance from an integer below which a double log10 is not trusted
# to floor as the exact one (its error is below 1e-12 for any realistic value)
_TIE_MARGIN = 1e-9


# ---------------------------------------------------------------------------
# decimal rendering
# ---------------------------------------------------------------------------


def normalized_exponent(x, ctx: PrecisionContext) -> int:
    """Exponent e with |x| / 10^e in [0.1, 1)."""
    return 0 if x == 0 else _exponent_of(abs(x), ctx)


def _exponent_of(magnitude, ctx: PrecisionContext) -> int:
    """:func:`normalized_exponent` of a positive magnitude, one power of ten per exponent tried.

    The first exponent tried is floor(log10(magnitude)) + 1, from a double
    log10 of the binary mantissa and exponent.  Its error is far below
    ``_TIE_MARGIN``, so away from an integer it floors as the exact
    logarithm does.  Near one the value may lie within an ulp of a power of
    ten, where the two loops settle on either of two exponents depending on
    where they start, so there the first exponent comes from the
    full-precision log10.
    """
    mp = ctx.mp
    mantissa, exponent = mp.mpf(magnitude).man_exp
    guess = math.log10(mantissa) + exponent * _LOG10_2
    if abs(guess - round(guess)) > _TIE_MARGIN * (1 + abs(guess)):
        e = math.floor(guess) + 1
    else:
        e = int(mp.floor(mp.log10(magnitude))) + 1
    power = mp.mpf(10) ** e
    while magnitude / power >= 1:
        e += 1
        power = mp.mpf(10) ** e
    while magnitude / power < mp.mpf("0.1"):
        e -= 1
        power = mp.mpf(10) ** e
    return e


def _mantissa(magnitude, e10: int, ctx: PrecisionContext, sig: int) -> int:
    """magnitude * 10^(sig - e10), rounded to the nearest integer (ties to even)."""
    mp = ctx.mp
    return int(mp.nint(magnitude * mp.mpf(10) ** (sig - e10)))


def _render(x, mantissa: int, e10: int, sig: int) -> str:
    sign = "-" if x < 0 else ""
    return f"{sign}0.{str(mantissa).rjust(sig, '0')}e{e10}"


def format_at_exponent(x, e10: int, ctx: PrecisionContext, sig: int = 10) -> str:
    """Render x as [-]0.<sig digits>e<e10> (round to nearest, ties to even)."""
    return _render(x, _mantissa(abs(x), e10, ctx, sig), e10, sig)


def format_scientific(x, ctx: PrecisionContext, sig: int = 10) -> str:
    """Self-normalized rendering with mantissa in [0.1, 1)."""
    if x == 0:
        return "0." + "0" * sig + "e0"
    magnitude = abs(x)
    e10 = _exponent_of(magnitude, ctx)
    mantissa = _mantissa(magnitude, e10, ctx, sig)
    if mantissa >= 10**sig:  # rounding pushed the mantissa up to 1.0
        e10 += 1
        mantissa = _mantissa(magnitude, e10, ctx, sig)
    return _render(x, mantissa, e10, sig)


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
    table = _obtain_table(args.n, _resolve_cache_path(args.cache))
    return [{"n": str(args.n), "p": str(table.p(args.n))}]


def cmd_coeff(args, ctx: PrecisionContext) -> list:
    coeff_c(args.max_m, ctx)  # the last index first: it checks max_m and grows the source once
    return [
        {
            "m": str(m),
            "c_m": format_scientific(coeff_c(m, ctx), ctx, sig=30),
            "bound": format_scientific(coeff_bound(m, ctx), ctx, sig=30),
            "asymptotic": format_scientific(coeff_asymptotic(m, ctx), ctx, sig=30),
        }
        for m in range(args.max_m + 1)
    ]


def cmd_remainder(args, ctx: PrecisionContext) -> list:
    table = _obtain_table(args.n, _resolve_cache_path(args.cache))
    result = remainder_exact(args.n, args.N, table, ctx, include_theta=args.theta)
    payload = {
        "n": str(args.n),
        "N": str(args.N),
        "remainder": format_scientific(result.remainder, ctx),
        "partial_sum": format_scientific(result.partial_sum, ctx),
        "prefactor": format_scientific(result.prefactor, ctx),
    }
    if result.theta is not None:
        payload["theta"] = format_scientific(result.theta, ctx)
    return [payload]


def cmd_bounds(args, ctx: PrecisionContext) -> list:
    constant = ()
    if args.theorem == "t3":
        if args.constant is None:
            raise DomainError("t3 bounds need --constant C")
        constant = (args.constant,)
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
            "lower": format_scientific(report.lower, ctx),
            "upper": format_scientific(report.upper, ctx),
            "valid": "true" if report.valid else "false",
        }
    )
    return [payload]


def cmd_nu(args, ctx: PrecisionContext) -> list:
    value = nu(args.N, args.C, ctx)
    return [{"N": str(args.N), "C": args.C, "nu": str(value)}]


def _table_block(report, exact, ctx: PrecisionContext) -> dict:
    e10 = max(
        normalized_exponent(v, ctx) for v in (exact, report.lower, report.upper) if v != 0
    )
    return {
        "exact": format_at_exponent(exact, e10, ctx),
        "lower": format_at_exponent(report.lower, e10, ctx),
        "upper": format_at_exponent(report.upper, e10, ctx),
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
        payload.update(_table_block(report, exact, ctx))
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


def run(argv=None, stream=None) -> int:
    stream = stream or sys.stdout
    args = build_parser().parse_args(argv)
    try:
        ctx = PrecisionContext(args.digits)
        if args.command == "verify":
            records, status = cmd_verify(args, ctx)
        else:
            records, status = COMMANDS[args.command](args, ctx), 0
    except (DomainError, PrecisionError, ResourceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    EMITTERS[args.format](records, stream)
    return status


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
