"""Command-line interface: values, reference tables, verification sweeps.

Output is deterministic: identical invocations produce byte-identical output.
Decimal rendering is explicit everywhere, with mantissas printed as
``[-]0.<digits>e<exponent>``; reference-table blocks share one exponent per
block (that of the largest entry), which is how regression strings are pinned.
Every printed number is the exact binary value of its float, ``man * 2^exp``,
rounded half to even once, in integer arithmetic.  Errors go to stderr as
``error: <message>``, and a rebuilt cache file is reported there as
``warning: <message>``.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import DomainError, PrecisionError, ResourceError, _check_digits

CACHE_ENV_VAR = "PARTITION_ASYMPTOTICS_CACHE"

# reference tables: (n, N) cases with T1 bounds, (n, N, C) cases with T3 bounds,
# C an exact decimal or rational string as on the command line
TABLE_CASES = {
    "table1": ((200, 4), (500, 6), (200, 5), (500, 7)),
    "table2": ((500, 6, "1/4"), (1000, 10, "5839"), (500, 7, "24"), (1000, 11, "866061")),
}
# --theorem name -> the name of its bound family in ``bounds``; t3 alone takes the constant C
THEOREMS = {"t1": "thm1_bounds", "t2": "thm2_bounds", "t3": "thm3_bounds", "banerjee": "banerjee_bounds"}
TABLE_BOUNDS = {"table1": THEOREMS["t1"], "table2": THEOREMS["t3"]}
TABLE_MIN_DIGITS = 50
# ``verify.SUITE_NAMES``, spelled out so that parsing the arguments imports no sweep
SUITE_NAMES = ("lemma1", "lemma2", "lemma3", "thm1", "thm2", "thm3", "gf", "asymptotics", "oracle")


# ---------------------------------------------------------------------------
# decimal rendering
# ---------------------------------------------------------------------------


def _divide(man: int, exp: int, k: int) -> tuple:
    """Floor, remainder and denominator of man * 2^exp * 10^k, by one exact integer division.

    10^k is 5^k * 2^k, so the one large power formed is 5^|k|, and 2^k joins the shift.
    """
    shift = exp + k
    num, den = man * 5 ** max(k, 0) << max(shift, 0), 5 ** max(-k, 0) << max(-shift, 0)
    return (*divmod(num, den), den)


def _rounded(held: tuple, d: int) -> int:
    """y * 10^d rounded to the nearest integer (ties to even), y given as a ``_divide`` triple.

    The power formed has |d| digits only, whatever the scale of y.
    """
    quotient, rest, den = held
    if d >= 0:
        carry, rest = divmod(rest * 10**d, den)
        quotient = quotient * 10**d + carry
    else:
        quotient, rest = divmod(quotient * den + rest, den * 10**-d)
        den *= 10**-d
    return quotient + (2 * rest > den or (2 * rest == den and quotient & 1))


# floor(2^64 log10 2), so that _LOG10_2 / 2^64 < log10 2 < (_LOG10_2 + 1) / 2^64
_LOG10_2 = 5553023288523357132


def _exponent(x) -> tuple:
    """(e, e0, held): the e of normalized_exponent, a start e0 <= e, and |x| / 10^e0 as a ``_divide`` triple.

    With 2^bits <= |x| < 2^(bits+1), e is floor(bits log10 2) + 1 or + 2.  The
    start e0 = floor(bits c) + 1, c the end of the bracket of log10 2 that keeps
    bits c <= bits log10 2, is at most 1 below floor(bits log10 2) + 1 while
    |bits| < 2^64.  As 10^j is an integer, |x| >= 10^(e0 + j) exactly when
    the floor q of |x| / 10^e0 is at least 10^j, so e is e0 plus the number of
    digits of q (none for q = 0): one division, at most 2 digits.
    """
    _, man, exp, bc = x._mpf_
    if not man:
        return 0, 0, (0, 0, 1)
    bits = exp + bc - 1
    e0 = (bits * (_LOG10_2 + (bits < 0)) >> 64) + 1
    held = _divide(man, exp, -e0)
    return (e0 + len(str(held[0])) if held[0] else e0), e0, held


def normalized_exponent(x) -> int:
    """The e with 10^(e-1) <= |x| < 10^e (0 for zero), so that |x| / 10^e lies in [0.1, 1)."""
    return _exponent(x)[0]


def _render(x, mantissa: int, e10: int, sig: int) -> str:
    """[-]0.<mantissa, padded to sig digits>e<e10>, with the sign of x."""
    sign = "-" if x._mpf_[0] else ""
    return f"{sign}0.{str(mantissa).rjust(sig, '0')}e{e10}"


def format_at_exponent(x, e10: int, sig: int = 10) -> str:
    """Render x as [-]0.<sig digits>e<e10>: |x| * 10^(sig - e10) from its exact value, rounded half to even."""
    _, man, exp, _ = x._mpf_
    return _render(x, _rounded(_divide(man, exp, sig - e10), 0), e10, sig)


def format_scientific(x, sig: int = 10) -> str:
    """Self-normalized rendering with mantissa in [0.1, 1); it forms one large power, in ``_divide``."""
    e10, e0, held = _exponent(x)
    mantissa = _rounded(held, sig - e10 + e0)
    if mantissa == 10**sig:  # rounding carried into the next decade, where |x| rounds to 10^(sig-1)
        mantissa, e10 = mantissa // 10, e10 + 1
    return _render(x, mantissa, e10, sig)


# ---------------------------------------------------------------------------
# partition table cache
# ---------------------------------------------------------------------------


def _resolve_cache_path(explicit: str | None) -> str | None:
    return explicit or os.environ.get(CACHE_ENV_VAR) or None


def _obtain_table(n_needed: int, cache_path: str | None):
    """The cached ``PartitionTable`` if it covers ``n_needed``, else a fresh one written back.

    A cache file that ``load_table`` rejects (unreadable, without the versioned
    header, or failing its checksum or invariants) is reported on stderr and
    rebuilt, never served.
    """
    from .partitions import load_table, partition_pentagonal, save_table

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
# subcommands: each imports the modules it uses.  Every printed real is a
# ball rounded once, so each command that prints one takes the renderer's
# context at ``--digits``, which ``run`` has checked; nu and verify print
# integers and verdicts, and take the digit count alone.  None loads mpmath
# ---------------------------------------------------------------------------


def _bound_family(name: str):
    """The bound family that ``THEOREMS`` or ``TABLE_BOUNDS`` names, from ``bounds``."""
    from . import bounds

    return getattr(bounds, name)


def cmd_partition(args) -> list:
    if args.n < 0:
        raise DomainError(f"n must be nonnegative, got {args.n}")
    table = _obtain_table(args.n, _resolve_cache_path(args.cache))
    return [{"n": str(args.n), "p": str(table.p(args.n))}]


def cmd_coeff(args) -> list:
    from .coefficients import coeff_asymptotic, coeff_bound, coeff_c
    from .precision import _Rendering

    ctx = _Rendering(args.digits)
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


def cmd_remainder(args) -> list:
    from .expansion import _check, remainder_exact
    from .precision import _Rendering

    ctx = _Rendering(args.digits)
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


def cmd_bounds(args) -> list:
    from .precision import _Rendering

    constant = ()
    if args.theorem == "t3":
        if args.constant is None:
            raise DomainError("t3 bounds need --constant C")
        constant = (args.constant,)
    elif args.constant is not None:
        raise DomainError("--constant applies only to --theorem t3")
    report = _bound_family(THEOREMS[args.theorem])(args.n, args.N, *constant, _Rendering(args.digits))
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


def cmd_nu(args) -> list:
    from .bounds import nu

    return [{"N": str(args.N), "C": args.C, "nu": str(nu(args.N, args.C))}]


def _table_block(report, exact) -> dict:
    e10 = max(normalized_exponent(v) for v in (exact, report.lower, report.upper) if v._mpf_[1])
    return {
        "exact": format_at_exponent(exact, e10),
        "lower": format_at_exponent(report.lower, e10),
        "upper": format_at_exponent(report.upper, e10),
    }


def cmd_table(args) -> list:
    from .expansion import remainder_exact
    from .precision import _Rendering

    if args.digits < TABLE_MIN_DIGITS:
        raise DomainError(f"table commands need --digits >= {TABLE_MIN_DIGITS}")
    ctx = _Rendering(args.digits)
    cases, bound = TABLE_CASES[args.command], _bound_family(TABLE_BOUNDS[args.command])
    table = _obtain_table(max(case[0] for case in cases), _resolve_cache_path(args.cache))
    records = []
    for n, N, *constant in cases:
        exact = remainder_exact(n, N, table, ctx).remainder
        report = bound(n, N, *constant, ctx)
        payload = dict(zip(("n", "N", "C"), (str(n), str(N), *constant)))
        payload.update(_table_block(report, exact))
        records.append(payload)
    return records


def cmd_verify(args) -> tuple[list, int]:
    from .verify import run_suite

    result = run_suite(args.suite, n_max=args.n_max, m_max=args.m_max, digits=args.digits)
    record = {
        "suite": result.suite,
        "checked": str(result.checked),
        "ok": "true" if result.ok else "false",
        "counterexample": result.counterexample or "",
    }
    return [record], 0 if result.ok else 1


def __getattr__(name: str):
    # ``cli.nu`` resolves to ``bounds.nu`` only because perfbench's tracer
    # test reads it here; no command needs it
    if name == "nu":
        from .bounds import nu

        return nu
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _emit_human(records: list, stream) -> None:
    for record in records:
        for key, value in record.items():
            stream.write(f"{key} = {value}\n")
        stream.write("\n")


def _emit_csv(records: list, stream) -> None:
    import csv

    if not records:
        return
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(records[0].keys())
    for record in records:
        writer.writerow(record.values())


def _emit_json(records: list, stream) -> None:
    import json

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
        _check_digits(args.digits)
        if args.command == "verify":
            records, status = cmd_verify(args)
        else:
            records, status = COMMANDS[args.command](args), 0
    except (DomainError, PrecisionError, ResourceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    EMITTERS[args.format](records, stream)
    return status


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
