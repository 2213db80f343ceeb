"""CLI behaviour: outputs, formats, determinism, caching, precision gates."""

import argparse
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import mpmath

import partition_asymptotics
from partition_asymptotics import PrecisionContext, cli, load_table, verify
from partition_asymptotics.cli import (
    build_parser,
    format_at_exponent,
    format_scientific,
    normalized_exponent,
    run,
)

from helpers import near_tie_constant, ulp, with_header

TABLE1_GOLDEN = """\
n = 200
N = 4
exact = 0.9016237417e-7
lower = -0.1326689978e-7
upper = 0.9713458636e-7

n = 500
N = 6
exact = 0.1523607771e-11
lower = -0.0350755832e-11
upper = 0.1660290513e-11

n = 200
N = 5
exact = 0.0629468759e-7
lower = -0.1582129737e-7
upper = 0.1326689978e-7

n = 500
N = 7
exact = 0.2140730897e-12
lower = -0.3758934747e-12
upper = 0.3507558324e-12

"""


def invoke(*argv):
    stream = io.StringIO()
    status = run(list(argv), stream=stream)
    return status, stream.getvalue()


def test_partition_value():
    status, out = invoke("partition", "100")
    assert status == 0
    assert "p = 190569292" in out


def test_partition_zero():
    status, out = invoke("partition", "0")
    assert status == 0
    assert "p = 1" in out


def test_partition_five():
    status, out = invoke("partition", "5")
    assert status == 0
    assert "p = 7" in out


def test_nu_value():
    status, out = invoke("nu", "4", "3.474")
    assert status == 0
    assert "nu = 116" in out


def test_nu_near_the_branch_point():
    # C within ~1e-100 of the constant where the W_-1 argument reaches -1/e
    C = (
        "4.5600871932171545379084591843063288439868540175423599525308748872320733952357305970"
        "417766558681033302559880945"
    )
    status, out = invoke("nu", "2", C)
    assert status == 0
    assert "nu = 3" in out


def test_nu_near_an_integer_is_exact(capsys):
    # the true nu_4(C) is 200 + epsilon, epsilon < 10^-80: its ceiling, at the default 80 digits
    C = near_tie_constant()
    assert invoke("nu", "4", C) == (0, f"N = 4\nC = {C}\nnu = 201\n\n")
    assert capsys.readouterr().err == ""


def _module(*argv):
    """One fresh ``python -m partition_asymptotics.cli`` process, with Python's own warning display."""
    src = os.path.dirname(os.path.dirname(partition_asymptotics.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run(
        [sys.executable, "-m", "partition_asymptotics.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_module_entry_point():
    proc = _module("nu", "4", "3.474")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "N = 4\nC = 3.474\nnu = 116\n\n", "")


def test_nu_domain_error_is_one_short_line(capsys):
    # the W_-1 argument is shown to 15 digits, not at the working precision
    status, out = invoke("nu", "3", "1e5")
    err = capsys.readouterr().err
    assert (status, out) == (2, "")
    assert err == "error: nu(N=3, C='1e5'): lambert_w_minus1 requires x >= -1/e, got -5.10337369185321\n"
    assert len(err) < 160


def test_table1_golden():
    status, out = invoke("table1")
    assert status == 0
    assert out == TABLE1_GOLDEN


def test_determinism():
    for argv in (["table1"], ["--format", "csv", "table2"], ["--format", "json", "coeff", "5"]):
        first = invoke(*argv)
        second = invoke(*argv)
        assert first == second


def test_csv_format():
    status, out = invoke("--format", "csv", "table2")
    lines = out.strip().split("\n")
    assert lines[0] == "n,N,C,exact,lower,upper"
    assert len(lines) == 5
    assert lines[1].startswith("500,6,1/4,0.1523607771e-11,")


def test_json_format():
    status, out = invoke("--format", "json", "nu", "4", "3.474")
    record = json.loads(out.strip())
    assert record == {"N": "4", "C": "3.474", "nu": "116"}


def test_coeff_rows():
    status, out = invoke("--format", "csv", "coeff", "2")
    lines = out.strip().split("\n")
    assert lines[0] == "m,c_m,bound,asymptotic"
    assert len(lines) == 4
    assert lines[1].startswith("0,0.1000000000")


def test_coeff_negative_is_an_error(capsys):
    for fmt in ("human", "csv", "json"):
        assert invoke("--format", fmt, "coeff", "-1") == (2, "")
        assert capsys.readouterr().err == "error: m must be nonnegative, got -1\n"


# SHA-256 of the stdout of ``coeff``, recorded before the coefficients were
# read from the recurrence: the printed c_m, bounds and approximants stay
# byte-identical.
COEFF_DIGESTS = {
    ("--format", "human", "coeff", "400"): "f6b51d0e77f3ea0240300e11559d4854d0a027cd50ac9d0bce6e34e3ac378e1e",
    ("--format", "csv", "coeff", "400"): "1418819d879a4a5fa2b714330b49764b7f455c0986eb3c6a6455410c036308b4",
    ("--format", "json", "coeff", "400"): "0784b718abcbecaed114539cbe7624717264ab8b131693c822c3c57adcb78198",
    ("--digits", "160", "coeff", "120"): "64eda75f93d4f9fb8c57a3e917289086eb4f083a620066e8dccf76514249608b",
}


def test_coeff_output_digests():
    for argv, digest in COEFF_DIGESTS.items():
        status, out = invoke(*argv)
        assert status == 0
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest, argv


def test_remainder_with_theta():
    status, out = invoke("remainder", "200", "4", "--theta")
    assert status == 0
    assert "remainder = 0.9016237417e-7" in out
    assert "theta = 0." in out


def test_bounds_theorems():
    status, out = invoke("bounds", "200", "4", "--theorem", "t1")
    assert status == 0 and "theorem = T1" in out
    status, out = invoke("bounds", "200", "4", "--theorem", "t3", "--constant", "3.474")
    assert status == 0 and "valid = true" in out
    status, out = invoke("bounds", "100", "4", "--theorem", "t3", "--constant", "3.474")
    assert status == 0 and "valid = false" in out
    status, out = invoke("bounds", "200", "4", "--theorem", "banerjee")
    assert status == 0 and "theorem = Banerjee" in out


def test_bounds_t3_needs_constant():
    status, _ = invoke("bounds", "200", "4", "--theorem", "t3")
    assert status == 2


def test_constant_outside_t3_is_an_error(capsys):
    for theorem in ("t1", "t2", "banerjee"):
        assert invoke("bounds", "100", "4", "--theorem", theorem, "--constant", "5") == (2, "")
        assert capsys.readouterr().err == "error: --constant applies only to --theorem t3\n"


def test_constant_that_is_not_a_number_is_one_error_line(capsys):
    for argv in (("nu", "4", "1/0"), ("bounds", "100", "4", "--theorem", "t3", "--constant", "1/0")):
        assert invoke(*argv) == (2, "")
        assert capsys.readouterr().err == "error: cannot interpret '1/0' as a real number\n"


def test_bounds_invalid_arguments(capsys):
    # the bound families share the argument check of the expansion
    for argv, text in (
        (("bounds", "0", "4"), "need n >= 1 and N >= 0, got n=0, N=4"),
        (("bounds", "0", "-1"), "N must be nonnegative, got -1"),
    ):
        assert invoke(*argv) == (2, "")
        assert capsys.readouterr().err == f"error: {text}\n"


def test_verify_exit_code():
    status, out = invoke("verify", "oracle", "--n-max", "200")
    assert status == 0
    assert "ok = true" in out


def test_digits_gates():
    status, _ = invoke("--digits", "29", "partition", "5")
    assert status == 2
    status, _ = invoke("--digits", "45", "table1")
    assert status == 2
    status, _ = invoke("--digits", "45", "table2")
    assert status == 2


def test_cache_round_trip(tmp_path):
    cache = tmp_path / "partitions.tsv"
    status, out = invoke("--cache", str(cache), "partition", "120")
    assert status == 0 and cache.exists()
    content = cache.read_text()
    status2, out2 = invoke("--cache", str(cache), "partition", "120")
    assert out2 == out
    assert cache.read_text() == content  # reused, not rewritten differently


def test_cache_env_fallback(tmp_path, monkeypatch):
    cache = tmp_path / "env_cache.tsv"
    monkeypatch.setenv("PARTITION_ASYMPTOTICS_CACHE", str(cache))
    status, _ = invoke("partition", "50")
    assert status == 0 and cache.exists()


def _assert_rebuilt(cache, capsys):
    # a bad cache file is never served: one warning, then rebuilt and rewritten
    status, out = invoke("--cache", str(cache), "partition", "2")
    assert status == 0
    assert out == "n = 2\np = 2\n\n"
    warnings = capsys.readouterr().err.splitlines()
    assert len(warnings) == 1 and warnings[0].startswith("warning: ")
    assert load_table(str(cache)).values == (1, 1, 2)


def test_corrupt_cache_rejected(tmp_path, capsys):
    cache = tmp_path / "broken.tsv"
    cache.write_text(with_header("0\t1\n1\t1\n2\t1\n"))  # not strictly increasing
    _assert_rebuilt(cache, capsys)


def test_truncated_cache_rebuilt(tmp_path, capsys):
    cache = tmp_path / "truncated.tsv"
    cache.write_text(with_header("0\t1\n1\t1\n2\t2\n3\t3\n4\t5\n")[:-3])  # cut off mid-line
    _assert_rebuilt(cache, capsys)


def test_flipped_digit_cache_rebuilt(tmp_path, capsys):
    # a file that parses and is increasing but holds a wrong p(n) is caught by its checksum
    cache = tmp_path / "flipped.tsv"
    status, _ = invoke("--cache", str(cache), "partition", "40")
    assert status == 0
    text = cache.read_text()
    assert "\n40\t37338\n" in text
    cache.write_text(text.replace("\n40\t37338\n", "\n40\t37339\n"))
    _assert_rebuilt(cache, capsys)


def test_headerless_cache_rebuilt_once(tmp_path, capsys):
    cache = tmp_path / "old.tsv"
    cache.write_text("0\t1\n1\t1\n2\t2\n")  # the format before the header
    _assert_rebuilt(cache, capsys)
    status, out = invoke("--cache", str(cache), "partition", "2")
    assert (status, out, capsys.readouterr().err) == (0, "n = 2\np = 2\n\n", "")


def test_invalid_n_with_a_covering_cache(tmp_path, capsys):
    # the argument check comes before the cache, so a covering cache leaves the error as it is
    cache = tmp_path / "partitions.tsv"
    cases = {
        ("partition", "-3"): "error: n must be nonnegative, got -3\n",
        ("remainder", "-5", "2"): "error: need n >= 1 and N >= 0, got n=-5, N=2\n",
    }
    for cached in (False, True):
        if cached:
            assert invoke("--cache", str(cache), "partition", "50")[0] == 0
            capsys.readouterr()
        for argv, err in cases.items():
            status, out = invoke("--cache", str(cache), *argv) if cached else invoke(*argv)
            assert (status, out, capsys.readouterr().err) == (2, "", err), (cached, argv)
        assert cache.exists() == cached


def test_directory_as_cache_is_an_error(tmp_path, capsys):
    status, out = invoke("--cache", str(tmp_path), "partition", "5")
    assert (status, out) == (2, "")
    assert capsys.readouterr().err.startswith("error: ")


PUBLIC_NAMES = [
    "BoundsReport",
    "DomainError",
    "MIN_DIGITS",
    "PartitionTable",
    "PrecisionContext",
    "PrecisionError",
    "RemainderResult",
    "ResourceError",
    "SUITE_NAMES",
    "VerifyResult",
    "banerjee_bounds",
    "certified_abs_less",
    "coeff_asymptotic",
    "coeff_bound",
    "coeff_c",
    "exp_error_term",
    "full_sum",
    "lambert_w_minus1",
    "load_table",
    "nu",
    "partition_dp_row",
    "partition_pentagonal",
    "r_hat",
    "recommended_digits",
    "remainder_exact",
    "run_suite",
    "save_table",
    "thm1_bounds",
    "thm2_bounds",
    "thm3_bounds",
]


def test_public_surface():
    # a new public name has to be added here as well, deliberately
    assert sorted(partition_asymptotics.__all__) == PUBLIC_NAMES
    assert all(hasattr(partition_asymptotics, name) for name in partition_asymptotics.__all__)
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    suite = next(a for a in sub.choices["verify"]._actions if a.dest == "suite")
    assert tuple(suite.choices) == verify.SUITE_NAMES


def _rounded(x, k):
    """|x| * 10^k from the exact binary value of x, rounded half to even by Fraction."""
    _, man, exp, _ = x._mpf_
    return round(Fraction(man) * Fraction(2) ** exp * Fraction(10) ** k)


def _oracle_exponent(x):
    """The e with 10^(e-1) <= |x| < 10^e, from the decimal lengths of the exact fraction."""
    if x == 0:
        return 0
    _, man, exp, _ = x._mpf_
    magnitude = Fraction(man) * Fraction(2) ** exp
    e = len(str(magnitude.numerator)) - len(str(magnitude.denominator))
    while magnitude >= Fraction(10) ** e:
        e += 1
    while magnitude < Fraction(10) ** (e - 1):
        e -= 1
    return e


def _oracle_string(x, e, sig):
    return f"{'-' if x < 0 else ''}0.{str(_rounded(x, sig - e)).rjust(sig, '0')}e{e}"


def _check_renderers(x, sig):
    e = _oracle_exponent(x)
    assert normalized_exponent(x) == e, (x, sig)
    for shift in (-1, 0, 1):
        assert format_at_exponent(x, e + shift, sig) == _oracle_string(x, e + shift, sig), (x, sig)
    if _rounded(x, sig - e) == 10**sig:
        e += 1
    assert format_scientific(x, sig) == _oracle_string(x, e, sig), (x, sig)


def test_renderers_round_the_exact_binary_value():
    for digits in (30, 50, 80):  # a few ulps around each power of ten, where the exponent turns
        ctx = PrecisionContext(digits)
        for k in range(-60, 61):
            center = ctx.mp.mpf(10) ** k
            for j in range(-4, 5):
                _check_renderers(center + j * ulp(center, ctx), 10)
    rng = random.Random(20261018)
    for _ in range(400):
        ctx = PrecisionContext(rng.randint(30, 300))
        x = ctx.mp.mpf((rng.choice((-1, 1)) * rng.getrandbits(ctx.mp.prec), rng.randint(-1200, 1200)))
        for sig in (10, 30):
            _check_renderers(x, sig)
    mp = PrecisionContext(30).mp
    for x in (mp.mpf(0), -mp.pi, mp.mpf("-0.99999999996"), mp.mpf(1) / 2**15, mp.mpf(3) / 2**15):
        for sig in (1, 10, 30):
            _check_renderers(x, sig)
    # exact ties go to the even neighbour, and a carry moves to the next exponent
    assert format_scientific(mp.mpf(1) / 2**15) == "0.3051757812e-4"
    assert format_scientific(mp.mpf(3) / 2**15) == "0.9155273438e-4"
    assert format_scientific(mp.mpf("0.99999999996")) == "0.1000000000e1"
    assert format_scientific(-mp.mpf("0.99999999996")) == "-0.1000000000e1"
    assert format_scientific(mp.mpf(0), 3) == "0.000e0"


def test_normalized_exponent_counts_up_at_most_twice(monkeypatch):
    # 2^-(10^7): a start from bits * 1234/4096 counted up about 2400 times, each
    # step a fresh 10^k of some 10^7 bits.  The stand-in answers each call from
    # mpmath at 50 digits, so that counting costs no such power.
    calls = []

    def divide(man, exp, k):
        calls.append(k)
        return int(mpmath.floor(mpmath.ldexp(man, exp) * mpmath.mpf(10) ** k)), None, None

    monkeypatch.setattr(cli, "_divide", divide)
    with mpmath.workdps(50):
        assert normalized_exponent(PrecisionContext(30).mp.mpf((1, -(10**7)))) == -3010299
    assert len(calls) == 1  # the digits of one quotient give the count-ups


def test_one_power_of_ten_per_rendered_value(monkeypatch):
    # every power of ten of a value's scale is formed in _divide, and
    # format_scientific calls it once per value: it used to call it for each
    # step of normalized_exponent and again for each of two mantissas, up to
    # five powers of some 7.8 million bits for a T3 end near 10^-2361314
    calls = []
    divide = cli._divide

    def counted(man, exp, k):
        calls.append(k)
        return divide(man, exp, k)

    monkeypatch.setattr(cli, "_divide", counted)
    mp = PrecisionContext(30).mp
    values = (mp.mpf((1, -(10**5))), -mp.pi, mp.mpf("0.99999999996"), mp.mpf(10) ** 300, mp.mpf(3) / 2**15)
    for x in values:
        for sig in (1, 10, 30):
            calls.clear()
            format_scientific(x, sig)
            assert len(calls) == 1, (x, sig)
    calls.clear()
    assert format_scientific(mp.mpf(0), 3) == "0.000e0" and calls == []
    # the one triple, rescaled by a small 10^d, rounds as the exact value does
    for x in values:
        _, man, exp, _ = x._mpf_
        for k, d in ((5, -3), (5, 2), (-4, -1), (0, 1)):
            assert cli._rounded(divide(man, exp, k), d) == _rounded(x, k + d), (x, k, d)


def test_coeff_row_is_the_exact_value_rounded_once():
    # the binary c_10 at 30 digits lies 0.487 of a unit above ...933 in the 30th digit
    status, out = invoke("--digits", "30", "--format", "csv", "coeff", "10")
    assert status == 0
    assert out.splitlines()[-1] == (
        "10,0.353013872628818170118773787933e-6,"
        "0.355916142722251799164578778332e-6,0.347733068580433125360150395082e-6"
    )
