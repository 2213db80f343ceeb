"""Smoke runs of the verification sweeps at reduced sizes, and the sweep driver."""

import io
import json

import pytest

from partition_asymptotics import DomainError, bounds, cli, coefficients, expansion, run_suite, verify


def _verify_at(digits, suite, *grid):
    """The result that ``verify suite`` prints at ``--digits``, through the CLI, as a VerifyResult."""
    stream = io.StringIO()
    status = cli.run(["--digits", str(digits), "--format", "json", "verify", suite, *grid], stream=stream)
    record = json.loads(stream.getvalue())
    result = verify.VerifyResult(record["suite"], int(record["checked"]), record["ok"] == "true", record["counterexample"] or None)
    assert status == (0 if result.ok else 1)
    return result


def _recording(monkeypatch, *modules):
    """The scales of every ``_ball_decide`` group the modules form, one list per group, in order."""
    groups = []
    original = verify._ball_decide

    def recording(signs, bits, *what):
        groups.append([])

        def at(P):
            groups[-1].append(P)
            return signs(P)

        return original(at, bits, *what)

    for module in modules:
        monkeypatch.setattr(module, "_ball_decide", recording)
    return groups


def test_lemma1_small():
    result = run_suite("lemma1", m_max=60)
    assert result.ok and result.counterexample is None
    assert result.checked == 60


def test_lemma1_settles_the_equal_first_ratio_at_every_digit_count():
    # |c_1/c_0| is the odd cap itself, so rounded values decided it by a coin
    # flip: they failed it at 30, 32 and 81 digits and passed it at 50
    for digits in (30, 32, 50, 81):
        assert _verify_at(digits, "lemma1") == verify.VerifyResult("lemma1", 400, True)


def test_lemma2_small():
    result = run_suite("lemma2", m_max=60)
    assert result.ok


def test_thm1_small():
    result = run_suite("thm1", n_max=60)
    assert result.ok
    assert result.checked == 60 * 13


def test_thm2_small():
    assert run_suite("thm2", n_max=60).ok


def test_gf_small():
    assert run_suite("gf", m_max=40).ok


def test_asymptotics():
    result = run_suite("asymptotics")
    assert result.ok
    assert result.checked == 255


def test_asymptotics_suite_fails_on_an_odd_approximant_of_the_wrong_sign(monkeypatch):
    # without its (-1)^m the dominant-singularity approximant has the wrong
    # sign at odd m; its deviation is then about 2 at m = 51 and 301 alike,
    # and the bound at m = 301 stops the suite at its third check
    def unsigned(m, bits):
        middle, radius = coefficients._ball_darboux(m, bits)
        return (-1) ** m * middle, radius

    monkeypatch.setattr(verify, "_ball_darboux", unsigned)
    result = run_suite("asymptotics")
    assert (result.ok, result.checked) == (False, 3)
    assert result.counterexample == "approximant deviation not smaller at m=300, 301 than m=50, 51, or not below 0.05 at m=301"


def test_thm3_parses_each_reference_constant_once(monkeypatch):
    # nu parses its constant once per pair, and the sweep once per pair when
    # it builds its thresholds; the balls take the Fraction
    calls = 0
    original = bounds._constant

    def counting(C):
        nonlocal calls
        calls += 1
        return original(C)

    for module in (bounds, verify):
        monkeypatch.setattr(module, "_constant", counting)
    bounds.nu.cache_clear()
    assert run_suite("thm3") == verify.VerifyResult("thm3", 1005, True)
    assert calls <= 2 * len(verify.THM3_REFERENCE_PAIRS) == 10


def test_oracle_small():
    result = run_suite("oracle", n_max=400)
    assert result.ok
    assert result.checked == 401


def test_run_suite_dispatch():
    result = run_suite("oracle", n_max=100)
    assert result.suite == "oracle" and result.ok
    with pytest.raises(DomainError):
        run_suite("nonsense")


def test_driver_stops_at_first_counterexample(monkeypatch):
    original = verify._ball_pass

    def broken(n, K, bits):
        terms, sums = original(n, K, bits)
        if n == 3:  # a first omitted term of -1 at N = 5 lifts the odd-N lower end to 1 - E(3)
            terms = (*terms[:5], (-1 << bits, 0), *terms[6:])
        return terms, sums

    monkeypatch.setattr(verify, "_ball_pass", broken)
    result = run_suite("thm1", n_max=5)
    assert not result.ok
    assert result.checked == 2 * 13 + 6  # n = 1, 2 in full, then N = 0..5 at n = 3
    assert result.counterexample == "T1 enclosure fails at n=3, N=5"


def test_grid_overrides_apply_only_to_their_suites():
    # n_max does not resize an m_max suite, nor m_max an n_max suite
    assert run_suite("gf", n_max=5).checked == 101
    assert run_suite("oracle", m_max=5).checked == 2001


def test_grid_size_zero_is_honoured_and_negative_rejected():
    assert run_suite("oracle", n_max=0).checked == 1
    assert run_suite("thm1", n_max=0) == verify.VerifyResult("thm1", 0, True)
    with pytest.raises(DomainError):
        run_suite("oracle", n_max=-1)
    with pytest.raises(DomainError):
        run_suite("lemma1", m_max=-1)


@pytest.mark.parametrize(
    "digits, suite, checked",
    [(30, "thm1", 6500), (30, "thm2", 6500), (30, "thm3", 1005), (40, "thm3", 1005)],
)
def test_low_digit_enclosure_sweeps_decide(digits, suite, checked):
    # at 30 digits the mpf remainder kept under 10 digits at n=141, N=4, and
    # at 40 digits at n=1026, N=10; the balls decide every check
    assert _verify_at(digits, suite) == verify.VerifyResult(suite, checked, True)


def test_perfbench_grids_decide_without_escalation(monkeypatch):
    # the benchmark's sweep-enclosure grids at 80 digits: the same verdicts
    # and counts as the mpf route gave, and no group redone at twice the scale
    scales = []
    original = verify._ball_decide

    def counting(signs, bits):
        def at(P):
            scales.append(P == bits)
            return signs(P)

        return original(at, bits)

    monkeypatch.setattr(verify, "_ball_decide", counting)
    for suite, sizes, checked in (
        ("thm1", {"n_max": 150}, 1950),
        ("thm2", {"n_max": 150}, 1950),
        ("thm3", {}, 1005),
        ("lemma3", {"n_max": 150}, 7142),
    ):
        assert run_suite(suite, **sizes) == verify.VerifyResult(suite, checked, True)
    assert len(scales) == 1950 + 1950 + 1005 + 7143 and all(scales)  # lemma3 decides its 0.97 check unless it fails


def test_lemma3_exp_count(monkeypatch):
    # one exp per chain (5000, and n = 432 again), per E1 (1000) and per r_hat
    # record (150), and one for the whole x-grid, whose points are powers of it
    calls = 0
    original = verify._ball_exp

    def counting(y, bits):
        nonlocal calls
        calls += 1
        return original(y, bits)

    for module in (verify, expansion):
        monkeypatch.setattr(module, "_ball_exp", counting)
    expansion._ball_per_n.cache_clear()
    assert run_suite("lemma3", n_max=150) == verify.VerifyResult("lemma3", 7142, True)
    assert calls == 5000 + 1 + 1000 + 1 + 150


def test_lemma3_starts_at_one_scale_whatever_the_digits(monkeypatch):
    # every group starts at _START_BITS, the r_hat group at n that many bits
    # below E(n), at every digit count, and none is redone at twice the scale
    groups = _recording(monkeypatch, verify)
    for n_max, checked in ((150, 7142), (500, 7492), (2000, 8992)):
        residuals = [verify._START_BITS + expansion._decay_bits(n) for n in range(1, n_max + 1)]
        for digits in (30, 80, 300):
            groups.clear()
            assert _verify_at(digits, "lemma3", "--n-max", str(n_max)) == verify.VerifyResult("lemma3", checked, True)
            assert [scales[0] for scales in groups] == residuals + [verify._START_BITS] * (len(groups) - n_max)
            assert all(len(scales) == 1 for scales in groups), (n_max, digits)


def test_enclosure_sweeps_start_at_the_remainders_size_whatever_the_digits(monkeypatch):
    # thm1, thm2 and thm3 start every group at n _START_BITS below the
    # smallest term checked there, not at the digits' scale: the same
    # verdicts, counts and start scales at 30, 80 and 300 digits, and at
    # their default grids no group is formed past its start scale
    groups = _recording(monkeypatch, verify)
    starts = {"thm1": [verify._start(n, verify.ENCLOSURE_N_MAX) for n in range(1, 501) for _ in range(13)]}
    starts["thm2"] = starts["thm1"]
    for digits in (30, 80, 300):
        for suite, checked in (("thm1", 6500), ("thm2", 6500), ("thm3", 1005)):
            groups.clear()
            assert _verify_at(digits, suite) == verify.VerifyResult(suite, checked, True)
            assert all(len(scales) == 1 for scales in groups), (suite, digits)
            assert [scales[0] for scales in groups] == starts.setdefault(suite, [scales[0] for scales in groups]), (suite, digits)
    assert min(starts["thm3"]) > verify._START_BITS and len(starts["thm3"]) == 1005


def test_gf_sees_a_defect_of_two_to_the_minus_100(monkeypatch):
    # a ball of the explicit expansion moved by about 2^-100 of its value is
    # disjoint from the source's at gf's scale, so gf fails there: a coarser
    # _GF_BITS, such as 64, would let it pass
    balls = verify._ball_gf

    def moved(at):
        def gf(order, bits):
            found = balls(order, bits)
            middle, radius = found[at]
            found[at] = middle + (abs(middle) >> 100) + 1, radius
            return found

        return gf

    for at in (0, 57, 100):
        monkeypatch.setattr(verify, "_ball_gf", moved(at))
        result = run_suite("gf")
        assert not result.ok and result.counterexample == f"generating-function ball disjoint from the source's at m={at}", at


def test_coefficient_sweeps_start_at_their_values_size_whatever_the_source_holds(monkeypatch):
    # lemma1 and lemma2 start every comparison _START_BITS below the size of
    # the last |c_m| it reads, lemma2's central binomial and asymptotics'
    # groups at _START_BITS, and gf forms its balls at one fixed scale: the
    # same verdicts, counts and scales at 30, 80 and 300 digits and after the
    # source was built for 1500 digits, and no group formed past its start
    groups = _recording(monkeypatch, verify, coefficients)
    gf_scales = []
    for name in ("_ball_gf", "_ball_g"):
        original = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda m, bits, original=original: gf_scales.append(bits) or original(m, bits))
    monkeypatch.setattr(coefficients, "_source", coefficients._source)  # restored after the test
    results = (("lemma1", 400), ("lemma2", 20702), ("gf", 101), ("asymptotics", 255))
    starts = {}
    for run in (30, 80, 300, "built"):
        if run == "built":
            coefficients._coefficients(400, 1500)
        for suite, checked in results:
            groups.clear()
            gf_scales.clear()
            assert _verify_at(80 if run == "built" else run, suite) == verify.VerifyResult(suite, checked, True)
            assert all(len(scales) == 1 for scales in groups), (suite, run)
            seen = [scales[0] for scales in groups] + gf_scales
            assert seen == starts.setdefault(suite, seen), (suite, run)
    sizes = [verify._START_BITS + verify._root_below(m + 1, 24**m) for m in range(1, 401)]
    assert starts["lemma1"] == [sizes[0], *(size for size in sizes[1:] for _ in range(2))]
    assert starts["lemma2"] == [scale for size in [verify._START_BITS, *sizes] for scale in (size, verify._START_BITS)]
    assert starts["gf"] == [verify._GF_BITS] * 102 and set(starts["asymptotics"]) == {verify._START_BITS}
