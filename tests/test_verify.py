"""Smoke runs of the verification sweeps at reduced sizes, and the sweep driver."""

import pytest

from partition_asymptotics import DomainError, coefficients, expansion, run_suite, verify


def test_lemma1_small():
    result = run_suite("lemma1", m_max=60)
    assert result.ok and result.counterexample is None
    assert result.checked == 60


def test_lemma1_settles_the_equal_first_ratio_at_every_digit_count():
    # |c_1/c_0| is the odd cap itself, so rounded values decided it by a coin
    # flip: they failed it at 30, 32 and 81 digits and passed it at 50
    for digits in (30, 32, 50, 81):
        assert run_suite("lemma1", digits=digits) == verify.VerifyResult("lemma1", 400, True)


def test_lemma2_small():
    result = run_suite("lemma2", m_max=60, digits=80)
    assert result.ok


def test_thm1_small():
    result = run_suite("thm1", n_max=60, digits=80)
    assert result.ok
    assert result.checked == 60 * 13


def test_thm2_small():
    assert run_suite("thm2", n_max=60, digits=80).ok


def test_gf_small():
    assert run_suite("gf", m_max=40, digits=60).ok


def test_asymptotics():
    result = run_suite("asymptotics", digits=80)
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


def test_oracle_small():
    result = run_suite("oracle", n_max=400)
    assert result.ok
    assert result.checked == 401


def test_run_suite_dispatch():
    result = run_suite("oracle", n_max=100)
    assert result.suite == "oracle" and result.ok
    with pytest.raises(DomainError):
        run_suite("nonsense")
    for digits in (29, 80.0):  # the one digits gate, as PrecisionContext and the CLI apply it
        with pytest.raises(DomainError, match="digits must be an integer >= 30"):
            run_suite("oracle", n_max=10, digits=digits)


def test_driver_stops_at_first_counterexample(monkeypatch):
    original = verify._ball_term

    def broken(n, N, bits):
        if (n, N) == (3, 5):
            return (-1 << bits, 0)  # a first omitted term of -1 lifts the odd-N lower end to 1 - E(3)
        return original(n, N, bits)

    monkeypatch.setattr(verify, "_ball_term", broken)
    result = run_suite("thm1", n_max=5)
    assert not result.ok
    assert result.checked == 2 * 13 + 6  # n = 1, 2 in full, then N = 0..5 at n = 3
    assert result.counterexample == "T1 enclosure fails at n=3, N=5"


def test_grid_overrides_apply_only_to_their_suites():
    # n_max does not resize an m_max suite, nor m_max an n_max suite
    assert run_suite("gf", n_max=5, digits=80).checked == 101
    assert run_suite("oracle", m_max=5).checked == 2001


def test_grid_size_zero_is_honoured_and_negative_rejected():
    assert run_suite("oracle", n_max=0).checked == 1
    assert run_suite("thm1", n_max=0, digits=80) == verify.VerifyResult("thm1", 0, True)
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
    assert run_suite(suite, digits=digits) == verify.VerifyResult(suite, checked, True)


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
    assert run_suite("lemma3", n_max=150, digits=80) == verify.VerifyResult("lemma3", 7142, True)
    assert calls == 5000 + 1 + 1000 + 1 + 150


def test_lemma3_starts_at_one_scale_whatever_the_digits(monkeypatch):
    # every group starts at _LEMMA3_BITS, the r_hat group at n that many bits
    # below E(n), at every digit count, and none is redone at twice the scale
    groups = []
    original = verify._ball_decide

    def recording(signs, bits):
        groups.append([])

        def at(P):
            groups[-1].append(P)
            return signs(P)

        return original(at, bits)

    monkeypatch.setattr(verify, "_ball_decide", recording)
    for n_max, checked in ((150, 7142), (500, 7492), (2000, 8992)):
        residuals = [verify._LEMMA3_BITS + expansion._decay_bits(n) for n in range(1, n_max + 1)]
        for digits in (30, 80, 300):
            groups.clear()
            assert run_suite("lemma3", n_max=n_max, digits=digits) == verify.VerifyResult("lemma3", checked, True)
            assert [scales[0] for scales in groups] == residuals + [verify._LEMMA3_BITS] * (len(groups) - n_max)
            assert all(len(scales) == 1 for scales in groups), (n_max, digits)
