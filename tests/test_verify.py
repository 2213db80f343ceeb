"""Smoke runs of the verification sweeps at reduced sizes, and the sweep driver."""

import dataclasses

import pytest

from partition_asymptotics import run_suite, verify


def test_lemma1_small():
    result = run_suite("lemma1", m_max=60)
    assert result.ok and result.counterexample is None
    assert result.checked == 60


def test_lemma2_small(ctx80):
    result = run_suite("lemma2", m_max=60, ctx=ctx80)
    assert result.ok


def test_thm1_small(ctx80):
    result = run_suite("thm1", n_max=60, ctx=ctx80)
    assert result.ok
    assert result.checked == 60 * 13


def test_thm2_small(ctx80):
    assert run_suite("thm2", n_max=60, ctx=ctx80).ok


def test_gf_small(ctx60):
    assert run_suite("gf", m_max=40, ctx=ctx60).ok


def test_asymptotics(ctx80):
    result = run_suite("asymptotics", ctx=ctx80)
    assert result.ok
    assert result.checked == 255


def test_oracle_small():
    result = run_suite("oracle", n_max=400)
    assert result.ok
    assert result.checked == 401


def test_run_suite_dispatch(ctx80):
    result = run_suite("oracle", n_max=100)
    assert result.suite == "oracle" and result.ok
    with pytest.raises(ValueError):
        run_suite("nonsense")


def test_driver_stops_at_first_counterexample(monkeypatch):
    original = verify.thm1_bounds

    def broken(n, N, ctx):
        report = original(n, N, ctx)
        if (n, N) == (3, 5):
            return dataclasses.replace(report, lower=report.upper)  # an empty interval
        return report

    monkeypatch.setattr(verify, "thm1_bounds", broken)
    result = run_suite("thm1", n_max=5)
    assert not result.ok
    assert result.checked == 2 * 13 + 6  # n = 1, 2 in full, then N = 0..5 at n = 3
    assert result.counterexample == "T1 enclosure fails at n=3, N=5"


def test_grid_overrides_apply_only_to_their_suites(ctx80):
    # n_max does not resize an m_max suite, nor m_max an n_max suite
    assert run_suite("gf", n_max=5, ctx=ctx80).checked == 101
    assert run_suite("oracle", m_max=5).checked == 2001


def test_grid_size_zero_is_honoured_and_negative_rejected(ctx80):
    assert run_suite("oracle", n_max=0).checked == 1
    assert run_suite("thm1", n_max=0, ctx=ctx80) == verify.VerifyResult("thm1", 0, True)
    with pytest.raises(ValueError):
        run_suite("oracle", n_max=-1)
    with pytest.raises(ValueError):
        run_suite("lemma1", m_max=-1)
