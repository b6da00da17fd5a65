"""The per-operation timing behind wall_s."""

import os

import pytest

import thermo_transfer as tt
import thermo_transfer.cli  # noqa: F401
import thermo_transfer.models as models
import checks
import worker
import workloads


def test_fastest_pass_takes_each_operation_at_its_fastest():
    passes = [(10.0, {"a": 4.0, "b": 5.0}),   # remainder 1.0
              (9.0, {"a": 6.0, "b": 2.5}),    # remainder 0.5
              (12.0, {"a": 3.0, "b": 8.0})]   # remainder 1.0
    assert worker.fastest_pass(passes) == pytest.approx(0.5 + 3.0 + 2.5)


def test_fastest_pass_without_operations_is_the_fastest_pass():
    assert worker.fastest_pass([(3.0, {}), (2.0, {}), (4.0, {})]) == 2.0


def test_fastest_pass_rejects_passes_of_different_operations():
    with pytest.raises(ValueError):
        worker.fastest_pass([(1.0, {"a": 0.5}), (1.0, {"b": 0.5})])


def test_row_timer_times_every_row_and_comes_off(tmp_path):
    original = tt.thermo._sweep_row
    times = []
    untime = worker._time_rows(tt.thermo, times)
    try:
        rc = tt.cli.main(["free-energy", "--model", "chain", "--beta-start", "1",
                          "--beta-stop", "2", "--beta-count", "5", "--m", "10",
                          "--threads", "1",
                          "--out", os.path.join(tmp_path, "f.csv")])
    finally:
        untime()
    assert rc == 0
    assert tt.thermo._sweep_row is original
    assert [k for k, _ in times] == [0, 1, 2, 3, 4]
    assert all(s > 0 for _, s in times)


def test_climb_times_each_rung():
    case = workloads.LADDER[2]  # DNLS at beta = 1, cheapest to climb
    ref = {case.name: checks.ladder_reference(case)}
    times = []
    reached, rungs = workloads.climb(models, workloads.ladder_inputs(models, [case]),
                                     ref, times)
    assert [k for k, _ in times] == [f"{case.name}:{m}" for m in
                                     range(case.m_start, reached[case.name][0] + 1)]
    assert len(times) == rungs
