"""Self-tests of the benchmark (not part of the repository's tier-1 suite).

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

assert run._import_program(), "the benchmark needs the checkout's src/"

import hostclock  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from repro.dart.report import BUG_FOUND  # noqa: E402
from repro.interp.machine import Machine  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_metric_names_units_and_counts():
    spec = _benchmark_json()
    end_to_end = run.metric_units("end_to_end")
    per_layer = run.metric_units("per_layer")
    for table in (end_to_end, per_layer):
        for name, unit in table.items():
            assert NAME.match(name), name
            assert UNIT.match(unit), unit
    assert len(end_to_end) <= 16
    assert len(per_layer) <= 128
    assert not set(end_to_end) & set(per_layer)
    for workload in spec["workloads"]:
        assert workload["name"] in workloads.WORKLOADS


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail(list(range(1, 101))) == (90, 90)
    assert run.tail(list(range(1, 1001))) == (99, 990)
    assert run.tail(list(range(1, 16))) == (90, 14)
    assert run.tail([3.0, 1.0]) == (90, 3.0)


def test_wrappers_are_restored_before_untraced_runs():
    original = Machine.__dict__["run"]
    assert tracer.pristine()
    recorder = tracer.Tracer()
    with pytest.raises(ZeroDivisionError):
        with recorder.installed():
            assert not tracer.pristine()
            assert Machine.__dict__["run"].__wrapped__ is original
            1 / 0
    assert tracer.pristine()
    assert Machine.__dict__["run"] is original


def test_host_clock_samples_and_then_restores_the_timer():
    handler = signal.getsignal(signal.SIGALRM)
    with hostclock.HostClock() as clock:
        started = time.perf_counter()
        while time.perf_counter() - started < 3 * hostclock.INTERVAL_S:
            hostclock.probe_work()
        inside = clock.now()
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert clock.probe_s > 0
    assert 0 < inside <= clock.elapsed_s


def test_every_target_resolves_to_a_callable():
    for module_name, path, _ in tracer.TARGETS:
        owner, attr = tracer._resolve(module_name, path)
        assert callable(tracer._original(owner, attr)), (module_name, path)


def _failed_ratio(workload):
    record = run.measure(workload, 0, trace=False)
    sessions = record.checked_sessions()
    return sum(1 for s in sessions if s.problems) / len(sessions)


def test_right_verdicts_give_zero_failed_ratio(tmp_path):
    assert _failed_ratio(workloads.Dy3(0, str(tmp_path), smoke=True)) == 0


def test_injected_wrong_verdict_makes_failed_ratio_nonzero(tmp_path):
    dy3 = workloads.Dy3(0, str(tmp_path), smoke=True)
    dy3.expected_status = BUG_FOUND
    assert _failed_ratio(dy3) > 0
    sweep = workloads.OsipSweep(0, str(tmp_path), smoke=True)
    name = next(iter(sweep.expected))
    sweep.expected[name] = not sweep.expected[name]
    assert _failed_ratio(sweep) > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_of_every_workload(name):
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
         "--smoke", "--seconds", "0", "--trace", "1"],
        cwd=run.ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=300, check=False)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.metric_units("per_layer"))
    assert result["metrics"]["trace.attributed_ratio"]["value"] > 0


def test_untraced_smoke_reports_every_end_to_end_metric():
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "dy3",
         "--smoke", "--seconds", "0", "--trace", "0"],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True, timeout=300,
        check=False)
    assert completed.returncode == 0
    metrics = json.loads(completed.stdout.strip().splitlines()[-1])["metrics"]
    assert set(metrics) == set(run.metric_units("end_to_end"))
    assert all(metric["value"] > 0 for metric in metrics.values())


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dy3",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60, check=False)
    assert completed.returncode != 0
    assert completed.stdout == ""
