"""Parallel generational search: jobs>1 must match the serial engine."""

import os

import pytest

from repro import DartOptions
from repro.dart.runner import Dart
from repro.programs import samples
from repro.programs.ac_controller import (
    AC_CONTROLLER_SOURCE,
    AC_CONTROLLER_TOPLEVEL,
)
from repro.programs.needham_schroeder import ns_source
from tests.perf_sources import SUBSUME_SOURCE


def run(source, toplevel, jobs, **overrides):
    options = DartOptions(jobs=jobs, **overrides)
    return Dart(source, toplevel, options).run()


def error_set(result):
    return sorted({(e.kind, str(e.location)) for e in result.errors})


def assert_same_search(serial, parallel, label=None):
    """The pool runs the serial search, not merely an equivalent one:
    same iterations, same error inputs, same witnesses in order."""
    assert serial.status == parallel.status, label
    assert serial.iterations == parallel.iterations, label
    assert [(e.kind, str(e.location), e.inputs, e.iteration)
            for e in serial.errors] == \
        [(e.kind, str(e.location), e.inputs, e.iteration)
         for e in parallel.errors], label
    assert [w.to_dict() for w in serial.witnesses] == \
        [w.to_dict() for w in parallel.witnesses], label


class TestOptionValidation:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            DartOptions(jobs=0)

    def test_jobs_excluded_from_digest(self):
        # jobs is a budget-style knob: a resumed session may change its
        # parallelism without invalidating the checkpoint.
        assert DartOptions(jobs=1).digest() == DartOptions(jobs=4).digest()

    def test_slicing_and_cache_in_digest(self):
        # ...whereas slicing/caching change solver models, hence the
        # search trajectory a checkpoint encodes.
        base = DartOptions().digest()
        assert DartOptions(constraint_slicing=False).digest() != base
        assert DartOptions(solver_cache=False).digest() != base


class TestSamplesParallelMatchesSerial:
    def test_bfs_same_errors_on_samples(self):
        for source, toplevel in (
            (samples.H_SOURCE, "h"),
            (samples.FILTER_SOURCE, "entry"),
            (samples.STRUCT_CAST_SOURCE, "bar"),
        ):
            serial = run(source, toplevel, 1, strategy="bfs",
                         max_iterations=300, seed=7,
                         stop_on_first_error=False, collect_witnesses=True)
            parallel = run(source, toplevel, 4, strategy="bfs",
                           max_iterations=300, seed=7,
                           stop_on_first_error=False,
                           collect_witnesses=True)
            assert serial.witnesses, toplevel
            assert_same_search(serial, parallel, toplevel)

    def test_complete_verdict_preserved(self):
        serial = run(samples.Z_SOURCE, "f", 1, strategy="bfs",
                     max_iterations=60, seed=1)
        parallel = run(samples.Z_SOURCE, "f", 4, strategy="bfs",
                       max_iterations=60, seed=1)
        assert serial.status == parallel.status == "complete"
        assert serial.flags == parallel.flags == (True, True, True, True)
        assert (serial.stats.distinct_paths
                == parallel.stats.distinct_paths)

    def test_random_strategy_same_errors(self):
        serial = run(samples.FILTER_SOURCE, "entry", 1, strategy="random",
                     max_iterations=300, seed=5, collect_witnesses=True)
        parallel = run(samples.FILTER_SOURCE, "entry", 4,
                       strategy="random", max_iterations=300, seed=5,
                       collect_witnesses=True)
        assert serial.errors
        assert_same_search(serial, parallel)

    def test_parallel_is_deterministic(self):
        results = [
            run(samples.FILTER_SOURCE, "entry", 4, strategy="bfs",
                max_iterations=300, seed=7)
            for _ in range(2)
        ]
        assert results[0].iterations == results[1].iterations
        assert error_set(results[0]) == error_set(results[1])
        first = results[0].first_error().inputs
        assert first == results[1].first_error().inputs

    def test_dfs_ignores_jobs(self):
        serial = run(samples.H_SOURCE, "h", 1, strategy="dfs",
                     max_iterations=50, seed=7)
        parallel = run(samples.H_SOURCE, "h", 4, strategy="dfs",
                       max_iterations=50, seed=7)
        assert serial.iterations == parallel.iterations
        assert (serial.first_error().inputs
                == parallel.first_error().inputs)


class TestBenchmarksParallelMatchesSerial:
    """Satellite: same error sets on the paper's own benchmarks."""

    def test_ac_controller_depth2(self):
        serial = run(AC_CONTROLLER_SOURCE, AC_CONTROLLER_TOPLEVEL, 1,
                     strategy="bfs", depth=2, max_iterations=400, seed=3,
                     stop_on_first_error=False)
        parallel = run(AC_CONTROLLER_SOURCE, AC_CONTROLLER_TOPLEVEL, 4,
                       strategy="bfs", depth=2, max_iterations=400, seed=3,
                       stop_on_first_error=False)
        assert error_set(serial) == error_set(parallel)
        assert serial.status == parallel.status == "bug_found"

    def test_needham_schroeder_possibilistic_depth2(self):
        source = ns_source("possibilistic")
        serial = run(source, "ns_step", 1, strategy="bfs", depth=2,
                     max_iterations=50_000, seed=0)
        parallel = run(source, "ns_step", 4, strategy="bfs", depth=2,
                       max_iterations=50_000, seed=0)
        assert error_set(serial) == error_set(parallel)
        assert serial.status == parallel.status == "bug_found"


class TestPoolCache:
    """A worker's cache is the serial cache: every access of it works."""

    def test_ac_controller_pool_has_no_cache_failures(self):
        result = run(AC_CONTROLLER_SOURCE, AC_CONTROLLER_TOPLEVEL, 2,
                     strategy="bfs", depth=2, seed=7)
        assert result.status == "bug_found"
        assert result.stats.cache_failures == 0

    def test_pool_records_and_uses_cores(self):
        result = run(SUBSUME_SOURCE, "subsume_bench", 2, strategy="bfs",
                     depth=2, max_iterations=400, seed=0,
                     stop_on_first_error=False)
        assert result.stats.cache_failures == 0
        assert result.stats.flips_subsumed_core > 0


class TestCheckpointInterop:
    def test_parallel_checkpoint_resumes_serially_and_back(self, tmp_path):
        state = os.path.join(str(tmp_path), "state.json")

        def phase(jobs, max_iterations):
            return run(AC_CONTROLLER_SOURCE, AC_CONTROLLER_TOPLEVEL, jobs,
                       strategy="bfs", depth=2,
                       max_iterations=max_iterations, seed=3,
                       stop_on_first_error=False, state_file=state)

        interrupted = phase(4, 10)
        assert interrupted.status == "exhausted"
        assert os.path.exists(state)
        resumed = phase(1, 400)
        assert resumed.resumed
        assert resumed.status == "bug_found"
        assert error_set(resumed) == [("abort", "<program>:19:5")]

    def test_serial_checkpoint_resumes_in_parallel(self, tmp_path):
        state = os.path.join(str(tmp_path), "state.json")

        def phase(jobs, max_iterations):
            return run(AC_CONTROLLER_SOURCE, AC_CONTROLLER_TOPLEVEL, jobs,
                       strategy="bfs", depth=2,
                       max_iterations=max_iterations, seed=3,
                       stop_on_first_error=False, state_file=state)

        interrupted = phase(1, 10)
        assert interrupted.status == "exhausted"
        resumed = phase(4, 400)
        assert resumed.resumed
        assert resumed.status == "bug_found"
        assert error_set(resumed) == [("abort", "<program>:19:5")]


class TestFaultContainment:
    def test_worker_quarantines_pathological_run(self, tmp_path):
        # A run exceeding the per-run watchdog budget is quarantined by
        # the kernel and reported as data; the generation survives.  Both
        # executors record it identically, flight-recorder tail included.
        source = """
        int spin(int n) {
          if (n > 0) {
            while (1) { n = n + 1; }
          }
          return n;
        }
        """

        def quarantines(jobs):
            result = run(source, "spin", jobs, strategy="bfs",
                         max_iterations=20, seed=0, run_time_limit=0.2,
                         max_steps=100_000_000,
                         trace_file=str(tmp_path / "trace{}.jsonl".format(
                             jobs)))
            # Degraded honestly: a lost run voids the completeness claim.
            assert result.status != "complete"
            return [(record.classification, record.iteration,
                     [event["type"] for event in record.trace_tail])
                    for record in result.quarantined]

        serial = quarantines(1)
        assert serial
        assert {classification for classification, _, _ in serial} <= \
            {"run-timeout", "resource-exhausted"}
        assert all(tail for _, _, tail in serial)
        assert quarantines(2) == serial
