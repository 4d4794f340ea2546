"""Unit tests for result/report types and session statistics."""

from repro import DartOptions, dart_check
from repro.dart.pathcond import path_digest
from repro.dart.report import (
    BUG_FOUND,
    COMPLETE,
    DartResult,
    ErrorReport,
    EXHAUSTED,
    RunStats,
)
from repro.interp.faults import ProgramAbort
from repro.programs import samples


class TestErrorReport:
    def make(self):
        fault = ProgramAbort("abort() reached")
        return ErrorReport(fault, [1, 2, 3], iteration=7, path=(1, 0))

    def test_fields(self):
        report = self.make()
        assert report.kind == "abort"
        assert report.inputs == [1, 2, 3]
        assert report.iteration == 7
        assert report.path == (1, 0)

    def test_describe_mentions_inputs_and_run(self):
        text = self.make().describe()
        assert "run 7" in text and "[1, 2, 3]" in text


class TestRunStats:
    def test_initial_counters(self):
        stats = RunStats()
        assert stats.iterations == 0
        assert stats.paths_explored == 0

    def test_note_path_counts_distinct(self):
        stats = RunStats()
        stats.note_path(path_digest((1, 0)))
        stats.note_path(path_digest([1, 0]))
        stats.note_path(path_digest((0,)))
        assert stats.paths_explored == 3
        assert len(stats.distinct_paths) == 2

    def test_path_digest_is_fixed_width_and_length_sensitive(self):
        digests = {path_digest(key)
                   for key in [(), (0,), (0, 0), (1,), (1, 0), (0, 1)]}
        assert len(digests) == 6
        assert all(len(digest) == 16 for digest in digests)
        # Pinned: a resumed session must key paths exactly as the
        # session that wrote its checkpoint did.
        assert path_digest((1, 0)) == path_digest([1, 0]) \
            == "3ae820785f7a2994"

    def test_summary_keys(self):
        stats = RunStats()
        stats.finish()
        summary = stats.summary()
        for key in ("iterations", "paths", "solver_calls", "elapsed_s",
                    "forcing_failures", "random_restarts"):
            assert key in summary

    def test_summary_reports_every_counter(self):
        stats = RunStats()
        for offset, name in enumerate(RunStats.COUNTERS):
            setattr(stats, name, 100 + offset)
        stats.finish()
        summary = stats.summary()
        for offset, name in enumerate(RunStats.COUNTERS):
            assert summary[name] == 100 + offset, name
        # The older names stay, as aliases.
        assert summary["paths"] == stats.paths_explored
        assert summary["branches"] == stats.branches_executed
        assert summary["steps"] == stats.instructions_executed


class TestDartResult:
    def test_statuses(self):
        stats = RunStats()
        stats.finish()
        result = DartResult(COMPLETE, [], stats, (True, True, True, True))
        assert result.complete and not result.found_error
        assert result.first_error() is None
        assert "all" in result.describe()

    def test_bug_found_describe(self):
        stats = RunStats()
        stats.iterations = 3
        stats.finish()
        fault = ProgramAbort("boom")
        report = ErrorReport(fault, [5], 3)
        result = DartResult(BUG_FOUND, [report], stats,
                            (True, True, True, True))
        assert result.found_error
        assert "Bug found" in result.describe()

    def test_exhausted_describe(self):
        stats = RunStats()
        stats.finish()
        result = DartResult(EXHAUSTED, [], stats, (False, True, True))
        assert "exhausted" in result.describe().lower()


class TestSessionStatistics:
    def test_solver_accounting(self):
        result = dart_check(samples.Z_SOURCE, "f",
                            max_iterations=50, seed=0)
        stats = result.stats
        assert stats.solver_calls == (
            stats.solver_sat + stats.solver_unsat + stats.solver_unknown
        )
        assert stats.solver_unsat >= 1  # the infeasible inner branch

    def test_instructions_executed_accumulate(self):
        result = dart_check(samples.Z_SOURCE, "f",
                            max_iterations=50, seed=0)
        assert result.stats.instructions_executed > 0
        assert result.stats.branches_executed > 0
        # The directed search always runs at least one tainted
        # instruction (the driver's acquired inputs flow into branches).
        assert 0 < result.stats.instructions_symbolic \
            <= result.stats.instructions_executed

    def test_elapsed_recorded(self):
        result = dart_check(samples.Z_SOURCE, "f",
                            max_iterations=50, seed=0)
        assert result.stats.elapsed > 0

    def test_iterations_equal_paths_when_no_mismatch(self):
        result = dart_check(samples.Z_SOURCE, "f",
                            max_iterations=50, seed=0)
        assert result.stats.paths_explored == result.iterations

    def test_determinism_across_sessions(self):
        a = dart_check(samples.H_SOURCE, "h", max_iterations=50, seed=12)
        b = dart_check(samples.H_SOURCE, "h", max_iterations=50, seed=12)
        assert a.status == b.status
        assert a.iterations == b.iterations
        assert a.first_error().inputs == b.first_error().inputs

    def test_different_seeds_may_differ_but_agree_on_verdict(self):
        verdicts = {
            dart_check(samples.H_SOURCE, "h",
                       max_iterations=50, seed=seed).status
            for seed in range(4)
        }
        assert verdicts == {"bug_found"}
