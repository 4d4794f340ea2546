"""Integration tests: --trace output, trace-summary, and merge determinism.

Runs the Section 4.1 AC controller (fixed seed, full depth-2
exploration) with tracing on and pins the ISSUE's acceptance bars:

* the branch-flip funnel computed from the trace equals the session's
  reported statistics counter-for-counter;
* the layer clock carried by ``session_finished`` attributes at least
  90% of the session wall time, with disjoint layers, and equals the
  session's own ``stats.phases``;
* the deterministic sections of ``trace-summary`` output are golden;
* the metrics registry merges deterministically under ``--jobs``.
"""

import json

import pytest

from repro import DartOptions, dart_check
from repro.cli import main
from repro.obs import LAYERS, read_trace, render_summary, summarize_trace
from repro.programs.ac_controller import (
    AC_CONTROLLER_SOURCE,
    AC_CONTROLLER_TOPLEVEL,
)

SESSION = dict(depth=2, max_iterations=200, seed=7,
               stop_on_first_error=False)

# Search-deterministic statistics: identical for any jobs count and any
# worker scheduling (solver latency and the cache-tier split are not —
# pool workers reset their local cache layer per item and answer from
# the shared exact-tier store, so hits can come from a different tier
# than the serial session-long cache would use).
DETERMINISTIC_KEYS = (
    "iterations", "paths", "distinct_paths", "branches", "steps",
    "instructions_executed", "instructions_symbolic",
    "flips_attempted", "flips_sat", "runs_forced", "runs_new_path",
)


def traced_session(tmp_path, **overrides):
    """One traced AC-controller session; returns (result, events)."""
    trace = tmp_path / "trace.jsonl"
    options = DartOptions(trace_file=str(trace), **dict(SESSION, **overrides))
    result = dart_check(AC_CONTROLLER_SOURCE, AC_CONTROLLER_TOPLEVEL,
                        options)
    return result, list(read_trace(str(trace)))


class TestFunnelEqualsStats:
    def check(self, tmp_path, **overrides):
        result, events = traced_session(tmp_path, **overrides)
        summary = summarize_trace(events)
        stats = result.stats
        assert summary["funnel"] == {
            "attempted": stats.flips_attempted,
            "sat": stats.flips_sat,
            "forced": stats.runs_forced,
            "new_path": stats.runs_new_path,
        }
        assert summary["iterations"] == stats.iterations
        assert summary["runs"]["total"] == stats.iterations
        assert summary["status"] == result.status
        # Every negated conjunct was answered by the solver or the cache
        # (exact hit or refutation).
        assert summary["funnel"]["attempted"] == (
            stats.solver_calls + stats.cache_answered)

    def test_serial_dfs(self, tmp_path):
        self.check(tmp_path, strategy="dfs")

    def test_parallel_bfs(self, tmp_path):
        self.check(tmp_path, strategy="bfs", jobs=2)


class TestPhaseAttribution:
    def test_phase_times_sum_within_10pct_of_wall(self, tmp_path):
        # Retry to damp scheduler jitter: the bar is that an undisturbed
        # session attributes >= 90% of its wall time, not that every CI
        # timeslice is quiet.
        best = 0.0
        for attempt in range(3):
            subdir = tmp_path / str(attempt)
            subdir.mkdir()
            _, events = traced_session(subdir, strategy="dfs")
            best = max(best,
                       summarize_trace(events)["phase_coverage"])
            if best >= 0.9:
                break
        assert best >= 0.9, (
            "only {:.1%} of wall attributed to phases".format(best))

    def test_phases_are_disjoint_and_positive(self, tmp_path):
        _, events = traced_session(tmp_path, strategy="dfs")
        summary = summarize_trace(events)
        phases = summary["phases"]
        assert set(phases) == set(LAYERS)
        for layer in ("execute", "plan", "cache", "solver"):
            assert phases[layer]["seconds"] > 0, layer
        # Exclusive layers inside the session window: no slack needed.
        attributed = sum(entry["seconds"] for entry in phases.values())
        assert attributed <= summary["wall_s"]
        assert summary["phase_other_s"] >= 0

    def test_bfs_reports_the_same_layers_at_jobs_1_and_2(self):
        names = []
        for jobs in (1, 2):
            options = DartOptions(profile_phases=True, strategy="bfs",
                                  jobs=jobs, **SESSION)
            result = dart_check(AC_CONTROLLER_SOURCE,
                                AC_CONTROLLER_TOPLEVEL, options)
            names.append(set(result.stats.summary()["phases"]))
        assert names[0] == names[1] == set(LAYERS)

    def test_truncated_trace_has_no_clock(self, tmp_path):
        # A session killed mid-run leaves no session_finished: the
        # summary must not invent a wall time or a coverage figure.
        _, events = traced_session(tmp_path, strategy="dfs")
        cut = events[:len(events) // 2]
        assert all(e["type"] != "session_finished" for e in cut)
        summary = summarize_trace(cut)
        assert summary["phases"] is None
        assert summary["phase_coverage"] is None
        assert summary["wall_s"] is None
        assert summary["funnel"]["attempted"] > 0
        assert summary["event_counts"]["run_started"] > 0
        text = render_summary(summary)
        assert ("no layer clock recorded (trace ends before "
                "session_finished)") in text.splitlines()
        assert "branch-flip funnel:" in text


class TestGoldenSummary:
    # The exhaustive depth-2 exploration at seed 7: 25 runs discover 25
    # distinct paths via 60 negated conjuncts, 24 of them feasible.
    # These values are pinned by the fixed seed; an engine change that
    # alters the search order must update them consciously.
    FUNNEL_LINE = "  attempted 60 -> sat 24 -> forced 24 -> new path 25"
    RUNS_LINE = ("runs: 25 total, 24 ok, 1 fault, 0 mismatch, "
                 "0 quarantined")
    VERDICTS_LINE = "verdicts: sat 24 / unsat 36 / unknown 0"
    CACHE_LINE = "cache tiers: exact 38, miss 22"

    def test_deterministic_sections(self, tmp_path):
        result, events = traced_session(tmp_path, strategy="dfs")
        assert result.status == "bug_found"
        text = render_summary(summarize_trace(events))
        lines = text.splitlines()
        assert self.FUNNEL_LINE in lines
        assert self.RUNS_LINE in lines
        assert self.VERDICTS_LINE in lines
        assert self.CACHE_LINE in lines
        assert lines[0].startswith("trace summary: ")
        assert "branch-flip funnel:" in lines
        assert "event counts:" in lines

    def test_event_counts_are_deterministic(self, tmp_path):
        _, events = traced_session(tmp_path, strategy="dfs")
        counts = summarize_trace(events)["event_counts"]
        assert counts["session_started"] == 1
        assert counts["session_finished"] == 1
        assert counts["run_started"] == 25
        assert counts["run_finished"] == 25
        assert counts["conjunct_negated"] == 60
        # 24 sat + 36 unsat answered across solver and cache.
        assert counts.get("solver_answered", 0) \
            + counts.get("cache_lookup", 0) >= 60


class TestTraceSummaryCli:
    def write_trace(self, tmp_path):
        result, _ = traced_session(tmp_path, strategy="dfs")
        assert result.status == "bug_found"
        return str(tmp_path / "trace.jsonl")

    def test_text_output(self, tmp_path, capsys):
        path = self.write_trace(tmp_path)
        assert main(["trace-summary", path]) == 0
        out = capsys.readouterr().out
        assert "branch-flip funnel:" in out
        assert "phase breakdown" in out

    def test_json_phases_equal_session_stats(self, tmp_path, capsys):
        source = tmp_path / "ac.c"
        source.write_text(AC_CONTROLLER_SOURCE)
        trace = str(tmp_path / "ac.jsonl")
        assert main([str(source), AC_CONTROLLER_TOPLEVEL, "--depth", "2",
                     "--all-errors", "--seed", "7", "--trace", trace,
                     "--profile-phases", "--json"]) == 1
        stats = json.loads(capsys.readouterr().out)["stats"]
        assert main(["trace-summary", trace, "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert set(stats["phases"]) == set(LAYERS)
        assert summary["phases"] == stats["phases"]

    def test_json_output_matches_summarize(self, tmp_path, capsys):
        path = self.write_trace(tmp_path)
        assert main(["trace-summary", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        expected = summarize_trace(read_trace(path))
        assert payload == json.loads(json.dumps(expected))

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["trace-summary", str(tmp_path / "nope.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_non_jsonl_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "garbage.txt"
        path.write_text("this is not a trace\n")
        assert main(["trace-summary", str(path)]) == 2
        assert "not a JSONL trace" in capsys.readouterr().err


class TestMergeDeterminism:
    def run(self, **overrides):
        options = DartOptions(**dict(SESSION, **overrides))
        return dart_check(AC_CONTROLLER_SOURCE, AC_CONTROLLER_TOPLEVEL,
                          options)

    def test_serial_equals_jobs2(self):
        serial = self.run(strategy="bfs", jobs=1).stats.summary()
        parallel = self.run(strategy="bfs", jobs=2).stats.summary()
        for key in DETERMINISTIC_KEYS:
            assert serial[key] == parallel[key], key
        assert serial["histograms"]["path_length"] == \
            parallel["histograms"]["path_length"]

    def test_jobs2_is_reproducible(self):
        first = self.run(strategy="bfs", jobs=2).stats.summary()
        second = self.run(strategy="bfs", jobs=2).stats.summary()
        for key in DETERMINISTIC_KEYS:
            assert first[key] == second[key], key
        assert first["histograms"]["path_length"] == \
            second["histograms"]["path_length"]
        # Solver latency varies run to run, but the number of solver
        # queries (observations) must not.
        assert first["histograms"]["solver_latency_s"]["count"] == \
            second["histograms"]["solver_latency_s"]["count"]
