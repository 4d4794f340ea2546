"""The fault boundary: one bad run costs one iteration, not the session.

The paper's process-per-run architecture gets crash containment for free —
a dying execution loses at most one run and the search resumes from the
state file.  These tests pin the in-process equivalent: internal failures
(injected RecursionError / MemoryError / harness bugs), watchdog run
timeouts, and solver budget exhaustion are contained, classified, and the
directed search continues to a normal verdict.
"""

import time

import pytest

from repro import DartOptions, dart_check, random_check
from repro.dart import solve
from repro.dart.instrument import DirectedHooks
from repro.dart.report import (
    INTERNAL_ERROR,
    RESOURCE_EXHAUSTED,
    RUN_TIMEOUT,
)
from repro.dart.runner import Dart
from repro.dart.solve import solve_with_retry
from repro.interp.faults import InterpreterError
from repro.interp.machine import Machine
from repro.programs import samples
from repro.solver import Solver
from repro.solver.core import SolverResult


def inject_once(monkeypatch, exc):
    """Make the first executed branch of the session raise ``exc``."""
    state = {"armed": True}
    original = DirectedHooks.on_branch

    def flaky(self, taken, constraint, location):
        if state["armed"]:
            state["armed"] = False
            raise exc
        return original(self, taken, constraint, location)

    monkeypatch.setattr(DirectedHooks, "on_branch", flaky)
    return state


class TestFaultBoundary:
    def test_recursion_error_is_contained_and_search_continues(
        self, monkeypatch
    ):
        inject_once(monkeypatch, RecursionError("injected stack blowout"))
        result = dart_check(samples.H_SOURCE, "h",
                            max_iterations=50, seed=0)
        # The session survived the internal failure and still found the
        # directed bug on a later run.
        assert result.found_error
        assert result.status == "bug_found"
        assert len(result.quarantined) == 1
        record = result.quarantined[0]
        assert record.classification == RESOURCE_EXHAUSTED
        assert record.iteration == 1
        assert "RecursionError" in record.detail

    def test_memory_error_is_resource_exhausted(self, monkeypatch):
        inject_once(monkeypatch, MemoryError("injected"))
        result = dart_check(samples.H_SOURCE, "h",
                            max_iterations=50, seed=0)
        assert result.found_error
        assert result.quarantined[0].classification == RESOURCE_EXHAUSTED

    def test_harness_bug_is_internal_error(self, monkeypatch):
        inject_once(monkeypatch, ValueError("injected machine-layer bug"))
        result = dart_check(samples.H_SOURCE, "h",
                            max_iterations=50, seed=0)
        assert result.found_error
        record = result.quarantined[0]
        assert record.classification == INTERNAL_ERROR
        assert "ValueError" in record.detail

    def test_quarantine_clears_completeness_claim(self, monkeypatch):
        # Z_SOURCE normally terminates "complete"; with one quarantined
        # run the session must not claim full path coverage (Theorem 1(b)
        # honesty, mirroring the forcing_ok degradation).
        inject_once(monkeypatch, ValueError("injected"))
        result = dart_check(samples.Z_SOURCE, "f",
                            max_iterations=30, seed=0)
        assert len(result.quarantined) == 1
        assert result.status != "complete"
        assert result.flags[0] is False  # all_linear cleared

    def test_quarantine_records_the_input_vector(self, monkeypatch):
        inject_once(monkeypatch, ValueError("injected"))
        result = dart_check(samples.H_SOURCE, "h",
                            max_iterations=50, seed=0)
        record = result.quarantined[0]
        assert len(record.inputs) == len(record.kinds)
        assert all(kind == "int" for kind in record.kinds)

    def test_generational_engine_uses_the_same_boundary(self, monkeypatch):
        inject_once(monkeypatch, RecursionError("injected"))
        result = dart_check(samples.H_SOURCE, "h", strategy="bfs",
                            max_iterations=50, seed=0)
        assert result.found_error
        assert len(result.quarantined) == 1

    def test_keyboard_interrupt_is_not_swallowed(self, monkeypatch):
        inject_once(monkeypatch, KeyboardInterrupt())
        with pytest.raises(KeyboardInterrupt):
            dart_check(samples.H_SOURCE, "h", max_iterations=50, seed=0)


class TestRandomBaselineBoundary:
    """The random-testing baseline's runs cross the same boundary: a
    harness failure costs one run, and the baseline keeps drawing."""

    @pytest.mark.parametrize("exc, classification", [
        (RecursionError("injected stack blowout"), RESOURCE_EXHAUSTED),
        (InterpreterError("injected harness bug"), INTERNAL_ERROR),
    ])
    def test_failure_is_quarantined_and_budget_finishes(
        self, monkeypatch, exc, classification
    ):
        calls = []
        original = Machine.run

        def flaky(self, function_name, args=()):
            calls.append(function_name)
            if len(calls) == 3:
                raise exc
            return original(self, function_name, args)

        monkeypatch.setattr(Machine, "run", flaky)
        result = random_check(samples.H_SOURCE, "h", max_iterations=40,
                              seed=0)
        assert result.iterations == 40
        assert result.status == "exhausted"
        assert len(result.quarantined) == 1
        record = result.quarantined[0]
        assert record.classification == classification
        assert record.iteration == 3
        assert type(exc).__name__ in record.detail


SLOW_BRANCH_SOURCE = """
int f(int x) {
  int i;
  i = 0;
  if (x == 7) {
    while (i < 100000000)
      i = i + 1;
  }
  if (x == 3)
    abort();
  return i;
}
"""

ALWAYS_SLOW_SOURCE = """
int f(int x) {
  int i;
  i = 0;
  while (i < 2000000000)
    i = i + 1;
  return i;
}
"""


class TestWatchdog:
    def test_pathological_run_is_quarantined_and_search_continues(self):
        # bfs pops the x==7 child first: that run trips the per-run
        # watchdog, is quarantined, and the search still reaches the
        # x==3 abort afterwards.
        result = dart_check(
            SLOW_BRANCH_SOURCE, "f", strategy="bfs",
            max_iterations=20, seed=0,
            run_time_limit=0.2, max_steps=50_000_000,
        )
        assert result.found_error
        timeouts = [r for r in result.quarantined
                    if r.classification == RUN_TIMEOUT]
        assert timeouts, "the slow run was not quarantined"
        assert timeouts[0].inputs[0] == 7

    def test_session_time_limit_enforced_mid_run(self):
        # A single endless run can no longer blow past time_limit: the
        # session deadline is threaded into the machine watchdog.
        started = time.perf_counter()
        result = dart_check(
            ALWAYS_SLOW_SOURCE, "f",
            time_limit=0.5, max_steps=1_000_000_000, max_iterations=100,
        )
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0  # budget + one watchdog interval, not ~minutes
        assert result.status == "exhausted"
        assert any(r.classification == RUN_TIMEOUT
                   for r in result.quarantined)

    def test_fast_sessions_unaffected_by_watchdog_options(self):
        plain = dart_check(samples.H_SOURCE, "h",
                           max_iterations=50, seed=0)
        guarded = dart_check(samples.H_SOURCE, "h",
                             max_iterations=50, seed=0,
                             run_time_limit=30.0)
        assert guarded.status == plain.status
        assert guarded.iterations == plain.iterations
        assert guarded.first_error().inputs == plain.first_error().inputs


class TestSolverResilience:
    def test_retry_escalates_budget_once(self):
        calls = []

        class StubSolver:
            node_budget = 100

            def solve(self, constraints, domains=None, node_budget=None):
                calls.append(node_budget)
                if node_budget is None:
                    return SolverResult("unknown")
                return SolverResult("sat", model={})

        from repro.dart.report import RunStats
        stats = RunStats()
        result = solve_with_retry(StubSolver(), [], {}, stats, escalation=4)
        assert result.status == "sat"
        assert calls == [None, 400]
        assert stats.solver_retries == 1
        assert stats.solver_escalations == 1
        assert stats.solver_calls == 1  # one *logical* call
        assert stats.solver_sat == 1 and stats.solver_unknown == 0

    def test_no_retry_when_disabled(self):
        class StubSolver:
            node_budget = 100

            def solve(self, constraints, domains=None, node_budget=None):
                return SolverResult("unknown")

        from repro.dart.report import RunStats
        stats = RunStats()
        result = solve_with_retry(StubSolver(), [], {}, stats, escalation=1)
        assert result.status == "unknown"
        assert stats.solver_retries == 0
        assert stats.solver_unknown == 1

    def test_escalated_retry_rescues_the_session(self, monkeypatch):
        # First attempts report budget exhaustion; only the escalated
        # retry really solves.  With escalation the bug is found, without
        # it the session degrades to (hopeless) random testing.
        original = Solver.solve

        def budget_starved(self, constraints, domains=None,
                           node_budget=None):
            if node_budget is None:
                return SolverResult("unknown")
            return original(self, constraints, domains)

        monkeypatch.setattr(Solver, "solve", budget_starved)
        rescued = dart_check(samples.H_SOURCE, "h",
                             max_iterations=40, seed=0)
        assert rescued.found_error
        assert rescued.stats.solver_retries >= 1
        assert rescued.stats.solver_escalations >= 1
        monkeypatch.setattr(solve, "BUDGET_ESCALATION", 1)
        degraded = dart_check(samples.H_SOURCE, "h",
                              max_iterations=40, seed=0)
        assert not degraded.found_error

    def test_solver_call_accounting_invariant_holds(self, monkeypatch):
        original = Solver.solve

        def budget_starved(self, constraints, domains=None,
                           node_budget=None):
            if node_budget is None:
                return SolverResult("unknown")
            return original(self, constraints, domains)

        monkeypatch.setattr(Solver, "solve", budget_starved)
        result = dart_check(samples.Z_SOURCE, "f",
                            max_iterations=40, seed=0)
        stats = result.stats
        assert stats.solver_calls == (
            stats.solver_sat + stats.solver_unsat + stats.solver_unknown
        )


class TestReplayKinds:
    def test_error_report_stores_input_kinds(self):
        dart = Dart(samples.STRUCT_CAST_SOURCE, "bar",
                    DartOptions(max_iterations=100, seed=0))
        result = dart.run()
        assert result.found_error
        report = result.first_error()
        assert len(report.kinds) == len(report.inputs)
        # The driver flips a NULL-or-fresh coin for the pointer argument.
        assert "ptr_choice" in report.kinds

    def test_replay_accepts_an_error_report(self):
        dart = Dart(samples.STRUCT_CAST_SOURCE, "bar",
                    DartOptions(max_iterations=100, seed=0))
        result = dart.run()
        report = result.first_error()
        fault = dart.replay(report)
        assert fault is not None
        assert fault.kind == report.kind

    def test_replay_with_explicit_kinds(self):
        dart = Dart(samples.STRUCT_CAST_SOURCE, "bar",
                    DartOptions(max_iterations=100, seed=0))
        result = dart.run()
        report = result.first_error()
        fault = dart.replay(report.inputs, kinds=report.kinds)
        assert fault is not None and fault.kind == report.kind

    def test_plain_value_list_still_replays(self):
        dart = Dart(samples.H_SOURCE, "h",
                    DartOptions(max_iterations=50, seed=0))
        result = dart.run()
        fault = dart.replay(result.first_error().inputs)
        assert fault is not None
