"""Theorem 1 of the paper, checked empirically.

(a) *Soundness*: every "Bug found" comes with an input vector; replaying
    that vector deterministically reproduces the error.
(b) *Completeness*: if the session terminates without a bug and both
    completeness flags are still set, re-running with a different seed
    explores the same set of paths and still finds nothing.
(invariant) ``all_linear and all_locs_definite  =>  forcing_ok`` holds at
    session end, and completeness is never claimed when an unsound
    fallback occurred.
"""

import pytest

from repro import DartOptions, dart_check
from repro.dart.config import STRATEGIES
from repro.dart.runner import Dart
from repro.programs import samples
from repro.programs.ac_controller import AC_CONTROLLER_SOURCE

#: (source, toplevel, depth) programs with a reachable error.
BUGGY = [
    (samples.H_SOURCE, "h", 1),
    (samples.FOOBAR_SOURCE, "foobar", 1),
    (samples.FILTER_SOURCE, "entry", 1),
    (AC_CONTROLLER_SOURCE, "ac_controller", 2),
]

#: Programs DART proves error-free by exhausting all feasible paths.
CLEAN = [
    (samples.Z_SOURCE, "f", 1),
    (AC_CONTROLLER_SOURCE, "ac_controller", 1),
    ("int f(int x) { if (x == 4) return 1; return 0; }", "f", 1),
    ("int f(int x, int y) { if (x < y) if (y < x) abort(); return 0; }",
     "f", 1),
]


class TestSoundness:
    @pytest.mark.parametrize("source,toplevel,depth", BUGGY)
    def test_errors_replay(self, source, toplevel, depth):
        options = DartOptions(depth=depth, max_iterations=2000, seed=4)
        dart = Dart(source, toplevel, options)
        result = dart.run()
        assert result.found_error
        fault = dart.replay(result.first_error().inputs)
        assert fault is not None, "reported error did not replay"
        assert fault.kind == result.first_error().kind

    @pytest.mark.parametrize("source,toplevel,depth", BUGGY)
    def test_replay_is_deterministic(self, source, toplevel, depth):
        options = DartOptions(depth=depth, max_iterations=2000, seed=4)
        dart = Dart(source, toplevel, options)
        result = dart.run()
        inputs = result.first_error().inputs
        first = dart.replay(inputs)
        second = dart.replay(inputs)
        assert first.kind == second.kind
        assert str(first.location) == str(second.location)


class TestCompleteness:
    @pytest.mark.parametrize("source,toplevel,depth", CLEAN)
    def test_clean_programs_terminate_complete(self, source, toplevel,
                                               depth):
        result = dart_check(source, toplevel, depth=depth,
                            max_iterations=2000, seed=0)
        assert result.status == "complete"
        assert result.flags == (True, True, True, True)

    @pytest.mark.parametrize("source,toplevel,depth", CLEAN)
    def test_path_set_is_seed_independent(self, source, toplevel, depth):
        runs = [
            dart_check(source, toplevel, depth=depth,
                       max_iterations=2000, seed=seed)
            for seed in (0, 1, 2)
        ]
        path_sets = [r.stats.distinct_paths for r in runs]
        assert path_sets[0] == path_sets[1] == path_sets[2]

    def test_completeness_not_claimed_with_nonlinear_code(self):
        # A non-linear guard: even when every flippable branch is
        # exhausted, DART must keep searching (never report complete).
        # x*x == 7 is unreachable even with wrap-around (squares are never
        # congruent to 7 mod 8), but DART cannot prove that.
        source = """
        int f(int x) { if (x * x == 7) abort(); return 0; }
        """
        result = dart_check(source, "f", max_iterations=50, seed=0)
        assert result.status == "exhausted"  # runs forever in principle
        all_linear = result.flags[0]
        assert not all_linear

    def test_completeness_not_claimed_with_symbolic_address(self):
        source = """
        int table[4];
        int f(int i) {
          if (i < 0) return -1;
          if (i > 3) return -1;
          if (table[i] == 1) abort();
          return 0;
        }
        """
        result = dart_check(source, "f", max_iterations=100, seed=0)
        all_locs = result.flags[1]
        assert not all_locs
        assert result.status == "exhausted"


class TestWrapWindows:
    """A widened conjunct's guards hold its operands in the wrap window of
    the run that recorded it, so an UNSAT flip proves infeasibility
    only where no such window limits the query."""

    #: ``x * 4 > 5`` holds in several wrap windows; in some of them
    #: ``x > 1000000`` cannot fail, but x = 2 reaches abort().
    PINNED_PREFIX = """
    int f(int x) {
      if (x * 4 > 5) { if (x > 1000000) { return 1; } abort(); }
      return 0;
    }
    """

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("seed", range(8))
    def test_anchored_prefix_window_is_no_proof(self, strategy, seed):
        result = dart_check(self.PINNED_PREFIX, "f", strategy=strategy,
                            max_iterations=200, seed=seed)
        assert result.status != "complete"

    def test_truncated_enumeration_with_a_sat_window_is_no_loss(self):
        # ``x * 100000`` has too many wrap windows to enumerate, but the
        # anchored one flips the branch: both orders find all three paths
        # and keep every flag.
        source = """
        int f(int x, int y) {
          if (x * 100000 > 5) { if (y == 7) return 1; return 2; }
          return 0;
        }
        """
        dfs, bfs = (dart_check(source, "f", strategy=strategy,
                               max_iterations=200, seed=0)
                    for strategy in ("dfs", "bfs"))
        assert (dfs.status, dfs.flags) == (bfs.status, bfs.flags)
        assert dfs.status == "complete" and dfs.iterations == 3


class TestInvariant:
    """all_linear and all_locs_definite => forcing_ok (end of §2.3)."""

    PROGRAMS = BUGGY + CLEAN + [
        (samples.STRUCT_CAST_SOURCE, "bar", 1),
        ("""
        int f(int x, int y) {
          int z;
          z = x * y;        /* non-linear */
          if (z > 100) if (x == 3) abort();
          return 0;
        }
        """, "f", 1),
    ]

    @pytest.mark.parametrize("source,toplevel,depth", PROGRAMS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_invariant_at_session_end(self, source, toplevel, depth, seed):
        result = dart_check(source, toplevel, depth=depth,
                            max_iterations=300, seed=seed)
        all_linear, all_locs, forcing_ok = result.flags[:3]
        if all_linear and all_locs:
            assert forcing_ok
