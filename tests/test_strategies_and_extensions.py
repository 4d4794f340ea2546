"""Branch-selection strategies (footnote 4) and the optional extensions:
directed pointer coins, bounded random_init, transparent memory."""

import pytest

from repro import Dart, DartOptions, RandomTester, dart_check, random_check
from repro.programs import samples
from repro.programs.ac_controller import AC_CONTROLLER_SOURCE


class TestStrategies:
    @pytest.mark.parametrize("strategy", ["dfs", "bfs", "random"])
    def test_all_strategies_find_the_h_bug(self, strategy):
        result = dart_check(samples.H_SOURCE, "h",
                            strategy=strategy, max_iterations=100, seed=0)
        assert result.status == "bug_found", strategy

    @pytest.mark.parametrize("strategy", ["dfs", "bfs", "random"])
    def test_all_strategies_prove_clean_program(self, strategy):
        result = dart_check(samples.Z_SOURCE, "f",
                            strategy=strategy, max_iterations=100, seed=0)
        assert result.status == "complete", strategy

    @pytest.mark.parametrize("strategy", ["dfs", "bfs", "random"])
    def test_same_path_set_regardless_of_strategy(self, strategy):
        result = dart_check(AC_CONTROLLER_SOURCE, "ac_controller",
                            strategy=strategy, depth=1,
                            max_iterations=200, seed=0)
        assert result.status == "complete"
        assert len(result.stats.distinct_paths) == 5

    def test_invalid_strategy_rejected(self):
        with pytest.raises(ValueError):
            DartOptions(strategy="depth-charge")


class TestPointerCoinModes:
    SOURCE = """
    struct box { int v; };
    int f(struct box *b) {
      if (b == NULL) return -1;
      if (b->v == 123456) abort();
      return b->v;
    }
    """

    def test_directed_coins_systematically_reach_both_shapes(self):
        result = dart_check(self.SOURCE, "f", max_iterations=50, seed=0)
        assert result.status == "bug_found"
        # Coin solved to 1 (allocate) and v solved to the magic value.
        assert result.first_error().inputs[0] == 1
        assert result.first_error().inputs[1] == 123456

    def test_paper_mode_still_finds_it_via_restarts(self):
        options = DartOptions(max_iterations=200, seed=0,
                              directed_pointer_choices=False)
        result = dart_check(self.SOURCE, "f", options)
        assert result.status == "bug_found"

    def test_paper_mode_never_claims_completeness(self):
        clean = """
        struct box { int v; };
        int f(struct box *b) { if (b == NULL) return -1; return b->v; }
        """
        options = DartOptions(max_iterations=60, seed=0,
                              directed_pointer_choices=False)
        result = dart_check(clean, "f", options)
        assert result.status == "exhausted"  # coins are untracked inputs

    def test_directed_mode_claims_completeness_on_clean_program(self):
        clean = """
        struct box { int v; };
        int f(struct box *b) { if (b == NULL) return -1; return b->v; }
        """
        result = dart_check(clean, "f", max_iterations=60, seed=0)
        assert result.status == "complete"


class TestBoundedInitDepth:
    LIST_SOURCE = """
    struct node { int value; struct node *next; };
    int sum3(struct node *head) {
      int total; int hops;
      total = 0; hops = 0;
      while (head != NULL && hops < 3) {
        total = total + head->value;
        head = head->next;
        hops = hops + 1;
      }
      return total;
    }
    """

    def test_bounded_search_completes(self):
        options = DartOptions(max_iterations=2000, seed=0,
                              max_init_depth=3)
        result = dart_check(self.LIST_SOURCE, "sum3", options)
        assert result.status == "complete"

    def test_unbounded_search_keeps_growing_lists(self):
        # Without the bound, directed coins keep extending the list; the
        # search must not claim completeness within a small budget.
        options = DartOptions(max_iterations=30, seed=0)
        result = dart_check(self.LIST_SOURCE, "sum3", options)
        assert result.status == "exhausted"

    def test_bound_reachable_condition_deep_in_list(self):
        source = """
        struct node { int value; struct node *next; };
        int probe(struct node *head) {
          if (head != NULL)
            if (head->next != NULL)
              if (head->next->value == 777)
                abort();
          return 0;
        }
        """
        options = DartOptions(max_iterations=500, seed=0, max_init_depth=4)
        result = dart_check(source, "probe", options)
        assert result.status == "bug_found"


class TestTransparentMemory:
    SOURCE = """
    int f(int x) {
      int copy;
      memcpy(&copy, &x, sizeof(int));
      if (copy == 424242) abort();
      return copy;
    }
    """

    def test_opaque_memcpy_loses_symbolic_value(self):
        # Paper behaviour: library functions are black boxes, so the
        # constraint after memcpy is gone and the bug needs luck.
        result = dart_check(self.SOURCE, "f", max_iterations=60, seed=0)
        assert not result.found_error
        all_linear = result.flags[0]
        assert not all_linear  # honesty: completeness was lost

    def test_transparent_memcpy_keeps_symbolic_value(self):
        options = DartOptions(max_iterations=60, seed=0,
                              transparent_memory=True)
        result = dart_check(self.SOURCE, "f", options)
        assert result.status == "bug_found"
        assert result.first_error().inputs[0] == 424242


class TestErrorCollection:
    MULTI_BUG = """
    int f(int x) {
      if (x == 1) abort();
      if (x == 2) { int *p; p = NULL; *p = 1; }
      if (x == 3) { int z; z = 0; return 10 / z; }
      return 0;
    }
    """

    def test_stop_on_first_error_returns_one(self):
        result = dart_check(self.MULTI_BUG, "f",
                            max_iterations=100, seed=0)
        assert len(result.errors) == 1

    def test_collect_mode_finds_all_distinct_errors(self):
        options = DartOptions(max_iterations=200, seed=0,
                              stop_on_first_error=False)
        result = dart_check(self.MULTI_BUG, "f", options)
        kinds = sorted(e.kind for e in result.errors)
        assert kinds == ["abort", "division by zero", "segmentation fault"]

    def test_collect_mode_deduplicates_by_site(self):
        options = DartOptions(max_iterations=300, seed=0,
                              stop_on_first_error=False)
        result = dart_check(
            "int f(int x) { if (x > 0) abort(); return 0; }", "f", options
        )
        assert len(result.errors) == 1


class TestRandomBaseline:
    def test_random_finds_shallow_bugs(self):
        source = "int f(int x) { if (x > 0) abort(); return 0; }"
        result = random_check(source, "f", max_iterations=100, seed=0)
        assert result.found_error

    def test_random_never_claims_completeness(self):
        result = random_check(samples.Z_SOURCE, "f",
                              max_iterations=20, seed=0)
        assert result.status == "exhausted"

    def test_random_respects_iteration_budget(self):
        result = random_check(samples.Z_SOURCE, "f",
                              max_iterations=17, seed=0)
        assert result.iterations == 17

    def test_random_deterministic_per_seed(self):
        source = "int f(int x) { if (x % 100 == 0) abort(); return 0; }"
        a = random_check(source, "f", max_iterations=500, seed=9)
        b = random_check(source, "f", max_iterations=500, seed=9)
        assert a.found_error == b.found_error
        assert a.iterations == b.iterations

    def test_random_ignores_strategy_and_jobs(self):
        def outcome(**overrides):
            result = random_check(samples.STRUCT_CAST_SOURCE, "bar",
                                  max_iterations=200, seed=3,
                                  stop_on_first_error=False, **overrides)
            return ([(e.kind, str(e.location), e.inputs, e.iteration)
                     for e in result.errors],
                    result.stats.instructions_executed,
                    sorted(result.stats.covered_branches))

        assert outcome(strategy="bfs", jobs=2) == outcome() \
            == outcome(strategy="random")

    def test_random_never_claims_completeness_without_inputs(self):
        source = "int g; int f() { if (g) abort(); return 0; }"
        assert dart_check(source, "f").status == "complete"
        result = random_check(source, "f", max_iterations=20)
        assert result.status == "exhausted"
        assert result.iterations == 20

    def test_baseline_checkpoints_never_cross_with_directed_ones(self):
        directed = Dart(samples.H_SOURCE, "h")
        baseline = RandomTester(samples.H_SOURCE, "h")
        assert "search" not in directed.fingerprint
        assert baseline.fingerprint == dict(directed.fingerprint,
                                            search="random")


class TestOptionsValidation:
    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            DartOptions(depth=0)

    def test_check_rejects_options_plus_kwargs(self):
        with pytest.raises(ValueError):
            dart_check(samples.Z_SOURCE, "f", DartOptions(), seed=1)

    def test_time_limit_stops_session(self):
        source = """
        int f(int x) { if (x * x == 7) abort(); return 0; }
        """
        result = dart_check(source, "f", max_iterations=10**9,
                            time_limit=0.5)
        assert result.status == "exhausted"
        assert result.stats.elapsed < 5
