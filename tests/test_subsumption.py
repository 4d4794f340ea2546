"""The subsumption layer: UNSAT-core cache tier + worklist dedup.

Covers the two pruning mechanisms end to end:

* the **cross-subtree UNSAT-core tier** — greedy-deletion core
  extraction (:func:`repro.dart.solve._extract_core`), the recorded
  core refuting future containing queries without a solver call, and
  the smallest-conjunct-key index answering exactly like a full linear
  scan (property-pinned);
* the **path-prefix worklist dedup** — fingerprint-equal children are
  admitted once per error salt, never across differing recorded
  errors, never once a completeness flag has degraded, and the seen
  set survives a checkpoint round trip;
* the **invariance contract** — a subsuming session reports the same
  verdict, error set and completeness flags as its ``--no-subsumption``
  ablation, on fixed programs and on generated mini-C programs (the
  PR 3 fuzz oracles re-used as a property).
"""

import random
from types import SimpleNamespace

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import DartOptions, dart_check
from repro.dart.independence import coupling_classes, dedup_eligible
from repro.dart.persist import SessionCheckpoint
from repro.dart.report import RunStats
from repro.dart.runner import _Session
from repro.dart.solve import _extract_core, solve_with_retry
from repro.obs.trace import TraceBus
from repro.solver import Solver, UNSAT
from repro.solver.cache import (
    SolverResultCache,
    UNSAT_CORE,
    UNSAT_SUPERSET,
    _DEFAULT_DOMAIN,
)
from repro.solver.core import SolverResult
from repro.symbolic.expr import CmpExpr, GE, LE, LinExpr
from repro.symbolic.flags import CompletenessFlags
from repro.testgen import OracleBattery, OracleOptions, generate_program

def cmp(op, coeffs, const=0):
    return CmpExpr(op, LinExpr(coeffs, const))


def ge(var, bound):
    """x_var >= bound."""
    return cmp(GE, {var: 1}, -bound)


def le(var, bound):
    """x_var <= bound."""
    return cmp(LE, {var: 1}, -bound)


#: x0 >= 10 and x0 <= 4 — a minimal conflicting pair.
CORE = [ge(0, 10), le(0, 4)]


class TestCoreTier:
    def test_recorded_core_refutes_containing_query(self):
        cache = SolverResultCache()
        cache.store_core(CORE, {})
        hit = cache.lookup(CORE + [ge(1, 0), le(2, 7)], {})
        assert hit is not None
        result, tier = hit
        assert tier == UNSAT_CORE
        assert result.status == "unsat"

    def test_core_does_not_fire_on_non_superset(self):
        cache = SolverResultCache()
        cache.store_core(CORE, {})
        # Only one of the two core conjuncts present: no refutation.
        assert cache.lookup([ge(0, 10), ge(1, 0)], {}) is None

    def test_core_respects_domain_widths(self):
        cache = SolverResultCache()
        cache.store_core(CORE, {0: (-100, 100)})
        # Same conjuncts under a *wider* domain: the recorded proof
        # does not cover the extra width, so no hit.
        assert cache.lookup(CORE, {0: (-1000, 1000)}) is None
        # No wider: refuted.
        assert cache.lookup(CORE, {0: (-50, 50)}) is not None

    def test_core_tier_survives_clear(self):
        cache = SolverResultCache()
        cache.store_core(CORE, {})
        cache.clear()
        assert cache.lookup(CORE + [ge(1, 0)], {}) is None

    def test_core_eviction_keeps_index_consistent(self):
        cache = SolverResultCache(max_refutations=4)
        for bound in range(10, 30):
            cache.store_core([ge(0, bound), le(0, bound - 6)], {})
        # Evicted cores must not answer; the survivors must.
        assert cache.lookup([ge(0, 10), le(0, 4)], {}) is None
        assert cache.lookup([ge(0, 29), le(0, 23), ge(1, 0)], {}) \
            is not None


class TestCoreExtraction:
    DOMAINS = {0: (-100, 100), 1: (-100, 100)}

    def test_greedy_deletion_strips_satisfiable_conjuncts(self):
        stats = RunStats()
        core = _extract_core(Solver(seed=0), CORE + [ge(1, 0)],
                             self.DOMAINS, stats, None)
        assert core is not None
        assert sorted(repr(c) for c in core) == \
            sorted(repr(c) for c in CORE)
        # Probes are not logical solver calls: the funnel invariant
        # solver_calls == sat + unsat + unknown must stay untouched.
        assert stats.solver_calls == 0
        assert stats.solver_sat == stats.solver_unsat == 0

    def test_already_minimal_set_returns_none(self):
        assert _extract_core(Solver(seed=0), list(CORE), self.DOMAINS,
                             RunStats(), None) is None

    def test_solve_with_retry_records_and_reuses_core(self):
        solver = Solver(seed=0)
        cache = SolverResultCache()
        stats = RunStats()
        first = solve_with_retry(solver, CORE + [ge(1, 3)], self.DOMAINS,
                                 stats=stats, cache=cache, subsume=True)
        assert first.status == "unsat"
        calls_after_first = stats.solver_calls
        # A *different* superset of the extracted core: refuted from
        # the core tier, no new solver call, counted as subsumed.
        second = solve_with_retry(solver, CORE + [le(1, 9)], self.DOMAINS,
                                  stats=stats, cache=cache, subsume=True)
        assert second.status == "unsat"
        assert stats.solver_calls == calls_after_first
        assert stats.flips_subsumed_core == 1

    def test_no_core_recorded_without_subsume(self):
        solver = Solver(seed=0)
        cache = SolverResultCache()
        result = solve_with_retry(solver, CORE + [ge(1, 3)], self.DOMAINS,
                                  RunStats(), cache=cache, subsume=False)
        assert result.status == "unsat"
        assert [tier for _cons, _doms, tier in cache._refutations.values()] \
            == [UNSAT_SUPERSET]


def _linear_refute(store, cons_keys, domains):
    """Reference oracle: the pre-index full scan of the refutations."""
    for _key, (cached_cons, cached_domains, _tier) in store.items():
        if not cached_cons <= cons_keys:
            continue
        for var, (lo, hi) in cached_domains.items():
            qlo, qhi = domains.get(var, _DEFAULT_DOMAIN)
            if qlo < lo or qhi > hi:
                break
        else:
            return True
    return False


#: A small conjunct pool so Hypothesis-drawn sets actually produce
#: subset relations (fresh random conjuncts almost never would).
_POOL = [ge(var, bound) for var in range(3) for bound in (0, 5, 10)] + \
        [le(var, bound) for var in range(3) for bound in (-1, 4, 9)]

_conjunct_sets = st.lists(
    st.sampled_from(_POOL), min_size=1, max_size=4, unique_by=repr
)


class TestIndexedRefuteMatchesLinearScan:
    """Satellite: the smallest-conjunct-key index is a pure pruning.

    For a store mixing cores and whole UNSAT queries, every query must
    get the same hit/miss verdict from the indexed ``_refute`` as from a
    full linear scan of the store — the index can skip buckets, never
    hits.
    """

    @given(stored=st.lists(_conjunct_sets, max_size=6),
           query=_conjunct_sets)
    @settings(max_examples=200, deadline=None)
    def test_identical_verdicts(self, stored, query):
        cache = SolverResultCache()
        for index, constraints in enumerate(stored):
            if index % 2:
                cache.store(constraints, {}, SolverResult(UNSAT))
            else:
                cache.store_core(constraints, {})
        key = cache.query_key(query, {})
        indexed = cache._refute(key[1], {})
        reference = _linear_refute(cache._refutations, key[1], {})
        assert (indexed is not None) == reference


CROSS = """
int f(int a, int b) {
  int r;
  r = 0;
  if (a == 1) r = 1;
  if (b == 2) abort();
  return r;
}
"""


class TestWorklistDedup:
    def _run(self, **overrides):
        params = dict(strategy="bfs", seed=0, max_iterations=200,
                      stop_on_first_error=False)
        params.update(overrides)
        return dart_check(CROSS, "f", **params)

    def test_dedup_fires_and_preserves_outcome(self):
        on = self._run()
        off = self._run(subsumption=False)
        assert on.stats.worklist_deduped > 0
        assert off.stats.worklist_deduped == 0
        assert on.status == off.status
        assert self._errors(on) == self._errors(off)
        assert tuple(on.flags) == tuple(off.flags)
        assert on.stats.iterations < off.stats.iterations

    def test_serial_matches_jobs2(self):
        serial = self._run()
        pooled = self._run(jobs=2)
        assert serial.status == pooled.status
        assert self._errors(serial) == self._errors(pooled)
        assert serial.stats.iterations == pooled.stats.iterations

    @staticmethod
    def _errors(result):
        return sorted((e.kind, str(e.location)) for e in result.errors)


def _fake_session(seen=None):
    fake = SimpleNamespace(flags=CompletenessFlags(), stats=RunStats(),
                           trace=TraceBus(),
                           _dedup_seen=seen if seen is not None else set())
    return fake


def _child(fp):
    # Stack/IM/bound are opaque to _admit_children; sentinels suffice.
    return (object(), object(), 1, fp)


class TestErrorSalt:
    def test_same_fingerprint_same_salt_deduped(self):
        fake = _fake_session()
        salt = ("abort", "p.c:3:5")
        first = list(_Session._admit_children(
            fake, [_child("fp1"), _child("fp1")], salt))
        assert len(first) == 1
        assert fake.stats.worklist_deduped == 1

    def test_differing_errors_never_deduped(self):
        fake = _fake_session()
        kept = list(_Session._admit_children(fake, [_child("fp1")],
                                             ("abort", "p.c:3:5")))
        kept += list(_Session._admit_children(fake, [_child("fp1")],
                                              None))
        kept += list(_Session._admit_children(
            fake, [_child("fp1")], ("assert", "p.c:9:1")))
        assert len(kept) == 3
        assert fake.stats.worklist_deduped == 0

    def test_no_fingerprint_means_no_dedup(self):
        fake = _fake_session()
        kept = list(_Session._admit_children(
            fake, [_child(None), _child(None)], None))
        assert len(kept) == 2
        assert fake.stats.worklist_deduped == 0

    def test_degraded_flags_disable_dedup(self):
        fake = _fake_session()
        fake.flags.clear_linear()
        kept = list(_Session._admit_children(
            fake, [_child("fp1"), _child("fp1")], None))
        assert len(kept) == 2
        assert fake.stats.worklist_deduped == 0


class TestCheckpointRoundTrip:
    def test_dedup_seen_survives_encoding(self):
        seen = [("a" * 64, ("abort", "p.c:3:5")), ("b" * 64, None)]
        checkpoint = SessionCheckpoint(
            fingerprint={"source": "x", "toplevel": "f", "options": "d"},
            rng_state=random.Random(0).getstate(),
            flags=(True, True, True, True),
            counters={}, distinct_paths=[], covered_branches=[],
            errors=[], quarantined=[], worklist=[],
            dedup_seen=seen,
        )
        decoded = SessionCheckpoint.from_body(checkpoint.to_body())
        assert decoded.dedup_seen == seen

    def test_absent_field_decodes_empty(self):
        checkpoint = SessionCheckpoint(
            fingerprint={},
            rng_state=random.Random(0).getstate(),
            flags=(True, True, True, True),
            counters={}, distinct_paths=[], covered_branches=[],
            errors=[], quarantined=[], worklist=[],
        )
        body = checkpoint.to_body()
        assert "dedup_seen" not in body
        assert SessionCheckpoint.from_body(body).dedup_seen == []


class TestStrategyValidation:
    """A typo'd strategy fails before any search work."""

    def test_cli_strategy_typo_fails_fast(self):
        # DartOptions screens the strategy at construction — before any
        # solver work, let alone a candidate scan.
        with pytest.raises(ValueError, match="strategy must be one of"):
            dart_check(CROSS, "f", strategy="bredth", max_iterations=5)


#: Small budgets: one oracle session stays well under 100ms.
_FAST = dict(vectors=1, dart_iterations=60, forcing_iterations=4)


class TestConfigInvarianceProperty:
    """Satellite: subsumption never changes the observable outcome.

    Over generated mini-C programs (the PR 3 fuzz generator), a
    subsuming session and its ablation must agree on verdict, error
    set, branch coverage and completeness flags whenever both runs are
    definitive — the same contract the fuzz campaign's ``nosubsume``
    matrix entry enforces continuously.
    """

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=12, deadline=None)
    def test_ablation_is_observationally_equal(self, seed):
        program = generate_program(random.Random(seed), seed=seed)
        battery = OracleBattery(OracleOptions(**_FAST))
        on, _ = battery._session(program, check_models=False)
        off, _ = battery._session(program, check_models=False,
                                  subsumption=False)
        divergences = battery._compare_sessions(
            "subsume", on, "nosubsume", off)
        assert divergences == [], [d.detail for d in divergences]
        if battery._definitive(on) and battery._definitive(off):
            assert tuple(on.flags) == tuple(off.flags)


#: Four independent guards feed an accumulator whose final value gates
#: an abort: any fingerprint keyed only on the flipped group's query
#: would merge entries whose divergence surfaces in the *future*, and
#: the abort would be pruned away.  The coupling analysis must put all
#: four parameters in one class, disabling dedup for the program.
HITS = """
int f(int a, int b, int c, int d) {
    int hits;
    hits = 0;
    if (a == 3) hits = hits + 1;
    if (b == 7) hits = hits + 1;
    if (c == 11) hits = hits + 1;
    if (d == 13) hits = hits + 1;
    if (hits == 3) { if (a == 3) abort(); }
    return hits;
}
"""

#: Pure control coupling, no dataflow: the second ``a == 5`` test sits
#: under ``b``'s guard, so the abort needs both inputs — the classes
#: must merge even though no variable ever flows into another.
CONTROL = """
int f(int a, int b) {
    if (a == 5) { }
    if (b == 2) { if (a == 5) abort(); }
    return 0;
}
"""


class TestIndependenceAnalysis:
    """The static coupling-class analysis gating worklist dedup."""

    def test_cross_params_are_singleton_classes(self):
        classes = coupling_classes(CROSS, "f", 1)
        assert classes == {0: frozenset({0}), 1: frozenset({1})}

    def test_depth_replicates_classes_per_call(self):
        classes = coupling_classes(CROSS, "f", 2)
        assert classes == {ordinal: frozenset({ordinal})
                           for ordinal in range(4)}

    def test_accumulator_couples_every_guard(self):
        classes = coupling_classes(HITS, "f", 1)
        assert classes[0] == frozenset({0, 1, 2, 3})

    def test_control_context_couples_without_dataflow(self):
        classes = coupling_classes(CONTROL, "f", 1)
        assert classes[0] == frozenset({0, 1})

    def test_short_circuit_couples_operands(self):
        source = "int f(int a, int b) { if (a > 3 && b > 4) abort(); " \
                 "return 0; }"
        assert coupling_classes(source, "f", 1)[0] == frozenset({0, 1})

    def test_division_divisor_is_a_predicate(self):
        # Whether ``a / b`` traps depends on b *under a's guard*: the
        # faulting expression couples both.
        source = "int f(int a, int b) { int r; r = 0; " \
                 "if (a > 3) r = 10 / b; return r; }"
        assert coupling_classes(source, "f", 1)[0] == frozenset({0, 1})

    @pytest.mark.parametrize("source", [
        "int g; int f(int a) { g = a; return 0; }",       # global state
        "int f(int a) { int i; for (i = 0; i < a; i++) { } return 0; }",
        "int h(int x) { return x; } int f(int a) { return h(a); }",
        "int f(int *p) { return 0; }",                    # pointer coin
        "int f(int a) { int v[3]; v[0] = a; return v[0]; }",
        "int f(int a) { int x; if (a > 0) x = 1; return x; }",  # maybe-unset
    ])
    def test_conservative_latches_disable_dedup(self, source):
        assert coupling_classes(source, "f", 1) is None

    def test_eligibility_requires_class_closure(self):
        classes = coupling_classes(HITS, "f", 1)
        assert not dedup_eligible({0}, classes)
        assert dedup_eligible({0, 1, 2, 3}, classes)
        cross = coupling_classes(CROSS, "f", 1)
        assert dedup_eligible({1}, cross)

    def test_accumulator_abort_survives_subsumption(self):
        # The v3 soundness regression: with dedup gated off for HITS,
        # the subsuming session must still reach the guarded abort.
        outcomes = []
        for subsumption in (True, False):
            result = dart_check(HITS, "f", strategy="bfs", seed=0,
                                max_iterations=600,
                                stop_on_first_error=False,
                                subsumption=subsumption)
            outcomes.append((result.status,
                             sorted((e.kind, str(e.location))
                                    for e in result.errors)))
            assert result.stats.worklist_deduped == 0
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == "bug_found"
