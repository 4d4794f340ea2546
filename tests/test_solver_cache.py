"""Solver result cache: canonical keys, lookup tiers, bounds, counters."""

from repro import DartOptions, dart_check
from repro.programs.ac_controller import (
    AC_CONTROLLER_SOURCE,
    AC_CONTROLLER_TOPLEVEL,
)
from repro.solver import SAT, SolverResultCache, UNSAT
from repro.solver.cache import EXACT, UNSAT_CORE, UNSAT_SUPERSET
from repro.solver.core import SolverResult
from repro.symbolic.expr import CmpExpr, EQ, GE, GT, LE, LinExpr


def cmp(op, coeffs, const=0):
    return CmpExpr(op, LinExpr(coeffs, const))


class TestCanonicalKeys:
    """Satellite: stable canonical identity for LinExpr/CmpExpr."""

    def test_linexpr_key_is_insertion_order_independent(self):
        a = LinExpr({0: 1, 1: 2}, 3)
        b = LinExpr({1: 2, 0: 1}, 3)
        assert a.key() == b.key()
        assert a == b
        assert hash(a) == hash(b)

    def test_linexpr_zero_coefficients_are_normalized_away(self):
        assert LinExpr({0: 1, 1: 0}, 2) == LinExpr({0: 1}, 2)

    def test_linexpr_inequality(self):
        assert LinExpr({0: 1}, 2) != LinExpr({0: 1}, 3)
        assert LinExpr({0: 1}) != LinExpr({1: 1})
        assert LinExpr({0: 1}) != "not an expression"

    def test_cmpexpr_equality_and_key(self):
        a = cmp(GE, {0: 1, 2: -3}, 7)
        b = cmp(GE, {2: -3, 0: 1}, 7)
        assert a == b and hash(a) == hash(b) and a.key() == b.key()
        assert a != cmp(LE, {0: 1, 2: -3}, 7)  # same lin, different op
        assert a != "not an expression"

    def test_keys_usable_as_dict_keys(self):
        table = {cmp(EQ, {0: 1}).key(): "x0 == 0"}
        assert table[cmp(EQ, {0: 1}).key()] == "x0 == 0"

    def test_derived_expressions_get_fresh_keys(self):
        base = LinExpr({0: 1}, 1)
        base.key()  # populate the cache on the parent
        assert base.add_const(1).key() == (((0, 1),), 2)
        assert base.negate().key() == (((0, -1),), -1)

    def test_query_key_embeds_the_encoding_version(self):
        # The leading version field makes keys from different constraint
        # encodings disjoint: a persisted or shared cache entry from the
        # v1 ideal-integer encoding can never answer a v2 query.
        from repro.solver.cache import ENCODING_VERSION

        key = SolverResultCache.query_key([cmp(EQ, {0: 1})], {})
        assert key[0] == ENCODING_VERSION == 3

    def test_strict_ops_normalize_in_cache_keys_only(self):
        strict = cmp(GT, {0: 1}, 5)           # x0 + 5 > 0
        nonstrict = cmp(GE, {0: 1}, 4)        # x0 + 4 >= 0
        assert strict.key() != nonstrict.key()  # expression identity kept
        assert SolverResultCache.canonical_cmp_key(strict) == \
            SolverResultCache.canonical_cmp_key(nonstrict)
        assert SolverResultCache.query_key([strict], {}) == \
            SolverResultCache.query_key([nonstrict], {})


class TestExactTier:
    def test_hit_after_store(self):
        cache = SolverResultCache()
        cons = [cmp(EQ, {0: 1}, -5)]
        cache.store(cons, {}, SolverResult(SAT, {0: 5}))
        result, tier = cache.lookup(cons, {})
        assert tier == EXACT
        assert result.is_sat and result.model == {0: 5}

    def test_key_ignores_conjunct_order(self):
        cache = SolverResultCache()
        a, b = cmp(GT, {0: 1}), cmp(EQ, {1: 1}, -2)
        cache.store([a, b], {}, SolverResult(SAT, {0: 1, 1: 2}))
        result, tier = cache.lookup([b, a], {})
        assert tier == EXACT and result.is_sat

    def test_domains_distinguish_queries(self):
        # The same constraint under a narrower domain is a different
        # query: x0 >= 5 is SAT in int32 but UNSAT in [0, 3].
        cache = SolverResultCache()
        cons = [cmp(GE, {0: 1}, -5)]
        cache.store(cons, {}, SolverResult(SAT, {0: 5}))
        assert cache.lookup(cons, {0: (0, 3)}) is None

    def test_irrelevant_domains_do_not_distinguish(self):
        # Domains of variables the query never mentions are no part of
        # its identity.
        cache = SolverResultCache()
        cons = [cmp(EQ, {0: 1})]
        cache.store(cons, {9: (0, 1)}, SolverResult(SAT, {0: 0}))
        result, tier = cache.lookup(cons, {7: (2, 3)})
        assert tier == EXACT and result.is_sat

    def test_unknown_is_never_cached(self):
        cache = SolverResultCache()
        cons = [cmp(EQ, {0: 1})]
        cache.store(cons, {}, SolverResult("unknown"))
        assert cache.lookup(cons, {}) is None
        assert len(cache) == 0


class TestUnsatSupersetTier:
    def test_superset_of_unsat_core_is_unsat(self):
        cache = SolverResultCache()
        core = [cmp(EQ, {0: 1}), cmp(EQ, {0: 1}, -1)]  # x0==0 and x0==1
        cache.store(core, {}, SolverResult(UNSAT))
        query = core + [cmp(GT, {1: 1})]
        result, tier = cache.lookup(query, {})
        assert tier == UNSAT_SUPERSET
        assert result.status == "unsat"

    def test_subset_is_not_refuted(self):
        cache = SolverResultCache()
        core = [cmp(EQ, {0: 1}), cmp(EQ, {0: 1}, -1)]
        cache.store(core, {}, SolverResult(UNSAT))
        assert cache.lookup(core[:1], {}) is None

    def test_narrower_query_domain_still_unsat(self):
        # Refuted in int32 -> refuted in any narrower domain.
        cache = SolverResultCache()
        core = [cmp(EQ, {0: 1}), cmp(EQ, {0: 1}, -1)]
        cache.store(core, {}, SolverResult(UNSAT))
        result, tier = cache.lookup(core + [cmp(LE, {1: 1})],
                                    {0: (0, 10)})
        assert tier == UNSAT_SUPERSET and result.status == "unsat"

    def test_wider_query_domain_not_shortcut(self):
        # UNSAT proved under [0, 3] says nothing about int32.
        cache = SolverResultCache()
        cons = [cmp(GE, {0: 1}, -5)]  # x0 >= 5
        cache.store(cons, {0: (0, 3)}, SolverResult(UNSAT))
        assert cache.lookup(cons + [cmp(GE, {1: 1})], {}) is None


class TestRefutationStore:
    def test_core_replaces_its_query_entry(self):
        # One entry per proved-UNSAT query: the extracted core takes the
        # whole query's place, and its hits count as core refutations.
        cache = SolverResultCache()
        query = [cmp(EQ, {0: 1}), cmp(EQ, {0: 1}, -1), cmp(GT, {1: 1})]
        cache.store(query, {}, SolverResult(UNSAT))
        cache.store_core(query[:2], {}, query)
        assert len(cache._refutations) == 1
        result, tier = cache.lookup(query[:2] + [cmp(LE, {2: 1})], {})
        assert tier == UNSAT_CORE and result.status == "unsat"


class TestBounds:
    def test_exact_results_are_lru_bounded(self):
        cache = SolverResultCache(max_results=4)
        for i in range(10):
            cache.store([cmp(EQ, {0: 1}, -i)], {}, SolverResult(UNSAT)
                        if i % 2 else SolverResult(SAT, {0: i}))
        assert len(cache) == 4

    def test_refutation_store_bounded(self):
        # Whole UNSAT queries and cores share one bound.
        cache = SolverResultCache(max_refutations=3)
        for i in range(5):
            cache.store([cmp(EQ, {0: 1}, -i), cmp(EQ, {0: 1}, -i - 1)], {},
                        SolverResult(UNSAT))
            cache.store_core([cmp(GE, {i: 1}, -5), cmp(LE, {i: 1})], {})
        assert len(cache._refutations) == 3
        assert sum(map(len, cache._index.values())) == 3


class TestEndToEndCounters:
    def test_cache_counters_populated_and_calls_reduced(self):
        def stats_for(cache_on):
            options = DartOptions(
                depth=2, max_iterations=1000, seed=0,
                stop_on_first_error=False, solver_cache=cache_on,
            )
            return dart_check(AC_CONTROLLER_SOURCE, AC_CONTROLLER_TOPLEVEL,
                              options).stats

        cold = stats_for(False)
        warm = stats_for(True)
        assert cold.cache_answered == 0 and cold.cache_misses == 0
        assert warm.cache_answered > 0
        assert warm.cache_misses == warm.solver_calls
        assert warm.solver_calls < cold.solver_calls
        assert 0.0 < warm.cache_hit_rate <= 1.0
        summary = warm.summary()
        for key in ("cache_hits", "cache_unsat_shortcuts",
                    "cache_model_reuses", "cache_misses", "cache_hit_rate",
                    "avg_constraints_per_call", "sliced_conjuncts_dropped"):
            assert key in summary
