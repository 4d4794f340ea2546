"""Solver result caching keyed on canonical constraint sets.

DART's directed search re-issues many near-identical queries: consecutive
candidate flips share almost all conjuncts, sliced queries for different
branch indices often normalize to the *same* constraint set, and restarts
revisit prefixes already decided.  This cache answers a query without a
solver call through four tiers, cheapest first:

1. **Exact hit** — the canonical key (the encoding generation, the set
   of conjunct keys with strict inequalities normalized to non-strict
   form, and the domains of their variables) was decided before; the
   stored result is returned verbatim.
2. **UNSAT-core subsumption** — a recorded *minimal* conflicting
   conjunct set (extracted by greedy deletion after a sliced query came
   back UNSAT, see :func:`repro.dart.solve._extract_core`) that is
   contained in the query refutes it cross-subtree: the core alone is
   already unsatisfiable, and adding conjuncts or tightening domains
   never repairs that.
3. **UNSAT-superset shortcut** — a previously proved-UNSAT constraint set
   that is a subset of the query (under domains at least as wide) refutes
   the query too, by the same monotonicity.  The core tier is the same
   argument applied to a deliberately minimized set, so it fires on far
   more supersets.
4. **Model reuse** — a model cached from an earlier SAT answer that
   assigns every variable of the query, within its domains, and satisfies
   every conjunct answers SAT without a search (the counterexample-cache
   idea of KLEE and Green).

The two UNSAT tiers share a **smallest-conjunct-key index**: every
stored set is bucketed under its lexicographically smallest conjunct
key, and a lookup only scans buckets whose key appears in the query —
a subset's smallest element is necessarily one of the query's elements,
so the pruning can never miss a hit the full linear scan would find
(pinned by a property test), while misses stop costing O(cache size).

Only decided results (sat/unsat) are stored; ``unknown`` is a node-budget
artifact that an escalated retry may overturn, so caching it would make
incompleteness sticky.  All stores are bounded LRU so a long session's
memory stays flat.

Soundness: every tier returns a verdict that the solver itself would
have produced — exact hits replay a prior verdict for a canonically
equal query, the UNSAT-superset tier relies on monotonicity (a superset
of an unsatisfiable set under no-wider domains is unsatisfiable), and
reused models are re-checked against every conjunct of the *current*
query before being answered SAT.  The cache can therefore never steer
the search somewhere the solver would not have.

With a :class:`repro.obs.trace.TraceBus` attached (the ``trace``
attribute, set by the runner), each lookup/store emits an event carrying
the tier (or miss) and the verdict.  The cache reads no clock: the
caller (:func:`repro.dart.solve.solve_with_retry`) charges every access
to the session's ``cache`` layer.

Under ``jobs>1`` this cache becomes the *local* layer of a two-layer
scheme: each pool worker consults a per-item instance (all four tiers),
backed by a parent-side server that shares exact-tier results across
workers (`repro.solver.shared` — the layering keeps every worker result
a pure function of its payload, which the pool's determinism argument
in docs/PARALLELISM.md rests on).
"""

from collections import OrderedDict

from repro.faults import points as fault_points
from repro.obs import trace as tr
from repro.solver.core import SAT, UNSAT, SolverResult
from repro.symbolic.expr import GE, GT, LE, LT

#: Default domain for variables the query does not bound: signed int32
#: (mirrors repro.solver.problem.DEFAULT_DOMAIN without importing it, to
#: keep this module dependency-free for the parallel workers).
_DEFAULT_DOMAIN = (-(1 << 31), (1 << 31) - 1)

#: Generation of the constraint *encoding* the engine records.  Bumped
#: whenever the meaning of a canonically-equal constraint set changes —
#: v1: ideal-integer conjuncts with the faithfulness drop screen;
#: v2: machine-integer widening (wrap-anchored conjuncts + window
#: guards); v3: cross-subtree UNSAT-core subsumption (a key can now be
#: refuted by a *recorded core* it contains, not only replayed or
#: refuted by a whole prior query — the answer set a key stands for
#: changed, so the key semantics changed).  The version is part of every
#: query key, so entries from a different generation can never answer a
#: query, and it is stamped into the session fingerprint
#: (`Dart.fingerprint`), so a checkpoint written under another encoding
#: is rejected and its branches re-solved.
ENCODING_VERSION = 3

#: Lookup-tier tags (also the RunStats counter the caller bumps).
EXACT = "exact"
UNSAT_CORE = "unsat-core"
UNSAT_SUPERSET = "unsat-superset"
MODEL_REUSE = "model-reuse"


def trace_lookup(trace, hit, constraints):
    """Emit one ``cache_lookup`` event (the tier, or None on a miss)."""
    if trace is not None and trace.enabled:
        trace.emit(tr.CACHE_LOOKUP,
                   tier=hit[1] if hit is not None else None,
                   verdict=hit[0].status if hit is not None else None,
                   constraints=len(constraints))


def trace_store(trace, verdict, constraints):
    """Emit one ``cache_store`` event."""
    if trace is not None and trace.enabled:
        trace.emit(tr.CACHE_STORE, verdict=verdict,
                   constraints=len(constraints))


def _smallest_key(cons_keys):
    """The bucket key of a stored UNSAT set: its smallest conjunct key.

    Conjunct keys are heterogeneous tuples (plain vs. widened/tagged),
    so ``repr`` provides the total order — any deterministic one works,
    as long as store and lookup agree.
    """
    return min(cons_keys, key=repr)


class SolverResultCache:
    """Bounded cache of solver verdicts for normalized constraint sets."""

    def __init__(self, max_results=4096, max_models=64, max_unsat_sets=256,
                 max_cores=256):
        #: Optional TraceBus; when attached and enabled, lookups and
        #: stores emit cache_lookup / cache_store events.
        self.trace = None
        #: query key -> SolverResult (exact tier).
        self._results = OrderedDict()
        #: frozenset(model.items()) -> model dict (model-reuse tier).
        self._models = OrderedDict()
        #: unsat key -> (constraint key set, {var: (lo, hi)}).
        self._unsat = OrderedDict()
        #: core key -> (constraint key set, {var: (lo, hi)}) — minimal
        #: conflicting sets recorded by the subsumption layer.
        self._cores = OrderedDict()
        #: Smallest-conjunct-key indexes over the two UNSAT stores:
        #: bucket key -> list of store keys, maintained through LRU
        #: eviction and clear().
        self._unsat_index = {}
        self._core_index = {}
        self._max_results = max_results
        self._max_models = max_models
        self._max_unsat_sets = max_unsat_sets
        self._max_cores = max_cores

    # -- keys ---------------------------------------------------------------

    @staticmethod
    def canonical_cmp_key(constraint):
        """Canonical cache identity of one conjunct.

        Over the integers ``lin < 0`` iff ``lin + 1 <= 0`` and ``lin > 0``
        iff ``lin - 1 >= 0``, so strict inequalities are normalized to
        their non-strict form during key construction — the two spellings
        of the same half-space then share exact-tier entries.  (The
        normalization lives here, not in ``CmpExpr.key()``, so expression
        equality/hashing and slicing identities are untouched.)  Tagged
        keys of widened conjuncts are kept verbatim: their guards are part
        of their meaning, and they are flattened to plain conjuncts before
        any query reaches the cache anyway.
        """
        key = constraint.key()
        if len(key) != 2:
            return key
        op = constraint.op
        if op == LT:
            return (LE, constraint.lin.add_const(1).key())
        if op == GT:
            return (GE, constraint.lin.add_const(-1).key())
        return key

    @staticmethod
    def query_key(constraints, domains):
        """Canonical identity of (encoding, constraint set, domains).

        The leading :data:`ENCODING_VERSION` makes keys from different
        constraint-encoding generations disjoint by construction.
        """
        cons = frozenset(
            SolverResultCache.canonical_cmp_key(c) for c in constraints
        )
        variables = set()
        for c in constraints:
            variables |= c.variables()
        doms = frozenset(
            (var,) + tuple(domains.get(var, _DEFAULT_DOMAIN))
            for var in variables
        )
        return (ENCODING_VERSION, cons, doms)

    # -- lookup -------------------------------------------------------------

    def lookup(self, constraints, domains):
        """Answer a query from the cache, or None.

        Returns ``(SolverResult, tier)`` with ``tier`` one of
        :data:`EXACT`, :data:`UNSAT_CORE`, :data:`UNSAT_SUPERSET`,
        :data:`MODEL_REUSE`.
        """
        hit = self._lookup(constraints, domains)
        trace_lookup(self.trace, hit, constraints)
        return hit

    def _lookup(self, constraints, domains):
        injector = fault_points.ACTIVE
        if injector is not None:
            # Fault seam: simulated internal corruption.  The engine
            # (solve_with_retry) self-heals by clearing the cache and
            # treating the lookup as a miss.
            injector.cache_access()
        key = self.query_key(constraints, domains)
        result = self._results.get(key)
        if result is not None:
            self._results.move_to_end(key)
            return result, EXACT
        core = self._refute(self._cores, self._core_index, key[1], domains)
        if core is not None:
            return core, UNSAT_CORE
        shortcut = self._refute(self._unsat, self._unsat_index, key[1],
                                domains)
        if shortcut is not None:
            return shortcut, UNSAT_SUPERSET
        reused = self._reuse_model(constraints, domains)
        if reused is not None:
            return reused, MODEL_REUSE
        return None

    def _refute(self, store, index, cons_keys, domains):
        """Shared subset test of the two UNSAT tiers, index-pruned.

        A stored set contained in the query refutes it.  Candidates come
        from the buckets of the query's own conjunct keys: any subset's
        smallest key is one of the query's keys, so no hit the full scan
        would find is skipped.  Bucket keys are visited in sorted order —
        conjunct keys contain strings, so raw frozenset order would vary
        with hash randomization and make LRU touch order (hence eviction,
        hence counters) irreproducible across interpreter runs.
        """
        for bucket_key in sorted(cons_keys, key=repr):
            for store_key in index.get(bucket_key, ()):
                cached_cons, cached_domains = store[store_key]
                if not cached_cons <= cons_keys:
                    continue
                # The cached refutation holds under domains at least as
                # wide as the query's for every variable it constrains.
                for var, (lo, hi) in cached_domains.items():
                    qlo, qhi = domains.get(var, _DEFAULT_DOMAIN)
                    if qlo < lo or qhi > hi:
                        break
                else:
                    store.move_to_end(store_key)
                    return SolverResult(UNSAT)
        return None

    def _reuse_model(self, constraints, domains):
        variables = set()
        for c in constraints:
            variables |= c.variables()
        for model_key, model in reversed(self._models.items()):
            if any(var not in model for var in variables):
                continue
            in_domain = True
            for var in variables:
                lo, hi = domains.get(var, _DEFAULT_DOMAIN)
                if not lo <= model[var] <= hi:
                    in_domain = False
                    break
            if not in_domain:
                continue
            if all(c.evaluate(model) for c in constraints):
                self._models.move_to_end(model_key)
                # Restrict to the query's variables: a fuller model would
                # leak assignments into IM slots this query says nothing
                # about when the caller merges it (the IM + IM' update).
                return SolverResult(
                    SAT, {var: model[var] for var in variables}
                )
        return None

    # -- store --------------------------------------------------------------

    def store(self, constraints, domains, result):
        """Record a decided result; ``unknown`` is never cached."""
        if result.status not in ("sat", "unsat"):
            return
        injector = fault_points.ACTIVE
        if injector is not None:
            injector.cache_access()
        key = self.query_key(constraints, domains)
        self._results[key] = result
        self._results.move_to_end(key)
        while len(self._results) > self._max_results:
            self._results.popitem(last=False)
        if result.status == "sat" and result.model:
            model_key = frozenset(result.model.items())
            self._models[model_key] = result.model
            self._models.move_to_end(model_key)
            while len(self._models) > self._max_models:
                self._models.popitem(last=False)
        elif result.status == "unsat":
            self._store_unsat_set(self._unsat, self._unsat_index,
                                  self._max_unsat_sets, key, constraints,
                                  domains)
        trace_store(self.trace, result.status, constraints)

    def store_core(self, constraints, domains):
        """Record a minimal conflicting conjunct set (the subsumption
        layer's cross-subtree tier).

        The caller has proved ``constraints`` UNSAT and minimized it by
        greedy deletion; any future query containing it (under no-wider
        domains) is refuted without a solver call.  Goes through the
        same fault seam and trace events as a plain store.
        """
        injector = fault_points.ACTIVE
        if injector is not None:
            injector.cache_access()
        key = self.query_key(constraints, domains)
        self._store_unsat_set(self._cores, self._core_index,
                              self._max_cores, key, constraints, domains)
        trace_store(self.trace, "unsat-core", constraints)

    @staticmethod
    def _store_unsat_set(store, index, bound, key, constraints, domains):
        cached_domains = {
            var: tuple(domains.get(var, _DEFAULT_DOMAIN))
            for c in constraints for var in c.variables()
        }
        if key in store:
            store.move_to_end(key)
            return
        store[key] = (key[1], cached_domains)
        index.setdefault(_smallest_key(key[1]), []).append(key)
        while len(store) > bound:
            evicted_key, (evicted_cons, _domains) = store.popitem(last=False)
            bucket_key = _smallest_key(evicted_cons)
            bucket = index.get(bucket_key)
            if bucket is not None:
                try:
                    bucket.remove(evicted_key)
                except ValueError:  # pragma: no cover — index invariant
                    pass
                if not bucket:
                    del index[bucket_key]

    def clear(self):
        """Drop every entry (the self-heal after detected corruption).

        Losing the cache costs only re-derived solver calls, never
        answers: every tier reproduces verdicts the solver would give,
        so an empty cache is always a safe state to fall back to.
        """
        self._results.clear()
        self._models.clear()
        self._unsat.clear()
        self._cores.clear()
        self._unsat_index.clear()
        self._core_index.clear()

    def __len__(self):
        return len(self._results)
