"""Solver result caching keyed on canonical constraint sets.

DART's directed search re-issues many near-identical queries: consecutive
candidate flips share almost all conjuncts, sliced queries for different
branch indices often normalize to the *same* constraint set, and restarts
revisit prefixes already decided.  This cache answers a query without a
solver call from two stores:

1. **Exact results** — the canonical key (the encoding generation, the
   set of conjunct keys with strict inequalities normalized to
   non-strict form, and the domains of their variables) was decided
   before; the stored result is returned verbatim.
2. **Refutations** — one entry per proved-UNSAT query: the *minimal*
   conflicting conjunct set extracted from it by greedy deletion (see
   :func:`repro.dart.solve._extract_core`) when extraction shrank it,
   otherwise the query itself.  An entry contained in a later query
   refutes it, under domains no wider than the entry's: the set alone
   is already unsatisfiable, and adding conjuncts or tightening domains
   never repairs that.  The entry's tag names the hit's tier —
   :data:`UNSAT_CORE` for an extracted core (cross-subtree subsumption),
   :data:`UNSAT_SUPERSET` for a whole query — so the caller counts each
   in its own counter.

The refutation store has a **smallest-conjunct-key index**: every entry
is bucketed under its lexicographically smallest conjunct key, and a
lookup only scans buckets whose key appears in the query — a subset's
smallest element is necessarily one of the query's elements, so the
pruning can never miss a hit the full linear scan would find (pinned by
a property test), while misses stop costing O(cache size).

Only decided results (sat/unsat) are stored; ``unknown`` is a node-budget
artifact that an escalated retry may overturn, so caching it would make
incompleteness sticky.  Both stores are bounded LRU so a long session's
memory stays flat.

Soundness: every answer is one the solver itself would have produced —
exact hits replay a prior verdict for a canonically equal query, and
refutations rely on monotonicity (a superset of an unsatisfiable set
under no-wider domains is unsatisfiable).  The cache can therefore never
steer the search somewhere the solver would not have.

With a :class:`repro.obs.trace.TraceBus` attached (the ``trace``
attribute, set by the runner), each lookup/store emits an event carrying
the tier (or miss) and the verdict.  The cache reads no clock: the
caller (:func:`repro.dart.solve.solve_with_retry`) charges every access
to the session's ``cache`` layer.

Under ``jobs>1`` each pool worker's cache is a
:class:`repro.solver.shared.SharedCacheClient` — this cache, emptied
before every work item, whose local misses ask a parent-side server that
shares exact results across workers (the layering keeps every worker
result a pure function of its payload, which the pool's determinism
argument in docs/PARALLELISM.md rests on).
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


def _fault_seam():
    """Probe the ``cache.corrupt`` fault (simulated internal corruption).

    The engine (``solve_with_retry``) self-heals by clearing the cache
    and treating the access as a miss.
    """
    injector = fault_points.ACTIVE
    if injector is not None:
        injector.cache_access()


def _trace_store(trace, verdict, constraints):
    """Emit one ``cache_store`` event."""
    if trace is not None and trace.enabled:
        trace.emit(tr.CACHE_STORE, verdict=verdict,
                   constraints=len(constraints))


def _smallest_key(cons_keys):
    """The bucket key of a refutation entry: its smallest conjunct key.

    Conjunct keys are heterogeneous tuples (plain vs. widened/tagged),
    so ``repr`` provides the total order — any deterministic one works,
    as long as store and lookup agree.
    """
    return min(cons_keys, key=repr)


class SolverResultCache:
    """Bounded cache of solver verdicts for normalized constraint sets."""

    def __init__(self, max_results=4096, max_refutations=512):
        #: Optional TraceBus; when attached and enabled, lookups and
        #: stores emit cache_lookup / cache_store events.
        self.trace = None
        #: query key -> SolverResult (exact results).
        self._results = OrderedDict()
        #: proved-UNSAT query key -> (refuting conjunct key set,
        #: {var: (lo, hi)}, tier tag).
        self._refutations = OrderedDict()
        #: Smallest-conjunct-key index over the refutations: bucket key
        #: -> list of store keys, maintained through LRU eviction and
        #: clear().
        self._index = {}
        self._max_results = max_results
        self._max_refutations = max_refutations

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
        :data:`EXACT`, :data:`UNSAT_CORE`, :data:`UNSAT_SUPERSET`.
        """
        hit = self._lookup(constraints, domains)
        trace = self.trace
        if trace is not None and trace.enabled:
            trace.emit(tr.CACHE_LOOKUP,
                       tier=hit[1] if hit is not None else None,
                       verdict=hit[0].status if hit is not None else None,
                       constraints=len(constraints))
        return hit

    def _lookup(self, constraints, domains):
        _fault_seam()
        key = self.query_key(constraints, domains)
        result = self._results.get(key)
        if result is not None:
            self._results.move_to_end(key)
            return result, EXACT
        return self._refute(key[1], domains)

    def _refute(self, cons_keys, domains):
        """The refutation store's subset test, index-pruned.

        An entry contained in the query refutes it; the hit's tier is
        the entry's tag.  Candidates come from the buckets of the
        query's own conjunct keys: any subset's smallest key is one of
        the query's keys, so no hit the full scan would find is skipped.
        Bucket keys are visited in sorted order — conjunct keys contain
        strings, so raw frozenset order would vary with hash
        randomization and make LRU touch order (hence eviction, hence
        counters) irreproducible across interpreter runs.
        """
        refutations = self._refutations
        for bucket_key in sorted(cons_keys, key=repr):
            for store_key in self._index.get(bucket_key, ()):
                cached_cons, cached_domains, tier = refutations[store_key]
                if not cached_cons <= cons_keys:
                    continue
                # The cached refutation holds under domains at least as
                # wide as the query's for every variable it constrains.
                for var, (lo, hi) in cached_domains.items():
                    qlo, qhi = domains.get(var, _DEFAULT_DOMAIN)
                    if qlo < lo or qhi > hi:
                        break
                else:
                    refutations.move_to_end(store_key)
                    return SolverResult(UNSAT), tier
        return None

    # -- store --------------------------------------------------------------

    def store(self, constraints, domains, result):
        """Record a decided result; ``unknown`` is never cached."""
        if result.status not in (SAT, UNSAT):
            return
        _fault_seam()
        self._remember(constraints, domains, result)
        _trace_store(self.trace, result.status, constraints)

    def _remember(self, constraints, domains, result):
        """Store a decided result: the exact entry and, for UNSAT, the
        query's refutation entry (unless it already has one)."""
        key = self.query_key(constraints, domains)
        results = self._results
        results[key] = result
        results.move_to_end(key)
        while len(results) > self._max_results:
            results.popitem(last=False)
        if result.status == UNSAT and key not in self._refutations:
            self._refute_with(key, key[1], constraints, domains,
                              UNSAT_SUPERSET)

    def store_core(self, core, domains, query=None):
        """Record the minimal conflicting set extracted from ``query``.

        The caller has proved ``query`` UNSAT and minimized it to
        ``core`` by greedy deletion.  The core replaces the query's own
        refutation entry — it refutes every query the whole one does,
        and more — so each proved-UNSAT query keeps one entry.  Without
        ``query`` the core is its own entry.  Goes through the same
        fault seam and trace events as a plain store.
        """
        _fault_seam()
        cons = frozenset(self.canonical_cmp_key(c) for c in core)
        key = self.query_key(core if query is None else query, domains)
        self._refute_with(key, cons, core, domains, UNSAT_CORE)
        _trace_store(self.trace, UNSAT_CORE, core)

    def _refute_with(self, key, cons, constraints, domains, tier):
        """Make ``cons`` (the keys of ``constraints``) the refutation
        entry of query ``key``, tagged ``tier``."""
        refutations = self._refutations
        if key in refutations:
            self._unindex(key, refutations[key][0])
        refutations[key] = (cons, {
            var: tuple(domains.get(var, _DEFAULT_DOMAIN))
            for c in constraints for var in c.variables()
        }, tier)
        refutations.move_to_end(key)
        self._index.setdefault(_smallest_key(cons), []).append(key)
        while len(refutations) > self._max_refutations:
            evicted_key, entry = refutations.popitem(last=False)
            self._unindex(evicted_key, entry[0])

    def _unindex(self, key, cons):
        bucket_key = _smallest_key(cons)
        bucket = self._index[bucket_key]
        bucket.remove(key)
        if not bucket:
            del self._index[bucket_key]

    def clear(self):
        """Drop every entry (the self-heal after detected corruption).

        Losing the cache costs only re-derived solver calls, never
        answers: every entry reproduces verdicts the solver would give,
        so an empty cache is always a safe state to fall back to.
        """
        self._results.clear()
        self._refutations.clear()
        self._index.clear()

    def __len__(self):
        return len(self._results)
