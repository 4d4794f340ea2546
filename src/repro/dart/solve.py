"""One planner for every search order: Fig. 5 and footnote 4's orders.

After a run completes, the planner walks an index sequence over its
branch stack; for each conditional it negates the conjunct, hands the
path-constraint prefix up to it to the solver, and on success plans a
child: the truncated stack (with the branch bit flipped) and the updated
input vector ``IM + IM'``.  The two entry points differ only in that
sequence and in how many children they keep:

* :func:`solve_path_constraint` (Fig. 5) walks the not-yet-``done``
  conditionals deepest first (:func:`candidate_indices`) and stops at
  the first SAT flip — on UNSAT the next candidate is tried, the paper's
  recursive descent;
* :func:`expand_worklist_children` walks every newly discovered
  conditional, ``bound..len(stack)``, and keeps every child.  Footnote 4
  notes the flipped branch "could be selected using a different
  strategy, e.g., randomly or in a breadth-first manner"; those orders
  are not a different choice of branch here but a different order of
  runs — the session drains the children in FIFO or random order.

Both return children in one shape, ``(stack, im, bound, fingerprint)``,
so the session loop treats a Fig. 5 plan as a one-item worklist.  The
shared loop also owns the one rule for what a flip costs ``all_linear``
(see :func:`_plan`).

Two throughput layers plug in here (see DESIGN.md, "Performance"):

* **Constraint slicing** (:mod:`repro.dart.slicing`): the solver receives
  only the variable-sharing group of the negated conjunct instead of the
  whole prefix; untouched groups keep their current ``IM`` values, which
  already satisfy them.
* **Result caching** (:mod:`repro.solver.cache`): canonically equal
  queries — frequent once slicing shrinks them — are answered without a
  solver call, as are supersets of recorded UNSAT cores and of whole
  proved-UNSAT queries.

The caller runs a planning call inside the session's ``plan`` layer
(:mod:`repro.obs.clock`); :func:`solve_with_retry` enters the ``cache``
layer around each cache access and the ``solver`` layer around solver
calls and core extraction, so each is charged exclusively to its own
layer.
"""

import hashlib

from repro.dart.independence import dedup_eligible
from repro.dart.pathcond import DONE
from repro.dart.slicing import ConstraintSlicer
from repro.obs import trace as tr
from repro.obs.clock import CACHE, SOLVER
from repro.solver.cache import SolverResultCache
from repro.solver.core import BUDGET_ESCALATION, UNKNOWN, SolverResult
from repro.symbolic.widen import (
    WidenedCmp,
    flatten_constraints,
    negation_candidates,
    one_window,
)


def _safe_solve(solver, constraints, domains, stats, trace, **kwargs):
    """One solver call with the failure contained to an UNKNOWN verdict.

    A solver that *crashes* on a flip must not take the campaign down —
    the flip is treated exactly like prover incompleteness: the caller
    clears ``all_linear`` and the search falls back to the paper's
    random-branch strategy (random restarts keep the session honest and
    productive).  The failure is counted (``solver_failures``) and traced
    so the degradation is observable, never silent.
    """
    try:
        return solver.solve(constraints, domains, **kwargs)
    except Exception as exc:
        stats.solver_failures += 1
        if trace is not None and trace.enabled:
            trace.emit(tr.SOLVER_FAILED, error=type(exc).__name__,
                       detail=str(exc)[:200],
                       constraints=len(constraints))
        return SolverResult(UNKNOWN)


def _contain_cache_failure(cache, exc, stats, trace):
    """Self-heal a corrupted result cache: count, trace, clear.

    Clearing is always safe — the cache only reproduces verdicts the
    solver would give, so an empty cache merely costs re-derived calls.
    The failed access is then treated as a miss (lookup) or dropped
    (store).
    """
    stats.cache_failures += 1
    if trace is not None and trace.enabled:
        trace.emit(tr.CACHE_FAILED, error=type(exc).__name__,
                   detail=str(exc)[:200])
    try:
        cache.clear()
    except Exception:
        pass


def solve_with_retry(solver, constraints, domains, stats, escalation=1,
                     cache=None, trace=None, subsume=False):
    """One *logical* solver call with caching and budget resilience.

    When ``cache`` is set, the query is first answered from it (exact hit,
    or a refutation by a recorded UNSAT core or whole UNSAT query); a
    cache answer costs no solver call and leaves ``solver_calls``
    untouched — the cache counters record it instead.  On a miss, when
    the first attempt returns ``unknown`` (node budget exhausted, not a
    proof either way) and ``escalation`` > 1, the call is retried once
    with the node budget multiplied by ``escalation`` before the caller
    degrades to the random-testing fallback.  Statistics count the
    logical call once (so ``solver_calls == sat + unsat + unknown`` stays
    an invariant) plus the retry/escalation counters; decided results are
    stored back into the cache.

    With ``subsume`` set (the subsumption layer, ``--no-subsumption``
    ablates it), a real UNSAT answer is additionally minimized by greedy
    deletion (:func:`_extract_core`) and the core replaces the query as
    its refutation entry, so future flips *containing* the core are
    refuted without a solver call across subtrees; such refutations
    count as ``flips_subsumed_core`` and emit a ``flip_subsumed`` trace
    event (refutations by a whole query count as
    ``cache_unsat_shortcuts``).

    Observability: on the stats' layer clock, cache accesses run in the
    ``cache`` layer and solver calls in the ``solver`` layer, nested
    inside the caller's ``plan``.  An actual solver call's ``solver``
    slice is its wall time: it goes into the ``solver_latency_s``
    histogram and — when ``trace`` is an enabled bus — into a
    ``solver_answered`` event with the verdict and (sliced) query size.
    The cache emits its own lookup/store events (see
    :mod:`repro.solver.cache`).
    """
    clock = stats.phases
    cache_usable = cache is not None
    if cache_usable:
        prev = clock.enter(CACHE)
        try:
            hit = cache.lookup(constraints, domains)
        except Exception as exc:
            # Corrupted cache state: self-heal and fall through to a
            # real solver call; skip the store below (the cache just
            # proved untrustworthy for this query).
            _contain_cache_failure(cache, exc, stats, trace)
            cache_usable = False
            hit = None
        clock.leave(prev)
        if hit is not None:
            result, tier = hit
            if tier == "unsat-core" and trace is not None \
                    and trace.enabled:
                trace.emit(tr.FLIP_SUBSUMED,
                           constraints=len(constraints))
            if tier == "exact":
                stats.cache_hits += 1
            elif tier == "unsat-core":
                stats.flips_subsumed_core += 1
            else:
                stats.cache_unsat_shortcuts += 1
            return result
        if cache_usable:
            stats.cache_misses += 1
    escalated = False
    prev = clock.enter(SOLVER)
    result = _safe_solve(solver, constraints, domains, stats, trace)
    if result.status == "unknown" and escalation and escalation > 1:
        stats.solver_retries += 1
        result = _safe_solve(
            solver, constraints, domains, stats, trace,
            node_budget=solver.node_budget * escalation,
        )
        escalated = True
        if result.status != "unknown":
            stats.solver_escalations += 1
    wall = clock.leave(prev) / 1e9
    stats.solver_calls += 1
    stats.solver_constraints += len(constraints)
    stats.solver_latency.observe(wall)
    if result.status == "sat":
        stats.solver_sat += 1
    elif result.status == "unsat":
        stats.solver_unsat += 1
    else:
        stats.solver_unknown += 1
    if trace is not None and trace.enabled:
        trace.emit(tr.SOLVER_ANSWERED, verdict=result.status,
                   wall_s=round(wall, 6), constraints=len(constraints),
                   escalated=escalated)
    if not cache_usable:
        return result
    prev = clock.enter(CACHE)
    try:
        cache.store(constraints, domains, result)
    except Exception as exc:
        _contain_cache_failure(cache, exc, stats, trace)
        cache_usable = False
    if (subsume and cache_usable and result.status == "unsat"
            and 2 <= len(constraints) <= _CORE_EXTRACT_LIMIT):
        # Core extraction is solver work, nested in the cache layer.
        inner = clock.enter(SOLVER)
        core = _extract_core(solver, constraints, domains, stats, trace)
        clock.leave(inner)
        if core is not None:
            try:
                cache.store_core(core, domains, constraints)
            except Exception as exc:
                _contain_cache_failure(cache, exc, stats, trace)
    clock.leave(prev)
    return result


#: Greedy core extraction probes up to O(n^2) solver calls; sliced UNSAT
#: groups are small, and past this size the probes would cost more than
#: the recorded core could ever save.
_CORE_EXTRACT_LIMIT = 8


def _extract_core(solver, constraints, domains, stats, trace):
    """Greedy-deletion minimization of a proved-UNSAT conjunct set.

    Drops one conjunct at a time, keeping the remainder only while it is
    still UNSAT.  The probes go through :func:`_safe_solve` but are *not*
    logical solver calls: they are not counted in ``solver_calls`` and
    emit no ``solver_answered`` events, so the flip funnel's
    ``solver_calls == sat + unsat + unknown`` invariant is untouched (a
    crashing probe still counts ``solver_failures``).  An ``unknown``
    probe conservatively keeps its conjunct.  Returns the minimized
    list, or None when nothing could be removed — the set is already
    minimal and stays its own refutation entry.
    """
    core = list(constraints)
    removed = False
    index = 0
    while len(core) > 1 and index < len(core):
        probe = core[:index] + core[index + 1:]
        if _safe_solve(solver, probe, domains, stats, trace).status \
                == "unsat":
            core = probe
            removed = True
        else:
            index += 1
    return core if removed else None


def candidate_indices(stack):
    """Indices of not-yet-``done`` conditionals, deepest first (Fig. 5)."""
    return [index for index in range(len(stack) - 1, -1, -1)
            if not stack[index] & DONE]


def _prefix_index(constraints):
    """Per-call invariants of the candidate loop, computed once.

    Returns ``(non_none, count_before)`` where ``non_none`` is the
    filtered conjunct list in order and ``count_before[i]`` is how many of
    them lie strictly before index ``i`` — so the unsliced prefix for
    candidate ``j`` is ``non_none[:count_before[j]]`` with no per-candidate
    rebuild of the whole list.
    """
    non_none = []
    count_before = [0] * (len(constraints) + 1)
    for index, constraint in enumerate(constraints):
        count_before[index] = len(non_none)
        if constraint is not None:
            non_none.append(constraint)
    count_before[len(constraints)] = len(non_none)
    return non_none, count_before


def _assignment_of(im):
    """The run's inputs as an ordinal -> value map (for the slicer's
    faithfulness screen)."""
    return {ordinal: slot.value for ordinal, slot in enumerate(im)}


def _child_fingerprint(query, query_vars, assignment, domains):
    """Canonical future fingerprint of a dedup-*eligible* worklist child.

    Only computed when the session's static independence analysis
    (:mod:`repro.dart.independence`) proved the sliced query's variable
    set closed under input coupling — every class a query variable
    belongs to lies inside ``query_vars``.  Under that guarantee the
    fingerprint needs exactly what the child's future can observe about
    those inputs: the sliced flip query in canonical form (the solver is
    deterministic per query, so fingerprint-equal flips receive the same
    model), the query variables' domains, and the input-vector length
    (ties fresh-ordinal draws to the same alignment).  Inputs *outside*
    the query belong to classes no predicate connects to it: their
    parent-supplied values steer futures the parent's own run and its
    other children already cover.  The engines add the error salt and
    the completeness-flags guard at insert time; the config-invariance
    oracle pins that the final error set survives the pruning.
    """
    canon = SolverResultCache.canonical_cmp_key
    payload = (
        "v3",
        sorted(repr(canon(c)) for c in query),
        sorted((var,) + tuple(domains.get(var, (None, None)))
               for var in query_vars),
        len(assignment),
    )
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()


def _plan(constraints, stack, im, indices, solver, flags, stats, cache,
          slicing, trace, subsume, first_only, independence=None):
    """The flip loop both search orders share.

    Tries to flip each conditional of ``indices`` in turn and returns the
    children ``(stack, im, bound, fingerprint)`` of the flips the solver
    satisfies, in ``indices`` order — only the first when ``first_only``.
    A child is fingerprinted for worklist dedup
    (:func:`_child_fingerprint`) only when ``subsume``, slicing and the
    session's ``independence`` classes (see
    :func:`repro.dart.independence.coupling_classes`) all permit it.

    A plain conjunct has one negation; a widened one is tried in every
    wrap window the input domains allow (see
    :func:`repro.symbolic.widen.negation_candidates`) until one is SAT.
    This loop is the one place that decides what a flip costs
    ``all_linear``: an UNKNOWN attempt clears it, as a non-linear
    predicate would, and a flip with no SAT window proves the flipped
    branch infeasible only when its window enumeration was exhaustive
    and no widened conjunct of its queries' prefixes can leave its
    anchoring run's wrap window (:func:`repro.symbolic.widen.one_window`):
    that conjunct's guards admit only models in that window, and an UNSAT
    inside it shows the branch unexplored, not unreachable.  Otherwise
    the flag is cleared too.
    """
    domains = im.domains()
    non_none, count_before = _prefix_index(constraints)
    assignment = _assignment_of(im)
    slicer = ConstraintSlicer(constraints, assignment) \
        if slicing else None
    fingerprinted = subsume and slicer is not None \
        and independence is not None
    children = []
    for j in indices:
        conjunct = constraints[j]
        if conjunct is None:
            # Concrete-fallback predicate: not flippable by solving.  Its
            # other branch is only reachable through different earlier
            # choices (or not at all).
            continue
        if isinstance(conjunct, WidenedCmp):
            negations, exhaustive = negation_candidates(conjunct, domains)
        else:
            negations, exhaustive = [conjunct.negate()], True
        stats.flips_attempted += 1
        queries = []
        unknown = False
        model = None
        for negated in negations:
            if slicer is not None:
                query = slicer.slice(j, negated)
                stats.sliced_conjuncts_dropped += \
                    count_before[j] + 1 - len(query)
            else:
                query = non_none[: count_before[j]]
                query.append(negated)
            queries.append(query)
            # Widened conjuncts carry window guards that the solver's
            # normalization (which reads only op/lin) would silently
            # ignore; expand them into plain conjuncts here — after
            # slicing has grouped and the accounting above has counted
            # whole conjuncts.
            flat = flatten_constraints(query)
            if len(queries) == 1 and trace is not None and trace.enabled:
                trace.emit(tr.CONJUNCT_NEGATED, index=j,
                           prefix=count_before[j], query=len(flat),
                           windows=len(negations))
            result = solve_with_retry(solver, flat, domains, stats,
                                      BUDGET_ESCALATION, cache, trace,
                                      subsume)
            if result.is_sat:
                model = result.model
                break
            if result.status == UNKNOWN:
                unknown = True
        if unknown or model is None and (not exhaustive or any(
                isinstance(c, WidenedCmp) and not one_window(c, domains)
                for query in queries for c in query[:-1])):
            flags.clear_linear()
        if model is None:
            continue
        stats.flips_sat += 1
        child = stack[: j + 1]
        child[j] ^= 1
        fingerprint = None
        if fingerprinted:
            query_vars = set()
            for c in flat:
                query_vars |= c.variables()
            if dedup_eligible(query_vars, independence):
                fingerprint = _child_fingerprint(flat, query_vars,
                                                 assignment, domains)
        children.append((child, im.updated(model), j + 1, fingerprint))
        if first_only:
            break
    return children


def solve_path_constraint(constraints, stack, im, solver, flags, stats,
                          cache=None, slicing=True, trace=None,
                          subsume=False):
    """Fig. 5: flip the deepest not-yet-``done`` branch the solver can.

    ``constraints`` is the completed run's path constraint, ``stack`` its
    finished branch stack, ``im`` the run's input vector.  Returns the
    next run as a child tuple ``(stack, im, bound, None)`` — the truncated
    stack with its last bit flipped, ``IM + IM'``, the index past the
    flip, and no dedup fingerprint — or None when every branch along the
    path is exhausted (this directed search is over).
    """
    children = _plan(constraints, stack, im, candidate_indices(stack),
                     solver, flags, stats, cache, slicing, trace, subsume,
                     first_only=True)
    return children[0] if children else None


def expand_worklist_children(stack, constraints, im, bound, solver, flags,
                             stats, cache=None, slicing=True, trace=None,
                             subsume=False, independence=None):
    """Generational expansion: children for indices ``bound..len(stack)``.

    The "bfs" and "random" strategies spawn one pending input vector per
    newly discovered flippable branch (the parent already enumerated
    everything shallower).  Returns the children in branch order; see
    :func:`_plan` for when one carries a dedup fingerprint — children
    without one are never deduped.
    """
    return _plan(constraints, stack, im, range(bound, len(stack)), solver,
                 flags, stats, cache, slicing, trace, subsume,
                 first_only=False, independence=independence)
