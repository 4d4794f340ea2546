"""``solve_path_constraint`` (Fig. 5) with pluggable branch selection.

After a run completes, the deepest conditional whose other branch has not
been explored (``done == 0``) is selected; its conjunct is negated and the
path-constraint prefix up to it is handed to the solver.  On success the
truncated stack (with the branch bit flipped) and the updated input vector
``IM + IM'`` drive the next run.  On UNSAT the next candidate branch is
tried — the paper's recursive descent; on UNKNOWN additionally
``all_linear`` is cleared, because prover incompleteness costs the
termination guarantee exactly like a non-linear expression does.

Footnote 4 of the paper notes the flipped branch "could be selected using a
different strategy, e.g., randomly or in a breadth-first manner"; the
``strategy`` parameter implements all three.

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
import time

from repro.dart.independence import dedup_eligible
from repro.dart.slicing import ConstraintSlicer
from repro.obs import trace as tr
from repro.obs.clock import CACHE, SOLVER
from repro.solver.cache import SolverResultCache
from repro.solver.core import UNKNOWN, SolverResult
from repro.symbolic.widen import (
    WidenedCmp,
    flatten_constraints,
    negation_candidates,
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
        if stats is not None:
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
    if stats is not None:
        stats.cache_failures += 1
    if trace is not None and trace.enabled:
        trace.emit(tr.CACHE_FAILED, error=type(exc).__name__,
                   detail=str(exc)[:200])
    try:
        cache.clear()
    except Exception:
        pass


def solve_with_retry(solver, constraints, domains, stats=None,
                     escalation=1, cache=None, trace=None, subsume=False):
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

    Observability: actual solver calls are timed into the
    ``solver_latency_s`` histogram and — when ``trace`` is an enabled
    bus — a ``solver_answered`` event carries verdict, wall time and
    (sliced) query size.  The cache emits its own lookup/store events
    (see :mod:`repro.solver.cache`).  With the stats' layer clock on,
    cache accesses run in the ``cache`` layer and solver calls in the
    ``solver`` layer, nested inside the caller's ``plan``.
    """
    clock = stats.phases if stats is not None else None
    timed = clock is not None and clock.enabled
    cache_usable = cache is not None
    if cache_usable:
        if timed:
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
        if timed:
            clock.leave(prev)
        if hit is not None:
            result, tier = hit
            if tier == "unsat-core" and trace is not None \
                    and trace.enabled:
                trace.emit(tr.FLIP_SUBSUMED,
                           constraints=len(constraints))
            if stats is not None:
                if tier == "exact":
                    stats.cache_hits += 1
                elif tier == "unsat-core":
                    stats.flips_subsumed_core += 1
                else:
                    stats.cache_unsat_shortcuts += 1
            return result
        if cache_usable and stats is not None:
            stats.cache_misses += 1
    escalated = False
    if timed:
        prev = clock.enter(SOLVER)
    started = time.perf_counter()
    result = _safe_solve(solver, constraints, domains, stats, trace)
    if result.status == "unknown" and escalation and escalation > 1:
        if stats is not None:
            stats.solver_retries += 1
        result = _safe_solve(
            solver, constraints, domains, stats, trace,
            node_budget=solver.node_budget * escalation,
        )
        escalated = True
        if stats is not None and result.status != "unknown":
            stats.solver_escalations += 1
    wall = time.perf_counter() - started
    if timed:
        clock.leave(prev)
    if stats is not None:
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
    if timed:
        prev = clock.enter(CACHE)
    try:
        cache.store(constraints, domains, result)
    except Exception as exc:
        _contain_cache_failure(cache, exc, stats, trace)
        cache_usable = False
    if (subsume and cache_usable and result.status == "unsat"
            and 2 <= len(constraints) <= _CORE_EXTRACT_LIMIT):
        # Core extraction is solver work, nested in the cache layer.
        if timed:
            inner = clock.enter(SOLVER)
        core = _extract_core(solver, constraints, domains, stats, trace)
        if timed:
            clock.leave(inner)
        if core is not None:
            try:
                cache.store_core(core, domains, constraints)
            except Exception as exc:
                _contain_cache_failure(cache, exc, stats, trace)
    if timed:
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


class NextRunPlan:
    """What the next execution should try: a predicted stack plus inputs."""

    __slots__ = ("stack", "im")

    def __init__(self, stack, im):
        self.stack = stack
        self.im = im


def candidate_indices(stack, strategy, rng):
    """Indices of not-yet-``done`` conditionals, in flip-attempt order.

    The strategy is validated *first*: a typo'd ``--strategy`` must fail
    on the very first call, before the candidate scan — not after a full
    pass over the stack on every solve of the session.
    """
    if strategy not in ("dfs", "bfs", "random"):
        raise ValueError("unknown strategy {!r}".format(strategy))
    pending = [
        index for index, entry in enumerate(stack) if not entry.done
    ]
    if strategy == "dfs":
        pending.reverse()
    elif strategy == "random":
        rng.shuffle(pending)
    return pending


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


def _query_for(j, negated, slicer, non_none, count_before, stats):
    """The solver query for flipping conditional ``j`` (sliced or full)."""
    if slicer is not None:
        query = slicer.slice(j, negated)
        if stats is not None:
            stats.sliced_conjuncts_dropped += \
                count_before[j] + 1 - len(query)
    else:
        query = non_none[: count_before[j]]
        query.append(negated)
    # Widened conjuncts carry window guards that the solver's
    # normalization (which reads only op/lin) would silently ignore;
    # expand them into plain conjuncts here — after slicing has grouped
    # and the accounting above has counted whole conjuncts.
    return flatten_constraints(query)


def _negations_of(conjunct, domains):
    """Ordered negation candidates for flipping ``conjunct``.

    A plain conjunct has exactly one.  A widened conjunct's anchored
    negation only covers this run's wrap window, so the feasible windows
    are enumerated (see :func:`repro.symbolic.widen.negation_candidates`);
    the second element is False when the enumeration was truncated and an
    all-UNSAT answer must not count as an infeasibility proof.
    """
    if isinstance(conjunct, WidenedCmp):
        return negation_candidates(conjunct, domains)
    return [conjunct.negate()], True


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


def solve_path_constraint(record, stack, im, solver, strategy, rng, flags,
                          stats=None, escalation=1, cache=None,
                          slicing=True, trace=None, subsume=False):
    """Pick a branch to flip and solve for inputs reaching it.

    ``record`` is the completed run's :class:`PathRecord` (constraints),
    ``stack`` the finished (branch, done) list, ``im`` the run's input
    vector.  Returns a :class:`NextRunPlan`, or None when every branch
    along the path is exhausted (this directed search is over).
    """
    constraints = record.constraints
    domains = im.domains()
    non_none, count_before = _prefix_index(constraints)
    slicer = ConstraintSlicer(constraints, _assignment_of(im)) \
        if slicing else None
    for j in candidate_indices(stack, strategy, rng):
        conjunct = constraints[j]
        if conjunct is None:
            # Concrete-fallback predicate: not flippable by solving.  Its
            # other branch is only reachable through different earlier
            # choices (or not at all).  Mark it done so it is not
            # re-examined on every later solve with the same prefix.
            stack[j].done = True
            continue
        negations, exhaustive = _negations_of(conjunct, domains)
        if stats is not None:
            stats.flips_attempted += 1
        all_unsat = True
        plan = None
        for windex, negated in enumerate(negations):
            query = _query_for(j, negated, slicer, non_none,
                               count_before, stats)
            if windex == 0 and trace is not None and trace.enabled:
                trace.emit(tr.CONJUNCT_NEGATED, index=j,
                           prefix=count_before[j], query=len(query),
                           windows=len(negations))
            result = solve_with_retry(solver, query, domains, stats,
                                      escalation, cache, trace, subsume)
            if result.is_sat:
                if stats is not None:
                    stats.flips_sat += 1
                next_stack = [entry.copy() for entry in stack[: j + 1]]
                next_stack[j] = next_stack[j].flipped()
                plan = NextRunPlan(next_stack, im.updated(result.model))
                break
            if result.status == "unknown":
                # Prover incompleteness: same effect as a non-linear
                # predicate.
                all_unsat = False
                flags.clear_linear()
        if plan is not None:
            return plan
        if all_unsat:
            if exhaustive:
                # Proved UNSAT (across every wrap window, for widened
                # conjuncts): the other branch is infeasible under this
                # prefix, which is permanent for this branch history —
                # mark it done so later solves with the same prefix skip
                # it.  (Fig. 5 re-derives the UNSAT on every call; this
                # is a pure memoization.)
                stack[j].done = True
            else:
                # Window enumeration truncated: UNSAT here is not a
                # proof.  Give up on this branch but record the lost
                # guarantee like any other prover incompleteness.
                stack[j].done = True
                flags.clear_linear()
    return None


def expand_worklist_children(stack, constraints, im, bound, solver, flags,
                             stats=None, escalation=1, cache=None,
                             slicing=True, trace=None, subsume=False,
                             independence=None):
    """Generational expansion: children for indices ``bound..len(stack)``.

    The worklist engines (serial and parallel) spawn one pending input
    vector per newly discovered flippable branch; this helper owns that
    loop so both engines share the slicing/caching fast path.  Returns a
    list of ``(child_stack, child_im, child_bound, fingerprint)``
    4-tuples in branch order; ``fingerprint`` is the dedup key of
    :func:`_child_fingerprint` when ``subsume``, slicing and the
    session's ``independence`` classes (see
    :func:`repro.dart.independence.coupling_classes`) all permit it,
    else None — children without a fingerprint are never deduped.
    """
    domains = im.domains()
    non_none, count_before = _prefix_index(constraints)
    assignment = _assignment_of(im)
    slicer = ConstraintSlicer(constraints, assignment) \
        if slicing else None
    children = []
    for j in range(bound, len(stack)):
        conjunct = constraints[j]
        if conjunct is None:
            continue
        negations, exhaustive = _negations_of(conjunct, domains)
        if stats is not None:
            stats.flips_attempted += 1
        if not exhaustive:
            flags.clear_linear()
        for windex, negated in enumerate(negations):
            query = _query_for(j, negated, slicer, non_none,
                               count_before, stats)
            if windex == 0 and trace is not None and trace.enabled:
                trace.emit(tr.CONJUNCT_NEGATED, index=j,
                           prefix=count_before[j], query=len(query),
                           windows=len(negations))
            result = solve_with_retry(solver, query, domains, stats,
                                      escalation, cache, trace, subsume)
            if result.is_sat:
                if stats is not None:
                    stats.flips_sat += 1
                child = [entry.copy() for entry in stack[: j + 1]]
                child[j] = child[j].flipped()
                fp = None
                if subsume and slicer is not None \
                        and independence is not None:
                    query_vars = set()
                    for c in query:
                        query_vars |= c.variables()
                    if dedup_eligible(query_vars, independence):
                        fp = _child_fingerprint(query, query_vars,
                                                assignment, domains)
                children.append((child, im.updated(result.model), j + 1,
                                 fp))
                break
            if result.status == "unknown":
                flags.clear_linear()
    return children
