"""Result and report types for DART and random-testing sessions.

Session statistics are no longer an ad-hoc bag of ints: every counter of
:class:`RunStats` is an instrument in a
:class:`repro.obs.metrics.MetricsRegistry` (attribute access is a thin
facade), which gives all of them deterministic cross-worker merging,
JSON round-trips, and sits histograms (solver latency, path length) and
the session's :class:`repro.obs.clock.LayerClock` next to them in one
catalog — see ``docs/OBSERVABILITY.md``.
"""

import time

from repro.obs.clock import LayerClock
from repro.obs.metrics import (
    PATH_LENGTH_BUCKETS,
    SOLVER_LATENCY_BUCKETS_S,
    MetricsRegistry,
)

#: Session outcome statuses (Theorem 1's three cases, plus budget cutoffs).
BUG_FOUND = "bug_found"  # case (a): a sound error was found
COMPLETE = "complete"  # case (b): all feasible paths explored, no bug
EXHAUSTED = "exhausted"  # budget/time ran out (case (c) in the limit)
INTERRUPTED = "interrupted"  # SIGINT/SIGTERM: checkpointed partial result

#: Quarantine classifications for runs aborted at the fault boundary.
INTERNAL_ERROR = "internal-error"  # harness bug escaped the machine
RUN_TIMEOUT = "run-timeout"  # the per-run wall-clock watchdog tripped
RESOURCE_EXHAUSTED = "resource-exhausted"  # RecursionError / MemoryError
#: Quarantine-style classification for a checkpoint file that existed
#: but failed structural validation (torn write, bit rot): the session
#: reseeds from scratch instead of crashing, records one of these, and
#: no longer claims completeness — whatever the lost checkpoint held
#: (errors, quarantines) cannot be vouched for.
CHECKPOINT_CORRUPT = "checkpoint-corrupt"


def fault_fields(fault):
    """A fault's ``{"kind", "message", "location"}`` as JSON-ready data:
    the shape error reports, suite witnesses and pool results carry."""
    return {
        "kind": fault.kind,
        "message": getattr(fault, "message", str(fault)),
        "location": str(fault.location)
        if fault.location is not None else None,
    }


class ErrorReport:
    """One detected program error, with everything needed to replay it."""

    def __init__(self, fault, inputs, iteration, path=None, kinds=None):
        #: The ExecutionFault instance (abort, assertion, segfault, ...).
        self.fault = fault
        #: The input vector (list of raw values) that triggers the error.
        self.inputs = inputs
        #: 1-based run index at which the error was found.
        self.iteration = iteration
        #: Branch signature of the erroneous path, when available.
        self.path = path
        #: Input kinds aligned with ``inputs`` ("int", "ptr_choice", ...);
        #: replay needs them to rebuild slots with the right domains.
        self.kinds = list(kinds) if kinds is not None \
            else ["int"] * len(inputs)

    @property
    def kind(self):
        return self.fault.kind

    @property
    def location(self):
        return self.fault.location

    def describe(self):
        return "{} (run {}, inputs {})".format(
            self.fault.describe(), self.iteration, self.inputs
        )

    def to_dict(self):
        """A JSON-ready representation (also the checkpoint format)."""
        payload = fault_fields(self.fault)
        payload.update(
            inputs=list(self.inputs),
            kinds=list(self.kinds),
            iteration=self.iteration,
            path=list(self.path) if self.path is not None else None,
        )
        return payload

    def __repr__(self):
        return "ErrorReport({!r})".format(self.describe())


class QuarantineRecord:
    """One run aborted at the fault boundary, kept for post-mortem.

    The paper's process-per-run architecture loses at most one execution
    to a crash; this record is the in-process equivalent — the triggering
    input vector plus a classification and a compact traceback summary,
    so a harness bug (or a pathological run) costs one iteration instead
    of the session.
    """

    def __init__(self, classification, inputs, kinds, iteration, detail,
                 trace_tail=None):
        #: One of INTERNAL_ERROR, RUN_TIMEOUT, RESOURCE_EXHAUSTED.
        self.classification = classification
        #: The input vector values at the moment the run died.
        self.inputs = list(inputs)
        #: Input kinds aligned with ``inputs``.
        self.kinds = list(kinds)
        #: 1-based run index of the quarantined execution.
        self.iteration = iteration
        #: Exception type, message and innermost harness frame.
        self.detail = detail
        #: With tracing enabled: the last trace events before the fault
        #: (the ring-buffer flight recorder), or None.
        self.trace_tail = trace_tail

    def describe(self):
        return "{} (run {}, inputs {}): {}".format(
            self.classification, self.iteration, self.inputs, self.detail
        )

    def to_dict(self):
        payload = {
            "classification": self.classification,
            "inputs": list(self.inputs),
            "kinds": list(self.kinds),
            "iteration": self.iteration,
            "detail": self.detail,
        }
        if self.trace_tail is not None:
            payload["trace_tail"] = list(self.trace_tail)
        return payload

    @classmethod
    def from_dict(cls, payload):
        return cls(
            payload["classification"], payload["inputs"], payload["kinds"],
            payload["iteration"], payload["detail"],
            trace_tail=payload.get("trace_tail"),
        )

    def __repr__(self):
        return "QuarantineRecord({!r})".format(self.describe())


class PathWitness:
    """One distinct (path, error-class) execution retained for export.

    The searches discard concrete input vectors as soon as a run's
    children are expanded; with witness collection enabled
    (``DartOptions(collect_witnesses=True)`` or an ``export_suite``
    destination) the session instead keeps, for every *new* path — and
    for every error even on an already-seen path — the input vector,
    the branch signature and the per-run covered-branch set, which is
    exactly what :mod:`repro.suite` needs to emit a standalone
    replayable regression artifact.
    """

    __slots__ = ("inputs", "kinds", "path", "covered", "error", "iteration")

    def __init__(self, inputs, kinds, path, covered, error=None,
                 iteration=0):
        #: The concrete input vector (raw slot values).
        self.inputs = list(inputs)
        #: Input kinds aligned with ``inputs`` ("int", "ptr_choice", ...).
        self.kinds = list(kinds)
        #: Branch signature of the run (tuple of branch bits).
        self.path = tuple(path)
        #: (function, pc, taken) triples this single run exercised,
        #: restricted to program (non-driver) functions.
        self.covered = set(covered)
        #: {"kind", "message", "location"} when the run faulted, or None.
        self.error = error
        #: 1-based run index at which the witness was recorded.
        self.iteration = iteration

    @property
    def error_key(self):
        """The error-class key (kind, location), or None for an ok run."""
        if self.error is None:
            return None
        return (self.error["kind"], str(self.error["location"]))

    def to_dict(self):
        """JSON-ready form (also the checkpoint encoding)."""
        return {
            "inputs": list(self.inputs),
            "kinds": list(self.kinds),
            "path": list(self.path),
            "covered": sorted([entry[0], entry[1], entry[2]]
                              for entry in self.covered),
            "error": dict(self.error) if self.error is not None else None,
            "iteration": self.iteration,
        }

    @classmethod
    def from_dict(cls, payload):
        return cls(
            payload["inputs"], payload["kinds"],
            tuple(payload["path"]),
            {(entry[0], int(entry[1]), bool(entry[2]))
             for entry in payload["covered"]},
            error=payload.get("error"),
            iteration=int(payload.get("iteration", 0)),
        )

    def __repr__(self):
        what = "error {}".format(self.error["kind"]) if self.error \
            else "ok"
        return "PathWitness({}, {} branch(es), run {})".format(
            what, len(self.path), self.iteration)


class RunStats:
    """Counters accumulated over a session, backed by a metrics registry."""

    #: Integer counters (checkpointed verbatim, in this order).
    COUNTERS = (
        "iterations", "paths_explored", "solver_calls", "solver_sat",
        "solver_unsat", "solver_unknown", "solver_retries",
        "solver_escalations", "forcing_failures", "random_restarts",
        # Instruction throughput: ``instructions_executed`` counts RAM-
        # machine steps across all runs (the numerator of the
        # instructions/sec throughput metric); ``instructions_symbolic``
        # counts the subset whose result carried a symbolic expression —
        # the taint-gated slow path both execution engines share.
        "branches_executed", "instructions_executed",
        "instructions_symbolic",
        # Solver-throughput subsystem (slicing + result cache):
        # ``solver_constraints`` totals the conjuncts of *actual* solver
        # calls (avg query size = solver_constraints / solver_calls);
        # ``sliced_conjuncts_dropped`` counts prefix conjuncts slicing
        # kept away from the solver; the ``cache_*`` counters record how
        # each query was answered (hit tiers) or not (miss → real call).
        # ``cache_model_reuses`` names a retired tier and always reads 0;
        # it stays because benchmark consumers still read it.
        "solver_constraints", "sliced_conjuncts_dropped",
        "cache_hits", "cache_unsat_shortcuts", "cache_model_reuses",
        "cache_misses",
        # The branch-flip funnel (attempted -> sat -> forced -> new path):
        # ``flips_attempted`` counts conjuncts negated and queried (solver
        # or cache), ``flips_sat`` the feasible ones, ``runs_forced`` the
        # planned runs that reached their predicted path, and
        # ``runs_new_path`` the runs that discovered an unseen path.
        "flips_attempted", "flips_sat", "runs_forced", "runs_new_path",
        # The faithfulness funnel (machine-integer widening):
        # ``conjuncts_widened`` counts comparisons whose ideal-integer
        # reading misstated their own run and were rewritten through
        # run-anchored wrap quotients (repro.symbolic.widen);
        # ``conjuncts_dropped_unfaithful`` counts the last-resort drops
        # where no faithful encoding existed (clears ``all_faithful``).
        "conjuncts_widened", "conjuncts_dropped_unfaithful",
        # Robustness funnel (fault injection + recovery; see
        # docs/ROBUSTNESS.md): ``faults_injected`` counts faults the
        # chaos layer fired into this session; ``solver_failures``
        # counts solver calls that raised and were degraded to UNKNOWN
        # (the flip falls back to the random-branch strategy);
        # ``cache_failures`` counts cache accesses that raised and
        # self-healed by clearing the cache; ``checkpoint_failures``
        # counts checkpoint writes that failed without losing the prior
        # checkpoint; ``checkpoints_rejected`` counts corrupt state
        # files downgraded to a clean reseed; ``pool_retries`` counts
        # recovery rounds in which the worker pool re-dispatched the
        # items a dead worker had claimed (one round per batch of
        # simultaneous deaths, not one per item).
        "faults_injected", "solver_failures", "cache_failures",
        "checkpoint_failures", "checkpoints_rejected", "pool_retries",
        # Persistent worker pool (repro.dart.parallel):
        # ``pool_steals`` counts queued items claimed by a worker other
        # than the dispatcher's round-robin nominee (timing-dependent by
        # nature — it measures pipelining, never results);
        # ``pool_workers_lost`` counts worker processes that died and
        # were replaced.
        "pool_steals", "pool_workers_lost",
        # Regression-suite export funnel (repro.suite):
        # ``witnesses_recorded`` counts distinct (path, error-class)
        # executions whose input vectors were retained for export;
        # ``artifacts_exported`` counts artifact directories written,
        # ``artifacts_deduped`` the witnesses collapsed by an identical
        # (path fingerprint, error class) key, ``artifacts_pruned`` the
        # ok-witnesses dropped by coverage subsumption.
        "witnesses_recorded", "artifacts_exported", "artifacts_deduped",
        "artifacts_pruned",
        # Subsumption layer (docs/ALGORITHM.md, "Subsumption and
        # pruning"): ``flips_subsumed_core`` counts flip queries refuted
        # by a recorded UNSAT core they contain (cross-subtree cache
        # tier — no solver call); ``worklist_deduped`` counts children
        # dropped at worklist-insert time because a fingerprint-equal
        # entry (same future, same recorded-error salt) was already
        # enqueued this drain.
        "flips_subsumed_core", "worklist_deduped",
    )

    def __init__(self, clocked=False):
        registry = MetricsRegistry()
        self.registry = registry
        for name in self.COUNTERS:
            registry.counter(name)
        #: Wall-clock latency of actual solver calls (histogram).
        self.solver_latency = registry.histogram(
            "solver_latency_s", SOLVER_LATENCY_BUCKETS_S)
        #: Conditionals executed per completed run (histogram).
        self.path_length = registry.histogram(
            "path_length", PATH_LENGTH_BUCKETS)
        #: Pending-item frontier size (generational engines; gauge).
        self.worklist_depth = registry.gauge("worklist_depth")
        #: Items dispatched to pool workers and not yet committed
        #: (pipeline occupancy; the peak shows how full the window ran).
        self.pool_inflight = registry.gauge("pool_inflight")
        #: :func:`~repro.dart.pathcond.path_digest` of every distinct
        #: completed path (fixed width, whatever the path length).
        self.distinct_paths = set()
        self.covered_branches = set()
        #: Coverage rollup dict (BranchCoverage.to_dict()), set by the
        #: runner when it builds the result; None until then.
        self.coverage = None
        #: QuarantineRecord list — runs contained at the fault boundary.
        self.quarantined = []
        self.started_at = time.perf_counter()
        self.elapsed = 0.0
        #: Exclusive wall time per engine layer (repro.obs.clock); on
        #: for ``profile_phases`` and traced sessions.  Its window opens
        #: after ``started_at`` and closes before ``elapsed`` is read, so
        #: the layers never sum past the session's wall time.
        self.phases = LayerClock(clocked)

    def finish(self):
        self.phases.stop()
        self.elapsed = time.perf_counter() - self.started_at

    def note_path(self, digest):
        """Record one completed path, given its
        :func:`~repro.dart.pathcond.path_digest`; returns True when it
        is new."""
        self.paths_explored += 1
        if digest in self.distinct_paths:
            return False
        self.distinct_paths.add(digest)
        self.runs_new_path += 1
        return True

    @property
    def cache_answered(self):
        """Queries answered by the cache (exact hits and refutations)."""
        return (self.cache_hits + self.flips_subsumed_core
                + self.cache_unsat_shortcuts)

    @property
    def cache_hit_rate(self):
        """Fraction of cached-solver queries answered without a solve."""
        queries = self.cache_answered + self.cache_misses
        return self.cache_answered / queries if queries else 0.0

    @property
    def avg_constraints_per_call(self):
        """Mean conjunct count of the queries that reached the solver."""
        if not self.solver_calls:
            return 0.0
        return self.solver_constraints / self.solver_calls

    def summary(self):
        summary = {
            "iterations": self.iterations,
            "paths": self.paths_explored,
            "distinct_paths": len(self.distinct_paths),
            "solver_calls": self.solver_calls,
            "solver_sat": self.solver_sat,
            "solver_unsat": self.solver_unsat,
            "solver_unknown": self.solver_unknown,
            "solver_retries": self.solver_retries,
            "solver_escalations": self.solver_escalations,
            "avg_constraints_per_call":
                round(self.avg_constraints_per_call, 2),
            "sliced_conjuncts_dropped": self.sliced_conjuncts_dropped,
            "cache_hits": self.cache_hits,
            "flips_subsumed_core": self.flips_subsumed_core,
            "cache_unsat_shortcuts": self.cache_unsat_shortcuts,
            "cache_model_reuses": self.cache_model_reuses,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "forcing_failures": self.forcing_failures,
            "random_restarts": self.random_restarts,
            "branches": self.branches_executed,
            "steps": self.instructions_executed,
            "instructions_executed": self.instructions_executed,
            "instructions_symbolic": self.instructions_symbolic,
            "quarantined": len(self.quarantined),
            "elapsed_s": round(self.elapsed, 4),
            "flips_attempted": self.flips_attempted,
            "flips_sat": self.flips_sat,
            "runs_forced": self.runs_forced,
            "runs_new_path": self.runs_new_path,
            "conjuncts_widened": self.conjuncts_widened,
            "conjuncts_dropped_unfaithful":
                self.conjuncts_dropped_unfaithful,
            "faults_injected": self.faults_injected,
            "solver_failures": self.solver_failures,
            "cache_failures": self.cache_failures,
            "checkpoint_failures": self.checkpoint_failures,
            "checkpoints_rejected": self.checkpoints_rejected,
            "pool_retries": self.pool_retries,
            "pool_steals": self.pool_steals,
            "pool_workers_lost": self.pool_workers_lost,
            "witnesses_recorded": self.witnesses_recorded,
            "artifacts_exported": self.artifacts_exported,
            "artifacts_deduped": self.artifacts_deduped,
            "artifacts_pruned": self.artifacts_pruned,
            "worklist_deduped": self.worklist_deduped,
            "histograms": {
                "solver_latency_s": self.solver_latency.to_dict(),
                "path_length": self.path_length.to_dict(),
            },
        }
        if self.phases.enabled:
            summary["phases"] = self.phases.snapshot()
        if self.coverage is not None:
            summary["coverage"] = self.coverage
        return summary


def _counter_property(name):
    """Attribute facade over the registry: ``stats.solver_calls += 1``
    reads and writes the :class:`Counter` named ``solver_calls``."""

    def _get(self):
        return self.registry.counter(name).value

    def _set(self, value):
        self.registry.counter(name).value = value

    return property(_get, _set)


for _name in RunStats.COUNTERS:
    setattr(RunStats, _name, _counter_property(_name))
del _name


class DartResult:
    """Outcome of a DART (or random-testing) session."""

    def __init__(self, status, errors, stats, flags_snapshot,
                 coverage=None, resumed=False, witnesses=None):
        self.status = status
        self.errors = errors
        self.stats = stats
        #: (all_linear, all_locs_definite, forcing_ok, all_faithful) at
        #: session end.
        self.flags = flags_snapshot
        #: Branch-direction coverage of the program under test
        #: (:class:`repro.dart.coverage.BranchCoverage`), or None.
        self.coverage = coverage
        #: True when the session picked up a checkpoint and resumed.
        self.resumed = resumed
        #: :class:`PathWitness` list (witness collection enabled), or [].
        self.witnesses = witnesses if witnesses is not None else []

    @property
    def found_error(self):
        return bool(self.errors)

    @property
    def iterations(self):
        return self.stats.iterations

    @property
    def complete(self):
        """True when termination proves full path coverage (Theorem 1(b))."""
        return self.status == COMPLETE

    @property
    def quarantined(self):
        """Runs contained at the fault boundary (QuarantineRecord list)."""
        return self.stats.quarantined

    def first_error(self):
        return self.errors[0] if self.errors else None

    def to_dict(self):
        """The full result as a JSON-ready dict (``repro --json``)."""
        payload = {
            "status": self.status,
            "resumed": self.resumed,
            "flags": {
                "all_linear": self.flags[0],
                "all_locs_definite": self.flags[1],
                "forcing_ok": self.flags[2],
                "all_faithful": self.flags[3],
            },
            "errors": [error.to_dict() for error in self.errors],
            "quarantined": [
                record.to_dict() for record in self.stats.quarantined
            ],
            "stats": self.stats.summary(),
        }
        if self.coverage is not None:
            # The full rollup: direction coverage plus the per-function
            # C1 (both-arms) table — see repro.dart.coverage.
            payload["coverage"] = self.coverage.to_dict()
        return payload

    def describe(self):
        if self.status == BUG_FOUND:
            return "Bug found after {} run(s): {}".format(
                self.errors[0].iteration, self.errors[0].describe()
            )
        if self.status == COMPLETE:
            return (
                "No bug; all {} feasible paths explored in {} run(s)"
            ).format(len(self.stats.distinct_paths), self.iterations)
        if self.status == INTERRUPTED:
            return (
                "Interrupted after {} run(s); {} error(s) found "
                "(checkpoint saved)"
            ).format(self.iterations, len(self.errors))
        return "Budget exhausted after {} run(s); {} error(s) found".format(
            self.iterations, len(self.errors)
        )

    def __repr__(self):
        return "DartResult({!r})".format(self.describe())
