"""``run_DART`` (Fig. 2): directed search wrapped in random restarts.

The outer loop restarts with a fresh random input vector; the inner loop
runs the instrumented program and asks ``solve_path_constraint`` for the
next input vector.  Any :class:`ExecutionFault` raised by the program is a
bug, reported with the concrete input vector that triggers it — Theorem
1(a)'s soundness comes for free because the fault occurred in a real
execution.  If a directed search finishes with both completeness flags
still set, all feasible program paths have been explored (Theorem 1(b)) and
the session reports ``complete``.  A forcing mismatch (the solver's
prediction diverged at runtime) aborts the directed search and falls back
to a random restart, as described at the end of Section 2.3.

One run is one call of the kernel, :func:`run_item`: the instrumented
execution inside the fault boundary (:func:`execute_run`) plus, for the
worklist strategies, the expansion of the run's children.  Its
:class:`ItemResult` is folded into the session by one function,
``_Session._commit``.  The Fig. 5 dfs loop calls the kernel with no
expansion and plans the next run itself; the "bfs" and "random"
strategies drain a worklist in one loop, ``_Session.run_worklist``, that
takes an executor: :class:`_InlineExecutor` runs each item in this
process, and :mod:`repro.dart.parallel` runs them on a worker pool.  Both
seed an item's random slot values from ``(session seed, iteration)`` and
commit in dispatch order, so a serial and a pooled search of the same
frontier are the same search.

Fault containment (see DESIGN.md, "Robustness & resumability"): the
paper's architecture re-executes the instrumented *process* per run, so a
crash loses at most one execution.  This in-process reproduction gets the
same containment from a fault boundary around each run — an internal
failure (``RecursionError``, ``MemoryError``, a watchdog ``RunTimeout``,
or any harness bug escaping the machine) quarantines the triggering input
vector, degrades the completeness claim, and the search continues.  With
``DartOptions(state_file=...)`` the session additionally checkpoints its
full state (worklist, RNG, statistics, errors) so a killed session
resumes instead of restarting.
"""

import contextlib
import hashlib
import random
import signal
import time
import traceback

from repro.dart import persist
from repro.dart.config import DartOptions
from repro.dart.coverage import BranchCoverage, is_program_branch
from repro.dart.driver import DRIVER_ENTRY, build_test_program
from repro.dart.independence import coupling_classes
from repro.dart.inputs import InputVector
from repro.dart.instrument import DirectedHooks, ForcingMismatch
from repro.dart.pathcond import path_digest
from repro.dart.report import (
    BUG_FOUND,
    CHECKPOINT_CORRUPT,
    COMPLETE,
    EXHAUSTED,
    INTERNAL_ERROR,
    INTERRUPTED,
    RESOURCE_EXHAUSTED,
    RUN_TIMEOUT,
    DartResult,
    ErrorReport,
    PathWitness,
    QuarantineRecord,
    RunStats,
    fault_fields,
)
from repro.dart.solve import (
    expand_worklist_children,
    solve_path_constraint,
)
from repro.faults import points as fault_points
from repro.faults.points import FaultInjector
from repro.interp.faults import ExecutionFault, RestoredFault, RunTimeout
from repro.interp.compile import CompiledProgram
from repro.interp.machine import Machine, MachineOptions
from repro.minic import SourceUnit
from repro.obs import trace as tr
from repro.obs.profile import CACHE as CACHE_PHASE
from repro.obs.profile import CHECKPOINT, COMPILE, EXECUTE, SOLVE
from repro.obs.trace import JsonlTraceSink, RingBufferSink, TraceBus
from repro.solver import Solver, SolverResultCache
from repro.solver.cache import ENCODING_VERSION
from repro.symbolic.flags import CompletenessFlags


class RunContext:
    """What every run of one (program, toplevel, options) needs.

    The driver module, its compiled closures, the solver, the solver
    result cache and the worklist-dedup eligibility classes.  Built once
    by :class:`Dart` and once per pool worker process (closures are not
    picklable, so each worker lowers its own copy).
    """

    def __init__(self, source, toplevel, options, filename, cache=None):
        self.options = options
        # One lex, parse and analysis of the source serves the driver's
        # interface, the compiled module and the independence analysis.
        unit = SourceUnit(source, filename)
        self.module = build_test_program(
            unit, toplevel, depth=options.depth, filename=filename,
            max_init_depth=options.max_init_depth,
        )
        self.solver = Solver(seed=options.seed,
                             node_budget=options.solver_node_budget)
        #: Solver result cache (None when disabled); a pool worker passes
        #: its client of the shared cache server.
        if cache is None and options.solver_cache:
            cache = SolverResultCache()
        self.cache = cache
        #: The compiled execution engine (repro.interp.compile): functions
        #: are lowered once and the closures reused across runs.  None
        #: selects the tree-walking interpreter (``--no-compile``).
        self.compiled = CompiledProgram(self.module) \
            if options.compiled_execution else None
        #: Input coupling classes for the worklist-dedup eligibility
        #: gate (None — analysis latched or subsumption off — means no
        #: entry is ever deduped; the UNSAT-core tier is independent).
        self.independence = coupling_classes(
            unit, toplevel, options.depth, filename=filename,
        ) if options.subsumption else None
        #: compile_seconds already attributed to the compile phase.
        self.compile_seen = self.compiled.compile_seconds \
            if self.compiled is not None else 0.0

    def machine(self, hooks, flags, deadline=None, interrupt_check=None,
                trace=None):
        options = self.options
        return Machine(self.module, MachineOptions(
            max_steps=options.max_steps,
            transparent_memory=options.transparent_memory,
            memory=options.memory_options(),
            deadline=deadline,
            watchdog_interval=options.watchdog_interval,
            interrupt_check=interrupt_check,
            trace=trace,
        ), hooks, flags, compiled=self.compiled)


class Dart:
    """A DART session for one program and one toplevel function."""

    def __init__(self, source, toplevel, options=None, filename="<program>"):
        self.options = options or DartOptions()
        self.toplevel = toplevel
        #: Kept so the parallel engine can rebuild the context per worker.
        self.source = source
        self.filename = filename
        self.ctx = RunContext(source, toplevel, self.options, filename)
        #: The structured trace bus (repro.obs.trace).  Disabled — and
        #: free — until run() attaches a sink (``trace_file``), or a
        #: caller attaches one programmatically before run().
        self.trace = TraceBus()
        if self.ctx.cache is not None:
            self.ctx.cache.trace = self.trace
        #: Identifies (program, toplevel, search configuration, constraint
        #: encoding) so a checkpoint written by a different session — or
        #: by the same session under an older constraint encoding, whose
        #: recorded ``done`` verdicts and models may be stale — is
        #: rejected and its branches re-solved.
        self.fingerprint = {
            "source": hashlib.sha256(source.encode()).hexdigest(),
            "toplevel": toplevel,
            "options": self.options.digest(),
            "encoding": ENCODING_VERSION,
        }

    @property
    def module(self):
        return self.ctx.module

    @property
    def compiled(self):
        return self.ctx.compiled

    # -- the paper's Fig. 2 -------------------------------------------------

    def run(self):
        """Execute the run_DART loop; returns a :class:`DartResult`.

        The default "dfs" strategy is the paper's Fig. 5 single-stack
        depth-first search.  The "bfs" and "random" strategies (footnote 4)
        use a *generational worklist* instead: after each run, every newly
        discovered flippable branch spawns a pending input vector, and the
        frontier is drained in FIFO or random order.  (A plain reordering
        of Fig. 5's single stack would silently discard unexplored deep
        branches whenever a shallow one is flipped; the worklist keeps the
        alternative orders sound and complete.)
        """
        jsonl = None
        if self.options.trace_file is not None:
            jsonl = self.trace.attach(JsonlTraceSink(self.options.trace_file))
        # Fault injection: install the options' plan unless a harness
        # (the chaos driver) already installed an injector — its probe
        # counters must survive across resumed sessions so each
        # scheduled fault fires exactly once per schedule.
        owned_injector = None
        if self.options.fault_plan and fault_points.ACTIVE is None:
            owned_injector = fault_points.install(
                FaultInjector(self.options.fault_plan))
        session = _Session(self)
        # Which engine runs the search: "dfs" (Fig. 5; inherently
        # sequential — each plan depends on the previous run's path — so
        # jobs is ignored), "pool" (the worklist drain on the persistent
        # worker pool) or "serial" (the same drain in this process).
        # jobs stays out of the checkpoint digest, so the trace is the
        # only place a run's parallelism is attributable after the fact.
        if self.options.strategy == "dfs":
            engine = "dfs"
        elif self.options.jobs > 1:
            engine = "pool"
        else:
            engine = "serial"
        if self.trace.enabled:
            self.trace.emit(
                tr.SESSION_STARTED, toplevel=self.toplevel,
                strategy=self.options.strategy, seed=self.options.seed,
                depth=self.options.depth, jobs=self.options.jobs,
            )
        result = None
        try:
            with session.signal_guard():
                if engine == "dfs":
                    result = session.run_figure5()
                elif engine == "pool":
                    # Imported lazily: multiprocessing machinery is only
                    # paid for by sessions that ask for it.
                    from repro.dart.parallel import (
                        run_parallel_generational,
                    )
                    result = run_parallel_generational(session)
                else:
                    result = session.run_worklist(_InlineExecutor(session))
            if self.options.export_suite is not None:
                # Export before the sinks detach, so the suite_exported
                # and artifact_deduped events reach the live trace and
                # the counters land in this session's stats.  An
                # interrupted or exhausted campaign exports what it
                # found — that is the point of doing it here.
                from repro.suite import export_suite
                export_suite(self, result, self.options.export_suite)
            return result
        finally:
            session.stats.finish()
            if self.trace.enabled:
                coverage = result.coverage if result is not None else None
                self.trace.emit(
                    tr.SESSION_FINISHED,
                    status=result.status if result is not None else "error",
                    engine=engine,
                    iterations=session.stats.iterations,
                    wall_s=round(session.stats.elapsed, 6),
                    **({"coverage": {
                        "covered_directions": coverage.covered_directions,
                        "total_directions": coverage.total_directions,
                        "percent": round(coverage.percent, 2),
                        "total_branches": coverage.total_branches,
                        "branches_both_arms": coverage.branches_both_arms,
                        "c1_percent": round(coverage.c1_percent, 2),
                    }} if coverage is not None else {}),
                )
                self.trace.flush()
            if owned_injector is not None:
                fault_points.uninstall()
            elif fault_points.ACTIVE is not None:
                # A harness-owned injector outlives the session; drop the
                # references to this session's bus and stats.
                fault_points.ACTIVE.bind(None, None)
            if jsonl is not None:
                self.trace.detach(jsonl)
                jsonl.close()

    # -- replay -----------------------------------------------------------

    def replay(self, inputs, kinds=None):
        """Re-execute the program on a recorded input vector.

        Useful for confirming a reported error independently of the
        search.  ``inputs`` is either an :class:`ErrorReport` (preferred —
        it carries the input kinds, so pointer-choice slots are rebuilt
        with the right domains) or a raw value list, optionally with an
        aligned ``kinds`` list.  Returns the fault raised, or None if the
        run completes.
        """
        # The suite's replay run: one concrete forcing replay, no search.
        from repro.suite.replay import execute_vector
        if isinstance(inputs, ErrorReport):
            kinds = inputs.kinds
            inputs = inputs.inputs
        return execute_vector(self, inputs, kinds or ()).fault


class _BudgetReached(Exception):
    """Internal control flow: iteration or time budget exhausted."""


class _RunInterrupted(Exception):
    """Internal control flow: a signal arrived mid-run; abandon the run."""


def _item_seed(base_seed, iteration):
    """Seed of one generational item's random slot values.

    A function of the session seed and the item's iteration number only,
    so the in-process and the pool executor draw the same values for the
    same item whichever process runs it.
    """
    return base_seed * 1_000_003 + iteration


# -- the run kernel -----------------------------------------------------------

#: ItemResult statuses (also the ``run_finished`` trace status).
OK = "ok"
FAULT = "fault"
MISMATCH = "mismatch"
QUARANTINED = "quarantined"


class ItemResult:
    """What one run produced: the kernel's output, the commit's input."""

    __slots__ = ("iteration", "planned", "im", "hooks", "status", "fault",
                 "path", "digest", "covered", "children", "quarantine")

    def __init__(self, iteration, planned, im, hooks=None):
        self.iteration = iteration
        #: True when the run followed a predicted (solved) branch prefix.
        self.planned = planned
        #: The input vector as the run left it (undefined slots filled).
        self.im = im
        #: The run's DirectedHooks (in-process only: the dfs planner
        #: reads the path record from them).
        self.hooks = hooks
        self.status = OK
        #: The ExecutionFault of a FAULT run.
        self.fault = None
        #: Branch bits and their path digest, for completed runs.
        self.path = None
        self.digest = None
        #: (function, pc, taken) triples this run exercised.
        self.covered = ()
        #: (stack, im, bound, fingerprint) of every child to enqueue.
        self.children = ()
        #: The QuarantineRecord of a run lost at the fault boundary (None
        #: for a run abandoned to a signal: the session is stopping).
        self.quarantine = None

    @property
    def completed(self):
        return self.status == OK or self.status == FAULT


def _quarantine(result, classification, exc, bus, tail):
    """Turn an internal failure into data: the run is lost, not the
    session (the commit degrades the completeness claim)."""
    detail = "{}: {}".format(type(exc).__name__, exc)
    tb = traceback.extract_tb(exc.__traceback__)
    if tb:
        frame = tb[-1]
        detail += " [{}:{} in {}]".format(
            frame.filename.rsplit("/", 1)[-1], frame.lineno, frame.name
        )
    im = result.im
    result.status = QUARANTINED
    # The flight recorder: this run's own events up to the failure.
    result.quarantine = QuarantineRecord(
        classification, im.values(), [slot.kind for slot in im],
        result.iteration, detail,
        trace_tail=tail.tail() if tail is not None else None,
    )
    if bus is not None and bus.enabled:
        bus.emit(tr.QUARANTINE, classification=classification,
                 iteration=result.iteration, detail=detail)


def execute_run(ctx, stack, im, rng, stats, flags, bus, iteration,
                session_deadline=None, interrupt_check=None,
                known_paths=()):
    """One instrumented run inside the fault boundary.

    Program faults (:class:`ExecutionFault`) are *results* — real bugs
    found by a real execution.  Everything else escaping the machine is
    an internal failure: it is classified and returned as a quarantine
    record, and the search continues — one bad run costs one iteration,
    not the session.  Signals (KeyboardInterrupt, SystemExit) still
    propagate.  The run's counters, coverage and phase times go into
    ``stats``, its flag degradations into ``flags`` and its events onto
    ``bus``: the session's own for an in-process run, per-item ones in a
    pool worker.  ``known_paths`` (the session's distinct paths, when at
    hand) only decides the ``new_path`` field of ``run_finished``.
    """
    options = ctx.options
    planned = bool(stack)
    # The execute window covers per-run setup (hooks, machine) as well
    # as the run itself: both are per-execution costs.
    started = time.perf_counter()
    hooks = DirectedHooks(im, stack, flags, rng, options)
    # The tighter of the per-run limit and the session deadline — so a
    # single pathological run cannot blow past ``time_limit``; the
    # watchdog trips at most one check interval late.
    deadline = session_deadline
    if options.run_time_limit is not None:
        limit = started + options.run_time_limit
        if deadline is None or limit < deadline:
            deadline = limit
    machine = ctx.machine(hooks, flags, deadline, interrupt_check, bus)
    traced = bus is not None and bus.enabled
    tail = None
    if traced:
        if options.trace_ring:
            tail = bus.attach(RingBufferSink(options.trace_ring))
        bus.emit(tr.RUN_STARTED, iteration=iteration, planned=planned)
    result = ItemResult(iteration, planned, im, hooks)
    try:
        machine.run(DRIVER_ENTRY)
    except ForcingMismatch:
        result.status = MISMATCH
        stats.forcing_failures += 1
        if traced:
            bus.emit(tr.FORCING_MISMATCH, iteration=iteration)
    except ExecutionFault as caught:
        result.status = FAULT
        result.fault = caught
    except _RunInterrupted:
        # A signal arrived mid-run: abandon the partial run quietly; the
        # budget check right after will checkpoint and return.
        result.status = QUARANTINED
    except RunTimeout as caught:
        _quarantine(result, RUN_TIMEOUT, caught, bus, tail)
    except (RecursionError, MemoryError) as caught:
        _quarantine(result, RESOURCE_EXHAUSTED, caught, bus, tail)
    except Exception as caught:  # noqa: BLE001 — the fault boundary
        _quarantine(result, INTERNAL_ERROR, caught, bus, tail)
    if tail is not None:
        bus.detach(tail)
    stats.branches_executed += machine.branches_executed
    stats.instructions_executed += machine.steps
    stats.instructions_symbolic += machine.symbolic_steps
    stats.conjuncts_widened += machine.widener.widened
    stats.conjuncts_dropped_unfaithful += machine.widener.dropped
    stats.covered_branches |= machine.covered_branches
    result.covered = machine.covered_branches
    new_path = False
    if result.completed:
        result.path = hooks.record.path_key()
        result.digest = path_digest(result.path)
        new_path = result.digest not in known_paths
        stats.path_length.observe(machine.branches_executed)
        if planned:
            # The predicted prefix was reached and the run finished: the
            # flip was successfully forced (funnel stage 3).
            stats.runs_forced += 1
    wall = time.perf_counter() - started
    # IR lowering happens lazily inside the run window (first call of
    # each function); carve it out of execute so both the phase profile
    # and the trace attribute compilation honestly.
    compiled = ctx.compiled
    compile_delta = 0.0
    if compiled is not None:
        compile_delta = compiled.compile_seconds - ctx.compile_seen
        ctx.compile_seen = compiled.compile_seconds
        if compile_delta > 0.0:
            wall = max(wall - compile_delta, 0.0)
            if traced:
                bus.emit(tr.COMPILE, wall_s=round(compile_delta, 6),
                         functions=compiled.functions_compiled)
    if stats.phases.enabled:
        if compile_delta > 0.0:
            stats.phases.add(COMPILE, compile_delta)
        stats.phases.add(EXECUTE, wall)
    if traced:
        bus.emit(
            tr.RUN_FINISHED, iteration=iteration, status=result.status,
            planned=planned, new_path=new_path, wall_s=round(wall, 6),
            steps=machine.steps, branches=machine.branches_executed,
        )
    return result


def timed_plan(stats, bus, iteration, func, *args, **kwargs):
    """Run one planning call (candidate loop) with phase attribution.

    The whole call — slicing, query building, cache, solver — is one
    ``plan`` trace event; for the phase timer its wall minus the cache
    sections recorded inside goes to ``solve``, keeping the phases
    disjoint.
    """
    phases = stats.phases
    traced = bus is not None and bus.enabled
    if not (phases.enabled or traced):
        return func(*args, **kwargs)
    cache_before = phases.seconds.get(CACHE_PHASE, 0.0)
    started = time.perf_counter()
    result = func(*args, **kwargs)
    wall = time.perf_counter() - started
    if phases.enabled:
        cache_delta = phases.seconds.get(CACHE_PHASE, 0.0) - cache_before
        phases.add(SOLVE, max(wall - cache_delta, 0.0))
    if traced:
        bus.emit(tr.PLAN, iteration=iteration, wall_s=round(wall, 6))
    return result


def run_item(ctx, stack, im, bound, rng, stats, flags, bus, iteration,
             **run_options):
    """The run kernel: execute one item and expand its children.

    ``bound`` is the first branch index the item may expand (its parent
    already enumerated everything shallower); None runs without
    expansion (the dfs loop plans its next run itself).  A faulting run
    is not expanded when the session stops on its first error.  Both
    executors call this, so a run's result depends on its arguments
    alone, never on the process it ran in.
    """
    result = execute_run(ctx, stack, im, rng, stats, flags, bus, iteration,
                         **run_options)
    options = ctx.options
    if bound is not None and (result.status == OK or (
            result.status == FAULT and not options.stop_on_first_error)):
        hooks = result.hooks
        result.children = timed_plan(
            stats, bus, iteration, expand_worklist_children,
            hooks.finished_stack(), hooks.record.constraints, im, bound,
            ctx.solver, flags, stats, options.solver_escalation,
            cache=ctx.cache, slicing=options.constraint_slicing,
            trace=bus, subsume=options.subsumption,
            independence=ctx.independence,
        )
    return result


class _InlineExecutor:
    """The ``jobs == 1`` executor: a window of one item, run in this
    process at dispatch, straight into the session's statistics, flags
    and trace bus — no payload encoding, no registry merge."""

    def __init__(self, session):
        self.session = session
        #: Never holds an item across a checkpoint (the window is one).
        self.inflight = {}
        self._result = None

    def start(self, first_index):
        pass

    def close(self):
        pass

    def fill(self, pending):
        session = self.session
        stack, im, bound = session.pop(pending)
        # The drain loop has already counted this run: its iteration
        # number is the item's index.
        index = session.stats.iterations
        self._result = session.run_here(
            stack, im, bound,
            random.Random(_item_seed(session.options.seed, index)))

    def take(self, index):
        result, self._result = self._result, None
        return result


class _Session:
    """One run() invocation's mutable state, shared by both engines."""

    def __init__(self, dart):
        self.dart = dart
        self.ctx = dart.ctx
        self.options = dart.options
        self.trace = dart.trace
        self.flags = CompletenessFlags()
        self.flags.trace = self.trace
        self.stats = RunStats()
        self.stats.phases.enabled = self.options.profile_phases
        compiled = self.ctx.compiled
        if compiled is not None:
            # The compiled program outlives the session: lowering done
            # before it (an earlier run, a replay) is not this session's.
            self.ctx.compile_seen = compiled.compile_seconds
        if fault_points.ACTIVE is not None:
            # Injected faults count into this session's statistics and
            # trace stream (a harness-owned injector is re-bound per
            # resumed session).
            fault_points.ACTIVE.bind(self.trace, self.stats)
        self.errors = []
        self._seen_error_keys = set()
        #: PathWitness list: distinct (path, error-class) executions,
        #: retained when witness collection is on (collect_witnesses or
        #: an export_suite destination) — the exporter's raw material.
        self.witnesses = []
        self._witnessed = set()
        self._collect_witnesses = (
            self.options.collect_witnesses
            or self.options.export_suite is not None
        )
        #: dfs: drives the whole search; generational: only the "random"
        #: strategy's pops (items draw from their own seeds).
        self.rng = random.Random(self.options.seed)
        self.status = EXHAUSTED
        self.resumed = False
        self._deadline = None
        if self.options.time_limit is not None:
            self._deadline = time.perf_counter() + self.options.time_limit
        self._interrupted = False
        self._probe = self._interrupt_probe \
            if self.options.handle_signals else None
        #: True when the session exited through the truncation path
        #: (budget / deadline / signal): the search is unfinished and a
        #: checkpoint was saved.
        self._truncated = False
        self._engine = "dfs" if self.options.strategy == "dfs" \
            else "generational"
        #: dfs: the (stack, im) plan the next run will execute.
        self._dfs_plan = ([], InputVector())
        #: generational: the frontier (mutated in place) and the items
        #: dispatched but not committed — together, the worklist.
        self._worklist = []
        self._inflight = {}
        self._clean_drain = True
        #: generational: (fingerprint, error salt) keys of every child
        #: enqueued this drain — the worklist-dedup seen set (reset on
        #: random restart, checkpointed so a resume keeps deduping).
        self._dedup_seen = set()

    # -- graceful interruption ----------------------------------------------

    @contextlib.contextmanager
    def signal_guard(self):
        """Install SIGINT/SIGTERM handlers for the session's duration.

        A caught signal sets a flag that the budget check (between runs)
        and the machine watchdog (mid-run, amortized) both observe: the
        session checkpoints and returns a partial ``interrupted`` result
        instead of dying with a traceback.  Only active when the options
        ask for it, and silently skipped off the main thread (where
        ``signal.signal`` is unavailable).
        """
        if not self.options.handle_signals:
            yield
            return
        previous = {}

        def _handler(signum, frame):
            self._interrupted = True

        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[signum] = signal.signal(signum, _handler)
            except ValueError:  # not the main thread
                break
        try:
            yield
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)

    def _interrupt_probe(self):
        """Called by the machine watchdog; aborts the run on a signal."""
        if self._interrupted:
            raise _RunInterrupted()

    # -- shared plumbing ----------------------------------------------------

    def _check_budget(self):
        if self._interrupted:
            raise _BudgetReached()
        if self.stats.iterations >= self.options.max_iterations:
            raise _BudgetReached()
        if self._deadline is not None \
                and time.perf_counter() > self._deadline:
            raise _BudgetReached()

    def run_here(self, stack, im, bound, rng):
        """Run the kernel in this process on the session's own state."""
        stats = self.stats
        return run_item(
            self.ctx, stack, im, bound, rng, stats, self.flags, self.trace,
            stats.iterations, session_deadline=self._deadline,
            interrupt_check=self._probe, known_paths=stats.distinct_paths,
        )

    def _commit(self, result, pending=None):
        """Fold one run's result into the session; True = stop now.

        The one place a run becomes session state, for the dfs loop and
        both worklist executors alike: path and witness bookkeeping,
        quarantine, worklist admission of its children (into
        ``pending``), and the error report.
        """
        status = result.status
        if status == MISMATCH:
            # §2.3: the run diverged from its prediction and its item is
            # dropped.  The invariant guarantees a completeness flag was
            # already cleared, so forcing_ok is restored; only this
            # drain's completeness is tainted.
            self.flags.forcing_ok = True
            self._clean_drain = False
            return False
        if status == QUARANTINED:
            # Contained failure: this item is lost (one run's worth of
            # work), the rest of the frontier lives.  Mirroring the
            # paper's ``forcing_ok`` degradation, ``all_linear`` is
            # cleared — a path this session could not finish executing is
            # a path it cannot claim to have covered, so Theorem 1(b)
            # verdicts stay sound.
            if result.quarantine is not None:
                self.flags.clear_linear()
                self.stats.quarantined.append(result.quarantine)
            self._clean_drain = False
            return False
        self.stats.note_path(result.digest)
        fault = result.fault
        salt = (fault.kind, str(fault.location)) \
            if fault is not None else None
        if self._collect_witnesses:
            self._witness(result, salt)
        if pending is not None:
            pending.extend(self._admit_children(result.children, salt))
        if fault is None:
            return False
        self.status = BUG_FOUND
        if salt not in self._seen_error_keys:
            self._seen_error_keys.add(salt)
            im = result.im
            self.errors.append(ErrorReport(
                fault, im.values(), result.iteration, result.path,
                kinds=[slot.kind for slot in im],
            ))
        return self.options.stop_on_first_error

    def _witness(self, result, error_key):
        """Retain this run for suite export if it is worth keeping.

        Keyed by (path digest, error class): the first run of every
        distinct path is kept, and an *error* run is kept even when its
        branch path was already seen ok (a division fault and the clean
        run share the same branch bits — the error class tells them
        apart).  Only program-function coverage is stored; driver
        scaffolding is not part of the replay contract.
        """
        witness_key = (result.digest, error_key)
        if witness_key in self._witnessed:
            return
        self._witnessed.add(witness_key)
        fault = result.fault
        error = fault_fields(fault) if fault is not None else None
        im = result.im
        self.witnesses.append(PathWitness(
            im.values(), [slot.kind for slot in im], result.path,
            {entry for entry in result.covered if is_program_branch(entry)},
            error=error, iteration=result.iteration,
        ))
        self.stats.witnesses_recorded += 1

    def _result(self):
        # A signal that truncated the search wins over a sticky
        # BUG_FOUND from an earlier error: the session is unfinished and
        # resumable, and callers (the CLI's exit 130, the chaos
        # harness's resume loop) must be able to tell.  A signal that
        # arrived but did *not* cut the search short (the stop-on-first
        # early return, a clean drain) changes nothing.
        if self._interrupted and (self._truncated
                                  or self.status == EXHAUSTED):
            self.status = INTERRUPTED
        coverage = BranchCoverage(self.ctx.module,
                                  self.stats.covered_branches)
        # Surface the rollup through the stats summary too, so JSON
        # reports built from RunStats alone carry the C1 numbers.
        self.stats.coverage = coverage.to_dict()
        return DartResult(
            self.status, self.errors, self.stats, self.flags.snapshot(),
            coverage=coverage,
            resumed=self.resumed,
            witnesses=self.witnesses,
        )

    def _finished_complete(self):
        if self.flags.complete:
            if not self.errors:
                self.status = COMPLETE
            return True
        return False

    # -- checkpointing -------------------------------------------------------

    def _make_checkpoint(self):
        checkpoint = persist.SessionCheckpoint(
            fingerprint=self.dart.fingerprint,
            engine=self._engine,
            rng_state=self.rng.getstate(),
            flags=self.flags.snapshot(),
            counters={name: getattr(self.stats, name)
                      for name in RunStats.COUNTERS},
            distinct_paths=sorted(self.stats.distinct_paths),
            covered_branches=sorted(self.stats.covered_branches),
            errors=[error.to_dict() for error in self.errors],
            quarantined=[record.to_dict()
                         for record in self.stats.quarantined],
            clean_drain=self._clean_drain,
            witnesses=[witness.to_dict() for witness in self.witnesses],
        )
        if self._engine == "dfs":
            checkpoint.dfs_pending = self._dfs_plan
        else:
            # Dispatched-but-uncommitted items first (dispatch order),
            # then the frontier: "N runs committed, these remain".
            checkpoint.worklist = \
                list(self._inflight.values()) + self._worklist
            checkpoint.dedup_seen = sorted(self._dedup_seen, key=repr)
        return checkpoint

    def _save_checkpoint(self):
        if self.options.state_file is None:
            return
        started = time.perf_counter()
        try:
            persist.save_checkpoint(self.options.state_file,
                                    self._make_checkpoint())
        except OSError as exc:
            # A failed write (ENOSPC, permissions, torn disk) costs
            # durability, never the session: the previous checkpoint —
            # if any — is still intact on disk (the write is atomic),
            # the search continues, and the failure is counted and
            # traced so it cannot pass silently.
            self.stats.checkpoint_failures += 1
            if self.trace.enabled:
                self.trace.emit(tr.CHECKPOINT_FAILED,
                                iteration=self.stats.iterations,
                                error=type(exc).__name__,
                                detail=str(exc)[:200])
            return
        wall = time.perf_counter() - started
        if self.stats.phases.enabled:
            self.stats.phases.add(CHECKPOINT, wall)
        if self.trace.enabled:
            self.trace.emit(tr.CHECKPOINT,
                            iteration=self.stats.iterations,
                            wall_s=round(wall, 6))

    def _autosave(self):
        """Periodic checkpoint at the between-runs boundary.

        Called at the top of each engine's run loop, where the session
        state (worklist, RNG, counters) is consistent: the checkpoint
        describes exactly "N runs done, these remain".
        """
        injector = fault_points.ACTIVE
        if injector is not None:
            # Fault seam: deliver a real SIGINT at the between-runs
            # boundary — the signal guard must turn it into a clean
            # checkpoint-and-return, never a traceback.
            injector.between_runs()
        every = self.options.checkpoint_every
        if self.options.state_file is None or not every:
            return
        if self.stats.iterations and self.stats.iterations % every == 0:
            self._save_checkpoint()

    def _restore(self, checkpoint):
        """Adopt a validated checkpoint's state; returns the work to do."""
        self.rng.setstate(checkpoint.rng_state)
        (self.flags.all_linear, self.flags.all_locs_definite,
         self.flags.forcing_ok, self.flags.all_faithful) = checkpoint.flags
        for name in RunStats.COUNTERS:
            setattr(self.stats, name, checkpoint.counters.get(name, 0))
        self.stats.distinct_paths = set(checkpoint.distinct_paths)
        self.stats.covered_branches = set(checkpoint.covered_branches)
        self.stats.quarantined = [
            QuarantineRecord.from_dict(payload)
            for payload in checkpoint.quarantined
        ]
        for payload in checkpoint.errors:
            fault = RestoredFault(payload["kind"], payload["message"],
                                  payload["location"])
            self._seen_error_keys.add((fault.kind, str(fault.location)))
            self.errors.append(ErrorReport(
                fault, payload["inputs"], payload["iteration"],
                tuple(payload["path"]) if payload["path"] is not None
                else None,
                kinds=payload["kinds"],
            ))
        if self.errors:
            self.status = BUG_FOUND
        for payload in checkpoint.witnesses:
            witness = PathWitness.from_dict(payload)
            self._witnessed.add((path_digest(witness.path),
                                 witness.error_key))
            self.witnesses.append(witness)
        self.resumed = True
        self._clean_drain = checkpoint.clean_drain
        self._dedup_seen = set(checkpoint.dedup_seen)

    def _resume(self):
        """Load this session's checkpoint, if a valid one exists.

        A missing, version-mismatched or — most importantly —
        *fingerprint*-mismatched checkpoint (different program, toplevel
        or search configuration), or a valid one for the other engine,
        yields None and the search starts cleanly from scratch, never
        silently replaying stale state.

        A **corrupt** checkpoint (the file exists but is torn, bit-rotted
        or structurally broken) also reseeds cleanly, but not silently:
        prior search state was *lost*, so the session records a
        quarantine-style ``checkpoint-corrupt`` entry and degrades its
        completeness claim — a reseeded session cannot know what the
        lost state had already covered, so it must never report
        ``complete``.
        """
        path = self.options.state_file
        if path is None:
            return None
        checkpoint, reason = persist.load_checkpoint_ex(
            path, self.dart.fingerprint)
        if checkpoint is not None and checkpoint.engine == self._engine:
            self._restore(checkpoint)
            return checkpoint
        if reason == "corrupt":
            self._reject_checkpoint(path)
        return None

    def _reject_checkpoint(self, path):
        """Contain a corrupt checkpoint: count, record, degrade, reseed.

        The state-loss counterpart of a quarantined run: the session
        continues from scratch, but the lost coverage makes any
        completeness claim unsound, so ``all_linear`` is cleared and a
        ``checkpoint-corrupt`` record preserves the evidence.
        """
        self.stats.checkpoints_rejected += 1
        self.flags.clear_linear()
        detail = ("checkpoint {} failed validation (torn, bit-rotted or "
                  "structurally broken); reseeding from scratch".format(path))
        self.stats.quarantined.append(QuarantineRecord(
            CHECKPOINT_CORRUPT, [], [], self.stats.iterations, detail,
        ))
        if self.trace.enabled:
            self.trace.emit(tr.CHECKPOINT_REJECTED, detail=detail)

    def _clear_checkpoint(self):
        if self.options.state_file is not None:
            persist.clear_state(self.options.state_file)

    # -- engine 1: the paper's Figs. 2 + 5 ------------------------------------

    def run_figure5(self):
        checkpoint = self._resume()
        resumed = checkpoint.dfs_pending if checkpoint is not None else None
        try:
            while True:  # the outer "repeat" — random restarts
                if resumed is not None:
                    predicted_stack, im = resumed
                    resumed = None
                else:
                    im = InputVector()
                    predicted_stack = []
                search_finished = False
                while True:  # the inner "while (directed)"
                    self._dfs_plan = (predicted_stack, im)
                    self._autosave()
                    self._check_budget()
                    self.stats.iterations += 1
                    result = self.run_here(predicted_stack, im, None, self.rng)
                    if self._commit(result):
                        self._clear_checkpoint()
                        return self._result()
                    if not result.completed:
                        # A mismatch (§2.3) or a run that died inside the
                        # fault boundary: its path record cannot be
                        # trusted, so fall back to a random restart — the
                        # one-run cost of the fault.
                        break
                    hooks = result.hooks
                    plan = timed_plan(
                        self.stats, self.trace, self.stats.iterations,
                        solve_path_constraint,
                        hooks.record, hooks.finished_stack(),
                        im, self.ctx.solver, "dfs", self.rng, self.flags,
                        self.stats, escalation=self.options.solver_escalation,
                        cache=self.ctx.cache,
                        slicing=self.options.constraint_slicing,
                        trace=self.trace,
                        subsume=self.options.subsumption,
                    )
                    if plan is None:
                        search_finished = True
                        break
                    im = plan.im
                    predicted_stack = plan.stack
                # the "until all_linear and all_locs_definite" condition
                if search_finished and self._finished_complete():
                    self._clear_checkpoint()
                    return self._result()
                self.stats.random_restarts += 1
        except _BudgetReached:
            # §2.3: the stack is "kept in a file between executions" —
            # checkpoint the pending plan so the search resumes later.
            self._truncated = True
            self._save_checkpoint()
            return self._result()

    # -- engine 2: generational worklist (footnote 4 done soundly) -----------

    def pop(self, pending):
        """The next item to dispatch: FIFO ("bfs") or a session-RNG draw
        ("random") — a function of the committed prefix alone."""
        if self.options.strategy == "bfs":
            return pending.pop(0)
        return pending.pop(self.rng.randrange(len(pending)))

    def _admit_children(self, children, salt):
        """Insert-time worklist dedup (the subsumption layer's half two).

        Yields the ``(stack, im, bound)`` of every child to enqueue and
        drops the rest: a child is dropped when an entry with the same
        future fingerprint *and* the same recorded-error salt was
        already enqueued this drain — entries differing in recorded
        errors are never deduped (``salt`` is the parent run's error
        key, or None).  Dedup only fires while the session is fully
        modeled (every completeness flag intact): after any degradation
        a fingerprint can no longer claim two futures equivalent, so
        everything is admitted.  Dropped children are counted
        (``worklist_deduped``) and traced (``worklist_dedup``).
        """
        flags = self.flags
        dedup_ok = (flags.all_linear and flags.all_faithful
                    and flags.all_locs_definite)
        seen = self._dedup_seen
        for stack, im, bound, fp in children:
            if fp is not None and dedup_ok:
                key = (fp, salt)
                if key in seen:
                    self.stats.worklist_deduped += 1
                    if self.trace.enabled:
                        self.trace.emit(tr.WORKLIST_DEDUP, bound=bound)
                    continue
                seen.add(key)
            yield stack, im, bound

    def run_worklist(self, executor):
        """The generational search: drain the worklist through
        ``executor``, with random restarts as in Fig. 2.

        The executor dispatches items (in-process, or to a worker pool)
        and hands back their results in dispatch order; the autosave and
        the budget check happen once per commit, at the state a
        checkpoint describes (N runs committed, these remain) — so
        checkpoint cadence, the between-runs fault seam and budget
        truncation do not depend on the executor.
        """
        checkpoint = self._resume()
        pending = None
        if checkpoint is not None and checkpoint.worklist is not None:
            pending = list(checkpoint.worklist)
        self._inflight = executor.inflight
        executor.start(self.stats.iterations + 1)
        stats = self.stats
        try:
            while True:  # random restarts, as in Fig. 2
                if pending is None:
                    pending = [([], InputVector(), 0)]
                    self._clean_drain = True
                    self._dedup_seen = set()
                self._worklist = pending
                while pending or executor.inflight:
                    stats.worklist_depth.set(
                        len(pending) + len(executor.inflight))
                    self._autosave()
                    self._check_budget()
                    stats.iterations += 1
                    executor.fill(pending)
                    if self._commit(executor.take(stats.iterations),
                                    pending):
                        self._clear_checkpoint()
                        return self._result()
                stats.worklist_depth.set(0)
                if self._clean_drain and self._finished_complete():
                    self._clear_checkpoint()
                    return self._result()
                stats.random_restarts += 1
                pending = None
        except _BudgetReached:
            self._truncated = True
            self._save_checkpoint()
            return self._result()
        finally:
            executor.close()


def dart_check(source, toplevel, options=None, **option_kwargs):
    """One-call DART: build the driver, run the search, return the result.

    Either pass a :class:`DartOptions` or keyword overrides, e.g.::

        result = dart_check(source, "h", depth=2, max_iterations=500)
    """
    if options is None:
        options = DartOptions(**option_kwargs)
    elif option_kwargs:
        raise ValueError("pass either options or keyword overrides, not both")
    return Dart(source, toplevel, options).run()
