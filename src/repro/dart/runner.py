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
execution inside the fault boundary plus the planning of the run's
children — at most one from Fig. 5's ``solve_path_constraint`` under the
paper's "dfs" strategy, one per newly discovered flippable branch from
``expand_worklist_children`` under "bfs" and "random" (footnote 4).  Its
:class:`ItemResult` is folded into the session by one function,
``_Session._commit``, and every strategy drains its worklist in one
session loop, ``_Session.run_worklist``: under dfs the worklist holds at
most one item, so a run that mismatches, is quarantined or has no flip
left ends the directed search exactly as Fig. 5 does.  The loop takes an
executor: :class:`_InlineExecutor` runs each item in this process, and
:mod:`repro.dart.parallel` runs bfs and random items on a worker pool.
Worklist items seed their random slot values from ``(session seed,
iteration)`` and commit in dispatch order, so a serial and a pooled
search of the same frontier are the same search; dfs runs draw from the
session RNG, as the paper's single directed search does.

The random-testing baseline (:mod:`repro.dart.random_testing`) is one
more session of this loop: its inputs are untracked, so no run plans a
child, every drain is one run, and Fig. 2's random restart draws each
next vector from the session RNG.

The run, the planning call and the checkpoint are layers of the
session's :class:`repro.obs.clock.LayerClock` (``compile``, ``cache``
and ``solver`` nest inside them, each charged its exclusive time).

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
import functools
import gc
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
from repro.interp.compile import CompiledProgram, InterpretedProgram
from repro.interp.machine import Machine, MachineOptions
from repro.minic import SourceUnit
from repro.obs import trace as tr
from repro.obs.clock import CHECKPOINT, EXECUTE, PLAN
from repro.obs.trace import JsonlTraceSink, RingBufferSink, TraceBus
from repro.solver import Solver, SolverResultCache
from repro.solver.cache import ENCODING_VERSION
from repro.symbolic.flags import CompletenessFlags


#: How many source units the process keeps for later sessions.  The
#: paper's §4.3 sweep makes each of ~600 oSIP functions the toplevel in
#: turn over 9 module sources; every session over a kept text reuses its
#: lexed, parsed, analysed and lowered unit and builds only its driver.
UNITS_KEPT = 16


@functools.lru_cache(maxsize=UNITS_KEPT)
def source_unit(source, filename):
    """The process's shared :class:`SourceUnit` of ``source`` under
    ``filename`` (least recently used units are dropped first)."""
    return SourceUnit(source, filename)


@contextlib.contextmanager
def collector_paused():
    """Hold off Python's cyclic garbage collector for the block.

    The front end allocates tens of thousands of container objects per
    session (tokens, AST, IR, driver, independence classes).  Each
    allocation threshold it crosses starts a collection, and every tenth
    young collection may be a full one, which traverses every object
    alive in the process, including the modules of all the sessions a
    caller keeps.  Such a pass finds almost nothing to free: the cyclic
    garbage a build leaves (under 1,500 objects for an oSIP library
    function) waits in the youngest generation for the first collection
    after the block.  A block nested in a paused one leaves the
    collector paused.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class Dart:
    """A DART session for one program and one toplevel function.

    Owns what every run needs: the driver module, its compiled closures,
    the solver, the solver result cache, the worklist-dedup eligibility
    classes and the module's load image.  Built once per session; a pool
    worker is forked with it and runs its items on the inherited objects.
    """

    #: Whether the inputs are tracked symbolically; False turns the
    #: session into the random-testing baseline.
    track_inputs = True

    def __init__(self, source, toplevel, options=None, filename="<program>"):
        self.options = options = options or DartOptions()
        self.toplevel = toplevel
        #: Kept for the checkpoint fingerprint and the suite exporter.
        self.source = source
        self.filename = filename
        with collector_paused():
            # One unit of the source, shared by every session over the
            # same text, serves the driver's interface, the compiled
            # module and the independence analysis; of the driver, only
            # __dart_main and what the unit has not seen are built here.
            unit = source_unit(source, filename)
            self.module = build_test_program(
                unit, toplevel, depth=options.depth, filename=filename,
                max_init_depth=options.max_init_depth,
            )
            #: Input coupling classes for the worklist-dedup eligibility
            #: gate (None — analysis latched or subsumption off — means
            #: no entry is ever deduped; the UNSAT-core tier is
            #: independent).
            self.independence = coupling_classes(
                unit, toplevel, options.depth, filename=filename,
            ) if options.subsumption else None
        self.solver = Solver(seed=options.seed)
        #: The structured trace bus (repro.obs.trace).  Disabled — and
        #: free — until run() attaches a sink (``trace_file``), or a
        #: caller attaches one programmatically before run().
        self.trace = TraceBus()
        #: Solver result cache (None when disabled); a pool worker swaps
        #: in its client of the shared cache server.
        self.cache = SolverResultCache() if options.solver_cache else None
        if self.cache is not None:
            self.cache.trace = self.trace
        #: The session's program (repro.interp.compile), whose functions
        #: are lowered once and reused across runs: the compiled engine,
        #: whose closures are also shared across the sessions over the
        #: unit where they bind alike, or the interpreter
        #: (``--no-compile``), which shares nothing.
        self.compiled = CompiledProgram(self.module, unit.closures) \
            if options.compiled_execution \
            else InterpretedProgram(self.module)
        #: The module's post-load memory (repro.interp.machine.LoadImage),
        #: taken from the first machine and restored into every later
        #: one; it lives and dies with this session, so no other session
        #: pins its module.
        self.image = None
        #: Identifies (program, toplevel, search configuration, constraint
        #: encoding) so a checkpoint written by a different session — or
        #: by the same session under an older constraint encoding, whose
        #: recorded ``done`` verdicts and models may be stale — is
        #: rejected and its branches re-solved.
        self.fingerprint = {
            "source": unit.sha256,
            "toplevel": toplevel,
            "options": options.digest(),
            "encoding": ENCODING_VERSION,
        }
        if not self.track_inputs:
            # A baseline checkpoint never resumes a directed session, nor
            # the other way round.
            self.fingerprint["search"] = "random"

    def machine(self, hooks, flags, deadline=None, interrupt_check=None,
                trace=None):
        """A machine for one run of the module, from the load image."""
        options = self.options
        machine = Machine(self.module, MachineOptions(
            max_steps=options.max_steps,
            transparent_memory=options.transparent_memory,
            memory=options.memory_options(),
            deadline=deadline,
            interrupt_check=interrupt_check,
            trace=trace,
        ), hooks, flags, compiled=self.compiled, image=self.image)
        if self.image is None:
            self.image = machine.load_image()
        return machine

    # -- the paper's Fig. 2 -------------------------------------------------

    def run(self):
        """Execute the run_DART loop; returns a :class:`DartResult`.

        The default "dfs" strategy is the paper's Fig. 5 single-stack
        depth-first search: each run plans at most one successor, so its
        worklist never holds more than one item.  The "bfs" and "random"
        strategies (footnote 4) use a *generational worklist*: after each
        run, every newly discovered flippable branch spawns a pending
        input vector, and the frontier is drained in FIFO or random
        order.  (A plain reordering of Fig. 5's single stack would
        silently discard unexplored deep branches whenever a shallow one
        is flipped; the worklist keeps the alternative orders sound and
        complete.)  All three run through the same session loop.
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
        # Which executor drains the worklist, as the trace names it:
        # "dfs" (Fig. 5; inherently sequential — each plan depends on the
        # previous run's path — so jobs is ignored), "pool" (the
        # persistent worker pool) or "serial" (this process).  jobs stays
        # out of the checkpoint digest, so the trace is the only place a
        # run's parallelism is attributable after the fact.
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
                **({} if self.track_inputs else {"search": "random"}),
            )
        result = None
        try:
            with session.signal_guard():
                if engine == "pool":
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
                    phases=session.stats.phases.snapshot(),
                    **({"coverage": coverage.totals()}
                       if coverage is not None else {}),
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

    __slots__ = ("iteration", "planned", "im", "status", "fault", "path",
                 "digest", "covered", "children", "quarantine")

    def __init__(self, iteration, planned, im):
        self.iteration = iteration
        #: True when the run followed a predicted (solved) branch prefix.
        self.planned = planned
        #: The input vector as the run left it (undefined slots filled).
        self.im = im
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


def _quarantine(result, exc, bus, tail):
    """Turn an internal failure into data: the run is lost, not the
    session (the commit degrades the completeness claim).

    The record classifies ``exc`` — a watchdog timeout, resource
    exhaustion (recursion or memory) or anything else — and details it
    by the exception and the innermost frame it escaped from.
    """
    if isinstance(exc, RunTimeout):
        classification = RUN_TIMEOUT
    elif isinstance(exc, (RecursionError, MemoryError)):
        classification = RESOURCE_EXHAUSTED
    else:
        classification = INTERNAL_ERROR
    detail = "{}: {}".format(type(exc).__name__, exc)
    tb = traceback.extract_tb(exc.__traceback__)
    if tb:
        frame = tb[-1]
        detail += " [{}:{} in {}]".format(
            frame.filename.rsplit("/", 1)[-1], frame.lineno, frame.name
        )
    result.status = QUARANTINED
    im = result.im
    # The flight recorder: this run's own events up to the failure.
    record = result.quarantine = QuarantineRecord(
        classification, im.values(), [slot.kind for slot in im],
        result.iteration, detail,
        trace_tail=tail.tail() if tail is not None else None,
    )
    if bus is not None and bus.enabled:
        bus.emit(tr.QUARANTINE, classification=record.classification,
                 iteration=result.iteration, detail=record.detail)


#: Capacity of a traced run's flight recorder, the ring of its last
#: events attached to its quarantine record.
TRACE_RING = 32


def run_item(dart, stack, im, bound, rng, stats, flags, bus, iteration,
             session_deadline=None, interrupt_check=None, known_paths=()):
    """The run kernel: one instrumented run inside the fault boundary,
    then the planning of its children.

    Program faults (:class:`ExecutionFault`) are *results* — real bugs
    found by a real execution.  Everything else escaping the machine is
    an internal failure: it is classified and returned as a quarantine
    record, and the search continues — one bad run costs one iteration,
    not the session.  Signals (KeyboardInterrupt, SystemExit) still
    propagate.  The run's counters, coverage and layer times go into
    ``stats``, its flag degradations into ``flags`` and its events onto
    ``bus``: the session's own for an in-process run, per-item ones in a
    pool worker.  ``known_paths`` (the session's distinct paths, when at
    hand) only decides the ``new_path`` field of ``run_finished``.

    A completed run is planned under the session's strategy: "dfs" asks
    Fig. 5's ``solve_path_constraint`` for at most one child; "bfs" and
    "random" expand every flippable branch from index ``bound`` on (the
    parent already enumerated everything shallower).  A faulting run is
    not planned when the session stops on its first error.  Both
    executors call this, so a run's result depends on its arguments
    alone, never on the process it ran in.
    """
    options = dart.options
    planned = bool(stack)
    clock = stats.phases
    # The execute layer covers per-run setup (hooks, machine) as well as
    # the run itself: both are per-execution costs.  Lazy IR lowering
    # inside the run is its own (nested) compile layer.
    prev = clock.enter(EXECUTE)
    hooks = DirectedHooks(im, stack, flags, rng, options, dart.track_inputs)
    # The tighter of the per-run limit and the session deadline — so a
    # single pathological run cannot blow past ``time_limit``; the
    # watchdog trips at most one check interval late.
    deadline = session_deadline
    if options.run_time_limit is not None:
        limit = time.perf_counter() + options.run_time_limit
        if deadline is None or limit < deadline:
            deadline = limit
    machine = dart.machine(hooks, flags, deadline, interrupt_check, bus)
    traced = bus is not None and bus.enabled
    tail = None
    if traced:
        tail = bus.attach(RingBufferSink(TRACE_RING))
        bus.emit(tr.RUN_STARTED, iteration=iteration, planned=planned)
    result = ItemResult(iteration, planned, im)
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
    except Exception as caught:  # noqa: BLE001 — the fault boundary
        _quarantine(result, caught, bus, tail)
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
        bits = hooks.path()
        result.path = tuple(bits)
        result.digest = path_digest(bits)
        new_path = result.digest not in known_paths
        stats.path_length.observe(machine.branches_executed)
        if planned:
            # The predicted prefix was reached and the run finished: the
            # flip was successfully forced (funnel stage 3).
            stats.runs_forced += 1
    if traced:
        bus.emit(
            tr.RUN_FINISHED, iteration=iteration, status=result.status,
            planned=planned, new_path=new_path,
            steps=machine.steps, branches=machine.branches_executed,
        )
    if result.status == OK or (
            result.status == FAULT and not options.stop_on_first_error):
        # Execute hands the clock to plan at one instant.
        clock.enter(PLAN)
        if options.strategy == "dfs":
            child = solve_path_constraint(
                hooks.constraints, hooks.stack, im, dart.solver, flags,
                stats, cache=dart.cache, slicing=options.constraint_slicing,
                trace=bus, subsume=options.subsumption,
            )
            if child is not None:
                result.children = (child,)
        else:
            result.children = expand_worklist_children(
                hooks.stack, hooks.constraints, im, bound, dart.solver,
                flags, stats, cache=dart.cache,
                slicing=options.constraint_slicing, trace=bus,
                subsume=options.subsumption,
                independence=dart.independence,
            )
    clock.leave(prev)
    return result


class _InlineExecutor:
    """The ``jobs == 1`` executor: a window of one item, run in this
    process at dispatch, straight into the session's statistics, flags
    and trace bus — no pickling, no statistics merge."""

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
        # A dfs run draws its slot values from the session RNG (Fig. 5's
        # one directed search); a worklist item from its own seed.
        rng = session.rng if session.options.strategy == "dfs" \
            else random.Random(_item_seed(session.options.seed, index))
        self._result = session.run_here(stack, im, bound, rng)

    def take(self, index):
        result, self._result = self._result, None
        return result


class _Session:
    """One run() invocation's mutable state, shared by both executors."""

    def __init__(self, dart):
        self.dart = dart
        self.options = dart.options
        self.trace = dart.trace
        self.flags = CompletenessFlags()
        self.flags.trace = self.trace
        self.stats = RunStats()
        dart.compiled.clock = self.stats.phases
        if fault_points.ACTIVE is not None:
            # Injected faults count into this session's statistics and
            # trace stream (a harness-owned injector is re-bound per
            # resumed session).
            fault_points.ACTIVE.bind(self.trace, self.stats)
        self.errors = []
        self._seen_error_keys = set()
        #: PathWitness list: distinct (path, error-class) executions,
        #: retained for an export_suite destination — the exporter's raw
        #: material.
        self.witnesses = []
        self._witnessed = set()
        self._collect_witnesses = self.options.export_suite is not None
        #: dfs: every run's slot values; "random": the worklist pops
        #: (worklist items draw from their own seeds).
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
        #: The frontier (mutated in place) and the items dispatched but
        #: not committed — together, the worklist.
        self._worklist = []
        self._inflight = {}
        self._clean_drain = True
        #: (fingerprint, error salt) keys of every child enqueued this
        #: drain — the worklist-dedup seen set (reset on random restart,
        #: checkpointed so a resume keeps deduping).
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
            self.dart, stack, im, bound, rng, stats, self.flags, self.trace,
            stats.iterations, session_deadline=self._deadline,
            interrupt_check=self._probe, known_paths=stats.distinct_paths,
        )

    def _commit(self, result, pending):
        """Fold one run's result into the session; True = stop now.

        The one place a run becomes session state, for both executors
        alike: path and witness bookkeeping, quarantine, worklist
        admission of its children (into ``pending``), and the error
        report.
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
        # The stats summary renders the rollup when it is read, so JSON
        # reports built from RunStats alone carry the C1 numbers.
        self.stats.coverage = BranchCoverage(self.dart.module,
                                             self.stats.covered_branches)
        return DartResult(
            self.status, self.errors, self.stats, self.flags.snapshot(),
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
        return persist.SessionCheckpoint(
            fingerprint=self.dart.fingerprint,
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
            # Dispatched-but-uncommitted items first (dispatch order),
            # then the frontier: "N runs committed, these remain".
            worklist=list(self._inflight.values()) + self._worklist,
            dedup_seen=sorted(self._dedup_seen, key=repr),
        )

    def _save_checkpoint(self):
        if self.options.state_file is None:
            return
        clock = self.stats.phases
        prev = clock.enter(CHECKPOINT)
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
        finally:
            clock.leave(prev)
        if self.trace.enabled:
            self.trace.emit(tr.CHECKPOINT, iteration=self.stats.iterations)

    def _autosave(self):
        """Periodic checkpoint at the between-runs boundary.

        Called at the top of the session loop, where the session
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
        """Adopt a validated checkpoint's state."""
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
        """Load this session's checkpoint, if a valid one exists, and
        return the worklist it left (None: start from scratch).

        A missing, version-mismatched or — most importantly —
        *fingerprint*-mismatched checkpoint (different program, toplevel
        or search configuration, strategy included) yields None and the
        search starts cleanly from scratch, never silently replaying
        stale state.

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
        if checkpoint is not None:
            self._restore(checkpoint)
            return list(checkpoint.worklist)
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

    # -- the session loop: Fig. 2 around a worklist drain ---------------------

    def pop(self, pending):
        """The next item to dispatch: a session-RNG draw ("random") or
        the oldest ("bfs"; the only one under "dfs") — a function of the
        committed prefix alone."""
        if self.options.strategy == "random":
            return pending.pop(self.rng.randrange(len(pending)))
        return pending.pop(0)

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
        """The search: drain the worklist through ``executor``, with
        random restarts as in Fig. 2.

        Each drain is one directed search from a fresh random input
        vector.  It is finished when the worklist is empty; it proved
        every feasible path explored only when no run mismatched or was
        quarantined (``_clean_drain``) and the completeness flags held.
        A checkpoint stores the worklist, so a budget-truncated search —
        Fig. 5's stack "kept in a file between executions" (§2.3) under
        dfs — resumes where it stopped.

        The executor dispatches items (in-process, or to a worker pool)
        and hands back their results in dispatch order; the autosave and
        the budget check happen once per commit, at the state a
        checkpoint describes (N runs committed, these remain) — so
        checkpoint cadence, the between-runs fault seam and budget
        truncation do not depend on the executor.
        """
        if not self.dart.track_inputs:
            # Random testing never claims completeness, not even of a
            # program without inputs.
            self.flags.clear_linear()
        pending = self._resume()
        self._inflight = executor.inflight
        executor.start(self.stats.iterations + 1)
        stats = self.stats
        try:
            while True:  # random restarts, as in Fig. 2
                if pending is None:
                    pending = [(b"", InputVector(), 0)]
                    self._clean_drain = True
                    self._dedup_seen = set()
                self._worklist = pending
                while pending or executor.inflight:
                    self._autosave()
                    self._check_budget()
                    stats.iterations += 1
                    executor.fill(pending)
                    if self._commit(executor.take(stats.iterations),
                                    pending):
                        self._clear_checkpoint()
                        return self._result()
                # Fig. 2's "until all_linear and all_locs_definite".
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
