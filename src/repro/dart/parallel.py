"""Parallel generational search: a persistent, pipelined worker pool.

The worklist-based strategies ("bfs" and "random") drain a frontier of
*independent* pending input vectors — each item re-executes the program
from scratch and expands its own children.  That independence makes the
frontier embarrassingly parallel: with ``DartOptions(jobs=N)``, N
long-lived worker processes consume a shared work queue of flip
candidates, solver calls overlap interpretation (one worker can be
solving while another executes), and an idle worker steals whatever
item is next in the queue — there are no generation barriers and no
per-generation pool respawn.  (The "dfs" strategy is inherently
sequential — each plan is derived from the previous run's path — and
always stays single-process.)

Design constraints, mirroring the serial engines (the full argument
lives in ``docs/PARALLELISM.md``):

* **Determinism.** The dispatcher tops the pipeline up to a fixed
  window (``2*jobs``) only at drain start and after each commit, and
  results are committed strictly in dispatch order through a reorder
  buffer — so the dispatch *and* commit sequences are independent of
  worker timing.  For "bfs" the dispatch order provably equals the
  serial FIFO order (children enter the frontier at their parent's
  commit, and commits happen in dispatch order), and every item's
  undefined-slot randomization is seeded from ``(session seed, global
  iteration index)`` — a given ``(program, options)`` pair explores the
  same tree on every invocation, regardless of worker scheduling.
* **Shared solver cache.** Workers share decided solver results
  through a parent-side cache server (:mod:`repro.solver.shared`):
  identical queries are solved once pool-wide, concurrent duplicates
  wait on the first solver instead of re-solving, and a per-item local
  cache keeps the serial cache's UNSAT-superset/model-reuse tiers —
  partitioned exactly so that every worker result stays a pure
  function of its payload.
* **Per-worker fault boundary.** A worker wraps each run in the same
  quarantine classification as the serial engine (run-timeout /
  resource-exhausted / internal-error) and *returns* the failure as
  data.  A worker process dying outright (the in-process boundary
  cannot catch a segfault of the interpreter itself) is detected by
  the parent: the items the dead worker had claimed are re-dispatched
  once (``pool_retries``), a replacement worker is spawned, and only a
  *second* death on the same item quarantines it — one item is the
  blast radius, never the session.
* **Checkpoint integration.** Commits are the between-runs boundary:
  the uncommitted tail of the pipeline plus the pending frontier *is*
  the worklist, so the ``SessionCheckpoint`` machinery applies
  unchanged and serial and pool sessions resume each other's
  checkpoints (``jobs`` is excluded from the options digest exactly so
  a resumed search may change its parallelism).

**Soundness.** Pipelining changes *when* independent items run, never
what each computes: a worker executes the same instrumented run and the
same child expansion the serial engine would, under the same per-item
seed, and the dispatch-order commit leaves the parent's worklist,
statistics and error set identical to a serial drain of the same
frontier (pinned differentially by ``tests/test_parallel.py`` and the
fuzzer's config-invariance oracle).  A lost run degrades honestly: it
is quarantined and ``all_linear`` cleared, so a session that lost runs
never claims Theorem 1(b) completeness.

Workers rebuild the compiled module from source once per process, keep
their own solver, and report metrics-registry snapshots that the parent
folds into the session's ``RunStats`` at commit (a deterministic merge
— see `repro.obs.metrics`).
"""

import multiprocessing
import os
import random
import signal
import time
import traceback
from queue import Empty

from repro.dart import persist
from repro.dart.coverage import is_program_branch
from repro.dart.driver import DRIVER_ENTRY, build_test_program
from repro.dart.independence import coupling_classes
from repro.dart.inputs import InputVector
from repro.dart.instrument import DirectedHooks, ForcingMismatch
from repro.dart.pathcond import path_digest
from repro.dart.report import (
    BUG_FOUND,
    INTERNAL_ERROR,
    RESOURCE_EXHAUSTED,
    RUN_TIMEOUT,
    ErrorReport,
    PathWitness,
    QuarantineRecord,
    RunStats,
)
from repro.dart.solve import expand_worklist_children
from repro.faults import points as fault_points
from repro.interp.compile import CompiledProgram
from repro.interp.faults import ExecutionFault, RestoredFault, RunTimeout
from repro.interp.machine import Machine, MachineOptions
from repro.obs import trace as tr
from repro.obs.profile import CACHE as CACHE_PHASE
from repro.obs.profile import COMPILE, EXECUTE, SOLVE
from repro.obs.trace import ListSink, TraceBus
from repro.solver import Solver, SolverResultCache
from repro.solver.shared import CacheServer, SharedCacheClient
from repro.symbolic.flags import CompletenessFlags

#: An empty worker metrics snapshot (the second-layer fault fallback).
_EMPTY_METRICS = {"counters": {}, "gauges": {}, "histograms": {}}

#: Worker processes are forked: the pool respawns workers mid-session
#: (death recovery), and fork keeps that cheap and keeps the module
#: import state consistent with the parent.
try:
    _MP = multiprocessing.get_context("fork")
except ValueError:  # pragma: no cover — non-POSIX fallback
    _MP = multiprocessing.get_context()


def _item_seed(base_seed, iteration):
    """Deterministic RNG seed for one work item (stable across jobs)."""
    return base_seed * 1_000_003 + iteration


# -- worker side --------------------------------------------------------------


class _WorkerContext:
    """Per-process state: the compiled module, solver, and result cache."""

    def __init__(self, source, toplevel, options, filename, cache=None):
        self.options = options
        self.module = build_test_program(
            source, toplevel, depth=options.depth, filename=filename,
            max_init_depth=options.max_init_depth,
        )
        self.solver = Solver(seed=options.seed,
                             node_budget=options.solver_node_budget)
        if cache is not None:
            self.cache = cache
        else:
            self.cache = SolverResultCache() if options.solver_cache \
                else None
        #: Per-process compiled engine (closures are not picklable, so
        #: each worker lowers its own module copy once).
        self.compiled = CompiledProgram(self.module) \
            if options.compiled_execution else None
        #: Dedup-eligibility classes, recomputed per worker exactly as
        #: the parent session does (the analysis is deterministic, so
        #: every process gates fingerprints identically).
        self.independence = coupling_classes(
            source, toplevel, options.depth, filename=filename,
        ) if options.subsumption else None
        #: compile_seconds already attributed to the compile phase.
        self._compile_seconds_seen = 0.0

    def run_item(self, payload):
        """Execute one pending item and expand its children.

        With tracing requested the worker runs a private bus with an
        in-memory sink and ships the raw events back; the parent
        re-emits them in commit order (re-stamping sequence numbers
        and the global iteration), so the merged stream is identical
        run-for-run to a serial session's ordering.  Metrics and phase
        timings are shipped as registry/timer snapshots and folded in
        with the deterministic (commutative, associative) merges.
        """
        options = self.options
        stack = persist._decode_stack(payload["stack"])
        im = persist._decode_im(payload["im"])
        flags = CompletenessFlags()
        stats = RunStats()
        stats.phases.enabled = bool(payload.get("profile"))
        bus = None
        sink = None
        if payload.get("trace"):
            bus = TraceBus()
            sink = bus.attach(ListSink())
            flags.trace = bus
        if self.cache is not None:
            self.cache.trace = bus
        rng = random.Random(payload["seed"])
        hooks = DirectedHooks(im, stack, flags, rng, options)
        deadline = None
        if options.run_time_limit is not None:
            deadline = time.perf_counter() + options.run_time_limit
        planned = bool(stack)
        started = time.perf_counter()
        machine = Machine(
            self.module,
            MachineOptions(
                max_steps=options.max_steps,
                transparent_memory=options.transparent_memory,
                memory=options.memory_options(),
                deadline=deadline,
                watchdog_interval=options.watchdog_interval,
                trace=bus,
            ),
            hooks, flags,
            compiled=self.compiled,
        )
        if bus is not None:
            bus.emit(tr.RUN_STARTED, iteration=0, planned=planned)
        out = {"status": "ok", "children": (), "error": None,
               "quarantine": None, "path": None, "planned": planned,
               "inputs": None, "kinds": None}
        fault = None
        try:
            machine.run(DRIVER_ENTRY)
        except ForcingMismatch:
            out["status"] = "mismatch"
        except ExecutionFault as caught:
            fault = caught
        except RunTimeout as caught:
            out["status"] = "quarantined"
            out["quarantine"] = self._quarantine(RUN_TIMEOUT, im, caught)
        except (RecursionError, MemoryError) as caught:
            out["status"] = "quarantined"
            out["quarantine"] = self._quarantine(
                RESOURCE_EXHAUSTED, im, caught)
        except Exception as caught:  # noqa: BLE001 — the fault boundary
            out["status"] = "quarantined"
            out["quarantine"] = self._quarantine(INTERNAL_ERROR, im, caught)
        wall = time.perf_counter() - started
        compiled = self.compiled
        compile_delta = 0.0
        if compiled is not None:
            compile_delta = \
                compiled.compile_seconds - self._compile_seconds_seen
            self._compile_seconds_seen = compiled.compile_seconds
            if compile_delta > 0.0:
                wall = max(wall - compile_delta, 0.0)
                if bus is not None:
                    bus.emit(tr.COMPILE, wall_s=round(compile_delta, 6),
                             functions=compiled.functions_compiled)
        if stats.phases.enabled:
            if compile_delta > 0.0:
                stats.phases.add(COMPILE, compile_delta)
            stats.phases.add(EXECUTE, wall)
        stats.branches_executed = machine.branches_executed
        stats.instructions_executed = machine.steps
        stats.instructions_symbolic = machine.symbolic_steps
        stats.conjuncts_widened = machine.widener.widened
        stats.conjuncts_dropped_unfaithful = machine.widener.dropped
        if bus is not None:
            if out["status"] == "ok":
                event_status = "fault" if fault is not None else "ok"
            else:
                event_status = out["status"]
            bus.emit(
                tr.RUN_FINISHED, iteration=0, status=event_status,
                planned=planned, new_path=False, wall_s=round(wall, 6),
                steps=machine.steps, branches=machine.branches_executed,
            )
            if out["quarantine"] is not None and options.trace_ring:
                out["quarantine"]["trace_tail"] = \
                    sink.events[-options.trace_ring:]
        if out["status"] == "ok":
            out["path"] = list(hooks.record.path_key())
            # The final input vector (slot kinds included), so the
            # parent can witness this run for suite export; the parent
            # decides whether to keep it (deduplication is global).
            out["inputs"] = im.values()
            out["kinds"] = [slot.kind for slot in im]
            stats.path_length.observe(machine.branches_executed)
            if fault is not None:
                out["error"] = {
                    "kind": fault.kind,
                    "message": getattr(fault, "message", str(fault)),
                    "location": str(fault.location)
                    if fault.location is not None else None,
                    "inputs": im.values(),
                    "kinds": [slot.kind for slot in im],
                }
            children = self._expand(payload, hooks, im, flags, stats, bus)
            # The future fingerprint rides along so the *parent* can
            # dedupe at insert time against its drain-global seen set
            # (workers only ever see their own item).
            out["children"] = [
                {"stack": persist._encode_stack(child_stack),
                 "im": persist._encode_im(child_im),
                 "bound": child_bound,
                 "fp": child_fp}
                for child_stack, child_im, child_bound, child_fp
                in children
            ]
        out["covered"] = list(machine.covered_branches)
        out["flags"] = flags.snapshot()
        out["metrics"] = stats.registry.to_dict()
        out["phases"] = stats.phases.snapshot()
        out["events"] = sink.events if sink is not None else ()
        return out

    def _expand(self, payload, hooks, im, flags, stats, bus):
        """The child-expanding planning call, with phase attribution
        mirroring the serial engine's ``_Session._plan``."""
        options = self.options
        phases = stats.phases
        timed = phases.enabled or bus is not None
        if timed:
            cache_before = phases.seconds.get(CACHE_PHASE, 0.0)
            started = time.perf_counter()
        children = expand_worklist_children(
            hooks.finished_stack(), hooks.record.constraints, im,
            payload["bound"], self.solver, flags, stats,
            options.solver_escalation, cache=self.cache,
            slicing=options.constraint_slicing, trace=bus,
            subsume=options.subsumption,
            independence=self.independence,
        )
        if timed:
            wall = time.perf_counter() - started
            if phases.enabled:
                cache_delta = \
                    phases.seconds.get(CACHE_PHASE, 0.0) - cache_before
                phases.add(SOLVE, max(wall - cache_delta, 0.0))
            if bus is not None:
                bus.emit(tr.PLAN, iteration=0, wall_s=round(wall, 6))
        return children

    @staticmethod
    def _quarantine(classification, im, exc):
        detail = "{}: {}".format(type(exc).__name__, exc)
        tb = traceback.extract_tb(exc.__traceback__)
        if tb:
            frame = tb[-1]
            detail += " [{}:{} in {}]".format(
                frame.filename.rsplit("/", 1)[-1], frame.lineno, frame.name
            )
        return {
            "classification": classification,
            "inputs": im.values(),
            "kinds": [slot.kind for slot in im],
            "detail": detail,
        }


def _failed_run(detail):
    """The second-layer fallback result: a quarantined run as data."""
    return {"status": "quarantined", "children": (), "error": None,
            "path": None, "covered": (), "inputs": None, "kinds": None,
            "flags": (True, True, True, True),
            "metrics": _EMPTY_METRICS, "phases": {}, "events": (),
            "planned": False,
            "quarantine": {
                "classification": INTERNAL_ERROR,
                "inputs": [], "kinds": [],
                "detail": detail,
            }}


def _pool_worker(wid, spec, work_q, result_q, cache_conn):
    """One long-lived worker: claim, execute, expand, report, repeat.

    The claim message is sent *before* the item runs, over the same
    queue as the result, so the parent always learns who owns an item
    before (or together with) its outcome — the invariant the
    death-recovery sweep relies on.  ``None`` on the work queue is the
    shutdown sentinel.
    """
    # Workers never inject faults themselves: under a fork start method
    # the parent's installed injector would be inherited with a *copy*
    # of its probe counters, making fault placement depend on worker
    # scheduling.  The only worker-side fault is the kill switch, which
    # the parent decides and ships in the payload.
    fault_points.uninstall()
    # Forked workers inherit the parent's signal_guard handlers, which
    # only set a flag the worker never reads — that would make SIGTERM
    # (process.terminate()) a no-op and a terminal Ctrl-C (delivered to
    # the whole foreground group) kill workers mid-item.  Reset both:
    # the parent alone handles interrupts and winds the pool down.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):  # pragma: no cover — exotic platform
        pass
    source, toplevel, options, filename = spec
    client = SharedCacheClient(cache_conn) \
        if (cache_conn is not None and options.solver_cache) else None
    try:
        context = _WorkerContext(source, toplevel, options, filename,
                                 cache=client)
    except Exception:  # pragma: no cover — broken program spec
        os._exit(4)
    while True:
        job = work_q.get()
        if job is None:
            break
        index, payload = job
        result_q.put(("claim", wid, index))
        if payload.get("kill"):
            # Fault injection (``worker.kill``): die the way a
            # segfaulting interpreter would — no result, no exception.
            # The claim is flushed first (close + join_thread drains the
            # feeder and releases the queue's write lock) so the parent
            # can attribute the loss and other workers never deadlock.
            result_q.close()
            result_q.join_thread()
            os._exit(3)
        if client is not None:
            client.begin_item()
        started = time.perf_counter()
        try:
            out = context.run_item(payload)
        except Exception as exc:  # pragma: no cover — second layer
            out = _failed_run("worker: {}: {}".format(
                type(exc).__name__, exc))
        busy = time.perf_counter() - started
        result_q.put(("result", wid, index, out, round(busy, 6)))


# -- parent side --------------------------------------------------------------


class _PoolEngine:
    """Drives a _Session through the persistent pipelined worker pool.

    The parent is the only scheduler: it pops items from the frontier at
    deterministic fill points, assigns each a global dispatch index (its
    eventual iteration number), and commits buffered results strictly in
    index order.  Workers race only over *which* of the already-chosen
    items each executes — never over what the search explores.
    """

    def __init__(self, session):
        self.session = session
        self.options = session.options
        self.dart = session.dart
        #: Pipeline window: enough in-flight items to keep every worker
        #: busy while the head-of-line result is awaited, small enough
        #: that a budget stop wastes little speculative work.
        self.window = max(2 * self.options.jobs, 2)
        self._work_q = None
        self._result_q = None
        self._server = None
        self._workers = {}  # wid -> Process
        self._slots = []  # wid per round-robin slot (steal nominees)
        self._next_wid = 0  # allocator when no cache server exists
        self._items = {}  # index -> (stack, im, bound), until commit
        self._payloads = {}  # index -> dispatched payload (re-dispatch)
        self._nominees = {}  # index -> nominated wid (steal accounting)
        self._claims = {}  # index -> wid of the latest claim
        self._buffer = {}  # index -> result, until its commit turn
        self._retried = set()  # indices already re-dispatched once
        self._next_dispatch = 1
        self._next_commit = 1
        self._busy_s = 0.0
        self._started_at = None

    # Imported lazily to avoid a module cycle (runner imports this module
    # inside run()).
    def _pending_type(self):
        from repro.dart.runner import _Pending
        return _Pending

    # -- pool lifecycle -----------------------------------------------------

    def _spawn_worker(self):
        cache_conn = None
        if self._server is not None:
            wid, cache_conn = self._server.register_worker()
        else:
            wid = self._next_wid
            self._next_wid += 1
        spec = (self.dart.source, self.dart.toplevel, self.options,
                self.dart.filename)
        process = _MP.Process(
            target=_pool_worker,
            args=(wid, spec, self._work_q, self._result_q, cache_conn),
            daemon=True,
        )
        process.start()
        if cache_conn is not None:
            # The child inherited its end over the fork; drop the
            # parent's duplicate so EOF detection works.
            cache_conn.close()
        self._workers[wid] = process
        return wid

    def _start_pool(self):
        self._work_q = _MP.Queue()
        self._result_q = _MP.Queue()
        if self.options.solver_cache:
            self._server = CacheServer()
            self._server.start()
        self._started_at = time.perf_counter()
        for _ in range(self.options.jobs):
            self._slots.append(self._spawn_worker())
        if self.session.trace.enabled:
            self.session.trace.emit(tr.POOL_STARTED,
                                    jobs=self.options.jobs,
                                    window=self.window)

    def _stop_pool(self):
        session = self.session
        for _ in range(len(self._workers)):
            try:
                self._work_q.put(None)
            except (OSError, ValueError):  # pragma: no cover
                break
        for process in self._workers.values():
            process.join(timeout=1.0)
        for process in self._workers.values():
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        self._workers.clear()
        for q in (self._work_q, self._result_q):
            q.close()
            q.cancel_join_thread()
        elapsed = time.perf_counter() - self._started_at \
            if self._started_at is not None else 0.0
        if self._server is not None:
            self._server.stop()
        if session.trace.enabled:
            budget = elapsed * max(self.options.jobs, 1)
            session.trace.emit(
                tr.POOL_STOPPED,
                dispatched=self._next_dispatch - 1,
                committed=self._next_commit - 1,
                steals=session.stats.pool_steals,
                workers_lost=session.stats.pool_workers_lost,
                utilization=round(self._busy_s / budget, 4)
                if budget > 0 else 0.0,
            )

    # -- the drain loop -----------------------------------------------------

    def run(self):
        from repro.dart.runner import _BudgetReached
        session = self.session
        checkpoint = session._resume()
        frontier = None
        if checkpoint is not None and checkpoint.worklist is not None:
            frontier = list(checkpoint.worklist)  # (stack, im, bound)
        self._next_dispatch = session.stats.iterations + 1
        self._next_commit = session.stats.iterations + 1
        self._start_pool()
        try:
            while True:  # random restarts, as in Fig. 2
                if frontier is None:
                    frontier = [([], InputVector(), 0)]
                    session._clean_drain = True
                    session._dedup_seen = set()
                if self._drain(frontier):
                    session._clear_checkpoint()
                    return session._result()
                if session._clean_drain and session._finished_complete():
                    session._clear_checkpoint()
                    return session._result()
                session.stats.random_restarts += 1
                frontier = None
        except _BudgetReached:
            session._truncated = True
            session._save_checkpoint()
            return session._result()
        finally:
            self._stop_pool()

    def _drain(self, pending):
        """Pipeline one frontier to empty; True = stop-on-first-error.

        Loop shape mirrors ``_Session.run_generational``: the worklist
        note, the autosave and the budget check happen once per commit,
        at the same session state a serial engine would see them (N runs
        committed, these remain) — so checkpoint cadence, the
        between-runs fault seam and budget truncation are
        engine-agnostic.
        """
        session = self.session
        while True:
            self._fill(pending)
            if self._next_commit == self._next_dispatch and not pending:
                return False  # pipeline and frontier drained
            self._note_worklist(pending)
            session._autosave()
            session._check_budget()
            result = self._await(self._next_commit)
            index = self._next_commit
            self._next_commit += 1
            stack, im, bound = self._items.pop(index)
            self._payloads.pop(index, None)
            self._nominees.pop(index, None)
            self._claims.pop(index, None)
            self._retried.discard(index)
            session.stats.iterations += 1  # == index, by construction
            if self._commit(result, index, im, pending):
                return True

    def _fill(self, pending):
        """Top the pipeline up to the window (deterministic schedule).

        Called only at drain start and after each commit, and pops are
        FIFO ("bfs") or session-RNG draws ("random") — so the dispatch
        sequence is a function of the committed prefix alone, never of
        worker timing.  The kill seam is consulted here, exactly once
        per dispatch index (re-dispatches never re-probe it).
        """
        session = self.session
        options = self.options
        injector = fault_points.ACTIVE
        while pending \
                and (self._next_dispatch - self._next_commit) < self.window \
                and self._next_dispatch <= options.max_iterations:
            if options.strategy == "random":
                item = pending.pop(session.rng.randrange(len(pending)))
            else:
                item = pending.pop(0)
            index = self._next_dispatch
            self._next_dispatch += 1
            stack, im, bound = item
            payload = {
                "stack": persist._encode_stack(stack),
                "im": persist._encode_im(im),
                "bound": bound,
                "seed": _item_seed(options.seed, index),
                "trace": session.trace.enabled,
                "profile": session.stats.phases.enabled,
            }
            if injector is not None and injector.worker_kill(index):
                # Parent-side kill decision, keyed on the dispatch index
                # (worker processes share no probe counter); the worker
                # dies right after claiming the item.
                payload["kill"] = True
            self._items[index] = item
            self._payloads[index] = payload
            if self._slots:
                self._nominees[index] = \
                    self._slots[(index - 1) % len(self._slots)]
            self._work_q.put((index, payload))
        session.stats.pool_inflight.set(
            self._next_dispatch - self._next_commit)

    def _note_worklist(self, pending):
        """Expose the uncommitted tail + frontier to the checkpointer."""
        pending_type = self._pending_type()
        session = self.session
        worklist = [
            pending_type(*self._items[index])
            for index in range(self._next_commit, self._next_dispatch)
        ]
        worklist.extend(pending_type(stack, im, bound)
                        for stack, im, bound in pending)
        session._worklist = worklist
        session.stats.worklist_depth.set(len(worklist))

    def _await(self, index):
        """Block until the head-of-line result is buffered."""
        while index not in self._buffer:
            self._pump(block=True)
            self._reap_deaths()
        return self._buffer.pop(index)

    def _pump(self, block=False):
        """Drain every available worker message into the parent state."""
        try:
            message = self._result_q.get(timeout=0.05) if block \
                else self._result_q.get_nowait()
        except Empty:
            return
        while True:
            self._on_message(message)
            try:
                message = self._result_q.get_nowait()
            except Empty:
                return

    def _on_message(self, message):
        session = self.session
        kind = message[0]
        if kind == "claim":
            _, wid, index = message
            if index < self._next_commit:
                return  # stale: a duplicate of an already-committed item
            first_claim = index not in self._claims
            self._claims[index] = wid
            nominee = self._nominees.get(index)
            if first_claim and nominee is not None and wid != nominee:
                session.stats.pool_steals += 1
                if session.trace.enabled:
                    session.trace.emit(tr.POOL_STEAL, index=index,
                                       worker=wid, nominee=nominee)
        elif kind == "result":
            _, wid, index, out, busy = message
            if index < self._next_commit or index in self._buffer:
                return  # duplicate (conservative re-dispatch): results
                # are pure functions of the payload, so dropping one of
                # two identical copies is lossless.
            self._busy_s += busy
            self._buffer[index] = out

    def _reap_deaths(self):
        """Detect dead workers; re-dispatch their claims, respawn.

        A worker flushes its claim before any injected kill, so once
        ``is_alive()`` turns False the claim is readable — messages are
        drained first, then every uncommitted, unbuffered item claimed
        by a dead worker is re-dispatched (kill flag stripped: the
        modeled crash is transient).  Unclaimed in-flight items are
        conservatively re-dispatched too — a real crash between taking
        a job and flushing the claim would otherwise strand its item —
        and the reorder buffer dedupes any resulting double execution.
        An item whose retry *also* dies is quarantined as data
        (deterministic crashes must not retry forever).
        """
        dead = [(wid, process) for wid, process in self._workers.items()
                if not process.is_alive()]
        if not dead:
            return
        session = self.session
        self._pump()
        lost = set()
        for wid, process in dead:
            process.join()
            del self._workers[wid]
            session.stats.pool_workers_lost += 1
            if self._server is not None:
                self._server.release_worker(wid)
            if session.trace.enabled:
                session.trace.emit(tr.WORKER_LOST, worker=wid,
                                   exitcode=process.exitcode)
            replacement = self._spawn_worker()
            for slot, occupant in enumerate(self._slots):
                if occupant == wid:
                    self._slots[slot] = replacement
            for index, claimant in self._claims.items():
                if claimant == wid and index >= self._next_commit \
                        and index not in self._buffer:
                    lost.add(index)
        for index in range(self._next_commit, self._next_dispatch):
            if index not in self._claims and index not in self._buffer:
                lost.add(index)
        if not lost:
            return
        session.stats.pool_retries += 1
        if session.trace.enabled:
            session.trace.emit(tr.POOL_RETRY, size=len(lost),
                               iteration=session.stats.iterations)
        for index in sorted(lost):
            if index in self._retried:
                # Second death on the same item: give it up as a
                # quarantined run; the commit path degrades the
                # completeness claim like any other quarantine.
                stack, im, bound = self._items[index]
                result = _failed_run("worker process died twice")
                result["quarantine"]["inputs"] = im.values()
                result["quarantine"]["kinds"] = [slot.kind for slot in im]
                result["planned"] = bool(stack)
                self._buffer[index] = result
                continue
            self._retried.add(index)
            self._claims.pop(index, None)
            payload = dict(self._payloads[index])
            payload.pop("kill", None)
            self._payloads[index] = payload
            self._work_q.put((index, payload))

    # -- commit (dispatch-order merge) --------------------------------------

    def _ship_events(self, result, iteration, new_path):
        """Re-emit one worker's events on the parent bus, in commit
        order, patching in what only the parent knows: the global
        iteration number and whether the run's path was globally new."""
        trace = self.session.trace
        if not trace.enabled:
            return
        for event in result.get("events") or ():
            event = dict(event)
            if "iteration" in event:
                event["iteration"] = iteration
            if event.get("type") == tr.RUN_FINISHED:
                event["new_path"] = new_path
            trace.forward(event)

    def _witness(self, result, digest, iteration):
        """Record one worker run as a suite-export witness.

        Mirrors ``_Session._witness``: keyed on the same (path digest,
        error class) pair, applied in commit order, so serial and pool
        sessions of the same search retain identical witness lists.
        """
        session = self.session
        error = result["error"]
        witness_error = None
        if error is not None:
            witness_error = {
                "kind": error["kind"],
                "message": error["message"],
                "location": error["location"],
            }
        error_key = (witness_error["kind"], str(witness_error["location"])) \
            if witness_error is not None else None
        witness_key = (digest, error_key)
        if witness_key in session._witnessed:
            return
        session._witnessed.add(witness_key)
        session.witnesses.append(PathWitness(
            result["inputs"], result["kinds"], result["path"],
            {entry for entry in
             ((item[0], item[1], item[2]) for item in result["covered"])
             if is_program_branch(entry)},
            error=witness_error, iteration=iteration,
        ))
        session.stats.witnesses_recorded += 1

    def _commit(self, result, iteration, im, pending):
        """Fold one worker result into the session (commit order)."""
        session = self.session
        all_linear, all_locs, _forcing, all_faithful = result["flags"]
        if not all_linear:
            session.flags.clear_linear()
        if not all_locs:
            session.flags.clear_locs()
        if not all_faithful:
            session.flags.clear_faithful()
        # Deterministic instrument merge: counters add, gauges max,
        # histograms add elementwise; commit order makes it stable,
        # commutativity makes it independent of worker scheduling.
        session.stats.registry.merge(result["metrics"])
        if result.get("phases"):
            session.stats.phases.merge(result["phases"])
        session.stats.covered_branches.update(
            (entry[0], entry[1], entry[2]) for entry in result["covered"]
        )
        status = result["status"]
        if status == "mismatch":
            # The worker's hooks cleared forcing_ok and raised; the serial
            # engine restores the flag and drops the stale item, and so do
            # we — the mismatch only taints this drain's completeness.
            session.stats.forcing_failures += 1
            session._clean_drain = False
            self._ship_events(result, iteration, False)
            return False
        if status == "quarantined":
            record = result["quarantine"]
            session.flags.clear_linear()
            session.stats.quarantined.append(QuarantineRecord(
                record["classification"], record["inputs"],
                record["kinds"], iteration, record["detail"],
                trace_tail=record.get("trace_tail"),
            ))
            session._clean_drain = False
            self._ship_events(result, iteration, False)
            if session.trace.enabled:
                session.trace.emit(
                    tr.QUARANTINE,
                    classification=record["classification"],
                    iteration=iteration, detail=record["detail"],
                )
            return False
        digest = path_digest(result["path"])
        new_path = session.stats.note_path(digest)
        if result.get("planned"):
            session.stats.runs_forced += 1
        if session._collect_witnesses and result.get("inputs") is not None:
            self._witness(result, digest, iteration)
        self._ship_events(result, iteration, new_path)
        error = result["error"]
        # Insert-time worklist dedup, exactly the serial engine's
        # (session._admit_children): the salt is this run's recorded
        # error key, so children of error-differing runs never collapse.
        # Commit order makes the seen-set evolution — and therefore the
        # dedup decisions, counters and events — identical to a serial
        # drain of the same frontier.
        salt = (error["kind"], str(error["location"])) \
            if error is not None else None
        children = (
            (persist._decode_stack(child["stack"]),
             persist._decode_im(child["im"]),
             child["bound"], child.get("fp"))
            for child in result["children"]
        )
        pending.extend(session._admit_children(children, salt))
        if error is not None:
            fault = RestoredFault(error["kind"], error["message"],
                                  error["location"])
            session.status = BUG_FOUND
            key = (fault.kind, str(fault.location))
            if key not in session._seen_error_keys:
                session._seen_error_keys.add(key)
                session.errors.append(ErrorReport(
                    fault, error["inputs"], iteration,
                    tuple(result["path"]), kinds=error["kinds"],
                ))
            return self.options.stop_on_first_error
        return False


def run_parallel_generational(session):
    """Entry point used by :meth:`repro.dart.runner.Dart.run`."""
    return _PoolEngine(session).run()
