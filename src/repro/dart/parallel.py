"""The process executor: the worklist drain on a persistent worker pool.

The worklist-based strategies ("bfs" and "random") drain a frontier of
*independent* pending input vectors — each item re-executes the program
from scratch and expands its own children.  That independence makes the
frontier embarrassingly parallel: with ``DartOptions(jobs=N)``, the
session's one drain loop (``_Session.run_worklist`` in
:mod:`repro.dart.runner`) runs with this module's executor instead of
the in-process one.  N long-lived worker processes consume a shared work
queue, solver calls overlap interpretation (one worker can be solving
while another executes), and an idle worker steals whatever item is next
in the queue — there are no generation barriers and no per-generation
pool respawn.  (The "dfs" strategy is inherently sequential — each plan
is derived from the previous run's path — and always stays
single-process.)

What the executor adds to the in-process one (the full argument lives in
``docs/PARALLELISM.md``):

* **Determinism.** The dispatcher tops the pipeline up to a fixed
  window (``2*jobs``) only at the drain loop's fill points, and results
  are committed strictly in dispatch order through a reorder buffer — so
  the dispatch *and* commit sequences are independent of worker timing.
  Every worker runs the same kernel (:func:`repro.dart.runner.run_item`)
  the in-process executor runs, on the same item with the same
  ``(session seed, iteration)`` slot seed, and the parent folds each
  result in through the same commit.
* **Shared solver cache.** Workers share decided solver results
  through a parent-side cache server (:mod:`repro.solver.shared`):
  identical queries are solved once pool-wide, concurrent duplicates
  wait on the first solver instead of re-solving, and each worker's
  client is the serial cache emptied per item (exact results plus
  UNSAT-core and UNSAT-query refutations) — partitioned exactly so that
  every worker result stays a pure function of its payload.
* **Worker death.** The kernel's fault boundary returns a lost run as
  data; a worker process dying outright (the in-process boundary cannot
  catch a segfault of the interpreter itself) is detected by the
  parent: the items the dead worker had claimed are re-dispatched once
  (``pool_retries``), a replacement worker is spawned, and only a
  *second* death on the same item quarantines it — one item is the
  blast radius, never the session.
* **Checkpoints.** Dispatched-but-uncommitted items are the executor's
  ``inflight`` table, which the session checkpoints ahead of the
  frontier, so serial and pool sessions resume each other's checkpoints
  (``jobs`` is excluded from the options digest exactly so a resumed
  search may change its parallelism).

A worker returns each result as plain data: the run's metrics-registry
and layer-clock snapshots, its flags, covered branches and trace events.
The parent folds them into the session (deterministic merges — see
`repro.obs.metrics`; the fold is the parent's ``commit`` layer) and
re-emits the events in commit order before the commit itself.
"""

import multiprocessing
import os
import random
import signal
import time
from queue import Empty

from repro.dart import persist
from repro.dart.report import (
    INTERNAL_ERROR,
    QuarantineRecord,
    RunStats,
    fault_fields,
)
from repro.dart.runner import (
    QUARANTINED,
    ItemResult,
    RunContext,
    _item_seed,
    run_item,
)
from repro.faults import points as fault_points
from repro.interp.faults import RestoredFault
from repro.obs import trace as tr
from repro.obs.clock import COMMIT
from repro.obs.trace import ListSink, TraceBus
from repro.solver.shared import CacheServer, SharedCacheClient
from repro.symbolic.flags import CompletenessFlags

#: Worker processes are forked: the pool respawns workers mid-session
#: (death recovery), and fork keeps that cheap and keeps the module
#: import state consistent with the parent.
try:
    _MP = multiprocessing.get_context("fork")
except ValueError:  # pragma: no cover — non-POSIX fallback
    _MP = multiprocessing.get_context()


# -- worker side --------------------------------------------------------------


def _run_payload(ctx, index, payload):
    """Run one dispatched item through the kernel; the result as data.

    The run gets private statistics, flags and (with tracing requested)
    a private bus with an in-memory sink; the parent folds them into the
    session at commit.
    """
    stats = RunStats(clocked=payload["profile"])
    flags = CompletenessFlags()
    bus = sink = None
    if payload["trace"]:
        bus = TraceBus()
        sink = bus.attach(ListSink())
        flags.trace = bus
    if ctx.cache is not None:
        ctx.cache.trace = bus
    if ctx.compiled is not None:
        ctx.compiled.clock = stats.phases
    result = run_item(
        ctx, persist._decode_stack(payload["stack"]),
        persist.decode_input_vector(payload["im"]), payload["bound"],
        random.Random(_item_seed(ctx.options.seed, index)),
        stats, flags, bus, index,
    )
    fault = result.fault
    return {
        "status": result.status,
        "planned": result.planned,
        "im": persist.encode_input_vector(result.im),
        "path": result.path,
        "digest": result.digest,
        "error": fault_fields(fault) if fault is not None else None,
        # The future fingerprint rides along so the *parent* can dedupe
        # at insert time against its drain-global seen set.
        "children": [
            (persist._encode_stack(stack), persist.encode_input_vector(im),
             bound, fp)
            for stack, im, bound, fp in result.children
        ],
        "quarantine": result.quarantine,
        "covered": stats.covered_branches,
        "flags": flags.snapshot(),
        "metrics": stats.registry.to_dict(),
        "phases": stats.phases.snapshot(),
        "events": sink.events if sink is not None else (),
    }


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
        ctx = RunContext(source, toplevel, options, filename, cache=client)
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
            out = _run_payload(ctx, index, payload)
        except Exception as exc:  # pragma: no cover — second layer
            out = {"lost": "worker: {}: {}".format(type(exc).__name__, exc)}
        busy = time.perf_counter() - started
        result_q.put(("result", wid, index, out, round(busy, 6)))


# -- parent side --------------------------------------------------------------


class _ProcessExecutor:
    """The ``jobs > 1`` executor: a persistent pipelined worker pool.

    The parent is the only scheduler: it pops items from the frontier at
    deterministic fill points, assigns each a global dispatch index (its
    eventual iteration number), and hands results back strictly in index
    order.  Workers race only over *which* of the already-chosen items
    each executes — never over what the search explores.
    """

    def __init__(self, session):
        self.session = session
        self.options = session.options
        #: Pipeline window: enough in-flight items to keep every worker
        #: busy while the head-of-line result is awaited, small enough
        #: that a budget stop wastes little speculative work.
        self.window = max(2 * self.options.jobs, 2)
        #: index -> (stack, im, bound), dispatched and not yet committed.
        self.inflight = {}
        self._work_q = None
        self._result_q = None
        self._server = None
        self._workers = {}  # wid -> Process
        self._slots = []  # wid per round-robin slot (steal nominees)
        self._next_wid = 0  # allocator when no cache server exists
        self._payloads = {}  # index -> dispatched payload (re-dispatch)
        self._nominees = {}  # index -> nominated wid (steal accounting)
        self._claims = {}  # index -> wid of the latest claim
        self._buffer = {}  # index -> result, until its commit turn
        self._retried = set()  # indices already re-dispatched once
        self._next_dispatch = 1
        self._next_commit = 1
        self._busy_s = 0.0
        self._started_at = None

    # -- pool lifecycle -----------------------------------------------------

    def _spawn_worker(self):
        cache_conn = None
        if self._server is not None:
            wid, cache_conn = self._server.register_worker()
        else:
            wid = self._next_wid
            self._next_wid += 1
        dart = self.session.dart
        spec = (dart.source, dart.toplevel, self.options, dart.filename)
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

    def start(self, first_index):
        self._next_dispatch = self._next_commit = first_index
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

    def close(self):
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

    # -- dispatch -----------------------------------------------------------

    def fill(self, pending):
        """Top the pipeline up to the window (deterministic schedule).

        Called only at the drain loop's fill points, and pops are the
        session's own (FIFO or session-RNG draws) — so the dispatch
        sequence is a function of the committed prefix alone, never of
        worker timing.  The kill seam is consulted here, exactly once
        per dispatch index (re-dispatches never re-probe it).
        """
        session = self.session
        injector = fault_points.ACTIVE
        while pending \
                and (self._next_dispatch - self._next_commit) < self.window \
                and self._next_dispatch <= self.options.max_iterations:
            item = session.pop(pending)
            index = self._next_dispatch
            self._next_dispatch += 1
            stack, im, bound = item
            payload = {
                "stack": persist._encode_stack(stack),
                "im": persist.encode_input_vector(im),
                "bound": bound,
                "trace": session.trace.enabled,
                "profile": session.stats.phases.enabled,
            }
            if injector is not None and injector.worker_kill(index):
                # Parent-side kill decision, keyed on the dispatch index
                # (worker processes share no probe counter); the worker
                # dies right after claiming the item.
                payload["kill"] = True
            self.inflight[index] = item
            self._payloads[index] = payload
            if self._slots:
                self._nominees[index] = \
                    self._slots[(index - 1) % len(self._slots)]
            self._work_q.put((index, payload))
        session.stats.pool_inflight.set(
            self._next_dispatch - self._next_commit)

    def take(self, index):
        """Block until the head-of-line result is in; fold it into the
        session's statistics, flags and trace, and return it."""
        while index not in self._buffer:
            self._pump(block=True)
            self._reap_deaths()
        out = self._buffer.pop(index)
        self._next_commit += 1
        stack, im, _bound = self.inflight.pop(index)
        self._payloads.pop(index, None)
        self._nominees.pop(index, None)
        self._claims.pop(index, None)
        self._retried.discard(index)
        if "lost" in out:
            return self._lost(index, stack, im, out["lost"])
        clock = self.session.stats.phases
        timed = clock.enabled
        if timed:
            prev = clock.enter(COMMIT)
        result = self._fold(index, out)
        if timed:
            clock.leave(prev)
        return result

    def _fold(self, index, out):
        session = self.session
        stats = session.stats
        flags = session.flags
        all_linear, all_locs, _forcing, all_faithful = out["flags"]
        if not all_linear:
            flags.clear_linear()
        if not all_locs:
            flags.clear_locs()
        if not all_faithful:
            flags.clear_faithful()
        # Deterministic instrument merge: counters add, gauges max,
        # histograms add elementwise; commit order makes it stable,
        # commutativity makes it independent of worker scheduling.
        stats.registry.merge(out["metrics"])
        if stats.phases.enabled:
            stats.phases.merge(out["phases"])
        stats.covered_branches |= out["covered"]
        result = ItemResult(index, out["planned"],
                            persist.decode_input_vector(out["im"]))
        result.status = out["status"]
        result.covered = out["covered"]
        result.path = out["path"]
        result.digest = out["digest"]
        if out["error"] is not None:
            result.fault = RestoredFault(**out["error"])
        result.quarantine = out["quarantine"]
        result.children = [
            (persist._decode_stack(stack), persist.decode_input_vector(im),
             bound, fp)
            for stack, im, bound, fp in out["children"]
        ]
        trace = session.trace
        if trace.enabled:
            # Re-emit in commit order, patching in what only the parent
            # knows: whether the run's path was new to the session.
            new_path = result.digest is not None \
                and result.digest not in stats.distinct_paths
            for event in out["events"]:
                if event["type"] == tr.RUN_FINISHED:
                    event = dict(event, new_path=new_path)
                trace.forward(event)
        return result

    def _lost(self, index, stack, im, detail):
        """An item whose run produced no result (its worker's own fault
        boundary failed, or it killed its worker twice): quarantined as
        an internal error, like any run lost at the fault boundary."""
        result = ItemResult(index, bool(stack), im)
        result.status = QUARANTINED
        result.quarantine = QuarantineRecord(
            INTERNAL_ERROR, im.values(), [slot.kind for slot in im], index,
            detail,
        )
        trace = self.session.trace
        if trace.enabled:
            trace.emit(tr.QUARANTINE, classification=INTERNAL_ERROR,
                       iteration=index, detail=detail)
        return result

    # -- worker messages ----------------------------------------------------

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
                # Second death on the same item: give it up as a lost
                # run; the commit degrades the completeness claim like
                # any other quarantine.
                self._buffer[index] = {"lost": "worker process died twice"}
                continue
            self._retried.add(index)
            self._claims.pop(index, None)
            payload = dict(self._payloads[index])
            payload.pop("kill", None)
            self._payloads[index] = payload
            self._work_q.put((index, payload))


def run_parallel_generational(session):
    """Entry point used by :meth:`repro.dart.runner.Dart.run`."""
    return session.run_worklist(_ProcessExecutor(session))
