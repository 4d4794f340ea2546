"""The structured trace bus: typed events from every engine layer.

A :class:`TraceBus` carries a stream of small, flat, JSON-ready event
dicts from the run loop (`repro.dart.runner`), the constraint layer
(`repro.dart.solve`), the result cache (`repro.solver.cache`), the
parallel engine (`repro.dart.parallel`) and the interpreter
(`repro.interp.machine`) to any number of attached sinks.  The event
schema — every type and its fields — is documented in
``docs/OBSERVABILITY.md``.

**Zero overhead when disabled.**  Emission sites follow one idiom::

    if bus.enabled:
        bus.emit(trace.RUN_FINISHED, iteration=n, status=status, ...)

``enabled`` is a plain attribute kept in sync by attach/detach, so a
session without sinks pays one attribute read per *site*, and neither
the event dict nor any of its field values is ever constructed
(``tests/test_obs.py`` pins this).  Observability must never steer the
search: the trace options are excluded from the checkpoint fingerprint
(`DartOptions.digest`), and nothing downstream reads events back.

Three sinks cover the use cases:

* :class:`JsonlTraceSink` — one JSON object per line to a file
  (CLI ``--trace PATH``); read back with :func:`read_trace`.
* :class:`RingBufferSink` — keeps the last *N* events; the run loop
  snapshots it into quarantine reports so a contained failure carries
  the events leading up to it.
* :class:`ListSink` — collects everything in memory; used by tests and
  by parallel workers (whose events are shipped to the parent and
  re-emitted in dispatch order).
"""

import json
import time
from collections import deque

#: Event types (the ``"type"`` field of every event).
SESSION_STARTED = "session_started"
SESSION_FINISHED = "session_finished"
RUN_STARTED = "run_started"
RUN_FINISHED = "run_finished"
BRANCH = "branch"
CONJUNCT_NEGATED = "conjunct_negated"
SOLVER_ANSWERED = "solver_answered"
CACHE_LOOKUP = "cache_lookup"
CACHE_STORE = "cache_store"
FORCING_MISMATCH = "forcing_mismatch"
FLAG_DEGRADED = "flag_degraded"
CONJUNCT_WIDENED = "conjunct_widened"
CONJUNCT_DROPPED = "conjunct_dropped"
QUARANTINE = "quarantine"
CHECKPOINT = "checkpoint"
GENERATION = "generation"
FAULT_INJECTED = "fault_injected"
SOLVER_FAILED = "solver_failed"
CACHE_FAILED = "cache_failed"
CHECKPOINT_FAILED = "checkpoint_failed"
CHECKPOINT_REJECTED = "checkpoint_rejected"
POOL_RETRY = "pool_retry"
#: The persistent worker pool spun up (``jobs``, ``window``) or wound
#: down (``dispatched``, ``steals``, ``workers_lost``, ``utilization``).
POOL_STARTED = "pool_started"
POOL_STOPPED = "pool_stopped"
#: A queued item was claimed by a worker other than the one the
#: dispatcher nominated round-robin — the work-stealing path.
POOL_STEAL = "pool_steal"
#: A worker process died; its claimed items are re-dispatched once.
WORKER_LOST = "worker_lost"
#: A regression suite was written (repro.suite); carries ``dir``,
#: ``artifacts``, ``errors``, ``deduped``, ``pruned`` and the suite's
#: ``c1_percent``.
SUITE_EXPORTED = "suite_exported"
#: One witness was collapsed during export — ``reason`` is
#: ``"duplicate"`` (identical path fingerprint + error class) or
#: ``"subsumed"`` (covered-branch set adds nothing to the kept union).
ARTIFACT_DEDUPED = "artifact_deduped"
#: A flip query was refuted by a recorded UNSAT core it contains
#: (the cross-subtree cache tier; carries ``constraints``).
FLIP_SUBSUMED = "flip_subsumed"
#: A worklist child was dropped at insert time because an entry with
#: the same future fingerprint (and same recorded-error salt) was
#: already enqueued this drain; carries ``bound``.
WORKLIST_DEDUP = "worklist_dedup"

#: All event types, for schema-completeness checks.
EVENT_TYPES = (
    SESSION_STARTED, SESSION_FINISHED, RUN_STARTED, RUN_FINISHED,
    BRANCH, CONJUNCT_NEGATED, SOLVER_ANSWERED, CACHE_LOOKUP, CACHE_STORE,
    FORCING_MISMATCH, FLAG_DEGRADED, CONJUNCT_WIDENED, CONJUNCT_DROPPED,
    QUARANTINE, CHECKPOINT, GENERATION,
    FAULT_INJECTED, SOLVER_FAILED, CACHE_FAILED,
    CHECKPOINT_FAILED, CHECKPOINT_REJECTED, POOL_RETRY,
    POOL_STARTED, POOL_STOPPED, POOL_STEAL, WORKER_LOST,
    SUITE_EXPORTED, ARTIFACT_DEDUPED,
    FLIP_SUBSUMED, WORKLIST_DEDUP,
)


class TraceBus:
    """Fan-out of trace events to attached sinks.

    ``enabled`` is True exactly while at least one sink is attached;
    emission sites must check it before constructing an event.
    """

    __slots__ = ("enabled", "_sinks", "_seq", "_epoch")

    def __init__(self):
        self.enabled = False
        self._sinks = []
        self._seq = 0
        self._epoch = time.time()

    def attach(self, sink):
        """Attach a sink (anything with ``write(event)``); returns it."""
        self._sinks.append(sink)
        self.enabled = True
        return sink

    def detach(self, sink):
        self._sinks.remove(sink)
        self.enabled = bool(self._sinks)

    def emit(self, event_type, **fields):
        """Build one event and hand it to every sink.

        Only call behind an ``enabled`` check — the whole point of the
        bus is that a disabled session never reaches this method.
        """
        self._seq += 1
        event = {"seq": self._seq, "type": event_type,
                 "ts": round(time.time() - self._epoch, 6)}
        event.update(fields)
        for sink in self._sinks:
            sink.write(event)
        return event

    def forward(self, event):
        """Re-emit an event built elsewhere (a parallel worker), re-stamped
        with this bus's sequence so the merged stream stays ordered."""
        self._seq += 1
        event = dict(event)
        event["seq"] = self._seq
        for sink in self._sinks:
            sink.write(event)
        return event

    def flush(self):
        for sink in self._sinks:
            flush = getattr(sink, "flush", None)
            if flush is not None:
                flush()

    def close(self):
        for sink in self._sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()
        self._sinks = []
        self.enabled = False


class ListSink:
    """Collects events in memory (tests; parallel-worker shipping)."""

    __slots__ = ("events",)

    def __init__(self):
        self.events = []

    def write(self, event):
        self.events.append(event)


class RingBufferSink:
    """Keeps the most recent ``capacity`` events.

    The run loop snapshots the ring into :class:`QuarantineRecord`s so a
    fault report carries the trace context that led up to it — the
    flight-recorder pattern.
    """

    __slots__ = ("_ring",)

    def __init__(self, capacity=32):
        self._ring = deque(maxlen=capacity)

    def write(self, event):
        self._ring.append(event)

    def tail(self):
        """The buffered events, oldest first."""
        return list(self._ring)


class JsonlTraceSink:
    """Writes one JSON object per line (the ``--trace PATH`` format)."""

    __slots__ = ("_handle", "_owns")

    def __init__(self, path_or_handle):
        if hasattr(path_or_handle, "write"):
            self._handle = path_or_handle
            self._owns = False
        else:
            self._handle = open(path_or_handle, "w")
            self._owns = True

    def write(self, event):
        # json.dumps hits the C-accelerated one-shot encoder; json.dump
        # streams through the pure-Python iterencode and is ~5x slower.
        self._handle.write(json.dumps(event, separators=(",", ":")) + "\n")

    def flush(self):
        self._handle.flush()

    def close(self):
        self._handle.flush()
        if self._owns:
            self._handle.close()


def read_trace(source):
    """Iterate the events of a JSONL trace file (path or open handle)."""
    if hasattr(source, "read"):
        for line in source:
            line = line.strip()
            if line:
                yield json.loads(line)
        return
    with open(source) as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield json.loads(line)
