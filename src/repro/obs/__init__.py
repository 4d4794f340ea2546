"""Observability: structured tracing, metrics, and the layer clock.

Three orthogonal instruments:

* :mod:`repro.obs.trace` — the typed event bus (``TraceBus``) with JSONL,
  ring-buffer and in-memory sinks; the window into *why* a directed
  search behaved the way it did (per-query verdicts and latencies, cache
  tiers, forcing outcomes, flag degradations); with no sink attached
  it constructs no event.
* :mod:`repro.obs.metrics` — the fixed-bucket ``Histogram`` that
  ``RunStats`` keeps next to its plain int counters, with a
  deterministic cross-worker merge.
* :mod:`repro.obs.clock` — the ``LayerClock`` splitting session wall
  time into exclusive per-layer times (execute, compile, plan, cache,
  solver, checkpoint, commit).  Every session runs it: it is the
  session's one time source, and ``RunStats.elapsed`` is its window.

``python -m repro trace-summary TRACE.jsonl`` renders a trace file
(:mod:`repro.obs.summary`).  The full event schema and metrics catalog
live in ``docs/OBSERVABILITY.md``.
"""

from repro.obs.clock import LAYERS, LayerClock
from repro.obs.metrics import (
    PATH_LENGTH_BUCKETS,
    SOLVER_LATENCY_BUCKETS_S,
    Histogram,
)
from repro.obs.summary import render_summary, summarize_trace
from repro.obs.trace import (
    JsonlTraceSink,
    ListSink,
    RingBufferSink,
    TraceBus,
    read_trace,
)

__all__ = [
    "Histogram",
    "JsonlTraceSink",
    "LAYERS",
    "LayerClock",
    "ListSink",
    "PATH_LENGTH_BUCKETS",
    "RingBufferSink",
    "SOLVER_LATENCY_BUCKETS_S",
    "TraceBus",
    "read_trace",
    "render_summary",
    "summarize_trace",
]
