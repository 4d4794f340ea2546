"""Unit tests for the observability layer (repro.obs).

Covers the trace bus and its sinks (round-trip through the JSONL
format), the metrics registry's deterministic merge semantics, the
layer clock, and the zero-overhead-when-disabled contract: a session
without sinks must never construct an event, and a session without a
clock never reads one.
"""

import io
import json
import time

import pytest

from repro import dart_check
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    LAYERS,
    JsonlTraceSink,
    LayerClock,
    ListSink,
    MetricsRegistry,
    RingBufferSink,
    TraceBus,
    read_trace,
    summarize_trace,
)
from repro.obs import trace as tr
from repro.obs.clock import CACHE, OTHER, PLAN, SOLVER
from repro.programs import samples


class TestTraceBus:
    def test_disabled_until_sink_attached(self):
        bus = TraceBus()
        assert bus.enabled is False
        sink = bus.attach(ListSink())
        assert bus.enabled is True
        bus.detach(sink)
        assert bus.enabled is False

    def test_emit_stamps_seq_type_and_fields(self):
        bus = TraceBus()
        sink = bus.attach(ListSink())
        bus.emit(tr.BRANCH, function="f", pc=3, taken=True)
        bus.emit(tr.CHECKPOINT, wall_s=0.1)
        first, second = sink.events
        assert first["seq"] == 1 and second["seq"] == 2
        assert first["type"] == tr.BRANCH
        assert first["function"] == "f" and first["pc"] == 3
        assert "ts" in first

    def test_fan_out_to_all_sinks(self):
        bus = TraceBus()
        a, b = bus.attach(ListSink()), bus.attach(ListSink())
        bus.emit(tr.GENERATION, size=4)
        assert a.events == b.events and len(a.events) == 1

    def test_forward_restamps_seq_without_mutating_original(self):
        bus = TraceBus()
        sink = bus.attach(ListSink())
        bus.emit(tr.RUN_STARTED, iteration=1)
        worker_event = {"seq": 99, "type": tr.RUN_FINISHED, "ts": 0.5,
                        "iteration": 0}
        bus.forward(worker_event)
        assert worker_event["seq"] == 99  # the worker's copy is untouched
        assert sink.events[1]["seq"] == 2
        assert sink.events[1]["type"] == tr.RUN_FINISHED

    def test_close_detaches_everything(self):
        bus = TraceBus()
        bus.attach(ListSink())
        bus.attach(ListSink())
        bus.close()
        assert bus.enabled is False

    def test_event_types_are_unique(self):
        assert len(set(tr.EVENT_TYPES)) == len(tr.EVENT_TYPES)


class TestRingBufferSink:
    def test_keeps_only_the_last_n(self):
        bus = TraceBus()
        ring = bus.attach(RingBufferSink(capacity=3))
        for i in range(10):
            bus.emit(tr.BRANCH, pc=i)
        tail = ring.tail()
        assert [e["pc"] for e in tail] == [7, 8, 9]

    def test_tail_is_a_copy(self):
        ring = RingBufferSink(capacity=2)
        ring.write({"seq": 1, "type": tr.BRANCH})
        tail = ring.tail()
        tail.clear()
        assert len(ring.tail()) == 1


class TestJsonlRoundTrip:
    def test_emit_write_read_back(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        bus = TraceBus()
        sink = bus.attach(JsonlTraceSink(str(path)))
        bus.emit(tr.SESSION_STARTED, toplevel="f", seed=7)
        bus.emit(tr.SOLVER_ANSWERED, verdict="sat", wall_s=0.001,
                 constraints=3)
        bus.emit(tr.SESSION_FINISHED, status="complete", iterations=1,
                 wall_s=0.01)
        bus.detach(sink)
        sink.close()
        events = list(read_trace(str(path)))
        assert [e["type"] for e in events] == [
            tr.SESSION_STARTED, tr.SOLVER_ANSWERED, tr.SESSION_FINISHED]
        assert events[0]["toplevel"] == "f" and events[0]["seed"] == 7
        assert events[1]["verdict"] == "sat"
        assert [e["seq"] for e in events] == [1, 2, 3]

    def test_read_trace_accepts_handle_and_skips_blank_lines(self):
        handle = io.StringIO('{"seq":1,"type":"branch"}\n\n'
                             '{"seq":2,"type":"checkpoint"}\n')
        events = list(read_trace(handle))
        assert len(events) == 2 and events[1]["type"] == tr.CHECKPOINT

    def test_round_trip_feeds_summarize(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        bus = TraceBus()
        sink = bus.attach(JsonlTraceSink(str(path)))
        bus.emit(tr.CONJUNCT_NEGATED, index=0, prefix=0, query=1)
        bus.emit(tr.SOLVER_ANSWERED, verdict="sat", wall_s=0.002,
                 constraints=1)
        bus.emit(tr.RUN_FINISHED, iteration=1, status="ok", planned=True,
                 new_path=True, wall_s=0.003, steps=10, branches=2)
        bus.emit(tr.SESSION_FINISHED, status="complete", iterations=1,
                 wall_s=0.02)
        sink.close()
        summary = summarize_trace(read_trace(str(path)))
        assert summary["funnel"] == {
            "attempted": 1, "sat": 1, "forced": 1, "new_path": 1}
        assert summary["runs"]["total"] == 1 and summary["runs"]["ok"] == 1
        assert summary["wall_s"] == 0.02


class TestDisabledOverheadGuard:
    """A session with no sinks must never reach TraceBus.emit."""

    def test_untraced_session_never_constructs_an_event(self, monkeypatch):
        def boom(self, event_type, **fields):  # pragma: no cover - guard
            raise AssertionError(
                "TraceBus.emit called with no sink attached")

        monkeypatch.setattr(TraceBus, "emit", boom)
        result = dart_check(samples.H_SOURCE, samples.H_TOPLEVEL,
                            max_iterations=50, seed=0)
        assert result.found_error  # the search itself still works

    def test_disabled_clock_records_nothing(self, monkeypatch):
        def boom(self, layer):  # pragma: no cover - guard
            raise AssertionError("LayerClock.enter called while disabled")

        monkeypatch.setattr(LayerClock, "enter", boom)
        result = dart_check(samples.H_SOURCE, samples.H_TOPLEVEL,
                            max_iterations=50, seed=0)
        assert result.found_error
        assert not result.stats.phases.enabled
        assert "phases" not in result.stats.summary()
        assert all(entry == {"seconds": 0.0, "entries": 0}
                   for entry in result.stats.phases.snapshot().values())


class TestCounterGauge:
    def test_counter_inc_and_merge(self):
        counter = Counter("runs")
        counter.inc()
        counter.inc(4)
        assert counter.to_dict() == 5
        counter.merge(3)
        assert counter.value == 8

    def test_gauge_tracks_peak_and_merges_by_max(self):
        gauge = Gauge("depth")
        gauge.set(5)
        gauge.set(2)
        assert gauge.to_dict() == {"value": 2, "peak": 5}
        gauge.merge({"value": 4, "peak": 4})
        assert gauge.value == 4 and gauge.peak == 5


class TestHistogram:
    def test_buckets_must_strictly_increase(self):
        with pytest.raises(ValueError):
            Histogram("bad", (1, 1, 2))

    def test_observe_buckets_and_overflow(self):
        hist = Histogram("h", (1, 10))
        for value in (0.5, 1, 7, 100):
            hist.observe(value)
        assert hist.counts == [2, 1, 1]  # <=1, <=10, overflow
        assert hist.count == 4
        assert hist.mean == pytest.approx(108.5 / 4)

    def test_merge_adds_elementwise(self):
        a, b = Histogram("h", (1, 10)), Histogram("h", (1, 10))
        a.observe(0.5)
        b.observe(5)
        b.observe(50)
        a.merge(b.to_dict())
        assert a.counts == [1, 1, 1] and a.count == 3

    def test_merge_rejects_mismatched_buckets(self):
        a, b = Histogram("h", (1, 10)), Histogram("h", (1, 20))
        with pytest.raises(ValueError):
            a.merge(b.to_dict())

    def test_quantile_returns_bucket_bound(self):
        hist = Histogram("h", (1, 10, 100))
        for value in (0.5, 0.5, 5, 50):
            hist.observe(value)
        assert hist.quantile(0.5) == 1
        assert hist.quantile(1.0) == 100


class TestMetricsRegistry:
    def fill(self, registry, runs, depth, latencies):
        registry.counter("runs").inc(runs)
        registry.gauge("depth").set(depth)
        hist = registry.histogram("latency", (0.001, 0.01, 0.1))
        for value in latencies:
            hist.observe(value)

    def test_create_or_get_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.histogram("h", (1,)) is registry.histogram("h")

    def test_histogram_requires_buckets_on_first_use(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h")

    def test_merge_is_order_independent(self):
        snapshots = []
        for runs, depth, latencies in (
            (3, 2, [0.0005, 0.05]), (5, 7, [0.005]), (1, 1, [0.5, 0.005]),
        ):
            registry = MetricsRegistry()
            self.fill(registry, runs, depth, latencies)
            snapshots.append(registry.to_dict())

        forward, backward = MetricsRegistry(), MetricsRegistry()
        for snap in snapshots:
            forward.merge(snap)
        for snap in reversed(snapshots):
            backward.merge(snap)
        assert forward.to_dict() == backward.to_dict()
        assert forward.counter("runs").value == 9
        assert forward.gauge("depth").peak == 7

    def test_to_dict_round_trips_through_json(self):
        registry = MetricsRegistry()
        self.fill(registry, 2, 3, [0.002])
        payload = json.loads(json.dumps(registry.to_dict()))
        other = MetricsRegistry()
        other.merge(payload)
        assert other.to_dict() == registry.to_dict()


class TestLayerClock:
    @staticmethod
    def spin(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    def test_nested_enter_leave_charges_exclusive_time(self):
        clock = LayerClock(enabled=True)
        outer = clock.enter(PLAN)
        assert outer == OTHER
        self.spin(0.002)
        inner = clock.enter(CACHE)
        assert inner == PLAN
        self.spin(0.02)
        clock.leave(inner)
        self.spin(0.002)
        clock.leave(outer)
        clock.stop()
        snap = clock.snapshot()
        # The nested cache time is charged to cache alone: plan holds
        # only its own ~4 ms, far below the 20 ms spent inside it.
        assert snap[CACHE]["seconds"] >= 0.02
        assert 0.004 <= snap[PLAN]["seconds"] < 0.02
        assert snap[PLAN]["entries"] == 1 and snap[CACHE]["entries"] == 1
        assert snap[SOLVER] == {"seconds": 0.0, "entries": 0}

    def test_layers_plus_other_partition_the_window(self):
        clock = LayerClock(enabled=True)
        opened = clock._mark
        for layer in LAYERS:
            prev = clock.enter(layer)
            nested = clock.enter(SOLVER)
            clock.leave(nested)
            clock.leave(prev)
        clock.stop()
        # Integer nanoseconds: the partition is exact, not approximate.
        assert sum(clock._ns.values()) == clock._mark - opened
        assert set(clock.snapshot()) == set(LAYERS)

    def test_merge_is_additive(self):
        a, b = LayerClock(enabled=True), LayerClock(enabled=True)
        a.merge({PLAN: {"seconds": 0.25, "entries": 2}})
        b.merge({PLAN: {"seconds": 0.75, "entries": 3},
                 CACHE: {"seconds": 0.1, "entries": 1}})
        a.merge(b.snapshot())
        snap = a.snapshot()
        assert snap[PLAN] == {"seconds": 1.0, "entries": 5}
        assert snap[CACHE] == {"seconds": 0.1, "entries": 1}
        assert snap[SOLVER] == {"seconds": 0.0, "entries": 0}
