"""Unit tests for the observability layer (repro.obs).

Covers the trace bus and its sinks (round-trip through the JSONL
format), the histograms and the deterministic merge of ``RunStats``
snapshots, the layer clock every session runs, and the zero-overhead-when-disabled
contract of the trace bus: a session without sinks must never construct
an event.
"""

import io
import json
import time

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import dart_check
from repro.dart.report import RunStats
from repro.obs import (
    Histogram,
    LAYERS,
    JsonlTraceSink,
    LayerClock,
    ListSink,
    RingBufferSink,
    TraceBus,
    read_trace,
    summarize_trace,
)
from repro.obs import trace as tr
from repro.obs.clock import CACHE, OTHER, PLAN, SOLVER
from repro.programs import samples
from repro.programs.ac_controller import (
    AC_CONTROLLER_SOURCE,
    AC_CONTROLLER_TOPLEVEL,
)


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


class TestSessionClock:
    """Every session runs one layer clock, traced or not, and it is the
    session's only time source."""

    def test_untraced_session_reports_every_layer(self):
        result = dart_check(samples.H_SOURCE, samples.H_TOPLEVEL,
                            max_iterations=50, seed=0)
        assert result.found_error
        phases = result.stats.summary()["phases"]
        assert set(phases) == set(LAYERS)
        assert phases["execute"]["entries"] == result.iterations

    def test_serial_layers_and_other_partition_elapsed(self):
        result = dart_check(AC_CONTROLLER_SOURCE, AC_CONTROLLER_TOPLEVEL,
                            depth=2, seed=7, strategy="dfs",
                            stop_on_first_error=False)
        stats = result.stats
        attributed = sum(entry["seconds"]
                         for entry in stats.phases.snapshot().values())
        other = stats.phases._ns[OTHER] / 1e9
        assert attributed + other == pytest.approx(stats.elapsed,
                                                    abs=1e-5)
        assert stats.summary()["elapsed_s"] == round(stats.elapsed, 4)

    def test_solver_latency_observes_every_solver_call(self):
        result = dart_check(AC_CONTROLLER_SOURCE, AC_CONTROLLER_TOPLEVEL,
                            depth=2, seed=7, strategy="dfs",
                            stop_on_first_error=False)
        summary = result.stats.summary()
        assert summary["solver_calls"] > 0
        assert summary["histograms"]["solver_latency_s"]["count"] == \
            summary["solver_calls"]
        assert summary["phases"][SOLVER]["seconds"] > 0


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


class TestRunStatsSnapshot:
    """``RunStats.snapshot()``/``merge()``: what a pool worker ships home
    and how the parent folds it in."""

    worker = st.fixed_dictionaries({
        "counters": st.dictionaries(
            st.sampled_from(RunStats.COUNTERS),
            st.integers(min_value=0, max_value=10 ** 6), max_size=8),
        "latencies": st.lists(
            st.floats(min_value=0, max_value=10, allow_nan=False),
            max_size=6),
        "paths": st.lists(st.integers(min_value=0, max_value=400),
                          max_size=6),
        "plan_s": st.floats(min_value=0, max_value=5, allow_nan=False),
    })

    @staticmethod
    def stats_of(worker):
        stats = RunStats()
        for name, value in worker["counters"].items():
            setattr(stats, name, value)
        for value in worker["latencies"]:
            stats.solver_latency.observe(value)
        for value in worker["paths"]:
            stats.path_length.observe(value)
        stats.phases.merge({PLAN: {"seconds": worker["plan_s"],
                                   "entries": 1}})
        return stats

    @staticmethod
    def folded(snapshots):
        parent = RunStats()
        for snapshot in snapshots:
            parent.merge(snapshot)
        return parent

    @staticmethod
    def plain(stats):
        """Everything a merge can change (no layer is ever entered here,
        so the layer times are exactly what was merged)."""
        snapshot = stats.snapshot()
        snapshot["counters"] = {name: getattr(stats, name)
                                for name in RunStats.COUNTERS}
        return snapshot

    @given(st.lists(worker, min_size=1, max_size=4), st.randoms())
    @settings(max_examples=60, deadline=None)
    def test_merge_is_order_independent(self, workers, rnd):
        snapshots = [self.stats_of(worker).snapshot() for worker in workers]
        shuffled = list(snapshots)
        rnd.shuffle(shuffled)
        forward = self.folded(snapshots)
        assert self.plain(forward) == self.plain(self.folded(shuffled))
        assert self.plain(forward) == self.plain(
            self.folded(reversed(snapshots)))
        for name in RunStats.COUNTERS:
            assert getattr(forward, name) == sum(
                worker["counters"].get(name, 0) for worker in workers)
        assert forward.solver_latency.count == sum(
            len(worker["latencies"]) for worker in workers)
        assert forward.path_length.count == sum(
            len(worker["paths"]) for worker in workers)
        assert forward.phases.snapshot()[PLAN]["entries"] == len(workers)

    @given(worker)
    @settings(max_examples=60, deadline=None)
    def test_snapshot_round_trips_through_json(self, worker):
        stats = self.stats_of(worker)
        snapshot = stats.snapshot()
        # Only non-zero counters travel.
        assert snapshot["counters"] == {
            name: value for name, value in worker["counters"].items()
            if value}
        other = self.folded([json.loads(json.dumps(snapshot))])
        assert other.snapshot() == snapshot
        assert self.plain(other) == self.plain(stats)

    def test_merge_rejects_mismatched_histogram_buckets(self):
        snapshot = RunStats().snapshot()
        snapshot["histograms"]["path_length"]["buckets"] = [1, 2]
        with pytest.raises(ValueError):
            RunStats().merge(snapshot)

    def test_parent_adds_worker_layer_times(self):
        worker = RunStats()
        worker.phases.merge({PLAN: {"seconds": 0.5, "entries": 2}})
        parent = RunStats()
        parent.merge(worker.snapshot())
        assert parent.phases.snapshot()[PLAN] == {"seconds": 0.5,
                                                  "entries": 2}


class TestLayerClock:
    @staticmethod
    def spin(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    def test_nested_enter_leave_charges_exclusive_time(self):
        clock = LayerClock()
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
        clock = LayerClock()
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
        a, b = LayerClock(), LayerClock()
        a.merge({PLAN: {"seconds": 0.25, "entries": 2}})
        b.merge({PLAN: {"seconds": 0.75, "entries": 3},
                 CACHE: {"seconds": 0.1, "entries": 1}})
        a.merge(b.snapshot())
        snap = a.snapshot()
        assert snap[PLAN] == {"seconds": 1.0, "entries": 5}
        assert snap[CACHE] == {"seconds": 0.1, "entries": 1}
        assert snap[SOLVER] == {"seconds": 0.0, "entries": 0}
