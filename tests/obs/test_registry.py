"""Unit tests for the metrics registry and its process-wide lifecycle."""

import pytest

from repro import obs
from repro.obs import MemoryEventSink, MetricsRegistry


@pytest.fixture(autouse=True)
def _isolated_registry():
    """Never leak an active registry into (or out of) a test."""
    obs.disable()
    yield
    obs.disable()


class TestHandles:
    def test_counter_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("x")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_counter_is_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.counter("x") is not registry.counter("y")

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(3)
        gauge.set(1.5)
        assert gauge.value == 1.5

    def test_histogram_summary(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h")
        for value in (2.0, 8.0, 5.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.min == 2.0
        assert histogram.max == 8.0
        assert histogram.mean == pytest.approx(5.0)

    def test_empty_histogram_mean_is_zero(self):
        assert MetricsRegistry().histogram("h").mean == 0.0


class TestPhases:
    def test_phase_scope_accumulates(self):
        registry = MetricsRegistry()
        with registry.phase("build"):
            pass
        with registry.phase("build"):
            pass
        assert registry.phases["build"] >= 0.0
        assert set(registry.phases) == {"build"}

    def test_phase_events_emitted(self):
        sink = MemoryEventSink()
        registry = MetricsRegistry(sink)
        with registry.phase("fig6"):
            pass
        assert [e["type"] for e in sink.events] == ["phase.start", "phase.end"]
        assert sink.events[1]["phase"] == "fig6"
        assert "seconds" in sink.events[1]

    def test_add_phase_time(self):
        registry = MetricsRegistry()
        registry.add_phase_time("replay", 1.5)
        registry.add_phase_time("replay", 0.5)
        assert registry.phases["replay"] == pytest.approx(2.0)


class TestSnapshot:
    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(7)
        registry.gauge("g").set(2.5)
        registry.histogram("h").observe(4.0)
        registry.add_phase_time("p", 0.25)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"c": 7}
        assert snapshot["gauges"] == {"g": 2.5}
        assert snapshot["histograms"]["h"]["count"] == 1
        assert snapshot["phases_seconds"] == {"p": 0.25}

    def test_snapshot_is_json_serializable(self):
        import json

        registry = MetricsRegistry()
        registry.histogram("h")  # empty: min/max are None
        json.dumps(registry.snapshot())


class TestLifecycle:
    def test_disabled_by_default(self):
        assert obs.active() is None

    def test_enable_installs_registry(self):
        registry = obs.enable()
        assert obs.active() is registry
        obs.disable()
        assert obs.active() is None

    def test_enable_replaces_registry(self):
        first = obs.enable()
        second = obs.enable()
        assert obs.active() is second
        assert first is not second

    def test_disable_closes_sink(self):
        sink = MemoryEventSink()
        registry = obs.enable(sink)
        obs.disable()
        assert registry.sink is None

    def test_event_is_noop_without_sink(self):
        registry = MetricsRegistry()
        registry.event("anything", detail=1)  # must not raise

    def test_event_adds_type_and_time(self):
        sink = MemoryEventSink()
        registry = MetricsRegistry(sink)
        registry.event("job.start", kind="dram", name="hevc1")
        (event,) = sink.events
        assert event["type"] == "job.start"
        assert event["kind"] == "dram"
        assert event["t"] > 0
