"""Unit tests for the metrics registry and the null registry's no-op
guarantees."""

import pickle
import time

import pytest

from repro.telemetry import (
    NULL_REGISTRY,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    TimerStat,
    get_registry,
    set_registry,
)


class TestCounters:
    def test_count_accumulates(self):
        reg = MetricsRegistry()
        reg.count("a")
        reg.count("a", 2)
        assert reg.counter("a").value == 3

    def test_counters_only_increase(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.count("a", -1)

    def test_get_or_create(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")


class TestGauges:
    def test_tracks_last_min_max(self):
        reg = MetricsRegistry()
        for v in (3, 1, 7):
            reg.set_gauge("depth", v)
        g = reg.gauge("depth")
        assert g.value == 7
        assert g.min == 1
        assert g.max == 7
        assert g.updates == 3


class TestHistograms:
    def test_streaming_stats(self):
        reg = MetricsRegistry()
        for v in (1.0, 2.0, 3.0, 4.0):
            reg.observe("f", v)
        h = reg.histogram("f")
        assert h.count == 4
        assert h.mean == pytest.approx(2.5)
        assert h.std == pytest.approx(1.118, abs=1e-3)
        assert h.min == 1.0 and h.max == 4.0

    def test_percentiles_from_reservoir(self):
        reg = MetricsRegistry()
        for v in range(101):
            reg.observe("f", float(v))
        h = reg.histogram("f")
        assert h.percentile(0) == 0.0
        assert h.percentile(50) == 50.0
        assert h.percentile(100) == 100.0
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_reservoir_bounded_but_stats_exact(self, monkeypatch):
        monkeypatch.setattr(Histogram, "SAMPLE_LIMIT", 8)
        reg = MetricsRegistry()
        h = reg.histogram("f")
        for v in range(100):
            h.observe(float(v))
        assert len(h.samples) == 8
        assert h.count == 100
        assert h.mean == pytest.approx(49.5)


@pytest.mark.parametrize(
    "instrument, state",
    [
        (Histogram, {"count": 5}),
        (Histogram, {"samples": [1.0]}),
        (Gauge, {"updates": 2}),
        (TimerStat, {"self_total": 1.0}),
    ],
)
def test_running_state_is_not_a_constructor_argument(instrument, state):
    """An instrument starts empty: its running state is only ever built
    by observing, so it cannot be constructed inconsistent (a count of 5
    with no samples)."""
    with pytest.raises(TypeError):
        instrument(**state)


class TestSpans:
    def test_records_count_and_time(self):
        reg = MetricsRegistry()
        with reg.span("work"):
            time.sleep(0.01)
        t = reg.timer("work")
        assert t.count == 1
        assert t.total >= 0.01
        assert t.self_total == pytest.approx(t.total)

    def test_nesting_attributes_self_time(self):
        reg = MetricsRegistry()
        with reg.span("outer"):
            time.sleep(0.005)
            with reg.span("inner"):
                time.sleep(0.01)
        outer = reg.timer("outer")
        inner = reg.timer("inner")
        assert outer.total >= inner.total
        # The parent's self time excludes the child's elapsed time.
        assert outer.self_total == pytest.approx(
            outer.total - inner.total, abs=1e-6
        )

    def test_current_span_tracks_stack(self):
        reg = MetricsRegistry()
        assert reg.current_span is None
        with reg.span("a"):
            assert reg.current_span == "a"
            with reg.span("b"):
                assert reg.current_span == "b"
            assert reg.current_span == "a"
        assert reg.current_span is None

    def test_span_survives_exceptions(self):
        reg = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with reg.span("boom"):
                raise RuntimeError("x")
        assert reg.timer("boom").count == 1
        assert reg.current_span is None


class TestEvents:
    def test_events_ordered_with_seq(self):
        reg = MetricsRegistry()
        reg.event("gen", generation=0)
        reg.event("gen", generation=1)
        events = reg.events
        assert [e["seq"] for e in events] == [0, 1]
        assert [e["generation"] for e in events] == [0, 1]


class TestSnapshotAndMerge:
    def test_snapshot_covers_all_kinds(self):
        reg = MetricsRegistry()
        reg.count("c")
        reg.set_gauge("g", 2.0)
        reg.observe("h", 1.0)
        with reg.span("t"):
            pass
        snap = reg.snapshot()
        assert snap["c"]["type"] == "counter"
        assert snap["g"]["type"] == "gauge"
        assert snap["h"]["type"] == "histogram"
        assert snap["t"]["type"] == "timer"

    def test_merge_aggregates(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.count("c", 2)
        b.count("c", 3)
        b.observe("h", 1.0)
        with b.span("t"):
            pass
        b.event("e")
        a.merge(b)
        assert a.counter("c").value == 5
        assert a.histogram("h").count == 1
        assert a.timer("t").count == 1
        assert len(a.events) == 1

    def test_reset(self):
        reg = MetricsRegistry()
        reg.count("c")
        reg.reset()
        assert reg.snapshot() == {}

    def test_picklable(self):
        reg = MetricsRegistry()
        reg.count("c", 4)
        with reg.span("t"):
            pass
        clone = pickle.loads(pickle.dumps(reg))
        assert clone.counter("c").value == 4
        assert clone.timer("t").count == 1


class TestNullRegistry:
    def test_disabled_and_stateless(self):
        null = NullRegistry()
        assert null.enabled is False
        null.count("c", 5)
        null.set_gauge("g", 1.0)
        null.observe("h", 1.0)
        null.event("e", x=1)
        with null.span("t"):
            pass
        assert null.snapshot() == {}
        assert null.events == []
        # Reads behave like an empty registry.
        assert null.counter("c").value == 0
        assert null.timer("t").count == 0

    def test_span_is_shared_singleton(self):
        null = NullRegistry()
        assert null.span("a") is null.span("b")

    def test_null_is_registry_subtype(self):
        assert isinstance(NULL_REGISTRY, MetricsRegistry)

    def test_picklable(self):
        clone = pickle.loads(pickle.dumps(NULL_REGISTRY))
        assert clone.enabled is False


class TestDefaultRegistry:
    def test_defaults_to_null(self):
        assert get_registry() is NULL_REGISTRY

    def test_set_and_clear(self):
        reg = MetricsRegistry()
        try:
            assert set_registry(reg) is reg
            assert get_registry() is reg
        finally:
            set_registry(None)
        assert get_registry() is NULL_REGISTRY
