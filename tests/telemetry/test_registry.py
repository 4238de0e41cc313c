"""Tests for the label-aware metrics registry and its renderings."""

import json

import pytest

from repro.telemetry import MetricsRegistry


@pytest.fixture()
def registry():
    return MetricsRegistry()


class TestRegistration:
    def test_same_labels_return_same_instrument(self, registry):
        first = registry.counter("writes_total", array="A")
        second = registry.counter("writes_total", array="A")
        assert first is second
        first.increment()
        assert second.value == 1

    def test_distinct_label_values_are_distinct_children(self, registry):
        a = registry.counter("writes_total", array="A")
        b = registry.counter("writes_total", array="B")
        assert a is not b
        a.increment(3)
        assert b.value == 0
        assert len(registry.family("writes_total")) == 2

    def test_kind_conflict_raises(self, registry):
        registry.counter("thing")
        with pytest.raises(ValueError):
            registry.gauge("thing")

    def test_label_key_mismatch_raises(self, registry):
        registry.counter("writes_total", array="A")
        with pytest.raises(ValueError):
            registry.counter("writes_total", pool="p1")

    def test_labels_attached_to_instrument(self, registry):
        gauge = registry.gauge("lag", group="cg-1")
        assert gauge.labels == {"group": "cg-1"}

    def test_get_never_creates(self, registry):
        assert registry.get("absent") is None
        registry.counter("present", array="A")
        assert registry.get("present", array="B") is None
        assert registry.get("present", array="A") is not None
        assert registry.family("absent") is None

    def test_help_backfilled_once(self, registry):
        registry.counter("c")
        registry.counter("c", help="late help")
        assert registry.family("c").help == "late help"


class TestRendering:
    def _populate(self, registry):
        registry.counter("repro_writes_total", help="writes",
                         array="A").increment(7)
        registry.gauge("repro_lag", group="cg").sample(1.0, 42.0)
        histogram = registry.histogram("repro_latency_seconds",
                                       unit="seconds", array="A")
        for i in range(10):
            histogram.observe(0.001 * (i + 1))
        summary = registry.summary("repro_order_seconds", workload="w")
        summary.record(0.25)

    def test_prometheus_text(self, registry):
        self._populate(registry)
        text = registry.render()
        assert "# HELP repro_writes_total writes" in text
        assert "# TYPE repro_writes_total counter" in text
        assert 'repro_writes_total{array="A"} 7' in text
        assert 'repro_lag{group="cg"} 42' in text
        assert 'repro_latency_seconds{array="A",quantile="0.5"}' in text
        assert 'repro_latency_seconds_count{array="A"} 10' in text
        assert 'repro_order_seconds_count{workload="w"} 1' in text

    def test_json_snapshot_round_trips(self, registry):
        self._populate(registry)
        snapshot = json.loads(registry.render(format="json"))
        assert snapshot["repro_writes_total"]["kind"] == "counter"
        series = snapshot["repro_writes_total"]["series"]
        assert series == [{"labels": {"array": "A"}, "value": 7}]
        latency = snapshot["repro_latency_seconds"]
        assert latency["unit"] == "seconds"
        assert latency["series"][0]["count"] == 10
        assert latency["series"][0]["p50"] > 0

    def test_unknown_format_raises(self, registry):
        with pytest.raises(ValueError):
            registry.render(format="xml")

    def test_empty_gauge_renders_nothing_but_snapshots_none(self, registry):
        registry.gauge("idle", group="g")
        assert 'idle{group="g"}' not in registry.render()
        snapshot = registry.snapshot()
        assert snapshot["idle"]["series"][0]["value"] is None


class TestLenientGaugeSurfacing:
    """``strict_time=False`` gauges drop late samples silently at the
    call site; both renderings must keep the drop count visible."""

    def _lenient(self, registry):
        gauge = registry.gauge("repro_lag", strict_time=False, group="cg")
        gauge.sample(1.0, 10.0)
        gauge.sample(0.5, 99.0)  # time went backwards: dropped
        gauge.sample(0.2, 77.0)  # and again
        return gauge

    def test_drops_counted_not_recorded(self, registry):
        gauge = self._lenient(registry)
        assert gauge.out_of_order == 2
        assert len(gauge) == 1
        assert gauge.value == 10.0

    def test_prom_exposition_carries_out_of_order_series(self, registry):
        self._lenient(registry)
        text = registry.render()
        assert 'repro_lag{group="cg"} 10' in text
        assert 'repro_lag_out_of_order_total{group="cg"} 2' in text

    def test_strict_gauge_renders_no_out_of_order_series(self, registry):
        registry.gauge("repro_ok", group="cg").sample(1.0, 5.0)
        assert "out_of_order" not in registry.render()

    def test_json_snapshot_carries_out_of_order_count(self, registry):
        self._lenient(registry)
        snapshot = json.loads(registry.render(format="json"))
        series = snapshot["repro_lag"]["series"][0]
        assert series["out_of_order"] == 2
        assert series["samples"] == 1
        assert series["value"] == 10.0

    def test_empty_lenient_gauge_snapshot_shows_zero(self, registry):
        registry.gauge("repro_idle", strict_time=False, group="g")
        snapshot = registry.snapshot()
        assert snapshot["repro_idle"]["series"][0]["out_of_order"] == 0


class TestSimulatorWiring:
    def test_simulator_exposes_telemetry(self):
        from repro.simulation import Simulator
        sim = Simulator(seed=1)
        counter = sim.telemetry.registry.counter("x")
        counter.increment()
        assert sim.telemetry.registry.get("x").value == 1
