"""Flight-recorder tests: ring semantics, snapshots, metric wiring."""

import json

import pytest

from repro.telemetry import FlightRecorder, MetricsRegistry, Telemetry


def _recorder(**kwargs):
    clock = {"now": 0.0}
    recorder = FlightRecorder(lambda: clock["now"], **kwargs)
    return clock, recorder


class TestRing:
    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            _recorder(capacity=0)

    def test_events_carry_time_and_monotonic_seq(self):
        clock, recorder = _recorder()
        first = recorder.record("fault", "link-partition", action="inject")
        clock["now"] = 0.5
        second = recorder.record("alert", "rpo", state="firing")
        assert (first.seq, first.time) == (1, 0.0)
        assert (second.seq, second.time) == (2, 0.5)
        assert first.attrs == {"action": "inject"}
        assert len(recorder) == 2

    def test_ring_evicts_oldest_and_counts_drops(self):
        _clock, recorder = _recorder(capacity=4)
        for index in range(6):
            recorder.record("tick", f"e{index}")
        assert len(recorder) == 4
        assert recorder.dropped == 2
        assert [event.name for event in recorder.events] == \
            ["e2", "e3", "e4", "e5"]
        # seq keeps counting across evictions
        assert recorder.events[-1].seq == 6

    def test_disabled_recorder_is_a_noop(self):
        _clock, recorder = _recorder()
        recorder.enabled = False
        assert recorder.record("tick", "ignored") is None
        assert len(recorder) == 0

    def test_queries(self):
        clock, recorder = _recorder()
        recorder.record("fault", "link-partition")
        clock["now"] = 0.1
        recorder.record("alert", "rpo")
        clock["now"] = 0.2
        recorder.record("alert", "suspended")
        assert len(recorder.named("alert", "rpo")) == 1
        assert recorder.named("alert", "missing") == []

    def test_event_rendering_is_deterministic(self):
        _clock, recorder = _recorder()
        event = recorder.record("pair", "p1", state="PSUE", event="suspend")
        # attrs render sorted by key regardless of insertion order
        assert str(event).endswith("pair       p1 event=suspend state=PSUE")
        assert event.as_dict()["attrs"] == {"state": "PSUE",
                                            "event": "suspend"}


class TestSnapshots:
    def test_snapshot_freezes_the_ring(self):
        clock, recorder = _recorder()
        recorder.record("fault", "crash")
        frozen = recorder.snapshot("invariant-silent-corruption")
        clock["now"] = 1.0
        recorder.record("fault", "later")
        assert len(frozen["events"]) == 1
        assert frozen["reason"] == "invariant-silent-corruption"
        assert frozen["time"] == 0.0
        assert recorder.snapshots == [frozen]

    def test_dump_dir_writes_slugged_json(self, tmp_path):
        _clock, recorder = _recorder()
        recorder.dump_dir = tmp_path / "flights"
        recorder.record("failover", "order-processing", step="start")
        recorder.snapshot("Failover: RECOVERED!")
        recorder.snapshot("second")
        names = sorted(p.name for p in (tmp_path / "flights").iterdir())
        assert names == ["flight-001-failover-recovered.json",
                         "flight-002-second.json"]
        loaded = json.loads((tmp_path / "flights" / names[0]).read_text())
        assert loaded["events"][0]["name"] == "order-processing"
        assert loaded["dropped"] == 0

    def test_snapshot_json_is_byte_deterministic(self, tmp_path):
        dumps = []
        for attempt in range(2):
            clock, recorder = _recorder()
            recorder.dump_dir = tmp_path / f"run{attempt}"
            recorder.record("fault", "link-partition", action="inject")
            clock["now"] = 0.25
            recorder.record("alert", "rpo", state="firing")
            recorder.snapshot("campaign")
            dumps.append(
                (recorder.dump_dir / "flight-001-campaign.json")
                .read_bytes())
        assert dumps[0] == dumps[1]


class TestMetricWiring:
    def test_category_counters_and_snapshot_counter(self):
        registry = MetricsRegistry()
        clock = {"now": 0.0}
        recorder = FlightRecorder(lambda: clock["now"], registry=registry)
        recorder.record("fault", "a")
        recorder.record("fault", "b")
        recorder.record("alert", "c")
        recorder.snapshot("why")
        assert registry.get("repro_flight_events_total",
                            category="fault").value == 2
        assert registry.get("repro_flight_events_total",
                            category="alert").value == 1
        assert registry.get("repro_flight_snapshots_total").value == 1

    def test_telemetry_owns_a_wired_recorder(self):
        clock = {"now": 3.0}
        telemetry = Telemetry(lambda: clock["now"])
        event = telemetry.recorder.record("array", "G370", event="fail")
        assert event.time == 3.0
        assert telemetry.registry.get("repro_flight_events_total",
                                      category="array").value == 1
