"""SLO rule engine tests: rule math, state-machine timing, wiring.

The state machines are exercised at exact instants through
``evaluate_once`` on a manually-clocked telemetry stub, so every
pending/firing/hysteresis edge is asserted at a known time; the
lifecycle tests then run the engine as a real simulation process.
"""

import pytest

from repro.simulation import Simulator
from repro.telemetry import (BurnRateRule, ConditionRule, LatencyRecorder,
                             LatencyPercentileRule, SloEngine, Telemetry,
                             standard_rules)
from tests.storage.conftest import build_two_site, fast_adc


class ManualSim:
    """A settable clock plus a telemetry bundle; no event loop."""

    def __init__(self):
        self.now = 0.0
        self.telemetry = Telemetry(lambda: self.now)


def _engine(rules, **kwargs):
    sim = ManualSim()
    return sim, SloEngine(sim, rules, **kwargs)


class TestRuleValidation:
    def test_negative_durations_rejected(self):
        with pytest.raises(ValueError):
            ConditionRule("r", lambda: False, for_seconds=-1.0)

    def test_burn_rate_parameters_validated(self):
        with pytest.raises(ValueError):
            BurnRateRule("r", lambda: 0.0, objective=-1.0)
        with pytest.raises(ValueError):
            BurnRateRule("r", lambda: 0.0, objective=1.0, windows=())
        with pytest.raises(ValueError):
            BurnRateRule("r", lambda: 0.0, objective=1.0,
                         budget_fraction=0.0)

    def test_latency_rule_parameters_validated(self):
        source = LatencyRecorder("w")
        with pytest.raises(ValueError):
            LatencyPercentileRule("r", source, bound=0.0)
        with pytest.raises(ValueError):
            LatencyPercentileRule("r", source, bound=0.01, fraction=1.5)

    def test_engine_rejects_duplicate_rule_names(self):
        rules = [ConditionRule("same", lambda: False),
                 ConditionRule("same", lambda: True)]
        with pytest.raises(ValueError):
            _engine(rules)

    def test_engine_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            _engine([ConditionRule("r", lambda: False)], interval=0.0)


class TestConditionStateMachine:
    def test_immediate_fire_and_resolve(self):
        flag = {"on": False}
        sim, engine = _engine([ConditionRule("cond", lambda: flag["on"])])
        engine.evaluate_once()
        assert engine.firing_rules() == []
        flag["on"] = True
        sim.now = 0.01
        engine.evaluate_once()
        assert engine.firing_rules() == ["cond"]
        flag["on"] = False
        sim.now = 0.02
        engine.evaluate_once()
        assert engine.firing_rules() == []
        assert [(t.time, t.state) for t in engine.transitions] == \
            [(0.01, "firing"), (0.02, "resolved")]

    def test_transitions_land_in_registry_and_recorder(self):
        flag = {"on": True}
        sim, engine = _engine([ConditionRule("cond", lambda: flag["on"],
                                             severity="ticket")])
        engine.evaluate_once()
        flag["on"] = False
        sim.now = 0.01
        engine.evaluate_once()
        registry = sim.telemetry.registry
        assert registry.get("repro_alerts_total", rule="cond",
                            state="firing").value == 1
        assert registry.get("repro_alerts_total", rule="cond",
                            state="resolved").value == 1
        assert registry.get("repro_alert_firing", rule="cond").value == 0.0
        recorded = sim.telemetry.recorder.named("alert", "cond")
        assert [e.attrs["state"] for e in recorded] == \
            ["firing", "resolved"]
        assert all(e.attrs["severity"] == "ticket" for e in recorded)

    def test_for_seconds_gates_firing(self):
        flag = {"on": False}
        sim, engine = _engine([ConditionRule(
            "cond", lambda: flag["on"], for_seconds=0.05)])
        # a breach shorter than for_seconds never fires
        flag["on"] = True
        sim.now = 0.01
        engine.evaluate_once()
        assert engine.firing_rules() == []
        flag["on"] = False
        sim.now = 0.02
        engine.evaluate_once()
        assert engine.firing_rules() == []
        assert engine.transitions == []
        # a persistent breach fires once the pending delay elapses
        flag["on"] = True
        for step in range(3, 9):
            sim.now = step * 0.01
            engine.evaluate_once()
        assert engine.firing_rules() == ["cond"]
        assert len(engine.transitions) == 1
        assert engine.transitions[0].time == pytest.approx(0.08)

    def test_clear_seconds_hysteresis(self):
        flag = {"on": True}
        sim, engine = _engine([ConditionRule(
            "cond", lambda: flag["on"], clear_seconds=0.05)])
        engine.evaluate_once()
        assert engine.firing_rules() == ["cond"]
        # healthy evaluations inside the hysteresis window do not resolve
        flag["on"] = False
        for now in (0.10, 0.12):
            sim.now = now
            engine.evaluate_once()
        assert engine.firing_rules() == ["cond"]
        # a flap back to breached resets the healthy clock
        flag["on"] = True
        sim.now = 0.14
        engine.evaluate_once()
        flag["on"] = False
        sim.now = 0.16
        engine.evaluate_once()
        assert engine.firing_rules() == ["cond"]
        sim.now = 0.22
        engine.evaluate_once()
        assert engine.firing_rules() == []
        resolved = [t for t in engine.transitions if t.state == "resolved"]
        assert [t.time for t in resolved] == [pytest.approx(0.22)]


class TestBurnRateRule:
    """Multi-window semantics: every window must burn to breach."""

    def _rule(self, series):
        return BurnRateRule("rpo", lambda: series["value"], objective=0.05,
                            windows=((0.06, 1.0), (0.24, 1.0)),
                            budget_fraction=0.1)

    def test_healthy_series_never_breaches(self):
        series = {"value": 0.0}
        rule = self._rule(series)
        for step in range(30):
            breached, detail = rule.observe(step * 0.01)
            assert not breached
        assert "burn[0.06s]=0.00/1" in detail

    def test_short_window_alone_does_not_breach(self):
        """2 bad samples burn the 0.06s window (2/7 > 10%) but not the
        0.24s window (2/25 < 10%) — the long window suppresses blips."""
        series = {"value": 0.0}
        rule = self._rule(series)
        for step in range(24):
            assert not rule.observe(step * 0.01)[0]
        series["value"] = 0.2
        assert not rule.observe(0.24)[0]
        breached, detail = rule.observe(0.25)
        assert not breached
        assert "burn[0.06s]=2.86/1" in detail

    def test_both_windows_burning_breaches(self):
        """The third consecutive bad sample tips the long window past
        its budget (3/25 > 10%) and the rule breaches."""
        series = {"value": 0.0}
        rule = self._rule(series)
        for step in range(24):
            rule.observe(step * 0.01)
        series["value"] = 0.2
        rule.observe(0.24)
        rule.observe(0.25)
        breached, detail = rule.observe(0.26)
        assert breached
        assert "value=0.2" in detail

    def test_samples_pruned_past_longest_window(self):
        series = {"value": 0.0}
        rule = self._rule(series)
        for step in range(100):
            rule.observe(step * 0.01)
        assert len(rule._samples) <= 25


class TestLatencyPercentileRule:
    def test_no_samples_is_healthy(self):
        rule = LatencyPercentileRule("p99", LatencyRecorder("w"),
                                     bound=0.005)
        assert rule.observe(0.0) == (False, "no samples in window")

    def test_breaches_when_percentile_exceeds_bound(self):
        source = LatencyRecorder("w")
        rule = LatencyPercentileRule("p99", source, bound=0.005)
        for _ in range(20):
            source.record(0.001)
        assert not rule.observe(0.01)[0]
        for _ in range(20):
            source.record(0.02)
        breached, detail = rule.observe(0.02)
        assert breached
        assert detail.startswith("p99=")

    def test_cursor_consumes_each_sample_once(self):
        source = LatencyRecorder("w")
        rule = LatencyPercentileRule("p99", source, bound=0.005)
        source.record(0.001)
        assert "n=1" in rule.observe(0.01)[1]
        # re-observing without new samples must not double-count
        assert "n=1" in rule.observe(0.02)[1]

    def test_window_prunes_old_samples(self):
        source = LatencyRecorder("w")
        rule = LatencyPercentileRule("p99", source, bound=0.005,
                                     window=0.25)
        source.record(0.02)
        assert rule.observe(0.0)[0]
        assert rule.observe(0.5) == (False, "no samples in window")


class TestEngineAsProcess:
    def test_engine_runs_and_fires_deterministically(self):
        sim = Simulator(seed=5)
        flag = {"on": False}

        def flipper(sim):
            yield sim.timeout(0.05)
            flag["on"] = True
            yield sim.timeout(0.05)
            flag["on"] = False

        sim.spawn(flipper(sim), name="flipper")
        engine = SloEngine(sim, [ConditionRule("cond",
                                               lambda: flag["on"])],
                           interval=0.01).start()
        sim.run(until=0.2)
        engine.stop()
        states = [t.state for t in engine.transitions]
        assert states == ["firing", "resolved"]
        fired, resolved = engine.transitions
        assert 0.05 <= fired.time <= 0.07
        assert 0.10 <= resolved.time <= 0.12
        assert engine.evaluations >= 18
        rendering = engine.render()
        assert "cond" in rendering
        assert "transitions:" in rendering

    def test_start_is_idempotent(self):
        sim = Simulator(seed=6)
        engine = SloEngine(sim, [ConditionRule("cond", lambda: False)])
        assert engine.start() is engine
        first = engine._process
        engine.start()
        assert engine._process is first


class TestStandardRules:
    def test_rule_set_against_live_deployment(self):
        sim = Simulator(seed=31)
        site = build_two_site(sim, adc=fast_adc())
        main_jnl = site.main.create_journal(site.main_pool_id, 1000)
        backup_jnl = site.backup.create_journal(site.backup_pool_id, 1000)
        group = site.main.create_journal_group(
            "cg", main_jnl.journal_id, site.backup,
            backup_jnl.journal_id, site.link)
        rules = standard_rules(site.main, group)
        assert [rule.name for rule in rules] == \
            ["host-write-p99", "rpo-journal-lag", "replication-suspended"]
        engine = SloEngine(sim, rules).start()
        sim.run(until=0.3)
        engine.stop()
        # a healthy, idle deployment never alerts
        assert engine.transitions == []
        assert engine.firing_rules() == []

    def test_coordinator_adds_in_doubt_rule(self):
        class FakeCoordinator:
            in_doubt = {}

        sim = Simulator(seed=32)
        site = build_two_site(sim, adc=fast_adc())
        main_jnl = site.main.create_journal(site.main_pool_id, 1000)
        backup_jnl = site.backup.create_journal(site.backup_pool_id, 1000)
        group = site.main.create_journal_group(
            "cg", main_jnl.journal_id, site.backup,
            backup_jnl.journal_id, site.link)
        rules = standard_rules(site.main, group, FakeCoordinator())
        assert rules[-1].name == "in-doubt-transactions"
