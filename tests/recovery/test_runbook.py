"""Crash-restartable runbooks: unit semantics and the interrupted-
failover equivalence acceptance test.

The acceptance bar (ISSUE PR 7): a ``FailoverManager`` killed at
*every* step boundary and resumed by a fresh manager must produce
byte-identical promoted volume images, identical per-step duration
accounting, and the same RPO/RTO numbers as the uninterrupted run.
"""

import pytest

from repro.errors import RunbookInterrupted
from repro.recovery import FailbackManager, Runbook, RunbookJournal
from repro.simulation import Simulator
from tests.recovery.interrupt_harness import (FAILOVER_STEPS,
                                              run_interrupted_failover,
                                              run_uninterrupted_failover)
from tests.recovery.test_failback import disaster_then_serve_at_backup


def run_step(sim, runbook, name, fn, volatile=False):
    process = sim.spawn(runbook.step(name, fn, volatile=volatile),
                        name=f"step-{name}")
    return sim.run_until_complete(process)


class TestRunbook:
    def test_checkpointed_step_runs_exactly_once(self):
        sim = Simulator(seed=1)
        journal = RunbookJournal()
        calls = []
        first = Runbook(sim, "proc", journal=journal)
        payload = run_step(sim, first, "promote",
                           lambda: calls.append("x") or {"svols": [7, 9]})
        assert payload == {"svols": [7, 9]}

        resumed = Runbook(sim, "proc", journal=journal)
        assert resumed.resumed
        replayed = run_step(sim, resumed, "promote",
                            lambda: calls.append("x"))
        # the persisted payload comes back; the side effect never re-ran
        assert replayed == {"svols": [7, 9]}
        assert calls == ["x"]
        registry = sim.telemetry.registry
        assert registry.counter("repro_runbook_steps_skipped_total",
                                runbook="proc").value == 1
        assert registry.counter("repro_runbook_resumes_total",
                                runbook="proc").value == 1

    def test_volatile_step_reruns_on_resume(self):
        sim = Simulator(seed=1)
        journal = RunbookJournal()
        calls = []
        first = Runbook(sim, "proc", journal=journal)
        run_step(sim, first, "verify", lambda: calls.append("a"),
                 volatile=True)
        resumed = Runbook(sim, "proc", journal=journal)
        run_step(sim, resumed, "verify", lambda: calls.append("b"),
                 volatile=True)
        assert calls == ["a", "b"]
        # volatile payloads are never persisted to the journal
        assert journal.load("proc").steps["verify"].payload is None

    def test_crash_after_fires_after_the_checkpoint_is_durable(self):
        sim = Simulator(seed=1)
        journal = RunbookJournal()
        runbook = Runbook(sim, "proc", journal=journal,
                          crash_after="drain")
        with pytest.raises(RunbookInterrupted) as exc_info:
            run_step(sim, runbook, "drain", lambda: 42)
        assert exc_info.value.step == "drain"
        # the step completed and checkpointed before the crash: a
        # successor skips it and sees the payload
        record = journal.load("proc").steps["drain"]
        assert record.payload == 42

    def test_generator_steps_consume_simulated_time(self):
        sim = Simulator(seed=1)
        runbook = Runbook(sim, "proc")

        def slow_step():
            yield sim.timeout(0.250)
            return "done"

        assert run_step(sim, runbook, "drain", slow_step) == "done"
        assert runbook.step_durations()["drain"] == pytest.approx(0.250)

    def test_resumed_run_reports_the_original_durations(self):
        sim = Simulator(seed=1)
        journal = RunbookJournal()

        def slow(delay):
            def step():
                yield sim.timeout(delay)
                return delay
            return step

        first = Runbook(sim, "proc", journal=journal, crash_after="two")
        run_step(sim, first, "one", slow(0.100))
        with pytest.raises(RunbookInterrupted):
            run_step(sim, first, "two", slow(0.300))
        sim.run(until=sim.now + 5.0)  # dead time before the resume

        resumed = Runbook(sim, "proc", journal=journal)
        run_step(sim, resumed, "one", slow(0.100))  # skipped
        run_step(sim, resumed, "two", slow(0.300))  # skipped
        run_step(sim, resumed, "three", slow(0.200))
        durations = resumed.step_durations()
        assert list(durations) == ["one", "two", "three"]
        assert durations["one"] == pytest.approx(0.100)
        assert durations["two"] == pytest.approx(0.300)
        assert durations["three"] == pytest.approx(0.200)
        assert resumed.state.incarnation == 1
        assert resumed.state.steps["two"].incarnation == 0
        assert resumed.state.steps["three"].incarnation == 1

    def test_journal_payloads_are_isolated_copies(self):
        sim = Simulator(seed=1)
        journal = RunbookJournal()
        runbook = Runbook(sim, "proc", journal=journal)
        payload = run_step(sim, runbook, "discover",
                           lambda: {"sales": 7})
        payload["sales"] = 999  # the caller scribbles on its copy
        assert journal.load("proc").steps["discover"].payload == \
            {"sales": 7}


@pytest.fixture(scope="module")
def baseline():
    return run_uninterrupted_failover(seed=61)


class TestInterruptedFailoverEquivalence:
    def test_step_catalog_matches_the_manager(self, baseline):
        # keeps FAILOVER_STEPS honest: a step added to or renamed in
        # FailoverManager.execute must show up here to stay covered
        assert tuple(baseline.report.step_durations) == FAILOVER_STEPS

    @pytest.mark.parametrize("step", FAILOVER_STEPS)
    def test_resume_is_equivalent_at_every_boundary(self, baseline, step):
        resumed = run_interrupted_failover(seed=61, crash_after=step)
        assert resumed.report.resumed
        assert not baseline.report.resumed
        # byte-identical promoted images
        assert resumed.images == baseline.images
        # identical per-step wall-clock accounting
        assert resumed.report.step_durations == \
            baseline.report.step_durations
        # identical RPO/RTO bookkeeping
        assert resumed.report.lost_acked_writes == \
            baseline.report.lost_acked_writes
        assert resumed.report.lost_committed_orders == \
            baseline.report.lost_committed_orders
        assert resumed.report.rpo_seconds == baseline.report.rpo_seconds
        assert resumed.report.drained_entries == \
            baseline.report.drained_entries
        # and the resumed business is just as healthy
        assert resumed.report.succeeded
        assert resumed.report.business_report.consistent

    def test_baseline_is_a_clean_failover(self, baseline):
        assert baseline.report.succeeded
        assert baseline.report.business_report.consistent
        # an async-replication disaster may lose in-flight tail orders,
        # but the loss must be measured and fully itemised
        assert baseline.report.lost_committed_orders >= 0
        assert len(baseline.report.lost_gtids) == \
            baseline.report.lost_committed_orders


class TestInterruptedFailback:
    def test_failback_resumes_after_a_crash(self):
        sim, system, business, promoted, secondary = \
            disaster_then_serve_at_backup(seed=142)
        journal = RunbookJournal()
        crashed = FailbackManager(
            system, secondary_volume_ids=secondary,
            original_volume_ids=business.volume_ids,
            bucket_count=business.config.bucket_count,
            journal=journal, crash_after="reverse_pairs")
        process = sim.spawn(crashed.execute(
            promoted.app, list(promoted.app.catalog.values())))
        with pytest.raises(RunbookInterrupted) as exc_info:
            sim.run_until_complete(process, timeout=120.0)
        assert exc_info.value.step == "reverse_pairs"

        fresh = FailbackManager(
            system, secondary_volume_ids=secondary,
            original_volume_ids=business.volume_ids,
            bucket_count=business.config.bucket_count,
            journal=journal)
        process = sim.spawn(fresh.execute(
            promoted.app, list(promoted.app.catalog.values())))
        result = sim.run_until_complete(process, timeout=120.0)
        report = result.report
        assert report.resumed
        assert report.succeeded
        assert report.business_report.consistent
        # the reverse pairs were created exactly once: the resumed run
        # skipped the checkpointed steps instead of re-driving them
        registry = sim.telemetry.registry
        assert registry.counter("repro_runbook_steps_skipped_total",
                                runbook="failback").value >= 2
        # the returned app serves at the repaired main site
        assert not system.main.array.failed
