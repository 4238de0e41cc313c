"""Tests for the periodic telemetry probes (journal lag, pair states,
snapshot age) under normal replication, suspension and resync."""

import pytest

from repro.simulation import Simulator
from repro.telemetry import ArrayProbe, start_probes
from tests.storage.conftest import build_two_site, fast_adc, run


def _paired_site(sim, adc=None, journal_entries=10_000):
    site = build_two_site(sim, adc=adc or fast_adc())
    pvol = site.main.create_volume(site.main_pool_id, 64)
    svol = site.backup.create_volume(site.backup_pool_id, 64)
    main_jnl = site.main.create_journal(site.main_pool_id, journal_entries)
    backup_jnl = site.backup.create_journal(site.backup_pool_id,
                                            journal_entries)
    site.main.create_journal_group("jg", main_jnl.journal_id, site.backup,
                                   backup_jnl.journal_id, site.link)
    site.main.create_async_pair("pair", "jg", pvol.volume_id, site.backup,
                                svol.volume_id)
    return site, pvol, svol


class TestEntryLagSampling:
    def test_lag_gauges_reflect_unshipped_entries(self):
        sim = Simulator(seed=31)
        # transfer never runs inside the test window: lag accumulates
        site, pvol, _svol = _paired_site(
            sim, adc=fast_adc(transfer_interval=60.0))
        probe = ArrayProbe(sim, site.main)

        def writer(sim):
            for i in range(7):
                yield from site.main.host_write(pvol.volume_id, i, b"x")

        run(sim, writer(sim))
        probe.sample_once()
        registry = sim.telemetry.registry
        assert registry.get("repro_journal_entry_lag",
                            group="jg").value == 7
        assert registry.get("repro_journal_byte_lag_bytes",
                            group="jg").value > 0
        assert registry.get("repro_journal_oldest_entry_age_seconds",
                            group="jg").value > 0
        assert registry.get("repro_journal_suspended",
                            group="jg").value == 0

    def test_periodic_process_samples_on_its_own(self):
        sim = Simulator(seed=32)
        site, pvol, _svol = _paired_site(sim)
        probes = start_probes(sim, [site.main, site.backup],
                              interval=0.01)
        assert len(probes) == 2
        run(sim, site.main.host_write(pvol.volume_id, 0, b"x"))
        sim.run(until=sim.now + 0.1)
        registry = sim.telemetry.registry
        samples = registry.get("repro_journal_entry_lag", group="jg")
        assert len(samples) >= 5  # ~10 sampling periods elapsed
        # converged system: the latest sample shows zero lag
        assert samples.value == 0

    def test_backup_array_does_not_duplicate_group_series(self):
        """Journal groups register on both arrays; only the journal
        owner (the main side) may sample, else series double-write."""
        sim = Simulator(seed=33)
        site, _pvol, _svol = _paired_site(sim)
        backup_probe = ArrayProbe(sim, site.backup)
        backup_probe.sample_once()
        registry = sim.telemetry.registry
        lag = registry.get("repro_journal_entry_lag", group="jg")
        assert lag is None or len(lag) == 0

    def test_interval_must_be_positive(self):
        sim = Simulator(seed=34)
        site, _pvol, _svol = _paired_site(sim)
        with pytest.raises(ValueError):
            ArrayProbe(sim, site.main, interval=0)


class TestSuspensionAndResync:
    def test_suspended_gauge_and_transition_counters(self):
        sim = Simulator(seed=35)
        site, pvol, _svol = _paired_site(sim)
        probe = ArrayProbe(sim, site.main)
        sim.run(until=sim.now + 0.5)  # initial copy settles into PAIR
        probe.sample_once()
        group = site.main.journal_groups["jg"]
        registry = sim.telemetry.registry
        assert registry.get("repro_journal_suspended",
                            group="jg").value == 0

        group.split()
        probe.sample_once()
        assert registry.get("repro_journal_suspended",
                            group="jg").value == 1
        split = registry.get("repro_pair_state_transitions_total",
                             engine="jg", pair="pair",
                             transition="PAIR->PSUS")
        assert split is not None and split.value == 1

        run(sim, group.resync())
        sim.run(until=sim.now + 0.5)
        probe.sample_once()
        assert registry.get("repro_journal_suspended",
                            group="jg").value == 0
        resynced = registry.get("repro_pair_state_transitions_total",
                                engine="jg", pair="pair",
                                transition="PSUS->PAIR")
        assert resynced is not None and resynced.value == 1

    def test_writes_during_split_keep_lag_visible(self):
        sim = Simulator(seed=36)
        site, pvol, _svol = _paired_site(sim)
        probe = ArrayProbe(sim, site.main)
        sim.run(until=sim.now + 0.5)
        group = site.main.journal_groups["jg"]
        group.split()
        run(sim, site.main.host_write(pvol.volume_id, 1, b"during"))
        probe.sample_once()
        registry = sim.telemetry.registry
        # a split pair journals nothing: entry lag stays 0 while the
        # suspension gauge explains why the backup is falling behind
        assert registry.get("repro_journal_entry_lag",
                            group="jg").value == 0
        assert registry.get("repro_journal_suspended",
                            group="jg").value == 1


class TestSnapshotAge:
    def test_snapshot_group_age_sampled(self):
        sim = Simulator(seed=37)
        site, _pvol, svol = _paired_site(sim)
        sim.run(until=sim.now + 0.5)
        group_proc = sim.spawn(site.backup.create_snapshot_group(
            "snap-g", [svol.volume_id]))
        sim.run_until_complete(group_proc)
        sim.run(until=sim.now + 0.25)
        probe = ArrayProbe(sim, site.backup)
        probe.sample_once()
        age = sim.telemetry.registry.get(
            "repro_snapshot_age_seconds", array=site.backup.serial,
            group="snap-g")
        assert age is not None
        assert age.value == pytest.approx(0.25, abs=0.05)

    def test_samples_taken_counter(self):
        sim = Simulator(seed=38)
        site, _pvol, _svol = _paired_site(sim)
        probe = ArrayProbe(sim, site.main)
        probe.sample_once()
        probe.sample_once()
        assert probe.samples_taken == 2
