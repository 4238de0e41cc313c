"""Unit tests of the fault catalog and the integrity/repair pipeline.

The first half drives the ADC integrity machinery directly (wire
corruption, torn journal writes, overflow during resync) on the small
two-site rig from the storage tests; the second half exercises the
:class:`Fault` objects against a full chaos environment, including the
overlap semantics of their heal hooks.
"""

import dataclasses

import pytest

from repro.chaos import (ArrayCrash, JournalCorruption, JournalSqueeze,
                         LinkPartition, SlowDisk, WireCorruption,
                         build_chaos_environment)
from repro.errors import StorageError
from repro.storage import PairState
from tests.storage.conftest import (build_two_site, fast_adc, hold_repair,
                                    hold_restore, make_async_pair, run)


def corrupt_first_entry(group, state):
    """Install a wire injector that corrupts exactly one entry."""

    def injector(entry):
        if state["corrupted"] is None:
            payload = entry.payload or b"\x00"
            mutated = bytes([payload[0] ^ 0xFF]) + payload[1:]
            state["corrupted"] = mutated
            # checksum left stale: the signature of in-flight bit rot
            return dataclasses.replace(entry, payload=mutated)
        return entry

    group.install_wire_injector(injector)


class TestWireIntegrity:
    def test_corruption_detected_quarantined_and_repaired(self, sim):
        site = build_two_site(sim)
        pvol, svol = make_async_pair(site)
        group = site.main.journal_groups["jg-0"]
        state = {"corrupted": None}
        corrupt_first_entry(group, state)

        run(sim, site.main.host_write(pvol.volume_id, 0, b"good-data"))
        sim.run(until=sim.now + 2.0)

        assert group.corruptions_wire.value == 1
        assert len(group.quarantine) == 1
        assert group.repair_resyncs.value >= 1
        assert group.pairs["pair-0"].state is PairState.PAIR
        # the pristine payload made it; the corrupted one never did
        assert svol.peek(0).payload == b"good-data"
        applied = {value.payload for value in svol.block_map().values()}
        assert state["corrupted"] not in applied

    def test_without_auto_repair_stays_suspended(self, sim):
        site = build_two_site(sim)
        pvol, svol = make_async_pair(site)
        group = site.main.journal_groups["jg-0"]
        hold_repair(group)
        corrupt_first_entry(group, {"corrupted": None})

        run(sim, site.main.host_write(pvol.volume_id, 0, b"good-data"))
        sim.run(until=sim.now + 1.0)

        assert group.corruptions_wire.value == 1
        assert group.suspended
        assert group.pairs["pair-0"].state is PairState.PSUE
        assert svol.peek(0) is None
        # a manual resync (the operator's `pairresync`) recovers
        run(sim, group.resync())
        sim.run(until=sim.now + 1.0)
        assert group.pairs["pair-0"].state is PairState.PAIR
        assert svol.peek(0).payload == b"good-data"


class TestJournalIntegrity:
    def test_torn_backup_entry_detected_at_restore(self, sim):
        site = build_two_site(sim)
        pvol, svol = make_async_pair(site)
        group = site.main.journal_groups["jg-0"]

        # hold the restore loop so the entry is parked in the backup
        # journal when the torn write hits it
        resume = hold_restore(group)
        run(sim, site.main.host_write(pvol.volume_id, 3, b"payload"))
        sim.run(until=sim.now + 0.5)
        assert len(group.backup_journal) == 1
        corrupted = group.backup_journal.corrupt_entry(0)
        assert corrupted is not None
        resume()
        sim.run(until=sim.now + 2.0)

        assert group.corruptions_journal.value == 1
        assert group.repair_resyncs.value >= 1
        assert group.pairs["pair-0"].state is PairState.PAIR
        assert svol.peek(3).payload == b"payload"
        applied = {value.payload for value in svol.block_map().values()}
        assert corrupted.payload not in applied


class TestResyncOverflow:
    def test_resuspension_mid_resync_loses_no_dirty_blocks(self, sim):
        """Regression: a resync cut short by a second overflow, or by the
        link failing during its negotiation, must leave every block it
        did not journal dirty."""
        site = build_two_site(sim, adc=fast_adc())
        pvol = site.main.create_volume(site.main_pool_id, 256)
        svol = site.backup.create_volume(site.backup_pool_id, 256)
        main_jnl = site.main.create_journal(site.main_pool_id, 5)
        backup_jnl = site.backup.create_journal(site.backup_pool_id, 1000)
        site.main.create_journal_group(
            "jg-tiny", main_jnl.journal_id, site.backup,
            backup_jnl.journal_id, site.link)
        pair = site.main.create_async_pair(
            "pair-tiny", "jg-tiny", pvol.volume_id, site.backup,
            svol.volume_id)
        group = site.main.journal_groups["jg-tiny"]
        sim.run(until=sim.now + 0.1)
        assert pair.state is PairState.PAIR

        group.stop_transfer()  # nothing drains: overflow is certain

        def writer():
            for block in range(20):
                yield from site.main.host_write(
                    pvol.volume_id, block, b"blk%02d" % block)

        run(sim, writer())
        assert group.suspended
        assert pair.state is PairState.PSUE
        written = {(pvol.volume_id, block) for block in range(20)}

        def covered():
            journaled = {(entry.volume_id, entry.block)
                         for entry in group.main_journal.peek_batch(10**6)}
            return journaled | set(pair.dirty_blocks)

        assert covered() >= written
        # give the journal a little headroom: the resync re-journals a
        # few blocks, overflows again and must re-suspend mid-loop
        group.main_journal.capacity_entries += 5
        run(sim, group.resync())
        assert group.suspended  # suspended again (journal refilled)
        assert covered() >= written  # the consumed dirty set survived

        # real capacity, but the link fails while the resync negotiates
        group.main_journal.capacity_entries = 10_000
        resync = sim.spawn(group.resync())
        sim.run(until=sim.now + site.link.latency / 2)
        assert not group.suspended and resync.alive
        site.link.fail()
        sim.run_until_complete(resync)
        assert pair.state is PairState.PSUE
        assert pair.suspend_reason == "link down during resync"
        assert covered() >= written

        # heal: link back, pipelines restarted, auto-repair drives it
        site.link.restore()
        group.restart()
        group.ensure_repair()
        sim.run(until=sim.now + 2.0)
        assert not group.suspended
        assert pair.state is PairState.PAIR
        assert svol.block_map() == pvol.block_map()


class TestFaultObjects:
    def test_validation(self):
        with pytest.raises(ValueError):
            LinkPartition(-0.1)
        with pytest.raises(ValueError):
            LinkPartition(0.1, -0.5)
        with pytest.raises(ValueError):
            JournalSqueeze(0.1, 0.1, slack=0)
        with pytest.raises(ValueError):
            SlowDisk(0.1, 0.1, factor=0.5)
        with pytest.raises(ValueError):
            WireCorruption(0.1, 0.1, probability=0.0)

    def test_journal_squeeze_overlap_heals_to_original(self):
        env = build_chaos_environment(seed=5)
        journal = env.group.main_journal
        original = journal.capacity_entries
        first = JournalSqueeze(0.0, 0.1)
        second = JournalSqueeze(0.0, 0.1)
        first.inject(env)
        second.inject(env)  # saves the already-squeezed capacity
        assert journal.capacity_entries < original
        first.heal(env)
        second.heal(env)
        assert journal.capacity_entries == original

    def test_slow_disk_overlap_heals_to_nominal(self):
        env = build_chaos_environment(seed=5)
        array = env.system.main.array
        volume_id = sorted(env.business.volume_ids.values())[0]
        volume = array.get_volume(volume_id)
        nominal = volume.media
        first = SlowDisk(0.0, 0.1, factor=10.0)
        second = SlowDisk(0.0, 0.1, factor=10.0)
        first.inject(env)
        second.inject(env)  # saves the already-inflated profile
        assert volume.media.write_latency == pytest.approx(
            nominal.write_latency * 100.0)
        first.heal(env)
        second.heal(env)
        assert volume.media.read_latency == nominal.read_latency
        assert volume.media.write_latency == nominal.write_latency
        assert volume.media.cow_copy_latency == nominal.cow_copy_latency

    def test_link_partition_lag_converges_after_heal(self):
        env = build_chaos_environment(seed=5)
        sim, group = env.sim, env.group
        fault = LinkPartition(0.0, 0.1)
        fault.inject(env)
        volume_id = sorted(env.business.volume_ids.values())[0]

        def writer():
            for block in range(8):
                yield from env.system.main.array.host_write(
                    volume_id, block, b"part%d" % block)

        sim.run_until_complete(sim.spawn(writer()))
        sim.run(until=sim.now + 0.2)
        assert group.entry_lag > 0 or group.suspended
        fault.heal(env)
        sim.run(until=sim.now + 2.0)
        assert not group.suspended
        assert group.entry_lag == 0

    def test_array_crash_rejects_io_until_healed(self):
        env = build_chaos_environment(seed=5)
        sim = env.sim
        volume_id = sorted(env.business.volume_ids.values())[0]
        fault = ArrayCrash(0.0, 0.1)
        assert fault.local
        fault.inject(env)
        with pytest.raises(StorageError):
            sim.run_until_complete(sim.spawn(
                env.system.main.array.host_write(volume_id, 0, b"x")))
        fault.heal(env)
        sim.run_until_complete(sim.spawn(
            env.system.main.array.host_write(volume_id, 0, b"back")))
        sim.run(until=sim.now + 2.0)
        assert not env.group.suspended
        assert env.group.entry_lag == 0

    def test_corruption_faults_register_and_never_leak(self):
        env = build_chaos_environment(seed=5)
        sim, group = env.sim, env.group
        volume_id = sorted(env.business.volume_ids.values())[0]
        fault = WireCorruption(0.0, 0.2, probability=1.0)
        fault.inject(env)

        def writer():
            for block in range(6):
                yield from env.system.main.array.host_write(
                    volume_id, block, b"wire%d" % block)

        sim.run_until_complete(sim.spawn(writer()))
        sim.run(until=sim.now + 0.2)
        fault.heal(env)
        sim.run(until=sim.now + 3.0)

        assert env.corrupted_payloads
        assert group.corruptions_wire.value >= 1
        assert not group.suspended and group.entry_lag == 0
        for pair in group.pairs.values():
            for value in pair.svol.block_map().values():
                assert value.payload not in env.corrupted_payloads

    def test_journal_corruption_targets_backup_then_main(self):
        env = build_chaos_environment(seed=5)
        sim, group = env.sim, env.group
        volume_id = sorted(env.business.volume_ids.values())[0]
        resume = hold_restore(group)
        sim.run_until_complete(sim.spawn(
            env.system.main.array.host_write(volume_id, 0, b"torn-me")))
        sim.run(until=sim.now + 0.3)
        assert len(group.backup_journal) >= 1
        fault = JournalCorruption(0.0)
        detail = fault.inject(env)
        assert "backup journal" in detail
        resume()
        sim.run(until=sim.now + 2.0)

        assert env.corrupted_payloads
        assert group.corruptions_journal.value >= 1
        assert not group.suspended and group.entry_lag == 0
        for pair in group.pairs.values():
            for value in pair.svol.block_map().values():
                assert value.payload not in env.corrupted_payloads
