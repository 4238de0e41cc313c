"""Integration tests of the asynchronous data copy pipeline (ADC).

These tests pin the paper's §III-A1 mechanics one scenario each:
journaled writes, initial copy, journal overflow suspension,
split/resync, failover drain.  Ordering, cuts and convergence under
every knob are the executable specification's (``tests/spec``).
"""

import pytest

from repro.bench.setups import build_array_pair
from repro.errors import VolumeError
from repro.simulation import Simulator
from repro.storage import AdcConfig, PairState
from repro.storage.adc import JOURNAL_APPEND_LATENCY
from repro.storage.replication import (COPY_BATCH_BLOCKS,
                                       NEGOTIATE_METADATA_BYTES)
from tests.storage.conftest import (build_pipeline, build_two_site,
                                    fast_adc, hold_restore,
                                    journal_entries, make_async_pair,
                                    run)


class TestBasicReplication:
    def test_write_converges_to_svol(self, sim, two_site):
        pvol, svol = make_async_pair(two_site)
        run(sim, two_site.main.host_write(pvol.volume_id, 0, b"hello"))
        sim.run(until=sim.now + 1.0)
        assert svol.peek(0).payload == b"hello"
        assert svol.peek(0).version == pvol.peek(0).version

    def test_ack_does_not_wait_for_network(self, sim, two_site):
        """The ADC promise: host latency excludes the inter-site link."""
        pvol, _svol = make_async_pair(two_site)
        run(sim, two_site.main.host_write(pvol.volume_id, 0, b"x"))
        summary = two_site.main.write_latency.summary()
        # local write + journal append only; the 5 ms link never appears
        assert summary.maximum < two_site.link.latency

    def test_svol_rejects_host_writes(self, sim, two_site):
        _pvol, svol = make_async_pair(two_site)
        with pytest.raises(VolumeError):
            run(sim, two_site.backup.host_write(svol.volume_id, 0, b"x"))

    def test_initial_copy_of_preexisting_data(self, sim, two_site):
        pvol = two_site.main.create_volume(two_site.main_pool_id, 64)
        for block in range(10):
            run(sim, two_site.main.host_write(pvol.volume_id, block,
                                              b"pre%d" % block))
        svol = two_site.backup.create_volume(two_site.backup_pool_id, 64)
        main_jnl = two_site.main.create_journal(two_site.main_pool_id, 1000)
        backup_jnl = two_site.backup.create_journal(
            two_site.backup_pool_id, 1000)
        two_site.main.create_journal_group(
            "jg-ic", main_jnl.journal_id, two_site.backup,
            backup_jnl.journal_id, two_site.link)
        pair = two_site.main.create_async_pair(
            "pair-ic", "jg-ic", pvol.volume_id, two_site.backup,
            svol.volume_id)
        assert pair.state is PairState.COPY
        sim.run(until=sim.now + 1.0)
        assert pair.state is PairState.PAIR
        assert svol.block_map() == pvol.block_map()

    def test_empty_volume_pair_is_immediately_paired(self, sim, two_site):
        _pvol, _svol = make_async_pair(two_site)
        pair = two_site.main.find_pair("pair-0")
        assert pair.state is PairState.PAIR


class TestSuspension:
    def test_journal_overflow_suspends_pair(self, sim):
        site = build_two_site(Simulator(seed=6), adc=fast_adc(
            transfer_interval=10.0))  # transfer never runs in test window
        sim = site.sim
        pvol = site.main.create_volume(site.main_pool_id, 64)
        svol = site.backup.create_volume(site.backup_pool_id, 64)
        main_jnl = site.main.create_journal(site.main_pool_id, 5)
        backup_jnl = site.backup.create_journal(site.backup_pool_id, 100)
        site.main.create_journal_group(
            "jg", main_jnl.journal_id, site.backup,
            backup_jnl.journal_id, site.link)
        pair = site.main.create_async_pair(
            "pair", "jg", pvol.volume_id, site.backup, svol.volume_id)

        def writer(sim):
            for i in range(10):
                yield from site.main.host_write(pvol.volume_id, i % 64,
                                                b"w%d" % i)

        run(sim, writer(sim))
        assert pair.state is PairState.PSUE
        assert "journal full" in pair.suspend_reason
        # writes continued to be acked (fence never) and were dirty-tracked
        assert len(pair.dirty_blocks) > 0

    def test_split_and_resync(self, sim, two_site):
        pvol, svol = make_async_pair(two_site)
        group = two_site.main.journal_groups["jg-0"]
        run(sim, two_site.main.host_write(pvol.volume_id, 0, b"before"))
        sim.run(until=sim.now + 0.5)
        group.split()
        pair = two_site.main.find_pair("pair-0")
        assert pair.state is PairState.PSUS
        run(sim, two_site.main.host_write(pvol.volume_id, 1, b"during"))
        sim.run(until=sim.now + 0.5)
        assert svol.peek(1) is None  # split: update not propagated
        run(sim, group.resync())
        sim.run(until=sim.now + 0.5)
        assert pair.state is PairState.PAIR
        assert svol.peek(1).payload == b"during"

    def test_pair_added_to_a_suspended_group_is_suspended(self):
        """Regression: a pair joining a split group reported PAIR over an
        empty S-VOL; it now shares the group's suspension until the next
        resync copies its blocks."""
        p = build_array_pair(1, AdcConfig(), "x")
        pvol = p.main.create_volume(p.main_pool_id, 64)
        svol = p.backup.create_volume(p.backup_pool_id, 64)
        p.sim.run_until_complete(p.sim.spawn(p.main.host_write_many(
            [(pvol.volume_id, block, b"late%d" % block)
             for block in range(5)])))
        p.group.split()
        late = p.main.create_async_pair("late", "x", pvol.volume_id,
                                        p.backup, svol.volume_id)
        assert p.main.pair_status("late") is PairState.PSUS
        assert late.suspend_reason == "split by operator"
        assert late.dirty_blocks == {(pvol.volume_id, block)
                                     for block in range(5)}
        assert svol.used_blocks == 0
        p.sim.run_until_complete(p.sim.spawn(p.group.resync()))
        p.sim.run(until=p.sim.now + 0.5)
        assert p.main.pair_status("late") is PairState.PAIR
        assert not late.dirty_blocks
        assert svol.block_map() == pvol.block_map()

    def test_link_down_retries_until_restore(self, sim, two_site):
        pvol, svol = make_async_pair(two_site)
        two_site.link.fail()
        run(sim, two_site.main.host_write(pvol.volume_id, 0, b"x"))
        sim.run(until=sim.now + 0.2)
        assert svol.peek(0) is None
        two_site.link.restore()
        sim.run(until=sim.now + 0.5)
        assert svol.peek(0).payload == b"x"


class TestResyncNegotiation:
    BLOCKS = 70  # three negotiation chunks, each with stale blocks

    def resync_over_a_partly_current_dirty_set(self, lanes):
        """Every block dirty, every third rewritten while split: returns
        (pipeline, pair, stale blocks, bytes the resync put on the link,
        its simulated duration)."""
        p = build_pipeline(5, blocks=128, apply_lanes=lanes)
        pvol = p.pvols[0]
        pair = p.main.find_pair("pair-0")
        run(p.sim, p.main.host_write_many(
            [(pvol.volume_id, block, b"v1-%d" % block)
             for block in range(self.BLOCKS)]))
        p.sim.run(until=p.sim.now + 0.5)
        assert p.svols[0].block_map() == pvol.block_map()
        p.group.split()
        stale = list(range(0, self.BLOCKS, 3))
        run(p.sim, p.main.host_write_many(
            [(pvol.volume_id, block, b"v2-%d" % block) for block in stale]))
        # e.g. quarantined entries whose newer writes already applied:
        # dirty, yet current on the S-VOL
        for block in range(self.BLOCKS):
            pair.mark_dirty(pvol.volume_id, block)
        p.group.stop_transfer()  # the link carries the resync alone
        p.sim.run(until=p.sim.now + 0.05)
        wire, start = p.link.bytes_transferred, p.sim.now
        run(p.sim, p.group.resync())
        return (p, pair, stale, p.link.bytes_transferred - wire,
                p.sim.now - start)

    @pytest.mark.parametrize("lanes", [1, 4])
    def test_resync_pays_for_its_negotiation(self, lanes):
        p, pair, stale, wire, elapsed = \
            self.resync_over_a_partly_current_dirty_set(lanes)
        assert p.group.copy_skipped.value == self.BLOCKS - len(stale)
        assert wire == NEGOTIATE_METADATA_BYTES * self.BLOCKS
        chunks = -(-self.BLOCKS // COPY_BATCH_BLOCKS)
        # one journal append per chunk, whatever apply_lanes says
        journaled = journal_entries(p.group.main_journal)
        assert [entry.block for entry in journaled] == stale
        assert len({entry.created_at for entry in journaled}) == chunks
        assert elapsed == pytest.approx(
            chunks * (2 * p.link.latency + JOURNAL_APPEND_LATENCY))
        assert pair.state is PairState.PAIR
        assert not pair.dirty_blocks

    def test_a_write_during_the_negotiation_is_not_undone(self):
        """The copy journals a block as it is at append time: a host
        write landing mid-negotiation is journaled ahead of the copy,
        and a restore window coalescing the two keeps the copy."""
        p = build_pipeline(5, blocks=16, apply_lanes=4)
        pvol, svol = p.pvols[0], p.svols[0]
        run(p.sim, p.main.host_write(pvol.volume_id, 0, b"v1"))
        p.sim.run(until=p.sim.now + 0.5)
        p.group.split()
        run(p.sim, p.main.host_write(pvol.volume_id, 0, b"v2"))
        resume = hold_restore(p.group)
        resync = p.sim.spawn(p.group.resync())
        p.sim.run(until=p.sim.now + p.link.latency / 2)
        run(p.sim, p.main.host_write(pvol.volume_id, 0, b"v3"))
        p.sim.run_until_complete(resync)
        p.sim.run(until=p.sim.now + 0.1)
        assert [entry.block for entry in
                journal_entries(p.group.backup_journal)] == [0, 0]
        resume()
        p.sim.run(until=p.sim.now + 0.5)
        assert svol.block_map() == pvol.block_map()


class TestFailover:
    def test_drain_applies_backup_journal_only(self, sim, two_site):
        """After a main-site disaster, data already at the backup journal
        is restored; data still in the main journal is lost (bounded RPO)."""
        pvol, svol = make_async_pair(two_site)
        group = two_site.main.journal_groups["jg-0"]

        def writer(sim):
            for i in range(20):
                yield from two_site.main.host_write(
                    pvol.volume_id, i, b"w%d" % i)

        run(sim, writer(sim))
        sim.run(until=sim.now + 0.0005)  # freeze mid-replication
        two_site.main.fail()
        two_site.link.fail()
        group.stop()
        lost_in_main = len(group.main_journal)
        run(sim, group.drain())
        applied_blocks = len(svol.block_map())
        assert applied_blocks + lost_in_main >= 20
        # everything ingested at the backup got applied
        assert len(group.backup_journal) == 0

    def test_promote_secondary_makes_svol_writable(self, sim, two_site):
        pvol, svol = make_async_pair(two_site)
        sim.run(until=sim.now + 0.5)
        two_site.backup.promote_secondary(svol.volume_id)
        pair = two_site.main.find_pair("pair-0")
        assert pair.state is PairState.SSWS
        record = run(sim, two_site.backup.host_write(
            svol.volume_id, 0, b"promoted"))
        assert record.volume_id == svol.volume_id

    def test_failed_array_rejects_io(self, sim, two_site):
        pvol, _svol = make_async_pair(two_site)
        two_site.main.fail()
        from repro.errors import StorageError
        with pytest.raises(StorageError):
            run(sim, two_site.main.host_write(pvol.volume_id, 0, b"x"))
