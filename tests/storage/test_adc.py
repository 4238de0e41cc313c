"""Integration tests of the asynchronous data copy pipeline (ADC).

These tests exercise the paper's §III-A1 mechanics end to end: journaled
writes, background transfer/restore, consistency-group ordering, initial
copy, journal overflow suspension, split/resync, failover drain.
"""

import pytest

from repro.errors import VolumeError
from repro.simulation import Simulator
from repro.storage import PairState
from tests.storage.conftest import build_two_site, fast_adc, run


def make_async_pair(site, blocks=256, group_id="jg-0", pair_id="pair-0"):
    """Create one ADC pair in its own journal group; returns (pvol, svol)."""
    pvol = site.main.create_volume(site.main_pool_id, blocks)
    svol = site.backup.create_volume(site.backup_pool_id, blocks)
    main_jnl = site.main.create_journal(site.main_pool_id, 10_000)
    backup_jnl = site.backup.create_journal(site.backup_pool_id, 10_000)
    site.main.create_journal_group(
        group_id, main_jnl.journal_id, site.backup,
        backup_jnl.journal_id, site.link)
    site.main.create_async_pair(pair_id, group_id, pvol.volume_id,
                                site.backup, svol.volume_id)
    return pvol, svol


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

    def test_restore_applies_in_sequence_order(self, sim, two_site):
        pvol, svol = make_async_pair(two_site)

        def writer(sim):
            for i in range(50):
                yield from two_site.main.host_write(
                    pvol.volume_id, i % 8, b"w%d" % i)

        run(sim, writer(sim))
        sim.run(until=sim.now + 1.0)
        assert svol.block_map() == pvol.block_map()

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


class TestConsistencyGroupOrdering:
    def test_shared_journal_preserves_cross_volume_order(self, sim):
        """Writes to two volumes in one group restore in ack order: at any
        backup instant the applied set is a prefix of the main history."""
        site = build_two_site(Simulator(seed=5), adc=fast_adc())
        sim = site.sim
        pvol_a = site.main.create_volume(site.main_pool_id, 64)
        pvol_b = site.main.create_volume(site.main_pool_id, 64)
        svol_a = site.backup.create_volume(site.backup_pool_id, 64)
        svol_b = site.backup.create_volume(site.backup_pool_id, 64)
        main_jnl = site.main.create_journal(site.main_pool_id, 10_000)
        backup_jnl = site.backup.create_journal(site.backup_pool_id, 10_000)
        site.main.create_journal_group(
            "cg", main_jnl.journal_id, site.backup,
            backup_jnl.journal_id, site.link)
        site.main.create_async_pair("p-a", "cg", pvol_a.volume_id,
                                    site.backup, svol_a.volume_id)
        site.main.create_async_pair("p-b", "cg", pvol_b.volume_id,
                                    site.backup, svol_b.volume_id)

        def writer(sim):
            # alternate volumes so the ack order interleaves them
            for i in range(40):
                target = pvol_a if i % 2 == 0 else pvol_b
                yield from site.main.host_write(
                    target.volume_id, i % 4, b"w%d" % i)

        proc = sim.spawn(writer(sim))

        def snapshot_applied():
            applied = set()
            for pvol, svol in ((pvol_a, svol_a), (pvol_b, svol_b)):
                for block, value in svol.block_map().items():
                    for record in site.main.history.for_volume(
                            pvol.volume_id):
                        if record.block == block and \
                                record.version <= value.version:
                            applied.add(record.seq)
            return applied

        # sample the backup state repeatedly while replication is racing
        group_ids = [pvol_a.volume_id, pvol_b.volume_id]
        for _ in range(30):
            sim.run(until=sim.now + 0.002)
            applied = snapshot_applied()
            group_history = site.main.history.restricted(group_ids)
            seen_missing = False
            for record in group_history:
                if record.seq in applied:
                    assert not seen_missing, (
                        "backup cut is not a prefix of the ack order")
                else:
                    seen_missing = True
        sim.run_until_complete(proc)
        sim.run(until=sim.now + 1.0)
        assert svol_a.block_map() == pvol_a.block_map()
        assert svol_b.block_map() == pvol_b.block_map()


class TestConcurrentRestore:
    def test_parallel_restore_converges_identically(self, sim):
        """apply_lanes > 1 must deliver exactly the same final
        secondary state, just faster."""
        site = build_two_site(Simulator(seed=7), adc=fast_adc(
            apply_lanes=8))
        sim = site.sim
        pvol, svol = (None, None)
        pvol = site.main.create_volume(site.main_pool_id, 256)
        svol = site.backup.create_volume(site.backup_pool_id, 256)
        mj = site.main.create_journal(site.main_pool_id, 10_000)
        bj = site.backup.create_journal(site.backup_pool_id, 10_000)
        site.main.create_journal_group("jg-par", mj.journal_id,
                                       site.backup, bj.journal_id,
                                       site.link)
        site.main.create_async_pair("p-par", "jg-par", pvol.volume_id,
                                    site.backup, svol.volume_id)

        def writer(sim):
            for i in range(120):
                # repeated writes to a small block set put conflicts
                # in every window (same-block entries must never reorder)
                yield from site.main.host_write(pvol.volume_id, i % 8,
                                                b"w%03d" % i)

        run(sim, writer(sim))
        sim.run(until=sim.now + 1.0)
        assert svol.block_map() == pvol.block_map()


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

    def test_link_down_retries_until_restore(self, sim, two_site):
        pvol, svol = make_async_pair(two_site)
        two_site.link.fail()
        run(sim, two_site.main.host_write(pvol.volume_id, 0, b"x"))
        sim.run(until=sim.now + 0.2)
        assert svol.peek(0) is None
        two_site.link.restore()
        sim.run(until=sim.now + 0.5)
        assert svol.peek(0).payload == b"x"


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


class TestQuiesce:
    def test_quiesce_pauses_restore_at_entry_boundary(self, sim, two_site):
        pvol, svol = make_async_pair(two_site)
        group = two_site.main.journal_groups["jg-0"]

        def writer(sim):
            for i in range(30):
                yield from two_site.main.host_write(
                    pvol.volume_id, i % 16, b"w%d" % i)

        proc = sim.spawn(writer(sim))
        sim.run(until=sim.now + 0.003)
        group.quiesce_restore()
        frozen_at = group.restored_sequence
        sim.run(until=sim.now + 0.05)
        # one in-flight apply may complete after the gate closes
        assert group.restored_sequence <= frozen_at + 1
        group.resume_restore()
        sim.run_until_complete(proc)
        sim.run(until=sim.now + 1.0)
        assert svol.block_map() == pvol.block_map()
