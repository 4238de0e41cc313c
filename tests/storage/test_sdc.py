"""Integration tests of the synchronous data copy baseline (SDC)."""

import pytest

from repro.storage import PairState
from repro.storage.sdc import COPY_BATCH_BLOCKS, NEGOTIATE_METADATA_BYTES
from tests.storage.conftest import run


def make_sync_pair(site, blocks=64, mirror_id="sm-0", pair_id="sp-0"):
    pvol = site.main.create_volume(site.main_pool_id, blocks)
    svol = site.backup.create_volume(site.backup_pool_id, blocks)
    site.main.create_sync_mirror(mirror_id, site.link)
    site.main.create_sync_pair(pair_id, mirror_id, pvol.volume_id,
                               site.backup, svol.volume_id)
    return pvol, svol


class TestSyncReplication:
    def test_write_applied_before_ack(self, sim, two_site):
        pvol, svol = make_sync_pair(two_site)
        sim.run(until=sim.now + 0.1)  # initial copy (empty)
        run(sim, two_site.main.host_write(pvol.volume_id, 0, b"hello"))
        # at the instant of the ack, the backup already has the data
        assert svol.peek(0).payload == b"hello"

    def test_ack_latency_includes_round_trip(self, sim, two_site):
        """The slowdown the paper eliminates: SDC pays >= 2x link latency."""
        pvol, _svol = make_sync_pair(two_site)
        sim.run(until=sim.now + 0.1)
        run(sim, two_site.main.host_write(pvol.volume_id, 0, b"x"))
        summary = two_site.main.write_latency.summary()
        assert summary.maximum >= 2 * two_site.link.latency

    def test_versions_match_across_sites(self, sim, two_site):
        pvol, svol = make_sync_pair(two_site)
        sim.run(until=sim.now + 0.1)

        def writer(sim):
            for i in range(20):
                yield from two_site.main.host_write(
                    pvol.volume_id, i % 8, b"w%d" % i)

        run(sim, writer(sim))
        assert svol.block_map() == pvol.block_map()

    def test_initial_copy_transfers_existing_blocks(self, sim, two_site):
        pvol = two_site.main.create_volume(two_site.main_pool_id, 64)
        for block in range(8):
            run(sim, two_site.main.host_write(pvol.volume_id, block,
                                              b"pre%d" % block))
        svol = two_site.backup.create_volume(two_site.backup_pool_id, 64)
        two_site.main.create_sync_mirror("sm-ic", two_site.link)
        pair = two_site.main.create_sync_pair(
            "sp-ic", "sm-ic", pvol.volume_id, two_site.backup,
            svol.volume_id)
        assert pair.state is PairState.COPY
        sim.run(until=sim.now + 1.0)
        assert pair.state is PairState.PAIR
        assert svol.block_map() == pvol.block_map()

    def test_link_failure_suspends_but_keeps_acking(self, sim, two_site):
        """Fence level 'never': replication outage must not become a
        business outage; writes continue dirty-tracked."""
        pvol, svol = make_sync_pair(two_site)
        sim.run(until=sim.now + 0.1)
        two_site.link.fail()
        record = run(sim, two_site.main.host_write(
            pvol.volume_id, 5, b"unprotected"))
        assert record is not None
        pair = two_site.main.find_pair("sp-0")
        assert pair.state is PairState.PSUE
        assert svol.peek(5) is None
        # subsequent writes skip the link entirely
        run(sim, two_site.main.host_write(pvol.volume_id, 6, b"more"))
        assert (pvol.volume_id, 6) in pair.dirty_blocks

    def test_zero_rpo_property(self, sim, two_site):
        """Every acked write exists at the backup at disaster time."""
        pvol, svol = make_sync_pair(two_site)
        sim.run(until=sim.now + 0.1)

        def writer(sim):
            for i in range(15):
                yield from two_site.main.host_write(
                    pvol.volume_id, i, b"w%d" % i)

        run(sim, writer(sim))
        two_site.main.fail()
        for record in two_site.main.history.for_volume(pvol.volume_id):
            value = svol.peek(record.block)
            assert value is not None and value.version >= record.version


class TestDeltaNegotiatedCopy:
    """Bulk copy ships (version, crc32) metadata first; blocks
    the secondary already holds current never cross the wire."""

    def test_recopy_moves_metadata_only(self, sim, two_site):
        """Re-running initial_copy over a current secondary pays the
        negotiation bytes for every block but zero payload bytes."""
        pvol, svol = make_sync_pair(two_site)
        for block in range(8):
            run(sim, two_site.main.host_write(pvol.volume_id, block,
                                              b"pre%d" % block))
        mirror = two_site.main.sync_mirrors["sm-0"]
        assert svol.block_map() == pvol.block_map()
        before = two_site.link.bytes_transferred
        skipped_before = mirror.copy_skipped.value
        run(sim, mirror.initial_copy("sp-0"))
        moved = two_site.link.bytes_transferred - before
        assert moved == 8 * NEGOTIATE_METADATA_BYTES
        assert mirror.copy_skipped.value - skipped_before == 8

    def test_initial_copy_of_large_volume_is_batched(self, sim,
                                                     two_site):
        """A copy of N blocks pays ~N/COPY_BATCH_BLOCKS round trips,
        not N: the batched path must beat per-block latency by the
        batch factor."""
        blocks = 96
        pvol = two_site.main.create_volume(two_site.main_pool_id, blocks)
        for block in range(blocks):
            run(sim, two_site.main.host_write(pvol.volume_id, block,
                                              b"x"))
        svol = two_site.backup.create_volume(two_site.backup_pool_id,
                                             blocks)
        two_site.main.create_sync_mirror("sm-bulk", two_site.link)
        started = sim.now
        pair = two_site.main.create_sync_pair(
            "sp-bulk", "sm-bulk", pvol.volume_id, two_site.backup,
            svol.volume_id)
        while not pair.initial_copy_done:
            sim.run(until=sim.now + 0.05)
        elapsed = sim.now - started
        chunks = blocks / COPY_BATCH_BLOCKS
        # three one-way delays per chunk (metadata, verdict, payload)
        # plus slack for media applies and the 50 ms polling grain
        assert elapsed < chunks * 3.5 * two_site.link.latency + 0.2
        assert svol.block_map() == pvol.block_map()

