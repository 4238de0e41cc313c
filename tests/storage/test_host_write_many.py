"""Batched host writes (``StorageArray.host_write_many``).

The one host-write path: ``host_write`` is a batch of one.  The
contract under test: a batch behaves exactly like the same writes
issued one at a time — identical ack order, versions, journal contents,
suspension semantics and final images — while paying one aggregated
media wait instead of the serial sum.
"""

import pytest

from repro.errors import VolumeError
from repro.simulation import Simulator
from repro.storage import StorageArray
from repro.storage.adc import JOURNAL_APPEND_LATENCY
from tests.storage.conftest import (build_two_site, fast_adc,
                                    journal_entries, run)


def build_pair(sim, journal_capacity=10_000, blocks=64, adc=None):
    """One ADC pair; returns (site, group, pvol, svol)."""
    site = build_two_site(sim, adc=adc or fast_adc())
    pvol = site.main.create_volume(site.main_pool_id, blocks)
    svol = site.backup.create_volume(site.backup_pool_id, blocks)
    main_jnl = site.main.create_journal(site.main_pool_id,
                                        journal_capacity)
    backup_jnl = site.backup.create_journal(site.backup_pool_id,
                                            journal_capacity)
    group = site.main.create_journal_group(
        "jg-batch", main_jnl.journal_id, site.backup,
        backup_jnl.journal_id, site.link)
    site.main.create_async_pair("pair-batch", "jg-batch", pvol.volume_id,
                                site.backup, svol.volume_id)
    return site, group, pvol, svol


def ack_projection(history):
    """WriteRecords minus timestamps (batching changes ack instants,
    never the order/content)."""
    return [(r.seq, r.volume_id, r.block, r.version, r.tag)
            for r in history.records]


class TestBatchedEqualsSerial:
    WRITES = [(index % 8, b"payload-%04d" % index) for index in range(40)]

    def drive(self, batched):
        sim = Simulator(seed=21)
        site, group, pvol, svol = build_pair(sim)
        writes = [(pvol.volume_id, block, payload)
                  for block, payload in self.WRITES]

        def writer():
            if batched:
                yield from site.main.host_write_many(writes)
            else:
                for volume_id, block, payload in writes:
                    yield from site.main.host_write(volume_id, block,
                                                    payload)

        group.stop()  # freeze transfer so the snapshot sees every entry
        run(sim, writer())
        entries = [(e.sequence, e.volume_id, e.block, e.payload,
                    e.version, e.checksum)
                   for e in journal_entries(group.main_journal)]
        group.start()
        deadline = sim.now + 60.0
        while group.entry_lag and sim.now < deadline:
            sim.run(until=sim.now + 0.05)
        assert group.entry_lag == 0
        image = {block: (value.payload, value.version, value.checksum)
                 for block, value in svol.block_map().items()}
        return site.main, ack_projection(site.main.history), entries, image

    def test_acks_journal_and_image_identical(self):
        """The tentpole contract: WriteRecord sequence, journal entries
        and the drained backup image are bit-identical to serial."""
        _, serial_acks, serial_entries, serial_image = self.drive(False)
        _, batch_acks, batch_entries, batch_image = self.drive(True)
        assert batch_acks == serial_acks
        assert batch_entries == serial_entries
        assert batch_image == serial_image

    def test_batch_metrics_count_per_write(self):
        """Each batched write still counts once in every instrument."""
        main, acks, _entries, _image = self.drive(True)
        count = len(self.WRITES)
        assert len(acks) == count
        assert main.host_writes.value == count
        assert len(main.write_latency) == count
        assert main.write_latency_hist.count == count
        # one batch latency, booked once per write
        assert len(set(main.write_latency.samples)) == 1
        latency = main.write_latency.samples[0]
        assert main.write_latency_hist.minimum == latency
        assert main.write_latency_hist.maximum == latency
        assert main.write_latency_hist.total == sum([latency] * count)


class TestBatchSemantics:
    def test_empty_batch_is_a_noop(self, sim):
        site, _group, _pvol, _svol = build_pair(sim)
        records = run(sim, site.main.host_write_many([]))
        assert records == []
        assert len(site.main.history) == 0

    def test_single_aggregated_wait(self, sim):
        """A batch of N distinct-block writes takes one media write
        latency plus one journal-append latency — not N of each."""
        site, _group, pvol, _svol = build_pair(sim)
        media = site.main.config.media
        writes = [(pvol.volume_id, block, b"x%02d" % block)
                  for block in range(16)]
        start = sim.now

        def writer():
            return (yield from site.main.host_write_many(writes))

        records = run(sim, writer())
        elapsed = sim.now - start
        expected = media.write_latency + JOURNAL_APPEND_LATENCY
        assert elapsed == pytest.approx(expected)
        # every write of the batch acked at the same instant with the
        # batch latency
        assert {r.time for r in records} == {start + expected}

    def test_versions_and_seqs_in_input_order(self, sim):
        site, _group, pvol, _svol = build_pair(sim)
        writes = [(pvol.volume_id, 3, b"first"), (pvol.volume_id, 3,
                                                  b"second"),
                  (pvol.volume_id, 5, b"third")]
        records = run(sim, site.main.host_write_many(writes))
        assert [r.seq for r in records] == [0, 1, 2]
        assert [r.version for r in records] == [1, 2, 3]
        assert pvol.peek(3).payload == b"second"
        assert pvol.peek(5).payload == b"third"

    def test_per_write_tag_overrides_batch_tag(self, sim):
        site, _group, pvol, _svol = build_pair(sim)
        records = run(sim, site.main.host_write_many(
            [(pvol.volume_id, 0, b"a"),
             (pvol.volume_id, 1, b"b", "special")], tag="bulk"))
        assert [r.tag for r in records] == ["bulk", "special"]

    def test_invalid_write_rejects_whole_batch(self, sim):
        """Validation runs before any state changes: a bad write — even
        the *last* one, behind good writes to two volumes — means
        nothing is installed, journaled, acked, counted or traced."""
        site, group, pvol, svol = build_pair(sim)
        plain = site.main.create_volume(site.main_pool_id, 64)
        offline = site.main.create_volume(site.main_pool_id, 64)
        offline.block_volume()
        spare = site.backup.create_volume(site.backup_pool_id, 64)
        good = [(pvol.volume_id, 0, b"ok"), (plain.volume_id, 1, b"ok"),
                (pvol.volume_id, 2, b"ok")]
        # the S-VOL lives on the backup array, where hosts may not
        # write it; every other rejection is the main array's
        rejections = {
            "unknown volume": (site.main, good, (9999, 3, b"bad")),
            "svol role": (site.backup, [(spare.volume_id, 0, b"ok")],
                          (svol.volume_id, 3, b"bad")),
            "offline volume": (site.main, good,
                               (offline.volume_id, 3, b"bad")),
            "non-bytes payload": (site.main, good,
                                  (pvol.volume_id, 3, "str")),
            "out-of-range block": (site.main, good,
                                   (pvol.volume_id, 10_000, b"oob")),
        }
        tracer = sim.telemetry.tracer
        spans_before = len(tracer)
        for kind, (array, accepted, bad) in rejections.items():
            with pytest.raises(VolumeError):
                run(sim, array.host_write_many(accepted + [bad]))
            assert len(array.history) == 0, kind
            assert array.host_writes.value == 0, kind
            assert len(array.write_latency) == 0, kind
        assert spare.used_blocks == 0
        assert pvol.used_blocks == plain.used_blocks == 0
        assert pvol.version_counter == plain.version_counter == 0
        assert svol.used_blocks == offline.used_blocks == 0
        assert len(group.main_journal) == 0
        assert group.main_journal.head_sequence == -1
        assert len(tracer) == spans_before
        assert sim.now == 0.0  # rejected before the media wait

    def test_checksum_rides_into_journal_and_block(self, sim):
        """The CRC32 is computed once and threaded end-to-end."""
        from repro.storage.journal import payload_checksum
        site, group, pvol, _svol = build_pair(sim)
        run(sim, site.main.host_write_many([(pvol.volume_id, 7,
                                             b"checked")]))
        expected = payload_checksum(b"checked")
        assert pvol.peek(7).checksum == expected
        [entry] = journal_entries(group.main_journal)
        assert entry.checksum == expected
        assert entry.verify_checksum()

    def test_one_span_per_batch(self, sim):
        """Tracing on: the batch opens one host-write span and one
        journal-append span, not one per write."""
        site, _group, pvol, _svol = build_pair(sim)
        tracer = sim.telemetry.tracer
        writes = [(pvol.volume_id, block, b"traced") for block in range(8)]
        run(sim, site.main.host_write_many(writes))
        batch_spans = tracer.named("host-write")
        assert len(batch_spans) == 1
        assert batch_spans[0].attrs["writes"] == 8
        assert (batch_spans[0].attrs["first_ack_seq"],
                batch_spans[0].attrs["last_ack_seq"]) == (0, 7)
        appends = tracer.named("journal-append")
        assert len(appends) == 1
        # the journal leg is parented to the batch span, so restore
        # applies at the backup keep a causal parent
        assert appends[0].trace_id == batch_spans[0].trace_id

    def test_cow_owing_write_acks_after_one_media_wait(self, sim):
        """The one ack-latency model: a single ADC write whose block owes
        its pre-image to two live snapshots waits one media wait of
        ``write_latency + 2 * cow_copy_latency``, then one journal
        append — copy-on-write is paid inside the media wait, not as
        sleeps of its own."""
        site, _group, pvol, _svol = build_pair(sim)
        media = site.main.config.media
        run(sim, site.main.host_write(pvol.volume_id, 0, b"old"))
        snapshots = [site.main.create_snapshot(pvol.volume_id)
                     for _ in range(2)]
        start = sim.now
        record = run(sim, site.main.host_write(pvol.volume_id, 0, b"new"))
        media_wait = media.write_latency + 2 * media.cow_copy_latency
        [_first, append] = sim.telemetry.tracer.named("journal-append")
        assert append.start == start + media_wait
        assert append.end == record.time == start + media_wait \
            + JOURNAL_APPEND_LATENCY
        assert site.main.write_latency.samples[-1] == record.time - start
        for snapshot in snapshots:
            assert snapshot.read_current(0) == b"old"
        assert pvol.peek(0).payload == b"new"


@pytest.mark.parametrize("payload", [5, [104, 105], memoryview(b"hi"),
                                     "text"],
                         ids=["int", "list", "memoryview", "str"])
def test_non_bytes_payload_rejected_before_any_state_change(sim, payload):
    """One payload rule for every host write: anything but bytes or
    bytearray — never coerced, so ``5`` is not five zero bytes and
    ``[104, 105]`` is not ``b"hi"`` — is a ``VolumeError`` before
    history, journal or volume change."""
    site, group, pvol, _svol = build_pair(sim)
    group.stop()  # keep the journal where the writes left it
    run(sim, site.main.host_write(pvol.volume_id, 0, b"kept"))
    history = site.main.history.records
    journal = journal_entries(group.main_journal)
    image = pvol.block_map()
    with pytest.raises(VolumeError):
        run(sim, site.main.host_write(pvol.volume_id, 1, payload))
    assert site.main.history.records == history
    assert journal_entries(group.main_journal) == journal
    assert pvol.block_map() == image
    assert pvol.version_counter == 1


class TestSuspensionMidBatch:
    def drive(self, batched):
        """8 writes through a 5-entry journal; returns the converged
        outcome (suspension must hit write 6 either way)."""
        sim = Simulator(seed=31)
        site, group, pvol, _svol = build_pair(sim, journal_capacity=5)
        group.stop()  # nothing drains: the 6th append overflows
        writes = [(pvol.volume_id, block, b"w%d" % block)
                  for block in range(8)]

        def writer():
            if batched:
                yield from site.main.host_write_many(writes)
            else:
                for volume_id, block, payload in writes:
                    yield from site.main.host_write(volume_id, block,
                                                    payload)

        run(sim, writer())
        pair = group.pairs["pair-batch"]
        return (group.suspended, len(group.main_journal),
                ack_projection(site.main.history),
                sorted(pair.dirty_blocks))

    def test_journal_full_matches_serial(self):
        """Suspension semantics are per write: the overflowing write and
        everything after it go dirty, earlier writes stay journaled, and
        every write still acks."""
        serial = self.drive(False)
        batch = self.drive(True)
        assert batch == serial
        suspended, journaled, acks, dirty = batch
        assert suspended
        assert journaled == 5
        assert len(acks) == 8
        assert len(dirty) == 3


class TestSyncMirrorBatch:
    def test_batch_replicates_through_sync_mirror(self, sim):
        """Sync-mirrored volumes take their per-write RTT but still
        produce the serial outcome."""
        site = build_two_site(sim)
        pvol = site.main.create_volume(site.main_pool_id, 32)
        svol = site.backup.create_volume(site.backup_pool_id, 32)
        site.main.create_sync_mirror("sm", site.link)
        site.main.create_sync_pair("pair-sync", "sm", pvol.volume_id,
                                   site.backup, svol.volume_id)
        writes = [(pvol.volume_id, block, b"sync-%d" % block)
                  for block in range(4)]
        records = run(sim, site.main.host_write_many(writes))
        assert [r.version for r in records] == [1, 2, 3, 4]
        for block in range(4):
            assert svol.peek(block).payload == b"sync-%d" % block


class TestLatencyRecordingDeduplicated:
    def test_one_record_feeds_summary_and_sketch(self, sim):
        """The summary shim pipes into the histogram: the host paths
        record each sample once, both surfaces stay populated, and the
        legacy read API remains intact."""
        array = StorageArray(sim, serial="G370-LAT")
        pool = array.create_pool(1000)
        volume = array.create_volume(pool.pool_id, 16)

        def driver():
            for index in range(5):
                yield from array.host_write(volume.volume_id, index,
                                            b"lat")
            for index in range(3):
                yield from array.host_read(volume.volume_id, index)

        run(sim, driver())
        assert len(array.write_latency) == 5
        assert array.write_latency_hist.count == 5
        assert len(array.read_latency) == 3
        assert array.read_latency_hist.count == 3
        summary = array.write_latency.summary()  # legacy API
        assert summary.count == 5
        assert summary.maximum == pytest.approx(
            array.write_latency_hist.maximum)
