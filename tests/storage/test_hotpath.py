"""Unit coverage for the hot-path machinery.

The sequence-indexed ring inside :class:`JournalVolume` (contiguity
fast path, gap fallback, compaction, byte accounting), the batched
replication apply helpers on :class:`Volume`, the tracer fast path,
and the bounded idle lag-sampling cadence of the transfer loop.
"""

import pytest

from repro.errors import VolumeError
from repro.simulation import Simulator
from repro.storage.adc import IDLE_LAG_SAMPLE_INTERVAL
from repro.storage.journal import (JournalEntry, JournalVolume,
                                   payload_checksum)
from repro.storage.volume import MediaProfile, Volume
from repro.telemetry.spans import NULL_SPAN, Tracer
from tests.storage.conftest import (build_two_site, fast_adc,
                                    journal_entries, run)


def filled_journal(count: int, capacity: int = 100_000) -> JournalVolume:
    journal = JournalVolume(1, capacity, name="ring")
    journal.append_many([(7, index % 16, b"p%04d" % index, index + 1, None)
                         for index in range(count)], 0.0)
    return journal


def entry(sequence: int, payload: bytes = b"x") -> JournalEntry:
    return JournalEntry(sequence=sequence, volume_id=7,
                        block=sequence % 16, payload=payload,
                        version=sequence + 1, created_at=0.0,
                        checksum=payload_checksum(payload))


class TestRingSemantics:
    def test_pop_through_contiguous(self):
        journal = filled_journal(10)
        removed = journal.pop_through(4)
        assert [e.sequence for e in removed] == [0, 1, 2, 3, 4]
        assert len(journal) == 5
        assert journal.oldest_sequence() == 5

    def test_pop_through_full_drain_resets_storage(self):
        journal = filled_journal(10)
        removed = journal.pop_through(9)
        assert len(removed) == 10
        assert len(journal) == 0
        assert journal.bytes_retained == 0
        assert journal.oldest_entry() is None
        # sequence numbering continues after the reset
        assert journal.append_many([(7, 0, b"next", 99, None)], 1.0) == 1
        assert journal.oldest_entry().sequence == 10

    def test_pop_through_with_sequence_gaps(self):
        """The contiguity fast-guess must fall back to binary search
        when ingested sequences have holes (quarantine, coalescing)."""
        journal = JournalVolume(2, 1000, name="gappy")
        for sequence in (0, 1, 5, 6, 9, 12):
            journal.ingest_batch([entry(sequence)])
        removed = journal.pop_through(7)
        assert [e.sequence for e in removed] == [0, 1, 5, 6]
        assert journal.oldest_sequence() == 9
        # cutting inside a hole removes everything below it
        assert [e.sequence for e in journal.pop_through(11)] == [9]
        assert [e.sequence for e in journal.pop_through(12)] == [12]
        assert len(journal) == 0

    def test_pop_through_before_oldest_is_noop(self):
        journal = JournalVolume(3, 1000, name="late")
        for sequence in (5, 6, 7):
            journal.ingest_batch([entry(sequence)])
        assert journal.pop_through(4) == []
        assert len(journal) == 3

    def test_bytes_retained_tracks_append_and_trim(self):
        journal = JournalVolume(4, 1000, name="bytes")
        journal.append_many([(7, 0, b"ab", 1, None)], 0.0)      # 2 + 64
        journal.append_many([(7, 1, b"abcd", 2, None)], 0.0)    # 4 + 64
        assert journal.bytes_retained == 134
        journal.pop_through(0)
        assert journal.bytes_retained == 68
        journal.clear()
        assert journal.bytes_retained == 0

    def test_corrupt_entry_updates_accounting(self):
        journal = filled_journal(3)
        before = journal.bytes_retained
        assert journal.mutations == 0
        corrupted = journal.corrupt_entry(0)
        assert corrupted is not None
        assert not corrupted.verify_checksum()
        assert journal.mutations == 1
        # default torn-write mutation truncates one byte
        assert journal.bytes_retained == before - 1
        assert journal.corrupt_entry(99) is None
        assert journal.mutations == 1

    def test_peek_batch_rejects_bad_limit(self):
        journal = filled_journal(3)
        with pytest.raises(ValueError):
            journal.peek_batch(0)

    def test_compaction_preserves_contents(self):
        """Partial trims beyond the compaction threshold relocate the
        ring; retained entries and byte totals must be unaffected."""
        journal = filled_journal(12_000)
        journal.pop_through(8_191)  # dead prefix > threshold, > half
        assert len(journal) == 12_000 - 8_192
        assert journal.oldest_sequence() == 8_192
        expected = sum(e.size_bytes for e in journal_entries(journal))
        assert journal.bytes_retained == expected
        remaining = journal.pop_through(11_999)
        assert [e.sequence for e in remaining[:2]] == [8_192, 8_193]
        assert len(journal) == 0 and journal.bytes_retained == 0

    def test_snapshot_is_a_copy(self):
        journal = filled_journal(5)
        snapshot = journal_entries(journal)
        journal.pop_through(4)
        assert [e.sequence for e in snapshot] == [0, 1, 2, 3, 4]


class TestBatchedApplyHelpers:
    def make_volume(self, sim):
        return Volume(sim, 1, 64, MediaProfile())

    def test_install_block_is_instant_and_versioned(self):
        sim = Simulator(seed=1)
        volume = self.make_volume(sim)
        volume.install_block(3, b"one", 5)
        assert sim.now == 0.0
        assert volume.peek(3).payload == b"one"
        assert volume.peek(3).version == 5
        with pytest.raises(VolumeError):
            volume.install_block(3, b"stale", 5)

    def test_install_block_reuses_checksum(self):
        sim = Simulator(seed=1)
        volume = self.make_volume(sim)
        volume.install_block(0, b"data", 1, checksum=12345)
        assert volume.peek(0).checksum == 12345


class TestTracerFastPath:
    def test_disabled_tracer_allocates_nothing(self):
        tracer = Tracer(clock=lambda: 0.0)
        tracer.enabled = False
        span = tracer.start("host-write", volume=7)
        assert span is NULL_SPAN
        assert span.trace_id is None and span.span_id is None
        assert span.attrs == {}
        tracer.finish(span)  # no-op, no double-finish error
        tracer.finish(span)
        assert len(tracer) == 0

    def test_reenabling_restores_real_spans(self):
        tracer = Tracer(clock=lambda: 1.0)
        tracer.enabled = False
        assert tracer.start("a") is NULL_SPAN
        tracer.enabled = True
        span = tracer.start("b")
        assert span is not NULL_SPAN
        tracer.finish(span)
        assert span.finished and len(tracer) == 1


class TestIdleLagCadence:
    def test_idle_sampling_is_bounded(self):
        """An idle transfer loop must not sample the lag gauges on
        every wake-up — only once per IDLE_LAG_SAMPLE_INTERVAL."""
        sim = Simulator(seed=11)
        site = build_two_site(
            sim, adc=fast_adc(transfer_interval=0.001))
        pvol = site.main.create_volume(site.main_pool_id, 64)
        svol = site.backup.create_volume(site.backup_pool_id, 64)
        main_jnl = site.main.create_journal(site.main_pool_id, 1000)
        backup_jnl = site.backup.create_journal(site.backup_pool_id, 1000)
        group = site.main.create_journal_group(
            "jg-idle", main_jnl.journal_id, site.backup,
            backup_jnl.journal_id, site.link)
        site.main.create_async_pair("pair-idle", "jg-idle",
                                    pvol.volume_id, site.backup,
                                    svol.volume_id)
        run(sim, site.main.host_write(pvol.volume_id, 0, b"seed"))
        sim.run(until=sim.now + 0.2)  # drain, then go idle
        settled = len(group.lag_entries.points)
        idle_time = 1.0
        sim.run(until=sim.now + idle_time)
        idle_samples = len(group.lag_entries.points) - settled
        # ~1000 idle wake-ups at 1 ms, but at most ~20 samples at 50 ms
        assert idle_samples <= idle_time / IDLE_LAG_SAMPLE_INTERVAL + 2
        assert idle_samples >= 2
