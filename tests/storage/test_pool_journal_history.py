"""Unit tests for pools, journal volumes, write history, metrics."""

import pytest

from repro.errors import CapacityError
from repro.storage import (Counter, GaugeSeries, JournalVolume,
                           LatencyRecorder, StoragePool, WriteHistory,
                           percentile)
from repro.storage.journal import JournalFullError


class TestStoragePool:
    def test_overcommit_rejected(self):
        pool = StoragePool(1, 100)
        pool.reserve("vol-a", 80)
        with pytest.raises(CapacityError):
            pool.reserve("vol-b", 30)

    def test_duplicate_owner_rejected(self):
        pool = StoragePool(1, 100)
        pool.reserve("vol-a", 10)
        with pytest.raises(CapacityError):
            pool.reserve("vol-a", 10)

    def test_zero_capacity_rejected(self):
        with pytest.raises(CapacityError):
            StoragePool(1, 0)


class TestJournalVolume:
    def test_append_assigns_monotone_sequences(self):
        journal = JournalVolume(1, capacity_entries=10)
        e1 = journal.append(1, 0, b"a", 1, time=0.0)
        e2 = journal.append(1, 1, b"b", 2, time=0.1)
        assert (e1.sequence, e2.sequence) == (0, 1)
        assert journal.head_sequence == 1

    def test_overflow_raises_without_consuming_sequence(self):
        journal = JournalVolume(1, capacity_entries=1)
        journal.append(1, 0, b"a", 1, time=0.0)
        with pytest.raises(JournalFullError):
            journal.append(1, 1, b"b", 2, time=0.1)
        journal.pop_through(0)
        entry = journal.append(1, 1, b"b", 2, time=0.2)
        assert entry.sequence == 1

    def test_pop_through_removes_prefix(self):
        journal = JournalVolume(1, capacity_entries=10)
        for i in range(5):
            journal.append(1, i, b"x", i + 1, time=0.0)
        removed = journal.pop_through(2)
        assert [e.sequence for e in removed] == [0, 1, 2]
        assert journal.oldest_sequence() == 3

    def test_peek_batch_does_not_remove(self):
        journal = JournalVolume(1, capacity_entries=10)
        for i in range(5):
            journal.append(1, i, b"x", i + 1, time=0.0)
        batch = journal.peek_batch(3)
        assert [e.sequence for e in batch] == [0, 1, 2]
        assert len(journal) == 5

    def test_ingest_requires_sequence_order(self):
        source = JournalVolume(1, capacity_entries=10)
        entries = [source.append(1, i, b"x", i + 1, time=0.0)
                   for i in range(3)]
        target = JournalVolume(2, capacity_entries=10)
        target.ingest_batch([entries[0]])
        target.ingest_batch([entries[1]])
        with pytest.raises(ValueError):
            target.ingest_batch([entries[0]])

    def test_ingest_overflow(self):
        source = JournalVolume(1, capacity_entries=10)
        entries = [source.append(1, i, b"x", i + 1, time=0.0)
                   for i in range(2)]
        target = JournalVolume(2, capacity_entries=1)
        target.ingest_batch([entries[0]])
        with pytest.raises(JournalFullError):
            target.ingest_batch([entries[1]])

    def test_peak_entries_tracks_high_water(self):
        journal = JournalVolume(1, capacity_entries=10)
        for i in range(4):
            journal.append(1, i, b"x", i + 1, time=0.0)
        journal.pop_through(3)
        assert journal.peak_entries == 4
        assert len(journal) == 0

    def test_entry_size_includes_header(self):
        journal = JournalVolume(1, capacity_entries=10)
        entry = journal.append(1, 0, b"12345678", 1, time=0.0)
        assert entry.size_bytes == 8 + 64


class TestWriteHistory:
    def test_append_assigns_ack_order(self):
        history = WriteHistory()
        [r1] = history.append_many(0.1, [(1, 0, 1, None)])
        r2, r3 = history.append_many(0.2, [(2, 0, 1, None), (1, 1, 2, "t")])
        assert (r1.seq, r2.seq, r3.seq) == (0, 1, 2)
        assert (r2.time, r3.time, r3.tag) == (0.2, 0.2, "t")
        assert len(history) == 3

    def test_restriction_preserves_order(self):
        history = WriteHistory()
        for i in range(6):
            history.append_many(i * 0.1, [(i % 3, 0, i, None)])
        restricted = history.restricted([0, 2])
        assert [r.volume_id for r in restricted] == [0, 2, 0, 2]
        assert [r.seq for r in restricted] == sorted(
            r.seq for r in restricted)

    def test_for_volume(self):
        history = WriteHistory()
        history.append_many(0.1, [(1, 0, 1, None), (2, 0, 1, None),
                                  (1, 1, 2, None)])
        assert [r.version for r in history.for_volume(1)] == [1, 2]


class TestMetrics:
    def test_percentile_interpolates(self):
        assert percentile([1, 2, 3, 4], 0.5) == pytest.approx(2.5)
        assert percentile([5], 0.99) == 5

    def test_percentile_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_percentile_fraction_validation(self):
        with pytest.raises(ValueError):
            percentile([1], 1.5)

    def test_latency_recorder_summary(self):
        recorder = LatencyRecorder("w")
        for value in [0.001, 0.002, 0.003, 0.010]:
            recorder.record(value)
        summary = recorder.summary()
        assert summary.count == 4
        assert summary.mean == pytest.approx(0.004)
        assert summary.maximum == 0.010
        millis = summary.as_millis()
        assert millis.mean == pytest.approx(4.0)

    def test_latency_recorder_empty_summary_raises(self):
        with pytest.raises(ValueError):
            LatencyRecorder("w").summary()

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            LatencyRecorder("w").record(-0.1)

    def test_counter(self):
        counter = Counter("c")
        counter.increment()
        counter.increment(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.increment(-1)

    def test_gauge_series(self):
        gauge = GaugeSeries("g")
        gauge.sample(0.0, 1.0)
        gauge.sample(1.0, 3.0)
        assert gauge.maximum() == 3.0
        assert gauge.mean() == 2.0
        with pytest.raises(ValueError):
            GaugeSeries("empty").maximum()
