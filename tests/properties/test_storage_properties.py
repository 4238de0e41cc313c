"""Property-based tests (hypothesis) for storage-layer invariants."""

import json
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.minidb.pages import Page, bucket_for_key
from repro.apps.minidb.wal import WalRecord
from repro.apps.minidb import wal as wal_types
from repro.recovery.checker import check_storage_cut
from repro.storage import JournalVolume, WriteHistory, percentile
from tests.storage.conftest import journal_entries

# -- strategies ----------------------------------------------------------

write_ops = st.lists(
    st.tuples(st.integers(0, 3),      # volume index
              st.integers(0, 7)),     # block
    min_size=1, max_size=60)

#: text a WAL record may carry, weighted towards what JSON escapes:
#: quotes, backslashes, control characters, non-ASCII, lone surrogates
wal_text = st.text(st.one_of(
    st.characters(),
    st.sampled_from('"\\\x00\x08\n\x1f\x7f\xe9\u2028\U0001f600'),
    st.characters(categories=["Cs"])), max_size=20)

SURROGATE_PAIR = re.compile("[\ud800-\udbff][\udc00-\udfff]")


def build_history(ops):
    """History + per-volume final version maps from (volume, block) ops."""
    history = WriteHistory()
    versions = {v: 0 for v in range(4)}
    final = {v: {} for v in range(4)}
    for volume, block in ops:
        versions[volume] += 1
        history.append_many(len(history) * 0.001,
                            [(volume, block, versions[volume], None)])
        final[volume][block] = versions[volume]
    return history, final


class TestStorageCutProperties:
    @given(ops=write_ops, cut=st.integers(0, 60))
    @settings(max_examples=150, deadline=None)
    def test_any_prefix_cut_is_consistent(self, ops, cut):
        """The defining property: applying exactly the first ``cut``
        acked writes always yields a consistent image."""
        history, _final = build_history(ops)
        cut = min(cut, len(ops))
        image = {v: {} for v in range(4)}
        for record in history.records[:cut]:
            image[record.volume_id][record.block] = record.version
        report = check_storage_cut(history, image)
        assert report.consistent
        assert report.applied_count == cut
        assert report.missing_count == len(ops) - cut

    @given(ops=write_ops, drop=st.integers(0, 59))
    @settings(max_examples=150, deadline=None)
    def test_dropping_a_nonfinal_write_breaks_consistency(self, ops, drop):
        """Removing one acked write from a *full* image is inconsistent,
        unless a later write to the same block hides the hole or the
        dropped write is the image's own frontier."""
        history, final = build_history(ops)
        if drop >= len(ops):
            return
        dropped = history.records[drop]
        later_same_block = any(
            r.volume_id == dropped.volume_id and r.block == dropped.block
            for r in history.records[drop + 1:])
        if later_same_block:
            return  # the hole is invisible: version map keeps the later write
        image = {v: dict(blocks) for v, blocks in final.items()}
        # roll the dropped block back to its previous version
        previous = 0
        for record in history.records[:drop]:
            if record.volume_id == dropped.volume_id and \
                    record.block == dropped.block:
                previous = record.version
        if previous:
            image[dropped.volume_id][dropped.block] = previous
        else:
            image[dropped.volume_id].pop(dropped.block, None)
        report = check_storage_cut(history, image)
        is_last = drop == len(ops) - 1
        assert report.consistent == is_last

    @given(ops=write_ops)
    @settings(max_examples=80, deadline=None)
    def test_full_image_always_consistent(self, ops):
        history, final = build_history(ops)
        report = check_storage_cut(history, final)
        assert report.consistent
        assert report.missing_count == 0


class TestJournalProperties:
    @given(count=st.integers(1, 50), capacity=st.integers(1, 60))
    @settings(max_examples=60, deadline=None)
    def test_sequences_dense_and_fifo(self, count, capacity):
        journal = JournalVolume(1, capacity_entries=capacity)
        appended = []
        for index in range(count):
            if not journal.append_many([(1, index % 4, b"x", index + 1,
                                         None)], time=0.0):
                break
            appended.append(journal.head_sequence)
        assert appended == list(range(len(appended)))
        drained = journal.pop_through(10 ** 9)
        assert [e.sequence for e in drained] == appended

    @given(count=st.integers(2, 40), trim=st.integers(0, 39))
    @settings(max_examples=60, deadline=None)
    def test_pop_through_is_prefix(self, count, trim):
        journal = JournalVolume(1, capacity_entries=100)
        journal.append_many([(1, 0, b"x", index + 1, None)
                             for index in range(count)], time=0.0)
        removed = journal.pop_through(trim)
        kept = journal_entries(journal)
        assert [e.sequence for e in removed] == \
            [s for s in range(count) if s <= trim]
        assert [e.sequence for e in kept] == \
            [s for s in range(count) if s > trim]


class TestSerialisationProperties:
    @given(data=st.dictionaries(
        st.text(min_size=1, max_size=20), st.text(max_size=40),
        max_size=20),
        page_id=st.integers(0, 1000), lsn=st.integers(-1, 10 ** 9))
    @settings(max_examples=100, deadline=None)
    def test_page_round_trip(self, data, page_id, lsn):
        page = Page(page_id=page_id, lsn=lsn, data=data)
        restored = Page.from_bytes(page_id, page.to_bytes())
        assert restored.data == data
        assert restored.lsn == lsn

    @given(record_type=st.sampled_from([
               wal_types.UPDATE, wal_types.COMMIT, wal_types.ABORT,
               wal_types.PREPARE, wal_types.COORD_COMMIT,
               wal_types.COORD_ABORT, wal_types.CHECKPOINT]),
           txn=wal_text, gtid=wal_text, key=wal_text,
           value=st.one_of(st.none(), wal_text),
           checkpoint_lsn=st.integers(-1, 10 ** 9),
           lsn=st.integers(0, 10 ** 6))
    @settings(max_examples=200, deadline=None)
    def test_wal_record_round_trip(self, record_type, txn, gtid, key, value,
                                   checkpoint_lsn, lsn):
        """The frame is the compact sorted-key JSON the log has always
        held, and it reads back as the record."""
        record = WalRecord(type=record_type, txn_id=txn, gtid=gtid, key=key,
                           value=value, checkpoint_lsn=checkpoint_lsn,
                           lsn=lsn)
        frame = record.to_bytes()
        assert frame == json.dumps({
            "type": record_type, "txn_id": txn, "gtid": gtid, "key": key,
            "value": value, "checkpoint_lsn": checkpoint_lsn, "lsn": lsn,
        }, sort_keys=True, separators=(",", ":")).encode()
        restored = WalRecord.from_bytes(frame, lsn)
        assert restored.to_bytes() == frame
        # JSON reads an escaped high + low surrogate pair back as one
        # character, so only pair-free text restores field for field
        if not any(SURROGATE_PAIR.search(text)
                   for text in (txn, gtid, key, value or "")):
            assert restored == record

    @given(key=st.text(min_size=1, max_size=50),
           buckets=st.integers(1, 512))
    @settings(max_examples=100, deadline=None)
    def test_bucket_for_key_in_range_and_stable(self, key, buckets):
        bucket = bucket_for_key(key, buckets)
        assert 0 <= bucket < buckets
        assert bucket == bucket_for_key(key, buckets)


class TestPercentileProperties:
    @given(samples=st.lists(st.floats(min_value=0, max_value=1e6,
                                      allow_nan=False), min_size=1,
                            max_size=100),
           fraction=st.floats(min_value=0, max_value=1))
    @settings(max_examples=100, deadline=None)
    def test_percentile_bounded_and_monotone(self, samples, fraction):
        value = percentile(samples, fraction)
        assert min(samples) <= value <= max(samples)
        assert percentile(samples, 0.0) == min(samples)
        assert percentile(samples, 1.0) == max(samples)
        if fraction < 1:
            assert percentile(samples, fraction) <= \
                percentile(samples, 1.0)
