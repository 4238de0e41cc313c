"""Tests of the wire data-reduction engine (dedup + one deflate stream).

Units of the shipment stream / :class:`FingerprintCache` plus end to
end coverage of the journal wire path: duplicate-heavy ADC streams ship
at least 3x fewer bytes with a bit-identical secondary image, a
reference is sent only when the payload it names cannot be evicted
before it lands (so in-flight evictions strand none), a tampered cache
entry falls back to a priced retransmit, corrupted payloads and
corrupted dedup references quarantine exactly like the unreduced path,
and cache state is invalidated on link-down, quarantine and array
restart.
"""

import itertools
import random
import zlib
from collections import OrderedDict
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.workload import PayloadProfile
from repro.simulation import Simulator
from repro.storage import PairState
from repro.storage.journal import ENTRY_HEADER_BYTES, JournalEntry
from repro.storage.reduction import (RAW_DEFLATE, FingerprintCache,
                                     ReductionConfig, WireReducer,
                                     unpack_header)
from tests.chaos.test_faults import corrupt_first_entry
from tests.storage.conftest import (build_pipeline, hold_restore,
                                    journal_rows, make_async_pair, run,
                                    tamper_receiver_entry)
from tests.storage.test_reduction_cache_sync import cache_state

REDUCED = ReductionConfig(enabled=True)


def duplicate_payloads(count, seed=29, size=1024, unique=8):
    """A duplicate-heavy write stream: ``unique`` distinct payloads."""
    profile = PayloadProfile(kind="duplicate", size_bytes=size, seed=seed,
                             unique_payloads=unique)
    return [profile.payload(i) for i in range(count)]


def drain_duplicates(seed=11, writes=60, blocks=64, unique=8,
                     **adc_overrides):
    """Write a duplicate stream through one ADC pair and drain it."""
    site = build_pipeline(seed, blocks=blocks, **adc_overrides)
    sim, pvol, svol = site.sim, site.pvols[0], site.svols[0]

    def writer(sim):
        for i, payload in enumerate(
                duplicate_payloads(writes, unique=unique)):
            yield from site.main.host_write(
                pvol.volume_id, i % blocks, payload)

    run(sim, writer(sim))
    sim.run(until=sim.now + 2.0)
    assert site.group.entry_lag == 0
    return site, pvol, svol, site.group


def drain_prefilled(payloads, cache_entries=4096, transfer_window=8,
                    heal_after=None):
    """Journal ``payloads`` (one block each) with transfer stopped, then
    drain them through 8-entry batches over a bandwidth-bound link, so a
    windowed loop starts with a full pipeline.  ``heal_after``: fail the
    link that many seconds into the drain and heal it 50 ms later.
    Returns the group and the payloads shipped in full (not as a
    reference) before the failure and in all."""
    site = build_pipeline(11, blocks=len(payloads), bandwidth=5e5,
                          transfer_batch=8, transfer_window=transfer_window,
                          reduction=ReductionConfig(
                              enabled=True, cache_entries=cache_entries))
    sim, group, pvol, svol = site.sim, site.group, site.pvols[0], \
        site.svols[0]
    reducer = group.reducer
    group.stop()
    run(sim, site.main.host_write_many(
        [(pvol.volume_id, block, payload)
         for block, payload in enumerate(payloads)]))
    assert len(group.main_journal) == len(payloads)
    group.start()
    before_failure = None
    if heal_after is not None:
        sim.run(until=sim.now + heal_after)
        before_failure = reducer.lookups - reducer.hits
        site.link.fail()
        sim.run(until=sim.now + 0.05)
        site.link.restore()
    sim.run(until=sim.now + 5.0)
    assert group.entry_lag == 0
    assert svol.block_map() == pvol.block_map()
    return group, before_failure, reducer.lookups - reducer.hits


class TestReductionConfig:
    def test_disabled_by_default(self):
        assert not ReductionConfig().enabled

    def test_validation(self):
        with pytest.raises(ValueError):
            ReductionConfig(cache_entries=-1)


def text_pages(count, size=512, seed=3):
    """Distinct compressible pages sharing one record layout."""
    profile = PayloadProfile(kind="compressible", size_bytes=size,
                             seed=seed)
    return [profile.payload(index) for index in range(count)]


def dense_page(size=512, seed=3):
    return PayloadProfile(kind="random", size_bytes=size,
                          seed=seed).payload(0)


#: payloads of every shape one stream meets: compressible pages, dense
#: pages, and one of each kind repeated (dedup within and across batches)
SHAPES = {"text": text_pages(12, size=300),
          "dense": [dense_page(200, seed) for seed in range(12)],
          "duplicate": [text_pages(1, size=700, seed=9)[0], dense_page(260)]}


@st.composite
def shipments(draw):
    """``(payloads, torn rows, count)``: a mix of compressible, dense,
    duplicate and torn payloads (a torn row's checksum is not its
    payload's CRC32), and the prefix of rows a receive takes."""
    picks = draw(st.lists(st.tuples(st.sampled_from(sorted(SHAPES)),
                                    st.integers(0, 11)),
                          min_size=1, max_size=24))
    payloads = [SHAPES[shape][index % len(SHAPES[shape])]
                for shape, index in picks]
    torn = draw(st.sets(st.integers(0, len(payloads) - 1)))
    return payloads, torn, draw(st.integers(0, len(payloads)))


def torn_rows(payloads, torn):
    """Journal rows of ``payloads``; each row in ``torn`` carries a
    checksum that is not its payload's CRC32."""
    return [replace(row, checksum=row.checksum ^ 1) if index in torn
            else row for index, row in enumerate(journal_rows(payloads))]


def ship(reducer, rows, count=None):
    """Encode one batch of ``rows`` and receive its first ``count``
    (all by default); returns the received entries."""
    batch = reducer.encode_batch(rows)
    received = [entry for entry, _verified in reducer.receive_batch(
        batch, len(rows) if count is None else count, rows)]
    reducer.book("transfer", batch)
    return received


def fingerprint(payload):
    return zlib.crc32(payload), len(payload)


class TestOneStream:
    """Each shipment is one raw-deflate stream: the header block, then
    every payload neither referenced nor dense; dense ones follow it
    raw."""

    @given(case=shipments())
    # a receive cut short by a full backup journal: the prefix decodes
    @example(case=(SHAPES["text"] + SHAPES["dense"][:8], set(), 9))
    @example(case=([SHAPES["duplicate"][0]] * 3 + SHAPES["text"][:2],
                   {1}, 4))
    @settings(max_examples=80, deadline=None)
    def test_the_stream_round_trips_and_commits_its_prefix(self, case):
        """Whatever the mix, the first ``count`` rows come back as they
        were encoded, references resolving from the receiver cache on
        the second pass, and only they commit, to both caches alike."""
        payloads, torn, count = case
        reducer = WireReducer(Simulator(seed=1), REDUCED, "jg-stream")
        rows = torn_rows(payloads, torn)
        committed = {(row.checksum, len(row.payload)) for row in rows[:count]}
        for _ in range(2):
            assert ship(reducer, rows, count) == rows[:count]
            assert set(reducer.sender._entries) == committed
            assert cache_state(reducer.sender) \
                == cache_state(reducer.receiver)
        assert reducer.ref_fallbacks.value == 0

    def test_the_stream_holds_the_deflated_payloads_in_row_order(self):
        """The inflated stream is the header block, then the payloads
        the probe let through, in row order; the dense one is not in
        it, and the link carries it raw behind the stream."""
        pages, dense = text_pages(2), dense_page()
        reducer = WireReducer(Simulator(seed=1), REDUCED, "jg-order")
        rows = journal_rows([pages[0], dense, pages[1]])
        batch = reducer.encode_batch(rows)
        plain = zlib.decompress(batch.stream, RAW_DEFLATE)
        at = unpack_header(plain)[-1]
        assert plain[at:] == pages[0] + pages[1]
        assert batch.wire_bytes == len(batch.stream) + len(dense)
        assert reducer.deflate_skipped.value == 1
        assert [entry for entry, _verified in reducer.receive_batch(
            batch, len(rows), rows)] == rows

    def test_compressible_pages_shrink_in_one_stream(self):
        """Twelve pages sharing a record layout: one stream carries all
        of them, with their header rows, in fewer bytes than the pages
        alone, and books the difference as the compress saving."""
        pages = text_pages(12)
        reducer = WireReducer(Simulator(seed=1), REDUCED, "jg-text")
        batch = reducer.encode_batch(journal_rows(pages))
        assert batch.wire_bytes == len(batch.stream) < sum(map(len, pages))
        assert batch.saved_compress > 0
        assert reducer.deflate_skipped.value == 0

    def test_encoding_is_deterministic(self):
        """Two reducers encoding the same mixed shipment from empty
        caches produce the same wire form, byte for byte."""
        rows = journal_rows(SHAPES["text"][:4] + SHAPES["dense"][:2]
                            + SHAPES["duplicate"] * 2)
        first, second = (WireReducer(Simulator(seed=1), REDUCED,
                                     "jg-det").encode_batch(rows)
                         for _ in range(2))
        assert first == second

    def test_a_shipment_of_references_carries_its_header_block_only(self):
        """Shipped again, every payload of a mixed shipment is a
        reference: the stream inflates to the header block alone and
        the link carries nothing else."""
        rows = journal_rows(text_pages(3) + [dense_page()])
        reducer = WireReducer(Simulator(seed=1), REDUCED, "jg-refs")
        ship(reducer, rows)
        batch = reducer.encode_batch(rows)
        plain = zlib.decompress(batch.stream, RAW_DEFLATE)
        assert unpack_header(plain)[-1] == len(plain)
        assert batch.wire_bytes == len(batch.stream)
        assert batch.saved_dedup == sum(len(row.payload) for row in rows)

    def test_a_payloads_class_does_not_depend_on_its_place(self):
        """A short page deflate shrinks behind its near twin but not
        alone: shipped alone or behind the twin, it is evicted in the
        same order against a dense page cached before it."""
        draw = random.Random(7)
        page = bytes(draw.choice(b"abcdefghijklmnopqrstuvwxyz")
                     for _ in range(40))
        twin = page[:-1] + b"z"
        anchor = dense_page()
        outlived = []
        for batch in ([page], [twin, page]):
            reducer = WireReducer(Simulator(seed=1), ReductionConfig(
                enabled=True, cache_entries=3), "jg-class")
            ship(reducer, journal_rows([anchor]))
            ship(reducer, journal_rows(batch))
            filler = 100
            while fingerprint(page) in reducer.sender \
                    and fingerprint(anchor) in reducer.sender:
                ship(reducer, journal_rows([dense_page(seed=filler)]))
                filler += 1
            outlived.append(fingerprint(page) in reducer.sender)
        assert outlived[0] == outlived[1]

    @given(case=shipments())
    @settings(max_examples=40, deadline=None)
    def test_link_bytes_and_savings_sum_to_the_unreduced_size(self, case):
        """Per shipment, what the link carries plus what each mechanism
        saved is the flat framing: 64 bytes a row and every payload."""
        payloads, torn, _count = case
        reducer = WireReducer(Simulator(seed=1), REDUCED, "jg-sum")
        rows = torn_rows(payloads, torn)
        for _ in range(2):  # the second pass references the first
            batch = reducer.encode_batch(rows)
            ship(reducer, rows)
            assert batch.wire_bytes + batch.saved_dedup \
                + batch.saved_compress + batch.saved_header \
                == ENTRY_HEADER_BYTES * len(rows) + sum(map(len, payloads))

    def test_a_stream_deflate_grew_books_no_negative_saving(self):
        """One dense row whose header fields are random 32-bit values:
        deflate grows its 40-byte header block, and the growth nets
        against the header saving."""
        draw = random.Random(1)
        payload = dense_page(40)
        row = JournalEntry(*(draw.randrange(1 << 24, 1 << 32)
                             for _ in range(3)), payload,
                           draw.randrange(1 << 24, 1 << 32), draw.random(),
                           zlib.crc32(payload))
        reducer = WireReducer(Simulator(seed=1), REDUCED, "jg-tiny")
        batch = reducer.encode_batch([row])
        assert len(batch.stream) > 40
        assert batch.saved_compress == 0 < batch.saved_header
        assert batch.wire_bytes + batch.saved_header \
            == ENTRY_HEADER_BYTES + len(payload)

    def test_a_deflated_copy_in_flight_is_never_referenced(self):
        """A repeat of a page whose first copy rides a shipment still in
        flight references it only if it shipped raw: a deflated one may
        be the first entry evicted after its commit."""
        page, dense = text_pages(1)[0], dense_page()
        reducer = WireReducer(Simulator(seed=1), REDUCED, "jg-ahead")
        ahead = [reducer.encode_batch(journal_rows([page, dense]))]
        batch = reducer.encode_batch(journal_rows([page, dense]),
                                     ahead=ahead)
        assert batch.saved_dedup == len(dense)
        assert reducer.hits == 1


class TestFingerprintCache:
    def test_fifo_eviction_ignores_recency(self):
        cache = FingerprintCache(2)
        cache.put((1, 1), b"a")
        cache.put((2, 1), b"b")
        assert cache.get((1, 1)) == b"a"  # a read must not promote
        cache.put((3, 1), b"c")
        assert (1, 1) not in cache  # oldest *insertion* evicted
        assert cache.get((2, 1)) == b"b"
        assert cache.evictions == 1

    def test_reinsert_keeps_original_slot(self):
        cache = FingerprintCache(2)
        cache.put((1, 1), b"a")
        cache.put((2, 1), b"b")
        cache.put((1, 1), b"a")  # no-op: first insertion wins
        cache.put((3, 1), b"c")
        assert (1, 1) not in cache

    def test_zero_capacity_holds_nothing(self):
        cache = FingerprintCache(0)
        cache.put((1, 1), b"a")
        assert len(cache) == 0
        assert cache.get((1, 1)) is None

    def test_clear_drops_everything(self):
        cache = FingerprintCache(4)
        cache.put((1, 1), b"a")
        cache.clear()
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            FingerprintCache(-1)

    def test_deflated_entries_are_evicted_first(self):
        cache = FingerprintCache(3)
        cache.put((1, 1), b"a")
        cache.put((2, 1), b"b", raw=False)
        cache.put((3, 1), b"c")
        cache.put((4, 1), b"d", raw=False)
        assert (2, 1) not in cache and (1, 1) in cache
        cache.put((5, 1), b"e")
        assert (4, 1) not in cache and (1, 1) in cache
        cache.put((6, 1), b"f", raw=False)  # none deflated left
        assert (1, 1) not in cache
        assert cache.evictions == 3

    def test_all_raw_stream_evicts_like_a_plain_fifo(self):
        cache, fifo = FingerprintCache(5), OrderedDict()
        draw = random.Random(5)
        for _ in range(300):
            key = (draw.randrange(9), 1)
            cache.put(key, b"%d" % key[0])
            if key not in fifo:
                if len(fifo) == 5:
                    fifo.popitem(last=False)
                fifo[key] = b"%d" % key[0]
            assert cache._entries == fifo
            assert list(cache._order[1]) == list(fifo)

    def test_survival_bound_never_overstates(self):
        """``survives`` is sound for every insertion order, and exact
        for raw insertions: they evict one entry each, in rank order."""
        classes = [True, False, True, False, False]
        # eviction order: the deflated 2, 4, 5, then the raw 1, 3
        ranks = {(2, 1): 0, (4, 1): 1, (5, 1): 2, (1, 1): 3, (3, 1): 4}

        def filled():
            cache = FingerprintCache(5)
            for key, raw in enumerate(classes, 1):
                cache.put((key, 1), b"x", raw)
            return cache

        for key, rank in ranks.items():
            assert filled().survives(key, rank, rank)
            assert not filled().survives(key, rank + 1, rank + 1)
        for inserts in itertools.chain.from_iterable(
                itertools.product((True, False), repeat=count)
                for count in range(7)):
            for key in ranks:
                cache = filled()
                survives = cache.survives(key, len(inserts),
                                          inserts.count(True))
                for serial, raw in enumerate(inserts, 10):
                    cache.put((serial, 1), b"y", raw)
                assert key in cache or not survives, (key, inserts)


class TestAdcReduction:
    def test_duplicate_stream_ships_3x_fewer_bytes_same_image(self):
        plain_site, plain_pvol, plain_svol, _ = drain_duplicates()
        site, pvol, svol, group = drain_duplicates(reduction=REDUCED)
        # bit-identical secondary image, off vs on
        assert svol.block_map() == pvol.block_map()
        assert {b: v.payload for b, v in svol.block_map().items()} == \
            {b: v.payload for b, v in plain_svol.block_map().items()}
        # at least 3x fewer bytes on the wire
        assert site.link.bytes_transferred * 3 <= \
            plain_site.link.bytes_transferred
        # logical accounting keeps its pre-reduction meaning
        plain_group = plain_site.group
        assert group.transfer_bytes.value == \
            plain_group.transfer_bytes.value
        assert group.reducer.hits > 0

    def test_wire_counter_matches_link_accounting(self):
        site, _, _, group = drain_duplicates(reduction=REDUCED)
        counter = group.reducer.wire_counter("transfer")
        assert counter.value == site.link.bytes_transferred

    def test_references_outlive_in_flight_evictions(self):
        """Eight batches in flight over an 8-payload cache, twelve
        payloads cycling: earlier in-flight batches' commits evict each
        cached fingerprint before a reference to it could land, so no
        such reference is sent, and none falls back."""
        site, pvol, svol, group = drain_duplicates(
            writes=240, blocks=256, unique=12, transfer_window=8,
            transfer_batch=4,
            reduction=ReductionConfig(enabled=True, cache_entries=8))
        reducer = group.reducer
        assert reducer.ref_fallbacks.value == 0
        assert svol.block_map() == pvol.block_map()
        assert reducer.sender.evictions > 0

    def test_fallback_retransmits_are_booked_apart_from_the_link(self):
        """A cached payload that fails receive-side re-verification (one
        tampered with here) falls back to a retransmit on every
        reference, never a corrupt apply.  The retransmits are priced in
        their own series; the ``transfer`` series stays the link's
        charge."""
        site, pvol, svol, group = drain_duplicates(reduction=REDUCED)
        reducer = group.reducer
        payload = tamper_receiver_entry(reducer)
        payloads = duplicate_payloads(60)
        run(site.sim, site.main.host_write_many(
            [(pvol.volume_id, block, data)
             for block, data in enumerate(payloads)]))
        site.sim.run(until=site.sim.now + 2.0)
        assert group.entry_lag == 0
        fallbacks = reducer.ref_fallbacks.value
        # the retransmit's commit keeps the tampered slot: every
        # reference to it falls back
        assert fallbacks == payloads.count(payload)
        assert svol.block_map() == pvol.block_map()
        assert reducer.wire_counter("transfer").value == \
            site.link.bytes_transferred
        # a retransmit is priced as its payload: the header row the
        # reference rode in was already on the link
        assert reducer.wire_counter("transfer-fallback").value == \
            fallbacks * 1024
        # a reference that fell back saved nothing
        assert reducer.saved_dedup.value == (reducer.hits - fallbacks) * 1024

    @pytest.mark.parametrize("transfer_window", [1, 8])
    def test_each_payload_ships_in_full_once(self, transfer_window):
        """16 distinct incompressible payloads cycled 16 times: a repeat
        whose first copy is still in flight references that copy, so
        the pipelined loop ships each in full once, like stop-and-wait
        (without that, up to 16 x the window)."""
        group, _, full = drain_prefilled(
            duplicate_payloads(256, unique=16),
            transfer_window=transfer_window)
        assert full == 16
        assert group.reducer.ref_fallbacks.value == 0

    @pytest.mark.parametrize("cache_entries, full", [(4, 128), (16, 64)])
    def test_in_flight_copy_referenced_only_if_it_survives(
            self, cache_entries, full):
        """Each batch of 8 fresh payloads is repeated by the next one.
        Over a 4-payload cache the first copies would be evicted by
        their own batch before the repeats resolve: the repeats ship in
        full.  A 16-payload cache holds them: the repeats reference."""
        fresh = duplicate_payloads(64, unique=64)
        group, _, shipped = drain_prefilled(
            [payload for first in range(0, 64, 8)
             for payload in fresh[first:first + 8] * 2],
            cache_entries=cache_entries)
        assert shipped == full
        assert group.reducer.ref_fallbacks.value == 0

    def test_failed_head_voids_the_references_behind_it(self):
        """The link fails under a full pipeline: the head and the seven
        shipments behind it are discarded, the caches invalidated, and
        the re-encoded batches reference nothing the voided ones
        carried — every payload ships in full once more."""
        group, before_failure, full = drain_prefilled(
            duplicate_payloads(256, unique=16), heal_after=0.03)
        reducer = group.reducer
        assert reducer.discarded_shipments.value == 8
        assert reducer.invalidations.value == 1
        assert full - before_failure == 16
        assert reducer.ref_fallbacks.value == 0

    def test_dedup_and_compress_savings_are_split(self):
        _, _, _, group = drain_duplicates(reduction=REDUCED)
        # repeats ship as references; each pool payload's first trip may
        # also win from compression (the sha256 keystream does not, so
        # dedup must dominate)
        assert group.reducer.saved_dedup.value > 0
        reducer = group.reducer
        assert reducer.saved_header.value > 0
        # every byte the flat framing would have carried is booked to
        # exactly one mechanism
        saved = reducer.saved_dedup.value + reducer.saved_compress.value \
            + reducer.saved_header.value
        assert saved == group.transfer_bytes.value - \
            group.reducer.wire_counter("transfer").value

    def test_disabled_reducer_registers_nothing(self, sim, two_site):
        make_async_pair(two_site)
        group = two_site.main.journal_groups["jg-0"]
        assert not group.reducer.enabled
        group.reducer.invalidate()  # no-op, no AttributeError
        group.reducer.discard()


class TestReductionIntegrity:
    """Satellite: ``corrupt_entry`` x reference-shipped entries."""

    def warm_pair(self, seed=11):
        """A reduced ADC pair whose caches hold one duplicate payload."""
        site = build_pipeline(seed, reduction=REDUCED)
        sim, group = site.sim, site.group
        pvol, svol = site.pvols[0], site.svols[0]
        payload = duplicate_payloads(1)[0]
        run(sim, site.main.host_write(pvol.volume_id, 0, payload))
        sim.run(until=sim.now + 1.0)
        assert svol.peek(0).payload == payload
        assert len(group.reducer.sender) > 0
        return site, pvol, svol, group, payload

    def test_corrupted_payload_ships_raw_and_quarantines(self):
        """A torn main-journal entry no longer matches its own cache
        entry, so it ships in full and fails CRC at receive — the same
        quarantine + auto-repair as the unreduced path."""
        site, pvol, svol, group, payload = self.warm_pair()
        sim = site.sim
        group.stop_transfer()
        run(sim, site.main.host_write(pvol.volume_id, 1, payload))
        assert len(group.main_journal) == 1
        corrupted = group.main_journal.corrupt_entry(0)
        assert corrupted is not None
        hits_before = group.reducer.hits
        group.restart()
        sim.run(until=sim.now + 2.0)
        assert group.corruptions_wire.value == 1
        assert group.repair_resyncs.value >= 1
        assert group.pairs["pair-0"].state is PairState.PAIR
        assert svol.peek(1).payload == payload
        applied = {value.payload for value in svol.block_map().values()}
        assert corrupted.payload not in applied
        # the poisoned payload must not have ridden the dedup cache
        assert group.reducer.hits == hits_before

    def test_corrupted_reference_quarantines_like_payload(self):
        """Wire corruption of a reference-shipped entry is detected,
        quarantined and repaired exactly like a corrupted payload."""
        site, pvol, svol, group, payload = self.warm_pair()
        sim = site.sim
        state = {"corrupted": None}
        corrupt_first_entry(group, state)
        hits_before = group.reducer.hits
        invalidations_before = group.reducer.invalidations.value
        run(sim, site.main.host_write(pvol.volume_id, 1, payload))
        sim.run(until=sim.now + 2.0)
        # the entry really did ship as a reference...
        assert group.reducer.hits == hits_before + 1
        # ...and its corruption walked the standard quarantine path
        assert group.corruptions_wire.value == 1
        assert len(group.quarantine) == 1
        assert group.repair_resyncs.value >= 1
        assert group.pairs["pair-0"].state is PairState.PAIR
        assert svol.peek(1).payload == payload
        applied = {value.payload for value in svol.block_map().values()}
        assert state["corrupted"] not in applied
        # quarantine invalidated the caches (receiver state unprovable)
        assert group.reducer.invalidations.value > invalidations_before

    def test_torn_backup_entry_detected_with_reduction_on(self):
        site, pvol, svol, group, payload = self.warm_pair()
        sim = site.sim
        resume = hold_restore(group)
        run(sim, site.main.host_write(pvol.volume_id, 3, payload))
        sim.run(until=sim.now + 0.5)
        assert len(group.backup_journal) == 1
        corrupted = group.backup_journal.corrupt_entry(0)
        assert corrupted is not None
        resume()
        sim.run(until=sim.now + 2.0)
        assert group.corruptions_journal.value == 1
        assert group.pairs["pair-0"].state is PairState.PAIR
        assert svol.peek(3).payload == payload


class TestCacheInvalidation:
    def test_link_down_invalidates_and_recovers(self):
        site, pvol, svol, group = drain_duplicates(reduction=REDUCED)
        sim = site.sim
        assert len(group.reducer.sender) > 0
        site.link.fail()
        run(sim, site.main.host_write(
            pvol.volume_id, 0, duplicate_payloads(1)[0]))
        sim.run(until=sim.now + 0.5)
        assert group.reducer.invalidations.value >= 1
        site.link.restore()
        if group.suspended:
            run(sim, group.resync())
        sim.run(until=sim.now + 2.0)
        assert group.entry_lag == 0
        assert svol.block_map() == pvol.block_map()

    def test_restart_invalidates(self):
        _, _, _, group = drain_duplicates(reduction=REDUCED)
        assert len(group.reducer.sender) > 0
        before = group.reducer.invalidations.value
        group.restart()
        assert group.reducer.invalidations.value == before + 1
        assert len(group.reducer.sender) == 0
        assert len(group.reducer.receiver) == 0


class TestNetworkQueueGauges:
    def test_queue_depth_gauges_registered_and_sampled(self):
        from repro.simulation import NetworkLink
        sim = Simulator(seed=3)
        link = NetworkLink(sim, latency=0.001,
                           bandwidth_bytes_per_s=1e6, name="gauged")
        names = sim.telemetry.registry.names()
        assert "repro_link_queue_depth" in names
        assert "repro_link_peak_queue_depth" in names
        for _ in range(4):
            sim.spawn(link.transfer(64_000))
        sim.run(until=sim.now + 5.0)
        peak = sim.telemetry.registry.gauge(
            "repro_link_peak_queue_depth", link="gauged")
        assert peak.points
        assert peak.value >= 1
