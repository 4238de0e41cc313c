"""Tests of the wire data-reduction engine (compression + dedup).

Units of :class:`ReductionCodec` / :class:`FingerprintCache` plus end to
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

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.workload import PayloadProfile
from repro.simulation import Simulator
from repro.storage import PairState
from repro.storage.reduction import (COMPRESS_FRAME_BYTES, COMPRESS_LEVEL,
                                     MIN_COMPRESS_BYTES, RATIO_THRESHOLD,
                                     RAW_DEFLATE, REFERENCE,
                                     FingerprintCache, ReductionCodec,
                                     ReductionConfig, WireReducer)
from tests.chaos.test_faults import corrupt_first_entry
from tests.storage.conftest import (build_pipeline, hold_restore,
                                    journal_entries, journal_rows,
                                    make_async_pair, run,
                                    tamper_receiver_entry)

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


class TestReductionCodec:
    def test_small_payload_skips_compression(self):
        codec = ReductionCodec()
        assert codec.compress(b"tiny") is None

    def test_incompressible_payload_ships_raw(self):
        profile = PayloadProfile(kind="random", size_bytes=512, seed=3)
        codec = ReductionCodec()
        assert codec.compress(profile.payload(0)) is None

    def test_compressible_payload_round_trips(self):
        profile = PayloadProfile(kind="compressible", size_bytes=512,
                                 seed=3)
        codec = ReductionCodec()
        payload = profile.payload(0)
        packed = codec.compress(payload)
        assert packed is not None
        assert len(packed) + COMPRESS_FRAME_BYTES < len(payload)
        assert ReductionCodec.decompress(packed) == payload

    def test_deterministic(self):
        codec = ReductionCodec()
        payload = b"abc" * 200
        assert codec.compress(payload) == codec.compress(payload)
        assert codec.compress(payload, b"xyz" * 50) \
            == codec.compress(payload, b"xyz" * 50)


#: the spans (dictionary + payload) at which the codec's window grows:
#: a ``2**bits`` window reaches ``2**bits - 262`` bytes back
WINDOW_REACHES = [(1 << bits) - 262 for bits in range(9, 16)]


def full_window_deflate(payload, previous):
    """The codec's wire form with the full 32 KiB window: raw deflate
    at ``RAW_DEFLATE``, kept under the same size and ratio rules (the
    test's payloads never trip the density probe)."""
    if len(payload) < MIN_COMPRESS_BYTES:
        return None
    packer = zlib.compressobj(COMPRESS_LEVEL, zlib.DEFLATED, RAW_DEFLATE,
                              zdict=previous)
    packed = packer.compress(payload) + packer.flush()
    if len(packed) + COMPRESS_FRAME_BYTES <= RATIO_THRESHOLD * len(payload):
        return packed
    return None


def sixteen_letters(rng, size):
    return bytes(rng.choice(b"abcdefghijklmnop") for _ in range(size))


@st.composite
def spans(draw):
    """``(payload, previous)`` whose combined length sits within a few
    bytes of a window threshold or anywhere in 0..40 KB.  The payload
    repeats runs of the dictionary taken from its far end, so a window
    too short for the whole span misses matches, over sixteen letters,
    so the density probe never turns it away."""
    if draw(st.booleans()):
        span = draw(st.sampled_from(WINDOW_REACHES)) \
            + draw(st.integers(-3, 3))
    else:
        span = draw(st.integers(0, 40_000))
    size = draw(st.integers(0, span))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    previous = sixteen_letters(rng, span - size)
    payload = bytearray()
    while len(payload) < size:
        start = rng.randrange(len(previous) // 4 + 1)
        payload += previous[start:start + rng.randrange(8, 400)] \
            or sixteen_letters(rng, 64)
        payload += sixteen_letters(rng, rng.randrange(0, 32))
    return bytes(payload[:size]), previous


def far_reference(span=30_000, size=2_000):
    """A short payload that copies the far end of a long dictionary."""
    previous = sixteen_letters(random.Random(5), span - size)
    return previous[:size], previous


class TestWindowSizing:
    """The codec deflates through the smallest window that covers its
    span; the wire form must not change for it."""

    @given(case=spans())
    @example(case=far_reference())
    @settings(max_examples=150, deadline=None)
    def test_sized_window_is_byte_identical(self, case):
        payload, previous = case
        packed = ReductionCodec().compress(payload, previous)
        assert packed == full_window_deflate(payload, previous)
        if packed is not None:
            assert ReductionCodec.decompress(packed, previous) == payload


def text_pages(count, size=512, seed=3):
    """Distinct compressible pages sharing one record layout."""
    profile = PayloadProfile(kind="compressible", size_bytes=size,
                             seed=seed)
    return [profile.payload(index) for index in range(count)]


def dense_page(size=512, seed=3):
    return PayloadProfile(kind="random", size_bytes=size,
                          seed=seed).payload(0)


def decoded(packed, previous):
    """What raw inflate makes of ``packed`` against ``previous``, or
    None when it rejects the stream."""
    try:
        return ReductionCodec.decompress(packed, previous)
    except zlib.error:
        return None


def ship(reducer, payloads):
    """Encode one batch of ``payloads`` and receive it whole; returns
    the wire forms, the received payloads and, per payload, whether a
    resolved reference already checked it against its CRC32."""
    rows = journal_rows(payloads)
    batch = reducer.encode_batch(rows, trusted=True)
    received = list(reducer.receive_batch(batch, len(rows), rows))
    reducer.book("transfer", batch)
    return (batch.forms, [entry.payload for entry, _ in received],
            [verified for _, verified in received])


class TestBatchDictionary:
    """Each payload deflates against the one shipped before it in its
    batch, whatever that one's wire form."""

    def test_compressed_payload_decodes_only_with_its_predecessor(self):
        codec = ReductionCodec()
        first, second = text_pages(2)
        packed = codec.compress(second, first)
        assert len(packed) < len(codec.compress(second))
        assert ReductionCodec.decompress(packed, first) == second
        for wrong in (b"", dense_page()):
            assert decoded(packed, wrong) != second

    def test_batches_round_trip_whatever_the_predecessor_shipped_as(self):
        reducer = WireReducer(Simulator(seed=1), REDUCED, "jg-dict")
        pages = text_pages(5)
        # a dense head on a compressible tail: the probe ships it raw,
        # and its tail is a dictionary for the next page
        mixed = dense_page(384) + pages[0][384:]
        cases = [
            ("raw", [mixed, pages[1]], None, False),
            # pages[1] is cached (compressed class) by the batch above
            ("reference", [pages[1], pages[2]], REFERENCE, True),
            # warm a raw entry, then corrupt the receiver's copy of it:
            # the reference to it falls back to a retransmit, which
            # receive must hash like any full payload
            ("fallback", [mixed, pages[3]], REFERENCE, False),
        ]
        for name, payloads, head_form, head_verified in cases:
            if name == "fallback":
                assert tamper_receiver_entry(reducer) == mixed
            forms, received, verified = ship(reducer, payloads)
            assert forms[0] is head_form, name
            assert verified == [head_verified, False], name
            assert isinstance(forms[1], bytes), name
            assert received == payloads, name
            # the second page really leaned on the first
            assert decoded(forms[1], b"") != payloads[1], name
        assert reducer.ref_fallbacks.value == 1
        # the first payload of a batch has no dictionary
        forms, received, _verified = ship(reducer, pages[4:])
        assert forms == [ReductionCodec().compress(pages[4])]
        assert received == pages[4:]

    def test_backup_full_prefix_still_decodes(self):
        """A receive cut short by a full backup journal decodes and
        ingests the prefix that fits, every compressed page against its
        predecessor; the rest re-ships after the suspension heals."""
        p = build_pipeline(17, backup_capacity=9, reduction=REDUCED)
        group, pvol = p.group, p.pvols[0]
        resume = hold_restore(group)
        pages = text_pages(20, size=256)
        run(p.sim, p.main.host_write_many(
            [(pvol.volume_id, block, page)
             for block, page in enumerate(pages)]))
        p.sim.run(until=p.sim.now + 0.1)
        assert group.suspend_reason == "backup journal full"
        assert [entry.payload for entry in
                journal_entries(group.backup_journal)] == pages[:9]
        assert group.reducer.saved_compress.value > 0
        assert group.reducer.ref_fallbacks.value == 0
        resume()
        p.sim.run(until=p.sim.now + 0.1)
        assert [p.svols[0].peek(block).payload
                for block in range(9)] == pages[:9]


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

    def test_compressed_entries_are_evicted_first(self):
        cache = FingerprintCache(3)
        cache.put((1, 1), b"a")
        cache.put((2, 1), b"b", raw=False)
        cache.put((3, 1), b"c")
        cache.put((4, 1), b"d", raw=False)
        assert (2, 1) not in cache and (1, 1) in cache
        cache.put((5, 1), b"e")
        assert (4, 1) not in cache and (1, 1) in cache
        cache.put((6, 1), b"f", raw=False)  # none compressed left
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
        # eviction order: the compressed 2, 4, 5, then the raw 1, 3
        ranks = {(2, 1): 0, (4, 1): 1, (5, 1): 2, (1, 1): 3, (3, 1): 4}

        def filled():
            cache = FingerprintCache(5)
            for key, raw in enumerate(classes, 1):
                cache.put((key, 1), b"x", raw)
            return cache

        for key, rank in ranks.items():
            assert filled().survives(key, rank, 0)
            assert not filled().survives(key, rank + 1, 0)
        for inserts in itertools.chain.from_iterable(
                itertools.product((True, False), repeat=count)
                for count in range(7)):
            for key in ranks:
                cache = filled()
                survives = cache.survives(key, inserts.count(True),
                                          inserts.count(False))
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
