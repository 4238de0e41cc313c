"""Tests of the wire data-reduction engine (compression + dedup).

Units of :class:`ReductionCodec` / :class:`FingerprintCache` plus end to
end coverage of the three wire paths: duplicate-heavy ADC streams ship
at least 3x fewer bytes with a bit-identical secondary image, corrupted
payloads and corrupted dedup references quarantine exactly like the
unreduced path, and cache state is invalidated on link-down, quarantine
and array restart.
"""

import pytest

from repro.apps.workload import PayloadProfile
from repro.simulation import Simulator
from repro.storage import PairState, SdcConfig
from repro.storage.reduction import (COMPRESS_FRAME_BYTES, REF_BYTES,
                                     FingerprintCache, ReductionCodec,
                                     ReductionConfig)
from tests.chaos.test_faults import corrupt_first_entry
from tests.storage.conftest import (build_pipeline, build_two_site,
                                    hold_restore, make_async_pair, run)

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

    def test_fallback_retransmits_are_booked_apart_from_the_link(self):
        """Eight batches in flight over an 8-payload cache: references
        encoded against fingerprints that earlier in-flight batches
        evict before they land.  The retransmits are priced in their own
        series; the ``transfer`` series stays the link's charge."""
        site, pvol, svol, group = drain_duplicates(
            writes=240, blocks=256, unique=12, transfer_window=8,
            transfer_batch=4,
            reduction=ReductionConfig(enabled=True, cache_entries=8))
        reducer = group.reducer
        fallbacks = reducer.ref_fallbacks.value
        assert fallbacks > 0
        assert svol.block_map() == pvol.block_map()
        assert reducer.wire_counter("transfer").value == \
            site.link.bytes_transferred
        assert reducer.wire_counter("transfer-fallback").value == \
            fallbacks * (1024 + 64)
        # a reference that fell back saved nothing
        assert reducer.saved_dedup.value == \
            (reducer.hits - fallbacks) * (1024 - REF_BYTES)

    def test_dedup_and_compress_savings_are_split(self):
        _, _, _, group = drain_duplicates(reduction=REDUCED)
        # repeats ship as references; each pool payload's first trip may
        # also win from compression (the sha256 keystream does not, so
        # dedup must dominate)
        assert group.reducer.saved_dedup.value > 0
        saved = group.reducer.saved_dedup.value + \
            group.reducer.saved_compress.value
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


class TestSdcReduction:
    def seeded_volumes(self, site, blocks=32):
        pvol = site.main.create_volume(site.main_pool_id, blocks)
        svol = site.backup.create_volume(site.backup_pool_id, blocks)
        for block, payload in enumerate(duplicate_payloads(blocks)):
            run(site.sim, site.main.host_write(
                pvol.volume_id, block, payload))
        return pvol, svol

    def make_pair(self, site, pvol, svol, reduction):
        mirror = site.main.create_sync_mirror(
            "sm-red", site.link,
            sdc_config=SdcConfig(reduction=reduction))
        site.main.create_sync_pair("sp-red", "sm-red", pvol.volume_id,
                                   site.backup, svol.volume_id)
        return mirror

    def test_initial_copy_reduced_with_identical_image(self):
        plain = build_two_site(Simulator(seed=11))
        p_pvol, p_svol = self.seeded_volumes(plain)
        self.make_pair(plain, p_pvol, p_svol, ReductionConfig())
        plain.sim.run(until=plain.sim.now + 2.0)
        assert p_svol.block_map() == p_pvol.block_map()

        site = build_two_site(Simulator(seed=11))
        pvol, svol = self.seeded_volumes(site)
        mirror = self.make_pair(site, pvol, svol, REDUCED)
        site.sim.run(until=site.sim.now + 2.0)
        assert svol.block_map() == pvol.block_map()
        assert site.link.bytes_transferred * 3 <= \
            plain.link.bytes_transferred
        assert mirror.reducer.wire_counter("copy").value > 0


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
