"""One restore window per batch: equivalence properties.

The contract under test: taking the whole restore batch as one window
(``AdcConfig.apply_lanes > 1``) may only change *when* the media waits
overlap — never the converged backup image, the RPO accounting
(``restored_count`` / ``restored_sequence``), or any quiesced snapshot
view.  Because every window commits at one instant, each quiesced
snapshot is a window-boundary consistency cut: its image must equal
replaying the journaled write stream up to the snapshot's
``group_sequence`` with last-writer-wins per block.  Lanes 1 is the
serial applier (one entry per window); the number above 1 selects
nothing in the applier, so lanes 2 and 8 must restore along the same
``(sim.now, restored_sequence)`` trajectory — a change that gives the
number meaning has to break that assertion on purpose.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation import NetworkLink, Simulator
from repro.storage import AdcConfig, ArrayConfig, StorageArray
from tests.storage.conftest import fast_adc

#: ``apply_lanes`` values the equivalence properties sweep: the serial
#: applier, and two batch-window values that must behave as one
LANES = (1, 2, 8)

write_plan = st.lists(
    st.tuples(st.integers(0, 1),                  # volume index
              st.integers(0, 15),                 # block
              st.integers(0, 30)),                # payload tag
    min_size=4, max_size=60)

cut_times = st.lists(st.floats(0.004, 0.08), min_size=0, max_size=3,
                     unique=True)


def build_laned_pair(seed, lanes, volumes=2, blocks=64):
    """Two async pairs in one journal group over a bandwidth-bound link
    with small transfer/restore batches, so restore runs in several
    windows and mid-stream cuts land between them."""
    sim = Simulator(seed=seed)
    adc = fast_adc(apply_lanes=lanes, transfer_batch=8, restore_batch=8,
                   transfer_interval=0.004, restore_interval=0.001)
    config = ArrayConfig(adc=adc)
    main = StorageArray(sim, serial="M", config=config)
    backup = StorageArray(sim, serial="B", config=config)
    main_pool = main.create_pool(100_000)
    backup_pool = backup.create_pool(100_000)
    link = NetworkLink(sim, latency=0.002,
                       bandwidth_bytes_per_s=2_000_000, name="llink")
    main_jnl = main.create_journal(main_pool.pool_id, 10_000)
    backup_jnl = backup.create_journal(backup_pool.pool_id, 10_000)
    group = main.create_journal_group("jg-l", main_jnl.journal_id,
                                      backup, backup_jnl.journal_id,
                                      link)
    pvols, svols = [], []
    for index in range(volumes):
        pvol = main.create_volume(main_pool.pool_id, blocks)
        svol = backup.create_volume(backup_pool.pool_id, blocks)
        main.create_async_pair(f"pl-{index}", "jg-l", pvol.volume_id,
                               backup, svol.volume_id)
        pvols.append(pvol)
        svols.append(svol)
    return sim, main, backup, group, link, pvols, svols


def drain(sim, group, deadline=60.0):
    """Run until the pipeline fully applied everything to the S-VOLs."""
    def settled():
        return (group.entry_lag == 0 and not group.suspended
                and all(not pair.dirty_blocks
                        for pair in group.pairs.values()))

    limit = sim.now + deadline
    while not settled() and sim.now < limit:
        sim.run(until=sim.now + 0.05)
    assert settled(), "restore pipeline failed to drain"


def image_of(volume):
    return {block: (value.payload, value.version)
            for block, value in volume.block_map().items()}


def oracle_views(plan, volume_ids, cut_sequence):
    """Expected (image, frozen versions) per volume id of the write
    stream's prefix with journal sequence <= ``cut_sequence``.

    The writer issues plan writes serially through one journal group,
    so journal sequence == write index and the i-th write to a volume
    installs version i (per-volume monotone counter)."""
    images = {vid: {} for vid in volume_ids}
    versions = {vid: {} for vid in volume_ids}
    counters = {vid: 0 for vid in volume_ids}
    for sequence, (vidx, block, tag) in enumerate(plan):
        vid = volume_ids[vidx]
        counters[vid] += 1
        if sequence <= cut_sequence:
            images[vid][block] = b"w%d" % tag
            versions[vid][block] = counters[vid]
    return images, versions


def run_plan(lanes, plan, cuts=(), seed=17, fault=None):
    """Apply ``plan`` through a two-pair group at ``lanes``; returns
    the converged backup/primary images, the group, and one
    ``(group_sequence, {svol_id: (image, frozen_versions)})`` record
    per mid-stream quiesced snapshot cut, and the restore trajectory:
    ``(sim.now, restored_sequence)`` after every window the restore
    loop commits."""
    sim, main, backup, group, link, pvols, svols = build_laned_pair(
        seed, lanes)
    svol_ids = [svol.volume_id for svol in svols]
    trajectory = []
    update_copy_states = group._update_copy_states

    def recording_update():
        # the restore loop's per-window bookkeeping call
        trajectory.append((sim.now, group.restored_sequence))
        update_copy_states()

    group._update_copy_states = recording_update

    def writer():
        for vidx, block, tag in plan:
            yield from main.host_write(pvols[vidx].volume_id, block,
                                       b"w%d" % tag)

    snapshot_groups = []

    def cutter():
        last = 0.0
        for index, at in enumerate(sorted(cuts)):
            yield sim.timeout(at - last)
            last = at
            snapshot_group = yield from backup.create_snapshot_group(
                f"cut-{index}", svol_ids)
            snapshot_groups.append(snapshot_group)

    proc = sim.spawn(writer())
    cut_proc = sim.spawn(cutter())
    if fault is not None:
        fault(sim, group, link)
    sim.run_until_complete(proc)
    drain(sim, group)
    sim.run_until_complete(cut_proc)
    cut_views = []
    for snapshot_group in snapshot_groups:
        members = snapshot_group.by_base_volume()
        sequences = {snap.group_sequence for snap in members.values()}
        assert len(sequences) == 1, "cut is not a single sequence point"
        cut_views.append((sequences.pop(), {
            vid: (dict(snap.image_blocks()),
                  dict(snap.frozen_version_map()))
            for vid, snap in members.items()}))
    backup_images = {svol.volume_id: image_of(svol) for svol in svols}
    primary_images = [image_of(pvol) for pvol in pvols]
    return (backup_images, primary_images, group, cut_views, svol_ids,
            trajectory)


def check_cuts(plan, svol_ids, cut_views):
    """Every quiesced cut equals the prefix-replay oracle."""
    for cut_sequence, views in cut_views:
        images, versions = oracle_views(plan, svol_ids, cut_sequence)
        for vid, (image, frozen) in views.items():
            assert image == images[vid], f"cut@{cut_sequence} image"
            assert frozen == versions[vid], f"cut@{cut_sequence} versions"


class TestLaneEquivalence:
    @given(plan=write_plan, cuts=cut_times)
    @settings(max_examples=20, deadline=None)
    def test_any_lane_count_converges_to_the_same_image(self, plan, cuts):
        """Laned == serial for any clean write stream: the backup
        images, the RPO accounting, and every mid-stream quiesced
        snapshot cut all match the serial applier."""
        baseline = None
        trajectories = {}
        for lanes in LANES:
            (backup_images, primary_images, group, cut_views, svol_ids,
             trajectories[lanes]) = run_plan(lanes, plan, cuts=cuts)
            for svol_id, pvol_image in zip(svol_ids, primary_images):
                assert backup_images[svol_id] == pvol_image
            check_cuts(plan, svol_ids, cut_views)
            accounting = (group.restored_count.value,
                          group.restored_sequence,
                          group.transferred_count.value)
            if baseline is None:
                baseline = (backup_images, accounting)
            else:
                assert backup_images == baseline[0], f"lanes={lanes}"
                assert accounting == baseline[1], f"lanes={lanes}"
        assert trajectories[2] == trajectories[8]

    @given(plan=write_plan, cuts=cut_times,
           fail_at=st.floats(0.001, 0.05), outage=st.floats(0.01, 0.1))
    @settings(max_examples=15, deadline=None)
    def test_link_flap_mid_window_converges_identically(
            self, plan, cuts, fail_at, outage):
        """A partition that kills in-flight shipments mid-window must
        discard and re-ship without reordering: every lane count
        converges to the primary's image with identical accounting,
        and every cut taken during the storm is still a clean prefix."""
        def flap(sim, group, link):
            def chaos():
                yield sim.timeout(fail_at)
                link.fail()
                yield sim.timeout(outage)
                link.restore()
            sim.spawn(chaos())

        baseline = None
        trajectories = {}
        for lanes in LANES:
            (backup_images, primary_images, group, cut_views, svol_ids,
             trajectories[lanes]) = run_plan(lanes, plan, cuts=cuts,
                                             fault=flap)
            for svol_id, pvol_image in zip(svol_ids, primary_images):
                assert backup_images[svol_id] == pvol_image
            check_cuts(plan, svol_ids, cut_views)
            accounting = (group.restored_count.value,
                          group.restored_sequence)
            if baseline is None:
                baseline = (backup_images, accounting)
            else:
                assert backup_images == baseline[0], f"lanes={lanes}"
                assert accounting == baseline[1], f"lanes={lanes}"
        assert trajectories[2] == trajectories[8]


class TestLaneConfigAndMetrics:
    def test_lanes_must_be_positive(self):
        with pytest.raises(ValueError, match="apply_lanes"):
            AdcConfig(apply_lanes=0)

    def test_window_is_one_entry_or_the_whole_batch(self):
        for lanes, expected in ((1, 1), (2, 5), (8, 5)):
            sim, _main, _backup, group, _link, pvols, _svols = \
                build_laned_pair(5, lanes)
            journal = group.main_journal
            group.backup_journal.ingest_batch(
                [journal.append(pvols[0].volume_id, block % 2, b"x",
                                block + 1, 0.0) for block in range(5)])
            group.stop_transfer()
            windows = []
            apply_window = group._apply_window

            def recording(window):
                windows.append(len(window))
                return apply_window(window)

            group._apply_window = recording
            sim.run(until=0.05)
            assert windows == [expected] * (5 // expected)

    def test_serial_group_registers_no_lane_metrics(self):
        """Digest neutrality: lanes=1 must not register new series."""
        sim, _main, _backup, group, _link, _pvols, _svols = \
            build_laned_pair(5, lanes=1)
        assert group.lane_conflicts is None
        assert group.restore_lanes_gauge is None

    def test_laned_group_exports_gauge_and_conflict_counter(self):
        sim, main, _backup, group, _link, pvols, _svols = \
            build_laned_pair(5, lanes=4)
        assert group.restore_lanes_gauge is not None
        assert group.restore_lanes_gauge.points[-1][1] == 4
        assert group.lane_conflicts is not None

        def writer():
            # same block twice in one window: the second write
            # supersedes the first (last-writer-wins coalescing)
            for tag in range(6):
                yield from main.host_write(pvols[0].volume_id, 3,
                                           b"c%d" % tag)

        sim.run_until_complete(sim.spawn(writer()))
        drain(sim, group)
        assert group.lane_conflicts.value >= 1


# ---------------------------------------------------------------------------
# the one-entry window: same decisions, same spans, same image
# ---------------------------------------------------------------------------

#: what the middle entry of a three-entry backlog runs into
OUTCOMES = {
    "ok": ("ok", None),
    "stale": ("skipped", "stale version"),
    "pair deleted": ("skipped", "pair deleted"),
    "integrity": ("integrity", "checksum mismatch"),
}


def build_backlog(outcome, lanes):
    """A stopped group whose backup journal holds three entries, the
    middle one about to meet ``outcome``; returns (sim, group, svol)."""
    sim = Simulator(seed=9)
    adc = fast_adc(apply_lanes=lanes, auto_repair=False)
    config = ArrayConfig(adc=adc)
    main = StorageArray(sim, serial="M", config=config)
    backup = StorageArray(sim, serial="B", config=config)
    main_pool, backup_pool = main.create_pool(1000), backup.create_pool(1000)
    link = NetworkLink(sim, latency=0.002, name="olink")
    group = main.create_journal_group(
        "jg-o", main.create_journal(main_pool.pool_id, 100).journal_id,
        backup, backup.create_journal(backup_pool.pool_id, 100).journal_id,
        link)
    pvol = main.create_volume(main_pool.pool_id, 16)
    svol = backup.create_volume(backup_pool.pool_id, 16)
    main.create_async_pair("po", "jg-o", pvol.volume_id, backup,
                           svol.volume_id)
    group.stop()
    sim.run(until=0.01)  # both loops have exited
    middle = 9999 if outcome == "pair deleted" else pvol.volume_id
    journal = group.main_journal
    entries = [journal.append(pvol.volume_id, 0, b"first", 1, sim.now),
               journal.append(middle, 1, b"middle", 2, sim.now),
               journal.append(pvol.volume_id, 2, b"last", 3, sim.now)]
    journal.clear()  # nothing left for the transfer side
    group.backup_journal.ingest_batch(entries)
    if outcome == "stale":
        # the same version: the boundary of the stale test
        svol.install_block(1, b"resynced", version=2)
    if outcome == "integrity":
        group.backup_journal.corrupt_entry(1)
    return sim, group, svol


def apply_backlog(outcome, via):
    """Apply :func:`build_backlog` ``via`` the serial restore loop or
    ``drain()`` (one-entry windows) or as one multi-entry window;
    returns what an observer can see afterwards."""
    sim, group, svol = build_backlog(outcome, 8 if via == "window" else 1)
    if via == "drain":
        sim.run_until_complete(sim.spawn(group.drain()))
    else:
        group.start()
        sim.run(until=sim.now + 0.05)
    assert len(group.backup_journal) == 0
    spans = [(span.status, span.attrs)
             for span in sim.telemetry.tracer.named("restore-apply")]
    return (image_of(svol), spans, group.restored_sequence,
            group.restored_count.value, group.suspended,
            [entry.sequence for entry in group.quarantine])


class TestOneEntryWindow:
    @pytest.mark.parametrize("outcome", OUTCOMES)
    def test_each_outcome_equals_the_multi_entry_window(self, outcome):
        window = apply_backlog(outcome, "window")
        assert apply_backlog(outcome, "loop") == window
        assert apply_backlog(outcome, "drain") == window
        _image, spans, restored, count, suspended, quarantined = window
        status, reason = OUTCOMES[outcome]
        assert [s for s, _attrs in spans] == ["ok", status, "ok"]
        assert spans[1][1].get("reason") == reason
        assert spans[1][1]["applied"] is (outcome == "ok")
        assert (restored, count) == (2, 3)
        assert suspended is (outcome == "integrity")
        assert quarantined == ([1] if outcome == "integrity" else [])

    @pytest.mark.parametrize("lanes", [1, 8])
    def test_nothing_installs_before_the_media_wait_ends(self, lanes):
        sim, group, svol = build_backlog("ok", lanes)
        samples = []

        def observer(sim):
            while len(group.backup_journal):
                samples.append((group.applying, svol.used_blocks,
                                group.restored_sequence))
                yield sim.sleep(0.00005)

        group.start()
        sim.run_until_complete(sim.spawn(observer(sim)))
        assert any(applying for applying, _used, _restored in samples)
        for applying, used, restored in samples:
            # mid-window the image is still the last boundary's cut
            assert used == (restored + 1 if lanes == 1 else 0)

    @pytest.mark.parametrize("pairs", [1, 64])
    def test_initial_copy_done_flips_as_restore_passes_the_watermark(
            self, pairs):
        sim = Simulator(seed=3)
        config = ArrayConfig(adc=fast_adc(restore_batch=16))
        main = StorageArray(sim, serial="M", config=config)
        backup = StorageArray(sim, serial="B", config=config)
        main_pool = main.create_pool(100_000)
        backup_pool = backup.create_pool(100_000)
        link = NetworkLink(sim, latency=0.002, name="clink")
        group = main.create_journal_group(
            "jg-c", main.create_journal(main_pool.pool_id, 1000).journal_id,
            backup,
            backup.create_journal(backup_pool.pool_id, 1000).journal_id,
            link)
        group.stop()  # pair up first: every initial copy is outstanding
        for index in range(pairs):
            pvol = main.create_volume(main_pool.pool_id, 8)
            svol = backup.create_volume(backup_pool.pool_id, 8)
            for block in range(1 + index % 3):
                pvol.install_block(block, b"seed-%d" % index)
            main.create_async_pair(f"pc-{index}", "jg-c", pvol.volume_id,
                                   backup, svol.volume_id)
        assert len(group._copy_pending) == pairs
        windows, flipped = [], {}
        update_copy_states = group._update_copy_states

        def recording_update():
            update_copy_states()
            windows.append((sim.now, group.restored_sequence))
            for pair in group.pairs.values():
                if pair.initial_copy_done:
                    flipped.setdefault(pair.pair_id, windows[-1])

        group._update_copy_states = recording_update
        group.start()
        drain(sim, group)
        assert not group._copy_pending
        for pair in group.pairs.values():
            # the rule the per-window walk over every pair implemented
            expected = next(window for window in windows
                            if window[1] >= pair.copy_watermark)
            assert flipped[pair.pair_id] == expected, pair.pair_id
