"""The restore window: its size, its metrics, and the one-entry window.

Taking the whole restore batch as one window (``AdcConfig.apply_lanes >
1``) may only change *when* the media waits overlap; that every window
size converges to the serial applier's image, RPO accounting and
snapshot-group cuts is the executable specification's job (``tests/spec``).
Pinned here: lanes 1 is one entry per window and any number above 1 the
whole batch; the number above 1 selects nothing in the applier, so lanes
2 and 8 restore along the same ``(sim.now, restored_sequence)``
trajectory — a change that gives the number meaning has to break that
assertion on purpose; and the one-entry window's span outcomes.
"""

import pytest

from repro.storage import AdcConfig
from tests.storage.conftest import build_pipeline, drain, image_of, run


def build_laned_pair(seed, lanes):
    """Two async pairs in one journal group over a bandwidth-bound link
    with small transfer/restore batches, so restore runs in several
    windows."""
    return build_pipeline(seed, pairs=2, blocks=64, latency=0.002,
                          bandwidth=2_000_000, apply_lanes=lanes,
                          transfer_batch=8, restore_batch=8,
                          transfer_interval=0.004)


def record_windows(p, trajectory):
    """Append ``(sim.now, restored_sequence)`` to ``trajectory`` after
    every window the restore loop commits."""
    update_copy_states = p.group._update_copy_states

    def recording_update():
        update_copy_states()
        trajectory.append((p.sim.now, p.group.restored_sequence))

    p.group._update_copy_states = recording_update


class TestLaneConfigAndMetrics:
    def test_lanes_must_be_positive(self):
        with pytest.raises(ValueError, match="apply_lanes"):
            AdcConfig(apply_lanes=0)

    def test_window_is_one_entry_or_the_whole_batch(self):
        for lanes, expected in ((1, 1), (2, 5), (8, 5)):
            p = build_laned_pair(5, lanes)
            group = p.group
            journal = group.main_journal
            group.backup_journal.ingest_batch(
                [journal.append(p.pvols[0].volume_id, block % 2, b"x",
                                block + 1, 0.0) for block in range(5)])
            group.stop_transfer()
            windows = []
            apply_window = group._apply_window

            def recording(window):
                windows.append(len(window))
                return apply_window(window)

            group._apply_window = recording
            p.sim.run(until=0.05)
            assert windows == [expected] * (5 // expected)

    def test_lanes_2_and_8_same_trajectory(self):
        trajectories = []
        for lanes in (2, 8):
            p = build_laned_pair(17, lanes)
            trajectories.append([])
            record_windows(p, trajectories[-1])
            run(p.sim, p.main.host_write_many(
                [(p.pvols[index % 2].volume_id, (index * 7) % 16,
                  b"w%d" % index) for index in range(60)]))
            drain(p.sim, p.group)
        assert len(trajectories[0]) > 3
        assert trajectories[0] == trajectories[1]

    def test_serial_group_registers_no_lane_metrics(self):
        """Digest neutrality: lanes=1 must not register new series."""
        group = build_laned_pair(5, lanes=1).group
        assert group.lane_conflicts is None
        assert group.restore_lanes_gauge is None

    def test_laned_group_exports_gauge_and_conflict_counter(self):
        p = build_laned_pair(5, lanes=4)
        group = p.group
        assert group.restore_lanes_gauge is not None
        assert group.restore_lanes_gauge.points[-1][1] == 4
        assert group.lane_conflicts is not None

        def writer():
            # same block twice in one window: the second write
            # supersedes the first (last-writer-wins coalescing)
            for tag in range(6):
                yield from p.main.host_write(p.pvols[0].volume_id, 3,
                                             b"c%d" % tag)

        run(p.sim, writer())
        drain(p.sim, group)
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
    p = build_pipeline(9, blocks=16, latency=0.002, apply_lanes=lanes,
                       auto_repair=False)
    sim, group, pvol, svol = p.sim, p.group, p.pvols[0], p.svols[0]
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
        p = build_pipeline(3, pairs=0, latency=0.002, restore_batch=16)
        group = p.group
        group.stop()  # pair up first: every initial copy is outstanding
        for index in range(pairs):
            pvol = p.main.create_volume(p.main_pool_id, 8)
            svol = p.backup.create_volume(p.backup_pool_id, 8)
            for block in range(1 + index % 3):
                pvol.install_block(block, b"seed-%d" % index)
            p.main.create_async_pair(f"pc-{index}", "jg-0", pvol.volume_id,
                                     p.backup, svol.volume_id)
        assert len(group._copy_pending) == pairs
        windows, flipped = [], {}
        record_windows(p, windows)
        update_copy_states = group._update_copy_states

        def recording_update():
            update_copy_states()
            for pair in group.pairs.values():
                if pair.initial_copy_done:
                    flipped.setdefault(pair.pair_id, windows[-1])

        group._update_copy_states = recording_update
        group.start()
        drain(p.sim, group)
        assert not group._copy_pending
        for pair in group.pairs.values():
            # the rule the per-window walk over every pair implemented
            expected = next(window for window in windows
                            if window[1] >= pair.copy_watermark)
            assert flipped[pair.pair_id] == expected, pair.pair_id
