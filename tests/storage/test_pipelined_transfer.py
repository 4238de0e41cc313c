"""Pipelined inter-site transfer: wire corruption mid-window, adaptive
batch sizing, config validation.

That any transfer window converges to the stop-and-wait image, link
flaps included, is the executable specification's job (``tests/spec``).
Pinned here: deterministic wire corruption heals identically in every
window (corruption faults are not yet a spec rule), the AIMD batch
bounds, and the config checks.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import AdcConfig
from repro.storage.journal import JournalEntry
from tests.storage.conftest import build_pipeline, drain, image_of

#: windows the corruption property sweeps: stop-and-wait, barely
#: pipelined, deeply pipelined
WINDOWS = (1, 2, 8)

write_plan = st.lists(
    st.tuples(st.integers(0, 15),                 # block
              st.integers(0, 30)),                # payload tag
    min_size=4, max_size=60)


def build_windowed_pair(seed, window, blocks=64, batch=8,
                        bandwidth=2_000_000, **overrides):
    """One ADC pair over a bandwidth-bound link with a small transfer
    batch, so several batches queue up and the window actually opens."""
    return build_pipeline(seed, blocks=blocks, latency=0.002,
                          bandwidth=bandwidth, transfer_window=window,
                          transfer_batch=batch, transfer_interval=0.004,
                          **overrides)


def run_plan(window, plan, seed=17, fault=None):
    """Apply ``plan`` through one pair at ``window``; returns the
    converged (backup image, primary image, group)."""
    p = build_windowed_pair(seed, window)
    pvol = p.pvols[0]

    def writer():
        for block, tag in plan:
            yield from p.main.host_write(pvol.volume_id, block,
                                         b"w%d" % tag)

    proc = p.sim.spawn(writer())
    if fault is not None:
        fault(p.sim, p.group, p.link)
    p.sim.run_until_complete(proc)
    drain(p.sim, p.group)
    return image_of(p.svols[0]), image_of(pvol), p.group


class TestWindowEquivalence:
    @given(plan=write_plan)
    @settings(max_examples=15, deadline=None)
    def test_wire_corruption_mid_window_heals_identically(self, plan):
        """Deterministic wire corruption (by sequence, so every window
        corrupts the same entries): quarantine + auto-repair must
        converge every window to the primary's image, and no corrupted
        payload may ever reach a secondary volume."""
        def corrupt(sim, group, link):
            def injector(entry):
                if entry.sequence % 5 == 3:
                    payload = entry.payload or b"\x00"
                    return JournalEntry(
                        entry.sequence, entry.volume_id, entry.block,
                        payload[:-1] + bytes([payload[-1] ^ 0x40]),
                        entry.version, entry.created_at,
                        checksum=entry.checksum)
                return entry
            group.install_wire_injector(injector)

        baseline = None
        for window in WINDOWS:
            backup_image, primary_image, group = run_plan(
                window, plan, fault=corrupt)
            assert backup_image == primary_image
            if len(plan) >= 4:  # sequences 1.. carry at least one hit
                assert group.corruptions_wire.value >= 1
            if baseline is None:
                baseline = backup_image
            else:
                assert backup_image == baseline, f"window={window}"


class TestAdaptiveBatch:
    def adaptive_pair(self, window, entries=1500):
        """Pair with adaptive sizing and a pre-filled backlog."""
        p = build_windowed_pair(
            31, window, blocks=512, batch=64, bandwidth=50_000_000,
            adaptive_batch=True, transfer_batch_min=64,
            transfer_batch_max=512, transfer_batch_step=64,
            batch_target_time=0.05)
        p.group.stop()

        def writer():
            for first in range(0, entries, 128):
                count = min(128, entries - first)
                yield from p.main.host_write_many(
                    [(p.pvols[0].volume_id, (first + i) % 512, b"a")
                     for i in range(count)])

        p.sim.run_until_complete(p.sim.spawn(writer()))
        p.group.restart()
        return p.sim, p.group, p.link

    @pytest.mark.parametrize("window", [1, 4])
    def test_backlog_grows_the_batch(self, window):
        sim, group, _link = self.adaptive_pair(window)
        assert group._batch_size == 64
        drain(sim, group)
        assert group._batch_size > 64
        assert group.batch_size_gauge.points[-1][1] == group._batch_size

    def test_link_failure_halves_down_to_the_floor(self):
        sim, group, link = self.adaptive_pair(4)

        def flap():
            yield sim.timeout(0.005)
            link.fail()
            yield sim.timeout(2.0)
            link.restore()

        sim.spawn(flap())
        drain(sim, group)
        floor_hit = min(value for _t, value
                        in group.batch_size_gauge.points)
        assert floor_hit == 64  # repeated failures halve to the min

    @pytest.mark.parametrize("window", [1, 4])
    def test_size_stays_within_bounds(self, window):
        sim, group, _link = self.adaptive_pair(window)
        drain(sim, group)
        sizes = [value for _t, value in group.batch_size_gauge.points]
        assert sizes, "adaptive sizing never sampled the gauge"
        assert all(64 <= size <= 512 for size in sizes)

    def test_static_sizing_never_samples_the_gauge(self):
        group = build_windowed_pair(33, window=2).group
        assert group.batch_size_gauge.points == []


class TestConfigValidation:
    def test_window_must_be_positive(self):
        with pytest.raises(ValueError, match="transfer_window"):
            AdcConfig(transfer_window=0)

    def test_batch_bounds_must_be_ordered(self):
        with pytest.raises(ValueError, match="transfer_batch_max"):
            AdcConfig(transfer_batch_min=256, transfer_batch_max=64)

    def test_batch_min_and_step_must_be_positive(self):
        with pytest.raises(ValueError, match="transfer_batch_min"):
            AdcConfig(transfer_batch_min=0)
        with pytest.raises(ValueError, match="transfer_batch_step"):
            AdcConfig(transfer_batch_step=0)

    def test_target_time_must_be_positive(self):
        with pytest.raises(ValueError, match="batch_target_time"):
            AdcConfig(batch_target_time=0.0)

    def test_adaptive_clamps_the_initial_batch(self):
        group = build_windowed_pair(
            35, window=1, batch=8, adaptive_batch=True,
            transfer_batch_min=16, transfer_batch_max=32).group
        assert group._batch_size == 16
