"""Transfer-side write coalescing (``AdcConfig.coalesce_overwrites``).

The optimisation collapses same-(volume, block) superseded entries
within one transfer batch so only the last writer crosses the wire.
That the converged image and every cut stay those of the uncoalesced
pipeline is the executable specification's job (``tests/spec``); pinned
here are the counters, the wire saving, and the rule a thinned batch
imposes on restore windows.
"""

import pytest

from repro.recovery.checker import check_storage_cut
from tests.storage.conftest import build_pipeline, drain, image_of, run

#: transfer interval long enough for batches (and thus overwrite
#: windows) to build up while the host writes back-to-back
BATCHY_INTERVAL = 0.02


def drain_writes(writes, coalesce: bool, seed: int = 11):
    """Apply ``writes`` (block, payload) through one pair, drain fully,
    and return (backup image, group counters)."""
    p = build_pipeline(seed, blocks=64, coalesce_overwrites=coalesce,
                       transfer_interval=BATCHY_INTERVAL)

    def writer():
        for block, payload in writes:
            yield from p.main.host_write(p.pvols[0].volume_id, block,
                                         payload)

    run(p.sim, writer())
    drain(p.sim, p.group)
    return image_of(p.svols[0]), p.group


class TestCoalescingEquivalence:
    def test_hotspot_coalesces_and_converges(self):
        """A round-robin overwrite hotspot actually exercises the path:
        superseded entries are dropped, fewer bytes ship, and the image
        still equals the primary's."""
        writes = [(index % 8, b"v%04d" % index) for index in range(400)]
        plain_image, plain_group = drain_writes(writes, coalesce=False)
        co_image, co_group = drain_writes(writes, coalesce=True)
        assert co_image == plain_image
        assert co_group.coalesced_count.value > 0
        assert (co_group.transfer_bytes.value
                < plain_group.transfer_bytes.value)
        assert (co_group.transferred_count.value
                + co_group.coalesced_count.value
                == plain_group.transferred_count.value)

    def test_no_overwrites_means_nothing_coalesced(self):
        """Distinct-block streams pass through untouched — the counter
        stays zero and wire cost is identical."""
        writes = [(block, b"once-%02d" % block) for block in range(16)]
        plain_image, plain_group = drain_writes(writes, coalesce=False)
        co_image, co_group = drain_writes(writes, coalesce=True)
        assert co_image == plain_image
        assert co_group.coalesced_count.value == 0
        assert (co_group.transfer_bytes.value
                == plain_group.transfer_bytes.value)


@pytest.mark.parametrize("adc", [dict(apply_lanes=1),
                                 dict(apply_lanes=4, restore_batch=2)],
                         ids=["serial", "batch-window"])
def test_a_thinned_batch_restores_atomically(adc):
    """Regression: A(b0) B(b1) C(b2) A'(b0) ships as B, C, A'.  A
    restore window ending after B or C exposed B without A — a cut that
    is not a prefix of the ack order.  Cuts taken during each window's
    media wait freeze the boundary before it: each must be consistent."""
    p = build_pipeline(coalesce_overwrites=True, **adc)
    pvol, svol = p.pvols[0], p.svols[0]
    run(p.sim, p.main.host_write_many(
        [(pvol.volume_id, block, payload) for block, payload
         in ((0, b"A"), (1, b"B"), (2, b"C"), (0, b"A'"))]))
    cuts = []
    while p.group.entry_lag:
        p.sim.run(until=p.sim.now + 0.0001)
        if p.group.applying:  # the window in flight installs over the cut
            cuts.append(run(p.sim, p.backup.create_snapshot_group(
                f"cut-{len(cuts)}", [svol.volume_id])))
    assert p.group.coalesced_count.value == 1 and cuts
    for cut in cuts:
        report = check_storage_cut(
            p.main.history,
            {pvol.volume_id: cut.frozen_versions()[svol.volume_id]})
        assert report.consistent, str(report)
    assert image_of(svol) == image_of(pvol)
