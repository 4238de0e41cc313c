"""E4 — "The snapshot group technology enables the demonstration system
to retain the snapshot volumes in consistent with the volumes on the
main site" (§III-A2, Fig 5).

Regenerates the snapshot-consistency comparison at the backup site while
the restore pipeline is live: snapshot groups (cut at the restored
sequence without pausing restore) vs per-volume snapshots issued as
separate console operations.

Expected shape (paper): snapshot groups always freeze a consistent cut;
per-volume snapshots taken at different instants do not.
"""

from repro.bench import run_e4_snapshot


def test_e4_snapshot(experiment):
    table, facts = experiment(
        run_e4_snapshot, seeds=tuple(range(400, 408)), load_time=0.25)
    assert facts["snapshot-group_rate"] == 1.0, (
        "snapshot groups must always freeze a consistent cut")
    assert facts["per-volume_rate"] < 1.0, (
        "per-volume snapshots under live restore should tear; they "
        "did not, so the baseline lost its point")
