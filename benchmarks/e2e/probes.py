"""Benchmark-side instruments that ride inside a simulated world.

Two generator processes the workloads spawn next to their clients:

* :class:`LagSampler` reads the RPO lag and both journal backlogs on a
  fixed simulated grid while the load runs;
* :class:`Cutter` plays the analytics side: it cuts a quiesced snapshot
  group on the secondary volumes at a fixed cadence, keeps one
  generation alive (so restore writes pay copy-on-write under it, as
  they would under a reader), optionally reads the image, and keeps
  every 16th cut's frozen version map for the consistency check.

Both only use public attributes of :mod:`repro.storage`.  They are the
``harness`` row of the per-layer table.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

#: every Nth mid-run cut is kept and checked against the ack history
KEEP_EVERY = 16


def quantile(ordered: Sequence[float], fraction: float,
             strict: bool = True) -> float:
    """Nearest-rank quantile of an already sorted sample.

    Refuses a percentile with fewer than ten samples beyond it: such a
    number is one or two outliers, not a percentile.  ``strict=False``
    (smoke sizes only) reports it anyway.
    """
    count = len(ordered)
    beyond = count * (1.0 - fraction)
    if strict and fraction > 0.5 and beyond < 10:
        raise ValueError(
            f"p{fraction * 100:g} of {count} samples has only "
            f"{beyond:.1f} samples beyond it (need 10)")
    return ordered[min(count - 1, int(count * fraction))]


class LagSampler:
    """RPO lag and journal backlogs on a fixed simulated grid.

    The lag is the age of the oldest acked-but-not-restored journal
    entry: the head of the backup journal if it holds anything, else
    the head of the main journal, else zero.  ``phase`` in [0, 1)
    shifts the grid by that share of a period; the workloads draw it
    from the seed so that the grid does not alias against the
    pipeline's own periodic wake-ups the same way on every seed.
    """

    def __init__(self, group, period: float, phase: float) -> None:
        self.group = group
        self.period = period
        self.phase = phase
        self.lags: List[float] = []
        self.main_backlog: List[int] = []
        self.backup_backlog: List[int] = []
        self._stopped = False

    def stop(self) -> None:
        self._stopped = True

    def run(self, sim):
        main_journal = self.group.main_journal
        backup_journal = self.group.backup_journal
        period = self.period
        yield sim.timeout(period * self.phase)
        while True:
            yield sim.timeout(period)
            if self._stopped:
                return
            oldest = backup_journal.oldest_entry() \
                or main_journal.oldest_entry()
            self.lags.append(
                sim.now - oldest.created_at if oldest is not None else 0.0)
            self.main_backlog.append(len(main_journal))
            self.backup_backlog.append(len(backup_journal))


class Cutter:
    """Backup-site snapshot-group cuts at a fixed simulated cadence.

    ``reads`` selects what the analytics side does with each cut:
    0 nothing, 1 ``frozen_version_map()`` once, 2 ``image_blocks()`` +
    ``frozen_version_map()`` when the cut is made and again just before
    it is rotated out (reads racing restore writes).
    """

    def __init__(self, backup, pairs: Sequence[Tuple[int, int]],
                 period: float, reads: int) -> None:
        self.backup = backup
        #: (primary volume id, secondary volume id) per replication pair
        self.pairs = list(pairs)
        self.svol_ids = [svol_id for _pvol, svol_id in self.pairs]
        self.period = period
        self.reads = reads
        #: simulated duration of each create_snapshot_group (quiesce)
        self.durations: List[float] = []
        #: (cut number, {primary id: {block: version}}) of kept cuts
        self.kept: List[Tuple[int, Dict[int, Dict[int, int]]]] = []
        self.cow_blocks = 0
        self._live = None
        self._stopped = False

    def stop(self) -> None:
        """Stop cutting and release the live generation."""
        self._stopped = True
        self._retire()

    def _read(self, snapshot_group) -> None:
        for snapshot in snapshot_group.snapshots:
            if self.reads >= 2:
                snapshot.image_blocks()
            snapshot.frozen_version_map()

    def _retire(self) -> None:
        live = self._live
        if live is None:
            return
        self._live = None
        if self.reads >= 2:
            self._read(live)
        self.cow_blocks += sum(snapshot.cow_blocks
                               for snapshot in live.snapshots)
        self.backup.delete_snapshot_group(live.group_id)

    def frozen_versions(self, snapshot_group) -> Dict[int, Dict[int, int]]:
        """The cut's frozen image re-keyed by primary volume id, copied
        (the snapshot's own map dies with the snapshot)."""
        by_base = snapshot_group.by_base_volume()
        return {pvol_id: dict(by_base[svol_id].frozen_version_map())
                for pvol_id, svol_id in self.pairs}

    def run(self, sim):
        backup = self.backup
        number = 0
        while True:
            yield sim.timeout(self.period)
            if self._stopped:
                return
            number += 1
            started = sim.now
            snapshot_group = yield from backup.create_snapshot_group(
                f"e2e-cut-{number}", self.svol_ids)
            self.durations.append(sim.now - started)
            if self._stopped:  # stopped during the quiesce handshake
                backup.delete_snapshot_group(snapshot_group.group_id)
                return
            self._retire()
            self._live = snapshot_group
            if self.reads:
                self._read(snapshot_group)
            if number % KEEP_EVERY == 0:
                self.kept.append(
                    (number, self.frozen_versions(snapshot_group)))
