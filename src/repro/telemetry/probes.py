"""Periodic probes: continuous sampling of replication health.

An :class:`ArrayProbe` is a simulation process that wakes on a fixed
interval and samples one storage array's replication state into
registry gauges: journal entry-lag and byte-lag, the age of the oldest
unshipped entry, suspension flags, pair copy-state transitions, and
snapshot age.  This is the continuous-observation analogue of the spot
checks the benchmarks used to hand-roll — the paper's "no backup-data
collapse" claim is a statement about these series staying bounded.

Probes are read-only: they never yield inside the sampled structures
and never mutate them, so enabling a probe cannot perturb the
simulation's event order (only add its own wake-ups).

Probes are started explicitly (``repro metrics`` CLI, or
``run_demo(probe_interval=...)``); they run forever, so a bare
``sim.run()`` with a probe attached needs an ``until=`` bound.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulation.kernel import Simulator
    from repro.storage.array import StorageArray

#: default sampling period (seconds); ~4x the default transfer interval
DEFAULT_INTERVAL = 0.02


class ArrayProbe:
    """Samples one array's replication/snapshot state into the registry."""

    def __init__(self, sim: "Simulator", array: "StorageArray",
                 interval: float = DEFAULT_INTERVAL) -> None:
        if interval <= 0:
            raise ValueError(f"probe interval must be > 0: {interval}")
        self.sim = sim
        self.array = array
        self.interval = interval
        self.registry = sim.telemetry.registry
        self.samples_taken = 0
        self._last_pair_state: Dict[str, str] = {}
        self._process = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ArrayProbe":
        """Spawn the sampling process (idempotent); returns self."""
        if self._process is None:
            self._process = self.sim.spawn(
                self._run(), name=f"probe-{self.array.serial}")
        return self

    def _run(self) -> Generator[object, object, None]:
        while True:
            yield self.sim.sleep(self.interval)
            self.sample_once()

    # -- sampling ------------------------------------------------------------

    def sample_once(self) -> None:
        """Take one sample of everything this probe watches.

        Public so tests (and drained scenarios) can sample at exact
        instants without running the periodic process.
        """
        now = self.sim.now
        for group_id in sorted(self.array.journal_groups):
            group = self.array.journal_groups[group_id]
            # the group object is registered on both arrays; sample it
            # from the main side only so series aren't double-counted
            if not self.array.owns_journal(group.main_journal):
                continue
            self._sample_group(now, group)
        for mirror_id in sorted(self.array.sync_mirrors):
            mirror = self.array.sync_mirrors[mirror_id]
            for pair in mirror.pairs.values():
                self._track_pair_state(mirror_id, pair)
        for group in self.array.list_snapshot_groups():
            self.registry.gauge(
                "repro_snapshot_age_seconds",
                help="Age of each live snapshot group",
                unit="seconds", array=self.array.serial,
                group=group.group_id,
            ).sample(now, now - group.created_at)
        self.samples_taken += 1

    def _sample_group(self, now: float, group) -> None:
        labels = dict(group=group.group_id)
        self.registry.gauge(
            "repro_journal_entry_lag",
            help="Journaled-but-unrestored entries (main+backup journals)",
            unit="entries", **labels,
        ).sample(now, group.entry_lag)
        byte_lag = (group.main_journal.bytes_retained
                    + group.backup_journal.bytes_retained)
        self.registry.gauge(
            "repro_journal_byte_lag_bytes",
            help="Journaled-but-unrestored bytes (main+backup journals)",
            unit="bytes", **labels,
        ).sample(now, byte_lag)
        oldest = group.main_journal.oldest_entry()
        age = now - oldest.created_at if oldest is not None else 0.0
        self.registry.gauge(
            "repro_journal_oldest_entry_age_seconds",
            help="Age of the oldest unshipped main-journal entry",
            unit="seconds", **labels,
        ).sample(now, age)
        self.registry.gauge(
            "repro_journal_suspended",
            help="1 while the group is suspended (PSUS/PSUE), else 0",
            **labels,
        ).sample(now, 1.0 if group.suspended else 0.0)
        for pair in group.pairs.values():
            self._track_pair_state(group.group_id, pair)

    def _track_pair_state(self, engine_id: str, pair) -> None:
        """Count copy-state transitions (COPY→PAIR, PAIR→PSUE, …)."""
        state = pair.state.value
        previous = self._last_pair_state.get(pair.pair_id)
        self._last_pair_state[pair.pair_id] = state
        if previous is None or previous == state:
            return
        self.registry.counter(
            "repro_pair_state_transitions_total",
            help="Pair copy-state transitions observed by the probe",
            engine=engine_id, pair=pair.pair_id,
            transition=f"{previous}->{state}",
        ).increment()

    def __repr__(self) -> str:
        return (f"<ArrayProbe {self.array.serial!r} "
                f"interval={self.interval:g} "
                f"samples={self.samples_taken}>")


def start_probes(sim: "Simulator", arrays,
                 interval: Optional[float] = None) -> list:
    """Start one :class:`ArrayProbe` per array; returns the probes."""
    period = interval if interval is not None else DEFAULT_INTERVAL
    return [ArrayProbe(sim, array, interval=period).start()
            for array in arrays]
