"""Black-box flight recorder: a bounded ring of structured events.

Metrics answer "how much" and spans answer "how long", but neither
answers the postmortem question "what happened, in what order?".  The
:class:`FlightRecorder` fills that gap: components append small
structured :class:`FlightEvent` records (pair-state transitions,
suspensions, fault injections, alert transitions, failover steps,
resync/quarantine actions) at simulated timestamps, and the recorder
keeps the most recent ``capacity`` of them in a ring — exactly like an
aircraft's black box, the tail of history survives any crash.

When something goes wrong — a chaos invariant fires, a failover runs —
the current ring is *snapshotted*: frozen in memory (and optionally
dumped to disk as JSON) so later events cannot rotate the evidence out
of the buffer.  :mod:`repro.telemetry.incident` joins these events with
spans and metric snapshots into a rendered postmortem.

Every :class:`~repro.telemetry.Telemetry` owns one recorder
(``sim.telemetry.recorder``), so events are per-simulation and as
deterministic as the simulation itself: same seed, same events, byte
for byte.
"""

from __future__ import annotations

import json
import re
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry.registry import MetricsRegistry

#: default ring size; a quick chaos campaign produces a few hundred
#: events, so the default keeps several campaigns of history
DEFAULT_CAPACITY = 4096

_SLUG = re.compile(r"[^a-z0-9._-]+")


def _slug(text: str) -> str:
    """Filesystem-safe form of a snapshot reason."""
    return _SLUG.sub("-", text.lower()).strip("-") or "snapshot"


@dataclass(frozen=True)
class FlightEvent:
    """One structured black-box event at a simulated instant.

    ``seq`` is a per-recorder monotonic counter: events at the same
    simulated time still have a total order, and the postmortem
    generator sorts by ``(time, seq)``.
    """

    seq: int
    time: float
    #: coarse event class: "fault", "alert", "suspension", "resync",
    #: "quarantine", "pair", "array", "failover", "invariant", ...
    category: str
    #: the specific subject (rule name, group id, fault kind, ...)
    name: str
    attrs: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "seq": self.seq,
            "time": self.time,
            "category": self.category,
            "name": self.name,
            "attrs": dict(self.attrs),
        }

    def __str__(self) -> str:
        tail = "".join(f" {key}={self.attrs[key]}"
                       for key in sorted(self.attrs))
        return f"[{self.time:9.4f}] {self.category:10} {self.name}{tail}"


class FlightRecorder:
    """Bounded ring buffer of :class:`FlightEvent` records.

    Recording is O(1) and allocation-light; the ring evicts oldest
    first and counts evictions in :attr:`dropped` so truncation stays
    visible.  ``enabled = False`` turns :meth:`record` into a no-op for
    perf-sensitive runs (the hot write path never records, so the
    default stays on everywhere).
    """

    def __init__(self, clock: Callable[[], float],
                 capacity: int = DEFAULT_CAPACITY,
                 registry: Optional["MetricsRegistry"] = None) -> None:
        if capacity < 1:
            raise ValueError(f"recorder capacity must be >= 1: {capacity}")
        self._clock = clock
        self.capacity = capacity
        self.registry = registry
        self.enabled = True
        self.events: Deque[FlightEvent] = deque(maxlen=capacity)
        self.dropped = 0
        #: frozen (reason, events) copies taken by :meth:`snapshot`
        self.snapshots: List[dict] = []
        #: when set, every snapshot is also dumped to this directory
        self.dump_dir: Optional[Path] = None
        self._seq = 0
        self._category_counters: Dict[str, object] = {}

    # -- recording -----------------------------------------------------------

    def record(self, category: str, name: str,
               **attrs: object) -> Optional[FlightEvent]:
        """Append one event at the current simulated time.

        Returns the event (or None while disabled).  Attribute values
        should be plain JSON-friendly scalars so snapshots serialise.
        """
        if not self.enabled:
            return None
        if len(self.events) == self.capacity:
            self.dropped += 1
        self._seq += 1
        event = FlightEvent(seq=self._seq, time=self._clock(),
                            category=category, name=name, attrs=attrs)
        self.events.append(event)
        if self.registry is not None:
            counter = self._category_counters.get(category)
            if counter is None:
                counter = self.registry.counter(
                    "repro_flight_events_total",
                    help="Events captured by the flight recorder",
                    category=category)
                self._category_counters[category] = counter
            counter.increment()
        return event

    # -- snapshots -----------------------------------------------------------

    def snapshot(self, reason: str) -> dict:
        """Freeze the current ring under ``reason``.

        The frozen copy is appended to :attr:`snapshots`; when
        :attr:`dump_dir` is set it is also written to
        ``flight-<n>-<reason>.json`` there.  Returns the snapshot dict.
        """
        frozen = {
            "reason": reason,
            "time": self._clock(),
            "dropped": self.dropped,
            "events": [event.as_dict() for event in self.events],
        }
        self.snapshots.append(frozen)
        if self.registry is not None:
            self.registry.counter(
                "repro_flight_snapshots_total",
                help="Flight-recorder snapshots taken",
            ).increment()
        if self.dump_dir is not None:
            self.dump_dir.mkdir(parents=True, exist_ok=True)
            path = self.dump_dir / (
                f"flight-{len(self.snapshots):03d}-{_slug(reason)}.json")
            path.write_text(
                json.dumps(frozen, indent=2, sort_keys=True) + "\n")
        return frozen

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def named(self, category: str, name: str) -> List[FlightEvent]:
        """All buffered events matching category and name, in order."""
        return [event for event in self.events
                if event.category == category and event.name == name]

    def __repr__(self) -> str:
        return (f"<FlightRecorder events={len(self.events)} "
                f"dropped={self.dropped} "
                f"snapshots={len(self.snapshots)}>")
