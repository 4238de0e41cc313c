"""Dependency-aware apply lanes for the backup-site restore paths.

The restore/resync appliers preserve ordering *per (volume, block)
target and across consistency cuts* — not globally (the same relaxation
ARIES-style partitioned redo and Aurora's ordered-apply lanes exploit).
This module is the shared scheduler both the ADC restore applier and
the SDC bulk-copy install phase thread their media waits through:

* :func:`lane_delays` deals conflict-free work items round-robin into
  ``lanes`` lanes and prices each lane — deterministic, so two runs of
  the same seed schedule identically;
* :func:`lane_waits` runs one aggregated media wait per lane as a
  concurrent simulation process and joins them all before returning.
  The join is the **consistency-cut barrier**: no caller-visible state
  changes until every lane's media wait has elapsed, so the commit that
  follows lands at a single simulated instant and every externally
  observable image remains a cut of the apply order.

Items inside one lane share a single aggregated wait (``max`` of their
per-item costs — the media writes overlap, exactly the argument the
serial window applier already makes), so the barrier fires at the
global maximum of the per-item costs regardless of lane count; lanes
bound how much bookkeeping each concurrent process carries.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, List, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulation.kernel import Simulator


def lane_delays(costs: Sequence[float], lanes: int) -> List[float]:
    """Aggregated media wait of each lane when conflict-free work items
    with these ``costs`` are dealt round-robin into ``lanes`` lanes: the
    ``max`` of a lane's costs (its media writes overlap).  Never more
    lanes than items, so no process is spawned with nothing to wait for.
    """
    if lanes < 1:
        raise ValueError(f"lanes must be >= 1: {lanes}")
    lanes = min(lanes, len(costs))
    return [max(costs[lane::lanes]) for lane in range(lanes)]


def lane_waits(sim: "Simulator", delays: Sequence[float],
               name: str) -> Generator[object, object, None]:
    """Run one aggregated wait per lane concurrently; join them all.

    This is the consistency-cut barrier: the generator completes only
    once every lane's wait has elapsed, after which the caller commits
    all lane results at one simulated instant.  A single non-zero
    delay waits inline (no process allocation) — with one lane this is
    byte-identical to the serial applier's single aggregated wait.
    """
    pending = [delay for delay in delays if delay > 0]
    if not pending:
        return
    if len(pending) == 1:
        yield sim.timeout(pending[0])
        return
    procs = [sim.spawn(_lane_wait(sim, delay),
                       name=f"{name}.lane-{index}")
             for index, delay in enumerate(pending)]
    for proc in procs:
        yield proc  # join: the barrier closes at the slowest lane


def _lane_wait(sim: "Simulator", delay: float,
               ) -> Generator[object, object, None]:
    yield sim.timeout(delay)
