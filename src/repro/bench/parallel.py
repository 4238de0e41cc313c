"""Deterministic multiprocessing fan-out for cell-shaped work.

Experiments (E1's mode × RTT grid, E7's interval × seed grid) and
chaos-campaign seeds share one shape: a list of *cells* that are
pairwise independent — each cell builds its own
:class:`~repro.simulation.kernel.Simulator` from its own seed and never
touches another cell's state.  :class:`ParallelRunner` shards such a
cell list across ``multiprocessing`` workers and merges the results
**in input order** (by cell key, never by completion order), so the
merged tables and facts are identical to a serial run:

* ``jobs=1`` (the default) does not import multiprocessing at all —
  the cells run inline, bit-identical to the pre-fan-out code;
* ``jobs>1`` forks workers (fork keeps the already-imported modules;
  spawn is the fallback where fork is unavailable).  Cell workers must
  be **top-level functions** taking one picklable argument — the usual
  ``multiprocessing`` contract.

Determinism holds because every cell derives all randomness from the
seed inside its argument tuple; the only cross-cell state in the
simulator stack is the debug id counters (``Event.event_id``,
``Process.process_id``), which never feed behaviour, digests or
tables.
"""

from __future__ import annotations

import os
from typing import Callable, List, Sequence, TypeVar

Cell = TypeVar("Cell")
Result = TypeVar("Result")


def resolve_jobs(jobs: int) -> int:
    """Normalise a ``--jobs`` value: 0 means one worker per CPU."""
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return (os.cpu_count() or 1) if jobs == 0 else jobs


class ParallelRunner:
    """Maps a top-level worker function over independent cells.

    Parameters
    ----------
    jobs:
        Maximum concurrent workers.  ``1`` runs the cells inline in
        the calling process (no multiprocessing import, bit-identical
        behaviour); ``0`` means one worker per CPU.
    """

    def __init__(self, jobs: int = 1) -> None:
        self.jobs = resolve_jobs(jobs)

    def map(self, worker: Callable[[Cell], Result],
            cells: Sequence[Cell]) -> List[Result]:
        """``[worker(cell) for cell in cells]``, possibly in parallel.

        Results always come back in ``cells`` order regardless of
        which worker finished first — the deterministic-merge
        guarantee every caller relies on.
        """
        cells = list(cells)
        if self.jobs <= 1 or len(cells) <= 1:
            return [worker(cell) for cell in cells]
        import multiprocessing

        method = ("fork" if "fork" in
                  multiprocessing.get_all_start_methods() else "spawn")
        context = multiprocessing.get_context(method)
        processes = min(self.jobs, len(cells))
        with context.Pool(processes=processes) as pool:
            # Pool.map preserves input order by construction
            return pool.map(worker, cells)
