"""Measurement primitives of the telemetry subsystem.

These are the concrete instruments the
:class:`~repro.telemetry.registry.MetricsRegistry` hands out:

* :class:`Counter` — a named monotonic event counter;
* :class:`Gauge` — a time-stamped series of a fluctuating quantity with
  a monotonic-time guard (a mis-wired probe cannot corrupt a lag series
  by sampling backwards in time);
* :class:`Histogram` — a streaming percentile sketch with bounded
  memory and a configurable relative error, mergeable across instances;
* :class:`LatencyRecorder` — an exact-sample summary (kept for the
  benchmark paths whose shape assertions need exact percentiles).

The module is deliberately standalone: it imports nothing from the rest
of the library, so every layer (simulation kernel included) can depend
on it without cycles.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


def percentile_sorted(ordered: Sequence[float], fraction: float) -> float:
    """Linear-interpolation percentile of an *already sorted* sequence.

    The sorted-input variant exists so a summary computing several
    percentiles sorts once, not once per percentile.
    """
    if not ordered:
        raise ValueError("percentile of empty sample set")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1]: {fraction}")
    if len(ordered) == 1:
        return ordered[0]
    rank = fraction * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    weight = rank - low
    value = ordered[low] * (1 - weight) + ordered[high] * weight
    # clamp: float interpolation may drift a ulp outside the bracket
    return min(max(value, ordered[low]), ordered[high])


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Linear-interpolation percentile of ``samples``.

    ``fraction`` is in [0, 1]; raises ``ValueError`` on empty input so a
    missing measurement can never masquerade as a zero latency.
    """
    if not samples:
        raise ValueError("percentile of empty sample set")
    return percentile_sorted(sorted(samples), fraction)


@dataclass(frozen=True)
class LatencySummary:
    """Immutable summary of a latency distribution (seconds)."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    maximum: float

    def as_millis(self) -> "LatencySummary":
        """The same summary expressed in milliseconds."""
        return LatencySummary(
            count=self.count,
            mean=self.mean * 1e3,
            p50=self.p50 * 1e3,
            p95=self.p95 * 1e3,
            p99=self.p99 * 1e3,
            maximum=self.maximum * 1e3,
        )


class LatencyRecorder:
    """Accumulates exact latency samples for one operation class."""

    kind = "summary"

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.labels: Dict[str, str] = {}
        self._samples: List[float] = []
        self._mirror = None

    def pipe_to(self, sink) -> "LatencyRecorder":
        """Fan every future sample out to ``sink`` (anything with an
        ``observe`` method, e.g. a :class:`Histogram` sketch) as well.

        This lets a hot path record each sample exactly once while both
        the exact summary (legacy API) and the streaming percentile
        sketch stay populated.  Returns self for chaining.
        """
        self._mirror = sink
        return self

    def record(self, latency: float) -> None:
        """Add one sample (seconds); negative samples are a bug."""
        if latency < 0:
            raise ValueError(f"negative latency sample: {latency}")
        self._samples.append(latency)
        if self._mirror is not None:
            self._mirror.observe(latency)

    #: registry-uniform alias for :meth:`record`
    observe = record

    def record_many(self, latency: float, count: int) -> None:
        """Add ``count`` samples of one latency (a batch whose members
        all completed together) — same state as ``count`` calls of
        :meth:`record`, one call."""
        if latency < 0:
            raise ValueError(f"negative latency sample: {latency}")
        self._samples.extend(itertools.repeat(latency, count))
        if self._mirror is not None:
            self._mirror.observe(latency, count)

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> Tuple[float, ...]:
        """Immutable view of the collected samples."""
        return tuple(self._samples)

    def summary(self) -> LatencySummary:
        """Summary statistics; raises ``ValueError`` when empty.

        Sorts the samples exactly once and derives every percentile
        from the sorted sequence.
        """
        if not self._samples:
            raise ValueError(f"no samples recorded for {self.name!r}")
        ordered = sorted(self._samples)
        return LatencySummary(
            count=len(ordered),
            mean=sum(ordered) / len(ordered),
            p50=percentile_sorted(ordered, 0.50),
            p95=percentile_sorted(ordered, 0.95),
            p99=percentile_sorted(ordered, 0.99),
            maximum=ordered[-1],
        )


class Counter:
    """A named monotonic event counter."""

    kind = "counter"

    def __init__(self, name: str = "", value: int = 0) -> None:
        self.name = name
        self.value = value
        self.labels: Dict[str, str] = {}

    def increment(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0: {amount}")
        self.value += amount

    #: short alias matching common client-library naming
    inc = increment

    def __repr__(self) -> str:
        return f"<Counter {self.name!r} value={self.value}>"


class Gauge:
    """Time-stamped samples of a fluctuating quantity.

    Sample time must be non-decreasing: the series is meant to be fed
    from a monotone (simulated) clock, and an out-of-order timestamp is
    evidence of a mis-wired probe, not a legitimate measurement.  With
    ``strict_time=True`` (default) such samples raise ``ValueError``;
    with ``strict_time=False`` they are dropped and counted in
    :attr:`out_of_order` so the fault stays visible without poisoning
    the series.
    """

    kind = "gauge"

    def __init__(self, name: str = "",
                 points: Optional[List[Tuple[float, float]]] = None,
                 strict_time: bool = True) -> None:
        self.name = name
        self.points: List[Tuple[float, float]] = points or []
        self.strict_time = strict_time
        self.out_of_order = 0
        self.labels: Dict[str, str] = {}

    def sample(self, time: float, value: float) -> None:
        """Record ``value`` observed at simulated ``time``.

        ``time`` must be >= the previous sample's time (equal is fine —
        two probes may legitimately fire at one simulated instant).
        """
        if self.points and time < self.points[-1][0]:
            if self.strict_time:
                raise ValueError(
                    f"gauge {self.name!r}: non-monotonic sample time "
                    f"{time:g} after {self.points[-1][0]:g}")
            self.out_of_order += 1
            return
        self.points.append((time, value))

    #: registry-uniform alias for :meth:`sample`
    set = sample

    def __len__(self) -> int:
        return len(self.points)

    @property
    def value(self) -> float:
        """Most recent sampled value; raises when empty."""
        if not self.points:
            raise ValueError(f"no samples in gauge {self.name!r}")
        return self.points[-1][1]

    def last_time(self) -> float:
        """Timestamp of the most recent sample; raises when empty."""
        if not self.points:
            raise ValueError(f"no samples in gauge {self.name!r}")
        return self.points[-1][0]

    def values(self) -> List[float]:
        """Just the observed values, in time order."""
        return [value for _time, value in self.points]

    def maximum(self) -> float:
        """Largest observed value; raises when empty."""
        if not self.points:
            raise ValueError(f"no samples in gauge {self.name!r}")
        return max(self.values())

    def mean(self) -> float:
        """Average observed value; raises when empty."""
        if not self.points:
            raise ValueError(f"no samples in gauge {self.name!r}")
        values = self.values()
        return sum(values) / len(values)

    def __repr__(self) -> str:
        tail = f" last={self.points[-1]}" if self.points else " empty"
        return f"<Gauge {self.name!r} n={len(self.points)}{tail}>"


class Histogram:
    """Streaming percentile sketch with bounded memory.

    Values are binned into geometrically growing buckets (ratio
    ``growth`` between consecutive bucket bounds), so any quantile is
    recovered with relative error ~``growth - 1`` regardless of how
    many samples stream through.  Sketches with identical parameters
    merge exactly (bucket-wise addition), which is how per-volume
    distributions combine into an array-wide one.
    """

    kind = "histogram"

    def __init__(self, name: str = "", growth: float = 1.04,
                 min_value: float = 1e-6) -> None:
        if growth <= 1.0:
            raise ValueError(f"growth must be > 1: {growth}")
        if min_value <= 0:
            raise ValueError(f"min_value must be > 0: {min_value}")
        self.name = name
        self.growth = growth
        self.min_value = min_value
        self.labels: Dict[str, str] = {}
        self._log_growth = math.log(growth)
        self._counts: Dict[int, int] = {}
        #: samples at or below ``min_value`` (incl. exact zeros)
        self._underflow = 0
        self.count = 0
        self.total = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float, count: int = 1) -> None:
        """Add ``count`` samples of ``value``; negative samples are a bug."""
        if value < 0:
            raise ValueError(f"negative histogram sample: {value}")
        self.count += count
        # summed sample by sample: ``value * count`` rounds differently,
        # and the sum must not depend on how samples were batched
        total = self.total
        for _ in range(count):
            total += value
        self.total = total
        self._min = min(self._min, value)
        self._max = max(self._max, value)
        if value <= self.min_value:
            self._underflow += count
            return
        index = math.ceil(math.log(value / self.min_value)
                          / self._log_growth)
        self._counts[index] = self._counts.get(index, 0) + count

    #: registry-uniform alias for :meth:`observe`
    record = observe

    def __len__(self) -> int:
        return self.count

    @property
    def mean(self) -> float:
        """Mean of all observed samples; raises when empty."""
        if not self.count:
            raise ValueError(f"no samples in histogram {self.name!r}")
        return self.total / self.count

    @property
    def minimum(self) -> float:
        """Smallest observed sample (exact); raises when empty."""
        if not self.count:
            raise ValueError(f"no samples in histogram {self.name!r}")
        return self._min

    @property
    def maximum(self) -> float:
        """Largest observed sample (exact); raises when empty."""
        if not self.count:
            raise ValueError(f"no samples in histogram {self.name!r}")
        return self._max

    def quantile(self, fraction: float) -> float:
        """Estimated ``fraction``-quantile (relative error ~growth-1)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1]: {fraction}")
        if not self.count:
            raise ValueError(f"no samples in histogram {self.name!r}")
        rank = fraction * (self.count - 1)
        cumulative = self._underflow
        if rank < cumulative:
            return max(self._min, 0.0)
        for index in sorted(self._counts):
            cumulative += self._counts[index]
            if rank < cumulative:
                upper = self.min_value * self.growth ** index
                lower = upper / self.growth
                estimate = math.sqrt(lower * upper)
                return min(max(estimate, self._min), self._max)
        return self._max

    def summary(self) -> LatencySummary:
        """Sketch-derived summary; raises ``ValueError`` when empty."""
        if not self.count:
            raise ValueError(f"no samples in histogram {self.name!r}")
        return LatencySummary(
            count=self.count,
            mean=self.mean,
            p50=self.quantile(0.50),
            p95=self.quantile(0.95),
            p99=self.quantile(0.99),
            maximum=self._max,
        )

    def __repr__(self) -> str:
        return (f"<Histogram {self.name!r} count={self.count} "
                f"buckets={len(self._counts)}>")
