"""Causal span tracing for the replication write path.

A :class:`Span` is one timed operation; spans form trees via
``parent_id`` and forests via ``trace_id``.  The canonical trace in
this system follows one host write end-to-end:

    host-write (main array, root)
      └─ journal-append           (entry enters the main journal)
      …entry rides a transfer-batch span (own root, batch-scoped)…
      └─ restore-apply            (backup array applies the entry)

``restore-apply`` is parented to the *originating* ``host-write`` span
— the trace context travels with the
:class:`~repro.storage.journal.JournalEntry` — so recovery-point lag
(RPO), per-stage latency and consistency-group apply order can all be
derived from spans alone.  Entries created by initial copy or resync
are parented to ``initial-copy``/``resync`` spans instead, keeping the
"every restore-apply has a causal parent" invariant total.

Span IDs come from a deterministic counter, not randomness or wall
clocks, so traces are reproducible run-to-run like everything else in
the simulation.

Hot loops that open many same-named spans at one instant (the restore
applier: one ``restore-apply`` per journal entry) record one compact
:class:`SpanBlock` per window — a tuple row per span, ids reserved as a
contiguous range — which is materialised into :class:`Span` objects,
indistinguishable from individually recorded ones, only when a query
(``spans``, ``named``, …) asks.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from itertools import chain
from typing import (Callable, Deque, Dict, List, NamedTuple, Optional,
                    Sequence, Tuple, Union)


@dataclass(slots=True)
class Span:
    """One timed, attributed operation in a causal trace."""

    name: str
    trace_id: str
    span_id: str
    parent_id: Optional[str]
    start: float
    end: Optional[float] = None
    attrs: Dict[str, object] = field(default_factory=dict)
    status: str = "ok"

    @property
    def duration(self) -> float:
        """Span duration in (simulated) seconds; raises if unfinished."""
        if self.end is None:
            raise ValueError(f"span {self.name!r} [{self.span_id}] "
                             f"has not finished")
        return self.end - self.start

    @property
    def finished(self) -> bool:
        return self.end is not None

    def as_dict(self) -> dict:
        """JSON-serialisable form."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "status": self.status,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:
        end = f"{self.end:g}" if self.end is not None else "…"
        return (f"<Span {self.name} [{self.span_id}] "
                f"trace={self.trace_id} {self.start:g}→{end}>")


class _NullSpan(Span):
    """The shared no-op span handed out while tracing is disabled.

    Carries ``None`` ids so trace context propagated from it (e.g. into
    a journal entry) stays empty.
    """

    __slots__ = ()


#: singleton returned by :meth:`Tracer.start` when ``enabled`` is False;
#: :meth:`Tracer.finish` treats it as a no-op, so call sites need no
#: ``if tracing`` guards (though hot loops may add them to skip building
#: the attribute kwargs at all)
NULL_SPAN = _NullSpan(name="tracing-disabled", trace_id=None,  # type: ignore[arg-type]
                      span_id=None, parent_id=None, start=0.0)  # type: ignore[arg-type]


#: shared empty mapping (only ever read)
_EMPTY: dict = {}


class BlockSchema(NamedTuple):
    """What the spans of a :class:`SpanBlock` share: their ``name``, the
    ``base`` attributes of every span, the ``keys`` naming each row's
    values, and the ``closing`` attributes of spans that finish with
    the block.  Build one and reuse it; the mappings are only read."""

    name: str
    base: dict
    keys: Tuple[str, ...]
    closing: dict


@dataclass(slots=True)
class SpanBlock:
    """Same-named spans opened at one instant, stored as one flat tuple
    (the smallest thing to keep per window, and one the cyclic GC stops
    tracking).  Row ``i`` is ``cells[i * width:(i + 1) * width]`` =
    ``(trace_id, parent_id, *values)`` with span id ``first_id + i``.
    ``early[i]`` is the ``(status, attrs)`` of a span that finished at
    the start instant; the rest finish with the block, status ``ok``.
    """

    schema: BlockSchema
    cells: tuple
    early: Dict[int, Tuple[str, dict]]
    first_id: int
    start: float
    end: Optional[float] = None
    #: leading rows the tracer's ring cap has dropped
    evicted: int = 0
    #: the materialised spans (rows ``evicted``..), once asked for
    spans: Optional[List[Span]] = None

    def __len__(self) -> int:
        return len(self.cells) // (len(self.schema.keys) + 2)

    def materialise(self) -> List[Span]:
        """The block's retained rows as :class:`Span` objects (built
        once; an unfinished block's open spans are closed through
        these same objects by :meth:`Tracer.finish_block`)."""
        if self.spans is None:
            name, base, keys, closing = self.schema
            width = len(keys) + 2
            start, end = self.start, self.end
            closes = ("ok", closing if end is not None else _EMPTY)
            self.spans = spans = []
            for index in range(self.evicted, len(self)):
                row = self.cells[index * width:(index + 1) * width]
                outcome = self.early.get(index, closes)
                spans.append(Span(
                    name, row[0], f"s{self.first_id + index:06d}", row[1],
                    start, end if outcome is closes else start,
                    {**base, **dict(zip(keys, row[2:])), **outcome[1]},
                    outcome[0]))
        return self.spans


class Tracer:
    """Creates, stores, and queries spans for one simulation.

    Storage is ring-capped (default 250k finished spans) so unbounded
    workloads cannot exhaust memory; the drop count stays visible in
    :attr:`dropped`.  IDs are sequential (``t0001``/``s000001``) —
    deterministic across runs for a given event order.
    """

    def __init__(self, clock: Callable[[], float],
                 max_spans: int = 250_000) -> None:
        self._clock = clock
        self.max_spans = max_spans
        #: master switch: when False, :meth:`start` returns the shared
        #: :data:`NULL_SPAN` and :meth:`finish` no-ops — zero span
        #: objects are allocated on the hot path
        self.enabled = True
        #: the ring, oldest first: spans and not-yet-queried blocks
        #: (``_compact`` of them; ``_size`` counts spans).  Only the oldest
        #: is ever dropped: one id range ending at ``_next_span - 1``
        self._ring: Deque[Union[Span, SpanBlock]] = deque()
        self._compact = 0
        self._size = 0
        self.dropped = 0
        self._next_trace = 1
        self._next_span = 1

    # -- span lifecycle ------------------------------------------------------

    def start(self, name: str, parent: Optional[Span] = None,
              trace_id: Optional[str] = None,
              parent_id: Optional[str] = None,
              **attrs: object) -> Span:
        """Open a span.

        Causality can be given either as a live ``parent`` span or as
        raw ``trace_id``/``parent_id`` strings (the form that travels
        inside a :class:`~repro.storage.journal.JournalEntry` across
        the site-to-site hop).  With neither, the span roots a new
        trace.
        """
        if not self.enabled:
            return NULL_SPAN
        if parent is not None:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        elif trace_id is None:
            trace_id = self._new_trace_id()
            parent_id = None
        span = Span(name, trace_id, f"s{self._next_span:06d}", parent_id,
                    self._clock(), None, attrs)
        self._next_span += 1
        self._store(span)
        return span

    def _new_trace_id(self) -> str:
        trace_id = f"t{self._next_trace:04d}"
        self._next_trace += 1
        return trace_id

    def finish(self, span: Span, status: str = "ok",
               **attrs: object) -> Span:
        """Close a span at the current clock; returns it."""
        if span is NULL_SPAN:
            return span
        if span.end is not None:
            raise ValueError(f"span {span.name!r} [{span.span_id}] "
                             f"finished twice")
        span.end = self._clock()
        span.status = status
        span.attrs.update(attrs)
        return span

    def start_block(self, schema: BlockSchema, rows: Sequence[tuple],
                    early: Optional[Dict[int, Tuple[str, dict]]] = None,
                    ) -> Optional[SpanBlock]:
        """Open ``len(rows)`` spans at this instant as one block: one
        :meth:`start` per ``(trace_id, parent_id, *values)`` row plus an
        immediate :meth:`finish` with ``status``/``attrs`` for each
        ``early[index]`` (None: no span finishes early), in ``early``'s
        insertion order.  Returns None while tracing is disabled.
        """
        if not self.enabled or not rows:
            return None
        early = early or _EMPTY
        for row in rows:
            if row[0] is None:
                # journaled while tracing was off: root a new trace each
                rows = [row if row[0] is not None else
                        (self._new_trace_id(), None) + row[2:]
                        for row in rows]
                break
        block = SpanBlock(schema, tuple(chain.from_iterable(rows)),
                          early, self._next_span, self._clock())
        self._next_span += len(rows)
        self._ring.append(block)
        self._compact += 1
        self._size += len(rows)
        while self._size > self.max_spans:
            self._evict()
        return block

    def finish_block(self, block: Optional[SpanBlock]) -> None:
        """Close every span of ``block`` (None: tracing was off) still
        open: status ``ok``, plus the schema's ``closing`` attributes."""
        if block is not None:
            block.end = end = self._clock()
            for span in block.spans or ():
                if span.end is None:
                    span.end = end
                    span.attrs.update(block.schema.closing)

    def _store(self, span: Span) -> None:
        if self._size >= self.max_spans:
            self._evict()
        self._ring.append(span)
        self._size += 1

    def _evict(self) -> None:
        """Drop the oldest stored span (a block sheds its first row)."""
        oldest = self._ring[0]
        if type(oldest) is SpanBlock:
            oldest.evicted += 1
            if oldest.evicted == len(oldest):
                self._ring.popleft()
                self._compact -= 1
        else:
            self._ring.popleft()
        self._size -= 1
        self.dropped += 1

    # -- queries -------------------------------------------------------------

    @property
    def spans(self) -> Deque[Span]:
        """Stored spans in creation order (a read-only view).  Blocks
        recorded since the last query are replaced by their spans, in
        place — O(all stored spans), like the scan the caller is about
        to make."""
        if self._compact:
            ring = self._ring
            for _ in range(len(ring)):  # one full rotation
                item = ring.popleft()   # (a finished block dies here)
                if type(item) is SpanBlock:
                    ring.extend(item.materialise())
                else:
                    ring.append(item)
            self._compact = 0
        return self._ring  # type: ignore[return-value]

    def __len__(self) -> int:
        return self._size

    def named(self, name: str) -> List[Span]:
        """All stored spans with this name, in creation order."""
        return [span for span in self.spans if span.name == name]

    def as_dicts(self) -> List[dict]:
        """All stored spans as JSON-serialisable dicts."""
        return [span.as_dict() for span in self.spans]

    def render_json(self) -> str:
        """All stored spans as a JSON array."""
        return json.dumps(self.as_dicts(), indent=2)


@dataclass(frozen=True)
class StageStats:
    """Aggregate duration stats for one span name."""

    name: str
    count: int
    mean: float
    maximum: float


def stage_breakdown(tracer: Tracer) -> List[StageStats]:
    """Per-span-name duration statistics over finished spans.

    Spans carrying a ``writes`` attribute (``host-write``,
    ``journal-append``) weigh in as that many units: ``count``
    then lines up with ``repro_host_writes_total`` rather than with the
    number of batches, and ``mean`` is the write-weighted mean (the
    latency an average *write* experienced).  ``maximum`` stays the
    longest single span either way.
    """
    grouped: Dict[str, List[Tuple[float, int]]] = {}
    for span in tracer.spans:
        if span.finished:
            writes = span.attrs.get("writes")
            weight = writes if isinstance(writes, int) and writes > 0 \
                else 1
            grouped.setdefault(span.name, []).append(
                (span.duration, weight))
    out = []
    for name in sorted(grouped):
        entries = grouped[name]
        count = sum(weight for _duration, weight in entries)
        weighted = sum(duration * weight
                       for duration, weight in entries)
        out.append(StageStats(
            name=name, count=count, mean=weighted / count,
            maximum=max(duration for duration, _weight in entries)))
    return out


def chrome_trace(tracer: Tracer) -> dict:
    """Finished spans in Chrome/Perfetto trace-event format.

    Load the result (JSON-serialised) in ``chrome://tracing`` or
    https://ui.perfetto.dev.  Each trace renders as one "thread" (tid =
    trace id) of complete ``ph: "X"`` events; timestamps convert from
    simulated seconds to microseconds, the format's native unit.
    """
    events = []
    for span in tracer.spans:
        if not span.finished:
            continue
        args = {str(key): value for key, value in sorted(span.attrs.items())}
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        events.append({
            "name": span.name,
            "cat": span.status,
            "ph": "X",
            "ts": span.start * 1e6,
            "dur": span.duration * 1e6,
            "pid": 1,
            "tid": span.trace_id,
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


@dataclass(frozen=True)
class LagReport:
    """Replication lag derived purely from spans (§IV RPO analysis).

    ``worst_lag`` is the maximum over applied writes of
    (restore-apply end − host-write end): how far behind the backup
    image trailed the acked state.  ``unapplied`` counts host writes
    whose data never reached the backup volume (still in a journal, or
    the pair had no restore target) — after a clean drain it is 0 and
    ``worst_lag`` alone bounds the RPO.
    """

    applied: int
    unapplied: int
    worst_lag: float
    mean_lag: float


def replication_lag_report(tracer: Tracer) -> LagReport:
    """Derive replication lag by joining restore-apply to host-write.

    One unit per ``host-write`` span, lagged to the *latest* restore
    apply of its trace, since a span acks all of its writes at one
    instant.
    """
    applied_traces: Dict[str, float] = {}
    for span in tracer.named("restore-apply"):
        if span.finished:
            prev = applied_traces.get(span.trace_id)
            if prev is None or span.end > prev:
                applied_traces[span.trace_id] = span.end
    lags: List[float] = []
    unapplied = 0
    for host_write in tracer.named("host-write"):
        if not host_write.finished:
            continue
        applied_at = applied_traces.get(host_write.trace_id)
        if applied_at is None:
            unapplied += 1
        else:
            lags.append(max(0.0, applied_at - host_write.end))
    if not lags:
        return LagReport(applied=0, unapplied=unapplied,
                         worst_lag=0.0, mean_lag=0.0)
    return LagReport(applied=len(lags), unapplied=unapplied,
                     worst_lag=max(lags),
                     mean_lag=sum(lags) / len(lags))
