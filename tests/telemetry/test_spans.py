"""Span tracing tests: unit-level tracer behaviour and the end-to-end
causal integrity of the replication write path.

The acceptance property for the telemetry subsystem lives here: every
``restore-apply`` span at the backup site is causally linked to the
host-write (or initial-copy/resync) span that produced the data, and
the consistency group's apply order can be read off the spans alone.
"""

import pytest

from repro.simulation import Simulator
from repro.telemetry import (Tracer, chrome_trace, replication_lag_report,
                             stage_breakdown)
from repro.telemetry.spans import BlockSchema
from tests.storage.conftest import build_two_site, fast_adc, run


class TestTracerUnit:
    def _tracer(self):
        clock = {"now": 0.0}
        return clock, Tracer(clock=lambda: clock["now"])

    def test_parent_child_linkage(self):
        clock, tracer = self._tracer()
        root = tracer.start("root")
        child = tracer.start("child", parent=root)
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert list(tracer.spans) == [root, child]

    def test_raw_context_linkage(self):
        """The form that rides inside a JournalEntry across the hop."""
        clock, tracer = self._tracer()
        origin = tracer.start("host-write")
        remote = tracer.start("restore-apply", trace_id=origin.trace_id,
                              parent_id=origin.span_id)
        assert remote.trace_id == origin.trace_id
        assert remote.parent_id == origin.span_id

    def test_finish_records_duration_and_attrs(self):
        clock, tracer = self._tracer()
        span = tracer.start("op", volume=3)
        clock["now"] = 0.25
        tracer.finish(span, status="ok", applied=True)
        assert span.duration == pytest.approx(0.25)
        assert span.attrs == {"volume": 3, "applied": True}
        with pytest.raises(ValueError):
            tracer.finish(span)

    def test_ring_cap_evicts_oldest(self):
        clock = {"now": 0.0}
        tracer = Tracer(clock=lambda: clock["now"], max_spans=3)
        spans = [tracer.start(f"s{i}") for i in range(5)]
        assert len(tracer) == 3
        assert tracer.dropped == 2
        assert list(tracer.spans) == spans[2:]

    def test_ring_cap_evicts_block_rows_one_by_one(self):
        """Block-recorded spans cross the cap like individual ones:
        the oldest *span* goes, whether it is an object or a row."""
        clock = {"now": 0.0}
        tracer = Tracer(clock=lambda: clock["now"], max_spans=4)
        tracer.start("a")
        schema = BlockSchema("r", {"g": 1}, ("n",), {"applied": True})
        rows = [("t0009", "s000009", n) for n in range(3)]
        block = tracer.start_block(schema, rows,
                                   {1: ("skipped", {"applied": False})})
        assert (len(tracer), tracer.dropped) == (4, 0)
        late = tracer.start("b")        # evicts the span before the block
        tracer.start("c")               # evicts the block's first row
        assert (len(tracer), tracer.dropped) == (4, 2)
        clock["now"] = 0.5
        tracer.finish_block(block)
        assert [s.span_id for s in tracer.spans] == [
            "s000003", "s000004", "s000005", "s000006"]
        skipped, applied = tracer.spans[0], tracer.spans[1]
        assert (skipped.status, skipped.end, skipped.attrs) == (
            "skipped", 0.0, {"g": 1, "n": 1, "applied": False})
        assert (applied.status, applied.end, applied.attrs) == (
            "ok", 0.5, {"g": 1, "n": 2, "applied": True})
        assert tracer.spans[2] is late
        # a block bigger than the cap keeps only its newest rows
        tracer.start_block(schema,
                           [("t0009", None, n) for n in range(6)], {})
        assert (len(tracer), tracer.dropped) == (4, 8)
        assert [s.attrs["n"] for s in tracer.spans] == [2, 3, 4, 5]

    def test_eviction_cost_does_not_grow_with_the_ring(self):
        """Past the cap every new span evicts one: that must stay O(1)
        (a list.pop(0) ring made long soaks quadratic)."""
        import timeit
        clock = {"now": 0.0}

        def churn(cap):
            tracer = Tracer(clock=lambda: clock["now"], max_spans=cap)
            for _ in range(cap):
                tracer.start("fill")
            return min(timeit.repeat(lambda: tracer.start("x"),
                                     number=2000, repeat=5))

        # 64x the ring, same per-span cost (generous 5x noise margin;
        # the O(n) ring was >10x slower at this size)
        assert churn(128_000) < 5 * churn(2_000)

    def test_block_opened_mid_query_finishes_through_its_spans(self):
        clock = {"now": 1.0}
        tracer = Tracer(clock=lambda: clock["now"])
        block = tracer.start_block(
            BlockSchema("r", {}, ("n",), {"applied": True}),
            [("t1", "s9", 7)], {})
        (open_span,) = tracer.named("r")    # materialised while open
        assert not open_span.finished
        clock["now"] = 2.0
        tracer.finish_block(block)
        assert tracer.named("r") == [open_span]
        assert (open_span.end, open_span.attrs) == (
            2.0, {"n": 7, "applied": True})

    def test_deterministic_ids(self):
        _clock, tracer = self._tracer()
        first = tracer.start("a")
        second = tracer.start("b")
        assert (first.trace_id, first.span_id) == ("t0001", "s000001")
        assert (second.trace_id, second.span_id) == ("t0002", "s000002")


class TestStageBreakdownWeighting:
    """Batch spans carrying a ``writes`` attribute weigh in as that
    many units, so breakdown counts line up with write counters."""

    def _tracer(self):
        clock = {"now": 0.0}
        return clock, Tracer(clock=lambda: clock["now"])

    def _finish_at(self, clock, tracer, span, end):
        clock["now"] = end
        tracer.finish(span)

    def test_writes_attr_weights_count_and_mean(self):
        clock, tracer = self._tracer()
        # a 10-write batch taking 10ms and a 1-write batch taking 1ms
        big = tracer.start("host-write", writes=10)
        self._finish_at(clock, tracer, big, 0.010)
        clock["now"] = 0.010
        small = tracer.start("host-write", writes=1)
        self._finish_at(clock, tracer, small, 0.011)
        stats = {s.name: s for s in stage_breakdown(tracer)}
        batch = stats["host-write"]
        assert batch.count == 11  # writes, not batches
        # the mean a *write* experienced: (10*10ms + 1*1ms) / 11
        assert batch.mean == pytest.approx(0.101 / 11)
        assert batch.maximum == pytest.approx(0.010)

    def test_spans_without_writes_attr_count_once(self):
        clock, tracer = self._tracer()
        span = tracer.start("transfer-batch", entries=50)
        self._finish_at(clock, tracer, span, 0.002)
        stats = {s.name: s for s in stage_breakdown(tracer)}
        assert stats["transfer-batch"].count == 1

    def test_non_positive_or_non_int_writes_ignored(self):
        clock, tracer = self._tracer()
        for bogus in (0, -3, "many", 2.5):
            span = tracer.start("host-write", writes=bogus)
            self._finish_at(clock, tracer, span, clock["now"] + 0.001)
        assert {s.name: s for s in stage_breakdown(tracer)}[
            "host-write"].count == 4


class TestChromeTrace:
    def _tracer(self):
        clock = {"now": 0.0}
        return clock, Tracer(clock=lambda: clock["now"])

    def test_exports_complete_events_in_microseconds(self):
        clock, tracer = self._tracer()
        root = tracer.start("host-write", volume=3)
        clock["now"] = 0.002
        child = tracer.start("restore-apply", parent=root)
        clock["now"] = 0.005
        tracer.finish(child, status="ok")
        tracer.finish(root)
        unfinished = tracer.start("dangling")
        document = chrome_trace(tracer)
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        assert len(events) == 2  # the unfinished span is excluded
        assert unfinished.name not in [e["name"] for e in events]
        by_name = {event["name"]: event for event in events}
        write = by_name["host-write"]
        assert write["ph"] == "X"
        assert write["ts"] == pytest.approx(0.0)
        assert write["dur"] == pytest.approx(5000.0)
        assert write["tid"] == root.trace_id
        assert write["args"]["volume"] == 3
        apply_event = by_name["restore-apply"]
        assert apply_event["ts"] == pytest.approx(2000.0)
        assert apply_event["args"]["parent_id"] == root.span_id

    def test_document_is_json_serialisable(self):
        import json
        clock, tracer = self._tracer()
        tracer.finish(tracer.start("op", flag=True))
        encoded = json.dumps(chrome_trace(tracer), sort_keys=True)
        assert json.loads(encoded)["traceEvents"][0]["name"] == "op"


def _build_cg(sim, volumes=2, blocks=64):
    """Two-site system with one consistency group over ``volumes`` pairs.

    Volumes are empty at pairing time, so every journal entry — and
    therefore every restore-apply span — originates from a host write.
    """
    site = build_two_site(sim, adc=fast_adc())
    main_jnl = site.main.create_journal(site.main_pool_id, 10_000)
    backup_jnl = site.backup.create_journal(site.backup_pool_id, 10_000)
    site.main.create_journal_group("cg", main_jnl.journal_id, site.backup,
                                   backup_jnl.journal_id, site.link)
    pairs = []
    for index in range(volumes):
        pvol = site.main.create_volume(site.main_pool_id, blocks)
        svol = site.backup.create_volume(site.backup_pool_id, blocks)
        site.main.create_async_pair(f"pair-{index}", "cg", pvol.volume_id,
                                    site.backup, svol.volume_id)
        pairs.append((pvol, svol))
    return site, pairs


class TestWritePathCausality:
    """The tentpole acceptance test: RPO and CG ordering from spans alone."""

    def _run_interleaved_writes(self, sim, site, pairs, writes=30):
        def writer(sim):
            for i in range(writes):
                pvol, _svol = pairs[i % len(pairs)]
                yield from site.main.host_write(pvol.volume_id, i % 16,
                                                b"w%d" % i)

        run(sim, writer(sim))
        sim.run(until=sim.now + 1.0)  # converge transfer + restore

    def test_every_restore_apply_links_to_a_host_write(self):
        sim = Simulator(seed=21)
        site, pairs = _build_cg(sim)
        self._run_interleaved_writes(sim, site, pairs)
        tracer = sim.telemetry.tracer
        applies = [s for s in tracer.named("restore-apply") if s.finished]
        writes = {s.span_id: s for s in tracer.named("host-write")}
        assert applies, "no restore-apply spans were recorded"
        by_id = {span.span_id: span for span in tracer.spans}
        for span in applies:
            assert span.parent_id is not None, \
                f"restore-apply {span.span_id} has no causal parent"
            parent = by_id.get(span.parent_id)
            assert parent is not None
            assert parent.name == "host-write"
            assert parent.trace_id == span.trace_id
            assert parent.span_id in writes
            # the apply happened after the host ack, on the backup array
            assert span.start >= parent.end
            assert span.attrs["applied"] is True

    def test_cg_apply_order_matches_host_ack_order(self):
        """Reading only spans, the consistency group applies updates in
        exactly the order the main site acknowledged them."""
        sim = Simulator(seed=22)
        site, pairs = _build_cg(sim)
        self._run_interleaved_writes(sim, site, pairs, writes=40)
        tracer = sim.telemetry.tracer
        applies = [s for s in tracer.named("restore-apply")
                   if s.finished and s.attrs.get("applied")]
        assert len(applies) == 40
        ack_seqs = []
        by_id = {span.span_id: span for span in tracer.spans}
        for span in applies:  # tracer stores spans in creation order
            ack_seqs.append(by_id[span.parent_id].attrs["first_ack_seq"])
        assert ack_seqs == sorted(ack_seqs)
        assert len(set(ack_seqs)) == len(ack_seqs)

    def test_replication_lag_report_bounds_rpo(self):
        sim = Simulator(seed=23)
        site, pairs = _build_cg(sim)
        self._run_interleaved_writes(sim, site, pairs)
        report = replication_lag_report(sim.telemetry.tracer)
        assert report.unapplied == 0  # everything converged
        assert report.applied == 30
        assert 0.0 < report.worst_lag < 1.0
        assert report.mean_lag <= report.worst_lag

    def test_transfer_batch_spans_account_for_all_entries(self):
        sim = Simulator(seed=24)
        site, pairs = _build_cg(sim)
        self._run_interleaved_writes(sim, site, pairs)
        tracer = sim.telemetry.tracer
        batches = [s for s in tracer.named("transfer-batch")
                   if s.finished and s.status == "ok"]
        assert batches
        assert sum(s.attrs["entries"] for s in batches) == 30
        breakdown = {s.name: s for s in stage_breakdown(tracer)}
        assert breakdown["transfer-batch"].count == len(batches)
        # every batch pays at least the link latency
        assert breakdown["transfer-batch"].mean >= site.link.latency

    def test_initial_copy_entries_parent_to_initial_copy_span(self):
        """Pre-existing data keeps the causal invariant total: its
        restore-applies parent to the initial-copy span, not a write."""
        sim = Simulator(seed=25)
        site = build_two_site(sim, adc=fast_adc())
        pvol = site.main.create_volume(site.main_pool_id, 64)
        for block in range(5):
            run(sim, site.main.host_write(pvol.volume_id, block, b"pre"))
        svol = site.backup.create_volume(site.backup_pool_id, 64)
        main_jnl = site.main.create_journal(site.main_pool_id, 1000)
        backup_jnl = site.backup.create_journal(site.backup_pool_id, 1000)
        site.main.create_journal_group("jg", main_jnl.journal_id,
                                       site.backup, backup_jnl.journal_id,
                                       site.link)
        site.main.create_async_pair("pair", "jg", pvol.volume_id,
                                    site.backup, svol.volume_id)
        sim.run(until=sim.now + 1.0)
        tracer = sim.telemetry.tracer
        copies = tracer.named("initial-copy")
        assert len(copies) == 1
        applies = [s for s in tracer.named("restore-apply") if s.finished]
        assert len(applies) == 5
        for span in applies:
            assert span.trace_id == copies[0].trace_id
            assert span.parent_id == copies[0].span_id
