"""The header block: one shipment's entry headers as plain columns
through one raw deflate.

``unpack_header(pack_header(rows))`` must hand back every header field
of every row unchanged — for thinned (non-contiguous) sequences, gaps
past one byte, values past 32 bits, 300 distinct keys and batches of
one — the block must never outgrow its plain columns by more than
deflate's stored-block framing, and a shipment received through the
reducer must rebuild every entry, trace context included (``None``
too), although the trace context is not on the wire: switching the
tracer off cannot change the bytes the link is charged for, so it
cannot change simulated time.
"""

import zlib

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.simulation import Simulator
from repro.storage.journal import ENTRY_HEADER_BYTES, JournalEntry
from repro.storage.reduction import (COMPRESSED, RAW, REFERENCE, REFERENCED,
                                     ReductionConfig, WireReducer,
                                     pack_header, unpack_header)

#: a forms-column code -> the :attr:`EncodedBatch.forms` entry it stands for
FORMS = {RAW: None, COMPRESSED: b"deflated", REFERENCED: REFERENCE}


def pack(rows, codes):
    return pack_header(rows, [row.checksum for row in rows],
                       [len(row.payload) for row in rows],
                       [FORMS[code] for code in codes])


def row(sequence, volume=1, block=0, version=1, created=0.5, trace=None,
        span=None, payload=b"page"):
    return JournalEntry(sequence, volume, block, payload, version, created,
                        zlib.crc32(payload), trace, span)


def thinned():
    """Coalescing dropped every third entry of a 40-entry batch."""
    return [row(sequence, block=sequence % 7, trace="t0001", span="s000001")
            for sequence in range(40) if sequence % 3]


def beyond_32_bits():
    return [row(2**40 + index * 5, volume=2**33, block=2**32 + index,
                version=2**35 - index, payload=b"x" * index)
            for index in range(1, 4)]


def wide_gaps():
    """Gaps of 1, 300 and 70,000 between sequences: wider than a byte."""
    return [row(sequence, block=index)
            for index, sequence in enumerate((5, 305, 306, 70_306))]


def many_keys():
    """300 rows with 300 distinct times, volumes and trace contexts."""
    return [row(index, volume=index * 3, created=index / 7,
                trace=f"t{index:05d}", span=f"s{index:06d}")
            for index in range(300)]


def untraced():
    return [row(9, trace=None, span=None), row(10, trace="t0002", span=None)]


@st.composite
def batches(draw):
    """``(rows, forms)``: sequences increasing, contiguous or thinned,
    every other field drawn from pools as small as one value or as
    large as the batch, None included where the field allows it."""
    count = draw(st.integers(1, 300))
    first = draw(st.integers(0, 2**40))
    gaps = draw(st.sampled_from([(1,), (1, 2, 5)]))
    steps = draw(st.lists(st.sampled_from(gaps), min_size=count - 1,
                          max_size=count - 1))
    sequences = [first]
    for step in steps:
        sequences.append(sequences[-1] + step)

    def column(values):
        pool = draw(st.lists(values, min_size=1, max_size=count,
                             unique=True))
        return draw(st.lists(st.sampled_from(pool), min_size=count,
                             max_size=count))

    wide = st.integers(0, 2**40)
    text = st.none() | st.text(max_size=12)
    fields = zip(sequences, column(wide), column(wide), column(wide),
                 column(st.floats(allow_nan=False)), column(text),
                 column(text), column(st.binary(max_size=300)))
    rows = [row(sequence, volume, block, version, created, trace, span,
                payload)
            for (sequence, volume, block, version, created, trace, span,
                 payload) in fields]
    forms = draw(st.lists(st.sampled_from(sorted(FORMS)), min_size=count,
                          max_size=count))
    return rows, forms


class TestRoundTrip:
    @given(batch=batches())
    @example(batch=(thinned(), [RAW] * len(thinned())))
    @example(batch=(wide_gaps(), [RAW, REFERENCED, COMPRESSED, RAW]))
    @example(batch=(beyond_32_bits(), [REFERENCED, COMPRESSED, RAW]))
    @example(batch=(many_keys(), [REFERENCED] * 300))
    @example(batch=(untraced(), [COMPRESSED, RAW]))
    @example(batch=([row(7)], [REFERENCED]))
    @settings(max_examples=60, deadline=None)
    def test_every_field_comes_back_unchanged(self, batch):
        rows, forms = batch
        block = pack(rows, forms)
        (sequences, volumes, blocks, versions, created, checksums, lengths,
         codes) = map(list, unpack_header(block))
        assert [JournalEntry(*fields, r.trace_id, r.span_id)
                for r, fields in zip(rows, zip(
                    sequences, volumes, blocks, [r.payload for r in rows],
                    versions, created, checksums))] == rows
        assert lengths == [len(r.payload) for r in rows]
        assert codes == forms
        # no flag byte: an incompressible block falls back to stored
        # blocks of at most 16,383 bytes, 5 bytes of framing each
        plain = zlib.decompress(block, -15)
        assert len(block) <= len(plain) + 5 * (len(plain) // 16_383 + 1)

    @given(batch=batches())
    @example(batch=(thinned(), []))
    @example(batch=(wide_gaps(), []))
    @example(batch=(beyond_32_bits(), []))
    @example(batch=(many_keys(), []))
    @example(batch=(untraced(), []))
    @example(batch=([row(7)], []))
    @settings(max_examples=30, deadline=None)
    def test_a_received_shipment_rebuilds_every_entry(self, batch):
        """Through the reducer, whatever form each payload takes: the
        rows hand back their trace context, the rest is decoded."""
        rows, _forms = batch
        reducer = WireReducer(Simulator(seed=1),
                              ReductionConfig(enabled=True), "jg-rt")
        for _ in range(2):  # the second pass references the first
            encoded = reducer.encode_batch(rows, trusted=True)
            received = [entry for entry, _verified in
                        reducer.receive_batch(encoded, len(rows), rows)]
            reducer.book("transfer", encoded)
            assert received == rows
        assert REFERENCE in encoded.forms


class TestPricedBytes:
    def test_a_contiguous_batch_prices_far_below_the_flat_header(self):
        rows = [row(1_000 + index, volume=1 + index % 4, block=index * 13,
                    version=index % 40, created=2.5, trace="t0042",
                    span="s000042", payload=b"p" * 1024)
                for index in range(64)]
        block = pack(rows, [RAW, REFERENCED] * 32)
        # plain: gaps 1, block 2, version 1, length 2, volume 1,
        # checksum 4, created_at 8, form 1 a row; deflate folds the
        # constant and repeating columns away
        assert len(zlib.decompress(block, -15)) > 20 * len(rows)
        assert len(block) < 4 * len(rows) < ENTRY_HEADER_BYTES * len(rows)

    def test_a_thinned_batch_costs_at_most_its_gap_column_more(self):
        rows = thinned()
        contiguous = [row(index, block=r.block, trace=r.trace_id,
                          span=r.span_id) for index, r in enumerate(rows)]
        forms = [RAW] * len(rows)
        # the gap column: a width byte and one byte a gap
        assert len(pack(rows, forms)) \
            <= len(pack(contiguous, forms)) + 1 + len(rows) - 1

    def test_the_trace_context_is_not_on_the_wire(self):
        traced = many_keys()
        quiet = [row(r.sequence, r.volume_id, r.block, r.version,
                     r.created_at) for r in traced]
        forms = [RAW] * len(traced)
        assert pack(traced, forms) == pack(quiet, forms)
