"""The wire encoder's density probe: deflate only what can shrink.

Three contracts:

* **deflate budget** — with deflate counted (the one-shot
  ``zlib.compress``/``zlib.decompress`` each shipment's stream goes
  through), every shipment makes exactly one call each way whatever
  its mix, and a dense payload never enters the stream;
* **the probe** — :func:`~repro.storage.reduction.dense` calls the
  repository's dense payload kinds dense and its compressible ones
  not, from a bounded strided sample of the whole payload;
* **one-sided error** — over arbitrary payload mixes, including
  payloads that are dense in one half and compressible in the other,
  the probe's verdict never changes the backup image, and reduction
  never ships more bytes than the unreduced wire: a payload wrongly
  called dense only ships raw behind the stream instead of in it.
"""

import cProfile
import hashlib
import pstats
import zlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.workload import PayloadProfile
from repro.simulation import Simulator
from repro.storage import ReductionConfig, reduction
from repro.storage.reduction import (PROBE_DENSE_DISTINCT,
                                     PROBE_SAMPLE_BYTES, RAW_DEFLATE,
                                     WireReducer, dense, unpack_header)
from tests.storage.conftest import (build_two_site, fast_adc, journal_rows,
                                    make_async_pair, run)

CONFIG = ReductionConfig(enabled=True)


def zlib_calls(action) -> tuple:
    """``(calls, result)``: the one-shot ``zlib.compress`` /
    ``zlib.decompress`` calls made while ``action()`` runs, and what it
    returned."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        result = action()
    finally:
        profile.disable()
    calls = {"compress": 0, "decompress": 0}
    for key, stat in pstats.Stats(profile).stats.items():
        for name in calls:
            if key[2] == f"<built-in method zlib.{name}>":
                calls[name] += stat[1]
    return calls, result


def drain(payloads, reduction=CONFIG, blocks=512):
    """Write ``payloads`` to distinct blocks of one ADC pair and drain
    them to the backup site; returns (site, group, svol)."""
    site = build_two_site(Simulator(seed=13),
                          adc=fast_adc(reduction=reduction,
                                       transfer_batch=32))
    pvol, svol = make_async_pair(site, blocks=blocks)
    group = site.main.journal_groups["jg-0"]
    run(site.sim, site.main.host_write_many(
        [(pvol.volume_id, index, payload)
         for index, payload in enumerate(payloads)]))
    site.sim.run(until=site.sim.now + 2.0)
    assert group.entry_lag == 0
    assert svol.block_map() == pvol.block_map()
    return site, group, svol


def profile_payloads(kinds, count, size=512, seed=3):
    # one seed per kind: "random" and "duplicate" share a keystream
    profiles = [PayloadProfile(kind=kind, size_bytes=size, seed=seed + i,
                               unique_payloads=16)
                for i, kind in enumerate(kinds)]
    return [profiles[i % len(profiles)].payload(i) for i in range(count)]


class TestDeflateBudget:
    def test_dense_stream_deflates_its_header_blocks_only(self):
        payloads = profile_payloads(("random",), 300)
        calls, (_site, group, _svol) = zlib_calls(lambda: drain(payloads))
        shipments = group.transfer_batches.value
        assert calls == {"compress": shipments, "decompress": shipments}
        reducer = group.reducer
        assert reducer.deflate_skipped.value == len(payloads)
        # every payload crosses raw, behind a stream of header columns
        batch = WireReducer(Simulator(seed=1), ReductionConfig(
            enabled=True, cache_entries=0), "jg-dense").encode_batch(
                journal_rows(payloads[:32]))
        plain = zlib.decompress(batch.stream, RAW_DEFLATE)
        assert unpack_header(plain)[-1] == len(plain)
        assert batch.wire_bytes == len(batch.stream) \
            + sum(map(len, payloads[:32]))

    def test_mixed_stream_deflates_once_a_shipment(self):
        payloads = profile_payloads(
            ("random", "compressible", "duplicate"), 300)
        calls, (_site, group, _svol) = zlib_calls(lambda: drain(payloads))
        shipments = group.transfer_batches.value
        assert calls == {"compress": shipments, "decompress": shipments}
        reducer = group.reducer
        assert reducer.hits == 100 - 16          # the duplicate repeats
        assert reducer.deflate_skipped.value == 100 + 16
        assert reducer.saved_compress.value > 0

    def test_skip_counter_moves_once_per_batch(self):
        """The probe's tally reaches the registry through one increment
        per encoded batch, never one per payload."""
        site = build_two_site(Simulator(seed=13),
                              adc=fast_adc(reduction=CONFIG))
        make_async_pair(site)
        reducer = site.main.journal_groups["jg-0"].reducer
        increments = []
        reducer.deflate_skipped.increment = increments.append
        reducer.encode_batch(journal_rows(profile_payloads(
            ("random", "compressible"), 40)))
        assert increments == [20]


class TestProbe:
    @pytest.mark.parametrize("kind", PayloadProfile.KINDS)
    @pytest.mark.parametrize("size", [64, 100, 128, 256, 512, 1024,
                                      2048, 4096])
    def test_verdict_per_payload_kind(self, kind, size):
        """Every page of a dense kind is called dense, no compressible
        one is."""
        profile = PayloadProfile(kind=kind, size_bytes=size, seed=size,
                                 unique_payloads=32)
        assert {dense(profile.payload(index)) for index in range(64)} \
            == {kind != "compressible"}

    def test_probe_samples_a_bounded_stride(self):
        """A payload repeating one dense block is dense in any prefix
        but not in the strided sample, so it still rides the stream."""
        block = b"".join(hashlib.sha256(tag).digest() for tag in (b"a", b"b"))
        payload = block * 64
        assert len(set(payload[:PROBE_SAMPLE_BYTES])) >= PROBE_DENSE_DISTINCT
        assert not dense(payload)

    def test_small_and_empty_payloads(self):
        """Too few bytes to sample: an empty payload and a run of
        distinct values are dense, a short repeating one is not; all of
        them round-trip in one shipment."""
        payloads = [b"", b"a", b"ab" * 8, bytes(range(24))]
        assert list(map(dense, payloads)) == [True, True, False, True]
        reducer = WireReducer(Simulator(seed=1), CONFIG, "jg-small")
        rows = journal_rows(payloads)
        batch = reducer.encode_batch(rows)
        assert batch.wire_bytes == len(batch.stream) + 1 + 24
        assert [entry for entry, _verified in reducer.receive_batch(
            batch, len(rows), rows)] == rows


def dense_bytes(seed: int, size: int) -> bytes:
    return PayloadProfile(kind="random", size_bytes=size,
                          seed=seed).payload(seed)


def text(seed: int, size: int) -> bytes:
    return PayloadProfile(kind="compressible", size_bytes=size,
                          seed=seed).payload(seed)


@st.composite
def payload_mixes(draw):
    """Lists of payloads of every shape the probe can meet: dense,
    compressible, half and half either way round, repeats, and
    arbitrary bytes."""
    shapes = {
        "dense": dense_bytes,
        "text": text,
        "dense-prefix": lambda seed, size:
            dense_bytes(seed, size // 2) + text(seed, size - size // 2),
        "dense-tail": lambda seed, size:
            text(seed, size // 2) + dense_bytes(seed, size - size // 2),
        "repeat": lambda seed, size: dense_bytes(seed % 3, 256),
    }
    items = draw(st.lists(
        st.one_of(
            st.tuples(st.sampled_from(sorted(shapes)),
                      st.integers(0, 1_000), st.integers(2, 1500)),
            st.binary(min_size=1, max_size=300)),
        min_size=1, max_size=40))
    return [item if isinstance(item, bytes)
            else shapes[item[0]](item[1], item[2]) for item in items]


#: a dense head on a compressible tail: deflate shrinks it, the probe
#: calls it dense, so only the unprobed run streams its first copy, and
#: a repeat must still be referenced there
HEAD_ON_TAIL = dense_bytes(1, 110) + text(1, 110)


class TestOneSidedError:
    @given(payloads=payload_mixes())
    @example(payloads=[HEAD_ON_TAIL, HEAD_ON_TAIL])
    @example(payloads=[HEAD_ON_TAIL, dense_bytes(2, 220), HEAD_ON_TAIL])
    @settings(max_examples=40, deadline=None)
    def test_the_verdict_never_changes_the_image(self, payloads):
        off_site, _group, off_svol = drain(
            payloads, reduction=ReductionConfig())
        site, _group, svol = drain(payloads)
        with pytest.MonkeyPatch.context() as patch:
            # no probe: every payload rides the stream
            patch.setattr(reduction, "dense", lambda payload: False)
            _site, _group, unprobed_svol = drain(payloads)
        image = {block: value.payload
                 for block, value in off_svol.block_map().items()}
        for other in (svol, unprobed_svol):
            assert {block: value.payload for block, value
                    in other.block_map().items()} == image
        assert site.link.bytes_transferred \
            <= off_site.link.bytes_transferred
