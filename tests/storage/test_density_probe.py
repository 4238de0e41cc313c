"""The wire encoder's density probe: deflate only what can shrink.

Three contracts:

* **deflate budget** — with ``zlib.compress`` counted, a stream of dense
  payloads makes no call at all, and a mixed stream makes exactly one
  call per payload that ships compressed (none is deflated and thrown
  away);
* **verdict equivalence** — for every payload shape the repository
  generates, the probed codec returns byte for byte what the unprobed
  one (kept here as the reference) returns;
* **one-sided error** — over arbitrary payload mixes, including
  payloads that are dense in one half and compressible in the other,
  reduction never changes the backup image, every compressed payload
  round-trips, and the probe never *lowers* the wire bytes: it can
  forgo a saving, nothing else.
"""

import cProfile
import hashlib
import pstats
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.workload import PayloadProfile
from repro.simulation import Simulator
from repro.storage import ReductionCodec, ReductionConfig
from repro.storage.reduction import (COMPRESS_FRAME_BYTES, COMPRESS_LEVEL,
                                     MIN_COMPRESS_BYTES,
                                     PROBE_DENSE_DISTINCT,
                                     PROBE_SAMPLE_BYTES, RATIO_THRESHOLD)
from repro.storage.volume import BlockValue
from tests.storage.conftest import (build_two_site, fast_adc,
                                    make_async_pair, run)

CONFIG = ReductionConfig(enabled=True)


def unprobed_compress(payload: bytes):
    """The codec as it was before the probe: always deflate, then keep
    the result only when it beats the ratio threshold."""
    if len(payload) < MIN_COMPRESS_BYTES:
        return None
    packed = zlib.compress(payload, COMPRESS_LEVEL)
    if len(packed) + COMPRESS_FRAME_BYTES \
            <= RATIO_THRESHOLD * len(payload):
        return packed
    return None


def zlib_calls(action) -> tuple:
    """``(calls, result)``: the ``zlib.compress``/``zlib.decompress``
    calls made while ``action()`` runs, whichever name the caller bound
    them under, and what it returned."""
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


def drain(payloads, reduction=CONFIG, unprobed=False, blocks=512):
    """Write ``payloads`` to distinct blocks of one ADC pair and drain
    them to the backup site; returns (site, group, svol)."""
    site = build_two_site(Simulator(seed=13),
                          adc=fast_adc(reduction=reduction,
                                       transfer_batch=32))
    pvol, svol = make_async_pair(site, blocks=blocks)
    group = site.main.journal_groups["jg-0"]
    if unprobed:
        group.reducer.codec.compress = unprobed_compress
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
    def test_dense_stream_never_calls_deflate(self):
        payloads = profile_payloads(("random",), 300)
        calls, (_site, group, _svol) = zlib_calls(lambda: drain(payloads))
        assert calls == {"compress": 0, "decompress": 0}
        assert group.reducer.deflate_skipped.value == len(payloads)
        assert group.reducer.saved_compress.value == 0

    def test_mixed_stream_deflates_only_what_ships_compressed(self):
        payloads = profile_payloads(
            ("random", "compressible", "duplicate"), 300)
        calls, (_site, group, _svol) = zlib_calls(lambda: drain(payloads))
        # every compressed payload on the wire is decompressed once at
        # the receive side, so equal counts mean no deflate was wasted
        assert calls["compress"] == calls["decompress"] == 100
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
        reducer.encode_batch(
            [BlockValue(payload, 1) for payload in profile_payloads(
                ("random", "compressible"), 40)])
        assert increments == [20]


class TestVerdictEquivalence:
    @pytest.mark.parametrize("kind", PayloadProfile.KINDS)
    @pytest.mark.parametrize("size", [64, 100, 128, 256, 512, 1024,
                                      2048, 4096])
    def test_probed_codec_matches_unprobed(self, kind, size):
        codec = ReductionCodec()
        profile = PayloadProfile(kind=kind, size_bytes=size, seed=size,
                                 unique_payloads=32)
        for index in range(64):
            payload = profile.payload(index)
            assert codec.compress(payload) == unprobed_compress(payload)

    def test_probe_samples_a_bounded_stride(self):
        """A payload repeating one dense block is dense in any prefix
        but not in the strided sample, so it still reaches deflate."""
        block = b"".join(hashlib.sha256(tag).digest() for tag in (b"a", b"b"))
        payload = block * 64
        assert len(set(payload[:PROBE_SAMPLE_BYTES])) >= PROBE_DENSE_DISTINCT
        codec = ReductionCodec()
        assert codec.compress(payload) == unprobed_compress(payload)
        assert codec.compress(payload) is not None
        assert codec.probe_skips == 0

    def test_small_and_empty_payloads(self):
        codec = ReductionCodec()
        for payload in (b"", b"a", b"ab" * 8, bytes(range(24))):
            assert codec.compress(payload) == unprobed_compress(payload)


def dense(seed: int, size: int) -> bytes:
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
        "dense": dense,
        "text": text,
        "dense-prefix": lambda seed, size:
            dense(seed, size // 2) + text(seed, size - size // 2),
        "dense-tail": lambda seed, size:
            text(seed, size // 2) + dense(seed, size - size // 2),
        "repeat": lambda seed, size: dense(seed % 3, 256),
    }
    items = draw(st.lists(
        st.one_of(
            st.tuples(st.sampled_from(sorted(shapes)),
                      st.integers(0, 1_000), st.integers(2, 1500)),
            st.binary(min_size=1, max_size=300)),
        min_size=1, max_size=40))
    return [item if isinstance(item, bytes)
            else shapes[item[0]](item[1], item[2]) for item in items]


class TestOneSidedError:
    @given(payloads=payload_mixes())
    @settings(max_examples=40, deadline=None)
    def test_probe_only_ever_forgoes_a_saving(self, payloads):
        off_site, _group, off_svol = drain(
            payloads, reduction=ReductionConfig())
        site, _group, svol = drain(payloads)
        ref_site, _group, ref_svol = drain(payloads, unprobed=True)
        image = {block: value.payload
                 for block, value in off_svol.block_map().items()}
        for other in (svol, ref_svol):
            assert {block: value.payload for block, value
                    in other.block_map().items()} == image
        assert ref_site.link.bytes_transferred \
            <= site.link.bytes_transferred \
            <= off_site.link.bytes_transferred
        codec = ReductionCodec()
        for payload in payloads:
            packed = codec.compress(payload)
            if packed is not None:
                assert packed == unprobed_compress(payload)
                assert ReductionCodec.decompress(packed) == payload
