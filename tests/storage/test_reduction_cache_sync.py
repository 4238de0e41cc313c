"""Property: every dedup reference resolves, and both caches stay one.

Hypothesis draws a tiny fingerprint cache, one or eight batches in
flight, a fixed transfer batch and a journaled stream mixing
compressible, duplicate and random payloads, then drains it with no
faults.  The survival bound must keep every reference resolvable (zero
fallbacks), the secondary must equal the primary, and the sender and
receiver caches must hold the same entries in the same eviction class
and order.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.workload import PayloadProfile
from repro.storage.reduction import ReductionConfig
from tests.storage.conftest import build_pipeline, run

#: six payloads of each kind (compressible ones ride the stream):
#: random 0-5, compressible 6-11, duplicate 12-17
POOL = [PayloadProfile(kind=kind, size_bytes=256, seed=seed,
                       unique_payloads=6).payload(index)
        for seed, kind in enumerate(PayloadProfile.KINDS)
        for index in range(6)]


def cache_state(cache):
    """Entries, then each class's fingerprints and serials in eviction
    order."""
    return cache._entries, [list(order.items()) for order in cache._order]


@settings(max_examples=60, deadline=None)
# a repeat whose raw first copy the same batch evicts before it lands
@example(cache_entries=1, transfer_window=1, transfer_batch=4,
         stream=[0, 1, 0])
# a repeat of a copy still in flight, evicted by the batches between
@example(cache_entries=2, transfer_window=8, transfer_batch=1,
         stream=[0, 1, 2, 0])
# deflated insertions evict each other: the raw entry is referenced
@example(cache_entries=2, transfer_window=1, transfer_batch=3,
         stream=[0, 6, 7, 8, 9, 0])
# a deflated first copy in flight or in the batch is never
# referenced: the raw page behind it may evict it first
@example(cache_entries=3, transfer_window=1, transfer_batch=3,
         stream=[0, 1, 7, 6, 2, 6])
@given(cache_entries=st.integers(1, 8),
       transfer_window=st.sampled_from([1, 8]),
       transfer_batch=st.integers(1, 16),
       stream=st.lists(st.integers(0, len(POOL) - 1), min_size=1,
                       max_size=120))
def test_every_reference_resolves_and_the_caches_agree(
        cache_entries, transfer_window, transfer_batch, stream):
    site = build_pipeline(11, blocks=64, bandwidth=5e5,
                          transfer_batch=transfer_batch,
                          transfer_window=transfer_window,
                          reduction=ReductionConfig(
                              enabled=True, cache_entries=cache_entries))
    sim, group, pvol, svol = site.sim, site.group, site.pvols[0], \
        site.svols[0]
    # journaled with transfer stopped: the pipeline starts full
    group.stop()
    run(sim, site.main.host_write_many(
        [(pvol.volume_id, block % 64, POOL[index])
         for block, index in enumerate(stream)]))
    group.start()
    sim.run(until=sim.now + 5.0)
    assert group.entry_lag == 0
    reducer = group.reducer
    assert reducer.ref_fallbacks.value == 0
    assert svol.block_map() == pvol.block_map()
    assert cache_state(reducer.sender) == cache_state(reducer.receiver)
