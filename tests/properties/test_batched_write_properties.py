"""Property: batched host writes are observationally equal to serial.

For any interleaving of ``host_write_many`` batches, snapshots and
snapshot reads, the batched run must produce the same WriteRecord
sequence (modulo ack timestamps), the same primary and drained backup
images, and the same snapshot images as issuing every write serially through
``host_write``.  This is the acceptance property of the batched ingest
path: batching is a latency optimisation, never a semantic change.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation import Simulator
from tests.storage.conftest import build_two_site, fast_adc, run

BLOCKS = 64

# a program is a list of ops:
#   ("write", [(volume_index, block, payload), ...])  — one batch
#   ("snap", volume_index)                            — snapshot now
#   ("image",)                                        — read newest snapshot
write_batches = st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, BLOCKS - 1),
              st.binary(min_size=1, max_size=24)),
    min_size=1, max_size=12)

programs = st.lists(
    st.one_of(
        st.tuples(st.just("write"), write_batches),
        st.tuples(st.just("snap"), st.integers(0, 1)),
        st.tuples(st.just("image")),
    ),
    min_size=1, max_size=10)


def volume_image(volume):
    return {block: (value.payload, value.version)
            for block, value in volume.block_map().items()}


def ack_projection(history):
    return [(r.seq, r.volume_id, r.block, r.version, r.tag)
            for r in history.records]


def execute(program, batched):
    """Run a program; returns (acks, pvol images, svol images, snapshot
    images)."""
    sim = Simulator(seed=77)
    site = build_two_site(sim, adc=fast_adc())
    pvols = [site.main.create_volume(site.main_pool_id, BLOCKS)
             for _ in range(2)]
    svols = [site.backup.create_volume(site.backup_pool_id, BLOCKS)
             for _ in range(2)]
    main_jnl = site.main.create_journal(site.main_pool_id, 100_000)
    backup_jnl = site.backup.create_journal(site.backup_pool_id, 100_000)
    group = site.main.create_journal_group(
        "jg-prop", main_jnl.journal_id, site.backup,
        backup_jnl.journal_id, site.link)
    for index in range(2):
        site.main.create_async_pair(f"pair-{index}", "jg-prop",
                                    pvols[index].volume_id, site.backup,
                                    svols[index].volume_id)

    snapshots = []
    snapshot_images = []

    def driver():
        for op in program:
            if op[0] == "write":
                writes = [(pvols[volume_index].volume_id, block, payload)
                          for volume_index, block, payload in op[1]]
                if batched:
                    yield from site.main.host_write_many(writes)
                else:
                    for volume_id, block, payload in writes:
                        yield from site.main.host_write(volume_id, block,
                                                        payload)
            elif op[0] == "snap":
                snapshots.append(site.main.create_snapshot(
                    pvols[op[1]].volume_id))
            else:  # read the newest snapshot, if any exists yet
                if snapshots:
                    versions = snapshots[-1].frozen_version_map()
                    snapshot_images.append({
                        block: (payload, versions[block]) for block, payload
                        in snapshots[-1].image_blocks().items()})

    run(sim, driver())
    deadline = sim.now + 120.0
    while group.entry_lag and sim.now < deadline:
        sim.run(until=sim.now + 0.05)
    assert group.entry_lag == 0, "replication failed to drain"
    return (ack_projection(site.main.history),
            [volume_image(volume) for volume in pvols],
            [volume_image(volume) for volume in svols],
            snapshot_images)


class TestBatchedWritesEqualSerial:
    @given(program=programs)
    @settings(max_examples=15, deadline=None)
    def test_program_outcome_is_interleaving_independent(self, program):
        serial = execute(program, batched=False)
        batch = execute(program, batched=True)
        serial_acks, serial_pvols, serial_svols, serial_images = serial
        batch_acks, batch_pvols, batch_svols, batch_images = batch
        assert batch_acks == serial_acks
        assert batch_pvols == serial_pvols
        assert batch_svols == serial_svols
        assert batch_images == serial_images

    def test_cow_preserved_under_batch(self):
        """Deterministic COW check: a snapshot taken between batches
        sees pre-batch data even when the batch overwrites a block
        twice, exactly as a serial run would."""
        program = [
            ("write", [(0, 5, b"before")]),
            ("snap", 0),
            ("write", [(0, 5, b"mid"), (0, 5, b"after"), (0, 6, b"new")]),
            ("image",),
        ]
        serial = execute(program, batched=False)
        batch = execute(program, batched=True)
        assert batch == serial
        [snapshot_image] = batch[3]
        assert snapshot_image[5] == (b"before", 1)
        assert 6 not in snapshot_image
