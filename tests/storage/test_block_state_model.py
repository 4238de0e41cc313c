"""Model-based equivalence for the block-state layer.

A hypothesis state machine drives :class:`Volume` + :class:`Snapshot`
through every way block state changes — waited writes, latency-free
installs (host and replication versions), snapshot create/delete in any
order, ``format`` — including snapshots attached, deleted or formatted
under while a waited write (``apply_delay``, then ``install_blocks``,
the contract every product writer uses) is still in its media wait.
After every step the real layer must agree with a reference model that
has no columns, stamps or copy-on-write at all: the base is a dict of
:class:`BlockValue`, and a snapshot is an eager full copy taken when it
is created.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

import pytest

from repro.errors import VolumeError
from repro.simulation import Simulator
from repro.storage.journal import payload_checksum
from repro.storage.snapshot import Snapshot
from repro.storage.volume import BlockValue, MediaProfile, Volume
from tests.storage.conftest import waited_write

BLOCKS = 6
blocks = st.integers(0, BLOCKS - 1)
payloads = st.binary(min_size=1, max_size=4)


class ModelSnapshot:
    """An eager full copy, plus the bookkeeping a COW store would show."""

    def __init__(self, base):
        self.image = dict(base)   # frozen at creation, never touched again
        self.cow = set()          # blocks written (or formatted) since


class BlockStateMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.sim = Simulator(seed=1)
        self.volume = Volume(self.sim, 1, BLOCKS, MediaProfile())
        self.base = {}            # the model: block -> BlockValue
        self.counter = 0
        self.snaps = {}           # live real Snapshot -> ModelSnapshot
        self.next_id = 0
        self.finished = []        # waited writes, in completion order

    # -- model updates --------------------------------------------------------

    def model_write(self, block, payload, version):
        for model in self.snaps.values():
            model.cow.add(block)
        self.base[block] = BlockValue(payload, version,
                                      payload_checksum(payload))
        self.counter = max(self.counter, version)

    def settle(self):
        """Fold waited writes that completed into the model."""
        for block, payload, version in self.finished:
            self.model_write(block, payload, version)
        self.finished.clear()

    # -- writes ---------------------------------------------------------------

    @rule(block=blocks, payload=payloads)
    def start_write(self, block, payload):
        """A waited host write; completes under a later ``advance``."""
        def writer():
            version = yield from waited_write(self.volume, block, payload)
            self.finished.append((block, payload, version))
        self.sim.spawn(writer())

    @rule(steps=st.integers(1, 8))
    def advance(self, steps):
        # a quarter of the shortest latency: stops inside every wait
        self.sim.run(until=self.sim.now + steps * 0.000075)
        self.settle()

    @rule(rows=st.lists(st.tuples(blocks, payloads), min_size=1, max_size=4),
          replicated=st.booleans())
    def install(self, rows, replicated):
        """Latency-free installs: host versions or replication applies."""
        versions = [self.counter + 1 + index if replicated else None
                    for index in range(len(rows))]
        writes = [(block, payload, version, None)
                  for (block, payload), version in zip(rows, versions)]
        if len(writes) == 1:
            installed = [self.volume.install_block(*writes[0])]
        else:
            installed = self.volume.install_blocks(writes)
        assert installed == [self.counter + 1 + index
                             for index in range(len(rows))]
        for (block, payload), version in zip(rows, installed):
            self.model_write(block, payload, version)

    @precondition(lambda self: self.base)
    @rule(data=st.data())
    def stale_apply_is_rejected(self, data):
        block = data.draw(st.sampled_from(sorted(self.base)))
        with pytest.raises(VolumeError):
            self.volume.install_block(block, b"stale",
                                      self.base[block].version)

    @rule()
    def format(self):
        self.volume.format()
        for model in self.snaps.values():
            model.cow.update(self.base)
        self.base.clear()
        self.counter = 0

    # -- snapshots ------------------------------------------------------------

    @precondition(lambda self: len(self.snaps) < 4)
    @rule()
    def create_snapshot(self):
        self.next_id += 1
        snapshot = Snapshot(self.next_id, self.volume, self.sim.now)
        self.snaps[snapshot] = ModelSnapshot(self.base)

    @precondition(lambda self: self.snaps)
    @rule(data=st.data())
    def delete_snapshot(self, data):
        snapshot = data.draw(st.sampled_from(list(self.snaps)))
        snapshot.delete()
        del self.snaps[snapshot]

    # -- the equivalence ------------------------------------------------------

    @invariant()
    def images_agree(self):
        volume = self.volume
        assert volume.block_map() == self.base
        assert volume.version_counter == self.counter
        assert volume.snapshot_count == len(self.snaps)
        for block in range(BLOCKS):
            assert volume.peek(block) == self.base.get(block)
            assert volume.versions.get(block, 0) == \
                getattr(self.base.get(block), "version", 0)
        for snapshot, model in self.snaps.items():
            for block in range(BLOCKS):
                assert snapshot.read_current(block) == \
                    getattr(model.image.get(block), "payload", None)
            assert snapshot.image_blocks() == {
                block: value.payload
                for block, value in model.image.items()}
            assert snapshot.frozen_version_map() == {
                block: value.version
                for block, value in model.image.items()}

    @invariant()
    def cow_accounting_agrees(self):
        # copy-on-write is decided at install, the step the model sees
        # the write: a write still in its wait has preserved nothing
        media = self.volume.media
        for snapshot, model in self.snaps.items():
            assert snapshot.cow_blocks == len(model.cow)
        owed = [sum(block not in model.cow for model in self.snaps.values())
                for block in range(BLOCKS)]
        for rows in [[(block,)] for block in range(BLOCKS)] + \
                [[(block,) for block in range(BLOCKS)]]:
            assert self.volume.apply_delay(rows) == (
                media.write_latency + media.cow_copy_latency
                * max(owed[block] for block, in rows))


TestBlockState = BlockStateMachine.TestCase
TestBlockState.settings = settings(max_examples=120,
                                   stateful_step_count=40, deadline=None)


def test_snapshot_attached_during_a_waiting_write_keeps_the_old_block():
    """The corner the generation stamps exist for, pinned directly."""
    sim = Simulator(seed=1)
    volume = Volume(sim, 1, BLOCKS, MediaProfile())
    volume.install_block(0, b"old")
    writer = sim.spawn(waited_write(volume, 0, b"new"))
    sim.run(until=sim.now + volume.media.write_latency / 2)
    snapshot = Snapshot(1, volume, sim.now)
    assert snapshot.frozen_version_map() == {0: 1}
    sim.run_until_complete(writer)
    assert volume.peek(0).payload == b"new"
    assert snapshot.read_current(0) == b"old"
    assert snapshot.image_blocks() == {0: b"old"}
    assert snapshot.cow_blocks == 1
