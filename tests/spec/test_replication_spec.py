"""The executable specification of the replication pipeline.

A hypothesis state machine drives the real two-array pipeline (one
consistency group of two or three pairs over eight hot blocks, the
P-VOLs written before pairing so several initial copies are pending)
under a configuration drawn from the whole knob lattice.  The clock
advances a quarter of the media write latency at a time, so the machine
stops inside media waits and in-flight shipments, and after every
quantum the pipeline must agree with the serial reference replicator.
Faults are not rules yet; ``kill_list.py`` holds the mutants this
machine must catch (docs/consistency_model.md §6).
"""

import itertools
from collections import Counter

import pytest
from hypothesis import event, note, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule,
                                 run_state_machine_as_test)

from repro.recovery.checker import check_storage_cut
from repro.storage import ReductionConfig
from repro.storage.volume import MediaProfile
from tests.spec.reference import ReferenceReplicator
from tests.storage.conftest import build_pipeline, image_of, run

BLOCKS = 8
#: two compressible payloads that share most of their bytes (one
#: shipment's stream deflates one against the other), three dense ones,
#: and a compressible one longer than a byte can count (a header-block
#: length column needs two); all repeat (dedup)
PAYLOADS = (b"abcdefgh" * 12, b"abcdefgh" * 11 + b"z" * 8,
            bytes(range(96)), bytes(range(96, 192)),
            bytes(range(192, 256)) + bytes(range(32)), b"0123456789" * 30)
#: fingerprint-cache entries per side: fewer than PAYLOADS, so both
#: eviction classes evict, and room for a deflated entry to be the
#: first evicted between its commit and a reference to it
CACHE_ENTRIES = 3
QUARTER = MediaProfile().write_latency / 4

#: every value each knob is run with
KNOBS = dict(transfer_window=(1, 2, 4), apply_lanes=(1, 4),
             coalesce_overwrites=(False, True), reduction=(False, True),
             adaptive_batch=(False, True))
LATTICE = [dict(zip(KNOBS, values))
           for values in itertools.product(*KNOBS.values())]
#: lattice points run so far in this process (the soak's coverage)
DRAWN = Counter()

writes = st.tuples(st.integers(0, 2), st.integers(0, BLOCKS - 1),
                   st.integers(0, len(PAYLOADS) - 1))


def label(knobs) -> str:
    return " ".join(f"{name}={value}" for name, value in knobs.items())


def versions(image):
    return {block: version for block, (_payload, version) in image.items()}


class ReplicationSpec(RuleBasedStateMachine):
    #: a lattice point to run instead of drawing one (:func:`pinned`)
    knobs = None

    @initialize(knobs=st.sampled_from(LATTICE),
                prewrites=st.lists(st.lists(writes, min_size=1,
                                            max_size=3),
                                   min_size=2, max_size=3))
    def build(self, knobs, prewrites):
        knobs = self.knobs or knobs
        DRAWN[label(knobs)] += 1
        event(label(knobs))
        note(label(knobs))
        # small batches over a bandwidth-bound link: several shipments
        # in flight, restore windows that split transfer batches, and
        # journals no run can fill
        p = self.p = build_pipeline(
            1, pairs=0, blocks=BLOCKS, latency=0.0005, bandwidth=5e5,
            transfer_batch=4, restore_batch=3, restore_interval=0.0005,
            transfer_batch_min=2, transfer_batch_max=8,
            transfer_batch_step=2, batch_target_time=0.001,
            **dict(knobs, reduction=ReductionConfig(
                enabled=knobs["reduction"], cache_entries=CACHE_ENTRIES)))
        p.sim.capture_process_errors = False  # a dead loop fails the step
        self.reference = ReferenceReplicator(
            p.main.history, lambda tag: PAYLOADS[int(tag)])
        p.pvols.extend(p.main.create_volume(p.main_pool_id, BLOCKS)
                       for _rows in prewrites)
        run(p.sim, p.main.host_write_many(
            [row for index, rows in enumerate(prewrites)
             for row in self.rows([(index, *write[1:]) for write in rows])]))
        for number, pvol in enumerate(p.pvols):
            p.svols.append(p.backup.create_volume(p.backup_pool_id, BLOCKS))
            p.main.create_async_pair(f"pair-{number}", "jg-0",
                                     pvol.volume_id, p.backup,
                                     p.svols[-1].volume_id)
            self.reference.pair(pvol.volume_id)
        self.writers, self.cuts = [], []
        self.marks = (-1, -1, -1)

    def rows(self, batch):
        pvols = self.p.pvols
        return [(pvols[volume % len(pvols)].volume_id, block,
                 PAYLOADS[index], str(index))
                for volume, block, index in batch]

    def tick(self):
        """Advance one quantum and check the specification."""
        self.p.sim.run(until=self.p.sim.now + QUARTER)
        self.agrees_with_the_reference()

    # -- rules ----------------------------------------------------------------

    @rule(batch=st.lists(writes, min_size=1, max_size=8))
    def host_write(self, batch):
        main = self.p.main
        rows = self.rows(batch)
        if len(rows) == 1:
            volume_id, block, payload, tag = rows[0]
            process = main.host_write(volume_id, block, payload, tag=tag)
        else:
            process = main.host_write_many(rows)
        self.writers.append(self.p.sim.spawn(process))

    @rule(quarters=st.integers(1, 16))
    def advance(self, quarters):
        for _ in range(quarters):
            self.tick()

    @precondition(lambda self: len(self.cuts) < 4)
    @rule(behind=st.booleans())
    def cut(self, behind):
        """Cut the backup image now or, ``behind``, at the first quantum
        (of at most 16) that finds ingested entries still unrestored."""
        p = self.p
        for _ in range(16 if behind else 0):
            if len(p.group.backup_journal):
                break
            self.tick()

        def cut_now():
            # the recovery point a cut must hold: what was restored at
            # the instant it was taken
            restored = p.group.restored_sequence
            cut = yield from p.backup.create_snapshot_group(
                f"cut-{len(self.cuts)}", [svol.volume_id for svol in p.svols])
            return restored, cut

        self.cuts.append(run(p.sim, cut_now()))

    @rule()
    def toggle_link(self):
        link = self.p.link
        link.restore() if not link.is_up else link.fail()

    @rule()
    def stop_and_drain(self):
        p, group = self.p, self.p.group
        group.stop()
        while group._transfer_proc.alive:  # a shipment in flight lands
            p.sim.run(until=p.sim.now + QUARTER)
        run(p.sim, group.drain())
        assert len(group.backup_journal) == 0
        assert group.restored_sequence == group.transferred_sequence
        group.start()

    @rule()
    def converge(self):
        p, group = self.p, self.p.group
        p.link.restore()
        limit = p.sim.now + 1.0
        while (group.entry_lag or any(w.alive for w in self.writers)) \
                and p.sim.now < limit:
            self.tick()
        assert group.entry_lag == 0
        assert not any(writer.alive for writer in self.writers)
        assert group.restored_sequence == self.reference.newest
        for pvol, svol in zip(p.pvols, p.svols):
            assert image_of(svol) == image_of(pvol)
        if not group.config.coalesce_overwrites:
            assert group.transferred_count.value == \
                len(self.reference.entries)

    # -- the specification ----------------------------------------------------

    @invariant()
    def agrees_with_the_reference(self):
        p, group, reference = self.p, self.p.group, self.reference
        reference.sync()
        marks = (group.restored_sequence, group.transferred_sequence,
                 group.main_journal.head_sequence)
        assert marks[2] == reference.newest
        assert marks[0] <= marks[1] <= marks[2], marks
        assert all(now >= then for now, then in zip(marks, self.marks))
        self.marks = marks
        restored = marks[0]
        live = {pvol.volume_id: image_of(svol)
                for pvol, svol in zip(p.pvols, p.svols)}
        assert live == reference.image(restored)
        report = check_storage_cut(p.main.history, {
            volume_id: versions(image) for volume_id, image in live.items()})
        # an initial copy journals blocks in block order, not ack order:
        # the image is a recovery point once every copy is done
        if all(pair.initial_copy_done for pair in group.pairs.values()):
            assert report.consistent, str(report)
        assert report.missing_count == reference.missing(restored)
        assert group.restored_count.value == \
            group.transferred_count.value - len(group.backup_journal)
        if group.reducer.enabled:
            # every reference is bounded to resolve and no cache entry
            # is tampered with: a reference that falls back is a bound
            # or cache-sync bug whose retransmit the image check cannot see
            assert group.reducer.ref_fallbacks.value == 0
        for pair in group.pairs.values():
            assert pair.initial_copy_done == \
                (restored >= pair.copy_watermark), pair.pair_id
        for sequence, cut in self.cuts:
            assert {snap.group_sequence for snap in cut.snapshots} == \
                {sequence}
            expected = reference.image(sequence)
            for pvol, svol in zip(p.pvols, p.svols):
                snap = cut.by_base_volume()[svol.volume_id]
                image = expected[pvol.volume_id]
                assert snap.image_blocks() == {
                    block: payload for block, (payload, _v) in image.items()}
                assert snap.frozen_version_map() == versions(image)


def pinned(knobs):
    """The machine with its lattice point fixed instead of drawn."""
    return type(ReplicationSpec.__name__, (ReplicationSpec,),
                {"knobs": knobs})


SOAK = settings.get_current_profile_name() == "soak"
TestReplicationSpec = ReplicationSpec.TestCase
TestReplicationSpec.settings = settings() if SOAK else settings(
    max_examples=150, stateful_step_count=40, deadline=None)


@pytest.mark.skipif(not SOAK, reason="the soak profile's lattice sweep")
def test_the_soak_covers_the_lattice():
    """Hypothesis reuses and mutates its draws, so a drawn lattice point
    is not a covered one: the soak also runs every point pinned, and
    the machine's ``event()`` tally must then hold all of them."""
    per_point = settings(settings(), max_examples=max(
        1, settings().max_examples // len(LATTICE)))
    for knobs in LATTICE:
        run_state_machine_as_test(pinned(knobs), settings=per_point)
    missing = [label(knobs) for knobs in LATTICE if not DRAWN[label(knobs)]]
    assert not missing, missing
