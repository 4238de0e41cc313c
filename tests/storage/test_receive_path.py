"""The single receive path: hash budget and mid-batch failure semantics.

Every configuration takes one receive path — reconstruct, verify once,
bulk-ingest the clean prefix.  Two contracts are pinned here:

* **hash budget** — a clean entry costs one CRC32 per site (the host
  write's at the main site, the receive check at the backup site) with
  coalescing, reduction and lanes all on; once a journal-corruption
  fault re-arms integrity, the encoder re-hashes and the applier
  re-verifies;
* **prefix semantics** — a backup-journal-full and a wire corruption in
  mid-batch leave exactly the trim point, quarantine, counters and
  cache state pinned below, and a batch coalescing thinned that does
  not land whole is ingested only before its first dropped entry, so
  resuming restore exposes nothing but prefix cuts of the ack order.
"""

import cProfile
import pstats

import pytest

from repro.apps.workload import PayloadProfile
from repro.recovery.checker import check_storage_cut
from repro.storage import ReductionConfig
from repro.storage.journal import JournalEntry
from tests.storage.conftest import (build_pipeline, hold_repair,
                                    hold_restore, journal_entries, run)

ALL_ON = dict(coalesce_overwrites=True, apply_lanes=4, transfer_window=4,
              reduction=ReductionConfig(enabled=True))


def write_stream(p, count, blocks, unique=6):
    """``count`` writes over ``blocks`` addresses (so batches coalesce)
    drawn from ``unique`` distinct payloads (so batches dedup)."""
    profile = PayloadProfile(kind="duplicate", size_bytes=256, seed=5,
                             unique_payloads=unique)
    run(p.sim, p.main.host_write_many(
        [(p.pvols[0].volume_id, (i * 7) % blocks, profile.payload(i))
         for i in range(count)]))


def crc32_calls(action) -> int:
    """``zlib.crc32`` calls made while ``action()`` runs, whichever name
    the calling module bound the function under."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        action()
    finally:
        profile.disable()
    return sum(stat[1] for key, stat in pstats.Stats(profile).stats.items()
               if key[2] == "<built-in method zlib.crc32>")


class TestHashBudget:
    WRITES = 400

    def _drain(self, corrupt: bool):
        p = build_pipeline(17, **ALL_ON)
        sim, group, pvol, svol = p.sim, p.group, p.pvols[0], p.svols[0]
        if corrupt:
            # a torn write long before the measured drain: quarantined,
            # repaired — and integrity stays re-armed from then on
            run(sim, p.main.host_write(pvol.volume_id, 255, b"torn"))
            assert group.main_journal.corrupt_entry(0) is not None
            sim.run(until=sim.now + 1.0)
            assert len(group.quarantine) == 1 and not group.suspended

        def drain():
            write_stream(p, self.WRITES, blocks=200)
            sim.run(until=sim.now + 1.0)

        calls = crc32_calls(drain)
        assert group.entry_lag == 0
        assert svol.block_map() == pvol.block_map()
        return calls, group

    def test_clean_entry_costs_one_crc_per_site(self):
        calls, group = self._drain(corrupt=False)
        shipped = group.transferred_count.value
        assert 0 < shipped < self.WRITES  # the stream did coalesce
        assert group.reducer.hits > 0     # and did dedup
        assert calls <= self.WRITES + shipped

    def test_rearmed_integrity_rehashes_and_reverifies(self):
        clean, _group = self._drain(corrupt=False)
        calls, group = self._drain(corrupt=True)
        shipped = group.transferred_count.value - 1
        # on top of the clean budget: one encode re-hash and one apply
        # re-verify per shipped entry
        assert calls == clean + 2 * shipped


def receive_state(group) -> dict:
    reducer = group.reducer
    return {
        "status": group.suspend_reason,
        "trim_point": group.main_journal.oldest_sequence(),
        "main_entries": len(group.main_journal),
        "backup_sequences": [entry.sequence for entry in
                             journal_entries(group.backup_journal)],
        "transferred_sequence": group.transferred_sequence,
        "transferred": group.transferred_count.value,
        "transfer_bytes": group.transfer_bytes.value,
        "batches": group.transfer_batches.value,
        "coalesced": group.coalesced_count.value,
        "suspensions": group.suspensions.value,
        "quarantine": [entry.sequence for entry in group.quarantine],
        "corruptions_wire": group.corruptions_wire.value,
        "invalidations": reducer.invalidations.value,
        "lookups": reducer.lookups,
        "hits": reducer.hits,
        "ref_fallbacks": reducer.ref_fallbacks.value,
        "cached": len(reducer.sender),
        "wire_bytes": reducer.wire_counter("transfer").value,
    }


REDUCED_COALESCED = dict(coalesce_overwrites=True,
                         reduction=ReductionConfig(enabled=True))

#: the state a mid-batch failure leaves, keyed like
#: :func:`receive_state`.  Coalescing dropped the batch's first 15
#: entries (sequences 0-14, superseded by 25-39), so its thinned prefix
#: is empty: nothing is ingested or trimmed and the whole batch
#: re-ships once the suspension heals
EXPECTED_BACKUP_FULL = {
    "status": "backup journal full",
    "trim_point": 0,
    "main_entries": 40,
    "backup_sequences": [],
    "transferred_sequence": -1,
    "transferred": 0,
    "transfer_bytes": 0,
    "batches": 0,
    "coalesced": 15,
    "suspensions": 1,
    "quarantine": [],
    "corruptions_wire": 0,
    "invalidations": 0,
    "lookups": 25,
    "hits": 9,
    "ref_fallbacks": 0,
    # the entry that hit the full journal was received (and committed
    # to the caches) before its ingest failed
    "cached": 10,
    # 16 full 256-byte payloads plus the 153 bytes of deflated header
    # block the link carries for the 25 survivors (250 with hand-coded
    # columns; the flat framing: 25 x 64 bytes, and 12 a reference)
    "wire_bytes": 4249,
}
EXPECTED_WIRE_CORRUPTION = {
    "status": "integrity: corrupt entry seq=26 vol=100 block=7 (wire)",
    # the corrupt entry lies past the thinned prefix: quarantined, but
    # not trimmed
    "trim_point": 0,
    "main_entries": 40,
    "backup_sequences": [],
    "transferred_sequence": -1,
    "transferred": 0,
    "transfer_bytes": 0,
    "batches": 0,
    "coalesced": 15,
    "suspensions": 1,
    "quarantine": [26],
    "corruptions_wire": 1,
    "invalidations": 1,
    "lookups": 25,
    "hits": 9,
    "ref_fallbacks": 0,
    "cached": 0,
    "wire_bytes": 4249,
}


def corrupt_26(entry: JournalEntry) -> JournalEntry:
    """Wire injector: flip the first byte of sequence 26 (the 12th of
    the batch's 25 survivors)."""
    if entry.sequence != 26:
        return entry
    return JournalEntry(
        entry.sequence, entry.volume_id, entry.block,
        b"\xff" + entry.payload[1:], entry.version, entry.created_at,
        entry.checksum, entry.trace_id, entry.span_id)


class TestMidBatchFailure:
    """Coalescing + reduction on, one batch of 40 writes over 25
    addresses, restore held so the backup journal only fills; the wire
    corruption also holds the repair, so the group stays suspended."""

    def _one_batch(self, fault):
        p = build_pipeline(17, **REDUCED_COALESCED,
                           **({"backup_capacity": 9}
                              if fault == "backup-full" else {}))
        resume = hold_restore(p.group)
        write_stream(p, 40, blocks=25, unique=16)
        release = None
        if fault == "wire-corruption":
            release = hold_repair(p.group)
            p.group.install_wire_injector(corrupt_26)
        p.sim.run(until=p.sim.now + 0.1)
        return p, resume, release

    def test_backup_journal_full_admits_the_prefix_that_fits(self):
        p, _resume, _release = self._one_batch("backup-full")
        assert receive_state(p.group) == EXPECTED_BACKUP_FULL

    def test_wire_corruption_quarantines_and_trims_around_it(self):
        p, _resume, _release = self._one_batch("wire-corruption")
        assert receive_state(p.group) == EXPECTED_WIRE_CORRUPTION

    @pytest.mark.parametrize("fault", ["backup-full", "wire-corruption"])
    def test_resumed_restore_exposes_only_prefix_cuts(self, fault):
        """Every restore window after the failure commits a prefix of
        the ack order; after the wire corruption the repair then
        converges the secondary."""
        p, resume, release = self._one_batch(fault)
        group, pvol, svol = p.group, p.pvols[0], p.svols[0]
        cuts = []
        update_copy_states = group._update_copy_states

        def checked_update():  # runs after every restore window
            update_copy_states()
            cuts.append((group.restored_sequence, check_storage_cut(
                p.main.history, {pvol.volume_id: dict(svol.versions)})))

        group._update_copy_states = checked_update
        resume()
        if release is not None:
            group.install_wire_injector(None)
            release()
        p.sim.run(until=p.sim.now + 0.5)
        assert all(report.consistent for _restored, report in cuts), \
            [(restored, str(report)) for restored, report in cuts]
        if release is not None:
            assert cuts and not group.suspended
            assert svol.block_map() == pvol.block_map()
