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
  cache state the historical per-entry loop left (the expected states
  below were captured from it).
"""

import cProfile
import pstats

from repro.apps.workload import PayloadProfile
from repro.storage import ReductionConfig
from repro.storage.journal import JournalEntry
from tests.storage.conftest import build_pipeline, hold_restore, run

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
                             group.backup_journal.snapshot_entries()],
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


REDUCED_COALESCED = dict(coalesce_overwrites=True, auto_repair=False,
                         reduction=ReductionConfig(enabled=True))

#: what the per-entry loop left behind (captured at the last commit
#: that had one), keyed like :func:`receive_state`
EXPECTED_BACKUP_FULL = {
    "status": "backup journal full",
    # nothing trims: sequence 0 was superseded by a survivor that did
    # not fit
    "trim_point": 0,
    "main_entries": 40,
    "backup_sequences": [15, 16, 17, 18, 19, 20, 21, 22, 23],
    "transferred_sequence": 23,
    "transferred": 9,
    "transfer_bytes": 9 * (256 + 64),
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
    "wire_bytes": 5804,
}
EXPECTED_WIRE_CORRUPTION = {
    "status": "integrity: corrupt entry seq=26 vol=100 block=7 (wire)",
    "trim_point": 2,
    "main_entries": 38,
    "backup_sequences": [15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25],
    "transferred_sequence": 25,
    "transferred": 11,
    "transfer_bytes": 11 * (256 + 64),
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
    "wire_bytes": 5804,
}


class TestMidBatchFailure:
    """Coalescing + reduction on, one batch of 40 writes over 25
    addresses, restore held so the backup journal only fills."""

    def _one_batch(self, **build):
        p = build_pipeline(17, **build)
        hold_restore(p.group)
        write_stream(p, 40, blocks=25, unique=16)
        return p.sim, p.group

    def test_backup_journal_full_admits_the_prefix_that_fits(self):
        sim, group = self._one_batch(backup_capacity=9,
                                     **REDUCED_COALESCED)
        sim.run(until=sim.now + 0.1)
        assert receive_state(group) == EXPECTED_BACKUP_FULL

    def test_wire_corruption_quarantines_and_trims_around_it(self):
        sim, group = self._one_batch(**REDUCED_COALESCED)

        def corrupt(entry: JournalEntry) -> JournalEntry:
            if entry.sequence != 26:  # the 12th of the 25 survivors
                return entry
            return JournalEntry(
                entry.sequence, entry.volume_id, entry.block,
                b"\xff" + entry.payload[1:], entry.version,
                entry.created_at, entry.checksum, entry.trace_id,
                entry.span_id)

        group.install_wire_injector(corrupt)
        sim.run(until=sim.now + 0.1)
        assert receive_state(group) == EXPECTED_WIRE_CORRUPTION
