"""Span equivalence: per-window span blocks materialise to exactly the
spans the per-entry recorder produced.

``restore-apply`` spans are recorded as one compact block per apply
window and only turned into :class:`~repro.telemetry.Span` objects when
somebody asks.  The goldens under ``golden/`` are ``tracer.as_dicts()``
of :func:`run_scenario` (``python -m tests.telemetry.test_span_equivalence``
rewrites them — only do that when the *scenario* changes, and then at
the commit before any product change, so the goldens keep showing that
change is span-identical).  They were captured at the last commit that
allocated one ``Span`` per entry, and re-captured when the scenario
switched to :func:`~tests.storage.conftest.hold_restore` at the last
commit that had a restore gate, and once more when a single host write
became a batch of one (only ``host-write`` and ``journal-append`` attrs
moved; every ``restore-apply`` row stayed identical).  Order, ids,
parents, attrs, start/end and status must all match, for the serial
applier and for batch windows.
"""

import json
from pathlib import Path

import pytest

from repro.simulation import Simulator
from repro.storage.journal import JournalEntry
from tests.storage.conftest import (build_two_site, fast_adc, hold_restore,
                                    run)

GOLDEN = Path(__file__).parent / "golden"

#: applier configurations under test: the serial applier's one-entry
#: windows, and one window per restore batch
APPLIERS = {
    "serial": dict(apply_lanes=1),
    "laned": dict(apply_lanes=4),
}


def run_scenario(applier: str) -> Simulator:
    """A seeded two-site run whose restore applies end ``ok``,
    ``coalesced`` (batch windows only), ``skipped`` for a stale version
    and for a deleted pair, and ``integrity``."""
    sim = Simulator(seed=31)
    site = build_two_site(sim, adc=fast_adc(
        transfer_batch=16, restore_batch=16, **APPLIERS[applier]))
    main, backup = site.main, site.backup
    main_jnl = main.create_journal(site.main_pool_id, 10_000)
    backup_jnl = backup.create_journal(site.backup_pool_id, 10_000)
    group = main.create_journal_group("cg", main_jnl.journal_id, backup,
                                      backup_jnl.journal_id, site.link)
    pvols = []
    for index in range(3):
        pvol = main.create_volume(site.main_pool_id, 64)
        svol = backup.create_volume(site.backup_pool_id, 64)
        if index == 0:
            # pre-existing data: applies parent to the initial-copy span
            run(sim, main.host_write(pvol.volume_id, 40, b"pre"))
        main.create_async_pair(f"pair-{index}", "cg", pvol.volume_id,
                               backup, svol.volume_id)
        pvols.append(pvol.volume_id)

    def write(count, base=0):
        for i in range(count):
            yield from main.host_write(pvols[i % 3], (base + i) % 16,
                                       b"w%d-%d" % (base, i))

    # ok: interleaved writes, single and batched
    run(sim, write(20))
    run(sim, main.host_write_many(
        [(pvols[i % 3], 20 + i, b"b%d" % i) for i in range(9)]))
    sim.run(until=sim.now + 0.1)

    # coalesced: overwrites of one address pile up while restore is held
    resume = hold_restore(group)
    for i in range(4):
        run(sim, main.host_write(pvols[0], 5, b"hot%d" % i))
        run(sim, main.host_write(pvols[1], 6 + i, b"cold%d" % i))
    sim.run(until=sim.now + 0.05)
    resume()
    sim.run(until=sim.now + 0.1)

    # stale version: a wire quarantine marks block 9 dirty while a newer
    # write of it is already journaled; the repair resync re-journals
    # that same version behind it
    target = group.main_journal.head_sequence + 1

    def corrupt_once(entry: JournalEntry) -> JournalEntry:
        if entry.sequence != target:
            return entry
        return JournalEntry(entry.sequence, entry.volume_id, entry.block,
                            b"\x00" + entry.payload[1:], entry.version,
                            entry.created_at, entry.checksum,
                            entry.trace_id, entry.span_id)

    group.install_wire_injector(corrupt_once)
    run(sim, main.host_write(pvols[2], 9, b"doomed"))
    run(sim, main.host_write(pvols[2], 9, b"newer"))
    run(sim, write(6, base=3))
    sim.run(until=sim.now + 0.1)
    group.install_wire_injector(None)
    sim.run(until=sim.now + 0.2)

    # integrity + pair deleted: entries wait in the backup journal while
    # one is torn and another loses its pair
    resume = hold_restore(group)
    run(sim, write(9, base=7))
    sim.run(until=sim.now + 0.05)
    assert group.backup_journal.corrupt_entry(1) is not None
    main.delete_pair("pair-1")
    resume()
    sim.run(until=sim.now + 0.3)
    run(sim, write(6, base=11))
    sim.run(until=sim.now + 0.3)
    return sim


def spans_as_json(sim: Simulator) -> list:
    return json.loads(json.dumps(sim.telemetry.tracer.as_dicts()))


@pytest.mark.parametrize("applier", sorted(APPLIERS))
def test_materialised_spans_equal_the_per_entry_golden(applier):
    spans = spans_as_json(run_scenario(applier))
    golden = json.loads((GOLDEN / f"spans_{applier}.json").read_text())
    applies = [s for s in spans if s["name"] == "restore-apply"]
    outcomes = {(s["status"], s["attrs"].get("reason")) for s in applies}
    expected = {("ok", None), ("skipped", "stale version"),
                ("skipped", "pair deleted"),
                ("integrity", "checksum mismatch")}
    if applier == "laned":
        expected.add(("coalesced", "superseded in window"))
    assert outcomes == expected
    assert len(spans) == len(golden)
    for got, want in zip(spans, golden):
        assert got == want


if __name__ == "__main__":  # pragma: no cover - golden capture
    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(APPLIERS):
        spans = spans_as_json(run_scenario(name))
        (GOLDEN / f"spans_{name}.json").write_text(
            "[\n" + ",\n".join(json.dumps(s) for s in spans) + "\n]\n")
