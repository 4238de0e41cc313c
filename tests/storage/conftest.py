"""Shared fixtures for storage-array tests: two sites and one ADC pipeline."""

from dataclasses import dataclass
from typing import List

import pytest

from repro.simulation import NetworkLink, Simulator
from repro.storage import AdcConfig, ArrayConfig, StorageArray
from repro.storage.adc import JournalGroup
from repro.storage.journal import JournalEntry, payload_checksum
from repro.storage.volume import Volume


@pytest.fixture()
def sim():
    return Simulator(seed=11)


def fast_adc(**overrides) -> AdcConfig:
    """ADC config with tight, jitter-free loops for quick convergence."""
    params = dict(transfer_interval=0.001, transfer_batch=1024,
                  restore_interval=0.001, restore_batch=1024,
                  interval_jitter=0.0)
    params.update(overrides)
    return AdcConfig(**params)


@dataclass
class TwoSite:
    """A main/backup array pair with a link, ready for pairing."""

    sim: Simulator
    main: StorageArray
    backup: StorageArray
    link: NetworkLink
    main_pool_id: int
    backup_pool_id: int


def build_two_site(sim, latency=0.005, adc=None, pool_blocks=1_000_000,
                   bandwidth=None) -> TwoSite:
    """Create two arrays with one pool each and a connecting link."""
    config = ArrayConfig(adc=adc or fast_adc())
    main = StorageArray(sim, serial="G370-MAIN", config=config)
    backup = StorageArray(sim, serial="G370-BKUP", config=config)
    link = NetworkLink(sim, latency=latency, bandwidth_bytes_per_s=bandwidth,
                       name="main->backup")
    main_pool = main.create_pool(pool_blocks)
    backup_pool = backup.create_pool(pool_blocks)
    return TwoSite(sim=sim, main=main, backup=backup, link=link,
                   main_pool_id=main_pool.pool_id,
                   backup_pool_id=backup_pool.pool_id)


@pytest.fixture()
def two_site(sim):
    return build_two_site(sim)


def make_group(site, group_id="jg-0", backup_capacity=10_000,
               ) -> JournalGroup:
    """Journal group ``group_id`` with its two journals (created on
    first use)."""
    group = site.main.journal_groups.get(group_id)
    if group is None:
        main_jnl = site.main.create_journal(site.main_pool_id, 10_000)
        backup_jnl = site.backup.create_journal(site.backup_pool_id,
                                                backup_capacity)
        group = site.main.create_journal_group(
            group_id, main_jnl.journal_id, site.backup,
            backup_jnl.journal_id, site.link)
    return group


def make_async_pair(site, blocks=256, group_id="jg-0", pair_id="pair-0",
                    backup_capacity=10_000):
    """One ADC pair in journal group ``group_id``; returns (pvol, svol)."""
    pvol = site.main.create_volume(site.main_pool_id, blocks)
    svol = site.backup.create_volume(site.backup_pool_id, blocks)
    make_group(site, group_id, backup_capacity)
    site.main.create_async_pair(pair_id, group_id, pvol.volume_id,
                                site.backup, svol.volume_id)
    return pvol, svol


@dataclass
class Pipeline(TwoSite):
    """Two sites and one journal group ``jg-0`` with its pairs."""

    group: JournalGroup
    pvols: List[Volume]
    svols: List[Volume]


def build_pipeline(seed=11, pairs=1, blocks=256, latency=0.005,
                   bandwidth=None, backup_capacity=10_000,
                   **adc) -> Pipeline:
    """``pairs`` async pairs in one journal group between two fresh
    sites; ``adc`` overrides :func:`fast_adc`."""
    site = build_two_site(Simulator(seed=seed), latency=latency,
                          adc=fast_adc(**adc), bandwidth=bandwidth)
    group = make_group(site, backup_capacity=backup_capacity)
    volumes = [make_async_pair(site, blocks, pair_id=f"pair-{index}")
               for index in range(pairs)]
    return Pipeline(**vars(site), group=group,
                    pvols=[pvol for pvol, _svol in volumes],
                    svols=[svol for _pvol, svol in volumes])


def drain(sim, group, deadline=60.0):
    """Run until the pipeline fully applied everything to the S-VOLs.

    Convergence needs more than ``entry_lag == 0``: a quarantine trims
    the corrupted entry off the journal (lag 0) while its block is still
    dirty and awaiting the next auto-repair round, so settle until the
    suspension cleared and every dirty set is empty too.
    """
    def settled():
        return (group.entry_lag == 0 and not group.suspended
                and all(not pair.dirty_blocks
                        for pair in group.pairs.values()))

    limit = sim.now + deadline
    while not settled() and sim.now < limit:
        sim.run(until=sim.now + 0.05)
    assert settled(), "pipeline failed to drain"


def hold_restore(group):
    """Stop ``group``'s restore process so ingested entries park in the
    backup journal; returns the function that respawns it.

    Call it between restore windows: the process dies at its current
    wait, which must not be a window's media wait.
    """
    assert not group.applying, "hold restore between windows"
    group._restore_proc.interrupt("restore held")

    def resume():
        group._restore_proc = group.sim.spawn(
            group._restore_loop(), name=f"jg-{group.group_id}.restore")

    return resume


def hold_repair(group):
    """Keep ``group``'s auto-repair loop from arming, so a quarantine
    leaves the group suspended; returns the function that re-arms it."""
    group.ensure_repair = lambda: None

    def release():
        del group.ensure_repair
        group.ensure_repair()

    return release


def journal_entries(journal):
    """The entries ``journal`` retains, oldest first (a copy)."""
    return journal.peek_batch(len(journal)) if len(journal) else []


def journal_rows(payloads) -> List[JournalEntry]:
    """One journal entry per payload, as one host-write batch journals
    them: contiguous sequences, one volume, one time, no trace."""
    return [JournalEntry(sequence, 1, sequence, payload, 1, 0.0,
                         payload_checksum(payload))
            for sequence, payload in enumerate(payloads)]


def tamper_receiver_entry(reducer) -> bytes:
    """Corrupt the receiver's copy of its newest raw cached payload —
    the one cause of a reference fallback the survival bound leaves —
    and return the intact payload, which the sender still holds."""
    fingerprint = next(reversed(reducer.receiver._order[1]))
    payload = reducer.sender.get(fingerprint)
    reducer.receiver._entries[fingerprint] = \
        bytes([payload[0] ^ 0xFF]) + payload[1:]
    return payload


def image_of(volume):
    return {block: (value.payload, value.version)
            for block, value in volume.block_map().items()}


def waited_write(volume, block, payload, version=None):
    """One block write the way every product writer makes it: wait out
    ``apply_delay``, then ``install_blocks`` (process generator; returns
    the installed version)."""
    row = ((block, payload, version, None),)
    delay = volume.apply_delay(row)
    if delay > 0:
        yield volume.sim.sleep(delay)
    return volume.install_blocks(row)[0]


def run(sim, generator, timeout=None):
    """Run a process generator to completion and return its result."""
    return sim.run_until_complete(sim.spawn(generator), timeout=timeout)
