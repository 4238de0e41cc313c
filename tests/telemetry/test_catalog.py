"""Metric catalog self-check: registered ⇒ documented.

docs/observability.md is the operator's catalog of ``repro_*`` metrics.
A family that a running system registers but the catalog does not name
is a defect; this builds the systems an operator would run — the
default protected business system, a two-site world with every wire
and restore fast path on, and a reduced sync mirror beside a reduced
journal group — drives a few hundred writes through each, and checks
every registered family against the document.
"""

import re
from pathlib import Path

from repro.apps import WorkloadConfig, run_order_workload
from repro.apps.workload import PayloadProfile
from repro.bench.setups import MODE_ADC_CG, build_business_system
from repro.simulation import Simulator
from repro.storage import ReductionConfig, SdcConfig
from tests.storage.conftest import (build_two_site, fast_adc,
                                    make_async_pair, run)

CATALOG = Path(__file__).resolve().parents[2] / "docs" / "observability.md"
REDUCED = ReductionConfig(enabled=True, cache_entries=8)


def undocumented(registry) -> list:
    documented = set(re.findall(r"repro_[a-z0-9_]+", CATALOG.read_text()))
    return sorted(set(registry.names()) - documented)


def test_default_business_system_registers_only_documented_families():
    experiment = build_business_system(seed=7, mode=MODE_ADC_CG)
    outcome = run_order_workload(
        experiment.sim, experiment.business.app,
        WorkloadConfig(client_count=4, duration=0.5))
    assert len(experiment.system.main.array.history) >= 200
    assert outcome.results
    registry = experiment.sim.telemetry.registry
    assert "repro_orders_total" in registry.names()
    assert undocumented(registry) == []


def test_all_on_world_registers_only_documented_families():
    site = build_two_site(Simulator(seed=7), adc=fast_adc(
        transfer_window=8, transfer_batch=4, adaptive_batch=True,
        apply_lanes=4, coalesce_overwrites=True, reduction=REDUCED))
    sim = site.sim
    pvol, svol = make_async_pair(site, blocks=256)
    # twelve payloads cycling through an 8-entry cache, eight batches
    # in flight: dedups, deflates, and falls back on evicted references
    profiles = [PayloadProfile(kind=kind, size_bytes=512, seed=7,
                               unique_payloads=12)
                for kind in ("duplicate", "compressible")]
    writes = [(pvol.volume_id, i % 256, profiles[i % 7 == 0].payload(i))
              for i in range(400)]
    for start in range(0, len(writes), 40):
        run(sim, site.main.host_write_many(writes[start:start + 40]))
    sim.run(until=sim.now + 2.0)
    group = site.main.journal_groups["jg-0"]
    assert group.entry_lag == 0 and svol.block_map() == pvol.block_map()
    assert group.reducer.ref_fallbacks.value > 0
    registry = sim.telemetry.registry
    for family in ("repro_transfer_batch_size", "repro_restore_lanes",
                   "repro_copy_skipped_blocks_total",
                   "repro_reduction_deflate_skipped_total"):
        assert family in registry.names()
    assert undocumented(registry) == []


def test_reduced_mirror_and_reduced_group_share_one_registry():
    # both owners register the shared families (reduction series,
    # repro_copy_skipped_blocks_total) under the one {group} label key
    site = build_two_site(Simulator(seed=7),
                          adc=fast_adc(reduction=REDUCED))
    sim = site.sim
    make_async_pair(site, blocks=64)
    pvol = site.main.create_volume(site.main_pool_id, 64)
    svol = site.backup.create_volume(site.backup_pool_id, 64)
    profile = PayloadProfile(kind="duplicate", size_bytes=512, seed=7)
    run(sim, site.main.host_write_many(
        [(pvol.volume_id, block, profile.payload(block))
         for block in range(64)]))
    mirror = site.main.create_sync_mirror(
        "sm", site.link, sdc_config=SdcConfig(reduction=REDUCED))
    site.main.create_sync_pair("sp", "sm", pvol.volume_id, site.backup,
                               svol.volume_id)
    sim.run(until=sim.now + 2.0)
    assert svol.block_map() == pvol.block_map()
    assert mirror.reducer.wire_counter("copy").value > 0
    group = site.main.journal_groups["jg-0"]
    assert group.reducer.saved_dedup is not mirror.reducer.saved_dedup
    assert undocumented(sim.telemetry.registry) == []
