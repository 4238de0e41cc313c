"""Experiment setups: one protected business process per backup mode.

The benchmarks compare four configurations of the same business process:

* ``none``    — no backup at all (the latency floor);
* ``sdc``     — synchronous data copy (the §V baseline that slows the
  business down);
* ``adc-cg``  — asynchronous data copy inside one consistency group
  (the paper's system);
* ``adc-nocg`` — asynchronous data copy with independent per-volume
  journals (the §I collapse-prone configuration).

ADC modes are configured exactly as the paper does — by tagging the
namespace and letting the namespace operator do the work.  SDC has no
operator path (the paper's plugin only automates ADC), so
:func:`configure_sdc_protection` performs the manual array
configuration an administrator would, including registering the
secondary PVs at the backup site so failover discovery works the same
way in every mode.  :func:`build_array_pair` is the array-level world
(no platform stack) the exact perf rows and the ablations share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.csi.replication_plugin import SECONDARY_PV_LABEL
from repro.errors import ReproError
from repro.operator import (TAG_CONSISTENT, TAG_INDEPENDENT, TAG_KEY,
                            install_namespace_operator)
from repro.platform.resources import PersistentVolume
from repro.scenarios.builders import (SystemConfig, TwoSiteSystem,
                                      build_system)
from repro.scenarios.business import (BusinessConfig, BusinessProcess,
                                      deploy_business_process)
from repro.simulation.kernel import Simulator
from repro.simulation.network import NetworkLink
from repro.storage.adc import AdcConfig, JournalGroup
from repro.storage.array import ArrayConfig, StorageArray
from repro.storage.replication import PairState
from repro.storage.volume import Volume

MODE_NONE = "none"
MODE_SDC = "sdc"
MODE_ADC_CG = "adc-cg"
MODE_ADC_NOCG = "adc-nocg"

ALL_MODES = (MODE_NONE, MODE_SDC, MODE_ADC_CG, MODE_ADC_NOCG)


@dataclass
class ExperimentSystem:
    """One ready-to-measure system: topology + protected business."""

    sim: Simulator
    system: TwoSiteSystem
    business: BusinessProcess
    mode: str


def experiment_config(link_latency: float = 0.0025,
                      adc_overrides: Optional[dict] = None,
                      command_latency: float = 0.010) -> SystemConfig:
    """System config used by the experiments (tight, low-jitter ADC
    unless overridden)."""
    adc_params = dict(transfer_interval=0.002, transfer_batch=2048,
                      restore_interval=0.001, restore_batch=2048,
                      interval_jitter=0.25)
    adc_params.update(adc_overrides or {})
    return SystemConfig(link_latency=link_latency,
                        array=ArrayConfig(adc=AdcConfig(**adc_params)),
                        command_latency=command_latency)


def build_business_system(seed: int, mode: str,
                          link_latency: float = 0.0025,
                          adc_overrides: Optional[dict] = None,
                          wal_blocks: int = 40_000,
                          settle: float = 4.0) -> ExperimentSystem:
    """Build the two-site system and a business protected per ``mode``."""
    if mode not in ALL_MODES:
        raise ReproError(f"unknown experiment mode {mode!r}")
    sim = Simulator(seed=seed)
    system = build_system(sim, experiment_config(
        link_latency=link_latency, adc_overrides=adc_overrides))
    if mode in (MODE_ADC_CG, MODE_ADC_NOCG):
        install_namespace_operator(system.main.cluster)
    business = deploy_business_process(
        system, BusinessConfig(wal_blocks=wal_blocks))
    if mode in (MODE_ADC_CG, MODE_ADC_NOCG):
        tag = TAG_CONSISTENT if mode == MODE_ADC_CG else TAG_INDEPENDENT
        system.main.console.tag_namespace(business.namespace, TAG_KEY,
                                          tag)
        sim.run(until=sim.now + settle)
        _require_paired(system, business, mode)
    elif mode == MODE_SDC:
        configure_sdc_protection(system, business)
        sim.run(until=sim.now + settle)
        _require_sdc_paired(system)
    return ExperimentSystem(sim=sim, system=system, business=business,
                            mode=mode)


def _require_paired(system: TwoSiteSystem, business: BusinessProcess,
                    mode: str) -> None:
    from repro.csi.crds import ConsistencyGroupReplication, STATE_PAIRED
    cr = system.main.api.try_get(
        ConsistencyGroupReplication, f"nso-{business.namespace}",
        business.namespace)
    if cr is None or cr.status.state != STATE_PAIRED:
        state = cr.status.state if cr else "absent"
        raise ReproError(
            f"{mode}: replication never reached Paired (state={state}); "
            "increase the settle time")


SDC_MIRROR_ID = "sdc-business"


def configure_sdc_protection(system: TwoSiteSystem,
                             business: BusinessProcess) -> None:
    """Manually configure synchronous mirroring of the business volumes.

    Performs the per-volume array commands an administrator would and
    registers labelled secondary PVs at the backup cluster, so the same
    :class:`~repro.recovery.failover.FailoverManager` path works for the
    SDC baseline.
    """
    main = system.main
    backup = system.backup
    main.array.create_sync_mirror(SDC_MIRROR_ID, system.replication_link)
    for pvc_name, pvol_id in sorted(business.volume_ids.items()):
        pvol = main.array.get_volume(pvol_id)
        svol = backup.array.create_volume(
            backup.pool_id, pvol.capacity_blocks,
            name=f"sdc-{pvc_name}-svol")
        main.array.create_sync_pair(
            f"sdc/{pvc_name}", SDC_MIRROR_ID, pvol_id, backup.array,
            svol.volume_id)
        pv = PersistentVolume()
        pv.meta.name = f"pv-{business.namespace}-{pvc_name}-replica"
        pv.meta.labels = {
            SECONDARY_PV_LABEL: f"{business.namespace}.sdc",
            "replication.hitachi.com/pvc": pvc_name,
        }
        pv.spec.capacity_blocks = pvol.capacity_blocks
        pv.spec.storage_class = "sdc-manual"
        pv.spec.csi.driver = backup.driver.driver_name
        pv.spec.csi.volume_handle = backup.array.volume_handle(
            svol.volume_id)
        pv.spec.csi.array_serial = backup.array.serial
        backup.api.create(pv)


def _require_sdc_paired(system: TwoSiteSystem) -> None:
    mirror = system.main.array.sync_mirrors[SDC_MIRROR_ID]
    not_paired = [pair_id for pair_id, pair in mirror.pairs.items()
                  if pair.state is not PairState.PAIR]
    if not_paired:
        raise ReproError(
            f"sdc: pairs never reached PAIR: {not_paired}")


def business_journal_groups(experiment: ExperimentSystem):
    """The journal groups protecting the business (ADC modes)."""
    return [group for group_id, group in
            sorted(experiment.system.main.array.journal_groups.items())
            if group_id.startswith("jg-")]


@dataclass
class ArrayPair:
    """Two bare arrays joined by a link (no platform stack)."""

    sim: Simulator
    main: StorageArray
    backup: StorageArray
    link: NetworkLink
    main_pool_id: int
    backup_pool_id: int
    #: the journal groups, creation order (one unless ``independent``)
    groups: List[JournalGroup]
    pvols: List[Volume]
    svols: List[Volume]

    @property
    def group(self) -> JournalGroup:
        """The shared journal group of the async pairs."""
        return self.groups[0]


def build_array_pair(seed: int, adc: AdcConfig, name: str,
                     volumes: int = 1,
                     journal_entries: Optional[int] = None,
                     link_latency: float = 0.001,
                     bandwidth: Optional[float] = None,
                     independent: bool = False) -> ArrayPair:
    """The array-level world of the exact perf rows and ablations: main
    and backup arrays, one pool each, a link, and ``volumes`` 4096-block
    async pairs ``{name}-{index}`` — all in the one journal group
    ``name`` (its loops already running), or with ``independent`` each
    in a journal group ``{name}-{index}`` of its own."""
    sim = Simulator(seed=seed)
    config = ArrayConfig(adc=adc)
    main = StorageArray(sim, serial=f"{name}-main", config=config)
    backup = StorageArray(sim, serial=f"{name}-bkup", config=config)
    main_pool = main.create_pool(10_000_000)
    backup_pool = backup.create_pool(10_000_000)
    link = NetworkLink(sim, latency=link_latency,
                       bandwidth_bytes_per_s=bandwidth, name=f"{name}-link")

    def journal_group(group_id: str) -> JournalGroup:
        main_journal = main.create_journal(main_pool.pool_id,
                                           journal_entries)
        backup_journal = backup.create_journal(backup_pool.pool_id,
                                               journal_entries)
        return main.create_journal_group(
            group_id, main_journal.journal_id, backup,
            backup_journal.journal_id, link)

    groups = [] if independent else [journal_group(name)]
    pvols, svols = [], []
    for index in range(volumes):
        if independent:
            groups.append(journal_group(f"{name}-{index}"))
        pvol = main.create_volume(main_pool.pool_id, 4096)
        svol = backup.create_volume(backup_pool.pool_id, 4096)
        main.create_async_pair(f"{name}-{index}", groups[-1].group_id,
                               pvol.volume_id, backup, svol.volume_id)
        pvols.append(pvol)
        svols.append(svol)
    return ArrayPair(sim, main, backup, link, main_pool.pool_id,
                     backup_pool.pool_id, groups, pvols, svols)
