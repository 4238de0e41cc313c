"""The Replication Plug-in for Containers (§III-B2).

Reconciles :class:`~repro.csi.crds.ConsistencyGroupReplication` custom
resources into storage array commands:

1. resolve every listed PVC to its bound PV and array volume handle;
2. ensure the journal group(s) exist — **one shared group** when
   ``spec.consistency_group`` is true (the paper's configuration), one
   private group per volume otherwise (the collapse-prone baseline);
3. ensure an asynchronous replication pair per volume, creating the
   secondary volume at the backup array on first need;
4. register the secondary volumes as PersistentVolumes on the *backup
   cluster* (the Fig 3 → Fig 4 transition: "PVs appear in the backup
   site after tagging"), pre-bound to same-named claims so a recovered
   namespace binds to them directly;
5. surface aggregate pair state in the CR status and keep polling it.

There is no teardown: the control plane runs in the protect direction
only, and pairs are dissolved by failback (:mod:`repro.recovery`), not
by the plugin.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import ClassVar, Dict, Generator, Optional, Type

from repro.errors import CsiError, NotFoundError
from repro.csi.crds import (STATE_CONFIGURING, STATE_COPYING, STATE_PAIRED,
                            STATE_SUSPENDED, ConsistencyGroupReplication)
from repro.csi.rpc import RpcChannel
from repro.csi.storage_plugin import resolve_bound_volume
from repro.platform.apiserver import ApiServer
from repro.platform.controller import Reconciler, ReconcileResult, Requeue
from repro.platform.objects import Condition, ObjectKey, set_condition
from repro.platform.resources import PersistentVolume, claim_ref
from repro.simulation.network import NetworkLink
from repro.storage.adc import AdcConfig
from repro.storage.array import StorageArray
from repro.storage.replication import PairState

#: label the plugin puts on backup-site PVs it registers
SECONDARY_PV_LABEL = "replication.hitachi.com/secondary-of"


@dataclass
class ReplicationPluginContext:
    """Everything the plugin needs to drive a two-site topology."""

    main_array: StorageArray
    backup_array: StorageArray
    link: NetworkLink
    main_pool_id: int
    backup_pool_id: int
    #: API server of the backup cluster (for PV registration)
    backup_api: ApiServer
    #: management transport: every array command travels through it
    #: (latency, deadlines, ambiguous-outcome injection)
    rpc: RpcChannel
    adc_config: Optional[AdcConfig] = None


class ReplicationReconciler(Reconciler):
    """Turns ConsistencyGroupReplication CRs into array configuration."""

    kind: ClassVar[Type[ConsistencyGroupReplication]] = \
        ConsistencyGroupReplication

    def __init__(self, context: ReplicationPluginContext) -> None:
        self.context = context

    # -- helpers -------------------------------------------------------------

    def _call(self, api: ApiServer, step: str, fn, probe=None,
              ) -> Generator[object, object, object]:
        """Run one array command over the management transport, with
        its deadline/ambiguous-outcome semantics (and probing
        recovery)."""
        result = yield from self.context.rpc.call(step, fn, probe=probe)
        self._count(api, step)
        return result

    @staticmethod
    def _count(api: ApiServer, step: str) -> None:
        """Count one array-facing ensure step in the registry."""
        api.sim.telemetry.registry.counter(
            "repro_csi_replication_steps_total",
            help="Array-facing steps taken by the replication plugin",
            step=step,
        ).increment()

    @staticmethod
    def _group_ids(cr: ConsistencyGroupReplication) -> Dict[str, str]:
        """pvc name -> journal group id for this CR's configuration."""
        base = f"jg-{cr.meta.namespace}-{cr.meta.name}"
        if cr.spec.consistency_group:
            return {pvc: base for pvc in cr.spec.pvc_names}
        return {pvc: f"{base}-{pvc}" for pvc in cr.spec.pvc_names}

    @staticmethod
    def _pair_id(cr: ConsistencyGroupReplication, pvc_name: str) -> str:
        return f"{cr.meta.namespace}/{cr.meta.name}/{pvc_name}"

    def _backup_pv_name(self, cr: ConsistencyGroupReplication,
                        pvc_name: str) -> str:
        return f"pv-{cr.meta.namespace}-{pvc_name}-replica"

    # -- reconcile ----------------------------------------------------------

    def reconcile(self, api: ApiServer, key: ObjectKey,
                  ) -> Generator[object, object, ReconcileResult]:
        cr = api.try_get(ConsistencyGroupReplication, key.name,
                         key.namespace)
        if cr is None:
            return None

        # 1. resolve PVCs -> PVs
        volumes: Dict[str, PersistentVolume] = {}
        for pvc_name in cr.spec.pvc_names:
            try:
                volumes[pvc_name] = resolve_bound_volume(
                    api, cr.meta.namespace, pvc_name)
            except (CsiError, NotFoundError) as exc:
                if (cr.status.state, cr.status.message) != \
                        (STATE_CONFIGURING, str(exc)):
                    cr.status.state = STATE_CONFIGURING
                    cr.status.message = str(exc)
                    api.update(cr)
                return Requeue(after=0.050)

        # 2. ensure journal groups
        group_ids = self._group_ids(cr)
        for group_id in sorted(set(group_ids.values())):
            yield from self._ensure_journal_group(api, group_id)

        # 3. ensure pairs (and secondary volumes)
        for pvc_name in cr.spec.pvc_names:
            cr = yield from self._ensure_pair(
                api, cr, pvc_name, group_ids[pvc_name], volumes[pvc_name])

        # 4. register backup PVs
        for pvc_name in cr.spec.pvc_names:
            self._ensure_backup_pv(cr, pvc_name, volumes[pvc_name])

        # 5. status aggregation
        cr = api.get(ConsistencyGroupReplication, key.name, key.namespace)
        previous_status = copy.deepcopy(cr.status)
        pair_states = {}
        for pvc_name in cr.spec.pvc_names:
            pair = self.context.main_array.find_pair(
                self._pair_id(cr, pvc_name))
            pair_states[pvc_name] = pair.state.value if pair else "SMPL"
        cr.status.pair_states = pair_states
        cr.status.journal_groups = sorted(set(group_ids.values()))
        states = set(pair_states.values())
        if states <= {PairState.PAIR.value}:
            cr.status.state = STATE_PAIRED
            cr.status.message = ""
        elif states & {PairState.PSUS.value, PairState.PSUE.value}:
            cr.status.state = STATE_SUSPENDED
        else:
            cr.status.state = STATE_COPYING
        set_condition(cr.status.conditions, Condition(
            type="Ready", status=cr.status.state == STATE_PAIRED,
            reason=cr.status.state, last_transition=api.sim.now))
        if cr.status != previous_status:
            api.update(cr)
            if cr.status.state != previous_status.state:
                from repro.platform.events import record_event
                record_event(api, cr.meta.namespace, cr.key,
                             reason=cr.status.state,
                             message=f"pairs: {cr.status.pair_states}",
                             source="replication-plugin")
        if cr.status.state == STATE_PAIRED:
            return Requeue(after=0.500)  # keep pair health fresh
        return Requeue(after=0.020)

    # -- ensure steps ----------------------------------------------------

    def _ensure_journal_group(self, api: ApiServer, group_id: str,
                              ) -> Generator[object, object, None]:
        if group_id in self.context.main_array.journal_groups:
            return

        def command():
            main_journal = self.context.main_array.create_journal(
                self.context.main_pool_id)
            backup_journal = self.context.backup_array.create_journal(
                self.context.backup_pool_id)
            return self.context.main_array.create_journal_group(
                group_id, main_journal.journal_id,
                self.context.backup_array, backup_journal.journal_id,
                self.context.link, adc_config=self.context.adc_config)

        yield from self._call(
            api, "create_journal_group", command,
            probe=lambda: self.context.main_array.journal_groups.get(
                group_id))

    def _ensure_pair(self, api: ApiServer,
                     cr: ConsistencyGroupReplication, pvc_name: str,
                     group_id: str, pv: PersistentVolume,
                     ) -> Generator[object, object,
                                    ConsistencyGroupReplication]:
        pair_id = self._pair_id(cr, pvc_name)
        if self.context.main_array.find_pair(pair_id) is not None:
            return cr
        pvol_id = self.context.main_array.parse_handle(
            pv.spec.csi.volume_handle)
        secondary_handle = cr.status.secondary_handles.get(pvc_name)
        if secondary_handle is None:
            svol_name = f"{pair_id}-svol"
            # a previous attempt may have created the volume and then
            # died before persisting the handle to the CR; re-discover
            # by deterministic name instead of leaking an orphan
            svol = self.context.backup_array.find_volume_by_name(svol_name)
            if svol is None:
                svol = yield from self._call(
                    api, "create_secondary_volume",
                    lambda: self.context.backup_array.create_volume(
                        self.context.backup_pool_id,
                        pv.spec.capacity_blocks, name=svol_name),
                    probe=lambda:
                    self.context.backup_array.find_volume_by_name(
                        svol_name))
            secondary_handle = self.context.backup_array.volume_handle(
                svol.volume_id)
            cr.status.secondary_handles[pvc_name] = secondary_handle
            cr = api.update(cr)  # persist before pairing (idempotency)
        svol_id = self.context.backup_array.parse_handle(secondary_handle)
        yield from self._call(
            api, "create_async_pair",
            lambda: self.context.main_array.create_async_pair(
                pair_id, group_id, pvol_id, self.context.backup_array,
                svol_id),
            probe=lambda: self.context.main_array.find_pair(pair_id))
        return cr

    def _ensure_backup_pv(self, cr: ConsistencyGroupReplication,
                          pvc_name: str, pv: PersistentVolume) -> None:
        backup_api = self.context.backup_api
        name = self._backup_pv_name(cr, pvc_name)
        if backup_api.try_get(PersistentVolume, name) is not None:
            return
        secondary_handle = cr.status.secondary_handles.get(pvc_name)
        if secondary_handle is None:
            return
        backup_pv = PersistentVolume()
        backup_pv.meta.name = name
        backup_pv.meta.labels = {
            SECONDARY_PV_LABEL: f"{cr.meta.namespace}.{cr.meta.name}",
            "replication.hitachi.com/pvc": pvc_name,
        }
        backup_pv.spec.capacity_blocks = pv.spec.capacity_blocks
        backup_pv.spec.storage_class = pv.spec.storage_class
        backup_pv.spec.csi.driver = pv.spec.csi.driver
        backup_pv.spec.csi.volume_handle = secondary_handle
        backup_pv.spec.csi.array_serial = self.context.backup_array.serial
        backup_pv.spec.claim_ref = claim_ref(cr.meta.namespace, pvc_name)
        backup_api.create(backup_pv)
        self._count(backup_api, "register_backup_pv")


def install_replication_plugin(cluster, context: ReplicationPluginContext,
                               ) -> None:
    """Install the Replication Plug-in for Containers on a (main) cluster."""
    cluster.install(ReplicationReconciler(context),
                    name=f"{cluster.name}.replication-plugin")
