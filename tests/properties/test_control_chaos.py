"""Property: NSO provisioning converges under arbitrary control-plane
fault interleavings.

Hypothesis draws random schedules of :class:`ControllerCrash` and
:class:`ApiFlake` faults and fires them *while* the namespace operator
and the replication plugin are still provisioning a freshly tagged
namespace — the worst possible moment, with claims half-bound, pairs
half-created and status half-written.  Whatever the interleaving,
once the storm ends the system must converge to exactly one ``Paired``
consistency group covering every claim, with no duplicate pairs, no
orphaned secondary volumes, no stray CRs — the reconcile-convergence
and exactly-once-pairing invariants, property-tested (PR 7 satellite).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import ApiFlake, ControllerCrash
from repro.csi import ConsistencyGroupReplication, STATE_PAIRED
from repro.operator import (TAG_CONSISTENT, TAG_KEY,
                            install_namespace_operator)
from repro.scenarios import build_system
from repro.simulation import Simulator
from tests.csi.conftest import create_pvc, fast_system_config

PVC_NAMES = ("sales-data", "stock-data")

#: one drawn fault: (kind, start, duration) — starts land inside the
#: provisioning window, durations keep the storm bounded
fault_schedules = st.lists(
    st.tuples(st.sampled_from(["controller-crash", "api-flake"]),
              st.floats(0.0, 1.5, allow_nan=False),
              st.floats(0.05, 1.0, allow_nan=False)),
    min_size=1, max_size=4)


class _Env:
    """Duck-typed subset of ChaosEnvironment the control faults use."""

    def __init__(self, sim, system):
        self.sim = sim
        self.system = system


def make_fault(kind, at, duration, flake, conflict):
    if kind == "controller-crash":
        return ControllerCrash(at, duration)
    return ApiFlake(at, duration, flake_probability=flake,
                    conflict_probability=conflict)


def drive_fault(env, fault):
    yield env.sim.timeout(fault.at)
    fault.inject(env)
    yield env.sim.timeout(fault.duration)
    fault.heal(env)


class TestProvisioningUnderControlChaos:
    @given(schedule=fault_schedules, seed=st.integers(0, 2 ** 16),
           flake=st.floats(0.05, 0.6), conflict=st.floats(0.0, 0.4))
    @settings(max_examples=25, deadline=None)
    def test_interleavings_converge_to_exactly_one_group(
            self, schedule, seed, flake, conflict):
        sim = Simulator(seed=seed)
        system = build_system(sim, fast_system_config())
        install_namespace_operator(system.main.cluster)
        system.main.cluster.create_namespace("shop")
        for name in PVC_NAMES:
            create_pvc(system.main.cluster, "shop", name)

        # tag first, then unleash the storm mid-provisioning
        system.main.console.tag_namespace("shop", TAG_KEY, TAG_CONSISTENT)
        env = _Env(sim, system)
        faults = [make_fault(kind, at, duration, flake, conflict)
                  for kind, at, duration in schedule]
        for index, fault in enumerate(faults):
            sim.spawn(drive_fault(env, fault), name=f"fault-{index}")
        storm_ends = max(fault.at + fault.duration for fault in faults)
        sim.run(until=storm_ends + 12.0)

        api = system.main.api
        # exactly one CR, owned by the operator, fully Paired
        crs = api.list(ConsistencyGroupReplication, namespace="shop")
        assert [cr.meta.name for cr in crs] == ["nso-shop"]
        cr = crs[0]
        assert cr.status.state == STATE_PAIRED, (
            cr.status.state, cr.status.message)
        assert sorted(cr.spec.pvc_names) == sorted(PVC_NAMES)

        # exactly-once pairing on the array, whatever the interleaving
        pvol_ids = {}
        svol_ids = set()
        for group_id, group in sorted(
                system.main.array.journal_groups.items()):
            for pair_id, pair in sorted(group.pairs.items()):
                pvol_ids.setdefault(pair.pvol.volume_id, []).append(
                    f"{group_id}/{pair_id}")
                svol_ids.add(pair.svol.volume_id)
        assert all(len(pairs) == 1 for pairs in pvol_ids.values()), \
            pvol_ids
        assert len(pvol_ids) == len(PVC_NAMES)
        orphaned = [
            volume.name for volume in system.backup.array.list_volumes()
            if (volume.name or "").endswith("-svol")
            and volume.volume_id not in svol_ids]
        assert orphaned == []
