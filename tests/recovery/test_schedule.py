"""Tests for the scheduled snapshot rotation at the backup site."""

import pytest

from repro.apps import BackgroundLoad
from repro.errors import SnapshotError
from repro.recovery import FailoverManager, SnapshotScheduler
from repro.recovery.checker import check_storage_cut
from repro.operator import TAG_CONSISTENT, TAG_KEY, \
    install_namespace_operator
from repro.scenarios import BusinessConfig, build_system, \
    deploy_business_process
from repro.simulation import Simulator
from tests.csi.conftest import fast_system_config


@pytest.fixture()
def replicating_business():
    sim = Simulator(seed=150)
    system = build_system(sim, fast_system_config())
    install_namespace_operator(system.main.cluster)
    business = deploy_business_process(
        system, BusinessConfig(wal_blocks=30_000))
    system.main.console.tag_namespace(business.namespace, TAG_KEY,
                                      TAG_CONSISTENT)
    sim.run(until=sim.now + 4.0)
    secondary = FailoverManager(
        system, business.namespace).discover_secondary_volumes()
    return sim, system, business, secondary


class TestSnapshotScheduler:
    def test_rotation_cuts_and_prunes(self, replicating_business):
        sim, system, business, secondary = replicating_business
        scheduler = SnapshotScheduler(
            system.backup.array, sorted(secondary.values()),
            interval=0.1, retain=3, name="rot")
        load = BackgroundLoad(sim, business.app, client_count=3)
        scheduler.start()
        sim.run(until=sim.now + 0.65)
        scheduler.stop()
        load.drain()
        assert len(scheduler.generations) == 3
        assert scheduler.pruned_count >= 2
        indexes = [g.index for g in scheduler.generations]
        assert indexes == sorted(indexes)
        # pruned groups are gone from the array
        with pytest.raises(SnapshotError):
            system.backup.array.get_snapshot_group("rot-gen-1")

    def test_every_generation_is_a_consistent_cut(self,
                                                  replicating_business):
        sim, system, business, secondary = replicating_business
        scheduler = SnapshotScheduler(
            system.backup.array, sorted(secondary.values()),
            interval=0.08, retain=5, name="consistent")
        load = BackgroundLoad(sim, business.app, client_count=5)
        scheduler.start()
        sim.run(until=sim.now + 0.5)
        scheduler.stop()
        load.drain()
        assert len(scheduler.generations) >= 3
        pvol_by_svol = {secondary[pvc]: business.volume_ids[pvc]
                        for pvc in secondary}
        for generation in scheduler.generations:
            frozen = generation.group.frozen_versions()
            image = {pvol_by_svol[svol_id]: versions
                     for svol_id, versions in frozen.items()}
            report = check_storage_cut(system.main.array.history, image)
            assert report.consistent, (
                f"generation {generation.index} is not a consistent cut")

    def test_latest_is_the_newest_generation(self, replicating_business):
        sim, system, business, secondary = replicating_business
        scheduler = SnapshotScheduler(
            system.backup.array, sorted(secondary.values()),
            interval=0.1, retain=10, name="pit")
        scheduler.start()
        sim.run(until=sim.now + 0.45)
        scheduler.stop()
        generations = scheduler.generations
        assert len(generations) >= 3
        assert scheduler.latest().index == generations[-1].index

    def test_manual_generation_between_ticks(self, replicating_business):
        sim, system, business, secondary = replicating_business
        scheduler = SnapshotScheduler(
            system.backup.array, sorted(secondary.values()),
            interval=100.0, retain=2, name="manual")
        generation = sim.run_until_complete(
            sim.spawn(scheduler.take_generation()))
        assert generation.index == 1
        assert scheduler.latest() is scheduler.generations[-1]

    def test_validation(self, replicating_business):
        sim, system, business, secondary = replicating_business
        array = system.backup.array
        volumes = sorted(secondary.values())
        with pytest.raises(SnapshotError):
            SnapshotScheduler(array, volumes, interval=0, retain=1)
        with pytest.raises(SnapshotError):
            SnapshotScheduler(array, volumes, interval=1, retain=0)
        with pytest.raises(SnapshotError):
            SnapshotScheduler(array, [], interval=1, retain=1)
        with pytest.raises(SnapshotError):
            SnapshotScheduler(array, volumes, interval=1,
                              retain=1).latest()
