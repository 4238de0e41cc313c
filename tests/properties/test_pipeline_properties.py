"""Property-based tests of the live ADC pipeline.

These run the real storage pipeline (journals, transfer, restore) on
randomized write workloads and disaster instants, asserting the
invariants the rest of the system is built on — complementing
``test_storage_properties.py``, which tests the checker's mathematics in
isolation.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.recovery.checker import (check_storage_cut,
                                    image_versions_from_volumes)
from repro.simulation import NetworkLink, Simulator
from repro.storage import AdcConfig, ArrayConfig, StorageArray

write_plan = st.lists(
    st.tuples(st.integers(0, 2),     # volume index
              st.integers(0, 7),     # block
              st.floats(min_value=0.0002, max_value=0.004,
                        allow_nan=False)),  # inter-write delay
    min_size=5, max_size=50)


def build_pipeline(seed, consistency_group, apply_lanes=1):
    sim = Simulator(seed=seed)
    adc = AdcConfig(transfer_interval=0.003, transfer_batch=64,
                    restore_interval=0.001, restore_batch=64,
                    interval_jitter=0.5, apply_lanes=apply_lanes)
    config = ArrayConfig(adc=adc)
    main = StorageArray(sim, serial="M", config=config)
    backup = StorageArray(sim, serial="B", config=config)
    main_pool = main.create_pool(100_000)
    backup_pool = backup.create_pool(100_000)
    link = NetworkLink(sim, latency=0.002, jitter_fraction=0.3,
                       name="plink")
    pairs = {}
    for index in range(3):
        pvol = main.create_volume(main_pool.pool_id, 64)
        svol = backup.create_volume(backup_pool.pool_id, 64)
        group_id = "cg" if consistency_group else f"jg-{index}"
        if group_id not in main.journal_groups:
            mj = main.create_journal(main_pool.pool_id, 10_000)
            bj = backup.create_journal(backup_pool.pool_id, 10_000)
            main.create_journal_group(group_id, mj.journal_id, backup,
                                      bj.journal_id, link)
        main.create_async_pair(f"p{index}", group_id, pvol.volume_id,
                               backup, svol.volume_id)
        pairs[pvol.volume_id] = svol
    return sim, main, backup, pairs


class TestLivePipelineProperties:
    @given(plan=write_plan, disaster_frac=st.floats(0.1, 1.0),
           lanes=st.sampled_from([1, 4]))
    @settings(max_examples=30, deadline=None)
    def test_cg_cut_is_always_consistent(self, plan, disaster_frac,
                                         lanes):
        """With one consistency group, the backup image at ANY disaster
        instant is a consistent cut — regardless of workload shape,
        jitter, or restore window size."""
        sim, main, backup, pairs = build_pipeline(
            seed=11, consistency_group=True, apply_lanes=lanes)
        volumes = sorted(pairs)

        def writer(sim):
            for volume_index, block, delay in plan:
                yield from main.host_write(volumes[volume_index], block,
                                           b"x")
                yield sim.timeout(delay)

        proc = sim.spawn(writer(sim))
        total_time = sum(delay for _v, _b, delay in plan) + 0.05
        sim.run(until=sim.now + total_time * disaster_frac)
        # disaster: freeze everything, drain what reached the backup
        main.fail()
        for group in set(main.journal_groups.values()):
            group.stop()
        # wait out in-flight applies, then drain
        drain_done = []

        def drainer(sim):
            for group in set(main.journal_groups.values()):
                yield from group.drain()
            drain_done.append(True)

        sim.spawn(drainer(sim))
        sim.run(until=sim.now + 1.0)
        assert drain_done
        image = image_versions_from_volumes(pairs)
        report = check_storage_cut(main.history, image)
        assert report.consistent, str(report)

    @given(plan=write_plan)
    @settings(max_examples=20, deadline=None)
    def test_pipeline_converges_completely(self, plan):
        """Left alone, the pipeline delivers every write exactly."""
        sim, main, backup, pairs = build_pipeline(
            seed=12, consistency_group=True)
        volumes = sorted(pairs)

        def writer(sim):
            for volume_index, block, delay in plan:
                yield from main.host_write(volumes[volume_index], block,
                                           b"y")
                yield sim.timeout(delay)

        sim.run_until_complete(sim.spawn(writer(sim)))
        sim.run(until=sim.now + 2.0)
        for pvol_id, svol in pairs.items():
            assert svol.block_map() == \
                main.get_volume(pvol_id).block_map()
        image = image_versions_from_volumes(pairs)
        report = check_storage_cut(main.history, image)
        assert report.consistent
        assert report.missing_count == 0
