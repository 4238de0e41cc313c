"""The deterministic fan-out contract of :mod:`repro.bench.parallel`.

Every consumer (E1/E7 cell grids, chaos campaign seeds) depends on one
property: a parallel run merges to *exactly* the serial result, because
results return in input order and every cell derives all randomness
from the seed inside its argument.  Workloads here are deliberately
tiny — the property under test is identity, not speed.
"""

import json

import pytest

from repro.bench.parallel import ParallelRunner, resolve_jobs

# top-level so the fork/spawn pool can pickle it


def _square(cell):
    return cell * cell


def _labelled(cell):
    index, label = cell
    return f"{label}-{index}"


class TestParallelRunner:
    def test_inline_path_runs_without_multiprocessing(self):
        assert ParallelRunner(1).map(_square, [3, 1, 2]) == [9, 1, 4]

    def test_results_in_input_order(self):
        cells = [(index, "cell") for index in range(8)]
        expected = [_labelled(cell) for cell in cells]
        assert ParallelRunner(4).map(_labelled, cells) == expected

    def test_parallel_matches_serial(self):
        cells = list(range(7))
        serial = ParallelRunner(1).map(_square, cells)
        parallel = ParallelRunner(3).map(_square, cells)
        assert parallel == serial

    def test_empty_and_single_cell(self):
        assert ParallelRunner(4).map(_square, []) == []
        assert ParallelRunner(4).map(_square, [5]) == [25]

    def test_resolve_jobs(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) >= 1  # 0 = one per CPU
        with pytest.raises(ValueError):
            resolve_jobs(-1)


def _facts_fingerprint(facts):
    return json.dumps(facts, sort_keys=True, default=repr)


class TestExperimentFanOut:
    def test_e1_parallel_merge_identical(self):
        from repro.bench import run_e1_slowdown
        kwargs = dict(rtt_ms_values=(1.0, 10.0), duration=0.08,
                      clients=2)
        serial_table, serial_facts = run_e1_slowdown(jobs=1, **kwargs)
        parallel_table, parallel_facts = run_e1_slowdown(jobs=2, **kwargs)
        assert parallel_table.rows == serial_table.rows
        assert _facts_fingerprint(parallel_facts) == \
            _facts_fingerprint(serial_facts)

    def test_e7_parallel_merge_identical(self):
        from repro.bench import run_e7_journal
        kwargs = dict(intervals_ms=(5.0, 20.0), seeds=(700, 701),
                      load_time=0.08)
        serial_table, serial_facts = run_e7_journal(jobs=1, **kwargs)
        parallel_table, parallel_facts = run_e7_journal(jobs=3, **kwargs)
        assert parallel_table.rows == serial_table.rows
        assert _facts_fingerprint(parallel_facts) == \
            _facts_fingerprint(serial_facts)


class TestChaosFanOut:
    def test_campaign_reports_identical_and_seed_ordered(self):
        from repro.chaos import run_campaigns
        seeds = [7, 8]
        serial = run_campaigns(seeds, preset="quick", jobs=1)
        parallel = run_campaigns(seeds, preset="quick", jobs=2)
        assert [r.seed for r in parallel] == seeds
        for a, b in zip(serial, parallel):
            assert a.digest == b.digest
            assert a.render() == b.render()

    def test_unknown_preset_rejected(self):
        from repro.chaos import run_campaigns
        with pytest.raises(ValueError):
            run_campaigns([1], preset="nope")
