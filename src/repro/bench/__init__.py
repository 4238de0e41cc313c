"""Experiment harness shared by ``benchmarks/`` and EXPERIMENTS.md.

One runner per experiment (see DESIGN.md §4): ``run_e1_slowdown`` …
``run_e8_cg_scale`` and ``run_d0_demo``, plus the :class:`Table`
renderer, the per-mode system setups and ``run_perf`` (one
``repro perf`` run as a ``BENCH_PERF.json`` trajectory row).
"""

from repro.bench.experiments import (run_d0_demo, run_e1_slowdown,
                                     run_e2_collapse, run_e3_operator,
                                     run_e4_snapshot, run_e5_analytics,
                                     run_e6_downtime, run_e7_journal,
                                     run_e8_cg_scale)
from repro.bench.parallel import ParallelRunner, resolve_jobs
from repro.bench.perf import run_perf
from repro.bench.setups import (ALL_MODES, MODE_ADC_CG, MODE_ADC_NOCG,
                                MODE_NONE, MODE_SDC, ExperimentSystem,
                                build_business_system,
                                configure_sdc_protection,
                                experiment_config)
from repro.bench.tables import Table

__all__ = [
    "ALL_MODES",
    "ExperimentSystem",
    "MODE_ADC_CG",
    "MODE_ADC_NOCG",
    "MODE_NONE",
    "MODE_SDC",
    "ParallelRunner",
    "Table",
    "build_business_system",
    "configure_sdc_protection",
    "experiment_config",
    "resolve_jobs",
    "run_d0_demo",
    "run_e1_slowdown",
    "run_e2_collapse",
    "run_e3_operator",
    "run_e4_snapshot",
    "run_e5_analytics",
    "run_e6_downtime",
    "run_e7_journal",
    "run_e8_cg_scale",
    "run_perf",
]
