"""Runs one workload of ``backup_e2e`` and turns it into named metrics.

A *run* is a sequence of repeats of one workload with one seed.  Every
repeat builds a fresh world (set-up, timed separately), runs the
measured phase, and verifies the outputs outside it.

* Untraced run (``trace=False``): repeats until ``seconds`` of measured
  wall time have accumulated (at least three); wall-clock metrics are
  medians over the repeats, simulated-clock metrics must be identical
  in every repeat (a free determinism check).
* Traced run (``trace=True``): one plain repeat (exact counters and the
  untraced wall), one with the product's span tracer switched off (the
  observability tax), one under the profiler hook (the layer table).

GC stays enabled in measured phases (users pay for it) and the
product's span tracer stays at its default (on), except in the one
repeat that exists to price it.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from benchmarks.e2e.probes import quantile
from benchmarks.e2e.trace import LAYERS, profile_phase
from benchmarks.e2e.workloads import WORKLOADS, Seen, World

#: write counts and durations are multiplied by this under ``--smoke``
SMOKE_FACTOR = 0.1
MIN_REPEATS = 3


@dataclass
class Repeat:
    """One fresh world taken through set-up, measured phase, checks."""

    setup_wall_s: float
    phase_wall_s: float
    #: work and sample counts (the world itself is not kept: holding it
    #: would make peak RSS grow with the number of repeats)
    sizes: Dict[str, int]
    #: simulated-clock end-to-end metrics of this repeat
    sim: Dict[str, float]
    #: exact per-layer counters of this repeat
    counters: Dict[str, float]
    attempted: int
    failed: int
    #: per-layer self time and calls (profiled repeats only)
    layers: Optional[Dict[str, Dict[str, float]]] = None


def _cumulative(world: World) -> Dict[str, float]:
    """Monotone product counters, read through public attributes."""
    group, link = world.group, world.link
    reducer = group.reducer
    tracer = world.sim.telemetry.tracer
    conflicts = group.lane_conflicts
    # a disabled reducer, like a one-lane applier, registers nothing
    reduction = {
        "storage.reduction.lookups": reducer.lookups,
        "storage.reduction.hits": reducer.hits,
        "storage.reduction.wire_bytes_saved":
            reducer.saved_dedup.value + reducer.saved_compress.value,
        "storage.reduction.ref_fallbacks": reducer.ref_fallbacks.value,
    } if reducer.enabled else dict.fromkeys((
        "storage.reduction.lookups", "storage.reduction.hits",
        "storage.reduction.wire_bytes_saved",
        "storage.reduction.ref_fallbacks"), 0)
    return {
        **reduction,
        "simulation.network.wire_bytes": link.bytes_transferred,
        "simulation.network.transfers": link.transfer_count,
        "storage.array.host_writes": world.main.host_writes.value,
        # one span per host_write / host_write_many call (tracer on)
        "storage.array.write_calls": sum(
            1 for span in tracer.spans
            if span.name in ("host-write", "host-write-batch")),
        "storage.adc.transfer_batches": group.transfer_batches.value,
        "storage.adc.transferred_entries": group.transferred_count.value,
        "storage.adc.coalesced_entries": group.coalesced_count.value,
        "storage.adc.restored_entries": group.restored_count.value,
        "storage.adc.suspensions": group.suspensions.value,
        "storage.lanes.conflicts":
            conflicts.value if conflicts is not None else 0,
        "telemetry.spans.recorded": len(tracer.spans) + tracer.dropped,
    }


def _layer_counters(world: World, seen: Seen, before: Dict[str, float],
                    strict: bool) -> Dict[str, float]:
    after = _cumulative(world)
    delta = {name: after[name] - before[name] for name in after}
    sampler, cutter = seen.sampler, seen.cutter
    batches = delta.pop("storage.adc.transfer_batches")
    shipped = delta.pop("storage.adc.transferred_entries")
    lookups = delta.pop("storage.reduction.lookups")
    hits = delta.pop("storage.reduction.hits")
    bandwidth = world.link.bandwidth
    durations = sorted(cutter.durations)
    latencies = sorted(seen.op_latencies)
    counters = {
        "simulation.network.peak_queue_depth": world.link.peak_queue_depth,
        "simulation.network.busy_share":
            delta["simulation.network.wire_bytes"] / bandwidth
            / (seen.load_sim_s + seen.recovery_sim_s) if bandwidth else 0.0,
        "storage.array.op_latency_p50_sim_ms":
            quantile(latencies, 0.50, strict) * 1e3,
        "storage.array.op_latency_p99_sim_ms":
            quantile(latencies, 0.99, strict) * 1e3,
        "storage.journal.main_backlog_mean_entries":
            statistics.fmean(sampler.main_backlog),
        "storage.journal.main_backlog_peak_entries":
            max(sampler.main_backlog),
        "storage.journal.backup_backlog_mean_entries":
            statistics.fmean(sampler.backup_backlog),
        "storage.journal.backup_backlog_peak_entries":
            max(sampler.backup_backlog),
        "storage.adc.transfer_batches": batches,
        "storage.adc.entries_per_batch_mean":
            shipped / batches if batches else 0.0,
        "storage.reduction.dedup_hit_ratio":
            hits / lookups if lookups else 0.0,
        "storage.snapshot.cuts": len(durations),
        "storage.snapshot.cow_blocks": cutter.cow_blocks,
        "storage.snapshot.cut_latency_p50_sim_ms":
            quantile(durations, 0.50, strict) * 1e3,
        "storage.snapshot.cut_latency_p90_sim_ms":
            quantile(durations, 0.90, strict) * 1e3,
        "telemetry.registry.series": sum(
            len(family) for family in
            world.sim.telemetry.registry.families.values()),
        "apps.ecommerce.orders": 0,
        "recovery.recovery_sim_s": seen.recovery_sim_s,
        "recovery.drained_entries": 0,
        "recovery.lost_acked_writes": 0,
    }
    counters.update(delta)
    counters.update(seen.counters)
    return counters


def run_repeat(workload, seed: int, tracer_on: bool = True,
               profiled: bool = False, strict: bool = True) -> Repeat:
    """Set up a fresh world, run the measured phase, verify outputs.

    ``strict=False`` (smoke sizes) reports percentiles that have fewer
    than ten samples beyond them.
    """
    started = time.perf_counter()
    world = workload.setup(seed)
    setup_wall_s = time.perf_counter() - started
    if not tracer_on:
        # the switch `repro perf` flips; the only repeat that touches it
        world.sim.telemetry.tracer.enabled = False
    before = _cumulative(world)
    layers = None
    gc.collect()
    if profiled:
        seen, phase_wall_s, layers = profile_phase(
            lambda: workload.phase(world))
    else:
        started = time.perf_counter()
        seen = workload.phase(world)
        phase_wall_s = time.perf_counter() - started
    counters = _layer_counters(world, seen, before, strict)
    lags = sorted(seen.sampler.lags)
    sim = {
        "rpo_lag_p50_sim_ms": quantile(lags, 0.50, strict) * 1e3,
        "rpo_lag_p99_sim_ms": quantile(lags, 0.99, strict) * 1e3,
        "keep_up_ratio": seen.keep_up_ratio,
        "wire_bytes_per_write":
            counters["simulation.network.wire_bytes"] / seen.acked_writes,
    }
    checked, bad = workload.verify(world, seen)
    attempted = seen.client_ops + len(seen.cutter.durations) \
        + seen.checks + checked
    failed = seen.failed_ops + seen.failed_checks + bad \
        + int(counters["storage.adc.suspensions"])
    sizes = {
        "acked_writes": seen.acked_writes,
        "visible_writes": seen.visible_writes,
        "client_ops": seen.client_ops,
        "rpo_samples": len(lags),
        "cuts": len(seen.cutter.durations),
        "kept_cuts": len(seen.cutter.kept),
    }
    return Repeat(setup_wall_s=setup_wall_s, phase_wall_s=phase_wall_s,
                  sizes=sizes, sim=sim, counters=counters,
                  attempted=attempted, failed=failed, layers=layers)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(name: str, seed: int, seconds: float, smoke: bool,
                 ) -> dict:
    """The end-to-end metrics of one workload (tracing off)."""
    workload = WORKLOADS[name]
    if smoke:
        workload = workload.scaled(SMOKE_FACTOR)
    # smoke runs are sized by count, not by time
    minimum, budget = (2, 0.0) if smoke else (MIN_REPEATS, seconds)
    repeats: List[Repeat] = []
    measured = 0.0
    while len(repeats) < minimum or measured < budget:
        repeat = run_repeat(workload, seed, strict=not smoke)
        repeats.append(repeat)
        measured += repeat.phase_wall_s
    first = repeats[0]
    attempted = sum(repeat.attempted for repeat in repeats) + 1
    failed = sum(repeat.failed for repeat in repeats)
    # same seed, fresh world: simulated time must repeat exactly
    if any(repeat.sim != first.sim for repeat in repeats[1:]):
        failed += 1
    rates = [repeat.sizes["visible_writes"] / repeat.phase_wall_s
             for repeat in repeats]
    metrics = {
        "setup_s": statistics.median(
            repeat.setup_wall_s for repeat in repeats),
        "writes_per_wall_s": statistics.median(rates),
        "peak_rss_mib": peak_rss_mib(),
    }
    metrics.update(first.sim)
    return {
        "attempted": attempted, "failed": failed, "metrics": metrics,
        "samples": {
            "repeats": len(repeats),
            "writes_per_wall_s": sorted(rates),
            "setup_s": sorted(r.setup_wall_s for r in repeats),
            "phase_wall_s": sorted(r.phase_wall_s for r in repeats),
            **first.sizes,
        },
    }


def run_traced(name: str, seed: int, smoke: bool) -> dict:
    """The per-layer metrics of one workload."""
    workload = WORKLOADS[name]
    if smoke:
        workload = workload.scaled(SMOKE_FACTOR)
    strict = not smoke
    plain = run_repeat(workload, seed, strict=strict)
    quiet = run_repeat(workload, seed, tracer_on=False, strict=strict)
    traced = run_repeat(workload, seed, profiled=True, strict=strict)
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = traced.layers[layer]["self_s"]
        metrics[f"{layer}.calls"] = traced.layers[layer]["calls"]
    metrics.update(plain.counters)
    metrics["telemetry.tracer_tax_ratio"] = \
        plain.phase_wall_s / quiet.phase_wall_s
    metrics["trace.overhead_ratio"] = \
        traced.phase_wall_s / plain.phase_wall_s
    repeats = (plain, quiet, traced)
    attempted = sum(repeat.attempted for repeat in repeats) + 1
    failed = sum(repeat.failed for repeat in repeats)
    # neither the tracer switch nor the profiler may change behaviour
    if quiet.sim != plain.sim or traced.sim != plain.sim:
        failed += 1
    folded = sum(row["self_s"] for row in traced.layers.values())
    return {
        "attempted": attempted, "failed": failed, "metrics": metrics,
        "samples": {
            "untraced_wall_s": plain.phase_wall_s,
            "tracer_off_wall_s": quiet.phase_wall_s,
            "traced_wall_s": traced.phase_wall_s,
            "folded_self_s": folded,
            "harness_share": traced.layers["harness"]["self_s"] / folded,
        },
    }
