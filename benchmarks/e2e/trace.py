"""The traced run: host time per layer, from the benchmark's own files.

The replication stages run as kernel-scheduled generator processes, so
the harness cannot wrap "the call into a layer" — the only call it
makes during a measured phase is ``Simulator.run``.  Instead the traced
repeat runs the phase under the interpreter's profiler hook
(``cProfile``) and folds every function's self time and call count into
the layer that owns its source module:

* functions under ``src/repro`` belong to their module's layer
  (:data:`LAYER_OF_MODULE`; package roll-ups for the control plane);
* the named leaf kernels (CRC32, zlib, the event heap) keep rows of
  their own — they are the work the Python around them exists to feed;
* every other stdlib or builtin callee (``dict.get``,
  ``dataclasses.replace``, ...) is charged to the layer that called it,
  through the profile's caller edges;
* the benchmark's own processes are ``harness``; product modules that
  are not named land in ``other``, so a refactor's new files stay
  visible instead of vanishing from the table.  ``other`` also takes
  the residue — traced wall time the profile attributes to no function
  (the hook's own bookkeeping between events, a few percent on the
  call-heavy workloads) — so the rows sum to the traced wall.

The profiler taxes every Python call but no native work, so shares
shift towards call-heavy layers; use the table to find where time goes
and the untraced end-to-end metrics to decide whether a change paid.
"""

from __future__ import annotations

import cProfile
import os
import time
from typing import Callable, Dict, Tuple

#: module path under src/repro (longest prefix wins) -> layer
LAYER_OF_MODULE = {
    "simulation/kernel": "simulation.kernel",
    "simulation/process": "simulation.process",
    "simulation/events": "simulation.events",
    "simulation/resources": "simulation.resources",
    "simulation/network": "simulation.network",
    "storage/array": "storage.array",
    "storage/volume": "storage.volume",
    "storage/journal": "storage.journal",
    "storage/adc": "storage.adc",
    "storage/reduction": "storage.reduction",
    "storage/lanes": "storage.lanes",
    "storage/snapshot": "storage.snapshot",
    "storage/history": "storage.history",
    "telemetry/metrics": "telemetry.metrics",
    "telemetry/spans": "telemetry.spans",
    "telemetry/registry": "telemetry.registry",
    "telemetry/recorder": "telemetry.recorder",
    "apps/minidb": "apps.minidb",
    "apps/ecommerce": "apps.ecommerce",
    # the product's own order generator is load generation, not a layer
    "apps/workload": "harness",
    "platform": "platform",
    "csi": "csi",
    "operator": "operator",
    "recovery": "recovery",
}

#: builtins that are rows of their own
LEAF_KERNELS = {
    "<built-in method zlib.crc32>": "zlib.crc32",
    "<built-in method zlib.compress>": "zlib.compress",
    "<built-in method zlib.decompress>": "zlib.decompress",
    "<built-in method _heapq.heappush>": "heapq",
    "<built-in method _heapq.heappop>": "heapq",
}

LAYERS = tuple(layer for layer in dict.fromkeys(LAYER_OF_MODULE.values())
               if layer != "harness") \
    + tuple(dict.fromkeys(LEAF_KERNELS.values())) + ("harness", "other")

_HERE = os.path.dirname(os.path.abspath(__file__))
_REPRO = os.sep + os.path.join("src", "repro") + os.sep


def _own_layer(function: Tuple[str, int, str]) -> str | None:
    """The layer a profiled function belongs to by itself, or None for
    a stdlib/builtin callee that is charged to its caller."""
    filename, _line, name = function
    if filename == "~":
        return LEAF_KERNELS.get(name)
    if filename.startswith(_HERE):
        return "harness"
    at = filename.find(_REPRO)
    if at < 0:
        return None
    module = filename[at + len(_REPRO):].removesuffix(".py")
    module = module.replace(os.sep, "/")
    while module:
        layer = LAYER_OF_MODULE.get(module)
        if layer is not None:
            return layer
        module = module.rpartition("/")[0]
    return "other"


def profile_phase(phase: Callable[[], object],
                  ) -> Tuple[object, float, Dict[str, Dict[str, float]]]:
    """Run ``phase`` under the profiler.

    Returns its result, the traced wall seconds, and per layer the
    ``self_s`` and ``calls`` the profile attributes to it.
    """
    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    try:
        result = phase()
    finally:
        profiler.disable()
    wall = time.perf_counter() - started
    profiler.create_stats()
    layers = fold(profiler.stats)
    attributed = sum(row["self_s"] for row in layers.values())
    layers["other"]["self_s"] += max(0.0, wall - attributed)
    return result, wall, layers


def fold(stats: dict) -> Dict[str, Dict[str, float]]:
    """Fold raw ``cProfile`` stats into per-layer self time and calls."""
    layers = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    resolved: Dict[tuple, str] = {}

    def layer_of(function, seen=()) -> str:
        """A callee without a layer of its own inherits the layer of the
        caller it spent the most cumulative time under."""
        known = resolved.get(function)
        if known is not None:
            return known
        layer = _own_layer(function)
        if layer is None:
            callers = stats[function][4] if function in stats else {}
            ranked = sorted(
                (caller for caller in callers if caller not in seen),
                key=lambda caller: callers[caller][3], reverse=True)
            layer = layer_of(ranked[0], seen + (function,)) \
                if ranked else "harness"
        resolved[function] = layer
        return layer

    for function, (_cc, calls, self_s, _ct, callers) in stats.items():
        own = _own_layer(function)
        if own is not None or not callers:
            row = layers[own or "harness"]
            row["self_s"] += self_s
            row["calls"] += calls
            continue
        # charge each caller edge's share of this callee to the caller
        for caller, (edge_calls, _ecc, edge_self, _ect) in callers.items():
            row = layers[layer_of(caller, (function,))]
            row["self_s"] += edge_self
            row["calls"] += edge_calls
    return layers
