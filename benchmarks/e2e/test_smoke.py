"""Smoke test of the ``backup_e2e`` benchmark (tenth-size workloads).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e`` — it is not
part of the tier-1 ``testpaths``.  Checks the declaration against the
benchmark contract, that every declared metric is reported on every
workload, that simulated-clock metrics are a pure function of the seed,
that every output check passes, and that the layer table adds up.
"""

import json
import math
import re

import pytest

from benchmarks.e2e.run import ROOT, declared, run

SPEC = declared()
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
SIMULATED = ("keep_up_ratio", "rpo_lag_p50_sim_ms", "rpo_lag_p99_sim_ms",
             "wire_bytes_per_write")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def results():
    """Smoke runs, made once: per workload two untraced runs with seed
    1, one with seed 2, and one traced run."""
    out = {}
    for workload in WORKLOADS:
        out[workload] = {
            "first": run(workload, 1, 0.0, trace=False, smoke=True),
            "again": run(workload, 1, 0.0, trace=False, smoke=True),
            "other": run(workload, 2, 0.0, trace=False, smoke=True),
            "traced": run(workload, 1, 0.0, trace=True, smoke=True),
        }
    return out


def test_declaration_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert len(SPEC["command"]) <= 32
    for word in SPEC["command"]:
        assert len(word) <= 200 and not word.startswith("/")
        assert ".." not in word.split("/")
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = []
    for entry in SPEC["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
        names.append(entry["name"])
    for entry in SPEC["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
        names.append(entry["name"])
    for entry in SPEC["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
        names.append(entry["name"])
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names)), "a name is used twice"
    setup = [entry for entry in SPEC["end_to_end"]
             if entry["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    assert setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(entry["bound"]
                                    for entry in SPEC["end_to_end"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_reported(results, workload):
    for key, section in (("first", "end_to_end"), ("traced", "per_layer")):
        metrics = results[workload][key]["metrics"]
        assert list(metrics) == [entry["name"]
                                 for entry in SPEC[section]]
        for entry in SPEC[section]:
            reported = metrics[entry["name"]]
            assert reported["unit"] == entry["unit"]
            assert math.isfinite(reported["value"])
    for name, reported in results[workload]["first"]["metrics"].items():
        assert reported["value"] > 0, f"{name} must never be 0"
    # the result line itself must survive a JSON round trip
    json.loads(json.dumps(results[workload]["first"]["metrics"]))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_simulated_metrics_are_a_function_of_the_seed(results, workload):
    first, again, other = (results[workload][key]["metrics"]
                           for key in ("first", "again", "other"))
    for name in SIMULATED:
        assert first[name]["value"] == again[name]["value"], name
    assert any(first[name]["value"] != other[name]["value"]
               for name in SIMULATED), "a new seed changed nothing"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_outputs_are_verified(results, workload):
    for key, result in results[workload].items():
        assert result["attempted"] >= 1
        assert result["failed"] == 0, (workload, key)
        assert result["correct"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_table_adds_up(results, workload):
    traced = results[workload]["traced"]
    samples = traced["samples"]
    assert samples["harness_share"] < 0.05
    assert samples["folded_self_s"] == pytest.approx(
        samples["traced_wall_s"], rel=0.02)
    metrics = traced["metrics"]
    assert metrics["telemetry.tracer_tax_ratio"]["value"] > 0
    if workload in ("oltp_business", "stream_paper_baseline"):
        # reduction is off: the layer must be absent, not merely cheap
        assert metrics["storage.reduction.calls"]["value"] == 0
        assert metrics["zlib.compress.calls"]["value"] == 0
