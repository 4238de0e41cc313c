"""``repro perf``: the exact rows, the record, and the front over
``benchmarks/e2e``.

One real run (tenth-size, one workload) checks that the front reaches
the harness and what it prints; everything about ``--check`` and
``--output`` runs on synthetic measurements — a stubbed ``run_suite``
and constant exact rows — because the verdicts are arithmetic on
medians and quartiles, not on what produced them.
"""

import contextlib
import io
import json
import math

import pytest

from repro.bench import perf
from repro.cli import main

#: the wire rows the newest ``BENCH_PERF.json`` row recorded, bit for bit
EXACT = {
    "transfer_drain": 319999.99999999977,
    "transfer_drain_reduced": 249999.99999999983,
    "wire_bytes_per_entry": 19.5205,
    "initial_copy": 2074.232637635709,
    "wire_bytes_per_entry_mixed": 276.0685,
}
WORKLOADS = ("oltp_business", "stream_all_on")


#: the ``quick`` leg's campaign digest, which no recorded change moved
QUICK_DIGEST = "018d569900088a81"


@pytest.fixture(scope="module")
def smoke_run():
    """``(row, printed)`` of one real ``run_perf`` (one chaos leg)."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed), pytest.MonkeyPatch.context() \
            as patch:
        patch.setattr(perf, "CHAOS_LEGS", {"quick": perf.CHAOS_LEGS["quick"]})
        row = perf.run_perf(smoke=True, workloads=["stream_all_on"])
    return row, printed.getvalue()


def ci_chaos_legs():
    """leg -> ``repro chaos`` arguments of the CI ``chaos-smoke`` job."""
    text = (perf.REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
    matrix = text.split("  chaos-smoke:", 1)[1].split("    steps:", 1)[0]
    legs = {}
    for chunk in matrix.split("- leg: ")[1:]:
        name, _, rest = chunk.partition("\n")
        lines = [line for line in rest.split("args:", 1)[1].splitlines()
                 if not line.strip().startswith("#")]
        legs[name.strip()] = " ".join(" ".join(lines).split()).replace(
            ">- ", "")
    return legs


class TestExactRows:
    def test_values_equal_the_recorded_ones(self, smoke_run):
        row, printed = smoke_run
        assert {name: row["exact"][name] for name in EXACT} == EXACT
        assert list(perf.EXACT_ROWS) == list(EXACT)
        for name, value in EXACT.items():
            assert f"{name:<24} {value!r:>20}" in printed

    def test_seed_1_simulated_metrics_and_counters_are_exact_rows(
            self, smoke_run):
        row, _printed = smoke_run
        seeded = {name: value for name, value in row["exact"].items()
                  if name not in EXACT}
        assert list(seeded) == [f"stream_all_on.{name}" for name in
                                (*perf.SIMULATED, *perf.COUNTERS)]
        assert all(isinstance(seeded[f"stream_all_on.{metric}"], float)
                   for metric in perf.SIMULATED)
        assert all(seeded[f"stream_all_on.{counter}"] > 0
                   for counter in perf.COUNTERS)

    @pytest.mark.parametrize("plain, reduced", [
        # 2.9x fewer wire bytes: under the 3x floor
        ({"wire_bytes": 2900, "image": {0: b"a"}},
         {"wire_bytes": 1000, "image": {0: b"a"}}),
        # enough saved, but the secondary converged somewhere else
        ({"wire_bytes": 9000, "image": {0: b"a"}},
         {"wire_bytes": 1000, "image": {0: b"b"}}),
    ])
    def test_wire_bytes_per_entry_keeps_its_assertions(
            self, monkeypatch, plain, reduced):
        monkeypatch.setattr(
            perf, "_transfer_drain_run",
            lambda entries, reduction=perf.DISABLED_REDUCTION, **_:
            reduced if reduction.enabled else plain)
        with pytest.raises(AssertionError):
            perf.bench_wire_bytes_per_entry(10)


class TestBehaviour:
    def test_real_run_records_the_leg_digest(self, smoke_run):
        row, printed = smoke_run
        assert row["behaviour"] == {"chaos.quick": QUICK_DIGEST}
        assert f"{'chaos.quick':<24} {QUICK_DIGEST:>20}" in printed

    def test_legs_are_the_ci_chaos_smoke_legs(self):
        assert perf.CHAOS_LEGS == ci_chaos_legs()
        assert len(perf.CHAOS_LEGS) == 6


class TestFront:
    def test_real_run_is_one_trajectory_row(self, smoke_run):
        row, printed = smoke_run
        assert row["size"] == "smoke" and row["seeds"] == [1, 2, 3]
        assert row["rev"] and row["machine"]
        result = row["workloads"]["stream_all_on"]
        assert result["failed"] == 0 < result["attempted"]
        declared = perf.load_suite().declared()["end_to_end"]
        assert list(result["end_to_end"]) == [m["name"] for m in declared]
        for entry in result["end_to_end"].values():
            assert set(entry) == {"median", "q1", "q3", "n"}
            assert entry["n"] == 3 and entry["q1"] <= entry["q3"]
        json.dumps(row)
        # the harness's own tables: end to end, then the folded layers
        assert "== stream_all_on   failed_ops_share = 0 /" in printed
        assert "writes_per_wall_s" in printed and "n=3" in printed
        assert "-- traced run: layer, self seconds, share, calls" in printed
        assert "storage.adc" in printed

    def test_missing_harness_exits_2(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(perf, "REPO_ROOT", tmp_path)
        assert main(["perf", "--smoke"]) == 2
        captured = capsys.readouterr()
        assert str(tmp_path / "benchmarks" / "e2e") in captured.err
        assert captured.out == ""


@pytest.fixture()
def measured(monkeypatch):
    """Replace both measurements: exact rows return ``EXACT`` and
    ``run_suite`` reports, per metric, the three values
    ``measured[(workload, metric)]`` (default: three times 100.0), per
    traced counter ``measured[(workload, counter)]`` (default 7) and
    ``measured["failed"]`` failed operations; the chaos legs'
    digests are ``measured["behaviour"]``."""
    suite = perf.load_suite()
    values = {"failed": 0, "behaviour": {"chaos.quick": QUICK_DIGEST}}
    monkeypatch.setattr(perf, "behaviour", lambda: dict(values["behaviour"]))
    monkeypatch.setattr(perf, "EXACT_ROWS", {
        name: (lambda value=value: value, "unit")
        for name, value in EXACT.items()})

    def run_suite(workloads, seed, runs, seconds, smoke):
        assert (seed, runs) == (1, 3)
        assert seconds == suite.declared()["run_seconds"]
        results = {"machine": {"note": "synthetic"}, "seconds": seconds,
                   "seeds": [1, 2, 3], "smoke": smoke, "workloads": {}}
        for workload in WORKLOADS:
            end_to_end = {}
            for metric in suite.declared()["end_to_end"]:
                samples = values.get((workload, metric["name"]),
                                     [100.0, 100.0, 100.0])
                end_to_end[metric["name"]] = {
                    **metric, "values": samples, **suite.quartiles(samples)}
            results["workloads"][workload] = {
                "end_to_end": end_to_end,
                "per_layer": {counter: values.get((workload, counter), 7)
                              for counter in perf.COUNTERS},
                "attempted": 50, "failed": values["failed"]}
        return results

    monkeypatch.setattr(suite, "run_suite", run_suite)
    return values


@pytest.fixture()
def record(measured, tmp_path, capsys):
    """A trajectory holding one full-size synthetic row."""
    path = tmp_path / "record.json"
    assert main(["perf", "--output", str(path)]) == 0
    capsys.readouterr()
    return path


def edit_newest_row(path, edit):
    payload = json.loads(path.read_text())
    edit(payload["rows"][-1])
    path.write_text(json.dumps(payload))


class TestCheck:
    def test_equal_run_passes(self, record, capsys):
        assert main(["perf", "--check", str(record)]) == 0
        printed = capsys.readouterr().out
        assert "perf check passed" in printed
        assert "DIFFERS" not in printed and " worse" not in printed
        # seven metrics on each workload, all with a verdict
        assert printed.count("  ok\n") == 7 * len(WORKLOADS)

    def test_exact_row_one_ulp_off_fails_and_is_named(self, record, capsys):
        def nudge(row):
            row["exact"]["initial_copy"] = math.nextafter(
                row["exact"]["initial_copy"], math.inf)
        edit_newest_row(record, nudge)
        assert main(["perf", "--check", str(record)]) == 1
        failures = [line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("FAILED")]
        assert len(failures) == 1 and "initial_copy" in failures[0]

    def test_median_beyond_its_bound_fails(self, record, measured, capsys):
        # higher is better, bound 0.25: 30% lower is worse
        measured["stream_all_on", "writes_per_wall_s"] = [70.0, 70.0, 70.0]
        assert main(["perf", "--check", str(record)]) == 1
        printed = capsys.readouterr().out
        worse = [line for line in printed.splitlines()
                 if line.endswith(" worse")]
        assert len(worse) == 1 and "writes_per_wall_s" in worse[0]
        assert "FAILED  end to end" in printed

    def test_median_inside_its_bound_passes(self, record, measured):
        measured["stream_all_on", "writes_per_wall_s"] = [80.0, 80.0, 80.0]
        assert main(["perf", "--check", str(record)]) == 0

    def test_spread_wider_than_the_bound_is_unresolved(
            self, record, measured, capsys):
        # median 50% lower, but quartiles 25..75 around it prove nothing
        measured["stream_all_on", "writes_per_wall_s"] = [25.0, 50.0, 75.0]
        assert main(["perf", "--check", str(record)]) == 0
        printed = capsys.readouterr().out
        assert printed.count(" unresolved\n") == 1
        assert " worse" not in printed

    def test_other_size_gates_the_exact_rows_only(
            self, record, measured, capsys):
        measured["stream_all_on", "writes_per_wall_s"] = [1.0, 1.0, 1.0]
        assert main(["perf", "--smoke", "--check", str(record)]) == 0
        printed = capsys.readouterr().out
        assert "end-to-end rows not compared: this run is smoke size, " \
               "the recorded one full size" in printed
        assert "ratio = B / A" not in printed
        edit_newest_row(
            record, lambda row: row["exact"].update(transfer_drain=320000.0))
        assert main(["perf", "--smoke", "--check", str(record)]) == 1
        assert "FAILED  exact row transfer_drain" in capsys.readouterr().out

    def test_seed_1_simulated_value_is_exact_at_the_same_size(
            self, record, measured, capsys):
        # the median stays 100: only the seed-1 run moved
        measured["stream_all_on", "keep_up_ratio"] = [99.0, 100.0, 100.0]
        assert main(["perf", "--check", str(record)]) == 1
        failures = [line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("FAILED")]
        assert len(failures) == 1
        assert "stream_all_on.keep_up_ratio" in failures[0]
        # a smoke run has its own seed-1 values
        assert main(["perf", "--smoke", "--check", str(record)]) == 0

    def test_traced_counter_is_exact_at_the_same_size(
            self, record, measured, capsys):
        measured["stream_all_on", "storage.snapshot.cow_blocks"] = 8
        assert main(["perf", "--check", str(record)]) == 1
        failures = [line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("FAILED")]
        assert len(failures) == 1
        assert "stream_all_on.storage.snapshot.cow_blocks" in failures[0]
        # a smoke run has its own traced counters
        assert main(["perf", "--smoke", "--check", str(record)]) == 0

    def test_checks_against_the_newest_row_of_its_size(
            self, record, measured, capsys):
        measured["stream_all_on", "wire_bytes_per_write"] = [50.0] * 3
        assert main(["perf", "--smoke", "--output", str(record)]) == 0
        # the smoke run meets the smoke row, the full run the full row
        assert main(["perf", "--smoke", "--check", str(record)]) == 0
        assert main(["perf", "--check", str(record)]) == 1
        assert "recorded 100.0" in capsys.readouterr().out

    def test_other_machine_gates_the_simulated_rows_only(
            self, record, measured, capsys):
        edit_newest_row(record, lambda row: row["machine"].update(nproc=64))
        measured["stream_all_on", "writes_per_wall_s"] = [1.0, 1.0, 1.0]
        assert main(["perf", "--check", str(record)]) == 0
        printed = capsys.readouterr().out
        assert "wall-clock rows not compared: recorded on" in printed
        # four simulated metrics on each workload, all with a verdict
        assert printed.count("  ok\n") == 4 * len(WORKLOADS)
        # simulated time does not depend on the machine
        measured["stream_all_on", "rpo_lag_p99_sim_ms"] = [120.0] * 3
        assert main(["perf", "--check", str(record)]) == 1
        worse = [line for line in capsys.readouterr().out.splitlines()
                 if line.endswith(" worse")]
        assert len(worse) == 1 and "rpo_lag_p99_sim_ms" in worse[0]

    def test_other_python_minor_gates_the_simulated_rows_too(
            self, record, measured):
        # simulated values were seen bit-identical on 3.11 and 3.12
        edit_newest_row(record, lambda row: row["machine"].update(
            python="3.12.1"))
        measured["stream_all_on", "keep_up_ratio"] = [99.0, 100.0, 100.0]
        assert main(["perf", "--check", str(record)]) == 1

    @pytest.mark.parametrize("flags", [[], ["--smoke"]])
    def test_differing_digest_fails_and_is_named_at_any_size(
            self, record, measured, flags, capsys):
        measured["behaviour"]["chaos.quick"] = "f" * 16
        assert main(["perf", *flags, "--check", str(record)]) == 1
        failures = [line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("FAILED")]
        assert len(failures) == 1 and "chaos.quick" in failures[0]

    def test_a_leg_missing_on_either_side_fails(self, record, measured):
        measured["behaviour"]["chaos.lanes"] = "0" * 16
        assert main(["perf", "--check", str(record)]) == 1
        measured["behaviour"] = {}
        assert main(["perf", "--check", str(record)]) == 1

    def test_digests_are_compared_at_equal_python_minor_only(
            self, record, measured, capsys):
        edit_newest_row(record, lambda row: row["machine"].update(
            python="3.11.7"))
        measured["behaviour"]["chaos.quick"] = "f" * 16
        assert main(["perf", "--check", str(record)]) == 0
        checked = capsys.readouterr().out.split("== check against", 1)[1]
        assert "chaos.quick" not in checked

    @pytest.mark.parametrize("flags", [[], ["--smoke"]])
    def test_failed_operation_fails_at_any_size(
            self, record, measured, flags, capsys):
        measured["failed"] = 2
        assert main(["perf", *flags, "--check", str(record)]) == 1
        assert "2 of 50 operations failed" in capsys.readouterr().out
        assert main(["perf", *flags]) == 1

    def test_checks_against_the_newest_row(self, record, measured, capsys):
        measured["oltp_business", "setup_s"] = [300.0, 300.0, 300.0]
        assert main(["perf", "--check", str(record)]) == 1
        assert main(["perf", "--output", str(record)]) == 0
        assert main(["perf", "--check", str(record)]) == 0

    @pytest.mark.parametrize("content", [
        # the schema this trajectory replaced: table rows under "rows"
        '{"rows": [["initial_copy", 2074.2, "blocks/sim-s", "higher"]], '
        '"facts": {"mode": "quick", "metrics": {}}}',
        '{"rows": []}', "[]", "not json"])
    def test_anything_but_a_trajectory_exits_2_before_measuring(
            self, measured, monkeypatch, tmp_path, capsys, content):
        monkeypatch.setattr(perf, "run_perf", None)
        path = tmp_path / "other.json"
        path.write_text(content)
        for flag in ("--check", "--output"):
            assert main(["perf", flag, str(path)]) == 2
            assert "repro perf:" in capsys.readouterr().err
        assert path.read_text() == content
        assert main(["perf", "--check", str(tmp_path / "absent.json")]) == 2


class TestOutput:
    def test_appends_one_row_per_run(self, record, measured):
        first = json.loads(record.read_text())["rows"]
        assert len(first) == 1 and first[0]["size"] == "full"
        measured["oltp_business", "setup_s"] = [1.0, 2.0, 4.0]
        assert main(["perf", "--smoke", "--output", str(record)]) == 0
        rows = json.loads(record.read_text())["rows"]
        assert len(rows) == 2 and rows[0] == first[0]
        assert rows[1]["size"] == "smoke"
        assert rows[1]["workloads"]["oltp_business"]["end_to_end"][
            "setup_s"] == {"median": 2.0, "q1": 1.0, "q3": 4.0, "n": 3}
        assert perf.load_rows(record) == rows

    def test_writes_nothing_unless_asked(self, measured, monkeypatch,
                                         tmp_path):
        # the retired default: ./BENCH_PERF.json, or $REPRO_BENCH_DIR's
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path / "bench"))
        assert main(["perf"]) == 0
        assert list(tmp_path.iterdir()) == []
