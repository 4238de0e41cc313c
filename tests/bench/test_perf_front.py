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

#: the values the parent's ``BENCH_PERF.json`` recorded, bit for bit
EXACT = {
    "transfer_drain": 319999.99999999977,
    "transfer_drain_reduced": 101694.9152542372,
    "wire_bytes_per_entry": 206.304,
    "initial_copy": 2074.232637635709,
}
WORKLOADS = ("oltp_business", "stream_all_on")


@pytest.fixture(scope="module")
def smoke_run():
    """``(row, printed)`` of one real ``run_perf``."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        row = perf.run_perf(smoke=True, workloads=["stream_all_on"])
    return row, printed.getvalue()


class TestExactRows:
    def test_values_equal_the_recorded_ones(self, smoke_run):
        row, printed = smoke_run
        assert row["exact"] == EXACT
        assert list(perf.EXACT_ROWS) == list(EXACT)
        for name, value in EXACT.items():
            assert f"{name:<24} {value!r:>20}" in printed

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
    ``measured[(workload, metric)]`` (default: three times 100.0) and
    ``measured["failed"]`` failed operations."""
    suite = perf.load_suite()
    values = {"failed": 0}
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
                "end_to_end": end_to_end, "per_layer": {},
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
