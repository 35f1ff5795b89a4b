"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import cohorts  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

COUNT_METRICS = (
    "core.internal_standard.calls",
    "core.cohort.builds",
    "core.cell.builds",
    "audit.probes",
    "csvio.rows",
    "scenarios.points",
)


def small(name: str, tmp_path: Path, seed: int = 3):
    """The workload with inputs small enough for a unit test."""
    if name == "compute-internal":
        w = workloads.ComputeWorkload(ROOT, seed, "internal", 12)
    elif name == "compute-external":
        w = workloads.ComputeWorkload(ROOT, seed, "external", 12)
    elif name == "paper-repro":
        w = workloads.PaperReproWorkload(ROOT, seed)
        w.trials = 50
    else:
        w = workloads.WhatIfWorkload(ROOT, seed, 12)
    w.work = tmp_path / name
    return w


def test_generator_is_deterministic(tmp_path):
    paths = []
    for i, seed in enumerate((7, 7, 8)):
        path = tmp_path / f"h{i}.csv"
        cohorts.write_hospitals_csv(path, cohorts.hospital_rows(seed, 30))
        paths.append(path)
    same, also_same, other = (p.read_bytes() for p in paths)
    assert same == also_same
    assert same != other
    shape = [line.split(",")[:2] for line in same.decode().splitlines()]
    assert shape == [line.split(",")[:2] for line in other.decode().splitlines()]
    assert cohorts.standard_rates(7) == cohorts.standard_rates(7) != cohorts.standard_rates(8)


def test_generator_shape():
    rows = cohorts.hospital_rows(1, 200)
    assert len(rows) == 200 * 20
    empty = [r for r in rows if r[2] == 0]
    assert 0.1 < len(empty) / len(rows) < 0.2
    assert any(r[3] is None for r in empty) and any(r[3] is not None for r in empty)
    populated = [r for r in rows if r[2] > 0]
    assert all(1 <= r[2] <= 500 and 0.01 <= r[3] <= 0.4 for r in populated)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_op_passes_its_check(name, tmp_path):
    w = small(name, tmp_path)
    w.setup()
    for i in range(2):
        result = w.run_op(i)
        assert result.error is None, result.error
        assert result.units > 0


def test_wrong_compute_output_fails_the_op(tmp_path):
    w = small("compute-internal", tmp_path)
    w.setup()
    first = next(iter(w.reference))
    actual, expected, smr = w.reference[first]
    w.reference[first] = (actual, expected, smr * (1 + 1e-9))
    assert "hospital H0001" in w.run_op(0).error


def test_changed_stdout_fails_the_op(tmp_path):
    w = small("compute-external", tmp_path)
    w.setup()
    good = w.run_op(0)
    assert good.error is None
    data = w.verified[0][0].replace(b'"smr": 0.', b'"smr": 1.', 1)
    assert w.accept(0, 0, data)[0] is not None
    assert w.accept(0, 1, w.verified[0][0])[0].startswith("command 0 exited 1")
    assert workloads.check_compute(data, "external", w.reference) is not None


def test_wrong_audit_pattern_fails():
    rows = []
    for measure, statuses in workloads.RECORDED_STATUS.items():
        rows.append({"measure": measure,
                     "verdicts": [{"status": s, "trials": 1} for s in statuses]})
    results = {"matrix": rows, "expected_matrix_ok": True}
    assert workloads.check_audit(results) == (None, 10)
    rows[0]["verdicts"][1]["status"] = "violated"
    assert workloads.check_audit(results)[0] is not None
    rows[0]["verdicts"][1]["status"] = "holds"
    results["expected_matrix_ok"] = False
    assert workloads.check_audit(results)[0] is not None


def test_witness_with_other_values_fails(tmp_path):
    w = small("paper-repro", tmp_path)
    w.setup()
    assert w.run_op(0).error is None
    assert w.check_witnesses() is None
    payload = json.loads(w.verified[0][0])
    witness = next(v["witness"] for row in payload["results"]["matrix"]
                   for v in row["verdicts"] if v["witness"] is not None)
    witness["value_after"] += 1.0
    w.verified[0] = (json.dumps(payload).encode(), 0)
    assert "replay to other values" in w.check_witnesses()


def test_wrong_sensitivity_report_fails_the_op(tmp_path, monkeypatch):
    from dataclasses import replace

    from smr_axioms import sensitivity

    w = small("whatif-internal", tmp_path)
    w.setup()
    original = sensitivity.me_actual_internal
    monkeypatch.setattr(sensitivity, "me_actual_internal",
                        lambda *a: replace(original(*a), value=original(*a).value + 1e-3))
    assert "me_actual_internal" in w.run_op(0).error
    monkeypatch.setattr(sensitivity, "me_actual_internal", original)
    monkeypatch.setattr(sensitivity, "standard_shift_add_patients", lambda *a: 0.5)
    assert "standard_shift_add_patients" in w.run_op(0).error


def test_measure_counts_failed_ops(tmp_path):
    w = small("compute-internal", tmp_path)
    w.make_inputs = lambda: (workloads.ComputeWorkload.make_inputs(w),
                             w.reference.update({k: (1.0, 1.0, 1.0) for k in w.reference}))
    result = run.measure(w, 0.1)
    assert result["attempted"] >= 1
    assert len(result["errors"]) == result["attempted"]
    assert result["metrics"]["failed_ratio"] == 1.0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(name, tmp_path, monkeypatch):
    monkeypatch.setattr(tracing, "SLOPE_LADDER", (8, 16))
    monkeypatch.setattr(tracing, "IMPORT_REPEATS", 1)
    runs = []
    for i in range(2):
        w = small(name, tmp_path / str(i))
        result = tracing.traced_run(w, 0, ROOT, 3)
        assert result["errors"] == []
        assert set(result["metrics"]) == set(tracing.PER_LAYER_UNITS)
        runs.append({k: result["metrics"][k] for k in COUNT_METRICS})
    assert runs[0] == runs[1]
    if name == "compute-internal":
        assert runs[0]["core.internal_standard.calls"] == 12
        assert runs[0]["csvio.rows"] == 12 * 20
    if name == "paper-repro":
        assert runs[0]["audit.probes"] > 4 * 50
        assert runs[0]["scenarios.points"] > 0
        assert 0 < result["metrics"]["audit.generate_s"] < result["metrics"]["audit.run_s"]


def test_tracing_leaves_the_package_unpatched(tmp_path, monkeypatch):
    from smr_axioms import cli, core, report

    before = (cli.main, core.smr_all, core.StratumCell.__post_init__, report.dumps)
    monkeypatch.setattr(tracing, "SLOPE_LADDER", (8, 16))
    monkeypatch.setattr(tracing, "IMPORT_REPEATS", 1)
    tracing.traced_run(small("compute-internal", tmp_path), 0, ROOT, 3)
    assert (cli.main, core.smr_all, core.StratumCell.__post_init__, report.dumps) == before


def test_tail_has_ten_samples_beyond_it():
    samples = [float(i) for i in range(1, 101)]
    assert run.tail(samples) == (90.0, "p90")
    assert run.tail(samples[:40]) == (30.0, "p75")
    assert run.tail(samples[:12]) == (12.0, "max")


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS
