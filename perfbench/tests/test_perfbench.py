"""Tests of the benchmark itself: gates, tracing and the names it prints."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import child  # noqa: E402
import gates  # noqa: E402
import make_reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "L": math.pi, "v": 0.3, "n_max": 8,
    "initial": {"preset": {"name": "sine_mode", "params": {"amplitude": 0.1, "mode": 1}}},
    "quadrature": {"panels_per_unit": 32},
}


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY))
    return path


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One in-process traced validate run on a tiny problem."""
    tmp = tmp_path_factory.mktemp("traced")
    (tmp / "tiny.json").write_text(json.dumps(TINY))
    before = [(owner, attr, owner.__dict__[attr])
              for owner, attr, _, _ in spans.Tracer.targets()]
    res = child.run_cli(["validate", "--config", str(tmp / "tiny.json"),
                         "--out", str(tmp / "out")], traced=True)
    return res, before


# --- a perturbed output is a failed operation ------------------------------

def _validate_doc(ref, **changes):
    checks = [{"name": n, "passed": n not in ref["failed"], "vacuous": False,
               "residual": ref["seed_independent"].get(n, 0.0)} for n in ref["names"]]
    for c in checks:
        c.update(changes.get(c["name"], {}))
    return {"summary": {}, "checks": checks}


@pytest.mark.parametrize("workload", ["certify-v03", "certify-v099"])
def test_certify_gate_flags_perturbed_output(tmp_path, workload):
    ref = gates.load_reference(workload)
    doc = tmp_path / "validate.json"

    doc.write_text(json.dumps(_validate_doc(ref)))
    v = gates.check_certify(tmp_path, 0, ref)
    assert v.ok and v.checks_failed == len(ref["failed"]) and v.max_deviation == 0.0

    renamed = _validate_doc(ref)
    renamed["checks"][0]["name"] = "renamed_check"
    doc.write_text(json.dumps(renamed))
    assert not gates.check_certify(tmp_path, 0, ref).ok

    doc.write_text(json.dumps(_validate_doc(ref, energy_conservation={"residual": math.inf})))
    assert not gates.check_certify(tmp_path, 0, ref).ok

    doc.write_text(json.dumps(_validate_doc(ref, dirichlet_trace_left={"passed": False})))
    assert not gates.check_certify(tmp_path, 0, ref).ok


def test_oracle_gate_flags_discrepancy_above_ceiling(tmp_path):
    ref = gates.load_reference("oracle-bump")
    base = {"samples": ref["samples"], "nx": ref["nx"], "seed": 0, **ref["per_seed"]["0"]}
    (tmp_path / "oracle.json").write_text(json.dumps(base))
    v = gates.check_oracle(tmp_path, 0, ref)
    assert v.ok and v.max_deviation == 0.0
    key = "max_abs_series_vs_fd"
    (tmp_path / "oracle.json").write_text(json.dumps({**base, key: 2 * ref["ceilings"][key]}))
    assert not gates.check_oracle(tmp_path, 0, ref).ok


def test_field_gate_flags_perturbed_value(tmp_path, tiny_config):
    from moving_string import cli

    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(tiny_config), "--out", str(out),
                     "--nx", "9", "--nt", "7"]) == 0
    ref = make_reference.field_reference(out / "field.csv", 7)
    v = gates.check_field(out, 0, ref)
    assert v.ok and v.max_deviation == 0.0

    row = ref["sample_rows"][len(ref["sample_rows"]) // 2]
    lines = (out / "field.csv").read_text().split("\n")
    data_lines = [i for i, ln in enumerate(lines[1:], 1) if ln]
    i = data_lines[row]
    cells = lines[i].split(",")
    cells[2] = repr(float(cells[2]) + 1e-6 * ref["column_max_abs"][2])
    lines[i] = ",".join(cells)
    (out / "field.csv").write_text("\n".join(lines))
    v = gates.check_field(out, 0, ref)
    assert not v.ok and v.max_deviation > gates.FIELD_RTOL


def test_crash_and_error_exit_are_failures_but_check_failure_is_not(tmp_path):
    w = WORKLOADS["certify-v03"]
    ref = gates.load_reference(w.name)
    assert not run.judge(w, 0, {"error": "Traceback\nZeroDivisionError"}, tmp_path, ref).ok
    for code in (2, 3):
        assert not run.judge(w, 0, {"exit_code": code, "stderr_tail": ""}, tmp_path, ref).ok
    (tmp_path / "validate.json").write_text(json.dumps(_validate_doc(ref)))
    assert run.judge(w, 0, {"exit_code": 1, "stderr_tail": ""}, tmp_path, ref).ok


# --- the traced run ----------------------------------------------------------

def test_wrappers_are_removed_after_traced_run(traced):
    res, before = traced
    assert res["exit_code"] == 0 and res["layers"]["series.field_calls"] > 0
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} still wrapped"


def test_self_times_sum_to_at_most_traced_run(traced):
    res, _ = traced
    own = spans.self_times(res["spans"])
    assert min(own) >= -1e-9
    total = sum(res["layers"][f"{layer}.self_s"] for layer in spans.LAYERS)
    assert 0.0 < total <= res["run_s"]
    top = res["spans"][0]
    assert top[1] == "cli.main" and total == pytest.approx(top[3] - top[2])


# --- printed names match BENCHMARK.json ---------------------------------------

def _spec_units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in WORKLOADS.values()]


def test_per_layer_metric_names_match_benchmark_json(traced):
    res, _ = traced
    traced_rep = {**res, "mode": "trace", "imports": {"numpy": 0.1, "scipy": 0.2,
                                                      "moving_string": 0.3},
                  "checks_failed": 0, "max_deviation": None}
    plain_rep = {"mode": "run", "run_s": res["run_s"], "checks_failed": 0,
                 "max_deviation": 0.0}
    metrics, _ = run.per_layer(WORKLOADS["certify-v03"], [plain_rep, traced_rep])
    assert list(metrics) == list(_spec_units("per_layer"))
    assert run.PER_LAYER_UNITS == _spec_units("per_layer")


def test_end_to_end_run_prints_benchmark_json_metrics():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "certify-v03",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {k: m["unit"] for k, m in result["metrics"].items()}
    assert units == _spec_units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify-v03",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout
