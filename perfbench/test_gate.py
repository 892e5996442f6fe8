"""Tests of the benchmark's correctness gate, determinism check and span arithmetic.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run as bench
import tracing
from workloads import REFERENCE_SEED, WORKLOADS, artifact_digest, gate, load_reference

ROOT = Path(__file__).resolve().parent.parent


def write_report(out: Path, workload, results: dict, passed: bool = True) -> None:
    out.mkdir(parents=True, exist_ok=True)
    report = {
        "command": workload.command,
        "checks": [{"name": "a_check", "value": 0.0, "tolerance": 1.0, "passed": passed}],
        "passed": passed,
        "results": results,
        "runtime_seconds": 1.0,
    }
    (out / f"{workload.command}.report.json").write_text(json.dumps(report))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reference_results_pass_and_doctored_reference_fails(tmp_path, name):
    workload = WORKLOADS[name]
    reference = load_reference()
    write_report(tmp_path, workload, reference[name]["results"])
    assert gate(workload, REFERENCE_SEED, {"rc": 0}, tmp_path, reference) == []

    doctored = json.loads(json.dumps(reference))
    key = workload.headline[0]
    value = doctored[name]["results"][key]
    if isinstance(value, list):
        value[-1] *= 1.0 + 1e-5
    else:
        doctored[name]["results"][key] = value * (1.0 + 1e-5)
    reasons = gate(workload, REFERENCE_SEED, {"rc": 0}, tmp_path, doctored)
    assert len(reasons) == 1 and f"headline {key} drifted" in reasons[0]
    # away from the reference seed the stored values are not compared
    assert gate(workload, REFERENCE_SEED + 1, {"rc": 0}, tmp_path, doctored) == []


def test_gate_rejects_failed_check_exit_code_error_and_missing_report(tmp_path):
    workload = WORKLOADS["transport-128"]
    reference = load_reference()
    write_report(tmp_path / "a", workload, {}, passed=False)
    assert gate(workload, 5, {"rc": 1}, tmp_path / "a", reference) == [
        "exit code 1", "failed checks: a_check"]
    assert gate(workload, 5, {"error": "Traceback\nValueError: boom\n"}, tmp_path / "b", reference) == [
        "raised: ValueError: boom", "no report written"]
    assert gate(workload, 5, None, tmp_path / "b", reference) == ["the experiment process wrote no result"]


def test_broken_experiment_counts_as_failed_without_crashing_the_harness():
    # covariance on a 32^3 lattice violates the packet's boundary hygiene
    broken = replace(WORKLOADS["boost-slice"], name="broken-covariance", config=("grid.n = 32",))
    run = bench.Run(broken, seed=7, trace=False, src_digest=bench.source_digest())
    child = run.experiment()
    assert child is not None and "wall_s" in child
    assert len(run.samples) == 1 and run.samples[0]["failures"]
    assert any("coordinate boundary" in reason or "exit code" in reason for reason in run.failures)


def test_artifact_digest_ignores_runtime_only(tmp_path):
    workload = WORKLOADS["transport-128"]
    write_report(tmp_path, workload, {"residuals": [1.0]})
    (tmp_path / "continuity.refinement.csv").write_text("level,residual\n0,1\n")
    first = artifact_digest(tmp_path)
    report_path = tmp_path / "continuity.report.json"
    report = json.loads(report_path.read_text())
    report["runtime_seconds"] = 99.0
    report_path.write_text(json.dumps(report, indent=2))
    assert artifact_digest(tmp_path) == first
    (tmp_path / "continuity.refinement.csv").write_text("level,residual\n0,1.0000000000000002\n")
    assert artifact_digest(tmp_path) != first


def test_same_seed_with_different_artifacts_fails_determinism():
    run = bench.Run(WORKLOADS["transport-128"], seed=123456, trace=False, src_digest="0" * 64)
    run.history.unlink(missing_ok=True)
    other_seed = bench.Run(WORKLOADS["transport-128"], seed=123457, trace=False, src_digest="0" * 64)
    other_seed.history.unlink(missing_ok=True)
    assert run.check_determinism("aa", 1.0) == []
    assert run.check_determinism("aa", 2.0) == []
    assert other_seed.check_determinism("cc", 5.0) == []
    assert run.untraced_walls() == [1.0, 2.0]
    assert run.check_determinism("bb", 3.0) == [
        "artifacts differ from an earlier run with the same code and seed"]
    run.history.unlink()
    other_seed.history.unlink()


def test_config_depends_only_on_seed():
    for workload in WORKLOADS.values():
        text = workload.config_text(3)
        assert text == workload.config_text(3) != workload.config_text(4)
        assert all(line in text.splitlines() for line in workload.config)


def test_self_time_subtracts_child_coverage():
    spans = [
        ["cli.main", 0.0, 10.0, -1, None],
        ["covlab.slice_prediction", 1.0, 9.0, 0, 64**3],
        ["fields.evolve", 2.0, 4.0, 1, 64**3],
        ["fft.scipy.fft.fftn", 2.5, 3.5, 2, 1000],
        ["fft.numpy.fft.fft", 2.6, 3.0, 3, 10],
        ["fields.evolve", 5.0, 6.0, 1, 64**3],
        ["grids.energies", 6.5, 7.0, 1, [64, 8.0, 1.0]],
        ["grids.energies", 7.0, 7.5, 1, [64, 8.0, 1.0]],
    ]
    out = tracing.summarize(spans, wall_s=10.0)
    assert out["cli.self_s"] == pytest.approx(2.0)
    assert out["covlab.slice_prediction.self_s"] == pytest.approx(4.0)
    assert out["covlab.slice_prediction.wall_share"] == pytest.approx(0.8)
    assert out["fields.evolve.calls"] == 2 and out["fields.evolve.self_s"] == pytest.approx(2.0)
    assert out["fft.calls"] == 1 and out["fft.points"] == 1000
    assert out["fft.self_s"] == pytest.approx(1.0)
    assert out["covlab.plane_yield"] == pytest.approx(0.5)
    assert out["grids.energies.repeat_frac"] == pytest.approx(0.5)


def test_declared_per_layer_metrics_name_real_functions():
    sys.path.insert(0, str(ROOT / "src"))
    import importlib

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = set(tracing.LAYERS) | {"fft", "cli", "trace"}
    for metric in spec["per_layer"]:
        parts = metric["name"].split(".")
        assert parts[0] in layers, metric["name"]
        if len(parts) == 3 and parts[0] in tracing.LAYERS:
            module = importlib.import_module(f"rdlab.{parts[0]}")
            owner = module.Grid if parts[0] == "grids" else module
            assert callable(getattr(owner, parts[1])), metric["name"]
