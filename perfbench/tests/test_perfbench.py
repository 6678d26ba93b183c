"""Tests of the benchmark itself, on its smoke mode (runs of a fraction of a second)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import compare, probe, tracer

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def check_printed(proc: subprocess.CompletedProcess, section: str) -> dict:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.startswith(f"metric {name} = ") and line.endswith(f" {unit}")
                   for line in lines), name
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_end_to_end_metric(workload):
    result = check_printed(run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                                     "--trace", "0", "--smoke"), "end_to_end")
    assert result["metrics"]["setup_s"]["value"] > 0
    assert result["metrics"]["throughput_rps"]["value"] > 0


def test_traced_smoke_prints_every_per_layer_metric():
    proc = run_bench("--workload", "cli-requests", "--seed", "3", "--seconds", "1",
                     "--trace", "1", "--smoke")
    result = check_printed(proc, "per_layer")
    assert result["metrics"]["cli.main.calls"]["value"] == result["attempted"]
    assert result["metrics"]["numerics._kernels.sturm_counts.calls"]["value"] == 0
    assert "note leftover_wrappers []" in proc.stdout
    assert "note count_drift null" in proc.stdout


def test_tracer_restores_every_call_site():
    probe.import_package()
    import numpy as np

    from circle_sqm.numerics import _kernels, eigensolve

    matrix = eigensolve.build_hamiltonian(lambda phi: 1.0 / np.sin(phi) ** 2, 1.0,
                                          (0.0, np.pi), 64)
    original = _kernels.sturm_counts
    with tracer.Tracer() as traced:
        assert eigensolve.sturm_counts is not original
        assert eigensolve.sturm_counts.__perfbench_wrapper__
        eigensolve.lowest_eigenvalues(matrix, 3)
    assert eigensolve.sturm_counts is _kernels.sturm_counts is original
    assert tracer.installed_wrappers() == []
    metrics = traced.layer_metrics(1.0)
    assert metrics["numerics._kernels.sturm_counts.calls"] > 0
    assert metrics["numerics._kernels.sturm_counts.rows"] == 64 * metrics[
        "numerics._kernels.sturm_counts.calls"]
    assert metrics["numerics.eigensolve.lowest_eigenvalues.passes_per_solve"] == metrics[
        "numerics._kernels.sturm_counts.calls"]
    assert len(traced.solves) == 1

    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            raise RuntimeError("leave the block early")
    assert tracer.installed_wrappers() == []


def test_compare_refuses_different_backends():
    base = {"provenance": {"workload": "closed-form", "trace": 0, "numba": False,
                           "use_numba": False, "CIRCLE_SQM_THREADS": None,
                           "CIRCLE_SQM_PURE_NUMPY": None}}
    other = {"provenance": dict(base["provenance"], numba=True, use_numba=True)}
    assert compare.refusal([base, base]) is None
    assert "backends" in compare.refusal([base, other])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "closed-form", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
