"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every workload runs and passes its checks, that every metric
named in BENCHMARK.json is emitted with its unit, that a defect planted in the
program is counted as failed operations, that a missing hook is reported
rather than fatal, and that the command refuses to run without the package
sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = sorted(workloads.WORKLOADS)


def test_spec_names_every_workload():
    assert sorted(w["name"] for w in SPEC["workloads"]) == NAMES


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_workload_emits_every_metric(name, trace):
    result, lines = run.run_benchmark(name, seed=5, seconds=0.01, trace=bool(trace),
                                      size="tiny")
    assert result["correct"] and result["failed"] == 0, lines
    assert result["attempted"] >= 3
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in want} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    printed = {ln.split()[0] for ln in lines}
    assert {m["name"] for m in want} | {"failed_frac"} <= printed


def _corrupt_step(pkg):
    """Every accepted step gains a little cell mass out of nowhere."""
    step = pkg.stepper.step

    def leaky_step(*args, **kwargs):
        new = step(*args, **kwargs)
        new.u = new.u.copy()
        new.u.flat[0] += 1e-6
        return new
    pkg.stepper.step = leaky_step


def _corrupt_inequalities(pkg):
    batch = pkg.diagnostics.log_hessian_batch

    def one_violation(*args, **kwargs):
        rep = batch(*args, **kwargs)
        return type(rep)(rep.check, rep.samples, rep.violations + 1, rep.max_ratio,
                         rep.ratios)
    pkg.diagnostics.log_hessian_batch = one_violation


@pytest.mark.parametrize("name", NAMES)
def test_corrupted_output_is_counted_as_failed(name):
    fault = _corrupt_inequalities if name == "verify_suite" else _corrupt_step
    result, lines = run.run_benchmark(name, seed=5, seconds=0.01, trace=False,
                                      size="tiny", fault=fault)
    assert not result["correct"] and result["failed"] >= 1
    assert f"failed_frac {result['failed'] / result['attempted']:.6g}" in "\n".join(lines)


def test_missing_hook_is_reported_not_fatal(monkeypatch):
    hooks = [(n, m, "_renamed_accumulators" if n == "stepper.accumulators" else a)
             for n, m, a in run.tracer.HOOKS]
    monkeypatch.setattr(run.tracer, "HOOKS", hooks)
    result, lines = run.run_benchmark("mass_law_1d", seed=5, seconds=0.01, trace=True,
                                      size="tiny")
    assert result["correct"]
    assert result["metrics"]["stepper.accumulators_us"]["value"] == 0.0
    assert result["metrics"]["model.rhs_us"]["value"] > 0.0
    assert any(ln.startswith("stepper.accumulators_us") and "missing" in ln
               for ln in lines)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
