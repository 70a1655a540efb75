"""Tests of the benchmark itself.

    python3 -m pytest perfbench

Workloads run at a tiny size in-process; one test drives the command line.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402

TINY = {
    "paper_n50": dataclasses.replace(wl.WORKLOADS["paper_n50"], min_items=20),
    "large_n": dataclasses.replace(wl.WORKLOADS["large_n"], n=200, min_items=30),
    "colmap_eval": dataclasses.replace(
        wl.WORKLOADS["colmap_eval"], images=8, n_max=300, n_points=400
    ),
}

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_run(monkeypatch, tmp_path, name, trace, seed=1):
    monkeypatch.setitem(wl.WORKLOADS, name, TINY[name])
    result, report = run.run(name, seed, 0.0, trace, tmp_path)
    return result


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_prints_the_declared_metrics(monkeypatch, tmp_path, name, trace):
    result = tiny_run(monkeypatch, tmp_path, name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == declared
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_counts_repeat_exactly(monkeypatch, tmp_path, name):
    def counts():
        metrics = tiny_run(monkeypatch, tmp_path, name, True)["metrics"]
        return {k: v["value"] for k, v in metrics.items() if v["unit"] in ("count", "bytes")
                or k.endswith("_rate")}

    first, second = counts(), counts()
    assert first == second
    assert first["solvers.linalg.svd_per_solve.odlt"] > 0


def test_tracer_restores_every_attribute():
    mods = wl.import_odlt()
    watched = [
        (mods.odlt, "solve"),
        (mods.solvers, "solve_nullspace"),
        (mods.dlt, "solve_nullspace"),
        (mods.geometry.Pose, "__post_init__"),
        (mods.normalization.PixelNormalization, "apply"),
        (np.linalg, "svd"),
        (np, "kron"),
    ]
    before = [getattr(owner, attr) for owner, attr in watched]
    with run.tracing.Tracer().installed():
        during = [getattr(owner, attr) for owner, attr in watched]
    after = [getattr(owner, attr) for owner, attr in watched]
    assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))
    assert during[1] is during[2]  # one wrapper under every name of a function


def test_coverage_check_fails_the_traced_run(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "COVERAGE_TOLERANCE_PCT", -1.0)
    monkeypatch.setattr(run, "COVERAGE_MIN_SOLVES", 0)
    with pytest.raises(run.CheckFailed, match="misses the untraced wall time"):
        tiny_run(monkeypatch, tmp_path, "paper_n50", True)


def test_failed_check_exits_nonzero_without_result(monkeypatch, capsys):
    monkeypatch.setattr(wl, "EXACT_POS", 0.0)
    code = run.main(["--workload", "paper_n50", "--seed", "1", "--seconds", "0"])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert "zero-noise solve not exact" in out.err


def test_command_line_prints_result_last():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_n50", "--seed", "2",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert all(line.startswith("# ") for line in lines[:-1])
    assert lines[0].startswith("# host ")
    host = json.loads(lines[0][len("# host "):])
    assert host["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    result = json.loads(lines[-1])
    assert result["metrics"]["odlt_p50_ref"]["unit"] == "ref"
    assert not list(ROOT.glob(".perfbench-*"))


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "paper_n50", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
