#!/usr/bin/env python3
"""odlt benchmark: per-method solve() latency and harness throughput.

    python3 perfbench/run.py --workload paper_n50 --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; odlt is imported from the checkout's
src/ and nowhere else. With --trace 0 the last stdout line is a JSON object
whose metrics are the end-to-end metrics of BENCHMARK.json; with --trace 1
it holds the per-layer metrics, from a run split into an untraced and a
traced half. Lines before it start with '#' and carry the host block and a
readable summary. A failed output check exits 1 and prints no result; a
checkout without src/odlt exits 2.
"""

import os

# One BLAS thread, pinned through this process's own environment before
# numpy is first imported. No machine setting is touched.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import dataclasses
import json
import math
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import tracing
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Set-up (import, untimed input generation, warm-up) is repeated and the
# median reported, so that one slow repetition does not decide setup_s.
SETUP_REPEATS = 5

# The traced per-layer split (sum of per-layer median self times) must land
# within this share of the untraced solve() median, or tracing is broken.
# Medians of fewer solves per method are too noisy to judge.
COVERAGE_TOLERANCE_PCT = 50.0
COVERAGE_MIN_SOLVES = 100

class CheckFailed(Exception):
    """An output check failed; the run prints no metrics."""


def unit_of(name: str) -> str:
    """Unit of a metric, from its name."""
    if name == "colmap.parse_mb_per_s":
        return "MB/s"
    if name == "items_per_kref":
        return "1/kref"
    if name.endswith("_ref"):
        return "ref"
    if name == "peak_rss_mb":
        return "MB"
    if name == "odlt_rot_rmse_deg":
        return "deg"
    if name == "dlt.A_bytes_per_solve":
        return "bytes"
    if "_per_solve" in name:
        return "count"
    if name.startswith("trace.") and "_pct" in name:
        return "%"
    if "_ms" in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "ratio"


# -- host block ----------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_block() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
    }


# -- running a workload --------------------------------------------------------


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _rmse(xs) -> float:
    return math.sqrt(sum(x * x for x in xs) / len(xs)) if xs else float("nan")


def _set_up(w, seed: int, workdir: Path):
    """SETUP_REPEATS fresh set-ups; returns (mods, inputs, median seconds)."""
    times = []
    inputs = None
    for _ in range(SETUP_REPEATS):
        if inputs is not None:
            shutil.rmtree(inputs.model_dir)
        t0 = time.perf_counter()
        if isinstance(w, wl.Synthetic):
            mods, inputs = wl.setup_synthetic(w, seed)
        else:
            mods, inputs = wl.setup_colmap(w, workdir)
        times.append(time.perf_counter() - t0)
    origin = Path(mods.odlt.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise CheckFailed(f"odlt was imported from {origin}, not from {SRC}")
    return mods, inputs, statistics.median(times)


def _loop(mods, w, seed, seconds, inputs, tracer=None):
    if isinstance(w, wl.Synthetic):
        return wl.run_synthetic(mods, w, seed, seconds, tracer)
    return wl.run_colmap(mods, w, seed, seconds, inputs, tracer)


def _check_exact(mods, w, seed) -> None:
    for m, n, rot, pos in wl.exact_errors(mods, w, seed):
        if not (rot < wl.EXACT_ROT_DEG and pos < wl.EXACT_POS):
            raise CheckFailed(
                f"zero-noise solve not exact: {m} at n={n}: rot {rot:.3e} deg, pos {pos:.3e} "
                f"(bounds {wl.EXACT_ROT_DEG:g} deg, {wl.EXACT_POS:g})"
            )


def _worst_errors(errors) -> str:
    worst = {}
    for m, _, rot, pos in errors:
        r, p = worst.get(m, (0.0, 0.0))
        worst[m] = (max(r, rot), max(p, pos))
    return " ".join(f"{m}={r:.1e}deg/{p:.1e}" for m, (r, p) in worst.items())


def _check_run(w, rec) -> None:
    if w.name == "paper_n50" and rec.failed:
        raise CheckFailed(f"{rec.failed} of {rec.attempted} solves failed on {w.name}")
    if isinstance(w, wl.Synthetic):
        ndlt, odlt = _rmse(rec.rot_err["ndlt"]), _rmse(rec.rot_err["odlt"])
        if not ndlt > odlt:
            raise CheckFailed(f"rotation RMSE ordering ndlt > odlt broken: {ndlt} vs {odlt}")


def _in_refs(rec, method) -> np.ndarray:
    """Wall times of a method's solves in units of the local reference time."""
    return np.asarray(rec.wall[method]) / rec.clock.scale(rec.start[method])


def _items_per_kref(rec) -> float:
    return 1e3 * rec.items / rec.clock.work_refs()


def end_to_end(rec, setup_s: float) -> dict:
    p50 = {m: float(np.median(_in_refs(rec, m))) for m in wl.METHODS}
    return {
        "odlt_p50_ref": p50["odlt"],
        "dlt_p50_ref": p50["dlt"],
        "ndlt_p50_ref": p50["ndlt"],
        "odlt_lost_p50_ref": p50["odlt_lost"],
        "ndlt_gn_p50_ref": p50["ndlt_gn"],
        "odlt_over_ndlt": p50["odlt"] / p50["ndlt"],
        "items_per_kref": _items_per_kref(rec),
        "success_rate": 1.0 - rec.failed / rec.attempted,
        "odlt_rot_rmse_deg": _rmse(rec.rot_err["odlt"]),
        "setup_s": setup_s,
        "peak_rss_mb": rec.peak_rss_mb,
    }


def per_layer(plain, traced, tracer, inputs) -> dict:
    """Per-layer metrics: stage timings from the untraced half, spans and
    counts from the traced half (counts over its fixed prefix only)."""
    out = {}
    self_times = tracer.self_times

    def med_ms(span):
        return _ms(_median(self_times.get(span, ())))

    for m in wl.METHODS:
        for stage in wl.STAGES[m]:
            out[f"solvers.stage.{stage}_ms.{m}"] = _ms(_median(plain.stages[m][stage]))
        out[f"solvers.untimed_ms.{m}"] = _ms(_median(plain.untimed[m]))
        if m == "odlt":
            # Not an end-to-end metric: on a shared host its run-to-run
            # spread is mostly other tenants' bursts (README).
            out["solvers.p99_ms.odlt"] = _ms(float(np.percentile(plain.wall[m], 99)))
        solves = tracer.solves[m]
        for fn in tracing.LINALG_COUNTED:
            out[f"solvers.linalg.{fn}_per_solve.{m}"] = tracer.numpy_calls[(m, fn)] / solves
        # Both sides in reference units: the halves run at different times.
        splits = tracer.solve_layers[m]
        scale = traced.clock.scale(tracer.solve_start[m])
        covered = sum(
            float(np.median([split.get(layer, 0.0) for split in splits] / scale))
            for layer in {layer for split in splits for layer in split}
        )
        untraced = float(np.median(_in_refs(plain, m)))
        out[f"trace.coverage_residual_pct.{m}"] = 100.0 * (untraced - covered) / untraced

    all_solves = sum(tracer.solves.values())
    weighted = ("odlt", "odlt_lost")
    weighted_solves = sum(traced.accuracy_solves[m] for m in weighted)

    def flag_rate(flag):
        return sum(traced.flag_counts[m].get(flag, 0) for m in weighted) / weighted_solves

    parse_s = _median(self_times.get("colmap.parse_model", ()))
    out.update({
        "geometry.correspondence_arrays_ms": med_ms("geometry.correspondence_arrays"),
        "geometry.pose_constructions_per_solve": tracer.span_calls("geometry.Pose") / all_solves,
        "geometry.nearest_rotation_per_solve":
            tracer.span_calls("geometry.nearest_rotation") / all_solves,
        "normalization.fit_ms": sum(med_ms(s) for s in (
            "normalization.fit_pixel_normalization",
            "normalization.fit_point_normalization",
            "normalization.PixelNormalization.apply",
            "normalization.PointNormalization.apply",
        )),
        "weighting.preliminary_ms": med_ms("weighting._preliminary_normalized"),
        "weighting.fallback_rate": flag_rate("FallbackUsed"),
        "dlt.assemble_ms": med_ms("dlt._assemble_arrays"),
        "dlt.nullspace_ms": med_ms("dlt.solve_nullspace"),
        "dlt.nullspace_calls_per_solve": tracer.span_calls("dlt.solve_nullspace") / all_solves,
        "dlt.A_bytes_per_solve": sum(tracer.a_bytes.values()) / all_solves,
        "se3.declamp_ms": med_ms("se3.declamp_denormalize"),
        "se3.procrustes_ms": med_ms("se3.weighted_procrustes"),
        "se3.recover_ms": med_ms("se3.recover_scale_and_position"),
        "se3.lost_ms": med_ms("se3.lost_translation"),
        "se3.procrustes_fallback_rate": flag_rate("DegenerateWeights"),
        "solvers.refine_ms": med_ms("solvers.refine_gauss_newton"),
        "solvers.gn_step_attempts_per_solve":
            tracer.span_calls("geometry.rodrigues", method="ndlt_gn", parent="solvers")
            / tracer.solves["ndlt_gn"],
        "evaluation.generate_scene_ms": med_ms("evaluation.generate_scene"),
        "evaluation.compute_metrics_ms": med_ms("evaluation.compute_metrics"),
        "colmap.parse_model_s": parse_s,
        "colmap.parse_mb_per_s": inputs.model_bytes / 1e6 / parse_s if parse_s else 0.0,
        "colmap.build_problems_s": _median(self_times.get("colmap.build_problems", ())),
    })
    plain_rate, traced_rate = _items_per_kref(plain), _items_per_kref(traced)
    out["trace.overhead_pct"] = 100.0 * (plain_rate - traced_rate) / plain_rate
    return out


def _summary(label, rec) -> list:
    work_s = rec.clock.work_seconds()
    ref_ms = _ms(float(np.median(rec.clock.ref_d)))
    lines = [f"{label}: {rec.items} items in {work_s:.2f} s of work "
             f"({rec.items / work_s:.3f} items/s), {rec.attempted} solves, {rec.failed} failed; "
             f"reference kernel median {ref_ms:.4f} ms over {len(rec.clock.ref_d)} calls"]
    for m in wl.METHODS:
        stages = " ".join(f"{s}={_ms(_median(v)):.3f}" for s, v in rec.stages[m].items())
        lines.append(
            f"  {m:9s} n={len(rec.wall[m]):6d} p50={_ms(_median(rec.wall[m])):.3f} ms "
            f"({float(np.median(_in_refs(rec, m))):.3f} ref) "
            f"p99={_ms(float(np.percentile(rec.wall[m], 99))):.3f} ms "
            f"({float(np.percentile(_in_refs(rec, m), 99)):.3f} ref)  "
            f"stages(ms): {stages} untimed={_ms(_median(rec.untimed[m])):.3f}"
        )
    return lines


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path):
    """Set up, check, time; returns (result object, report lines)."""
    w = wl.WORKLOADS[workload]
    mods, inputs, setup_s = _set_up(w, seed, workdir)
    _check_exact(mods, w, seed)
    report = ["host " + json.dumps(host_block(), sort_keys=True),
              f"workload {w.name} seed {seed} seconds {seconds} trace {int(trace)}"]
    if isinstance(w, wl.ColmapEval):
        # Not gated: reported so that the precision of large unnormalized
        # solves is visible.
        report.append("zero-noise model images, worst rot/pos: "
                      + _worst_errors(wl.colmap_exact_errors(mods, inputs)))
    if not trace:
        rec = _loop(mods, w, seed, seconds, inputs)
        _check_run(w, rec)
        metrics = end_to_end(rec, setup_s)
        report += _summary("untraced", rec)
        attempted, failed = rec.attempted, rec.failed
    else:
        if isinstance(w, wl.ColmapEval):
            # Counts need one pass; five per half would not fit a slow host.
            w = dataclasses.replace(w, min_passes=1)
        plain = _loop(mods, w, seed, seconds / 2, inputs)
        tracer = tracing.Tracer()
        with tracer.installed():
            traced = _loop(mods, w, seed, seconds / 2, inputs, tracer)
        for rec in (plain, traced):
            _check_run(w, rec)
        metrics = per_layer(plain, traced, tracer, inputs)
        for m in wl.METHODS:
            residual = metrics[f"trace.coverage_residual_pct.{m}"]
            enough = min(len(plain.wall[m]), len(traced.wall[m])) >= COVERAGE_MIN_SOLVES
            if enough and abs(residual) > COVERAGE_TOLERANCE_PCT:
                raise CheckFailed(
                    f"traced layer split of {m} misses the untraced wall time by {residual:.1f}%"
                )
        report += _summary("untraced half", plain) + _summary("traced half", traced)
        for m in wl.METHODS:
            split = {layer: _ms(_median([s.get(layer, 0.0) for s in tracer.solve_layers[m]]))
                     for layer in tracing.LAYERS}
            report.append(f"  layer self ms {m:9s} " + " ".join(
                f"{k}={v:.3f}" for k, v in split.items() if v))
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "odlt" / "__init__.py").is_file():
        print(f"odlt sources not found under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        result, report = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except CheckFailed as exc:
        print(f"output check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in report:
        print("# " + line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
