"""Synthetic benchmark harness.

Scenes place the camera at the world origin with identity attitude looking
down +z. World points are drawn uniformly from an axis-aligned box, either
centered on the optical axis or offset to one side; pixels are exact
projections plus i.i.d. Gaussian noise truncated at 6 sigma.
Projected points are never clipped to the sensor, so large n and large sigma
do not bias the geometry.

Trials are paired: every method sees bit-identical scenes, with one RNG
stream per (seed, trial).

score() and summarize() are the one scoring path: run_monte_carlo and the
eval-colmap command both solve and score each problem with score() and
aggregate one method's scores with summarize().
"""

from __future__ import annotations

import concurrent.futures
import functools
import statistics
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import PnpError
from .geometry import (
    CameraIntrinsics,
    Pose,
    compose_projection,
    correspondence_arrays,
    project_points,
    rotation_angle_deg,
)
from .solvers import SolverConfig, solve

CENTERED_BOX = ((-2.0, -2.0, 4.0), (2.0, 2.0, 8.0))
UNCENTERED_BOX = ((1.0, 1.0, 4.0), (2.0, 2.0, 8.0))

DEFAULT_INTRINSICS = CameraIntrinsics(fx=800.0, fy=800.0, cx=320.0, cy=240.0)

_TRUNCATION_SIGMAS = 6.0


@dataclass(frozen=True)
class SyntheticScenario:
    """One benchmark cell: box, point count, noise level, trial budget."""

    box: tuple = CENTERED_BOX
    n: int = 50
    sigma_u: float = 1.0
    trials: int = 500
    seed: int = 0
    intrinsics: CameraIntrinsics = DEFAULT_INTRINSICS

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if not 0 <= self.sigma_u < np.inf:
            raise ValueError(f"sigma_u must be finite and >= 0, got {self.sigma_u}")
        if self.trials < 1:
            raise ValueError(f"trials must be positive, got {self.trials}")
        lo, hi = np.asarray(self.box[0], dtype=float), np.asarray(self.box[1], dtype=float)
        if lo.shape != (3,) or hi.shape != (3,) or not np.all(hi > lo):
            raise ValueError(f"box must be ((x0,y0,z0),(x1,y1,z1)) with hi > lo, got {self.box}")


@dataclass(frozen=True)
class TrialMetrics:
    """Per-trial errors for one method on one scene."""

    rot_err_deg: float
    pos_err: float
    mean_reproj_err: float
    runtime: float = float("nan")


def generate_scene(
    sc: SyntheticScenario, trial: int
) -> tuple[tuple[np.ndarray, np.ndarray], Pose]:
    """Deterministic scene for (sc.seed, trial): ((ps, us), truth pose).

    ps holds the (n, 3) world points and us the (n, 2) noisy pixels, the
    array pair that solve() and compute_metrics() take. The RNG stream draws
    the points first, then the pixel noise, so scenes are reproducible bit
    for bit across runs and across processes.
    """
    rng = np.random.default_rng([sc.seed, trial])
    lo = np.asarray(sc.box[0], dtype=float)
    hi = np.asarray(sc.box[1], dtype=float)
    ps = rng.uniform(lo, hi, (sc.n, 3))
    truth = Pose(R=np.eye(3), r=np.zeros(3))
    P = compose_projection(sc.intrinsics, truth)
    exact = project_points(P, ps)
    noise = np.clip(rng.standard_normal((sc.n, 2)), -_TRUNCATION_SIGMAS, _TRUNCATION_SIGMAS)
    us = exact + sc.sigma_u * noise
    return (ps, us), truth


def compute_metrics(result, truth: Pose, cs, K, runtime: float = float("nan")) -> TrialMetrics:
    """Errors of one solver result against the ground truth."""
    ps, us = correspondence_arrays(cs)
    P = compose_projection(K, result.pose)
    pred = project_points(P, ps)
    reproj = float(np.mean(np.linalg.norm(us - pred, axis=1)))
    return TrialMetrics(
        rot_err_deg=rotation_angle_deg(result.pose.R, truth.R),
        pos_err=float(np.linalg.norm(result.pose.r - truth.r)),
        mean_reproj_err=reproj,
        runtime=runtime,
    )


def score(
    cfg: SolverConfig, arrays, K, truth: Pose, timing_reps: int = 0
) -> Optional[TrialMetrics]:
    """Solve one problem with cfg and score the result against truth.

    With timing_reps > 0 the solve runs that many times and the median wall
    time becomes the runtime; otherwise the runtime is NaN. Returns None when
    solving or scoring raises PnpError (numpy's LinAlgError reaches here only
    as a named PnpError), so that the caller counts the problem as a failure.
    """
    try:
        if timing_reps > 0:
            reps = []
            for _ in range(timing_reps):
                t0 = time.perf_counter()
                result = solve(arrays, K, cfg)
                reps.append(time.perf_counter() - t0)
            runtime = statistics.median(reps)
        else:
            result = solve(arrays, K, cfg)
            runtime = float("nan")
        return compute_metrics(result, truth, arrays, K, runtime)
    except PnpError:
        return None


def summarize(method: str, metrics: Sequence[Optional[TrialMetrics]]) -> dict:
    """One aggregate row from one method's scores, None marking a failure.

    Rotation and position errors aggregate as RMSE over the successes;
    reprojection error and runtime (in ms) aggregate as means. Every
    aggregate is NaN when nothing succeeded. Failures are counted, not
    averaged.
    """
    ok = [m for m in metrics if m is not None]
    row = {"method": method, "trials": len(metrics), "failures": len(metrics) - len(ok)}
    if not ok:
        nan = float("nan")
        return dict(row, rot_rmse_deg=nan, pos_rmse=nan, mean_reproj_px=nan, mean_runtime_ms=nan)
    rot = np.array([m.rot_err_deg for m in ok])
    pos = np.array([m.pos_err for m in ok])
    reproj = np.array([m.mean_reproj_err for m in ok])
    runtime = np.array([m.runtime for m in ok])
    return {
        **row,
        "rot_rmse_deg": float(np.sqrt(np.mean(rot**2))),
        "pos_rmse": float(np.sqrt(np.mean(pos**2))),
        "mean_reproj_px": float(np.mean(reproj)),
        "mean_runtime_ms": float(np.mean(runtime) * 1e3),
    }


def _run_trial_range(
    sc: SyntheticScenario,
    configs: Sequence[SolverConfig],
    trials: Sequence[int],
    timing_reps: int,
) -> list:
    """Per-trial scores (None on failure) for each config, in trial order."""
    rows = []
    for trial in trials:
        arrays, truth = generate_scene(sc, trial)
        rows.append([score(cfg, arrays, sc.intrinsics, truth, timing_reps) for cfg in configs])
    return rows


def run_monte_carlo(
    sc: SyntheticScenario,
    methods: Sequence[str],
    timing_reps: int = 1,
    workers: int = 1,
) -> list[dict]:
    """Paired Monte Carlo over sc.trials scenes; one summarize() row per method name.

    With timing_reps > 0 every solve is timed (median of that many runs) and
    the trials run serially, so that concurrent workers never pollute the
    measurements; with timing_reps=0 the runtimes are NaN and contiguous
    trial ranges may be spread over a process pool (bit-identical results
    either way, since every trial regenerates its scene from (seed, trial)).
    """
    configs = [SolverConfig(method=m) for m in methods]
    if timing_reps > 0:
        workers = 1
    if workers > 1:
        step = -(-sc.trials // workers)
        ranges = [range(lo, min(lo + step, sc.trials)) for lo in range(0, sc.trials, step)]
        run_range = functools.partial(_run_trial_range, sc, configs, timing_reps=timing_reps)
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            rows = [row for part in pool.map(run_range, ranges) for row in part]
    else:
        rows = _run_trial_range(sc, configs, range(sc.trials), timing_reps)
    return [summarize(cfg.method, [row[j] for row in rows]) for j, cfg in enumerate(configs)]
