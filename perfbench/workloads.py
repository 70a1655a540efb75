"""Workloads of the odlt benchmark: seeded inputs and the timed closed loop.

One caller in one process solves one problem at a time and waits for each
result, as a library user solving one pose per frame does. odlt only ever
sees generated arrays, `Correspondence` lists or model files; every call
goes through a module attribute looked up at call time, so the tracer's
wrappers (tracing.py) take effect without touching odlt.
"""

from __future__ import annotations

import importlib
import resource
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from reference import HostClock

METHODS = ("dlt", "ndlt", "odlt", "odlt_lost", "ndlt_gn")

# Stages each method records in PnpResult.timings (besides "total").
STAGES = {
    "dlt": ("normalize", "solve", "recover", "reprojection"),
    "ndlt": ("normalize", "solve", "recover", "reprojection"),
    "odlt": ("normalize", "weights", "solve", "recover", "reprojection"),
    "odlt_lost": ("normalize", "weights", "solve", "recover", "lost", "reprojection"),
    "ndlt_gn": ("normalize", "solve", "recover", "refine", "reprojection"),
}

MODULES = ("errors", "geometry", "normalization", "weighting", "dlt", "se3", "solvers",
           "evaluation", "colmap")

NOISE_PX = 1.0

# Criterion 01's exactness bounds for noise-free input.
EXACT_ROT_DEG = 1e-6
EXACT_POS = 1e-8


@dataclass(frozen=True)
class Synthetic:
    """Monte Carlo trials: generate_scene -> correspondence_arrays -> 5 solves -> metrics.

    min_items trials always run; they form the fixed prefix over which
    accuracy and counts are taken, so both repeat exactly for a seed.
    """

    name: str
    box: str  # "centered" or "uncentered", evaluation's boxes
    n: int
    min_items: int

    @property
    def ref_n(self) -> int:
        """Size of the reference kernel's problem (reference.py)."""
        return self.n


@dataclass(frozen=True)
class ColmapEval:
    """Passes over a synthetic COLMAP model, as `odlt eval-colmap` runs it.

    As with eval-colmap on a real model, the model is fixed (generated from
    model_seed) and the run's seed drives the pixel noise and the solvers'
    subset choice. Observation counts per image are the log-spaced
    quantiles of n_min..n_max in shuffled order. The first min_passes
    passes are the fixed prefix for accuracy and counts; each pass draws
    fresh noise, so the accuracy averages min_passes noise draws of the
    few small images that dominate it.
    """

    name: str
    images: int = 200
    n_min: int = 12
    n_max: int = 3000
    n_points: int = 3000
    cameras: int = 4
    model_seed: int = 0
    min_passes: int = 5

    @property
    def ref_n(self) -> int:
        """Size of the reference kernel's problem: the median image."""
        return round((self.n_min * self.n_max) ** 0.5)


WORKLOADS = {
    w.name: w
    for w in (
        Synthetic("paper_n50", box="centered", n=50, min_items=1000),
        Synthetic("large_n", box="uncentered", n=2000, min_items=300),
        ColmapEval("colmap_eval"),
    )
}


def import_odlt() -> SimpleNamespace:
    """Import odlt afresh (dropping any loaded copy) and return its modules."""
    for name in [n for n in sys.modules if n == "odlt" or n.startswith("odlt.")]:
        del sys.modules[name]
    mods = {"odlt": importlib.import_module("odlt")}
    for name in MODULES:
        mods[name] = importlib.import_module(f"odlt.{name}")
    return SimpleNamespace(**mods)


class Recorder:
    """Per-method latencies, stage timings, accuracy and failures of one phase."""

    def __init__(self, ref_n: int):
        self.clock = HostClock(ref_n)
        self.start = {m: [] for m in METHODS}
        self.wall = {m: [] for m in METHODS}
        self.stages = {m: {s: [] for s in STAGES[m]} for m in METHODS}
        self.untimed = {m: [] for m in METHODS}
        self.rot_err = {m: [] for m in METHODS}
        self.flag_counts = {m: {} for m in METHODS}
        self.accuracy_solves = {m: 0 for m in METHODS}
        self.attempted = 0
        self.failed = 0
        self.items = 0
        self.peak_rss_mb = 0.0

    def prefix_done(self) -> None:
        """Peak RSS once the fixed prefix is done; later growth is only this
        recorder's own lists, which grow with the host's speed."""
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def solve(self, mods, cfg, cs, K, truth, accuracy: bool) -> None:
        """One timed solve() call, then its metrics against the truth."""
        method = cfg.method
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = mods.odlt.solve(cs, K, cfg)
        except (mods.errors.PnpError, np.linalg.LinAlgError):
            self.failed += 1
            return
        wall = time.perf_counter() - t0
        self.start[method].append(t0)
        self.wall[method].append(wall)
        staged = 0.0
        for stage, samples in self.stages[method].items():
            t = result.timings.get(stage, 0.0)
            samples.append(t)
            staged += t
        self.untimed[method].append(wall - staged)
        metrics = mods.evaluation.compute_metrics(result, truth, cs, K)
        if accuracy:
            self.rot_err[method].append(metrics.rot_err_deg)
            self.accuracy_solves[method] += 1
            for flag in result.flags:
                self.flag_counts[method][flag] = self.flag_counts[method].get(flag, 0) + 1


# -- synthetic workloads -----------------------------------------------------


def _scenario(mods, w: Synthetic, seed: int, sigma_u: float = NOISE_PX):
    ev = mods.evaluation
    box = ev.CENTERED_BOX if w.box == "centered" else ev.UNCENTERED_BOX
    return ev.SyntheticScenario(box=box, n=w.n, sigma_u=sigma_u, trials=1, seed=seed)


def run_synthetic(mods, w: Synthetic, seed, seconds, tracer=None, min_items=None) -> Recorder:
    """Trials 0, 1, ... until `seconds` have passed and min_items are done."""
    min_items = w.min_items if min_items is None else min_items
    sc = _scenario(mods, w, seed)
    K = sc.intrinsics
    configs = [mods.solvers.SolverConfig(method=m) for m in METHODS]
    rec = Recorder(w.ref_n)
    trial = 0
    t_start = time.perf_counter()
    while trial < min_items or time.perf_counter() - t_start < seconds:
        prefix = trial < min_items
        if tracer is not None:
            tracer.counting = prefix
        cs, truth = mods.evaluation.generate_scene(sc, trial)
        arrays = mods.geometry.correspondence_arrays(cs)
        for cfg in configs:
            rec.solve(mods, cfg, arrays, K, truth, accuracy=prefix)
        trial += 1
        if trial == min_items:
            rec.prefix_done()
        rec.clock.tick()
    rec.clock.stop()
    rec.items = trial
    return rec


def setup_synthetic(w: Synthetic, seed: int):
    """Import odlt and warm every method up on a few trials."""
    mods = import_odlt()
    run_synthetic(mods, w, seed, seconds=0.0, min_items=3)
    return mods, None


def exact_errors(mods, w, seed: int) -> list:
    """Noise-free solves: (method, n, rot_deg, pos) for every method.

    Criterion 01's scenes (both boxes, n = 6, 20, 100), plus for a synthetic
    workload a few scenes of its own box and n.
    """
    ev = mods.evaluation
    shapes = [(box, n) for box in (ev.CENTERED_BOX, ev.UNCENTERED_BOX) for n in (6, 20, 100)]
    if isinstance(w, Synthetic):
        shapes.append((_scenario(mods, w, seed).box, w.n))
    out = []
    for box, n in shapes:
        sc = ev.SyntheticScenario(box=box, n=n, sigma_u=0.0, trials=1, seed=seed)
        for trial in range(2):
            cs, truth = ev.generate_scene(sc, trial)
            arrays = mods.geometry.correspondence_arrays(cs)
            out += _solve_errors(mods, arrays, sc.intrinsics, truth)
    return out


def _solve_errors(mods, arrays, K, truth) -> list:
    out = []
    for m in METHODS:
        result = mods.odlt.solve(arrays, K, mods.solvers.SolverConfig(method=m))
        rot = mods.geometry.rotation_angle_deg(result.pose.R, truth.R)
        pos = float(np.linalg.norm(result.pose.r - truth.r))
        out.append((m, arrays[0].shape[0], rot, pos))
    return out


# -- COLMAP evaluation ---------------------------------------------------------


@dataclass
class ColmapInputs:
    """A written model and the noise-free arrays behind a few of its images."""

    model_dir: Path
    model_bytes: int
    exact: list  # (ps, us, K, truth) of the smallest, median and largest image


def _look_at(rng, center, target):
    z = target - center
    z /= np.linalg.norm(z)
    up = rng.standard_normal(3)
    x = np.cross(up, z)
    x /= np.linalg.norm(x)
    return np.stack([x, np.cross(z, x), z])  # rows: camera axes in world frame


def make_colmap_model(mods, w: ColmapEval, model_dir: Path) -> ColmapInputs:
    """Write the synthetic model with colmap.write_model.

    Points fill a 4-unit cube at the origin; cameras sit 10-16 units away on
    random bearings, look near the origin with random roll, and see every
    point in front of them. Pixels are exact projections (written at full
    precision); a tenth as many untriangulated detections (id -1) ride along.
    """
    cm, geo = mods.colmap, mods.geometry
    rng = np.random.default_rng(w.model_seed)
    counts = np.rint(np.geomspace(w.n_min, w.n_max, w.images)).astype(int)
    rng.shuffle(counts)
    points = rng.uniform(-2.0, 2.0, (w.n_points, 3))

    cameras = {}
    for cid in range(1, w.cameras + 1):
        f = rng.uniform(700.0, 1300.0)
        simple = cid % 2 == 0
        intr = geo.CameraIntrinsics(
            fx=f, fy=f if simple else f * rng.uniform(0.97, 1.03),
            cx=rng.uniform(780.0, 820.0), cy=rng.uniform(580.0, 620.0),
        )
        cameras[cid] = cm.ColmapCamera(
            camera_id=cid, model="SIMPLE_PINHOLE" if simple else "PINHOLE",
            width=1600, height=1200, intrinsics=intr,
        )

    images = {}
    tracks = {pid: [] for pid in range(1, w.n_points + 1)}
    arrays = {}
    for k, count in enumerate(counts):
        image_id = k + 1
        cid = int(rng.integers(1, w.cameras + 1))
        bearing = rng.standard_normal(3)
        center = bearing / np.linalg.norm(bearing) * rng.uniform(10.0, 16.0)
        R = _look_at(rng, center, rng.uniform(-0.5, 0.5, 3))
        qvec = geo.rotation_to_quat(R)
        R = geo.quat_to_rotation(qvec)  # the pose build_problems will read back
        tvec = -R @ center
        idx = rng.choice(w.n_points, size=int(count), replace=False)
        cam = (points[idx] @ R.T + tvec) @ cameras[cid].intrinsics.matrix.T
        pix = cam[:, :2] / cam[:, 2:3]
        extra = int(count) // 10
        xys = np.concatenate([pix, rng.uniform(0.0, 1600.0, (extra, 2))])
        ids = np.concatenate([idx + 1, np.full(extra, -1)])
        order = rng.permutation(xys.shape[0])
        xys, ids = xys[order], ids[order]
        for j, pid in enumerate(ids):
            if pid > 0:
                tracks[int(pid)].append((image_id, j))
        images[image_id] = cm.ColmapImage(
            image_id=image_id, name=f"img_{image_id:04d}.png", camera_id=cid,
            qvec=qvec, tvec=tvec, xys=xys, point3d_ids=ids,
        )
        arrays[image_id] = (points[idx], pix, cameras[cid].intrinsics,
                            geo.Pose(R=R, r=center))

    points3d = {
        pid: cm.ColmapPoint3D(
            point3d_id=pid, xyz=points[pid - 1], rgb=np.array([128, 128, 128]),
            error=0.5, track=np.array(track, dtype=np.int64).reshape(-1, 2),
        )
        for pid, track in tracks.items()
    }
    cm.write_model(cm.ColmapModel(cameras=cameras, images=images, points3d=points3d), model_dir)
    by_size = sorted(arrays, key=lambda i: arrays[i][0].shape[0])
    picks = (by_size[0], by_size[len(by_size) // 2], by_size[-1])
    return ColmapInputs(
        model_dir=model_dir,
        model_bytes=sum(p.stat().st_size for p in model_dir.iterdir()),
        exact=[arrays[i] for i in picks],
    )


def run_colmap(mods, w: ColmapEval, seed, seconds, inputs: ColmapInputs, tracer=None) -> Recorder:
    """Whole passes of eval-colmap's calls until `seconds` have passed.

    Per pass, in eval-colmap's order: parse_model, build_problems, 1 px
    noise on every problem from one seeded stream (continued across
    passes), then for each method a solve and compute_metrics per image.
    An item is one image.
    """
    configs = [mods.solvers.SolverConfig(method=m, sigma_u=max(NOISE_PX, 1.0), seed=seed)
               for m in METHODS]
    rec = Recorder(w.ref_n)
    rng = np.random.default_rng(seed)
    passes = 0
    t_start = time.perf_counter()
    while passes < w.min_passes or time.perf_counter() - t_start < seconds:
        prefix = passes < w.min_passes
        if tracer is not None:
            tracer.counting = prefix
        model = mods.colmap.parse_model(inputs.model_dir)
        rec.clock.tick()
        problems, _ = mods.colmap.build_problems(model)
        rec.clock.tick()
        noisy = []
        for prob in problems:
            cs = prob.correspondences
            us = np.array([c.u for c in cs])
            us = us + NOISE_PX * rng.standard_normal(us.shape)
            noisy.append([mods.geometry.Correspondence(p=c.p, u=u) for c, u in zip(cs, us)])
            rec.clock.tick()
        for cfg in configs:
            for prob, cs in zip(problems, noisy):
                rec.solve(mods, cfg, cs, prob.intrinsics, prob.truth, accuracy=prefix)
                rec.clock.tick()
        passes += 1
        rec.items += len(problems)
        del model, problems, noisy  # one model in memory at a time, as in eval-colmap
        if passes == w.min_passes:
            rec.prefix_done()
    rec.clock.stop()
    return rec


def setup_colmap(w: ColmapEval, workdir: Path):
    """Import odlt, write the model to a fresh directory, warm every method up."""
    mods = import_odlt()
    model_dir = Path(tempfile.mkdtemp(prefix="model-", dir=workdir))
    inputs = make_colmap_model(mods, w, model_dir)
    for ps, us, K, _ in inputs.exact:
        for m in METHODS:
            mods.odlt.solve((ps, us), K, mods.solvers.SolverConfig(method=m))
    return mods, inputs


def colmap_exact_errors(mods, inputs: ColmapInputs) -> list:
    """Noise-free solves of the smallest, median and largest model image."""
    out = []
    for ps, us, K, truth in inputs.exact:
        out += _solve_errors(mods, (ps, us), K, truth)
    return out

