"""End-to-end pose solvers built from the linear engine.

Methods:
    dlt        unnormalized linear solve, unweighted Procrustes projection.
    ndlt       same, with pixel/point normalization (the practical baseline).
    odlt       normalized solve with optimal row weights from a preliminary
               subset estimate, information-weighted Procrustes rotation.
    odlt_lost  odlt rotation plus O(n) translation re-triangulation.
    ndlt_gn    ndlt followed by Gauss-Newton reprojection refinement.

All solvers are deterministic functions of (correspondences, intrinsics,
config): the only randomness is the seeded subset choice inside the
preliminary estimate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .dlt import MIN_POINTS, _assemble_arrays, solve_nullspace
from .errors import NegativeDepth, RankDeficient
from .geometry import (
    Pose,
    compose_projection,
    correspondence_arrays,
    intrinsic_matrix,
    nearest_rotation,
    rodrigues,
)
from .normalization import (
    PixelNormalization,
    PointNormalization,
    denormalize_projection,
    fit_pixel_normalization,
    fit_point_normalization,
)
from .se3 import (
    declamp_denormalize,
    lost_translation,
    recover_scale_and_position,
    weighted_procrustes,
)
from .weighting import (
    NEGATIVE_DEPTH_LIMIT,
    _preliminary_normalized,
    depths_under,
    weight_factors,
)

METHODS = ("dlt", "ndlt", "odlt", "odlt_lost", "ndlt_gn")

FLAG_MIXED_DEPTHS = "MixedDepths"
FLAG_DEGENERATE_WEIGHTS = "DegenerateWeights"
FLAG_FALLBACK_USED = "FallbackUsed"


@dataclass(frozen=True)
class SolverConfig:
    """Solver settings; defaults reproduce the published pipeline.

    force_unit_weights is a test hook: it replaces the optimal weights (both
    the row scalars and the Procrustes weight matrix) with ones, which must
    reduce odlt to ndlt.
    """

    method: str = "odlt"
    sigma_u: float = 1.0
    subset_size: int = 12
    seed: int = 0
    procrustes_iters: int = 1
    procrustes_tol: float = 1e-12
    reweight_iters: int = 1
    gn_max_iters: int = 10
    gn_tol: float = 1e-10
    force_unit_weights: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if not self.sigma_u > 0:
            raise ValueError(f"sigma_u must be positive, got {self.sigma_u}")
        if self.subset_size < MIN_POINTS:
            raise ValueError(f"subset_size must be >= {MIN_POINTS}, got {self.subset_size}")
        if not 1 <= self.procrustes_iters <= 5:
            raise ValueError(f"procrustes_iters must be in 1..5, got {self.procrustes_iters}")
        if self.reweight_iters < 1:
            raise ValueError(f"reweight_iters must be >= 1, got {self.reweight_iters}")
        if self.gn_max_iters < 1:
            raise ValueError(f"gn_max_iters must be >= 1, got {self.gn_max_iters}")


@dataclass(frozen=True)
class PnpResult:
    """Solver output: pose, fit quality, diagnostic flags, stage timings (s)."""

    pose: Pose
    reprojection_rms: float
    flags: frozenset = frozenset()
    timings: dict = field(default_factory=dict)


def _reprojection_rms(ps: np.ndarray, us: np.ndarray, K, pose: Pose) -> float:
    P = compose_projection(K, pose)
    w = ps @ P[:, :3].T + P[:, 3]
    pred = w[:, :2] / w[:, 2:3]
    return float(np.sqrt(np.mean(np.sum((us - pred) ** 2, axis=1))))


class _LinearOutcome:
    """Intermediate state shared by the linear methods."""

    __slots__ = ("sol", "pix", "pt", "P", "flags", "timings", "weights", "kept")

    def __init__(self, sol, pix, pt, P, flags, timings, weights, kept):
        self.sol = sol
        self.pix = pix
        self.pt = pt
        self.P = P
        self.flags = flags
        self.timings = timings
        self.weights = weights
        self.kept = kept


def _linear_solve(
    ps: np.ndarray,
    us: np.ndarray,
    cfg: SolverConfig,
    normalize: bool,
    weighted: bool,
    preliminary: Optional[np.ndarray] = None,
) -> _LinearOutcome:
    flags = set()
    timings = {}
    t0 = time.perf_counter()
    if normalize:
        pix = fit_pixel_normalization(us)
        pt = fit_point_normalization(ps)
        usn = pix.apply(us)
        psn = pt.apply(ps)
    else:
        pix = PixelNormalization.identity()
        pt = PointNormalization.identity()
        usn = us
        psn = ps
    timings["normalize"] = time.perf_counter() - t0

    kept = slice(None)
    weights = None
    if weighted:
        t0 = time.perf_counter()
        if preliminary is None:
            P0, used_full = _preliminary_normalized(psn, usn, cfg.subset_size, cfg.seed)
            if used_full:
                flags.add(FLAG_FALLBACK_USED)
        else:
            P0 = np.asarray(preliminary, dtype=float).reshape(3, 4)
        if cfg.force_unit_weights:
            weights = np.ones(psn.shape[0])
        else:
            depths = depths_under(P0, psn)
            neg = depths <= 0
            if neg.any():
                frac = float(neg.mean())
                if frac >= NEGATIVE_DEPTH_LIMIT:
                    raise NegativeDepth(
                        f"{frac:.0%} of points behind the preliminary camera"
                    )
                kept = ~neg
                depths = depths[kept]
            weights = 1.0 / (cfg.sigma_u * depths)
        timings["weights"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    ps_used = psn[kept] if weighted else psn
    us_used = usn[kept] if weighted else usn
    sol = solve_nullspace(_assemble_arrays(ps_used, us_used, weights), points=ps_used)
    if weighted and not cfg.force_unit_weights:
        for _ in range(cfg.reweight_iters - 1):
            depths = depths_under(sol.P, psn)
            neg = depths <= 0
            if neg.any():
                if float(neg.mean()) >= NEGATIVE_DEPTH_LIMIT:
                    raise NegativeDepth("re-weighting left too many points behind the camera")
                kept = ~neg
            else:
                kept = slice(None)
            weights = 1.0 / (cfg.sigma_u * depths[kept])
            ps_used, us_used = psn[kept], usn[kept]
            sol = solve_nullspace(_assemble_arrays(ps_used, us_used, weights), points=ps_used)
    timings["solve"] = time.perf_counter() - t0
    if sol.mixed_depths:
        flags.add(FLAG_MIXED_DEPTHS)
    P = denormalize_projection(sol.P, pix, pt)
    return _LinearOutcome(sol, pix, pt, P, flags, timings, weights, kept)


def _recover_pose(out: _LinearOutcome, K, cfg: SolverConfig, weighted: bool) -> Pose:
    t0 = time.perf_counter()
    dn = declamp_denormalize(out.sol, K, out.pix, out.pt)
    if weighted:
        W = np.ones((3, 3)) if cfg.force_unit_weights else dn.W
        R, fallback = weighted_procrustes(
            dn.R_acute, W, max_iters=cfg.procrustes_iters, tol=cfg.procrustes_tol, det=dn.det
        )
        if fallback:
            out.flags.add(FLAG_DEGENERATE_WEIGHTS)
    else:
        R = nearest_rotation(dn.R_acute)
    pose = recover_scale_and_position(dn.R_acute, dn.r_acute, R, det=dn.det)
    out.timings["recover"] = time.perf_counter() - t0
    return pose


def _finish(ps, us, K, pose, flags, timings, t_start) -> PnpResult:
    t0 = time.perf_counter()
    rms = _reprojection_rms(ps, us, K, pose)
    timings["reprojection"] = time.perf_counter() - t0
    timings["total"] = time.perf_counter() - t_start
    return PnpResult(
        pose=pose, reprojection_rms=rms, flags=frozenset(flags), timings=timings
    )


def solve_dlt(cs, K, cfg: Optional[SolverConfig] = None) -> PnpResult:
    """Classical DLT: raw linear solve, unweighted rotation projection."""
    cfg = cfg or SolverConfig(method="dlt")
    t_start = time.perf_counter()
    ps, us = correspondence_arrays(cs)
    out = _linear_solve(ps, us, cfg, normalize=False, weighted=False)
    pose = _recover_pose(out, K, cfg, weighted=False)
    return _finish(ps, us, K, pose, out.flags, out.timings, t_start)


def solve_ndlt(cs, K, cfg: Optional[SolverConfig] = None) -> PnpResult:
    """Normalized DLT: as solve_dlt with similarity-normalized data."""
    cfg = cfg or SolverConfig(method="ndlt")
    t_start = time.perf_counter()
    ps, us = correspondence_arrays(cs)
    out = _linear_solve(ps, us, cfg, normalize=True, weighted=False)
    pose = _recover_pose(out, K, cfg, weighted=False)
    return _finish(ps, us, K, pose, out.flags, out.timings, t_start)


def solve_odlt(
    cs, K, cfg: Optional[SolverConfig] = None, preliminary: Optional[np.ndarray] = None
) -> PnpResult:
    """Optimally weighted DLT.

    Two-shot: a preliminary subset estimate supplies per-point depths, rows
    are scaled by q_i = 1/(sigma_u depth_i), and the rotation is recovered
    by the information-weighted Procrustes projection.

    Args:
        preliminary: optional override for the preliminary estimate, a 3x4
            matrix in the normalized coordinates of the full set (advanced
            use; mainly for sensitivity studies).
    """
    cfg = cfg or SolverConfig(method="odlt")
    t_start = time.perf_counter()
    ps, us = correspondence_arrays(cs)
    out = _linear_solve(ps, us, cfg, normalize=True, weighted=True, preliminary=preliminary)
    pose = _recover_pose(out, K, cfg, weighted=True)
    return _finish(ps, us, K, pose, out.flags, out.timings, t_start)


def solve_odlt_lost(
    cs, K, cfg: Optional[SolverConfig] = None, preliminary: Optional[np.ndarray] = None
) -> PnpResult:
    """odlt rotation with the translation re-triangulated (LOST).

    The rotation is bit-identical to solve_odlt's; the camera center is
    replaced by the solution of the sliced linear system with weights
    recomputed from the final projection estimate.
    """
    cfg = cfg or SolverConfig(method="odlt_lost")
    t_start = time.perf_counter()
    ps, us = correspondence_arrays(cs)
    out = _linear_solve(ps, us, cfg, normalize=True, weighted=True, preliminary=preliminary)
    pose = _recover_pose(out, K, cfg, weighted=True)

    t0 = time.perf_counter()
    P_final = compose_projection(K, pose)
    depths = depths_under(P_final, ps)
    front = depths > 0
    q = weight_factors(P_final, ps[front], cfg.sigma_u)
    t = lost_translation((ps[front], us[front]), K, pose.R, q)
    pose = Pose(R=pose.R, r=-pose.R.T @ t)
    out.timings["lost"] = time.perf_counter() - t0
    return _finish(ps, us, K, pose, out.flags, out.timings, t_start)


def refine_gauss_newton(cs, K, init: Pose, cfg: Optional[SolverConfig] = None) -> PnpResult:
    """Minimize the reprojection error by Gauss-Newton from a given pose.

    Parameters are a rotation-vector increment composed on the left and the
    camera center. Steps that increase the cost are halved up to 10 times;
    if no decrease is found the current pose is returned with the
    FallbackUsed flag. Iteration stops when the cost decrease drops below
    gn_tol or after gn_max_iters accepted steps.
    """
    cfg = cfg or SolverConfig(method="ndlt_gn")
    t_start = time.perf_counter()
    ps, us = correspondence_arrays(cs)
    Km = intrinsic_matrix(K)
    flags = set()
    timings = {}

    R = init.R.copy()
    r = init.r.copy()
    cost = _gn_cost(ps, us, Km, R, r)
    t0 = time.perf_counter()
    for _ in range(cfg.gn_max_iters):
        e, J = _gn_residuals_jacobian(ps, us, Km, R, r)
        JtJ = J.T @ J
        try:
            delta = -np.linalg.solve(JtJ, J.T @ e)
        except np.linalg.LinAlgError as exc:
            raise RankDeficient("Gauss-Newton normal matrix is singular") from exc
        accepted = False
        for halving in range(11):
            step = delta / (2.0**halving)
            R_new = rodrigues(step[:3]) @ R
            r_new = r + step[3:]
            cost_new = _gn_cost(ps, us, Km, R_new, r_new)
            if cost_new <= cost:
                accepted = True
                break
        if not accepted:
            flags.add(FLAG_FALLBACK_USED)
            break
        decrease = cost - cost_new
        R, r, cost = R_new, r_new, cost_new
        if decrease < cfg.gn_tol:
            break
    timings["refine"] = time.perf_counter() - t0

    pose = Pose(R=nearest_rotation(R), r=r)
    return _finish(ps, us, Km, pose, flags, timings, t_start)


def _gn_cost(ps, us, Km, R, r) -> float:
    x = (ps - r) @ R.T
    y = x @ Km.T
    if np.abs(y[:, 2]).min(initial=np.inf) < 1e-12:
        return np.inf
    pred = y[:, :2] / y[:, 2:3]
    d = us - pred
    return float(np.sum(d * d))


def _gn_residuals_jacobian(ps, us, Km, R, r):
    """Stacked residuals (2n,) and Jacobian (2n, 6) for [dphi, dr]."""
    n = ps.shape[0]
    x = (ps - r) @ R.T
    y = x @ Km.T
    z = y[:, 2]
    pred = y[:, :2] / z[:, None]
    e = (us - pred).reshape(2 * n)
    # d(pred)/dy rows: [[1/z, 0, -y1/z^2], [0, 1/z, -y2/z^2]]
    Dh = np.zeros((n, 2, 3))
    inv_z = 1.0 / z
    Dh[:, 0, 0] = inv_z
    Dh[:, 1, 1] = inv_z
    Dh[:, 0, 2] = -y[:, 0] * inv_z * inv_z
    Dh[:, 1, 2] = -y[:, 1] * inv_z * inv_z
    Dpi = Dh @ Km  # (n, 2, 3), d(pred)/dx
    # x(dphi) = (I + [dphi x]) x to first order, so dx/ddphi = -[x x];
    # residual e = u - pred picks up another minus sign.
    Xx = np.zeros((n, 3, 3))
    Xx[:, 0, 1] = -x[:, 2]
    Xx[:, 0, 2] = x[:, 1]
    Xx[:, 1, 0] = x[:, 2]
    Xx[:, 1, 2] = -x[:, 0]
    Xx[:, 2, 0] = -x[:, 1]
    Xx[:, 2, 1] = x[:, 0]
    J = np.empty((n, 2, 6))
    J[:, :, :3] = Dpi @ Xx
    J[:, :, 3:] = Dpi @ R
    return e, J.reshape(2 * n, 6)


def estimate_projection(
    cs,
    method: str = "ndlt",
    cfg: Optional[SolverConfig] = None,
    preliminary: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Estimate the 3x4 projection matrix only (no calibration required).

    Supports the linear methods ("dlt", "ndlt", "odlt"). The returned matrix
    is in the original (de-normalized) coordinates, scaled to unit Frobenius
    norm with positive mean depth.
    """
    if method not in ("dlt", "ndlt", "odlt"):
        raise ValueError(f"projection-only estimation needs a linear method, got {method!r}")
    cfg = cfg or SolverConfig(method=method)
    ps, us = correspondence_arrays(cs)
    out = _linear_solve(
        ps,
        us,
        cfg,
        normalize=method != "dlt",
        weighted=method == "odlt",
        preliminary=preliminary,
    )
    P = out.P / np.linalg.norm(out.P)
    if depths_under(P, ps).mean() < 0:
        P = -P
    return P


def solve(cs, K, cfg: Optional[SolverConfig] = None) -> PnpResult:
    """Dispatch to the solver named by cfg.method."""
    cfg = cfg or SolverConfig()
    if cfg.method == "dlt":
        return solve_dlt(cs, K, cfg)
    if cfg.method == "ndlt":
        return solve_ndlt(cs, K, cfg)
    if cfg.method == "odlt":
        return solve_odlt(cs, K, cfg)
    if cfg.method == "odlt_lost":
        return solve_odlt_lost(cs, K, cfg)
    if cfg.method == "ndlt_gn":
        t_start = time.perf_counter()
        base = solve_ndlt(cs, K, replace(cfg, method="ndlt"))
        refined = refine_gauss_newton(cs, K, base.pose, cfg)
        timings = dict(base.timings)
        timings["refine"] = refined.timings.get("refine", 0.0)
        timings["total"] = time.perf_counter() - t_start
        return PnpResult(
            pose=refined.pose,
            reprojection_rms=refined.reprojection_rms,
            flags=base.flags | refined.flags,
            timings=timings,
        )
    raise ValueError(f"unknown method {cfg.method!r}")
