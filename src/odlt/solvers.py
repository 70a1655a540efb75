"""End-to-end pose solvers built from the linear engine.

solve() is the one pose pipeline. Every method runs the linear solve, the
pose recovery and a final reprojection; STAGES says which optional stages
it adds:

    normalize  similarity-normalize pixels and points before the linear solve.
    weighted   scale the rows by q_i = 1/(sigma_u depth_i) from a preliminary
               unweighted estimate, and project the rotation with the
               information-weighted Procrustes step.
    lost       re-triangulate the translation with the rotation fixed (O(n)).
    refine     Gauss-Newton on the reprojection error from the linear pose.

All solvers are deterministic functions of (correspondences, intrinsics,
config); the only randomness is the seeded subset choice that the preliminary
estimate makes from the chunked-QR crossover (2n >= dlt._QR_CHUNK_MIN_ROWS) up.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .dlt import (
    _QR_CHUNK_MIN_ROWS,
    MIN_POINTS,
    DltSolution,
    _assemble_arrays,
    solve_nullspace,
)
from .errors import NegativeDepth, RankDeficient, TooFewPoints
from .geometry import (
    Pose,
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
from .weighting import NEGATIVE_DEPTH_LIMIT, _preliminary_normalized, depths_under, weight_factors


class Stages(NamedTuple):
    """The optional stages one method runs, as the module docstring defines them."""

    normalize: bool
    weighted: bool
    lost: bool
    refine: bool


STAGES = {
    "dlt": Stages(normalize=False, weighted=False, lost=False, refine=False),
    "ndlt": Stages(normalize=True, weighted=False, lost=False, refine=False),
    "odlt": Stages(normalize=True, weighted=True, lost=False, refine=False),
    "odlt_lost": Stages(normalize=True, weighted=True, lost=True, refine=False),
    "ndlt_gn": Stages(normalize=True, weighted=False, lost=False, refine=True),
}

METHODS = tuple(STAGES)

FLAG_MIXED_DEPTHS = "MixedDepths"
FLAG_DEGENERATE_WEIGHTS = "DegenerateWeights"
FLAG_FALLBACK_USED = "FallbackUsed"

_GN_MAX_ITERS = 10
_GN_TOL = 1e-10


@dataclass(frozen=True)
class SolverConfig:
    """Solver settings; defaults reproduce the published pipeline.

    method picks the STAGES row that solve() runs. sigma_u sets the weights of
    the weighted stage and LOST, but scales them all alike (poses move < 1e-12).
    seed draws the preliminary subset of weighting.SUBSET_SIZE points, from
    n = 768 points up; below that it has no effect.

    force_unit_weights is a test hook: it replaces the optimal weights (both
    the row scalars and the Procrustes weight matrix) with ones, which must
    reduce odlt to ndlt.
    """

    method: str = "odlt"
    sigma_u: float = 1.0
    seed: int = 0
    force_unit_weights: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if not self.sigma_u > 0:
            raise ValueError(f"sigma_u must be positive, got {self.sigma_u}")


@dataclass(frozen=True)
class PnpResult:
    """Solver output: pose, fit quality, diagnostic flags, stage timings (s)."""

    pose: Pose
    reprojection_rms: float
    flags: frozenset = frozenset()
    timings: dict = field(default_factory=dict)


def _reprojection_rms(ps: np.ndarray, us: np.ndarray, Km: np.ndarray, pose: Pose) -> float:
    return float(np.sqrt(_gn_cost(ps, us, Km, pose.R, pose.r) / ps.shape[0]))


class _LinearOutcome(NamedTuple):
    """Null-space solution, the normalizations it lives in, flags, timings."""

    sol: DltSolution
    pix: PixelNormalization
    pt: PointNormalization
    flags: set
    timings: dict


def _linear_solve(
    ps: np.ndarray, us: np.ndarray, cfg: SolverConfig, normalize: bool, weighted: bool
) -> _LinearOutcome:
    # Checked before any stage runs: normalization divides by n.
    if ps.shape[0] < MIN_POINTS:
        raise TooFewPoints(ps.shape[0], MIN_POINTS)
    flags = set()
    timings = {}
    t0 = time.perf_counter()
    if normalize:
        pix = fit_pixel_normalization(us)
        pt = fit_point_normalization(ps)
        us = pix.apply(us)
        ps = pt.apply(ps)
    else:
        pix = PixelNormalization.identity()
        pt = PointNormalization.identity()
    timings["normalize"] = time.perf_counter() - t0

    A = weights = None
    if weighted:
        t0 = time.perf_counter()
        # Below the chunked-QR crossover one A serves the preliminary and the final solve.
        A = _assemble_arrays(ps, us) if 2 * ps.shape[0] < _QR_CHUNK_MIN_ROWS else None
        _, depths, used_full = _preliminary_normalized(ps, us, cfg.seed, A)
        if used_full:
            flags.add(FLAG_FALLBACK_USED)
        if not cfg.force_unit_weights:
            neg = depths <= 0
            if neg.any():
                frac = float(neg.mean())
                if frac >= NEGATIVE_DEPTH_LIMIT:
                    raise NegativeDepth(f"{frac:.0%} of points behind the preliminary camera")
                front = ~neg
                ps, us, depths = ps[front], us[front], depths[front]
                A = None if A is None else A.reshape(-1, 24)[front].reshape(-1, 12)
            weights = weight_factors(depths, cfg.sigma_u)
            if A is not None:
                rows = A.reshape(-1, 24)  # a view: one point's two rows per row
                rows *= weights[:, None]
        timings["weights"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    sol = solve_nullspace(_assemble_arrays(ps, us, weights) if A is None else A, points=ps)
    timings["solve"] = time.perf_counter() - t0
    if sol.mixed_depths:
        flags.add(FLAG_MIXED_DEPTHS)
    return _LinearOutcome(sol, pix, pt, flags, timings)


def solve(cs, K, cfg: Optional[SolverConfig] = None) -> PnpResult:
    """Estimate the camera pose of cs = (points (n,3), pixels (n,2)) or a
    sequence of Correspondence, under intrinsics K, with the stages that
    STAGES lists for cfg.method (default odlt).

    The inputs are checked once: the arrays and K here, the point count first
    thing in the linear stage, which estimate_projection() shares. Every
    stage below takes the checked arrays and the 3x3 intrinsic matrix and
    returns a pose. LOST keeps the rotation bit for bit and replaces the
    camera center, with weights recomputed from the projection of the
    recovered pose.
    """
    cfg = cfg or SolverConfig()
    normalize, weighted, lost, refine = STAGES[cfg.method]
    t_start = time.perf_counter()
    ps, us = correspondence_arrays(cs)
    Km = intrinsic_matrix(K)
    out = _linear_solve(ps, us, cfg, normalize, weighted)
    flags, timings = out.flags, out.timings

    t0 = time.perf_counter()
    dn = declamp_denormalize(out.sol, Km, out.pix, out.pt, weights=weighted)
    if weighted:
        W = np.ones((3, 3)) if cfg.force_unit_weights else dn.W
        R, fallback = weighted_procrustes(dn.R_acute, W, dn.det)
        if fallback:
            flags.add(FLAG_DEGENERATE_WEIGHTS)
    else:
        R = nearest_rotation(dn.R_acute)
    pose = recover_scale_and_position(dn.r_acute, R, dn.det)
    timings["recover"] = time.perf_counter() - t0

    if lost:
        t0 = time.perf_counter()
        R = pose.R
        # Depths under K [R | -R r]: K's third row is (0, 0, 1), so K drops out.
        depths = ps @ R[2] + (-R @ pose.r)[2]
        front = depths > 0
        q = weight_factors(depths[front], cfg.sigma_u)
        t = lost_translation(ps[front], us[front], Km, R, q)
        pose = Pose._from_rotation(R, -R.T @ t)
        timings["lost"] = time.perf_counter() - t0
    if refine:
        t0 = time.perf_counter()
        pose, fell_back = refine_gauss_newton(ps, us, Km, pose)
        if fell_back:
            flags.add(FLAG_FALLBACK_USED)
        timings["refine"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    rms = _reprojection_rms(ps, us, Km, pose)
    timings["reprojection"] = time.perf_counter() - t0
    timings["total"] = time.perf_counter() - t_start
    return PnpResult(pose=pose, reprojection_rms=rms, flags=frozenset(flags), timings=timings)


def refine_gauss_newton(
    ps: np.ndarray, us: np.ndarray, Km: np.ndarray, init: Pose
) -> tuple[Pose, bool]:
    """Minimize the reprojection error by Gauss-Newton from a given pose.

    ps (n,3) and us (n,2) are checked float arrays and Km the 3x3 intrinsic
    matrix, as solve() passes them. Parameters are a rotation-vector
    increment composed on the left and the camera center. Steps that
    increase the cost are halved up to 10 times; if no decrease is found the
    current pose is returned, and fell_back is True unless the step's
    predicted decrease -g^T delta (g = J^T e) is below _GN_TOL, i.e. the
    pose has already converged. Iteration stops when the cost decrease drops
    below _GN_TOL or after _GN_MAX_ITERS accepted steps.

    Returns:
        (pose, fell_back).
    """
    R = init.R.copy()
    r = init.r.copy()
    cost = _gn_cost(ps, us, Km, R, r)
    fell_back = False
    for _ in range(_GN_MAX_ITERS):
        e, J = _gn_residuals_jacobian(ps, us, Km, R, r)
        JtJ = J.T @ J
        g = J.T @ e
        try:
            delta = -np.linalg.solve(JtJ, g)
        except np.linalg.LinAlgError as exc:
            raise RankDeficient("Gauss-Newton normal matrix is singular") from exc
        for halving in range(11):
            step = delta / (2.0**halving)
            R_new = rodrigues(step[:3]) @ R
            r_new = r + step[3:]
            cost_new = _gn_cost(ps, us, Km, R_new, r_new)
            if cost_new <= cost:
                break
        else:
            # A failure only if the linear model promised a real decrease;
            # at convergence the cost sits at rounding level.
            fell_back = bool(-(g @ delta) >= _GN_TOL)
            break
        decrease = cost - cost_new
        R, r, cost = R_new, r_new, cost_new
        if decrease < _GN_TOL:
            break
    return Pose._from_rotation(nearest_rotation(R), r), fell_back


def _gn_cost(ps, us, Km, R, r) -> float:
    KR = Km @ R
    y = KR @ ps.T - (KR @ r)[:, None]
    if np.abs(y[2]).min(initial=np.inf) < 1e-12:
        return np.inf
    d = y[:2] / y[2]
    d -= us.T
    return float(np.vdot(d, d))


def _gn_residuals_jacobian(ps, us, Km, R, r):
    """Stacked residuals (2n,) and Jacobian (2n, 6) for [dphi, dr], rows
    interleaved u, v per point.

    With x = R (p - r), normalized coordinates (a, b) = (x1/x3, x2/x3) and
    (U, V) = K_2x2 (a, b), the predicted pixel less the principal point, the
    point interaction matrix (Chaumette & Hutchinson 2006) is

        d(a, b)/d(dphi) = [[-a b, 1 + a^2, -b], [-(1 + b^2), a b, a]]
        d(a, b)/d(r)    = -[R_1 - a R_3; R_2 - b R_3] / x3

    for the rotation increment composed on the left and the camera center.
    Applying -K_2x2 = -[[fx, s], [0, fy]] gives the rows of J in closed form:

        u: (U b + s, -(U a + fx), fx b - s a, (fx R_1 + s R_2 - U R_3) / x3)
        v: (V b + fy, -V a, -fy a, (fy R_2 - V R_3) / x3)
    """
    n = ps.shape[0]
    x = R @ ps.T - (R @ r)[:, None]
    iz = 1.0 / x[2]
    ab = x[:2] * iz
    a, b = ab
    K2 = Km[:2, :2]
    UV = K2 @ ab
    e = us - (UV + Km[:2, 2:]).T
    G = np.empty((2, 6, n))  # G[p, k, i]: row p (u or v) of point i, column k
    G[:, 0] = UV * b + K2[:, 1:]
    G[:, 1] = -UV * a - K2[:, :1]
    G[:, 2] = K2 @ np.stack([b, -a])
    G[:, 3:] = ((K2 @ R[:2])[:, :, None] - UV[:, None] * R[2][:, None]) * iz
    return e.reshape(2 * n), G.transpose(2, 0, 1).reshape(2 * n, 6)


def estimate_projection(cs, cfg: SolverConfig) -> np.ndarray:
    """Estimate the 3x4 projection matrix only (no calibration required).

    Runs the stages that STAGES lists for cfg.method, which must end with the
    linear solve ("dlt", "ndlt", "odlt"). The returned matrix is in the
    original (de-normalized) coordinates, scaled to unit Frobenius norm with
    positive mean depth.
    """
    stages = STAGES[cfg.method]
    if stages.lost or stages.refine:
        raise ValueError(f"projection-only estimation needs a linear method, got {cfg.method!r}")
    ps, us = correspondence_arrays(cs)
    out = _linear_solve(ps, us, cfg, stages.normalize, stages.weighted)
    P = denormalize_projection(out.sol.P, out.pix, out.pt)
    P = P / np.linalg.norm(P)
    if depths_under(P, ps).mean() < 0:
        P = -P
    return P
