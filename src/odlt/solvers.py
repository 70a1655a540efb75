"""End-to-end pose solvers built from the linear engine.

solve() is the one pose pipeline. Every method runs the linear solve, the
pose recovery and a final reprojection, which ndlt_gn reads off its refine's
cost; STAGES says which optional stages it adds:

    normalize  similarity-normalize pixels and points before the linear solve.
    weighted   scale the rows by the inverse depths under a preliminary
               unweighted estimate, and project the rotation with the
               information-weighted Procrustes steps.
    lost       re-triangulate the translation with the rotation fixed (O(n)).
    refine     Gauss-Newton on the reprojection error from the linear pose,
               stopped relative to the noise level its residual shows.

A solve is a deterministic function of (points, pixels, intrinsics, method):
no step draws random numbers. The linear stage fills the moment rows once
and normalizes them through a 12x12 basis read off their Gram (normalization);
the weighted methods' preliminary is the full set's unweighted null vector,
from the same Gram (weighting).
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .dlt import MIN_POINTS, DltSolution, _assemble_arrays, _fill_moments, _system_rows
from .dlt import solve_nullspace
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
    moment_normalization,
)
from .se3 import (
    declamp_denormalize,
    lost_translation,
    recover_scale_and_position,
    rotation_weights,
    weighted_procrustes,
)
from .weighting import NEGATIVE_DEPTH_LIMIT, _preliminary_normalized


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
_GN_REL_TOL = 1e-4
_GN_C = np.zeros((14, 12))  # C's entries of +-1: C_u in rows 0-6, C_v in rows 7-13
_GN_C[[0, 7], [6, 7]], _GN_C[[1, 8], [4, 5]], _GN_C[[6, 13], [10, 11]] = 1.0, -1.0, 1.0


@dataclass(frozen=True)
class SolverConfig:
    """Solver settings; defaults reproduce the published pipeline.

    method picks the STAGES row that solve() runs. sigma_u is the stated pixel
    noise, finite and positive; the pose does not depend on it, because the
    row weights are inverse depths (weighting says why sigma_u drops out).
    seed is accepted and has no effect: no stage draws random numbers. It
    stays a field so that callers which pass it keep working.
    """

    method: str = "odlt"
    sigma_u: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if not (isinstance(self.sigma_u, numbers.Real) and 0 < self.sigma_u < np.inf):
            raise ValueError(f"sigma_u must be finite and positive, got {self.sigma_u!r}")


@dataclass(frozen=True)
class PnpResult:
    """Solver output: pose, fit quality, diagnostic flags, stage timings (s).

    reprojection_rms is sqrt(e . e / n) over the points the pose was fitted
    to, inf if one lies on its camera plane; ndlt_gn reports the cost its
    refine computed at the pose it accepted, so timings["reprojection"] times
    only the square root there.
    """

    pose: Pose
    reprojection_rms: float
    flags: frozenset = frozenset()
    timings: dict = field(default_factory=dict)


def _reprojection_rms(ps: np.ndarray, us: np.ndarray, Km: np.ndarray, pose: Pose) -> float:
    KR = Km @ pose.R
    y = KR @ ps.T - (KR @ pose.r)[:, None]
    # Any |depth| < 1e-12, in one pass when every depth is above it.
    if not y[2].min(initial=np.inf) > 1e-12 and np.abs(y[2]).min(initial=np.inf) < 1e-12:
        return np.inf
    d = y[:2] / y[2] - us.T
    return float(np.sqrt(np.vdot(d, d) / ps.shape[0]))


def _shared_identity(cls):
    """cls.identity() with read-only arrays, so that every dlt solve can share it."""
    norm = cls.identity()
    for a in (norm.T, norm.T_inv, norm.centroid):
        a.flags.writeable = False
    return norm


_IDENTITY = _shared_identity(PixelNormalization), _shared_identity(PointNormalization)


class _LinearOutcome(NamedTuple):
    """Null-space solution, the normalizations it lives in, timings."""

    sol: DltSolution
    pix: PixelNormalization
    pt: PointNormalization
    timings: dict


def _linear_solve(ps: np.ndarray, us: np.ndarray, normalize: bool, weighted: bool) -> _LinearOutcome:
    # Checked before any stage runs: normalization divides by n.
    if ps.shape[0] < MIN_POINTS:
        raise TooFewPoints(ps.shape[0], MIN_POINTS)
    timings = {}
    t0 = time.perf_counter()
    Mt = np.empty((12, ps.shape[0]))  # the moment rows: points 0-2, pixels 7, 11, filled once
    if normalize:  # less one point and one pixel, which B absorbs
        np.subtract(ps.T, ps[0, :, None], out=Mt[:3])
        np.subtract(us.T, us[0, :, None], out=Mt[7::4])
    else:
        Mt[:3], Mt[7::4] = ps.T, us.T
    _fill_moments(Mt)
    rows = Mt if weighted else _system_rows(Mt)  # R^T has M's Gram; weighted rows: below
    B = None
    if normalize:
        S = rows @ rows.T
        pix, pt, B = moment_normalization(S, us[0], ps[0])
    else:
        pix, pt = _IDENTITY
    timings["normalize"] = time.perf_counter() - t0

    if weighted:
        t0 = time.perf_counter()
        _, depths = _preliminary_normalized(Mt, S, B)
        neg = depths <= 0
        if neg.any():
            frac = float(neg.mean())
            if frac >= NEGATIVE_DEPTH_LIMIT:
                # A rank-deficient set has no preliminary camera: raise RankDeficient for it.
                solve_nullspace(_assemble_arrays(_system_rows(Mt), B))
                raise NegativeDepth(f"{frac:.0%} of points behind the preliminary camera")
            Mt, depths, ps = Mt[:, ~neg], depths[~neg], ps[~neg]
        Mt *= 1.0 / depths  # after the fill formed p u and p v: each row times its weight
        rows = _system_rows(Mt)
        timings["weights"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    sol = solve_nullspace(_assemble_arrays(rows, B), points=ps, T_p=pt.T)
    timings["solve"] = time.perf_counter() - t0
    return _LinearOutcome(sol, pix, pt, timings)


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
    out = _linear_solve(ps, us, normalize, weighted)
    flags = {FLAG_MIXED_DEPTHS} if out.sol.mixed_depths else set()
    timings = out.timings

    t0 = time.perf_counter()
    R_acute, r_acute, det = declamp_denormalize(out.sol, Km, out.pix, out.pt)
    if weighted:
        W = rotation_weights(out.sol, Km, out.pix, out.pt)
        R, fallback = weighted_procrustes(R_acute, W, det)
        if fallback:
            flags.add(FLAG_DEGENERATE_WEIGHTS)
    else:
        R = nearest_rotation(R_acute)
    pose = recover_scale_and_position(r_acute, R)
    timings["recover"] = time.perf_counter() - t0

    if lost:
        t0 = time.perf_counter()
        R = pose.R
        # Depths under K [R | -R r]: K's third row is (0, 0, 1), so K drops out.
        depths = ps @ R[2] + (-R @ pose.r)[2]
        front = slice(None) if (depths > 0).all() else depths > 0  # no copies when all kept
        t = lost_translation(ps[front], us[front], Km, R, 1.0 / depths[front])
        pose = Pose._from_rotation(R, -R.T @ t)
        timings["lost"] = time.perf_counter() - t0
    if refine:
        t0 = time.perf_counter()
        pose, fell_back, cost = refine_gauss_newton(ps, us, Km, pose)
        if fell_back:
            flags.add(FLAG_FALLBACK_USED)
        timings["refine"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if refine:  # the refine costed the pose it returns
        rms = float(np.sqrt(cost / ps.shape[0]))
    else:
        rms = _reprojection_rms(ps, us, Km, pose)
    timings["reprojection"] = time.perf_counter() - t0
    timings["total"] = time.perf_counter() - t_start
    return PnpResult(pose=pose, reprojection_rms=rms, flags=frozenset(flags), timings=timings)


def refine_gauss_newton(
    ps: np.ndarray, us: np.ndarray, Km: np.ndarray, init: Pose
) -> tuple[Pose, bool, float]:
    """Minimize the reprojection error by Gauss-Newton from a given pose.

    ps (n,3) and us (n,2) are checked float arrays and Km the 3x3 intrinsic
    matrix, as solve() passes them. Parameters are a rotation-vector
    increment composed on the left and the camera center. Each pose tried is
    projected once (_gn_project) from the points and the pixels less the
    principal point, copied once into (4, n) and (2, n) rows (the points over
    a row of ones, so that one product projects them); the projection writes
    its per-point features into one (12, n) buffer per refine. Every
    Jacobian entry is a fixed linear combination of those features, so an
    accepted pose's normal equations (_gn_normal_equations) come from the
    features' 12x12 Gram, and no Jacobian is formed. A rejected trial
    overwrites the features, but the last pose projected before a build is
    always the accepted one.

    Iteration stops when the predicted decrease -g^T delta (g = J^T e) is
    below _GN_TOL, after a full step that predicted less than
    _GN_REL_TOL * cost / (2n - 6) (the noise variance estimated from the
    residual, so the pose does not depend on a stated sigma_u; the step is
    taken, the next normal equations are not built), or after _GN_MAX_ITERS
    accepted steps. A step that raises the cost is halved up to 10 times; if
    none lowers it, or init puts a point on its camera plane, the current pose
    is returned with fell_back True. With no step taken it is init itself;
    otherwise one Newton-Schulz step 1.5 R - 0.5 R R^T R re-orthonormalizes
    the product of step rotations, which moves the pose by rounding only.

    Returns:
        (pose, fell_back, cost): cost is e . e at the last pose accepted, so
        init's when no step is taken or none lowers it, and inf when init puts
        a point on its camera plane.
    """
    R, r = init.R, init.r
    pts = np.ones((4, ps.shape[0]))
    pts[:3] = ps.T
    uv = np.subtract(us.T, Km[:2, 2:], order="C")
    F, C = _gn_buffers(Km, ps.shape[0])
    cost, UV = _gn_project(pts, uv, Km, R, r, F)
    if UV is None:  # nothing to linearize about
        return init, True, cost
    rel_tol = _GN_REL_TOL / (2 * ps.shape[0] - 6)  # rel_tol * cost = _GN_REL_TOL * sigma_hat^2
    fell_back = False
    for _ in range(_GN_MAX_ITERS):
        JtJ, g = _gn_normal_equations(F, UV, C, Km, R)
        try:
            delta = -np.linalg.solve(JtJ, g)
        except np.linalg.LinAlgError as exc:
            raise RankDeficient("Gauss-Newton normal matrix is singular") from exc
        pred = -(g @ delta)
        if pred < _GN_TOL:
            break
        for halving in range(11):
            step = delta / (2.0**halving)
            R_new = rodrigues(step[:3]) @ R
            r_new = r + step[3:]
            cost_new, UV_new = _gn_project(pts, uv, Km, R_new, r_new, F)
            if cost_new <= cost:
                break
        else:
            fell_back = True
            break
        R, r, cost, UV = R_new, r_new, cost_new, UV_new
        if halving == 0 and pred < rel_tol * cost:
            break
    if R is init.R:  # no step taken: hand back the caller's pose bit for bit
        return init, fell_back, cost
    return Pose._from_rotation(1.5 * R - 0.5 * R @ (R.T @ R), r), fell_back, cost


def _gn_buffers(Km, n):
    """The feature rows F (12, n) and the feature map C (14, 12) of one refine,
    with what no pose changes set: F's row 3 of ones and C's entries from K
    (_gn_normal_equations says what each holds)."""
    F = np.empty((12, n))
    F[3] = 1.0
    C = _GN_C.copy()
    C[0::7, 3], C[2::7, 1] = Km[:2, 1], Km[:2, 0]
    C[1::7, 3], C[2::7, 0] = -Km[:2, 0], -Km[:2, 1]
    return F, C


def _gn_project(pts, uv, Km, R, r, F):
    """(e . e, UV) at the pose (R, r) for homogeneous points pts (4, n), the
    points over a row of ones, and pixels less the principal point uv (2, n):
    x = [R | -R r] pts = R (p - r) in one product, (a, b) = x[:2] / x3,
    UV = K_2x2 (a, b) and e = uv - UV, all (2, n), with a, b, 1/x3 and e written
    into the rows 0-2 and 10-11 of the features F (12, n); (inf, None) if any
    |x3| < 1e-12."""
    x = np.concatenate((R, (R @ -r)[:, None]), axis=1) @ pts
    if not x[2].min(initial=np.inf) > 1e-12 and np.abs(x[2]).min(initial=np.inf) < 1e-12:
        return np.inf, None
    iz = np.divide(1.0, x[2], out=F[2])
    np.multiply(x[:2], iz, out=F[:2])
    UV = Km[:2, :2] @ F[:2]
    e = np.subtract(uv, UV, out=F[10:])
    return float(np.vdot(e, e)), UV


def _gn_normal_equations(F, UV, C, Km, R):
    """J^T J (6, 6) and J^T e (6,) for [dphi, dr] at the pose whose projection
    last wrote F, from the Gram of the feature rows. Fills F's rows 4-9 from
    UV and C's rotation entries from R.

    The point interaction matrix (Chaumette & Hutchinson 2006) of (a, b) =
    (x1, x2) / x3 is d(a, b)/d(dphi) = [[-a b, 1 + a^2, -b], [-(1 + b^2), a b, a]]
    and d(a, b)/d(r) = -[R_1 - a R_3; R_2 - b R_3] / x3. With (U, V) = K_2x2 (a, b),
    the predicted pixel less the principal point, -K_2x2 times it gives J's row
    of pixel coordinate p (u or v, UV_p = U or V) of each point:

        (UV_p b + K[p,1], -UV_p a - K[p,0], K[p,0] b - K[p,1] a,
         ((K_2x2 R[:2])[p,k] - R[2,k] UV_p) / x3 for k = 0, 1, 2)

    Each entry is linear in the features F = (a, b, 1/x3, 1, U a, V a, U b,
    V b, U/x3, V/x3, e_u, e_v). C stacks two 7x12 maps C_u over C_v: row p of
    point i is C_p[:6] F[:, i], and C_p[6] picks e_p. So with the Gram F F^T,
    N = sum_p C_p F F^T C_p^T holds J^T J in N[:6, :6] and J^T e in N[:6, 6].
    """
    np.multiply(UV, F[0], out=F[4:6])
    np.multiply(UV, F[1], out=F[6:8])
    np.multiply(UV, F[2], out=F[8:10])
    C[3:6, 2], C[10:13, 2] = Km[:2, :2] @ R[:2]
    C[3:6, 8] = C[10:13, 9] = -R[2]
    M = C @ (F @ F.T) @ C.T
    N = M[:7, :7] + M[7:, 7:]
    return N[:6, :6], N[:6, 6]


def estimate_projection(cs, cfg: SolverConfig) -> np.ndarray:
    """Estimate the 3x4 projection matrix only (no calibration required).

    Runs the stages that STAGES lists for cfg.method, which must end with the
    linear solve ("dlt", "ndlt", "odlt"). The returned matrix is in the
    original (de-normalized) coordinates, scaled to unit Frobenius norm, signed
    by solve_nullspace: T_u^-1 has third row (0, 0, 1), so de-normalizing
    keeps every depth.
    """
    stages = STAGES[cfg.method]
    if stages.lost or stages.refine:
        raise ValueError(f"projection-only estimation needs a linear method, got {cfg.method!r}")
    ps, us = correspondence_arrays(cs)
    out = _linear_solve(ps, us, stages.normalize, stages.weighted)
    P = denormalize_projection(out.sol.P, out.pix, out.pt)
    return P / np.linalg.norm(P)
