"""Shared test helpers.

The oracle functions here are written straight from the defining formulas,
on purpose not calling into the package, so that agreement between the two
is evidence rather than tautology. The numpy recovery oracles keep the
matrix-level code that the closed forms in odlt.se3 replaced. The last section
holds the derivation oracles that acceptance criteria 04 and 08d check, which
no solve runs.
"""

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np
import pytest

import odlt.solvers as solvers_module
from odlt.dlt import _fill_moments
from odlt.evaluation import SyntheticScenario, generate_scene
from odlt.errors import DegenerateInput
from odlt.geometry import Correspondence, cross_matrix, decompose_projection, nearest_rotation
from odlt.normalization import moment_normalization
from odlt.solvers import SolverConfig, estimate_projection


def oracle_rotation_from_quat(q):
    """Rotation matrix from a unit quaternion (w, x, y, z), textbook formula."""
    w, x, y, z = np.asarray(q, dtype=float) / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def random_rotation(rng):
    return oracle_rotation_from_quat(rng.standard_normal(4))


def oracle_rodrigues(phi):
    """Exponential map I + (sin t / t) S + ((1 - cos t) / t^2) S^2 with S = [phi x]
    and t = |phi|, built from the matrices; coefficients 1 and 1/2 below 1e-12."""
    phi = np.asarray(phi, dtype=float)
    theta = np.linalg.norm(phi)
    S = cross_matrix(phi)
    if theta < 1e-12:
        return np.eye(3) + S + 0.5 * (S @ S)
    a = np.sin(theta) / theta
    b = (1.0 - np.cos(theta)) / (theta * theta)
    return np.eye(3) + a * S + b * (S @ S)


def oracle_project(Km, R, r, ps):
    """Pixels of world points under u ~ K R (p - r), computed longhand."""
    ps = np.atleast_2d(ps)
    cam = (ps - r) @ R.T
    hom = cam @ np.asarray(Km, dtype=float).T
    return hom[:, :2] / hom[:, 2:3]


def moment_rows(ps, us, weights=None):
    """The (12, n) input of dlt._assemble_arrays and weighting._preliminary_normalized:
    points (n, 3) as rows 0-2 and pixels (n, 2) as rows 7 and 11, the rest filled
    by dlt._fill_moments; with weights (n,), each point's column then scaled by
    its weight, as solve()'s weighted stage scales its rows."""
    Mt = np.empty((12, len(ps)))
    Mt[:3], Mt[7::4] = np.asarray(ps, dtype=float).T, np.asarray(us, dtype=float).T
    _fill_moments(Mt)
    if weights is not None:
        Mt *= np.asarray(weights, dtype=float)
    return Mt


def raw_moments(ps, us):
    """solve()'s normalized-method inputs: the moment rows Mt of the points less
    the first point and the pixels less the first pixel, their Gram S and the
    normalizations and basis moment_normalization reads off S, as
    (Mt, S, pix, pt, B)."""
    Mt = moment_rows(ps - ps[0], us - us[0])
    S = Mt @ Mt.T
    return (Mt, S, *moment_normalization(S, us[0], ps[0]))


def random_intrinsics_matrix(rng, skew=False):
    fx = rng.uniform(300.0, 1500.0)
    fy = rng.uniform(300.0, 1500.0)
    cx = rng.uniform(100.0, 900.0)
    cy = rng.uniform(100.0, 700.0)
    s = rng.uniform(-5.0, 5.0) if skew else 0.0
    return np.array([[fx, s, cx], [0.0, fy, cy], [0.0, 0.0, 1.0]])


def make_exact_scene(rng, n=30, Km=None, R=None, r=None, spread=2.0, depth=(4.0, 8.0)):
    """Random world points in front of a camera plus their exact pixels.

    Points are drawn in the camera frame inside a frustum-ish box, then
    mapped to the world frame, so every depth is positive by construction.
    """
    if Km is None:
        Km = random_intrinsics_matrix(rng)
    if R is None:
        R = random_rotation(rng)
    if r is None:
        r = rng.uniform(-3.0, 3.0, 3)
    z = rng.uniform(depth[0], depth[1], n)
    x = rng.uniform(-spread, spread, n) * z / depth[1]
    y = rng.uniform(-spread, spread, n) * z / depth[1]
    cam = np.column_stack([x, y, z])
    ps = cam @ R + r  # R^T cam + r, world coordinates
    us = oracle_project(Km, R, r, ps)
    return Km, R, r, ps, us


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def oracle_gn_jacobian(Km, R, r, ps, us):
    """Residuals e = u - pred (2n,) and their Jacobian J (2n, 6) for a rotation
    increment dphi composed on the left and the camera center r, with rows
    interleaved u, v per point, by the chain rule one point at a time.

    x = R (p - r) moves by dx = dphi x x = -[x]_x dphi and dx = -R dr; the
    normalized point (a, b) = (x1, x2) / x3 moves by [[1, 0, -a], [0, 1, -b]] dx
    / x3; the pixel by K_2x2 d(a, b); the residual by minus that.
    """
    Km = np.asarray(Km, dtype=float)
    K2 = Km[:2, :2]
    n = ps.shape[0]
    e = np.empty(2 * n)
    J = np.empty((2 * n, 6))
    for i in range(n):
        x = R @ (ps[i] - r)
        a, b = x[0] / x[2], x[1] / x[2]
        x_cross = np.array([[0.0, -x[2], x[1]], [x[2], 0.0, -x[0]], [-x[1], x[0], 0.0]])
        dx = np.hstack([-x_cross, -R])
        dab = np.array([[1.0, 0.0, -a], [0.0, 1.0, -b]]) / x[2]
        e[2 * i : 2 * i + 2] = us[i] - (K2 @ np.array([a, b]) + Km[:2, 2])
        J[2 * i : 2 * i + 2] = -K2 @ dab @ dx
    return e, J



def gn_rows_at(ps, us, Km, R, r):
    """Gauss-Newton's residuals e (2n,), Jacobian rows G = J^T (6, 2n) (the u rows
    of points 0..n-1, then their v rows) and normal equations (J^T J, J^T e) at
    the pose (R, r), from fresh buffers. G is read as the feature maps C_u[:6]
    and C_v[:6] applied to the production feature rows F[:10]; J^T J and J^T e
    are the production build's, from the features' Gram."""
    F, C = solvers_module._gn_buffers(Km, ps.shape[0])
    pts = np.vstack([ps.T, np.ones(ps.shape[0])])  # the points over a row of ones
    _, UV = solvers_module._gn_project(pts, us.T - Km[:2, 2:], Km, R, r, F)
    JtJ, g = solvers_module._gn_normal_equations(F, UV, C, Km, R)
    G = np.hstack([C[:6, :10] @ F[:10], C[7:13, :10] @ F[:10]])
    return F[10:].reshape(-1), G, JtJ, g


def oracle_lost_normal_equations(ps, us, Km, R, q):
    """LOST's normal equations (N, rhs), N t = rhs, from seven q^2-weighted sums of
    full-length columns: 1, a, b, rho = a^2 + b^2 and h_i = S_i R p_i, per point,
    for (a, b, 1) = K^-1 (u, 1) and S_i = [[1, 0, -a], [0, 1, -b], [-a, -b, rho]]."""
    Kinv = np.linalg.inv(np.asarray(Km, dtype=float))
    a, b = Kinv[:2, :2] @ us.T + Kinv[:2, 2:]
    m = np.asarray(R, dtype=float) @ ps.T
    rho = a * a + b * b
    h = (m[0] - a * m[2], m[1] - b * m[2], rho * m[2] - a * m[0] - b * m[1])
    w, sa, sb, srho, s0, s1, s2 = np.stack([np.ones_like(a), a, b, rho, *h]) @ (q * q)
    N = np.array([[w, 0.0, -sa], [0.0, w, -sb], [-sa, -sb, srho]])
    return N, -np.array([s0, s1, s2])


# -- numpy recovery oracles ----------------------------------------------------


def procrustes_cost(R, target, W):
    """Squared weighted Frobenius distance ||(R - target) * W||_F^2."""
    d = (R - target) * W
    return float((d * d).sum())


def oracle_declamp_det_solve(R_acute, g):
    """det(R_acute) and r_acute = -R_acute^-1 g by numpy.linalg (LU)."""
    return float(np.linalg.det(R_acute)), -np.linalg.solve(R_acute, g)


def oracle_solve_psd(N, b, cond_limit):
    """Solve N x = b for symmetric PSD N by one eigh; None when N is singular
    or lambda_max / lambda_min (its 2-norm condition number) > cond_limit."""
    lam, E = np.linalg.eigh(N)
    if not lam[0] > 0 or lam[2] > cond_limit * lam[0]:
        return None
    return E @ ((E.T @ b) / lam)


def oracle_weighted_procrustes(R_acute, W, det):
    """The matrix-level weighted Procrustes steps: normal matrix from stacked
    R diag(Q[i]) R^T, eigh solve (condition limit 1e10), polar update by
    np.outer, costs by procrustes_cost, no step whose predicted decrease
    g^T dphi is below 8 eps sum(Q |Rs - R|), at most 5 steps; same contract
    as se3.weighted_procrustes."""
    if det == 0:
        raise DegenerateInput("de-clamped rotation block is singular")
    Rs = (1.0 / np.cbrt(det)) * R_acute
    Q = W * W
    R = nearest_rotation(Rs)
    R0 = R
    cost = procrustes_cost(R, Rs, W)
    for _ in range(5):
        M = ((R[None, :, :] * Q[:, None, :]) @ R.T).tolist()
        Nmat = np.array(
            [
                [M[1][2][2] + M[2][1][1], -M[2][0][1], -M[1][0][2]],
                [-M[2][0][1], M[0][2][2] + M[2][0][0], -M[0][1][2]],
                [-M[1][0][2], -M[0][1][2], M[0][1][1] + M[1][0][0]],
            ]
        )
        H = ((Q * (Rs - R)) @ R.T).tolist()
        g = np.array([H[1][2] - H[2][1], H[2][0] - H[0][2], H[0][1] - H[1][0]])
        dphi = oracle_solve_psd(Nmat, g, 1e10)
        if dphi is None:
            return R0, True
        if g @ dphi < 8 * np.finfo(float).eps * np.sum(Q * np.abs(Rs - R)):
            break  # a predicted decrease below the cost's rounding: no step
        x, y, z = dphi.tolist()
        c = np.sqrt(1.0 + x * x + y * y + z * z)
        U = np.array([[1.0, z, -y], [-z, 1.0, x], [y, -x, 1.0]]) + np.outer(dphi, dphi / (1.0 + c))
        candidate = (U / c) @ R
        candidate_cost = procrustes_cost(candidate, Rs, W)
        if candidate_cost > cost:
            break
        R, cost = candidate, candidate_cost
    return R, False


# -- Derivation oracles --------------------------------------------------------


@dataclass(frozen=True)
class WeightContext:
    """Preliminary projection estimate and the pixel noise level."""

    P0: np.ndarray
    sigma_u: float = 1.0

    def __post_init__(self):
        P0 = np.asarray(self.P0, dtype=float).reshape(3, 4)
        object.__setattr__(self, "P0", P0)
        if not self.sigma_u > 0:
            raise ValueError(f"sigma_u must be positive, got {self.sigma_u}")


def residual_covariance(ctx: WeightContext, c: Correspondence) -> np.ndarray:
    """Covariance of the algebraic residual [ubar x] P0 pbar under pixel noise.

    Returns the 3x3 matrix
    -[ubar x] (k^T P0 pbar)^2 sigma_u^2 S^T S [ubar x],
    positive semidefinite of rank <= 2 with Sigma @ ubar == 0.
    """
    ubar = np.array([c.u[0], c.u[1], 1.0])
    Ux = cross_matrix(ubar)
    M = Ux.copy()
    M[2, :] = 0.0  # S^T S [ubar x]
    d = float(ctx.P0[2, :3] @ c.p + ctx.P0[2, 3])
    return -(d * d * ctx.sigma_u * ctx.sigma_u) * (Ux @ M)


def intrinsics_rmse_experiment(
    sc: SyntheticScenario,
    methods: Sequence[str] = ("ndlt", "odlt"),
    cfg: Optional[SolverConfig] = None,
) -> dict:
    """RMSE of the intrinsics recovered by decomposing the linear estimate.

    The projection matrix is estimated without using the calibration, then
    factored; per-parameter RMSE of (fx, fy, cx, cy) against the scenario's
    intrinsics is reported per method. This isolates the quality of the
    linear solve from the SE(3) extraction.
    """
    base = cfg or SolverConfig()
    truth = sc.intrinsics
    errors: dict[str, dict[str, list]] = {
        m: {"fx": [], "fy": [], "cx": [], "cy": []} for m in methods
    }
    for trial in range(sc.trials):
        arrays, _ = generate_scene(sc, trial)
        for m in methods:
            P = estimate_projection(arrays, replace(base, method=m))
            K_est, _ = decompose_projection(P)
            errors[m]["fx"].append(K_est.fx - truth.fx)
            errors[m]["fy"].append(K_est.fy - truth.fy)
            errors[m]["cx"].append(K_est.cx - truth.cx)
            errors[m]["cy"].append(K_est.cy - truth.cy)
    return {
        m: {k: float(np.sqrt(np.mean(np.array(v) ** 2))) for k, v in params.items()}
        for m, params in errors.items()
    }
