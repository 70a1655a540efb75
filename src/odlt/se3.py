"""Recovery of a metric SE(3) pose from the linear solution.

The null-space estimate lives in normalized projective coordinates. Removing
the calibration and the normalizations ("de-clamping") gives
G = K^-1 T_u^-1 P_norm T_p = R'[I | -r'], R' only approximately a scaled
rotation. The information matrix of vec(P_norm) transports through the vec
form of that map, M = T_p^T kron (K^-1 T_u^-1); its nine leading diagonal
entries (column-major, the R' block) form the 3x3 weight matrix W of the
weighted Procrustes projection of R' onto SO(3). M is never formed: by
(A kron B) vec(X) = vec(B X A^T) both steps are 3x3, 3x4 and 4x4 products.
Translation is read off r' or re-triangulated with the rotation fixed (LOST),
which is O(n) and reuses the optimal weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dlt import DltSolution
from .errors import (
    DegenerateInput,
    RankDeficient,
    ReflectionDetected,
    SingularCalibration,
)
from .geometry import Pose, nearest_rotation
from .normalization import PixelNormalization, PointNormalization

_WEIGHT_COND_LIMIT = 1e10
_LOST_COND_LIMIT = 1e12
_PROCRUSTES_TOL = 1e-12


@dataclass(frozen=True)
class DenormalizedPose:
    """De-clamped linear solution: R_acute [I | -r_acute], det(R_acute), and
    the weight matrix W (or None) holding the marginal information of its entries."""

    R_acute: np.ndarray
    r_acute: np.ndarray
    W: np.ndarray | None
    det: float


def intrinsic_inverse(Km: np.ndarray) -> np.ndarray:
    """Closed-form inverse of a checked upper-triangular 3x3 intrinsic matrix.

    Keeps the third row exactly (0, 0, 1), which matters when calibrated
    homogeneous coordinates are expected to have unit third component.

    Raises:
        SingularCalibration: if a focal length is (numerically) zero.
    """
    (fx, skew, cx), (_, fy, cy), _ = Km.tolist()
    if abs(fx) < 1e-12 or abs(fy) < 1e-12:
        raise SingularCalibration(f"focal lengths too small to invert: fx={fx}, fy={fy}")
    return np.array(
        [
            [1.0 / fx, -skew / (fx * fy), (skew * cy - cx * fy) / (fx * fy)],
            [0.0, 1.0 / fy, -cy / fy],
            [0.0, 0.0, 1.0],
        ]
    )


def declamp_denormalize(
    sol: DltSolution,
    Km: np.ndarray,
    pixel_norm: PixelNormalization,
    point_norm: PointNormalization,
    weights: bool = True,
) -> DenormalizedPose:
    """Map the normalized linear solution back to calibrated world coordinates.

    Km is the checked 3x3 intrinsic matrix. Computes
    G = K^-1 T_u^-1 P_norm T_p, reads off R_acute = G[:, :3] and
    r_acute = -R_acute^-1 G[:, 3]. With weights, it transports the information
    matrix of vec(P_norm) through M^-1, M = T_p^T kron (K^-1 T_u^-1), to fill
    W from the nine leading diagonal entries (column-major); else W is None.

    Raises:
        SingularCalibration: if K cannot be inverted reliably.
        DegenerateInput: if the left 3x3 block R_acute is singular.
    """
    G = intrinsic_inverse(Km) @ pixel_norm.T_inv @ sol.P @ point_norm.T
    # Sigma'^-1 = M^-T (V D^2 V^T) M^-1; only its R' diagonal is needed. With
    # C = T_u K, column k of M^-T V is vec(C^T X_k T_p^-T), X_k = unvec(V[:, k]),
    # whose first nine entries are the left 3x3 block.
    W = None
    if weights:
        C = pixel_norm.T @ Km
        X = sol.V.T.reshape(12, 4, 3).transpose(0, 2, 1)
        Y = C.T @ X @ point_norm.T_inv[:3].T
        W = (sol.singular_values**2 @ (Y * Y).reshape(12, 9)).reshape(3, 3)
    R_acute = G[:, :3]
    det = float(np.linalg.det(R_acute))
    if det == 0:
        raise DegenerateInput("de-clamped rotation block is singular")
    r_acute = -np.linalg.solve(R_acute, G[:, 3])
    return DenormalizedPose(R_acute, r_acute, W, det)


def procrustes_cost(R: np.ndarray, target: np.ndarray, W: np.ndarray) -> float:
    """Squared weighted Frobenius distance ||(R - target) * W||_F^2."""
    d = (R - target) * W
    return float((d * d).sum())


def _solve_psd(N: np.ndarray, b: np.ndarray, cond_limit: float) -> np.ndarray | None:
    """Solve N x = b for symmetric PSD N by one eigh; None when N is singular
    or lambda_max / lambda_min (its 2-norm condition number) > cond_limit."""
    lam, E = np.linalg.eigh(N)
    if not lam[0] > 0 or lam[2] > cond_limit * lam[0]:
        return None
    return E @ ((E.T @ b) / lam)


def weighted_procrustes(
    R_acute: np.ndarray, W: np.ndarray, det: float, max_iters: int = 1
) -> tuple[np.ndarray, bool]:
    """Project the de-clamped linear rotation block onto SO(3), weighted by W.

    Minimizes ||(R - R_s) * W||_F over rotations, where R_s is R_acute
    rescaled by s = det(R_acute)^(-1/3). Starting from the unweighted
    projection R0 = nearest_rotation(R_s), the rotation is updated through
    the small-angle model R ~ (I - [dphi x]) R0, solving 3x3 normal
    equations per iteration and re-projecting onto SO(3) in closed form. One
    iteration is the default; up to five are allowed, stopping early when
    |dphi| < _PROCRUSTES_TOL. R_acute and W are float 3x3 arrays and det is
    det(R_acute), all computed by the caller.

    Returns:
        (R, fallback_used): fallback_used is True when the normal matrix
        had condition number > 1e10 and the unweighted projection R0 was
        returned instead.
    """
    if not 1 <= max_iters <= 5:
        raise ValueError(f"max_iters must be in 1..5, got {max_iters}")
    if det == 0:
        raise DegenerateInput("de-clamped rotation block is singular")
    Rs = (1.0 / np.cbrt(det)) * R_acute
    Q = W * W
    R = nearest_rotation(Rs)
    R0 = R
    cost = procrustes_cost(R, Rs, W)
    for _ in range(max_iters):
        # e_ij = W_ij (R - Rs)_ij moves by W_ij (e_i x R_col_j) . dphi, so the
        # normal matrix is sum_i [e_i x] M_i [e_i x]^T with M_i = R diag(Q[i]) R^T
        # and the right-hand side is vee(H^T - H) with H = (Q * (Rs - R)) R^T.
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
        dphi = _solve_psd(Nmat, g, _WEIGHT_COND_LIMIT)
        if dphi is None:
            return R0, True
        # nearest_rotation((I - [dphi x]) R) in closed form: I - [dphi x] fixes
        # dphi, so its polar factor is (I - [dphi x] + dphi dphi^T / (1 + c)) / c.
        x, y, z = dphi.tolist()
        c = np.sqrt(1.0 + x * x + y * y + z * z)
        U = np.array([[1.0, z, -y], [-z, 1.0, x], [y, -x, 1.0]]) + np.outer(dphi, dphi / (1.0 + c))
        candidate = (U / c) @ R
        candidate_cost = procrustes_cost(candidate, Rs, W)
        if candidate_cost > cost:
            break
        R, cost = candidate, candidate_cost
        if np.sqrt(dphi @ dphi) < _PROCRUSTES_TOL:  # np.linalg.norm without its wrapper
            break
    return R, False


def recover_scale_and_position(r_acute: np.ndarray, R_final: np.ndarray, det: float) -> Pose:
    """Assemble the metric pose from the Procrustes rotation and r_acute.

    The center of projection is invariant to the global scale of the linear
    solution, so the pose pairs the rotation R_final, unchecked, with r_acute.
    det is det(R_acute), the determinant declamp_denormalize computed.

    Raises:
        ReflectionDetected: if det < 0 (after the depth sign fix, this
            indicates a mirrored solution, not a camera pose).
        DegenerateInput: if det == 0.
    """
    if det < 0:
        raise ReflectionDetected(f"linear rotation block has determinant {det!r}")
    if det == 0:
        raise DegenerateInput("linear rotation block is singular")
    return Pose._from_rotation(R_final, np.asarray(r_acute, dtype=float))


def lost_translation(
    ps: np.ndarray, us: np.ndarray, Km: np.ndarray, R: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Re-triangulate the translation with the rotation held fixed.

    Splitting the constraint matrix columns into the rotation block B and
    translation block C, the system C t = -B vec(R) is solved in calibrated,
    de-normalized coordinates: each point contributes the two reduced rows
    L_i of q_i [xbar_i x], xbar = K^-1 ubar = (a, b, 1), with L_i (t + R p_i)
    = 0. Their Gram matrix is q_i^2 S_i, S_i = [[1, 0, -a], [0, 1, -b],
    [-a, -b, a^2 + b^2]], so the 3x3 normal equations N t = -sum q_i^2 S_i
    R p_i need only seven q^2-weighted sums of full-length columns: O(n).

    Args:
        ps: checked (n,3) world points; solve() passes views of its own
            arrays, masked copies only when some point is behind the camera.
        us: checked (n,2) pixels, as ps.
        Km: checked 3x3 intrinsic matrix.
        R: fixed 3x3 rotation.
        weights: positive per-point scalars q_i (from the final estimate).

    Returns:
        Translation t (world origin in camera coordinates); the camera
        center is r = -R^T t.

    Raises:
        RankDeficient: if the normal matrix has condition number > 1e12.
    """
    q = np.asarray(weights, dtype=float).reshape(-1)
    if q.shape[0] != ps.shape[0]:
        raise ValueError(f"expected {ps.shape[0]} weights, got {q.shape[0]}")
    Kinv = intrinsic_inverse(Km)
    a, b = Kinv[:2, :2] @ us.T + Kinv[:2, 2:]
    m = np.asarray(R, dtype=float) @ ps.T
    rho = a * a + b * b
    # h = S_i R p_i, per point
    h = (m[0] - a * m[2], m[1] - b * m[2], rho * m[2] - a * m[0] - b * m[1])
    w, sa, sb, srho, *Sm = np.stack([np.ones_like(a), a, b, rho, *h]) @ (q * q)
    Nmat = np.array([[w, 0.0, -sa], [0.0, w, -sb], [-sa, -sb, srho]])
    t = _solve_psd(Nmat, -np.array(Sm), _LOST_COND_LIMIT)
    if t is None:
        raise RankDeficient("translation normal matrix is ill conditioned")
    return t
