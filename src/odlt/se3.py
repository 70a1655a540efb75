"""Recovery of a metric SE(3) pose from the linear solution.

The null-space estimate lives in normalized projective coordinates. Removing
the calibration and the normalizations (declamp_denormalize) gives
G = K^-1 T_u^-1 P_norm T_p = R'[I | -r'], R' only approximately a scaled
rotation. declamp_denormalize alone judges det(R'): it raises DegenerateInput
for a singular block and ReflectionDetected for a mirrored one (det < 0), so
the stages after it take det > 0, and like it they take solve()'s checked
float arrays as given, coercing none. For the weighted methods,
rotation_weights transports the information matrix of vec(P_norm) through
the vec form of that map, M = T_p^T kron (K^-1 T_u^-1): its nine leading
diagonal entries (column-major, the R' block) form the 3x3 weight matrix W
of the weighted Procrustes projection of R' onto SO(3). M is never formed:
by (A kron B) vec(X) = vec(B X A^T) both steps are 3x3, 3x4 and 4x4 products.
Translation is read off r' or re-triangulated with the rotation fixed (LOST),
which is O(n) and reuses the optimal weights: its normal equations come from
one (4, n) product of per-point features, as Gauss-Newton's come from the
Gram F F^T of its features. After G, the 3x3 algebra runs in closed form on
floats: only nearest_rotation's SVD calls numpy.linalg.
"""

from __future__ import annotations

from math import acos, cos, inf

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
_PROCRUSTES_MAX_STEPS = 5  # a cap: the stop rules end centered n=50 solves after 2 steps
_COST_RESOLUTION = 8 * np.finfo(float).eps  # the Procrustes cost's rounding per sum(Q |E|)
_TINY = 2.2250738585072014e-308  # the smallest normal float


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
    sol: DltSolution, Km: np.ndarray, pixel_norm: PixelNormalization, point_norm: PointNormalization
) -> tuple[np.ndarray, np.ndarray, float]:
    """Map the normalized linear solution back to calibrated world coordinates.

    Km is the checked 3x3 intrinsic matrix. Computes G = K^-1 T_u^-1 P_norm T_p
    and returns (R_acute, r_acute, det): R_acute = G[:, :3], its determinant by
    cofactors and r_acute = -R_acute^-1 G[:, 3] = -adj(R_acute) G[:, 3] / det.
    It is the one judge of det: what it returns has det >= the smallest normal
    float, so the stages after it take det as a positive scale.

    Raises:
        SingularCalibration: if K cannot be inverted reliably.
        DegenerateInput: if det(R_acute) is zero or subnormal or r_acute not finite.
        ReflectionDetected: if det < 0 (after the depth sign fix, this
            indicates a mirrored solution, not a camera pose).
    """
    G = intrinsic_inverse(Km) @ pixel_norm.T_inv @ sol.P @ point_norm.T
    (a, b, c, x), (d, e, f, y), (g, h, i, z) = G.tolist()
    A, B, C = e * i - f * h, f * g - d * i, d * h - e * g  # the first column of adj(R_acute)
    det = a * A + b * B + c * C
    if not (det >= _TINY or det <= -_TINY):
        raise DegenerateInput("de-clamped rotation block is singular")
    r0 = -(A * x + (c * h - b * i) * y + (b * f - c * e) * z) / det
    r1 = -(B * x + (a * i - c * g) * y + (c * d - a * f) * z) / det
    r2 = -(C * x + (b * g - a * h) * y + (a * e - b * d) * z) / det
    if not (-inf < r0 < inf and -inf < r1 < inf and -inf < r2 < inf):
        raise DegenerateInput("de-clamped camera center is not finite")
    if det < 0:
        raise ReflectionDetected(f"linear rotation block has determinant {det!r}")
    return G[:, :3], np.array([r0, r1, r2]), det


def rotation_weights(
    sol: DltSolution, Km: np.ndarray, pixel_norm: PixelNormalization, point_norm: PointNormalization
) -> np.ndarray:
    """The weight matrix W of weighted_procrustes for declamp_denormalize's R_acute:
    the R' diagonal of Sigma'^-1 = M^-T (V D^2 V^T) M^-1, the information of
    vec(P_norm) transported through M^-1. With C = T_u K, column k of M^-T V is
    vec(C^T X_k T_p^-T), X_k = unvec(V[:, k]), whose first nine entries are the
    left 3x3 block."""
    C = pixel_norm.T @ Km
    X = sol.V.T.reshape(12, 4, 3).transpose(0, 2, 1)
    Y = C.T @ X @ point_norm.T_inv[:3].T
    return (sol.singular_values**2 @ (Y * Y).reshape(12, 9)).reshape(3, 3)


def _largest_eigenvalue(a: float, b: float, c: float, d: float, e: float, f: float) -> float:
    """Largest eigenvalue of the symmetric N = [[a, b, c], [b, d, e], [c, e, f]], trigonometric:
    q + 2 p cos(acos(r) / 3), q = tr(N) / 3, 6 p^2 = tr((N - q I)^2), r = det((N - q I) / p) / 2."""
    q = (a + d + f) / 3.0
    a, d, f = a - q, d - q, f - q
    p = ((a * a + d * d + f * f + 2.0 * (b * b + c * c + e * e)) / 6.0) ** 0.5
    if p == 0.0:
        return q
    r = (a * (d * f - e * e) - b * (b * f - c * e) + c * (b * e - c * d)) / p / p / p / 2.0
    return q + 2.0 * p * cos(acos(-1.0 if r < -1.0 else 1.0 if r > 1.0 else r) / 3.0)


def _solve_psd(N: tuple, rhs: tuple, cond_limit: float) -> tuple | None:
    """Solve N x = rhs on floats for the symmetric N = (N00, N01, N02, N11, N12, N22);
    None unless N = L D L^T has every pivot > 0 and lambda_max / lambda_min <= cond_limit.
    lambda_min = 1 / lambda_max(N^-1) keeps an error ~eps lambda_max, which the
    cubic's smallest root loses when the second eigenvalue is close to it."""
    a, b, c, d, e, f = N
    if not (a > 0.0 and (d2 := d - b * b / a) > 0.0):
        return None
    l1, l2, l3 = b / a, c / a, (e - c * b / a) / d2
    if not (d3 := f - l2 * c - l3 * (e - l2 * b)) > 0.0:
        return None
    m, i2, i3 = l1 * l3 - l2, 1.0 / d2, 1.0 / d3  # L^-1 rows: (1, 0, 0), (-l1, 1, 0), (m, -l3, 1)
    v00, v01, v02 = 1.0 / a + l1 * l1 * i2 + m * m * i3, -l1 * i2 - l3 * m * i3, m * i3
    v11, v12 = i2 + l3 * l3 * i3, -l3 * i3
    if not _largest_eigenvalue(*N) * _largest_eigenvalue(v00, v01, v02, v11, v12, i3) <= cond_limit:
        return None
    x, y, z = rhs
    return (v00 * x + v01 * y + v02 * z, v01 * x + v11 * y + v12 * z, v02 * x + v12 * y + i3 * z)


def weighted_procrustes(R_acute: np.ndarray, W: np.ndarray, det: float) -> tuple[np.ndarray, bool]:
    """Project the de-clamped linear rotation block onto SO(3), weighted by W.

    Minimizes ||(R - R_s) * W||_F over rotations, where R_s is R_acute
    rescaled by s = det(R_acute)^(-1/3). Starting from the unweighted
    projection R0 = nearest_rotation(R_s), the rotation is updated through
    the small-angle model R ~ (I - [dphi x]) R0, solving 3x3 normal equations
    per step and re-projecting onto SO(3) in closed form, on floats. It steps
    until the predicted decrease g^T dphi falls below 8 eps sum(Q |Rs - R|),
    Q = W * W (the rounding of the cost, which could not tell whether a step
    helped), undoing a step that raised the cost, and takes at most
    _PROCRUSTES_MAX_STEPS steps. R_acute and W are float 3x3 arrays and det is
    det(R_acute) > 0, as declamp_denormalize returns them.

    Returns:
        (R, fallback_used): fallback_used is True when the normal matrix
        had condition number > 1e10 and the unweighted projection R0 was
        returned instead.
    """
    Rs = (1.0 / np.cbrt(det)) * R_acute
    R0 = nearest_rotation(Rs)
    S, Q = Rs.T.tolist(), (W * W).T.tolist()  # columns, as R's below
    R, previous, cost = R0.T.tolist(), None, inf
    for step in range(_PROCRUSTES_MAX_STEPS + 1):
        # Over columns j of R, S = Rs, Q = W * W, E = S - R and D = Q * E: the cost sum(D * E),
        # normal matrix sum_ij Q_ij (e_i x R_j)(e_i x R_j)^T and right-hand side sum_j D_j x R_j.
        new_cost = abs_d = g0 = g1 = g2 = n00 = n01 = n02 = n11 = n12 = n22 = 0.0
        for (r0, r1, r2), (s0, s1, s2), (q0, q1, q2) in zip(R, S, Q):
            e0, e1, e2 = s0 - r0, s1 - r1, s2 - r2
            d0, d1, d2 = q0 * e0, q1 * e1, q2 * e2
            new_cost += d0 * e0 + d1 * e1 + d2 * e2
            abs_d += (d0 if d0 > 0.0 else -d0) + (d1 if d1 > 0.0 else -d1) + (d2 if d2 > 0.0 else -d2)
            g0, g1, g2 = g0 + d1 * r2 - d2 * r1, g1 + d2 * r0 - d0 * r2, g2 + d0 * r1 - d1 * r0
            n00, n11 = n00 + q1 * r2 * r2 + q2 * r1 * r1, n11 + q0 * r2 * r2 + q2 * r0 * r0
            n22, n01 = n22 + q0 * r1 * r1 + q1 * r0 * r0, n01 - q2 * r0 * r1
            n02, n12 = n02 - q1 * r0 * r2, n12 - q0 * r1 * r2
        if new_cost > cost:  # the last step raised the cost: undo it
            return np.array(previous).T, False
        cost = new_cost
        if step == _PROCRUSTES_MAX_STEPS:
            break
        dphi = _solve_psd((n00, n01, n02, n11, n12, n22), (g0, g1, g2), _WEIGHT_COND_LIMIT)
        if dphi is None:
            return R0, True
        x, y, z = dphi
        if g0 * x + g1 * y + g2 * z < _COST_RESOLUTION * abs_d:
            break
        # nearest_rotation((I - [dphi x]) R): I - [dphi x] fixes dphi, so its polar factor
        # (I - [dphi x] + dphi dphi^T / (1 + c)) / c maps R_j to the candidate's column j.
        c = (1.0 + (x * x + y * y + z * z)) ** 0.5
        previous, R = R, []
        for r0, r1, r2 in previous:
            t = (x * r0 + y * r1 + z * r2) / (1.0 + c)
            R.append(((r0 - y * r2 + z * r1 + t * x) / c, (r1 - z * r0 + x * r2 + t * y) / c,
                      (r2 - x * r1 + y * r0 + t * z) / c))
    return np.array(R).T, False


def recover_scale_and_position(r_acute: np.ndarray, R_final: np.ndarray) -> Pose:
    """Assemble the metric pose from the Procrustes rotation and r_acute.

    The center of projection is invariant to the global scale of the linear
    solution, so the pose pairs the rotation R_final, unchecked, with the
    float (3,) r_acute of declamp_denormalize, which has judged det(R_acute).
    """
    return Pose._from_rotation(R_final, r_acute)


def lost_translation(
    ps: np.ndarray, us: np.ndarray, Km: np.ndarray, R: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Re-triangulate the translation with the rotation held fixed.

    Splitting the constraint matrix columns into the rotation block B and
    translation block C, the system C t = -B vec(R) is solved in calibrated,
    de-normalized coordinates: each point contributes the two reduced rows
    L_i of q_i [xbar_i x], xbar = K^-1 ubar = (a, b, 1), with L_i (t + R p_i)
    = 0. Their Gram matrix is q_i^2 S_i, S_i = [[1, 0, -a], [0, 1, -b],
    [-a, -b, rho]], rho = a^2 + b^2, so the 3x3 normal equations are
    N t = -sum q_i^2 S_i R p_i. N holds the row sums of the (4, n) features
    Z = q^2 (1, a, b, rho), and as S_i R p_i is linear in p_i, the right-hand
    side comes from the 4x3 product RS = (Z P) R^T, P the (n, 3) points:
    (RS00 - RS12, RS01 - RS22, RS32 - RS10 - RS21). One O(n) pass writes Z,
    as Gauss-Newton's normal equations come from its features' Gram F F^T.

    Args:
        ps: checked (n,3) world points; solve() passes views of its own
            arrays, masked copies only when some point is behind the camera.
        us: checked (n,2) pixels, as ps.
        Km: checked 3x3 intrinsic matrix.
        R: fixed float 3x3 rotation.
        weights: float (n,) array of the positive per-point scalars q_i
            (from the final estimate).

    Returns:
        Translation t (world origin in camera coordinates); the camera
        center is r = -R^T t.

    Raises:
        RankDeficient: if the normal matrix has condition number > 1e12.
    """
    Kinv = intrinsic_inverse(Km)
    Z = np.empty((4, ps.shape[0]))  # q^2 (1, a, b, rho), one row per feature
    np.multiply(weights, weights, out=Z[0])
    a, b = np.matmul(Kinv[:2, :2], us.T, out=Z[1:3])
    a += Kinv[0, 2]
    b += Kinv[1, 2]
    rho = np.multiply(a, a, out=Z[3])
    rho += b * b
    Z[1:] *= Z[0]
    w, sa, sb, srho = Z.sum(axis=1).tolist()
    RS = ((Z @ ps) @ R.T).tolist()  # RS[k][j] = sum_i Z[k, i] (R p_i)_j
    s0, s1 = RS[0][0] - RS[1][2], RS[0][1] - RS[2][2]
    s2 = RS[3][2] - RS[1][0] - RS[2][1]
    t = _solve_psd((w, 0.0, -sa, w, -sb, srho), (-s0, -s1, -s2), _LOST_COND_LIMIT)
    if t is None:
        raise RankDeficient("translation normal matrix is ill conditioned")
    return np.array(t)
