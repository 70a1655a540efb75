"""Pinhole camera geometry primitives.

Conventions used across the package:

- A camera with intrinsic matrix K, attitude R (world-to-camera) and center
  of projection r (in world coordinates) has projection matrix
  P = K [R | -R r] = K [R | t].
- Homogeneous image points are ubar = (u, v, 1); homogeneous world points
  are pbar = (x, y, z, 1).
- The depth of a world point is the third component of P pbar.
- Quaternions are Hamilton convention, ordered (w, x, y, z).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateInput,
    DepthZero,
    InvalidIntrinsics,
    InvalidShape,
    NonFiniteInput,
    SingularProjection,
    ZeroQuaternion,
)

_DEPTH_EPS = 1e-12
_ORTHO_TOL = 1e-12


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics. Focal lengths in pixels, principal point in pixels.

    Checked like a raw matrix: every entry finite and both focal lengths
    positive, else InvalidIntrinsics.
    """

    fx: float
    fy: float
    cx: float
    cy: float
    skew: float = 0.0

    def __post_init__(self):
        try:
            for name in ("fx", "fy", "cx", "cy", "skew"):
                object.__setattr__(self, name, float(getattr(self, name)))
        except (TypeError, ValueError) as exc:
            raise InvalidIntrinsics(f"{name} must be a number: {exc}") from exc
        _checked_intrinsic_matrix(self.matrix)

    @property
    def matrix(self) -> np.ndarray:
        """Return the 3x3 upper-triangular intrinsic matrix K."""
        return np.array(
            [
                [self.fx, self.skew, self.cx],
                [0.0, self.fy, self.cy],
                [0.0, 0.0, 1.0],
            ]
        )

    @classmethod
    def from_matrix(cls, K: np.ndarray) -> "CameraIntrinsics":
        K = _checked_intrinsic_matrix(K)
        return cls(fx=K[0, 0], fy=K[1, 1], cx=K[0, 2], cy=K[1, 2], skew=K[0, 1])


def _checked_intrinsic_matrix(K) -> np.ndarray:
    """K as a 3x3 float matrix, finite, upper triangular, with K[2,2] == 1
    and positive focal lengths K[0,0] and K[1,1].

    Raises:
        InvalidIntrinsics: if any of these does not hold.
    """
    try:
        K = np.asarray(K, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidIntrinsics(f"intrinsic matrix entries must be numbers: {exc}") from exc
    if K.shape != (3, 3):
        raise InvalidIntrinsics(f"expected 3x3 intrinsic matrix, got {K.shape}")
    if not np.isfinite(K).all():
        raise InvalidIntrinsics("intrinsic matrix entries must be finite")
    lower = np.array([K[1, 0], K[2, 0], K[2, 1]])
    if np.abs(lower).max() > 1e-9 * max(1.0, np.abs(K).max()) or abs(K[2, 2] - 1.0) > 1e-9:
        raise InvalidIntrinsics("intrinsic matrix must be upper triangular with K[2,2] == 1")
    if not (K[0, 0] > 0 and K[1, 1] > 0):
        raise InvalidIntrinsics(f"focal lengths must be positive, got fx={K[0, 0]}, fy={K[1, 1]}")
    return K


@dataclass(frozen=True)
class Pose:
    """Camera attitude R (world-to-camera rotation) and center r in world frame."""

    R: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.R, dtype=float)
        r = np.asarray(self.r, dtype=float).reshape(3)
        if R.shape != (3, 3):
            raise ValueError(f"R must be 3x3, got {R.shape}")
        if not np.all(np.isfinite(R)) or not np.all(np.isfinite(r)):
            raise ValueError("pose entries must be finite")
        err = np.abs(R.T @ R - np.eye(3)).max()
        if err > _ORTHO_TOL:
            raise ValueError(f"R is not orthonormal (max deviation {err:.3e})")
        det = np.linalg.det(R)
        if abs(det - 1.0) > _ORTHO_TOL:
            raise ValueError(f"R must have determinant +1, got {det!r}")
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "r", r)

    @classmethod
    def _from_rotation(cls, R: np.ndarray, r: np.ndarray) -> "Pose":
        """Unchecked pose from a rotation R that odlt built (orthonormal to rounding)
        and a float (3,) r."""
        pose = object.__new__(cls)
        pose.__dict__.update(R=R, r=r)
        return pose

    @property
    def t(self) -> np.ndarray:
        """Translation t = -R r of the world origin in camera coordinates."""
        return -self.R @ self.r


@dataclass(frozen=True)
class Correspondence:
    """One observation: world point p (3,) seen at pixel u (2,)."""

    p: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float).reshape(3)
        u = np.asarray(self.u, dtype=float).reshape(2)
        if not all(map(math.isfinite, p.tolist() + u.tolist())):
            raise ValueError("correspondence entries must be finite")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "u", u)

    @classmethod
    def _from_checked(cls, p: np.ndarray, u: np.ndarray) -> "Correspondence":
        """Unchecked correspondence from a finite float (3,) p and (2,) u."""
        c = object.__new__(cls)
        object.__setattr__(c, "p", p)
        object.__setattr__(c, "u", u)
        return c


def correspondence_arrays(cs) -> tuple[np.ndarray, np.ndarray]:
    """Split correspondences into point and pixel arrays.

    Accepts either a sequence of Correspondence or a pre-split pair
    (points (n,3), pixels (n,2)): a tuple or list of two items, the first not
    a Correspondence, each an array or nested sequences of numbers. Returns
    C-contiguous float64 arrays, so that a solve does not depend on the
    memory layout of its input; contiguous float64 input is not copied.

    Raises:
        InvalidShape: if the input is neither, cannot be read as numbers, or
            the arrays do not have shapes (n,3) and (n,2).
        NonFiniteInput: if any coordinate is NaN or infinite.
    """
    try:
        if isinstance(cs, (tuple, list)) and len(cs) == 2 and not isinstance(cs[0], Correspondence):
            ps = np.asarray(cs[0], dtype=float, order="C")
            us = np.asarray(cs[1], dtype=float, order="C")
        else:
            # One concatenate per field; [()] keeps an empty sequence a (0, k) array.
            ps = np.concatenate([c.p for c in cs] or [()], dtype=float).reshape(-1, 3)
            us = np.concatenate([c.u for c in cs] or [()], dtype=float).reshape(-1, 2)
    except (AttributeError, TypeError, ValueError) as exc:
        raise InvalidShape(f"neither a (points, pixels) pair nor Correspondences: {exc}") from exc
    if ps.shape[1:] != (3,) or us.shape[1:] != (2,) or ps.shape[0] != us.shape[0]:
        raise InvalidShape(
            f"expected point and pixel arrays of shapes (n,3) and (n,2), "
            f"got {ps.shape} and {us.shape}"
        )
    if not (np.isfinite(ps).all() and np.isfinite(us).all()):
        raise NonFiniteInput("point and pixel coordinates must be finite")
    return ps, us


def cross_matrix(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrix [v x] such that cross_matrix(v) @ w == cross(v, w)."""
    v = np.asarray(v, dtype=float).reshape(3)
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


def intrinsic_matrix(K) -> np.ndarray:
    """Coerce CameraIntrinsics or an ndarray to a 3x3 float matrix.

    A raw matrix must pass the same check as CameraIntrinsics.from_matrix;
    CameraIntrinsics were validated when they were built.

    Raises:
        InvalidIntrinsics: if a raw matrix is not 3x3, not finite, not upper
            triangular, has K[2,2] != 1 or a focal length that is not positive.
    """
    if isinstance(K, CameraIntrinsics):
        return K.matrix
    return _checked_intrinsic_matrix(K)


def project_points(P: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """Vectorized projection of (n,3) world points; returns (n,2) pixels."""
    P = np.asarray(P, dtype=float)
    ps = np.asarray(ps, dtype=float).reshape(-1, 3)
    w = ps @ P[:, :3].T + P[:, 3]
    depths = w[:, 2]
    if np.abs(depths).min(initial=np.inf) <= _DEPTH_EPS:
        raise DepthZero("at least one point has projective depth ~ 0")
    return w[:, :2] / depths[:, None]


def compose_projection(K, pose: Pose) -> np.ndarray:
    """Build P = K [R | -R r] from intrinsics and pose."""
    Km = intrinsic_matrix(K)
    KR = Km @ pose.R
    P = np.empty((3, 4))
    P[:, :3] = KR
    P[:, 3] = -KR @ pose.r
    return P


def decompose_projection(P: np.ndarray) -> tuple[CameraIntrinsics, Pose]:
    """Factor a full-rank projection matrix into intrinsics and pose.

    The factorization P ~ K [R | -R r] uses an RQ decomposition of the left
    3x3 block, realized through a QR decomposition of the row-reversed
    transpose. Signs are fixed so K has a positive diagonal, and K is scaled
    so K[2,2] == 1. The result is invariant to the (nonzero) global scale of
    P, including negative scales.

    Raises:
        SingularProjection: if the left 3x3 block has condition number > 1e12.
    """
    P = np.asarray(P, dtype=float).reshape(3, 4).copy()
    M = P[:, :3]
    if np.linalg.cond(M) > 1e12:
        raise SingularProjection("left 3x3 block of P is numerically singular")
    if np.linalg.det(M) < 0:
        P = -P
        M = P[:, :3]
    # RQ via QR of the flipped transpose: with F the row-reversal permutation,
    # M^T F = Q Rhat implies M = (F Rhat^T F)(F Q^T), upper-triangular times orthogonal.
    Qh, Rh = np.linalg.qr(M[::-1].T)
    Km = Rh.T[::-1, ::-1]
    R = Qh.T[::-1, :]
    d = np.sign(np.diag(Km))
    d[d == 0] = 1.0
    Km = Km * d[None, :]
    R = d[:, None] * R
    t = np.linalg.solve(Km, P[:, 3])
    Km = Km / Km[2, 2]
    pose = Pose(R=R, r=-R.T @ t)
    return CameraIntrinsics.from_matrix(Km), pose


def nearest_rotation(M: np.ndarray) -> np.ndarray:
    """Orthogonally project a 3x3 matrix onto SO(3).

    Uses the SVD construction U diag(1, 1, det(U V^T)) V^T, which minimizes
    the Frobenius distance over rotations.

    Raises:
        DegenerateInput: if the SVD raises LinAlgError (chained) or the two smallest
            singular values are <= 1e-12 times the largest: the projection is undetermined.
    """
    M = np.asarray(M, dtype=float).reshape(3, 3)
    try:
        U, s, Vt = np.linalg.svd(M)
    except np.linalg.LinAlgError as exc:
        raise DegenerateInput(f"SVD of the matrix failed: {exc}") from exc
    if s[1] <= 1e-12 * s[0]:
        raise DegenerateInput("matrix is rank <= 1; nearest rotation undetermined")
    Q = U @ Vt
    (a, b, c), (d, e, f), (g, h, i) = Q.tolist()  # det(Q) = +-1: cofactors give its sign
    if a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) > 0:
        return Q
    return (U * np.array([1.0, 1.0, -1.0])) @ Vt


def rotation_angle_deg(Ra: np.ndarray, Rb: np.ndarray) -> float:
    """Geodesic angle between two rotations, in degrees.

    Uses atan2 of the skew-symmetric part (2 sin theta) against
    trace - 1 (2 cos theta) of Ra Rb^T. Unlike the plain arccos of the
    trace, this keeps full precision for near-identical rotations, where
    arccos loses half the significant digits.
    """
    Ra = np.asarray(Ra, dtype=float)
    Rb = np.asarray(Rb, dtype=float)
    Q = Ra @ Rb.T
    s = np.array([Q[2, 1] - Q[1, 2], Q[0, 2] - Q[2, 0], Q[1, 0] - Q[0, 1]])
    return float(np.degrees(np.arctan2(np.linalg.norm(s), np.trace(Q) - 1.0)))


def quat_to_rotation(q: np.ndarray) -> np.ndarray:
    """Convert a Hamilton quaternion (w, x, y, z) to a rotation matrix.

    The quaternion is renormalized internally.

    Raises:
        ZeroQuaternion: if the norm is below 1e-9.
    """
    q = np.asarray(q, dtype=float).reshape(4)
    norm = np.linalg.norm(q)
    if norm < 1e-9:
        raise ZeroQuaternion(f"quaternion norm {norm!r} too small")
    w, x, y, z = q / norm
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def rotation_to_quat(R: np.ndarray) -> np.ndarray:
    """Convert a rotation matrix to a Hamilton quaternion (w, x, y, z), w >= 0."""
    Rxx, Ryx, Rzx, Rxy, Ryy, Rzy, Rxz, Ryz, Rzz = np.asarray(R, dtype=float).flat
    Kmat = (
        np.array(
            [
                [Rxx - Ryy - Rzz, 0, 0, 0],
                [Ryx + Rxy, Ryy - Rxx - Rzz, 0, 0],
                [Rzx + Rxz, Rzy + Ryz, Rzz - Rxx - Ryy, 0],
                [Ryz - Rzy, Rzx - Rxz, Rxy - Ryx, Rxx + Ryy + Rzz],
            ]
        )
        / 3.0
    )
    eigvals, eigvecs = np.linalg.eigh(Kmat)
    q = eigvecs[np.array([3, 0, 1, 2]), np.argmax(eigvals)]
    if q[0] < 0:
        q = -q
    return q


def rodrigues(phi: np.ndarray) -> np.ndarray:
    """Exponential map: rotation vector (3,) to rotation matrix.

    I + (sin t / t) [phi x] + ((1 - cos t) / t^2) [phi x]^2 with t = |phi|,
    written out on Python floats with [phi x]^2 = phi phi^T - t^2 I; below
    t = 1e-12 the coefficients are their limits 1 and 1/2.
    """
    x, y, z = np.asarray(phi, dtype=float).reshape(3).tolist()
    xx, yy, zz = x * x, y * y, z * z
    tt = xx + yy + zz
    if tt < 1e-24:
        a, b = 1.0, 0.5
    else:
        t = math.sqrt(tt)
        a, b = math.sin(t) / t, (1.0 - math.cos(t)) / tt
    bxy, bxz, byz = b * (x * y), b * (x * z), b * (y * z)
    return np.array(
        [
            [1.0 - b * (yy + zz), bxy - a * z, bxz + a * y],
            [bxy + a * z, 1.0 - b * (xx + zz), byz - a * x],
            [bxz - a * y, byz + a * x, 1.0 - b * (xx + yy)],
        ]
    )
