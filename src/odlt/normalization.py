"""Similarity normalization of pixels and world points.

Normalizing both sides of the correspondence data before solving the linear
system dramatically improves its conditioning: pixels are translated to zero
centroid and scaled to RMS radius sqrt(2), world points to zero centroid and
RMS radius sqrt(3) (Hartley, TPAMI 1997). A solution obtained in normalized
coordinates is mapped back with denormalize_projection.

Centroid and RMS radius are moment sums, so solve() makes no fit pass:
moment_normalization reads them off the 12x12 Gram of dlt's moment rows
m = (pbar, u pbar, v pbar) of the points less one point and the pixels less
one pixel, and returns the block-upper-triangular 12x12 B with m_norm = m B.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePoints

_COLLAPSE_EPS = 1e-12
_EYE = {2: np.eye(3), 3: np.eye(4)}  # read only: _from_moments scales copies


@dataclass(frozen=True)
class _Similarity:
    """Similarity x' = s (x - c) of DIM-vectors as a homogeneous transform."""

    T: np.ndarray
    T_inv: np.ndarray
    scale: float
    centroid: np.ndarray

    @classmethod
    def _from_moments(cls, count: float, total, squares: float, origin) -> tuple:
        """The similarity to zero centroid and RMS radius sqrt(DIM) of count points
        whose offsets from origin sum to total and their squared norms to squares,
        and the shift -s (c - origin) of the offsets' map x - origin -> s (x - c).

        Raises:
            DegeneratePoints: if the RMS distance to the centroid is < 1e-12.
        """
        mean = [t / count for t in total]
        var = squares / count - sum(m * m for m in mean)
        if not var >= _COLLAPSE_EPS * _COLLAPSE_EPS:  # also NaN
            raise DegeneratePoints(f"{cls.WHAT} set collapses to a single location")
        s = (cls.DIM / var) ** 0.5
        c = origin + mean
        T, T_inv = _EYE[cls.DIM] * s, _EYE[cls.DIM] / s
        T[-1, -1] = T_inv[-1, -1] = 1.0
        T[:-1, -1], T_inv[:-1, -1] = c * -s, c
        return cls(T=T, T_inv=T_inv, scale=s, centroid=c), [-s * m for m in mean]

    @classmethod
    def _fit(cls, xs) -> "_Similarity":
        """The similarity of the points xs (n, DIM), offsets taken from their mean."""
        xs = np.asarray(xs, dtype=float).reshape(-1, cls.DIM)
        if xs.shape[0] == 0:
            raise DegeneratePoints(f"{cls.WHAT} set is empty")
        d = xs - (mean := xs.mean(axis=0))
        return cls._from_moments(xs.shape[0], d.sum(axis=0).tolist(), float(np.vdot(d, d)), mean)[0]

    def apply(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float).reshape(-1, self.DIM)
        return (xs - self.centroid) * self.scale


class PixelNormalization(_Similarity):
    """Similarity u' = s (u - c) of pixels as a homogeneous 3x3 transform."""

    DIM = 2
    WHAT = "pixel"


class PointNormalization(_Similarity):
    """Similarity p' = s (p - c) of world points as a homogeneous 4x4 transform."""

    DIM = 3
    WHAT = "point"


def fit_pixel_normalization(us: np.ndarray) -> PixelNormalization:
    """Fit the pixel similarity (zero centroid, RMS radius sqrt(2)); DegeneratePoints if collapsed."""
    return PixelNormalization._fit(us)


def fit_point_normalization(ps: np.ndarray) -> PointNormalization:
    """Fit the point similarity (zero centroid, RMS radius sqrt(3)); DegeneratePoints if collapsed."""
    return PointNormalization._fit(ps)


def moment_normalization(S: np.ndarray, u0: np.ndarray, p0: np.ndarray) -> tuple:
    """(pixel normalization, point normalization, B) from the Gram S = Mt Mt^T
    of dlt's moment rows of the points less p0 and the pixels less u0.

    S[3, 3] counts the points, S[:3, 3] and S[3, 7::4] sum the point and pixel
    offsets and the traces of S[:3, :3] and S[7::4, 7::4] their squared norms.
    With p' = s_p p + a and u' = s_u u + b the offsets' maps, m_norm = m B for
    B = B_u kron B_p, B_p = [[s_p I, 0], [a, 1]] acting on pbar = (p, 1) and
    B_u = [[1, b], [0, s_u I]] on (1, u, v), which is m's block order.

    Raises:
        DegeneratePoints: if either set collapses (RMS radius < 1e-12).
    """
    S = S.tolist()
    pix, b = PixelNormalization._from_moments(S[3][3], S[3][7::4], S[7][7] + S[11][11], u0)
    pt, a = PointNormalization._from_moments(S[3][3], S[3][:3], S[0][0] + S[1][1] + S[2][2], p0)
    Bp, Bu = _EYE[3] * pt.scale, _EYE[2] * pix.scale
    Bp[3], Bu[0] = (*a, 1.0), (1.0, *b)
    return pix, pt, (Bu[:, None, :, None] * Bp[:, None]).reshape(12, 12)


def denormalize_projection(
    P_norm: np.ndarray,
    pixel_norm: PixelNormalization | None,
    point_norm: PointNormalization | None,
) -> np.ndarray:
    """Map a 3x4 projection estimated in normalized coordinates back: T_u^-1 P T_p.
    Both normalizations None means unnormalized (dlt): P_norm itself is returned."""
    if pixel_norm is None and point_norm is None:
        return P_norm
    return pixel_norm.T_inv @ P_norm @ point_norm.T
