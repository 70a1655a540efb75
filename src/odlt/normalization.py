"""Similarity normalization of pixels and world points.

Normalizing both sides of the correspondence data before solving the linear
system dramatically improves its conditioning: pixels are translated to zero
centroid and scaled to mean radius sqrt(2), world points to zero centroid and
mean radius sqrt(3). A solution obtained in normalized coordinates is mapped
back with denormalize_projection. The fits leave the normalized points as rows
in `out`; solve() passes dlt's moment rows there, so it never calls apply.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePoints

_COLLAPSE_EPS = 1e-12
_EYE = {2: np.eye(3), 3: np.eye(4)}  # read only: _fit scales copies


@dataclass(frozen=True)
class _Similarity:
    """Similarity x' = s (x - c) of DIM-vectors as a homogeneous transform."""

    T: np.ndarray
    T_inv: np.ndarray
    scale: float
    centroid: np.ndarray

    @classmethod
    def identity(cls) -> "_Similarity":
        eye = np.eye(cls.DIM + 1)
        return cls(T=eye, T_inv=eye.copy(), scale=1.0, centroid=np.zeros(cls.DIM))

    def apply(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float).reshape(-1, self.DIM)
        return (xs - self.centroid) * self.scale


class PixelNormalization(_Similarity):
    """Similarity u' = s (u - c) of pixels as a homogeneous 3x3 transform."""

    DIM = 2


class PointNormalization(_Similarity):
    """Similarity p' = s (p - c) of world points as a homogeneous 4x4 transform."""

    DIM = 3


def _fit(xs, dim: int, radius: float, what: str, out=None) -> dict:
    """Similarity fields taking xs to zero centroid and mean radius `radius`.

    xs is copied into the rows out (dim, n), new when None, and normalized in
    place there; every pass runs along n, not along a 2- or 3-wide point.
    """
    xs = np.asarray(xs, dtype=float).reshape(-1, dim)
    n = xs.shape[0]
    d = np.empty((dim, n)) if out is None else out
    d[...] = xs.T
    centroid = d.sum(axis=1) / n
    d -= centroid[:, None]
    mean_radius = np.sqrt(np.einsum("ij,ij->j", d, d)).sum() / n
    if mean_radius < _COLLAPSE_EPS:
        raise DegeneratePoints(f"{what} set collapses to a single location")
    scale = radius / mean_radius
    d *= scale
    T = _EYE[dim] * scale
    T[dim, dim] = 1.0
    T[:dim, dim] = -scale * centroid
    T_inv = _EYE[dim] / scale
    T_inv[dim, dim] = 1.0
    T_inv[:dim, dim] = centroid
    return dict(T=T, T_inv=T_inv, scale=scale, centroid=centroid)


def fit_pixel_normalization(us: np.ndarray, out=None) -> PixelNormalization:
    """Fit the pixel similarity: zero centroid, mean radius sqrt(2). Given
    out, a (2, n) array, the normalized pixels are left in it as rows.

    Raises:
        DegeneratePoints: if the mean distance to the centroid is < 1e-12.
    """
    return PixelNormalization(**_fit(us, 2, np.sqrt(2.0), "pixel", out))


def fit_point_normalization(ps: np.ndarray, out=None) -> PointNormalization:
    """Fit the world-point similarity: zero centroid, mean radius sqrt(3).
    Given out, a (3, n) array, the normalized points are left in it as rows.

    Raises:
        DegeneratePoints: if the mean distance to the centroid is < 1e-12.
    """
    return PointNormalization(**_fit(ps, 3, np.sqrt(3.0), "point", out))


def denormalize_projection(
    P_norm: np.ndarray,
    pixel_norm: PixelNormalization,
    point_norm: PointNormalization,
) -> np.ndarray:
    """Map a projection estimated in normalized coordinates back: T_u^-1 P T_p."""
    P_norm = np.asarray(P_norm, dtype=float).reshape(3, 4)
    return pixel_norm.T_inv @ P_norm @ point_norm.T
