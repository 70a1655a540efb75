"""Optimal row weighting for the linear system.

Under pixel noise of standard deviation sigma_u, the algebraic residual of
the constraint block for point i has covariance

    Sigma_eps_i = -[ubar_i x] (k^T P pbar_i)^2 sigma_u^2 S^T S [ubar_i x],

which is rank 2 with null direction ubar_i. Whitening the row-reduced block
by (a factor of) the pseudo-inverse square root collapses, after exact
cancellation, to a single scalar per point, 1 / (sigma_u k^T P pbar_i).
Every consumer ignores a factor c shared by all the weights, here 1/sigma_u:
the weighted null vector (c A has the right singular vectors of A), the
Procrustes weight matrix W (made from the squared singular values, it turns
into c^2 W, scaling the weighted cost and its normal matrix alike) and LOST's
normal equations (both sides scale by c^2). So a row weight is the inverse
depth q_i = 1 / (k^T P0 pbar_i) under a preliminary unweighted estimate P0
from the 12 x 12 Gram of the moment rows. Only the weights see its squared
condition number (Golub & Van Loan 5.3): the final null space keeps its QR.
"""

from __future__ import annotations

import numpy as np

from .dlt import _T1, _T2, _fill_moments
from .errors import RankDeficient

# Dropping points that fall behind the preliminary camera is tolerated up to
# this fraction; beyond it the preliminary estimate cannot be trusted.
NEGATIVE_DEPTH_LIMIT = 0.10


def depths_under(P0: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """Projective depths k^T P0 pbar for an (n,3) array of points."""
    ps = np.asarray(ps, dtype=float).reshape(-1, 3)
    return ps @ P0[2, :3] + P0[2, 3]


def _preliminary_normalized(Mt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unweighted preliminary estimate P0 on pre-normalized data.

    Mt holds the points and pixels, normalized over the full set, as
    dlt._assemble_arrays' moment rows; the rest is filled in place. P0 is the
    full set's unweighted null vector at every n (Hartley's argument is about
    the full normalized set), signed as solve_nullspace signs it given points.

    Returns (P0, depths of the points under P0).
    """
    S = _fill_moments(Mt) @ Mt.T
    try:
        P0 = np.linalg.eigh(_T1.T @ S @ _T1 + _T2.T @ S @ _T2)[1][:, 0].reshape(4, 3).T
    except np.linalg.LinAlgError as exc:
        raise RankDeficient(f"eigh of the preliminary Gram failed: {exc}") from exc
    depths = depths_under(P0, Mt[:3].T)
    return (-P0, -depths) if depths.sum() < 0 else (P0, depths)
