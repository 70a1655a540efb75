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
from the 12 x 12 Gram of the normalized moment rows, B^T S B for the Gram S of
the raw ones, through dlt._normal_eigh. The weighted stage of solvers scales
each point's moment row by q_i and hands the weighted rows to dlt.solve_gram,
whose null vector comes from the same kernel on their Gram, unless its
eigenvalue gap is too small for the Gram's squared condition number (Golub &
Van Loan 8.1); then, and only then, the weighted rows are factored.
se3.rotation_weights reads W off the weighted null space.
"""

from __future__ import annotations

import numpy as np

from .dlt import _T12, _normal_eigh

# Dropping points that fall behind the preliminary camera is tolerated up to
# this fraction; beyond it the preliminary estimate cannot be trusted.
NEGATIVE_DEPTH_LIMIT = 0.10


def depths_under(P0: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """Projective depths k^T P0 pbar for an (n,3) array of points."""
    ps = np.asarray(ps, dtype=float).reshape(-1, 3)
    return ps @ P0[2, :3] + P0[2, 3]


def _preliminary_normalized(Mt: np.ndarray, S: np.ndarray, B: np.ndarray) -> tuple:
    """Unweighted preliminary estimate P0 in normalized coordinates.

    Mt holds dlt._fill_moments' moment rows, S = Mt Mt^T their Gram and B
    the basis that normalizes them (m_norm = m B), fitted to the full set. P0
    is the full set's unweighted null vector at every n (Hartley's argument
    is about the full normalized set), signed as solve_nullspace signs it
    given points: the depths k^T P0 pbar_norm = (B[:4, :4] P0[2]) . pbar of
    the raw point rows.

    Returns (P0, depths of the points under P0).
    """
    P0 = _normal_eigh(S, B @ _T12, "preliminary")[1][:, 0].reshape(4, 3).T
    k = B[:4, :4] @ P0[2]
    depths = Mt[:3].T @ k[:3] + k[3]
    return (-P0, -depths) if depths.sum() < 0 else (P0, depths)
