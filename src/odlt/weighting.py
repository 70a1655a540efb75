"""Optimal row weighting for the linear system.

Under pixel noise of standard deviation sigma_u, the algebraic residual of
the constraint block for point i has covariance

    Sigma_eps_i = -[ubar_i x] (k^T P pbar_i)^2 sigma_u^2 S^T S [ubar_i x],

which is rank 2 with null direction ubar_i. Whitening the row-reduced block
by (a factor of) the pseudo-inverse square root collapses, after exact
cancellation, to a single scalar per point:

    q_i = 1 / (sigma_u * k^T P pbar_i),

i.e. rows are divided by the (noise-scaled) depth of the point under a
preliminary estimate P0. The constant 1/sigma_u is kept for completeness;
the null direction of the weighted stack is invariant to it.
"""

from __future__ import annotations

import numpy as np

from .dlt import _assemble_arrays, _null_space, solve_nullspace
from .errors import RankDeficient

# Dropping points that fall behind the preliminary camera is tolerated up to
# this fraction; beyond it the preliminary estimate cannot be trusted.
NEGATIVE_DEPTH_LIMIT = 0.10

# Points in the seeded preliminary subset drawn from the chunked-QR crossover up.
SUBSET_SIZE = 12


def depths_under(P0: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """Projective depths k^T P0 pbar for an (n,3) array of points."""
    ps = np.asarray(ps, dtype=float).reshape(-1, 3)
    return ps @ P0[2, :3] + P0[2, 3]


def weight_factors(depths: np.ndarray, sigma_u: float) -> np.ndarray:
    """q = 1 / (sigma_u depths), depths > 0 (caller filters)."""
    return 1.0 / (sigma_u * depths)


def _preliminary_normalized(
    psn: np.ndarray, usn: np.ndarray, seed: int, A: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Unweighted preliminary estimate P0 on pre-normalized data.

    psn and usn are normalized over the full set, so P0 lives in those
    coordinates. Given A, the full set's constraint matrix, P0 is its null
    vector; else the solve uses a seeded subset of min(n, SUBSET_SIZE) points,
    or the full set when the drawn subset is rank deficient.

    Returns (P0, depths of psn under P0, used_full_set).
    """
    n = psn.shape[0]
    used_full = A is None and n > SUBSET_SIZE
    if used_full:
        idx = np.sort(np.random.default_rng(seed).choice(n, size=SUBSET_SIZE, replace=False))
        ps = psn[idx]
        try:
            P0 = solve_nullspace(_assemble_arrays(ps, usn[idx]), points=ps).P
            return P0, depths_under(P0, psn), False
        except RankDeficient:
            pass
    P0 = _null_space(_assemble_arrays(psn, usn) if A is None else A)[1][11].reshape(4, 3).T
    depths = depths_under(P0, psn)  # signed as solve_nullspace signs with points=psn
    return (-P0, -depths, used_full) if depths.sum() < 0 else (P0, depths, used_full)
