"""Linear (DLT) engine: constraint assembly and null-space extraction.

Each correspondence (p, u) contributes the collinearity constraint
[ubar x] P pbar = 0. With the column-major vec convention this reads
(pbar^T kron [ubar x]) vec(P) = 0; only the first two rows are kept since
the cross-product matrix has rank 2. Stacking n such 2x12 blocks gives the
homogeneous system A vec(P) = 0 whose null direction is the projection
matrix estimate.

The null direction comes from the R factor of A = QR: A and the 12x12 R
share singular values and right singular vectors, so an O(n) QR and the SVD
of R give A's exact spectrum at any n, with no 2n x 12 left factor and no
squared Gram matrix. Tall A is factored in chunks (TSQR; Demmel, Grigori,
Hoemmen & Langou, SIAM J. Sci. Comput. 2012): one stacked QR of k blocks of
_QR_BLOCK rows, then one QR of the k stacked 12x12 R factors plus the
leftover rows. That is A's R up to row signs, with each block's work held in
cache.

A is mostly structure. Point i's two rows are pbar_i kron (0, -1, v_i) and
pbar_i kron (1, 0, -u_i): each places two of the 4-column groups of its
moment row m_i = (pbar_i, u_i pbar_i, v_i pbar_i), negated or not, in fixed
columns. So the two rows are L(m_i) = (m_i T1, m_i T2) for two fixed
12 x 12 matrices T1 and T2, and up to row order A = [M T1; M T2] for the
n x 12 moment matrix M. If M = QR, then A = diag(Q, Q) L(R), where L(R) is
the 24 x 12 matrix that L makes from R's 12 rows in place of the m_i.
diag(Q, Q) has orthonormal columns, so L(R) has exactly A's singular values
and right singular vectors, and no Gram matrix is formed. From the
chunked-QR crossover up (2n >= _QR_CHUNK_MIN_ROWS, n >= 768)
_assemble_arrays returns L(R) in place of A: half of A's QR work and
n-sized memory, and the zero half of A is never built.

vec(P) is column-major: entries 0-8 hold the left 3x3 block of P column by
column, entries 9-11 hold the fourth column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RankDeficient, TooFewPoints

MIN_POINTS = 6

_RANK_TOL = 1e-10

# Chunked R factor: blocks of _QR_BLOCK rows from _QR_CHUNK_MIN_ROWS rows up.
# In solve() on one BLAS thread, blocks lose up to 40 us at 1024 rows and win
# 70-140 us from 1536 rows on, mostly the page faults of numpy's full-size
# QR work copy.
_QR_BLOCK = 512
_QR_CHUNK_MIN_ROWS = 3 * _QR_BLOCK
_UPPER = np.triu(np.ones((12, 12), dtype=bool))  # mode="r"'s mask, built once


@dataclass(frozen=True)
class DltSolution:
    """Null-space solve output.

    Attributes:
        P: 3x4 projection estimate (unit Frobenius norm, cheirality-fixed
            when points were supplied).
        singular_values: all 12 singular values, descending.
        V: 12x12 matrix of right singular vectors (columns, same order).
        mixed_depths: True when fewer than 90% of the supplied points share
            the majority depth sign under P.
    """

    P: np.ndarray
    singular_values: np.ndarray
    V: np.ndarray
    mixed_depths: bool = False


def _assemble_arrays(ps: np.ndarray, us: np.ndarray, weights=None) -> np.ndarray:
    """The 2n x 12 constraint matrix A of (optionally row-weighted) points,
    or from the chunked-QR crossover up the 24 x 12 L(R) that shares A's
    singular values and right singular vectors (see the module docstring)."""
    n = ps.shape[0]
    if n < MIN_POINTS:
        raise TooFewPoints(n, MIN_POINTS)
    # The moment matrix M = (pbar, u pbar, v pbar) is held as its transpose
    # Mt, so that every write below runs along n, not along a 4-wide group.
    Mt = np.empty((12, n))
    pbar = Mt[:4]
    pbar[:3] = ps.T
    pbar[3] = 1.0
    if weights is not None:
        w = np.asarray(weights, dtype=float).reshape(-1)
        if w.shape[0] != n:
            raise ValueError(f"expected {n} weights, got {w.shape[0]}")
        pbar *= w
    np.multiply(pbar, us[:, 0], out=Mt[4:8])
    np.multiply(pbar, us[:, 1], out=Mt[8:])
    if 2 * n >= _QR_CHUNK_MIN_ROWS:
        Mt = _r_factor(Mt.T).T  # 12 moment rows in place of n; same row map below
    # rows[m, r, j, i] = pbar[m, j] * su[m, r, i] for the reduced rows
    # su = ((0, -1, v), (1, 0, -u)): only four column groups are nonzero,
    # each one of M's column groups, negated or not. t[i, j, r] = rows[:, r, j, i].
    k = Mt.shape[1]
    rows = np.zeros((k, 2, 4, 3))
    t = rows.T
    np.negative(Mt[:4], out=t[1, :, 0])
    t[2, :, 0] = Mt[8:]
    t[0, :, 1] = Mt[:4]
    np.negative(Mt[4:8], out=t[2, :, 1])
    return rows.reshape(2 * k, 12)


def _r_factor(A: np.ndarray) -> np.ndarray:
    """R factor of an (m, 12) A = QR, chunked from _QR_CHUNK_MIN_ROWS rows (see above)."""
    m = A.shape[0]
    if m < _QR_CHUNK_MIN_ROWS:
        R = np.linalg.qr(A, mode="raw")[0].T[:12]
        return np.where(_UPPER[: R.shape[0]], R, 0.0)
    k = m // _QR_BLOCK
    heads = np.linalg.qr(A[: k * _QR_BLOCK].reshape(k, _QR_BLOCK, 12), mode="r")
    return np.linalg.qr(np.concatenate([heads.reshape(12 * k, 12), A[k * _QR_BLOCK :]]), mode="r")


def _null_space(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values and V^T of A, rank checked; Vt[11] is the null vector."""
    _, s, Vt = np.linalg.svd(_r_factor(A))
    if s.shape[0] < 12:
        raise RankDeficient(f"only {s.shape[0]} rows; null space is not unique")
    if s[0] <= 0.0 or s[10] / s[0] < _RANK_TOL:
        raise RankDeficient(
            f"two-dimensional null space: sigma_11/sigma_1 = {s[10] / max(s[0], 1e-300):.3e}"
        )
    return s, Vt


def solve_nullspace(A: np.ndarray, points=None) -> DltSolution:
    """Extract the null direction of the stacked constraint matrix.

    The smallest right singular vector of A is reshaped (column-major) into
    the 3x4 estimate. When world points are supplied, the global sign is
    fixed so their mean depth under P is positive (cheirality), and the
    mixed_depths flag reports whether fewer than 90% of depths share the
    majority sign.

    Args:
        A: 2n x 12 stacked constraint matrix.
        points: optional (n,3) array of the world points behind A's rows.

    Raises:
        RankDeficient: if the 11th singular value is below 1e-10 of the
            largest, i.e. the null space is (at least) two-dimensional.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[1] != 12:
        raise ValueError(f"expected (m, 12) matrix, got {A.shape}")
    s, Vt = _null_space(A)
    V = Vt.T
    P = Vt[11].reshape(4, 3).T
    mixed = False
    if points is not None:
        ps = np.asarray(points, dtype=float).reshape(-1, 3)
        depths = ps @ P[2, :3] + P[2, 3]
        if depths.sum() < 0:
            P = -P
            V = V.copy()
            V[:, 11] = -V[:, 11]
        npos = np.count_nonzero(depths > 0)
        mixed = max(npos, depths.shape[0] - npos) < 0.9 * depths.shape[0]
    return DltSolution(P=P, singular_values=s, V=V, mixed_depths=mixed)

