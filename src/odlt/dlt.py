"""Linear (DLT) engine: constraint assembly and null-space extraction.

Each correspondence (p, u) contributes the collinearity constraint
[ubar x] P pbar = 0. With the column-major vec convention this reads
(pbar^T kron [ubar x]) vec(P) = 0; only the first two rows are kept since
the cross-product matrix has rank 2. Stacking n such 2x12 blocks gives the
homogeneous system A vec(P) = 0 whose null direction is the projection
matrix estimate.

The null direction is A's last right singular vector, from one numpy svd:
LAPACK's dgesdd, which from 22 rows up (11 x 12 / 6, its crossover for 12
columns) QR-factors A itself and takes the SVD of the 12x12 R, so s and V are
bit for bit those of an explicit QR and svd of its R, with no squared Gram
(weighting's preliminary uses one). It also forms A's 2n x 12 left factor, a
cost L(R) avoids (below). Under 22 rows (n <= 10) dgesdd bidiagonalizes A
directly, which differs only by rounding.

A is mostly structure. Point i's two rows are pbar_i kron (0, -1, v_i) and
pbar_i kron (1, 0, -u_i): each places two of the 4-column groups of its
moment row m_i = (pbar_i, u_i pbar_i, v_i pbar_i), negated or not, in fixed
columns. So the two rows are L(m_i) = m_i _T12, read as two rows of 12, for
one fixed 12 x 24 matrix _T12 = [T1 | T2], and up to row order
A = [M T1; M T2] for the n x 12 moment matrix M: A^T A = T1^T S T1 + T2^T S T2
for S = M^T M. If M = QR, then A = diag(Q, Q) L(R), where L(R) is the 24 x 12
matrix that L makes from R's 12 rows in place of the m_i. diag(Q, Q) has
orthonormal columns, so L(R) has exactly A's singular values and right
singular vectors, and no Gram matrix is formed. From _LR_MIN_POINTS = 256
points up _system_rows hands on R^T in place of M^T, and _assemble_arrays
makes L(R) of it in place of A: half of A's QR work and n-sized memory, and
the zero half of A is never built. A normalized system is that of the rows
m B for normalization's 12 x 12 B, so its row map is the product B _T12, and
L(R) is made from R B, as M B = Q (R B). _r_factor, the only explicit QR,
factors tall M in chunks (TSQR; Demmel, Grigori, Hoemmen & Langou, SIAM J.
Sci. Comput. 2012): one stacked QR of k blocks of _QR_BLOCK rows, then one QR
of the k stacked 12x12 R factors and the leftover rows.

Each column of _T12 holds at most one nonzero, +1 or -1, so m _T12 copies
moment entries, negated or not, bit for bit; with B each entry of M (B _T12)
is the 12-term dot product of a row of M with a column of B, negated or not.

vec(P) is column-major: entries 0-8 hold the left 3x3 block of P column by
column, entries 9-11 hold the fourth column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RankDeficient

MIN_POINTS = 6

_RANK_TOL = 1e-10

# In solve() on one BLAS thread, L(R) from 256 rather than 768 points took 0.35-0.94
# of the time at n=256-767; from 128 rather than 256, 0.83-0.99 at 160-255, 0.95-1.02 at 128.
_LR_MIN_POINTS = 256
# Chunked R factor: blocks of _QR_BLOCK rows from _QR_CHUNK_MIN_ROWS rows up.
# In solve() on one BLAS thread, blocks lose up to 40 us at 1024 rows. From
# 1536 rows one unchunked QR takes 1.2-1.4x the time of blocks, with 70-100
# minor page faults per solve against 0-1 (numpy's full-size QR work copy),
# until glibc's malloc has raised its mmap threshold past that copy; then it
# takes 0.88-0.99x, with no faults, at 1600-5000 rows (uncentered, 2-CPU host).
_QR_BLOCK = 512
_QR_CHUNK_MIN_ROWS = 3 * _QR_BLOCK
_UPPER = np.triu(np.ones((12, 12), dtype=bool))  # mode="r"'s mask, built once
_T12 = np.zeros((12, 24))  # the row map [T1 | T2] (see above), in vec(P) order
_T12[range(4), range(1, 12, 3)], _T12[range(8, 12), range(2, 12, 3)] = -1.0, 1.0
_T12[range(4), range(12, 24, 3)], _T12[range(4, 8), range(14, 24, 3)] = 1.0, -1.0


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


def _fill_moments(Mt: np.ndarray) -> np.ndarray:
    """Mt, its rows 3-6 and 8-10 filled in place from its points (0-2) and pixels (7, 11)."""
    Mt[3] = 1.0
    np.multiply(Mt[:3], Mt[7], out=Mt[4:7])
    np.multiply(Mt[:3], Mt[11], out=Mt[8:11])
    return Mt


def _system_rows(Mt: np.ndarray) -> np.ndarray:
    """The rows to assemble, the one choice of route: Mt (12, n) itself below
    _LR_MIN_POINTS points, else the 12 x 12 R^T of M = QR, whose system is L(R)."""
    return Mt if Mt.shape[1] < _LR_MIN_POINTS else _r_factor(Mt.T).T


def _assemble_arrays(Mt: np.ndarray, basis=None) -> np.ndarray:
    """The constraint rows of the moment rows Mt (12, k), which it does not write:
    A for _fill_moments' rows, L(R) for _system_rows' R^T. With basis,
    normalization's 12 x 12 B, the system is that of the rows m B. Either way
    it is one exact product M C (see above) of the row map C, _T12 or B _T12:
    row i of the (k, 24) product holds moment row i's two constraint rows."""
    C = _T12 if basis is None else basis @ _T12
    return (Mt.T @ C).reshape(-1, 12)


def _r_factor(M: np.ndarray) -> np.ndarray:
    """R factor (up to row signs) of the moment matrix M = QR, chunked (see above)."""
    m = M.shape[0]
    try:
        if m < _QR_CHUNK_MIN_ROWS:
            R = np.linalg.qr(M, mode="raw")[0].T[:12]
            return np.where(_UPPER[: R.shape[0]], R, 0.0)
        k = m // _QR_BLOCK
        heads = np.linalg.qr(M[: k * _QR_BLOCK].reshape(k, _QR_BLOCK, 12), mode="raw")[0]
        heads = np.where(_UPPER, heads.swapaxes(1, 2)[:, :12], 0.0).reshape(12 * k, 12)
        R = np.linalg.qr(np.concatenate([heads, M[k * _QR_BLOCK :]]), mode="raw")[0].T[:12]
        return np.where(_UPPER, R, 0.0)
    except np.linalg.LinAlgError as exc:
        raise RankDeficient(f"QR of the moment rows failed: {exc}") from exc


def solve_nullspace(A: np.ndarray, points=None, T_p=None) -> DltSolution:
    """Extract the null direction of the stacked constraint matrix.

    The smallest right singular vector of A is reshaped (column-major) into
    the 3x4 estimate. When world points are supplied, the global sign is
    fixed so their mean depth under P is positive (cheirality), and the
    mixed_depths flag reports whether fewer than 90% of depths share the
    majority sign.

    Args:
        A: the float 2n x 12 stacked constraint matrix, or its 24 x 12 L(R) (see above).
        points: optional float (n,3) array of the world points behind A's rows.
        T_p: optional 4x4 point normalization: A's points are then T_p pbar.

    Raises:
        RankDeficient: if its SVD raises LinAlgError (chained), or if the 11th
            singular value is below 1e-10 of the largest: no unique null space at working
            precision (degenerate points, or unnormalized coordinates far from the origin).
    """
    if A.ndim != 2 or A.shape[1] != 12:
        raise ValueError(f"expected (m, 12) matrix, got {A.shape}")
    try:
        _, s, Vt = np.linalg.svd(A, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise RankDeficient(f"SVD of the constraint rows failed: {exc}") from exc
    if s.shape[0] < 12:
        raise RankDeficient(f"only {s.shape[0]} rows; null space is not unique")
    if s[0] <= 0.0 or s[10] / s[0] < _RANK_TOL:
        raise RankDeficient(
            "null space not unique at working precision (degenerate points, or unnormalized"
            " coordinates far from the origin): sigma_11/sigma_1 ="
            f" {s[10] / max(s[0], 1e-300):.3e}"
        )
    P = Vt[11].reshape(4, 3).T
    mixed = False
    if points is not None:
        k = P[2] if T_p is None else P[2] @ T_p
        depths = points @ k[:3] + k[3]
        if depths.sum() < 0:
            Vt[11] *= -1.0  # P and the returned V are views of Vt
        npos = np.count_nonzero(depths > 0)
        mixed = max(npos, depths.shape[0] - npos) < 0.9 * depths.shape[0]
    return DltSolution(P=P, singular_values=s, V=Vt.T, mixed_depths=mixed)
