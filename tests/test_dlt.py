import numpy as np
import pytest

from odlt.dlt import (
    _LR_MIN_POINTS,
    _QR_BLOCK,
    _QR_CHUNK_MIN_ROWS,
    _assemble_arrays,
    _r_factor,
    _system_rows,
    solve_nullspace,
)
from odlt.errors import RankDeficient
from odlt.evaluation import UNCENTERED_BOX, SyntheticScenario, generate_scene
from odlt.geometry import Pose, compose_projection
from odlt.normalization import fit_pixel_normalization, fit_point_normalization
from conftest import make_exact_scene, moment_rows, oracle_project, random_rotation


def vec_cm(P):
    """Column-major vec of a 3x4 matrix, used as the layout oracle."""
    return np.asarray(P).T.reshape(12)


def kron_block(p, u):
    """One constraint block, kron(pbar, S [ubar x]) with S keeping the first two rows."""
    ubar = np.array([u[0], u[1], 1.0])
    cross = np.array(
        [
            [0.0, -ubar[2], ubar[1]],
            [ubar[2], 0.0, -ubar[0]],
            [-ubar[1], ubar[0], 0.0],
        ]
    )
    return np.kron(np.append(p, 1.0), cross[:2])


def test_constraint_block_matches_kron_oracle(rng):
    # The hand-picked correspondence's rows in the stack, unweighted and weighted.
    _, _, _, ps, us = make_exact_scene(rng, n=6)
    ps[2] = [0.3, -1.2, 4.0]
    us[2] = [17.0, -5.5]
    oracle = kron_block(ps[2], us[2])
    np.testing.assert_array_equal(_assemble_arrays(moment_rows(ps, us))[4:6], oracle)
    w = rng.uniform(0.5, 2.0, 6)
    np.testing.assert_allclose(
        _assemble_arrays(moment_rows(ps, us, w))[4:6], w[2] * oracle, rtol=1e-15, atol=0
    )


def test_assemble_stacks_blocks(rng):
    _, _, _, ps, us = make_exact_scene(rng, n=8)
    A = _assemble_arrays(moment_rows(ps, us))
    assert A.shape == (16, 12)
    for i, (p, u) in enumerate(zip(ps, us)):
        np.testing.assert_array_equal(A[2 * i : 2 * i + 2], kron_block(p, u))


def test_exact_data_annihilates_true_projection(rng):
    for _ in range(10):
        Km, R, r, ps, us = make_exact_scene(rng, n=12)
        P = compose_projection(Km, Pose(R=R, r=r))
        A = _assemble_arrays(moment_rows(ps, us))
        residual = A @ vec_cm(P)
        assert np.abs(residual).max() < 1e-6 * np.abs(P).max()


def test_nullspace_recovers_projection(rng):
    for _ in range(10):
        Km, R, r, ps, us = make_exact_scene(rng, n=15)
        P = compose_projection(Km, Pose(R=R, r=r))
        sol = solve_nullspace(_assemble_arrays(moment_rows(ps, us)), points=ps)
        P_ref = P / np.linalg.norm(P)
        np.testing.assert_allclose(sol.P, P_ref, atol=1e-9 * np.abs(P_ref).max())
        assert sol.singular_values[11] < 1e-9 * sol.singular_values[0]
        assert not sol.mixed_depths


def test_cheirality_sign_is_fixed_by_points(rng):
    Km, R, r, ps, us = make_exact_scene(rng, n=10)
    A = _assemble_arrays(moment_rows(ps, us))
    sol_pos = solve_nullspace(A, points=ps)
    sol_neg = solve_nullspace(-A, points=ps)
    depths = ps @ sol_pos.P[2, :3] + sol_pos.P[2, 3]
    assert depths.mean() > 0
    np.testing.assert_allclose(sol_neg.P, sol_pos.P, atol=1e-12)


def test_unit_norm_and_layout(rng):
    _, _, _, ps, us = make_exact_scene(rng, n=9)
    sol = solve_nullspace(_assemble_arrays(moment_rows(ps, us)), points=ps)
    assert abs(np.linalg.norm(sol.P) - 1.0) < 1e-12
    # P and the last column of V hold the same numbers in vec layout.
    np.testing.assert_array_equal(vec_cm(sol.P), sol.V[:, 11])


def test_eigensolver_oracle_small_matrix(rng):
    A = rng.standard_normal((40, 12))
    sol = solve_nullspace(A)
    evals, evecs = np.linalg.eigh(A.T @ A)
    s_oracle = np.sqrt(evals[::-1])
    np.testing.assert_allclose(sol.singular_values, s_oracle, rtol=1e-9)
    x_oracle = evecs[:, 0]
    x = vec_cm(sol.P)
    if np.dot(x, x_oracle) < 0:
        x_oracle = -x_oracle
    np.testing.assert_allclose(x, x_oracle, atol=1e-8)


# The moment reduction's R factor has A's singular values and right singular
# vectors: both sides of the single-QR / chunked crossover, an exact multiple
# of the block size and one row past a multiple (a one-row leftover).
@pytest.mark.parametrize(
    "rows",
    [
        12,
        24,
        100,
        _QR_CHUNK_MIN_ROWS - 1,
        _QR_CHUNK_MIN_ROWS,
        _QR_CHUNK_MIN_ROWS + 1,
        4 * _QR_BLOCK,
        5 * _QR_BLOCK + 1,
        4000,
        4120,
        10000,
    ],
)
def test_qr_path_agrees_with_direct_svd(rng, rows):
    A = rng.standard_normal((rows, 12))
    sol = solve_nullspace(_r_factor(A))
    _, s_oracle, Vt = np.linalg.svd(A, full_matrices=False)
    np.testing.assert_allclose(sol.singular_values, s_oracle, rtol=1e-12)
    x_oracle = Vt[11]
    x = vec_cm(sol.P)
    if np.dot(x, x_oracle) < 0:
        x_oracle = -x_oracle
    np.testing.assert_allclose(x, x_oracle, atol=1e-10)


def test_chunked_path_detects_two_dimensional_nullspace(rng):
    rows = 4 * _QR_BLOCK + 7
    assert rows >= _QR_CHUNK_MIN_ROWS
    A = rng.standard_normal((rows, 10)) @ rng.standard_normal((10, 12))
    with pytest.raises(RankDeficient):
        solve_nullspace(_r_factor(A))


def test_coplanar_points_rank_deficient(rng):
    Km, R, r, ps, us = make_exact_scene(rng, n=20)
    ps = ps.copy()
    ps[:, 2] = 5.0  # squash onto a plane, then reproject exactly
    us = oracle_project(Km, R, r, ps)
    with pytest.raises(RankDeficient):
        solve_nullspace(_assemble_arrays(moment_rows(ps, us)), points=ps)


def test_too_few_rows_rejected(rng):
    with pytest.raises(RankDeficient):
        solve_nullspace(rng.standard_normal((10, 12)))
    with pytest.raises(ValueError):
        solve_nullspace(rng.standard_normal((20, 11)))


def test_weight_scale_invariance(rng):
    _, _, _, ps, us = make_exact_scene(rng, n=14)
    us = us + rng.standard_normal(us.shape)
    w = rng.uniform(0.5, 2.0, len(ps))
    sol_a = solve_nullspace(_assemble_arrays(moment_rows(ps, us, w)), points=ps)
    sol_b = solve_nullspace(_assemble_arrays(moment_rows(ps, us, 3.7 * w)), points=ps)
    np.testing.assert_allclose(sol_a.P, sol_b.P, atol=1e-12)


def test_permutation_invariance(rng):
    _, _, _, ps, us = make_exact_scene(rng, n=14)
    us = us + rng.standard_normal(us.shape)
    w = rng.uniform(0.5, 2.0, len(ps))
    perm = rng.permutation(len(ps))
    sol_a = solve_nullspace(_assemble_arrays(moment_rows(ps, us, w)), points=ps)
    A_perm = _assemble_arrays(moment_rows(ps[perm], us[perm], w[perm]))
    sol_b = solve_nullspace(A_perm, points=ps[perm])
    np.testing.assert_allclose(sol_a.P, sol_b.P, atol=1e-9)


def test_weights_affect_noisy_solution(rng):
    _, _, _, ps, us = make_exact_scene(rng, n=14)
    us = us + rng.standard_normal(us.shape)
    uniform = solve_nullspace(_assemble_arrays(moment_rows(ps, us)), points=ps)
    w = rng.uniform(0.1, 5.0, len(ps))
    skewed = solve_nullspace(_assemble_arrays(moment_rows(ps, us, w)), points=ps)
    assert np.abs(uniform.P - skewed.P).max() > 1e-8


def test_mixed_depths_flag(rng):
    Km, R, r, ps, us = make_exact_scene(rng, n=20)
    behind = ps.copy()
    # Reflect 40% of the points through the camera center: negative depth,
    # yet the constraint rows stay exactly consistent with the same P.
    cam = (behind - r) @ R.T
    cam[:8] *= -1.0
    behind = cam @ R + r
    us2 = oracle_project(Km, R, r, behind)
    sol = solve_nullspace(_assemble_arrays(moment_rows(behind, us2)), points=behind)
    assert sol.mixed_depths
    sol_clean = solve_nullspace(_assemble_arrays(moment_rows(ps, us)), points=ps)
    assert not sol_clean.mixed_depths


def test_information_matrix_recomputed(rng):
    _, _, _, ps, us = make_exact_scene(rng, n=16)
    us = us + 0.5 * rng.standard_normal(us.shape)
    sol = solve_nullspace(_assemble_arrays(moment_rows(ps, us)), points=ps)
    info = (sol.V * sol.singular_values**2) @ sol.V.T
    oracle = sol.V @ np.diag(sol.singular_values**2) @ sol.V.T
    np.testing.assert_allclose(info, oracle, atol=1e-9 * sol.singular_values[0] ** 2)
    np.testing.assert_allclose(info, info.T, atol=1e-9)
    evals = np.linalg.eigvalsh(info)
    assert evals.min() > -1e-6 * evals.max()
    # The null direction carries (near) zero information.
    x = vec_cm(sol.P)
    assert np.linalg.norm(info @ x) < 1e-6 * evals.max()


def kron_matrix(ps, us, weights=None):
    """The explicit 2n x 12 stack of kron(w_i pbar_i, S [ubar_i x]) blocks,
    vectorized: row 2i + k, column 3j + l holds w_i pbar_i[j] (S [ubar_i x])[k, l]."""
    n = ps.shape[0]
    pbar = np.column_stack([ps, np.ones(n)])
    if weights is not None:
        pbar = pbar * weights[:, None]
    cross = np.zeros((n, 2, 3))
    cross[:, 0, 1] = -1.0
    cross[:, 0, 2] = us[:, 1]
    cross[:, 1, 0] = 1.0
    cross[:, 1, 2] = -us[:, 0]
    return np.einsum("ij,ikl->ikjl", pbar, cross).reshape(2 * n, 12)


def test_kron_matrix_matches_kron_blocks(rng):
    _, _, _, ps, us = make_exact_scene(rng, n=8)
    w = rng.uniform(0.5, 2.0, 8)
    blocks = np.vstack([w[i] * kron_block(p, u) for i, (p, u) in enumerate(zip(ps, us))])
    np.testing.assert_allclose(kron_matrix(ps, us, w), blocks, rtol=1e-15, atol=0)


# From _LR_MIN_POINTS = 256 points up _system_rows hands on the R factor of the
# moment matrix, from which _assemble_arrays makes L(R), 24 rows, in place of
# A: at the route (n=256, one QR of M), at n=768, just below and at M's own
# chunking (1535, 1536 rows), an exact multiple of the block, a one-row
# leftover and n=10000; in pixels as dlt sees them and normalized, with and
# without weights.
@pytest.mark.parametrize("n", [256, 768, 1535, 1536, 2048, 2561, 10000])
@pytest.mark.parametrize("normalized", [False, True])
@pytest.mark.parametrize("weighted", [False, True])
def test_moment_r_factor_matches_kronecker_matrix(n, normalized, weighted):
    assert n >= _LR_MIN_POINTS
    sc = SyntheticScenario(box=UNCENTERED_BOX, n=n, sigma_u=1.0, trials=1, seed=n)
    (ps, us), _ = generate_scene(sc, 0)
    if normalized:
        ps = fit_point_normalization(ps).apply(ps)
        us = fit_pixel_normalization(us).apply(us)
    w = np.random.default_rng(n).uniform(0.5, 2.0, n) if weighted else None
    LR = _assemble_arrays(_system_rows(moment_rows(ps, us, w)))
    assert LR.shape == (24, 12)
    _, s_oracle, Vt = np.linalg.svd(kron_matrix(ps, us, w), full_matrices=False)
    sol = solve_nullspace(LR)
    np.testing.assert_allclose(sol.singular_values, s_oracle, rtol=0, atol=1e-12 * s_oracle[0])
    x, x_oracle = sol.V[:, 11], Vt[11]
    if np.dot(x, x_oracle) < 0:
        x_oracle = -x_oracle
    np.testing.assert_allclose(x, x_oracle, rtol=0, atol=1e-10)


def test_coplanar_points_rank_deficient_above_crossover(rng):
    # Points on a plane make the moment matrix M rank deficient (its pbar
    # columns are dependent), and with it A: the 24-row L(R) must say so.
    n = _QR_CHUNK_MIN_ROWS
    Km, R, r, ps, us = make_exact_scene(rng, n=n)
    ps = ps.copy()
    ps[:, 2] = 5.0
    us = oracle_project(Km, R, r, ps)
    LR = _assemble_arrays(_system_rows(moment_rows(ps, us)))
    assert LR.shape == (24, 12)
    with pytest.raises(RankDeficient):
        solve_nullspace(LR, points=ps)
