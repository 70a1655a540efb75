import numpy as np
import pytest

from odlt.dlt import DltSolution, _assemble_arrays, solve_nullspace
from odlt.errors import (
    DegenerateInput,
    RankDeficient,
    ReflectionDetected,
    SingularCalibration,
)
from odlt.geometry import (
    Pose,
    compose_projection,
    nearest_rotation,
    rotation_angle_deg,
)
from odlt.normalization import (
    PixelNormalization,
    PointNormalization,
    fit_pixel_normalization,
    fit_point_normalization,
)
from odlt.se3 import (
    declamp_denormalize,
    intrinsic_inverse,
    lost_translation,
    procrustes_cost,
    recover_scale_and_position,
    weighted_procrustes,
)
from odlt.weighting import depths_under, weight_factors
from conftest import (
    make_exact_scene,
    oracle_project,
    random_intrinsics_matrix,
    random_rotation,
)


def batch_rotations(rng, count):
    """Vectorized uniform-ish random rotations from normalized quaternions."""
    q = rng.standard_normal((count, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    w, x, y, z = q.T
    R = np.empty((count, 3, 3))
    R[:, 0, 0] = 1 - 2 * (y * y + z * z)
    R[:, 0, 1] = 2 * (x * y - w * z)
    R[:, 0, 2] = 2 * (x * z + w * y)
    R[:, 1, 0] = 2 * (x * y + w * z)
    R[:, 1, 1] = 1 - 2 * (x * x + z * z)
    R[:, 1, 2] = 2 * (y * z - w * x)
    R[:, 2, 0] = 2 * (x * z - w * y)
    R[:, 2, 1] = 2 * (y * z + w * x)
    R[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return R


def batch_costs(Rs, target, W):
    d = (Rs - target) * W
    return np.einsum("nij,nij->n", d, d)


def solve_normalized(ps, us):
    """Normalize, solve, and return everything the recovery stage needs."""
    pix = fit_pixel_normalization(us)
    pt = fit_point_normalization(ps)
    sol = solve_nullspace(_assemble_arrays(pt.apply(ps), pix.apply(us)), points=pt.apply(ps))
    return sol, pix, pt


class TestIntrinsicInverse:
    def test_inverse_with_skew(self, rng):
        for _ in range(20):
            Km = random_intrinsics_matrix(rng, skew=True)
            Kinv = intrinsic_inverse(Km)
            np.testing.assert_allclose(Km @ Kinv, np.eye(3), atol=1e-12)
            assert Kinv[2, 0] == 0.0 and Kinv[2, 1] == 0.0 and Kinv[2, 2] == 1.0
            assert Kinv[1, 0] == 0.0

    def test_singular_raises(self):
        bad = np.array([[0.0, 0.0, 10.0], [0.0, 500.0, 10.0], [0.0, 0.0, 1.0]])
        with pytest.raises(SingularCalibration):
            intrinsic_inverse(bad)


class TestDeclamp:
    def test_vec_kron_identity(self, rng):
        # The de-clamping matrix must satisfy, for every 3x4 X,
        # M vec(X) == vec(K^-1 T_u^-1 X T_p) under column-major vec.
        Km = random_intrinsics_matrix(rng)
        _, _, _, ps, us = make_exact_scene(rng, n=10, Km=Km)
        pix = fit_pixel_normalization(us)
        pt = fit_point_normalization(ps)
        Kinv = intrinsic_inverse(Km)
        M = np.kron(pt.T.T, Kinv @ pix.T_inv)
        for _ in range(10):
            X = rng.standard_normal((3, 4))
            direct = Kinv @ pix.T_inv @ X @ pt.T
            via_vec = (M @ X.T.reshape(12)).reshape(4, 3).T
            np.testing.assert_allclose(via_vec, direct, atol=1e-12 * np.abs(direct).max())

    def test_recovers_pose_blocks_from_exact_solve(self, rng):
        for _ in range(10):
            Km = random_intrinsics_matrix(rng)
            R = random_rotation(rng)
            r = rng.uniform(-2, 2, 3)
            _, _, _, ps, us = make_exact_scene(rng, n=20, Km=Km, R=R, r=r)
            sol, pix, pt = solve_normalized(ps, us)
            out = declamp_denormalize(sol, Km, pix, pt)
            np.testing.assert_allclose(out.r_acute, r, atol=1e-6)
            s = 1.0 / np.cbrt(np.linalg.det(out.R_acute))
            np.testing.assert_allclose(s * out.R_acute, R, atol=1e-6)

    def test_weight_matrix_is_transported_information_diagonal(self, rng):
        Km = random_intrinsics_matrix(rng)
        _, _, _, ps, us = make_exact_scene(rng, n=15, Km=Km)
        us = us + 0.5 * rng.standard_normal(us.shape)
        sol, pix, pt = solve_normalized(ps, us)
        out = declamp_denormalize(sol, Km, pix, pt)

        Kinv = intrinsic_inverse(Km)
        M = np.kron(pt.T.T, Kinv @ pix.T_inv)
        info = sol.V @ np.diag(sol.singular_values**2) @ sol.V.T
        Minv = np.linalg.inv(M)
        transported = Minv.T @ info @ Minv
        W_oracle = np.diag(transported)[:9].reshape(3, 3, order="F")
        np.testing.assert_allclose(out.W, W_oracle, rtol=1e-6)
        assert out.W.min() > 0

    def test_singular_rotation_block_is_degenerate_input(self):
        # The left 3x3 block has a zero third row, so det(R_acute) == 0 exactly;
        # this used to surface as numpy's LinAlgError from solving for r_acute.
        P = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
        sol = DltSolution(P=P, singular_values=np.ones(12), V=np.eye(12))
        with pytest.raises(DegenerateInput, match="singular"):
            declamp_denormalize(
                sol, np.eye(3), PixelNormalization.identity(), PointNormalization.identity()
            )


class TestWeightedProcrustes:
    def test_uniform_weights_reduce_to_plain_projection(self, rng):
        R_acute = 3.0 * random_rotation(rng) + 0.05 * rng.standard_normal((3, 3))
        s = 1.0 / np.cbrt(np.linalg.det(R_acute))
        R_uniform, fallback = weighted_procrustes(
            R_acute, 7.5 * np.ones((3, 3)), det=np.linalg.det(R_acute)
        )
        assert not fallback
        np.testing.assert_allclose(R_uniform, nearest_rotation(s * R_acute), atol=1e-12)

    def test_grid_plus_refine_oracle(self, rng):
        R_true = random_rotation(rng)
        R_acute = 2.0 * (R_true + 0.08 * rng.standard_normal((3, 3)))
        W = 800.0 * rng.uniform(0.6, 1.7, (3, 3))
        s = 1.0 / np.cbrt(np.linalg.det(R_acute))
        Rs = s * R_acute

        R_impl, fallback = weighted_procrustes(
            R_acute, W, det=np.linalg.det(R_acute), max_iters=5
        )
        assert not fallback
        cost_impl = procrustes_cost(R_impl, Rs, W)

        samples = batch_rotations(rng, 300_000)
        costs = batch_costs(samples, Rs, W)
        best = samples[np.argmin(costs)]
        best_cost = costs.min()
        radius = 0.3
        while radius > 1e-7:
            axes = rng.standard_normal((2000, 3)) * radius
            thetas = np.linalg.norm(axes, axis=1, keepdims=True)
            q = np.concatenate([np.cos(thetas / 2), np.sinc(thetas / (2 * np.pi)) * axes / 2], axis=1)
            w, x, y, z = q.T
            perturb = np.empty((2000, 3, 3))
            perturb[:, 0, 0] = 1 - 2 * (y * y + z * z)
            perturb[:, 0, 1] = 2 * (x * y - w * z)
            perturb[:, 0, 2] = 2 * (x * z + w * y)
            perturb[:, 1, 0] = 2 * (x * y + w * z)
            perturb[:, 1, 1] = 1 - 2 * (x * x + z * z)
            perturb[:, 1, 2] = 2 * (y * z - w * x)
            perturb[:, 2, 0] = 2 * (x * z - w * y)
            perturb[:, 2, 1] = 2 * (y * z + w * x)
            perturb[:, 2, 2] = 1 - 2 * (x * x + y * y)
            cands = perturb @ best
            cand_costs = batch_costs(cands, Rs, W)
            if cand_costs.min() < best_cost:
                best_cost = cand_costs.min()
                best = cands[np.argmin(cand_costs)]
            else:
                radius *= 0.5
        assert cost_impl <= best_cost * (1.0 + 1e-6) + 1e-12
        assert rotation_angle_deg(R_impl, best) < 0.01

    def test_iterations_do_not_increase_cost(self, rng):
        R_acute = random_rotation(rng) + 0.1 * rng.standard_normal((3, 3))
        W = rng.uniform(0.5, 2.0, (3, 3))
        s = 1.0 / np.cbrt(np.linalg.det(R_acute))
        costs = []
        for iters in (1, 2, 3, 4, 5):
            R, _ = weighted_procrustes(R_acute, W, det=np.linalg.det(R_acute), max_iters=iters)
            costs.append(procrustes_cost(R, s * R_acute, W))
        assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))

    def test_degenerate_weights_fall_back(self, rng):
        R_acute = 1.5 * random_rotation(rng)
        W = np.zeros((3, 3))
        s = 1.0 / np.cbrt(np.linalg.det(R_acute))
        R, fallback = weighted_procrustes(R_acute, W, det=np.linalg.det(R_acute))
        assert fallback
        np.testing.assert_allclose(R, nearest_rotation(s * R_acute), atol=1e-12)

    def test_validation(self, rng):
        R_acute = random_rotation(rng)
        with pytest.raises(ValueError):
            weighted_procrustes(R_acute, np.ones((3, 3)), det=1.0, max_iters=0)
        with pytest.raises(ValueError):
            weighted_procrustes(R_acute, np.ones((3, 3)), det=1.0, max_iters=6)
        singular = np.zeros((3, 3))
        singular[0, 0] = 1.0
        with pytest.raises(DegenerateInput):
            weighted_procrustes(singular, np.ones((3, 3)), det=np.linalg.det(singular))


class TestRecoverScale:
    def test_scale_and_pose(self, rng):
        R = random_rotation(rng)
        r = rng.uniform(-2, 2, 3)
        pose = recover_scale_and_position(r, R, np.linalg.det(2.0 * R))
        np.testing.assert_array_equal(pose.R, R)
        np.testing.assert_allclose(pose.r, r, atol=1e-15)

    def test_reflection_raises(self, rng):
        R = random_rotation(rng)
        with pytest.raises(ReflectionDetected):
            recover_scale_and_position(np.zeros(3), R, np.linalg.det(-R))
        with pytest.raises(DegenerateInput):
            recover_scale_and_position(np.zeros(3), R, np.linalg.det(np.zeros((3, 3))))


class TestLostTranslation:
    def test_exact_recovery(self, rng):
        for _ in range(10):
            Km = random_intrinsics_matrix(rng)
            R = random_rotation(rng)
            r = rng.uniform(-2, 2, 3)
            _, _, _, ps, us = make_exact_scene(rng, n=25, Km=Km, R=R, r=r)
            P = compose_projection(Km, Pose(R=R, r=r))
            q = weight_factors(depths_under(P, ps), 1.0)
            t = lost_translation(ps, us, Km, R, q)
            np.testing.assert_allclose(t, -R @ r, atol=1e-8 * max(1.0, np.abs(r).max()))

    @pytest.mark.parametrize("n", [30, 2000])
    @pytest.mark.parametrize("skew", [False, True])
    def test_least_squares_optimality(self, rng, n, skew):
        Km = random_intrinsics_matrix(rng, skew=skew)
        R = random_rotation(rng)
        r = rng.uniform(-2, 2, 3)
        _, _, _, ps, us = make_exact_scene(rng, n=n, Km=Km, R=R, r=r)
        us = us + rng.standard_normal(us.shape)
        P = compose_projection(Km, Pose(R=R, r=r))
        q = weight_factors(depths_under(P, ps), 1.0)
        t_star = lost_translation(ps, us, Km, R, q)

        Kinv = intrinsic_inverse(Km)
        xb = us @ Kinv[:2, :2].T + Kinv[:2, 2]
        xb3 = np.column_stack([xb, np.ones(len(xb))])
        rows = []
        rhs = []
        for x3, p, qi in zip(xb3, ps, q):
            C = np.array(
                [[0.0, -x3[2], x3[1]], [x3[2], 0.0, -x3[0]], [-x3[1], x3[0], 0.0]]
            )[:2]
            rows.append(qi * C)
            rhs.append(-qi * (C @ (R @ p)))
        L = np.vstack(rows)
        b = np.concatenate(rhs)

        t_oracle = np.linalg.lstsq(L, b, rcond=None)[0]
        np.testing.assert_allclose(t_star, t_oracle, rtol=1e-9, atol=1e-12)

        def residual(t):
            return np.linalg.norm(L @ t - b)

        base = residual(t_star)
        for _ in range(20):
            assert base <= residual(t_star + 1e-4 * rng.standard_normal(3)) + 1e-12

    def test_rank_deficient_raises(self, rng):
        Km = random_intrinsics_matrix(rng)
        # All observations on one ray: translation along it is unobservable.
        us = np.tile([[320.0, 240.0]], (8, 1))
        ps = np.column_stack([np.zeros(8), np.zeros(8), np.linspace(4, 8, 8)])
        with pytest.raises(RankDeficient):
            lost_translation(ps, us, Km, np.eye(3), np.ones(8))

    def test_weight_count_validation(self, rng):
        Km, R, r, ps, us = make_exact_scene(rng, n=8)
        with pytest.raises(ValueError):
            lost_translation(ps, us, Km, R, np.ones(5))
