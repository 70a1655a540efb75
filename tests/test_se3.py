import tracemalloc

import numpy as np
import pytest

import odlt.se3 as se3_module
import odlt.solvers as solvers_module

from odlt.dlt import DltSolution, _assemble_arrays, solve_nullspace
from odlt.errors import (
    DegenerateInput,
    PnpError,
    RankDeficient,
    ReflectionDetected,
    SingularCalibration,
)
from odlt.geometry import (
    CameraIntrinsics,
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
from odlt.evaluation import CENTERED_BOX, UNCENTERED_BOX, SyntheticScenario, generate_scene
from odlt.se3 import (
    _solve_psd,
    declamp_denormalize,
    intrinsic_inverse,
    lost_translation,
    recover_scale_and_position,
    rotation_weights,
    weighted_procrustes,
)
from odlt.solvers import METHODS, SolverConfig, _linear_solve, solve
from odlt.weighting import depths_under
from conftest import (
    make_exact_scene,
    moment_rows,
    oracle_declamp_det_solve,
    oracle_lost_normal_equations,
    oracle_project,
    oracle_solve_psd,
    oracle_weighted_procrustes,
    procrustes_cost,
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
    psn = pt.apply(ps)
    sol = solve_nullspace(_assemble_arrays(moment_rows(psn, pix.apply(us))), points=psn)
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
            R_acute, r_acute, _ = declamp_denormalize(sol, Km, pix, pt)
            np.testing.assert_allclose(r_acute, r, atol=1e-6)
            s = 1.0 / np.cbrt(np.linalg.det(R_acute))
            np.testing.assert_allclose(s * R_acute, R, atol=1e-6)

    def test_weight_matrix_is_transported_information_diagonal(self, rng):
        Km = random_intrinsics_matrix(rng)
        _, _, _, ps, us = make_exact_scene(rng, n=15, Km=Km)
        us = us + 0.5 * rng.standard_normal(us.shape)
        sol, pix, pt = solve_normalized(ps, us)
        W = rotation_weights(sol, Km, pix, pt)

        Kinv = intrinsic_inverse(Km)
        M = np.kron(pt.T.T, Kinv @ pix.T_inv)
        info = sol.V @ np.diag(sol.singular_values**2) @ sol.V.T
        Minv = np.linalg.inv(M)
        transported = Minv.T @ info @ Minv
        W_oracle = np.diag(transported)[:9].reshape(3, 3, order="F")
        np.testing.assert_allclose(W, W_oracle, rtol=1e-6)
        assert W.min() > 0

    def test_singular_rotation_block_is_degenerate_input(self):
        # The left 3x3 block has a zero third row, so det(R_acute) == 0 exactly;
        # this used to surface as numpy's LinAlgError from solving for r_acute.
        P = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
        sol = DltSolution(P=P, singular_values=np.ones(12), V=np.eye(12))
        with pytest.raises(DegenerateInput, match="singular"):
            declamp_denormalize(
                sol, np.eye(3), PixelNormalization.identity(), PointNormalization.identity()
            )

    def test_mirrored_block_is_a_reflection(self, rng):
        # G = -R [I | -r]: a finite center, but no rotation explains det(-R) = -1.
        R, r = random_rotation(rng), rng.uniform(-2, 2, 3)
        sol = DltSolution(P=np.column_stack([-R, R @ r]), singular_values=np.ones(12), V=np.eye(12))
        with pytest.raises(ReflectionDetected, match="determinant -"):
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

        R_impl, fallback = weighted_procrustes(R_acute, W, det=np.linalg.det(R_acute))
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
        # The steps start from the unweighted projection and keep no step that
        # raises the cost, so they end below it.
        R_acute = random_rotation(rng) + 0.1 * rng.standard_normal((3, 3))
        W = rng.uniform(0.5, 2.0, (3, 3))
        Rs = R_acute / np.cbrt(np.linalg.det(R_acute))
        R, fallback = weighted_procrustes(R_acute, W, det=np.linalg.det(R_acute))
        assert not fallback
        assert procrustes_cost(R, Rs, W) < procrustes_cost(nearest_rotation(Rs), Rs, W)

    def test_degenerate_weights_fall_back(self, rng):
        R_acute = 1.5 * random_rotation(rng)
        W = np.zeros((3, 3))
        s = 1.0 / np.cbrt(np.linalg.det(R_acute))
        R, fallback = weighted_procrustes(R_acute, W, det=np.linalg.det(R_acute))
        assert fallback
        np.testing.assert_allclose(R, nearest_rotation(s * R_acute), atol=1e-12)


class TestRecoverScale:
    def test_scale_and_pose(self, rng):
        R = random_rotation(rng)
        r = rng.uniform(-2, 2, 3)
        pose = recover_scale_and_position(r, R)
        np.testing.assert_array_equal(pose.R, R)
        np.testing.assert_allclose(pose.r, r, atol=1e-15)


class TestLostTranslation:
    def test_exact_recovery(self, rng):
        for _ in range(10):
            Km = random_intrinsics_matrix(rng)
            R = random_rotation(rng)
            r = rng.uniform(-2, 2, 3)
            _, _, _, ps, us = make_exact_scene(rng, n=25, Km=Km, R=R, r=r)
            P = compose_projection(Km, Pose(R=R, r=r))
            q = 1.0 / depths_under(P, ps)
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
        q = 1.0 / depths_under(P, ps)
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

    @staticmethod
    def assert_normal_equations_match_oracle(calls, ps, us, Km, R, q):
        """The last (N, rhs) in calls, as lost_translation handed them to _solve_psd,
        within 1e-12 of the seven-sum oracle, relative to its largest entry."""
        (n00, n01, n02, n11, n12, n22), rhs = calls[-1]
        N = np.array([[n00, n01, n02], [n01, n11, n12], [n02, n12, n22]])
        want_N, want_rhs = oracle_lost_normal_equations(ps, us, Km, R, q)
        for got, want in ((N, want_N), (np.array(rhs), want_rhs)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @staticmethod
    def recorded_solve_psd(monkeypatch):
        calls = []
        solve_psd = se3_module._solve_psd

        def recorded(N, rhs, cond_limit):
            calls.append((N, rhs))
            return solve_psd(N, rhs, cond_limit)

        monkeypatch.setattr(se3_module, "_solve_psd", recorded)
        return calls

    @pytest.mark.parametrize("skew", [False, True])
    @pytest.mark.parametrize("n", [6, 50, 2000])
    @pytest.mark.parametrize("box", [CENTERED_BOX, UNCENTERED_BOX])
    def test_normal_equations_match_seven_sum_oracle(self, monkeypatch, box, n, skew):
        # A generated scene (camera at the origin, looking along +z) moved to a
        # random world frame, so that every entry of R reaches the sums.
        rng = np.random.default_rng([n, skew])
        Km = random_intrinsics_matrix(rng, skew=skew)
        sc = SyntheticScenario(
            box=box, n=n, sigma_u=1.0, trials=1, seed=0,
            intrinsics=CameraIntrinsics.from_matrix(Km),
        )
        (cam, us), _ = generate_scene(sc, 0)
        R, r = random_rotation(rng), rng.uniform(-3.0, 3.0, 3)
        ps = cam @ R + r
        q = 1.0 / cam[:, 2]
        calls = self.recorded_solve_psd(monkeypatch)
        lost_translation(ps, us, Km, R, q)
        self.assert_normal_equations_match_oracle(calls, ps, us, Km, R, q)

    def test_solve_hands_lost_the_points_in_front(self, monkeypatch):
        # Two of 50 points mirrored through the camera keep their pixels but
        # fall behind it: LOST gets the other 48, weighted by 1 / depth under
        # the pose odlt recovers (its rotation kept bit for bit).
        rng = np.random.default_rng(7)
        Km, R, r, ps, us = make_exact_scene(rng, n=50)
        cam = (ps - r) @ R.T
        cam[:2] *= -1.0
        ps = cam @ R + r
        us = oracle_project(Km, R, r, ps) + 0.5 * rng.standard_normal((50, 2))
        pose = solve((ps, us), Km, SolverConfig(method="odlt")).pose
        depths = (ps - pose.r) @ pose.R[2]
        front = depths > 0
        assert front.sum() == 48 and not front[:2].any()
        seen = []
        lost = solvers_module.lost_translation

        def recorded_lost(*args):
            seen.append(args)
            return lost(*args)

        monkeypatch.setattr(solvers_module, "lost_translation", recorded_lost)
        calls = self.recorded_solve_psd(monkeypatch)
        solve((ps, us), Km, SolverConfig(method="odlt_lost"))
        ((lost_ps, lost_us, _, lost_R, lost_q),) = seen
        np.testing.assert_array_equal(lost_ps, ps[front])
        np.testing.assert_array_equal(lost_us, us[front])
        np.testing.assert_array_equal(lost_R, pose.R)
        np.testing.assert_allclose(lost_q, 1.0 / depths[front], rtol=1e-13)
        self.assert_normal_equations_match_oracle(
            calls, ps[front], us[front], Km, pose.R, 1.0 / depths[front]
        )

    def test_one_call_allocates_at_most_eight_rows(self, rng):
        # The (4, n) features and a few n-sized temporaries: 7.1 rows at this n.
        n = 2000
        Km, R, r, ps, us = make_exact_scene(rng, n=n)
        q = 1.0 / ((ps - r) @ R[2])
        lost_translation(ps, us, Km, R, q)
        tracemalloc.start()
        try:
            lost_translation(ps, us, Km, R, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n * 8


# -- closed forms against the numpy code they replaced --------------------------

EPS = np.finfo(float).eps


def spd_batch(rng, conds):
    """Symmetric positive definite 3x3 matrices Q diag(1/cond, mid, 1) Q^T times a
    random scale: mid log-uniform in [1/cond, 1] for four in five, else next
    to 1/cond or to 1, so both close-pair cases of the eigenvalue formulas occur."""
    k = conds.shape[0]
    Q = np.linalg.qr(rng.standard_normal((k, 3, 3)))[0]
    mid = conds ** -rng.uniform(0.0, 1.0, k)
    pick = rng.uniform(size=k)
    mid = np.where(pick < 0.1, (1.0 + 1e-6) / conds, np.where(pick < 0.2, 1.0 - 1e-9, mid))
    lam = np.stack([1.0 / conds, mid, np.ones(k)], axis=1) * 10.0 ** rng.uniform(-6, 6, (k, 1))
    N = (Q * lam[:, None, :]) @ Q.transpose(0, 2, 1)
    return (N + N.transpose(0, 2, 1)) / 2


def upper(N):
    return (N[0, 0], N[0, 1], N[0, 2], N[1, 1], N[1, 2], N[2, 2])


def recovery_inputs(box, n, trials=6):
    """(linear outcome, Km) of seeded odlt solves: the real inputs of declamping."""
    sc = SyntheticScenario(box=box, n=n, sigma_u=1.0, trials=trials, seed=17)
    out = []
    for trial in range(trials):
        (ps, us), _ = generate_scene(sc, trial)
        try:
            out.append(_linear_solve(ps, us, normalize=True, weighted=True))
        except PnpError:  # a scene the linear stage rejects has no recovery inputs
            continue
    assert len(out) >= trials - 1
    return out, sc.intrinsics.matrix


class TestClosedFormsMatchNumpy:
    @pytest.mark.parametrize("limit", [1e10, 1e12])
    def test_solve_psd_matches_eigh(self, rng, limit):
        # 10 000 matrices, cond 1..1e13, 2000 of them within 1e-3 of a limit.
        conds = np.concatenate(
            [
                10.0 ** rng.uniform(0, 13, 8000),
                1e10 * (1.0 + rng.uniform(-1e-3, 1e-3, 1000)),
                1e12 * (1.0 + rng.uniform(-1e-3, 1e-3, 1000)),
            ]
        )
        # eigh's own smallest eigenvalue is off by up to ~2 eps * cond relative (up to
        # 2.1 eps * cond against 50-digit eigenvalues; the closed form stays within 0.3),
        # so no implementation can follow its decisions closer than that to a limit.
        band = 1e-6 + 4 * EPS * limit
        decided = {True: 0, False: 0}
        for N in spd_batch(rng, conds):
            b = rng.standard_normal(3)
            got, ref = _solve_psd(upper(N), tuple(b), limit), oracle_solve_psd(N, b, limit)
            lam = np.linalg.eigh(N)[0]
            cond = lam[2] / lam[0]
            if abs(cond / limit - 1.0) > band:
                assert (got is None) == (ref is None), cond
                decided[ref is None] += 1
            if got is not None and ref is not None:
                assert np.linalg.norm(np.subtract(got, ref)) <= cond * 1e-15 * np.linalg.norm(ref)
        assert min(decided.values()) > 500

    def test_solve_psd_rejects_singular_and_indefinite(self, rng):
        v = rng.standard_normal(3)
        Q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        cases = [
            np.zeros((3, 3)),
            np.outer(v, v),
            (Q * [0.0, 1.0, 2.0]) @ Q.T,
            (Q * [-1.0, 1.0, 2.0]) @ Q.T,
            (Q * [-3.0, -1.0, -2.0]) @ Q.T,
        ]
        for N in cases:
            N = (N + N.T) / 2
            for limit in (1e10, 1e12):
                assert oracle_solve_psd(N, v, limit) is None
                assert _solve_psd(upper(N), tuple(v), limit) is None

    @staticmethod
    def assert_procrustes_matches_numpy(R_acute, W, det, tol=1e-13, fallback_expected=False):
        R, fallback = weighted_procrustes(R_acute, W, det)
        R_ref, fallback_ref = oracle_weighted_procrustes(R_acute, W, det)
        assert fallback == fallback_ref == fallback_expected
        Rs = R_acute / np.cbrt(det)
        cost = procrustes_cost(R, Rs, W)
        diff = np.abs(R - R_ref).max()
        if diff > tol:
            # A last step (|dphi| ~ 1e-10) that the cost, rounded to about
            # eps * sum(Q * |Rs - R|), cannot resolve: one side took it.
            resolution = 8 * EPS * np.sum(W * W * np.abs(Rs - R_ref))
            assert diff < 1e-9
            assert abs(cost - procrustes_cost(R_ref, Rs, W)) <= resolution
        assert cost <= procrustes_cost(nearest_rotation(Rs), Rs, W) * (1 + 1e-12)

    @staticmethod
    def declamped(out, Km):
        """(G, declamp_denormalize's output) of one linear outcome; None for a
        mirrored block (det < 0, as the uncentered n=6 outcomes hold), after
        asserting that declamping raises ReflectionDetected for it."""
        G = intrinsic_inverse(Km) @ out.pix.T_inv @ out.sol.P @ out.pt.T
        if np.linalg.det(G[:, :3]) < 0:
            with pytest.raises(ReflectionDetected):
                declamp_denormalize(out.sol, Km, out.pix, out.pt)
            return None
        return G, declamp_denormalize(out.sol, Km, out.pix, out.pt)

    @pytest.mark.parametrize("n", [6, 12, 50, 2000])
    @pytest.mark.parametrize("box", [CENTERED_BOX, UNCENTERED_BOX], ids=["centered", "uncentered"])
    def test_weighted_procrustes_matches_numpy(self, box, n):
        outcomes, Km = recovery_inputs(box, n)
        for out in outcomes:
            if (declamped := self.declamped(out, Km)) is None:
                continue
            R_acute, _, det = declamped[1]
            W = rotation_weights(out.sol, Km, out.pix, out.pt)
            self.assert_procrustes_matches_numpy(R_acute, W, det)
            self.assert_procrustes_matches_numpy(R_acute, np.zeros((3, 3)), det, 0.0, True)

    def test_weighted_procrustes_matches_numpy_far_from_a_rotation(self, rng):
        # Solver pairs sit near the identity with W's first two rows alike; here
        # rotations are random, the block far from one and W spans 1e-2..1e2,
        # so that some steps would raise the cost and the guard must undo them.
        # The normal matrix's condition number reaches ~1e8, and with it the
        # two solves' differences (worst 1.0e-10 over 12531 random cases).
        for _ in range(300):
            R_acute = random_rotation(rng) + 0.6 * rng.standard_normal((3, 3))
            det = np.linalg.det(R_acute)
            W = 10 ** rng.uniform(-2, 2, (3, 3))
            if det > 0:
                self.assert_procrustes_matches_numpy(R_acute, W, det, tol=1e-9)

    @pytest.mark.parametrize("n", [6, 12, 50, 2000])
    @pytest.mark.parametrize("box", [CENTERED_BOX, UNCENTERED_BOX], ids=["centered", "uncentered"])
    def test_declamp_matches_numpy_det_and_solve(self, box, n):
        outcomes, Km = recovery_inputs(box, n)
        for out in outcomes:
            if (declamped := self.declamped(out, Km)) is None:
                continue
            G, (R_acute, r_acute, det) = declamped
            det_ref, r_ref = oracle_declamp_det_solve(G[:, :3], G[:, 3])
            np.testing.assert_array_equal(R_acute, G[:, :3])
            assert abs(det - det_ref) <= 1e-14 * abs(det_ref)
            assert np.linalg.norm(r_acute - r_ref) <= 1e-14 * np.linalg.norm(r_ref)

    @pytest.mark.parametrize(
        "diag, center",
        [
            ((1e-110, 1e-100, 1e-100), (1.0, 1.0, 1.0)),  # subnormal det, finite r_acute
            ((1e-200, 1e-200, 1e-200), (1.0, 1.0, 1.0)),  # det underflows to 0
            ((1e-160, 1e-70, 1e-70), (1e200, 1.0, 1.0)),  # normal det, r_acute overflows
        ],
    )
    def test_declamp_tiny_det_or_unbounded_center_is_degenerate(self, diag, center):
        P = np.column_stack([np.diag(diag), center])
        sol = DltSolution(P=P, singular_values=np.ones(12), V=np.eye(12))
        with pytest.raises(DegenerateInput):
            declamp_denormalize(
                sol, np.eye(3), PixelNormalization.identity(), PointNormalization.identity()
            )

    @pytest.mark.parametrize("method", METHODS)
    def test_mirrored_camera_is_a_reflection_from_solve(self, rng, method):
        # Pixels mirrored about the principal point are seen by K diag(-1, 1, 1) R:
        # every depth stays positive, and the de-clamped block has det < 0.
        Km, _, _, ps, us = make_exact_scene(rng, n=40)
        us = np.column_stack([2.0 * Km[0, 2] - us[:, 0], us[:, 1]])
        with pytest.raises(ReflectionDetected):
            solve((ps, us), Km, SolverConfig(method=method))
