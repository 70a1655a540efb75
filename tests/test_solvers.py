import warnings
from collections import Counter

import numpy as np
import pytest

import odlt.solvers as solvers_module
import odlt.weighting as weighting_module
from odlt.dlt import _assemble_arrays, _system_rows
from odlt.errors import (
    DegenerateInput,
    InvalidIntrinsics,
    InvalidShape,
    NegativeDepth,
    RankDeficient,
    TooFewPoints,
)
from odlt.evaluation import (
    CENTERED_BOX,
    DEFAULT_INTRINSICS,
    UNCENTERED_BOX,
    SyntheticScenario,
    generate_scene,
)
from odlt.geometry import (
    CameraIntrinsics,
    Correspondence,
    Pose,
    compose_projection,
    correspondence_arrays,
    intrinsic_matrix,
    rotation_angle_deg,
)
from odlt.normalization import (
    denormalize_projection,
    fit_pixel_normalization,
    fit_point_normalization,
)
from odlt.se3 import declamp_denormalize, recover_scale_and_position, weighted_procrustes
from odlt.solvers import (
    FLAG_FALLBACK_USED,
    FLAG_MIXED_DEPTHS,
    METHODS,
    STAGES,
    SolverConfig,
    estimate_projection,
    refine_gauss_newton,
    solve,
)
from odlt.weighting import _preliminary_normalized, depths_under
from conftest import (
    gn_rows_at,
    make_exact_scene,
    moment_rows,
    oracle_gn_jacobian,
    oracle_project,
    random_intrinsics_matrix,
    random_rotation,
    raw_moments,
)


def as_cs(ps, us):
    return [Correspondence(p=p, u=u) for p, u in zip(ps, us)]


def pose_errors(result, R, r):
    return (
        rotation_angle_deg(result.pose.R, R),
        float(np.linalg.norm(result.pose.r - r)),
    )


class TestExactness:
    @pytest.mark.parametrize("method", METHODS)
    def test_zero_noise_recovery(self, method, rng):
        for _ in range(8):
            Km, R, r, ps, us = make_exact_scene(rng, n=20)
            result = solve((ps, us), Km, SolverConfig(method=method))
            rot, pos = pose_errors(result, R, r)
            assert rot < 1e-6, f"{method}: rotation error {rot}"
            assert pos < 1e-8, f"{method}: position error {pos}"
            assert result.reprojection_rms < 1e-6

    @pytest.mark.parametrize("box", [CENTERED_BOX, UNCENTERED_BOX], ids=["centered", "uncentered"])
    @pytest.mark.parametrize("n", [2049, 5000])
    def test_zero_noise_recovery_large_n(self, box, n):
        # Criterion 01's bounds beyond its n <= 100 scenes: the null space
        # must stay exact for thousands of rows, unnormalized dlt included.
        sc = SyntheticScenario(box=box, n=n, sigma_u=0.0, trials=1, seed=0)
        cs, truth = generate_scene(sc, 0)
        arrays = correspondence_arrays(cs)
        for method in ("dlt", "ndlt", "odlt"):
            result = solve(arrays, sc.intrinsics, SolverConfig(method=method))
            rot, pos = pose_errors(result, truth.R, truth.r)
            assert rot < 1e-6, f"{method}: rotation error {rot}"
            assert pos < 1e-8, f"{method}: position error {pos}"

    @pytest.mark.parametrize("method", ["ndlt", "odlt", "odlt_lost", "ndlt_gn"])
    def test_zero_noise_recovery_of_a_shifted_world(self, method):
        # Metamorphic: moving the world and the camera by the same 1e5 leaves
        # the pixels alone, and the normalizing methods keep criterion 01's
        # bounds on the shifted pose. The centroid is what normalization
        # subtracts, so this guards its arithmetic. Unnormalized dlt is left
        # out: its constraint matrix carries the offset, and it raises
        # RankDeficient in 24 of these 60 scenes at a 1e3 shift and in all 60
        # at 1e5.
        rng = np.random.default_rng(20260514)
        shift = np.full(3, 1e5)
        for n in (6, 50, 2000):
            for _ in range(20):
                Km, R, r, ps, us = make_exact_scene(rng, n=n)
                result = solve((ps + shift, us), Km, SolverConfig(method=method))
                rot, pos = pose_errors(result, R, r + shift)
                assert rot < 1e-6, f"{method} n={n}: rotation error {rot}"
                assert pos < 1e-8, f"{method} n={n}: position error {pos}"

    def test_unnormalized_dlt_on_a_shifted_world_names_the_scaling(self):
        # The same scenes as the shifted-world test: unnormalized dlt carries
        # the 1e5 offset in A's columns, and its RankDeficient says so rather
        # than blaming a degenerate point set.
        rng = np.random.default_rng(20260514)
        shift = np.full(3, 1e5)
        for n in (6, 50, 2000):
            for _ in range(20):
                Km, R, r, ps, us = make_exact_scene(rng, n=n)
                with pytest.raises(RankDeficient, match="far from the origin"):
                    solve((ps + shift, us), Km, SolverConfig(method="dlt"))

    @pytest.mark.parametrize("scale", [1e-12, 1e-9, 1.0, 1e9, 1e12])
    @pytest.mark.parametrize("method", ["ndlt", "odlt", "odlt_lost", "ndlt_gn"])
    def test_zero_noise_recovery_at_any_world_scale(self, method, scale):
        # Metamorphic: scaling the world and the camera center by s leaves the
        # pixels alone, and the normalizing methods keep criterion 01's rotation
        # bound and its position bound relative to s. The de-clamped rotation
        # block scales as 1/s, so this guards every threshold after the null
        # space against being absolute.
        for seed in range(20):
            Km, R, r, ps, us = make_exact_scene(np.random.default_rng(seed))
            result = solve((scale * ps, us), Km, SolverConfig(method=method))
            rot, pos = pose_errors(result, R, scale * r)
            assert rot < 1e-6, f"{method} s={scale} seed={seed}: rotation error {rot}"
            assert pos < 1e-8 * scale, f"{method} s={scale} seed={seed}: position error {pos}"

    @pytest.mark.parametrize("scale", [1e-12, 1e-9, 1e9, 1e12])
    def test_unnormalized_dlt_off_unit_world_scale_names_the_scaling(self, scale):
        # The same scenes: unnormalized dlt carries the scale in A's point
        # columns, and its RankDeficient names the coordinates, not the points.
        for seed in range(20):
            Km, R, r, ps, us = make_exact_scene(np.random.default_rng(seed))
            with pytest.raises(RankDeficient, match="unnormalized coordinates"):
                solve((scale * ps, us), Km, SolverConfig(method="dlt"))

    @pytest.mark.parametrize("box", [CENTERED_BOX, UNCENTERED_BOX], ids=["centered", "uncentered"])
    @pytest.mark.parametrize("n", [6, 20, 100, 2000])
    def test_zero_noise_recovery_under_world_similarity(self, box, n):
        # Metamorphic: mapping the world by p -> s Q p + t, with a seeded
        # random rotation Q, scale s in [0.1, 10] and shift t, leaves the
        # pixels alone and maps the truth pose (R, r) to (R Q^T, s Q r + t).
        # Every generate_scene truth is the identity, so this is what puts a
        # random truth rotation in front of the normalizing methods: the
        # weighted ones' preliminary squares the condition number in its Gram,
        # and at n=6 the null space is the 12-row system itself. Criterion
        # 01's bounds, the position bound relative to s.
        sc = SyntheticScenario(box=box, n=n, sigma_u=0.0, trials=10, seed=7)
        rng = np.random.default_rng([7, n])
        for trial in range(sc.trials):
            (ps, us), truth = generate_scene(sc, trial)
            Q, s, t = random_rotation(rng), 10.0 ** rng.uniform(-1.0, 1.0), rng.uniform(-10, 10, 3)
            world = s * ps @ Q.T + t
            for method in ("ndlt", "odlt", "odlt_lost", "ndlt_gn"):
                result = solve((world, us), sc.intrinsics, SolverConfig(method=method))
                rot, pos = pose_errors(result, truth.R @ Q.T, s * Q @ truth.r + t)
                assert rot < 1e-6, f"{method} trial={trial}: rotation error {rot}"
                assert pos < 1e-8 * s, f"{method} trial={trial}: position error {pos}"

    def test_accepts_correspondence_sequences(self, rng):
        Km, R, r, ps, us = make_exact_scene(rng, n=10)
        a = solve(as_cs(ps, us), Km, SolverConfig(method="ndlt"))
        b = solve((ps, us), Km, SolverConfig(method="ndlt"))
        np.testing.assert_array_equal(a.pose.R, b.pose.R)
        np.testing.assert_array_equal(a.pose.r, b.pose.r)


@pytest.mark.parametrize("box", [CENTERED_BOX, UNCENTERED_BOX], ids=["centered", "uncentered"])
@pytest.mark.parametrize("n", [6, 50, 2000])
@pytest.mark.parametrize("sigma", [0.0, 1.0])
def test_poses_are_rotations(box, n, sigma):
    # solve() builds its poses without Pose's checks; the rotation it
    # returns must still pass them, for every method.
    sc = SyntheticScenario(box=box, n=n, sigma_u=sigma, trials=3, seed=4)
    for trial in range(sc.trials):
        arrays, _ = generate_scene(sc, trial)
        for method in METHODS:
            R = solve(arrays, sc.intrinsics, SolverConfig(method=method)).pose.R
            assert np.abs(R.T @ R - np.eye(3)).max() <= 1e-12, (method, trial)
            assert abs(np.linalg.det(R) - 1.0) <= 1e-12, (method, trial)


class TestInvariances:
    @pytest.mark.parametrize("method", ["ndlt", "odlt"])
    def test_pixel_and_principal_point_shift(self, method, rng):
        Km, R, r, ps, us = make_exact_scene(rng, n=25)
        us = us + rng.standard_normal(us.shape)
        shift = np.array([137.5, -42.0])
        K2 = Km.copy()
        K2[0, 2] += shift[0]
        K2[1, 2] += shift[1]
        cfg = SolverConfig(method=method)
        a = solve((ps, us), Km, cfg)
        b = solve((ps, us + shift), K2, cfg)
        assert rotation_angle_deg(a.pose.R, b.pose.R) < 1e-9
        np.testing.assert_allclose(b.pose.r, a.pose.r, atol=1e-9)

    def test_sigma_scale_invariance(self):
        # The row weights are inverse depths, so sigma_u, however extreme, leaves
        # every pose and flag bit for bit as at sigma_u = 1.
        for box, n in ((CENTERED_BOX, 50), (UNCENTERED_BOX, 2000)):
            sc = SyntheticScenario(box=box, n=n, sigma_u=1.0, trials=1, seed=5)
            arrays, _ = generate_scene(sc, 0)
            for method in METHODS:
                base = solve(arrays, sc.intrinsics, SolverConfig(method=method))
                for sigma_u in (1e-300, 0.25, 3.7, 10.0, 1e300):
                    cfg = SolverConfig(method=method, sigma_u=sigma_u)
                    other = solve(arrays, sc.intrinsics, cfg)
                    np.testing.assert_array_equal(other.pose.R, base.pose.R)
                    np.testing.assert_array_equal(other.pose.r, base.pose.r)
                    assert other.flags == base.flags, (method, n, sigma_u)

    def test_odlt_lost_shares_rotation(self, rng):
        Km, R, r, ps, us = make_exact_scene(rng, n=25)
        us = us + rng.standard_normal(us.shape)
        cfg_a = SolverConfig(method="odlt", seed=3)
        cfg_b = SolverConfig(method="odlt_lost", seed=3)
        a = solve((ps, us), Km, cfg_a)
        b = solve((ps, us), Km, cfg_b)
        np.testing.assert_array_equal(a.pose.R, b.pose.R)
        assert np.linalg.norm(a.pose.r - b.pose.r) > 0  # translation did move

    @pytest.mark.parametrize("n", [18, 2000])
    def test_unit_weights_reduce_to_ndlt(self, rng, n):
        # Criterion 06's stage-level identity on both sides of the L(R) route
        # (from n = 256): unit row weights assemble the unweighted rows bit
        # for bit, and the weighted Procrustes step with W = ones on ndlt's
        # declamped solution gives ndlt's pose.
        for _ in range(10):
            Km, R, r, ps, us = make_exact_scene(rng, n=n)
            us = us + rng.standard_normal(us.shape)
            psn = fit_point_normalization(ps).apply(ps)
            usn = fit_pixel_normalization(us).apply(us)
            np.testing.assert_array_equal(
                _assemble_arrays(_system_rows(moment_rows(psn, usn, np.ones(n)))),
                _assemble_arrays(_system_rows(moment_rows(psn, usn))),
            )
            out = solvers_module._linear_solve(ps, us, normalize=True, weighted=False)
            R_acute, r_acute, det = declamp_denormalize(out.sol, Km, out.pix, out.pt)
            R_unit, fallback = weighted_procrustes(R_acute, np.ones((3, 3)), det)
            assert not fallback
            unit = recover_scale_and_position(r_acute, R_unit, det)
            plain = solve((ps, us), Km, SolverConfig(method="ndlt"))
            np.testing.assert_allclose(unit.R, plain.pose.R, atol=1e-12)
            np.testing.assert_allclose(unit.r, plain.pose.r, atol=1e-12)

    def test_determinism(self, rng):
        Km, R, r, ps, us = make_exact_scene(rng, n=30)
        us = us + rng.standard_normal(us.shape)
        for method in METHODS:
            cfg = SolverConfig(method=method)
            a = solve((ps, us), Km, cfg)
            b = solve((ps, us), Km, cfg)
            np.testing.assert_array_equal(a.pose.R, b.pose.R)
            np.testing.assert_array_equal(a.pose.r, b.pose.r)
            assert a.reprojection_rms == b.reprojection_rms
            assert a.flags == b.flags

    @pytest.mark.parametrize("method", METHODS)
    def test_memory_layout_does_not_change_the_pose(self, method, rng):
        # The same numbers as C-contiguous arrays, as column slices of one
        # (n, 5) array and as Fortran-ordered copies must give the same bits.
        Km, R, r, ps, us = make_exact_scene(rng, n=30)
        us = us + rng.standard_normal(us.shape)
        table = np.column_stack([us, ps])
        layouts = [
            (ps, us),
            (table[:, 2:], table[:, :2]),
            (np.asfortranarray(ps), np.asfortranarray(us)),
        ]
        cfg = SolverConfig(method=method)
        ref = solve(layouts[0], Km, cfg)
        for arrays in layouts[1:]:
            got = solve(arrays, Km, cfg)
            assert np.array_equal(got.pose.R, ref.pose.R)
            assert np.array_equal(got.pose.r, ref.pose.r)
            assert got.reprojection_rms == ref.reprojection_rms


class TestGaussNewton:
    @pytest.mark.parametrize("n", [10, 2000])
    @pytest.mark.parametrize("skew", [False, True])
    def test_jacobian_matches_central_differences(self, rng, n, skew):
        Km = random_intrinsics_matrix(rng, skew=skew)
        R = random_rotation(rng)
        r = rng.uniform(-2, 2, 3)
        _, _, _, ps, us = make_exact_scene(rng, n=n, Km=Km, R=R, r=r)
        us = us + rng.standard_normal(us.shape)

        def residuals(dphi, dr):
            # Left-composed rotation increment, same parameterization the
            # solver documents.
            c = np.linalg.norm(dphi)
            if c < 1e-12:
                Rp = R
            else:
                axis = dphi / c
                Kx = np.array(
                    [
                        [0.0, -axis[2], axis[1]],
                        [axis[2], 0.0, -axis[0]],
                        [-axis[1], axis[0], 0.0],
                    ]
                )
                Rp = np.eye(3) + np.sin(c) * Kx + (1 - np.cos(c)) * (Kx @ Kx)
                Rp = Rp @ R
            pred = oracle_project(Km, Rp, r + dr, ps)
            return (us - pred).T.reshape(-1)  # all u rows, then all v rows

        e_impl, G, _, _ = gn_rows_at(ps, us, Km, R, r)
        J_impl = G.T
        np.testing.assert_allclose(e_impl, residuals(np.zeros(3), np.zeros(3)), atol=1e-9)
        h = 1e-6
        J_fd = np.empty_like(J_impl)
        for k in range(6):
            step = np.zeros(6)
            step[k] = h
            plus = residuals(step[:3], step[3:])
            minus = residuals(-step[:3], -step[3:])
            J_fd[:, k] = (plus - minus) / (2 * h)
        scale = np.abs(J_fd).max()
        np.testing.assert_allclose(J_impl, J_fd, atol=1e-5 * scale)

    def test_converged_step_is_tiny(self, rng):
        Km, R, r, ps, us = make_exact_scene(rng, n=30)
        us = us + rng.standard_normal(us.shape)
        result = solve((ps, us), Km, SolverConfig(method="ndlt_gn"))
        _, _, JtJ, g = gn_rows_at(ps, us, Km, result.pose.R, result.pose.r)
        step = np.linalg.solve(JtJ, g)
        assert np.linalg.norm(step) < 1e-6

    def test_improves_perturbed_initialization(self, rng):
        Km, R, r, ps, us = make_exact_scene(rng, n=30)
        us = us + rng.standard_normal(us.shape)
        wobble = solvers_module.rodrigues(np.array([0.02, -0.015, 0.01]))
        init = Pose(R=wobble @ R, r=r + np.array([0.05, -0.04, 0.08]))
        refined, fell_back, cost = refine_gauss_newton(ps, us, Km, init)
        init_rms = solvers_module._reprojection_rms(ps, us, Km, init)
        assert not fell_back
        assert solvers_module._reprojection_rms(ps, us, Km, refined) < init_rms
        assert rotation_angle_deg(refined.R, R) < 0.2
        # The cost handed back is that of the pose returned, not the start's.
        e, _, _, _ = gn_rows_at(ps, us, Km, refined.R, refined.r)
        assert abs(cost - e @ e) <= 1e-12 * (e @ e)

    def test_fallback_flag_when_no_step_improves(self, rng, monkeypatch):
        Km, R, r, ps, us = make_exact_scene(rng, n=12)
        us = us + rng.standard_normal(us.shape)
        calls = {"n": 0}
        project = solvers_module._gn_project

        def stuck_project(*args):
            calls["n"] += 1
            _, proj = project(*args)
            return (1.0 if calls["n"] == 1 else 2.0), proj

        monkeypatch.setattr(solvers_module, "_gn_project", stuck_project)
        init = Pose(R=R, r=r)
        pose, fell_back, cost = refine_gauss_newton(ps, us, Km, init)
        assert fell_back
        np.testing.assert_allclose(pose.R, R, atol=1e-12)
        np.testing.assert_array_equal(pose.r, r)
        assert cost == 1.0  # the start's, not a rejected trial's
        calls["n"] = 0
        result = solve((ps, us), Km, SolverConfig(method="ndlt_gn"))
        assert FLAG_FALLBACK_USED in result.flags
        assert result.reprojection_rms == np.sqrt(1.0 / len(ps))  # the refine's cost

    def test_restart_from_own_output_stops_at_once(self, monkeypatch):
        # At its own optimum the predicted decrease is below _GN_TOL, so a
        # restart projects the starting pose only and hands the pose back.
        sc = SyntheticScenario(n=50, sigma_u=1.0, trials=1, seed=0)
        (ps, us), _ = generate_scene(sc, 0)
        pose = solve((ps, us), sc.intrinsics, SolverConfig(method="ndlt_gn")).pose
        calls = Counter()
        project = solvers_module._gn_project

        def counted(*args):
            calls["project"] += 1
            return project(*args)

        monkeypatch.setattr(solvers_module, "_gn_project", counted)
        again, fell_back, _ = refine_gauss_newton(ps, us, intrinsic_matrix(sc.intrinsics), pose)
        assert calls["project"] == 1
        assert not fell_back
        np.testing.assert_array_equal(again.R, pose.R)
        np.testing.assert_array_equal(again.r, pose.r)

    # Seeded scenes (paper point, and uncentered at n=2000) where Gauss-Newton
    # converges with the cost at rounding level, where no halving of a further
    # step could lower it. That step's predicted decrease is below _GN_TOL, so
    # the iteration stops before the line search: convergence, not a fallback.
    @pytest.mark.parametrize(
        "box, n, trial",
        [(CENTERED_BOX, 50, 12), (UNCENTERED_BOX, 50, 20), (UNCENTERED_BOX, 2000, 16)],
    )
    def test_no_fallback_flag_once_converged(self, box, n, trial):
        sc = SyntheticScenario(box=box, n=n, sigma_u=1.0, trials=1, seed=0)
        (ps, us), _ = generate_scene(sc, trial)
        result = solve((ps, us), sc.intrinsics, SolverConfig(method="ndlt_gn"))
        assert FLAG_FALLBACK_USED not in result.flags

    # The normal equations refine_gauss_newton builds from the feature Gram
    # equal the products of the interleaved (2n, 6) J that the oracle builds
    # point by point by the chain rule.
    @staticmethod
    def assert_normal_equations_match_oracle(box, n, intrinsics):
        sc = SyntheticScenario(box=box, n=n, sigma_u=1.0, trials=1, seed=0, intrinsics=intrinsics)
        (ps, us), _ = generate_scene(sc, 0)
        Km = intrinsic_matrix(sc.intrinsics)
        pose = solve((ps, us), Km, SolverConfig(method="ndlt")).pose
        e, _, JtJ, g = gn_rows_at(ps, us, Km, pose.R, pose.r)
        e_oracle, J = oracle_gn_jacobian(Km, pose.R, pose.r, ps, us)
        np.testing.assert_allclose(e, e_oracle.reshape(-1, 2).T.reshape(-1), rtol=0, atol=1e-9)
        for got, want in ((JtJ, J.T @ J), (g, J.T @ e_oracle)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("n", [6, 2000])
    @pytest.mark.parametrize("box", [CENTERED_BOX, UNCENTERED_BOX])
    def test_normal_equations_match_interleaved_oracle(self, box, n):
        self.assert_normal_equations_match_oracle(box, n, DEFAULT_INTRINSICS)

    # DEFAULT_INTRINSICS has no skew; a skew reaches the u rows' dphi_0, dphi_2
    # and dr entries of the feature map.
    @pytest.mark.parametrize("n", [6, 2000])
    @pytest.mark.parametrize("box", [CENTERED_BOX, UNCENTERED_BOX])
    def test_normal_equations_match_interleaved_oracle_skewed(self, box, n):
        Km = random_intrinsics_matrix(np.random.default_rng(n), skew=True)
        self.assert_normal_equations_match_oracle(box, n, CameraIntrinsics.from_matrix(Km))

    def test_builds_after_a_rejected_step_use_the_accepted_pose(self, monkeypatch):
        # The first step is rejected, so its trial pose is projected into the
        # feature rows before the halved step is. Every build must still give
        # the normal equations of the last accepted pose, as fresh buffers
        # projected at that pose give them.
        sc = SyntheticScenario(box=UNCENTERED_BOX, n=50, sigma_u=1.0, trials=1, seed=0)
        (ps, us), _ = generate_scene(sc, 0)
        Km = intrinsic_matrix(sc.intrinsics)
        init = solve((ps, us), Km, SolverConfig(method="ndlt")).pose
        projected, built = [], []
        project, build = solvers_module._gn_project, solvers_module._gn_normal_equations

        def rejecting_project(pts, uv, Km, R, r, F):
            cost, UV = project(pts, uv, Km, R, r, F)
            projected.append((R, r))
            return (np.inf if len(projected) == 2 else cost), UV

        def recorded(F, UV, C, Km, R):
            JtJ, g = build(F, UV, C, Km, R)
            built.append((R, JtJ.copy(), g.copy()))
            return JtJ, g

        monkeypatch.setattr(solvers_module, "_gn_project", rejecting_project)
        monkeypatch.setattr(solvers_module, "_gn_normal_equations", recorded)
        pose, fell_back, cost = refine_gauss_newton(ps, us, Km, init)
        assert not fell_back
        assert len(built) > 1
        monkeypatch.undo()
        e, _, _, _ = gn_rows_at(ps, us, Km, pose.R, pose.r)  # not the rejected trial's inf
        assert abs(cost - e @ e) <= 1e-12 * (e @ e)
        halved = projected[2]
        assert built[1][0] is halved[0]  # the build after the halving is at the halved pose
        for R, JtJ, g in built:
            (r,) = [r for R_p, r in projected if R_p is R]  # the accepted projection of R
            _, _, JtJ_fresh, g_fresh = gn_rows_at(ps, us, Km, R, r)
            for got, want in ((JtJ, JtJ_fresh), (g, g_fresh)):
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    # Without noise the linear pose predicts less than _GN_TOL of decrease, so
    # Gauss-Newton takes no step: the pose is ndlt's bit for bit, unflagged and
    # exact to criterion 01's bounds.
    @pytest.mark.parametrize("n", [6, 12, 50, 2000])
    @pytest.mark.parametrize("box", [CENTERED_BOX, UNCENTERED_BOX])
    def test_exact_data_returns_the_linear_pose(self, box, n):
        sc = SyntheticScenario(box=box, n=n, sigma_u=0.0, trials=10, seed=0)
        for trial in range(sc.trials):
            arrays, truth = generate_scene(sc, trial)
            gn = solve(arrays, sc.intrinsics, SolverConfig(method="ndlt_gn"))
            linear = solve(arrays, sc.intrinsics, SolverConfig(method="ndlt"))
            assert FLAG_FALLBACK_USED not in gn.flags
            np.testing.assert_array_equal(gn.pose.R, linear.pose.R)
            np.testing.assert_array_equal(gn.pose.r, linear.pose.r)
            assert rotation_angle_deg(gn.pose.R, truth.R) < 1e-6, trial
            assert np.linalg.norm(gn.pose.r - truth.r) < 1e-8, trial

    # ndlt_gn reports its refine's own cost, in place of projecting the pose
    # once more: it must read as the pose's reprojection RMS, recomputed.
    @pytest.mark.parametrize("skew", [False, True], ids=["plain", "skewed"])
    @pytest.mark.parametrize("n", [6, 50, 2000])
    @pytest.mark.parametrize("box", [CENTERED_BOX, UNCENTERED_BOX], ids=["centered", "uncentered"])
    def test_reported_rms_is_the_returned_pose_reprojection(self, box, n, skew):
        intrinsics = DEFAULT_INTRINSICS
        if skew:
            Km = random_intrinsics_matrix(np.random.default_rng(n), skew=True)
            intrinsics = CameraIntrinsics.from_matrix(Km)
        sc = SyntheticScenario(box=box, n=n, sigma_u=1.0, trials=5, seed=4, intrinsics=intrinsics)
        Km = intrinsic_matrix(sc.intrinsics)
        for trial in range(sc.trials):
            (ps, us), _ = generate_scene(sc, trial)
            result = solve((ps, us), Km, SolverConfig(method="ndlt_gn"))
            want = solvers_module._reprojection_rms(ps, us, Km, result.pose)
            if want == np.inf:
                assert result.reprojection_rms == np.inf, trial
            else:
                assert abs(result.reprojection_rms - want) <= 1e-12 * want + 1e-12, trial

    def test_start_with_a_point_on_the_camera_plane_is_returned_flagged(self, rng):
        Km, R, r, ps, us = make_exact_scene(rng, n=12)
        ps = ps.copy()
        ps[0] = r + R[0]  # x = R (p - r) = (1, 0, 0): depth 0
        init = Pose(R=R, r=r)
        pose, fell_back, cost = refine_gauss_newton(ps, us, Km, init)
        assert fell_back
        assert pose is init
        assert cost == np.inf


class TestStopAfterSmallStep:
    # refine_gauss_newton stops after a full step that predicted less than
    # _GN_REL_TOL of the residual variance, without building the normal
    # equations that would confirm it. Against the same refine with that stop
    # turned off (_GN_REL_TOL = 0): normal-equation builds never go up (and go
    # down somewhere), the two poses lie within 1e-3 standard deviations of
    # each other in the metric J^T J / sigma^2 at the returned pose (the stop
    # bounds the last step taken at 1e-2 of them, and the step it skips is
    # shorter still), and the step left at the returned pose stays below
    # test_converged_step_is_tiny's 1e-6. Most scenes give the same pose bit
    # for bit; on the uncentered box at n 12 and 50 a few differ by up to 4e-7
    # in position, 1.6e-5 standard deviations.

    @staticmethod
    def compare(monkeypatch, scenes):
        builds = Counter()
        build = solvers_module._gn_normal_equations

        def counted(*args):
            builds["builds"] += 1
            return build(*args)

        monkeypatch.setattr(solvers_module, "_gn_normal_equations", counted)
        total = Counter()
        for ps, us, Km in scenes:
            init = solve((ps, us), Km, SolverConfig(method="ndlt")).pose
            out = {}
            for stop in (True, False):
                with monkeypatch.context() as m:
                    if not stop:
                        m.setattr(solvers_module, "_GN_REL_TOL", 0.0)
                    builds.clear()
                    out[stop] = refine_gauss_newton(ps, us, Km, init), builds["builds"]
                total[stop] += builds["builds"]
            ((pose, fell_back, _), n_builds), ((pose_off, fell_back_off, _), n_builds_off) = (
                out[True], out[False]
            )
            assert fell_back == fell_back_off
            assert n_builds <= n_builds_off
            e, _, JtJ, g = gn_rows_at(ps, us, Km, pose.R, pose.r)
            Q = pose_off.R @ pose.R.T  # exp([dphi x]) for the left increment dphi
            d = np.r_[0.5 * (Q[2, 1] - Q[1, 2]), 0.5 * (Q[0, 2] - Q[2, 0]),
                      0.5 * (Q[1, 0] - Q[0, 1]), pose_off.r - pose.r]
            assert d @ JtJ @ d <= 1e-6 * (e @ e) / (2 * len(ps) - 6)
            assert np.linalg.norm(np.linalg.solve(JtJ, g)) < 1e-6
        assert total[True] < total[False]

    def test_converged_step_sweep(self, monkeypatch):
        rng = np.random.default_rng(12345)
        scenes = []
        for _ in range(200):
            Km, _, _, ps, us = make_exact_scene(rng, n=30)
            scenes.append((ps, us + rng.standard_normal(us.shape), Km))
        self.compare(monkeypatch, scenes)

    @pytest.mark.parametrize("n", [12, 50, 2000])
    @pytest.mark.parametrize("box", [CENTERED_BOX, UNCENTERED_BOX], ids=["centered", "uncentered"])
    def test_both_boxes(self, monkeypatch, box, n):
        sc = SyntheticScenario(box=box, n=n, sigma_u=1.0, trials=20, seed=9)
        Km = intrinsic_matrix(sc.intrinsics)
        scenes = [(*generate_scene(sc, trial)[0], Km) for trial in range(sc.trials)]
        self.compare(monkeypatch, scenes)

    def test_refined_rotation_is_orthonormal(self):
        # One Newton-Schulz step closes the product of step rotations.
        for box in (CENTERED_BOX, UNCENTERED_BOX):
            for n in (12, 50, 2000):
                sc = SyntheticScenario(box=box, n=n, sigma_u=1.0, trials=10, seed=9)
                for trial in range(sc.trials):
                    arrays, _ = generate_scene(sc, trial)
                    R = solve(arrays, sc.intrinsics, SolverConfig(method="ndlt_gn")).pose.R
                    assert np.abs(R.T @ R - np.eye(3)).max() <= 1e-15, (n, trial)
                    assert abs(np.linalg.det(R) - 1.0) <= 1e-15, (n, trial)


def shift_preliminary(monkeypatch, ps, us, behind):
    """Make the weighted stage's preliminary estimate put `behind` points
    behind the camera, by moving the real estimate along the optical axis.
    The stand-in checks that solve() hands it the raw moment rows, their Gram
    and the basis, as raw_moments builds them, and returns the shifted
    estimate's depths as the real one reads them, through B."""
    Mt, S, _, _, B = raw_moments(ps, us)
    P0, depths = _preliminary_normalized(Mt, S, B)
    depths = np.sort(depths)
    P0_shift = P0.copy()
    P0_shift[2, 3] -= (depths[behind - 1] + depths[behind]) / 2.0
    k = B[:4, :4] @ P0_shift[2]
    shifted = (P0_shift, Mt[:3].T @ k[:3] + k[3])

    def stand_in(*args):
        if args:
            for got, want in zip(args, (Mt, S, B)):
                np.testing.assert_array_equal(got, want)
        return shifted

    monkeypatch.setattr(solvers_module, "_preliminary_normalized", stand_in)


class TestWeightEdgeCases:
    def test_small_negative_depth_fraction_is_dropped(self, rng, monkeypatch):
        Km, R, r, ps, us = make_exact_scene(rng, n=20)
        shift_preliminary(monkeypatch, ps, us, behind=1)
        result = solve((ps, us), Km, SolverConfig(method="odlt"))
        rot, pos = pose_errors(result, R, r)
        assert rot < 1e-6 and pos < 1e-7

    def test_large_negative_depth_fraction_raises(self, rng, monkeypatch):
        Km, R, r, ps, us = make_exact_scene(rng, n=20)
        shift_preliminary(monkeypatch, ps, us, behind=3)  # 15%
        with pytest.raises(NegativeDepth):
            solve((ps, us), Km, SolverConfig(method="odlt"))

    def test_mixed_depths_flag_surfaces(self, rng):
        Km, R, r, ps, us = make_exact_scene(rng, n=20)
        cam = (ps - r) @ R.T
        cam[:8] *= -1.0
        mixed_ps = cam @ R + r
        mixed_us = oracle_project(Km, R, r, mixed_ps)
        result = solve((mixed_ps, mixed_us), Km, SolverConfig(method="dlt"))
        assert FLAG_MIXED_DEPTHS in result.flags


class TestApiSurface:
    def test_too_few_points(self, rng):
        Km, R, r, ps, us = make_exact_scene(rng, n=5)
        with pytest.raises(TooFewPoints):
            solve((ps, us), Km, SolverConfig(method="ndlt"))

    @pytest.mark.parametrize("method", METHODS)
    def test_empty_correspondence_sequence_is_too_few_points(self, method):
        with pytest.raises(TooFewPoints):
            solve([], np.eye(3), SolverConfig(method=method))

    @pytest.mark.parametrize("method", METHODS)
    def test_fewer_than_six_points_is_too_few_points_without_warnings(self, rng, method):
        # Checked before any stage runs: no DegeneratePoints for a single
        # point and no numpy RuntimeWarning from a division by n = 0.
        Km, R, r, ps, us = make_exact_scene(rng, n=5)
        for n in range(6):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(TooFewPoints):
                    solve((ps[:n], us[:n]), Km, SolverConfig(method=method))
                if method in ("dlt", "ndlt", "odlt"):
                    with pytest.raises(TooFewPoints):
                        estimate_projection((ps[:n], us[:n]), SolverConfig(method=method))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(method="epnp")
        for sigma_u in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="sigma_u must be finite and positive"):
                SolverConfig(sigma_u=sigma_u)

    def test_non_numeric_sigma_u_is_the_documented_value_error(self):
        # Used to raise TypeError from the comparison.
        for sigma_u in ("1", None, [1.0]):
            with pytest.raises(ValueError, match="sigma_u must be finite and positive"):
                SolverConfig(sigma_u=sigma_u)

    @pytest.mark.parametrize("method", METHODS)
    def test_plain_list_pair_solves_like_the_array_pair(self, rng, method):
        Km, R, r, ps, us = make_exact_scene(rng, n=30)
        us = us + rng.standard_normal(us.shape)
        a = solve((ps, us), Km, SolverConfig(method=method))
        b = solve((ps.tolist(), us.tolist()), Km, SolverConfig(method=method))
        assert a.pose.R.tobytes() == b.pose.R.tobytes()
        assert a.pose.r.tobytes() == b.pose.r.tobytes()
        assert (a.reprojection_rms, a.flags) == (b.reprojection_rms, b.flags)

    @pytest.mark.parametrize("cs", [None, ([["a"] * 3] * 8, [["b"] * 2] * 8)], ids=["none", "strings"])
    def test_unreadable_input_is_invalid_shape(self, cs):
        with pytest.raises(InvalidShape):
            solve(cs, np.eye(3), SolverConfig())

    def test_estimate_projection_properties(self, rng):
        Km, R, r, ps, us = make_exact_scene(rng, n=20)
        scenes = [((ps, us), compose_projection(Km, Pose(R=R, r=r)))]
        sc = SyntheticScenario(box=UNCENTERED_BOX, n=20, sigma_u=0.0, trials=1, seed=0)
        arrays, truth = generate_scene(sc, 0)
        scenes.append((arrays, compose_projection(sc.intrinsics, truth)))
        for (ps, us), P_true in scenes:
            for method in ("dlt", "ndlt", "odlt"):
                P = estimate_projection((ps, us), SolverConfig(method=method))
                assert abs(np.linalg.norm(P) - 1.0) < 1e-12
                assert depths_under(P, ps).mean() > 0
                ref = P_true / np.linalg.norm(P_true)
                np.testing.assert_allclose(P, ref, atol=1e-7)
        with pytest.raises(ValueError):
            estimate_projection((ps, us), SolverConfig(method="ndlt_gn"))

    @pytest.mark.parametrize("box", [CENTERED_BOX, UNCENTERED_BOX], ids=["centered", "uncentered"])
    def test_estimate_projection_keeps_the_null_space_sign(self, box, monkeypatch):
        # The de-normalized P has the depths of the normalized estimate, which
        # the null-space solve signed, so P needs no sign rule of its own. With
        # one point dropped by the preliminary the sign comes from the other 19,
        # and P is still, bit for bit, the matrix re-signed by the mean depth
        # over all 20 points, as a second rule would give it.
        sc = SyntheticScenario(box=box, n=20, sigma_u=1.0, trials=1, seed=4)
        (ps, us), _ = generate_scene(sc, 0)
        shift_preliminary(monkeypatch, ps, us, behind=1)
        _, depths = solvers_module._preliminary_normalized()
        assert np.count_nonzero(depths <= 0) == 1
        for method in ("dlt", "ndlt", "odlt"):
            P = estimate_projection((ps, us), SolverConfig(method=method))
            assert depths_under(P, ps).mean() > 0, method
            stages = STAGES[method]
            out = solvers_module._linear_solve(ps, us, stages.normalize, stages.weighted)
            ref = denormalize_projection(out.sol.P, out.pix, out.pt)
            ref = ref / np.linalg.norm(ref)
            if depths_under(ref, ps).mean() < 0:
                ref = -ref
            np.testing.assert_array_equal(P, ref)

    def test_timing_keys(self, rng):
        # Exactly the stages each method runs, plus the common tail.
        Km, R, r, ps, us = make_exact_scene(rng, n=15)
        stages = {
            "dlt": {"normalize", "solve", "recover"},
            "ndlt": {"normalize", "solve", "recover"},
            "odlt": {"normalize", "weights", "solve", "recover"},
            "odlt_lost": {"normalize", "weights", "solve", "recover", "lost"},
            "ndlt_gn": {"normalize", "solve", "recover", "refine"},
        }
        assert tuple(stages) == METHODS
        for method, expected in stages.items():
            result = solve((ps, us), Km, SolverConfig(method=method))
            assert set(result.timings) == expected | {"reprojection", "total"}, method
            assert all(v >= 0.0 for v in result.timings.values())

    @pytest.mark.parametrize("method", METHODS)
    def test_non_triangular_intrinsic_matrix_raises(self, method, rng):
        # A lower-left K entry used to be accepted silently: odlt returned a
        # pose with ~1.8 px RMS and no flag.
        Km, R, r, ps, us = make_exact_scene(rng, n=30)
        bad = Km.copy()
        bad[1, 0] = 5.0
        bad[2, 0] = 1e-3
        with pytest.raises(InvalidIntrinsics, match="upper triangular"):
            solve((ps, us), bad, SolverConfig(method=method))

    @pytest.mark.parametrize("fx, fy", [(-800.0, 800.0), (800.0, -800.0), (0.0, 800.0)])
    @pytest.mark.parametrize("method", METHODS)
    def test_non_positive_focal_raises_before_any_linear_algebra(
        self, method, fx, fy, rng, monkeypatch
    ):
        # A negative focal length used to run a full linear solve and end as
        # ReflectionDetected; fx = 0 ended as SingularCalibration.
        Km, R, r, ps, us = make_exact_scene(rng, n=30)
        bad = Km.copy()
        bad[0, 0], bad[1, 1] = fx, fy
        called = []
        for name in ("svd", "qr", "det", "solve", "eigh", "cond", "inv", "norm"):
            fn = getattr(np.linalg, name)

            def shim(*args, _fn=fn, _name=name, **kwargs):
                called.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, shim)
        with pytest.raises(InvalidIntrinsics, match="positive"):
            solve((ps, us), bad, SolverConfig(method=method))
        assert called == []

    def test_intrinsics_object_and_matrix_agree(self, rng):
        Km, R, r, ps, us = make_exact_scene(rng, n=12)
        intr = CameraIntrinsics(fx=Km[0, 0], fy=Km[1, 1], cx=Km[0, 2], cy=Km[1, 2])
        a = solve((ps, us), Km, SolverConfig(method="odlt"))
        b = solve((ps, us), intr, SolverConfig(method="odlt"))
        np.testing.assert_array_equal(a.pose.R, b.pose.R)
        np.testing.assert_array_equal(a.pose.r, b.pose.r)


class TestPreliminaryCrossover:
    """On both sides of the L(R) route (from _LR_MIN_POINTS = 256 points) the
    weighted stage takes one path: the full set's unweighted null vector, then
    the weighted assembly of the points in front of it."""

    @pytest.mark.parametrize("n", [50, 255, 256, 2000])
    @pytest.mark.parametrize("method", ["odlt", "odlt_lost"])
    def test_seed_has_no_effect(self, method, n):
        sc = SyntheticScenario(box=UNCENTERED_BOX, n=n, sigma_u=1.0, trials=1, seed=3)
        arrays, _ = generate_scene(sc, 0)
        base, *others = (
            solve(arrays, sc.intrinsics, SolverConfig(method, seed=seed)).pose for seed in (0, 5, 6)
        )
        for pose in others:
            np.testing.assert_array_equal(pose.R, base.R)
            np.testing.assert_array_equal(pose.r, base.r)

    @pytest.mark.parametrize("n", [255, 256])
    @pytest.mark.parametrize("method", ["odlt", "odlt_lost"])
    def test_assembles_once_and_draws_nothing(self, method, n, monkeypatch):
        # The preliminary comes from the Gram of the moment rows, so the
        # weighted system is the one matrix assembled, and one eigh the only
        # extra decomposition.
        sc = SyntheticScenario(box=UNCENTERED_BOX, n=n, sigma_u=1.0, trials=1, seed=3)
        arrays, _ = generate_scene(sc, 0)
        tally = Counter()

        def counted(name, fn):
            def shim(*args, **kwargs):
                tally[name] += 1
                return fn(*args, **kwargs)

            return shim

        assemble = solvers_module._assemble_arrays
        monkeypatch.setattr(solvers_module, "_assemble_arrays", counted("assemble", assemble))
        monkeypatch.setattr(np.random, "default_rng", counted("draw", np.random.default_rng))
        monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
        solve(arrays, sc.intrinsics, SolverConfig(method))
        assert not hasattr(weighting_module, "_assemble_arrays")
        assert (tally["assemble"], tally["draw"], tally["eigh"]) == (1, 0, 1)

    @pytest.mark.parametrize("n", [255, 256])
    @pytest.mark.parametrize("method", METHODS)
    def test_route_starts_at_256_points(self, method, n, monkeypatch):
        # Below the route the null space gets the 2n x 12 A, from it up the
        # 24 x 12 L(R), for every method.
        sc = SyntheticScenario(box=UNCENTERED_BOX, n=n, sigma_u=1.0, trials=1, seed=3)
        arrays, _ = generate_scene(sc, 0)
        shapes = []
        final = solvers_module.solve_nullspace

        def recorded(A, **kwargs):
            shapes.append(A.shape)
            return final(A, **kwargs)

        monkeypatch.setattr(solvers_module, "solve_nullspace", recorded)
        solve(arrays, sc.intrinsics, SolverConfig(method))
        assert shapes == [(2 * n, 12) if n < 256 else (24, 12)]

    @pytest.mark.parametrize("n", [6, 50, 255])
    def test_weighted_assembly_scales_the_unweighted_rows(self, rng, n):
        # Below the route the weighted A is the unweighted A with each
        # point's two rows scaled by its weight, bit for bit: the products
        # p u and p v are formed before the weights scale the moment rows.
        Km, R, r, ps, us = make_exact_scene(rng, n=n)
        us = us + rng.standard_normal(us.shape)
        psn = fit_point_normalization(ps).apply(ps)
        usn = fit_pixel_normalization(us).apply(us)
        w = rng.uniform(0.1, 10.0, n)
        A = _assemble_arrays(moment_rows(psn, usn))
        A.reshape(-1, 24)[:] *= w[:, None]
        np.testing.assert_array_equal(_assemble_arrays(moment_rows(psn, usn, w)), A)

    @pytest.mark.parametrize("n", [20, 300])
    def test_kept_rows_match_the_weighted_assembly(self, rng, monkeypatch, n):
        # One point behind the preliminary camera: it leaves the raw moment
        # rows, and the final null space gets the weighted assembly of the
        # others with the full set's basis B, scaled by q = 1 / depth whatever
        # sigma_u is. The cheirality sign reads the kept raw points through
        # the full set's point normalization.
        Km, R, r, ps, us = make_exact_scene(rng, n=n)
        us = us + rng.standard_normal(us.shape)
        shift_preliminary(monkeypatch, ps, us, behind=1)
        _, depths = solvers_module._preliminary_normalized()
        seen, assemblies = [], []
        final = solvers_module.solve_nullspace
        assemble = solvers_module._assemble_arrays

        def capture(A, points, T_p):
            seen.append((A, points, T_p))
            return final(A, points=points, T_p=T_p)

        def counted(*args):
            assemblies.append(args)
            return assemble(*args)

        monkeypatch.setattr(solvers_module, "solve_nullspace", capture)
        monkeypatch.setattr(solvers_module, "_assemble_arrays", counted)
        solve((ps, us), Km, SolverConfig(method="odlt", sigma_u=2.0))
        Mt, _, _, pt, B = raw_moments(ps, us)
        front = depths > 0
        assert front.sum() == n - 1
        expected = _assemble_arrays(_system_rows(Mt[:, front] * (1.0 / depths[front])), B)
        assert len(assemblies) == 1
        ((A, points, T_p),) = seen
        np.testing.assert_array_equal(A, expected)
        np.testing.assert_array_equal(points, ps[front])
        np.testing.assert_array_equal(T_p, pt.T)


def tilted_plane(rng, n):
    """n exact points on a plane tilted 10-50 degrees from fronto-parallel, 6
    units in front of a randomly rotated and placed camera: (Km, ps, us)."""
    Km = np.array([[800.0, 0.0, 320.0], [0.0, 800.0, 240.0], [0.0, 0.0, 1.0]])
    tilt, axis = np.radians(rng.uniform(10.0, 50.0)), rng.uniform(0.0, 2.0 * np.pi)
    e1 = np.array([np.cos(axis), np.sin(axis), 0.0])
    e2 = np.cross([0.0, 0.0, 1.0], e1) * np.cos(tilt) + np.array([0.0, 0.0, np.sin(tilt)])
    a, b = rng.uniform(-2.0, 2.0, (2, n))
    cam = np.array([0.0, 0.0, 6.0]) + np.outer(a, e1) + np.outer(b, e2)
    R, r = random_rotation(rng), rng.uniform(-3.0, 3.0, 3)
    ps = cam @ R + r
    return Km, ps, oracle_project(Km, R, r, ps)


@pytest.mark.parametrize("n", [6, 12, 50, 768, 2000])
def test_exact_planes_are_rank_deficient(n):
    # A plane leaves a multi-dimensional null space. The weighted
    # preliminary's Gram has no rank test, but any of its null vectors puts
    # the plane's points at one depth sign, so no point is dropped and the
    # final null space's rank test names the set: RankDeficient, never
    # NegativeDepth.
    rng = np.random.default_rng([11, n])
    for scene in range(20):
        Km, ps, us = tilted_plane(rng, n)
        for method in ("odlt", "odlt_lost"):
            with pytest.raises(RankDeficient, match="null space not unique"):
                solve((ps, us), Km, SolverConfig(method=method))


@pytest.mark.parametrize("count", [6, 7])
@pytest.mark.parametrize("method", METHODS)
def test_repeated_points_are_rank_deficient(method, count):
    # 6 or 7 correspondences over 5 distinct points (points 0 and 1 repeated),
    # exact pixels, identity pose: a two-dimensional null space. The weighted
    # preliminary's eigh returns some vector in it, whose depths can put more
    # than 10% of the points behind the camera; before raising NegativeDepth
    # the weighted stage runs the unweighted null space, whose rank test names
    # the set as it does for the unweighted methods.
    Km = intrinsic_matrix(DEFAULT_INTRINSICS)
    for seed in range(20):
        points = np.random.default_rng(seed).uniform(*CENTERED_BOX, (5, 3))
        ps = np.concatenate([points, points[: count - 5]])
        us = oracle_project(Km, np.eye(3), np.zeros(3), ps)
        with pytest.raises(RankDeficient, match="null space not unique"):
            solve((ps, us), DEFAULT_INTRINSICS, SolverConfig(method=method))


def failing(fn, when=lambda *args: True):
    """fn, except that it raises numpy's LinAlgError when called on arguments
    that satisfy when."""

    def shim(*args, **kwargs):
        if when(*args):
            raise np.linalg.LinAlgError("did not converge")
        return fn(*args, **kwargs)

    return shim


class TestLinAlgErrorsAreNamed:
    # Before the null space only the weighted preliminary's eigh, and after it
    # only nearest_rotation's SVD (and ndlt_gn's normal equations), call
    # numpy.linalg; each failure surfaces as a PnpError, chained from the
    # LinAlgError. The null space's svd runs at every n; QR runs only in the
    # moment reduction, from the L(R) route's 256 points up.
    @pytest.mark.parametrize(("n", "name"), [(50, "svd"), (2000, "svd"), (2000, "qr")])
    @pytest.mark.parametrize("method", METHODS)
    def test_null_space_failure_is_rank_deficient(self, method, n, name, monkeypatch):
        sc = SyntheticScenario(box=UNCENTERED_BOX, n=n, sigma_u=1.0, trials=1, seed=0)
        arrays, _ = generate_scene(sc, 0)
        monkeypatch.setattr(np.linalg, name, failing(getattr(np.linalg, name)))
        with pytest.raises(RankDeficient) as exc:
            solve(arrays, sc.intrinsics, SolverConfig(method=method))
        assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)

    @pytest.mark.parametrize("n", [50, 2000])
    @pytest.mark.parametrize("method", ["odlt", "odlt_lost"])
    def test_preliminary_failure_is_rank_deficient(self, method, n, monkeypatch):
        # The weighted preliminary's eigh of the 12x12 Gram.
        sc = SyntheticScenario(box=UNCENTERED_BOX, n=n, sigma_u=1.0, trials=1, seed=0)
        arrays, _ = generate_scene(sc, 0)
        monkeypatch.setattr(np.linalg, "eigh", failing(np.linalg.eigh))
        with pytest.raises(RankDeficient, match="preliminary") as exc:
            solve(arrays, sc.intrinsics, SolverConfig(method=method))
        assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)

    @pytest.mark.parametrize("method", METHODS)
    def test_rotation_projection_failure_is_degenerate_input(self, method, monkeypatch):
        sc = SyntheticScenario(n=50, sigma_u=1.0, trials=1, seed=0)
        arrays, _ = generate_scene(sc, 0)
        svd = failing(np.linalg.svd, when=lambda M, *rest: np.shape(M) == (3, 3))
        monkeypatch.setattr(np.linalg, "svd", svd)
        with pytest.raises(DegenerateInput) as exc:
            solve(arrays, sc.intrinsics, SolverConfig(method=method))
        assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)
