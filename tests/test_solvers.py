import warnings
from collections import Counter

import numpy as np
import pytest

import odlt.solvers as solvers_module
import odlt.weighting as weighting_module
from odlt.dlt import _assemble_arrays
from odlt.errors import InvalidIntrinsics, NegativeDepth, TooFewPoints
from odlt.evaluation import CENTERED_BOX, UNCENTERED_BOX, SyntheticScenario, generate_scene
from odlt.geometry import (
    CameraIntrinsics,
    Correspondence,
    Pose,
    compose_projection,
    correspondence_arrays,
    rotation_angle_deg,
)
from odlt.normalization import fit_pixel_normalization, fit_point_normalization
from odlt.solvers import (
    FLAG_FALLBACK_USED,
    FLAG_MIXED_DEPTHS,
    METHODS,
    SolverConfig,
    estimate_projection,
    refine_gauss_newton,
    solve,
)
from odlt.weighting import _preliminary_normalized, depths_under
from conftest import (
    make_exact_scene,
    oracle_project,
    random_intrinsics_matrix,
    random_rotation,
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

    def test_sigma_scale_invariance(self, rng):
        # Scaling sigma_u rescales all rows together; the null direction,
        # the Procrustes weights' relative pattern, so the pose, must stay.
        Km, R, r, ps, us = make_exact_scene(rng, n=25)
        us = us + rng.standard_normal(us.shape)
        for method in METHODS:
            a = solve((ps, us), Km, SolverConfig(method=method, sigma_u=1.0))
            b = solve((ps, us), Km, SolverConfig(method=method, sigma_u=10.0))
            assert rotation_angle_deg(a.pose.R, b.pose.R) < 1e-8
            np.testing.assert_allclose(b.pose.r, a.pose.r, atol=1e-8)

    def test_odlt_lost_shares_rotation(self, rng):
        Km, R, r, ps, us = make_exact_scene(rng, n=25)
        us = us + rng.standard_normal(us.shape)
        cfg_a = SolverConfig(method="odlt", seed=3)
        cfg_b = SolverConfig(method="odlt_lost", seed=3)
        a = solve((ps, us), Km, cfg_a)
        b = solve((ps, us), Km, cfg_b)
        np.testing.assert_array_equal(a.pose.R, b.pose.R)
        assert np.linalg.norm(a.pose.r - b.pose.r) > 0  # translation did move

    def test_unit_weights_reduce_to_ndlt(self, rng):
        for _ in range(10):
            Km, R, r, ps, us = make_exact_scene(rng, n=18)
            us = us + rng.standard_normal(us.shape)
            forced = solve((ps, us), Km, SolverConfig(method="odlt", force_unit_weights=True))
            plain = solve((ps, us), Km, SolverConfig(method="ndlt"))
            np.testing.assert_allclose(forced.pose.R, plain.pose.R, atol=1e-12)
            np.testing.assert_allclose(forced.pose.r, plain.pose.r, atol=1e-12)

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
            return (us - pred).reshape(-1)

        e_impl, J_impl = solvers_module._gn_residuals_jacobian(ps, us, Km, R, r)
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
        e, J = solvers_module._gn_residuals_jacobian(
            ps, us, Km, result.pose.R, result.pose.r
        )
        step = np.linalg.solve(J.T @ J, J.T @ e)
        assert np.linalg.norm(step) < 1e-6

    def test_improves_perturbed_initialization(self, rng):
        Km, R, r, ps, us = make_exact_scene(rng, n=30)
        us = us + rng.standard_normal(us.shape)
        wobble = solvers_module.rodrigues(np.array([0.02, -0.015, 0.01]))
        init = Pose(R=wobble @ R, r=r + np.array([0.05, -0.04, 0.08]))
        refined, fell_back = refine_gauss_newton(ps, us, Km, init)
        init_rms = solvers_module._reprojection_rms(ps, us, Km, init)
        assert not fell_back
        assert solvers_module._reprojection_rms(ps, us, Km, refined) < init_rms
        assert rotation_angle_deg(refined.R, R) < 0.2

    def test_fallback_flag_when_no_step_improves(self, rng, monkeypatch):
        Km, R, r, ps, us = make_exact_scene(rng, n=12)
        us = us + rng.standard_normal(us.shape)
        calls = {"n": 0}

        def stuck_cost(*args):
            calls["n"] += 1
            return 1.0 if calls["n"] == 1 else 2.0

        monkeypatch.setattr(solvers_module, "_gn_cost", stuck_cost)
        init = Pose(R=R, r=r)
        pose, fell_back = refine_gauss_newton(ps, us, Km, init)
        assert fell_back
        np.testing.assert_allclose(pose.R, R, atol=1e-12)
        np.testing.assert_array_equal(pose.r, r)
        calls["n"] = 0
        result = solve((ps, us), Km, SolverConfig(method="ndlt_gn"))
        assert FLAG_FALLBACK_USED in result.flags

    # Seeded scenes (paper point, and uncentered at n=2000) where Gauss-Newton
    # converges, the cost then sits at rounding level and all 11 halvings of
    # the last step fail. The step's predicted decrease is below _GN_TOL, so
    # that is convergence, not a fallback.
    @pytest.mark.parametrize(
        "box, n, trial",
        [(CENTERED_BOX, 50, 12), (UNCENTERED_BOX, 50, 20), (UNCENTERED_BOX, 2000, 16)],
    )
    def test_no_fallback_flag_once_converged(self, box, n, trial):
        sc = SyntheticScenario(box=box, n=n, sigma_u=1.0, trials=1, seed=0)
        (ps, us), _ = generate_scene(sc, trial)
        result = solve((ps, us), sc.intrinsics, SolverConfig(method="ndlt_gn"))
        assert FLAG_FALLBACK_USED not in result.flags


def shift_preliminary(monkeypatch, ps, us, behind):
    """Make the weighted stage's preliminary estimate put `behind` points
    behind the camera, by moving the real estimate along the optical axis."""
    pix = fit_pixel_normalization(us)
    pt = fit_point_normalization(ps)
    psn = pt.apply(ps)
    P0, depths, _ = _preliminary_normalized(psn, pix.apply(us), 0)
    depths = np.sort(depths)
    P0_shift = P0.copy()
    P0_shift[2, 3] -= (depths[behind - 1] + depths[behind]) / 2.0
    shifted = (P0_shift, depths_under(P0_shift, psn), False)
    monkeypatch.setattr(solvers_module, "_preliminary_normalized", lambda *_: shifted)


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
        with pytest.raises(ValueError):
            SolverConfig(sigma_u=0.0)

    def test_estimate_projection_properties(self, rng):
        Km, R, r, ps, us = make_exact_scene(rng, n=20)
        P_true = compose_projection(Km, Pose(R=R, r=r))
        for method in ("dlt", "ndlt", "odlt"):
            P = estimate_projection((ps, us), SolverConfig(method=method))
            assert abs(np.linalg.norm(P) - 1.0) < 1e-12
            assert depths_under(P, ps).mean() > 0
            ref = P_true / np.linalg.norm(P_true)
            np.testing.assert_allclose(P, ref, atol=1e-7)
        with pytest.raises(ValueError):
            estimate_projection((ps, us), SolverConfig(method="ndlt_gn"))

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
    """Below the chunked-QR crossover (2n < _QR_CHUNK_MIN_ROWS, n < 768) the
    weighted stage solves its preliminary on the full set's one constraint
    matrix; from n = 768 up it draws the seeded subset and assembles a
    weighted matrix, as it always did."""

    @pytest.mark.parametrize("n", [50, 767])
    @pytest.mark.parametrize("method", ["odlt", "odlt_lost"])
    def test_seed_and_subset_size_do_not_matter_below(self, method, n, monkeypatch):
        sc = SyntheticScenario(box=UNCENTERED_BOX, n=n, sigma_u=1.0, trials=1, seed=3)
        arrays, _ = generate_scene(sc, 0)
        poses = []
        for seed, size in [(0, 12), (7, 12), (0, 6), (11, 40), (3, 10**9)]:
            monkeypatch.setattr(weighting_module, "SUBSET_SIZE", size)
            poses.append(solve(arrays, sc.intrinsics, SolverConfig(method, seed=seed)).pose)
        for pose in poses[1:]:
            np.testing.assert_array_equal(pose.R, poses[0].R)
            np.testing.assert_array_equal(pose.r, poses[0].r)

    @pytest.mark.parametrize("n, assemblies, draws", [(767, 1, 0), (768, 2, 1)])
    @pytest.mark.parametrize("method", ["odlt", "odlt_lost"])
    def test_each_side_takes_its_path(self, method, n, assemblies, draws, monkeypatch):
        sc = SyntheticScenario(box=UNCENTERED_BOX, n=n, sigma_u=1.0, trials=1, seed=3)
        arrays, _ = generate_scene(sc, 0)
        tally = Counter()

        def counted(name, fn):
            def shim(*args, **kwargs):
                tally[name] += 1
                return fn(*args, **kwargs)

            return shim

        assemble = solvers_module._assemble_arrays
        for module in (solvers_module, weighting_module):
            monkeypatch.setattr(module, "_assemble_arrays", counted("assemble", assemble))
        monkeypatch.setattr(np.random, "default_rng", counted("draw", np.random.default_rng))
        solve(arrays, sc.intrinsics, SolverConfig(method))
        assert (tally["assemble"], tally["draw"]) == (assemblies, draws)

    def test_rows_weighted_in_place_match_the_weighted_assembly(self, rng, monkeypatch):
        # One point behind the preliminary camera: its two rows leave the one
        # A and the others are scaled by q = 1 / (sigma_u depth), as a weighted
        # assembly of the kept points would give them, up to the order of two
        # products.
        Km, R, r, ps, us = make_exact_scene(rng, n=20)
        us = us + rng.standard_normal(us.shape)
        shift_preliminary(monkeypatch, ps, us, behind=1)
        _, depths, _ = solvers_module._preliminary_normalized()
        seen, assemblies = [], []
        final = solvers_module.solve_nullspace
        assemble = solvers_module._assemble_arrays

        def capture(A, points):
            seen.append((A, points))
            return final(A, points=points)

        def counted(*args):
            assemblies.append(args)
            return assemble(*args)

        monkeypatch.setattr(solvers_module, "solve_nullspace", capture)
        monkeypatch.setattr(solvers_module, "_assemble_arrays", counted)
        solve((ps, us), Km, SolverConfig(method="odlt", sigma_u=2.0))
        psn = fit_point_normalization(ps).apply(ps)
        usn = fit_pixel_normalization(us).apply(us)
        front = depths > 0
        assert front.sum() == 19
        expected = _assemble_arrays(psn[front], usn[front], 1.0 / (2.0 * depths[front]))
        assert len(assemblies) == 1
        ((A, points),) = seen
        np.testing.assert_array_equal(points, psn[front])
        np.testing.assert_allclose(A, expected, rtol=1e-15, atol=0)
