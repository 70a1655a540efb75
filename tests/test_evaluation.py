import hashlib

import numpy as np
import pytest

from odlt.evaluation import (
    CENTERED_BOX,
    DEFAULT_INTRINSICS,
    SyntheticScenario,
    TrialMetrics,
    compute_metrics,
    generate_scene,
    run_monte_carlo,
)
from odlt.geometry import Pose, intrinsic_matrix
from odlt.solvers import SolverConfig, solve
from conftest import intrinsics_rmse_experiment, oracle_project


def scene_arrays(sc, trial):
    (ps, us), truth = generate_scene(sc, trial)
    return ps, us, truth


class TestSceneGeneration:
    def test_returns_an_array_pair(self):
        sc = SyntheticScenario(n=30, trials=1)
        (ps, us), truth = generate_scene(sc, 0)
        assert ps.shape == (30, 3) and us.shape == (30, 2)
        assert ps.dtype == us.dtype == np.float64
        assert isinstance(truth, Pose)

    def test_scene_bytes_are_pinned(self):
        # Digest of the scene as the per-point Correspondence path built it,
        # so a change in the order or shape of the RNG draws fails here.
        sc = SyntheticScenario(n=50, sigma_u=1.0, trials=10, seed=7)
        ps, us, _ = scene_arrays(sc, 3)
        digest = hashlib.sha256(ps.tobytes() + us.tobytes()).hexdigest()
        assert digest == "14eddc75c5dc4de5787cd56ca67c7ae885baccea591438df9286ca03da89ac54"

    def test_zero_noise_pixels_are_exact_projections(self):
        sc = SyntheticScenario(n=40, sigma_u=0.0, trials=1)
        ps, us, truth = scene_arrays(sc, 0)
        Km = intrinsic_matrix(DEFAULT_INTRINSICS)
        np.testing.assert_allclose(us, oracle_project(Km, truth.R, truth.r, ps), atol=1e-9)

    def test_box_corner_lands_where_expected(self):
        # A point pinned near (2, 2, 4) with the default 800/320/240 camera
        # must land near u = 800*(2/4) + 320 = 720, v = 800*(2/4) + 240 = 640.
        box = ((1.999, 1.999, 3.999), (2.001, 2.001, 4.001))
        sc = SyntheticScenario(box=box, n=1, sigma_u=0.0, trials=1)
        _, us, _ = scene_arrays(sc, 0)
        np.testing.assert_allclose(us[0], [720.0, 640.0], atol=1.0)

    def test_points_stay_inside_box(self):
        sc = SyntheticScenario(n=500, sigma_u=1.0, trials=1)
        ps, _, _ = scene_arrays(sc, 0)
        lo, hi = np.asarray(CENTERED_BOX[0]), np.asarray(CENTERED_BOX[1])
        assert np.all(ps >= lo) and np.all(ps <= hi)

    def test_determinism_and_stream_separation(self):
        sc = SyntheticScenario(n=25, sigma_u=1.0, trials=10)
        ps_a, us_a, _ = scene_arrays(sc, 3)
        ps_b, us_b, _ = scene_arrays(sc, 3)
        np.testing.assert_array_equal(ps_a, ps_b)
        np.testing.assert_array_equal(us_a, us_b)
        ps_c, _, _ = scene_arrays(sc, 4)
        assert not np.array_equal(ps_a, ps_c)
        sc2 = SyntheticScenario(n=25, sigma_u=1.0, trials=10, seed=1)
        ps_d, _, _ = scene_arrays(sc2, 3)
        assert not np.array_equal(ps_a, ps_d)

    def test_noise_statistics_and_truncation(self):
        sigma = 2.5
        sc = SyntheticScenario(n=400, sigma_u=sigma, trials=40)
        Km = intrinsic_matrix(DEFAULT_INTRINSICS)
        residuals = []
        for trial in range(sc.trials):
            ps, us, truth = scene_arrays(sc, trial)
            residuals.append(us - oracle_project(Km, truth.R, truth.r, ps))
        noise = np.concatenate(residuals).ravel()
        assert abs(noise.mean()) < 0.02 * sigma
        assert abs(noise.std() / sigma - 1.0) < 0.02
        assert np.abs(noise).max() <= 6.0 * sigma + 1e-9

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            SyntheticScenario(n=0)
        for sigma_u in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="sigma_u must be finite and >= 0"):
                SyntheticScenario(sigma_u=sigma_u)
        with pytest.raises(ValueError):
            SyntheticScenario(trials=0)
        with pytest.raises(ValueError):
            SyntheticScenario(box=((0, 0, 4), (0, 2, 8)))
        for field, least in (("n", 1), ("trials", 1), ("seed", 0)):
            for value in (least - 1, 6.5, "6"):
                with pytest.raises(ValueError, match=f"{field} must be an integer >= {least}"):
                    SyntheticScenario(**{field: value})
            assert getattr(SyntheticScenario(**{field: np.int64(6)}), field) == 6


class TestMetrics:
    def test_exact_pose_scores_zero_error_and_pure_noise_reproj(self):
        sc = SyntheticScenario(n=60, sigma_u=1.5, trials=1)
        (ps, us), truth = generate_scene(sc, 0)
        Km = intrinsic_matrix(DEFAULT_INTRINSICS)

        class Res:
            pose = truth

        m = compute_metrics(Res(), truth, (ps, us), DEFAULT_INTRINSICS, runtime=0.125)
        assert m.rot_err_deg < 1e-12
        assert m.pos_err == 0.0
        expected = np.mean(np.linalg.norm(us - oracle_project(Km, truth.R, truth.r, ps), axis=1))
        np.testing.assert_allclose(m.mean_reproj_err, expected, rtol=1e-12)
        assert m.runtime == 0.125

    def test_position_error_is_euclidean_distance(self):
        sc = SyntheticScenario(n=20, sigma_u=0.0, trials=1)
        arrays, truth = generate_scene(sc, 0)

        class Res:
            pose = Pose(R=np.eye(3), r=np.array([0.3, 0.0, 0.4]))

        m = compute_metrics(Res(), truth, arrays, DEFAULT_INTRINSICS)
        np.testing.assert_allclose(m.pos_err, 0.5, rtol=1e-12)
        assert np.isnan(m.runtime)


class TestMonteCarlo:
    def test_aggregation_matches_manual_loop(self):
        sc = SyntheticScenario(n=20, sigma_u=1.0, trials=6)
        summary = run_monte_carlo(sc, ["ndlt"], timing_reps=0)
        agg = summary[0]
        rots, reprojs = [], []
        for trial in range(sc.trials):
            arrays, truth = generate_scene(sc, trial)
            result = solve(arrays, sc.intrinsics, SolverConfig(method="ndlt"))
            m = compute_metrics(result, truth, arrays, sc.intrinsics)
            rots.append(m.rot_err_deg)
            reprojs.append(m.mean_reproj_err)
        assert agg["method"] == "ndlt"
        assert agg["trials"] == sc.trials
        assert agg["failures"] == 0
        np.testing.assert_allclose(agg["rot_rmse_deg"], np.sqrt(np.mean(np.square(rots))), rtol=1e-12)
        np.testing.assert_allclose(agg["mean_reproj_px"], np.mean(reprojs), rtol=1e-12)
        assert np.isnan(agg["mean_runtime_ms"])

    def test_methods_are_paired(self):
        sc = SyntheticScenario(n=30, sigma_u=1.0, trials=8)
        together = run_monte_carlo(sc, ["ndlt", "odlt"], timing_reps=0)
        alone = run_monte_carlo(sc, ["odlt"], timing_reps=0)
        assert together[1]["rot_rmse_deg"] == alone[0]["rot_rmse_deg"]
        assert together[1]["pos_rmse"] == alone[0]["pos_rmse"]
        assert together[1]["mean_reproj_px"] == alone[0]["mean_reproj_px"]

    def test_parallel_equals_serial(self):
        sc = SyntheticScenario(n=25, sigma_u=1.0, trials=7)
        serial = run_monte_carlo(sc, ["ndlt", "odlt"], timing_reps=0, workers=1)
        parallel = run_monte_carlo(sc, ["ndlt", "odlt"], timing_reps=0, workers=2)
        for a, b in zip(serial, parallel):
            for key in ("method", "trials", "failures", "rot_rmse_deg", "pos_rmse", "mean_reproj_px"):
                assert a[key] == b[key], key

    def test_timing_collection_forces_serial_and_populates_runtime(self):
        sc = SyntheticScenario(n=15, sigma_u=0.5, trials=3)
        summary = run_monte_carlo(sc, ["ndlt"], timing_reps=2, workers=4)
        assert np.isfinite(summary[0]["mean_runtime_ms"])
        assert summary[0]["mean_runtime_ms"] > 0.0

    def test_refined_reprojection_sits_at_the_noise_floor(self):
        # The mean 2D noise magnitude is sigma*sqrt(pi/2) ~ 1.2533; a
        # converged refinement absorbs ~6 of the 2n dof, slightly below that.
        sc = SyntheticScenario(n=50, sigma_u=1.0, trials=100)
        summary = run_monte_carlo(sc, ["ndlt_gn"], timing_reps=0)
        assert 1.15 < summary[0]["mean_reproj_px"] < 1.28

    def test_failures_counted_not_averaged(self):
        sc = SyntheticScenario(n=5, sigma_u=1.0, trials=4)  # below the 6-point minimum
        summary = run_monte_carlo(sc, ["ndlt"], timing_reps=0)
        assert summary[0]["failures"] == 4
        assert np.isnan(summary[0]["rot_rmse_deg"])
        assert np.isnan(summary[0]["mean_reproj_px"])


class TestIntrinsicsExperiment:
    def test_zero_noise_recovers_calibration(self):
        sc = SyntheticScenario(n=30, sigma_u=0.0, trials=3)
        out = intrinsics_rmse_experiment(sc)
        for method in ("ndlt", "odlt"):
            for key in ("fx", "fy", "cx", "cy"):
                assert out[method][key] < 1e-6, (method, key)

    def test_weighting_helps_recover_intrinsics(self):
        sc = SyntheticScenario(n=50, sigma_u=1.0, trials=150)
        out = intrinsics_rmse_experiment(sc)
        total_ndlt = sum(out["ndlt"][k] for k in ("fx", "fy", "cx", "cy"))
        total_odlt = sum(out["odlt"][k] for k in ("fx", "fy", "cx", "cy"))
        assert total_odlt < total_ndlt
