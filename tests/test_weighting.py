import numpy as np
import pytest

import odlt.dlt as dlt_module
import odlt.weighting as weighting_module
from odlt.dlt import _assemble_arrays
from odlt.errors import RankDeficient
from odlt.geometry import Correspondence, Pose, compose_projection, project_points
from odlt.normalization import fit_pixel_normalization, fit_point_normalization
from odlt.solvers import FLAG_FALLBACK_USED, SolverConfig, solve
from odlt.weighting import _preliminary_normalized, depths_under, weight_factors
from conftest import (
    WeightContext,
    make_exact_scene,
    oracle_project,
    random_rotation,
    residual_covariance,
)


def as_cs(ps, us):
    return [Correspondence(p=p, u=u) for p, u in zip(ps, us)]


def preliminary(ps, us, seed=0):
    """_preliminary_normalized on data normalized over the full set."""
    pix = fit_pixel_normalization(us)
    pt = fit_point_normalization(ps)
    P0, _, _ = _preliminary_normalized(pt.apply(ps), pix.apply(us), seed)
    return P0


class TestResidualCovariance:
    def test_structure(self, rng):
        Km, R, r, ps, us = make_exact_scene(rng, n=8)
        P0 = compose_projection(Km, Pose(R=R, r=r))
        ctx = WeightContext(P0=P0, sigma_u=1.3)
        for c in as_cs(ps, us):
            S = residual_covariance(ctx, c)
            np.testing.assert_allclose(S, S.T, atol=1e-9 * np.abs(S).max())
            evals = np.linalg.eigvalsh(S)
            assert evals.min() > -1e-9 * evals.max()  # positive semidefinite
            assert evals[0] < 1e-9 * evals.max()  # rank two
            ubar = np.array([c.u[0], c.u[1], 1.0])
            assert np.linalg.norm(S @ ubar) < 1e-9 * np.abs(S).max()

    def test_scaling_in_depth_and_noise(self, rng):
        Km, R, r, ps, us = make_exact_scene(rng, n=6)
        P0 = compose_projection(Km, Pose(R=R, r=r))
        c = as_cs(ps, us)[0]
        base = residual_covariance(WeightContext(P0=P0, sigma_u=1.0), c)
        noisier = residual_covariance(WeightContext(P0=P0, sigma_u=3.0), c)
        np.testing.assert_allclose(noisier, 9.0 * base, rtol=1e-12)
        # Doubling P0 doubles the depth, quadrupling the covariance.
        doubled = residual_covariance(WeightContext(P0=2.0 * P0, sigma_u=1.0), c)
        np.testing.assert_allclose(doubled, 4.0 * base, rtol=1e-12)

    def test_monte_carlo_oracle(self, rng):
        # Empirical covariance of eps = [utilde x] P0 pbar under pixel noise
        # must match the closed form within 2% (1e6 samples).
        Km, R, r, ps, us = make_exact_scene(rng, n=6)
        P0 = compose_projection(Km, Pose(R=R, r=r))
        sigma = 0.8
        c = as_cs(ps, us)[2]
        ctx = WeightContext(P0=P0, sigma_u=sigma)
        predicted = residual_covariance(ctx, c)

        w = P0 @ np.append(c.p, 1.0)
        draws = 1_000_000
        noise = sigma * rng.standard_normal((draws, 2))
        utilde = np.column_stack(
            [c.u[0] + noise[:, 0], c.u[1] + noise[:, 1], np.ones(draws)]
        )
        eps = np.cross(utilde, w)
        empirical = np.cov(eps.T)
        scale = np.abs(predicted).max()
        np.testing.assert_allclose(empirical, predicted, atol=0.02 * scale)


def test_factorization_identity(rng):
    # The whitening block B = q/||ubar||^2 S [ubar x]^2 satisfies
    # B A = -q S A exactly, because [ubar x]^3 = -||ubar||^2 [ubar x].
    Km, R, r, ps, us = make_exact_scene(rng, n=10)
    P0 = compose_projection(Km, Pose(R=R, r=r))
    for c, q in zip(as_cs(ps, us), weight_factors(depths_under(P0, ps), 1.0)):
        ubar = np.array([c.u[0], c.u[1], 1.0])
        Ux = np.array(
            [
                [0.0, -1.0, ubar[1]],
                [1.0, 0.0, -ubar[0]],
                [-ubar[1], ubar[0], 0.0],
            ]
        )
        A = np.kron(np.append(c.p, 1.0), Ux)  # full 3x12 block
        B = (q / (ubar @ ubar)) * (Ux @ Ux)[:2]
        lhs = B @ A
        rhs = -q * A[:2]
        np.testing.assert_allclose(lhs, rhs, atol=1e-10 * np.abs(rhs).max())


class TestWeightFactors:
    def test_values_and_vectorized(self, rng):
        Km, R, r, ps, us = make_exact_scene(rng, n=9)
        P0 = compose_projection(Km, Pose(R=R, r=r))
        sigma = 2.0
        depths = np.array([P0[2, :3] @ p + P0[2, 3] for p in ps])  # k^T P0 pbar, per point
        np.testing.assert_allclose(depths_under(P0, ps), depths, rtol=1e-15)
        np.testing.assert_allclose(
            weight_factors(depths_under(P0, ps), sigma), 1.0 / (sigma * depths), rtol=1e-15
        )

    def test_context_validation(self):
        with pytest.raises(ValueError):
            WeightContext(P0=np.zeros((3, 4)), sigma_u=0.0)


class TestPreliminary:
    def test_deterministic_and_seed_sensitivity(self, rng):
        # solve() draws the seeded subset only from 2n = _QR_CHUNK_MIN_ROWS up.
        Km, R, r, ps, us = make_exact_scene(rng, n=768)
        us_noisy = us + rng.standard_normal(us.shape)
        P_a = preliminary(ps, us_noisy, seed=5)
        P_b = preliminary(ps, us_noisy, seed=5)
        np.testing.assert_array_equal(P_a, P_b)
        P_c = preliminary(ps, us_noisy, seed=6)
        assert np.abs(P_a - P_c).max() > 1e-12
        R_a, R_c = (solve((ps, us_noisy), Km, SolverConfig(seed=s)).pose.R for s in (5, 6))
        assert np.abs(R_a - R_c).max() > 0

    def test_lives_in_full_set_normalized_frame(self, rng):
        Km, R, r, ps, us = make_exact_scene(rng, n=30)
        P0 = preliminary(ps, us, seed=0)
        pix = fit_pixel_normalization(us)
        pt = fit_point_normalization(ps)
        np.testing.assert_allclose(
            project_points(P0, pt.apply(ps)), pix.apply(us), atol=1e-7
        )

    def test_given_matrix_gives_its_null_vector_and_positive_depths(self, rng):
        # Below the crossover solve() passes the full set's A: no draw, no
        # fallback, P0 in the same frame and signed so the depths sum positive.
        Km, R, r, ps, us = make_exact_scene(rng, n=30)
        psn = fit_point_normalization(ps).apply(ps)
        usn = fit_pixel_normalization(us).apply(us)
        A = _assemble_arrays(psn, usn)
        P0, depths, used_full = _preliminary_normalized(psn, usn, 0, A)
        assert not used_full
        np.testing.assert_allclose(project_points(P0, psn), usn, atol=1e-7)
        np.testing.assert_array_equal(depths, depths_under(P0, psn))
        assert depths.sum() > 0

    def test_small_sets_use_all_points(self, rng):
        # Fewer points than SUBSET_SIZE: solve() passes the full set's A, whose
        # null vector is P0 directly, with no draw and no retry involved.
        Km, R, r, ps, us = make_exact_scene(rng, n=8)
        psn = fit_point_normalization(ps).apply(ps)
        usn = fit_pixel_normalization(us).apply(us)
        P0, _, used_full = _preliminary_normalized(psn, usn, 0, _assemble_arrays(psn, usn))
        assert not used_full
        np.testing.assert_allclose(project_points(P0, psn), usn, atol=1e-7)

    def test_rank_deficient_subset_falls_back_to_full_set(self, rng):
        # 766 points on a plane plus two off it, so solve() draws a subset. A
        # planar-only subset is rank deficient (one extra null direction per
        # unconstrained pixel ray); the two off-plane points together restore
        # a unique null space, so the full-set retry must succeed.
        n = 768
        Km = np.array([[700.0, 0.0, 300.0], [0.0, 700.0, 200.0], [0.0, 0.0, 1.0]])
        R = random_rotation(rng)
        r = np.array([0.2, -0.3, 0.1])
        planar = np.column_stack(
            [rng.uniform(-2, 2, n - 2), rng.uniform(-2, 2, n - 2), np.full(n - 2, 5.0)]
        )
        off = np.array([[0.5, -0.4, 7.0], [-0.8, 0.6, 6.0]])
        cam = np.vstack([planar, off])
        ps = cam @ R + r  # camera-frame coordinates mapped to world
        us = oracle_project(Km, R, r, ps)
        pix = fit_pixel_normalization(us)
        pt = fit_point_normalization(ps)
        psn, usn = pt.apply(ps), pix.apply(us)

        hit = None
        for seed in range(2000):
            pick = np.random.default_rng(seed).choice(n, size=12, replace=False)
            if n - 2 not in pick and n - 1 not in pick:
                hit = seed
                break
        assert hit is not None
        P0, _, used_full = _preliminary_normalized(psn, usn, hit)
        assert used_full
        np.testing.assert_allclose(project_points(P0, psn), usn, atol=1e-6)
        assert FLAG_FALLBACK_USED in solve((ps, us), Km, SolverConfig(seed=hit)).flags

    def test_rank_deficient_small_set_is_solved_once(self, rng, monkeypatch):
        # With n <= SUBSET_SIZE the subset already is the full set: its
        # RankDeficient is raised, not followed by a second solve of the same
        # rows. Eight coplanar points leave a multi-dimensional null space.
        Km = np.array([[700.0, 0.0, 300.0], [0.0, 700.0, 200.0], [0.0, 0.0, 1.0]])
        R = random_rotation(rng)
        r = np.array([0.2, -0.3, 0.1])
        cam = np.column_stack([rng.uniform(-2, 2, 8), rng.uniform(-2, 2, 8), np.full(8, 5.0)])
        ps = cam @ R + r
        us = oracle_project(Km, R, r, ps)
        calls = []
        null_space = dlt_module._null_space

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return null_space(*args, **kwargs)

        for module in (dlt_module, weighting_module):
            monkeypatch.setattr(module, "_null_space", counted)
        with pytest.raises(RankDeficient):
            solve((ps, us), Km, SolverConfig(method="odlt"))
        assert calls == [(16, 12)]
