import numpy as np
import pytest

import odlt.dlt as dlt_module
import odlt.solvers as solvers_module
import odlt.weighting as weighting_module
from odlt.dlt import _assemble_arrays, _system_rows, solve_nullspace
from odlt.errors import RankDeficient
from odlt.evaluation import CENTERED_BOX, UNCENTERED_BOX, SyntheticScenario, generate_scene
from odlt.geometry import Correspondence, Pose, compose_projection, project_points
from odlt.normalization import fit_pixel_normalization, fit_point_normalization
from odlt.solvers import SolverConfig, solve
from odlt.weighting import _preliminary_normalized, depths_under
from conftest import (
    WeightContext,
    make_exact_scene,
    moment_rows,
    oracle_project,
    random_rotation,
    raw_moments,
    residual_covariance,
)


def as_cs(ps, us):
    return [Correspondence(p=p, u=u) for p, u in zip(ps, us)]


def preliminary(ps, us):
    """_preliminary_normalized on the full set's raw moment rows, with the
    basis that normalizes them, as solve() calls it."""
    Mt, S, _, _, B = raw_moments(ps, us)
    return _preliminary_normalized(Mt, S, B)


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
    for c, q in zip(as_cs(ps, us), 1.0 / depths_under(P0, ps)):
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
        depths = np.array([P0[2, :3] @ p + P0[2, 3] for p in ps])  # k^T P0 pbar, per point
        np.testing.assert_allclose(depths_under(P0, ps), depths, rtol=1e-15)

    def test_context_validation(self):
        with pytest.raises(ValueError):
            WeightContext(P0=np.zeros((3, 4)), sigma_u=0.0)


class TestPreliminary:
    @pytest.mark.parametrize("n", [6, 12, 50, 255, 256, 2000])
    @pytest.mark.parametrize("box", ["centered", "uncentered"])
    def test_depths_are_the_full_set_null_vectors(self, box, n):
        # At every n, on both sides of the L(R) route (from n = 256), the
        # preliminary is the full set's unweighted null vector, signed as
        # solve_nullspace signs it given the points: no subset, no draw. It
        # comes from the Gram, which squares A's condition number, so it
        # agrees with the QR and SVD route to rounding relative to the gap
        # between A's two smallest singular values. That gap is widest from
        # n = 12 up; at n = 6, A is square and the largest difference over
        # 200 seeds was 4.6e-10 (uncentered).
        box = CENTERED_BOX if box == "centered" else UNCENTERED_BOX
        sc = SyntheticScenario(box=box, n=n, sigma_u=1.0, trials=3, seed=2)
        for trial in range(sc.trials):
            (ps, us), _ = generate_scene(sc, trial)
            psn = fit_point_normalization(ps).apply(ps)
            usn = fit_pixel_normalization(us).apply(us)
            P0, depths = preliminary(ps, us)
            P = solve_nullspace(_assemble_arrays(_system_rows(moment_rows(psn, usn))), points=psn).P
            assert np.linalg.norm(P0 - P) <= (1e-9 if n == 6 else 1e-12), trial
            # Read off the raw point rows through B: the normalized points' depths.
            scale = np.abs(depths).max()
            np.testing.assert_allclose(depths, depths_under(P0, psn), rtol=0, atol=1e-13 * scale)
            assert depths.sum() > 0

    @pytest.mark.parametrize("n", [6, 50, 255, 256, 2000])
    def test_row_map_gram_is_the_constraint_gram(self, rng, n):
        # T1^T S T1 + T2^T S T2 for the Gram S of the moment rows is A^T A for
        # the A that _assemble_arrays builds from _system_rows (L(R) from 256 up, which
        # has the same Gram), so the row map has one source: dlt's.
        ps, us = rng.standard_normal((n, 3)), rng.standard_normal((n, 2))
        Mt = moment_rows(ps, us)
        A = _assemble_arrays(_system_rows(Mt))
        S = Mt @ Mt.T
        T1, T2 = dlt_module._T12[:, :12], dlt_module._T12[:, 12:]
        G = T1.T @ S @ T1 + T2.T @ S @ T2
        np.testing.assert_allclose(G, A.T @ A, rtol=0, atol=1e-14 * np.abs(G).max())

    def test_lives_in_full_set_normalized_frame(self, rng):
        Km, R, r, ps, us = make_exact_scene(rng, n=30)
        P0, _ = preliminary(ps, us)
        pix = fit_pixel_normalization(us)
        pt = fit_point_normalization(ps)
        np.testing.assert_allclose(
            project_points(P0, pt.apply(ps)), pix.apply(us), atol=1e-7
        )

    def test_small_sets_use_all_points(self, rng):
        # Eight points, fewer than the twelve unknowns: the preliminary is the
        # full set's null vector, exact on exact data.
        Km, R, r, ps, us = make_exact_scene(rng, n=8)
        psn = fit_point_normalization(ps).apply(ps)
        usn = fit_pixel_normalization(us).apply(us)
        P0, depths = preliminary(ps, us)
        np.testing.assert_allclose(project_points(P0, psn), usn, atol=1e-7)
        # Read off the raw point rows through B: the normalized points' depths.
        scale = np.abs(depths).max()
        np.testing.assert_allclose(depths, depths_under(P0, psn), rtol=0, atol=1e-13 * scale)
        assert depths.sum() > 0

    def test_rank_deficient_small_set_is_solved_once(self, rng, monkeypatch):
        # Eight coplanar points leave a multi-dimensional null space. The
        # preliminary's Gram has no rank test; its null vector still puts
        # every point of the plane in front, so the final null space alone
        # raises RankDeficient, on its one call.
        Km = np.array([[700.0, 0.0, 300.0], [0.0, 700.0, 200.0], [0.0, 0.0, 1.0]])
        R = random_rotation(rng)
        r = np.array([0.2, -0.3, 0.1])
        cam = np.column_stack([rng.uniform(-2, 2, 8), rng.uniform(-2, 2, 8), np.full(8, 5.0)])
        ps = cam @ R + r
        us = oracle_project(Km, R, r, ps)
        calls = []
        null_space = solvers_module.solve_nullspace

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return null_space(*args, **kwargs)

        monkeypatch.setattr(solvers_module, "solve_nullspace", counted)
        with pytest.raises(RankDeficient, match="null space not unique"):
            solve((ps, us), Km, SolverConfig(method="odlt"))
        assert calls == [(16, 12)]
        assert not hasattr(weighting_module, "solve_nullspace")
