import warnings

import numpy as np
import pytest

from odlt.dlt import _LR_MIN_POINTS, _T12, DltSolution, _assemble_arrays, _r_factor, _system_rows
from odlt.errors import DegeneratePoints
from odlt.evaluation import (
    CENTERED_BOX,
    DEFAULT_INTRINSICS,
    UNCENTERED_BOX,
    SyntheticScenario,
    generate_scene,
)
from odlt.geometry import Pose, compose_projection, project_points
from odlt.normalization import (
    PixelNormalization,
    PointNormalization,
    denormalize_projection,
    fit_pixel_normalization,
    fit_point_normalization,
    moment_normalization,
)
from odlt.se3 import declamp_denormalize
from odlt.solvers import SolverConfig, solve

from conftest import moment_rows, random_intrinsics_matrix, random_rotation, raw_moments


def test_pixel_fit_recomputed_statistics(rng):
    us = rng.uniform(0, 640, (40, 2))
    norm = fit_pixel_normalization(us)
    out = norm.apply(us)
    np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)
    assert abs(np.sqrt(np.mean(np.sum(out * out, axis=1))) - np.sqrt(2.0)) < 1e-12


def test_point_fit_recomputed_statistics(rng):
    ps = rng.uniform(-3, 3, (25, 3))
    norm = fit_point_normalization(ps)
    out = norm.apply(ps)
    np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)
    assert abs(np.sqrt(np.mean(np.sum(out * out, axis=1))) - np.sqrt(3.0)) < 1e-12


def test_matrix_agrees_with_apply(rng):
    us = rng.uniform(0, 640, (12, 2))
    norm = fit_pixel_normalization(us)
    hom = np.column_stack([us, np.ones(len(us))]) @ norm.T.T
    np.testing.assert_allclose(hom[:, :2] / hom[:, 2:3], norm.apply(us), atol=1e-12)
    assert np.all(hom[:, 2] == 1.0)

    ps = rng.uniform(-4, 4, (12, 3))
    pnorm = fit_point_normalization(ps)
    hom4 = np.column_stack([ps, np.ones(len(ps))]) @ pnorm.T.T
    np.testing.assert_allclose(hom4[:, :3] / hom4[:, 3:4], pnorm.apply(ps), atol=1e-12)


def test_inverse_matrices(rng):
    us = rng.uniform(0, 480, (9, 2))
    norm = fit_pixel_normalization(us)
    np.testing.assert_allclose(norm.T @ norm.T_inv, np.eye(3), atol=1e-12)
    ps = rng.uniform(-1, 5, (9, 3))
    pnorm = fit_point_normalization(ps)
    np.testing.assert_allclose(pnorm.T_inv @ pnorm.T, np.eye(4), atol=1e-12)


def test_none_is_the_identity_normalization(rng):
    # dlt passes None for both normalizations: bit for bit what an explicit
    # identity pair gives, in the recovery and in estimate_projection's map back.
    pix = PixelNormalization(T=np.eye(3), T_inv=np.eye(3), scale=1.0, centroid=np.zeros(2))
    pt = PointNormalization(T=np.eye(4), T_inv=np.eye(4), scale=1.0, centroid=np.zeros(3))
    for _ in range(20):
        Km = random_intrinsics_matrix(rng, skew=True)
        P = rng.standard_normal((3, 4))
        P *= np.sign(np.linalg.det(P[:, :3]))  # det > 0: declamping raises on a mirror
        sol = DltSolution(P=P, singular_values=np.ones(12), V=np.eye(12))
        unnormalized = declamp_denormalize(sol, Km, None, None)
        for got, want in zip(unnormalized, declamp_denormalize(sol, Km, pix, pt)):
            np.testing.assert_array_equal(got, want)
        assert denormalize_projection(P, None, None) is P
        np.testing.assert_array_equal(denormalize_projection(P, pix, pt), P)


def test_refit_of_normalized_data_is_identity_like(rng):
    us = rng.uniform(0, 640, (30, 2))
    once = fit_pixel_normalization(us).apply(us)
    again = fit_pixel_normalization(once)
    assert abs(again.scale - 1.0) < 1e-12
    np.testing.assert_allclose(again.centroid, 0.0, atol=1e-12)


def test_collapsed_input_raises():
    with pytest.raises(DegeneratePoints):
        fit_pixel_normalization(np.full((10, 2), 7.5))
    with pytest.raises(DegeneratePoints):
        fit_point_normalization(np.tile([1.0, 2.0, 3.0], (6, 1)))


def test_denormalize_round_trip(rng):
    # A projection fitted to normalized data must, after denormalization,
    # reproduce the original pixels from the original points.
    Km = random_intrinsics_matrix(rng)
    R = random_rotation(rng)
    r = rng.uniform(-2, 2, 3)
    ps = rng.uniform(-2, 2, (20, 3)) + r + R.T @ np.array([0, 0, 6.0])
    P = compose_projection(Km, Pose(R=R, r=r))
    us = project_points(P, ps)

    un = fit_pixel_normalization(us)
    pn = fit_point_normalization(ps)
    # Build the normalized-space projection explicitly, then undo it.
    P_norm = un.T @ P @ pn.T_inv
    P_back = denormalize_projection(P_norm, un, pn)
    np.testing.assert_allclose(P_back, P, rtol=1e-12)
    # And the normalized projection maps normalized points to normalized pixels.
    np.testing.assert_allclose(
        project_points(P_norm, pn.apply(ps)), un.apply(us), atol=1e-9
    )


# -- normalization from moment sums -------------------------------------------


def direct_fit(xs):
    """Centroid and RMS radius of xs (n, d), two passes over the points."""
    c = xs.mean(axis=0)
    return c, np.sqrt(np.mean(np.sum((xs - c) ** 2, axis=1)))


def scene(box, n, case, seed=0):
    """Points and pixels of one seeded noisy scene: as drawn, with the world
    shifted by 1e5, or with the first point (the moment rows' origin) 1e3 away."""
    sc = SyntheticScenario(box=box, n=n, sigma_u=1.0, trials=1, seed=seed)
    (ps, us), _ = generate_scene(sc, 0)
    ps = ps + 1e5 if case == "shifted" else ps.copy()
    if case == "outlier":
        ps[0] += 1e3
    return ps, us


def normalized_directly(xs):
    """xs (n, d) at zero centroid and RMS radius sqrt(d), in long double arithmetic."""
    x = xs.astype(np.longdouble)
    d = x - x.mean(axis=0)
    return (d * np.sqrt(xs.shape[1] / np.mean(np.sum(d * d, axis=1)))).astype(float)


BOXES = pytest.mark.parametrize("box", [CENTERED_BOX, UNCENTERED_BOX], ids=["centered", "uncentered"])


@BOXES
@pytest.mark.parametrize("case", ["drawn", "shifted", "outlier"])
@pytest.mark.parametrize("n", [6, 12, 50, 255, 256, 2000])
def test_moment_sums_match_a_direct_fit(box, case, n):
    # Centroid and scale from the Gram of the moment rows (and from R^T R,
    # the Gram the unweighted route reads from 256 points up), and from the
    # fit wrappers, against a two-pass centroid and RMS radius. With the first
    # point far from the rest, that point carries most of the RMS radius and
    # the sums lose about n eps of it; at n <= 12 that is still below 1e-14.
    tol = 1e-14 if case != "outlier" or n <= 12 else 4 * n * np.finfo(float).eps
    for seed in range(5):
        ps, us = scene(box, n, case, seed)
        Mt, S, *_ = raw_moments(ps, us)
        R = _r_factor(Mt.T)
        fits = [moment_normalization(S, us[0], ps[0])[:2], moment_normalization(R.T @ R, us[0], ps[0])[:2]]
        fits.append((fit_pixel_normalization(us), fit_point_normalization(ps)))
        for pix, pt in fits:
            for norm, xs in ((pix, us), (pt, ps)):
                c, rms = direct_fit(xs)
                scale = np.sqrt(xs.shape[1]) / rms
                assert abs(norm.scale - scale) <= tol * scale
                assert np.linalg.norm(norm.centroid - c) <= tol * (np.linalg.norm(c) + rms)


@pytest.mark.parametrize("n", [6, 255, 256, 2000])
@pytest.mark.parametrize("weighted", [False, True])
@BOXES
def test_basis_normalizes_the_system(box, n, weighted):
    # m B for the raw moment rows m is the moment row of the normalized point
    # and pixel, and the system _assemble_arrays builds from the raw rows, as
    # _system_rows routes them, and B is the normalized one: A row for row
    # below 256 points, from there up L(R B), whose Gram is A's. The rows are normalized directly in extended
    # precision, so that a world 1e5 from the origin loses no digits there.
    for case in ("drawn", "shifted"):
        ps, us = scene(box, n, case)
        Mt, S, pix, pt, B = raw_moments(ps, us)
        direct = moment_rows(*(normalized_directly(xs) for xs in (ps, us)))
        rows = B.T @ Mt
        assert (np.abs(rows - direct).max(axis=0) <= 1e-13 * np.linalg.norm(direct, axis=0)).all()
        w = np.random.default_rng(n).uniform(0.5, 2.0, n) if weighted else np.ones(n)
        A = _assemble_arrays(_system_rows(Mt * w), B)
        if n < _LR_MIN_POINTS:
            A_direct = _assemble_arrays(direct * w)
            assert (np.abs(A - A_direct) <= 1e-13 * np.linalg.norm(A_direct, axis=1)[:, None]).all()
        else:
            assert A.shape == (24, 12)
            Sw = (direct * w) @ (direct * w).T
            T1, T2 = _T12[:, :12], _T12[:, 12:]
            G = T1.T @ Sw @ T1 + T2.T @ Sw @ T2  # A^T A of the normalized rows
            assert np.abs(A.T @ A - G).max() <= 1e-13 * np.abs(G).max()


@pytest.mark.parametrize("what, index", [("point", 0), ("pixel", 1)])
@pytest.mark.parametrize("method", ["ndlt", "odlt", "odlt_lost", "ndlt_gn"])
@pytest.mark.parametrize("n", [6, 300])
def test_collapsed_sets_raise_without_warnings(what, index, method, n):
    # A set at one location has no scale: solve() names it, and no numpy
    # RuntimeWarning (a square root of a negative or a 0 / 0) fires first.
    ps, us = scene(UNCENTERED_BOX, n, "shifted")
    arrays = [ps, us]
    arrays[index] = np.broadcast_to(arrays[index][3], arrays[index].shape).copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegeneratePoints, match=f"^{what} set collapses to a single location$"):
            solve(tuple(arrays), DEFAULT_INTRINSICS, SolverConfig(method=method))
        fit = (fit_point_normalization, fit_pixel_normalization)[index]
        with pytest.raises(DegeneratePoints, match=f"^{what} set collapses to a single location$"):
            fit(arrays[index])
