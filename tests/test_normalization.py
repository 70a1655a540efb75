import numpy as np
import pytest

from odlt.errors import DegeneratePoints
from odlt.geometry import Pose, compose_projection, project_points
from odlt.normalization import (
    PixelNormalization,
    PointNormalization,
    denormalize_projection,
    fit_pixel_normalization,
    fit_point_normalization,
)

from conftest import random_intrinsics_matrix, random_rotation


def test_pixel_fit_recomputed_statistics(rng):
    us = rng.uniform(0, 640, (40, 2))
    norm = fit_pixel_normalization(us)
    out = norm.apply(us)
    np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)
    assert abs(np.linalg.norm(out, axis=1).mean() - np.sqrt(2.0)) < 1e-12


def test_point_fit_recomputed_statistics(rng):
    ps = rng.uniform(-3, 3, (25, 3))
    norm = fit_point_normalization(ps)
    out = norm.apply(ps)
    np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)
    assert abs(np.linalg.norm(out, axis=1).mean() - np.sqrt(3.0)) < 1e-12


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


def test_out_receives_the_normalized_rows(rng):
    # solve() passes its moment rows as out: they must hold exactly what
    # apply gives, transposed, and the fit must not depend on out.
    for fit, xs in (
        (fit_pixel_normalization, rng.uniform(0, 640, (40, 2))),
        (fit_point_normalization, rng.uniform(-3, 3, (25, 3))),
    ):
        out = np.empty(xs.shape[::-1])
        norm = fit(xs, out=out)
        np.testing.assert_array_equal(out, norm.apply(xs).T)
        plain = fit(xs)
        assert plain.scale == norm.scale
        np.testing.assert_array_equal(plain.T, norm.T)


def test_inverse_matrices(rng):
    us = rng.uniform(0, 480, (9, 2))
    norm = fit_pixel_normalization(us)
    np.testing.assert_allclose(norm.T @ norm.T_inv, np.eye(3), atol=1e-12)
    ps = rng.uniform(-1, 5, (9, 3))
    pnorm = fit_point_normalization(ps)
    np.testing.assert_allclose(pnorm.T_inv @ pnorm.T, np.eye(4), atol=1e-12)


def test_identity_constructors():
    un = PixelNormalization.identity()
    pn = PointNormalization.identity()
    us = np.array([[3.0, 4.0], [-1.0, 0.5]])
    ps = np.array([[1.0, 2.0, 3.0]])
    np.testing.assert_array_equal(un.apply(us), us)
    np.testing.assert_array_equal(pn.apply(ps), ps)
    np.testing.assert_array_equal(un.T, np.eye(3))
    np.testing.assert_array_equal(pn.T_inv, np.eye(4))


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
