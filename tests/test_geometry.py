import numpy as np
import pytest

from odlt.errors import (
    DegenerateInput,
    DepthZero,
    InvalidIntrinsics,
    InvalidShape,
    NonFiniteInput,
    PnpError,
    SingularProjection,
    ZeroQuaternion,
)
from odlt.geometry import (
    CameraIntrinsics,
    Correspondence,
    Pose,
    compose_projection,
    correspondence_arrays,
    cross_matrix,
    decompose_projection,
    intrinsic_matrix,
    nearest_rotation,
    project_points,
    quat_to_rotation,
    rodrigues,
    rotation_angle_deg,
    rotation_to_quat,
)

from conftest import (
    oracle_project,
    random_intrinsics_matrix,
    random_rotation,
)


def quat_mul(a, b):
    """Hamilton product, written out for use as an oracle."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def quat_rotate(q, v):
    """Rotate v by the sandwich product q (0,v) q^-1."""
    q = np.asarray(q, dtype=float) / np.linalg.norm(q)
    qc = q * np.array([1.0, -1.0, -1.0, -1.0])
    return quat_mul(quat_mul(q, np.concatenate([[0.0], v])), qc)[1:]


class TestProjection:
    def test_hand_example(self):
        # fx = fy = 800, principal point (320, 240); the point (1, 2, 4) in
        # front of an identity camera lands at (320 + 800/4, 240 + 1600/4).
        K = CameraIntrinsics(fx=800, fy=800, cx=320, cy=240)
        P = compose_projection(K, Pose(R=np.eye(3), r=np.zeros(3)))
        u = project_points(P, np.array([[1.0, 2.0, 4.0]]))[0]
        np.testing.assert_allclose(u, [520.0, 640.0], rtol=0, atol=1e-12)

    def test_matches_longhand_formula(self, rng):
        for _ in range(20):
            Km = random_intrinsics_matrix(rng, skew=True)
            R = random_rotation(rng)
            r = rng.uniform(-2, 2, 3)
            ps = rng.uniform(-1, 1, (15, 3)) + r + R.T @ np.array([0, 0, 6.0])
            P = compose_projection(Km, Pose(R=R, r=r))
            np.testing.assert_allclose(
                project_points(P, ps), oracle_project(Km, R, r, ps), rtol=1e-10
            )

    def test_single_equals_batch(self, rng):
        Km = random_intrinsics_matrix(rng)
        R = random_rotation(rng)
        r = rng.uniform(-2, 2, 3)
        ps = rng.uniform(-1, 1, (7, 3)) + r + R.T @ np.array([0, 0, 5.0])
        P = compose_projection(Km, Pose(R=R, r=r))
        batch = project_points(P, ps)
        for p, u in zip(ps, batch):
            np.testing.assert_allclose(project_points(P, p[None])[0], u, rtol=1e-12)

    def test_zero_depth_raises(self):
        K = CameraIntrinsics(fx=800, fy=800, cx=320, cy=240)
        P = compose_projection(K, Pose(R=np.eye(3), r=np.zeros(3)))
        with pytest.raises(DepthZero):
            project_points(P, np.array([[1.0, 1.0, 0.0]]))
        with pytest.raises(DepthZero):
            project_points(P, np.array([[1.0, 1.0, 5.0], [1.0, 1.0, 0.0]]))

    def test_depth_sign_convention(self):
        # Depth is the third component of P pbar: positive in front for an
        # identity camera, negative behind.
        K = CameraIntrinsics(fx=800, fy=800, cx=320, cy=240)
        P = compose_projection(K, Pose(R=np.eye(3), r=np.zeros(3)))
        assert (P[2, :3] @ np.array([0, 0, 4.0]) + P[2, 3]) > 0
        assert (P[2, :3] @ np.array([0, 0, -4.0]) + P[2, 3]) < 0


class TestComposeDecompose:
    def test_round_trip_many(self, rng):
        for _ in range(1000):
            Km = random_intrinsics_matrix(rng, skew=bool(rng.integers(2)))
            R = random_rotation(rng)
            r = rng.uniform(-5, 5, 3)
            P = compose_projection(Km, Pose(R=R, r=r))
            scale = rng.uniform(0.1, 10.0) * (-1.0 if rng.integers(2) else 1.0)
            K2, pose2 = decompose_projection(scale * P)
            np.testing.assert_allclose(K2.matrix, Km, rtol=1e-8, atol=1e-8)
            np.testing.assert_allclose(pose2.R, R, rtol=0, atol=1e-9)
            np.testing.assert_allclose(pose2.r, r, rtol=0, atol=1e-7)

    def test_intrinsics_diagonal_positive(self, rng):
        for _ in range(50):
            Km = random_intrinsics_matrix(rng, skew=True)
            P = compose_projection(Km, Pose(R=random_rotation(rng), r=rng.uniform(-2, 2, 3)))
            K2, _ = decompose_projection(-P)
            assert K2.fx > 0 and K2.fy > 0
            assert abs(K2.matrix[2, 2] - 1.0) < 1e-14

    def test_singular_left_block_raises(self):
        P = np.zeros((3, 4))
        P[0, 0] = P[1, 1] = 1.0
        P[2, 2] = 1e-15
        P[:, 3] = (1, 2, 3)
        with pytest.raises(SingularProjection):
            decompose_projection(P)


class TestNearestRotation:
    def test_beats_random_search(self, rng):
        M = rng.standard_normal((3, 3))
        R_star = nearest_rotation(M)
        assert np.abs(R_star.T @ R_star - np.eye(3)).max() < 1e-12
        assert np.linalg.det(R_star) > 0
        best = np.inf
        for _ in range(10000):
            R = random_rotation(rng)
            best = min(best, np.linalg.norm(R - M))
        assert np.linalg.norm(R_star - M) <= best + 1e-12

    def test_recovers_scaled_rotation(self, rng):
        R = random_rotation(rng)
        np.testing.assert_allclose(nearest_rotation(2.5 * R), R, atol=1e-12)
        np.testing.assert_allclose(nearest_rotation(0.03 * R), R, atol=1e-12)

    def test_reflection_input_gives_rotation(self, rng):
        R = random_rotation(rng)
        F = R @ np.diag([1.0, 1.0, -1.0])  # det = -1
        out = nearest_rotation(F)
        assert np.linalg.det(out) > 0
        assert np.abs(out.T @ out - np.eye(3)).max() < 1e-12

    def test_rank_one_raises(self):
        with pytest.raises(DegenerateInput):
            nearest_rotation(np.outer([1.0, 2.0, 3.0], [4.0, 5.0, 6.0]))
        with pytest.raises(DegenerateInput):
            nearest_rotation(np.zeros((3, 3)))


class TestRotationRepresentations:
    def test_quat_to_rotation_sandwich_oracle(self, rng):
        for _ in range(200):
            q = rng.standard_normal(4)
            R = quat_to_rotation(q)
            v = rng.standard_normal(3)
            np.testing.assert_allclose(R @ v, quat_rotate(q, v), atol=1e-12)

    def test_quat_round_trip(self, rng):
        for _ in range(200):
            q = rng.standard_normal(4)
            q /= np.linalg.norm(q)
            if q[0] < 0:
                q = -q
            q2 = rotation_to_quat(quat_to_rotation(q))
            np.testing.assert_allclose(q2, q, atol=1e-9)

    def test_zero_quaternion_raises(self):
        with pytest.raises(ZeroQuaternion):
            quat_to_rotation(np.zeros(4))

    def test_angle_from_quaternion_oracle(self, rng):
        for _ in range(100):
            qa = rng.standard_normal(4)
            qb = rng.standard_normal(4)
            qa /= np.linalg.norm(qa)
            qb /= np.linalg.norm(qb)
            angle = rotation_angle_deg(quat_to_rotation(qa), quat_to_rotation(qb))
            oracle = np.degrees(2.0 * np.arccos(np.clip(abs(qa @ qb), 0.0, 1.0)))
            assert abs(angle - oracle) < 1e-6

    def test_angle_identity_and_half_turn(self, rng):
        R = random_rotation(rng)
        assert rotation_angle_deg(R, R) == 0.0
        flip = R @ np.diag([1.0, -1.0, -1.0])  # 180 deg about the first axis
        assert abs(rotation_angle_deg(flip, R) - 180.0) < 1e-9

    def test_rodrigues_angle_and_axis(self, rng):
        for _ in range(100):
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            theta = rng.uniform(1e-6, np.pi - 1e-6)
            R = rodrigues(theta * axis)
            assert abs(rotation_angle_deg(R, np.eye(3)) - np.degrees(theta)) < 1e-8
            np.testing.assert_allclose(R @ axis, axis, atol=1e-12)

    def test_rodrigues_matches_quaternion(self, rng):
        # exp(theta axis) corresponds to the quaternion (cos t/2, sin t/2 axis).
        for _ in range(100):
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            theta = rng.uniform(0, np.pi)
            q = np.concatenate([[np.cos(theta / 2)], np.sin(theta / 2) * axis])
            np.testing.assert_allclose(rodrigues(theta * axis), quat_to_rotation(q), atol=1e-12)

    def test_rodrigues_small_angle(self):
        R = rodrigues(np.array([1e-14, -2e-14, 5e-15]))
        assert np.abs(R - np.eye(3)).max() < 1e-13
        np.testing.assert_array_equal(rodrigues(np.zeros(3)), np.eye(3))


class TestSmallPieces:
    def test_cross_matrix_matches_cross(self, rng):
        for _ in range(20):
            a = rng.standard_normal(3)
            b = rng.standard_normal(3)
            np.testing.assert_allclose(cross_matrix(a) @ b, np.cross(a, b), atol=1e-15)
            assert np.abs(cross_matrix(a) + cross_matrix(a).T).max() == 0.0

    def test_pose_validation(self, rng):
        with pytest.raises(ValueError):
            Pose(R=np.eye(3) * 1.001, r=np.zeros(3))
        with pytest.raises(ValueError):
            Pose(R=np.diag([1.0, 1.0, -1.0]), r=np.zeros(3))
        R = random_rotation(rng)
        r = rng.uniform(-2, 2, 3)
        pose = Pose(R=R, r=r)
        np.testing.assert_allclose(pose.t, -R @ r, atol=1e-15)

    def test_intrinsics_matrix_round_trip(self):
        intr = CameraIntrinsics(fx=420.0, fy=430.0, cx=12.0, cy=34.0, skew=1.5)
        again = CameraIntrinsics.from_matrix(intr.matrix)
        assert again == intr
        with pytest.raises(ValueError):
            CameraIntrinsics.from_matrix(np.full((3, 3), 1.0))
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=-5.0, fy=400.0, cx=0.0, cy=0.0)

    def test_correspondence_arrays_both_forms(self, rng):
        ps = rng.uniform(-1, 1, (8, 3))
        us = rng.uniform(0, 100, (8, 2))
        cs = [Correspondence(p=p, u=u) for p, u in zip(ps, us)]
        ps1, us1 = correspondence_arrays(cs)
        ps2, us2 = correspondence_arrays((ps, us))
        np.testing.assert_array_equal(correspondence_arrays((ps, us.tolist()))[1], us)
        np.testing.assert_array_equal(ps1, ps)
        np.testing.assert_array_equal(us1, us)
        np.testing.assert_array_equal(ps2, ps)
        np.testing.assert_array_equal(us2, us)
        with pytest.raises(ValueError):
            correspondence_arrays((ps, us[:5]))
        with pytest.raises(ValueError):
            Correspondence(p=np.array([1.0, np.nan, 0.0]), u=np.zeros(2))

    @pytest.mark.parametrize("n", [0, 1, 6, 190, 3000])
    def test_correspondence_list_gives_the_bits_of_stacked_rows(self, rng, n):
        cs = [
            Correspondence(p=p, u=u)
            for p, u in zip(rng.standard_normal((n, 3)), rng.uniform(0, 1000, (n, 2)))
        ]
        ps, us = correspondence_arrays(cs)
        expected_ps = np.array([c.p for c in cs], dtype=float).reshape(-1, 3)
        expected_us = np.array([c.u for c in cs], dtype=float).reshape(-1, 2)
        assert ps.shape == expected_ps.shape == (n, 3) and ps.tobytes() == expected_ps.tobytes()
        assert us.shape == expected_us.shape == (n, 2) and us.tobytes() == expected_us.tobytes()
        assert ps.flags.c_contiguous and us.flags.c_contiguous

    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_correspondence_arrays_reject_non_finite(self, rng, side, bad):
        arrays = [rng.standard_normal((8, 3)), rng.standard_normal((8, 2))]
        arrays[side][5, 1] = bad
        with pytest.raises(NonFiniteInput):
            correspondence_arrays(tuple(arrays))

    @pytest.mark.parametrize(
        "ps_shape, us_shape",
        [
            ((20, 3), (20,)),
            ((20, 3), (20, 2, 1)),
            ((60,), (20, 2)),
            ((20, 2), (20, 2)),
            ((20, 3), (19, 2)),
            ((), (20, 2)),
        ],
    )
    def test_correspondence_arrays_reject_bad_shapes(self, ps_shape, us_shape):
        # These used to escape as IndexError, a numpy broadcast ValueError or
        # an AttributeError from the Correspondence-sequence path.
        pair = (np.ones(ps_shape), np.ones(us_shape))
        with pytest.raises(InvalidShape) as exc:
            correspondence_arrays(pair)
        assert isinstance(exc.value, PnpError) and isinstance(exc.value, ValueError)
        assert str(ps_shape) in str(exc.value) and str(us_shape) in str(exc.value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "field, index", [("p", 0), ("p", 1), ("p", 2), ("u", 0), ("u", 1)]
    )
    def test_correspondence_rejects_non_finite(self, field, index, bad):
        coords = {"p": [1.0, 2.0, 3.0], "u": [4.0, 5.0]}
        coords[field][index] = bad
        with pytest.raises(ValueError, match="finite"):
            Correspondence(p=np.array(coords["p"]), u=np.array(coords["u"]))

    def test_correspondence_coerces_and_reshapes(self):
        c = Correspondence(p=[[1, 2, 3]], u=(4, 5))
        assert c.p.dtype == c.u.dtype == np.float64
        assert c.p.shape == (3,) and c.u.shape == (2,)


class TestIntrinsicMatrix:
    K = np.array([[800.0, 0.5, 320.0], [0.0, 790.0, 240.0], [0.0, 0.0, 1.0]])

    def test_valid_matrix_passes_through(self):
        np.testing.assert_array_equal(intrinsic_matrix(self.K), self.K)
        intr = CameraIntrinsics.from_matrix(self.K)
        np.testing.assert_array_equal(intrinsic_matrix(intr), self.K)

    @pytest.mark.parametrize(
        "entry, value",
        [((1, 0), 5.0), ((2, 0), 1e-3), ((2, 1), -2.0), ((2, 2), 2.0), ((0, 0), np.nan),
         ((1, 2), np.inf)],
    )
    def test_raw_matrix_checked_like_from_matrix(self, entry, value):
        K = self.K.copy()
        K[entry] = value
        with pytest.raises(InvalidIntrinsics):
            intrinsic_matrix(K)
        with pytest.raises(InvalidIntrinsics):
            CameraIntrinsics.from_matrix(K)

    @pytest.mark.parametrize("fx, fy", [(-800.0, 790.0), (800.0, -790.0), (0.0, 790.0)])
    def test_one_focal_rule_for_both_forms(self, fx, fy):
        # A raw K with a negative focal length used to pass and surface as
        # ReflectionDetected after a full solve, and fx = 0 as
        # SingularCalibration; CameraIntrinsics raised a plain ValueError.
        K = self.K.copy()
        K[0, 0], K[1, 1] = fx, fy
        with pytest.raises(InvalidIntrinsics, match="positive"):
            intrinsic_matrix(K)
        with pytest.raises(InvalidIntrinsics, match="positive"):
            CameraIntrinsics.from_matrix(K)
        with pytest.raises(InvalidIntrinsics, match="positive"):
            CameraIntrinsics(fx=fx, fy=fy, cx=320.0, cy=240.0)

    @pytest.mark.parametrize("field", ["fx", "fy", "cx", "cy", "skew"])
    def test_intrinsics_reject_non_finite(self, field):
        values = dict(fx=800.0, fy=790.0, cx=320.0, cy=240.0, skew=0.0)
        values[field] = np.nan
        with pytest.raises(InvalidIntrinsics, match="finite"):
            CameraIntrinsics(**values)

    def test_wrong_shape(self):
        with pytest.raises(InvalidIntrinsics, match="3x3"):
            intrinsic_matrix(np.eye(3, 4))

    def test_error_is_a_pnp_error_and_a_value_error(self):
        assert issubclass(InvalidIntrinsics, PnpError)
        assert issubclass(InvalidIntrinsics, ValueError)
