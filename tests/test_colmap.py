from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from odlt.colmap import (
    ColmapModel,
    build_problems,
    parse_model,
    write_model,
)
from odlt.errors import (
    ColmapParseError,
    MalformedLine,
    MissingFile,
    MissingPoint3D,
    NonFiniteInput,
    UnsupportedCameraModel,
)
from odlt.geometry import correspondence_arrays, rotation_angle_deg
from odlt.solvers import SolverConfig, solve

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "colmap_golden"
SOLVABLE = FIXTURES / "colmap_solvable"


def write_tree(root, files):
    for name, text in files.items():
        (root / name).write_text(text)
    return root


def minimal_files(**overrides):
    files = {
        "cameras.txt": "1 PINHOLE 640 480 800.0 800.0 320.0 240.0\n",
        "images.txt": "1 1.0 0.0 0.0 0.0 0.0 0.0 2.0 1 a.png\n1.0 2.0 -1\n",
        "points3D.txt": "5 0.0 0.0 4.0 0 0 0 0.0\n",
    }
    files.update(overrides)
    return files


def assert_models_equal(a: ColmapModel, b: ColmapModel):
    assert sorted(a.cameras) == sorted(b.cameras)
    for cid, ca in a.cameras.items():
        cb = b.cameras[cid]
        assert (ca.model, ca.width, ca.height) == (cb.model, cb.width, cb.height)
        assert ca.intrinsics == cb.intrinsics
    assert sorted(a.images) == sorted(b.images)
    for iid, ia in a.images.items():
        ib = b.images[iid]
        assert (ia.name, ia.camera_id) == (ib.name, ib.camera_id)
        np.testing.assert_array_equal(ia.qvec, ib.qvec)
        np.testing.assert_array_equal(ia.tvec, ib.tvec)
        np.testing.assert_array_equal(ia.xys, ib.xys)
        np.testing.assert_array_equal(ia.point3d_ids, ib.point3d_ids)
    assert sorted(a.points3d) == sorted(b.points3d)
    for pid, pa in a.points3d.items():
        pb = b.points3d[pid]
        np.testing.assert_array_equal(pa.xyz, pb.xyz)
        np.testing.assert_array_equal(pa.rgb, pb.rgb)
        assert pa.error == pb.error
        np.testing.assert_array_equal(pa.track, pb.track)


class TestGoldenParse:
    def test_cameras(self):
        model = parse_model(GOLDEN)
        assert sorted(model.cameras) == [1, 2]
        cam1 = model.cameras[1]
        assert cam1.model == "PINHOLE"
        assert (cam1.width, cam1.height) == (640, 480)
        assert (cam1.intrinsics.fx, cam1.intrinsics.fy) == (800.5, 810.25)
        assert (cam1.intrinsics.cx, cam1.intrinsics.cy) == (320.0, 240.0)
        cam2 = model.cameras[2]
        assert cam2.model == "SIMPLE_PINHOLE"
        assert cam2.intrinsics.fx == cam2.intrinsics.fy == 900.125
        assert (cam2.intrinsics.cx, cam2.intrinsics.cy) == (512.0, 384.0)

    def test_images(self):
        model = parse_model(GOLDEN)
        img1 = model.images[1]
        assert img1.name == "frame_000.png"
        assert img1.camera_id == 1
        np.testing.assert_array_equal(img1.qvec, [1.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(img1.tvec, [0.125, -0.25, 2.5])
        np.testing.assert_array_equal(img1.xys, [[10.5, 20.25], [100.0, 200.0]])
        np.testing.assert_array_equal(img1.point3d_ids, [7, -1])
        img2 = model.images[2]
        assert img2.name == "frame 001.png"  # spaces in names survive
        np.testing.assert_array_equal(img2.xys, [[300.5, 120.125]])
        np.testing.assert_array_equal(img2.point3d_ids, [9])

    def test_points(self):
        model = parse_model(GOLDEN)
        assert sorted(model.points3d) == [7, 9, 11]
        p7 = model.points3d[7]
        np.testing.assert_array_equal(p7.xyz, [1.5, -2.25, 4.0])
        np.testing.assert_array_equal(p7.rgb, [255, 128, 0])
        assert p7.error == 0.75
        np.testing.assert_array_equal(p7.track, [[1, 0], [2, 0]])
        assert model.points3d[11].track.shape == (0, 2)

    def test_stored_pose_is_world_to_camera(self):
        model = parse_model(GOLDEN)
        pose1 = model.images[1].pose
        np.testing.assert_allclose(pose1.R, np.eye(3), atol=1e-15)
        np.testing.assert_allclose(pose1.r, [-0.125, 0.25, -2.5], atol=1e-15)
        pose2 = model.images[2].pose
        np.testing.assert_allclose(
            pose2.R, [[0, 0, 1], [1, 0, 0], [0, 1, 0]], atol=1e-15
        )
        np.testing.assert_allclose(pose2.r, [0.0, -3.0, 0.0], atol=1e-15)


class TestRoundTrip:
    def test_parse_write_parse_is_identity(self, tmp_path):
        model = parse_model(GOLDEN)
        write_model(model, tmp_path / "copy")
        again = parse_model(tmp_path / "copy")
        assert_models_equal(model, again)

    def test_serialization_is_stable(self, tmp_path):
        model = parse_model(GOLDEN)
        write_model(model, tmp_path / "one")
        write_model(parse_model(tmp_path / "one"), tmp_path / "two")
        for name in ("cameras.txt", "images.txt", "points3D.txt"):
            a = (tmp_path / "one" / name).read_bytes()
            b = (tmp_path / "two" / name).read_bytes()
            assert a == b, name

    def test_solvable_fixture_round_trips(self, tmp_path):
        model = parse_model(SOLVABLE)
        write_model(model, tmp_path / "copy")
        assert_models_equal(model, parse_model(tmp_path / "copy"))

    @pytest.mark.parametrize("which", [min, max], ids=["first", "last"])
    def test_image_without_observations_round_trips(self, tmp_path, which):
        # write_model, like COLMAP, leaves such an image's observation line empty.
        model = parse_model(GOLDEN)
        image_id = which(model.images)
        model.images[image_id] = replace(
            model.images[image_id],
            xys=np.empty((0, 2)),
            point3d_ids=np.empty(0, dtype=np.int64),
        )
        write_model(model, tmp_path)
        again = parse_model(tmp_path)
        assert_models_equal(model, again)
        assert again.images[image_id].xys.shape == (0, 2)


class TestParseErrors:
    def test_missing_file(self, tmp_path):
        files = minimal_files()
        del files["points3D.txt"]
        write_tree(tmp_path, files)
        with pytest.raises(MissingFile, match="points3D.txt"):
            parse_model(tmp_path)

    def test_unsupported_camera_model(self, tmp_path):
        write_tree(
            tmp_path,
            minimal_files(**{"cameras.txt": "1 RADIAL 640 480 1.0 2.0 3.0 4.0 5.0\n"}),
        )
        with pytest.raises(UnsupportedCameraModel, match="RADIAL"):
            parse_model(tmp_path)

    def test_camera_field_count_and_line_number(self, tmp_path):
        bad = "# comment\n\n# more\n1 PINHOLE 640 480\n"
        write_tree(tmp_path, minimal_files(**{"cameras.txt": bad}))
        with pytest.raises(MalformedLine) as exc:
            parse_model(tmp_path)
        assert exc.value.line_number == 4
        assert "cameras.txt" in str(exc.value)

    def test_camera_bad_integer(self, tmp_path):
        write_tree(
            tmp_path,
            minimal_files(**{"cameras.txt": "1 PINHOLE wide 480 800.0 800.0 320.0 240.0\n"}),
        )
        with pytest.raises(MalformedLine, match="integer"):
            parse_model(tmp_path)

    def test_camera_wrong_param_count(self, tmp_path):
        write_tree(
            tmp_path,
            minimal_files(**{"cameras.txt": "1 PINHOLE 640 480 800.0 800.0 320.0\n"}),
        )
        with pytest.raises(MalformedLine, match="4 params"):
            parse_model(tmp_path)

    def test_image_pose_line_too_short(self, tmp_path):
        write_tree(
            tmp_path,
            minimal_files(**{"images.txt": "1 1.0 0.0 0.0 0.0 0.0 0.0 1\n1.0 2.0 -1\n"}),
        )
        with pytest.raises(MalformedLine, match="pose line"):
            parse_model(tmp_path)

    def test_image_quaternion_norm_checked(self, tmp_path):
        write_tree(
            tmp_path,
            minimal_files(**{"images.txt": "1 2.0 0.0 0.0 0.0 0.0 0.0 2.0 1 a.png\n1.0 2.0 -1\n"}),
        )
        with pytest.raises(MalformedLine, match="quaternion norm"):
            parse_model(tmp_path)

    def test_observation_line_not_triples(self, tmp_path):
        bad = "1 1.0 0.0 0.0 0.0 0.0 0.0 2.0 1 a.png\n1.0 2.0 -1 9.0\n"
        write_tree(tmp_path, minimal_files(**{"images.txt": bad}))
        with pytest.raises(MalformedLine) as exc:
            parse_model(tmp_path)
        assert exc.value.line_number == 2
        assert "multiple of 3" in str(exc.value)

    def test_dangling_pose_line(self, tmp_path):
        write_tree(
            tmp_path,
            minimal_files(**{"images.txt": "1 1.0 0.0 0.0 0.0 0.0 0.0 2.0 1 a.png\n"}),
        )
        with pytest.raises(MalformedLine, match="without an observation line"):
            parse_model(tmp_path)

    def test_point_line_field_count(self, tmp_path):
        write_tree(tmp_path, minimal_files(**{"points3D.txt": "5 0.0 0.0 4.0 0 0 0 0.0 1\n"}))
        with pytest.raises(MalformedLine, match="8 \\+ 2k"):
            parse_model(tmp_path)

    def test_observation_non_numeric_x(self, tmp_path):
        bad = "# header\n1 1.0 0.0 0.0 0.0 0.0 0.0 2.0 1 a.png\n1.0 2.0 5 x3.0 4.0 5\n"
        write_tree(tmp_path, minimal_files(**{"images.txt": bad}))
        with pytest.raises(MalformedLine, match="non-numeric observation") as exc:
            parse_model(tmp_path)
        assert exc.value.line_number == 3
        assert "images.txt" in str(exc.value)

    def test_observation_bad_point_id(self, tmp_path):
        bad = "# header\n1 1.0 0.0 0.0 0.0 0.0 0.0 2.0 1 a.png\n1.0 2.0 5 3.0 4.0 5.5\n"
        write_tree(tmp_path, minimal_files(**{"images.txt": bad}))
        with pytest.raises(MalformedLine, match="bad point3d id") as exc:
            parse_model(tmp_path)
        assert exc.value.line_number == 3

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_observation_non_finite(self, tmp_path, bad):
        text = f"# header\n1 1.0 0.0 0.0 0.0 0.0 0.0 2.0 1 a.png\n1.0 2.0 5 3.0 {bad} 5\n"
        write_tree(tmp_path, minimal_files(**{"images.txt": text}))
        with pytest.raises(MalformedLine, match="non-finite observation") as exc:
            parse_model(tmp_path)
        assert exc.value.line_number == 3

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_point_coordinates_non_finite(self, tmp_path, bad):
        text = f"5 0.0 0.0 4.0 0 0 0 0.0\n6 {bad} 0.0 4.0 0 0 0 0.0\n"
        write_tree(tmp_path, minimal_files(**{"points3D.txt": text}))
        with pytest.raises(MalformedLine, match="non-finite coordinates") as exc:
            parse_model(tmp_path)
        assert exc.value.line_number == 2
        assert "points3D.txt" in str(exc.value)

    @pytest.mark.parametrize("pose", ["nan 0.0 0.0 0.0 0.0 0.0 2.0", "1.0 0.0 0.0 0.0 0.0 inf 2.0"])
    def test_image_pose_non_finite(self, tmp_path, pose):
        text = f"1 {pose} 1 a.png\n1.0 2.0 -1\n"
        write_tree(tmp_path, minimal_files(**{"images.txt": text}))
        with pytest.raises(MalformedLine, match="non-finite pose") as exc:
            parse_model(tmp_path)
        assert exc.value.line_number == 1

    @pytest.mark.parametrize(
        "params, message",
        [
            pytest.param(
                "nan 800.0 320.0 240.0", "non-finite camera parameters", id="nan 800.0 320.0 240.0"
            ),
            pytest.param(
                "-800.0 800.0 320.0 240.0", "bad camera parameters", id="-800.0 800.0 320.0 240.0"
            ),
        ],
    )
    def test_camera_bad_parameters(self, tmp_path, params, message):
        text = f"1 PINHOLE 640 480 {params}\n"
        write_tree(tmp_path, minimal_files(**{"cameras.txt": text}))
        with pytest.raises(MalformedLine, match=message) as exc:
            parse_model(tmp_path)
        assert exc.value.line_number == 1

    def test_non_finite_pixel_in_solvable_fixture(self, tmp_path):
        for name in ("cameras.txt", "points3D.txt"):
            (tmp_path / name).write_text((SOLVABLE / name).read_text())
        lines = (SOLVABLE / "images.txt").read_text().splitlines(keepends=True)
        assert lines[3].startswith("1 ")  # image 1's pose line; its observations follow
        fields = lines[4].split()
        fields[0] = "nan"
        lines[4] = " ".join(fields) + "\n"
        (tmp_path / "images.txt").write_text("".join(lines))
        with pytest.raises(MalformedLine, match="non-finite observation") as exc:
            parse_model(tmp_path)
        assert exc.value.line_number == 5

    def test_unknown_camera_reference(self, tmp_path):
        write_tree(
            tmp_path,
            minimal_files(**{"images.txt": "1 1.0 0.0 0.0 0.0 0.0 0.0 2.0 9 a.png\n1.0 2.0 -1\n"}),
        )
        with pytest.raises(MalformedLine, match="image 1 references unknown camera 9") as exc:
            parse_model(tmp_path)
        assert exc.value.line_number == 1  # the pose line

    @pytest.mark.parametrize(
        "name, text, line_number, message",
        [
            (
                "cameras.txt",
                "1 PINHOLE 640 480 800.0 800.0 320.0 240.0\n"
                "1 SIMPLE_PINHOLE 640 480 900.0 320.0 240.0\n",
                2,
                "duplicate camera id 1",
            ),
            (
                "images.txt",
                "1 1.0 0.0 0.0 0.0 0.0 0.0 2.0 1 a.png\n1.0 2.0 -1\n"
                "# second image\n1 1.0 0.0 0.0 0.0 0.0 0.0 3.0 1 b.png\n3.0 4.0 5\n",
                4,
                "duplicate image id 1",
            ),
            (
                "points3D.txt",
                "5 0.0 0.0 4.0 0 0 0 0.0\n6 1.0 0.0 4.0 0 0 0 0.0\n5 0.0 1.0 4.0 0 0 0 0.0\n",
                3,
                "duplicate point3d id 5",
            ),
        ],
        ids=["cameras.txt", "images.txt", "points3D.txt"],
    )
    def test_duplicate_id_is_rejected_at_its_line(self, tmp_path, name, text, line_number, message):
        write_tree(tmp_path, minimal_files(**{name: text}))
        with pytest.raises(MalformedLine, match=message) as exc:
            parse_model(tmp_path)
        assert exc.value.line_number == line_number
        assert name in str(exc.value)

    def test_point_id_beyond_int64_is_a_bad_point3d_id(self, tmp_path):
        text = "1 1.0 0.0 0.0 0.0 0.0 0.0 2.0 1 a.png\n1.0 2.0 99999999999999999999\n"
        write_tree(tmp_path, minimal_files(**{"images.txt": text}))
        with pytest.raises(MalformedLine, match="bad point3d id") as exc:
            parse_model(tmp_path)
        assert exc.value.line_number == 2

    def test_point_reprojection_error_non_finite(self, tmp_path):
        text = "5 0.0 0.0 4.0 0 0 0 nan\n"
        write_tree(tmp_path, minimal_files(**{"points3D.txt": text}))
        with pytest.raises(MalformedLine, match="non-finite reprojection error") as exc:
            parse_model(tmp_path)
        assert exc.value.line_number == 1


def single_line_edits(line):
    """(kind, edited line): the line blanked, truncated to 1..k-1 of its k
    fields, and each field in turn replaced with 'x'."""
    fields = line.split()
    yield "blank", ""
    for keep in range(1, len(fields)):
        yield "truncate", " ".join(fields[:keep])
    for i in range(len(fields)):
        yield "replace", " ".join(fields[:i] + ["x"] + fields[i + 1 :])


class TestSingleLineEdits:
    @pytest.mark.parametrize("fixture", [GOLDEN, SOLVABLE], ids=lambda p: p.name)
    @pytest.mark.parametrize("name", ["cameras.txt", "images.txt", "points3D.txt"])
    def test_every_edit_parses_or_names_its_line(self, tmp_path, fixture, name):
        # Every model either parses or raises a ColmapParseError. A truncated or
        # garbled line is named by its own file and line (or is an unsupported
        # camera model), a blanked observation line is an image without
        # observations, and a blanked pose line is a missing pose line.
        for other in ("cameras.txt", "images.txt", "points3D.txt"):
            (tmp_path / other).write_bytes((fixture / other).read_bytes())
        lines = (fixture / name).read_text().splitlines()
        data = [i for i, line in enumerate(lines) if line.strip() and not line.startswith("#")]
        observation_of = {}
        if name == "images.txt":
            pairs = zip(data[::2], data[1::2])
            observation_of = {obs: int(lines[pose].split()[0]) for pose, obs in pairs}
        for i in data:
            for kind, edited in single_line_edits(lines[i]):
                text = "\n".join(lines[:i] + [edited] + lines[i + 1 :]) + "\n"
                (tmp_path / name).write_text(text)
                where = f"{name}:{i + 1} {kind} -> {edited!r}"
                try:
                    outcome = parse_model(tmp_path)
                except ColmapParseError as exc:
                    outcome = exc
                if kind == "blank" and i in observation_of:
                    assert isinstance(outcome, ColmapModel), where
                    image = outcome.images[observation_of[i]]
                    assert image.xys.shape == (0, 2) and image.point3d_ids.shape == (0,), where
                elif kind == "blank" and name == "images.txt":
                    assert isinstance(outcome, MalformedLine), where
                    assert (Path(outcome.path).name, outcome.line_number) == (name, i + 1), where
                    assert "missing image pose line" in str(outcome), where
                elif kind != "blank" and isinstance(outcome, MalformedLine):
                    assert (Path(outcome.path).name, outcome.line_number) == (name, i + 1), where
                elif kind != "blank":
                    assert isinstance(outcome, (ColmapModel, UnsupportedCameraModel)), where


class TestBuildProblems:
    def test_golden_images_are_too_small(self):
        problems, skipped = build_problems(parse_model(GOLDEN))
        assert problems == []
        assert skipped == 2

    def test_solvable_fixture_yields_problems(self):
        model = parse_model(SOLVABLE)
        problems, skipped = build_problems(model)
        assert skipped == 0
        assert [p.image_id for p in problems] == [1, 2]
        # image 1 stores 25 observations, one of them the -1 sentinel
        assert model.images[1].point3d_ids.shape == (25,)
        assert len(problems[0].correspondences) == 24
        assert len(problems[1].correspondences) == 24
        assert problems[0].intrinsics.fx == 800.0
        assert problems[1].intrinsics.fx == problems[1].intrinsics.fy == 750.0

    def test_min_points_threshold(self):
        model = parse_model(SOLVABLE)
        problems, skipped = build_problems(model, min_points=25)
        assert problems == []
        assert skipped == 2

    def test_missing_point_reference_raises(self, tmp_path):
        files = minimal_files(
            **{
                "images.txt": (
                    "1 1.0 0.0 0.0 0.0 0.0 0.0 2.0 1 a.png\n"
                    "1.0 2.0 5 3.0 4.0 77\n"
                )
            }
        )
        write_tree(tmp_path, files)
        model = parse_model(tmp_path)
        with pytest.raises(MissingPoint3D, match="image 1 references missing 3D point 77"):
            build_problems(model, min_points=1)


    def test_first_missing_point_in_observation_order_is_named(self, tmp_path):
        files = minimal_files(
            **{
                "images.txt": (
                    "1 1.0 0.0 0.0 0.0 0.0 0.0 2.0 1 a.png\n"
                    "1.0 2.0 5 3.0 4.0 88 5.0 6.0 -1 7.0 8.0 77\n"
                )
            }
        )
        write_tree(tmp_path, files)
        model = parse_model(tmp_path)
        with pytest.raises(MissingPoint3D, match="image 1 references missing 3D point 88"):
            build_problems(model, min_points=1)

    def test_missing_point_in_a_model_without_points(self, tmp_path):
        files = minimal_files(
            **{
                "images.txt": "1 1.0 0.0 0.0 0.0 0.0 0.0 2.0 1 a.png\n1.0 2.0 5\n",
                "points3D.txt": "",
            }
        )
        write_tree(tmp_path, files)
        with pytest.raises(MissingPoint3D, match="missing 3D point 5"):
            build_problems(parse_model(tmp_path), min_points=1)

    def test_correspondences_follow_observation_order(self):
        model = parse_model(SOLVABLE)
        problems, _ = build_problems(model)
        for prob in problems:
            img = model.images[prob.image_id]
            usable = img.point3d_ids >= 0
            ps = np.array([c.p for c in prob.correspondences])
            us = np.array([c.u for c in prob.correspondences])
            expected = np.array([model.points3d[int(pid)].xyz for pid in img.point3d_ids[usable]])
            np.testing.assert_array_equal(ps, expected)
            np.testing.assert_array_equal(us, img.xys[usable])

    @pytest.mark.parametrize("fixture", [GOLDEN, SOLVABLE])
    def test_problems_carry_array_pairs(self, fixture):
        problems, _ = build_problems(parse_model(fixture), min_points=1)
        assert problems
        for prob in problems:
            assert prob.ps.dtype == prob.us.dtype == np.float64
            assert prob.ps.flags.c_contiguous and prob.us.flags.c_contiguous
            # The correspondences property splits back to the same bits ...
            ps, us = correspondence_arrays(prob.correspondences)
            assert ps.shape == prob.ps.shape and ps.tobytes() == prob.ps.tobytes()
            assert us.shape == prob.us.shape and us.tobytes() == prob.us.tobytes()
            # ... and the pair itself passes the input check without a copy.
            ps, us = correspondence_arrays((prob.ps, prob.us))
            assert ps is prob.ps and us is prob.us

    def test_non_finite_point_names_the_first_image_that_sees_it(self):
        model = parse_model(SOLVABLE)
        point = model.points3d[104]
        xyz = point.xyz.copy()
        xyz[1] = np.nan
        model = replace(model, points3d={**model.points3d, 104: replace(point, xyz=xyz)})
        with pytest.raises(NonFiniteInput, match="image 1 "):
            build_problems(model)

    def test_non_finite_pixel_names_its_image(self):
        model = parse_model(SOLVABLE)
        image = model.images[2]
        xys = image.xys.copy()
        xys[5, 0] = np.inf
        model = replace(model, images={**model.images, 2: replace(image, xys=xys)})
        with pytest.raises(NonFiniteInput, match="image 2 "):
            build_problems(model)


class TestSolvableRecovery:
    @pytest.mark.parametrize("method", ["ndlt", "odlt", "odlt_lost", "ndlt_gn"])
    def test_exact_pose_recovery(self, method):
        problems, _ = build_problems(parse_model(SOLVABLE))
        for problem in problems:
            result = solve(
                problem.correspondences, problem.intrinsics, SolverConfig(method=method)
            )
            rot = rotation_angle_deg(result.pose.R, problem.truth.R)
            pos = np.linalg.norm(result.pose.r - problem.truth.r)
            assert rot < 1e-6, (problem.name, method, rot)
            assert pos < 1e-8, (problem.name, method, pos)
