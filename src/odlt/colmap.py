"""Reader and writer for COLMAP text sparse models.

A model directory holds cameras.txt, images.txt and points3D.txt. Lines
starting with '#' are comments. images.txt carries two lines per image: the
pose line "IMAGE_ID QW QX QY QZ TX TY TZ CAMERA_ID NAME" followed, on the
very next line, by the observation line of "X Y POINT3D_ID" triples
(POINT3D_ID is -1 when the feature has no triangulated point), blank for an
image without observations. The stored rotation and translation are
world-to-camera, so the camera center is r = -R^T t.

Only PINHOLE (fx fy cx cy) and SIMPLE_PINHOLE (f cx cy) cameras are
supported; anything else raises UnsupportedCameraModel.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import MalformedLine, MissingFile, MissingPoint3D, NonFiniteInput, UnsupportedCameraModel
from .geometry import CameraIntrinsics, Correspondence, Pose, quat_to_rotation

SUPPORTED_MODELS = ("PINHOLE", "SIMPLE_PINHOLE")

_QUAT_NORM_TOL = 1e-3


@dataclass(frozen=True)
class ColmapCamera:
    camera_id: int
    model: str
    width: int
    height: int
    intrinsics: CameraIntrinsics


@dataclass(frozen=True)
class ColmapImage:
    image_id: int
    name: str
    camera_id: int
    qvec: np.ndarray  # (4,) w x y z, as stored
    tvec: np.ndarray  # (3,) world-to-camera translation, as stored
    xys: np.ndarray  # (m, 2) observed pixels
    point3d_ids: np.ndarray  # (m,) int, -1 for untriangulated

    @property
    def pose(self) -> Pose:
        R = quat_to_rotation(self.qvec)
        return Pose(R=R, r=-R.T @ self.tvec)


@dataclass(frozen=True)
class ColmapPoint3D:
    point3d_id: int
    xyz: np.ndarray  # (3,)
    rgb: np.ndarray  # (3,) uint8-range ints
    error: float
    track: np.ndarray  # (k, 2) int pairs (image_id, point2d_idx)


@dataclass(frozen=True)
class ColmapModel:
    cameras: dict
    images: dict
    points3d: dict


def _numbered_lines(path, stream):
    """enumerate(stream, start=1); a byte that is not UTF-8 raises MalformedLine on its line."""
    line_number = 0
    try:
        for line_number, line in enumerate(stream, start=1):
            yield line_number, line
    except UnicodeDecodeError as exc:
        # A chunk is decoded once no line end is left before it: it continues the next line.
        ahead = len((exc.object[: exc.start] + b".").splitlines())
        raise MalformedLine(path, line_number + ahead, f"not UTF-8 text ({exc.reason})") from None


def _data_lines(numbered, blanks=None):
    """Yield (line_number, stripped_line) for every (line_number, raw_line)
    pair of _numbered_lines(path, stream) whose line is neither blank nor a '#'
    comment, and appends skipped blank line numbers to blanks when given. Line
    numbers count every physical line from 1, so an error names the file's own
    line. A caller may take the physical line after a yielded one with next()."""
    for line_number, raw in numbered:
        line = raw.strip()
        if line and not line.startswith("#"):
            yield line_number, line
        elif not line and blanks is not None:
            blanks.append(line_number)


def _numbers(path, line_number: int, fields, what: str, dtype=float) -> np.ndarray:
    """fields converted by one np.array call; MalformedLine naming the line
    if a field does not convert to dtype, or a float is NaN or infinite."""
    try:
        values = np.array(fields, dtype=dtype)
    except (ValueError, OverflowError) as exc:
        kind = "non-numeric" if dtype is float else "bad"
        raise MalformedLine(path, line_number, f"{kind} {what}: {exc}") from None
    if dtype is float and not np.isfinite(values).all():
        raise MalformedLine(path, line_number, f"non-finite {what}")
    return values


def _parse_cameras(path: Path) -> dict:
    cameras = {}
    with open(path, "r") as fh:
        for lineno, line in _data_lines(_numbered_lines(path, fh)):
            fields = line.split()
            if len(fields) < 5:
                raise MalformedLine(
                    path, lineno, f"camera line needs >= 5 fields, got {len(fields)}"
                )
            camera_id, width, height = _numbers(
                path, lineno, [fields[0], fields[2], fields[3]], "integer field", np.int64
            ).tolist()
            if camera_id in cameras:
                raise MalformedLine(path, lineno, f"duplicate camera id {camera_id}")
            model = fields[1]
            params = _numbers(path, lineno, fields[4:], "camera parameters").tolist()
            if model == "PINHOLE":
                if len(params) != 4:
                    raise MalformedLine(
                        path, lineno, f"PINHOLE expects 4 params, got {len(params)}"
                    )
                fx, fy, cx, cy = params
            elif model == "SIMPLE_PINHOLE":
                if len(params) != 3:
                    raise MalformedLine(
                        path, lineno, f"SIMPLE_PINHOLE expects 3 params, got {len(params)}"
                    )
                fx, cx, cy = params
                fy = fx
            else:
                raise UnsupportedCameraModel(
                    f"{path}:{lineno}: camera model {model!r} not supported "
                    f"(expected one of {SUPPORTED_MODELS})"
                )
            try:
                intr = CameraIntrinsics(fx=fx, fy=fy, cx=cx, cy=cy)
            except ValueError as exc:
                raise MalformedLine(path, lineno, f"bad camera parameters: {exc}") from exc
            cameras[camera_id] = ColmapCamera(
                camera_id=camera_id, model=model, width=width, height=height, intrinsics=intr
            )
    return cameras


def _parse_images(path: Path, cameras: dict) -> dict:
    images = {}
    with open(path, "r") as fh:
        numbered = _numbered_lines(path, fh)
        blanks = []
        for lineno, line in _data_lines(numbered, blanks):
            fields = line.split()
            try:
                if len(fields) < 10:
                    raise MalformedLine(
                        path, lineno, f"image pose line needs 10 fields, got {len(fields)}"
                    )
                image_id, camera_id = _numbers(
                    path, lineno, [fields[0], fields[8]], "integer field", np.int64
                ).tolist()
                if image_id in images:
                    raise MalformedLine(path, lineno, f"duplicate image id {image_id}")
                if camera_id not in cameras:
                    raise MalformedLine(
                        path, lineno, f"image {image_id} references unknown camera {camera_id}"
                    )
                qt = _numbers(path, lineno, fields[1:8], "pose")
                norm = np.linalg.norm(qt[:4])
                if abs(norm - 1.0) > _QUAT_NORM_TOL:
                    raise MalformedLine(
                        path, lineno, f"quaternion norm {norm!r} not within {_QUAT_NORM_TOL} of 1"
                    )
            except MalformedLine:
                first = lineno  # a blanked pose line: name the blank lines before it
                while blanks and blanks[-1] == first - 1:
                    first = blanks.pop()
                if first == lineno:
                    raise
                raise MalformedLine(path, first, "missing image pose line") from None
            # The observation line is the physical next line; it is blank for
            # an image without observations.
            observation = next(numbered, None)
            if observation is None:
                raise MalformedLine(path, lineno, "image pose line without an observation line")
            lineno, line = observation
            obs = line.split()
            if len(obs) % 3 != 0:
                raise MalformedLine(
                    path, lineno, f"observation line length {len(obs)} is not a multiple of 3"
                )
            images[image_id] = ColmapImage(
                image_id=image_id,
                name=" ".join(fields[9:]),
                camera_id=camera_id,
                qvec=qt[:4],
                tvec=qt[4:],
                xys=_numbers(path, lineno, [obs[0::3], obs[1::3]], "observation").T,
                point3d_ids=_numbers(path, lineno, obs[2::3], "point3d id", np.int64),
            )
    return images


def _parse_points3d(path: Path) -> dict:
    points = {}
    with open(path, "r") as fh:
        for lineno, line in _data_lines(_numbered_lines(path, fh)):
            fields = line.split()
            if len(fields) < 8 or (len(fields) - 8) % 2 != 0:
                raise MalformedLine(
                    path, lineno, f"point line needs 8 + 2k fields, got {len(fields)}"
                )
            ints = _numbers(
                path, lineno, fields[0:1] + fields[4:7] + fields[8:], "integer field", np.int64
            )
            pid = int(ints[0])
            if pid in points:
                raise MalformedLine(path, lineno, f"duplicate point3d id {pid}")
            points[pid] = ColmapPoint3D(
                point3d_id=pid,
                xyz=_numbers(path, lineno, fields[1:4], "coordinates"),
                rgb=ints[1:4],
                error=float(_numbers(path, lineno, fields[7], "reprojection error")),
                track=ints[4:].reshape(-1, 2),
            )
    return points


def parse_model(model_dir) -> ColmapModel:
    """Parse cameras.txt, images.txt and points3D.txt from a directory.

    Raises:
        MissingFile: if any of the three files is absent.
        MalformedLine: on any structural violation, a byte that is not UTF-8, a
            non-finite or unconvertible value, a repeated id or an image naming an
            unknown camera, reporting the offending file and line number.
        UnsupportedCameraModel: for camera models other than PINHOLE and
            SIMPLE_PINHOLE.
    """
    model_dir = Path(model_dir)
    paths = {name: model_dir / f"{name}.txt" for name in ("cameras", "images", "points3D")}
    for name, path in paths.items():
        if not path.is_file():
            raise MissingFile(f"{path} not found")
    cameras = _parse_cameras(paths["cameras"])
    images = _parse_images(paths["images"], cameras)
    points3d = _parse_points3d(paths["points3D"])
    return ColmapModel(cameras=cameras, images=images, points3d=points3d)


def _fmt(x: float) -> str:
    return repr(float(x))


def _floats(a) -> list:
    """a's entries in row-major order as Python floats, whose repr is _fmt's."""
    return np.asarray(a, dtype=float).ravel().tolist()


def _ints(a) -> list:
    """a's entries in row-major order as Python ints, truncated as int() truncates."""
    return np.asarray(a, dtype=np.int64).ravel().tolist()


def write_model(model: ColmapModel, model_dir) -> None:
    """Serialize a model back to COLMAP text files (floats at full precision).

    Each line is written as it is made, so the text of the whole model is
    never held in memory.
    """
    model_dir = Path(model_dir)
    model_dir.mkdir(parents=True, exist_ok=True)
    with open(model_dir / "cameras.txt", "w") as fh:
        fh.write("# Camera list with one line of data per camera:\n")
        fh.write("#   CAMERA_ID, MODEL, WIDTH, HEIGHT, PARAMS[]\n")
        for cam in sorted(model.cameras.values(), key=lambda c: c.camera_id):
            intr = cam.intrinsics
            if cam.model == "SIMPLE_PINHOLE":
                params = [intr.fx, intr.cx, intr.cy]
            else:
                params = [intr.fx, intr.fy, intr.cx, intr.cy]
            fh.write(
                f"{cam.camera_id} {cam.model} {cam.width} {cam.height} "
                + " ".join(_fmt(p) for p in params)
                + "\n"
            )
    with open(model_dir / "images.txt", "w") as fh:
        fh.write("# Image list with two lines of data per image:\n")
        fh.write("#   IMAGE_ID, QW, QX, QY, QZ, TX, TY, TZ, CAMERA_ID, NAME\n")
        fh.write("#   POINTS2D[] as (X, Y, POINT3D_ID)\n")
        for img in sorted(model.images.values(), key=lambda i: i.image_id):
            head = [str(img.image_id)]
            head += map(repr, _floats(img.qvec) + _floats(img.tvec))
            head += [str(img.camera_id), img.name]
            fh.write(" ".join(head) + "\n")
            xy = _floats(img.xys)
            obs = zip(xy[0::2], xy[1::2], _ints(img.point3d_ids))
            fh.write(" ".join(f"{x!r} {y!r} {pid}" for x, y, pid in obs) + "\n")
    with open(model_dir / "points3D.txt", "w") as fh:
        fh.write("# 3D point list with one line of data per point:\n")
        fh.write("#   POINT3D_ID, X, Y, Z, R, G, B, ERROR, TRACK[] as (IMAGE_ID, POINT2D_IDX)\n")
        for pt in sorted(model.points3d.values(), key=lambda p: p.point3d_id):
            row = [str(pt.point3d_id)]
            row += map(repr, _floats(pt.xyz))
            row += map(str, _ints(pt.rgb))
            row.append(_fmt(pt.error))
            row += map(str, _ints(pt.track))
            fh.write(" ".join(row) + "\n")


@dataclass(frozen=True)
class ColmapProblem:
    """One per-image PnP problem with its ground-truth pose: the usable observations in
    observation order as finite, C-contiguous float64 arrays ps (n,3) and us (n,2)."""

    image_id: int
    name: str
    intrinsics: CameraIntrinsics
    ps: np.ndarray
    us: np.ndarray
    truth: Pose

    @property
    def correspondences(self) -> list:
        """The observations as Correspondence objects over row views of ps and us."""
        return [Correspondence._from_checked(p, u) for p, u in zip(self.ps, self.us)]


def build_problems(model: ColmapModel, min_points: int = 6) -> tuple[list, int]:
    """Turn each image with enough triangulated observations into a problem.

    Observations with the sentinel id -1 are dropped; duplicated point ids
    within an image are kept as-is (they are distinct detections). Images
    with fewer than min_points usable observations are skipped.

    Returns:
        (problems, skipped_count), problems ordered by image id.
    """
    ids = np.fromiter(model.points3d, dtype=np.int64, count=len(model.points3d))
    order = np.argsort(ids)
    ids = ids[order]
    xyz = np.array([pt.xyz for pt in model.points3d.values()], dtype=float).reshape(-1, 3)[order]
    # -1 past the end never matches a usable id, so a lookup past the last id misses.
    keys = np.append(ids, -1)
    problems = []
    skipped = 0
    for image_id in sorted(model.images):
        img = model.images[image_id]
        usable = img.point3d_ids >= 0
        pids = img.point3d_ids[usable]
        rows = np.searchsorted(ids, pids)
        missing = keys[rows] != pids
        if missing.any():
            pid = int(pids[np.argmax(missing)])
            raise MissingPoint3D(f"image {image_id} references missing 3D point {pid}")
        if pids.size < min_points:
            skipped += 1
            continue
        ps, us = xyz[rows], np.ascontiguousarray(img.xys[usable], dtype=float)
        if not (np.isfinite(ps).all() and np.isfinite(us).all()):
            raise NonFiniteInput(f"image {image_id} has a non-finite point or pixel coordinate")
        intrinsics = model.cameras[img.camera_id].intrinsics
        problems.append(ColmapProblem(image_id, img.name, intrinsics, ps, us, truth=img.pose))
    return problems, skipped
