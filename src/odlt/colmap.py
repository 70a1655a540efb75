"""Reader and writer for COLMAP text sparse models.

A model directory holds cameras.txt, images.txt and points3D.txt. Lines
starting with '#' are comments. images.txt carries two lines per image: the
pose line "IMAGE_ID QW QX QY QZ TX TY TZ CAMERA_ID NAME" followed by the
observation line of "X Y POINT3D_ID" triples (POINT3D_ID is -1 when the
feature has no triangulated point). The stored rotation and translation are
world-to-camera, so the camera center is r = -R^T t.

Only PINHOLE (fx fy cx cy) and SIMPLE_PINHOLE (f cx cy) cameras are
supported; anything else raises UnsupportedCameraModel.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import MalformedLine, MissingFile, MissingPoint3D, UnsupportedCameraModel
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


def _data_lines(path: Path):
    """Yield (line_number, stripped_line) skipping comments and blanks."""
    with open(path, "r") as fh:
        for i, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            yield i, line


def _floats(path, lineno, fields, what):
    try:
        return [float(f) for f in fields]
    except ValueError as exc:
        raise MalformedLine(path, lineno, f"non-numeric {what}: {exc}") from exc


def _parse_cameras(path: Path) -> dict:
    cameras = {}
    for lineno, line in _data_lines(path):
        fields = line.split()
        if len(fields) < 5:
            raise MalformedLine(path, lineno, f"camera line needs >= 5 fields, got {len(fields)}")
        try:
            camera_id = int(fields[0])
            width = int(fields[2])
            height = int(fields[3])
        except ValueError as exc:
            raise MalformedLine(path, lineno, f"bad integer field: {exc}") from exc
        model = fields[1]
        params = _floats(path, lineno, fields[4:], "camera parameters")
        if model == "PINHOLE":
            if len(params) != 4:
                raise MalformedLine(path, lineno, f"PINHOLE expects 4 params, got {len(params)}")
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


def _parse_images(path: Path) -> dict:
    images = {}
    pending = None  # (lineno, fields) of a pose line awaiting its points line
    for lineno, line in _data_lines(path):
        if pending is None:
            fields = line.split()
            if len(fields) < 10:
                raise MalformedLine(
                    path, lineno, f"image pose line needs 10 fields, got {len(fields)}"
                )
            pending = (lineno, fields)
            continue
        pose_lineno, fields = pending
        pending = None
        try:
            image_id = int(fields[0])
            camera_id = int(fields[8])
        except ValueError as exc:
            raise MalformedLine(path, pose_lineno, f"bad integer field: {exc}") from exc
        qvec = np.array(_floats(path, pose_lineno, fields[1:5], "quaternion"))
        tvec = np.array(_floats(path, pose_lineno, fields[5:8], "translation"))
        if not (np.isfinite(qvec).all() and np.isfinite(tvec).all()):
            raise MalformedLine(path, pose_lineno, "non-finite pose")
        norm = np.linalg.norm(qvec)
        if abs(norm - 1.0) > _QUAT_NORM_TOL:
            raise MalformedLine(
                path, pose_lineno, f"quaternion norm {norm!r} not within {_QUAT_NORM_TOL} of 1"
            )
        name = " ".join(fields[9:])
        obs = line.split()
        if len(obs) % 3 != 0:
            raise MalformedLine(
                path, lineno, f"observation line length {len(obs)} is not a multiple of 3"
            )
        try:
            xys = np.array([obs[0::3], obs[1::3]], dtype=float).T
        except ValueError as exc:
            raise MalformedLine(path, lineno, f"non-numeric observation: {exc}") from exc
        try:
            ids = np.array(obs[2::3], dtype=np.int64)
        except ValueError as exc:
            raise MalformedLine(path, lineno, f"bad point3d id: {exc}") from exc
        if not np.isfinite(xys).all():
            raise MalformedLine(path, lineno, "non-finite observation")
        images[image_id] = ColmapImage(
            image_id=image_id,
            name=name,
            camera_id=camera_id,
            qvec=qvec,
            tvec=tvec,
            xys=xys,
            point3d_ids=ids,
        )
    if pending is not None:
        raise MalformedLine(path, pending[0], "image pose line without an observation line")
    return images


def _parse_points3d(path: Path) -> dict:
    points = {}
    for lineno, line in _data_lines(path):
        fields = line.split()
        if len(fields) < 8 or (len(fields) - 8) % 2 != 0:
            raise MalformedLine(
                path, lineno, f"point line needs 8 + 2k fields, got {len(fields)}"
            )
        try:
            pid = int(fields[0])
            rgb = np.array([int(f) for f in fields[4:7]], dtype=np.int64)
            track = np.array([int(f) for f in fields[8:]], dtype=np.int64).reshape(-1, 2)
        except ValueError as exc:
            raise MalformedLine(path, lineno, f"bad integer field: {exc}") from exc
        xyz = np.array(_floats(path, lineno, fields[1:4], "coordinates"))
        if not np.isfinite(xyz).all():
            raise MalformedLine(path, lineno, "non-finite coordinates")
        error = _floats(path, lineno, fields[7:8], "reprojection error")[0]
        points[pid] = ColmapPoint3D(point3d_id=pid, xyz=xyz, rgb=rgb, error=error, track=track)
    return points


def parse_model(model_dir) -> ColmapModel:
    """Parse cameras.txt, images.txt and points3D.txt from a directory.

    Raises:
        MissingFile: if any of the three files is absent.
        MalformedLine: on any structural violation, reporting the offending
            file and line number.
        UnsupportedCameraModel: for camera models other than PINHOLE and
            SIMPLE_PINHOLE.
    """
    model_dir = Path(model_dir)
    paths = {name: model_dir / f"{name}.txt" for name in ("cameras", "images", "points3D")}
    for name, path in paths.items():
        if not path.is_file():
            raise MissingFile(f"{path} not found")
    cameras = _parse_cameras(paths["cameras"])
    images = _parse_images(paths["images"])
    points3d = _parse_points3d(paths["points3D"])
    for image in images.values():
        if image.camera_id not in cameras:
            raise MalformedLine(
                paths["images"], 0, f"image {image.image_id} references unknown camera "
                f"{image.camera_id}"
            )
    return ColmapModel(cameras=cameras, images=images, points3d=points3d)


def _fmt(x: float) -> str:
    return repr(float(x))


def write_model(model: ColmapModel, model_dir) -> None:
    """Serialize a model back to COLMAP text files (floats at full precision)."""
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
            head += [_fmt(v) for v in img.qvec]
            head += [_fmt(v) for v in img.tvec]
            head += [str(img.camera_id), img.name]
            fh.write(" ".join(head) + "\n")
            obs = []
            for (x, y), pid in zip(img.xys, img.point3d_ids):
                obs += [_fmt(x), _fmt(y), str(int(pid))]
            fh.write(" ".join(obs) + "\n")
    with open(model_dir / "points3D.txt", "w") as fh:
        fh.write("# 3D point list with one line of data per point:\n")
        fh.write("#   POINT3D_ID, X, Y, Z, R, G, B, ERROR, TRACK[] as (IMAGE_ID, POINT2D_IDX)\n")
        for pt in sorted(model.points3d.values(), key=lambda p: p.point3d_id):
            row = [str(pt.point3d_id)]
            row += [_fmt(v) for v in pt.xyz]
            row += [str(int(v)) for v in pt.rgb]
            row.append(_fmt(pt.error))
            row += [str(int(v)) for v in pt.track.reshape(-1)]
            fh.write(" ".join(row) + "\n")


@dataclass(frozen=True)
class ColmapProblem:
    """One per-image PnP problem with its ground-truth pose."""

    image_id: int
    name: str
    intrinsics: CameraIntrinsics
    correspondences: list
    truth: Pose


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
    xyz = np.array([pt.xyz for pt in model.points3d.values()]).reshape(-1, 3)[order]
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
        cs = [Correspondence(p=p, u=u) for p, u in zip(xyz[rows], img.xys[usable])]
        problems.append(
            ColmapProblem(
                image_id=image_id,
                name=img.name,
                intrinsics=model.cameras[img.camera_id].intrinsics,
                correspondences=cs,
                truth=img.pose,
            )
        )
    return problems, skipped
