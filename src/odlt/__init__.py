"""Camera pose estimation from 2D-3D correspondences.

The package solves the perspective-n-point problem with a family of linear
solvers built on the direct linear transform, topped by an optimally
weighted variant that reaches maximum-likelihood accuracy without iterative
refinement. A Gauss-Newton refiner and a COLMAP text-model reader round out
the toolbox.
"""

__version__ = "0.1.0"

from .errors import (
    ColmapParseError,
    DegenerateInput,
    DegeneratePoints,
    DepthZero,
    InvalidIntrinsics,
    InvalidShape,
    MalformedLine,
    MissingFile,
    MissingPoint3D,
    NegativeDepth,
    NonFiniteInput,
    PnpError,
    RankDeficient,
    ReflectionDetected,
    SingularCalibration,
    SingularProjection,
    TooFewPoints,
    UnsupportedCameraModel,
    ZeroQuaternion,
)
from .geometry import (
    CameraIntrinsics,
    Correspondence,
    Pose,
    compose_projection,
    cross_matrix,
    decompose_projection,
    nearest_rotation,
    project_points,
    quat_to_rotation,
    rodrigues,
    rotation_angle_deg,
    rotation_to_quat,
)
from .solvers import (
    METHODS,
    PnpResult,
    SolverConfig,
    estimate_projection,
    solve,
)

__all__ = [
    "__version__",
    "CameraIntrinsics",
    "ColmapParseError",
    "Correspondence",
    "DegenerateInput",
    "DegeneratePoints",
    "DepthZero",
    "InvalidIntrinsics",
    "InvalidShape",
    "MalformedLine",
    "METHODS",
    "MissingFile",
    "MissingPoint3D",
    "NegativeDepth",
    "NonFiniteInput",
    "PnpError",
    "PnpResult",
    "Pose",
    "RankDeficient",
    "ReflectionDetected",
    "SingularCalibration",
    "SingularProjection",
    "SolverConfig",
    "TooFewPoints",
    "UnsupportedCameraModel",
    "ZeroQuaternion",
    "compose_projection",
    "cross_matrix",
    "decompose_projection",
    "estimate_projection",
    "nearest_rotation",
    "project_points",
    "quat_to_rotation",
    "rodrigues",
    "rotation_angle_deg",
    "rotation_to_quat",
    "solve",
]
