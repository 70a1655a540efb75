"""Exception types raised by the pose estimation pipeline."""


class PnpError(Exception):
    """Base class for all errors raised by this package."""


class DepthZero(PnpError):
    """A point projects with |depth| below the safe threshold."""


class SingularProjection(PnpError):
    """The left 3x3 block of a projection matrix is not invertible enough."""


class SingularCalibration(PnpError):
    """The intrinsic matrix cannot be inverted reliably."""


class DegenerateInput(PnpError):
    """Input matrix is too degenerate for a meaningful rotation projection."""


class ZeroQuaternion(PnpError):
    """Quaternion norm is too small to normalize."""


class InvalidIntrinsics(PnpError, ValueError):
    """Intrinsics are not a finite, upper-triangular 3x3 K with K[2,2] == 1 and
    positive focal lengths."""


class NonFiniteInput(PnpError):
    """A point or pixel coordinate is NaN or infinite."""


class InvalidShape(PnpError, ValueError):
    """A point/pixel array pair does not have shapes (n,3) and (n,2)."""


class DegeneratePoints(PnpError):
    """Point set collapses to (nearly) a single location; normalization undefined."""


class TooFewPoints(PnpError):
    """Fewer correspondences than the linear system requires."""

    def __init__(self, n: int, required: int):
        self.n = n
        self.required = required
        super().__init__(f"need at least {required} correspondences, got {n}")


class RankDeficient(PnpError):
    """The stacked system does not determine a unique null direction."""


class NegativeDepth(PnpError):
    """Too many points fall behind the preliminary camera to weight the system."""


class ReflectionDetected(PnpError):
    """Recovered linear rotation block has negative determinant."""


class ColmapParseError(PnpError):
    """Base class for model reading problems."""


class MissingFile(ColmapParseError):
    """One of cameras.txt / images.txt / points3D.txt is absent."""


class MalformedLine(ColmapParseError):
    """A COLMAP model or `solve` problem file line has a bad layout or value."""

    def __init__(self, path, line_number: int, message: str):
        self.path = str(path)
        self.line_number = line_number
        super().__init__(f"{path}:{line_number}: {message}")


class MissingPoint3D(ColmapParseError):
    """An image observation references a 3D point id absent from the model."""


class UnsupportedCameraModel(ColmapParseError):
    """Camera model other than PINHOLE / SIMPLE_PINHOLE encountered."""
