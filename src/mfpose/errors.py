"""Exception types shared across the toolkit, and the check that turns a parameter's TypeError or ValueError into one."""


class MfposeError(Exception):
    """Base class for all toolkit errors."""


class InvalidParameterError(MfposeError, ValueError):
    """An argument violates a documented precondition."""


def parameter_check(post_init):
    """Decorates a dataclass's `__post_init__`: a TypeError or ValueError in it, from a value of the wrong type
    or shape, raises InvalidParameterError."""

    def check(self):
        try:
            post_init(self)
        except MfposeError:  # InvalidParameterError is a ValueError too: its own message stands
            raise
        except (TypeError, ValueError) as exc:
            raise InvalidParameterError(f"{type(self).__name__}: a parameter has the wrong type or shape ({exc})") from exc

    return check


class BehindCameraError(MfposeError):
    """A point with non-positive depth was passed to the projection."""


class InvalidDepthError(MfposeError, ValueError):
    """Non-positive or non-finite depth where a valid depth is required."""


class DegenerateSampleError(MfposeError):
    """A minimal sample is degenerate (collinear, coincident, rank-deficient)."""


class CheiralityError(MfposeError):
    """No essential-matrix decomposition places any point in front of both cameras."""


class NoConsensusError(MfposeError):
    """The robust loop found no model with enough inliers."""


class ScaleConsensusError(MfposeError):
    """No positive translation-scale estimate gathered consensus."""


class GenerationError(MfposeError):
    """A synthetic-scene configuration produced no usable scene."""


class FormatError(MfposeError):
    """A dataset file is malformed.  Carries file path and, when known, the line."""

    def __init__(self, path, message, line=None):
        self.path = str(path)
        self.line = line
        where = self.path if line is None else f"{self.path}:{line}"
        super().__init__(f"{where}: {message}")


class MissingGroundTruthError(FormatError):
    """An estimates file names queries the dataset has no ground truth for."""
