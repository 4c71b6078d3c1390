"""Rigid-geometry primitives: rotations, poses, pinhole cameras, pose errors.

Conventions
-----------
A pose (R, t) maps a point y in the world frame to the camera frame as
x = R @ y + t.  The world frame is anchored to the reference camera, so a
relative pose is simply the query pose when the reference pose is the
identity.  The camera center in world coordinates is c = -R.T @ t.

Pixel coordinates are (u, v) with u along image columns and v along rows;
the principal point (cx, cy) is in pixels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BehindCameraError, InvalidDepthError, InvalidParameterError

# Constructors must produce rotations orthonormal and proper to this tolerance.
ROTATION_TOL = 1e-9


_IDENTITY = np.eye(3)  # shared and read-only: building one costs as much as the small sums it feeds
_IDENTITY.setflags(write=False)
# flat positions of x, y, z in a cross-product matrix, and of -x, -y, -z
_SKEW_PLUS = np.array([7, 2, 3])
_SKEW_MINUS = np.array([5, 6, 1])


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrices: skew(v) @ w == np.cross(v, w), for one (3,) vector or an (..., 3) stack."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape[:-1] + (9,))
    out[..., _SKEW_PLUS] = v
    out[..., _SKEW_MINUS] = -v
    return out.reshape(v.shape[:-1] + (3, 3))


def rotation_defect(r: np.ndarray):
    """Max deviation from orthonormality/properness (0 for an exact rotation).

    A float for one (3, 3) matrix, an (N,) array for an (N, 3, 3) stack.
    """
    r = np.asarray(r, dtype=float)
    ortho = np.abs(np.swapaxes(r, -1, -2) @ r - _IDENTITY).reshape(r.shape[:-2] + (9,)).max(axis=-1)
    defect = np.maximum(ortho, np.abs(np.linalg.det(r) - 1.0))
    return float(defect) if r.ndim == 2 else defect


def _check_rotation(r: np.ndarray) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3):
        raise InvalidParameterError(f"rotation must be 3x3, got {r.shape}")
    if rotation_defect(r) > ROTATION_TOL:
        raise InvalidParameterError("matrix is not a proper rotation")
    return r


def rot_x(angle_deg: float) -> np.ndarray:
    a = np.radians(angle_deg)
    c, s = np.cos(a), np.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(angle_deg: float) -> np.ndarray:
    a = np.radians(angle_deg)
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(angle_deg: float) -> np.ndarray:
    a = np.radians(angle_deg)
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rotation_from_quaternion(q) -> np.ndarray:
    """Convert a quaternion (w, x, y, z) to a rotation matrix.

    The quaternion is normalized first, so file data with |q| slightly off
    unit is accepted; a zero-norm quaternion is rejected.  q and -q map to
    the same rotation.
    """
    q = np.asarray(q, dtype=float)
    if q.shape != (4,):
        raise InvalidParameterError(f"quaternion must have 4 components, got {q.shape}")
    norm = float(np.linalg.norm(q))
    if norm == 0.0 or not np.isfinite(norm):
        raise InvalidParameterError("quaternion has zero or non-finite norm")
    w, x, y, z = q / norm
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def quaternion_from_rotation(r: np.ndarray) -> np.ndarray:
    """Convert a rotation matrix to a unit quaternion (w, x, y, z).

    The sign is canonicalized (first non-zero component positive) so the
    output is deterministic despite the double cover.
    """
    r = _check_rotation(r)
    trace = r[0, 0] + r[1, 1] + r[2, 2]
    if trace > 0:
        s = 0.5 / np.sqrt(trace + 1.0)
        q = np.array(
            [0.25 / s, (r[2, 1] - r[1, 2]) * s, (r[0, 2] - r[2, 0]) * s, (r[1, 0] - r[0, 1]) * s]
        )
    elif r[0, 0] > r[1, 1] and r[0, 0] > r[2, 2]:
        s = 2.0 * np.sqrt(1.0 + r[0, 0] - r[1, 1] - r[2, 2])
        q = np.array(
            [(r[2, 1] - r[1, 2]) / s, 0.25 * s, (r[0, 1] + r[1, 0]) / s, (r[0, 2] + r[2, 0]) / s]
        )
    elif r[1, 1] > r[2, 2]:
        s = 2.0 * np.sqrt(1.0 + r[1, 1] - r[0, 0] - r[2, 2])
        q = np.array(
            [(r[0, 2] - r[2, 0]) / s, (r[0, 1] + r[1, 0]) / s, 0.25 * s, (r[1, 2] + r[2, 1]) / s]
        )
    else:
        s = 2.0 * np.sqrt(1.0 + r[2, 2] - r[0, 0] - r[1, 1])
        q = np.array(
            [(r[1, 0] - r[0, 1]) / s, (r[0, 2] + r[2, 0]) / s, (r[1, 2] + r[2, 1]) / s, 0.25 * s]
        )
    q /= np.linalg.norm(q)
    for component in q:
        if component != 0.0:
            if component < 0.0:
                q = -q
            break
    return q


def rotation_from_6d(a, b) -> np.ndarray:
    """Build a rotation from two 3-vectors by partial Gram-Schmidt.

    Column 1 is a normalized, column 2 is b with its a-component removed and
    normalized, column 3 their cross product.  Invariant to positive
    rescaling of a and b; degenerate (zero or parallel) input is rejected.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != (3,) or b.shape != (3,):
        raise InvalidParameterError("6d parameterization needs two 3-vectors")
    na = np.linalg.norm(a)
    if na == 0.0 or not np.isfinite(na):
        raise InvalidParameterError("first 6d vector is zero or non-finite")
    c1 = a / na
    residual = b - (b @ c1) * c1
    nr = np.linalg.norm(residual)
    if nr <= 1e-12 * max(1.0, float(np.linalg.norm(b))) or not np.isfinite(nr):
        raise InvalidParameterError("second 6d vector is parallel to the first")
    c2 = residual / nr
    c3 = np.cross(c1, c2)
    return np.column_stack([c1, c2, c3])


def rotation_from_discrete_euler(yaw_index: int, roll_index: int, pitch_index: int) -> np.ndarray:
    """Decode discretized Euler angles into a rotation.

    yaw_index and roll_index are 1-degree bins in [0, 360); pitch_index is a
    bin in [0, 180) with bin 90 meaning zero pitch.  The composition is
    R = Ry(yaw) @ Rx(pitch) @ Rz(roll).
    """
    for name, value, limit in (
        ("yaw_index", yaw_index, 360),
        ("roll_index", roll_index, 360),
        ("pitch_index", pitch_index, 180),
    ):
        if int(value) != value:
            raise InvalidParameterError(f"{name} must be integral, got {value!r}")
        if not (0 <= int(value) < limit):
            raise InvalidParameterError(f"{name}={value} out of range [0, {limit})")
    return rot_y(float(yaw_index)) @ rot_x(float(pitch_index) - 90.0) @ rot_z(float(roll_index))


def translation_from_spherical(phi_deg: float, theta_deg: float, scale_m: float) -> np.ndarray:
    """Decode (azimuth phi, inclination theta, scale) into a translation.

    theta is measured from the +Y polar axis and phi in the XZ plane from +Z
    towards +X, so (phi=0, theta=0, s=1) is the unit +Y vector.
    """
    if scale_m < 0:
        raise InvalidParameterError(f"scale must be non-negative, got {scale_m}")
    phi = np.radians(phi_deg)
    theta = np.radians(theta_deg)
    direction = np.array(
        [np.sin(theta) * np.sin(phi), np.cos(theta), np.sin(theta) * np.cos(phi)]
    )
    return scale_m * direction


def rotation_from_axis_angle(w: np.ndarray) -> np.ndarray:
    """Rodrigues: rotation by |w| radians about w, for one (3,) vector or an (N, 3) stack.

    Below an angle of 1e-12 the first-order form I + [w]x is used (identity
    at w = 0).  Each rotation of a stack rounds as the one-vector call.
    """
    w = np.asarray(w, dtype=float)
    angle = np.sqrt(w[..., None, :] @ w[..., :, None])  # (..., 1, 1): np.linalg.norm of each row (a BLAS dot)
    tiny = angle < 1e-12
    tiny_count = np.count_nonzero(tiny)
    if tiny_count == tiny.size:
        return _IDENTITY + skew(w)
    k = skew(w / (angle + tiny)[..., 0])  # a tiny row's axis is replaced below
    rotation = _IDENTITY + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)
    if tiny_count:
        rotation = np.where(tiny, _IDENTITY + skew(w), rotation)
    return rotation


@dataclass(frozen=True, eq=False)
class Pose:
    """World-to-camera rigid transform: x_cam = rotation @ y_world + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = _check_rotation(self.rotation).copy()
        t = np.asarray(self.translation, dtype=float).reshape(3).copy()
        if not np.all(np.isfinite(t)):
            raise InvalidParameterError("translation must be finite")
        r.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.eye(3), np.zeros(3))

    def matrix(self) -> np.ndarray:
        """Homogeneous 4x4 form."""
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def transform(self, points: np.ndarray) -> np.ndarray:
        """Apply to (..., 3) world points, returning camera-frame points."""
        return np.asarray(points, dtype=float) @ self.rotation.T + self.translation


def compose(a: Pose, b: Pose) -> Pose:
    """Pose product a . b: apply b first, then a."""
    return Pose(a.rotation @ b.rotation, a.rotation @ b.translation + a.translation)


def inverse(p: Pose) -> Pose:
    return Pose(p.rotation.T, -(p.rotation.T @ p.translation))


def relative(ref: Pose, query: Pose) -> Pose:
    """Pose of query anchored to ref: relative(ref, q) maps ref-frame points to q-frame."""
    return compose(query, inverse(ref))


def camera_center(p: Pose) -> np.ndarray:
    """Camera center in world coordinates, c = -R.T @ t."""
    return -(p.rotation.T @ p.translation)


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole model: focal lengths, principal point (pixels), image size."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise InvalidParameterError("focal lengths must be positive")
        if self.width <= 0 or self.height <= 0 or int(self.width) != self.width or int(self.height) != self.height:
            raise InvalidParameterError("image dimensions must be positive integers")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise InvalidParameterError("principal point must lie inside the image")

    @property
    def diagonal(self) -> float:
        return float(np.hypot(self.width, self.height))

    def matrix(self) -> np.ndarray:
        return np.array([[self.fx, 0.0, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]])

    def contains(self, pixels: np.ndarray) -> np.ndarray:
        """Bounds mask for (..., 2) pixel coordinates."""
        px = np.asarray(pixels, dtype=float)
        u, v = px[..., 0], px[..., 1]
        return (u >= 0) & (u < self.width) & (v >= 0) & (v < self.height)


def project(k: CameraIntrinsics, points: np.ndarray) -> np.ndarray:
    """Pinhole projection of (..., 3) camera-frame points to pixels.

    No clipping to the image bounds; points at or behind the camera plane
    raise BehindCameraError (callers needing a cap/skip policy test z first).
    """
    pts = np.asarray(points, dtype=float)
    z = pts[..., 2]
    if np.any(z <= 0):
        raise BehindCameraError("point has non-positive depth")
    u = k.fx * pts[..., 0] / z + k.cx
    v = k.fy * pts[..., 1] / z + k.cy
    return np.stack([u, v], axis=-1)


def backproject(k: CameraIntrinsics, pixels: np.ndarray, depth) -> np.ndarray:
    """Lift (..., 2) pixels with metric depth to camera-frame 3D points."""
    px = np.asarray(pixels, dtype=float)
    d = np.asarray(depth, dtype=float)
    if np.any(~np.isfinite(d)) or np.any(d <= 0):
        raise InvalidDepthError("depth must be positive and finite")
    x = (px[..., 0] - k.cx) / k.fx * d
    y = (px[..., 1] - k.cy) / k.fy * d
    return np.stack([x, y, np.broadcast_to(d, x.shape)], axis=-1)


def normalized_coords(k: CameraIntrinsics, pixels: np.ndarray) -> np.ndarray:
    """Pixels to normalized camera coordinates (pixel minus principal point over focal)."""
    px = np.asarray(pixels, dtype=float)
    return np.stack([(px[..., 0] - k.cx) / k.fx, (px[..., 1] - k.cy) / k.fy], axis=-1)


def rotation_error_deg(r: np.ndarray, r_gt: np.ndarray) -> float:
    """Angle in degrees between two rotations; symmetric, in [0, 180]."""
    r = np.asarray(r, dtype=float)
    r_gt = np.asarray(r_gt, dtype=float)
    cos = (np.trace(r @ r_gt.T) - 1.0) / 2.0
    return float(np.degrees(np.arccos(np.clip(cos, -1.0, 1.0))))


def translation_error_m(p: Pose, p_gt: Pose) -> float:
    """Euclidean distance between the two camera centers, in meters."""
    return float(np.linalg.norm(camera_center(p) - camera_center(p_gt)))
