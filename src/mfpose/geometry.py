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

from .errors import BehindCameraError, InvalidDepthError, InvalidParameterError, parameter_check

# Constructors must produce rotations orthonormal and proper to this tolerance.
ROTATION_TOL = 1e-9


_IDENTITY = np.eye(3)  # shared and read-only: building one costs as much as the small sums it feeds
_IDENTITY.setflags(write=False)
# flat positions of x, y, z in a cross-product matrix, and of -x, -y, -z
_SKEW_PLUS = np.array([7, 2, 3])
_SKEW_MINUS = np.array([5, 6, 1])


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrices: skew(v) @ w == _cross(v, w), for one (3,) vector or an (..., 3) stack."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape[:-1] + (9,))
    out[..., _SKEW_PLUS] = v
    out[..., _SKEW_MINUS] = -v
    return out.reshape(v.shape[:-1] + (3, 3))


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross products of two broadcast (..., 3) stacks: numpy's `cross` arithmetic without its per-call axis handling."""
    a0, a1, a2, b0, b1, b2 = a[..., 0], a[..., 1], a[..., 2], b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def rotation_defect(r: np.ndarray):
    """Max deviation from orthonormality/properness (0 for an exact rotation).

    A float for one (3, 3) matrix, an (N,) array for an (N, 3, 3) stack.
    """
    r = np.asarray(r, dtype=float)
    ortho = np.abs(np.swapaxes(r, -1, -2) @ r - _IDENTITY).reshape(r.shape[:-2] + (9,)).max(axis=-1)
    defect = np.maximum(ortho, np.abs(np.linalg.det(r) - 1.0))
    return float(defect) if r.ndim == 2 else defect


def _rotation_faults(rotations: np.ndarray) -> np.ndarray:
    """Mask of the matrices of an (N, 3, 3) stack that are not proper rotations.

    A matrix fails when its defect is not within ROTATION_TOL.  One with an
    entry outside [-2, 2] (NaN and inf included) fails without that test: a
    rotation's entries lie in [-1, 1], and the defect's products and
    determinant would overflow or warn on such a matrix, so the defect is
    taken of the identity in its place.
    """
    bounded = (np.abs(rotations) <= 2.0).all(axis=(1, 2))
    defect = rotation_defect(np.where(bounded[:, None, None], rotations, _IDENTITY))
    return ~(bounded & (defect <= ROTATION_TOL))


def row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of an (N, n) stack, rounding as np.linalg.norm of the row (a BLAS dot).

    A row that overflows or is not finite gets an inf or NaN norm, without a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return np.sqrt(v[:, None, :] @ v[:, :, None])[:, 0, 0]


# Entry k of a rotation matrix from a unit quaternion (w, x, y, z) is
# scale (a + sign b) + offset, with a and b the products named below, so
# the diagonal rounds as 1 - 2 (a + b) and the rest as 2 (a - b) or 2 (a + b).
# Adding -0.0 leaves every value, signed zeros included, as it is.
_QUATERNION_TERMS = np.array(
    [
        # yy, xy, xz, xy, xx, yz, xz, yz, xx
        [10, 6, 7, 6, 5, 11, 7, 11, 5],
        # zz, wz, wy, wz, zz, wx, wy, wx, yy
        [15, 3, 2, 3, 15, 1, 2, 1, 10],
    ]
)
_QUATERNION_SIGN = np.array([1.0, -1.0, 1.0, 1.0, 1.0, -1.0, -1.0, 1.0, 1.0])
_QUATERNION_SCALE = np.array([-2.0, 2.0, 2.0, 2.0, -2.0, 2.0, 2.0, 2.0, -2.0])
_QUATERNION_OFFSET = np.array([1.0, -0.0, -0.0, -0.0, 1.0, -0.0, -0.0, -0.0, 1.0])


def rotation_from_quaternion(q) -> np.ndarray:
    """Convert quaternions (w, x, y, z) to rotation matrices: one (4,) or an (N, 4) stack.

    Each quaternion is normalized first, so file data with |q| slightly off
    unit is accepted; q and -q map to the same rotation.  A zero or
    non-finite norm raises for one quaternion and gives an all-NaN matrix in
    a stack.  Each matrix of a stack rounds as the one-quaternion call.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim not in (1, 2) or q.shape[-1] != 4:
        raise InvalidParameterError(f"quaternion must have 4 components, got {q.shape}")
    stack = q.reshape(-1, 4)
    norm = row_norms(stack)[:, None]
    bad = (norm == 0.0) | ~np.isfinite(norm)
    if q.ndim == 1 and bad[0, 0]:
        raise InvalidParameterError("quaternion has zero or non-finite norm")
    unit = stack / np.where(bad, np.nan, norm)  # dividing by NaN raises no flag
    products = (unit[:, :, None] * unit[:, None, :]).reshape(-1, 16)  # products[4 i + j] = q_i q_j
    terms = products[:, _QUATERNION_TERMS]  # (N, 2, 9): a and b of each entry
    r = _QUATERNION_SCALE * (terms[:, 0] + _QUATERNION_SIGN * terms[:, 1]) + _QUATERNION_OFFSET
    r = r.reshape(-1, 3, 3)
    return r[0] if q.ndim == 1 else r


def _quaternion_of_rotation(r: np.ndarray) -> np.ndarray:
    """Unit quaternion (w, x, y, z) of a checked rotation, first non-zero component positive."""
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


def canonical_quaternions(rotations) -> np.ndarray:
    """Quaternions of an (N, 3, 3) rotation stack that are bit-stable under a parse -> matrix -> format cycle.

    Iterating _quaternion_of_rotation(rotation_from_quaternion(q)) settles on
    a fixed point within a few rounds; writing that fixed point makes pose
    files byte-identical across write -> read -> write.  A row whose
    sequence comes back to an earlier quaternion, or has not settled after
    eight rounds, gets the least (by bytes) quaternion of its sequence.
    The stack is checked once, and the rows still iterating share one
    stacked matrix conversion per round; each row's sequence is the one
    it would have alone.
    """
    rotations = np.asarray(rotations, dtype=float)
    if rotations.ndim != 3 or rotations.shape[1:] != (3, 3):
        raise InvalidParameterError(f"need an (N, 3, 3) rotation stack, got {rotations.shape}")
    if _rotation_faults(rotations).any():
        raise InvalidParameterError("matrix is not a proper rotation")

    def quaternions(matrices):  # checked above, or made from unit quaternions
        return np.array([_quaternion_of_rotation(m) for m in matrices]).reshape(-1, 4)

    def least(row, rounds):
        return np.frombuffer(min(q[row].tobytes() for q in rounds), dtype=np.float64)

    rounds = [quaternions(rotations)]
    result = rounds[0].copy()
    pending = np.ones(len(result), dtype=bool)  # rows that have neither settled nor come back
    for i in range(1, 8):
        following = rounds[-1].copy()  # a row no longer pending keeps its last quaternion
        following[pending] = quaternions(rotation_from_quaternion(following[pending]))
        rounds.append(following)
        same = [(following.view(np.int64) == q.view(np.int64)).all(axis=1) for q in rounds[:i]]
        settled = pending & same[-1]
        result[settled] = following[settled]
        came_back = pending & ~settled & np.any(same, axis=0)
        for row in np.flatnonzero(came_back):
            result[row] = least(row, rounds[:i])
        pending &= ~(settled | came_back)
        if not pending.any():
            return result
    for row in np.flatnonzero(pending):
        result[row] = least(row, rounds)
    return result


def rotation_from_axis_angle(w: np.ndarray) -> np.ndarray:
    """Rodrigues: rotation by |w| radians about a (3,) vector w.

    Below an angle of 1e-12 the first-order form I + [w]x is used (identity
    at w = 0); otherwise the closed form about the unit axis w / |w|.
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (3,):
        raise InvalidParameterError(f"axis-angle vector must have shape (3,), got {w.shape}")
    angle = np.sqrt(w @ w)
    if angle < 1e-12:
        return _IDENTITY + skew(w)
    k = skew(w / angle)
    return _IDENTITY + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


@dataclass(frozen=True, eq=False)
class Pose:
    """World-to-camera rigid transform: x_cam = rotation @ y_world + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    @parameter_check
    def __post_init__(self):
        r = np.array(self.rotation, dtype=float)
        if r.shape != (3, 3):
            raise InvalidParameterError(f"rotation must be 3x3, got {r.shape}")
        t = np.array(self.translation, dtype=float).reshape(3)
        _, fault = _first_pose_fault(r[None], t[None])
        if fault is not None:
            raise InvalidParameterError(fault)
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


def _first_pose_fault(rotations: np.ndarray, translations: np.ndarray) -> tuple[int, str | None]:
    """The first row of an (N, 3, 3) rotation and an (N, 3) translation stack that Pose rejects, and why.

    (N, None) when none fails on a _rotation_faults rotation or a non-finite
    translation.  This is the one check behind Pose and poses_from_stack.
    """
    bad_rotation = _rotation_faults(rotations)
    bad = bad_rotation | ~np.isfinite(translations).all(axis=1)
    if not bad.any():
        return len(rotations), None
    row = int(bad.argmax())
    return row, "matrix is not a proper rotation" if bad_rotation[row] else "translation must be finite"


def poses_from_stack(rotations, translations) -> tuple[list[Pose], str | None]:
    """Poses from an (N, 3, 3) rotation and an (N, 3) translation stack, checked once as a stack.

    Returns the poses of the rows before the first that Pose would reject,
    and that row's fault (None when every row passes), so a caller can
    name the row.  The poses hold read-only views of one copy of the stacks.
    """
    rotations = np.array(rotations, dtype=float)
    translations = np.array(translations, dtype=float)
    if rotations.ndim != 3 or rotations.shape[1:] != (3, 3) or translations.shape != (len(rotations), 3):
        raise InvalidParameterError(
            f"need (N, 3, 3) rotations and (N, 3) translations, got {rotations.shape} and {translations.shape}"
        )
    row, fault = _first_pose_fault(rotations, translations)
    rotations.setflags(write=False)
    translations.setflags(write=False)
    poses = []
    for r, t in zip(rotations[:row], translations[:row]):
        pose = object.__new__(Pose)  # already checked: skip __post_init__
        object.__setattr__(pose, "rotation", r)
        object.__setattr__(pose, "translation", t)
        poses.append(pose)
    return poses, fault


def compose(a: Pose, b: Pose) -> Pose:
    """Pose product a . b: apply b first, then a."""
    return Pose(a.rotation @ b.rotation, a.rotation @ b.translation + a.translation)


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

    @parameter_check
    def __post_init__(self):
        if not (0 < self.fx < np.inf and 0 < self.fy < np.inf):  # NaN fails too
            raise InvalidParameterError("focal lengths must be finite and positive")
        if not all(0 < n < np.inf and int(n) == n for n in (self.width, self.height)):
            raise InvalidParameterError("image dimensions must be positive integers")
        object.__setattr__(self, "width", int(self.width))  # 640.0 is stored as 640, which load_intrinsics reads back
        object.__setattr__(self, "height", int(self.height))
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise InvalidParameterError("principal point must lie inside the image")

    @property
    def diagonal(self) -> float:
        return float(np.hypot(self.width, self.height))

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


def rotation_error_deg(r: np.ndarray, r_gt: np.ndarray):
    """Angle in degrees between two rotations; symmetric, in [0, 180].

    A float for two (3, 3) matrices, an (N,) array for (N, 3, 3) stacks,
    each row rounding as the two-matrix call.
    """
    r = np.asarray(r, dtype=float)
    r_gt = np.asarray(r_gt, dtype=float)
    cos = (np.trace(r @ np.swapaxes(r_gt, -1, -2), axis1=-2, axis2=-1) - 1.0) / 2.0
    angle = np.degrees(np.arccos(np.clip(cos, -1.0, 1.0)))
    return float(angle) if r.ndim == 2 else angle


def translation_error_m(p: Pose, p_gt: Pose) -> float:
    """Euclidean distance between the two camera centers, in meters."""
    return float(np.linalg.norm(camera_center(p) - camera_center(p_gt)))
