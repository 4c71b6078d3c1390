"""On-disk scene formats and a synthetic-scene generator with ground truth.

Directory layout (one directory per scene under a dataset root):

    root/<scene_id>/
        poses.txt        frame_name qw qx qy qz tx ty tz   (world-to-camera,
                         meters; optional, required only for evaluation; the
                         reference pose must be the identity)
        intrinsics.txt   frame_name fx fy cx cy width height
        depth/<frame>.mfdm
        matches/<query>.txt   u_ref v_ref u_query v_query score

Every frame with a matches file is a query; the single remaining frame in
intrinsics.txt is the reference.  Depth maps use a minimal binary format:
magic 'MFDM', little-endian u32 width and height, then width*height
little-endian float32 values, row-major, in meters (non-positive or
non-finite values mark invalid pixels).

An estimates file, the output of `mfpose estimate`, holds one
`scene query status` line per query; ok lines add `qw qx qy qz tx ty tz`
and a confidence (`-` when there is none).

Loaders reject malformed data instead of repairing it; errors carry the
file and line.  The pose file direction (x = R y + t) is stated here
because public pose formats disagree on it.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FormatError, GenerationError, InvalidParameterError, parameter_check
from .geometry import (
    CameraIntrinsics,
    Pose,
    _cross,
    _quaternion_of_rotation,
    backproject,
    canonical_quaternions,
    poses_from_stack,
    project,
    rotation_from_axis_angle,
    rotation_from_quaternion,
    row_norms,
)
from .pipelines import CorrespondenceSet, DepthMap, EstimateStatus, PoseEstimate, pixel_index

DEPTH_MAGIC = b"MFDM"
_QUATERNION_NORM_TOL = 1e-3
_IDENTITY_POSE_TOL = 1e-6


# --------------------------------------------------------------------------
# Text formats
# --------------------------------------------------------------------------


def read_fields(path: Path):
    """Yield (line number, whitespace-split fields) for each non-blank, non-comment line."""
    try:
        text = path.read_text()
    except OSError as exc:
        raise FormatError(path, f"cannot read file: {exc}") from exc
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield number, line.split()


def _read_table(path: Path, kinds: tuple[str, ...], layout):
    """Read a text file of numeric rows in one pass; return the (rows, width) array and its `fail`.

    `layout(line, fields)` is called on each line in turn.  It returns the
    line's number tokens (one per entry of `kinds`), None for a line with no
    numbers, or a message that ends the read at that line.  All tokens then
    go through `float()` together; a bad one ends the rows at its line with
    `non-numeric <kind of its column>`.

    `fail(faults)` takes the (row, message) of each array check's first
    failing row, in the order a line is checked, and raises the FormatError
    of the earliest row (on a tie the earlier check wins).  Every row
    precedes the line that ended the read, so when no check fails, `fail`
    raises that line's layout or number error, if any.
    """
    numbers: list[int] = []  # line of each row
    tokens: list[str] = []
    error = None  # (line, message) of the line that ended the read
    for number, fields in read_fields(path):
        row = layout(number, fields)
        if row is None:
            continue
        if type(row) is str:
            error = (number, row)
            break
        numbers.append(number)
        tokens += row
    width = len(kinds)
    exc = None
    try:
        values = list(map(float, tokens))
    except ValueError:  # find the first bad token and keep the whole rows before it
        values = []
        for token in tokens:
            try:
                values.append(float(token))
            except ValueError as bad:
                exc = bad
                break
        rows = len(values) // width
        error = (numbers[rows], f"non-numeric {kinds[len(values) % width]}: {exc}")
        del values[width * rows :]
    table = np.array(values).reshape(-1, width)

    def fail(faults) -> None:
        row, message = min(faults, key=lambda f: f[0], default=(len(table), None))
        if row < len(table):
            raise FormatError(path, message, numbers[row])
        if error is not None:
            raise FormatError(path, error[1], error[0]) from exc

    return table, fail


def _pose_rows(table: np.ndarray) -> tuple[list[Pose], list[tuple[int, str]]]:
    """Poses from the `qw qx qy qz tx ty tz` columns of a table, checked as one stack.

    Returns the poses of the rows before the first that fails, and the
    (row, message) of each check's first failing row, for `fail`.
    """
    rotations = rotation_from_quaternion(table[:, :4])  # all NaN where the norm is zero or not finite
    poses, fault = poses_from_stack(rotations, table[:, 4:7])
    no_norm = np.flatnonzero(np.isnan(rotations[:, 0, 0]))[:1]
    return poses, [*[(row, "quaternion has zero or non-finite norm") for row in no_norm], (len(poses), fault)]


def load_poses(path) -> dict[str, Pose]:
    """Parse `frame qw qx qy qz tx ty tz` lines into world-to-camera poses.

    The file is read in one pass and its poses are checked as one stack; on
    a malformed file the error names the first bad line, whatever its fault.
    """
    path = Path(path)
    names: dict[str, None] = {}

    def layout(number, fields):
        if len(fields) != 8:
            return f"expected 8 fields, got {len(fields)}"
        name = fields[0]
        if name in names:
            return f"duplicate frame {name!r}"
        names[name] = None
        return fields[1:]

    table, fail = _read_table(path, ("field",) * 7, layout)
    norm = row_norms(table[:, :4])
    poses, faults = _pose_rows(table)  # a NaN norm passes the norm check and fails there
    fail([
        *[(row, f"quaternion norm {float(norm[row]):.6g} is not within {_QUATERNION_NORM_TOL} of 1")
          for row in np.flatnonzero(np.abs(norm - 1.0) > _QUATERNION_NORM_TOL)[:1]],
        *faults,
    ])
    return dict(zip(names, poses))


def save_poses(path, poses: dict[str, Pose]) -> None:
    names = sorted(poses)
    rotations = np.array([poses[name].rotation for name in names]).reshape(-1, 3, 3)
    lines = []
    for name, q in zip(names, canonical_quaternions(rotations)):
        values = [*q, *poses[name].translation]
        lines.append(name + " " + " ".join(repr(float(v)) for v in values))
    Path(path).write_text("\n".join(lines) + "\n")


def load_intrinsics(path) -> dict[str, CameraIntrinsics]:
    """Parse `frame fx fy cx cy width height` lines.

    Frames whose six value fields are the same text share one (frozen)
    `CameraIntrinsics`; a row is parsed and checked at its first line.
    """
    path = Path(path)
    intrinsics: dict[str, CameraIntrinsics] = {}
    parsed: dict[tuple[str, ...], CameraIntrinsics] = {}
    for number, fields in read_fields(path):
        if len(fields) != 7:
            raise FormatError(path, f"expected 7 fields, got {len(fields)}", number)
        name, *values = fields
        if name in intrinsics:
            raise FormatError(path, f"duplicate frame {name!r}", number)
        key = tuple(values)
        if key not in parsed:
            try:
                fx, fy, cx, cy = (float(v) for v in values[:4])
                width, height = int(values[4]), int(values[5])
            except ValueError as exc:
                raise FormatError(path, f"non-numeric field: {exc}", number) from exc
            try:
                parsed[key] = CameraIntrinsics(fx, fy, cx, cy, width, height)
            except InvalidParameterError as exc:
                raise FormatError(path, str(exc), number) from exc
        intrinsics[name] = parsed[key]
    return intrinsics


def save_intrinsics(path, intrinsics: dict[str, CameraIntrinsics]) -> None:
    lines = [
        f"{name} {float(k.fx)!r} {float(k.fy)!r} {float(k.cx)!r} {float(k.cy)!r} {k.width} {k.height}"
        for name, k in sorted(intrinsics.items())
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def _match_layout(number, fields):
    return fields if len(fields) == 5 else f"expected 5 fields, got {len(fields)}"


def load_correspondences(path, k_ref: CameraIntrinsics, k_query: CameraIntrinsics) -> CorrespondenceSet:
    """Parse `u_ref v_ref u_query v_query score` lines; empty file = empty set.

    The file is read in one pass and the finiteness and image-bounds checks
    run as array masks.  On a malformed file the error names the first bad
    line, whatever its fault.
    """
    path = Path(path)
    table, fail = _read_table(path, ("field",) * 5, _match_layout)

    def outside(side, k, pixels):  # NaN counts as outside; the finiteness check comes first
        return [(row, f"{side} pixel ({pixels[row, 0]:g}, {pixels[row, 1]:g}) outside {k.width}x{k.height} image")
                for row in np.flatnonzero(~k.contains(pixels))[:1]]

    fail([
        *[(row, "non-finite value") for row in np.flatnonzero(~np.isfinite(table).all(axis=1))[:1]],
        *outside("reference", k_ref, table[:, 0:2]),
        *outside("query", k_query, table[:, 2:4]),
    ])
    return CorrespondenceSet(table[:, 0:2], table[:, 2:4], table[:, 4])


def save_correspondences(path, c: CorrespondenceSet) -> None:
    rows = np.column_stack([c.ref_px, c.query_px, c.scores]).tolist()
    lines = [" ".join(map(repr, row)) for row in rows]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


_STATUSES = {status.value: status for status in EstimateStatus}


def format_estimate_line(scene_id: str, query_id: str, estimate: PoseEstimate) -> str:
    if estimate.status is not EstimateStatus.OK:
        return f"{scene_id} {query_id} {estimate.status.value}"
    q = _quaternion_of_rotation(estimate.pose.rotation)  # Pose checked the rotation
    t = estimate.pose.translation
    confidence = "-" if estimate.confidence is None else repr(float(estimate.confidence))
    fields = [scene_id, query_id, "ok"] + [repr(float(v)) for v in (*q, *t)] + [confidence]
    return " ".join(fields)


def parse_estimates(path) -> list[tuple[str, str, PoseEstimate]]:
    """Parse the lines `format_estimate_line` writes.

    The file is read in one pass like a pose file: the numbers of all ok
    lines go through `float()` together and their poses are checked as one
    stack.  On a malformed file the error names the first bad line, whatever
    its fault.
    """
    path = Path(path)
    lines: list[tuple[str, str, EstimateStatus]] = []
    has_confidence: list[bool] = []  # per ok line
    first_lines: dict[tuple[str, str], int] = {}  # a repeated query would count twice in every rate

    def layout(number, fields):
        if len(fields) < 3:
            return "expected `scene query status ...`"
        scene_id, query_id, status_text = fields[:3]
        first = first_lines.setdefault((scene_id, query_id), number)
        if first != number:
            return f"repeated estimate for {scene_id} {query_id}, first given on line {first}"
        status = _STATUSES.get(status_text)
        if status is None:
            return f"unknown status {status_text!r}"
        if status is not EstimateStatus.OK:
            if len(fields) != 3:
                return f"{status_text} lines must have 3 fields"
            row = None
        elif len(fields) not in (10, 11):
            return f"ok lines need 10 or 11 fields, got {len(fields)}"
        else:  # seven pose fields and the confidence ("nan" when there is none)
            confidence = fields[10] if len(fields) == 11 else "-"
            has_confidence.append(confidence != "-")
            row = fields[3:10] + ["nan" if confidence == "-" else confidence]
        lines.append((scene_id, query_id, status))
        return row

    table, fail = _read_table(path, ("pose field",) * 7 + ("confidence",), layout)
    poses, faults = _pose_rows(table)
    bad_confidence = np.array(has_confidence[: len(table)], dtype=bool) & ~(table[:, 7] >= 0)  # NaN fails too
    fail([*faults, *[(row, "confidence must be a number >= 0") for row in np.flatnonzero(bad_confidence)[:1]]])

    confidences = [value if given else None for value, given in zip(table[:, 7].tolist(), has_confidence)]
    ok = iter(zip(poses, confidences))
    return [
        (scene_id, query_id, PoseEstimate(status, *next(ok)) if status is EstimateStatus.OK else PoseEstimate(status))
        for scene_id, query_id, status in lines
    ]


# --------------------------------------------------------------------------
# Depth map binary format
# --------------------------------------------------------------------------


def load_depth_map(path) -> DepthMap:
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise FormatError(path, f"cannot read file: {exc}") from exc
    if len(blob) < 12:
        raise FormatError(path, f"truncated header: {len(blob)} bytes, need 12")
    magic, width, height = struct.unpack("<4sII", blob[:12])
    if magic != DEPTH_MAGIC:
        raise FormatError(path, f"bad magic {magic!r}, expected {DEPTH_MAGIC!r}")
    if not width or not height:
        raise FormatError(path, f"depth map is {width}x{height}, need at least one pixel")
    expected = 12 + 4 * width * height
    if len(blob) != expected:
        raise FormatError(path, f"payload is {len(blob)} bytes, expected {expected} for {width}x{height}")
    values = np.frombuffer(blob, dtype="<f4", count=width * height, offset=12)
    return DepthMap(values.reshape(height, width))  # DepthMap takes the one float64 copy


def save_depth_map(path, depth: DepthMap) -> None:
    header = struct.pack("<4sII", DEPTH_MAGIC, depth.width, depth.height)
    with open(path, "wb") as file:  # the payload is written from the float32 array itself, not from a bytes copy
        file.write(header)
        file.write(np.ascontiguousarray(depth.values, dtype="<f4"))


# --------------------------------------------------------------------------
# Scene loading
# --------------------------------------------------------------------------


@dataclass
class SceneManifest:
    """One scene: a reference frame plus query frames, with parsed metadata."""

    scene_id: str
    root: Path
    reference: str
    queries: list[str]
    intrinsics: dict[str, CameraIntrinsics]
    poses: dict[str, Pose] | None  # None for estimate-only scenes

    @property
    def has_ground_truth(self) -> bool:
        return self.poses is not None

    def depth_path(self, frame: str) -> Path:
        return self.root / "depth" / f"{frame}.mfdm"

    def matches_path(self, query: str) -> Path:
        return self.root / "matches" / f"{query}.txt"

    def load_depth(self, frame: str) -> DepthMap:
        depth = load_depth_map(self.depth_path(frame))
        k = self.intrinsics[frame]
        if (depth.width, depth.height) != (k.width, k.height):
            raise FormatError(
                self.depth_path(frame),
                f"depth is {depth.width}x{depth.height} but intrinsics say {k.width}x{k.height}",
            )
        return depth

    def load_matches(self, query: str) -> CorrespondenceSet:
        return load_correspondences(
            self.matches_path(query), self.intrinsics[self.reference], self.intrinsics[query]
        )


def list_scenes(root) -> list[str]:
    root = Path(root)
    if not root.is_dir():
        raise FormatError(root, "dataset root is not a directory")
    return sorted(p.name for p in root.iterdir() if (p / "intrinsics.txt").is_file())


def load_scene(root, scene_id: str) -> SceneManifest:
    """Load and cross-validate one scene directory.

    The reference frame is the unique frame in intrinsics.txt without a
    matches file.  When poses.txt is present it must cover every frame and
    the reference pose must be the identity.
    """
    scene_root = Path(root) / scene_id
    intrinsics_path = scene_root / "intrinsics.txt"
    if not intrinsics_path.is_file():
        raise FormatError(intrinsics_path, "missing intrinsics file")
    intrinsics = load_intrinsics(intrinsics_path)

    matches_dir = scene_root / "matches"
    queries = []
    if matches_dir.is_dir():  # the entries `glob("*.txt")` lists, by their `stem`
        try:
            with os.scandir(matches_dir) as entries:
                names = [entry.name for entry in entries if entry.name.endswith(".txt")]
        except OSError as exc:
            raise FormatError(matches_dir, f"cannot list matches files: {exc}") from exc
        queries = sorted(name[:-4] if len(name) > 4 else name for name in names)  # ".txt" is its own stem
    if not queries:
        raise FormatError(matches_dir, "scene has no matches files")
    unknown = [q for q in queries if q not in intrinsics]
    if unknown:
        raise FormatError(intrinsics_path, f"queries missing intrinsics: {', '.join(unknown)}")
    non_query = sorted(set(intrinsics) - set(queries))
    if len(non_query) != 1:
        raise FormatError(
            intrinsics_path,
            f"expected exactly one non-query (reference) frame, found {len(non_query)}: {', '.join(non_query)}",
        )
    reference = non_query[0]

    poses = None
    poses_path = scene_root / "poses.txt"
    if poses_path.is_file():
        poses = load_poses(poses_path)
        missing = [f for f in [reference, *queries] if f not in poses]
        if missing:
            raise FormatError(poses_path, f"frames missing poses: {', '.join(missing)}")
        ref_pose = poses[reference]
        defect = max(
            float(np.abs(ref_pose.rotation - np.eye(3)).max()),
            float(np.abs(ref_pose.translation).max()),
        )
        if defect > _IDENTITY_POSE_TOL:
            raise FormatError(poses_path, f"reference pose deviates from identity by {defect:.3g}")

    return SceneManifest(scene_id, scene_root, reference, queries, intrinsics, poses)


# --------------------------------------------------------------------------
# Synthetic scenes
# --------------------------------------------------------------------------


_MARGIN_PX = 12.0  # generated pixels keep this far from the image border


@dataclass(frozen=True)
class SyntheticSceneConfig:
    """Controls for the ground-truth scene generator (the test oracle)."""

    num_points: int = 300
    num_queries: int = 1
    depth_range_m: tuple[float, float] = (3.0, 8.0)
    baseline_range_m: tuple[float, float] = (0.3, 1.2)
    rotation_perturb_deg: float = 5.0
    pixel_noise_px: float = 0.0
    outlier_fraction: float = 0.0
    depth_noise_sigma: float = 0.0
    depth_bias: float = 0.0
    rng_seed: int = 0
    focal_px: float = 500.0
    width: int = 640
    height: int = 480

    @parameter_check
    def __post_init__(self):
        for name in ("depth_range_m", "baseline_range_m"):  # a JSON list becomes a tuple
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if not len(self.depth_range_m) == len(self.baseline_range_m) == 2:
            raise InvalidParameterError("depth_range_m and baseline_range_m must be (low, high) pairs")
        values = (*vars(self).values(), *self.depth_range_m, *self.baseline_range_m)
        if any(isinstance(value, (bool, np.bool_)) for value in values):
            raise TypeError("no value may be a bool")
        counts = (self.num_points, self.num_queries, self.rng_seed, self.width, self.height)
        if not all(isinstance(count, (int, np.integer)) for count in counts):
            raise TypeError("num_points, num_queries, rng_seed, width and height must be integers")
        if self.num_points < 8 or self.num_queries < 1:
            raise InvalidParameterError("need at least 8 points and 1 query")
        if self.rng_seed < 0:  # np.random.default_rng takes no negative seed
            raise InvalidParameterError("rng_seed must be >= 0")
        if not (0 < self.depth_range_m[0] <= self.depth_range_m[1] < np.inf):  # NaN fails too
            raise InvalidParameterError("depth range must be finite, positive and ordered")
        if not (0 < self.baseline_range_m[0] <= self.baseline_range_m[1] < np.inf):
            raise InvalidParameterError("baseline range must be finite, positive and ordered")
        if not 0 < self.focal_px < np.inf:
            raise InvalidParameterError("focal_px must be finite and > 0")
        if not (0.0 <= self.outlier_fraction < 1.0):
            raise InvalidParameterError("outlier fraction must be in [0, 1)")
        if not (0 <= self.pixel_noise_px < np.inf and 0 <= self.depth_noise_sigma < np.inf):  # NaN fails too
            raise InvalidParameterError("noise levels must be finite and non-negative")
        if not 0 <= self.rotation_perturb_deg < np.inf:
            raise InvalidParameterError("rotation_perturb_deg must be finite and non-negative")
        if not -1 < self.depth_bias < np.inf:  # a bias of -1 or less leaves no valid depth
            raise InvalidParameterError("depth_bias must be finite and > -1")
        if min(self.width, self.height) <= 2 * _MARGIN_PX:
            raise InvalidParameterError(f"width and height must exceed twice the {_MARGIN_PX:g} px margin")

    def intrinsics(self) -> CameraIntrinsics:
        return CameraIntrinsics(
            self.focal_px, self.focal_px, self.width / 2.0, self.height / 2.0, self.width, self.height
        )


@dataclass
class SyntheticQuery:
    name: str
    pose: Pose  # ground-truth world(=reference)-to-query
    correspondences: CorrespondenceSet
    inlier_mask: np.ndarray  # True where the match is a genuine correspondence
    depth_query: DepthMap


@dataclass
class SyntheticScene:
    """In-memory scene: exact ground truth for every estimator input."""

    config: SyntheticSceneConfig
    intrinsics: CameraIntrinsics
    depth_ref: DepthMap
    queries: list[SyntheticQuery] = field(default_factory=list)


def _look_at(center: np.ndarray, target: np.ndarray) -> np.ndarray:
    """World-to-camera rotation for a camera at `center` looking at `target`."""
    forward = target - center
    forward = forward / np.linalg.norm(forward)
    up = np.array([0.0, -1.0, 0.0])  # negative image-v axis
    if abs(forward @ up) > 0.99:
        up = np.array([1.0, 0.0, 0.0])
    right = _cross(up, forward)
    right /= np.linalg.norm(right)
    down = _cross(forward, right)
    return np.vstack([right, down, forward])


def _repeated(keys: np.ndarray) -> np.ndarray:
    """Mask of the entries whose key occurs more than once."""
    _, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    return counts[inverse] > 1


def _first_claims(ref_keys: np.ndarray, query_keys: np.ndarray, inliers: np.ndarray) -> np.ndarray:
    """Mask of the rows kept when each row, in order, claims its reference pixel and, if an inlier, its query pixel.

    A row is kept when no earlier kept row holds a pixel it claims.  A row
    whose keys no other row shares is kept at once; the loop visits only the
    rows that share one.
    """
    shared = _repeated(ref_keys)
    shared[inliers] |= _repeated(query_keys[inliers])
    keep = ~shared
    ref_taken: set[int] = set()
    query_taken: set[int] = set()
    rows = np.flatnonzero(shared).tolist()
    for row, ref_key, query_key, inlier in zip(
        rows, ref_keys[rows].tolist(), query_keys[rows].tolist(), inliers[rows].tolist()
    ):
        if ref_key in ref_taken or (inlier and query_key in query_taken):
            continue
        ref_taken.add(ref_key)
        if inlier:
            query_taken.add(query_key)
        keep[row] = True
    return keep


def synth_scene(config: SyntheticSceneConfig) -> SyntheticScene:
    """Sample a scene whose estimator inputs have exact, known ground truth.

    Depth maps carry a valid value exactly at each kept correspondence's
    nearest pixel (the value is the true camera-frame depth of that match's
    3D point, optionally corrupted by the configured depth noise/bias).
    Injected outliers keep their reference pixel but get a uniform random
    query pixel and no query-side depth entry.

    A match is dropped when its pixel would collide with a different point's,
    so every kept match reads back its own depth.  The claims, in match (row)
    order within each query and query by query:

    - the first match of a point to reach a reference pixel owns it for the
      whole scene; a later match of another point there is dropped;
    - an inlier also claims its query pixel within its query; a later inlier
      there is dropped, and claims nothing;
    - an outlier claims no query pixel;
    - a depth that the noise clips to zero leaves its pixel invalid, so a
      later query's match of the same point there draws that depth again.

    With depth noise, each query draws its normals in one call after its
    other draws: each kept match takes its query depth's normal (inliers
    only), then its reference depth's (when it draws one), in row order.
    """
    rng = np.random.default_rng(config.rng_seed)
    k = config.intrinsics()
    margin = _MARGIN_PX

    ref_px = np.column_stack(
        [
            rng.uniform(margin, config.width - margin, config.num_points),
            rng.uniform(margin, config.height - margin, config.num_points),
        ]
    )
    depths = rng.uniform(*config.depth_range_m, config.num_points)
    points = backproject(k, ref_px, depths)  # reference frame == world frame
    centroid = points.mean(axis=0)

    def depth_values(true_depths: np.ndarray) -> np.ndarray:
        noisy = true_depths * (1.0 + config.depth_bias)
        if config.depth_noise_sigma > 0:  # one normal per depth, in order
            noisy *= 1.0 + config.depth_noise_sigma * rng.standard_normal(len(noisy))
        return np.maximum(noisy, 0.0)  # a clipped sample becomes an invalid pixel

    def pixel_keys(pixels: np.ndarray) -> np.ndarray:
        """Flat index of each in-image pixel's nearest depth pixel, clamped to the border as sample_nearest reads it."""
        u, v = pixel_index(pixels)
        return np.minimum(v, config.height - 1) * config.width + np.minimum(u, config.width - 1)

    ref_depth_values = np.zeros((config.height, config.width))
    ref_owner = np.full(ref_depth_values.size, -1)  # the point that owns each reference pixel, -1 for none
    queries = []

    for query_index in range(config.num_queries):
        pose = None
        visible = None
        for _ in range(64):
            direction = rng.standard_normal(3)
            direction /= np.linalg.norm(direction)
            center = direction * rng.uniform(*config.baseline_range_m)
            rotation = _look_at(center, centroid)
            if config.rotation_perturb_deg > 0:
                axis = rng.standard_normal(3)
                axis /= np.linalg.norm(axis)
                angle = np.radians(rng.uniform(0, config.rotation_perturb_deg))
                rotation = rotation_from_axis_angle(axis * angle) @ rotation
            candidate = Pose(rotation, -(rotation @ center))
            cam = candidate.transform(points)
            in_front = cam[:, 2] > 0.2
            px = np.full((config.num_points, 2), -1.0)
            px[in_front] = project(k, cam[in_front])
            in_frame = (
                in_front
                & (px[:, 0] >= margin)
                & (px[:, 0] < config.width - margin)
                & (px[:, 1] >= margin)
                & (px[:, 1] < config.height - margin)
            )
            if int(in_frame.sum()) >= max(12, config.num_points // 4):
                pose = candidate
                visible = in_frame
                query_px_true = px
                cam_points = cam
                break
        if pose is None:
            raise GenerationError("no query pose kept enough points in both frusta")

        indices = np.flatnonzero(visible)
        n = len(indices)
        noisy_ref = ref_px[indices] + (
            rng.normal(0.0, config.pixel_noise_px, (n, 2)) if config.pixel_noise_px > 0 else 0.0
        )
        noisy_query = query_px_true[indices] + (
            rng.normal(0.0, config.pixel_noise_px, (n, 2)) if config.pixel_noise_px > 0 else 0.0
        )
        outliers = rng.random(n) < config.outlier_fraction
        noisy_query[outliers] = np.column_stack(
            [
                rng.uniform(0, config.width - 1.0, int(outliers.sum())),
                rng.uniform(0, config.height - 1.0, int(outliers.sum())),
            ]
        )
        scores = rng.uniform(0.2, 1.0, n)

        rows = np.flatnonzero(k.contains(noisy_ref) & k.contains(noisy_query))
        point_ids = indices[rows]
        ref_keys = pixel_keys(noisy_ref[rows])
        owners = ref_owner[ref_keys]
        free = (owners < 0) | (owners == point_ids)  # an owned reference pixel never changes owner
        rows, point_ids, ref_keys = rows[free], point_ids[free], ref_keys[free]
        query_keys = pixel_keys(noisy_query[rows])
        inliers = ~outliers[rows]
        keep = _first_claims(ref_keys, query_keys, inliers)
        rows, point_ids, ref_keys, query_keys, inliers = (
            a[keep] for a in (rows, point_ids, ref_keys, query_keys, inliers)
        )
        ref_owner[ref_keys] = point_ids

        # the depths to draw in row order: each inlier's query depth, then its reference depth unless the
        # pixel already holds one (a kept reference pixel is unowned or its own point's: 0 or that point's depth)
        ref_draws = ref_depth_values.take(ref_keys) == 0.0
        counts = inliers + ref_draws.astype(int)
        query_slots = np.cumsum(counts) - counts
        ref_slots = query_slots + inliers
        true_depths = np.empty(int(counts.sum()))
        true_depths[query_slots[inliers]] = cam_points[point_ids[inliers], 2]
        true_depths[ref_slots[ref_draws]] = points[point_ids[ref_draws], 2]
        drawn = depth_values(true_depths)
        query_depth_values = np.zeros((config.height, config.width))
        query_depth_values.put(query_keys[inliers], drawn[query_slots[inliers]])
        ref_depth_values.put(ref_keys[ref_draws], drawn[ref_slots[ref_draws]])

        correspondences = CorrespondenceSet(noisy_ref[rows], noisy_query[rows], scores[rows])
        queries.append(
            SyntheticQuery(
                name=f"query{query_index:04d}",
                pose=pose,
                correspondences=correspondences,
                inlier_mask=inliers,
                depth_query=DepthMap._adopt(query_depth_values),
            )
        )

    # reference depth entries accumulate across queries, so the frozen map is built last
    return SyntheticScene(config, k, DepthMap._adopt(ref_depth_values), queries)


def synth_write(scene: SyntheticScene, root, scene_id: str) -> None:
    """Write an in-memory synthetic scene in the standard layout."""
    scene_root = Path(root) / scene_id
    (scene_root / "depth").mkdir(parents=True, exist_ok=True)
    (scene_root / "matches").mkdir(parents=True, exist_ok=True)

    reference = "reference"
    intrinsics = {reference: scene.intrinsics}
    poses = {reference: Pose.identity()}
    save_depth_map(scene_root / "depth" / f"{reference}.mfdm", scene.depth_ref)
    for query in scene.queries:
        intrinsics[query.name] = scene.intrinsics
        poses[query.name] = query.pose
        save_depth_map(scene_root / "depth" / f"{query.name}.mfdm", query.depth_query)
        save_correspondences(scene_root / "matches" / f"{query.name}.txt", query.correspondences)
    save_intrinsics(scene_root / "intrinsics.txt", intrinsics)
    save_poses(scene_root / "poses.txt", poses)
