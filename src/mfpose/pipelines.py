"""End-to-end metric relative-pose estimators.

Three variants, all consuming pixel correspondences between one reference
and one query image plus monocular depth and intrinsics:

* essmat-dscale: robust five-point essential matrix, cheirality-resolved
  decomposition, then a depth-backed consensus vote for the translation
  scale.
* pnp: reference pixels lifted to 3D with reference depth, robust P3P over
  the resulting 2D(query)-3D pairs, Gauss-Newton refinement on all inliers.
* procrustes: both images lifted to 3D, robust rigid alignment of the
  3D-3D pairs, final re-fit on all inliers.

Estimators never fabricate a pose: when the robust loop or the scale vote
fails they return a non-ok status instead.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import solvers
from .errors import (
    CheiralityError,
    DegenerateSampleError,
    InvalidParameterError,
    NoConsensusError,
    ScaleConsensusError,
)
from .geometry import CameraIntrinsics, Pose, backproject, normalized_coords
from .robust import RansacConfig, ScaleConsensusConfig, ransac, sampson_error, scale_consensus


@dataclass(frozen=True, eq=False)
class CorrespondenceSet:
    """2D-2D pixel matches between the reference and query image."""

    ref_px: np.ndarray  # (n, 2), finite
    query_px: np.ndarray  # (n, 2), finite
    scores: np.ndarray  # (n,), finite, nominally in [0, 1]

    def __post_init__(self):
        ref = np.asarray(self.ref_px, dtype=float).reshape(-1, 2)
        query = np.asarray(self.query_px, dtype=float).reshape(-1, 2)
        scores = np.asarray(self.scores, dtype=float).reshape(-1)
        if not (len(ref) == len(query) == len(scores)):
            raise InvalidParameterError("correspondence arrays must have equal length")
        if len(scores) and not np.all(np.isfinite(scores)):
            raise InvalidParameterError("match scores must be finite")
        if not (np.all(np.isfinite(ref)) and np.all(np.isfinite(query))):
            raise InvalidParameterError("match pixels must be finite")
        for arr in (ref, query, scores):
            arr.setflags(write=False)
        object.__setattr__(self, "ref_px", ref)
        object.__setattr__(self, "query_px", query)
        object.__setattr__(self, "scores", scores)

    def __len__(self) -> int:
        return len(self.scores)

    def distinct(self) -> "CorrespondenceSet":
        """The set with one match per (reference, query) pair of nearest-pixel cells, first kept, in order.

        Repeats, and near-copies in the same cells that depth is sampled at,
        would count as independent support in the robust loop.  A set without
        repeats is returned as is.
        """
        pairs = np.column_stack([*pixel_index(self.ref_px), *pixel_index(self.query_px)])
        order = np.lexsort(pairs.T[::-1])  # stable: equal rows stay in index order
        ordered = pairs[order]
        repeats = order[1:][np.all(ordered[1:] == ordered[:-1], axis=1)]
        if len(repeats) == 0:
            return self
        keep = np.ones(len(self), dtype=bool)
        keep[repeats] = False
        return CorrespondenceSet(self.ref_px[keep], self.query_px[keep], self.scores[keep])

    @staticmethod
    def empty() -> "CorrespondenceSet":
        return CorrespondenceSet(np.empty((0, 2)), np.empty((0, 2)), np.empty(0))


def pixel_index(pixels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-pixel (column, row) indices for (..., 2) pixel coordinates."""
    px = np.asarray(pixels, dtype=float)
    u = np.floor(px[..., 0] + 0.5).astype(int)
    v = np.floor(px[..., 1] + 0.5).astype(int)
    return u, v


@dataclass(frozen=True, eq=False)
class DepthMap:
    """Per-pixel metric depth in meters; non-positive or non-finite = invalid."""

    values: np.ndarray  # (height, width), row-major

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise InvalidParameterError("depth map must be a 2-D array")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    def sample_nearest(self, pixels: np.ndarray) -> np.ndarray:
        """Depth at the nearest pixel of each (n, 2) coordinate (no interpolation).

        Nearest-neighbor lookup avoids mixing foreground and background
        across depth discontinuities.  Out-of-range coordinates clamp to the
        border.
        """
        u, v = pixel_index(pixels)
        u = np.clip(u, 0, self.width - 1)
        v = np.clip(v, 0, self.height - 1)
        return self.values[v, u]

    @staticmethod
    def valid(depths: np.ndarray) -> np.ndarray:
        d = np.asarray(depths, dtype=float)
        return np.isfinite(d) & (d > 0)


class EstimateStatus(str, enum.Enum):
    OK = "ok"
    NO_ESTIMATE = "no_estimate"
    DEGENERATE_SCALE = "degenerate_scale"


@dataclass(frozen=True)
class PoseEstimate:
    """Metric query-relative-to-reference pose, or an explicit failure status."""

    status: EstimateStatus
    pose: Pose | None = None
    confidence: float | None = None

    def __post_init__(self):
        if (self.status is EstimateStatus.OK) != (self.pose is not None):
            raise InvalidParameterError("pose must be present exactly when status is ok")
        if self.confidence is not None and not self.confidence >= 0:  # NaN fails too
            raise InvalidParameterError("confidence must be a number >= 0")


_NO_ESTIMATE = PoseEstimate(EstimateStatus.NO_ESTIMATE)
_DEGENERATE_SCALE = PoseEstimate(EstimateStatus.DEGENERATE_SCALE)
_MIN_SCALE_SUPPORT = 5  # valid-depth inliers required before voting


@dataclass(frozen=True)
class EstimatorConfig:
    """Robust-loop and scale-vote parameters shared by the three estimators."""

    max_iterations: int = 10000
    confidence: float = 0.9999
    min_inliers: int = 5
    rng_seed: int = 0
    # None -> 4 / (geometric mean of the four focal lengths), in normalized units
    sampson_threshold: float | None = None
    pnp_threshold_px: float = 3.0
    procrustes_threshold_m: float = 0.15
    scale_relative_tolerance: float = 0.1

    def __post_init__(self):
        """Build every config the estimators build, so a bad value fails before any query runs."""
        for threshold in (self.sampson_threshold, self.pnp_threshold_px, self.procrustes_threshold_m):
            if threshold is not None:  # a None Sampson threshold is derived from the intrinsics
                self.ransac_config(threshold)
        self.scale_config()

    def ransac_config(self, threshold: float) -> RansacConfig:
        return RansacConfig(
            max_iterations=self.max_iterations,
            inlier_threshold=threshold,
            confidence=self.confidence,
            min_inliers=self.min_inliers,
            rng_seed=self.rng_seed,
        )

    def scale_config(self) -> ScaleConsensusConfig:
        return ScaleConsensusConfig(self.scale_relative_tolerance)


def _normalized_matches(c: CorrespondenceSet, k_ref: CameraIntrinsics, k_query: CameraIntrinsics) -> np.ndarray:
    return np.column_stack(
        [normalized_coords(k_ref, c.ref_px), normalized_coords(k_query, c.query_px)]
    )


def _transform(poses, points: np.ndarray) -> np.ndarray:
    """(M, n, 3) camera-frame points of (n, 3) world points under each of M (rotation, translation) pairs.

    Rounded as Pose.transform.
    """
    rotations, translations = (np.array(part) for part in zip(*poses))
    return points @ np.swapaxes(rotations, 1, 2) + translations[:, None, :]


def _plausible(points: np.ndarray) -> np.ndarray:
    """Mask of (n, 3) lifted points whose squared norm is finite; an implausible depth overflows it."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.isfinite(np.sum(points * points, axis=1))


def _lift_both(ref_px, query_px, depth_ref: DepthMap, depth_query: DepthMap, k_ref, k_query):
    """Camera-frame 3D points, on each side, of the matches with valid and plausible depth on both sides.

    Returns (ref points, query points, indices of those matches).
    """
    d_ref = depth_ref.sample_nearest(ref_px)
    d_query = depth_query.sample_nearest(query_px)
    valid = DepthMap.valid(d_ref) & DepthMap.valid(d_query)
    x_ref = backproject(k_ref, ref_px[valid], d_ref[valid])
    x_query = backproject(k_query, query_px[valid], d_query[valid])
    plausible = _plausible(x_ref) & _plausible(x_query)
    return x_ref[plausible], x_query[plausible], np.flatnonzero(valid)[plausible]


def _cell_count(pixels: np.ndarray) -> int:
    """How many distinct nearest-pixel cells the (n, 2) pixels fall in."""
    u, v = pixel_index(pixels)
    order = np.lexsort((v, u))
    u, v = u[order], v[order]
    return int(np.count_nonzero((u[1:] != u[:-1]) | (v[1:] != v[:-1]))) + min(len(u), 1)


def _fabricated(c: CorrespondenceSet, support, sample_size: int) -> bool:
    """Whether the matches c[support] cover fewer nearest-pixel cells, on either side, than a minimal sample.

    Every model through a shared pixel explains all the matches that share
    it (an essential matrix with its epipole there, a pose that puts the 3D
    points on its ray), so such support is fabricated.  Any consensus is a
    subset of the matches, so a match set that is fabricated as a whole is
    turned down before the robust loop.
    """
    return min(_cell_count(c.ref_px[support]), _cell_count(c.query_px[support])) < sample_size


def estimate_essmat_dscale(
    c: CorrespondenceSet,
    depth_ref: DepthMap,
    depth_query: DepthMap,
    k_ref: CameraIntrinsics,
    k_query: CameraIntrinsics,
    cfg: EstimatorConfig = EstimatorConfig(),
) -> PoseEstimate:
    """Essential matrix + depth scale (2D-2D matches, both depth maps).

    Depth enters only after the essential-matrix stage: matches with invalid
    depth on either side still vote for the epipolar geometry and the
    confidence, they are just excluded from the scale consensus.  The winning
    hypothesis is polished on its consensus set (Sampson refinement) before
    decomposition; minimal five-point fits alone are too noisy to meet the
    benchmark's accuracy regime.
    """
    c = c.distinct()
    if len(c) < 5 or _fabricated(c, slice(None), 5):
        return _NO_ESTIMATE
    data = _normalized_matches(c, k_ref, k_query)
    if cfg.sampson_threshold is not None:
        threshold = cfg.sampson_threshold
    else:
        threshold = 4.0 / float((k_ref.fx * k_ref.fy * k_query.fx * k_query.fy) ** 0.25)

    def refit(model, inliers):
        try:
            return solvers.refine_essential(model, inliers)
        except CheiralityError:
            return model

    try:
        # sampson_error scores a window's list of matrices as one (M, 3, 3) stack
        result = ransac(
            data, solvers.essential_five_point, sampson_error, 5, cfg.ransac_config(threshold), refit=refit
        )
    except NoConsensusError:
        return _NO_ESTIMATE
    if _fabricated(c, result.inlier_mask, 5):
        return _NO_ESTIMATE
    try:
        rotation, t_hat = solvers.decompose_essential(result.model, data[result.inlier_mask])
    except CheiralityError:
        return _NO_ESTIMATE

    x_ref, x_query, _ = _lift_both(
        c.ref_px[result.inlier_mask], c.query_px[result.inlier_mask], depth_ref, depth_query, k_ref, k_query
    )
    if len(x_ref) < _MIN_SCALE_SUPPORT:
        return _DEGENERATE_SCALE
    try:
        scale, _ = scale_consensus(x_ref, x_query, rotation, t_hat, cfg.scale_config())
    except ScaleConsensusError:
        return _DEGENERATE_SCALE
    pose = Pose(rotation, scale * t_hat)
    return PoseEstimate(EstimateStatus.OK, pose, float(result.inlier_count))


def estimate_pnp(
    c: CorrespondenceSet,
    depth_ref: DepthMap,
    k_ref: CameraIntrinsics,
    k_query: CameraIntrinsics,
    cfg: EstimatorConfig = EstimatorConfig(),
) -> PoseEstimate:
    """PnP over 2D query features and 3D points lifted from reference depth."""
    c = c.distinct()
    if len(c) < 4:
        return _NO_ESTIMATE
    d_ref = depth_ref.sample_nearest(c.ref_px)
    valid = DepthMap.valid(d_ref)
    points3d = backproject(k_ref, c.ref_px[valid], d_ref[valid])
    plausible = _plausible(points3d)
    lifted = np.flatnonzero(valid)[plausible]
    points3d, pixels = points3d[plausible], c.query_px[lifted]
    if len(points3d) < 4 or _fabricated(c, lifted, 3):
        return _NO_ESTIMATE
    data = np.column_stack([pixels, points3d])

    def solve(samples: np.ndarray) -> list[list[tuple[np.ndarray, np.ndarray]]]:
        return solvers.pnp_p3p(samples[:, :, 2:], normalized_coords(k_query, samples[:, :, :2]))

    def residuals(poses: list[tuple[np.ndarray, np.ndarray]], rows: np.ndarray) -> np.ndarray:
        cam = _transform(poses, rows[:, 2:])
        z = cam[:, :, 2]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # points behind score inf
            u = k_query.fx * cam[:, :, 0] / z + k_query.cx
            v = k_query.fy * cam[:, :, 1] / z + k_query.cy
            return np.where(z > 0, np.hypot(u - rows[:, 0], v - rows[:, 1]), np.inf)

    try:
        result = ransac(data, solve, residuals, 3, cfg.ransac_config(cfg.pnp_threshold_px))
    except NoConsensusError:
        return _NO_ESTIMATE
    if _fabricated(c, lifted[result.inlier_mask], 3):
        return _NO_ESTIMATE
    if result.inlier_count < 4:  # possible when min_inliers < 4; refine_pnp needs 4
        return _NO_ESTIMATE
    refined = solvers.refine_pnp(
        Pose(*result.model), points3d[result.inlier_mask], pixels[result.inlier_mask], k_query
    )
    return PoseEstimate(EstimateStatus.OK, refined.pose, float(result.inlier_count))


def estimate_procrustes(
    c: CorrespondenceSet,
    depth_ref: DepthMap,
    depth_query: DepthMap,
    k_ref: CameraIntrinsics,
    k_query: CameraIntrinsics,
    cfg: EstimatorConfig = EstimatorConfig(),
) -> PoseEstimate:
    """Rigid alignment of 3D-3D correspondences back-projected from both images."""
    c = c.distinct()
    if len(c) < 3:
        return _NO_ESTIMATE
    x_ref, x_query, lifted = _lift_both(c.ref_px, c.query_px, depth_ref, depth_query, k_ref, k_query)
    if len(x_ref) < 3 or _fabricated(c, lifted, 3):
        return _NO_ESTIMATE
    data = np.column_stack([x_ref, x_query])

    def solve(samples: np.ndarray) -> list[list[tuple[np.ndarray, np.ndarray]]]:
        rotations, translations, ok = solvers._kabsch(samples[:, :, :3], samples[:, :, 3:])
        return [[(r, t)] if aligned else [] for r, t, aligned in zip(rotations, translations, ok)]

    def residuals(poses: list[tuple[np.ndarray, np.ndarray]], rows: np.ndarray) -> np.ndarray:
        return np.linalg.norm(_transform(poses, rows[:, :3]) - rows[:, 3:], axis=2)

    try:
        result = ransac(data, solve, residuals, 3, cfg.ransac_config(cfg.procrustes_threshold_m))
    except NoConsensusError:
        return _NO_ESTIMATE
    if _fabricated(c, lifted[result.inlier_mask], 3):
        return _NO_ESTIMATE
    pose = Pose(*result.model)
    try:
        pose = solvers.procrustes_align(x_ref[result.inlier_mask], x_query[result.inlier_mask])
    except DegenerateSampleError:
        pass  # keep the minimal-sample model when the inlier re-fit degenerates
    return PoseEstimate(EstimateStatus.OK, pose, float(result.inlier_count))


ESTIMATOR_NAMES = ("essmat-dscale", "pnp", "procrustes")


def run_estimator(
    name: str,
    c: CorrespondenceSet,
    depth_ref: DepthMap,
    depth_query: DepthMap,
    k_ref: CameraIntrinsics,
    k_query: CameraIntrinsics,
    cfg: EstimatorConfig = EstimatorConfig(),
) -> PoseEstimate:
    """Dispatch an estimator by CLI name."""
    if name == "essmat-dscale":
        return estimate_essmat_dscale(c, depth_ref, depth_query, k_ref, k_query, cfg)
    if name == "pnp":
        return estimate_pnp(c, depth_ref, k_ref, k_query, cfg)
    if name == "procrustes":
        return estimate_procrustes(c, depth_ref, depth_query, k_ref, k_query, cfg)
    raise InvalidParameterError(f"unknown estimator {name!r}; expected one of {ESTIMATOR_NAMES}")
