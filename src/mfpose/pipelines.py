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
    parameter_check,
)
from .geometry import CameraIntrinsics, Pose, backproject, normalized_coords
from .robust import EstimatorConfig, ScaleConsensusConfig, ransac, sampson_error, scale_consensus


@dataclass(frozen=True, eq=False)
class CorrespondenceSet:
    """2D-2D pixel matches between the reference and query image."""

    ref_px: np.ndarray  # (n, 2), finite, below 2^32 in magnitude
    query_px: np.ndarray  # (n, 2), finite, below 2^32 in magnitude
    scores: np.ndarray  # (n,), finite, nominally in [0, 1]

    @parameter_check
    def __post_init__(self):
        ref = np.asarray(self.ref_px, dtype=float).reshape(-1, 2)
        query = np.asarray(self.query_px, dtype=float).reshape(-1, 2)
        scores = np.asarray(self.scores, dtype=float).reshape(-1)
        if not (len(ref) == len(query) == len(scores)):
            raise InvalidParameterError("correspondence arrays must have equal length")
        if len(scores) and not np.all(np.isfinite(scores)):
            raise InvalidParameterError("match scores must be finite")
        # NaN fails the comparison too; larger pixels overflow pixel_index's integer cast
        if not (np.all(np.abs(ref) < 2.0**32) and np.all(np.abs(query) < 2.0**32)):
            raise InvalidParameterError("match pixels must be finite and below 2^32 in magnitude")
        for arr in (ref, query, scores):
            arr.setflags(write=False)
        object.__setattr__(self, "ref_px", ref)
        object.__setattr__(self, "query_px", query)
        object.__setattr__(self, "scores", scores)

    def __len__(self) -> int:
        return len(self.scores)


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

    @parameter_check
    def __post_init__(self):
        with np.errstate(invalid="ignore"):  # a signaling NaN is an invalid pixel like any NaN
            values = np.array(self.values, dtype=float, order="C")  # the map's own copy, never a view
        if values.ndim != 2 or values.size == 0:  # sample_nearest needs a pixel to clamp to
            raise InvalidParameterError("depth map must be a 2-D array with at least one pixel")
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

    @parameter_check
    def __post_init__(self):
        if (self.status is EstimateStatus.OK) != (self.pose is not None):
            raise InvalidParameterError("pose must be present exactly when status is ok")
        if self.confidence is not None and not self.confidence >= 0:  # NaN fails too
            raise InvalidParameterError("confidence must be a number >= 0")


_MIN_SCALE_SUPPORT = 5  # valid-depth inliers required before voting


def _transform(poses, points: np.ndarray) -> np.ndarray:
    """(M, n, 3) camera-frame points of (n, 3) world points under each of M (rotation, translation) pairs.

    Rounded as Pose.transform.
    """
    rotations, translations = (np.array(part) for part in zip(*poses))
    return points @ np.swapaxes(rotations, 1, 2) + translations[:, None, :]


def _lift(k: CameraIntrinsics, pixels: np.ndarray, depth: DepthMap) -> tuple[np.ndarray, np.ndarray]:
    """Camera-frame 3D points of (n, 2) pixels at their nearest-pixel depth, and the mask of the valid and plausible ones.

    A depth is implausible when it overflows the point's squared norm.  Rows
    outside the mask are zero.
    """
    d = depth.sample_nearest(pixels)
    valid = DepthMap.valid(d)
    points = np.zeros((len(d), 3))
    with np.errstate(over="ignore", invalid="ignore"):
        points[valid] = backproject(k, pixels[valid], d[valid])
        return points, valid & np.isfinite(np.sum(points * points, axis=1))


def _cell_ids(pixels: np.ndarray) -> np.ndarray:
    """A label 0, 1, ... per distinct nearest-pixel cell of the (n, 2) pixels, for each pixel."""
    u, v = pixel_index(pixels)
    order = np.lexsort((v, u))
    u, v = u[order], v[order]
    ids = np.empty(len(order), dtype=np.intp)
    ids[order] = np.cumsum(np.concatenate([[True], (u[1:] != u[:-1]) | (v[1:] != v[:-1])])) - 1
    return ids


def _fabricated(cells: tuple[np.ndarray, np.ndarray], support, sample_size: int) -> bool:
    """Whether the matches at `support` cover fewer nearest-pixel cells, on either side, than a minimal sample.

    cells holds the _cell_ids labels of the reference and the query pixels.
    Every model through a shared pixel explains all the matches that share
    it (an essential matrix with its epipole there, a pose that puts the 3D
    points on its ray), so such support is fabricated.  Any consensus is a
    subset of the matches, so a match set that is fabricated as a whole is
    turned down before the robust loop.
    """
    return min(np.count_nonzero(np.bincount(ids[support])) for ids in cells) < sample_size


def _collinear(points: np.ndarray) -> bool:
    """Whether the (n, d) points lie on one line (or coincide): centred, their second singular value is at most 1e-6 of the first.

    That is the relative 1e-12 rule of solvers._kabsch on their scatter
    matrix, whose singular values are these squared; the unsquared ones
    cannot overflow.
    """
    s = np.linalg.svd(points - points.mean(axis=0), compute_uv=False)
    return bool(s[1] <= 1e-6 * s[0])


_ARGUMENT_TYPES = dict(c=CorrespondenceSet, depth_ref=DepthMap, depth_query=DepthMap,
                       k_ref=CameraIntrinsics, k_query=CameraIntrinsics, cfg=EstimatorConfig)


def _check_arguments(arguments: dict) -> None:
    """Turn down an estimator's arguments, as locals() holds them on entry, when one has the wrong type (None too)."""
    for name, value in arguments.items():
        if not isinstance(value, _ARGUMENT_TYPES[name]):
            raise InvalidParameterError(f"{name} must be a {_ARGUMENT_TYPES[name].__name__}, got {type(value).__name__}")


def _robust_estimate(
    c: CorrespondenceSet,
    cfg: EstimatorConfig,
    threshold: float,
    sample_size: int,
    lift,
    solve,
    residuals,
    sides: tuple[slice, ...],
    finish,
    refit=None,
) -> PoseEstimate:
    """Lift, sample, solve, score, refit and finish: the recipe the three estimators share.

    Each side's pixels are labelled by cell once (_cell_ids), and only the
    first match of each (reference cell, query cell) pair is kept, in order:
    repeats, and near-copies in the same cells that depth is sampled at,
    would count as independent support.  lift(c) gives an (n, d) data row
    for each kept match and the mask of the rows to keep.  Rows through
    too few pixels (_fabricated), fewer than a minimal sample among them,
    are turned down before the robust loop, and so is a consensus through
    too few.
    Each slice of `sides` holds the data columns of one image's points.
    When a window of `solve` gives no model and the points of some side are
    collinear (_collinear), every minimal sample fails, so the loop stops
    there (a solvable query never asks).  finish(model, inlier rows, their
    reference pixels, their query pixels) makes the pose.

    The one place that maps failures to statuses: NoConsensusError and
    CheiralityError become no_estimate, ScaleConsensusError degenerate_scale.
    """
    cells = (_cell_ids(c.ref_px), _cell_ids(c.query_px))
    _, first = np.unique(cells[0] * len(c) + cells[1], return_index=True)
    if len(first) < len(c):
        first.sort()
        c = CorrespondenceSet(c.ref_px[first], c.query_px[first], c.scores[first])
        cells = (cells[0][first], cells[1][first])
    try:
        rows, kept = lift(c)
        data, index = rows[kept], np.flatnonzero(kept)
        if _fabricated(cells, index, sample_size):
            raise NoConsensusError(f"the lifted matches cover fewer than {sample_size} pixels on a side")

        def checked(samples: np.ndarray):
            model_lists = solve(samples)
            if not any(model_lists) and any(_collinear(data[:, side]) for side in sides):
                raise NoConsensusError("every minimal sample of the match set is degenerate")
            return model_lists

        result = ransac(data, checked, residuals, sample_size, threshold, cfg, refit=refit)
        support = index[result.inlier_mask]
        # a consensus of every lifted row is the set the check above passed
        if len(support) < len(index) and _fabricated(cells, support, sample_size):
            raise NoConsensusError("the consensus covers fewer distinct pixels than a minimal sample")
        pose = finish(result.model, data[result.inlier_mask], c.ref_px[support], c.query_px[support])
    except (NoConsensusError, CheiralityError):
        return PoseEstimate(EstimateStatus.NO_ESTIMATE)
    except ScaleConsensusError:
        return PoseEstimate(EstimateStatus.DEGENERATE_SCALE)
    return PoseEstimate(EstimateStatus.OK, pose, float(result.inlier_count))


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
    _check_arguments(locals())
    threshold = cfg.sampson_threshold
    if threshold is None:
        root = float((k_ref.fx * k_ref.fy * k_query.fx * k_query.fy) ** 0.25)
        if not 0 < root < np.inf:  # the product under- or overflows at extreme focal lengths
            raise InvalidParameterError("sampson_threshold has no default for these focal lengths; set it")
        threshold = 4.0 / root

    def lift(c: CorrespondenceSet):
        normalized = np.column_stack([normalized_coords(k_ref, c.ref_px), normalized_coords(k_query, c.query_px)])
        return normalized, np.ones(len(c), dtype=bool)

    def refit(model, inliers):
        try:
            return solvers.refine_essential(model, inliers)
        except CheiralityError:
            return model

    def finish(e, inliers, ref_px, query_px):
        rotation, t_hat = solvers.decompose_essential(e, inliers)
        x_ref, valid_ref = _lift(k_ref, ref_px, depth_ref)
        x_query, valid_query = _lift(k_query, query_px, depth_query)
        both = valid_ref & valid_query
        if np.count_nonzero(both) < _MIN_SCALE_SUPPORT:
            raise ScaleConsensusError(f"fewer than {_MIN_SCALE_SUPPORT} inliers have depth on both sides")
        vote = ScaleConsensusConfig(cfg.scale_relative_tolerance)
        scale, _ = scale_consensus(x_ref[both], x_query[both], rotation, t_hat, vote)
        return Pose(rotation, scale * t_hat)

    # sampson_error scores a window's list of matrices as one (M, 3, 3) stack; collinear
    # pixels on either image put the scene points on a plane through that camera's centre
    sides = (slice(0, 2), slice(2, 4))
    return _robust_estimate(c, cfg, threshold, 5, lift, solvers.essential_five_point, sampson_error, sides, finish, refit)


def estimate_pnp(
    c: CorrespondenceSet,
    depth_ref: DepthMap,
    k_ref: CameraIntrinsics,
    k_query: CameraIntrinsics,
    cfg: EstimatorConfig = EstimatorConfig(),
) -> PoseEstimate:
    """PnP over 2D query features and 3D points lifted from reference depth."""
    _check_arguments(locals())

    def lift(c: CorrespondenceSet):
        points3d, lifted = _lift(k_ref, c.ref_px, depth_ref)
        return np.column_stack([c.query_px, points3d]), lifted

    def p3p(samples: np.ndarray) -> list[list[tuple[np.ndarray, np.ndarray]]]:
        return solvers.pnp_p3p(samples[:, :, 2:], normalized_coords(k_query, samples[:, :, :2]))

    def residuals(poses: list[tuple[np.ndarray, np.ndarray]], rows: np.ndarray) -> np.ndarray:
        cam = _transform(poses, rows[:, 2:])
        z = cam[:, :, 2]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # points behind score inf
            u = k_query.fx * cam[:, :, 0] / z + k_query.cx
            v = k_query.fy * cam[:, :, 1] / z + k_query.cy
            return np.where(z > 0, np.hypot(u - rows[:, 0], v - rows[:, 1]), np.inf)

    def finish(model, inliers, *_):
        if len(inliers) < 4:  # possible when min_inliers < 4; refine_pnp needs 4
            raise NoConsensusError(f"{len(inliers)} inliers are too few to refine a pose")
        return solvers.refine_pnp(Pose(*model), inliers[:, 2:], inliers[:, :2], k_query).pose

    return _robust_estimate(c, cfg, cfg.pnp_threshold_px, 3, lift, p3p, residuals, (slice(2, 5),), finish)


def estimate_procrustes(
    c: CorrespondenceSet,
    depth_ref: DepthMap,
    depth_query: DepthMap,
    k_ref: CameraIntrinsics,
    k_query: CameraIntrinsics,
    cfg: EstimatorConfig = EstimatorConfig(),
) -> PoseEstimate:
    """Rigid alignment of 3D-3D correspondences back-projected from both images."""
    _check_arguments(locals())

    def lift(c: CorrespondenceSet):
        x_ref, valid_ref = _lift(k_ref, c.ref_px, depth_ref)
        x_query, valid_query = _lift(k_query, c.query_px, depth_query)
        return np.column_stack([x_ref, x_query]), valid_ref & valid_query

    def kabsch(samples: np.ndarray) -> list[list[tuple[np.ndarray, np.ndarray]]]:
        rotations, translations, ok = solvers._kabsch(samples[:, :, :3], samples[:, :, 3:])
        return [[(r, t)] if aligned else [] for r, t, aligned in zip(rotations, translations, ok)]

    def residuals(poses: list[tuple[np.ndarray, np.ndarray]], rows: np.ndarray) -> np.ndarray:
        return np.linalg.norm(_transform(poses, rows[:, :3]) - rows[:, 3:], axis=2)

    def finish(model, inliers, *_):
        try:
            return solvers.procrustes_align(inliers[:, :3], inliers[:, 3:])
        except DegenerateSampleError:
            return Pose(*model)  # keep the minimal-sample model when the inlier re-fit degenerates

    sides = (slice(0, 3), slice(3, 6))
    return _robust_estimate(c, cfg, cfg.procrustes_threshold_m, 3, lift, kabsch, residuals, sides, finish)


ESTIMATOR_NAMES = ("essmat-dscale", "pnp", "procrustes")


def run_estimator(
    name: str,
    c: CorrespondenceSet,
    depth_ref: DepthMap,
    depth_query: DepthMap | None,
    k_ref: CameraIntrinsics,
    k_query: CameraIntrinsics,
    cfg: EstimatorConfig = EstimatorConfig(),
) -> PoseEstimate:
    """Dispatch an estimator by CLI name; only pnp reads no depth_query, so only pnp accepts None for it."""
    if name == "pnp":
        return estimate_pnp(c, depth_ref, k_ref, k_query, cfg)
    if name not in ESTIMATOR_NAMES:
        raise InvalidParameterError(f"unknown estimator {name!r}; expected one of {ESTIMATOR_NAMES}")
    if name == "essmat-dscale":
        return estimate_essmat_dscale(c, depth_ref, depth_query, k_ref, k_query, cfg)
    return estimate_procrustes(c, depth_ref, depth_query, k_ref, k_query, cfg)
