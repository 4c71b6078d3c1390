"""Benchmark evaluation: pose errors, virtual-point reprojection, curves.

A query is scored against its ground-truth relative pose with three
numbers: rotation error in degrees, camera-center distance in meters, and
the mean pixel displacement of a virtual 3D point grid reprojected under
the estimated vs. true pose (VCRE).  Confidence sweeps turn scored records
into precision/ratio trade-off curves, and reports aggregate per-scene
medians, acceptance rates, and the VCRE distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import InvalidParameterError
from .geometry import CameraIntrinsics, Pose, compose, inverse, rotation_error_deg, translation_error_m
from .pipelines import EstimateStatus, PoseEstimate

REPORT_SCHEMA_VERSION = 1
# Keys of each report "per_scene" row, in per-scene CSV column order.
PER_SCENE_FIELDS = (
    "scene_id", "queries", "ok", "median_rotation_error_deg", "median_translation_error_m", "median_vcre_px"
)


@dataclass(frozen=True)
class VirtualGrid:
    """Lattice of virtual AR anchor points in the query camera frame.

    Centered laterally and vertically on the optical axis; the nearest depth
    plane sits axial_offset meters in front of the camera.  These constants
    change absolute VCRE values, so reports embed them.
    """

    height_count: int = 4
    width_count: int = 7
    depth_count: int = 7
    spacing_m: float = 0.30
    axial_offset_m: float = 1.8

    def __post_init__(self):
        if min(self.height_count, self.width_count, self.depth_count) < 1:
            raise InvalidParameterError("grid counts must be >= 1")
        if self.spacing_m <= 0:
            raise InvalidParameterError("grid spacing must be positive")

    def meta(self) -> dict:
        return {
            "height_count": self.height_count,
            "width_count": self.width_count,
            "depth_count": self.depth_count,
            "spacing_m": self.spacing_m,
            "axial_offset_m": self.axial_offset_m,
        }


def build_virtual_grid(grid: VirtualGrid = VirtualGrid()) -> np.ndarray:
    """Grid points as an (h*w*d, 3) array in the query camera frame."""
    xs = (np.arange(grid.width_count) - (grid.width_count - 1) / 2.0) * grid.spacing_m
    ys = (np.arange(grid.height_count) - (grid.height_count - 1) / 2.0) * grid.spacing_m
    zs = grid.axial_offset_m + np.arange(grid.depth_count) * grid.spacing_m
    gy, gx, gz = np.meshgrid(ys, xs, zs, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])


def vcre(
    pose_est: Pose,
    pose_gt: Pose,
    k_query: CameraIntrinsics,
    grid: VirtualGrid = VirtualGrid(),
) -> float:
    """Mean reprojection displacement of the virtual grid, in pixels.

    Each grid point v (in the true query camera frame) is compared with its
    image under T_est @ T_gt^-1; the per-point error is capped at one image
    diagonal so points pushed to or behind the camera plane cannot make the
    average unbounded.
    """
    points = build_virtual_grid(grid)
    if np.array_equal(pose_est.rotation, pose_gt.rotation) and np.array_equal(
        pose_est.translation, pose_gt.translation
    ):
        return 0.0  # identical transforms: skip the compose/inverse rounding residue
    delta = compose(pose_est, inverse(pose_gt))
    moved = delta.transform(points)
    cap = k_query.diagonal

    z_ref = points[:, 2]
    u_ref = k_query.fx * points[:, 0] / z_ref + k_query.cx
    v_ref = k_query.fy * points[:, 1] / z_ref + k_query.cy
    errors = np.full(len(points), cap)
    front = moved[:, 2] > 0
    if np.any(front):
        z = moved[front, 2]
        du = k_query.fx * moved[front, 0] / z + k_query.cx - u_ref[front]
        dv = k_query.fy * moved[front, 1] / z + k_query.cy - v_ref[front]
        errors[front] = np.minimum(np.hypot(du, dv), cap)
    return float(errors.mean())


@dataclass(frozen=True)
class EvaluationRecord:
    """Scored errors for one query; error fields are present only for ok status."""

    scene_id: str
    query_id: str
    status: EstimateStatus
    confidence: float | None = None
    rotation_error_deg: float | None = None
    translation_error_m: float | None = None
    vcre_px: float | None = None
    image_diagonal_px: float | None = None  # lets diagonal-relative thresholds vary per query

    def __post_init__(self):
        populated = self.rotation_error_deg is not None
        if (self.status is EstimateStatus.OK) != populated:
            raise InvalidParameterError("error fields must be present exactly for ok records")
        if self.confidence is not None and not self.confidence >= 0:  # NaN fails too
            raise InvalidParameterError("confidence must be a number >= 0")


def score_query(
    scene_id: str,
    query_id: str,
    estimate: PoseEstimate,
    gt: Pose,
    k_query: CameraIntrinsics,
    grid: VirtualGrid = VirtualGrid(),
) -> EvaluationRecord:
    """Populate all three error measures for an estimate, given ground truth."""
    if estimate.status is not EstimateStatus.OK:
        return EvaluationRecord(scene_id, query_id, estimate.status, estimate.confidence)
    pose = estimate.pose
    return EvaluationRecord(
        scene_id,
        query_id,
        EstimateStatus.OK,
        estimate.confidence,
        rotation_error_deg=rotation_error_deg(pose.rotation, gt.rotation),
        translation_error_m=translation_error_m(pose, gt),
        vcre_px=vcre(pose, gt, k_query, grid),
        image_diagonal_px=k_query.diagonal,
    )


@dataclass(frozen=True)
class Thresholds:
    """Acceptance cutoffs: VCRE as image-diagonal fractions, pose as (m, deg)."""

    vcre_fractions: tuple[float, ...] = (0.05, 0.10)
    pose_translation_m: float = 0.25
    pose_rotation_deg: float = 5.0

    def __post_init__(self):
        if any(f <= 0 for f in self.vcre_fractions) or self.pose_translation_m <= 0 or self.pose_rotation_deg <= 0:
            raise InvalidParameterError("thresholds must be positive")

    def vcre_cutoff_px(self, k_or_diagonal) -> tuple[float, ...]:
        diagonal = k_or_diagonal.diagonal if isinstance(k_or_diagonal, CameraIntrinsics) else float(k_or_diagonal)
        return tuple(f * diagonal for f in self.vcre_fractions)

    def meta(self) -> dict:
        return {
            "vcre_fractions": list(self.vcre_fractions),
            "pose_translation_m": self.pose_translation_m,
            "pose_rotation_deg": self.pose_rotation_deg,
        }


def vcre_acceptable(record: EvaluationRecord, fraction: float) -> bool:
    if record.status is not EstimateStatus.OK:
        return False
    return record.vcre_px <= fraction * record.image_diagonal_px


def pose_acceptable(record: EvaluationRecord, thresholds: Thresholds) -> bool:
    if record.status is not EstimateStatus.OK:
        return False
    return (
        record.translation_error_m <= thresholds.pose_translation_m
        and record.rotation_error_deg <= thresholds.pose_rotation_deg
    )


@dataclass(frozen=True)
class CurvePoint:
    confidence_threshold: float
    estimate_ratio: float
    precision: float | None  # None when nothing survives the threshold


def precision_curve(
    records: Sequence[EvaluationRecord],
    acceptable: Callable[[EvaluationRecord], bool],
) -> list[CurvePoint]:
    """Precision vs. retained-ratio sweep over confidence thresholds.

    The sweep visits -inf plus every distinct finite confidence, ascending, so
    the estimate ratio is non-increasing along the returned list.  Records that
    are not ok are never retained, ok records without a confidence only at -inf,
    so estimators with no confidences produce a single-point (flat) curve.
    """
    if not records:
        raise InvalidParameterError("precision curve needs at least one record")
    total = len(records)
    ranked = sorted(  # acceptable is called once per ok record
        ((-np.inf if r.confidence is None else r.confidence, bool(acceptable(r)))
         for r in records if r.status is EstimateStatus.OK),
        key=itemgetter(0), reverse=True,
    )
    points = []
    retained = hits = 0
    for confidence, group in groupby(ranked, key=itemgetter(0)):
        for _, hit in group:
            retained += 1
            hits += hit
        if np.isfinite(confidence):  # -inf is emitted below even when no record has it
            points.append(CurvePoint(float(confidence), retained / total, hits / retained))
    points.append(CurvePoint(-np.inf, retained / total, hits / retained if retained else None))
    return points[::-1]


def curve_auc(points: Sequence[CurvePoint]) -> float:
    """Area under precision-vs-ratio, trapezoidal over defined points.

    The segment from ratio 0 to the smallest defined ratio uses that point's
    precision (a step), so a flat single-point curve has AUC = precision * ratio.
    """
    defined = sorted((p for p in points if p.precision is not None), key=lambda p: p.estimate_ratio)
    if not defined:
        return 0.0
    area = defined[0].estimate_ratio * defined[0].precision
    for a, b in zip(defined, defined[1:]):
        area += (b.estimate_ratio - a.estimate_ratio) * 0.5 * (a.precision + b.precision)
    return float(area)


def _median_low(values: Iterable[float]) -> float:
    """Lower-middle median: deterministic, no interpolation for even counts."""
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


def aggregate_report(
    records: Sequence[EvaluationRecord],
    thresholds: Thresholds = Thresholds(),
    grid: VirtualGrid = VirtualGrid(),
    meta: dict | None = None,
) -> dict:
    """Dataset-level report: per-scene medians, acceptance rates, curves, CDF.

    Acceptance rates are fractions of *all* queries (failed estimates count
    as not acceptable), which matches the precision-at-full-ratio reading.
    The returned dict is JSON-ready with stable field names.
    """
    records = sorted(records, key=lambda r: (r.scene_id, r.query_id))
    total = len(records)
    ok_records = [r for r in records if r.status is EstimateStatus.OK]

    selectors: dict[str, Callable[[EvaluationRecord], bool]] = {
        f"vcre_{fraction:g}": (lambda r, f=fraction: vcre_acceptable(r, f))
        for fraction in thresholds.vcre_fractions
    }
    selectors[f"pose_{thresholds.pose_translation_m:g}m_{thresholds.pose_rotation_deg:g}deg"] = (
        lambda r: pose_acceptable(r, thresholds)
    )

    acceptance = {
        name: (sum(1 for r in records if fn(r)) / total if total else 0.0)
        for name, fn in selectors.items()
    }
    curves = []
    auc = {}
    if records:
        for name, fn in selectors.items():
            points = precision_curve(records, fn)
            auc[name] = curve_auc(points)
            curves.append({"acceptance": name, "points": [vars(p) for p in points]})

    per_scene = []
    for scene_id, group in groupby(records, key=attrgetter("scene_id")):
        scene_records = list(group)
        scene_ok = [r for r in scene_records if r.status is EstimateStatus.OK]
        entry = dict.fromkeys(PER_SCENE_FIELDS)
        entry.update(scene_id=scene_id, queries=len(scene_records), ok=len(scene_ok))
        if scene_ok:
            entry["median_rotation_error_deg"] = _median_low(r.rotation_error_deg for r in scene_ok)
            entry["median_translation_error_m"] = _median_low(r.translation_error_m for r in scene_ok)
            entry["median_vcre_px"] = _median_low(r.vcre_px for r in scene_ok)
        per_scene.append(entry)

    # CDF over all queries: failed estimates never contribute, so the curve
    # saturates at ok/total rather than 1 when rejections exist.
    cdf = [
        {"vcre_px": value, "fraction": (i + 1) / total}
        for i, value in enumerate(sorted(r.vcre_px for r in ok_records))
    ]

    return {
        "meta": {
            "schema_version": REPORT_SCHEMA_VERSION,
            "grid": grid.meta(),
            "thresholds": thresholds.meta(),
            **(meta or {}),
        },
        "summary": {
            "total_queries": total,
            "ok_queries": len(ok_records),
            "acceptance": acceptance,
            "auc": auc,
        },
        "per_scene": per_scene,
        "curves": curves,
        "cdf": cdf,
    }
