"""Benchmark evaluation: pose errors, virtual-point reprojection, curves.

A query is scored against its ground-truth relative pose with three
numbers: rotation error in degrees, camera-center distance in meters, and
the mean pixel displacement of a virtual 3D point grid reprojected under
the estimated vs. true pose (VCRE).  Confidence sweeps turn scored records
into precision/ratio trade-off curves, and reports aggregate per-scene
medians, acceptance rates, and the VCRE distribution.

The protocol is fixed and defined once here: every score uses the one
virtual grid `GRID`, and every report and curve judges by the one set of
cut-offs `THRESHOLDS`, whose `selectors` name each acceptance criterion.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import groupby
from operator import attrgetter
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import InvalidParameterError
from .geometry import CameraIntrinsics, Pose, rotation_error_deg
from .pipelines import EstimateStatus, PoseEstimate

REPORT_SCHEMA_VERSION = 1
# Keys of each report "per_scene" row, in per-scene CSV column order.
PER_SCENE_FIELDS = (
    "scene_id", "queries", "ok", "median_rotation_error_deg", "median_translation_error_m", "median_vcre_px"
)
# Records per scoring pass, whose ok records are scored as one stack.  One
# stack for a whole file would make `evaluate`'s peak memory grow with it.
SCORE_BLOCK = 256


@dataclass(frozen=True)
class VirtualGrid:
    """Lattice of virtual AR anchor points in the query camera frame.

    Centered laterally and vertically on the optical axis; the nearest depth
    plane sits axial_offset meters in front of the camera.  These constants
    change absolute VCRE values, so reports embed them.  They are the
    benchmark's, so no field can be set: every score uses the one grid, `GRID`.
    """

    height_count: int = field(default=4, init=False)
    width_count: int = field(default=7, init=False)
    depth_count: int = field(default=7, init=False)
    spacing_m: float = field(default=0.30, init=False)
    axial_offset_m: float = field(default=1.8, init=False)


GRID = VirtualGrid()


def build_virtual_grid(grid: VirtualGrid = GRID) -> np.ndarray:
    """Grid points as an (h*w*d, 3) array in the query camera frame."""
    xs = (np.arange(grid.width_count) - (grid.width_count - 1) / 2.0) * grid.spacing_m
    ys = (np.arange(grid.height_count) - (grid.height_count - 1) / 2.0) * grid.spacing_m
    zs = grid.axial_offset_m + np.arange(grid.depth_count) * grid.spacing_m
    gy, gx, gz = np.meshgrid(ys, xs, zs, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])


_GRID_POINTS = build_virtual_grid(GRID)
_GRID_POINTS.flags.writeable = False


def score_poses(
    r_est: np.ndarray,
    t_est: np.ndarray,
    r_gt: np.ndarray,
    t_gt: np.ndarray,
    intrinsics: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rotation error (deg), camera-center distance (m) and VCRE (px) for each row of a stack.

    r_est, r_gt are (N, 3, 3) rotations, t_est, t_gt (N, 3) translations and
    intrinsics an (N, 5) array of fx, fy, cx, cy and image diagonal.  VCRE
    compares each `GRID` point v (in the true query camera frame) with its
    image under T_est @ T_gt^-1; the per-point error is capped at one image
    diagonal so points pushed to or behind the camera plane cannot make the
    average unbounded.  Rows are independent: each rounds as a stack of one.
    No intermediate transform is checked for being a proper rotation, so two
    valid poses always score.
    """
    # an estimate some 1e154 m or more off overflows: an inf centre distance, and a VCRE whose
    # overflowing displacements are capped at the diagonal like any other past it
    with np.errstate(over="ignore"):
        rotation_deg = rotation_error_deg(r_est, r_gt)
        center_est = -(np.swapaxes(r_est, -1, -2) @ t_est[..., None])
        center_gt = -(np.swapaxes(r_gt, -1, -2) @ t_gt[..., None])  # also T_gt^-1's translation
        shift = center_est - center_gt
        center_m = np.sqrt(np.swapaxes(shift, -1, -2) @ shift)[:, 0, 0]  # a BLAS dot per row, as np.linalg.norm

        points = _GRID_POINTS
        delta_r = r_est @ np.swapaxes(r_gt, -1, -2)
        delta_t = (r_est @ center_gt)[..., 0] + t_est
        moved = points @ np.swapaxes(delta_r, -1, -2) + delta_t[:, None, :]
        fx, fy, cx, cy, cap = (column[:, None] for column in intrinsics.T)
        u_ref = fx * points[:, 0] / points[:, 2] + cx
        v_ref = fy * points[:, 1] / points[:, 2] + cy
        front = moved[..., 2] > 0
        z = np.where(front, moved[..., 2], 1.0)
        du = fx * moved[..., 0] / z + cx - u_ref
        dv = fy * moved[..., 1] / z + cy - v_ref
        errors = np.where(front, np.minimum(np.hypot(du, dv), cap), cap)
        # identical transforms score exactly 0, without the rounding residue of T_est @ T_gt^-1
        same = (r_est == r_gt).all(axis=(-2, -1)) & (t_est == t_gt).all(axis=-1)
        vcre_px = np.where(same, 0.0, errors.mean(axis=-1))
    return rotation_deg, center_m, vcre_px


def vcre(pose_est: Pose, pose_gt: Pose, k_query: CameraIntrinsics) -> float:
    """Mean reprojection displacement of the virtual grid, in pixels (see `score_poses`)."""
    return score_queries([("", "", PoseEstimate(EstimateStatus.OK, pose_est), pose_gt, k_query)])[0].vcre_px


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


def score_queries(rows: Sequence[tuple[str, str, PoseEstimate, Pose, CameraIntrinsics]]) -> list[EvaluationRecord]:
    """One record per (scene_id, query_id, estimate, gt, k_query) row, in row order.

    The ok rows are scored SCORE_BLOCK at a time by `score_poses`.
    """
    records = []
    for start in range(0, len(rows), SCORE_BLOCK):
        block = rows[start:start + SCORE_BLOCK]
        ok = [(e.pose, gt, k) for _, _, e, gt, k in block if e.status is EstimateStatus.OK]
        if ok:
            intrinsics = np.array([(k.fx, k.fy, k.cx, k.cy, k.diagonal) for _, _, k in ok])
            scored = score_poses(
                np.array([pose.rotation for pose, _, _ in ok]),
                np.array([pose.translation for pose, _, _ in ok]),
                np.array([gt.rotation for _, gt, _ in ok]),
                np.array([gt.translation for _, gt, _ in ok]),
                intrinsics,
            )
            # rotation_error_deg, translation_error_m, vcre_px, image_diagonal_px per ok row
            errors = zip(*(column.tolist() for column in (*scored, intrinsics[:, 4])))
        for scene_id, query_id, estimate, _, _ in block:
            scores = next(errors) if estimate.status is EstimateStatus.OK else ()
            records.append(EvaluationRecord(scene_id, query_id, estimate.status, estimate.confidence, *scores))
    return records


def score_query(
    scene_id: str,
    query_id: str,
    estimate: PoseEstimate,
    gt: Pose,
    k_query: CameraIntrinsics,
) -> EvaluationRecord:
    """Populate all three error measures for an estimate, given ground truth."""
    return score_queries([(scene_id, query_id, estimate, gt, k_query)])[0]


@dataclass(frozen=True)
class Thresholds:
    """Acceptance cutoffs: VCRE as image-diagonal fractions, pose as (m, deg).

    They are the benchmark's, so no field can be set: every report and curve
    judges by the one set, `THRESHOLDS`, and reports embed it.
    """

    vcre_fractions: tuple[float, ...] = field(default=(0.05, 0.10), init=False)
    pose_translation_m: float = field(default=0.25, init=False)
    pose_rotation_deg: float = field(default=5.0, init=False)

    def selectors(self) -> dict[str, Callable[[EvaluationRecord], bool]]:
        """Each acceptance criterion's report name and predicate: the VCRE fractions in order, then the pose cutoffs."""
        selectors = {f"vcre_{f:g}": (lambda r, f=f: vcre_acceptable(r, f)) for f in self.vcre_fractions}
        selectors[f"pose_{self.pose_translation_m:g}m_{self.pose_rotation_deg:g}deg"] = pose_acceptable
        return selectors

    def vcre_cutoff_px(self, k: CameraIntrinsics) -> tuple[float, ...]:
        return tuple(f * k.diagonal for f in self.vcre_fractions)


THRESHOLDS = Thresholds()


def vcre_acceptable(record: EvaluationRecord, fraction: float) -> bool:
    if record.status is not EstimateStatus.OK:
        return False
    return record.vcre_px <= fraction * record.image_diagonal_px


def pose_acceptable(record: EvaluationRecord) -> bool:
    if record.status is not EstimateStatus.OK:
        return False
    return (
        record.translation_error_m <= THRESHOLDS.pose_translation_m
        and record.rotation_error_deg <= THRESHOLDS.pose_rotation_deg
    )


@dataclass
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
    `acceptable` is called once per ok record.  The ok records are ranked by
    one stable argsort, lowest confidence first; a threshold retains the
    records from the start of its run of equal confidences onward, and its
    hits are the total less the running hit count before that start.
    """
    if not records:
        raise InvalidParameterError("precision curve needs at least one record")
    total = len(records)
    ok = [r for r in records if r.status is EstimateStatus.OK]
    if not ok:
        return [CurvePoint(-np.inf, 0.0, None)]
    confidences = np.array([-np.inf if r.confidence is None else r.confidence for r in ok], dtype=float)
    hits = np.array([bool(acceptable(r)) for r in ok])
    order = confidences.argsort(kind="stable")  # a run's first record is its earliest, as in the old sort
    ranked, ranked_hits = confidences[order], hits[order]
    starts = np.concatenate(([0], (ranked[1:] != ranked[:-1]).nonzero()[0] + 1))
    starts = starts[np.isfinite(ranked[starts])]  # -inf is emitted first even when no record has it
    hit_total = int(np.count_nonzero(hits))
    retained = len(ok) - starts
    retained_hits = hit_total - ranked_hits.cumsum()[starts] + ranked_hits[starts]
    points = [CurvePoint(-np.inf, len(ok) / total, hit_total / len(ok))]
    points += map(
        CurvePoint, ranked[starts].tolist(), (retained / total).tolist(), (retained_hits / retained).tolist()
    )
    return points


def curve_auc(points: Sequence[CurvePoint]) -> float:
    """Area under precision-vs-ratio, trapezoidal over defined points.

    The segment from ratio 0 to the smallest defined ratio uses that point's
    precision (a step), so a flat single-point curve has AUC = precision * ratio.
    """
    defined = sorted((p for p in points if p.precision is not None), key=attrgetter("estimate_ratio"))
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
    meta: dict | None = None,
) -> dict:
    """Dataset-level report: per-scene medians, acceptance rates, curves, CDF.

    Acceptance rates are fractions of all records, failed estimates included
    (they count as not acceptable), which matches the precision-at-full-ratio
    reading: each is the hit count of its curve's -inf point, so a selector
    judges each ok record once.
    The returned dict is JSON-ready with stable field names.
    """
    records = sorted(records, key=lambda r: (r.scene_id, r.query_id))
    total = len(records)
    ok_records = [r for r in records if r.status is EstimateStatus.OK]

    selectors = THRESHOLDS.selectors()
    acceptance = dict.fromkeys(selectors, 0.0)
    curves = []
    auc = {}
    if records:
        for name, fn in selectors.items():
            points = precision_curve(records, fn)
            auc[name] = curve_auc(points)
            curves.append({"acceptance": name, "points": [vars(p) for p in points]})
            if ok_records:  # the -inf point retains every ok record, so this rounds back to the hit count
                acceptance[name] = round(points[0].precision * len(ok_records)) / total

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
    vcre_sorted = np.sort(np.array([r.vcre_px for r in ok_records], dtype=float), kind="stable")
    fractions = np.arange(1, len(ok_records) + 1) / total
    cdf = [{"vcre_px": v, "fraction": f} for v, f in zip(vcre_sorted.tolist(), fractions.tolist())]

    return {
        "meta": {
            "schema_version": REPORT_SCHEMA_VERSION,
            "grid": asdict(GRID),
            "thresholds": asdict(THRESHOLDS),
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
