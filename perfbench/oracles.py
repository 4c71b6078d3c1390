"""Reference computations the benchmark checks the program against.

Everything here is written from the protocol in the repository README, with
numpy and the standard library only; nothing is imported from `mfpose`, so a
fault in the program cannot hide in its own oracle.  Each `check_*` function
raises `CheckFailed` naming the first value that disagrees.
"""

from __future__ import annotations

import math

import numpy as np

# Acceptance thresholds of the evaluation protocol.
POSE_THRESHOLD_M = 0.25
POSE_THRESHOLD_DEG = 5.0
VCRE_FRACTIONS = (0.05, 0.10)

# Median accuracy a robust estimator must reach on the benchmark's scenes.
MEDIAN_ROTATION_DEG = 1.0
MEDIAN_TRANSLATION_M = 0.05
MEDIAN_SCALE_RELATIVE = 0.05
# Share of a robust estimator's estimates that may lie outside the pose
# threshold, as acceptance criterion 2 lets 5% of them fail: at 40%
# outliers a query with a short baseline can put an `ok` essential-matrix
# estimate just outside it (2.9 deg / 0.263 m at a 0.34 m baseline).
OUTSIDE_SHARE = 0.05


class CheckFailed(AssertionError):
    """The program's output disagrees with the benchmark's own computation."""


# --------------------------------------------------------------------------
# Poses
# --------------------------------------------------------------------------


def rotation_angle_deg(r_a: np.ndarray, r_b: np.ndarray) -> float:
    """Angle of r_a @ r_b.T, from its axis-angle form (stable at small angles)."""
    d = np.asarray(r_a, dtype=float) @ np.asarray(r_b, dtype=float).T
    sin_half_vec = np.array([d[2, 1] - d[1, 2], d[0, 2] - d[2, 0], d[1, 0] - d[0, 1]])
    return math.degrees(math.atan2(0.5 * float(np.linalg.norm(sin_half_vec)), 0.5 * (float(np.trace(d)) - 1.0)))


def camera_center(rotation: np.ndarray, translation: np.ndarray) -> np.ndarray:
    return -(np.asarray(rotation, dtype=float).T @ np.asarray(translation, dtype=float))


def pose_errors(r_est, t_est, r_gt, t_gt) -> tuple[float, float]:
    """(rotation error in degrees, camera-centre distance in meters)."""
    distance = float(np.linalg.norm(camera_center(r_est, t_est) - camera_center(r_gt, t_gt)))
    return rotation_angle_deg(r_est, r_gt), distance


def scale_error(t_est, t_gt) -> float:
    """Relative error of the translation length (the metric scale)."""
    truth = float(np.linalg.norm(t_gt))
    return abs(float(np.linalg.norm(t_est)) - truth) / truth


def rotation_about(axis: np.ndarray, angle_deg: float) -> np.ndarray:
    """Rodrigues rotation by angle_deg about the unit vector axis."""
    a = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    k = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])
    theta = math.radians(angle_deg)
    return np.eye(3) + math.sin(theta) * k + (1.0 - math.cos(theta)) * (k @ k)


def check_pose_accuracy(label: str, errors: list[tuple[float, float, float]]) -> None:
    """At most OUTSIDE_SHARE of the estimates outside the pose threshold; medians within the robustness bounds.

    errors holds (rotation_deg, translation_m, scale_relative) per query.
    """
    outside = [(rot, trans) for rot, trans, _ in errors
               if not (rot <= POSE_THRESHOLD_DEG and trans <= POSE_THRESHOLD_M)]
    if len(outside) > OUTSIDE_SHARE * len(errors):
        rot, trans = outside[0]
        raise CheckFailed(f"{label}: {len(outside)} of {len(errors)} poses outside the acceptance threshold, "
                          f"first {rot:.3f} deg / {trans:.3f} m")
    columns = list(zip(*errors))
    limits = (MEDIAN_ROTATION_DEG, MEDIAN_TRANSLATION_M, MEDIAN_SCALE_RELATIVE)
    for name, values, limit in zip(("rotation", "translation", "scale"), columns, limits):
        value = float(np.median(values))
        if not value < limit:
            raise CheckFailed(f"{label}: median {name} error {value:.4g} is not below {limit}")


# --------------------------------------------------------------------------
# Virtual-grid reprojection error (README "Evaluation protocol")
# --------------------------------------------------------------------------


def _virtual_grid() -> np.ndarray:
    """4 high x 7 wide x 7 deep, 30 cm spacing, nearest plane 1.8 m ahead."""
    points = []
    for row in range(4):
        for col in range(7):
            for depth in range(7):
                points.append(((col - 3) * 0.30, (row - 1.5) * 0.30, 1.8 + depth * 0.30))
    return np.array(points)


VIRTUAL_GRID = _virtual_grid()


def vcre_px(r_est, t_est, r_gt, t_gt, fx, fy, cx, cy, diagonal) -> float:
    """Mean pixel displacement of the grid, each point capped at the image diagonal."""
    grid = VIRTUAL_GRID
    r_gt = np.asarray(r_gt, dtype=float)
    world = (grid - np.asarray(t_gt, dtype=float)) @ r_gt  # R_gt^T (v - t_gt), row-wise
    moved = world @ np.asarray(r_est, dtype=float).T + np.asarray(t_est, dtype=float)
    errors = np.full(len(grid), float(diagonal))
    front = moved[:, 2] > 0
    m, v = moved[front], grid[front]
    du = fx * m[:, 0] / m[:, 2] - fx * v[:, 0] / v[:, 2]
    dv = fy * m[:, 1] / m[:, 2] - fy * v[:, 1] / v[:, 2]
    errors[front] = np.minimum(np.sqrt(du * du + dv * dv), diagonal)
    return float(errors.mean())


# --------------------------------------------------------------------------
# Acceptance, curves, AUC, medians: brute force over scored records
# --------------------------------------------------------------------------


def acceptance_names() -> list[str]:
    return [f"vcre_{f:g}" for f in VCRE_FRACTIONS] + [f"pose_{POSE_THRESHOLD_M:g}m_{POSE_THRESHOLD_DEG:g}deg"]


def acceptable(record: dict, name: str) -> bool:
    """record: {"ok", "confidence", "rot", "trans", "vcre", "diagonal", "scene"}."""
    if not record["ok"]:
        return False
    if name.startswith("vcre_"):
        return record["vcre"] <= float(name[len("vcre_"):]) * record["diagonal"]
    return record["trans"] <= POSE_THRESHOLD_M and record["rot"] <= POSE_THRESHOLD_DEG


def acceptance_rate(records: list[dict], name: str) -> float:
    return sum(1 for r in records if acceptable(r, name)) / len(records)


def curve(records: list[dict], name: str) -> list[tuple[float, float, float | None]]:
    """(threshold, retained ratio, precision) at -inf and at every distinct confidence.

    Brute force: every threshold rescans all records.
    """
    ok = [r for r in records if r["ok"]]
    confidence = np.array([-math.inf if r["confidence"] is None else r["confidence"] for r in ok])
    good = np.array([acceptable(r, name) for r in ok], dtype=bool)
    points = []
    for tau in [-math.inf, *sorted(set(confidence[np.isfinite(confidence)].tolist()))]:
        kept = confidence >= tau
        retained = int(kept.sum())
        hits = int(good[kept].sum())
        points.append((tau, retained / len(records), hits / retained if retained else None))
    return points


def auc(points: list[tuple[float, float, float | None]]) -> float:
    """Precision over retained ratio: a step from 0 to the first point, then trapezoids."""
    defined = sorted((p for p in points if p[2] is not None), key=lambda p: p[1])
    if not defined:
        return 0.0
    area = defined[0][1] * defined[0][2]
    for (_, r0, p0), (_, r1, p1) in zip(defined, defined[1:]):
        area += (r1 - r0) * (p0 + p1) / 2.0
    return area


def median_low(values) -> float:
    """Lower-middle element: no interpolation for even counts."""
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


def _close(a, b, tol) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= tol


def check_record(label: str, got: tuple[float, float, float], want: tuple[float, float, float]) -> None:
    """Program's (rotation, translation, vcre) for one record against the benchmark's."""
    for name, g, w, tol in zip(("rotation_deg", "translation_m", "vcre_px"), got, want, (1e-6, 1e-9, 1e-6)):
        if not _close(g, w, tol):
            raise CheckFailed(f"{label}: {name} {g!r} != expected {w!r}")


def check_report(report: dict, records: list[dict]) -> None:
    """An `mfpose evaluate` JSON report against brute-force recomputation."""
    summary = report["summary"]
    if summary["total_queries"] != len(records):
        raise CheckFailed(f"report counts {summary['total_queries']} queries, expected {len(records)}")
    if summary["ok_queries"] != sum(1 for r in records if r["ok"]):
        raise CheckFailed("report ok_queries differs from the number of ok records")
    names = acceptance_names()
    if sorted(summary["acceptance"]) != sorted(names):
        raise CheckFailed(f"report acceptance keys {sorted(summary['acceptance'])} != {sorted(names)}")
    curves = {c["acceptance"]: c["points"] for c in report["curves"]}
    for name in names:
        want = acceptance_rate(records, name)
        if summary["acceptance"][name] != want:
            raise CheckFailed(f"acceptance {name}: {summary['acceptance'][name]!r} != {want!r}")
        expected = curve(records, name)
        got = curves.get(name, [])
        if len(got) != len(expected):
            raise CheckFailed(f"curve {name}: {len(got)} points, expected {len(expected)}")
        for point, (tau, ratio, precision) in zip(got, expected):
            if (point["confidence_threshold"], point["estimate_ratio"], point["precision"]) != (tau, ratio, precision):
                raise CheckFailed(f"curve {name}: point {point} != {(tau, ratio, precision)}")
        if not _close(summary["auc"][name], auc(expected), 1e-12):
            raise CheckFailed(f"auc {name}: {summary['auc'][name]!r} != {auc(expected)!r}")
    scenes = sorted({r["scene"] for r in records})
    if [row["scene_id"] for row in report["per_scene"]] != scenes:
        raise CheckFailed("per-scene rows do not list the record scenes in order")
    for row in report["per_scene"]:
        scene = [r for r in records if r["scene"] == row["scene_id"]]
        ok = [r for r in scene if r["ok"]]
        if (row["queries"], row["ok"]) != (len(scene), len(ok)):
            raise CheckFailed(f"scene {row['scene_id']}: counts {row['queries']}/{row['ok']}")
        for field, key, tol in (
            ("median_rotation_error_deg", "rot", 1e-6),
            ("median_translation_error_m", "trans", 1e-9),
            ("median_vcre_px", "vcre", 1e-6),
        ):
            want = median_low(r[key] for r in ok) if ok else None
            if not _close(row[field], want, tol):
                raise CheckFailed(f"scene {row['scene_id']}: {field} {row[field]!r} != {want!r}")
    cdf = report["cdf"]
    values = sorted(r["vcre"] for r in records if r["ok"])
    if len(cdf) != len(values):
        raise CheckFailed(f"cdf has {len(cdf)} points, expected {len(values)}")
    for i, (point, value) in enumerate(zip(cdf, values)):
        if not _close(point["vcre_px"], value, 1e-6) or point["fraction"] != (i + 1) / len(records):
            raise CheckFailed(f"cdf point {i}: {point} != ({value}, {(i + 1) / len(records)})")
