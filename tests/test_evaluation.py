import dataclasses
from itertools import groupby
from operator import itemgetter

import numpy as np
import pytest

from mfpose import evaluation
from mfpose.errors import InvalidParameterError
from mfpose.evaluation import (
    CurvePoint,
    EvaluationRecord,
    Thresholds,
    VirtualGrid,
    aggregate_report,
    build_virtual_grid,
    curve_auc,
    pose_acceptable,
    precision_curve,
    score_queries,
    score_query,
    vcre,
    vcre_acceptable,
)
from mfpose.geometry import (
    CameraIntrinsics,
    Pose,
    camera_center,
    compose,
    rotation_defect,
    rotation_from_axis_angle,
)
from mfpose.pipelines import EstimateStatus, PoseEstimate

from conftest import axis_rotation, random_pose, random_rotation

K = CameraIntrinsics(500.0, 500.0, 320.0, 240.0, 640, 480)
K_TALL = CameraIntrinsics(480.0, 480.0, 270.0, 360.0, 540, 720)


def brute_force_vcre(pose_est, pose_gt, k, grid=VirtualGrid()):
    """Independent per-point oracle with explicit homogeneous matrices."""
    t_est = np.eye(4)
    t_est[:3, :3] = pose_est.rotation
    t_est[:3, 3] = pose_est.translation
    t_gt = np.eye(4)
    t_gt[:3, :3] = pose_gt.rotation
    t_gt[:3, 3] = pose_gt.translation
    delta = t_est @ np.linalg.inv(t_gt)
    cap = float(np.hypot(k.width, k.height))

    def pinhole(p):
        return np.array([k.fx * p[0] / p[2] + k.cx, k.fy * p[1] / p[2] + k.cy])

    errors = []
    for point in build_virtual_grid(grid):
        original = pinhole(point)
        moved = (delta @ np.append(point, 1.0))[:3]
        if moved[2] <= 0:
            errors.append(cap)
            continue
        errors.append(min(float(np.linalg.norm(pinhole(moved) - original)), cap))
    return float(np.mean(errors))


# ---------------------------------------------------------------------------
# virtual grid
# ---------------------------------------------------------------------------


def test_default_grid_has_196_points():
    points = build_virtual_grid(VirtualGrid())
    assert points.shape == (196, 3)
    # centered laterally/vertically; nearest plane at the axial offset
    assert abs(points[:, 0].mean()) < 1e-12
    assert abs(points[:, 1].mean()) < 1e-12
    assert points[:, 2].min() == pytest.approx(1.8)
    assert points[:, 2].max() == pytest.approx(1.8 + 6 * 0.30)
    assert len({tuple(p) for p in points.round(9).tolist()}) == 196


def test_the_grid_is_a_constant():
    with pytest.raises(TypeError):
        VirtualGrid(spacing_m=0.5)
    with pytest.raises(ValueError):
        dataclasses.replace(evaluation.GRID, spacing_m=0.5)
    assert dataclasses.asdict(evaluation.GRID) == {
        "height_count": 4, "width_count": 7, "depth_count": 7, "spacing_m": 0.3, "axial_offset_m": 1.8
    }


# ---------------------------------------------------------------------------
# VCRE
# ---------------------------------------------------------------------------


def test_vcre_zero_for_identical_poses(rng):
    for _ in range(5):
        pose = random_pose(rng)
        assert vcre(pose, pose, K) == 0.0


def test_vcre_matches_brute_force(rng):
    for _ in range(25):
        gt = random_pose(rng, max_angle_deg=60.0, translation_scale=1.0)
        est = random_pose(rng, max_angle_deg=60.0, translation_scale=1.0)
        assert vcre(est, gt, K) == pytest.approx(brute_force_vcre(est, gt, K), abs=1e-9)


def test_vcre_frame_change_invariance(rng):
    for _ in range(10):
        gt = random_pose(rng, max_angle_deg=40.0, translation_scale=0.5)
        est = random_pose(rng, max_angle_deg=40.0, translation_scale=0.5)
        g = random_pose(rng)
        value = vcre(est, gt, K)
        moved = vcre(compose(est, g), compose(gt, g), K)
        assert abs(value - moved) < 1e-9


def test_vcre_lateral_offset_closed_form():
    # pure lateral displacement delta: each grid point moves fx*delta/z pixels
    delta = 0.02
    est = Pose(np.eye(3), [delta, 0.0, 0.0])
    gt = Pose.identity()
    depths = 1.8 + 0.3 * np.arange(7)
    expected = K.fx * delta * np.mean(np.repeat(1.0 / depths, 28))
    assert vcre(est, gt, K) == pytest.approx(expected, abs=1e-12)


def test_vcre_caps_behind_camera_points():
    # 180 degree flip throws every grid point behind the camera
    est = Pose(np.diag([1.0, -1.0, -1.0]), np.zeros(3))
    assert vcre(est, Pose.identity(), K) == pytest.approx(K.diagonal)


def test_vcre_large_errors_capped_at_diagonal():
    est = Pose(np.eye(3), [50.0, 0.0, 0.0])
    assert vcre(est, Pose.identity(), K) <= K.diagonal + 1e-9


# ---------------------------------------------------------------------------
# thresholds: the paper's pixel cutoffs
# ---------------------------------------------------------------------------


def test_threshold_pixel_cutoffs():
    thresholds = Thresholds()
    assert thresholds.vcre_cutoff_px(K) == pytest.approx((40.0, 80.0))
    assert thresholds.vcre_cutoff_px(K_TALL) == pytest.approx((45.0, 90.0))
    assert thresholds.pose_translation_m == 0.25
    assert thresholds.pose_rotation_deg == 5.0
    # a record is judged at its own diagonal, with no rounding of the fraction
    record = EvaluationRecord("s", "q", EstimateStatus.OK, 1.0, 0.0, 0.0, 80.0000005, 800.0)
    assert not vcre_acceptable(record, 0.1) and vcre_acceptable(record, 0.100001)


# ---------------------------------------------------------------------------
# score_query
# ---------------------------------------------------------------------------


def test_score_query_perfect_estimate(rng):
    gt = random_pose(rng)
    record = score_query("s", "q", PoseEstimate(EstimateStatus.OK, gt, 12.0), gt, K)
    assert record.rotation_error_deg == 0.0
    assert record.translation_error_m == 0.0
    assert record.vcre_px == 0.0
    assert record.image_diagonal_px == 800.0
    assert record.confidence == 12.0


def test_score_query_failed_estimate_has_no_errors():
    record = score_query("s", "q", PoseEstimate(EstimateStatus.NO_ESTIMATE), Pose.identity(), K)
    assert record.status is EstimateStatus.NO_ESTIMATE
    assert record.rotation_error_deg is None
    assert record.vcre_px is None


def test_score_query_synthetic_perturbation():
    gt = Pose(axis_rotation("y", 10.0), np.array([0.0, 0.0, 1.0]))
    est = Pose(axis_rotation("z", 2.0) @ gt.rotation, gt.translation)
    record = score_query("s", "q", PoseEstimate(EstimateStatus.OK, est, 1.0), gt, K)
    assert record.rotation_error_deg == pytest.approx(2.0, abs=1e-9)
    # same translation, different rotation: centers -R^T t differ
    expected_t = np.linalg.norm(
        est.rotation.T @ est.translation - gt.rotation.T @ gt.translation
    )
    assert record.translation_error_m == pytest.approx(expected_t, abs=1e-12)


def test_score_query_far_off_estimate_is_inf_meters_off_without_a_warning(rng):
    # the squared centre distance overflows from about 1e154 m; tier 1 turns a numpy warning into a failure
    gt = random_pose(rng)
    for magnitude in (1e200, 1.7e308, -1.7e308):
        for t in ([magnitude, 0.0, 0.0], [0.0, 0.0, magnitude], [magnitude, 0.0, -magnitude]):
            for rotation in (np.eye(3), gt.rotation, random_rotation(rng)):
                est = Pose(rotation, np.array(t))
                record = score_query("s", "q", PoseEstimate(EstimateStatus.OK, est, 1.0), gt, K)
                assert record.translation_error_m == np.inf, (magnitude, t)
                assert 0.0 <= record.vcre_px <= K.diagonal, (magnitude, t)
                assert record.vcre_px == vcre(est, gt, K)


def test_score_query_scores_valid_poses_whose_product_is_off_tolerance():
    # each rotation is within ROTATION_TOL of proper, their product R_est @ R_gt^T is not
    est = Pose(axis_rotation("z", 10.0) * (1 + 3e-10), np.array([0.1, 0.0, 0.0]))
    gt = Pose(axis_rotation("z", -30.0) * (1 + 3e-10), np.zeros(3))
    assert rotation_defect(est.rotation @ gt.rotation.T) > 1e-9
    record = score_query("s", "q", PoseEstimate(EstimateStatus.OK, est, 1.0), gt, K)
    assert record.rotation_error_deg == pytest.approx(40.0, abs=1e-6)
    assert record.translation_error_m == pytest.approx(0.1, abs=1e-9)
    assert 0.0 < record.vcre_px == vcre(est, gt, K) <= K.diagonal


def _inverse(p):
    return Pose(p.rotation.T, -(p.rotation.T @ p.translation))


def one_record_reference(estimate, gt, k, grid=VirtualGrid()):
    """Per-record scoring as it was before stacking, kept to pin each row's rounding."""
    pose = estimate.pose
    cos = (np.trace(pose.rotation @ gt.rotation.T) - 1.0) / 2.0
    rotation = float(np.degrees(np.arccos(np.clip(cos, -1.0, 1.0))))
    translation = float(np.linalg.norm(camera_center(pose) - camera_center(gt)))
    if np.array_equal(pose.rotation, gt.rotation) and np.array_equal(pose.translation, gt.translation):
        return rotation, translation, 0.0, k.diagonal
    points = build_virtual_grid(grid)
    moved = compose(pose, _inverse(gt)).transform(points)
    cap = k.diagonal
    z_ref = points[:, 2]
    u_ref = k.fx * points[:, 0] / z_ref + k.cx
    v_ref = k.fy * points[:, 1] / z_ref + k.cy
    errors = np.full(len(points), cap)
    front = moved[:, 2] > 0
    if np.any(front):
        z = moved[front, 2]
        du = k.fx * moved[front, 0] / z + k.cx - u_ref[front]
        dv = k.fy * moved[front, 1] / z + k.cy - v_ref[front]
        errors[front] = np.minimum(np.hypot(du, dv), cap)
    return rotation, translation, float(errors.mean()), k.diagonal


def mixed_rows(rng, count):
    """Seeded (scene, query, estimate, gt, k) rows over every scoring regime, failures interleaved."""
    rows = []
    for i in range(count):
        gt = random_pose(rng, translation_scale=1.0)
        width, height = (int(v) for v in rng.integers(64, 2000, 2))
        k = CameraIntrinsics(float(rng.uniform(100.0, 2000.0)), float(rng.uniform(100.0, 2000.0)),
                             float(rng.uniform(0.0, width - 1)), float(rng.uniform(0.0, height - 1)), width, height)
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        kind = i % 8
        if kind == 0:  # identical transform
            est = Pose(gt.rotation.copy(), gt.translation.copy())
        elif kind == 1:  # rotation error near 0, where the clip can apply
            est = Pose(rotation_from_axis_angle(axis * rng.uniform(0.0, 1e-7)) @ gt.rotation,
                       gt.translation + rng.normal(0.0, 1e-3, 3))
        elif kind == 2:  # rotation error near 180
            est = Pose(rotation_from_axis_angle(axis * (np.pi - rng.uniform(0.0, 1e-7))) @ gt.rotation,
                       gt.translation)
        elif kind == 3:  # part of the grid pushed behind the camera
            est = Pose(gt.rotation, gt.translation + [0.0, 0.0, -rng.uniform(1.9, 3.5)])
        elif kind == 4:  # the whole grid behind the camera
            est = Pose(axis_rotation("x", 180.0) @ gt.rotation, gt.translation)
        elif kind == 5:
            rows.append((f"s{i % 5}", f"q{i}", PoseEstimate(EstimateStatus.NO_ESTIMATE), gt, k))
            continue
        elif kind == 6:
            rows.append((f"s{i % 5}", f"q{i}", PoseEstimate(EstimateStatus.DEGENERATE_SCALE), gt, k))
            continue
        else:
            est = Pose(random_rotation(rng, 60.0) @ gt.rotation, gt.translation + rng.normal(0.0, 0.5, 3))
        confidence = None if i % 3 == 0 else float(rng.uniform(0.0, 100.0))
        rows.append((f"s{i % 5}", f"q{i}", PoseEstimate(EstimateStatus.OK, est, confidence), gt, k))
    return rows


def test_stacked_scoring_rounds_each_row_as_the_one_record_code(rng, monkeypatch):
    rows = mixed_rows(rng, 2101)  # blocks of SCORE_BLOCK end mid-file and mid-regime
    records = score_queries(rows)
    assert [(r.scene_id, r.query_id, r.status, r.confidence) for r in records] == [
        (s, q, e.status, e.confidence) for s, q, e, _, _ in rows
    ]
    seen = set()
    for record, (_, _, estimate, gt, k) in zip(records, rows):
        if estimate.status is not EstimateStatus.OK:
            assert record.rotation_error_deg is record.vcre_px is record.image_diagonal_px is None
            continue
        got = (record.rotation_error_deg, record.translation_error_m, record.vcre_px, record.image_diagonal_px)
        want = one_record_reference(estimate, gt, k)
        assert [v.hex() for v in got] == [v.hex() for v in want], record.query_id
        pose = estimate.pose
        if np.array_equal(pose.rotation, gt.rotation) and np.array_equal(pose.translation, gt.translation):
            assert record.vcre_px == 0.0
            seen.add("identical")
        angle = record.rotation_error_deg
        seen.add("near 0" if angle < 1e-5 else "near 180" if angle > 179.99 else "")
        behind = np.count_nonzero(compose(pose, _inverse(gt)).transform(build_virtual_grid())[:, 2] <= 0)
        seen.add("all behind" if behind == 196 else "partly behind" if behind else "")
    assert {"identical", "near 0", "near 180", "all behind", "partly behind"} <= seen
    assert len({k.diagonal for *_, k in rows}) > 1000
    # another block size cuts the file elsewhere and changes no row
    monkeypatch.setattr(evaluation, "SCORE_BLOCK", 7)
    assert score_queries(rows) == records


def test_record_field_consistency_enforced():
    with pytest.raises(InvalidParameterError):
        EvaluationRecord("s", "q", EstimateStatus.OK)
    with pytest.raises(InvalidParameterError):
        EvaluationRecord("s", "q", EstimateStatus.NO_ESTIMATE, rotation_error_deg=1.0)
    for bad in (np.nan, -1.0, -np.inf):  # a sort has no place for NaN
        with pytest.raises(InvalidParameterError):
            EvaluationRecord("s", "q", EstimateStatus.NO_ESTIMATE, bad)
        with pytest.raises(InvalidParameterError):
            PoseEstimate(EstimateStatus.OK, Pose.identity(), bad)


# ---------------------------------------------------------------------------
# precision curves
# ---------------------------------------------------------------------------


def ok_record(confidence, vcre_px, scene="s", query="q"):
    return EvaluationRecord(
        scene, query, EstimateStatus.OK, confidence,
        rotation_error_deg=1.0, translation_error_m=0.1,
        vcre_px=vcre_px, image_diagonal_px=800.0,
    )


def brute_force_curve(records, acceptable):
    confidences = sorted(
        {r.confidence for r in records if r.status is EstimateStatus.OK and r.confidence is not None
         and np.isfinite(r.confidence)}
    )
    points = []
    for tau in [-np.inf] + confidences:
        retained = [
            r
            for r in records
            if r.status is EstimateStatus.OK
            and (r.confidence if r.confidence is not None else -np.inf) >= tau
        ]
        ratio = len(retained) / len(records)
        precision = sum(acceptable(r) for r in retained) / len(retained) if retained else None
        points.append((tau, ratio, precision))
    return points


def test_curve_all_acceptable():
    records = [ok_record(c, 10.0, query=f"q{c}") for c in (1.0, 2.0, 3.0)]
    points = precision_curve(records, lambda r: vcre_acceptable(r, 0.05))
    assert points[0] == CurvePoint(-np.inf, 1.0, 1.0)
    assert all(p.precision == 1.0 for p in points)


def test_curve_matches_brute_force_and_is_monotone():
    records = [
        ok_record(5.0, 10.0, query="a"),   # acceptable, high confidence
        ok_record(4.0, 10.0, query="b"),   # acceptable
        ok_record(3.0, 300.0, query="c"),  # not acceptable at 5%
        ok_record(1.0, 500.0, query="d"),  # not acceptable
        EvaluationRecord("s", "e", EstimateStatus.NO_ESTIMATE),
    ]
    acceptable = lambda r: vcre_acceptable(r, 0.05)
    points = precision_curve(records, acceptable)
    expected = brute_force_curve(records, acceptable)
    assert len(points) == len(expected)
    for point, (tau, ratio, precision) in zip(points, expected):
        assert point.confidence_threshold == tau
        assert point.estimate_ratio == pytest.approx(ratio)
        assert point.precision == (pytest.approx(precision) if precision is not None else None)
    ratios = [p.estimate_ratio for p in points]
    assert all(b <= a for a, b in zip(ratios, ratios[1:]))
    # hand-computed sweep: 4 ok of 5 total, acceptability (a, b) only
    assert ratios == [pytest.approx(v) for v in [0.8, 0.8, 0.6, 0.4, 0.2]]
    precisions = [p.precision for p in points]
    assert precisions == [pytest.approx(v) for v in [0.5, 0.5, 2 / 3, 1.0, 1.0]]


def mixed_records(seed=7, scenes=6, per_scene=60):
    """Shuffled records with tied, missing and +inf confidences and both failure statuses."""
    rng = np.random.default_rng(seed)
    records = []
    for s in range(scenes):
        for q in range(per_scene):
            draw = rng.random()
            scene, query = f"scene{s:02d}", f"q{q:03d}"
            if draw < 0.1:
                records.append(EvaluationRecord(scene, query, EstimateStatus.NO_ESTIMATE))
            elif draw < 0.15:
                records.append(EvaluationRecord(scene, query, EstimateStatus.DEGENERATE_SCALE, 3.0))
            else:
                confidence = [None, np.inf, float(rng.integers(5, 15)), float(rng.uniform(0, 100))][rng.integers(4)]
                records.append(EvaluationRecord(
                    scene, query, EstimateStatus.OK, confidence,
                    rotation_error_deg=float(rng.uniform(0, 10)), translation_error_m=float(rng.uniform(0, 0.5)),
                    vcre_px=float(rng.uniform(0, 120)), image_diagonal_px=800.0,
                ))
    rng.shuffle(records)
    return records


def test_curve_equals_brute_force_on_mixed_records():
    records = mixed_records()
    assert len(records) >= 300
    confidences = [r.confidence for r in records if r.status is EstimateStatus.OK]
    assert None in confidences and np.inf in confidences and len(set(confidences)) < len(confidences)
    for fraction in (0.05, 0.10):
        calls = []

        def acceptable(r, fraction=fraction):
            calls.append(r)
            return vcre_acceptable(r, fraction)

        points = precision_curve(records, acceptable)
        ok_records = [r for r in records if r.status is EstimateStatus.OK]
        assert len(calls) == len(ok_records) and set(map(id, calls)) == set(map(id, ok_records))
        expected = brute_force_curve(records, lambda r: vcre_acceptable(r, fraction))
        assert [(p.confidence_threshold, p.estimate_ratio, p.precision) for p in points] == expected


def groupby_curve(records, acceptable):
    """The sort-and-groupby sweep that `precision_curve` replaced, kept as its oracle."""
    total = len(records)
    ranked = sorted(
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
        if np.isfinite(confidence):
            points.append(CurvePoint(float(confidence), retained / total, hits / retained))
    points.append(CurvePoint(-np.inf, retained / total, hits / retained if retained else None))
    return points[::-1]


def one_record(status, confidence=None, vcre_px=10.0):
    if status is not EstimateStatus.OK:
        return [EvaluationRecord("s", "q", status)]
    return [ok_record(confidence, vcre_px)]


@pytest.mark.parametrize("records", [
    mixed_records(seed=3),
    mixed_records(seed=5, scenes=2, per_scene=7),
    [ok_record(c, v, query=f"q{i}") for i, (c, v) in enumerate([(2.0, 10.0), (2.0, 300.0), (1.0, 10.0), (2.0, 5.0)])],
    [ok_record(c, 10.0 * i, query=f"q{i}") for i, c in enumerate([None, 3.0, None, 3.0, 0.0, -0.0, 0.0])],
    [ok_record(c, 10.0, query=f"q{i}") for i, c in enumerate([-0.0, 0.0, np.inf, np.inf])],
    one_record(EstimateStatus.OK, 4.0),
    one_record(EstimateStatus.OK, None),
    one_record(EstimateStatus.OK, np.inf, 500.0),
    one_record(EstimateStatus.NO_ESTIMATE),
    one_record(EstimateStatus.DEGENERATE_SCALE),
], ids=["mixed", "mixed-small", "ties", "none-and-signed-zero", "zero-then-inf",
        "one-ok", "one-none", "one-inf-miss", "one-failed", "one-degenerate"])
def test_curve_equals_the_groupby_sweep_bit_for_bit(records):
    acceptable = lambda r: vcre_acceptable(r, 0.05)
    points, expected = precision_curve(records, acceptable), groupby_curve(records, acceptable)
    assert [repr(vars(p)) for p in points] == [repr(vars(p)) for p in expected]


def test_report_per_scene_equals_brute_force_grouping():
    records = mixed_records(seed=11)
    expected = []
    for scene_id in sorted({r.scene_id for r in records}):
        scene = [r for r in records if r.scene_id == scene_id]
        ok = [r for r in scene if r.status is EstimateStatus.OK]
        middle = (len(ok) - 1) // 2
        expected.append({
            "scene_id": scene_id, "queries": len(scene), "ok": len(ok),
            "median_rotation_error_deg": sorted(r.rotation_error_deg for r in ok)[middle],
            "median_translation_error_m": sorted(r.translation_error_m for r in ok)[middle],
            "median_vcre_px": sorted(r.vcre_px for r in ok)[middle],
        })
    assert aggregate_report(records)["per_scene"] == expected


def test_curve_confidence_free_single_point():
    records = [
        EvaluationRecord(
            "s", "a", EstimateStatus.OK, None,
            rotation_error_deg=0.1, translation_error_m=0.01, vcre_px=5.0, image_diagonal_px=800.0,
        ),
        EvaluationRecord("s", "b", EstimateStatus.NO_ESTIMATE),
    ]
    points = precision_curve(records, lambda r: vcre_acceptable(r, 0.05))
    assert len(points) == 1
    assert points[0].estimate_ratio == 0.5
    assert points[0].precision == 1.0


def test_curve_all_rejected():
    records = [EvaluationRecord("s", "a", EstimateStatus.NO_ESTIMATE)] * 3
    points = precision_curve(records, lambda r: True)
    assert len(points) == 1
    assert points[0].estimate_ratio == 0.0
    assert points[0].precision is None


def test_curve_needs_records():
    with pytest.raises(InvalidParameterError):
        precision_curve([], lambda r: True)


def test_curve_auc_flat_curve():
    assert curve_auc([CurvePoint(-np.inf, 0.5, 0.8)]) == pytest.approx(0.4)
    assert curve_auc([CurvePoint(-np.inf, 0.0, None)]) == 0.0


# ---------------------------------------------------------------------------
# aggregate report
# ---------------------------------------------------------------------------


def test_report_medians_lower_middle():
    records = [ok_record(1.0, v, scene="a", query=f"q{i}") for i, v in enumerate([4.0, 1.0, 3.0, 2.0])]
    report = aggregate_report(records)
    # even count: lower-middle element of [1, 2, 3, 4] is 2
    assert report["per_scene"][0]["median_vcre_px"] == 2.0


def test_report_scene_without_ok_records():
    records = [EvaluationRecord("a", "q0", EstimateStatus.NO_ESTIMATE)]
    report = aggregate_report(records)
    entry = report["per_scene"][0]
    assert entry["ok"] == 0
    assert entry["median_rotation_error_deg"] is None


def test_report_cdf_matches_sorted_oracle(rng):
    values = rng.uniform(0.0, 120.0, 31)
    records = [ok_record(1.0, v, query=f"q{i}") for i, v in enumerate(values)] + [
        EvaluationRecord("s", "fail", EstimateStatus.NO_ESTIMATE)
    ]
    report = aggregate_report(records)
    cdf = report["cdf"]
    expected = np.sort(values)
    assert [p["vcre_px"] for p in cdf] == pytest.approx(list(expected))
    assert [p["fraction"] for p in cdf] == pytest.approx([(i + 1) / 32 for i in range(31)])
    assert cdf[-1]["fraction"] < 1.0  # the failed query never enters the cdf


def test_report_acceptance_rates_recount():
    records = [
        ok_record(3.0, 30.0, query="a"),    # below 40 px and 80 px
        ok_record(2.0, 60.0, query="b"),    # below 80 px only
        ok_record(1.0, 500.0, query="c"),   # above both
        EvaluationRecord("s", "d", EstimateStatus.DEGENERATE_SCALE),
    ]
    report = aggregate_report(records)
    acceptance = report["summary"]["acceptance"]
    assert acceptance["vcre_0.05"] == pytest.approx(1 / 4)
    assert acceptance["vcre_0.1"] == pytest.approx(2 / 4)
    # looser threshold admits at least as much as the stricter one
    assert acceptance["vcre_0.1"] >= acceptance["vcre_0.05"]


def test_report_acceptance_equals_the_recount_bit_for_bit():
    records = mixed_records(seed=13)
    acceptance = aggregate_report(records)["summary"]["acceptance"]
    recount = {
        "vcre_0.05": sum(vcre_acceptable(r, 0.05) for r in records) / len(records),
        "vcre_0.1": sum(vcre_acceptable(r, 0.1) for r in records) / len(records),
        "pose_0.25m_5deg": sum(pose_acceptable(r, Thresholds()) for r in records) / len(records),
    }
    assert list(acceptance.items()) == list(recount.items())
    # 1/49 * 49 is 0.9999999999999999 in floating point: the hit count is rounded, not truncated
    one_of_49 = [ok_record(1.0, 10.0 if i == 0 else 500.0, query=f"q{i}") for i in range(49)]
    assert aggregate_report(one_of_49)["summary"]["acceptance"]["vcre_0.05"] == 1 / 49
    assert aggregate_report([EvaluationRecord("s", "q", EstimateStatus.NO_ESTIMATE)])["summary"]["acceptance"] == (
        dict.fromkeys(["vcre_0.05", "vcre_0.1", "pose_0.25m_5deg"], 0.0))


def test_report_pose_acceptance_uses_both_limits():
    good = Pose.identity()
    bad_rotation = Pose(axis_rotation("z", 10.0), np.zeros(3))
    records = [
        score_query("s", "a", PoseEstimate(EstimateStatus.OK, good, 1.0), Pose.identity(), K),
        score_query("s", "b", PoseEstimate(EstimateStatus.OK, bad_rotation, 2.0), Pose.identity(), K),
    ]
    assert pose_acceptable(records[0], Thresholds())
    assert not pose_acceptable(records[1], Thresholds())
    report = aggregate_report(records)
    assert report["summary"]["acceptance"]["pose_0.25m_5deg"] == pytest.approx(0.5)


def test_report_is_order_independent(rng):
    records = [ok_record(float(i), float(i), scene=f"s{i%3}", query=f"q{i}") for i in range(12)]
    report_a = aggregate_report(records)
    shuffled = list(records)
    rng.shuffle(shuffled)
    report_b = aggregate_report(shuffled)
    assert report_a == report_b
