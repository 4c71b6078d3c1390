"""Each oracle agrees with the program on correct output and rejects a planted wrong value.

    python3 -m pytest -q perfbench/tests
"""

import copy
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import oracles  # noqa: E402
from oracles import CheckFailed  # noqa: E402

from mfpose.evaluation import EvaluationRecord, aggregate_report, vcre  # noqa: E402
from mfpose.geometry import CameraIntrinsics, Pose, rotation_from_axis_angle  # noqa: E402
from mfpose.pipelines import EstimateStatus  # noqa: E402

K = CameraIntrinsics(500.0, 500.0, 320.0, 240.0, 640, 480)


def perturbed(gt: Pose, angle_deg: float, shift_m: float, rng) -> Pose:
    rotation = oracles.rotation_about(rng.standard_normal(3), angle_deg) @ gt.rotation
    direction = rng.standard_normal(3)
    center = oracles.camera_center(gt.rotation, gt.translation) + shift_m * direction / np.linalg.norm(direction)
    return Pose(rotation, -(rotation @ center))


def random_pose(rng) -> Pose:
    return Pose(rotation_from_axis_angle(rng.normal(0.0, 0.3, 3)), rng.normal(0.0, 0.5, 3))


def test_pose_errors_match_the_applied_perturbation():
    rng = np.random.default_rng(0)
    gt = random_pose(rng)
    est = perturbed(gt, 2.0, 0.1, rng)
    rot, trans = oracles.pose_errors(est.rotation, est.translation, gt.rotation, gt.translation)
    assert rot == pytest.approx(2.0, abs=1e-9)
    assert trans == pytest.approx(0.1, abs=1e-12)


def test_pose_accuracy_rejects_planted_errors():
    good = [(0.2, 0.02, 0.01)] * 9
    oracles.check_pose_accuracy("ok", good)
    with pytest.raises(CheckFailed, match="outside the acceptance threshold"):
        oracles.check_pose_accuracy("one bad", good + [(6.0, 0.02, 0.01)])
    with pytest.raises(CheckFailed, match="2 of 30 poses outside the acceptance threshold"):
        oracles.check_pose_accuracy("two bad", good * 3 + [(0.2, 0.3, 0.01), (6.0, 0.02, 0.01)] + good[:1])
    oracles.check_pose_accuracy("one bad in twenty", good * 2 + [(0.2, 0.3, 0.01)] + good[:1])
    with pytest.raises(CheckFailed, match="median scale"):
        oracles.check_pose_accuracy("biased scale", [(0.2, 0.02, 0.06)] * 9)


def test_vcre_matches_program_and_rejects_planted_value():
    rng = np.random.default_rng(1)
    for angle, shift in ((0.3, 0.01), (4.0, 0.2), (40.0, 1.5)):
        gt = random_pose(rng)
        est = perturbed(gt, angle, shift, rng)
        want = oracles.vcre_px(est.rotation, est.translation, gt.rotation, gt.translation,
                               K.fx, K.fy, K.cx, K.cy, K.diagonal)
        assert vcre(est, gt, K) == pytest.approx(want, abs=1e-9)
    oracles.check_record("same", (1.0, 0.1, want), (1.0, 0.1, want))
    with pytest.raises(CheckFailed, match="vcre_px"):
        oracles.check_record("planted", (1.0, 0.1, want + 1e-3), (1.0, 0.1, want))
    with pytest.raises(CheckFailed, match="rotation_deg"):
        oracles.check_record("planted", (1.0 + 1e-4, 0.1, want), (1.0, 0.1, want))


def bench_records() -> list[dict]:
    """Two scenes with even record counts, mixed acceptance, one failure, distinct confidences."""
    rng = np.random.default_rng(2)
    records = []
    for scene in ("a", "b"):
        for i in range(6):
            record = {"scene": scene, "query": f"q{i}", "diagonal": K.diagonal}
            if scene == "b" and i == 5:
                record.update(ok=False, confidence=None, rot=None, trans=None, vcre=None)
            else:
                record.update(ok=True, confidence=float(rng.uniform(0, 100)), rot=float(rng.uniform(0.1, 9.0)),
                              trans=float(rng.uniform(0.01, 0.5)), vcre=float(rng.uniform(5.0, 120.0)))
            records.append(record)
    return records


def program_report(records: list[dict]) -> dict:
    scored = [
        EvaluationRecord(r["scene"], r["query"], EstimateStatus.OK, r["confidence"], r["rot"], r["trans"],
                         r["vcre"], r["diagonal"])
        if r["ok"] else EvaluationRecord(r["scene"], r["query"], EstimateStatus.NO_ESTIMATE)
        for r in records
    ]
    return json.loads(json.dumps(aggregate_report(scored)))


def planted(report: dict, edit) -> dict:
    wrong = copy.deepcopy(report)
    edit(wrong)
    return wrong


def test_report_oracles_accept_the_program_report():
    records = bench_records()
    oracles.check_report(program_report(records), records)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda r: r["summary"]["acceptance"].update({"vcre_0.1": r["summary"]["acceptance"]["vcre_0.1"] + 1 / 12}),
         "acceptance vcre_0.1"),
        (lambda r: r["curves"][0]["points"][3].update(precision=0.5), "curve vcre_0.05"),
        (lambda r: r["curves"][2]["points"].pop(), "curve pose"),
        (lambda r: r["summary"]["auc"].update({"vcre_0.05": r["summary"]["auc"]["vcre_0.05"] + 1e-6}),
         "auc vcre_0.05"),
        (lambda r: r["per_scene"][0].update(median_vcre_px=r["per_scene"][0]["median_vcre_px"] + 1.0),
         "median_vcre_px"),
        (lambda r: r["cdf"][0].update(fraction=0.5), "cdf point 0"),
    ],
)
def test_report_oracles_reject_planted_values(edit, message):
    records = bench_records()
    with pytest.raises(CheckFailed, match=message):
        oracles.check_report(planted(program_report(records), edit), records)


def test_median_is_the_lower_middle_element():
    assert oracles.median_low([4.0, 1.0, 3.0, 2.0]) == 2.0
    assert oracles.median_low([3.0, 1.0, 2.0]) == 2.0
    records = bench_records()
    report = program_report(records)
    scene_a = sorted(r["rot"] for r in records if r["scene"] == "a")
    assert report["per_scene"][0]["median_rotation_error_deg"] == scene_a[2]
    upper = planted(report, lambda r: r["per_scene"][0].update(median_rotation_error_deg=scene_a[3]))
    with pytest.raises(CheckFailed, match="median_rotation_error_deg"):
        oracles.check_report(upper, records)


def test_curve_and_auc_by_hand():
    records = [
        {"scene": "s", "ok": True, "confidence": 3.0, "rot": 1.0, "trans": 0.1, "vcre": 10.0, "diagonal": 800.0},
        {"scene": "s", "ok": True, "confidence": 1.0, "rot": 9.0, "trans": 0.1, "vcre": 10.0, "diagonal": 800.0},
        {"scene": "s", "ok": False, "confidence": None, "rot": None, "trans": None, "vcre": None, "diagonal": 800.0},
    ]
    name = oracles.acceptance_names()[2]
    assert oracles.acceptance_rate(records, name) == 1 / 3
    points = oracles.curve(records, name)
    assert points == [(-math.inf, 2 / 3, 0.5), (1.0, 2 / 3, 0.5), (3.0, 1 / 3, 1.0)]
    assert oracles.auc(points) == pytest.approx(1 / 3 * 1.0 + (1 / 3) * 0.75)
