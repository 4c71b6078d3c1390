import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mfpose
from mfpose import cli
from mfpose.cli import (
    EXIT_IO,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    _COLUMN_ROWS,
    _json_rows,
    _json_text,
    derive_seed,
    format_estimate_line,
    main,
    parse_estimates,
)
from mfpose.dataset import (
    SyntheticSceneConfig,
    save_correspondences,
    save_depth_map,
    save_intrinsics,
    synth_scene,
    synth_write,
)
from mfpose.errors import FormatError
from mfpose.evaluation import EvaluationRecord, Thresholds, aggregate_report
from mfpose.geometry import CameraIntrinsics, _quaternion_of_rotation
from mfpose.pipelines import ESTIMATOR_NAMES, CorrespondenceSet, DepthMap, EstimateStatus, EstimatorConfig, PoseEstimate


@pytest.fixture
def dataset(tmp_path):
    root = tmp_path / "data"
    for index, seed in enumerate((3, 4)):
        scene = synth_scene(SyntheticSceneConfig(rng_seed=seed, num_points=120, num_queries=2))
        synth_write(scene, root, f"scene{index:04d}")
    return root


def synth_config_file(tmp_path, **options):
    path = tmp_path / "synth.json"
    payload = {"num_scenes": 1, "num_points": 80, "rng_seed": 5}
    payload.update(options)
    path.write_text(json.dumps(payload))
    return path


# ---------------------------------------------------------------------------
# estimates file format
# ---------------------------------------------------------------------------


def test_estimate_line_round_trip(tmp_path, rng):
    from conftest import random_pose

    pose = random_pose(rng)
    line = format_estimate_line("sc", "q0", PoseEstimate(EstimateStatus.OK, pose, 41.0))
    path = tmp_path / "est.txt"
    path.write_text(line + "\nsc q1 no_estimate\nsc q2 degenerate_scale\n")
    parsed = parse_estimates(path)
    assert [(s, q) for s, q, _ in parsed] == [("sc", "q0"), ("sc", "q1"), ("sc", "q2")]
    restored = parsed[0][2]
    assert restored.confidence == 41.0
    assert np.abs(restored.pose.rotation - pose.rotation).max() < 1e-12
    assert np.abs(restored.pose.translation - pose.translation).max() < 1e-12
    assert parsed[1][2].status is EstimateStatus.NO_ESTIMATE
    assert parsed[2][2].status is EstimateStatus.DEGENERATE_SCALE


def test_estimate_line_quaternion_is_the_checked_conversion(rng):
    # the line converts the Pose's already-checked rotation without checking it again
    from conftest import random_pose

    for _ in range(200):
        pose = random_pose(rng)
        line = format_estimate_line("sc", "q0", PoseEstimate(EstimateStatus.OK, pose, 3.5))
        fields = [repr(float(v)) for v in (*_quaternion_of_rotation(pose.rotation), *pose.translation)]
        assert line == " ".join(["sc", "q0", "ok", *fields, "3.5"])


def test_estimates_parse_errors(tmp_path):
    path = tmp_path / "est.txt"
    path.write_text("sc q0 weird\n")
    with pytest.raises(Exception, match="unknown status"):
        parse_estimates(path)
    path.write_text("sc q0 ok 1 0 0 0 0 0\n")
    with pytest.raises(Exception, match="fields"):
        parse_estimates(path)
    path.write_text("sc q0 no_estimate 1\n")
    with pytest.raises(Exception, match="3 fields"):
        parse_estimates(path)
    # a confidence must be a number >= 0; the error names file and line
    for bad in ("nan", "-1"):
        path.write_text(f"sc q0 ok 1 0 0 0 0 0 0 5\nsc q1 ok 1 0 0 0 0 0 0 {bad}\n")
        with pytest.raises(FormatError, match=r"est\.txt:2: confidence must be a number >= 0"):
            parse_estimates(path)


OK_LINE = "ok 1 0 0 0 0 0 0 1.5"


@pytest.mark.parametrize(
    "lines, line, message",
    [
        # every fault, alone
        ([f"s a {OK_LINE}", "s b"], 2, "expected `scene query status ...`"),
        ([f"s a {OK_LINE}", "s b no_estimate", "s a no_estimate"], 3,
         "repeated estimate for s a, first given on line 1"),
        (["s a weird"], 1, "unknown status 'weird'"),
        (["s a OK 1 0 0 0 0 0 0"], 1, "unknown status 'OK'"),
        (["s a no_estimate 1"], 1, "no_estimate lines must have 3 fields"),
        (["s a degenerate_scale - -"], 1, "degenerate_scale lines must have 3 fields"),
        (["s a ok 1 0 0 0 0 0"], 1, "ok lines need 10 or 11 fields, got 9"),
        (["s a ok 1 0 0 0 0 0 0 1 2"], 1, "ok lines need 10 or 11 fields, got 12"),
        (["s a ok 1 0 0 0 0 x 0 2"], 1, "non-numeric pose field: could not convert string to float: 'x'"),
        (["s a ok 1 0 0 0 0 0 0 high"], 1, "non-numeric confidence: could not convert string to float: 'high'"),
        (["s a ok 0 0 0 0 0 0 0"], 1, "quaternion has zero or non-finite norm"),
        (["s a ok 1 nan 0 0 0 0 0"], 1, "quaternion has zero or non-finite norm"),
        (["s a ok 1 0 0 -inf 0 0 0"], 1, "quaternion has zero or non-finite norm"),
        (["s a ok 1e200 1e200 0 0 0 0 0"], 1, "quaternion has zero or non-finite norm"),
        (["s a ok 3e-161 4e-161 0 0 0 0 0"], 1, "matrix is not a proper rotation"),  # a subnormal squared norm
        (["s a ok 1 0 0 0 0 0 inf"], 1, "translation must be finite"),
        (["s a ok 1 0 0 0 nan 0 0 -"], 1, "translation must be finite"),
        (["s a ok 1 0 0 0 0 0 0 -1"], 1, "confidence must be a number >= 0"),
        (["s a ok 1 0 0 0 0 0 0 nan"], 1, "confidence must be a number >= 0"),
        # the first bad line wins, whatever its fault and whatever follows it
        ([f"s a {OK_LINE}", "s b ok 1 0 0 0 0 0 0 -1", "s a no_estimate"], 2, "confidence must be a number >= 0"),
        ([f"s a {OK_LINE}", "s b ok 1 0 0 0 0 0 0 -1", "s c ok 1 0 0 0 0 x 0"], 2,
         "confidence must be a number >= 0"),
        (["s a ok 1 0 0 0 0 0 0 x", "s b ok 0 0 0 0 0 0 0"], 1,
         "non-numeric confidence: could not convert string to float: 'x'"),
        (["s a ok 0 0 0 0 0 0 0", "s b ok 1 0 0 0 0 0 0 x"], 1, "quaternion has zero or non-finite norm"),
        (["s a no_estimate", "s b ok 1 0 0 0 0 inf 0", "s c weird"], 2, "translation must be finite"),
        (["s a ok 1 0 0 0 0 0 0 -1", "s b ok 1 0 0 0 inf 0 0"], 1, "confidence must be a number >= 0"),
        (["s a ok 1 0 0 0 0 0 0", "s b ok 1 0 0 0 0 0", "s c ok 1 0 0 0 0 0 nan"], 2,
         "ok lines need 10 or 11 fields, got 9"),
        # within one line: numbers, then the quaternion, the rotation, the translation, the confidence
        (["s a ok 1 0 0 0 0 nan 0 -1"], 1, "translation must be finite"),
        (["s a ok 0 0 0 0 0 nan 0 -1"], 1, "quaternion has zero or non-finite norm"),
        (["s a ok 3e-161 4e-161 0 0 0 nan 0 -1"], 1, "matrix is not a proper rotation"),
        (["s a ok 0 0 0 0 0 0 0 x"], 1, "non-numeric confidence: could not convert string to float: 'x'"),
        (["s a ok 1 0 y 0 0 0 0 x"], 1, "non-numeric pose field: could not convert string to float: 'y'"),
        # comment and blank lines keep their numbers
        (["# scene query status qw qx qy qz tx ty tz confidence", "", f"s a {OK_LINE}", "  # c", "\t",
          "s b ok 1 0 0 0 0 0 0 -0.5"], 6, "confidence must be a number >= 0"),
    ],
)
def test_estimate_errors_name_the_first_bad_line(tmp_path, lines, line, message):
    path = tmp_path / "est.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError) as info:
        parse_estimates(path)
    assert str(info.value) == f"{path}:{line}: {message}"
    assert info.value.line == line


def test_estimates_keep_file_order_and_float_confidences(tmp_path):
    path = tmp_path / "est.txt"
    path.write_text("s a ok 1 0 0 0 1 2 3 0.25\ns b no_estimate\ns c ok 1_0 0 0 0 0 0 0 -\n"
                    "s d degenerate_scale\ns e ok 1 0 0 0 0 0 0\ns f ok 1 0 0 0 0 0 0 inf\n")
    parsed = parse_estimates(path)
    assert [(s, q, e.status.value) for s, q, e in parsed] == [
        ("s", "a", "ok"), ("s", "b", "no_estimate"), ("s", "c", "ok"),
        ("s", "d", "degenerate_scale"), ("s", "e", "ok"), ("s", "f", "ok"),
    ]
    confidences = [e.confidence for _, _, e in parsed]
    assert confidences[0] == 0.25 and type(confidences[0]) is float
    assert confidences[1:5] == [None] * 4 and confidences[5] == float("inf")
    assert parsed[0][2].pose.translation.tolist() == [1.0, 2.0, 3.0]
    assert np.array_equal(parsed[2][2].pose.rotation, np.eye(3))


def test_confidence_free_lines(tmp_path):
    path = tmp_path / "est.txt"
    path.write_text("sc q0 ok 1.0 0.0 0.0 0.0 0.1 0.2 0.3 -\n")
    (_, _, estimate), = parse_estimates(path)
    assert estimate.confidence is None


def _random_json_value(rng, depth=0):
    kind = rng.integers(0, 12 if depth < 4 else 7)
    if kind == 0:
        return float(rng.choice([np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-300, 1e300, 5e-324]))
    if kind == 1:
        return float(rng.standard_normal() * 10.0 ** rng.integers(-20, 20))
    if kind == 2:
        return np.float64(rng.standard_normal())
    if kind == 3:
        return [None, True, False][rng.integers(0, 3)]
    if kind == 4:
        return int(rng.integers(-(2**62), 2**62)) * int(rng.integers(1, 1000))
    if kind == 5:
        return "".join(rng.choice(list("ab \"\\/\n\t\x00\x7féü€😀"), rng.integers(0, 6)))
    if kind == 6:
        return [{}, [], ()][rng.integers(0, 3)]
    items = [_random_json_value(rng, depth + 1) for _ in range(rng.integers(1, 5))]
    if kind <= 8:
        return items if kind == 7 else tuple(items)
    keys = ["".join(rng.choice(list("abcZ_é 0"), rng.integers(0, 4))) for _ in items]
    return dict(zip(keys, items))


def test_report_writer_matches_json_dumps():
    rng = np.random.default_rng(7)
    values = [_random_json_value(rng) for _ in range(400)]
    values += [{"b": values[:50], "a": {"x": float("nan")}}, {1: "int key", 2.5: None}, {True: 1, False: [2]}]
    for value in values:
        assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True)
    for value in ({"a": np.int64(1)}, [1, {"b": object()}], {1: "a", "b": 2}):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            _json_text(value)


NAN, INF = float("nan"), float("inf")
OK_RECORD = EvaluationRecord("s, 1", "q", EstimateStatus.OK, 2.0, rotation_error_deg=1.5,
                             translation_error_m=0.1, vcre_px=3.0, image_diagonal_px=800.0)
WRITER_CASES = {
    "empty": [[], {}, [[]], [{}], [{}, {}], {"a": [], "b": {}}, ()],
    "non-finite": [[NAN, INF, -INF], [{"x": NAN}, {"x": INF}, {"x": -INF}], [{"x": -0.0}, {"x": 0.0}]],
    "none precision": [[{"confidence_threshold": -INF, "estimate_ratio": 0.0, "precision": None}],
                       [{"p": None}, {"p": 0.5}, {"p": None}]],
    "ints beside floats": [[{"v": 1}, {"v": 1.0}, {"v": True}, {"v": 10**30}], [{"a": 2, "b": 2.5}] * 3],
    "different key sets": [[{"a": 1}, {"b": 1}], [{"a": 1, "b": 2}, {"a": 1}], [{"a": 1}, {"a": 1}, 3],
                           [{"b": 1, "a": 2}, {"a": 3, "b": 4}], [{1: "a"}, {1: "b"}]],
    "strings and nesting": [[{"id": "s, 1", "{k}": "}{", "n": [1, {"x": 2}]}, {"id": "é", "{k}": "", "n": []}],
                            ({"t": (1.5, "a")}, {"t": ()})],
    "one-record report": [aggregate_report([OK_RECORD], meta={"estimates": "e.txt"})],
    "many-record report": [aggregate_report([
        EvaluationRecord(f"s{i % 3}", f"q{i}", EstimateStatus.OK, [None, float(i % 7), INF][i % 3],
                         rotation_error_deg=i / 9, translation_error_m=i / 99, vcre_px=i / 3, image_diagonal_px=800.0)
        if i % 10 else EvaluationRecord(f"s{i % 3}", f"q{i}", EstimateStatus.NO_ESTIMATE)
        for i in range(150)])],
    "all-failed report": [aggregate_report([EvaluationRecord("s", f"q{i}", EstimateStatus.NO_ESTIMATE)
                                            for i in range(3)])],
}


@pytest.mark.parametrize("kind", WRITER_CASES)
def test_report_writer_matches_json_dumps_on_rows(kind):
    for value in WRITER_CASES[kind]:
        # a long list of rows is written column by column, a short one row by row
        long = value * _COLUMN_ROWS if type(value) in (list, tuple) else value
        for value in (value, long, {"rows": long}):
            assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True), value
    assert _json_rows([{"a": 1.5}] * _COLUMN_ROWS, "\n") is not None


def test_seed_derivation_is_stable():
    # frozen values guard against accidental hash-function changes
    assert derive_seed(0, "scene0000", "query0000") == derive_seed(0, "scene0000", "query0000")
    assert derive_seed(0, "a", "b") != derive_seed(0, "a", "c")
    assert derive_seed(0, "a", "b") != derive_seed(1, "a", "b")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def test_estimate_then_evaluate_then_curves(dataset, tmp_path, capsys):
    estimates = tmp_path / "est.txt"
    assert main(["estimate", "--dataset", str(dataset), "--out", str(estimates), "--estimator", "pnp"]) == EXIT_OK
    lines = estimates.read_text().strip().splitlines()
    assert len(lines) == 4
    assert all(line.split()[2] == "ok" for line in lines)

    report_json = tmp_path / "report.json"
    report_csv = tmp_path / "scenes.csv"
    code = main(
        ["evaluate", "--estimates", str(estimates), "--dataset", str(dataset),
         "--out-json", str(report_json), "--out-csv", str(report_csv)]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "acceptance vcre_0.05: 1.000000" in out
    assert "acceptance pose_0.25m_5deg: 1.000000" in out
    report = json.loads(report_json.read_text())
    assert report["summary"]["total_queries"] == 4
    assert report["summary"]["acceptance"]["vcre_0.1"] == 1.0
    assert {row["scene_id"] for row in report["per_scene"]} == {"scene0000", "scene0001"}
    assert report_csv.read_text().startswith("scene_id,")

    curve_csv = tmp_path / "curve.csv"
    assert main(["curves", "--estimates", str(estimates), "--dataset", str(dataset), "--out", str(curve_csv)]) == EXIT_OK
    rows = curve_csv.read_text().strip().splitlines()
    assert rows[0] == "confidence_threshold,estimate_ratio,precision"
    ratios = [float(r.split(",")[1]) for r in rows[1:]]
    assert ratios == sorted(ratios, reverse=True)


def test_evaluate_rejects_non_finite_thresholds_exit_2(dataset, tmp_path, capsys):
    estimates = tmp_path / "est.txt"
    assert main(["estimate", "--dataset", str(dataset), "--out", str(estimates), "--estimator", "procrustes"]) == EXIT_OK
    report = tmp_path / "report.json"
    base = ["evaluate", "--estimates", str(estimates), "--dataset", str(dataset), "--out-json", str(report)]
    for flags in (
        ["--threshold-pose-m", "nan"],
        ["--threshold-pose-deg", "inf"],
        ["--threshold-vcre", "inf"],
        ["--threshold-vcre", "0.05", "nan"],
        ["--threshold-pose-m", "0"],
    ):
        assert main(base + flags) == EXIT_IO, flags
        captured = capsys.readouterr()
        assert "finite and positive" in captured.err and captured.out == "", flags
        assert not report.exists(), flags


def test_evaluate_rejects_thresholds_with_one_report_name_exit_2(dataset, tmp_path, capsys):
    # both would print and store as vcre_0.1; the thresholds are checked before the estimates are read
    report = tmp_path / "report.json"
    missing = tmp_path / "missing.txt"
    base = ["evaluate", "--estimates", str(missing), "--dataset", str(dataset), "--out-json", str(report)]
    for fractions in (["0.1", "0.1"], ["0.1", "0.1000001"]):
        assert main(base + ["--threshold-vcre", *fractions]) == EXIT_IO, fractions
        captured = capsys.readouterr()
        assert "distinct report names" in captured.err and captured.out == "", fractions
        assert not report.exists(), fractions


def test_each_threshold_flag_reaches_its_thresholds_field(dataset, tmp_path, monkeypatch):
    seen = []

    def recording(records, thresholds, **kwargs):
        seen.append(thresholds)
        return aggregate_report(records, thresholds, **kwargs)

    monkeypatch.setattr(cli, "aggregate_report", recording)
    estimates = tmp_path / "est.txt"
    estimates.write_text("")
    base = ["evaluate", "--estimates", str(estimates), "--dataset", str(dataset)]

    def thresholds(flags):
        seen.clear()
        assert main(base + flags) == EXIT_OK, flags
        assert len(seen) == 1, flags
        return seen[0]

    assert thresholds([]) == Thresholds()
    for flags, field, expected in (
        (["--threshold-vcre", "0.03", "0.2"], "vcre_fractions", (0.03, 0.2)),
        (["--threshold-pose-m", "0.5"], "pose_translation_m", 0.5),
        (["--threshold-pose-deg", "10"], "pose_rotation_deg", 10.0),
    ):
        assert thresholds(flags) == replace(Thresholds(), **{field: expected}), flags


def test_estimate_is_identical_when_run_again(dataset, tmp_path):
    out_a = tmp_path / "a.txt"
    out_b = tmp_path / "b.txt"
    assert main(["estimate", "--dataset", str(dataset), "--out", str(out_a), "--seed", "9"]) == EXIT_OK
    assert main(["estimate", "--dataset", str(dataset), "--out", str(out_b), "--seed", "9"]) == EXIT_OK
    assert out_a.read_bytes() == out_b.read_bytes()


def test_estimate_scene_filter_and_config_file(dataset, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"estimator": "procrustes", "seed": 11, "scenes": "scene0001"}))
    out = tmp_path / "est.txt"
    assert main(["estimate", "--dataset", str(dataset), "--out", str(out), "--config", str(config)]) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2
    assert all(line.startswith("scene0001 ") for line in lines)
    # explicit flags beat the config file
    assert main(
        ["estimate", "--dataset", str(dataset), "--out", str(out), "--config", str(config), "--scenes", "scene0000"]
    ) == EXIT_OK
    assert all(line.startswith("scene0000 ") for line in out.read_text().strip().splitlines())
    # ... also when abbreviated, as argparse allows
    assert main(
        ["estimate", "--dataset", str(dataset), "--out", str(out), "--config", str(config),
         "--estim", "pnp", "--scen", "scene0000"]
    ) == EXIT_OK
    abbreviated = out.read_bytes()
    assert main(
        ["estimate", "--dataset", str(dataset), "--out", str(out), "--seed", "11",
         "--estimator", "pnp", "--scenes", "scene0000"]
    ) == EXIT_OK
    assert out.read_bytes() == abbreviated


def test_each_estimator_flag_reaches_its_config_field(dataset, tmp_path, monkeypatch):
    seen = []

    def recording(name, c, depth_ref, depth_query, k_ref, k_query, cfg):
        seen.append(cfg)
        return PoseEstimate(EstimateStatus.NO_ESTIMATE)

    monkeypatch.setattr(cli, "run_estimator", recording)
    base = ["estimate", "--dataset", str(dataset), "--scenes", "scene0000", "--out", str(tmp_path / "est.txt")]

    def configs(flags):
        """The configs of the scene's two queries, rng_seed aside."""
        seen.clear()
        assert main(base + flags) == EXIT_OK, flags
        assert len(seen) == 2, flags
        return [replace(cfg, rng_seed=0) for cfg in seen]

    assert configs([]) == [EstimatorConfig()] * 2
    for flag, value, field, expected in (
        ("--max-iterations", "500", "max_iterations", 500),
        ("--ransac-confidence", "0.999", "confidence", 0.999),
        ("--min-inliers", "6", "min_inliers", 6),
        ("--sampson-threshold", "0.006", "sampson_threshold", 0.006),
        ("--pnp-threshold-px", "2", "pnp_threshold_px", 2.0),
        ("--procrustes-threshold-m", "0.05", "procrustes_threshold_m", 0.05),
        ("--scale-tolerance", "0.05", "scale_relative_tolerance", 0.05),
    ):
        assert configs([flag, value]) == [replace(EstimatorConfig(), **{field: expected})] * 2, flag


def test_estimate_scene_named_twice_is_estimated_once(dataset, tmp_path, capsys):
    once, twice = tmp_path / "once.txt", tmp_path / "twice.txt"
    base = ["estimate", "--dataset", str(dataset), "--estimator", "procrustes", "--scenes"]
    assert main(base + ["scene0000", "--out", str(once)]) == EXIT_OK
    assert main(base + ["scene0000,scene0000", "--out", str(twice)]) == EXIT_OK
    assert twice.read_bytes() == once.read_bytes()
    assert main(["evaluate", "--estimates", str(twice), "--dataset", str(dataset)]) == EXIT_OK


def test_estimate_empty_matches_status_lines(dataset, tmp_path):
    empty_scene = dataset / "scene0000" / "matches" / "query0000.txt"
    empty_scene.write_text("")
    out = tmp_path / "est.txt"
    assert main(["estimate", "--dataset", str(dataset), "--out", str(out), "--scenes", "scene0000"]) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    by_query = {line.split()[1]: line.split()[2] for line in lines}
    assert by_query["query0000"] == "no_estimate"
    assert by_query["query0001"] == "ok"


def test_evaluate_mixed_fixture_matches_recount(dataset, tmp_path, capsys):
    # start from real estimates, then corrupt some to fixed failure modes
    estimates = tmp_path / "est.txt"
    assert main(["estimate", "--dataset", str(dataset), "--out", str(estimates), "--estimator", "pnp"]) == EXIT_OK
    lines = estimates.read_text().strip().splitlines()
    parts = lines[1].split()
    lines[1] = f"{parts[0]} {parts[1]} no_estimate"
    parts = lines[2].split()
    q = [float(x) for x in parts[3:7]]
    lines[2] = " ".join(parts[:3] + [repr(v) for v in (q[3], q[0], q[1], q[2])] + parts[7:])  # garbled rotation
    estimates.write_text("\n".join(lines) + "\n")

    report_json = tmp_path / "report.json"
    assert main(
        ["evaluate", "--estimates", str(estimates), "--dataset", str(dataset), "--out-json", str(report_json)]
    ) == EXIT_OK
    report = json.loads(report_json.read_text())

    # brute-force recount from the per-record scoring path
    from mfpose.cli import parse_estimates as reparse
    from mfpose.dataset import load_scene
    from mfpose.evaluation import score_query, vcre_acceptable

    records = []
    for scene_id, query_id, estimate in reparse(estimates):
        manifest = load_scene(dataset, scene_id)
        records.append(
            score_query(scene_id, query_id, estimate, manifest.poses[query_id], manifest.intrinsics[query_id])
        )
    for fraction, key in ((0.05, "vcre_0.05"), (0.10, "vcre_0.1")):
        expected = sum(vcre_acceptable(r, fraction) for r in records) / len(records)
        assert report["summary"]["acceptance"][key] == pytest.approx(expected)
    assert report["summary"]["ok_queries"] == 3
    assert 0.0 < report["summary"]["acceptance"]["vcre_0.1"] < 1.0


def test_repeated_estimate_exits_2_naming_both_lines(dataset, tmp_path, capsys):
    # five more copies of an ok line would raise every acceptance rate
    estimates = tmp_path / "est.txt"
    assert main(["estimate", "--dataset", str(dataset), "--out", str(estimates), "--estimator", "pnp"]) == EXIT_OK
    lines = estimates.read_text().splitlines()
    ok_line = next(line for line in lines if line.split()[2] == "ok")
    scene_id, query_id = ok_line.split()[:2]
    estimates.write_text("\n".join(lines + [ok_line] * 5) + "\n")
    first = lines.index(ok_line) + 1
    expected = f"est.txt:{len(lines) + 1}: repeated estimate for {scene_id} {query_id}, first given on line {first}"
    with pytest.raises(FormatError, match=expected):
        parse_estimates(estimates)
    capsys.readouterr()
    report = tmp_path / "report.json"
    curve = tmp_path / "curve.csv"
    for argv in (
        ["evaluate", "--estimates", str(estimates), "--dataset", str(dataset), "--out-json", str(report)],
        ["curves", "--estimates", str(estimates), "--dataset", str(dataset), "--out", str(curve)],
    ):
        assert main(argv) == EXIT_IO, argv[0]
        assert expected in capsys.readouterr().err, argv[0]
    assert not report.exists() and not curve.exists()
    # a failed line repeats a query as much as an ok one does
    estimates.write_text(f"{scene_id} {query_id} no_estimate\n{ok_line}\n")
    repeat = rf"est\.txt:2: repeated estimate for {scene_id} {query_id}, first given on line 1$"
    with pytest.raises(FormatError, match=repeat):
        parse_estimates(estimates)


def test_evaluate_unmatched_queries_exit_3(dataset, tmp_path):
    estimates = tmp_path / "est.txt"
    estimates.write_text("scene0000 ghost no_estimate\n")
    assert main(["evaluate", "--estimates", str(estimates), "--dataset", str(dataset)]) == EXIT_MISMATCH
    curve = tmp_path / "curve.csv"
    assert main(["curves", "--estimates", str(estimates), "--dataset", str(dataset), "--out", str(curve)]) == EXIT_MISMATCH


def test_evaluate_names_why_ground_truth_is_missing(dataset, tmp_path, capsys):
    estimates = tmp_path / "est.txt"
    assert main(["estimate", "--dataset", str(dataset), "--out", str(estimates), "--estimator", "procrustes"]) == EXIT_OK
    poses = dataset / "scene0001" / "poses.txt"
    lines = poses.read_text().splitlines()
    lines[1] = lines[1].split()[0] + " 0.5 0 0 0 0 0 0"
    poses.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["evaluate", "--estimates", str(estimates), "--dataset", str(dataset)]) == EXIT_MISMATCH
    assert capsys.readouterr().err == (
        f"{estimates}: queries without ground truth: scene0001/query0000, scene0001/query0001; "
        f"{poses}:2: quaternion norm 0.5 is not within 0.001 of 1\n"
    )


def test_pnp_estimate_does_not_read_query_depth(dataset, tmp_path, capsys):
    depth = dataset / "scene0000" / "depth" / "query0001.mfdm"
    depth.write_bytes(depth.read_bytes()[:100])
    for estimator in ESTIMATOR_NAMES:
        out = tmp_path / f"{estimator}.txt"
        code = main(["estimate", "--dataset", str(dataset), "--out", str(out), "--estimator", estimator])
        err = capsys.readouterr().err
        if estimator == "pnp":
            assert code == EXIT_OK and len(out.read_text().splitlines()) == 4
        else:
            assert code == EXIT_IO, estimator
            assert f"error: {depth}: payload is 100 bytes, expected 1228812 for 640x480\n" in err


@pytest.mark.parametrize("focal", ["inf", "nan"])
def test_estimate_rejects_a_non_finite_focal_length(dataset, tmp_path, capsys, focal):
    # such a focal length once gave pnp and procrustes `ok` poses far off the truth
    intrinsics = dataset / "scene0000" / "intrinsics.txt"
    lines = intrinsics.read_text().splitlines()
    number = next(i for i, line in enumerate(lines, start=1) if line.startswith("reference "))
    lines[number - 1] = lines[number - 1].replace(" 500.0 ", f" {focal} ", 1)
    intrinsics.write_text("\n".join(lines) + "\n")
    for estimator in ESTIMATOR_NAMES:
        out = tmp_path / f"{estimator}.txt"
        code = main(["estimate", "--dataset", str(dataset), "--out", str(out), "--estimator", estimator])
        assert code == EXIT_IO, estimator
        assert capsys.readouterr().err == f"error: {intrinsics}:{number}: focal lengths must be finite and positive\n"
        assert not out.exists()


def test_missing_dataset_exit_2(tmp_path):
    estimates = tmp_path / "est.txt"
    estimates.write_text("")
    assert main(["estimate", "--dataset", str(tmp_path / "nope"), "--out", str(tmp_path / "o.txt")]) == EXIT_IO


def test_usage_error_exit_1(capsys):
    with pytest.raises(SystemExit) as info:
        main(["estimate", "--out", "o.txt"])  # missing --dataset
    assert info.value.code == EXIT_USAGE
    err = capsys.readouterr().err  # the usage, then the reason
    assert err.startswith("usage: mfpose estimate")
    assert err.endswith("mfpose estimate: error: the following arguments are required: --dataset\n")


def test_console_entry_point(tmp_path):
    src = Path(mfpose.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}

    def run(*flags):
        command = [sys.executable, "-m", "mfpose.cli", *flags]
        return subprocess.run(command, cwd=tmp_path, env=env, capture_output=True, text=True)

    bare = run()
    assert bare.returncode == EXIT_USAGE and bare.stdout == ""
    assert "mfpose: error: the following arguments are required: command" in bare.stderr
    helped = run("--help")
    assert helped.returncode == EXIT_OK and helped.stdout.startswith("usage: mfpose") and helped.stderr == ""


def test_estimate_config_stays_with_its_call(dataset, tmp_path):
    # main shares one parser between calls: a --config call's defaults must not reach the next call
    config = tmp_path / "cfg.json"
    out = tmp_path / "est.txt"
    plain = ["estimate", "--dataset", str(dataset), "--out", str(out)]
    assert main(plain) == EXIT_OK
    expected = out.read_bytes()
    for payload, argv, code in [
        ({"estimator": "procrustes", "seed": 11}, plain, EXIT_OK),
        ({"estimator": "procrustes", "seed": 11, "bogus": 1}, plain, EXIT_IO),
        ({"estimator": "procrustes", "seed": 11}, plain[:3], EXIT_USAGE),  # no --out
    ]:
        config.write_text(json.dumps(payload))
        try:
            assert main(argv + ["--config", str(config)]) == code, payload
        except SystemExit as exc:
            assert exc.code == code, payload
        assert main(plain) == EXIT_OK
        assert out.read_bytes() == expected, payload


def test_unknown_config_key_exit_2(dataset, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    estimate = ["estimate", "--dataset", str(dataset), "--out", str(tmp_path / "o.txt"), "--config", str(config)]
    synth = ["synth", "--config", str(config), "--out", str(tmp_path / "gen")]
    for argv, payload in [
        (estimate, {"bogus": 1}),
        (estimate, {"max_iterations": "abc"}),
        (estimate, {"min_inliers": 2.5}),
        (estimate, [1, 2]),
        (estimate, {"dataset": "nowhere"}),
        (estimate, {"config": "other.json"}),
        (estimate, {"dataset": "data", "out": "e.txt"}),
        (estimate, {"confidence": 0.5}),  # keys are flag names, not dests
        (estimate, {"scale_relative_tolerance": 0.2}),
        (synth, {"bogus": 1}),
        (synth, {"num_points": "many"}),
    ]:
        config.write_text(json.dumps(payload))
        assert main(argv) == EXIT_IO, payload
        assert str(config) in capsys.readouterr().err, payload


def test_documented_cli_errors_exit_with_their_codes(dataset, tmp_path, capsys):
    config, out, ghost = tmp_path / "cfg.json", tmp_path / "est.txt", tmp_path / "ghost.txt"
    estimate = ["estimate", "--dataset", str(dataset), "--out", str(out)]
    assert main(estimate) == EXIT_OK
    plain = out.read_bytes()
    ghost.write_text("ghost q0 no_estimate\n")
    for argv, payload, code, named in [
        (estimate + ["--config", str(config)], None, EXIT_IO, str(config)),  # no such file
        (estimate + ["--config", str(config)], "{", EXIT_IO, str(config)),
        (estimate + ["--config", str(config)], {"max_iterations": True}, EXIT_IO, str(config)),
        (estimate + ["--config", str(config)], {"seed": [1]}, EXIT_IO, str(config)),
        (estimate + ["--config", str(config)], {"estimator": "ransac"}, EXIT_IO, str(config)),
        (estimate + ["--config", str(config)], {"max_iterations": None}, EXIT_OK, None),  # null keeps the default
        (estimate + ["--scenes", "nosuch"], None, EXIT_IO, "scenes not found: nosuch"),
        (["synth", "--config", str(config), "--out", str(tmp_path / "gen")], None, EXIT_IO, str(config)),
        (["evaluate", "--estimates", str(ghost), "--dataset", str(dataset)], None, EXIT_MISMATCH,
         "ghost/intrinsics.txt: missing intrinsics file"),
    ]:
        config.unlink(missing_ok=True)
        out.unlink(missing_ok=True)
        if payload is not None:
            config.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        assert main(argv) == code, (argv, payload)
        err = capsys.readouterr().err
        assert "Traceback" not in err and (named is None or named in err), (argv, payload)
        assert (out.read_bytes() == plain) if code == EXIT_OK else not out.exists(), (argv, payload)


def test_invalid_estimator_options_exit_2_before_any_query(dataset, tmp_path, capsys):
    out = tmp_path / "est.txt"
    base = ["estimate", "--dataset", str(dataset), "--out", str(out)]
    for flags in (
        ["--max-iterations", "0"],
        ["--ransac-confidence", "1.5"],
        ["--scale-tolerance", "-1"],
        ["--pnp-threshold-px", "-1", "--estimator", "pnp"],
        ["--sampson-threshold", "0"],
        ["--procrustes-threshold-m", "nan", "--estimator", "procrustes"],
        ["--procrustes-threshold-m", "1e300", "--estimator", "procrustes"],
        ["--pnp-threshold-px", "inf", "--estimator", "pnp"],
        ["--scale-tolerance", "inf"],
    ):
        assert main(base + flags) == EXIT_IO, flags
        err = capsys.readouterr().err
        assert "estimating" not in err and "Traceback" not in err, flags
        assert not out.exists(), flags
    # the message names the EstimatorConfig field the flag fills
    assert main(base + ["--scale-tolerance", "-1"]) == EXIT_IO
    assert "scale_relative_tolerance must be positive and finite" in capsys.readouterr().err


def test_estimate_with_a_consensus_too_small_for_the_adaptive_stop(tmp_path):
    # 10,000 random matches under a tight Sampson threshold: the best consensus
    # is one minimal sample, and 1 - (5 / 10000)**5 rounds to 1.0
    scene = tmp_path / "data" / "s0"
    (scene / "depth").mkdir(parents=True)
    (scene / "matches").mkdir()
    k = CameraIntrinsics(500.0, 500.0, 320.0, 240.0, 640, 480)
    save_intrinsics(scene / "intrinsics.txt", {"reference": k, "q0": k})
    for frame in ("reference", "q0"):
        save_depth_map(scene / "depth" / f"{frame}.mfdm", DepthMap(np.full((480, 640), 4.0)))
    rng = np.random.default_rng(0)
    ref_px, query_px = (rng.uniform([0, 0], [639, 479], (10_000, 2)) for _ in range(2))
    save_correspondences(scene / "matches" / "q0.txt", CorrespondenceSet(ref_px, query_px, rng.random(10_000)))
    out = tmp_path / "est.txt"
    argv = ["estimate", "--dataset", str(scene.parent), "--out", str(out), "--estimator", "essmat-dscale"]
    argv += ["--sampson-threshold", "1e-9", "--max-iterations", "50", "--min-inliers", "6"]
    assert main(argv) == EXIT_OK
    assert out.read_text() == "s0 q0 no_estimate\n"


def test_synth_rejects_unsafe_or_impossible_options_exit_2(tmp_path, capsys):
    work = tmp_path / "work"
    work.mkdir()
    out_root = work / "gen"
    for options in ({"width": 10}, {"height": 24}, {"scene_prefix": "../x"}, {"scene_prefix": "a/b"},
                    {"scene_prefix": ".."}, {"num_scenes": -1}, {"outlier_fraction": 1.0},
                    {"num_scenes": 0, "width": 10}):
        config = synth_config_file(tmp_path, **options)
        assert main(["synth", "--config", str(config), "--out", str(out_root)]) == EXIT_IO, options
        assert str(config) in capsys.readouterr().err, options
        assert list(work.iterdir()) == [], options
        assert sorted(p.name for p in tmp_path.iterdir()) == ["synth.json", "work"], options


def test_synth_rejects_non_finite_or_out_of_range_values_exit_2(tmp_path, capsys):
    out_root = tmp_path / "gen"
    nan, inf = float("nan"), float("inf")
    for options in ({"depth_bias": nan}, {"depth_bias": -1.0}, {"depth_bias": inf},
                    {"pixel_noise_px": nan}, {"depth_noise_sigma": inf},
                    {"rotation_perturb_deg": nan}, {"rotation_perturb_deg": -1.0},
                    {"focal_px": nan}, {"focal_px": inf}, {"focal_px": 0.0}, {"focal_px": -500.0},
                    {"num_scenes": 0, "focal_px": nan}, {"depth_range_m": [3.0, inf]},
                    {"baseline_range_m": [0.3, inf]}, {"num_scenes": 0, "depth_range_m": [3.0, inf]}):
        config = synth_config_file(tmp_path, **options)
        assert main(["synth", "--config", str(config), "--out", str(out_root)]) == EXIT_IO, options
        assert str(config) in capsys.readouterr().err, options
        assert not out_root.exists(), options


@pytest.mark.parametrize(
    "options, code",
    [
        ({"num_points": 300.5}, EXIT_IO), ({"num_points": 300.0}, EXIT_IO), ({"num_queries": 1.5}, EXIT_IO),
        ({"rng_seed": 1.5}, EXIT_IO), ({"width": 640.0}, EXIT_IO), ({"height": "480"}, EXIT_IO),
        ({"num_points": None}, EXIT_IO), ({"num_points": True}, EXIT_IO), ({"pixel_noise_px": True}, EXIT_IO),
        ({"outlier_fraction": False}, EXIT_IO), ({"focal_px": "500"}, EXIT_IO), ({"focal_px": [500.0]}, EXIT_IO),
        ({"depth_range_m": [3.0]}, EXIT_IO), ({"depth_range_m": [3.0, 4.0, 5.0]}, EXIT_IO),
        ({"baseline_range_m": [0.3]}, EXIT_IO), ({"baseline_range_m": [0.3, 0.6, 1.0]}, EXIT_IO),
        ({"depth_range_m": "ab"}, EXIT_IO), ({"depth_range_m": 5}, EXIT_IO), ({"depth_range_m": [3.0, None]}, EXIT_IO),
        ({"depth_range_m": [True, 4.0]}, EXIT_IO), ({"depth_range_m": {"low": 3.0}}, EXIT_IO),
        ({"num_scenes": 1.0}, EXIT_IO), ({"num_scenes": True}, EXIT_IO), ({"scene_prefix": 5}, EXIT_IO),
        ({"scene_prefix": None}, EXIT_IO), ({"bogus": 1}, EXIT_IO), ({"Num_points": 300}, EXIT_IO),
        ({"rng_seed": -1}, EXIT_OK),  # per-scene seeds are derived from it
        ({"depth_range_m": [3, 8], "focal_px": 400}, EXIT_OK),  # integers pass as floats
    ],
)
def test_synth_config_of_the_wrong_type_exit_2_naming_the_file(tmp_path, capsys, options, code):
    config = synth_config_file(tmp_path, **options)
    assert main(["synth", "--config", str(config), "--out", str(tmp_path / "gen")]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert (str(config) in err) == (code == EXIT_IO)


def test_synth_command_round_trip(tmp_path, capsys):
    config = synth_config_file(tmp_path, num_scenes=2, num_queries=1)
    out_root = tmp_path / "generated"
    assert main(["synth", "--config", str(config), "--out", str(out_root)]) == EXIT_OK
    assert sorted(p.name for p in out_root.iterdir()) == ["scene0000", "scene0001"]
    # repeated generation is byte-identical
    out_again = tmp_path / "again"
    assert main(["synth", "--config", str(config), "--out", str(out_again)]) == EXIT_OK
    for rel in ["scene0000/poses.txt", "scene0000/matches/query0000.txt", "scene0001/depth/reference.mfdm"]:
        assert (out_root / rel).read_bytes() == (out_again / rel).read_bytes()


def test_synth_then_estimate_then_evaluate_reaches_tolerances(tmp_path, capsys):
    config = synth_config_file(tmp_path, num_scenes=1, num_points=150, rng_seed=33)
    root = tmp_path / "gen"
    assert main(["synth", "--config", str(config), "--out", str(root)]) == EXIT_OK
    estimates = tmp_path / "est.txt"
    assert main(["estimate", "--dataset", str(root), "--out", str(estimates), "--estimator", "essmat-dscale"]) == EXIT_OK
    assert main(["evaluate", "--estimates", str(estimates), "--dataset", str(root)]) == EXIT_OK
    out = capsys.readouterr().out
    for line in out.strip().splitlines():
        assert line.endswith("1.000000"), line


def test_curves_empty_estimates(dataset, tmp_path):
    estimates = tmp_path / "est.txt"
    estimates.write_text("")
    curve = tmp_path / "curve.csv"
    assert main(["curves", "--estimates", str(estimates), "--dataset", str(dataset), "--out", str(curve)]) == EXIT_OK
    assert curve.read_text().strip() == "confidence_threshold,estimate_ratio,precision"


def test_curves_confidence_free_single_row(dataset, tmp_path):
    estimates = tmp_path / "est.txt"
    estimates.write_text(
        "scene0000 query0000 ok 1.0 0.0 0.0 0.0 0.0 0.0 0.0 -\n"
        "scene0000 query0001 no_estimate\n"
    )
    curve = tmp_path / "curve.csv"
    assert main(["curves", "--estimates", str(estimates), "--dataset", str(dataset), "--out", str(curve)]) == EXIT_OK
    rows = curve.read_text().strip().splitlines()
    assert len(rows) == 2  # header + the single flat-curve point


@pytest.mark.parametrize(
    "acceptance, name", [("vcre-0.05", "vcre_0.05"), ("vcre-0.10", "vcre_0.1"), ("pose", "pose_0.25m_5deg")]
)
def test_curves_rows_are_the_report_curve(tmp_path, acceptance, name):
    # perturbed ground truth with tied and missing confidences and failed lines, then nothing ok at all
    from mfpose.dataset import load_scene
    from mfpose.geometry import Pose, rotation_from_axis_angle

    dataset = tmp_path / "data"
    for index in range(2):
        config = SyntheticSceneConfig(rng_seed=20 + index, num_points=24, num_queries=15,
                                      focal_px=50.0, width=64, height=48)
        synth_write(synth_scene(config), dataset, f"scene{index:04d}")
    rng = np.random.default_rng(7)
    lines, failed = [], []
    for scene_id in ("scene0000", "scene0001"):
        manifest = load_scene(dataset, scene_id)
        for index, query in enumerate(manifest.queries):
            failed.append(f"{scene_id} {query} no_estimate")
            if index % 7 == 3:
                lines.append(failed[-1])
                continue
            gt = manifest.poses[query]
            axis = rng.standard_normal(3)
            turn = rotation_from_axis_angle(axis / np.linalg.norm(axis) * np.radians(rng.uniform(0.0, 12.0)))
            pose = Pose(turn @ gt.rotation, gt.translation + rng.normal(0.0, 0.15, 3))
            confidence = None if index % 5 == 1 else float(rng.integers(0, 5))
            lines.append(format_estimate_line(scene_id, query, PoseEstimate(EstimateStatus.OK, pose, confidence)))

    for stem, text in (("est", lines), ("failed", failed)):
        estimates = tmp_path / f"{stem}.txt"
        estimates.write_text("\n".join(text) + "\n")
        report_json, curve_csv = tmp_path / f"{stem}.json", tmp_path / f"{stem}.csv"
        args = ["--estimates", str(estimates), "--dataset", str(dataset)]
        assert main(["evaluate", *args, "--out-json", str(report_json)]) == EXIT_OK
        assert main(["curves", *args, "--acceptance", acceptance, "--out", str(curve_csv)]) == EXIT_OK
        (curve,) = [c["points"] for c in json.loads(report_json.read_text())["curves"] if c["acceptance"] == name]
        expected = [[str(p["confidence_threshold"]), str(p["estimate_ratio"]),
                     "" if p["precision"] is None else str(p["precision"])] for p in curve]
        rows = [row.split(",") for row in curve_csv.read_text().splitlines()]
        assert rows == [["confidence_threshold", "estimate_ratio", "precision"], *expected]
    assert len(expected) == 1 and expected[0][2] == ""
