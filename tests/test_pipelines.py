import warnings
from dataclasses import replace

import numpy as np
import pytest

from mfpose import pipelines, solvers
from mfpose.dataset import SyntheticSceneConfig, synth_scene
from mfpose.errors import InvalidParameterError
from mfpose.geometry import (
    CameraIntrinsics,
    Pose,
    project,
    rotation_error_deg,
    translation_error_m,
)
from mfpose.pipelines import (
    ESTIMATOR_NAMES,
    CorrespondenceSet,
    DepthMap,
    EstimateStatus,
    EstimatorConfig,
    PoseEstimate,
    _transform,
    estimate_essmat_dscale,
    estimate_pnp,
    estimate_procrustes,
    pixel_index,
    run_estimator,
)
from mfpose.robust import RobustResult

from conftest import random_pose, small_angle_deg

K = CameraIntrinsics(500.0, 500.0, 320.0, 240.0, 640, 480)


def scene_inputs(scene, query_index=0):
    q = scene.queries[query_index]
    return q, (q.correspondences, scene.depth_ref, q.depth_query, scene.intrinsics, scene.intrinsics)


# ---------------------------------------------------------------------------
# container validation
# ---------------------------------------------------------------------------


def test_correspondence_set_validation():
    with pytest.raises(InvalidParameterError):
        CorrespondenceSet(np.zeros((3, 2)), np.zeros((2, 2)), np.zeros(3))
    with pytest.raises(InvalidParameterError):
        CorrespondenceSet(np.zeros((1, 2)), np.zeros((1, 2)), np.array([np.nan]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidParameterError):
            CorrespondenceSet(np.array([[bad, 0.0]]), np.zeros((1, 2)), np.zeros(1))
        with pytest.raises(InvalidParameterError):
            CorrespondenceSet(np.zeros((1, 2)), np.array([[0.0, bad]]), np.zeros(1))
    assert len(CorrespondenceSet.empty()) == 0


def test_depth_map_nearest_sampling():
    values = np.arange(12, dtype=float).reshape(3, 4) + 1.0
    dm = DepthMap(values)
    assert dm.width == 4 and dm.height == 3
    sampled = dm.sample_nearest(np.array([[0.4, 0.4], [1.6, 0.2], [3.9, 2.9]]))
    assert sampled.tolist() == [1.0, 3.0, 12.0]


def test_depth_map_validity_marker():
    dm = DepthMap(np.array([[1.0, 2.0], [0.0, np.nan]]))
    valid = DepthMap.valid(dm.values)
    assert valid.tolist() == [[True, True], [False, False]]


def test_pixel_index_half_up():
    u, v = pixel_index(np.array([[1.5, 2.49], [0.5, 0.51]]))
    assert u.tolist() == [2, 1] and v.tolist() == [2, 1]


def test_pose_estimate_invariants():
    with pytest.raises(InvalidParameterError):
        PoseEstimate(EstimateStatus.OK, None)
    with pytest.raises(InvalidParameterError):
        PoseEstimate(EstimateStatus.NO_ESTIMATE, Pose.identity())
    with pytest.raises(InvalidParameterError):
        PoseEstimate(EstimateStatus.OK, Pose.identity(), confidence=-1.0)


# ---------------------------------------------------------------------------
# noiseless exactness (per-estimator examples)
# ---------------------------------------------------------------------------


def test_all_estimators_noiseless_exact():
    for seed in range(8):
        scene = synth_scene(SyntheticSceneConfig(rng_seed=seed))
        q, args = scene_inputs(scene)
        cfg = EstimatorConfig(rng_seed=seed)
        for name in ("essmat-dscale", "pnp", "procrustes"):
            estimate = run_estimator(name, *args, cfg)
            assert estimate.status is EstimateStatus.OK, (name, seed)
            assert small_angle_deg(estimate.pose.rotation, q.pose.rotation) < 1e-6, name
            assert translation_error_m(estimate.pose, q.pose) < 1e-6, name
            assert estimate.confidence is not None and estimate.confidence >= 5


def test_pnp_identity_relative_pose():
    # query camera coincides with the reference: identity must come back
    rng = np.random.default_rng(0)
    n = 60
    ref_px = np.column_stack([rng.uniform(20, 620, n), rng.uniform(20, 460, n)])
    depth = rng.uniform(3.0, 8.0, n)
    depth_values = np.zeros((480, 640))
    u, v = pixel_index(ref_px)
    depth_values[v, u] = depth
    c = CorrespondenceSet(ref_px, ref_px, np.ones(n))
    estimate = estimate_pnp(c, DepthMap(depth_values), K, K, EstimatorConfig(rng_seed=1))
    assert estimate.status is EstimateStatus.OK
    assert small_angle_deg(estimate.pose.rotation, np.eye(3)) < 1e-7
    assert np.linalg.norm(estimate.pose.translation) < 1e-7


def test_procrustes_identity_motion():
    rng = np.random.default_rng(0)
    n = 40
    ref_px = np.column_stack([rng.uniform(20, 620, n), rng.uniform(20, 460, n)])
    depth = rng.uniform(3.0, 8.0, n)
    depth_values = np.zeros((480, 640))
    u, v = pixel_index(ref_px)
    depth_values[v, u] = depth
    dm = DepthMap(depth_values)
    c = CorrespondenceSet(ref_px, ref_px, np.ones(n))
    estimate = estimate_procrustes(c, dm, dm, K, K, EstimatorConfig(rng_seed=1))
    assert estimate.status is EstimateStatus.OK
    assert small_angle_deg(estimate.pose.rotation, np.eye(3)) < 1e-9
    assert np.linalg.norm(estimate.pose.translation) < 1e-9


# ---------------------------------------------------------------------------
# failure statuses
# ---------------------------------------------------------------------------


def test_too_few_correspondences():
    empty_depth = DepthMap(np.zeros((480, 640)))
    few = CorrespondenceSet(np.full((4, 2), 100.0), np.full((4, 2), 120.0), np.ones(4))
    assert estimate_essmat_dscale(few, empty_depth, empty_depth, K, K).status is EstimateStatus.NO_ESTIMATE
    short = CorrespondenceSet(np.full((2, 2), 100.0), np.full((2, 2), 120.0), np.ones(2))
    assert estimate_procrustes(short, empty_depth, empty_depth, K, K).status is EstimateStatus.NO_ESTIMATE
    assert estimate_pnp(short, empty_depth, K, K).status is EstimateStatus.NO_ESTIMATE
    assert run_estimator("essmat-dscale", CorrespondenceSet.empty(), empty_depth, empty_depth, K, K).status is EstimateStatus.NO_ESTIMATE


def test_estimator_config_rejects_values_the_estimators_would():
    for bad in (
        {"max_iterations": 0},
        {"confidence": 1.5},
        {"scale_relative_tolerance": -1.0},
        {"pnp_threshold_px": -1.0},
        {"procrustes_threshold_m": 0.0},
        {"sampson_threshold": 0.0},
        {"pnp_threshold_px": np.nan},
        {"scale_relative_tolerance": np.nan},
    ):
        with pytest.raises(InvalidParameterError):
            EstimatorConfig(**bad)
    EstimatorConfig(sampson_threshold=None)


def test_pnp_consensus_below_four_is_no_estimate():
    # min_inliers=3 lets a 3-match consensus through ransac; refine_pnp needs 4
    for seed in range(5):
        scene = synth_scene(SyntheticSceneConfig(rng_seed=seed))
        q = scene.queries[0]
        c = q.correspondences
        query_px = c.query_px[:4].copy()
        query_px[3] += 80.0  # one outlier among four
        four = CorrespondenceSet(c.ref_px[:4], query_px, c.scores[:4])
        cfg = EstimatorConfig(rng_seed=seed, min_inliers=3)
        estimate = run_estimator("pnp", four, scene.depth_ref, q.depth_query, scene.intrinsics, scene.intrinsics, cfg)
        assert estimate.status is EstimateStatus.NO_ESTIMATE, seed


def test_duplicated_matches_count_once():
    c = CorrespondenceSet(
        np.array([[1.0, 2.0], [3.0, 4.0], [1.0, 2.0], [1.0, 2.0], [3.0, 4.0]]),
        np.array([[5.0, 6.0], [7.0, 8.0], [5.0, 6.0], [5.0, 9.0], [7.0, 8.0]]),
        np.array([0.1, 0.2, 0.3, 0.4, 0.5]),
    )
    distinct = c.distinct()
    assert distinct.scores.tolist() == [0.1, 0.2, 0.4]
    assert distinct.distinct() is distinct
    for seed in range(3):
        scene = synth_scene(SyntheticSceneConfig(rng_seed=seed, pixel_noise_px=1.0, outlier_fraction=0.4))
        q, (c, *inputs) = scene_inputs(scene)
        copies = CorrespondenceSet(*(np.repeat(a[:1], 20, axis=0) for a in (c.ref_px, c.query_px, c.scores)))
        # near-copies within 1e-3 px share their nearest-pixel cells, so they count once too
        jitter = np.random.default_rng(seed)
        near = CorrespondenceSet(
            *(np.repeat(a[:1], 50, axis=0) + jitter.uniform(-1e-3, 1e-3, (50, 2)) for a in (c.ref_px, c.query_px)),
            np.repeat(c.scores[:1], 50),
        )
        assert len(near.distinct()) == 1
        padded = CorrespondenceSet(*(np.concatenate([a, a[:150]]) for a in (c.ref_px, c.query_px, c.scores)))
        cfg = EstimatorConfig(rng_seed=seed)
        for name in ESTIMATOR_NAMES:
            assert run_estimator(name, copies, *inputs, cfg).status is not EstimateStatus.OK
            assert run_estimator(name, near, *inputs, cfg).status is not EstimateStatus.OK, (seed, name)
            plain = run_estimator(name, c, *inputs, cfg)
            repeated = run_estimator(name, padded, *inputs, cfg)
            assert (repeated.status, repeated.confidence) == (plain.status, plain.confidence)
            assert repeated.pose.rotation.tobytes() == plain.pose.rotation.tobytes()


def test_matches_sharing_one_pixel_are_no_consensus(monkeypatch):
    # 12 matches from one pixel to 12 scattered ones: every essential matrix whose
    # epipole is the shared pixel gives all of them a Sampson error of 0, and
    # every pnp or procrustes sample is degenerate.  Any consensus is a subset
    # of the matches, so such a set is turned down before the robust loop, at
    # any iteration cap: no solver runs
    def never(*args):
        raise AssertionError("a solver ran on a degenerate match set")

    for name in ("essential_five_point", "pnp_p3p", "_kabsch"):
        monkeypatch.setattr(solvers, name, never)
    depth = DepthMap(np.full((480, 640), 3.0))
    for cfg in (EstimatorConfig(), EstimatorConfig(max_iterations=1000)):
        for pixel in ((100.0, 120.0), (K.cx, K.cy)):
            for seed in range(5):
                shared = np.tile([pixel], (12, 1))
                scattered = np.random.default_rng(seed).uniform(50, 600, (12, 2))
                for ref_px, query_px in ((shared, scattered), (scattered, shared)):
                    c = CorrespondenceSet(ref_px, query_px, np.ones(12))
                    for name in ESTIMATOR_NAMES:
                        estimate = run_estimator(name, c, depth, depth, K, K, replace(cfg, rng_seed=seed))
                        assert estimate.status is not EstimateStatus.OK, (pixel, seed, name)


def test_consensus_through_one_pixel_among_scattered_matches_is_no_estimate(monkeypatch):
    # the shared-pixel matches plus scattered ones: the set as a whole covers
    # enough cells, so the robust loop runs, and a consensus through the
    # shared pixel is turned down after it
    depth = DepthMap(np.full((480, 640), 3.0))
    cfg = EstimatorConfig(max_iterations=1000)

    def cases(extra):
        for pixel in ((100.0, 120.0), (K.cx, K.cy)):
            for seed in range(5):
                rng = np.random.default_rng(seed)
                shared = np.concatenate([np.tile([pixel], (12, 1)), rng.uniform(50, 600, (extra, 2))])
                scattered = rng.uniform(50, 600, (12 + extra, 2))
                for ref_px, query_px in ((shared, scattered), (scattered, shared)):
                    yield seed, CorrespondenceSet(ref_px, query_px, np.ones(12 + extra))

    for seed, c in cases(2):
        for name in ESTIMATOR_NAMES:
            estimate = run_estimator(name, c, depth, depth, K, K, replace(cfg, rng_seed=seed))
            assert estimate.status is not EstimateStatus.OK, (seed, name)
    # a robust loop whose consensus is exactly the shared-pixel matches
    shared_only = np.arange(18) < 12
    monkeypatch.setattr(pipelines, "ransac", lambda data, *args, **kwargs: RobustResult(None, shared_only, 12, 0.0, 1))
    for seed, c in cases(6):
        for name in ESTIMATOR_NAMES:
            assert run_estimator(name, c, depth, depth, K, K, cfg).status is EstimateStatus.NO_ESTIMATE, (seed, name)


def test_implausible_depth_is_not_ok_and_raises_no_warning():
    scene = synth_scene(SyntheticSceneConfig(rng_seed=0))
    q, (c, depth_ref, *rest) = scene_inputs(scene)
    for huge in (1e300, 1e200):
        values = depth_ref.values.copy()
        values[DepthMap.valid(values)] = huge
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name in ESTIMATOR_NAMES:
                estimate = run_estimator(name, c, DepthMap(values), *rest)
                assert estimate.status is not EstimateStatus.OK, (huge, name)


def test_stacked_transform_rounds_as_pose_transform():
    rng = np.random.default_rng(2)
    poses = [random_pose(rng) for _ in range(7)]
    rows = rng.normal(size=(50, 5)) * 3.0
    pairs = [(pose.rotation, pose.translation) for pose in poses]
    for pose, cam in zip(poses, _transform(pairs, rows[:, 2:])):
        assert cam.tobytes() == pose.transform(rows[:, 2:]).tobytes()


def test_all_outlier_matches_no_estimate():
    rng = np.random.default_rng(5)
    n = 60
    c = CorrespondenceSet(
        np.column_stack([rng.uniform(0, 640, n), rng.uniform(0, 480, n)]),
        np.column_stack([rng.uniform(0, 640, n), rng.uniform(0, 480, n)]),
        np.ones(n),
    )
    dm = DepthMap(np.full((480, 640), 5.0))
    estimate = estimate_procrustes(c, dm, dm, K, K, EstimatorConfig(rng_seed=2, max_iterations=300))
    assert estimate.status is EstimateStatus.NO_ESTIMATE


def test_missing_depth_degenerate_scale():
    # valid epipolar geometry but no usable depth: scale cannot be voted
    scene = synth_scene(SyntheticSceneConfig(rng_seed=3))
    q, _ = scene_inputs(scene)
    no_depth = DepthMap(np.zeros((480, 640)))
    estimate = estimate_essmat_dscale(
        q.correspondences, no_depth, no_depth, scene.intrinsics, scene.intrinsics, EstimatorConfig(rng_seed=3)
    )
    assert estimate.status is EstimateStatus.DEGENERATE_SCALE
    assert estimate.pose is None


def test_pure_rotation_is_flagged_not_fabricated():
    # zero baseline: no epipolar parallax, the pipeline must not invent scale
    rng = np.random.default_rng(11)
    rotation = np.array(
        [
            [np.cos(np.radians(8)), 0, np.sin(np.radians(8))],
            [0, 1, 0],
            [-np.sin(np.radians(8)), 0, np.cos(np.radians(8))],
        ]
    )
    pose = Pose(rotation, np.zeros(3))
    n = 80
    ref_px = np.column_stack([rng.uniform(80, 560, n), rng.uniform(60, 420, n)])
    depth = rng.uniform(3.0, 8.0, n)
    x = (ref_px[:, 0] - K.cx) / K.fx * depth
    y = (ref_px[:, 1] - K.cy) / K.fy * depth
    points = np.column_stack([x, y, depth])
    in_query = pose.transform(points)
    keep = in_query[:, 2] > 0.1
    query_px = project(K, in_query[keep])
    in_frame = (
        (query_px[:, 0] >= 0) & (query_px[:, 0] < 640) & (query_px[:, 1] >= 0) & (query_px[:, 1] < 480)
    )
    ref_px, query_px = ref_px[keep][in_frame], query_px[in_frame]
    depth_ref_values = np.zeros((480, 640))
    depth_query_values = np.zeros((480, 640))
    u, v = pixel_index(ref_px)
    depth_ref_values[v, u] = points[keep][in_frame][:, 2]
    u, v = pixel_index(query_px)
    depth_query_values[v, u] = in_query[keep][in_frame][:, 2]
    c = CorrespondenceSet(ref_px, query_px, np.ones(len(ref_px)))
    estimate = estimate_essmat_dscale(
        c, DepthMap(depth_ref_values), DepthMap(depth_query_values), K, K, EstimatorConfig(rng_seed=4)
    )
    assert estimate.status in (EstimateStatus.NO_ESTIMATE, EstimateStatus.DEGENERATE_SCALE)
    assert estimate.pose is None


# ---------------------------------------------------------------------------
# scale propagation and bias probes
# ---------------------------------------------------------------------------


def test_depth_scale_propagation():
    scene = synth_scene(SyntheticSceneConfig(rng_seed=9))
    q, _ = scene_inputs(scene)
    cfg = EstimatorConfig(rng_seed=9)
    base = estimate_essmat_dscale(q.correspondences, scene.depth_ref, q.depth_query, scene.intrinsics, scene.intrinsics, cfg)
    assert base.status is EstimateStatus.OK
    for factor in (1.25, 2.0):
        scaled = estimate_essmat_dscale(
            q.correspondences,
            DepthMap(scene.depth_ref.values * factor),
            DepthMap(q.depth_query.values * factor),
            scene.intrinsics,
            scene.intrinsics,
            cfg,
        )
        assert scaled.status is EstimateStatus.OK
        # rotation path never touches depth: bit-identical
        assert scaled.pose.rotation.tobytes() == base.pose.rotation.tobytes()
        expected = factor * base.pose.translation
        assert np.abs(scaled.pose.translation - expected).max() <= 1e-9 * np.abs(expected).max()


def test_procrustes_depth_bias_degrades_translation_not_rotation():
    scene = synth_scene(SyntheticSceneConfig(rng_seed=21, num_points=400))
    q, _ = scene_inputs(scene)
    cfg = EstimatorConfig(rng_seed=21)
    biased = estimate_procrustes(
        q.correspondences,
        scene.depth_ref,
        DepthMap(q.depth_query.values * 1.2),  # +20% query depth bias
        scene.intrinsics,
        scene.intrinsics,
        cfg,
    )
    assert biased.status is EstimateStatus.OK
    t_err = translation_error_m(biased.pose, q.pose)
    r_err = rotation_error_deg(biased.pose.rotation, q.pose.rotation)
    # query points move ~20% of their depth along the ray: meter-scale shift
    camera_distance = np.linalg.norm(q.pose.translation)
    assert 0.2 * 3.0 * 0.3 < t_err < 0.2 * 8.0 * 3.0
    assert t_err > 10 * camera_distance * np.radians(r_err)  # rotation degrades gracefully
    assert r_err < 5.0


def test_essmat_rotation_invariant_to_global_depth_rescale():
    scene = synth_scene(SyntheticSceneConfig(rng_seed=13))
    q, _ = scene_inputs(scene)
    cfg = EstimatorConfig(rng_seed=13)
    a = estimate_essmat_dscale(q.correspondences, scene.depth_ref, q.depth_query, scene.intrinsics, scene.intrinsics, cfg)
    b = estimate_essmat_dscale(
        q.correspondences,
        DepthMap(scene.depth_ref.values * 0.5),
        DepthMap(q.depth_query.values * 0.5),
        scene.intrinsics,
        scene.intrinsics,
        cfg,
    )
    assert a.pose.rotation.tobytes() == b.pose.rotation.tobytes()
    assert abs(np.linalg.norm(b.pose.translation) / np.linalg.norm(a.pose.translation) - 0.5) < 1e-12


# ---------------------------------------------------------------------------
# robustness and confidence semantics
# ---------------------------------------------------------------------------


def test_pnp_with_outliers_accuracy():
    errors_r, errors_t = [], []
    for seed in range(25):
        scene = synth_scene(
            SyntheticSceneConfig(rng_seed=seed, pixel_noise_px=1.0, outlier_fraction=0.4)
        )
        q, args = scene_inputs(scene)
        estimate = estimate_pnp(q.correspondences, scene.depth_ref, scene.intrinsics, scene.intrinsics, EstimatorConfig(rng_seed=seed))
        assert estimate.status is EstimateStatus.OK
        errors_r.append(rotation_error_deg(estimate.pose.rotation, q.pose.rotation))
        errors_t.append(translation_error_m(estimate.pose, q.pose))
    assert np.median(errors_r) < 1.0
    assert np.median(errors_t) < 0.05


def test_determinism_given_seed():
    scene = synth_scene(SyntheticSceneConfig(rng_seed=17, pixel_noise_px=0.5, outlier_fraction=0.2))
    q, args = scene_inputs(scene)
    cfg = EstimatorConfig(rng_seed=123)
    for name in ("essmat-dscale", "pnp", "procrustes"):
        a = run_estimator(name, *args, cfg)
        b = run_estimator(name, *args, cfg)
        assert a.status == b.status
        assert a.confidence == b.confidence
        assert a.pose.rotation.tobytes() == b.pose.rotation.tobytes()
        assert a.pose.translation.tobytes() == b.pose.translation.tobytes()


def test_confidence_is_monotone_evidence():
    # mixed-difficulty ensemble: cumulative mean rotation error must not
    # increase with the confidence threshold at the quartiles
    records = []
    for seed in range(40):
        outlier_fraction = (seed % 4) * 0.15  # 0, .15, .30, .45
        scene = synth_scene(
            SyntheticSceneConfig(rng_seed=seed, pixel_noise_px=1.0, outlier_fraction=outlier_fraction, num_points=200)
        )
        q, args = scene_inputs(scene)
        estimate = estimate_pnp(q.correspondences, scene.depth_ref, scene.intrinsics, scene.intrinsics, EstimatorConfig(rng_seed=seed))
        if estimate.status is EstimateStatus.OK:
            records.append((estimate.confidence, rotation_error_deg(estimate.pose.rotation, q.pose.rotation)))
    confidences = np.array([c for c, _ in records])
    errors = np.array([e for _, e in records])
    cumulative = []
    for tau in np.quantile(confidences, [0.0, 0.25, 0.5, 0.75]):
        cumulative.append(errors[confidences >= tau].mean())
    assert all(b <= a * 1.05 for a, b in zip(cumulative, cumulative[1:]))
    # association check: high-confidence half strictly beats low-confidence half
    median_conf = np.median(confidences)
    assert errors[confidences >= median_conf].mean() < errors[confidences < median_conf].mean()


def test_unknown_estimator_rejected():
    with pytest.raises(InvalidParameterError):
        run_estimator("magic", CorrespondenceSet.empty(), DepthMap(np.zeros((2, 2))), DepthMap(np.zeros((2, 2))), K, K)
