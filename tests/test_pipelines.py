import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mfpose import pipelines, robust, solvers
from mfpose.dataset import SyntheticSceneConfig, synth_scene
from mfpose.errors import (
    CheiralityError,
    DegenerateSampleError,
    InvalidParameterError,
    NoConsensusError,
    ScaleConsensusError,
)
from mfpose.geometry import (
    CameraIntrinsics,
    Pose,
    canonical_quaternions,
    poses_from_stack,
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
from mfpose.robust import RobustResult, ScaleConsensusConfig

from conftest import random_pose, small_angle_deg

K = CameraIntrinsics(500.0, 500.0, 320.0, 240.0, 640, 480)
NO_MATCHES = CorrespondenceSet(np.empty((0, 2)), np.empty((0, 2)), np.empty(0))


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
    # a pixel of 2^32 or more would overflow the integer cast of its nearest-pixel index
    for bad in (np.nan, np.inf, -np.inf, 2.0**32, -(2.0**32), 1e19, -1e19, 1e300, -1e300):
        with pytest.raises(InvalidParameterError):
            CorrespondenceSet(np.array([[bad, 0.0]]), np.zeros((1, 2)), np.zeros(1))
        with pytest.raises(InvalidParameterError):
            CorrespondenceSet(np.zeros((1, 2)), np.array([[0.0, bad]]), np.zeros(1))
    assert len(NO_MATCHES) == 0
    # the largest accepted pixels run through every estimator without a warning
    _, (c, *inputs) = scene_inputs(synth_scene(SyntheticSceneConfig(rng_seed=0, outlier_fraction=0.4)))
    for big in (4.2e9, -4.2e9, np.nextafter(2.0**32, 0.0), -np.nextafter(2.0**32, 0.0)):
        ref_px, query_px = c.ref_px.copy(), c.query_px.copy()
        ref_px[0], query_px[1], ref_px[2, 1], query_px[3, 0] = big, big, big, big
        all_big = CorrespondenceSet(*np.full((2, 8, 2), big), np.ones(8))
        for matches in (CorrespondenceSet(ref_px, query_px, c.scores), all_big):
            for name in ESTIMATOR_NAMES:
                run_estimator(name, matches, *inputs)


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


def test_depth_map_owns_a_read_only_float64_copy():
    base = np.arange(6, dtype=np.float32).reshape(2, 3) + 1
    sources = {
        "float64": base.astype(np.float64),
        "float32": base.copy(),
        "fortran": np.asfortranarray(base.astype(np.float64)),
        "read-only view": np.frombuffer(base.astype("<f4").tobytes(), dtype="<f4").reshape(2, 3),
        "list": base.tolist(),
    }
    for name, source in sources.items():
        dm = DepthMap(source)
        assert dm.values.dtype == np.float64, name
        assert dm.values.flags.c_contiguous and not dm.values.flags.writeable, name
        with pytest.raises(ValueError):
            dm.values[0, 0] = 9.0
        assert np.array_equal(dm.values, base), name
        if isinstance(source, np.ndarray):
            assert not np.shares_memory(dm.values, source), name
            if source.flags.writeable:
                source[0, 0] = 9.0
                assert dm.values[0, 0] == 1.0, name
    for bad in (np.ones(4), np.ones((0, 4)), np.ones((3, 0)), np.ones((0, 0))):
        with pytest.raises(InvalidParameterError):
            DepthMap(bad)


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
    assert run_estimator("essmat-dscale", NO_MATCHES, empty_depth, empty_depth, K, K).status is EstimateStatus.NO_ESTIMATE


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
        {"scale_relative_tolerance": np.inf},
        {"pnp_threshold_px": np.inf},
        {"procrustes_threshold_m": 1e300},
        {"procrustes_threshold_m": 1.35e154},
        {"sampson_threshold": np.inf},
        {"rng_seed": -1},
        {"rng_seed": 1.5},
        {"rng_seed": 2.0},
        {"max_iterations": 2.5},
    ):
        with pytest.raises(InvalidParameterError):
            EstimatorConfig(**bad)
    with pytest.raises(TypeError):  # the consensus floor is a constant, not a field
        EstimatorConfig(min_inliers=5)
    EstimatorConfig(sampson_threshold=None, procrustes_threshold_m=1e154)
    EstimatorConfig(max_iterations=np.int64(20), rng_seed=np.uint64(2**64 - 1))


@pytest.mark.parametrize("name, value", [("scale_relative_tolerance", -1), ("max_iterations", 0), ("max_iterations", 1.5)])
def test_estimator_config_errors_name_the_field(name, value):
    with pytest.raises(InvalidParameterError, match=name):
        EstimatorConfig(**{name: value})


@pytest.mark.parametrize(
    "make, name, value",
    [
        (EstimatorConfig, "pnp_threshold_px", None),
        (EstimatorConfig, "confidence", None),
        (EstimatorConfig, "scale_relative_tolerance", "0.1"),
        (EstimatorConfig, "sampson_threshold", "x"),
        (ScaleConsensusConfig, "relative_tolerance", None),
        (CameraIntrinsics, "fx", None),
        (CameraIntrinsics, "cx", None),
        (SyntheticSceneConfig, "focal_px", None),
        (SyntheticSceneConfig, "num_points", None),
        (SyntheticSceneConfig, "depth_range_m", None),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else None,
)
def test_a_parameter_of_the_wrong_type_is_an_invalid_parameter(make, name, value):
    valid = {"fx": 1.0, "fy": 1.0, "cx": 0.0, "cy": 0.0, "width": 10, "height": 10} if make is CameraIntrinsics else {}
    with pytest.raises(InvalidParameterError, match="a parameter has the wrong type"):
        make(**{**valid, name: value})


@pytest.mark.parametrize(
    "make, args",
    [
        (CorrespondenceSet, ([["a", 1]], [[1, 2]], [1.0])),
        (CorrespondenceSet, (None, None, None)),
        (CorrespondenceSet, ([[object(), 1]], [[1, 2]], [1.0])),
        (DepthMap, ([["a"]],)),
        (DepthMap, ([[1.0], [1.0, 2.0]],)),
        (DepthMap, ([[1j]],)),
        (Pose, ("abc", [0, 0, 0])),
        (Pose, (np.eye(3), [0, 0])),
        (PoseEstimate, (EstimateStatus.NO_ESTIMATE, None, "1")),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else None,
)
def test_a_data_container_of_the_wrong_type_or_shape_is_an_invalid_parameter(make, args):
    with pytest.raises(InvalidParameterError, match=f"{make.__name__}: a parameter has the wrong type or shape"):
        make(*args)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: canonical_quaternions(np.ones((2, 3))), "need an (N, 3, 3) rotation stack, got (2, 3)"),
        (lambda: Pose(np.eye(2), np.zeros(3)), "rotation must be 3x3, got (2, 2)"),
        (lambda: poses_from_stack(np.tile(np.eye(3), (2, 1, 1)), np.zeros((1, 3))),
         "need (N, 3, 3) rotations and (N, 3) translations, got (2, 3, 3) and (1, 3)"),
        (lambda: ScaleConsensusConfig(-1.0), "relative_tolerance must be positive and finite"),
        (lambda: solvers.decompose_essential(np.diag([1.0, 1.0, 0.0]), np.zeros((0, 4))),
         "cheirality needs at least one match"),
    ],
)
def test_documented_argument_errors_are_invalid_parameters(call, message):
    with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
        call()


def test_a_minimal_sample_or_one_more_match_gives_the_pinned_statuses():
    # 3 or 4 matches are below the 5-inlier consensus floor of every estimator
    for seed in range(6):
        scene = synth_scene(SyntheticSceneConfig(rng_seed=seed))
        q = scene.queries[0]
        matches, cfg = q.correspondences, EstimatorConfig(rng_seed=seed)
        for name in ESTIMATOR_NAMES:
            for n in (3, 4):
                c = CorrespondenceSet(matches.ref_px[:n], matches.query_px[:n], matches.scores[:n])
                estimate = run_estimator(name, c, scene.depth_ref, q.depth_query, scene.intrinsics, scene.intrinsics, cfg)
                assert estimate.status is EstimateStatus.NO_ESTIMATE, (seed, name, n)


def _distinct_oracle(c: CorrespondenceSet) -> CorrespondenceSet:
    """The matches the robust driver keeps (first of each cell pair, in order), by one sort on four cell indices."""
    pairs = np.column_stack([*pixel_index(c.ref_px), *pixel_index(c.query_px)])
    order = np.lexsort(pairs.T[::-1])  # stable: equal rows stay in index order
    ordered = pairs[order]
    keep = np.ones(len(c), dtype=bool)
    keep[order[1:][np.all(ordered[1:] == ordered[:-1], axis=1)]] = False
    return CorrespondenceSet(c.ref_px[keep], c.query_px[keep], c.scores[keep])


def _cell_count_oracle(pixels: np.ndarray) -> int:
    """How many distinct nearest-pixel cells the (n, 2) pixels fall in, by a sort of their indices."""
    u, v = pixel_index(pixels)
    order = np.lexsort((v, u))
    u, v = u[order], v[order]
    return int(np.count_nonzero((u[1:] != u[:-1]) | (v[1:] != v[:-1]))) + min(len(u), 1)


def _drive(c: CorrespondenceSet, seed: int):
    """The matches the robust driver keeps of c, and the (cells, support) of each pixel check it makes.

    A stand-in lift keeps a seeded random subset of the kept matches and a
    stand-in ransac returns a seeded random consensus of those.  Every pixel
    check passes, so the consensus check runs whenever that consensus
    leaves a row out.
    """
    rng = np.random.default_rng(seed)
    lifted, checks = [], []

    def lift(kept: CorrespondenceSet):
        lifted.append(kept)
        return np.column_stack([kept.ref_px, kept.query_px]), rng.random(len(kept)) < 0.8

    def consensus(data, *args, **kwargs):
        mask = rng.random(len(data)) < 0.7
        return RobustResult(None, mask, int(mask.sum()), 0.0, 1)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipelines, "_fabricated", lambda cells, support, size: checks.append((cells, support)) or False)
        patch.setattr(pipelines, "ransac", consensus)
        finish = lambda *_: Pose.identity()
        estimate = pipelines._robust_estimate(c, EstimatorConfig(), 1.0, 3, lift, None, None, None, finish)
    assert estimate.status is EstimateStatus.OK and len(lifted) == 1
    return lifted[0], checks


def _cell_cases(rng: np.random.Generator):
    """(name, matches) pairs whose pixels share nearest-pixel cells in each of the ways the driver must tell apart."""
    n = 40
    base = rng.uniform([0.0, 0.0], [640.0, 480.0], (2, n, 2))
    picks = rng.integers(0, n, 25)  # some picked twice or more

    def matches(ref_px, query_px):
        order = rng.permutation(len(ref_px))  # copies land before and after their originals
        return CorrespondenceSet(ref_px[order], query_px[order], rng.random(len(ref_px)))

    def in_cell(pixels):  # a point in each pixel's cell [k - 0.5, k + 0.5)
        return np.floor(pixels + 0.5) + rng.uniform(-0.5, 0.5, pixels.shape)

    yield "exact repeats", matches(*np.concatenate([base, base[:, picks]], axis=1))
    yield "in-cell near-copies", matches(*np.concatenate([base, in_cell(base[:, picks])], axis=1))
    # a near-copy on one side only is a new (reference cell, query cell) pair and stays
    moved = base[:, np.unique(picks)] + [[[0.0, 0.0]], [[3.0, 0.0]]]
    yield "one side near-copied", matches(*np.concatenate([base, in_cell(moved)], axis=1))
    shared = np.tile(base[0, :1], (n, 1))
    yield "one reference pixel", matches(in_cell(shared), base[1])
    yield "one query pixel", matches(base[0], in_cell(shared))
    # k + 0.5 falls in cell k + 1 and the float below it in cell k; negative pixels round half up too
    cells = rng.integers(-1, 3, (2, 60, 2)).astype(float)
    edges = np.where(rng.random(cells.shape) < 0.5, cells + 0.5, np.nextafter(cells + 0.5, -np.inf))
    yield "cell edges", matches(*edges)
    yield "one match", matches(*base[:, :1])
    yield "no match", NO_MATCHES


def test_driver_keeps_and_counts_cells_as_the_sort_oracles_do():
    for seed in range(6):
        for name, c in _cell_cases(np.random.default_rng(seed)):
            kept, checks = _drive(c, seed)
            oracle = _distinct_oracle(c)
            for field in ("ref_px", "query_px", "scores"):
                assert getattr(kept, field).tobytes() == getattr(oracle, field).tobytes(), (seed, name)
            assert 1 <= len(checks) <= 2, (seed, name)
            for cells, support in checks:
                counts = [_cell_count_oracle(pixels[support]) for pixels in (kept.ref_px, kept.query_px)]
                for ids, count in zip(cells, counts):
                    assert not pipelines._fabricated((ids, ids), support, count), (seed, name)
                    assert pipelines._fabricated((ids, ids), support, count + 1), (seed, name)
                assert pipelines._fabricated(cells, support, min(counts) + 1), (seed, name)
                assert not pipelines._fabricated(cells, support, min(counts)), (seed, name)
            if name in ("exact repeats", "in-cell near-copies", "cell edges"):
                assert len(kept) < len(c), (seed, name)  # the case reaches the repeat branch
            if name == "one side near-copied":
                assert len(kept) == len(c), seed


def test_duplicated_matches_count_once():
    c = CorrespondenceSet(
        np.array([[1.0, 2.0], [3.0, 4.0], [1.0, 2.0], [1.0, 2.0], [3.0, 4.0]]),
        np.array([[5.0, 6.0], [7.0, 8.0], [5.0, 6.0], [5.0, 9.0], [7.0, 8.0]]),
        np.array([0.1, 0.2, 0.3, 0.4, 0.5]),
    )
    distinct, _ = _drive(c, 0)
    assert distinct.scores.tolist() == [0.1, 0.2, 0.4]
    assert _drive(distinct, 0)[0] is distinct  # a set without repeats goes on as it is
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
        assert len(_drive(near, seed)[0]) == 1
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


def test_collinear_support_is_no_estimate_after_one_window(monkeypatch):
    # 12 matches from 12 distinct reference pixels on one image row (or
    # diagonal), at one depth, to scattered query pixels: every five-point
    # sample has its reference rays in one plane and every P3P or Kabsch
    # sample is collinear, so the robust loop could only run to its cap.
    # Such a set is turned down once its first window gives no model
    calls = []

    def count(name):
        solver = getattr(solvers, name)
        return lambda samples, *rest: calls.append((name, len(samples))) or solver(samples, *rest)

    solver_of = dict(zip(ESTIMATOR_NAMES, ("essential_five_point", "pnp_p3p", "_kabsch")))
    for name in solver_of.values():
        monkeypatch.setattr(solvers, name, count(name))
    depth = DepthMap(np.full((480, 640), 3.0))
    row = np.column_stack([np.linspace(60.0, 580.0, 12), np.full(12, 200.0)])
    diagonal = np.column_stack([np.linspace(60.0, 580.0, 12), np.linspace(40.0, 440.0, 12)])
    for seed in range(2):
        rng = np.random.default_rng(seed)
        scattered = rng.uniform([50.0, 50.0], [590.0, 430.0], (12, 2))
        cfg = EstimatorConfig(rng_seed=seed)
        for line in (row, diagonal):
            # pnp lifts only the reference side, and a plane of reference points is no degeneracy
            for ref_px, query_px, names in (
                (line, scattered, ESTIMATOR_NAMES),
                (scattered, line, ("essmat-dscale", "procrustes")),
            ):
                c = CorrespondenceSet(ref_px, query_px, np.ones(12))
                for name in names:
                    calls.clear()
                    estimate = run_estimator(name, c, depth, depth, K, K, cfg)
                    assert estimate.status is EstimateStatus.NO_ESTIMATE, (seed, name)
                    windows = [samples for called, samples in calls if called == solver_of[name]]
                    assert windows == [10], (seed, name)  # one window of _MIN_ITERATIONS
        # one pixel off the row by half a pixel: the loop runs to its cap of 20 samples
        bent = row.copy()
        bent[5, 1] += 0.5
        c = CorrespondenceSet(bent, scattered, np.ones(12))
        for name in ESTIMATOR_NAMES:
            calls.clear()
            run_estimator(name, c, depth, depth, K, K, replace(cfg, max_iterations=20))
            assert [samples for called, samples in calls if called == solver_of[name]] == [10, 10], (seed, name)

    # a solvable query never pays for the check
    def never(*args):
        raise AssertionError("a solvable query checked its whole match set")

    monkeypatch.setattr(pipelines, "_collinear", never)
    _, inputs = scene_inputs(synth_scene(SyntheticSceneConfig(rng_seed=0, outlier_fraction=0.4, pixel_noise_px=1.0)))
    for name in ESTIMATOR_NAMES:
        assert run_estimator(name, *inputs).status is EstimateStatus.OK


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


@pytest.mark.parametrize("extras", (4, 6))
@pytest.mark.parametrize("seed", range(6))
def test_shared_principal_point_matches_raise_no_overflow_warning(seed, extras):
    # 12 matches from the principal point plus a few scattered ones: some
    # five-point samples give a root system whose least-squares (x, y)
    # overflows, which the solver sets aside without a warning
    rng = np.random.default_rng(seed)
    ref_px = np.concatenate([np.tile([K.cx, K.cy], (12, 1)), rng.uniform([20, 20], [620, 460], (extras, 2))])
    query_px = rng.uniform([20, 20], [620, 460], (12 + extras, 2))
    c = CorrespondenceSet(ref_px, query_px, np.ones(12 + extras))
    depth = DepthMap(np.full((480, 640), 4.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        estimate_essmat_dscale(c, depth, depth, K, K, EstimatorConfig(max_iterations=1000, rng_seed=seed))


def test_whole_set_consensus_skips_the_second_pixel_check(monkeypatch):
    # _fabricated passed on every lifted row before the loop, so it runs again
    # only on a consensus that leaves some out; both checks count the labels
    # of one labelling of each side's cells
    checks, labellings, results = [], [], []
    fabricated, cell_ids, ransac = pipelines._fabricated, pipelines._cell_ids, pipelines.ransac
    monkeypatch.setattr(pipelines, "_fabricated", lambda *args: checks.append(1) or fabricated(*args))
    monkeypatch.setattr(pipelines, "_cell_ids", lambda pixels: labellings.append(1) or cell_ids(pixels))
    monkeypatch.setattr(pipelines, "ransac", lambda *args, **kwargs: results.append(ransac(*args, **kwargs)) or results[-1])
    whole = 0
    for outliers in (0.0, 0.4):
        _, inputs = scene_inputs(synth_scene(SyntheticSceneConfig(rng_seed=1, outlier_fraction=outliers)))
        for name in ESTIMATOR_NAMES:
            checks.clear()
            labellings.clear()
            assert run_estimator(name, *inputs).status is EstimateStatus.OK
            everything = bool(results[-1].inlier_mask.all())
            assert len(checks) == (1 if everything else 2), (outliers, name)
            assert len(labellings) == 2, (outliers, name)
            whole += everything
    assert 0 < whole < 2 * len(ESTIMATOR_NAMES)


def test_essmat_scores_a_large_query_in_bounded_memory():
    # 7000 matches at 95% outliers: a window of 16 five-point samples holds up to
    # 160 models, and scored at once their (models, n) arrays peak near 40 MB
    scene = synth_scene(SyntheticSceneConfig(rng_seed=0, num_points=7000, outlier_fraction=0.95, pixel_noise_px=1.0))
    _, inputs = scene_inputs(scene)
    tracemalloc.start()
    try:
        run_estimator("essmat-dscale", *inputs, EstimatorConfig(max_iterations=60))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24e6, peak


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


def test_pnp_sqrt_residual_changes_no_ransac_outcome(monkeypatch):
    # estimate_pnp scores a pose by sqrt(du^2 + dv^2), which can differ from
    # np.hypot in the last bit; the robust loop must reach the same outcome
    # with either: same model, consensus and iteration count, scores within rounding
    calls = []

    def capture(*args, **kwargs):
        calls.append((args, kwargs))
        raise NoConsensusError("captured")

    monkeypatch.setattr(pipelines, "ransac", capture)

    def hypot_residual(k):
        def residuals(poses, rows):
            cam = _transform(poses, rows[:, 2:])
            z = cam[:, :, 2]
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                u = k.fx * cam[:, :, 0] / z + k.cx
                v = k.fy * cam[:, :, 1] / z + k.cy
                return np.where(z > 0, np.hypot(u - rows[:, 0], v - rows[:, 1]), np.inf)

        return residuals

    for outliers in (0.4, 0.8):
        for seed in range(20):
            scene = synth_scene(SyntheticSceneConfig(rng_seed=seed, pixel_noise_px=1.0, outlier_fraction=outliers))
            q, inputs = scene_inputs(scene)
            calls.clear()
            estimate_pnp(*inputs[:2], *inputs[3:], EstimatorConfig(rng_seed=seed))
            ((data, solve, residuals, *rest), kwargs), = calls
            expected = robust.ransac(data, solve, hypot_residual(scene.intrinsics), *rest, **kwargs)
            actual = robust.ransac(data, solve, residuals, *rest, **kwargs)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(expected.model, actual.model)), (outliers, seed)
            assert np.array_equal(expected.inlier_mask, actual.inlier_mask), (outliers, seed)
            assert (expected.inlier_count, expected.iterations) == (actual.inlier_count, actual.iterations)
            assert actual.score == pytest.approx(expected.score, rel=1e-12, abs=0)


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


def test_typed_errors_after_the_robust_loop_map_to_statuses(monkeypatch):
    # a solvable query whose finish step meets each typed error in turn
    _, inputs = scene_inputs(synth_scene(SyntheticSceneConfig(rng_seed=0, outlier_fraction=0.4, pixel_noise_px=1.0)))

    def raising(error):
        def fail(*args, **kwargs):
            raise error("raised by the test")

        return fail

    with monkeypatch.context() as patch:
        patch.setattr(solvers, "decompose_essential", raising(CheiralityError))
        estimate = run_estimator("essmat-dscale", *inputs)
        assert (estimate.status, estimate.pose) == (EstimateStatus.NO_ESTIMATE, None)
    with monkeypatch.context() as patch:
        patch.setattr(pipelines, "scale_consensus", raising(ScaleConsensusError))
        estimate = run_estimator("essmat-dscale", *inputs)
        assert (estimate.status, estimate.pose) == (EstimateStatus.DEGENERATE_SCALE, None)

    # a degenerate inlier re-fit keeps the robust loop's minimal-sample pose
    results = []
    ransac = pipelines.ransac
    monkeypatch.setattr(pipelines, "ransac", lambda *args, **kwargs: results.append(ransac(*args, **kwargs)) or results[-1])
    monkeypatch.setattr(solvers, "procrustes_align", raising(DegenerateSampleError))
    estimate = run_estimator("procrustes", *inputs)
    (result,) = results
    assert (estimate.status, estimate.confidence) == (EstimateStatus.OK, float(result.inlier_count))
    minimal = Pose(*result.model)
    assert estimate.pose.rotation.tobytes() == minimal.rotation.tobytes()
    assert estimate.pose.translation.tobytes() == minimal.translation.tobytes()


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
        run_estimator("magic", NO_MATCHES, DepthMap(np.zeros((2, 2))), DepthMap(np.zeros((2, 2))), K, K)


def test_essmat_turns_down_focal_lengths_whose_default_threshold_is_not_finite(monkeypatch):
    _, (c, depth_ref, depth_query, _, _) = scene_inputs(synth_scene(SyntheticSceneConfig(rng_seed=0)))
    monkeypatch.setattr(pipelines, "_cell_ids", lambda pixels: pytest.fail("an estimator ran"))
    for focal in (1e-200, 1e100):  # fx * fy * fx' * fy' underflows to 0, or overflows to inf
        k = CameraIntrinsics(focal, focal, 320.0, 240.0, 640, 480)
        with pytest.raises(InvalidParameterError, match="^sampson_threshold "):
            estimate_essmat_dscale(c, depth_ref, depth_query, k, k)


def test_each_estimator_turns_down_an_argument_of_the_wrong_type_before_any_work(monkeypatch):
    _, (c, depth_ref, depth_query, k_ref, k_query) = scene_inputs(synth_scene(SyntheticSceneConfig(rng_seed=0)))
    inputs = dict(c=c, depth_ref=depth_ref, depth_query=depth_query, k_ref=k_ref, k_query=k_query, cfg=EstimatorConfig())
    monkeypatch.setattr(pipelines, "_cell_ids", lambda pixels: pytest.fail("an estimator ran"))
    for name, estimate in zip(ESTIMATOR_NAMES, (estimate_essmat_dscale, estimate_pnp, estimate_procrustes)):
        own = {key: value for key, value in inputs.items() if key != "depth_query" or name != "pnp"}
        for wrong in own:  # None in place of each argument the estimator reads
            with pytest.raises(InvalidParameterError, match=f"^{wrong} must be a "):
                estimate(**{**own, wrong: None})
            with pytest.raises(InvalidParameterError, match=f"^{wrong} must be a "):
                run_estimator(name, **{**inputs, wrong: None})
        with pytest.raises(InvalidParameterError, match="^depth_ref must be a DepthMap, got ndarray"):
            estimate(**{**own, "depth_ref": depth_ref.values})
    monkeypatch.undo()
    # pnp reads no query depth, so it takes None for it
    assert run_estimator("pnp", c, depth_ref, None, k_ref, k_query).status is EstimateStatus.OK


