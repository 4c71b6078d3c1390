"""Every estimator answers hostile input with a status or a typed error, quickly and without a numpy warning.

Wrong `ok` statuses are not checked here: a chance consensus among random
matches can still pass the estimators' support checks.
"""

import time
import warnings

import numpy as np
import pytest

from mfpose.dataset import SyntheticSceneConfig, synth_scene
from mfpose.errors import MfposeError
from mfpose.geometry import CameraIntrinsics
from mfpose.pipelines import ESTIMATOR_NAMES, CorrespondenceSet, DepthMap, EstimatorConfig, PoseEstimate, run_estimator

K = CameraIntrinsics(500.0, 500.0, 320.0, 240.0, 640, 480)  # synth_scene's default camera
_LOOSE = {"max_iterations": 200}
# a consensus of one minimal sample among thousands of matches: too small for a finite adaptive count
_TIGHT = {"sampson_threshold": 1e-9, "pnp_threshold_px": 1e-6, "procrustes_threshold_m": 1e-9, "max_iterations": 50}


def _subset(c: CorrespondenceSet, rows) -> CorrespondenceSet:
    return CorrespondenceSet(c.ref_px[rows], c.query_px[rows], c.scores[rows])


def _cases(seed: int):
    """(name, matches, reference depth, query depth, config options) of each hostile case."""
    scene = synth_scene(SyntheticSceneConfig(rng_seed=seed, pixel_noise_px=1.0, outlier_fraction=0.4))
    q = scene.queries[0]
    c, depths = q.correspondences, (scene.depth_ref, q.depth_query)
    yield "1 px, 40% outliers", c, *depths, {}
    yield "every match thrice", _subset(c, np.repeat(np.arange(len(c)), 3)), *depths, {}
    for n in range(1, 6):
        yield f"first {n} matches", _subset(c, slice(n)), *depths, {}

    rng = np.random.default_rng(seed)
    shape = (K.height, K.width)

    def pixels(n):
        return np.column_stack([rng.uniform(0, K.width - 1, n), rng.uniform(0, K.height - 1, n)])

    def depth():
        return DepthMap(rng.uniform(0.5, 20.0, shape))

    line = np.linspace(20.0, 600.0, 30)
    collinear = CorrespondenceSet(np.column_stack([line, 0.5 * line + 60.0]), pixels(30), np.ones(30))
    yield "collinear reference pixels", collinear, depth(), depth(), {}
    same, flat = pixels(100), depth()
    yield "zero baseline", CorrespondenceSet(same, same, np.ones(100)), flat, flat, {}
    for value in (0.0, 1e200):
        yield f"depth {value:g} everywhere", c, DepthMap(np.full(shape, value)), DepthMap(np.full(shape, value)), {}
    for n in (300, 10_000):
        random, random_depths = CorrespondenceSet(pixels(n), pixels(n), rng.random(n)), (depth(), depth())
        yield f"{n} random matches", random, *random_depths, _LOOSE
        yield f"{n} random matches, tight thresholds", random, *random_depths, _TIGHT


@pytest.mark.parametrize("seed", range(3))
def test_hostile_input_gives_a_status_or_a_typed_error(seed):
    for case, c, depth_ref, depth_query, options in _cases(seed):
        cfg = EstimatorConfig(rng_seed=seed, **options)
        for name in ESTIMATOR_NAMES:
            start = time.perf_counter()
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                try:
                    estimate = run_estimator(name, c, depth_ref, depth_query, K, K, cfg)
                except MfposeError:
                    estimate = None
            assert estimate is None or isinstance(estimate, PoseEstimate), (case, name)
            assert time.perf_counter() - start < 2.0, (case, name)


@pytest.mark.parametrize(
    "focal, seeds, options",
    # at 1e-40 it takes the full iteration budget to reach five-point roots whose parts overflow
    [(1e-80, range(6), _LOOSE), (1e-40, [1], {})],
    ids=["1e-80", "1e-40"],
)
def test_tiny_focal_lengths_give_a_status_or_a_typed_error(focal, seeds, options):
    # normalized coordinates near 1e82 overflow the five-point roots and the P3P degeneracy checks
    tiny = CameraIntrinsics(focal, focal, 320.0, 240.0, 640, 480)
    for seed in seeds:
        scene = synth_scene(SyntheticSceneConfig(rng_seed=seed, pixel_noise_px=1.0, outlier_fraction=0.4))
        q = scene.queries[0]
        cfg = EstimatorConfig(rng_seed=seed, **options)
        for name in ESTIMATOR_NAMES:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                try:
                    estimate = run_estimator(name, q.correspondences, scene.depth_ref, q.depth_query, tiny, tiny, cfg)
                except MfposeError:
                    estimate = None
            assert estimate is None or isinstance(estimate, PoseEstimate), (seed, name)
