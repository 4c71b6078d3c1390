"""`synth_scene` against the generator it replaced: a per-match claim loop with one depth draw per call.

`reference_synth_scene` is that generator, kept here as the oracle.  The
array version in `mfpose.dataset` must give bit-identical scenes: poses,
pixels, scores, inlier masks and both depth maps.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from mfpose.dataset import _MARGIN_PX, SyntheticSceneConfig, _repeated, synth_scene
from mfpose.geometry import Pose, backproject, project, rotation_from_axis_angle
from mfpose.pipelines import DepthMap, pixel_index


def _look_at(center, target):
    forward = target - center
    forward = forward / np.linalg.norm(forward)
    up = np.array([0.0, -1.0, 0.0])
    if abs(forward @ up) > 0.99:
        up = np.array([1.0, 0.0, 0.0])
    right = np.cross(up, forward)
    right /= np.linalg.norm(right)
    down = np.cross(forward, right)
    return np.vstack([right, down, forward])


def reference_synth_scene(config: SyntheticSceneConfig):
    """(reference depth, [(pose, ref px, query px, scores, inlier mask, query depth), ...]) of one scene."""
    rng = np.random.default_rng(config.rng_seed)
    k = config.intrinsics()
    margin = _MARGIN_PX
    ref_px = np.column_stack([rng.uniform(margin, config.width - margin, config.num_points),
                              rng.uniform(margin, config.height - margin, config.num_points)])
    depths = rng.uniform(*config.depth_range_m, config.num_points)
    points = backproject(k, ref_px, depths)
    centroid = points.mean(axis=0)

    def depth_value(true_depth: float) -> float:
        noisy = true_depth * (1.0 + config.depth_bias)
        if config.depth_noise_sigma > 0:
            noisy *= 1.0 + config.depth_noise_sigma * rng.standard_normal()
        return max(noisy, 0.0)

    ref_depth_values = np.zeros((config.height, config.width))
    ref_claims: dict[tuple[int, int], int] = {}
    queries = []
    for _ in range(config.num_queries):
        for _ in range(64):
            direction = rng.standard_normal(3)
            direction /= np.linalg.norm(direction)
            center = direction * rng.uniform(*config.baseline_range_m)
            rotation = _look_at(center, centroid)
            if config.rotation_perturb_deg > 0:
                axis = rng.standard_normal(3)
                axis /= np.linalg.norm(axis)
                angle = np.radians(rng.uniform(0, config.rotation_perturb_deg))
                rotation = rotation_from_axis_angle(axis * angle) @ rotation
            pose = Pose(rotation, -(rotation @ center))
            cam_points = pose.transform(points)
            in_front = cam_points[:, 2] > 0.2
            query_px_true = np.full((config.num_points, 2), -1.0)
            query_px_true[in_front] = project(k, cam_points[in_front])
            visible = (in_front & (query_px_true[:, 0] >= margin) & (query_px_true[:, 0] < config.width - margin)
                       & (query_px_true[:, 1] >= margin) & (query_px_true[:, 1] < config.height - margin))
            if int(visible.sum()) >= max(12, config.num_points // 4):
                break
        else:
            raise AssertionError("the configs here always find a pose")
        indices = np.flatnonzero(visible)
        n = len(indices)
        noise = config.pixel_noise_px
        noisy_ref = ref_px[indices] + (rng.normal(0.0, noise, (n, 2)) if noise > 0 else 0.0)
        noisy_query = query_px_true[indices] + (rng.normal(0.0, noise, (n, 2)) if noise > 0 else 0.0)
        outliers = rng.random(n) < config.outlier_fraction
        noisy_query[outliers] = np.column_stack([rng.uniform(0, config.width - 1.0, int(outliers.sum())),
                                                 rng.uniform(0, config.height - 1.0, int(outliers.sum()))])
        scores = rng.uniform(0.2, 1.0, n)

        in_bounds = k.contains(noisy_ref) & k.contains(noisy_query)
        query_depth_values = np.zeros((config.height, config.width))
        query_claims: set[tuple[int, int]] = set()
        keep_rows = []
        (ref_u, query_u), (ref_v, query_v) = pixel_index(np.stack([noisy_ref, noisy_query]))
        for row in np.flatnonzero(in_bounds):
            point_id = int(indices[row])
            ru, rv = ref_u[row], ref_v[row]
            ref_key = (int(ru), int(rv))
            if ref_claims.get(ref_key, point_id) != point_id:
                continue
            if not outliers[row]:
                qu, qv = query_u[row], query_v[row]
                query_key = (int(qu), int(qv))
                if query_key in query_claims:
                    continue
                query_claims.add(query_key)
                query_depth_values[qv, qu] = depth_value(float(cam_points[point_id, 2]))
            ref_claims[ref_key] = point_id
            if ref_depth_values[rv, ru] == 0.0:
                ref_depth_values[rv, ru] = depth_value(float(points[point_id, 2]))
            keep_rows.append(row)
        keep = np.array(keep_rows, dtype=int)
        queries.append((pose, noisy_ref[keep], noisy_query[keep], scores[keep], ~outliers[keep],
                        DepthMap(query_depth_values)))
    return DepthMap(ref_depth_values), queries


def _arrays(depth_ref, queries):
    out = [depth_ref.values]
    for pose, ref_px, query_px, scores, inliers, depth_query in queries:
        out += [pose.rotation, pose.translation, ref_px, query_px, scores, inliers, depth_query.values]
    return out


CONFIGS = {
    "sparse-outlier": dict(num_points=450, num_queries=4, pixel_noise_px=1.0, outlier_fraction=0.4),
    "criterion-1": dict(num_points=200),
    "depth-noise": dict(depth_noise_sigma=0.15, outlier_fraction=0.4, num_queries=3),
    # 400 points on a 64x48 image: most pixels are claimed by several matches
    "collision-dense": dict(width=64, height=48, focal_px=50.0, num_points=400, num_queries=3, pixel_noise_px=0.5),
    # about a third of the depths clip to 0, and later queries draw them again
    "clipping": dict(depth_noise_sigma=2.0, num_queries=4),
}


@pytest.mark.parametrize("name", CONFIGS)
def test_synth_scene_is_bit_identical_to_the_claim_loop(name):
    for seed in range(40):
        config = SyntheticSceneConfig(rng_seed=seed, **CONFIGS[name])
        scene = synth_scene(config)
        expected = _arrays(*reference_synth_scene(config))
        actual = _arrays(scene.depth_ref, [
            (q.pose, q.correspondences.ref_px, q.correspondences.query_px, q.correspondences.scores,
             q.inlier_mask, q.depth_query) for q in scene.queries])
        assert len(actual) == len(expected), (name, seed)
        for index, (a, b) in enumerate(zip(actual, expected)):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), (name, seed, index)


def test_synth_depth_maps_are_read_only_float64_and_share_no_memory():
    scene = synth_scene(SyntheticSceneConfig(rng_seed=3, num_queries=3, outlier_fraction=0.3))
    exposed = [scene.depth_ref.values]
    for q in scene.queries:
        c = q.correspondences
        exposed += [q.depth_query.values, c.ref_px, c.query_px, c.scores, q.inlier_mask,
                    q.pose.rotation, q.pose.translation]
    for depth in (scene.depth_ref, *(q.depth_query for q in scene.queries)):
        values = depth.values
        assert values.dtype == np.float64 and values.flags.c_contiguous and not values.flags.writeable
        assert values.shape == (scene.config.height, scene.config.width)
        assert sum(np.shares_memory(values, other) for other in exposed) == 1  # itself
        with pytest.raises(ValueError):
            values[0, 0] = 1.0


def test_repeated_flags_the_keys_that_occur_more_than_once():
    rng = np.random.default_rng(5)
    cases = [rng.integers(0, high, size) for high, size in ((5, 20), (50, 60), (3072, 400), (10**12, 30))]
    cases += [np.zeros(0, dtype=np.intp), np.array([17]), np.full(9, 42)]
    for keys in cases:
        counts = Counter(keys.tolist())
        mask = _repeated(keys)
        assert mask.dtype == bool and mask.tolist() == [counts[key] > 1 for key in keys.tolist()]
    assert cases[0].size > len(set(cases[0].tolist())) and not _repeated(cases[-2]).any() and _repeated(cases[-1]).all()
