import numpy as np
import pytest

from mfpose.dataset import (
    SyntheticSceneConfig,
    list_scenes,
    load_correspondences,
    load_depth_map,
    load_intrinsics,
    load_poses,
    load_scene,
    save_correspondences,
    save_depth_map,
    save_intrinsics,
    save_poses,
    synth_generate,
    synth_scene,
    synth_write,
)
from mfpose.errors import FormatError, InvalidParameterError
from mfpose.geometry import CameraIntrinsics, Pose, rot_y
from mfpose.pipelines import CorrespondenceSet, DepthMap
from mfpose.robust import RansacConfig, ransac
from mfpose.geometry import backproject

K = CameraIntrinsics(500.0, 500.0, 320.0, 240.0, 640, 480)


# ---------------------------------------------------------------------------
# depth map binary format
# ---------------------------------------------------------------------------


def test_depth_round_trip_bit_identical(tmp_path):
    values = np.array([[1.0, 2.0], [0.0, np.nan]], dtype=np.float32)
    path = tmp_path / "d.mfdm"
    save_depth_map(path, DepthMap(values))
    first = path.read_bytes()
    loaded = load_depth_map(path)
    assert loaded.width == 2 and loaded.height == 2
    valid = DepthMap.valid(loaded.values)
    assert valid.tolist() == [[True, True], [False, False]]
    save_depth_map(path, loaded)
    assert path.read_bytes() == first


def test_depth_bad_magic(tmp_path):
    path = tmp_path / "d.mfdm"
    path.write_bytes(b"XXXX" + b"\x00" * 20)
    with pytest.raises(FormatError, match="magic"):
        load_depth_map(path)


def test_depth_truncated(tmp_path):
    path = tmp_path / "d.mfdm"
    save_depth_map(path, DepthMap(np.ones((4, 4))))
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(FormatError, match="expected"):
        load_depth_map(path)
    path.write_bytes(blob[:8])
    with pytest.raises(FormatError, match="truncated"):
        load_depth_map(path)


def test_depth_float32_load_is_lossless(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.uniform(0.1, 50.0, (7, 5)).astype(np.float32)
    path = tmp_path / "d.mfdm"
    save_depth_map(path, DepthMap(values))
    loaded = load_depth_map(path)
    assert np.array_equal(loaded.values, values.astype(np.float64))


# ---------------------------------------------------------------------------
# pose text format
# ---------------------------------------------------------------------------


def test_poses_round_trip(tmp_path, rng):
    from conftest import random_pose

    poses = {f"frame{i}": random_pose(rng) for i in range(4)}
    poses["ref"] = Pose.identity()
    path = tmp_path / "poses.txt"
    save_poses(path, poses)
    loaded = load_poses(path)
    assert set(loaded) == set(poses)
    for name, pose in poses.items():
        assert np.abs(loaded[name].rotation - pose.rotation).max() < 1e-12
        assert np.abs(loaded[name].translation - pose.translation).max() < 1e-12
    # write -> read -> write is byte stable
    save_poses(tmp_path / "again.txt", loaded)
    assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()


def test_poses_corrupt_quaternion_names_line(tmp_path):
    path = tmp_path / "poses.txt"
    path.write_text("good 1 0 0 0 0 0 0\nbad 0.5 0 0 0 1 2 3\n")
    with pytest.raises(FormatError, match="poses.txt:2"):
        load_poses(path)


def test_poses_malformed_line(tmp_path):
    path = tmp_path / "poses.txt"
    path.write_text("short 1 0 0 0\n")
    with pytest.raises(FormatError, match=":1"):
        load_poses(path)
    path.write_text("bad 1 0 0 zero 0 0 0\n")
    with pytest.raises(FormatError, match="non-numeric"):
        load_poses(path)
    path.write_text("dup 1 0 0 0 0 0 0\ndup 1 0 0 0 0 0 0\n")
    with pytest.raises(FormatError, match="duplicate"):
        load_poses(path)


def test_intrinsics_round_trip(tmp_path):
    intrinsics = {"a": K, "b": CameraIntrinsics(480.0, 481.5, 270.0, 360.0, 540, 720)}
    path = tmp_path / "intrinsics.txt"
    save_intrinsics(path, intrinsics)
    loaded = load_intrinsics(path)
    assert loaded == intrinsics
    save_intrinsics(tmp_path / "again.txt", loaded)
    assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()


def test_intrinsics_invalid_values_are_located(tmp_path):
    path = tmp_path / "intrinsics.txt"
    path.write_text("a 500 500 320 240 640 480\nb -1 500 320 240 640 480\n")
    with pytest.raises(FormatError, match=":2"):
        load_intrinsics(path)


# ---------------------------------------------------------------------------
# correspondence text format
# ---------------------------------------------------------------------------


def test_correspondences_empty_file_is_empty_set(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("")
    assert len(load_correspondences(path, K, K)) == 0


def test_correspondences_round_trip(tmp_path):
    c = CorrespondenceSet(
        np.array([[1.5, 2.25], [100.0, 200.0]]),
        np.array([[3.0, 4.0], [320.0, 240.0]]),
        np.array([0.5, 1.0]),
    )
    path = tmp_path / "m.txt"
    save_correspondences(path, c)
    loaded = load_correspondences(path, K, K)
    assert np.array_equal(loaded.ref_px, c.ref_px)
    assert np.array_equal(loaded.query_px, c.query_px)
    assert np.array_equal(loaded.scores, c.scores)
    save_correspondences(tmp_path / "again.txt", loaded)
    assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()


def test_correspondences_out_of_bounds_pixel(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("10 10 650 240 1.0\n")
    with pytest.raises(FormatError, match="query pixel"):
        load_correspondences(path, K, K)
    path.write_text("10 -1 320 240 1.0\n")
    with pytest.raises(FormatError, match="reference pixel"):
        load_correspondences(path, K, K)


def test_correspondences_malformed(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("1 2 3 4\n")
    with pytest.raises(FormatError, match=":1"):
        load_correspondences(path, K, K)
    path.write_text("1 2 3 4 score\n")
    with pytest.raises(FormatError, match="non-numeric"):
        load_correspondences(path, K, K)


# ---------------------------------------------------------------------------
# scene loading
# ---------------------------------------------------------------------------


def test_load_scene_minimal(tmp_path):
    scene = synth_scene(SyntheticSceneConfig(rng_seed=1, num_points=60))
    synth_write(scene, tmp_path, "scene0")
    manifest = load_scene(tmp_path, "scene0")
    assert manifest.reference == "reference"
    assert manifest.queries == ["query0000"]
    assert manifest.has_ground_truth
    identity = manifest.poses["reference"]
    assert np.allclose(identity.rotation, np.eye(3))
    loaded = manifest.load_matches("query0000")
    assert len(loaded) == len(scene.queries[0].correspondences)
    depth = manifest.load_depth("reference")
    assert depth.width == 640 and depth.height == 480
    assert list_scenes(tmp_path) == ["scene0"]


def test_load_scene_rejects_non_identity_reference(tmp_path):
    scene = synth_scene(SyntheticSceneConfig(rng_seed=1, num_points=60))
    synth_write(scene, tmp_path, "scene0")
    poses = load_poses(tmp_path / "scene0" / "poses.txt")
    poses["reference"] = Pose(rot_y(3.0), np.zeros(3))
    save_poses(tmp_path / "scene0" / "poses.txt", poses)
    with pytest.raises(FormatError, match="identity"):
        load_scene(tmp_path, "scene0")


def test_load_scene_requires_single_reference(tmp_path):
    scene = synth_scene(SyntheticSceneConfig(rng_seed=1, num_points=60))
    synth_write(scene, tmp_path, "scene0")
    intrinsics = load_intrinsics(tmp_path / "scene0" / "intrinsics.txt")
    intrinsics["stray"] = K
    save_intrinsics(tmp_path / "scene0" / "intrinsics.txt", intrinsics)
    with pytest.raises(FormatError, match="exactly one"):
        load_scene(tmp_path, "scene0")


def test_load_scene_missing_intrinsics_for_query(tmp_path):
    scene = synth_scene(SyntheticSceneConfig(rng_seed=1, num_points=60))
    synth_write(scene, tmp_path, "scene0")
    intrinsics = load_intrinsics(tmp_path / "scene0" / "intrinsics.txt")
    del intrinsics["query0000"]
    save_intrinsics(tmp_path / "scene0" / "intrinsics.txt", intrinsics)
    with pytest.raises(FormatError):
        load_scene(tmp_path, "scene0")


def test_depth_dimension_mismatch_vs_intrinsics(tmp_path):
    scene = synth_scene(SyntheticSceneConfig(rng_seed=1, num_points=60))
    synth_write(scene, tmp_path, "scene0")
    save_depth_map(tmp_path / "scene0" / "depth" / "reference.mfdm", DepthMap(np.ones((10, 10))))
    manifest = load_scene(tmp_path, "scene0")
    with pytest.raises(FormatError, match="intrinsics say"):
        manifest.load_depth("reference")


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------


def test_synth_determinism(tmp_path):
    config = SyntheticSceneConfig(rng_seed=7, num_points=80, pixel_noise_px=0.5, outlier_fraction=0.2)
    synth_write(synth_scene(config), tmp_path / "a", "s")
    synth_write(synth_scene(config), tmp_path / "b", "s")
    for rel in [
        "s/poses.txt",
        "s/intrinsics.txt",
        "s/depth/reference.mfdm",
        "s/depth/query0000.mfdm",
        "s/matches/query0000.txt",
    ]:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes(), rel


def test_synth_config_validation():
    with pytest.raises(InvalidParameterError):
        SyntheticSceneConfig(num_points=4)
    with pytest.raises(InvalidParameterError):
        SyntheticSceneConfig(outlier_fraction=1.0)
    with pytest.raises(InvalidParameterError):
        SyntheticSceneConfig(depth_range_m=(0.0, 5.0))
    for size in ({"width": 24}, {"height": 10}):  # no room inside the 12 px margin on both sides
        with pytest.raises(InvalidParameterError):
            SyntheticSceneConfig(**size)
    SyntheticSceneConfig(width=25, height=25)


def test_synth_correspondences_read_back_their_own_depth():
    # the collision-free splat: every kept match must see exactly its depth
    scene = synth_scene(SyntheticSceneConfig(rng_seed=5, num_points=250))
    q = scene.queries[0]
    c = q.correspondences
    d_ref = scene.depth_ref.sample_nearest(c.ref_px)
    assert np.all(DepthMap.valid(d_ref))
    points = backproject(scene.intrinsics, c.ref_px, d_ref)
    moved = q.pose.transform(points)
    d_query = q.depth_query.sample_nearest(c.query_px[q.inlier_mask])
    assert np.all(DepthMap.valid(d_query))
    # inlier matches: query depth equals the moved reference point's depth
    assert np.abs(moved[q.inlier_mask][:, 2] - d_query).max() < 1e-6


def test_synth_outlier_masks_recovered_by_robust_engine():
    # injected outliers must be excluded by a robust fit >= 95% of the time
    total_wrong = 0
    total = 0
    for seed in range(10):
        scene = synth_scene(
            SyntheticSceneConfig(rng_seed=seed, num_points=250, pixel_noise_px=1.0, outlier_fraction=0.4)
        )
        q = scene.queries[0]
        c = q.correspondences
        d_ref = scene.depth_ref.sample_nearest(c.ref_px)
        points = backproject(scene.intrinsics, c.ref_px, d_ref)
        data = np.column_stack([c.query_px, points])
        k = scene.intrinsics

        def solve(samples):
            from mfpose.geometry import normalized_coords
            from mfpose.solvers import pnp_p3p

            return pnp_p3p(samples[:, :, 2:], normalized_coords(k, samples[:, :, :2]))

        def residual(pose, rows):
            cam = Pose(*pose).transform(rows[:, 2:])
            out = np.full(len(rows), np.inf)
            front = cam[:, 2] > 0
            u = k.fx * cam[front, 0] / cam[front, 2] + k.cx
            v = k.fy * cam[front, 1] / cam[front, 2] + k.cy
            out[front] = np.hypot(u - rows[front, 0], v - rows[front, 1])
            return out

        def residuals(poses, rows):
            return np.stack([residual(pose, rows) for pose in poses])

        result = ransac(data, solve, residuals, 3, RansacConfig(rng_seed=seed, inlier_threshold=3.0))
        total_wrong += int((result.inlier_mask & ~q.inlier_mask).sum())
        total += int((~q.inlier_mask).sum())
    # exclusion accuracy: injected outliers kept as inliers must stay rare
    assert 1.0 - total_wrong / total >= 0.95


def test_synth_generate_writes_loadable_scene(tmp_path):
    manifest = synth_generate(SyntheticSceneConfig(rng_seed=2, num_points=60, num_queries=2), tmp_path, "sc")
    assert manifest.queries == ["query0000", "query0001"]
    for query in manifest.queries:
        assert len(manifest.load_matches(query)) > 10
        manifest.load_depth(query)
