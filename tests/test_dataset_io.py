import re
import struct

import numpy as np
import pytest

from mfpose.dataset import (
    DEPTH_MAGIC,
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
    synth_scene,
    synth_write,
)
from mfpose.errors import FormatError, InvalidParameterError
from mfpose.geometry import CameraIntrinsics, Pose
from mfpose.pipelines import CorrespondenceSet, DepthMap
from mfpose.robust import EstimatorConfig, ransac
from mfpose.geometry import backproject

from conftest import axis_rotation

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


@pytest.mark.parametrize("width, height", [(7, 0), (0, 5), (0, 0)])
def test_depth_empty_header_names_the_file(tmp_path, width, height):
    path = tmp_path / "d.mfdm"
    path.write_bytes(DEPTH_MAGIC + struct.pack("<II", width, height))
    with pytest.raises(FormatError) as info:
        load_depth_map(path)
    assert str(info.value) == f"{path}: depth map is {width}x{height}, need at least one pixel"


def test_depth_float32_load_is_lossless(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.uniform(0.1, 50.0, (7, 5)).astype(np.float32)
    path = tmp_path / "d.mfdm"
    save_depth_map(path, DepthMap(values))
    loaded = load_depth_map(path)
    assert np.array_equal(loaded.values, values.astype(np.float64))


def test_depth_load_widens_the_float32_payload_bit_for_bit(tmp_path):
    # written byte by byte, so NaN payloads, -0.0, subnormals and the extremes reach the loader as stored;
    # the last value is a signaling NaN, which must load without a RuntimeWarning
    bits = np.array(
        [0x3F800000, 0x80000000, 0x00000001, 0x7F7FFFFF, 0x7F800000, 0xFF800000, 0x7FC00001, 0xFFA00000],
        dtype="<u4",
    )
    path = tmp_path / "d.mfdm"
    path.write_bytes(DEPTH_MAGIC + struct.pack("<II", 4, 2) + bits.tobytes())
    loaded = load_depth_map(path)
    with np.errstate(invalid="ignore"):
        expected = bits.view("<f4").astype(np.float64).reshape(2, 4)
    assert loaded.values.dtype == np.float64 and not loaded.values.flags.writeable
    assert loaded.values.tobytes() == expected.tobytes()


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


@pytest.mark.parametrize(
    "lines, line, message",
    [
        # every fault, alone
        (["a 1 0 0 0 0 0 0", "b 1 0 0 0"], 2, "expected 8 fields, got 5"),
        (["a 1 0 0 0 0 0 0", "b 1 0 0 0 0 0 0 0"], 2, "expected 8 fields, got 9"),
        (["a 1 0 0 0 0 0 0", "a 1 0 0 0 0 0 0"], 2, "duplicate frame 'a'"),
        (["a 1 0 0 zero 0 0 0"], 1, "non-numeric field: could not convert string to float: 'zero'"),
        (["a 1 0 0 0 0 0 0", "b 0.5 0 0 0 1 2 3"], 2, "quaternion norm 0.5 is not within 0.001 of 1"),
        (["a 1.0011 0 0 0 0 0 0"], 1, "quaternion norm 1.0011 is not within 0.001 of 1"),
        (["a 0 0 0 0 0 0 0"], 1, "quaternion norm 0 is not within 0.001 of 1"),
        (["a 1 -inf 0 0 0 0 0"], 1, "quaternion norm inf is not within 0.001 of 1"),
        (["a 1e200 1e200 0 0 0 0 0"], 1, "quaternion norm inf is not within 0.001 of 1"),
        (["a 1 0 nan 0 0 0 0"], 1, "quaternion has zero or non-finite norm"),
        (["a 1 0 0 0 0 nan 0"], 1, "translation must be finite"),
        (["a 1 0 0 0 0 0 1e400"], 1, "translation must be finite"),
        # (an improper rotation cannot pass the norm check: see the estimates-file tests)
        # the first bad line wins, whatever its fault and whatever follows it
        (["a 1 0 0 0 0 0 0", "b 1 0 0 0 inf 0 0", "c 2 0 0 0 0 0 0"], 2, "translation must be finite"),
        (["a 1 0 0 0 0 0 0", "b 2 0 0 0 0 0 0", "c 1 0 0 0 nan 0 0"], 2, "quaternion norm 2 is not within 0.001 of 1"),
        (["a nan 0 0 0 0 0 0", "b 2 0 0 0 0 0 0"], 1, "quaternion has zero or non-finite norm"),
        (["a 1 0 0 0 0 0 0", "b 1 0 0 0 0 0 inf", "a 1 0 0 0 0 0 0"], 2, "translation must be finite"),
        (["a 1 0 0 0 0 0 0", "b 2 0 0 0 0 0 0", "c 1 0 0"], 2, "quaternion norm 2 is not within 0.001 of 1"),
        (["a 1 0 0 0 0 0 x", "b 2 0 0 0 0 0 0"], 1, "non-numeric field: could not convert string to float: 'x'"),
        (["a 2 0 0 0 0 0 0", "b 1 0 0 0 0 0 x"], 1, "quaternion norm 2 is not within 0.001 of 1"),
        (["a 1 0 0 0 0 0 0", "b 1 0 0 0 0 0 x", "b 1 0 0 0 0 0 0"], 2,
         "non-numeric field: could not convert string to float: 'x'"),
        # within one line: numbers, then the norm, then the rotation, then the translation
        (["a 2 0 0 0 0 0 nan"], 1, "quaternion norm 2 is not within 0.001 of 1"),
        (["a nan 0 0 0 0 0 inf"], 1, "quaternion has zero or non-finite norm"),
        (["a 2 0 0 0 0 0 zero"], 1, "non-numeric field: could not convert string to float: 'zero'"),
        # comment and blank lines keep their numbers
        (["# frame qw qx qy qz tx ty tz", "", "a 1 0 0 0 0 0 0", "  # c", "\t", "b 1 0 0 0 0 0 -inf"], 6,
         "translation must be finite"),
    ],
)
def test_pose_errors_name_the_first_bad_line(tmp_path, lines, line, message):
    path = tmp_path / "poses.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError) as info:
        load_poses(path)
    assert str(info.value) == f"{path}:{line}: {message}"
    assert info.value.line == line


def test_poses_accept_the_tokens_float_accepts(tmp_path):
    path = tmp_path / "poses.txt"
    path.write_text("# frame qw qx qy qz tx ty tz\nref +1 -0 0 0 0 0 0\n\n  q\t1_0e-1 0 0 0 1E1 .5e1 -0.0  \n")
    poses = load_poses(path)
    assert list(poses) == ["ref", "q"]
    assert np.array_equal(poses["ref"].rotation, np.eye(3))
    assert poses["q"].translation.tolist() == [10.0, 5.0, 0.0]
    assert np.signbit(poses["q"].translation[2])


def test_intrinsics_round_trip(tmp_path):
    intrinsics = {"a": K, "b": CameraIntrinsics(480.0, 481.5, 270.0, 360.0, 540, 720)}
    path = tmp_path / "intrinsics.txt"
    save_intrinsics(path, intrinsics)
    loaded = load_intrinsics(path)
    assert loaded == intrinsics
    save_intrinsics(tmp_path / "again.txt", loaded)
    assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()


def test_intrinsics_with_integral_float_sizes_round_trip(tmp_path):
    k = CameraIntrinsics(500.0, 500.0, 320.0, 240.0, 640.0, np.float64(480.0))
    assert (type(k.width), type(k.height)) == (int, int)
    path = tmp_path / "intrinsics.txt"
    save_intrinsics(path, {"a": k})
    assert path.read_text() == "a 500.0 500.0 320.0 240.0 640 480\n"
    assert load_intrinsics(path) == {"a": k}


def test_intrinsics_invalid_values_are_located(tmp_path):
    path = tmp_path / "intrinsics.txt"
    path.write_text("a 500 500 320 240 640 480\nb -1 500 320 240 640 480\n")
    with pytest.raises(FormatError, match=":2"):
        load_intrinsics(path)


def test_intrinsics_rows_of_the_same_text_share_one_object(tmp_path):
    path = tmp_path / "intrinsics.txt"
    path.write_text("a 500 500 320 240 640 480\nb 500 500 320 240 640 480\nc 500.0 500 320 240 640 480\n")
    loaded = load_intrinsics(path)
    assert loaded["a"] is loaded["b"] and loaded["c"] is not loaded["a"]
    assert loaded == dict.fromkeys("abc", CameraIntrinsics(500.0, 500.0, 320.0, 240.0, 640, 480))
    # a repeated bad row fails at its first line, a duplicate frame before its values are read
    path.write_text("a 500 500 320 240 640 480\nb -1 500 320 240 640 480\nc -1 500 320 240 640 480\n")
    with pytest.raises(FormatError, match=":2: focal"):
        load_intrinsics(path)
    path.write_text("a 500 500 320 240 640 480\na -1 500 320 240 640 480\n")
    with pytest.raises(FormatError, match=":2: duplicate frame"):
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


GOOD = "10 20 30 40 0.5"


@pytest.mark.parametrize(
    "lines, line, message",
    [
        # the first bad line wins, whatever its fault and whatever follows it
        ([GOOD, GOOD, "1 2 x 4 0.5", GOOD, "1 2 3 4"], 3,
         "non-numeric field: could not convert string to float: 'x'"),
        ([GOOD, "1 2 3 4", "1 2 x 4 0.5"], 2, "expected 5 fields, got 4"),
        ([GOOD, "1 nan 3 4 0.5", GOOD, "10 10 650 240 1.0"], 2, "non-finite value"),
        ([GOOD, "10 10 650 240 1.0", "1 2 3 4 inf"], 2, "query pixel (650, 240) outside 640x480 image"),
        (["10 -1 320 240 1.0", "1 2 x 4 0.5"], 1, "reference pixel (10, -1) outside 640x480 image"),
        (["10 10 650 240 1.0", "1 2 3 4 5 6"], 1, "query pixel (650, 240) outside 640x480 image"),
        ([GOOD, "1 2 x 4 y"], 2, "non-numeric field: could not convert string to float: 'x'"),
        # within one line: non-finite before bounds, reference before query
        (["-1 10 nan 10 1.0"], 1, "non-finite value"),
        (["640 10 650 10 1.0"], 1, "reference pixel (640, 10) outside 640x480 image"),
        (["10 480.5 10 10 1.0"], 1, "reference pixel (10, 480.5) outside 640x480 image"),
        # comment and blank lines keep their numbers
        (["# header", "", GOOD, "  # indented comment", "\t", "1 2 3 4 0.5 6"], 6, "expected 5 fields, got 6"),
        # exactly the tokens float() accepts
        (["1_0 +5 0x10 4 0.5"], 1, "non-numeric field: could not convert string to float: '0x10'"),
        (["1 1e400 3 4 0.5"], 1, "non-finite value"),
        (["1 2 3 4 nan"], 1, "non-finite value"),
        (["1 2 3 4 -Infinity"], 1, "non-finite value"),
    ],
)
def test_correspondence_errors_name_the_first_bad_line(tmp_path, lines, line, message):
    path = tmp_path / "m.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError) as info:
        load_correspondences(path, K, K)
    assert str(info.value) == f"{path}:{line}: {message}"
    assert info.value.line == line


def test_correspondences_accept_the_tokens_float_accepts(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("# u_ref v_ref u_query v_query score\n1_0 +5 1E1 .5e1 0.1\n\n  639.9\t479 0 -0.0 1  \n")
    loaded = load_correspondences(path, K, K)
    assert loaded.ref_px.tolist() == [[10.0, 5.0], [639.9, 479.0]]
    assert loaded.query_px.tolist() == [[10.0, 5.0], [0.0, -0.0]]
    assert loaded.scores.tolist() == [0.1, 1.0]
    assert np.signbit(loaded.query_px[1, 1])


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
    poses["reference"] = Pose(axis_rotation("y", 3.0), np.zeros(3))
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


def test_documented_file_errors_name_the_file(tmp_path):
    scene = tmp_path / "scene0"
    synth_write(synth_scene(SyntheticSceneConfig(rng_seed=1, num_points=60)), tmp_path, "scene0")
    for load in (load_intrinsics, load_depth_map):
        with pytest.raises(FormatError, match=f"^{re.escape(str(scene))}: cannot read file"):
            load(scene)  # a directory
    six = tmp_path / "six.txt"
    six.write_text("reference 500 500 320 240 640\n")
    with pytest.raises(FormatError, match=f"^{re.escape(str(six))}:1: expected 7 fields, got 6$"):
        load_intrinsics(six)
    poses = load_poses(scene / "poses.txt")
    del poses["reference"]
    save_poses(scene / "poses.txt", poses)
    with pytest.raises(FormatError, match="poses.txt: frames missing poses: reference$"):
        load_scene(tmp_path, "scene0")
    for path in (scene / "matches").iterdir():
        path.unlink()
    with pytest.raises(FormatError, match="matches: scene has no matches files$"):
        load_scene(tmp_path, "scene0")


def test_load_scene_lists_queries_as_glob_and_stem_do(tmp_path):
    scene = synth_scene(SyntheticSceneConfig(rng_seed=1, num_points=60))
    synth_write(scene, tmp_path, "scene0")
    matches = tmp_path / "scene0" / "matches"
    for name in (".txt", "a.b.txt", "..txt", "notes.md", "upper.TXT", "txt"):
        (matches / name).write_text("")
    (matches / "x.txt").mkdir()
    intrinsics = load_intrinsics(tmp_path / "scene0" / "intrinsics.txt")
    intrinsics.update(dict.fromkeys([".txt", "a.b", ".", "x"], K))
    save_intrinsics(tmp_path / "scene0" / "intrinsics.txt", intrinsics)
    (tmp_path / "scene0" / "poses.txt").unlink()
    queries = load_scene(tmp_path, "scene0").queries
    assert queries == sorted(p.stem for p in matches.glob("*.txt"))
    assert queries == [".", ".txt", "a.b", "query0000", "x"]


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
    # a count that is no integer, a range that is no (low, high) pair, a bool for a number
    for wrong in ({"num_points": 300.5}, {"num_queries": 1.5}, {"rng_seed": 1.5}, {"width": 640.0},
                  {"depth_range_m": (3.0,)}, {"depth_range_m": (3.0, 4.0, 5.0)}, {"baseline_range_m": (True, 1.0)},
                  {"pixel_noise_px": True}):
        with pytest.raises(InvalidParameterError):
            SyntheticSceneConfig(**wrong)
    config = SyntheticSceneConfig(depth_range_m=[3, 8], num_points=np.int64(300))
    assert config.depth_range_m == (3, 8) and config == SyntheticSceneConfig(depth_range_m=(3, 8))


def test_a_negative_synth_seed_is_an_invalid_parameter():
    # np.random.default_rng would raise a bare ValueError in synth_scene
    with pytest.raises(InvalidParameterError, match="rng_seed must be >= 0"):
        SyntheticSceneConfig(rng_seed=-1)


def test_synth_depth_noise_scatters_each_depth_around_the_truth():
    clean, noisy, wild = (synth_scene(SyntheticSceneConfig(rng_seed=4, depth_noise_sigma=s)) for s in (0.0, 0.15, 2.0))

    def matches(scene):
        q = scene.queries[0]
        return q.correspondences.ref_px, q.correspondences.query_px, q.correspondences.scores, q.inlier_mask

    # the noise is drawn after every other draw of a one-query scene: the matches stay the same
    for other in (noisy, wild):
        assert all(np.array_equal(a, b) for a, b in zip(matches(clean), matches(other)))

    def matched_depths(scene):
        q = scene.queries[0]
        c = q.correspondences
        return np.concatenate([scene.depth_ref.sample_nearest(c.ref_px),
                               q.depth_query.sample_nearest(c.query_px[q.inlier_mask])])

    ratio = matched_depths(noisy) / matched_depths(clean)
    assert abs(ratio.mean() - 1.0) < 0.02 and 0.12 < ratio.std() < 0.18
    # at sigma 2 a factor 1 + 2 z is negative for about 31% of the draws: those pixels clip to 0, invalid
    clipped = ~DepthMap.valid(matched_depths(wild))
    assert 0.2 < clipped.mean() < 0.4
    again = synth_scene(SyntheticSceneConfig(rng_seed=4, depth_noise_sigma=0.15))
    assert again.depth_ref.values.tobytes() == noisy.depth_ref.values.tobytes()
    assert again.queries[0].depth_query.values.tobytes() == noisy.queries[0].depth_query.values.tobytes()


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

        result = ransac(data, solve, residuals, 3, 3.0, EstimatorConfig(rng_seed=seed))
        total_wrong += int((result.inlier_mask & ~q.inlier_mask).sum())
        total += int((~q.inlier_mask).sum())
    # exclusion accuracy: injected outliers kept as inliers must stay rare
    assert 1.0 - total_wrong / total >= 0.95


def test_synth_write_writes_loadable_scene(tmp_path):
    scene = synth_scene(SyntheticSceneConfig(rng_seed=2, num_points=60, num_queries=2))
    synth_write(scene, tmp_path, "sc")
    manifest = load_scene(tmp_path, "sc")
    assert manifest.queries == ["query0000", "query0001"]
    for query, written in zip(manifest.queries, scene.queries):
        loaded = manifest.load_matches(query)
        assert len(loaded) > 10
        assert np.array_equal(loaded.ref_px, written.correspondences.ref_px)
        assert np.array_equal(loaded.query_px, written.correspondences.query_px)
        assert np.array_equal(loaded.scores, written.correspondences.scores)
        stored = written.depth_query.values.astype(np.float32)  # the file holds float32
        assert np.array_equal(manifest.load_depth(query).values, stored)
