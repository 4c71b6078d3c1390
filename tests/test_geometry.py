import numpy as np
import pytest

from mfpose.errors import BehindCameraError, InvalidDepthError, InvalidParameterError
from mfpose.geometry import (
    CameraIntrinsics,
    Pose,
    _quaternion_of_rotation,
    backproject,
    camera_center,
    canonical_quaternions,
    compose,
    normalized_coords,
    poses_from_stack,
    project,
    rotation_defect,
    rotation_error_deg,
    rotation_from_axis_angle,
    rotation_from_quaternion,
    row_norms,
    translation_error_m,
)

from conftest import axis_rotation, random_pose, random_rotation

K = CameraIntrinsics(500.0, 500.0, 320.0, 240.0, 640, 480)


# ---------------------------------------------------------------------------
# quaternions
# ---------------------------------------------------------------------------


def test_quaternion_identity():
    assert np.allclose(rotation_from_quaternion([1, 0, 0, 0]), np.eye(3))


def test_quaternion_180_about_x():
    assert np.allclose(rotation_from_quaternion([0, 1, 0, 0]), np.diag([1.0, -1.0, -1.0]))


def test_quaternion_cyclic_permutation():
    # oracle: q = (.5,.5,.5,.5) is a 120 deg turn about (1,1,1), the x->y->z->x cycle
    r = rotation_from_quaternion([0.5, 0.5, 0.5, 0.5])
    expected = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert np.allclose(r, expected, atol=1e-15)
    assert np.allclose(r @ np.array([1.0, 0, 0]), [0, 1, 0])


def test_quaternion_double_cover(rng):
    for _ in range(50):
        q = rng.standard_normal(4)
        assert np.allclose(rotation_from_quaternion(q), rotation_from_quaternion(-q))


def test_quaternion_normalizes_input():
    r1 = rotation_from_quaternion(np.array([1.0, 0.0, 0.0, 0.0]) * 3.7)
    assert np.allclose(r1, np.eye(3))


def test_quaternion_zero_norm_rejected():
    with pytest.raises(InvalidParameterError):
        rotation_from_quaternion([0.0, 0.0, 0.0, 0.0])


def test_quaternion_round_trip(rng):
    rotations = np.array([random_rotation(rng) for _ in range(50)])
    for r, q in zip(rotations, canonical_quaternions(rotations)):
        assert abs(np.linalg.norm(q) - 1.0) < 1e-12
        assert np.allclose(rotation_from_quaternion(q), r, atol=1e-12)


def _one_quaternion_rotation(q):
    """The one-quaternion conversion as written before stacks: the oracle for bit-identity."""
    q = np.asarray(q, dtype=float)
    norm = float(np.linalg.norm(q))
    w, x, y, z = q / norm
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def _hex(a):
    return [float(v).hex() for v in np.ravel(a)]


def _seeded_quaternions():
    rng = np.random.default_rng(20240613)
    unit = rng.standard_normal((600, 4))
    unit /= np.linalg.norm(unit, axis=1, keepdims=True)
    off_unit = unit * (1.0 + rng.uniform(-1e-3, 1e-3, (600, 1)))  # norms off unit by up to 1e-3
    negative_w = off_unit.copy()
    negative_w[:, 0] = -np.abs(negative_w[:, 0])
    flipped = np.concatenate([off_unit[:200], -off_unit[:200]])  # sign-flipped pairs
    dominant = rng.uniform(-1e-4, 1e-4, (400, 4))
    dominant[np.arange(400), rng.integers(0, 4, 400)] = rng.choice([-1.0, 1.0], 400)  # one dominant component
    return np.concatenate([off_unit, negative_w, flipped, dominant, rng.standard_normal((100, 4)) * 7.0])


def test_stacked_quaternion_conversion_is_bit_identical_to_one_quaternion():
    quaternions = _seeded_quaternions()
    assert len(quaternions) >= 2000
    expected = [_hex(_one_quaternion_rotation(q)) for q in quaternions]
    stacked = rotation_from_quaternion(quaternions)
    assert [_hex(r) for r in stacked] == expected
    assert [_hex(rotation_from_quaternion(q)) for q in quaternions] == expected
    assert [_hex(rotation_from_quaternion(q[None])[0]) for q in quaternions] == expected  # stacks of one
    poses, fault = poses_from_stack(stacked, quaternions[:, 1:])
    assert fault is None
    assert [_hex(p.rotation) for p in poses] == expected
    assert [_hex(p.translation) for p in poses] == [_hex(q[1:]) for q in quaternions]
    assert _hex(row_norms(quaternions)) == [float(np.linalg.norm(q)).hex() for q in quaternions]


def test_quaternion_stack_marks_bad_norms_without_warning():
    quaternions = np.array([[1.0, 0, 0, 0], [0.0, 0, 0, 0], [np.nan, 0, 0, 0], [np.inf, 0, 0, 0], [1e200, 1e200, 0, 0]])
    rotations = rotation_from_quaternion(quaternions)
    assert np.array_equal(rotations[0], np.eye(3))
    assert np.isnan(rotations[1:]).all()
    for q in quaternions[1:]:
        with pytest.raises(InvalidParameterError, match="zero or non-finite norm"):
            rotation_from_quaternion(q)
    assert rotation_from_quaternion(np.zeros((0, 4))).shape == (0, 3, 3)
    with pytest.raises(InvalidParameterError, match="4 components"):
        rotation_from_quaternion(np.ones((2, 3)))


def _one_canonical_quaternion(rotation):
    """The one-pose fixed-point search as written before stacks, and how it ended: the oracle."""
    q = _quaternion_of_rotation(rotation)
    seen = []
    for _ in range(8):
        key = q.tobytes()
        if seen and key == seen[-1]:
            return q, "settled"
        if key in seen:
            return np.frombuffer(min(seen), dtype=np.float64), "came back"
        seen.append(key)
        q = _quaternion_of_rotation(rotation_from_quaternion(q))
    return np.frombuffer(min(seen), dtype=np.float64), "eight rounds"


def test_canonical_quaternions_match_the_one_pose_search():
    rng = np.random.default_rng(99)
    axes = rng.standard_normal((1500, 3))
    axes *= rng.uniform(0.0, np.pi, (1500, 1)) / np.linalg.norm(axes, axis=1, keepdims=True)
    rotations = np.concatenate([rotation_from_axis_angle(axes), [np.eye(3), np.diag([1.0, -1.0, -1.0])]])
    expected, endings = zip(*(_one_canonical_quaternion(r) for r in rotations))
    assert set(endings) == {"settled", "came back", "eight rounds"}
    assert [_hex(q) for q in canonical_quaternions(rotations)] == [_hex(q) for q in expected]
    assert [_hex(canonical_quaternions(r[None])[0]) for r in rotations[:50]] == [_hex(q) for q in expected[:50]]
    assert canonical_quaternions(np.zeros((0, 3, 3))).shape == (0, 4)
    with pytest.raises(InvalidParameterError, match="not a proper rotation"):
        canonical_quaternions([np.eye(3), np.full((3, 3), np.nan)])


def test_constructors_satisfy_rotation_invariants(rng):
    for _ in range(30):
        assert rotation_defect(rotation_from_quaternion(rng.standard_normal(4))) < 1e-9
        assert rotation_defect(rotation_from_axis_angle(rng.standard_normal(3))) < 1e-9


def test_rotation_defect_of_a_stack_is_each_matrix_defect(rng):
    rotations = [rotation_from_quaternion(rng.standard_normal(4)) for _ in range(20)]
    stack = np.array(rotations + [np.diag([1.0, 1.0, -1.0]), 1.001 * np.eye(3), rotations[0] + 1e-8])
    defects = rotation_defect(stack)
    assert defects.tolist() == [rotation_defect(r) for r in stack]
    assert np.all(defects[:20] < 1e-9)
    assert defects[20] == 2.0  # a reflection: orthonormal, determinant -1
    assert defects[21] > 1e-3 and defects[22] > 1e-9


# ---------------------------------------------------------------------------
# pose algebra
# ---------------------------------------------------------------------------


def test_compose_is_associative(rng):
    for _ in range(10):
        a, b, c = (random_pose(rng) for _ in range(3))
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        assert np.allclose(left.rotation, right.rotation, atol=1e-12)
        assert np.allclose(left.translation, right.translation, atol=1e-12)


def test_pose_rejects_non_rotation():
    with pytest.raises(InvalidParameterError):
        Pose(np.eye(3) * 1.1, np.zeros(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200, -3.0])
def test_pose_rejects_non_finite_or_huge_rotation_without_warning(bad):
    # a NaN defect compares false with any tolerance; the determinant must not see the matrix either
    with pytest.raises(InvalidParameterError, match="not a proper rotation"):
        Pose(np.full((3, 3), bad), np.zeros(3))
    one_bad = np.eye(3)
    one_bad[1, 2] = bad
    with pytest.raises(InvalidParameterError, match="not a proper rotation"):
        Pose(one_bad, np.zeros(3))
    with pytest.raises(InvalidParameterError, match="not a proper rotation"):
        canonical_quaternions(one_bad[None])
    if not np.isfinite(bad):
        with pytest.raises(InvalidParameterError, match="translation must be finite"):
            Pose(np.eye(3), [0.0, bad, 0.0])


def test_poses_from_stack_stops_at_the_first_rejected_row(rng):
    rotations = np.array([random_rotation(rng) for _ in range(6)])
    translations = rng.standard_normal((6, 3))
    poses, fault = poses_from_stack(rotations, translations)
    assert fault is None and len(poses) == 6
    for row, rotation, translation, message in [
        (3, np.full((3, 3), np.nan), None, "matrix is not a proper rotation"),
        (1, np.full((3, 3), np.inf), None, "matrix is not a proper rotation"),
        (4, 1.1 * np.eye(3), None, "matrix is not a proper rotation"),
        (2, None, [0.0, np.nan, 0.0], "translation must be finite"),
        (0, np.full((3, 3), np.nan), [np.inf, 0.0, 0.0], "matrix is not a proper rotation"),  # rotation first
    ]:
        r, t = rotations.copy(), translations.copy()
        if rotation is not None:
            r[row] = rotation
        if translation is not None:
            t[row] = translation
        t[5, 0] = np.nan  # a later bad row does not matter
        poses, fault = poses_from_stack(r, t)
        assert (len(poses), fault) == (row, message)
        assert [p.rotation.tolist() for p in poses] == r[:row].tolist()
        with pytest.raises(InvalidParameterError, match=message):
            Pose(r[row], t[row])
    assert poses_from_stack(np.zeros((0, 3, 3)), np.zeros((0, 3))) == ([], None)


def test_poses_from_stack_owns_read_only_views(rng):
    rotations = np.array([random_rotation(rng) for _ in range(3)])
    translations = rng.standard_normal((3, 3))
    poses, _ = poses_from_stack(rotations, translations)
    expected = [(p.rotation.copy(), p.translation.copy()) for p in poses]
    rotations[:] = 0.0  # the caller's arrays are copied, not shared
    translations[:] = 0.0
    for pose, (r, t) in zip(poses, expected):
        assert np.array_equal(pose.rotation, r) and np.array_equal(pose.translation, t)
        assert not pose.rotation.flags.writeable and not pose.translation.flags.writeable
        with pytest.raises(ValueError):
            pose.rotation.flags.writeable = True
    assert poses[0].rotation.base is poses[2].rotation.base


def test_camera_center_identity_rotation():
    assert np.allclose(camera_center(Pose(np.eye(3), [1.0, 2.0, 3.0])), [-1.0, -2.0, -3.0])


def test_camera_center_zero_translation(rng):
    assert np.allclose(camera_center(Pose(random_rotation(rng), np.zeros(3))), np.zeros(3))


def test_camera_center_hand_applied_oracle():
    # -R^T t with R = Rz(90 deg) counterclockwise: R^T (1,0,0) = (0,-1,0)
    c = camera_center(Pose(axis_rotation("z", 90.0), [1.0, 0.0, 0.0]))
    assert np.allclose(c, [0.0, 1.0, 0.0], atol=1e-15)


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------


def test_project_optical_axis():
    assert np.allclose(project(K, [0.0, 0.0, 1.0]), [K.cx, K.cy])


def test_project_projective_invariance():
    base = project(K, [0.5, 0.25, 1.0])
    for z in (0.1, 2.0, 77.0):
        assert np.allclose(project(K, [0.5 * z, 0.25 * z, z]), base)


def test_project_arithmetic_oracle():
    assert np.allclose(project(K, [0.1, -0.2, 2.0]), [345.0, 190.0])


def test_project_behind_camera():
    with pytest.raises(BehindCameraError):
        project(K, [0.0, 0.0, -1.0])
    with pytest.raises(BehindCameraError):
        project(K, [0.0, 0.0, 0.0])


def test_backproject_principal_point():
    assert np.allclose(backproject(K, [K.cx, K.cy], 3.0), [0.0, 0.0, 3.0])


def test_backproject_inverse_of_project():
    assert np.allclose(backproject(K, [345.0, 190.0], 2.0), [0.1, -0.2, 2.0])


def test_project_backproject_round_trip(rng):
    px = np.column_stack([rng.uniform(0, 640, 100), rng.uniform(0, 480, 100)])
    depth = rng.uniform(0.1, 50.0, 100)
    back = project(K, backproject(K, px, depth))
    assert np.abs(back - px).max() < 1e-9
    assert np.allclose(backproject(K, px, depth)[:, 2], depth)


def test_backproject_invalid_depth():
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(InvalidDepthError):
            backproject(K, [320.0, 240.0], bad)


def test_normalized_coords():
    assert np.allclose(normalized_coords(K, [320.0, 240.0]), [0.0, 0.0])
    assert np.allclose(normalized_coords(K, [345.0, 190.0]), [0.05, -0.1])


# ---------------------------------------------------------------------------
# error measures
# ---------------------------------------------------------------------------


def test_rotation_error_identity():
    assert rotation_error_deg(np.eye(3), np.eye(3)) == 0.0


def test_rotation_error_known_angle():
    assert abs(rotation_error_deg(axis_rotation("z", 30.0), np.eye(3)) - 30.0) < 1e-12


def test_rotation_error_compose_then_measure():
    assert abs(rotation_error_deg(axis_rotation("x", 10.0) @ axis_rotation("y", 20.0), axis_rotation("y", 20.0)) - 10.0) < 1e-9


def test_rotation_error_symmetric_and_triangle(rng):
    for _ in range(30):
        a, b, c = (random_rotation(rng) for _ in range(3))
        ab = rotation_error_deg(a, b)
        assert abs(ab - rotation_error_deg(b, a)) < 1e-9
        assert ab <= rotation_error_deg(a, c) + rotation_error_deg(c, b) + 1e-6
        assert 0.0 <= ab <= 180.0


def test_rotation_error_no_nan_at_extremes():
    assert rotation_error_deg(np.eye(3), np.eye(3)) == 0.0
    assert abs(rotation_error_deg(np.diag([1.0, -1.0, -1.0]), np.eye(3)) - 180.0) < 1e-9


def test_translation_error_identical_poses(rng):
    p = random_pose(rng)
    assert translation_error_m(p, p) == 0.0


def test_translation_error_unit_offset():
    assert translation_error_m(Pose(np.eye(3), [1.0, 0, 0]), Pose(np.eye(3), [0.0, 0, 0])) == 1.0


def test_translation_error_matches_direct_arithmetic(rng):
    for _ in range(20):
        p, q = random_pose(rng), random_pose(rng)
        direct = np.linalg.norm(
            (-p.rotation.T @ p.translation) - (-q.rotation.T @ q.translation)
        )
        assert abs(translation_error_m(p, q) - direct) < 1e-12


# ---------------------------------------------------------------------------
# intrinsics validation
# ---------------------------------------------------------------------------


def test_intrinsics_validation():
    with pytest.raises(InvalidParameterError):
        CameraIntrinsics(0.0, 500.0, 320.0, 240.0, 640, 480)
    with pytest.raises(InvalidParameterError):
        CameraIntrinsics(500.0, 500.0, 640.0, 240.0, 640, 480)
    with pytest.raises(InvalidParameterError):
        CameraIntrinsics(500.0, 500.0, 320.0, 240.0, -640, 480)
    assert CameraIntrinsics(500.0, 500.0, 320.0, 240.0, 640, 480).diagonal == 800.0


@pytest.mark.parametrize("field", ["fx", "fy", "width", "height"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_intrinsics_reject_non_finite_values(field, value):
    # NaN fails no `<= 0` test and int(inf) raises OverflowError, so both need their own check
    values = {"fx": 500.0, "fy": 500.0, "cx": 320.0, "cy": 240.0, "width": 640, "height": 480, field: value}
    with pytest.raises(InvalidParameterError):
        CameraIntrinsics(**values)
