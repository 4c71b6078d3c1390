import numpy as np
import pytest

from mfpose.errors import BehindCameraError, InvalidDepthError, InvalidParameterError
from mfpose.geometry import (
    CameraIntrinsics,
    Pose,
    backproject,
    camera_center,
    compose,
    inverse,
    normalized_coords,
    project,
    quaternion_from_rotation,
    relative,
    rot_x,
    rot_y,
    rot_z,
    rotation_defect,
    rotation_error_deg,
    rotation_from_6d,
    rotation_from_discrete_euler,
    rotation_from_quaternion,
    translation_error_m,
    translation_from_spherical,
)

from conftest import random_pose, random_rotation

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
    for _ in range(50):
        r = random_rotation(rng)
        q = quaternion_from_rotation(r)
        assert abs(np.linalg.norm(q) - 1.0) < 1e-12
        assert np.allclose(rotation_from_quaternion(q), r, atol=1e-12)


def test_constructors_satisfy_rotation_invariants(rng):
    for _ in range(30):
        assert rotation_defect(rotation_from_quaternion(rng.standard_normal(4))) < 1e-9
        a, b = rng.standard_normal(3), rng.standard_normal(3)
        assert rotation_defect(rotation_from_6d(a, b)) < 1e-9
    assert rotation_defect(rotation_from_discrete_euler(17, 211, 43)) < 1e-9


def test_rotation_defect_of_a_stack_is_each_matrix_defect(rng):
    rotations = [rotation_from_quaternion(rng.standard_normal(4)) for _ in range(20)]
    stack = np.array(rotations + [np.diag([1.0, 1.0, -1.0]), 1.001 * np.eye(3), rotations[0] + 1e-8])
    defects = rotation_defect(stack)
    assert defects.tolist() == [rotation_defect(r) for r in stack]
    assert np.all(defects[:20] < 1e-9)
    assert defects[20] == 2.0  # a reflection: orthonormal, determinant -1
    assert defects[21] > 1e-3 and defects[22] > 1e-9


# ---------------------------------------------------------------------------
# 6d parameterization
# ---------------------------------------------------------------------------


def test_6d_identity():
    assert np.allclose(rotation_from_6d([1, 0, 0], [0, 1, 0]), np.eye(3))


def test_6d_scale_invariance():
    assert np.allclose(rotation_from_6d([2, 0, 0], [0, 3, 0]), np.eye(3))


def test_6d_scale_invariance_random(rng):
    for _ in range(20):
        a, b = rng.standard_normal(3), rng.standard_normal(3)
        r1 = rotation_from_6d(a, b)
        r2 = rotation_from_6d(4.2 * a, 0.37 * b)
        assert np.allclose(r1, r2, atol=1e-12)


def test_6d_gram_schmidt_oracle():
    a, b = np.array([1.0, 1.0, 0.0]), np.array([0.0, 1.0, 0.0])
    # independent Gram-Schmidt, step by step
    c1 = a / np.linalg.norm(a)
    res = b - (b @ c1) * c1
    c2 = res / np.linalg.norm(res)
    expected = np.column_stack([c1, c2, np.cross(c1, c2)])
    assert np.allclose(rotation_from_6d(a, b), expected, atol=1e-15)
    assert np.allclose(expected[:, 2], [0.0, 0.0, 1.0])


def test_6d_degenerate_rejected():
    with pytest.raises(InvalidParameterError):
        rotation_from_6d([0, 0, 0], [1, 0, 0])
    with pytest.raises(InvalidParameterError):
        rotation_from_6d([1, 1, 0], [2, 2, 0])


# ---------------------------------------------------------------------------
# discrete Euler
# ---------------------------------------------------------------------------


def _axis_rot(axis, deg):
    # independent axis-rotation oracle (Rodrigues on a unit axis)
    a = np.radians(deg)
    u = np.zeros(3)
    u[axis] = 1.0
    k = np.array([[0, -u[2], u[1]], [u[2], 0, -u[0]], [-u[1], u[0], 0.0]])
    return np.eye(3) + np.sin(a) * k + (1 - np.cos(a)) * (k @ k)


def test_discrete_euler_identity():
    assert np.allclose(rotation_from_discrete_euler(0, 0, 90), np.eye(3))


def test_discrete_euler_pure_yaw():
    assert np.allclose(rotation_from_discrete_euler(90, 0, 90), _axis_rot(1, 90.0))


def test_discrete_euler_composition_oracle():
    # yaw 10, roll 20, pitch bin 120 -> +30 deg about x
    expected = _axis_rot(1, 10.0) @ _axis_rot(0, 30.0) @ _axis_rot(2, 20.0)
    assert np.allclose(rotation_from_discrete_euler(10, 20, 120), expected, atol=1e-12)


def test_discrete_euler_range_checks():
    for bad in [(-1, 0, 90), (360, 0, 90), (0, 360, 90), (0, 0, 180), (0, 0, -1), (1.5, 0, 90)]:
        with pytest.raises(InvalidParameterError):
            rotation_from_discrete_euler(*bad)


# ---------------------------------------------------------------------------
# spherical translation
# ---------------------------------------------------------------------------


def test_spherical_polar_axis():
    assert np.allclose(translation_from_spherical(0.0, 0.0, 1.0), [0.0, 1.0, 0.0])


def test_spherical_zero_scale():
    assert np.allclose(translation_from_spherical(123.0, 45.0, 0.0), np.zeros(3))


def test_spherical_formula_oracle():
    phi, theta, s = np.radians(45.0), np.radians(60.0), 2.0
    expected = s * np.array([np.sin(theta) * np.sin(phi), np.cos(theta), np.sin(theta) * np.cos(phi)])
    assert np.allclose(translation_from_spherical(45.0, 60.0, 2.0), expected, atol=1e-15)
    assert abs(np.linalg.norm(expected) - 2.0) < 1e-12


def test_spherical_negative_scale_rejected():
    with pytest.raises(InvalidParameterError):
        translation_from_spherical(0.0, 0.0, -0.1)


# ---------------------------------------------------------------------------
# pose algebra
# ---------------------------------------------------------------------------


def test_compose_with_inverse_is_identity(rng):
    for _ in range(20):
        p = random_pose(rng)
        ident = compose(p, inverse(p))
        assert np.allclose(ident.rotation, np.eye(3), atol=1e-12)
        assert np.allclose(ident.translation, 0.0, atol=1e-12)


def test_compose_is_associative(rng):
    for _ in range(10):
        a, b, c = (random_pose(rng) for _ in range(3))
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        assert np.allclose(left.rotation, right.rotation, atol=1e-12)
        assert np.allclose(left.translation, right.translation, atol=1e-12)


def test_relative_to_identity_reference(rng):
    q = random_pose(rng)
    rel = relative(Pose.identity(), q)
    assert np.allclose(rel.rotation, q.rotation)
    assert np.allclose(rel.translation, q.translation)


def test_relative_round_trip(rng):
    for _ in range(20):
        p1, p2 = random_pose(rng), random_pose(rng)
        rel = relative(p1, p2)
        back = compose(rel, p1)
        assert np.allclose(back.rotation, p2.rotation, atol=1e-12)
        assert np.allclose(back.translation, p2.translation, atol=1e-12)


def test_relative_of_pose_with_itself(rng):
    p = random_pose(rng)
    rel = relative(p, p)
    assert np.allclose(rel.rotation, np.eye(3), atol=1e-12)
    assert np.allclose(rel.translation, 0.0, atol=1e-12)


def test_pose_rejects_non_rotation():
    with pytest.raises(InvalidParameterError):
        Pose(np.eye(3) * 1.1, np.zeros(3))


def test_camera_center_identity_rotation():
    assert np.allclose(camera_center(Pose(np.eye(3), [1.0, 2.0, 3.0])), [-1.0, -2.0, -3.0])


def test_camera_center_zero_translation(rng):
    assert np.allclose(camera_center(Pose(random_rotation(rng), np.zeros(3))), np.zeros(3))


def test_camera_center_hand_applied_oracle():
    # -R^T t with R = Rz(90 deg) counterclockwise: R^T (1,0,0) = (0,-1,0)
    c = camera_center(Pose(rot_z(90.0), [1.0, 0.0, 0.0]))
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
    assert abs(rotation_error_deg(rot_z(30.0), np.eye(3)) - 30.0) < 1e-12


def test_rotation_error_compose_then_measure():
    assert abs(rotation_error_deg(rot_x(10.0) @ rot_y(20.0), rot_y(20.0)) - 10.0) < 1e-9


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
