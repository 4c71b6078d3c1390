import numpy as np
import pytest

from mfpose.geometry import Pose, rotation_from_axis_angle


def random_rotation(rng, max_angle_deg=180.0):
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    angle = np.radians(rng.uniform(0.0, max_angle_deg))
    return rotation_from_axis_angle(axis * angle)


def axis_rotation(axis, deg):
    """Rotation by deg degrees about the "x", "y" or "z" axis."""
    w = np.zeros(3)
    w["xyz".index(axis)] = np.radians(deg)
    return rotation_from_axis_angle(w)


def random_pose(rng, max_angle_deg=180.0, translation_scale=2.0):
    return Pose(random_rotation(rng, max_angle_deg), rng.normal(0.0, translation_scale, 3))


def small_angle_deg(r, r_gt):
    """Angle between rotations via the skew part: exact near zero, where the
    arccos-of-trace formula bottoms out around 2e-6 degrees."""
    d = np.asarray(r) @ np.asarray(r_gt).T
    v = 0.5 * np.array([d[2, 1] - d[1, 2], d[0, 2] - d[2, 0], d[1, 0] - d[0, 1]])
    return float(np.degrees(np.arcsin(np.clip(np.linalg.norm(v), -1.0, 1.0))))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
