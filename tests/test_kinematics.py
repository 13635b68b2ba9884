import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from walkup.kinematics import Plane, angle_between, angle_to_horizontal, distance, vector_between

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)


def _points(*rows):
    """Landmark array from (x, y), (x, y, z) or (x, y, z, visibility) rows."""
    defaults = (0.0, 0.0, 0.0, 1.0)
    return np.array([tuple(r) + defaults[len(r) :] for r in rows], dtype=float)


def test_vector_between_componentwise():
    pts = _points((0.5, 0.5), (0.6, 0.5))
    v = vector_between(pts, 1, 0)
    assert v == pytest.approx([0.1, 0.0])


def test_vector_between_same_point_is_zero():
    pts = _points((0.3, 0.7))
    assert np.allclose(vector_between(pts, 0, 0), [0.0, 0.0])


def test_vector_between_visibility_threshold():
    pts = _points((0.5, 0.5, 0.0, 0.2), (0.6, 0.5))
    assert np.isnan(vector_between(pts, 1, 0, min_visibility=0.5)).all()


def test_angle_between_orthogonal():
    assert angle_between([1, 0], [0, 1]) == pytest.approx(90.0)


def test_angle_between_parallel_scale_free():
    assert angle_between([1, 0], [2, 0]) == pytest.approx(0.0)


def test_angle_between_near_opposite():
    # oracle: arccos of the normalized dot product, evaluated directly
    u, v = (1.0, 0.0), (-1.0, 1e-12)
    dot = u[0] * v[0] + u[1] * v[1]
    expected = math.degrees(
        math.acos(dot / (math.hypot(*u) * math.hypot(*v)))
    )
    assert expected == pytest.approx(180.0, abs=1e-6)
    assert angle_between(u, v) == pytest.approx(expected, abs=1e-6)


def test_angle_between_degenerate():
    assert np.isnan(angle_between([0, 0], [1, 0]))


def test_angle_to_horizontal_axes():
    assert angle_to_horizontal([1, 0]) == pytest.approx(0.0)
    assert angle_to_horizontal([0, 1]) == pytest.approx(90.0)
    assert angle_to_horizontal([1, 1]) == pytest.approx(45.0)


def test_angle_to_horizontal_degenerate():
    assert np.isnan(angle_to_horizontal([0.0, 0.0]))


def test_distance_345():
    pts = _points((0.0, 0.0), (0.3, 0.4))
    assert distance(pts, 1, 0) == pytest.approx(0.5)


def test_distance_identity():
    pts = _points((0.2, 0.9))
    assert distance(pts, 0, 0) == 0.0


def test_distance_full3d():
    # oracle: direct Euclidean norm
    expected = math.sqrt(0.3**2 + 0.4**2 + 0.12**2)
    pts = _points((0.0, 0.0, 0.0), (0.3, 0.4, 0.12))
    assert expected == pytest.approx(0.514198, abs=1e-6)
    assert distance(pts, 1, 0, plane=Plane.FULL_3D) == pytest.approx(expected, abs=1e-12)
    # the 2D default ignores depth
    assert distance(pts, 1, 0) == pytest.approx(0.5)


# ── properties ───────────────────────────────────────────────────────

nonzero_vec = st.tuples(finite, finite).filter(lambda v: math.hypot(*v) > 1e-3)


@settings(max_examples=100, deadline=None)
@given(nonzero_vec, nonzero_vec)
def test_angle_between_symmetric(u, v):
    assert angle_between(u, v) == pytest.approx(angle_between(v, u), abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(nonzero_vec, nonzero_vec, st.floats(min_value=0.01, max_value=100))
def test_angle_between_scale_invariant(u, v, s):
    base = angle_between(u, v)
    assume(0.01 < base < 179.99)  # arccos is ill-conditioned at the ends
    scaled = (u[0] * s, u[1] * s)
    assert angle_between(scaled, v) == pytest.approx(base, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(nonzero_vec, nonzero_vec, st.floats(min_value=0, max_value=2 * math.pi))
def test_angle_between_rotation_invariant(u, v, theta):
    c, s = math.cos(theta), math.sin(theta)

    def rot(w):
        return (c * w[0] - s * w[1], s * w[0] + c * w[1])

    base = angle_between(u, v)
    assume(0.01 < base < 179.99)
    rotated = angle_between(rot(u), rot(v))
    assert rotated == pytest.approx(base, abs=1e-9)


def test_angle_to_horizontal_not_rotation_invariant():
    u = (1.0, 0.0)
    assert angle_to_horizontal(u) == pytest.approx(0.0)
    rotated = (math.cos(math.radians(30)), math.sin(math.radians(30)))
    assert angle_to_horizontal(rotated) == pytest.approx(30.0)
    assert abs(angle_to_horizontal(rotated) - angle_to_horizontal(u)) > 1.0


@settings(max_examples=100, deadline=None)
@given(nonzero_vec)
def test_angle_to_horizontal_sign_insensitive(u):
    flipped = (-u[0], -u[1])
    assert angle_to_horizontal(u) == pytest.approx(angle_to_horizontal(flipped), abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(finite, finite), min_size=3, max_size=3))
def test_distance_symmetry_and_triangle(points):
    pts = _points(*points)
    dab = distance(pts, 0, 1)
    dba = distance(pts, 1, 0)
    assert dab == pytest.approx(dba, abs=1e-12)
    dac = distance(pts, 0, 2)
    dcb = distance(pts, 2, 1)
    assert dab <= dac + dcb + 1e-9
