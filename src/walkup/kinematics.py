"""Geometric primitives: pairwise vectors, angles, and distances on landmarks.

Every function works over leading axes, so one call covers all frames: a
landmark array has shape ``(..., n_points, 4)`` (x, y, z, visibility) and a
vector array ``(..., 2)`` or ``(..., 3)``. A result is NaN where a landmark is
below the visibility threshold or a direction is undefined.

Default plane is the 2D image plane (x, y); depth is retained as an option
but none of the shipped signals use it by default, since the hand-orientation
angle is only well defined against the image horizontal.

Dot products and norms (``_dot``) are stacked matrix products, so BLAS
computes them, and their last bits depend on the OpenBLAS kernel that the host
picks: the SkylakeX and Haswell kernels give different bits. Both angle
functions call a direction undefined by the same test on that norm,
``sqrt(_dot(u, u)) <= NORM_EPS``.
acos/atan2 run per element through ``math``, so they give ``math``'s
floats, which NumPy's own ufuncs do not.
"""

from __future__ import annotations

import enum
import math

import numpy as np

__all__ = ["Plane", "NORM_EPS", "vector_between", "angle_between", "angle_to_horizontal", "distance"]

# Below this norm (normalized units) a direction is considered undefined.
NORM_EPS = 1e-9

_acos_deg = np.vectorize(lambda c: math.degrees(math.acos(c)), otypes=[float])
_atan2_deg = np.vectorize(lambda y, x: math.degrees(math.atan2(y, x)), otypes=[float])


class Plane(enum.Enum):
    IMAGE_2D = "2d"
    FULL_3D = "3d"


_DIMS = {Plane.IMAGE_2D: 2, Plane.FULL_3D: 3}


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def vector_between(
    points: np.ndarray,
    a: int,
    b: int,
    plane: Plane = Plane.IMAGE_2D,
    min_visibility: float = 0.0,
) -> np.ndarray:
    """Vector from point ``b`` to point ``a`` (``points[..., a] - points[..., b]``);
    NaN where either visibility is below ``min_visibility``."""
    points = np.asarray(points, dtype=float)
    dims = _DIMS[plane]  # anything but a Plane is a KeyError, not the depth plane
    vec = points[..., a, :dims] - points[..., b, :dims]
    hidden = (points[..., a, 3] < min_visibility) | (points[..., b, 3] < min_visibility)
    return np.where(hidden[..., None], np.nan, vec)


def angle_between(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Angle between two vectors in degrees, clamped into [0, 180]; NaN where
    either norm is at most ``NORM_EPS``."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    nu = np.sqrt(_dot(u, u))
    nv = np.sqrt(_dot(v, v))
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = np.clip(_dot(u, v) / (nu * nv), -1.0, 1.0)
    return _acos_deg(np.where((nu <= NORM_EPS) | (nv <= NORM_EPS), np.nan, cos))


def angle_to_horizontal(u: np.ndarray) -> np.ndarray:
    """Unsigned angle in [0, 90] degrees between a vector and the image x-axis.

    Uses the image-plane components only and is insensitive to the sign of
    ``u``: atan2(|dy|, |dx|). NaN where the image-plane norm is at most
    ``NORM_EPS``.
    """
    u = np.asarray(u, dtype=float)[..., :2]
    degenerate = np.sqrt(_dot(u, u)) <= NORM_EPS
    return _atan2_deg(np.where(degenerate, np.nan, np.abs(u[..., 1])), np.abs(u[..., 0]))


def distance(
    points: np.ndarray,
    a: int,
    b: int,
    plane: Plane = Plane.IMAGE_2D,
    min_visibility: float = 0.0,
) -> np.ndarray:
    """Euclidean distance between two landmarks in the selected plane."""
    vec = vector_between(points, a, b, plane=plane, min_visibility=min_visibility)
    return np.sqrt(_dot(vec, vec))
