"""Geometric primitives: vector norms and angles.

Every function works over leading axes, so one call covers all frames: a
vector array has shape ``(..., 2)`` or ``(..., 3)``. An angle is NaN where a
direction is undefined, and every result is NaN where an input component is.

Dot products and norms (``_dot``) are stacked matrix products, so BLAS
computes them, and their last bits depend on the OpenBLAS kernel that the host
picks: the SkylakeX and Haswell kernels give different bits. Both angle
functions call a direction undefined by the same test on that norm,
``norm(u) <= NORM_EPS``.
acos/atan2 run per element through ``math``, so they give ``math``'s
floats, which NumPy's own ufuncs do not.
"""

from __future__ import annotations

import enum
import math

import numpy as np

__all__ = ["Plane", "NORM_EPS", "norm", "angle_between", "angle_to_horizontal"]

# Below this norm (normalized units) a direction is considered undefined.
NORM_EPS = 1e-9

_acos_deg = np.vectorize(lambda c: math.degrees(math.acos(c)), otypes=[float])
_atan2_deg = np.vectorize(lambda y, x: math.degrees(math.atan2(y, x)), otypes=[float])


class Plane(enum.Enum):
    """The axes a signal's landmark vectors keep; ``signals`` applies it."""

    IMAGE_2D = "2d"
    FULL_3D = "3d"


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def norm(u: np.ndarray) -> np.ndarray:
    """Euclidean length of each vector."""
    u = np.asarray(u, dtype=float)
    return np.sqrt(_dot(u, u))


def angle_between(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Angle between two vectors in degrees, clamped into [0, 180]; NaN where
    either norm is at most ``NORM_EPS``."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    nu = norm(u)
    nv = norm(v)
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
    return _atan2_deg(np.where(norm(u) <= NORM_EPS, np.nan, np.abs(u[..., 1])), np.abs(u[..., 0]))
