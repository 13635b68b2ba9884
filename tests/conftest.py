"""Shared builders for pose arrays, landmark sequences and signal series, and feature checks."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from walkup.core import (
    BODY_POINT_COUNT,
    HAND_POINT_COUNT,
    SLOT_POINTS,
    Channel,
    LandmarkSequence,
    SignalSeries,
    UpdrsItem,
)
from walkup.features import extract_values

# keep property tests reproducible run-to-run
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def _pose(count: int, x: tuple, y: tuple, overrides, visibility: float) -> np.ndarray:
    i = np.arange(count)
    pts = np.stack([x[0] + x[1] * i, y[0] + y[1] * i, np.zeros(count), np.full(count, visibility)], axis=1)
    for j, c in (overrides or {}).items():
        pts[j] = (c[0], c[1], c[2] if len(c) > 2 else 0.0, visibility)
    return pts


def hand_pose(overrides: dict[int, tuple] = None, visibility: float = 1.0) -> np.ndarray:
    """A (21, 4) hand with every point at a distinct location; overrides pin specific indices."""
    return _pose(HAND_POINT_COUNT, (0.4, 0.01), (0.5, 0.005), overrides, visibility)


def body_pose(overrides: dict[int, tuple] = None, visibility: float = 1.0) -> np.ndarray:
    """A (33, 4) body, built like ``hand_pose``."""
    return _pose(BODY_POINT_COUNT, (0.3, 0.01), (0.2, 0.02), overrides, visibility)


def sequence(times=None, fps: float = 30.0, item: UpdrsItem = None, subject_id: str = "", **slots) -> LandmarkSequence:
    """Stack per-frame pose arrays into a sequence.

    Each keyword (``body``, ``left_hand``, ``right_hand``) lists one pose per
    frame, or None where the slot is absent; a slot not named is absent in
    every frame. ``times`` defaults to i / fps."""
    if times is None:
        times = np.arange(len(next(iter(slots.values())))) / fps
    poses = {}
    for slot, frames in slots.items():
        absent = np.full((SLOT_POINTS[slot], 4), np.nan)
        poses[slot] = np.stack([absent if p is None else p for p in frames])
    return LandmarkSequence(times, poses, fps, item, subject_id)


def hand_sequence(hands: list, fps: float = 30.0, item: UpdrsItem = UpdrsItem.FINGER_TAPS) -> LandmarkSequence:
    return sequence(fps=fps, item=item, right_hand=hands)


def body_sequence(bodies: list, fps: float = 30.0, item: UpdrsItem = UpdrsItem.LEG_AGILITY) -> LandmarkSequence:
    return sequence(fps=fps, item=item, body=bodies)


def same_landmarks(a: LandmarkSequence, b: LandmarkSequence) -> bool:
    """Equal timestamps and pose arrays (NaN, an absent slot, equals NaN), so
    equal presence masks too."""
    return np.array_equal(a.timestamps, b.timestamps) and all(
        np.array_equal(a.poses[slot], b.poses[slot], equal_nan=True) for slot in SLOT_POINTS
    )


def make_series(values, timestamps=None, item: UpdrsItem = UpdrsItem.FINGER_TAPS, channel: Channel = Channel.RIGHT) -> SignalSeries:
    values = np.asarray(values, dtype=float)
    if timestamps is None:
        timestamps = np.arange(len(values), dtype=float)
    return SignalSeries(item, channel, values, np.asarray(timestamps, dtype=float))


# series on which the feature engine branches: lags past the end and AR "series
# too short" (n = 1-8), zero variance, and rho_1 = -1, where PACF lag 1 is -1.0
# and PACF lags 2-5 and every AR spec are "rank deficient"
FEATURE_EDGE_SERIES = (
    *(np.arange(1.0, n + 1) ** 1.5 for n in range(1, 9)),
    np.full(30, 2.5),
    np.array([0.0, 1.0] * 20),
)


def assert_extract_matches_compute(x, specs) -> None:
    """extract_values, which shares one memo across the specs, gives each spec's
    own ``compute(x)``, bit for bit and reason for reason."""
    entries = {e.feature_id: e for e in extract_values(x, specs).entries}
    for spec in specs:
        value, reason = spec.compute(x)
        got = entries[spec.feature_id]
        assert (got.reason, np.float64(got.value).tobytes()) == (reason, np.float64(value).tobytes()), spec.feature_id


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
