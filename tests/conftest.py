"""Shared builders for hand/body poses and signal series."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from walkup.core import (
    BODY_POINT_COUNT,
    HAND_POINT_COUNT,
    BodyPose,
    Channel,
    HandPose,
    Landmark,
    LandmarkFrame,
    LandmarkSequence,
    Side,
    SignalSeries,
    UpdrsItem,
)

# keep property tests reproducible run-to-run
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def hand_pose(overrides: dict[int, tuple] = None, side: Side = Side.RIGHT, visibility: float = 1.0) -> HandPose:
    """A hand with every point at a distinct location; overrides pin specific indices."""
    overrides = overrides or {}
    pts = []
    for i in range(HAND_POINT_COUNT):
        if i in overrides:
            c = overrides[i]
            pts.append(Landmark(c[0], c[1], c[2] if len(c) > 2 else 0.0, visibility))
        else:
            pts.append(Landmark(0.4 + 0.01 * i, 0.5 + 0.005 * i, 0.0, visibility))
    return HandPose(side, tuple(pts))


def body_pose(overrides: dict[int, tuple] = None, visibility: float = 1.0) -> BodyPose:
    overrides = overrides or {}
    pts = []
    for i in range(BODY_POINT_COUNT):
        if i in overrides:
            c = overrides[i]
            pts.append(Landmark(c[0], c[1], c[2] if len(c) > 2 else 0.0, visibility))
        else:
            pts.append(Landmark(0.3 + 0.01 * i, 0.2 + 0.02 * i, 0.0, visibility))
    return BodyPose(tuple(pts))


def hand_sequence(hands: list[HandPose], fps: float = 30.0, item: UpdrsItem = UpdrsItem.FINGER_TAPS) -> LandmarkSequence:
    frames = tuple(
        LandmarkFrame(
            i / fps,
            left_hand=h if h.side is Side.LEFT else None,
            right_hand=h if h.side is Side.RIGHT else None,
        )
        for i, h in enumerate(hands)
    )
    return LandmarkSequence.from_frames(frames, fps=fps, item=item)


def body_sequence(bodies: list[BodyPose], fps: float = 30.0, item: UpdrsItem = UpdrsItem.LEG_AGILITY) -> LandmarkSequence:
    frames = tuple(LandmarkFrame(i / fps, body=b) for i, b in enumerate(bodies))
    return LandmarkSequence.from_frames(frames, fps=fps, item=item)


def make_series(values, timestamps=None, item: UpdrsItem = UpdrsItem.FINGER_TAPS, channel: Channel = Channel.RIGHT) -> SignalSeries:
    values = np.asarray(values, dtype=float)
    if timestamps is None:
        timestamps = np.arange(len(values), dtype=float)
    return SignalSeries(item, channel, values, np.asarray(timestamps, dtype=float))


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
