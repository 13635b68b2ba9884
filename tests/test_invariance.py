"""Changes to a recording that should not matter leave the analysis alone.

Each case is one synthetic hand recording, analyzed before and after the change
through ``report.analyze``. Feature values agree to 1e-9, relative above 1 and
absolute below, and peak counts agree exactly. The cases are fixed, not drawn:
an entropy count at a borderline tolerance could flip on a drawn case.
"""

import dataclasses
import functools
import itertools

import numpy as np
import pytest

from walkup.core import Channel, UpdrsItem
from walkup.report import analyze
from walkup.synth import MotionScenario, generate

_CASES = list(itertools.product(
    [UpdrsItem.FINGER_TAPS, UpdrsItem.HAND_MOVEMENT, UpdrsItem.ALTERNATING_HANDS], [1, 2, 3], [24.0, 30.0, 60.0],
))


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


def _channels(seq) -> dict[Channel, tuple[int, list[float]]]:
    """Per channel: the peak count and the feature values."""
    return {
        ch.series.channel: (ch.cadence.peak_count, [e.value for e in ch.features.entries])
        for ch in analyze(seq).channels
    }


def _assert_same(got, want):
    assert got[0] == want[0]
    a, b = np.array(got[1]), np.array(want[1])
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
