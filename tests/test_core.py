import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import body_pose, hand_pose, hand_sequence, sequence
from walkup.core import (
    CHANNEL_SLOTS,
    LandmarkSequence,
    SignalSeries,
    UpdrsItem,
    fps_violation,
    frame_violation,
)


def _one_frame(slot: str, count: int) -> LandmarkSequence:
    return LandmarkSequence(np.zeros(1), {slot: np.zeros((1, count, 4))}, 30.0)


def test_sequence_body_requires_33_points():
    assert _one_frame("body", 33).present["body"].all()
    with pytest.raises(ValueError):
        _one_frame("body", 32)


def test_sequence_hand_requires_21_points():
    for slot in ("left_hand", "right_hand"):
        assert _one_frame(slot, 21).present[slot].all()
        with pytest.raises(ValueError):
            _one_frame(slot, 20)


def test_signal_series_length_mismatch():
    with pytest.raises(ValueError):
        SignalSeries(UpdrsItem.FINGER_TAPS, None, [1.0, 2.0], [0.0])


def test_item_from_name_round_trip():
    for item in UpdrsItem:
        assert UpdrsItem.from_name(item.value) is item
    with pytest.raises(ValueError):
        UpdrsItem.from_name("jumping_jacks")


def test_one_frame_lasts_zero_seconds():
    assert _one_frame("body", 33).duration_s == 0.0


def _valid(seq: LandmarkSequence) -> bool:
    """Whether ``seq`` keeps the rules ``parse_frames`` applies to every file."""
    return fps_violation(seq.fps) is None and frame_violation(seq) is None


def test_validate_well_formed_sequence():
    assert _valid(hand_sequence([hand_pose(), hand_pose()]))


def test_validate_equal_timestamps():
    seq = sequence([0.0, 0.0], item=UpdrsItem.FINGER_TAPS, right_hand=[hand_pose(), hand_pose()])
    assert frame_violation(seq) == (1, "t must increase from frame to frame")


def test_validate_allows_negative_timestamps():
    seq = sequence([-0.5, -0.2, 0.1], item=UpdrsItem.FINGER_TAPS, right_hand=[hand_pose()] * 3)
    assert _valid(seq)


def test_frame_violation_names_the_first_broken_rule_of_the_first_bad_frame():
    pts = hand_pose()
    pts[4, 3] = -0.5
    seq = sequence([0.0, 0.5, math.nan], right_hand=[hand_pose(), pts, hand_pose()])
    assert frame_violation(seq) == (1, "right_hand[4]: visibility -0.5 outside [0, 1]")
    seq = sequence([0.0, math.nan, 0.0], right_hand=[hand_pose(), pts, hand_pose()])
    assert frame_violation(seq) == (1, "non-finite number")


def test_validate_flags_nan_coordinate():
    bad = hand_pose({4: (float("nan"), 0.5)})
    assert frame_violation(hand_sequence([bad])) == (0, "non-finite number")


def test_validate_flags_bad_visibility():
    pts = hand_pose(visibility=1.0)
    pts[0] = (0.1, 0.1, 0.0, 1.5)  # one landmark with out-of-range visibility
    assert frame_violation(sequence([0.0], right_hand=[pts])) == (0, "right_hand[0]: visibility 1.5 outside [0, 1]")


def test_validate_bad_fps():
    assert fps_violation(0.0) == "fps must be positive, got 0.0"
    assert fps_violation(math.inf) == "fps must be finite"


# ── property: generated-valid sequences pass; single mutations fail ──

_items = st.sampled_from(list(UpdrsItem))
_coords = st.floats(min_value=-0.25, max_value=1.25, allow_nan=False)


@st.composite
def valid_sequences(draw):
    item = draw(_items)
    n = draw(st.integers(min_value=1, max_value=6))
    fps = draw(st.floats(min_value=1.0, max_value=120.0, allow_nan=False))
    slot = list(CHANNEL_SLOTS[item].values())[-1]  # right_hand or body
    pose = body_pose if slot == "body" else hand_pose
    times, poses = [], []
    t = 0.0
    for i in range(n):
        t += draw(st.floats(min_value=1e-3, max_value=0.5, allow_nan=False))
        x = draw(_coords)
        y = draw(_coords)
        times.append(t)
        poses.append(pose({0: (x, y)}))
    return sequence(times, fps=fps, item=item, **{slot: poses})


@settings(max_examples=50, deadline=None)
@given(valid_sequences())
def test_generated_valid_sequences_pass(seq):
    assert _valid(seq)


@settings(max_examples=50, deadline=None)
@given(valid_sequences(), st.sampled_from(["fps", "timestamp", "nan", "visibility"]))
def test_single_mutation_is_caught(seq, mutation):
    if mutation == "fps":
        broken = dataclasses.replace(seq, fps=-1.0)
    elif mutation == "timestamp" and len(seq) >= 2:
        times = seq.timestamps.copy()
        times[1] = times[0]
        broken = dataclasses.replace(seq, timestamps=times)
    else:
        slot = "right_hand" if seq.present["right_hand"][0] else "body"
        pts = seq.poses[slot].copy()
        pts[0, 3] = (np.nan, 0.5, 0.0, 1.0) if mutation == "nan" else (0.5, 0.5, 0.0, 1.5)
        broken = dataclasses.replace(seq, poses={**seq.poses, slot: pts})
    assert not _valid(broken)
