import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import body_pose, body_sequence, hand_pose, hand_sequence
from walkup.core import (
    BodyPose,
    HandPose,
    Landmark,
    LandmarkFrame,
    LandmarkSequence,
    Side,
    SignalSeries,
    UpdrsItem,
    validate_sequence,
)


def test_body_pose_requires_33_points():
    with pytest.raises(ValueError):
        BodyPose(tuple(Landmark(0, 0) for _ in range(32)))


def test_hand_pose_requires_21_points():
    with pytest.raises(ValueError):
        HandPose(Side.LEFT, tuple(Landmark(0, 0) for _ in range(20)))


def test_frame_needs_at_least_one_pose():
    with pytest.raises(ValueError):
        LandmarkFrame(0.0)


def test_signal_series_length_mismatch():
    with pytest.raises(ValueError):
        SignalSeries(UpdrsItem.FINGER_TAPS, None, [1.0, 2.0], [0.0])


def test_item_from_name_round_trip():
    for item in UpdrsItem:
        assert UpdrsItem.from_name(item.value) is item
    with pytest.raises(ValueError):
        UpdrsItem.from_name("jumping_jacks")


def test_validate_well_formed_sequence():
    seq = hand_sequence([hand_pose(), hand_pose()])
    assert validate_sequence(seq).ok


def test_validate_equal_timestamps():
    frames = (
        LandmarkFrame(0.0, right_hand=hand_pose()),
        LandmarkFrame(0.0, right_hand=hand_pose()),
    )
    seq = LandmarkSequence.from_frames(frames, fps=30.0, item=UpdrsItem.FINGER_TAPS)
    report = validate_sequence(seq)
    assert any("non-increasing timestamps" in v.message for v in report.violations)


def test_validate_item_pose_requirement():
    seq = body_sequence([body_pose(), body_pose()], item=UpdrsItem.FINGER_TAPS)
    report = validate_sequence(seq)
    assert any("item requires hand landmarks" in v.message for v in report.violations)


def test_validate_flags_nan_coordinate():
    bad = hand_pose({4: (float("nan"), 0.5)})
    seq = hand_sequence([bad])
    report = validate_sequence(seq)
    assert any(v.code == "bad_landmark" for v in report.violations)


def test_validate_flags_bad_visibility():
    frames = (LandmarkFrame(0.0, right_hand=hand_pose(visibility=1.0)),)
    seq = LandmarkSequence.from_frames(frames, fps=30.0)
    # rebuild one landmark with out-of-range visibility
    pts = list(seq.frames[0].right_hand.points)
    pts[0] = Landmark(0.1, 0.1, 0.0, 1.5)
    seq = LandmarkSequence.from_frames(
        (LandmarkFrame(0.0, right_hand=HandPose(Side.RIGHT, tuple(pts))),), fps=30.0
    )
    report = validate_sequence(seq)
    assert any("visibility" in v.message for v in report.violations)


def test_validate_empty_sequence():
    report = validate_sequence(LandmarkSequence.from_frames((), fps=30.0))
    assert not report.ok and report.violations[0].code == "empty"


def test_validate_bad_fps():
    seq = LandmarkSequence.from_frames((LandmarkFrame(0.0, right_hand=hand_pose()),), fps=0.0)
    assert any(v.code == "bad_fps" for v in validate_sequence(seq).violations)


# ── property: generated-valid sequences pass; single mutations fail ──

_items = st.sampled_from(list(UpdrsItem))
_coords = st.floats(min_value=-0.25, max_value=1.25, allow_nan=False)


@st.composite
def valid_sequences(draw):
    item = draw(_items)
    n = draw(st.integers(min_value=1, max_value=6))
    fps = draw(st.floats(min_value=1.0, max_value=120.0, allow_nan=False))
    frames = []
    t = 0.0
    for i in range(n):
        t += draw(st.floats(min_value=1e-3, max_value=0.5, allow_nan=False))
        x = draw(_coords)
        y = draw(_coords)
        if item in (UpdrsItem.FINGER_TAPS, UpdrsItem.HAND_MOVEMENT, UpdrsItem.ALTERNATING_HANDS):
            frames.append(LandmarkFrame(t, right_hand=hand_pose({0: (x, y)})))
        else:
            frames.append(LandmarkFrame(t, body=body_pose({0: (x, y)})))
    return LandmarkSequence.from_frames(tuple(frames), fps=fps, item=item)


@settings(max_examples=50, deadline=None)
@given(valid_sequences())
def test_generated_valid_sequences_pass(seq):
    assert validate_sequence(seq).ok


@settings(max_examples=50, deadline=None)
@given(valid_sequences(), st.sampled_from(["fps", "timestamp", "nan", "pose"]))
def test_single_mutation_is_caught(seq, mutation):
    if mutation == "fps":
        broken = LandmarkSequence.from_frames(seq.frames, fps=-1.0, item=seq.item)
    elif mutation == "timestamp" and len(seq.frames) >= 2:
        frames = list(seq.frames)
        frames[1] = dataclasses.replace(frames[1], timestamp=frames[0].timestamp)
        broken = LandmarkSequence.from_frames(tuple(frames), fps=seq.fps, item=seq.item)
    elif mutation == "nan":
        frames = list(seq.frames)
        f = frames[0]
        if f.right_hand is not None:
            pts = list(f.right_hand.points)
            pts[3] = Landmark(math.nan, 0.5)
            frames[0] = LandmarkFrame(f.timestamp, right_hand=HandPose(Side.RIGHT, tuple(pts)))
        else:
            pts = list(f.body.points)
            pts[3] = Landmark(math.nan, 0.5)
            frames[0] = LandmarkFrame(f.timestamp, body=BodyPose(tuple(pts)))
        broken = LandmarkSequence.from_frames(tuple(frames), fps=seq.fps, item=seq.item)
    else:
        # swap the required pose for the wrong one
        frames = [
            LandmarkFrame(
                f.timestamp,
                body=body_pose() if f.body is None else None,
                right_hand=hand_pose() if f.right_hand is None else None,
            )
            for f in seq.frames
        ]
        broken = LandmarkSequence.from_frames(tuple(frames), fps=seq.fps, item=seq.item)
    report = validate_sequence(broken)
    assert not report.ok
