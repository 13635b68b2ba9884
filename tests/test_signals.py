import dataclasses
import hashlib
import math

import numpy as np
import pytest
from scipy.signal import butter, filtfilt

from tests.conftest import body_pose, body_sequence, hand_pose, hand_sequence, sequence
from walkup import core
from walkup.core import Channel, LandmarkSequence, UpdrsItem
from walkup.errors import MissingLandmark, SequenceTooShort
from walkup.kinematics import Plane
from walkup.report import AnalysisConfig, analyze
from walkup.signals import (
    TremorConfig,
    _butter_highpass,
    _filtfilt,
    build_all,
    side_signal,
    signal_csv,
    tremor_signal,
)
from walkup.synth import DEFAULT_AMPLITUDE, MotionScenario, generate


def _hand_seq(overrides: dict[int, tuple], item: UpdrsItem = UpdrsItem.FINGER_TAPS) -> "LandmarkSequence":
    return hand_sequence([hand_pose(overrides)], item=item)


# ── finger taps (hand openness angle) ────────────────────────────────


def test_finger_taps_coincident_tips_zero():
    seq = _hand_seq({0: (0.5, 0.5), 4: (0.6, 0.6), 8: (0.6, 0.6)})
    s = side_signal(seq, Channel.RIGHT)
    # arccos carries ~1e-6 deg rounding at exactly parallel rays
    assert s.values[0] == pytest.approx(0.0, abs=1e-5)


def test_finger_taps_orthogonal_construction():
    seq = _hand_seq({0: (0.0, 0.0), 8: (0.0, -0.2), 4: (0.2, 0.0)})
    s = side_signal(seq, Channel.RIGHT)
    assert s.values[0] == pytest.approx(90.0, abs=1e-9)


def test_finger_taps_open_pose_matches_formula_oracle():
    wrist, index_tip, thumb_tip = (0.5, 0.8), (0.45, 0.55), (0.62, 0.62)
    u = (index_tip[0] - wrist[0], index_tip[1] - wrist[1])
    v = (thumb_tip[0] - wrist[0], thumb_tip[1] - wrist[1])
    dot = u[0] * v[0] + u[1] * v[1]
    expected = math.degrees(math.acos(dot / (math.hypot(*u) * math.hypot(*v))))
    assert expected == pytest.approx(45.0, abs=0.1)  # oracle value for this pose
    seq = _hand_seq({0: wrist, 8: index_tip, 4: thumb_tip})
    s = side_signal(seq, Channel.RIGHT)
    assert s.values[0] == pytest.approx(expected, abs=1e-9)


def test_finger_taps_missing_hand_raises():
    seq = body_sequence([body_pose()], item=UpdrsItem.FINGER_TAPS)
    with pytest.raises(MissingLandmark):
        side_signal(seq, Channel.RIGHT)


def test_missing_landmark_errors_name_no_index():
    flat = hand_sequence([np.tile([0.5, 0.5, 0.0, 1.0], (21, 1))] * 90)
    with pytest.raises(MissingLandmark) as exc:
        build_all(flat)
    assert str(exc.value) == "every finger_taps/right value is undefined (low visibility or degenerate geometry)"
    with pytest.raises(MissingLandmark) as exc:
        side_signal(flat, Channel.LEFT)
    assert str(exc.value) == "no frame carries left_hand for finger_taps/left"


# ── hand movement (mean tip distance) ────────────────────────────────


def test_hand_movement_closed_fist_zero():
    w = (0.5, 0.5)
    seq = _hand_seq({0: w, 8: w, 12: w, 16: w, 20: w}, UpdrsItem.HAND_MOVEMENT)
    s = side_signal(seq, Channel.RIGHT)
    assert s.values[0] == 0.0


def test_hand_movement_mean_of_tip_distances():
    seq = _hand_seq(
        {0: (0.0, 0.0), 8: (0.1, 0.0), 12: (0.0, 0.2), 16: (-0.3, 0.0), 20: (0.0, -0.4)},
        UpdrsItem.HAND_MOVEMENT,
    )
    s = side_signal(seq, Channel.RIGHT)
    assert s.values[0] == pytest.approx(0.25, abs=1e-12)


def test_hand_movement_scales_linearly():
    base = {0: (0.1, 0.1), 8: (0.2, 0.3), 12: (0.3, 0.1), 16: (0.15, 0.4), 20: (0.05, 0.3)}
    doubled = {i: (2 * x, 2 * y) for i, (x, y) in base.items()}
    s1 = side_signal(_hand_seq(base, UpdrsItem.HAND_MOVEMENT), Channel.RIGHT)
    s2 = side_signal(_hand_seq(doubled, UpdrsItem.HAND_MOVEMENT), Channel.RIGHT)
    assert s2.values[0] == pytest.approx(2 * s1.values[0], rel=1e-12)


def test_hand_movement_palm_normalized_scale_invariant():
    base = {
        0: (0.1, 0.1), 8: (0.2, 0.3), 9: (0.15, 0.2),
        12: (0.3, 0.1), 16: (0.15, 0.4), 20: (0.05, 0.3),
    }
    tripled = {i: (3 * x, 3 * y) for i, (x, y) in base.items()}
    s1 = side_signal(_hand_seq(base, UpdrsItem.HAND_MOVEMENT), Channel.RIGHT, normalize_palm=True)
    s2 = side_signal(_hand_seq(tripled, UpdrsItem.HAND_MOVEMENT), Channel.RIGHT, normalize_palm=True)
    assert s2.values[0] == pytest.approx(s1.values[0], rel=1e-12)


# ── alternating hands (orientation vs horizontal) ────────────────────


def test_alternating_hands_level_is_zero():
    seq = _hand_seq({20: (0.4, 0.5), 4: (0.6, 0.5)}, UpdrsItem.ALTERNATING_HANDS)
    s = side_signal(seq, Channel.RIGHT)
    assert s.values[0] == pytest.approx(0.0, abs=1e-9)


def test_alternating_hands_vertical_is_ninety():
    seq = _hand_seq({20: (0.5, 0.6), 4: (0.5, 0.3)}, UpdrsItem.ALTERNATING_HANDS)
    s = side_signal(seq, Channel.RIGHT)
    assert s.values[0] == pytest.approx(90.0, abs=1e-9)


def test_alternating_hands_dominant_frequency_matches_generator():
    freq = 1.5
    sc = MotionScenario(
        item=UpdrsItem.ALTERNATING_HANDS, duration_s=10.0, fps=30.0,
        base_amplitude=60.0, frequency_hz=freq, seed=11,
    )
    s = side_signal(generate(sc), Channel.RIGHT)
    spectrum = np.abs(np.fft.rfft(s.values - s.values.mean()))
    bin_hz = 1.0 / (s.timestamps[-1] - s.timestamps[0] + 1.0 / 30.0)
    dominant = np.argmax(spectrum[1:]) + 1
    assert dominant * bin_hz == pytest.approx(freq, abs=bin_hz)


# ── leg agility ──────────────────────────────────────────────────────


def _leg_body(hip, knee, shoulder) -> np.ndarray:
    return body_pose({core.RIGHT_HIP: hip, core.RIGHT_KNEE: knee, core.RIGHT_SHOULDER: shoulder})


def test_leg_agility_standing_straight():
    body = _leg_body((0.5, 0.5), (0.5, 0.7), (0.5, 0.3))
    s = side_signal(body_sequence([body]), Channel.RIGHT)
    assert s.values[0] == pytest.approx(180.0, abs=1e-9)


def test_leg_agility_thigh_horizontal():
    body = _leg_body((0.5, 0.5), (0.7, 0.5), (0.5, 0.3))
    s = side_signal(body_sequence([body]), Channel.RIGHT)
    assert s.values[0] == pytest.approx(90.0, abs=1e-9)


def test_leg_agility_left_uses_left_landmarks():
    body = body_pose(
        {core.LEFT_HIP: (0.5, 0.5), core.LEFT_KNEE: (0.3, 0.5), core.LEFT_SHOULDER: (0.5, 0.2)}
    )
    s = side_signal(body_sequence([body]), Channel.LEFT)
    assert s.values[0] == pytest.approx(90.0, abs=1e-9)


def test_leg_agility_synth_swing_recovery():
    sc = MotionScenario(
        item=UpdrsItem.LEG_AGILITY, duration_s=8.0, fps=60.0,
        base_amplitude=30.0, frequency_hz=1.0, seed=5,
    )
    s = side_signal(generate(sc), Channel.RIGHT)
    assert float(s.values.max() - s.values.min()) == pytest.approx(30.0, abs=0.5)


# ── foot taps ────────────────────────────────────────────────────────


def test_foot_taps_flat_foot_ninety():
    body = body_pose(
        {
            core.RIGHT_ANKLE: (0.5, 0.9),
            core.RIGHT_KNEE: (0.5, 0.7),
            core.RIGHT_FOOT_TIP: (0.56, 0.9),
        }
    )
    s = side_signal(body_sequence([body], item=UpdrsItem.FOOT_TAPS), Channel.RIGHT)
    assert s.values[0] == pytest.approx(90.0, abs=1e-9)


def test_foot_taps_dorsiflexion_reduces_angle():
    sc = MotionScenario(
        item=UpdrsItem.FOOT_TAPS, duration_s=6.0, fps=60.0,
        base_amplitude=20.0, frequency_hz=1.0, seed=5,
    )
    s = side_signal(generate(sc), Channel.RIGHT)
    assert float(s.values.max()) == pytest.approx(90.0, abs=1e-9)
    assert float(s.values.min()) == pytest.approx(70.0, abs=0.5)


def test_foot_taps_degenerate_frame_becomes_gap():
    good = body_pose(
        {
            core.RIGHT_ANKLE: (0.5, 0.9),
            core.RIGHT_KNEE: (0.5, 0.7),
            core.RIGHT_FOOT_TIP: (0.56, 0.9),
        }
    )
    degenerate = body_pose(
        {
            core.RIGHT_ANKLE: (0.5, 0.7),
            core.RIGHT_KNEE: (0.5, 0.7),  # knee == ankle
            core.RIGHT_FOOT_TIP: (0.56, 0.9),
        }
    )
    seq = body_sequence([good, degenerate, good], item=UpdrsItem.FOOT_TAPS)
    s = side_signal(seq, Channel.RIGHT)
    assert len(s) == 2
    assert list(s.timestamps) == [0.0, 2 / 30.0]


# ── tremor ───────────────────────────────────────────────────────────


def _static_body_seq(n: int = 90, fps: float = 30.0) -> LandmarkSequence:
    return body_sequence([body_pose()] * n, fps=fps, item=UpdrsItem.TREMOR_AT_REST)


def _wrist_seq(dxs, fps: float) -> LandmarkSequence:
    """A resting body whose right wrist is shifted by dxs[i] in frame i."""
    bodies = [body_pose({core.RIGHT_WRIST: (0.64 + dx, 0.53)}) for dx in dxs]
    return body_sequence(bodies, fps=fps, item=UpdrsItem.TREMOR_AT_REST)


def test_tremor_static_all_zero():
    s = tremor_signal(_static_body_seq())
    assert len(s) > 0
    assert (s.values == 0.0).all()


def test_tremor_oscillating_wrist_all_one():
    # RMS of a 5 Hz, 0.02-amplitude sinusoid is 0.0141 > threshold 0.005
    fps, n = 30.0, 300
    s = tremor_signal(_wrist_seq([0.02 * math.sin(2 * math.pi * 5.0 * (i / fps)) for i in range(n)], fps))
    assert (s.values == 1.0).all()


def test_tremor_slow_drift_filtered_out():
    fps, n = 30.0, 300
    s = tremor_signal(_wrist_seq([0.05 * math.sin(2 * math.pi * 0.1 * (i / fps)) for i in range(n)], fps))
    assert (s.values == 0.0).all()


def test_tremor_reads_only_the_body():
    # a right hand shaking at 5 Hz (RMS 0.0141 > 0.005) beside a still body: tremor reads
    # the body, the slot core.CHANNEL_SLOTS names, so the hand changes no window
    fps, n = 30.0, 300
    bodies = [body_pose()] * n
    hands = [hand_pose({0: (0.5 + 0.02 * math.sin(2 * math.pi * 5.0 * (i / fps)), 0.5)}) for i in range(n)]
    both = sequence(fps=fps, item=UpdrsItem.TREMOR_AT_REST, body=bodies, right_hand=hands)
    alone = tremor_signal(_static_body_seq(n=n, fps=fps))
    s = tremor_signal(both)
    assert (alone.values == 0.0).all()
    assert np.array_equal(s.values, alone.values)
    assert np.array_equal(s.timestamps, alone.timestamps)


def test_tremor_sequence_too_short():
    with pytest.raises(SequenceTooShort):
        tremor_signal(_static_body_seq(n=10))


@pytest.mark.parametrize(
    "n, fps, error, message",
    [
        (1, 30.0, SequenceTooShort, "needs at least one full window"),
        (12, 3.0, ValueError, "highpass cutoff 2.0 Hz not below Nyquist 1.50 Hz"),
        (8, 5.0, SequenceTooShort, "needs more than 9 frames, got 8"),
    ],
    ids=["one_frame", "below_nyquist", "shorter_than_padding"],
)
def test_tremor_rejects_what_it_cannot_filter(n, fps, error, message):
    with pytest.raises(error, match=message):
        tremor_signal(_static_body_seq(n=n, fps=fps))


def test_tremor_values_binary_and_threshold_monotone():
    fps, n = 30.0, 240
    rng = np.random.default_rng(3)
    seq = _wrist_seq([float(rng.normal(0, 0.004)) for _ in range(n)], fps)
    lo = tremor_signal(seq, TremorConfig(rms_threshold=0.001))
    hi = tremor_signal(seq, TremorConfig(rms_threshold=0.01))
    for s in (lo, hi):
        assert set(np.unique(s.values)) <= {0.0, 1.0}
    # raising the threshold never turns a 0 into a 1
    assert (hi.values <= lo.values).all()


def test_tremor_window_timing():
    s = tremor_signal(_static_body_seq(n=300, fps=30.0))
    # 1 s windows, 50% overlap over 10 s -> 19 windows at centers 0.48, 0.98, ...
    assert len(s) == 19
    assert s.timestamps[0] == pytest.approx((0.0 + 29 / 30.0) / 2)


# ── dispatch ─────────────────────────────────────────────────────────


def test_build_all_leg_agility_two_channels():
    sc = MotionScenario(item=UpdrsItem.LEG_AGILITY, duration_s=2.0, base_amplitude=30.0, seed=0)
    series = build_all(generate(sc))
    assert [s.channel for s in series] == [Channel.LEFT, Channel.RIGHT]


def test_build_all_tremor_single_global():
    sc = MotionScenario(item=UpdrsItem.TREMOR_AT_REST, duration_s=4.0, seed=0)
    series = build_all(generate(sc))
    assert len(series) == 1
    assert series[0].channel is Channel.GLOBAL


def test_build_all_right_hand_only():
    series = build_all(hand_sequence([hand_pose()] * 3))
    assert len(series) == 1
    assert series[0].channel is Channel.RIGHT


def test_build_all_left_hand_only():
    seq = sequence([0.0, 1 / 30], item=UpdrsItem.HAND_MOVEMENT, left_hand=[hand_pose()] * 2)
    assert [s.channel for s in build_all(seq)] == [Channel.LEFT]


@pytest.mark.parametrize(
    "item, given, missing",
    [
        (UpdrsItem.FINGER_TAPS, "body", "left_hand"),
        (UpdrsItem.HAND_MOVEMENT, "body", "left_hand"),
        (UpdrsItem.ALTERNATING_HANDS, "body", "left_hand"),
        (UpdrsItem.LEG_AGILITY, "right_hand", "body"),
        (UpdrsItem.FOOT_TAPS, "right_hand", "body"),
    ],
    ids=lambda v: v.value if isinstance(v, UpdrsItem) else v,
)
def test_build_all_without_a_carried_slot_raises(item, given, missing):
    # no frame carries a slot the item reads: no channel is built, and the first one says why
    pose = body_pose() if given == "body" else hand_pose()
    seq = sequence([0.0, 1 / 30], item=item, **{given: [pose] * 2})
    with pytest.raises(MissingLandmark) as exc:
        build_all(seq)
    assert str(exc.value) == f"no frame carries {missing} for {item.value}/left"


def test_build_all_rejects_a_plane_that_is_not_a_plane():
    # the string "2d" used to mean the depth plane
    sc = MotionScenario(item=UpdrsItem.FINGER_TAPS, duration_s=1.0, seed=0)
    with pytest.raises(KeyError):
        build_all(generate(sc), plane="2d")


def test_build_all_requires_item_tag():
    with pytest.raises(ValueError):
        build_all(sequence([0.0], right_hand=[hand_pose()]))


@pytest.mark.parametrize(
    "item, channel",
    [(None, Channel.RIGHT), (UpdrsItem.TREMOR_AT_REST, Channel.RIGHT), (UpdrsItem.FINGER_TAPS, Channel.GLOBAL)],
    ids=["untagged", "tremor", "global"],
)
def test_side_signal_rejects_what_has_no_side(item, channel):
    seq = sequence([0.0], item=item, body=[body_pose()], right_hand=[hand_pose()])
    with pytest.raises(ValueError):
        side_signal(seq, channel)


def _noisy_recording(item: UpdrsItem, seed: int) -> LandmarkSequence:
    """3 s of ``item`` with coordinate noise; synth moves only x and y, so a
    seeded depth wobble gives the 3d plane bits of its own."""
    seq = generate(MotionScenario(
        item=item, duration_s=3.0, base_amplitude=DEFAULT_AMPLITUDE[item],
        tremor_amplitude=0.02, noise_std=0.002, seed=seed,
    ))
    rng = np.random.default_rng(seed)
    poses = {}
    for slot, pts in seq.poses.items():
        pts = pts.copy()
        pts[..., 2] += rng.normal(0.0, 0.01, size=pts.shape[:2])
        poses[slot] = pts
    return dataclasses.replace(seq, poses=poses)


_PINNED_CONFIGS = {
    "default": AnalysisConfig(),
    "3d_palm": AnalysisConfig(plane=Plane.FULL_3D, normalize_palm=True),
}


@pytest.mark.parametrize(
    "config, item, digests",
    [
        ("default", "finger_taps", (
            "db0ee23c2da1350f54bc26cad225d74499db1994d820490c5c45551b540674d0",
            "cc6f13dcd5382892dc87039913645dfbbd063167426ee0a16eaf8ea06aedb6bd",
        )),
        ("default", "hand_movement", (
            "5042dd7db44dccccb5c9edef43f4c8ce490667f7a40e80228c162893875116d2",
            "a8e965909c4ffb5d4dfc82dc440a6cfe5bea5649fe53841d41b750fe6216e6b5",
        )),
        ("default", "alternating_hands", (
            "5db9e297df02bc5b61264bede2438694ceb6e1e50de0e7d203e202e00fdbe6d8",
            "18bd494bf0d324f462002d713ba70de832705a2c50998b704160f910668dc538",
        )),
        ("default", "tremor_at_rest", (
            "f7f1339757d5aefa986e3e97774557bda73e9de2ca8677af3ca414924b55bd5e",
        )),
        ("default", "leg_agility", (
            "075923736c363d8ef9668dde2903d6f3dcb4105930bf8c2d0dfa0f3290c8f78d",
            "6a24317061f6b57b183827b3b0f7ac445bb1d200375ab87cc970eaee60ff3da0",
        )),
        ("default", "foot_taps", (
            "e5358dbc54d32b779fdef04b32f15906e34441be29320135870913a7b2d002b4",
            "36c7e474a11637909ec03682621c4e41c13341c923f652f76b79d18b0a2f745a",
        )),
        ("3d_palm", "finger_taps", (
            "9ebd5762f91fd5c03f0d11deccb8b6be5c3519e824f418538b2a9de1ba58c1ee",
            "faf0f5061b061cb2709ab8a5b7255c82f31aaf21995dae7650647bb1cf4f8983",
        )),
        ("3d_palm", "hand_movement", (
            "2874375008f2e4a3d0d266de05c23f5e5814bc06b7bf5e8c61d5726ea36559d9",
            "eb0d08cc61989250d029f4ace5a271d36c3bc0e18ef514c154f314ad91ebf6ab",
        )),
        ("3d_palm", "alternating_hands", (
            "5db9e297df02bc5b61264bede2438694ceb6e1e50de0e7d203e202e00fdbe6d8",
            "18bd494bf0d324f462002d713ba70de832705a2c50998b704160f910668dc538",
        )),
        ("3d_palm", "tremor_at_rest", (
            "f7f1339757d5aefa986e3e97774557bda73e9de2ca8677af3ca414924b55bd5e",
        )),
        ("3d_palm", "leg_agility", (
            "a631d30162993e92dc25d62e3f8ed277bf94da0f61af6e651d8e4342368a031e",
            "c6e9699835d230ad3a8f36b64dc2f9b9878514bf2f39b86bf8415396e5cdb07d",
        )),
        ("3d_palm", "foot_taps", (
            "649e0d5ff6f17f66b0c97be0678e02afd15720b8b9d50e4242c5354eaff389f7",
            "d4338b55ff721f10d5734ffeb7b11d04cfa01acbcd6d7973832014d1861f3bd3",
        )),
    ],
)
def test_every_item_signal_bytes_are_pinned(config, item, digests):
    # SHA-256 of signal_csv per channel, left to right: a change to the order
    # of any signal's float operations shows up here
    item = UpdrsItem(item)
    seq = _noisy_recording(item, 40 + list(UpdrsItem).index(item))
    channels = analyze(seq, _PINNED_CONFIGS[config]).channels
    got = tuple(hashlib.sha256(signal_csv(ch.series).encode()).hexdigest() for ch in channels)
    assert got == digests


# ── geometric invariances (similarity transforms) ────────────────────


def _transform_seq(seq, scale, theta, tx, ty, rotate=True):
    c, s = math.cos(theta), math.sin(theta)
    poses = {}
    for slot, pts in seq.poses.items():
        x, y, z, visibility = np.moveaxis(pts, -1, 0)
        if rotate:
            x, y = c * x - s * y, s * x + c * y
        poses[slot] = np.stack([scale * x + tx, scale * y + ty, scale * z, visibility], axis=-1)
    return dataclasses.replace(seq, poses=poses)


def test_angle_signal_similarity_invariance(rng):
    sc = MotionScenario(item=UpdrsItem.FINGER_TAPS, duration_s=2.0, base_amplitude=40.0, seed=9)
    seq = generate(sc)
    base = side_signal(seq, Channel.RIGHT).values
    # skip the closed-hand instants: arccos is ill-conditioned at 0 degrees
    mask = (base > 0.5) & (base < 179.5)
    assert mask.any()
    for _ in range(20):
        scale = rng.uniform(0.2, 4.0)
        theta = rng.uniform(0, 2 * math.pi)
        tx, ty = rng.uniform(-1, 1, size=2)
        moved = side_signal(
            _transform_seq(seq, scale, theta, tx, ty), Channel.RIGHT
        ).values
        assert np.abs(moved[mask] - base[mask]).max() < 1e-9


def test_alternating_hands_rotation_counterexample():
    seq = _hand_seq({20: (0.4, 0.5), 4: (0.6, 0.5)}, UpdrsItem.ALTERNATING_HANDS)
    base = side_signal(seq, Channel.RIGHT).values[0]
    rotated = side_signal(
        _transform_seq(seq, 1.0, math.radians(30), 0.0, 0.0), Channel.RIGHT
    ).values[0]
    assert abs(rotated - base) > 1.0  # orientation signal is not rotation invariant
    shifted = side_signal(
        _transform_seq(seq, 2.0, 0.0, 0.3, -0.2, rotate=False), Channel.RIGHT
    ).values[0]
    assert shifted == pytest.approx(base, abs=1e-9)  # but scale/translation invariant


def test_hand_movement_homogeneity(rng):
    sc = MotionScenario(
        item=UpdrsItem.HAND_MOVEMENT, duration_s=2.0, base_amplitude=0.15, seed=9
    )
    seq = generate(sc)
    base = side_signal(seq, Channel.RIGHT).values
    for _ in range(10):
        scale = rng.uniform(0.2, 4.0)
        tx, ty = rng.uniform(-1, 1, size=2)
        moved = side_signal(
            _transform_seq(seq, scale, 0.0, tx, ty, rotate=False), Channel.RIGHT
        ).values
        assert np.abs(moved - scale * base).max() < 1e-12 * max(1.0, scale)


# ── in-repo high-pass filter against scipy.signal, bit for bit ───────


def test_butter_highpass_matches_scipy(rng):
    for cut in [2.0 / 15.0, 1e-3, 0.5, 0.999] + list(rng.uniform(0.0, 1.0, 300)):
        want_b, want_a = butter(2, cut, btype="highpass")
        b, a = _butter_highpass(float(cut))
        assert b.tobytes() == want_b.tobytes() and a.tobytes() == want_a.tobytes()


def test_filtfilt_matches_scipy(rng):
    padlen = 9
    shapes = [(padlen + 1, 1), (padlen + 1, 4), (padlen + 2, 3)]
    shapes += [(int(rng.integers(padlen + 1, 400)), int(rng.integers(1, 9))) for _ in range(150)]
    for n, columns in shapes:
        b, a = _butter_highpass(float(rng.uniform(0.01, 0.99)))
        x = rng.normal(size=(n, columns)).cumsum(axis=0)
        assert _filtfilt(b, a, x, padlen).tobytes() == filtfilt(b, a, x, axis=0).tobytes()
