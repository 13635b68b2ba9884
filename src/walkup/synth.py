"""Deterministic synthetic landmark sequences with closed-form signal targets.

Each generator drives exactly the landmarks its item's signal reads, using
constructions that make the derived signal equal the analytic target up to
float rounding (plus optional seeded noise): angle targets are realized by
rotating one ray of a landmark pair, distance targets by radial placement.
Remaining landmarks sit at anatomically plausible constants.

Cycle k of the repetition waveform lasts ``1/frequency_hz + k * growth``
seconds and swings over ``base_amplitude - k * decrement``, so inter-peak
intervals form an exact arithmetic progression and per-cycle amplitudes an
exact arithmetic decrement: the scenario parameters double as oracles for
cadence statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import core
from .core import LandmarkSequence, UpdrsItem

__all__ = ["MotionScenario", "generate", "DEFAULT_AMPLITUDE"]


@dataclass(frozen=True)
class MotionScenario:
    """Parameters of one synthetic recording."""

    item: UpdrsItem
    duration_s: float = 10.0
    fps: float = 30.0
    base_amplitude: Optional[float] = None  # degrees, or normalized units for hand movement; None: the item's default
    frequency_hz: float = 1.0
    amplitude_decrement_per_cycle: float = 0.0
    interval_growth_s_per_cycle: float = 0.0
    tremor_amplitude: float = 0.0
    tremor_freq_hz: float = 5.0
    noise_std: float = 0.0
    seed: int = 0

    def __post_init__(self):
        core.check_fields(self)
        if self.base_amplitude is None:
            object.__setattr__(self, "base_amplitude", DEFAULT_AMPLITUDE[self.item])
        if not self.duration_s > 0 or not self.fps > 0 or not self.frequency_hz > 0:
            raise ValueError("duration_s, fps and frequency_hz must be positive")
        # so that each cycle spans at least 2 frames, and _wave's loop ends
        if self.frequency_hz > self.fps / 2:
            raise ValueError(f"frequency_hz must not exceed fps / 2 = {self.fps / 2} (got {self.frequency_hz})")
        if min(self.amplitude_decrement_per_cycle, self.interval_growth_s_per_cycle, self.noise_std) < 0:
            raise ValueError("decrement, growth and noise_std must be non-negative")
        limit = _AMPLITUDE_LIMIT.get(self.item)
        if limit is not None and self.base_amplitude > limit:
            raise ValueError(
                f"{self.item.value} amplitude must not exceed {limit} (got {self.base_amplitude})"
            )


# Swing ranges the geometric constructions can realize exactly.
_AMPLITUDE_LIMIT = {
    UpdrsItem.FINGER_TAPS: 180.0,
    UpdrsItem.ALTERNATING_HANDS: 90.0,
    UpdrsItem.LEG_AGILITY: 180.0,
    UpdrsItem.FOOT_TAPS: 90.0,
}

# The swing of a scenario that gives no base_amplitude.
DEFAULT_AMPLITUDE = {
    UpdrsItem.FINGER_TAPS: 40.0,
    UpdrsItem.HAND_MOVEMENT: 0.15,
    UpdrsItem.ALTERNATING_HANDS: 60.0,
    UpdrsItem.TREMOR_AT_REST: 0.0,
    UpdrsItem.LEG_AGILITY: 30.0,
    UpdrsItem.FOOT_TAPS: 20.0,
}


def _timestamps(sc: MotionScenario) -> np.ndarray:
    n = int(round(sc.duration_s * sc.fps))
    return np.arange(n, dtype=float) / sc.fps


def _wave(sc: MotionScenario, times: np.ndarray) -> np.ndarray:
    """Repetition waveform: amp_k * (1 - cos(phase)) / 2, zero at cycle edges."""
    bounds = [0.0]
    periods = []
    k = 0
    base_period = 1.0 / sc.frequency_hz
    while bounds[-1] <= times[-1]:
        period = base_period + k * sc.interval_growth_s_per_cycle
        periods.append(period)
        bounds.append(bounds[-1] + period)
        k += 1
    bounds_arr = np.array(bounds)
    periods_arr = np.array(periods)
    cyc = np.clip(np.searchsorted(bounds_arr, times, side="right") - 1, 0, len(periods) - 1)
    phase = 2.0 * math.pi * (times - bounds_arr[cyc]) / periods_arr[cyc]
    amp = np.clip(sc.base_amplitude - cyc * sc.amplitude_decrement_per_cycle, 0.0, None)
    return amp * (1.0 - np.cos(phase)) / 2.0


def _rot(u: np.ndarray, degrees: float) -> np.ndarray:
    rad = math.radians(degrees)
    c, s = math.cos(rad), math.sin(rad)
    return np.array([c * u[0] - s * u[1], s * u[0] + c * u[1]])


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


# Standing figure in normalized image coordinates (y grows downward).
_BODY_TEMPLATE: dict[int, tuple[float, float]] = {
    0: (0.50, 0.14),
    1: (0.52, 0.12), 2: (0.53, 0.12), 3: (0.54, 0.12),
    4: (0.48, 0.12), 5: (0.47, 0.12), 6: (0.46, 0.12),
    7: (0.56, 0.14), 8: (0.44, 0.14),
    9: (0.52, 0.17), 10: (0.48, 0.17),
    core.LEFT_SHOULDER: (0.42, 0.30), core.RIGHT_SHOULDER: (0.58, 0.30),
    13: (0.38, 0.42), 14: (0.62, 0.42),
    core.LEFT_WRIST: (0.36, 0.53), core.RIGHT_WRIST: (0.64, 0.53),
    17: (0.35, 0.56), 18: (0.65, 0.56),
    19: (0.34, 0.57), 20: (0.66, 0.57),
    21: (0.35, 0.55), 22: (0.65, 0.55),
    core.LEFT_HIP: (0.45, 0.55), core.RIGHT_HIP: (0.55, 0.55),
    core.LEFT_KNEE: (0.45, 0.72), core.RIGHT_KNEE: (0.55, 0.72),
    core.LEFT_ANKLE: (0.45, 0.88), core.RIGHT_ANKLE: (0.55, 0.88),
    29: (0.43, 0.91), 30: (0.57, 0.91),
    core.LEFT_FOOT_TIP: (0.48, 0.92), core.RIGHT_FOOT_TIP: (0.52, 0.92),
}

_THIGH_LEN = 0.17
_FOOT_LEN = 0.06


_BODY_POINTS = np.array([(*_BODY_TEMPLATE[i], 0.0, 1.0) for i in range(core.BODY_POINT_COUNT)])


def _body_points(overrides: dict[int, np.ndarray]) -> np.ndarray:
    pts = _BODY_POINTS.copy()
    for i, xy in overrides.items():
        pts[i, :2] = xy
    return pts


def _mirror_hand(points: np.ndarray) -> np.ndarray:
    out = points.copy()
    out[..., 0] = 1.0 - points[..., 0]
    return out


def _hand_points(wrist: np.ndarray, tip_dirs: dict[int, np.ndarray], tip_lens: dict[int, float]) -> np.ndarray:
    """Lay out a hand: each finger chain sits on the ray to its tip."""
    chains = {4: (1, 2, 3), 8: (5, 6, 7), 12: (9, 10, 11), 16: (13, 14, 15), 20: (17, 18, 19)}
    pts = np.zeros((core.HAND_POINT_COUNT, 4))
    pts[:, 3] = 1.0
    pts[0, :2] = wrist
    for tip, joints in chains.items():
        direction = tip_dirs[tip]
        length = tip_lens[tip]
        pts[tip, :2] = wrist + length * direction
        for rank, j in enumerate(joints):
            pts[j, :2] = wrist + length * (0.3 + 0.2 * rank) * direction
    return pts


def _finger_taps_hand(angle_deg: float) -> np.ndarray:
    wrist = np.array([0.62, 0.55])
    thumb_dir = _unit(np.array([1.0, -0.2]))
    index_dir = _rot(thumb_dir, -angle_deg)  # negative: opens upward in image coords
    dirs = {
        4: thumb_dir,
        8: index_dir,
        12: _rot(thumb_dir, -95.0),
        16: _rot(thumb_dir, -110.0),
        20: _rot(thumb_dir, -125.0),
    }
    lens = {4: 0.10, 8: 0.13, 12: 0.14, 16: 0.13, 20: 0.11}
    return _hand_points(wrist, dirs, lens)


def _hand_movement_hand(extension: float) -> np.ndarray:
    reach = 0.05 + extension
    wrist = np.array([0.62, 0.55])
    base = _unit(np.array([0.15, -1.0]))
    dirs = {
        8: _rot(base, 12.0),
        12: base,
        16: _rot(base, -12.0),
        20: _rot(base, -24.0),
        4: _rot(base, 40.0),
    }
    lens = {8: reach, 12: reach, 16: reach, 20: reach, 4: 0.8 * reach + 0.02}
    pts = _hand_points(wrist, dirs, lens)
    # palm anchor at a fixed length so palm-normalized D2 stays well defined
    pts[core.MIDDLE_MCP, :2] = wrist + 0.1 * base
    return pts


def _alternating_hand(angle_deg: float) -> np.ndarray:
    pinky_tip = np.array([0.60, 0.50])
    rad = math.radians(angle_deg)
    span = 0.16
    thumb_tip = pinky_tip + span * np.array([math.cos(rad), -math.sin(rad)])
    wrist = pinky_tip + 0.5 * (thumb_tip - pinky_tip) + np.array([0.0, 0.05])
    axis = _unit(thumb_tip - pinky_tip)
    dirs = {
        4: _unit(thumb_tip - wrist),
        20: _unit(pinky_tip - wrist),
        8: _rot(axis, 25.0),
        12: _rot(axis, 45.0),
        16: _rot(axis, 65.0),
    }
    lens = {
        4: float(np.linalg.norm(thumb_tip - wrist)),
        20: float(np.linalg.norm(pinky_tip - wrist)),
        8: 0.12,
        12: 0.12,
        16: 0.12,
    }
    pts = _hand_points(wrist, dirs, lens)
    # pin the two defining tips exactly
    pts[core.THUMB_TIP, :2] = thumb_tip
    pts[core.PINKY_TIP, :2] = pinky_tip
    return pts


def _leg_agility_body(raise_deg: float) -> np.ndarray:
    overrides: dict[int, np.ndarray] = {}
    for hip_i, knee_i, shoulder_i, ankle_i in (
        (core.RIGHT_HIP, core.RIGHT_KNEE, core.RIGHT_SHOULDER, core.RIGHT_ANKLE),
        (core.LEFT_HIP, core.LEFT_KNEE, core.LEFT_SHOULDER, core.LEFT_ANKLE),
    ):
        hip = np.array(_BODY_TEMPLATE[hip_i])
        shoulder = np.array(_BODY_TEMPLATE[shoulder_i])
        torso_dir = _unit(shoulder - hip)
        knee = hip + _THIGH_LEN * _rot(torso_dir, 180.0 - raise_deg)
        overrides[knee_i] = knee
        overrides[ankle_i] = knee + np.array([0.0, 0.16])
    return _body_points(overrides)


def _foot_taps_body(lift_deg: float) -> np.ndarray:
    overrides: dict[int, np.ndarray] = {}
    for ankle_i, knee_i, tip_i, sign in (
        (core.RIGHT_ANKLE, core.RIGHT_KNEE, core.RIGHT_FOOT_TIP, 1.0),
        (core.LEFT_ANKLE, core.LEFT_KNEE, core.LEFT_FOOT_TIP, -1.0),
    ):
        ankle = np.array(_BODY_TEMPLATE[ankle_i])
        knee = np.array(_BODY_TEMPLATE[knee_i])
        shin_dir = _unit(knee - ankle)
        overrides[tip_i] = ankle + _FOOT_LEN * _rot(shin_dir, sign * (90.0 - lift_deg))
    return _body_points(overrides)


def _tremor_body(sc: MotionScenario, t: float) -> np.ndarray:
    overrides: dict[int, np.ndarray] = {}
    wrist = np.array(_BODY_TEMPLATE[core.RIGHT_WRIST])
    dx = sc.tremor_amplitude * math.sin(2.0 * math.pi * sc.tremor_freq_hz * t)
    overrides[core.RIGHT_WRIST] = wrist + np.array([dx, 0.0])
    return _body_points(overrides)


# The pose of each repetitive item at one value of its wave; a hand item's is its right hand.
_WAVE_POSE = {
    UpdrsItem.FINGER_TAPS: _finger_taps_hand,
    UpdrsItem.HAND_MOVEMENT: _hand_movement_hand,
    UpdrsItem.ALTERNATING_HANDS: _alternating_hand,
    UpdrsItem.LEG_AGILITY: _leg_agility_body,
    UpdrsItem.FOOT_TAPS: _foot_taps_body,
}


def generate(scenario: MotionScenario) -> LandmarkSequence:
    """Generate the landmark sequence for a scenario (bit-reproducible per seed)."""
    times = _timestamps(scenario)
    rng = np.random.default_rng(scenario.seed)
    item = scenario.item

    if item is UpdrsItem.TREMOR_AT_REST:
        frames = np.array([_tremor_body(scenario, float(t)) for t in times])
    else:
        make = _WAVE_POSE[item]
        frames = np.array([make(float(w)) for w in _wave(scenario, times)])
    # a hand item's left hand mirrors its right one, and both legs move in the body
    poses = {slot: _mirror_hand(frames) if slot == "left_hand" else frames for slot in core.CHANNEL_SLOTS[item].values()}

    if scenario.noise_std > 0.0:
        # one draw in frame-major order: frame, then slot, then point
        stacked = np.stack(list(poses.values()), axis=1)
        stacked[..., :2] += rng.normal(0.0, scenario.noise_std, size=stacked.shape[:3] + (2,))
        poses = dict(zip(poses, np.moveaxis(stacked, 1, 0)))

    return LandmarkSequence(times, poses, scenario.fps, item, f"synth-{scenario.seed}")
