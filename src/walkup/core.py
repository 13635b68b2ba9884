"""Landmark and signal data model.

Coordinates are normalized image units throughout (x, y in roughly [0, 1],
y pointing down, z a unitless relative depth). Angle signals are degrees,
distance signals normalized units, tremor flags {0, 1}.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Optional

import numpy as np

__all__ = [
    "LandmarkSequence",
    "UpdrsItem",
    "Channel",
    "SignalSeries",
    "Violation",
    "ValidationReport",
    "validate_sequence",
    "fps_violation",
    "frame_violations",
    "BODY_POINT_COUNT",
    "HAND_POINT_COUNT",
    "REQUIRED_POSE",
    "SLOT_POINTS",
]

BODY_POINT_COUNT = 33
HAND_POINT_COUNT = 21

# Body landmark indices used by the signal builders (full-body topology).
LEFT_SHOULDER = 11
RIGHT_SHOULDER = 12
LEFT_WRIST = 15
RIGHT_WRIST = 16
LEFT_HIP = 23
RIGHT_HIP = 24
LEFT_KNEE = 25
RIGHT_KNEE = 26
LEFT_ANKLE = 27
RIGHT_ANKLE = 28
LEFT_FOOT_TIP = 31
RIGHT_FOOT_TIP = 32

# Hand landmark indices (0 = wrist, tips at 4/8/12/16/20).
HAND_WRIST = 0
THUMB_TIP = 4
INDEX_TIP = 8
MIDDLE_MCP = 9
MIDDLE_TIP = 12
RING_TIP = 16
PINKY_TIP = 20


class UpdrsItem(enum.Enum):
    """The six supported motor-examination items."""

    FINGER_TAPS = "finger_taps"
    HAND_MOVEMENT = "hand_movement"
    ALTERNATING_HANDS = "alternating_hands"
    TREMOR_AT_REST = "tremor_at_rest"
    LEG_AGILITY = "leg_agility"
    FOOT_TAPS = "foot_taps"

    @classmethod
    def from_name(cls, name: str) -> "UpdrsItem":
        try:
            return cls(name)
        except ValueError:
            valid = ", ".join(item.value for item in cls)
            raise ValueError(f"unknown item {name!r}; expected one of: {valid}") from None


class Channel(enum.Enum):
    LEFT = "left"
    RIGHT = "right"
    GLOBAL = "global"


# Which pose each item's signal reads from.
REQUIRED_POSE = {
    UpdrsItem.FINGER_TAPS: "hand",
    UpdrsItem.HAND_MOVEMENT: "hand",
    UpdrsItem.ALTERNATING_HANDS: "hand",
    UpdrsItem.TREMOR_AT_REST: "body",
    UpdrsItem.LEG_AGILITY: "body",
    UpdrsItem.FOOT_TAPS: "body",
}


SLOT_POINTS = {"body": BODY_POINT_COUNT, "left_hand": HAND_POINT_COUNT, "right_hand": HAND_POINT_COUNT}


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True, eq=False)
class LandmarkSequence:
    """Timestamps plus, per pose slot, an ``(n_frames, n_points, 4)`` array of
    x, y, z, visibility. A row of NaN is a frame where the slot is absent, and
    a slot left out of ``poses`` is absent in every frame. The arrays are
    read-only; the unit of ingestion."""

    timestamps: np.ndarray
    poses: Mapping[str, np.ndarray]
    fps: float
    item: Optional[UpdrsItem] = None
    subject_id: str = ""

    def __post_init__(self):
        times = np.asarray(self.timestamps, dtype=float)
        n = len(times)
        poses = {}
        for slot, count in SLOT_POINTS.items():
            pts = self.poses.get(slot)
            pts = np.full((n, count, 4), np.nan) if pts is None else np.asarray(pts, dtype=float)
            if pts.shape != (n, count, 4):
                raise ValueError(f"{slot} needs ({n}, {count}, 4) points")
            poses[slot] = _read_only(pts)
        object.__setattr__(self, "timestamps", _read_only(times))
        object.__setattr__(self, "poses", poses)

    @cached_property
    def present(self) -> Mapping[str, np.ndarray]:
        """Per slot, an ``(n_frames,)`` mask of the frames whose row holds a
        number, derived from ``poses``."""
        return {slot: _read_only(~np.isnan(pts).all(axis=(1, 2))) for slot, pts in self.poses.items()}

    def __len__(self) -> int:
        return len(self.timestamps)

    @property
    def duration_s(self) -> float:
        if len(self) < 2:
            return 0.0
        return float(self.timestamps[-1] - self.timestamps[0])


@dataclass(frozen=True, eq=False)
class SignalSeries:
    """One scalar channel over time (angle in degrees, distance, or tremor flag)."""

    item: UpdrsItem
    channel: Channel
    values: np.ndarray
    timestamps: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        object.__setattr__(self, "timestamps", np.asarray(self.timestamps, dtype=float))
        if self.values.shape != self.timestamps.shape:
            raise ValueError("values and timestamps must have equal length")

    def __len__(self) -> int:
        return len(self.values)

    @property
    def name(self) -> str:
        return f"{self.item.value}_{self.channel.value}"


@dataclass(frozen=True)
class Violation:
    code: str
    message: str
    frame: Optional[int] = None

    def __str__(self) -> str:
        where = f" [frame {self.frame}]" if self.frame is not None else ""
        return f"{self.code}: {self.message}{where}"


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "\n".join(str(v) for v in self.violations)


def fps_violation(fps: float) -> Optional[Violation]:
    """The ``bad_fps`` violation of a frame rate that is not finite and positive, else None."""
    if np.isfinite(fps) and fps > 0:
        return None
    return Violation("bad_fps", f"fps must be positive, got {fps}" if np.isfinite(fps) else "fps must be finite")


def frame_violations(seq: LandmarkSequence, first_only: bool = False) -> list[Violation]:
    """The frame rules ``seq`` breaks, in frame order: timestamps are finite and
    strictly increasing, and every landmark of a present slot is finite with
    visibility in [0, 1]. ``first_only`` stops at the first violating frame."""
    t = seq.timestamps
    rises = np.append(True, t[1:] > t[:-1])
    bad = ~(np.isfinite(t) & rises)
    for slot, pts in seq.poses.items():
        rows = np.flatnonzero(seq.present[slot])  # only present rows: absent ones are NaN
        bad[rows[~_rows_ok(pts if len(rows) == len(t) else pts[rows])]] = True
    found = []
    for i in np.flatnonzero(bad)[: 1 if first_only else None].tolist():
        if not np.isfinite(t[i]):
            found.append(Violation("bad_timestamp", "non-finite number", i))
        if not rises[i]:
            found.append(Violation("non_monotone", "t must increase from frame to frame", i))
        for slot, pts in seq.poses.items():
            # each landmark as a row of one point
            for j in np.flatnonzero(seq.present[slot][i] & ~_rows_ok(pts[i, :, None])).tolist():
                finite = np.isfinite(pts[i, j]).all()
                issue = f"{slot}[{j}]: visibility {pts[i, j, 3]} outside [0, 1]" if finite else "non-finite number"
                found.append(Violation("bad_landmark", issue, i))
    return found


def _rows_ok(block: np.ndarray) -> np.ndarray:
    """Per row of ``(rows, points, 4)`` landmarks: all finite, visibility in [0, 1]."""
    vis = block[:, :, 3]
    return np.isfinite(block).all(axis=(1, 2)) & ((vis >= 0.0) & (vis <= 1.0)).all(axis=1)


def validate_sequence(seq: LandmarkSequence) -> ValidationReport:
    """Diagnose a sequence against the rules ``parse_frames`` applies to every
    file (``fps_violation``, ``frame_violations``; negative timestamps are
    allowed) and the item/pose requirement table (``missing_pose``). Returns a
    report rather than raising: an empty report means valid."""
    if not len(seq):
        return ValidationReport([Violation("empty", "sequence contains no frames")])
    found = [v for v in [fps_violation(seq.fps)] if v] + frame_violations(seq)
    if seq.item is not None:
        required = REQUIRED_POSE[seq.item]
        if required == "hand":
            has_pose = seq.present["left_hand"] | seq.present["right_hand"]
        else:
            has_pose = seq.present["body"]
        missing = int((~has_pose).sum())
        if missing:
            message = f"item requires {required} landmarks; missing in {missing} of {len(seq)} frames"
            found.append(Violation("missing_pose", message))
    return ValidationReport(found)
