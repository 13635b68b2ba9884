"""Landmark and signal data model.

Coordinates are normalized image units throughout (x, y in roughly [0, 1],
y pointing down, z a unitless relative depth). Angle signals are degrees,
distance signals normalized units, tremor flags {0, 1}.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional, get_type_hints

import numpy as np

__all__ = [
    "LandmarkSequence",
    "UpdrsItem",
    "Channel",
    "SignalSeries",
    "fps_violation",
    "frame_violation",
    "BODY_POINT_COUNT",
    "HAND_POINT_COUNT",
    "CHANNEL_SLOTS",
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


# The pose slot each item's channels read: MDS-UPDRS rates each side of a
# bilateral item on its own, and rest tremor once.
CHANNEL_SLOTS = {
    UpdrsItem.FINGER_TAPS: {Channel.LEFT: "left_hand", Channel.RIGHT: "right_hand"},
    UpdrsItem.HAND_MOVEMENT: {Channel.LEFT: "left_hand", Channel.RIGHT: "right_hand"},
    UpdrsItem.ALTERNATING_HANDS: {Channel.LEFT: "left_hand", Channel.RIGHT: "right_hand"},
    UpdrsItem.TREMOR_AT_REST: {Channel.GLOBAL: "body"},
    UpdrsItem.LEG_AGILITY: {Channel.LEFT: "body", Channel.RIGHT: "body"},
    UpdrsItem.FOOT_TAPS: {Channel.LEFT: "body", Channel.RIGHT: "body"},
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


def fps_violation(fps: float) -> Optional[str]:
    """Why a frame rate is not finite and positive, else None."""
    if np.isfinite(fps) and fps > 0:
        return None
    return f"fps must be positive, got {fps}" if np.isfinite(fps) else "fps must be finite"


def frame_violation(seq: LandmarkSequence) -> Optional[tuple[int, str]]:
    """The first frame that breaks a frame rule, and why, else None: timestamps
    are finite and strictly increasing, and every landmark of a present slot is
    finite with visibility in [0, 1]."""
    t = seq.timestamps
    rises = np.append(True, t[1:] > t[:-1])
    bad = ~(np.isfinite(t) & rises)
    for slot, pts in seq.poses.items():
        rows = np.flatnonzero(seq.present[slot])  # only present rows: absent ones are NaN
        bad[rows[~_rows_ok(pts if len(rows) == len(t) else pts[rows])]] = True
    if not bad.any():
        return None
    i = int(bad.argmax())
    if not np.isfinite(t[i]):
        return i, "non-finite number"
    if not rises[i]:
        return i, "t must increase from frame to frame"
    for slot, pts in seq.poses.items():
        ok = _rows_ok(pts[i, :, None])  # each landmark as a row of one point
        if seq.present[slot][i] and not ok.all():
            j = int(ok.argmin())
            if not np.isfinite(pts[i, j]).all():
                return i, "non-finite number"
            return i, f"{slot}[{j}]: visibility {pts[i, j, 3]} outside [0, 1]"


def _rows_ok(block: np.ndarray) -> np.ndarray:
    """Per row of ``(rows, points, 4)`` landmarks: all finite, visibility in [0, 1]."""
    vis = block[:, :, 3]
    return np.isfinite(block).all(axis=(1, 2)) & ((vis >= 0.0) & (vis <= 1.0)).all(axis=1)


def as_number(value, what: str) -> float:
    """``value`` as a float; a bool (which Python also takes as a number), a
    non-number or a non-finite number is a ``ValueError`` naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int too large for a float
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{what} must be finite, got {value}")
    return number


def check_fields(config) -> None:
    """Check a frozen config dataclass against its annotations: a number field
    is stored as a float (``as_number``), and a field of any other class, a
    ``bool`` included, must hold an instance of that class."""
    for name, hint in get_type_hints(type(config)).items():
        value = getattr(config, name)
        if hint is float or (hint == Optional[float] and value is not None):
            object.__setattr__(config, name, as_number(value, name))
        elif isinstance(hint, type) and not isinstance(value, hint):
            raise ValueError(f"{name} must be a {hint.__name__}, got {value!r}")
