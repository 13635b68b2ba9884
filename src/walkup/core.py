"""Landmark and signal data model.

Coordinates are normalized image units throughout (x, y in roughly [0, 1],
y pointing down, z a unitless relative depth). Angle signals are degrees,
distance signals normalized units, tremor flags {0, 1}.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

__all__ = [
    "LandmarkSequence",
    "UpdrsItem",
    "Channel",
    "Side",
    "SignalSeries",
    "Violation",
    "ValidationReport",
    "validate_sequence",
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


class Side(enum.Enum):
    LEFT = "left"
    RIGHT = "right"


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
    x, y, z, visibility (NaN where the slot is absent) and an ``(n_frames,)``
    presence mask. A slot left out of ``poses`` is absent in every frame.
    The arrays are read-only; the unit of ingestion."""

    timestamps: np.ndarray
    poses: Mapping[str, np.ndarray]
    present: Mapping[str, np.ndarray]
    fps: float
    item: Optional[UpdrsItem] = None
    subject_id: str = ""

    def __post_init__(self):
        times = np.asarray(self.timestamps, dtype=float)
        n = len(times)
        poses, present = {}, {}
        for slot, count in SLOT_POINTS.items():
            pts = self.poses.get(slot)
            pts = np.full((n, count, 4), np.nan) if pts is None else np.asarray(pts, dtype=float)
            mask = np.asarray(self.present.get(slot, np.zeros(n, dtype=bool)), dtype=bool)
            if pts.shape != (n, count, 4) or mask.shape != (n,):
                raise ValueError(f"{slot} needs ({n}, {count}, 4) points and ({n},) presence")
            poses[slot], present[slot] = _read_only(pts), _read_only(mask)
        object.__setattr__(self, "timestamps", _read_only(times))
        object.__setattr__(self, "poses", poses)
        object.__setattr__(self, "present", present)

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

    def add(self, code: str, message: str, frame: Optional[int] = None) -> None:
        self.violations.append(Violation(code, message, frame))

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "\n".join(str(v) for v in self.violations)


_COMPONENTS = ("x", "y", "z", "visibility")


def validate_sequence(seq: LandmarkSequence) -> ValidationReport:
    """Diagnose a sequence against the data-model invariants.

    Returns a report rather than raising: an empty report means valid.
    Checks timestamps (non-negative, strictly increasing), fps, landmark
    finiteness and visibility range, and the item/pose requirement table.
    """
    report = ValidationReport()
    if not len(seq):
        report.add("empty", "sequence contains no frames")
        return report
    if not (seq.fps > 0):
        report.add("bad_fps", f"fps must be positive, got {seq.fps}")

    # (frame, rank within the frame, code, message), reported in frame order
    found = []
    t = seq.timestamps
    finite = np.isfinite(t)
    for i in np.flatnonzero(~finite):
        found.append((i, -2, "bad_timestamp", "non-finite timestamp"))
    for i in np.flatnonzero(finite & (t < 0)):
        found.append((i, -2, "bad_timestamp", f"negative timestamp {float(t[i])}"))
    for i in np.flatnonzero(~(t[1:] > t[:-1])) + 1:
        found.append((i, -1, "non_monotone", "non-increasing timestamps"))
    rank = 0
    for slot, pts in seq.poses.items():
        bad = ~np.isfinite(pts)
        vis = pts[:, :, 3]
        flagged = seq.present[slot][:, None] & (bad.any(axis=2) | ~((vis >= 0.0) & (vis <= 1.0)))
        for i, j in zip(*np.nonzero(flagged)):
            if bad[i, j].any():
                issue = f"non-finite {_COMPONENTS[int(np.argmax(bad[i, j]))]}"
            else:
                issue = f"visibility {float(vis[i, j])} outside [0, 1]"
            found.append((i, rank + j, "bad_landmark", f"{slot}[{j}]: {issue}"))
        rank += pts.shape[1]
    for i, _, code, message in sorted(found, key=lambda f: f[:2]):
        report.add(code, message, frame=int(i))

    if seq.item is not None:
        required = REQUIRED_POSE[seq.item]
        if required == "hand":
            has_pose = seq.present["left_hand"] | seq.present["right_hand"]
        else:
            has_pose = seq.present["body"]
        missing = int((~has_pose).sum())
        if missing:
            report.add(
                "missing_pose",
                f"item requires {required} landmarks; missing in "
                f"{missing} of {len(seq)} frames",
            )
    return report
