"""Reference JSONL parse with one ``np.asarray`` per frame and slot.

This is the conversion ``walkup.ingest`` used before it decoded each slot's
points into flat per-slot arrays: each present pose list becomes its own
``(count, 4)`` array, and the frames are stacked with ``np.full`` and a scatter.
It shares the line decoding and the frame rules with the package, so it checks
the conversion alone. Its number rule is written out value by value: a JSON
string or boolean is no number, a null is NaN.
"""

from __future__ import annotations

import io

import numpy as np

from walkup.core import SLOT_POINTS, LandmarkSequence, fps_violation, frame_violations
from walkup.errors import EmptySequence, SchemaError
from walkup.ingest import _decode, _decode_frame


def _text_or_bool(value) -> bool:
    return isinstance(value, (str, bool))


def _float(value, line: int, message: str) -> float:
    if _text_or_bool(value):
        raise SchemaError(line, message)
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise SchemaError(line, message) from None


def _pose_array(rows, count: int, line: int, what: str) -> np.ndarray:
    if not isinstance(rows, list) or len(rows) != count:
        raise SchemaError(line, f"{what} must list exactly {count} points")
    bad = f"{what} points must each be [x, y, z, visibility] numbers"
    if any(not isinstance(p, list) or any(map(_text_or_bool, p)) for p in rows):
        raise SchemaError(line, bad)
    try:
        pts = np.asarray(rows, dtype=float)
    except (TypeError, ValueError, OverflowError):
        pts = None
    if pts is None or pts.shape != (count, 4):
        raise SchemaError(line, bad)
    return pts


def parse_jsonl(text: str) -> LandmarkSequence:
    """Parse JSONL ``text`` as ``parse_frames(io.StringIO(text))`` does."""
    numbered = [(no, ln) for no, ln in enumerate(io.StringIO(text), 1) if ln.strip()]
    if not numbered:
        raise EmptySequence("no content lines")
    (header_no, header_line), frame_lines = numbered[0], numbered[1:]
    header = _decode(header_line, header_no)
    if not isinstance(header, dict) or "fps" not in header:
        raise SchemaError(header_no, 'header must be an object with an "fps" field')
    fps = _float(header["fps"], header_no, "fps must be numeric")
    if bad_fps := fps_violation(fps):
        raise SchemaError(header_no, bad_fps.message)

    frames = []
    for line_no, raw in frame_lines:
        obj = _decode_frame(raw, line_no)
        if not isinstance(obj, dict):
            raise SchemaError(line_no, "frame must be a JSON object")
        if "t" not in obj:
            raise SchemaError(line_no, 'frame missing "t" field')
        t = _float(obj["t"], line_no, "t must be numeric")
        poses = {
            slot: _pose_array(obj[slot], count, line_no, slot)
            for slot, count in SLOT_POINTS.items()
            if obj.get(slot) is not None
        }
        if not poses:
            raise SchemaError(line_no, "frame has no pose")
        frames.append((line_no, t, poses))
    if not frames:
        raise EmptySequence("header present but no frames")

    t = np.array([f[1] for f in frames], dtype=float)
    poses, present = {}, {}
    for slot, count in SLOT_POINTS.items():
        idx = [i for i, f in enumerate(frames) if slot in f[2]]
        poses[slot] = np.full((len(t), count, 4), np.nan)
        present[slot] = np.zeros(len(t), dtype=bool)
        if idx:
            poses[slot][idx] = np.array([frames[i][2][slot] for i in idx])
            present[slot][idx] = True
    seq = LandmarkSequence(t, poses, present, fps)
    if broken := frame_violations(seq, first_only=True):
        raise SchemaError(frames[broken[0].frame][0], broken[0].message)
    return seq
