"""Landmark file parsing, serialization, visibility gap-fill, and resampling.

Two on-disk formats are supported:

* JSONL — header line ``{"fps": <f>, "item": "<name>"?, "subject": "<id>"?}``
  followed by one frame per line:
  ``{"t": <s>, "body": [[x,y,z,v]*33]?, "left_hand": [[x,y,z,v]*21]?,
  "right_hand": [[x,y,z,v]*21]?}``.
* CSV — header ``t,body_0_x,body_0_y,body_0_z,body_0_v,...,rh_20_v``; an
  absent pose leaves all of its cells empty. CSV carries no metadata, so
  fps is taken from the ``fps`` argument or inferred from the timestamps.
"""

from __future__ import annotations

import csv
import enum
import io
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import IO, Iterable, Optional, Union

import numpy as np

from .core import (
    BODY_POINT_COUNT,
    HAND_POINT_COUNT,
    BodyPose,
    HandPose,
    Landmark,
    LandmarkFrame,
    LandmarkSequence,
    Side,
    UpdrsItem,
)
from .errors import EmptySequence, SchemaError, UnreadableInput

__all__ = [
    "FileFormat",
    "GapFill",
    "IngestConfig",
    "parse_frames",
    "serialize_jsonl",
    "serialize_csv",
    "write_sequence",
    "resample",
    "fill_gaps",
]


class FileFormat(enum.Enum):
    JSONL = "jsonl"
    CSV = "csv"


class GapFill(enum.Enum):
    HOLD_LAST = "hold_last"
    LINEAR_INTERP = "linear_interp"
    DROP = "drop"


@dataclass(frozen=True)
class IngestConfig:
    """Cleaning/resampling knobs applied before signal construction."""

    resample_fps: Optional[float] = None
    min_visibility: float = 0.5
    gap_fill: GapFill = GapFill.LINEAR_INTERP

    def __post_init__(self):
        if self.resample_fps is not None and not self.resample_fps > 0:
            raise ValueError("resample_fps must be positive")
        if not 0.0 <= self.min_visibility <= 1.0:
            raise ValueError("min_visibility must lie in [0, 1]")


# ── parsing ──────────────────────────────────────────────────────────

PathOrStream = Union[str, Path, IO[str]]


def parse_frames(
    source: PathOrStream,
    format: FileFormat = FileFormat.JSONL,
    fps: Optional[float] = None,
    item: Optional[UpdrsItem] = None,
    subject_id: Optional[str] = None,
) -> LandmarkSequence:
    """Parse a landmark file into a LandmarkSequence, preserving source order.

    ``fps``/``item``/``subject_id`` override or supply metadata the file
    itself lacks (always needed for CSV). Raises SchemaError with the
    offending line number on malformed input, EmptySequence when no frame
    lines are present, UnreadableInput when the file cannot be read.
    """
    if isinstance(source, (str, Path)):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise UnreadableInput(f"cannot read {source}: {exc}") from exc
    else:
        try:
            text = source.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise UnreadableInput(str(exc)) from exc

    if format is FileFormat.JSONL:
        seq = _parse_jsonl(text)
    else:
        seq = _parse_csv(text)

    if fps is not None:
        seq = replace(seq, fps=fps)
    if item is not None:
        seq = replace(seq, item=item)
    if subject_id is not None:
        seq = replace(seq, subject_id=subject_id)
    return seq


def _landmark_from_cells(cells, line: int, what: str) -> Landmark:
    if not isinstance(cells, (list, tuple)) or len(cells) != 4:
        raise SchemaError(line, f"{what} must be [x, y, z, visibility]")
    try:
        x, y, z, v = (float(c) for c in cells)
    except (TypeError, ValueError):
        raise SchemaError(line, f"{what} has a non-numeric component") from None
    return Landmark(x, y, z, v)


def _pose_from_rows(rows, count: int, line: int, what: str) -> tuple[Landmark, ...]:
    if not isinstance(rows, list) or len(rows) != count:
        raise SchemaError(line, f"{what} must list exactly {count} points")
    return tuple(_landmark_from_cells(r, line, f"{what}[{i}]") for i, r in enumerate(rows))


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


# built once: json.loads with keyword arguments builds a new decoder per line
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _parse_jsonl(text: str) -> LandmarkSequence:
    lines = text.splitlines()
    numbered = [(i + 1, ln) for i, ln in enumerate(lines) if ln.strip()]
    if not numbered:
        raise EmptySequence("no content lines")

    header_no, header_line = numbered[0]
    try:
        header = _DECODER.decode(header_line)
    except json.JSONDecodeError as exc:
        raise SchemaError(header_no, f"invalid JSON: {exc.msg}") from exc
    except ValueError as exc:
        raise SchemaError(header_no, str(exc)) from None
    if not isinstance(header, dict) or "fps" not in header:
        raise SchemaError(header_no, 'header must be an object with an "fps" field')
    try:
        fps = float(header["fps"])
    except (TypeError, ValueError):
        raise SchemaError(header_no, "fps must be numeric") from None
    item = UpdrsItem.from_name(header["item"]) if header.get("item") else None
    subject = str(header.get("subject", ""))

    frames: list[LandmarkFrame] = []
    for line_no, raw in numbered[1:]:
        try:
            obj = _DECODER.decode(raw)
        except json.JSONDecodeError as exc:
            raise SchemaError(line_no, f"invalid JSON: {exc.msg}") from exc
        except ValueError as exc:
            raise SchemaError(line_no, str(exc)) from None
        if not isinstance(obj, dict):
            raise SchemaError(line_no, "frame must be a JSON object")
        if "t" not in obj:
            raise SchemaError(line_no, 'frame missing "t" field')
        try:
            t = float(obj["t"])
        except (TypeError, ValueError):
            raise SchemaError(line_no, "t must be numeric") from None

        body = None
        if obj.get("body") is not None:
            body = BodyPose(_pose_from_rows(obj["body"], BODY_POINT_COUNT, line_no, "body"))
        left = None
        if obj.get("left_hand") is not None:
            left = HandPose(
                Side.LEFT, _pose_from_rows(obj["left_hand"], HAND_POINT_COUNT, line_no, "left_hand")
            )
        right = None
        if obj.get("right_hand") is not None:
            right = HandPose(
                Side.RIGHT,
                _pose_from_rows(obj["right_hand"], HAND_POINT_COUNT, line_no, "right_hand"),
            )
        if body is None and left is None and right is None:
            raise SchemaError(line_no, "frame has no pose")
        frames.append(LandmarkFrame(t, body=body, left_hand=left, right_hand=right))

    if not frames:
        raise EmptySequence("header present but no frames")
    return LandmarkSequence(tuple(frames), fps=fps, item=item, subject_id=subject)


def _csv_columns() -> list[str]:
    cols = ["t"]
    for prefix, count in (("body", BODY_POINT_COUNT), ("lh", HAND_POINT_COUNT), ("rh", HAND_POINT_COUNT)):
        for i in range(count):
            for axis in ("x", "y", "z", "v"):
                cols.append(f"{prefix}_{i}_{axis}")
    return cols


def _parse_csv(text: str) -> LandmarkSequence:
    reader = csv.reader(io.StringIO(text))
    rows = [(i + 1, row) for i, row in enumerate(reader) if row]
    if not rows:
        raise EmptySequence("no content lines")

    header_no, header = rows[0]
    expected = _csv_columns()
    if header != expected:
        raise SchemaError(header_no, "unexpected CSV header")

    frames: list[LandmarkFrame] = []
    for line_no, row in rows[1:]:
        if len(row) != len(expected):
            raise SchemaError(line_no, f"expected {len(expected)} cells, got {len(row)}")
        try:
            t = float(row[0])
        except ValueError:
            raise SchemaError(line_no, "t must be numeric") from None
        if not math.isfinite(t):
            raise SchemaError(line_no, "t must be finite")

        offset = 1
        poses = {}
        for prefix, count in (("body", BODY_POINT_COUNT), ("lh", HAND_POINT_COUNT), ("rh", HAND_POINT_COUNT)):
            cells = row[offset : offset + 4 * count]
            offset += 4 * count
            filled = [c != "" for c in cells]
            if not any(filled):
                poses[prefix] = None
                continue
            if not all(filled):
                raise SchemaError(line_no, f"{prefix} pose is partially filled")
            try:
                vals = [float(c) for c in cells]
            except ValueError:
                raise SchemaError(line_no, f"{prefix} pose has a non-numeric cell") from None
            if not all(map(math.isfinite, vals)):
                raise SchemaError(line_no, f"{prefix} pose has a non-finite cell")
            poses[prefix] = tuple(
                Landmark(*vals[4 * i : 4 * i + 4]) for i in range(count)
            )

        if all(p is None for p in poses.values()):
            raise SchemaError(line_no, "frame has no pose")
        frames.append(
            LandmarkFrame(
                t,
                body=BodyPose(poses["body"]) if poses["body"] else None,
                left_hand=HandPose(Side.LEFT, poses["lh"]) if poses["lh"] else None,
                right_hand=HandPose(Side.RIGHT, poses["rh"]) if poses["rh"] else None,
            )
        )

    if not frames:
        raise EmptySequence("header present but no frames")
    fps = _infer_fps(frames)
    return LandmarkSequence(tuple(frames), fps=fps)


def _infer_fps(frames: list[LandmarkFrame]) -> float:
    if len(frames) < 2:
        return 30.0
    span = frames[-1].timestamp - frames[0].timestamp
    if span <= 0:
        return 30.0
    return (len(frames) - 1) / span


# ── serialization ────────────────────────────────────────────────────


def _pose_rows(points: Iterable[Landmark]) -> list[list[float]]:
    return [[lm.x, lm.y, lm.z, lm.visibility] for lm in points]


def serialize_jsonl(seq: LandmarkSequence) -> str:
    """Render a sequence in the JSONL format; floats keep full precision."""
    header: dict = {"fps": seq.fps}
    if seq.item is not None:
        header["item"] = seq.item.value
    if seq.subject_id:
        header["subject"] = seq.subject_id
    lines = [json.dumps(header)]
    for frame in seq.frames:
        obj: dict = {"t": frame.timestamp}
        if frame.body is not None:
            obj["body"] = _pose_rows(frame.body.points)
        if frame.left_hand is not None:
            obj["left_hand"] = _pose_rows(frame.left_hand.points)
        if frame.right_hand is not None:
            obj["right_hand"] = _pose_rows(frame.right_hand.points)
        lines.append(json.dumps(obj))
    return "\n".join(lines) + "\n"


def serialize_csv(seq: LandmarkSequence) -> str:
    """Render a sequence in the flat CSV format (metadata is not stored)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_csv_columns())
    for frame in seq.frames:
        row: list = [repr(frame.timestamp)]
        for pose, count in (
            (frame.body, BODY_POINT_COUNT),
            (frame.left_hand, HAND_POINT_COUNT),
            (frame.right_hand, HAND_POINT_COUNT),
        ):
            if pose is None:
                row.extend([""] * (4 * count))
            else:
                for lm in pose.points:
                    row.extend([repr(lm.x), repr(lm.y), repr(lm.z), repr(lm.visibility)])
        writer.writerow(row)
    return buf.getvalue()


def write_sequence(seq: LandmarkSequence, path: Union[str, Path], format: FileFormat = FileFormat.JSONL) -> None:
    text = serialize_jsonl(seq) if format is FileFormat.JSONL else serialize_csv(seq)
    Path(path).write_text(text, encoding="utf-8")


# ── gap fill ─────────────────────────────────────────────────────────


def fill_gaps(seq: LandmarkSequence, cfg: IngestConfig) -> LandmarkSequence:
    """Repair landmarks whose visibility falls below ``cfg.min_visibility``.

    LINEAR_INTERP bridges each low-visibility landmark from its nearest
    visible samples in time; HOLD_LAST forward-fills (backfilling a leading
    gap); DROP leaves the landmark untouched so downstream consumers skip
    it. Repaired landmarks get visibility == min_visibility so they count
    as present afterwards. Landmarks never visible anywhere stay as-is.
    Returns ``seq`` itself when no landmark needs repair.
    """
    if cfg.gap_fill is GapFill.DROP or not seq.frames:
        return seq

    times = seq.timestamps
    new_poses: dict[str, list] = {}
    repaired = False
    for slot in ("body", "left_hand", "right_hand"):
        poses = new_poses[slot] = [getattr(f, slot) for f in seq.frames]
        present_idx = [i for i, p in enumerate(poses) if p is not None]
        if not present_idx:
            continue
        vis = np.array([[lm.visibility for lm in poses[i].points] for i in present_idx])
        good_all = vis >= cfg.min_visibility
        # only landmarks visible in some frames and not in others need repair
        repair = np.flatnonzero(good_all.any(axis=0) & ~good_all.all(axis=0))
        if not len(repair):
            continue
        repaired = True
        count = BODY_POINT_COUNT if slot == "body" else HAND_POINT_COUNT
        # (frames, points, 4) coordinate block over the frames that carry the pose
        block = np.array(
            [[[lm.x, lm.y, lm.z, lm.visibility] for lm in poses[i].points] for i in present_idx]
        )
        sub_t = times[present_idx]
        for j in repair:
            good = good_all[:, j]
            bad = ~good
            for axis in range(3):
                col = block[:, j, axis]
                if cfg.gap_fill is GapFill.LINEAR_INTERP:
                    col[bad] = np.interp(sub_t[bad], sub_t[good], col[good])
                else:  # HOLD_LAST
                    idx = np.where(good)[0]
                    pos = np.searchsorted(idx, np.where(bad)[0], side="right") - 1
                    pos = np.clip(pos, 0, len(idx) - 1)
                    col[bad] = col[idx[pos]]
            block[bad, j, 3] = cfg.min_visibility

        rebuilt = iter(
            tuple(Landmark(*block[k, j]) for j in range(count)) for k in range(len(present_idx))
        )
        out = list(poses)
        for i in present_idx:
            pts = next(rebuilt)
            if slot == "body":
                out[i] = BodyPose(pts)
            else:
                out[i] = HandPose(Side.LEFT if slot == "left_hand" else Side.RIGHT, pts)
        new_poses[slot] = out

    if not repaired:
        return seq
    frames = tuple(
        LandmarkFrame(
            f.timestamp,
            body=new_poses["body"][i],
            left_hand=new_poses["left_hand"][i],
            right_hand=new_poses["right_hand"][i],
        )
        for i, f in enumerate(seq.frames)
    )
    return LandmarkSequence(frames, fps=seq.fps, item=seq.item, subject_id=seq.subject_id)


# ── resampling ───────────────────────────────────────────────────────


def resample(seq: LandmarkSequence, cfg: IngestConfig) -> LandmarkSequence:
    """Resample onto a uniform grid t_k = k / resample_fps (time rebased to 0).

    Coordinates are linearly interpolated between the bracketing frames.
    When a pose is missing on one side of a bracket, the gap_fill policy
    decides: LINEAR_INTERP bridges across the gap, HOLD_LAST holds the most
    recent pose, DROP omits the pose at that grid point.
    """
    if cfg.resample_fps is None:
        raise ValueError("cfg.resample_fps must be set")
    if not seq.frames:
        raise EmptySequence("cannot resample an empty sequence")

    fps = cfg.resample_fps
    t0 = seq.frames[0].timestamp
    span = seq.frames[-1].timestamp - t0
    n_out = int(math.floor(span * fps + 1e-9)) + 1
    times = seq.timestamps

    slot_poses = {slot: [getattr(f, slot) for f in seq.frames] for slot in ("body", "left_hand", "right_hand")}

    out_frames: list[LandmarkFrame] = []
    for k in range(n_out):
        tau = k / fps
        s = t0 + tau
        kwargs: dict = {}
        for slot, poses in slot_poses.items():
            pose = _sample_pose(times, poses, s, cfg.gap_fill)
            if pose is not None:
                key = {"body": "body", "left_hand": "left_hand", "right_hand": "right_hand"}[slot]
                kwargs[key] = pose
        if not kwargs:
            continue  # no pose resolvable at this grid point
        out_frames.append(LandmarkFrame(tau, **kwargs))

    if not out_frames:
        raise EmptySequence("resampling produced no frames")
    return LandmarkSequence(tuple(out_frames), fps=fps, item=seq.item, subject_id=seq.subject_id)


def _interp_points(pa, pb, w: float):
    pts = tuple(
        Landmark(
            la.x + w * (lb.x - la.x),
            la.y + w * (lb.y - la.y),
            la.z + w * (lb.z - la.z),
            la.visibility + w * (lb.visibility - la.visibility),
        )
        for la, lb in zip(pa.points, pb.points)
    )
    if isinstance(pa, BodyPose):
        return BodyPose(pts)
    return HandPose(pa.side, pts)


def _sample_pose(times: np.ndarray, poses: list, s: float, gap_fill: GapFill):
    present = [i for i, p in enumerate(poses) if p is not None]
    if not present:
        return None

    j = int(np.searchsorted(times, s + 1e-12)) - 1
    j = max(j, 0)
    if abs(times[j] - s) <= 1e-12:
        if poses[j] is not None:
            return poses[j]
        return _fill_at(times, poses, present, s, gap_fill)
    jn = j + 1
    if jn >= len(times):
        return poses[j] if poses[j] is not None else _fill_at(times, poses, present, s, gap_fill)
    if poses[j] is not None and poses[jn] is not None:
        w = (s - times[j]) / (times[jn] - times[j])
        return _interp_points(poses[j], poses[jn], w)
    return _fill_at(times, poses, present, s, gap_fill)


def _fill_at(times: np.ndarray, poses: list, present: list[int], s: float, gap_fill: GapFill):
    if gap_fill is GapFill.DROP:
        return None
    prev = [i for i in present if times[i] <= s + 1e-12]
    nxt = [i for i in present if times[i] >= s - 1e-12]
    if gap_fill is GapFill.HOLD_LAST:
        if prev:
            return poses[prev[-1]]
        return poses[nxt[0]] if nxt else None
    # LINEAR_INTERP: bridge across the gap using nearest carriers on each side
    if prev and nxt:
        i0, i1 = prev[-1], nxt[0]
        if i0 == i1:
            return poses[i0]
        w = (s - times[i0]) / (times[i1] - times[i0])
        return _interp_points(poses[i0], poses[i1], w)
    side = prev or nxt
    return poses[side[-1] if prev else side[0]] if side else None
