"""Landmark file parsing, serialization, visibility gap-fill, and resampling.

Two on-disk formats are supported:

* JSONL — header line ``{"fps": <f>, "item": "<name>"?, "subject": "<id>" | <int>?}``
  followed by one frame per line:
  ``{"t": <s>, "body": [[x,y,z,v]*33]?, "left_hand": [[x,y,z,v]*21]?,
  "right_hand": [[x,y,z,v]*21]?}``.
* CSV — header ``t,body_0_x,body_0_y,body_0_z,body_0_v,...,rh_20_v``; an
  absent pose leaves all of its cells empty. CSV carries no metadata, so
  fps is inferred from the timestamps. A cell is a number in ASCII syntax
  (``csv_number``): an underscore, whitespace or non-ASCII digit, which
  ``float`` forgives, is a SchemaError.

A file is read as UTF-8 one line at a time, never whole. Its lines end at
``\n``, ``\r\n`` or ``\r``, and the line numbers in errors count those
breaks. A stream is iterated line by line with the newline mode it was opened
with: ``io.StringIO(text, newline=None)`` or a file opened in text mode with the
default ``newline`` breaks at all three, a plain ``io.StringIO(text)`` only at ``\n``.

JSONL frame lines are decoded by ``orjson``, about five times faster than
``json``. A line it refuses (``1e999``, a lone surrogate, ``NaN``) goes to the
stdlib ``_DECODER``, which accepts or rejects it as it would alone. The header
is read by ``_DECODER`` only: ``orjson`` makes an integer above 64 bits a
float, which would change a numeric ``subject``. Writing stays on ``json``.

A number is a JSON number: a string such as ``"0.5"``, ``true`` or ``false`` in
``fps``, ``t`` or a coordinate is a SchemaError, and a ``null`` coordinate is
NaN, which the frame rules reject. Only a line that may hold a string or a
boolean gets a per-value type check; ``_jsonl_frames`` says how it tells.

Both formats share one assembly path. Each parser checks its header and
decodes each line into ``(line, t, {slot: flat float array})``; ``_stack``
alone decides that a frame with no pose is an error, joins each slot's arrays
once, with a row of NaN in each frame that does not carry the slot (the one
record of its absence), applies the frame rules and sets the rate. A carried
slot whose every value is null (or, in a CSV, ``nan``) is still a non-finite
number there, not an absent slot.
"""

from __future__ import annotations

import csv
import enum
import io
import json
import math
import re
from dataclasses import dataclass, replace
from itertools import chain
from pathlib import Path
from typing import IO, Iterable, Optional, Union

import numpy as np
import orjson

from .core import BODY_POINT_COUNT, HAND_POINT_COUNT, SLOT_POINTS, LandmarkSequence, UpdrsItem
from .core import check_fields, fps_violation, frame_violation
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
    LINEAR_INTERP = "linear_interp"
    DROP = "drop"


@dataclass(frozen=True)
class IngestConfig:
    """Cleaning/resampling knobs applied before signal construction."""

    resample_fps: Optional[float] = None
    min_visibility: float = 0.5
    gap_fill: GapFill = GapFill.LINEAR_INTERP

    def __post_init__(self):
        check_fields(self)
        if self.resample_fps is not None and not self.resample_fps > 0:
            raise ValueError("resample_fps must be finite and positive")
        if not 0.0 <= self.min_visibility <= 1.0:
            raise ValueError("min_visibility must lie in [0, 1]")


# ── parsing ──────────────────────────────────────────────────────────

PathOrStream = Union[str, Path, IO[str]]


def parse_frames(
    source: PathOrStream,
    format: FileFormat = FileFormat.JSONL,
    item: Optional[UpdrsItem] = None,
) -> LandmarkSequence:
    """Parse a landmark file into a LandmarkSequence, preserving source order.

    ``item`` overrides or supplies the item tag the file itself may lack. A
    CSV's fps is inferred from its timestamps (``_stack``).
    Raises SchemaError with the line number on malformed input and at the
    first frame that breaks a rule of ``core.frame_violation`` (at the header
    for one of ``core.fps_violation``); EmptySequence when no frame lines are
    present; UnreadableInput when the file cannot be read.
    """
    parse = _parse_jsonl if format is FileFormat.JSONL else _parse_csv
    is_path = isinstance(source, (str, Path))
    # lines are decoded as the parse reaches them, so a bad byte can surface
    # mid-parse: it is an UnreadableInput wherever it sits
    try:
        if is_path:
            with open(source, encoding="utf-8", newline="" if format is FileFormat.CSV else None) as fh:
                return parse(fh, item)
        return parse(source, item)
    except (OSError, UnicodeDecodeError) as exc:
        raise UnreadableInput(f"cannot read {source}: {exc}" if is_path else str(exc)) from exc


# exact classes: a JSON true or false decodes to bool, which is an int subclass
_NUMBER_OR_NULL = frozenset({int, float, type(None)})


def _number(value, line: int, message: str) -> float:
    """``value`` as a float if JSON decoded it from a number, else SchemaError."""
    if value.__class__ is float or value.__class__ is int:
        try:
            return float(value)
        except OverflowError:
            pass
    raise SchemaError(line, message)


def _pose_values(rows, count: int, line: int, what: str, strict: bool) -> np.ndarray:
    """The ``4 * count`` numbers of one slot's points, x, y, z, visibility per
    point. ``strict`` checks the type of each value, which a line needs only
    when it may hold a string or a boolean; a null is NaN, which the frame
    rules reject as non-finite."""
    if not isinstance(rows, list) or len(rows) != count:
        raise SchemaError(line, f"{what} must list exactly {count} points")
    try:
        typed = not strict or all(v.__class__ in _NUMBER_OR_NULL for v in chain.from_iterable(rows))
        if typed and set(map(len, rows)) == {4}:
            return np.fromiter(chain.from_iterable(rows), float, 4 * count)
    except (TypeError, ValueError, OverflowError):
        pass
    raise SchemaError(line, f"{what} points must each be [x, y, z, visibility] numbers")


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


# built once: json.loads with keyword arguments builds a new decoder per line
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _decode(raw: str, line: int):
    try:
        return _DECODER.decode(raw)
    except json.JSONDecodeError as exc:
        raise SchemaError(line, f"invalid JSON: {exc.msg}") from exc
    except ValueError as exc:
        raise SchemaError(line, str(exc)) from None


def _decode_frame(raw: str, line: int):
    try:
        return orjson.loads(raw)
    except orjson.JSONDecodeError:
        return _decode(raw, line)


def _stack(frames: Iterable, fps: Optional[float], item, subject_id: str, header_line: int) -> LandmarkSequence:
    """The one assembly path of both formats: stack decoded frames, ``(line, t,
    {slot: flat points})`` each, into one array per slot, NaN in the frames
    that do not carry it. A frame that carries no pose raises SchemaError at its
    line; after the last line, so does the first that breaks a frame rule. A
    declared ``fps`` must match the frame times; with none (CSV), the rate is
    inferred from them (30.0 for one frame). A rate error is at ``header_line``."""
    lines, times, slots = [], [], {slot: [] for slot in SLOT_POINTS}
    for line, t, flats in frames:
        if not flats:
            raise SchemaError(line, "frame has no pose")
        for slot, flat in flats.items():
            slots[slot].append((len(lines), flat))
        lines.append(line)
        times.append(t)
    if not lines:
        raise EmptySequence("header present but no frames")
    n = len(lines)
    poses = {}
    for slot, carried in slots.items():
        if not carried:
            continue  # LandmarkSequence fills a slot absent from every frame
        idx, flats = zip(*carried)
        block = np.concatenate(flats).reshape(len(idx), SLOT_POINTS[slot], 4)
        # A carried slot whose every value is null or nan would read as absent
        # once stacked. Its first visibility becomes inf, so the frame rules
        # still fail that frame with "non-finite number", and the parse raises.
        block[np.isnan(block).all(axis=(1, 2)), 0, 3] = np.inf
        if len(idx) == n:
            poses[slot] = block
            continue
        poses[slot] = np.full((n, *block.shape[1:]), np.nan)
        poses[slot][list(idx)] = block
    span = times[-1] - times[0]  # not positive only where the frame rules fail
    rate = fps if fps is not None else (n - 1) / span if span > 0 else 30.0
    times = np.array(times, dtype=float)
    seq = LandmarkSequence(times, poses, rate, item, subject_id)
    if broken := frame_violation(seq):
        raise SchemaError(lines[broken[0]], broken[1])
    if fps is None:
        if bad_fps := fps_violation(rate):
            raise SchemaError(header_line, bad_fps)
    elif n >= 2:
        # a median frame interval outside [0.5, 2] declared periods (t in
        # milliseconds, say) is an error at the header, not a quietly wrong scale
        interval = float(np.median(np.diff(times)))
        if not 0.5 <= interval * fps <= 2.0:
            raise SchemaError(header_line, f"fps {fps:g} does not match the frame times, whose median interval is {interval:g} s")
    return seq


# what a subject, which names output files, must not hold: a path separator of
# either kind, which could lead out of the output directory, and a C0 or C1
# control character or DEL (no file name can hold a null byte)
_UNSAFE_SUBJECT = re.compile(r"[/\\\x00-\x1f\x7f-\x9f]")


def _parse_jsonl(lines: Iterable[str], item: Optional[UpdrsItem]) -> LandmarkSequence:
    # isspace, unlike strip, copies no line
    numbered = ((no, ln) for no, ln in enumerate(lines, 1) if ln and not ln.isspace())
    header_no, header_line = next(numbered, (0, None))
    if header_line is None:
        raise EmptySequence("no content lines")

    header = _decode(header_line, header_no)
    if not isinstance(header, dict) or "fps" not in header:
        raise SchemaError(header_no, 'header must be an object with an "fps" field')
    fps = _number(header["fps"], header_no, "fps must be numeric")
    if bad_fps := fps_violation(fps):
        raise SchemaError(header_no, bad_fps)
    try:
        named = UpdrsItem.from_name(header["item"]) if header.get("item") else None
    except ValueError as exc:
        raise SchemaError(header_no, str(exc)) from None
    subject = header.get("subject", "")
    # it names output files: a null, boolean, float, list or object is no subject
    if subject.__class__ not in (str, int):
        raise SchemaError(header_no, "subject must be a string or an integer")
    if _UNSAFE_SUBJECT.search(str(subject)):
        raise SchemaError(header_no, "subject must hold no '/', '\\' or control character")

    return _stack(_jsonl_frames(numbered), fps, item or named, str(subject), header_no)


def _jsonl_frames(numbered):
    """Decode each numbered JSONL frame line to ``(line, t, {slot: flat points})``."""
    for line_no, raw in numbered:
        obj = _decode_frame(raw, line_no)
        if not isinstance(obj, dict):
            raise SchemaError(line_no, "frame must be a JSON object")
        if "t" not in obj:
            raise SchemaError(line_no, 'frame missing "t" field')
        t = _number(obj["t"], line_no, "t must be numeric")
        # Each key brings two quotes, and no known key holds a u or an s. A
        # line with no other quote and no u or s (so no true, false or null)
        # holds no string or boolean: its points need no per-value type check.
        strict = raw.count('"') != 2 * len(obj) or "u" in raw or "s" in raw
        yield line_no, t, {
            slot: _pose_values(rows, count, line_no, slot, strict)
            for slot, count in SLOT_POINTS.items()
            if (rows := obj.get(slot)) is not None
        }


def _csv_columns() -> list[str]:
    cols = ["t"]
    for prefix, count in (("body", BODY_POINT_COUNT), ("lh", HAND_POINT_COUNT), ("rh", HAND_POINT_COUNT)):
        for i in range(count):
            for axis in ("x", "y", "z", "v"):
                cols.append(f"{prefix}_{i}_{axis}")
    return cols


# what float() forgives in a number besides non-ASCII characters (such as the
# digit '١'): an underscore and ASCII whitespace
_LOOSE = "_ \t\n\r\v\f"


def _loose(text: str) -> bool:
    return not text.isascii() or any(c in text for c in _LOOSE)


def csv_number(text: str) -> float:
    """``float(text)`` under ASCII number syntax: a non-ASCII character, an
    underscore or whitespace is a ValueError too."""
    if _loose(text):
        raise ValueError(f"not an ASCII number: {text!r}")
    return float(text)


def _parse_csv(lines: Iterable[str], item: Optional[UpdrsItem]) -> LandmarkSequence:
    rows = ((no, row) for no, row in enumerate(csv.reader(lines), 1) if row)
    header_no, header = next(rows, (0, None))
    if header is None:
        raise EmptySequence("no content lines")

    expected = _csv_columns()
    if header != expected:
        raise SchemaError(header_no, "unexpected CSV header")

    return _stack(_csv_frames(rows, len(expected)), None, item, "", header_no)


def _csv_frames(rows, width: int):
    """Decode each numbered CSV row to ``(line, t, {slot: flat points})``."""
    for line_no, row in rows:
        if len(row) != width:
            raise SchemaError(line_no, f"expected {width} cells, got {len(row)}")
        # one screen per row: only a row with a loose character checks each cell
        loose = _loose("".join(row))
        try:
            t = csv_number(row[0]) if loose else float(row[0])
        except ValueError:
            raise SchemaError(line_no, "t must be numeric") from None
        flats, offset = {}, 1
        for slot, count in SLOT_POINTS.items():
            cells = row[offset : offset + 4 * count]
            offset += 4 * count
            if "" in cells:
                if any(cells):
                    raise SchemaError(line_no, f"{slot} pose is partially filled")
                continue
            try:
                flats[slot] = np.asarray(list(map(csv_number, cells)) if loose else cells, dtype=float)
            except ValueError:
                raise SchemaError(line_no, f"{slot} pose has a non-numeric cell") from None
        yield line_no, t, flats


# ── serialization ────────────────────────────────────────────────────


def serialize_jsonl(seq: LandmarkSequence) -> str:
    """Render a sequence in the JSONL format; floats keep full precision."""
    header: dict = {"fps": seq.fps}
    if seq.item is not None:
        header["item"] = seq.item.value
    if seq.subject_id:
        header["subject"] = seq.subject_id
    lines = [json.dumps(header)]
    for i, t in enumerate(seq.timestamps.tolist()):
        obj: dict = {"t": t}
        for slot in SLOT_POINTS:
            if seq.present[slot][i]:
                obj[slot] = seq.poses[slot][i].tolist()
        lines.append(json.dumps(obj))
    return "\n".join(lines) + "\n"


def serialize_csv(seq: LandmarkSequence) -> str:
    """Render a sequence in the flat CSV format (metadata is not stored)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_csv_columns())
    for i, t in enumerate(seq.timestamps.tolist()):
        row: list = [repr(t)]
        for slot, count in SLOT_POINTS.items():
            if seq.present[slot][i]:
                row.extend(map(repr, seq.poses[slot][i].ravel().tolist()))
            else:
                row.extend([""] * (4 * count))
        writer.writerow(row)
    return buf.getvalue()


def write_sequence(seq: LandmarkSequence, path: Union[str, Path], format: FileFormat = FileFormat.JSONL) -> None:
    text = serialize_jsonl(seq) if format is FileFormat.JSONL else serialize_csv(seq)
    Path(path).write_text(text, encoding="utf-8")


# ── gap fill ─────────────────────────────────────────────────────────


def fill_gaps(seq: LandmarkSequence, cfg: IngestConfig) -> LandmarkSequence:
    """Repair landmarks whose visibility falls below ``cfg.min_visibility``.

    The one owner of the missing-pose policy: a frame where a slot is absent
    counts as one where every landmark of that slot is invisible (its NaN
    visibility compares as not visible). LINEAR_INTERP bridges each such
    landmark linearly in time between its nearest visible frames; before its
    first visible frame and after its last one it takes the nearest visible
    value. DROP leaves the sequence untouched so downstream consumers skip
    those landmarks and frames. Repaired landmarks get visibility ==
    min_visibility so they count as visible afterwards, and are finite in
    every frame, so a slot with any repair holds a row of numbers, and is
    present, in every frame. A landmark never visible stays as it is, save in
    the frames where its slot was absent: there it takes finite coordinates
    from the frames that carry the slot by the same rule, at visibility 0.
    Returns ``seq`` itself when no landmark needs repair.
    """
    if cfg.gap_fill is GapFill.DROP or not len(seq):
        return seq

    t = seq.timestamps
    repaired = {}
    for slot, pts in seq.poses.items():
        good_all = pts[:, :, 3] >= cfg.min_visibility
        # only landmarks visible in some frames and not in others need repair
        repair = np.flatnonzero(good_all.any(axis=0) & ~good_all.all(axis=0))
        if not len(repair):
            continue
        block = pts.copy()
        targets = [(j, good_all[:, j], cfg.min_visibility) for j in repair]
        carried = seq.present[slot]
        if not carried.all():  # visibility 0 stays below every threshold
            targets += [(j, carried, 0.0) for j in np.flatnonzero(~good_all.any(axis=0))]
        for j, good, visibility in targets:
            bad = ~good
            for axis in range(3):
                col = block[:, j, axis]
                col[bad] = np.interp(t[bad], t[good], col[good])
            block[bad, j, 3] = visibility
        repaired[slot] = block

    return replace(seq, poses={**seq.poses, **repaired}) if repaired else seq


# ── resampling ───────────────────────────────────────────────────────

# resample_fps may be at most this multiple of a recording's own frame rate
MAX_UPSAMPLE = 8


def resample(seq: LandmarkSequence, cfg: IngestConfig) -> LandmarkSequence:
    """Resample onto a uniform grid t_k = k / resample_fps (time rebased to 0).

    A ``resample_fps`` above ``MAX_UPSAMPLE`` times the sequence's own rate,
    ``(n - 1) / duration``, raises ValueError: the grid would only repeat
    interpolated frames, and without a bound its size has none.
    Coordinates are linearly interpolated between the bracketing frames, and
    a grid point within 1e-12 s of a frame takes that frame as it is. An
    absent slot's NaN row carries through the interpolation, so a grid point
    keeps a slot only where its bracketing frames carry it, and a grid point
    that keeps no slot is dropped. Repairing absent frames is ``fill_gaps``'
    job, so run it first (``report.analyze`` does).
    """
    if cfg.resample_fps is None:
        raise ValueError("cfg.resample_fps must be set")
    if not len(seq):
        raise EmptySequence("cannot resample an empty sequence")

    fps = cfg.resample_fps
    if len(seq) >= 2:
        rate = (len(seq) - 1) / seq.duration_s
        if fps > MAX_UPSAMPLE * rate:
            raise ValueError(f"resample_fps {fps} exceeds {MAX_UPSAMPLE} times the recording's own {rate:.6g} fps")
    times = seq.timestamps
    t0 = times[0]
    n_out = int(math.floor((times[-1] - t0) * fps + 1e-9)) + 1
    tau = np.arange(n_out) / fps
    s = t0 + tau
    # bracketing frames j, jn; a grid point within 1e-12 s of frame j, or
    # past the last frame, takes frame j as it is
    j = np.maximum(np.searchsorted(times, s + 1e-12) - 1, 0)
    jn = np.minimum(j + 1, len(times) - 1)
    at_frame = ((np.abs(times[j] - s) <= 1e-12) | (j + 1 >= len(times)))[:, None, None]

    poses = {}
    with np.errstate(divide="ignore", invalid="ignore"):  # past the last frame jn == j: at_frame takes a
        w = ((s - times[j]) / (times[jn] - times[j]))[:, None, None]
        for slot, pts in seq.poses.items():
            a = pts[j]
            poses[slot] = np.where(at_frame, a, a + w * (pts[jn] - a))
    grid = LandmarkSequence(tau, poses, fps)
    rows = np.logical_or.reduce(list(grid.present.values()))
    if not rows.any():
        raise EmptySequence("resampling produced no frames")
    return LandmarkSequence(
        tau[rows], {slot: pts[rows] for slot, pts in grid.poses.items()}, fps, seq.item, seq.subject_id
    )
