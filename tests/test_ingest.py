import io
import json
import math
import tracemalloc

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests import reference_parse
from tests.conftest import body_pose, hand_pose, same_landmarks, sequence
from walkup.core import SLOT_POINTS, UpdrsItem, frame_violation
from walkup.errors import EmptySequence, SchemaError, UnreadableInput, WalkupError
from walkup.ingest import (
    _DECODER,
    FileFormat,
    GapFill,
    IngestConfig,
    fill_gaps,
    parse_frames,
    resample,
    serialize_csv,
    serialize_jsonl,
    write_sequence,
)
from walkup.synth import MotionScenario, generate


def _body_line(t: float) -> str:
    return json.dumps({"t": t, "body": [[0.1, 0.2, 0.0, 1.0]] * 33})


@pytest.mark.parametrize("fps, ok", [(5.0, True), (20.0, True), (4.99, False), (20.01, False)])
def test_parse_jsonl_checks_fps_against_median_frame_interval(fps, ok):
    # intervals 0.1, 0.1 and 0.8 s: the median 0.1 s must lie within [0.5, 2] periods
    text = "\n".join([json.dumps({"fps": fps})] + [_body_line(t) for t in (0.0, 0.1, 0.2, 1.0)])
    if ok:
        assert parse_frames(io.StringIO(text)).fps == fps
        return
    with pytest.raises(SchemaError) as exc:
        parse_frames(io.StringIO(text))
    assert (exc.value.line, exc.value.reason) == (
        1, f"fps {fps:g} does not match the frame times, whose median interval is 0.1 s"
    )


def test_parse_jsonl_single_frame_takes_any_fps():
    text = "\n".join([json.dumps({"fps": 1e6}), _body_line(5.0)])
    assert parse_frames(io.StringIO(text)).fps == 1e6


def test_parse_jsonl_two_body_frames():
    text = "\n".join([json.dumps({"fps": 25.0, "subject": "s1"}), _body_line(0.0), _body_line(0.04)])
    seq = parse_frames(io.StringIO(text))
    assert len(seq) == 2
    assert seq.fps == 25.0
    assert seq.subject_id == "s1"
    assert seq.present["body"].tolist() == [True, True]
    assert not seq.present["left_hand"].any()


def test_parse_jsonl_item_tag():
    text = "\n".join([json.dumps({"fps": 30, "item": "leg_agility"}), _body_line(0.0)])
    assert parse_frames(io.StringIO(text)).item is UpdrsItem.LEG_AGILITY


def test_parse_jsonl_missing_t_reports_line():
    text = "\n".join(
        [json.dumps({"fps": 30}), _body_line(0.0), json.dumps({"body": [[0, 0, 0, 1]] * 33})]
    )
    with pytest.raises(SchemaError) as exc:
        parse_frames(io.StringIO(text))
    assert exc.value.line == 3
    assert "t" in exc.value.reason


def test_parse_jsonl_wrong_point_count():
    text = "\n".join([json.dumps({"fps": 30}), json.dumps({"t": 0, "body": [[0, 0, 0, 1]] * 32})])
    with pytest.raises(SchemaError):
        parse_frames(io.StringIO(text))


def test_parse_empty_file():
    with pytest.raises(EmptySequence):
        parse_frames(io.StringIO(""))


def test_parse_header_only():
    with pytest.raises(EmptySequence):
        parse_frames(io.StringIO(json.dumps({"fps": 30})))


def test_parse_unreadable_path(tmp_path):
    with pytest.raises(UnreadableInput):
        parse_frames(tmp_path / "does-not-exist.jsonl")


def _two_frame_jsonl(frame_2: str, header: dict = None) -> list[str]:
    header = header or {"fps": 25.0, "item": "leg_agility", "subject": "s1"}
    return [json.dumps(header, ensure_ascii=False), _body_line(0.0), frame_2]


def test_parse_jsonl_crlf_matches_lf(tmp_path):
    lines = _two_frame_jsonl(_body_line(0.04))
    lf, crlf = tmp_path / "lf.jsonl", tmp_path / "crlf.jsonl"
    lf.write_bytes("\n".join(lines).encode() + b"\n")
    crlf.write_bytes("\r\n".join(lines).encode() + b"\r\n")
    a, b = parse_frames(lf), parse_frames(crlf)
    assert same_landmarks(a, b) and len(b) == 2
    assert (a.fps, a.item, a.subject_id) == (b.fps, b.item, b.subject_id)


def test_parse_jsonl_crlf_reports_line_numbers(tmp_path):
    path = tmp_path / "crlf.jsonl"
    path.write_bytes("\r\n".join(_two_frame_jsonl(json.dumps({"t": 0.04}))).encode())
    with pytest.raises(SchemaError) as exc:
        parse_frames(path)
    assert exc.value.line == 3
    assert exc.value.reason == "frame has no pose"


def test_parse_jsonl_line_separator_inside_header(tmp_path):
    # U+2028 is no line break in a file; str.splitlines used to cut the header there
    path = tmp_path / "u2028.jsonl"
    lines = _two_frame_jsonl(_body_line(0.04), {"fps": 30, "subject": "a\u2028b"})
    path.write_text("\n".join(lines), encoding="utf-8")
    assert "\u2028" in path.read_text(encoding="utf-8")
    seq = parse_frames(path)
    assert seq.subject_id == "a\u2028b" and len(seq) == 2


def test_parse_stream_breaks_lines_on_its_own_newlines(tmp_path):
    # a path opens with universal newlines; a stream is read as its creator opened it
    text = "\r".join(_two_frame_jsonl(_body_line(0.04)))
    path = tmp_path / "cr.jsonl"
    path.write_text(text, encoding="utf-8", newline="")
    assert len(parse_frames(path)) == 2
    assert len(parse_frames(io.StringIO(text, newline=None))) == 2
    with pytest.raises(SchemaError) as exc:
        parse_frames(io.StringIO(text))
    assert exc.value.line == 1 and exc.value.reason.startswith("invalid JSON: Extra data")


def test_parse_peak_memory_stays_below_three_times_file_size(tmp_path):
    # the parse streams its input: it never holds the file's text, nor a list of its lines
    path = tmp_path / "taps.jsonl"
    write_sequence(generate(MotionScenario(item=UpdrsItem.FINGER_TAPS, duration_s=60.0, fps=60.0)), path)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        seq = parse_frames(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(seq) == 3600 and seq.present["left_hand"].all() and seq.present["right_hand"].all()
    assert peak < 3 * size, f"parse peak {peak / size:.2f}x the file size"


def test_parse_csv_zero_coordinates():
    seq = sequence([0.0], body=[np.tile([0.0, 0.0, 0.0, 1.0], (33, 1))])
    text = serialize_csv(seq)
    parsed = parse_frames(io.StringIO(text), format=FileFormat.CSV)
    assert parsed.poses["body"][0, 0].tolist() == [0.0, 0.0, 0.0, 1.0]
    assert not parsed.present["left_hand"][0]


def test_parse_csv_partial_pose_rejected():
    text = serialize_csv(sequence([0.0], body=[body_pose()]))
    lines = text.splitlines()
    cells = lines[1].split(",")
    cells[1] = ""  # body_0_x
    with pytest.raises(SchemaError) as exc:
        parse_frames(io.StringIO("\n".join([lines[0], ",".join(cells)])), format=FileFormat.CSV)
    assert "partially filled" in exc.value.reason


def test_parse_rejects_frame_without_pose():
    jsonl = "\n".join([json.dumps({"fps": 30}), _body_line(0.0), json.dumps({"t": 0.1})])
    csv_lines = serialize_csv(sequence([0.0], body=[body_pose()])).splitlines()
    empty_row = "0.1" + "," * (len(csv_lines[0].split(",")) - 1)
    csv_text = "\n".join([*csv_lines, empty_row])
    for fmt, text in ((FileFormat.JSONL, jsonl), (FileFormat.CSV, csv_text)):
        with pytest.raises(SchemaError) as exc:
            parse_frames(io.StringIO(text), format=fmt)
        assert exc.value.line == 3
        assert exc.value.reason == "frame has no pose"


@pytest.mark.parametrize("only_slot", [False, True], ids=["beside_right_hand", "only_slot"])
@pytest.mark.parametrize("fmt", [FileFormat.JSONL, FileFormat.CSV])
def test_parse_rejects_carried_slot_without_a_number(fmt, only_slot):
    # a left hand of 21 null points, or 84 nan cells, is carried, not absent:
    # the frame rules fail it at its line like any other null
    text = (serialize_jsonl if fmt is FileFormat.JSONL else serialize_csv)(
        sequence(left_hand=[hand_pose()] * 3, right_hand=[hand_pose()] * 3)
    )
    lines = text.splitlines()
    if fmt is FileFormat.JSONL:
        frame = json.loads(lines[2])
        frame["left_hand"] = [[None] * 4] * 21
        if only_slot:
            del frame["right_hand"]
        lines[2] = json.dumps(frame)
    else:
        header, cells = lines[0].split(","), lines[2].split(",")
        for k, name in enumerate(header):
            if name.startswith("lh_"):
                cells[k] = "nan"
            elif name.startswith("rh_") and only_slot:
                cells[k] = ""
        lines[2] = ",".join(cells)
    with pytest.raises(SchemaError) as exc:
        parse_frames(io.StringIO("\n".join(lines)), format=fmt)
    assert exc.value.line == 3
    assert exc.value.reason == "non-finite number"


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_parse_jsonl_rejects_non_finite_constants(constant):
    frame = _body_line(0.0).replace("0.2", constant, 1)
    text = "\n".join([json.dumps({"fps": 30}), _body_line(0.0), frame])
    with pytest.raises(SchemaError) as exc:
        parse_frames(io.StringIO(text))
    assert exc.value.line == 3
    assert exc.value.reason == f"non-finite number {constant}"


def test_parse_jsonl_rejects_non_finite_fps():
    with pytest.raises(SchemaError) as exc:
        parse_frames(io.StringIO("\n".join(['{"fps": NaN}', _body_line(0.0)])))
    assert exc.value.line == 1


@pytest.mark.parametrize("fps", ["1e999", "-1e999", '"inf"', '"nan"'])
def test_parse_jsonl_rejects_overflowing_fps(fps):
    # inf used to parse, and serialize_jsonl then wrote a header it could not read back;
    # a JSON string is no number, whatever it spells
    with pytest.raises(SchemaError) as exc:
        parse_frames(io.StringIO("\n".join(['{"fps": %s}' % fps, _body_line(0.0)])))
    assert exc.value.line == 1
    assert exc.value.reason == ("fps must be numeric" if fps.startswith('"') else "fps must be finite")


@pytest.mark.parametrize("item", ['"jumping_jacks"', "5", "[1]"])
def test_parse_jsonl_unknown_item_is_schema_error(item):
    text = "\n".join(["", '{"fps": 30, "item": %s}' % item, _body_line(0.0)])
    with pytest.raises(SchemaError) as exc:
        parse_frames(io.StringIO(text))
    assert exc.value.line == 2
    assert "unknown item" in exc.value.reason


@pytest.mark.parametrize("subject", ["null", "true", "1.5", "[1, 2]", "{}"])
def test_parse_jsonl_subject_must_be_string_or_integer(subject):
    # as text ("None", "[1, 2]", ...) each would name output files
    text = "\n".join(['{"fps": 30, "subject": %s}' % subject, _body_line(0.0)])
    with pytest.raises(SchemaError) as exc:
        parse_frames(io.StringIO(text))
    assert (exc.value.line, exc.value.reason) == (1, "subject must be a string or an integer")


@pytest.mark.parametrize(
    "subject",
    ["../escaped", "a/b", "a\\\\b", "x\\u0000y", "x\\ny", "x\\u007f", "x\\u0085"],
    ids=["parent", "slash", "backslash", "null", "newline", "del", "c1"],
)
def test_parse_jsonl_subject_must_hold_no_separator_or_control_character(subject):
    # it names output files: "../escaped" would lead out of the output
    # directory, and no file name can hold a null byte
    text = "\n".join(['{"fps": 30, "subject": "%s"}' % subject, _body_line(0.0)])
    with pytest.raises(SchemaError) as exc:
        parse_frames(io.StringIO(text))
    assert (exc.value.line, exc.value.reason) == (1, "subject must hold no '/', '\\' or control character")


@pytest.mark.parametrize(
    "old, new",
    [("0.2", "1e999"), ("0.2", "-1e999"), ('"t": 0.1', '"t": 1e999'), ('"t": 0.1', '"t": -1e999')],
)
def test_parse_jsonl_rejects_overflowing_literal(old, new):
    frame = _body_line(0.1).replace(old, new, 1)
    text = "\n".join([json.dumps({"fps": 30}), _body_line(0.0), frame])
    with pytest.raises(SchemaError) as exc:
        parse_frames(io.StringIO(text))
    assert exc.value.line == 3
    assert exc.value.reason == "non-finite number"


@pytest.mark.parametrize(
    "times, bad_line",
    [
        ([0.0, 0.04, 0.03, 0.08], 4),  # two swapped frames
        ([0.0, 0.04, 0.04, 0.08], 4),  # a repeated timestamp
        ([0.0, 0.041, 0.062, 0.1049], None),  # jittered but increasing
    ],
)
@pytest.mark.parametrize("fmt", list(FileFormat))
def test_parse_timestamps_must_increase(times, bad_line, fmt):
    seq = sequence(times, fps=25.0, body=[body_pose()] * len(times))
    text = serialize_jsonl(seq) if fmt is FileFormat.JSONL else serialize_csv(seq)
    if bad_line is None:
        assert parse_frames(io.StringIO(text), format=fmt).timestamps.tolist() == times
        return
    with pytest.raises(SchemaError) as exc:
        parse_frames(io.StringIO(text), format=fmt)
    assert exc.value.line == bad_line
    assert "increase" in exc.value.reason


def test_parse_csv_two_equal_timestamps_before_inferring_fps():
    # (n - 1) / duration would divide by zero
    text = serialize_csv(sequence([0.5, 0.5], body=[body_pose()] * 2))
    with pytest.raises(SchemaError) as exc:
        parse_frames(io.StringIO(text), format=FileFormat.CSV)
    assert (exc.value.line, exc.value.reason) == (3, "t must increase from frame to frame")


@pytest.mark.parametrize("cell, value", [(1, "nan"), (2, "inf"), (0, "nan")])
def test_parse_csv_rejects_non_finite_cells(cell, value):
    lines = serialize_csv(sequence([0.0, 0.1], fps=10.0, body=[body_pose()] * 2)).splitlines()
    cells = lines[2].split(",")
    cells[cell] = value  # 0 is t, 1 body_0_x, 2 body_0_y
    with pytest.raises(SchemaError) as exc:
        parse_frames(io.StringIO("\n".join([*lines[:2], ",".join(cells)])), format=FileFormat.CSV)
    assert exc.value.line == 3
    assert "finite" in exc.value.reason


# right_hand's cells follow t, body's 132 and left_hand's 84
@pytest.mark.parametrize("cell, text, reason", [
    (0, " 0.0_3 ", "t must be numeric"),
    (0, "0_1", "t must be numeric"),
    (0, "\u0661", "t must be numeric"),
    (1, " 1_0 ", "body pose has a non-numeric cell"),
    (2, "0.5\t", "body pose has a non-numeric cell"),
    (1, "\u0661\u0662", "body pose has a non-numeric cell"),
    (217, "0_5", "right_hand pose has a non-numeric cell"),
], ids=["t_spaced_underscore", "t_underscore", "t_arabic_digit", "x_spaced_underscore",
        "y_tab", "x_arabic_digits", "right_hand_underscore"])
def test_parse_csv_numbers_use_ascii_syntax(cell, text, reason):
    # float() reads each of these: " 0.0_3 " as 0.03, " 1_0 " as 10.0, "\u0661\u0662" as 12.0
    seq = sequence([0.0, 0.1], fps=10.0, body=[body_pose()] * 2, right_hand=[hand_pose()] * 2)
    lines = serialize_csv(seq).splitlines()
    cells = lines[2].split(",")
    cells[cell] = text
    with pytest.raises(SchemaError) as exc:
        parse_frames(io.StringIO("\n".join([*lines[:2], ",".join(cells)])), format=FileFormat.CSV)
    assert (exc.value.line, exc.value.reason) == (3, reason)


def test_csv_round_trip_coordinates(rng):
    bodies, hands = [], []
    for _ in range(4):
        bodies.append(body_pose({2: tuple(rng.uniform(0, 1, size=2))}))
        hands.append(hand_pose({5: tuple(rng.uniform(0, 1, size=2))}))
    seq = sequence(body=bodies, right_hand=hands)
    back = parse_frames(io.StringIO(serialize_csv(seq)), format=FileFormat.CSV)
    assert same_landmarks(seq, back)


def test_parse_frames_takes_no_fps_override():
    # an override skipped the fps rule: fps=0.0 built a sequence flagged bad_fps
    text = serialize_csv(sequence(body=[body_pose()] * 3))
    with pytest.raises(TypeError):
        parse_frames(io.StringIO(text), format=FileFormat.CSV, fps=0.0)


# ── JSONL round trip ────────────────────────────────────────────────

coord = st.floats(min_value=-2, max_value=2, allow_nan=False)


@st.composite
def sequences(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    item = draw(st.none() | st.sampled_from(list(UpdrsItem)))
    fps = draw(st.floats(min_value=0.5, max_value=240.0, allow_nan=False))
    times, slots = [], {slot: [] for slot in SLOT_POINTS}
    t = 0.0
    for _ in range(n):
        # uneven frame intervals around the declared period, which parse checks them against
        t += draw(st.floats(min_value=0.6, max_value=1.6)) / fps
        which = draw(st.integers(min_value=0, max_value=2))
        x = draw(coord)
        frame = [
            {"body": body_pose({0: (x, 0.5)})},
            {"left_hand": hand_pose({0: (x, 0.5)})},
            {"body": body_pose({1: (x, 0.25)}), "right_hand": hand_pose({2: (x, 0.75)})},
        ][which]
        times.append(t)
        for slot, poses in slots.items():
            poses.append(frame.get(slot))
    subject = draw(st.text(alphabet="abc123", max_size=6))
    return sequence(times, fps, item, subject, **slots)


@settings(max_examples=60, deadline=None)
@given(sequences())
def test_jsonl_round_trip_exact(seq):
    back = parse_frames(io.StringIO(serialize_jsonl(seq)))
    assert back.fps == seq.fps
    assert back.item == seq.item
    assert back.subject_id == seq.subject_id
    assert same_landmarks(seq, back)


# ── parser property: reject, or return finite, increasing arrays ─────

_JSON_TOKENS = ["1e999", "-1e999", "null", '"x"', '"0.5"', "true", "[]", "1" + "0" * 400, "NaN"]
_CSV_TOKENS = ["1e999", "-1e999", "nan", "inf", "x", "", "0x10"]


@st.composite
def landmark_texts(draw):
    """JSONL or CSV text of a few frames 0.5 s apart (the JSONL header's 2 fps),
    with bad tokens, wrong point counts and shuffled or repeated timestamps mixed in."""
    fmt = draw(st.sampled_from(list(FileFormat)))
    n = draw(st.integers(min_value=1, max_value=4))
    times = [0.5 * k for k in range(n)]
    if n > 1 and draw(st.booleans()):
        k = draw(st.integers(min_value=1, max_value=n - 1))
        times[k] = times[k - 1]
    if draw(st.booleans()):
        times = draw(st.permutations(times))
    frames = []
    for t in times:
        slots = draw(st.sampled_from([("body",), ("right_hand",), ("body", "left_hand")]))
        poses = {}
        for slot in slots:
            count = SLOT_POINTS[slot] + draw(st.sampled_from([0, 0, 0, 0, 0, 0, -1, 1]))
            poses[slot] = [["0.5", "0.25", "0.0", "1.0"] for _ in range(count)]
        frames.append([repr(t), poses])
    tokens = _JSON_TOKENS if fmt is FileFormat.JSONL else _CSV_TOKENS
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        frame = draw(st.sampled_from(frames))
        if draw(st.integers(min_value=0, max_value=4)) == 0:
            frame[0] = draw(st.sampled_from(tokens))
            continue
        pose = frame[1][draw(st.sampled_from(sorted(frame[1])))]
        point = draw(st.integers(min_value=0, max_value=len(pose) - 1))
        pose[point][draw(st.integers(min_value=0, max_value=3))] = draw(st.sampled_from(tokens))

    if fmt is FileFormat.JSONL:
        lines = ['{"fps": 2}']
        for t, poses in frames:
            parts = [f'"t": {t}']
            for slot, pose in poses.items():
                parts.append(f'"{slot}": [' + ", ".join("[" + ", ".join(p) + "]" for p in pose) + "]")
            lines.append("{" + ", ".join(parts) + "}")
    else:
        lines = [serialize_csv(sequence([0.0], body=[body_pose()])).splitlines()[0]]
        for t, poses in frames:
            cells = [t]
            for slot, count in SLOT_POINTS.items():
                pose = poses.get(slot)
                cells += [c for p in pose for c in p] if pose else [""] * (4 * count)
            lines.append(",".join(cells))
    return fmt, "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(landmark_texts())
def test_parse_rejects_or_returns_finite_increasing(case):
    fmt, text = case
    try:
        seq = parse_frames(io.StringIO(text), format=fmt)
    except WalkupError:
        return
    assert np.isfinite(seq.timestamps).all()
    assert (np.diff(seq.timestamps) > 0).all()
    for slot, pts in seq.poses.items():
        assert np.isfinite(pts[seq.present[slot]]).all()


# ── frame decoding: orjson first, the stdlib decoder for what it refuses ─


def _frame_text(new_frame: str) -> str:
    """A header and a frame at t = 0, then ``new_frame``, whose t is about 0.1."""
    return "\n".join([json.dumps({"fps": 10}), _body_line(0.0), new_frame])


@pytest.mark.parametrize(
    "old, new, reason",
    [
        ("0.2", "1" + "0" * 400, "body points must each be [x, y, z, visibility] numbers"),
        ('"t": 0.1', '"t": 1' + "0" * 400, "t must be numeric"),
    ],
    ids=["coordinate", "t"],
)
def test_parse_jsonl_integer_beyond_float_range(old, new, reason):
    with pytest.raises(SchemaError) as exc:
        parse_frames(io.StringIO(_frame_text(_body_line(0.1).replace(old, new, 1))))
    assert (exc.value.line, exc.value.reason) == (3, reason)


def test_parse_jsonl_coordinate_above_64_bits_is_its_float():
    big = 123456789012345678901234567890
    seq = parse_frames(io.StringIO(_frame_text(_body_line(0.1).replace("0.2", str(big), 1))))
    pose = np.array([[0.1, 0.2, 0.0, 1.0]] * 33)
    changed = pose.copy()
    changed[0, 1] = float(big)
    assert same_landmarks(seq, sequence([0.0, 0.1], fps=10.0, body=[pose, changed]))


def test_parse_jsonl_lone_surrogate_in_ignored_key():
    frame = _body_line(0.1).replace('{"t"', '{"note": "\\ud800", "t"', 1)
    plain = parse_frames(io.StringIO(_frame_text(_body_line(0.1))))
    assert same_landmarks(parse_frames(io.StringIO(_frame_text(frame))), plain)


_MUTATION_CHARS = '0123456789-+.eE[]{},:" \\utrfalsnNIiy'


def _numbers_as_bits(value):
    """``value`` with every int and float replaced by the bits of ``float(n)``."""
    if isinstance(value, list):
        return [_numbers_as_bits(v) for v in value]
    if isinstance(value, dict):
        return {k: _numbers_as_bits(v) for k, v in value.items()}
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return ("number", float(value).hex())
    return value


@st.composite
def mutated_frame_lines(draw):
    slot = draw(st.sampled_from(list(SLOT_POINTS)))
    pose = {"body": body_pose, "left_hand": hand_pose, "right_hand": hand_pose}[slot]
    finite = st.floats(allow_nan=False, allow_infinity=False)
    xy = draw(st.tuples(finite, finite))
    t = draw(st.floats(min_value=0, max_value=1e6))
    line = serialize_jsonl(sequence([t], **{slot: [pose({0: xy})]})).splitlines()[1]
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        at = draw(st.integers(min_value=0, max_value=len(line)))
        cut = draw(st.integers(min_value=0, max_value=2))
        put = draw(st.text(alphabet=_MUTATION_CHARS, max_size=3))
        line = line[:at] + put + line[at + cut :]
    return line


@settings(max_examples=500, deadline=None)
@given(mutated_frame_lines())
def test_orjson_accepts_only_what_the_stdlib_decoder_accepts_alike(line):
    # the stdlib decoder is the reference: a line orjson accepts must decode
    # there too, to the same values once every number is a float
    try:
        fast = orjson.loads(line)
    except orjson.JSONDecodeError:
        return
    assert _numbers_as_bits(fast) == _numbers_as_bits(_DECODER.decode(line))


# ── per-slot conversion against the per-frame reference ─────────────


def _parse_outcome(parse, text: str):
    """The sequence's bytes, or the error's type, line and reason."""
    try:
        seq = parse(text)
    except WalkupError as exc:
        return type(exc), getattr(exc, "line", None), getattr(exc, "reason", str(exc))
    arrays = [seq.timestamps] + [a for slot in SLOT_POINTS for a in (seq.poses[slot], seq.present[slot])]
    return seq.fps, [(a.dtype, a.shape, a.tobytes()) for a in arrays]


def _assert_parity(text: str):
    outcome = _parse_outcome(lambda s: parse_frames(io.StringIO(s)), text)
    assert outcome == _parse_outcome(reference_parse.parse_jsonl, text)


@settings(max_examples=400, deadline=None)
@given(mutated_frame_lines())
def test_slot_conversion_matches_per_frame_reference_on_mutated_lines(line):
    # three frames 1/30 s apart hold the median interval at the header's rate
    # whatever t the mutated line holds
    lead = [_body_line(-1.0 - k / 30) for k in (2, 1, 0)]
    _assert_parity("\n".join(['{"fps": 30}', *lead, line]) + "\n")


@settings(max_examples=200, deadline=None)
@given(landmark_texts().filter(lambda case: case[0] is FileFormat.JSONL))
def test_slot_conversion_matches_per_frame_reference_on_landmark_texts(case):
    _assert_parity(case[1])


_POINTS = "points must each be [x, y, z, visibility] numbers"


@pytest.mark.parametrize(
    "point, reason",
    [
        ("[0.1, 0.2, 0.0]", _POINTS),
        ("[0.1, 0.2, 0.0, 1.0, 1.0]", _POINTS),
        ('"1234"', _POINTS),
        ('{"a": 1, "b": 2, "c": 3, "d": 4}', _POINTS),
        ("[0.1, 0.2, 0.0, [1.0]]", _POINTS),
        ("[0.1, null, 0.0, 1.0]", "non-finite number"),
        ("[0.1, 1" + "0" * 400 + ", 0.0, 1.0]", _POINTS),
        ('[0.1, "0.2", 0.0, 1.0]', _POINTS),
        ("[0.1, true, 0.0, 1.0]", _POINTS),
        ("[0.1, false, 0.0, 1.0]", _POINTS),
    ],
    ids=["three", "five", "string", "object", "nested", "null", "huge", "numeric_string", "true", "false"],
)
@pytest.mark.parametrize("slot", ["body", "right_hand"])
def test_parse_jsonl_malformed_point(point, reason, slot):
    count = SLOT_POINTS[slot]
    points = ["[0.1, 0.2, 0.0, 1.0]"] * count
    points[count // 2] = point
    frame = '{"t": 0.1, "%s": [%s]}' % (slot, ", ".join(points))
    text = _frame_text(frame)
    with pytest.raises(SchemaError) as exc:
        parse_frames(io.StringIO(text))
    assert (exc.value.line, exc.value.reason) == (3, reason if reason != _POINTS else f"{slot} {_POINTS}")
    _assert_parity(text)


@pytest.mark.parametrize("header, frame, line, reason", [
    ('{"fps": true}', _body_line(0.1), 1, "fps must be numeric"),
    ('{"fps": "30"}', _body_line(0.1), 1, "fps must be numeric"),
    ('{"fps": 30}', _body_line(0.1).replace('"t": 0.1', '"t": "0.5"'), 3, "t must be numeric"),
    ('{"fps": 30}', _body_line(0.1).replace('"t": 0.1', '"t": true'), 3, "t must be numeric"),
], ids=["fps_true", "fps_string", "t_string", "t_true"])
def test_parse_jsonl_strings_and_booleans_are_not_numbers(header, frame, line, reason):
    # each used to parse as the number it spells, true as 1
    text = "\n".join([header, _body_line(0.0), frame])
    with pytest.raises(SchemaError) as exc:
        parse_frames(io.StringIO(text))
    assert (exc.value.line, exc.value.reason) == (line, reason)
    _assert_parity(text)


# ── resample ─────────────────────────────────────────────────────────


def _two_frame_seq():
    return sequence([0.0, 1.0], fps=1.0, body=[body_pose({0: (0.0, 0.0)}), body_pose({0: (1.0, 0.0)})])


def test_resample_linear_midpoint():
    out = resample(_two_frame_seq(), IngestConfig(resample_fps=2.0))
    assert out.timestamps.tolist() == [0.0, 0.5, 1.0]
    assert out.poses["body"][:, 0, 0].tolist() == pytest.approx([0.0, 0.5, 1.0])


def test_resample_identity_at_same_fps():
    fps = 30.0
    seq = sequence(fps=fps, body=[body_pose({0: (0.1 * k, 0.5)}) for k in range(10)])
    out = resample(seq, IngestConfig(resample_fps=fps))
    assert len(out) == len(seq)
    assert np.abs(out.poses["body"][..., :2] - seq.poses["body"][..., :2]).max() < 1e-12


def test_resample_idempotent():
    seq = _two_frame_seq()
    cfg = IngestConfig(resample_fps=7.0)
    once = resample(seq, cfg)
    twice = resample(once, cfg)
    assert len(once) == len(twice)
    assert np.array_equal(once.timestamps, twice.timestamps)
    assert np.abs(twice.poses["body"][..., 0] - once.poses["body"][..., 0]).max() < 1e-12


def test_resample_single_frame_at_zero():
    out = resample(sequence([3.7], body=[body_pose()]), IngestConfig(resample_fps=10.0))
    assert len(out) == 1
    assert out.timestamps[0] == 0.0


def test_resample_missing_pose_policies():
    # hand present only on the first and last frame; fill_gaps repairs the
    # middle one before resampling, as analyze does
    h0 = hand_pose({0: (0.0, 0.0)})
    h2 = hand_pose({0: (1.0, 0.0)})
    seq = sequence([0.0, 1.0, 2.0], fps=1.0, body=[body_pose()] * 3, right_hand=[h0, None, h2])

    def clean(gap_fill):
        cfg = IngestConfig(resample_fps=1.0, gap_fill=gap_fill)
        return resample(fill_gaps(seq, cfg), cfg)

    bridged = clean(GapFill.LINEAR_INTERP)
    assert bridged.poses["right_hand"][1, 0, 0] == pytest.approx(0.5)

    dropped = clean(GapFill.DROP)
    assert not dropped.present["right_hand"][1]
    assert dropped.present["body"][1]


@pytest.mark.parametrize("gap_fill", list(GapFill))
def test_resample_leaves_an_absent_bracket_absent(gap_fill):
    # without fill_gaps, a grid point between a carrier and an absent frame
    # has no hand, whatever the policy
    hands = [hand_pose(), None, hand_pose()]
    seq = sequence([0.0, 1.0, 2.0], fps=1.0, body=[body_pose()] * 3, right_hand=hands)
    out = resample(seq, IngestConfig(resample_fps=2.0, gap_fill=gap_fill))
    assert out.timestamps.tolist() == [0.0, 0.5, 1.0, 1.5, 2.0]
    assert out.present["right_hand"].tolist() == [True, False, False, False, True]
    assert np.isnan(out.poses["right_hand"][1:4]).all()
    assert out.present["body"].all()


def test_resample_requires_fps():
    with pytest.raises(ValueError):
        resample(_two_frame_seq(), IngestConfig())


def test_resample_fps_bounded_by_the_recording_rate():
    # two frames 1 s apart have a rate of 1 fps; the grid would hold 10001 frames
    with pytest.raises(ValueError, match="resample_fps 10000.0 exceeds 8 times"):
        resample(_two_frame_seq(), IngestConfig(resample_fps=1e4))
    assert len(resample(_two_frame_seq(), IngestConfig(resample_fps=8.0))) == 9
    with pytest.raises(ValueError, match="resample_fps must be finite"):
        IngestConfig(resample_fps=math.inf)


def test_resample_empty():
    with pytest.raises(EmptySequence):
        resample(sequence([]), IngestConfig(resample_fps=10.0))


def test_resample_with_no_slot_at_any_grid_point():
    # one frame that carries no slot: the one grid point keeps none, so it is dropped
    with pytest.raises(EmptySequence, match="^resampling produced no frames$"):
        resample(sequence([5.0]), IngestConfig(resample_fps=10.0))


# ── gap fill ─────────────────────────────────────────────────────────


def _vis_seq(visibilities: list[float], xs: list[float]):
    hands = [hand_pose() for _ in xs]
    for pts, v, x in zip(hands, visibilities, xs):
        pts[4] = (x, 0.5, 0.0, v)
    return sequence(fps=1.0, right_hand=hands)


def test_fill_gaps_linear_interp():
    seq = _vis_seq([1.0, 0.1, 1.0], [0.0, 99.0, 1.0])
    out = fill_gaps(seq, IngestConfig(min_visibility=0.5, gap_fill=GapFill.LINEAR_INTERP))
    x, _, _, visibility = out.poses["right_hand"][1, 4]
    assert x == pytest.approx(0.5)
    assert visibility == pytest.approx(0.5)  # marked just-visible
    # untouched neighbours keep their values
    assert out.poses["right_hand"][0, 4, 0] == 0.0


def test_fill_gaps_edge_gaps_take_the_nearest_visible_value():
    # a gap at either end of the recording has one visible neighbour to take
    seq = _vis_seq([0.1, 1.0, 0.1], [99.0, 0.7, 42.0])
    out = fill_gaps(seq, IngestConfig(min_visibility=0.5, gap_fill=GapFill.LINEAR_INTERP))
    for i in (0, 2):
        assert out.poses["right_hand"][i, 4, 0] == pytest.approx(0.7)
        assert out.poses["right_hand"][i, 4, 3] == pytest.approx(0.5)


def test_fill_gaps_drop_leaves_untouched():
    seq = _vis_seq([1.0, 0.1, 1.0], [0.0, 99.0, 1.0])
    out = fill_gaps(seq, IngestConfig(min_visibility=0.5, gap_fill=GapFill.DROP))
    assert out.poses["right_hand"][1, 4, 0] == 99.0
    assert out.poses["right_hand"][1, 4, 3] == pytest.approx(0.1)


def test_fill_gaps_never_visible_left_alone():
    seq = _vis_seq([0.1, 0.2, 0.1], [5.0, 6.0, 7.0])
    out = fill_gaps(seq, IngestConfig(min_visibility=0.5, gap_fill=GapFill.LINEAR_INTERP))
    assert out.poses["right_hand"][:, 4, 0].tolist() == [5.0, 6.0, 7.0]


@pytest.mark.parametrize("gap_fill, x", [(GapFill.LINEAR_INTERP, 0.5)])
def test_fill_gaps_repairs_a_frame_without_the_slot(gap_fill, x):
    hands = [hand_pose({4: (0.0, 0.5)}), None, hand_pose({4: (1.0, 0.5)})]
    seq = sequence([0.0, 1.0, 2.0], fps=1.0, body=[body_pose()] * 3, right_hand=hands)
    out = fill_gaps(seq, IngestConfig(min_visibility=0.5, gap_fill=gap_fill))
    assert out.present["right_hand"].all()
    assert np.isfinite(out.poses["right_hand"]).all()
    assert out.poses["right_hand"][1, 4, 0] == pytest.approx(x)
    assert (out.poses["right_hand"][1, :, 3] == 0.5).all()  # marked just-visible
    assert np.shares_memory(out.poses["body"], seq.poses["body"])  # nothing to repair: not copied


def test_fill_gaps_drop_leaves_an_absent_frame_absent():
    hands = [hand_pose(), None, hand_pose()]
    seq = sequence([0.0, 1.0, 2.0], fps=1.0, right_hand=hands)
    assert fill_gaps(seq, IngestConfig(gap_fill=GapFill.DROP)) is seq


@pytest.mark.parametrize("gap_fill", list(GapFill))
def test_fill_gaps_returns_clean_sequence_itself(gap_fill):
    # always visible, and never visible: neither needs repair
    for vis in ([1.0, 0.5, 1.0], [0.1, 0.2, 0.1]):
        seq = _vis_seq(vis, [0.0, 99.0, 1.0])
        assert fill_gaps(seq, IngestConfig(min_visibility=0.5, gap_fill=gap_fill)) is seq


@pytest.mark.parametrize("gap_fill, x", [(GapFill.LINEAR_INTERP, 0.4)])
def test_fill_gaps_keeps_a_never_visible_landmark_finite_where_its_slot_was_absent(gap_fill, x):
    # landmark 7 is never visible and the body is absent from the middle
    # frame; the repaired slot is present there, so landmark 7 must be finite
    bodies = [body_pose({0: (0.0, 0.5), 7: (0.2, 0.5)}), None, body_pose({0: (1.0, 0.5), 7: (0.6, 0.5)})]
    for pts in bodies[::2]:
        pts[7, 3] = 0.1
    seq = sequence([0.0, 1.0, 2.0], fps=1.0, item=UpdrsItem.LEG_AGILITY, body=bodies)
    out = fill_gaps(seq, IngestConfig(min_visibility=0.5, gap_fill=gap_fill))
    assert out.present["body"].all()
    assert frame_violation(out) is None
    assert out.poses["body"][1, 7].tolist() == pytest.approx([x, 0.5, 0.0, 0.0])  # visibility 0: still invisible
    assert np.array_equal(out.poses["body"][::2], seq.poses["body"][::2])
    assert same_landmarks(parse_frames(io.StringIO(serialize_jsonl(out))), out)


def test_ingest_config_validation():
    with pytest.raises(ValueError):
        IngestConfig(resample_fps=0.0)
    with pytest.raises(ValueError):
        IngestConfig(min_visibility=1.5)
