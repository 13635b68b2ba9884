import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import body_pose, hand_pose
from walkup.core import (
    BODY_POINT_COUNT,
    SLOT_POINTS,
    BodyPose,
    HandPose,
    Landmark,
    LandmarkFrame,
    LandmarkSequence,
    Side,
    UpdrsItem,
)
from walkup.errors import EmptySequence, SchemaError, UnreadableInput, WalkupError
from walkup.ingest import (
    FileFormat,
    GapFill,
    IngestConfig,
    fill_gaps,
    parse_frames,
    resample,
    serialize_csv,
    serialize_jsonl,
)


def _body_line(t: float) -> str:
    return json.dumps({"t": t, "body": [[0.1, 0.2, 0.0, 1.0]] * 33})


def test_parse_jsonl_two_body_frames():
    text = "\n".join([json.dumps({"fps": 25.0, "subject": "s1"}), _body_line(0.0), _body_line(0.04)])
    seq = parse_frames(io.StringIO(text))
    assert len(seq) == 2
    assert seq.fps == 25.0
    assert seq.subject_id == "s1"
    assert seq.frames[0].body is not None
    assert seq.frames[0].left_hand is None


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


def test_parse_csv_zero_coordinates():
    frames = (LandmarkFrame(0.0, body=BodyPose(tuple(Landmark(0, 0, 0, 1) for _ in range(33)))),)
    seq = LandmarkSequence.from_frames(frames, fps=30.0)
    text = serialize_csv(seq)
    parsed = parse_frames(io.StringIO(text), format=FileFormat.CSV)
    lm = parsed.frames[0].body.points[0]
    assert (lm.x, lm.y, lm.z, lm.visibility) == (0.0, 0.0, 0.0, 1.0)
    assert parsed.frames[0].left_hand is None


def test_parse_csv_partial_pose_rejected():
    frames = (LandmarkFrame(0.0, body=body_pose()),)
    text = serialize_csv(LandmarkSequence.from_frames(frames, fps=30.0))
    lines = text.splitlines()
    cells = lines[1].split(",")
    cells[1] = ""  # body_0_x
    with pytest.raises(SchemaError) as exc:
        parse_frames(io.StringIO("\n".join([lines[0], ",".join(cells)])), format=FileFormat.CSV)
    assert "partially filled" in exc.value.reason


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_parse_jsonl_rejects_non_finite_constants(constant):
    frame = _body_line(0.0).replace("0.2", constant, 1)
    text = "\n".join([json.dumps({"fps": 30}), _body_line(0.0), frame])
    with pytest.raises(SchemaError) as exc:
        parse_frames(io.StringIO(text))
    assert exc.value.line == 3
    assert constant in exc.value.reason


def test_parse_jsonl_rejects_non_finite_fps():
    with pytest.raises(SchemaError) as exc:
        parse_frames(io.StringIO("\n".join(['{"fps": NaN}', _body_line(0.0)])))
    assert exc.value.line == 1


@pytest.mark.parametrize("fps", ["1e999", "-1e999", '"inf"', '"nan"'])
def test_parse_jsonl_rejects_overflowing_fps(fps):
    # inf used to parse, and serialize_jsonl then wrote a header it could not read back
    with pytest.raises(SchemaError) as exc:
        parse_frames(io.StringIO("\n".join(['{"fps": %s}' % fps, _body_line(0.0)])))
    assert exc.value.line == 1
    assert exc.value.reason == "fps must be finite"


@pytest.mark.parametrize("item", ['"jumping_jacks"', "5", "[1]"])
def test_parse_jsonl_unknown_item_is_schema_error(item):
    text = "\n".join(["", '{"fps": 30, "item": %s}' % item, _body_line(0.0)])
    with pytest.raises(SchemaError) as exc:
        parse_frames(io.StringIO(text))
    assert exc.value.line == 2
    assert "unknown item" in exc.value.reason


@pytest.mark.parametrize("old, new", [("0.2", "1e999"), ("0.2", "-1e999"), ('"t": 0.1', '"t": 1e999')])
def test_parse_jsonl_rejects_overflowing_literal(old, new):
    frame = _body_line(0.1).replace(old, new, 1)
    text = "\n".join([json.dumps({"fps": 30}), _body_line(0.0), frame])
    with pytest.raises(SchemaError) as exc:
        parse_frames(io.StringIO(text))
    assert exc.value.line == 3
    assert "finite" in exc.value.reason


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
    frames = tuple(LandmarkFrame(t, body=body_pose()) for t in times)
    seq = LandmarkSequence.from_frames(frames, fps=25.0)
    text = serialize_jsonl(seq) if fmt is FileFormat.JSONL else serialize_csv(seq)
    if bad_line is None:
        assert parse_frames(io.StringIO(text), format=fmt).timestamps.tolist() == times
        return
    with pytest.raises(SchemaError) as exc:
        parse_frames(io.StringIO(text), format=fmt)
    assert exc.value.line == bad_line
    assert "increase" in exc.value.reason


@pytest.mark.parametrize("cell, value", [(1, "nan"), (2, "inf"), (0, "nan")])
def test_parse_csv_rejects_non_finite_cells(cell, value):
    frames = (LandmarkFrame(0.0, body=body_pose()), LandmarkFrame(0.1, body=body_pose()))
    lines = serialize_csv(LandmarkSequence.from_frames(frames, fps=10.0)).splitlines()
    cells = lines[2].split(",")
    cells[cell] = value  # 0 is t, 1 body_0_x, 2 body_0_y
    with pytest.raises(SchemaError) as exc:
        parse_frames(io.StringIO("\n".join([*lines[:2], ",".join(cells)])), format=FileFormat.CSV)
    assert exc.value.line == 3
    assert "finite" in exc.value.reason


def test_csv_round_trip_coordinates(rng):
    frames = []
    for i in range(4):
        frames.append(
            LandmarkFrame(
                i / 30.0,
                body=body_pose({2: tuple(rng.uniform(0, 1, size=2))}),
                right_hand=hand_pose({5: tuple(rng.uniform(0, 1, size=2))}),
            )
        )
    seq = LandmarkSequence.from_frames(tuple(frames), fps=30.0)
    back = parse_frames(io.StringIO(serialize_csv(seq)), format=FileFormat.CSV, fps=30.0)
    for fa, fb in zip(seq.frames, back.frames):
        assert fa.timestamp == fb.timestamp
        for pa, pb in zip(fa.body.points, fb.body.points):
            assert (pa.x, pa.y, pa.z, pa.visibility) == (pb.x, pb.y, pb.z, pb.visibility)


# ── JSONL round trip ────────────────────────────────────────────────

coord = st.floats(min_value=-2, max_value=2, allow_nan=False)


@st.composite
def sequences(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    item = draw(st.none() | st.sampled_from(list(UpdrsItem)))
    frames = []
    t = 0.0
    for _ in range(n):
        t += draw(st.floats(min_value=0.001, max_value=1.0, allow_nan=False))
        which = draw(st.integers(min_value=0, max_value=2))
        x = draw(coord)
        if which == 0:
            frames.append(LandmarkFrame(t, body=body_pose({0: (x, 0.5)})))
        elif which == 1:
            frames.append(LandmarkFrame(t, left_hand=hand_pose({0: (x, 0.5)}, side=Side.LEFT)))
        else:
            frames.append(
                LandmarkFrame(
                    t,
                    body=body_pose({1: (x, 0.25)}),
                    right_hand=hand_pose({2: (x, 0.75)}),
                )
            )
    fps = draw(st.floats(min_value=0.5, max_value=240.0, allow_nan=False))
    subject = draw(st.text(alphabet="abc123", max_size=6))
    return LandmarkSequence.from_frames(tuple(frames), fps=fps, item=item, subject_id=subject)


@settings(max_examples=60, deadline=None)
@given(sequences())
def test_jsonl_round_trip_exact(seq):
    back = parse_frames(io.StringIO(serialize_jsonl(seq)))
    assert back.fps == seq.fps
    assert back.item == seq.item
    assert back.subject_id == seq.subject_id
    assert len(back) == len(seq)
    for fa, fb in zip(seq.frames, back.frames):
        assert fa.timestamp == fb.timestamp
        for slot in ("body", "left_hand", "right_hand"):
            pa, pb = getattr(fa, slot), getattr(fb, slot)
            assert (pa is None) == (pb is None)
            if pa is not None:
                for la, lb in zip(pa.points, pb.points):
                    assert (la.x, la.y, la.z, la.visibility) == (lb.x, lb.y, lb.z, lb.visibility)


# ── parser property: reject, or return finite, increasing arrays ─────

_JSON_TOKENS = ["1e999", "-1e999", "null", '"x"', '"0.5"', "true", "[]", "1" + "0" * 400, "NaN"]
_CSV_TOKENS = ["1e999", "-1e999", "nan", "inf", "x", "", "0x10"]


@st.composite
def landmark_texts(draw):
    """JSONL or CSV text of a few frames, with bad tokens, wrong point counts
    and shuffled or repeated timestamps mixed in."""
    fmt = draw(st.sampled_from(list(FileFormat)))
    n = draw(st.integers(min_value=1, max_value=4))
    times = sorted(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]), min_size=n, max_size=n)))
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
        lines = ['{"fps": 30}']
        for t, poses in frames:
            parts = [f'"t": {t}']
            for slot, pose in poses.items():
                parts.append(f'"{slot}": [' + ", ".join("[" + ", ".join(p) + "]" for p in pose) + "]")
            lines.append("{" + ", ".join(parts) + "}")
    else:
        empty = LandmarkSequence.from_frames((LandmarkFrame(0.0, body=body_pose()),), fps=30.0)
        lines = [serialize_csv(empty).splitlines()[0]]
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


# ── resample ─────────────────────────────────────────────────────────


def _two_frame_seq():
    return LandmarkSequence.from_frames(
        (
            LandmarkFrame(0.0, body=body_pose({0: (0.0, 0.0)})),
            LandmarkFrame(1.0, body=body_pose({0: (1.0, 0.0)})),
        ),
        fps=1.0,
    )


def test_resample_linear_midpoint():
    out = resample(_two_frame_seq(), IngestConfig(resample_fps=2.0))
    assert [f.timestamp for f in out.frames] == [0.0, 0.5, 1.0]
    xs = [f.body.points[0].x for f in out.frames]
    assert xs == pytest.approx([0.0, 0.5, 1.0])


def test_resample_identity_at_same_fps():
    fps = 30.0
    frames = tuple(
        LandmarkFrame(k / fps, body=body_pose({0: (0.1 * k, 0.5)})) for k in range(10)
    )
    seq = LandmarkSequence.from_frames(frames, fps=fps)
    out = resample(seq, IngestConfig(resample_fps=fps))
    assert len(out) == len(seq)
    for fa, fb in zip(seq.frames, out.frames):
        for la, lb in zip(fa.body.points, fb.body.points):
            assert abs(la.x - lb.x) < 1e-12
            assert abs(la.y - lb.y) < 1e-12


def test_resample_idempotent():
    seq = _two_frame_seq()
    cfg = IngestConfig(resample_fps=7.0)
    once = resample(seq, cfg)
    twice = resample(once, cfg)
    assert len(once) == len(twice)
    for fa, fb in zip(once.frames, twice.frames):
        assert fa.timestamp == fb.timestamp
        for la, lb in zip(fa.body.points, fb.body.points):
            assert abs(la.x - lb.x) < 1e-12


def test_resample_single_frame_at_zero():
    seq = LandmarkSequence.from_frames((LandmarkFrame(3.7, body=body_pose()),), fps=30.0)
    out = resample(seq, IngestConfig(resample_fps=10.0))
    assert len(out) == 1
    assert out.frames[0].timestamp == 0.0


def test_resample_missing_pose_policies():
    # hand present only on the first and last frame
    h0 = hand_pose({0: (0.0, 0.0)})
    h2 = hand_pose({0: (1.0, 0.0)})
    frames = (
        LandmarkFrame(0.0, body=body_pose(), right_hand=h0),
        LandmarkFrame(1.0, body=body_pose()),
        LandmarkFrame(2.0, body=body_pose(), right_hand=h2),
    )
    seq = LandmarkSequence.from_frames(frames, fps=1.0)

    bridged = resample(seq, IngestConfig(resample_fps=1.0, gap_fill=GapFill.LINEAR_INTERP))
    assert bridged.frames[1].right_hand.points[0].x == pytest.approx(0.5)

    held = resample(seq, IngestConfig(resample_fps=1.0, gap_fill=GapFill.HOLD_LAST))
    assert held.frames[1].right_hand.points[0].x == pytest.approx(0.0)

    dropped = resample(seq, IngestConfig(resample_fps=1.0, gap_fill=GapFill.DROP))
    assert dropped.frames[1].right_hand is None
    assert dropped.frames[1].body is not None


def test_resample_requires_fps():
    with pytest.raises(ValueError):
        resample(_two_frame_seq(), IngestConfig())


def test_resample_empty():
    with pytest.raises(EmptySequence):
        resample(LandmarkSequence.from_frames((), fps=30.0), IngestConfig(resample_fps=10.0))


# ── gap fill ─────────────────────────────────────────────────────────


def _vis_seq(visibilities: list[float], xs: list[float]) -> LandmarkSequence:
    frames = []
    for i, (v, x) in enumerate(zip(visibilities, xs)):
        pts = list(hand_pose().points)
        pts[4] = Landmark(x, 0.5, 0.0, v)
        frames.append(LandmarkFrame(float(i), right_hand=HandPose(Side.RIGHT, tuple(pts))))
    return LandmarkSequence.from_frames(tuple(frames), fps=1.0)


def test_fill_gaps_linear_interp():
    seq = _vis_seq([1.0, 0.1, 1.0], [0.0, 99.0, 1.0])
    out = fill_gaps(seq, IngestConfig(min_visibility=0.5, gap_fill=GapFill.LINEAR_INTERP))
    lm = out.frames[1].right_hand.points[4]
    assert lm.x == pytest.approx(0.5)
    assert lm.visibility == pytest.approx(0.5)  # marked just-visible
    # untouched neighbours keep their values
    assert out.frames[0].right_hand.points[4].x == 0.0


def test_fill_gaps_hold_last():
    seq = _vis_seq([1.0, 0.1, 1.0], [0.0, 99.0, 1.0])
    out = fill_gaps(seq, IngestConfig(min_visibility=0.5, gap_fill=GapFill.HOLD_LAST))
    assert out.frames[1].right_hand.points[4].x == pytest.approx(0.0)


def test_fill_gaps_leading_gap_backfills():
    seq = _vis_seq([0.1, 1.0], [99.0, 0.7])
    out = fill_gaps(seq, IngestConfig(min_visibility=0.5, gap_fill=GapFill.HOLD_LAST))
    assert out.frames[0].right_hand.points[4].x == pytest.approx(0.7)


def test_fill_gaps_drop_leaves_untouched():
    seq = _vis_seq([1.0, 0.1, 1.0], [0.0, 99.0, 1.0])
    out = fill_gaps(seq, IngestConfig(min_visibility=0.5, gap_fill=GapFill.DROP))
    assert out.frames[1].right_hand.points[4].x == 99.0
    assert out.frames[1].right_hand.points[4].visibility == pytest.approx(0.1)


def test_fill_gaps_never_visible_left_alone():
    seq = _vis_seq([0.1, 0.2, 0.1], [5.0, 6.0, 7.0])
    out = fill_gaps(seq, IngestConfig(min_visibility=0.5, gap_fill=GapFill.LINEAR_INTERP))
    assert [f.right_hand.points[4].x for f in out.frames] == [5.0, 6.0, 7.0]


@pytest.mark.parametrize("gap_fill", [GapFill.LINEAR_INTERP, GapFill.HOLD_LAST])
def test_fill_gaps_returns_clean_sequence_itself(gap_fill):
    # always visible, and never visible: neither needs repair
    for vis in ([1.0, 0.5, 1.0], [0.1, 0.2, 0.1]):
        seq = _vis_seq(vis, [0.0, 99.0, 1.0])
        assert fill_gaps(seq, IngestConfig(min_visibility=0.5, gap_fill=gap_fill)) is seq


def test_ingest_config_validation():
    with pytest.raises(ValueError):
        IngestConfig(resample_fps=0.0)
    with pytest.raises(ValueError):
        IngestConfig(min_visibility=1.5)
