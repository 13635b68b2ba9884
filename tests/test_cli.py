import csv
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import walkup
from tests.conftest import hand_sequence
from walkup import cli
from walkup.cli import main
from walkup.core import LandmarkSequence, UpdrsItem
from walkup.features import linear_trend
from walkup.ingest import FileFormat, parse_frames, write_sequence
from walkup.synth import MotionScenario, generate


def _run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def tap_fixture(tmp_path):
    path = tmp_path / "tap.jsonl"
    code = main(["synth", "--item", "finger_taps", "--out", str(path), "--seed", "3"])
    assert code == 0
    return path


def _right_only_fixture(tmp_path, tap_fixture) -> Path:
    """Strip the left hand so analysis yields a single channel."""
    out = tmp_path / "tap_right.jsonl"
    lines = tap_fixture.read_text().splitlines()
    kept = [lines[0]]
    for line in lines[1:]:
        obj = json.loads(line)
        obj.pop("left_hand", None)
        kept.append(json.dumps(obj))
    out.write_text("\n".join(kept) + "\n")
    return out


def test_synth_then_validate_ok(capsys, tap_fixture):
    code, _, err = _run(capsys, "validate", "--in", str(tap_fixture))
    assert code == 0
    assert "ok" in err


def test_validate_empty_file(capsys, tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code, _, err = _run(capsys, "validate", "--in", str(empty))
    assert code == 1
    assert "EmptySequence" in err


def test_validate_missing_file_is_io_error(capsys, tmp_path):
    code, _, err = _run(capsys, "validate", "--in", str(tmp_path / "nope.jsonl"))
    assert code == 3


def test_validate_bad_sequence(capsys, tmp_path):
    bad = tmp_path / "bad.jsonl"
    body = [[0.1, 0.2, 0.0, 1.0]] * 33
    bad.write_text(
        "\n".join(
            [
                json.dumps({"fps": 30, "item": "finger_taps"}),
                json.dumps({"t": 0.0, "body": body}),
            ]
        )
    )
    code, _, err = _run(capsys, "validate", "--in", str(bad))
    assert code == 1
    assert "hand" in err


def test_validate_frame_without_pose(capsys, tmp_path):
    path = tmp_path / "no_pose.jsonl"
    body = [[0.1, 0.2, 0.0, 1.0]] * 33
    path.write_text("\n".join(json.dumps(x) for x in ({"fps": 30}, {"t": 0.0, "body": body}, {"t": 0.1})))
    code, _, err = _run(capsys, "validate", "--in", str(path))
    assert code == 1
    assert err == f"{path}: SchemaError: line 3: frame has no pose\n"


def _header_fixture(tmp_path, header: str) -> Path:
    path = tmp_path / "header.jsonl"
    body = [[0.1, 0.2, 0.0, 1.0]] * 33
    path.write_text(header + "\n" + json.dumps({"t": 0.0, "body": body}) + "\n")
    return path


@pytest.mark.parametrize(
    "header, reason",
    [
        ('{"fps": 1e999, "item": "leg_agility"}', "fps must be finite"),
        ('{"fps": 30, "item": "jumping_jacks"}', "unknown item 'jumping_jacks'"),
        ("[30]", 'header must be an object with an "fps" field'),
    ],
    ids=["fps_overflow", "unknown_item", "not_object"],
)
def test_validate_bad_header_is_validation_error(capsys, tmp_path, header, reason):
    code, _, err = _run(capsys, "validate", "--in", str(_header_fixture(tmp_path, header)))
    assert code == 1
    assert "SchemaError: line 1:" in err and reason in err


@pytest.mark.parametrize(
    "fmt, text, problem",
    [
        ("jsonl", '{"fps": 30}\n[1]\n', "SchemaError: line 2: frame must be a JSON object"),
        ("csv", "", "EmptySequence: no content lines"),
        ("csv", "t,value\n0.0,1.0\n", "SchemaError: line 1: unexpected CSV header"),
    ],
    ids=["frame_not_object", "empty_csv", "csv_header"],
)
def test_validate_malformed_file_is_validation_error(capsys, tmp_path, fmt, text, problem):
    path = tmp_path / f"bad.{fmt}"
    path.write_text(text)
    code, _, err = _run(capsys, "validate", "--in", str(path), "--format", fmt)
    assert (code, err) == (1, f"{path}: {problem}\n")


def test_validate_unknown_item_option_is_usage_error(capsys, tmp_path):
    path = _header_fixture(tmp_path, '{"fps": 30}')
    code, _, err = _run(capsys, "validate", "--in", str(path), "--item", "jumping_jacks")
    assert code == 2
    assert "unknown item 'jumping_jacks'" in err


@pytest.mark.parametrize("command", ["validate", "analyze"])
def test_unknown_item_option_is_one_usage_error_before_out(capsys, tmp_path, tap_fixture, command):
    # --item is worked out once, before any input is read and before --out is made
    out = tmp_path / "out"
    argv = [command, "--in", str(tap_fixture), str(tap_fixture), "--item", "bogus"]
    capsys.readouterr()  # drop the fixture's synth message
    code, _, err = _run(capsys, *argv, *(["--out", str(out)] if command == "analyze" else []))
    assert code == 2
    assert err.startswith("error: unknown item 'bogus'; expected one of: ") and err.count("\n") == 1
    assert not out.exists()


def test_validate_takes_no_analysis_options(capsys, tap_fixture):
    code, _, err = _run(capsys, "validate", "--in", str(tap_fixture), "--config", "x.json")
    assert code == 2
    assert "unrecognized arguments: --config x.json" in err


@pytest.mark.parametrize("flags", [["--plane", "3d"], ["--normalize-palm"]], ids=["plane", "normalize_palm"])
def test_analyze_takes_settings_only_from_config(capsys, tmp_path, tap_fixture, flags):
    out = tmp_path / "out"
    code, _, err = _run(capsys, "analyze", "--in", str(tap_fixture), "--out", str(out), *flags)
    assert code == 2
    assert f"unrecognized arguments: {' '.join(flags)}" in err
    assert not out.exists()


def test_validate_batch_runs_inputs_in_order(capsys, tmp_path, tap_fixture):
    missing, body_only = tmp_path / "missing.jsonl", _header_fixture(tmp_path, '{"fps": 30, "item": "finger_taps"}')
    capsys.readouterr()  # drop the fixture's synth message
    code, _, err = _run(capsys, "validate", "--in", str(tap_fixture), str(missing), str(body_only))
    # the missing file's I/O error outranks the third input's violation, which still runs
    assert code == 3
    first, second, third = err.splitlines()
    assert first == f"{tap_fixture}: ok (300 frames)"
    assert second.startswith(f"{missing}: UnreadableInput: cannot read {missing}: ")
    assert third.startswith(f"{body_only}: missing_pose")


def _edit(seq, frames=None, t=None, fps=None, point=None) -> LandmarkSequence:
    """``seq`` cut to its first ``frames`` frames, with the timestamps in ``{frame: t}``,
    a new ``fps``, or ``point = (slot, frame, landmark, component, value)`` set."""
    n = frames or len(seq)
    poses = {slot: pts[:n].copy() for slot, pts in seq.poses.items()}
    if point:
        slot, i, j, k, value = point
        poses[slot][i, j, k] = value
    times = seq.timestamps[:n].copy()
    if t is not None:
        times[list(t)] = list(t.values())
    return LandmarkSequence(times, poses, seq.fps if fps is None else fps, seq.item, seq.subject_id)


# name: (formats, edit of the 10 s finger-tap fixture, line, reason); frame k is on line k + 2
_VIOLATIONS = {
    "fps_zero": (["jsonl"], dict(fps=0.0), 1, "fps must be positive, got 0.0"),
    "fps_negative": (["jsonl"], dict(fps=-30.0), 1, "fps must be positive, got -30.0"),
    # a CSV's fps is (n - 1) / duration, which overflows here
    "fps_inferred": (["csv"], dict(frames=2, t={1: 5e-324}), 1, "fps must be finite"),
    # every t in milliseconds: validate passed it, and analyze gave mean_interval_s 1000.0
    "t_milliseconds": (["jsonl"], dict(t={k: 1000 * k / 30 for k in range(300)}), 1,
                       "fps 30 does not match the frame times, whose median interval is 33.3333 s"),
    "non_finite": (["jsonl", "csv"], dict(point=("right_hand", 3, 4, 0, np.inf)), 5, "non-finite number"),
    "non_finite_t": (["jsonl", "csv"], dict(t={3: np.inf}), 5, "non-finite number"),
    "non_increasing": (["jsonl", "csv"], dict(t={3: 2 / 30}), 5, "t must increase from frame to frame"),
    "visibility_high": (["jsonl", "csv"], dict(point=("right_hand", 3, 4, 3, 2.0)), 5,
                        "right_hand[4]: visibility 2.0 outside [0, 1]"),
    "visibility_negative": (["jsonl", "csv"], dict(point=("left_hand", 3, 0, 3, -0.5)), 5,
                            "left_hand[0]: visibility -0.5 outside [0, 1]"),
}


@pytest.mark.parametrize("command", ["validate", "analyze"])
@pytest.mark.parametrize(
    "fmt, edit, line, reason",
    [
        pytest.param(fmt, edit, line, reason, id=f"{name}-{fmt}")
        for name, (formats, edit, line, reason) in _VIOLATIONS.items()
        for fmt in formats
    ],
)
def test_rule_violation_same_verdict_under_validate_and_analyze(
    capsys, tmp_path, tap_fixture, command, fmt, edit, line, reason
):
    path = tmp_path / f"broken.{fmt}"
    write_sequence(_edit(parse_frames(tap_fixture), **edit), path, FileFormat(fmt))
    # an overflowing literal, which the JSON decoders pass on as inf
    path.write_text(path.read_text().replace("Infinity", "1e999"))
    argv = [command, "--in", str(path), "--format", fmt, "--item", "finger_taps"]
    if command == "analyze":
        argv += ["--out", str(tmp_path / "out")]
    code, _, err = _run(capsys, *argv)
    assert code == 1
    assert f"SchemaError: line {line}: {reason}\n" in err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("config", [None, {"resample_fps": 25}], ids=["plain", "resampled"])
def test_negative_timestamps_are_valid_and_change_no_channel(capsys, tmp_path, tap_fixture, config):
    seq = parse_frames(tap_fixture)
    shifted = tmp_path / "shifted.jsonl"
    write_sequence(dataclasses.replace(seq, timestamps=seq.timestamps - 0.5), shifted)
    code, _, err = _run(capsys, "validate", "--in", str(shifted))
    assert code == 0 and err.endswith(f"{shifted}: ok (300 frames)\n")
    options = []
    if config:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        options = ["--config", str(tmp_path / "cfg.json")]
    channels = []
    for path in (tap_fixture, shifted):
        out = tmp_path / f"out_{path.stem}"
        assert _run(capsys, "analyze", "--in", str(path), "--out", str(out), *options)[0] == 0
        channels.append(json.loads((out / "report.json").read_text())["channels"])
    assert channels[0] == channels[1]


@pytest.mark.parametrize("item", list(UpdrsItem), ids=lambda item: item.value)
def test_jsonl_and_its_csv_copy_analyze_to_the_same_channels(capsys, tmp_path, item):
    # both formats go through one assembly path; the CSV infers its rate and takes --item
    seq = generate(MotionScenario(item=item, duration_s=3.0, tremor_amplitude=0.01, noise_std=0.001, seed=5))
    channels = []
    for fmt in FileFormat:
        path = tmp_path / f"rec.{fmt.value}"
        write_sequence(seq, path, fmt)
        out = tmp_path / f"out_{fmt.value}"
        options = ["--format", "csv", "--item", item.value] if fmt is FileFormat.CSV else []
        assert _run(capsys, "analyze", "--in", str(path), "--out", str(out), *options)[0] == 0
        channels.append(json.loads((out / "report.json").read_text())["channels"])
    assert channels[0] == channels[1] != {}


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("command", ["validate", "analyze"])
def test_bad_byte_deep_in_file_is_io_error(capsys, tmp_path, tap_fixture, fmt, command):
    """Lines are decoded as the parse reaches them; a bad byte there is still an I/O error."""
    path = tmp_path / f"bad.{fmt}"
    write_sequence(parse_frames(tap_fixture), path, FileFormat(fmt))
    lines = path.read_bytes().split(b"\n")
    assert len(lines) > 250
    lines[199] = lines[199][:40] + b"\xff" + lines[199][40:]
    path.write_bytes(b"\n".join(lines))
    argv = [command, "--in", str(path), "--format", fmt, "--item", "finger_taps"]
    if command == "analyze":
        argv += ["--out", str(tmp_path / "out")]
    code, _, err = _run(capsys, *argv)
    assert code == 3
    assert "can't decode byte 0xff" in err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("schema_line, byte_line, code", [(5, 250, 1), (250, 5, 3)])
def test_earlier_of_two_defects_decides_exit_code(capsys, tmp_path, tap_fixture, schema_line, byte_line, code):
    """The parse stops at the first defect it reads: a bad line (exit 1) or a bad byte (exit 3)."""
    lines = tap_fixture.read_bytes().split(b"\n")
    assert len(lines) > 250
    lines[schema_line - 1] = b"not json"
    lines[byte_line - 1] = lines[byte_line - 1][:40] + b"\xff" + lines[byte_line - 1][40:]
    path = tmp_path / "two_defects.jsonl"
    path.write_bytes(b"\n".join(lines))
    got, _, err = _run(capsys, "validate", "--in", str(path))
    assert got == code
    assert (f"line {schema_line}: invalid JSON" in err) == (code == 1)
    assert ("can't decode byte 0xff" in err) == (code == 3)


def test_analyze_degenerate_hand_names_no_landmark_index(capsys, tmp_path):
    # every hand point at one spot: each angle is undefined, though no landmark is missing
    hand = np.tile([0.5, 0.5, 0.0, 1.0], (21, 1))
    path = tmp_path / "flat.jsonl"
    write_sequence(hand_sequence([hand] * 90), path)
    code, _, err = _run(capsys, "analyze", "--in", str(path), "--out", str(tmp_path / "out"))
    assert code == 1
    assert err == (
        f"{path}: MissingLandmark: every finger_taps/right value is undefined"
        " (low visibility or degenerate geometry)\n"
    )


def _synth(tmp_path, item: str) -> Path:
    path = tmp_path / f"{item}.jsonl"
    assert main(["synth", "--item", item, "--out", str(path), "--seed", "3"]) == 0
    return path


@pytest.mark.parametrize(
    "recorded, analyzed_as, slot, channel",
    [
        ("leg_agility", "finger_taps", "left_hand", "left"),
        ("finger_taps", "leg_agility", "body", "left"),
        ("finger_taps", "tremor_at_rest", "body", "global"),
    ],
    ids=["body_only_as_finger_taps", "hands_only_as_leg_agility", "hands_only_as_tremor_at_rest"],
)
def test_analyze_input_without_the_items_slots_exits_1(capsys, tmp_path, recorded, analyzed_as, slot, channel):
    # no frame carries a slot of the item's channels, so no channel is built and no file written
    path, out = _synth(tmp_path, recorded), tmp_path / "out"
    capsys.readouterr()  # drop the fixture's synth message
    code, _, err = _run(capsys, "analyze", "--in", str(path), "--item", analyzed_as, "--out", str(out))
    assert code == 1
    assert err == f"{path}: MissingLandmark: no frame carries {slot} for {analyzed_as}/{channel}\n"
    assert not list(out.rglob("*"))


def test_analyze_batch_gives_an_input_without_channels_no_directory(capsys, tmp_path):
    # both inputs are subject synth-3; the body-only one builds no finger_taps channel,
    # so it takes no directory and the real session keeps "<subject>_finger_taps"
    body_only, taps = _synth(tmp_path, "leg_agility"), _synth(tmp_path, "finger_taps")
    out = tmp_path / "out"
    capsys.readouterr()  # drop the fixtures' synth messages
    argv = ["analyze", "--in", str(body_only), str(taps), "--item", "finger_taps", "--out", str(out)]
    code, _, err = _run(capsys, *argv)
    assert code == 1
    sub = out / "synth-3_finger_taps"
    assert [p.name for p in out.iterdir()] == [sub.name]
    assert err == (
        f"{body_only}: MissingLandmark: no frame carries left_hand for finger_taps/left\n"
        f"analyzed {taps} -> {sub}\n"
    )
    assert list(json.loads((sub / "report.json").read_text())["channels"]) == ["left", "right"]


def test_usage_error_exit_2(capsys):
    assert main(["frobnicate"]) == 2


def test_analyze_single_channel_report(capsys, tmp_path, tap_fixture):
    fixture = _right_only_fixture(tmp_path, tap_fixture)
    out = tmp_path / "out"
    code, _, err = _run(capsys, "analyze", "--in", str(fixture), "--out", str(out))
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["schema"] == "walkup-report/1"
    assert list(report["channels"]) == ["right"]
    assert report["channels"]["right"]["cadence"]["peak_count"] == 10
    assert report["input_digest"].startswith("sha256:")
    assert (out / "synth-3_finger_taps_right.csv").exists()
    assert (out / "synth-3_finger_taps_right_peaks.csv").exists()
    svg = (out / "synth-3_finger_taps_right.svg").read_text()
    assert "<polyline" in svg and "<circle" in svg and "<line" in svg


def test_analyze_two_frames_gives_channels_without_extrema(capsys, tmp_path):
    # an extremum needs a neighbour on each side: two samples have none
    full, short = tmp_path / "full.jsonl", tmp_path / "short.jsonl"
    assert main(["synth", "--item", "finger_taps", "--seed", "1", "--out", str(full)]) == 0
    short.write_text("".join(full.read_text().splitlines(keepends=True)[:3]))
    out = tmp_path / "out"
    code, _, _ = _run(capsys, "analyze", "--in", str(short), "--out", str(out))
    assert code == 0
    channels = json.loads((out / "report.json").read_text())["channels"]
    assert sorted(channels) == ["left", "right"]
    for channel in channels.values():
        assert channel["signal"]["length"] == 2
        cadence = channel["cadence"]
        assert (cadence["peak_count"], cadence["mean_interval_s"], cadence["mean_amplitude"]) == (0, None, None)


def test_analyze_keeps_integer_subject_text(capsys, tmp_path, tap_fixture):
    # the header is read by the stdlib decoder, which keeps an integer above
    # 64 bits exact where orjson would round it to a float
    lines = tap_fixture.read_text().splitlines()
    header = json.loads(lines[0])
    header["subject"] = 123456789012345678901234567890
    lines[0] = json.dumps(header)
    fixture = tmp_path / "big_subject.jsonl"
    fixture.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    code, _, _ = _run(capsys, "analyze", "--in", str(fixture), "--out", str(out))
    assert code == 0
    assert json.loads((out / "report.json").read_text())["subject"] == "123456789012345678901234567890"


def _with_subject(src: Path, dst: Path, subject) -> Path:
    """A copy of the JSONL recording ``src`` whose header names ``subject``."""
    header, frames = src.read_text().split("\n", 1)
    dst.write_text(json.dumps({**json.loads(header), "subject": subject}) + "\n" + frames)
    return dst


_UNSAFE_SUBJECT_ERROR = "SchemaError: line 1: subject must hold no '/', '\\' or control character\n"


@pytest.mark.parametrize("batch", [False, True], ids=["single", "batch"])
def test_analyze_subject_cannot_lead_out_of_out(capsys, tmp_path, tap_fixture, batch):
    bad = _with_subject(tap_fixture, tmp_path / "bad.jsonl", "../escaped")
    out = tmp_path / "o" / "out"
    code, _, err = _run(capsys, "analyze", "--in", *map(str, [tap_fixture] * batch + [bad]), "--out", str(out))
    assert code == 1
    assert f"{bad}: {_UNSAFE_SUBJECT_ERROR}" in err
    assert list((tmp_path / "o").iterdir()) == [out]
    assert not list(tmp_path.rglob("escaped*"))
    assert [p.name for p in out.iterdir()] == ["synth-3_finger_taps"] * batch


@pytest.mark.parametrize("command", ["validate", "analyze"])
def test_subject_with_null_byte_fails_at_header(capsys, tmp_path, tap_fixture, command):
    bad = _with_subject(tap_fixture, tmp_path / "bad.jsonl", "x\u0000y")
    # validate once passed it, and analyze failed with "ValueError: embedded null byte"
    options = ["--out", str(tmp_path / "out")] if command == "analyze" else []
    capsys.readouterr()  # drop the fixture's synth message
    code, _, err = _run(capsys, command, "--in", str(bad), *options)
    assert (code, err) == (1, f"{bad}: {_UNSAFE_SUBJECT_ERROR}")


def test_analyze_nan_fingertip_fails_without_report(capsys, tmp_path, tap_fixture):
    bad = tmp_path / "nan_tip.jsonl"
    lines = tap_fixture.read_text().splitlines()
    frame = json.loads(lines[5])
    frame["right_hand"][8][0] = float("nan")  # index fingertip x
    lines[5] = json.dumps(frame)
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    code, _, err = _run(capsys, "analyze", "--in", str(bad), "--out", str(out))
    assert code == 1
    assert "line 6" in err and "NaN" in err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("fault", ["overflow", "swapped"])
def test_analyze_bad_frame_fails_without_report(capsys, tmp_path, tap_fixture, fault):
    lines = tap_fixture.read_text().splitlines()
    if fault == "overflow":  # index fingertip x written as 1e999, which parses to inf
        frame = json.loads(lines[5])
        frame["right_hand"][8][0] = 0.123456789
        lines[5] = json.dumps(frame).replace("0.123456789", "1e999")
    else:  # frames 4 and 5 swapped: line 6 goes back in time
        lines[4], lines[5] = lines[5], lines[4]
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    code, _, err = _run(capsys, "analyze", "--in", str(bad), "--out", str(out))
    assert code == 1
    assert "line 6" in err
    assert not (out / "report.json").exists()


def test_features_non_finite_value_is_validation_error(capsys, tmp_path):
    sig = tmp_path / "sig.csv"
    sig.write_text("t,value\n0.0,1.0\n0.1,nan\n0.2,2.0\n")
    code, stdout, err = _run(capsys, "features", "--in", str(sig))
    assert code == 1
    assert "line 3: non-finite" in err and stdout == ""


@pytest.mark.parametrize(
    "row",
    ["0.1", "0.1,abc", "0.1,", "0.1,1_0", "0.1, 2.0", "0.1,\u0661\u0662"],
    ids=["one_cell", "text", "empty", "underscore", "space", "arabic_digits"],
)
def test_features_malformed_row_is_validation_error(capsys, tmp_path, row):
    sig = tmp_path / "sig.csv"
    sig.write_text(f"t,value\n0.0,1.0\n{row}\n0.2,2.0\n")
    code, stdout, err = _run(capsys, "features", "--in", str(sig))
    assert code == 1
    assert "line 3: expected a t,value row of numbers" in err and stdout == ""


def test_features_skips_blank_lines_and_counts_them(capsys, tmp_path):
    # a blank line, even a trailing one, was a malformed row
    sig, plain = tmp_path / "sig.csv", tmp_path / "plain.csv"
    plain.write_text("t,value\n0.0,1.0\n0.1,2.0\n0.2,1.5\n")
    sig.write_text("\nt,value\n0.0,1.0\n\n0.1,2.0\n0.2,1.5\n\n")
    expected = _run(capsys, "features", "--in", str(plain))
    assert expected[0] == 0
    assert _run(capsys, "features", "--in", str(sig)) == expected
    sig.write_text("t,value\n0.0,1.0\n\n0.1,abc\n")
    code, stdout, err = _run(capsys, "features", "--in", str(sig))
    assert (code, stdout) == (1, "")
    assert "line 4: expected a t,value row of numbers" in err


def test_features_out_writes_the_stdout_table_and_the_report_features(capsys, tmp_path):
    rec, out, feats = tmp_path / "rec.jsonl", tmp_path / "out", tmp_path / "feats"
    assert main(["synth", "--item", "finger_taps", "--seed", "1", "--out", str(rec)]) == 0
    assert _run(capsys, "analyze", "--in", str(rec), "--out", str(out))[0] == 0
    right = str(out / "synth-1_finger_taps_right.csv")
    code, table, _ = _run(capsys, "features", "--in", right)
    assert code == 0
    code, stdout, err = _run(capsys, "features", "--in", right, "--out", str(feats))
    assert (code, stdout) == (0, "")
    assert err == f"wrote {feats / 'features.csv'} and features.json\n"
    assert (feats / "features.csv").read_text() == table
    report = json.loads((out / "report.json").read_text())
    assert json.loads((feats / "features.json").read_text()) == report["channels"]["right"]["features"]


def test_features_non_utf8_csv_is_io_error(capsys, tmp_path):
    sig = tmp_path / "sig.csv"
    sig.write_bytes(b"t,value\n0.0,1\xff\n")
    code, stdout, err = _run(capsys, "features", "--in", str(sig))
    assert (code, stdout) == (3, "")
    assert err.startswith(f"I/O error: cannot read {sig}: ") and "can't decode byte 0xff" in err


@pytest.mark.parametrize(
    "text, code, prefix",
    [(None, 3, "I/O error: "), ("t,value\n0.0,nan\n", 1, "WalkupError: "), ("t,x\n0.0,1.0\n", 1, "WalkupError: ")],
    ids=["missing", "non_finite", "header"],
)
def test_command_failure_prefix_follows_exit_code(capsys, tmp_path, text, code, prefix):
    # a usage error's "error: " is checked by test_malformed_config_is_usage_error_naming_key
    sig = tmp_path / "sig.csv"
    if text is not None:
        sig.write_text(text)
    got, stdout, err = _run(capsys, "features", "--in", str(sig))
    assert (got, stdout) == (code, "")
    assert err.startswith(prefix) and err.count("\n") == 1


@pytest.mark.parametrize(
    "row, reason",
    [
        ("abc,1.0", "expected a t,value row of numbers"),
        ("0_1,1.0", "expected a t,value row of numbers"),
        ("0.1,2.0,extra", "expected a t,value row of numbers"),
        ("nan,1.0", "non-finite t"),
        ("inf,1.0", "non-finite t"),
        ("-0.05,3.0", "t -0.05 is not above the previous 0.0"),
        ("0.0,3.0", "t 0.0 is not above the previous 0.0"),
    ],
    ids=["text", "underscore", "three_cells", "nan", "inf", "backwards", "repeated"],
)
def test_features_bad_t_is_validation_error(capsys, tmp_path, row, reason):
    # the t column was never read, so each of these gave a feature table
    sig = tmp_path / "sig.csv"
    sig.write_text(f"t,value\n0.0,1.0\n{row}\n0.2,2.0\n")
    code, stdout, err = _run(capsys, "features", "--in", str(sig))
    assert code == 1
    assert f"line 3: {reason}" in err and stdout == ""


def test_analyze_byte_determinism(capsys, tmp_path, tap_fixture):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert _run(capsys, "analyze", "--in", str(tap_fixture), "--out", str(out1))[0] == 0
    assert _run(capsys, "analyze", "--in", str(tap_fixture), "--out", str(out2))[0] == 0
    files1 = sorted(p.name for p in out1.iterdir())
    files2 = sorted(p.name for p in out2.iterdir())
    assert files1 == files2 and files1
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


_PARTLY_ABSENT_FILES = [
    "report.json",
    *(f"synth-11_finger_taps_{side}{kind}" for side in ("left", "right") for kind in (".csv", ".svg", "_peaks.csv")),
]


_PARTLY_ABSENT_DEFAULT = (
    "d75635441c8c9f13ca6a10be0433665689dafac85d31cdd74eaba4ec7c904952",
    "c54c253935310ecd4ca0dcd05e57f92396bd6377045377a7f69e6189359a0a91",
    "3989481cb26013e28d029a8fd519cf6d584871475b8edff33bb640f78934bef7",
    "f257648582a75560d147e2b00e67da6b34e6fe57a1f3cdab37ea32a98db9be07",
    "f733c42b9450f9d7e5a198599e43f2548b4f6f4a6e3bcdc0d765c8caa4b40cf1",
    "8dd7bb3db84f125af2e2c6d57821fe8fda96da99a7a39d1b68651eae6ecdc072",
    "58651ae4e67673388cd6877f7e0e32ba90230792371f8e746f2710613c42cd4d",
)


def _seed_11_fixture(tmp_path, partly_absent: bool) -> Path:
    """The finger-tap fixture of scripts/make_fixtures.py (seed 11); partly
    absent, without its right hand in frames 100-109 and its left hand in
    every other 7th frame."""
    path = tmp_path / ("partly_absent.jsonl" if partly_absent else "seed_11.jsonl")
    assert main(["synth", "--item", "finger_taps", "--seed", "11", "--out", str(path)]) == 0
    if not partly_absent:
        return path
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines[1:]):
        frame = json.loads(line)
        if 100 <= i <= 109:
            del frame["right_hand"]
        elif i % 7 == 0:
            del frame["left_hand"]
        lines[i + 1] = json.dumps(frame)
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize(
    "config, digests",
    [
        (None, _PARTLY_ABSENT_DEFAULT),
        # a null resample_fps is the default: the same bytes
        ({"resample_fps": None}, _PARTLY_ABSENT_DEFAULT),
        ({"resample_fps": 45, "gap_fill": "hold_last"}, (
            "d933f42f947fb1f5461b624f336556c085df3e1018a61789fdd90d657c93de64",
            "18b1c724aa8f22d0a632930ae75bd5cb9bd39fbfefdea25922b553a84ba2dda8",
            "132f80bdbe6adf4b35f3a5c28c2e8e6aea239ba1e34ab834814fac160d7cec90",
            "b45b219a9ad6bb9276ee6c585c2f4226ad26710a0d59c64c055dbcf3105fae60",
            "617eb18abf800737c235b01048e602b16d70cd2d5deebd73f447748defda6e1b",
            "94f0bff1542965d596125fffbc29760fd87226b215b137ecb773cedbbdfcba87",
            "f82a6acca5c652a2ba13339f39de523d18581ef7ba982a38cbb6d6a3dc250c15",
        )),
        ({"gap_fill": "drop"}, (
            "fe49c48416c557a0ab9325e53321d5b82eb2dec2d8041de5bc978758582623aa",
            "562f015c2ce410d24b304409084ee4342427d3e027a23bb677df16d957262ae2",
            "f7ce3ceb7db3196d329b152408ddd4679fe05e7c9e11af3bbda286ef49a62ebd",
            "39adc4d74d2ca5354272368bd1f35c0dad18756c8b5ca5b36a373769662cc1aa",
            "57ca04741c04bf573271b02128cf9f67f615aa841e54077a07d17760d4022f7d",
            "95941706db1959534528993e0048cf3b91d026b4d20c9fa4998ff8a978c53205",
            "58651ae4e67673388cd6877f7e0e32ba90230792371f8e746f2710613c42cd4d",
        )),
        # grid points fall between a frame that carries a hand and one that does not
        ({"resample_fps": 90, "gap_fill": "drop"}, (
            "e0c21749e9152568a25009a301e2f7e2fb4ca2826bb30f11336f52b2d0643557",
            "87ead43d9756ac66f2047cd043bdd6d9efad663f862001846abeff2204582900",
            "2e8ddf204bb310e9c0538dbf79e201e33ededf9d4e444883fb8069ac3c83a893",
            "39adc4d74d2ca5354272368bd1f35c0dad18756c8b5ca5b36a373769662cc1aa",
            "7e50bdc2c57b745ba1dd0c79eed31f7eb24a860cf044e6f2ccd24fd6249ebe76",
            "4e265706fcb65a325bb0f8552870a99afb87c2b0f1d8152894b5ecdb1178860e",
            "58651ae4e67673388cd6877f7e0e32ba90230792371f8e746f2710613c42cd4d",
        )),
    ],
    ids=["default", "null_fps", "hold_45", "drop", "drop_90"],
)
def test_partly_absent_input_outputs_are_pinned(capsys, tmp_path, config, digests):
    # SHA-256 of every file analyze writes for the partly absent seed-11 fixture
    path = _seed_11_fixture(tmp_path, partly_absent=True)
    options = []
    if config:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        options = ["--config", str(tmp_path / "cfg.json")]
    out = tmp_path / "out"
    assert _run(capsys, "analyze", "--in", str(path), "--out", str(out), *options)[0] == 0
    assert sorted(p.name for p in out.iterdir()) == _PARTLY_ABSENT_FILES
    assert tuple(hashlib.sha256((out / name).read_bytes()).hexdigest() for name in _PARTLY_ABSENT_FILES) == digests


def _cadence_from_files(signal_csv: Path, peaks_csv: Path) -> dict:
    """Every ``CadenceStats`` field, reduced from the cycle table that
    ``_peaks.csv`` exports (and, for ``signal_mean``, from the signal CSV)."""
    with open(peaks_csv, newline="") as fh:
        rows = [row for row in csv.DictReader(fh) if row["kind"] == "peak"]
    with open(signal_csv, newline="") as fh:
        values = np.array([float(row["value"]) for row in csv.DictReader(fh)])
    pairs = [[float(row[k]) for k in ("rise", "fall") if row[k]] for row in rows]
    diffs = np.array([d for pair in pairs for d in pair])
    amplitudes = np.array([float(np.mean(pair)) for pair in pairs if pair])
    intervals = np.array([float(row["interval_s"]) for row in rows[1:]])
    return {
        "signal_mean": float(values.mean()),
        "peak_count": len(rows),
        "mean_amplitude": float(np.mean(diffs)) if len(diffs) else None,
        "mean_interval_s": float(intervals.mean()) if len(intervals) else None,
        "interval_slope_s_per_cycle": linear_trend(intervals, "slope")[0] if len(intervals) >= 2 else None,
        "amplitude_slope": linear_trend(amplitudes, "slope")[0] if len(amplitudes) >= 2 else None,
    }


@pytest.mark.parametrize("partly_absent", [False, True], ids=["whole", "partly_absent"])
def test_peaks_csv_reduces_to_the_report_cadence(capsys, tmp_path, partly_absent):
    path = _seed_11_fixture(tmp_path, partly_absent)
    out = tmp_path / "out"
    assert _run(capsys, "analyze", "--in", str(path), "--out", str(out))[0] == 0
    report = json.loads((out / "report.json").read_text())
    assert sorted(report["channels"]) == ["left", "right"]
    for channel, payload in report["channels"].items():
        base = out / f"synth-11_finger_taps_{channel}"
        got = _cadence_from_files(base.with_suffix(".csv"), base.with_name(base.name + "_peaks.csv"))
        assert got == payload["cadence"], channel
        assert got["peak_count"] > 2 and None not in got.values()


def test_config_hash_changes_with_override(capsys, tmp_path):
    fixture = tmp_path / "hm.jsonl"
    main(["synth", "--item", "hand_movement", "--out", str(fixture), "--seed", "1"])
    cfg_path = tmp_path / "palm.json"
    cfg_path.write_text(json.dumps({"normalize_palm": True}))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    _run(capsys, "analyze", "--in", str(fixture), "--out", str(out1))
    _run(capsys, "analyze", "--in", str(fixture), "--out", str(out2), "--config", str(cfg_path))
    h1 = json.loads((out1 / "report.json").read_text())["config_hash"]
    h2 = json.loads((out2 / "report.json").read_text())["config_hash"]
    assert h1 != h2


def test_config_file_round_trip(capsys, tmp_path, tap_fixture):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"peaks": {"min_prominence": 0.3}}))
    out = tmp_path / "out"
    code, _, _ = _run(capsys, "analyze", "--in", str(tap_fixture), "--out", str(out),
                      "--config", str(cfg_path))
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["peaks"]["min_prominence"] == 0.3


@pytest.mark.parametrize(
    "config, key",
    [
        ({"tremor": {"bogus": 1}}, "'bogus'"),
        ({"tremor": "abc"}, "'tremor'"),
        ({"min_visibility": [1]}, "'min_visibility'"),
        ({"peaks": {"min_prominence": "x"}}, "'peaks.min_prominence'"),
        ({"resample_fps": math.inf}, "'resample_fps'"),
        ({"tremor": {"window_s": math.inf}}, "'tremor.window_s'"),
        ({"peaks": {"min_separation_s": math.inf}}, "'peaks.min_separation_s'"),
        ({"tremor": {"rms_threshold": math.nan}}, "'tremor.rms_threshold'"),
    ],
    ids=[
        "unknown_nested_key", "section_not_object", "number_is_list", "nested_number_is_string",
        "resample_fps_inf", "window_inf", "separation_inf", "rms_threshold_nan",
    ],
)
def test_malformed_config_is_usage_error_naming_key(capsys, tmp_path, tap_fixture, config, key):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    code, _, err = _run(capsys, "analyze", "--in", str(tap_fixture), "--out", str(out),
                        "--config", str(cfg_path))
    assert code == 2
    last = err.splitlines()[-1]  # after the fixture's own "wrote ..." line
    assert last.startswith("error: ") and key in last
    assert not out.exists()


@pytest.mark.parametrize(
    "config, message",
    [
        ({"min_visibility": 2}, "min_visibility must lie in [0, 1]"),
        ({"resample_fps": -1}, "resample_fps must be finite and positive"),
        ({"tremor": {"highpass_cutoff_hz": 0}}, "highpass_cutoff_hz must be positive"),
        ({"tremor": {"rms_threshold": -0.1}}, "rms_threshold must be positive"),
        ({"tremor": {"window_s": 0}}, "window_s must be positive"),
        ({"tremor": {"overlap": 1}}, "overlap must lie in [0, 1)"),
        ({"peaks": {"min_prominence": 0}}, "min_prominence must lie in (0, 1]"),
        ({"peaks": {"min_separation_s": -1}}, "min_separation_s must be non-negative"),
        ([1], "config must be a JSON object, got [1]"),
    ],
    ids=[
        "min_visibility", "resample_fps", "highpass_cutoff", "rms_threshold", "window_s", "overlap",
        "min_prominence", "min_separation", "not_object",
    ],
)
def test_bad_ingest_config_fails_once_at_load(capsys, tmp_path, tap_fixture, config, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    capsys.readouterr()  # the fixture's own "wrote ..." line
    code, _, err = _run(capsys, "analyze", "--in", str(tap_fixture), str(tap_fixture),
                        "--out", str(out), "--config", str(cfg_path))
    assert (code, err) == (2, f"error: {message}\n")
    assert not out.exists()


def test_synth_non_finite_amplitude_is_usage_error(capsys, tmp_path):
    # it used to write a file that validate rejects at its first frame
    path = tmp_path / "nan.jsonl"
    code, _, err = _run(capsys, "synth", "--item", "finger_taps", "--amplitude", "nan", "--out", str(path))
    assert (code, err) == (2, "error: base_amplitude must be finite, got nan\n")
    assert not path.exists()


_EVERY_SYNTH_FLAG = {
    "--seed": ("seed", 3), "--duration": ("duration_s", 4.0), "--fps": ("fps", 50.0),
    "--frequency": ("frequency_hz", 1.5), "--amplitude": ("base_amplitude", 12.0),
    "--decrement": ("amplitude_decrement_per_cycle", 0.5),
    "--interval-growth": ("interval_growth_s_per_cycle", 0.02),
    "--tremor-amplitude": ("tremor_amplitude", 0.01), "--tremor-freq": ("tremor_freq_hz", 6.0),
    "--noise-std": ("noise_std", 0.001),
}


@pytest.mark.parametrize("every_flag", [False, True], ids=["no_flag", "every_flag"])
@pytest.mark.parametrize("item", list(UpdrsItem), ids=lambda i: i.value)
def test_synth_sets_only_the_fields_given(capsys, tmp_path, item, every_flag):
    # the CLI kept its own copy of each default, and its own per-item amplitude
    flags = _EVERY_SYNTH_FLAG if every_flag else {}
    argv = [arg for flag, (_, value) in flags.items() for arg in (flag, str(value))]
    code, _, _ = _run(capsys, "synth", "--item", item.value, "--out", str(tmp_path / "cli.jsonl"), *argv)
    assert code == 0
    scenario = MotionScenario(item=item, **dict(flags.values()))
    write_sequence(generate(scenario), tmp_path / "lib.jsonl")
    assert (tmp_path / "cli.jsonl").read_bytes() == (tmp_path / "lib.jsonl").read_bytes()


def test_unexpected_failure_is_named_then_raised(capsys, monkeypatch, tmp_path):
    # only a WalkupError, an OSError or a ValueError becomes an exit code
    def fail(path, read, cfg):
        raise RuntimeError("not a walkup failure")

    monkeypatch.setattr(cli, "_render_one", fail)
    with pytest.raises(RuntimeError, match="not a walkup failure"):
        main(["analyze", "--in", "in.jsonl", "--out", str(tmp_path / "out")])
    assert capsys.readouterr().err == "in.jsonl: RuntimeError: not a walkup failure\n"


def test_signals_command_is_gone(capsys, tmp_path, tap_fixture):
    # its files were a subset of analyze's
    code, _, err = _run(capsys, "signals", "--in", str(tap_fixture), "--out", str(tmp_path / "sig"))
    assert code == 2
    assert "invalid choice: 'signals'" in err
    assert not (tmp_path / "sig").exists()


def test_features_row_count_matches_default_set(capsys, tmp_path, tap_fixture):
    out = tmp_path / "sig"
    assert _run(capsys, "analyze", "--in", str(tap_fixture), "--out", str(out))[0] == 0
    code, stdout, _ = _run(
        capsys, "features", "--in", str(out / "synth-3_finger_taps_right.csv")
    )
    assert code == 0
    rows = stdout.strip().splitlines()
    assert rows[0] == "feature_id,value,reason"
    assert len(rows) - 1 == 43


def test_features_unknown_spec_usage_error(capsys, tmp_path, tap_fixture):
    out = tmp_path / "sig"
    assert _run(capsys, "analyze", "--in", str(tap_fixture), "--out", str(out))[0] == 0
    code, _, err = _run(
        capsys, "features", "--in", str(out / "synth-3_finger_taps_right.csv"),
        "--spec", "everything",
    )
    assert code == 2


def test_report_merges_channels(capsys, tmp_path, tap_fixture):
    out = tmp_path / "out"
    _run(capsys, "analyze", "--in", str(tap_fixture), "--out", str(out))
    code, stdout, _ = _run(capsys, "report", "--in", str(out / "report.json"))
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0].startswith("subject,item,channel")
    assert len(lines) == 3  # header + left + right
    assert lines[1].split(",")[:3] == ["synth-3", "finger_taps", "left"]


def test_report_quotes_a_cell_that_holds_a_comma_or_quote(capsys, tmp_path, tap_fixture):
    path = _with_subject(tap_fixture, tmp_path / "doe.jsonl", 'Doe, "J"')
    out, summary = tmp_path / "out", tmp_path / "summary.csv"
    assert _run(capsys, "analyze", "--in", str(path), "--out", str(out))[0] == 0
    assert _run(capsys, "report", "--in", str(out / "report.json"), "--out", str(summary))[0] == 0
    with open(summary, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert [len(row) for row in rows] == [10, 10, 10]
    assert [row[:3] for row in rows[1:]] == [['Doe, "J"', "finger_taps", channel] for channel in ("left", "right")]


def test_report_batch_runs_inputs_in_order(capsys, tmp_path, tap_fixture):
    out = tmp_path / "out"
    _run(capsys, "analyze", "--in", str(tap_fixture), "--out", str(out))
    missing, bad = tmp_path / "missing.json", tmp_path / "bad.json"
    bad.write_text("not json")
    code, stdout, err = _run(capsys, "report", "--in", str(out / "report.json"), str(missing), str(bad))
    # the missing file's I/O error outranks the third input's, which still runs
    assert (code, stdout) == (3, "")
    first, second = err.splitlines()
    assert first.startswith(f"{missing}: FileNotFoundError: ")
    assert second.startswith(f"{bad}: WalkupError: not JSON: ")


def test_analyze_multiple_inputs(capsys, tmp_path):
    fixtures = []
    for item, seed in (("finger_taps", 1), ("leg_agility", 2)):
        p = tmp_path / f"{item}.jsonl"
        main(["synth", "--item", item, "--out", str(p), "--seed", str(seed)])
        fixtures.append(str(p))
    out = tmp_path / "multi"
    code, _, _ = _run(capsys, "analyze", "--in", *fixtures, "--out", str(out))
    assert code == 0
    subdirs = sorted(p.name for p in out.iterdir())
    assert subdirs == ["synth-1_finger_taps", "synth-2_leg_agility"]
    for sub in subdirs:
        assert (out / sub / "report.json").exists()


def test_analyze_batch_reports_every_failure(capsys, tmp_path):
    fixtures = []
    for item, seed in (("finger_taps", 1), ("hand_movement", 2), ("leg_agility", 3)):
        p = tmp_path / f"{item}.jsonl"
        main(["synth", "--item", item, "--out", str(p), "--seed", str(seed)])
        fixtures.append(p)
    lines = fixtures[1].read_text().splitlines()
    lines[4] = lines[4][: len(lines[4]) // 2]  # a truncated frame
    fixtures[1].write_text("\n".join(lines) + "\n")
    out = tmp_path / "multi"
    code, _, err = _run(capsys, "analyze", "--in", *map(str, fixtures), "--out", str(out))
    assert code == 1
    assert f"{fixtures[1]}: SchemaError: " in err
    assert (out / "synth-1_finger_taps" / "report.json").exists()
    assert (out / "synth-3_leg_agility" / "report.json").exists()
    assert not (out / "synth-2_hand_movement").exists()


def test_analyze_batch_keeps_a_repeated_stem_apart(capsys, tmp_path, tap_fixture):
    # both inputs are subject synth-3, item finger_taps, so the second needs a directory of its own
    copy = tmp_path / "copy.jsonl"
    copy.write_bytes(tap_fixture.read_bytes())
    out = tmp_path / "out"
    code, _, err = _run(capsys, "analyze", "--in", str(tap_fixture), str(copy), "--out", str(out))
    assert code == 0
    first, second = out / "synth-3_finger_taps", out / "synth-3_finger_taps-2"
    assert sorted(p.name for p in out.iterdir()) == [first.name, second.name]
    files = sorted(p.name for p in first.iterdir())
    assert len(files) == 7 and files == sorted(p.name for p in second.iterdir())
    for name in files:
        assert (first / name).read_bytes() == (second / name).read_bytes()
    assert f"{copy}: {first} holds {tap_fixture}, so this input goes to {second}\n" in err


def test_analyze_batch_worst_exit_code_wins(capsys, tmp_path, tap_fixture):
    corrupt = tmp_path / "corrupt.jsonl"
    corrupt.write_text("not json\n")
    missing = tmp_path / "missing.jsonl"
    code, _, err = _run(
        capsys, "analyze", "--in", str(corrupt), str(tap_fixture), str(missing), "--out", str(tmp_path / "o")
    )
    assert code == 3
    assert f"{corrupt}: SchemaError: " in err and f"{missing}: FileNotFoundError: " in err


def test_analyze_batch_runs_inputs_in_order(capsys, tmp_path, tap_fixture):
    good, swapped, missing = (tmp_path / f"{name}.jsonl" for name in "abc")
    lines = tap_fixture.read_text().splitlines()
    good.write_text("\n".join(lines) + "\n")
    lines[4], lines[5] = lines[5], lines[4]  # line 6 goes back in time
    swapped.write_text("\n".join(lines) + "\n")
    capsys.readouterr()  # drop the fixture's synth message
    out = tmp_path / "out"
    code, _, err = _run(capsys, "analyze", "--in", str(good), str(swapped), str(missing), "--out", str(out))
    assert code == 3
    first, second, third = err.splitlines()
    assert first == f"analyzed {good} -> {out / 'synth-3_finger_taps'}"
    assert second == f"{swapped}: SchemaError: line 6: t must increase from frame to frame"
    assert third.startswith(f"{missing}: FileNotFoundError: ")


def test_analyze_imports_no_scipy(tmp_path):
    """The whole analyze path, every item, with any scipy import made to fail.

    Runs in a fresh interpreter, because this test process imports scipy."""
    script = f"""
import json, sys
sys.modules["scipy"] = None
from walkup.cli import main
from walkup.core import UpdrsItem
codes = []
for item in UpdrsItem:
    path = {str(tmp_path)!r} + "/" + item.value + ".jsonl"
    codes.append(main(["synth", "--item", item.value, "--out", path, "--tremor-amplitude", "0.01"]))
    codes.append(main(["analyze", "--in", path, "--out", {str(tmp_path)!r} + "/out_" + item.value]))
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy" and sys.modules[m] is not None)
print(json.dumps({{"codes": codes, "loaded": loaded}}))
"""
    src = str(Path(walkup.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0] * 12
    assert result["loaded"] == []


def _synth_batch(tmp_path, count: int) -> list[Path]:
    """``count`` synth recordings, each of its own item and subject."""
    paths = []
    for seed, item in enumerate(("finger_taps", "hand_movement", "leg_agility", "foot_taps")[:count], start=1):
        path = tmp_path / f"{item}.jsonl"
        assert main(["synth", "--item", item, "--out", str(path), "--seed", str(seed)]) == 0
        paths.append(path)
    return paths


def _cpus(monkeypatch, count: int) -> None:
    """Make ``analyze`` see ``count`` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def test_analyze_batch_same_bytes_in_workers_and_inline(capsys, tmp_path, monkeypatch):
    import concurrent.futures

    paths = _synth_batch(tmp_path, 4)
    lines = paths[1].read_text().splitlines()
    lines[4] = lines[4][: len(lines[4]) // 2]  # a truncated frame
    paths[1].write_text("\n".join(lines) + "\n")
    # a missing file, and the first input again, which goes to "<stem>-2"
    inputs = [*map(str, paths), str(tmp_path / "missing.jsonl"), str(paths[0])]
    capsys.readouterr()  # drop the synth messages

    submitted = []

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def submit(self, fn, path):
            submitted.append(path)
            return super().submit(fn, path)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    runs = []
    for cpus in (3, 1):  # the parent and two workers, then the parent alone
        _cpus(monkeypatch, cpus)
        out = tmp_path / f"out{cpus}"
        code, _, err = _run(capsys, "analyze", "--in", *inputs, "--out", str(out))
        files = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
        runs.append((code, err.replace(str(out), "<out>"), files))
    assert submitted == [path for i, path in enumerate(inputs) if i % 3]
    assert runs[0] == runs[1]
    code, err, files = runs[0]
    assert code == 3
    lines = err.splitlines()
    assert len(lines) == 7
    assert lines[1].startswith(f"{paths[1]}: SchemaError: line 5: ")
    assert lines[4].startswith(f"{inputs[4]}: FileNotFoundError: ")
    assert lines[6] == f"analyzed {paths[0]} -> <out>/synth-1_finger_taps-2"
    assert len(files) == 4 * 7


@pytest.mark.parametrize("fails", [False, True], ids=["ok", "failing"])
def test_analyze_batch_leaves_no_worker_running(capsys, tmp_path, monkeypatch, fails):
    import multiprocessing

    paths = _synth_batch(tmp_path, 3)
    if fails:
        paths[1].write_text("not json\n")
    _cpus(monkeypatch, 2)
    code, _, _ = _run(capsys, "analyze", "--in", *map(str, paths), "--out", str(tmp_path / "out"))
    assert code == (1 if fails else 0)
    assert multiprocessing.active_children() == []


def test_single_input_analyze_imports_no_process_pool(tmp_path):
    """Runs in a fresh interpreter, because this test process may have loaded them."""
    path = tmp_path / "tap.jsonl"
    script = f"""
import json, sys
from walkup.cli import main
codes = [main(["synth", "--item", "finger_taps", "--out", {str(path)!r}]),
         main(["analyze", "--in", {str(path)!r}, "--out", {str(tmp_path / "out")!r}])]
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("multiprocessing", "concurrent"))
print(json.dumps({{"codes": codes, "loaded": loaded}}))
"""
    src = str(Path(walkup.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [0, 0], "loaded": []}


def test_analyze_tremor_cutoff_too_low_names_cutoff_and_fps(capsys, tmp_path):
    fixture = tmp_path / "tremor.jsonl"
    main(["synth", "--item", "tremor_at_rest", "--out", str(fixture), "--tremor-amplitude", "0.02"])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"tremor": {"highpass_cutoff_hz": 1e-9}}))
    code, _, err = _run(
        capsys, "analyze", "--in", str(fixture), "--out", str(tmp_path / "out"), "--config", str(cfg_path)
    )
    assert code == 2
    assert "highpass_cutoff_hz 1e-09 Hz" in err and "30.0 fps" in err


@pytest.mark.parametrize(
    "text, problem",
    [
        ('{"channels": {"left": {}}}', "report has no 'schema' field"),
        ('{"schema": "walkup-report/1", "channels": {"left": {}}}', "channel 'left' has no 'signal' field"),
        ("[1, 2]", "report has no 'schema' field"),
        ("not json", "not JSON: "),
        ('{"schema": "walkup-report/0", "channels": {}}', "schema 'walkup-report/0' is not 'walkup-report/1'"),
        ('{"schema": "walkup-report/1", "channels": [1]}', "report channels must be an object"),
    ],
    ids=["no_schema", "no_signal", "list", "not_json", "wrong_schema", "channels_not_object"],
)
def test_report_malformed_input_is_validation_error(capsys, tmp_path, text, problem):
    path = tmp_path / "report.json"
    path.write_text(text)
    code, out, err = _run(capsys, "report", "--in", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"{path}: WalkupError: {problem}")


# ── missing poses: fill_gaps repairs absent frames ───────────────────


def _rewrite_frames(src: Path, dst: Path, edit) -> Path:
    """Copy a JSONL recording, passing each frame object (line 2 on) and its
    0-based index through ``edit``."""
    lines = src.read_text().splitlines()
    frames = [json.loads(line) for line in lines[1:]]
    for i, frame in enumerate(frames):
        edit(i, frame)
    dst.write_text("\n".join([lines[0], *map(json.dumps, frames)]) + "\n")
    return dst


def _analyze_with(capsys, tmp_path, path: Path, gap_fill: str, name: str):
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps({"gap_fill": gap_fill}))
    out = tmp_path / name
    code, _, err = _run(capsys, "analyze", "--in", str(path), "--out", str(out), "--config", str(cfg_path))
    report = out / "report.json"
    return code, err, json.loads(report.read_text()) if report.exists() else None


def test_analyze_tremor_survives_one_frame_without_body(capsys, tmp_path):
    # line 51 (frame 49) carries a left hand instead of the body
    clean = tmp_path / "clean.jsonl"
    main(["synth", "--item", "tremor_at_rest", "--out", str(clean)])

    def swap(i, frame):
        if i == 49:
            del frame["body"]
            frame["left_hand"] = [[0.5, 0.5, 0.0, 1.0]] * 21

    dropped = _rewrite_frames(clean, tmp_path / "dropped.jsonl", swap)
    for gap_fill in ("linear_interp", "hold_last"):
        code, err, report = _analyze_with(capsys, tmp_path, dropped, gap_fill, gap_fill)
        assert code == 0, err
        assert list(report["channels"]) == ["global"]
    code, err, report = _analyze_with(capsys, tmp_path, dropped, "drop", "drop")
    assert code == 1
    assert "MissingLandmark: no landmark visible across the whole sequence" in err
    assert report is None


def test_analyze_repairs_a_dropped_hand_unless_drop(capsys, tmp_path, tap_fixture):
    def drop_right(i, frame):
        if 100 <= i < 110:
            del frame["right_hand"]

    dropped = _rewrite_frames(tap_fixture, tmp_path / "dropped.jsonl", drop_right)
    lengths = {}
    for gap_fill in ("linear_interp", "hold_last", "drop"):
        code, err, report = _analyze_with(capsys, tmp_path, dropped, gap_fill, gap_fill)
        assert code == 0, err
        assert report["channels"]["left"]["signal"]["length"] == 300
        lengths[gap_fill] = report["channels"]["right"]["signal"]["length"]
    assert lengths == {"linear_interp": 300, "hold_last": 300, "drop": 290}


def test_analyze_dropped_hand_frame_prints_no_warning(tmp_path):
    """An absent hand row is NaN under drop; the alternating-hands angle skips
    it with nothing on stderr but the analyzed line.

    Runs in a fresh interpreter, where Python's default filters print a
    RuntimeWarning that package code or numpy raises."""
    clean = tmp_path / "clean.jsonl"
    assert main(["synth", "--item", "alternating_hands", "--duration", "3", "--out", str(clean)]) == 0

    def drop_right(i, frame):
        if i == 5:
            del frame["right_hand"]

    dropped = _rewrite_frames(clean, tmp_path / "dropped.jsonl", drop_right)
    cfg, out = tmp_path / "drop.json", tmp_path / "out"
    cfg.write_text(json.dumps({"gap_fill": "drop"}))
    src = str(Path(walkup.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    env.pop("PYTHONWARNINGS", None)
    argv = ["analyze", "--in", str(dropped), "--out", str(out), "--config", str(cfg)]
    proc = subprocess.run([sys.executable, "-m", "walkup.cli", *argv], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == f"analyzed {dropped} -> {out}\n"
    assert json.loads((out / "report.json").read_text())["channels"]["right"]["signal"]["length"] == 89


def test_analyze_names_files_by_stem_without_subject(capsys, tmp_path, tap_fixture):
    # no subject in the header: the file stem stands in for it
    lines = tap_fixture.read_text().splitlines()
    header = json.loads(lines[0])
    del header["subject"]
    visit = tmp_path / "visit.jsonl"
    visit.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
    code, _, _ = _run(capsys, "analyze", "--in", str(visit), "--out", str(tmp_path / "out"))
    assert code == 0
    signal_csvs = sorted(p.name for p in (tmp_path / "out").glob("*.csv") if not p.name.endswith("_peaks.csv"))
    assert signal_csvs == ["visit_finger_taps_left.csv", "visit_finger_taps_right.csv"]
