import dataclasses
import hashlib
import json
import math
import os
import sys
import threading
import time

import numpy as np
import pytest

from tests.conftest import hand_pose, sequence
from walkup.core import UpdrsItem
from walkup.ingest import GapFill, IngestConfig
from walkup.kinematics import Plane
from walkup.peaks import PeakConfig, overlay_csv
from walkup.report import AnalysisConfig, analyze, atomic_write, file_digest, input_digest, plot_svg, report_json
from walkup.signals import TremorConfig, signal_csv
from walkup.synth import MotionScenario, generate


def test_config_hash_stable_and_sensitive():
    base = AnalysisConfig()
    assert base.config_hash == AnalysisConfig().config_hash
    for variant in (
        AnalysisConfig(min_visibility=0.6),
        AnalysisConfig(gap_fill=GapFill.HOLD_LAST),
        AnalysisConfig(resample_fps=25.0),
        AnalysisConfig(plane=Plane.FULL_3D),
        AnalysisConfig(normalize_palm=True),
        AnalysisConfig(tremor=TremorConfig(rms_threshold=0.01)),
        AnalysisConfig(peaks=PeakConfig(min_prominence=0.3)),
    ):
        assert variant.config_hash != base.config_hash


def test_config_dict_round_trip():
    cfg = AnalysisConfig(resample_fps=20.0, normalize_palm=True,
                         peaks=PeakConfig(min_prominence=0.4))
    back = AnalysisConfig.from_dict(cfg.to_dict())
    assert back == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        AnalysisConfig.from_dict({"min_visability": 0.5})


@pytest.mark.parametrize(
    "data, key",
    [
        ({"normalize_palm": "false"}, "normalize_palm"),
        ({"normalize_palm": 0}, "normalize_palm"),
        ({"feature_set": "none"}, "feature_set"),
        ({"gap_fill": ["drop"]}, "gap_fill"),
        ({"resample_fps": True}, "resample_fps"),
        ({"min_visibility": 10**400}, "min_visibility"),
    ],
    ids=["palm_string", "palm_number", "feature_set_none", "gap_fill_list", "fps_bool", "huge_int"],
)
def test_config_rejects_bad_values_naming_key(data, key):
    # bool("false") is True and an unknown feature_set computed the default set,
    # both quietly; float() of a huge integer raised OverflowError
    with pytest.raises(ValueError, match=key):
        AnalysisConfig.from_dict(data)


def test_config_accepts_json_booleans():
    assert AnalysisConfig.from_dict({"normalize_palm": False}) == AnalysisConfig()
    assert AnalysisConfig.from_dict({"normalize_palm": True}).normalize_palm is True


@pytest.mark.parametrize(
    "kind, value, match",
    [
        (IngestConfig, {"gap_fill": "drop"}, "gap_fill"),
        (AnalysisConfig, {"gap_fill": "drop"}, "gap_fill"),
        (AnalysisConfig, {"plane": "2d"}, "plane"),
        (AnalysisConfig, {"normalize_palm": "false"}, "normalize_palm"),
        (AnalysisConfig, {"feature_set": "none"}, "feature_set 'none'"),
        (AnalysisConfig, {"tremor": {"window_s": 1.0}}, "tremor must be a TremorConfig"),
        (AnalysisConfig, {"peaks": None}, "peaks must be a PeakConfig"),
        (AnalysisConfig, {"min_visibility": True}, "min_visibility"),
        (AnalysisConfig, {"min_visibility": "0.5"}, "min_visibility"),
        (PeakConfig, {"min_prominence": "0.5"}, "min_prominence"),
        (TremorConfig, {"window_s": True}, "window_s"),
        (PeakConfig, {"min_separation_s": math.inf}, "min_separation_s must be finite"),
    ],
    ids=["ingest_gap_fill", "gap_fill_string", "plane_string", "palm_string", "feature_set_none",
         "tremor_dict", "peaks_none", "visibility_bool", "visibility_string", "prominence_string",
         "window_bool", "separation_inf"],
)
def test_config_rejects_bad_values_when_built(kind, value, match):
    # the strings built silently and then ran another setting under their own
    # config_hash ("drop" ran hold_last, "2d" the depth plane), and an
    # unknown feature_set failed only once analyze ran
    with pytest.raises(ValueError, match=match):
        kind(**value)


@pytest.mark.parametrize("key, value", [("min_visibility", 1), ("resample_fps", 30)])
def test_config_int_is_stored_and_hashed_as_its_float(key, value):
    # a Python int hashed apart from the same number read from JSON
    built = AnalysisConfig(**{key: value})
    assert type(getattr(built, key)) is float
    assert built.config_hash == AnalysisConfig.from_dict({key: value}).config_hash


def test_analysis_config_is_an_ingest_config():
    cfg = AnalysisConfig(resample_fps=20.0, min_visibility=0.6, gap_fill=GapFill.DROP)
    assert isinstance(cfg, IngestConfig)
    assert [f.name for f in dataclasses.fields(cfg)][:3] == ["resample_fps", "min_visibility", "gap_fill"]


def test_analyze_requires_item():
    with pytest.raises(ValueError):
        analyze(sequence([0.0], right_hand=[hand_pose()]))


def test_analyze_full_pipeline_report_fields():
    sc = MotionScenario(item=UpdrsItem.FINGER_TAPS, duration_s=5.0, seed=8)
    report = analyze(generate(sc), AnalysisConfig(), digest="sha256:dummy")
    assert report.item is UpdrsItem.FINGER_TAPS
    assert len(report.channels) == 2
    text = report_json(report)
    payload = json.loads(text)
    assert payload["schema"] == "walkup-report/1"
    assert payload["input_digest"] == "sha256:dummy"
    assert payload["config_hash"] == AnalysisConfig().config_hash
    right = payload["channels"]["right"]
    assert right["signal"]["length"] == 150
    assert right["signal"]["min"] >= 0.0
    assert right["cadence"]["peak_count"] == 5
    assert len(right["features"]["values"]) == 43


def test_input_digest_of_bytes_is_file_digest_of_their_file(tmp_path):
    # file_digest hashes in 1 MB reads; a traced replay hashes the bytes it holds
    data = bytes(range(256)) * 10_000 + b"tail"
    path = tmp_path / "input.jsonl"
    path.write_bytes(data)
    assert input_digest(data) == file_digest(path) == "sha256:" + hashlib.sha256(data).hexdigest()


def test_analyze_with_resample_and_gap_fill():
    sc = MotionScenario(item=UpdrsItem.FINGER_TAPS, duration_s=3.0, seed=8)
    seq = generate(sc)
    # hide one landmark in one frame; the pipeline should repair it
    hands = seq.poses["right_hand"].copy()
    hands[10, 8, 3] = 0.1
    seq = dataclasses.replace(seq, poses={**seq.poses, "right_hand": hands})
    cfg = AnalysisConfig(resample_fps=15.0, min_visibility=0.5, gap_fill=GapFill.LINEAR_INTERP)
    report = analyze(seq, cfg)
    right = [ch for ch in report.channels if ch.series.channel.value == "right"][0]
    assert len(right.series) == 45  # 3 s at 15 fps, no gaps after repair
    assert not np.isnan(right.series.values).any()


def test_report_json_is_nan_free_and_sorted():
    # constant series produce NaN features; JSON must map them to null + reason
    seq = sequence(item=UpdrsItem.FINGER_TAPS, subject_id="s", right_hand=[hand_pose()] * 90)
    payload = report_json(analyze(seq, AnalysisConfig()))
    assert "NaN" not in payload
    data = json.loads(payload)
    features = data["channels"]["right"]["features"]
    assert any(v is None for v in features["values"].values())
    for fid, value in features["values"].items():
        assert (value is None) == (fid in features["reasons"])


def test_plot_svg_elements_and_determinism():
    sc = MotionScenario(item=UpdrsItem.FINGER_TAPS, duration_s=3.0, seed=8)
    report = analyze(generate(sc), AnalysisConfig())
    ch = report.channels[0]
    svg1 = plot_svg(ch.series, ch.peaks, ch.troughs)
    svg2 = plot_svg(ch.series, ch.peaks, ch.troughs)
    assert svg1 == svg2
    assert svg1.count("<circle") == len(ch.peaks) + len(ch.troughs)
    assert "<polyline" in svg1 and "<line" in svg1


@pytest.mark.parametrize(
    "channel, digests",
    [
        (
            "fixture",
            (
                "d8264a41d83621f1d0b31e2756e441088a4017e8291c226cd76175032360ead6",
                "89fcfedb6043853d8c059ed0efc46bc6a3a39f195f45ec42d544eb9513c4d316",
                "fccb9006577c350453a9b85b090f2cead784023b5fbf751633ec6d3f697503b3",
            ),
        ),
        (
            "constant",  # vspan = 1.0 in plot_svg
            (
                "58f67df891ab8af189d298e8e83c60dac7bdfbe99f8d93e354b36b2a1db0adc5",
                "32f41e29a9b4f198904d997b1920377f7c47226a5b6a47da37d85f0d9cc76765",
                "0e3fdfe47db9dce8870a9c5127080f842343e95dce7067a982c91a7506488e6f",
            ),
        ),
    ],
)
def test_export_bytes_are_pinned(channel, digests):
    # SHA-256 of signal_csv, overlay_csv and plot_svg as first written, one
    # Python format call per value; vectorized formatting must keep every byte
    if channel == "fixture":
        seq = generate(MotionScenario(item=UpdrsItem.FINGER_TAPS, duration_s=3.0, seed=8))
    else:
        seq = sequence(item=UpdrsItem.FINGER_TAPS, right_hand=[hand_pose()] * 90)
    ch = analyze(seq, AnalysisConfig()).channels[0]
    texts = (
        signal_csv(ch.series),
        overlay_csv(ch.series, ch.peaks, ch.troughs),
        plot_svg(ch.series, ch.peaks, ch.troughs),
    )
    assert tuple(hashlib.sha256(text.encode()).hexdigest() for text in texts) == digests


def test_atomic_write_concurrent_writers(tmp_path):
    """Many threads writing one path: no collision on a shared temp file, the
    file ends as one whole payload, and no temp file is left behind."""
    target = tmp_path / "report.json"
    payloads = [f"writer {i}\n" + "x" * 20000 + "\n" for i in range(2 * (os.cpu_count() or 2) + 4)]
    errors: list[BaseException] = []
    start = threading.Barrier(len(payloads))

    def writer(text: str) -> None:
        try:
            start.wait()
            for _ in range(200):
                atomic_write(target, text)
        except BaseException as exc:  # noqa: BLE001 - collected and asserted below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer, args=(p,)) for p in payloads]
        began = time.monotonic()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert time.monotonic() - began < 60
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert target.read_text(encoding="utf-8") in payloads
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]


def test_atomic_write_failure_leaves_no_temp_file(tmp_path):
    target = tmp_path / "report.json"
    target.write_text("old", encoding="utf-8")
    with pytest.raises(UnicodeEncodeError):
        atomic_write(target, "\ud800")  # a lone surrogate cannot be encoded
    assert target.read_text(encoding="utf-8") == "old"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]
