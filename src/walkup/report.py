"""Analysis pipeline and report rendering.

A report is fully reproducible: it embeds the tool version, a hash of the
resolved configuration, and a digest of the input bytes, and every emitted
byte is a deterministic function of those. Writes are atomic (tmp + rename).
"""

from __future__ import annotations

import enum
import hashlib
import json
import math
import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .core import LandmarkSequence, SignalSeries, UpdrsItem
from .features import FeatureVector, default_specs, extract, features_json_payload
from .ingest import GapFill, IngestConfig, fill_gaps, resample
from .kinematics import Plane
from .peaks import CadenceStats, PeakConfig, cadence_stats, detect_peaks
from .signals import TremorConfig, build_all

__all__ = [
    "AnalysisConfig", "ChannelResult", "AnalysisReport", "build_signals", "analyze", "report_json",
    "plot_svg",
]

REPORT_SCHEMA = "walkup-report/1"


@dataclass(frozen=True)
class AnalysisConfig:
    """Every knob of the analysis pipeline; defaults match the documented ones."""

    min_visibility: float = 0.5
    gap_fill: GapFill = GapFill.LINEAR_INTERP
    resample_fps: Optional[float] = None
    plane: Plane = Plane.IMAGE_2D
    normalize_palm: bool = False
    tremor: TremorConfig = field(default_factory=TremorConfig)
    peaks: PeakConfig = field(default_factory=PeakConfig)
    feature_set: str = "default"

    def to_dict(self) -> dict:
        return {
            "min_visibility": self.min_visibility,
            "gap_fill": self.gap_fill.value,
            "resample_fps": self.resample_fps,
            "plane": self.plane.value,
            "normalize_palm": self.normalize_palm,
            "tremor": {
                "highpass_cutoff_hz": self.tremor.highpass_cutoff_hz,
                "rms_threshold": self.tremor.rms_threshold,
                "window_s": self.tremor.window_s,
                "overlap": self.tremor.overlap,
            },
            "peaks": {
                "min_prominence": self.peaks.min_prominence,
                "min_separation_s": self.peaks.min_separation_s,
            },
            "feature_set": self.feature_set,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AnalysisConfig":
        """The config a JSON object gives; a ``ValueError`` names any key whose
        value has the wrong type, is a non-finite number, or which no config
        field has."""
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {data!r}")
        known = {
            "min_visibility", "gap_fill", "resample_fps", "plane",
            "normalize_palm", "tremor", "peaks", "feature_set",
        }
        extra = set(data) - known
        if extra:
            raise ValueError(f"unknown config key(s): {sorted(extra)}")
        kwargs: dict = {}
        if "min_visibility" in data:
            kwargs["min_visibility"] = _number("min_visibility", data["min_visibility"])
        if "gap_fill" in data:
            kwargs["gap_fill"] = _choice("gap_fill", data["gap_fill"], GapFill)
        if "resample_fps" in data:
            v = data["resample_fps"]
            kwargs["resample_fps"] = None if v is None else _number("resample_fps", v)
        if "plane" in data:
            kwargs["plane"] = _choice("plane", data["plane"], Plane)
        if "normalize_palm" in data:
            v = data["normalize_palm"]
            if not isinstance(v, bool):
                raise ValueError(f"config key 'normalize_palm': expected true or false, got {v!r}")
            kwargs["normalize_palm"] = v
        if "tremor" in data:
            kwargs["tremor"] = _section("tremor", data["tremor"], TremorConfig)
        if "peaks" in data:
            kwargs["peaks"] = _section("peaks", data["peaks"], PeakConfig)
        if "feature_set" in data:
            kwargs["feature_set"] = _feature_set(data["feature_set"])
        return cls(**kwargs)

    @classmethod
    def load(cls, path) -> "AnalysisConfig":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))

    @property
    def config_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


def _number(key: str, value) -> float:
    # a JSON true or false is a bool, which Python would also take as a number
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"config key {key!r}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"config key {key!r}: expected a finite number, got {value}")
    return number


def _choice(key: str, value, kind: type[enum.Enum]):
    options = [e.value for e in kind]
    if value not in options:
        raise ValueError(f"config key {key!r}: expected one of {options}, got {value!r}")
    return kind(value)


def _section(key: str, value, kind: type):
    """A nested config object whose fields are all numbers."""
    if not isinstance(value, dict):
        raise ValueError(f"config key {key!r}: expected an object, got {value!r}")
    extra = set(value) - {f.name for f in fields(kind)}
    if extra:
        raise ValueError(f"unknown config key(s) in {key!r}: {sorted(extra)}")
    return kind(**{k: _number(f"{key}.{k}", v) for k, v in value.items()})


def _feature_set(value) -> str:
    if value != "default":
        raise ValueError(f"feature_set {value!r} is not defined; the one feature set is 'default'")
    return value


@dataclass(frozen=True, eq=False)
class ChannelResult:
    series: SignalSeries
    peaks: np.ndarray
    troughs: np.ndarray
    cadence: CadenceStats
    features: FeatureVector


@dataclass(frozen=True, eq=False)
class AnalysisReport:
    subject_id: str
    item: UpdrsItem
    channels: tuple[ChannelResult, ...]
    config: AnalysisConfig
    input_digest: str


def input_digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def file_digest(path) -> str:
    """``input_digest`` of the file at ``path``, hashed in 1 MB reads."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return "sha256:" + h.hexdigest()


def build_signals(seq: LandmarkSequence, config: AnalysisConfig = AnalysisConfig()) -> list[SignalSeries]:
    """The front half of the pipeline: clean, (optionally) resample, build signals."""
    if seq.item is None:
        raise ValueError("sequence has no item tag; pass --item or tag the file")
    ingest_cfg = IngestConfig(
        resample_fps=config.resample_fps,
        min_visibility=config.min_visibility,
        gap_fill=config.gap_fill,
    )
    seq = fill_gaps(seq, ingest_cfg)
    if config.resample_fps is not None:
        seq = resample(seq, ingest_cfg)

    # Repaired landmarks carry visibility == min_visibility, so the same
    # threshold admits them while leaving unrepairable ones as gaps.
    return build_all(
        seq,
        tremor_cfg=config.tremor,
        min_visibility=config.min_visibility,
        plane=config.plane,
        normalize_palm=config.normalize_palm,
    )


def analyze(
    seq: LandmarkSequence,
    config: AnalysisConfig = AnalysisConfig(),
    digest: str = "",
) -> AnalysisReport:
    """Run the full pipeline: ``build_signals``, then detect peaks, compute
    cadence statistics and the feature set."""
    _feature_set(config.feature_set)
    specs = default_specs()
    channels = []
    for series in build_signals(seq, config):
        if len(series) >= 3:
            pk, tr = detect_peaks(series, config.peaks)
        else:
            pk = np.array([], dtype=int)
            tr = np.array([], dtype=int)
        stats = cadence_stats(series, pk, tr)
        channels.append(ChannelResult(series, pk, tr, stats, extract(series, specs)))

    return AnalysisReport(
        subject_id=seq.subject_id,
        item=seq.item,
        channels=tuple(channels),
        config=config,
        input_digest=digest,
    )


def _cadence_dict(c: CadenceStats) -> dict:
    return {
        "peak_count": c.peak_count,
        "signal_mean": c.signal_mean,
        "mean_amplitude": c.mean_amplitude,
        "mean_interval_s": c.mean_interval_s,
        "interval_slope_s_per_cycle": c.interval_slope_s_per_cycle,
        "amplitude_slope": c.amplitude_slope,
    }


def report_json(report: AnalysisReport) -> str:
    """Canonical JSON rendering (sorted keys, NaN-free, newline-terminated)."""
    channels = {}
    for ch in report.channels:
        v = ch.series.values
        channels[ch.series.channel.value] = {
            "signal": {
                "length": int(len(v)),
                "mean": float(v.mean()),
                "min": float(v.min()),
                "max": float(v.max()),
            },
            "cadence": _cadence_dict(ch.cadence),
            "features": features_json_payload(ch.features),
        }
    payload = {
        "schema": REPORT_SCHEMA,
        "tool_version": __version__,
        "config_hash": report.config.config_hash,
        "config": report.config.to_dict(),
        "input_digest": report.input_digest,
        "subject": report.subject_id,
        "item": report.item.value,
        "channels": channels,
    }
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def atomic_write(path: Path, text: str) -> None:
    """Write ``text`` to a temp file of its own next to ``path``, then rename it
    over ``path``: concurrent writers never share a temp file, and a reader
    sees one whole payload. The temp file is removed if the write fails."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8")  # exclusive: never another writer's file
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# ── plot data (signal + mean line + extrema markers) ─────────────────

_W, _H, _PAD = 800.0, 300.0, 40.0


def plot_svg(series: SignalSeries, peaks: np.ndarray, troughs: np.ndarray) -> str:
    """Minimal deterministic SVG: signal polyline, mean line, extrema dots."""
    t = series.timestamps
    v = series.values
    t0, t1 = float(t.min()), float(t.max())
    v0, v1 = float(v.min()), float(v.max())
    tspan = (t1 - t0) or 1.0
    vspan = (v1 - v0) or 1.0

    # pixel positions of floats or of whole arrays, which numpy computes
    # with the same operations in the same order, so to the same bits
    def sx(x):
        return _PAD + (x - t0) / tspan * (_W - 2 * _PAD)

    def sy(y):
        return _H - _PAD - (y - v0) / vspan * (_H - 2 * _PAD)

    xs, ys = sx(t).tolist(), sy(v).tolist()
    pts = " ".join(map("{:.3f},{:.3f}".format, xs, ys))
    mean_y = sy(float(v.mean()))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W:.0f}" height="{_H:.0f}" '
        f'viewBox="0 0 {_W:.0f} {_H:.0f}">',
        f'<title>{series.name}</title>',
        f'<polyline fill="none" stroke="#1f497d" stroke-width="1.5" points="{pts}"/>',
        f'<line x1="{_PAD:.3f}" y1="{mean_y:.3f}" x2="{_W - _PAD:.3f}" y2="{mean_y:.3f}" '
        f'stroke="#cc0000" stroke-width="1"/>',
    ]
    for idx in list(peaks) + list(troughs):
        parts.append(f'<circle cx="{xs[idx]:.3f}" cy="{ys[idx]:.3f}" r="3" fill="#cc0000"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
