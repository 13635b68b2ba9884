"""Analysis pipeline and report rendering.

A report is fully reproducible: it embeds the tool version, a hash of the
resolved configuration, and a digest of the input bytes, and every emitted
byte is a deterministic function of those. Writes are atomic (tmp + rename).
"""

from __future__ import annotations

import enum
import hashlib
import json
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Optional, get_type_hints

import numpy as np

from . import __version__
from .core import LandmarkSequence, SignalSeries, UpdrsItem, as_number
from .features import FeatureVector, default_specs, extract, features_json_payload
from .ingest import IngestConfig, fill_gaps, resample
from .kinematics import Plane
from .peaks import CadenceStats, PeakConfig, cadence_stats, detect_peaks
from .signals import TremorConfig, build_all

__all__ = [
    "AnalysisConfig", "ChannelResult", "AnalysisReport", "build_series", "analyze", "report_json", "plot_svg",
]

REPORT_SCHEMA = "walkup-report/1"


@dataclass(frozen=True)
class AnalysisConfig(IngestConfig):
    """Every knob of the analysis pipeline; defaults match the documented ones.
    The ingest knobs are ``IngestConfig``'s, whose ``__post_init__`` checks
    every field here too, when the config is built."""

    plane: Plane = Plane.IMAGE_2D
    normalize_palm: bool = False
    tremor: TremorConfig = field(default_factory=TremorConfig)
    peaks: PeakConfig = field(default_factory=PeakConfig)

    def to_dict(self) -> dict:
        """The config as JSON data: enums by value, nested configs as objects."""
        return asdict(self, dict_factory=lambda items: {
            k: v.value if isinstance(v, enum.Enum) else v for k, v in items
        })

    @classmethod
    def from_dict(cls, data: dict) -> "AnalysisConfig":
        """The config a JSON object gives; a ``ValueError`` names any key whose
        value has the wrong type, is a non-finite number, or which no config
        field has."""
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {data!r}")
        return _from_json(cls, data, "")

    @classmethod
    def load(cls, path) -> "AnalysisConfig":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))

    @property
    def config_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


def _from_json(kind: type, data: dict, prefix: str):
    """The config dataclass ``kind`` from a JSON object, each value checked
    against its field's type; ``prefix`` is the dotted path of a nested object."""
    hints = get_type_hints(kind)
    names = [f.name for f in fields(kind)]
    extra = set(data) - set(names)
    if extra:
        where = f" in {prefix[:-1]!r}" if prefix else ""
        raise ValueError(f"unknown config key(s){where}: {sorted(extra)}")
    return kind(**{k: _field_value(prefix + k, hints[k], data[k]) for k in names if k in data})


def _field_value(key: str, hint, value):
    if hint is float or (hint == Optional[float] and value is not None):
        return as_number(value, f"config key {key!r}")
    if hint in (bool, Optional[float]):  # the config checks these values when it is built
        return value
    if issubclass(hint, enum.Enum):
        options = [e.value for e in hint]
        if value not in options:
            raise ValueError(f"config key {key!r}: expected one of {options}, got {value!r}")
        return hint(value)
    if not isinstance(value, dict):  # a nested config
        raise ValueError(f"config key {key!r}: expected an object, got {value!r}")
    return _from_json(hint, value, f"{key}.")


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


def build_series(seq: LandmarkSequence, config: AnalysisConfig = AnalysisConfig()) -> list[SignalSeries]:
    """The first half of ``analyze``: clean, (optionally) resample, and build
    every channel's signal. Raises where the input cannot be analyzed."""
    if seq.item is None:
        raise ValueError("sequence has no item tag; pass --item or tag the file")
    seq = fill_gaps(seq, config)
    if config.resample_fps is not None:
        seq = resample(seq, config)
    # Repaired landmarks carry visibility == min_visibility, so the same
    # threshold admits them while leaving unrepairable ones as gaps.
    return build_all(seq, tremor_cfg=config.tremor, min_visibility=config.min_visibility,
                     plane=config.plane, normalize_palm=config.normalize_palm)


def analyze(
    seq: LandmarkSequence,
    config: AnalysisConfig = AnalysisConfig(),
    digest: str = "",
) -> AnalysisReport:
    """Run the full pipeline: ``build_series``, then detect peaks, compute
    cadence statistics and the feature set."""
    specs = default_specs()
    channels = []
    for series in build_series(seq, config):
        pk, tr = detect_peaks(series, config.peaks)
        stats = cadence_stats(series, pk, tr)
        channels.append(ChannelResult(series, pk, tr, stats, extract(series, specs)))

    return AnalysisReport(
        subject_id=seq.subject_id,
        item=seq.item,
        channels=tuple(channels),
        config=config,
        input_digest=digest,
    )


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
            "cadence": asdict(ch.cadence),
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
