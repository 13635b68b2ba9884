"""Spans around walkup's layer calls, and a stage-by-stage replay of one analysis.

``replay_one`` repeats what ``cli._analyze_one`` and ``report.analyze`` do,
through the layers' public functions, with a span around every layer call.
Spans live in memory (``Tracer.spans``) until the benchmark writes them out.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from walkup.core import UpdrsItem
from walkup.features import FeatureVector, default_specs, extract
from walkup.ingest import FileFormat, IngestConfig, fill_gaps, parse_frames, resample
from walkup.peaks import cadence_stats, detect_peaks, overlay_csv
from walkup.report import (
    AnalysisConfig,
    AnalysisReport,
    ChannelResult,
    atomic_write,
    input_digest,
    plot_svg,
    report_json,
)
from walkup.signals import build_all, signal_csv

ENTROPY_FEATURES = ("approximate_entropy", "sample_entropy")


class Tracer:
    """Records (name, start, end, parent, call) spans; parent is a span index."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.call_id: Optional[str] = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "call": self.call_id,
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def totals(self) -> dict[str, float]:
        """Inclusive seconds per span name."""
        out: dict[str, float] = {}
        for s in self.spans:
            out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
        return out

    def self_times(self) -> dict[str, float]:
        """Seconds per span name not covered by child spans (children never overlap)."""
        out = self.totals()
        for s in self.spans:
            if s["parent"] is not None:
                parent = self.spans[s["parent"]]["name"]
                out[parent] -= s["end"] - s["start"]
        return out


@dataclass
class Replay:
    """What one replayed analysis produced, besides its spans."""

    report_text: str
    frames_in: int
    samples_out: int
    channels: int
    bytes_written: int
    series: list


def ingest_config(cfg: AnalysisConfig) -> IngestConfig:
    """The ingest settings ``report.analyze`` derives from an analysis config."""
    return IngestConfig(
        resample_fps=cfg.resample_fps, min_visibility=cfg.min_visibility, gap_fill=cfg.gap_fill
    )


def replay_one(
    tracer: Tracer,
    path: str,
    fmt: FileFormat,
    item: Optional[UpdrsItem],
    cfg: AnalysisConfig,
    out_dir: Path,
    batch: bool,
) -> Replay:
    """Analyze one input the way ``walkup analyze`` does, with a span per layer call."""
    with tracer.span("cli.analyze_one"):
        with tracer.span("ingest.parse"):
            raw = Path(path).read_bytes()
            seq = parse_frames(path, format=fmt, item=item)
        digest = input_digest(raw)
        ingest_cfg = ingest_config(cfg)
        with tracer.span("ingest.fill_gaps"):
            clean = fill_gaps(seq, ingest_cfg)
        if cfg.resample_fps is not None:
            with tracer.span("ingest.resample"):
                clean = resample(clean, ingest_cfg)
        with tracer.span("signals.build"):
            series_list = build_all(
                clean,
                tremor_cfg=cfg.tremor,
                min_visibility=cfg.min_visibility,
                plane=cfg.plane,
                normalize_palm=cfg.normalize_palm,
            )
        specs = default_specs()
        entropy = [s for s in specs if s.name in ENTROPY_FEATURES]
        other = [s for s in specs if s.name not in ENTROPY_FEATURES]
        channels = []
        for series in series_list:
            with tracer.span("peaks.detect"):
                if len(series) >= 3:
                    pk, tr = detect_peaks(series, cfg.peaks)
                else:
                    pk = tr = np.array([], dtype=int)
                stats = cadence_stats(series, pk, tr)
            with tracer.span("features.extract"):
                with tracer.span("features.entropy"):
                    ent = extract(series, entropy)
                with tracer.span("features.other"):
                    rest = extract(series, other)
                vector = FeatureVector(
                    tuple(sorted(ent.entries + rest.entries, key=lambda e: e.feature_id))
                )
            channels.append(ChannelResult(series, pk, tr, stats, vector))
        report = AnalysisReport(
            subject_id=clean.subject_id,
            item=clean.item,
            channels=tuple(channels),
            config=cfg,
            input_digest=digest,
        )
        with tracer.span("report.render"):
            text = report_json(report)
        stem = f"{report.subject_id or Path(path).stem}_{report.item.value}"
        with tracer.span("report.export"):
            files = {"report.json": text}
            for ch in report.channels:
                base = f"{stem}_{ch.series.channel.value}"
                files[f"{base}.csv"] = signal_csv(ch.series)
                files[f"{base}_peaks.csv"] = overlay_csv(ch.series, ch.peaks, ch.troughs)
                files[f"{base}.svg"] = plot_svg(ch.series, ch.peaks, ch.troughs)
        with tracer.span("report.write"):
            sub = out_dir / stem if batch else out_dir
            sub.mkdir(parents=True, exist_ok=True)
            for name, body in files.items():
                atomic_write(sub / name, body)

    return Replay(
        report_text=text,
        frames_in=len(seq),
        samples_out=sum(len(s) for s in series_list),
        channels=len(series_list),
        bytes_written=sum(len(b.encode("utf-8")) for b in files.values()),
        series=series_list,
    )
