"""One measured run in a fresh process: time `walkup analyze` calls, or trace them.

Usage: python3 worker.py MANIFEST RESULT

``run.py`` writes MANIFEST and reads RESULT. The process imports walkup once,
makes one untimed warm-up call, then repeats whole passes over the
workload's calls and stops after the pass whose end lies nearest to
``seconds`` (at least one pass). Every report.json is checked
after its call, outside the timed region. Peak RSS is this process's own.
"""

from __future__ import annotations

import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
import tracemalloc
from pathlib import Path

import walkup.cli as cli
from walkup.core import UpdrsItem
from walkup.features import default_specs, extract
from walkup.ingest import FileFormat, fill_gaps, parse_frames, resample
from walkup.report import AnalysisConfig

from tracing import Tracer, ingest_config, replay_one
from workloads import Call, cadence_mismatches, from_json, mismatches


def check(call: Call, out: Path, exited_ok: bool, references: dict) -> tuple[list[str], dict]:
    """Status of each recording of a finished call, and the report text it owns.

    A status is "ok", "call failed" (non-zero exit or exception), "missing",
    "overwritten" (the report at its path belongs to another input) or
    "wrong: ..." (its report disagrees with the reference).
    """
    statuses, texts = [], {}
    for rec in call.recordings:
        path = out / call.report_path(rec)
        if not exited_ok:
            statuses.append("call failed")
            continue
        if not path.is_file():
            statuses.append("missing")
            continue
        text = path.read_text(encoding="utf-8")
        report = json.loads(text)
        if report.get("input_digest") != "sha256:" + rec.sha256:
            statuses.append("overwritten")
            continue
        texts[rec.name] = text
        problems = mismatches(report, references[rec.name])
        problems += cadence_mismatches(report, rec.frequency_hz, rec.fps)
        for channel in report["channels"]:
            base = f"{rec.subject or Path(rec.path).stem}_{rec.item}_{channel}"
            for name in (f"{base}.csv", f"{base}_peaks.csv", f"{base}.svg"):
                if not (path.parent / name).is_file():
                    problems.append(f"{name}: not written")
        statuses.append(f"wrong: {problems[0]}" if problems else "ok")
    return statuses, texts


def run_call(call: Call, work: Path, references: dict | None) -> tuple[float, list[str], dict]:
    """Time one CLI call from input files to written outputs, then check them."""
    out = Path(tempfile.mkdtemp(dir=work, prefix="out-"))
    start = time.perf_counter()
    try:
        exited_ok = cli.main(call.argv(out)) == 0
    except Exception:  # an uncaught exception is a failed call, not a crash
        traceback.print_exc()
        exited_ok = False
    elapsed = time.perf_counter() - start
    statuses, texts = ([], {}) if references is None else check(call, out, exited_ok, references)
    shutil.rmtree(out)
    return elapsed, statuses, texts


def finished(start: float, pass_start: float, seconds: float) -> bool:
    """Whether stopping now ends nearer to ``seconds`` than one more pass would.

    A long_recording pass takes about 20 s, so stopping at the first pass
    that crosses ``seconds`` would make the run up to a pass longer.
    """
    now = time.perf_counter()
    return now - start + (now - pass_start) / 2 >= seconds


def timed(calls: list[Call], seconds: float, work: Path, references: dict) -> list[dict]:
    records = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for call in calls:
            elapsed, statuses, _ = run_call(call, work, references)
            frames = sum(r.frames for r in call.recordings)
            records.append({"s": elapsed, "frames": frames, "statuses": statuses})
        if finished(start, pass_start, seconds):
            return records


def _peaks(path: str, fmt: FileFormat, item, cfg: AnalysisConfig, series: list) -> tuple[int, int]:
    """tracemalloc peaks (bytes) of the ingest stages and of one feature extraction."""
    ingest_cfg = ingest_config(cfg)
    specs = default_specs()
    tracemalloc.start()
    try:
        seq = fill_gaps(parse_frames(path, format=fmt, item=item), ingest_cfg)
        if cfg.resample_fps is not None:
            seq = resample(seq, ingest_cfg)
        ingest_peak = tracemalloc.get_traced_memory()[1]
        del seq
        features_peak = 0
        for s in series:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            extract(s, specs)
            features_peak = max(features_peak, tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return ingest_peak, features_peak


def traced(calls: list[Call], seconds: float, work: Path, references: dict) -> tuple[list[dict], dict]:
    """Untraced call, single-input calls, traced replay and memory peaks, per pass."""
    tracer = Tracer()
    records, errors = [], []
    sums = dict.fromkeys(("single_s", "call_s", "samples_out", "channel_frames", "bytes_written"), 0)
    ingest_peak = features_peak = 0
    passes = 0
    start = time.perf_counter()
    while True:
        passes += 1
        pass_start = time.perf_counter()
        for ci, call in enumerate(calls):
            elapsed, statuses, texts = run_call(call, work, references)
            records.append({
                "s": elapsed, "frames": sum(r.frames for r in call.recordings), "statuses": statuses,
            })
            sums["call_s"] += elapsed
            if call.batch:
                for rec in call.recordings:
                    single_s, single_status, _ = run_call(call.single(rec), work, references)
                    sums["single_s"] += single_s
                    if single_status != ["ok"]:
                        errors.append(f"{rec.name} alone: {single_status[0]}")
            else:
                sums["single_s"] += elapsed
            cfg = AnalysisConfig.load(call.config) if call.config else AnalysisConfig()
            fmt = FileFormat(call.format)
            item = UpdrsItem(call.item) if call.item else None
            for rec in call.recordings:
                tracer.call_id = f"{passes}.{ci}.{rec.name}"
                out = Path(tempfile.mkdtemp(dir=work, prefix="replay-"))
                try:
                    rep = replay_one(tracer, rec.path, fmt, item, cfg, out, call.batch)
                except Exception as exc:  # recorded; the untraced call decides the status
                    if "call failed" not in statuses:
                        errors.append(f"{rec.name} replay: {type(exc).__name__}: {exc}")
                    continue
                finally:
                    shutil.rmtree(out)
                if rec.name in texts and texts[rec.name] != rep.report_text:
                    errors.append(f"{rec.name}: replayed report.json differs from the CLI's")
                sums["samples_out"] += rep.samples_out
                sums["channel_frames"] += rep.frames_in * rep.channels
                sums["bytes_written"] += rep.bytes_written
                ip, fp = _peaks(rec.path, fmt, item, cfg, rep.series)
                ingest_peak, features_peak = max(ingest_peak, ip), max(features_peak, fp)
        if finished(start, pass_start, seconds):
            break

    totals = tracer.totals()
    mb = 1024.0 * 1024.0

    def per_pass(name: str) -> float:
        return totals.get(name, 0.0) / passes

    metrics = {
        "features.entropy_s": (per_pass("features.entropy"), "s"),
        "features.other_s": (per_pass("features.other"), "s"),
        "features.extract_s": (per_pass("features.extract"), "s"),
        "features.peak_mb": (features_peak / mb, "MB"),
        "ingest.parse_s": (per_pass("ingest.parse"), "s"),
        "ingest.fill_gaps_s": (per_pass("ingest.fill_gaps"), "s"),
        "ingest.peak_mb": (ingest_peak / mb, "MB"),
        "signals.build_s": (per_pass("signals.build"), "s"),
        "signals.coverage": (sums["samples_out"] / max(1, sums["channel_frames"]), "ratio"),
        "peaks.detect_s": (per_pass("peaks.detect"), "s"),
        "report.render_s": (per_pass("report.render"), "s"),
        "report.export_s": (per_pass("report.export"), "s"),
        "report.write_s": (per_pass("report.write"), "s"),
        "report.bytes_written": (sums["bytes_written"] / passes, "bytes"),
        "cli.pool_gain": (sums["single_s"] / sums["call_s"], "ratio"),
        "trace.overhead_s": ((per_pass("cli.analyze_one") - sums["single_s"] / passes), "s"),
    }
    trace = {
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "self_s": {k: v / passes for k, v in sorted(tracer.self_times().items())},
        "passes": passes,
        "errors": errors,
        "spans": tracer.spans,
    }
    return records, trace


def main(argv: list[str]) -> int:
    manifest = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    work = Path(manifest["work"])
    warmup = from_json(manifest["warmup"])
    calls = from_json(manifest["calls"])
    for call in warmup:
        run_call(call, work, None)
    result: dict = {}
    if manifest["trace"]:
        result["calls"], result["trace"] = traced(calls, manifest["seconds"], work, manifest["references"])
    else:
        result["calls"] = timed(calls, manifest["seconds"], work, manifest["references"])
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(argv[2]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
