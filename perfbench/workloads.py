"""Benchmark inputs: the recordings of each workload, generated from a seed.

Every recording is made by ``walkup.synth.generate`` and written with
``walkup.ingest.write_sequence``; the tremor workload then perturbs the
JSONL text (dropped frames, timestamp jitter, low-visibility landmarks) and
stores it as CSV. The program under test only ever sees these files.

A seed selects one of ``VARIANTS`` input sets (``seed % VARIANTS``), so that
every input the benchmark can make has reference results recorded in
``reference.json`` (see ``make_reference.py``).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from walkup.core import UpdrsItem
from walkup.ingest import write_sequence
from walkup.synth import MotionScenario, generate

# tremor_resample runs by hand only: BENCHMARK.json leaves it out because its
# run-to-run spread on a shared VM exceeds the bound (see README.md).
WORKLOADS = ("long_recording", "tremor_resample", "clinic_batch")
VARIANTS = 8

# (duration_s, fps) per workload. "full" is what the benchmark measures;
# "tiny" feeds the warm-up call and the self-test.
SIZES = {
    "full": {"long_recording": (60.0, 60.0), "tremor_resample": (60.0, 60.0), "clinic_batch": (10.0, 30.0)},
    "tiny": {"long_recording": (6.0, 30.0), "tremor_resample": (6.0, 30.0), "clinic_batch": (6.0, 30.0)},
}

CYCLIC_ITEMS = ("finger_taps", "hand_movement", "alternating_hands", "leg_agility", "foot_taps")


@dataclass(frozen=True)
class Recording:
    """One generated input file and what the checks need to know about it."""

    name: str
    item: str
    subject: str
    path: str
    sha256: str
    frames: int
    fps: float
    frequency_hz: Optional[float]  # generator cadence of a cyclic item; None for tremor


@dataclass(frozen=True)
class Call:
    """One `walkup analyze` invocation over one or more recordings."""

    recordings: tuple[Recording, ...]
    format: str = "jsonl"
    item: Optional[str] = None
    config: Optional[str] = None

    @property
    def batch(self) -> bool:
        return len(self.recordings) > 1

    def argv(self, out: Path) -> list[str]:
        argv = ["analyze", "--in", *(r.path for r in self.recordings), "--format", self.format]
        if self.item:
            argv += ["--item", self.item]
        if self.config:
            argv += ["--config", self.config]
        return argv + ["--out", str(out)]

    def single(self, rec: Recording) -> "Call":
        """The same analysis of ``rec`` alone."""
        return replace(self, recordings=(rec,))

    def report_path(self, rec: Recording) -> str:
        """Where the CLI writes ``rec``'s report, relative to ``--out``."""
        return f"{rec.subject}_{rec.item}/report.json" if self.batch else "report.json"


def _scenario(item: str, rng: random.Random, duration: float, fps: float, seed: int) -> MotionScenario:
    """Random but well-conditioned generator parameters for one item."""
    kwargs: dict = dict(duration_s=duration, fps=fps, seed=seed, noise_std=0.001)
    if item == "tremor_at_rest":
        kwargs.update(
            base_amplitude=0.0,
            tremor_amplitude=rng.uniform(0.004, 0.012),
            tremor_freq_hz=rng.uniform(4.0, 6.0),
            noise_std=0.0005,
        )
    else:
        amplitude = {
            "finger_taps": (30.0, 60.0),
            "hand_movement": (0.10, 0.20),
            "alternating_hands": (40.0, 80.0),
            "leg_agility": (20.0, 40.0),
            "foot_taps": (15.0, 30.0),
        }[item]
        kwargs.update(
            base_amplitude=rng.uniform(*amplitude),
            frequency_hz=rng.uniform(0.8, 2.0),
        )
    return MotionScenario(item=UpdrsItem(item), **kwargs)


def _write_jsonl(sc: MotionScenario, subject: str, path: Path) -> None:
    write_sequence(generate(sc), path)
    # The subject names the batch output directory, so set it explicitly.
    head, rest = path.read_text(encoding="utf-8").split("\n", 1)
    header = json.loads(head)
    header["subject"] = subject
    path.write_text(json.dumps(header) + "\n" + rest, encoding="utf-8")


def _csv_columns() -> list[str]:
    cols = ["t"]
    for prefix, count in (("body", 33), ("lh", 21), ("rh", 21)):
        cols += [f"{prefix}_{i}_{axis}" for i in range(count) for axis in "xyzv"]
    return cols


def _perturb_to_csv(jsonl: Path, out: Path, rng: np.random.Generator) -> None:
    """Rewrite a clean tremor recording as a CSV with realistic capture faults.

    About 2% of frames are dropped, timestamps jitter by up to a quarter
    frame, four landmarks (the right wrist among them) lose visibility in
    short bursts, and one landmark is never visible, so gap repair has both
    repairable and unrepairable work.
    """
    lines = jsonl.read_text(encoding="utf-8").splitlines()
    fps = float(json.loads(lines[0])["fps"])
    frames = [json.loads(ln) for ln in lines[1:]]
    n = len(frames)
    keep = rng.random(n) >= 0.02
    keep[0] = keep[-1] = True
    jitter = rng.uniform(-0.25, 0.25, n) / fps
    jitter[0] = 0.0
    bursty = (16, 14, 26, 2)
    for j in bursty:
        for start in np.flatnonzero(rng.random(n) < 0.012):
            for i in range(start, min(n, start + int(rng.integers(1, 7)))):
                frames[i]["body"][j][3] = float(rng.uniform(0.05, 0.4))
    for frame in frames:
        frame["body"][7][3] = 0.1  # occluded ear: below threshold everywhere
    empty_hands = [""] * (4 * 42)
    rows = [",".join(_csv_columns())]
    for i in np.flatnonzero(keep):
        frame = frames[i]
        cells = [repr(frame["t"] + float(jitter[i]))]
        cells += [repr(float(c)) for point in frame["body"] for c in point]
        rows.append(",".join(cells + empty_hands))
    out.write_text("\n".join(rows) + "\n", encoding="utf-8")


def _recording(name: str, item: str, subject: str, path: Path, sc: MotionScenario) -> Recording:
    data = path.read_bytes()
    frames = len(data.decode("utf-8").splitlines()) - 1  # JSONL header / CSV header
    freq = sc.frequency_hz if item in CYCLIC_ITEMS else None
    sha = hashlib.sha256(data).hexdigest()
    return Recording(name, item, subject, str(path), sha, frames, sc.fps, freq)


def build(workload: str, seed: int, size: str, work: Path) -> list[Call]:
    """Write the workload's input files under ``work``; return its calls (one pass)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    variant = seed % VARIANTS
    rng = random.Random(f"{workload}/{variant}")
    duration, fps = SIZES[size][workload]
    work.mkdir(parents=True, exist_ok=True)

    if workload == "long_recording":
        calls = []
        for k, item in enumerate(("finger_taps", "leg_agility")):
            sc = _scenario(item, rng, duration, fps, seed=100 * variant + k)
            path = work / f"{item}.jsonl"
            subject = f"L{variant}{item[0]}"
            _write_jsonl(sc, subject, path)
            calls.append(Call((_recording(item, item, subject, path, sc),)))
        return calls

    if workload == "tremor_resample":
        sc = _scenario("tremor_at_rest", rng, duration, fps, seed=100 * variant)
        clean, path = work / "tremor_clean.jsonl", work / "tremor.csv"
        _write_jsonl(sc, "", clean)
        _perturb_to_csv(clean, path, np.random.default_rng(variant))
        clean.unlink()
        config = work / "config.json"
        config.write_text(json.dumps({"resample_fps": fps}) + "\n", encoding="utf-8")
        rec = _recording("tremor", "tremor_at_rest", "", path, sc)
        return [Call((rec,), format="csv", item="tremor_at_rest", config=str(config))]

    # clinic_batch: two sessions per item in one call. One item's second
    # session is a repeat visit of the same subject; it sits first and last
    # in the input list so the two analyses never run at the same time.
    items = [item.value for item in UpdrsItem]
    repeat = rng.randrange(len(items))
    recs = []
    for session in (0, 1):
        for k, item in enumerate(items):
            sc = _scenario(item, rng, duration, fps, seed=100 * variant + 10 * session + k)
            subject = f"C{variant}p{k if (session == 0 or k == repeat) else k + 6:02d}"
            name = f"{item}_{session}"
            path = work / f"{name}.jsonl"
            _write_jsonl(sc, subject, path)
            recs.append(_recording(name, item, subject, path, sc))
    first, last = recs.pop(repeat), recs.pop(len(items) - 1 + repeat)
    recs = [first] + recs + [last]
    return [Call(tuple(recs))]


def to_json(calls: list[Call]) -> list[dict]:
    return [asdict(c) for c in calls]


def from_json(data: list[dict]) -> list[Call]:
    return [
        Call(**{**c, "recordings": tuple(Recording(**r) for r in c["recordings"])}) for c in data
    ]


# ── output checks ────────────────────────────────────────────────────


def _round(v):
    return float(f"{v:.10g}") if isinstance(v, float) else v


def reference_view(report: dict, feature_ids: list[str]) -> dict:
    """The part of a report.json that references pin, in compact form.

    Floats keep 10 significant digits; feature values become a list in
    ``feature_ids`` order.
    """
    channels = {}
    for name, ch in report["channels"].items():
        values = ch["features"]["values"]
        if sorted(values) != feature_ids:
            raise ValueError(f"channel {name}: feature set differs from the recorded ids")
        channels[name] = {
            "signal": {k: _round(v) for k, v in ch["signal"].items()},
            "cadence": {k: _round(v) for k, v in ch["cadence"].items()},
            "features": {"values": [_round(values[f]) for f in feature_ids],
                         "reasons": ch["features"]["reasons"]},
        }
    return {"subject": report["subject"], "item": report["item"],
            "input_digest": report["input_digest"], "channels": channels}


def expand_view(view: dict, feature_ids: list[str]) -> dict:
    """Undo the compact feature list of ``reference_view``, for ``mismatches``."""
    channels = {}
    for name, ch in view["channels"].items():
        values = dict(zip(feature_ids, ch["features"]["values"]))
        channels[name] = {**ch, "features": {"values": values, "reasons": ch["features"]["reasons"]}}
    return {**view, "channels": channels}


def mismatches(got, want, where: str = "report") -> list[str]:
    """Differences between a report and its reference (extra report keys allowed)."""
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return [f"{where}: expected an object"]
        out = []
        for key, value in want.items():
            if key not in got:
                out.append(f"{where}.{key}: missing")
            else:
                out += mismatches(got[key], value, f"{where}.{key}")
        return out
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12):
            return []
        return [f"{where}: got {got!r}, want {want!r}"]
    return [] if got == want else [f"{where}: got {got!r}, want {want!r}"]


def cadence_mismatches(report: dict, frequency_hz: Optional[float], fps: float) -> list[str]:
    """Each channel's mean inter-peak interval must match the generator's period
    to within 2% plus two frames."""
    if frequency_hz is None:
        return []
    period = 1.0 / frequency_hz
    out = []
    for name, ch in report["channels"].items():
        got = ch["cadence"]["mean_interval_s"]
        if got is None or abs(got - period) > 0.02 * period + 2.0 / fps:
            out.append(f"channels.{name}.cadence.mean_interval_s: got {got!r}, generator period {period:.6f}")
    return out
