#!/usr/bin/env python3
"""Benchmark of `walkup analyze`, run from the repository root:

    python3 perfbench/run.py --workload long_recording --seed 1 --seconds 40 --trace 0

One sequential caller (a closed loop with one client) calls
``walkup.cli.main(["analyze", ...])`` in a fresh worker process on input
files generated from ``--seed``. With ``--trace 0`` it prints the end-to-end
metrics; with ``--trace 1`` it replays each analysis layer by layer and
prints per-layer metrics. The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = BENCH / "reference.json"
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0  # a run must end within 180 s, set-up and input generation included
IMPORT_TIMER = "import time; t = time.perf_counter(); import walkup.cli; print(time.perf_counter() - t)"


class BenchError(Exception):
    """The benchmark cannot produce a valid measurement."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def setup_times(samples: int) -> list[float]:
    """Seconds to `import walkup.cli`, each in a fresh interpreter.

    One extra untimed import runs first, so bytecode compilation of a fresh
    checkout is not counted.
    """
    times = []
    for i in range(samples + 1):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_TIMER], env=child_env(), cwd=ROOT,
            capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise BenchError(f"import walkup.cli failed:\n{proc.stderr}")
        if i:
            times.append(float(proc.stdout))
    return times


def load_references(path: Path, workload: str, seed: int) -> dict:
    """Expected report views of the seed's input set, by recording name."""
    from workloads import expand_view

    data = json.loads(path.read_text(encoding="utf-8"))
    views = data["workloads"][workload][seed % data["variants"]]
    return {name: expand_view(v, data["feature_ids"]) for name, v in views.items()}


def prepare(workload: str, seed: int, size: str, work: Path, references: dict, trace: bool,
            seconds: float) -> dict:
    """Generate the inputs under ``work`` and return the worker's manifest."""
    import workloads  # imports walkup, so only after the source tree is on sys.path

    calls = workloads.build(workload, seed, size, work / "inputs")
    for call in calls:
        for rec in call.recordings:
            want = references.get(rec.name, {}).get("input_digest")
            if want != "sha256:" + rec.sha256:
                raise BenchError(
                    f"generated input {rec.name} differs from the one the references were "
                    f"recorded on; re-record them with perfbench/make_reference.py"
                )
    warmup = workloads.build(workload, seed, "tiny", work / "warmup")
    return {
        "work": str(work),
        "seconds": seconds,
        "trace": trace,
        "warmup": workloads.to_json(warmup),
        "calls": workloads.to_json(calls),
        "references": references,
    }


def launch(manifest: dict, work: Path, deadline: float) -> dict:
    """Run the worker in a fresh process and return what it measured."""
    mpath, rpath = work / "manifest.json", work / "result.json"
    mpath.write_text(json.dumps(manifest), encoding="utf-8")
    log = work / "worker.log"
    with open(log, "w", encoding="utf-8") as err:
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), str(mpath), str(rpath)],
                env=child_env(), cwd=ROOT, stdout=err, stderr=err,
                timeout=max(1.0, deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            raise BenchError("worker did not finish within the run's time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{log.read_text()[-4000:]}")
    return json.loads(rpath.read_text(encoding="utf-8"))


def _counts(calls: list[dict]) -> tuple[int, int, list[str]]:
    statuses = [s for c in calls for s in c["statuses"]]
    failed = sum(s != "ok" for s in statuses)
    wrong = [s for s in statuses if s.startswith("wrong")]
    return len(statuses), failed, wrong


def end_to_end(result: dict, setup: list[float]) -> tuple[dict, list[str]]:
    calls = result["calls"]
    seconds = [c["s"] for c in calls]
    attempted, failed, _ = _counts(calls)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "call_s_p50": (statistics.median(seconds), "s"),
        "frames_per_s": (sum(c["frames"] for c in calls) / sum(seconds), "frames/s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
    }
    notes = [
        f"setup_s: median of {len(setup)} fresh interpreters",
        f"call_s_p50: median of {len(seconds)} calls (max {max(seconds):.4f} s)",
        f"failed_frac: {failed / attempted:.4f} ratio ({failed} of {attempted} recordings failed)",
    ]
    return metrics, notes


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
        reference: Path = REFERENCE) -> dict:
    """One benchmark run; returns the final JSON object (and prints the human lines)."""
    deadline = time.monotonic() + TIME_LIMIT_S
    setup = [] if trace else setup_times(SETUP_SAMPLES)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-seed{seed}-", dir=WORK))
    try:
        refs = load_references(reference, workload, seed)
        manifest = prepare(workload, seed, size, work, refs, trace, seconds)
        result = launch(manifest, work, deadline)
    finally:
        shutil.rmtree(work)

    attempted, failed, wrong = _counts(result["calls"])
    for problem in wrong:
        print(f"check: {problem}")
    correct = not wrong
    if trace:
        tr = result["trace"]
        spans = WORK / f"trace-{workload}-seed{seed}.json"
        spans.write_text(json.dumps({"spans": tr["spans"], "self_s": tr["self_s"]}), encoding="utf-8")
        print(f"{workload} seed {seed}: {tr['passes']} traced pass(es); spans in {spans}")
        for name, value in tr["self_s"].items():
            print(f"  self time {name:<18} {value:.4f} s per pass")
        for problem in tr["errors"]:
            print(f"trace: {problem}")
        correct = correct and not tr["errors"]
        metrics = tr["metrics"]
    else:
        values, notes = end_to_end(result, setup)
        print(f"{workload} seed {seed}:")
        for name, (value, unit) in values.items():
            print(f"  {name:<13} {value:.6g} {unit}")
        for note in notes:
            print(f"  {note}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "walkup" / "__init__.py").is_file():
        print(f"perfbench: no walkup source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, ValueError, KeyError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
