#!/usr/bin/env python3
"""Self-test of the benchmark at tiny input sizes (about two minutes):

    python3 perfbench/selftest.py

It records references for the tiny inputs, then checks that
- every metric BENCHMARK.json names is emitted with its unit, untraced and
  traced, on every workload, and the outputs check as correct;
- clinic_batch counts its repeat session as one failed recording per batch;
- a corrupt input file is counted as a failed recording;
- run.py exits non-zero, printing no result, without the walkup source tree.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import make_reference  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest: FAIL: {what}")


def check_metrics(spec: dict, reference: Path) -> None:
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in WORKLOADS:
        for trace in (False, True):
            out = run.run(workload, 1, 0.5, trace, size="tiny", reference=reference)
            where = f"{workload} trace={int(trace)}"
            expect(sorted(out) == ["attempted", "correct", "failed", "metrics"], f"{where}: keys {sorted(out)}")
            units = {name: m["unit"] for name, m in out["metrics"].items()}
            expect(units == wanted[trace], f"{where}: metrics {units}")
            expect(all(math.isfinite(m["value"]) for m in out["metrics"].values()), f"{where}: non-finite value")
            expect(out["correct"], f"{where}: outputs did not check")
            # One of clinic_batch's 12 recordings repeats a subject and item.
            failed = out["attempted"] // 12 if workload == "clinic_batch" else 0
            expect(out["attempted"] >= 1 and out["failed"] == failed, f"{where}: failed {out['failed']}")


def check_corrupt_input(reference: Path, work: Path) -> None:
    refs = run.load_references(reference, "long_recording", 1)
    manifest = run.prepare("long_recording", 1, "tiny", work, refs, False, 0.5)
    path = Path(manifest["calls"][0]["recordings"][0]["path"])
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[2] = lines[2][: len(lines[2]) // 2]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = run.launch(manifest, work, time.monotonic() + 120)
    metrics, _ = run.end_to_end(result, [1.0])
    expect(metrics["ok_frac"][0] == 0.5, f"corrupt input: ok_frac {metrics['ok_frac'][0]}")
    statuses = {s for c in result["calls"] for s in c["statuses"]}
    expect(statuses == {"ok", "call failed"}, f"corrupt input: statuses {statuses}")


def check_bare_directory(work: Path) -> None:
    bare = work / "bare"
    shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "long_recording", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout, "bare directory: run.py produced a result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    run.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    try:
        reference = work / "reference.json"
        reference.write_text(json.dumps(make_reference.record("tiny", work / "ref")), encoding="utf-8")
        check_metrics(spec, reference)
        check_corrupt_input(reference, work / "corrupt")
        check_bare_directory(work)
    finally:
        shutil.rmtree(work)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
