#!/usr/bin/env python3
"""Record reference.json: the expected report of every input the benchmark makes.

    python3 perfbench/make_reference.py            # writes perfbench/reference.json

Each recording is analyzed alone with `walkup analyze` (a batch writes the
same report per input). Generated cyclic items must also show their
generator's cadence, or recording stops. Re-record only when the inputs or
the expected outputs change on purpose, and say why in the change.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import walkup.cli as cli  # noqa: E402
from walkup.features import default_specs  # noqa: E402
from workloads import VARIANTS, WORKLOADS, build, cadence_mismatches, reference_view  # noqa: E402


def record(size: str, work: Path, workloads=WORKLOADS) -> dict:
    """Reference views of every recording of every variant, keyed by recording name."""
    feature_ids = sorted(s.feature_id for s in default_specs())
    data: dict = {"variants": VARIANTS, "size": size, "feature_ids": feature_ids, "workloads": {}}
    for workload in workloads:
        variants = []
        for variant in range(VARIANTS):
            inputs = work / f"{workload}-{variant}"
            refs = {}
            for call in build(workload, variant, size, inputs):
                for rec in call.recordings:
                    out = inputs / "out"
                    if cli.main(call.single(rec).argv(out)) != 0:
                        raise SystemExit(f"{workload}/{variant}/{rec.name}: analyze failed")
                    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
                    problems = cadence_mismatches(report, rec.frequency_hz, rec.fps)
                    if problems:
                        raise SystemExit(f"{workload}/{variant}/{rec.name}: {problems}")
                    refs[rec.name] = reference_view(report, feature_ids)
                    shutil.rmtree(out)
            shutil.rmtree(inputs)
            variants.append(refs)
            print(f"recorded {workload} variant {variant}", file=sys.stderr)
        data["workloads"][workload] = variants
    return data


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", default=str(BENCH / "reference.json"))
    args = parser.parse_args()
    work_root = BENCH.parent / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=work_root))
    try:
        data = record("full", work)
    finally:
        shutil.rmtree(work)
    Path(args.out).write_text(json.dumps(data, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
