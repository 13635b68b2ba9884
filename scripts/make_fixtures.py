#!/usr/bin/env python3
"""Generate the synthetic fixture corpus: one JSONL recording per item.

Usage: python scripts/make_fixtures.py [out_dir]
"""

import sys
from pathlib import Path

from walkup.core import UpdrsItem
from walkup.ingest import write_sequence
from walkup.synth import MotionScenario, generate

SCENARIOS = {
    UpdrsItem.FINGER_TAPS: dict(frequency_hz=1.0, seed=11),
    UpdrsItem.HAND_MOVEMENT: dict(frequency_hz=1.2, seed=12),
    UpdrsItem.ALTERNATING_HANDS: dict(frequency_hz=0.8, seed=13),
    UpdrsItem.TREMOR_AT_REST: dict(tremor_amplitude=0.02, tremor_freq_hz=5.0, seed=14),
    UpdrsItem.LEG_AGILITY: dict(frequency_hz=1.0, interval_growth_s_per_cycle=0.05, seed=15),
    UpdrsItem.FOOT_TAPS: dict(frequency_hz=1.5, amplitude_decrement_per_cycle=0.8, seed=16),
}


def main() -> int:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("fixtures")
    out_dir.mkdir(parents=True, exist_ok=True)
    for item, kwargs in SCENARIOS.items():
        scenario = MotionScenario(item=item, duration_s=10.0, fps=30.0, **kwargs)
        path = out_dir / f"{item.value}.jsonl"
        write_sequence(generate(scenario), path)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
