#!/usr/bin/env python3
"""End-to-end demo: synthesize a slowing finger-tap recording, analyze it,
and print the cadence summary that exposes the slow-down.

Usage: python scripts/demo_pipeline.py
"""

from walkup.core import UpdrsItem
from walkup.report import AnalysisConfig, analyze
from walkup.synth import MotionScenario, generate


def main() -> int:
    scenario = MotionScenario(
        item=UpdrsItem.FINGER_TAPS,
        duration_s=14.0,
        fps=60.0,
        base_amplitude=40.0,
        frequency_hz=1.0,
        interval_growth_s_per_cycle=0.08,   # each tap takes 80 ms longer
        amplitude_decrement_per_cycle=1.5,  # and loses 1.5 degrees of swing
        noise_std=0.0015,
        seed=7,
    )
    seq = generate(scenario)
    report = analyze(seq, AnalysisConfig())

    print(f"item: {report.item.value}   subject: {report.subject_id}")
    for ch in report.channels:
        c = ch.cadence
        print(f"\nchannel {ch.series.channel.value}:")
        print(f"  samples          {len(ch.series)}")
        print(f"  signal mean      {c.signal_mean:8.3f} deg")
        print(f"  peaks            {c.peak_count}")
        print(f"  mean amplitude   {c.mean_amplitude:8.3f} deg")
        print(f"  mean interval    {c.mean_interval_s:8.3f} s")
        print(f"  interval slope   {c.interval_slope_s_per_cycle:+8.4f} s/cycle"
              f"   (positive = slowing down)")
        print(f"  amplitude slope  {c.amplitude_slope:+8.4f} deg/cycle"
              f"   (negative = shrinking)")
        high = ch.features.as_dict()
        print(f"  sample entropy   {high['sample_entropy__m=2__r_factor=0.2']:8.4f}")
        print(f"  spectral centroid{high['fft_aggregated__attr=centroid']:8.3f} bins")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
