import math

import numpy as np
import pytest

from walkup.core import UpdrsItem
from walkup.ingest import serialize_jsonl
from walkup.peaks import PeakConfig, cadence_stats, detect_peaks
from walkup.signals import build_all
from walkup.synth import DEFAULT_AMPLITUDE, MotionScenario, generate


def _analyze(sc: MotionScenario, channel_idx: int = -1):
    series = build_all(generate(sc))[channel_idx]
    peaks, troughs = detect_peaks(series, PeakConfig())
    return series, peaks, troughs, cadence_stats(series, peaks, troughs)


def test_same_seed_bit_identical():
    sc = MotionScenario(item=UpdrsItem.FINGER_TAPS, duration_s=3.0, noise_std=0.003, seed=42)
    assert serialize_jsonl(generate(sc)) == serialize_jsonl(generate(sc))


def test_different_seed_differs_with_noise():
    a = MotionScenario(item=UpdrsItem.FINGER_TAPS, duration_s=2.0, noise_std=0.003, seed=1)
    b = MotionScenario(item=UpdrsItem.FINGER_TAPS, duration_s=2.0, noise_std=0.003, seed=2)
    assert serialize_jsonl(generate(a)) != serialize_jsonl(generate(b))


def test_finger_taps_target_recovery():
    sc = MotionScenario(
        item=UpdrsItem.FINGER_TAPS, duration_s=10.0, fps=30.0,
        base_amplitude=40.0, frequency_hz=1.0, seed=0,
    )
    series, peaks, troughs, stats = _analyze(sc)
    assert stats.peak_count == 10
    assert stats.mean_amplitude == pytest.approx(40.0, abs=0.5)
    assert stats.mean_interval_s == pytest.approx(1.0, abs=1.0 / 30.0)


@pytest.mark.parametrize(
    "item,amplitude",
    [
        (UpdrsItem.FINGER_TAPS, 40.0),
        (UpdrsItem.HAND_MOVEMENT, 0.15),
        (UpdrsItem.ALTERNATING_HANDS, 60.0),
        (UpdrsItem.LEG_AGILITY, 30.0),
        (UpdrsItem.FOOT_TAPS, 20.0),
    ],
)
def test_round_trip_frequency_and_amplitude(item, amplitude):
    freq, fps = 1.25, 50.0
    sc = MotionScenario(
        item=item, duration_s=8.0, fps=fps, base_amplitude=amplitude,
        frequency_hz=freq, seed=3,
    )
    series, peaks, troughs, stats = _analyze(sc)
    assert stats.mean_interval_s == pytest.approx(1.0 / freq, abs=1.0 / fps)
    tol = 0.5 if item is not UpdrsItem.HAND_MOVEMENT else 0.005 * amplitude
    assert stats.mean_amplitude == pytest.approx(amplitude, abs=tol)


def test_interval_growth_maps_to_cadence_slope():
    growth = 0.1
    sc = MotionScenario(
        item=UpdrsItem.FINGER_TAPS, duration_s=16.0, fps=100.0,
        base_amplitude=40.0, frequency_hz=1.0,
        interval_growth_s_per_cycle=growth, seed=0,
    )
    series, peaks, troughs, stats = _analyze(sc)
    assert stats.peak_count >= 8
    assert stats.interval_slope_s_per_cycle == pytest.approx(growth, rel=0.05)


def test_amplitude_decrement_maps_to_amplitude_slope():
    sc = MotionScenario(
        item=UpdrsItem.FINGER_TAPS, duration_s=10.0, fps=50.0,
        base_amplitude=40.0, frequency_hz=1.0,
        amplitude_decrement_per_cycle=2.0, seed=0,
    )
    series, peaks, troughs, stats = _analyze(sc)
    assert stats.amplitude_slope == pytest.approx(-2.0, abs=0.2)


def test_tremor_scenarios_match_rule():
    hot = MotionScenario(item=UpdrsItem.TREMOR_AT_REST, tremor_amplitude=0.02,
                         tremor_freq_hz=5.0, seed=0)
    assert (build_all(generate(hot))[0].values == 1.0).all()

    cold = MotionScenario(item=UpdrsItem.TREMOR_AT_REST, tremor_amplitude=0.0, seed=0)
    assert (build_all(generate(cold))[0].values == 0.0).all()


def test_default_amplitudes_cover_all_items():
    assert set(DEFAULT_AMPLITUDE) == set(UpdrsItem)


@pytest.mark.parametrize("item", list(UpdrsItem), ids=lambda i: i.value)
def test_unset_amplitude_is_the_items_own(item):
    # every item swung 40.0, so a hand_movement fingertip reached 40.05
    # normalized units from the wrist
    assert MotionScenario(item=item) == MotionScenario(item=item, base_amplitude=DEFAULT_AMPLITUDE[item])
    seq = generate(MotionScenario(item=item))
    xy = np.concatenate([pts[..., :2] for pts in seq.poses.values()], axis=1)
    xy = xy[~np.isnan(xy)]
    assert xy.min() > 0.0 and xy.max() < 1.0


def test_scenario_validation():
    for item, bad in [
        (UpdrsItem.FINGER_TAPS, dict(duration_s=0.0)),
        (UpdrsItem.ALTERNATING_HANDS, dict(base_amplitude=120.0)),
        (UpdrsItem.FINGER_TAPS, dict(interval_growth_s_per_cycle=-0.1)),
        # generate would never return, write a NaN file, overflow, or ignore it
        (UpdrsItem.FINGER_TAPS, dict(frequency_hz=math.inf)),
        (UpdrsItem.FINGER_TAPS, dict(base_amplitude=math.nan)),
        (UpdrsItem.LEG_AGILITY, dict(duration_s=math.inf)),
        (UpdrsItem.TREMOR_AT_REST, dict(tremor_freq_hz=math.nan)),
        (UpdrsItem.FOOT_TAPS, dict(noise_std=-1.0)),
        # a cycle of under 2 frames, for an item whose wave never reads it too
        (UpdrsItem.FINGER_TAPS, dict(frequency_hz=15.5)),
        (UpdrsItem.TREMOR_AT_REST, dict(fps=10.0, frequency_hz=6.0)),
        # no frame: _wave's times[-1] would be an IndexError, the body a shape error
        (UpdrsItem.FINGER_TAPS, dict(duration_s=0.01)),
        (UpdrsItem.TREMOR_AT_REST, dict(duration_s=0.01)),
        (UpdrsItem.LEG_AGILITY, dict(duration_s=0.5, fps=1.0)),  # 0.5 rounds to even, 0
        # duration_s * fps overflows to inf, so the frame count has no integer
        (UpdrsItem.FINGER_TAPS, dict(duration_s=1e308, fps=1e308)),
    ]:
        with pytest.raises(ValueError):
            MotionScenario(item=item, **bad)
    # at fps / 2 each cycle spans 2 frames
    assert len(generate(MotionScenario(item=UpdrsItem.FINGER_TAPS, duration_s=1.0, frequency_hz=15.0))) == 30


def test_scenario_fields_are_checked_by_their_types():
    # an item name is not an item, and a bool is not a duration (True would give fps frames)
    with pytest.raises(ValueError, match="^item must be a UpdrsItem, got 'finger_taps'$"):
        MotionScenario(item="finger_taps")
    with pytest.raises(ValueError, match="^duration_s must be a number, got True$"):
        MotionScenario(item=UpdrsItem.LEG_AGILITY, duration_s=True, fps=4)


def test_generated_sequences_are_valid():
    from walkup.core import fps_violation, frame_violation

    for item in UpdrsItem:
        sc = MotionScenario(item=item, duration_s=2.0,
                            base_amplitude=DEFAULT_AMPLITUDE[item] or 0.1, seed=6)
        seq = generate(sc)
        assert fps_violation(seq.fps) is None and frame_violation(seq) is None, item
