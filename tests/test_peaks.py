import math
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks, peak_prominences

from tests.conftest import make_series
from walkup.peaks import (
    CadenceStats,
    PeakConfig,
    _local_maxima,
    _prominences,
    _select,
    cadence_stats,
    detect_peaks,
    overlay_csv,
)


def test_zigzag_interior_extrema_only():
    s = make_series([0, 1, 0, 1, 0])
    peaks, troughs = detect_peaks(s, PeakConfig(min_prominence=0.2, min_separation_s=0.15))
    assert list(peaks) == [1, 3]
    assert list(troughs) == [2]  # endpoint extrema are never reported


def test_constant_series_no_extrema():
    s = make_series([2.0] * 10)
    peaks, troughs = detect_peaks(s)
    assert len(peaks) == 0 and len(troughs) == 0


def test_series_too_short():
    # an extremum needs a neighbour on each side: under 3 samples there is none
    for values in ([], [1.0], [1.0, 2.0]):
        for found in detect_peaks(make_series(values)):
            assert found.dtype.kind == "i" and len(found) == 0


def test_sinusoid_peak_count_and_intervals():
    fps, dur, freq = 30.0, 5.0, 1.0
    t = np.arange(int(dur * fps)) / fps
    s = make_series(np.sin(2 * math.pi * freq * t), t)
    peaks, troughs = detect_peaks(s)
    assert len(peaks) == 5
    intervals = np.diff(t[peaks])
    assert np.all(np.abs(intervals - 1.0) <= 1.0 / fps + 1e-12)


def test_min_separation_suppresses_close_peaks():
    # two near-equal peaks 2 samples apart at 30 fps; keep only the stronger
    v = [0, 1.0, 0.2, 0.9, 0, 0, 0, 0, 0, 1.0, 0]
    t = np.arange(len(v)) / 30.0
    s = make_series(v, t)
    peaks, _ = detect_peaks(s, PeakConfig(min_prominence=0.2, min_separation_s=0.15))
    assert 1 in peaks and 3 not in peaks


def test_prominence_filters_ripple():
    t = np.arange(300) / 30.0
    clean = np.sin(2 * math.pi * t)
    ripple = clean + 0.03 * np.sin(2 * math.pi * 8.0 * t)
    pk_clean, _ = detect_peaks(make_series(clean, t))
    pk_ripple, _ = detect_peaks(make_series(ripple, t))
    assert len(pk_ripple) == len(pk_clean)


# ── invariants ───────────────────────────────────────────────────────


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=3, max_size=80))
def test_peaks_and_troughs_alternate(values):
    s = make_series(values)
    peaks, troughs = detect_peaks(s)
    events = sorted([(int(i), "p") for i in peaks] + [(int(i), "t") for i in troughs])
    for (i1, k1), (i2, k2) in zip(events, events[1:]):
        assert k1 != k2, f"two {k1} events in a row at {i1}, {i2}"


# The selection passes two extrema of one kind with none of the other between
# them, and the more extreme one stays. In the first series the maximum at 5
# lies within 0.15 s of the one at 1, so the minima 2 and 7 pass and the earlier
# is lower. In the second the minimum plateau 2-5 lies within 0.15 s of the
# deeper minimum at 7, so the maxima 1 and 6 pass and the later is higher.
_EARLIER, _LATER = [3, 4, 2, 4, 3, 4, 4, 3, 4], [0, 1, 0, 0, 0, 0, 2, 0, 2]


@pytest.mark.parametrize(
    "values, sign, selected, peaks, troughs",
    [
        (_EARLIER, 1, ([1], [2, 7]), [1], [2]),
        (_EARLIER, -1, ([1], [2, 7]), [2], [1]),
        (_LATER, 1, ([1, 6], [7]), [6], [7]),
        (_LATER, -1, ([1, 6], [7]), [7], [6]),
    ],
    ids=["upright", "negated", "later_upright", "later_negated"],
)
def test_same_kind_neighbours_keep_the_more_extreme(values, sign, selected, peaks, troughs):
    v = np.array(values, dtype=float)
    s = make_series(sign * v, np.arange(9) / 30)
    w, t = (v - v.min()) / np.ptp(v), s.timestamps.tolist()
    assert (_select(w, t, 0.2, 0.15).tolist(), _select(-w, t, 0.2, 0.15).tolist()) == selected
    got = detect_peaks(s, PeakConfig(min_prominence=0.2, min_separation_s=0.15))
    assert (got[0].tolist(), got[1].tolist()) == (peaks, troughs)


# dyadic rationals keep every affine step exact in binary, so the documented
# index invariance holds bit-for-bit (no rounding-induced threshold ties)
_dyadic = st.integers(min_value=-40, max_value=40).map(lambda k: k / 8.0)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(_dyadic, min_size=3, max_size=60),
    st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]),
    st.integers(min_value=-80, max_value=80).map(lambda k: k / 8.0),
)
def test_affine_value_invariance(values, a, b):
    s = make_series(values)
    scaled = make_series([a * v + b for v in values])
    p1, t1 = detect_peaks(s)
    p2, t2 = detect_peaks(scaled)
    assert list(p1) == list(p2)
    assert list(t1) == list(t2)


def test_noise_below_threshold_keeps_peak_count():
    fps, dur = 30.0, 10.0
    t = np.arange(int(dur * fps)) / fps
    clean = np.sin(2 * math.pi * t)
    rng = np.random.default_rng(42)
    # range ~2, prominence threshold 0.2 -> noise amplitude < 0.2 * 2 / 4 = 0.1
    noisy = clean + rng.uniform(-0.08, 0.08, size=len(t))
    pk_clean, _ = detect_peaks(make_series(clean, t))
    pk_noisy, _ = detect_peaks(make_series(noisy, t))
    assert len(pk_noisy) == len(pk_clean) == 10


# ── cadence statistics ───────────────────────────────────────────────


def _zigzag(peak_times, peak_values, trough_value=0.0, lead=0.5, tail=0.4):
    """Series with exact peaks at the given times, troughs between and around."""
    times = [peak_times[0] - lead]
    values = [trough_value]
    for i, (pt, pv) in enumerate(zip(peak_times, peak_values)):
        times.append(pt)
        values.append(pv)
        if i + 1 < len(peak_times):
            times.append((pt + peak_times[i + 1]) / 2)
        else:
            times.append(pt + tail)
        values.append(trough_value)
    return make_series(values, times)


def test_uniform_sinusoid_zero_interval_slope():
    # crests at exact sample instants -> intervals exactly constant
    fps = 30.0
    t = np.arange(int(10 * fps)) / fps
    s = make_series(np.cos(2 * math.pi * t), t)
    peaks, troughs = detect_peaks(s)
    assert len(peaks) == 9  # t = 1..9; the crest at t = 0 is an endpoint
    stats = cadence_stats(s, peaks, troughs)
    assert stats.interval_slope_s_per_cycle == pytest.approx(0.0, abs=1e-6)
    assert stats.mean_interval_s == pytest.approx(1.0, abs=1e-12)


def test_interval_slope_exact_arithmetic_progression():
    # intervals 0.5, 0.6, 0.7, 0.8 -> OLS slope exactly 0.1
    peak_times = [1.0, 1.5, 2.1, 2.8, 3.6]
    s = _zigzag(peak_times, [1.0] * 5)
    peaks, troughs = detect_peaks(s)
    assert len(peaks) == 5
    stats = cadence_stats(s, peaks, troughs)
    assert stats.interval_slope_s_per_cycle == pytest.approx(0.1, abs=1e-9)
    assert stats.mean_interval_s == pytest.approx(0.65, abs=1e-12)


def test_amplitude_slope_exact_decrement():
    # peaks 30, 27, 24, 21 over zero troughs -> amplitude slope exactly -3
    s = _zigzag([1.0, 2.0, 3.0, 4.0], [30.0, 27.0, 24.0, 21.0])
    peaks, troughs = detect_peaks(s)
    stats = cadence_stats(s, peaks, troughs)
    assert stats.amplitude_slope == pytest.approx(-3.0, abs=1e-9)
    assert stats.mean_amplitude == pytest.approx(25.5, abs=1e-9)


def test_signal_mean_is_average_line():
    values = [0, 1, 0, 1, 0]
    s = make_series(values)
    peaks, troughs = detect_peaks(s)
    stats = cadence_stats(s, peaks, troughs)
    assert stats.signal_mean == pytest.approx(np.mean(values))


def test_insufficient_peaks_yields_absent_stats():
    s = make_series([0, 1, 0])
    peaks, troughs = detect_peaks(s)
    stats = cadence_stats(s, peaks, troughs)
    assert stats.peak_count == 1
    assert stats.mean_interval_s is None
    assert stats.interval_slope_s_per_cycle is None
    assert stats.amplitude_slope is None


def test_overlay_csv_format():
    s = make_series([0, 1, 0, 1, 0])
    peaks, troughs = detect_peaks(s)
    text = overlay_csv(s, peaks, troughs)
    lines = text.strip().splitlines()
    assert lines[0] == "t,value,kind"
    assert lines[1] == "1.0,1.0,peak"
    kinds = [ln.split(",")[2] for ln in lines[1:]]
    assert kinds == ["peak", "trough", "peak"]


# ── in-repo kernels against scipy.signal, bit for bit ─────────────────


def _kernel_cases(rng):
    """Random, integer tie-heavy, plateau and noisy-sinusoid series, n from 3."""
    for v in ([0, 1, 0], [1, 1, 1], [1, 0, 1], [0, 1, 1, 0], [2, 1, 2, 1, 2], [0, 2, 2, 1, 3, 3, 0]):
        yield np.array(v, dtype=float)
    for i in range(250):
        n = 3 if i % 10 == 0 else int(rng.integers(3, 400))
        yield rng.normal(size=n)
        yield rng.integers(0, 4, size=n).astype(float)
        yield np.repeat(rng.integers(0, 6, size=n), rng.integers(1, 6, size=n))[:n].astype(float)
        t = np.arange(n) / 30.0
        yield np.sin(2 * math.pi * rng.uniform(0.5, 5.0) * t) + rng.normal(scale=0.05, size=n)


def test_local_maxima_and_prominences_match_scipy(rng):
    checked = 0
    for v in _kernel_cases(rng):
        for x in (v, -v):
            want = find_peaks(x)[0]
            got = _local_maxima(x)
            assert np.array_equal(got, want)
            if len(want):
                assert _prominences(x, got).tobytes() == peak_prominences(x, want)[0].tobytes()
                checked += 1
    assert checked > 1000


def _select_by_pairwise_scan(v, t, threshold, min_sep):
    """Greedy selection that checks each candidate against every accepted one."""
    candidates = find_peaks(v)[0]
    if len(candidates) == 0:
        return candidates
    prom = peak_prominences(v, candidates)[0]
    keep = prom >= threshold
    candidates, prom = candidates[keep], prom[keep]
    accepted = []
    for idx in candidates[np.lexsort((candidates, -prom))]:
        if all(abs(t[idx] - t[j]) >= min_sep for j in accepted):
            accepted.append(int(idx))
    return np.array(sorted(accepted), dtype=int)


def test_selection_matches_pairwise_scan(rng):
    for v in islice(_kernel_cases(rng), 300):
        n = len(v)
        w = (v - v.min()) / ((v.max() - v.min()) or 1.0)
        for t in (np.arange(n) / 30.0, np.sort(rng.uniform(0, n / 30.0, n)), rng.permutation(n) / 30.0):
            for min_sep in (0.0, 0.1, 0.15, 1.0 / 30.0):
                want = _select_by_pairwise_scan(w, t, 0.2, min_sep)
                assert np.array_equal(_select(w, t.tolist(), 0.2, min_sep), want)
