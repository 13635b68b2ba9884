"""Reference cadence statistics computed peak by peak over the extremum list.

This is ``walkup.peaks.cadence_stats`` as it was before it reduced the cycle
table: one pass over the time-ordered extrema collects each peak's
differences to its neighbouring troughs, then the means and slopes are taken
of those lists. The package's ``_events`` and ``linear_trend`` are shared, so
it checks the reduction alone.
"""

from __future__ import annotations

import numpy as np

from walkup.core import SignalSeries
from walkup.features import linear_trend
from walkup.peaks import CadenceStats, _events


def cadence_stats(series: SignalSeries, peaks: np.ndarray, troughs: np.ndarray) -> CadenceStats:
    v = series.values
    t = series.timestamps
    peaks = np.asarray(peaks, dtype=int)

    events = _events(peaks, troughs)
    per_peak_amp: list[float] = []
    all_diffs: list[float] = []
    for pos, (idx, is_peak) in enumerate(events):
        if not is_peak:
            continue
        neighbours = events[max(pos - 1, 0):pos] + events[pos + 1:pos + 2]
        diffs = [float(v[idx] - v[j]) for j, j_is_peak in neighbours if not j_is_peak]
        if diffs:
            per_peak_amp.append(float(np.mean(diffs)))
            all_diffs.extend(diffs)

    mean_amplitude = float(np.mean(all_diffs)) if all_diffs else None
    amplitude_slope = linear_trend(np.array(per_peak_amp), "slope")[0] if len(per_peak_amp) >= 2 else None

    if len(peaks) >= 2:
        intervals = np.diff(t[peaks])
        mean_interval = float(intervals.mean())
        interval_slope = linear_trend(intervals, "slope")[0] if len(intervals) >= 2 else None
    else:
        mean_interval = None
        interval_slope = None

    return CadenceStats(
        signal_mean=float(v.mean()),
        peak_count=int(len(peaks)),
        mean_amplitude=mean_amplitude,
        mean_interval_s=mean_interval,
        interval_slope_s_per_cycle=interval_slope,
        amplitude_slope=amplitude_slope,
    )
