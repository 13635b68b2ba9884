"""Peak/bottom detection and cadence statistics for signal series.

Detection keeps interior extrema whose topographic prominence is at least a
configurable fraction of the signal range, greedily selected by descending
prominence under a minimum time separation. An extremum must be strictly
higher (lower) than its nearest differing neighbours; a run of equal values
counts once, reported at its midpoint, and runs touching the series boundary
are never reported (their prominence is undefined). A final pass enforces
strict peak/trough alternation, keeping the more extreme of same-kind
neighbours. A series of under 3 samples has no extrema: an extremum needs a
neighbour on each side.

Values are range-normalized before thresholding, so detection is exactly
invariant under positive affine transforms of the values.

The candidate extrema and their prominences are exactly those of SciPy's
``scipy.signal.find_peaks`` and ``scipy.signal.peak_prominences`` (Virtanen
et al. 2020, Nature Methods 17:261): both are built from comparisons, min/max
and one subtraction, so the kernels here give the same bits without
importing ``scipy.signal``.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import SignalSeries, check_fields
from .features import linear_trend

__all__ = ["PeakConfig", "CadenceStats", "detect_peaks", "cadence_stats", "overlay_csv"]


@dataclass(frozen=True)
class PeakConfig:
    min_prominence: float = 0.2  # fraction of (max - min)
    min_separation_s: float = 0.15

    def __post_init__(self):
        check_fields(self)
        if not 0.0 < self.min_prominence <= 1.0:
            raise ValueError("min_prominence must lie in (0, 1]")
        if self.min_separation_s < 0:
            raise ValueError("min_separation_s must be non-negative")


@dataclass(frozen=True)
class CadenceStats:
    """Summary of repetition amplitude and timing.

    ``interval_slope_s_per_cycle`` is the OLS slope of successive inter-peak
    intervals against cycle index; a positive value means the action slows
    down over the recording. Fields are None when fewer than the required
    number of peaks exist. The fields, in order, are ``walkup report``'s
    columns after the channel's length.
    """

    signal_mean: float
    peak_count: int
    mean_amplitude: Optional[float]
    mean_interval_s: Optional[float]
    interval_slope_s_per_cycle: Optional[float]
    amplitude_slope: Optional[float]


def _local_maxima(v: np.ndarray) -> np.ndarray:
    """Midpoints of the runs of equal samples with a lower neighbour on both
    sides; runs touching the boundary never count (``find_peaks(v)[0]``)."""
    edges = np.flatnonzero(v[1:] != v[:-1]) + 1  # first index of every run but the first
    left, right = edges[:-1], edges[1:] - 1  # the interior runs
    keep = (v[left - 1] < v[left]) & (v[right + 1] < v[right])
    return (left[keep] + right[keep]) // 2


def _prominences(v: np.ndarray, peaks: np.ndarray) -> np.ndarray:
    """``v[p] - max(left_min, right_min)`` per local maximum p, where each
    side's minimum runs up to the nearest strictly higher sample or to the end
    of the series (``peak_prominences(v, peaks)[0]``).

    Between two neighbouring local maxima the series only falls and then
    rises, so the samples that one side of p reaches cover whole segments
    between maxima, up to the nearest higher maximum, and take in the minimum
    of each. A side minimum is therefore the least of those segment minima,
    which a monotone stack over the maxima collects in one pass per side.
    """
    seg = np.minimum.reduceat(v, np.concatenate(([0], peaks))).tolist()
    tops = v[peaks].tolist()

    def reach(tops: list[float], seg: list[float]) -> list[float]:
        out: list[float] = []
        stack: list[tuple[float, float]] = []  # (top, minimum since the entry below)
        for top, low in zip(tops, seg):
            while stack and stack[-1][0] <= top:
                low = min(low, stack.pop()[1])
            out.append(low)
            stack.append((top, low))
        return out

    left = reach(tops, seg)
    right = reach(tops[::-1], seg[:0:-1])[::-1]
    return v[peaks] - np.maximum(left, right)


def _select(v: np.ndarray, t: list[float], threshold: float, min_sep: float) -> np.ndarray:
    candidates = _local_maxima(v)
    if len(candidates) == 0:
        return candidates
    prom = _prominences(v, candidates)
    keep = prom >= threshold
    candidates, prom = candidates[keep], prom[keep]
    # greedy by descending prominence; ties resolved by earlier time. The
    # accepted times are kept sorted, so only the nearest one on each side
    # needs checking: a difference of floats is monotone in either operand.
    order = np.lexsort((candidates, -prom))
    accepted: list[int] = []
    taken: list[float] = []
    for idx in candidates[order].tolist():
        ti = t[idx]
        pos = bisect(taken, ti)
        if (pos == 0 or ti - taken[pos - 1] >= min_sep) and (
            pos == len(taken) or taken[pos] - ti >= min_sep
        ):
            taken.insert(pos, ti)
            accepted.append(idx)
    return np.array(sorted(accepted), dtype=int)


def _events(peaks: np.ndarray, troughs: np.ndarray) -> list[tuple[int, bool]]:
    """The extrema as (index, is-peak) pairs in time order."""
    return sorted([(int(i), True) for i in peaks] + [(int(i), False) for i in troughs])


def _enforce_alternation(
    v: np.ndarray, peaks: np.ndarray, troughs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    kept: list[tuple[int, bool]] = []
    for idx, is_peak in _events(peaks, troughs):
        if kept and kept[-1][1] == is_peak:
            prev_idx = kept[-1][0]
            if (v[idx] > v[prev_idx]) if is_peak else (v[idx] < v[prev_idx]):
                kept[-1] = (idx, is_peak)
        else:
            kept.append((idx, is_peak))
    new_peaks = np.array([i for i, is_peak in kept if is_peak], dtype=int)
    new_troughs = np.array([i for i, is_peak in kept if not is_peak], dtype=int)
    return new_peaks, new_troughs


def detect_peaks(
    series: SignalSeries, cfg: PeakConfig = PeakConfig()
) -> tuple[np.ndarray, np.ndarray]:
    """Return (peak indices, trough indices), each sorted by time. Both are
    empty for a constant series and for one of under 3 samples, where no
    sample has a neighbour on each side."""
    v = series.values
    if len(v) < 3:
        return np.array([], dtype=int), np.array([], dtype=int)
    vmin = float(v.min())
    value_range = float(v.max()) - vmin
    if value_range <= 0.0:
        return np.array([], dtype=int), np.array([], dtype=int)
    w = (v - vmin) / value_range

    times = series.timestamps.tolist()
    peaks = _select(w, times, cfg.min_prominence, cfg.min_separation_s)
    troughs = _select(-w, times, cfg.min_prominence, cfg.min_separation_s)
    return _enforce_alternation(v, peaks, troughs)


def cadence_stats(
    series: SignalSeries, peaks: np.ndarray, troughs: np.ndarray
) -> CadenceStats:
    """Amplitude/timing statistics from a detected peak/trough set.

    Per-peak amplitude is the mean difference to the adjacent troughs (the
    preceding and following trough in the alternating event sequence).
    """
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


def overlay_csv(series: SignalSeries, peaks: np.ndarray, troughs: np.ndarray) -> str:
    """Peak-overlay export for plotting: t,value,kind rows in time order."""
    lines = ["t,value,kind"]
    for i, is_peak in _events(peaks, troughs):
        t, v = float(series.timestamps[i]), float(series.values[i])
        lines.append(f"{t!r},{v!r},{'peak' if is_peak else 'trough'}")
    return "\n".join(lines) + "\n"
