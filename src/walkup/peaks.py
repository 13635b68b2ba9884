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

The cycle table has one row per peak in time order: its index, ``t`` and
value; ``rise`` and ``fall``, its value less that of the trough just before
and just after it among the time-ordered extrema, NaN where that neighbour is
a peak or missing; and ``interval_s``, the time since the previous peak, NaN
for the first. ``cadence_stats`` reduces it, and ``overlay_csv`` exports it.
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
    down over the recording. The interval fields are None under 2 and 3
    peaks. ``mean_amplitude`` is None when no peak has a neighbouring trough,
    and ``amplitude_slope`` when fewer than 2 peaks have one. The fields, in
    order, are ``walkup report``'s columns after the channel's length.
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


def _cycles(series: SignalSeries, peaks: np.ndarray, troughs: np.ndarray) -> dict[str, np.ndarray]:
    """The cycle table as named columns; ``peaks`` and ``troughs`` are each sorted by time."""
    v, t = series.values, series.timestamps
    events = np.array(_events(peaks, troughs), dtype=int).reshape(-1, 2)
    is_peak = events[:, 1] == 1
    # each extremum's trough value, NaN at a peak, padded by a missing trough on each side
    trough_value = np.concatenate(([np.nan], np.where(is_peak, np.nan, v[events[:, 0]]), [np.nan]))
    pos = np.flatnonzero(is_peak)
    index = events[pos, 0]
    value = v[index]
    return dict(index=index, t=t[index], value=value, rise=value - trough_value[pos],
                fall=value - trough_value[pos + 2], interval_s=np.diff(t[index], prepend=np.nan))


def cadence_stats(series: SignalSeries, peaks: np.ndarray, troughs: np.ndarray) -> CadenceStats:
    """Amplitude/timing statistics, each a reduction of the cycle table. A
    peak's amplitude is the mean of those of its rise and fall that exist."""
    cyc = _cycles(series, peaks, troughs)
    pair = np.stack((cyc["rise"], cyc["fall"]), axis=1)
    has = ~np.isnan(pair)
    diffs = pair[has]  # row by row: each peak's rise, then its fall
    amplitudes = np.nanmean(pair[has.any(axis=1)], axis=1)
    intervals = cyc["interval_s"][1:]
    return CadenceStats(
        signal_mean=float(series.values.mean()),
        peak_count=len(pair),
        mean_amplitude=float(np.mean(diffs)) if len(diffs) else None,
        mean_interval_s=float(intervals.mean()) if len(intervals) else None,
        interval_slope_s_per_cycle=linear_trend(intervals, "slope")[0] if len(intervals) >= 2 else None,
        amplitude_slope=linear_trend(amplitudes, "slope")[0] if len(amplitudes) >= 2 else None,
    )


def overlay_csv(series: SignalSeries, peaks: np.ndarray, troughs: np.ndarray) -> str:
    """The cycle table for plotting: the extrema in time order as
    t,value,kind,rise,fall,interval_s rows. A NaN is an empty cell, and a
    trough row leaves its last three cells empty."""
    cyc = _cycles(series, peaks, troughs)
    rows = [(i, True, f"{t!r},{v!r},peak," + ",".join("" if x != x else repr(x) for x in rest))
            for i, t, v, *rest in zip(*(col.tolist() for col in cyc.values()))]
    tr = np.asarray(troughs, dtype=int)
    rows += [(i, False, f"{t!r},{v!r},trough,,,")
             for i, t, v in zip(tr.tolist(), series.timestamps[tr].tolist(), series.values[tr].tolist())]
    return "\n".join(["t,value,kind,rise,fall,interval_s"] + [row for _, _, row in sorted(rows)]) + "\n"
