"""The six per-item motion signals built from landmark sequences.

``side_signal`` builds the five per-side signals, per frame:

* finger taps        A1 = angle(index_tip - wrist, thumb_tip - wrist)
* hand movement      D2 = mean distance of tips 8/12/16/20 to the wrist
* alternating hands  A3 = angle of (thumb_tip - pinky_tip) to the horizontal
* leg agility        A5 = angle at the hip between hip->knee and hip->shoulder
* foot taps          A6 = angle at the ankle between ankle->knee and ankle->foot tip

Every channel reads only the pose slot that ``core.CHANNEL_SLOTS`` names for
it. The three angle items differ only in their landmarks, which the
``_ANGLES`` table names per side.

Tremor (T4), built by ``tremor_signal``, is windowed: the x(t), y(t) of
every ``body`` landmark visible in all frames is high-pass filtered (zero-phase,
second-order Butterworth run forward-backward) and the window is flagged 1
iff any landmark's filtered displacement RMS exceeds the threshold. The
filter repeats the float operations of SciPy's
``scipy.signal.butter(2, cut, btype="highpass")`` and
``scipy.signal.filtfilt(b, a, x, axis=0)`` (Virtanen et al. 2020, Nature
Methods 17:261), so it gives the same bits without importing ``scipy.signal``.

Each signal is computed over all frames at once. The builders decide nothing
about missing poses: ``ingest.fill_gaps`` repairs absent and low-visibility
frames under the gap-fill policy before they get here. Frames still without
the pose, with a required landmark below the visibility threshold, or with
degenerate geometry give NaN and become gaps: the frame is skipped in that
channel's series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .core import Channel, LandmarkSequence, SignalSeries, UpdrsItem
from .errors import MissingLandmark, SequenceTooShort
from .kinematics import Plane, angle_between, angle_to_horizontal, distance, vector_between

__all__ = [
    "TremorConfig",
    "side_signal",
    "tremor_signal",
    "build_all",
    "signal_csv",
]


@dataclass(frozen=True)
class TremorConfig:
    """Operationalizes the "large movement" tremor criterion."""

    highpass_cutoff_hz: float = 2.0
    rms_threshold: float = 0.005  # normalized units, per-window displacement RMS
    window_s: float = 1.0
    overlap: float = 0.5

    def __post_init__(self):
        core.check_fields(self)
        if not self.highpass_cutoff_hz > 0:
            raise ValueError("highpass_cutoff_hz must be positive")
        if not self.rms_threshold > 0:
            raise ValueError("rms_threshold must be positive")
        if not self.window_s > 0:
            raise ValueError("window_s must be positive")
        if not 0.0 <= self.overlap < 1.0:
            raise ValueError("overlap must lie in [0, 1)")


# The angle items: per side, the vertex and the two ray ends.
_ANGLES = {
    UpdrsItem.FINGER_TAPS: {
        Channel.LEFT: (core.HAND_WRIST, core.INDEX_TIP, core.THUMB_TIP),
        Channel.RIGHT: (core.HAND_WRIST, core.INDEX_TIP, core.THUMB_TIP),
    },
    UpdrsItem.LEG_AGILITY: {
        Channel.LEFT: (core.LEFT_HIP, core.LEFT_KNEE, core.LEFT_SHOULDER),
        Channel.RIGHT: (core.RIGHT_HIP, core.RIGHT_KNEE, core.RIGHT_SHOULDER),
    },
    UpdrsItem.FOOT_TAPS: {
        Channel.LEFT: (core.LEFT_ANKLE, core.LEFT_KNEE, core.LEFT_FOOT_TIP),
        Channel.RIGHT: (core.RIGHT_ANKLE, core.RIGHT_KNEE, core.RIGHT_FOOT_TIP),
    },
}


def side_signal(
    seq: LandmarkSequence,
    channel: Channel,
    min_visibility: float = 0.0,
    plane: Plane = Plane.IMAGE_2D,
    normalize_palm: bool = False,
) -> SignalSeries:
    """The tagged item's signal on one side, over the frames that carry its
    slot and give a defined value. ``normalize_palm`` divides the hand-movement
    distance by the palm length; the other items ignore it."""
    item = seq.item
    if item is None:
        raise ValueError("sequence has no item tag")
    if item is UpdrsItem.TREMOR_AT_REST:
        raise ValueError("tremor_at_rest has one global signal; build it with tremor_signal")
    slot = core.CHANNEL_SLOTS[item].get(channel)
    if slot is None:
        raise ValueError(f"{item.value} has a left and a right signal, not {channel.value}")
    where = f"{item.value}/{channel.value}"
    if not seq.present[slot].any():
        raise MissingLandmark(f"no frame carries {slot} for {where}")
    pts = seq.poses[slot]
    if item in _ANGLES:
        vertex, ray_a, ray_b = _ANGLES[item][channel]
        u = vector_between(pts, ray_a, vertex, plane, min_visibility)
        v = vector_between(pts, ray_b, vertex, plane, min_visibility)
        values = angle_between(u, v)
    elif item is UpdrsItem.HAND_MOVEMENT:
        tips = (core.INDEX_TIP, core.MIDDLE_TIP, core.RING_TIP, core.PINKY_TIP)
        values = sum(distance(pts, t, core.HAND_WRIST, plane, min_visibility) for t in tips) / 4.0
        if normalize_palm:
            palm = distance(pts, core.MIDDLE_MCP, core.HAND_WRIST, plane, min_visibility)
            with np.errstate(divide="ignore", invalid="ignore"):
                values = np.where(palm <= 1e-12, np.nan, values / palm)
    else:  # alternating hands
        values = angle_to_horizontal(
            vector_between(pts, core.THUMB_TIP, core.PINKY_TIP, plane, min_visibility)
        )

    keep = ~np.isnan(values)  # an absent row is all NaN, so its value is too
    if not keep.any():
        raise MissingLandmark(
            f"every {where} value is undefined (low visibility or degenerate geometry)"
        )
    return SignalSeries(item, channel, values[keep], seq.timestamps[keep])


# ── tremor ───────────────────────────────────────────────────────────


def _butter_highpass(cut: float) -> tuple[np.ndarray, np.ndarray]:
    """(b, a) of the second-order digital Butterworth high-pass at ``cut``, a
    fraction of Nyquist, in the steps of ``butter``: the analog prototype, the
    pre-warp, ``lp2hp_zpk``, ``bilinear_zpk`` and ``zpk2tf``."""
    prototype = -np.exp(1j * np.pi * np.arange(-1, 2, 2, dtype=np.float64) / 4)
    warped = float(4.0 * np.tan(np.pi * np.asarray(cut, dtype=np.float64) / 2.0))
    # high-pass: the poles move to warped / p and the two zeros from infinity to 0
    gain = np.real(1.0 / np.prod(-prototype))
    poles = warped / prototype
    # bilinear transform at fs = 2, s -> 4 (z - 1) / (z + 1): both zeros land on z = 1
    gain = gain * np.real(16.0 / np.prod(4.0 - poles))
    poles = (4.0 + poles) / (4.0 - poles)
    a = np.ones(1, dtype=complex)
    for pole in poles:
        a = np.convolve(a, np.array([1.0 + 0j, -pole]))
    return gain * np.array([1.0, -2.0, 1.0]), a.real.copy()


def _lfilter(b: np.ndarray, a: np.ndarray, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Direct form II transposed along axis 0 from the state ``z`` (2, columns),
    in ``lfilter``'s order: y = z0 + b0 x, z0 = (z1 + b1 x) - a1 y, z1 = b2 x - a2 y."""
    # per sample the rows b0 x, b1 x, b2 x; the loop turns the first two into y and z1 + b1 x
    rows = x[:, None, :] * b[:, None]
    a12 = a[1:, None]
    z = z.copy()
    ay = np.empty_like(z)
    for row in rows:
        head = row[:2]
        np.add(head, z, out=head)
        np.multiply(a12, row[0], out=ay)
        np.subtract(row[1:], ay, out=z)
    return rows[:, 0]


def _filtfilt(b: np.ndarray, a: np.ndarray, x: np.ndarray, edge: int) -> np.ndarray:
    """Forward-backward filter along axis 0 with ``filtfilt``'s defaults: an odd
    extension of ``edge`` samples and the steady-state initial condition
    (``lfilter_zi``) scaled by the first sample of each pass."""
    ext = np.concatenate((2 * x[:1] - x[edge:0:-1], x, 2 * x[-1:] - x[-2 : -edge - 2 : -1]))
    # zi solves (I - A) zi = b[1:] - a[1:] b0 for the companion matrix A of a
    zi = np.linalg.solve(np.array([[1.0 + a[1], -1.0], [a[2], 1.0]]), b[1:] - a[1:] * b[0])[:, None]
    y = _lfilter(b, a, ext, zi * ext[0])
    y = _lfilter(b, a, y[::-1], zi * y[-1])
    return y[::-1][edge:-edge]


def tremor_signal(
    seq: LandmarkSequence,
    cfg: TremorConfig = TremorConfig(),
    min_visibility: float = 0.0,
) -> SignalSeries:
    """Windowed tremor flag series (one {0,1} value per window).

    The whole sequence is filtered once (zero-phase high-pass), then RMS is
    evaluated over sliding windows of ``cfg.window_s`` seconds with the
    configured overlap; each value sits at its window-center timestamp.
    The tracks are the ``body`` landmarks (the slot ``core.CHANNEL_SLOTS``
    names) visible at ``min_visibility`` in every frame: MissingLandmark if
    no frame carries the body or none of its landmarks is visible throughout.
    """
    slot = core.CHANNEL_SLOTS[UpdrsItem.TREMOR_AT_REST][Channel.GLOBAL]
    if not seq.present[slot].any():
        raise MissingLandmark(f"no frame carries {slot} for tremor_at_rest/global")
    n = len(seq)
    times = seq.timestamps
    if n < 2:
        raise SequenceTooShort("tremor analysis needs at least one full window")
    fs = (n - 1) / (times[-1] - times[0])
    win = max(2, int(round(cfg.window_s * fs)))
    hop = max(1, int(round(win * (1.0 - cfg.overlap))))
    if n < win:
        raise SequenceTooShort(
            f"{n} frames < one {cfg.window_s:.2f}s window ({win} frames at {fs:.1f} fps)"
        )

    pts = seq.poses[slot]
    tracks = pts[:, (pts[:, :, 3] >= min_visibility).all(axis=0), :2]  # (n, m, 2)
    if tracks.shape[1] == 0:
        raise MissingLandmark("no landmark visible across the whole sequence")

    nyquist = fs / 2.0
    cut = cfg.highpass_cutoff_hz / nyquist
    if cut >= 1.0:
        raise ValueError(
            f"highpass cutoff {cfg.highpass_cutoff_hz} Hz not below Nyquist {nyquist:.2f} Hz"
        )
    # Second-order Butterworth high-pass, |H(jw)|^2 = (w/wc)^4 / (1 + (w/wc)^4),
    # discretized by the bilinear transform at the normalized cutoff; filtfilt
    # applies it forward and backward for zero phase (magnitude squared).
    b, a = _butter_highpass(cut)
    padlen = 3 * max(len(a), len(b))
    if n <= padlen:
        raise SequenceTooShort(f"zero-phase filtering needs more than {padlen} frames, got {n}")
    flat = tracks.reshape(n, -1)
    try:
        filtered = _filtfilt(b, a, flat, padlen).reshape(n, -1, 2)
    except np.linalg.LinAlgError:
        # the poles round onto z = 1, so the filter has no steady state to start from
        raise ValueError(
            f"highpass_cutoff_hz {cfg.highpass_cutoff_hz} Hz is too low to filter at {fs:.1f} fps"
        ) from None
    # per-frame squared displacement of each landmark
    sq = filtered[:, :, 0] ** 2 + filtered[:, :, 1] ** 2

    # each window's largest displacement RMS over the landmarks, flagged above the threshold
    starts = np.arange(0, n - win + 1, hop)
    rms = np.array([np.sqrt(sq[s : s + win].mean(axis=0)).max() for s in starts])
    centers = 0.5 * (times[starts] + times[starts + win - 1])
    return SignalSeries(UpdrsItem.TREMOR_AT_REST, Channel.GLOBAL, (rms > cfg.rms_threshold).astype(float), centers)


# ── dispatch ─────────────────────────────────────────────────────────


def build_all(
    seq: LandmarkSequence,
    tremor_cfg: TremorConfig = TremorConfig(),
    min_visibility: float = 0.0,
    plane: Plane = Plane.IMAGE_2D,
    normalize_palm: bool = False,
) -> list[SignalSeries]:
    """Build every channel the tagged item defines whose pose slot some frame
    carries (``core.CHANNEL_SLOTS``); tremor yields a single Global series.
    When no channel's slot is carried, the first channel's ``side_signal``
    raises why (an untagged sequence raises there too).
    """
    if seq.item is UpdrsItem.TREMOR_AT_REST:
        return [tremor_signal(seq, tremor_cfg, min_visibility)]
    slots = core.CHANNEL_SLOTS.get(seq.item, {})
    carried = [channel for channel, slot in slots.items() if seq.present[slot].any()]
    return [side_signal(seq, channel, min_visibility, plane, normalize_palm) for channel in carried or [Channel.LEFT]]


def signal_csv(series: SignalSeries) -> str:
    """Per-channel CSV export: one t,value row per sample."""
    return "t,value\n" + "".join(map("{!r},{!r}\n".format, series.timestamps.tolist(), series.values.tolist()))
