"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its stated tolerance. Run with `pytest -v` (or -s to
see the lines inline)."""

import io
import json
import math
import time

import numpy as np
import pytest

from tests import naive_features as naive
from tests.conftest import (
    FEATURE_EDGE_SERIES,
    assert_extract_matches_rows_alone,
    body_pose,
    hand_pose,
    same_landmarks,
    sequence,
)
from walkup import core
from walkup.cli import main as cli_main
from walkup.core import SLOT_POINTS, Channel, LandmarkSequence, UpdrsItem
from walkup.features import (
    approximate_entropy_counts,
    default_specs,
    extract_values,
    fft_aggregated,
    fft_coefficient,
    sample_entropy_counts,
)
from walkup.ingest import parse_frames, serialize_jsonl
from walkup.peaks import PeakConfig, cadence_stats, detect_peaks
from walkup.signals import build_all, side_signal
from walkup.synth import MotionScenario, generate


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


# ── criterion 1: signal-formula fidelity ─────────────────────────────


def _acos_deg(u, v):
    dot = u[0] * v[0] + u[1] * v[1]
    nu = math.sqrt(u[0] * u[0] + u[1] * u[1])
    nv = math.sqrt(v[0] * v[0] + v[1] * v[1])
    return math.degrees(math.acos(max(-1.0, min(1.0, dot / (nu * nv)))))


def _sub(points, a, b):
    return (points[a][0] - points[b][0], points[a][1] - points[b][1])


def _oracle_finger_taps(hand):
    return _acos_deg(_sub(hand, 8, 0), _sub(hand, 4, 0))


def _oracle_hand_movement(hand):
    total = 0.0
    for tip in (8, 12, 16, 20):
        d = _sub(hand, tip, 0)
        total += math.sqrt(d[0] * d[0] + d[1] * d[1])
    return total / 4.0


def _oracle_alternating(hand):
    d = _sub(hand, 4, 20)
    return math.degrees(math.atan2(abs(d[1]), abs(d[0])))


def _oracle_leg(body, side):
    hip, knee, shoulder = (24, 26, 12) if side == "right" else (23, 25, 11)
    return _acos_deg(_sub(body, knee, hip), _sub(body, shoulder, hip))


def _oracle_foot(body, side):
    ankle, knee, tip = (28, 26, 32) if side == "right" else (27, 25, 31)
    return _acos_deg(_sub(body, knee, ankle), _sub(body, tip, ankle))


def _random_pose(rng, count):
    """count points with x, y uniform in [0, 1), z 0 and visibility 1."""
    return np.column_stack([rng.uniform(0.0, 1.0, size=(count, 2)), np.zeros(count), np.ones(count)])


def test_criterion_1_signal_formula_fidelity():
    rng = np.random.default_rng(101)
    n = 1000
    t0 = time.perf_counter()
    worst = 0.0

    hands = [_random_pose(rng, 21) for _ in range(n)]
    for item, oracle in (
        (UpdrsItem.FINGER_TAPS, _oracle_finger_taps),
        (UpdrsItem.HAND_MOVEMENT, _oracle_hand_movement),
        (UpdrsItem.ALTERNATING_HANDS, _oracle_alternating),
    ):
        series = side_signal(sequence(item=item, right_hand=hands), Channel.RIGHT)
        assert len(series) == n
        expected = np.array([oracle(h.tolist()) for h in hands])
        worst = max(worst, float(np.abs(series.values - expected).max()))

    bodies = [_random_pose(rng, 33) for _ in range(n)]
    for item, oracle in ((UpdrsItem.LEG_AGILITY, _oracle_leg), (UpdrsItem.FOOT_TAPS, _oracle_foot)):
        bseq = sequence(item=item, body=bodies)
        for channel in (Channel.LEFT, Channel.RIGHT):
            series = side_signal(bseq, channel)
            assert len(series) == n
            expected = np.array([oracle(b.tolist(), channel.value) for b in bodies])
            worst = max(worst, float(np.abs(series.values - expected).max()))

    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 5.0
    _report(
        "criterion 1 (signal-formula fidelity)", ok,
        f"max |builder - equation| = {worst:.3e} over {n} poses/item (tol 1e-9), {elapsed:.2f}s",
    )


# ── criterion 2: geometric invariances ───────────────────────────────


def _apply(pts, scale, theta, tx, ty, rotate):
    c, s = math.cos(theta), math.sin(theta)
    x, y = pts[:, 0], pts[:, 1]
    if rotate:
        x, y = c * x - s * y, s * x + c * y
    out = np.zeros_like(pts)
    out[:, 0], out[:, 1], out[:, 3] = scale * x + tx, scale * y + ty, 1.0
    return out


def _angled_hand(rng):
    """Finger-tap hand with a well-conditioned angle in [1, 179] degrees."""
    w = rng.uniform(0.2, 0.8, size=2)
    phi = rng.uniform(0, 2 * math.pi)
    a = math.radians(rng.uniform(1.0, 179.0))
    r1, r2 = rng.uniform(0.05, 0.4, size=2)
    over = {
        0: tuple(w),
        8: (w[0] + r1 * math.cos(phi), w[1] + r1 * math.sin(phi)),
        4: (w[0] + r2 * math.cos(phi + a), w[1] + r2 * math.sin(phi + a)),
    }
    return hand_pose(over)


def _one_frame_hand_series(item, pts):
    return side_signal(sequence([0.0], item=item, right_hand=[pts]), Channel.RIGHT).values[0]


def _one_frame_body_series(item, pts):
    return side_signal(sequence([0.0], item=item, body=[pts]), Channel.RIGHT).values[0]


def _angled_body(rng, vertex, ray_a, ray_b, max_angle):
    v = rng.uniform(0.2, 0.8, size=2)
    phi = rng.uniform(0, 2 * math.pi)
    a = math.radians(rng.uniform(1.0, max_angle))
    r1, r2 = rng.uniform(0.05, 0.4, size=2)
    over = {
        vertex: tuple(v),
        ray_a: (v[0] + r1 * math.cos(phi), v[1] + r1 * math.sin(phi)),
        ray_b: (v[0] + r2 * math.cos(phi + a), v[1] + r2 * math.sin(phi + a)),
    }
    return body_pose(over)


def test_criterion_2_geometric_invariances():
    rng = np.random.default_rng(202)
    n = 500
    t0 = time.perf_counter()
    worst_angle = 0.0
    worst_a3 = 0.0
    worst_d2 = 0.0

    for _ in range(n):
        scale = rng.uniform(0.2, 5.0)
        theta = rng.uniform(0, 2 * math.pi)
        tx, ty = rng.uniform(-1.0, 1.0, size=2)

        # rotation included for the three pure-angle signals
        hand = _angled_hand(rng)
        base = _one_frame_hand_series(UpdrsItem.FINGER_TAPS, hand)
        moved = _one_frame_hand_series(
            UpdrsItem.FINGER_TAPS, _apply(hand, scale, theta, tx, ty, rotate=True)
        )
        worst_angle = max(worst_angle, abs(moved - base))

        body = _angled_body(rng, core.RIGHT_HIP, core.RIGHT_KNEE, core.RIGHT_SHOULDER, 179.0)
        base = _one_frame_body_series(UpdrsItem.LEG_AGILITY, body)
        moved = _one_frame_body_series(
            UpdrsItem.LEG_AGILITY, _apply(body, scale, theta, tx, ty, rotate=True)
        )
        worst_angle = max(worst_angle, abs(moved - base))

        body = _angled_body(rng, core.RIGHT_ANKLE, core.RIGHT_KNEE, core.RIGHT_FOOT_TIP, 179.0)
        base = _one_frame_body_series(UpdrsItem.FOOT_TAPS, body)
        moved = _one_frame_body_series(
            UpdrsItem.FOOT_TAPS, _apply(body, scale, theta, tx, ty, rotate=True)
        )
        worst_angle = max(worst_angle, abs(moved - base))

        # orientation signal: translation + positive scale only
        hand = _angled_hand(rng)
        base = _one_frame_hand_series(UpdrsItem.ALTERNATING_HANDS, hand)
        moved = _one_frame_hand_series(
            UpdrsItem.ALTERNATING_HANDS, _apply(hand, scale, 0.0, tx, ty, rotate=False)
        )
        worst_a3 = max(worst_a3, abs(moved - base))

        # distance signal homogeneity
        hand = _random_pose(rng, 21)
        base = _one_frame_hand_series(UpdrsItem.HAND_MOVEMENT, hand)
        moved = _one_frame_hand_series(
            UpdrsItem.HAND_MOVEMENT, _apply(hand, scale, 0.0, tx, ty, rotate=False)
        )
        worst_d2 = max(worst_d2, abs(moved - scale * base) / max(1.0, scale * base))

    elapsed = time.perf_counter() - t0
    ok = worst_angle < 1e-9 and worst_a3 < 1e-9 and worst_d2 < 1e-12 and elapsed < 5.0
    _report(
        "criterion 2 (geometric invariances)", ok,
        f"angles {worst_angle:.3e} (tol 1e-9), orientation {worst_a3:.3e} (tol 1e-9), "
        f"distance homogeneity {worst_d2:.3e} (tol 1e-12), {n} transforms, {elapsed:.2f}s",
    )


# ── criterion 3: feature oracle equivalence ──────────────────────────


def _relative_close(got, want, tol=1e-9):
    return abs(got - want) <= tol * max(1.0, abs(got), abs(want))


def test_criterion_3_feature_oracle_equivalence():
    rng = np.random.default_rng(303)
    specs = default_specs()
    t0 = time.perf_counter()
    worst = 0.0
    count_mismatches = 0
    for x in FEATURE_EDGE_SERIES:
        assert_extract_matches_rows_alone(x, specs)
    for _ in range(200):
        n = int(rng.integers(3, 513))
        x = rng.normal(loc=rng.uniform(-2, 2), scale=rng.uniform(0.5, 3), size=n)
        assert_extract_matches_rows_alone(x, specs)
        entries = {e.feature_id: e for e in extract_values(x, specs).entries}  # the path analyze runs
        for spec in specs:
            got, reason = entries[spec.feature_id].value, entries[spec.feature_id].reason
            want = naive.NAIVE[spec.name](list(x), **spec.kwargs)
            if reason is not None:
                assert want is None, f"{spec.feature_id}: engine NaN({reason}) oracle {want}"
            else:
                assert want is not None, f"{spec.feature_id}: oracle None engine {got}"
                err = abs(got - want) / max(1.0, abs(got), abs(want))
                worst = max(worst, err)
                assert _relative_close(got, want), f"{spec.feature_id} n={n}: {got} vs {want}"
        if n >= 4:
            sd = float(np.std(x))
            if sd > 0:
                r = 0.2 * sd
                if sample_entropy_counts(x, 2, r) != naive.sampen_counts(x, 2, r):
                    count_mismatches += 1
                for m in (2, 3):
                    if list(approximate_entropy_counts(x, m, r)) != naive.apen_counts(x, m, r):
                        count_mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and count_mismatches == 0 and elapsed < 60.0
    _report(
        "criterion 3 (feature oracle equivalence)", ok,
        f"21 features x 200 series, {len(FEATURE_EDGE_SERIES)} edge series through extract_values: "
        f"max rel err {worst:.3e} (tol 1e-9), "
        f"{count_mismatches} count mismatches, {elapsed:.1f}s",
    )


# ── criterion 4: spectral correctness ────────────────────────────────


def test_criterion_4_spectral_correctness():
    worst_mass = 0.0
    worst_centroid = 0.0
    for n, tone in ((64, 4), (128, 11), (256, 3)):
        t = np.arange(n)
        x = np.cos(2 * math.pi * tone * t / n)
        for k in range(n // 2 + 1):
            got = fft_coefficient(x, coeff=k)[0]
            expected = n / 2.0 if k == tone else 0.0
            worst_mass = max(worst_mass, abs(got - expected))
        centroid = fft_aggregated(x, attr="centroid")[0]
        worst_centroid = max(worst_centroid, abs(centroid - tone))
    ok = worst_mass < 1e-9 and worst_centroid < 1e-6
    _report(
        "criterion 4 (spectral correctness)", ok,
        f"|X_k| error {worst_mass:.3e} (tol 1e-9), centroid error {worst_centroid:.3e} (tol 1e-6)",
    )


# ── criterion 5: synthetic end-to-end ────────────────────────────────


def test_criterion_5_synthetic_end_to_end():
    t0 = time.perf_counter()
    sc = MotionScenario(
        item=UpdrsItem.FINGER_TAPS, duration_s=10.0, fps=30.0,
        base_amplitude=40.0, frequency_hz=1.0, seed=55,
    )
    series = build_all(generate(sc))[-1]
    peaks, troughs = detect_peaks(series, PeakConfig())
    stats = cadence_stats(series, peaks, troughs)

    slow = MotionScenario(
        item=UpdrsItem.FINGER_TAPS, duration_s=16.0, fps=100.0,
        base_amplitude=40.0, frequency_hz=1.0,
        interval_growth_s_per_cycle=0.1, seed=56,
    )
    s2 = build_all(generate(slow))[-1]
    p2, t2 = detect_peaks(s2, PeakConfig())
    stats2 = cadence_stats(s2, p2, t2)

    elapsed = time.perf_counter() - t0
    ok = (
        stats.peak_count == 10
        and abs(stats.mean_amplitude - 40.0) <= 0.5
        and abs(stats.interval_slope_s_per_cycle) <= 1e-3
        and stats2.interval_slope_s_per_cycle is not None
        and abs(stats2.interval_slope_s_per_cycle - 0.1) <= 0.005
        and stats2.interval_slope_s_per_cycle > 0  # signed slowing-down detection
        and elapsed < 10.0
    )
    _report(
        "criterion 5 (synthetic end-to-end)", ok,
        f"steady: {stats.peak_count} peaks (want 10), amplitude "
        f"{stats.mean_amplitude:.3f} (40 +/- 0.5), slope {stats.interval_slope_s_per_cycle:.2e} "
        f"(0 +/- 1e-3); decelerating: slope {stats2.interval_slope_s_per_cycle:.4f} "
        f"(0.1 +/- 0.005); {elapsed:.2f}s",
    )


# ── criterion 6: tremor discrimination ───────────────────────────────


def test_criterion_6_tremor_discrimination():
    t0 = time.perf_counter()
    shaking = build_all(
        generate(MotionScenario(item=UpdrsItem.TREMOR_AT_REST, tremor_amplitude=0.02,
                                tremor_freq_hz=5.0, seed=66))
    )[0]
    static = build_all(
        generate(MotionScenario(item=UpdrsItem.TREMOR_AT_REST, tremor_amplitude=0.0, seed=66))
    )[0]
    drift = build_all(
        generate(MotionScenario(item=UpdrsItem.TREMOR_AT_REST, tremor_amplitude=0.05,
                                tremor_freq_hz=0.1, seed=66))
    )[0]
    elapsed = time.perf_counter() - t0
    ok = (
        (shaking.values == 1.0).all()
        and (static.values == 0.0).all()
        and (drift.values == 0.0).all()
        and elapsed < 5.0
    )
    _report(
        "criterion 6 (tremor discrimination)", ok,
        f"5Hz/0.02: {int(shaking.values.sum())}/{len(shaking)} ones; "
        f"static: {int(static.values.sum())} ones; drift: {int(drift.values.sum())} ones; "
        f"{elapsed:.2f}s",
    )


# ── criterion 7: CLI determinism + config hash ───────────────────────


def test_criterion_7_cli_determinism(tmp_path):
    fixtures = []
    for item, seed in (("finger_taps", 1), ("leg_agility", 2), ("tremor_at_rest", 3)):
        path = tmp_path / f"{item}.jsonl"
        args = ["synth", "--item", item, "--out", str(path), "--seed", str(seed)]
        if item == "tremor_at_rest":
            args += ["--tremor-amplitude", "0.02"]
        assert cli_main(args) == 0
        fixtures.append(str(path))

    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli_main(["analyze", "--in", *fixtures, "--out", str(out1)]) == 0
    assert cli_main(["analyze", "--in", *fixtures, "--out", str(out2)]) == 0

    files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
    identical = files1 == files2 and all(
        (out1 / f).read_bytes() == (out2 / f).read_bytes() for f in files1
    )

    override = tmp_path / "override"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"peaks": {"min_prominence": 0.25}}))
    assert cli_main(["analyze", "--in", fixtures[0], "--out", str(override),
                     "--config", str(cfg)]) == 0
    h_default = json.loads((out1 / "synth-1_finger_taps" / "report.json").read_text())["config_hash"]
    h_override = json.loads((override / "report.json").read_text())["config_hash"]

    ok = identical and len(files1) > 0 and h_default != h_override
    _report(
        "criterion 7 (determinism)", ok,
        f"{len(files1)} files byte-identical across runs: {identical}; "
        f"hash changes on override: {h_default != h_override}",
    )


# ── criterion 8: JSONL round trip ────────────────────────────────────


def _random_sequence(rng):
    n = int(rng.integers(1, 8))
    fps = float(rng.uniform(1.0, 240.0))
    times, slots = [], {slot: [] for slot in SLOT_POINTS}
    t = 0.0
    for _ in range(n):
        # uneven frame intervals around the declared period, which parse checks them against
        t += float(rng.uniform(0.6, 1.6)) / fps
        kind = int(rng.integers(0, 3))
        x, y = (float(v) for v in rng.uniform(-1.5, 1.5, size=2))
        frame = [
            {"body": body_pose({0: (x, y)})},
            {"left_hand": hand_pose({3: (x, y)})},
            {"body": body_pose({5: (x, y)}), "right_hand": hand_pose({2: (y, x)})},
        ][kind]
        times.append(t)
        for slot, poses in slots.items():
            poses.append(frame.get(slot))
    item = rng.choice([None, *UpdrsItem])
    return sequence(times, fps, item, f"s{int(rng.integers(0, 99))}", **slots)


def _sequences_equal(a: LandmarkSequence, b: LandmarkSequence) -> bool:
    return (a.fps, a.item, a.subject_id) == (b.fps, b.item, b.subject_id) and same_landmarks(a, b)


def test_criterion_8_jsonl_round_trip():
    rng = np.random.default_rng(808)
    failures = 0
    for _ in range(100):
        seq = _random_sequence(rng)
        back = parse_frames(io.StringIO(serialize_jsonl(seq)))
        if not _sequences_equal(seq, back):
            failures += 1
    _report(
        "criterion 8 (JSONL round trip)", failures == 0,
        f"{100 - failures}/100 random sequences lossless",
    )
