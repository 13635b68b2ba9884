import hashlib
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import betainc

from tests import naive_features as naive
from tests.conftest import FEATURE_EDGE_SERIES, assert_extract_matches_rows_alone, make_series
from walkup import features
from walkup.errors import EmptySeries, UnknownFeature, WalkupError
from walkup.features import (
    FeatureEntry,
    FeatureSpec,
    approximate_entropy_counts,
    default_specs,
    extract,
    extract_values,
    features_csv,
    features_json_payload,
    sample_entropy_counts,
)


def one(name, x, **kwargs):
    """(value, reason) of calculator ``name`` on x, run as extract_values runs a row of it."""
    (entry,) = extract_values(x, [FeatureSpec(name, getattr(features, name), kwargs)]).entries
    return entry.value, entry.reason


# ── simple statistics ────────────────────────────────────────────────


def test_abs_energy_small_example():
    value, reason = one("abs_energy", [1, 2, 3])
    assert (value, reason) == (14.0, None)


def test_absolute_sum_of_changes_small_example():
    value, reason = one("absolute_sum_of_changes", [1, 2, 3])
    assert (value, reason) == (2.0, None)


def test_mean_abs_change_matches_sum():
    x = [1.0, -2.0, 4.0]
    assert one("mean_abs_change", x)[0] == pytest.approx(one("absolute_sum_of_changes", x)[0] / 2)


def test_root_mean_square():
    assert one("root_mean_square", [3, 4])[0] == pytest.approx(math.sqrt(12.5))


def test_variance_constant_is_zero():
    assert one("variance", [5.0] * 8) == (0.0, None)


def test_variation_coefficient_zero_mean():
    value, reason = one("variation_coefficient", [-1.0, 1.0])
    assert math.isnan(value) and reason == "zero mean"


def test_kurtosis_degenerate():
    value, reason = one("kurtosis", [0.0, 0.0, 0.0, 0.0])
    assert math.isnan(value) and reason == "zero variance"


def test_kurtosis_matches_bias_adjusted_estimator(rng):
    x = rng.normal(size=100)
    from scipy.stats import kurtosis as scipy_kurtosis

    assert one("kurtosis", x)[0] == pytest.approx(
        float(scipy_kurtosis(x, fisher=True, bias=False)), rel=1e-12
    )


def test_quantile_median_interpolation():
    assert one("quantile", [1, 2, 3, 4], q=0.5) == (2.5, None)


# ── autocorrelation family ───────────────────────────────────────────


def test_autocorrelation_lag1_exact():
    # direct evaluation of the R(l) formula gives 1/3 for [1,2,3,4]
    assert one("autocorrelation", [1, 2, 3, 4], lag=1)[0] == pytest.approx(1 / 3, abs=1e-12)


def test_autocorrelation_lag0_definitional(rng):
    assert one("autocorrelation", rng.normal(size=20), lag=0) == (1.0, None)
    assert one("partial_autocorrelation", rng.normal(size=20), lag=0) == (1.0, None)


def test_autocorrelation_too_short():
    value, reason = one("autocorrelation", [1.0, 2.0], lag=5)
    assert math.isnan(value) and reason == "series shorter than lag"


def test_autocorrelation_constant():
    value, reason = one("autocorrelation", [2.0, 2.0, 2.0], lag=1)
    assert math.isnan(value) and reason == "zero variance"


def test_pacf_lag1_equals_acf_lag1(rng):
    x = rng.normal(size=64)
    assert one("partial_autocorrelation", x, lag=1)[0] == pytest.approx(
        one("autocorrelation", x, lag=1)[0], abs=1e-12
    )


def test_agg_autocorrelation_mean_of_first_two(rng):
    x = rng.normal(size=50)
    expected = (one("autocorrelation", x, lag=1)[0] + one("autocorrelation", x, lag=2)[0]) / 2
    assert one("agg_autocorrelation", x, maxlag=2)[0] == pytest.approx(
        expected, rel=1e-12
    )


# ── entropies ────────────────────────────────────────────────────────


def test_entropies_constant_series():
    for name in ("approximate_entropy", "sample_entropy"):
        value, reason = one(name, [1.0] * 30, m=2, r_factor=0.2)
        assert math.isnan(value) and reason == "zero std"


def test_sample_entropy_periodic_is_zero():
    x = [0.0, 1.0] * 25
    value, reason = one("sample_entropy", x, m=2, r_factor=0.2)
    assert reason is None
    assert value == pytest.approx(0.0, abs=1e-9)  # every m-match extends


def test_sample_entropy_counts_match_brute_force(rng):
    for n in (10, 25, 60):
        x = rng.normal(size=n)
        r = 0.2 * float(np.std(x))
        assert sample_entropy_counts(x, 2, r) == naive.sampen_counts(x, 2, r)


def _tie_heavy_cases(rng):
    """Series whose template distances land exactly on the tolerance r."""
    for _ in range(25):
        n = int(rng.integers(6, 60))
        yield rng.integers(-3, 4, size=n).astype(float), float(rng.integers(0, 3))
        yield np.round(rng.normal(size=n), 1), round(0.1 * int(rng.integers(0, 6)), 1)
        period = int(rng.integers(2, 8))
        cycle = np.round(rng.normal(size=period), 2)
        yield np.tile(cycle, n // period + 1)[:n], float(rng.choice([0.0, 0.01, 0.5]))
        # a constant tail: the last template matches many others
        tail = np.round(rng.normal(size=n), 1)
        tail[int(rng.integers(0, n - 3)) :] = 0.5
        yield tail, float(rng.choice([0.0, 0.1]))
        # mostly constant 0/1: long runs of identical templates
        yield (rng.random(n) < 0.05).astype(float), float(rng.choice([0.0, 0.2, 1.0]))
        # r equal to a first-coordinate difference (m <= 3), so that a window end lands on it
        walk = rng.normal(size=n)
        i, j = rng.integers(0, n - 3, size=2)
        yield walk, float(abs(walk[i] - walk[j]))


def test_entropy_counts_exact_on_ties(rng):
    for x, r in _tie_heavy_cases(rng):
        for m in (1, 2, 3):
            assert sample_entropy_counts(x, m, r) == naive.sampen_counts(x, m, r), (x, m, r)
            assert list(approximate_entropy_counts(x, m, r)) == naive.apen_counts(x, m, r), (x, m, r)


def test_extract_entropies_equal_standalone_on_ties(rng):
    specs = [
        FeatureSpec(f"{name}__m={m}__r_factor={r_factor}", getattr(features, name), {"m": m, "r_factor": r_factor})
        for name in ("approximate_entropy", "sample_entropy")
        for m in (1, 2, 3)
        for r_factor in (0.1, 0.2, 0.5)
    ]
    for x, _ in _tie_heavy_cases(rng):
        assert_extract_matches_rows_alone(x, specs)


def test_extract_runs_one_count_pass_per_entropy_setting(rng, monkeypatch):
    passes = []

    def counting(x, m, r):
        passes.append((len(x), m, r))
        return entropy_counts(x, m, r)

    entropy_counts = features._entropy_counts
    monkeypatch.setattr(features, "_entropy_counts", counting)
    x = rng.normal(size=200)
    extract_values(x, default_specs())
    assert passes == [(200, 2, 0.2 * float(np.std(x)))]  # read by ApEn and SampEn


def test_extract_computes_each_acf_lag_and_levinson_order_once(rng, monkeypatch):
    lags, orders = [], []

    def counting_acf(x, lag):
        lags.append(lag)
        return acf(x, lag)

    def counting_levinson(rho):
        orders.append(len(rho))
        return levinson(rho)

    acf, levinson = features._acf, features._durbin_levinson
    monkeypatch.setattr(features, "_acf", counting_acf)
    monkeypatch.setattr(features, "_durbin_levinson", counting_levinson)
    extract_values(rng.normal(size=200), default_specs())
    # ACF lags 1-5 feed autocorrelation, agg_autocorrelation and the solves;
    # PACF lag k reads order k, and AR(k, 4) shares order 4 with PACF lag 4
    assert sorted(lags) == [1, 2, 3, 4, 5]
    assert sorted(orders) == [1, 2, 3, 4, 5]


def test_entropy_counts_exact_on_mostly_constant_long_series(rng):
    # 95% zeros: most values share one window. With 0 < r < 1 a 0/1 template
    # matches exactly its identical copies.
    x = (rng.random(18000) < 0.05).astype(float)
    r = 0.2 * float(np.std(x))

    def copies(templates):
        _, inverse, number = np.unique(templates, axis=0, return_inverse=True, return_counts=True)
        return number[inverse.ravel()]

    t2 = np.lib.stride_tricks.sliding_window_view(x, 2)
    t3 = np.lib.stride_tricks.sliding_window_view(x, 3)
    assert np.array_equal(approximate_entropy_counts(x, 2, r), copies(t2))
    # SampEn: the first n - m templates, each unordered pair of copies once
    a, b = (int((copies(t) - 1).sum()) // 2 for t in (t3, t2[:-1]))
    assert sample_entropy_counts(x, 2, r) == (a, b)


def _assert_counts_exact(x, m, r):
    c_m, c_m1 = features._entropy_counts(x, m, r)
    assert list(c_m) == naive.apen_counts(x, m, r)
    assert list(c_m1) == naive.apen_counts(x, m + 1, r)
    assert sample_entropy_counts(x, m, r) == naive.sampen_counts(x, m, r)


def test_entropy_counts_exact_on_lattice_ties_across_column_blocks(rng):
    # values and r on a 0.1 lattice, so distances land exactly on r, and more
    # partner templates than one column block holds
    n = features._BLOCK + 100
    x = np.round(np.cumsum(rng.choice([-0.1, 0.0, 0.1], size=n)) % 1.0, 1)
    _assert_counts_exact(x, 2, 0.1)


def test_entropy_counts_exact_when_shifts_cross_words(rng):
    # m >= 64: a shift by k bits crosses k // 64 whole words; a periodic series
    # with sparse 0.1 steps, so some templates match, some exactly at r = 0.1
    cycle = np.round(rng.normal(size=37), 1)
    step = rng.choice([-0.1, 0.0, 0.1], p=[0.01, 0.98, 0.01], size=8 * 37)
    x = np.tile(cycle, 8) + step
    for m in (63, 64, 65):
        _assert_counts_exact(x, m, 0.1)
        assert (features._entropy_counts(x, m, 0.1)[1] > 1).any()


def test_entropy_counts_exact_on_jittered_rest(rng):
    # 60% of the series dwells near one value without repeating it exactly
    t = np.arange(3600) / 60.0
    x = np.sin(2 * math.pi * 1.5 * t) + 0.05 * rng.normal(size=t.size)
    x[:2160] = 0.3 + 1e-4 * rng.normal(size=2160)
    _assert_counts_exact(x, 2, 0.2 * float(np.std(x)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_entropy_counts_reject_non_finite_values(bad):
    x = [1.0, 2.0, bad, 0.5, 1.5, 2.5]
    with pytest.raises(WalkupError, match="non-finite"):
        approximate_entropy_counts(x, 2, 0.5)
    with pytest.raises(WalkupError, match="non-finite"):
        sample_entropy_counts(x, 2, 0.5)


def test_entropy_counts_negative_tolerance_match_nothing(rng):
    x = rng.normal(size=30)
    assert sample_entropy_counts(x, 2, -0.1) == naive.sampen_counts(x, 2, -0.1) == (0, 0)
    assert list(approximate_entropy_counts(x, 2, -0.1)) == naive.apen_counts(x, 2, -0.1)


def test_sample_entropy_counts_long_series_exact_and_small(rng):
    # 300 s at 60 fps: a dense n x n distance matrix would need gigabytes here
    t = np.arange(18000) / 60.0
    x = np.sin(2 * math.pi * 1.5 * t) + 0.05 * rng.normal(size=t.size)
    r = 0.2 * float(np.std(x))
    tracemalloc.start()
    try:
        got = sample_entropy_counts(x, 2, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert got == naive.sampen_counts(x, 2, r)


def test_approximate_entropy_matches_brute_force(rng):
    x = rng.normal(size=40)
    got = one("approximate_entropy", x, m=2, r_factor=0.2)[0]
    assert got == pytest.approx(naive.approximate_entropy(list(x), 2, 0.2), abs=1e-12)


# ── spectral family ──────────────────────────────────────────────────


def test_fft_coefficient_single_tone():
    t = np.arange(8)
    x = np.cos(2 * math.pi * t / 8)
    assert one("fft_coefficient", x, coeff=1)[0] == pytest.approx(4.0, abs=1e-9)
    for k in (0, 2, 3, 4):
        assert one("fft_coefficient", x, coeff=k)[0] == pytest.approx(0.0, abs=1e-9)


def test_fft_coefficient_constant_dc_only():
    x = [2.5] * 6
    assert one("fft_coefficient", x, coeff=0)[0] == pytest.approx(15.0, abs=1e-9)
    assert one("fft_coefficient", x, coeff=3)[0] == pytest.approx(0.0, abs=1e-9)


def test_fft_coefficient_out_of_range():
    value, reason = one("fft_coefficient", [1.0, 2.0], coeff=5)
    assert math.isnan(value) and reason == "coeff out of range"


def test_fft_aggregated_centroid_single_tone():
    n, tone = 64, 4
    t = np.arange(n)
    x = np.cos(2 * math.pi * tone * t / n)
    assert one("fft_aggregated", x, attr="centroid")[0] == pytest.approx(tone, abs=1e-6)
    assert one("fft_aggregated", x, attr="variance")[0] == pytest.approx(0.0, abs=1e-6)


def test_fft_aggregated_zero_spectrum():
    value, reason = one("fft_aggregated", [0.0, 0.0, 0.0], attr="centroid")
    assert math.isnan(value) and reason == "zero spectrum"


# ── model family ─────────────────────────────────────────────────────


def test_ar_coefficient_recovers_generator(rng):
    phi = 0.5
    n = 2000
    x = np.zeros(n)
    eps = rng.normal(size=n)
    for t in range(1, n):
        x[t] = phi * x[t - 1] + eps[t]
    assert one("ar_coefficient", x, k=1, p=1)[0] == pytest.approx(phi, abs=0.05)


def test_linear_trend_exact_line():
    x = [1, 2, 3, 4, 5]
    assert one("linear_trend", x, attr="slope")[0] == pytest.approx(1.0, abs=1e-12)
    assert one("linear_trend", x, attr="rvalue")[0] == pytest.approx(1.0, abs=1e-12)
    assert one("linear_trend", x, attr="intercept")[0] == pytest.approx(1.0, abs=1e-12)
    assert one("linear_trend", x, attr="pvalue")[0] == pytest.approx(0.0, abs=1e-12)
    assert one("linear_trend", x, attr="stderr")[0] == pytest.approx(0.0, abs=1e-12)


def test_linear_trend_matches_linregress(rng):
    from scipy.stats import linregress

    x = rng.normal(size=40).cumsum()
    ref = linregress(np.arange(len(x)), x)
    for attr in ("slope", "intercept", "rvalue", "pvalue", "stderr"):
        assert one("linear_trend", x, attr=attr)[0] == pytest.approx(
            float(getattr(ref, attr)), rel=1e-9, abs=1e-12
        )


def _pvalue_cases(rng):
    """(df, t) over small and large df, t near 0, near the fraction's swap point and far out."""
    for df in [1, 2, 3, 30, 298, 3598, 17998] + [int(v) for v in rng.integers(1, 20001, 12)]:
        a = df / 2
        ts = [0.0, 1e-300, 1e-9, 1e-3, 0.5, 1.0, 2.0, 5.0, 30.0] + list(10 ** rng.uniform(-6, 3, 20))
        swap = (a + 1) / (a + 2.5)
        xs = list(swap + (1 - swap) * rng.uniform(-3.0, 0.9, 15)) + [10 ** (-260 / a)]
        ts += [math.sqrt(df / x - df) for x in xs if 0.0 < x < 1.0]
        for t in ts:
            yield df, t


def test_linear_trend_pvalue_matches_betainc(rng):
    tails = 0
    for df, t in _pvalue_cases(rng):
        x = df / (df + t * t)
        want = float(betainc(df / 2, 0.5, x))
        got = features._betainc_half(df / 2, x)
        # below the smallest normal double neither side keeps 12 digits, and
        # betainc flushes to 0 from about 1e-310
        assert abs(got - want) <= 1e-12 * want or max(got, want) < sys.float_info.min, (df, t, got, want)
        tails += want < 1e-250
    assert tails >= 18  # every df but 1, where x >= 2.2e-308 keeps p above 1e-154


def test_adf_separates_walk_from_noise(rng):
    walk = rng.normal(size=500).cumsum()
    noise = rng.normal(size=500)
    t_walk = one("augmented_dickey_fuller", walk, attr="teststat", lag=1)[0]
    t_noise = one("augmented_dickey_fuller", noise, attr="teststat", lag=1)[0]
    assert t_walk > -1.5
    assert t_noise < -10.0


def test_adf_usedlag():
    x = list(range(30))
    assert one("augmented_dickey_fuller", x, attr="usedlag", lag=1) == (1.0, None)


def test_adf_rank_deficient_on_linear_ramp():
    # a perfect ramp makes the constant and lagged-diff columns collinear
    value, reason = one("augmented_dickey_fuller", list(range(40)), attr="teststat", lag=1)
    assert math.isnan(value) and reason in ("rank deficient", "zero residual variance")


# ── misc family ──────────────────────────────────────────────────────


def test_benford_powers_of_two():
    x = [2.0**k for k in range(9)]
    value, reason = one("benford_correlation", x)
    assert reason is None
    assert value > 0.9


def test_first_digits_equal_format_float_scientific(rng):
    powers = [float(f"1e{e}") for e in range(-300, 301)]
    values = [w for v in powers for w in (np.nextafter(v, 0.0), v, np.nextafter(v, math.inf))]
    values += [5e-324, 1e-323, 2.5e-322, 1e-310, 2.2250738585072014e-308, np.nextafter(2.2250738585072014e-308, 0.0)]
    values += [9.5, 9.9999999999999, 9.999999999999998, np.nextafter(10.0, 0.0), 1.7976931348623157e308]
    values += list(rng.normal(size=2000) * 10.0 ** rng.uniform(-300, 300, 2000))
    values = np.array(values + [-v for v in values[:50]])
    want = [int(np.format_float_scientific(abs(v))[0]) for v in values]
    assert features._first_digits(values).tolist() == want


def test_benford_no_nonzero():
    value, reason = one("benford_correlation", [0.0, 0.0])
    assert math.isnan(value) and reason == "no nonzero values"


def test_benford_one_of_each_digit_has_zero_variance():
    # a flat first-digit histogram has no correlation with any other
    value, reason = one("benford_correlation", np.arange(1.0, 10.0))
    assert math.isnan(value) and reason == "zero variance"


def test_cid_ce_unnormalized_unit_steps():
    assert one("cid_ce", [0, 1, 0, 1], normalize=False)[0] == pytest.approx(math.sqrt(3))


def test_cid_ce_normalized_constant():
    value, reason = one("cid_ce", [3.0, 3.0, 3.0], normalize=True)
    assert math.isnan(value) and reason == "zero std"


def test_change_quantiles_full_corridor_equals_mean_abs_change(rng):
    x = rng.normal(size=30)
    full = one("change_quantiles", x, ql=0.0, qh=1.0)[0]
    assert full == pytest.approx(one("mean_abs_change", x)[0], rel=1e-12)


def test_change_quantiles_empty_corridor_zero():
    x = [0.0, 10.0, 0.0, 10.0]
    assert one("change_quantiles", x, ql=0.4, qh=0.6) == (0.0, None)


# ── the feature table ────────────────────────────────────────────────


def test_default_set_size_and_determinism():
    specs = default_specs()
    assert len(specs) == 43
    ids = [s.feature_id for s in specs]
    assert len(set(ids)) == 43


def test_default_ids_are_pinned():
    # the ids key every report.json and features table, so a changed id changes every output
    ids = "\n".join(sorted(s.feature_id for s in default_specs()))
    assert hashlib.sha256(ids.encode()).hexdigest() == (
        "38b5377af5bba63eb381cdd5751161db2eab358435a5f15f6fba5496749f08ed"
    )


def test_feature_id_grammar():
    # an id is the calculator's name, then "__key=value" per setting, a bool as true or false
    for spec in default_specs():
        name, *settings = spec.feature_id.split("__")
        assert name == spec.name, spec.feature_id
        assert all(len(s.split("=")) == 2 for s in settings), spec.feature_id
    ids = {s.feature_id for s in default_specs()}
    assert {"abs_energy", "quantile__q=0.5", "cid_ce__normalize=false"} <= ids
    assert "change_quantiles__ql=0.1__qh=0.9__isabs=true__f_agg=mean" in ids


def test_table_keeps_what_the_benchmark_reads(rng):
    # the benchmark reads each row's .feature_id and .name, and replays extract
    # with the entropies apart from the other rows
    specs = default_specs()
    for spec in specs:
        assert isinstance(spec.feature_id, str) and isinstance(spec.name, str)
        # every kwarg the calculator takes is named in the id
        for key, value in spec.kwargs.items():
            assert f"__{key}={str(value).lower()}" in spec.feature_id, spec.feature_id
    series = make_series(rng.normal(size=300))
    entropy = [s for s in specs if s.name in ("approximate_entropy", "sample_entropy")]
    other = [s for s in specs if s.name not in ("approximate_entropy", "sample_entropy")]
    assert len(entropy) == 2 and len(other) == 41
    merged = sorted(extract(series, entropy).entries + extract(series, other).entries, key=lambda e: e.feature_id)
    whole = extract(series).entries
    assert [(e.feature_id, e.reason) for e in merged] == [(e.feature_id, e.reason) for e in whole]
    assert np.array_equal([e.value for e in merged], [e.value for e in whole], equal_nan=True)


@pytest.mark.parametrize("name", ["approximate_entropy", "sample_entropy"])
def test_entropy_r_factor_zero_is_accepted(name, rng):
    spec = FeatureSpec(f"{name}__m=2__r_factor=0.0", getattr(features, name), {"m": 2, "r_factor": 0.0})
    for x in (rng.normal(size=100), np.repeat(rng.integers(0, 3, size=50), 2).astype(float)):
        (entry,) = extract_values(x, [spec]).entries
        assert math.isnan(entry.value) == (entry.reason is not None)


def test_extract_orders_lexicographically(rng):
    vec = extract(make_series(rng.normal(size=64)))
    ids = [e.feature_id for e in vec.entries]
    assert ids == sorted(ids)
    assert len(vec) == 43


def test_extract_empty_series():
    with pytest.raises(EmptySeries):
        extract_values([], default_specs())


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_extract_rejects_non_finite_values(bad):
    # the k-d tree entropies would raise scipy's bare ValueError instead
    with pytest.raises(WalkupError, match="non-finite"):
        extract_values([1.0, 2.0, bad, 0.5, 1.5, 2.5], default_specs())


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["variance", "benford_correlation", "sample_entropy"])
def test_compute_rejects_non_finite_values(name, bad):
    # one row alone: variance gave a NaN without a reason, and benford_correlation skipped the value
    (spec,) = [s for s in default_specs() if s.name == name]
    with pytest.raises(WalkupError, match="cannot extract features from non-finite values"):
        extract_values(np.array([1.0, bad, 2.0, 35.0, 7.0]), [spec])


def test_extract_duplicate_specs_rejected():
    (spec,) = [s for s in default_specs() if s.name == "abs_energy"]
    with pytest.raises(UnknownFeature):
        extract_values([1.0, 2.0], [spec, spec])


def test_nan_always_carries_reason():
    vec = extract(make_series([3.0, 3.0, 3.0, 3.0, 3.0]))
    for entry in vec.entries:
        assert math.isnan(entry.value) == (entry.reason is not None)


def test_extract_bit_identical_across_runs(rng):
    series = make_series(rng.normal(size=128))
    first = extract(series)
    second = extract(series)
    for a, b in zip(first.entries, second.entries):
        assert a.feature_id == b.feature_id
        assert (a.value == b.value) or (math.isnan(a.value) and math.isnan(b.value))
        assert a.reason == b.reason


def test_constant_series_variance_zero_entry():
    vec = extract(make_series([3.0] * 10)).as_dict()
    assert vec["variance"] == 0.0


def test_features_csv_and_json_payload(rng):
    vec = extract_values(rng.normal(size=16), [s for s in default_specs() if s.name in ("abs_energy", "variation_coefficient")])
    text = features_csv(vec)
    assert text.startswith("feature_id,value,reason\n")
    payload = features_json_payload(vec)
    assert set(payload) == {"values", "reasons"}


# ── shift/scale contracts ────────────────────────────────────────────

_series = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=4, max_size=64
)
_scale = st.floats(min_value=0.1, max_value=8.0).filter(lambda a: abs(a) > 1e-6)
_shift = st.floats(min_value=-20, max_value=20, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(_series, _scale, _shift)
def test_autocorrelation_affine_invariant(values, a, b):
    x = np.asarray(values)
    assume(float(np.var(x)) > 1e-6)
    base = one("autocorrelation", x, lag=1)[0]
    moved = one("autocorrelation", a * x + b, lag=1)[0]
    assert moved == pytest.approx(base, rel=1e-7, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(_series, _scale, _shift)
def test_pacf_affine_invariant(values, a, b):
    x = np.asarray(values)
    assume(float(np.var(x)) > 1e-6)
    base, reason = one("partial_autocorrelation", x, lag=2)
    assume(reason is None)
    moved, moved_reason = one("partial_autocorrelation", a * x + b, lag=2)
    assume(moved_reason is None)
    # Durbin-Levinson denominators can amplify rounding; require sane scale
    assume(abs(base) < 1e3)
    assert moved == pytest.approx(base, rel=1e-6, abs=1e-7)


@settings(max_examples=60, deadline=None)
@given(_series, _scale)
def test_abs_energy_not_scale_invariant(values, a):
    x = np.asarray(values)
    assume(float(np.dot(x, x)) > 1e-6)
    assume(abs(a - 1.0) > 0.01)
    assert one("abs_energy", a * x)[0] != pytest.approx(one("abs_energy", x)[0], rel=1e-3)


@settings(max_examples=60, deadline=None)
@given(_series, _scale, _shift)
def test_cid_ce_normalized_invariant(values, a, b):
    x = np.asarray(values)
    assume(float(np.std(x)) > 1e-3)
    base = one("cid_ce", x, normalize=True)[0]
    moved = one("cid_ce", a * x + b, normalize=True)[0]
    assert moved == pytest.approx(base, rel=1e-9, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(_series, _scale, _shift)
def test_linear_trend_slope_affine_covariance(values, a, b):
    x = np.asarray(values)
    base = one("linear_trend", x, attr="slope")[0]
    moved = one("linear_trend", a * x + b, attr="slope")[0]
    assert moved == pytest.approx(a * base, rel=1e-9, abs=1e-9)


# ── oracle equivalence over the whole catalogue ──────────────────────


def _relative_close(got: float, want: float, tol: float = 1e-9) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(got), abs(want))


def test_engine_matches_naive_oracle(rng):
    specs = default_specs()
    series = list(FEATURE_EDGE_SERIES)
    for trial in range(40):
        n = int(rng.integers(3, 513))
        series.append(rng.normal(loc=rng.uniform(-2, 2), scale=rng.uniform(0.5, 3), size=n))
    for x in series:
        n = len(x)
        assert_extract_matches_rows_alone(x, specs)
        got = {e.feature_id: e for e in extract_values(x, specs).entries}  # the path analyze runs
        if np.ptp(x) == 0.0:
            # on a constant the oracle differs by convention: scipy's r is NaN where the
            # engine's is 0 (see linear_trend), and its literal DFT leaves about 1e-15
            # in the empty bins
            if n >= 2:
                assert got["linear_trend__attr=rvalue"] == FeatureEntry("linear_trend__attr=rvalue", 0.0)
            continue
        for spec in specs:
            value, reason = got[spec.feature_id].value, got[spec.feature_id].reason
            want = naive.NAIVE[spec.name](list(x), **spec.kwargs)
            if reason is not None:
                assert want is None, f"{spec.feature_id}: engine NaN({reason}), oracle {want}"
            else:
                assert want is not None, f"{spec.feature_id}: oracle undefined, engine {value}"
                assert _relative_close(value, want), (
                    f"{spec.feature_id} on n={n}: engine {value!r} vs oracle {want!r}"
                )
