"""Deterministic time-series feature extraction.

Implements the 21-feature catalogue as pure functions of a value vector.
``_TABLE`` is the one feature set: 43 rows, each a feature id written out, its
calculator and the calculator's keyword arguments. Every feature that is
mathematically undefined on its input yields NaN with a machine-readable
reason rather than raising; a non-finite input value is a ``WalkupError``.
Conventions used throughout:

* population (biased) variance wherever sigma^2 normalizes an
  autocorrelation; the bias-adjusted estimator only inside kurtosis;
* entropy tolerances are ``r_factor * population std`` with Chebyshev
  template distance; approximate entropy includes self-matches, sample
  entropy excludes them and counts only templates that have an (m+1)
  extension; neighbour counts are exact integers, the popcounts of ANDed
  bitsets of the time indices within r of each value, at a cost of about
  n^2 / 64 word operations whatever the data and with memory linear in the
  series length;
* the rows of one series share one memo (``_memo``), passed to each calculator
  that has a ``memo`` parameter, so within an ``extract_values`` call each ACF
  lag, each Durbin-Levinson order and each entropy count pass (length m and
  m+1 templates, per (m, r)) is computed once;
* the DFT is the plain unnormalized sum X_k = sum_t x_t e^{-2*pi*i*k*t/n};
* the ``linear_trend`` p-value is the regularized incomplete beta function,
  evaluated in-repo as a continued fraction.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from functools import cache, partial
from types import SimpleNamespace
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .core import SignalSeries
from .errors import EmptySeries, UnknownFeature, WalkupError

__all__ = [
    "FeatureSpec",
    "FeatureEntry",
    "FeatureVector",
    "extract",
    "extract_values",
    "default_specs",
    "features_csv",
    "features_json_payload",
    "approximate_entropy_counts",
    "sample_entropy_counts",
]

Result = tuple[float, Optional[str]]

def _ok(value: float) -> Result:
    return float(value), None


def _undefined(reason: str) -> Result:
    return float("nan"), reason


# ── elementary statistics ────────────────────────────────────────────


def abs_energy(x: np.ndarray) -> Result:
    """Sum of squared values."""
    return _ok(np.dot(x, x))


def absolute_sum_of_changes(x: np.ndarray) -> Result:
    """Sum of |x_{i+1} - x_i|."""
    if len(x) < 2:
        return _undefined("series too short")
    return _ok(np.abs(np.diff(x)).sum())


def mean_abs_change(x: np.ndarray) -> Result:
    if len(x) < 2:
        return _undefined("series too short")
    return _ok(np.abs(np.diff(x)).mean())


def root_mean_square(x: np.ndarray) -> Result:
    return _ok(math.sqrt(float(np.mean(x * x))))


def variance(x: np.ndarray) -> Result:
    return _ok(np.var(x))


def variation_coefficient(x: np.ndarray) -> Result:
    """Population std divided by the mean."""
    m = float(np.mean(x))
    if m == 0.0:
        return _undefined("zero mean")
    return _ok(float(np.std(x)) / m)


def kurtosis(x: np.ndarray) -> Result:
    """Fisher excess kurtosis, bias-adjusted (G2)."""
    n = len(x)
    if n < 4:
        return _undefined("series too short")
    d = x - x.mean()
    m2 = float(np.mean(d * d))
    if m2 == 0.0:
        return _undefined("zero variance")
    m4 = float(np.mean(d ** 4))
    g2 = m4 / (m2 * m2) - 3.0
    return _ok(((n + 1) * g2 + 6.0) * (n - 1) / ((n - 2) * (n - 3)))


def quantile(x: np.ndarray, q: float) -> Result:
    """Linear-interpolation quantile."""
    return _ok(np.quantile(x, q))


# ── autocorrelation family ───────────────────────────────────────────


def _acf(x: np.ndarray, lag: int) -> Result:
    """R(lag) = sum (x_t - mu)(x_{t+lag} - mu) / ((n - lag) * sigma^2)."""
    n = len(x)
    if lag == 0:
        return _ok(1.0)
    if n <= lag:
        return _undefined("series shorter than lag")
    var = float(np.var(x))
    if var == 0.0:
        return _undefined("zero variance")
    d = x - x.mean()
    return _ok(float(np.dot(d[:-lag], d[lag:])) / ((n - lag) * var))


def autocorrelation(x: np.ndarray, lag: int, memo: SimpleNamespace) -> Result:
    return memo.acf(lag)


def agg_autocorrelation(x: np.ndarray, maxlag: int, memo: SimpleNamespace) -> Result:
    """The mean of [R(1) .. R(maxlag)], maxlag capped at n - 1."""
    n = len(x)
    if n < 2:
        return _undefined("series too short")
    if float(np.var(x)) == 0.0:
        return _undefined("zero variance")
    top = min(maxlag, n - 1)
    vals = np.array([memo.acf(lag)[0] for lag in range(1, top + 1)])
    return _ok(np.mean(vals))


def _durbin_levinson(rho: np.ndarray) -> Optional[np.ndarray]:
    """Solve the Yule-Walker system; returns phi[k, j] = phi_{k+1, j+1} or None."""
    p = len(rho)
    phi = np.zeros((p, p))
    phi[0, 0] = rho[0]
    for k in range(1, p):
        prev = phi[k - 1, :k]
        den = 1.0 - float(prev @ rho[:k])
        if abs(den) < 1e-14:
            return None
        phi[k, k] = (rho[k] - float(prev @ rho[k - 1 :: -1])) / den
        phi[k, :k] = prev - phi[k, k] * prev[::-1]
    return phi


def partial_autocorrelation(x: np.ndarray, lag: int, memo: SimpleNamespace) -> Result:
    """PACF at the given lag via the Durbin-Levinson recursion."""
    if lag == 0:
        return _ok(1.0)
    _, reason = memo.acf(lag)  # series shorter than lag, or zero variance
    if reason is not None:
        return _undefined(reason)
    phi = memo.levinson(lag)
    if phi is None:
        return _undefined("rank deficient")
    return _ok(phi[lag - 1, lag - 1])


# ── entropies ────────────────────────────────────────────────────────


# partner templates per column block of the entropy bitset tables, which hold
# about n * (_BLOCK + m) / 64 words each, so memory stays linear in n
_BLOCK = 4096
# templates per row chunk of a block, so the rows a chunk gathers stay in cache
_ROWS = 256


def _check_finite(x: np.ndarray) -> None:
    if not np.isfinite(x).all():
        raise WalkupError("cannot extract features from non-finite values")


def _windows(xs: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
    """[lo_k, hi_k): the sorted positions q with |xs[q] - xs[k]| <= r, for r >= 0.

    A float difference is monotone in each operand, so the window is contiguous
    and both ends are non-decreasing in k. The upper end is bisected on the
    exact predicate, which a search for xs[k] + r could miss by a rounding."""
    n = len(xs)
    k = np.arange(n)
    # xs[q] - xs[k] <= r holds at q = fit and fails at q = over (n is past the
    # end); mid equals fit once the two are adjacent, so settled entries stay put
    fit, over = k, np.full(n, n)
    for _ in range(n.bit_length()):
        mid = (fit + over) // 2
        hit = xs[mid] - xs <= r
        fit, over = np.where(hit, mid, fit), np.where(hit, over, mid)
    # the relation is symmetric, so q <= k lies in k's window iff k < over[q]
    return np.searchsorted(over, k, side="right"), over


def _shifted(table: np.ndarray, rows: np.ndarray, k: int, words: int) -> np.ndarray:
    """Bits k .. k + 64 * words - 1 of the given table rows, as rows of ``words`` words."""
    s, b = divmod(k, 64)
    out = table[rows, s : s + words]
    if b:
        out >>= np.uint64(b)
        out |= table[rows, s + 1 : s + 1 + words] << np.uint64(64 - b)
    return out


def _entropy_counts(x: np.ndarray, m: int, r: float) -> tuple[np.ndarray, np.ndarray]:
    """(C_m, C_{m+1}): neighbour counts (self-matches included) of the n - m + 1
    length-m and n - m length-(m+1) templates, counted as bitset popcounts."""
    x = np.asarray(x, dtype=float)
    _check_finite(x)
    n, nt = len(x), len(x) - m + 1
    c = np.zeros(nt, dtype=np.intp)
    c1 = np.zeros(nt - 1, dtype=np.intp)
    if not r >= 0:  # a negative or NaN r matches nothing, not even a template itself
        return c, c1
    order = np.argsort(x)
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    lo, hi = _windows(x[order], r)
    # template j matches template i at length m iff, for every k < m, time j + k
    # lies in the window of the value at time i + k: the AND over k of those
    # windows' time bitsets, shifted down by k, holds template i's partners
    for j0 in range(0, nt, _BLOCK):
        words = -(-min(_BLOCK, nt - j0) // 64)  # partners j0 .. j0 + 64 * words - 1
        width = words + m // 64 + 1  # and the times a shift by up to m reads
        t = np.arange(j0, min(j0 + 64 * width, n))
        word, bit = (t - j0) >> 6, np.uint64(1) << ((t - j0) & 63).astype(np.uint64)
        # row q: the bitset of the times whose value is within r of sorted value q;
        # |a - b| <= r is symmetric, so time t enters at row lo[rank[t]] and leaves
        # at row hi[rank[t]]
        table = np.zeros((n + 1, width), dtype=np.uint64)
        np.bitwise_xor.at(table, (lo[rank[t]], word), bit)
        np.bitwise_xor.at(table, (hi[rank[t]], word), bit)
        np.bitwise_xor.accumulate(table, axis=0, out=table)
        for i0 in range(0, nt, _ROWS):
            i1 = min(i0 + _ROWS, nt)
            both = _shifted(table, rank[i0:i1], 0, words)
            for k in range(1, m):
                both &= _shifted(table, rank[i0 + k : i1 + k], k, words)
            c[i0:i1] += np.bitwise_count(both).sum(axis=1, dtype=np.intp)
            # the last template has no (m+1)-th value; a time past the end has no bit
            ext = _shifted(table, rank[i0 + m : i1 + m], m, words)
            both = both[: len(ext)]
            both &= ext
            c1[i0 : i0 + len(ext)] += np.bitwise_count(both).sum(axis=1, dtype=np.intp)
    return c, c1


def _pair_counts(c_m: np.ndarray, c_m1: np.ndarray) -> tuple[int, int]:
    """SampEn's (A, B) from the shared neighbour counts."""
    k = len(c_m1)
    # each unordered pair is counted from both ends, each template once as its own
    # match; B drops the pairs of the last length-m template, which has no (m+1)
    # extension; a negative or NaN r matches nothing, not even a template itself
    a = max(int(c_m1.sum()) - k, 0) // 2
    b = max(int(c_m.sum()) - (k + 1) - 2 * (int(c_m[-1]) - 1), 0) // 2
    return a, b


def approximate_entropy_counts(x: np.ndarray, m: int, r: float) -> np.ndarray:
    """Per-template neighbour counts C_i (self-matches included)."""
    return _entropy_counts(x, m, r)[0]


def approximate_entropy(x: np.ndarray, m: int, r_factor: float, memo: SimpleNamespace) -> Result:
    """ApEn = Phi_m(r) - Phi_{m+1}(r), r = r_factor * population std."""
    if len(x) < m + 2:
        return _undefined("series too short")
    sd = float(np.std(x))
    if sd == 0.0:
        return _undefined("zero std")
    phi_m, phi_m1 = (float(np.mean(np.log(c / len(c)))) for c in memo.counts(m, r_factor * sd))
    return _ok(phi_m - phi_m1)


def sample_entropy_counts(x: np.ndarray, m: int, r: float) -> tuple[int, int]:
    """(A, B): matched template pairs at length m+1 and m.

    Only the first n - m templates of length m are considered, so each has
    an (m+1) extension; self-matches are excluded (pairs i < j).
    """
    return _pair_counts(*_entropy_counts(x, m, r))


def sample_entropy(x: np.ndarray, m: int, r_factor: float, memo: SimpleNamespace) -> Result:
    """SampEn = -ln(A / B) with self-matches excluded."""
    if len(x) < m + 2:
        return _undefined("series too short")
    sd = float(np.std(x))
    if sd == 0.0:
        return _undefined("zero std")
    a, b = _pair_counts(*memo.counts(m, r_factor * sd))
    if b == 0 or a == 0:
        return _undefined("no matches")
    return _ok(-math.log(a / b))


# ── spectral family ──────────────────────────────────────────────────

def fft_coefficient(x: np.ndarray, coeff: int) -> Result:
    """|X_coeff|, the magnitude of one DFT coefficient."""
    if len(x) < 2:
        return _undefined("series too short")
    if coeff >= len(x):
        return _undefined("coeff out of range")
    return _ok(abs(np.fft.fft(x)[coeff]))


def fft_aggregated(x: np.ndarray, attr: str) -> Result:
    """Moments of the one-sided magnitude spectrum over bin index: centroid,
    variance, skew or kurtosis."""
    if len(x) < 2:
        return _undefined("series too short")
    mag = np.abs(np.fft.rfft(x))
    total = float(mag.sum())
    if total == 0.0:
        return _undefined("zero spectrum")
    p = mag / total
    bins = np.arange(len(mag), dtype=float)
    centroid = float(np.dot(bins, p))
    if attr == "centroid":
        return _ok(centroid)
    dev = bins - centroid
    var = float(np.dot(dev * dev, p))
    if attr == "variance":
        return _ok(var)
    if var == 0.0:
        return _undefined("zero spectral variance")
    if attr == "skew":
        return _ok(float(np.dot(dev ** 3, p)) / var ** 1.5)
    return _ok(float(np.dot(dev ** 4, p)) / var ** 2)


# ── model-based family ───────────────────────────────────────────────


def ar_coefficient(x: np.ndarray, k: int, p: int, memo: SimpleNamespace) -> Result:
    """phi_k of an AR(p) fit by Yule-Walker, solved via Durbin-Levinson."""
    if len(x) <= p:
        return _undefined("series too short")
    if float(np.var(x)) == 0.0:
        return _undefined("zero variance")
    phi = memo.levinson(p)
    if phi is None:
        return _undefined("rank deficient")
    return _ok(phi[p - 1, k - 1])


def _ols_qr(X: np.ndarray, y: np.ndarray):
    """(beta, se, ok_reason): stable OLS with coefficient standard errors."""
    nrows, ncols = X.shape
    q, r = np.linalg.qr(X)
    diag = np.abs(np.diag(r))
    if diag.min() <= 1e-10 * max(diag.max(), 1.0):
        return None, None, "rank deficient"
    beta = np.linalg.solve(r, q.T @ y)
    resid = y - X @ beta
    sigma2 = float(resid @ resid) / (nrows - ncols)
    rinv = np.linalg.solve(r, np.eye(ncols))
    se = np.sqrt(np.maximum(sigma2 * np.sum(rinv * rinv, axis=1), 0.0))
    return beta, se, None


def augmented_dickey_fuller(x: np.ndarray, attr: str, lag: int) -> Result:
    """t-statistic of the level coefficient in the ADF regression.

    dx_t = alpha + beta * x_{t-1} + sum_{i=1..lag} gamma_i * dx_{t-i} + eps.
    There is no p-value attr: it would need response-surface tables.
    """
    if attr == "usedlag":
        return _ok(float(lag))
    n = len(x)
    dx = np.diff(x)
    nrows = n - 1 - lag
    if nrows <= 2 + lag:
        return _undefined("series too short")
    y = dx[lag:]
    cols = [np.ones(nrows), x[lag : n - 1]]
    for i in range(1, lag + 1):
        cols.append(dx[lag - i : len(dx) - i])
    X = np.column_stack(cols)
    beta, se, reason = _ols_qr(X, y)
    if reason is not None:
        return _undefined(reason)
    if se[1] == 0.0:
        return _undefined("zero residual variance")
    return _ok(float(beta[1] / se[1]))


def _log_gamma_ratio(a: float) -> float:
    """log Gamma(a + 1/2) - log Gamma(a); the series for large a avoids the cancellation of two lgammas."""
    if a >= 30.0:
        return 0.5 * math.log(a) - 1 / (8 * a) + 1 / (192 * a**3) - 1 / (640 * a**5) + 17 / (14336 * a**7)
    return math.lgamma(a + 0.5) - math.lgamma(a)


def _beta_fraction(p: float, q: float, z: float, w: float) -> float:
    """1 / (1 + d_1 / (1 + d_2 / ...)), the continued fraction of I_z(p, q) in
    Numerical Recipes 6.4; w = 1 - z, and p and q are multiples of 1/2."""

    def term(j: int) -> float:  # d_j
        m = j // 2
        if j % 2:
            return -(p + m) * (p + q + m) * z / ((p + 2 * m) * (p + 2 * m + 1))
        return m * (q - m) * z / ((p + 2 * m - 1) * (p + 2 * m))

    # the depth is where forward modified Lentz stops: an odd term changes the value by < 1e-16
    c, d, j = 1.0, 0.0, 0
    while True:
        j += 1
        t = term(j)
        d = 1.0 / (1.0 + t * d or 1e-300)
        c = 1.0 + t / c or 1e-300
        if j % 2 and abs(c * d - 1.0) < 1e-16:
            break
    # evaluated backward from there, each odd level over its even partner's value 1 + e:
    # 1 + d_{2m+1} / (1 + e) = (1 + d_{2m+1} + e) / (1 + e). Where d_{2m+1} is near -1,
    # 1 + d_{2m+1} = (den - big + big * w) / den, and den - big is exact in halves.
    f = 1.0
    for m in range(j // 2, -1, -1):
        e = term(2 * m + 2) / f
        big, den = (p + m) * (p + q + m), (p + 2 * m) * (p + 2 * m + 1)
        rest = p * (1 + 2 * m - q) + m * (3 * m + 2 - q)
        f = ((rest + big * w if rest >= 0 else den - big * z) / den + e) / (1.0 + e)
    return 1.0 / f


def _betainc_half(a: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, 1/2) for a > 0 and 0 < x."""
    if x >= 1.0:
        return 1.0
    y = 1.0 - x  # exact when x > 1/2
    # log of x^a (1 - x)^(1/2) / B(a, 1/2), with Gamma(1/2) = sqrt(pi)
    front = math.exp(a * math.log(x) + 0.5 * math.log(y) + _log_gamma_ratio(a) - 0.5 * math.log(math.pi))
    if x < (a + 1.0) / (a + 2.5):
        return front * _beta_fraction(a, 0.5, x, y) / a
    return 1.0 - front * _beta_fraction(0.5, a, y, x) / 0.5


def linear_trend(x: np.ndarray, attr: str) -> Result:
    """OLS of the values against the sample index.

    The two-sided p-value comes from the regularized incomplete beta
    function: p = I_{df/(df+t^2)}(df/2, 1/2) with df = n - 2.

    On a constant series ``rvalue`` is 0.0 (then ``pvalue`` 1.0), where scipy's
    ``linregress`` gives NaN. A constant has no linear association with time,
    so 0.0 states a fact rather than an undefined value. A tremor-flag channel
    that never fires is such a series, and its reports carry this 0.0.
    """
    n = len(x)
    if n < 2:
        return _undefined("series too short")
    t = np.arange(n, dtype=float)
    tc = t - t.mean()
    xc = x - x.mean()
    sst = float(tc @ tc)
    ssx = float(xc @ xc)
    cross = float(tc @ xc)
    slope = cross / sst
    if attr == "slope":
        return _ok(slope)
    if attr == "intercept":
        return _ok(float(x.mean()) - slope * float(t.mean()))
    den = math.sqrt(sst * ssx)
    r = 0.0 if den == 0.0 else max(-1.0, min(1.0, cross / den))
    if attr == "rvalue":
        return _ok(r)
    if n < 3:
        return _undefined("series too short")
    df = n - 2
    if attr == "pvalue":
        if 1.0 - r * r <= 0.0:
            return _ok(0.0)
        tstat = r * math.sqrt(df / (1.0 - r * r))
        return _ok(_betainc_half(df / 2.0, df / (df + tstat * tstat)))
    # stderr of the slope
    resid = max(ssx - slope * slope * sst, 0.0)
    return _ok(math.sqrt(resid / (df * sst)))


# ── miscellaneous ────────────────────────────────────────────────────

_BENFORD_MASS = np.log10(1.0 + 1.0 / np.arange(1, 10))


@cache
def _digit_bounds() -> tuple[np.ndarray, np.ndarray]:
    """The doubles that the one-digit decimals d * 10**e parse to, ascending, and their d.

    Below 1e-323 only 5e-324 is listed: the other one-digit decimals there parse
    to 0, or to a double that a closer one-digit decimal also names."""
    exponents = range(-323, 309)
    values = np.array([5e-324] + [float(f"{d}e{e}") for e in exponents for d in range(1, 10)])
    digits = np.concatenate(([5], np.tile(np.arange(1, 10), len(exponents))))
    finite = values < math.inf
    values, digits = values[finite], digits[finite]
    values.flags.writeable = digits.flags.writeable = False  # one copy for every caller
    return values, digits


def _first_digits(values: np.ndarray) -> np.ndarray:
    """The leading digit of each nonzero finite value's shortest round-trip repr
    (``np.format_float_scientific``).

    A value that a one-digit decimal parses to prints as that digit; any other
    lies strictly between two such decimals and so shares its digit with the lower."""
    bounds, digits = _digit_bounds()
    return digits[np.searchsorted(bounds, np.abs(values), side="right") - 1]


def benford_correlation(x: np.ndarray) -> Result:
    """Pearson correlation of the first-digit histogram with Benford's law."""
    nonzero = x[np.isfinite(x) & (x != 0.0)]
    if len(nonzero) == 0:
        return _undefined("no nonzero values")
    freq = np.bincount(_first_digits(nonzero), minlength=10)[1:10] / len(nonzero)
    if np.std(freq) == 0.0:
        return _undefined("zero variance")
    return _ok(float(np.corrcoef(freq, _BENFORD_MASS)[0, 1]))


def change_quantiles(x: np.ndarray, ql: float, qh: float) -> Result:
    """Mean absolute value of the consecutive changes whose endpoints both sit
    inside the [quantile(ql), quantile(qh)] corridor; 0 when no step qualifies."""
    if len(x) < 2:
        return _undefined("series too short")
    lo = np.quantile(x, ql)
    hi = np.quantile(x, qh)
    inside = (x >= lo) & (x <= hi)
    sel = inside[:-1] & inside[1:]
    if not sel.any():
        return _ok(0.0)
    return _ok(np.mean(np.abs(np.diff(x)[sel])))


def cid_ce(x: np.ndarray, normalize: bool) -> Result:
    """Complexity estimate sqrt(sum of squared consecutive differences)."""
    if len(x) < 2:
        return _undefined("series too short")
    if normalize:
        sd = float(np.std(x))
        if sd == 0.0:
            return _undefined("zero std")
        x = (x - x.mean()) / sd
    d = np.diff(x)
    return _ok(math.sqrt(float(d @ d)))


# ── the feature table, extraction ────────────────────────────────────


def _memo(x: np.ndarray) -> SimpleNamespace:
    """The work that the rows of one series share, each piece computed once: ``acf(lag)``;
    ``levinson(p)``, the order-p Durbin-Levinson solve on acf(1..p), one per order so that
    each keeps its own rank-deficient stop; ``counts(m, r)``, one entropy count pass."""
    acf = cache(partial(_acf, x))
    levinson = cache(lambda p: _durbin_levinson(np.array([acf(lag)[0] for lag in range(1, p + 1)])))
    return SimpleNamespace(acf=acf, levinson=levinson, counts=cache(partial(_entropy_counts, x)))


@cache
def _reads_memo(calculator: Callable) -> bool:
    """Whether a calculator takes the series memo: the ACF family and the entropies do."""
    return "memo" in inspect.signature(calculator).parameters


@dataclass(frozen=True)
class FeatureSpec:
    """One row of the feature table: the id that keys the feature's value, its
    calculator and the calculator's keyword arguments."""

    feature_id: str
    calculator: Callable[..., Result]
    kwargs: Mapping[str, object]

    @property
    def name(self) -> str:
        return self.calculator.__name__


# the 43-entry feature set; three ids also name a setting that their calculator
# does not take, because it has one value only: attr=abs, f_agg=mean, isabs=true
_TABLE = tuple(FeatureSpec(*row) for row in (
    ("abs_energy", abs_energy, {}),
    ("absolute_sum_of_changes", absolute_sum_of_changes, {}),
    ("mean_abs_change", mean_abs_change, {}),
    ("root_mean_square", root_mean_square, {}),
    ("variance", variance, {}),
    ("variation_coefficient", variation_coefficient, {}),
    ("kurtosis", kurtosis, {}),
    ("benford_correlation", benford_correlation, {}),
    ("quantile__q=0.1", quantile, {"q": 0.1}),
    ("quantile__q=0.5", quantile, {"q": 0.5}),
    ("quantile__q=0.9", quantile, {"q": 0.9}),
    ("autocorrelation__lag=1", autocorrelation, {"lag": 1}),
    ("autocorrelation__lag=2", autocorrelation, {"lag": 2}),
    ("autocorrelation__lag=3", autocorrelation, {"lag": 3}),
    ("autocorrelation__lag=4", autocorrelation, {"lag": 4}),
    ("autocorrelation__lag=5", autocorrelation, {"lag": 5}),
    ("agg_autocorrelation__f_agg=mean__maxlag=2", agg_autocorrelation, {"maxlag": 2}),
    ("partial_autocorrelation__lag=1", partial_autocorrelation, {"lag": 1}),
    ("partial_autocorrelation__lag=2", partial_autocorrelation, {"lag": 2}),
    ("partial_autocorrelation__lag=3", partial_autocorrelation, {"lag": 3}),
    ("partial_autocorrelation__lag=4", partial_autocorrelation, {"lag": 4}),
    ("partial_autocorrelation__lag=5", partial_autocorrelation, {"lag": 5}),
    ("approximate_entropy__m=2__r_factor=0.2", approximate_entropy, {"m": 2, "r_factor": 0.2}),
    ("sample_entropy__m=2__r_factor=0.2", sample_entropy, {"m": 2, "r_factor": 0.2}),
    ("fft_coefficient__coeff=5__attr=abs", fft_coefficient, {"coeff": 5}),
    ("fft_aggregated__attr=centroid", fft_aggregated, {"attr": "centroid"}),
    ("fft_aggregated__attr=variance", fft_aggregated, {"attr": "variance"}),
    ("fft_aggregated__attr=skew", fft_aggregated, {"attr": "skew"}),
    ("fft_aggregated__attr=kurtosis", fft_aggregated, {"attr": "kurtosis"}),
    ("ar_coefficient__k=1__p=4", ar_coefficient, {"k": 1, "p": 4}),
    ("ar_coefficient__k=2__p=4", ar_coefficient, {"k": 2, "p": 4}),
    ("ar_coefficient__k=3__p=4", ar_coefficient, {"k": 3, "p": 4}),
    ("ar_coefficient__k=4__p=4", ar_coefficient, {"k": 4, "p": 4}),
    ("augmented_dickey_fuller__attr=teststat__lag=1", augmented_dickey_fuller, {"attr": "teststat", "lag": 1}),
    ("augmented_dickey_fuller__attr=usedlag__lag=1", augmented_dickey_fuller, {"attr": "usedlag", "lag": 1}),
    ("linear_trend__attr=slope", linear_trend, {"attr": "slope"}),
    ("linear_trend__attr=intercept", linear_trend, {"attr": "intercept"}),
    ("linear_trend__attr=rvalue", linear_trend, {"attr": "rvalue"}),
    ("linear_trend__attr=pvalue", linear_trend, {"attr": "pvalue"}),
    ("linear_trend__attr=stderr", linear_trend, {"attr": "stderr"}),
    ("change_quantiles__ql=0.1__qh=0.9__isabs=true__f_agg=mean", change_quantiles, {"ql": 0.1, "qh": 0.9}),
    ("cid_ce__normalize=false", cid_ce, {"normalize": False}),
    ("cid_ce__normalize=true", cid_ce, {"normalize": True}),
))


@dataclass(frozen=True)
class FeatureEntry:
    feature_id: str
    value: float
    reason: Optional[str] = None

    def __post_init__(self):
        if (self.reason is not None) != math.isnan(self.value):
            raise ValueError("NaN values and reasons must come in pairs")


@dataclass(frozen=True)
class FeatureVector:
    """Deterministically ordered feature values for one series."""

    entries: tuple[FeatureEntry, ...]

    def as_dict(self) -> dict[str, float]:
        return {e.feature_id: e.value for e in self.entries}

    def __len__(self) -> int:
        return len(self.entries)


def default_specs() -> list[FeatureSpec]:
    """The rows of the 43-entry feature set, the one set the pipeline uses."""
    return list(_TABLE)


def extract_values(x, specs: Sequence[FeatureSpec]) -> FeatureVector:
    """Run the given rows against a raw value vector (all values must be finite)."""
    x = np.asarray(x, dtype=float).ravel()
    if len(x) == 0:
        raise EmptySeries("cannot extract features from an empty series")
    _check_finite(x)
    ids = [s.feature_id for s in specs]
    if len(set(ids)) != len(ids):
        raise UnknownFeature("duplicate feature specs requested")
    memo = _memo(x)
    entries = []
    for spec in specs:
        if _reads_memo(spec.calculator):
            value, reason = spec.calculator(x, **spec.kwargs, memo=memo)
        else:
            value, reason = spec.calculator(x, **spec.kwargs)
        entries.append(FeatureEntry(spec.feature_id, value, reason))
    entries.sort(key=lambda e: e.feature_id)
    return FeatureVector(tuple(entries))


def extract(series: SignalSeries, specs: Optional[Sequence[FeatureSpec]] = None) -> FeatureVector:
    """Extract features from a signal series (the whole table when specs is None)."""
    return extract_values(series.values, _TABLE if specs is None else specs)


def features_csv(vector: FeatureVector) -> str:
    """CSV export: feature_id,value,reason (reason empty for defined values)."""
    lines = ["feature_id,value,reason"]
    for e in vector.entries:
        value = "" if e.reason is not None else repr(e.value)
        lines.append(f"{e.feature_id},{value},{e.reason or ''}")
    return "\n".join(lines) + "\n"


def features_json_payload(vector: FeatureVector) -> dict:
    """JSON-safe map: values (NaN -> null) plus a reasons side map."""
    values: dict[str, Optional[float]] = {}
    reasons: dict[str, str] = {}
    for e in vector.entries:
        values[e.feature_id] = None if e.reason is not None else e.value
        if e.reason is not None:
            reasons[e.feature_id] = e.reason
    return {"values": values, "reasons": reasons}
