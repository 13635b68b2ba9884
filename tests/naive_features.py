"""Slow, direct-from-definition reference implementations of every feature.

Deliberately naive (loops, quadratic time) and algorithmically independent of
the engine: Yule-Walker systems are solved with a dense linear solver instead
of Durbin-Levinson, the DFT is a literal double sum, OLS statistics come from
normal equations or scipy.stats. Functions return None where the feature is
undefined.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy import stats as sstats


def mean(x):
    return sum(x) / len(x)


def pop_var(x):
    m = mean(x)
    return sum((v - m) ** 2 for v in x) / len(x)


def abs_energy(x):
    return float(sum(v * v for v in x))


def absolute_sum_of_changes(x):
    if len(x) < 2:
        return None
    return float(sum(abs(x[i + 1] - x[i]) for i in range(len(x) - 1)))


def mean_abs_change(x):
    if len(x) < 2:
        return None
    return absolute_sum_of_changes(x) / (len(x) - 1)


def root_mean_square(x):
    return math.sqrt(sum(v * v for v in x) / len(x))


def variance(x):
    return float(pop_var(x))


def variation_coefficient(x):
    m = mean(x)
    if m == 0.0:
        return None
    return math.sqrt(pop_var(x)) / m


def kurtosis(x):
    if len(x) < 4:
        return None
    if pop_var(x) == 0.0:
        return None
    return float(sstats.kurtosis(x, fisher=True, bias=False))


def quantile(x, q):
    # textbook linear interpolation between order statistics
    xs = sorted(x)
    pos = q * (len(xs) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(xs) - 1)
    frac = pos - lo
    return xs[lo] + frac * (xs[hi] - xs[lo])


def autocorrelation(x, lag):
    n = len(x)
    if lag == 0:
        return 1.0
    if n <= lag:
        return None
    var = pop_var(x)
    if var == 0.0:
        return None
    m = mean(x)
    acc = sum((x[t] - m) * (x[t + lag] - m) for t in range(n - lag))
    return acc / ((n - lag) * var)


def agg_autocorrelation(x, maxlag):
    if len(x) < 2 or pop_var(x) == 0.0:
        return None
    vals = [autocorrelation(x, lag) for lag in range(1, min(maxlag, len(x) - 1) + 1)]
    return mean(vals)


def _yule_walker_phi(x, p):
    """Solve the full Toeplitz system R phi = r with a dense solver."""
    rho = [autocorrelation(x, lag) for lag in range(0, p + 1)]
    if any(r is None for r in rho):
        return None
    R = np.array([[rho[abs(i - j)] for j in range(p)] for i in range(p)])
    r = np.array(rho[1 : p + 1])
    try:
        return np.linalg.solve(R, r)
    except np.linalg.LinAlgError:
        return None


def partial_autocorrelation(x, lag):
    if lag == 0:
        return 1.0
    if len(x) <= lag or pop_var(x) == 0.0:
        return None
    phi = _yule_walker_phi(x, lag)
    if phi is None:
        return None
    return float(phi[lag - 1])


def ar_coefficient(x, k, p):
    if len(x) <= p or pop_var(x) == 0.0:
        return None
    phi = _yule_walker_phi(x, p)
    if phi is None:
        return None
    return float(phi[k - 1])


def apen_counts(x, m, r):
    """Per-template counts, vectorized only along the partner axis."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    templates = np.array([x[i : i + m] for i in range(n - m + 1)])
    counts = []
    for i in range(len(templates)):
        dist = np.max(np.abs(templates - templates[i]), axis=1)
        counts.append(int(np.count_nonzero(dist <= r)))  # self-match included
    return counts


def apen_phi(x, m, r):
    counts = apen_counts(x, m, r)
    return sum(math.log(c / len(counts)) for c in counts) / len(counts)


def approximate_entropy(x, m, r_factor):
    if len(x) < m + 2:
        return None
    sd = math.sqrt(pop_var(x))
    if sd == 0.0:
        return None
    r = r_factor * sd
    return apen_phi(x, m, r) - apen_phi(x, m + 1, r)


def sampen_counts(x, m, r):
    """Brute-force pair counting over the first n - m templates (i < j)."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    tm = np.array([x[i : i + m] for i in range(n - m)])
    tm1 = np.array([x[i : i + m + 1] for i in range(n - m)])
    a = b = 0
    for i in range(len(tm) - 1):
        b += int(np.count_nonzero(np.max(np.abs(tm[i + 1 :] - tm[i]), axis=1) <= r))
        a += int(np.count_nonzero(np.max(np.abs(tm1[i + 1 :] - tm1[i]), axis=1) <= r))
    return a, b


def sample_entropy(x, m, r_factor):
    if len(x) < m + 2:
        return None
    sd = math.sqrt(pop_var(x))
    if sd == 0.0:
        return None
    a, b = sampen_counts(x, m, r_factor * sd)
    if a == 0 or b == 0:
        return None
    return -math.log(a / b)


def dft_coefficient(x, k):
    n = len(x)
    return sum(x[t] * cmath.exp(-2j * math.pi * k * t / n) for t in range(n))


def fft_coefficient(x, coeff):
    if len(x) < 2 or coeff >= len(x):
        return None
    return abs(dft_coefficient(x, coeff))


def fft_aggregated(x, attr):
    if len(x) < 2:
        return None
    # literal DFT as a matrix of the defining exponentials
    n = len(x)
    ks = np.arange(n // 2 + 1)
    ts = np.arange(n)
    dft = np.exp(-2j * math.pi * np.outer(ks, ts) / n) @ np.asarray(x, dtype=float)
    mag = [abs(c) for c in dft]
    total = sum(mag)
    if total == 0.0:
        return None
    p = [m / total for m in mag]
    centroid = sum(k * pk for k, pk in enumerate(p))
    if attr == "centroid":
        return centroid
    var = sum((k - centroid) ** 2 * pk for k, pk in enumerate(p))
    if attr == "variance":
        return var
    if var == 0.0:
        return None
    m3 = sum((k - centroid) ** 3 * pk for k, pk in enumerate(p))
    m4 = sum((k - centroid) ** 4 * pk for k, pk in enumerate(p))
    return m3 / var**1.5 if attr == "skew" else m4 / var**2


def augmented_dickey_fuller(x, attr, lag=1):
    if attr == "usedlag":
        return float(lag)
    x = list(map(float, x))
    n = len(x)
    dx = [x[i + 1] - x[i] for i in range(n - 1)]
    nrows = n - 1 - lag
    if nrows <= 2 + lag:
        return None
    rows = []
    y = []
    for t in range(lag, n - 1):
        row = [1.0, x[t]]
        row += [dx[t - i] for i in range(1, lag + 1)]
        rows.append(row)
        y.append(dx[t])
    X = np.array(rows)
    y = np.array(y)
    XtX = X.T @ X
    if np.linalg.matrix_rank(XtX) < XtX.shape[0]:
        return None
    # guard: near-singular normal equations make the route unreliable
    if np.linalg.cond(XtX) > 1e12:
        return None
    XtX_inv = np.linalg.inv(XtX)
    beta = XtX_inv @ (X.T @ y)
    resid = y - X @ beta
    dof = nrows - X.shape[1]
    sigma2 = float(resid @ resid) / dof
    se = math.sqrt(sigma2 * XtX_inv[1, 1])
    if se == 0.0:
        return None
    return float(beta[1]) / se


def linear_trend(x, attr):
    if len(x) < 2:
        return None
    if attr in ("pvalue", "stderr") and len(x) < 3:
        return None
    result = sstats.linregress(np.arange(len(x)), np.asarray(x, dtype=float))
    return float(getattr(result, attr))


def benford_correlation(x):
    digits = []
    for v in x:
        if v == 0 or not math.isfinite(v):
            continue
        digits.append(int(f"{abs(v):.17e}"[0]))
    if not digits:
        return None
    freq = [digits.count(d) / len(digits) for d in range(1, 10)]
    benford = [math.log10(1 + 1 / d) for d in range(1, 10)]
    if len(set(freq)) == 1:
        return None
    return float(np.corrcoef(freq, benford)[0, 1])


def change_quantiles(x, ql, qh):
    if len(x) < 2:
        return None
    lo, hi = quantile(x, ql), quantile(x, qh)
    steps = [abs(x[i + 1] - x[i]) for i in range(len(x) - 1) if lo <= x[i] <= hi and lo <= x[i + 1] <= hi]
    if not steps:
        return 0.0
    return mean(steps)


def cid_ce(x, normalize):
    if len(x) < 2:
        return None
    xs = list(map(float, x))
    if normalize:
        sd = math.sqrt(pop_var(xs))
        if sd == 0.0:
            return None
        m = mean(xs)
        xs = [(v - m) / sd for v in xs]
    return math.sqrt(sum((xs[i + 1] - xs[i]) ** 2 for i in range(len(xs) - 1)))


# calculator name -> callable(x, **kwargs), called with a feature table row's kwargs
NAIVE = {
    "abs_energy": lambda x: abs_energy(x),
    "absolute_sum_of_changes": lambda x: absolute_sum_of_changes(x),
    "mean_abs_change": lambda x: mean_abs_change(x),
    "root_mean_square": lambda x: root_mean_square(x),
    "variance": lambda x: variance(x),
    "variation_coefficient": lambda x: variation_coefficient(x),
    "kurtosis": lambda x: kurtosis(x),
    "quantile": quantile,
    "autocorrelation": autocorrelation,
    "agg_autocorrelation": agg_autocorrelation,
    "partial_autocorrelation": partial_autocorrelation,
    "approximate_entropy": approximate_entropy,
    "sample_entropy": sample_entropy,
    "fft_coefficient": fft_coefficient,
    "fft_aggregated": fft_aggregated,
    "ar_coefficient": ar_coefficient,
    "augmented_dickey_fuller": augmented_dickey_fuller,
    "linear_trend": linear_trend,
    "benford_correlation": benford_correlation,
    "change_quantiles": change_quantiles,
    "cid_ce": cid_ce,
}
