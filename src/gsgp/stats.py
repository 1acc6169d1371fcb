"""Medians and the two-sided Wilcoxon rank-sum (Mann-Whitney U) test.

The data alone pick how the p-value is computed: from the exact null
distribution of U when the samples are tie-free and the smaller holds at
most EXACT_MAX_SIZE = 10 values, otherwise from the normal approximation
with midrank tie correction and continuity correction. Two-sided
throughout; callers read the direction of a difference from the medians.
"""

import math
from dataclasses import dataclass

import numpy as np

EXACT_MAX_SIZE = 10


@dataclass
class RankSumResult:
    u_statistic: float  # U of the first sample; the second's is n*m - U
    p_value: float
    method: str  # "exact" | "normal-approx"
    degenerate: bool = False


def median(values) -> float:
    """Midpoint convention: mean of the two central order statistics."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("median of an empty vector is undefined")
    return float(np.median(arr))


def _u_counts(n: int, m: int, top: int) -> list:
    """Numbers of the C(n+m, n) rank arrangements giving U = 0, 1, ..., top.

    They are the coefficients of the Gaussian binomial
    prod_{i=1..k} (1 - q^(j+i)) / (1 - q^i), with k = min(n, m) and
    j = max(n, m), up to q^top. Factor i multiplies by (1 - q^(j+i)) and
    then divides exactly by (1 - q^i); each partial product is itself a
    Gaussian binomial, so every coefficient stays a Python int, and the
    cost is O(k * top) for any sample sizes.
    """
    k, j = min(n, m), max(n, m)
    counts = [1] + [0] * top
    for i in range(1, k + 1):
        for u in range(top, j + i - 1, -1):
            counts[u] -= counts[u - j - i]
        for u in range(i, top + 1):
            counts[u] += counts[u - i]
    return counts


def _exact_two_sided_p(u: float, n: int, m: int) -> float:
    u_small = min(u, n * m - u)
    total = math.comb(n + m, n)
    cum = sum(_u_counts(n, m, int(u_small)))
    return min(1.0, 2.0 * cum / total)


def _normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def rank_sum_test(a, b) -> RankSumResult:
    """Two-sided Mann-Whitney U test on two independent samples.

    The data pick the route: exact when the samples are tie-free and the
    smaller has at most EXACT_MAX_SIZE values, the normal approximation
    otherwise.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise ValueError("rank_sum_test needs two non-empty samples")
    n, m = a.size, b.size
    _, inverse, tie_counts = np.unique(
        np.concatenate([a, b]), return_inverse=True, return_counts=True
    )
    # Midranks: a value's ties share the mean of the ranks 1..N they span.
    ranks = (np.cumsum(tie_counts) - 0.5 * (tie_counts - 1))[inverse]
    u1 = float(np.sum(ranks[:n]) - n * (n + 1) / 2.0)

    if min(n, m) <= EXACT_MAX_SIZE and not (tie_counts > 1).any():
        return RankSumResult(
            u_statistic=u1,
            p_value=_exact_two_sided_p(u1, n, m),
            method="exact",
        )

    big_n = n + m
    tie_term = float(np.sum(tie_counts**3 - tie_counts))
    variance = (n * m / 12.0) * ((big_n + 1) - tie_term / (big_n * (big_n - 1)))
    if variance <= 0:
        # every value identical across both samples
        return RankSumResult(
            u_statistic=u1, p_value=1.0, method="normal-approx", degenerate=True
        )
    u_big = max(u1, n * m - u1)
    z = (u_big - n * m / 2.0 - 0.5) / math.sqrt(variance)  # continuity correction
    p = min(1.0, 2.0 * _normal_sf(z))
    return RankSumResult(u_statistic=u1, p_value=p, method="normal-approx")
