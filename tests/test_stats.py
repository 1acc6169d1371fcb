import functools
import itertools
import math

import numpy as np
import pytest

from gsgp.stats import RankSumResult, _u_counts, median, rank_sum_test


def enumeration_p_value(a, b):
    """Independent oracle: exhaustive two-sided p over all C(n+m, n) labelings.

    For each way of assigning the pooled values to the first sample, compute
    U; the p-value is the fraction of assignments whose U is at least as
    extreme (on either side) as the observed one.
    """
    a, b = list(a), list(b)
    n = len(a)
    pooled = a + b

    def u_of(sample):
        return sum(
            sum(1.0 if x > y else 0.5 if x == y else 0.0 for y in pooled_rest(sample))
            for x in sample
        )

    def pooled_rest(sample):
        rest = pooled.copy()
        for x in sample:
            rest.remove(x)
        return rest

    observed = u_of(a)
    mid = len(a) * len(b) / 2.0
    tail = abs(observed - mid)
    hits = 0
    total = 0
    for combo in itertools.combinations(range(len(pooled)), n):
        sample = [pooled[i] for i in combo]
        total += 1
        if abs(u_of(sample) - mid) >= tail - 1e-12:
            hits += 1
    return hits / total


def test_median_examples():
    assert median([1, 2, 3]) == 2
    assert median([1, 2, 3, 4]) == 2.5
    assert median([5]) == 5
    with pytest.raises(ValueError):
        median([])


def test_exact_p_for_separated_triples():
    r = rank_sum_test([1, 2, 3], [4, 5, 6])
    assert r.method == "exact"
    assert r.u_statistic == 0.0
    assert r.p_value == pytest.approx(0.1, abs=1e-12)


def test_identical_multisets_give_p_one():
    r = rank_sum_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert r.p_value == 1.0


def test_all_identical_values_flagged_degenerate():
    r = rank_sum_test([7.0] * 5, [7.0] * 4)
    assert r.p_value == 1.0
    assert r.degenerate


def test_large_separated_samples_are_significant():
    r = rank_sum_test(list(range(1, 31)), list(range(31, 61)))
    assert r.method == "normal-approx"
    assert r.p_value < 1e-9


def test_two_sided_symmetry(rng):
    for _ in range(20):
        a = rng.normal(size=6)
        b = rng.normal(size=9)
        assert rank_sum_test(a, b).p_value == pytest.approx(
            rank_sum_test(b, a).p_value, abs=1e-12
        )


def test_rank_invariance_under_shift(rng):
    a = rng.normal(size=12)
    b = rng.normal(size=15)
    r0 = rank_sum_test(a, b)
    r1 = rank_sum_test(a + 100.0, b + 100.0)
    assert r0.u_statistic == r1.u_statistic
    assert r0.p_value == pytest.approx(r1.p_value, abs=1e-12)


def test_exact_matches_enumeration_oracle(rng):
    cases = [
        ([1, 2, 3], [4, 5, 6]),
        ([1, 4, 6], [2, 3, 5]),
        ([10, 20], [1, 2, 30]),
        ([1.5, 2.5, 9.0, 11.0], [2.0, 3.0, 4.0]),
    ]
    for _ in range(6):
        a = list(rng.permutation(40)[:5].astype(float))
        b = list(rng.permutation(40)[30:36].astype(float) + 0.25)
        cases.append((a, b))
    for a, b in cases:
        r = rank_sum_test(a, b)
        assert r.method == "exact"
        assert r.p_value == pytest.approx(enumeration_p_value(a, b), abs=1e-12)


def test_exact_and_normal_agree_on_tie_free_8x8(rng):
    stats = pytest.importorskip("scipy.stats")
    for _ in range(30):
        a = rng.normal(size=8)
        b = rng.normal(loc=rng.uniform(-1, 1), size=8)
        exact = rank_sum_test(a, b)
        assert exact.method == "exact"
        approx = stats.mannwhitneyu(
            a, b, use_continuity=True, alternative="two-sided", method="asymptotic"
        ).pvalue
        assert abs(exact.p_value - approx) <= 0.02


def test_empty_samples_rejected():
    with pytest.raises(ValueError):
        rank_sum_test([], [1.0])


def test_u_statistics_sum_to_nm(rng):
    a = rng.normal(size=7)
    b = rng.normal(size=11)
    u1 = rank_sum_test(a, b).u_statistic
    u2 = rank_sum_test(b, a).u_statistic
    assert u1 + u2 == 7 * 11


def test_result_fields():
    r = rank_sum_test([1, 2], [3, 4])
    assert isinstance(r, RankSumResult)
    assert 0.0 <= r.p_value <= 1.0
    assert not math.isnan(r.u_statistic)


def test_matches_scipy_mannwhitneyu():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(2022)
    checked = {"exact": 0, "normal-approx": 0}
    for case in range(300):
        n, m = rng.integers(1, 16, size=2)
        if case % 2:  # ties: a few distinct values
            a, b = rng.integers(0, 6, size=n), rng.integers(0, 6, size=m)
        else:
            a, b = rng.normal(size=n), rng.normal(size=m)
        ours = rank_sum_test(a, b)
        if ours.degenerate:
            continue
        method = "exact" if ours.method == "exact" else "asymptotic"
        ref = stats.mannwhitneyu(a, b, use_continuity=True, alternative="two-sided", method=method)
        assert ours.u_statistic == ref.statistic, (case, a, b)
        assert abs(ours.p_value - ref.pvalue) <= 1e-12, (case, a, b)
        checked[ours.method] += 1
    assert min(checked.values()) > 50


@functools.lru_cache(maxsize=None)
def recursive_u_count(n, m, u):
    """Arrangements with U = u, by the recursion on the largest value."""
    if u < 0:
        return 0
    if n == 0 or m == 0:
        return 1 if u == 0 else 0
    return recursive_u_count(n - 1, m, u - m) + recursive_u_count(n, m - 1, u)


def test_u_counts_match_the_recursive_counter():
    for n in range(13):
        for m in range(13):
            expected = [recursive_u_count(n, m, u) for u in range(n * m + 1)]
            assert _u_counts(n, m, n * m) == expected, (n, m)
            assert _u_counts(n, m, n * m // 2) == expected[: n * m // 2 + 1], (n, m)


def test_exact_p_for_a_small_sample_against_a_large_one():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(7)
    for n, m in ((5, 1200), (10, 600), (10, 300)):
        a, b = rng.normal(loc=0.3, size=n), rng.normal(size=m)
        ours = rank_sum_test(a, b)
        assert ours.method == "exact"
        ref = stats.mannwhitneyu(a, b, alternative="two-sided", method="exact")
        assert ours.u_statistic == ref.statistic
        assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-12, abs=0), (n, m)
