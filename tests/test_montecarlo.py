import warnings

import numpy as np

from qbattery.montecarlo import MomentAccumulator


def _brute_jackknife_se_of_variance(x):
    n = len(x)
    thetas = np.array([np.var(np.delete(x, i), ddof=1) for i in range(n)])
    return np.sqrt((n - 1) / n * np.sum((thetas - thetas.mean()) ** 2))


def test_moments_match_two_pass(rng):
    x = rng.standard_normal(10_000) * 3.7 + 1.2
    acc = MomentAccumulator()
    for chunk in np.array_split(x, 13):
        acc.add_chunk(chunk)
    assert acc.n == x.size
    assert abs(acc.mean - x.mean()) < 1e-12
    assert abs(acc.variance - np.var(x, ddof=1)) < 1e-10
    assert abs(acc.se_mean - np.std(x, ddof=1) / np.sqrt(x.size)) < 1e-10


def test_merge_equals_single_pass(rng):
    x = rng.standard_normal(5000)
    whole = MomentAccumulator()
    whole.add_chunk(x)
    merged = MomentAccumulator()
    merged.add_chunk(x[:1700])
    merged.add_chunk(x[1700:])  # folds the second chunk's moments into the first's
    assert merged.n == whole.n
    assert abs(merged.mean - whole.mean) < 1e-12
    assert abs(merged.m2 - whole.m2) < 1e-8
    assert abs(merged.m4 - whole.m4) < 1e-6


def test_jackknife_se_of_variance_closed_form(rng):
    x = rng.standard_normal(200) ** 2  # skewed, stresses m3/m4
    acc = MomentAccumulator()
    acc.add_chunk(x)
    assert abs(acc.se_variance - _brute_jackknife_se_of_variance(x)) < 1e-10


def test_small_sample_guards():
    acc = MomentAccumulator()
    acc.add_chunk(np.array([1.0]))
    try:
        _ = acc.variance
        raised = False
    except ValueError:
        raised = True
    assert raised


def test_moments_past_the_float_range_are_inf_or_nan_without_a_warning(rng):
    """Values near 1e152 have finite squares but fourth powers past the float range, in one chunk and in a merge."""
    x = rng.standard_normal(300) * 1e152
    acc = MomentAccumulator()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        acc.add_chunk(x[:100])
        assert np.isfinite(acc.variance) and not np.isfinite(acc.se_variance)
        acc.add_chunk(x[100:])
        assert not np.isfinite(acc.m4) and not np.isfinite(acc.se_variance)
