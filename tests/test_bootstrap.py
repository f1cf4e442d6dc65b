import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmdtube import (
    KernelSpec,
    PairedDataset,
    bootstrap_deviation_quantile,
    fit,
    operator_diff_norm,
    quantile_index,
)
from mmdtube.bootstrap import resample_indices
from mmdtube.kernels import median_bandwidth

from conftest import ou_dataset


def diff_norm_oracle(data, lam, spec, m_b, seed):
    """Sorted bootstrap deviations recomputed with ``operator_diff_norm``."""
    base = fit(data, lam, spec)
    devs = []
    for idx in resample_indices(data.m, m_b, seed):
        resample = PairedDataset(data.x[idx], data.y[idx], lag=data.lag, seed=0)
        devs.append(operator_diff_norm(base, fit(resample, lam, spec)))
    return np.sort(devs)


def constant_dataset(m=10):
    return PairedDataset(np.full((m, 1), 0.7), np.full((m, 1), 0.2), lag=1.0, seed=0)


class TestQuantileIndex:
    def test_paper_configuration(self):
        # ceil(200 * 0.95) = 190 (1-based), so index 189
        assert quantile_index(200, 0.05) == 189

    def test_floating_point_edge(self):
        # 100 * (1 - 0.2) evaluates above 80.0 in floats; ceil must stay at 80
        assert quantile_index(100, 0.2) == 79

    def test_extremes_stay_in_range(self):
        assert quantile_index(1, 0.5) == 0
        assert quantile_index(10, 0.999) == 0
        assert quantile_index(10, 0.001) == 9

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            quantile_index(10, 0.0)
        with pytest.raises(ValueError):
            quantile_index(10, 1.0)


class TestBootstrap:
    def test_degenerate_dataset_gives_exact_zero(self):
        summary = bootstrap_deviation_quantile(constant_dataset(), 0.01, KernelSpec(1.0),
                                               m_b=25, alpha=0.05, seed=5)
        assert np.all(summary.deviations == 0.0)
        assert summary.quantile_delta == 0.0

    def test_determinism(self, spec):
        data = ou_dataset(m=25, seed=1)
        a = bootstrap_deviation_quantile(data, 0.05, spec, m_b=12, alpha=0.1, seed=3)
        b = bootstrap_deviation_quantile(data, 0.05, spec, m_b=12, alpha=0.1, seed=3)
        np.testing.assert_array_equal(a.deviations, b.deviations)
        assert a.quantile_delta == b.quantile_delta

    def test_deviations_sorted_nonnegative(self, spec):
        data = ou_dataset(m=20, seed=5)
        s = bootstrap_deviation_quantile(data, 0.05, spec, m_b=15, alpha=0.1, seed=6)
        assert np.all(s.deviations >= 0.0)
        assert np.all(np.diff(s.deviations) >= 0.0)

    def test_quantile_matches_sorted_vector(self, spec):
        data = ou_dataset(m=20, seed=7)
        s = bootstrap_deviation_quantile(data, 0.05, spec, m_b=40, alpha=0.25, seed=8)
        assert s.quantile_delta == s.deviations[quantile_index(40, 0.25)]

    def test_quantile_monotone_in_alpha(self, spec):
        data = ou_dataset(m=20, seed=9)
        s = bootstrap_deviation_quantile(data, 0.05, spec, m_b=40, alpha=0.5, seed=10)
        d_low = s.deviations[quantile_index(40, 0.05)]
        d_high = s.deviations[quantile_index(40, 0.5)]
        assert d_low >= d_high

    def test_matches_public_diff_norm(self, spec):
        # the reduced replicate must agree with the concatenated-anchor norm
        data = ou_dataset(m=30, seed=11)
        summary = bootstrap_deviation_quantile(data, 0.05, spec, m_b=8, alpha=0.25, seed=12)
        np.testing.assert_allclose(diff_norm_oracle(data, 0.05, spec, 8, 12),
                                   summary.deviations, atol=1e-8)

    @pytest.mark.parametrize("bandwidth", ["median", 0.05, 3.0])
    @pytest.mark.parametrize("lam", [0.5, 0.05, 0.01, 1e-3])
    @pytest.mark.parametrize("m", [12, 60, 300])
    def test_matches_diff_norm_grid(self, m, lam, bandwidth):
        # bandwidth 0.05 keeps nearly every eigenvalue of K_XX (r close to m)
        data = ou_dataset(m=m, seed=11)
        spec = KernelSpec(median_bandwidth(data.x) if bandwidth == "median" else bandwidth)
        m_b = 8 if m < 300 else 3
        summary = bootstrap_deviation_quantile(data, lam, spec, m_b=m_b, alpha=0.25, seed=12)
        np.testing.assert_allclose(diff_norm_oracle(data, lam, spec, m_b, 12),
                                   summary.deviations, atol=1e-8)

    def test_constant_inputs_random_outputs_match_diff_norm(self):
        # every resample repeats x but not y: the exact-zero rule must not fire
        rng = np.random.default_rng(3)
        data = PairedDataset(np.full((15, 1), 0.7), rng.normal(size=(15, 1)), lag=1.0, seed=0)
        summary = bootstrap_deviation_quantile(data, 0.05, KernelSpec(1.0), m_b=10,
                                               alpha=0.25, seed=4)
        assert np.all(summary.deviations > 0.0)
        np.testing.assert_allclose(diff_norm_oracle(data, 0.05, KernelSpec(1.0), 10, 4),
                                   summary.deviations, atol=1e-8)

    @settings(derandomize=True, deadline=None)
    @given(m=st.integers(5, 40), lam=st.floats(0.01, 1.0), bandwidth=st.floats(0.3, 3.0),
           data_seed=st.integers(0, 2**16), seed=st.integers(0, 2**16))
    def test_property_every_deviation_matches_diff_norm(self, m, lam, bandwidth,
                                                         data_seed, seed):
        data = ou_dataset(m=m, seed=data_seed)
        spec = KernelSpec(bandwidth)
        summary = bootstrap_deviation_quantile(data, lam, spec, m_b=4, alpha=0.25, seed=seed)
        np.testing.assert_allclose(diff_norm_oracle(data, lam, spec, 4, seed),
                                   summary.deviations, atol=1e-8)

    def test_median_deviation_decays_in_m(self, spec):
        medians = []
        for m in (100, 1600):
            data = ou_dataset(m=m, lag=0.5, seed=13)
            s = bootstrap_deviation_quantile(data, 0.05, spec, m_b=30, alpha=0.5, seed=14)
            medians.append(float(np.median(s.deviations)))
        assert medians[1] < medians[0]

    def test_rejects_bad_arguments(self, spec):
        data = ou_dataset(m=10, seed=15)
        with pytest.raises(ValueError):
            bootstrap_deviation_quantile(data, 0.05, spec, m_b=0, alpha=0.1, seed=0)
        with pytest.raises(ValueError):
            bootstrap_deviation_quantile(data, 0.05, spec, m_b=5, alpha=1.5, seed=0)
        with pytest.raises(ValueError):  # a base fit on other data
            bootstrap_deviation_quantile(data, 0.05, spec, m_b=5, alpha=0.1, seed=0,
                                         base=fit(ou_dataset(m=10, seed=16), 0.05, spec))
