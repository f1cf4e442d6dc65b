import math

import numpy as np
import pytest

from mmdtube import (
    GaussianInitial,
    PairedDataset,
    bernstein_bound,
    estimate_hs_norm_cxy,
    estimate_moments,
    estimate_second_moment,
    ou_model,
    poincare_envelope_hs,
    poincare_envelope_m2,
    simulate_pairs,
)

from conftest import ou_dataset, rbf

BERNSTEIN_REFERENCE = 89.27088278955726  # 2/(0.1*10) * ln(40) * (1 + 10 + 11*0.1)


class TestSecondMoment:
    def test_rbf_diagonal_gives_one(self, spec):
        assert estimate_second_moment(ou_dataset(m=37, seed=0), spec) == 1.0

    def test_single_pair(self, spec):
        data = PairedDataset([[0.3]], [[-1.2]], lag=1.0, seed=0)
        assert estimate_second_moment(data, spec) == 1.0


class TestHsNorm:
    def test_single_pair_is_one(self, spec):
        data = PairedDataset([[0.3]], [[-1.2]], lag=1.0, seed=0)
        assert estimate_hs_norm_cxy(data, spec) == 1.0

    def test_identical_copies_give_one(self, spec):
        data = PairedDataset(np.full((6, 1), 0.4), np.full((6, 1), -0.9), lag=1.0, seed=0)
        assert estimate_hs_norm_cxy(data, spec) == pytest.approx(1.0, abs=1e-14)

    def test_matches_brute_force(self, spec):
        data = ou_dataset(m=10, seed=1)
        acc = 0.0
        for i in range(10):
            for j in range(10):
                acc += rbf(data.x[i], data.x[j]) * rbf(data.y[i], data.y[j])
        assert estimate_hs_norm_cxy(data, spec) == pytest.approx(
            math.sqrt(acc / 100.0), abs=1e-12)

    def test_factored_path_matches_dense(self, spec):
        data = ou_dataset(m=4000, lag=0.3, seed=2)
        from mmdtube.kernels import gram
        direct = math.sqrt(float(np.mean(gram(data.x, data.x, spec)
                                         * gram(data.y, data.y, spec))))
        assert estimate_hs_norm_cxy(data, spec) == pytest.approx(direct, abs=1e-12)


class TestMomentBundle:
    def test_sigma_nonnegative_and_unclamped_tiny(self, spec):
        for seed in range(5):
            data = ou_dataset(m=50, seed=seed)
            mom = estimate_moments(data, spec)
            unclamped = mom.m2_t - mom.hs_norm_cxy**2
            assert unclamped >= -1e-10
            assert mom.sigma_t >= 0.0
            assert mom.sigma_t**2 == pytest.approx(max(0.0, unclamped))
            assert mom.lag == data.lag


class TestPoincareEnvelopes:
    def test_long_time_limit(self):
        assert poincare_envelope_m2(1e9, 1.0, 1.0, 0.8, 0.5) == pytest.approx(0.64)

    def test_zero_time(self):
        assert poincare_envelope_m2(0.0, 1.0, 1.0, 0.8, 0.5) == pytest.approx(0.89)

    def test_half_life(self):
        # t = ln(2)/2 with rate = beta_temp = 1 halves the decay term
        t = math.log(2.0) / 2.0
        assert poincare_envelope_m2(t, 1.0, 1.0, 0.8, 0.5) == pytest.approx(
            0.64 + 0.5 * 0.25, abs=1e-14)

    def test_hs_variant_same_formula(self):
        args = (0.7, 1.3, 2.0, 0.6, 0.4)
        assert poincare_envelope_hs(*args) == poincare_envelope_m2(*args)

    def test_rejections(self):
        with pytest.raises(ValueError):
            poincare_envelope_m2(1.0, 0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            poincare_envelope_hs(-1.0, 1.0, 1.0, 1.0, 1.0)

    def test_ou_envelope_bounds_empirical_moments(self, spec):
        # soft check: empirical second moments at 20 lags sit under the
        # envelopes built from Monte-Carlo norm estimates (spectral gap = rate)
        alpha = beta = 1.0
        rng = np.random.default_rng(100)
        s1 = rng.standard_normal(200_000)  # stationary N(0, 1/(alpha*beta))
        s2 = rng.standard_normal(200_000)
        kvals = np.exp(-0.5 * (s1 - s2) ** 2)
        k_l1 = float(kvals.mean())
        k_centered_l2 = math.sqrt(max(0.0, float((kvals**2).mean()) - k_l1**2))

        model = ou_model(alpha, beta)
        lags = np.linspace(0.05, 1.5, 20)
        hs_violations = 0
        m2_violations = 0
        for i, lag in enumerate(lags):
            data = simulate_pairs(model, GaussianInitial(0.0, 1.0), float(lag),
                                  10_000, seed=200 + i)
            emp_hs_sq = estimate_hs_norm_cxy(data, spec) ** 2
            env_hs = poincare_envelope_hs(float(lag), alpha, beta, k_l1, k_centered_l2)
            hs_violations += emp_hs_sq > env_hs
            emp_m2 = estimate_second_moment(data, spec)
            m2_violations += emp_m2 > poincare_envelope_m2(float(lag), alpha, beta, 1.0, 0.0)
        # the kernel diagonal is constant, so the M2 envelope is exact
        assert m2_violations / len(lags) < 0.10
        # the HS envelope's single decay rate is first-order; beyond one lag
        # unit the remaining slack sits at the sample-noise level
        assert hs_violations <= 4


class TestBernsteinBound:
    def test_reference_value(self):
        value = bernstein_bound(0.1, 100, 0.05, 1.0, 1.0, 1.0, 1.0)
        assert value == pytest.approx(BERNSTEIN_REFERENCE, abs=1e-6)

    def test_quadrupling_m_halves_without_moment_term(self):
        base = bernstein_bound(0.1, 100, 0.05, 1.0, 1.0, 1.0, 0.0)
        quad = bernstein_bound(0.1, 400, 0.05, 1.0, 1.0, 1.0, 0.0)
        assert quad == pytest.approx(base / 2.0, rel=1e-14)

    def test_vanishes_without_noise(self):
        assert bernstein_bound(0.1, 100, 0.05, 0.0, 0.0, 1.0, 0.0) == 0.0

    def test_monotonicity(self):
        base = bernstein_bound(0.1, 100, 0.05, 1.0, 1.0, 1.0, 1.0)
        assert bernstein_bound(0.1, 200, 0.05, 1.0, 1.0, 1.0, 1.0) < base
        assert bernstein_bound(0.1, 100, 0.05, 1.5, 1.0, 1.0, 1.0) > base
        assert bernstein_bound(0.1, 100, 0.05, 1.0, 1.5, 1.0, 1.0) > base
        assert bernstein_bound(0.1, 100, 0.05, 1.0, 1.0, 1.5, 1.0) > base
        assert bernstein_bound(0.1, 100, 0.05, 1.0, 1.0, 1.0, 1.5) > base

    def test_rejects_bad_confidence(self):
        with pytest.raises(ValueError):
            bernstein_bound(0.1, 100, 0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            bernstein_bound(0.1, 100, 1.0, 1.0, 1.0, 1.0)
