import math

import numpy as np
import pytest
from scipy.linalg import eigh

from mmdtube import (
    Embedding,
    KernelSpec,
    PairedDataset,
    UniformInitial,
    bootstrap_deviation_quantile,
    double_well_model,
    embed_sample,
    estimate_hs_norm_cxy,
    fit,
    gram,
    median_bandwidth,
    mmd,
    mmd_to_gaussian,
    operator_diff_norm,
    operator_diff_norm_maximizer,
    operator_norm,
    operator_norm_maximizer,
    pushforward,
    rkhs_norm,
    simulate_pairs,
)
from mmdtube.bootstrap import resample_indices
from mmdtube.operators import RANK_RTOL

from conftest import ou_dataset

EXP_HALF = math.exp(-0.5)


def toy_dataset():
    return PairedDataset(np.array([[0.0], [1.0]]), np.array([[1.0], [0.0]]),
                         lag=1.0, seed=0)


class TestFit:
    def test_ridge_system_assembly(self, spec):
        # m=2, lambda=0.5: K_XX + 2*0.5*I = [[2, e^{-1/2}], [e^{-1/2}, 2]]
        op = fit(toy_dataset(), 0.5, spec)
        ridge = gram(op.x_train, op.x_train, spec) + op.m * op.lam * np.eye(op.m)
        np.testing.assert_allclose(ridge, [[2.0, EXP_HALF], [EXP_HALF, 2.0]], atol=1e-15)

    @pytest.mark.parametrize("lam", [0.5, 1e-2, 1e-4, 1e-6])
    def test_solve_matches_dense_ridge_solve(self, spec, lam):
        # the eigendecomposition solve against a dense LU solve, on full-rank
        # data and on duplicated anchors (rank-deficient K_XX)
        ou = ou_dataset(m=60, seed=21)
        dup = PairedDataset(np.repeat(ou.x[:20], 3, axis=0), np.repeat(ou.y[:20], 3, axis=0),
                            lag=ou.lag, seed=0)
        rng = np.random.default_rng(22)
        for data in (ou, dup):
            op = fit(data, lam, spec)
            ridge = gram(op.x_train, op.x_train, spec) + op.m * lam * np.eye(op.m)
            for rhs in (rng.standard_normal(op.m), rng.standard_normal((op.m, 3))):
                x = op.solve(rhs)
                assert x.shape == rhs.shape
                assert np.linalg.norm(ridge @ x - rhs) <= 1e-9 * np.linalg.norm(rhs)
                dense = np.linalg.solve(ridge, rhs)
                assert np.linalg.norm(x - dense) <= 1e-9 * np.linalg.norm(dense)

    def test_rejects_single_pair(self, spec):
        data = PairedDataset(np.zeros((1, 1)), np.zeros((1, 1)), lag=1.0, seed=0)
        with pytest.raises(ValueError):
            fit(data, 0.1, spec)

    def test_rejects_nonpositive_lambda(self, spec):
        with pytest.raises(ValueError):
            fit(toy_dataset(), 0.0, spec)


class TestPushforward:
    def test_matrix_identity_small(self, spec):
        rng = np.random.default_rng(0)
        for m in (2, 3, 5):
            data = ou_dataset(m=m, seed=m)
            op = fit(data, 0.3, spec)
            alpha = rng.standard_normal(m)
            out = pushforward(op, Embedding(data.x, alpha))
            k = gram(op.x_train, op.x_train, spec)
            expected = np.linalg.solve(k + m * 0.3 * np.eye(m), k @ alpha)
            np.testing.assert_array_equal(out.anchors, data.y)
            np.testing.assert_allclose(out.weights, expected, atol=1e-12)

    def test_zero_weights_stay_zero(self, spec):
        data = ou_dataset(m=10, seed=1)
        op = fit(data, 0.1, spec)
        out = pushforward(op, Embedding(data.x, np.zeros(10)))
        np.testing.assert_array_equal(out.weights, np.zeros(10))

    def test_huge_lambda_annihilates(self, spec):
        data = ou_dataset(m=10, seed=2)
        op = fit(data, 1e10, spec)
        out = pushforward(op, embed_sample(data.x))
        assert np.max(np.abs(out.weights)) < 1e-9

    def test_linearity(self, spec):
        data = ou_dataset(m=12, seed=3)
        op = fit(data, 0.2, spec)
        rng = np.random.default_rng(4)
        wa, wb = rng.standard_normal((2, 12))
        a_coef, b_coef = 0.7, -1.3
        combo = pushforward(op, Embedding(data.x, a_coef * wa + b_coef * wb))
        parts = (a_coef * pushforward(op, Embedding(data.x, wa)).weights
                 + b_coef * pushforward(op, Embedding(data.x, wb)).weights)
        np.testing.assert_allclose(combo.weights, parts, atol=1e-12)

    def test_dimension_mismatch_rejected(self, spec):
        op = fit(toy_dataset(), 0.1, spec)
        with pytest.raises(ValueError):
            pushforward(op, Embedding(np.zeros((2, 2)), np.ones(2)))

    def test_huge_lambda_leaves_target_norm(self, spec):
        # with the operator annihilated, the deviation from any evolved
        # embedding is just that embedding's own norm
        data = ou_dataset(m=50, seed=16)
        op = fit(data, 1e8, spec)
        fresh = ou_dataset(m=200, seed=17)
        evolved = embed_sample(fresh.y)
        dev = mmd(evolved, pushforward(op, embed_sample(fresh.x)), spec)
        assert dev == pytest.approx(rkhs_norm(evolved, spec), abs=1e-6)

    def test_converges_to_analytic_image(self):
        # pushforward of a fresh embedding approaches the exact OU image as m grows
        lag = 0.5
        mean_img = 0.5 * math.exp(-lag)
        var_img = 2.0 * math.exp(-2.0 * lag) + 1.0 - math.exp(-2.0 * lag)
        rng = np.random.default_rng(123)
        mu = embed_sample((0.5 + math.sqrt(2.0) * rng.standard_normal(2000))[:, None])
        errors = []
        for m in (100, 1000):
            data = ou_dataset(m=m, lag=lag, seed=42)
            spec = KernelSpec(median_bandwidth(data.x))
            op = fit(data, 0.01, spec)
            errors.append(mmd_to_gaussian(pushforward(op, mu), mean_img, var_img, spec))
        assert errors[1] < errors[0]


class TestOperatorNorm:
    def test_identity_limit(self, spec):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((5, 1))
        data = PairedDataset(x, x, lag=1.0, seed=0)
        op = fit(data, 1e-8, spec)
        assert abs(operator_norm(op) - 1.0) <= 1e-3

    def test_monotone_decreasing_in_lambda(self, spec):
        data = ou_dataset(m=25, seed=6)
        norms = [operator_norm(fit(data, lam, spec)) for lam in (0.01, 0.1, 1.0, 10.0)]
        assert all(a > b for a, b in zip(norms, norms[1:]))
        assert operator_norm(fit(data, 1e9, spec)) < 1e-6

    def test_maximizer_achieves_norm(self, spec):
        # OU data, duplicated anchors (rank-deficient K_XX) and a narrow
        # bandwidth that keeps every eigenpair (r = m)
        cases = [(ou_dataset(m=20, seed=seed), spec) for seed in range(5)]
        ou = ou_dataset(m=20, seed=5)
        cases.append((PairedDataset(np.repeat(ou.x[:10], 2, axis=0),
                                    np.repeat(ou.y[:10], 2, axis=0), lag=ou.lag, seed=0), spec))
        cases.append((ou, KernelSpec(bandwidth=0.05)))
        for data, case_spec in cases:
            op = fit(data, 0.05, case_spec)
            e, mu_star = operator_norm_maximizer(op)
            assert abs(rkhs_norm(mu_star, case_spec) - 1.0) < 1e-10
            assert abs(rkhs_norm(pushforward(op, mu_star), case_spec) - e) < 1e-8
        assert op._kxx_eig[0].shape[0] == op.m

    def test_dominates_random_unit_embeddings(self, spec):
        rng = np.random.default_rng(7)
        data = ou_dataset(m=30, seed=8)
        op = fit(data, 0.05, spec)
        e = operator_norm(op)
        k = gram(op.x_train, op.x_train, spec)
        for _ in range(100):
            a = rng.standard_normal(30)
            a /= math.sqrt(a @ k @ a)
            assert rkhs_norm(pushforward(op, Embedding(data.x, a)), spec) <= e + 1e-8

    def test_agrees_with_generalized_eigenproblem(self):
        # a fully dense K^{-1}-form solve on well-conditioned instances
        spec = KernelSpec(bandwidth=0.3)
        for seed in (0, 1, 2):
            data = ou_dataset(m=15, seed=seed)
            op = fit(data, 0.1, spec)
            k = gram(data.x, data.x, spec)
            assert np.linalg.cond(k) <= 1e8  # the reference's own precondition
            ridge = k + op.m * op.lam * np.eye(op.m)
            s = np.linalg.solve(ridge, np.linalg.solve(ridge, gram(data.y, data.y, spec)).T)
            g = k @ s @ k  # S = (K + m lam I)^{-1} K_YY (K + m lam I)^{-1}
            top = eigh(0.5 * (g + g.T), k, eigvals_only=True)[-1]
            assert operator_norm(op) == pytest.approx(math.sqrt(max(top, 0.0)), abs=1e-8)


class TestOperatorDiffNorm:
    def test_self_difference_is_zero(self, spec):
        for seed in range(5):
            op = fit(ou_dataset(m=15, seed=seed), 0.05, spec)
            assert operator_diff_norm(op, op) <= 1e-6

    def test_annihilated_second_operator(self, spec):
        data = ou_dataset(m=20, seed=9)
        op1 = fit(data, 0.05, spec)
        op2 = fit(data, 1e8, spec)
        assert abs(operator_diff_norm(op1, op2) - operator_norm(op1)) <= 1e-4

    def test_upper_bounds_pointwise_deviations(self, spec):
        rng = np.random.default_rng(10)
        data = ou_dataset(m=20, seed=11)
        op1 = fit(data, 0.05, spec)
        idx = rng.integers(0, 20, 20)
        resample = PairedDataset(data.x[idx], data.y[idx], lag=data.lag, seed=0)
        op2 = fit(resample, 0.05, spec)
        d, mu_star = operator_diff_norm_maximizer(op1, op2)
        z = np.vstack([op1.x_train, op2.x_train])
        for _ in range(100):
            a = rng.standard_normal(z.shape[0])
            mu = Embedding(z, a)
            nrm = rkhs_norm(mu, spec)
            if nrm < 1e-8:
                continue
            mu = mu.scaled(1.0 / nrm)
            dev = mmd(pushforward(op1, mu), pushforward(op2, mu), spec)
            assert dev <= d + 1e-10
        achieved = mmd(pushforward(op1, mu_star), pushforward(op2, mu_star), spec)
        assert abs(achieved - d) <= 1e-6

    def test_triangle_inequality_on_resamples(self, spec):
        rng = np.random.default_rng(12)
        data = ou_dataset(m=15, seed=13)
        op1 = fit(data, 0.05, spec)
        for _ in range(5):
            i2, i3 = rng.integers(0, 15, (2, 15))
            op2 = fit(PairedDataset(data.x[i2], data.y[i2], lag=data.lag, seed=0), 0.05, spec)
            op3 = fit(PairedDataset(data.x[i3], data.y[i3], lag=data.lag, seed=0), 0.05, spec)
            d13 = operator_diff_norm(op1, op3)
            d12 = operator_diff_norm(op1, op2)
            d23 = operator_diff_norm(op2, op3)
            assert d13 <= d12 + d23 + 1e-6

    def test_kernel_mismatch_rejected(self):
        data = ou_dataset(m=5, seed=14)
        op1 = fit(data, 0.1, KernelSpec(1.0))
        op2 = fit(data, 0.1, KernelSpec(2.0))
        with pytest.raises(ValueError):
            operator_diff_norm(op1, op2)


def _factor_cases():
    """(name, data, spec, lam): the criterion-2 ranges, the pipeline default,
    r >= m, duplicated anchors, all-identical points and the double well."""
    ou = ou_dataset(m=60, seed=21)
    same = np.full((12, 1), 0.7)
    dw = simulate_pairs(double_well_model(4.0), UniformInitial(-2.0, 2.0), lag=0.1, m=200,
                        seed=3)
    default = ou_dataset(m=250, lag=0.1, seed=7)
    return [
        ("criterion-small", ou_dataset(m=5, lag=1.0, seed=1), KernelSpec(1.6), 0.5),
        ("criterion-large", ou_dataset(m=50, lag=0.2, seed=2), KernelSpec(0.6), 0.02),
        ("pipeline-default", default, KernelSpec(median_bandwidth(default.x)), 0.01),
        ("narrow-bandwidth", ou, KernelSpec(0.05), 0.01),
        ("triplicated", PairedDataset(np.repeat(ou.x[:20], 3, axis=0),
                                      np.repeat(ou.y[:20], 3, axis=0), lag=ou.lag, seed=0),
         KernelSpec(1.0), 1e-3),
        ("identical", PairedDataset(same, same, lag=1.0, seed=0), KernelSpec(1.0), 0.01),
        ("double-well", dw, KernelSpec(median_bandwidth(dw.x)), 0.01),
    ]


@pytest.mark.parametrize("name, data, spec, lam", _factor_cases(),
                         ids=[c[0] for c in _factor_cases()])
def test_factor_matches_dense_references(name, data, spec, lam):
    # Every quantity the pivoted-Cholesky factor feeds, against dense m x m
    # linear algebra built here from the Grams alone.
    op = fit(data, lam, spec)
    m = data.m
    k_xx, k_yy = gram(data.x, data.x, spec), gram(data.y, data.y, spec)
    ridge = k_xx + m * lam * np.eye(m)
    if name == "narrow-bandwidth":
        assert op.l_x.shape[1] >= m
    if name == "identical":
        assert op.l_x.shape[1] == 1
    if op.l_x.shape[1] < m:  # below full rank the operator keeps nothing m x m
        assert max(v.size for v in vars(op).values() if isinstance(v, np.ndarray)) < m * m

    def rel_err(got, want):
        return np.linalg.norm(np.subtract(got, want)) / np.linalg.norm(want)

    rhs = np.random.default_rng(0).standard_normal((m, 3))
    assert rel_err(op.solve(rhs), np.linalg.solve(ridge, rhs)) <= 1e-8

    vals, vecs = np.linalg.eigh(k_xx)
    keep = vals > RANK_RTOL * vals[-1]
    g = vecs[:, keep] * np.sqrt(vals[keep])      # K_XX = g g^T on its numerical range

    def top_norm(d):                             # sqrt of the top eigenvalue of d^T K_YY d
        return math.sqrt(max(0.0, np.linalg.eigvalsh(d.T @ k_yy @ d)[-1]))

    e_dense = top_norm(np.linalg.solve(ridge, g))
    assert rel_err(operator_norm(op), e_dense) <= 1e-8

    # a replicate is the norm of [S^T (S K S^T + m lam)^{-1} S - (K + m lam)^{-1}] K
    # on the base span, S selecting the resampled rows
    summary = bootstrap_deviation_quantile(data, lam, spec, m_b=6, alpha=0.5, seed=5)
    dense = []
    for idx in resample_indices(m, 6, 5):
        sel = np.eye(m)[idx]
        resampled = sel.T @ np.linalg.solve(sel @ k_xx @ sel.T + m * lam * np.eye(m), sel @ g)
        dense.append(top_norm(resampled - np.linalg.solve(ridge, g)))
    assert np.max(np.abs(summary.deviations - np.sort(dense))) <= 1e-8 * e_dense

    hs_dense = math.sqrt(float(np.sum(k_xx * k_yy))) / m
    assert rel_err(estimate_hs_norm_cxy(data, spec), hs_dense) <= 1e-8
