"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Statistical criteria run fixed seeds, so every assertion here is
deterministic; tolerances and runtime budgets are part of the contract.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from mmdtube import (
    Embedding,
    KernelSpec,
    PairedDataset,
    bernstein_bound,
    bootstrap_deviation_quantile,
    closed_form_bound_computable,
    embed_sample,
    estimate_hs_norm_cxy,
    estimate_second_moment,
    fit,
    gram,
    mmd,
    mmd_to_gaussian,
    operator_diff_norm,
    operator_norm_maximizer,
    pushforward,
    radius_series,
    rkhs_norm,
)
from mmdtube.experiments import ExperimentConfig, OracleSpec, cmd_oracle_compare, cmd_rate, cmd_reproduce_ou

from conftest import brute_mmd_sq, ou_dataset, rbf


@contextmanager
def criterion(num, name, budget_seconds):
    """Time the whole block against ``budget_seconds`` and print a summary line.

    The budget covers everything inside the block, the test's own reference
    computation included. A brute-force reference inside a timed criterion
    must therefore be cheap scalar code; it must not be moved out of the
    block or sped up by calling the library it is checking.
    """
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num:2d} ({name})")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, f"criterion {num} exceeded {budget_seconds}s budget"
    print(f"[PASS] criterion {num:2d} ({name}): {elapsed:.2f}s < {budget_seconds:.0f}s")


def test_criterion_01_mmd_brute_force_equivalence(spec):
    with criterion(1, "mmd brute-force equivalence", 1.0):
        rng = np.random.default_rng(101)
        for trial in range(100):
            dim = 1 if trial % 2 == 0 else 3
            na, nb = rng.integers(1, 51, 2)
            a = Embedding(rng.standard_normal((na, dim)), rng.standard_normal(na))
            b = Embedding(rng.standard_normal((nb, dim)), rng.standard_normal(nb))
            anchors = np.vstack([a.anchors, b.anchors])
            signed = np.concatenate([a.weights, -b.weights])
            brute = brute_mmd_sq(anchors.tolist(), signed.tolist())
            assert abs(mmd(a, b, spec) ** 2 - max(brute, 0.0)) < 1e-10


def test_criterion_02_operator_norm_self_consistency():
    with criterion(2, "operator-norm eigenvector self-consistency", 5.0):
        rng = np.random.default_rng(102)
        for _ in range(20):
            m = int(rng.integers(5, 51))
            data = ou_dataset(m=m, lag=float(rng.uniform(0.2, 1.0)),
                              seed=int(rng.integers(1_000_000)))
            spec = KernelSpec(bandwidth=float(rng.uniform(0.6, 1.6)))
            op = fit(data, float(rng.uniform(0.02, 0.5)), spec)
            e, mu_star = operator_norm_maximizer(op)
            assert abs(rkhs_norm(pushforward(op, mu_star), spec) - e) < 1e-8
            k_xx = gram(op.x_train, op.x_train, spec)
            for _ in range(100):
                alpha = rng.standard_normal(m)
                alpha /= math.sqrt(alpha @ k_xx @ alpha)
                mu = Embedding(data.x, alpha)
                assert rkhs_norm(pushforward(op, mu), spec) <= e + 1e-8


def test_criterion_03_self_difference_zero():
    with criterion(3, "operator self-difference zero", 5.0):
        rng = np.random.default_rng(103)
        for _ in range(20):
            m = int(rng.integers(5, 41))
            data = ou_dataset(m=m, seed=int(rng.integers(1_000_000)))
            spec = KernelSpec(bandwidth=float(rng.uniform(0.6, 1.6)))
            op = fit(data, float(rng.uniform(0.01, 0.5)), spec)
            assert operator_diff_norm(op, op) <= 1e-6


def test_criterion_04_bootstrap_degenerate_case():
    with criterion(4, "bootstrap degenerate case", 1.0):
        data = PairedDataset(np.full((12, 1), 0.7), np.full((12, 1), 0.2),
                             lag=1.0, seed=0)
        summary = bootstrap_deviation_quantile(data, 0.01, KernelSpec(1.0),
                                               m_b=50, alpha=0.05, seed=42)
        assert np.all(summary.deviations == 0.0)
        assert summary.quantile_delta == 0.0


def test_criterion_05_convergence_rate(tmp_path):
    with criterion(5, "bootstrap convergence rate", 300.0):
        cfg = ExperimentConfig(m_b=200, alpha_conf=0.05, seed=7,
                               output_dir=str(tmp_path))
        result = cmd_rate(cfg, (50, 100, 200, 400, 800))
        assert not result["degenerate"]
        assert -0.6 <= result["slope"] <= -0.2, f"slope {result['slope']}"


def test_criterion_06_oracle_trend(tmp_path):
    with criterion(6, "bootstrap tends towards the fresh-sample oracle", 300.0):
        cfg = ExperimentConfig(lag=0.5, lam=0.05, m_b=100, alpha_conf=0.05,
                               seed=7, output_dir=str(tmp_path))
        result = cmd_oracle_compare(cfg, OracleSpec(sample_count=5000, trials=1),
                                    (100, 400, 1600))
        table = result["table"]
        deltas, oracle = table[:, 1], table[:, 2]
        assert deltas[-1] < deltas[0], "bootstrap delta must decrease over the sweep"
        assert oracle[-1] < oracle[0], "oracle deviation must decrease over the sweep"
        for d, o in zip(deltas, oracle):
            ratio = d / o
            assert max(ratio, 1.0 / ratio) <= 10.0, f"order-of-magnitude gap: {ratio}"


def test_criterion_07_tube_identity():
    with criterion(7, "tube recursion/closed-form identity", 1.0):
        rng = np.random.default_rng(107)
        for _ in range(200):
            e, f, rho0 = rng.uniform(0.0, 2.0, 3)
            horizon = int(rng.integers(1, 51))
            norms = rng.uniform(0.0, 3.0, horizon)
            rec = radius_series(e, f, rho0, norms)[-1]
            closed = closed_form_bound_computable(e, f, rho0, norms, horizon)
            assert abs(rec - closed) <= 1e-12 * max(rec, closed, 1e-30)
        # zero deviation collapses to pure powers of the operator norm
        for _ in range(50):
            e, rho0 = rng.uniform(0.0, 2.0, 2)
            horizon = int(rng.integers(1, 51))
            norms = rng.uniform(0.0, 3.0, horizon)
            rec = radius_series(e, 0.0, rho0, norms)[-1]
            assert rec == closed_form_bound_computable(e, 0.0, rho0, norms, horizon)
            expected = rho0
            for _ in range(horizon):
                expected = expected * e
            assert rec == expected


def test_criterion_08_multistep_reproduction(tmp_path):
    with criterion(8, "multistep pipeline reproduction", 120.0):
        def run(out_dir):
            cfg = ExperimentConfig(m=250, lam=0.01, rho0=0.1, T=20, seed=7,
                                   initial={"kind": "gaussian", "mean": 0.5,
                                            "variance": 2.0},
                                   output_dir=str(out_dir))
            return cmd_reproduce_ou(cfg)

        result_a = run(tmp_path / "a")
        result_b = run(tmp_path / "b")
        tube = result_a["tube"]
        assert tube.horizon == 20
        assert np.all(np.isfinite(tube.radii))
        assert np.all(tube.radii > 0.0)
        # emitted radius series obeys the recursion's closed form
        meta_e = result_a["e_norm"]
        meta_f = result_a["f_norm"]
        closed = closed_form_bound_computable(meta_e, meta_f, 0.1, tube.norms[:20], 20)
        assert abs(tube.radii[-1] - closed) <= 1e-12 * closed
        files_a = {p.name: p.read_bytes() for p in sorted((tmp_path / "a").iterdir())}
        files_b = {p.name: p.read_bytes() for p in sorted((tmp_path / "b").iterdir())}
        assert files_a == files_b, "same seed must reproduce identical bytes"


def test_criterion_09_analytic_gaussian_oracle(spec):
    with criterion(9, "analytic Gaussian embedding oracle", 30.0):
        rng = np.random.default_rng(42)
        errors = {}
        for m in (10_000, 40_000):
            xs = 0.5 + math.sqrt(2.0) * rng.standard_normal(m)
            errors[m] = mmd_to_gaussian(embed_sample(xs[:, None]), 0.5, 2.0, spec)
        assert errors[10_000] < 0.05
        ratio = errors[40_000] / errors[10_000]
        assert 0.35 <= ratio <= 0.65, f"quadrupling m gave ratio {ratio}"


def test_criterion_10_bernstein_formula():
    with criterion(10, "concentration bound formula checks", 1.0):
        value = bernstein_bound(0.1, 100, 0.05, 1.0, 1.0, 1.0, 1.0)
        assert abs(value - 89.27088278955726) < 1e-6
        base = bernstein_bound(0.1, 100, 0.05, 1.0, 1.0, 1.0, 0.0)
        assert bernstein_bound(0.1, 400, 0.05, 1.0, 1.0, 1.0, 0.0) == base / 2.0
        reference = bernstein_bound(0.1, 100, 0.05, 1.0, 1.0, 1.0, 1.0)
        assert bernstein_bound(0.1, 400, 0.05, 1.0, 1.0, 1.0, 1.0) < reference
        for bump in ("sigma_t", "sigma_0", "hs", "moment"):
            args = dict(sigma_t=1.0, sigma_0=1.0, hs=1.0, moment=1.0)
            args[bump] = 1.7
            bumped = bernstein_bound(0.1, 100, 0.05, args["sigma_t"], args["sigma_0"],
                                     args["hs"], args["moment"])
            assert bumped > reference


def test_criterion_11_moment_estimators(spec):
    with criterion(11, "cross-covariance moment estimators", 1.0):
        data = ou_dataset(m=10, seed=11)
        acc = 0.0
        for i in range(10):
            for j in range(10):
                acc += rbf(data.x[i], data.x[j]) * rbf(data.y[i], data.y[j])
        assert abs(estimate_hs_norm_cxy(data, spec) - math.sqrt(acc / 100.0)) < 1e-12
        assert estimate_second_moment(data, spec) == 1.0
        assert estimate_second_moment(ou_dataset(m=123, seed=5), spec) == 1.0
