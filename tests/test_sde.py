import math

import numpy as np
import pytest

from mmdtube import (
    GaussianInitial,
    PairedDataset,
    PointInitial,
    SdeModel,
    UniformInitial,
    double_well_model,
    euler_maruyama,
    load_dataset,
    ou_exact_step,
    ou_model,
    save_dataset,
    simulate_pairs,
)


def generic_ou_model():
    """OU drift without the exact-transition tag, forcing Euler-Maruyama."""
    return SdeModel(drift=lambda x: -x, diffusion_const=math.sqrt(2.0), name="generic-ou")


class TestOuExactStep:
    def test_rejects_nonpositive_parameters(self):
        rng = np.random.default_rng(0)
        for bad in [dict(lag=0.0), dict(alpha=0.0), dict(beta_temp=-1.0)]:
            kwargs = dict(x0=0.0, lag=1.0, alpha=1.0, beta_temp=1.0, rng=rng)
            kwargs.update(bad)
            with pytest.raises(ValueError):
                ou_exact_step(**kwargs)

    def test_tiny_lag_returns_initial_state(self):
        rng = np.random.default_rng(1)
        y = ou_exact_step(0.8, 1e-12, 1.0, 1.0, rng)
        assert abs(y - 0.8) < 1e-5

    def test_long_lag_reaches_stationary_variance(self):
        # alpha = beta_temp = 1: stationary distribution N(0, 1)
        rng = np.random.default_rng(2)
        draws = np.array([ou_exact_step(5.0, 50.0, 1.0, 1.0, rng) for _ in range(100_000)])
        assert 0.98 <= draws.var(ddof=1) <= 1.02
        assert abs(draws.mean()) < 0.02

    def test_transition_mean(self):
        rng = np.random.default_rng(3)
        lag = 0.3
        draws = np.array([ou_exact_step(2.0, lag, 1.0, 1.0, rng) for _ in range(20_000)])
        expected = 2.0 * math.exp(-lag)
        assert abs(draws.mean() - expected) < 4 * draws.std(ddof=1) / math.sqrt(20_000)


class TestEulerMaruyama:
    def test_deterministic_degenerate_case(self):
        model = SdeModel(drift=lambda x: 0.0 * x, diffusion_const=0.0)
        traj = euler_maruyama(model, [1.5], dt=0.1, steps=20, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(traj, np.full((21, 1), 1.5))

    def test_trajectory_shape_and_start(self):
        traj = euler_maruyama(generic_ou_model(), [0.2, -0.4], dt=0.01, steps=10,
                              rng=np.random.default_rng(1))
        assert traj.shape == (11, 2)
        np.testing.assert_array_equal(traj[0], [0.2, -0.4])

    def test_rejects_bad_dt_and_steps(self):
        rng = np.random.default_rng(2)
        for dt in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                euler_maruyama(generic_ou_model(), [0.0], dt=dt, steps=5, rng=rng)
        with pytest.raises(ValueError):
            euler_maruyama(generic_ou_model(), [0.0], dt=0.1, steps=0, rng=rng)

    def test_nonfinite_drift_reports_step(self):
        exploding = SdeModel(drift=lambda x: x * np.inf, diffusion_const=1.0)
        with pytest.raises(FloatingPointError, match="step 0"):
            euler_maruyama(exploding, [1.0], dt=0.1, steps=3, rng=np.random.default_rng(3))

    def test_ou_mean_matches_exact_transition(self):
        # 1e4 paths to t=1 with dt=1e-3: mean within 3 standard errors of e^{-1}
        data = simulate_pairs(generic_ou_model(), PointInitial(1.0), lag=1.0,
                              m=10_000, dt=1e-3, seed=11)
        se = data.y.std(ddof=1) / 100.0
        assert abs(data.y.mean() - math.exp(-1.0)) < 3 * se

    def test_weak_error_decays_with_dt(self):
        errors = []
        for dt in (0.1, 0.01, 0.001):
            data = simulate_pairs(generic_ou_model(), PointInitial(1.0), lag=1.0,
                                  m=100_000, dt=dt, seed=9)
            errors.append(abs(float(data.y.mean()) - math.exp(-1.0)))
        # the coarse step's bias dominates; the finer two sit inside MC noise
        noise = 3.0 * float(data.y.std(ddof=1)) / math.sqrt(100_000)
        assert errors[0] > errors[1] - noise
        assert errors[1] > errors[2] - noise
        assert errors[0] > max(errors[1], errors[2])

    def test_double_well_concentrates_near_wells(self):
        model = double_well_model(beta_temp=4.0)
        traj = euler_maruyama(model, [0.5], dt=0.01, steps=200_000,
                              rng=np.random.default_rng(3))
        tail = np.abs(traj[20_000:, 0])
        assert np.mean((tail > 0.5) & (tail < 1.5)) > 0.8


class TestSimulatePairs:
    def test_shape_contract(self):
        data = simulate_pairs(ou_model(1.0, 1.0), PointInitial(0.0), lag=0.5, m=2, seed=0)
        assert data.x.shape == data.y.shape == (2, 1)

    def test_rejects_single_pair(self):
        with pytest.raises(ValueError):
            simulate_pairs(ou_model(1.0, 1.0), PointInitial(0.0), lag=0.5, m=1, seed=0)

    def test_determinism(self):
        kwargs = dict(model=ou_model(1.0, 1.0), initial=GaussianInitial(0.5, 2.0),
                      lag=0.25, m=64, seed=123)
        a = simulate_pairs(**kwargs)
        b = simulate_pairs(**kwargs)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_em_determinism_across_block_boundaries(self):
        model = generic_ou_model()
        a = simulate_pairs(model, UniformInitial(-1.0, 1.0), lag=0.05, m=50, dt=0.01, seed=5)
        b = simulate_pairs(model, UniformInitial(-1.0, 1.0), lag=0.05, m=50, dt=0.01, seed=5)
        np.testing.assert_array_equal(a.y, b.y)

    @pytest.mark.parametrize("model", [ou_model(1.0, 1.0), double_well_model(4.0)],
                             ids=["ou", "double-well"])
    @pytest.mark.parametrize("dt", [0.0, -0.01, math.nan, math.inf])
    def test_rejects_bad_dt(self, model, dt):
        with pytest.raises(ValueError, match="dt"):
            simulate_pairs(model, PointInitial(0.0), lag=0.1, m=4, dt=dt, seed=0)

    def test_ou_uses_exact_transition(self):
        data = simulate_pairs(ou_model(1.0, 1.0), PointInitial(0.0), lag=0.5, m=4, seed=0)
        assert data.dt is None
        assert data.model_name == "ou"

    def test_conditional_moments(self):
        # residuals y - x e^{-t} are N(0, 1 - e^{-2t}) for alpha = beta_temp = 1
        lag = 0.7
        data = simulate_pairs(ou_model(1.0, 1.0), GaussianInitial(0.5, 2.0),
                              lag=lag, m=100_000, seed=21)
        resid = data.y[:, 0] - data.x[:, 0] * math.exp(-lag)
        target = 1.0 - math.exp(-2.0 * lag)
        assert abs(resid.mean()) < 4 * math.sqrt(target) / math.sqrt(100_000)
        assert abs(resid.var(ddof=1) - target) < 4 * math.sqrt(2.0 / 100_000) * target

    def test_langevin_pairs_finite(self):
        data = simulate_pairs(double_well_model(4.0), GaussianInitial(0.0, 1.0),
                              lag=0.2, m=100, dt=1e-2, seed=17)
        assert np.all(np.isfinite(data.y))
        assert data.dt == 1e-2

    def test_euler_maruyama_stops_at_lag(self):
        # lag 0.1 over dt 0.03 takes 4 steps of 0.025, reaching exactly t = 0.1;
        # steps of dt would overshoot to t = 0.12 and give 0.97^4
        model = SdeModel(drift=lambda x: -x, diffusion_const=0.0, name="decay")
        data = simulate_pairs(model, PointInitial(1.0), lag=0.1, m=3, dt=0.03, seed=0)
        np.testing.assert_allclose(data.y, 0.975**4, rtol=0, atol=1e-15)
        assert data.dt == 0.03


class TestDatasetValidation:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PairedDataset(np.zeros((3, 1)), np.zeros((2, 1)), lag=1.0, seed=0)

    def test_nonpositive_lag_rejected(self):
        with pytest.raises(ValueError):
            PairedDataset(np.zeros((2, 1)), np.zeros((2, 1)), lag=0.0, seed=0)

    def test_negative_diffusion_rejected(self):
        with pytest.raises(ValueError):
            SdeModel(drift=lambda x: x, diffusion_const=-0.1)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        data = simulate_pairs(ou_model(1.0, 1.0), GaussianInitial(0.5, 2.0),
                              lag=0.25, m=30, seed=42)
        csv_path, sidecar = save_dataset(data, tmp_path / "pairs.csv")
        loaded = load_dataset(csv_path)
        np.testing.assert_array_equal(loaded.x, data.x)
        np.testing.assert_array_equal(loaded.y, data.y)
        assert loaded.lag == data.lag
        assert loaded.seed == data.seed
        assert loaded.model_name == data.model_name
        assert loaded.dt == data.dt

    def test_header_layout(self, tmp_path):
        data = simulate_pairs(ou_model(1.0, 1.0), PointInitial(0.0), lag=0.5, m=3, seed=1)
        csv_path, _ = save_dataset(data, tmp_path / "pairs.csv")
        header = csv_path.read_text().splitlines()[0]
        assert header == "x_0,y_0"

    def test_reemission_is_bit_identical(self, tmp_path):
        data = simulate_pairs(ou_model(1.0, 1.0), GaussianInitial(0.5, 2.0),
                              lag=0.25, m=30, seed=42)
        p1, s1 = save_dataset(data, tmp_path / "a.csv")
        p2, s2 = save_dataset(load_dataset(p1), tmp_path / "b.csv")
        assert p1.read_bytes() == p2.read_bytes()
        assert s1.read_bytes() == s2.read_bytes()

    def test_row_count_must_match_sidecar(self, tmp_path):
        data = simulate_pairs(ou_model(1.0, 1.0), GaussianInitial(0.5, 2.0),
                              lag=0.25, m=30, seed=42)
        csv_path, _ = save_dataset(data, tmp_path / "pairs.csv")
        lines = csv_path.read_text().splitlines(keepends=True)
        csv_path.write_text("".join(lines[:-1]))
        with pytest.raises(ValueError, match="29 rows.*m = 30"):
            load_dataset(csv_path)

    def test_odd_column_count_rejected(self, tmp_path):
        data = simulate_pairs(ou_model(1.0, 1.0), PointInitial(0.0), lag=0.5, m=3, seed=1)
        csv_path, _ = save_dataset(data, tmp_path / "pairs.csv")
        lines = csv_path.read_text().splitlines()
        csv_path.write_text("\n".join(line + ",0" for line in lines) + "\n")
        with pytest.raises(ValueError, match="3 columns"):
            load_dataset(csv_path)
