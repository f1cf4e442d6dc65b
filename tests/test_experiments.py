import json
import math

import numpy as np
import pytest
from scipy.linalg import eigvalsh

from mmdtube import bootstrap, fit, load_dataset, load_tube_radii, operators, quantile_index, sde
from mmdtube.cli import main
from mmdtube.experiments import (
    ExperimentConfig,
    _Run,
    OracleSpec,
    build_initial,
    build_model,
    cmd_bootstrap,
    cmd_oracle_compare,
    cmd_rate,
    cmd_reproduce_ou,
    cmd_simulate,
    cmd_tube,
    fit_loglog_slope,
)
from mmdtube.kernels import gram
from mmdtube.operators import RANK_RTOL


def small_config(tmp_path, **overrides):
    base = dict(m=40, m_b=25, T=4, lag=0.3, seed=11, output_dir=str(tmp_path))
    base.update(overrides)
    return ExperimentConfig(**base)


def tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


class TestConfig:
    def test_json_round_trip(self, tmp_path):
        cfg = ExperimentConfig(m=123, lam=0.5, bandwidth=2.0, seed=9)
        path = tmp_path / "cfg.json"
        cfg.to_json(path)
        assert ExperimentConfig.from_json(path) == cfg
        # the JSON field is spelled "lambda"
        assert json.loads(path.read_text())["lambda"] == 0.5

    def test_overrides(self):
        cfg = ExperimentConfig().with_overrides(m=99, lam=None, seed=1)
        assert cfg.m == 99
        assert cfg.seed == 1
        assert cfg.lam == ExperimentConfig().lam

    def test_oracle_spec_validation(self):
        with pytest.raises(ValueError):
            OracleSpec(sample_count=50)
        with pytest.raises(ValueError):
            OracleSpec(trials=0)


class TestSlopeFit:
    def test_recovers_injected_power_law(self):
        ms = np.array([50, 100, 200, 400, 800])
        deltas = 3.7 * ms**-0.5
        slope, intercept, degenerate = fit_loglog_slope(ms, deltas)
        assert not degenerate
        assert slope == pytest.approx(-0.5, abs=1e-10)
        assert intercept == pytest.approx(math.log(3.7), abs=1e-10)

    def test_all_equal_is_degenerate(self):
        slope, _, degenerate = fit_loglog_slope([10, 20, 40], [0.5, 0.5, 0.5])
        assert degenerate
        assert slope == 0.0

    def test_two_equal_plus_one_is_finite(self):
        slope, _, degenerate = fit_loglog_slope([10, 20, 40], [0.5, 0.5, 0.25])
        assert not degenerate
        assert math.isfinite(slope)

    def test_zero_deltas_do_not_crash(self):
        slope, _, degenerate = fit_loglog_slope([10, 20, 40], [0.0, 0.0, 0.0])
        assert degenerate and slope == 0.0


class TestCommands:
    def test_simulate_writes_dataset(self, tmp_path):
        cfg = small_config(tmp_path, m=250, seed=7)
        out = cmd_simulate(cfg)
        data = load_dataset(out["dataset_csv"])
        assert data.m == 250
        meta = json.loads(out["dataset_json"].read_text())
        assert meta["m"] == 250 and meta["model"] == "ou"
        # the sidecar seed is the one the pairs were drawn with
        again = sde.simulate_pairs(build_model(cfg.model), build_initial(cfg.initial),
                                   cfg.lag, cfg.m, dt=cfg.dt, seed=meta["seed"])
        np.testing.assert_array_equal(again.x, data.x)
        np.testing.assert_array_equal(again.y, data.y)

    def test_simulate_deterministic(self, tmp_path):
        cmd_simulate(small_config(tmp_path / "a"))
        cmd_simulate(small_config(tmp_path / "b"))
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    def test_simulate_minimal_size(self, tmp_path):
        out = cmd_simulate(small_config(tmp_path, m=2))
        lines = out["dataset_csv"].read_text().splitlines()
        assert len(lines) == 3  # header + 2 pairs

    def test_bootstrap_artifacts(self, tmp_path):
        cfg = small_config(tmp_path, m_b=200, alpha_conf=0.05)
        out = cmd_bootstrap(cfg)
        devs = np.loadtxt(out["deviations_csv"], skiprows=1)
        assert devs.shape == (200,)
        summary = json.loads(out["summary_json"].read_text())
        assert summary["m"] == 40 and summary["m_b"] == 200
        assert summary["alpha"] == 0.05
        assert summary["deviations_csv_path"] == "deviations.csv"
        # the recorded seed is the one the replicates were drawn with
        run = _Run.of(cfg)
        again = bootstrap.bootstrap_deviation_quantile(run.data, cfg.lam, run.spec, m_b=200,
                                                       alpha=0.05, seed=summary["seed"])
        np.testing.assert_array_equal(again.deviations, devs)
        # delta is the ceil(200 * 0.95) = 190th sorted value (1-based)
        assert summary["delta"] == np.sort(devs)[189]
        assert quantile_index(200, 0.05) == 189

    def test_rate_artifacts(self, tmp_path):
        cfg = small_config(tmp_path, m_b=15)
        out = cmd_rate(cfg, (20, 40, 80))
        table = np.loadtxt(out["rate_csv"], delimiter=",", skiprows=1)
        np.testing.assert_array_equal(table[:, 0], [20, 40, 80])
        report = json.loads(out["slope_json"].read_text())
        assert math.isfinite(report["slope"])
        assert report["degenerate"] is False

    def test_rate_needs_three_sizes(self, tmp_path):
        with pytest.raises(ValueError):
            cmd_rate(small_config(tmp_path), (20, 40))

    def test_oracle_compare_artifacts(self, tmp_path):
        cfg = small_config(tmp_path, m_b=10)
        out = cmd_oracle_compare(cfg, OracleSpec(sample_count=200), (30, 60))
        table = np.loadtxt(out["oracle_csv"], delimiter=",", skiprows=1)
        assert table.shape == (2, 3)
        assert np.all(table[:, 1:] > 0)
        header = out["oracle_csv"].read_text().splitlines()[0]
        assert header == "m,delta,oracle_mmd"

    def test_oracle_compare_requires_ou(self, tmp_path):
        cfg = small_config(tmp_path, model={"kind": "double-well", "beta_temp": 4.0})
        with pytest.raises(ValueError):
            cmd_oracle_compare(cfg, OracleSpec(sample_count=200), (30, 60))

    def test_tube_artifacts(self, tmp_path):
        cfg = small_config(tmp_path, T=5, rho0=0.1)
        out = cmd_tube(cfg)
        table = load_tube_radii(out["radius_csv"])
        assert table.shape == (6, 3)
        np.testing.assert_array_equal(table[:, 0], np.arange(6))
        assert np.all(np.isfinite(table[:, 1])) and np.all(table[:, 1] > 0)
        weights = np.loadtxt(out["weights_csv"], delimiter=",", skiprows=1)
        assert weights.shape == (6 * 40, 3)
        meta = json.loads(out["tube_json"].read_text())
        assert meta["f_source"] == "bootstrap"
        assert meta["rho0"] == 0.1 and meta["T"] == 5

    def test_tube_deviation_override_gives_pure_powers(self, tmp_path):
        cfg = small_config(tmp_path, T=6, rho0=0.1)
        out = cmd_tube(cfg, f_override=0.0)
        radii = load_tube_radii(out["radius_csv"])[:, 1]
        np.testing.assert_allclose(radii, 0.1 * out["e_norm"] ** np.arange(7), rtol=1e-12)
        meta = json.loads(out["tube_json"].read_text())
        assert meta["f_source"] == "override" and meta["f_norm"] == 0.0

    def test_tube_health_diagnostics(self, tmp_path):
        cfg = small_config(tmp_path, T=3)
        meta = json.loads(cmd_tube(cfg)["tube_json"].read_text())
        run = _Run.of(cfg)
        vals = eigvalsh(gram(run.data.x, run.data.x, run.spec))
        assert meta["rank"] == np.count_nonzero(vals > RANK_RTOL * vals[-1])
        mlam = cfg.m * cfg.lam
        assert meta["ridge_condition"] == pytest.approx((vals[-1] + mlam) / (vals[0] + mlam),
                                                        rel=1e-9)
        assert meta["growth"] == meta["e_norm"] + meta["f_norm"]
        assert meta["expanding"] is (meta["growth"] >= 1.0)
        meta = json.loads(cmd_tube(cfg, f_override=5.0)["tube_json"].read_text())
        assert meta["growth"] > 5.0 and meta["expanding"] is True

    def test_tube_reports_factor_width(self, tmp_path):
        cfg = small_config(tmp_path, T=3)
        meta = json.loads(cmd_tube(cfg)["tube_json"].read_text())
        run = _Run.of(cfg)
        width = fit(run.data, cfg.lam, run.spec).l_x.shape[1]
        assert meta["factor_width"] == width
        assert meta["rank"] <= width <= 2 * cfg.m

    def test_tube_bernstein_bound_source(self, tmp_path):
        cfg = small_config(tmp_path, T=3)
        out = cmd_tube(cfg, bound="bernstein")
        meta = json.loads(out["tube_json"].read_text())
        assert meta["f_source"] == "bernstein"
        assert meta["f_norm"] > 0

    def test_tube_rerun_is_bit_identical(self, tmp_path):
        cmd_tube(small_config(tmp_path / "a", T=3))
        cmd_tube(small_config(tmp_path / "b", T=3))
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    def test_reproduce_ou_chains_everything(self, tmp_path):
        out = cmd_reproduce_ou(small_config(tmp_path, T=3, m_b=12))
        names = {p.name for p in tmp_path.iterdir()}
        assert {"dataset.csv", "dataset.json", "deviations.csv", "bootstrap.json",
                "tube.csv", "tube_weights.csv", "tube.json"} <= names
        assert out["tube"].horizon == 3

    def test_reproduce_ou_dataset_is_the_fitted_data(self, tmp_path):
        out = cmd_reproduce_ou(small_config(tmp_path, T=3, m_b=12))
        data = load_dataset(out["dataset_csv"])
        steps = out["tube"].steps
        np.testing.assert_array_equal(data.x, steps[0].embedding.anchors)
        np.testing.assert_array_equal(data.y, steps[1].embedding.anchors)

    def test_reproduce_ou_simulates_and_bootstraps_once(self, tmp_path, monkeypatch):
        calls = {"simulate": 0, "bootstrap": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(sde, "simulate_pairs", counted("simulate", sde.simulate_pairs))
        monkeypatch.setattr(bootstrap, "bootstrap_deviation_quantile",
                            counted("bootstrap", bootstrap.bootstrap_deviation_quantile))
        cmd_reproduce_ou(small_config(tmp_path, T=3, m_b=12))
        assert calls == {"simulate": 1, "bootstrap": 1}

    def test_bootstrap_tube_fits_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return fit(*args, **kwargs)

        monkeypatch.setattr(operators, "fit", counted)
        monkeypatch.setattr(bootstrap, "fit", counted)
        cmd_tube(small_config(tmp_path, T=3, m_b=12))
        assert len(calls) == 1

    def test_single_commands_match_reproduce_ou(self, tmp_path):
        cfg = small_config(tmp_path / "single", T=3, m_b=12)
        cmd_simulate(cfg)
        cmd_bootstrap(cfg)
        cmd_tube(cfg)
        cmd_reproduce_ou(small_config(tmp_path / "chained", T=3, m_b=12))
        assert tree_bytes(tmp_path / "single") == tree_bytes(tmp_path / "chained")

    def test_reproduce_ou_plot_emission(self, tmp_path):
        out = cmd_reproduce_ou(small_config(tmp_path, T=3, m_b=8), plot=True)
        svg = out["radius_svg"].read_text()
        assert svg.startswith("<svg") and "polyline" in svg


class TestCli:
    def test_simulate_subcommand(self, tmp_path, capsys):
        code = main(["simulate", "--m", "30", "--seed", "3", "--out", str(tmp_path)])
        assert code == 0
        printed = capsys.readouterr().out.splitlines()
        assert any(line.endswith("dataset.csv") for line in printed)
        assert load_dataset(tmp_path / "dataset.csv").m == 30

    def test_config_file_with_overrides(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        ExperimentConfig(m=25, m_b=10, T=3, lag=0.3,
                         output_dir=str(tmp_path / "ignored")).to_json(cfg_path)
        code = main(["bootstrap", "--config", str(cfg_path), "--lambda", "0.2",
                     "--out", str(tmp_path / "run")])
        assert code == 0
        capsys.readouterr()
        summary = json.loads((tmp_path / "run" / "bootstrap.json").read_text())
        assert summary["m"] == 25

    def test_tube_bound_flag(self, tmp_path, capsys):
        code = main(["tube", "--m", "25", "--out", str(tmp_path),
                     "--bound", "bernstein"])
        assert code == 0
        capsys.readouterr()
        meta = json.loads((tmp_path / "tube.json").read_text())
        assert meta["f_source"] == "bernstein"

    def test_rate_m_list_flag(self, tmp_path, capsys):
        code = main(["rate", "--out", str(tmp_path), "--m-list", "20,40,80"])
        assert code == 0
        capsys.readouterr()
        table = np.loadtxt(tmp_path / "rate.csv", delimiter=",", skiprows=1)
        np.testing.assert_array_equal(table[:, 0], [20, 40, 80])

    def test_error_reports_machine_readable_json(self, tmp_path, capsys):
        code = main(["rate", "--out", str(tmp_path), "--m-list", "20,40"])
        assert code == 1
        err = capsys.readouterr().err
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert "3" in payload["message"]

    def test_reproduce_ou_subcommand(self, tmp_path, capsys):
        code = main(["reproduce-ou", "--m", "30", "--seed", "2", "--out", str(tmp_path)])
        assert code == 0
        capsys.readouterr()
        assert (tmp_path / "tube.csv").exists()
