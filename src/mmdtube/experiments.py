"""Experiment runner: dataset generation, bootstrap quantiles, convergence
rates, oracle comparisons, and multistep tube propagation.

Every command is a pure function of ``(config, seed)`` to files on disk:
re-running with the same configuration reproduces identical bytes.  All
artifacts are CSV/JSON; path references inside JSON artifacts are relative
to the emitting directory so output trees are relocatable and comparable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from . import bootstrap, concentration, operators, sde, tube
from .kernels import KernelSpec, embed_sample, median_bandwidth, mmd

DEFAULT_RATE_SWEEP = (50, 100, 200, 400, 800)
DEFAULT_ORACLE_SWEEP = (100, 400, 1600)


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs of the experiment pipeline, JSON-round-trippable."""

    model: dict = field(default_factory=lambda: {"kind": "ou", "alpha": 1.0, "beta_temp": 1.0})
    lag: float = 0.1
    m: int = 250
    lam: float = 0.01
    bandwidth: float | str = "median"
    m_b: int = 200
    alpha_conf: float = 0.05
    T: int = 20
    rho0: float = 0.1
    initial: dict = field(default_factory=lambda: {"kind": "gaussian", "mean": 0.5, "variance": 2.0})
    seed: int = 7
    dt: float = 1e-3
    output_dir: str = "out"

    @staticmethod
    def from_json(path) -> "ExperimentConfig":
        raw = json.loads(Path(path).read_text())
        if "lambda" in raw:
            raw["lam"] = raw.pop("lambda")
        return ExperimentConfig(**raw)

    def to_json(self, path) -> None:
        payload = {
            "model": self.model, "lag": self.lag, "m": self.m, "lambda": self.lam,
            "bandwidth": self.bandwidth, "m_b": self.m_b, "alpha_conf": self.alpha_conf,
            "T": self.T, "rho0": self.rho0, "initial": self.initial,
            "seed": self.seed, "dt": self.dt, "output_dir": self.output_dir,
        }
        Path(path).write_text(json.dumps(payload, indent=2) + "\n")

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        updates = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **updates) if updates else self


@dataclass(frozen=True)
class OracleSpec:
    """Fresh-sample Monte-Carlo oracle configuration."""

    sample_count: int = 5000
    trials: int = 1

    def __post_init__(self):
        if self.sample_count < 100:
            raise ValueError(f"oracle sample count must be >= 100, got {self.sample_count}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")


def build_model(spec: dict) -> sde.SdeModel:
    kind = spec.get("kind")
    if kind == "ou":
        return sde.ou_model(float(spec.get("alpha", 1.0)), float(spec.get("beta_temp", 1.0)))
    if kind == "double-well":
        return sde.double_well_model(float(spec.get("beta_temp", 4.0)))
    raise ValueError(f"unknown model kind: {kind!r} (expected 'ou' or 'double-well')")


def build_initial(spec: dict) -> sde.InitialSampler:
    kind = spec.get("kind")
    if kind == "gaussian":
        return sde.GaussianInitial(float(spec["mean"]), float(spec["variance"]))
    if kind == "uniform":
        return sde.UniformInitial(float(spec["low"]), float(spec["high"]))
    if kind == "point":
        return sde.PointInitial(float(spec["x"]))
    raise ValueError(f"unknown initial kind: {kind!r}")


def resolve_kernel(config: ExperimentConfig, data: sde.PairedDataset) -> KernelSpec:
    """Turn the config bandwidth field (number or "median") into a KernelSpec."""
    if config.bandwidth == "median":
        return KernelSpec(bandwidth=median_bandwidth(data.x))
    return KernelSpec(bandwidth=float(config.bandwidth))


def _streams(seed: int, n: int) -> list[np.random.SeedSequence]:
    return np.random.SeedSequence(seed).spawn(n)


def _seed_of(stream: np.random.SeedSequence) -> int:
    # stable scalar seed derived from a substream, for APIs that take ints
    return int(stream.generate_state(1, np.uint32)[0])


def _outdir(config: ExperimentConfig) -> Path:
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


@dataclass
class _Run:
    """One ``(config, seed)`` run: the dataset, its kernel, its fitted operator
    and its bootstrap.

    The data are drawn from ``data_stream`` and the bootstrap replicates from
    ``boot_stream``; every command reads them from here, so all artifacts of a
    run describe one dataset.  Each quantity is computed on first use and at
    most once.
    """

    config: ExperimentConfig
    data_stream: np.random.SeedSequence
    boot_stream: np.random.SeedSequence

    @staticmethod
    def of(config: ExperimentConfig) -> "_Run":
        """The run of a single-run command: streams [data, bootstrap] of the seed."""
        return _Run(config, *_streams(config.seed, 2))

    @cached_property
    def data(self) -> sde.PairedDataset:
        c = self.config
        return sde.simulate_pairs(build_model(c.model), build_initial(c.initial), c.lag, c.m,
                                  dt=c.dt, seed=_seed_of(self.data_stream))

    @cached_property
    def spec(self) -> KernelSpec:
        return resolve_kernel(self.config, self.data)

    @cached_property
    def op(self) -> operators.FittedOperator:
        return operators.fit(self.data, self.config.lam, self.spec)

    @cached_property
    def summary(self) -> bootstrap.BootstrapSummary:
        c = self.config
        return bootstrap.bootstrap_deviation_quantile(
            self.data, c.lam, self.spec, m_b=c.m_b, alpha=c.alpha_conf,
            seed=_seed_of(self.boot_stream), base=self.op)


def _write_dataset(out: Path, run: _Run) -> dict:
    csv_path, sidecar = sde.save_dataset(run.data, out / "dataset.csv")
    return {"dataset_csv": csv_path, "dataset_json": sidecar}


def _write_bootstrap(out: Path, run: _Run) -> dict:
    summary = run.summary
    dev_csv = out / "deviations.csv"
    np.savetxt(dev_csv, summary.deviations, delimiter=",", comments="",
               header="deviation", fmt="%.17g")
    summary_json = _write_json(out / "bootstrap.json", {
        "m": run.data.m,
        "m_b": summary.m_b,
        "alpha": summary.confidence_alpha,
        "delta": summary.quantile_delta,
        "deviations_csv_path": dev_csv.name,
        "seed": run.config.seed,
    })
    return {"deviations_csv": dev_csv, "summary_json": summary_json, "summary": summary}


def cmd_simulate(config: ExperimentConfig) -> dict:
    """Generate the paired dataset and write CSV + JSON sidecar."""
    return _write_dataset(_outdir(config), _Run.of(config))


def cmd_bootstrap(config: ExperimentConfig) -> dict:
    """Bootstrap the operator deviation; write deviations CSV + summary JSON."""
    return _write_bootstrap(_outdir(config), _Run.of(config))


def fit_loglog_slope(ms, deltas) -> tuple[float, float, bool]:
    """Least-squares slope of ``log delta`` against ``log m``.

    Returns ``(slope, intercept, degenerate)``; a degenerate fit (all deltas
    equal, or fewer than two usable positive points) reports slope 0 with the
    flag set instead of crashing.
    """
    ms = np.asarray(ms, dtype=float)
    deltas = np.asarray(deltas, dtype=float)
    usable = deltas > 0
    if np.unique(deltas).size < 2 or np.count_nonzero(usable) < 2:
        return 0.0, float(np.log(deltas[0])) if np.all(deltas > 0) else 0.0, True
    slope, intercept = np.polyfit(np.log(ms[usable]), np.log(deltas[usable]), 1)
    return float(slope), float(intercept), False


def cmd_rate(config: ExperimentConfig, m_list=DEFAULT_RATE_SWEEP) -> dict:
    """Bootstrap delta per training size; fit the log-log convergence slope."""
    m_list = tuple(int(v) for v in m_list)
    if len(m_list) < 3:
        raise ValueError(f"rate sweep needs at least 3 sizes, got {len(m_list)}")
    out = _outdir(config)
    streams = _streams(config.seed, 2 * len(m_list))
    deltas = [_Run(config.with_overrides(m=m), *streams[2 * i:2 * i + 2]).summary.quantile_delta
              for i, m in enumerate(m_list)]
    slope, intercept, degenerate = fit_loglog_slope(m_list, deltas)
    rate_csv = out / "rate.csv"
    np.savetxt(rate_csv, np.column_stack([m_list, deltas]), delimiter=",",
               comments="", header="m,delta", fmt=["%d", "%.17g"])
    slope_json = _write_json(out / "rate.json", {
        "slope": slope, "intercept": intercept, "degenerate": degenerate,
        "m_b": config.m_b, "alpha": config.alpha_conf, "seed": config.seed,
    })
    return {"rate_csv": rate_csv, "slope_json": slope_json,
            "slope": slope, "deltas": deltas, "degenerate": degenerate}


def cmd_oracle_compare(config: ExperimentConfig, oracle: OracleSpec = OracleSpec(),
                       m_list=DEFAULT_ORACLE_SWEEP) -> dict:
    """Compare bootstrap deltas with a large-sample Monte-Carlo deviation oracle.

    For each training size the oracle draws fresh pairs, embeds the initial
    and evolved samples, and measures the MMD between the evolved embedding
    and the operator pushforward of the initial one.
    """
    model = build_model(config.model)
    if model.ou_rate is None:
        raise ValueError("the oracle comparison requires an OU model")
    m_list = tuple(int(v) for v in m_list)
    out = _outdir(config)
    streams = _streams(config.seed, 3 * len(m_list))
    initial = build_initial(config.initial)
    rows = []
    for i, m in enumerate(m_list):
        # three streams per size: data, bootstrap, oracle trials
        run = _Run(config.with_overrides(m=m), *streams[3 * i:3 * i + 2])
        oracle_mmds = []
        for trial_stream in streams[3 * i + 2].spawn(oracle.trials):
            fresh = sde.simulate_pairs(model, initial, config.lag, oracle.sample_count,
                                       dt=config.dt, seed=_seed_of(trial_stream))
            pushed = operators.pushforward(run.op, embed_sample(fresh.x))
            oracle_mmds.append(mmd(embed_sample(fresh.y), pushed, run.spec))
        rows.append((m, run.summary.quantile_delta, float(np.mean(oracle_mmds))))
    table = np.array(rows)
    report_csv = out / "oracle.csv"
    np.savetxt(report_csv, table, delimiter=",", comments="",
               header="m,delta,oracle_mmd", fmt=["%d", "%.17g", "%.17g"])
    return {"oracle_csv": report_csv, "table": table}


def _write_tube(out: Path, run: _Run, bound: str = "bootstrap",
               f_override: float | None = None) -> dict:
    config, data, spec, op = run.config, run.data, run.spec, run.op
    e_norm = operators.operator_norm(op)

    if f_override is not None:
        if f_override < 0:
            raise ValueError("f_override must be nonnegative")
        f_norm = float(f_override)
        f_source = "override"
    elif bound == "bootstrap":
        f_norm = run.summary.quantile_delta
        f_source = "bootstrap"
    else:
        moments_t = concentration.estimate_moments(data, spec)
        same = sde.PairedDataset(data.x, data.x, lag=data.lag, seed=data.seed)
        moments_0 = concentration.estimate_moments(same, spec)
        f_norm = concentration.bernstein_bound(
            config.lam, data.m, config.alpha_conf, moments_t.sigma_t,
            moments_0.sigma_t, moments_t.hs_norm_cxy)
        f_source = "bernstein"

    initial_embedding = embed_sample(data.x)
    result = tube.propagate_tube(op, initial_embedding, config.rho0, config.T,
                                 operators.OperatorNorms(e_norm, f_norm))
    radius_csv, weights_csv = tube.save_tube(result, out / "tube.csv",
                                             out / "tube_weights.csv")
    meta_json = _write_json(out / "tube.json", {
        "e_norm": e_norm, "f_norm": f_norm, "f_source": f_source,
        "rho0": config.rho0, "T": config.T, "lag": config.lag,
        "lambda": config.lam, "m": data.m, "bandwidth": spec.bandwidth,
        "bandwidth_rule": config.bandwidth if isinstance(config.bandwidth, str) else "explicit",
        "seed": config.seed,
        "rank": len(op._kxx_eig[0]),
        "factor_width": op.l_x.shape[1],
        "ridge_condition": op.ridge_condition,
        "growth": e_norm + f_norm,
        "expanding": e_norm + f_norm >= 1.0,
        "note": "step index t corresponds to physical time t * lag; "
                "T, lag, and bandwidth defaults are library choices",
    })
    return {"radius_csv": radius_csv, "weights_csv": weights_csv,
            "tube_json": meta_json, "tube": result,
            "e_norm": e_norm, "f_norm": f_norm}


def cmd_tube(config: ExperimentConfig, bound: str = "bootstrap",
             f_override: float | None = None) -> dict:
    """Fit, estimate the operator norms, propagate the tube, write CSVs.

    ``bound`` selects the source of the deviation estimate F: the bootstrap
    quantile or the Bernstein concentration bound.  ``f_override`` forces a
    fixed F (0 isolates the pure radius contraction/expansion).
    """
    if bound not in ("bootstrap", "bernstein"):
        raise ValueError(f"bound must be 'bootstrap' or 'bernstein', got {bound!r}")
    return _write_tube(_outdir(config), _Run.of(config), bound, f_override)


def cmd_reproduce_ou(config: ExperimentConfig, with_rate: bool = False,
                     plot: bool = False) -> dict:
    """Chain the OU pipeline end-to-end: simulate, bootstrap, tube (optionally rate)."""
    out = _outdir(config)
    run = _Run.of(config)
    results = {**_write_dataset(out, run), **_write_bootstrap(out, run), **_write_tube(out, run)}
    if with_rate:
        results.update(cmd_rate(config))
    if plot:
        from ._svg import line_plot
        t = results["tube"]
        radius_svg = out / "tube_radius.svg"
        line_plot(radius_svg, np.arange(t.horizon + 1), t.radii,
                  title="ambiguity radius over steps", xlabel="t", ylabel="radius")
        results["radius_svg"] = radius_svg
        if with_rate:
            table = np.loadtxt(results["rate_csv"], delimiter=",", skiprows=1, ndmin=2)
            rate_svg = out / "rate_loglog.svg"
            line_plot(rate_svg, np.log(table[:, 0]), np.log(table[:, 1]),
                      title="log delta vs log m", xlabel="log m", ylabel="log delta",
                      scatter=True)
            results["rate_svg"] = rate_svg
    return results
