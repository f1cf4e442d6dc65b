"""The benchmark's workloads: one ``mmdtube.experiments.cmd_*`` call each.

All use lambda = 0.01, lag 0.1 and the median bandwidth unless a row says
otherwise.  The seed is the benchmark's ``--seed``; the library receives only
the generated :class:`ExperimentConfig`.  Each workload names the check
function in :mod:`checks` that verifies its outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from mmdtube import experiments as exp

import checks

DOUBLE_WELL = {"kind": "double-well", "beta_temp": 4.0}
UNIFORM_INITIAL = {"kind": "uniform", "low": -2.0, "high": 2.0}


@dataclass(frozen=True)
class Workload:
    name: str
    call: Callable[[exp.ExperimentConfig], object]
    check: Callable[[Path, dict, int], list]
    config: dict

    @property
    def fields(self) -> dict:
        """The config fields this workload sets; the rest are library defaults."""
        return {"lam": 0.01, "lag": 0.1, "bandwidth": "median", **self.config}

    def run(self, seed: int, out: Path):
        return self.call(exp.ExperimentConfig(seed=seed, output_dir=str(out), **self.fields))


def bootstrap_then_tube(cfg: exp.ExperimentConfig) -> None:
    """``bootstrap`` then ``tube`` into one output directory, as a user runs them."""
    exp.cmd_bootstrap(cfg)
    exp.cmd_tube(cfg)


WORKLOADS = {w.name: w for w in (
    # The bootstrap and tube steps of the OU pipeline at a size where the
    # O(m^3) Cholesky per bootstrap replicate dominates.  The two commands
    # simulate the same data twice and run the same bootstrap twice, so work
    # shared between commands shows here and nowhere else.
    Workload(
        name="ou-bootstrap-tube-m800",
        config={"m": 800, "m_b": 50, "T": 20},
        call=bootstrap_then_tube,
        check=checks.bootstrap_tube,
    ),
    # Many small replicates: the retained rank is a large share of m, so a
    # low-rank path gains little here and must not regress.
    Workload(
        name="ou-rate-small-m",
        config={"m_b": 200},
        call=lambda cfg: exp.cmd_rate(cfg, m_list=(50, 100, 200, 400)),
        check=checks.rate,
    ),
    # No bootstrap at all: dense eigh in operator_norm, 41 m x m Gram builds
    # in propagate_tube, the moment estimators and Euler-Maruyama sampling.
    Workload(
        name="dw-tube-bernstein-m2000",
        config={"model": DOUBLE_WELL, "initial": UNIFORM_INITIAL, "m": 2000, "T": 20,
                "dt": 1e-3},
        call=lambda cfg: exp.cmd_tube(cfg, bound="bernstein"),
        check=checks.tube_bernstein,
    ),
    # The blocked upper-triangle MMD accumulator on 10^4-anchor embeddings and
    # the per-pair substream loop of simulate_pairs at large n.
    Workload(
        name="ou-oracle-n10k",
        config={"lag": 0.5, "lam": 0.05, "m_b": 100},
        call=lambda cfg: exp.cmd_oracle_compare(
            cfg, exp.OracleSpec(sample_count=10_000, trials=1), m_list=(100, 400)),
        check=checks.oracle_compare,
    ),
)}
