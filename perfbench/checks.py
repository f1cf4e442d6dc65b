"""Output checks, run after the timed calls, against oracles the library ships.

Each check reads a workload call's output directory and the calls a traced
run of the same workload captured (:class:`spans.Tracer` ``calls``).  The
oracles are independent of the path under test: the tube's closed form for
its recursion, ``operator_diff_norm`` on the ``2m`` span for bootstrap
replicates, and the operator-norm maximizer for ``E``.
"""

from __future__ import annotations

import json
import math
import random
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from mmdtube.bootstrap import resample_indices
from mmdtube.kernels import rkhs_norm
from mmdtube.operators import fit, operator_diff_norm, operator_norm_maximizer, pushforward
from mmdtube.sde import PairedDataset
from mmdtube.tube import closed_form_bound_computable

from spans import data_key

RADIUS_RTOL = 1e-12
# the agreement any low-rank or reorganised bootstrap path must keep
REPLICATE_ATOL = 1e-8
MAXIMIZER_ATOL = 1e-8
REPLICATES_PER_BOOTSTRAP = 2


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""

    def __post_init__(self):
        object.__setattr__(self, "ok", bool(self.ok))  # numpy bools are not JSON


def _guarded(name: str, fn, *args) -> list[Check]:
    """Run one check function; an exception counts as a failed check."""
    try:
        return fn(*args)
    except Exception as exc:  # a check that cannot run has not passed
        traceback.print_exc(file=sys.stderr)
        return [Check(name, False, f"{type(exc).__name__}: {exc}")]


def _csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _json(path: Path) -> dict:
    return json.loads(path.read_text())


def finite_nonneg(name: str, values) -> list[Check]:
    v = np.asarray(values, dtype=float).ravel()
    ok = v.size > 0 and bool(np.all(np.isfinite(v)) and np.all(v >= 0))
    return [Check(f"{name} finite and nonnegative", ok, f"{v.size} values")]


def identical_outputs(ref: Path, others: list[Path]) -> list[Check]:
    def snapshot(d: Path) -> dict:
        return {p.relative_to(d).as_posix(): p.read_bytes()
                for p in sorted(d.rglob("*")) if p.is_file()}

    want = snapshot(ref)
    differ = [d.name for d in others if snapshot(d) != want]
    return [Check(f"outputs byte-identical across {len(others) + 1} calls with one seed",
                  bool(want) and not differ, f"differ: {differ}" if differ else "")]


def tube_closed_form(out: Path) -> list[Check]:
    table = _csv(out / "tube.csv")
    meta = _json(out / "tube.json")
    radii, norms = table[:, 1], table[:, 2]
    worst = abs(radii[0] - meta["rho0"]) / meta["rho0"]
    for t in range(1, radii.shape[0]):
        exact = closed_form_bound_computable(meta["e_norm"], meta["f_norm"],
                                             meta["rho0"], norms, t)
        worst = max(worst, abs(radii[t] - exact) / exact)
    return [Check("tube radii equal closed_form_bound_computable",
                  worst <= RADIUS_RTOL, f"max rel err {worst:.3g}")]


def tube_values(out: Path) -> list[Check]:
    meta = _json(out / "tube.json")
    return finite_nonneg("tube radii, E and F",
                         [*_csv(out / "tube.csv")[:, 1], meta["e_norm"], meta["f_norm"]])


def bootstrap_replicates(boots, seed: int) -> list[Check]:
    """Sampled replicates against ``operator_diff_norm`` of base and resample fit."""
    if not boots:
        return [Check("bootstrap calls captured for the replicate oracle", False,
                      "no call reached mmdtube.bootstrap.bootstrap_deviation_quantile")]
    distinct = {}
    for args, summary in boots:
        distinct.setdefault(data_key(args["data"], args["seed"], args["m_b"]), (args, summary))
    picker = random.Random(seed)
    checks = []
    for args, summary in distinct.values():
        data, lam, spec, m_b = args["data"], args["lam"], args["spec"], args["m_b"]
        draws = resample_indices(data.m, m_b, args["seed"])
        base = fit(data, lam, spec)
        for j in sorted(picker.sample(range(m_b), min(REPLICATES_PER_BOOTSTRAP, m_b))):
            idx = draws[j]
            resampled = PairedDataset(data.x[idx], data.y[idx], lag=data.lag, seed=data.seed)
            exact = operator_diff_norm(base, fit(resampled, lam, spec))
            err = float(np.min(np.abs(summary.deviations - exact)))
            checks.append(Check(
                f"bootstrap m={data.m} replicate {j} equals operator_diff_norm",
                err <= REPLICATE_ATOL, f"abs err {err:.3g}"))
    return checks


def deltas_match_run(name: str, file_deltas, boots) -> list[Check]:
    file_deltas = [float(v) for v in file_deltas]
    run = [summary.quantile_delta for _, summary in boots]
    ok = len(run) == len(file_deltas) and all(a == b for a, b in zip(file_deltas, run))
    return [Check(f"{name} deltas equal the computed bootstrap quantiles", ok,
                  f"file {file_deltas} vs run {run}")]


def bootstrap_tube(out: Path, calls: dict, seed: int) -> list[Check]:
    boots = calls.get("bootstrap", [])
    tubes = calls.get("tube.propagate_tube", [])

    def bootstrap_files():
        dev = _csv(out / "deviations.csv")[:, 0]
        meta = _json(out / "bootstrap.json")
        f_norm = _json(out / "tube.json")["f_norm"]
        k = math.ceil(meta["m_b"] * (1.0 - meta["alpha"]) - 1e-9) - 1
        computed = any(np.array_equal(dev, summary.deviations) for _, summary in boots)
        return [*finite_nonneg("deviations.csv and the bootstrap delta", [*dev, meta["delta"]]),
                Check("bootstrap.json delta is the ceil(m_b (1-alpha))-th order statistic",
                      meta["delta"] == dev[k], f"{meta['delta']} vs {dev[k]}"),
                Check("deviations.csv and tube.json F come from a computed bootstrap",
                      computed and any(f_norm == s.quantile_delta for _, s in boots),
                      f"{len(boots)} bootstrap calls"),
                Check("tube.json F equals the bootstrap.json delta",
                      f_norm == meta["delta"], f"{f_norm} vs {meta['delta']}")]

    def one_dataset():
        used = ([(a["data"].x, a["data"].y) for a, _ in boots]
                + [(a["op"].x_train, a["op"].y_train) for a, _ in tubes])
        ok = len(used) >= 2 and all(np.array_equal(x, used[0][0]) and np.array_equal(y, used[0][1])
                                    for x, y in used)
        return [Check("bootstrap.json and tube.csv come from one dataset", ok,
                      f"{len(used)} fitted datasets compared")]

    return [*_guarded("bootstrap files", bootstrap_files),
            *_guarded("tube values", tube_values, out),
            *_guarded("tube closed form", tube_closed_form, out),
            *_guarded("bootstrap replicates", bootstrap_replicates, boots, seed),
            *_guarded("one dataset", one_dataset)]


def rate(out: Path, calls: dict, seed: int) -> list[Check]:
    boots = calls.get("bootstrap", [])

    def files():
        deltas = _csv(out / "rate.csv")[:, 1]
        slope = _json(out / "rate.json")["slope"]
        # the convergence slope is negative by design (delta ~ m^-1/2)
        return [*finite_nonneg("rate.csv deltas", deltas),
                Check("rate.json slope finite", math.isfinite(slope), f"slope {slope}"),
                *deltas_match_run("rate.csv", list(deltas), boots)]

    return [*_guarded("rate files", files),
            *_guarded("bootstrap replicates", bootstrap_replicates, boots, seed)]


def tube_bernstein(out: Path, calls: dict, seed: int) -> list[Check]:
    def maximizer():
        (args, _), = calls.get("tube.propagate_tube", [])
        op, e_json = args["op"], _json(out / "tube.json")["e_norm"]
        e_norm, mu = operator_norm_maximizer(op)
        attained = rkhs_norm(pushforward(op, mu), op.spec)
        err = max(abs(attained - e_json), abs(e_norm - e_json))
        return [Check("rkhs_norm(pushforward(op, maximizer)) equals E",
                      err <= MAXIMIZER_ATOL, f"abs err {err:.3g}")]

    return [*_guarded("tube values", tube_values, out),
            *_guarded("tube closed form", tube_closed_form, out),
            *_guarded("operator norm maximizer", maximizer)]


def oracle_compare(out: Path, calls: dict, seed: int) -> list[Check]:
    boots = calls.get("bootstrap", [])

    def files():
        table = _csv(out / "oracle.csv")
        return [*finite_nonneg("oracle.csv deltas and oracle MMDs", table[:, 1:]),
                *deltas_match_run("oracle.csv", list(table[:, 1]), boots)]

    return [*_guarded("oracle files", files),
            *_guarded("bootstrap replicates", bootstrap_replicates, boots, seed)]
