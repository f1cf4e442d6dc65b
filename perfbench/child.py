"""One workload in a fresh process: timed calls, then the output checks.

``run.py`` starts this file with the thread environment pinned and reads the
one JSON line it prints.  With ``--trace 0`` it times untraced calls of the
workload for ``--seconds``, each scaled by the speed reference timed around
it; the first call also captures the arguments the checks read, and the
peak resident memory is read after it.  With ``--trace 1`` it alternates
untraced and traced calls and reports per-layer metrics from the traced
ones, plus the tracing overhead.  Checks and everything else run outside the
timed region.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np
import scipy
from mmdtube.kernels import gram
from mmdtube.operators import RANK_RTOL
from scipy.linalg import eigvalsh

import checks
import probe
from reference import speed_factor
from spans import CAPTURED, Tracer, layer_metrics
from workloads import WORKLOADS

MIN_CALLS = 3  # untraced calls per --trace 0 run, however long a call takes
MIN_PAIRS = 2  # untraced/traced pairs per --trace 1 run


def _call(workload, seed: int, out: Path, tracer: Tracer | None = None) -> float:
    t0 = time.perf_counter()
    if tracer is None:
        workload.run(seed, out)
    else:
        tracer.run(workload.run, seed, out)
    return time.perf_counter() - t0


def library_environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy builds that do not report it
        blas_name = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas_name}


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _retained_rank(x: np.ndarray, spec) -> int:
    vals = eigvalsh(gram(x, x, spec), check_finite=False)
    return int(np.count_nonzero(vals > RANK_RTOL * max(vals[-1], 0.0)))


def observed_shape(tracer: Tracer) -> dict:
    """Sizes the traced call actually ran with, and the rank of each K_XX."""
    fits = {}
    for s in tracer.spans:
        if s.label == "operators.fit":
            key = s.info["x"].tobytes()
            if key not in fits:
                r = _retained_rank(s.info["x"], s.info["spec"])
                fits[key] = {"m": s.info["m"], "rank": r, "rank_share": r / s.info["m"]}
    return {
        "fits": sorted(fits.values(), key=lambda f: f["m"]),
        "m_b": sorted({s.info["replicates"] for s in tracer.spans if s.label == "bootstrap"}),
        "T": sorted({s.info["steps"] for s in tracer.spans if s.label == "tube.propagate_tube"}),
    }


def untraced_run(workload, seed: int, seconds: float, workdir: Path) -> dict:
    # The first call also captures the arguments the checks read: two wrapped
    # functions cost microseconds against calls of seconds.  Its peak memory
    # is the one a CLI user sees, who runs one call per process, so it is
    # read before anything else allocates.  The speed reference runs after
    # every call, outside the timed region; a later call is scaled by the
    # mean factor on its two sides.
    outs = [workdir / "call0"]
    with Tracer(labels=CAPTURED) as capture:
        walls = [_call(workload, seed, outs[0], capture)]
    peak = _peak_rss_mib()
    speed_factor()  # the first reference in a process runs 15-35 % slow: discard it
    factors = [speed_factor()]
    found, missing = workload.check(outs[0], capture.calls, seed), capture.missing
    del capture
    while len(walls) < MIN_CALLS or sum(walls) < seconds:
        outs.append(workdir / f"call{len(walls)}")
        walls.append(_call(workload, seed, outs[-1]))
        factors.append(speed_factor())
    found += checks.identical_outputs(outs[0], outs[1:])
    scaled_walls = [walls[0] * factors[0]] + [
        w * 0.5 * (before + after)
        for w, before, after in zip(walls[1:], factors, factors[1:])]
    return {"walls": walls, "factors": factors, "scaled_walls": scaled_walls,
            "peak_rss_mib": peak, "checks": found, "missing": missing}


def traced_run(workload, seed: int, seconds: float, workdir: Path) -> dict:
    plain, traced, rows, outs = [], [], [], []
    while len(traced) < MIN_PAIRS or sum(plain) + sum(traced) < seconds:
        i = len(traced)
        outs.append(workdir / f"plain{i}")
        plain.append(_call(workload, seed, outs[-1]))
        outs.append(workdir / f"traced{i}")
        with Tracer() as tracer:
            traced.append(_call(workload, seed, outs[-1], tracer))
        rows.append(layer_metrics(tracer.spans))
    layers = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    (workdir.parent / f"spans-{workload.name}.json").write_text(
        json.dumps(tracer.dump()) + "\n")
    found = [*workload.check(outs[-1], tracer.calls, seed),
             *checks.identical_outputs(outs[-1], outs[:-1])]
    return {"layers": layers, "plain_walls": plain, "traced_walls": traced,
            "checks": found, "shape": observed_shape(tracer), "missing": tracer.missing}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()

    probe.first_blas_call()
    workload = WORKLOADS[args.workload]
    run = traced_run if args.trace else untraced_run
    try:
        result = run(workload, args.seed, args.seconds, args.workdir)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    result["checks"] = [vars(c) for c in result["checks"]]
    result["config"] = workload.fields
    result["env"] = library_environment()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
