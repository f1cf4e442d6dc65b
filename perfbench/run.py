"""mmdtube benchmark: one workload, timed end to end or traced layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload runs in a fresh child process (``child.py``) with the BLAS
thread count pinned to one and ``TOOL_THREADS`` unset, so bootstrap
replicates run serially.  ``--trace 0`` reports the end-to-end metrics
``wall_s`` (median wall time of the workload's ``cmd_*`` call, tracing off),
``setup_s`` (median time from process start to the library being ready, over
several fresh processes) and ``peak_rss_mib`` (peak resident memory of the
workload process).  Both times are scaled to a fixed machine speed by the
reference computation of ``reference.py``; the unscaled medians are printed
next to them.  ``--trace 1`` reports the per-layer metrics of
``spans.py`` and the tracing overhead.  Both modes check the outputs against
the library's oracles (``checks.py``); ``attempted`` and ``failed`` count
those checks, and ``failed_share`` is their ratio.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment, the workload's sizes and each check.  Runtime files go
to ``.perfbench_run/`` in the checkout.  The script uses only the standard
library, and exits non-zero without a result when the checkout holds no
``src/mmdtube``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# One BLAS thread: two threads slowed the bootstrap-bound workloads by 1.7-2.9x
# on a 2-core box and sped up the Gram-bound one, so any other value makes
# thread scheduling part of what is measured.
BLAS_THREADS = "1"
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150  # the whole run must end within 180 s


def pinned_environment(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "TOOL_THREADS"}
    env.update({var: BLAS_THREADS for var in THREAD_VARS})
    env["PYTHONPATH"] = str(root / "src")
    return env


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_seconds(env: dict) -> tuple[float, float]:
    """Time from starting a process to the library being ready in it, and
    the speed factor the process measured right after."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "probe.py")], env=env,
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        rest = proc.stdout.read().split()
    if proc.returncode != 0 or line.strip() != "ready" or len(rest) != 1:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed, float(rest[0])


def run_child(args, env: dict, workdir: Path) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_flops"):
        return "flop"
    if name.endswith("bytes_written"):
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"median of n={len(values)}, q1 {q1:.4f}, q3 {q3:.4f}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "mmdtube" / "__init__.py").is_file():
        print(f"perfbench: no mmdtube sources under {root / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    env = pinned_environment(root)
    workdir = root / ".perfbench_run" / f"{args.workload}-{os.getpid()}"
    try:
        result = run_child(args, env, workdir)
        probes = ([setup_seconds(env) for _ in range(SETUP_SAMPLES)]
                  if args.trace == 0 else [])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    environment = {"nproc": os.cpu_count(), **result["env"],
                   "threads": {var: env[var] for var in THREAD_VARS},
                   "TOOL_THREADS": "unset", "git_commit": git_commit(root)}
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print("env " + json.dumps(environment))
    print("config " + json.dumps(result["config"]))
    if result["missing"]:
        print("untraced (name not found) " + json.dumps(result["missing"]))

    if args.trace == 0:
        walls, raw_setups = result["scaled_walls"], [t for t, _ in probes]
        setups = [t * factor for t, factor in probes]
        metrics = {"wall_s": statistics.median(walls),
                   "setup_s": statistics.median(setups),
                   "peak_rss_mib": result["peak_rss_mib"]}
        notes = {
            "wall_s": f"{_quartiles(walls)}; unscaled median "
                      f"{statistics.median(result['walls']):.4f}, speed factor median "
                      f"{statistics.median(result['factors']):.3f}",
            "setup_s": f"{_quartiles(setups)}; unscaled median "
                       f"{statistics.median(raw_setups):.4f}",
            "peak_rss_mib": "workload process, after its first call"}
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
    else:
        print("shape " + json.dumps(result["shape"]))
        metrics = result["layers"]
        notes = {"trace.overhead_s":
                 f"traced {_quartiles(result['traced_walls'])}; "
                 f"untraced {_quartiles(result['plain_walls'])}"}
        units = {name: unit(name) for name in metrics}

    for check in result["checks"]:
        status = "ok" if check["ok"] else "FAILED"
        print(f"check {status}: {check['name']} ({check['detail']})")
    attempted = len(result["checks"])
    failed = sum(not c["ok"] for c in result["checks"])
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value:.6g} {units[name]}{note}")
    print(f"failed_share = {failed}/{attempted} = {failed / attempted:.4g} share")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
