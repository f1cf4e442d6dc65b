"""Command-line front end for the experiment runner.

Usage: ``mmdtube <subcommand> [--config cfg.json] [overrides]``.  A config
file provides the experiment parameters; individual flags override single
fields.  Commands exit 0 on success and print a machine-readable error JSON
to stderr otherwise.  The ``TOOL_THREADS`` environment variable sets the
number of threads that run bootstrap replicates; unset, they run serially.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmdtube",
        description="embedded-operator learning and MMD ambiguity tube experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_bound: bool = False) -> None:
        p.add_argument("--config", help="JSON config file (defaults used if omitted)")
        p.add_argument("--lambda", dest="lam", type=float, help="ridge regularization")
        p.add_argument("--m", type=int, help="number of training pairs")
        p.add_argument("--seed", type=int, help="master seed")
        p.add_argument("--out", help="output directory")
        if with_bound:
            p.add_argument("--bound", choices=["bootstrap", "bernstein"],
                           default="bootstrap", help="source of the deviation estimate F")
            p.add_argument("--f-override", type=float, default=None,
                           help="force a fixed F (e.g. 0)")

    common(sub.add_parser("simulate", help="generate a paired dataset"))
    common(sub.add_parser("bootstrap", help="bootstrap the operator deviation quantile"))

    rate = sub.add_parser("rate", help="convergence-rate study over training sizes")
    common(rate)
    rate.add_argument("--m-list", default=None,
                      help="comma-separated training sizes (default 50,100,200,400,800)")

    oracle = sub.add_parser("oracle-compare",
                            help="compare bootstrap deltas with a fresh-sample oracle")
    common(oracle)
    oracle.add_argument("--m-list", default=None,
                        help="comma-separated training sizes (default 100,400,1600)")
    oracle.add_argument("--oracle-samples", type=int, default=5000)
    oracle.add_argument("--trials", type=int, default=1)

    common(sub.add_parser("tube", help="propagate the multistep ambiguity tube"),
           with_bound=True)

    repro = sub.add_parser("reproduce-ou", help="run the OU pipeline end-to-end")
    common(repro)
    repro.add_argument("--with-rate", action="store_true",
                       help="also run the convergence-rate sweep")
    repro.add_argument("--plot", action="store_true", help="emit SVG plots")

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    from . import experiments as exp

    try:
        config = (exp.ExperimentConfig.from_json(args.config)
                  if args.config else exp.ExperimentConfig())
        config = config.with_overrides(lam=args.lam, m=args.m, seed=args.seed,
                                       output_dir=args.out)
        if args.command == "simulate":
            result = exp.cmd_simulate(config)
        elif args.command == "bootstrap":
            result = exp.cmd_bootstrap(config)
        elif args.command == "rate":
            m_list = ([int(v) for v in args.m_list.split(",")]
                      if args.m_list else exp.DEFAULT_RATE_SWEEP)
            result = exp.cmd_rate(config, m_list)
        elif args.command == "oracle-compare":
            m_list = ([int(v) for v in args.m_list.split(",")]
                      if args.m_list else exp.DEFAULT_ORACLE_SWEEP)
            oracle = exp.OracleSpec(sample_count=args.oracle_samples, trials=args.trials)
            result = exp.cmd_oracle_compare(config, oracle, m_list)
        elif args.command == "tube":
            result = exp.cmd_tube(config, bound=args.bound, f_override=args.f_override)
        elif args.command == "reproduce-ou":
            result = exp.cmd_reproduce_ou(config, with_rate=args.with_rate, plot=args.plot)
        else:  # unreachable: argparse enforces the choices
            raise ValueError(f"unknown command {args.command!r}")
    except Exception as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1

    written = sorted(str(v) for v in result.values()
                     if isinstance(v, (str, os.PathLike)))
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
