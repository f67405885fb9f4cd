"""Command line interface.

Subcommands: ``run`` executes a seeded experiment and writes a report,
``exact`` prints ground-truth values for a distribution, ``gen`` writes a
generated distribution to a file.  Exit codes: 0 on success, 2 on
validation errors, 1 on I/O errors and on running out of memory.
"""

from __future__ import annotations

import argparse
import sys

from .distribution import exact_ess, exact_quantile, write_distribution
from .errors import EssToolkitError
from .generators import make_distribution, parse_spec
from .harness import FORMATS, MODES, ExperimentConfig, load_distribution, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ess-toolkit",
        description="Effective support size estimation and verification harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a seeded batch of estimator trials")
    run.add_argument("--dist", required=True, help="distribution file or generator spec")
    run.add_argument("--eps", type=float, required=True)
    run.add_argument("--beta", type=float, required=True)
    run.add_argument("--gamma", type=float, default=None,
                     help="multiplicative slack (bicriteria mode only)")
    run.add_argument("--mode", choices=MODES, required=True)
    run.add_argument("--trials", type=int, required=True)
    run.add_argument("--seed", type=int, required=True, help="64-bit master seed")
    run.add_argument("--out", required=True, help="report output path")
    run.add_argument("--format", choices=FORMATS, required=True)
    run.add_argument("--jobs", type=int, default=1,
                     help="must be 1: trials run serially (default 1)")
    run.set_defaults(func=_cmd_run)

    exact = sub.add_parser("exact", help="print exact ground-truth values")
    exact.add_argument("--dist", required=True)
    exact.add_argument("--eps", type=float, required=True)
    exact.set_defaults(func=_cmd_exact)

    gen = sub.add_parser("gen", help="write a generated distribution to a file")
    gen.add_argument("--spec", required=True, help="generator spec, e.g. zipf:n=1000,s=1.0")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen)

    return parser


def _cmd_run(args) -> int:
    config = ExperimentConfig(
        dist_source=args.dist,
        eps=args.eps,
        beta=args.beta,
        gamma=args.gamma,
        mode=args.mode,
        trials=args.trials,
        master_seed=args.seed,
        out_path=args.out,
        format=args.format,
    )
    report = run_experiment(config, jobs=args.jobs)
    print(
        f"trials={config.trials} success_rate={report.success_rate:.17g} "
        f"band=[{report.band_low:.17g},{report.band_high:.17g}] "
        f"estimate_mean={report.estimate_mean:.17g} out={args.out}"
    )
    return 0


def _cmd_exact(args) -> int:
    dist = load_distribution(args.dist)
    ess = exact_ess(dist, args.eps)
    # the quantile sits at canonical position size - ess
    prob = dist.run_values[dist.run_of(dist.size - ess)]
    print(f"ess={ess}")
    print(f"quantile_label={exact_quantile(dist, args.eps)}")
    print(f"quantile_prob={prob:.17g}")
    return 0


def _cmd_gen(args) -> int:
    dist = make_distribution(parse_spec(args.spec))
    write_distribution(dist, args.out)
    print(f"wrote {dist.size} elements to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (EssToolkitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy's message names the allocation; Python's own is empty
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
