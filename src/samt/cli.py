"""Command-line entry points.

Exit codes: 0 success, 1 configuration or data error, 2 a verification
suite found a violated inequality (or a gradient check failed), 3 a
training run diverged (a step's loss or meta loss was not finite; the
metrics CSV keeps the epochs completed before it).
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, DataFormatError, DivergenceError, PlanError
from .harness import parse_config, run_experiment, run_gradcheck, run_matrix, run_theory_suite


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="samt",
        description="Alternating-minimization training with trainable step sizes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="run one training experiment, emit a metrics CSV")
    train.add_argument("--config", default=None, help="key = value config file")
    train.add_argument("overrides", nargs="*", help="key=value overrides (win over the file)")

    matrix = sub.add_parser("matrix", help="run a whole experiment family in one invocation")
    matrix.add_argument("--config", default=None)
    matrix.add_argument("--vary", choices=("ablation", "projection"), required=True)
    matrix.add_argument("--out-dir", default=".")
    matrix.add_argument("overrides", nargs="*")

    theory = sub.add_parser("theory", help="run the convergence verification suites")
    theory.add_argument("--suite", choices=("contractivity", "recursion", "all"), default="all")
    theory.add_argument("--out-dir", default=".")
    theory.add_argument("--seed", type=int, default=0)
    theory.add_argument("--inject-bug", action="store_true",
                        help="run with a step size above the contraction bound; must fail")

    grad = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    grad.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args, extra = parser.parse_known_args(argv)
    try:
        if args.command == "train":
            config = parse_config(args.config, list(args.overrides) + extra)
            run_experiment(config)
            return 0
        if args.command == "matrix":
            config = parse_config(args.config, list(args.overrides) + extra)
            run_matrix(config, args.vary, args.out_dir)
            return 0
        if args.command == "theory":
            return run_theory_suite(args.suite, args.out_dir, args.seed, args.inject_bug)
        if args.command == "gradcheck":
            return run_gradcheck(args.seed)
    except (ConfigError, DataFormatError, PlanError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except DivergenceError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
