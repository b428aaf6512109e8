"""Command-line interface.

Example:
    mlgibbs run --data X.mtx --sampler ml --levels 3 --coarse-range 50,100 \
        --samples 2200 --burnin 200 --folds 5 --seed 7 --report report.json
"""

import argparse
import sys

from .errors import MlgibbsError
from .harness import (
    ExperimentConfig,
    build_hierarchy,
    level_variance_csv,
    level_variance_report,
    load_matrix,
    load_targets,
    run_experiment,
    synthesize_targets,
)
from .rng import RandomStream
from .solvers import SolverConfig


def _add_run_args(p):
    p.add_argument("--data", required=False, help="matrix path (.mtx or .csv)")
    p.add_argument("--format", choices=["matrix_market", "dense_csv"], default=None)
    p.add_argument("--targets", default=None, help="CSV of real observations y")
    p.add_argument("--config", default=None, help="JSON config file (same keys)")
    p.add_argument("--sampler", choices=["gibbs", "ml", "mlcss", "mlcsp"], default="gibbs")
    p.add_argument("--precond", action="store_true")
    p.add_argument("--fixed", type=int, default=0, help="number of fixed-effect columns")
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--coarse-range", default=None, help="min,max coarsest width")
    p.add_argument("--samples", type=int, default=2200)
    p.add_argument("--burnin", type=int, default=200)
    p.add_argument("--schedule", default="consecutive")
    p.add_argument("--alloc", choices=["equal", "cost", "var"], default="equal")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cg-tol", type=float, default=1e-8)
    p.add_argument("--cg-max-iter", type=int, default=None)
    p.add_argument("--coef-variance", type=float, default=10.0)
    p.add_argument("--noise-variance", type=float, default=1000.0)
    p.add_argument("--report", default=None, help="write JSON report here")
    p.add_argument(
        "--level-variance", default=None,
        help="also emit the per-level variance diagnostics CSV (ml samplers)",
    )


def _config_from_args(args):
    if args.config:
        cfg = ExperimentConfig.from_json(args.config)
    else:
        cfg = ExperimentConfig()
    if args.data:
        cfg.data_path = args.data
    if args.format:
        cfg.data_format = args.format
    if args.targets:
        cfg.targets_path = args.targets
    cfg.sampler = args.sampler
    cfg.preconditioned = args.precond
    cfg.n_fixed = args.fixed
    cfg.levels = args.levels
    if args.coarse_range:
        lo, hi = args.coarse_range.split(",")
        cfg.coarse_range = (int(lo), int(hi))
    cfg.samples = args.samples
    cfg.burn_in = args.burnin
    cfg.schedule = args.schedule
    cfg.allocation = args.alloc
    cfg.folds = args.folds
    cfg.seed = args.seed
    cfg.cg_tol = args.cg_tol
    cfg.cg_max_iter = args.cg_max_iter
    cfg.coef_variance = args.coef_variance
    cfg.noise_variance = args.noise_variance
    return cfg


def cmd_run(args):
    cfg = _config_from_args(args)
    report = run_experiment(cfg)
    print(report.to_text())
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(report.to_json())
        print(f"report written to {args.report}")
    if args.level_variance:
        if cfg.sampler == "gibbs":
            print("--level-variance needs a multilevel sampler", file=sys.stderr)
            return 2
        X = load_matrix(cfg.data_path, cfg.data_format)
        root = RandomStream(cfg.seed)
        synth, _, lv_stream = root.split(3)
        if cfg.targets_path:
            y = load_targets(cfg.targets_path)
        else:
            _, y = synthesize_targets(X, synth, cfg.coef_variance, cfg.noise_variance)
        hierarchy = build_hierarchy(
            X, cfg.n_fixed, cfg.coarse_range_for(X.n_cols), cfg.levels
        )
        rep = level_variance_report(
            hierarchy, y, cfg.model_spec(X.n_cols), SolverConfig(tol=cfg.cg_tol),
            lv_stream,
        )
        level_variance_csv(rep, args.level_variance)
        print(f"level variances written to {args.level_variance}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="mlgibbs")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a cross-validated sampling experiment")
    _add_run_args(run_p)
    run_p.set_defaults(fn=cmd_run)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except MlgibbsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
