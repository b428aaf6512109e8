"""Command-line interface.

Example:
    mlgibbs run --data X.mtx --sampler ml --levels 3 --coarse-range 50,100 \
        --samples 2200 --burnin 200 --folds 5 --seed 7 --report report.json
"""

import argparse
import dataclasses
import os
import sys

from .errors import ConfigError, EstimatorError, MlgibbsError
from .harness import (
    ALLOCATIONS,
    MATRIX_FORMATS,
    SAMPLER_KINDS,
    ExperimentConfig,
    build_hierarchy,
    level_variance_csv,
    level_variance_report,
    open_output,
    prepare_experiment,
    run_experiment,
)


def _int_pair(text):
    lo, hi = text.split(",")
    return int(lo), int(hi)


def _add_run_args(p):
    # Each flag's dest is an ExperimentConfig field and defaults to None, so
    # that only the flags given override --config or the config defaults.
    p.add_argument("--data", dest="data_path", help="matrix path (.mtx or .csv)")
    p.add_argument("--format", dest="data_format", choices=MATRIX_FORMATS)
    p.add_argument("--targets", dest="targets_path", help="CSV of real observations y")
    p.add_argument("--config", help="JSON config file (same keys)")
    p.add_argument("--sampler", choices=SAMPLER_KINDS)
    p.add_argument("--precond", dest="preconditioned", action="store_true", default=None)
    p.add_argument("--fixed", dest="n_fixed", type=int, help="number of fixed-effect columns")
    p.add_argument("--levels", type=int)
    p.add_argument("--coarse-range", type=_int_pair, help="min,max coarsest width")
    p.add_argument("--samples", type=int)
    p.add_argument("--burnin", dest="burn_in", type=int)
    p.add_argument("--schedule")
    p.add_argument("--alloc", dest="allocation", choices=ALLOCATIONS)
    p.add_argument("--folds", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--cg-tol", type=float)
    p.add_argument("--cg-max-iter", type=int)
    p.add_argument("--coef-variance", type=float)
    p.add_argument("--noise-variance", type=float)
    p.add_argument("--report", help="write JSON report here")
    p.add_argument("--level-variance", help="also emit the per-level variance "
                   "diagnostics CSV (ml samplers)")


def _config_from_args(args):
    cfg = ExperimentConfig.from_json(args.config) if args.config else ExperimentConfig()
    for f in dataclasses.fields(cfg):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, value)
    return cfg


def cmd_run(args):
    cfg = _config_from_args(args)
    if args.level_variance and cfg.sampler == "gibbs":
        print("--level-variance needs a multilevel sampler", file=sys.stderr)
        return 2
    # an output whose directory is missing fails before the run, not after
    for path in filter(None, (args.report, args.level_variance)):
        folder = os.path.dirname(path) or "."
        if not os.path.isdir(folder):
            raise ConfigError(f"cannot write {path}: no directory {folder}")
    # one load of the inputs serves the experiment and the level variances,
    # which draw from the seed's child stream 2
    X, y, truth, spec, streams = prepare_experiment(cfg)
    report = run_experiment(cfg, X, y, truth)
    print(report.to_text())
    if args.report:
        with open_output(args.report) as fh:
            fh.write(report.to_json())
        print(f"report written to {args.report}")
    if all(f.error is not None for f in report.folds):
        raise EstimatorError(f"no fold succeeded; fold 0: {report.folds[0].error}")
    if args.level_variance:
        hierarchy = build_hierarchy(
            X, cfg.n_fixed, cfg.coarse_range_for(X.n_cols), cfg.levels
        )
        rep = level_variance_report(hierarchy, y, spec, cfg.solver_config(), streams[2])
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
