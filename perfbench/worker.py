"""One experiment of a workload, in a fresh process.

Loads the workload's MatrixMarket file through
`mlgibbs.harness.load_matrix` (timed; median of LOAD_REPEATS loads), runs
`run_experiment` on it, and prints one JSON line: timings, the per-fold
report, the captured predictions and fold indices, the hierarchy checks
and the process's peak resident memory. With --trace 1
it also records spans around every layer (see spans.py), writes them
out and adds their summary.

Usage: python3 perfbench/worker.py --inputs DIR --workload NAME --seed N
       [--trace 0|1] [--smoke]
"""

import argparse
import inspect
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy.sparse as sp

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from workloads import SMOKE, WORKLOADS  # noqa: E402

# The matrix is loaded this many times and the median time kept: one load
# of the 500 x 2000 matrix takes about 20 ms, too short to time once.
LOAD_REPEATS = 5


def import_package():
    """The package from this checkout's source tree, never an installed copy."""
    if not (SRC / "mlgibbs" / "__init__.py").is_file():
        raise SystemExit(f"no package source at {SRC / 'mlgibbs'}")
    sys.path.insert(0, str(SRC))
    import mlgibbs

    if Path(mlgibbs.__file__).resolve().parent != (SRC / "mlgibbs").resolve():
        raise SystemExit(f"imported mlgibbs from {mlgibbs.__file__}, not {SRC}")
    return mlgibbs


def capture(fn, before=None, after=None):
    """Untimed wrapper that shows each call's bound arguments to `before`
    and, with its result, to `after`."""
    sig = inspect.signature(fn)

    def captured(*args, **kwargs):
        bound = sig.bind(*args, **kwargs).arguments
        if before is not None:
            before(bound)
        out = fn(*args, **kwargs)
        if after is not None:
            after(bound, out)
        return out

    return captured


def csr(A):
    """A package SparseMatrix as a scipy CSR matrix, from its own arrays."""
    return sp.csr_matrix((A.values, A.col_indices, A.row_offsets), shape=(A.n_rows, A.n_cols))


def check_hierarchy(size_range, h, rng):
    """Checks a LevelHierarchy through the package's own operators on
    random vectors: restrict(P, prolong(P, v)) = v and restrict is the
    adjoint of prolong, which together mean P^T P = I for the P that
    `prolong` applies; and every coarse matrix is the finer one times that
    P, X_{l-1} v = X_l prolong(P_l, v). Each error is scaled by the size
    of the terms it compares."""
    from mlgibbs.hierarchy import prolong, restrict

    lo, hi = size_range
    widths = h.widths()
    inverse = adjoint = galerkin = 0.0
    for l, P in enumerate(h.prolongators, start=1):
        v = rng.standard_normal(P.coarse_dim)
        u = rng.standard_normal(P.fine_dim)
        Pv = prolong(P, v)
        inverse = max(inverse, np.abs(restrict(P, Pv) - v).max() / np.abs(v).max())
        lhs, rhs = restrict(P, u) @ v, u @ Pv
        adjoint = max(adjoint, abs(lhs - rhs) / (np.abs(u).sum() * np.abs(Pv).max()))
        fine = csr(h.matrices[l]) @ Pv
        coarse = csr(h.matrices[l - 1]) @ v
        galerkin = max(galerkin, np.abs(coarse - fine).max() / np.abs(fine).max())
    return {
        "widths": widths,
        "range": [lo, hi],
        "coarsest_in_range": bool(lo <= widths[0] <= hi),
        "restrict_prolong_error": float(inverse),
        "adjoint_error": float(adjoint),
        "galerkin_error": float(galerkin),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    import_package()
    from mlgibbs import harness

    workload = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    inputs = Path(args.inputs)
    targets = np.load(inputs / "targets.npz")
    y, b_true = targets["y"], targets["b_true"]
    cfg = harness.ExperimentConfig(seed=args.seed, **workload.experiment)

    # Untimed captures, a few calls per fold: the fold indices, the
    # predictions and the hierarchies, for the checks made afterwards.
    folds, preds, hierarchies = {}, {}, []
    current = [None]
    tracer = spans.Tracer() if args.trace else None

    def enter_fold(a):
        current[0] = a["fold_id"]
        if tracer is not None:
            tracer.fold = a["fold_id"]
        folds[a["fold_id"]] = (a["train"].tolist(), a["test"].tolist())

    def keep_pred(a, out):
        preds[current[0]] = np.asarray(out, dtype=np.float64).tolist()

    patches = spans.Patches()
    patches.wrap("harness", "run_fold", lambda fn: capture(fn, before=enter_fold))
    patches.wrap("gibbs", "predict_mean", lambda fn: capture(fn, after=keep_pred))
    patches.wrap("multilevel", "finalize_estimate", lambda fn: capture(fn, after=keep_pred))
    patches.wrap("hierarchy", "build_hierarchy", lambda fn: capture(
        fn, after=lambda a, out: hierarchies.append((a["coarse_size_range"], out))))
    if tracer is not None:
        tracer.install(patches)

    load_times = []
    for _ in range(LOAD_REPEATS):
        t0 = time.perf_counter()
        X = harness.load_matrix(str(inputs / "X.mtx"))
        load_times.append(time.perf_counter() - t0)
    t1 = time.perf_counter()
    report = harness.run_experiment(cfg, X=X, y=y, truth_coef=b_true)
    t2 = time.perf_counter()
    patches.undo()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    rng = np.random.default_rng(0)
    result = {
        "load_s": statistics.median(load_times),
        "experiment_s": t2 - t1,
        "peak_rss_mb": peak_rss_mb,
        "rmse_mean": report.rmse_mean,
        "folds": [
            {
                "error": f.error,
                "rmse": f.rmse,
                "setup_time": f.setup_time,
                "exec_time": f.exec_time,
                "level_widths": f.level_widths,
                "mean_cg_iters": f.mean_cg_iters,
            }
            for f in report.folds
        ],
        "fold_indices": {str(k): v for k, v in folds.items()},
        "preds": {str(k): v for k, v in preds.items()},
        "hierarchies": [check_hierarchy(r, h, rng) for r, h in hierarchies],
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        if args.trace_out:
            tracer.write(args.trace_out)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
