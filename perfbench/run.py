"""Benchmark of the mlgibbs samplers on three workloads.

Generates the workload's inputs from --seed, then runs rounds of whole
cross-validated experiments, one per input instance and each in a fresh
process (worker.py), until the next round would end after --seconds. It
checks every experiment's output, prints each metric by name with its
unit, and prints one JSON object as its last line: the end-to-end metrics
with --trace 0, the per-layer metrics of traced experiments with --trace 1.

Usage: python3 perfbench/run.py --workload NAME --seed N --seconds S
       --trace 0|1 [--smoke]

--smoke runs the same code paths and checks on tiny inputs.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import spans  # noqa: E402
from workloads import (  # noqa: E402
    SMOKE, WORKLOADS, generate, instance_seed, write_matrix_market,
)

END_TO_END = {
    "setup_s": "s",
    "sample_s": "s",
    "iters_per_s": "1/s",
    "rmse": "target",
    "peak_rss_mb": "MB",
}

# Correctness tolerances; README.md says why these values.
RMSE_TOL = 0.20  # |mean RMSE - ridge reference mean RMSE| / reference
HIERARCHY_TOL = 1e-12  # relative errors of the hierarchy checks (worker.py)
PRED_RMSE_RTOL = 1e-9  # RMSE recomputed from the predictions vs the report's

WORKER_TIMEOUT_S = 150
# The workload runs on one thread, so that its figures depend less on what
# else the machine is running.
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchmarkError(Exception):
    """The benchmark could not run (as opposed to a wrong result)."""


def run_worker(args, seed, inputs_dir, traced):
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--inputs", str(inputs_dir),
        "--workload", args.workload, "--seed", str(seed), "--trace", str(int(traced)),
    ]
    if traced:
        kind = "smoke-" if args.smoke else ""
        name = f"trace-{kind}{args.workload}-seed{args.seed}-{inputs_dir.name}.tsv.gz"
        cmd += ["--trace-out", str(OUT / name)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S, cwd=ROOT,
            env=dict(os.environ, **SINGLE_THREAD),
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"worker exceeded {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    try:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchmarkError(f"worker printed no result:\n{proc.stderr[-4000:]}") from None
    return out


class Checker:
    """Checks every experiment against the inputs, and every later
    experiment on the same instance against the first, bit for bit; then
    the first against the ridge reference. A later experiment exists only
    when the run makes more than one round: always with --trace 1, where
    traced rounds repeat untraced ones."""

    def __init__(self, inputs, rho_floor):
        self.failures = []
        self.rho_floor = rho_floor
        self.A = reference.csr(inputs)
        self.truth = self.A @ inputs.b_true
        self.y = inputs.y
        self.first = None

    def expect(self, ok, message):
        if not ok:
            self.failures.append(message)

    def experiment(self, res, n_folds):
        """Returns the number of failed folds."""
        folds = res["folds"]
        self.expect(len(folds) == n_folds, f"{len(folds)} fold reports, expected {n_folds}")
        failed = 0
        for i, f in enumerate(folds):
            if f["error"] is not None:
                failed += 1
                continue
            pred = np.asarray(res["preds"].get(str(i), []), dtype=np.float64)
            test = np.asarray(res["fold_indices"][str(i)][1], dtype=np.int64)
            self.expect(
                pred.size == test.size and np.all(np.isfinite(pred)),
                f"fold {i}: {pred.size} predictions for {test.size} rows, or not finite",
            )
            if pred.size == test.size:
                ours = reference.rmse(pred, self.truth[test])
                self.expect(
                    abs(ours - f["rmse"]) <= PRED_RMSE_RTOL * ours,
                    f"fold {i}: reported RMSE {f['rmse']} but predictions give {ours}",
                )
        for h in res["hierarchies"]:
            self.expect(h["coarsest_in_range"], f"coarsest width {h['widths'][0]} outside {h['range']}")
            for key in ("restrict_prolong_error", "adjoint_error", "galerkin_error"):
                self.expect(h[key] <= HIERARCHY_TOL, f"hierarchy {key} {h[key]:.3e}")
        if self.first is None:
            self.first = res
        else:
            self.expect(
                res["fold_indices"] == self.first["fold_indices"]
                and [f["rmse"] for f in folds] == [f["rmse"] for f in self.first["folds"]],
                "two experiments with the same seed gave different folds or RMSE",
            )
        return failed

    def against_reference(self):
        """Mean RMSE within RMSE_TOL of the ridge reference, mean rho over
        the folds above the workload's floor. Returns the figures."""
        res = self.first
        ours, refs, rhos = [], [], []
        for i, f in enumerate(res["folds"]):
            if f["error"] is not None:
                continue
            train, test = (np.asarray(ix, dtype=np.int64) for ix in res["fold_indices"][str(i)])
            ref_pred, _ = reference.eb_ridge_predict(self.A[train], self.y[train], self.A[test])
            pred = np.asarray(res["preds"][str(i)], dtype=np.float64)
            truth = self.truth[test]
            ours.append(reference.rmse(pred, truth))
            refs.append(reference.rmse(ref_pred, truth))
            rhos.append(reference.pearson(pred, truth))
        if not ours:
            return {}
        gap = abs(np.mean(ours) - np.mean(refs)) / np.mean(refs)
        self.expect(gap <= RMSE_TOL, f"mean RMSE {np.mean(ours):.3f} is {gap:.1%} from the "
                    f"ridge reference {np.mean(refs):.3f} (tolerance {RMSE_TOL:.0%})")
        self.expect(np.mean(rhos) >= self.rho_floor,
                    f"mean held-out rho {np.mean(rhos):.3f} < {self.rho_floor}")
        return {"rmse": ours, "ridge_rmse": refs, "rho": rhos, "gap": gap}


def end_to_end(rounds, workload):
    """The end-to-end metrics of the untraced rounds. Times are medians over
    their experiments, so that a burst of other load on the host that slows
    one experiment moves them little; `rmse` is the mean over the
    instances, the same in every round; `peak_rss_mb` is the largest."""
    experiments = [r for rnd in rounds for r in rnd]
    return {
        "setup_s": statistics.median(map(setup_s, experiments)),
        "sample_s": statistics.median(map(sample_s, experiments)),
        "iters_per_s": statistics.median(workload.iterations / wall(r) for r in experiments),
        "rmse": statistics.mean(r["rmse_mean"] for r in rounds[0]),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in experiments),
    }


def setup_s(r):
    return r["load_s"] + sum(f["setup_time"] for f in r["folds"] if f["error"] is None)


def sample_s(r):
    return sum(f["exec_time"] for f in r["folds"] if f["error"] is None)


def wall(r):
    return r["load_s"] + r["experiment_s"]


def print_traced_split(traced):
    """Where the traced experiments' set-up and sampling time went."""
    span, _ = spans.merge(r["trace"] for r in traced)
    setup = sum(setup_s(r) for r in traced)
    sample = sum(sample_s(r) for r in traced)
    solve = span["sparse.gram_apply"][1] + span["solvers.cg_solve"][2]
    print(f"share of setup_s in hierarchy.build_hierarchy: "
          f"{span['hierarchy.build_hierarchy'][1] / setup:.1%}")
    # setup_s counts the median of an experiment's loads, not their spans
    load = sum(r["load_s"] for r in traced)
    print(f"share of setup_s in harness.load_matrix: {load / setup:.1%}")
    print(f"share of sample_s in sparse.gram_apply + solvers.cg_solve self: {solve / sample:.1%}")
    print(f"share of sample_s in solvers.build_two_level: "
          f"{span['solvers.build_two_level'][1] / sample:.1%}")
    for i, f in enumerate(traced[0]["folds"]):
        counted = spans.cg_iters_by_level(traced[0]["trace"], i, f["level_widths"])
        pairs = ", ".join(
            f"{w}: {rep:.1f} vs {c:.1f}"
            for w, rep, c in zip(f["level_widths"], f["mean_cg_iters"], counted)
        )
        print(f"fold {i} CG iterations per solve by level width, report vs counted: {pairs}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, same code paths")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "mlgibbs" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'mlgibbs'}", file=sys.stderr)
        return 2
    workload = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    n_folds = workload.experiment["folds"]

    run_dir = OUT / f"inputs-{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        instances = []
        for k in range(workload.instances):
            seed = instance_seed(args.seed, k)
            inputs = generate(workload, seed)
            inputs_dir = run_dir / f"instance{k}"
            inputs_dir.mkdir(parents=True, exist_ok=True)
            write_matrix_market(inputs_dir / "X.mtx", inputs)
            np.savez(inputs_dir / "targets.npz", y=inputs.y, b_true=inputs.b_true)
            instances.append((seed, inputs_dir, Checker(inputs, workload.rho_floor)))
        rounds, attempted, failed = [], 0, 0
        t_start = time.perf_counter()
        while True:
            # with --trace 1, untraced and traced rounds alternate so that
            # their difference is the tracing overhead
            traced = bool(args.trace) and len(rounds) % 2 == 1
            t0 = time.perf_counter()
            rnd = []
            for seed, inputs_dir, checker in instances:
                res = run_worker(args, seed, inputs_dir, traced)
                attempted += n_folds
                failed += checker.experiment(res, n_folds)
                rnd.append(res)
            rounds.append((traced, rnd, time.perf_counter() - t0))
            if args.trace and len(rounds) < 2:
                continue
            longest = max(r[2] for r in rounds)
            if time.perf_counter() - t_start + longest > args.seconds:
                break
        refs = [checker.against_reference() for _, _, checker in instances]
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    plain = [rnd for traced, rnd, _ in rounds if not traced]
    traced = [rnd for traced, rnd, _ in rounds if traced]
    e2e = end_to_end(plain, workload)
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced rounds of {workload.instances} experiments, each "
          f"{n_folds} folds x {workload.experiment['samples']} samples; "
          f"{failed} of {attempted} folds failed")
    for name, unit in END_TO_END.items():
        print(f"{name:<34} {e2e[name]:>14.6g} {unit}")
    metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    if traced:
        overhead = 100.0 * (
            statistics.median(sum(map(wall, rnd)) for rnd in traced)
            / statistics.median(sum(map(wall, rnd)) for rnd in plain) - 1.0
        )
        experiments = [r for rnd in traced for r in rnd]
        layers = spans.layer_metrics([r["trace"] for r in experiments], overhead)
        for name, unit in spans.PER_LAYER.items():
            print(f"{name:<34} {layers[name]:>14.6g} {unit}")
        print_traced_split(experiments)
        metrics = {k: {"value": layers[k], "unit": u} for k, u in spans.PER_LAYER.items()}
    failures = []
    for k, ((_, _, checker), ref) in enumerate(zip(instances, refs)):
        if ref:
            print(f"instance {k}: held-out RMSE per fold {np.round(ref['rmse'], 3).tolist()}, "
                  f"ridge reference {np.round(ref['ridge_rmse'], 3).tolist()} "
                  f"(gap {ref['gap']:.1%}), rho {np.round(ref['rho'], 4).tolist()}")
        failures += [f"instance {k}: {msg}" for msg in checker.failures]
    for msg in failures:
        print(f"check failed: {msg}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
