"""Bit-identity sweep: one hash per group of a fixed grid of runs.

Runs every sampler over a fixed grid of settings on matrices generated
here, builds one hierarchy at each benchmark workload's size and
hierarchy settings, and prints a SHA-256 digest per group:

  plain           run_experiment, preconditioned=False
  preconditioned  run_experiment, preconditioned=True
  hierarchy       build_hierarchy's matrices, prolongators and block splits

A run's digest covers `MetricsReport.metric_values()`, each fold's
per-level mean CG iterations and each fold's error. A change that keeps
every output bit for bit prints the same three digests as its parent; a
change that moves only some paths says which by the groups that differ.
It imports only `build_hierarchy`, `from_triplets`, `ExperimentConfig`
and `run_experiment`, which older checkouts have too, so the same script
compares two trees:

    PYTHONPATH=src python tools/bitsweep.py
    PYTHONPATH=<other checkout>/src python tools/bitsweep.py

Nothing is asserted; compare the printed digests.
"""

import hashlib
import itertools
import time
import warnings

import numpy as np

from mlgibbs import build_hierarchy, from_triplets
from mlgibbs.harness import ExperimentConfig, run_experiment

SAMPLERS = ("gibbs", "ml", "mlcss", "mlcsp")
SCHEDULES = ("consecutive", "vcycle:10", "wcycle:10")
ALLOCATIONS = ("cost", "var")  # each on the consecutive schedule
N_FIXED = (0, 6)

# every sampler run: 3 folds of 121 draws on a 90 x 96 matrix of 16 groups;
# the 91 kept draws do not split evenly over 3 levels, so the schedules'
# remainder rules reach the digests
RUN_SHAPE = dict(n_rows=90, n_groups=16, group_size=6, nnz_per_col=8)
LEVELS = 3  # every benchmark workload's and every run's
RUN = dict(samples=121, burn_in=30, folds=3, levels=LEVELS, coarse_range=(8, 20), pilot=10,
           beta_v=10.0, beta_u=10.0, seed=11)

# (name, matrix shape, n_fixed, coarse_range) of the benchmark
# workloads; gibbs-sl builds no hierarchy of its own, so it takes the
# config's default coarse range on its 500 x 2000 matrix
HIERARCHIES = (
    ("gibbs-sl", dict(n_rows=500, n_groups=100, group_size=20, nnz_per_col=5), 0, None),
    ("mlcss-precond", dict(n_rows=500, n_groups=100, group_size=20, nnz_per_col=5), 0,
     (150, 350)),
    ("wide-setup", dict(n_rows=800, n_groups=160, group_size=20, nnz_per_col=5), 160,
     (240, 560)),
)


def grouped_matrix(seed, n_rows, n_groups, group_size, nnz_per_col, amp=10.0, jitter=0.05):
    """Columns in near-collinear groups: each group shares one random row
    pattern, and its columns are scaled, jittered copies of one vector."""
    rng = np.random.default_rng(seed)
    entries = []
    for g in range(n_groups):
        rows = rng.choice(n_rows, nnz_per_col, replace=False)
        vals = amp * rng.standard_normal(nnz_per_col)
        for j in range(group_size):
            col = vals * rng.uniform(0.5, 1.5) + jitter * amp * rng.standard_normal(nnz_per_col)
            entries += [(int(r), g * group_size + j, float(v)) for r, v in zip(rows, col)]
    return from_triplets(n_rows, n_groups * group_size, entries)


def run_grid():
    """(preconditioned, sampler, n_fixed, schedule, allocation) of every run."""
    for pre, sampler, n_fixed in itertools.product((False, True), SAMPLERS, N_FIXED):
        for schedule in SCHEDULES:
            yield pre, sampler, n_fixed, schedule, "equal"
        for allocation in ALLOCATIONS:
            yield pre, sampler, n_fixed, "consecutive", allocation


def run_digest_input(X, pre, sampler, n_fixed, schedule, allocation):
    cfg = ExperimentConfig(sampler=sampler, preconditioned=pre, n_fixed=n_fixed,
                           schedule=schedule, allocation=allocation, **RUN)
    report = run_experiment(cfg, X=X)
    folds = [(f.mean_cg_iters, f.error) for f in report.folds]
    return repr((sampler, n_fixed, schedule, allocation, report.metric_values(), folds))


def hierarchy_digest_input(name, shape, n_fixed, coarse_range, seed):
    X = grouped_matrix(seed, **shape)
    if coarse_range is None:
        coarse_range = ExperimentConfig().coarse_range_for(X.n_cols)
    h = build_hierarchy(X, n_fixed, coarse_range, LEVELS)
    parts = [name.encode(), repr(h.group_boundaries).encode()]
    for m in h.matrices:
        parts += [repr(m.csr.shape).encode(), m.csr.indptr.tobytes(), m.csr.indices.tobytes(),
                  m.csr.data.tobytes()]
    for p in h.prolongators:
        parts += [repr((p.fine_dim, p.coarse_dim)).encode(), p.assignment.tobytes(),
                  p.cluster_sizes.tobytes()]
    return b"".join(parts)


def main():
    t0 = time.perf_counter()
    digests = {g: hashlib.sha256() for g in ("plain", "preconditioned", "hierarchy")}
    counts = dict.fromkeys(digests, 0)
    X = grouped_matrix(1, **RUN_SHAPE)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for pre, *rest in run_grid():
            group = "preconditioned" if pre else "plain"
            digests[group].update(run_digest_input(X, pre, *rest).encode())
            counts[group] += 1
    for seed, spec in enumerate(HIERARCHIES, start=2):
        digests["hierarchy"].update(hierarchy_digest_input(*spec, seed))
        counts["hierarchy"] += 1
    for group, d in digests.items():
        print(f"{group:15s} {counts[group]:3d} entries  {d.hexdigest()}")
    print(f"elapsed {time.perf_counter() - t0:.1f} s")


if __name__ == "__main__":
    main()
