"""Workload definitions and the seeded inputs they run on.

A workload runs one cross-validated experiment through
`mlgibbs.harness.run_experiment` on each of its input instances. Each
instance's matrix has columns in
near-collinear groups (each group shares one random row pattern; its
columns are scaled, jittered copies of one value vector), the regime the
multilevel hierarchy is built for. Targets follow the package's synthetic
protocol: b_true ~ N(0, 10 I), y = X b_true + N(0, 1000 I), with the
noiseless X b_true kept as the truth the held-out predictions are scored
against.
"""

from dataclasses import dataclass

import numpy as np

AMPLITUDE = 10.0  # scale of a group's value vector
JITTER = 0.05  # per-entry noise, as a share of AMPLITUDE
COEF_VARIANCE = 10.0
NOISE_VARIANCE = 1000.0


@dataclass(frozen=True)
class Workload:
    name: str
    n_rows: int
    n_groups: int
    group_size: int
    nnz_per_col: int
    experiment: dict  # ExperimentConfig fields other than the seed
    rho_floor: float  # lowest mean held-out Pearson rho accepted
    instances: int = 1  # independent inputs (matrix and targets) per round

    @property
    def n_cols(self):
        return self.n_groups * self.group_size

    @property
    def iterations(self):
        """Gibbs iterations one experiment completes (samples x folds)."""
        return self.experiment["samples"] * self.experiment["folds"]


# Effect precisions lambda ~ Gamma(1, 10): prior mean 0.1 = 1 / COEF_VARIANCE.
# Under the package default rate 1e-3 (prior mean 1000) some single-level
# chains start collapsed at b ~ 0 and stay there for hundreds of draws
# (README.md, "Priors"); the posterior the chains settle to is the same.
_PRIOR = dict(beta_v=10.0, beta_u=10.0)

# The acceptance shape: 500 x 2000, 1% fill, 100 groups of 20. Every
# workload runs several instances: held-out RMSE and the chains' cost
# vary too much from one drawn problem to the next (README.md), and the
# time metrics are medians over the experiments. Three folds, not five,
# keep a round of experiments near 25 s, inside the run length.
_ACCEPTANCE = dict(n_rows=500, n_groups=100, group_size=20, nnz_per_col=5)

WORKLOADS = {
    w.name: w
    for w in (
        # Long plain-CG solves on the finest matrix, no hierarchy: isolates
        # the sparse and solvers layers, and is the no-change control for
        # hierarchy and multilevel changes.
        Workload(
            "gibbs-sl",
            **_ACCEPTANCE,
            experiment=dict(sampler="gibbs", samples=120, burn_in=50, folds=3, **_PRIOR),
            rho_floor=0.8,
            instances=4,
        ),
        # Telescoping sampler with coupled solves and the two-level
        # preconditioner: a dense coarse factor per draw, flexible CG with
        # 2-step smoothing, the multilevel coupling.
        Workload(
            "mlcss-precond",
            **_ACCEPTANCE,
            experiment=dict(
                sampler="mlcss", preconditioned=True, levels=3,
                coarse_range=(150, 350), schedule="vcycle:10",
                samples=120, burn_in=50, folds=3, **_PRIOR,
            ),
            rho_floor=0.8,
            instances=4,
        ),
        # Wide mixed model whose set-up (threshold bisection over
        # leader-follower passes, two column blocks) outweighs its short
        # pooled chain. 800 x 3200 rather than the 1500 x 6000 it stands
        # for, so that five experiments fit in a run (README.md).
        Workload(
            "wide-setup",
            n_rows=800, n_groups=160, group_size=20, nnz_per_col=5,
            experiment=dict(
                sampler="ml", n_fixed=160, levels=3, coarse_range=(240, 560),
                samples=120, burn_in=50, folds=2, **_PRIOR,
            ),
            rho_floor=0.71,
            instances=5,
        ),
    )
}

# Tiny inputs that run every workload's code path and every check in a
# few seconds; used by the benchmark's own tests.
SMOKE = {
    "gibbs-sl": Workload(
        "gibbs-sl", n_rows=200, n_groups=10, group_size=6, nnz_per_col=8,
        experiment=dict(sampler="gibbs", samples=300, burn_in=200, folds=2, **_PRIOR),
        rho_floor=0.7,
        instances=2,
    ),
    "mlcss-precond": Workload(
        "mlcss-precond", n_rows=200, n_groups=10, group_size=6, nnz_per_col=8,
        experiment=dict(
            sampler="mlcss", preconditioned=True, levels=3,
            coarse_range=(8, 14), schedule="vcycle:10",
            samples=300, burn_in=200, folds=2, **_PRIOR,
        ),
        rho_floor=0.7,
        instances=2,
    ),
    "wide-setup": Workload(
        "wide-setup", n_rows=200, n_groups=15, group_size=6, nnz_per_col=8,
        experiment=dict(
            sampler="ml", n_fixed=18, levels=3, coarse_range=(10, 20),
            samples=300, burn_in=200, folds=2, **_PRIOR,
        ),
        rho_floor=0.7,
    ),
}


@dataclass
class Inputs:
    rows: np.ndarray  # 0-based COO row indices
    cols: np.ndarray
    vals: np.ndarray
    shape: tuple
    b_true: np.ndarray
    y: np.ndarray


def instance_seed(seed, instance):
    """Seed of one instance of a run; also the experiment's sampler seed."""
    return int(np.random.SeedSequence([seed, instance]).generate_state(1)[0])


def generate(workload, seed):
    """The workload's matrix and targets; the same seed gives the same
    inputs, and workloads with the same shape share their matrix."""
    w = workload
    rng = np.random.default_rng(seed)
    g, k, m = w.n_groups, w.group_size, w.nnz_per_col
    patterns = np.stack([rng.choice(w.n_rows, m, replace=False) for _ in range(g)])
    base = rng.standard_normal((g, m)) * AMPLITUDE
    scale = rng.uniform(0.5, 1.5, (g, k))
    vals = base[:, None, :] * scale[:, :, None]
    vals += JITTER * AMPLITUDE * rng.standard_normal((g, k, m))
    rows = np.broadcast_to(patterns[:, None, :], (g, k, m)).ravel()
    cols = np.repeat(np.arange(g * k), m)
    vals = vals.ravel()
    b_true = rng.standard_normal(w.n_cols) * np.sqrt(COEF_VARIANCE)
    signal = np.bincount(rows, weights=vals * b_true[cols], minlength=w.n_rows)
    y = signal + rng.standard_normal(w.n_rows) * np.sqrt(NOISE_VARIANCE)
    return Inputs(rows, cols, vals, (w.n_rows, w.n_cols), b_true, y)


def write_matrix_market(path, inputs):
    """Coordinate real general MatrixMarket file, 1-based, exact floats."""
    n_rows, n_cols = inputs.shape
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write(f"{n_rows} {n_cols} {inputs.vals.size}\n")
        np.savetxt(
            fh,
            np.column_stack([inputs.rows + 1, inputs.cols + 1, inputs.vals]),
            fmt=["%d", "%d", "%.17g"],
        )
