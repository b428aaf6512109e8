"""Single-level noise-injection Gibbs sampler for linear mixed models.

Each coefficient draw solves one perturbed ridge system
(X^T X + Lambda/tau) b = X^T (y + e1) + e2/tau instead of factorizing
the posterior covariance; the precisions tau, lambda_v, lambda_u follow
conjugate gamma updates.
"""

from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .errors import EstimatorError
from .hierarchy import LevelHierarchy
from .solvers import cg_solve
from .sparse import gram_apply, spmv, spmv_t


@dataclass(frozen=True)
class MixedModelSpec:
    """Column split X = [W Z] plus the gamma prior parameters.

    Ordinary regression is the degenerate case n_fixed = 0.
    """

    n_fixed: int
    n_random: int
    alpha_e: float = 1.0
    beta_e: float = 1.0
    alpha_v: float = 1.0
    beta_v: float = 1e-3
    alpha_u: float = 1.0
    beta_u: float = 1e-3

    def at_width(self, n_fixed, n_random):
        """Same priors at a different (coarser) column split."""
        return replace(self, n_fixed=n_fixed, n_random=n_random)


# MixedModelSpec's gamma prior parameters, whose defaults are the package's
PRIOR_FIELDS = ("alpha_e", "beta_e", "alpha_v", "beta_v", "alpha_u", "beta_u")


@dataclass
class GibbsState:
    b: np.ndarray
    tau: float
    lam_v: float
    lam_u: float


@dataclass
class ChainResult:
    sum_b: np.ndarray
    kept_count: int
    trace: list = field(default_factory=list)  # (tau, lam_v, lam_u) per iteration
    total_cg_iters: int = 0
    n_solves: int = 0


def assemble_lambda(spec, lam_v, lam_u):
    """Diagonal of Lambda: n_fixed copies of lam_v then n_random of lam_u."""
    return np.concatenate(
        [np.full(spec.n_fixed, float(lam_v)), np.full(spec.n_random, float(lam_u))]
    )


def init_hyperparams(spec, stream):
    """Draw (tau, lam_v, lam_u) from their priors."""
    tau = stream.gamma_sample(spec.alpha_e, spec.beta_e)
    lam_v = stream.gamma_sample(spec.alpha_v, spec.beta_v)
    lam_u = stream.gamma_sample(spec.alpha_u, spec.beta_u)
    return tau, lam_v, lam_u


def sample_hyperparams(state, X, y, spec, stream):
    """Conjugate gamma updates for the three precisions given b.

    A precision whose block is empty (n_fixed = 0 or n_random = 0) is
    resampled from its prior.
    """
    resid = y - spmv(X, state.b)
    tau = stream.gamma_sample(
        spec.alpha_e + X.n_rows / 2.0, spec.beta_e + 0.5 * float(resid @ resid)
    )
    bf = state.b[: spec.n_fixed]
    lam_v = stream.gamma_sample(
        spec.alpha_v + spec.n_fixed / 2.0, spec.beta_v + 0.5 * float(bf @ bf)
    )
    bu = state.b[spec.n_fixed :]
    lam_u = stream.gamma_sample(
        spec.alpha_u + spec.n_random / 2.0, spec.beta_u + 0.5 * float(bu @ bu)
    )
    return tau, lam_v, lam_u


def draw_noise(X, tau, lam, stream):
    """e1 ~ N(0, I/tau), e2 ~ N(0, Lambda)."""
    e1 = stream.standard_normal(X.n_rows) * np.sqrt(1.0 / tau)
    e2 = stream.standard_normal(X.n_cols) * np.sqrt(lam)
    return e1, e2


def solve_noise_system(X, y, tau, lam, e1, e2, config, precond=None, x0=None):
    """Solve (X^T X + Lambda/tau) b = X^T (y + e1) + e2/tau."""
    rhs = spmv_t(X, y + e1) + e2 / tau
    shift = lam / tau
    return cg_solve(
        partial(gram_apply, X, shift),
        rhs,
        x0=x0,
        tol=config.tol,
        max_iter=config.max_iter,
        precond=precond,
    )


def draw_coefficient(X, y, state, spec, config, stream):
    """One noise-injection coefficient draw; returns (b, SolveReport)."""
    lam = assemble_lambda(spec, state.lam_v, state.lam_u)
    e1, e2 = draw_noise(X, state.tau, lam, stream)
    return solve_noise_system(X, y, state.tau, lam, e1, e2, config, x0=state.b)


def run_chain(X, y, spec, H, H_burn_in, config, stream, trace=False):
    """Full noise-injection chain: prior-initialized first draw, then H-1
    alternations of hyperparameter and coefficient draws; the first
    H_burn_in samples are excluded from sum_b. This is the pooled
    multilevel chain on the one-level hierarchy [X]."""
    from .multilevel import make_schedule, run_pooled  # it imports this module

    schedule = make_schedule("consecutive", 1, H, H_burn_in)
    hierarchy = LevelHierarchy([X], [], [spec.n_fixed])
    acc = run_pooled(hierarchy, y, spec, schedule, config, stream, trace=trace)
    return ChainResult(
        acc.level_sums[0], int(acc.counts[0]), acc.trace or [],
        int(acc.cg_iters[0]), int(acc.cg_solves[0]),
    )


def predict_mean(result, X_eval):
    """X_eval @ posterior-mean coefficients."""
    if result.kept_count <= 0:
        raise EstimatorError("no kept samples")
    return spmv(X_eval, result.sum_b / result.kept_count)
