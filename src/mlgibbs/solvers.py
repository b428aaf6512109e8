"""Matrix-free conjugate gradient with an optional two-level preconditioner.

The two-level preconditioner uses a fixed number of CG smoothing steps,
which makes it a nonlinear operator; the outer iteration therefore
switches to the flexible CG beta when a preconditioner is supplied. At
the coarsest level the preconditioner is the exact solve with the dense
coarse factor, so flexible CG converges there in one iteration.
"""

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.linalg import cho_factor
from scipy.linalg.lapack import dpotrs

from .errors import NumericalError, SetupError
from .sparse import gram_apply


@dataclass
class SolveReport:
    iterations: int
    final_residual_norm: float
    converged: bool


# the two-level preconditioner's CG pre-smoothing steps, and the widest
# coarsest level whose Gram matrix it factors densely
SMOOTH_STEPS = 2
DENSE_CAP = 10_000


@dataclass
class SolverConfig:
    """Knobs of the noise-injection linear solves."""

    tol: float = 1e-8
    max_iter: int | None = None


def cg_solve(apply_A, rhs, x0=None, tol=SolverConfig.tol, max_iter=SolverConfig.max_iter,
             precond=None):
    """Solve A x = rhs for SPD A given only the action of A.

    Stops when ||rhs - A x|| <= tol * ||rhs|| or after max_iter
    iterations (best iterate returned, converged=False). With `precond`
    the flexible-CG update is used.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    n = rhs.size
    if max_iter is None:
        max_iter = 2 * n
    rhs_norm = np.linalg.norm(rhs)
    if rhs_norm == 0.0:
        return np.zeros(n), SolveReport(0, 0.0, True)
    if x0 is None:
        x, r = np.zeros(n), rhs.copy()
    else:
        x = np.array(x0, dtype=np.float64)
        r = rhs - apply_A(x)
    return _cg(apply_A, x, r, tol * rhs_norm, max_iter, precond)


def _cg(apply_A, x, r, stop, max_iter, precond):
    """CG from iterate x with residual r (both updated in place) until
    ||r|| <= stop or max_iter iterations; returns (x, SolveReport)."""
    # one r.r per iteration gives both the residual norm and plain CG's r.z;
    # scalars are Python floats and dot products ndarray.dot (the same ddot
    # as `@`), which spares numpy's per-call overhead on small levels
    rr = float(r.dot(r))
    res = math.sqrt(rr)
    if res <= stop:
        return x, SolveReport(0, res, True)
    z = precond(r) if precond is not None else r
    p = z.copy()
    rz = float(r.dot(z)) if precond is not None else rr
    step = np.empty(x.size)  # scratch for alpha p and alpha Ap
    it = 0
    while it < max_iter:
        Ap = apply_A(p)
        pAp = float(p.dot(Ap))
        if not math.isfinite(pAp) or pAp <= 0.0:
            raise NumericalError(f"CG breakdown at iteration {it}: p.Ap = {pAp}")
        alpha = rz / pAp
        x += np.multiply(p, alpha, out=step)
        r -= np.multiply(Ap, alpha, out=step)
        it += 1
        rr = float(r.dot(r))
        res = math.sqrt(rr)
        if not math.isfinite(res):
            raise NumericalError(f"CG produced NaN at iteration {it}")
        if res <= stop:
            return x, SolveReport(it, res, True)
        if precond is not None:
            # flexible CG: A-orthogonalize the new direction against the
            # previous one (the smoothed cycle is not a fixed linear map)
            z_new = precond(r)
            beta = -float(z_new.dot(Ap)) / pAp
            rz = float(r.dot(z_new))
        else:
            z_new = r
            beta = rr / rz
            rz = rr
        p *= beta
        p += z_new
    return x, SolveReport(it, res, False)


@dataclass
class TwoLevelPreconditioner:
    apply_fine: object  # action of the fine-level Gram operator
    hierarchy: object = field(repr=False)
    level: int  # the level whose Gram system it preconditions
    coarse_factor: tuple = field(repr=False)

    def __call__(self, r):
        return precond_apply(self, r)


def factor_coarse(hierarchy, shift0):
    """Cholesky factor (cho_factor's (c, lower)) of the coarsest-level
    system X_0^T X_0 + diag(shift0)."""
    X0 = hierarchy.matrices[0]
    if X0.n_cols > DENSE_CAP:
        raise SetupError(f"coarse width {X0.n_cols} exceeds dense cap {DENSE_CAP}")
    G0 = hierarchy.coarse_gram + np.diag(shift0)
    try:
        return cho_factor(G0)
    except np.linalg.LinAlgError:
        G0 = G0 + np.eye(G0.shape[0]) * (1e-12 * np.trace(G0) / G0.shape[0])
        return cho_factor(G0)


def build_two_level(hierarchy, level, shift_diag, coarse_factor):
    """Two-level preconditioner for the Gram system at `level`: CG
    pre-smoothing plus an exact coarsest-level correction with
    coarse_factor, a factor_coarse of the coarsest system; at level 0 the
    exact coarse solve alone."""
    if hierarchy.n_levels < 2 or not 0 <= level < hierarchy.n_levels:
        raise SetupError(f"no coarse space for level {level}")
    X_l = hierarchy.matrices[level]
    return TwoLevelPreconditioner(
        apply_fine=partial(gram_apply, X_l, np.asarray(shift_diag, dtype=np.float64)),
        hierarchy=hierarchy,
        level=level,
        coarse_factor=coarse_factor,
    )


def precond_apply(M, r):
    """Smooth by SMOOTH_STEPS plain CG steps from zero, then add the
    prolongated exact coarse correction; at level 0 only the exact solve."""
    # the LAPACK solve behind cho_solve, without its wrapper: cho_factor
    # checked G0, and a non-finite r raises NumericalError in the smoother
    # or, at level 0, in the CG step that follows
    c, lower = M.coarse_factor
    if M.level == 0:
        z, _ = dpotrs(c, r, lower=lower)
        return z
    z, _ = _cg(M.apply_fine, np.zeros(r.size), r.copy(), 0.0, SMOOTH_STEPS, None)
    # resid is a fresh vector that the solve may overwrite
    resid = M.hierarchy.transfer(r - M.apply_fine(z), M.level, 0)
    yc, _ = dpotrs(c, resid, lower=lower, overwrite_b=True)
    return z + M.hierarchy.transfer(yc, 0, M.level)
