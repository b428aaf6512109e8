"""Matrix-free conjugate gradient with an optional two-level preconditioner,
and exact solves that serve as preconditioners of their own level.

The two-level preconditioner uses a fixed number of CG smoothing steps,
which makes it a nonlinear operator; the outer iteration therefore
switches to the flexible CG beta when a preconditioner is supplied. An
exact solve is the whole preconditioner of its level, so flexible CG
converges there in one iteration. exact_solve makes it on any level
whose basis dimension min(rows, width) is within BASIS_CAP, in the
level's eigenbasis, with a Woodbury correction when the fixed block's
shift differs from the random block's. A two-level cycle r -> z corrects
at an exact solve of a level below its own; preconditioner picks either.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.linalg import cho_factor
from scipy.linalg.lapack import dpotrs

from .errors import NumericalError, SetupError
from .sparse import gram_apply, spmv, spmv_t


@dataclass
class SolveReport:
    iterations: int
    final_residual_norm: float
    converged: bool


# the two-level preconditioner's CG pre-smoothing steps; and the largest
# dense matrix, a basis of dimension min(rows, width) or a fixed block's f x f
# correction, that exact_solve factors (on 2 shared CPUs with one BLAS
# thread, an eigh took 0.26 s and an apply 0.78 ms at 1000; at 2000, 1.8 s
# and 3.8 ms, more than a whole preconditioned CG solve on 333 rows)
SMOOTH_STEPS = 2
BASIS_CAP = 1000


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
    the flexible-CG update is used. A right-hand side whose norm is not
    finite raises NumericalError.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    n = rhs.size
    if max_iter is None:
        max_iter = 2 * n
    with np.errstate(over="ignore"):
        rhs_norm = np.linalg.norm(rhs)
    if not math.isfinite(rhs_norm):
        raise NumericalError(f"CG right-hand side has norm {rhs_norm}")
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


def exact_solve(hierarchy, level, shift):
    """The exact solve r -> (X_l^T X_l + diag(shift))^-1 r of `level` in
    hierarchy.basis(level), or None. S, the solve at the random block's
    shift s, is Q ((Q^T r) / (w + s)) in a primal basis and
    (r - X^T Q ((Q^T X r) / (w + s))) / s in a dual one, since
    (X^T X + sI)^-1 = (I - X^T (X X^T + sI)^-1 X) / s. When the f fixed
    columns E take another value s_v, Woodbury's identity gives
    S - S E K^-1 E^T S with K = I/c + E^T S E, c = s_v - s; sign(c) K is
    positive definite, as E^T S E <= I/s, and cho_factor and LAPACK's dpotrs
    solve it. None past BASIS_CAP (min(rows, width), or f under two values),
    for two values more than 1e12 apart, or for a shift not constant on
    each block."""
    X = hierarchy.matrices[level]
    f = hierarchy.group_boundaries[level]
    s_v, s = shift[0], shift[-1]
    if (min(X.shape) > BASIS_CAP or np.any(shift[:f] != s_v) or np.any(shift[f:] != s)
            or s_v != s and (f > BASIS_CAP or min(s_v, s) < 1e-12 * max(s_v, s))):
        return None
    Q, w, dual = hierarchy.basis(level)
    d = w + s
    # the least and the mean eigenvalue of X^T X + sI, which in a dual basis
    # has s on the null space of X; a singular system is jittered
    low, mean = (s, w.sum() / X.n_cols + s) if dual else (d[0], d.mean())
    if not low > 1e-12 * mean:
        jitter = 1e-12 * mean
        d, s = d + jitter, s + jitter
    inv = 1.0 / d
    if dual:
        S = lambda r: (r - spmv_t(X, Q @ ((Q.T @ spmv(X, r)) * inv))) / s
    else:
        S = lambda r: Q @ ((Q.T @ r) * inv)
    if s_v in (shift[-1], s):  # one value, or s_v is the jittered s
        return S
    if dual:
        B = (X.csr_t[:f] @ Q).T  # Q^T X E
        K = (np.eye(f) - (B.T * inv) @ B) / s
    else:
        K = (Q[:f] * inv) @ Q[:f].T
    sign = math.copysign(1.0, s_v - s)
    K, lower = cho_factor(sign * (K + np.eye(f) / (s_v - s)))

    def solve(r):
        x = S(r)
        return x - sign * S(np.pad(dpotrs(K, x[:f], lower=lower)[0], (0, x.size - f)))

    return solve


def build_two_level(hierarchy, level, shift_diag, coarse_solve, coarse_level):
    """The two-level cycle r -> z for the Gram system at `level` >= 1: CG
    pre-smoothing plus an exact correction at coarse_level < level by
    coarse_solve, exact_solve's solve of that level."""
    if not 1 <= level < hierarchy.n_levels:
        raise SetupError(f"no coarse space for level {level}")
    apply_fine = partial(gram_apply, hierarchy.matrices[level],
                         np.asarray(shift_diag, dtype=np.float64))

    def correct(resid):
        resid = hierarchy.transfer(resid, level, coarse_level)
        return hierarchy.transfer(coarse_solve(resid), coarse_level, level)

    return partial(precond_apply, apply_fine, correct)


def precond_apply(apply_fine, correct, r):
    """Smooth by SMOOTH_STEPS plain CG steps of apply_fine from zero, then
    add correct's correction of the smoothed residual."""
    # a non-finite r raises NumericalError in the smoother, which updates
    # its copy of r in place to the smoothed residual
    resid = r.copy()
    z, _ = _cg(apply_fine, np.zeros(r.size), resid, 0.0, SMOOTH_STEPS, None)
    return z + correct(resid)


def preconditioner(hierarchy, level, shift, exact):
    """CG's preconditioner at `level` and Gram shift `shift`, given exact(c),
    the exact solve of level c or None. A level below the finest takes its
    own; otherwise build_two_level's cycle, corrected at the nearest level
    below that has one; otherwise None (plain CG)."""
    if level < hierarchy.n_levels - 1 and (M := exact(level)) is not None:
        return M
    for c in reversed(range(level)):
        if (C := exact(c)) is not None:
            return build_two_level(hierarchy, level, shift, C, c)
    return None
