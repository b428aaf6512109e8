"""Conjugate gradient and the two-level preconditioner."""

import numpy as np
import pytest

from scipy.linalg import cho_factor, cho_solve

from mlgibbs import (
    NumericalError,
    SetupError,
    build_hierarchy,
    build_prolongator,
    build_two_level,
    cg_solve,
    coarsen,
    from_dense,
    gram_apply,
    precond_apply,
    prolong,
    restrict,
)
from mlgibbs import solvers
from mlgibbs.hierarchy import LevelHierarchy, restrict_diagonal
from mlgibbs.sparse import SparseMatrix
from conftest import cluster_sparse


def identity_hierarchy(X, levels=2):
    """Hierarchy whose prolongators are all identity (every level = X)."""
    P = build_prolongator(np.arange(X.n_cols))
    return LevelHierarchy(
        matrices=[X] * levels,
        prolongators=[P] * (levels - 1),
        group_boundaries=[0] * levels,
    )


def restricted_shift(h, level, shift):
    """The level's shift restricted down to level 0."""
    for P in reversed(h.prolongators[:level]):
        shift = restrict_diagonal(P, shift)
    return shift


def two_level(h, level, shift):
    """build_two_level with the coarse factor of the restricted shift."""
    factor = solvers.factor_coarse(h, restricted_shift(h, level, shift))
    return build_two_level(h, level, shift, factor)


def ill_conditioned_gram(rng, n_rows=120, n_clusters=30, per=4,
                         eps=1e-4, shift_val=1e-7):
    """Shifted Gram system with condition number around 1e9 whose
    near-null modes live in the cluster coarse space.

    Columns come in groups of near-identical copies with group norms
    spread over 2.5 decades; the two-level coarse correction captures
    exactly the slow modes that stall plain CG."""
    C = rng.standard_normal((n_rows, n_clusters)) * np.logspace(
        0, -2.5, n_clusters
    )
    dense = np.repeat(C, per, axis=1) + eps * rng.standard_normal(
        (n_rows, n_clusters * per)
    )
    X = from_dense(dense)
    assignment = np.repeat(np.arange(n_clusters), per)
    shift = np.full(X.n_cols, shift_val)
    G = dense.T @ dense + np.diag(shift)
    return X, assignment, shift, G


class TestCgSolve:
    def test_identity_one_iteration(self):
        x, report = cg_solve(lambda v: v, np.array([1.0, 2.0, 3.0]))
        assert np.allclose(x, [1, 2, 3], atol=1e-12)
        assert report.converged
        assert report.iterations == 1

    def test_diagonal_two_iterations(self):
        d = np.array([1.0, 4.0])
        x, report = cg_solve(lambda v: d * v, np.array([1.0, 4.0]))
        assert np.allclose(x, [1, 1], atol=1e-10)
        assert report.iterations <= 2

    def test_dense_oracle(self, rng):
        B = rng.standard_normal((20, 20))
        A = B @ B.T + 0.5 * np.eye(20)
        rhs = rng.standard_normal(20)
        x, report = cg_solve(lambda v: A @ v, rhs, tol=1e-10)
        assert report.converged
        assert np.allclose(x, np.linalg.solve(A, rhs), atol=1e-8)

    def test_zero_rhs(self):
        x, report = cg_solve(lambda v: v, np.zeros(4))
        assert np.array_equal(x, np.zeros(4))
        assert report.converged and report.iterations == 0

    def test_max_iter_returns_best(self, rng):
        B = rng.standard_normal((30, 30))
        A = B @ B.T + 1e-4 * np.eye(30)
        rhs = rng.standard_normal(30)
        x, report = cg_solve(lambda v: A @ v, rhs, tol=1e-12, max_iter=3)
        assert not report.converged
        assert report.iterations == 3

    def test_indefinite_operator_raises(self):
        with pytest.raises(NumericalError):
            cg_solve(lambda v: -v, np.array([1.0, 1.0]))

    def test_residual_monotone(self, rng):
        # residual norms are only guaranteed monotone in the A-norm of the
        # error; the 10% slack covers the mild plain-norm oscillation on a
        # reasonably conditioned system
        B = rng.standard_normal((25, 25))
        A = B @ B.T + 5.0 * np.eye(25)
        rhs = rng.standard_normal(25)
        x_star = np.linalg.solve(A, rhs)
        res, err_A = [], []
        for k in range(1, 16):
            x, report = cg_solve(lambda v: A @ v, rhs, tol=1e-15, max_iter=k)
            res.append(report.final_residual_norm)
            e = x - x_star
            err_A.append(float(e @ (A @ e)))
        for prev, cur in zip(res, res[1:]):
            assert cur <= prev * 1.1
        for prev, cur in zip(err_A, err_A[1:]):
            assert cur <= prev * (1 + 1e-10)

    def test_cold_start_one_product_per_iteration(self, rng):
        B = rng.standard_normal((30, 30))
        A = B @ B.T + np.eye(30)
        products = []

        def apply_A(v):
            products.append(v)
            return A @ v

        x, report = cg_solve(apply_A, rng.standard_normal(30), tol=1e-10)
        assert report.converged and report.iterations > 1
        assert len(products) == report.iterations

    @pytest.mark.parametrize("max_iter", [None, 2])
    def test_final_residual_norm_is_a_float(self, rng, max_iter):
        B = rng.standard_normal((20, 20))
        A = B @ B.T + np.eye(20)
        _, report = cg_solve(lambda v: A @ v, rng.standard_normal(20), max_iter=max_iter)
        assert type(report.final_residual_norm) is float

    def test_warm_start_exact(self, rng):
        B = rng.standard_normal((10, 10))
        A = B @ B.T + np.eye(10)
        rhs = rng.standard_normal(10)
        x_star = np.linalg.solve(A, rhs)
        x, report = cg_solve(lambda v: A @ v, rhs, x0=x_star)
        assert report.iterations == 0
        assert report.converged


class TestTwoLevelPreconditioner:
    def test_single_level_rejected(self, rng):
        X = cluster_sparse(rng, 20, 4, 3, 5)
        h = build_hierarchy(X, 0, (12, 12), 1)
        with pytest.raises(SetupError):
            two_level(h, 1, np.ones(X.n_cols))

    def test_dense_cap(self, rng, monkeypatch):
        X = cluster_sparse(rng, 20, 4, 3, 5)
        h = identity_hierarchy(X)
        monkeypatch.setattr(solvers, "DENSE_CAP", 2)
        with pytest.raises(SetupError):
            solvers.factor_coarse(h, np.ones(X.n_cols))

    def test_zero_residual(self, rng):
        X = cluster_sparse(rng, 20, 4, 3, 5)
        M = two_level(identity_hierarchy(X), 1, np.ones(X.n_cols))
        assert np.allclose(precond_apply(M, np.zeros(X.n_cols)), 0.0)

    def test_smoother_breakdown_raises(self, rng):
        X = cluster_sparse(rng, 20, 4, 3, 5)
        M = two_level(identity_hierarchy(X), 1, np.ones(X.n_cols))
        M.apply_fine = lambda v: -v  # indefinite: the first p.Ap is negative
        with pytest.raises(NumericalError):
            precond_apply(M, np.ones(X.n_cols))

    def test_identity_prolongator_exact(self, rng):
        X = cluster_sparse(rng, 25, 5, 3, 6)
        shift = np.full(X.n_cols, 0.5)
        M = two_level(identity_hierarchy(X), 1, shift)
        rhs = np.random.default_rng(0).standard_normal(X.n_cols)
        x, report = cg_solve(
            lambda v: gram_apply(X, shift, v), rhs, precond=M, tol=1e-10
        )
        assert report.converged
        assert report.iterations == 1

    def test_coarsest_level_exact(self, rng):
        X = cluster_sparse(rng, 40, 8, 5, 6)
        h = build_hierarchy(X, 0, (5, 15), 3)
        X0 = h.matrices[0]
        shift = rng.uniform(0.01, 1.0, X0.n_cols)
        rhs = rng.standard_normal(X0.n_cols)
        x, report = cg_solve(lambda v: gram_apply(X0, shift, v), rhs,
                             precond=solvers.factor_coarse(h, shift))
        assert report.converged and report.iterations == 1
        D0 = X0.to_dense()
        want = np.linalg.solve(D0.T @ D0 + np.diag(shift), rhs)
        assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want)

    def test_level_zero_needs_a_coarser_hierarchy(self, rng):
        X = cluster_sparse(rng, 20, 4, 3, 5)
        h = build_hierarchy(X, 0, (12, 12), 1)
        with pytest.raises(SetupError):
            two_level(h, 0, np.ones(X.n_cols))

    def test_level_zero_rejected(self, rng):
        # level 0 takes factor_coarse's solve itself, not a two-level cycle
        X = cluster_sparse(rng, 40, 8, 5, 6)
        h = build_hierarchy(X, 0, (5, 15), 3)
        shift = np.ones(h.widths()[0])
        with pytest.raises(SetupError):
            build_two_level(h, 0, shift, solvers.factor_coarse(h, shift))

    def test_fewer_iterations_than_plain(self, rng):
        X, assignment, shift, G = ill_conditioned_gram(rng)
        P = build_prolongator(assignment)
        h = LevelHierarchy([coarsen(X, P), X], [P], [0, 0])
        M = two_level(h, 1, shift)
        rhs = rng.standard_normal(X.n_cols)
        apply_A = lambda v: gram_apply(X, shift, v)
        x_plain, rep_plain = cg_solve(apply_A, rhs, tol=1e-8, max_iter=20000)
        x_pre, rep_pre = cg_solve(
            apply_A, rhs, tol=1e-8, max_iter=20000, precond=M
        )
        assert rep_pre.converged and rep_plain.converged
        assert rep_pre.iterations < rep_plain.iterations
        # solution invariance between the two solves
        ref = np.linalg.solve(G, rhs)
        scale = np.linalg.norm(ref)
        assert np.linalg.norm(x_plain - ref) <= 1e-5 * scale
        assert np.linalg.norm(x_pre - ref) <= 1e-5 * scale


def clustered_levels(rng):
    """A three-level clustered hierarchy (no fixed columns) and the shift."""
    X = cluster_sparse(np.random.default_rng(11), 60, 12, 6, 6)
    h = build_hierarchy(X, 0, (5, 15), 3)
    assert h.widths() == [12, 23, 72]
    return h, 0.3


def ill_conditioned_levels(rng):
    """Criterion 12's two-level hierarchy and its shift."""
    X, assignment, shift, _ = ill_conditioned_gram(rng)
    P = build_prolongator(assignment)
    return LevelHierarchy([coarsen(X, P), X], [P], [0, 0]), shift[0]


@pytest.mark.parametrize("problem", [clustered_levels, ill_conditioned_levels])
def test_eigen_kind_matches_dense_solve(rng, problem):
    # a one-valued shift takes the eigenbasis, not a Cholesky factor
    h, s = problem(rng)
    X0 = h.matrices[0]
    shift0 = np.full(X0.n_cols, s)
    coarse_solve = solvers.factor_coarse(h, shift0)
    D0 = X0.to_dense()
    rhs = rng.standard_normal(X0.n_cols)
    want = np.linalg.solve(D0.T @ D0 + np.diag(shift0), rhs)
    got = coarse_solve(rhs)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
    x, report = cg_solve(lambda v: gram_apply(X0, shift0, v), rhs, precond=coarse_solve)
    assert report.converged and report.iterations == 1
    assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want)


def test_two_valued_shift_matches_dense_solve(mixed_system):
    # a shift of two values takes the Cholesky factor, not the eigenbasis
    h, _, rhs = mixed_system
    D0 = h.matrices[0].to_dense()
    shift0 = np.where(np.arange(D0.shape[1]) < h.group_boundaries[0], 0.02, 0.7)
    assert np.unique(shift0).size == 2
    r = rhs[: D0.shape[1]]
    want = np.linalg.solve(D0.T @ D0 + np.diag(shift0), r)
    got = solvers.factor_coarse(h, shift0)(r)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


# The solve path as it was written before the in-place CG and the direct
# CSR kernel calls: scipy's `@`, a separate residual norm and fresh
# temporaries per iteration. The current code must give the same bits.

def reference_gram(X, shift):
    return lambda v: X.csr_t @ (X.csr @ v) + shift * v


def reference_cg(apply_A, rhs, x0=None, tol=1e-8, max_iter=None, precond=None):
    n = rhs.size
    if max_iter is None:
        max_iter = 2 * n
    rhs_norm = np.linalg.norm(rhs)
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64)
    r = rhs - apply_A(x)
    res = np.linalg.norm(r)
    if res <= tol * rhs_norm:
        return x, 0, float(res), True
    z = precond(r) if precond is not None else r
    p = z.copy()
    rz = float(r @ z)
    it = 0
    while it < max_iter:
        Ap = apply_A(p)
        pAp = float(p @ Ap)
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        it += 1
        res = np.linalg.norm(r)
        if res <= tol * rhs_norm:
            return x, it, float(res), True
        if precond is not None:
            z_new = precond(r)
            beta = -float(z_new @ Ap) / pAp
            rz = float(r @ z_new)
        else:
            z_new = r
            rz_new = float(r @ r)
            beta = rz_new / rz
            rz = rz_new
        p = z_new + beta * p
    return x, it, float(res), False


def reference_cg_smooth(apply_A, rhs, steps):
    x = np.zeros(rhs.size)
    r = rhs.copy()
    p = r.copy()
    rr = float(r @ r)
    for _ in range(steps):
        if rr == 0.0:
            break
        Ap = apply_A(p)
        pAp = float(p @ Ap)
        if pAp <= 0.0 or not np.isfinite(pAp):
            break
        alpha = rr / pAp
        x += alpha * p
        r -= alpha * Ap
        rr_new = float(r @ r)
        p = r + (rr_new / rr) * p
        rr = rr_new
    return x


def reference_two_level(h, level, shift, smooth_steps=2):
    chain = h.prolongators[:level]
    shift0 = shift
    for P in reversed(chain):
        shift0 = restrict_diagonal(P, shift0)
    D0 = h.matrices[0].to_dense()
    factor = cho_factor(D0.T @ D0 + np.diag(shift0))
    apply_fine = reference_gram(h.matrices[level], shift)

    def apply(r):
        z = reference_cg_smooth(apply_fine, r, smooth_steps)
        resid = r - apply_fine(z)
        for P in reversed(chain):
            resid = restrict(P, resid)
        yc = cho_solve(factor, resid)
        for P in chain:
            yc = prolong(P, yc)
        return z + yc

    return apply, factor


@pytest.fixture(scope="module")
def mixed_system():
    """A three-level hierarchy of a mixed model (4 fixed columns), a
    two-valued shift at the finest level and a right-hand side."""
    X = cluster_sparse(np.random.default_rng(5), 50, 10, 5, 6)
    h = build_hierarchy(X, 4, (5, 12), 3)
    shift = np.where(np.arange(X.n_cols) < 4, 0.02, 0.7)
    rhs = np.random.default_rng(6).standard_normal(X.n_cols) * 10
    return h, shift, rhs


def assert_same_solve(got, want):
    x, report = got
    assert np.array_equal(x, want[0])
    assert (report.iterations, report.final_residual_norm, report.converged) == want[1:]


class TestBitIdentity:
    @pytest.mark.parametrize("tol, max_iter, warm", [
        (1e-8, None, False),  # plain CG to convergence
        (1e-8, None, True),  # warm start
        (1e-14, 3, False),  # max_iter cut-off
    ])
    def test_plain(self, mixed_system, tol, max_iter, warm):
        h, shift, rhs = mixed_system
        X = h.finest
        x0 = rhs * 1e-3 if warm else None
        want = reference_cg(reference_gram(X, shift), rhs, x0, tol, max_iter)
        got = cg_solve(lambda v: gram_apply(X, shift, v), rhs, x0, tol, max_iter)
        assert_same_solve(got, want)
        assert want[3] == (max_iter is None)

    @pytest.mark.parametrize("level", [1, 2])
    @pytest.mark.parametrize("max_iter", [None, 2])
    def test_flexible_two_level(self, mixed_system, level, max_iter):
        h, _, rhs = mixed_system
        X = h.matrices[level]
        shift = np.where(np.arange(X.n_cols) < h.group_boundaries[level], 0.02, 0.7)
        b = rhs[: X.n_cols]
        ref_precond, factor = reference_two_level(h, level, shift)
        coarse_solve = solvers.factor_coarse(h, restricted_shift(h, level, shift))
        M = build_two_level(h, level, shift, coarse_solve)
        # the preconditioner shares the solve it is given, which matches
        # cho_solve with the reference factor bit for bit
        assert M.coarse_solve is coarse_solve
        v = b[: h.widths()[0]]
        assert np.array_equal(coarse_solve(v), cho_solve(factor, v))
        want = reference_cg(reference_gram(X, shift), b, b, 1e-10, max_iter, ref_precond)
        got = cg_solve(lambda v: gram_apply(X, shift, v), b, b, 1e-10, max_iter, M)
        assert_same_solve(got, want)

    def test_coarse_gram_formed_once_per_hierarchy(self, mixed_system, monkeypatch):
        h0, shift, _ = mixed_system
        calls = []
        to_dense = SparseMatrix.to_dense

        def counting(A):
            calls.append(A)
            return to_dense(A)

        monkeypatch.setattr(SparseMatrix, "to_dense", counting)
        for h in (LevelHierarchy(h0.matrices, h0.prolongators, h0.group_boundaries),
                  LevelHierarchy(h0.matrices, h0.prolongators, h0.group_boundaries)):
            for scale in (1.0, 2.0, 0.5):
                solvers.factor_coarse(h, restricted_shift(h, 2, shift * scale))
        assert calls == [h0.matrices[0]] * 2
        assert not h.coarse_gram.flags.writeable
