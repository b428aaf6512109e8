"""Conjugate gradient and the two-level preconditioner."""

import numpy as np
import pytest

from scipy.linalg import cho_factor, cho_solve

from mlgibbs import (
    MixedModelSpec,
    NumericalError,
    RandomStream,
    SetupError,
    SolverConfig,
    build_hierarchy,
    build_prolongator,
    build_two_level,
    cg_solve,
    coarsen,
    from_dense,
    gram_apply,
    make_schedule,
    prolong,
    restrict,
    run_ml_cs,
)
from mlgibbs import solvers
from mlgibbs.hierarchy import LevelHierarchy, restrict_diagonal
from mlgibbs.sparse import SparseMatrix
from conftest import cluster_sparse


def identity_hierarchy(X, levels=2, n_fixed=0):
    """Hierarchy whose prolongators are all identity (every level = X)."""
    P = build_prolongator(np.arange(X.n_cols))
    return LevelHierarchy(
        matrices=[X] * levels,
        prolongators=[P] * (levels - 1),
        group_boundaries=[n_fixed] * levels,
    )


def restricted_shift(h, level, shift):
    """The level's shift restricted down to level 0."""
    for P in reversed(h.prolongators[:level]):
        shift = restrict_diagonal(P, shift)
    return shift


def two_level(h, level, shift):
    """build_two_level with the coarse factor of the restricted shift."""
    factor = solvers.exact_solve(h, 0, restricted_shift(h, level, shift))
    return build_two_level(h, level, shift, factor, 0)


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

    def test_infinite_rhs_raises(self):
        # tol * ||rhs|| would be inf, and x = 0 would pass as converged
        X = primal_and_dual_levels().finest
        shift = np.ones(X.n_cols)
        rhs = np.ones(X.n_cols)
        rhs[3] = np.inf
        with pytest.raises(NumericalError):
            cg_solve(lambda v: gram_apply(X, shift, v), rhs)

    def test_rhs_norm_overflow_raises(self):
        # every entry is finite, but ||rhs|| overflows to inf; no warning
        # escapes the suite's error::RuntimeWarning filter
        with pytest.raises(NumericalError):
            cg_solve(lambda v: 2.0 * v, np.array([1e200, 2.0, 1e200, 3.0]))

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
    """The two-level cycle that `build_two_level` makes and `precond_apply`
    runs: its set-up errors, its exact cases and its effect on CG."""

    def test_single_level_rejected(self, rng):
        X = cluster_sparse(rng, 20, 4, 3, 5)
        h = build_hierarchy(X, 0, (12, 12), 1)
        with pytest.raises(SetupError):
            two_level(h, 1, np.ones(X.n_cols))

    @pytest.mark.parametrize("n_fixed", [0, 6], ids=["one_block", "two_block"])
    def test_past_the_cap_runs_plain_cg(self, monkeypatch, n_fixed):
        # with no level within BASIS_CAP, level 0 included, there is no
        # exact solve, and a preconditioned chain is the plain chain
        X = cluster_sparse(np.random.default_rng(11), 60, 12, 6, 6)
        y = np.random.default_rng(12).standard_normal(60) * 3
        h = build_hierarchy(X, n_fixed, (5, 15), 3)
        monkeypatch.setattr(solvers, "BASIS_CAP", 0)
        schedule = make_schedule("vcycle:10", 3, 100, 20)
        plain, pre = (
            run_ml_cs(h, y, MixedModelSpec(n_fixed, X.n_cols - n_fixed), schedule,
                      SolverConfig(), RandomStream(23), preconditioned=flag)
            for flag in (False, True)
        )
        assert all(np.array_equal(a, b) for a, b in zip(pre.level_sums, plain.level_sums))
        assert np.array_equal(pre.cg_iters, plain.cg_iters)

    def test_zero_residual(self, rng):
        X = cluster_sparse(rng, 20, 4, 3, 5)
        M = two_level(identity_hierarchy(X), 1, np.ones(X.n_cols))
        assert np.allclose(M(np.zeros(X.n_cols)), 0.0)

    def test_smoother_breakdown_raises(self, rng, monkeypatch):
        X = cluster_sparse(rng, 20, 4, 3, 5)
        # an indefinite fine operator: the smoother's first p.Ap is negative
        monkeypatch.setattr(solvers, "gram_apply", lambda A, shift, v: -v)
        M = two_level(identity_hierarchy(X), 1, np.ones(X.n_cols))
        with pytest.raises(NumericalError):
            M(np.ones(X.n_cols))

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
        h = build_hierarchy(X, 5, (5, 15), 3)
        X0 = h.matrices[0]
        shift = block_shift(h, 0, *rng.uniform(0.01, 1.0, 2))
        rhs = rng.standard_normal(X0.n_cols)
        x, report = cg_solve(lambda v: gram_apply(X0, shift, v), rhs,
                             precond=solvers.exact_solve(h, 0, shift))
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
        # level 0 takes its exact solve itself, not a two-level cycle
        X = cluster_sparse(rng, 40, 8, 5, 6)
        h = build_hierarchy(X, 0, (5, 15), 3)
        shift = np.ones(h.widths()[0])
        with pytest.raises(SetupError):
            build_two_level(h, 0, shift, solvers.exact_solve(h, 0, shift), 0)

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


class TestPreconditioner:
    """solvers.preconditioner, the rule that picks each solve's
    preconditioner from a draw's exact solves."""

    @pytest.fixture()
    def levels(self):
        # widths 12 / 23 / 72 on 60 rows
        X = cluster_sparse(np.random.default_rng(11), 60, 12, 6, 6)
        return build_hierarchy(X, 0, (5, 15), 3)

    @staticmethod
    def exact(h):
        return lambda c: solvers.exact_solve(h, c, np.full(h.widths()[c], 0.5))

    def test_below_the_finest_takes_its_own_exact_solve(self, levels, two_level_levels):
        solves = {c: (lambda r: r) for c in range(levels.n_levels)}
        for level in range(levels.n_levels - 1):
            shift = np.full(levels.widths()[level], 0.5)
            assert solvers.preconditioner(levels, level, shift, solves.get) is solves[level]
        assert two_level_levels == []

    def test_finest_takes_the_cycle_at_the_level_below(self, levels, two_level_levels, rng):
        L = levels.n_levels - 1
        shift, exact = np.full(levels.widths()[L], 0.5), self.exact(levels)
        M = solvers.preconditioner(levels, L, shift, exact)
        assert two_level_levels == [(L, L - 1)]
        r = rng.standard_normal(levels.widths()[L])
        want = solvers.build_two_level(levels, L, shift, exact(L - 1), L - 1)(r)
        assert np.array_equal(M(r), want)

    def test_past_the_cap_falls_back_to_level_zero(self, levels, two_level_levels, monkeypatch):
        # level 1's basis dimension (23) is past the cap, level 0's (12) is not
        monkeypatch.setattr(solvers, "BASIS_CAP", 22)
        exact = self.exact(levels)
        assert exact(1) is None and exact(0) is not None
        for level in (1, 2):
            shift = np.full(levels.widths()[level], 0.5)
            assert solvers.preconditioner(levels, level, shift, exact) is not None
        assert two_level_levels == [(1, 0), (2, 0)]

    def test_no_exact_solve_is_plain_cg(self, levels, two_level_levels):
        for level in range(levels.n_levels):
            shift = np.full(levels.widths()[level], 0.5)
            assert solvers.preconditioner(levels, level, shift, lambda c: None) is None
        assert two_level_levels == []


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
    # a one-valued shift takes the eigenbasis with no fixed-block correction
    h, s = problem(rng)
    X0 = h.matrices[0]
    shift0 = np.full(X0.n_cols, s)
    coarse_solve = solvers.exact_solve(h, 0, shift0)
    D0 = X0.to_dense()
    rhs = rng.standard_normal(X0.n_cols)
    want = np.linalg.solve(D0.T @ D0 + np.diag(shift0), rhs)
    got = coarse_solve(rhs)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
    x, report = cg_solve(lambda v: gram_apply(X0, shift0, v), rhs, precond=coarse_solve)
    assert report.converged and report.iterations == 1
    assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want)


def test_two_valued_shift_matches_dense_solve(mixed_system):
    # a shift of two values takes the eigenbasis and the fixed-block correction
    h, _, rhs = mixed_system
    D0 = h.matrices[0].to_dense()
    shift0 = np.where(np.arange(D0.shape[1]) < h.group_boundaries[0], 0.02, 0.7)
    assert np.unique(shift0).size == 2
    r = rhs[: D0.shape[1]]
    want = np.linalg.solve(D0.T @ D0 + np.diag(shift0), r)
    got = solvers.exact_solve(h, 0, shift0)(r)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def primal_and_dual_levels():
    """A three-level hierarchy of 20 rows: level 0 is narrower than tall
    (a primal basis), levels 1 and 2 are wider (a dual basis)."""
    X = cluster_sparse(np.random.default_rng(11), 20, 12, 6, 6)
    h = build_hierarchy(X, 0, (5, 15), 3)
    assert h.widths() == [12, 23, 72]
    assert [h.basis(level)[2] for level in range(3)] == [False, True, True]
    return h


def block_shift(h, level, s_v, s):
    """The level's shift: s_v on its fixed columns, s on its random ones."""
    return np.where(np.arange(h.widths()[level]) < h.group_boundaries[level], s_v, s)


def fixed_block_levels(dual, f):
    """Two identical levels of 80 columns, the first f of them fixed: 30
    rows (a dual basis) or 200 (a primal one)."""
    X = cluster_sparse(np.random.default_rng(1), 30 if dual else 200, 20, 4, 6)
    h = identity_hierarchy(X, n_fixed=f)
    assert h.basis(1)[2] == dual
    return h


class TestExactSolve:
    @pytest.mark.parametrize("s", [1.0, 90.0])
    def test_matches_dense_solve(self, rng, s):
        h = primal_and_dual_levels()
        for level, X in enumerate(h.matrices):
            D = X.to_dense()
            shift = np.full(X.n_cols, s)
            r = rng.standard_normal(X.n_cols)
            want = np.linalg.solve(D.T @ D + np.diag(shift), r)
            got = solvers.exact_solve(h, level, shift)(r)
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_preconditions_cg_at_a_tiny_shift(self, rng):
        h = primal_and_dual_levels()
        for level, X in enumerate(h.matrices):
            shift = np.full(X.n_cols, 1e-6)
            x, report = cg_solve(lambda v: gram_apply(X, shift, v), rng.standard_normal(X.n_cols),
                                 precond=solvers.exact_solve(h, level, shift))
            assert report.converged and report.iterations <= 2

    def test_non_finite_residual_raises(self):
        h = primal_and_dual_levels()
        for level, X in enumerate(h.matrices):
            shift = np.ones(X.n_cols)
            r = np.ones(X.n_cols)
            r[3] = np.nan
            with pytest.raises(NumericalError):
                cg_solve(lambda v: gram_apply(X, shift, v), r,
                         precond=solvers.exact_solve(h, level, shift))

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_basis_matches_dense_gram(self, level):
        # level 0 is primal, levels 1 and 2 dual
        h = primal_and_dual_levels()
        Q, w, dual = h.basis(level)
        D = h.matrices[level].to_dense()
        gram = D @ D.T if dual else D.T @ D
        assert np.linalg.norm(Q * w @ Q.T - gram) <= 1e-12 * np.linalg.norm(gram)

    def test_basis_never_densifies(self, monkeypatch):
        def no_dense(A):
            raise AssertionError("basis densified X_l")

        h = primal_and_dual_levels()
        h = LevelHierarchy(h.matrices, h.prolongators, h.group_boundaries)
        monkeypatch.setattr(SparseMatrix, "to_dense", no_dense)
        for level in range(h.n_levels):
            h.basis(level)

    def test_none_for_two_values_or_past_the_cap(self, monkeypatch):
        # level 0 has no exact solve past BASIS_CAP either
        h = primal_and_dual_levels()
        two_valued = np.where(np.arange(23) < 4, 0.02, 0.7)
        assert solvers.exact_solve(h, 1, two_valued) is None
        monkeypatch.setattr(solvers, "BASIS_CAP", 5)
        assert solvers.exact_solve(h, 1, np.ones(23)) is None
        assert solvers.exact_solve(h, 0, np.ones(12)) is None
        assert solvers.exact_solve(h, 0, two_valued[:12]) is None

    @pytest.mark.parametrize("s_v, s", [(2.0, 0.05), (0.05, 3.0)], ids=["c_pos", "c_neg"])
    @pytest.mark.parametrize("f", [1, 6, 40])
    @pytest.mark.parametrize("dual", [False, True], ids=["primal", "dual"])
    def test_two_block_matches_dense_solve(self, rng, dual, f, s_v, s):
        # above level 0 too, with c = s_v - s of either sign
        h = fixed_block_levels(dual, f)
        D = h.finest.to_dense()
        shift = block_shift(h, 1, s_v, s)
        r = rng.standard_normal(D.shape[1])
        want = np.linalg.solve(D.T @ D + np.diag(shift), r)
        got = solvers.exact_solve(h, 1, shift)(r)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    @pytest.mark.parametrize("f", [1, 6, 40])
    @pytest.mark.parametrize("dual", [False, True], ids=["primal", "dual"])
    def test_two_block_backward_error(self, rng, dual, f):
        # the normwise backward error ||Ax - r|| / (||A|| ||x|| + ||r||) of the
        # Woodbury solve, with the two shifts 1 and 10 to 1e11 apart either
        # way; np.linalg.solve's stays under 1e-16 here. With the random
        # block's shift at 1e-3 instead, the dual level's reached 7e-14
        h = fixed_block_levels(dual, f)
        D = h.finest.to_dense()
        for ratio in 10.0 ** np.arange(1, 12):
            for s_v, s in ((1.0, ratio), (ratio, 1.0)):
                shift = block_shift(h, 1, s_v, s)
                A = D.T @ D + np.diag(shift)
                r = rng.standard_normal(D.shape[1])
                x = solvers.exact_solve(h, 1, shift)(r)
                err = np.linalg.norm(A @ x - r) / (
                    np.linalg.norm(A, 2) * np.linalg.norm(x) + np.linalg.norm(r))
                assert err <= 1e-14, (ratio, s_v, s, err)

    def test_two_block_none_past_the_cap_or_apart_or_off_block(self, monkeypatch):
        h = fixed_block_levels(True, 40)
        shift = block_shift(h, 1, 0.05, 3.0)
        assert solvers.exact_solve(h, 1, shift) is not None
        for i in (0, 39, 40, 79):  # a shift not constant on each block
            off = shift.copy()
            off[i] *= 1.5
            assert solvers.exact_solve(h, 1, off) is None
        for s_v, apart in ((3e-11, False), (3e11, False), (3e-13, True), (3e13, True),
                           (3e-320, True)):
            assert (solvers.exact_solve(h, 1, block_shift(h, 1, s_v, 3.0)) is None) == apart
        # past the cap in f but not in min(rows, width) = 30
        monkeypatch.setattr(solvers, "BASIS_CAP", 39)
        assert solvers.exact_solve(h, 1, shift) is None
        assert solvers.exact_solve(h, 1, np.full(80, 3.0)) is not None


@pytest.mark.parametrize("make, dual", [
    (lambda: clustered_levels(None)[0], False),
    (primal_and_dual_levels, True),
    (lambda: build_hierarchy(cluster_sparse(np.random.default_rng(11), 20, 12, 6, 6), 6,
                             (5, 15), 3), True),
], ids=["primal", "dual", "two_block"])
def test_two_level_corrects_at_an_exact_level(rng, make, dual):
    # the finest level's cycle with exact_solve's solve of the level below:
    # the smoother plus P A_c^-1 P^T applied to the smoothed residual, with
    # A_c = X_c^T X_c + diag(shift_c) formed densely; the two-block case
    # shifts its fixed columns by 0.02
    h = make()
    L = h.n_levels - 1
    X, X_c = h.matrices[L], h.matrices[L - 1]
    assert h.basis(L - 1)[2] == dual
    shift, shift_c = block_shift(h, L, 0.02, 0.3), block_shift(h, L - 1, 0.02, 0.3)
    M = build_two_level(h, L, shift, solvers.exact_solve(h, L - 1, shift_c), L - 1)
    D_c, P = X_c.to_dense(), h.prolongators[L - 1].to_dense()
    A_c = D_c.T @ D_c + np.diag(shift_c)
    r = rng.standard_normal(X.n_cols)
    z, resid = reference_cg_smooth(reference_gram(X, shift), r, solvers.SMOOTH_STEPS)
    want = z + P @ np.linalg.solve(A_c, P.T @ resid)
    got = M(r)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


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
    return x, r


def reference_two_level(h, level, shift, smooth_steps=2):
    chain = h.prolongators[:level]
    shift0 = shift
    for P in reversed(chain):
        shift0 = restrict_diagonal(P, shift0)
    D0 = h.matrices[0].to_dense()
    factor = cho_factor(D0.T @ D0 + np.diag(shift0))
    apply_fine = reference_gram(h.matrices[level], shift)

    def apply(r):
        # the smoother's own residual, not r - A z
        z, resid = reference_cg_smooth(apply_fine, r, smooth_steps)
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
        # the cycle shares the coarse solve it is given: with the reference's,
        # it and flexible CG give the reference's bits
        coarse_calls = []
        coarse_solve = lambda v: coarse_calls.append(v) or cho_solve(factor, v)
        M = build_two_level(h, level, shift, coarse_solve, 0)
        want = reference_cg(reference_gram(X, shift), b, b, 1e-10, max_iter, ref_precond)
        got = cg_solve(lambda v: gram_apply(X, shift, v), b, b, 1e-10, max_iter, M)
        assert coarse_calls
        assert_same_solve(got, want)
