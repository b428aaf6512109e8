"""Single-level noise-injection Gibbs sampler."""

import numpy as np
import pytest

from mlgibbs import (
    ChainResult,
    ConfigError,
    EstimatorError,
    GibbsState,
    MixedModelSpec,
    RandomStream,
    SolverConfig,
    assemble_lambda,
    draw_coefficient,
    from_dense,
    predict_mean,
    row_subset,
    run_chain,
    sample_hyperparams,
    spmv,
)
from mlgibbs.gibbs import init_hyperparams, solve_noise_system
from conftest import random_sparse


class TestAssembleLambda:
    def test_mixed(self):
        spec = MixedModelSpec(2, 3)
        assert np.array_equal(assemble_lambda(spec, 2.0, 5.0), [2, 2, 5, 5, 5])

    def test_pure_random(self):
        spec = MixedModelSpec(0, 2)
        assert np.array_equal(assemble_lambda(spec, 9.0, 7.0), [7, 7])

    def test_pure_fixed(self):
        spec = MixedModelSpec(1, 0)
        assert np.array_equal(assemble_lambda(spec, 3.0, 9.0), [3])


class TestSampleHyperparams:
    def test_shape_rate_plumbing(self, rng):
        """The three gamma updates must use exactly the conjugate shape and
        rate; verified by replaying the same stream with hand-computed
        parameters."""
        X, dense = random_sparse(rng, 6, 5)
        y = rng.standard_normal(6)
        b = rng.standard_normal(5)
        spec = MixedModelSpec(2, 3, alpha_e=1.5, beta_e=0.7, alpha_v=2.0,
                              beta_v=0.1, alpha_u=1.0, beta_u=1e-3)
        state = GibbsState(b=b, tau=1.0, lam_v=1.0, lam_u=1.0)
        got = sample_hyperparams(state, X, y, spec, RandomStream(99))
        resid = y - dense @ b
        ref = RandomStream(99)
        want = (
            ref.gamma_sample(1.5 + 3.0, 0.7 + 0.5 * float(resid @ resid)),
            ref.gamma_sample(2.0 + 1.0, 0.1 + 0.5 * float(b[:2] @ b[:2])),
            ref.gamma_sample(1.0 + 1.5, 1e-3 + 0.5 * float(b[2:] @ b[2:])),
        )
        assert got == want

    def test_posterior_mean_zero_residual(self):
        # b = 0, y = 0, N = 4: tau ~ Gamma(1 + 2, 1), mean 3
        X = from_dense(np.eye(4))
        spec = MixedModelSpec(0, 4)
        state = GibbsState(b=np.zeros(4), tau=1.0, lam_v=1.0, lam_u=1.0)
        s = RandomStream(11)
        draws = np.array(
            [sample_hyperparams(state, X, np.zeros(4), spec, s)[0]
             for _ in range(20000)]
        )
        assert draws.mean() == pytest.approx(3.0, rel=0.05)

    def test_empty_block_uses_prior(self):
        # F = 0: lam_v resampled from Gamma(alpha_v, beta_v)
        X = from_dense(np.eye(3))
        spec = MixedModelSpec(0, 3, alpha_v=2.0, beta_v=4.0)
        state = GibbsState(b=np.ones(3), tau=1.0, lam_v=1.0, lam_u=1.0)
        s = RandomStream(12)
        draws = np.array(
            [sample_hyperparams(state, X, np.zeros(3), spec, s)[1]
             for _ in range(20000)]
        )
        assert draws.mean() == pytest.approx(0.5, rel=0.05)

    def test_positivity(self, rng):
        X, _ = random_sparse(rng, 5, 4)
        spec = MixedModelSpec(2, 2)
        state = GibbsState(
            b=rng.standard_normal(4), tau=1.0, lam_v=1.0, lam_u=1.0
        )
        s = RandomStream(0)
        for _ in range(50):
            tau, lam_v, lam_u = sample_hyperparams(
                state, X, rng.standard_normal(5), spec, s
            )
            assert tau > 0 and lam_v > 0 and lam_u > 0


class TestDrawCoefficient:
    def test_hand_solve(self):
        # noise-free draw: (1 + 1) b = 2
        X = from_dense([[1.0]])
        b, report = solve_noise_system(
            X, np.array([2.0]), 1.0, np.ones(1), np.zeros(1), np.zeros(1),
            SolverConfig(),
        )
        assert np.allclose(b, [1.0], atol=1e-10)

    def test_ridge_oracle(self, rng):
        X, dense = random_sparse(rng, 12, 6)
        y = rng.standard_normal(12)
        tau, lam_v, lam_u = 2.0, 0.7, 1.3
        spec = MixedModelSpec(2, 4)
        lam = assemble_lambda(spec, lam_v, lam_u)
        b, _ = solve_noise_system(
            X, y, tau, lam, np.zeros(12), np.zeros(6), SolverConfig(tol=1e-12)
        )
        want = np.linalg.solve(
            dense.T @ dense + np.diag(lam / tau), dense.T @ y
        )
        assert np.allclose(b, want, atol=1e-8)

    def test_posterior_moments(self, rng):
        # fixed hyperparameters: draws are Gaussian with the ridge mean and
        # covariance inv(X^T X + Lam/tau)/tau
        X, dense = random_sparse(rng, 20, 4, density=0.6)
        y = rng.standard_normal(20)
        tau = 2.0
        spec = MixedModelSpec(0, 4)
        state = GibbsState(b=None, tau=tau, lam_v=1.0, lam_u=2.0)
        cfg = SolverConfig(tol=1e-12)
        s = RandomStream(123)
        draws = np.array(
            [draw_coefficient(X, y, state, spec, cfg, s)[0]
             for _ in range(8000)]
        )
        A = dense.T @ dense + np.diag(np.full(4, 2.0 / tau))
        mean = np.linalg.solve(A, dense.T @ y)
        cov = np.linalg.inv(A) / tau
        assert np.abs(draws.mean(axis=0) - mean).max() < 0.05
        emp_cov = np.cov(draws.T)
        assert np.linalg.norm(emp_cov - cov) < 0.1 * np.linalg.norm(cov)


class TestRunChain:
    def test_single_sample(self, rng):
        X, _ = random_sparse(rng, 5, 3)
        y = rng.standard_normal(5)
        res = run_chain(X, y, MixedModelSpec(0, 3), 1, 0, None, RandomStream(1))
        assert res.kept_count == 1
        assert res.n_solves == 1

    def test_kept_count_and_trace(self, rng):
        X, _ = random_sparse(rng, 6, 4)
        y = rng.standard_normal(6)
        res = run_chain(
            X, y, MixedModelSpec(1, 3), 30, 10, None, RandomStream(2),
            trace=True,
        )
        assert res.kept_count == 20
        assert len(res.trace) == 30
        for tau, lam_v, lam_u in res.trace:
            assert tau > 0 and lam_v > 0 and lam_u > 0

    def test_determinism(self, rng):
        X, _ = random_sparse(rng, 8, 5)
        y = rng.standard_normal(8)
        spec = MixedModelSpec(0, 5)
        a = run_chain(X, y, spec, 25, 5, None, RandomStream(7))
        b = run_chain(X, y, spec, 25, 5, None, RandomStream(7))
        assert np.array_equal(a.sum_b, b.sum_b)
        assert a.total_cg_iters == b.total_cg_iters

    def test_noise_suppressed_fixed_point(self, rng):
        X, dense = random_sparse(rng, 10, 4, density=0.6)
        y = rng.standard_normal(10)
        spec = MixedModelSpec(0, 4)
        cfg = SolverConfig(tol=1e-12)
        # with zero noise each draw is the ridge solution at the current
        # hyperparameters; fix them and redraw from the first draw
        tau, lam = 3.0, assemble_lambda(spec, 1.0, 0.5)
        e1, e2 = np.zeros(10), np.zeros(4)
        b1, _ = solve_noise_system(X, y, tau, lam, e1, e2, cfg)
        b2, _ = solve_noise_system(X, y, tau, lam, e1, e2, cfg, x0=b1)
        assert np.allclose(b1, b2, atol=1e-9)

    def test_invalid_lengths(self, rng):
        X, _ = random_sparse(rng, 4, 3)
        with pytest.raises(ConfigError):
            run_chain(X, np.zeros(4), MixedModelSpec(0, 3), 5, 5, None,
                      RandomStream(0))

    def test_heldout_accuracy(self, rng):
        # synthetic protocol at small scale: posterior-mean predictions
        # track the noiseless truth on held-out rows
        dense = rng.standard_normal((200, 20))
        X = from_dense(dense)
        b_true = rng.normal(0.0, np.sqrt(10.0), 20)
        y = dense @ b_true + rng.normal(0.0, np.sqrt(100.0), 200)
        train = np.arange(160)
        test = np.arange(160, 200)
        res = run_chain(
            row_subset(X, train), y[train], MixedModelSpec(0, 20),
            2200, 200, None, RandomStream(3),
        )
        pred = predict_mean(res, row_subset(X, test))
        truth = dense[test] @ b_true
        rho = np.corrcoef(pred, truth)[0, 1]
        assert rho > 0.9


class TestPredictMean:
    def test_single_sample(self):
        res = ChainResult(sum_b=np.array([2.0]), kept_count=1)
        X_eval = from_dense([[2.0]])
        assert np.array_equal(predict_mean(res, X_eval), [4.0])

    def test_average_then_multiply(self):
        res = ChainResult(sum_b=np.array([4.0]), kept_count=2)  # b = [1], [3]
        X_eval = from_dense([[2.0]])
        assert np.array_equal(predict_mean(res, X_eval), [4.0])

    def test_linearity(self, rng):
        X_eval, dense = random_sparse(rng, 6, 4)
        samples = rng.standard_normal((10, 4))
        res = ChainResult(sum_b=samples.sum(axis=0), kept_count=10)
        per_sample = np.mean([dense @ s for s in samples], axis=0)
        assert np.allclose(predict_mean(res, X_eval), per_sample, atol=1e-12)

    def test_no_samples(self):
        res = ChainResult(sum_b=np.zeros(2), kept_count=0)
        with pytest.raises(EstimatorError):
            predict_mean(res, from_dense(np.eye(2)))


def test_init_hyperparams_prior_moments():
    spec = MixedModelSpec(0, 3, alpha_e=2.0, beta_e=4.0)
    s = RandomStream(21)
    taus = np.array([init_hyperparams(spec, s)[0] for _ in range(20000)])
    assert taus.mean() == pytest.approx(0.5, rel=0.05)
