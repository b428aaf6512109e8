"""Empirical-Bayes ridge reference for the held-out predictions.

The model y = X b + e with b ~ N(0, s_b^2 I) and e ~ N(0, s_e^2 I) gives
y ~ N(0, s_b^2 (K + r I)) with K = X X^T and r = s_e^2 / s_b^2, the
ratio lambda/tau of the samplers' precisions. The reference picks r by
maximising the marginal likelihood (s_b^2 profiled out) and predicts
with the posterior mean, solved in dual form so that only an
n_train x n_train eigendecomposition is needed. Nothing here calls the
package under test.
"""

import numpy as np
import scipy.sparse as sp
from scipy.optimize import minimize_scalar


def csr(inputs):
    return sp.csr_matrix((inputs.vals, (inputs.rows, inputs.cols)), shape=inputs.shape)


def eb_ridge_predict(A_train, y_train, A_test):
    """Held-out posterior-mean predictions and the chosen ratio r."""
    K = (A_train @ A_train.T).toarray()
    s, U = np.linalg.eigh(K)
    s = np.clip(s, 0.0, None)
    z = U.T @ y_train
    n = y_train.size

    def neg_log_evidence(log_r):
        d = s + np.exp(log_r)
        return n * np.log(np.mean(z * z / d)) + np.sum(np.log(d))

    # grid first (the evidence need not be unimodal), then refine
    grid = np.linspace(-12.0, 16.0, 141)
    i = int(np.argmin([neg_log_evidence(g) for g in grid]))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
    log_r = minimize_scalar(neg_log_evidence, bounds=(lo, hi), method="bounded").x
    r = float(np.exp(log_r))
    alpha = U @ (z / (s + r))
    pred = (A_test @ A_train.T) @ alpha
    return np.asarray(pred).ravel(), r


def rmse(pred, truth):
    return float(np.sqrt(np.mean((pred - truth) ** 2)))


def pearson(pred, truth):
    return float(np.corrcoef(pred, truth)[0, 1])
