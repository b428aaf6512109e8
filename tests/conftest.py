"""Shared fixtures and synthetic data generators for the test suite."""

import numpy as np
import pytest

from mlgibbs import from_triplets


def random_sparse(rng, n_rows, n_cols, density=0.3):
    """Random sparse matrix together with its dense counterpart."""
    dense = rng.standard_normal((n_rows, n_cols))
    dense[rng.random((n_rows, n_cols)) > density] = 0.0
    entries = [
        (int(r), int(c), float(dense[r, c])) for r, c in zip(*np.nonzero(dense))
    ]
    return from_triplets(n_rows, n_cols, entries), dense


def cluster_sparse(rng, n_rows, n_clusters, per_cluster, nnz_per_col,
                   jitter=0.05, amp=1.0):
    """Sparse matrix whose columns form groups of near-collinear vectors.

    Each cluster owns a random row pattern; its columns are scaled copies
    of the same values with a small perturbation. This is the regime the
    multilevel hierarchy is designed for: clustering recovers the groups
    and the coarse matrices keep most of the signal.
    """
    entries = []
    f = 0
    for _ in range(n_clusters):
        pattern = rng.choice(n_rows, nnz_per_col, replace=False)
        vals = rng.standard_normal(nnz_per_col) * amp
        for _ in range(per_cluster):
            scale = rng.uniform(0.5, 1.5)
            col = vals * scale + jitter * amp * rng.standard_normal(nnz_per_col)
            for r, x in zip(pattern, col):
                entries.append((int(r), f, float(x)))
            f += 1
    return from_triplets(n_rows, f, entries)


def level_totals(plan, n_levels):
    """Per-level kept draws of a (level, count, keep) visit plan."""
    totals = [0] * n_levels
    for lvl, cnt, keep in plan:
        totals[lvl] += cnt if keep else 0
    return totals


@pytest.fixture
def two_level_levels(monkeypatch):
    """(level, coarse_level) of each cycle build_two_level builds, in call
    order."""
    from mlgibbs import solvers

    levels, real = [], solvers.build_two_level

    def counting(hierarchy, level, shift, coarse_solve, coarse_level):
        levels.append((level, coarse_level))
        return real(hierarchy, level, shift, coarse_solve, coarse_level)

    monkeypatch.setattr(solvers, "build_two_level", counting)
    return levels


@pytest.fixture
def rng():
    return np.random.default_rng(7)


# one pass/fail line per acceptance criterion, printed after the run
ACCEPTANCE_RESULTS = {}


def record_criterion(number, description, passed):
    ACCEPTANCE_RESULTS[number] = (description, passed)


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_RESULTS):
        description, passed = ACCEPTANCE_RESULTS[number]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(
            f"CRITERION {number:2d}: {verdict} - {description}"
        )
