"""Pinned outputs of every sampler entry point and of the hierarchy build,
for fixed seeds.

Each array is summarised by its squared norm and its index-weighted sum.
The figures are fixed for these seeds, so a change to the RNG call order
or to which draws a chain keeps shows here first.
"""

from functools import partial

import numpy as np
import pytest

from mlgibbs import (
    MixedModelSpec,
    RandomStream,
    SolverConfig,
    build_hierarchy,
    make_schedule,
    row_subset,
    run_chain,
    run_ml_cs,
    run_ml_gibbs,
)
from mlgibbs.harness import level_variance_report
from mlgibbs.multilevel import estimate_level_variances
from conftest import cluster_sparse

RTOL = 1e-12


def summary(v):
    v = np.asarray(v, dtype=np.float64).ravel()
    return (float(v @ v), float(v @ np.arange(1, v.size + 1)))


def assert_pinned(got, want):
    np.testing.assert_allclose(np.asarray(got), np.asarray(want), rtol=RTOL, atol=0)


@pytest.fixture(scope="module")
def problem():
    """A three-level mixed model: 72 columns, 6 of them fixed effects."""
    X = cluster_sparse(np.random.default_rng(11), 60, 12, 6, 6)
    y = np.random.default_rng(12).standard_normal(60) * 3
    spec = MixedModelSpec(6, X.n_cols - 6)
    h = build_hierarchy(X, 6, (5, 15), 3)
    assert h.widths() == [12, 23, 72]
    return X, y, spec, h


@pytest.mark.parametrize("n_fixed, widths, boundaries, assignments", [
    (0, [202, 684, 2000], [0, 0, 0],
     [(9749201.0, 32270473.0), (312559343.0, 912970561.0)]),
    # a boundary inside a group of near-collinear columns
    (37, [203, 686, 2000], [2, 10, 37],
     [(9891133.0, 32647332.0), (315296216.0, 916971350.0)]),
])
def test_build_hierarchy(n_fixed, widths, boundaries, assignments):
    # the benchmarks' fold shape: 333 rows of the acceptance matrix, where
    # most columns of a leader-follower pass join their first near column
    X = cluster_sparse(np.random.default_rng(0), 500, 100, 20, 5, amp=10)
    h = build_hierarchy(row_subset(X, np.arange(333)), n_fixed, (150, 350), 3)
    assert h.widths() == widths
    assert h.group_boundaries == boundaries
    assert [summary(P.assignment) for P in h.prolongators] == assignments


def test_run_chain(problem):
    X, y, spec, _ = problem
    res = run_chain(X, y, spec, 40, 10, SolverConfig(), RandomStream(21), trace=True)
    assert (res.kept_count, res.n_solves, res.total_cg_iters) == (30, 40, 242)
    assert_pinned(summary(res.sum_b), (1.5129689151759063, -82.06106098756952))
    assert len(res.trace) == 40
    assert_pinned(summary(res.trace), (525269230.0548663, 8639895.223712383))


@pytest.mark.parametrize("preconditioned, sums, cg_iters", [
    (False,
     [(0.24434721767724274, -3.028952621750353),
      (0.8030471792086493, -6.485588905480058),
      (0.8185604886142706, 5.210899642523304)],
     [195, 221, 108]),
    (True,
     [(0.24434721787848482, -3.028952616794933),
      (0.8030471784635903, -6.485589039181629),
      (0.8185604971772923, 5.210899756260655)],
     [40, 40, 61]),
])
def test_run_ml_gibbs(problem, preconditioned, sums, cg_iters):
    _, y, spec, h = problem
    schedule = make_schedule("vcycle:10", 3, 100, 20)
    acc = run_ml_gibbs(h, y, spec, schedule, SolverConfig(), RandomStream(22),
                       preconditioned=preconditioned)
    assert acc.counts.tolist() == [20, 40, 20]
    assert acc.cg_solves.tolist() == [40, 40, 20]
    assert acc.cg_iters.tolist() == cg_iters
    assert_pinned([summary(v) for v in acc.level_sums], sums)


@pytest.mark.parametrize("coupling, sums, counts", [
    ("solves",
     [(1.3794728796009639, -2.1869024150618994),
      (3.4394565204193426, 0.2962624216568766),
      (2.5018403052990896, -1.706791245492437)],
     [20, 40, 20]),
    ("projection",
     [(1.3794728796009639, -2.1869024150618994),
      (3.429261742115866, 0.43719847354679964),
      (2.501773326992814, -1.6693513794539783)],
     [20, 40, 20]),
])
def test_run_ml_cs(problem, coupling, sums, counts):
    _, y, spec, h = problem
    schedule = make_schedule("vcycle:10", 3, 100, 20)
    acc = run_ml_cs(h, y, spec, schedule, SolverConfig(), RandomStream(23),
                    coupling=coupling)
    assert acc.counts.tolist() == counts
    assert_pinned([summary(v) for v in acc.level_sums], sums)


@pytest.mark.parametrize("coupling, sums, cg_solves, cg_iters", [
    ("solves",
     [(1.3794728832217316, -2.186902469972485),
      (3.439456463475438, 0.2962623883145089),
      (2.501840264643031, -1.7067913930454952)],
     [80, 60, 20], [80, 60, 66]),
    ("projection",
     [(1.3794728832217316, -2.186902469972485),
      (3.4292616854355225, 0.43719845760383746),
      (2.50177328638103, -1.6693513538780338)],
     [40, 40, 20], [40, 40, 66]),
])
def test_run_ml_cs_preconditioned(problem, coupling, sums, cg_solves, cg_iters):
    _, y, spec, h = problem
    schedule = make_schedule("vcycle:10", 3, 100, 20)
    acc = run_ml_cs(h, y, spec, schedule, SolverConfig(), RandomStream(23),
                    coupling=coupling, preconditioned=True)
    assert acc.counts.tolist() == [20, 40, 20]
    assert acc.cg_solves.tolist() == cg_solves
    assert acc.cg_iters.tolist() == cg_iters
    assert_pinned([summary(v) for v in acc.level_sums], sums)


def test_run_ml_gibbs_mixed_wcycle(problem):
    # fixed columns on every level, so each level's shift takes two values
    _, y, spec, h = problem
    assert spec.n_fixed > 0 and min(h.group_boundaries) > 0
    schedule = make_schedule("wcycle:10", 3, 100, 20)
    acc = run_ml_gibbs(h, y, spec, schedule, SolverConfig(), RandomStream(26),
                       preconditioned=True)
    assert acc.counts.tolist() == [30, 40, 10]
    assert acc.cg_solves.tolist() == [50, 40, 10]
    assert acc.cg_iters.tolist() == [50, 40, 25]
    assert_pinned([summary(v) for v in acc.level_sums],
                  [(5.360138825503109, -24.820573795879888),
                   (0.9511808681148181, -17.091942938090405),
                   (0.27669405475487435, 25.468253599976453)])


@pytest.mark.parametrize("sampler, kind, seed", [
    (run_ml_gibbs, "vcycle:10", 22),
    (partial(run_ml_cs, coupling="solves"), "vcycle:10", 23),
    (partial(run_ml_cs, coupling="projection"), "vcycle:10", 23),
    (run_ml_gibbs, "wcycle:10", 26),
], ids=["ml_gibbs", "ml_cs_solves", "ml_cs_projection", "ml_gibbs_mixed_wcycle"])
def test_preconditioned_matches_plain(problem, sampler, kind, seed):
    # the oracle behind the preconditioned pins: both chains target the same
    # conditional, so their level sums differ by solver rounding only
    _, y, spec, h = problem
    schedule = make_schedule(kind, 3, 100, 20)
    plain, pre = (
        sampler(h, y, spec, schedule, SolverConfig(), RandomStream(seed),
                preconditioned=flag)
        for flag in (False, True)
    )
    assert pre.counts.tolist() == plain.counts.tolist()
    assert pre.cg_solves.tolist() == plain.cg_solves.tolist()
    gaps = [np.linalg.norm(a - b) / np.linalg.norm(b)
            for a, b in zip(pre.level_sums, plain.level_sums)]
    assert max(gaps) <= 1e-6, gaps


def test_estimate_level_variances(problem):
    _, y, spec, h = problem
    s2 = estimate_level_variances(h, y, spec, SolverConfig(), RandomStream(24), pilot=15)
    assert_pinned(s2, [5.437029164413224e-05, 2.374307257943247e-05,
                       0.00010737409405470733])


LEVELS = [(0.0002752562824786397, 0.08030262808532576),
          (0.00019796658842726562, 0.0729585715279009),
          (2.630224038017491e-06, 0.00788937905003815)]
DIFFS = {
    "solves": [(8.242236772503646e-08, 0.0014881690209381142),
               (5.589595311468488e-08, 0.0007395534486749329)],
    "projection": [(8.352390103740762e-08, 0.0014995003032674695),
                   (5.6614996961563574e-08, 0.0007426280238880238)],
}


@pytest.mark.parametrize("couplings", [
    ("solves",), ("projection",), ("solves", "projection"),
])
def test_level_variance_report(problem, couplings):
    _, y, spec, h = problem
    rep = level_variance_report(
        h, y, spec, SolverConfig(), RandomStream(25), n_draws=20, burn=5,
        probe_indices=np.arange(6), couplings=couplings,
    )
    assert_pinned([summary(v) for v in rep["levels"]], LEVELS)
    for c in couplings:
        assert_pinned([summary(v) for v in rep[c]], DIFFS[c])
