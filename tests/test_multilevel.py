"""Multilevel samplers, schedules and sample allocation."""

import warnings
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlgibbs import (
    ConfigError,
    EstimatorError,
    MixedModelSpec,
    RandomStream,
    SampleSchedule,
    SolverConfig,
    allocate_cost,
    allocate_variance,
    build_hierarchy,
    build_prolongator,
    coarsen,
    finalize_estimate,
    from_dense,
    make_schedule,
    run_chain,
    run_ml_cs,
    run_ml_gibbs,
    spmv,
)
from mlgibbs.hierarchy import LevelHierarchy
from mlgibbs.multilevel import EstimatorAccumulator, _w_order
from conftest import cluster_sparse, random_sparse


def identity_hierarchy(X, levels=2):
    P = build_prolongator(np.arange(X.n_cols))
    return LevelHierarchy(
        matrices=[X] * levels,
        prolongators=[P] * (levels - 1),
        group_boundaries=[0] * levels,
    )


class TestMakeSchedule:
    def test_consecutive_equal_split(self):
        s = make_schedule("consecutive", 2, 10, 0)
        assert s.visits == [(0, 5), (1, 5)]

    def test_consecutive_remainder_to_coarsest(self):
        s = make_schedule("consecutive", 3, 11, 0)
        assert list(s.totals) == [4, 4, 3]

    def test_vcycle_table_rows(self):
        for kind in ("vcycle:10", "vcycle:100"):
            s = make_schedule(kind, 3, 2200, 200)
            assert list(s.totals) == [500, 1000, 500]
            assert s.burn_in == 200

    def test_vcycle_visit_order(self):
        s = make_schedule("vcycle:10", 3, 70, 0)
        assert [lvl for lvl, _ in s.visits] == [0, 1, 2, 1, 0, 1, 2]

    def test_wcycle_order(self):
        assert _w_order(2) == [0, 1, 2, 1, 0, 1]
        assert _w_order(1) == [0, 1]
        assert _w_order(0) == [0]

    def test_wcycle_table_row(self):
        s = make_schedule("wcycle:10", 3, 2000, 0)
        assert list(s.totals) == [670, 1000, 330]

    def test_schedule_conservation(self):
        for kind in ("consecutive", "vcycle:17", "wcycle:13"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                s = make_schedule(kind, 4, 1234, 100)
            assert sum(int(t) for t in s.totals) == 1234 - 100
            per_level = [0] * 4
            for lvl, cnt in s.visits:
                per_level[lvl] += cnt
            assert per_level == [int(t) for t in s.totals]

    def test_totals_sum_visits(self):
        # the last V-cycle is partial: it stops after a 5-draw chunk
        s = make_schedule("vcycle:10", 3, 75, 0)
        assert s.visits[-2:] == [(2, 10), (1, 5)]
        assert s.totals.tolist() == [20, 35, 20]
        # fewer draws than levels leave the finest level at zero
        s = make_schedule("consecutive", 3, 2, 0)
        assert s.visits == [(0, 1), (1, 1)]
        assert s.totals.tolist() == [1, 1, 0]
        s = SampleSchedule([(2, 5), (0, 3), (2, 4)], 4, burn_in=0)
        assert s.totals.dtype == np.int64
        assert s.totals.tolist() == [3, 0, 9, 0]

    def test_small_chunk_warns(self):
        with pytest.warns(UserWarning, match="chunk size"):
            make_schedule("vcycle:3", 3, 100, 0)

    def test_invalid_kinds(self):
        with pytest.raises(ConfigError):
            make_schedule("zigzag", 3, 100, 0)
        with pytest.raises(ConfigError):
            make_schedule("vcycle:", 3, 100, 0)
        with pytest.raises(ConfigError):
            make_schedule("vcycle:x", 3, 100, 0)
        with pytest.raises(ConfigError):
            make_schedule("vcycle:0", 3, 100, 0)
        with pytest.raises(ConfigError):
            make_schedule("consecutive", 0, 100, 0)
        with pytest.raises(ConfigError):
            make_schedule("consecutive", 3, 100, 100)


class TestAllocation:
    def test_cost_simple(self):
        assert allocate_cost([1, 3], 100) == [75, 25]

    def test_cost_equal(self):
        assert allocate_cost([1, 1, 1], 9) == [3, 3, 3]

    def test_cost_rational(self):
        # exact rational evaluation: weights (1/2, 1/5, 1/9) / (73/90)
        want = [
            int(Fraction(1, c) / (Fraction(1, 2) + Fraction(1, 5) + Fraction(1, 9)) * 1000)
            for c in (2, 5, 9)
        ]
        assert want == [616, 246, 136]
        assert allocate_cost([2, 5, 9], 1000) == want

    def test_variance_simple(self):
        assert allocate_variance([1, 4], [4, 1], 100) == [80, 20]

    def test_variance_symmetry(self):
        assert allocate_variance([2, 2], [3, 3], 100) == [50, 50]

    def test_variance_rational(self):
        assert allocate_variance([1, 4, 16], [9, 4, 1], 1000) == [705, 235, 58]

    def test_variance_errors(self):
        with pytest.raises(ConfigError):
            allocate_variance([1, 2], [0, 0], 100)

    @settings(deadline=None, max_examples=50)
    @given(seed=st.integers(0, 10**6))
    def test_cost_rational_oracle(self, seed):
        rng = np.random.default_rng(seed)
        L = int(rng.integers(1, 6))
        C = [int(c) for c in rng.integers(1, 10**6, L)]
        H = int(rng.integers(1, 10**5))
        inv = [Fraction(1, c) for c in C]
        total = sum(inv)
        want = [int(w / total * H) for w in inv]
        assert allocate_cost(C, H) == want


class TestDegeneracy:
    def test_single_level_bitwise(self, rng):
        X, _ = random_sparse(rng, 30, 12)
        y = rng.standard_normal(30)
        spec = MixedModelSpec(0, 12)
        h = build_hierarchy(X, 0, (5, 20), 1)
        schedule = make_schedule("consecutive", 1, 50, 10)
        ref = run_chain(X, y, spec, 50, 10, SolverConfig(), RandomStream(9))
        acc = run_ml_gibbs(h, y, spec, schedule, SolverConfig(), RandomStream(9))
        assert np.array_equal(acc.level_sums[0], ref.sum_b)
        acc_cs = run_ml_cs(h, y, spec, schedule, SolverConfig(), RandomStream(9))
        assert np.array_equal(acc_cs.level_sums[0], ref.sum_b)


class TestCoupling:
    def test_identity_prolongator_cancellation(self, rng):
        X, dense = random_sparse(rng, 20, 8)
        y = rng.standard_normal(20)
        spec = MixedModelSpec(0, 8)
        h = identity_hierarchy(X)
        schedule = make_schedule("consecutive", 2, 40, 10)
        for coupling in ("solves", "projection"):
            acc = run_ml_cs(
                h, y, spec, schedule, SolverConfig(), RandomStream(3),
                coupling=coupling,
            )
            assert np.all(acc.level_sums[1] == 0.0)

    def test_unknown_coupling(self, rng):
        X, _ = random_sparse(rng, 10, 4)
        h = identity_hierarchy(X)
        schedule = make_schedule("consecutive", 2, 10, 0)
        with pytest.raises(ConfigError):
            run_ml_cs(h, np.zeros(10), MixedModelSpec(0, 4), schedule,
                      SolverConfig(), RandomStream(0), coupling="swap")

    def test_difference_variance_reduced(self, rng):
        # control-variate behavior on a clusterable synthetic problem
        X = cluster_sparse(rng, 60, 12, 5, 8)
        dense = X.to_dense()
        b_true = rng.normal(0, np.sqrt(10.0), X.n_cols)
        y = dense @ b_true + rng.normal(0, np.sqrt(10.0), 60)
        h = build_hierarchy(X, 0, (8, 20), 3)
        from mlgibbs.harness import level_variance_report

        rep = level_variance_report(
            h, y, MixedModelSpec(0, X.n_cols), SolverConfig(),
            RandomStream(17), n_draws=150, burn=30,
            probe_indices=np.arange(10), couplings=("solves",),
        )
        for l in (1, 2):
            frac = np.mean(rep["solves"][l - 1] < rep["levels"][l])
            assert frac >= 0.8


class TestFinalize:
    def test_pooled_single_level(self, rng):
        X, dense = random_sparse(rng, 5, 3)
        h = identity_hierarchy(X, levels=1)
        b = rng.standard_normal(3)
        acc = EstimatorAccumulator(
            mode="pooled", level_sums=[b.copy()],
            counts=np.array([1]),
            cg_iters=np.zeros(1, dtype=np.int64),
            cg_solves=np.ones(1, dtype=np.int64),
        )
        assert np.allclose(finalize_estimate(acc, h, X), dense @ b, atol=1e-14)

    def test_pooled_two_levels_identity(self):
        X = from_dense([[1.0]])
        h = identity_hierarchy(X, levels=2)
        acc = EstimatorAccumulator(
            mode="pooled", level_sums=[np.array([1.0]), np.array([3.0])],
            counts=np.array([1, 1]),
            cg_iters=np.zeros(2, dtype=np.int64),
            cg_solves=np.ones(2, dtype=np.int64),
        )
        assert np.allclose(finalize_estimate(acc, h, X), [2.0])

    def test_zero_kept_raises(self):
        X = from_dense([[1.0]])
        h = identity_hierarchy(X, levels=2)
        for mode, counts in (
            ("pooled", [0, 0]),  # the pooled mean would be 0 / 0
            ("telescoping", [1, 0]),  # the sum would stop short of the finest level
            ("telescoping", [0, 1]),
        ):
            acc = EstimatorAccumulator(
                mode=mode, level_sums=[np.zeros(1), np.zeros(1)],
                counts=np.array(counts),
                cg_iters=np.zeros(2, dtype=np.int64),
                cg_solves=np.ones(2, dtype=np.int64),
            )
            with pytest.raises(EstimatorError):
                finalize_estimate(acc, h, X)

    def test_telescoping_short_schedule_raises(self, rng):
        # a consecutive schedule of 2 kept draws over 3 levels keeps none at
        # the finest level, so its telescoping sum would be a level-1 estimate
        X = cluster_sparse(rng, 60, 12, 6, 6)
        y = rng.standard_normal(60)
        h = build_hierarchy(X, 0, (5, 15), 3)
        assert h.n_levels == 3
        acc = run_ml_cs(h, y, MixedModelSpec(0, X.n_cols),
                        make_schedule("consecutive", 3, 32, 30), SolverConfig(),
                        RandomStream(1))
        assert acc.counts.tolist() == [1, 1, 0]
        with pytest.raises(EstimatorError, match=r"\[2\]"):
            finalize_estimate(acc, h, X)

    def test_telescoping_matches_manual(self, rng):
        X, dense = random_sparse(rng, 6, 4)
        h = identity_hierarchy(X, levels=2)
        coarse = rng.standard_normal(4)
        diff = rng.standard_normal(4)
        acc = EstimatorAccumulator(
            mode="telescoping",
            level_sums=[2 * coarse, 3 * diff],
            counts=np.array([2, 3]),
            cg_iters=np.zeros(2, dtype=np.int64),
            cg_solves=np.ones(2, dtype=np.int64),
        )
        want = dense @ (coarse + diff)
        assert np.allclose(finalize_estimate(acc, h, X), want, atol=1e-12)


class TestMultilevelRuns:
    def test_pooled_counts_match_schedule(self, rng):
        X = cluster_sparse(rng, 40, 8, 5, 6)
        y = rng.standard_normal(40)
        h = build_hierarchy(X, 0, (5, 15), 3)
        schedule = make_schedule("consecutive", h.n_levels, 60, 12)
        acc = run_ml_gibbs(
            h, y, MixedModelSpec(0, X.n_cols), schedule, SolverConfig(),
            RandomStream(1),
        )
        assert np.array_equal(acc.counts, schedule.totals)
        assert acc.cg_solves.sum() == 60

    def test_vcycle_run_and_determinism(self, rng):
        X = cluster_sparse(rng, 40, 8, 5, 6)
        y = rng.standard_normal(40)
        h = build_hierarchy(X, 0, (5, 15), 3)
        schedule = make_schedule("vcycle:10", h.n_levels, 100, 20)
        spec = MixedModelSpec(0, X.n_cols)
        a = run_ml_gibbs(h, y, spec, schedule, SolverConfig(), RandomStream(2))
        b = run_ml_gibbs(h, y, spec, schedule, SolverConfig(), RandomStream(2))
        for sa, sb in zip(a.level_sums, b.level_sums):
            assert np.array_equal(sa, sb)

    def test_preconditioned_same_estimate_family(self, rng):
        X = cluster_sparse(rng, 40, 8, 5, 6, jitter=0.01)
        dense = X.to_dense()
        y = dense @ rng.normal(0, 3.0, X.n_cols) + rng.normal(0, 1.0, 40)
        h = build_hierarchy(X, 0, (5, 15), 2)
        spec = MixedModelSpec(0, X.n_cols)
        schedule = make_schedule("consecutive", 2, 60, 10)
        plain = run_ml_gibbs(h, y, spec, schedule, SolverConfig(),
                             RandomStream(5))
        pre = run_ml_gibbs(h, y, spec, schedule, SolverConfig(),
                           RandomStream(5), preconditioned=True)
        est_plain = finalize_estimate(plain, h, X)
        est_pre = finalize_estimate(pre, h, X)
        # same chain up to solver rounding at tol 1e-8
        scale = np.linalg.norm(est_plain)
        assert np.linalg.norm(est_plain - est_pre) < 1e-3 * scale

    def test_cg_accounting_matches_solves(self, rng, monkeypatch):
        # every CG solve of the chain, coupled level l-1 solves included, is
        # counted once at the level whose width its system has; a burn-in
        # draw, which the chain discards, makes no coupled solve
        import mlgibbs.gibbs as gibbs_mod

        seen = []
        real = gibbs_mod.cg_solve

        def recording(apply_A, rhs, **kwargs):
            x, report = real(apply_A, rhs, **kwargs)
            seen.append((np.asarray(rhs).size, report.iterations))
            return x, report

        monkeypatch.setattr(gibbs_mod, "cg_solve", recording)
        X = cluster_sparse(rng, 60, 12, 6, 6)
        y = rng.standard_normal(60)
        h = build_hierarchy(X, 0, (5, 15), 3)
        assert h.n_levels == 3 and len(set(h.widths())) == 3
        for kind, H in (("consecutive", 60), ("vcycle:10", 100)):
            seen.clear()
            schedule = make_schedule(kind, h.n_levels, H, 12)
            acc = run_ml_cs(
                h, y, MixedModelSpec(0, X.n_cols), schedule, SolverConfig(),
                RandomStream(3), coupling="solves",
            )
            for l, width in enumerate(h.widths()):
                at_width = [it for w, it in seen if w == width]
                assert acc.cg_solves[l] == len(at_width)
                assert acc.cg_iters[l] == sum(at_width)
            assert acc.cg_solves.sum() == len(seen)
            # one solve per draw, one coupled solve per kept draw above level 0
            assert len(seen) == H + acc.counts[1:].sum()
            assert acc.counts.sum() == H - 12

    def test_unconverged_solves_counted(self, rng):
        X = cluster_sparse(rng, 60, 12, 6, 6)
        y = rng.standard_normal(60)
        h = build_hierarchy(X, 0, (5, 15), 3)
        spec = MixedModelSpec(0, X.n_cols)
        schedule = make_schedule("vcycle:10", h.n_levels, 100, 12)
        for coupling in ("solves", "projection"):
            # one CG iteration converges no solve of these systems
            acc = run_ml_cs(h, y, spec, schedule, SolverConfig(max_iter=1),
                            RandomStream(3), coupling=coupling)
            assert acc.cg_unconverged.tolist() == acc.cg_solves.tolist()
            acc = run_ml_cs(h, y, spec, schedule, SolverConfig(), RandomStream(3),
                            coupling=coupling)
            assert acc.cg_unconverged.tolist() == [0, 0, 0]
            assert acc.cg_solves.min() > 0


class TestPreconditionedChain:
    @pytest.fixture()
    def mixed(self, rng):
        X = cluster_sparse(rng, 60, 12, 6, 6)
        y = rng.standard_normal(60)
        h = build_hierarchy(X, 6, (5, 15), 3)
        assert h.n_levels == 3 and min(h.group_boundaries) > 0
        return h, y, MixedModelSpec(6, X.n_cols - 6)

    @pytest.fixture()
    def one_block(self):
        X = cluster_sparse(np.random.default_rng(11), 60, 12, 6, 6)
        y = np.random.default_rng(12).standard_normal(60) * 3
        h = build_hierarchy(X, 0, (5, 15), 3)
        assert h.widths() == [12, 23, 72]
        return h, y, MixedModelSpec(0, X.n_cols)

    @pytest.mark.parametrize("problem", ["one_block", "mixed"])
    def test_one_block_one_eigh_per_hierarchy(self, problem, request, monkeypatch):
        # a two-block model shares the basis too, with a correction per draw
        from mlgibbs import solvers

        h, y, spec = request.getfixturevalue(problem)
        calls = []
        real = np.linalg.eigh

        def counting(G):
            calls.append(G.shape)
            return real(G)

        def no_factor(G):
            raise AssertionError("a one-valued shift factors a fixed-block correction")

        monkeypatch.setattr(np.linalg, "eigh", counting)
        if problem == "one_block":
            monkeypatch.setattr(solvers, "cho_factor", no_factor)
        schedule = make_schedule("vcycle:10", 3, 100, 20)
        for fresh in (h, h, LevelHierarchy(h.matrices, h.prolongators, h.group_boundaries)):
            acc = run_ml_cs(fresh, y, spec, schedule, SolverConfig(), RandomStream(3),
                            coupling="solves", preconditioned=True)
            assert acc.cg_solves.sum() > 100
        # one basis for each level below the finest, shared by the runs on h
        # and formed again for the fresh hierarchy
        assert calls == [(min(X.shape),) * 2 for X in h.matrices[:-1]] * 2

    @pytest.fixture()
    def two_level_levels(self, monkeypatch):
        """(level, coarse_level) of each cycle build_two_level builds, in
        call order."""
        from mlgibbs import multilevel

        levels, real = [], multilevel.build_two_level

        def counting(*args):
            M = real(*args)
            levels.append((M.level, M.coarse_level))
            return M

        monkeypatch.setattr(multilevel, "build_two_level", counting)
        return levels

    @pytest.mark.parametrize("problem, sampler", [
        ("one_block", run_ml_gibbs),
        ("one_block", partial(run_ml_cs, coupling="solves")),
        ("mixed", run_ml_gibbs),
        ("mixed", partial(run_ml_cs, coupling="solves")),
    ], ids=["ml_gibbs", "ml_cs_solves", "mixed-ml_gibbs", "mixed-ml_cs_solves"])
    def test_one_block_exact_below_the_finest(self, problem, request, two_level_levels,
                                              sampler):
        # every level below the finest is solved exactly, in one CG
        # iteration, in one-block and two-block models alike; only the
        # finest takes the two-level cycle, which corrects at the level
        # below it
        h, y, spec = request.getfixturevalue(problem)
        L = h.n_levels - 1
        acc = sampler(h, y, spec, make_schedule("vcycle:10", 3, 100, 20), SolverConfig(),
                      RandomStream(23), preconditioned=True)
        assert acc.cg_solves[:L].min() > 0
        assert acc.cg_iters[:L].tolist() == acc.cg_solves[:L].tolist()
        assert set(two_level_levels) == {(L, L - 1)}
        assert len(two_level_levels) == acc.cg_solves[L]

    def test_one_block_past_basis_cap_takes_the_cycle(self, one_block, two_level_levels,
                                                      monkeypatch):
        # a level whose basis dimension is past BASIS_CAP takes the two-level
        # cycle again, and still meets the preconditioned-vs-plain oracle;
        # with no exact solve at level 1, level 2's cycle corrects at level 0
        from mlgibbs import solvers

        h, y, spec = one_block
        monkeypatch.setattr(solvers, "BASIS_CAP", min(h.matrices[1].shape) - 1)
        schedule = make_schedule("vcycle:10", 3, 100, 20)
        plain, pre = (
            run_ml_cs(h, y, spec, schedule, SolverConfig(), RandomStream(23),
                      coupling="solves", preconditioned=flag)
            for flag in (False, True)
        )
        assert set(two_level_levels) == {(1, 0), (2, 0)}
        assert len(two_level_levels) == pre.cg_solves[1:].sum()
        assert pre.cg_iters[0] == pre.cg_solves[0]
        assert pre.cg_solves.tolist() == plain.cg_solves.tolist()
        gaps = [np.linalg.norm(a - b) / np.linalg.norm(b)
                for a, b in zip(pre.level_sums, plain.level_sums)]
        assert max(gaps) <= 1e-6, gaps

    @pytest.mark.parametrize("sampler, seed", [
        (run_ml_gibbs, 22),
        (partial(run_ml_cs, coupling="solves"), 23),
        (partial(run_ml_cs, coupling="projection"), 23),
    ], ids=["ml_gibbs", "ml_cs_solves", "ml_cs_projection"])
    def test_one_block_preconditioned_matches_plain(self, one_block, sampler, seed):
        # the oracle of test_preconditioned_matches_plain, on the eigenbasis
        # coarse solves of a model with no fixed effects
        h, y, spec = one_block
        schedule = make_schedule("vcycle:10", 3, 100, 20)
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

    def test_coarse_shift_is_restricted_shift(self, mixed):
        from mlgibbs.gibbs import assemble_lambda
        from mlgibbs.hierarchy import restrict_diagonal

        h, _, spec = mixed
        tau, lam_v, lam_u = 0.37, 2.9, 0.011
        specs = [spec.at_width(gb, w - gb) for gb, w in zip(h.group_boundaries, h.widths())]
        shift0 = assemble_lambda(specs[0], lam_v, lam_u) / tau
        for level in (1, 2):
            restricted = assemble_lambda(specs[level], lam_v, lam_u) / tau
            for P in reversed(h.prolongators[:level]):
                restricted = restrict_diagonal(P, restricted)
            np.testing.assert_allclose(shift0, restricted, rtol=1e-14, atol=0)

    def test_one_level_unchanged(self, rng, monkeypatch):
        from mlgibbs import solvers

        X = cluster_sparse(rng, 40, 8, 5, 6)
        y = rng.standard_normal(40)
        h = build_hierarchy(X, 0, (5, 15), 1)
        spec = MixedModelSpec(0, X.n_cols)
        schedule = make_schedule("consecutive", 1, 50, 10)
        plain = run_ml_gibbs(h, y, spec, schedule, SolverConfig(), RandomStream(8))

        def no_factor(G):
            raise AssertionError("a one-level chain factors its Gram matrix")

        monkeypatch.setattr(solvers, "cho_factor", no_factor)
        for run in (run_ml_gibbs, run_ml_cs):
            pre = run(h, y, spec, schedule, SolverConfig(), RandomStream(8),
                      preconditioned=True)
            assert np.array_equal(pre.level_sums[0], plain.level_sums[0])
            assert pre.cg_iters.tolist() == plain.cg_iters.tolist()

    def test_coarsest_level_converges(self, mixed):
        # three CG iterations leave some plain level-0 solves unconverged; the
        # exact coarse solve converges each in one
        h, y, spec = mixed
        schedule = make_schedule("vcycle:10", 3, 100, 20)
        plain, pre = (
            run_ml_cs(h, y, spec, schedule, SolverConfig(max_iter=3), RandomStream(3),
                      coupling="solves", preconditioned=flag)
            for flag in (False, True)
        )
        assert plain.cg_unconverged[0] > 0
        assert pre.cg_unconverged[0] == 0
        assert pre.cg_iters[0] == pre.cg_solves[0]
