"""Ingestion, cross-validation, metrics, experiment orchestration and CLI."""

import json
import os
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlgibbs import (
    ConfigError,
    HierarchyError,
    MixedModelSpec,
    MlgibbsError,
    ParseError,
    RandomStream,
    SolverConfig,
    from_dense,
    from_triplets,
    spmv,
)
from mlgibbs import harness
from mlgibbs.cli import main
from mlgibbs.gibbs import PRIOR_FIELDS
from mlgibbs.harness import (
    ExperimentConfig,
    kfold_split,
    level_variance_csv,
    level_variance_report,
    load_matrix,
    load_targets,
    metrics,
    run_experiment,
    save_matrix_market,
    synthesize_targets,
)
from conftest import cluster_sparse, random_sparse


# small valid inputs of each reader: file name and content
VALID_INPUTS = {
    "matrix_market": ("a.mtx", "%%MatrixMarket matrix coordinate real general\n"
                               "% c\n3 4 3\n1 1 1.5\n2 3 -2.0\n3 4 0.25\n"),
    "dense_csv": ("a.csv", "1,0,2\n0,3.5,0\n"),
    "targets": ("y.csv", "1.0\n2.5\n-3.0\n"),
}
NUMBER = re.compile(r"[-+]?\d[\d.e+-]*")


@st.composite
def corrupted_input(draw):
    """(kind, bytes) of a valid input with random corruption: numbers
    replaced by others (in range, at most 10^4, or past int64), signs,
    non-numbers, lines dropped or repeated, a cut and non-UTF-8 bytes."""
    kind = draw(st.sampled_from(sorted(VALID_INPUTS)))
    text = VALID_INPUTS[kind][1]
    number = (st.integers(-10**4, 10**4).map(str)
              | st.tuples(st.sampled_from(["", "-"]), st.integers(2**63, 2**80)).map(
                  lambda t: t[0] + str(t[1]))
              | st.sampled_from(["-0", "+3", "1.5", "1e3", "1e400", "nan", "-inf", "x", ""]))
    for _ in range(draw(st.integers(0, 3))):
        spans = [m.span() for m in NUMBER.finditer(text)]
        if spans:
            lo, hi = draw(st.sampled_from(spans))
            text = text[:lo] + draw(number) + text[hi:]
    lines = text.split("\n")
    if draw(st.booleans()):
        i = draw(st.integers(0, len(lines) - 1))
        lines[i:i + 1] = draw(st.sampled_from([[], [lines[i]] * 2]))
    data = "\n".join(lines).encode()
    data = data[:draw(st.integers(len(data) // 2, len(data)))]
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        bad = draw(st.sampled_from([b"\xff", b"\x80\x80", b"\xc3\x28", b"\xfe\xff"]))
        data = data[:at] + bad + data[at:]
    return kind, data


class TestLoadMatrix:
    def test_single_entry(self, tmp_path):
        p = tmp_path / "a.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 3.5\n")
        A = load_matrix(p)
        assert np.array_equal(A.to_dense(), [[3.5, 0], [0, 0]])

    def test_no_header(self, tmp_path):
        p = tmp_path / "a.mtx"
        p.write_text("% comment\n2 3 2\n1 3 1.0\n2 1 -2.0\n")
        A = load_matrix(p)
        assert np.array_equal(A.to_dense(), [[0, 0, 1], [-2, 0, 0]])

    def test_dense_csv(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("1,0\n0,2\n")
        A = load_matrix(p)
        assert np.array_equal(A.to_dense(), [[1, 0], [0, 2]])

    def test_round_trip(self, tmp_path, rng):
        A, _ = random_sparse(rng, 9, 7)
        p = tmp_path / "rt.mtx"
        save_matrix_market(p, A)
        B = load_matrix(p)
        assert B.nnz() == A.nnz()
        assert np.array_equal(B.values, A.values)
        assert np.array_equal(B.col_indices, A.col_indices)
        assert np.array_equal(B.row_offsets, A.row_offsets)

    def test_symmetric_rejected(self, tmp_path):
        p = tmp_path / "s.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 1 1\n")
        with pytest.raises(ParseError) as exc:
            load_matrix(p)
        assert exc.value.line == 1

    def test_bad_size_line(self, tmp_path):
        p = tmp_path / "b.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real general\n2 2\n")
        with pytest.raises(ParseError) as exc:
            load_matrix(p)
        assert exc.value.line == 2

    def test_out_of_range_index(self, tmp_path):
        p = tmp_path / "o.mtx"
        p.write_text("2 2 1\n3 1 1.0\n")
        with pytest.raises(ParseError) as exc:
            load_matrix(p)
        assert exc.value.line == 2

    def test_wrong_entry_count(self, tmp_path):
        p = tmp_path / "c.mtx"
        p.write_text("2 2 2\n1 1 1.0\n")
        with pytest.raises(ParseError, match="declared 2"):
            load_matrix(p)

    def test_malformed_entry(self, tmp_path):
        p = tmp_path / "m.mtx"
        p.write_text("2 2 1\n1 x 1.0\n")
        with pytest.raises(ParseError) as exc:
            load_matrix(p)
        assert exc.value.line == 2

    @pytest.mark.parametrize("entry, message", [
        ("2 1.0 1.0", "malformed entry"),
        ("2 1e0 1.0", "malformed entry"),
        ("2 1", "expected 'row col value'"),
        ("2 1 1.0 4", "expected 'row col value'"),
        ("2 1 nan", "non-finite value"),
        ("2 1 -inf", "non-finite value"),
    ])
    def test_bad_entry_names_its_line(self, tmp_path, entry, message):
        p = tmp_path / "e.mtx"
        p.write_text(f"% c\n2 2 3\n1 1 1.0\n\n% c\n{entry}\n2 2 1.0\n")
        with pytest.raises(ParseError, match=message) as exc:
            load_matrix(p)
        assert exc.value.line == 6

    def test_blank_and_comment_lines_among_entries(self, tmp_path):
        p = tmp_path / "g.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate real general\n% c\n2 3 4\n"
            "1 3 1.5\n\n% between\n2 1 -2.0\n   \n1 3 0.25\n2 2 1e-3"
        )
        A = load_matrix(p)
        assert np.array_equal(A.to_dense(), [[0, 0, 1.75], [-2, 1e-3, 0]])

    def test_matches_per_line_reference(self, tmp_path, rng):
        # the one-call parse against parsing line by line into from_triplets,
        # which sums duplicates in file order
        n = 300
        rows, cols = rng.integers(1, 9, n), rng.integers(1, 7, n)
        vals = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
        lines = ["%%MatrixMarket matrix coordinate real general", f"8 6 {n}"]
        for i, j, v in zip(rows, cols, vals):
            lines.append(f"{i} {j} {float(v)!r}")
            if rng.random() < 0.1:
                lines.append(str(rng.choice(["", "% c", "  "])))
        p = tmp_path / "d.mtx"
        p.write_text("\n".join(lines))
        want = from_triplets(8, 6, list(zip(rows - 1, cols - 1, vals)))
        got = load_matrix(p)
        for a, b in ((got.values, want.values), (got.col_indices, want.col_indices),
                     (got.row_offsets, want.row_offsets)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_csv(self, tmp_path, value):
        p = tmp_path / "a.csv"
        p.write_text(f"1,0\n0,{value}\n")
        with pytest.raises(ParseError) as exc:
            load_matrix(p)
        assert exc.value.line == 2

    @pytest.mark.parametrize("value", ["nan", "-inf"])
    def test_non_finite_targets(self, tmp_path, value):
        p = tmp_path / "y.txt"
        p.write_text(f"1.0\n# c\n2.0\n{value}\n")
        with pytest.raises(ParseError) as exc:
            load_targets(p)
        assert exc.value.line == 4

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ConfigError):
            load_matrix(tmp_path / "a.bin", fmt="binary")

    def test_undecodable_bytes(self, tmp_path):
        p = tmp_path / "u.mtx"
        p.write_bytes(b"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 \xff\n")
        with pytest.raises(ParseError, match=f"{p}: not UTF-8 text"):
            load_matrix(p)

    @pytest.mark.parametrize("size", [
        "-2 2 0",  # negative
        "2 99999999999999999999999 1",  # past int64
        "3 4611686018427387904 1",  # rows * cols past int64
    ])
    def test_size_line_out_of_range(self, tmp_path, size):
        p = tmp_path / "s.mtx"
        entries = "1 1 1.0\n" * int(size.split()[2])
        p.write_text(f"%%MatrixMarket matrix coordinate real general\n{size}\n{entries}")
        with pytest.raises(ParseError, match="negative or past int64") as exc:
            load_matrix(p)
        assert exc.value.line == 2

    @settings(max_examples=500, deadline=None)
    @given(corrupted_input())
    def test_corrupted_input_loads_or_raises_typed(self, corrupted):
        kind, data = corrupted
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
            warnings.simplefilter("ignore")  # numpy's empty-input warning
            path = os.path.join(tmp, VALID_INPUTS[kind][0])
            with open(path, "wb") as fh:
                fh.write(data)
            try:
                (load_targets if kind == "targets" else load_matrix)(path)
            except MlgibbsError:
                pass


class TestSynthesizeTargets:
    def test_degenerate(self, rng):
        X, _ = random_sparse(rng, 5, 4)
        b, y = synthesize_targets(X, RandomStream(0), 0.0, 0.0)
        assert np.array_equal(b, np.zeros(4))
        assert np.array_equal(y, np.zeros(5))

    def test_noiseless(self, rng):
        X, _ = random_sparse(rng, 5, 4)
        b, y = synthesize_targets(X, RandomStream(1), 10.0, 0.0)
        assert np.array_equal(y, spmv(X, b))

    def test_coefficient_variance(self, rng):
        X, _ = random_sparse(rng, 2, 10**4)
        b, _ = synthesize_targets(X, RandomStream(2), 10.0, 0.0)
        assert b.var() == pytest.approx(10.0, rel=0.05)


class TestKfold:
    def test_exact_division(self):
        splits = kfold_split(10, 5, RandomStream(0))
        tests = [t for _, t in splits]
        assert all(t.size == 2 for t in tests)
        assert np.array_equal(np.sort(np.concatenate(tests)), np.arange(10))

    def test_remainder_spread(self):
        splits = kfold_split(11, 5, RandomStream(0))
        sizes = sorted(t.size for _, t in splits)
        assert sizes == [2, 2, 2, 2, 3]

    def test_too_many_folds(self):
        with pytest.raises(ConfigError):
            kfold_split(3, 5, RandomStream(0))

    @settings(deadline=None, max_examples=30)
    @given(n=st.integers(2, 60), seed=st.integers(0, 10**4))
    def test_partition_property(self, n, seed):
        folds = min(5, n)
        splits = kfold_split(n, folds, RandomStream(seed))
        tests = [t for _, t in splits]
        union = np.sort(np.concatenate(tests))
        assert np.array_equal(union, np.arange(n))
        for train, test in splits:
            assert np.intersect1d(train, test).size == 0
            assert train.size + test.size == n


class TestMetrics:
    def test_perfect(self):
        rho, rmse, mae = metrics([1, 2, 3], [1, 2, 3])
        assert (rho, rmse, mae) == (1.0, 0.0, 0.0)

    def test_constant_prediction(self):
        _, rmse, mae = metrics([0, 0], [1, 1])
        assert rmse == 1.0 and mae == 1.0

    def test_affine_prediction(self):
        truth = np.array([1.0, 2.0, 3.0])
        pred = 2 * truth + 5
        rho, rmse, mae = metrics(pred, truth)
        assert rho == pytest.approx(1.0, abs=1e-12)
        assert rmse == pytest.approx(np.sqrt((36 + 49 + 64) / 3), rel=1e-12)

    def test_naive_oracle(self, rng):
        pred = rng.standard_normal(50)
        truth = rng.standard_normal(50)
        rho, rmse, mae = metrics(pred, truth)
        d = pred - truth
        assert rmse == pytest.approx(np.sqrt(np.mean(d * d)), rel=1e-12)
        assert mae == pytest.approx(np.mean(np.abs(d)), rel=1e-12)
        pc = np.mean((pred - pred.mean()) * (truth - truth.mean()))
        pc /= pred.std() * truth.std()
        assert rho == pytest.approx(pc, rel=1e-12)

    def test_constant_truth_warns(self):
        with pytest.warns(UserWarning, match="constant truth"):
            rho, _, _ = metrics([1.0, 2.0], [3.0, 3.0])
        assert np.isnan(rho)

    def test_bad_lengths(self):
        with pytest.raises(ConfigError):
            metrics([1.0], [1.0])
        with pytest.raises(ConfigError):
            metrics([1.0, 2.0], [1.0, 2.0, 3.0])


class TestExperimentConfig:
    def test_validate_rejects(self):
        cfg = ExperimentConfig(sampler="bogus")
        with pytest.raises(ConfigError):
            cfg.validate()
        cfg = ExperimentConfig(folds=1)
        with pytest.raises(ConfigError):
            cfg.validate()
        cfg = ExperimentConfig(allocation="cost", schedule="vcycle:10")
        with pytest.raises(ConfigError):
            cfg.validate()
        cfg = ExperimentConfig(beta_v=0.0)
        with pytest.raises(ConfigError):
            cfg.validate()

    @pytest.mark.parametrize("field, value", [
        ("alpha_e", np.nan), ("beta_v", np.nan), ("beta_e", np.inf), ("alpha_u", np.inf),
        ("coef_variance", np.nan), ("noise_variance", np.inf), ("coef_variance", -1.0),
    ])
    def test_validate_rejects_non_finite(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig(**{field: value}).validate()

    @pytest.mark.parametrize("field, value", [
        ("samples", "many"), ("samples", True), ("folds", 2.5), ("cg_tol", "1e-8"),
        ("preconditioned", 1), ("sampler", None), ("schedule", 5),
        ("coarse_range", (4, 8, 12)), ("coarse_range", (4, "8")), ("cg_max_iter", 7.0),
    ])
    def test_validate_rejects_wrong_types(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig(**{field: value}).validate()

    def test_validate_accepts_types(self, tmp_path):
        ExperimentConfig(cg_tol=0, beta_v=2, seed=np.int64(3), cg_max_iter=None,
                         coarse_range=[None, 8], data_path=tmp_path / "X.mtx",
                         preconditioned=np.bool_(True)).validate()

    @pytest.mark.parametrize("content", [b'{"samples": 60,', b'{"seed": "\xff"}'])
    def test_from_json_not_json(self, tmp_path, content):
        p = tmp_path / "cfg.json"
        p.write_bytes(content)
        with pytest.raises(ConfigError, match="not valid JSON"):
            ExperimentConfig.from_json(p)

    def test_defaults_are_the_library_defaults(self):
        assert ExperimentConfig().model_spec(9) == MixedModelSpec(0, 9)
        assert ExperimentConfig().solver_config() == SolverConfig()

    def test_from_json(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(
            {"sampler": "ml", "coarse_range": [4, 8], "samples": 100}
        ))
        cfg = ExperimentConfig.from_json(p)
        assert cfg.sampler == "ml"
        assert cfg.coarse_range == (4, 8)
        assert cfg.samples == 100


ZERO_ALLOCATION = dict(sampler="ml", levels=3, samples=31, burn_in=30,
                       coarse_range=(5, 12), folds=2, seed=1, pilot=5)


def small_experiment_matrix(seed=0):
    rng = np.random.default_rng(seed)
    return cluster_sparse(rng, 60, 10, 5, 8, amp=5.0)


class TestRunExperiment:
    def test_determinism(self):
        X = small_experiment_matrix()
        cfg = ExperimentConfig(sampler="gibbs", samples=80, burn_in=20,
                               folds=3, seed=5)
        a = run_experiment(cfg, X=X)
        cfg2 = ExperimentConfig(sampler="gibbs", samples=80, burn_in=20,
                                folds=3, seed=5)
        b = run_experiment(cfg2, X=X)
        assert a.metric_values() == b.metric_values()

    def test_single_level_ml_equals_gibbs(self):
        X = small_experiment_matrix()
        base = dict(samples=80, burn_in=20, folds=3, seed=5, levels=1,
                    coarse_range=(1, 10**6))
        g = run_experiment(ExperimentConfig(sampler="gibbs", **base), X=X)
        m = run_experiment(ExperimentConfig(sampler="ml", **base), X=X)
        for fg, fm in zip(g.folds, m.folds):
            assert fg.rho == fm.rho
            assert fg.rmse == fm.rmse
            assert fg.mae == fm.mae

    @pytest.mark.parametrize("sampler", ["ml", "mlcss"])
    def test_single_level_var_allocation_equals_gibbs(self, sampler, monkeypatch):
        # a one-level hierarchy takes all its draws at its one level: the
        # variance allocation runs no pilot chain there
        pilots = []
        real = harness.estimate_level_variances

        def pilot(*args, **kwargs):
            pilots.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "estimate_level_variances", pilot)
        X = small_experiment_matrix()
        base = dict(samples=80, burn_in=20, folds=3, seed=5, levels=1,
                    coarse_range=(1, 10**6), pilot=10)
        g = run_experiment(ExperimentConfig(sampler="gibbs", **base), X=X)
        m = run_experiment(
            ExperimentConfig(sampler=sampler, allocation="var", **base), X=X
        )
        assert m.metric_values() == g.metric_values()
        assert pilots == []

    def test_all_samplers_run(self):
        X = small_experiment_matrix()
        for sampler in ("ml", "mlcss", "mlcsp"):
            cfg = ExperimentConfig(sampler=sampler, samples=90, burn_in=30,
                                   folds=2, seed=1, levels=2,
                                   coarse_range=(6, 20))
            rep = run_experiment(cfg, X=X)
            assert all(f.error is None for f in rep.folds)
            assert np.isfinite(rep.rmse_mean)

    def test_allocations_run(self):
        X = small_experiment_matrix()
        for alloc in ("cost", "var"):
            cfg = ExperimentConfig(sampler="ml", samples=90, burn_in=30,
                                   folds=2, seed=1, levels=2,
                                   coarse_range=(6, 20), allocation=alloc,
                                   pilot=10)
            rep = run_experiment(cfg, X=X)
            assert all(f.error is None for f in rep.folds)

    def test_real_targets(self, tmp_path):
        X = small_experiment_matrix()
        rng = np.random.default_rng(3)
        y = rng.standard_normal(X.n_rows)
        tp = tmp_path / "y.csv"
        np.savetxt(tp, y, delimiter=",")
        cfg = ExperimentConfig(sampler="gibbs", samples=60, burn_in=10,
                               folds=2, seed=2, targets_path=str(tp))
        rep = run_experiment(cfg, X=X)
        assert all(f.error is None for f in rep.folds)
        assert np.array_equal(load_targets(tp), y)

    def test_fold_error_reported(self):
        # an impossible hierarchy range aborts folds without crashing
        X = from_dense(np.zeros((12, 6)))
        cfg = ExperimentConfig(sampler="ml", samples=30, burn_in=5, folds=2,
                               seed=0, levels=3, coarse_range=(1, 2))
        rep = run_experiment(cfg, X=X)
        assert all(f.error is not None for f in rep.folds)
        assert "failed      all 2 folds" in rep.to_text()

    def test_report_is_strict_json(self):
        # a failed fold's metrics and an undefined rho stay NaN in memory and
        # are written as null, since standard JSON has no NaN
        X = from_dense(np.zeros((12, 6)))
        cfg = ExperimentConfig(sampler="ml", samples=30, burn_in=5, folds=2,
                               seed=0, levels=3, coarse_range=(1, 2))
        rep = run_experiment(cfg, X=X)
        rep.rho_mean = float("nan")
        assert np.isnan([rep.rho_mean] + [f.rmse for f in rep.folds]).all()

        def reject(constant):
            raise ValueError(f"{constant} is not standard JSON")

        parsed = json.loads(rep.to_json(), parse_constant=reject)
        assert [(f["rho"], f["rmse"], f["mae"]) for f in parsed["folds"]] == [(None,) * 3] * 2
        assert parsed["rho"]["mean"] is None

    def test_partial_failure_named(self):
        # a NaN entry breaks the CG solves of the fold that trains on it only
        dense = small_experiment_matrix().to_dense()
        dense[0, np.flatnonzero(dense[0])[0]] = np.nan
        cfg = ExperimentConfig(sampler="gibbs", samples=30, burn_in=10, folds=2, seed=0)
        rep = run_experiment(cfg, X=from_dense(dense))
        failed = [f for f in rep.folds if f.error is not None]
        assert len(failed) == 1 and rep.rmse_mean is not None
        assert (f"failed      1 of 2 folds (fold {failed[0].fold}: {failed[0].error})"
                in rep.to_text())

    @pytest.mark.parametrize("allocation", ["cost", "var"])
    def test_all_zero_allocation_fails_typed(self, allocation):
        # one draw after burn-in: both allocations round every level down
        # to zero draws, so there is no estimate to report
        X, _ = random_sparse(np.random.default_rng(0), 60, 40)
        rep = run_experiment(ExperimentConfig(**ZERO_ALLOCATION, allocation=allocation), X=X)
        assert all(f.error.startswith("EstimatorError") for f in rep.folds)

    def test_report_json_writes_paths_and_numpy_scalars(self, tmp_path):
        # each is a value validate() accepts
        data = tmp_path / "X.mtx"
        save_matrix_market(data, small_experiment_matrix())
        cfg = ExperimentConfig(sampler="gibbs", samples=30, burn_in=10, folds=2,
                               data_path=data, seed=np.int64(3), cg_tol=np.float32(1e-8),
                               preconditioned=np.bool_(False))
        config = json.loads(run_experiment(cfg).to_json())["config"]
        assert config["data_path"] == str(data)
        assert (config["seed"], config["cg_tol"]) == (3, float(np.float32(1e-8)))
        assert config["preconditioned"] is False

    @pytest.mark.parametrize("n_targets", [59, 61])
    def test_in_memory_targets_length_checked(self, n_targets):
        cfg = ExperimentConfig(sampler="gibbs", samples=30, burn_in=10, folds=2)
        with pytest.raises(ConfigError, match=f"targets length {n_targets} != n_rows 60"):
            run_experiment(cfg, X=small_experiment_matrix(), y=np.ones(n_targets))

    def test_report_serialization(self):
        X = small_experiment_matrix()
        cfg = ExperimentConfig(sampler="gibbs", samples=60, burn_in=10,
                               folds=2, seed=0)
        rep = run_experiment(cfg, X=X)
        parsed = json.loads(rep.to_json())
        assert parsed["rho"]["mean"] == rep.rho_mean
        text = rep.to_text()
        assert "RMSE" in text and "sampler" in text


    def test_unconverged_solves_reported(self):
        X = small_experiment_matrix()
        base = dict(samples=60, burn_in=10, folds=2, seed=0, levels=2,
                    coarse_range=(6, 20))
        rep = run_experiment(ExperimentConfig(sampler="gibbs", cg_max_iter=1, **base), X=X)
        # one CG iteration converges none of the 60 solves per fold
        assert [f.cg_unconverged for f in rep.folds] == [[60], [60]]
        rep = run_experiment(ExperimentConfig(sampler="ml", cg_max_iter=1, **base), X=X)
        # consecutive schedule: burn-in plus 25 draws at level 0, 25 at level 1
        assert [f.cg_unconverged for f in rep.folds] == [[35, 25], [35, 25]]
        assert json.loads(rep.to_json())["cg_unconverged"] == 120
        assert "CG unconv.  120" in rep.to_text()
        rep = run_experiment(ExperimentConfig(sampler="ml", **base), X=X)
        assert [f.cg_unconverged for f in rep.folds] == [[0, 0], [0, 0]]
        assert json.loads(rep.to_json())["cg_unconverged"] == 0

    @pytest.mark.parametrize("kw", [
        dict(sampler="gibbs"), dict(sampler="ml"), dict(sampler="ml", preconditioned=True),
    ])
    def test_zero_noise_precision_fails_folds(self, kw):
        # under the vague Gamma(1e-3, 1e-3) prior numpy draws tau = 0.0 about
        # half the time: those folds fail with NumericalError, the rest run
        X = cluster_sparse(np.random.default_rng(5), 80, 12, 5, 6)
        errors = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a tiny tau overflows Lambda/tau
            for seed in range(6):
                cfg = ExperimentConfig(alpha_e=1e-3, beta_e=1e-3, seed=seed, samples=60,
                                       burn_in=10, **kw)
                errors += [f.error for f in run_experiment(cfg, X=X).folds]
        assert any(e and e.startswith("NumericalError: noise precision") for e in errors)
        assert all(e is None or e.startswith("NumericalError") for e in errors)

    @pytest.mark.parametrize("kw", [
        dict(sampler="gibbs"), dict(sampler="ml"), dict(sampler="ml", preconditioned=True),
        dict(sampler="mlcss"), dict(sampler="mlcss", preconditioned=True),
    ])
    @pytest.mark.parametrize("prior, name, n_failed", [
        (dict(alpha_u=1e-3, beta_u=1e-3), "lam_u", 8),
        (dict(n_fixed=4, alpha_v=1e-3, beta_v=1e-3), "lam_v", 10),
    ])
    def test_zero_effect_precision_fails_before_cg(self, kw, prior, name, n_failed):
        # the vague Gamma(1e-3, 1e-3) effect prior draws a precision of 0.0 in
        # some folds: they fail before any solve, naming that precision
        X = cluster_sparse(np.random.default_rng(3), 20, 12, 4, 6)
        errors = []
        for seed in range(10):
            cfg = ExperimentConfig(samples=40, burn_in=5, levels=2, folds=2, seed=seed,
                                   coarse_range=(20, 30), **prior, **kw)
            errors += [f.error for f in run_experiment(cfg, X=X).folds if f.error]
        assert len(errors) == n_failed
        assert all(e.startswith(f"NumericalError: effect precision {name} = 0.0 at level 0")
                   for e in errors)

    def test_tiny_noise_precision_fails_before_cg(self):
        # fold 0 draws tau = 6.6e-156: finite 1/tau and Lambda/tau, but its
        # noise overflows the right-hand side's norm (a RuntimeWarning, an
        # error under this suite's filter) and CG's first p.Ap
        X = cluster_sparse(np.random.default_rng(11), 30, 4, 3, 6)
        cfg = ExperimentConfig(sampler="gibbs", samples=1, burn_in=0, levels=1, cg_tol=0.0,
                               folds=2, seed=79, alpha_e=1e-3, beta_e=1e-3, alpha_v=1e-3,
                               beta_v=1e-3, beta_u=1e-3)
        errors = [f.error for f in run_experiment(cfg, X=X).folds]
        assert errors[0].startswith("NumericalError: noise precision tau = 6.5")
        assert "at level 0" in errors[0]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_config_runs_or_raises_typed(self, data):
        values = data.draw(in_range_config())
        for name in data.draw(st.sets(st.sampled_from(sorted(OUT_OF_RANGE)), max_size=2)):
            values[name] = data.draw(OUT_OF_RANGE[name])
        X = cluster_sparse(np.random.default_rng(11), 30, 4, 3, 6)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # short schedule chunks, constant truth
            try:
                rep = run_experiment(ExperimentConfig(folds=2, **values), X=X)
            except MlgibbsError:
                return
        assert all(f.error is not None or np.isfinite(f.rmse) for f in rep.folds)
        rep.to_text()
        json.loads(rep.to_json())


@st.composite
def in_range_config(draw):
    """In-range values of the ExperimentConfig fields that the CLI sets,
    for a 30 x 12 matrix; a coarse range may still be one that no
    hierarchy meets."""
    burn_in = draw(st.integers(0, 10))
    schedule = draw(st.sampled_from(["consecutive", "vcycle:1", "vcycle:12", "wcycle:2",
                                     "w_cycle:10"]))
    bounds = st.integers(1, 14)
    return {
        "sampler": draw(st.sampled_from(["gibbs", "ml", "mlcss", "mlcsp"])),
        "preconditioned": draw(st.booleans()),
        "samples": draw(st.integers(burn_in + 1, 20)),
        "burn_in": burn_in,
        "levels": draw(st.integers(1, 4)),
        "schedule": schedule,
        # cost and variance allocations need the consecutive schedule
        "allocation": draw(st.sampled_from(
            ["equal", "cost", "var"] if schedule == "consecutive" else ["equal"]
        )),
        "coarse_range": draw(st.sampled_from([(None, None)])
                             | st.tuples(bounds, bounds).map(sorted).map(tuple)
                             | st.tuples(st.none(), bounds) | st.tuples(bounds, st.none())),
        "n_fixed": draw(st.integers(0, 12)),
        "seed": draw(st.integers(0, 2**40)),
        "cg_tol": draw(st.sampled_from([0.0, 1e-10, 1e-3])),
        "cg_max_iter": draw(st.none() | st.integers(1, 6)),
        "pilot": draw(st.integers(2, 6)),
        **{p: draw(st.sampled_from([1e-3, 1.0, 10.0])) for p in PRIOR_FIELDS},
    }


OUT_OF_RANGE = {
    "sampler": st.just("bogus"),
    "samples": st.integers(-1, 0),
    "burn_in": st.integers(-2, -1) | st.just(25),
    "levels": st.integers(-1, 0),
    "schedule": st.sampled_from(["bogus", "vcycle", "vcycle:0", "wcycle:x", "zigzag:3"]),
    "allocation": st.just("bogus"),
    "coarse_range": st.sampled_from([(0, 5), (5, 3), (-1, None), (None, 0)]),
    "n_fixed": st.just(-1) | st.integers(13, 500),
    "seed": st.integers(-2, -1),
    "cg_tol": st.sampled_from([-1.0, np.nan, 1.0, np.inf]),
    "cg_max_iter": st.integers(-3, 0),
    "pilot": st.integers(-1, 1),
    **{p: st.sampled_from([0.0, -1.0, np.nan, np.inf]) for p in PRIOR_FIELDS},
}


class TestLevelVarianceReport:
    def test_identity_hierarchy_zero_difference(self, rng):
        from mlgibbs import build_prolongator
        from mlgibbs.hierarchy import LevelHierarchy
        from mlgibbs import MixedModelSpec, SolverConfig

        X, dense = random_sparse(rng, 15, 6)
        P = build_prolongator(np.arange(6))
        h = LevelHierarchy([X, X], [P], [0, 0])
        y = rng.standard_normal(15)
        rep = level_variance_report(
            h, y, MixedModelSpec(0, 6), SolverConfig(), RandomStream(1),
            n_draws=30, burn=5,
        )
        assert np.allclose(rep["solves"][0], 0.0, atol=1e-18)
        assert np.allclose(rep["projection"][0], 0.0, atol=1e-18)

    def test_unknown_coupling(self, rng):
        from mlgibbs import MixedModelSpec, SolverConfig, build_hierarchy

        X = cluster_sparse(rng, 30, 6, 4, 5)
        h = build_hierarchy(X, 0, (4, 10), 2)
        with pytest.raises(ConfigError):
            level_variance_report(
                h, np.zeros(30), MixedModelSpec(0, X.n_cols), SolverConfig(),
                RandomStream(2), n_draws=5, burn=0, couplings=("swap",),
            )

    def test_csv_output(self, rng, tmp_path):
        X = cluster_sparse(rng, 30, 6, 4, 5)
        from mlgibbs import MixedModelSpec, SolverConfig, build_hierarchy

        h = build_hierarchy(X, 0, (4, 10), 2)
        y = rng.standard_normal(30)
        rep = level_variance_report(
            h, y, MixedModelSpec(0, X.n_cols), SolverConfig(),
            RandomStream(2), n_draws=20, burn=5,
        )
        out = tmp_path / "lv.csv"
        level_variance_csv(rep, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("quantity,level")
        assert any(ln.startswith("var_y,0,") for ln in lines)
        assert any(ln.startswith("var_diff_solves,1,") for ln in lines)


class TestCli:
    def _write_data(self, tmp_path):
        X = small_experiment_matrix()
        p = tmp_path / "X.mtx"
        save_matrix_market(p, X)
        return p

    def test_run_smoke(self, tmp_path, capsys):
        data = self._write_data(tmp_path)
        report = tmp_path / "rep.json"
        code = main([
            "run", "--data", str(data), "--sampler", "ml", "--levels", "2",
            "--coarse-range", "6,20", "--samples", "60", "--burnin", "10",
            "--folds", "2", "--seed", "3", "--report", str(report),
        ])
        assert code == 0
        assert report.exists()
        parsed = json.loads(report.read_text())
        assert parsed["config"]["sampler"] == "ml"
        out = capsys.readouterr().out
        assert "RMSE" in out

    @pytest.mark.parametrize("flag", ["--report", "--level-variance"])
    def test_unwritable_output_exits_1(self, tmp_path, capsys, flag, monkeypatch):
        # a path in a missing directory is a typed error before the run, not a
        # FileNotFoundError traceback, and leaves no file behind
        import mlgibbs.cli as cli_mod

        runs = []
        monkeypatch.setattr(cli_mod, "prepare_experiment", lambda *args: runs.append(args))
        data, out = self._write_data(tmp_path), tmp_path / "missing" / "out"
        code = main([
            "run", "--data", str(data), "--sampler", "ml", "--levels", "2",
            "--coarse-range", "6,20", "--samples", "60", "--burnin", "10",
            "--folds", "2", "--seed", "3", flag, str(out),
        ])
        assert code == 1
        assert f"error: cannot write {out}: " in capsys.readouterr().err
        assert runs == []  # the experiment never started
        assert sorted(p.name for p in tmp_path.iterdir()) == ["X.mtx"]

    def test_output_write_error_after_run(self, tmp_path, capsys):
        # an output the directory check lets through, here a directory itself,
        # fails at write time with the same typed error
        data, out = self._write_data(tmp_path), tmp_path / "out"
        out.mkdir()
        code = main([
            "run", "--data", str(data), "--sampler", "gibbs", "--samples", "30",
            "--burnin", "10", "--folds", "2", "--report", str(out),
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert "RMSE" in captured.out  # after the run
        assert f"error: cannot write {out}: " in captured.err

    def test_level_variance_flag(self, tmp_path, capsys):
        data = self._write_data(tmp_path)
        lv = tmp_path / "lv.csv"
        code = main([
            "run", "--data", str(data), "--sampler", "mlcss", "--levels", "2",
            "--coarse-range", "6,20", "--samples", "60", "--burnin", "10",
            "--folds", "2", "--seed", "3", "--level-variance", str(lv),
        ])
        assert code == 0
        assert lv.exists()

    def test_level_variance_default_coarse_range(self, tmp_path, capsys):
        data = self._write_data(tmp_path)
        lv = tmp_path / "lv.csv"
        code = main([
            "run", "--data", str(data), "--sampler", "ml", "--levels", "2",
            "--samples", "60", "--burnin", "10", "--folds", "2", "--seed", "3",
            "--level-variance", str(lv),
        ])
        assert code == 0
        assert lv.read_text().startswith("quantity,level")

    def test_config_priors_reach_spec(self, tmp_path, capsys, monkeypatch):
        import mlgibbs.cli as cli_mod
        import mlgibbs.harness as harness_mod

        specs = []
        real_fold = harness_mod.run_fold
        real_report = cli_mod.level_variance_report

        def fold(X, y, truth, config, spec, *args):
            specs.append(spec)
            return real_fold(X, y, truth, config, spec, *args)

        def report(hierarchy, y, spec, *args, **kwargs):
            specs.append(spec)
            return real_report(hierarchy, y, spec, *args, **kwargs)

        monkeypatch.setattr(harness_mod, "run_fold", fold)
        monkeypatch.setattr(cli_mod, "level_variance_report", report)
        data = self._write_data(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"beta_v": 7.5, "beta_u": 2.5, "alpha_e": 3.0}))
        code = main([
            "run", "--data", str(data), "--config", str(cfg), "--sampler", "ml",
            "--levels", "2", "--coarse-range", "6,20", "--samples", "60",
            "--burnin", "10", "--folds", "2", "--seed", "3",
            "--level-variance", str(tmp_path / "lv.csv"),
        ])
        assert code == 0
        assert len(specs) == 3  # two folds, then the level-variance report
        for spec in specs:
            assert (spec.beta_v, spec.beta_u, spec.alpha_e) == (7.5, 2.5, 3.0)

    def test_config_file_values_kept(self, tmp_path, capsys):
        data = self._write_data(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "samples": 60, "levels": 2, "n_fixed": 3, "sampler": "ml",
            "cg_max_iter": 7, "folds": 2, "coarse_range": [6, 20],
        }))
        report = tmp_path / "rep.json"
        code = main(["run", "--data", str(data), "--config", str(cfg),
                     "--burnin", "15", "--report", str(report)])
        assert code == 0
        parsed = json.loads(report.read_text())["config"]
        # no flag given: the file's values, not the flags' defaults
        assert (parsed["samples"], parsed["levels"], parsed["n_fixed"]) == (60, 2, 3)
        assert (parsed["sampler"], parsed["cg_max_iter"], parsed["folds"]) == ("ml", 7, 2)
        assert parsed["coarse_range"] == [6, 20]
        # a flag given overrides the file; fields in neither keep their defaults
        assert parsed["burn_in"] == 15
        assert (parsed["seed"], parsed["cg_tol"], parsed["preconditioned"]) == (0, 1e-8, False)

    def test_config_unknown_keys(self, tmp_path, capsys):
        data = self._write_data(tmp_path)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"sampels": 60, "burnin": 10, "folds": 2}))
        code = main(["run", "--data", str(data), "--config", str(cfg)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "burnin" in err and "sampels" in err and "folds" not in err

    def test_every_fold_failing_exits_1(self, tmp_path, capsys):
        # seed 2 draws tau = 0.0 from the vague noise prior in both folds
        data = self._write_data(tmp_path)
        cfg = tmp_path / "vague.json"
        cfg.write_text(json.dumps({"alpha_e": 1e-3, "beta_e": 1e-3}))
        code = main(["run", "--data", str(data), "--config", str(cfg), "--samples", "60",
                     "--burnin", "10", "--folds", "2", "--seed", "2"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: no fold succeeded; fold 0: "
                                                  "NumericalError: noise precision")

    def test_config_not_an_object(self, tmp_path, capsys):
        data = self._write_data(tmp_path)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps([{"samples": 60}]))
        code = main(["run", "--data", str(data), "--config", str(cfg)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_level_variance_loads_inputs_once(self, tmp_path, capsys, monkeypatch):
        import mlgibbs.harness as harness_mod

        loads = []
        real_load = harness_mod.load_matrix

        def load(*args):
            loads.append(args)
            return real_load(*args)

        monkeypatch.setattr(harness_mod, "load_matrix", load)
        data = self._write_data(tmp_path)
        code = main([
            "run", "--data", str(data), "--sampler", "ml", "--levels", "2",
            "--coarse-range", "6,20", "--samples", "60", "--burnin", "10",
            "--folds", "2", "--level-variance", str(tmp_path / "lv.csv"),
        ])
        assert code == 0
        assert len(loads) == 1

    def test_level_variance_solver_config(self, tmp_path, capsys, monkeypatch):
        import mlgibbs.cli as cli_mod

        configs = []
        real_report = cli_mod.level_variance_report

        def report(hierarchy, y, spec, config, *args, **kwargs):
            configs.append(config)
            return real_report(hierarchy, y, spec, config, *args, **kwargs)

        monkeypatch.setattr(cli_mod, "level_variance_report", report)
        data = self._write_data(tmp_path)
        code = main([
            "run", "--data", str(data), "--sampler", "ml", "--levels", "2",
            "--coarse-range", "6,20", "--samples", "60", "--burnin", "10",
            "--folds", "2", "--cg-tol", "1e-6", "--cg-max-iter", "50",
            "--level-variance", str(tmp_path / "lv.csv"),
        ])
        assert code == 0
        assert [(c.tol, c.max_iter) for c in configs] == [(1e-6, 50)]

    def test_level_variance_needs_ml(self, tmp_path, capsys, monkeypatch):
        import mlgibbs.cli as cli_mod

        runs = []
        monkeypatch.setattr(cli_mod, "run_experiment", lambda *args: runs.append(args))
        data = self._write_data(tmp_path)
        code = main([
            "run", "--data", str(data), "--sampler", "gibbs",
            "--samples", "60", "--burnin", "10", "--folds", "2",
            "--level-variance", str(tmp_path / "lv.csv"),
        ])
        assert code == 2
        assert "needs a multilevel sampler" in capsys.readouterr().err
        assert runs == []  # rejected before the experiment runs

    def test_level_variance_needs_ml_before_loading(self, tmp_path, capsys):
        missing = tmp_path / "missing.mtx"
        code = main(["run", "--data", str(missing), "--sampler", "gibbs",
                     "--level-variance", str(tmp_path / "lv.csv")])
        assert code == 2
        assert "needs a multilevel sampler" in capsys.readouterr().err

    def test_multi_column_targets(self, tmp_path, capsys):
        # 30 rows of two columns hold as many values as the 60 rows of X
        data, targets = self._write_data(tmp_path), tmp_path / "y2.csv"
        np.savetxt(targets, np.ones((30, 2)), delimiter=",")
        code = main(["run", "--data", str(data), "--targets", str(targets),
                     "--samples", "60", "--burnin", "10", "--folds", "2"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(targets) in err and "2 columns" in err

    @pytest.mark.parametrize("text", ['{"samples": 60,', '{"samples": "many"}', None])
    def test_malformed_config(self, tmp_path, capsys, text):
        data = self._write_data(tmp_path)
        cfg = tmp_path / "cfg.json"
        if text is not None:  # None: the file does not exist
            cfg.write_text(text)
        code = main(["run", "--data", str(data), "--config", str(cfg), "--folds", "2"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("flag", ["--data", "--targets"])
    def test_missing_input_file(self, tmp_path, capsys, flag):
        data, missing = str(self._write_data(tmp_path)), str(tmp_path / "missing.csv")
        inputs = {"--data": [missing], "--targets": [data, "--targets", missing]}[flag]
        code = main(["run", "--data", *inputs, "--samples", "60", "--burnin", "10",
                     "--folds", "2"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and missing in err

    def test_no_data(self, capsys):
        assert main(["run", "--samples", "60", "--burnin", "10", "--folds", "2"]) == 1
        assert capsys.readouterr().err.startswith("error: no input matrix")

    def test_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.mtx"
        bad.write_text("2 2\n")
        code = main(["run", "--data", str(bad)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("args, config", [
        (["--sampler", "ml", "--schedule", "bogus"], None),
        (["--sampler", "ml", "--levels", "0"], None),
        (["--samples", "5", "--burnin", "10"], None),
        (["--sampler", "ml", "--coarse-range", "0,5"], None),
        (["--fixed", "500"], None),
        (["--fixed", "-1"], None),
        (["--seed", "-1"], None),
        (["--cg-tol", "-1"], None),
        (["--cg-max-iter", "-3"], None),
        (["--sampler", "ml", "--alloc", "var"], {"pilot": 1}),
        (["--cg-tol", "1"], None),
    ])
    def test_out_of_range_values(self, tmp_path, capsys, args, config):
        data = self._write_data(tmp_path)
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            args = args + ["--config", str(tmp_path / "cfg.json")]
        code = main(["run", "--data", str(data), "--samples", "30", "--burnin", "5",
                     "--folds", "2", *args])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_every_fold_failed(self, tmp_path, capsys, monkeypatch):
        def fail(*args):
            raise HierarchyError("cannot reach the range")

        monkeypatch.setattr(harness, "build_hierarchy", fail)
        data = self._write_data(tmp_path)
        code = main(["run", "--data", str(data), "--sampler", "ml", "--samples", "30",
                     "--burnin", "5", "--folds", "2"])
        assert code == 1
        out, err = capsys.readouterr()
        assert "failed      all 2 folds" in out
        assert err.startswith("error:") and "HierarchyError: cannot reach the range" in err

    def test_all_zero_allocation_exits_1(self, tmp_path, capsys):
        data = tmp_path / "X.mtx"
        save_matrix_market(data, random_sparse(np.random.default_rng(0), 60, 40)[0])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**ZERO_ALLOCATION, "allocation": "cost"}))
        assert main(["run", "--data", str(data), "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: no fold succeeded; fold 0: EstimatorError: ")
