"""Data ingestion, synthetic targets, cross-validation, metrics and
experiment orchestration."""

import json
import time
import warnings
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import ConfigError, MlgibbsError, ParseError
from .gibbs import MixedModelSpec, predict_mean, run_chain
from .hierarchy import build_hierarchy, prolong, restrict
from .multilevel import (
    LevelCost,
    allocate_cost,
    allocate_variance,
    estimate_level_variances,
    finalize_estimate,
    make_schedule,
    run_ml_cs,
    run_ml_gibbs,
    SampleSchedule,
)
from .rng import RandomStream
from .solvers import SolverConfig
from .sparse import from_dense, from_triplets, row_subset, spmv
from . import gibbs as _gibbs
from .multilevel import _level_specs


SAMPLER_KINDS = ("gibbs", "ml", "mlcss", "mlcsp")


# ---------------------------------------------------------------------------
# ingestion

def load_matrix(path, fmt=None):
    """Load a sparse matrix from a MatrixMarket coordinate file or a dense
    CSV. Format inferred from the extension when not given."""
    path = str(path)
    if fmt is None:
        fmt = "dense_csv" if path.endswith(".csv") else "matrix_market"
    if fmt == "matrix_market":
        return _load_matrix_market(path)
    if fmt == "dense_csv":
        return _load_dense_csv(path)
    raise ConfigError(f"unknown matrix format {fmt!r}")


def _load_matrix_market(path):
    with open(path) as fh:
        lines = fh.readlines()
    dims = None
    entries = []
    expected = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if lineno == 1 and line.startswith("%%MatrixMarket"):
            parts = line.lower().split()
            if "symmetric" in parts or "skew-symmetric" in parts or "hermitian" in parts:
                raise ParseError("symmetric storage is not supported", lineno)
            if "coordinate" not in parts:
                raise ParseError("only coordinate format is supported", lineno)
            continue
        if not line or line.startswith("%"):
            continue
        parts = line.split()
        if dims is None:
            if len(parts) != 3:
                raise ParseError(f"expected 'rows cols nnz', got {line!r}", lineno)
            try:
                n_rows, n_cols, expected = (int(p) for p in parts)
            except ValueError:
                raise ParseError(f"non-integer size line {line!r}", lineno) from None
            dims = (n_rows, n_cols)
            continue
        if len(parts) != 3:
            raise ParseError(f"expected 'row col value', got {line!r}", lineno)
        try:
            i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise ParseError(f"malformed entry {line!r}", lineno) from None
        if not (1 <= i <= dims[0] and 1 <= j <= dims[1]):
            raise ParseError(f"index ({i}, {j}) out of range {dims}", lineno)
        entries.append((i - 1, j - 1, v))
    if dims is None:
        raise ParseError("missing size line", len(lines))
    if expected is not None and len(entries) != expected:
        raise ParseError(
            f"declared {expected} entries, found {len(entries)}", len(lines)
        )
    return from_triplets(dims[0], dims[1], entries)


def _load_dense_csv(path):
    try:
        dense = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return from_dense(dense)


def save_matrix_market(path, A):
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write(f"{A.n_rows} {A.n_cols} {A.nnz()}\n")
        row_ids = np.repeat(np.arange(A.n_rows), np.diff(A.row_offsets))
        for r, c, v in zip(row_ids, A.col_indices, A.values):
            fh.write(f"{r + 1} {c + 1} {float(v)!r}\n")


def load_targets(path):
    return np.loadtxt(path, delimiter=",", ndmin=1)


# ---------------------------------------------------------------------------
# synthetic protocol

def synthesize_targets(X, stream, coef_variance=10.0, noise_variance=1000.0):
    """b_true ~ N(0, coef_variance I), e ~ N(0, noise_variance I),
    y = X b_true + e. b_true is retained for noiseless evaluation."""
    b_true = stream.normal_vector(X.n_cols, 0.0, coef_variance)
    e = stream.normal_vector(X.n_rows, 0.0, noise_variance)
    return b_true, spmv(X, b_true) + e


def kfold_split(n, folds, stream):
    """Random disjoint near-equal test sets covering all rows."""
    if folds > n:
        raise ConfigError(f"folds={folds} > n={n}")
    perm = stream.permutation(n)
    sizes = [n // folds + (1 if i < n % folds else 0) for i in range(folds)]
    out = []
    start = 0
    for sz in sizes:
        test = np.sort(perm[start : start + sz])
        train = np.sort(np.concatenate([perm[:start], perm[start + sz :]]))
        out.append((train, test))
        start += sz
    return out


def metrics(pred, truth):
    """(pearson rho, RMSE, MAE)."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.size != truth.size or pred.size < 2:
        raise ConfigError("metrics needs two equal-length vectors of size >= 2")
    diff = pred - truth
    rmse = float(np.sqrt(np.mean(diff**2)))
    mae = float(np.mean(np.abs(diff)))
    if np.all(truth == truth[0]):
        warnings.warn("constant truth: pearson correlation undefined")
        rho = float("nan")
    else:
        rho = float(np.corrcoef(pred, truth)[0, 1])
    return rho, rmse, mae


# ---------------------------------------------------------------------------
# experiment orchestration

@dataclass
class ExperimentConfig:
    data_path: str = None
    data_format: str = None
    targets_path: str = None
    n_fixed: int = 0
    alpha_e: float = 1.0
    beta_e: float = 1.0
    alpha_v: float = 1.0
    beta_v: float = 1e-3
    alpha_u: float = 1.0
    beta_u: float = 1e-3
    sampler: str = "gibbs"
    preconditioned: bool = False
    samples: int = 2200
    burn_in: int = 200
    schedule: str = "consecutive"
    allocation: str = "equal"  # equal | cost | var
    levels: int = 3
    coarse_range: tuple = (None, None)
    folds: int = 5
    seed: int = 0
    cg_tol: float = 1e-8
    cg_max_iter: int = None
    coef_variance: float = 10.0
    noise_variance: float = 1000.0
    pilot: int = 50

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            raw = json.load(fh)
        cfg = cls(**raw)
        if isinstance(cfg.coarse_range, list):
            cfg.coarse_range = tuple(cfg.coarse_range)
        return cfg

    def validate(self):
        if self.sampler not in SAMPLER_KINDS:
            raise ConfigError(f"unknown sampler {self.sampler!r}")
        if self.folds < 2:
            raise ConfigError("folds must be >= 2")
        if self.allocation not in ("equal", "cost", "var"):
            raise ConfigError(f"unknown allocation {self.allocation!r}")
        if self.allocation != "equal" and self.schedule != "consecutive":
            raise ConfigError("cost/var allocation requires the consecutive schedule")
        for p in ("alpha_e", "beta_e", "alpha_v", "beta_v", "alpha_u", "beta_u"):
            if getattr(self, p) <= 0:
                raise ConfigError(f"prior parameter {p} must be positive")

    def coarse_range_for(self, n_cols):
        """The configured coarsest-width range, or [0.6 w, w] with
        w = n_cols // 3 when none is set."""
        lo, hi = self.coarse_range
        if lo is None:
            hi = max(1, n_cols // 3)
            lo = max(1, int(hi * 0.6))
        return lo, hi

    def model_spec(self, n_cols):
        """The mixed-model spec of an n_cols-wide matrix under this
        config's column split and priors."""
        return MixedModelSpec(
            n_fixed=self.n_fixed,
            n_random=n_cols - self.n_fixed,
            alpha_e=self.alpha_e,
            beta_e=self.beta_e,
            alpha_v=self.alpha_v,
            beta_v=self.beta_v,
            alpha_u=self.alpha_u,
            beta_u=self.beta_u,
        )


@dataclass
class FoldMetrics:
    fold: int
    rho: float
    rmse: float
    mae: float
    setup_time: float
    exec_time: float
    level_widths: list
    level_nnz: list
    mean_cg_iters: list
    error: str = None


@dataclass
class MetricsReport:
    config: dict
    folds: list
    rho_mean: float = None
    rho_std: float = None
    rmse_mean: float = None
    rmse_std: float = None
    mae_mean: float = None
    mae_std: float = None
    setup_time: float = None
    exec_time: float = None

    def to_json(self):
        return json.dumps(
            {
                "config": self.config,
                "folds": [asdict(f) for f in self.folds],
                "rho": {"mean": self.rho_mean, "std": self.rho_std},
                "rmse": {"mean": self.rmse_mean, "std": self.rmse_std},
                "mae": {"mean": self.mae_mean, "std": self.mae_std},
                "setup_time": self.setup_time,
                "exec_time": self.exec_time,
            },
            indent=2,
        )

    def to_text(self):
        lines = [
            f"sampler     {self.config.get('sampler')}"
            + ("+precond" if self.config.get("preconditioned") else ""),
            f"setup (s)   {self.setup_time:.3e}",
            f"exec. (s)   {self.exec_time:.3e}",
            f"rho         {self.rho_mean:.3f} ({self.rho_std:.3f})",
            f"RMSE        {self.rmse_mean:.3e} ({self.rmse_std:.3e})",
            f"MAE         {self.mae_mean:.3e} ({self.mae_std:.3e})",
        ]
        return "\n".join(lines)

    def metric_values(self):
        """All deterministic metric fields (timings excluded)."""
        return {
            "folds": [
                (f.fold, f.rho, f.rmse, f.mae, tuple(f.level_widths)) for f in self.folds
            ],
            "rho": (self.rho_mean, self.rho_std),
            "rmse": (self.rmse_mean, self.rmse_std),
            "mae": (self.mae_mean, self.mae_std),
        }


def _consecutive_from_totals(totals, burn_in):
    visits = [(l, h) for l, h in enumerate(totals) if h > 0]
    return SampleSchedule(
        visits=visits, totals=np.asarray(totals, dtype=np.int64), burn_in=burn_in
    )


def run_fold(X, y, truth_coef, config, spec, fold_id, train, test, stream):
    """One CV fold: hierarchy build on training rows, sampling, metrics on
    held-out rows. truth_coef is the noiseless synthetic coefficient vector
    or None when real targets are used."""
    X_train = row_subset(X, train)
    X_test = row_subset(X, test)
    y_train = y[train]
    truth = spmv(X_test, truth_coef) if truth_coef is not None else y[test]
    solver_cfg = SolverConfig(tol=config.cg_tol, max_iter=config.cg_max_iter)
    t0 = time.perf_counter()
    hierarchy = None
    if config.sampler != "gibbs":
        hierarchy = build_hierarchy(
            X_train, config.n_fixed, config.coarse_range_for(X_train.n_cols),
            config.levels,
        )
    setup_time = time.perf_counter() - t0

    t1 = time.perf_counter()
    if config.sampler == "gibbs":
        result = run_chain(
            X_train, y_train, spec, config.samples, config.burn_in, solver_cfg, stream
        )
        pred = predict_mean(result, X_test)
        widths = [X_train.n_cols]
        nnzs = [X_train.nnz()]
        cg_means = [result.mean_cg_iters]
    else:
        n_levels = hierarchy.n_levels
        if config.allocation == "equal":
            schedule = make_schedule(
                config.schedule, n_levels, config.samples, config.burn_in
            )
        else:
            H_post = config.samples - config.burn_in
            costs = LevelCost(C=[m.nnz() for m in hierarchy.matrices])
            if config.allocation == "cost":
                totals = allocate_cost(costs, H_post)
            else:
                costs.s2 = estimate_level_variances(
                    hierarchy, y_train, spec, solver_cfg, stream, pilot=config.pilot
                )
                totals = allocate_variance(costs, H_post)
            schedule = _consecutive_from_totals(totals, config.burn_in)
        if config.sampler == "ml":
            acc = run_ml_gibbs(
                hierarchy, y_train, spec, schedule, solver_cfg, stream,
                preconditioned=config.preconditioned,
            )
        else:
            coupling = "solves" if config.sampler == "mlcss" else "projection"
            acc = run_ml_cs(
                hierarchy, y_train, spec, schedule, solver_cfg, stream,
                coupling=coupling, preconditioned=config.preconditioned,
            )
        pred = finalize_estimate(acc, hierarchy, X_test)
        widths = hierarchy.widths()
        nnzs = [m.nnz() for m in hierarchy.matrices]
        cg_means = [float(v) for v in acc.mean_cg_iters()]
    exec_time = time.perf_counter() - t1
    rho, rmse, mae = metrics(pred, truth)
    return FoldMetrics(
        fold=fold_id,
        rho=rho,
        rmse=rmse,
        mae=mae,
        setup_time=setup_time,
        exec_time=exec_time,
        level_widths=widths,
        level_nnz=nnzs,
        mean_cg_iters=cg_means,
    )


def run_experiment(config, X=None, y=None, truth_coef=None):
    """Full cross-validated experiment. X/y may be passed in memory (tests)
    or loaded from config.data_path."""
    config.validate()
    if X is None:
        X = load_matrix(config.data_path, config.data_format)
    root = RandomStream(config.seed)
    synth_stream, fold_split_stream, *fold_streams = root.split(2 + config.folds)
    if y is None:
        if config.targets_path:
            y = load_targets(config.targets_path)
            if y.size != X.n_rows:
                raise ConfigError(
                    f"targets length {y.size} != n_rows {X.n_rows}"
                )
            truth_coef = None
        else:
            truth_coef, y = synthesize_targets(
                X, synth_stream, config.coef_variance, config.noise_variance
            )
    spec = config.model_spec(X.n_cols)
    splits = kfold_split(X.n_rows, config.folds, fold_split_stream)
    folds = []
    for i, ((train, test), fs) in enumerate(zip(splits, fold_streams)):
        try:
            folds.append(
                run_fold(X, y, truth_coef, config, spec, i, train, test, fs)
            )
        except MlgibbsError as exc:
            folds.append(
                FoldMetrics(
                    fold=i, rho=float("nan"), rmse=float("nan"), mae=float("nan"),
                    setup_time=0.0, exec_time=0.0, level_widths=[], level_nnz=[],
                    mean_cg_iters=[], error=f"{type(exc).__name__}: {exc}",
                )
            )
    ok = [f for f in folds if f.error is None]
    report = MetricsReport(config=asdict(config), folds=folds)
    if ok:
        for name in ("rho", "rmse", "mae"):
            vals = np.array([getattr(f, name) for f in ok])
            setattr(report, f"{name}_mean", float(vals.mean()))
            setattr(
                report, f"{name}_std",
                float(vals.std(ddof=1)) if len(ok) > 1 else 0.0,
            )
        report.setup_time = float(np.mean([f.setup_time for f in ok]))
        report.exec_time = float(np.mean([f.exec_time for f in ok]))
    return report


def level_variance_report(
    hierarchy, y, spec, config, stream, n_draws=200, burn=50,
    probe_indices=None, couplings=("solves", "projection"),
):
    """Per-level sample variances of predicted observations and of the
    coupled cross-level differences, at the probed observation indices.

    Returns {"levels": V[y_l] arrays, coupling: V[y_l - y_{l-1}] arrays}.
    Both couplings are merely reported, never compared.
    """
    if probe_indices is None:
        probe_indices = np.arange(min(10, hierarchy.finest.n_rows))
    probe_indices = np.asarray(probe_indices, dtype=np.int64)
    X_probe = row_subset(hierarchy.finest, probe_indices)
    specs = _level_specs(hierarchy, spec)
    n_levels = hierarchy.n_levels
    level_vars = []
    diff_vars = {c: [] for c in couplings}
    streams = stream.split(n_levels)
    for l in range(n_levels):
        sub = streams[l]
        X_l, spec_l = hierarchy.matrices[l], specs[l]
        tau, lam_v, lam_u = _gibbs.init_hyperparams(spec_l, sub)
        state = _gibbs.GibbsState(b=None, tau=tau, lam_v=lam_v, lam_u=lam_u)
        ys = []
        diffs = {c: [] for c in couplings}
        for h in range(burn + n_draws):
            if h > 0:
                state.tau, state.lam_v, state.lam_u = _gibbs.sample_hyperparams(
                    state, X_l, y, spec_l, sub
                )
            lam = _gibbs.assemble_lambda(spec_l, state.lam_v, state.lam_u)
            e1, e2 = _gibbs.draw_noise(X_l, state.tau, lam, config, sub)
            b, _ = _gibbs.solve_noise_system(
                X_l, y, state.tau, lam, e1, e2, config, x0=state.b
            )
            if h >= burn:
                ys.append(
                    spmv(X_probe, hierarchy.interpolate_to_finest(b, l))
                )
                if l >= 1:
                    P_l = hierarchy.prolongators[l - 1]
                    if "solves" in couplings:
                        X_c, spec_c = hierarchy.matrices[l - 1], specs[l - 1]
                        lam_c = _gibbs.assemble_lambda(
                            spec_c, state.lam_v, state.lam_u
                        )
                        b_c, _ = _gibbs.solve_noise_system(
                            X_c, y, state.tau, lam_c, e1, restrict(P_l, e2),
                            config,
                            x0=restrict(P_l, state.b) if state.b is not None else None,
                        )
                        d = b - prolong(P_l, b_c)
                        diffs["solves"].append(
                            spmv(X_probe, hierarchy.interpolate_to_finest(d, l))
                        )
                    if "projection" in couplings:
                        d = b - prolong(P_l, restrict(P_l, b))
                        diffs["projection"].append(
                            spmv(X_probe, hierarchy.interpolate_to_finest(d, l))
                        )
            state.b = b
        level_vars.append(np.var(np.array(ys), axis=0, ddof=1))
        if l >= 1:
            for c in couplings:
                diff_vars[c].append(np.var(np.array(diffs[c]), axis=0, ddof=1))
    out = {"probe_indices": probe_indices, "levels": level_vars}
    out.update(diff_vars)
    return out


def level_variance_csv(report, path):
    """Write the level-variance report as CSV for plotting."""
    probes = report["probe_indices"]
    with open(path, "w") as fh:
        fh.write("quantity,level," + ",".join(f"y{p}" for p in probes) + "\n")
        for l, v in enumerate(report["levels"]):
            fh.write(f"var_y,{l}," + ",".join(f"{x:.10e}" for x in v) + "\n")
        for c in ("solves", "projection"):
            if c in report:
                for i, v in enumerate(report[c], start=1):
                    fh.write(
                        f"var_diff_{c},{i}," + ",".join(f"{x:.10e}" for x in v) + "\n"
                    )
