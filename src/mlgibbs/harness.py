"""Data ingestion, synthetic targets, cross-validation, metrics and
experiment orchestration."""

import json
import logging
import math
import numbers
import os
import time
import warnings
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from .errors import ConfigError, MlgibbsError, ParseError
from .gibbs import PRIOR_FIELDS, MixedModelSpec
from .hierarchy import LevelHierarchy, build_hierarchy
from .multilevel import (
    COUPLING_KINDS,
    allocate_cost,
    allocate_variance,
    estimate_level_variances,
    finalize_estimate,
    make_schedule,
    parse_schedule,
    probe_levels,
    run_ml_cs,
    run_ml_gibbs,
    run_pooled,
    visit_plan,
)
from .rng import RandomStream
from .solvers import SolverConfig
from .sparse import _from_arrays, from_dense, row_subset, spmv


SAMPLER_KINDS = ("gibbs", "ml", "mlcss", "mlcsp")
ALLOCATIONS = ("equal", "cost", "var")
COUPLINGS = dict(zip(("mlcss", "mlcsp"), COUPLING_KINDS))
log = logging.getLogger("mlgibbs")


# ---------------------------------------------------------------------------
# ingestion

def load_matrix(path, fmt=None):
    """Load a sparse matrix from a MatrixMarket coordinate file or a dense
    CSV. Format inferred from the extension when not given."""
    path = str(path)
    if fmt is None:
        fmt = "dense_csv" if path.endswith(".csv") else "matrix_market"
    if fmt not in MATRIX_FORMATS:
        raise ConfigError(f"unknown matrix format {fmt!r}")
    try:
        return MATRIX_FORMATS[fmt](path)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from exc


# Largest row or column count a MatrixMarket size line may declare. The
# matrix's row and column offsets, 8 bytes per row and per column, are
# sized from the size line alone, before any entry is read; this is also
# the largest count scipy's 32-bit sparse indices hold.
MAX_DIM = 2**31 - 1

_MM_ENTRY = np.dtype([("row", np.int64), ("col", np.int64), ("value", np.float64)])


def _load_matrix_market(path):
    """Coordinate real general MatrixMarket file. The header is walked line
    by line up to the size line; the entries are parsed by one numpy call
    and checked as arrays. Duplicate entries are summed in file order."""
    with open(path, encoding="utf-8") as fh:
        try:
            lines = fh.read().split("\n")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text: {exc}") from None
    if lines[-1] == "":
        lines.pop()
    dims = None
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
        if len(parts) != 3:
            raise ParseError(f"expected 'rows cols nnz', got {line!r}", lineno)
        try:
            n_rows, n_cols, expected = (int(p) for p in parts)
        except ValueError:
            raise ParseError(f"non-integer size line {line!r}", lineno) from None
        # the CSR assembly keys each entry by row * n_cols + col in int64
        sizes = (n_rows, n_cols, expected)
        if min(sizes) < 0 or max(*sizes, n_rows * n_cols) >= 2**63:
            raise ParseError(f"size line {line!r} is negative or past int64", lineno)
        if max(n_rows, n_cols) > MAX_DIM:
            raise ParseError(f"size line {line!r} has a side past {MAX_DIM}", lineno)
        dims = (n_rows, n_cols)
        break
    if dims is None:
        raise ParseError("missing size line", len(lines))
    body = lines[lineno:]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an entry block may be empty
            entries = np.loadtxt(body, dtype=_MM_ENTRY, comments="%", ndmin=1)
    except ValueError as exc:
        raise _entry_error(body, lineno, dims, str(exc)) from None
    rows, cols, vals = entries["row"], entries["col"], entries["value"]
    in_range = (rows >= 1) & (rows <= n_rows) & (cols >= 1) & (cols <= n_cols)
    if not (in_range.all() and np.isfinite(vals).all()):
        raise _entry_error(body, lineno, dims, "out-of-range or non-finite entry")
    if vals.size != expected:
        raise ParseError(f"declared {expected} entries, found {vals.size}", len(lines))
    return _from_arrays(n_rows, n_cols, rows - 1, cols - 1, vals)


def _entry_error(body, offset, dims, message):
    """ParseError for the first malformed, out-of-range or non-finite
    entry line of `body`, which starts after line `offset`; `message`,
    with no line, if the scan finds none."""
    for lineno, raw in enumerate(body, start=offset + 1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        parts = line.split()
        if len(parts) != 3:
            return ParseError(f"expected 'row col value', got {line!r}", lineno)
        try:
            i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            return ParseError(f"malformed entry {line!r}", lineno)
        if not (1 <= i <= dims[0] and 1 <= j <= dims[1]):
            return ParseError(f"index ({i}, {j}) out of range {dims}", lineno)
        if not math.isfinite(v):
            return ParseError(f"non-finite value {line!r}", lineno)
    return ParseError(message)


def _load_dense_csv(path):
    try:
        dense = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    _check_finite(path, dense)
    return from_dense(dense)


def _check_finite(path, values):
    """Raise ParseError naming the first line of the comma-separated file
    `path` that holds a nan or inf, if `values` (its parsed content) does."""
    if np.isfinite(values).all():
        return
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.split("#", 1)[0].split(",")
            if not all(math.isfinite(float(f)) for f in fields if f.strip()):
                raise ParseError(f"{path}: non-finite value", lineno)
    raise ParseError(f"{path}: non-finite value")


MATRIX_FORMATS = {"matrix_market": _load_matrix_market, "dense_csv": _load_dense_csv}


def save_matrix_market(path, A):
    """Coordinate real general MatrixMarket file; `%.17g` values read
    back to the same bits."""
    row_ids = np.repeat(np.arange(A.n_rows), np.diff(A.row_offsets))
    np.savetxt(
        path,
        np.column_stack([row_ids + 1, A.col_indices + 1, A.values]),
        fmt=["%d", "%d", "%.17g"],
        header=(
            "%%MatrixMarket matrix coordinate real general\n"
            f"{A.n_rows} {A.n_cols} {A.nnz()}"
        ),
        comments="",
    )


def load_targets(path):
    try:
        y = np.loadtxt(path, delimiter=",", ndmin=1)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if y.ndim != 1:
        raise ParseError(f"{path}: {y.shape[1]} columns, expected one target per line")
    _check_finite(path, y)
    return y


# ---------------------------------------------------------------------------
# evaluation protocol

def kfold_split(n, folds, stream):
    """Random disjoint near-equal test sets covering all rows."""
    if folds > n:
        raise ConfigError(f"folds={folds} > n={n}")
    perm = stream.permutation(n)
    # the first n % folds test sets hold one row more
    return [(np.setdiff1d(perm, test), np.sort(test)) for test in np.array_split(perm, folds)]


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
    data_path: str | os.PathLike = None
    data_format: str = None
    targets_path: str | os.PathLike = None
    n_fixed: int = 0
    alpha_e: float = MixedModelSpec.alpha_e
    beta_e: float = MixedModelSpec.beta_e
    alpha_v: float = MixedModelSpec.alpha_v
    beta_v: float = MixedModelSpec.beta_v
    alpha_u: float = MixedModelSpec.alpha_u
    beta_u: float = MixedModelSpec.beta_u
    sampler: str = "gibbs"
    preconditioned: bool = False
    samples: int = 2200
    burn_in: int = 200
    schedule: str = "consecutive"
    allocation: str = "equal"  # one of ALLOCATIONS
    levels: int = 3
    coarse_range: tuple = (None, None)
    folds: int = 5
    seed: int = 0
    cg_tol: float = SolverConfig.tol
    cg_max_iter: int = SolverConfig.max_iter
    coef_variance: float = 10.0
    noise_variance: float = 1000.0
    pilot: int = 50

    @classmethod
    def from_json(cls, path):
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from exc
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: the config must be a JSON object")
        unknown = sorted(set(raw) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError(f"{path}: unknown config keys: {', '.join(unknown)}")
        cfg = cls(**raw)
        if isinstance(cfg.coarse_range, list):
            cfg.coarse_range = tuple(cfg.coarse_range)
        return cfg

    def validate(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (value is None and f.default is None or _fits(value, f.type)):
                kind = getattr(f.type, "__name__", f.type)
                raise ConfigError(f"{f.name} must be of type {kind}, got {value!r}")
        if self.sampler not in SAMPLER_KINDS:
            raise ConfigError(f"unknown sampler {self.sampler!r}")
        if self.folds < 2:
            raise ConfigError("folds must be >= 2")
        if self.allocation not in ALLOCATIONS:
            raise ConfigError(f"unknown allocation {self.allocation!r}")
        if self.allocation != "equal" and self.schedule != "consecutive":
            raise ConfigError("cost/var allocation requires the consecutive schedule")
        for p in PRIOR_FIELDS:
            if not 0 < getattr(self, p) < math.inf:
                raise ConfigError(f"prior parameter {p} must be positive and finite")
        for v in ("coef_variance", "noise_variance"):
            if not 0 <= getattr(self, v) < math.inf:
                raise ConfigError(f"{v} must be >= 0 and finite, got {getattr(self, v)}")
        parse_schedule(self.schedule)
        if not self.samples > self.burn_in >= 0:
            raise ConfigError(
                f"need samples > burn_in >= 0, got {self.samples}, {self.burn_in}"
            )
        for name, least in (("levels", 1), ("seed", 0), ("n_fixed", 0), ("pilot", 2)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}, got {getattr(self, name)}")
        # a tolerance of 1 or more stops every solve at its start; NaN fails too
        if not 0 <= self.cg_tol < 1:
            raise ConfigError(f"cg_tol must be in [0, 1), got {self.cg_tol}")
        if self.cg_max_iter is not None and self.cg_max_iter < 1:
            raise ConfigError(f"cg_max_iter must be >= 1, got {self.cg_max_iter}")
        lo, hi = self.coarse_range
        if any(v is not None and v < 1 for v in (lo, hi)) or (
            None not in (lo, hi) and lo > hi
        ):
            raise ConfigError(f"coarse_range must satisfy 1 <= lo <= hi, got {lo}, {hi}")

    def coarse_range_for(self, n_cols):
        """The configured coarsest-width range [lo, hi]; an unset hi is
        n_cols // 3 and an unset lo is 0.6 hi (both at least 1)."""
        lo, hi = self.coarse_range
        if hi is None:
            hi = max(1, n_cols // 3)
        if lo is None:
            lo = max(1, int(hi * 0.6))
        return lo, hi

    def solver_config(self):
        return SolverConfig(tol=self.cg_tol, max_iter=self.cg_max_iter)

    def model_spec(self, n_cols):
        """The mixed-model spec of an n_cols-wide matrix under this
        config's column split and priors."""
        priors = {p: getattr(self, p) for p in PRIOR_FIELDS}
        return MixedModelSpec(self.n_fixed, n_cols - self.n_fixed, **priors)


def _fits(value, kind):
    """Whether a config value has its field's type: ints are not bools,
    floats may be ints, and coarse_range is a pair of ints or Nones."""
    if kind is tuple:
        return (isinstance(value, (tuple, list)) and len(value) == 2
                and all(v is None or _fits(v, int) for v in value))
    if isinstance(value, (bool, np.bool_)):
        return kind is bool
    return isinstance(value, {int: numbers.Integral, float: numbers.Real}.get(kind, kind))


def synthesize_targets(X, stream, coef_variance=ExperimentConfig.coef_variance,
                       noise_variance=ExperimentConfig.noise_variance):
    """b_true ~ N(0, coef_variance I), e ~ N(0, noise_variance I),
    y = X b_true + e. b_true is retained for noiseless evaluation."""
    b_true = stream.normal_vector(X.n_cols, 0.0, coef_variance)
    e = stream.normal_vector(X.n_rows, 0.0, noise_variance)
    return b_true, spmv(X, b_true) + e


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
    cg_unconverged: list = field(default_factory=list)  # per level


def _json_value(value):
    """A config value that json does not write itself: a path as its
    string, a numpy scalar as the Python number it holds."""
    if isinstance(value, os.PathLike):
        return os.fspath(value)
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


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

    @property
    def cg_unconverged(self):
        """CG solves, over all folds and levels, that stopped at max_iter."""
        return sum(sum(f.cg_unconverged) for f in self.folds)

    def to_json(self):
        text = json.dumps({
            "config": self.config,
            "folds": [asdict(f) for f in self.folds],
            "rho": {"mean": self.rho_mean, "std": self.rho_std},
            "rmse": {"mean": self.rmse_mean, "std": self.rmse_std},
            "mae": {"mean": self.mae_mean, "std": self.mae_std},
            "setup_time": self.setup_time,
            "exec_time": self.exec_time,
            "cg_unconverged": self.cg_unconverged,
        }, default=_json_value)
        # standard JSON has no NaN (a failed fold's metrics, an undefined
        # rho) or inf: write them as null
        return json.dumps(json.loads(text, parse_constant=lambda _: None), indent=2)

    def to_text(self):
        lines = [
            f"sampler     {self.config.get('sampler')}"
            + ("+precond" if self.config.get("preconditioned") else ""),
        ]
        if self.rmse_mean is None:  # no fold succeeded
            lines.append(f"failed      all {len(self.folds)} folds")
        else:
            lines += [
                f"setup (s)   {self.setup_time:.3e}",
                f"exec. (s)   {self.exec_time:.3e}",
                f"rho         {self.rho_mean:.3f} ({self.rho_std:.3f})",
                f"RMSE        {self.rmse_mean:.3e} ({self.rmse_std:.3e})",
                f"MAE         {self.mae_mean:.3e} ({self.mae_std:.3e})",
            ]
            failed = [f for f in self.folds if f.error is not None]
            if failed:
                causes = "; ".join(f"fold {f.fold}: {f.error}" for f in failed)
                lines.append(
                    f"failed      {len(failed)} of {len(self.folds)} folds ({causes})"
                )
        lines.append(f"CG unconv.  {self.cg_unconverged}")
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


def _fold_schedule(config, hierarchy, y, spec, solver_cfg, stream):
    """The fold's visit plan. A one-level hierarchy takes all its
    draws consecutively at its one level, whatever the schedule and
    allocation settings; on more levels the variance allocation first runs
    a pilot chain per level."""
    if hierarchy.n_levels == 1:
        return make_schedule("consecutive", 1, config.samples, config.burn_in)
    if config.allocation == "equal":
        return make_schedule(
            config.schedule, hierarchy.n_levels, config.samples, config.burn_in
        )
    H_post = config.samples - config.burn_in
    C = [m.nnz() for m in hierarchy.matrices]
    if config.allocation == "cost":
        totals = allocate_cost(C, H_post)
    else:
        s2 = estimate_level_variances(
            hierarchy, y, spec, solver_cfg, stream, pilot=config.pilot
        )
        totals = allocate_variance(C, s2, H_post)
    return visit_plan(config.burn_in, enumerate(totals))


def run_fold(X, y, truth_coef, config, spec, fold_id, train, test, stream):
    """One CV fold: hierarchy build on training rows, sampling, metrics on
    held-out rows. truth_coef is the noiseless synthetic coefficient vector
    or None when real targets are used. The single-level sampler is the
    pooled chain on the one-level hierarchy [X_train]."""
    X_train = row_subset(X, train)
    X_test = row_subset(X, test)
    y_train = y[train]
    truth = spmv(X_test, truth_coef) if truth_coef is not None else y[test]
    solver_cfg = config.solver_config()
    t0 = time.perf_counter()
    if config.sampler == "gibbs":
        hierarchy = LevelHierarchy([X_train], [], [config.n_fixed])
    else:
        hierarchy = build_hierarchy(
            X_train, config.n_fixed, config.coarse_range_for(X_train.n_cols),
            config.levels,
        )
    setup_time = time.perf_counter() - t0

    t1 = time.perf_counter()
    plan = _fold_schedule(config, hierarchy, y_train, spec, solver_cfg, stream)
    args = (hierarchy, y_train, spec, plan, solver_cfg, stream)
    if config.sampler in COUPLINGS:
        coupling = COUPLINGS[config.sampler]
        acc = run_ml_cs(*args, coupling=coupling, preconditioned=config.preconditioned)
    else:
        # `gibbs` is the pooled chain itself, `ml` the same chain under the
        # multilevel sampler's name
        pooled = run_pooled if config.sampler == "gibbs" else run_ml_gibbs
        acc = pooled(*args, preconditioned=config.preconditioned)
    pred = finalize_estimate(acc, hierarchy, X_test)
    exec_time = time.perf_counter() - t1
    if acc.cg_unconverged.any():
        log.warning("fold %d: CG stopped unconverged at max_iter in %s", fold_id, ", ".join(
            f"{n} solves at level {l}" for l, n in enumerate(acc.cg_unconverged) if n))
    rho, rmse, mae = metrics(pred, truth)
    return FoldMetrics(
        fold=fold_id,
        rho=rho,
        rmse=rmse,
        mae=mae,
        setup_time=setup_time,
        exec_time=exec_time,
        level_widths=hierarchy.widths(),
        level_nnz=[m.nnz() for m in hierarchy.matrices],
        mean_cg_iters=[float(v) for v in acc.mean_cg_iters()],
        cg_unconverged=acc.cg_unconverged.tolist(),
    )


def prepare_experiment(config, X=None, y=None, truth_coef=None):
    """Validate the config and gather its experiment's inputs: X, y and
    the noiseless coefficients (None for real targets), each loaded or
    synthesized unless given, the model spec, and the seed's child
    streams: 0 for synthesis, 1 for the fold split, then one per fold."""
    config.validate()
    if X is None:
        if config.data_path is None:
            raise ConfigError("no input matrix: give --data or data_path")
        X = load_matrix(config.data_path, config.data_format)
    if config.n_fixed > X.n_cols:
        raise ConfigError(f"n_fixed={config.n_fixed} exceeds the {X.n_cols} columns")
    # metrics scores a test fold of two rows or more, and the smallest has
    # n_rows // folds
    if X.n_rows < 2 * config.folds:
        raise ConfigError(f"{X.n_rows} rows leave a test fold under 2 rows at "
                          f"folds={config.folds}")
    streams = RandomStream(config.seed).split(2 + config.folds)
    if y is None:
        if config.targets_path:
            y = load_targets(config.targets_path)
            truth_coef = None
        else:
            truth_coef, y = synthesize_targets(
                X, streams[0], config.coef_variance, config.noise_variance
            )
    if np.size(y) != X.n_rows:
        raise ConfigError(f"targets length {np.size(y)} != n_rows {X.n_rows}")
    return X, y, truth_coef, config.model_spec(X.n_cols), streams


def run_experiment(config, X=None, y=None, truth_coef=None):
    """Full cross-validated experiment. X/y may be passed in memory (tests)
    or loaded from config.data_path."""
    X, y, truth_coef, spec, streams = prepare_experiment(config, X, y, truth_coef)
    _, fold_split_stream, *fold_streams = streams
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
    probe_indices=None, couplings=COUPLING_KINDS,
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
    probes = probe_levels(
        hierarchy, y, spec, config, stream, X_probe, n_draws, burn, couplings
    )
    out = {
        "probe_indices": probe_indices,
        "levels": [np.var(ys, axis=0, ddof=1) for ys, _ in probes],
    }
    for c in couplings:
        out[c] = [np.var(diffs[c], axis=0, ddof=1) for _, diffs in probes[1:]]
    return out


def open_output(path):
    """open(path, "w"), or ConfigError naming a path it cannot open."""
    try:
        return open(path, "w")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def level_variance_csv(report, path):
    """Write the level-variance report as CSV for plotting."""
    probes = report["probe_indices"]
    with open_output(path) as fh:
        fh.write("quantity,level," + ",".join(f"y{p}" for p in probes) + "\n")
        for l, v in enumerate(report["levels"]):
            fh.write(f"var_y,{l}," + ",".join(f"{x:.10e}" for x in v) + "\n")
        for c in COUPLING_KINDS:
            if c in report:
                for i, v in enumerate(report[c], start=1):
                    fh.write(
                        f"var_diff_{c},{i}," + ",".join(f"{x:.10e}" for x in v) + "\n"
                    )
