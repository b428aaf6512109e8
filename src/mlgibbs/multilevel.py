"""Multilevel Gibbs samplers: pooled estimator, correlated-sample
telescoping estimators (coupled solves or projections), level schedules
and per-level sample allocation."""

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

import numpy as np

from .errors import ConfigError, EstimatorError
from .gibbs import (
    GibbsState,
    assemble_lambda,
    draw_noise,
    init_hyperparams,
    sample_hyperparams,
    solve_noise_system,
)
from .solvers import SolverConfig, build_two_level, factor_coarse
from .sparse import spmv

# how a telescoping chain couples level l to level l-1: a second solve, or
# the projection of the level-l draw
COUPLING_KINDS = ("solves", "projection")


@dataclass
class SampleSchedule:
    """Ordered level visits (post burn-in) over n_levels levels; totals
    holds the per-level totals H_l that the visits add up to.

    Burn-in is always taken at the coarsest level before the visits.
    """

    visits: list  # [(level, chunk_size), ...]
    n_levels: int
    burn_in: int
    totals: np.ndarray = field(init=False)

    def __post_init__(self):
        self.totals = np.zeros(self.n_levels, dtype=np.int64)
        for lvl, chunk in self.visits:
            self.totals[lvl] += chunk


@dataclass
class LevelCost:
    """Per-level sampling cost C_l (nnz of X_l) and optional pilot variance."""

    C: list
    s2: list | None = None


@dataclass
class EstimatorAccumulator:
    """Per-level sums of kept coefficient samples.

    pooled mode: level_sums[l] accumulates b_l draws. telescoping mode:
    level_sums[0] accumulates coarse draws, level_sums[l>=1] the coupled
    differences d_l.
    """

    mode: str  # "pooled" | "telescoping"
    level_sums: list
    counts: np.ndarray
    cg_iters: np.ndarray = None
    cg_solves: np.ndarray = None
    cg_unconverged: np.ndarray = None  # solves that stopped at max_iter
    trace: list = None  # (tau, lam_v, lam_u) per draw, when asked for

    def mean_cg_iters(self):
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(self.cg_solves > 0, self.cg_iters / np.maximum(self.cg_solves, 1), 0.0)

    def count_solve(self, level, report):
        self.cg_iters[level] += report.iterations
        self.cg_solves[level] += 1
        self.cg_unconverged[level] += not report.converged


def parse_schedule(kind):
    """(name, chunk size) of a schedule kind: ("consecutive", None),
    ("vcycle", k) or ("wcycle", k); ConfigError when it does not parse."""
    if kind == "consecutive":
        return kind, None
    name, _, karg = kind.partition(":")
    name = name.replace("_", "")
    if name not in ("vcycle", "wcycle") or not karg:
        raise ConfigError(f"unknown schedule kind {kind!r}")
    try:
        k = int(karg)
    except ValueError:
        raise ConfigError(f"bad chunk size in {kind!r}") from None
    if k < 1:
        raise ConfigError(f"chunk size must be >= 1, got {k}")
    return name, k


def make_schedule(kind, levels, H_total, burn_in):
    """Build the level visit schedule.

    kind: "consecutive", "vcycle:k" or "wcycle:k". Consecutive splits the
    post-burn-in budget equally over levels in ascending order (remainder
    to the coarsest levels first); cycles repeat their level sequence in
    chunks of k, the last cycle filled partially until the budget is
    exhausted.
    """
    if levels < 1:
        raise ConfigError(f"levels must be >= 1, got {levels}")
    if not H_total > burn_in >= 0:
        raise ConfigError(f"need H_total > burn_in >= 0, got {H_total}, {burn_in}")
    name, k = parse_schedule(kind)
    H_post = H_total - burn_in
    L = levels - 1
    if name == "consecutive":
        base, rem = divmod(H_post, levels)
        visits = [(l, h) for l in range(levels) if (h := base + (l < rem)) > 0]
    else:
        if k < 10:
            warnings.warn(
                f"chunk size {k} < 10: the chain may not settle between level changes",
                stacklevel=2,
            )
        if name == "vcycle":
            cycle = list(range(levels)) + list(range(L - 1, 0, -1))
        else:
            cycle = _w_order(L)
        visits = [
            (cycle[i % len(cycle)], min(k, H_post - start))
            for i, start in enumerate(range(0, H_post, k))
        ]
    return SampleSchedule(visits, levels, burn_in)


def _w_order(l):
    """W-cycle level order with decreasing peaks: rise from the coarsest
    level to peak p and back down to 1, for p = l, l-1, ..., 1. Three
    levels give [0, 1, 2, 1, 0, 1], the literal W shape."""
    if l <= 0:
        return [0]
    cycle = []
    for p in range(l, 0, -1):
        cycle.extend(range(p))
        cycle.extend(range(p, 0, -1))
    return cycle


def _sqrt_fraction(fr):
    """Exact rational square root when fr is a perfect square, float-backed
    Fraction otherwise."""
    num, den = fr.numerator, fr.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return Fraction(math.sqrt(num / den))


def allocate_cost(costs, H_total):
    """H_l = floor((1/C_l) / sum_k (1/C_k) * H_total)."""
    C = [Fraction(c) for c in costs.C]
    inv = [1 / c for c in C]
    total = sum(inv)
    return [int(w / total * H_total) for w in inv]


def allocate_variance(costs, H_total):
    """H_l = floor(sqrt(s2_l/C_l) / sum_k sqrt(s2_k/C_k) * H_total)."""
    if costs.s2 is None:
        raise ConfigError("allocate_variance needs pilot variances")
    if all(s == 0 for s in costs.s2):
        raise ConfigError("all pilot variances are zero")
    w = [
        _sqrt_fraction(Fraction(s) / Fraction(c))
        for s, c in zip(costs.s2, costs.C)
    ]
    total = sum(w)
    return [int(x / total * H_total) for x in w]


def _level_specs(hierarchy, spec):
    out = []
    for m, gb in zip(hierarchy.matrices, hierarchy.group_boundaries):
        out.append(spec.at_width(gb, m.n_cols - gb))
    return out


def _visit_plan(schedule):
    """(level, count, keep) entries: the burn-in at the coarsest level, then
    one kept entry per visit."""
    plan = [(0, schedule.burn_in, False)] + [(lvl, cnt, True) for lvl, cnt in schedule.visits]
    return [entry for entry in plan if entry[1] > 0]


def _new_accumulator(hierarchy, mode="pooled"):
    n = hierarchy.n_levels
    return EstimatorAccumulator(
        mode=mode,
        level_sums=[np.zeros(m.n_cols) for m in hierarchy.matrices],
        counts=np.zeros(n, dtype=np.int64),
        cg_iters=np.zeros(n, dtype=np.int64),
        cg_solves=np.zeros(n, dtype=np.int64),
        cg_unconverged=np.zeros(n, dtype=np.int64),
    )


@dataclass
class Chain:
    """The chain as an estimator hook sees it. state holds the
    hyperparameters of the draw in hand; its b is still the previous
    sample."""

    hierarchy: object
    y: np.ndarray
    specs: list
    config: SolverConfig
    acc: EstimatorAccumulator
    state: GibbsState = None
    coarse_factor: tuple = None  # of the draw in hand when preconditioned


def _maybe_precond(chain, level, lam):
    if chain.coarse_factor is None:
        return None
    return build_two_level(chain.hierarchy, level, lam / chain.state.tau, chain.coarse_factor)


def _solve(chain, level, lam, e1, e2, x0):
    """One noise-injection solve at `level`, counted there."""
    b, report = solve_noise_system(
        chain.hierarchy.matrices[level], chain.y, chain.state.tau, lam, e1, e2,
        chain.config, precond=_maybe_precond(chain, level, lam), x0=x0,
    )
    chain.acc.count_solve(level, report)
    return b


def run_levels(hierarchy, y, spec, plan, config, stream, on_kept, acc, preconditioned=False):
    """The one Markov chain every sampler runs, along a visit plan of
    (level, count, keep) entries; returns acc.

    The hyperparameters start from the prior at the first level visited,
    and b is interpolated or restricted across level changes. Each draw
    updates the hyperparameters (all but the very first draw), draws the
    noise and does one ridge solve, which acc counts at its level. Only
    kept draws reach the estimator hook, on_kept(chain, level, b, e1, e2).
    Preconditioned, each draw factors the coarsest-level system once and
    every solve of the draw shares that factor; a one-level hierarchy has
    no coarse space and runs plain CG.
    """
    chain = Chain(hierarchy, y, _level_specs(hierarchy, spec), config or SolverConfig(), acc)
    precond = preconditioned and hierarchy.n_levels >= 2
    for lvl, count, keep in plan:
        X_l, spec_l = hierarchy.matrices[lvl], chain.specs[lvl]
        if chain.state is None:
            chain.state = state = GibbsState(None, *init_hyperparams(spec_l, stream))
        elif lvl != cur:
            state.b = hierarchy.transfer(state.b, cur, lvl)
        cur = lvl
        for _ in range(count):
            if state.b is not None:
                state.tau, state.lam_v, state.lam_u = sample_hyperparams(
                    state, X_l, y, spec_l, stream
                )
            if precond:
                # Lambda_0/tau: the level-l shift restricted to level 0, since
                # no cluster mixes fixed and random columns
                lam0 = assemble_lambda(chain.specs[0], state.lam_v, state.lam_u)
                chain.coarse_factor = factor_coarse(hierarchy, lam0 / state.tau)
            lam = assemble_lambda(spec_l, state.lam_v, state.lam_u)
            e1, e2 = draw_noise(X_l, state.tau, lam, stream)
            b = _solve(chain, lvl, lam, e1, e2, state.b)
            if acc.trace is not None:
                acc.trace.append((state.tau, state.lam_v, state.lam_u))
            if keep:
                on_kept(chain, lvl, b, e1, e2)
            state.b = b
    return acc


def _coupled_difference(chain, lvl, b, e1, e2, coupling):
    """d_l = b_l - P_l b_{l-1}. coupling="solves" re-solves the level l-1
    system with the draw's tau, lam_v, lam_u and e1 and with e2
    restricted, and counts that solve at level l-1; coupling="projection"
    takes b_{l-1} = P_l^T b_l without a second solve."""
    h, c = chain.hierarchy, lvl - 1
    if coupling == "projection":
        return b - h.transfer(h.transfer(b, lvl, c), c, lvl)
    state = chain.state
    lam_c = assemble_lambda(chain.specs[c], state.lam_v, state.lam_u)
    x0_c = h.transfer(state.b, lvl, c) if state.b is not None else None
    return b - h.transfer(_solve(chain, c, lam_c, e1, h.transfer(e2, lvl, c), x0_c), c, lvl)


def _pooled(chain, lvl, b, e1, e2):
    """Estimator hook: pool the kept samples per level."""
    chain.acc.level_sums[lvl] += b
    chain.acc.counts[lvl] += 1


def _telescoping(coupling, chain, lvl, b, e1, e2):
    """Estimator hook: per-level sums of the kept level-0 samples and of the
    coupled differences d_l above."""
    d = b if lvl == 0 else _coupled_difference(chain, lvl, b, e1, e2, coupling)
    _pooled(chain, lvl, d, e1, e2)


def probe_levels(hierarchy, y, spec, config, stream, X_probe, n_draws, burn, couplings=()):
    """One chain per level, on stream.split(n_levels): burn discarded draws,
    then n_draws probed by X_probe. Returns per level the (n_draws, rows)
    array of predicted observations and {coupling: array of differences}."""
    if not set(couplings) <= set(COUPLING_KINDS):
        raise ConfigError(f"unknown coupling in {couplings!r}")
    out = []
    for l, sub in enumerate(stream.split(hierarchy.n_levels)):
        ys, diffs = [], {c: [] for c in couplings}

        def probe(chain, lvl, b, e1, e2):
            # estimator hook: X_probe times the kept sample and, above level
            # 0, times each coupling's difference, interpolated to the finest
            def at(v):
                return spmv(X_probe, hierarchy.transfer(v, lvl, hierarchy.n_levels - 1))

            ys.append(at(b))
            if lvl >= 1:
                for c in couplings:
                    diffs[c].append(at(_coupled_difference(chain, lvl, b, e1, e2, c)))

        plan = [(l, burn, False), (l, n_draws, True)]
        run_levels(hierarchy, y, spec, plan, config, sub, probe, _new_accumulator(hierarchy))
        out.append((np.array(ys), {c: np.array(v) for c, v in diffs.items()}))
    return out


def run_pooled(hierarchy, y, spec, schedule, config, stream, preconditioned=False, trace=False):
    """Pooled chain: one Markov chain that visits levels per the schedule,
    interpolating/restricting b across level changes and pooling all kept
    samples into per-level sums. With trace, acc.trace lists the
    (tau, lam_v, lam_u) of every draw, discarded ones included."""
    acc, plan = _new_accumulator(hierarchy, "pooled"), _visit_plan(schedule)
    acc.trace = [] if trace else None
    return run_levels(hierarchy, y, spec, plan, config, stream, _pooled, acc, preconditioned)


def run_ml_gibbs(hierarchy, y, spec, schedule, config, stream, preconditioned=False):
    """Pooled multilevel chain: run_pooled under the name of the `ml`
    sampler, which the one-level `gibbs` sampler does not run under."""
    return run_pooled(hierarchy, y, spec, schedule, config, stream, preconditioned)


def run_ml_cs(
    hierarchy,
    y,
    spec,
    schedule,
    config,
    stream,
    coupling="solves",
    preconditioned=False,
):
    """Telescoping multilevel chain with correlated cross-level samples.

    Level-0 visits contribute plain coarse samples. At level l >= 1,
    coupling="solves" re-solves the noise-injection system on level l-1
    with the same tau, lam_v, lam_u and e1 and with e2 restricted, and
    stores d_l = b_l - P_l b_{l-1}; coupling="projection" stores
    d_l = b_l - P_l P_l^T b_l without a second solve. Discarded draws make
    no coupled solve.
    """
    if coupling not in COUPLING_KINDS:
        raise ConfigError(f"unknown coupling {coupling!r}")
    acc, plan = _new_accumulator(hierarchy, "telescoping"), _visit_plan(schedule)
    hook = partial(_telescoping, coupling)
    return run_levels(hierarchy, y, spec, plan, config, stream, hook, acc, preconditioned)


def finalize_estimate(acc, hierarchy, X_eval):
    """Interpolate the accumulated coefficient sums to the finest space and
    multiply by X_eval once. EstimatorError when the pooled chain kept no
    draw, or a telescoping sum misses a level."""
    L = hierarchy.n_levels - 1
    kept = np.flatnonzero(acc.counts)
    if acc.mode == "pooled":
        if kept.size == 0:
            raise EstimatorError("zero kept samples on every level")
        total = np.zeros(hierarchy.finest.n_cols)
        for l in kept:
            total += hierarchy.transfer(acc.level_sums[l], l, L)
        coef = total / acc.counts.sum()
    else:
        if kept.size <= L:
            missing = np.flatnonzero(acc.counts == 0).tolist()
            raise EstimatorError(f"zero kept samples at telescoping level(s) {missing}")
        coef = np.zeros(hierarchy.finest.n_cols)
        for l in kept:
            coef += hierarchy.transfer(acc.level_sums[l] / acc.counts[l], l, L)
    return spmv(X_eval, coef)


def estimate_level_variances(hierarchy, y, spec, config, stream, pilot=50):
    """Pilot chains per level: s2_l is the sample variance (over pilot
    draws) of the mean predicted observation on that level."""
    probes = probe_levels(hierarchy, y, spec, config, stream, hierarchy.finest, pilot, 0)
    return [float(np.var([float(np.mean(v)) for v in ys], ddof=1)) for ys, _ in probes]
