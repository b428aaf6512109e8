"""Multilevel Gibbs samplers: pooled estimator, correlated-sample
telescoping estimators (coupled solves or projections), level schedules
and per-level sample allocation."""

import math
import warnings
from dataclasses import dataclass
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
from .hierarchy import prolong, restrict
from .solvers import SolverConfig, build_two_level
from .sparse import spmv


@dataclass
class SampleSchedule:
    """Ordered level visits (post burn-in) plus per-level totals H_l.

    Burn-in is always taken at the coarsest level before the visits.
    """

    visits: list  # [(level, chunk_size), ...]
    totals: np.ndarray
    burn_in: int
    level_change_burn: int = 0


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
    scheduled: np.ndarray  # H_l per level, for finalize validation
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


def make_schedule(kind, levels, H_total, burn_in, level_change_burn=0):
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
    H_post = H_total - burn_in
    L = levels - 1
    if kind == "consecutive":
        base, rem = divmod(H_post, levels)
        totals = [base + (1 if l < rem else 0) for l in range(levels)]
        visits = [(l, h) for l, h in enumerate(totals) if h > 0]
    else:
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
        if k < 10:
            warnings.warn(
                f"chunk size {k} < 10: the chain may not settle between level changes",
                stacklevel=2,
            )
        if name == "vcycle":
            cycle = list(range(levels)) + list(range(L - 1, 0, -1))
        else:
            cycle = _w_order(L)
        visits = []
        remaining = H_post
        while remaining > 0:
            for lvl in cycle:
                chunk = min(k, remaining)
                visits.append((lvl, chunk))
                remaining -= chunk
                if remaining == 0:
                    break
        totals = [0] * levels
        for lvl, chunk in visits:
            totals[lvl] += chunk
    return SampleSchedule(
        visits=visits,
        totals=np.asarray(totals, dtype=np.int64),
        burn_in=burn_in,
        level_change_burn=level_change_burn,
    )


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


def _move_state(hierarchy, b, cur, target):
    while cur < target:
        b = prolong(hierarchy.prolongators[cur], b)
        cur += 1
    while cur > target:
        b = restrict(hierarchy.prolongators[cur - 1], b)
        cur -= 1
    return b


def _visit_plan(schedule):
    """(level, count, keep) entries: the burn-in at the coarsest level, then
    the visits, each split where the first level_change_burn draws after a
    level change are dropped."""
    plan = [(0, schedule.burn_in, False)] if schedule.burn_in > 0 else []
    for lvl, cnt in (v for v in schedule.visits if v[1] > 0):
        drop = min(schedule.level_change_burn, cnt) if plan and plan[-1][0] != lvl else 0
        plan += [(lvl, drop, False), (lvl, cnt - drop, True)]
    return [entry for entry in plan if entry[1] > 0]


def _new_accumulator(hierarchy, schedule=None, mode="pooled"):
    n = hierarchy.n_levels
    scheduled = np.zeros(n, dtype=np.int64)
    if schedule is not None:
        scheduled[: len(schedule.totals)] += schedule.totals
    return EstimatorAccumulator(
        mode=mode,
        level_sums=[np.zeros(m.n_cols) for m in hierarchy.matrices],
        counts=np.zeros(n, dtype=np.int64),
        scheduled=scheduled,
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
    preconditioned: bool = False
    state: GibbsState = None


def _maybe_precond(chain, level, lam):
    # the coarsest level has no coarser space; plain CG there
    if not chain.preconditioned or level < 1:
        return None
    config = chain.config
    return build_two_level(
        chain.hierarchy,
        level,
        lam / chain.state.tau,
        dense_cap=config.precond_cap,
        smooth_steps=config.smooth_steps,
    )


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
    """
    chain = Chain(hierarchy, y, _level_specs(hierarchy, spec), config or SolverConfig(),
                  acc, preconditioned)
    for lvl, count, keep in plan:
        X_l, spec_l = hierarchy.matrices[lvl], chain.specs[lvl]
        if chain.state is None:
            chain.state = state = GibbsState(None, *init_hyperparams(spec_l, stream))
        elif lvl != cur:
            state.b = _move_state(hierarchy, state.b, cur, lvl)
        cur = lvl
        for _ in range(count):
            if state.b is not None:
                state.tau, state.lam_v, state.lam_u = sample_hyperparams(
                    state, X_l, y, spec_l, stream
                )
            lam = assemble_lambda(spec_l, state.lam_v, state.lam_u)
            e1, e2 = draw_noise(X_l, state.tau, lam, chain.config, stream)
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
    P_l = chain.hierarchy.prolongators[lvl - 1]
    if coupling == "projection":
        return b - prolong(P_l, restrict(P_l, b))
    state = chain.state
    lam_c = assemble_lambda(chain.specs[lvl - 1], state.lam_v, state.lam_u)
    x0_c = restrict(P_l, state.b) if state.b is not None else None
    return b - prolong(P_l, _solve(chain, lvl - 1, lam_c, e1, restrict(P_l, e2), x0_c))


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
    if not set(couplings) <= {"solves", "projection"}:
        raise ConfigError(f"unknown coupling in {couplings!r}")
    out = []
    for l, sub in enumerate(stream.split(hierarchy.n_levels)):
        ys, diffs = [], {c: [] for c in couplings}

        def probe(chain, lvl, b, e1, e2):
            # estimator hook: X_probe times the kept sample and, above level
            # 0, times each coupling's difference, interpolated to the finest
            def at(v):
                return spmv(X_probe, hierarchy.interpolate_to_finest(v, lvl))

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
    acc, plan = _new_accumulator(hierarchy, schedule, "pooled"), _visit_plan(schedule)
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
    if coupling not in ("solves", "projection"):
        raise ConfigError(f"unknown coupling {coupling!r}")
    acc, plan = _new_accumulator(hierarchy, schedule, "telescoping"), _visit_plan(schedule)
    hook = partial(_telescoping, coupling)
    return run_levels(hierarchy, y, spec, plan, config, stream, hook, acc, preconditioned)


def finalize_estimate(acc, hierarchy, X_eval):
    """Interpolate the accumulated coefficient sums to the finest space and
    multiply by X_eval once."""
    active = np.nonzero(acc.scheduled > 0)[0]
    for l in active:
        if acc.counts[l] == 0:
            raise EstimatorError(f"zero kept samples at scheduled level {l}")
    if acc.mode == "pooled":
        total = np.zeros(hierarchy.finest.n_cols)
        for l in active:
            total += hierarchy.interpolate_to_finest(acc.level_sums[l], l)
        coef = total / acc.counts[active].sum()
    else:
        coef = np.zeros(hierarchy.finest.n_cols)
        for l in active:
            coef += hierarchy.interpolate_to_finest(
                acc.level_sums[l] / acc.counts[l], l
            )
    return spmv(X_eval, coef)


def estimate_level_variances(hierarchy, y, spec, config, stream, pilot=50):
    """Pilot chains per level: s2_l is the sample variance (over pilot
    draws) of the mean predicted observation on that level."""
    probes = probe_levels(hierarchy, y, spec, config, stream, hierarchy.finest, pilot, 0)
    return [float(np.var([float(np.mean(v)) for v in ys], ddof=1)) for ys, _ in probes]
