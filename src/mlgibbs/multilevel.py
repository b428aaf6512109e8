"""Multilevel Gibbs samplers: pooled estimator, correlated-sample
telescoping estimators (coupled solves or projections), level schedules
and per-level sample allocation."""

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ConfigError, EstimatorError
from .gibbs import (
    GibbsState,
    assemble_lambda,
    draw_coefficient,
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

    def mean_cg_iters(self):
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(self.cg_solves > 0, self.cg_iters / np.maximum(self.cg_solves, 1), 0.0)


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
    plan = []
    if schedule.burn_in > 0:
        plan.append((0, schedule.burn_in, True))
    plan.extend((lvl, cnt, False) for lvl, cnt in schedule.visits if cnt > 0)
    return plan


def _new_accumulator(hierarchy, schedule, mode):
    n = hierarchy.n_levels
    scheduled = np.zeros(n, dtype=np.int64)
    scheduled[: len(schedule.totals)] += schedule.totals
    return EstimatorAccumulator(
        mode=mode,
        level_sums=[np.zeros(m.n_cols) for m in hierarchy.matrices],
        counts=np.zeros(n, dtype=np.int64),
        scheduled=scheduled,
        cg_iters=np.zeros(n, dtype=np.int64),
        cg_solves=np.zeros(n, dtype=np.int64),
    )


def _maybe_precond(hierarchy, level, spec_l, state, config, preconditioned):
    # the coarsest level has no coarser space; plain CG there
    if not preconditioned or level < 1:
        return None
    lam = assemble_lambda(spec_l, state.lam_v, state.lam_u)
    return build_two_level(
        hierarchy,
        level,
        lam / state.tau,
        dense_cap=config.precond_cap,
        smooth_steps=config.smooth_steps,
    )


def run_ml_gibbs(hierarchy, y, spec, schedule, config, stream, preconditioned=False):
    """Pooled multilevel chain: one Markov chain that visits levels per the
    schedule, interpolating/restricting b across level changes and pooling
    all kept samples into per-level sums."""
    if config is None:
        config = SolverConfig()
    specs = _level_specs(hierarchy, spec)
    acc = _new_accumulator(hierarchy, schedule, "pooled")
    state = None
    cur = None
    first_draw = True
    for lvl, count, is_burn in _visit_plan(schedule):
        if state is None:
            cur = lvl
            tau, lam_v, lam_u = init_hyperparams(specs[lvl], stream)
            state = GibbsState(b=None, tau=tau, lam_v=lam_v, lam_u=lam_u)
            skip = 0
        elif lvl != cur:
            state.b = _move_state(hierarchy, state.b, cur, lvl)
            cur = lvl
            skip = schedule.level_change_burn
        else:
            skip = 0
        X_l, spec_l = hierarchy.matrices[lvl], specs[lvl]
        for _ in range(count):
            if not first_draw:
                state.tau, state.lam_v, state.lam_u = sample_hyperparams(
                    state, X_l, y, spec_l, stream
                )
            precond = _maybe_precond(hierarchy, lvl, spec_l, state, config, preconditioned)
            b, report = draw_coefficient(X_l, y, state, spec_l, config, stream, precond)
            state.b = b
            first_draw = False
            acc.cg_iters[lvl] += report.iterations
            acc.cg_solves[lvl] += 1
            if is_burn or skip > 0:
                skip = max(0, skip - 1)
                continue
            acc.level_sums[lvl] += b
            acc.counts[lvl] += 1
    return acc


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
    d_l = b_l - P_l P_l^T b_l without a second solve.
    """
    if coupling not in ("solves", "projection"):
        raise ConfigError(f"unknown coupling {coupling!r}")
    if config is None:
        config = SolverConfig()
    specs = _level_specs(hierarchy, spec)
    acc = _new_accumulator(hierarchy, schedule, "telescoping")
    state = None
    cur = None
    first_draw = True
    for lvl, count, is_burn in _visit_plan(schedule):
        if state is None:
            cur = lvl
            tau, lam_v, lam_u = init_hyperparams(specs[lvl], stream)
            state = GibbsState(b=None, tau=tau, lam_v=lam_v, lam_u=lam_u)
            skip = 0
        elif lvl != cur:
            state.b = _move_state(hierarchy, state.b, cur, lvl)
            cur = lvl
            skip = schedule.level_change_burn
        else:
            skip = 0
        X_l, spec_l = hierarchy.matrices[lvl], specs[lvl]
        for _ in range(count):
            if not first_draw:
                state.tau, state.lam_v, state.lam_u = sample_hyperparams(
                    state, X_l, y, spec_l, stream
                )
            precond = _maybe_precond(hierarchy, lvl, spec_l, state, config, preconditioned)
            if lvl == 0:
                b, report = draw_coefficient(X_l, y, state, spec_l, config, stream, precond)
                d = b
            else:
                P_l = hierarchy.prolongators[lvl - 1]
                lam = assemble_lambda(spec_l, state.lam_v, state.lam_u)
                e1, e2 = draw_noise(X_l, state.tau, lam, config, stream)
                x0 = state.b
                b, report = solve_noise_system(
                    X_l, y, state.tau, lam, e1, e2, config, precond=precond, x0=x0
                )
                if coupling == "solves":
                    X_c, spec_c = hierarchy.matrices[lvl - 1], specs[lvl - 1]
                    lam_c = assemble_lambda(spec_c, state.lam_v, state.lam_u)
                    e2_c = restrict(P_l, e2)
                    x0_c = restrict(P_l, x0) if x0 is not None else None
                    precond_c = _maybe_precond(
                        hierarchy, lvl - 1, spec_c, state, config, preconditioned
                    )
                    b_c, report_c = solve_noise_system(
                        X_c, y, state.tau, lam_c, e1, e2_c, config,
                        precond=precond_c, x0=x0_c,
                    )
                    # the coupled solve is a level l-1 system: count it there
                    acc.cg_iters[lvl - 1] += report_c.iterations
                    acc.cg_solves[lvl - 1] += 1
                    d = b - prolong(P_l, b_c)
                else:
                    d = b - prolong(P_l, restrict(P_l, b))
            state.b = b
            first_draw = False
            acc.cg_iters[lvl] += report.iterations
            acc.cg_solves[lvl] += 1
            if is_burn or skip > 0:
                skip = max(0, skip - 1)
                continue
            acc.level_sums[lvl] += d
            acc.counts[lvl] += 1
    return acc


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
    s2 = []
    streams = stream.split(hierarchy.n_levels)
    for l, sub in enumerate(streams):
        specs = _level_specs(hierarchy, spec)
        X_l, spec_l = hierarchy.matrices[l], specs[l]
        tau, lam_v, lam_u = init_hyperparams(spec_l, sub)
        state = GibbsState(b=None, tau=tau, lam_v=lam_v, lam_u=lam_u)
        vals = []
        for h in range(pilot):
            if h > 0:
                state.tau, state.lam_v, state.lam_u = sample_hyperparams(
                    state, X_l, y, spec_l, sub
                )
            b, _ = draw_coefficient(X_l, y, state, spec_l, config, sub)
            state.b = b
            y_pred = spmv(
                hierarchy.finest, hierarchy.interpolate_to_finest(b, l)
            )
            vals.append(float(np.mean(y_pred)))
        s2.append(float(np.var(vals, ddof=1)))
    return s2
