"""Multilevel Gibbs samplers: pooled estimator, correlated-sample
telescoping estimators (coupled solves or projections), level schedules
and per-level sample allocation."""

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from .errors import ConfigError, EstimatorError, NumericalError
from .gibbs import (
    GibbsState,
    assemble_lambda,
    draw_noise,
    init_hyperparams,
    sample_hyperparams,
    solve_noise_system,
)
from .solvers import SolverConfig, exact_solve, preconditioner
from .sparse import spmv

# how a telescoping chain couples level l to level l-1: a second solve, or
# the projection of the level-l draw
COUPLING_KINDS = ("solves", "projection")


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
        return np.where(self.cg_solves > 0, self.cg_iters / np.maximum(self.cg_solves, 1), 0.0)

    def add(self, level, v):
        self.level_sums[level] += v
        self.counts[level] += 1

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


def visit_plan(burn_in, visits):
    """The (level, count, keep) entries run_levels follows: the burn-in at
    the coarsest level, then one kept entry per (level, count) visit, with
    zero counts left out."""
    plan = [(0, burn_in, False)] + [(lvl, cnt, True) for lvl, cnt in visits]
    return [entry for entry in plan if entry[1] > 0]


def make_schedule(kind, levels, H_total, burn_in):
    """The visit plan of a level schedule.

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
        visits = [(l, base + (l < rem)) for l in range(levels)]
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
    return visit_plan(burn_in, visits)


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


def _floor_shares(weights, H_total):
    """H_l = floor(w_l / sum_k w_k * H_total) for Fraction weights w."""
    total = sum(weights)
    return [int(w / total * H_total) for w in weights]


def allocate_cost(C, H_total):
    """H_l = floor((1/C_l) / sum_k (1/C_k) * H_total) for per-level costs
    C_l (nnz of X_l)."""
    return _floor_shares([1 / Fraction(c) for c in C], H_total)


def allocate_variance(C, s2, H_total):
    """H_l = floor(sqrt(s2_l/C_l) / sum_k sqrt(s2_k/C_k) * H_total) for
    per-level costs C_l and pilot variances s2_l."""
    if all(s == 0 for s in s2):
        raise ConfigError("all pilot variances are zero")
    return _floor_shares(
        [_sqrt_fraction(Fraction(s) / Fraction(c)) for s, c in zip(s2, C)], H_total
    )


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


def run_levels(hierarchy, y, spec, plan, config, stream, on_kept, acc, preconditioned=False,
               couplings=()):
    """The one Markov chain every sampler runs, along a visit plan of
    (level, count, keep) entries; returns acc. It makes every solve and
    acc counts each one at the level it solves.

    The hyperparameters start from the prior at the first level visited,
    and b is interpolated or restricted across level changes. Each draw
    updates the hyperparameters (all but the very first draw), draws the
    noise and does one ridge solve. Only kept draws reach the estimator
    hook, on_kept(level, b, diffs), where diffs maps each coupling to the
    kept draw's d_l = b_l - P_l b_{l-1} above level 0 and is empty at
    level 0. coupling="solves" re-solves the level l-1 system with the
    draw's tau, lam_v, lam_u and e1 and with e2 restricted;
    coupling="projection" takes b_{l-1} = P_l^T b_l without a second
    solve. Preconditioned, each draw forms exact_solve's solve of a level
    on first use, once, and solvers.preconditioner picks each solve's
    preconditioner from them.
    """
    if any(c not in COUPLING_KINDS for c in couplings):
        raise ConfigError(f"unknown coupling in {couplings!r}")
    config = config or SolverConfig()
    specs = [spec.at_width(gb, m.n_cols - gb)
             for m, gb in zip(hierarchy.matrices, hierarchy.group_boundaries)]
    state = None

    def exact_at(level):
        # the draw's exact solve of `level`, or None
        lam = assemble_lambda(specs[level], state.lam_v, state.lam_u)
        return exact_solve(hierarchy, level, lam / state.tau)

    def solve(level, lam, e1, e2, x0):
        # one noise-injection solve at `level` with the draw's exact solves
        M = preconditioner(hierarchy, level, lam / state.tau, exact) if preconditioned else None
        b, report = solve_noise_system(
            hierarchy.matrices[level], y, state.tau, lam, e1, e2, config, precond=M, x0=x0
        )
        acc.count_solve(level, report)
        return b

    for lvl, count, keep in plan:
        X_l, spec_l = hierarchy.matrices[lvl], specs[lvl]
        if state is None:
            state = GibbsState(None, *init_hyperparams(spec_l, stream))
        elif lvl != cur:
            state.b = hierarchy.transfer(state.b, cur, lvl)
        cur = lvl
        for _ in range(count):
            if state.b is not None:
                state.tau, state.lam_v, state.lam_u = sample_hyperparams(
                    state, X_l, y, spec_l, stream
                )
            lam = assemble_lambda(spec_l, state.lam_v, state.lam_u)
            # the noise variance is 1/tau and the shift Lambda/tau; CG's
            # products grow with the cube of the larger, so past 1e100 they
            # overflow: checked once per draw, before any solve
            if not (0 < state.tau < math.inf and max(1.0, float(lam.max())) / state.tau <= 1e100):
                raise NumericalError(f"noise precision tau = {state.tau} at level {lvl}: "
                                     "1/tau or Lambda/tau is past 1e100")
            if not float(lam.min()) / state.tau > 0:
                name = "lam_v" if spec_l.n_fixed and not state.lam_v / state.tau > 0 else "lam_u"
                raise NumericalError(f"effect precision {name} = {getattr(state, name)} at "
                                     f"level {lvl}: Lambda/tau is not positive")
            exact = cache(exact_at)
            e1, e2 = draw_noise(X_l, state.tau, lam, stream)
            b = solve(lvl, lam, e1, e2, state.b)
            if acc.trace is not None:
                acc.trace.append((state.tau, state.lam_v, state.lam_u))
            if keep:
                diffs, c = {}, lvl - 1
                for coupling in couplings if lvl else ():
                    if coupling == "projection":
                        b_c = hierarchy.transfer(b, lvl, c)
                    else:
                        lam_c = assemble_lambda(specs[c], state.lam_v, state.lam_u)
                        x0_c = None if state.b is None else hierarchy.transfer(state.b, lvl, c)
                        b_c = solve(c, lam_c, e1, hierarchy.transfer(e2, lvl, c), x0_c)
                    diffs[coupling] = b - hierarchy.transfer(b_c, c, lvl)
                on_kept(lvl, b, diffs)
            state.b = b
    return acc


def probe_levels(hierarchy, y, spec, config, stream, X_probe, n_draws, burn, couplings=()):
    """One chain per level, on stream.split(n_levels): burn discarded draws,
    then n_draws probed by X_probe. Returns per level the (n_draws, rows)
    array of predicted observations and {coupling: array of differences}."""
    L = hierarchy.n_levels - 1
    out = []
    for l, sub in enumerate(stream.split(hierarchy.n_levels)):
        ys, diffs = [], {c: [] for c in couplings}

        def probe(lvl, b, ds):
            # X_probe times the kept sample and each difference, interpolated
            # to the finest level
            ys.append(spmv(X_probe, hierarchy.transfer(b, lvl, L)))
            for c, d in ds.items():
                diffs[c].append(spmv(X_probe, hierarchy.transfer(d, lvl, L)))

        plan = [(l, burn, False), (l, n_draws, True)]
        run_levels(hierarchy, y, spec, plan, config, sub, probe, _new_accumulator(hierarchy),
                   couplings=couplings)
        out.append((np.array(ys), {c: np.array(v) for c, v in diffs.items()}))
    return out


def run_pooled(hierarchy, y, spec, plan, config, stream, preconditioned=False, trace=False):
    """Pooled chain: one Markov chain that visits levels per the plan,
    interpolating/restricting b across level changes and pooling all kept
    samples into per-level sums. With trace, acc.trace lists the
    (tau, lam_v, lam_u) of every draw, discarded ones included."""
    acc = _new_accumulator(hierarchy, "pooled")
    acc.trace = [] if trace else None
    hook = lambda lvl, b, diffs: acc.add(lvl, b)
    return run_levels(hierarchy, y, spec, plan, config, stream, hook, acc, preconditioned)


def run_ml_gibbs(hierarchy, y, spec, plan, config, stream, preconditioned=False):
    """Pooled multilevel chain: run_pooled under the name of the `ml`
    sampler, which the one-level `gibbs` sampler does not run under."""
    return run_pooled(hierarchy, y, spec, plan, config, stream, preconditioned)


def run_ml_cs(
    hierarchy,
    y,
    spec,
    plan,
    config,
    stream,
    coupling="solves",
    preconditioned=False,
):
    """Telescoping multilevel chain with correlated cross-level samples:
    level-0 visits contribute plain coarse samples, visits at level l >= 1
    the coupled differences d_l that run_levels makes for `coupling`.
    Discarded draws make no coupled solve.
    """
    acc = _new_accumulator(hierarchy, "telescoping")
    hook = lambda lvl, b, diffs: acc.add(lvl, diffs.get(coupling, b))
    return run_levels(
        hierarchy, y, spec, plan, config, stream, hook, acc, preconditioned, (coupling,)
    )


def finalize_estimate(acc, hierarchy, X_eval):
    """X_eval times sum_l transfer(S_l / per_level[l]) / total over the kept
    levels' sums S_l. EstimatorError when the pooled chain kept no draw, or
    a telescoping sum misses a level."""
    L = hierarchy.n_levels - 1
    kept = np.flatnonzero(acc.counts)
    if acc.mode == "pooled":
        if kept.size == 0:
            raise EstimatorError("zero kept samples on every level")
        per_level, total = np.ones_like(acc.counts), acc.counts.sum()
    elif kept.size <= L:
        missing = np.flatnonzero(acc.counts == 0).tolist()
        raise EstimatorError(f"zero kept samples at telescoping level(s) {missing}")
    else:
        per_level, total = acc.counts, 1
    coef = np.zeros(hierarchy.finest.n_cols)
    for l in kept:
        coef += hierarchy.transfer(acc.level_sums[l] / per_level[l], l, L)
    return spmv(X_eval, coef / total)


def estimate_level_variances(hierarchy, y, spec, config, stream, pilot):
    """Pilot chains per level: s2_l is the sample variance (over pilot
    draws) of the mean predicted observation on that level."""
    probes = probe_levels(hierarchy, y, spec, config, stream, hierarchy.finest, pilot, 0)
    return [float(np.var([float(np.mean(v)) for v in ys], ddof=1)) for ys, _ in probes]
