"""Spans and counters recorded around calls into the package's layers.

The wrappers live here, not in the package. Modules import these
functions by name (`from .sparse import gram_apply`), so `Patches`
replaces every module attribute of the package that refers to a traced
function, and puts the originals back afterwards.

A span is a name, the index of its parent span, a start and an end,
kept in memory and written out once the experiment is over. A span's
self time is its duration minus the durations of its direct children;
the program is single-threaded, so children never overlap.
"""

import gzip
import importlib
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# (module, function): each becomes a span named "module.function".
TRACED = (
    ("sparse", "spmv"),
    ("sparse", "spmv_t"),
    ("sparse", "gram_apply"),
    ("sparse", "row_subset"),
    ("solvers", "cg_solve"),
    ("solvers", "build_two_level"),
    ("solvers", "precond_apply"),
    ("gibbs", "run_chain"),
    ("gibbs", "draw_coefficient"),
    ("gibbs", "solve_noise_system"),
    ("gibbs", "sample_hyperparams"),
    ("hierarchy", "build_hierarchy"),
    ("hierarchy", "coarsen"),
    ("hierarchy", "prolong"),
    ("hierarchy", "restrict"),
    ("multilevel", "run_ml_gibbs"),
    ("multilevel", "run_ml_cs"),
    ("multilevel", "finalize_estimate"),
    ("harness", "load_matrix"),
    ("harness", "run_fold"),
    ("harness", "run_experiment"),
)

# Per-layer metrics of the traced run, with their units. Counts are per
# experiment; times are per call unless the name says otherwise.
PER_LAYER = {
    "sparse.gram_apply.calls": "count",
    "sparse.gram_apply.us": "us",
    "sparse.gram_apply.gbs_computed": "GB/s",
    "sparse.spmv.us": "us",
    "sparse.spmv_t.us": "us",
    "sparse.row_subset.ms": "ms",
    "solvers.cg_solve.calls": "count",
    "solvers.cg_solve.iters": "iter/solve",
    "solvers.cg_solve.unconverged": "count",
    "solvers.cg_solve.self_ms": "ms",
    "solvers.build_two_level.calls": "count",
    "solvers.build_two_level.ms": "ms",
    "solvers.precond_apply.calls": "count",
    "solvers.precond_apply.us": "us",
    "gibbs.draw.calls": "count",
    "gibbs.draw.ms": "ms",
    "gibbs.sample_hyperparams.us": "us",
    "hierarchy.build_hierarchy.s": "s",
    "hierarchy.coarsen.ms": "ms",
    "hierarchy.prolong_restrict.calls": "count",
    "multilevel.sampler.self_s": "s",
    "multilevel.finalize_estimate.ms": "ms",
    "harness.load_matrix.s": "s",
    "harness.run_fold.s": "s",
    "trace.overhead_pct": "%",
}


def _package_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "mlgibbs" or name.startswith("mlgibbs."))
    ]


class Patches:
    """Swap a package function for a wrapper everywhere it is referenced."""

    def __init__(self):
        self._undo = []

    def wrap(self, module, name, make_wrapper):
        mod = importlib.import_module(f"mlgibbs.{module}")
        orig = getattr(mod, name)
        wrapper = make_wrapper(orig)
        for m in _package_modules():
            for attr, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, attr, wrapper)
                    self._undo.append((m, attr, orig))

    def undo(self):
        for m, attr, orig in reversed(self._undo):
            setattr(m, attr, orig)
        self._undo.clear()


def gram_apply_bytes(A):
    """Bytes (A^T A + diag(s)) x moves if each array is touched once:
    the CSR arrays and both vectors in spmv and in spmv_t, then s, x and
    the result of the shift. A computed figure: cache misses and the
    gathers of x are not counted."""
    m, n, nnz = A.n_rows, A.n_cols, A.values.size
    csr = 16 * nnz + 8 * (m + 1)
    return 2 * csr + 2 * (8 * n + 8 * m) + 24 * n


def _count_gram_apply(tracer, args, out):
    tracer.counters["gram_apply.bytes"] += gram_apply_bytes(args[0])


def _count_cg_solve(tracer, args, out):
    report = out[1]
    counters = tracer.counters
    counters["cg_solve.iters"] += report.iterations
    counters["cg_solve.unconverged"] += not report.converged
    # per fold and system width (one width per hierarchy level)
    key = f"{tracer.fold}/{np.asarray(args[1]).size}"
    counters[f"cg_solve.iters@{key}"] += report.iterations
    counters[f"cg_solve.calls@{key}"] += 1


HOOKS = {
    ("sparse", "gram_apply"): _count_gram_apply,
    ("solvers", "cg_solve"): _count_cg_solve,
}


class Tracer:
    def __init__(self):
        self.fold = None  # the cross-validation fold running, set by the caller
        self.names = []
        # one entry per span in four flat arrays, which the garbage
        # collector does not scan (a list per span made it dominate)
        self.name_ids = array("q")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.counters = defaultdict(float)
        self._stack = []

    def wrapper(self, name, after=None):
        nid = len(self.names)
        self.names.append(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter

        def make(fn):
            def traced(*args, **kwargs):
                i = len(starts)
                name_ids.append(nid)
                parents.append(stack[-1] if stack else -1)
                ends.append(0.0)
                stack.append(i)
                starts.append(clock())
                try:
                    out = fn(*args, **kwargs)
                finally:
                    ends[i] = clock()
                    stack.pop()
                if after is not None:
                    after(self, args, out)
                return out

            return traced

        return make

    def install(self, patches):
        for module, name in TRACED:
            patches.wrap(
                module, name,
                self.wrapper(f"{module}.{name}", HOOKS.get((module, name))),
            )

    def arrays(self):
        """(name id, parent, duration, self time) as numpy arrays."""
        nid = np.frombuffer(self.name_ids, dtype=np.int64)
        parent = np.frombuffer(self.parents, dtype=np.int64)
        dur = np.frombuffer(self.ends) - np.frombuffer(self.starts)
        return nid, parent, dur, dur - child_time(parent, dur)

    def summary(self):
        """Per span name: calls, total time and total self time (s), plus
        the draw split the metrics need, and the counters."""
        nid, parent, dur, self_t = self.arrays()
        out = {}
        for i, name in enumerate(self.names):
            sel = nid == i
            out[name] = [int(sel.sum()), float(dur[sel].sum()), float(self_t[sel].sum())]
        # a coefficient draw is a draw_coefficient call, or a noise-system
        # solve made outside one (the level-l and coupled solves of run_ml_cs)
        solve = nid == self.names.index("gibbs.solve_noise_system")
        draw_id = self.names.index("gibbs.draw_coefficient")
        outside = solve & ~((parent >= 0) & (nid[np.maximum(parent, 0)] == draw_id))
        out["gibbs.solve_outside_draw"] = [int(outside.sum()), float(dur[outside].sum()), 0.0]
        return {"spans": out, "counters": dict(self.counters)}

    def write(self, path):
        """Spans as gzipped TSV: index, parent, name, start and end in
        seconds from the first span."""
        if not self.starts:
            return
        t0 = self.starts[0]
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\tname\tstart_s\tend_s\n")
            fh.writelines(
                f"{i}\t{p}\t{names[n]}\t{s - t0:.9f}\t{e - t0:.9f}\n"
                for i, (n, p, s, e) in enumerate(
                    zip(self.name_ids, self.parents, self.starts, self.ends)
                )
            )


def child_time(parent, dur):
    """Time each span's direct children cover."""
    has = parent >= 0
    return np.bincount(parent[has], weights=dur[has], minlength=parent.size)


def merge(summaries):
    """Sum the summaries of several traced experiments: per span name
    [calls, time, self time], and the counters."""
    span = defaultdict(lambda: [0, 0.0, 0.0])
    counters = defaultdict(float)
    for s in summaries:
        for name, values in s["spans"].items():
            span[name] = [a + b for a, b in zip(span[name], values)]
        for k, v in s["counters"].items():
            counters[k] += v
    return span, counters


def layer_metrics(summaries, overhead_pct):
    """Per-layer metrics from the summaries of one or more traced
    experiments."""
    n = len(summaries)
    span, counters = merge(summaries)

    def calls(*names):
        return sum(span[x][0] for x in names)

    def per_call(name, scale, field=1):
        c = span[name][0]
        return span[name][field] / c * scale if c else 0.0

    draws = calls("gibbs.draw_coefficient", "gibbs.solve_outside_draw")
    draw_time = span["gibbs.draw_coefficient"][1] + span["gibbs.solve_outside_draw"][1]
    samplers = ("multilevel.run_ml_gibbs", "multilevel.run_ml_cs")
    sampler_calls = calls(*samplers)
    gram_time = span["sparse.gram_apply"][1]
    solves = calls("solvers.cg_solve")
    return {
        "sparse.gram_apply.calls": calls("sparse.gram_apply") / n,
        "sparse.gram_apply.us": per_call("sparse.gram_apply", 1e6),
        "sparse.gram_apply.gbs_computed": (
            counters["gram_apply.bytes"] / gram_time / 1e9 if gram_time else 0.0
        ),
        "sparse.spmv.us": per_call("sparse.spmv", 1e6),
        "sparse.spmv_t.us": per_call("sparse.spmv_t", 1e6),
        "sparse.row_subset.ms": per_call("sparse.row_subset", 1e3),
        "solvers.cg_solve.calls": solves / n,
        "solvers.cg_solve.iters": counters["cg_solve.iters"] / solves if solves else 0.0,
        "solvers.cg_solve.unconverged": counters["cg_solve.unconverged"] / n,
        "solvers.cg_solve.self_ms": per_call("solvers.cg_solve", 1e3, field=2),
        "solvers.build_two_level.calls": calls("solvers.build_two_level") / n,
        "solvers.build_two_level.ms": per_call("solvers.build_two_level", 1e3),
        "solvers.precond_apply.calls": calls("solvers.precond_apply") / n,
        "solvers.precond_apply.us": per_call("solvers.precond_apply", 1e6),
        "gibbs.draw.calls": draws / n,
        "gibbs.draw.ms": draw_time / draws * 1e3 if draws else 0.0,
        "gibbs.sample_hyperparams.us": per_call("gibbs.sample_hyperparams", 1e6),
        "hierarchy.build_hierarchy.s": per_call("hierarchy.build_hierarchy", 1.0),
        "hierarchy.coarsen.ms": per_call("hierarchy.coarsen", 1e3),
        "hierarchy.prolong_restrict.calls": calls("hierarchy.prolong", "hierarchy.restrict") / n,
        "multilevel.sampler.self_s": (
            sum(span[x][2] for x in samplers) / sampler_calls if sampler_calls else 0.0
        ),
        "multilevel.finalize_estimate.ms": per_call("multilevel.finalize_estimate", 1e3),
        "harness.load_matrix.s": per_call("harness.load_matrix", 1.0),
        "harness.run_fold.s": per_call("harness.run_fold", 1.0),
        "trace.overhead_pct": overhead_pct,
    }


def cg_iters_by_level(summary, fold, widths):
    """Mean CG iterations per solve at each level of one fold, as counted
    outside the program."""
    c = summary["counters"]
    out = []
    for w in widths:
        solves = c.get(f"cg_solve.calls@{fold}/{w}", 0)
        out.append(c.get(f"cg_solve.iters@{fold}/{w}", 0) / solves if solves else 0.0)
    return out
