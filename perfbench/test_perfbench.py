"""Tests of the benchmark itself; the end-to-end ones use its smoke mode.

Run with: python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import spans  # noqa: E402
from run import END_TO_END  # noqa: E402
from workloads import SMOKE, WORKLOADS, generate  # noqa: E402


def run_bench(workload, trace, cwd=ROOT, seed=3):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )
    return proc


@pytest.mark.parametrize("workload", sorted(SMOKE))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"], proc.stdout
    assert out["failed"] == 0
    w = SMOKE[workload]
    rounds = 2 if trace else 1
    assert out["attempted"] == rounds * w.instances * w.experiment["folds"]
    expected = spans.PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    # every metric is printed by name with its unit, end-to-end ones too
    for name, unit in {**END_TO_END, **(spans.PER_LAYER if trace else {})}.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in proc.stdout.splitlines()), name
    if not trace:
        assert all(v["value"] > 0 for v in out["metrics"].values())
    else:
        m = {k: v["value"] for k, v in out["metrics"].items()}
        assert m["sparse.gram_apply.calls"] > 0 and m["solvers.cg_solve.iters"] > 0
        multilevel = workload != "gibbs-sl"
        assert (m["hierarchy.build_hierarchy.s"] > 0) == multilevel
        assert (m["multilevel.sampler.self_s"] > 0) == multilevel
        assert (m["solvers.build_two_level.calls"] > 0) == (workload == "mlcss-precond")


def test_no_program_source_fails(tmp_path):
    """Beside only BENCHMARK.json and the benchmark, it fails without a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("gibbs-sl", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.PER_LAYER
    assert sorted(SMOKE) == sorted(WORKLOADS)


def test_inputs_depend_only_on_seed():
    w = SMOKE["gibbs-sl"]
    a, b, c = generate(w, 5), generate(w, 5), generate(w, 6)
    assert np.array_equal(a.vals, b.vals) and np.array_equal(a.y, b.y)
    assert not np.array_equal(a.vals, c.vals)


def test_self_time_subtracts_direct_children():
    tracer = spans.Tracer()

    def leaf():
        time.sleep(0.01)

    wrapped_leaf = tracer.wrapper("leaf")(leaf)

    def middle():
        wrapped_leaf()
        wrapped_leaf()
        time.sleep(0.01)

    wrapped_middle = tracer.wrapper("middle")(middle)
    tracer.wrapper("top")(lambda: wrapped_middle())()
    nid, parent, dur, self_t = tracer.arrays()
    names = [tracer.names[i] for i in nid]
    assert names == ["top", "middle", "leaf", "leaf"]
    assert parent.tolist() == [-1, 0, 1, 1]
    assert self_t[1] == pytest.approx(dur[1] - dur[2] - dur[3], abs=1e-12)
    assert self_t[0] == pytest.approx(dur[0] - dur[1], abs=1e-12)
    assert self_t[1] >= 0.009 and self_t[0] < 0.005


def test_patches_replace_every_reference_and_undo():
    sys.path.insert(0, str(ROOT / "src"))
    import mlgibbs.gibbs
    import mlgibbs.sparse

    orig = mlgibbs.sparse.gram_apply
    patches = spans.Patches()
    tracer = spans.Tracer()
    patches.wrap("sparse", "gram_apply", tracer.wrapper("sparse.gram_apply"))
    assert mlgibbs.gibbs.gram_apply is mlgibbs.sparse.gram_apply is not orig
    patches.undo()
    assert mlgibbs.gibbs.gram_apply is orig and mlgibbs.sparse.gram_apply is orig


def test_eb_ridge_matches_primal_oracle():
    """The dual solve equals the primal ridge posterior mean, and the chosen
    ratio maximises the marginal likelihood computed with dense covariances."""
    rng = np.random.default_rng(0)
    import scipy.sparse as sp

    X = rng.standard_normal((30, 50)) * (rng.random((30, 50)) < 0.3)
    y = X @ rng.standard_normal(50) * 2.0 + rng.standard_normal(30)
    A = sp.csr_matrix(X)
    pred, r = reference.eb_ridge_predict(A[:20], y[:20], A[20:])
    Xt = X[:20]
    b = np.linalg.solve(Xt.T @ Xt + r * np.eye(50), Xt.T @ y[:20])
    np.testing.assert_allclose(pred, X[20:] @ b, rtol=1e-8, atol=1e-8)

    def log_evidence(ratio):
        C = Xt @ Xt.T + ratio * np.eye(20)
        sb2 = y[:20] @ np.linalg.solve(C, y[:20]) / 20
        return -(20 * np.log(sb2) + np.linalg.slogdet(C)[1])

    assert all(log_evidence(r) >= log_evidence(r * f) - 1e-9 for f in (0.5, 0.9, 1.1, 2.0))
