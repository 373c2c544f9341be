"""Tests of the benchmark itself: each output check rejects a corrupted
output, and each workload runs at a tiny size, traced and untraced.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dynlayout as dl

import checks
import tracing
import worker
import workloads

HERE = Path(__file__).resolve().parent
TINY = workloads.BlockModel(n=16, k=4, p_in=0.7, p_out=0.25, T=4, change_step=2)


@pytest.fixture(scope="module")
def sample():
    return workloads.draw_sample(TINY, np.random.default_rng(3))


@pytest.fixture(scope="module")
def runs(sample):
    network = workloads.to_network(sample)
    out = {}
    for method, groups in (("dmds", "known"), ("dgll", "known"), ("spectral", "none"),
                           ("mds-static", "none")):
        config = dl.RegularizationConfig(method=method, groups=groups, seed=5)
        out[method] = (config, *dl.run_sequence(network, config))
    return out


def _with_step(sequence, t, **changes):
    steps = list(sequence.steps)
    steps[t] = dataclasses.replace(steps[t], **changes)
    return dl.LayoutSequence(metadata=sequence.metadata, steps=steps)


@pytest.mark.parametrize("method", ["dmds", "dgll", "spectral", "mds-static"])
def test_clean_outputs_pass(sample, runs, method):
    checks.check_run(sample, *runs[method])


@pytest.mark.parametrize("method", ["dmds", "dgll", "spectral", "mds-static"])
@pytest.mark.parametrize("t", [0, 2])
def test_swapped_nodes_rejected(sample, runs, method, t):
    config, sequence, report = runs[method]
    X = np.array(sequence.steps[t].X)
    X[[0, 5]] = X[[5, 0]]
    with pytest.raises(checks.CheckError):
        checks.check_run(sample, config, _with_step(sequence, t, X=X), report)


@pytest.mark.parametrize("method", ["dmds", "dgll", "spectral", "mds-static"])
def test_scaled_layout_rejected(sample, runs, method):
    config, sequence, report = runs[method]
    with pytest.raises(checks.CheckError):
        checks.check_run(sample, config, _with_step(sequence, 1, X=1.01 * sequence.steps[1].X),
                         report)


def test_scaled_layout_breaks_scatter_constraints(sample, runs):
    _, sequence, _ = runs["dgll"]
    step = sequence.steps[1]
    args = (step.labels, sample.W[1], 1.0)
    assert checks.dgll_scatter_residual(step.X, step.Y, *args) < 1e-9
    assert checks.dgll_scatter_residual(1.01 * step.X, step.Y, *args) > 1e-3
    X = runs["spectral"][1].steps[1].X
    assert max(checks.spectral_residuals(X, sample.W[1])) < 1e-9
    assert checks.spectral_residuals(1.01 * X, sample.W[1])[0] > 1e-3


@pytest.mark.parametrize("method", ["dmds", "mds-static"])
def test_reversed_stress_trace_rejected(sample, runs, method):
    config, sequence, report = runs[method]
    bad = dl.CostReport(method=report.method, params=report.params, steps=list(report.steps))
    bad.steps[1] = dataclasses.replace(bad.steps[1],
                                       stress_trace=tuple(reversed(bad.steps[1].stress_trace)))
    with pytest.raises(checks.CheckError, match="stress trace"):
        checks.check_run(sample, config, sequence, bad)


def test_hop_distances_match_program_on_unweighted_graph(sample):
    W = sample.W[0]
    np.testing.assert_array_equal(checks.hop_distances(W), dl.shortest_path_distances(W).delta)


def test_swapped_regularization_rejected(runs):
    def result(name, key):
        return workloads.OpResult(name, 4, 0.0, output=runs[key][1:])

    good = [result("dmds", "dmds"), result("mds-static", "mds-static")]
    checks.check_regularization(good, [("dmds", "mds-static")])
    assert all(r.error is None for r in good)
    swapped = [result("dmds", "mds-static"), result("mds-static", "dmds")]
    checks.check_regularization(swapped, [("dmds", "mds-static")])
    assert swapped[0].error.startswith("check:")


def test_sweep_trend_reversal_rejected():
    grid = (0.1, 1.0, 10.0)
    records = [{"alpha": a, "beta": b, "mean_static": 1.0, "mean_centroid": 1.0 / a,
                "mean_temporal": 1.0 / b, "mean_iterations": 1.0} for a in grid for b in grid]
    checks.check_sweep(records, grid)
    flipped = [dict(r, mean_temporal=r["beta"]) for r in records]
    with pytest.raises(checks.CheckError, match="temporal"):
        checks.check_sweep(flipped, grid)
    flipped = [dict(r, mean_centroid=r["alpha"]) for r in records]
    with pytest.raises(checks.CheckError, match="centroid"):
        checks.check_sweep(flipped, grid)


def test_raised_operation_counts_as_failed():
    tally = worker.Tally()
    tally.add([workloads._timed("raises", 3, None, lambda: 1 / 0)])
    assert (tally.attempted, tally.failed, tally.rejected, tally.steps) == (1, 1, 0, 0)


SMOKE = {
    "protocol": TINY,
    "sweep": workloads.BlockModel(n=12, k=4, p_in=0.8, p_out=0.3, T=3, change_step=1),
    "large": workloads.BlockModel(n=24, k=4, p_in=0.5, p_out=0.15, T=3, change_step=1),
}


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_workload_smoke_traced_and_untraced(tmp_path, name):
    base = workloads.WORKLOADS[name]
    workload = type(base.__name__, (base,), {"model": SMOKE[name]})(7, tmp_path / "work")
    tracer = tracing.Tracer()
    plain, traced = workload.run_round((None, tracer))
    for res in plain + traced:
        assert res.error is None, f"{res.name}: {res.error}"
    assert [r.name for r in plain] == [r.name for r in traced]
    tracer.steps = sum(r.steps for r in traced)
    summary = tracer.summary()
    assert summary["missing"] == []
    assert 0.95 < summary["accounted_share"] <= 1.0 + 1e-9
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(summary["metrics"]) == sorted(m["name"] for m in declared)
    # wrappers are gone once the traced round is over
    assert dl.pipeline.shortest_path_distances is dl.distances.shortest_path_distances
    assert dl.run_sequence is dl.pipeline.run_sequence


def test_every_binding_is_wrapped_while_installed():
    tracer = tracing.Tracer()
    original = dl.distances.shortest_path_distances
    with tracer.installed():
        assert dl.pipeline.shortest_path_distances is not original
        assert dl.pipeline.shortest_path_distances is dl.distances.shortest_path_distances
        assert dl.gll.minimize_eq_constrained is dl.numerics.minimize_eq_constrained
        assert dl.shortest_path_distances is dl.pipeline.shortest_path_distances
    assert dl.pipeline.shortest_path_distances is original


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "protocol",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
