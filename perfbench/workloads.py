"""Workload inputs and operations.

Inputs are drawn here, from the workload seed, by the benchmark's own
stochastic-block-model sampler; the program receives only the drawn
networks. One round of a workload lays out one freshly drawn network under
every configuration of that workload. Rounds are whole: every round runs
the same operations, so the share of failed operations does not depend on
how many rounds fit into a run.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import dynlayout as dl
from dynlayout import io as dio
from dynlayout import render as drender

import checks


# ---------------------------------------------------------------------------
# inputs

CHANGE_FRACTION = 0.25  # share of the nodes that move at the change step


@dataclass(frozen=True)
class BlockModel:
    """Two-rate block model with a change point: at ``change_step`` a
    ``CHANGE_FRACTION`` share of the nodes moves to another group."""

    n: int
    k: int
    p_in: float
    p_out: float
    T: int
    change_step: int


@dataclass(frozen=True)
class Sample:
    """One drawn network: unweighted adjacency and planted labels per step.
    Row i of every matrix is node ``ids[i]``; every node is present at every
    step."""

    ids: tuple[str, ...]
    W: tuple[np.ndarray, ...]
    labels: tuple[np.ndarray, ...]
    k: int

    @property
    def T(self) -> int:
        return len(self.W)


def draw_sample(model: BlockModel, rng: np.random.Generator) -> Sample:
    """Draw one sequence. Groups start balanced (sizes differ by at most one).
    A snapshot that comes out disconnected is drawn again, because the
    eigen-based methods reject disconnected snapshots."""
    n, k = model.n, model.k
    labels = (np.arange(n) % k + 1)[rng.permutation(n)]
    P = np.full((k, k), model.p_out)
    np.fill_diagonal(P, model.p_in)
    width = len(str(n - 1))
    ids = tuple(f"{i:0{width}d}" for i in range(n))
    Ws, Ls = [], []
    for t in range(model.T):
        if t == model.change_step:
            labels = labels.copy()
            moved = rng.choice(n, size=int(round(n * CHANGE_FRACTION)), replace=False)
            for i in moved:
                other = int(rng.integers(1, k))
                labels[i] = other if other < labels[i] else other + 1
        probs = P[labels - 1][:, labels - 1]
        while True:
            upper = np.triu(rng.random((n, n)) < probs, 1)
            W = (upper | upper.T).astype(float)
            if np.isfinite(checks.hop_distances(W)).all():
                break
        Ws.append(W)
        Ls.append(labels.copy())
    return Sample(ids=ids, W=tuple(Ws), labels=tuple(Ls), k=k)


def to_network(sample: Sample) -> dl.DynamicNetwork:
    registry = dl.NodeRegistry(sample.ids)
    active = tuple(registry.index_of(i) for i in sample.ids)
    snaps = [dl.Snapshot(t=t, W=W, active=active,
                         groups=dl.GroupAssignment(tuple(int(v) for v in lab), sample.k))
             for t, (W, lab) in enumerate(zip(sample.W, sample.labels))]
    return dl.DynamicNetwork(registry, snaps)


def write_tsv(sample: Sample, snapshots_path: Path, groups_path: Path) -> None:
    """The snapshot and groups TSV formats, written by the benchmark."""
    with open(snapshots_path, "w", encoding="utf-8") as fh:
        for t, W in enumerate(sample.W):
            for a, b in zip(*np.nonzero(np.triu(W, 1))):
                fh.write(f"{t}\t{sample.ids[a]}\t{sample.ids[b]}\t1\n")
    with open(groups_path, "w", encoding="utf-8") as fh:
        for t, lab in enumerate(sample.labels):
            for node, g in zip(sample.ids, lab):
                fh.write(f"{t}\t{node}\t{int(g)}\n")


# ---------------------------------------------------------------------------
# operations

@dataclass
class OpResult:
    name: str
    steps: int
    seconds: float
    error: Optional[str] = None
    output: object = None


def _timed(name: str, steps: int, tracer, fn: Callable[[], object]) -> OpResult:
    """Run one operation now; the clock covers exactly the calls into the
    program, never the checks."""
    start = time.perf_counter()
    try:
        if tracer is None:
            output = fn()
        else:
            with tracer.operation(name):
                output = fn()
    except Exception as exc:  # a failed operation is counted, not fatal
        return OpResult(name, steps, time.perf_counter() - start,
                        error=f"{type(exc).__name__}: {exc}")
    return OpResult(name, steps, time.perf_counter() - start, output=output)


def _check(result: OpResult, fn: Callable[[], None]) -> None:
    if result.error is not None:
        return
    try:
        fn()
    except checks.CheckError as exc:
        result.error = f"check: {exc}"


class Workload:
    """Base: a block model, the configurations laid out per round, and the
    per-round input draw. ``seed`` selects the inputs; round r always draws
    the same network for the same seed."""

    name = ""
    model: BlockModel

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.round = 0
        self.inputs = self.prepare(0)

    def prepare(self, r: int):
        rng = np.random.default_rng([self.seed, r])
        return draw_sample(self.model, rng), int(rng.integers(2**31))

    def run_round(self, tracers=(None,)) -> list[list[OpResult]]:
        """Run this round's operations once per entry of ``tracers`` (None
        runs untraced), on the same inputs, then draw the next round."""
        results = []
        for tracer in tracers:
            if tracer is None:
                results.append(self.operations(*self.inputs, None))
            else:
                with tracer.installed():
                    results.append(self.operations(*self.inputs, tracer))
        self.finish_round()
        self.round += 1
        self.inputs = self.prepare(self.round)
        return results

    def finish_round(self) -> None:
        pass

    def operations(self, sample: Sample, config_seed: int, tracer) -> list[OpResult]:
        raise NotImplementedError


class Protocol(Workload):
    """The acceptance protocol: nine configurations per network, inputs
    read from TSV, layouts and costs written out, one configuration
    rendered."""

    name = "protocol"
    model = BlockModel(n=30, k=4, p_in=0.6, p_out=0.2, T=20, change_step=10)
    configs = {
        "dmds-known": dict(method="dmds", groups="known"),
        "dmds-learned": dict(method="dmds", groups="learn", k=4),
        "dgll-known": dict(method="dgll", groups="known"),
        "dgll-learned": dict(method="dgll", groups="learn", k=4),
        "mds-stabilized": dict(method="mds-stabilized"),
        "mds-static": dict(method="mds-static"),
        "ccdr": dict(method="ccdr", groups="known"),
        "bfp": dict(method="bfp"),
        "spectral": dict(method="spectral"),
    }
    rendered = "dmds-known"

    def prepare(self, r: int):
        sample, config_seed = super().prepare(r)
        d = self.workdir / f"round{r}"
        d.mkdir(parents=True, exist_ok=True)
        write_tsv(sample, d / "snapshots.tsv", d / "groups.tsv")
        return sample, config_seed

    def operations(self, sample, config_seed, tracer):
        d = self.workdir / f"round{self.round}"
        results = []
        for name, kwargs in self.configs.items():
            config = dl.RegularizationConfig(alpha=1.0, beta=1.0, seed=config_seed, **kwargs)
            out = d / name

            def op():
                network = dio.ingest_snapshots(d / "snapshots.tsv")
                network = dio.parse_groups(d / "groups.tsv", network, k=sample.k)
                sequence, report = dl.run_sequence(network, config)
                dio.export_layouts(sequence, out.with_suffix(".layout.json"))
                dio.write_cost_csv(report, out.with_suffix(".costs.csv"))
                frames = drender.render_frames(network, sequence, out) \
                    if name == self.rendered else None
                return sequence, report, frames

            res = _timed(name, sample.T, tracer, op)
            _check(res, lambda: (checks.check_run(sample, config, *res.output[:2]),
                                 checks.check_files(out, *res.output)))
            results.append(res)
        checks.check_regularization(results, [("dmds-known", "mds-static"),
                                              ("dgll-known", "spectral")])
        return results

    def finish_round(self) -> None:
        shutil.rmtree(self.workdir / f"round{self.round}")


class Sweep(Workload):
    """One parameter_sweep per method over an alpha x beta grid spanning
    0.1-10, known groups, one configuration seed."""

    name = "sweep"
    model = BlockModel(n=30, k=4, p_in=0.6, p_out=0.2, T=4, change_step=2)
    methods = ("dmds", "dgll")
    grid = (0.1, 1.0, 10.0)

    def operations(self, sample, config_seed, tracer):
        network = to_network(sample)
        steps = len(self.grid) ** 2 * sample.T
        results = []
        for method in self.methods:
            base = dl.RegularizationConfig(method=method, groups="known")
            res = _timed(method, steps, tracer, lambda: dl.parameter_sweep(
                network, method, self.grid, self.grid, [config_seed], base_config=base))
            _check(res, lambda: checks.check_sweep(res.output, self.grid))
            results.append(res)
        return results


class Large(Workload):
    """Known groups at a few hundred nodes: the MDS family and the eigen
    methods, no DGLL."""

    name = "large"
    model = BlockModel(n=200, k=4, p_in=0.15, p_out=0.03, T=3, change_step=2)
    configs = {
        "dmds": dict(method="dmds", groups="known"),
        "mds-stabilized": dict(method="mds-stabilized"),
        "mds-static": dict(method="mds-static"),
        "spectral": dict(method="spectral"),
        "ccdr": dict(method="ccdr", groups="known"),
        "bfp": dict(method="bfp"),
    }

    def operations(self, sample, config_seed, tracer):
        network = to_network(sample)
        results = []
        for name, kwargs in self.configs.items():
            config = dl.RegularizationConfig(alpha=1.0, beta=1.0, seed=config_seed, **kwargs)
            res = _timed(name, sample.T, tracer, lambda: dl.run_sequence(network, config))
            _check(res, lambda: checks.check_run(sample, config, *res.output))
            results.append(res)
        checks.check_regularization(results, [("dmds", "mds-static"), ("ccdr", "spectral")],
                                    centroid_only={"ccdr"})
        return results


WORKLOADS = {w.name: w for w in (Protocol, Sweep, Large)}
