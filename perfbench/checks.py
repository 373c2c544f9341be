"""Output checks, computed apart from the program.

Costs are recomputed from the returned layouts with the benchmark's own
formulas: hop distances by breadth-first search (the drawn graphs are
unweighted), Kamada-Kawai weights and normalized stress, energy over total
degree, centroid cost against the planted labels, and temporal cost matched
by node id. The remaining checks are properties of the methods: stress
traces never rise, DGLL and spectral layouts meet their scatter
constraints, regularized runs move and scatter groups less than their
unregularized counterparts, and sweep trends run the right way.
"""

from __future__ import annotations

import csv
import json
import math
import xml.etree.ElementTree as ET

import numpy as np

MDS_METHODS = ("dmds", "mds-static", "mds-stabilized")

COST_RTOL = 1e-9      # costs recomputed in another summation order
SCATTER_RTOL = 1e-9   # DGLL and spectral scatter constraints
TRACE_RTOL = 1e-12    # largest relative rise allowed in a stress trace


class CheckError(Exception):
    """An output that the checks reject."""


def _close(what: str, t: int, reported, expected: float, rtol: float = COST_RTOL) -> None:
    if reported is None or not math.isclose(reported, expected, rel_tol=rtol, abs_tol=1e-12):
        raise CheckError(f"t={t}: {what} is {reported}, recomputed {expected!r}")


def hop_distances(W: np.ndarray) -> np.ndarray:
    """All-pairs hop counts by breadth-first search; inf where unreachable."""
    n = W.shape[0]
    A = (W > 0).astype(float)
    dist = np.full((n, n), np.inf)
    reached = np.eye(n, dtype=bool)
    frontier = reached.copy()
    dist[reached] = 0.0
    hops = 0
    while frontier.any():
        hops += 1
        frontier = ((frontier.astype(float) @ A) > 0) & ~reached
        dist[frontier] = hops
        reached |= frontier
    return dist


def _sq_dists(X: np.ndarray) -> np.ndarray:
    diff = X[:, None, :] - X[None, :, :]
    return np.sum(diff * diff, axis=2)


def normalized_stress(X: np.ndarray, W: np.ndarray) -> float:
    """Stress under Kamada-Kawai weights 1/d^2, per pair of reachable nodes."""
    d = hop_distances(W)
    iu = np.triu_indices(W.shape[0], 1)
    d = d[iu]
    ok = np.isfinite(d)
    gap = d[ok] - np.sqrt(_sq_dists(X)[iu][ok])
    return float(np.sum(gap * gap / d[ok] ** 2) / np.count_nonzero(ok))


def energy_per_degree(X: np.ndarray, W: np.ndarray) -> float:
    """Sum over edges of weight times squared length, over the total degree."""
    iu = np.triu_indices(W.shape[0], 1)
    return float(np.sum(W[iu] * _sq_dists(X)[iu]) / W.sum())


def centroid_cost(X: np.ndarray, labels: np.ndarray) -> float:
    total = 0.0
    for g in np.unique(labels):
        members = X[labels == g]
        total += float(np.sum((members - members.mean(axis=0)) ** 2))
    return total / X.shape[0]


def _scatter_residual(Z: np.ndarray, d: np.ndarray) -> float:
    """Largest entry of Z^T M Z - tr(D) I over tr(D), with
    M = D - d d^T / tr(D): zero when the degree-weighted scatter of Z about
    its degree-weighted mean is tr(D) times the identity."""
    total = d.sum()
    Zd = Z.T @ d
    G = Z.T @ (d[:, None] * Z) - np.outer(Zd, Zd) / total
    return float(np.max(np.abs(G - total * np.eye(Z.shape[1]))) / total)


def dgll_scatter_residual(X, Y, labels, W, alpha) -> float:
    """Scatter constraint of the stacked [X; Y_kept] on the graph augmented
    with one representative per non-empty group, tied by weight alpha."""
    labels = np.asarray(labels)
    kept = [g for g in range(1, Y.shape[0] + 1) if np.any(labels == g)]
    C = (labels[:, None] == np.array(kept)[None, :]).astype(float)
    n, k = C.shape
    W_aug = np.zeros((n + k, n + k))
    W_aug[:n, :n] = W
    W_aug[:n, n:] = alpha * C
    W_aug[n:, :n] = alpha * C.T
    Z = np.vstack([X, Y[[g - 1 for g in kept]]])
    return _scatter_residual(Z, W_aug.sum(axis=1))


def spectral_residuals(X: np.ndarray, W: np.ndarray) -> tuple[float, float]:
    """The scatter residual of X, and X^T d over tr D: both zero exactly
    when X^T D X = tr(D) I and X^T d = 0."""
    d = W.sum(axis=1)
    return _scatter_residual(X, d), float(np.max(np.abs(X.T @ d)) / d.sum())


def check_run(sample, config, sequence, report) -> None:
    """Recompute every step's costs from the returned layouts and check the
    method's own properties."""
    T = sample.T
    if len(sequence.steps) != T or len(report.steps) != T:
        raise CheckError(f"{len(sequence.steps)} layouts and {len(report.steps)} cost rows "
                         f"for {T} steps")
    row_of = {node: row for row, node in enumerate(sample.ids)}
    prev: dict[str, np.ndarray] = {}
    for t, (step, costs) in enumerate(zip(sequence.steps, report.steps)):
        if sorted(step.ids) != sorted(sample.ids):
            raise CheckError(f"t={t}: layout does not hold exactly the input nodes")
        rows = [row_of[node] for node in step.ids]
        X = np.asarray(step.X, dtype=float)
        W = sample.W[t][np.ix_(rows, rows)]
        if config.method in MDS_METHODS:
            _close("static cost", t, costs.static_cost, normalized_stress(X, W))
            trace = np.asarray(costs.stress_trace, dtype=float)
            rises = (trace[1:] - trace[:-1]) / np.maximum(np.abs(trace[:-1]), 1e-300)
            if trace.size < 2 or rises.max() > TRACE_RTOL:
                raise CheckError(f"t={t}: stress trace rises by {rises.max(initial=0):.3e}")
        else:
            _close("static cost", t, costs.static_cost, energy_per_degree(X, W))
        _close("centroid cost", t, costs.centroid_cost,
               centroid_cost(X, sample.labels[t][rows]))
        if t == 0:
            if costs.temporal_cost is not None:
                raise CheckError("t=0: temporal cost reported for the first step")
        else:
            moved = [X[r] - prev[node] for r, node in enumerate(step.ids) if node in prev]
            _close("temporal cost", t, costs.temporal_cost,
                   float(np.mean(np.sum(np.square(moved), axis=1))))
        if config.method == "dgll":
            res = dgll_scatter_residual(X, np.asarray(step.Y, dtype=float), step.labels, W,
                                        config.alpha)
            if res > SCATTER_RTOL:
                raise CheckError(f"t={t}: DGLL scatter constraint off by {res:.3e}")
        elif config.method == "spectral":
            scatter, mean = spectral_residuals(X, W)
            if max(scatter, mean) > SCATTER_RTOL:
                raise CheckError(f"t={t}: spectral constraints off by {scatter:.3e}, {mean:.3e}")
        prev = dict(zip(step.ids, X))


def check_files(prefix, sequence, report, frames) -> None:
    """The layout JSON and cost CSV on disk hold exactly the returned
    values; each rendered frame draws every node once."""
    with open(prefix.with_suffix(".layout.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    if len(doc["steps"]) != len(sequence.steps):
        raise CheckError("layout JSON has the wrong number of steps")
    for raw, step in zip(doc["steps"], sequence.steps):
        if [node["id"] for node in raw["nodes"]] != list(step.ids) or \
                not np.array_equal(np.array([node["x"] for node in raw["nodes"]]), step.X):
            raise CheckError(f"t={step.t}: layout JSON differs from the returned layout")
    with open(prefix.with_suffix(".costs.csv"), encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(report.steps):
        raise CheckError("cost CSV has the wrong number of rows")
    for row, costs in zip(rows, report.steps):
        for key in ("static_cost", "centroid_cost", "temporal_cost"):
            value = getattr(costs, key)
            if (row[key] == "") != (value is None) or (value is not None
                                                        and float(row[key]) != value):
                raise CheckError(f"t={costs.t}: cost CSV {key} {row[key]!r} != {value!r}")
    if frames is None:
        return
    if len(frames) != len(sequence.steps):
        raise CheckError(f"{len(frames)} frames for {len(sequence.steps)} steps")
    for path, step in zip(frames, sequence.steps):
        titles = [el.text for el in ET.parse(path).getroot().iter()
                  if el.tag.endswith("title") and el.text != f"t={step.t}"]
        if sorted(titles) != sorted(step.ids):
            raise CheckError(f"{path.name} does not draw every node exactly once")


def check_regularization(results, pairs, centroid_only=()) -> None:
    """Each regularized configuration has a lower mean temporal and
    centroid cost than its unregularized counterpart on the same network
    (centroid only for the names in ``centroid_only``). A miss marks the
    regularized operation as failed."""
    by_name = {res.name: res for res in results}
    for reg, base in pairs:
        a, b = by_name[reg], by_name[base]
        if a.error is not None or b.error is not None:
            continue
        ra, rb = a.output[1], b.output[1]
        kinds = ("centroid",) if reg in centroid_only else ("temporal", "centroid")
        for kind in kinds:
            va, vb = getattr(ra, f"mean_{kind}"), getattr(rb, f"mean_{kind}")
            if not va < vb:
                a.error = f"check: mean {kind} cost {va} is not below {base}'s {vb}"


def check_sweep(records, grid) -> None:
    """The grid comes back complete and in order, with finite costs; temporal
    cost falls from the smallest to the largest beta at every alpha, and
    centroid cost from the smallest to the largest alpha at every beta."""
    cells = [(a, b) for a in grid for b in grid]
    if [(r["alpha"], r["beta"]) for r in records] != cells:
        raise CheckError("sweep cells are missing or out of order")
    for r in records:
        if not all(np.isfinite(r[key]) for key in ("mean_static", "mean_centroid",
                                                   "mean_temporal")):
            raise CheckError(f"non-finite cost in cell {r['alpha']}, {r['beta']}")
    cell = {(r["alpha"], r["beta"]): r for r in records}
    lo, hi = grid[0], grid[-1]
    for v in grid:
        if not cell[v, hi]["mean_temporal"] < cell[v, lo]["mean_temporal"]:
            raise CheckError(f"alpha={v}: temporal cost does not fall from beta={lo} to {hi}")
        if not cell[hi, v]["mean_centroid"] < cell[lo, v]["mean_centroid"]:
            raise CheckError(f"beta={v}: centroid cost does not fall from alpha={lo} to {hi}")
