"""Layout-quality costs.

All costs are normalized to be scale-free in the network size: stress by
the number of positive-weight pairs, energy by the total degree, centroid
cost by the number of labeled nodes, temporal cost by the number of
persisting nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .gll import energy
from .mds import stress


def static_cost_mds(X: np.ndarray, delta: np.ndarray, V: np.ndarray) -> float:
    """Stress divided by the number of unordered pairs with positive MDS
    weight."""
    V = np.asarray(V, dtype=float)
    pairs = np.count_nonzero(np.triu(V, 1) > 0)
    if pairs == 0:
        return 0.0
    return stress(X, delta, V) / pairs


def static_cost_gll(X: np.ndarray, L: np.ndarray) -> float:
    """Layout energy divided by the total degree, the trace of Laplacian L."""
    total = float(np.trace(L))
    if total == 0:
        return 0.0
    return energy(X, L) / total


def centroid_cost(X: np.ndarray, labels: Sequence[Optional[int]]) -> Optional[float]:
    """Mean squared distance of labeled nodes to their group centroid.

    Centroids are arithmetic means of the member positions (not the
    representative points). Returns None when no node is labeled.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    labels = np.asarray(labels, dtype=object)
    rows = np.flatnonzero(labels != None)  # elementwise on an object array
    if not rows.size:
        return None
    groups = labels[rows].astype(int)
    total = 0.0
    # groups in ascending order, members in index order
    for group in np.unique(groups):
        members = X[rows[groups == group]]
        total += float(np.sum((members - members.mean(axis=0)) ** 2))
    return total / rows.size


def temporal_cost(X: np.ndarray, X_prev: np.ndarray, e: np.ndarray) -> float:
    """Mean squared displacement of the nodes that presence vector e marks
    present at both steps; 0 when no node persists."""
    e = np.asarray(e, dtype=float)
    count = e.sum()
    if count == 0:
        return 0.0
    moved = np.atleast_2d(np.asarray(X, dtype=float)) - np.atleast_2d(np.asarray(X_prev, dtype=float))
    return float(np.sum(e * np.einsum("ij,ij->i", moved, moved)) / count)


def mean_of_present(values) -> float:
    """Mean of the values that are neither None nor NaN; NaN when none is."""
    arr = np.array([v for v in values if v is not None], dtype=float)
    arr = arr[~np.isnan(arr)]
    return float(arr.mean()) if arr.size else float("nan")


@dataclass(frozen=True)
class StepCosts:
    """Per-step cost record; temporal cost is None at the first step and
    centroid cost is None when no grouping information exists.

    For majorization-based methods ``stress_trace`` keeps the per-iteration
    objective values (not serialized to CSV)."""

    t: int
    static_cost: float
    centroid_cost: Optional[float]
    temporal_cost: Optional[float]
    iterations: Optional[int] = None
    stress_trace: Optional[tuple[float, ...]] = None


@dataclass
class CostReport:
    """Cost trace of one layout run plus the parameters that produced it."""

    method: str
    params: dict = field(default_factory=dict)
    steps: list[StepCosts] = field(default_factory=list)

    @property
    def mean_static(self) -> float:
        return mean_of_present(s.static_cost for s in self.steps)

    @property
    def mean_centroid(self) -> float:
        return mean_of_present(s.centroid_cost for s in self.steps)

    @property
    def mean_temporal(self) -> float:
        return mean_of_present(s.temporal_cost for s in self.steps)

    @property
    def mean_iterations(self) -> float:
        return mean_of_present(s.iterations for s in self.steps)
