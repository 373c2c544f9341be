"""Data model for time-indexed graph sequences.

A dynamic network is an ordered list of snapshots over a shared node
registry. Node identity across time is by external identifier; matrix row
order within a snapshot is ascending registry index; which nodes persist
from step to step is decided by ``DynamicNetwork.persistence`` alone. All
types are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np
import scipy.sparse
from scipy.sparse.csgraph import connected_components

from .errors import DataError, DisconnectedGraphError


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    a.flags.writeable = False
    return a


class NodeRegistry:
    """Bijection between external node identifiers and dense indices.

    Indices are assigned in ascending lexicographic order of the
    identifiers, which makes registries (and everything derived from them)
    deterministic for a given id set.
    """

    def __init__(self, ids: Iterable[str]):
        self._ids: tuple[str, ...] = tuple(sorted(set(str(i) for i in ids)))
        self._index = {node_id: i for i, node_id in enumerate(self._ids)}
        if not self._ids:
            raise DataError("registry needs at least one node id")

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._index

    @property
    def ids(self) -> tuple[str, ...]:
        return self._ids

    def index_of(self, node_id: str) -> int:
        try:
            return self._index[node_id]
        except KeyError:
            raise DataError(f"unknown node id {node_id!r}") from None

    def id_of(self, index: int) -> str:
        return self._ids[index]


def _check_labels(labels: Sequence[Optional[int]], k: int) -> None:
    """Raise DataError unless k >= 0 and every label is None or in {1..k}."""
    if k < 0:
        raise DataError(f"group count must be >= 0, got {k}")
    for i, lab in enumerate(labels):
        if lab is not None and not (1 <= lab <= k):
            raise DataError(f"label {lab} for node {i} outside {{1..{k}}}")


def build_membership_matrix(labels: Sequence[Optional[int]], k: int) -> np.ndarray:
    """Build the n x k binary group membership matrix C.

    ``labels[i]`` is the group of node i in {1..k}, or None when unknown;
    unknown memberships yield all-zero rows.
    """
    _check_labels(labels, k)
    lab = np.array(labels, dtype=float)  # None becomes nan
    rows = np.flatnonzero(~np.isnan(lab))
    C = np.zeros((len(lab), k))
    C[rows, lab[rows].astype(int) - 1] = 1.0
    return C


def augment(M: np.ndarray, C: np.ndarray, alpha: float) -> np.ndarray:
    """Grouping-augmented system [[M, alpha C], [alpha C^T, 0]]: each
    column of the n x k membership matrix C adds a representative tied to
    its members with weight alpha. Desired distances use alpha = 0, as
    representatives have no desired distance."""
    M = np.asarray(M, dtype=float)
    C = np.asarray(C, dtype=float)
    n, k = C.shape
    if M.shape != (n, n):
        raise DataError(f"matrix shape {M.shape} does not match membership rows {n}")
    out = np.zeros((n + k, n + k))
    out[:n, :n] = M
    out[:n, n:] = alpha * C
    out[n:, :n] = alpha * C.T
    return out


def laplacian(W: np.ndarray) -> np.ndarray:
    """Graph Laplacian L = D - W, D the diagonal degree matrix. W has no
    self-loops, so L's diagonal holds the degrees and its trace the total
    degree. A zero weight gives +0.0 off the diagonal, so adding b to the
    diagonal gives the bits of the dense sum L + diag(b)."""
    W = np.asarray(W, dtype=float)
    return np.diag(W.sum(axis=1)) - W


def has_temporal_anchor(beta: float, e: np.ndarray) -> bool:
    """Whether the temporal penalty ties any node to its previous position:
    beta is nonzero and presence vector e marks some node present at t-1."""
    return beta != 0 and bool(np.any(np.asarray(e) > 0))


def require_connected(W: np.ndarray, what: str) -> None:
    """Raise DisconnectedGraphError, with the component count, when the
    graph of weight matrix W (an edge wherever W or W.T is nonzero) has
    more than one component.

    Connectivity is decided by breadth-first reachability from node 0 on
    the dense adjacency; components are counted only to report a failure.
    """
    adjacent = np.asarray(W) != 0
    adjacent |= adjacent.T
    reached = np.zeros(adjacent.shape[0], dtype=bool)
    reached[:1] = True
    frontier = reached.copy()
    while frontier.any():
        frontier = adjacent[frontier].any(axis=0) & ~reached
        reached |= frontier
    if not reached.all():
        n_comp, _ = connected_components(scipy.sparse.csr_matrix(W), directed=False)
        raise DisconnectedGraphError(f"{what} needs a connected graph; found {n_comp} components")


def validate_snapshot(W: np.ndarray) -> list[str]:
    """Return the list of violated adjacency-matrix invariants (empty if valid)."""
    W = np.asarray(W)
    violations: list[str] = []
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        return [f"matrix is not square: shape {W.shape}"]
    asym = np.argwhere(W != W.T)
    if asym.size:
        i, j = asym[0]
        violations.append(f"asymmetry at ({i + 1},{j + 1}): {W[i, j]} != {W[j, i]}")
    diag = np.flatnonzero(np.diagonal(W))
    if diag.size:
        violations.append(f"nonzero diagonal at index {diag[0] + 1}")
    neg = np.argwhere(W < 0)
    if neg.size:
        i, j = neg[0]
        violations.append(f"negative weight at ({i + 1},{j + 1}): {W[i, j]}")
    if not np.all(np.isfinite(W)):
        violations.append("non-finite entries")
    return violations


@dataclass(frozen=True)
class GroupAssignment:
    """Per-node group labeling: each label in {1..k}, or None when unknown."""

    labels: tuple[Optional[int], ...]
    k: int

    def __post_init__(self):
        _check_labels(self.labels, self.k)
        object.__setattr__(self, "labels", tuple(self.labels))


@dataclass(frozen=True)
class Snapshot:
    """One time step: symmetric adjacency over the active nodes.

    ``active`` holds the registry indices present at ``t`` in ascending
    order; row/column i of ``W`` belongs to ``active[i]``.
    """

    t: int
    W: np.ndarray
    active: tuple[int, ...]
    groups: Optional[GroupAssignment] = None

    def __post_init__(self):
        W = np.asarray(self.W, dtype=float)
        active = tuple(self.active)
        if list(active) != sorted(set(active)):
            raise DataError(f"snapshot t={self.t}: active indices must be ascending and unique")
        violations = validate_snapshot(W)
        if violations:
            raise DataError(f"snapshot t={self.t}: " + "; ".join(violations))
        if W.shape[0] != len(active):
            raise DataError(
                f"snapshot t={self.t}: matrix size {W.shape[0]} != {len(active)} active nodes"
            )
        if self.groups is not None and len(self.groups.labels) != len(active):
            raise DataError(f"snapshot t={self.t}: group labels do not cover the active nodes")
        object.__setattr__(self, "W", _freeze(W))
        object.__setattr__(self, "active", active)

    @property
    def n(self) -> int:
        return len(self.active)


class Persistence(NamedTuple):
    """Rows of snapshot t (ascending) whose nodes were active at t-1, their
    rows at t-1, and the 0/1 presence vector e over the rows of snapshot t
    (1 on ``rows``): the diagonal of the paper's presence matrix E."""

    rows: np.ndarray
    prev_rows: np.ndarray
    e: np.ndarray


class DynamicNetwork:
    """Ordered snapshots plus the registry shared by all of them."""

    def __init__(self, registry: NodeRegistry, snapshots: Sequence[Snapshot]):
        snapshots = tuple(snapshots)
        if not snapshots:
            raise DataError("a dynamic network needs at least one snapshot")
        for expected, snap in enumerate(snapshots):
            if snap.t != expected:
                raise DataError(
                    f"snapshot times must be 0,1,2,...; found t={snap.t} at position {expected}"
                )
            for idx in snap.active:
                if not 0 <= idx < len(registry):
                    raise DataError(f"snapshot t={snap.t}: node index {idx} not in registry")
        self.registry = registry
        self.snapshots = snapshots

    def __len__(self) -> int:
        return len(self.snapshots)

    def persistence(self, t: int) -> Persistence:
        """Which nodes of snapshot t were active at t-1 (none at t = 0)."""
        active = np.asarray(self.snapshots[t].active, dtype=int)
        if not active.size:
            raise DataError("active node set must be nonempty")
        prev = np.asarray(self.snapshots[t - 1].active if t > 0 else (), dtype=int)
        _, rows, prev_rows = np.intersect1d(active, prev, assume_unique=True,
                                            return_indices=True)
        e = np.zeros(active.size)
        e[rows] = 1.0
        return Persistence(_freeze(rows), _freeze(prev_rows), _freeze(e))

    def with_groups(self, groups: Iterable[Optional[GroupAssignment]]) -> "DynamicNetwork":
        """The same snapshots with ``groups``, one assignment (or None) per step."""
        return DynamicNetwork(self.registry, [replace(snap, groups=g) for snap, g in
                                              zip(self.snapshots, groups, strict=True)])
