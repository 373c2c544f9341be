"""Per-time-step layout pipeline.

Drives ingest -> (optional) clustering -> layout -> scoring for each
snapshot, threading the cross-step state (previous positions, previous
representative positions, clustering history) explicitly. A sequence is
strictly on-line: the state at step t depends only on data up to t.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np
import scipy.optimize

from . import clustering as clus
from . import gll, mds, metrics
from .distances import kk_weights, shortest_path_distances, similarity_to_dissimilarity
from .errors import DataError, DynlayoutError
from .graph import DynamicNetwork, Snapshot, build_membership_matrix, build_presence_matrix
from .layout import Layout, align_to_reference

MDS_METHODS = ("dmds", "mds-static", "mds-stabilized")
GLL_METHODS = ("dgll", "spectral", "ccdr", "bfp")
METHODS = MDS_METHODS + GLL_METHODS
GROUPING_METHODS = ("dmds", "dgll", "ccdr")

_DEFAULT_LAMBDA_GRID = tuple(i / 20.0 for i in range(21))


@dataclass(frozen=True)
class RegularizationConfig:
    """Everything a layout run needs besides the network itself."""

    method: str = "dmds"
    alpha: float = 1.0
    beta: float = 1.0
    epsilon: float = 1e-4
    dims: int = 2
    seed: int = 0
    normalized: bool = True
    groups: str = "none"  # none | known | learn
    k: Optional[int] = None
    restarts: int = 0
    lambda_grid: tuple[float, ...] = _DEFAULT_LAMBDA_GRID
    similarity_mode: Optional[str] = None  # None | linear | inverse
    anchor_reentry: bool = False
    max_iter: int = 1000

    def __post_init__(self):
        if self.method not in METHODS:
            raise DataError(f"unknown method {self.method!r}; choose from {METHODS}")
        if self.groups not in ("none", "known", "learn"):
            raise DataError(f"groups must be none|known|learn, got {self.groups!r}")
        if self.groups == "learn" and not self.k:
            raise DataError("learning groups requires k")
        if self.dims < 1:
            raise DataError("dims must be >= 1")

    def metadata(self) -> dict:
        meta = {
            "method": self.method, "alpha": self.alpha, "beta": self.beta,
            "epsilon": self.epsilon, "dims": self.dims, "seed": self.seed,
            "normalized": self.normalized, "groups": self.groups, "k": self.k,
        }
        if self.similarity_mode:
            meta["similarity_mode"] = self.similarity_mode
        return meta


@dataclass(frozen=True)
class LayoutStep:
    """One laid-out snapshot: node ids, coordinates, display labels, and
    representative coordinates when grouping was used."""

    t: int
    ids: tuple[str, ...]
    X: np.ndarray
    labels: Optional[tuple[Optional[int], ...]]
    Y: Optional[np.ndarray]

    def __eq__(self, other):
        if not isinstance(other, LayoutStep):
            return NotImplemented
        same_y = (self.Y is None and other.Y is None) or (
            self.Y is not None and other.Y is not None and np.array_equal(self.Y, other.Y))
        return (self.t == other.t and self.ids == other.ids and self.labels == other.labels
                and np.array_equal(self.X, other.X) and same_y)

    __hash__ = None


@dataclass
class LayoutSequence:
    """Per-step layouts plus the run metadata."""

    metadata: dict
    steps: list[LayoutStep] = field(default_factory=list)

    def __eq__(self, other):
        if not isinstance(other, LayoutSequence):
            return NotImplemented
        return self.metadata == other.metadata and self.steps == other.steps

    @property
    def dims(self) -> int:
        return int(self.metadata["dims"])


# ---------------------------------------------------------------------------
# per-step helpers

def _rng_for(seed: int, t: int, stream: int) -> np.random.Generator:
    # independent, reproducible stream per (step, purpose)
    return np.random.default_rng([seed, t, stream])


def _shared_rows(active: Sequence[int], prev_active: Sequence[int]):
    """Index map of the nodes present at both steps: their rows in the
    current active set and, in the same order, in the previous one."""
    prev_index = {idx: row for row, idx in enumerate(prev_active)}
    rows = [row for row, idx in enumerate(active) if idx in prev_index]
    return (np.array(rows, dtype=int),
            np.array([prev_index[active[row]] for row in rows], dtype=int))


def _known_labels(snap: Snapshot) -> Optional[tuple[Optional[int], ...]]:
    return snap.groups.labels if snap.groups is not None else None


class ClusterTracker:
    """On-line evolutionary-clustering state, aligned to whatever the
    current active node set is."""

    def __init__(self, k: int, seed: int):
        self.k = k
        self.seed = seed
        self.psi_prev: Optional[np.ndarray] = None
        self.labels_prev: Optional[np.ndarray] = None
        self.ids_prev: Optional[tuple[int, ...]] = None

    def step(self, snap: Snapshot, t: int) -> tuple[tuple[int, ...], float]:
        """Cluster one snapshot; returns (labels, forgetting factor)."""
        seed = int(_rng_for(self.seed, t, 1).integers(2**31))
        psi_prev = None
        prev_labels = None
        if self.ids_prev is not None:
            rows, prev_rows = _shared_rows(snap.active, self.ids_prev)
            # history entries for nodes without history default to the
            # current observation (blending them is then a no-op)
            psi_prev = snap.W.copy()
            psi_prev[np.ix_(rows, rows)] = self.psi_prev[np.ix_(prev_rows, prev_rows)]
            prev_labels = np.ones(snap.n, dtype=int)
            prev_labels[rows] = self.labels_prev[prev_rows]
        labels, psi, alpha = clus.affect_cluster_step(psi_prev, snap.W, prev_labels,
                                                      self.k, seed)
        if self.ids_prev is not None and rows.size:
            labels = _match_to_reference(
                labels, zip(self.labels_prev[prev_rows], labels[rows]), self.k)
        self.psi_prev = psi
        self.labels_prev = labels
        self.ids_prev = snap.active
        return tuple(int(v) for v in labels), float(alpha)


def learn_group_sequence(network: DynamicNetwork, k: int,
                         seed: int = 0) -> tuple[list[tuple[int, ...]], list[float]]:
    """Cluster every snapshot on-line; returns per-step labels and the
    per-step forgetting factors."""
    tracker = ClusterTracker(k, seed)
    all_labels, alphas = [], []
    for t, snap in enumerate(network.snapshots):
        labels, alpha = tracker.step(snap, t)
        all_labels.append(labels)
        alphas.append(alpha)
    return all_labels, alphas


class _SequenceState:
    """Cross-step memory: last known node positions (by registry index),
    previous representative positions, clustering history."""

    def __init__(self):
        self.positions: dict[int, np.ndarray] = {}
        self.active_prev: tuple[int, ...] = ()
        self.Y_prev: Optional[np.ndarray] = None
        self.tracker: Optional[ClusterTracker] = None

    def prev_position(self, idx: int) -> Optional[np.ndarray]:
        return self.positions.get(idx)

    def update(self, active: Sequence[int], X: np.ndarray, Y: Optional[np.ndarray]):
        for row, idx in enumerate(active):
            self.positions[idx] = X[row].copy()
        self.active_prev = tuple(active)
        if Y is not None:
            self.Y_prev = Y.copy()


def _presence(snap: Snapshot, state: _SequenceState, anchor_reentry: bool) -> np.ndarray:
    if anchor_reentry:
        seen = [idx for idx in snap.active if idx in state.positions]
        return build_presence_matrix(snap.active, seen)
    return build_presence_matrix(snap.active, state.active_prev)


def _match_to_reference(labels: np.ndarray, ref_pairs, k: int) -> np.ndarray:
    # permute label names to maximize overlap with reference labels on the
    # shared nodes
    overlap = np.zeros((k, k))
    for a, b in ref_pairs:
        overlap[a - 1, b - 1] += 1
    rows, cols = scipy.optimize.linear_sum_assignment(-overlap)
    mapping = {int(b) + 1: int(a) + 1 for a, b in zip(rows, cols)}
    return np.array([mapping[int(v)] for v in labels], dtype=int)


def _group_info(snap: Snapshot, state: _SequenceState, config: RegularizationConfig, t: int):
    """Labels used by the layout, labels used for scoring, and the group
    count. Scoring always prefers the known groups when they exist."""
    layout_labels: Optional[tuple[Optional[int], ...]] = None
    k = 0
    if config.groups == "known":
        layout_labels = _known_labels(snap)
        if layout_labels is None:
            raise DataError("groups=known but the snapshot carries no groups")
        k = snap.groups.k
    elif config.groups == "learn":
        if state.tracker is None:
            state.tracker = ClusterTracker(config.k, config.seed)
        layout_labels, _ = state.tracker.step(snap, t)
        k = config.k
    eval_labels = _known_labels(snap)
    if eval_labels is None:
        eval_labels = layout_labels
    return layout_labels, eval_labels, k


def _effective_membership(labels: Optional[Sequence[Optional[int]]], k: int,
                          n: int) -> tuple[np.ndarray, list[int]]:
    """Membership matrix restricted to the groups that actually have
    members at this step (empty groups would make the augmented system
    singular)."""
    if labels is None or k == 0:
        return np.zeros((n, 0)), []
    C_full = build_membership_matrix(labels, k)
    kept = [col for col in range(k) if C_full[:, col].sum() > 0]
    return C_full[:, kept], kept


def _init_positions(snap: Snapshot, state: _SequenceState, labels, kept_cols,
                    Y_prev_kept: Optional[np.ndarray], config: RegularizationConfig,
                    t: int) -> np.ndarray:
    """Previous-or-initial positions for every current node.

    Persisting and re-entering nodes use their last known position; new
    nodes fall back to their group representative's previous position,
    then to the centroid of their already-placed neighbors, then to a
    small seeded offset from the centroid of the previous layout.
    """
    s = config.dims
    X = np.zeros((snap.n, s))
    known_rows = []
    missing = []
    for row, idx in enumerate(snap.active):
        prev = state.prev_position(idx)
        if prev is not None:
            X[row] = prev
            known_rows.append(row)
        else:
            missing.append(row)
    if not missing:
        return X
    rng = _rng_for(config.seed, t, 2)
    if known_rows:
        center = X[known_rows].mean(axis=0)
        spread = float(np.sqrt(np.mean(np.sum((X[known_rows] - center) ** 2, axis=1))))
    else:
        center = np.zeros(s)
        spread = 1.0
    col_of = {col: j for j, col in enumerate(kept_cols)}
    for row in missing:
        lab = labels[row] if labels is not None else None
        if lab is not None and Y_prev_kept is not None and (lab - 1) in col_of:
            X[row] = Y_prev_kept[col_of[lab - 1]]
            continue
        neighbors = [r for r in known_rows if snap.W[row, r] > 0]
        if neighbors:
            X[row] = X[neighbors].mean(axis=0)
            continue
        X[row] = center + 0.01 * max(spread, 1.0) * rng.uniform(-1.0, 1.0, size=s)
    return X


def mds_inputs(W: np.ndarray, similarity_mode: Optional[str]):
    """Desired distances and Kamada-Kawai weights of one snapshot, after
    converting similarity weights to dissimilarities when a mode is set."""
    if similarity_mode:
        W = similarity_to_dissimilarity(W, similarity_mode)
    dm = shortest_path_distances(W)
    return dm.delta, kk_weights(dm)


def _aligned_prev_matrix(snap: Snapshot, state: _SequenceState, s: int) -> np.ndarray:
    X_prev = np.zeros((snap.n, s))
    for row, idx in enumerate(snap.active):
        prev = state.prev_position(idx)
        if prev is not None:
            X_prev[row] = prev
    return X_prev


def _prev_snapshot_adjacency(network: DynamicNetwork, t: int, snap: Snapshot) -> np.ndarray:
    """Previous adjacency matrix re-indexed to the current active set
    (rows of nodes absent at t-1 are zero)."""
    W_prev = np.zeros((snap.n, snap.n))
    if t == 0:
        return W_prev
    prev_snap = network.snapshots[t - 1]
    rows, prev_rows = _shared_rows(snap.active, prev_snap.active)
    W_prev[np.ix_(rows, rows)] = prev_snap.W[np.ix_(prev_rows, prev_rows)]
    return W_prev


def _augmented_prev(snap, state, labels, kept, C, config, t, random_t0: bool):
    """Stacked [nodes; kept representatives] previous/initial positions."""
    s = config.dims
    k_eff = C.shape[1]
    Y_prev_kept = None
    if state.Y_prev is not None and kept:
        Y_prev_kept = state.Y_prev[kept]
    if t == 0 and random_t0:
        X_nodes = _rng_for(config.seed, t, 0).uniform(-1.0, 1.0, size=(snap.n, s))
    elif t == 0:
        X_nodes = np.zeros((snap.n, s))
    else:
        X_nodes = _init_positions(snap, state, labels, kept, Y_prev_kept, config, t)
    if not k_eff:
        return X_nodes, X_nodes
    if Y_prev_kept is not None:
        Y_rows = Y_prev_kept.copy()
    else:
        Y_rows = np.zeros((k_eff, s))
        for j in range(k_eff):
            members = np.flatnonzero(C[:, j])
            Y_rows[j] = X_nodes[members].mean(axis=0)
    return X_nodes, np.vstack([X_nodes, Y_rows])


# ---------------------------------------------------------------------------
# the per-method solvers

def _solve_mds(snap, state, config, t, E, labels, C, kept, delta, V):
    X_nodes, X_aug_prev = _augmented_prev(snap, state, labels, kept, C, config, t,
                                          random_t0=True)
    if config.method == "dmds":
        layout, report = mds.dmds_layout(delta, V, C, config.alpha, config.beta, E,
                                         X_aug_prev, eps=config.epsilon,
                                         max_iter=config.max_iter)
    elif config.method == "mds-static":
        layout, report = mds.smacof_static(delta, V, X_nodes, eps=config.epsilon,
                                           max_iter=config.max_iter)
    else:  # mds-stabilized
        layout, report = mds.stabilized_mds_online(delta, V, config.beta, E, X_nodes,
                                                   eps=config.epsilon,
                                                   max_iter=config.max_iter)
    return layout, report


def _solve_gll(network, snap, state, config, t, E, labels, C, kept, eval_labels):
    s = config.dims
    n = snap.n
    k_eff = C.shape[1]
    lap = gll.laplacian(snap.W)
    X_prev = _aligned_prev_matrix(snap, state, s)
    persist_mask = np.diagonal(E) > 0

    if config.method == "spectral":
        layout = gll.spectral_layout(snap.W, s, config.normalized)
        X = layout.X
        if t > 0 and persist_mask.any():
            X = align_to_reference(X, X_prev, persist_mask)
        return Layout(X=X, Y=np.zeros((0, s)))

    if config.method == "ccdr":
        layout = gll.ccdr_layout(snap.W, C, config.alpha, s, config.normalized)
        stacked = layout.stacked
        if t > 0 and persist_mask.any():
            mask_aug = np.concatenate([persist_mask, np.zeros(k_eff, dtype=bool)])
            ref = np.vstack([X_prev, np.zeros((k_eff, s))])
            stacked = align_to_reference(stacked, ref, mask_aug)
        return Layout(X=stacked[:n], Y=stacked[n:])

    if config.method == "bfp":
        lap_prev = gll.laplacian(_prev_snapshot_adjacency(network, t, snap))
        lam_grid = config.lambda_grid if t > 0 else (0.0,)
        candidates: dict[float, Layout] = {}

        def composite(lam: float) -> float:
            cand = gll.bfp_layout(lap_prev, lap, lam, X_prev if t > 0 else None, s,
                                  config.normalized)
            candidates[lam] = cand
            static = metrics.static_cost_gll(cand.X, lap.L, lap.D)
            centroid = metrics.centroid_cost(cand.X, eval_labels) \
                if eval_labels is not None else None
            temporal = metrics.temporal_cost(cand.X, X_prev, E)
            return static + config.alpha * (centroid or 0.0) + config.beta * temporal

        lam_star = gll.bfp_lambda_select(lam_grid, composite)
        return candidates[lam_star]

    # dgll
    _, X_aug_prev = _augmented_prev(snap, state, labels, kept, C, config, t,
                                    random_t0=False)
    rng = _rng_for(config.seed, t, 3)
    solution = gll.dgll_layout(snap.W, C, config.alpha, config.beta, E, X_aug_prev, s,
                               normalized=config.normalized, restarts=config.restarts,
                               rng=rng)
    return solution.layout


# ---------------------------------------------------------------------------

def run_sequence(network: DynamicNetwork,
                 config: RegularizationConfig) -> tuple[LayoutSequence, metrics.CostReport]:
    """Lay out every snapshot with the configured method and score each
    step. Engine failures are re-raised with the failing step attached."""
    state = _SequenceState()
    sequence = LayoutSequence(metadata=config.metadata())
    report = metrics.CostReport(method=config.method, params=config.metadata())
    is_mds = config.method in MDS_METHODS

    for t, snap in enumerate(network.snapshots):
        try:
            E = _presence(snap, state, config.anchor_reentry)
            layout_labels, eval_labels, k = _group_info(snap, state, config, t)
            if config.method in GROUPING_METHODS:
                C, kept = _effective_membership(layout_labels, k, snap.n)
            else:
                C, kept = np.zeros((snap.n, 0)), []
            X_prev_mat = _aligned_prev_matrix(snap, state, config.dims)

            iterations = None
            trace = None
            if is_mds:
                delta, V = mds_inputs(snap.W, config.similarity_mode)
                layout, solve_report = _solve_mds(snap, state, config, t, E,
                                                  layout_labels, C, kept, delta, V)
                iterations = solve_report.iterations
                trace = solve_report.stress_trace
                static = metrics.static_cost_mds(layout.X, delta, V)
            else:
                layout = _solve_gll(network, snap, state, config, t, E, layout_labels,
                                    C, kept, eval_labels)
                lap = gll.laplacian(snap.W)
                static = metrics.static_cost_gll(layout.X, lap.L, lap.D)

            centroid = metrics.centroid_cost(layout.X, eval_labels) \
                if eval_labels is not None else None
            temporal = None if t == 0 else metrics.temporal_cost(layout.X, X_prev_mat, E)
            report.steps.append(metrics.StepCosts(
                t=t, static_cost=static, centroid_cost=centroid,
                temporal_cost=temporal, iterations=iterations, stress_trace=trace,
            ))

            Y_full = None
            if kept:
                Y_full = np.zeros((k, config.dims))
                if state.Y_prev is not None and state.Y_prev.shape == Y_full.shape:
                    Y_full[:] = state.Y_prev
                for j, col in enumerate(kept):
                    Y_full[col] = layout.Y[j]
            display = layout_labels if layout_labels is not None else eval_labels
            sequence.steps.append(LayoutStep(
                t=t, ids=tuple(network.registry.id_of(i) for i in snap.active),
                X=layout.X, labels=display, Y=Y_full,
            ))
            state.update(snap.active, layout.X, Y_full)
        except DynlayoutError as exc:
            raise type(exc)(f"step t={t}: {exc}") from exc
    return sequence, report


def _nanmean(values) -> float:
    arr = np.asarray(values, dtype=float)
    finite = arr[~np.isnan(arr)]
    return float(finite.mean()) if finite.size else float("nan")


def parameter_sweep(network: DynamicNetwork, method: str, alpha_grid: Sequence[float],
                    beta_grid: Sequence[float], seeds: Sequence[int],
                    base_config: Optional[RegularizationConfig] = None) -> list[dict]:
    """Full-factorial (alpha, beta) evaluation, seed-averaged per cell."""
    base = base_config or RegularizationConfig(method=method)
    records = []
    for alpha in alpha_grid:
        for beta in beta_grid:
            stats = {"static": [], "centroid": [], "temporal": [], "iterations": []}
            for seed in seeds:
                config = replace(base, method=method, alpha=alpha, beta=beta, seed=seed)
                _, report = run_sequence(network, config)
                stats["static"].append(report.mean_static)
                stats["centroid"].append(report.mean_centroid)
                stats["temporal"].append(report.mean_temporal)
                stats["iterations"].append(report.mean_iterations)
            records.append({
                "alpha": alpha, "beta": beta,
                "mean_static": _nanmean(stats["static"]),
                "mean_centroid": _nanmean(stats["centroid"]),
                "mean_temporal": _nanmean(stats["temporal"]),
                "mean_iterations": _nanmean(stats["iterations"]),
            })
    return records
