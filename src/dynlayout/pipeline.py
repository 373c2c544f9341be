"""Per-time-step layout pipeline.

Step t of ``run_sequence`` is one value, ``_Step``, that ``_begin_step``
builds from the snapshot, every node's last known position and the step's
groups (``_step_groups``: known labels, or those that the on-line
clustering ``learn_group_sequence`` learned for the step). The solve
(``_solve``: the configured method, its start positions and its static
cost) reads it and ``_Step.score`` scores the result. ``score_sequence``
builds the steps of a stored layout sequence the same way, so both paths
score alike. A sequence is strictly on-line: step t depends only on data
up to t.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import clustering as clus
from . import gll, mds, metrics
from .distances import (SIMILARITY_MODES, kk_weights, shortest_path_distances,
                        similarity_to_dissimilarity)
from .errors import DataError, DynlayoutError
from .graph import DynamicNetwork, Persistence, Snapshot, build_membership_matrix
from .layout import Layout, align_to_reference
from .numerics import single_threaded_blas

MDS_METHODS = ("dmds", "mds-static", "mds-stabilized")
GLL_METHODS = ("dgll", "spectral", "ccdr", "bfp")
METHODS = MDS_METHODS + GLL_METHODS
GROUPING_METHODS = ("dmds", "dgll", "ccdr")

# the blend weights bfp chooses among after the first step
_LAMBDA_GRID = tuple(i / 20.0 for i in range(21))


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
    similarity_mode: Optional[str] = None  # None | linear | inverse

    def __post_init__(self):
        if self.method not in METHODS:
            raise DataError(f"unknown method {self.method!r}; choose from {METHODS}")
        if self.groups not in ("none", "known", "learn"):
            raise DataError(f"groups must be none|known|learn, got {self.groups!r}")
        if self.groups == "learn" and self.k is None:
            raise DataError("learning groups requires k")
        if self.similarity_mode not in (None, *SIMILARITY_MODES):
            raise DataError(f"similarity_mode must be None or one of {SIMILARITY_MODES}, "
                            f"got {self.similarity_mode!r}")
        if not 1 <= self.dims <= 3:
            raise DataError(f"dims must be 1, 2 or 3, got {self.dims}")
        for name, value in (("alpha", self.alpha), ("beta", self.beta)):
            if not (np.isfinite(value) and value >= 0):
                raise DataError(f"{name} must be finite and >= 0, got {value}")
        if not (np.isfinite(self.epsilon) and self.epsilon > 0):
            raise DataError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")

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

    @property
    def dims(self) -> int:
        dims = self.metadata.get("dims")
        if not isinstance(dims, int) or isinstance(dims, bool):
            raise DataError(f"layout metadata needs an integer 'dims' field, got {dims!r}")
        return dims


# ---------------------------------------------------------------------------
# per-step helpers

def _rng_for(seed: int, t: int, stream: int) -> np.random.Generator:
    # independent, reproducible stream per (step, purpose)
    return np.random.default_rng([seed, t, stream])


@contextmanager
def _naming_step(t: int):
    """Name step t in the message of a package error raised in the block."""
    try:
        yield
    except DynlayoutError as exc:
        exc.args = (f"step t={t}: {exc}",)
        raise


def learn_group_sequence(network: DynamicNetwork, k: int,
                         seed: int = 0) -> tuple[list[tuple[int, ...]], list[float]]:
    """On-line evolutionary clustering of every snapshot in turn; returns
    the per-step labels and the per-step forgetting factors.

    Each step carries the smoothed adjacency and the labels of the step
    before over the nodes present at both, and renames its labels to match
    those. Runs on single-threaded BLAS, as ``run_sequence`` does; a
    failure is re-raised with its step named."""
    if seed < 0:
        raise DataError(f"seed must be >= 0, got {seed}")
    psi = labels = None
    labels_by_step, alphas = [], []
    with single_threaded_blas():
        for t, snap in enumerate(network.snapshots):
            with _naming_step(t):
                shared = network.persistence(t)
                rows, prev_rows = shared.rows, shared.prev_rows
                psi_prev = prev_labels = None
                if labels is not None:
                    # history entries for nodes without history default to the
                    # current observation (blending them is then a no-op)
                    psi_prev = snap.W.copy()
                    psi_prev[np.ix_(rows, rows)] = psi[np.ix_(prev_rows, prev_rows)]
                    prev_labels = np.ones(snap.n, dtype=int)
                    prev_labels[rows] = labels[prev_rows]
                step_seed = int(_rng_for(seed, t, 1).integers(2**31))
                new_labels, psi, alpha = clus.affect_cluster_step(psi_prev, snap.W, prev_labels,
                                                                  k, step_seed)
                if rows.size:
                    new_labels = clus.label_permutation(labels[prev_rows], new_labels[rows],
                                                        k)[new_labels - 1]
                labels = new_labels
                labels_by_step.append(tuple(int(v) for v in labels))
                alphas.append(float(alpha))
    return labels_by_step, alphas


class _SequenceState:
    """Cross-step memory: the last known position of every registry node
    (row i is node i; ``seen`` marks the nodes laid out so far), the same
    for every group representative (row j is group j + 1)."""

    def __init__(self, n_nodes: int, n_groups: int, dims: int):
        self.last_X = np.zeros((n_nodes, dims))
        self.seen = np.zeros(n_nodes, dtype=bool)
        self.last_Y = np.zeros((n_groups, dims))
        self.seen_Y = np.zeros(n_groups, dtype=bool)

    def update(self, active: np.ndarray, X: np.ndarray, kept: list[int], Y: np.ndarray):
        self.last_X[active] = X
        self.seen[active] = True
        self.last_Y[kept] = Y
        self.seen_Y[kept] = True


def _step_groups(snap: Snapshot, config: RegularizationConfig,
                 learned: Optional[tuple[int, ...]]):
    """The labels a step is laid out with (known ones, or ``learned``, this
    step's learned labels) and the count of groups whose members the layout
    gets: 0 unless the method groups."""
    if config.groups == "known":
        if snap.groups is None:
            raise DataError("groups=known but the snapshot carries no groups")
        labels, k = snap.groups.labels, snap.groups.k
    elif config.groups == "learn":
        labels, k = learned, config.k
    else:
        labels, k = None, 0
    return labels, k if config.method in GROUPING_METHODS else 0


@dataclass(frozen=True, eq=False)
class _Step:
    """What step t is laid out from and scored on: its snapshot, the rows it
    shares with step t-1, each node's last known position, the layout's
    labels, the labels it is scored against (the known groups when the
    snapshot has them), and the members of the groups it kept."""

    t: int
    snap: Snapshot
    shared: Persistence
    X_prev: np.ndarray
    labels: Optional[Sequence[Optional[int]]]
    eval_labels: Optional[Sequence[Optional[int]]]
    C: np.ndarray
    kept: list[int]

    def score(self, X: np.ndarray, static: float, report=None) -> metrics.StepCosts:
        """Cost record of layout X: ``static``, the centroid cost and, after
        the first step, the temporal cost; iterations and trace from a
        stress solve's ``report``."""
        centroid = metrics.centroid_cost(X, self.eval_labels) \
            if self.eval_labels is not None else None
        temporal = None if self.t == 0 else metrics.temporal_cost(X, self.X_prev, self.shared.e)
        return metrics.StepCosts(t=self.t, static_cost=static, centroid_cost=centroid,
                                 temporal_cost=temporal,
                                 iterations=None if report is None else report.iterations,
                                 stress_trace=None if report is None else report.stress_trace)


def _begin_step(network: DynamicNetwork, t: int, last_X: np.ndarray, labels, k: int) -> _Step:
    """Step t of ``network``; row i of ``last_X`` is registry node i's last
    position. Of the first ``k`` groups, those with members at step t are
    kept: an empty group would make the augmented system singular."""
    snap = network.snapshots[t]
    C = build_membership_matrix(labels, k) if k else np.zeros((snap.n, 0))
    kept = [col for col in range(k) if C[:, col].sum() > 0]
    known = snap.groups.labels if snap.groups is not None else None
    return _Step(t, snap, network.persistence(t), last_X[np.asarray(snap.active)], labels,
                 labels if known is None else known, C[:, kept], kept)


def _init_positions(step: _Step, state: _SequenceState,
                    config: RegularizationConfig) -> np.ndarray:
    """Previous-or-initial positions for every current node.

    Persisting and re-entering nodes (those laid out before) use their last
    known position, the matching row of ``step.X_prev``; new nodes fall back
    to their group representative's last position when it has been laid
    out, then to the centroid of their already-placed neighbors, then to a
    small seeded offset from the centroid of the previous layout.
    """
    s, snap, labels = config.dims, step.snap, step.labels
    X = step.X_prev.copy()
    known = state.seen[np.asarray(snap.active)]
    missing = np.flatnonzero(~known)
    if not missing.size:
        return X
    rng = _rng_for(config.seed, step.t, 2)
    if known.any():
        center = X[known].mean(axis=0)
        spread = float(np.sqrt(np.mean(np.sum((X[known] - center) ** 2, axis=1))))
    else:
        center = np.zeros(s)
        spread = 1.0
    for row in missing:
        lab = labels[row] if labels is not None else None
        if lab is not None and state.seen_Y[lab - 1]:
            X[row] = state.last_Y[lab - 1]
            continue
        neighbors = known & (snap.W[row] > 0)
        if neighbors.any():
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


def _augmented_prev(step: _Step, state: _SequenceState, config: RegularizationConfig):
    """Stacked [nodes; kept representatives] previous/initial positions.

    The first step starts from seeded random positions. A representative
    that has not been laid out yet starts at the centroid of its members.
    """
    if step.t == 0:
        X_nodes = _rng_for(config.seed, 0, 0).uniform(-1.0, 1.0, size=(step.snap.n, config.dims))
    else:
        X_nodes = _init_positions(step, state, config)
    if not step.kept:
        return X_nodes, X_nodes
    Y_rows = state.last_Y[step.kept]
    for j in np.flatnonzero(~state.seen_Y[step.kept]):
        Y_rows[j] = X_nodes[np.flatnonzero(step.C[:, j])].mean(axis=0)
    return X_nodes, np.vstack([X_nodes, Y_rows])


def _solve(network: DynamicNetwork, step: _Step, config: RegularizationConfig,
           state: _SequenceState):
    """Lay out ``step`` with the configured method; returns (layout, static
    cost, solve report or None). The static cost is computed from the
    inputs the solve built (distances and weights, or the Laplacian)."""
    t, snap, e = step.t, step.snap, step.shared.e
    method, s = config.method, config.dims
    if method in MDS_METHODS or method == "dgll":
        X_nodes, X_aug_prev = _augmented_prev(step, state, config)
    if method in MDS_METHODS:
        delta, V = mds_inputs(snap.W, config.similarity_mode)
        if method == "dmds":
            layout, report = mds.dmds_layout(delta, V, step.C, config.alpha, config.beta, e,
                                             X_aug_prev, eps=config.epsilon)
        elif method == "mds-static":
            layout, report = mds.smacof_static(delta, V, X_nodes, eps=config.epsilon)
        else:
            layout, report = mds.stabilized_mds_online(delta, V, config.beta, e, X_nodes,
                                                       eps=config.epsilon)
        return layout, metrics.static_cost_mds(layout.X, delta, V), report

    L = gll.laplacian(snap.W)

    def aligned(layout: Layout) -> Layout:
        # an eigen layout takes the axes and signs of the previous step's,
        # chosen on the nodes present at both
        return align_to_reference(layout, step.X_prev, e > 0) if e.any() else layout

    if method == "dgll":
        layout = gll.dgll_layout(snap.W, step.C, config.alpha, config.beta, e, X_aug_prev, s,
                                 normalized=config.normalized,
                                 rng=_rng_for(config.seed, t, 3)).layout
    elif method == "spectral":
        layout = aligned(gll.spectral_layout(L, s, config.normalized))
    elif method == "ccdr":
        layout = aligned(gll.ccdr_layout(snap.W, step.C, config.alpha, s, config.normalized))
    else:  # bfp: the blend weight whose aligned layout has the lowest composite cost
        # the previous adjacency re-indexed to this step's rows (zero for new nodes)
        W_prev = np.zeros((snap.n, snap.n))
        if t > 0:
            rows, prev = step.shared.rows, step.shared.prev_rows
            W_prev[np.ix_(rows, rows)] = network.snapshots[t - 1].W[np.ix_(prev, prev)]
        L_prev = gll.laplacian(W_prev)
        candidates: dict[float, Layout] = {}

        def composite(lam: float) -> float:
            cand = candidates[lam] = aligned(gll.bfp_layout(L_prev, L, lam, s, config.normalized))
            costs = step.score(cand.X, metrics.static_cost_gll(cand.X, L))
            return (costs.static_cost + config.alpha * (costs.centroid_cost or 0.0)
                    + config.beta * (costs.temporal_cost or 0.0))

        layout = candidates[gll.bfp_lambda_select(_LAMBDA_GRID if t > 0 else (0.0,),
                                                  composite)]
    return layout, metrics.static_cost_gll(layout.X, L), None


def run_sequence(network: DynamicNetwork,
                 config: RegularizationConfig) -> tuple[LayoutSequence, metrics.CostReport]:
    """Lay out every snapshot with the configured method and score each
    step, after learning the groups of every step when they are learned.
    Engine failures are re-raised with the failing step attached.

    The run holds single-threaded BLAS (``numerics.single_threaded_blas``),
    so the output does not depend on the machine's BLAS thread count; the
    caller's thread count is restored when the run returns or raises."""
    with single_threaded_blas():
        learned = learn_group_sequence(network, config.k, config.seed)[0] \
            if config.groups == "learn" else None
        return _run_sequence(network, config, learned)


def _run_sequence(network: DynamicNetwork, config: RegularizationConfig,
                  learned: Optional[list[tuple[int, ...]]]
                  ) -> tuple[LayoutSequence, metrics.CostReport]:
    """``run_sequence`` with the learned labels of every step given (None
    unless groups are learned); the caller holds single-threaded BLAS."""
    n_groups = config.k if config.groups == "learn" else max(
        (snap.groups.k for snap in network.snapshots if snap.groups is not None), default=0)
    state = _SequenceState(len(network.registry), n_groups, config.dims)
    sequence = LayoutSequence(metadata=config.metadata())
    report = metrics.CostReport(method=config.method, params=config.metadata())

    for t, snap in enumerate(network.snapshots):
        with _naming_step(t):
            labels, k = _step_groups(snap, config, learned[t] if learned is not None else None)
            step = _begin_step(network, t, state.last_X, labels, k)
            layout, static, solved = _solve(network, step, config, state)
            report.steps.append(step.score(layout.X, static, solved))

            state.update(np.asarray(snap.active), layout.X, step.kept, layout.Y)
            sequence.steps.append(LayoutStep(
                t=t, ids=tuple(network.registry.id_of(i) for i in snap.active),
                X=layout.X, labels=labels if labels is not None else step.eval_labels,
                Y=state.last_Y[:k].copy() if step.kept else None,
            ))
    return sequence, report


def check_layout_nodes(network: DynamicNetwork, sequence: LayoutSequence) -> None:
    """Raise DataError unless the stored layout sequence has one step per
    snapshot and each step lists the snapshot's active node ids in order."""
    if len(sequence.steps) != len(network.snapshots):
        raise DataError("layout document and snapshot file have different step counts")
    for t, (step, snap) in enumerate(zip(sequence.steps, network.snapshots)):
        if step.ids != tuple(network.registry.id_of(idx) for idx in snap.active):
            raise DataError(f"step t={t}: layout node ids differ from the snapshot's "
                            "active nodes in set or order")


def score_sequence(network: DynamicNetwork, sequence: LayoutSequence) -> metrics.CostReport:
    """Cost record of a stored layout sequence: each step scored as
    ``run_sequence`` scored it, with the static cost of the sequence's method
    and the known groups (else the stored labels). Iterations are not
    recomputed."""
    check_layout_nodes(network, sequence)
    method = str(sequence.metadata.get("method", "dmds"))
    if method not in METHODS:
        raise DataError(f"layout document names unknown method {method!r}; "
                        f"choose from {METHODS}")
    similarity_mode = sequence.metadata.get("similarity_mode")
    report = metrics.CostReport(method=method, params=dict(sequence.metadata))
    last_X = np.zeros((len(network.registry), sequence.steps[0].X.shape[1]))
    for t, (stored, snap) in enumerate(zip(sequence.steps, network.snapshots)):
        if method in MDS_METHODS:
            static = metrics.static_cost_mds(stored.X, *mds_inputs(snap.W, similarity_mode))
        else:
            static = metrics.static_cost_gll(stored.X, gll.laplacian(snap.W))
        step = _begin_step(network, t, last_X, stored.labels, 0)
        report.steps.append(step.score(stored.X, static))
        last_X[np.asarray(snap.active)] = stored.X
    return report


def parameter_sweep(network: DynamicNetwork, method: str, alpha_grid: Sequence[float],
                    beta_grid: Sequence[float], seeds: Sequence[int],
                    base_config: Optional[RegularizationConfig] = None) -> list[dict]:
    """Full-factorial (alpha, beta) evaluation, seed-averaged per cell.

    Learned groups depend on the network, k and seed only, so each seed's
    on-line clustering runs once, in its first cell, and later cells reuse
    its labels."""
    base = base_config or RegularizationConfig(method=method)
    learned: dict[int, list[tuple[int, ...]]] = {}  # seed -> its learned labels per step
    records = []
    with single_threaded_blas():
        for alpha in alpha_grid:
            for beta in beta_grid:
                stats = {"static": [], "centroid": [], "temporal": [], "iterations": []}
                for seed in seeds:
                    config = replace(base, method=method, alpha=alpha, beta=beta, seed=seed)
                    if config.groups == "learn" and seed not in learned:
                        learned[seed] = learn_group_sequence(network, config.k, seed)[0]
                    _, report = _run_sequence(network, config, learned.get(seed))
                    stats["static"].append(report.mean_static)
                    stats["centroid"].append(report.mean_centroid)
                    stats["temporal"].append(report.mean_temporal)
                    stats["iterations"].append(report.mean_iterations)
                records.append({"alpha": alpha, "beta": beta,
                                **{f"mean_{name}": metrics.mean_of_present(values)
                                   for name, values in stats.items()}})
    return records
