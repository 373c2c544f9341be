"""Evolutionary spectral clustering with an adaptive forgetting factor.

At each step the current adjacency matrix is blended with the previous
smoothed matrix; the blend weight is estimated from within/between-cluster
sample statistics, and normalized-cut spectral clustering runs on the
result. Estimation and clustering alternate until the labels stop
changing.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError
from .numerics import gen_eig_smallest

_KMEANS_RESTARTS = 100
_KMEANS_MAX_ITER = 300
_MAX_REFINE = 10  # factor/clustering rounds per evolutionary step
_LOCKSTEP_ELEMENTS = 1 << 16  # bound on one k-means chunk's distance terms (512 KiB)


def affect_smooth(psi_prev: np.ndarray, W: np.ndarray, alpha: float) -> np.ndarray:
    """Convex blend alpha * psi_prev + (1 - alpha) * W."""
    return alpha * np.asarray(psi_prev, dtype=float) + (1.0 - alpha) * np.asarray(W, dtype=float)


def _block_statistics(W: np.ndarray, labels: np.ndarray, k: int):
    # Sample mean/variance per (c, d) label block. Each distinct unordered
    # off-diagonal pair counts as one observation (W is symmetric, so the
    # mirrored entry is the same realization, not a second sample); blocks
    # with fewer than 2 observations get variance 0. Every block is a slice
    # of one copy of W sorted stably by label, so its entries keep the
    # row-major order of W[np.ix_(rows, cols)].
    means = np.zeros((k, k))
    variances = np.zeros((k, k))
    order = np.argsort(labels, kind="stable")
    W_sorted = W[np.ix_(order, order)]
    bounds = np.searchsorted(labels[order], np.arange(1, k + 2))
    for c in range(k):
        rows = slice(bounds[c], bounds[c + 1])
        for d in range(c, k):
            block = W_sorted[rows, bounds[d]:bounds[d + 1]]
            entries = block[~np.tri(*block.shape, dtype=bool)] if d == c else block.ravel()
            if entries.size == 0:
                continue
            means[c, d] = means[d, c] = entries.mean()
            if entries.size >= 2:
                variances[c, d] = variances[d, c] = entries.var(ddof=1)
    return means, variances


def affect_alpha(psi_prev: np.ndarray, W: np.ndarray, labels) -> float:
    """Estimated optimal forgetting factor in [0, 1].

    Unknown edge means and variances are replaced by sample statistics
    over the label blocks of the current adjacency matrix; the diagonal is
    excluded (self-edges are structurally zero).
    """
    W = np.asarray(W, dtype=float)
    psi_prev = np.asarray(psi_prev, dtype=float)
    labels = np.asarray(labels, dtype=int)
    n = W.shape[0]
    if labels.shape[0] != n:
        raise DataError("labels must cover every node")
    k = int(labels.max())
    means, variances = _block_statistics(W, labels, k)
    mean_of = means[labels - 1][:, labels - 1]
    var_of = variances[labels - 1][:, labels - 1]
    off = ~np.eye(n, dtype=bool)
    numer = float(var_of[off].sum())
    denom = float(((psi_prev - mean_of)[off] ** 2).sum() + numer)
    if denom == 0.0:
        return 0.0
    return float(np.clip(numer / denom, 0.0, 1.0))


def _furthest_first_centers(points: np.ndarray, k: int, firsts: np.ndarray) -> np.ndarray:
    # (R, k, s) initial centers, one furthest-first chain per first index
    chosen = np.empty((firsts.size, k), dtype=int)
    chosen[:, 0] = firsts
    dist = np.linalg.norm(points - points[firsts, None], axis=-1)
    for j in range(1, k):
        chosen[:, j] = np.argmax(dist, axis=1)
        dist = np.minimum(dist, np.linalg.norm(points - points[chosen[:, j], None], axis=-1))
    return points[chosen]


def _member_means(points: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    # (R, k, s) means of each restart's clusters: member sums in index order,
    # as ``points[labels == c].mean(axis=0)`` adds two or more columns
    R, n = labels.shape
    s = points.shape[1]
    key = np.arange(R)[:, None] * k + labels
    counts = np.bincount(key.ravel(), minlength=R * k).reshape(R, k, 1)
    sums = np.bincount((key[:, :, None] * s + np.arange(s)).ravel(),
                       weights=np.broadcast_to(points, (R, n, s)).ravel(), minlength=R * k * s)
    return sums.reshape(R, k, s) / counts


def _lockstep_lloyd(points: np.ndarray, k: int, firsts: np.ndarray):
    # Lloyd rounds of the restarts started at ``firsts``, in lockstep; a
    # restart whose labels stop changing is frozen. Returns (labels, wcss)
    # per restart.
    n = points.shape[0]
    centers = _furthest_first_centers(points, k, firsts)
    labels = np.zeros((firsts.size, n), dtype=int)
    running = np.arange(firsts.size)
    for _ in range(_KMEANS_MAX_ITER):
        dists = np.linalg.norm(points[:, None, :] - centers[running, None], axis=-1)
        new_labels = np.argmin(dists, axis=2)
        counts = np.bincount((np.arange(running.size)[:, None] * k + new_labels).ravel(),
                             minlength=running.size * k).reshape(-1, k)
        for a in np.flatnonzero((counts == 0).any(axis=1)):
            # revive each empty cluster with a distinct point: the worst fit
            # of a cluster that keeps another member
            fit, size = dists[a, np.arange(n), new_labels[a]], counts[a]
            for c in np.flatnonzero(size == 0):
                worst = int(np.argmax(np.where(size[new_labels[a]] > 1, fit, -np.inf)))
                size[new_labels[a, worst]] -= 1
                size[c] = 1
                new_labels[a, worst] = c
                centers[running[a], c] = points[worst]
        changed = (new_labels != labels[running]).any(axis=1)
        running, new_labels = running[changed], new_labels[changed]
        if running.size == 0:
            break
        labels[running] = new_labels
        centers[running] = _member_means(points, new_labels, k)
    wcss = ((points - centers[np.arange(firsts.size)[:, None], labels]) ** 2
            ).reshape(firsts.size, -1).sum(axis=1)
    return labels, wcss


def kmeans(points: np.ndarray, k: int, seed) -> tuple[np.ndarray, float]:
    """Seeded Lloyd k-means with furthest-first initialization.

    Draws ``_KMEANS_RESTARTS`` first indices; each distinct one starts a
    restart of at most ``_KMEANS_MAX_ITER`` Lloyd rounds, and the first
    restart with the lowest within-cluster sum of squares wins. The
    restarts run in lockstep on one (restart, cluster, coordinate) array
    of centers, in chunks of restarts whose (restart, point, cluster,
    coordinate) distance terms stay within ``_LOCKSTEP_ELEMENTS``. Each
    keeps the arithmetic of a restart run on its own, so for points of
    two or more columns (``spectral_cluster`` passes k >= 2 eigenvector
    columns) the result is the same, bit for bit, as running the
    restarts one after another. Returns (labels in 1..k, wcss).

    A round that leaves a cluster empty revives it with the worst-fit point
    of a cluster that keeps another member. With k or more distinct rows
    each revival lowers the sum of squares, so no restart cycles; fewer are
    a DataError (``spectral_cluster``'s rows have rank k, so they always
    hold k distinct rows).
    """
    points = np.asarray(points, dtype=float)
    n, s = points.shape
    distinct = len(np.unique(points, axis=0))
    if k > distinct:
        raise DataError(f"cannot form {k} clusters from {distinct} distinct points")
    rng = np.random.default_rng(seed)
    # a repeated first index repeats a whole restart exactly; each is drawn
    # as one scalar, which keeps the random stream of the later restarts
    firsts = np.array(list(dict.fromkeys(int(rng.integers(n))
                                         for _ in range(_KMEANS_RESTARTS))))
    chunk = max(1, _LOCKSTEP_ELEMENTS // (n * k * s))
    runs = [_lockstep_lloyd(points, k, firsts[i:i + chunk])
            for i in range(0, firsts.size, chunk)]
    labels, wcss = map(np.concatenate, zip(*runs))
    best = int(np.argmin(wcss))
    return labels[best] + 1, float(wcss[best])


def spectral_cluster(psi: np.ndarray, k: int, seed) -> np.ndarray:
    """Normalized-cut spectral clustering: the k smallest generalized
    eigenvectors of (L, D), rows normalized to unit length, partitioned by
    seeded k-means. Returns labels in 1..k."""
    psi = np.maximum(np.asarray(psi, dtype=float), 0.0)
    n = psi.shape[0]
    if k > n:
        raise DataError(f"cannot form {k} clusters from {n} nodes")
    if k < 2:
        raise DataError("clustering needs k >= 2")
    # isolated nodes get a vanishing degree so the transform stays defined
    d = np.maximum(psi.sum(axis=1), 1e-12)
    _, U = gen_eig_smallest(np.diag(d) - psi, d, k)
    norms = np.linalg.norm(U, axis=1)
    rows = norms > 0
    U = U.copy()
    U[rows] /= norms[rows, None]
    labels, _ = kmeans(U, k, seed)
    return labels


def _assignment(cost: np.ndarray) -> list[int]:
    """The column of each row in a minimum-cost assignment of a square,
    finite cost matrix.

    Crouse's shortest augmenting path (IEEE TAES 52(4), 2016), ported
    from SciPy 1.17.1's ``linear_sum_assignment`` step for step, so that
    ties resolve to the same assignment bit for bit.
    """
    cost = np.asarray(cost, dtype=float).tolist()
    n = len(cost)
    u, v = [0.0] * n, [0.0] * n
    path, col4row, row4col = [-1] * n, [-1] * n, [-1] * n
    for cur in range(n):
        # shortest augmenting path from row cur to an unassigned column
        spc = [float("inf")] * n
        rows, cols = [], []
        remaining = list(range(n - 1, -1, -1))  # reversed: identity for a constant matrix
        min_val = 0.0
        i, sink = cur, -1
        while sink == -1:
            rows.append(i)
            index, lowest = -1, float("inf")
            for it, j in enumerate(remaining):
                r = min_val + cost[i][j] - u[i] - v[j]
                if r < spc[j]:
                    path[j] = i
                    spc[j] = r
                if spc[j] < lowest or (spc[j] == lowest and row4col[j] == -1):
                    lowest, index = spc[j], it
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        # dual update, then augment along the path
        u[cur] += min_val
        for i in rows[1:]:
            u[i] += min_val - spc[col4row[i]]
        for j in cols:
            v[j] -= min_val - spc[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def label_permutation(reference, labels, k: int) -> np.ndarray:
    """The renaming of labels 1..k that maximizes their overlap with a
    reference labeling of the same nodes: label b becomes ``perm[b - 1]``."""
    names = np.arange(1, k + 1)
    ref_onehot = (np.asarray(reference, dtype=int)[:, None] == names).astype(float)
    lab_onehot = (np.asarray(labels, dtype=int)[:, None] == names).astype(float)
    overlap = ref_onehot.T @ lab_onehot
    perm = np.empty(k, dtype=int)
    perm[_assignment(-overlap)] = names
    return perm


def match_labels(reference, labels, k: int) -> np.ndarray:
    """Permute label names to maximize overlap with a reference labeling
    (stable coloring across time steps)."""
    labels = np.asarray(labels, dtype=int)
    return label_permutation(reference, labels, k)[labels - 1]


def affect_cluster_step(psi_prev, W, prev_labels, k: int,
                        seed) -> tuple[np.ndarray, np.ndarray, float]:
    """One time step of the evolutionary clustering loop.

    With no history (psi_prev is None) the forgetting factor is 0 and the
    labels come from static clustering of W. Otherwise the factor estimate
    and the clustering are refined alternately until the partition stops
    changing or ``_MAX_REFINE`` rounds pass. Returns (labels, smoothed
    adjacency, factor).
    """
    W = np.asarray(W, dtype=float)
    if psi_prev is None:
        labels = spectral_cluster(W, k, seed)
        return labels, W.copy(), 0.0
    labels = np.asarray(prev_labels, dtype=int)
    alpha = 0.0
    psi = W.copy()
    for _ in range(_MAX_REFINE):
        alpha = affect_alpha(psi_prev, W, labels)
        psi = affect_smooth(psi_prev, W, alpha)
        new_labels = match_labels(labels, spectral_cluster(psi, k, seed), k)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels, psi, alpha

