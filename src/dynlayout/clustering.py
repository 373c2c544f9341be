"""Evolutionary spectral clustering with an adaptive forgetting factor.

At each step the current adjacency matrix is blended with the previous
smoothed matrix; the blend weight is estimated from within/between-cluster
sample statistics, and normalized-cut spectral clustering runs on the
result. Estimation and clustering alternate until the labels stop
changing.
"""

from __future__ import annotations

import numpy as np
import scipy.optimize

from .errors import DataError
from .numerics import gen_eig_smallest


def affect_smooth(psi_prev: np.ndarray, W: np.ndarray, alpha: float) -> np.ndarray:
    """Convex blend alpha * psi_prev + (1 - alpha) * W."""
    return alpha * np.asarray(psi_prev, dtype=float) + (1.0 - alpha) * np.asarray(W, dtype=float)


def _block_statistics(W: np.ndarray, labels: np.ndarray, k: int):
    # Sample mean/variance per (c, d) label block. Each distinct unordered
    # off-diagonal pair counts as one observation (W is symmetric, so the
    # mirrored entry is the same realization, not a second sample); blocks
    # with fewer than 2 observations get variance 0.
    n = W.shape[0]
    means = np.zeros((k, k))
    variances = np.zeros((k, k))
    for c in range(1, k + 1):
        rows = np.flatnonzero(labels == c)
        for d in range(c, k + 1):
            cols = np.flatnonzero(labels == d)
            if d == c:
                entries = np.array([W[i, j] for a, i in enumerate(rows)
                                    for j in rows[a + 1:]])
            else:
                entries = W[np.ix_(rows, cols)].ravel()
            if entries.size == 0:
                continue
            means[c - 1, d - 1] = means[d - 1, c - 1] = entries.mean()
            if entries.size >= 2:
                v = entries.var(ddof=1)
                variances[c - 1, d - 1] = variances[d - 1, c - 1] = v
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


def _furthest_first_centers(points: np.ndarray, k: int, first: int) -> np.ndarray:
    centers = [first]
    dist = np.linalg.norm(points - points[first], axis=1)
    while len(centers) < k:
        nxt = int(np.argmax(dist))
        centers.append(nxt)
        dist = np.minimum(dist, np.linalg.norm(points - points[nxt], axis=1))
    return points[centers].copy()


def kmeans(points: np.ndarray, k: int, seed, restarts: int = 100,
           max_iter: int = 300) -> tuple[np.ndarray, float]:
    """Seeded Lloyd k-means with furthest-first initialization.

    Runs ``restarts`` independent starts and keeps the labeling with the
    lowest within-cluster sum of squares. Returns (labels in 1..k, wcss).
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if k > n:
        raise DataError(f"cannot form {k} clusters from {n} points")
    rng = np.random.default_rng(seed)
    best_labels, best_wcss = None, np.inf
    tried = set()
    for _ in range(restarts):
        # a repeated first index repeats a whole restart exactly; drawing
        # it anyway keeps the random stream of the later restarts
        first = int(rng.integers(n))
        if first in tried:
            continue
        tried.add(first)
        centers = _furthest_first_centers(points, k, first)
        labels = np.zeros(n, dtype=int)
        for _ in range(max_iter):
            dists = np.linalg.norm(points[:, None, :] - centers[None, :, :], axis=2)
            new_labels = np.argmin(dists, axis=1)
            for c in range(k):
                if not np.any(new_labels == c):
                    # revive an empty cluster with the worst-fit point
                    worst = int(np.argmax(dists[np.arange(n), new_labels]))
                    new_labels[worst] = c
                    centers[c] = points[worst]
            if np.array_equal(new_labels, labels):
                break
            labels = new_labels
            for c in range(k):
                centers[c] = points[labels == c].mean(axis=0)
        wcss = float(np.sum((points - centers[labels]) ** 2))
        if wcss < best_wcss:
            best_labels, best_wcss = labels, wcss
    return best_labels + 1, best_wcss


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
    degrees = psi.sum(axis=1)
    # isolated nodes get a vanishing degree so the transform stays defined
    D = np.diag(np.maximum(degrees, 1e-12))
    L = np.diag(np.maximum(degrees, 1e-12)) - psi
    U = gen_eig_smallest(L, D, k).vectors
    norms = np.linalg.norm(U, axis=1)
    rows = norms > 0
    U = U.copy()
    U[rows] /= norms[rows, None]
    labels, _ = kmeans(U, k, seed)
    return labels


def match_labels(reference, labels, k: int) -> np.ndarray:
    """Permute label names to maximize overlap with a reference labeling
    (stable coloring across time steps)."""
    reference = np.asarray(reference, dtype=int)
    labels = np.asarray(labels, dtype=int)
    overlap = np.zeros((k, k))
    for a in range(1, k + 1):
        for b in range(1, k + 1):
            overlap[a - 1, b - 1] = np.sum((reference == a) & (labels == b))
    rows, cols = scipy.optimize.linear_sum_assignment(-overlap)
    mapping = {int(b) + 1: int(a) + 1 for a, b in zip(rows, cols)}
    return np.array([mapping[int(lab)] for lab in labels], dtype=int)


def affect_cluster_step(psi_prev, W, prev_labels, k: int, seed,
                        max_refine: int = 10) -> tuple[np.ndarray, np.ndarray, float]:
    """One time step of the evolutionary clustering loop.

    With no history (psi_prev is None) the forgetting factor is 0 and the
    labels come from static clustering of W. Otherwise the factor estimate
    and the clustering are refined alternately until the partition stops
    changing or ``max_refine`` rounds pass. Returns (labels, smoothed
    adjacency, factor).
    """
    W = np.asarray(W, dtype=float)
    if psi_prev is None:
        labels = spectral_cluster(W, k, seed)
        return labels, W.copy(), 0.0
    labels = np.asarray(prev_labels, dtype=int)
    alpha = 0.0
    psi = W.copy()
    for _ in range(max_refine):
        alpha = affect_alpha(psi_prev, W, labels)
        psi = affect_smooth(psi_prev, W, alpha)
        new_labels = match_labels(labels, spectral_cluster(psi, k, seed), k)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels, psi, alpha


def adjusted_rand_index(a, b) -> float:
    """Chance-corrected agreement between two labelings."""
    a = np.asarray(a)
    b = np.asarray(b)
    cats_a = {v: i for i, v in enumerate(np.unique(a))}
    cats_b = {v: i for i, v in enumerate(np.unique(b))}
    table = np.zeros((len(cats_a), len(cats_b)))
    for x, y in zip(a, b):
        table[cats_a[x], cats_b[y]] += 1

    def comb2(v):
        return v * (v - 1) / 2.0

    sum_cells = comb2(table).sum()
    sum_rows = comb2(table.sum(axis=1)).sum()
    sum_cols = comb2(table.sum(axis=0)).sum()
    total = comb2(float(len(a)))
    expected = sum_rows * sum_cols / total
    max_index = (sum_rows + sum_cols) / 2.0
    if max_index == expected:
        return 1.0
    return float((sum_cells - expected) / (max_index - expected))
