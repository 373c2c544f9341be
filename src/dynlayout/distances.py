"""Desired-distance and MDS-weight construction from adjacency matrices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.sparse.csgraph import shortest_path as _csgraph_shortest_path

from .errors import DataError


@dataclass(frozen=True)
class DistanceMatrix:
    """All-pairs shortest-path lengths, np.inf for unreachable pairs."""

    delta: np.ndarray


def shortest_path_distances(W_dissim: np.ndarray) -> DistanceMatrix:
    """All-pairs shortest paths of an undirected graph with dissimilarity
    edge weights (zero entries mean "no edge").

    Runs one priority-queue single-source pass per node; unreachable pairs
    are infinite. An edge present one way keeps its weight and one present
    both ways takes the smaller, as csgraph's undirected mode reads a
    matrix; the passes then run in its cheaper directed mode, with the same
    bits.
    """
    W = np.asarray(W_dissim, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise DataError(f"adjacency must be square, got shape {W.shape}")
    if np.any(W < 0):
        raise DataError("edge weights must be positive")
    lo, hi = np.minimum(W, W.T), np.maximum(W, W.T)
    undirected = np.where(lo > 0, lo, hi)
    delta = _csgraph_shortest_path(scipy.sparse.csr_matrix(undirected), method="D",
                                   directed=True)
    return DistanceMatrix(delta=delta)


def kk_weights(dm: DistanceMatrix) -> np.ndarray:
    """Kamada-Kawai MDS weights v_ij = delta_ij^-2, zero on the diagonal
    and for unreachable pairs."""
    delta = dm.delta
    n = delta.shape[0]
    mask = ~np.eye(n, dtype=bool) & np.isfinite(delta)
    degenerate = mask & (delta == 0)
    if np.any(degenerate):
        i, j = np.argwhere(degenerate)[0]
        raise DataError(f"zero distance between distinct nodes ({i},{j})")
    V = np.zeros_like(delta)
    V[mask] = delta[mask] ** -2.0
    return V


SIMILARITY_MODES = ("linear", "inverse")


def similarity_to_dissimilarity(W_sim: np.ndarray, mode: str = "inverse") -> np.ndarray:
    """Convert similarity edge weights into dissimilarities.

    linear:  w' = w / w_max   (the strongest tie becomes the longest edge)
    inverse: w' = w_max / w   (the strongest tie becomes the shortest;
             default)

    Both modes are offered because rank-weighted data appears with either
    convention. Zero entries stay zero (no edge).
    """
    W = np.asarray(W_sim, dtype=float)
    if np.any(W < 0):
        raise DataError("similarity weights must be nonnegative")
    w_max = W.max()
    if w_max == 0:
        raise DataError("cannot convert an all-zero adjacency matrix")
    out = np.zeros_like(W)
    nz = W > 0
    if mode == "linear":
        out[nz] = W[nz] / w_max
    elif mode == "inverse":
        out[nz] = w_max / W[nz]
    else:
        raise DataError(f"unknown conversion mode {mode!r}")
    return out


def top_m_graph(scores: np.ndarray, m: int, weighting: str = "unit") -> np.ndarray:
    """Adjacency from a directed score matrix: each node gets edges to its
    m highest-scoring peers (ties broken by ascending index), symmetrized
    by max.

    weighting "rank_descending" assigns weights m..1 from best to worst;
    "unit" assigns weight 1. Peers with zero score are never selected.
    """
    S = np.asarray(scores, dtype=float)
    n = S.shape[0]
    if S.ndim != 2 or S.shape[1] != n:
        raise DataError(f"score matrix must be square, got shape {S.shape}")
    if np.any(S < 0):
        raise DataError("scores must be nonnegative")
    if not 0 < m < n:
        raise DataError(f"m must satisfy 0 < m < n, got m={m}, n={n}")
    if weighting not in ("rank_descending", "unit"):
        raise DataError(f"unknown weighting {weighting!r}")
    eligible = S > 0
    np.fill_diagonal(eligible, False)
    # a stable sort of -S keeps equal scores in ascending index order
    picks = np.argsort(np.where(eligible, -S, np.inf), axis=1, kind="stable")[:, :m]
    rows = np.arange(n)[:, None]
    weights = np.arange(m, 0, -1.0) if weighting == "rank_descending" else np.ones(m)
    W = np.zeros((n, n))
    W[rows, picks] = np.where(eligible[rows, picks], weights, 0.0)
    return np.maximum(W, W.T)
