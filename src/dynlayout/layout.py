"""Layout containers and eigen-layout post-processing."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class Layout:
    """Node coordinates X (n x s) plus group-representative coordinates
    Y (k x s, possibly empty)."""

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        # C order, like a layout read back from a file, so that costs summed
        # over it come out in the same bits
        X = np.ascontiguousarray(np.atleast_2d(np.asarray(self.X, dtype=float)))
        Y = np.ascontiguousarray(np.asarray(self.Y, dtype=float).reshape(-1, X.shape[1])) \
            if np.size(self.Y) else np.zeros((0, X.shape[1]))
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Y))):
            raise DataError("layout coordinates must be finite")
        X.flags.writeable = False
        Y.flags.writeable = False
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)


def align_to_reference(layout: Layout, ref: np.ndarray, mask: np.ndarray) -> Layout:
    """The layout with the columns of X and Y permuted and sign-flipped
    alike, to maximize trace alignment of X with a reference layout of X's
    shape on the rows that ``mask`` marks (e.g. the nodes present in the
    reference).

    Eigen-based layouts are only defined up to axis permutation and
    reflection; without this step their temporal cost is dominated by
    arbitrary sign flips.
    """
    ref = np.asarray(ref, dtype=float)
    X = layout.X
    s = X.shape[1]
    if ref.shape != X.shape:
        raise DataError(f"reference shape {ref.shape} differs from layout shape {X.shape}")
    rows = np.flatnonzero(mask)
    A = X[rows].T @ ref[rows]
    best_score, best_perm = -np.inf, None
    for perm in itertools.permutations(range(s)):
        score = sum(abs(A[perm[b], b]) for b in range(s))
        if score > best_score:
            best_score, best_perm = score, perm
    signs = np.array([1.0 if A[best_perm[b], b] >= 0 else -1.0 for b in range(s)])
    cols = list(best_perm)
    return Layout(X=X[:, cols] * signs, Y=layout.Y[:, cols] * signs)
