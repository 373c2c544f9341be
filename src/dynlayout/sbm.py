"""Stochastic-block-model snapshot sequences with an optional change point."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DataError
from .graph import DynamicNetwork, GroupAssignment, NodeRegistry, Snapshot


@dataclass(frozen=True)
class SbmConfig:
    """Block-model parameters for a T-step sequence of independent draws.

    At ``change_step`` a ``change_fraction`` share of the nodes (rounded)
    is reassigned, each to a uniformly chosen *different* group; labels are
    constant otherwise.
    """

    n: int
    k: int
    P: np.ndarray
    T: int
    change_step: Optional[int] = None
    change_fraction: float = 0.0
    seed: int = 0
    balanced: bool = False

    def __post_init__(self):
        if self.k < 1:
            raise DataError(f"k must be >= 1, got {self.k}")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")
        P = np.asarray(self.P, dtype=float)
        if P.shape != (self.k, self.k):
            raise DataError(f"probability matrix must be {self.k}x{self.k}, got {P.shape}")
        if not np.array_equal(P, P.T):
            raise DataError("probability matrix must be symmetric")
        if np.any(P < 0) or np.any(P > 1):
            raise DataError("edge probabilities must lie in [0, 1]")
        if not 0.0 <= self.change_fraction <= 1.0:
            raise DataError("change fraction must lie in [0, 1]")
        if self.change_step is not None and not 0 < self.change_step < self.T:
            raise DataError(f"change step must lie in (0, {self.T}), got {self.change_step}")
        if self.k == 1 and self.change_step is not None and _moved_count(self) > 0:
            raise DataError("a change step that moves nodes needs k >= 2 groups")
        P = P.copy()
        P.flags.writeable = False
        object.__setattr__(self, "P", P)

    @classmethod
    def two_rate(cls, n: int, k: int, p_in: float, p_out: float, T: int, **kwargs) -> "SbmConfig":
        P = np.full((k, k), p_out)
        np.fill_diagonal(P, p_in)
        return cls(n=n, k=k, P=P, T=T, **kwargs)


def sbm_sample(P: np.ndarray, labels, rng: np.random.Generator) -> np.ndarray:
    """One unweighted symmetric draw: each unordered pair (i, j) gets an
    edge independently with probability P[group(i), group(j)]."""
    labels = np.asarray(labels, dtype=int)
    n = labels.shape[0]
    probs = np.asarray(P, dtype=float)[labels - 1][:, labels - 1]
    draw = rng.random((n, n))
    upper = np.triu(draw < probs, 1)
    return (upper | upper.T).astype(float)


def _initial_labels(config: SbmConfig, rng: np.random.Generator) -> np.ndarray:
    if config.balanced:
        base = np.array([(i % config.k) + 1 for i in range(config.n)])
        return base[rng.permutation(config.n)]
    return rng.integers(1, config.k + 1, size=config.n)


def _moved_count(config: SbmConfig) -> int:
    return int(round(config.n * config.change_fraction))


def _reassign(labels: np.ndarray, config: SbmConfig, rng: np.random.Generator) -> np.ndarray:
    chosen = rng.choice(config.n, size=_moved_count(config), replace=False)
    new_labels = labels.copy()
    for i in chosen:
        # uniform over the k-1 other groups
        r = int(rng.integers(1, config.k))
        new_labels[i] = r if r < labels[i] else r + 1
    return new_labels


def sbm_sequence(config: SbmConfig) -> DynamicNetwork:
    """T independent snapshots, each with its planted group labels attached
    as ``snap.groups``."""
    rng = np.random.default_rng(config.seed)
    width = len(str(config.n - 1))
    registry = NodeRegistry(f"{i:0{width}d}" for i in range(config.n))
    labels = _initial_labels(config, rng)
    snapshots = []
    for t in range(config.T):
        if config.change_step is not None and t == config.change_step:
            labels = _reassign(labels, config, rng)
        W = sbm_sample(config.P, labels, rng)
        snapshots.append(Snapshot(
            t=t, W=W, active=tuple(range(config.n)),
            groups=GroupAssignment(labels=tuple(int(v) for v in labels), k=config.k),
        ))
    return DynamicNetwork(registry, snapshots)
