"""Stress-based layouts.

Covers the static SMACOF solve, the regularized on-line variant that adds
grouping and temporal penalties through an augmented weight system, and
the localized-update stabilized baseline. All three share one modified
stress function; the static solve is the special case with no groups and
no temporal anchor.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NotPositiveDefiniteError
from .layout import Layout
from .numerics import spd_factor, spd_solve

logger = logging.getLogger(__name__)

DEFAULT_EPSILON = 1e-4
DEFAULT_MAX_ITER = 1000


@dataclass(frozen=True)
class SmacofReport:
    """Iteration count and the stress value before and after each solve."""

    iterations: int
    stress_trace: tuple[float, ...]
    hit_iteration_cap: bool = False


def _pairwise_distances(X: np.ndarray) -> np.ndarray:
    # one coordinate at a time, so no (n, n, s) difference tensor is built
    sq = np.zeros((X.shape[0], X.shape[0]))
    for col in X.T:
        diff = col[:, None] - col[None, :]
        sq += diff * diff
    return np.sqrt(sq, out=sq)


class _Majorization:
    """Modified stress and majorization matrix of one (V, delta) system.

    What a solve never changes is built once: the V > 0 mask and the
    products -v_ij delta_ij, computed only where v_ij > 0 so that
    unreachable pairs (delta = inf) never produce NaNs. ``at`` computes an
    iterate's pairwise distances once; ``stress`` and ``S`` both read them.
    """

    def __init__(self, V: np.ndarray, delta: np.ndarray, beta: float = 0.0,
                 e: np.ndarray | None = None, X_prev: np.ndarray | None = None):
        self.V, self.delta = V, delta
        self.mask = V > 0
        self.neg_num = np.multiply(V, delta, out=np.zeros_like(V), where=self.mask)
        np.negative(self.neg_num, out=self.neg_num)
        self.num_nonzero = self.neg_num != 0
        self.beta, self.e, self.X_prev = beta, e, X_prev

    def at(self, X: np.ndarray) -> "_Majorization":
        self.X = np.atleast_2d(np.asarray(X, dtype=float))
        self.dist = _pairwise_distances(self.X)
        return self

    def stress(self) -> float:
        resid = np.subtract(self.delta, self.dist, out=np.zeros_like(self.V), where=self.mask)
        resid *= resid
        resid *= self.V
        value = float(0.5 * np.sum(resid))
        if self.beta != 0:
            n = self.e.shape[0]
            moved = self.X[:n] - self.X_prev[:n]
            value += self.beta * float(np.sum(self.e * np.einsum("ij,ij->i", moved, moved)))
        return value

    def S(self) -> np.ndarray:
        S = np.zeros_like(self.V)
        np.divide(self.neg_num, self.dist, out=S, where=self.num_nonzero & (self.dist > 0))
        np.fill_diagonal(S, 0.0)
        np.fill_diagonal(S, -S.sum(axis=1))
        return S


def stress(X: np.ndarray, delta: np.ndarray, V: np.ndarray) -> float:
    """Weighted squared mismatch between layout distances and desired
    distances: (1/2) sum_ij v_ij (delta_ij - |x_i - x_j|)^2."""
    system = _Majorization(np.asarray(V, dtype=float), np.asarray(delta, dtype=float))
    return system.at(X).stress()


def build_R(V: np.ndarray) -> np.ndarray:
    """Weighted Laplacian of the MDS weight matrix: r_ij = -v_ij off the
    diagonal, rows summing to zero."""
    R = -np.asarray(V, dtype=float).copy()
    np.fill_diagonal(R, 0.0)
    np.fill_diagonal(R, -R.sum(axis=1))
    return R


def build_S(V: np.ndarray, delta: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Majorization matrix at the reference configuration Z.

    Off-diagonal s_ij = -v_ij delta_ij / |z_i - z_j|, set to 0 for
    coincident points (standard SMACOF convention); the diagonal makes
    rows sum to zero.
    """
    system = _Majorization(np.asarray(V, dtype=float), np.asarray(delta, dtype=float))
    return system.at(Z).S()


def augment_mds(V: np.ndarray, delta: np.ndarray, C: np.ndarray, alpha: float):
    """Fold the grouping penalty into the MDS weight system.

    Returns (V_aug, delta_aug) of size (n+k) x (n+k): representatives are
    extra points tied to their members with weight alpha and desired
    distance zero.
    """
    V = np.asarray(V, dtype=float)
    delta = np.asarray(delta, dtype=float)
    C = np.asarray(C, dtype=float)
    n, k = C.shape
    if V.shape != (n, n):
        raise DataError(f"V shape {V.shape} does not match membership rows {n}")
    if k == 0:
        return V.copy(), delta.copy()
    V_aug = np.zeros((n + k, n + k))
    V_aug[:n, :n] = V
    V_aug[:n, n:] = alpha * C
    V_aug[n:, :n] = alpha * C.T
    delta_aug = np.zeros((n + k, n + k))
    delta_aug[:n, :n] = delta
    return V_aug, delta_aug


def _augment_presence(E: np.ndarray, k: int) -> np.ndarray:
    n = E.shape[0]
    E_aug = np.zeros((n + k, n + k))
    E_aug[:n, :n] = E
    return E_aug


def modified_stress(
    X_aug: np.ndarray,
    delta: np.ndarray,
    V: np.ndarray,
    C: np.ndarray,
    alpha: float,
    beta: float,
    E: np.ndarray,
    X_prev_aug: np.ndarray,
) -> float:
    """Stress plus the grouping and temporal penalties, evaluated on the
    stacked node+representative coordinates."""
    V_aug, delta_aug = augment_mds(V, delta, C, alpha)
    system = _Majorization(V_aug, delta_aug, beta, np.diagonal(E),
                           np.asarray(X_prev_aug, dtype=float))
    return system.at(X_aug).stress()


def _relative_decrease(prev: float, cur: float) -> float:
    if prev <= 0.0:
        return 0.0
    return (prev - cur) / prev


def dmds_layout(
    delta: np.ndarray,
    V: np.ndarray,
    C: np.ndarray,
    alpha: float,
    beta: float,
    E: np.ndarray,
    X_prev_aug: np.ndarray,
    eps: float = DEFAULT_EPSILON,
    max_iter: int = DEFAULT_MAX_ITER,
    X0: np.ndarray | None = None,
) -> tuple[Layout, SmacofReport]:
    """Regularized stress majorization for one time step.

    Iterates (R_aug + beta E_aug) x_a = S_aug(X_prev_iter) x_a + beta E_aug
    x_a[t-1] per dimension, starting from X_prev_aug (or X0 when given,
    e.g. for the random initialization of the first step), until the
    relative modified-stress decrease drops below eps.

    When beta is zero or no node persists, the system is rank-deficient
    (translation invariance) and the solve falls back to anchoring the
    first node at the origin.
    """
    delta = np.asarray(delta, dtype=float)
    V = np.asarray(V, dtype=float)
    C = np.asarray(C, dtype=float)
    n, k = C.shape
    X_prev_aug = np.asarray(X_prev_aug, dtype=float)
    X = np.array(X_prev_aug if X0 is None else X0, dtype=float)
    if X.shape[0] != n + k:
        raise DataError(f"initial layout has {X.shape[0]} rows, expected {n + k}")

    V_aug, delta_aug = augment_mds(V, delta, C, alpha)
    E_aug = _augment_presence(np.asarray(E, dtype=float), k)
    A = build_R(V_aug) + beta * E_aug

    anchored = beta == 0 or not np.any(np.diagonal(E_aug) > 0)
    try:
        if anchored:
            factor = spd_factor(A[1:, 1:])
        else:
            factor = spd_factor(A)
    except NotPositiveDefiniteError as exc:
        raise NotPositiveDefiniteError(
            "singular layout system (disconnected weight graph with no "
            f"anchored component): {exc}"
        ) from None

    system = _Majorization(V_aug, delta_aug, beta, np.diagonal(E_aug)[:n], X_prev_aug)
    anchor = beta * (E_aug @ X_prev_aug)
    trace = [system.at(X).stress()]
    hit_cap = False
    iterations = 0
    while True:
        iterations += 1
        rhs = system.S() @ X + anchor
        if anchored:
            X_new = np.zeros_like(X)
            X_new[1:] = spd_solve(factor, rhs[1:])
        else:
            X_new = spd_solve(factor, rhs)
        X = X_new
        trace.append(system.at(X).stress())
        if _relative_decrease(trace[-2], trace[-1]) < eps:
            break
        if iterations >= max_iter:
            hit_cap = True
            logger.warning("majorization hit the %d-iteration cap", max_iter)
            break

    layout = Layout(X=X[:n], Y=X[n:])
    return layout, SmacofReport(iterations=iterations, stress_trace=tuple(trace),
                                hit_iteration_cap=hit_cap)


def smacof_static(
    delta: np.ndarray,
    V: np.ndarray,
    X0: np.ndarray,
    eps: float = DEFAULT_EPSILON,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[Layout, SmacofReport]:
    """Plain stress majorization with the first node anchored at the
    origin; the special case of the regularized solve with no groups and
    no temporal term."""
    X0 = np.atleast_2d(np.asarray(X0, dtype=float))
    n = X0.shape[0]
    empty_C = np.zeros((n, 0))
    zero_E = np.zeros((n, n))
    return dmds_layout(delta, V, empty_C, 0.0, 0.0, zero_E, np.zeros_like(X0),
                       eps=eps, max_iter=max_iter, X0=X0)


def stabilized_mds_online(
    delta: np.ndarray,
    V: np.ndarray,
    beta: float,
    E: np.ndarray,
    X_prev: np.ndarray,
    eps: float = DEFAULT_EPSILON,
    max_iter: int = DEFAULT_MAX_ITER,
    X0: np.ndarray | None = None,
) -> tuple[Layout, SmacofReport]:
    """On-line stabilized MDS baseline: localized per-node updates anchored
    to the previous layout.

    Each sweep recomputes every coordinate from the previous iterate:

        x_ia <- [sum_j v_ij (x_ja + delta_ij (x_ia - x_ja)/|x_i - x_j|)
                 + beta e_ii x_ia[t-1]] / [sum_j v_ij + beta e_ii].

    This optimizes the same single-step objective as the regularized solve
    without groups, so both share its convergence criterion.
    """
    delta = np.asarray(delta, dtype=float)
    V = np.asarray(V, dtype=float)
    X_prev = np.atleast_2d(np.asarray(X_prev, dtype=float))
    X = np.array(X_prev if X0 is None else X0, dtype=float)
    e = np.diagonal(np.asarray(E, dtype=float))
    denom = V.sum(axis=1) + beta * e
    movable = denom > 0
    system = _Majorization(V, delta, beta, e, X_prev)
    anchor = beta * e[:, None] * X_prev
    trace = [system.at(X).stress()]
    hit_cap = False
    iterations = 0
    while True:
        iterations += 1
        numer = V @ X + system.S() @ X + anchor
        X_new = X.copy()
        X_new[movable] = numer[movable] / denom[movable, None]
        X = X_new
        trace.append(system.at(X).stress())
        if _relative_decrease(trace[-2], trace[-1]) < eps:
            break
        if iterations >= max_iter:
            hit_cap = True
            logger.warning("stabilized MDS hit the %d-iteration cap", max_iter)
            break

    return Layout(X=X, Y=np.zeros((0, X.shape[1]))), SmacofReport(
        iterations=iterations, stress_trace=tuple(trace), hit_iteration_cap=hit_cap)
