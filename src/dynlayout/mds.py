"""Stress-based layouts.

Covers the static SMACOF solve, the regularized on-line variant that adds
grouping and temporal penalties through an augmented weight system, and
the localized-update stabilized baseline. All three share one modified
stress function; the static solve is the special case with no groups and
no temporal anchor. The temporal penalty takes the 0/1 presence vector e,
the diagonal of the paper's E, zero-padded for the representatives.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import DataError, NotPositiveDefiniteError
from .graph import augment, has_temporal_anchor, laplacian, require_connected
from .layout import Layout
from .numerics import spd_factor, spd_solve

logger = logging.getLogger(__name__)

DEFAULT_EPSILON = 1e-4
DEFAULT_MAX_ITER = 1000
# over-relaxation factor of the regularized solve's update, in (0, 2), and
# the relative stress decrease below which the solve starts to apply it
RELAXATION = 1.9
_RELAX_BELOW = 1e-2
# share of (1/2) sum v delta^2 below which the stress identity cancels too
# far, so the stress is summed directly
_IDENTITY_FLOOR = 1e-3
# share of (1/2) sum v delta^2 below which the stress is rounding noise, so
# an exact embedding has been reached and a solve stops
_ZERO_STRESS = np.finfo(float).eps
# relative size below which a Cholesky pivot is taken for rounding noise
_ROUNDOFF = np.sqrt(np.finfo(float).eps)


@dataclass(frozen=True)
class SmacofReport:
    """Iteration count and the stress value before and after each solve."""

    iterations: int
    stress_trace: tuple[float, ...]
    hit_iteration_cap: bool = False


class _Majorization:
    """Modified stress and majorization matrix of one (V, delta) system.

    What a solve never changes is built once: the products -v_ij delta_ij,
    computed only where v_ij > 0 so that unreachable pairs (delta = inf)
    never produce NaNs, V and delta set to zero outside that mask, the row
    sums of V and (1/2) sum v delta^2. So are the n x n work buffers, which
    every iterate fills in place: ``at`` computes an iterate's pairwise
    distances once, and ``stress``, ``S`` and ``objective`` read them.
    """

    def __init__(self, V: np.ndarray, delta: np.ndarray, beta: float = 0.0,
                 e: np.ndarray | None = None, X_prev: np.ndarray | None = None):
        mask = V > 0
        self.V = np.where(mask, V, 0.0)
        self.delta = np.where(mask, delta, 0.0)
        # 0.0 - p rather than -p: a zero product stays +0.0, so S holds no -0.0
        self.neg_num = 0.0 - self.V * self.delta
        self.degree = self.V.sum(axis=1)
        self.half_vdd = -0.5 * float(np.sum(self.neg_num * self.delta))
        self.beta, self.e, self.X_prev = beta, e, X_prev
        self.dist = np.empty_like(self.V)
        self._scratch = np.empty_like(self.V)
        self._S = np.empty_like(self.V)

    def at(self, X: np.ndarray) -> "_Majorization":
        self.X = np.atleast_2d(np.asarray(X, dtype=float))
        # adds the squared coordinate differences in order from zero, giving the
        # same bits as a per-coordinate sum
        cdist(self.X, self.X, out=self.dist)
        return self

    def stress(self) -> float:
        """Modified stress at the current iterate, summed pair by pair."""
        resid = np.subtract(self.delta, self.dist, out=self._scratch)
        resid *= resid
        resid *= self.V
        return float(0.5 * np.sum(resid)) + self._temporal()

    def _temporal(self) -> float:
        if self.beta == 0:
            return 0.0
        n = self.e.shape[0]
        moved = self.X[:n] - self.X_prev[:n]
        return self.beta * float(np.sum(self.e * np.einsum("ij,ij->i", moved, moved)))

    def objective(self) -> float:
        """Modified stress at the current iterate, from one pass over the
        pairwise distances and the product V X, which it leaves in ``VX``.

        By the SMACOF decomposition the stress is (1/2) sum v delta^2 -
        sum v delta d + tr(X^T L_V X), with L_V X = rowsum(V) X - V X; the
        middle term is 2 tr(X^T S(X) X), summed here from the distances,
        because S(X) X cancels where two points nearly coincide. Where the
        value falls below _IDENTITY_FLOOR of its first term the terms
        cancel, and the stress is summed pair by pair instead."""
        X = self.X
        self.VX = self.V @ X
        value = (self.half_vdd + float(np.vdot(self.neg_num, self.dist))
                 + float(np.vdot(X, self.degree[:, None] * X - self.VX)))
        if value < _IDENTITY_FLOOR * self.half_vdd:
            return self.stress()
        return value + self._temporal()

    def S(self) -> np.ndarray:
        """Majorization matrix at the current iterate, in a buffer that the
        next call overwrites."""
        S = self._S
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(self.neg_num, self.dist, out=S)
        np.fill_diagonal(S, 0.0)
        rows = S.sum(axis=1)
        if not np.isfinite(rows).all():
            # two distinct points coincide (x/0 or 0/0); their term is 0
            S[self.dist == 0] = 0.0
            rows = S.sum(axis=1)
        np.fill_diagonal(S, -rows)
        return S


def stress(X: np.ndarray, delta: np.ndarray, V: np.ndarray) -> float:
    """Weighted squared mismatch between layout distances and desired
    distances: (1/2) sum_ij v_ij (delta_ij - |x_i - x_j|)^2."""
    system = _Majorization(np.asarray(V, dtype=float), np.asarray(delta, dtype=float))
    return system.at(X).stress()


def augment_mds(V: np.ndarray, delta: np.ndarray, C: np.ndarray, alpha: float):
    """Fold the grouping penalty into the MDS weight system.

    Returns (V_aug, delta_aug) of size (n+k) x (n+k): representatives are
    extra points tied to their members with weight alpha and desired
    distance zero.
    """
    return augment(V, C, alpha), augment(delta, C, 0.0)


def modified_stress(
    X_aug: np.ndarray,
    delta: np.ndarray,
    V: np.ndarray,
    C: np.ndarray,
    alpha: float,
    beta: float,
    e: np.ndarray,
    X_prev_aug: np.ndarray,
) -> float:
    """Stress plus the grouping and temporal penalties (node presence vector
    ``e``), evaluated on the stacked node+representative coordinates."""
    V_aug, delta_aug = augment_mds(V, delta, C, alpha)
    system = _Majorization(V_aug, delta_aug, beta, np.asarray(e, dtype=float),
                           np.asarray(X_prev_aug, dtype=float))
    return system.at(X_aug).stress()


def _factor_layout_system(A: np.ndarray, V_aug: np.ndarray, e_aug: np.ndarray,
                          temporal: bool):
    """Cholesky factor of A, whose first point is pinned when there is no
    temporal anchor. A is singular exactly when a component of the weight
    graph holds neither the pinned point nor a temporally anchored node,
    which raises DisconnectedGraphError with the count. The graph is checked
    only when the factorization fails or leaves a round-off pivot, as a
    singular system can."""
    A_free = A if temporal else A[1:, 1:]
    try:
        factor = spd_factor(A_free)
    except NotPositiveDefiniteError:
        factor = None
    if factor is None or np.any(np.diagonal(factor) ** 2
                                <= _ROUNDOFF * np.diagonal(A_free).max(initial=0.0)):
        # the anchored nodes join the weight graph through one extra point
        ties = e_aug[:, None] if temporal else np.zeros((A.shape[0], 0))
        require_connected(augment(V_aug, ties, 1.0),
                          "stress layout (weight graph joined at its anchored nodes)")
    if factor is None:
        raise NotPositiveDefiniteError("singular layout system")
    return factor


def _relative_decrease(prev: float, cur: float) -> float:
    if prev <= 0.0:
        return 0.0
    return (prev - cur) / prev


def _majorize(system: _Majorization, X: np.ndarray, update, eps: float, max_iter: int,
              what: str, relaxation: float = 1.0) -> tuple[np.ndarray, SmacofReport]:
    """Iterate X <- X + r (update(X) - X) until the relative decrease of the
    modified stress drops below eps or max_iter updates are made; hitting
    the cap is logged as a warning naming ``what``. Updates are taken whole
    (r = 1) until one decreases the stress by less than _RELAX_BELOW
    relative, the later ones with r = ``relaxation``. Once the stress falls
    below _ZERO_STRESS of (1/2) sum v delta^2, its relative decrease is
    rounding noise: the solve stops there and returns the lower of its last
    two iterates, whose stress then ends the trace.

    ``system`` is placed at each iterate and its ``objective`` evaluated
    before the update, which reads S and the product it leaves. Where that
    value's relative decrease falls below eps, both iterates' stress is
    summed again pair by pair, so the identity's rounding neither decides
    convergence nor makes the trace rise; the last entry is always such a
    direct sum. Iterates are kept in C order, so that the products over them
    do not depend on the order in which the solve returns them."""
    X = np.ascontiguousarray(X)
    trace = [system.at(X).objective()]
    zero = _ZERO_STRESS * system.half_vdd
    r = 1.0
    while True:
        G = update(X)
        X_last, X = X, np.ascontiguousarray(G if r == 1.0 else X + r * (G - X))
        trace.append(system.at(X).objective())
        if trace[-1] < zero:  # a direct sum, as is every value this low
            trace[-2] = system.at(X_last).stress()
            if trace[-2] < trace[-1]:  # the update is undone
                X, trace[-1] = X_last, trace[-2]
            converged = True
            break
        decrease = _relative_decrease(trace[-2], trace[-1])
        if decrease < _RELAX_BELOW:
            r = relaxation
        converged = decrease < eps
        if converged:
            trace[-2] = system.at(X_last).stress()
            trace[-1] = system.at(X).stress()
            converged = _relative_decrease(trace[-2], trace[-1]) < eps
        if converged or len(trace) > max_iter:
            break
    if not converged:
        trace[-1] = system.stress()
        logger.warning("%s hit the %d-iteration cap", what, max_iter)
    return X, SmacofReport(iterations=len(trace) - 1, stress_trace=tuple(trace),
                           hit_iteration_cap=not converged)


def dmds_layout(
    delta: np.ndarray,
    V: np.ndarray,
    C: np.ndarray,
    alpha: float,
    beta: float,
    e: np.ndarray,
    X_prev_aug: np.ndarray,
    eps: float = DEFAULT_EPSILON,
    max_iter: int = DEFAULT_MAX_ITER,
    X0: np.ndarray | None = None,
) -> tuple[Layout, SmacofReport]:
    """Regularized stress majorization for one time step.

    Solves (R_aug + beta E_aug) g_a = S_aug(X) x_a + beta E_aug x_a[t-1] per
    dimension, with E_aug = diag(e) zero-padded for the representatives,
    starting from X_prev_aug (or X0 when given, e.g. for the random
    initialization of the first step), until the relative modified-stress
    decrease drops below eps. The iterate moves to G until an update
    decreases the stress by less than 1%, then to X + RELAXATION (G - X):
    de Leeuw & Heiser's over-relaxed update, which keeps the stress from
    rising. The first update thus puts the pinned first node below on the
    origin, where relaxed updates keep it.

    When beta is zero or no node persists, the system is rank-deficient
    (translation invariance) and the solve falls back to anchoring the
    first node at the origin. A component of the weight graph that neither
    this nor the temporal anchor fixes raises DisconnectedGraphError with
    the component count.
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
    e_aug = np.pad(np.asarray(e, dtype=float), (0, k))
    # R_aug + beta diag(e): R_aug is the Laplacian of the augmented weights
    A = laplacian(V_aug)
    A[np.diag_indices_from(A)] += beta * e_aug

    temporal = has_temporal_anchor(beta, e_aug)
    factor = _factor_layout_system(A, V_aug, e_aug, temporal)

    system = _Majorization(V_aug, delta_aug, beta, e_aug[:n], X_prev_aug)
    anchor = beta * e_aug[:, None] * X_prev_aug

    def update(X):
        rhs = system.S() @ X + anchor
        if temporal:
            return spd_solve(factor, rhs)
        X = np.zeros_like(X)
        X[1:] = spd_solve(factor, rhs[1:])
        return X

    X, report = _majorize(system, X, update, eps, max_iter, "majorization", RELAXATION)
    return Layout(X=X[:n], Y=X[n:]), report


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
    return dmds_layout(delta, V, np.zeros((n, 0)), 0.0, 0.0, np.zeros(n), np.zeros_like(X0),
                       eps=eps, max_iter=max_iter, X0=X0)


def stabilized_mds_online(
    delta: np.ndarray,
    V: np.ndarray,
    beta: float,
    e: np.ndarray,
    X_prev: np.ndarray,
    eps: float = DEFAULT_EPSILON,
    max_iter: int = DEFAULT_MAX_ITER,
    X0: np.ndarray | None = None,
) -> tuple[Layout, SmacofReport]:
    """On-line stabilized MDS baseline: localized per-node updates anchored
    to the previous layout.

    Each sweep recomputes every coordinate from the previous iterate:

        x_ia <- [sum_j v_ij (x_ja + delta_ij (x_ia - x_ja)/|x_i - x_j|)
                 + beta e_i x_ia[t-1]] / [sum_j v_ij + beta e_i].

    This optimizes the same single-step objective as the regularized solve
    without groups, so both share its convergence criterion. The update is
    not relaxed: it does not minimize one quadratic majorizer, so a step
    past it can raise the stress.
    """
    delta = np.asarray(delta, dtype=float)
    V = np.asarray(V, dtype=float)
    X_prev = np.atleast_2d(np.asarray(X_prev, dtype=float))
    X = np.array(X_prev if X0 is None else X0, dtype=float)
    e = np.asarray(e, dtype=float)
    denom = V.sum(axis=1) + beta * e
    movable = denom > 0
    system = _Majorization(V, delta, beta, e, X_prev)
    anchor = beta * e[:, None] * X_prev

    def update(X):
        numer = system.VX + system.S() @ X + anchor
        X_new = X.copy()
        X_new[movable] = numer[movable] / denom[movable, None]
        return X_new

    X, report = _majorize(system, X, update, eps, max_iter, "stabilized MDS")
    return Layout(X=X, Y=np.zeros((0, X.shape[1]))), report
