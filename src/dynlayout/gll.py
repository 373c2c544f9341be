"""Laplacian-based layouts.

Static spectral layout (plain and degree-normalized), the grouping-
regularized eigen layout, the blended-Laplacian baseline, and the
dynamic variant that adds a temporal penalty and therefore needs an
equality-constrained solve instead of an eigendecomposition. Its temporal
penalty takes the 0/1 presence vector e, the diagonal of the paper's E.
The eigen layouts are per-snapshot, defined up to the axes' order and
signs; ``pipeline.run_sequence`` aligns each one to the step before.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DisconnectedGraphError, NumericalError
from .graph import augment, has_temporal_anchor, laplacian, require_connected
from .layout import Layout
from .numerics import (gen_eig_smallest, kkt_residuals, minimize_eq_constrained,
                       sym_eig_smallest)


def energy(X: np.ndarray, L: np.ndarray) -> float:
    """Quadratic layout energy tr(X^T L X); equal to half the weighted sum
    of squared edge lengths."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return float(np.trace(X.T @ L @ X))


def _scaled_eig_layout(L: np.ndarray, s: int, normalized: bool, what: str) -> np.ndarray:
    """Scaled eigen layout of a connected graph given by its Laplacian;
    ``what`` names the layout in the error for a disconnected graph."""
    require_connected(L, what)  # L's off-diagonal is -W
    n = L.shape[0]
    if s + 1 > n:
        raise DataError(f"need at least {s + 1} nodes for a {s}-D spectral layout, got {n}")
    if normalized:
        _, vectors = gen_eig_smallest(L, np.diagonal(L), s + 1)
        scale = np.sqrt(np.trace(L))
    else:
        _, vectors = sym_eig_smallest(L, s + 1)
        scale = np.sqrt(n)
    return scale * vectors[:, 1:s + 1]


def spectral_layout(L: np.ndarray, s: int, normalized: bool = True) -> Layout:
    """Static layout of the graph with Laplacian ``L`` (see ``laplacian``)
    from the s smallest nontrivial (generalized) Laplacian eigenvectors,
    scaled so the layout has unit (degree-) weighted variance per
    dimension."""
    X = _scaled_eig_layout(L, s, normalized, "spectral layout")
    return Layout(X=X, Y=np.zeros((0, s)))


def centering_matrix(d: np.ndarray) -> np.ndarray:
    """M = diag(d) - d d^T / sum(d) for node weights d (the degrees); the
    quadratic form x^T M x / sum(d) is the d-weighted variance of x."""
    d = np.asarray(d, dtype=float)
    total = d.sum()
    if total <= 0:
        raise DataError("centering needs positive total degree")
    return np.diag(d) - np.outer(d, d) / total


def ccdr_layout(W: np.ndarray, C: np.ndarray, alpha: float, s: int,
                normalized: bool = True) -> Layout:
    """Grouping-regularized eigen layout: spectral layout of the augmented
    graph, split back into node and representative coordinates."""
    n = np.shape(C)[0]
    X_aug = _scaled_eig_layout(laplacian(augment(W, C, alpha)), s, normalized,
                               "grouping-regularized spectral layout")
    return Layout(X=X_aug[:n], Y=X_aug[n:])


def bfp_layout(L_prev: np.ndarray, L_curr: np.ndarray, lam: float, s: int,
               normalized: bool = True) -> Layout:
    """Spectral layout of the blended Laplacian lam*L[t-1] + (1-lam)*L[t]."""
    if not 0.0 <= lam <= 1.0:
        raise DataError(f"blend weight must be in [0, 1], got {lam}")
    L = lam * L_prev + (1.0 - lam) * L_curr
    X = _scaled_eig_layout(L, s, normalized, "blended-Laplacian layout")
    return Layout(X=X, Y=np.zeros((0, s)))


def bfp_lambda_select(candidates, score) -> float:
    """Pick the blend weight minimizing the supplied composite cost;
    ties go to the smaller value. A weight whose blended graph is
    disconnected (``score`` raises DisconnectedGraphError) is skipped; when
    no weight is left, a DisconnectedGraphError says so."""
    lams = sorted(candidates)
    if not lams:
        raise DataError("empty blend-weight grid")
    best_lam, best_score = None, np.inf
    disconnected = None
    for lam in lams:
        try:
            value = float(score(lam))
        except DisconnectedGraphError as exc:
            disconnected = exc
            continue
        if value < best_score:
            best_lam, best_score = lam, value
    if best_lam is None and disconnected is not None:
        raise DisconnectedGraphError(
            f"no blend weight in the grid gives a connected graph ({disconnected})")
    return best_lam


def dgll_objective(X_aug: np.ndarray, L_aug: np.ndarray, e_aug: np.ndarray,
                   beta: float, X_prev_aug: np.ndarray) -> float:
    """tr(X^T L X) + beta [tr(X^T E X) - 2 tr(X^T E X[t-1])] with E =
    diag(e_aug); the constant temporal term in X[t-1] alone is dropped."""
    X = np.atleast_2d(np.asarray(X_aug, dtype=float))
    Xp = np.atleast_2d(np.asarray(X_prev_aug, dtype=float))
    value = float(np.trace(X.T @ L_aug @ X))
    if beta != 0:
        XtE = (np.asarray(e_aug, dtype=float)[:, None] * X).T  # X^T diag(e_aug)
        value += beta * float(np.trace(XtE @ X) - 2.0 * np.trace(XtE @ Xp))
    return value


# the (a, b) entries of X^T M X - target*I that DGLL constrains, per dimension
_CONSTRAINED_ENTRIES = {1: ((0, 0),), 2: ((0, 0), (1, 1), (1, 0))}


class _DgllProblem:
    """Precomputed pieces of one constrained solve; all derivative formulas
    live here so the public derivative op and the solver share one source."""

    def __init__(self, L_aug, e_aug, beta, X_prev_aug, M, target, s):
        if s not in _CONSTRAINED_ENTRIES:
            raise DataError(
                f"constrained dynamic layout supports 1-D and 2-D only, got s={s}")
        self.m = L_aug.shape[0]
        self.s = s
        self.L = L_aug
        self.M = M
        self.entries = _CONSTRAINED_ENTRIES[s]
        self.offsets = np.array([target if a == b else 0.0 for a, b in self.entries])
        e_aug = np.asarray(e_aug, dtype=float)
        self.A = 2.0 * L_aug
        self.A[np.diag_indices(self.m)] += 2.0 * beta * e_aug
        self.beta_e = (beta * e_aug)[:, None]
        Xp = np.atleast_2d(np.asarray(X_prev_aug, dtype=float))
        self.anchor = 2.0 * (self.beta_e * Xp)

    def unflatten(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(self.s, self.m).T

    def f(self, x: np.ndarray) -> float:
        X = self.unflatten(x)
        return float(np.sum(X * (self.L @ X)) + np.sum(X * (self.beta_e * X))
                     - np.sum(X * self.anchor))

    def derivatives(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(gradient, constraint values, constraint Jacobian) at x."""
        X = self.unflatten(x)
        MX = [self.M @ X[:, a] for a in range(self.s)]
        g = np.array([X[:, a] @ MX[b] for a, b in self.entries]) - self.offsets
        J = np.zeros((len(self.entries), self.s, self.m))
        for r, (a, b) in enumerate(self.entries):
            if a == b:
                J[r, a] = 2.0 * MX[a]
            else:
                J[r, a], J[r, b] = MX[b], MX[a]
        return (self.A @ X - self.anchor).T.reshape(-1), g, J.reshape(len(self.entries), -1)

    def hess(self, mu: np.ndarray) -> np.ndarray:
        """Hessian of the Lagrangian f + mu^T g, the same at every x."""
        s, m = self.s, self.m
        H = np.zeros((s, m, s, m))
        for r, (a, b) in enumerate(self.entries):
            if a == b:
                H[a, :, a] = self.A + 2.0 * mu[r] * self.M
            else:
                H[a, :, b] = H[b, :, a] = mu[r] * self.M
        return H.reshape(s * m, s * m)


def dgll_derivatives(X_aug, L_aug, e_aug, beta, X_prev_aug, M, mu, target):
    """Closed-form gradient, constraints, constraint Jacobian, and
    Lagrangian Hessian of the dynamic layout problem in 1-D or 2-D.

    ``target`` is the required (degree-weighted) scatter per dimension:
    tr(D_aug) for the normalized problem, n+k for the plain one. In 2-D the
    constraint vector has three rows (two variance rows minus ``target``,
    one covariance row); in 1-D just the variance row.
    """
    X = np.atleast_2d(np.asarray(X_aug, dtype=float))
    problem = _DgllProblem(L_aug, e_aug, beta, X_prev_aug, M, target, X.shape[1])
    x = X.T.reshape(-1)
    return *problem.derivatives(x), problem.hess(np.asarray(mu, dtype=float))


@dataclass(frozen=True)
class DgllSolution:
    """Feasible solution of the dynamic Laplacian layout problem."""

    X_aug: np.ndarray
    n_nodes: int
    objective: float
    kkt_residual: float
    constraint_residual: float

    @property
    def layout(self) -> Layout:
        return Layout(X=self.X_aug[:self.n_nodes], Y=self.X_aug[self.n_nodes:])


def _feasible_random_start(rng, m: int, s: int, M: np.ndarray, target: float) -> np.ndarray:
    # Whiten a gaussian draw so X^T M X = target * I exactly.
    for _ in range(20):
        X = rng.standard_normal((m, s))
        G = X.T @ M @ X
        vals, vecs = np.linalg.eigh(G)
        if np.min(vals) > 1e-10 * np.max(vals):
            B = vecs @ np.diag(vals**-0.5) @ vecs.T * np.sqrt(target)
            return X @ B
    raise NumericalError("could not draw a feasible random start")


def dgll_layout(W, C, alpha, beta, e, X_prev_aug, s, normalized: bool = True,
                rng=None) -> DgllSolution:
    """Dynamic Laplacian layout for one time step (node presence vector e).

    Minimizes the blended quadratic objective subject to the centered
    scatter constraints with ``numerics.minimize_eq_constrained``, started
    once from the previous augmented layout; a start with no scatter
    along some axis is replaced by a feasible random one drawn from
    ``rng``. When there is no temporal anchor (beta = 0 or nothing
    persisted, e.g. the first step) the objective has no linear term and
    the scaled eigenvector solution is taken directly. Either way the
    residuals are reported at the returned point. Raises NumericalError,
    carrying the last iterate, when the solve does not converge.
    """
    C = np.asarray(C, dtype=float)
    n, k = C.shape
    L = laplacian(augment(W, C, alpha))
    d = np.diagonal(L) if normalized else np.ones(n + k)
    if np.count_nonzero(d) <= s:
        # the scatter constraint needs s independent directions
        raise DataError(f"need more than {s} points with positive weight for a {s}-D "
                        "constrained layout")
    M = centering_matrix(d)
    target = float(d.sum())
    e_aug = np.pad(np.asarray(e, dtype=float), (0, k))
    X_prev_aug = np.atleast_2d(np.asarray(X_prev_aug, dtype=float))
    problem = _DgllProblem(L, e_aug, beta, X_prev_aug, M, target, s)

    if not has_temporal_anchor(beta, e_aug):
        X = _scaled_eig_layout(L, s, normalized, "eigen solve of the dynamic layout problem")
        x = X.T.reshape(-1)
        feasibility, kkt = kkt_residuals(x, problem.derivatives)
    else:
        start = X_prev_aug
        if np.linalg.eigvalsh(start.T @ M @ start)[0] <= 1e-10 * target:
            # no scatter along some axis (e.g. a new node placed on its only
            # neighbor): the constraint Jacobian is rank-deficient there, so
            # the solve could not reach the constraint from this start
            start = _feasible_random_start(np.random.default_rng(rng), n + k, s, M, target)
        result = minimize_eq_constrained(problem.f, problem.derivatives, problem.hess,
                                         start.T.reshape(-1))
        if not result.converged:
            raise NumericalError(
                "constrained layout solver did not converge "
                f"(feasibility residual {result.feasibility_residual:.3e}, "
                f"KKT residual {result.kkt_residual:.3e})",
                best_iterate=problem.unflatten(result.x),
            )
        x, feasibility, kkt = result.x, result.feasibility_residual, result.kkt_residual
    return DgllSolution(X_aug=problem.unflatten(x), n_nodes=n, objective=problem.f(x),
                        kkt_residual=kkt, constraint_residual=feasibility)
