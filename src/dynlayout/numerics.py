"""Shared dense numerical kernels.

Everything here is dense: target problems are a few hundred unknowns at
most, where Cholesky factorization and a symmetric eigensolve that
computes only the few smallest eigenpairs a layout uses are the right
tools. The one iterative kernel, ``minimize_eq_constrained``, solves
DGLL's constrained step by quadratic-penalty continuation with exact
trust-region steps and a Newton-KKT polish.

At these sizes a multi-threaded BLAS costs time rather than saving it,
and its thread count can change the last bits of a result, so a layout
run holds every loaded OpenBLAS at one thread (``single_threaded_blas``).
"""

from __future__ import annotations

import ctypes
import functools
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.optimize

from .errors import DataError, NotPositiveDefiniteError

# (getter, setter) of the thread count, one pair per OpenBLAS build: numpy's
# 64-bit-integer build, SciPy's build, and a plain OpenBLAS
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _openblas_thread_controls() -> tuple[tuple[Callable[[], int], Callable[[int], None]], ...]:
    """Thread-count (getter, setter) of every OpenBLAS library loaded in the
    process, found in /proc/self/maps; empty where there is none or no such
    file. numpy and scipy.linalg, which load their libraries, are imported
    by this module, so the result does not change once it is computed."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({fields[5] for fields in map(str.split, fh)
                            if len(fields) == 6 and "openblas" in fields[5].lower()})
    except OSError:
        return ()
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                getter, setter = getattr(lib, get_name), getattr(lib, set_name)
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                controls.append((getter, setter))
                break
    return tuple(controls)


# the thread count is process-wide, so the scope is too: the outermost
# entry saves and sets it, the last exit restores it
_blas_scope_lock = threading.Lock()
_blas_scope = {"depth": 0, "saved": ()}


@contextmanager
def single_threaded_blas():
    """Hold every loaded OpenBLAS at one thread inside the block and restore
    the previous thread counts when the last active block exits, normally
    or by an exception. Nested and concurrent blocks share one scope. Does
    nothing where no OpenBLAS thread control is found."""
    with _blas_scope_lock:
        if _blas_scope["depth"] == 0:
            saved = tuple((setter, getter()) for getter, setter in _openblas_thread_controls())
            for setter, _ in saved:
                setter(1)
            _blas_scope["saved"] = saved
        _blas_scope["depth"] += 1
    try:
        yield
    finally:
        with _blas_scope_lock:
            _blas_scope["depth"] -= 1
            if _blas_scope["depth"] == 0:
                for setter, count in _blas_scope["saved"]:
                    setter(count)
                _blas_scope["saved"] = ()


@dataclass(frozen=True)
class SpdFactorization:
    """Opaque Cholesky factor of a symmetric positive-definite matrix,
    reusable across right-hand sides."""

    c_and_lower: tuple


def spd_factor(A: np.ndarray) -> SpdFactorization:
    """Cholesky-factor a symmetric positive-definite matrix.

    Raises NotPositiveDefiniteError otherwise, which upstream signals a
    disconnected or un-anchored system.
    """
    A = np.asarray(A, dtype=float)
    try:
        c, lower = scipy.linalg.cho_factor(A)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"matrix is not positive definite: {exc}") from None
    return SpdFactorization(c_and_lower=(c, lower))


_potrs = scipy.linalg.get_lapack_funcs("potrs", dtype=np.float64)


def spd_solve(factor: SpdFactorization, b: np.ndarray) -> np.ndarray:
    """Back-substitute a previously computed Cholesky factor.

    The factor was checked for non-finite entries when it was made, so
    only the right-hand side is checked here (ValueError).
    """
    c, lower = factor.c_and_lower
    x, info = _potrs(c, np.asarray_chkfinite(b, dtype=float), lower=lower)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK potrs")
    return x


def _canonical_signs(vectors: np.ndarray) -> np.ndarray:
    # Flip each eigenvector so its largest-magnitude entry is positive (the
    # first one on ties); keeps eigen-based layouts reproducible across runs.
    peak = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    return vectors * np.where(peak < 0, -1.0, 1.0)


@dataclass(frozen=True)
class EigenResult:
    """Ascending eigenvalues with matching (D-)orthonormal eigenvectors."""

    values: np.ndarray
    vectors: np.ndarray


def sym_eig_smallest(A: np.ndarray, m: int) -> EigenResult:
    """The m smallest eigenpairs of a symmetric matrix, ascending. Only
    those m pairs are computed, not the full spectrum."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if not 1 <= m <= n:
        raise DataError(f"requested {m} eigenpairs from a {n}x{n} matrix")
    values, vectors = scipy.linalg.eigh(A, subset_by_index=[0, m - 1])
    return EigenResult(values=values, vectors=_canonical_signs(vectors))


def gen_eig_smallest(L: np.ndarray, D: np.ndarray, m: int) -> EigenResult:
    """The m smallest generalized eigenpairs of (L, D) for diagonal positive
    D, via the symmetric transform D^{-1/2} L D^{-1/2}. Only those m pairs
    are computed, not the full spectrum.

    Returned vectors are D-orthonormal: U^T D U = I.
    """
    L = np.asarray(L, dtype=float)
    D = np.asarray(D, dtype=float)
    n = L.shape[0]
    if not 1 <= m <= n:
        raise DataError(f"requested {m} eigenpairs from a {n}x{n} matrix")
    d = np.diagonal(D)
    if np.any(d <= 0):
        raise DataError("generalized eigenproblem needs strictly positive degrees")
    d_isqrt = 1.0 / np.sqrt(d)
    B = (L * d_isqrt[:, None]) * d_isqrt[None, :]
    B = (B + B.T) / 2.0
    values, vectors = scipy.linalg.eigh(B, subset_by_index=[0, m - 1])
    return EigenResult(values=values, vectors=_canonical_signs(vectors * d_isqrt[:, None]))


@dataclass(frozen=True)
class EqConstrainedResult:
    """Outcome of an equality-constrained minimization.

    ``iterations`` counts trust-region and polish steps together.
    ``converged`` is False when no penalty weight gave a point that meets
    the tolerance; ``x`` then carries the last penalty minimizer (never
    silently labeled converged).
    """

    x: np.ndarray
    kkt_residual: float
    feasibility_residual: float
    converged: bool
    iterations: int


# penalty weights of the continuation, each solve warm-started from the last
_PENALTY_WEIGHTS = tuple(10.0 ** e for e in range(9))
_TOL = 1e-8  # bound on max(|g|) and on the stationarity residual at convergence
_POLISH_ROUNDS = 8  # Newton steps of the KKT polish, at most


def minimize_eq_constrained(
    f: Callable[[np.ndarray], float],
    grad: Callable[[np.ndarray], np.ndarray],
    g: Callable[[np.ndarray], np.ndarray],
    jac: Callable[[np.ndarray], np.ndarray],
    hess: Callable[[np.ndarray, np.ndarray], np.ndarray],
    x0: np.ndarray,
) -> EqConstrainedResult:
    """Minimize f(x) subject to g(x) = 0 by quadratic-penalty continuation
    with a Newton-KKT polish.

    For rho = 1, 10, ..., 1e8 an exact trust-region solve minimizes
    f + rho/2 |g|^2 from the previous minimizer, and a Newton polish on
    the KKT system starts from it with multipliers rho*g. ``hess(x, mu)``
    must return the Hessian of the Lagrangian f + mu^T g at (x, mu).
    Returns at the first polished point with max(|g|) <= _TOL and
    stationarity residual <= _TOL; when no weight gives one, the result is
    non-converged, never an exception.
    """
    x = np.asarray(x0, dtype=float).copy()
    iterations = 0
    for rho in _PENALTY_WEIGHTS:
        def penalized(z, rho=rho):
            gz = np.atleast_1d(g(z))
            value = f(z) + 0.5 * rho * float(gz @ gz)
            return value, np.asarray(grad(z)) + rho * (np.atleast_2d(jac(z)).T @ gz)

        def penalized_hess(z, rho=rho):
            J = np.atleast_2d(jac(z))
            return hess(z, rho * np.atleast_1d(g(z))) + rho * (J.T @ J)

        solve = scipy.optimize.minimize(penalized, x, jac=True, hess=penalized_hess,
                                        method="trust-exact")
        x = solve.x
        x_pol, polish_steps = _kkt_polish(x, rho * np.atleast_1d(g(x)), grad, g, jac, hess)
        iterations += solve.nit + polish_steps
        feas, kkt = kkt_residuals(x_pol, grad, g, jac)
        if feas <= _TOL and kkt <= _TOL:
            return EqConstrainedResult(x=x_pol, kkt_residual=kkt, feasibility_residual=feas,
                                       converged=True, iterations=iterations)
    feas, kkt = kkt_residuals(x, grad, g, jac)
    return EqConstrainedResult(x=x, kkt_residual=kkt, feasibility_residual=feas,
                               converged=False, iterations=iterations)


def kkt_residuals(x, grad, g, jac) -> tuple[float, float]:
    """Feasibility max|g(x)| and stationarity max|grad f + J^T mu| at x,
    with the multipliers mu that least squares gives for grad f + J^T mu = 0."""
    gv = np.atleast_1d(g(x))
    gr = np.asarray(grad(x))
    J = np.atleast_2d(jac(x))
    mu, *_ = np.linalg.lstsq(J.T, -gr, rcond=None)
    kkt = float(np.max(np.abs(gr + J.T @ mu))) if gr.size else 0.0
    return (float(np.max(np.abs(gv))) if gv.size else 0.0), kkt


def _kkt_polish(x, mu, grad, g, jac, hess):
    # Newton on the KKT system [grad f + J^T mu; g] = 0; quadratic local
    # convergence squeezes residuals well below the tolerance.
    # Least squares takes the step, so a singular KKT matrix (a continuum
    # of minimizers) still converges. Returns the point and the steps taken.
    def residual(x, mu):
        J = np.atleast_2d(jac(x))
        r = np.concatenate([np.asarray(grad(x)) + J.T @ mu, np.atleast_1d(g(x))])
        return J, r, float(np.max(np.abs(r)))

    n, m = x.shape[0], mu.shape[0]
    J, r, res = residual(x, mu)
    for taken in range(_POLISH_ROUNDS):
        if res <= 1e-3 * _TOL:
            return x, taken
        K = np.block([[hess(x, mu), J.T], [J, np.zeros((m, m))]])
        step = np.linalg.lstsq(K, -r, rcond=None)[0]
        x_new, mu_new = x + step[:n], mu + step[n:]
        J_new, r_new, res_new = residual(x_new, mu_new)
        if res_new >= res:
            return x, taken
        x, mu, J, r, res = x_new, mu_new, J_new, r_new, res_new
    return x, _POLISH_ROUNDS
