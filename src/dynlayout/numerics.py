"""Shared dense numerical kernels.

Everything here is dense: target problems are a few hundred unknowns at
most, where Cholesky factorization and a symmetric eigensolve that
computes only the few smallest eigenpairs a layout uses are the right
tools. The one iterative kernel, ``minimize_eq_constrained``, solves
DGLL's constrained step by quadratic-penalty continuation with exact
trust-region steps and a Newton-KKT polish.

The trust-region steps are scipy 1.17.1's ``trust-exact`` (Moré &
Sorensen's subproblem solve, after Conn, Gould & Toint 2000) ported here
with its defaults, LAPACK/BLAS calls and checks, so they give scipy's bits
without its wrapper layers.

At these sizes a multi-threaded BLAS costs time rather than saving it,
and its thread count can change the last bits of a result, so a layout
run holds every loaded OpenBLAS at one thread (``single_threaded_blas``).
"""

from __future__ import annotations

import ctypes
import functools
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

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


def spd_factor(A: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor U (A = U^T U) of a symmetric positive-definite
    matrix, reusable across right-hand sides with ``spd_solve``. Only its
    upper triangle is meaningful.

    Raises NotPositiveDefiniteError otherwise, which upstream signals a
    disconnected or un-anchored system.
    """
    A = np.asarray(A, dtype=float)
    try:
        U, _ = scipy.linalg.cho_factor(A, lower=False)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"matrix is not positive definite: {exc}") from None
    return U


_potrf, _potrs, _trtrs = scipy.linalg.get_lapack_funcs(("potrf", "potrs", "trtrs"),
                                                       dtype=np.float64)


def spd_solve(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Back-substitute an upper Cholesky factor from ``spd_factor``.

    The factor was checked for non-finite entries when it was made, so
    only the right-hand side is checked here (ValueError).
    """
    x, info = _potrs(factor, np.asarray_chkfinite(b, dtype=float), lower=False)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK potrs")
    return x


def _canonical_signs(vectors: np.ndarray) -> np.ndarray:
    # Flip each eigenvector so its largest-magnitude entry is positive (the
    # first one on ties); keeps eigen-based layouts reproducible across runs.
    peak = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    return vectors * np.where(peak < 0, -1.0, 1.0)


def sym_eig_smallest(A: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m smallest eigenpairs of a symmetric matrix as (values,
    vectors), values ascending. Only those m pairs are computed, not the
    full spectrum."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if not 1 <= m <= n:
        raise DataError(f"requested {m} eigenpairs from a {n}x{n} matrix")
    values, vectors = scipy.linalg.eigh(A, subset_by_index=[0, m - 1])
    return values, _canonical_signs(vectors)


def gen_eig_smallest(L: np.ndarray, d: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m smallest generalized eigenpairs of (L, diag(d)) for positive
    weights d, as (values, vectors), via the symmetric transform
    D^{-1/2} L D^{-1/2}. Only those m pairs are computed, not the full
    spectrum.

    Returned vectors are D-orthonormal: U^T D U = I.
    """
    L = np.asarray(L, dtype=float)
    d = np.asarray(d, dtype=float)
    n = L.shape[0]
    if not 1 <= m <= n:
        raise DataError(f"requested {m} eigenpairs from a {n}x{n} matrix")
    if np.any(d <= 0):
        raise DataError("generalized eigenproblem needs strictly positive degrees")
    d_isqrt = 1.0 / np.sqrt(d)
    B = (L * d_isqrt[:, None]) * d_isqrt[None, :]
    B = (B + B.T) / 2.0
    values, vectors = scipy.linalg.eigh(B, subset_by_index=[0, m - 1])
    return values, _canonical_signs(vectors * d_isqrt[:, None])


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
    derivatives: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]],
    hess: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
) -> EqConstrainedResult:
    """Minimize f(x) subject to g(x) = 0 by quadratic-penalty continuation
    with a Newton-KKT polish.

    For rho = 1, 10, ..., 1e8 an exact trust-region solve minimizes
    f + rho/2 |g|^2 from the previous minimizer, and a Newton polish on
    the KKT system starts from it with multipliers rho*g. ``derivatives(x)``
    returns (grad f, g, dg/dx) at x; ``hess(mu)``, the Hessian of the
    Lagrangian f + mu^T g, which for quadratic f and g is the same at every x.
    Returns at the first polished point with max(|g|) <= _TOL and
    stationarity residual <= _TOL; when no weight gives one, the result is
    non-converged, never an exception.
    """
    x = np.asarray(x0, dtype=float).flatten()
    iterations = 0
    for rho in _PENALTY_WEIGHTS:
        model, steps = _trust_region_exact(
            functools.partial(_PenaltyModel, rho=rho, f=f, derivatives=derivatives, hess=hess), x)
        x = model.x
        x_pol, polish_steps = _kkt_polish(x, rho * model.gz, derivatives, hess)
        iterations += steps + polish_steps
        feas, kkt = kkt_residuals(x_pol, derivatives)
        if feas <= _TOL and kkt <= _TOL:
            return EqConstrainedResult(x=x_pol, kkt_residual=kkt, feasibility_residual=feas,
                                       converged=True, iterations=iterations)
    feas, kkt = kkt_residuals(x, derivatives)
    return EqConstrainedResult(x=x, kkt_residual=kkt, feasibility_residual=feas,
                               converged=False, iterations=iterations)


# The trust-region code below is ported from scipy 1.17.1 (optimize/
# _trustregion.py, _trustregion_exact.py; (c) 2001-2002 Enthought, Inc.,
# 2003- SciPy Developers; BSD-3-Clause), with scipy's LAPACK/BLAS calls in
# scipy's order and its finiteness checks (ValueError).
_lange = scipy.linalg.get_lapack_funcs("lange", dtype=np.float64, ilp64="preferred")
_nrm2 = scipy.linalg.get_blas_funcs("nrm2", dtype=np.float64, ilp64="preferred")
_chk = np.asarray_chkfinite
# a subproblem's damping update weight, stopping tolerances and round cap
_THETA, _K_EASY, _K_HARD, _SUBPROBLEM_MAXITER = 0.01, 0.1, 0.2, 25


def _solve_triangular(U: np.ndarray, b: np.ndarray, trans: int = 0) -> np.ndarray:
    # scipy.linalg.solve_triangular, U upper: U^T's system if U is C-ordered
    U, b = _chk(U), _chk(b)
    x, info = (_trtrs(U, b, lower=False, trans=trans) if U.flags.f_contiguous
               else _trtrs(U.T, b, lower=True, trans=not trans))
    if info:  # a zero on the diagonal (> 0) ends the trust-region solve
        raise (np.linalg.LinAlgError if info > 0 else ValueError)(f"LAPACK trtrs info {info}")
    return x


def _estimate_smallest_singular_value(U: np.ndarray) -> tuple[float, np.ndarray]:
    # Cline, Moler, Stewart & Wilkinson (1979): signs e making the solution w
    # of U^T w = e large, then U v = w; s_min ~ |w| / |v|, its vector v / |v|
    n = U.shape[0]
    p, w, UT = np.zeros(n), np.empty(n), U.T
    for k in range(n):
        wp, wm = (1-p[k]) / UT[k, k], (-1-p[k]) / UT[k, k]
        pp, pm = p[k+1:] + UT[k+1:, k]*wp, p[k+1:] + UT[k+1:, k]*wm
        # np.add.reduce(np.abs(.)) sums the 1-norm as scipy's norm(., 1) does
        if abs(wp) + np.add.reduce(np.abs(pp)) >= abs(wm) + np.add.reduce(np.abs(pm)):
            w[k], p[k+1:] = wp, pp
        else:
            w[k], p[k+1:] = wm, pm
    v = _solve_triangular(U, w)
    v_norm = _nrm2(_chk(v))
    return _nrm2(_chk(w)) / v_norm, v / v_norm


class _PenaltyModel:
    """f + rho/2 |g|^2 at x, its gradient and Hessian from one derivatives(x),
    and its trust-region subproblem solve (``IterativeSubproblem``)."""

    def __init__(self, x, rho, f, derivatives, hess):
        grad, self.gz, J = derivatives(x)
        self.x, self.jac = x, grad + rho * (J.T @ self.gz)
        self.hess = H = hess(rho * self.gz) + rho * (J.T @ J)
        self.fun = f(x) + 0.5 * rho * float(self.gz @ self.gz)
        self.previous_tr_radius, self.lambda_lb = -1, None
        hess_inf, hess_fro = _lange("1", _chk(H).T), np.linalg.norm(H, "fro")  # H is C-ordered
        H_diag, H_row_sums = np.diag(H), np.sum(np.abs(H), axis=1)
        # damping bound shifts from the Gershgorin bounds (Conn, Gould & Toint)
        self.ub_shift = min(-np.min(H_diag + np.abs(H_diag) - H_row_sums), hess_fro, hess_inf)
        self.lb_shift = min(np.max(H_diag - np.abs(H_diag) + H_row_sums), hess_fro, hess_inf)
        # a smaller gradient makes back substitution unreliable
        self.close_to_zero = len(H) * np.finfo(float).eps * hess_inf

    @functools.cached_property
    def jac_mag(self) -> float:  # checked only where scipy needed it
        return _nrm2(_chk(self.jac))

    def solve(self, tr_radius):
        """(step, whether it ends on the boundary) within radius tr_radius."""
        lambda_ub = max(0, self.jac_mag/tr_radius + self.ub_shift)
        lambda_lb = max(0, -min(self.hess.diagonal()), self.jac_mag/tr_radius - self.lb_shift)
        if tr_radius < self.previous_tr_radius:
            lambda_lb = max(self.lambda_lb, lambda_lb)
        lambda_current = 0 if lambda_lb == 0 else max(
            np.sqrt(lambda_lb * lambda_ub), lambda_lb + _THETA*(lambda_ub-lambda_lb))
        n = len(self.hess)
        hits_boundary, already_factorized = True, False
        for _ in range(_SUBPROBLEM_MAXITER):
            if already_factorized:
                already_factorized = False
            else:
                H = self.hess+lambda_current*np.eye(n)
                U, info = _potrf(H, lower=False, overwrite_a=False, clean=True)
            if info == 0 and self.jac_mag > self.close_to_zero:
                p, solve_info = _potrs(_chk(U), _chk(-self.jac), lower=False)
                if solve_info != 0:
                    raise ValueError(f"illegal value in argument {-solve_info} of LAPACK potrs")
                p_norm = _nrm2(_chk(p))
                if p_norm <= tr_radius and lambda_current == 0:
                    hits_boundary = False
                    break
                w_norm = _nrm2(_chk(_solve_triangular(U, p, trans=1)))
                delta_lambda = (p_norm/w_norm)**2 * (p_norm-tr_radius)/tr_radius
                lambda_new = lambda_current + delta_lambda
                if p_norm < tr_radius:  # inside the boundary
                    s_min, z_min = _estimate_smallest_singular_value(U)
                    # the shorter of the two steps along z_min to the boundary
                    a, b = np.dot(z_min, z_min), 2 * np.dot(p, z_min)
                    c = np.dot(p, p) - tr_radius**2
                    aux = b + math.copysign(math.sqrt(b*b - 4*a*c), b)
                    step_len = min(sorted([-aux / (2*a), -2*c / aux]), key=abs)
                    quadratic_term = np.dot(p, np.dot(H, p))
                    relative_error = ((step_len**2 * s_min**2)
                                      / (quadratic_term + lambda_current*tr_radius**2))
                    if relative_error <= _K_HARD:
                        p += step_len * z_min
                        break
                    lambda_ub = lambda_current
                    lambda_lb = max(lambda_lb, lambda_current - s_min**2)
                    H = self.hess + lambda_new*np.eye(n)
                    # scipy drops this factor and reuses the old U; the bits depend on it
                    _, info = _potrf(H, lower=False, overwrite_a=False, clean=True)
                    if info == 0:
                        lambda_current, already_factorized = lambda_new, True
                    else:
                        lambda_lb = max(lambda_lb, lambda_new)
                        lambda_current = max(np.sqrt(np.abs(lambda_lb * lambda_ub)),
                                             lambda_lb + _THETA*(lambda_ub-lambda_lb))
                elif abs(p_norm - tr_radius) / tr_radius <= _K_EASY:  # outside it
                    break
                else:
                    lambda_lb, lambda_current = lambda_current, lambda_new
            elif info == 0:  # a gradient below close_to_zero
                if lambda_current == 0:
                    p, hits_boundary = np.zeros(n), False
                    break
                s_min, z_min = _estimate_smallest_singular_value(U)
                p = tr_radius * z_min
                if tr_radius**2 * s_min**2 <= _K_HARD * lambda_current * tr_radius**2:
                    break
                lambda_ub = lambda_current
                lambda_lb = max(lambda_lb, lambda_current - s_min**2)
                lambda_current = max(np.sqrt(lambda_lb * lambda_ub),
                                     lambda_lb + _THETA*(lambda_ub-lambda_lb))
            else:  # leading minor k of H is not positive definite: delta added to
                k = info  # H[k-1, k-1] makes it singular, with v in its null space
                v = np.zeros(n)
                v[k-1] = 1
                if k != 1:
                    v[:k-1] = _solve_triangular(U[:k-1, :k-1], -U[:k-1, k-1])
                delta = np.sum(U[:k-1, k-1]**2) - H[k-1, k-1]
                lambda_lb = max(lambda_lb, lambda_current + delta/_nrm2(_chk(v))**2)
                lambda_current = max(np.sqrt(np.abs(lambda_lb * lambda_ub)),
                                     lambda_lb + _THETA*(lambda_ub-lambda_lb))
        self.lambda_lb, self.previous_tr_radius = lambda_lb, tr_radius
        return p, hits_boundary


def _trust_region_exact(model, x):
    """scipy's ``_minimize_trust_region`` with its defaults, from x, with
    ``model(point)`` the _PenaltyModel there: (last accepted model, steps)."""
    trust_radius, max_trust_radius, eta, gtol = 1.0, 1000.0, 0.15, 1e-4
    m, k = model(x), 0
    while m.jac_mag >= gtol:
        try:
            p, hits_boundary = m.solve(trust_radius)
        except np.linalg.LinAlgError:
            break
        predicted_value = m.fun + np.dot(m.jac, p) + 0.5 * np.dot(p, np.dot(m.hess, p))
        m_proposed = model(m.x + p)
        predicted_reduction = m.fun - predicted_value
        if predicted_reduction <= 0:
            break
        rho = (m.fun - m_proposed.fun) / predicted_reduction
        if rho < 0.25:
            trust_radius *= 0.25
        elif rho > 0.75 and hits_boundary:
            trust_radius = min(2*trust_radius, max_trust_radius)
        if rho > eta:
            m = m_proposed
        k += 1
        if m.jac_mag < gtol or k >= 200 * len(x):
            break
    return m, k


def kkt_residuals(x, derivatives) -> tuple[float, float]:
    """Feasibility max|g(x)| and stationarity max|grad f + J^T mu| at x,
    with the multipliers mu that least squares gives for grad f + J^T mu = 0."""
    gr, gv, J = derivatives(x)
    mu, *_ = np.linalg.lstsq(J.T, -gr, rcond=None)
    kkt = float(np.max(np.abs(gr + J.T @ mu))) if gr.size else 0.0
    return (float(np.max(np.abs(gv))) if gv.size else 0.0), kkt


def _kkt_polish(x, mu, derivatives, hess):
    # Newton on the KKT system [grad f + J^T mu; g] = 0; quadratic local
    # convergence squeezes residuals well below the tolerance.
    # Least squares takes the step, so a singular KKT matrix (a continuum
    # of minimizers) still converges. Returns the point and the steps taken.
    def residual(x, mu):
        grad, gv, J = derivatives(x)
        r = np.concatenate([grad + J.T @ mu, gv])
        return J, r, float(np.max(np.abs(r)))

    n, m = x.shape[0], mu.shape[0]
    J, r, res = residual(x, mu)
    for taken in range(_POLISH_ROUNDS):
        if res <= 1e-3 * _TOL:
            return x, taken
        K = np.block([[hess(mu), J.T], [J, np.zeros((m, m))]])
        step = np.linalg.lstsq(K, -r, rcond=None)[0]
        x_new, mu_new = x + step[:n], mu + step[n:]
        J_new, r_new, res_new = residual(x_new, mu_new)
        if res_new >= res:
            return x, taken
        x, mu, J, r, res = x_new, mu_new, J_new, r_new, res_new
    return x, _POLISH_ROUNDS
