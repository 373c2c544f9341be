import sys
import threading
import time

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import random_connected_adjacency
from test_gll import random_dgll_instance
from dynlayout.errors import DataError, NotPositiveDefiniteError
from dynlayout import gll, numerics
from dynlayout.numerics import (_canonical_signs, gen_eig_smallest, minimize_eq_constrained,
                                single_threaded_blas, spd_factor, spd_solve, sym_eig_smallest)


def random_spd(rng, n):
    A = rng.standard_normal((n, n))
    return A @ A.T + n * np.eye(n)


class TestSpdSolve:
    def test_identity(self):
        x = spd_solve(spd_factor(np.eye(3)), np.array([1.0, 2.0, 3.0]))
        assert np.allclose(x, [1.0, 2.0, 3.0])

    def test_diagonal(self):
        x = spd_solve(spd_factor(np.diag([2.0, 2.0])), np.array([2.0, 4.0]))
        assert np.allclose(x, [1.0, 2.0])

    def test_against_dense_inverse_oracle(self, rng):
        for _ in range(10):
            A = random_spd(rng, 6)
            b = rng.standard_normal(6)
            x = spd_solve(spd_factor(A), b)
            assert np.allclose(x, np.linalg.inv(A) @ b, atol=1e-10)
            assert np.linalg.norm(A @ x - b) <= 1e-8 * np.linalg.norm(b)

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            spd_factor(np.diag([1.0, -1.0]))

    def test_singular_rejected(self):
        # Laplacian of a connected graph: PSD with a zero eigenvalue
        L = np.array([[1.0, -1.0], [-1.0, 1.0]])
        with pytest.raises(NotPositiveDefiniteError):
            spd_factor(L)


@st.composite
def connected_laplacians(draw):
    """(L, D, m): the Laplacian and degree matrix of a random connected
    graph, weighted or not, or of a 4-block graph whose blocks hang together
    by weak edges, so its four smallest eigenvalues nearly coincide; m is
    often n."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weighted = draw(st.booleans())
    if draw(st.booleans()):
        size = draw(st.integers(2, 8))
        W = np.kron(np.eye(4), np.ones((size, size)) - np.eye(size))
        if weighted:
            W *= rng.uniform(0.5, 2.0, size=W.shape)
            W = (W + W.T) / 2
        for b in range(3):
            W[b * size, (b + 1) * size] = W[(b + 1) * size, b * size] = 1e-4
    else:
        W = random_connected_adjacency(rng, draw(st.integers(2, 30)), weighted)
    n = W.shape[0]
    m = n if draw(st.booleans()) else draw(st.integers(1, n))
    D = np.diag(W.sum(axis=1))
    return D - W, D, m


def loop_canonical_signs(vectors):
    # the per-column loop that the vectorized sign convention replaced
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        idx = int(np.argmax(np.abs(col)))
        if col[idx] < 0:
            out[:, j] = -col
    return out


class TestEigenSolvers:
    @given(arrays(float, st.tuples(st.integers(1, 6), st.integers(0, 4)),
                  elements=st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0])
                  | st.floats(-1e3, 1e3)))
    @settings(deadline=None, max_examples=300)
    def test_canonical_signs_match_loop_bit_for_bit(self, vectors):
        # small values make magnitude ties, which go to the first entry
        assert _canonical_signs(vectors).tobytes() == loop_canonical_signs(vectors).tobytes()

    @given(connected_laplacians(), st.booleans())
    @settings(deadline=None, max_examples=200)
    def test_partial_solve_matches_full_spectrum(self, problem, generalized):
        L, D, m = problem
        if generalized:
            values, U = gen_eig_smallest(L, np.diagonal(D), m)
            full = scipy.linalg.eigh(L, D, eigvals_only=True)
        else:
            D = np.eye(L.shape[0])
            values, U = sym_eig_smallest(L, m)
            full = scipy.linalg.eigh(L, eigvals_only=True)
        scale = np.max(np.abs(full))
        assert values.shape == (m,) and U.shape == (L.shape[0], m)
        assert np.all(np.abs(values - full[:m]) <= 1e-12 * scale)
        assert np.all(np.abs(U.T @ D @ U - np.eye(m)) <= 1e-12)
        assert np.all(np.abs(L @ U - D @ U * values) <= 1e-12 * scale)
        # canonical signs: the largest-magnitude entry of each vector, the
        # first one on ties, is positive
        assert np.all(U[np.argmax(np.abs(U), axis=0), np.arange(m)] > 0)

    def test_k2_laplacian_eigenvalues(self):
        L = np.array([[1.0, -1.0], [-1.0, 1.0]])
        values, _ = sym_eig_smallest(L, 2)
        assert np.allclose(values, [0.0, 2.0])

    def test_generalized_with_identity_matches_plain(self, rng):
        A = random_spd(rng, 5)
        plain_values, plain_vectors = sym_eig_smallest(A, 3)
        gen_values, gen_vectors = gen_eig_smallest(A, np.ones(5), 3)
        assert np.allclose(plain_values, gen_values)
        assert np.allclose(np.abs(plain_vectors), np.abs(gen_vectors))

    def test_against_dense_oracle(self, rng):
        A = random_spd(rng, 6)
        values, vectors = sym_eig_smallest(A, 6)
        oracle_vals = np.sort(np.linalg.eigvalsh(A))
        assert np.allclose(values, oracle_vals)
        for i in range(6):
            v = vectors[:, i]
            assert np.linalg.norm(A @ v - values[i] * v) <= 1e-8 * np.linalg.norm(A)

    def test_d_orthonormality(self, rng):
        W = rng.random((6, 6))
        W = (W + W.T) / 2
        np.fill_diagonal(W, 0)
        D = np.diag(W.sum(axis=1))
        L = D - W
        values, vectors = gen_eig_smallest(L, np.diagonal(D), 4)
        assert np.allclose(vectors.T @ D @ vectors, np.eye(4), atol=1e-8)
        for i in range(4):
            u = vectors[:, i]
            resid = np.linalg.norm(L @ u - values[i] * (D @ u))
            assert resid <= 1e-8 * np.linalg.norm(L)

    def test_too_many_pairs_rejected(self):
        with pytest.raises(DataError):
            sym_eig_smallest(np.eye(3), 4)

    def test_nonpositive_degree_rejected(self):
        with pytest.raises(DataError):
            gen_eig_smallest(np.eye(2), np.array([1.0, 0.0]), 1)


class TestConstrainedMinimizer:
    def test_affine_constraint(self):
        res = minimize_eq_constrained(
            f=lambda x: float(x @ x),
            derivatives=lambda x: (2 * x, np.array([x[0] - 1.0]), np.array([[1.0, 0.0, 0.0]])),
            hess=lambda mu: 2 * np.eye(3),
            x0=np.array([3.0, 2.0, -1.0]),
        )
        assert res.converged
        assert np.allclose(res.x, [1.0, 0.0, 0.0], atol=1e-7)

    def test_linear_objective_on_sphere(self):
        c = np.array([1.0, 2.0, 2.0])
        res = minimize_eq_constrained(
            f=lambda x: float(c @ x),
            derivatives=lambda x: (c, np.array([x @ x - 1.0]), 2 * x[None, :]),
            hess=lambda mu: 2 * mu[0] * np.eye(3),
            x0=np.array([0.5, -0.5, 0.5]),
        )
        assert res.converged
        assert np.allclose(res.x, -c / np.linalg.norm(c), atol=1e-6)

    @pytest.mark.parametrize("x0", [[0.6, 0.3, 0.5], [0.0, 0.0, 1.0]],
                             ids=["generic", "constrained-maximum"])
    def test_circle_of_minimizers(self, x0):
        # min x3^2 on the unit sphere: every point of the equator is a
        # minimizer, so the KKT matrix there is singular; the pole is a
        # KKT point too, but a maximum
        res = minimize_eq_constrained(
            f=lambda x: float(x[2] ** 2),
            derivatives=lambda x: (np.array([0.0, 0.0, 2 * x[2]]), np.array([x @ x - 1.0]),
                                   2 * x[None, :]),
            hess=lambda mu: np.diag([0.0, 0.0, 2.0]) + 2 * mu[0] * np.eye(3),
            x0=np.array(x0),
        )
        assert res.converged
        assert abs(res.x[2]) <= 1e-6
        assert res.x @ res.x == pytest.approx(1.0, abs=1e-8)

    def test_random_quadratic_with_quadratic_constraint_vs_oracle(self, rng):
        # oracle: scipy BFGS on a tightening quadratic penalty, best of a
        # coarse grid of starts
        for trial in range(5):
            Q = random_spd(rng, 3)
            c = rng.standard_normal(3)
            A = random_spd(rng, 3)

            def f(x):
                return float(0.5 * x @ Q @ x + c @ x)

            def grad(x):
                return Q @ x + c

            def g(x):
                return np.array([x @ A @ x - 1.0])

            def derivatives(x):
                return grad(x), g(x), 2 * (A @ x)[None, :]

            def hess(mu):
                return Q + 2 * mu[0] * A

            res = minimize_eq_constrained(f, derivatives, hess, x0=np.array([1.0, 0.0, 0.0]))
            assert res.converged
            assert res.feasibility_residual <= 1e-8
            assert res.kkt_residual <= 1e-8

            best_oracle = np.inf
            for start in [np.array([1.0, 0, 0]), np.array([0, 1.0, 0]),
                          np.array([0, 0, 1.0]), np.array([-1.0, 0, 0]),
                          np.array([0, -1.0, 0]), np.array([0, 0, -1.0])]:
                x = start.astype(float)
                for rho in [10.0, 1e2, 1e4, 1e6, 1e8, 1e10]:
                    out = scipy.optimize.minimize(
                        lambda z: f(z) + rho * g(z)[0] ** 2,
                        x, jac=lambda z: grad(z) + 4 * rho * g(z)[0] * (A @ z),
                        method="BFGS", options={"gtol": 1e-12, "maxiter": 2000})
                    x = out.x
                best_oracle = min(best_oracle, f(x))
            assert f(res.x) <= best_oracle + 1e-6

    def test_nonconvergence_is_reported_not_raised(self):
        # infeasible constraint set: |x|^2 = -1 can never hold
        res = minimize_eq_constrained(
            f=lambda x: float(x @ x),
            derivatives=lambda x: (2 * x, np.array([x @ x + 1.0]), 2 * x[None, :]),
            hess=lambda mu: 2 * (1 + mu[0]) * np.eye(2),
            x0=np.array([1.0, 1.0]),
        )
        assert not res.converged
        assert res.x.shape == (2,)


def scipy_minimize_eq_constrained(f, derivatives, hess, x0):
    """The penalty continuation on ``scipy.optimize.minimize(method=
    "trust-exact")``, as ``minimize_eq_constrained`` ran before its
    trust-region steps were ported into ``numerics``: the reference the
    port must match bit for bit."""
    x = np.asarray(x0, dtype=float).copy()
    iterations = 0
    for rho in numerics._PENALTY_WEIGHTS:
        def penalized(z, rho=rho):
            grad, gz, J = derivatives(z)
            return f(z) + 0.5 * rho * float(gz @ gz), grad + rho * (J.T @ gz)

        def penalized_hess(z, rho=rho):
            _, gz, J = derivatives(z)
            return hess(rho * gz) + rho * (J.T @ J)

        solve = scipy.optimize.minimize(penalized, x, jac=True, hess=penalized_hess,
                                        method="trust-exact")
        x = solve.x
        x_pol, polish_steps = numerics._kkt_polish(x, rho * derivatives(x)[1], derivatives,
                                                   hess)
        iterations += solve.nit + polish_steps
        feas, kkt = numerics.kkt_residuals(x_pol, derivatives)
        if feas <= numerics._TOL and kkt <= numerics._TOL:
            return numerics.EqConstrainedResult(x=x_pol, kkt_residual=kkt,
                                                feasibility_residual=feas, converged=True,
                                                iterations=iterations)
    feas, kkt = numerics.kkt_residuals(x, derivatives)
    return numerics.EqConstrainedResult(x=x, kkt_residual=kkt, feasibility_residual=feas,
                                        converged=False, iterations=iterations)


def on_sphere(grad):
    """derivatives(x) of an objective with gradient ``grad`` on the unit
    sphere |x|^2 = 1."""
    return lambda x: (grad(x), np.array([x @ x - 1.0]), 2 * x[None, :])


def assert_same_solve(args):
    """Both versions reach the same bits, step count and residuals."""
    ours, ref = minimize_eq_constrained(*args), scipy_minimize_eq_constrained(*args)
    assert ours.x.tobytes() == ref.x.tobytes()
    assert (ours.iterations, ours.converged) == (ref.iterations, ref.converged)
    assert (ours.kkt_residual, ours.feasibility_residual) == \
        (ref.kkt_residual, ref.feasibility_residual)


@pytest.fixture
def branch_counts(monkeypatch):
    """Count the subproblem branches the port takes: a factorization that
    stops at a leading minor (an indefinite shifted Hessian), and the
    singular-value estimate, in an interior step with a positive shift or
    for a gradient below ``close_to_zero``."""
    counts = {"indefinite": 0, "interior": 0, "small_gradient": 0}
    potrf, estimate = numerics._potrf, numerics._estimate_smallest_singular_value
    solve, solving = numerics._PenaltyModel.solve, []

    def counted_potrf(*args, **kwargs):
        U, info = potrf(*args, **kwargs)
        counts["indefinite"] += info > 0
        return U, info

    def counted_estimate(U):
        model = solving[-1]
        counts["small_gradient" if model.jac_mag <= model.close_to_zero else "interior"] += 1
        return estimate(U)

    def tracked_solve(self, tr_radius):
        solving.append(self)
        return solve(self, tr_radius)

    monkeypatch.setattr(numerics, "_potrf", counted_potrf)
    monkeypatch.setattr(numerics, "_estimate_smallest_singular_value", counted_estimate)
    monkeypatch.setattr(numerics._PenaltyModel, "solve", tracked_solve)
    return counts


class TestTrustRegionPort:
    """``minimize_eq_constrained`` against the same continuation on scipy's
    ``trust-exact``, which its trust-region steps are ported from."""

    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]), st.booleans())
    @settings(deadline=None, max_examples=100)
    def test_dgll_solves_match_scipy_bit_for_bit(self, seed, s, feasible_start):
        rng = np.random.default_rng(seed)
        n, k = int(rng.integers(3, 10)), int(rng.integers(0, 4))
        W, C, beta, e, X_prev, lap, M, target, e_aug = random_dgll_instance(rng, n, k, s)
        if feasible_start:
            X_prev = gll._feasible_random_start(rng, n + k, s, M, target)
        problem = gll._DgllProblem(lap, e_aug, beta, X_prev, M, target, s)
        assert_same_solve((problem.f, problem.derivatives, problem.hess, X_prev.T.reshape(-1)))

    def test_indefinite_hessian(self, branch_counts):
        # Q has a positive diagonal but a negative eigenvalue and the
        # gradient is small, so the first shift is 0 and potrf stops at the
        # second leading minor
        Q = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        c = np.array([1e-2, 0.0, 0.0])
        assert_same_solve((lambda x: float(0.5 * x @ Q @ x + c @ x),
                           on_sphere(lambda x: Q @ x + c),
                           lambda mu: Q + 2 * mu[0] * np.eye(3), np.array([0.0, 0.0, 1.0])))
        assert branch_counts["indefinite"] > 0

    def test_interior_step_with_positive_shift(self, branch_counts):
        # a saddle of the penalized function close to the start: the step
        # stays inside the region while the shift is positive
        Q = np.diag([1.0, -1.0, 0.0])
        assert_same_solve((lambda x: float(0.5 * x @ Q @ x), on_sphere(lambda x: Q @ x),
                           lambda mu: Q + 2 * mu[0] * np.eye(3), np.array([1e-3, 1e-3, 1.0])))
        assert branch_counts["interior"] > 0

    def test_gradient_below_close_to_zero(self, branch_counts):
        # a gradient of 3e-4 is above gtol = 1e-4 but below n eps |H|_inf
        # with |H|_inf = 1e12: the step follows the singular-value estimate
        Q = np.diag([1e12, -1e12, 0.0])
        c = np.array([3e-4, 0.0, 0.0])
        assert_same_solve((lambda x: float(0.5 * x @ Q @ x + c @ x),
                           on_sphere(lambda x: Q @ x + c),
                           lambda mu: Q + 2 * mu[0] * np.eye(3), np.array([0.0, 0.0, 1.0])))
        assert branch_counts["small_gradient"] > 0

    def test_nan_hessian_raises_in_both(self):
        # the start is the solution, so no step is taken: only the check on
        # the Hessian itself can raise
        a = np.array([1.0, 2.0])
        args = (lambda x: float((x - a) @ (x - a)),
                lambda x: (2 * (x - a), np.array([x[0] - 1.0]), np.array([[1.0, 0.0]])),
                lambda mu: np.array([[2.0, np.nan], [np.nan, 2.0]]), a.copy())
        with pytest.raises(ValueError):
            scipy_minimize_eq_constrained(*args)
        with pytest.raises(ValueError):
            minimize_eq_constrained(*args)


class TestSingleThreadedBlas:
    def test_one_thread_inside_and_caller_counts_after(self, blas_threads):
        caller = blas_threads.caller_counts()
        blas_threads.set(caller)
        with single_threaded_blas():
            assert blas_threads.counts() == [1] * len(caller)
        assert blas_threads.counts() == caller

    def test_restored_when_the_block_raises(self, blas_threads):
        caller = blas_threads.caller_counts()
        blas_threads.set(caller)
        with pytest.raises(DataError):
            with single_threaded_blas():
                raise DataError("inside")
        assert blas_threads.counts() == caller

    def test_nested_blocks_restore_on_the_outermost_exit(self, blas_threads):
        caller = blas_threads.caller_counts()
        blas_threads.set(caller)
        with single_threaded_blas():
            with single_threaded_blas():
                assert blas_threads.counts() == [1] * len(caller)
            assert blas_threads.counts() == [1] * len(caller)
        assert blas_threads.counts() == caller

    def test_no_library_found_changes_nothing(self, blas_threads, monkeypatch):
        caller = blas_threads.caller_counts()
        blas_threads.set(caller)
        monkeypatch.setattr(numerics, "_openblas_thread_controls", lambda: ())
        with single_threaded_blas():
            assert blas_threads.counts() == caller
        assert blas_threads.counts() == caller

    def test_concurrent_blocks_restore_once_all_exit(self, blas_threads):
        caller = blas_threads.caller_counts()
        blas_threads.set(caller)
        seen: list[list[int]] = []

        def worker():
            for _ in range(25):
                with single_threaded_blas():
                    time.sleep(0.0005)
                    seen.append(blas_threads.counts())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 100
        assert all(counts == [1] * len(caller) for counts in seen)
        assert blas_threads.counts() == caller
