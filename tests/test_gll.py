import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

import dynlayout as dl
from conftest import connectivity_verdict, random_connected_adjacency
from dynlayout import gll
from dynlayout.errors import DataError
from dynlayout.gll import (bfp_lambda_select, bfp_layout, ccdr_layout, centering_matrix,
                           dgll_derivatives, dgll_layout, dgll_objective, energy, laplacian,
                           spectral_layout)
from dynlayout.graph import augment
from dynlayout.layout import Layout, align_to_reference


def path_graph():
    return np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)


def two_triangles():
    W = np.zeros((6, 6))
    for a, b in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]:
        W[a, b] = W[b, a] = 1.0
    return W


class TestLaplacian:
    def test_path_graph(self):
        lap = laplacian(path_graph())
        assert np.array_equal(np.diagonal(lap), [1, 2, 1])
        assert np.array_equal(lap, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])

    def test_empty_graph(self):
        lap = laplacian(np.zeros((3, 3)))
        assert np.array_equal(lap, np.zeros((3, 3)))

    def test_annihilates_constant_vector(self, rng):
        W = random_connected_adjacency(rng, 6, weighted=True)
        lap = laplacian(W)
        assert np.allclose(lap @ np.ones(6), 0.0, atol=1e-12)


def _random_weights(rng, n, density):
    # symmetric, nonnegative, zero diagonal; sparse draws leave isolated
    # nodes and several components
    W = rng.uniform(0.5, 2.0, (n, n)) * (rng.random((n, n)) < density)
    W = np.triu(W, 1)
    return W + W.T


class TestLaplacianConnectivity:
    """The eigen layouts check connectivity on L itself (its off-diagonal is
    -W) and read the degrees from its diagonal."""

    @given(st.integers(1, 12), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_laplacian_verdict_matches_adjacency(self, n, density_a, density_b, seed):
        rng = np.random.default_rng(seed)
        W1, W2 = _random_weights(rng, n, density_a), _random_weights(rng, n, density_b)
        L1, L2 = laplacian(W1), laplacian(W2)
        for W, L in ((W1, L1), (W2, L2)):
            assert np.diagonal(L).tobytes() == W.sum(axis=1).tobytes()
            assert connectivity_verdict(L) == connectivity_verdict(W)
        for lam in (0.0, 0.5, 1.0):
            assert connectivity_verdict(lam * L1 + (1 - lam) * L2) == \
                connectivity_verdict(lam * W1 + (1 - lam) * W2)


class TestEnergy:
    def test_path_graph_line(self):
        X = np.array([[0.0], [1.0], [2.0]])
        assert energy(X, laplacian(path_graph())) == pytest.approx(2.0)

    def test_constant_layout_is_zero(self):
        X = np.ones((3, 2))
        assert energy(X, laplacian(path_graph())) == pytest.approx(0.0)

    def test_double_sum_equals_trace_form(self, rng):
        W = random_connected_adjacency(rng, 6, weighted=True)
        X = rng.standard_normal((6, 2))
        double_sum = 0.5 * sum(W[i, j] * np.sum((X[i] - X[j]) ** 2)
                               for i in range(6) for j in range(6))
        assert energy(X, laplacian(W)) == pytest.approx(double_sum, rel=1e-12)

    def test_rotation_invariance(self, rng):
        W = random_connected_adjacency(rng, 5)
        X = rng.standard_normal((5, 2))
        theta = 0.83
        Q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        L = laplacian(W)
        assert energy(X @ Q, L) == pytest.approx(energy(X, L), rel=1e-12)


class TestSpectralLayout:
    def test_k2_one_dimensional(self):
        W = np.array([[0.0, 1.0], [1.0, 0.0]])
        layout = spectral_layout(laplacian(W), 1, normalized=False)
        X = layout.X[:, 0]
        assert np.allclose(np.abs(X), [1.0, 1.0])
        assert X[0] * X[1] < 0
        assert X @ X == pytest.approx(2.0)

    def test_plain_constraints_and_energy_identity(self, rng):
        W = random_connected_adjacency(rng, 7, weighted=True)
        layout = spectral_layout(laplacian(W), 2, normalized=False)
        X = layout.X
        n = 7
        assert np.allclose(X.T @ X, n * np.eye(2), atol=1e-8)
        assert np.allclose(X.T @ np.ones(n), 0.0, atol=1e-8)
        lap = laplacian(W)
        vals = np.sort(np.linalg.eigvalsh(lap))
        assert energy(X, lap) == pytest.approx(n * (vals[1] + vals[2]), abs=1e-6)

    def test_normalized_constraints(self, rng):
        W = random_connected_adjacency(rng, 7, weighted=True)
        layout = spectral_layout(laplacian(W), 2, normalized=True)
        X = layout.X
        D = np.diag(np.diagonal(laplacian(W)))
        assert np.allclose(X.T @ D @ X, np.trace(D) * np.eye(2), atol=1e-8)
        assert np.allclose(X.T @ D @ np.ones(7), 0.0, atol=1e-8)

    def test_two_triangle_graph_matches_dense_oracle(self):
        # lambda_2 is simple but lambda_3 = 3 has multiplicity 3 here, so the
        # oracle comparison is per eigenspace
        W = two_triangles()
        layout = spectral_layout(laplacian(W), 2, normalized=False)
        lap = laplacian(W)
        vals, vecs = np.linalg.eigh(lap)
        fiedler = np.sqrt(6) * vecs[:, 1]
        x1, x2 = layout.X[:, 0], layout.X[:, 1]
        assert np.allclose(np.minimum(np.abs(x1 - fiedler), np.abs(x1 + fiedler)),
                           0.0, atol=1e-8)
        assert np.allclose(lap @ x2, vals[2] * x2, atol=1e-8)

    def test_disconnected_rejected_with_component_count(self):
        W = np.zeros((4, 4))
        W[0, 1] = W[1, 0] = 1.0
        W[2, 3] = W[3, 2] = 1.0
        with pytest.raises(DataError, match="2 components"):
            spectral_layout(laplacian(W), 1)


class TestAugmentGll:
    def test_no_groups(self):
        W = path_graph()
        lap = laplacian(augment(W, np.zeros((3, 0)), 2.0))
        assert np.array_equal(np.diag(np.diagonal(lap)) - lap, W)

    def test_single_node_single_group(self):
        lap = laplacian(augment(np.zeros((1, 1)), np.array([[1.0]]), 3.0))
        assert np.array_equal(np.diag(np.diagonal(lap)) - lap, [[0.0, 3.0], [3.0, 0.0]])
        assert np.array_equal(np.diagonal(lap), [3.0, 3.0])

    def test_degree_bookkeeping(self, rng):
        W = random_connected_adjacency(rng, 6)
        C = np.zeros((6, 2))
        C[:4, 0] = 1
        C[4:, 1] = 1
        lap = laplacian(augment(W, C, 1.5))
        grouped = 6
        assert np.trace(lap) == pytest.approx(
            np.trace(laplacian(W)) + 2 * 1.5 * grouped)


class TestCenteringMatrix:
    def test_identity_degrees(self):
        M = centering_matrix(np.ones(2))
        assert np.allclose(M, [[0.5, -0.5], [-0.5, 0.5]])

    def test_annihilates_constant_vector(self, rng):
        d = rng.uniform(0.5, 3.0, size=6)
        M = centering_matrix(d)
        assert np.allclose(M @ np.ones(6), 0.0, atol=1e-12)

    def test_constant_vector_has_zero_weighted_variance(self, rng):
        d = rng.uniform(0.5, 3.0, size=5)
        M = centering_matrix(d)
        x = 4.2 * np.ones(5)
        assert x @ M @ x == pytest.approx(0.0, abs=1e-10)


class TestCcdr:
    def test_reduces_to_spectral(self, rng):
        W = random_connected_adjacency(rng, 6)
        a = ccdr_layout(W, np.zeros((6, 0)), 0.0, 2, normalized=True)
        b = spectral_layout(laplacian(W), 2, normalized=True)
        assert np.allclose(a.X, b.X, atol=1e-10)

    def test_satisfies_augmented_constraints(self, rng):
        W = random_connected_adjacency(rng, 6)
        C = np.zeros((6, 2))
        C[:3, 0] = 1
        C[3:, 1] = 1
        layout = ccdr_layout(W, C, 1.0, 2, normalized=True)
        lap = laplacian(augment(W, C, 1.0))
        M = centering_matrix(np.diagonal(lap))
        stacked = np.vstack([layout.X, layout.Y])
        target = np.trace(lap)
        assert np.allclose(stacked.T @ M @ stacked, target * np.eye(2), atol=1e-8)

    def test_large_alpha_collapses_groups(self, rng):
        # two-group graph in 1-D: the single layout dimension becomes the
        # between-group mode as alpha grows, so within-group variance -> 0
        W = random_connected_adjacency(rng, 8)
        C = np.zeros((8, 2))
        C[:4, 0] = 1
        C[4:, 1] = 1

        def within_group_variance(alpha):
            layout = ccdr_layout(W, C, alpha, 1, normalized=True)
            var = 0.0
            for g in range(2):
                members = layout.X[C[:, g] == 1]
                var += float(np.sum((members - members.mean(axis=0)) ** 2))
            return var

        sweep = [within_group_variance(a) for a in (0.1, 1.0, 10.0, 100.0)]
        assert sweep[-1] < 0.05 * sweep[0]


class TestBfp:
    def test_lambda_zero_is_current_spectral(self, rng):
        W_prev = random_connected_adjacency(rng, 6)
        W_curr = random_connected_adjacency(rng, 6)
        layout = bfp_layout(laplacian(W_prev), laplacian(W_curr), 0.0, 2)
        expected = spectral_layout(laplacian(W_curr), 2, normalized=True)
        assert np.allclose(layout.X, expected.X, atol=1e-10)

    def test_lambda_one_is_previous_spectral(self, rng):
        W_prev = random_connected_adjacency(rng, 6)
        W_curr = random_connected_adjacency(rng, 6)
        layout = bfp_layout(laplacian(W_prev), laplacian(W_curr), 1.0, 2)
        expected = spectral_layout(laplacian(W_prev), 2, normalized=True)
        assert np.allclose(layout.X, expected.X, atol=1e-10)

    def test_identical_snapshots_any_lambda(self, rng):
        W = random_connected_adjacency(rng, 6)
        lap = laplacian(W)
        a = bfp_layout(lap, lap, 0.37, 2)
        b = spectral_layout(lap, 2, normalized=True)
        assert np.allclose(a.X @ a.X.T, b.X @ b.X.T, atol=1e-8)

    def test_lambda_outside_range_rejected(self, rng):
        W = random_connected_adjacency(rng, 4)
        with pytest.raises(DataError):
            bfp_layout(laplacian(W), laplacian(W), 1.5, 2)

    def test_alignment_to_previous(self, rng):
        # a step of the sequence is the layout of one blend weight of the
        # grid, aligned to the step before on the nodes present at both
        snaps = [dl.Snapshot(t=t, W=random_connected_adjacency(rng, 6), active=range(6))
                 for t in range(3)]
        network = dl.DynamicNetwork(dl.NodeRegistry("abcdef"), snaps)
        sequence, _ = dl.run_sequence(network, dl.RegularizationConfig(method="bfp"))
        for t in (1, 2):
            X, X_prev = sequence.steps[t].X, sequence.steps[t - 1].X
            lap_prev, lap = laplacian(snaps[t - 1].W), laplacian(snaps[t].W)
            assert any(np.array_equal(X, align_to_reference(bfp_layout(lap_prev, lap, lam, 2),
                                                            X_prev, np.ones(6, bool)).X)
                       for lam in np.arange(21) / 20)


class TestBfpLambdaSelect:
    def test_single_candidate(self):
        assert bfp_lambda_select([0.0], lambda lam: 1.0) == 0.0

    def test_increasing_composite_picks_minimum(self):
        grid = [0.0, 0.25, 0.5, 0.75, 1.0]
        assert bfp_lambda_select(grid, lambda lam: 1.0 + lam) == 0.0

    def test_ties_go_to_smaller(self):
        assert bfp_lambda_select([0.0, 0.5, 1.0], lambda lam: 7.0) == 0.0

    def test_deterministic(self, rng):
        grid = [i / 10 for i in range(11)]
        table = {lam: float(rng.random()) for lam in grid}
        assert bfp_lambda_select(grid, table.get) == bfp_lambda_select(grid, table.get)

    def test_disconnected_blends_skipped(self, rng):
        # the previous graph leaves node 3 isolated, so only the pure
        # previous Laplacian (blend weight 1) is disconnected
        W_curr = random_connected_adjacency(rng, 4)
        W_prev = np.zeros((4, 4))
        W_prev[:3, :3] = path_graph()
        lap_prev, lap_curr = laplacian(W_prev), laplacian(W_curr)

        def composite(lam):
            return -lam + 0.0 * bfp_layout(lap_prev, lap_curr, lam, 1).X.sum()

        assert bfp_lambda_select([0.0, 0.5, 1.0], composite) == 0.5
        with pytest.raises(DataError, match="no blend weight.*2 components"):
            bfp_lambda_select([1.0], composite)


class TestDgllObjective:
    def test_beta_zero_is_trace_form(self, rng):
        W = random_connected_adjacency(rng, 5)
        L = laplacian(W)
        X = rng.standard_normal((5, 2))
        assert dgll_objective(X, L, np.zeros(5), 0.0, np.zeros_like(X)) == \
            pytest.approx(float(np.trace(X.T @ L @ X)))

    def test_pure_temporal_at_previous_layout(self, rng):
        X = rng.standard_normal((4, 2))
        e = np.array([1.0, 0, 1.0, 0])
        value = dgll_objective(X, np.zeros((4, 4)), e, 2.0, X)
        assert value == pytest.approx(-2.0 * float(np.trace(X.T @ np.diag(e) @ X)))

    def test_dropped_constant_algebra(self, rng):
        # objective + beta tr(Xp^T E Xp) equals the full quadratic expansion
        W = random_connected_adjacency(rng, 4)
        L = laplacian(W)
        e = np.array([1.0, 1.0, 0, 0])
        X = rng.standard_normal((4, 2))
        Xp = rng.standard_normal((4, 2))
        beta = 1.7
        full = float(np.trace(X.T @ L @ X)) + beta * sum(
            e[i] * np.sum((X[i] - Xp[i]) ** 2) for i in range(4))
        assert dgll_objective(X, L, e, beta, Xp) + beta * float(
            np.trace(Xp.T @ np.diag(e) @ Xp)) == pytest.approx(full)

    def test_rotation_invariance_without_temporal_term(self, rng):
        W = random_connected_adjacency(rng, 5)
        L = laplacian(W)
        X = rng.standard_normal((5, 2))
        theta = 1.2
        Q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        a = dgll_objective(X, L, np.zeros(5), 0.0, np.zeros_like(X))
        b = dgll_objective(X @ Q, L, np.zeros(5), 0.0, np.zeros_like(X))
        assert a == pytest.approx(b, rel=1e-12)


def random_dgll_instance(rng, n, k, s=2, normalized=True):
    W = random_connected_adjacency(rng, n)
    C = np.zeros((n, k))
    for i in range(n):
        if k and rng.random() < 0.8:
            C[i, rng.integers(k)] = 1.0
    for g in range(k):
        if C[:, g].sum() == 0:
            C[rng.integers(n), g] = 1.0
    beta = float(rng.uniform(0.3, 2.0))
    e = (rng.random(n) < 0.8).astype(float)
    if not e.any():
        e[0] = 1.0
    X_prev = rng.standard_normal((n + k, s))
    lap = laplacian(augment(W, C, 1.0))
    d = np.diagonal(lap) if normalized else np.ones(n + k)
    M = centering_matrix(d)
    target = float(np.sum(d))
    e_aug = np.zeros(n + k)
    e_aug[:n] = e
    return W, C, beta, e, X_prev, lap, M, target, e_aug


class TestDgllDerivatives:
    def test_gradient_and_jacobian_match_finite_differences(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 9))
            k = int(rng.integers(0, 4))
            W, C, beta, e, X_prev, lap, M, target, e_aug = \
                random_dgll_instance(rng, n, k)
            m = n + k
            x0 = rng.standard_normal(2 * m)

            def f(x):
                return dgll_objective(x.reshape(2, m).T, lap, e_aug,
                                      beta, X_prev)

            def g(x):
                return dgll_derivatives(x.reshape(2, m).T, lap, e_aug, beta,
                                        X_prev, M, np.zeros(3), target)[1]

            grad, gval, J, _ = dgll_derivatives(x0.reshape(2, m).T, lap,
                                                e_aug, beta, X_prev, M,
                                                np.zeros(3), target)
            h = 1e-6
            fd_grad = np.array([(f(x0 + h * e) - f(x0 - h * e)) / (2 * h)
                                for e in np.eye(2 * m)])
            scale = max(1.0, np.max(np.abs(grad)))
            assert np.max(np.abs(grad - fd_grad)) <= 1e-5 * scale
            fd_J = np.column_stack([(g(x0 + h * e) - g(x0 - h * e)) / (2 * h)
                                    for e in np.eye(2 * m)])
            assert np.max(np.abs(J - fd_J)) <= 1e-5 * max(1.0, np.max(np.abs(J)))

    def test_zero_multiplier_hessian_is_block_diagonal(self, rng):
        W, C, beta, e, X_prev, lap, M, target, e_aug = \
            random_dgll_instance(rng, 5, 2)
        m = 7
        X = rng.standard_normal((m, 2))
        _, _, _, H = dgll_derivatives(X, lap, e_aug, beta, X_prev, M,
                                      np.zeros(3), target)
        block = 2 * lap + 2 * beta * np.diag(e_aug)
        assert np.array_equal(H[:m, :m], block)
        assert np.array_equal(H[m:, m:], block)
        assert np.array_equal(H[:m, m:], np.zeros((m, m)))

    def test_three_dimensions_rejected(self, rng):
        W, C, beta, e, X_prev, lap, M, target, e_aug = \
            random_dgll_instance(rng, 4, 0)
        with pytest.raises(DataError):
            dgll_derivatives(np.zeros((4, 3)), lap, e_aug, beta,
                             np.zeros((4, 3)), M, np.zeros(3), target)


def dgll_1d_oracle(L_aug, e_aug, beta, x_prev, M, target):
    """Global minimum (objective, x) of x^T A x - 2 x^T b subject to
    x^T M x = target, with A = L_aug + beta E and b = beta E x_prev (A positive
    definite), in the eigenbasis of the pencil: M V = A V diag(theta) with
    V^T A V = I. In z = V^{-1} x the objective is |z|^2 - 2 g^T z (g = V^T b)
    and the constraint sum theta_i z_i^2 = target, so the minimizer is
    z_i = g_i / (1 + mu theta_i), mu >= -1/theta_max the root of the secular
    equation sum theta_i g_i^2 / (1 + mu theta_i)^2 = target. In the hard case
    (g vanishes on the top eigenspace and the sum stays below target as mu
    falls to -1/theta_max) mu = -1/theta_max and the missing scatter lies in
    the top eigenspace (Gander, Golub & von Matt 1989; More 1993)."""
    A = L_aug + beta * np.diag(e_aug)
    theta, V = scipy.linalg.eigh(M, A)
    g = V.T @ (beta * e_aug * x_prev)
    top = theta >= theta[-1] * (1 - 1e-12)

    def denominator(t):  # 1 + mu theta_i at t = 1 + mu theta_max > 0
        return 1 + (t - 1) * theta / theta[-1]

    def excess(t):  # the secular equation's left side minus target; falls in t
        return float(np.sum(theta * (g / denominator(t)) ** 2)) - target

    rest = ~top
    rest_scatter = float(np.sum(theta[rest] * (g[rest] / denominator(0.0)[rest]) ** 2))
    if np.linalg.norm(g[top]) <= 1e-14 * np.linalg.norm(g) and rest_scatter <= target:
        z = np.where(rest, g / np.where(rest, denominator(0.0), 1.0), 0.0)
        z[np.flatnonzero(top)[0]] = np.sqrt((target - rest_scatter) / theta[-1])
    else:
        lo = hi = 1.0
        while excess(lo) <= 0:
            lo /= 2
        while excess(hi) >= 0:
            hi *= 2
        t = scipy.optimize.brentq(excess, lo, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps,
                                  maxiter=1000)
        z = g / denominator(t)
    return float(z @ z - 2 * g @ z), V @ z


@st.composite
def anchored_dgll_instances(draw):
    """Connected 1-D DGLL instances with at least one anchored node and
    beta > 0, so that L_aug + beta E is positive definite."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    normalized = draw(st.booleans())
    return random_dgll_instance(rng, draw(st.integers(3, 9)), draw(st.integers(0, 3)), s=1,
                                normalized=normalized), normalized


class TestDgllOneDimensionalOracle:
    @staticmethod
    def solve(W, C, beta, e, X_prev, lap, M, target, e_aug, normalized):
        """(solver objective, oracle objective, tolerance scale), after
        checking that both points are feasible."""
        solution = dgll_layout(W, C, 1.0, beta, e, X_prev, 1, normalized=normalized, rng=0)
        best, x_best = dgll_1d_oracle(lap, e_aug, beta, X_prev[:, 0], M, target)
        assert x_best @ M @ x_best == pytest.approx(target, rel=1e-9)
        x = solution.X_aug[:, 0]
        assert abs(float(x @ M @ x) - target) <= 1e-8 * target
        assert solution.constraint_residual <= 1e-8
        return solution.objective, best, abs(best) + abs(float(x_best @ lap @ x_best))

    @given(anchored_dgll_instances())
    @settings(deadline=None, max_examples=60)
    def test_oracle_bounds_the_solver(self, case):
        instance, normalized = case
        objective, best, scale = self.solve(*instance, normalized)
        assert best <= objective + 1e-9 * scale

    @pytest.mark.xfail(strict=True, reason="the 1-D solve can stop in a local minimum above "
                       "the global one (CHANGES.md, FOUND)")
    def test_reaches_global_minimum(self):
        # an instance the solver leaves at 18.23 where the oracle reaches 10.17
        instance = random_dgll_instance(np.random.default_rng(17), 6, 2, s=1)
        objective, best, scale = self.solve(*instance, True)
        assert abs(objective - best) <= 1e-9 * scale

    def test_hard_case(self, rng):
        # x_prev is scaled down and cleared of the top pencil direction, so
        # g vanishes there and the secular equation has no root: the
        # minimizer puts its missing scatter on that direction
        W, C, beta, e, X_prev, lap, M, target, e_aug = random_dgll_instance(rng, 7, 2, s=1)
        A = lap + beta * np.diag(e_aug)
        theta, V = scipy.linalg.eigh(M, A)
        w = beta * e_aug * V[:, -1]
        x_prev = 1e-3 * (X_prev[:, 0] - (w @ X_prev[:, 0]) / (w @ w) * w)
        g = V.T @ (beta * e_aug * x_prev)
        assert abs(g[-1]) <= 1e-14 * np.linalg.norm(g)
        assert np.sum(theta[:-1] * (g[:-1] / (1 - theta[:-1] / theta[-1])) ** 2) < target
        objective, best, scale = self.solve(W, C, beta, e, x_prev[:, None], lap, M, target,
                                            e_aug, True)
        assert abs(objective - best) <= 1e-9 * scale


class TestDgllLayout:
    def test_eigen_reduction_without_anchor(self, rng):
        W = random_connected_adjacency(rng, 6)
        solution = dgll_layout(W, np.zeros((6, 0)), 0.0, 0.0, np.zeros(6),
                               np.zeros((6, 2)), 2, normalized=False)
        lap = laplacian(W)
        vals = np.sort(np.linalg.eigvalsh(lap))
        assert solution.objective == pytest.approx(6 * (vals[1] + vals[2]), abs=1e-6)

    def test_solution_meets_residual_contract(self, rng):
        for _ in range(5):
            n = int(rng.integers(4, 8))
            k = int(rng.integers(0, 3))
            W, C, beta, e, X_prev, *_ = random_dgll_instance(rng, n, k)
            solution = dgll_layout(W, C, 1.0, beta, e, X_prev, 2)
            assert solution.constraint_residual <= 1e-6
            assert solution.kkt_residual <= 1e-6

    def test_huge_beta_returns_feasible_previous(self, rng):
        W = random_connected_adjacency(rng, 6)
        lap = laplacian(augment(W, np.zeros((6, 0)), 0.0))
        M = centering_matrix(np.diagonal(lap))
        target = float(np.trace(lap))
        raw = rng.standard_normal((6, 2))
        G = raw.T @ M @ raw
        vals, vecs = np.linalg.eigh(G)
        X_prev = raw @ (vecs @ np.diag(vals**-0.5) @ vecs.T * np.sqrt(target))
        # X_prev is feasible, so its constraint-set projection is itself
        solution = dgll_layout(W, np.zeros((6, 0)), 0.0, 1e7, np.ones(6), X_prev, 2)
        assert np.max(np.abs(solution.X_aug - X_prev)) <= 1e-3

    def test_matches_tightening_penalty_oracle(self, rng):
        for _ in range(3):
            n = int(rng.integers(4, 6))
            W, C, beta, e, X_prev, lap, M, target, e_aug = \
                random_dgll_instance(rng, n, 1)
            m = n + 1
            solution = dgll_layout(W, C, 1.0, beta, e, X_prev, 2)

            # independent penalty oracle: objective/constraints and their
            # gradients written out directly, minimized by scipy BFGS with a
            # tightening quadratic penalty
            L, E_full = lap, np.diag(e_aug)

            def f(x):
                X = x.reshape(2, m).T
                return float(np.trace(X.T @ L @ X)
                             + beta * (np.trace(X.T @ E_full @ X)
                                       - 2 * np.trace(X.T @ E_full @ X_prev)))

            def g(x):
                X = x.reshape(2, m).T
                return np.array([X[:, 0] @ M @ X[:, 0] - target,
                                 X[:, 1] @ M @ X[:, 1] - target,
                                 X[:, 1] @ M @ X[:, 0]])

            def penalty_grad(x, rho):
                X = x.reshape(2, m).T
                gf = 2 * L @ X + 2 * beta * E_full @ X - 2 * beta * E_full @ X_prev
                gv = g(x)
                gc = np.zeros_like(X)
                gc[:, 0] = 4 * gv[0] * (M @ X[:, 0]) + 2 * gv[2] * (M @ X[:, 1])
                gc[:, 1] = 4 * gv[1] * (M @ X[:, 1]) + 2 * gv[2] * (M @ X[:, 0])
                return (gf + rho * gc).T.reshape(-1)

            x = X_prev.T.reshape(-1).copy()
            for rho in [1e0, 1e2, 1e4, 1e6, 1e8, 1e10]:
                out = scipy.optimize.minimize(
                    lambda z, r=rho: f(z) + r * float(g(z) @ g(z)), x,
                    jac=lambda z, r=rho: penalty_grad(z, r),
                    method="BFGS", options={"gtol": 1e-10, "maxiter": 10000})
                x = out.x
            assert solution.objective == pytest.approx(f(x), abs=1e-6)

    def test_one_dimensional_solve(self, rng):
        W = random_connected_adjacency(rng, 5)
        X_prev = rng.standard_normal((5, 1))
        solution = dgll_layout(W, np.zeros((5, 0)), 0.0, 1.0, np.ones(5), X_prev, 1)
        assert solution.constraint_residual <= 1e-6
        assert solution.X_aug.shape == (5, 1)

    def test_protocol_solves_stay_under_200_iterations(self, monkeypatch):
        # every solve on one protocol network (acceptance seed 0, known
        # groups, 2-D) converges well inside 200 iterations
        network = dl.sbm_sequence(dl.SbmConfig.two_rate(
            n=30, k=4, p_in=0.6, p_out=0.2, T=20, change_step=10,
            change_fraction=0.25, seed=0))
        results = []
        solver = gll.minimize_eq_constrained

        def record(*args, **kwargs):
            results.append(solver(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(gll, "minimize_eq_constrained", record)
        dl.run_sequence(network, dl.RegularizationConfig(method="dgll", groups="known",
                                                         dims=2, seed=0))
        assert len(results) == 19
        assert all(r.converged for r in results)
        assert max(r.iterations for r in results) < 200

    def test_three_dimensions_rejected(self, rng):
        W = random_connected_adjacency(rng, 5)
        with pytest.raises(DataError):
            dgll_layout(W, np.zeros((5, 0)), 0.0, 1.0, np.ones(5),
                        np.zeros((5, 3)), 3)


def signed_permutation(before: np.ndarray, after: np.ndarray):
    """The columns and signs with after[:, b] == signs[b] * before[:, cols[b]]."""
    cols, signs = [], []
    for b in range(after.shape[1]):
        col, sign = next((c, sign) for c in range(before.shape[1]) for sign in (1.0, -1.0)
                         if np.array_equal(after[:, b], sign * before[:, c]))
        cols.append(col)
        signs.append(sign)
    return cols, np.array(signs)


class TestAlignToReference:
    def test_recovers_sign_flip_and_permutation(self, rng):
        X = rng.standard_normal((8, 2))
        ref = X[:, [1, 0]] * np.array([-1.0, 1.0])
        aligned = align_to_reference(Layout(X=ref, Y=np.zeros((0, 2))), X, np.ones(8, bool))
        assert np.allclose(aligned.X, X)

    def test_masked_rows_ignored(self, rng):
        X = rng.standard_normal((6, 2))
        noisy = -X.copy()
        noisy[5] = rng.standard_normal(2) * 100
        mask = np.array([True] * 5 + [False])
        aligned = align_to_reference(Layout(X=noisy, Y=np.zeros((0, 2))), X, mask)
        assert np.allclose(aligned.X[:5], X[:5])

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 9), k=st.integers(0, 3),
           s=st.integers(1, 3))
    @settings(deadline=None, max_examples=200)
    def test_one_signed_permutation_chosen_on_masked_rows(self, seed, n, k, s):
        rng = np.random.default_rng(seed)
        layout = Layout(X=rng.standard_normal((n, s)), Y=rng.standard_normal((k, s)))
        ref = rng.standard_normal((n, s))
        mask = rng.random(n) < 0.7
        aligned = align_to_reference(layout, ref, mask)
        cols, signs = signed_permutation(layout.X, aligned.X)
        assert sorted(cols) == list(range(s))
        assert np.array_equal(aligned.Y, layout.Y[:, cols] * signs)
        # rows outside the mask, of the layout or of the reference, do not
        # change the choice
        X_other, ref_other = layout.X.copy(), ref.copy()
        X_other[~mask] = rng.standard_normal((int((~mask).sum()), s))
        ref_other[~mask] = rng.standard_normal((int((~mask).sum()), s))
        other = align_to_reference(Layout(X=X_other, Y=layout.Y), ref_other, mask)
        assert np.array_equal(other.X, X_other[:, cols] * signs)
        assert np.array_equal(other.Y, aligned.Y)

    @pytest.mark.parametrize("shape", [(6, 2), (5, 3), (4, 1), (5,), (4, 2)])
    def test_longer_or_wider_reference_rejected(self, shape, rng):
        # any shape but X's, a shorter one included
        layout = Layout(X=rng.standard_normal((5, 2)), Y=rng.standard_normal((2, 2)))
        with pytest.raises(DataError, match="reference shape"):
            align_to_reference(layout, np.zeros(shape), np.ones(5, bool))
