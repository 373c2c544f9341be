import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import random_connected_adjacency
from dynlayout.distances import kk_weights, shortest_path_distances
from dynlayout.errors import NotPositiveDefiniteError
from dynlayout.mds import (_pairwise_distances, augment_mds, build_R, build_S, dmds_layout,
                           modified_stress, smacof_static, stabilized_mds_online, stress)


# --- independent oracle -----------------------------------------------------
# Direct double-loop evaluation of the regularized objective and its
# calculus gradient; shares no code with the implementation under test.

def oracle_modified_stress(X, delta, V, C, alpha, beta, E, X_prev):
    n = V.shape[0]
    k = C.shape[1]
    value = 0.0
    for i in range(n):
        for j in range(n):
            if V[i, j] > 0:
                d = np.linalg.norm(X[i] - X[j])
                value += 0.5 * V[i, j] * (delta[i, j] - d) ** 2
    for i in range(n):
        for l in range(k):
            if C[i, l]:
                value += alpha * np.sum((X[i] - X[n + l]) ** 2)
    for i in range(n):
        value += beta * E[i, i] * np.sum((X[i] - X_prev[i]) ** 2)
    return value


def oracle_gradient(X, delta, V, C, alpha, beta, E, X_prev):
    n = V.shape[0]
    k = C.shape[1]
    G = np.zeros_like(X)
    for i in range(n):
        for j in range(n):
            if i != j and V[i, j] > 0:
                diff = X[i] - X[j]
                d = np.linalg.norm(diff)
                if d > 0:
                    G[i] += 2 * V[i, j] * (d - delta[i, j]) * diff / d
                # at d == 0 the objective is not differentiable; subgradient 0
    for i in range(n):
        for l in range(k):
            if C[i, l]:
                G[i] += 2 * alpha * (X[i] - X[n + l])
                G[n + l] += 2 * alpha * (X[n + l] - X[i])
    for i in range(n):
        G[i] += 2 * beta * E[i, i] * (X[i] - X_prev[i])
    return G


def oracle_minimize(X0, delta, V, C, alpha, beta, E, X_prev):
    shape = X0.shape

    def fun(x):
        X = x.reshape(shape)
        return oracle_modified_stress(X, delta, V, C, alpha, beta, E, X_prev)

    def jac(x):
        return oracle_gradient(x.reshape(shape), delta, V, C, alpha, beta, E,
                               X_prev).ravel()

    out = scipy.optimize.minimize(fun, X0.ravel(), jac=jac, method="BFGS",
                                  options={"gtol": 1e-12, "maxiter": 5000})
    return fun(out.x)


def kk_problem(rng, n, weighted=False):
    W = random_connected_adjacency(rng, n, weighted=weighted)
    dm = shortest_path_distances(W)
    return dm.delta, kk_weights(dm)


# --- pairwise distances -----------------------------------------------------

def einsum_distances(X):
    # the 3-D difference-tensor formula the per-coordinate sum replaced
    diff = X[:, None, :] - X[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


class TestPairwiseDistances:
    @given(st.integers(1, 3).flatmap(lambda s: arrays(
        float, st.tuples(st.integers(1, 12), st.just(s)),
        elements=st.floats(-1e3, 1e3, allow_subnormal=False))))
    @settings(deadline=None, max_examples=300)
    def test_matches_einsum_formula(self, X):
        ours = _pairwise_distances(X)
        ref = einsum_distances(X)
        if X.shape[1] <= 2:
            assert np.array_equal(ours, ref)
        else:
            # einsum adds the three squares in another order
            assert np.allclose(ours, ref, rtol=1e-15, atol=0.0)


# --- stress -----------------------------------------------------------------

class TestStress:
    def test_exact_embedding_is_zero(self):
        delta = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=float)
        V = np.zeros((3, 3))
        mask = ~np.eye(3, dtype=bool)
        V[mask] = delta[mask] ** -2.0
        X = np.array([[0.0], [1.0], [2.0]])
        assert stress(X, delta, V) == pytest.approx(0.0, abs=1e-15)

    def test_two_coincident_points(self):
        # half-sum over both ordered pairs: (1/2)(1 + 1) = 1
        delta = np.array([[0.0, 1.0], [1.0, 0.0]])
        V = np.array([[0.0, 1.0], [1.0, 0.0]])
        X = np.zeros((2, 2))
        assert stress(X, delta, V) == pytest.approx(1.0)

    def test_scaled_embedding_residuals(self):
        delta = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=float)
        V = np.zeros((3, 3))
        mask = ~np.eye(3, dtype=bool)
        V[mask] = delta[mask] ** -2.0
        X = 2.0 * np.array([[0.0], [1.0], [2.0]])
        expected = sum(V[i, j] * delta[i, j] ** 2
                       for i in range(3) for j in range(i + 1, 3))
        assert stress(X, delta, V) == pytest.approx(expected)


class TestBuildR:
    def test_two_nodes(self):
        assert np.array_equal(build_R(np.array([[0.0, 1.0], [1.0, 0.0]])),
                              [[1.0, -1.0], [-1.0, 1.0]])

    def test_zero_weights(self):
        assert np.array_equal(build_R(np.zeros((3, 3))), np.zeros((3, 3)))

    @given(arrays(float, (4, 4), elements=st.floats(0, 5)))
    @settings(deadline=None, max_examples=50)
    def test_rows_sum_to_zero(self, V):
        V = (V + V.T) / 2
        np.fill_diagonal(V, 0)
        assert np.allclose(build_R(V).sum(axis=1), 0.0, atol=1e-9)


class TestBuildS:
    def test_two_nodes(self):
        V = np.array([[0.0, 1.0], [1.0, 0.0]])
        delta = np.array([[0.0, 2.0], [2.0, 0.0]])
        Z = np.array([[0.0], [1.0]])
        assert np.array_equal(build_S(V, delta, Z), [[2.0, -2.0], [-2.0, 2.0]])

    def test_coincident_rows_convention(self):
        V = np.array([[0.0, 1.0], [1.0, 0.0]])
        delta = np.array([[0.0, 2.0], [2.0, 0.0]])
        S = build_S(V, delta, np.zeros((2, 1)))
        assert np.array_equal(S, np.zeros((2, 2)))

    def test_rows_sum_to_zero(self, rng):
        delta, V = kk_problem(rng, 5)
        S = build_S(V, delta, rng.standard_normal((5, 2)))
        assert np.allclose(S.sum(axis=1), 0.0, atol=1e-12)


class TestSmacofStatic:
    def test_exact_start_converges_immediately(self):
        delta = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=float)
        V = np.zeros((3, 3))
        mask = ~np.eye(3, dtype=bool)
        V[mask] = delta[mask] ** -2.0
        X0 = np.array([[0.0], [1.0], [2.0]])
        layout, report = smacof_static(delta, V, X0)
        assert report.iterations == 1
        assert np.allclose(layout.X, X0, atol=1e-9)

    def test_convergence_criterion_arithmetic(self):
        # relative decrease 5e-5 < 1e-4 must stop the iteration
        assert (1.0 - 0.99995) / 1.0 < 1e-4

    def test_matches_generic_optimizer_oracle(self, rng):
        for trial in range(4):
            delta, V = kk_problem(rng, 4, weighted=trial % 2 == 0)
            X0 = rng.uniform(-1, 1, size=(4, 2))
            layout, report = smacof_static(delta, V, X0, eps=1e-15, max_iter=20000)
            ours = stress(layout.X, delta, V)
            C = np.zeros((4, 0))
            oracle = oracle_minimize(X0, delta, V, C, 0.0, 0.0, np.zeros((4, 4)),
                                     np.zeros_like(X0))
            assert ours == pytest.approx(oracle, abs=1e-6)

    def test_translation_of_start_is_pinned_by_anchor(self, rng):
        delta, V = kk_problem(rng, 5)
        X0 = rng.uniform(-1, 1, size=(5, 2))
        a, _ = smacof_static(delta, V, X0, eps=1e-12)
        b, _ = smacof_static(delta, V, X0 + np.array([3.0, -2.0]), eps=1e-12)
        assert np.allclose(a.X, b.X, atol=1e-8)

    def test_disconnected_rejected(self):
        delta = np.full((2, 2), np.inf)
        np.fill_diagonal(delta, 0.0)
        V = np.zeros((2, 2))
        with pytest.raises(NotPositiveDefiniteError):
            smacof_static(delta, V, np.zeros((2, 1)))


class TestAugmentMds:
    def test_no_groups_is_identity(self):
        V = np.array([[0.0, 1.0], [1.0, 0.0]])
        delta = np.array([[0.0, 2.0], [2.0, 0.0]])
        V_aug, delta_aug = augment_mds(V, delta, np.zeros((2, 0)), 1.5)
        assert np.array_equal(V_aug, V)
        assert np.array_equal(delta_aug, delta)

    def test_single_node_single_group(self):
        V_aug, delta_aug = augment_mds(np.zeros((1, 1)), np.zeros((1, 1)),
                                       np.array([[1.0]]), 2.0)
        assert np.array_equal(V_aug, [[0.0, 2.0], [2.0, 0.0]])
        assert np.array_equal(delta_aug, np.zeros((2, 2)))

    def test_added_block_is_zero_distance(self, rng):
        delta, V = kk_problem(rng, 4)
        C = np.array([[1.0, 0], [1.0, 0], [0, 1.0], [0, 1.0]])
        V_aug, delta_aug = augment_mds(V, delta, C, 0.7)
        assert np.array_equal(delta_aug[4:, :], np.zeros((2, 6)))
        assert np.array_equal(V_aug[4:, 4:], np.zeros((2, 2)))
        assert np.array_equal(V_aug[:4, 4:], 0.7 * C)


class TestModifiedStress:
    def test_reduces_to_stress(self, rng):
        delta, V = kk_problem(rng, 4)
        X = rng.standard_normal((4, 2))
        ms = modified_stress(X, delta, V, np.zeros((4, 0)), 0.0, 0.0,
                             np.zeros((4, 4)), np.zeros_like(X))
        assert ms == pytest.approx(stress(X, delta, V))

    def test_grouping_term_only(self):
        X_aug = np.array([[0.0, 0.0], [1.0, 0.0]])  # node, representative
        value = modified_stress(X_aug, np.zeros((1, 1)), np.zeros((1, 1)),
                                np.array([[1.0]]), 1.0, 0.0, np.zeros((1, 1)),
                                np.zeros((2, 2)))
        assert value == pytest.approx(1.0)

    def test_temporal_term_only(self):
        X = np.array([[1.0, 0.0]])
        X_prev = np.array([[0.0, 0.0]])
        value = modified_stress(X, np.zeros((1, 1)), np.zeros((1, 1)),
                                np.zeros((1, 0)), 0.0, 2.0, np.eye(1), X_prev)
        assert value == pytest.approx(2.0)


class TestDmds:
    def test_reduces_to_static_bit_for_bit(self, rng):
        delta, V = kk_problem(rng, 5)
        X0 = rng.uniform(-1, 1, size=(5, 2))
        static_layout, static_report = smacof_static(delta, V, X0)
        dmds_l, dmds_report = dmds_layout(delta, V, np.zeros((5, 0)), 0.0, 0.0,
                                          np.zeros((5, 5)), np.zeros_like(X0), X0=X0)
        assert np.array_equal(static_layout.X, dmds_l.X)
        assert static_report.stress_trace == dmds_report.stress_trace

    def test_huge_beta_freezes_persisting_nodes(self, rng):
        delta, V = kk_problem(rng, 5)
        X_prev = rng.uniform(-1, 1, size=(5, 2))
        E = np.eye(5)
        layout, _ = dmds_layout(delta, V, np.zeros((5, 0)), 0.0, 1e6, E, X_prev)
        assert np.max(np.abs(layout.X - X_prev)) <= 1e-3

    def test_matches_generic_optimizer_oracle(self, rng):
        for _ in range(3):
            delta, V = kk_problem(rng, 4)
            C = np.array([[1.0, 0], [1.0, 0], [0, 1.0], [0, 1.0]])
            E = np.diag([1.0, 1.0, 0.0, 1.0])
            X_prev = rng.uniform(-1, 1, size=(6, 2))
            layout, _ = dmds_layout(delta, V, C, 1.0, 1.0, E, X_prev,
                                    eps=1e-15, max_iter=20000)
            ours = modified_stress(np.vstack([layout.X, layout.Y]), delta, V, C,
                                   1.0, 1.0, E, X_prev)
            oracle = oracle_minimize(X_prev, delta, V, C, 1.0, 1.0, E, X_prev)
            assert ours == pytest.approx(oracle, abs=1e-6)

    def test_modified_stress_never_increases(self, rng):
        for _ in range(5):
            delta, V = kk_problem(rng, 6)
            C = np.zeros((6, 2))
            C[:3, 0] = 1
            C[3:, 1] = 1
            E = np.diag(rng.integers(0, 2, size=6).astype(float))
            if not E.any():
                E[0, 0] = 1.0
            X_prev = rng.uniform(-1, 1, size=(8, 2))
            _, report = dmds_layout(delta, V, C, 0.5, 0.8, E, X_prev)
            trace = np.array(report.stress_trace)
            drops = trace[:-1] - trace[1:]
            assert np.all(drops >= -1e-12 * np.maximum(trace[:-1], 1.0))

    def test_system_matrix_positive_definite_with_presence(self, rng):
        delta, V = kk_problem(rng, 5)
        E = np.diag([1.0, 0, 0, 0, 0])
        X_prev = rng.uniform(-1, 1, size=(5, 2))
        layout, report = dmds_layout(delta, V, np.zeros((5, 0)), 0.0, 0.5, E, X_prev)
        assert layout.X.shape == (5, 2)  # factorization succeeded


class TestStabilizedMds:
    def test_beta_zero_reaches_static_fixed_point(self, rng):
        delta, V = kk_problem(rng, 5)
        X0 = rng.uniform(-1, 1, size=(5, 2))
        layout, _ = stabilized_mds_online(delta, V, 0.0, np.zeros((5, 5)), X0,
                                          eps=1e-14, max_iter=20000)
        # at a fixed point one more majorization sweep does not move nodes
        refreshed, report = stabilized_mds_online(delta, V, 0.0, np.zeros((5, 5)),
                                                  layout.X, eps=1e-14, max_iter=1)
        assert np.allclose(refreshed.X, layout.X, atol=1e-6)

    def test_agrees_with_dmds_without_groups(self, rng):
        for _ in range(5):
            delta, V = kk_problem(rng, 5)
            E = np.eye(5)
            X_prev = rng.uniform(-1, 1, size=(5, 2))
            a, _ = stabilized_mds_online(delta, V, 1.0, E, X_prev,
                                         eps=1e-14, max_iter=50000)
            b, _ = dmds_layout(delta, V, np.zeros((5, 0)), 0.0, 1.0, E, X_prev,
                               eps=1e-14, max_iter=50000)
            ms_a = modified_stress(a.X, delta, V, np.zeros((5, 0)), 0.0, 1.0, E, X_prev)
            ms_b = modified_stress(b.X, delta, V, np.zeros((5, 0)), 0.0, 1.0, E, X_prev)
            assert ms_a == pytest.approx(ms_b, abs=1e-5)

    def test_huge_beta_freezes_layout(self, rng):
        delta, V = kk_problem(rng, 5)
        X_prev = rng.uniform(-1, 1, size=(5, 2))
        layout, _ = stabilized_mds_online(delta, V, 1e8, np.eye(5), X_prev)
        assert np.max(np.abs(layout.X - X_prev)) <= 1e-3


class TestTraceEndsAtReturnedLayout:
    # the last trace entry is the modified stress of the layout returned,
    # evaluated from scratch
    def test_dmds(self, rng):
        for _ in range(10):
            delta, V = kk_problem(rng, 7, weighted=True)
            C = np.zeros((7, 2))
            C[:4, 0] = 1
            C[4:, 1] = 1
            E = np.diag([1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0])
            X_prev = rng.uniform(-1, 1, size=(9, 2))
            layout, report = dmds_layout(delta, V, C, 0.7, 1.3, E, X_prev)
            assert report.stress_trace[-1] == modified_stress(
                np.vstack([layout.X, layout.Y]), delta, V, C, 0.7, 1.3, E, X_prev)

    def test_smacof_static(self, rng):
        for s in (1, 2, 3):
            delta, V = kk_problem(rng, 6)
            layout, report = smacof_static(delta, V, rng.uniform(-1, 1, size=(6, s)))
            assert report.stress_trace[-1] == modified_stress(
                layout.X, delta, V, np.zeros((6, 0)), 0.0, 0.0, np.zeros((6, 6)),
                np.zeros((6, s)))

    def test_stabilized(self, rng):
        for _ in range(10):
            delta, V = kk_problem(rng, 6)
            E = np.diag(rng.integers(0, 2, size=6).astype(float))
            X_prev = rng.uniform(-1, 1, size=(6, 2))
            layout, report = stabilized_mds_online(delta, V, 0.9, E, X_prev)
            assert report.stress_trace[-1] == modified_stress(
                layout.X, delta, V, np.zeros((6, 0)), 0.0, 0.9, E, X_prev)
