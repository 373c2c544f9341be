import logging

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import random_connected_adjacency
from dynlayout import mds
from dynlayout.distances import kk_weights, shortest_path_distances
from dynlayout.errors import DisconnectedGraphError
from dynlayout.graph import augment, laplacian
from dynlayout.mds import (DEFAULT_EPSILON, DEFAULT_MAX_ITER, _Majorization, augment_mds,
                           dmds_layout, modified_stress, smacof_static, stabilized_mds_online,
                           stress)


# --- independent oracle -----------------------------------------------------
# Direct double-loop evaluation of the regularized objective and its
# calculus gradient; shares no code with the implementation under test.

def oracle_modified_stress(X, delta, V, C, alpha, beta, e, X_prev):
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
        value += beta * e[i] * np.sum((X[i] - X_prev[i]) ** 2)
    return value


def oracle_gradient(X, delta, V, C, alpha, beta, e, X_prev):
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
        G[i] += 2 * beta * e[i] * (X[i] - X_prev[i])
    return G


def oracle_minimize(X0, delta, V, C, alpha, beta, e, X_prev):
    shape = X0.shape

    def fun(x):
        X = x.reshape(shape)
        return oracle_modified_stress(X, delta, V, C, alpha, beta, e, X_prev)

    def jac(x):
        return oracle_gradient(x.reshape(shape), delta, V, C, alpha, beta, e,
                               X_prev).ravel()

    out = scipy.optimize.minimize(fun, X0.ravel(), jac=jac, method="BFGS",
                                  options={"gtol": 1e-12, "maxiter": 5000})
    return fun(out.x)


def kk_problem(rng, n, weighted=False):
    W = random_connected_adjacency(rng, n, weighted=weighted)
    dm = shortest_path_distances(W)
    return dm.delta, kk_weights(dm)


# --- majorization kernel ----------------------------------------------------

def loop_distances(X):
    # one coordinate at a time, the squares added in order from zero
    sq = np.zeros((X.shape[0], X.shape[0]))
    for col in X.T:
        diff = np.subtract.outer(col, col)
        sq += diff * diff
    return np.sqrt(sq)


def masked_S(V, delta, dist):
    # -v_ij delta_ij / d_ij only where v_ij > 0, d_ij > 0 and the product is
    # nonzero, 0 elsewhere; the diagonal makes rows sum to zero
    mask = V > 0
    neg_num = -(np.where(mask, V, 0.0) * np.where(mask, delta, 0.0))
    keep = (dist > 0) & (neg_num != 0)
    S = np.zeros_like(dist)
    np.divide(neg_num, dist, out=S, where=keep)
    np.fill_diagonal(S, 0.0)
    np.fill_diagonal(S, -S.sum(axis=1))
    return S


@st.composite
def layouts(draw, max_n=12):
    """Up to ``max_n`` points in 1-3 dimensions over six decades of scale,
    drawn from fewer distinct points so that rows often repeat."""
    s = draw(st.integers(1, 3))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    base = draw(arrays(float, st.tuples(st.integers(1, max_n), st.just(s)),
                       elements=st.floats(-1, 1, allow_subnormal=False)))
    rows = draw(st.lists(st.integers(0, base.shape[0] - 1), min_size=1, max_size=max_n))
    return scale * base[rows]


class TestMajorizationKernel:
    @given(layouts(), layouts())
    @settings(deadline=None, max_examples=300)
    def test_distances_match_per_coordinate_sum(self, X, other):
        n = X.shape[0]
        system = _Majorization(np.zeros((n, n)), np.zeros((n, n)))
        system.dist.fill(np.nan)
        assert np.array_equal(system.at(X).dist, loop_distances(X))
        # an earlier iterate, possibly of another dimension, leaves nothing behind
        other = np.resize(other, (n, other.shape[1]))
        system.at(other)
        assert np.array_equal(system.at(X).dist, loop_distances(X))

    @given(st.data())
    @settings(deadline=None, max_examples=300)
    def test_S_matches_masked_formula(self, data):
        X = data.draw(layouts())
        n = X.shape[0]
        square = st.tuples(st.just(n), st.just(n))
        V = data.draw(arrays(float, square, elements=st.sampled_from([0.0, 0.25, 1.0, 3.0])))
        delta = data.draw(arrays(float, square, elements=st.sampled_from([0.0, 0.5, 1.0, 2.0])))
        # unreachable pairs: no weight and an infinite desired distance
        unreachable = data.draw(arrays(bool, square)) & (V == 0)
        delta[unreachable] = np.inf
        system = _Majorization(V, delta)
        system.at(X + 1.0).S()
        S = system.at(X).S()
        ref = masked_S(V, delta, loop_distances(X))
        assert np.array_equal(S, ref)
        assert np.array_equal(np.signbit(S), np.signbit(ref))


@st.composite
def stress_systems(draw):
    """A modified-stress system and an iterate: 2-10 nodes in 1-3
    dimensions, weights with unreachable pairs (no weight, infinite desired
    distance), points that coincide, 0-2 groups and a temporal term."""
    n = draw(st.integers(2, 10))
    s = draw(st.integers(1, 3))
    square = st.tuples(st.just(n), st.just(n))
    V = np.triu(draw(arrays(float, square, elements=st.sampled_from([0.0, 0.25, 1.0, 3.0]))), 1)
    V[0, 1] = max(V[0, 1], 1.0)
    delta = np.triu(draw(arrays(float, square, elements=st.sampled_from([0.5, 1.0, 2.0, 3.0]))),
                    1)
    V, delta = V + V.T, delta + delta.T
    unreachable = np.triu(draw(arrays(bool, square)), 1) & (V == 0)
    delta[unreachable | unreachable.T] = np.inf
    k = draw(st.integers(0, 2))
    labels = draw(arrays(int, n, elements=st.integers(-1, k - 1)))
    C = np.zeros((n, k))
    C[labels >= 0, labels[labels >= 0]] = 1.0
    alpha = draw(st.sampled_from([0.0, 0.5, 2.0]))
    beta = draw(st.sampled_from([0.0, 0.7]))
    e = draw(arrays(float, n, elements=st.sampled_from([0.0, 1.0])))
    points = draw(arrays(float, (draw(st.integers(1, n + k)), s),
                         elements=st.floats(-3, 3, allow_subnormal=False)))
    X = points[draw(arrays(int, n + k, elements=st.integers(0, points.shape[0] - 1)))]
    X_prev = draw(arrays(float, (n + k, s), elements=st.floats(-3, 3, allow_subnormal=False)))
    V_aug, delta_aug = augment_mds(V, delta, C, alpha)
    return _Majorization(V_aug, delta_aug, beta, e, X_prev), X


class TestStressIdentity:
    # the solvers read each iterate's stress from the identity
    # (1/2) sum v delta^2 - sum v delta d + tr(X^T L_V X)
    @given(stress_systems())
    @settings(deadline=None, max_examples=300)
    def test_matches_direct_sum(self, drawn):
        system, X = drawn
        value = system.at(X).objective()
        assert np.array_equal(system.VX, system.V @ system.X)
        assert abs(value - system.at(X).stress()) <= 1e-12 * system.half_vdd

    def test_nearly_coincident_points(self):
        # S(X) X would cancel here: its entries grow as 1/d
        V = np.ones((4, 4)) - np.eye(4)
        delta = 2.0 * V
        system = _Majorization(V, delta)
        for gap in (1e-5, 1e-12, 1e-16):
            X = np.array([[2.0 + 2 * gap], [2.0], [2.0 + gap], [5.0]])
            value = system.at(X).objective()
            assert abs(value - system.stress()) <= 1e-12 * system.half_vdd

    def path_problem(self, n=40):
        W = np.zeros((n, n))
        W[np.arange(n - 1), np.arange(1, n)] = 1.0
        dm = shortest_path_distances(W + W.T)
        return dm.delta, kk_weights(dm)

    def test_path_falls_back_to_the_direct_sum(self, monkeypatch):
        # a 40-node path fits a line almost exactly, so its stress ends far
        # below (1/2) sum v delta^2, where the identity cancels
        n = 40
        delta, V = self.path_problem(n)
        rng = np.random.default_rng(0)
        line = np.arange(n, dtype=float)[:, None]
        X_prev = 1.02 * line + 0.05 * rng.standard_normal((n, 1))
        X0 = line + 0.1 * rng.standard_normal((n, 1))

        def solve(floor):
            with monkeypatch.context() as patch:
                patch.setattr(mds, "_IDENTITY_FLOOR", floor)
                return stabilized_mds_online(delta, V, 1.0, np.ones(n), X_prev, X0=X0)

        layout, report = solve(mds._IDENTITY_FLOOR)
        direct_layout, direct = solve(np.inf)  # every value summed pair by pair
        _, identity = solve(-np.inf)  # the identity wherever no stop is near
        assert report.iterations == direct.iterations > 10
        assert np.array_equal(layout.X, direct_layout.X)
        trace, ref = np.array(report.stress_trace), np.array(direct.stress_trace)
        low = ref < mds._IDENTITY_FLOOR * mds._Majorization(V, delta).half_vdd
        assert 10 < low.sum() < low.size
        assert np.array_equal(trace[low], ref[low])
        # without the fallback the low values would be off by more than the
        # trace's rounding allowance
        error = np.abs(np.array(identity.stress_trace) - ref) / ref
        assert error[low].max() > 1e-12
        assert np.all(trace[1:] < trace[:-1])

    def test_exact_embedding_stops_at_rounding(self):
        # a path embeds exactly on a line: one update from 1.1 x (0, ..., 39)
        # reaches it, after which the relative decrease is rounding noise and
        # the trace rose by order one without the floor
        delta, V = self.path_problem()
        _, report = smacof_static(delta, V, 1.1 * np.arange(40, dtype=float)[:, None])
        trace = np.array(report.stress_trace)
        assert report.iterations == 1 and not report.hit_iteration_cap
        assert trace[-1] < mds._ZERO_STRESS * mds._Majorization(V, delta).half_vdd
        assert trace[-1] <= trace[0]

    def test_start_at_the_embedding_is_kept(self):
        # the one update from an exact start only adds rounding noise, so it
        # is undone and the trace repeats the start's stress
        delta, V = self.path_problem()
        X0 = 3.0 + np.arange(40, dtype=float)[:, None]
        layout, report = smacof_static(delta, V, X0)
        assert report.iterations == 1 and not report.hit_iteration_cap
        assert np.array_equal(layout.X, X0)
        assert report.stress_trace == (mds.stress(X0, delta, V),) * 2

    def test_restart_at_a_fixed_point_does_not_rise(self, monkeypatch):
        # one more update barely moves the layout, so the identity's rounding
        # would decide the stop; both values are then summed directly
        delta, V = self.path_problem()
        rng = np.random.default_rng(0)
        layout, _ = smacof_static(delta, V, rng.standard_normal((40, 1)))
        _, report = smacof_static(delta, V, layout.X)
        monkeypatch.setattr(mds, "_IDENTITY_FLOOR", np.inf)
        _, direct = smacof_static(delta, V, layout.X)
        assert report.iterations == direct.iterations
        assert report.stress_trace[-2:] == direct.stress_trace[-2:]
        trace = np.array(report.stress_trace)
        assert np.all(trace[1:] <= trace[:-1])


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


def reference_R(V: np.ndarray) -> np.ndarray:
    """The weighted Laplacian of MDS weights as the stress solver first built
    it: r_ij = -v_ij off the diagonal, rows summing to zero."""
    # 0.0 - v rather than -v: a zero weight gives +0.0, so adding beta e on the
    # diagonal alone gives the bits of the dense sum R + beta diag(e)
    R = 0.0 - np.asarray(V, dtype=float)
    np.fill_diagonal(R, 0.0)
    np.fill_diagonal(R, -R.sum(axis=1))
    return R


@st.composite
def mds_weight_matrices(draw):
    """Symmetric nonnegative zero-diagonal weights, n from 1 to 12, with
    some rows zeroed; half of them the augmented weights of a grouping."""
    n = draw(st.integers(1, 12))
    V = draw(arrays(float, (n, n), elements=st.floats(0, 5) | st.just(0.0)))
    V = np.triu(V, 1)
    V = V + V.T
    zero = draw(arrays(bool, n))
    V[zero] = 0.0
    V[:, zero] = 0.0
    if draw(st.booleans()):
        k = draw(st.integers(1, 3))
        labels = draw(arrays(int, n, elements=st.integers(-1, k - 1)))
        C = np.zeros((n, k))
        C[labels >= 0, labels[labels >= 0]] = 1.0
        V = augment(V, C, draw(st.just(0.0) | st.floats(0.1, 3.0)))
    return V


class TestBuildR:
    def test_two_nodes(self):
        assert np.array_equal(laplacian(np.array([[0.0, 1.0], [1.0, 0.0]])),
                              [[1.0, -1.0], [-1.0, 1.0]])

    def test_zero_weights(self):
        assert np.array_equal(laplacian(np.zeros((3, 3))), np.zeros((3, 3)))

    @given(arrays(float, (4, 4), elements=st.floats(0, 5)))
    @settings(deadline=None, max_examples=50)
    def test_rows_sum_to_zero(self, V):
        V = (V + V.T) / 2
        np.fill_diagonal(V, 0)
        assert np.allclose(laplacian(V).sum(axis=1), 0.0, atol=1e-9)

    @given(mds_weight_matrices(), st.sampled_from([0.0, 0.5, 1.0, 7.0]))
    @settings(deadline=None, max_examples=300)
    def test_matches_reference_byte_for_byte(self, V, beta):
        # the stress solver's system matrix, R + beta diag(e), for 0/1 presence e
        e = (np.arange(V.shape[0]) % 2).astype(float)
        A, R = laplacian(V), reference_R(V)
        A[np.diag_indices_from(A)] += beta * e
        R[np.diag_indices_from(R)] += beta * e
        assert A.tobytes() == R.tobytes()
        # alone they differ only in the sign of a zero row's diagonal zero
        # (+0.0 against the reference's -0.0), which adding beta e erases
        assert np.array_equal(laplacian(V), reference_R(V))
        off = ~np.eye(V.shape[0], dtype=bool)
        assert laplacian(V)[off].tobytes() == reference_R(V)[off].tobytes()


class TestBuildS:
    def test_two_nodes(self):
        V = np.array([[0.0, 1.0], [1.0, 0.0]])
        delta = np.array([[0.0, 2.0], [2.0, 0.0]])
        Z = np.array([[0.0], [1.0]])
        assert np.array_equal(_Majorization(V, delta).at(Z).S(), [[2.0, -2.0], [-2.0, 2.0]])

    def test_coincident_rows_convention(self):
        V = np.array([[0.0, 1.0], [1.0, 0.0]])
        delta = np.array([[0.0, 2.0], [2.0, 0.0]])
        S = _Majorization(V, delta).at(np.zeros((2, 1))).S()
        assert np.array_equal(S, np.zeros((2, 2)))

    def test_rows_sum_to_zero(self, rng):
        delta, V = kk_problem(rng, 5)
        S = _Majorization(V, delta).at(rng.standard_normal((5, 2))).S()
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
            oracle = oracle_minimize(X0, delta, V, C, 0.0, 0.0, np.zeros(4),
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
        with pytest.raises(DisconnectedGraphError, match="2 components"):
            smacof_static(delta, V, np.zeros((2, 1)))

    def test_disconnected_rejected_when_rounding_lets_it_factor(self):
        # pinning the isolated first node leaves the path's Laplacian, which
        # is singular but factors with a pivot at round-off level
        W = np.zeros((4, 4))
        W[1, 2] = W[2, 1] = W[2, 3] = W[3, 2] = 1.0
        dm = shortest_path_distances(W)
        with pytest.raises(DisconnectedGraphError, match="2 components"):
            smacof_static(dm.delta, kk_weights(dm), np.arange(4.0)[:, None])


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
                             np.zeros(4), np.zeros_like(X))
        assert ms == pytest.approx(stress(X, delta, V))

    def test_grouping_term_only(self):
        X_aug = np.array([[0.0, 0.0], [1.0, 0.0]])  # node, representative
        value = modified_stress(X_aug, np.zeros((1, 1)), np.zeros((1, 1)),
                                np.array([[1.0]]), 1.0, 0.0, np.zeros(1),
                                np.zeros((2, 2)))
        assert value == pytest.approx(1.0)

    def test_temporal_term_only(self):
        X = np.array([[1.0, 0.0]])
        X_prev = np.array([[0.0, 0.0]])
        value = modified_stress(X, np.zeros((1, 1)), np.zeros((1, 1)),
                                np.zeros((1, 0)), 0.0, 2.0, np.ones(1), X_prev)
        assert value == pytest.approx(2.0)


class TestDmds:
    def test_reduces_to_static_bit_for_bit(self, rng):
        delta, V = kk_problem(rng, 5)
        X0 = rng.uniform(-1, 1, size=(5, 2))
        static_layout, static_report = smacof_static(delta, V, X0)
        dmds_l, dmds_report = dmds_layout(delta, V, np.zeros((5, 0)), 0.0, 0.0,
                                          np.zeros(5), np.zeros_like(X0), X0=X0)
        assert np.array_equal(static_layout.X, dmds_l.X)
        assert static_report.stress_trace == dmds_report.stress_trace

    def test_huge_beta_freezes_persisting_nodes(self, rng):
        delta, V = kk_problem(rng, 5)
        X_prev = rng.uniform(-1, 1, size=(5, 2))
        e = np.ones(5)
        layout, _ = dmds_layout(delta, V, np.zeros((5, 0)), 0.0, 1e6, e, X_prev)
        assert np.max(np.abs(layout.X - X_prev)) <= 1e-3

    def test_matches_generic_optimizer_oracle(self, rng):
        for _ in range(3):
            delta, V = kk_problem(rng, 4)
            C = np.array([[1.0, 0], [1.0, 0], [0, 1.0], [0, 1.0]])
            e = np.array([1.0, 1.0, 0.0, 1.0])
            X_prev = rng.uniform(-1, 1, size=(6, 2))
            layout, _ = dmds_layout(delta, V, C, 1.0, 1.0, e, X_prev,
                                    eps=1e-15, max_iter=20000)
            ours = modified_stress(np.vstack([layout.X, layout.Y]), delta, V, C,
                                   1.0, 1.0, e, X_prev)
            oracle = oracle_minimize(X_prev, delta, V, C, 1.0, 1.0, e, X_prev)
            assert ours == pytest.approx(oracle, abs=1e-6)

    def test_modified_stress_never_increases(self, rng):
        for _ in range(5):
            delta, V = kk_problem(rng, 6)
            C = np.zeros((6, 2))
            C[:3, 0] = 1
            C[3:, 1] = 1
            e = rng.integers(0, 2, size=6).astype(float)
            if not e.any():
                e[0] = 1.0
            X_prev = rng.uniform(-1, 1, size=(8, 2))
            _, report = dmds_layout(delta, V, C, 0.5, 0.8, e, X_prev)
            trace = np.array(report.stress_trace)
            drops = trace[:-1] - trace[1:]
            assert np.all(drops >= -1e-12 * np.maximum(trace[:-1], 1.0))

    def test_relaxed_solve_keeps_node_zero_at_origin(self, rng, monkeypatch):
        # without a temporal anchor the first node is pinned: the first,
        # unrelaxed update puts it on the origin and relaxed ones keep it there
        delta, V = kk_problem(rng, 6)
        C = np.zeros((6, 2))
        C[:3, 0] = C[3:, 1] = 1.0
        X0 = rng.uniform(-1, 1, size=(8, 2)) + 5.0
        for beta, e in ((0.0, np.ones(6)), (1.0, np.zeros(6))):
            def solve():
                return dmds_layout(delta, V, C, 0.5, beta, e, np.zeros((8, 2)), X0=X0)

            layout, report = solve()
            assert np.array_equal(layout.X[0], [0.0, 0.0])
            with monkeypatch.context() as patch:
                patch.setattr(mds, "RELAXATION", 1.0)
                _, plain = solve()
            assert report.iterations < plain.iterations

    def test_system_matrix_positive_definite_with_presence(self, rng):
        delta, V = kk_problem(rng, 5)
        e = np.array([1.0, 0, 0, 0, 0])
        X_prev = rng.uniform(-1, 1, size=(5, 2))
        layout, report = dmds_layout(delta, V, np.zeros((5, 0)), 0.0, 0.5, e, X_prev)
        assert layout.X.shape == (5, 2)  # factorization succeeded


class TestStabilizedMds:
    def test_beta_zero_reaches_static_fixed_point(self, rng):
        delta, V = kk_problem(rng, 5)
        X0 = rng.uniform(-1, 1, size=(5, 2))
        layout, _ = stabilized_mds_online(delta, V, 0.0, np.zeros(5), X0,
                                          eps=1e-14, max_iter=20000)
        # at a fixed point one more majorization sweep does not move nodes
        refreshed, report = stabilized_mds_online(delta, V, 0.0, np.zeros(5),
                                                  layout.X, eps=1e-14, max_iter=1)
        assert np.allclose(refreshed.X, layout.X, atol=1e-6)

    def test_agrees_with_dmds_without_groups(self, rng):
        for _ in range(5):
            delta, V = kk_problem(rng, 5)
            e = np.ones(5)
            X_prev = rng.uniform(-1, 1, size=(5, 2))
            a, _ = stabilized_mds_online(delta, V, 1.0, e, X_prev,
                                         eps=1e-14, max_iter=50000)
            b, _ = dmds_layout(delta, V, np.zeros((5, 0)), 0.0, 1.0, e, X_prev,
                               eps=1e-14, max_iter=50000)
            ms_a = modified_stress(a.X, delta, V, np.zeros((5, 0)), 0.0, 1.0, e, X_prev)
            ms_b = modified_stress(b.X, delta, V, np.zeros((5, 0)), 0.0, 1.0, e, X_prev)
            assert ms_a == pytest.approx(ms_b, abs=1e-5)

    def test_huge_beta_freezes_layout(self, rng):
        delta, V = kk_problem(rng, 5)
        X_prev = rng.uniform(-1, 1, size=(5, 2))
        layout, _ = stabilized_mds_online(delta, V, 1e8, np.ones(5), X_prev)
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
            e = np.array([1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0])
            X_prev = rng.uniform(-1, 1, size=(9, 2))
            layout, report = dmds_layout(delta, V, C, 0.7, 1.3, e, X_prev)
            assert report.stress_trace[-1] == modified_stress(
                np.vstack([layout.X, layout.Y]), delta, V, C, 0.7, 1.3, e, X_prev)

    def test_smacof_static(self, rng):
        for s in (1, 2, 3):
            delta, V = kk_problem(rng, 6)
            layout, report = smacof_static(delta, V, rng.uniform(-1, 1, size=(6, s)))
            assert report.stress_trace[-1] == modified_stress(
                layout.X, delta, V, np.zeros((6, 0)), 0.0, 0.0, np.zeros(6),
                np.zeros((6, s)))

    def test_stabilized(self, rng):
        for _ in range(10):
            delta, V = kk_problem(rng, 6)
            e = rng.integers(0, 2, size=6).astype(float)
            X_prev = rng.uniform(-1, 1, size=(6, 2))
            layout, report = stabilized_mds_online(delta, V, 0.9, e, X_prev)
            assert report.stress_trace[-1] == modified_stress(
                layout.X, delta, V, np.zeros((6, 0)), 0.0, 0.9, e, X_prev)

    def test_reused_buffers_hold_no_state_between_iterates(self, rng):
        # two components, so pairs across them are unreachable (V = 0,
        # delta = inf), and nodes 0 and 1 coincide in the last iterate
        W = np.zeros((7, 7))
        W[:4, :4] = random_connected_adjacency(rng, 4)
        W[4:, 4:] = random_connected_adjacency(rng, 3)
        dm = shortest_path_distances(W)
        delta, V = dm.delta, kk_weights(dm)
        assert np.isinf(delta[0, 4]) and V[0, 4] == 0
        e = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0])
        X_prev = rng.uniform(-1, 1, size=(7, 2))
        system = _Majorization(V, delta, 0.8, e, X_prev)
        iterates = [rng.uniform(-1, 1, size=(7, 2)) for _ in range(4)]
        iterates[-1][1] = iterates[-1][0]
        for X in iterates:
            system.at(X).stress()
            system.S()
        fresh = _Majorization(V, delta, 0.8, e, X_prev).at(iterates[-1])
        assert np.isfinite(system.stress())
        assert system.stress() == fresh.stress()
        assert np.array_equal(system.S(), fresh.S())
        assert system.S()[0, 1] == 0.0


# solver name -> (solve(delta, V, X0, **options) from the start X0, the
# solver's name in its iteration-cap warning)
CAPPED_SOLVERS = {
    "dmds_layout": (lambda delta, V, X0, **kw: dmds_layout(
        delta, V, np.zeros((len(X0), 0)), 0.0, 0.5, np.ones(len(X0)), np.zeros_like(X0),
        X0=X0, **kw), "majorization"),
    "smacof_static": (smacof_static, "majorization"),
    "stabilized_mds_online": (lambda delta, V, X0, **kw: stabilized_mds_online(
        delta, V, 0.5, np.ones(len(X0)), np.zeros_like(X0), X0=X0, **kw), "stabilized MDS"),
}


class TestIterationCap:
    @pytest.mark.parametrize("name", sorted(CAPPED_SOLVERS))
    def test_cap_is_reported_and_logged(self, name, rng, caplog):
        solve, what = CAPPED_SOLVERS[name]
        delta, V = kk_problem(rng, 7)
        X0 = rng.uniform(-1, 1, size=(7, 2))
        with caplog.at_level(logging.WARNING, logger="dynlayout.mds"):
            _, report = solve(delta, V, X0, max_iter=1)
        first, second = report.stress_trace
        assert (first - second) / first >= DEFAULT_EPSILON  # not converged after one update
        assert report.hit_iteration_cap
        assert report.iterations == 1
        assert [rec.getMessage() for rec in caplog.records] == \
            [f"{what} hit the 1-iteration cap"]

    @pytest.mark.parametrize("name", sorted(CAPPED_SOLVERS))
    def test_converged_run_is_not_capped(self, name, rng, caplog):
        solve, _ = CAPPED_SOLVERS[name]
        delta, V = kk_problem(rng, 7)
        with caplog.at_level(logging.WARNING, logger="dynlayout.mds"):
            _, report = solve(delta, V, rng.uniform(-1, 1, size=(7, 2)))
        assert not report.hit_iteration_cap
        assert 1 <= report.iterations < DEFAULT_MAX_ITER
        assert len(report.stress_trace) == report.iterations + 1
        assert caplog.records == []
