import numpy as np
import pytest

from conftest import random_connected_adjacency
from dynlayout.distances import kk_weights, shortest_path_distances
from dynlayout.gll import laplacian
from dynlayout.metrics import (CostReport, StepCosts, centroid_cost, static_cost_gll,
                               static_cost_mds, temporal_cost)


class TestStaticCostMds:
    def test_exact_embedding_is_zero(self):
        delta = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=float)
        V = np.zeros((3, 3))
        mask = ~np.eye(3, dtype=bool)
        V[mask] = delta[mask] ** -2.0
        assert static_cost_mds(np.array([[0.0], [1.0], [2.0]]), delta, V) == 0.0

    def test_duplicated_network_same_normalized_cost(self, rng):
        W = random_connected_adjacency(rng, 5)
        dm = shortest_path_distances(W)
        delta, V = dm.delta, kk_weights(dm)
        X = rng.standard_normal((5, 2))
        single = static_cost_mds(X, delta, V)
        n2 = 10
        delta2 = np.full((n2, n2), np.inf)
        V2 = np.zeros((n2, n2))
        delta2[:5, :5] = delta2[5:, 5:] = delta
        np.fill_diagonal(delta2, 0.0)
        V2[:5, :5] = V2[5:, 5:] = V
        X2 = np.vstack([X, X + 100.0])
        assert static_cost_mds(X2, delta2, V2) == pytest.approx(single)

    def test_no_pairs_gives_zero(self):
        assert static_cost_mds(np.zeros((2, 1)), np.zeros((2, 2)), np.zeros((2, 2))) == 0.0


class TestStaticCostGll:
    def test_constant_layout_is_zero(self, rng):
        W = random_connected_adjacency(rng, 4)
        lap = laplacian(W)
        assert static_cost_gll(np.ones((4, 2)), lap) == pytest.approx(0.0)

    def test_spectral_solution_value(self, rng):
        from dynlayout.gll import spectral_layout
        W = random_connected_adjacency(rng, 6, weighted=True)
        lap = laplacian(W)
        layout = spectral_layout(lap, 2, normalized=False)
        vals = np.sort(np.linalg.eigvalsh(lap))
        expected = 6 * (vals[1] + vals[2]) / np.trace(lap)
        assert static_cost_gll(layout.X, lap) == pytest.approx(expected)


class TestCentroidCost:
    def test_coincident_members(self):
        X = np.array([[1.0, 1.0], [1.0, 1.0], [5.0, 5.0]])
        assert centroid_cost(X, [1, 1, 2]) == pytest.approx(0.0)

    def test_two_member_group(self):
        X = np.array([[0.0, 0.0], [2.0, 0.0]])
        assert centroid_cost(X, [1, 1]) == pytest.approx(1.0)

    def test_singleton_groups(self, rng):
        X = rng.standard_normal((4, 2))
        assert centroid_cost(X, [1, 2, 3, 4]) == pytest.approx(0.0)

    def test_unlabeled_nodes_ignored(self):
        X = np.array([[0.0, 0.0], [2.0, 0.0], [99.0, 0.0]])
        assert centroid_cost(X, [1, 1, None]) == pytest.approx(1.0)

    def test_no_labels_is_undefined(self, rng):
        assert centroid_cost(rng.standard_normal((3, 2)), [None] * 3) is None

    def test_invariant_to_group_renaming(self, rng):
        X = rng.standard_normal((8, 2))
        labels = [1, 1, 2, 2, 3, 3, 1, 2]
        renamed = [3, 3, 1, 1, 2, 2, 3, 1]
        assert centroid_cost(X, labels) == pytest.approx(centroid_cost(X, renamed))

    def test_invariant_to_translation(self, rng):
        X = rng.standard_normal((6, 2))
        labels = [1, 1, 1, 2, 2, 2]
        shifted = X + np.array([13.0, -4.0])
        assert centroid_cost(shifted, labels) == pytest.approx(centroid_cost(X, labels))


    def test_equals_per_group_loop_bit_for_bit(self, rng):
        # the member-by-member loop it replaced, kept as the reference: the
        # same members in the same order give the same bits
        def reference(X, labels):
            labeled = [i for i, lab in enumerate(labels) if lab is not None]
            if not labeled:
                return None
            total = 0.0
            for group in sorted({labels[i] for i in labeled}):
                members = [i for i in labeled if labels[i] == group]
                centroid = X[members].mean(axis=0)
                total += float(np.sum((X[members] - centroid) ** 2))
            return total / len(labeled)

        for _ in range(200):
            n, s, k = int(rng.integers(1, 40)), int(rng.integers(1, 3)), int(rng.integers(1, 6))
            X = rng.standard_normal((n, s)) * 10.0 ** rng.uniform(-3, 3)
            labels = tuple(None if rng.random() < 0.2 else int(rng.integers(1, k + 1))
                           for _ in range(n))
            assert centroid_cost(X, labels) == reference(X, labels)

class TestTemporalCost:
    def test_identical_layouts(self, rng):
        X = rng.standard_normal((5, 2))
        assert temporal_cost(X, X, np.ones(5)) == 0.0

    def test_single_mover(self):
        X_prev = np.zeros((2, 2))
        X = np.array([[3.0, 4.0], [100.0, 100.0]])
        e = np.array([1.0, 0.0])
        assert temporal_cost(X, X_prev, e) == pytest.approx(25.0)

    def test_no_persisting_nodes(self, rng):
        X = rng.standard_normal((4, 2))
        assert temporal_cost(X, np.zeros_like(X), np.zeros(4)) == 0.0

    def test_invariant_to_joint_translation(self, rng):
        X = rng.standard_normal((5, 2))
        X_prev = rng.standard_normal((5, 2))
        e = np.array([1.0, 1.0, 0.0, 1.0, 0.0])
        shift = np.array([7.0, -2.0])
        assert temporal_cost(X + shift, X_prev + shift, e) == \
            pytest.approx(temporal_cost(X, X_prev, e))


class TestCostReport:
    def test_means_skip_undefined_entries(self):
        report = CostReport(method="dmds")
        report.steps.append(StepCosts(t=0, static_cost=1.0, centroid_cost=None,
                                      temporal_cost=None, iterations=10))
        report.steps.append(StepCosts(t=1, static_cost=3.0, centroid_cost=2.0,
                                      temporal_cost=4.0, iterations=20))
        assert report.mean_static == pytest.approx(2.0)
        assert report.mean_centroid == pytest.approx(2.0)
        assert report.mean_temporal == pytest.approx(4.0)
        assert report.mean_iterations == pytest.approx(15.0)
