import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.sparse.csgraph import shortest_path

from conftest import floyd_warshall_reference, random_connected_adjacency
from dynlayout.distances import (kk_weights, shortest_path_distances,
                                 similarity_to_dissimilarity, top_m_graph)
from dynlayout.errors import DataError


class TestShortestPaths:
    def test_unit_path_graph(self):
        W = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        dm = shortest_path_distances(W)
        assert dm.delta[0, 2] == 2.0

    def test_single_weighted_edge(self):
        W = np.array([[0.0, 0.5], [0.5, 0.0]])
        assert shortest_path_distances(W).delta[0, 1] == 0.5

    def test_disconnected_pair_flagged(self):
        dm = shortest_path_distances(np.zeros((2, 2)))
        assert np.isinf(dm.delta[0, 1])

    def test_negative_weight_rejected(self):
        with pytest.raises(DataError):
            shortest_path_distances(np.array([[0.0, -1.0], [-1.0, 0.0]]))

    def test_matches_floyd_warshall_oracle(self, rng):
        for n in range(3, 9):
            for _ in range(5):
                W = random_connected_adjacency(rng, n, weighted=True)
                if rng.random() < 0.3:
                    W[0, 1] = W[1, 0] = 0.0  # occasionally drop an edge
                dm = shortest_path_distances(W)
                expected = floyd_warshall_reference(W)
                assert np.allclose(dm.delta, expected)

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_matches_csgraph_undirected_bit_for_bit(self, rng, symmetric):
        # weights on a coarse grid, half the time, make equal-length paths common
        for trial in range(150):
            n = int(rng.integers(1, 20))
            W = rng.uniform(0.25, 2.0, (n, n))
            if trial % 2:
                W = np.round(W * 4) / 4
            W *= rng.random((n, n)) < rng.uniform(0.1, 0.6)
            np.fill_diagonal(W, 0.0)
            if symmetric:
                W = np.triu(W, 1) + np.triu(W, 1).T
            expected = shortest_path(scipy.sparse.csr_matrix(W), method="D", directed=False)
            assert shortest_path_distances(W).delta.tobytes() == expected.tobytes()


class TestKkWeights:
    def test_inverse_square(self):
        W = np.array([[0, 2.0], [2.0, 0]])
        V = kk_weights(shortest_path_distances(W))
        assert V[0, 1] == pytest.approx(0.25)

    def test_unit_distance(self):
        V = kk_weights(shortest_path_distances(np.array([[0, 1.0], [1.0, 0]])))
        assert V[0, 1] == 1.0

    def test_unreachable_pair_weight_zero(self):
        V = kk_weights(shortest_path_distances(np.zeros((2, 2))))
        assert V[0, 1] == 0.0

    def test_adjacent_pairs_have_weight_one_on_unweighted_graph(self, rng):
        W = random_connected_adjacency(rng, 7)
        V = kk_weights(shortest_path_distances(W))
        off = ~np.eye(7, dtype=bool)
        assert np.all(V[off] > 0)
        assert np.all(V[off] <= 1.0)
        assert np.all(V[W > 0] == 1.0)
        assert np.all(V[(W == 0) & off] < 1.0)


class TestSimilarityConversion:
    def test_linear_mode_paper_value(self):
        W = np.array([[0, 4.0], [4.0, 0]])
        assert similarity_to_dissimilarity(W, "linear")[0, 1] == 1.0

    def test_inverse_mode_strongest_tie(self):
        W = np.array([[0, 4.0], [4.0, 0]])
        assert similarity_to_dissimilarity(W, "inverse")[0, 1] == 1.0

    def test_inverse_mode_weak_tie(self):
        W = np.array([[0, 4.0, 1.0], [4.0, 0, 0], [1.0, 0, 0]])
        assert similarity_to_dissimilarity(W, "inverse")[0, 2] == 4.0

    def test_zeros_stay_zero(self):
        W = np.array([[0, 2.0, 0], [2.0, 0, 0], [0, 0, 0]])
        out = similarity_to_dissimilarity(W, "inverse")
        assert out[0, 2] == 0.0

    def test_all_zero_rejected(self):
        with pytest.raises(DataError):
            similarity_to_dissimilarity(np.zeros((2, 2)))


def loop_top_m_graph(S, m, weighting):
    # the per-node sort that the vectorized top-m selection replaced
    n = S.shape[0]
    W = np.zeros((n, n))
    for i in range(n):
        candidates = [(-S[i, j], j) for j in range(n) if j != i and S[i, j] > 0]
        candidates.sort()
        for pos, (_, j) in enumerate(candidates[:m]):
            W[i, j] = float(m - pos) if weighting == "rank_descending" else 1.0
    return np.maximum(W, W.T)


@st.composite
def tie_heavy_scores(draw):
    n = draw(st.integers(2, 12))
    scores = draw(arrays(float, (n, n), elements=st.sampled_from([0.0, 0.0, 1.0, 2.0, 3.0])
                         | st.floats(0.0, 10.0)))
    return scores, draw(st.integers(1, n - 1))


class TestTopMGraph:
    @given(tie_heavy_scores(), st.sampled_from(["unit", "rank_descending"]))
    @settings(deadline=None, max_examples=300)
    def test_matches_loop_bit_for_bit(self, problem, weighting):
        scores, m = problem
        assert top_m_graph(scores, m, weighting).tobytes() == \
            loop_top_m_graph(scores, m, weighting).tobytes()

    def test_shared_favorite(self):
        scores = np.array([[0, 5.0, 1.0], [1.0, 0, 0.5], [2.0, 9.0, 0]])
        W = top_m_graph(scores, 1, "unit")
        assert W[0, 1] == 1.0 and W[2, 1] == 1.0
        assert W[0, 2] == 0.0

    def test_rank_descending_weights(self):
        n = 6
        scores = np.zeros((n, n))
        scores[0, 1:6] = [50, 40, 30, 20, 10]
        W = top_m_graph(scores, 4, "rank_descending")
        assert [W[0, j] for j in (1, 2, 3, 4)] == [4.0, 3.0, 2.0, 1.0]
        assert W[0, 5] == 0.0

    def test_max_symmetrization(self):
        scores = np.array([[0, 10.0, 5.0, 1.0], [2.0, 0, 5.0, 9.0],
                           [1.0, 1.0, 0, 1.0], [1.0, 1.0, 1.0, 0]])
        W = top_m_graph(scores, 2, "rank_descending")
        # a ranks b first (weight 2), b ranks a below its top 2 -> keep 2
        assert W[0, 1] == 2.0
        assert np.array_equal(W, W.T)

    def test_ties_break_by_ascending_index(self):
        scores = np.zeros((4, 4))
        scores[0, 1:] = 3.0  # three equally scored peers, only two slots
        W = top_m_graph(scores, 2, "rank_descending")
        assert W[0, 1] == 2.0 and W[0, 2] == 1.0 and W[0, 3] == 0.0

    def test_m_out_of_range(self):
        with pytest.raises(DataError):
            top_m_graph(np.zeros((3, 3)), 3, "unit")
