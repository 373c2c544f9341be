import numpy as np
import pytest

from dynlayout.errors import DataError
from dynlayout.sbm import SbmConfig, sbm_sample, sbm_sequence


def planted_labels(config):
    """The group labels that ``sbm_sequence(config)`` attaches, per step."""
    return [snap.groups.labels for snap in sbm_sequence(config).snapshots]


class TestSbmSample:
    def test_all_ones_gives_complete_graph(self, rng):
        W = sbm_sample(np.ones((2, 2)), [1, 2, 1, 2], rng)
        expected = np.ones((4, 4)) - np.eye(4)
        assert np.array_equal(W, expected)

    def test_all_zeros_gives_empty_graph(self, rng):
        W = sbm_sample(np.zeros((2, 2)), [1, 2, 1, 2], rng)
        assert np.array_equal(W, np.zeros((4, 4)))

    def test_symmetric_zero_diagonal_unweighted(self, rng):
        W = sbm_sample(np.array([[0.5, 0.1], [0.1, 0.5]]),
                       [1] * 5 + [2] * 5, rng)
        assert np.array_equal(W, W.T)
        assert np.all(np.diagonal(W) == 0)
        assert set(np.unique(W)) <= {0.0, 1.0}

    def test_within_block_density_concentrates(self):
        # binomial concentration: mean density within 3 sigma of p_in
        n, draws, p_in = 30, 200, 0.6
        labels = np.array([1 + i % 2 for i in range(n)])
        within_pairs = sum(1 for i in range(n) for j in range(i + 1, n)
                           if labels[i] == labels[j])
        rng = np.random.default_rng(99)
        total = 0
        for _ in range(draws):
            W = sbm_sample(np.array([[p_in, 0.2], [0.2, p_in]]), labels, rng)
            total += sum(W[i, j] for i in range(n) for j in range(i + 1, n)
                         if labels[i] == labels[j])
        density = total / (draws * within_pairs)
        sigma = np.sqrt(p_in * (1 - p_in) / (draws * within_pairs))
        assert abs(density - p_in) <= 3 * sigma


class TestSbmSequence:
    def protocol_config(self, **kwargs):
        defaults = dict(n=30, k=4, p_in=0.6, p_out=0.2, T=20, change_step=10,
                        change_fraction=0.25, seed=7)
        defaults.update(kwargs)
        return SbmConfig.two_rate(**defaults)

    def test_no_change_keeps_labels_constant(self):
        config = self.protocol_config(change_step=None, change_fraction=0.0, T=5)
        labels = planted_labels(config)
        assert all(labels[t] == labels[0] for t in range(5))

    def test_paper_protocol_reassigns_eight_nodes(self):
        # round(30 * 1/4) = 8
        for seed in range(5):
            config = self.protocol_config(seed=seed)
            labels = planted_labels(config)
            before = np.array(labels[9])
            after = np.array(labels[10])
            assert int(np.sum(before != after)) == 8
            assert labels[10] == labels[19]
            assert labels[0] == labels[9]

    def test_reassigned_nodes_never_keep_their_label(self):
        for seed in range(10):
            config = self.protocol_config(seed=seed, change_fraction=1.0)
            labels = planted_labels(config)
            before = np.array(labels[9])
            after = np.array(labels[10])
            assert np.all(before != after)

    def test_fixed_seed_is_bit_identical(self):
        config = self.protocol_config()
        net_a = sbm_sequence(config)
        net_b = sbm_sequence(config)
        assert ([snap.groups for snap in net_a.snapshots]
                == [snap.groups for snap in net_b.snapshots])
        for snap_a, snap_b in zip(net_a.snapshots, net_b.snapshots):
            assert np.array_equal(snap_a.W, snap_b.W)

    def test_balanced_flag_forces_near_equal_sizes(self):
        config = self.protocol_config(balanced=True, T=1, change_step=None,
                                      change_fraction=0.0, n=30, k=4)
        labels = planted_labels(config)
        sizes = [labels[0].count(g) for g in (1, 2, 3, 4)]
        assert max(sizes) - min(sizes) <= 1

    def test_snapshots_carry_planted_groups(self):
        net = sbm_sequence(self.protocol_config(T=3, change_step=2))
        for snap in net.snapshots:
            assert snap.groups is not None
            assert snap.groups.k == 4

    def test_cross_step_edge_correlation_is_negligible(self):
        # draws are independent conditional on the labels, so center each
        # pair's indicator by its block probability before correlating
        xs, ys = [], []
        triu = np.triu_indices(30, 1)
        for seed in range(150):
            net = sbm_sequence(self.protocol_config(
                T=2, change_step=None, change_fraction=0.0, seed=seed))
            labels = np.array(net.snapshots[0].groups.labels)
            same = (labels[:, None] == labels[None, :]).astype(float)
            p_pair = np.where(same == 1.0, 0.6, 0.2)[triu]
            xs.append(net.snapshots[0].W[triu] - p_pair)
            ys.append(net.snapshots[1].W[triu] - p_pair)
        x = np.concatenate(xs)
        y = np.concatenate(ys)
        corr = np.corrcoef(x, y)[0, 1]
        assert abs(corr) < 0.01

    def test_change_step_out_of_range_rejected(self):
        with pytest.raises(DataError):
            self.protocol_config(change_step=20)

    def test_asymmetric_probability_matrix_rejected(self):
        with pytest.raises(DataError):
            SbmConfig(n=4, k=2, P=np.array([[0.5, 0.1], [0.3, 0.5]]), T=2)
