import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

import dynlayout
from conftest import connectivity_verdict
from dynlayout import gll, graph, mds
from dynlayout.errors import DataError
from dynlayout.graph import (DynamicNetwork, GroupAssignment, NodeRegistry, Snapshot,
                             build_membership_matrix, validate_snapshot)


class TestPublicNames:
    def test_every_exported_name_resolves(self):
        missing = [name for name in dynlayout.__all__ if not hasattr(dynlayout, name)]
        assert missing == []

    def test_both_layout_families_share_one_laplacian(self):
        assert gll.laplacian is graph.laplacian
        assert mds.laplacian is graph.laplacian


class TestValidateSnapshot:
    def test_valid_matrix(self):
        assert validate_snapshot(np.array([[0.0, 1.0], [1.0, 0.0]])) == []

    def test_asymmetry_reported(self):
        violations = validate_snapshot(np.array([[0.0, 1.0], [2.0, 0.0]]))
        assert any("asymmetry at (1,2)" in v for v in violations)

    def test_nonzero_diagonal_reported(self):
        violations = validate_snapshot(np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert any("diagonal" in v for v in violations)

    def test_negative_weight_reported(self):
        violations = validate_snapshot(np.array([[0.0, -1.0], [-1.0, 0.0]]))
        assert any("negative" in v for v in violations)

    def test_not_square(self):
        assert validate_snapshot(np.zeros((2, 3)))


class TestRequireConnected:
    @given(st.integers(1, 12), st.floats(0.0, 0.6), st.booleans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_matches_connected_components(self, n, density, symmetric, seed):
        # sparse draws leave isolated nodes and several components; an
        # asymmetric draw keeps an edge present one way only
        rng = np.random.default_rng(seed)
        W = rng.uniform(0.5, 2.0, (n, n)) * (rng.random((n, n)) < density)
        np.fill_diagonal(W, 0.0)
        if symmetric:
            W = np.maximum(W, W.T)
        n_comp, _ = connected_components(scipy.sparse.csr_matrix(W), directed=False)
        expected = (None if n_comp == 1 else
                    f"layout needs a connected graph; found {n_comp} components")
        assert connectivity_verdict(W) == expected

    def test_single_node_is_connected(self):
        assert connectivity_verdict(np.zeros((1, 1))) is None

    def test_isolated_node_counted(self):
        W = np.zeros((4, 4))
        W[0, 1] = W[1, 0] = W[1, 2] = W[2, 1] = 1.0
        assert connectivity_verdict(W).endswith("found 2 components")


class TestMembershipMatrix:
    def test_basic(self):
        C = build_membership_matrix([1, 2, 1], 2)
        assert np.array_equal(C, [[1, 0], [0, 1], [1, 0]])

    def test_unknown_membership_row(self):
        C = build_membership_matrix([None, 1], 1)
        assert np.array_equal(C, [[0], [1]])

    def test_out_of_range_label(self):
        with pytest.raises(DataError):
            build_membership_matrix([3], 2)

    @given(st.lists(st.one_of(st.none(), st.integers(1, 4)), min_size=1, max_size=12))
    @settings(deadline=None)
    def test_round_trip(self, labels):
        C = build_membership_matrix(labels, 4)
        for i, lab in enumerate(labels):
            if lab is None:
                assert C[i].sum() == 0
            else:
                assert C[i].sum() == 1
                assert int(np.argmax(C[i])) + 1 == lab


def _network_of(active_sets, n_reg=10):
    registry = NodeRegistry(f"v{i}" for i in range(n_reg))
    return DynamicNetwork(registry, [Snapshot(t=t, W=np.zeros((len(a), len(a))),
                                              active=tuple(sorted(a)))
                                     for t, a in enumerate(active_sets)])


def _reference_shared_rows(active_t, active_prev):
    """Set-based reference: (row at t, row at t-1) of every node at both."""
    prev = set(active_prev)
    return [(row, sorted(active_prev).index(idx))
            for row, idx in enumerate(sorted(active_t)) if idx in prev]


class TestPresenceMatrix:
    """``DynamicNetwork.persistence``: the shared-row map of steps t-1 and t
    and the presence vector e, the diagonal of the paper's E."""

    def test_partial_overlap(self):
        shared = _network_of([{0}, {0, 1}]).persistence(1)
        assert (shared.rows.tolist(), shared.prev_rows.tolist()) == ([0], [0])
        assert np.array_equal(shared.e, [1.0, 0.0])

    def test_empty_previous(self):
        shared = _network_of([{3, 4}, {0, 1, 2}]).persistence(1)
        assert shared.rows.size == 0 and shared.prev_rows.size == 0
        assert np.array_equal(shared.e, np.zeros(3))

    def test_identical_sets(self):
        shared = _network_of([{0, 1}, {0, 1}]).persistence(1)
        assert (shared.rows.tolist(), shared.prev_rows.tolist()) == ([0, 1], [0, 1])
        assert np.array_equal(shared.e, np.ones(2))

    @given(st.lists(st.sets(st.integers(0, 9), min_size=1), min_size=1, max_size=5),
           st.sampled_from(["random", "identical", "churn"]))
    @settings(deadline=None)
    def test_matches_set_reference(self, active_sets, shape):
        if shape == "identical":
            active_sets = [active_sets[0]] * len(active_sets)
        elif shape == "churn":
            # nodes leave, new ones enter and earlier ones re-enter
            first = active_sets[0]
            active_sets = [first if t % 2 == 0 else set(range(10)) - first or first
                           for t in range(len(active_sets))]
        net = _network_of(active_sets)
        for t, snap in enumerate(net.snapshots):
            rows, prev_rows, e = net.persistence(t)
            active_t = np.asarray(snap.active)
            prev = net.snapshots[t - 1].active if t > 0 else ()
            expected = _reference_shared_rows(snap.active, prev)
            assert list(zip(rows.tolist(), prev_rows.tolist())) == expected
            assert np.all(e[rows] == 1.0)
            assert not np.delete(e, rows).any()
            if t > 0:
                assert np.array_equal(active_t[rows], np.asarray(prev)[prev_rows])
            else:
                assert rows.size == 0 and not e.any()

    def test_empty_current_rejected(self):
        registry = NodeRegistry(["a"])
        net = DynamicNetwork(registry, [Snapshot(t=0, W=np.zeros((1, 1)), active=(0,)),
                                        Snapshot(t=1, W=np.zeros((0, 0)), active=())])
        with pytest.raises(DataError):
            net.persistence(1)


class TestSnapshotAndNetwork:
    def test_snapshot_rejects_invalid(self):
        with pytest.raises(DataError):
            Snapshot(t=0, W=np.array([[0.0, 1.0], [2.0, 0.0]]), active=(0, 1))

    def test_snapshot_size_mismatch(self):
        with pytest.raises(DataError):
            Snapshot(t=0, W=np.zeros((2, 2)), active=(0, 1, 2))

    def test_snapshot_is_immutable(self):
        snap = Snapshot(t=0, W=np.zeros((2, 2)), active=(0, 1))
        with pytest.raises(ValueError):
            snap.W[0, 1] = 1.0

    def test_network_time_indices(self):
        registry = NodeRegistry(["a", "b"])
        good = [Snapshot(t=0, W=np.zeros((2, 2)), active=(0, 1)),
                Snapshot(t=1, W=np.zeros((2, 2)), active=(0, 1))]
        DynamicNetwork(registry, good)
        with pytest.raises(DataError):
            DynamicNetwork(registry, [good[1]])

    def test_network_presence(self):
        registry = NodeRegistry(["a", "b", "c"])
        snaps = [Snapshot(t=0, W=np.zeros((2, 2)), active=(0, 1)),
                 Snapshot(t=1, W=np.zeros((2, 2)), active=(1, 2))]
        net = DynamicNetwork(registry, snaps)
        assert np.array_equal(net.persistence(0).e, np.zeros(2))
        assert np.array_equal(net.persistence(1).e, [1.0, 0.0])

    def test_registry_is_sorted_and_bijective(self):
        registry = NodeRegistry(["b", "a", "a", "c"])
        assert registry.ids == ("a", "b", "c")
        assert registry.index_of("b") == 1
        assert registry.id_of(2) == "c"
        with pytest.raises(DataError):
            registry.index_of("zz")

    def test_group_assignment_matches_labels(self):
        groups = GroupAssignment(labels=(1, None, 2), k=2)
        assert np.array_equal(build_membership_matrix(groups.labels, groups.k),
                              [[1, 0], [0, 0], [0, 1]])
