import numpy as np
import pytest

from dynlayout.errors import DataError
from dynlayout.graph import DynamicNetwork, NodeRegistry, Snapshot
from dynlayout.pipeline import (GROUPING_METHODS, METHODS, RegularizationConfig,
                                learn_group_sequence, parameter_sweep, run_sequence)
from dynlayout.sbm import SbmConfig, sbm_sequence


@pytest.fixture(scope="module")
def small_sbm():
    config = SbmConfig.two_rate(n=14, k=2, p_in=0.7, p_out=0.15, T=4,
                                change_step=2, change_fraction=0.25, seed=11)
    network, truth = sbm_sequence(config)
    return network, truth


class TestRunSequence:
    def test_single_step_has_no_temporal_row(self, small_sbm):
        network, _ = small_sbm
        single = network.truncated(1)
        for method in METHODS:
            config = RegularizationConfig(
                method=method, groups="known" if method in GROUPING_METHODS else "none",
                seed=2)
            _, report = run_sequence(single, config)
            assert len(report.steps) == 1
            assert report.steps[0].temporal_cost is None

    def test_dmds_without_penalties_matches_static(self, small_sbm):
        network, _ = small_sbm
        dmds_cfg = RegularizationConfig(method="dmds", alpha=0.0, beta=0.0,
                                        groups="none", seed=5)
        static_cfg = RegularizationConfig(method="mds-static", alpha=0.0, beta=0.0,
                                          groups="none", seed=5)
        _, rep_a = run_sequence(network, dmds_cfg)
        _, rep_b = run_sequence(network, static_cfg)
        for a, b in zip(rep_a.steps, rep_b.steps):
            assert a.static_cost == b.static_cost
            assert a.iterations == b.iterations

    def test_online_causality_truncation(self, small_sbm):
        network, _ = small_sbm
        for method in ("dmds", "mds-stabilized", "dgll", "bfp"):
            config = RegularizationConfig(
                method=method, groups="known" if method in GROUPING_METHODS else "none",
                seed=9)
            full_seq, full_rep = run_sequence(network, config)
            trunc_seq, trunc_rep = run_sequence(network.truncated(3), config)
            for t in range(3):
                assert np.array_equal(full_seq.steps[t].X, trunc_seq.steps[t].X)
                assert full_rep.steps[t].static_cost == trunc_rep.steps[t].static_cost

    def test_learned_groups_path(self, small_sbm):
        network, truth = small_sbm
        config = RegularizationConfig(method="dmds", groups="learn", k=2, seed=3)
        sequence, report = run_sequence(network, config)
        assert all(step.labels is not None for step in sequence.steps)
        # centroid cost is evaluated against the known groups
        assert all(s.centroid_cost is not None for s in report.steps)

    def test_eval_groups_used_for_ungrouped_methods(self, small_sbm):
        network, _ = small_sbm
        config = RegularizationConfig(method="mds-static", groups="none", seed=3)
        _, report = run_sequence(network, config)
        assert all(s.centroid_cost is not None for s in report.steps)

    def test_varying_node_sets(self):
        registry = NodeRegistry(["a", "b", "c", "d"])
        W3 = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float)
        snaps = [
            Snapshot(t=0, W=W3, active=(0, 1, 2)),
            Snapshot(t=1, W=W3, active=(1, 2, 3)),   # a leaves, d enters
            Snapshot(t=2, W=W3, active=(0, 1, 2)),   # a re-enters
        ]
        network = DynamicNetwork(registry, snaps)
        for method in METHODS:
            config = RegularizationConfig(method=method, groups="none", seed=1)
            sequence, report = run_sequence(network, config)
            assert [step.X.shape[0] for step in sequence.steps] == [3, 3, 3]

    def test_missing_known_groups_is_data_error(self):
        registry = NodeRegistry(["a", "b"])
        W = np.array([[0.0, 1.0], [1.0, 0.0]])
        network = DynamicNetwork(registry, [Snapshot(t=0, W=W, active=(0, 1))])
        config = RegularizationConfig(method="dmds", groups="known")
        with pytest.raises(DataError, match="t=0"):
            run_sequence(network, config)

    def test_unknown_method_rejected(self):
        with pytest.raises(DataError):
            RegularizationConfig(method="banana")

    def test_learn_without_k_rejected(self):
        with pytest.raises(DataError):
            RegularizationConfig(groups="learn")


class TestLearnGroupSequence:
    def test_labels_and_alphas_per_step(self, small_sbm):
        network, truth = small_sbm
        labels, alphas = learn_group_sequence(network, 2, seed=4)
        assert len(labels) == len(network.snapshots)
        assert alphas[0] == 0.0
        assert all(0.0 <= a <= 1.0 for a in alphas)


class TestParameterSweep:
    def test_single_cell_matches_single_run(self, small_sbm):
        network, _ = small_sbm
        base = RegularizationConfig(method="dmds", groups="known", seed=0)
        records = parameter_sweep(network, "dmds", [1.0], [1.0], [0], base_config=base)
        assert len(records) == 1
        _, report = run_sequence(network, base)
        assert records[0]["mean_static"] == pytest.approx(report.mean_static)
        assert records[0]["mean_temporal"] == pytest.approx(report.mean_temporal)

    def test_full_factorial_shape_and_determinism(self, small_sbm):
        network, _ = small_sbm
        base = RegularizationConfig(method="dmds", groups="known")
        records_a = parameter_sweep(network, "dmds", [0.5, 2.0], [0.5, 2.0], [0, 1],
                                    base_config=base)
        records_b = parameter_sweep(network, "dmds", [0.5, 2.0], [0.5, 2.0], [0, 1],
                                    base_config=base)
        assert len(records_a) == 4
        assert records_a == records_b
