import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from conftest import load_data_script, random_connected_adjacency
from dynlayout import gll, mds, numerics
from dynlayout.errors import DataError, DisconnectedGraphError, NumericalError
from dynlayout.graph import (DynamicNetwork, GroupAssignment, NodeRegistry, Snapshot,
                            build_membership_matrix, has_temporal_anchor)
from dynlayout.layout import Layout, align_to_reference
from dynlayout import clustering as clus
from dynlayout.pipeline import (GROUPING_METHODS, METHODS, RegularizationConfig,
                                learn_group_sequence, parameter_sweep, run_sequence,
                                score_sequence)
from dynlayout.sbm import SbmConfig, sbm_sequence

make_golden = load_data_script("make_golden")

TRIANGLE = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float)
TWO_TRIANGLES = np.kron(np.eye(2), TRIANGLE)


@pytest.fixture(scope="module")
def small_sbm():
    config = SbmConfig.two_rate(n=14, k=2, p_in=0.7, p_out=0.15, T=4,
                                change_step=2, change_fraction=0.25, seed=11)
    return sbm_sequence(config)


class TestRunSequence:
    def test_single_step_has_no_temporal_row(self, small_sbm):
        network = small_sbm
        single = DynamicNetwork(network.registry, network.snapshots[:1])
        for method in METHODS:
            config = RegularizationConfig(
                method=method, groups="known" if method in GROUPING_METHODS else "none",
                seed=2)
            _, report = run_sequence(single, config)
            assert len(report.steps) == 1
            assert report.steps[0].temporal_cost is None

    def test_dmds_without_penalties_matches_static(self, small_sbm):
        network = small_sbm
        dmds_cfg = RegularizationConfig(method="dmds", alpha=0.0, beta=0.0,
                                        groups="none", seed=5)
        static_cfg = RegularizationConfig(method="mds-static", alpha=0.0, beta=0.0,
                                          groups="none", seed=5)
        _, rep_a = run_sequence(network, dmds_cfg)
        _, rep_b = run_sequence(network, static_cfg)
        for a, b in zip(rep_a.steps, rep_b.steps):
            assert a.static_cost == b.static_cost
            assert a.iterations == b.iterations

    @pytest.mark.parametrize("method, groups", [
        (method, groups) for method in METHODS for groups in ("known", "none", "learn")])
    def test_online_causality_truncation(self, method, groups, small_sbm):
        # a run on the first three steps is the full run's first three steps,
        # bit for bit: coordinates, representatives, labels and cost records
        network = small_sbm
        config = RegularizationConfig(method=method, groups=groups, seed=9,
                                      k=2 if groups == "learn" else None)
        full_seq, full_rep = run_sequence(network, config)
        trunc_seq, trunc_rep = run_sequence(
            DynamicNetwork(network.registry, network.snapshots[:3]), config)
        for full, trunc in zip(full_seq.steps, trunc_seq.steps):
            assert full.X.tobytes() == trunc.X.tobytes()
            assert (full.Y is None and trunc.Y is None) or full.Y.tobytes() == trunc.Y.tobytes()
            assert (full.ids, full.labels) == (trunc.ids, trunc.labels)
        assert len(trunc_seq.steps) == 3
        assert full_rep.steps[:3] == trunc_rep.steps

    def test_learned_groups_path(self, small_sbm):
        network = small_sbm
        config = RegularizationConfig(method="dmds", groups="learn", k=2, seed=3)
        sequence, report = run_sequence(network, config)
        assert all(step.labels is not None for step in sequence.steps)
        # centroid cost is evaluated against the known groups
        assert all(s.centroid_cost is not None for s in report.steps)

    def test_learned_groups_run_never_loads_scipy_optimize(self):
        # a fresh interpreter, as a loaded module would hide the import
        script = textwrap.dedent("""
            import sys
            import dynlayout.cli
            from dynlayout import clustering
            from dynlayout.pipeline import RegularizationConfig, run_sequence
            from dynlayout.sbm import SbmConfig, sbm_sequence

            calls = []
            permutation = clustering.label_permutation
            clustering.label_permutation = lambda *a: calls.append(a) or permutation(*a)
            network = sbm_sequence(SbmConfig.two_rate(
                n=14, k=2, p_in=0.7, p_out=0.15, T=4, change_step=2,
                change_fraction=0.25, seed=11))
            run_sequence(network, RegularizationConfig(method="dmds", groups="learn",
                                                       k=2, seed=3))
            print(len(calls), "scipy.optimize" in sys.modules)
        """)
        src = os.path.dirname(os.path.dirname(clus.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, check=True).stdout.split()
        assert int(out[0]) >= 3 and out[1] == "False"

    def test_eval_groups_used_for_ungrouped_methods(self, small_sbm):
        network = small_sbm
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

    @pytest.mark.parametrize("seed", range(10))
    def test_bfp_aligns_on_nodes_present_at_previous_step(self, seed):
        # nodes 4-7 leave at t = 1 and re-enter at t = 2 with their stale
        # positions from t = 0; the axes and signs at t = 2 must be chosen on
        # nodes 0-3 alone, the nodes present at t = 1
        rng = np.random.default_rng(seed)
        active = [range(8), range(4), range(8)]
        snaps = [Snapshot(t=t, W=random_connected_adjacency(rng, len(nodes)), active=nodes)
                 for t, nodes in enumerate(active)]
        network = DynamicNetwork(NodeRegistry(f"v{i}" for i in range(8)), snaps)
        sequence, _ = run_sequence(network, RegularizationConfig(method="bfp", seed=1))
        step = Layout(X=sequence.steps[2].X, Y=np.zeros((0, 2)))
        ref = np.zeros_like(step.X)
        ref[:4] = sequence.steps[1].X
        assert np.array_equal(align_to_reference(step, ref, np.arange(8) < 4).X, step.X)

    @pytest.mark.parametrize("method", ["spectral", "ccdr"])
    def test_eigen_layouts_align_to_the_previous_step(self, method):
        # every step after the first is the snapshot's own eigen layout,
        # aligned to the step before on the nodes present at both
        network = churned_block_model(3)
        for s in (1, 2):
            config = RegularizationConfig(method=method, groups="known", dims=s)
            sequence, _ = run_sequence(network, config)
            for t in range(1, len(network.snapshots)):
                snap, step, shared = network.snapshots[t], sequence.steps[t], \
                    network.persistence(t)
                C = build_membership_matrix(snap.groups.labels, snap.groups.k)
                kept = np.flatnonzero(C.sum(axis=0))
                own = gll.spectral_layout(gll.laplacian(snap.W), s) if method == "spectral" \
                    else gll.ccdr_layout(snap.W, C[:, kept], config.alpha, s)
                X_prev = np.zeros_like(step.X)
                X_prev[shared.rows] = sequence.steps[t - 1].X[shared.prev_rows]
                expected = align_to_reference(own, X_prev, shared.e > 0)
                assert np.array_equal(step.X, expected.X)
                if method == "ccdr":
                    assert np.array_equal(step.Y[kept], expected.Y)

    @pytest.mark.parametrize("method", ["dmds", "mds-static"])
    def test_disconnected_snapshot_names_component_count(self, method):
        registry = NodeRegistry("abcdef")
        network = DynamicNetwork(registry, [Snapshot(t=0, W=TWO_TRIANGLES, active=range(6))])
        with pytest.raises(DisconnectedGraphError, match="^step t=0: .*2 components"):
            run_sequence(network, RegularizationConfig(method=method))

    def test_new_component_without_anchor_names_step(self):
        # one triangle persists and anchors its component; the new one is free
        registry = NodeRegistry("abcdef")
        network = DynamicNetwork(registry, [
            Snapshot(t=0, W=TRIANGLE, active=(0, 1, 2)),
            Snapshot(t=1, W=TWO_TRIANGLES, active=range(6)),
        ])
        with pytest.raises(DisconnectedGraphError, match="^step t=1: .*2 components"):
            run_sequence(network, RegularizationConfig(method="dmds"))

    def test_dgll_start_without_scatter(self):
        # d enters on its only neighbor b, and a has no edge: the start has
        # no weighted scatter, and in 2-D the constraint cannot be met
        registry = NodeRegistry("abcd")
        W1 = np.zeros((3, 3))
        W1[1, 2] = W1[2, 1] = 1.0
        network = DynamicNetwork(registry, [
            Snapshot(t=0, W=TRIANGLE, active=(0, 1, 2)),
            Snapshot(t=1, W=W1, active=(0, 1, 3)),
        ])
        sequence, _ = run_sequence(network, RegularizationConfig(method="dgll", dims=1))
        X = sequence.steps[1].X
        assert 0.5 * (X[1, 0] - X[2, 0]) ** 2 == pytest.approx(2.0)
        with pytest.raises(DataError, match="^step t=1: need more than 2 points"):
            run_sequence(network, RegularizationConfig(method="dgll", dims=2))

    def test_dgll_two_edgeless_nodes_after_first_step(self, monkeypatch):
        # six nodes in one group; after t = 0 only v0 and v1 remain, with
        # no edge between them, so only the grouping and temporal penalties
        # place them
        W0 = np.zeros((6, 6))
        W0[4, 5] = W0[5, 4] = 1.0
        pair = GroupAssignment((1, 1), 1)
        network = DynamicNetwork(NodeRegistry(f"v{i}" for i in range(6)), [
            Snapshot(t=0, W=W0, active=range(6), groups=GroupAssignment((1,) * 6, 1)),
            Snapshot(t=1, W=np.zeros((2, 2)), active=(0, 1), groups=pair),
            Snapshot(t=2, W=np.zeros((2, 2)), active=(0, 1), groups=pair),
        ])
        solutions = []
        solver = gll.dgll_layout

        def record(*args, **kwargs):
            solutions.append(solver(*args, **kwargs))
            return solutions[-1]

        monkeypatch.setattr(gll, "dgll_layout", record)
        sequence, _ = run_sequence(network, RegularizationConfig(
            method="dgll", groups="known", dims=1, seed=1))
        assert [step.X.shape for step in sequence.steps] == [(6, 1), (2, 1), (2, 1)]
        assert all(sol.kkt_residual <= 1e-8 and sol.constraint_residual <= 1e-8
                   for sol in solutions)

    @pytest.mark.parametrize("s", [1, 2])
    def test_step_error_keeps_best_iterate(self, monkeypatch, s):
        # one penalty weight and no polish leave the t = 1 solve unconverged
        monkeypatch.setattr(numerics, "_PENALTY_WEIGHTS", (1.0,))
        monkeypatch.setattr(numerics, "_POLISH_ROUNDS", 0)
        network = sbm_sequence(SbmConfig.two_rate(n=12, k=2, p_in=0.8, p_out=0.1, T=3,
                                                  change_step=1, change_fraction=0.25, seed=0))
        with pytest.raises(NumericalError) as info:
            run_sequence(network, RegularizationConfig(method="dgll", groups="known", dims=s))
        assert type(info.value) is NumericalError
        assert str(info.value).startswith("step t=1: constrained layout solver did not converge")
        assert info.value.best_iterate.shape == (12 + 2, s)

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

    @pytest.mark.parametrize("method", ["spectral", "dmds"])
    @pytest.mark.parametrize("mode", ["bogus", "", "Linear"])
    def test_unknown_similarity_mode_rejected(self, method, mode):
        # before any step runs, and whether or not the method converts weights
        with pytest.raises(DataError, match="similarity_mode"):
            RegularizationConfig(method=method, similarity_mode=mode)

    @pytest.mark.parametrize("field, value", [
        ("alpha", -1.0), ("alpha", float("inf")), ("alpha", float("nan")),
        ("beta", -1.0), ("beta", float("-inf")), ("beta", float("nan")),
        ("epsilon", 0.0), ("epsilon", -1.0), ("epsilon", float("inf")),
        ("epsilon", float("nan"))])
    def test_out_of_range_weight_rejected(self, field, value, small_sbm):
        with pytest.raises(DataError, match=field):
            RegularizationConfig(method="dgll", **{field: value})
        if field != "epsilon":
            # parameter_sweep builds its cells with dataclasses.replace
            with pytest.raises(DataError, match=field):
                parameter_sweep(small_sbm, "dmds", [value if field == "alpha" else 1.0],
                                [value if field == "beta" else 1.0], [0])


@pytest.fixture(scope="module")
def churned_protocol():
    """A protocol network whose nodes 0-2 leave at every odd step and come
    back at the next: the two scoring paths' previous positions differ in
    the rows of those nodes."""
    return make_golden._drop_nodes(make_golden.protocol_network(1),
                                   lambda t: {0, 1, 2} if t % 2 else set())


class TestScoreSequence:
    @pytest.mark.parametrize("dims", [1, 2])
    @pytest.mark.parametrize("groups", ["none", "known", "learn"])
    @pytest.mark.parametrize("method", METHODS)
    def test_reproduces_the_run_costs_bit_for_bit(self, churned_protocol, method, groups,
                                                  dims):
        # known groups are scored against the snapshot's; without them, the
        # learned labels stored in the layout, or no centroid cost at all
        network = churned_protocol if groups == "known" else \
            churned_protocol.with_groups([None] * len(churned_protocol))
        config = RegularizationConfig(method=method, groups=groups, dims=dims, seed=1,
                                      k=4 if groups == "learn" else None)
        sequence, report = run_sequence(network, config)
        scored = score_sequence(network, sequence)
        costs = [[(s.static_cost, s.centroid_cost, s.temporal_cost) for s in r.steps]
                 for r in (report, scored)]
        assert costs[0] == costs[1]
        assert (costs[0][1][1] is None) == (groups == "none")

    def test_unknown_method_is_data_error(self, small_sbm):
        network = small_sbm
        sequence, _ = run_sequence(network, RegularizationConfig(method="dmds", seed=1))
        assert len(score_sequence(network, sequence).steps) == len(network.snapshots)
        sequence.metadata["method"] = "banana"
        with pytest.raises(DataError, match="unknown method 'banana'"):
            score_sequence(network, sequence)


class TestBlasThreads:
    """A run holds every loaded OpenBLAS at one thread and gives the caller
    its own thread counts back."""

    def test_one_thread_inside_caller_counts_after(self, small_sbm, blas_threads,
                                                   monkeypatch):
        caller = blas_threads.caller_counts()
        blas_threads.set(caller)
        inside = []
        solver = mds.dmds_layout

        def record(*args, **kwargs):
            inside.append(blas_threads.counts())
            return solver(*args, **kwargs)

        monkeypatch.setattr(mds, "dmds_layout", record)
        network = small_sbm
        run_sequence(network, RegularizationConfig(method="dmds", groups="known", seed=3))
        assert len(inside) == len(network.snapshots)
        assert all(counts == [1] * len(caller) for counts in inside)
        assert blas_threads.counts() == caller

    def test_caller_counts_back_after_a_failed_run(self, blas_threads):
        caller = blas_threads.caller_counts()
        blas_threads.set(caller)
        network = DynamicNetwork(NodeRegistry("abcdef"),
                                 [Snapshot(t=0, W=TWO_TRIANGLES, active=range(6))])
        with pytest.raises(DataError, match="^step t=0: "):
            run_sequence(network, RegularizationConfig(method="spectral"))
        assert blas_threads.counts() == caller

    def test_no_library_found_leaves_output_unchanged(self, small_sbm, blas_threads,
                                                      monkeypatch):
        network = small_sbm
        for method in ("dmds", "dgll", "bfp"):
            config = RegularizationConfig(method=method, groups="known", seed=4)
            expected = run_sequence(network, config)
            with monkeypatch.context() as patch:
                patch.setattr(numerics, "_openblas_thread_controls", lambda: ())
                caller = blas_threads.counts()
                got = run_sequence(network, config)
                assert blas_threads.counts() == caller
            assert got[0] == expected[0]
            assert got[1].steps == expected[1].steps

    def test_output_does_not_depend_on_caller_threads(self, blas_threads):
        # at a few hundred nodes a two-thread BLAS moves the last bits of
        # the majorization; a run must give the same bits either way
        blas_threads.set([2] * len(blas_threads.counts()))
        if blas_threads.counts() != [2] * len(blas_threads.counts()):
            pytest.skip("this BLAS cannot run two threads")
        network = sbm_sequence(SbmConfig.two_rate(
            n=200, k=4, p_in=0.15, p_out=0.03, T=2, change_step=1, change_fraction=0.25,
            seed=3))
        config = RegularizationConfig(method="dmds", groups="known", seed=1)
        runs = []
        for count in (1, 2):
            blas_threads.set([count] * len(blas_threads.counts()))
            runs.append(run_sequence(network, config))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1].steps == runs[1][1].steps


class TestLearnGroupSequence:
    def test_labels_and_alphas_per_step(self, small_sbm):
        network = small_sbm
        labels, alphas = learn_group_sequence(network, 2, seed=4)
        assert len(labels) == len(network.snapshots)
        assert alphas[0] == 0.0
        assert all(0.0 <= a <= 1.0 for a in alphas)

    @pytest.mark.parametrize("method", ["dmds", "spectral"])
    def test_run_sequence_lays_out_the_same_labels(self, method, small_sbm):
        network = small_sbm
        labels, _ = learn_group_sequence(network, 2, seed=4)
        sequence, _ = run_sequence(network, RegularizationConfig(method=method, groups="learn",
                                                                 k=2, seed=4))
        assert [step.labels for step in sequence.steps] == labels


class TestParameterSweep:
    def test_single_cell_matches_single_run(self, small_sbm):
        network = small_sbm
        base = RegularizationConfig(method="dmds", groups="known", seed=0)
        records = parameter_sweep(network, "dmds", [1.0], [1.0], [0], base_config=base)
        assert len(records) == 1
        _, report = run_sequence(network, base)
        assert records[0]["mean_static"] == pytest.approx(report.mean_static)
        assert records[0]["mean_temporal"] == pytest.approx(report.mean_temporal)

    def test_full_factorial_shape_and_determinism(self, small_sbm):
        network = small_sbm
        base = RegularizationConfig(method="dmds", groups="known")
        records_a = parameter_sweep(network, "dmds", [0.5, 2.0], [0.5, 2.0], [0, 1],
                                    base_config=base)
        records_b = parameter_sweep(network, "dmds", [0.5, 2.0], [0.5, 2.0], [0, 1],
                                    base_config=base)
        assert len(records_a) == 4
        assert records_a == records_b

    def test_learned_groups_clustered_once_per_seed(self, small_sbm, monkeypatch):
        network = small_sbm
        base = RegularizationConfig(method="mds-static", groups="learn", k=2)
        grid = ([0.5, 2.0], [0.5, 2.0])
        per_cell = [record for alpha in grid[0] for beta in grid[1]
                    for record in parameter_sweep(network, "mds-static", [alpha], [beta], [3],
                                                  base_config=base)]
        calls = []
        step = clus.affect_cluster_step

        def count(*args):
            calls.append(args)
            return step(*args)

        monkeypatch.setattr(clus, "affect_cluster_step", count)
        records = parameter_sweep(network, "mds-static", *grid, [3], base_config=base)
        assert len(calls) == len(network.snapshots) == 4
        assert records == per_cell

    def test_clustering_error_in_sweep_names_step(self, small_sbm, monkeypatch):
        network = small_sbm
        step = clus.affect_cluster_step

        def fail_at_t2(psi_prev, W, prev_labels, k, seed):
            if fail_at_t2.calls == 2:
                raise DataError("clustering failed")
            fail_at_t2.calls += 1
            return step(psi_prev, W, prev_labels, k, seed)

        fail_at_t2.calls = 0
        monkeypatch.setattr(clus, "affect_cluster_step", fail_at_t2)
        base = RegularizationConfig(method="mds-static", groups="learn", k=2)
        with pytest.raises(DataError, match="^step t=2: clustering failed"):
            parameter_sweep(network, "mds-static", [0.5, 2.0], [0.5, 2.0], [3],
                            base_config=base)


def late_group_network():
    """12 nodes. At t = 0 groups 1 and 2 hold n00-n07 on a ring; at t = 1
    group 3 arrives with n08-n11, each tied to two nodes placed at t = 0."""
    registry = NodeRegistry(f"n{i:02d}" for i in range(12))
    W0 = np.zeros((8, 8))
    for i in range(8):
        W0[i, (i + 1) % 8] = W0[(i + 1) % 8, i] = 1.0
    W1 = np.zeros((12, 12))
    W1[:8, :8] = W0
    for j in range(4):
        for placed in (j, j + 4):
            W1[8 + j, placed] = W1[placed, 8 + j] = 1.0
        W1[8 + j, 8 + (j + 1) % 4] = W1[8 + (j + 1) % 4, 8 + j] = 1.0
    labels0 = (1, 1, 1, 1, 2, 2, 2, 2)
    return DynamicNetwork(registry, [
        Snapshot(t=0, W=W0, active=range(8), groups=GroupAssignment(labels0, 3)),
        Snapshot(t=1, W=W1, active=range(12),
                 groups=GroupAssignment(labels0 + (3, 3, 3, 3), 3)),
    ])


class TestLateGroupStart:
    @pytest.mark.parametrize("method, module, arg", [("dmds", mds, 6), ("dgll", gll, 5)],
                             ids=["dmds", "dgll"])
    def test_new_group_starts_from_placed_nodes(self, method, module, arg, monkeypatch):
        starts = []
        solver = getattr(module, f"{method}_layout")

        def capture(*args, **kwargs):
            starts.append(np.array(args[arg]))
            return solver(*args, **kwargs)

        monkeypatch.setattr(module, f"{method}_layout", capture)
        sequence, _ = run_sequence(late_group_network(),
                                   RegularizationConfig(method=method, groups="known"))
        X0 = sequence.steps[0].X
        start = starts[1]  # rows: 12 nodes, then representatives of groups 1-3
        for j in range(4):
            assert np.allclose(start[8 + j], X0[[j, j + 4]].mean(axis=0), rtol=1e-12)
        assert np.allclose(start[14], start[8:12].mean(axis=0), rtol=1e-12)
        assert np.all(np.any(start[8:12] != 0, axis=1)) and np.any(start[14] != 0)


# --- churn properties -------------------------------------------------------

@st.composite
def churned_networks(draw):
    """Small sequences with node churn: random or all-new active sets,
    snapshots that may be disconnected (a random edge set, optionally cut
    in two), random known labels in which groups empty and, optionally, the
    last group is absent at t = 0."""
    n_reg = draw(st.integers(2, 12))
    T = draw(st.integers(1, 4))
    k = draw(st.integers(1, 3))
    late = k > 1 and draw(st.booleans())
    registry = NodeRegistry(f"v{i:02d}" for i in range(n_reg))
    snaps, prev = [], ()
    for t in range(T):
        fresh = [i for i in range(n_reg) if i not in prev]
        if t > 0 and len(fresh) >= 2 and draw(st.booleans()):
            active = fresh
        else:
            active = sorted(draw(st.sets(st.integers(0, n_reg - 1), min_size=2)))
        m = len(active)
        upper = draw(st.lists(st.booleans(), min_size=m * (m - 1) // 2,
                              max_size=m * (m - 1) // 2))
        W = np.zeros((m, m))
        W[np.triu_indices(m, 1)] = upper
        if draw(st.booleans()):
            W[:m // 2, m // 2:] = 0.0
        W = W + W.T
        top = k - 1 if late and t == 0 else k
        labels = tuple(draw(st.lists(st.integers(1, top), min_size=m, max_size=m)))
        snaps.append(Snapshot(t=t, W=W, active=active, groups=GroupAssignment(labels, k)))
        prev = active
    return DynamicNetwork(registry, snaps)


def _first_step(network, failing):
    return next((snap.t for snap in network.snapshots if failing(snap)), None)


def _disconnected(snap):
    return connected_components(snap.W, directed=False)[0] > 1


# methods whose README row is unconditional: the first step that fails the
# rule is the step named by the DataError, and no other step fails
ALWAYS_FAILS_ON = {
    "spectral": lambda snap, s: _disconnected(snap) or snap.n <= s,
    "mds-static": lambda snap, s: _disconnected(snap),
    "mds-stabilized": lambda snap, s: False,
}
GROUP_MODES = [(method, groups) for method in METHODS for groups in ("none", "known", "learn")]


class TestChurnProperties:
    """Outcomes on churned sequences match the README's table: finite
    coordinates of shape (n_t, s) for every step, or a DataError (for
    `dgll` also a NumericalError) that names the step."""

    @pytest.mark.parametrize("method, groups", GROUP_MODES)
    @given(network=churned_networks(), s=st.sampled_from([1, 3]))
    @settings(deadline=None, max_examples=50,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    def test_outcome_matches_table(self, method, groups, network, s):
        config = RegularizationConfig(method=method, groups=groups, dims=s, seed=1,
                                      k=2 if groups == "learn" else None)
        if method in ALWAYS_FAILS_ON:
            fails_at = _first_step(network, lambda snap: ALWAYS_FAILS_ON[method](snap, s))
        elif method == "dgll" and s > 2:
            fails_at = 0
        elif _first_step(network, lambda snap: _disconnected(snap) or snap.n <= s) is None:
            fails_at = None
        else:
            fails_at = "any"
        try:
            sequence, _ = run_sequence(network, config)
        except (DataError, NumericalError) as exc:
            assert str(exc).startswith("step t=")
            if isinstance(exc, NumericalError):
                assert method == "dgll"  # its constrained solve may not converge
                return
            assert fails_at is not None
            if fails_at != "any":
                assert str(exc).startswith(f"step t={fails_at}:")
            return
        assert fails_at in (None, "any")
        for snap, step in zip(network.snapshots, sequence.steps):
            assert step.X.shape == (snap.n, s)
            assert np.all(np.isfinite(step.X))


def churned_block_model(seed: int, late_nodes: bool = False) -> DynamicNetwork:
    """A protocol-like block-model sequence with churn: 30 nodes in four
    groups over six steps, nodes 0-2 absent at odd steps, group 4 absent at
    t = 0 and group 3 emptied from t = 4 on. Group 4's members are present
    but unlabeled at t = 0, or with ``late_nodes`` absent until t = 1, so
    that they enter the layout as new nodes."""
    network = sbm_sequence(SbmConfig.two_rate(
        n=30, k=4, p_in=0.6, p_out=0.2, T=6, change_step=3, change_fraction=0.25, seed=seed))
    snaps = []
    for snap in network.snapshots:
        late = [snap.t == 0 and lab == 4 for lab in snap.groups.labels]
        keep = [row for row, (idx, lab) in enumerate(zip(snap.active, snap.groups.labels))
                if not (snap.t % 2 and idx < 3) and not (snap.t >= 4 and lab == 3)
                and not (late_nodes and late[row])]
        labels = tuple(None if late[row] else snap.groups.labels[row] for row in keep)
        snaps.append(Snapshot(t=snap.t, W=snap.W[np.ix_(keep, keep)],
                              active=[snap.active[row] for row in keep],
                              groups=GroupAssignment(labels, 4)))
    return DynamicNetwork(network.registry, snaps)


def renamed_groups(network: DynamicNetwork, perm) -> DynamicNetwork:
    """The network with known group j renamed perm[j - 1]."""
    return network.with_groups(
        GroupAssignment(tuple(None if lab is None else perm[lab - 1]
                              for lab in snap.groups.labels), snap.groups.k)
        for snap in network.snapshots)


class TestGroupRenaming:
    """Renaming the known groups is no change to the model: the nodes stay
    put and each representative moves to its group's new id, within 1e-9
    of the layout's scale."""

    def assert_renaming_permutes_representatives(self, network, perm, config):
        outcomes = []
        for net in (network, renamed_groups(network, perm)):
            try:
                outcomes.append(run_sequence(net, config)[0])
            except (DataError, NumericalError) as exc:
                outcomes.append(f"{type(exc).__name__}: {exc}")
        plain, renamed = outcomes
        if isinstance(plain, str):
            assert renamed == plain
            return
        scale = max(max(np.abs(step.X).max() for step in plain.steps), 1.0)
        order = np.asarray(perm) - 1
        for a, b in zip(plain.steps, renamed.steps, strict=True):
            assert np.abs(a.X - b.X).max() <= 1e-9 * scale
            assert (a.Y is None) == (b.Y is None)
            if a.Y is not None:
                assert np.abs(a.Y - b.Y[order]).max() <= 1e-9 * scale
            assert b.labels == tuple(None if lab is None else perm[lab - 1]
                                     for lab in a.labels)

    @pytest.mark.parametrize("s", [1, 2])
    @pytest.mark.parametrize("method", ["dmds", "dgll", "ccdr"])
    @given(seed=st.integers(0, 2**31 - 1), perm=st.permutations([1, 2, 3, 4]))
    @settings(deadline=None, max_examples=10, derandomize=True, database=None)
    def test_renaming_groups_permutes_representatives(self, method, s, seed, perm):
        # fixed draws: the two cases below break the relation on some draws
        config = RegularizationConfig(method=method, groups="known", dims=s, seed=1)
        self.assert_renaming_permutes_representatives(churned_block_model(seed), perm, config)

    @pytest.mark.xfail(strict=True, reason="new nodes can start at one point, and "
                       "majorization then splits them along rounding noise")
    def test_renaming_moves_coincident_new_nodes(self):
        # at t = 1 two pairs of group 4's members enter with the same placed
        # neighbors, so each pair starts at one point; renaming the groups
        # reorders the system, and the layout moves by 0.02 at t = 1 and by
        # up to a tenth of its scale later (from starts 1e-3 apart the two
        # t = 1 solves agree within 1e-14)
        config = RegularizationConfig(method="dmds", groups="known", dims=2, seed=1)
        self.assert_renaming_permutes_representatives(
            churned_block_model(132, late_nodes=True), [1, 2, 4, 3], config)

    @pytest.mark.xfail(strict=True, reason="the DGLL solve is local, and the row order "
                       "of the system picks the minimum it reaches")
    def test_renaming_moves_dgll_to_another_minimum(self):
        # at t = 4 the two solves reach different KKT points from equivalent
        # starts, with objectives 62.70 (as named) and 62.92 (renamed)
        config = RegularizationConfig(method="dgll", groups="known", dims=1, seed=1)
        self.assert_renaming_permutes_representatives(
            churned_block_model(241877214), [4, 1, 2, 3], config)


# per method: its solver, and the positions of the solver's arguments that
# are indexed by node on both axes, by node on rows, and by node and then
# representative on rows
NODE_ORDER_SOLVERS = {
    "dmds": (mds, "dmds_layout", (0, 1), (2, 5), (6,)),
    "mds-stabilized": (mds, "stabilized_mds_online", (0, 1), (3, 4), ()),
    "dgll": (gll, "dgll_layout", (0,), (1, 4), (5,)),
}


def captured_solves(method: str, s: int) -> list:
    """(args, kwargs) of the solves that ``run_sequence`` makes on four
    block models of 30 nodes in four groups over 12 steps, with known
    groups where the method takes them; for ``dmds`` and ``dgll`` only the
    solves with a temporal anchor."""
    module, name = NODE_ORDER_SOLVERS[method][:2]
    solver, calls = getattr(module, name), []

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return solver(*args, **kwargs)

    groups = "none" if method == "mds-stabilized" else "known"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, name, record)
        for seed in range(4):
            network = sbm_sequence(SbmConfig.two_rate(
                n=30, k=4, p_in=0.6, p_out=0.2, T=12, change_step=6, change_fraction=0.25,
                seed=seed))
            run_sequence(network, RegularizationConfig(method=method, groups=groups, dims=s,
                                                       seed=seed))
    if method == "mds-stabilized":
        return calls
    beta_at, e_at = (4, 5) if method == "dmds" else (3, 4)
    return [(args, kwargs) for args, kwargs in calls
            if has_temporal_anchor(args[beta_at], np.asarray(args[e_at]))]


class TestNodeOrder:
    """Permuting a step's nodes is no change to the model: one solve's
    output rows are permuted the same way, and the representatives stay,
    within 1e-9 of the layout's scale."""

    @pytest.mark.parametrize("s", [1, 2])
    @pytest.mark.parametrize("method", sorted(NODE_ORDER_SOLVERS))
    def test_permuting_nodes_permutes_the_solve(self, method, s):
        module, name, both_axes, rows, aug_rows = NODE_ORDER_SOLVERS[method]
        solver = getattr(module, name)
        solves = captured_solves(method, s)
        assert len(solves) >= 4 * 11
        for index, (args, kwargs) in enumerate(solves):
            if method == "dgll":
                kwargs = {**kwargs, "rng": 0}
            n = np.shape(args[both_axes[0]])[0]
            perm = np.random.default_rng(index).permutation(n)
            permuted = list(args)
            for i in both_axes:
                permuted[i] = np.asarray(args[i])[np.ix_(perm, perm)]
            for i in rows:
                permuted[i] = np.asarray(args[i])[perm]
            for i in aug_rows:
                permuted[i] = np.asarray(args[i])[np.r_[perm, n:len(args[i])]]
            plain, moved = (solver(*a, **kwargs) for a in (args, permuted))
            plain, moved = ((out.layout if method == "dgll" else out[0]) for out in (plain, moved))
            scale = max(1.0, np.abs(plain.X).max(), np.abs(plain.Y).max(initial=0.0))
            assert np.abs(moved.X - plain.X[perm]).max() <= 1e-9 * scale
            assert np.abs(moved.Y - plain.Y).max(initial=0.0) <= 1e-9 * scale
