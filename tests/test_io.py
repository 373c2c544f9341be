import logging
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynlayout import io as dio
from dynlayout.distances import top_m_graph
from dynlayout.errors import DataError
from dynlayout.graph import DynamicNetwork, NodeRegistry, Snapshot
from dynlayout.pipeline import RegularizationConfig, run_sequence
from dynlayout.sbm import SbmConfig, sbm_sequence


@pytest.fixture(scope="module")
def sbm_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("sbm")
    network = sbm_sequence(SbmConfig.two_rate(n=10, k=2, p_in=0.8, p_out=0.2,
                                              T=3, seed=5))
    snap_path = base / "net.snapshots.tsv"
    groups_path = base / "net.groups.tsv"
    dio.write_snapshots(network, snap_path)
    dio.write_groups(groups_path, network)
    return network, snap_path, groups_path


class TestSnapshotTsv:
    def test_two_line_file(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("# comment\n0\ta\tb\t1.0\n", encoding="utf-8")
        network = dio.parse_snapshots(path)
        assert len(network) == 1
        assert network.snapshots[0].n == 2
        assert network.snapshots[0].W[0, 1] == 1.0

    def test_round_trip_is_identity_on_canonical_files(self, sbm_files, tmp_path):
        network, snap_path, _ = sbm_files
        reparsed = dio.parse_snapshots(snap_path)
        out = tmp_path / "again.tsv"
        dio.write_snapshots(reparsed, out)
        assert out.read_text() == snap_path.read_text()

    def test_negative_weight_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("0\ta\tb\t1.0\n0\ta\tc\t-2.0\n", encoding="utf-8")
        with pytest.raises(DataError, match=":2"):
            dio.parse_snapshots(path)

    def test_malformed_line_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("0\ta\tb\n", encoding="utf-8")
        with pytest.raises(DataError, match=":1"):
            dio.parse_snapshots(path)

    def test_asymmetric_duplicate_merges_by_max_with_warning(self, tmp_path, caplog):
        path = tmp_path / "dup.tsv"
        path.write_text("0\ta\tb\t1.0\n0\tb\ta\t3.0\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="dynlayout.io"):
            network = dio.parse_snapshots(path)
        assert network.snapshots[0].W[0, 1] == 3.0
        assert any("duplicate" in rec.message for rec in caplog.records)

    def test_gap_in_time_steps_rejected(self, tmp_path):
        path = tmp_path / "gap.tsv"
        path.write_text("0\ta\tb\t1.0\n2\ta\tb\t1.0\n", encoding="utf-8")
        with pytest.raises(DataError, match="without gaps"):
            dio.parse_snapshots(path)

    def test_self_loop_rejected(self, tmp_path):
        path = tmp_path / "loop.tsv"
        path.write_text("0\ta\ta\t1.0\n", encoding="utf-8")
        with pytest.raises(DataError, match="self-loop"):
            dio.parse_snapshots(path)


class TestGroupsTsv:
    def test_attach_and_rewrite(self, sbm_files, tmp_path):
        network, snap_path, groups_path = sbm_files
        bare = dio.parse_snapshots(snap_path)
        with_groups = dio.parse_groups(groups_path, bare, k=2)
        out = tmp_path / "groups2.tsv"
        dio.write_groups(out, with_groups)
        assert out.read_text() == groups_path.read_text()

    def test_unknown_node_rejected(self, tmp_path):
        snap = tmp_path / "s.tsv"
        snap.write_text("0\ta\tb\t1.0\n", encoding="utf-8")
        groups = tmp_path / "g.tsv"
        groups.write_text("0\tzz\t1\n", encoding="utf-8")
        network = dio.parse_snapshots(snap)
        with pytest.raises(DataError, match="zz"):
            dio.parse_groups(groups, network)

    def test_label_above_k_rejected(self, tmp_path):
        snap = tmp_path / "s.tsv"
        snap.write_text("0\ta\tb\t1.0\n", encoding="utf-8")
        groups = tmp_path / "g.tsv"
        groups.write_text("0\ta\t5\n", encoding="utf-8")
        network = dio.parse_snapshots(snap)
        with pytest.raises(DataError, match="exceeds k"):
            dio.parse_groups(groups, network, k=2)

    def test_omitted_nodes_have_unknown_membership(self, tmp_path):
        snap = tmp_path / "s.tsv"
        snap.write_text("0\ta\tb\t1.0\n0\ta\tc\t1.0\n", encoding="utf-8")
        groups = tmp_path / "g.tsv"
        groups.write_text("0\ta\t1\n", encoding="utf-8")
        network = dio.parse_groups(groups, dio.parse_snapshots(snap), k=1)
        labels = network.snapshots[0].groups.labels
        assert labels[0] == 1 and labels[1] is None and labels[2] is None


class TestRankMatrixIngestion:
    def test_rank_weights_four_down_to_one(self, tmp_path):
        # student a ranks b,c,d,e,f from most (1) to least (5) preferred
        others = ["b", "c", "d", "e", "f"]
        lines = [f"0\ta\t{other}\t{pos}" for pos, other in enumerate(others, start=1)]
        path = tmp_path / "ranks.tsv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        network = dio.ingest_snapshots(path, kind="rank_matrix", m=4,
                                       weighting="rank_descending")
        W = network.snapshots[0].W
        reg = network.registry
        a = reg.index_of("a")
        # weights 4 decreasing to 1 for the four most preferred
        expected = {"b": 4.0, "c": 3.0, "d": 2.0, "e": 1.0}
        for other, weight in expected.items():
            assert W[a, reg.index_of(other)] == weight
        # f was the 5th preference and falls outside m=4: no edge, and with
        # no edges at all it is not active in this snapshot
        assert "f" in reg
        assert reg.index_of("f") not in network.snapshots[0].active

    def test_count_matrix_requires_m(self, tmp_path):
        path = tmp_path / "counts.tsv"
        path.write_text("0\ta\tb\t5\n", encoding="utf-8")
        with pytest.raises(DataError, match="requires m"):
            dio.ingest_snapshots(path, kind="count_matrix")


def reference_ingest(path, kind="edge_tsv", m=None, weighting="unit") -> DynamicNetwork:
    """Reference: the two builders ``ingest_snapshots`` replaced. Edges went
    through per-step weight maps over the incident nodes; the matrix kinds
    filled one registry-sized score matrix per step, all held at once."""
    if kind not in dio.INGEST_KINDS:
        raise DataError(f"unknown ingestion kind {kind!r}; choose from {dio.INGEST_KINDS}")
    if kind == "edge_tsv":
        records = dio._parse_records(path)
        registry = NodeRegistry(u for _, u, v, _, _ in records for u in (u, v))
        weights_by_t = {}
        for t, u, v, w, lineno in records:
            key = (min(u, v), max(u, v))
            per_t = weights_by_t.setdefault(t, {})
            if key in per_t:
                if per_t[key] != w:
                    logging.getLogger("dynlayout.io").warning(
                        "%s:%d: duplicate edge (%s,%s) at t=%d; keeping max of %g and %g",
                        path, lineno, u, v, t, per_t[key], w)
                per_t[key] = max(per_t[key], w)
            else:
                per_t[key] = w
        times = sorted(weights_by_t)
        if times != list(range(len(times))):
            raise DataError(f"time steps must be 0..T-1 without gaps, found {times}")
        snapshots = []
        for t in times:
            incident = sorted({u for pair in weights_by_t[t] for u in pair})
            active = tuple(registry.index_of(u) for u in incident)
            row_of = {idx: row for row, idx in enumerate(active)}
            W = np.zeros((len(active), len(active)))
            for (u, v), w in weights_by_t[t].items():
                a = row_of[registry.index_of(u)]
                b = row_of[registry.index_of(v)]
                W[a, b] = W[b, a] = w
            snapshots.append(Snapshot(t=t, W=W, active=active))
        return DynamicNetwork(registry, snapshots)
    if m is None:
        raise DataError(f"{kind} ingestion requires m")
    records = dio._parse_records(path)
    registry = NodeRegistry(u for _, u, v, _, _ in records for u in (u, v))
    n = len(registry)
    by_t = {}
    for t, u, v, w, _ in records:
        S = by_t.setdefault(t, np.zeros((n, n)))
        S[registry.index_of(u), registry.index_of(v)] = w
    times = sorted(by_t)
    if times != list(range(len(times))):
        raise DataError(f"time steps must be 0..T-1 without gaps, found {times}")
    if kind == "rank_matrix":
        max_rank = max(w for _, _, _, w, _ in records)
        for t in times:
            S = by_t[t]
            nz = S > 0
            S[nz] = max_rank + 1.0 - S[nz]
    snapshots = []
    for t in times:
        W = top_m_graph(by_t[t], m, weighting)
        incident = np.flatnonzero(W.sum(axis=1) > 0)
        snapshots.append(Snapshot(t=t, W=W[np.ix_(incident, incident)],
                                  active=tuple(int(i) for i in incident)))
    return DynamicNetwork(registry, snapshots)


@st.composite
def ingest_inputs(draw):
    """(kind, m, weighting, records) over at most six nodes and four steps:
    nodes absent at some steps, a pair repeated within a step with equal or
    other weights, the same pair at other steps, and now and then a gap."""
    kind = draw(st.sampled_from(dio.INGEST_KINDS))
    nodes = draw(st.lists(st.sampled_from("abcdef"), min_size=4, max_size=6, unique=True))
    steps = draw(st.integers(1, 4))
    weights = st.integers(1, 5) if kind == "rank_matrix" else \
        st.sampled_from([1.0, 2.0, 2.5, 0.125])
    pairs = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)).filter(
        lambda pair: pair[0] != pair[1])
    records = draw(st.lists(st.tuples(st.integers(0, steps - 1), pairs, weights),
                            min_size=4, max_size=24))
    records += [(t, (v, u), w) for t, (u, v), w in
                draw(st.lists(st.sampled_from(records), max_size=4))]
    records = draw(st.permutations(records))
    m = draw(st.sampled_from([2, 3, 1, 6, None]))
    weighting = draw(st.sampled_from(["unit", "rank_descending"]))
    return kind, m, weighting, [f"{t}\t{u}\t{v}\t{w}" for t, (u, v), w in records]


class _Collect(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def _load(builder, path, kind, m, weighting):
    """(error text or None, registry ids, per-step (active, W bytes),
    duplicate warnings) of one load."""
    handler = _Collect()
    logger = logging.getLogger("dynlayout.io")
    logger.addHandler(handler)
    try:
        network = builder(path, kind=kind, m=m, weighting=weighting)
    except DataError as exc:
        return str(exc), None, None, None
    finally:
        logger.removeHandler(handler)
    steps = [(snap.active, snap.W.shape, snap.W.tobytes()) for snap in network.snapshots]
    return None, network.registry.ids, steps, sorted(handler.messages)


class TestIngestionMatchesReference:
    @given(ingest_inputs())
    @settings(deadline=None, max_examples=300)
    def test_same_networks_errors_and_warnings(self, case):
        # warnings are compared as a sorted list: the builder walks the
        # records step by step, so warnings of different steps come in step
        # order, not file order
        kind, m, weighting, lines = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "records.tsv"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            got = _load(dio.ingest_snapshots, path, kind, m, weighting)
            assert got == _load(reference_ingest, path, kind, m, weighting)

    def test_large_registry_few_nodes_per_step(self, tmp_path):
        # 30 steps, each a ring over its own 100 of 3,000 ids, with a repeated
        # edge; a step's matrix must stay the size of the nodes it names
        lines = [f"{t}\tn{100 * t + i:04d}\tn{100 * t + (i + 1) % 100:04d}\t1.5"
                 for t in range(30) for i in range(100)] + ["7\tn0701\tn0700\t2.0"]
        path = tmp_path / "records.tsv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        got = _load(dio.ingest_snapshots, path, "edge_tsv", None, "unit")
        assert len(got[1]) == 3000 and len(got[3]) == 1
        assert got == _load(reference_ingest, path, "edge_tsv", None, "unit")


@pytest.fixture(scope="module")
def sequence():
    network = sbm_sequence(SbmConfig.two_rate(n=8, k=2, p_in=0.8, p_out=0.2,
                                              T=2, seed=3))
    config = RegularizationConfig(method="dmds", groups="known", seed=1)
    seq, _ = run_sequence(network, config)
    return seq


class TestLayoutExport:

    def test_json_round_trip(self, sequence, tmp_path):
        path = tmp_path / "run.layout.json"
        dio.export_layouts(sequence, path)
        reloaded = dio.import_layouts(path)
        assert reloaded == sequence

    def test_empty_sequence_is_valid_document(self, tmp_path):
        from dynlayout.pipeline import LayoutSequence
        seq = LayoutSequence(metadata={"method": "dmds", "dims": 2})
        path = tmp_path / "empty.json"
        dio.export_layouts(seq, path)
        assert dio.import_layouts(path).steps == []

    def test_non_layout_json_rejected(self, tmp_path):
        node = '{"id": "a", "x": [1.0, 2.0], "group": null}'
        cases = {
            '{"foo": 1}': "missing 'steps'",
            "[1, 2]": "missing 'steps'",
            '{"steps": [': "not valid JSON",
            f'{{"steps": [{{"t": 0, "nodes": [{node}]}}, {{"t": 1}}]}}':
                "step 1: bad layout record: KeyError('nodes')",
            '{"steps": [{"t": 0, "nodes": [{"id": "a", "x": ["abc"], "group": null}]}]}':
                "step 0: bad layout record: ValueError(\"could not convert string to float",
            f'{{"steps": [{{"t": 0, "nodes": [{node}, {{"id": "b", "x": ["1", " 3 "], '
            '"group": null}]}]}':
                "step 0: 'x' holds '1', which is not a JSON number",
            f'{{"steps": [{{"t": 0, "nodes": [{node}], "representatives": [[false, 1]]}}]}}':
                "step 0: 'representatives' holds False, which is not a JSON number",
        }
        for text, cause in cases.items():
            path = tmp_path / "other.json"
            path.write_text(text, encoding="utf-8")
            with pytest.raises(DataError) as info:
                dio.import_layouts(path)
            assert str(info.value).startswith(str(path)) and cause in str(info.value)
        with pytest.raises(DataError, match="cannot read input"):
            dio.import_layouts(tmp_path / "missing.json")
