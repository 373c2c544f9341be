import logging

import pytest

from dynlayout import io as dio
from dynlayout.errors import DataError
from dynlayout.pipeline import RegularizationConfig, run_sequence
from dynlayout.sbm import SbmConfig, sbm_sequence


@pytest.fixture(scope="module")
def sbm_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("sbm")
    network, _ = sbm_sequence(SbmConfig.two_rate(n=10, k=2, p_in=0.8, p_out=0.2,
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


@pytest.fixture(scope="module")
def sequence():
    network, _ = sbm_sequence(SbmConfig.two_rate(n=8, k=2, p_in=0.8, p_out=0.2,
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
        }
        for text, cause in cases.items():
            path = tmp_path / "other.json"
            path.write_text(text, encoding="utf-8")
            with pytest.raises(DataError) as info:
                dio.import_layouts(path)
            assert str(info.value).startswith(str(path)) and cause in str(info.value)
        with pytest.raises(DataError, match="cannot read input"):
            dio.import_layouts(tmp_path / "missing.json")
