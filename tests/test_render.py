import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from dynlayout.errors import DataError
from dynlayout.graph import DynamicNetwork, NodeRegistry, Snapshot
from dynlayout.pipeline import LayoutSequence, LayoutStep, RegularizationConfig, run_sequence
from dynlayout.render import render_frames, render_timeplot
from dynlayout.sbm import SbmConfig, sbm_sequence


@pytest.fixture(scope="module")
def run_2d():
    network = sbm_sequence(SbmConfig.two_rate(n=9, k=3, p_in=0.85, p_out=0.15,
                                              T=3, seed=2))
    sequence, _ = run_sequence(network, RegularizationConfig(method="dmds",
                                                             groups="known", seed=2))
    return network, sequence


def edgeless_network(sequence: LayoutSequence) -> DynamicNetwork:
    """A network without edges whose snapshots hold the nodes of the
    sequence's steps, which list their ids in ascending order."""
    registry = NodeRegistry(node_id for step in sequence.steps for node_id in step.ids)
    return DynamicNetwork(registry, [
        Snapshot(t=step.t, W=np.zeros((len(step.ids), len(step.ids))),
                 active=tuple(registry.index_of(node_id) for node_id in step.ids))
        for step in sequence.steps])


@pytest.fixture(scope="module")
def run_1d():
    network = sbm_sequence(SbmConfig.two_rate(n=8, k=2, p_in=0.85, p_out=0.15,
                                              T=4, seed=6))
    sequence, _ = run_sequence(network, RegularizationConfig(method="dgll", dims=1,
                                                             groups="known", seed=2))
    return network, sequence


class TestRenderFrames:
    def test_frame_count_matches_steps(self, run_2d, tmp_path):
        network, sequence = run_2d
        paths = render_frames(network, sequence, tmp_path / "frames")
        assert len(paths) == len(sequence.steps)

    def test_frames_are_valid_xml_with_shared_viewbox(self, run_2d, tmp_path):
        network, sequence = run_2d
        paths = render_frames(network, sequence, tmp_path / "frames")
        viewboxes = set()
        for path in paths:
            root = ET.parse(path).getroot()
            viewboxes.add(root.attrib["viewBox"])
        assert len(viewboxes) == 1

    def test_single_node_renders_one_circle_no_edges(self, tmp_path):
        from dynlayout.graph import DynamicNetwork, NodeRegistry, Snapshot
        registry = NodeRegistry(["solo"])
        network = DynamicNetwork(registry, [Snapshot(t=0, W=np.zeros((1, 1)),
                                                     active=(0,))])
        seq = LayoutSequence(metadata={"method": "dmds", "dims": 2}, steps=[
            LayoutStep(t=0, ids=("solo",), X=np.zeros((1, 2)), labels=None, Y=None)])
        paths = render_frames(network, seq, tmp_path / "solo")
        text = paths[0].read_text()
        assert text.count("<circle") == 1
        assert "<line" not in text

    def test_edge_lines_match_pair_loop(self, tmp_path):
        # the double loop over all pairs that the index map replaced, kept as
        # the reference, on a weighted graph with random positions
        from dynlayout import render
        from dynlayout.graph import DynamicNetwork, NodeRegistry, Snapshot
        rng = np.random.default_rng(3)
        n = 9
        W = np.triu(rng.integers(0, 4, size=(n, n)) * (rng.random((n, n)) < 0.5), 1)
        W = (W + W.T).astype(float)
        ids = tuple(f"v{i}" for i in range(n))
        network = DynamicNetwork(NodeRegistry(ids), [Snapshot(t=0, W=W, active=range(n))])
        seq = LayoutSequence(metadata={"dims": 2}, steps=[
            LayoutStep(t=0, ids=ids, X=rng.normal(size=(n, 2)), labels=None, Y=None)])
        text = render_frames(network, seq, tmp_path / "weighted")[0].read_text()
        project = render._viewport(seq)
        pts = [project(x) for x in seq.steps[0].X]
        expected = []
        for a in range(n):
            for b in range(a + 1, n):
                if W[a, b] <= 0:
                    continue
                (xa, ya), (xb, yb) = pts[a], pts[b]
                width = render._fmt(0.4 + 2.1 * W[a, b] / W.max())
                expected.append(f'<line x1="{render._fmt(xa)}" y1="{render._fmt(ya)}" '
                                f'x2="{render._fmt(xb)}" y2="{render._fmt(yb)}" '
                                f'stroke="#cccccc" stroke-width="{width}"/>')
        assert len(expected) > n
        assert [line for line in text.splitlines() if "#cccccc" in line] == expected

    def test_movement_overlay_adds_only_ghosts_and_segments(self, run_2d, tmp_path):
        network, sequence = run_2d
        plain = render_frames(network, sequence, tmp_path / "plain", movement=False)
        overlay = render_frames(network, sequence, tmp_path / "overlay", movement=True)
        assert plain[0].read_text() == overlay[0].read_text()  # nothing to ghost at t=0
        plain_lines = set(plain[1].read_text().splitlines())
        overlay_lines = set(overlay[1].read_text().splitlines())
        extra = overlay_lines - plain_lines
        assert extra
        assert all(("stroke-dasharray" in line) or ("fill-opacity" in line)
                   for line in extra)
        assert not (plain_lines - overlay_lines)

    def test_one_dimensional_sequence_rejected(self, run_1d, tmp_path):
        network, sequence = run_1d
        with pytest.raises(DataError, match="time plot"):
            render_frames(network, sequence, tmp_path / "bad")


class TestRenderTimeplot:
    def test_writes_valid_svg(self, run_1d, tmp_path):
        network, sequence = run_1d
        out = render_timeplot(network, sequence, tmp_path / "plot.svg")
        root = ET.parse(out).getroot()
        assert root.tag.endswith("svg")

    def test_constant_positions_draw_horizontal_lines(self, tmp_path):
        steps = [LayoutStep(t=t, ids=("a",), X=np.array([[0.25]]),
                            labels=(1,), Y=None) for t in range(3)]
        seq = LayoutSequence(metadata={"method": "dgll", "dims": 1}, steps=steps)
        out = render_timeplot(edgeless_network(seq), seq, tmp_path / "flat.svg")
        lines = re.findall(r'<line x1="([\d.]+)" y1="([\d.]+)" x2="([\d.]+)" y2="([\d.]+)"',
                           out.read_text())
        assert lines
        assert all(y1 == y2 for _, y1, _, y2 in lines)

    def test_group_switch_changes_segment_color(self, tmp_path):
        steps = [
            LayoutStep(t=0, ids=("a",), X=np.array([[0.0]]), labels=(1,), Y=None),
            LayoutStep(t=1, ids=("a",), X=np.array([[0.5]]), labels=(2,), Y=None),
            LayoutStep(t=2, ids=("a",), X=np.array([[1.0]]), labels=(2,), Y=None),
        ]
        seq = LayoutSequence(metadata={"method": "dgll", "dims": 1}, steps=steps)
        out = render_timeplot(edgeless_network(seq), seq, tmp_path / "switch.svg")
        strokes = re.findall(r'<line[^>]*stroke="(#\w+)"', out.read_text())
        assert len(strokes) == 2
        assert strokes[0] != strokes[1]  # color follows the segment-start group

    def test_single_step_draws_points_only(self, tmp_path):
        seq = LayoutSequence(metadata={"method": "dgll", "dims": 1}, steps=[
            LayoutStep(t=0, ids=("a", "b"), X=np.array([[0.0], [1.0]]),
                       labels=(1, 2), Y=None)])
        out = render_timeplot(edgeless_network(seq), seq, tmp_path / "single.svg")
        text = out.read_text()
        assert "<circle" in text
        assert "<line" not in text

    def test_two_dimensional_sequence_rejected(self, run_2d, tmp_path):
        network, sequence = run_2d
        with pytest.raises(DataError, match="1-D"):
            render_timeplot(network, sequence, tmp_path / "bad.svg")
