import json
from pathlib import Path

import pytest

from dynlayout.cli import cli_main


def run(args):
    return cli_main(list(args))


@pytest.fixture(scope="module")
def sbm_fixture(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    prefix = base / "net"
    code = run(["simulate-sbm", "--n", "12", "--k", "2", "--p-in", "0.8",
                "--p-out", "0.15", "--steps", "4", "--change-step", "2",
                "--seed", "7", "--out", str(prefix)])
    assert code == 0
    return base, prefix.with_name("net.snapshots.tsv"), prefix.with_name("net.groups.tsv")


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert run(["layout", "--frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand_is_usage_error(self):
        assert run(["dance"]) == 1

    def test_missing_required_flag_is_usage_error(self):
        assert run(["layout"]) == 1

    def test_data_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("0\ta\tb\t-1\n", encoding="utf-8")
        code = run(["layout", "--input", str(bad), "--out", str(tmp_path / "x")])
        assert code == 2
        assert "data error" in capsys.readouterr().err


class TestSimulateSbm:
    def test_same_seed_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for prefix in (a, b):
            assert run(["simulate-sbm", "--seed", "7", "--out", str(prefix)]) == 0
        assert (tmp_path / "a.snapshots.tsv").read_bytes() == \
            (tmp_path / "b.snapshots.tsv").read_bytes()
        assert (tmp_path / "a.groups.tsv").read_bytes() == \
            (tmp_path / "b.groups.tsv").read_bytes()


class TestLayoutCommand:
    def test_dmds_known_groups_outputs(self, sbm_fixture, tmp_path):
        _, snaps, groups = sbm_fixture
        out = tmp_path / "run"
        code = run(["layout", "--input", str(snaps), "--groups", str(groups),
                    "--k", "2", "--method", "dmds", "--alpha", "1", "--beta", "1",
                    "--seed", "3", "--out", str(out)])
        assert code == 0
        doc = json.loads((tmp_path / "run.layout.json").read_text())
        assert doc["method"] == "dmds"
        assert len(doc["steps"]) == 4
        costs = (tmp_path / "run.costs.csv").read_text().splitlines()
        assert costs[0] == "t,static_cost,centroid_cost,temporal_cost,iterations"
        assert len(costs) == 5

    def test_layout_determinism_byte_identical(self, sbm_fixture, tmp_path):
        _, snaps, groups = sbm_fixture
        outputs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            code = run(["layout", "--input", str(snaps), "--groups", "learn",
                        "--k", "2", "--method", "dmds", "--seed", "11",
                        "--out", str(out)])
            assert code == 0
            outputs.append((tmp_path / f"{name}.layout.json").read_bytes())
        assert outputs[0] == outputs[1]

    def test_every_method_runs(self, sbm_fixture, tmp_path):
        _, snaps, groups = sbm_fixture
        for method in ("mds-static", "mds-stabilized", "spectral", "ccdr", "bfp", "dgll"):
            out = tmp_path / f"m_{method}"
            args = ["layout", "--input", str(snaps), "--method", method,
                    "--seed", "5", "--out", str(out)]
            if method in ("ccdr", "dgll"):
                args += ["--groups", str(groups), "--k", "2"]
            assert run(args) == 0


class TestGoldenFixture:
    def test_layout_reproduces_frozen_golden_run(self, tmp_path):
        # fixture frozen from a known-good build; coordinates compared with
        # a small tolerance so BLAS build differences do not flake the test
        import numpy as np

        from dynlayout import io as dio

        data = Path(__file__).parent / "data"
        out = tmp_path / "golden_run"
        code = run(["layout", "--input", str(data / "golden.snapshots.tsv"),
                    "--groups", str(data / "golden.groups.tsv"), "--k", "2",
                    "--method", "dmds", "--alpha", "1", "--beta", "1",
                    "--seed", "13", "--out", str(out)])
        assert code == 0
        got = dio.import_layouts(tmp_path / "golden_run.layout.json")
        expected = dio.import_layouts(data / "golden_run.layout.json")
        assert got.metadata == expected.metadata
        assert len(got.steps) == len(expected.steps)
        for a, b in zip(got.steps, expected.steps):
            assert a.ids == b.ids and a.labels == b.labels
            assert np.allclose(a.X, b.X, atol=1e-6)
            assert np.allclose(a.Y, b.Y, atol=1e-6)


class TestClusterCommand:
    def test_outputs_and_determinism(self, sbm_fixture, tmp_path):
        _, snaps, _ = sbm_fixture
        a = tmp_path / "ca"
        b = tmp_path / "cb"
        for prefix in (a, b):
            code = run(["cluster", "--input", str(snaps), "--k", "2",
                        "--seed", "9", "--out", str(prefix)])
            assert code == 0
        assert (tmp_path / "ca.groups.tsv").read_bytes() == \
            (tmp_path / "cb.groups.tsv").read_bytes()
        alpha_lines = (tmp_path / "ca.alpha.csv").read_text().splitlines()
        assert alpha_lines[0] == "t,alpha"
        assert len(alpha_lines) == 5


class TestSweepCommand:
    def test_sweep_csv(self, sbm_fixture, tmp_path):
        _, snaps, groups = sbm_fixture
        out = tmp_path / "sweep.csv"
        code = run(["sweep", "--input", str(snaps), "--method", "dmds",
                    "--groups", str(groups), "--k", "2",
                    "--alphas", "0.5,2.0", "--betas", "1.0", "--seeds", "0",
                    "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3  # header + 2 cells


class TestMetricsCommand:
    def test_recomputed_costs_match_run(self, sbm_fixture, tmp_path):
        _, snaps, groups = sbm_fixture
        out = tmp_path / "mrun"
        assert run(["layout", "--input", str(snaps), "--groups", str(groups),
                    "--k", "2", "--method", "dmds", "--seed", "3",
                    "--out", str(out)]) == 0
        costs = tmp_path / "recomputed.csv"
        code = run(["metrics", "--input", str(snaps), "--groups", str(groups),
                    "--k", "2", "--layout", str(tmp_path / "mrun.layout.json"),
                    "--out", str(costs)])
        assert code == 0
        original = (tmp_path / "mrun.costs.csv").read_text().splitlines()
        recomputed = costs.read_text().splitlines()
        for line_a, line_b in zip(original[1:], recomputed[1:]):
            a = line_a.split(",")
            b = line_b.split(",")
            assert a[:4] == b[:4]  # static/centroid/temporal agree; iterations differ


    def test_similarity_mode_is_used_for_static_cost(self, tmp_path):
        # weighted similarities: the recomputed stress must use the same
        # dissimilarities as the layout run, not the raw weights
        import numpy as np

        rng = np.random.default_rng(4)
        snaps = tmp_path / "weighted.tsv"
        lines = []
        for t in range(4):
            for i in range(20):
                for j in range(i + 1, 20):
                    if j == i + 1 or rng.random() < 0.2:
                        lines.append(f"{t}\tv{i:02d}\tv{j:02d}\t{int(rng.integers(1, 6))}")
        snaps.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "srun"
        assert run(["layout", "--input", str(snaps), "--method", "dmds",
                    "--similarity", "inverse", "--seed", "3", "--out", str(out)]) == 0
        doc = json.loads((tmp_path / "srun.layout.json").read_text())
        assert doc["similarity_mode"] == "inverse"
        costs = tmp_path / "srecomputed.csv"
        assert run(["metrics", "--input", str(snaps),
                    "--layout", str(tmp_path / "srun.layout.json"),
                    "--out", str(costs)]) == 0
        original = (tmp_path / "srun.costs.csv").read_text().splitlines()
        recomputed = costs.read_text().splitlines()
        assert len(original) == len(recomputed) == 5
        for line_a, line_b in zip(original[1:], recomputed[1:]):
            assert line_a.split(",")[:4] == line_b.split(",")[:4]


class TestRenderCommand:
    def test_render_frames_deterministic(self, sbm_fixture, tmp_path):
        _, snaps, groups = sbm_fixture
        out = tmp_path / "rrun"
        assert run(["layout", "--input", str(snaps), "--groups", str(groups),
                    "--k", "2", "--method", "dmds", "--seed", "3",
                    "--out", str(out)]) == 0
        frames_a = tmp_path / "fa"
        frames_b = tmp_path / "fb"
        for frames in (frames_a, frames_b):
            code = run(["render", "--input", str(snaps),
                        "--layout", str(tmp_path / "rrun.layout.json"),
                        "--movement", "--out", str(frames)])
            assert code == 0
        for file_a in sorted(frames_a.iterdir()):
            file_b = frames_b / file_a.name
            assert file_a.read_bytes() == file_b.read_bytes()

    def test_render_timeplot_for_1d(self, sbm_fixture, tmp_path):
        _, snaps, groups = sbm_fixture
        out = tmp_path / "one"
        assert run(["layout", "--input", str(snaps), "--groups", str(groups),
                    "--k", "2", "--method", "dgll", "--dims", "1", "--seed", "3",
                    "--out", str(out)]) == 0
        plot = tmp_path / "plot.svg"
        code = run(["render", "--input", str(snaps),
                    "--layout", str(tmp_path / "one.layout.json"),
                    "--out", str(plot)])
        assert code == 0
        assert plot.read_text().startswith("<?xml")
