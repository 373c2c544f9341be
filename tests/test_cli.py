import json
import shutil
from dataclasses import replace

import numpy as np
import pytest

from conftest import load_data_script
from dynlayout import gll, numerics
from dynlayout.cli import cli_main
from dynlayout.pipeline import METHODS

make_golden = load_data_script("make_golden")
replay = load_data_script("replay")


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


@pytest.fixture(scope="module")
def churn_fixture(tmp_path_factory):
    """Snapshot TSV whose active sets change: v00 and v01 leave at t=1 and
    re-enter at t=2, v12 and v13 enter at t=1, v10-v13 leave at t=2 and
    v10-v12 re-enter at t=3, v14 enters at t=2. Each snapshot is a ring over
    its active nodes plus a few chords, so every snapshot is connected."""
    rng = np.random.default_rng(5)
    active_sets = [range(0, 12), range(2, 14), [*range(0, 10), 14], [*range(0, 13), 14]]
    lines = []
    for t, active in enumerate(active_sets):
        ids = [f"v{i:02d}" for i in active]
        edges = {tuple(sorted(pair)) for pair in zip(ids, ids[1:] + ids[:1])}
        for _ in range(4):
            a, b = sorted(rng.choice(len(ids), size=2, replace=False))
            edges.add((ids[a], ids[b]))
        lines += [f"{t}\t{u}\t{v}\t1" for u, v in sorted(edges)]
    path = tmp_path_factory.mktemp("churn") / "churn.snapshots.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# a layout document's group is null or an integer >= 1
BAD_GROUPS = {"string-group": "a", "fractional-group": 1.5, "zero-group": 0, "bool-group": True}


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert run(["layout", "--frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand_is_usage_error(self):
        assert run(["dance"]) == 1

    def test_missing_required_flag_is_usage_error(self):
        assert run(["layout"]) == 1

    @pytest.mark.parametrize("option, wording", [
        ("--alphas", "bad number list 'x'"), ("--seeds", "bad integer list 'x'"),
        ("--alphas", "bad number list ''"), ("--seeds", "bad integer list ''")])
    def test_bad_list_is_usage_error(self, option, wording, capsys):
        text = wording.split("'")[1]  # the wording quotes the rejected list
        argv = ["sweep", "--input", "in.tsv", "--out", "o.csv", "--alphas", "1", "--betas", "1"]
        assert run([*argv, option, text]) == 1
        assert wording in capsys.readouterr().err

    @pytest.mark.parametrize("dims", ["0", "4"])
    @pytest.mark.parametrize("method", METHODS)
    def test_dims_outside_one_to_three_is_data_error(self, method, dims, sbm_fixture, tmp_path,
                                                     capsys):
        _, snaps, _ = sbm_fixture
        assert run(["layout", "--input", str(snaps), "--method", method, "--dims", dims,
                    "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == f"data error: dims must be 1, 2 or 3, got {dims}\n"

    @pytest.mark.parametrize("argv, message", [
        (["layout", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["cluster", "--k", "2", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["sweep", "--alphas", "1", "--betas", "1", "--seeds", "-1"],
         "seed must be >= 0, got -1"),
        (["simulate-sbm", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["simulate-sbm", "--k", "0"], "k must be >= 1, got 0"),
        (["simulate-sbm", "--k", "1", "--change-step", "5"],
         "a change step that moves nodes needs k >= 2 groups")],
        ids=["layout-seed", "cluster-seed", "sweep-seeds", "sbm-seed", "sbm-k0",
             "sbm-k1-change"])
    def test_negative_seed_or_too_few_blocks_is_data_error(self, argv, message, sbm_fixture,
                                                           tmp_path, capsys):
        _, snaps, _ = sbm_fixture
        inputs = [] if argv[0] == "simulate-sbm" else ["--input", str(snaps)]
        assert run([*argv, *inputs, "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == f"data error: {message}\n"

    def test_numerical_failure_exit_code(self, sbm_fixture, tmp_path, monkeypatch, capsys):
        # one penalty weight and no polish leave the t = 1 DGLL solve unconverged
        monkeypatch.setattr(numerics, "_PENALTY_WEIGHTS", (1.0,))
        monkeypatch.setattr(numerics, "_POLISH_ROUNDS", 0)
        _, snaps, groups = sbm_fixture
        code = run(["layout", "--input", str(snaps), "--groups", str(groups), "--method", "dgll",
                    "--out", str(tmp_path / "run")])
        assert code == 3
        assert capsys.readouterr().err.startswith("numerical failure: step t=1: ")

    def test_data_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("0\ta\tb\t-1\n", encoding="utf-8")
        code = run(["layout", "--input", str(bad), "--out", str(tmp_path / "x")])
        assert code == 2
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("options", [
        ("--method", "dgll", "--beta", "-1"), ("--method", "dmds", "--beta", "nan"),
        ("--method", "dgll", "--beta", "nan"), ("--alpha", "inf"), ("--epsilon", "-1"),
        ("--epsilon", "nan")], ids=" ".join)
    def test_out_of_range_weight_is_data_error(self, options, sbm_fixture, tmp_path, capsys):
        _, snaps, _ = sbm_fixture
        code = run(["layout", "--input", str(snaps), *options, "--out", str(tmp_path / "x")])
        assert code == 2
        assert f"{options[-2].lstrip('-')} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["layout", "cluster", "simulate-sbm", "sweep",
                                         "metrics", "render"])
    def test_unwritable_output_is_data_error(self, command, sbm_fixture, tmp_path, capsys):
        _, snaps, _ = sbm_fixture
        inputs = ["--input", str(snaps)]
        layout = ["--layout", str(tmp_path / "run.layout.json")]
        options = {"layout": inputs, "cluster": [*inputs, "--k", "2"], "simulate-sbm": [],
                   "sweep": [*inputs, "--alphas", "1", "--betas", "1"],
                   "metrics": [*inputs, *layout], "render": [*inputs, *layout]}[command]
        assert run(["layout", *inputs, "--out", str(tmp_path / "run")]) == 0
        out = tmp_path / "nodir" / "x"
        if command == "render":  # a regular file where the frame directory goes
            out = tmp_path / "file"
            out.write_text("", encoding="utf-8")
        capsys.readouterr()
        assert run([command, *options, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: cannot write output {out}")
        assert "Traceback" not in err and err.count("\n") == 1

    @pytest.mark.parametrize("case", ["missing-input", "metrics-bad-json",
                                      "render-bad-json", "metrics-step-without-nodes"])
    def test_unreadable_input_is_data_error(self, case, sbm_fixture, tmp_path, capsys):
        _, snaps, _ = sbm_fixture
        doc = tmp_path / "doc.json"
        doc.write_text('{"dims": 2, "steps": [{"t": 0}]}' if case.endswith("nodes")
                       else '{"dims": 2, "steps": [', encoding="utf-8")
        command, _, _ = case.partition("-")
        argv = {"missing": ["layout", "--input", str(tmp_path / "missing.tsv")],
                "metrics": ["metrics", "--input", str(snaps), "--layout", str(doc)],
                "render": ["render", "--input", str(snaps), "--layout", str(doc)]}[command]
        assert run([*argv, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ")
        assert ("cannot read input" if command == "missing" else "doc.json: ") in err

    @pytest.mark.parametrize("dims", [None, "2", 2.0, 1.5, True])
    def test_render_without_integer_dims_is_data_error(self, dims, tmp_path, capsys):
        # metrics reads no dims and still scores the same document
        snaps = tmp_path / "path.tsv"
        snaps.write_text("0\ta\tb\t1\n0\tb\tc\t1\n", encoding="utf-8")
        nodes = [{"id": node, "x": [float(i), 0.5 * i], "group": None}
                 for i, node in enumerate("abc")]
        doc = {"method": "dmds", "steps": [{"t": 0, "nodes": nodes}]}
        if dims is not None:
            doc["dims"] = dims
        layout = tmp_path / "doc.json"
        layout.write_text(json.dumps(doc), encoding="utf-8")
        base = ["--input", str(snaps), "--layout", str(layout)]
        assert run(["render", *base, "--out", str(tmp_path / "frames")]) == 2
        assert f"integer 'dims' field, got {dims!r}" in capsys.readouterr().err
        assert run(["metrics", *base, "--out", str(tmp_path / "costs.csv")]) == 0

    @pytest.mark.parametrize("case", ["rows-across-steps", "rows-within-step",
                                      "representatives", "dims", "fractional-t", "string-t",
                                      *BAD_GROUPS, "nan-x", "infinite-representative",
                                      "string-x", "bool-x", "string-representative"])
    @pytest.mark.parametrize("command", ["metrics", "render"])
    def test_malformed_coordinates_are_data_error(self, case, command, tmp_path, capsys):
        snaps = tmp_path / "path.tsv"
        snaps.write_text("".join(f"{t}\t{u}\t{v}\t1\n" for t in (0, 1)
                                 for u, v in (("a", "b"), ("b", "c"))), encoding="utf-8")
        steps = [{"t": t, "nodes": [{"id": node, "x": [float(i), 0.5 * t], "group": 1}
                                    for i, node in enumerate("abc")],
                  "representatives": [[0.0, 0.0]]} for t in (0, 1)]
        doc = {"method": "dmds", "dims": 2, "steps": steps}
        bad = steps[1]
        if case == "rows-across-steps":
            del doc["dims"]
            for node in bad["nodes"]:
                node["x"].append(1.0)
        elif case == "rows-within-step":
            bad["nodes"][2]["x"].append(1.0)
        elif case == "representatives":
            bad["representatives"] = [[0.0, 0.0, 0.0]]
        elif case == "dims":
            for step in steps:
                step["representatives"] = None
                for node in step["nodes"]:
                    del node["x"][1]
            bad = steps[0]
        elif case in BAD_GROUPS:
            bad["nodes"][1]["group"] = BAD_GROUPS[case]
        elif case == "nan-x":
            bad["nodes"][0]["x"][1] = float("nan")
        elif case == "infinite-representative":
            bad["representatives"] = [[float("inf"), 0.0]]
        elif case == "string-x":
            bad["nodes"][0]["x"] = ["1", " 3 "]
        elif case == "bool-x":
            bad["nodes"][2]["x"][0] = True
        elif case == "string-representative":
            bad["representatives"] = [[0.0, "2.5"]]
        else:
            bad["t"] = 1.5 if case == "fractional-t" else "1"
        layout = tmp_path / "doc.json"
        layout.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / ("costs.csv" if command == "metrics" else "frames")
        assert run([command, "--input", str(snaps), "--layout", str(layout),
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {layout}: step {steps.index(bad)}: ")

    @pytest.mark.parametrize("case", ["reversed", "node-dropped"])
    def test_layout_of_other_nodes_is_data_error(self, case, tmp_path, capsys):
        # reversed rows would draw edges between the wrong nodes and a
        # dropped node would leave an edge without an end; both commands
        # reject the document and name the step
        snaps = tmp_path / "path.tsv"
        snaps.write_text("".join(f"{t}\t{u}\t{v}\t1\n" for t in (0, 1)
                                 for u, v in (("a", "b"), ("b", "c"))), encoding="utf-8")
        layout = tmp_path / "run.layout.json"
        assert run(["layout", "--input", str(snaps), "--groups", "none", "--method",
                    "mds-static", "--out", str(tmp_path / "run")]) == 0
        doc = json.loads(layout.read_text(encoding="utf-8"))
        for step in doc["steps"]:
            step["nodes"] = step["nodes"][::-1] if case == "reversed" else step["nodes"][:2]
        layout.write_text(json.dumps(doc), encoding="utf-8")
        base = ["--input", str(snaps), "--layout", str(layout)]
        for command, out in (("render", "frames"), ("metrics", "costs.csv")):
            assert run([command, *base, "--out", str(tmp_path / out)]) == 2
            assert ("step t=0: layout node ids differ from the snapshot's active nodes in "
                    "set or order") in capsys.readouterr().err
        assert not (tmp_path / "frames").exists()

    @pytest.mark.parametrize("dims", [1, 2])
    def test_layout_of_fewer_steps_is_data_error(self, dims, tmp_path, capsys):
        # a layout of the first three steps of a five-step file: both render
        # paths and metrics reject it, as they reject other node ids
        edges = (("a", "b"), ("b", "c"), ("c", "d"))
        snaps, short = tmp_path / "five.tsv", tmp_path / "three.tsv"
        for path, steps in ((snaps, 5), (short, 3)):
            path.write_text("".join(f"{t}\t{u}\t{v}\t1\n" for t in range(steps)
                                    for u, v in edges), encoding="utf-8")
        assert run(["layout", "--input", str(short), "--method", "mds-static",
                    "--dims", str(dims), "--out", str(tmp_path / "run")]) == 0
        base = ["--input", str(snaps), "--layout", str(tmp_path / "run.layout.json")]
        for command, out in (("render", "plot.svg" if dims == 1 else "frames"),
                             ("metrics", "costs.csv")):
            assert run([command, *base, "--out", str(tmp_path / out)]) == 2
            assert capsys.readouterr().err == ("data error: layout document and snapshot "
                                               "file have different step counts\n")
            assert not (tmp_path / out).exists()

    @pytest.mark.parametrize("k", [0, 1, -1])
    @pytest.mark.parametrize("command", [
        ["layout"], ["sweep", "--alphas", "1", "--betas", "1"],
        ["metrics", "--layout", "unread.layout.json"]], ids=["layout", "sweep", "metrics"])
    def test_groups_file_above_k_is_data_error(self, command, k, sbm_fixture, tmp_path,
                                               capsys):
        # k = 0 is a group count like any other, not a request to use the
        # largest label in the file
        _, snaps, groups = sbm_fixture
        assert run([*command, "--input", str(snaps), "--groups", str(groups),
                    "--k", str(k), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == f"data error: {groups}: label 2 exceeds k={k}\n"

    def test_render_takes_no_groups(self, sbm_fixture, tmp_path):
        # frame colors come from the layout document's labels
        _, snaps, groups = sbm_fixture
        assert run(["render", "--input", str(snaps), "--layout", str(tmp_path / "x.json"),
                    "--groups", str(groups), "--out", str(tmp_path / "frames")]) == 1

    def test_metrics_of_unknown_method_is_data_error(self, sbm_fixture, tmp_path, capsys):
        _, snaps, _ = sbm_fixture
        out = tmp_path / "run"
        assert run(["layout", "--input", str(snaps), "--out", str(out)]) == 0
        layout = tmp_path / "run.layout.json"
        doc = json.loads(layout.read_text(encoding="utf-8"))
        doc["method"] = "banana"
        layout.write_text(json.dumps(doc), encoding="utf-8")
        assert run(["metrics", "--input", str(snaps), "--layout", str(layout),
                    "--out", str(tmp_path / "costs.csv")]) == 2
        assert "unknown method 'banana'" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["dmds", "mds-static"])
    def test_disconnected_snapshot_is_data_error(self, method, tmp_path, capsys):
        two_triangles = tmp_path / "two.tsv"
        two_triangles.write_text("".join(f"0\t{u}\t{v}\t1\n" for u, v in (
            ("a", "b"), ("b", "c"), ("a", "c"), ("d", "e"), ("e", "f"), ("d", "f"))),
            encoding="utf-8")
        code = run(["layout", "--input", str(two_triangles), "--method", method,
                    "--out", str(tmp_path / "x")])
        assert code == 2
        assert "step t=0" in capsys.readouterr().err


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
    @pytest.mark.parametrize("name", sorted(make_golden.GOLDEN_RUNS))
    def test_layout_reproduces_frozen_golden_run(self, name, tmp_path):
        # fixtures frozen from a known-good build by tests/data/make_golden.py;
        # coordinates compared with a small tolerance so BLAS build
        # differences do not flake the test
        from dynlayout import io as dio

        _, prefix, _ = make_golden.GOLDEN_RUNS[name]
        assert run(make_golden.layout_argv(name, tmp_path / prefix)) == 0
        got = dio.import_layouts(tmp_path / f"{prefix}.layout.json")
        expected = dio.import_layouts(make_golden.DATA / f"{prefix}.layout.json")
        assert got.metadata == expected.metadata
        assert len(got.steps) == len(expected.steps)
        for a, b in zip(got.steps, expected.steps):
            assert a.ids == b.ids and a.labels == b.labels
            assert np.allclose(a.X, b.X, atol=1e-6)
            assert (a.Y is None) == (b.Y is None)
            if a.Y is not None:
                assert np.allclose(a.Y, b.Y, atol=1e-6)


    def test_check_lists_a_differing_file_and_rewrites_nothing(self, tmp_path, monkeypatch,
                                                               capsys):
        data = tmp_path / "data"
        shutil.copytree(make_golden.DATA, data,
                        ignore=shutil.ignore_patterns("*.py", "__pycache__"))
        corrupted = data / "golden_spectral_1d.costs.csv"
        corrupted.write_text(corrupted.read_text().replace("0", "1", 1))
        before = {path.name: path.read_bytes() for path in data.iterdir()}
        monkeypatch.setattr(make_golden, "DATA", data)
        assert make_golden.main(["--check"]) == 1
        assert "differs: golden_spectral_1d.costs.csv" in capsys.readouterr().out.splitlines()
        assert {path.name: path.read_bytes() for path in data.iterdir()} == before

    def test_digest_repeats_and_compare_flags_a_perturbed_run(self, tmp_path, capsys):
        # no digest value is asserted: the bits depend on the BLAS build
        from dynlayout import RegularizationConfig, SbmConfig, run_sequence, sbm_sequence

        network = sbm_sequence(SbmConfig.two_rate(n=12, k=2, p_in=0.8, p_out=0.15, T=3,
                                                  seed=7))
        network = make_golden._drop_nodes(network, lambda t: {0, 1, 2} if t % 2 else set())
        config = RegularizationConfig(method="dmds", groups="known")
        first = make_golden.run_record(network, config)
        assert make_golden.run_record(network, config) == first
        sequence, report = run_sequence(network, config)
        assert make_golden.output_record(sequence, report) == first
        X = sequence.steps[1].X.copy()
        X[2, 0] += 1e-9
        sequence.steps[1] = replace(sequence.steps[1], X=X)
        perturbed = make_golden.output_record(sequence, report)
        assert perturbed["sha256"] != first["sha256"]
        assert perturbed["trace_sha256"] == first["trace_sha256"]
        # a stress trace that moves in its last bits, with every output kept
        sequence, report = run_sequence(network, config)
        trace = report.steps[2].stress_trace
        moved = np.nextafter(trace[-1], np.inf)
        report.steps[2] = replace(report.steps[2], stress_trace=(*trace[:-1], moved))
        retraced = make_golden.output_record(sequence, report)
        assert retraced["sha256"] == first["sha256"]
        assert retraced["trace_sha256"] != first["trace_sha256"]

        a, b = tmp_path / "a.json", tmp_path / "b.json"
        make_golden.write_digest({"same": first, "moved": first, "retraced": first}, a)
        make_golden.write_digest({"same": first, "moved": perturbed, "retraced": retraced}, b)
        assert make_golden.main(["--compare", str(a), str(a)]) == 0
        assert make_golden.main(["--compare", str(a), str(b)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "every run has the same digest"
        assert lines[1:] == ["differs: moved (largest coordinate change 1.000e-09)",
                             "differs: retraced (traces only, largest relative change "
                             f"{(moved - trace[-1]) / trace[-1]:.3e})"]

    def test_replay_of_the_capturing_tree_changes_nothing(self, tmp_path, capsys):
        # every recorded solve of protocol seed 0 (20 steps under each of the
        # four stress and four DGLL configurations) solved again gives the
        # recorded bits
        assert replay.main(["--capture", str(tmp_path), "--seeds", "0"]) == 0
        assert capsys.readouterr().out.startswith("160 solves recorded")
        stats = replay.replay(tmp_path)
        solvers = {"dmds-known": "dmds_layout", "dmds-learned": "dmds_layout",
                   "mds-static": "dmds_layout", "mds-stabilized": "stabilized_mds_online",
                   "dgll-known": "dgll_layout", "dgll-learned": "dgll_layout",
                   "dgll-known-1d": "dgll_layout", "dgll-learned-1d": "dgll_layout"}
        assert sorted(stats) == sorted((solvers[name], name, "protocol")
                                       for name in replay.CONFIGS)
        for (solver, _, _), entry in stats.items():
            assert entry["solves"] == entry["tied"] == entry["same_layout"] == 20
            assert entry["rose"] == entry["fell"] == 0 and entry["rises"] == []
            if solver in replay.STRESS_SOLVERS:
                assert entry["iterations"] == entry["replayed"] > 20
                assert entry["same_trace"] == 20
        assert replay.main(["--replay", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 8 and all("tied 20, rose 0" in line for line in lines)

    def test_replay_at_two_blas_threads_keeps_the_n200_bits(self, tmp_path, blas_threads,
                                                            monkeypatch):
        # a multi-threaded BLAS moves the bits of the n = 200 solves, which
        # the capture ran on run_sequence's one thread; the replay must hold
        # one thread too, whatever the caller's count
        two = [2] * len(blas_threads.counts())
        blas_threads.set(two)
        large1 = [net for net in replay.networks([], True) if net[0] == "large1"]
        monkeypatch.setattr(replay, "networks", lambda seeds, large: large1)
        assert replay.capture(tmp_path, [], large=True) == 3 * len(replay.CONFIGS)
        stats = replay.replay(tmp_path)
        assert {name for _, name, _ in stats} == set(replay.CONFIGS)
        for (solver, _, family), entry in stats.items():
            assert family == "large"
            assert entry["solves"] == entry["tied"] == entry["same_layout"] == 3
            if solver in replay.STRESS_SOLVERS:
                assert entry["same_trace"] == 3
        assert blas_threads.counts() == two

    def test_replay_restores_the_generator_before_the_solve(self):
        # a start with no scatter makes DGLL draw a random one from ``rng``,
        # so the recorded state must be the one from before the call
        n, s = 6, 2
        W = np.ones((n, n)) - np.eye(n)
        calls = []
        with replay.recording(calls):
            solved = gll.dgll_layout(W, np.zeros((n, 0)), 0.0, 1.0, np.ones(n),
                                     np.zeros((n, s)), s, rng=np.random.default_rng(7))
        (solver, args, result, state), = calls
        assert solver == "dgll_layout" and result is solved
        again = gll.dgll_layout(**{**args, "rng": replay.generator(state)})
        assert np.array_equal(again.X_aug, solved.X_aug)
        assert not np.array_equal(
            gll.dgll_layout(**{**args, "rng": np.random.default_rng(8)}).X_aug, solved.X_aug)


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

    @pytest.mark.parametrize("command", [["cluster"], ["layout", "--groups", "learn"]],
                             ids=["cluster", "layout"])
    def test_failing_step_is_named(self, command, tmp_path, capsys):
        # four nodes on a ring at t=0, two at t=1: too few for three clusters
        edges = [(0, "a", "b"), (0, "b", "c"), (0, "c", "d"), (0, "a", "d"), (1, "a", "b")]
        snaps = tmp_path / "shrinking.tsv"
        snaps.write_text("".join(f"{t}\t{u}\t{v}\t1\n" for t, u, v in edges),
                         encoding="utf-8")
        code = run([*command, "--input", str(snaps), "--k", "3",
                    "--out", str(tmp_path / "x")])
        assert code == 2
        assert capsys.readouterr().err == \
            "data error: step t=1: cannot form 3 clusters from 2 nodes\n"

    @pytest.mark.parametrize("k", [0, -1])
    @pytest.mark.parametrize("command", [
        ["cluster"], ["layout", "--groups", "learn"],
        ["sweep", "--groups", "learn", "--alphas", "1", "--betas", "1"]],
        ids=["cluster", "layout", "sweep"])
    def test_k_below_two_is_one_data_error(self, command, k, tmp_path, capsys):
        edges = [(0, "a", "b"), (0, "b", "c"), (0, "c", "d"), (0, "a", "d")]
        snaps = tmp_path / "ring.tsv"
        snaps.write_text("".join(f"{t}\t{u}\t{v}\t1\n" for t, u, v in edges),
                         encoding="utf-8")
        code = run([*command, "--input", str(snaps), "--k", str(k),
                    "--out", str(tmp_path / "x")])
        assert code == 2
        assert capsys.readouterr().err == "data error: step t=0: clustering needs k >= 2\n"


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
    @pytest.mark.parametrize("method", METHODS)
    def test_recomputed_costs_match_run(self, method, sbm_fixture, churn_fixture, tmp_path):
        _, snaps, groups = sbm_fixture
        # known groups on the block model; learned groups (scored against
        # the labels stored in the layout) on the churned sequence; the
        # golden block model at both dimensions, whose eigen layouts hold
        # column slices that a reloaded layout does not
        sbm_groups = ["--groups", str(groups), "--k", "2"]
        golden = make_golden.DATA / make_golden.SBM_INPUT
        golden_groups = ["--groups", f"{golden}.groups.tsv", "--k", "4"]
        inputs = {"sbm": (snaps, sbm_groups, ["--seed", "3"], sbm_groups),
                  "churn": (churn_fixture, ["--groups", "learn", "--k", "2"], ["--seed", "3"],
                            []),
                  **{f"golden-{s}d": (f"{golden}.snapshots.tsv", golden_groups,
                                      ["--seed", "1", "--dims", s], golden_groups)
                     for s in ("1", "2")}}
        for name, (path, layout_groups, options, metrics_groups) in inputs.items():
            out = tmp_path / name
            assert run(["layout", "--input", str(path), *layout_groups,
                        "--method", method, *options, "--out", str(out)]) == 0
            costs = tmp_path / f"{name}.recomputed.csv"
            code = run(["metrics", "--input", str(path), *metrics_groups,
                        "--layout", str(tmp_path / f"{name}.layout.json"),
                        "--out", str(costs)])
            assert code == 0
            original = (tmp_path / f"{name}.costs.csv").read_text().splitlines()
            recomputed = costs.read_text().splitlines()
            assert len(original) == len(recomputed) > 1
            for line_a, line_b in zip(original[1:], recomputed[1:]):
                # static/centroid/temporal agree; iterations are not recomputed
                assert line_a.split(",")[:4] == line_b.split(",")[:4], name

    @pytest.mark.parametrize("edit", ["swapped", "dropped"])
    def test_layout_ids_must_match_snapshot(self, edit, sbm_fixture, tmp_path, capsys):
        _, snaps, _ = sbm_fixture
        out = tmp_path / "idrun"
        assert run(["layout", "--input", str(snaps), "--method", "dmds", "--seed", "3",
                    "--out", str(out)]) == 0
        layout = tmp_path / "idrun.layout.json"
        doc = json.loads(layout.read_text())
        nodes = doc["steps"][1]["nodes"]
        if edit == "swapped":
            nodes[0]["id"], nodes[1]["id"] = nodes[1]["id"], nodes[0]["id"]
        else:
            del nodes[0]
        layout.write_text(json.dumps(doc), encoding="utf-8")
        code = run(["metrics", "--input", str(snaps), "--layout", str(layout),
                    "--out", str(tmp_path / "idcosts.csv")])
        assert code == 2
        assert "step t=1" in capsys.readouterr().err


    def test_similarity_mode_is_used_for_static_cost(self, tmp_path):
        # weighted similarities: the recomputed stress must use the same
        # dissimilarities as the layout run, not the raw weights
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
