"""Regenerate the golden CLI runs in this directory, check them, or digest
the output of a wider run matrix.

Usage, from the repository root:

    PYTHONPATH=src python3 tests/data/make_golden.py
    PYTHONPATH=src python3 tests/data/make_golden.py --check
    PYTHONPATH=src python3 tests/data/make_golden.py --digest OUT
    PYTHONPATH=src python3 tests/data/make_golden.py --compare A B

Without options it rewrites the inputs it generates (the block-model
input ``golden_sbm.*.tsv``, the churned ``golden_churn.*.tsv`` and the
preference records ``golden_rank.snapshots.tsv`` and
``golden_count.snapshots.tsv``) and the ``.layout.json`` / ``.costs.csv``
output of every run in ``GOLDEN_RUNS``. With ``--check`` it writes the same files
into a temporary directory instead (the layout runs still read the
committed inputs), compares each one byte for byte with the committed
file, lists the ones that differ and exits 1 if any does; it rewrites
nothing. ``tests/test_cli.py::TestGoldenFixture`` imports the same argument
lists, so the commands that froze a fixture and the ones that check it
cannot drift apart. Every regenerated fixture must be justified in
CHANGES.md.

``--digest OUT`` runs ``run_sequence`` over ``digest_matrix()``: every
method x groups mode (none, known, learn) x ``--dims`` 1 and 2 on three
block-model networks of the acceptance protocol, the same three with nodes
0-2 dropped at every odd step, and two n = 200 networks (without DGLL), all
at alpha = beta = 1; and ``dgll`` with known groups at alpha, beta in
{0.1, 10} x {0.1, 10} and ``--dims`` 1 and 2 on the three protocol
networks, whose harder penalty problems take many more trust-region steps;
and ``spectral``, ``ccdr``, ``bfp`` and ``dgll`` x groups mode x ``--dims``
1 and 2 with the unnormalized Laplacian (``normalized=False``: unit node
weights in the scatter constraint) on the six protocol networks, plain and
churned. It
writes two SHA-256 per run, together with the run's coordinates and stress
traces: one over X, Y, labels, the three costs and iterations (or over the
error text of a run that raised), and one over the stress traces alone.
Each network adds one clustering record (``<network>/cluster``): the
SHA-256 of the labels and forgetting factors of
``learn_group_sequence(network, 4, seed)``, with the factors as its
coordinates; so does each protocol network of seeds 0-49
(``protocol-seed<s>/cluster``). ``--compare A B`` reads two such files, lists
each run whose digest differs with its largest coordinate change, or, when
only the traces moved, with "traces only" and their largest relative change,
and exits 1 if any run differs. The bits depend on the BLAS build, so
compare files made on one machine only, e.g. a parent commit's against a
change's.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np

from dynlayout import io as dio
from dynlayout.cli import cli_main
from dynlayout.graph import DynamicNetwork, GroupAssignment, Snapshot
from dynlayout.pipeline import (GLL_METHODS, METHODS, RegularizationConfig,
                                learn_group_sequence, run_sequence)
from dynlayout.sbm import SbmConfig, sbm_sequence

DATA = Path(__file__).resolve().parent

SBM_INPUT = "golden_sbm"
SBM_ARGS = ("simulate-sbm", "--n", "30", "--k", "4", "--steps", "8", "--change-step", "4",
            "--seed", "1")
CHURN_INPUT = "golden_churn"
RANK_INPUT = "golden_rank"
COUNT_INPUT = "golden_count"

# run name -> (input prefix, output prefix, `dynlayout layout` options)
GOLDEN_RUNS = {
    "dmds": ("golden", "golden_run",
             ("--k", "2", "--method", "dmds", "--alpha", "1", "--beta", "1", "--seed", "13")),
    "dmds-1d": (SBM_INPUT, "golden_dmds_1d",
                ("--k", "4", "--method", "dmds", "--seed", "1", "--dims", "1")),
    "mds-static-2d": (SBM_INPUT, "golden_mds_static_2d",
                      ("--k", "4", "--method", "mds-static", "--seed", "1", "--dims", "2")),
    "mds-stabilized-2d": (SBM_INPUT, "golden_mds_stabilized_2d",
                          ("--k", "4", "--method", "mds-stabilized", "--seed", "1",
                           "--dims", "2")),
    "dgll-1d": (SBM_INPUT, "golden_dgll_1d",
                ("--k", "4", "--method", "dgll", "--seed", "1", "--dims", "1")),
    "dgll-2d": (SBM_INPUT, "golden_dgll_2d",
                ("--k", "4", "--method", "dgll", "--seed", "1", "--dims", "2")),
    "spectral-1d": (SBM_INPUT, "golden_spectral_1d",
                    ("--k", "4", "--method", "spectral", "--seed", "1", "--dims", "1")),
    "spectral-2d": (SBM_INPUT, "golden_spectral_2d",
                    ("--k", "4", "--method", "spectral", "--seed", "1", "--dims", "2")),
    "ccdr-1d": (SBM_INPUT, "golden_ccdr_1d",
                ("--k", "4", "--method", "ccdr", "--seed", "1", "--dims", "1")),
    "bfp-1d": (SBM_INPUT, "golden_bfp_1d",
               ("--k", "4", "--method", "bfp", "--seed", "1", "--dims", "1")),
    "bfp-2d": (SBM_INPUT, "golden_bfp_2d",
               ("--k", "4", "--method", "bfp", "--seed", "1", "--dims", "2")),
    "ccdr-2d": (SBM_INPUT, "golden_ccdr_2d",
                ("--k", "4", "--method", "ccdr", "--seed", "1", "--dims", "2")),
    "mds-static-1d": (SBM_INPUT, "golden_mds_static_1d",
                      ("--k", "4", "--method", "mds-static", "--seed", "1", "--dims", "1")),
    "mds-stabilized-1d": (SBM_INPUT, "golden_mds_stabilized_1d",
                          ("--k", "4", "--method", "mds-stabilized", "--seed", "1",
                           "--dims", "1")),
    "dmds-learn-2d": (SBM_INPUT, "golden_dmds_learn_2d",
                      ("--groups", "learn", "--k", "4", "--method", "dmds", "--seed", "1",
                       "--dims", "2")),
    "dgll-learn-2d": (SBM_INPUT, "golden_dgll_learn_2d",
                      ("--groups", "learn", "--k", "4", "--method", "dgll", "--seed", "1",
                       "--dims", "2")),
    "dmds-churn-2d": (CHURN_INPUT, "golden_dmds_churn_2d",
                      ("--k", "4", "--method", "dmds", "--seed", "1", "--dims", "2")),
    "dgll-churn-2d": (CHURN_INPUT, "golden_dgll_churn_2d",
                      ("--k", "4", "--method", "dgll", "--seed", "1", "--dims", "2")),
    "dmds-rank-2d": (RANK_INPUT, "golden_dmds_rank_2d",
                     ("--groups", "none", "--ingest-kind", "rank_matrix", "--m", "3",
                      "--weighting", "rank_descending", "--method", "dmds", "--seed", "1",
                      "--dims", "2")),
    "dmds-count-2d": (COUNT_INPUT, "golden_dmds_count_2d",
                      ("--groups", "none", "--ingest-kind", "count_matrix", "--m", "3",
                       "--method", "dmds", "--seed", "1", "--dims", "2")),
}


def layout_argv(name: str, out_prefix) -> list[str]:
    """The `dynlayout layout` arguments of golden run ``name``, with output
    written under ``out_prefix`` and, unless its options choose ``--groups``,
    known groups read from this directory."""
    inputs, _, options = GOLDEN_RUNS[name]
    groups = () if "--groups" in options else ("--groups", str(DATA / f"{inputs}.groups.tsv"))
    return ["layout", "--input", str(DATA / f"{inputs}.snapshots.tsv"), *groups, *options,
            "--out", str(out_prefix)]


def write_inputs(out_dir: Path) -> list[str]:
    """Write the generated inputs other than the block model's under
    ``out_dir``; returns the names of the files written.

    The churned input is a block model (n = 24, k = 4, six nodes per
    group) whose group 4 first appears at t = 2 and whose group 3 empties
    from t = 4 on. The rank and count inputs hold directed preference
    records over ten nodes and four steps: each present node scores five
    peers, node q09 is absent at t = 1, and the first record is repeated
    at the end with another value."""
    net = sbm_sequence(SbmConfig.two_rate(n=24, k=4, p_in=0.6, p_out=0.2, T=6,
                                          seed=2, balanced=True))
    first = net.snapshots[0]
    members = {lab: {idx for idx, g in zip(first.active, first.groups.labels) if g == lab}
               for lab in (3, 4)}
    churned = _drop_nodes(net, lambda t: members[4] if t < 2 else
                          members[3] if t >= 4 else set())
    dio.write_snapshots(churned, out_dir / f"{CHURN_INPUT}.snapshots.tsv")
    dio.write_groups(out_dir / f"{CHURN_INPUT}.groups.tsv", churned)
    for name, ranked in ((RANK_INPUT, True), (COUNT_INPUT, False)):
        rng = np.random.default_rng(3)
        lines = []
        for t in range(4):
            present = [i for i in range(10) if not (t == 1 and i == 9)]
            for u in present:
                peers = rng.choice([v for v in present if v != u], size=5, replace=False)
                values = range(1, 6) if ranked else rng.integers(1, 10, size=5)
                lines += [f"{t}\tq{u:02d}\tq{v:02d}\t{w}" for v, w in zip(peers, values)]
        lines.append(lines[0].rsplit("\t", 1)[0] + "\t4")
        (out_dir / f"{name}.snapshots.tsv").write_text("\n".join(lines) + "\n",
                                                      encoding="utf-8")
    return [f"{CHURN_INPUT}.snapshots.tsv", f"{CHURN_INPUT}.groups.tsv",
            f"{RANK_INPUT}.snapshots.tsv", f"{COUNT_INPUT}.snapshots.tsv"]


def regenerate(out_dir: Path) -> list[str]:
    """Write the generated inputs and run every golden command, with the
    output under ``out_dir``; returns the names of the files written."""
    written = write_inputs(out_dir)
    commands = [([*SBM_ARGS, "--out", str(out_dir / SBM_INPUT)],
                 [f"{SBM_INPUT}.snapshots.tsv", f"{SBM_INPUT}.groups.tsv"])]
    commands += [(layout_argv(name, out_dir / out), [f"{out}.layout.json", f"{out}.costs.csv"])
                 for name, (_, out, _) in GOLDEN_RUNS.items()]
    for argv, _ in commands:
        if cli_main(argv) != 0:
            raise SystemExit(f"failed: dynlayout {' '.join(argv)}")
    return written + [name for _, files in commands for name in files]


def _drop_nodes(network: DynamicNetwork, dropped_at) -> DynamicNetwork:
    """The same network without the registry nodes ``dropped_at(t)`` at
    each step t."""
    snaps = []
    for snap in network.snapshots:
        dropped = dropped_at(snap.t)
        keep = [row for row, idx in enumerate(snap.active) if idx not in dropped]
        groups = None if snap.groups is None else GroupAssignment(
            tuple(snap.groups.labels[row] for row in keep), snap.groups.k)
        snaps.append(Snapshot(t=snap.t, W=snap.W[np.ix_(keep, keep)],
                              active=tuple(snap.active[row] for row in keep), groups=groups))
    return DynamicNetwork(network.registry, snaps)


def protocol_network(seed: int) -> DynamicNetwork:
    """The block-model network of the acceptance protocol at ``seed``."""
    return sbm_sequence(SbmConfig.two_rate(n=30, k=4, p_in=0.6, p_out=0.2, T=20,
                                           change_step=10, change_fraction=0.25, seed=seed))


def digest_networks():
    """(network name, network, seed, methods) for every network of the digest."""
    networks = []
    for seed in (1, 2, 3):
        net = protocol_network(seed)
        churned = _drop_nodes(net, lambda t: {0, 1, 2} if t % 2 else set())
        networks += [(f"protocol{seed}", net, seed, METHODS),
                     (f"protocol{seed}-churn", churned, seed, METHODS)]
    for seed in (1, 2):
        net = sbm_sequence(SbmConfig.two_rate(n=200, k=4, p_in=0.15, p_out=0.03, T=3,
                                              change_step=2, change_fraction=0.25,
                                              seed=seed))
        networks.append((f"large{seed}", net, seed, tuple(m for m in METHODS if m != "dgll")))
    return networks


def cluster_networks():
    """(network name, network, seed) for every clustering record: the digest
    networks, then the acceptance protocol's networks of seeds 0-49."""
    return ([(net_name, network, seed) for net_name, network, seed, _ in digest_networks()]
            + [(f"protocol-seed{seed}", protocol_network(seed), seed) for seed in range(50)])


def digest_matrix():
    """Yield (run name, network, config) for every run of the digest."""
    for net_name, network, seed, methods in digest_networks():
        for method in methods:
            for groups in ("none", "known", "learn"):
                for dims in (1, 2):
                    config = RegularizationConfig(method=method, alpha=1.0, beta=1.0,
                                                  dims=dims, seed=seed, groups=groups,
                                                  k=4 if groups == "learn" else None)
                    yield f"{net_name}/{method}/{groups}/{dims}d", network, config
        if net_name.startswith("protocol") and not net_name.endswith("-churn"):
            # the penalty weights away from 1 make the harder DGLL solves
            for alpha in (0.1, 10.0):
                for beta in (0.1, 10.0):
                    for dims in (1, 2):
                        config = RegularizationConfig(method="dgll", alpha=alpha, beta=beta,
                                                      dims=dims, seed=seed, groups="known")
                        yield (f"{net_name}/dgll/known/{dims}d/alpha{alpha:g}-beta{beta:g}",
                               network, config)
        if net_name.startswith("protocol"):
            # the unnormalized Laplacian problems (the plain scatter constraint)
            for method in GLL_METHODS:
                for groups in ("none", "known", "learn"):
                    for dims in (1, 2):
                        config = RegularizationConfig(method=method, alpha=1.0, beta=1.0,
                                                      dims=dims, seed=seed, groups=groups,
                                                      k=4 if groups == "learn" else None,
                                                      normalized=False)
                        yield (f"{net_name}/{method}/{groups}/{dims}d/unnormalized",
                               network, config)


def output_record(sequence=None, report=None, error: str | None = None) -> dict:
    """Digest record of one run: the SHA-256 of its output (or of the error
    text of a run that raised) and its coordinates, X then Y per step; and
    apart from them the SHA-256 of its stress traces and the traces, step
    after step."""
    h, h_trace = hashlib.sha256(), hashlib.sha256()
    coords, traces = [], []
    if error is not None:
        h.update(error.encode())
    else:
        for step, costs in zip(sequence.steps, report.steps, strict=True):
            for A in (step.X, step.Y):
                A = np.zeros((0, 0)) if A is None else np.ascontiguousarray(A, dtype=float)
                h.update(repr(A.shape).encode() + A.tobytes())
                coords.append(A.ravel())
            h.update(repr((step.labels, costs.static_cost, costs.centroid_cost,
                           costs.temporal_cost, costs.iterations)).encode())
            h_trace.update(repr(costs.stress_trace).encode())
            traces.extend(costs.stress_trace or ())
    return {"sha256": h.hexdigest(), "trace_sha256": h_trace.hexdigest(), "error": error,
            "coordinates": np.concatenate(coords).tolist() if coords else [],
            "traces": traces}


def run_record(network: DynamicNetwork, config: RegularizationConfig) -> dict:
    try:
        sequence, report = run_sequence(network, config)
    except Exception as exc:  # the digest records a failed run, it does not stop
        return output_record(error=f"{type(exc).__name__}: {exc}")
    return output_record(sequence, report)


def cluster_record(network: DynamicNetwork, seed: int) -> dict:
    """Digest record of the on-line clustering of a network at k = 4: the
    SHA-256 of its labels and forgetting factors (or of the error text),
    with the factors as coordinates."""
    try:
        labels, alphas = learn_group_sequence(network, 4, seed)
    except Exception as exc:  # recorded like a failed run
        return output_record(error=f"{type(exc).__name__}: {exc}")
    return {"sha256": hashlib.sha256(repr((labels, alphas)).encode()).hexdigest(),
            "trace_sha256": hashlib.sha256().hexdigest(), "error": None,
            "coordinates": list(alphas), "traces": []}


def write_digest(records: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(records, fh)
        fh.write("\n")


def compare_digests(path_a, path_b) -> list[str]:
    """One line per run whose digest differs between two digest files."""
    runs = []
    for path in (path_a, path_b):
        with open(path, encoding="utf-8") as fh:
            runs.append(json.load(fh))
    a, b = runs
    lines = []
    for name in sorted(a.keys() | b.keys()):
        if name not in a or name not in b:
            lines.append(f"differs: {name} (only in {path_a if name in a else path_b})")
            continue
        ra, rb = a[name], b[name]
        if ra["sha256"] == rb["sha256"]:
            if ra["trace_sha256"] != rb["trace_sha256"]:
                ta, tb = np.array(ra["traces"]), np.array(rb["traces"])
                rel = np.abs(ta - tb) / np.maximum(np.abs(ta), np.finfo(float).tiny)
                lines.append(f"differs: {name} (traces only, largest relative change "
                             f"{np.max(rel, initial=0.0):.3e})")
            continue
        xa, xb = np.array(ra["coordinates"]), np.array(rb["coordinates"])
        change = (f"largest coordinate change {np.max(np.abs(xa - xb), initial=0.0):.3e}"
                  if xa.shape == xb.shape else
                  f"{xa.size} against {xb.size} coordinates; errors "
                  f"{ra['error']!r} against {rb['error']!r}")
        lines.append(f"differs: {name} ({change})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate or check the golden CLI runs, or digest a run matrix.")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="compare fresh runs with the committed files; rewrite nothing")
    mode.add_argument("--digest", metavar="OUT",
                      help="write one SHA-256 per run of the digest matrix to OUT")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"),
                      help="list the runs whose digests differ between two digest files")
    args = parser.parse_args(argv)
    if args.digest:
        records = {name: run_record(network, config)
                   for name, network, config in digest_matrix()}
        records.update({f"{net_name}/cluster": cluster_record(network, seed)
                        for net_name, network, seed in cluster_networks()})
        write_digest(records, args.digest)
        combined = hashlib.sha256("".join(r["sha256"] + r["trace_sha256"]
                                          for r in records.values()).encode())
        failed = sum(r["error"] is not None for r in records.values())
        print(f"{len(records)} runs ({failed} raised), combined SHA-256 {combined.hexdigest()}")
        return 0
    if args.compare:
        lines = compare_digests(*args.compare)
        print("\n".join(lines) if lines else "every run has the same digest")
        return 1 if lines else 0
    if not args.check:
        regenerate(DATA)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        fresh = Path(tmp)
        differ = [name for name in regenerate(fresh)
                  if not (DATA / name).is_file()
                  or (fresh / name).read_bytes() != (DATA / name).read_bytes()]
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(differ)} golden file(s) differ from a fresh run" if differ
          else "every golden file matches a fresh run byte for byte")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
