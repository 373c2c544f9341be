"""File formats: snapshot / groups TSV, layout JSON and CSV.

Snapshot TSV: one record per line, ``t <TAB> u <TAB> v <TAB> w`` with t a
nonnegative integer time step, u/v node identifiers, w a positive decimal
weight; lines starting with ``#`` are comments. Duplicate undirected
records merge by max with a warning.

Groups TSV: ``t <TAB> u <TAB> label`` with positive integer labels;
omitted nodes have unknown membership.

Layout JSON: one document per run with the run metadata and per-step node
records; floats use Python's shortest round-trip repr, so reloads are
bit-faithful.

Every reader goes through ``_read_text`` and every writer, the renderer's
included, through ``_write_text``: a file that cannot be read or written
is a DataError naming it.
"""

from __future__ import annotations

import csv
import json
import logging
from io import StringIO
from pathlib import Path
from typing import Optional

import numpy as np

from .distances import top_m_graph
from .errors import DataError
from .graph import DynamicNetwork, GroupAssignment, NodeRegistry, Snapshot
from .pipeline import LayoutSequence, LayoutStep

logger = logging.getLogger(__name__)

INGEST_KINDS = ("edge_tsv", "rank_matrix", "count_matrix")


def _read_text(path) -> str:
    """Text of a UTF-8 input file; a file that cannot be read is a DataError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read input {path}: {exc}") from None


def _write_text(path, text: str, newline: Optional[str] = None, parents: bool = False) -> None:
    """Write ``text`` to ``path`` as UTF-8, first creating the directories
    above it when ``parents``; a file or directory that cannot be written or
    made is a DataError naming it."""
    try:
        if parents:
            Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline=newline) as fh:
            fh.write(text)
    except OSError as exc:
        raise DataError(f"cannot write output {exc.filename or path}: "
                        f"{exc.strerror or exc}") from None


def _tsv_rows(path, fields: int):
    """(line number, fields) of every record line of a TSV file: blank lines
    and ``#`` comments are skipped, a line with another field count is a
    DataError naming the line."""
    for lineno, line in enumerate(_read_text(path).split("\n"), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != fields:
            raise DataError(f"{path}:{lineno}: expected {fields} tab-separated fields, "
                            f"got {len(parts)}")
        yield lineno, parts


def _write_tsv(path, rows) -> None:
    _write_text(path, "".join("\t".join(map(str, row)) + "\n" for row in rows))


def _parse_records(path) -> list[tuple[int, str, str, float, int]]:
    records = []
    for lineno, (t_str, u, v, w_str) in _tsv_rows(path, 4):
        try:
            t = int(t_str)
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad time step {t_str!r}") from None
        if t < 0:
            raise DataError(f"{path}:{lineno}: negative time step {t}")
        try:
            w = float(w_str)
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad weight {w_str!r}") from None
        if not np.isfinite(w) or w <= 0:
            raise DataError(f"{path}:{lineno}: weight must be positive, got {w_str}")
        if u == v:
            raise DataError(f"{path}:{lineno}: self-loop on {u!r}")
        records.append((t, u, v, w, lineno))
    if not records:
        raise DataError(f"{path}: no records found")
    return records


def ingest_snapshots(path, kind: str = "edge_tsv", m: Optional[int] = None,
                     weighting: str = "unit") -> DynamicNetwork:
    """Load a dynamic network from disk.

    edge_tsv records are edges as-is. rank_matrix records are directed
    preference ranks (1 = most preferred); each node is connected to its m
    most preferred peers. count_matrix records are directed scores (higher
    = stronger); each node is connected to its m highest-scoring peers.
    Both matrix kinds symmetrize by max, and a repeated (t, u, v) record
    keeps its last value. A snapshot holds the nodes left with an edge.
    """
    if kind not in INGEST_KINDS:
        raise DataError(f"unknown ingestion kind {kind!r}; choose from {INGEST_KINDS}")
    if kind != "edge_tsv" and m is None:
        raise DataError(f"{kind} ingestion requires m")
    records = _parse_records(path)
    registry = NodeRegistry(u for _, u, v, _, _ in records for u in (u, v))
    by_t: dict[int, list] = {}
    for record in records:
        by_t.setdefault(record[0], []).append(record)
    times = sorted(by_t)
    if times != list(range(len(times))):
        raise DataError(f"time steps must be 0..T-1 without gaps, found {times}")
    # lower rank = more preferred; flip to scores so top-m picks them
    flip = max(w for _, _, _, w, _ in records) + 1.0 if kind == "rank_matrix" else None
    snapshots = []
    for t in times:
        # every node an edge names keeps an edge (weights are positive, no
        # self-loops); top_m_graph checks m against the whole registry
        nodes = sorted({registry.index_of(x) for _, u, v, _, _ in by_t[t] for x in (u, v)}) \
            if kind == "edge_tsv" else range(len(registry))
        row_of = {idx: row for row, idx in enumerate(nodes)}
        W = np.zeros((len(nodes), len(nodes)))
        for _, u, v, w, lineno in by_t[t]:
            a, b = row_of[registry.index_of(u)], row_of[registry.index_of(v)]
            if kind != "edge_tsv":
                W[a, b] = w
                continue
            if W[a, b] and W[a, b] != w:
                logger.warning("%s:%d: duplicate edge (%s,%s) at t=%d; keeping max of "
                               "%g and %g", path, lineno, u, v, t, W[a, b], w)
            W[a, b] = W[b, a] = max(W[a, b], w)
        if kind == "rank_matrix":
            ranked = W > 0
            W[ranked] = flip - W[ranked]
        if kind != "edge_tsv":  # keep the nodes left with an edge
            W = top_m_graph(W, m, weighting)
            nodes = np.flatnonzero(W.sum(axis=1) > 0)
            W = W[np.ix_(nodes, nodes)]
        snapshots.append(Snapshot(t=t, W=W, active=tuple(int(i) for i in nodes)))
    return DynamicNetwork(registry, snapshots)


def parse_snapshots(path) -> DynamicNetwork:
    """Parse an edge TSV file into a validated dynamic network."""
    return ingest_snapshots(path)


def write_snapshots(network: DynamicNetwork, path) -> None:
    """Serialize to canonical snapshot TSV (sorted records, u < v)."""
    rows = []
    for snap in network.snapshots:
        ids = [network.registry.id_of(idx) for idx in snap.active]
        for a, b in zip(*np.nonzero(np.triu(snap.W, 1))):
            rows.append((snap.t, *sorted((ids[a], ids[b])), repr(float(snap.W[a, b]))))
    _write_tsv(path, sorted(rows))


def parse_groups(path, network: DynamicNetwork, k: Optional[int] = None) -> DynamicNetwork:
    """Attach group labels from a groups TSV to a network's snapshots."""
    labels_at: dict[tuple[int, str], int] = {}
    max_label = 0
    for lineno, (t_str, u, lab_str) in _tsv_rows(path, 3):
        try:
            t = int(t_str)
            lab = int(lab_str)
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad integer field") from None
        if lab < 1:
            raise DataError(f"{path}:{lineno}: labels must be positive integers")
        if u not in network.registry:
            raise DataError(f"{path}:{lineno}: unknown node id {u!r}")
        if not 0 <= t < len(network):
            raise DataError(f"{path}:{lineno}: time step {t} outside the network")
        labels_at[t, u] = lab
        max_label = max(max_label, lab)
    k = max_label if k is None else k
    if max_label > k:
        raise DataError(f"{path}: label {max_label} exceeds k={k}")
    groups = []
    for snap in network.snapshots:
        labels = tuple(labels_at.get((snap.t, network.registry.id_of(idx)))
                       for idx in snap.active)
        groups.append(GroupAssignment(labels=labels, k=k) if any(
            lab is not None for lab in labels) else None)
    return network.with_groups(groups)


def write_groups(path, network: DynamicNetwork) -> None:
    _write_tsv(path, ((snap.t, network.registry.id_of(idx), lab)
                      for snap in network.snapshots if snap.groups is not None
                      for idx, lab in zip(snap.active, snap.groups.labels) if lab is not None))


# ---------------------------------------------------------------------------
# layout export / reload

def export_layouts(sequence: LayoutSequence, path) -> None:
    """Write a layout sequence as a LayoutJson document."""
    steps = []
    for step in sequence.steps:
        nodes = []
        for row, node_id in enumerate(step.ids):
            labels = step.labels[row] if step.labels is not None else None
            nodes.append({
                "id": node_id,
                "x": [float(v) for v in step.X[row]],
                "group": labels,
            })
        steps.append({
            "t": step.t,
            "nodes": nodes,
            "representatives": None if step.Y is None else
            [[float(v) for v in row] for row in step.Y],
        })
    _write_text(path, json.dumps({**sequence.metadata, "steps": steps}, indent=1) + "\n")


def import_layouts(path) -> LayoutSequence:
    """Reload a LayoutJson document; a malformed one is a DataError naming
    the file and, for a bad step record, the step. Every coordinate row
    (``x`` and ``representatives``) must hold as many finite entries as the
    integer ``dims`` field says, or, without one, as the first step's, and
    every ``group`` must be null or an integer >= 1. A coordinate must be a
    JSON number: a string or a bool that numpy would convert is rejected."""
    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("steps"), list):
        raise DataError(f"{path}: not a layout document (missing 'steps')")
    metadata = {key: value for key, value in doc.items() if key != "steps"}
    width = doc.get("dims") if type(doc.get("dims")) is int else None
    steps = []
    for position, raw in enumerate(doc["steps"]):
        try:
            ids = tuple(node["id"] for node in raw["nodes"])
            rows = {"x": [node["x"] for node in raw["nodes"]],
                    "representatives": raw.get("representatives")}
            X = np.array(rows["x"], dtype=float)
            labels = tuple(node["group"] for node in raw["nodes"])
            Y = None if rows["representatives"] is None else \
                np.array(rows["representatives"], dtype=float)
            t = raw["t"]
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: step {position}: bad layout record: {exc!r}") from None
        if type(t) is not int:
            raise DataError(f"{path}: step {position}: time step {t!r} is not an integer")
        for name, values in rows.items():
            bad = [v for row in values or () if isinstance(row, list) for v in row
                   if type(v) not in (int, float)]
            if bad:
                raise DataError(f"{path}: step {position}: '{name}' holds {bad[0]!r}, "
                                "which is not a JSON number")
        for name, A in (("x", X), ("representatives", Y)):
            if width is None and A is not None and A.ndim == 2:
                width = A.shape[1]
            if A is not None and (A.shape[1:] != (width,) or not np.isfinite(A).all()):
                raise DataError(f"{path}: step {position}: '{name}' is not a list of rows "
                                f"of {width} finite coordinates")
        for label in labels:
            if label is not None and (type(label) is not int or label < 1):
                raise DataError(f"{path}: step {position}: group {label!r} is not null "
                                "or an integer >= 1")
        if all(lab is None for lab in labels):
            labels = None
        steps.append(LayoutStep(t=t, ids=ids, X=X, labels=labels, Y=Y))
    return LayoutSequence(metadata=metadata, steps=steps)


def _cell(value) -> str:
    """CSV cell of a float: its shortest round-trip repr, empty when undefined."""
    return "" if value is None else repr(float(value))


def _write_csv(path, header, rows) -> None:
    text = StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    _write_text(path, text.getvalue(), newline="")


def write_cost_csv(report, path) -> None:
    """Per-step cost table; empty cells where a cost is undefined."""
    _write_csv(path, ["t", "static_cost", "centroid_cost", "temporal_cost", "iterations"],
               ([step.t, _cell(step.static_cost), _cell(step.centroid_cost),
                 _cell(step.temporal_cost), "" if step.iterations is None else step.iterations]
                for step in report.steps))


def write_sweep_csv(records, path) -> None:
    header = ["alpha", "beta", "mean_static", "mean_centroid", "mean_temporal",
              "mean_iterations"]
    _write_csv(path, header, ([_cell(rec[key]) for key in header] for rec in records))


def write_alpha_csv(alphas, path) -> None:
    """Per-step forgetting factors of the on-line clustering."""
    _write_csv(path, ["t", "alpha"], ([t, _cell(alpha)] for t, alpha in enumerate(alphas)))
