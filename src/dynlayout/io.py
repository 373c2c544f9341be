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
"""

from __future__ import annotations

import csv
import json
import logging
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


def _parse_records(path) -> list[tuple[int, str, str, float, int]]:
    records = []
    for lineno, line in enumerate(_read_text(path).split("\n"), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise DataError(f"{path}:{lineno}: expected 4 tab-separated fields, "
                            f"got {len(parts)}")
        t_str, u, v, w_str = parts
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


def _network_from_weight_maps(weights_by_t: dict[int, dict[tuple[str, str], float]],
                              registry: NodeRegistry) -> DynamicNetwork:
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


def parse_snapshots(path) -> DynamicNetwork:
    """Parse an edge TSV file into a validated dynamic network."""
    records = _parse_records(path)
    registry = NodeRegistry(u for _, u, v, _, _ in records for u in (u, v))
    weights_by_t: dict[int, dict[tuple[str, str], float]] = {}
    for t, u, v, w, lineno in records:
        key = (min(u, v), max(u, v))
        per_t = weights_by_t.setdefault(t, {})
        if key in per_t:
            if per_t[key] != w:
                logger.warning("%s:%d: duplicate edge (%s,%s) at t=%d; keeping max of "
                               "%g and %g", path, lineno, u, v, t, per_t[key], w)
            per_t[key] = max(per_t[key], w)
        else:
            per_t[key] = w
    return _network_from_weight_maps(weights_by_t, registry)


def write_snapshots(network: DynamicNetwork, path) -> None:
    """Serialize to canonical snapshot TSV (sorted records, u < v)."""
    lines = []
    for snap in network.snapshots:
        for a, b in zip(*np.nonzero(np.triu(snap.W, 1))):
            u = network.registry.id_of(snap.active[a])
            v = network.registry.id_of(snap.active[b])
            u, v = min(u, v), max(u, v)
            lines.append((snap.t, u, v, repr(float(snap.W[a, b]))))
    lines.sort()
    with open(path, "w", encoding="utf-8") as fh:
        for t, u, v, w in lines:
            fh.write(f"{t}\t{u}\t{v}\t{w}\n")


def _scores_from_records(records, registry: NodeRegistry) -> dict[int, np.ndarray]:
    n = len(registry)
    by_t: dict[int, np.ndarray] = {}
    for t, u, v, w, _ in records:
        S = by_t.setdefault(t, np.zeros((n, n)))
        S[registry.index_of(u), registry.index_of(v)] = w
    return by_t


def ingest_snapshots(path, kind: str = "edge_tsv", m: Optional[int] = None,
                     weighting: str = "unit") -> DynamicNetwork:
    """Load a dynamic network from disk.

    edge_tsv records are edges as-is. rank_matrix records are directed
    preference ranks (1 = most preferred); each node is connected to its m
    most preferred peers. count_matrix records are directed scores (higher
    = stronger); each node is connected to its m highest-scoring peers.
    Both matrix kinds symmetrize by max.
    """
    if kind not in INGEST_KINDS:
        raise DataError(f"unknown ingestion kind {kind!r}; choose from {INGEST_KINDS}")
    if kind == "edge_tsv":
        return parse_snapshots(path)
    if m is None:
        raise DataError(f"{kind} ingestion requires m")
    records = _parse_records(path)
    registry = NodeRegistry(u for _, u, v, _, _ in records for u in (u, v))
    by_t = _scores_from_records(records, registry)
    times = sorted(by_t)
    if times != list(range(len(times))):
        raise DataError(f"time steps must be 0..T-1 without gaps, found {times}")
    if kind == "rank_matrix":
        # lower rank = more preferred; flip to scores so top-m picks them
        max_rank = max(w for _, _, _, w, _ in records)
        for t in times:
            S = by_t[t]
            nz = S > 0
            S[nz] = max_rank + 1.0 - S[nz]
    snapshots = []
    for t in times:
        W = top_m_graph(by_t[t], m, weighting)
        # keep only nodes that ended up with an edge, as in edge ingestion
        incident = np.flatnonzero(W.sum(axis=1) > 0)
        active = tuple(int(i) for i in incident)
        W = W[np.ix_(incident, incident)]
        snapshots.append(Snapshot(t=t, W=W, active=active))
    return DynamicNetwork(registry, snapshots)


def parse_groups(path, network: DynamicNetwork, k: Optional[int] = None) -> DynamicNetwork:
    """Attach group labels from a groups TSV to a network's snapshots."""
    by_t: dict[int, dict[str, int]] = {}
    max_label = 0
    for lineno, line in enumerate(_read_text(path).split("\n"), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataError(f"{path}:{lineno}: expected 3 tab-separated fields")
        t_str, u, lab_str = parts
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
        by_t.setdefault(t, {})[u] = lab
        max_label = max(max_label, lab)
    k = k or max_label
    if max_label > k:
        raise DataError(f"{path}: label {max_label} exceeds k={k}")
    snapshots = []
    for snap in network.snapshots:
        labels_map = by_t.get(snap.t, {})
        labels = tuple(labels_map.get(network.registry.id_of(idx)) for idx in snap.active)
        groups = GroupAssignment(labels=labels, k=k) if any(
            lab is not None for lab in labels) else None
        snapshots.append(Snapshot(t=snap.t, W=snap.W, active=snap.active, groups=groups))
    return DynamicNetwork(network.registry, snapshots)


def write_groups(path, network: DynamicNetwork) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for snap in network.snapshots:
            if snap.groups is None:
                continue
            for row, idx in enumerate(snap.active):
                lab = snap.groups.labels[row]
                if lab is not None:
                    fh.write(f"{snap.t}\t{network.registry.id_of(idx)}\t{lab}\n")


# ---------------------------------------------------------------------------
# layout export / reload

def sequence_to_json_dict(sequence: LayoutSequence) -> dict:
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
    return {**sequence.metadata, "steps": steps}


def export_layouts(sequence: LayoutSequence, path) -> None:
    """Write a layout sequence as a LayoutJson document."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(sequence_to_json_dict(sequence), fh, indent=1)
        fh.write("\n")


def import_layouts(path) -> LayoutSequence:
    """Reload a LayoutJson document; a malformed one is a DataError naming
    the file and, for a bad step record, the step."""
    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("steps"), list):
        raise DataError(f"{path}: not a layout document (missing 'steps')")
    metadata = {key: value for key, value in doc.items() if key != "steps"}
    steps = []
    for position, raw in enumerate(doc["steps"]):
        try:
            ids = tuple(node["id"] for node in raw["nodes"])
            X = np.array([node["x"] for node in raw["nodes"]], dtype=float)
            labels = tuple(node["group"] for node in raw["nodes"])
            Y = None if raw.get("representatives") is None else \
                np.array(raw["representatives"], dtype=float)
            t = raw["t"]
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: step {position}: bad layout record: {exc!r}") from None
        if all(lab is None for lab in labels):
            labels = None
        steps.append(LayoutStep(t=t, ids=ids, X=X, labels=labels, Y=Y))
    return LayoutSequence(metadata=metadata, steps=steps)


def write_cost_csv(report, path) -> None:
    """Per-step cost table; empty cells where a cost is undefined."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "static_cost", "centroid_cost", "temporal_cost", "iterations"])
        for step in report.steps:
            writer.writerow([
                step.t,
                repr(float(step.static_cost)),
                "" if step.centroid_cost is None else repr(float(step.centroid_cost)),
                "" if step.temporal_cost is None else repr(float(step.temporal_cost)),
                "" if step.iterations is None else step.iterations,
            ])


def write_sweep_csv(records, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["alpha", "beta", "mean_static", "mean_centroid",
                         "mean_temporal", "mean_iterations"])
        for rec in records:
            writer.writerow([repr(float(rec["alpha"])), repr(float(rec["beta"])),
                             repr(float(rec["mean_static"])), repr(float(rec["mean_centroid"])),
                             repr(float(rec["mean_temporal"])),
                             repr(float(rec["mean_iterations"]))])
