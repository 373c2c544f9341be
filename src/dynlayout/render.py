"""Deterministic SVG rendering of layout sequences.

Frames share one viewport computed from the whole sequence, so apparent
motion between frames reflects coordinate motion. Output is plain text
SVG, which keeps renders byte-reproducible and diffable.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

import numpy as np

from .errors import DataError
from .graph import DynamicNetwork
from .pipeline import LayoutSequence, check_layout_nodes

PALETTE = ("#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00",
           "#a65628", "#f781bf", "#999999", "#66c2a5", "#ffd92f")
UNGROUPED = "#b0b0b0"

_CANVAS = 640.0
_MARGIN = 40.0


def _color(label: Optional[int]) -> str:
    if label is None:
        return UNGROUPED
    return PALETTE[(label - 1) % len(PALETTE)]


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _write_svg(path: Path, parts: list[str], title: Optional[str] = None) -> Path:
    """Write one SVG document: the canvas on a white background, then
    ``parts``."""
    head = ['<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_CANVAS:.0f} '
            f'{_CANVAS:.0f}" width="{_CANVAS:.0f}" height="{_CANVAS:.0f}">',
            *([f'<title>{title}</title>'] if title is not None else []),
            '<rect width="100%" height="100%" fill="white"/>']
    path.write_text("\n".join([*head, *parts, "</svg>"]) + "\n", encoding="utf-8")
    return path


def _viewport(sequence: LayoutSequence):
    points = np.vstack([step.X for step in sequence.steps])
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    scale = (_CANVAS - 2 * _MARGIN) / span.max()

    def project(p: np.ndarray) -> tuple[float, float]:
        x = _MARGIN + (p[0] - lo[0]) * scale
        # flip the vertical axis: SVG y grows downward
        y = _CANVAS - _MARGIN - (p[1] - lo[1]) * scale
        return x, y

    return project


def render_frames(network: DynamicNetwork, sequence: LayoutSequence, out_dir,
                  movement: bool = False) -> list[Path]:
    """One SVG per step: nodes colored by group, edge width proportional to
    weight, optional movement overlay drawing each persisting node a second
    time at its previous position with a connecting segment."""
    if sequence.dims != 2:
        raise DataError("frame rendering needs 2-D layouts; "
                        "use the time plot for 1-D sequences")
    check_layout_nodes(network, sequence)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    project = _viewport(sequence)
    w_max = max((float(snap.W.max()) for snap in network.snapshots), default=1.0) or 1.0

    prev_positions: dict[str, tuple[float, float]] = {}
    paths = []
    for step, snap in zip(sequence.steps, network.snapshots):
        parts = []
        pts = [project(step.X[row]) for row in range(len(step.ids))]
        for a, b in zip(*np.nonzero(np.triu(snap.W, 1))):
            (xa, ya), (xb, yb) = pts[a], pts[b]
            width = 0.4 + 2.1 * snap.W[a, b] / w_max
            parts.append(f'<line x1="{_fmt(xa)}" y1="{_fmt(ya)}" x2="{_fmt(xb)}" '
                         f'y2="{_fmt(yb)}" stroke="#cccccc" stroke-width="{_fmt(width)}"/>')
        if movement:
            for row, node_id in enumerate(step.ids):
                if node_id not in prev_positions:
                    continue
                (xc, yc) = pts[row]
                (xp, yp) = prev_positions[node_id]
                color = _color(step.labels[row] if step.labels else None)
                parts.append(f'<line x1="{_fmt(xp)}" y1="{_fmt(yp)}" x2="{_fmt(xc)}" '
                             f'y2="{_fmt(yc)}" stroke="{color}" stroke-width="0.8" '
                             'stroke-dasharray="3,2"/>')
                parts.append(f'<circle cx="{_fmt(xp)}" cy="{_fmt(yp)}" r="4.0" '
                             f'fill="{color}" fill-opacity="0.3"/>')
        for row, node_id in enumerate(step.ids):
            (x, y) = pts[row]
            color = _color(step.labels[row] if step.labels else None)
            parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="6.0" fill="{color}" '
                         'stroke="#303030" stroke-width="0.8">'
                         f'<title>{node_id}</title></circle>')
        paths.append(_write_svg(out_dir / f"frame_{step.t:04d}.svg", parts, f"t={step.t}"))
        prev_positions = {node_id: pts[row] for row, node_id in enumerate(step.ids)}
    return paths


def render_timeplot(network: DynamicNetwork, sequence: LayoutSequence, out_file) -> Path:
    """Time plot of a 1-D layout sequence of ``network``: x is the time
    step, y the coordinate; each segment is colored by the node's group at
    the segment start."""
    if sequence.dims != 1:
        raise DataError("time plots need 1-D layouts")
    check_layout_nodes(network, sequence)
    steps = sequence.steps
    T = len(steps)
    values = np.concatenate([step.X[:, 0] for step in steps])
    lo, hi = float(values.min()), float(values.max())
    span = max(hi - lo, 1e-9)

    def px(t: int) -> float:
        if T == 1:
            return _CANVAS / 2.0
        return _MARGIN + t * (_CANVAS - 2 * _MARGIN) / (T - 1)

    def py(v: float) -> float:
        return _CANVAS - _MARGIN - (v - lo) * (_CANVAS - 2 * _MARGIN) / span

    parts = []
    positions: dict[str, dict[int, float]] = {}
    labels: dict[str, dict[int, Optional[int]]] = {}
    for step in steps:
        for row, node_id in enumerate(step.ids):
            positions.setdefault(node_id, {})[step.t] = float(step.X[row, 0])
            labels.setdefault(node_id, {})[step.t] = \
                step.labels[row] if step.labels else None
    for node_id in sorted(positions):
        series = positions[node_id]
        for t in range(T - 1):
            if t in series and (t + 1) in series:
                color = _color(labels[node_id].get(t))
                parts.append(f'<line x1="{_fmt(px(t))}" y1="{_fmt(py(series[t]))}" '
                             f'x2="{_fmt(px(t + 1))}" y2="{_fmt(py(series[t + 1]))}" '
                             f'stroke="{color}" stroke-width="1.6"/>')
        for t, v in sorted(series.items()):
            parts.append(f'<circle cx="{_fmt(px(t))}" cy="{_fmt(py(v))}" r="2.4" '
                         f'fill="{_color(labels[node_id].get(t))}"/>')
    out_file = Path(out_file)
    out_file.parent.mkdir(parents=True, exist_ok=True)
    return _write_svg(out_file, parts)
