"""Spans around the program's public functions, for the traced run.

While installed, every function named in ``SPANNED`` is replaced by a
wrapper at every name a caller can look it up by: each ``dynlayout``
module attribute bound to that function object, including re-exports
(``pipeline`` binds ``shortest_path_distances`` by name, ``gll`` binds
``minimize_eq_constrained`` by name). Spans are kept in memory as
[name, start, end, parent, operation] and written out when the run ends.
Counts come from what the functions return (or, for bytes written, from
the files they wrote), never from changes to the program. A function that
the program no longer has is skipped and listed in ``missing``. The
tracer's own bookkeeping after a call (hashing its input, sizing the files
it wrote) is timed and taken off the enclosing span's self time.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np
import scipy.linalg

MDS_SOLVERS = ("dmds_layout", "smacof_static", "stabilized_mds_online")

# function -> (module, time metrics its self time adds to)
SPANNED = {
    "run_sequence": ("pipeline", ("pipeline.self_s",)),
    "parameter_sweep": ("pipeline", ("pipeline.self_s",)),
    "shortest_path_distances": ("distances", ("distances.busy_s",)),
    "kk_weights": ("distances", ("distances.busy_s",)),
    "affect_cluster_step": ("clustering", ("clustering.busy_s",)),
    "spectral_cluster": ("clustering", ("clustering.busy_s",)),
    "kmeans": ("clustering", ("clustering.busy_s", "clustering.kmeans_s")),
    **{name: ("mds", ("mds.busy_s",)) for name in MDS_SOLVERS},
    "dgll_layout": ("gll", ("gll.dgll_s",)),
    "spectral_layout": ("gll", ("gll.eigen_s",)),
    "ccdr_layout": ("gll", ("gll.eigen_s",)),
    "bfp_layout": ("gll", ("gll.eigen_s",)),
    "minimize_eq_constrained": ("numerics", ("numerics.eqc_s",)),
    "gen_eig_smallest": ("numerics", ("numerics.eig_s",)),
    "sym_eig_smallest": ("numerics", ("numerics.eig_s",)),
    "static_cost_mds": ("metrics", ("metrics.busy_s",)),
    "static_cost_gll": ("metrics", ("metrics.busy_s",)),
    "centroid_cost": ("metrics", ("metrics.busy_s",)),
    "temporal_cost": ("metrics", ("metrics.busy_s",)),
    **{name: ("io", ("io.read_s",)) for name in
       ("ingest_snapshots", "parse_snapshots", "parse_groups", "import_layouts")},
    **{name: ("io", ("io.write_s",)) for name in
       ("export_layouts", "write_cost_csv", "write_sweep_csv", "write_snapshots",
        "write_groups")},
    "render_frames": ("render", ("render.busy_s",)),
    "render_timeplot": ("render", ("render.busy_s",)),
}
# counted, not timed: their time stays with the caller
COUNTED = {"laplacian": "gll"}

TIME_METRICS = ("pipeline.self_s", "distances.busy_s", "clustering.busy_s",
                "clustering.kmeans_s", "mds.busy_s", "gll.dgll_s", "gll.eigen_s",
                "numerics.eqc_s", "numerics.eig_s", "metrics.busy_s", "io.read_s",
                "io.write_s", "render.busy_s")
# self times that partition an operation, besides the benchmark's own glue
PARTITION = tuple(m for m in TIME_METRICS if m != "clustering.kmeans_s")


def _file_bytes(value) -> int:
    if isinstance(value, (list, tuple)):
        return sum(_file_bytes(v) for v in value)
    if isinstance(value, (str, os.PathLike)) and os.path.isfile(value):
        return os.path.getsize(value)
    return 0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self.counts: Counter = Counter()
        self.digests: set[bytes] = set()
        self.steps = 0
        self.missing: list[str] = []
        self.bookkeeping: dict[int, float] = defaultdict(float)  # span -> tracer seconds in it

    def _open(self, name: str) -> int:
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1, self._op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def operation(self, name: str):
        self._op += 1
        idx = self._open(f"op:{name}")
        try:
            yield
        finally:
            self._close(idx)

    def _record(self, name: str, idx: int, args, result) -> None:
        """Counts taken from one finished call."""
        c = self.counts
        c[name] += 1
        if name == "shortest_path_distances":
            W = np.ascontiguousarray(args[0], dtype=float)
            self.digests.add(hashlib.blake2b(repr(W.shape).encode() + W.tobytes(),
                                             digest_size=16).digest())
        elif name in MDS_SOLVERS:
            parent = self.spans[idx][3]
            if parent < 0 or self.spans[parent][0] not in MDS_SOLVERS:
                report = result[1]
                c["mds.solves"] += 1
                c["mds.iterations"] += report.iterations
                c["mds.cap_hits"] += int(getattr(report, "hit_iteration_cap", False))
        elif name == "minimize_eq_constrained":
            c["numerics.eqc_iterations"] += result.iterations
            c["numerics.eqc_unconverged"] += int(not result.converged)
        elif name in ("export_layouts", "write_cost_csv", "write_sweep_csv",
                      "write_snapshots", "write_groups"):
            c["io.bytes_written"] += _file_bytes(args)
        elif name.startswith("render_"):
            c["render.bytes_written"] += _file_bytes(result)

    def _spanned(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            start = time.perf_counter()
            self._record(name, idx, args, result)
            self.bookkeeping[self.spans[idx][3]] += time.perf_counter() - start
            return result
        return traced

    def _counted(self, name: str, fn):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    @contextmanager
    def installed(self):
        """Wrap the program's functions for the duration of the block."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "dynlayout" or key.startswith("dynlayout."))]
        targets = [(name, module, self._spanned) for name, (module, _) in SPANNED.items()]
        targets += [(name, module, self._counted) for name, module in COUNTED.items()]
        patches = []
        self.missing = []
        for name, module, make in targets:
            original = getattr(sys.modules.get(f"dynlayout.{module}"), name, None)
            if original is None:
                self.missing.append(f"{module}.{name}")
                continue
            wrapper = make(name, original)
            patches += [(m, key, original, wrapper) for m in modules
                        for key, value in vars(m).items() if value is original]
        # Cholesky attempts, through spd_factor and directly
        patches.append((scipy.linalg, "cho_factor", scipy.linalg.cho_factor,
                        self._counted("cho_factor", scipy.linalg.cho_factor)))
        for m, key, _, wrapper in patches:
            setattr(m, key, wrapper)
        try:
            yield
        finally:
            for m, key, original, _ in patches:
                setattr(m, key, original)

    def summary(self) -> dict:
        """Per-layer metrics, every one per laid-out step, plus the share of
        operation time, less the tracer's bookkeeping, that the layers' self
        times account for."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        busy: dict[str, float] = defaultdict(float)
        taken_off: dict[str, float] = defaultdict(float)
        op_total = 0.0
        for i, (name, start, end, _, _) in enumerate(self.spans):
            if name.startswith("op:"):
                op_total += end - start
                continue
            for metric in SPANNED[name][1]:
                busy[metric] += end - start - child[i] - self.bookkeeping[i]
                taken_off[metric] += self.bookkeeping[i]
        bookkeeping = sum(self.bookkeeping.values())
        c = self.counts
        per_step = max(self.steps, 1)
        metrics = {m: busy[m] / per_step for m in TIME_METRICS}
        metrics.update({
            "distances.calls": c["shortest_path_distances"] / per_step,
            "distances.distinct_share": (len(self.digests) / c["shortest_path_distances"]
                                         if c["shortest_path_distances"] else 0.0),
            "clustering.rounds": c["spectral_cluster"] / per_step,
            "mds.solves": c["mds.solves"] / per_step,
            "mds.iterations": c["mds.iterations"] / per_step,
            "mds.cap_hits": c["mds.cap_hits"] / per_step,
            "gll.dgll_solves": c["dgll_layout"] / per_step,
            "gll.bfp_candidates": c["bfp_layout"] / per_step,
            "gll.laplacian_calls": c["laplacian"] / per_step,
            "numerics.eqc_iterations": c["numerics.eqc_iterations"] / per_step,
            "numerics.eqc_unconverged": c["numerics.eqc_unconverged"] / per_step,
            "numerics.cholesky_calls": c["cho_factor"] / per_step,
            "numerics.eig_calls": (c["gen_eig_smallest"] + c["sym_eig_smallest"]) / per_step,
            "io.bytes_written": c["io.bytes_written"] / per_step,
            "render.bytes_written": c["render.bytes_written"] / per_step,
        })
        traced_work = op_total - bookkeeping
        accounted = sum(busy[m] for m in PARTITION) / traced_work if traced_work > 0 else 0.0
        return {"metrics": metrics, "accounted_share": accounted,
                "operation_s": op_total, "bookkeeping_s": bookkeeping,
                "bookkeeping_per_step": {m: v / per_step for m, v in taken_off.items()},
                "missing": self.missing}
