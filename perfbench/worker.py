"""One workload run in its own process; run.py starts it.

Prints READY once dynlayout is imported and the first round's inputs are
built (the end of set-up), then runs whole rounds until ``--seconds`` have
passed and prints one JSON line with its counts and timings. With
``--probe`` it exits right after READY. With ``--trace-file`` every round runs
twice on the same inputs, once untraced and once traced, in alternating
order; the per-layer metrics come from the traced runs and the spans are
written to ``--trace-file``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import tracing
import workloads


def environment() -> dict:
    """CPU count, the BLAS libraries loaded and their thread counts, and the
    numpy and scipy versions."""
    blas = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        threads = None
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                threads = getter()
                break
        blas[os.path.basename(lib)] = threads
    return {"cpu_count": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": blas, "numpy": np.__version__, "scipy": scipy.__version__,
            "python": sys.version.split()[0]}


class Tally:
    def __init__(self):
        self.attempted = self.failed = self.rejected = self.steps = 0
        self.seconds = 0.0
        self.errors: list[str] = []

    def add(self, results) -> None:
        for res in results:
            self.attempted += 1
            if res.error is not None:
                self.failed += 1
                self.rejected += res.error.startswith("check:")
                self.errors.append(f"{res.name}: {res.error}")
                continue
            self.steps += res.steps
            self.seconds += res.seconds


def measure(workload, seconds: float, trace_file) -> dict:
    plain, traced = Tally(), Tally()
    tracer = tracing.Tracer() if trace_file else None
    deadline = time.perf_counter() + seconds
    rounds = 0
    while True:
        order = (None,) if tracer is None else \
            ((None, tracer) if rounds % 2 == 0 else (tracer, None))
        for variant, results in zip(order, workload.run_round(order)):
            (plain if variant is None else traced).add(results)
        rounds += 1
        if time.perf_counter() >= deadline:
            break
    for err in (plain.errors + traced.errors)[:10]:
        print(f"failed: {err}", file=sys.stderr)
    out = {"rounds": rounds, "attempted": plain.attempted + traced.attempted,
           "failed": plain.failed + traced.failed,
           "rejected": plain.rejected + traced.rejected,
           "steps": plain.steps, "operation_s": plain.seconds}
    if tracer is not None:
        tracer.steps = traced.steps
        summary = tracer.summary()
        summary["steps_per_s"] = {"untraced": plain.steps / max(plain.seconds, 1e-9),
                                  "traced": traced.steps / max(traced.seconds, 1e-9)}
        summary["overhead"] = traced.seconds / max(plain.seconds, 1e-9) - 1.0
        summary["environment"] = environment()
        origin = tracer.spans[0][1] if tracer.spans else 0.0
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump({**summary, "span_fields": ["name", "start_s", "end_s", "parent", "op"],
                       "spans": [[n, round(s - origin, 9), round(e - origin, 9), p, o]
                                 for n, s, e, p, o in tracer.spans]}, fh)
        out["trace"] = {key: summary[key] for key in
                        ("metrics", "accounted_share", "steps_per_s", "overhead", "missing",
                         "bookkeeping_s", "bookkeeping_per_step")}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace-file", default=None)
    p.add_argument("--workdir", required=True)
    p.add_argument("--probe", action="store_true")
    args = p.parse_args(argv)
    workdir = Path(args.workdir)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        print("READY", flush=True)
        if args.probe:
            return 0
        print("environment: " + json.dumps(environment()), flush=True)
        result = measure(workload, args.seconds, args.trace_file)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
