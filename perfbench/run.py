"""dynlayout benchmark: one workload run, end-to-end or traced.

    python3 perfbench/run.py --workload protocol --seed 1 --seconds 30 --trace 0

Run from the repository root (the directory holding ``src/dynlayout``).
Each workload runs in its own process (worker.py). With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end metrics
``steps_per_s``, ``setup_s`` and ``peak_rss_mb``; with ``--trace 1`` it
holds the per-layer metrics of a traced run, and the spans are written to
``perfbench/results/``. Exits non-zero without a result line when the
program cannot be found or a run does not finish.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_PROBES = 2      # set-up-only processes, besides the measured one
RUN_LIMIT_S = 170.0   # a run that has not finished by then is killed


class RunFailed(Exception):
    pass


def _start(args, env, extra) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for READY; returns it and its set-up time
    (interpreter start, imports and the first round's inputs)."""
    workdir = RESULTS / f"work-{os.getpid()}-{time.monotonic_ns()}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", str(workdir), *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RunFailed(f"worker did not start (exit code {proc.returncode})")
    return proc, setup


def run(args) -> tuple[dict, list[float], list[str]]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    RESULTS.mkdir(exist_ok=True)
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            proc, setup = _start(args, env, ["--probe"])
            proc.stdout.read()
            proc.wait()
            setups.append(setup)
    extra = ["--seconds", str(args.seconds)]
    if args.trace:
        extra += ["--trace-file", str(RESULTS / f"{args.workload}-seed{args.seed}.trace.json")]
    proc, setup = _start(args, env, extra)
    setups.append(setup)
    watchdog = threading.Timer(RUN_LIMIT_S, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1]), setups, lines[:-1]


def declared_units() -> dict[str, str]:
    """Each metric's unit as BENCHMARK.json declares it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("protocol", "sweep", "large"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "dynlayout" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'dynlayout'} is missing", file=sys.stderr)
        return 2
    try:
        units = declared_units()
        result, setups, notes = run(args)
    except (RunFailed, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    for line in notes:
        print(line)
    print(f"rounds {result['rounds']}, operations {result['attempted']} "
          f"({result['failed']} failed, {result['rejected']} rejected by checks), "
          f"untraced steps {result['steps']} in {result['operation_s']:.3f} s")
    if args.trace:
        trace = result["trace"]
        print(f"tracing overhead {100 * trace['overhead']:+.1f}%: "
              f"{trace['steps_per_s']['traced']:.3f} steps/s traced against "
              f"{trace['steps_per_s']['untraced']:.3f} untraced on the same rounds; "
              f"layer self times account for {100 * trace['accounted_share']:.2f}% "
              f"of traced operation time less {trace['bookkeeping_s']:.3f} s of the "
              f"tracer's own bookkeeping")
        print("bookkeeping taken off self times (s/step): " + ", ".join(
            f"{m} {v:.3g}" for m, v in sorted(trace["bookkeeping_per_step"].items()) if v))
        if trace["missing"]:
            print("not traced (absent from the program): " + ", ".join(trace["missing"]))
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in trace["metrics"].items()}
    else:
        print("setup samples (s): " + ", ".join(f"{s:.4f}" for s in setups))
        values = {"steps_per_s": result["steps"] / max(result["operation_s"], 1e-9),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    # an operation that raised makes the run incorrect, as one a check rejected does
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
