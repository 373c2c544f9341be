"""Record the stress solves of a run matrix, and solve them again with the
code on ``PYTHONPATH`` to compare objectives on identical inputs.

Usage, from the repository root:

    PYTHONPATH=src python3 tests/data/replay.py --capture DIR [--seeds 0-49] [--large]
    PYTHONPATH=src python3 tests/data/replay.py --replay DIR

``--capture DIR`` runs ``run_sequence`` under each configuration of
``CONFIGS`` (alpha = beta = 1, as in the acceptance protocol) on the
acceptance protocol's block model at each seed, and with ``--large`` on the
two n = 200 networks of ``make_golden.py``'s digest. While it runs, every
``mds.dmds_layout`` and ``mds.stabilized_mds_online`` call is recorded:
each function is replaced at every ``dynlayout`` module attribute bound to
it, so the solve that ``smacof_static`` delegates to ``dmds_layout`` is
recorded too, and no program file changes. One ``.npz`` file per run holds,
per step t, the solver's name, its arguments and what it returned: the
layout, the iteration count and the stress trace.

``--replay DIR`` solves every recorded problem again and prints, per solver,
configuration and network family (``protocol``, ``large``), how many final
objectives fell, tied and rose against the recorded layout's, the total
iterations recorded and replayed, and how many solves gave the recorded
bits, for the layout with its iteration count and for the stress trace;
then it lists each rise above ``RISE_RTOL`` relative with its (network,
configuration, t). The objective is ``mds.modified_stress`` of each layout
on the recorded inputs, both evaluated by the replaying code. Replaying
with the tree that captured gives no rise, equal iterations and equal
bits.

A change that moves the stress solvers' outputs on purpose is checked by
capturing with the parent commit's ``src`` and replaying with the change's.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import dynlayout  # noqa: E402
from dynlayout import mds  # noqa: E402
from dynlayout.pipeline import RegularizationConfig, run_sequence  # noqa: E402

import make_golden  # noqa: E402

SOLVERS = ("dmds_layout", "stabilized_mds_online")
CONFIGS = {
    "dmds-known": dict(method="dmds", groups="known"),
    "dmds-learned": dict(method="dmds", groups="learn", k=4),
    "mds-static": dict(method="mds-static", groups="none"),
    "mds-stabilized": dict(method="mds-stabilized", groups="none"),
}
RISE_RTOL = 1e-9


def networks(seeds, large: bool):
    """(name, network, seed) of every network captured."""
    nets = [(f"protocol-seed{s}", make_golden.protocol_network(s), s) for s in seeds]
    if large:
        nets += [(name, net, seed) for name, net, seed, _ in make_golden.digest_networks()
                 if name.startswith("large")]
    return nets


@contextmanager
def recording(calls: list):
    """Append (solver name, bound arguments, result) of every solver call to
    ``calls`` while the block runs."""
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == "dynlayout" or key.startswith("dynlayout."))]
    patches = []
    for name in SOLVERS:
        original = getattr(mds, name)

        def recorded(*args, _name=name, _fn=original, **kwargs):
            result = _fn(*args, **kwargs)
            bound = inspect.signature(_fn).bind(*args, **kwargs)
            bound.apply_defaults()
            calls.append((_name, dict(bound.arguments), result))
            return result

        patches += [(m, key, original, recorded) for m in modules
                    for key, value in vars(m).items() if value is original]
    for m, key, _, wrapper in patches:
        setattr(m, key, wrapper)
    try:
        yield
    finally:
        for m, key, original, _ in patches:
            setattr(m, key, original)


def capture(out_dir: Path, seeds, large: bool = False) -> int:
    """Run the matrix and write one file per run; returns the solves recorded."""
    out_dir.mkdir(parents=True, exist_ok=True)
    total = 0
    for net_name, network, seed in networks(seeds, large):
        for config_name, kwargs in CONFIGS.items():
            calls: list = []
            config = RegularizationConfig(alpha=1.0, beta=1.0, seed=seed, **kwargs)
            with recording(calls):
                run_sequence(network, config)
            arrays = {}
            for t, (solver, arguments, (layout, report)) in enumerate(calls):
                arrays[f"{t}/solver"] = np.array(solver)
                arrays.update({f"{t}/arg/{key}": np.asarray(value)
                               for key, value in arguments.items() if value is not None})
                arrays.update({f"{t}/out/X": layout.X, f"{t}/out/Y": layout.Y,
                               f"{t}/out/iterations": np.array(report.iterations),
                               f"{t}/out/trace": np.array(report.stress_trace)})
            np.savez(out_dir / f"{net_name}--{config_name}.npz", **arrays)
            total += len(calls)
    return total


def objective(solver: str, args: dict, X: np.ndarray, Y: np.ndarray) -> float:
    """Modified stress of a solver's returned layout on its inputs."""
    if solver == "dmds_layout":
        return mds.modified_stress(np.vstack([X, Y]), args["delta"], args["V"], args["C"],
                                   args["alpha"], args["beta"], args["e"], args["X_prev_aug"])
    return mds.modified_stress(X, args["delta"], args["V"], np.zeros((X.shape[0], 0)), 0.0,
                               args["beta"], args["e"], args["X_prev"])


def replay(in_dir: Path) -> dict:
    """Solve every recorded problem again. Returns, per (solver,
    configuration, network family), the counts and the rises above
    RISE_RTOL."""
    stats: dict = defaultdict(lambda: {"solves": 0, "fell": 0, "tied": 0, "rose": 0,
                                       "iterations": 0, "replayed": 0, "same_layout": 0,
                                       "same_trace": 0, "rises": []})
    for path in sorted(in_dir.glob("*.npz")):
        net_name, config_name = path.stem.split("--")
        family = net_name.split("-")[0].rstrip("0123456789")
        with np.load(path) as data:
            steps = sorted({int(key.split("/")[0]) for key in data.files})
            for t in steps:
                solver = str(data[f"{t}/solver"])
                args = {key.split("/")[2]: data[key] for key in data.files
                        if key.startswith(f"{t}/arg/")}
                args = {key: value.item() if value.ndim == 0 else value
                        for key, value in args.items()}
                layout, report = getattr(mds, solver)(**args)
                old = [data[f"{t}/out/{key}"] for key in ("X", "Y", "iterations", "trace")]
                before = objective(solver, args, old[0], old[1])
                after = objective(solver, args, layout.X, layout.Y)
                entry = stats[solver, config_name, family]
                entry["solves"] += 1
                entry["fell" if after < before else "tied" if after == before else "rose"] += 1
                if after - before > RISE_RTOL * abs(before):
                    entry["rises"].append((net_name, config_name, t, (after - before) / before))
                entry["iterations"] += int(old[2])
                entry["replayed"] += report.iterations
                entry["same_layout"] += int(
                    np.array_equal(layout.X, old[0]) and np.array_equal(layout.Y, old[1])
                    and report.iterations == int(old[2]))
                entry["same_trace"] += int(np.array_equal(np.array(report.stress_trace), old[3]))
    return dict(stats)


def report_lines(stats: dict) -> list[str]:
    lines = []
    for (solver, config_name, family), s in sorted(stats.items()):
        lines.append(f"{solver} {config_name} {family}: {s['solves']} solves, objective "
                     f"fell {s['fell']}, tied {s['tied']}, rose {s['rose']}; iterations "
                     f"{s['iterations']} -> {s['replayed']}; recorded bits: "
                     f"{s['same_layout']} layouts, {s['same_trace']} traces")
    for s in stats.values():
        for net_name, config_name, t, rel in s["rises"]:
            lines.append(f"rise {rel:.3e}: {net_name}, {config_name}, t={t}")
    return lines


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Record the stress solves of a run matrix, or solve them again.")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--capture", metavar="DIR", help="record the solves under DIR")
    mode.add_argument("--replay", metavar="DIR", help="solve the problems under DIR again")
    parser.add_argument("--seeds", default="0-49", type=seed_list,
                        help="protocol seeds to capture, e.g. 0-49 or 1,3 (default 0-49)")
    parser.add_argument("--large", action="store_true",
                        help="also capture the two n = 200 networks of the digest")
    args = parser.parse_args(argv)
    if args.capture:
        count = capture(Path(args.capture), args.seeds, args.large)
        print(f"{count} solves recorded under {args.capture} "
              f"(dynlayout from {Path(dynlayout.__file__).parent})")
        return 0
    print("\n".join(report_lines(replay(Path(args.replay)))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
