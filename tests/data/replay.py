"""Record the stress and DGLL solves of a run matrix, and solve them again
with the code on ``PYTHONPATH`` to compare objectives on identical inputs.

Usage, from the repository root:

    PYTHONPATH=src python3 tests/data/replay.py --capture DIR [--seeds 0-49] [--large]
    PYTHONPATH=src python3 tests/data/replay.py --replay DIR

``--capture DIR`` runs ``run_sequence`` under each configuration of
``CONFIGS`` (alpha = beta = 1, as in the acceptance protocol; DGLL at
``--dims`` 2 and 1) on the acceptance protocol's block model at each seed,
and with ``--large`` on the two n = 200 networks of ``make_golden.py``'s
digest, DGLL included.
While it runs, every ``mds.dmds_layout``, ``mds.stabilized_mds_online`` and
``gll.dgll_layout`` call is recorded: each function is replaced at every
``dynlayout`` module attribute bound to it, so the solve that
``smacof_static`` delegates to ``dmds_layout`` is recorded too, and no
program file changes. One ``.npz`` file per run holds, per step t, the
solver's name, its arguments and what it returned: the layout and, from the
stress solvers, the iteration count and the stress trace. The state of
DGLL's ``rng`` argument is recorded before the call, because the solve may
draw a random start from it.

``--replay DIR`` solves every recorded problem again and prints, per solver,
configuration and network family (``protocol``, ``large``), how many final
objectives fell, tied and rose against the recorded layout's, and how many
solves gave the recorded bits: for the layout (with its iteration count)
and, from the stress solvers, the total iterations recorded and replayed
and the stress traces with the recorded bits; then it lists each rise
above ``RISE_RTOL`` relative with its (network, configuration, t). The
objective is ``mds.modified_stress`` or ``gll.dgll_objective`` of each
layout on the recorded inputs, both evaluated by the replaying code.
Replaying with the tree that captured gives no rise, equal iterations and
equal bits: the replay holds single-threaded BLAS, as ``run_sequence`` does
while it captures.

A change that moves the solvers' outputs on purpose is checked by capturing
with the parent commit's ``src`` and replaying with the change's.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import dynlayout  # noqa: E402
from dynlayout import gll, mds  # noqa: E402
from dynlayout.graph import augment  # noqa: E402
from dynlayout.numerics import single_threaded_blas  # noqa: E402
from dynlayout.pipeline import RegularizationConfig, run_sequence  # noqa: E402

import make_golden  # noqa: E402

# solver -> its module; the stress solvers also report iterations and a trace
SOLVERS = {"dmds_layout": mds, "stabilized_mds_online": mds, "dgll_layout": gll}
STRESS_SOLVERS = ("dmds_layout", "stabilized_mds_online")
CONFIGS = {
    "dmds-known": dict(method="dmds", groups="known"),
    "dmds-learned": dict(method="dmds", groups="learn", k=4),
    "mds-static": dict(method="mds-static", groups="none"),
    "mds-stabilized": dict(method="mds-stabilized", groups="none"),
    "dgll-known": dict(method="dgll", groups="known"),
    "dgll-learned": dict(method="dgll", groups="learn", k=4),
    "dgll-known-1d": dict(method="dgll", groups="known", dims=1),
    "dgll-learned-1d": dict(method="dgll", groups="learn", k=4, dims=1),
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
    """Append (solver name, bound arguments, result, the JSON state of an
    ``rng`` argument before the call or None) of every solver call to
    ``calls`` while the block runs."""
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == "dynlayout" or key.startswith("dynlayout."))]
    patches = []
    for name, module in SOLVERS.items():
        original = getattr(module, name)

        def recorded(*args, _name=name, _fn=original, **kwargs):
            bound = inspect.signature(_fn).bind(*args, **kwargs)
            bound.apply_defaults()
            rng = bound.arguments.get("rng")
            state = json.dumps(rng.bit_generator.state) \
                if isinstance(rng, np.random.Generator) else None
            result = _fn(*args, **kwargs)
            calls.append((_name, dict(bound.arguments), result, state))
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
            for t, (solver, arguments, result, state) in enumerate(calls):
                arrays[f"{t}/solver"] = np.array(solver)
                arrays.update({f"{t}/arg/{key}": np.asarray(value)
                               for key, value in arguments.items()
                               if value is not None and key != "rng"})
                if state is not None:
                    arrays[f"{t}/rng"] = np.array(state)
                arrays.update({f"{t}/out/{key}": value
                               for key, value in outputs(solver, result).items()})
            np.savez(out_dir / f"{net_name}--{config_name}.npz", **arrays)
            total += len(calls)
    return total


def outputs(solver: str, result) -> dict:
    """What a solve returned: its layout and, from a stress solver, the
    iteration count and the stress trace."""
    if solver == "dgll_layout":
        return {"X": result.layout.X, "Y": result.layout.Y}
    layout, report = result
    return {"X": layout.X, "Y": layout.Y, "iterations": np.array(report.iterations),
            "trace": np.array(report.stress_trace)}


def generator(state: str) -> np.random.Generator:
    """A generator in the recorded bit-generator state."""
    state = json.loads(state)
    bit_generator = getattr(np.random, state["bit_generator"])()
    bit_generator.state = state
    return np.random.Generator(bit_generator)


def objective(solver: str, args: dict, X: np.ndarray, Y: np.ndarray) -> float:
    """Modified stress, or the DGLL objective, of a solver's returned layout
    on its inputs."""
    if solver == "dgll_layout":
        k = args["C"].shape[1]
        return gll.dgll_objective(np.vstack([X, Y]),
                                  gll.laplacian(augment(args["W"], args["C"], args["alpha"])),
                                  np.pad(args["e"], (0, k)), args["beta"], args["X_prev_aug"])
    if solver == "dmds_layout":
        return mds.modified_stress(np.vstack([X, Y]), args["delta"], args["V"], args["C"],
                                   args["alpha"], args["beta"], args["e"], args["X_prev_aug"])
    return mds.modified_stress(X, args["delta"], args["V"], np.zeros((X.shape[0], 0)), 0.0,
                               args["beta"], args["e"], args["X_prev"])


@single_threaded_blas()
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
                if f"{t}/rng" in data.files:
                    args["rng"] = generator(str(data[f"{t}/rng"]))
                new = outputs(solver, getattr(SOLVERS[solver], solver)(**args))
                old = {key.split("/")[2]: data[key] for key in data.files
                       if key.startswith(f"{t}/out/")}
                before = objective(solver, args, old["X"], old["Y"])
                after = objective(solver, args, new["X"], new["Y"])
                entry = stats[solver, config_name, family]
                entry["solves"] += 1
                entry["fell" if after < before else "tied" if after == before else "rose"] += 1
                if after - before > RISE_RTOL * abs(before):
                    entry["rises"].append((net_name, config_name, t, (after - before) / before))
                entry["same_layout"] += int(all(np.array_equal(new[key], old[key])
                                                for key in ("X", "Y", "iterations")
                                                if key in old))
                if solver in STRESS_SOLVERS:
                    entry["iterations"] += int(old["iterations"])
                    entry["replayed"] += int(new["iterations"])
                    entry["same_trace"] += int(np.array_equal(new["trace"], old["trace"]))
    return dict(stats)


def report_lines(stats: dict) -> list[str]:
    lines = []
    for (solver, config_name, family), s in sorted(stats.items()):
        stress = solver in STRESS_SOLVERS
        lines.append(f"{solver} {config_name} {family}: {s['solves']} solves, objective "
                     f"fell {s['fell']}, tied {s['tied']}, rose {s['rose']}; "
                     + (f"iterations {s['iterations']} -> {s['replayed']}; " if stress else "")
                     + f"recorded bits: {s['same_layout']} layouts"
                     + (f", {s['same_trace']} traces" if stress else ""))
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
        description="Record the stress and DGLL solves of a run matrix, or solve them "
                    "again.")
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
