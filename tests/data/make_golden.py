"""Regenerate the golden CLI runs in this directory, or check them.

Usage, from the repository root:

    PYTHONPATH=src python3 tests/data/make_golden.py
    PYTHONPATH=src python3 tests/data/make_golden.py --check

Without options it rewrites the block-model input of the DGLL runs
(``golden_sbm.*.tsv``) and the ``.layout.json`` / ``.costs.csv`` output of
every run in ``GOLDEN_RUNS``. With ``--check`` it writes the same files
into a temporary directory instead (the layout runs still read the
committed inputs), compares each one byte for byte with the committed
file, lists the ones that differ and exits 1 if any does; it rewrites
nothing. ``tests/test_cli.py::TestGoldenFixture`` imports the same argument
lists, so the commands that froze a fixture and the ones that check it
cannot drift apart. Every regenerated fixture must be justified in
CHANGES.md.
"""

from __future__ import annotations

import argparse
import tempfile
from pathlib import Path

from dynlayout.cli import cli_main

DATA = Path(__file__).resolve().parent

SBM_INPUT = "golden_sbm"
SBM_ARGS = ("simulate-sbm", "--n", "30", "--k", "4", "--steps", "8", "--change-step", "4",
            "--seed", "1")

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
}


def layout_argv(name: str, out_prefix) -> list[str]:
    """The `dynlayout layout` arguments of golden run ``name``, with known
    groups read from this directory and output written under ``out_prefix``."""
    inputs, _, options = GOLDEN_RUNS[name]
    return ["layout", "--input", str(DATA / f"{inputs}.snapshots.tsv"),
            "--groups", str(DATA / f"{inputs}.groups.tsv"), *options,
            "--out", str(out_prefix)]


def regenerate(out_dir: Path) -> list[str]:
    """Run every golden command with its output under ``out_dir``; returns
    the names of the files written."""
    commands = [([*SBM_ARGS, "--out", str(out_dir / SBM_INPUT)],
                 [f"{SBM_INPUT}.snapshots.tsv", f"{SBM_INPUT}.groups.tsv"])]
    commands += [(layout_argv(name, out_dir / out), [f"{out}.layout.json", f"{out}.costs.csv"])
                 for name, (_, out, _) in GOLDEN_RUNS.items()]
    for argv, _ in commands:
        if cli_main(argv) != 0:
            raise SystemExit(f"failed: dynlayout {' '.join(argv)}")
    return [name for _, files in commands for name in files]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate or check the golden CLI runs.")
    parser.add_argument("--check", action="store_true",
                        help="compare fresh runs with the committed files; rewrite nothing")
    args = parser.parse_args(argv)
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
