"""Batch command-line interface.

Subcommands: layout, cluster, simulate-sbm, sweep, metrics, render.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import io as dio
from . import render as rnd
from .distances import SIMILARITY_MODES
from .errors import DataError, NumericalError
from .graph import DynamicNetwork, GroupAssignment
from .pipeline import (METHODS, RegularizationConfig, learn_group_sequence, parameter_sweep,
                       run_sequence, score_sequence)
from .sbm import SbmConfig, sbm_sequence

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

_DEFAULT = RegularizationConfig()


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we want exit 1
        raise _UsageError(f"{self.prog}: error: {message}\n{self.format_usage()}")


def _list_of(kind, name: str):
    """argparse type: a non-empty comma-separated list of ``kind`` values,
    called ``name`` values in the usage error."""
    def parse(text: str) -> list:
        try:
            values = [kind(v) for v in text.split(",") if v.strip() != ""]
        except ValueError:
            values = []
        if not values:
            raise argparse.ArgumentTypeError(f"bad {name} list {text!r}")
        return values
    return parse


def _add_input_options(p: argparse.ArgumentParser):
    p.add_argument("--input", required=True, help="snapshot TSV file")
    p.add_argument("--ingest-kind", choices=dio.INGEST_KINDS, default="edge_tsv")
    p.add_argument("--m", type=int, default=None,
                   help="neighbors per node for rank/count ingestion")
    p.add_argument("--weighting", choices=("rank_descending", "unit"), default="unit")


def _add_layout_options(p: argparse.ArgumentParser):
    p.add_argument("--method", choices=METHODS, default=_DEFAULT.method)
    p.add_argument("--alpha", type=float, default=_DEFAULT.alpha)
    p.add_argument("--beta", type=float, default=_DEFAULT.beta)
    p.add_argument("--epsilon", type=float, default=_DEFAULT.epsilon)
    p.add_argument("--dims", type=int, default=_DEFAULT.dims)
    p.add_argument("--groups", default="none",
                   help="'none', 'learn', or a groups TSV file path")
    p.add_argument("--k", type=int, default=None, help="group count")
    p.add_argument("--seed", type=int, default=_DEFAULT.seed)
    p.add_argument("--normalized", action=argparse.BooleanOptionalAction,
                   default=_DEFAULT.normalized,
                   help="degree-normalized constraints (GLL family)")
    p.add_argument("--similarity", choices=SIMILARITY_MODES, default=None,
                   help="convert similarity weights to dissimilarities (MDS family)")


def _load_network(args) -> DynamicNetwork:
    network = dio.ingest_snapshots(args.input, kind=args.ingest_kind, m=args.m,
                                   weighting=args.weighting)
    groups = getattr(args, "groups", "none")
    if groups not in ("none", "learn"):
        network = dio.parse_groups(groups, network, k=args.k)
    return network


def _build_config(args) -> RegularizationConfig:
    groups_mode = args.groups if args.groups in ("none", "learn") else "known"
    return RegularizationConfig(
        method=args.method, alpha=args.alpha, beta=args.beta, epsilon=args.epsilon,
        dims=args.dims, seed=args.seed, normalized=args.normalized,
        groups=groups_mode, k=args.k, similarity_mode=args.similarity,
    )


def _cmd_layout(args) -> int:
    network = _load_network(args)
    config = _build_config(args)
    sequence, report = run_sequence(network, config)
    layout_path = Path(str(args.out) + ".layout.json")
    costs_path = Path(str(args.out) + ".costs.csv")
    dio.export_layouts(sequence, layout_path)
    dio.write_cost_csv(report, costs_path)
    print(f"wrote {layout_path} and {costs_path}")
    return EXIT_OK


def _cmd_cluster(args) -> int:
    network = _load_network(args)
    labels_by_step, alphas = learn_group_sequence(network, args.k, args.seed)
    groups_path = Path(str(args.out) + ".groups.tsv")
    alpha_path = Path(str(args.out) + ".alpha.csv")
    dio.write_groups(groups_path, network.with_groups(
        GroupAssignment(labels, args.k) for labels in labels_by_step))
    dio.write_alpha_csv(alphas, alpha_path)
    print(f"wrote {groups_path} and {alpha_path}")
    return EXIT_OK


def _cmd_simulate_sbm(args) -> int:
    config = SbmConfig.two_rate(
        n=args.n, k=args.k, p_in=args.p_in, p_out=args.p_out, T=args.steps,
        change_step=args.change_step, change_fraction=args.change_fraction,
        seed=args.seed, balanced=args.balanced,
    )
    network = sbm_sequence(config)
    snap_path = Path(str(args.out) + ".snapshots.tsv")
    groups_path = Path(str(args.out) + ".groups.tsv")
    dio.write_snapshots(network, snap_path)
    dio.write_groups(groups_path, network)
    print(f"wrote {snap_path} and {groups_path}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    network = _load_network(args)
    base = _build_config(args)
    records = parameter_sweep(network, args.method, args.alphas, args.betas,
                              args.seeds, base_config=base)
    dio.write_sweep_csv(records, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_metrics(args) -> int:
    network = _load_network(args)
    report = score_sequence(network, dio.import_layouts(args.layout))
    dio.write_cost_csv(report, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_render(args) -> int:
    network = _load_network(args)
    sequence = dio.import_layouts(args.layout)
    if sequence.dims == 1:
        path = rnd.render_timeplot(network, sequence, args.out)
        print(f"wrote {path}")
    else:
        paths = rnd.render_frames(network, sequence, args.out, movement=args.movement)
        print(f"wrote {len(paths)} frames to {args.out}")
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="dynlayout",
                     description="regularized layout of dynamic networks")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("layout", help="lay out a snapshot sequence")
    _add_input_options(p)
    _add_layout_options(p)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=_cmd_layout)

    p = sub.add_parser("cluster", help="learn time-varying groups")
    _add_input_options(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=_DEFAULT.seed)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("simulate-sbm", help="generate a block-model sequence")
    p.add_argument("--n", type=int, default=30)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--p-in", type=float, default=0.6)
    p.add_argument("--p-out", type=float, default=0.2)
    p.add_argument("--steps", type=int, default=20)
    p.add_argument("--change-step", type=int, default=None)
    p.add_argument("--change-fraction", type=float, default=0.25)
    p.add_argument("--balanced", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=_cmd_simulate_sbm)

    p = sub.add_parser("sweep", help="grid-evaluate alpha and beta")
    _add_input_options(p)
    _add_layout_options(p)
    p.add_argument("--alphas", type=_list_of(float, "number"), required=True)
    p.add_argument("--betas", type=_list_of(float, "number"), required=True)
    p.add_argument("--seeds", type=_list_of(int, "integer"), default=[0])
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("metrics", help="recompute costs for a stored layout")
    _add_input_options(p)
    p.add_argument("--layout", required=True, help="layout JSON document")
    p.add_argument("--groups", default="none", help="'none' or a groups TSV file")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("render", help="render SVG frames or a 1-D time plot")
    _add_input_options(p)
    p.add_argument("--layout", required=True, help="layout JSON document")
    p.add_argument("--movement", action="store_true",
                   help="overlay previous positions and displacement segments")
    p.add_argument("--out", required=True, help="output directory (2-D) or file (1-D)")
    p.set_defaults(func=_cmd_render)

    return parser


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
