"""Command-line entry point wiring trees, channels, attacks, and reports.

Exit codes: 0 success, 1 usage error, 2 partial result (a sweep not ending
``ok`` at fidelity 1.0, or a spent query budget), 3 internal or channel error.
"""
from __future__ import annotations

import argparse
import logging
import os
import sys

from . import __version__
from .baseline import QUERY_BUDGET, RuleSetModel, api_attack_extract
from .cart import train_cart
from .channel import (
    PERFECT,
    PHR_SGX,
    STEP_COUNTER_SEV,
    ChannelModel,
    ChannelSession,
    label_only_oracle,
    make_oracle,
)
from .errors import TreeStealerError, read_json, write_json
from .evaluate import (
    boundary_margin_inputs,
    emit_report,
    fidelity,
    load_dataset,
    load_report,
    pareto_frontier,
    pareto_sweep,
)
from .extraction import dt_extraction
from .trees import (generate_random_tree, infer, load_tree, min_path_separation, save_tree,
                    tree_from_dict)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARTIAL = 2
EXIT_ERROR = 3

_CHANNELS = {"perfect": PERFECT, "phr": PHR_SGX, "step": STEP_COUNTER_SEV}


def _parse_depth(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    return int(lo), int(hi or lo)


def _parse_ranges(text: str, num_features: int) -> list[tuple[float, float]]:
    parts = text.split(",")
    ranges = []
    for part in parts:
        lo, sep, hi = part.partition(":")
        if not sep:
            raise ValueError(f"range {part!r} must look like low:high")
        ranges.append((float(lo), float(hi)))
    if len(ranges) == 1 and num_features > 1:
        ranges = ranges * num_features
    if len(ranges) != num_features:
        raise ValueError(f"{len(ranges)} ranges for {num_features} features")
    return ranges


def _load_shadow(path):
    data = read_json(path)
    if isinstance(data, dict) and data.get("kind") == "rule_set":
        return RuleSetModel.from_dict(data)
    return tree_from_dict(data)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treestealer",
        description="Decision-tree extraction from branch-trace side channels.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--seed", type=int, default=None,
                        help="global RNG seed (fallback: TREESTEALER_SEED, then 0)")
    parser.add_argument("--log-level", default="warning",
                        choices=["debug", "info", "warning", "error"])
    # Accept the global flags after the subcommand too; a value there
    # overrides one given before it.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help=argparse.SUPPRESS)
    common.add_argument("--log-level", default=argparse.SUPPRESS,
                        choices=["debug", "info", "warning", "error"],
                        help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=lambda **kw: argparse.ArgumentParser(
                                    parents=[common], **kw))

    p = sub.add_parser("gen-tree", help="generate a random grid-threshold tree")
    p.add_argument("--features", type=int, required=True)
    p.add_argument("--depth", required=True, help="MIN:MAX leaf depth band")
    p.add_argument("--range", dest="ranges", required=True,
                   help="per-feature low:high pairs, comma separated")
    p.add_argument("--grid", type=float, required=True, help="threshold grid step")
    p.add_argument("--regression", action="store_true")
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train a CART on a CSV dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--header", action="store_true")
    p.add_argument("--max-depth", type=int, default=8)
    p.add_argument("--out", required=True)

    p = sub.add_parser("attack", help="extract a tree through a channel")
    p.add_argument("--tree", required=True)
    p.add_argument("--channel", choices=sorted(_CHANNELS), default="perfect")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--no-passive-tracking", action="store_true",
                   help="ablation: per-node threshold brackets only")
    p.add_argument("--flip-noise", type=float, default=0.0)
    p.add_argument("--transcript", help="write the query transcript (JSON lines)")
    p.add_argument("--out", required=True, help="shadow tree JSON")

    p = sub.add_parser("baseline", help="label-only reference attack")
    p.add_argument("--tree", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--max-queries", type=int, default=QUERY_BUDGET)
    p.add_argument("--out", required=True, help="rule-set model JSON")

    p = sub.add_parser("eval", help="fidelity of a shadow against its target")
    p.add_argument("--target", required=True)
    p.add_argument("--shadow", required=True)
    rows = p.add_mutually_exclusive_group()
    rows.add_argument("--dataset")
    rows.add_argument("--grid-dataset", type=int, default=1000,
                      help="evaluate on N uniform samples inside the target ranges")
    p.add_argument("--header", action="store_true")
    p.add_argument("--out", help="write the metrics as JSON")

    p = sub.add_parser("sweep", help="epsilon-halving cost/fidelity sweep")
    p.add_argument("--tree", required=True)
    p.add_argument("--attack", choices=["extractor", "baseline", "both"],
                   default="extractor")
    p.add_argument("--channel", choices=sorted(_CHANNELS), default="perfect")
    p.add_argument("--eps-start", type=float, default=100.0)
    p.add_argument("--timeout", type=float, default=60.0)
    p.add_argument("--plateau-limit", type=int, default=10)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--no-timing", action="store_true",
                   help="omit wall-clock fields for byte-reproducible reports")
    p.add_argument("--out", required=True, help="report directory")

    p = sub.add_parser("report", help="summarize a sweep report")
    p.add_argument("--in", dest="inputs", required=True, help="report.json path")
    p.add_argument("--out", help="re-emit JSON/CSV into this directory")

    return parser


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("TREESTEALER_SEED")
    return int(env) if env else 0


def _cmd_gen_tree(args, seed: int) -> int:
    depth_min, depth_max = _parse_depth(args.depth)
    ranges = _parse_ranges(args.ranges, args.features)
    tree = generate_random_tree(args.features, depth_min, depth_max, ranges,
                                args.grid, seed, regression=args.regression)
    save_tree(tree, args.out)
    inner = len(tree.inner_nodes())
    print(f"generated tree: {inner} inner nodes, {len(tree.leaves())} leaves, "
          f"depth {tree.depth()}, min separation {min_path_separation(tree):g}")
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_train(args, seed: int) -> int:
    dataset = load_dataset(args.dataset, header=args.header)
    tree = train_cart(dataset.rows, max_depth=args.max_depth)
    save_tree(tree, args.out)
    agreement = sum(1 for x, y in dataset.rows if infer(tree, x) == y)
    print(f"trained CART: {len(tree.inner_nodes())} inner nodes, "
          f"{len(tree.leaves())} leaves, depth {tree.depth()}, "
          f"training accuracy {agreement / len(dataset.rows):.3f}, "
          f"min separation {min_path_separation(tree):g}")
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_attack(args, seed: int) -> int:
    target = load_tree(args.tree)
    model = ChannelModel(kind=_CHANNELS[args.channel], flip_noise=args.flip_noise)
    session = ChannelSession(model, seed=seed)
    result = dt_extraction(make_oracle(target, session), target.ranges_low,
                           target.ranges_high, args.epsilon,
                           passive_tracking=not args.no_passive_tracking)
    shadow = result.to_decision_tree(target.ranges_low, target.ranges_high)
    save_tree(shadow, args.out)
    if args.transcript:
        result.write_transcript(args.transcript)
    cost = f"{result.queries} queries"
    if model.kind == PHR_SGX:
        cost += f", {session.pht_mispredicts} readout mispredicts"
    print(f"extracted {len(shadow.inner_nodes())} inner nodes / "
          f"{len(shadow.leaves())} leaves in {cost} (channel: {args.channel})")
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_baseline(args, seed: int) -> int:
    target = load_tree(args.tree)
    session = ChannelSession(ChannelModel(), seed=seed)
    result = api_attack_extract(label_only_oracle(target, session), target.ranges_low,
                                target.ranges_high, args.epsilon, args.max_queries)
    write_json(args.out, result.model.to_dict())
    print(f"baseline mapped {len(result.model.regions)} regions in "
          f"{result.queries} queries"
          + (" (budget exhausted, partial)" if result.exhausted else ""))
    print(f"wrote {args.out}")
    return EXIT_PARTIAL if result.exhausted else EXIT_OK


def _cmd_eval(args, seed: int) -> int:
    if args.dataset is None and args.header:
        print("error: --header needs --dataset", file=sys.stderr)
        return EXIT_USAGE
    target = load_tree(args.target)
    shadow = _load_shadow(args.shadow)
    if args.dataset is not None:
        inputs = load_dataset(args.dataset, header=args.header).inputs()
    else:
        if args.grid_dataset < 1:
            raise ValueError("--grid-dataset must be at least 1")
        inputs = boundary_margin_inputs(target, args.grid_dataset, seed=seed)
    fid = fidelity(target, shadow, inputs)
    print(f"fidelity {fid:.4f} (extraction error {1 - fid:.4f}) on {len(inputs)} rows")
    if args.out:
        write_json(args.out, {"fidelity": fid, "extraction_error": 1 - fid, "rows": len(inputs)})
    return EXIT_OK


def _cmd_sweep(args, seed: int) -> int:
    if args.samples < 1:
        raise ValueError("--samples must be at least 1")
    target = load_tree(args.tree)
    channel = ChannelModel(kind=_CHANNELS[args.channel])
    eval_inputs = boundary_margin_inputs(target, args.samples, seed=seed)
    attacks = ["extractor", "baseline"] if args.attack == "both" else [args.attack]
    results = {}
    for attack in attacks:
        results[attack] = pareto_sweep(
            target, attack, channel=channel, eps_start=args.eps_start,
            timeout=args.timeout, plateau_limit=args.plateau_limit,
            eval_inputs=eval_inputs, seed=seed)
    json_path, csv_path = emit_report(results, args.out,
                                      include_timing=not args.no_timing)
    partial = False
    for name, res in sorted(results.items()):
        last = res.points[-1]
        print(f"{name}: {len(res.points)} points, final epsilon {last.epsilon:g}, "
              f"fidelity {last.fidelity:.4f}, status {last.status}")
        partial = partial or last.status != "ok" or last.fidelity < 1.0
    print(f"wrote {json_path} and {csv_path}")
    return EXIT_PARTIAL if partial else EXIT_OK


def _cmd_report(args, seed: int) -> int:
    results = load_report(args.inputs)
    for name, res in sorted(results.items()):
        print(f"[{name}]")
        print(f"  {'epsilon':>12} {'queries':>9} {'fidelity':>9} status")
        for p in res.points:
            print(f"  {p.epsilon:>12g} {p.queries:>9} {p.fidelity:>9.4f} {p.status}")
        frontier = pareto_frontier(res.points)
        print(f"  pareto frontier: "
              + ", ".join(f"({p.queries} q, {p.fidelity:.3f})" for p in frontier))
    if args.out:
        emit_report(results, args.out)
        print(f"re-emitted into {args.out}")
    return EXIT_OK


_COMMANDS = {
    "gen-tree": _cmd_gen_tree,
    "train": _cmd_train,
    "attack": _cmd_attack,
    "baseline": _cmd_baseline,
    "eval": _cmd_eval,
    "sweep": _cmd_sweep,
    "report": _cmd_report,
}


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    logging.basicConfig(level=getattr(logging, args.log_level.upper()))
    seed = _resolve_seed(args)
    try:
        return _COMMANDS[args.command](args, seed)
    except (TreeStealerError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
