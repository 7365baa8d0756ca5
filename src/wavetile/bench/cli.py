"""Command line interface.

Subcommands:
  run <config>       execute a campaign; exit 0 iff every target passed
  list-targets       print the registry with one-line statements
  range "<query>"    evaluate an exponent-range membership query
  decompose-demo     run a small stopping-time decomposition, print its JSON
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .. import analysis, dyadic
from ..grid import SampleGrid
from ..operators import bht_range_membership, format_range_query, parse_range_query
from .campaign import parse_config, run_campaign
from .generate import generate_trial
from .report import emit_report
from .targets import MAX_SEED, REGISTRY, _subfamily


def _seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}") from None
    if not 0 <= seed <= MAX_SEED:
        raise argparse.ArgumentTypeError(
            f"seed must be between 0 and 2**46 - 1, got {seed}"
        )
    return seed


def _cmd_run(args) -> int:
    text = Path(args.config).read_text()
    cfg = parse_config(text)
    if args.out:
        cfg.out = args.out
    report = run_campaign(cfg)
    paths = emit_report(report, cfg.out)
    for result in report.results:
        status = "PASS" if result.passed and result.error is None else "FAIL"
        extra = " (error)" if result.error else ""
        print(f"[{status}] {result.name}{extra}  rows={len(result.rows)}")
    print(f"wrote {len(paths)} files under {cfg.out}")
    print("campaign:", "PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def _cmd_list_targets(_args) -> int:
    width = max(len(name) for name in REGISTRY)
    for name, target in REGISTRY.items():
        cap = "no cap" if target.default_cap is None else f"cap {target.default_cap:g}"
        print(f"{name:<{width}}  [{cap}]  {target.statement}")
    return 0


def _cmd_range(args) -> int:
    query = parse_range_query(args.query)
    result = bht_range_membership(query)
    print(f"query:  {format_range_query(query)}")
    print(f"member: {result.member}")
    print(f"cases:  {', '.join(result.case_labels)}")
    if result.depth > 1:
        print(f"chain:  {'ok' if result.chain_ok else 'violated'}")
    if result.member:
        for level, theta in enumerate(result.theta):
            pretty = ", ".join(str(t) for t in theta)
            print(f"theta[{level}]: ({pretty})")
    return 0


def _cmd_decompose_demo(args) -> int:
    grid = SampleGrid(args.size, 4.0)
    root = dyadic.DyadicInterval(0, 0)
    rng = np.random.Generator(np.random.Philox(key=np.array([args.seed, 1], dtype=np.uint64)))
    family = _subfamily(rng, grid, root, 3, keep=0.8)
    cell = grid.spacing
    count = grid.sample_count // int(grid.period_length) // 8

    def rand_set(salt):
        return generate_trial(
            "dyadic_union", args.seed + salt,
            {"grid": grid, "measure": count * cell, "within": root},
        )

    forest = analysis.stopping_decompose(
        family, rand_set(1), rand_set(2), rand_set(3), root, C=4.0, M=10
    )
    print(json.dumps(forest.to_json_dict(), indent=1, sort_keys=True))
    print(
        f"# {len(forest.cells)} cells, {len(forest.selections)} selections, "
        f"exceptional ratio {forest.exceptional.ratio:.3f}",
        file=sys.stderr,
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wavetile",
        description="inequality campaigns for dyadic time-frequency operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a campaign from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="override the output directory")
    p_run.set_defaults(fn=_cmd_run)

    p_list = sub.add_parser("list-targets", help="list registered targets")
    p_list.set_defaults(fn=_cmd_list_targets)

    p_range = sub.add_parser("range", help="evaluate a range membership query")
    p_range.add_argument("query", help='e.g. "p=4 q=2 s=4/3 r1=4/3 r2=4 r=1"')
    p_range.set_defaults(fn=_cmd_range)

    p_demo = sub.add_parser("decompose-demo", help="print a stopping forest")
    p_demo.add_argument("--size", type=int, default=512)
    p_demo.add_argument("--seed", type=_seed, default=7)
    p_demo.set_defaults(fn=_cmd_decompose_demo)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
