"""Command line interface.

Subcommands:
  run <config>       execute a campaign; exit 0 iff every target passed, 1 if
                     one failed, 2 before any target starts if the config
                     cannot be read or parsed or its output directory cannot
                     be made; each target's seconds, rows and max_ratio/cap
                     go to stderr
  list-targets       print the registry with one-line statements
  range "<query>"    evaluate an exponent-range membership query
  decompose-demo     run a small stopping-time decomposition, print its JSON
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .. import analysis
from ..grid import SampleGrid
from ..operators import bht_range_membership, format_range_query, parse_range_query
from .campaign import ExperimentConfig, parse_config, run_campaign
from .report import emit_report
from .targets import REGISTRY, _random_stopping_config


def _bounded_int(name: str, ok, rule: str):
    """argparse type for an integer ``name`` satisfying ``ok``, described by ``rule``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{name} must be an integer, got {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{name} must be {rule}, got {value}")
        return value
    return parse


_seed = _bounded_int("seed", lambda v: v >= 0, "non-negative")
# 32 samples is the smallest grid on which the demo's stopping time runs
_size = _bounded_int("size", lambda v: v >= 32 and not v & (v - 1), "a power of two >= 32")


def _timing_line(result) -> str:
    """A target's seconds, rows and, where it has both, max_ratio/cap."""
    line = f"{result.name}: {result.seconds:.3f} s  rows={len(result.rows)}"
    max_ratio, cap = result.aggregates.get("max_ratio"), result.aggregates.get("cap")
    if max_ratio is not None and cap is not None:
        line += f"  max_ratio/cap={max_ratio / cap:.3g}"
    return line


def _cmd_run(args) -> int:
    try:
        cfg = parse_config(Path(args.config).read_text())
        if args.out:
            cfg.out = args.out
        Path(cfg.out).mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        print(f"wavetile run: {exc}", file=sys.stderr)
        return 2
    report = run_campaign(cfg)
    paths = emit_report(report, cfg.out)
    for result in report.results:
        status = "PASS" if result.passed and result.error is None else "FAIL"
        extra = " (error)" if result.error else ""
        print(f"[{status}] {result.name}{extra}  rows={len(result.rows)}")
        print(_timing_line(result), file=sys.stderr)
    print(f"wrote {len(paths)} files under {cfg.out}")
    print("campaign:", "PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def _cmd_list_targets(_args) -> int:
    width = max(len(name) for name in REGISTRY)
    for name, target in REGISTRY.items():
        cap = "no cap" if target.cap is None else f"cap {target.cap:g}"
        print(f"{name:<{width}}  [{cap}]  {target.statement}")
    return 0


def _cmd_range(args) -> int:
    try:
        query = parse_range_query(args.query)
    except ValueError as exc:
        print(f"wavetile range: {exc}", file=sys.stderr)
        return 2
    result = bht_range_membership(query)
    print(f"query:  {format_range_query(query)}")
    print(f"member: {result.member}")
    print(f"cases:  {', '.join(result.case_labels)}")
    if query.depth > 1:
        print(f"chain:  {'ok' if result.chain_ok else 'violated'}")
    if result.member:
        for level, theta in enumerate(result.theta):
            pretty = ", ".join(str(t) for t in theta)
            print(f"theta[{level}]: ({pretty})")
    return 0


def _cmd_decompose_demo(args) -> int:
    grid = SampleGrid(args.size, 4.0)
    seed = ExperimentConfig(seed=args.seed).seeds("decompose-demo", 1)[0]
    family, E1, E2, E3, root = _random_stopping_config(seed, grid, 3)
    forest = analysis.stopping_decompose(family, E1, E2, E3, root)
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
    p_demo.add_argument("--size", type=_size, default=512)
    p_demo.add_argument("--seed", type=_seed, default=7)
    p_demo.set_defaults(fn=_cmd_decompose_demo)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
