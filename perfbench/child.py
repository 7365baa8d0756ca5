"""One benchmark campaign in a fresh interpreter.

Builds the workload's ``ExperimentConfig``, then calls ``run_campaign`` and
``emit_report`` as ``wavetile run`` does, and prints its figures and its own
output checks as one JSON line on stdout.  ``run.py`` starts this script
once per measured repetition, so every repetition pays cold caches and the
import, as a command-line user does.

    python3 perfbench/child.py --workload packets --seed 7 --out DIR [--trace FILE]
    python3 perfbench/child.py --workload packets --seed 7 --setup-only
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import wavetile  # noqa: E402
from wavetile import bench  # noqa: E402

from workloads import GRID_SIZE, WORKLOADS  # noqa: E402


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mib() -> float:
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def _check_report(report, targets, seed, csv_text, json_text) -> list[str]:
    """Consistency of the written reports with the in-memory campaign."""
    errors = []
    payload = json.loads(json_text)
    if [r.name for r in report.results] != list(targets):
        errors.append("results are not the workload's targets in order")
    if set(payload["targets"]) != set(targets):
        errors.append("campaign.json does not list exactly the workload's targets")
    if payload["config"]["seed"] != seed:
        errors.append("campaign.json records another seed")
    if payload["passed"] != report.passed:
        errors.append("campaign.json verdict differs from the campaign's")
    for result in report.results:
        entry = payload["targets"].get(result.name, {})
        if len(entry.get("rows", ())) != len(result.rows):
            errors.append(f"{result.name}: campaign.json row count differs")
        if entry.get("passed") != result.passed or entry.get("error") != result.error:
            errors.append(f"{result.name}: campaign.json verdict differs")
    csv_rows = csv_text.count("\n") - 1
    if csv_rows != sum(len(r.rows) for r in report.results):
        errors.append("campaign.csv row count differs from the campaign's")
    return errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", help="report directory")
    parser.add_argument("--trace", help="trace the layers and write the spans to this file")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop where the first target would start")
    args = parser.parse_args()

    targets = WORKLOADS[args.workload]
    cfg = bench.ExperimentConfig(seed=args.seed, grid_size=GRID_SIZE,
                                 targets=targets, out=args.out or "")
    if args.setup_only:
        print(json.dumps({"ready": time.monotonic()}))
        return 0

    tracer = None
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()

    ready = time.monotonic()
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    report = bench.run_campaign(cfg)
    bench.emit_report(report, cfg.out)
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - cpu0

    out = Path(cfg.out)
    csv_bytes = (out / "campaign.csv").read_bytes()
    json_bytes = (out / "campaign.json").read_bytes()
    result = {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": _peak_rss_mib(),
        "targets": [
            {
                "name": r.name,
                "verdict": "PASS" if r.passed and r.error is None else "FAIL",
                "error": r.error,
                "seconds": r.seconds,
                "rows": len(r.rows),
            }
            for r in report.results
        ],
        "digests": {
            "campaign.csv": hashlib.sha256(csv_bytes).hexdigest(),
            "campaign.json": hashlib.sha256(json_bytes).hexdigest(),
        },
        "check_errors": _check_report(report, targets, args.seed,
                                      csv_bytes.decode(), json_bytes.decode()),
    }
    if tracer is not None:
        layers = tracer.metrics()
        layers["bench.rows"] = sum(t["rows"] for t in result["targets"])
        result["layers"] = layers
        tracer.write(args.trace, {
            "workload": args.workload,
            "seed": args.seed,
            "wavetile": wavetile.__version__,
        })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
