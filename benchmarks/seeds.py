"""Seed sweep: the full campaign's verdicts and aggregates over seeds 1..N.

    PYTHONPATH=src python3 benchmarks/seeds.py [--seeds 24] [--trials T] [--json FILE]

Runs ``run_campaign(ExperimentConfig(seed=s))`` in this process for
s = 1..N, every registered target at its default trial count (lowered to
``--trials`` if given), and prints one line per seed: the campaign verdict
and the targets that did not pass.  A seed-free target (registry
``trials == 0``) gives the same result at every seed, so it runs once, at
seed 1, and its verdict counts at every seed.

``--json`` writes the sweep: per seeded target, its verdict at each seed
(PASS, FAIL, or ERROR when the runner raised), its PASS count and the min,
median and max over seeds of each scalar numeric aggregate (booleans and
nested values are left out); per seed-free target, its one verdict and its
scalar numeric aggregates; and the seeds at which the whole campaign passes.
A change that moves report bytes commits a new ``SEEDS_<k>.json``, and a new
gate states the quantile of this spread that it sits above.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

import numpy as np

from wavetile.bench import REGISTRY, ExperimentConfig, run_campaign


def _verdict(result) -> str:
    if result.error is not None:
        return "ERROR"
    return "PASS" if result.passed else "FAIL"


def _scalars(result) -> dict[str, float]:
    return {key: float(value) for key, value in result.aggregates.items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)}


def sweep(seeds: int, trials: int | None) -> dict:
    """Run the campaign at seeds 1..``seeds`` and gather the sweep record."""
    seed_free = tuple(name for name, entry in REGISTRY.items() if entry.trials == 0)
    seeded = tuple(name for name in REGISTRY if name not in seed_free)
    verdicts = {name: [] for name in seeded}
    values = {name: {} for name in seeded}
    passed_seeds = []
    t0 = time.perf_counter()
    once = run_campaign(ExperimentConfig(seed=1, trials=trials, targets=seed_free))
    failing_once = [r.name for r in once.results if _verdict(r) != "PASS"]
    print(f"seed-free: {'PASS' if once.passed else 'FAIL'} {' '.join(failing_once)}",
          flush=True)
    for seed in range(1, seeds + 1):
        report = run_campaign(ExperimentConfig(seed=seed, trials=trials, targets=seeded))
        passed = report.passed and once.passed
        if passed:
            passed_seeds.append(seed)
        for result in report.results:
            verdicts[result.name].append(_verdict(result))
            for key, value in _scalars(result).items():
                values[result.name].setdefault(key, []).append(value)
        failing = [r.name for r in report.results if _verdict(r) != "PASS"] + failing_once
        print(f"seed {seed}: {'PASS' if passed else 'FAIL'} {' '.join(failing)}", flush=True)
    targets = {
        name: {
            "seed_free": False,
            "verdicts": dict(zip(map(str, range(1, seeds + 1)), verdicts[name])),
            "passes": verdicts[name].count("PASS"),
            "aggregates": {
                key: {"min": min(xs), "median": statistics.median(xs), "max": max(xs)}
                for key, xs in values[name].items()
            },
        }
        for name in seeded
    }
    for result in once.results:
        targets[result.name] = {"seed_free": True, "verdict": _verdict(result),
                                "aggregates": _scalars(result)}
    targets = {name: targets[name] for name in REGISTRY}
    return {
        "seeds": list(range(1, seeds + 1)),
        "trials": trials,
        "passed_seeds": passed_seeds,
        "pass_count": len(passed_seeds),
        "seconds": round(time.perf_counter() - t0, 1),
        "targets": targets,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=24, help="sweep seeds 1..N (>= 1)")
    parser.add_argument("--trials", type=int, help="lower every target's trial count to this")
    parser.add_argument("--json", help="write the sweep and the machine figures here")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    if args.trials is not None and args.trials < 1:
        parser.error("--trials must be at least 1")
    record = sweep(args.seeds, args.trials)
    print(f"{record['pass_count']} of {args.seeds} seeds pass: {record['passed_seeds']}")
    if args.json:
        record = {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            **record,
        }
        with open(args.json, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
