"""Campaign benchmark: run one workload of wavetile from outside and print its figures.

    python3 perfbench/run.py --workload packets --seed 7 --seconds 42 --trace 0

Run it from the repository root.  Each repetition is a fresh interpreter
(``child.py``) that builds the workload's ``ExperimentConfig`` with the seed
as campaign seed, then calls ``run_campaign`` and ``emit_report``: the path
``wavetile run`` takes, with cold caches.  Repetitions run one after another
(a closed loop with one client) until the next one would end after
``--seconds``; the figures are medians over them.

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``.
``--trace 1`` runs one untraced and two traced repetitions and prints the
per-layer metrics, counted by ``layertrace.py`` in the traced ones, plus the
tracing overhead.  Either way the last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``attempted`` counts
target runs and ``failed`` those that raised; targets whose verdict is FAIL
are reported in ``failed_share`` on the summary lines, with every verdict
and the sha256 digests of ``campaign.csv`` and ``campaign.json``.

Outputs are correct when every repetition's reports agree with its campaign
(``child.py`` checks them) and every repetition, traced or not, writes
byte-identical reports with the same verdicts and the same layer counts.
Reports, a JSON record of the run and the gzipped spans of the last traced
repetition are left under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORK = Path(".perfbench")  # relative to ROOT, so report bytes do not name the checkout

SETUP_PROBES = 3
# The fewest repetitions a run makes: two traced ones let a run check that
# the layer counts repeat exactly.
PLAIN_PATTERN = ["plain", "plain"]
TRACE_PATTERN = ["plain", "traced", "traced"]
RUN_LIMIT_S = 170.0  # hard limit for a whole run, child processes included


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("WAVETILE_THREADS", None)  # measure the default serial path
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _run_child(argv: list[str], deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"run limit of {RUN_LIMIT_S:.0f} s reached")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), *argv], cwd=ROOT, env=_child_env(),
            capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"run limit of {RUN_LIMIT_S:.0f} s reached") from exc
    if proc.returncode != 0:
        raise BenchError(f"child {' '.join(argv)} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    result["elapsed_s"] = time.monotonic() - spawned
    return result


def _repetitions(pattern: list[str], base: list[str], seconds: float, started: float,
                 deadline: float, workload: str, seed: int) -> list[dict]:
    """Run the repetitions in ``pattern``, then keep cycling through it while
    the next one is expected to end within ``seconds`` of ``started``."""
    reps: list[dict] = []
    while True:
        kind = pattern[len(reps) % len(pattern)]
        if len(reps) >= len(pattern):
            done = [r["elapsed_s"] for r in reps if r["kind"] == kind]
            if time.monotonic() - started + statistics.median(done) > seconds:
                return reps
        out = WORK / "reports" / workload
        shutil.rmtree(ROOT / out, ignore_errors=True)
        argv = [*base, "--out", str(out)]
        if kind == "traced":
            argv += ["--trace", str(WORK / f"{workload}-seed{seed}.trace.json.gz")]
        result = _run_child(argv, deadline)
        result["kind"] = kind
        reps.append(result)


def _is_time(name: str) -> bool:
    return name.endswith("_s") or name.endswith(".s")


def _check_reps(reps: list[dict]) -> list[str]:
    problems = [f"rep {i}: {e}" for i, r in enumerate(reps) for e in r["check_errors"]]

    def verdicts(rep):
        return [(t["name"], t["verdict"], t["error"] is None) for t in rep["targets"]]

    first = reps[0]
    # a raised target's traceback, which the reports hold, shows the tracer's frames
    raised = any(t["error"] for t in first["targets"])
    for i, rep in enumerate(reps[1:], 1):
        comparable = rep["kind"] == first["kind"] or not raised
        if comparable and rep["digests"] != first["digests"]:
            problems.append(f"rep {i} ({rep['kind']}) wrote reports that differ from rep 0")
        if verdicts(rep) != verdicts(first):
            problems.append(f"rep {i} ({rep['kind']}) gave other verdicts than rep 0")
    traced = [r["layers"] for r in reps if r["kind"] == "traced"]
    for i, layers in enumerate(traced[1:], 1):
        moved = sorted(k for k, v in layers.items() if not _is_time(k) and v != traced[0][k])
        if moved:
            problems.append(f"traced rep {i} counts differ from traced rep 0: {moved}")
    return problems


def _median_of(reps: list[dict], key) -> float:
    return statistics.median(key(r) for r in reps)


def _end_to_end(reps: list[dict], setup_samples: list[float]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": _median_of(reps, lambda r: r["wall_s"]),
        "cpu_s": _median_of(reps, lambda r: r["cpu_s"]),
        "critical_target_s": _median_of(reps, lambda r: max(t["seconds"] for t in r["targets"])),
        "peak_rss_mb": _median_of(reps, lambda r: r["peak_rss_mb"]),
    }


def _per_layer(reps: list[dict]) -> dict[str, float]:
    traced = [r for r in reps if r["kind"] == "traced"]
    plain = [r for r in reps if r["kind"] == "plain"]
    layers = {
        name: (_median_of(traced, lambda r: r["layers"][name]) if _is_time(name) else value)
        for name, value in traced[0]["layers"].items()
    }
    layers["trace.overhead_s"] = (_median_of(traced, lambda r: r["wall_s"])
                                  - _median_of(plain, lambda r: r["wall_s"]))
    return layers


def _environment(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
        "WAVETILE_THREADS": "unset",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int, help="campaign seed")
    parser.add_argument("--seconds", required=True, type=float,
                        help="measure for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    if not (ROOT / "src" / "wavetile" / "__init__.py").is_file():
        print("perfbench: src/wavetile not found; run from a wavetile checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    (ROOT / WORK).mkdir(exist_ok=True)
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    setup_samples: list[float] = []
    try:
        if args.trace:
            reps = _repetitions(TRACE_PATTERN, base, args.seconds, started,
                                deadline, args.workload, args.seed)
            figures = _per_layer(reps)
        else:
            _run_child([*base, "--setup-only"], deadline)  # writes bytecode caches; not timed
            setup_samples = [_run_child([*base, "--setup-only"], deadline)["setup_s"]
                             for _ in range(SETUP_PROBES)]
            reps = _repetitions(PLAIN_PATTERN, base, args.seconds, started,
                                deadline, args.workload, args.seed)
            setup_samples += [r["setup_s"] for r in reps]
            figures = _end_to_end(reps, setup_samples)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in figures]
    if missing:
        print(f"perfbench: no figure for {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in wanted}

    problems = _check_reps(reps)
    attempted = sum(len(r["targets"]) for r in reps)
    raised = sum(1 for r in reps for t in r["targets"] if t["error"] is not None)
    not_passed = sum(1 for r in reps for t in r["targets"] if t["verdict"] != "PASS")
    env = _environment(args.seed)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": env,
        "repetitions": len(reps),
        "correct": not problems,
        "problems": problems,
        "failed_share": not_passed / attempted,
        "verdicts": {t["name"]: {"verdict": t["verdict"], "error": t["error"]}
                     for t in reps[0]["targets"]},
        "digests": reps[0]["digests"],
        "metrics": metrics,
        "setup_samples_s": setup_samples,
        "reps": reps,
    }
    record_path = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (ROOT / record_path).write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  repetitions {len(reps)}  "
          + "  ".join(f"{k} {v}" for k, v in env.items()))
    for name, metric in metrics.items():
        print(f"{name:<56} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{'failed_share':<56} {record['failed_share']:>16.6g} share"
          f"  ({not_passed} of {attempted} target runs raised or gave FAIL)")
    for name, verdict in record["verdicts"].items():
        error = verdict["error"].strip().splitlines()[-1] if verdict["error"] else ""
        print(f"verdict {name:<24} {verdict['verdict']} {error}")
    for name, digest in record["digests"].items():
        print(f"sha256 {name:<14} {digest}")
    for problem in problems:
        print(f"INCORRECT: {problem}")
    print(f"record {record_path}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": raised, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
