"""``benchmarks/seeds.py`` runs the full campaign over seeds 1..N in process
and writes each target's verdicts and aggregate quantiles.

No other test runs the script; this runs it at two seeds and one trial per
target and checks its record against the campaigns it ran.  A seed-free
target (registry ``trials == 0``) is run and recorded once.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from wavetile.bench import REGISTRY, ExperimentConfig, run_campaign

ROOT = Path(__file__).resolve().parents[1]


def test_seeds_script_records_every_target_at_every_seed(tmp_path):
    out = tmp_path / "seeds.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "seeds.py"),
         "--seeds", "2", "--trials", "1", "--json", str(out)],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    assert record["seeds"] == [1, 2] and record["trials"] == 1
    assert list(record["targets"]) == list(REGISTRY)
    reports = {s: run_campaign(ExperimentConfig(seed=s, trials=1)) for s in (1, 2)}
    assert record["passed_seeds"] == [s for s, rep in reports.items() if rep.passed]
    assert record["pass_count"] == len(record["passed_seeds"])
    for name, entry in record["targets"].items():
        results = {s: next(r for r in rep.results if r.name == name)
                   for s, rep in reports.items()}
        want = {str(s): "PASS" if r.passed and r.error is None else "FAIL"
                for s, r in results.items()}
        scalars = {key: float(value) for key, value in results[1].aggregates.items()
                   if isinstance(value, (int, float)) and not isinstance(value, bool)}
        assert entry["seed_free"] == (REGISTRY[name].trials == 0), name
        if entry["seed_free"]:
            assert set(want.values()) == {entry["verdict"]}, name
            assert entry["aggregates"] == scalars, name
            continue
        assert entry["verdicts"] == want, name
        assert entry["passes"] == list(want.values()).count("PASS")
        # the scalar numeric aggregates, and only those, get quantiles
        assert set(entry["aggregates"]) == set(scalars), name
        for key, q in entry["aggregates"].items():
            xs = sorted(float(r.aggregates[key]) for r in results.values())
            assert q == {"min": xs[0], "median": (xs[0] + xs[1]) / 2, "max": xs[1]}
