"""``benchmarks/layers.py`` runs end to end on the packet engine, the model
sums, the cold torus bumps, the chi-weighted averages, the stopping sweep, the size-energy
sweep, the weak-norm dualization sweep, the Littlewood-Paley products, the
Leibniz sides, the BHT oracle pair and the range grid.

The script imports these layers by name and is not run by any other test;
this runs it with two repeats and checks its rows.
"""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_layers_script_writes_one_row_per_case(tmp_path):
    out = tmp_path / "layers.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "layers.py"),
         "--repeats", "2", "--json", str(out)],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(out.read_text())["rows"]
    cases = [(r["layer"], r.get("packets"), r.get("n"), r.get("K"), r.get("items"))
             for r in rows]
    want = set(itertools.product(
        ("packet_sweep", "packet_synth"), ("lacunary", "non-lacunary", "tile"),
        (512, 1024, 4096), (1, 16), (None,),
    )) | {("model_sum", "discretized_paraproduct", 1024, 1, 254),
          ("model_sum", "discretized_paraproduct", 1024, 16, 254),
          ("model_sum", "trilinear_form", 512, 1, 31),
          ("model_sum", "bht_model", 1024, 1, 28), ("model_sum", "bht_model", 1024, 1, 112),
          ("model_sum", "bht_model", 1024, 1, 448),
          ("torus_bump", None, 512, 1, None), ("chi_average", None, 512, 1, None),
          ("stopping_sweep", None, 512, 1, None),
          ("size_energy", "non-lacunary", 512, 1, None),
          ("size_energy", "lacunary", 512, 1, None),
          ("weak_dualization", None, 512, 1, None),
          ("telescope", None, 4096, 1, None), ("telescope", None, 256, 1, None),
          ("tensor", None, 128, 1, None), ("leibniz_sides", None, 256, 1, None),
          ("bht_kernel", None, 2048, 1, None), ("bht_spectral", None, 2048, 1, None),
          ("range_grid", None, None, None, None)}
    assert len(cases) == len(want) and set(cases) == want
    assert all(r["median_ms"] > 0 for r in rows)
    assert {r["layer"]: r["intervals"] for r in rows if "intervals" in r} == {
        "torus_bump": 31, "chi_average": 31, "stopping_sweep": 42, "size_energy": 31,
    }
    assert [(r["dimension"], r["band"]) for r in rows if "band" in r] == [
        (1, 512), (2, 32), (2, 8), (2, 8),
    ]
    assert [r["levels"] for r in rows if "levels" in r] == [32]
    assert [r["points"] for r in rows if r["layer"] == "range_grid"] == [292675]
