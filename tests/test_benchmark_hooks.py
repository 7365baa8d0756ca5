"""The benchmark's layer tracer names wavetile functions; they must still exist.

``perfbench/layertrace.py`` wraps functions by module and name, and
``BENCHMARK.json`` lists the per-layer metrics built from them.  A rename in
``src/`` would otherwise surface only when a traced benchmark run ends
without a figure for the renamed hook.
"""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import numpy as np

from wavetile.bench import REGISTRY

ROOT = Path(__file__).resolve().parents[1]

# Metric suffixes the tracer appends to a hook name, longest match first.
SUFFIXES = (".self_s", ".calls", ".hits", ".misses", ".hit_ratio", ".s")
# Metrics the harness computes itself rather than from a wavetile hook.
HARNESS_PREFIXES = ("fft.", "trace.")
HARNESS_METRICS = {"bench.rows"}


def _layertrace():
    spec = importlib.util.spec_from_file_location(
        "layertrace", ROOT / "perfbench" / "layertrace.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LT = _layertrace()


def _public_functions(module_name: str) -> set[str]:
    module = importlib.import_module(module_name)
    return {
        attr for attr, fn in vars(module).items()
        if inspect.isfunction(fn) and fn.__module__ == module_name
        and not attr.startswith("_")
    }


def _hook_resolves(hook: str) -> bool:
    if hook in LT.CACHES or hook in {name for _, _, name in LT.RANGE_ROUTES}:
        return True
    layer, _, rest = hook.partition(".")
    if layer == "bench" and rest.startswith("target."):
        return rest[len("target."):] in REGISTRY
    if "." in rest:
        cls, method = rest.split(".", 1)
        return any(
            (entry[0], entry[2], entry[3]) == (layer, cls, method) for entry in LT.METHODS
        )
    return any(rest in _public_functions(m) for m in LT.LAYER_MODULES.get(layer, ()))


def test_layertrace_hooks_resolve():
    missing = []
    for modules in LT.LAYER_MODULES.values():
        for module_name in modules:
            if not _public_functions(module_name):
                missing.append(f"{module_name}: no public function")
    for _layer, module_name, cls_name, method in LT.METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name, None)
        if cls is None or not callable(vars(cls).get(method)):
            missing.append(f"{module_name}.{cls_name}.{method}")
    for module_name, attr, _name in LT.RANGE_ROUTES:
        if not callable(getattr(importlib.import_module(module_name), attr, None)):
            missing.append(f"{module_name}.{attr}")
    for functions in LT.CACHES.values():
        for module_name, attr in functions:
            fn = getattr(importlib.import_module(module_name), attr, None)
            if not hasattr(fn, "cache_info"):
                missing.append(f"{module_name}.{attr}.cache_info")
    for entry in LT.FFT_ENTRIES:
        if not callable(getattr(np.fft, entry, None)):
            missing.append(f"numpy.fft.{entry}")
    assert not missing, f"hooks named in perfbench/layertrace.py are gone: {missing}"


def test_per_layer_metrics_resolve():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    unresolved = []
    for metric in (m["name"] for m in spec["per_layer"]):
        if metric in HARNESS_METRICS or metric.startswith(HARNESS_PREFIXES):
            continue
        hook = next((metric[: -len(s)] for s in SUFFIXES if metric.endswith(s)), None)
        if hook is None or not _hook_resolves(hook):
            unresolved.append(metric)
    assert not unresolved, f"per-layer metrics without a live hook: {unresolved}"
