"""Outside-in layer tracing for the campaign benchmark.

``Tracer.install`` replaces, in the current process, the public functions of
wavetile's layers (``grid``, ``dyadic``, ``norms``, ``analysis``,
``operators``, ``wavetile.bench``), the methods named in ``METHODS``, the two
private range routes and the ``numpy.fft`` transforms with wrappers that
record every call.  No program file changes: every module-level name
that refers to a wrapped function is rebound, so calls between layers go
through the wrappers too.  Install it only in a process of its own; nothing
is restored.

A span is ``(id, parent id, target span id, name, start, end)``; every span
inside a target carries that target's span id.  Each function's self time is
its call's duration minus the part its wrapped callees cover, summed as calls
return.  Leaf calls (those that make no wrapped call, such as the FFT
transforms and the range routes, up to hundreds of thousands per campaign)
are folded into per-(parent span, name) aggregates instead of one span each.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import importlib
import inspect
import json
import math
import sys
import time

import numpy as np

# Layer prefix -> modules whose public functions are wrapped.
LAYER_MODULES = {
    "grid": ("wavetile.grid",),
    "dyadic": ("wavetile.dyadic",),
    "norms": ("wavetile.norms",),
    "analysis": ("wavetile.analysis",),
    "operators": (
        "wavetile.operators.paraproducts",
        "wavetile.operators.bht",
        "wavetile.operators.leibniz",
        "wavetile.operators.ranges",
        "wavetile.operators.vector",
    ),
    "bench": (
        "wavetile.bench.generate",
        "wavetile.bench.report",
        "wavetile.bench.campaign",
        "wavetile.bench.targets",
    ),
}

# (layer, module, class, method)
METHODS = (
    ("grid", "wavetile.grid", "SpectralMultiplier", "apply"),
    ("dyadic", "wavetile.dyadic", "WavePacketFamily", "coefficients"),
    ("dyadic", "wavetile.dyadic", "WavePacketFamily", "scale_coefficients"),
)

# (module, function, span name): the entry points the range target calls.
RANGE_ROUTES = (
    ("wavetile.operators.ranges", "_theta_feasible", "operators.ranges.theta_feasible"),
    ("wavetile.operators.ranges", "_case_member", "operators.ranges.case_member"),
)

# numpy.fft transform -> (real transform?, n-dimensional?, default axes)
FFT_ENTRIES = {
    "fft": (False, False, None),
    "ifft": (False, False, None),
    "rfft": (True, False, None),
    "irfft": (True, False, None),
    "fft2": (False, True, (-2, -1)),
    "ifft2": (False, True, (-2, -1)),
    "rfft2": (True, True, (-2, -1)),
    "irfft2": (True, True, (-2, -1)),
    "fftn": (False, True, None),
    "ifftn": (False, True, None),
    "rfftn": (True, True, None),
    "irfftn": (True, True, None),
}

# metric prefix -> lru_cache'd functions whose counters it sums
CACHES = {
    "grid.projection_cache": (("wavetile.grid", "_projection_values"),),
    "dyadic.packet_cache": (
        ("wavetile.dyadic", "_base_packet"),
        ("wavetile.dyadic", "_tile_base_packet"),
    ),
    "dyadic.bump_cache": (("wavetile.dyadic", "_torus_bump_cached"),),
}


def _fft_work(entry: str, args: tuple, kwargs: dict, out: np.ndarray) -> tuple[int, float, int]:
    """Points, flops and bytes of one transform, computed from array shapes.

    A complex transform of length N counts 5 N log2 N flops; a real one
    counts half.  Bytes are the input plus the output array, so cache
    misses are not seen.
    """
    real, ndim, default_axes = FFT_ENTRIES[entry]
    a = np.asarray(args[0] if args else kwargs["a"])
    if ndim:
        size_arg = kwargs.get("s", args[1] if len(args) > 1 else None)
        axes = kwargs.get("axes", args[2] if len(args) > 2 else default_axes)
        if axes is None:
            count = len(size_arg) if size_arg is not None else out.ndim
            axes = range(out.ndim - count, out.ndim)
        axes = [ax % out.ndim for ax in axes]
    else:
        size_arg = kwargs.get("n", args[1] if len(args) > 1 else None)
        axes = [kwargs.get("axis", args[2] if len(args) > 2 else -1) % out.ndim]
    shape = list(out.shape)
    if real and entry.startswith("r"):
        # forward real transform: the logical length of the last axis is
        # the real input's, not the half spectrum's
        last = axes[-1]
        if size_arg is None:
            shape[last] = a.shape[last]
        else:
            shape[last] = size_arg[-1] if ndim else size_arg
    points = math.prod(shape)
    factor = 2.5 if real else 5.0
    flops = factor * points * sum(math.log2(shape[ax]) for ax in axes if shape[ax] > 1)
    return points, flops, a.nbytes + out.nbytes


class Tracer:
    """Spans, call counts and self times for one traced campaign."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.leaves: dict[tuple[int, str], list] = {}
        self.totals: dict[str, list] = {}  # name -> [calls, self s, inclusive s]
        self.fft_work = {"points": 0, "flops_computed": 0.0, "bytes_computed": 0}
        self.target_names: dict[int, str] = {}
        # open spans: [span id, child seconds, has a child]
        self._stack = [[-1, 0.0, True]]
        self._next_id = 0
        self._target = -1

    def wrap(self, name: str, fn, fft_entry: str | None = None, target: bool = False):
        """Return ``fn`` wrapped so that each call is recorded.

        A call that made wrapped calls of its own becomes a span; a leaf call
        is added to its parent span's aggregate for ``name``.
        """
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans
        leaves = self.leaves
        work = self.fft_work
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            parent[2] = True
            span_id = self._next_id
            self._next_id += 1
            outer_target = self._target
            if target:
                self._target = span_id
                self.target_names[span_id] = name
            frame = [span_id, 0.0, False]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                parent[1] += elapsed
                totals[0] += 1
                totals[1] += elapsed - frame[1]
                totals[2] += elapsed
                if frame[2]:
                    spans.append((span_id, parent[0], self._target, name, start, end))
                else:
                    agg = leaves.get((parent[0], name))
                    if agg is None:
                        leaves[(parent[0], name)] = [1, elapsed]
                    else:
                        agg[0] += 1
                        agg[1] += elapsed
                self._target = outer_target
            if fft_entry is not None:
                points, flops, nbytes = _fft_work(fft_entry, args, kwargs, out)
                work["points"] += points
                work["flops_computed"] += flops
                work["bytes_computed"] += nbytes
                # keep the accounting out of the caller's self time
                parent[1] += clock() - end
            return out

        return traced

    def install(self) -> None:
        """Wrap every layer in this process; call after ``import wavetile``."""
        wrappers: dict[int, object] = {}
        for layer, module_names in LAYER_MODULES.items():
            for module_name in module_names:
                module = importlib.import_module(module_name)
                for attr, fn in vars(module).items():
                    if (inspect.isfunction(fn) and fn.__module__ == module_name
                            and not attr.startswith("_")):
                        wrappers[id(fn)] = self.wrap(f"{layer}.{attr}", fn)
        for module_name, attr, name in RANGE_ROUTES:
            fn = getattr(importlib.import_module(module_name), attr)
            wrappers[id(fn)] = self.wrap(name, fn)
        for module in list(sys.modules.values()):
            if module is None or not module.__name__.startswith("wavetile"):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
        for layer, module_name, cls_name, method in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            setattr(cls, method, self.wrap(f"{layer}.{cls_name}.{method}", vars(cls)[method]))
        for entry in FFT_ENTRIES:
            setattr(np.fft, entry, self.wrap(f"fft.{entry}", getattr(np.fft, entry),
                                             fft_entry=entry))
        registry = importlib.import_module("wavetile.bench.targets").REGISTRY
        for name, entry in list(registry.items()):
            registry[name] = dataclasses.replace(
                entry, runner=self.wrap(f"bench.target.{name}", entry.runner, target=True)
            )

    def metrics(self) -> dict[str, float]:
        """Per-layer figures: ``<name>.calls`` and ``<name>.self_s`` for every
        wrapped function, FFT totals, cache counters and the inclusive
        seconds of each target and of the report."""
        out: dict[str, float] = {}
        for name, (calls, self_s, total_s) in self.totals.items():
            if name.startswith("bench.target."):
                out[f"{name}.s"] = total_s
            else:
                out[f"{name}.calls"] = calls
                out[f"{name}.self_s"] = self_s
        fft = [self.totals[f"fft.{entry}"] for entry in FFT_ENTRIES]
        out["fft.calls"] = sum(t[0] for t in fft)
        out["fft.self_s"] = sum(t[1] for t in fft)
        for key, value in self.fft_work.items():
            out[f"fft.{key}"] = value
        out["bench.emit_report.s"] = self.totals["bench.emit_report"][2]
        for prefix, functions in CACHES.items():
            infos = [getattr(importlib.import_module(m), f).cache_info() for m, f in functions]
            hits = sum(info.hits for info in infos)
            misses = sum(info.misses for info in infos)
            out[f"{prefix}.hits"] = hits
            out[f"{prefix}.misses"] = misses
            out[f"{prefix}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        return out

    def write(self, path, header: dict) -> None:
        """Write the spans, leaf aggregates and totals as gzipped JSON."""
        payload = {
            **header,
            "span_fields": ["id", "parent", "target", "name", "start_s", "end_s"],
            "targets": {str(k): v for k, v in self.target_names.items()},
            "spans": self.spans,
            "leaves": [
                {"parent": parent, "name": name, "calls": calls, "seconds": seconds}
                for (parent, name), (calls, seconds) in self.leaves.items()
            ],
            "totals": {
                name: {"calls": calls, "self_s": self_s, "total_s": total_s}
                for name, (calls, self_s, total_s) in sorted(self.totals.items())
            },
        }
        data = json.dumps(payload, separators=(",", ":")).encode()
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(data)
