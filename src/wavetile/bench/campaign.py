"""Campaign configuration and runner.

Config files are flat ``key = value`` text ('#' starts a comment):

    seed = 7
    grid_size = 1024
    trials = 40            # optional per-target ceiling; omit for defaults
    targets = vv-paraproduct, stopping-invariants
    eps_values = 0.01, 0.05, 0.1
    cap.vv-paraproduct = 1.0
    out = reports

Each key appears at most once, and a bad value is rejected at parse time
with the key or field named.  ``cap.<target>`` is accepted only for targets
whose verdict reads a cap, and only with a finite value > 0.

Identical config + seed reproduce byte-identical reports: all randomness is
Philox counter-based, trials execute in a fixed order (parallel workers only
change wall time, never ordering), and floats are serialized with repr.
The thread count comes exclusively from the WAVETILE_THREADS environment
variable.
"""

from __future__ import annotations

import math
import os
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .targets import MAX_SEED, REGISTRY, RunContext, TargetResult

__all__ = ["ExperimentConfig", "CampaignReport", "run_campaign", "parse_config"]


@dataclass
class ExperimentConfig:
    seed: int = 7
    grid_size: int = 1024
    trials: int | None = None
    targets: tuple[str, ...] | None = None  # None = every registered target
    eps_values: tuple[float, ...] = (0.01, 0.05, 0.1)
    caps: dict = field(default_factory=dict)
    out: str = "reports"

    def __post_init__(self):
        if self.targets is None:
            self.targets = tuple(REGISTRY)
        else:
            self.targets = tuple(self.targets)
        unknown = [t for t in self.targets if t not in REGISTRY]
        if unknown:
            raise ValueError(f"unknown targets: {unknown}")
        unknown = sorted(t for t in self.caps if t not in REGISTRY)
        if unknown:
            raise ValueError(f"caps for unknown targets: {unknown}")
        for name, cap in sorted(self.caps.items()):
            if REGISTRY[name].default_cap is None:
                raise ValueError(f"cap.{name}: target {name!r} reads no cap, got {cap!r}")
            if not (math.isfinite(cap) and cap > 0):
                raise ValueError(f"cap.{name} must be finite and > 0, got {cap!r}")
        n = self.grid_size
        if n < 8 or n & (n - 1):
            raise ValueError("grid_size must be a power of two >= 8")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.seed > MAX_SEED:
            raise ValueError(
                f"seed must be at most 2**46 - 1 so trial seeds stay below 2**63, "
                f"got {self.seed}"
            )
        if self.trials is not None and self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        if not self.eps_values:
            raise ValueError("eps_values must not be empty")

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "grid_size": self.grid_size,
            "trials": self.trials,
            "targets": list(self.targets),
            "eps_values": list(self.eps_values),
            "caps": {k: self.caps[k] for k in sorted(self.caps)},
            "out": self.out,
        }


def _number(key: str, val: str, kind):
    try:
        return kind(val)
    except ValueError:
        raise ValueError(
            f"config key {key!r}: cannot read {val!r} as {kind.__name__}"
        ) from None


def _items(key: str, val: str) -> list[str]:
    items = [t.strip() for t in val.split(",")]
    if not all(items):
        raise ValueError(f"config key {key!r}: empty item in {val!r}")
    return items


def parse_config(text: str) -> ExperimentConfig:
    fields: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line: {raw!r}")
        key, val = line.split("=", 1)
        key = key.strip()
        if key in fields:
            raise ValueError(f"config key {key!r} given twice")
        fields[key] = val.strip()

    kwargs: dict = {"caps": {}}
    for key, val in fields.items():
        if key in ("seed", "grid_size", "trials"):
            kwargs[key] = _number(key, val, int)
        elif key == "targets":
            kwargs["targets"] = tuple(_items(key, val))
        elif key == "eps_values":
            kwargs["eps_values"] = tuple(_number(key, t, float) for t in _items(key, val))
        elif key == "out":
            kwargs["out"] = val
        elif key.startswith("cap."):
            kwargs["caps"][key[4:]] = _number(key, val, float)
        else:
            raise ValueError(f"unknown config key {key!r}")
    return ExperimentConfig(**kwargs)


@dataclass
class CampaignReport:
    config: dict
    results: list[TargetResult]

    @property
    def passed(self) -> bool:
        return all(r.passed and r.error is None for r in self.results)


def _thread_count() -> int:
    raw = os.environ.get("WAVETILE_THREADS", "1")
    try:
        count = int(raw)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(f"WAVETILE_THREADS must be a positive integer, got {raw!r}")
    return count


def run_campaign(cfg: ExperimentConfig) -> CampaignReport:
    """Execute every configured target; errors abort the target only."""
    workers = _thread_count()
    ctx = RunContext(
        seed=cfg.seed,
        trials=cfg.trials,
        grid_size=cfg.grid_size,
        caps=cfg.caps,
        eps_values=cfg.eps_values,
    )

    def run_one(name: str) -> TargetResult:
        target = REGISTRY[name]
        t0 = time.time()
        try:
            result = target.runner(ctx)
        except Exception:
            result = TargetResult(
                name, target.statement, [], {}, False,
                error=traceback.format_exc(limit=3),
            )
        result.seconds = time.time() - t0
        return result

    if workers == 1:
        results = [run_one(name) for name in cfg.targets]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_one, cfg.targets))
    return CampaignReport(cfg.to_dict(), results)
