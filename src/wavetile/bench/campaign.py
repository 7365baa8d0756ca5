"""Campaign configuration and runner.

Config files are flat ``key = value`` text ('#' starts a comment):

    seed = 7
    grid_size = 1024
    trials = 40            # optional per-target ceiling; omit for defaults
    targets = vv-paraproduct, stopping-invariants
    out = reports

Each key and each target appears at most once, and a bad value is rejected
at parse time with the key or field named; ``grid_size`` must be a power of
two >= 32.  Caps are the registry's, one per target.

Identical config + seed reproduce byte-identical reports: all randomness is
Philox counter-based, targets and their trials run one after another in a
fixed order, and floats are serialized with repr.
"""

from __future__ import annotations

import hashlib
import time
import traceback
from dataclasses import asdict, dataclass

from .targets import REGISTRY, TargetResult

__all__ = ["ExperimentConfig", "CampaignReport", "run_campaign", "parse_config"]


@dataclass
class ExperimentConfig:
    seed: int = 7
    grid_size: int = 1024
    trials: int | None = None
    targets: tuple[str, ...] | None = None  # None = every registered target
    out: str = "reports"

    def __post_init__(self):
        if self.targets is None:
            self.targets = tuple(REGISTRY)
        else:
            self.targets = tuple(self.targets)
        unknown = [t for t in self.targets if t not in REGISTRY]
        if unknown:
            raise ValueError(f"unknown targets: {unknown}")
        repeated = sorted({t for t in self.targets if self.targets.count(t) > 1})
        if repeated:
            raise ValueError(f"repeated targets: {repeated}")
        n = self.grid_size
        # below 32 points vv-paraproduct's band-limited inputs reach no
        # lacunary packet, so its ratio is round-off and its cap cannot fail
        if n < 32 or n & (n - 1):
            raise ValueError(f"grid_size must be a power of two >= 32, got {n!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.trials is not None and self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")

    def trial_count(self, default: int) -> int:
        """A target's trial count: its default, lowered to ``trials`` if set
        (a seed-free target's 0 stays 0)."""
        return default if self.trials is None else min(default, self.trials)

    def seeds(self, label: str, count: int) -> list[int]:
        """Seeds of the trials t < ``count`` labelled ``label`` (a registry
        name, or the CLI's ``decompose-demo``): 63-bit hashes of (campaign
        seed, label, t), so no two targets or trials share one."""
        keys = (f"{self.seed}|{label}|{t}".encode() for t in range(count))
        return [int.from_bytes(hashlib.blake2b(k, digest_size=8).digest(), "big") >> 1
                for k in keys]


def _integer(key: str, val: str) -> int:
    try:
        return int(val)
    except ValueError:
        raise ValueError(f"config key {key!r}: cannot read {val!r} as int") from None


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

    kwargs: dict = {}
    for key, val in fields.items():
        if key in ("seed", "grid_size", "trials"):
            kwargs[key] = _integer(key, val)
        elif key == "targets":
            kwargs["targets"] = tuple(_items(key, val))
        elif key == "out":
            kwargs["out"] = val
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


def run_campaign(cfg: ExperimentConfig) -> CampaignReport:
    """Execute every configured target in order; errors abort the target only."""
    results = []
    for name in cfg.targets:
        target = REGISTRY[name]
        t0 = time.perf_counter()
        error = None
        try:
            seeds = cfg.seeds(name, cfg.trial_count(target.trials))
            rows, aggregates, passed = target.runner(cfg, seeds, target.cap)
        except Exception:
            rows, aggregates, passed = [], {}, False
            error = traceback.format_exc(limit=3)
        results.append(TargetResult(name, target.statement, rows, aggregates, passed,
                                    error, time.perf_counter() - t0))
    return CampaignReport(asdict(cfg), results)
