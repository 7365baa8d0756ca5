"""Batch experiment harness: generators, targets, campaigns, reports."""

from .campaign import CampaignReport, ExperimentConfig, parse_config, run_campaign
from .generate import generate_trial, rng_for
from .report import emit_report, render_csv, render_json
from .targets import REGISTRY, InequalityTarget, TargetResult, TrialRow, target_names

__all__ = [
    "CampaignReport",
    "ExperimentConfig",
    "InequalityTarget",
    "REGISTRY",
    "TargetResult",
    "TrialRow",
    "emit_report",
    "generate_trial",
    "parse_config",
    "render_csv",
    "render_json",
    "rng_for",
    "run_campaign",
    "target_names",
]
