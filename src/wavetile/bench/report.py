"""Report emission: CSV rows, JSON mirror, columnar plot data.

Formats (all deterministic for a fixed config + seed; timing is kept out of
the files on purpose):

* CSV: header ``target,trial,seed,lhs,rhs,ratio,params`` with params as a
  canonical JSON object.
* JSON: config, per-target rows and aggregates, overall verdict.
* plotdata: one whitespace-separated file per target, columns
  ``trial ratio lhs rhs``, row count equal to the trial count.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

from .campaign import CampaignReport

__all__ = ["render_csv", "render_json", "emit_report"]


def _fmt(x: float) -> str:
    return repr(float(x))


def _params_json(params: dict) -> str:
    return json.dumps(params, sort_keys=True, default=str)


def render_csv(report: CampaignReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["target", "trial", "seed", "lhs", "rhs", "ratio", "params"])
    for result in report.results:
        for row in result.rows:
            writer.writerow([
                row.target, row.trial, row.seed,
                _fmt(row.lhs), _fmt(row.rhs), _fmt(row.ratio),
                _params_json(row.params),
            ])
    return buf.getvalue()


def render_json(report: CampaignReport) -> str:
    payload = {
        "config": report.config,
        "passed": report.passed,
        "targets": {
            r.name: {
                "statement": r.statement,
                "passed": r.passed,
                "error": r.error,
                "aggregates": r.aggregates,
                "rows": [
                    {
                        "trial": row.trial,
                        "seed": row.seed,
                        "lhs": row.lhs,
                        "rhs": row.rhs,
                        "ratio": row.ratio,
                        "params": row.params,
                    }
                    for row in r.rows
                ],
            }
            for r in report.results
        },
    }
    return json.dumps(payload, sort_keys=True, indent=1, default=str) + "\n"


def emit_report(report: CampaignReport, out_dir: str | Path) -> list[Path]:
    """Write ``campaign.csv``, ``campaign.json`` and ``plotdata/<target>.dat``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path, json_path = out / "campaign.csv", out / "campaign.json"
    csv_path.write_text(render_csv(report))
    json_path.write_text(render_json(report))
    written = [csv_path, json_path]
    pdir = out / "plotdata"
    pdir.mkdir(exist_ok=True)
    for result in report.results:
        path = pdir / f"{result.name}.dat"
        lines = ["# trial ratio lhs rhs"]
        for row in result.rows:
            lines.append(
                f"{row.trial} {_fmt(row.ratio)} {_fmt(row.lhs)} {_fmt(row.rhs)}"
            )
        path.write_text("\n".join(lines) + "\n")
        written.append(path)
    return written
