import json
import subprocess
import sys

import numpy as np
import pytest

from wavetile.bench import (
    ExperimentConfig,
    REGISTRY,
    generate_trial,
    parse_config,
    render_csv,
    render_json,
    rng_for,
    run_campaign,
)
from wavetile.bench.report import emit_report
from wavetile.errors import InfeasibleMeasureError
from wavetile.grid import SampleGrid

GRID = SampleGrid(256, 1.0)


class TestGenerators:
    def test_determinism(self):
        a = generate_trial("band_limited", 5, {"grid": GRID, "band": 20})
        b = generate_trial("band_limited", 5, {"grid": GRID, "band": 20})
        assert np.array_equal(a.samples, b.samples)

    def test_different_seeds_differ(self):
        a = generate_trial("step", 5, {"grid": GRID, "depth": 3})
        b = generate_trial("step", 6, {"grid": GRID, "depth": 3})
        assert not np.array_equal(a.samples, b.samples)

    def test_band_mass_outside_requested_band(self):
        f = generate_trial("band_limited", 7, {"grid": GRID, "band": 10})
        spec = np.abs(np.fft.fft(f.samples))
        m = GRID.frequencies()
        assert spec[np.abs(m) > 10].max() <= 1e-12 * spec.max()

    def test_exact_measure(self):
        s = generate_trial("dyadic_union", 8, {"grid": GRID, "measure": 0.25})
        assert s.measure == pytest.approx(0.25, abs=1e-15)
        assert int(s.mask.sum()) == 256 // 4

    def test_infeasible_measure(self):
        with pytest.raises(InfeasibleMeasureError):
            generate_trial("dyadic_union", 9, {"grid": GRID, "measure": 0.1234567})

    def test_philox_stream_reproducible(self):
        assert rng_for(3, 1).integers(0, 1 << 30) == rng_for(3, 1).integers(0, 1 << 30)


class TestConfig:
    def test_parse_round_trip(self):
        text = """
        # smoke configuration
        seed = 11
        grid_size = 256
        trials = 2
        targets = telescope-1d, alpha-coefficients
        cap.alpha-coefficients = 5.0
        out = /tmp/wavetile-test
        """
        cfg = parse_config(text)
        assert cfg.seed == 11 and cfg.grid_size == 256
        assert cfg.targets == ("telescope-1d", "alpha-coefficients")
        assert cfg.caps == {"alpha-coefficients": 5.0}

    def test_unknown_key(self):
        with pytest.raises(ValueError):
            parse_config("bogus = 3")

    def test_unknown_target(self):
        with pytest.raises(ValueError):
            ExperimentConfig(targets=("nope",))

    @pytest.mark.parametrize("text, reason", [
        ("seed = -3", "seed must be non-negative"),
        ("cap.vv-paraprodcut = 0.5", "caps for unknown targets"),
        ("targets = ,", "'targets': empty item"),
        ("trials = 0", "trials must be at least 1"),
        ("seed = 7\nseed = 8", "'seed' given twice"),
        ("eps_values = 0.01,, 0.1", "'eps_values': empty item"),
        ("eps_values = 0.01, x", "cannot read 'x' as float"),
        ("seed = 1125899906842624", "seed must be at most 2\\*\\*46 - 1"),
        ("cap.stopping-invariants = 0", "cap.stopping-invariants must be finite and > 0, got 0.0"),
        ("cap.alpha-coefficients = 0", "cap.alpha-coefficients must be finite and > 0, got 0.0"),
        ("cap.size-energy = -1", "cap.size-energy must be finite and > 0, got -1.0"),
        ("cap.size-energy = nan", "cap.size-energy must be finite and > 0, got nan"),
        ("cap.depth2-vv = inf", "cap.depth2-vv must be finite and > 0, got inf"),
        ("cap.telescope-1d = 1", "cap.telescope-1d: target 'telescope-1d' reads no cap"),
        ("cap.telescope-2d = 1", "cap.telescope-2d: target 'telescope-2d' reads no cap"),
        ("cap.weak-dualization = 4", "target 'weak-dualization' reads no cap, got 4.0"),
        ("cap.bht-multiplier = 0", "target 'bht-multiplier' reads no cap, got 0.0"),
        ("cap.range-consistency = 1", "target 'range-consistency' reads no cap"),
    ])
    def test_bad_config_rejected_at_parse_time(self, text, reason):
        with pytest.raises(ValueError, match=reason):
            parse_config(text)


SMOKE_TARGETS = ("telescope-1d", "alpha-coefficients", "weak-dualization")


def smoke_config(**kw):
    return ExperimentConfig(seed=5, trials=2, targets=SMOKE_TARGETS, **kw)


class TestCampaign:
    def test_unspecified_targets_default_to_registry(self):
        cfg = ExperimentConfig()
        assert set(cfg.targets) == set(REGISTRY)

    def test_reports_are_byte_identical(self, tmp_path):
        r1 = run_campaign(smoke_config())
        r2 = run_campaign(smoke_config())
        assert render_csv(r1) == render_csv(r2)
        assert render_json(r1) == render_json(r2)

    def test_csv_json_round_trip(self, tmp_path):
        report = run_campaign(smoke_config())
        paths = emit_report(report, tmp_path)
        csv_path = tmp_path / "campaign.csv"
        json_path = tmp_path / "campaign.json"
        assert csv_path in paths and json_path in paths
        import csv as csvmod

        with open(csv_path) as fh:
            rows = list(csvmod.DictReader(fh))
        doc = json.loads(json_path.read_text())
        # aggregates recomputable from the rows
        for name in SMOKE_TARGETS:
            got = [r for r in rows if r["target"] == name]
            assert len(got) == len(doc["targets"][name]["rows"])
            ratios = [float(r["ratio"]) for r in got]
            json_ratios = [r["ratio"] for r in doc["targets"][name]["rows"]]
            assert ratios == pytest.approx(json_ratios)

    def test_plotdata_lengths(self, tmp_path):
        report = run_campaign(smoke_config())
        emit_report(report, tmp_path)
        for result in report.results:
            lines = (tmp_path / "plotdata" / f"{result.name}.dat").read_text().splitlines()
            assert len(lines) == len(result.rows) + 1  # header comment

    def test_target_error_isolated(self, monkeypatch):
        from wavetile.bench import targets as targets_mod

        bad = targets_mod.InequalityTarget(
            "telescope-1d", "boom", lambda ctx: 1 / 0, 1.0
        )
        monkeypatch.setitem(targets_mod.REGISTRY, "telescope-1d", bad)
        report = run_campaign(smoke_config())
        by_name = {r.name: r for r in report.results}
        assert by_name["telescope-1d"].error is not None
        assert by_name["weak-dualization"].error is None
        assert not report.passed

    @pytest.mark.parametrize("raw", ["abc", "0", "-2"])
    def test_bad_thread_count_rejected_before_any_target(self, raw, monkeypatch):
        from wavetile.bench import targets as targets_mod

        ran = []
        spy = targets_mod.InequalityTarget(
            "telescope-1d", "spy", lambda ctx: ran.append(ctx), 1.0
        )
        monkeypatch.setitem(targets_mod.REGISTRY, "telescope-1d", spy)
        monkeypatch.setenv("WAVETILE_THREADS", raw)
        with pytest.raises(ValueError, match=f"WAVETILE_THREADS .* got '{raw}'"):
            run_campaign(ExperimentConfig(targets=("telescope-1d",)))
        assert ran == []


class TestCli:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "wavetile.bench.cli", *args],
            capture_output=True, text=True, timeout=300,
        )

    def test_list_targets(self):
        out = self.run_cli("list-targets")
        assert out.returncode == 0
        for name in REGISTRY:
            assert name in out.stdout

    def test_range_query(self):
        out = self.run_cli("range", "p=4 q=2 s=4/3 r1=4/3 r2=4 r=1")
        assert out.returncode == 0
        assert "member: True" in out.stdout and "ii" in out.stdout

    def test_decompose_demo(self):
        out = self.run_cli("decompose-demo", "--size", "256")
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert "cells" in doc and doc["cells"]

    @pytest.mark.parametrize("seed", ["-1", "70368744177664", "seven"])
    def test_bad_seed_rejected_by_argparse(self, seed, capsys):
        from wavetile.bench.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["decompose-demo", "--size", "64", "--seed", seed])
        assert exit_info.value.code == 2
        assert "argument --seed: seed must be" in capsys.readouterr().err

    def test_run_subcommand(self, tmp_path):
        cfg = tmp_path / "smoke.cfg"
        cfg.write_text(
            "seed = 5\ntrials = 1\ntargets = telescope-1d, weak-dualization\n"
            f"out = {tmp_path / 'reports'}\n"
        )
        out = self.run_cli("run", str(cfg))
        assert out.returncode == 0
        assert (tmp_path / "reports" / "campaign.csv").exists()
        assert "campaign: PASS" in out.stdout


class TestCampaignContracts:
    def test_empty_target_list_gives_empty_report(self):
        from wavetile.bench import ExperimentConfig, run_campaign
        report = run_campaign(ExperimentConfig(targets=()))
        assert report.results == [] and report.passed

    def test_every_cap_can_fail(self):
        capped = tuple(name for name, t in REGISTRY.items() if t.default_cap is not None)
        assert len(capped) == 15
        tiny = 1e-12
        report = run_campaign(ExperimentConfig(
            seed=7, trials=1, targets=capped, caps=dict.fromkeys(capped, tiny)
        ))
        for result in report.results:
            assert result.error is None, result.error
            assert not result.passed, result.name
            cap = result.aggregates.get("cap", result.aggregates.get("kappa_cap"))
            assert cap == tiny, result.name

    def test_registry_smoke_one_trial_under_budget(self):
        import time
        from wavetile.bench import ExperimentConfig, run_campaign

        t0 = time.time()
        report = run_campaign(ExperimentConfig(seed=7, trials=1, grid_size=1024))
        elapsed = time.time() - t0
        print(f"registry smoke: {elapsed:.1f}s")
        assert elapsed <= 60.0
        assert report.passed
        for result in report.results:
            assert result.error is None, result.error


class TestDeterminismContracts:
    def test_parallel_execution_reproduces_serial_reports(self, monkeypatch):
        from wavetile.bench import run_campaign
        from wavetile.bench.report import render_csv, render_json

        serial = run_campaign(smoke_config())
        monkeypatch.setenv("WAVETILE_THREADS", "4")
        parallel = run_campaign(smoke_config())
        assert render_csv(serial) == render_csv(parallel)
        assert render_json(serial) == render_json(parallel)

    def test_aggregates_recomputable_from_rows(self):
        from wavetile.bench import run_campaign

        report = run_campaign(smoke_config())
        for result in report.results:
            if "max_ratio" in result.aggregates and result.rows:
                assert result.aggregates["max_ratio"] == pytest.approx(
                    max(r.ratio for r in result.rows)
                )

    def test_cli_failure_exit_code(self, tmp_path):
        import subprocess
        import sys

        cfg = tmp_path / "fail.cfg"
        cfg.write_text(
            "seed = 5\ntrials = 1\ntargets = size-energy\n"
            "cap.size-energy = 0.000001\n"
            f"out = {tmp_path / 'reports'}\n"
        )
        out = subprocess.run(
            [sys.executable, "-m", "wavetile.bench.cli", "run", str(cfg)],
            capture_output=True, text=True, timeout=300,
        )
        assert out.returncode == 1
        assert "campaign: FAIL" in out.stdout


class TestRowReexecution:
    def test_vv_row_recomputable_in_isolation(self):
        from fractions import Fraction

        from wavetile.bench.targets import REGISTRY, RunContext, _vv_ratio
        from wavetile.grid import SampleGrid

        ctx = RunContext(seed=7, trials=3, grid_size=512)
        result = REGISTRY["vv-paraproduct"].runner(ctx)
        row = result.rows[4]
        again = _vv_ratio(
            SampleGrid(512, 1.0), row.seed, row.params["K"],
            Fraction(3, 2), Fraction(3, 2), Fraction(3, 4), 4, 4, 2, band=512 // 8,
        )
        assert again == pytest.approx(row.ratio, rel=1e-12)
