import ast
import dataclasses
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
from wavetile.bench.targets import InequalityTarget
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

    def test_role_names_its_own_stream(self):
        import zlib

        from wavetile.bench.generate import _stream_of

        # no role keeps the kind-and-params word, so role-less draws do not move
        assert _stream_of("step", {"depth": 3}) == zlib.crc32(b"step|depth=3")
        assert _stream_of("step", {"depth": 3}, "g") == zlib.crc32(b"g|step|depth=3")
        params = {"grid": GRID, "depth": 3}
        f = generate_trial("step", 5, params)
        assert np.array_equal(generate_trial("step", 5, params, role=None).samples, f.samples)
        g = generate_trial("step", 5, params, role="g")
        h = generate_trial("step", 5, params, role="h")
        assert not np.array_equal(f.samples, g.samples)
        assert not np.array_equal(g.samples, h.samples)

    def test_union_within_a_long_interval_has_the_asked_measure(self):
        from wavetile.dyadic import DyadicInterval

        grid = SampleGrid(64, 1.0)
        within = DyadicInterval(-1, 0)  # twice the torus
        s = generate_trial("dyadic_union", 0,
                           {"grid": grid, "measure": 0.75, "within": within})
        assert s.measure == 0.75
        with pytest.raises(InfeasibleMeasureError):
            generate_trial("dyadic_union", 0, {"grid": grid, "measure": 1.5, "within": within})


class TestConfig:
    def test_parse_round_trip(self):
        text = """
        # smoke configuration
        seed = 11
        grid_size = 256
        trials = 2
        targets = telescope-1d, alpha-coefficients
        out = /tmp/wavetile-test
        """
        cfg = parse_config(text)
        assert cfg.seed == 11 and cfg.grid_size == 256 and cfg.trials == 2
        assert cfg.targets == ("telescope-1d", "alpha-coefficients")
        assert cfg.out == "/tmp/wavetile-test"

    def test_unknown_key(self):
        with pytest.raises(ValueError):
            parse_config("bogus = 3")

    def test_unknown_target(self):
        with pytest.raises(ValueError):
            ExperimentConfig(targets=("nope",))

    @pytest.mark.parametrize("text, reason", [
        ("seed = -3", "seed must be non-negative"),
        ("seed = seven", "cannot read 'seven' as int"),
        ("targets = ,", "'targets': empty item"),
        ("targets = alpha-coefficients, alpha-coefficients",
         "repeated targets: \\['alpha-coefficients'\\]"),
        ("trials = 0", "trials must be at least 1"),
        ("seed = 7\nseed = 8", "'seed' given twice"),
        # caps and eps values are the registry's constants, not settings
        ("cap.size-energy = 4", "unknown config key 'cap.size-energy'"),
        ("eps_values = 0.05", "unknown config key 'eps_values'"),
        ("grid_size = 8", "grid_size must be a power of two >= 32, got 8"),
        ("grid_size = 16", "grid_size must be a power of two >= 32, got 16"),
    ])
    def test_bad_config_rejected_at_parse_time(self, text, reason):
        with pytest.raises(ValueError, match=reason):
            parse_config(text)

    @pytest.mark.parametrize("seed", [1125899906842624, 2**70])
    def test_large_seed_runs(self, seed):
        # every Philox key comes from a 63-bit trial-seed hash, so no seed is too large
        cfg = parse_config(f"seed = {seed}\ntrials = 1\n"
                           "targets = range-consistency, stopping-invariants")
        assert cfg.seed == seed
        report = run_campaign(cfg)
        assert all(r.error is None for r in report.results)

    def test_every_config_field_is_set_by_a_campaign(self):
        """A field that no shipped config and no benchmark campaign sets is a
        knob that does nothing."""
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        set_by = {line.split("=", 1)[0].strip()
                  for path in (root / "configs").glob("*.cfg")
                  for line in (raw.split("#", 1)[0] for raw in path.read_text().splitlines())
                  if "=" in line}
        child = ast.parse((root / "perfbench" / "child.py").read_text())
        calls = [node for node in ast.walk(child) if isinstance(node, ast.Call)
                 and getattr(node.func, "attr", None) == "ExperimentConfig"]
        assert len(calls) == 1
        set_by |= {kw.arg for kw in calls[0].keywords}
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert sorted(fields - set_by) == []

    def test_trial_seeds_hash_seed_label_and_trial(self):
        import hashlib

        cfg = ExperimentConfig(seed=7)
        seeds = cfg.seeds("size-energy", 3)
        want = [int.from_bytes(hashlib.blake2b(f"7|size-energy|{t}".encode(),
                                               digest_size=8).digest(), "big") >> 1
                for t in range(3)]
        assert seeds == want
        assert all(0 <= s < 2**63 for s in seeds)
        assert cfg.seeds("size-energy", 2) == seeds[:2]
        assert not set(seeds) & set(cfg.seeds("local-l1", 3))
        assert not set(seeds) & set(ExperimentConfig(seed=8).seeds("size-energy", 3))

    def test_cap_is_none_where_the_verdict_reads_none(self):
        uncapped = {"telescope-1d", "telescope-2d", "weak-dualization", "bht-multiplier",
                    "range-consistency"}
        assert {name for name, target in REGISTRY.items() if target.cap is None} == uncapped


class TestBoundedVerdict:
    @pytest.mark.parametrize("ratio, gate, want", [
        (1.0, True, True),
        (1.0 + 1e-12, True, False),
        (float("nan"), True, False),
        (float("inf"), True, False),
        (0.5, False, False),
    ])
    def test_every_row_within_its_bound_and_gate(self, ratio, gate, want):
        from wavetile.bench.targets import TrialRow, _bounded

        rows = [TrialRow(0, 0, 0.25, 1.0, 0.25), TrialRow(1, 0, ratio, 1.0, ratio)]
        aggregates = {"tolerance": 1.0}
        got_rows, got_aggregates, passed = _bounded(rows, aggregates, gate)
        assert got_rows is rows and got_aggregates is aggregates
        assert passed is want

    def test_no_rows_fail_with_a_named_reason(self):
        from wavetile.bench.targets import _bounded

        with pytest.raises(ValueError, match="every trial was dropped"):
            _bounded([], {})


class TestCappedVerdict:
    @pytest.mark.parametrize("ratios", [(0.5, float("nan")), (float("nan"), 0.5)])
    def test_nan_ratio_fails_and_is_the_reported_maximum(self, ratios):
        from wavetile.bench.targets import TrialRow, _capped

        rows = [TrialRow(t, 0, x, 1.0, x) for t, x in enumerate(ratios)]
        _, aggregates, passed = _capped(rows, 1.0)
        assert passed is False
        assert np.isnan(aggregates["max_ratio"])

    def test_no_rows_fail_with_a_named_reason(self):
        from wavetile.bench.targets import _capped

        with pytest.raises(ValueError, match="every trial was dropped"):
            _capped([], 1.0)

    def test_weak_dualization_with_no_rows_names_the_reason(self, monkeypatch):
        from wavetile.bench import targets

        monkeypatch.setattr(targets, "weak_lp_norm", lambda f, p: 0.0)  # every rhs 0
        with pytest.raises(ValueError, match="every trial was dropped"):
            targets._run_weak_dualization(ExperimentConfig(seed=7), [7], None)


class TestTrialRows:
    def test_trial_with_zero_rhs_is_dropped(self):
        from wavetile.bench.targets import _trial_rows

        def trial(t, seed):
            return [(float(t + 1), 0.0 if t == 1 else 2.0, {"t": t})]

        rows = _trial_rows([11, 12, 13], trial)
        assert [(r.trial, r.seed, r.lhs, r.rhs, r.ratio, r.params) for r in rows] == [
            (0, 11, 1.0, 2.0, 0.5, {"t": 0}),
            (2, 13, 3.0, 2.0, 1.5, {"t": 2}),
        ]


class TestTrialSeeds:
    """``run_campaign`` alone turns (campaign seed, registry name, trial
    count) into trial seeds; a runner only reads the seeds it is given."""

    @pytest.mark.parametrize("trials", [None, 1, 3])
    def test_each_runner_gets_its_seeds_and_cap(self, trials, monkeypatch):
        from wavetile.bench import targets

        got = {}
        for name, entry in REGISTRY.items():
            def spy(cfg, seeds, cap, name=name):
                got[name] = (seeds, cap)
                return [], {}, True
            monkeypatch.setitem(targets.REGISTRY, name, dataclasses.replace(entry, runner=spy))
        cfg = ExperimentConfig(seed=11, trials=trials)
        assert run_campaign(cfg).passed
        assert got == {name: (cfg.seeds(name, cfg.trial_count(entry.trials)), entry.cap)
                       for name, entry in REGISTRY.items()}

    def test_runners_derive_no_seeds(self):
        from pathlib import Path

        from wavetile.bench import targets

        tree = ast.parse(Path(targets.__file__).read_text())
        calls = sorted(node.func.attr for node in ast.walk(tree)
                       if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                       and node.func.attr in ("seeds", "trial_count"))
        assert calls == []

    def test_every_target_names_its_trial_count(self):
        field = next(f for f in dataclasses.fields(InequalityTarget) if f.name == "trials")
        assert field.default is dataclasses.MISSING
        seed_free = {"alpha-coefficients", "bht-multiplier", "range-consistency"}
        assert {name for name, entry in REGISTRY.items() if entry.trials == 0} == seed_free
        assert all(entry.trials >= 1 for name, entry in REGISTRY.items()
                   if name not in seed_free)

    def test_seed_free_targets_read_no_seed(self):
        names = tuple(name for name, entry in REGISTRY.items() if entry.trials == 0)
        one, other = (run_campaign(ExperimentConfig(seed=s, targets=names)).results
                      for s in (7, 11))
        for a, b in zip(one, other):
            assert a.error is None and b.error is None, a.name
            assert a.rows == b.rows and a.aggregates == b.aggregates, a.name


SMOKE_TARGETS = ("telescope-1d", "alpha-coefficients", "weak-dualization")

# sha256 of the seed-7, one-trial, full-registry report
SMOKE_CSV_SHA256 = "c565834107964dba781abe8a72b5490a55dfd4c12ade25a871d640ceba06992a"
SMOKE_JSON_SHA256 = "4abcb641140aafc498d64e2b38f4f2ab94c6650b460780498d87d72269886c76"
# sha256 of the seed-7, two-trial, full-registry report: the aggregates over
# several rows (min/max, medians, maxima by K, fits) enter these bytes
TWO_TRIAL_CSV_SHA256 = "8365bc460d85abe4c786d82f7f4663906f38aa63f7960b8e0042554f0e174170"
TWO_TRIAL_JSON_SHA256 = "894daff0b61219520c1b4a0f58e57dbe12515a33879465014354b7f399c57ae3"


def smoke_config(**kw):
    return ExperimentConfig(seed=5, trials=2, targets=SMOKE_TARGETS, **kw)


def lru_caches() -> dict:
    """Every ``functools.lru_cache`` defined in a wavetile module, by name."""
    import importlib
    import pkgutil

    import wavetile

    caches = {}
    for info in pkgutil.walk_packages(wavetile.__path__, "wavetile."):
        for name, obj in vars(importlib.import_module(info.name)).items():
            if hasattr(obj, "cache_info") and obj.__module__ == info.name:
                caches[f"{info.name}.{name}"] = obj
    return caches


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
        assert paths == [csv_path, json_path] == sorted(tmp_path.iterdir())
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

    def test_target_error_isolated(self, monkeypatch):
        from wavetile.bench import targets as targets_mod

        bad = targets_mod.InequalityTarget(
            "telescope-1d", "boom", lambda cfg, seeds, cap: 1 / 0, None, trials=3
        )
        monkeypatch.setitem(targets_mod.REGISTRY, "telescope-1d", bad)
        report = run_campaign(smoke_config())
        by_name = {r.name: r for r in report.results}
        assert "ZeroDivisionError" in by_name["telescope-1d"].error
        assert by_name["telescope-1d"].statement == "boom"
        assert not by_name["telescope-1d"].passed
        assert by_name["weak-dualization"].error is None
        assert not report.passed


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

    @pytest.mark.parametrize("seed", ["70368744177664", str(2**70)])
    def test_decompose_demo_takes_a_large_seed(self, seed, capsys):
        from wavetile.bench.cli import main

        assert main(["decompose-demo", "--size", "64", "--seed", seed]) == 0
        assert json.loads(capsys.readouterr().out)["cells"]

    @pytest.mark.parametrize("seed", ["-1", "seven"])
    def test_bad_seed_rejected_by_argparse(self, seed, capsys):
        from wavetile.bench.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["decompose-demo", "--size", "64", "--seed", seed])
        assert exit_info.value.code == 2
        assert "argument --seed: seed must be" in capsys.readouterr().err

    @pytest.mark.parametrize("size, reason", [
        ("100", "a power of two >= 32, got 100"),
        ("16", "a power of two >= 32, got 16"),
        ("abc", "an integer, got 'abc'"),
    ])
    def test_bad_size_rejected_by_argparse(self, size, reason, capsys):
        from wavetile.bench.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["decompose-demo", "--size", size])
        assert exit_info.value.code == 2
        assert f"argument --size: size must be {reason}" in capsys.readouterr().err

    @pytest.mark.parametrize("query, named", [
        ("p=0 q=2 s=4/3 r1=4/3 r2=4 r=1", ["p", "'0'"]),
        ("p=4 q=2 s=4/3 r1=4/3 r2=4 r=1 bogus=7", ["unknown", "'bogus'", "'7'"]),
        ("p=4 p=2 q=2 s=4/3 r1=4/3 r2=4 r=1", ["repeated", "'p'", "'2'"]),
    ])
    def test_bad_range_query_exits_2(self, query, named, capsys):
        from wavetile.bench.cli import main

        assert main(["range", query]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("wavetile range: ")
        assert all(word in out.err for word in named)

    @pytest.mark.parametrize("text, named", [
        ("bogus = 1\n", ["unknown config key", "'bogus'"]),
        (None, ["No such file", "missing.cfg"]),
    ], ids=["unknown-key", "missing-file"])
    def test_unreadable_config_exits_2(self, text, named, tmp_path, capsys):
        from wavetile.bench.cli import main

        cfg = tmp_path / "missing.cfg"
        if text is not None:
            cfg = tmp_path / "bad.cfg"
            cfg.write_text(text)
        assert main(["run", str(cfg)]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("wavetile run: ")
        assert all(word in out.err for word in named)
        assert "Traceback" not in out.err

    def test_unusable_out_exits_2_before_any_target(self, tmp_path, monkeypatch, capsys):
        from wavetile.bench import targets as targets_mod
        from wavetile.bench.cli import main

        ran = []
        spy = targets_mod.InequalityTarget(
            "telescope-1d", "spy", lambda cfg, seeds, cap: ran.append(cfg), None, trials=3
        )
        monkeypatch.setitem(targets_mod.REGISTRY, "telescope-1d", spy)
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        cfg = tmp_path / "smoke.cfg"
        cfg.write_text(f"trials = 1\ntargets = telescope-1d\nout = {taken}\n")
        assert main(["run", str(cfg)]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("wavetile run: ")
        assert str(taken) in out.err and "Traceback" not in out.err
        assert ran == []

    def test_leftover_thread_variable_changes_nothing(self, tmp_path, monkeypatch, capsys):
        from wavetile.bench.cli import main

        cfg = tmp_path / "smoke.cfg"
        cfg.write_text("trials = 1\ntargets = telescope-1d\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "plain")]) == 0
        monkeypatch.setenv("WAVETILE_THREADS", "abc")
        assert main(["run", str(cfg), "--out", str(tmp_path / "leftover")]) == 0
        assert "Traceback" not in capsys.readouterr().err
        assert ((tmp_path / "leftover" / "campaign.csv").read_bytes()
                == (tmp_path / "plain" / "campaign.csv").read_bytes())

    def test_run_writes_one_timing_line_per_target_to_stderr(self, tmp_path, capsys):
        import hashlib
        import re
        from pathlib import Path

        from wavetile.bench.cli import main

        smoke = Path(__file__).resolve().parents[1] / "configs" / "smoke.cfg"
        assert main(["run", str(smoke), "--out", str(tmp_path)]) == 0
        out = capsys.readouterr()
        targets = json.loads((tmp_path / "campaign.json").read_text())["targets"]
        results = [{"name": name, **targets[name]} for name in REGISTRY]
        # stdout and the report are what they were before the timing lines
        assert out.out.splitlines() == [
            f"[PASS] {r['name']}  rows={len(r['rows'])}" for r in results
        ] + [f"wrote 2 files under {tmp_path}", "campaign: PASS"]
        csv = hashlib.sha256((tmp_path / "campaign.csv").read_bytes()).hexdigest()
        assert csv == SMOKE_CSV_SHA256
        lines = out.err.splitlines()
        assert len(lines) == len(results)
        headroom = 0
        for line, r in zip(lines, results):
            pattern = rf"{r['name']}: \d+\.\d{{3}} s  rows=(\d+)(?:  max_ratio/cap=(\S+))?"
            got = re.fullmatch(pattern, line)
            assert got, line
            assert int(got[1]) == len(r["rows"])
            agg = r["aggregates"]
            if agg.get("max_ratio") is not None and agg.get("cap") is not None:
                assert got[2] == f"{agg['max_ratio'] / agg['cap']:.3g}"
                headroom += 1
            else:
                assert got[2] is None
        assert headroom == 12

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

    def test_every_cap_can_fail(self, monkeypatch):
        capped = [name for name, t in REGISTRY.items() if t.cap is not None]
        assert len(capped) == 15
        tiny = 1e-12
        for name in capped:
            monkeypatch.setitem(REGISTRY, name, dataclasses.replace(REGISTRY[name], cap=tiny))
        report = run_campaign(ExperimentConfig(seed=7, trials=1, targets=tuple(capped)))
        for result in report.results:
            assert result.error is None and not result.passed, result.name
            aggregates = result.aggregates
            assert aggregates.get("cap", aggregates.get("kappa_cap")) == tiny, result.name

    def test_registry_smoke_one_trial_under_budget(self):
        import hashlib
        import platform
        import time
        from wavetile.bench import ExperimentConfig, run_campaign

        caches = lru_caches()
        assert sorted(caches) == [
            "wavetile.analysis._bump_spectrum", "wavetile.dyadic._base_packet",
            "wavetile.dyadic._bump_offsets", "wavetile.dyadic._sweep_plan",
            "wavetile.dyadic._tile_base_packet", "wavetile.dyadic._torus_bump_cached",
            "wavetile.grid._band", "wavetile.grid._projection_values",
        ]
        for cache in caches.values():
            cache.cache_clear()
        t0 = time.time()
        report = run_campaign(ExperimentConfig(seed=7, trials=1, grid_size=1024))
        elapsed = time.time() - t0
        print(f"registry smoke: {elapsed:.1f}s")
        assert elapsed <= 60.0
        assert report.passed
        for result in report.results:
            assert result.error is None, result.error
        # a memo that the campaign never reads twice is waste: drop it
        hits = {name: cache.cache_info().hits for name, cache in caches.items()}
        assert all(hits.values()), hits
        # Report bytes are pinned: a change that alters them on purpose
        # updates these digests and says so.
        versions = f"Python {platform.python_version()}, numpy {np.__version__}"
        for render, want in ((render_csv, SMOKE_CSV_SHA256), (render_json, SMOKE_JSON_SHA256)):
            got = hashlib.sha256(render(report).encode()).hexdigest()
            assert got == want, (
                f"{render.__name__} digest changed: {got} (pinned on Python 3.11.7, "
                f"numpy 2.4.6; this run: {versions})"
            )


    def test_registry_two_trials_pinned(self):
        import hashlib
        import platform

        report = run_campaign(ExperimentConfig(seed=7, trials=2, grid_size=1024))
        assert report.passed
        # Report bytes are pinned: a change that alters them on purpose
        # updates these digests and says so.
        versions = f"Python {platform.python_version()}, numpy {np.__version__}"
        for render, want in ((render_csv, TWO_TRIAL_CSV_SHA256),
                             (render_json, TWO_TRIAL_JSON_SHA256)):
            got = hashlib.sha256(render(report).encode()).hexdigest()
            assert got == want, (
                f"{render.__name__} digest changed: {got} (pinned on Python 3.11.7, "
                f"numpy 2.4.6; this run: {versions})"
            )

class TestDeterminismContracts:
    def test_no_philox_key_drawn_twice(self, monkeypatch):
        """Trials are independent: across the campaign, no two draws share
        a (seed, stream) key, so no input is another trial's or role's."""
        from collections import Counter

        from wavetile.bench import generate, targets

        keys = []
        wrappers = set()

        def recording(module):
            def draw(seed, stream=0):
                keys.append((seed, stream))
                wrappers.add(module)
                return rng_for(seed, stream)
            return draw

        for module in (generate, targets):
            monkeypatch.setattr(module, "rng_for", recording(module))
        report = run_campaign(ExperimentConfig(seed=7, trials=3))
        assert all(r.error is None for r in report.results)
        repeated = sorted(key for key, count in Counter(keys).items() if count > 1)
        # both wrapped names are the ones in use: each records a draw
        assert wrappers == {generate, targets}
        assert not repeated, repeated[:5]

    def test_aggregates_recomputable_from_rows(self):
        from wavetile.bench import run_campaign

        report = run_campaign(smoke_config())
        for result in report.results:
            if "max_ratio" in result.aggregates and result.rows:
                assert result.aggregates["max_ratio"] == pytest.approx(
                    max(r.ratio for r in result.rows)
                )

    def test_cli_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        from wavetile.bench.cli import main

        monkeypatch.setitem(REGISTRY, "size-energy",
                            dataclasses.replace(REGISTRY["size-energy"], cap=1e-6))
        cfg = tmp_path / "fail.cfg"
        cfg.write_text(
            "seed = 5\ntrials = 1\ntargets = size-energy\n"
            f"out = {tmp_path / 'reports'}\n"
        )
        assert main(["run", str(cfg)]) == 1
        assert "campaign: FAIL" in capsys.readouterr().out


class TestRowReexecution:
    def test_vv_row_recomputable_in_isolation(self):
        from wavetile.bench.targets import _vv_sides
        from wavetile.dyadic import grid_dyadic_family
        from wavetile.grid import SampleGrid

        cfg = ExperimentConfig(seed=7, trials=3, grid_size=512, targets=("vv-paraproduct",))
        result = run_campaign(cfg).results[0]
        trial = [row for row in result.rows if row.trial == 1]
        grid = SampleGrid(512, 1.0)
        again = _vv_sides(grid, grid_dyadic_family(grid, range(1, 8)), trial[0].seed)
        assert [row.params["K"] for row in trial] == [1, 2, 4, 8, 16]
        assert again == [(row.lhs, row.rhs, row.params) for row in trial]


class TestSweptValues:
    @pytest.mark.parametrize("name, key, values", [
        ("vv-paraproduct", ("K",), [(1,), (2,), (4,), (8,), (16,)]),
        ("bht-local-l2", ("tiles",), [(28,), (112,), (448,)]),
        ("shifted-growth", ("op", "n"),
         [(op, n) for n in (1, 2, 4, 8, 16, 32, 64)
          for op in ("maximal", "square", "paraproduct")]),
        ("localized-operator", ("eps",), [(0.01,), (0.05,), (0.1,)]),
    ])
    def test_one_draw_gives_a_row_per_swept_value(self, name, key, values):
        """A trial draws its inputs once, under the target's own label, and
        evaluates every swept value on them."""
        cfg = ExperimentConfig(seed=7, trials=2, targets=(name,))
        result = run_campaign(cfg).results[0]
        assert result.error is None, result.error
        seeds = cfg.seeds(name, 2)
        for t in range(2):
            rows = [row for row in result.rows if row.trial == t]
            assert {row.seed for row in rows} == {seeds[t]}
            assert [tuple(row.params[k] for k in key) for row in rows] == values

    def test_empty_swept_group_names_the_reason(self, monkeypatch):
        from wavetile.bench import targets

        def component_0_zeroed(*args, **kwargs):
            f = generate_trial(*args, **kwargs)
            f.samples[:, 0] = 0.0
            return f

        # every K = 1 row has rhs 0 and is dropped; the larger K keep theirs
        monkeypatch.setattr(targets, "generate_trial", component_0_zeroed)
        with pytest.raises(ValueError, match="every trial was dropped"):
            targets._run_vv_paraproduct(ExperimentConfig(seed=7, grid_size=256), [7, 8], 1.0)
