"""Acceptance suite: one check per criterion, at its stated tolerance.

Each test drives the corresponding registry target at its default settings
(fixed seed, documented caps), enforces the runtime budget, and prints one
PASS/FAIL line.  Criteria 3 and 11 carry extra checks that live outside the
campaign targets: an exhaustive verification at shallow depth and a
negative exponent-constraint test.
"""

import time

import numpy as np
import pytest

from wavetile.bench import ExperimentConfig, run_campaign

from test_stopping import random_config, verify_forest


def run_target(name: str, budget: float, trials: int | None = None):
    cfg = ExperimentConfig(seed=7, trials=trials, targets=(name,))
    t0 = time.time()
    result = run_campaign(cfg).results[0]
    elapsed = time.time() - t0
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] {name}: {elapsed:.1f}s (budget {budget:.0f}s)")
    assert elapsed <= budget, f"{name} exceeded its runtime budget"
    assert result.passed, f"{name} failed: {result.error or result.aggregates}"
    return result


class TestAcceptance:
    def test_criterion_01_telescoping_identity(self):
        r1 = run_target("telescope-1d", 10.0)
        r2 = run_target("telescope-2d", 10.0)
        assert r1.aggregates["max_residual"] <= 1e-10
        assert r2.aggregates["max_residual"] <= 1e-9

    def test_criterion_02_dualization_sandwich(self):
        r = run_target("weak-dualization", 30.0)
        assert r.aggregates["majorness_failures"] == 0
        assert 0.25 <= r.aggregates["min_ratio"]
        assert r.aggregates["max_ratio"] <= 4.0

    def test_criterion_03_stopping_invariants(self):
        r = run_target("stopping-invariants", 60.0)
        assert r.aggregates["max_measure_constant"] <= 8.0
        # exhaustive verification at depth <= 3
        from wavetile.analysis import stopping_decompose
        from wavetile.grid import SampleGrid

        g = SampleGrid(512, 4.0)
        for seed in range(10):
            family, E1, E2, E3, root = random_config(7000 + seed, g, 3)
            forest = stopping_decompose(family, E1, E2, E3, root)
            verify_forest(forest, family, E1, E2)
        print("[PASS] stopping exhaustive depth-3 verification")

    def test_criterion_04_size_energy_bounds(self):
        r = run_target("size-energy", 30.0)
        assert r.aggregates["max_ratio"] <= 4.0
        assert r.aggregates["monotone_decay"]

    def test_criterion_05_vector_valued_paraproduct(self):
        r = run_target("vv-paraproduct", 180.0)
        assert abs(r.aggregates["log_slope"]) <= 0.1
        assert r.aggregates["max_ratio"] <= r.aggregates["cap"]

    def test_criterion_06_alpha_coefficient_decay(self):
        r = run_target("alpha-coefficients", 10.0)
        for bound in r.aggregates["decay_bounds"].values():
            assert np.isfinite(bound)

    def test_criterion_07_shifted_operator_growth(self):
        r = run_target("shifted-growth", 120.0)
        for kappa in r.aggregates["kappa_fits"].values():
            assert kappa <= 2.5

    def test_criterion_08_bht_multiplier(self):
        r = run_target("bht-multiplier", 10.0)
        by_check = {row.params["check"]: row for row in r.rows}
        assert by_check["modulus-pi"].lhs <= 0.03

    def test_criterion_09_bht_local_l2(self):
        r = run_target("bht-local-l2", 120.0)
        assert r.aggregates["no_growth"]

    def test_criterion_10_range_calculator(self):
        r = run_target("range-consistency", 10.0)
        assert r.aggregates["mismatches"] == 0

    def test_criterion_11_leibniz_rule(self):
        run_target("leibniz-mixed", 180.0)
        # negative test: rejected target exponents name the violated bound
        from fractions import Fraction

        from wavetile.errors import ExponentConstraintError
        from wavetile.grid import GridFunction, SampleGrid
        from wavetile.operators import LeibnizExponents, leibniz_sides

        g2 = SampleGrid(128, 1.0, dimension=2)
        f = GridFunction(g2, np.ones((128, 128), dtype=complex))
        exps = LeibnizExponents.symmetric(2, Fraction(2, 3))
        with pytest.raises(ExponentConstraintError) as err:
            leibniz_sides(1.0, 0.25, exps, f, f)
        assert "s2" in err.value.constraint
        print("[PASS] leibniz negative exponent test")
