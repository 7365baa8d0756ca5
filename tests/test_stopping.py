"""Triple stopping time: invariants, exhaustive verification, golden file."""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from wavetile.analysis import average_single, size_tilde, stopping_decompose
from wavetile.bench.generate import generate_trial
from wavetile.bench.targets import _stopping_checks
from wavetile.dyadic import DyadicInterval
from wavetile.errors import ScaleBudgetError
from wavetile.grid import GridFunction, SampleGrid
from wavetile.norms import MeasurableSet, lp_norm
from wavetile.dyadic import torus_bump_samples

from oracles import disjoint
from test_grid import from_callable

GOLDEN = Path(__file__).parent / "data" / "stopping_golden.json"


def subtree(root, depth, rng=None, keep=1.0):
    out = [root]
    level = [root]
    for _ in range(depth):
        level = [c for iv in level for c in iv.children()]
        if rng is None:
            out.extend(level)
        else:
            out.extend(iv for iv in level if rng.random() < keep)
    return out


def random_config(seed, grid, depth):
    rng = np.random.default_rng(seed)
    root = DyadicInterval(0, 0)
    family = subtree(root, depth, rng, keep=0.75)
    cells_per_unit = grid.sample_count // int(grid.period_length)

    def rand_set(salt):
        count = int(rng.integers(cells_per_unit // 8, cells_per_unit // 2))
        return generate_trial(
            "dyadic_union", seed + salt,
            {"grid": grid, "measure": count * grid.spacing, "within": root},
        )

    return family, rand_set(1), rand_set(2), rand_set(3), root


def verify_forest(forest, family, E1, E2, M=10):
    # partition: multiset equality
    assert sorted(forest.all_members()) == sorted(family)
    # per-level disjointness
    by_level = {}
    for sel in forest.selections:
        by_level.setdefault((sel.d, sel.axis, sel.level), []).append(sel.interval)
    for ivs in by_level.values():
        for i in range(len(ivs)):
            for j in range(i + 1, len(ivs)):
                assert disjoint(ivs[i], ivs[j])
    # level bracket and per-axis size bound; the third axis runs at 2M
    indicators = {
        1: (E1.indicator, M),
        2: (E2.indicator, M),
        3: (forest.exceptional.protected.indicator, 2 * M),
    }
    tail_cap = (1.0 + 2.0 / (M - 1)) * 1.05
    for sel in forest.selections:
        if sel.level > 80:
            continue
        ind, expo = indicators[sel.axis]
        avg = average_single(ind, sel.interval, expo)
        assert avg >= 2.0 ** (-sel.level - 1) * (1 - 1e-9)
        if sel.level >= 1:
            assert avg <= 2.0 ** (-sel.level) * (1 + 1e-9)
        else:
            assert avg <= tail_cap
        if sel.axis == 1 and sel.members:
            # property: modified size of any subfamily of the selection is
            # controlled; by monotonicity the full member set is the worst
            st = size_tilde(E1.indicator, list(sel.members), I0=sel.interval, M=M)
            assert st.value <= 2.0 ** (-sel.level + 1) * (1 + 1e-9)
        if sel.axis == 3 and sel.d >= 1:
            assert 2.0 ** (-sel.level) <= 4.0 * 2.0 ** (-M * sel.d)
    # measure bound constants
    for c in forest.measure_constants.values():
        assert c <= 8.0


class TestTrivialConfiguration:
    def test_full_sets_give_single_cell_at_level_zero(self):
        g = SampleGrid(512, 4.0)
        root = DyadicInterval(0, 0)
        family = subtree(root, 3)
        E = MeasurableSet(from_callable(g, lambda x: (x < 1).astype(float)))
        forest = stopping_decompose(family, E, E, E, root)
        assert len(forest.cells) == 1
        cell = forest.cells[0]
        assert (cell.d, cell.n1, cell.n2) == (0, 0, 0)
        assert cell.cell == root
        assert sorted(cell.members) == sorted(family)

    def test_empty_family(self):
        g = SampleGrid(512, 4.0)
        root = DyadicInterval(0, 0)
        E = MeasurableSet(from_callable(g, lambda x: (x < 1).astype(float)))
        forest = stopping_decompose([], E, E, E, root)
        assert forest.cells == [] and forest.all_members() == []

    def test_family_outside_root_rejected(self):
        g = SampleGrid(512, 4.0)
        E = MeasurableSet(from_callable(g, lambda x: (x < 1).astype(float)))
        with pytest.raises(ValueError):
            stopping_decompose(
                [DyadicInterval(0, 2)], E, E, E, DyadicInterval(0, 0)
            )

    def test_interval_shorter_than_a_sample_rejected(self):
        g = SampleGrid(512, 4.0)
        E = MeasurableSet(from_callable(g, lambda x: (x < 1).astype(float)))
        with pytest.raises(ScaleBudgetError):
            stopping_decompose([DyadicInterval(8, 0)], E, E, E, DyadicInterval(0, 0))


class TestRandomizedInvariants:
    def test_exhaustive_depth3(self):
        g = SampleGrid(512, 4.0)
        for seed in range(25):
            family, E1, E2, E3, root = random_config(seed, g, 3)
            forest = stopping_decompose(family, E1, E2, E3, root)
            verify_forest(forest, family, E1, E2)

    def test_depth5_sample(self):
        g = SampleGrid(512, 4.0)
        for seed in range(8):
            family, E1, E2, E3, root = random_config(1000 + seed, g, 5)
            forest = stopping_decompose(family, E1, E2, E3, root)
            verify_forest(forest, family, E1, E2)

    def test_small_first_set_measure_bound(self):
        # |E1| = 1/8 inside the unit root: sum over each level collection
        # stays below 8 * 2^n * ||1_E1 chi_I0||_1
        g = SampleGrid(512, 4.0)
        root = DyadicInterval(0, 0)
        family = subtree(root, 4)
        E1 = generate_trial(
            "dyadic_union", 5, {"grid": g, "measure": 0.125, "within": root}
        )
        E2 = generate_trial(
            "dyadic_union", 6, {"grid": g, "measure": 0.5, "within": root}
        )
        E3 = generate_trial(
            "dyadic_union", 7, {"grid": g, "measure": 0.5, "within": root}
        )
        forest = stopping_decompose(family, E1, E2, E3, root)
        bump = GridFunction(g, torus_bump_samples(g, root, 10).astype(complex))
        weight = lp_norm(E1.indicator, 1, weight=bump)
        totals = {}
        for sel in forest.selections:
            if sel.axis != 1 or sel.level > 80:
                continue
            key = (sel.d, sel.level)
            totals[key] = totals.get(key, 0.0) + sel.interval.length
        assert totals
        for (_d, n), tot in totals.items():
            assert tot <= 8.0 * 2.0 ** n * weight


def one_cell_config(k, depth):
    """E1 the one sample cell [k/128, (k+1)/128) and E2 = E3 = [0, 1): the
    maximal function of 1_E1 chi_I0 clears its threshold on a nonempty Omega,
    so the family spreads over several distance buckets."""
    g = SampleGrid(512, 4.0)
    cell = np.zeros(g.sample_count, dtype=bool)
    cell[k] = True
    unit = np.zeros(g.sample_count, dtype=bool)
    unit[:128] = True
    E2 = MeasurableSet.from_mask(g, unit)
    root = DyadicInterval(0, 0)
    return subtree(root, depth), MeasurableSet.from_mask(g, cell), E2, E2, root


class TestNonemptyExceptionalSet:
    def test_far_buckets_pass_the_invariants(self):
        # at k = 76 Omega is the quarter [1/2, 3/4), and the intervals
        # inside it land in bucket d = 1
        family, E1, E2, E3, root = one_cell_config(76, 4)
        forest = stopping_decompose(family, E1, E2, E3, root)
        assert forest.exceptional.omega.measure == 0.25
        assert forest.exceptional.ratio == 0.75
        assert {sel.d for sel in forest.selections} == {0, 1}
        assert any(sel.axis == 3 and sel.d >= 1 for sel in forest.selections)
        verify_forest(forest, family, E1, E2)


def changed_selection(forest, pick, change):
    """The forest with its first selection that satisfies ``pick`` replaced
    by ``change(selection)``."""
    sels = list(forest.selections)
    k = next(i for i, sel in enumerate(sels) if pick(sel))
    sels[k] = change(sels[k])
    return replace(forest, selections=sels)


def raise_level(sel):
    return replace(sel, level=sel.level + 3)


# one broken forest per check of the stopping-invariants target
BREAKS = {
    "partition": lambda f: replace(
        f, cells=[replace(f.cells[0], members=f.cells[0].members[1:])] + f.cells[1:]),
    "disjoint": lambda f: replace(f, selections=f.selections + f.selections[:1]),
    "bracket": lambda f: changed_selection(f, lambda s: s.level <= 77, raise_level),
    "size_bound": lambda f: changed_selection(
        f, lambda s: s.axis == 1 and s.level <= 77, raise_level),
    "d_decay": lambda f: changed_selection(
        f, lambda s: s.axis == 3 and s.level == 0, lambda s: replace(s, d=1)),
}


class TestStoppingChecksCanFail:
    @pytest.fixture(scope="class")
    def case(self):
        family, E1, E2, E3, root = one_cell_config(76, 4)
        forest = stopping_decompose(family, E1, E2, E3, root)
        assert all(_stopping_checks(forest, family, E1, E2).values())
        return forest, family, E1, E2

    @pytest.mark.parametrize("check", sorted(BREAKS))
    def test_check_fails_on_a_broken_forest(self, case, check):
        forest, family, E1, E2 = case
        assert not _stopping_checks(BREAKS[check](forest), family, E1, E2)[check]


def translated(iv, shift):
    """``iv`` moved by ``shift`` length units, a multiple of its length."""
    return DyadicInterval(iv.scale, iv.position + round(shift / iv.length))


class TestTranslationByPeriods:
    """Moving the root and the family by whole periods, with the sets
    unchanged, moves the forest along: every distance bucket and level reads
    the torus, so the intervals' positions count only modulo the period."""

    def moved_back(self, family, E1, E2, E3, root):
        # one period, or the root's length when it is longer
        shift = max(E1.grid.period_length, root.length)
        forest = stopping_decompose([translated(iv, shift) for iv in family], E1, E2, E3,
                                    translated(root, shift))
        back = lambda iv: translated(iv, -shift)  # noqa: E731
        cells = [replace(c, cell=back(c.cell), members=tuple(map(back, c.members)))
                 for c in forest.cells]
        return cells, forest.measure_constants

    def test_one_cell_configs(self):
        buckets = set()
        for k in range(0, 128, 4):
            config = one_cell_config(k, 5)
            want = stopping_decompose(*config)
            buckets |= {cell.d for cell in want.cells}
            assert self.moved_back(*config) == (want.cells, want.measure_constants)
        assert buckets == {0, 1, 2, 3}

    def test_root_longer_than_the_torus(self):
        # the root [0, 8) covers the period-4 torus twice
        _, E1, E2, E3, _ = one_cell_config(76, 0)
        root = DyadicInterval(-3, 0)
        config = (subtree(root, 5), E1, E2, E3, root)
        want = stopping_decompose(*config)
        assert self.moved_back(*config) == (want.cells, want.measure_constants)


def forests_sha256(configs):
    digest = hashlib.sha256()
    for family, E1, E2, E3, root in configs:
        forest = stopping_decompose(family, E1, E2, E3, root)
        digest.update(json.dumps(forest.to_json_dict(), sort_keys=True).encode())
    return digest.hexdigest()


class TestPinnedForests:
    """Every forest of these configs, byte for byte.  No random config leaves
    bucket d = 0 (Omega is empty in each), so the one-cell configs pin the
    buckets' shared structure: up to four buckets each at depth 5."""

    RANDOM_SHA256 = "11b11b75ec37af22b82c9caf1c5f3a5767c474ef6b5e1002ed2b2afad764ef7a"
    ONE_CELL_SHA256 = "b9c091a76e17b42fe35b6f66e87a2640a593771c194b03ee4948f86d25eaecbb"

    def test_random_configs(self):
        g = SampleGrid(512, 4.0)
        configs = [random_config(seed, g, 3 + seed % 3) for seed in range(60)]
        configs.append(one_cell_config(76, 4))
        assert forests_sha256(configs) == self.RANDOM_SHA256

    def test_one_cell_configs(self):
        configs = [one_cell_config(k, 5) for k in range(0, 128, 4)]
        assert forests_sha256(configs) == self.ONE_CELL_SHA256


class TestSerialization:
    def make_forest(self):
        g = SampleGrid(512, 4.0)
        family, E1, E2, E3, root = random_config(42, g, 3)
        return stopping_decompose(family, E1, E2, E3, root)

    def test_deterministic_json(self):
        a = json.dumps(self.make_forest().to_json_dict(), sort_keys=True)
        b = json.dumps(self.make_forest().to_json_dict(), sort_keys=True)
        assert a == b

    def test_golden_file(self):
        got = self.make_forest().to_json_dict()
        want = json.loads(GOLDEN.read_text())  # a missing file fails
        assert got == want

    def test_schema_fields(self):
        doc = self.make_forest().to_json_dict()
        assert set(doc) == {"params", "exceptional", "measure_constants",
                            "cells", "selections"}
        for cell in doc["cells"]:
            assert set(cell) == {"d", "levels", "cell", "members"}
            assert len(cell["levels"]) == 3
