"""Exponent-range calculator: worked examples, dual routes, text syntax."""

from fractions import Fraction

import numpy as np
import pytest

from wavetile.norms import INF
from wavetile.operators import (
    RangeQuery,
    bht_range_membership,
    format_range_query,
    parse_range_query,
    range_grid_mismatches,
    scalar_range_member,
)
from wavetile.operators.ranges import (
    _case_member,
    _case_member_grid,
    _grid_chunks,
    _theta_feasible,
    _theta_feasible_grid,
)

from oracles import printed_case_member_grid


class TestWorkedExamples:
    def test_local_l2_point(self):
        res = bht_range_membership(parse_range_query("p=2 q=2 s=1 r1=2 r2=2 r=1"))
        assert res.member and res.case_labels == ["i"]
        th = res.theta[0]
        assert sum(th) == 1 and all(0 <= t < 1 for t in th)

    def test_case_ii_member(self):
        res = bht_range_membership(parse_range_query("p=4 q=2 s=4/3 r1=4/3 r2=4 r=1"))
        assert res.member and res.case_labels == ["ii"]

    def test_case_ii_threshold_violation(self):
        # 1/q = 4/5 >= 3/2 - 1/r1 = 3/4; p = 10 completes the Hoelder triple
        res = bht_range_membership(parse_range_query("p=10 q=5/4 s=10/9 r1=4/3 r2=4 r=1"))
        assert not res.member and res.case_labels == ["ii"]

    def test_invalid_scaling_rejected(self):
        with pytest.raises(ValueError):
            parse_range_query("p=8 q=5/4 s=10/9 r1=4/3 r2=4 r=1")

    @pytest.mark.parametrize("outer, inner", [
        ({"p": 0, "q": 2, "s": 2}, {"r1": 2, "r2": 2, "r": 1}),
        ({"p": 2, "q": 2, "s": 1}, {"r1": 2, "r2": -2, "r": INF}),
    ])
    def test_non_positive_exponent_rejected(self, outer, inner):
        with pytest.raises(ValueError, match="must be positive"):
            RangeQuery(**inner, **outer)


class TestDualRouteAgreement:
    def test_agreement_on_coarse_grid(self):
        step = 8
        fr = [Fraction(i, step) for i in range(step)]
        for a in range(step):
            for b in range(step):
                rr = fr[a] + fr[b]
                if not 0 < rr < Fraction(3, 2):
                    continue
                rho = (fr[a], fr[b], 1 - rr)
                for c in range(step):
                    for d in range(step):
                        if c + d == 0:
                            continue
                        outer = (fr[c], fr[d], 1 - fr[c] - fr[d])
                        # scalar_range_member raises on any mismatch
                        scalar_range_member(rho, outer)

    def test_theta_witness_satisfies_strict_inequalities(self):
        rho = (Fraction(3, 4), Fraction(1, 4), Fraction(0))
        outer = (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))
        ok, _, theta = scalar_range_member(rho, outer)
        assert ok
        for bound, o, t in zip(rho, outer, theta):
            assert max(bound, o) < (1 + t) / 2

    def test_literal_table_disagrees_where_repair_applies(self):
        # case (ii) with a large dual outer exponent: the printed inequalities
        # accept, the simplex system does not
        rho = (Fraction(9, 10), Fraction(1, 20), 1 - Fraction(19, 20))
        outer = (Fraction(1, 10), Fraction(1, 5), Fraction(7, 10))
        feasible, _ = _theta_feasible(rho, outer)
        repaired, label = _case_member(rho, outer)
        rho_num, outer_num = (np.array([int(x * 20) for x in t]) for t in (rho, outer))
        literal = printed_case_member_grid(rho_num, outer_num, 20)
        assert label == "ii" and not feasible and literal and not repaired


def fraction_grid(step):
    """The step grid as exact (rho, outer) triples, built with Fraction."""
    fr = [Fraction(i, step) for i in range(step)]
    points = []
    for a in range(step):
        for b in range(step):
            rr = fr[a] + fr[b]
            if not 0 < rr < Fraction(3, 2):
                continue
            for c in range(step):
                for d in range(step):
                    if c + d:
                        points.append(((fr[a], fr[b], 1 - rr),
                                       (fr[c], fr[d], 1 - fr[c] - fr[d])))
    return points


class TestGridRoutes:
    def test_vector_routes_match_scalar_routes_pointwise(self):
        step = 8
        got = []
        for rho, outer in _grid_chunks(step):
            verdicts = (
                _theta_feasible_grid(rho, outer, step),
                _case_member_grid(rho, outer, step),
            )
            arrays = np.broadcast_arrays(*rho, *outer, *verdicts)
            for vals in zip(*(x.ravel().tolist() for x in arrays)):
                point = tuple(Fraction(v, step) for v in vals[:6])
                got.append(((point[:3], point[3:]), vals[6:]))
        assert [p for p, _ in got] == fraction_grid(step)
        for (rho, outer), (feasible, table) in got:
            assert feasible == _theta_feasible(rho, outer)[0]
            assert table == _case_member(rho, outer)[0]

    def test_vector_routes_match_scalar_routes_on_a_step_24_sample(self):
        # step 8 has no thirds; a fixed sample of the step-1/24 grid covers them
        step = 24
        a, b, c, d = np.random.default_rng(24).integers(0, step, size=(4, 3000))
        keep = (a + b > 0) & (2 * (a + b) < 3 * step) & (c + d > 0)
        a, b, c, d = a[keep], b[keep], c[keep], d[keep]
        assert a.size > 2000
        rho_num, outer_num = (a, b, step - a - b), (c, d, step - c - d)
        feasible = _theta_feasible_grid(rho_num, outer_num, step)
        table = _case_member_grid(rho_num, outer_num, step)
        for i in range(a.size):
            rho = tuple(Fraction(int(x[i]), step) for x in rho_num)
            outer = tuple(Fraction(int(x[i]), step) for x in outer_num)
            assert feasible[i] == _theta_feasible(rho, outer)[0]
            assert table[i] == _case_member(rho, outer)[0]

    def test_literal_table_fails_the_grid_check(self):
        assert range_grid_mismatches(24) == (292675, 0)
        mismatches = sum(
            int(np.count_nonzero(_theta_feasible_grid(rho, outer, 24)
                                 != printed_case_member_grid(rho, outer, 24)))
            for rho, outer in _grid_chunks(24)
        )
        assert mismatches == 3278

    def test_runner_aggregates(self):
        from wavetile.bench import ExperimentConfig, run_campaign

        cfg = ExperimentConfig(seed=7, targets=("range-consistency",))
        result = run_campaign(cfg).results[0]
        assert result.aggregates == {"grid_points": 292675, "mismatches": 0}
        assert result.passed


class TestDepthN:
    def test_intersection_over_levels(self):
        q = parse_range_query("p=4 q=4 s=2 r1=inf,2 r2=2,inf r=2,2")
        res = bht_range_membership(q)
        assert res.member and res.case_labels == ["i", "i"] and res.chain_ok

    def test_level_failure_blocks_membership(self):
        # level 1 forces 1/q < 3/4 while the query has 1/q = 4/5
        q = parse_range_query("p=10 q=5/4 s=10/9 r1=4/3,2 r2=4,2 r=1,1")
        res = bht_range_membership(q)
        assert not res.member

    def test_chain_condition(self):
        # level-0 tuple (4/3, 4, 1) must lie in the level-1 region; with a
        # level-1 tuple demanding 1/q < 3/4 it does (1/4 < 3/4), but with
        # the roles flipped the cascade fails
        ok = bht_range_membership(
            RangeQuery(
                r1=(Fraction(4, 3), Fraction(4, 3)),
                r2=(4, 4),
                r=(1, 1),
                p=4, q=2, s=Fraction(4, 3),
            )
        )
        assert ok.chain_ok
        bad = bht_range_membership(
            RangeQuery(
                r1=(4, Fraction(10, 9)),
                r2=(Fraction(4, 3), Fraction(10, 1)),
                r=(1, 1),
                p=2, q=2, s=1,
            )
        )
        # level-0 tuple has 1/q-side = 3/4 >= 3/2 - 1/r1 of level 1
        assert not bad.chain_ok and not bad.member


class TestSyntax:
    def test_round_trip(self):
        q = parse_range_query("p=4 q=2 s=4/3 r1=4/3 r2=4 r=1")
        assert parse_range_query(format_range_query(q)) == q

    def test_infinite_exponent(self):
        q = parse_range_query("p=inf q=2 s=2 r1=2 r2=2 r=1")
        assert q.p == INF

    def test_reciprocal_canonical_form(self):
        a = parse_range_query("p=4/2 q=2 s=1 r1=2 r2=2 r=1")
        b = parse_range_query("p=2 q=2 s=1 r1=2 r2=2 r=1")
        assert bht_range_membership(a).member == bht_range_membership(b).member
        assert a == b

    def test_missing_field(self):
        with pytest.raises(ValueError):
            parse_range_query("p=2 q=2 s=1 r1=2 r2=2")

    @pytest.mark.parametrize("query, message", [
        ("p=0 q=2 s=1 r1=2 r2=2 r=1", "p: exponent '0' must be nonzero"),
        ("p=2 q=2 s=1 r1=2,0 r2=2,2 r=1,1", "r1: exponent '0' must be nonzero"),
        ("p=2 q=2 s=1 r1=2 r2=2 r=1 bogus=7", "unknown key 'bogus' (value '7')"),
        ("p=4 p=2 q=2 s=1 r1=2 r2=2 r=1", "repeated key 'p' (value '2')"),
    ])
    def test_bad_field_named(self, query, message):
        with pytest.raises(ValueError) as err:
            parse_range_query(query)
        assert message in str(err.value)


class TestWitnessCertification:
    def test_random_rational_queries_certify_both_verdicts(self):
        """Feasible points must carry a verifying witness; infeasible points
        must have clipped lower bounds summing to at least one (a proof)."""
        import random

        from wavetile.operators.ranges import _theta_feasible

        rng = random.Random(99)
        for _ in range(1500):
            den = rng.choice([3, 5, 7, 8, 12, 24, 48])
            r1 = Fraction(rng.randrange(0, den), den)
            r2 = Fraction(rng.randrange(0, den), den)
            if not 0 < r1 + r2 < Fraction(3, 2):
                continue
            o1 = Fraction(rng.randrange(0, den), den)
            o2 = Fraction(rng.randrange(0, den), den)
            if o1 + o2 == 0:
                continue
            rho = (r1, r2, 1 - r1 - r2)
            outer = (o1, o2, 1 - o1 - o2)
            feasible, theta = _theta_feasible(rho, outer)
            if feasible:
                assert sum(theta) == 1
                for b, o, t in zip(rho, outer, theta):
                    assert 0 <= t < 1
                    assert max(b, o) < Fraction(1 + t, 2)
            else:
                lows = [max(Fraction(0), 2 * max(b, o) - 1)
                        for b, o in zip(rho, outer)]
                assert sum(lows) >= 1
