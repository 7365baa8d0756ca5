"""Exact-rational membership calculator for vector-valued BHT exponents.

Membership of an outer triple (p, q, s) in the admissible region attached to
an inner tuple (r1, r2, r) is decided two independent ways:

* a closed-form case table over the seven configurations of
  (1/r1, 1/r2, 1/r') relative to 1/2 and 0, and
* exact feasibility of the defining linear system: existence of
  theta in [0,1)^3 with theta1+theta2+theta3 = 1 and
  1/r1 < (1+theta1)/2, 1/r2 < (1+theta2)/2, 1/r' < (1+theta3)/2 together
  with the same bounds for (1/p, 1/q, 1/s').

The two routes must agree; a mismatch raises
:class:`~wavetile.errors.RangeConsistencyError` (bug trap).  The table
carries a consistency repair in cases (ii)/(iii): the dual-side constraint
1/s' < 3/2 - 1/r1 (resp. 1/r2), present in cases (v)/(vi), is required there
as well, since the linear system forces it.  As printed, without it, the
table disagrees with the system at 3,278 of the 292,675 points of the
step-1/24 grid, a count ``TestGridRoutes`` in ``tests/test_ranges.py`` keeps.

On a rational grid whose coordinates share one denominator both routes are
integer inequalities over that denominator; ``range_grid_mismatches``
evaluates them as numpy arrays, the two routes written separately, one
1/r1 numerator at a time.  The scalar routes remain the reference for them.

Depth-n queries intersect the per-level regions and additionally check the
cascade condition: each level's inner tuple must belong to the region of the
next level.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ..errors import RangeConsistencyError
from ..norms import INF, Exponent, ExponentTuple, dual_recip, recip

__all__ = [
    "RangeQuery",
    "RangeMembership",
    "bht_range_membership",
    "scalar_range_member",
    "range_grid_mismatches",
    "parse_range_query",
    "format_range_query",
]

HALF = Fraction(1, 2)
THREE_HALVES = Fraction(3, 2)


def _as_tuple(x) -> tuple:
    if isinstance(x, (tuple, list)):
        return tuple(x)
    return (x,)


@dataclass(frozen=True)
class RangeQuery:
    """Inner exponent vectors and an outer Hoelder triple, all exact."""

    r1: tuple[Exponent, ...]
    r2: tuple[Exponent, ...]
    r: tuple[Exponent, ...]
    p: Exponent
    q: Exponent
    s: Exponent

    def __post_init__(self):
        object.__setattr__(self, "r1", _as_tuple(self.r1))
        object.__setattr__(self, "r2", _as_tuple(self.r2))
        object.__setattr__(self, "r", _as_tuple(self.r, ))
        if not (len(self.r1) == len(self.r2) == len(self.r) >= 1):
            raise ValueError("r1, r2, r must have equal positive depth")
        for a, b, c in zip(self.r1, self.r2, self.r):
            ExponentTuple(a, b, c)
            if not (recip(a) < 1 and recip(b) < 1):
                raise ValueError("inner exponents must satisfy 1 < r_i <= inf")
            if not (0 < recip(c) < THREE_HALVES):
                raise ValueError("inner target must satisfy 2/3 < r < inf")
        ExponentTuple(self.p, self.q, self.s)
        if not (recip(self.p) <= 1 and recip(self.q) <= 1):
            raise ValueError("outer p, q must satisfy 1 <= p, q <= inf")

    @property
    def depth(self) -> int:
        return len(self.r)

    def outer_reciprocals(self) -> tuple[Fraction, Fraction, Fraction]:
        """(1/p, 1/q, 1/s')."""
        return recip(self.p), recip(self.q), dual_recip(self.s)

    def level_reciprocals(self, j: int) -> tuple[Fraction, Fraction, Fraction]:
        """(1/r1, 1/r2, 1/r') at level j."""
        return recip(self.r1[j]), recip(self.r2[j]), dual_recip(self.r[j])


# ---------------------------------------------------------------------------
# Route (b): exact theta feasibility
# ---------------------------------------------------------------------------

def _theta_feasible(rho, outer):
    """Feasibility of the simplex system; returns (bool, theta or None).

    Exact integer arithmetic over the common denominator: theta_j must
    exceed 2 max(rho_j, outer_j) - 1, stay in [0, 1), and sum to 1, which is
    possible iff the sum of the clipped lower bounds is below 1.
    """
    from math import lcm

    d = 1
    for v in (*rho, *outer):
        d = lcm(d, v.denominator)
    lows = []
    for a, b in zip(rho, outer):
        m = max(a.numerator * (d // a.denominator), b.numerator * (d // b.denominator))
        lows.append(max(0, 2 * m - d))
    if sum(lows) >= d:
        return False, None
    slack = Fraction(d - sum(lows), 3 * d)
    theta = tuple(Fraction(l, d) + slack for l in lows)
    return True, theta


# ---------------------------------------------------------------------------
# Route (a): case table
# ---------------------------------------------------------------------------

def _classify(rho1: Fraction, rho2: Fraction, rho3d: Fraction) -> str:
    big1, big2 = rho1 > HALF, rho2 > HALF
    if big1 and big2:
        return "vii"
    if big1:
        return "ii" if rho3d >= 0 else "v"
    if big2:
        return "iii" if rho3d >= 0 else "vi"
    return "iv" if rho3d > HALF else "i"


def _in_range_bht(o1: Fraction, o2: Fraction, o3d: Fraction) -> bool:
    return o1 < 1 and o2 < 1 and -HALF < o3d < 1


def _case_member(rho, outer) -> tuple[bool, str]:
    rho1, rho2, rho3d = rho
    o1, o2, o3d = outer
    label = _classify(rho1, rho2, rho3d)
    if not _in_range_bht(o1, o2, o3d):
        return False, label
    if label == "i":
        ok = True
    elif label in ("ii", "v"):
        ok = o2 < THREE_HALVES - rho1 and o3d < THREE_HALVES - rho1
    elif label in ("iii", "vi"):
        ok = o1 < THREE_HALVES - rho2 and o3d < THREE_HALVES - rho2
    elif label == "iv":
        rr = rho1 + rho2  # 1/r
        ok = o1 < HALF + rr and o2 < HALF + rr and o3d > -rr
    else:  # vii
        rr = rho1 + rho2
        ok = (
            o1 < THREE_HALVES - rho2
            and o2 < THREE_HALVES - rho1
            and o3d < 2 - rr
        )
    return ok, label


# ---------------------------------------------------------------------------
# Both routes on a grid with a common denominator
# ---------------------------------------------------------------------------
#
# ``rho`` and ``outer`` are triples of broadcastable integer arrays, the
# numerators over ``den`` of (1/r1, 1/r2, 1/r') and (1/p, 1/q, 1/s').  Every
# bound x < y of the scalar routes becomes 2x < 2y in numerators, so the
# halves and three-halves are multiples of den.  The two functions share
# nothing but their inputs, so each stays an independent check of the other.

def _theta_feasible_grid(rho, outer, den):
    """Verdict of :func:`_theta_feasible` at every point."""
    lows = 0
    for r, o in zip(rho, outer):
        lows = lows + np.maximum(0, 2 * np.maximum(r, o) - den)
    return lows < den


def _case_member_grid(rho, outer, den):
    """Verdict of :func:`_case_member` at every point."""
    r1, r2, r3 = rho
    o1, o2, o3 = outer
    rr = r1 + r2
    big1, big2 = 2 * r1 > den, 2 * r2 > den
    side1 = 2 * o2 < 3 * den - 2 * r1
    side2 = 2 * o1 < 3 * den - 2 * r2
    dual1 = 2 * o3 < 3 * den - 2 * r1
    dual2 = 2 * o3 < 3 * den - 2 * r2
    ok = np.select(
        [big1 & big2, big1, big2, 2 * r3 > den],
        [
            side2 & side1 & (o3 < 2 * den - rr),                   # (vii)
            side1 & dual1,                                         # (ii), (v)
            side2 & dual2,                                         # (iii), (vi)
            (2 * o1 < den + 2 * rr) & (2 * o2 < den + 2 * rr) & (o3 > -rr),  # (iv)
        ],
        default=True,                                              # (i)
    )
    in_range = (o1 < den) & (o2 < den) & (-den < 2 * o3) & (o3 < den)
    return in_range & ok


def _grid_chunks(step: int):
    """The step grid, one 1/r1 numerator at a time, as (rho, outer) numerators.

    Level tuples (1/r1, 1/r2) = (a, b)/step with 0 < a + b < 3 step/2, outer
    pairs (1/p, 1/q) = (c, d)/step with c + d > 0, all numerators in
    [0, step); the third entries are 1/r' = 1 - 1/r1 - 1/r2 and
    1/s' = 1 - 1/p - 1/q.  Chunks hold at most step**3 points.
    """
    k = np.arange(step)
    c, d = (x.ravel() for x in np.meshgrid(k, k, indexing="ij"))
    keep = c + d > 0
    c, d = c[keep], d[keep]
    outer = (c, d, step - c - d)
    for a in range(step):
        b = k[(a + k > 0) & (2 * (a + k) < 3 * step)][:, None]
        yield (np.full_like(b, a), b, step - a - b), outer


def range_grid_mismatches(step: int) -> tuple[int, int]:
    """(points checked, points where the two routes disagree) on the step grid."""
    checked = mismatches = 0
    for rho, outer in _grid_chunks(step):
        feasible = _theta_feasible_grid(rho, outer, step)
        table = _case_member_grid(rho, outer, step)
        checked += feasible.size
        mismatches += int(np.count_nonzero(feasible != table))
    return checked, mismatches


# ---------------------------------------------------------------------------
# Public interface
# ---------------------------------------------------------------------------

@dataclass
class RangeMembership:
    member: bool
    theta: list[tuple[Fraction, Fraction, Fraction] | None]
    case_labels: list[str]
    chain_ok: bool


def scalar_range_member(rho, outer) -> tuple[bool, str, tuple | None]:
    """Single-level membership with the internal consistency trap."""
    feasible, theta = _theta_feasible(rho, outer)
    table_ok, label = _case_member(rho, outer)
    if feasible != table_ok:
        raise RangeConsistencyError(
            f"case table ({table_ok}) and theta feasibility ({feasible}) "
            f"disagree at rho={rho}, outer={outer}, case ({label})"
        )
    return feasible, label, theta


def bht_range_membership(query: RangeQuery) -> RangeMembership:
    """Membership of the outer triple in the depth-n admissible region.

    The region is the intersection over levels; a depth-n query must also
    satisfy the cascade condition linking consecutive levels, reported via
    ``chain_ok`` and required for membership.
    """
    outer = query.outer_reciprocals()
    labels: list[str] = []
    thetas: list[tuple | None] = []
    member = True
    for j in range(query.depth):
        rho = query.level_reciprocals(j)
        ok, label, theta = scalar_range_member(rho, outer)
        labels.append(label)
        thetas.append(theta)
        member = member and ok
    chain_ok = True
    for j in range(query.depth - 1):
        rho_next = query.level_reciprocals(j + 1)
        as_outer = query.level_reciprocals(j)
        ok, _, _ = scalar_range_member(rho_next, as_outer)
        chain_ok = chain_ok and ok
    member = member and chain_ok
    return RangeMembership(member, thetas if member else [None] * query.depth,
                           labels, chain_ok)


# ---------------------------------------------------------------------------
# Text syntax: "p=4 q=2 s=4/3 r1=4/3 r2=4 r=1" (commas for depth-n vectors)
# ---------------------------------------------------------------------------

_QUERY_KEYS = ("p", "q", "s", "r1", "r2", "r")


def _parse_exponent(key: str, tok: str) -> Exponent:
    tok = tok.strip()
    if tok in ("inf", "infty", "oo"):
        return INF
    try:
        e = Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{key}: {tok!r} is not an exponent") from None
    if e == 0:
        raise ValueError(f"{key}: exponent {tok!r} must be nonzero")
    return e


def parse_range_query(text: str) -> RangeQuery:
    fields: dict[str, str] = {}
    for part in text.split():
        if "=" not in part:
            raise ValueError(f"malformed token {part!r}; expected key=value")
        key, val = part.split("=", 1)
        if key not in _QUERY_KEYS or key in fields:
            problem = "repeated" if key in fields else "unknown"
            raise ValueError(
                f"{problem} key {key!r} (value {val!r}); keys: {' '.join(_QUERY_KEYS)}"
            )
        fields[key] = val
    missing = set(_QUERY_KEYS) - set(fields)
    if missing:
        raise ValueError(f"missing fields: {sorted(missing)}")

    def vec(key: str):
        return tuple(_parse_exponent(key, t) for t in fields[key].split(","))

    return RangeQuery(
        r1=vec("r1"),
        r2=vec("r2"),
        r=vec("r"),
        p=_parse_exponent("p", fields["p"]),
        q=_parse_exponent("q", fields["q"]),
        s=_parse_exponent("s", fields["s"]),
    )


def _format_exponent(e: Exponent) -> str:
    if e == INF:
        return "inf"
    return str(Fraction(e))


def format_range_query(query: RangeQuery) -> str:
    def vec(v):
        return ",".join(_format_exponent(e) for e in v)

    return (
        f"p={_format_exponent(query.p)} q={_format_exponent(query.q)} "
        f"s={_format_exponent(query.s)} r1={vec(query.r1)} "
        f"r2={vec(query.r2)} r={vec(query.r)}"
    )
