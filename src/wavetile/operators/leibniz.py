"""Two-parameter fractional Leibniz rule: both sides, for ratio reporting.

The left side is the mixed norm of D1^alpha D2^beta (f g), computed
spectrally.  The right side is the sum of four products

    ||D1^a D2^b f||_{p_x, p_y} * ||D1^a' D2^b' g||_{q_x, q_y}

splitting the derivatives as (both, none), (none, both), (x on f / y on g),
and (y on f / x on g).  Every term carries its own Hoelder pair; the target
exponents must satisfy s1 > 1/(1+alpha) and s2 > max(1/(1+alpha),
1/(1+beta)), else the assignment is rejected naming the violated constraint.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..errors import ExponentConstraintError
from ..grid import GridFunction, fractional_derivative
from ..norms import Exponent, MixedNormSpec, mixed_norm, recip

__all__ = ["LeibnizExponents", "leibniz_sides"]


@dataclass(frozen=True)
class LeibnizExponents:
    """Target pair (s1, s2) and one (px, py, qx, qy) tuple per product term."""

    s1: Exponent
    s2: Exponent
    pairs: tuple[tuple[Exponent, Exponent, Exponent, Exponent], ...]

    def __post_init__(self):
        if len(self.pairs) != 4:
            raise ValueError("need exactly four Hoelder pairs")
        for px, py, qx, qy in self.pairs:
            if recip(px) + recip(qx) != recip(self.s1):
                raise ValueError(f"x-scaling violated: 1/{px}+1/{qx} != 1/{self.s1}")
            if recip(py) + recip(qy) != recip(self.s2):
                raise ValueError(f"y-scaling violated: 1/{py}+1/{qy} != 1/{self.s2}")
            for e in (px, py, qx, qy):
                if recip(e) >= 1:
                    raise ValueError("factor exponents must exceed 1")

    @classmethod
    def symmetric(cls, s1: Exponent = 2, s2: Exponent = 2) -> "LeibnizExponents":
        """The symmetric split: every factor norm at double the target."""
        px = 1 / (recip(s1) / 2) if recip(s1) > 0 else s1
        py = 1 / (recip(s2) / 2) if recip(s2) > 0 else s2
        pair = (px, py, px, py)
        return cls(s1, s2, (pair, pair, pair, pair))


def _check_constraints(alpha: float, beta: float, exps: LeibnizExponents):
    s1, s2 = Fraction(exps.s1), Fraction(exps.s2)
    lo1 = Fraction(1) / (1 + Fraction(alpha).limit_denominator(10 ** 6))
    lo2 = max(lo1, Fraction(1) / (1 + Fraction(beta).limit_denominator(10 ** 6)))
    if not s1 > lo1:
        raise ExponentConstraintError(
            f"s1={s1} violates s1 > 1/(1+alpha) = {lo1}",
            constraint="s1 > 1/(1+alpha)",
        )
    if not s2 > lo2:
        raise ExponentConstraintError(
            f"s2={s2} violates s2 > max(1/(1+alpha), 1/(1+beta)) = {lo2}",
            constraint="s2 > max(1/(1+alpha), 1/(1+beta))",
        )


def leibniz_sides(
    alpha: float,
    beta: float,
    exps: LeibnizExponents,
    f: GridFunction,
    g: GridFunction,
) -> tuple[float, tuple[float, float, float, float]]:
    """Evaluate lhs and the four rhs products of the two-parameter rule."""
    if f.grid.dimension != 2:
        raise ValueError("the two-parameter rule needs 2d inputs")
    _check_constraints(alpha, beta, exps)

    def d1(h):
        return fractional_derivative(h, alpha, axis=1) if alpha > 0 else h

    def d2(h):
        return fractional_derivative(h, beta, axis=2) if beta > 0 else h

    def fields(h):
        """h and its derivatives by the axes they act on; D1 h is computed
        once and differentiated again for D1 D2 h."""
        h1 = d1(h)
        return {"": h, "x": h1, "y": d2(h), "xy": d2(h1)}

    product = GridFunction(f.grid, f.samples * g.samples)
    lhs = mixed_norm(d2(d1(product)), MixedNormSpec((exps.s1, exps.s2)))

    f_fields, g_fields = fields(f), fields(g)
    splits = (("xy", ""), ("", "xy"), ("x", "y"), ("y", "x"))
    terms = []
    for (af, ag), (px, py, qx, qy) in zip(splits, exps.pairs):
        nf = mixed_norm(f_fields[af], MixedNormSpec((px, py)))
        ng = mixed_norm(g_fields[ag], MixedNormSpec((qx, qy)))
        terms.append(nf * ng)
    return lhs, tuple(terms)
