"""(C, alpha)-goodness machinery: exact sup norms, sublevel-set measures and
certified goodness constants.

All measures come from the cell sweep of ``cells``.  A cell is decided once
the value at its center dominates the certified variation bound on the cell
(ultrametric mean value estimate); undecided cells are split until a maximum
depth, and any survivors are reported as explicit undecided mass rather than
guessed.  Everything is exact: measures are Fractions with power-of-q
denominators and constants are Fraction * q^Fraction pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import total_ordering
from typing import Optional, Sequence

from .cells import IN, OUT, UNKNOWN, MapCellData, SweepData, measure_union
from .ffield import AbsValue, Ball, Poly, strict_below
from .ultracalc import AnalyticMap, MPoly, sup_norm_on_ball


@total_ordering
class QExp:
    """An exact nonnegative real of the form m * q^u, m rational, u rational.

    Closed under multiplication and division; ordering is exact via
    cross-powering, never through floats.  This is the carrier for certified
    goodness constants C = (measure/|B|) * (sup/eps)^alpha.
    """

    __slots__ = ("q", "m", "u")

    def __init__(self, q: int, m, u=0):
        self.q = q
        self.m = Fraction(m)
        self.u = Fraction(u)
        if self.m < 0:
            raise ValueError("QExp values are nonnegative")
        if self.m == 0:
            self.u = Fraction(0)

    @classmethod
    def qpow(cls, q: int, e) -> "QExp":
        return cls(q, 1, e)

    @classmethod
    def zero(cls, q: int) -> "QExp":
        return cls(q, 0)

    @property
    def is_zero(self) -> bool:
        return self.m == 0

    def _cmp_key(self, other: "QExp") -> int:
        if self.q != other.q:
            raise ValueError("mixed base q")
        if self.m == 0 or other.m == 0:
            return (self.m > 0) - (other.m > 0)
        du = self.u - other.u
        b = du.denominator
        # self ? other  <=>  (m1/m2)^b ? q^(-du*b)
        lhs = (self.m / other.m) ** b
        e = -du * b
        rhs = Fraction(self.q ** int(e)) if e >= 0 else Fraction(1, self.q ** int(-e))
        return (lhs > rhs) - (lhs < rhs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QExp):
            return NotImplemented
        return self._cmp_key(other) == 0

    def __lt__(self, other) -> bool:
        return self._cmp_key(other) < 0

    def __hash__(self):
        return hash((self.q, self.m, self.u))

    def __mul__(self, other: "QExp") -> "QExp":
        if self.q != other.q:
            raise ValueError("mixed base q")
        return QExp(self.q, self.m * other.m, self.u + other.u)

    def __truediv__(self, other: "QExp") -> "QExp":
        if other.m == 0:
            raise ZeroDivisionError("division by zero QExp")
        return QExp(self.q, self.m / other.m, self.u - other.u)

    @classmethod
    def from_fraction(cls, q: int, f: Fraction) -> "QExp":
        return cls(q, f, 0)

    def to_float(self) -> float:
        return float(self.m) * self.q ** float(self.u)

    def __repr__(self) -> str:
        if self.m == 0:
            return "QExp(0)"
        if self.u == 0:
            return f"QExp({self.m})"
        return f"QExp({self.m} * {self.q}^{self.u})"


# ---------------------------------------------------------------------------
# cell conditions on polynomials
# ---------------------------------------------------------------------------

def poly_data(polys: Sequence[MPoly], ball: Ball) -> SweepData:
    """The SweepData of polynomials g_1..g_k on a ball: the components of
    a map without theta, so g_i is the one part of the unit vector e_i."""
    return SweepData(AnalyticMap(ball.spec, ball.d, len(polys), tuple(polys), domain=ball))


class PolyAbsAtom:
    """Atom |g_i(x)| <= q^tau on a cell, g_i polynomial i of a SweepData
    over polynomials (``poly_data``).

    |g_i(center)| is the top nonzero digit of g_i's packed center value
    (``SweepData.top_digit``), var the exponent of its variation on the
    cell: a digit above max(tau, var) makes |g_i| constant and above q^tau
    on the cell (OUT); without one |g_i| <= q^max(tau, var) there, so the
    atom is IN when var <= tau and UNKNOWN otherwise.  The atoms of one
    SweepData share each cell's center evaluation (its MapCellData in ctx).
    """

    __slots__ = ("sd", "tau", "parts")

    def __init__(self, sd: SweepData, i: int, tau: int):
        self.sd = sd
        self.tau = tau
        spec = sd.m.spec
        a = [Poly.one(spec) if k == i else Poly.zero(spec) for k in range(sd.m.n)]
        self.parts = sd.register(a, 0, tau + 1)

    def status(self, cell: Ball, ctx: dict) -> int:
        val, var, prec = MapCellData.of(self.sd, cell, ctx).packed_sum(self.parts, 0)
        if self.sd.top_digit(val, max(self.tau, var) + 1, prec, 0) is not None:
            return OUT
        return IN if var <= self.tau else UNKNOWN


class TrueAtom:
    """Vacuously satisfied condition alone in its label: its group, IN."""

    decides_labels = True

    __slots__ = ()

    def status(self, cell: Ball, ctx: dict, live: Sequence) -> tuple:
        return True, ()


class ConjAtom:
    """Conjunction of conditions: IN iff all IN, OUT iff some OUT."""

    __slots__ = ("parts",)

    def __init__(self, parts: Sequence):
        self.parts = tuple(parts)

    def status(self, cell: Ball, ctx: dict) -> int:
        all_in = True
        for p in self.parts:
            s = p.status(cell, ctx)
            if s == OUT:
                return OUT
            if s != IN:
                all_in = False
        return IN if all_in else UNKNOWN


# ---------------------------------------------------------------------------
# sup norms
# ---------------------------------------------------------------------------

def sup_norm_family(gs: Sequence[MPoly], ball: Ball) -> AbsValue:
    """sup over the ball of max_i |g_i|."""
    best = AbsValue.zero()
    for g in gs:
        v = sup_norm_on_ball(g, ball)
        if v > best:
            best = v
    return best


# ---------------------------------------------------------------------------
# sublevel measures and goodness certification
# ---------------------------------------------------------------------------

@dataclass
class SublevelReport:
    """Exact measure of {x in B : |f(x)| < eps} with certification data."""

    ball: Ball
    eps_exp: Fraction
    sup: AbsValue
    measure: Fraction
    undecided: Fraction
    resolution: int
    certified: bool

    def to_json(self) -> dict:
        q = self.ball.spec.q
        scaled = self.measure * q ** (self.ball.d * self.resolution)
        return {
            "ball": str(self.ball),
            "epsilonExp": str(self.eps_exp),
            "supExp": None if self.sup.is_zero else str(self.sup.exp),
            "cellCount": int(scaled) if scaled.denominator == 1 else None,
            "measure": str(self.measure),
            "undecided": str(self.undecided),
            "resolution": self.resolution,
            "certified": self.certified,
        }


def _sublevel_depth(sd: SweepData, tau: int, resolution: Optional[int]) -> int:
    """Default refinement depth resolution + 4 (resolution defaulting to the
    ball's radius exponent + 4), deepened with the size of g's coefficients
    (g the one polynomial of sd, its VarTable over the ball) so that
    decisions, which need the variation below the threshold, are
    scaling-invariant."""
    if resolution is None:
        resolution = sd.dom.radius_exp + 4
    depth = resolution + 4
    bound = sd.row_tables(0)[0].sup_exp
    if bound is not None and bound > tau:
        depth = max(depth, sd.dom.radius_exp + (bound - tau) + 1)
    return depth


def sublevel_measure(
    g: MPoly,
    ball: Ball,
    eps_exp,
    resolution: Optional[int] = None,
    max_depth: Optional[int] = None,
) -> SublevelReport:
    """Measure of {x in B : |g(x)| < q^eps_exp}, exact via cell certification.

    The strict threshold normalizes to |g(x)| <= q^strict_below(eps_exp) on
    the discrete value group.
    """
    eps_exp = Fraction(eps_exp)
    tau = strict_below(eps_exp)
    sd = poly_data([g], ball)
    depth = max_depth if max_depth is not None else _sublevel_depth(sd, tau, resolution)
    res = measure_union([PolyAbsAtom(sd, 0, tau)], ball, depth)
    return SublevelReport(
        ball=ball,
        eps_exp=eps_exp,
        sup=sup_norm_on_ball(g, ball),
        measure=res.included,
        undecided=res.undecided,
        resolution=depth,
        certified=res.certified,
    )


@dataclass
class GoodnessCertificate:
    """The smallest constant C witnessing (C, alpha)-goodness on a grid."""

    alpha: Fraction
    C: QExp
    sup: AbsValue
    rows: list = field(default_factory=list)  # (eps_exp, measure, ratio QExp)
    certified: bool = True


def _certify(ball: Ball, alpha, sup: AbsValue, eps_exps: Sequence, atom_at,
             depth: int) -> GoodnessCertificate:
    """The ratio loop: max over eps of measure * (sup/eps)^alpha / |B|.  The
    sublevel set at eps is the label eps of one sweep to ``depth`` over the
    atoms atom_at(tau), tau = strict_below(eps_exp)."""
    if sup.is_zero:
        raise ValueError("goodness of the zero function is undefined")
    q = ball.spec.q
    alpha = Fraction(alpha)
    eps_exps = [Fraction(e) for e in eps_exps]
    ball_measure = ball.measure()
    union = measure_union([atom_at(strict_below(e)) for e in eps_exps], ball, depth, eps_exps)
    best = QExp.zero(q)
    rows = []
    certified = True
    for e in eps_exps:
        res = union.restrict([e])
        certified = certified and res.certified
        ratio = QExp.from_fraction(q, res.included / ball_measure)
        if res.included:
            ratio = ratio * QExp.qpow(q, (Fraction(sup.exp) - e) * alpha)
        rows.append((e, res.included, ratio))
        if ratio > best:
            best = ratio
    return GoodnessCertificate(alpha=alpha, C=best, sup=sup, rows=rows, certified=certified)


def certify_good(
    g: MPoly,
    ball: Ball,
    alpha,
    eps_exps: Sequence,
    resolution: Optional[int] = None,
) -> GoodnessCertificate:
    """Certify (C, alpha)-goodness of g on the tested epsilon grid.

    Returns max over eps of  measure * (sup/eps)^alpha / |B|,  each factor
    exact.  Epsilon values above the sup norm contribute ratio measure/|B|
    <= 1 and are admitted (the definition is vacuous there).  The sweep goes
    to the depth of the smallest epsilon, the deepest any epsilon needs.
    """
    sd = poly_data([g], ball)
    depth = _sublevel_depth(sd, strict_below(min(eps_exps, default=0)), resolution)
    return _certify(ball, alpha, sup_norm_on_ball(g, ball), eps_exps,
                    lambda tau: PolyAbsAtom(sd, 0, tau), depth)


def certify_good_max(
    polys: Sequence[MPoly], ball: Ball, alpha, eps_exps: Sequence
) -> GoodnessCertificate:
    """Goodness certificate for x -> max_i |g_i(x)| (sup of a finite family);
    the g_i share one SweepData, so one center evaluation a cell."""
    sd = poly_data(polys, ball)
    return _certify(ball, alpha, sup_norm_family(polys, ball), eps_exps,
                    lambda tau: ConjAtom([PolyAbsAtom(sd, i, tau) for i in range(len(polys))]),
                    ball.radius_exp + 8)


def good_bound_holds(
    measure: Fraction,
    ball_measure: Fraction,
    sup_exp: Fraction,
    eps_exp: Fraction,
    alpha: Fraction,
    C: QExp,
    q: int,
) -> bool:
    """Check measure <= C * (eps/sup)^alpha * |B| exactly."""
    lhs = QExp.from_fraction(q, measure)
    rhs = C * QExp.qpow(q, (Fraction(eps_exp) - Fraction(sup_exp)) * alpha)
    rhs = rhs * QExp.from_fraction(q, ball_measure)
    return lhs <= rhs
