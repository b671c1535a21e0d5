"""(C, alpha)-goodness machinery: exact sup norms, sublevel-set measures and
certified goodness constants.

All measures are computed by an adaptive cell sweep.  A cell is decided once
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

from .errors import PrecisionError
from .ffield import AbsValue, Ball, Laurent, strict_below
from .ultracalc import MPoly, VarTable, sup_norm_on_ball

IN, OUT, UNKNOWN = 1, 0, -1


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
# adaptive cell engine
# ---------------------------------------------------------------------------

@dataclass
class MeasureResult:
    """Exact outcome of a cell sweep: included mass plus undecided slack.

    ``leaves`` maps (labels IN, labels undecided) to the mass of the sweep's
    leaves with those label sets; ``restrict`` reads off the union over any
    set of labels.
    """

    included: Fraction
    undecided: Fraction
    q: int
    d: int
    max_depth: int
    leaves: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def from_leaves(cls, leaves: dict, q: int, d: int, max_depth: int) -> "MeasureResult":
        included = undecided = Fraction(0)
        for (ins, und), mass in leaves.items():
            if ins:
                included += mass
            elif und:
                undecided += mass
        return cls(included, undecided, q, d, max_depth, leaves)

    def restrict(self, labels) -> "MeasureResult":
        """The union over the atoms whose label lies in ``labels``: a leaf
        counts as included when one of them is IN there, else as undecided
        when one of them is undecided there."""
        keep = frozenset(labels)
        leaves: dict = {}
        for (ins, und), mass in self.leaves.items():
            key = (ins & keep, und & keep)
            if key[0] or key[1]:
                leaves[key] = leaves.get(key, 0) + mass
        return MeasureResult.from_leaves(leaves, self.q, self.d, self.max_depth)

    @property
    def certified(self) -> bool:
        return self.undecided == 0

    @property
    def measure(self) -> Fraction:
        return self.included

    def cell_count(self, resolution: int) -> int:
        """Included mass as a count of resolution-cells (must be integral)."""
        n = self.included * self.q ** (self.d * resolution)
        if n.denominator != 1:
            raise ValueError(f"measure not integral at resolution {resolution}")
        return int(n)


def measure_union(atoms: Sequence, domain: Ball, max_depth: int,
                  labels: Optional[Sequence] = None) -> MeasureResult:
    """Exact Haar measure of the union of the atoms' satisfaction sets.

    An atom is IN on a cell when every point satisfies it, OUT when none
    does.  ``labels`` (one per atom; by default all share one) groups the
    atoms, and a label is decided on a cell by one call group.status(cell,
    ctx, live) -> (is_in, survivors) over its atoms still UNKNOWN there: IN
    as soon as one is IN, its other atoms then evaluated neither there nor
    below.  The group (``_group``) is a TrueAtom the label holds, else its
    first atom when that decides labels (its class sets ``decides_labels``;
    the label's atoms are then of its kind), else an ``AtomGroup``.  ``ctx``
    is a fresh dict per cell, shared by the groups for caching.

    A cell is split while some label has survivors and is not IN; cells
    undecided at max_depth are tallied separately, never guessed.  Each leaf
    is tallied under its (labels IN, labels undecided), so one sweep yields
    the union over every label set (``MeasureResult.restrict``).
    """
    groups: dict = {}
    for a, lab in zip(atoms, [None] * len(atoms) if labels is None else labels):
        groups.setdefault(lab, []).append(a)
    singles = {lab: frozenset((lab,)) for lab in groups}
    none = frozenset()
    counts: dict = {}  # (labels IN, labels undecided, radius_exp) -> leaf cells
    stack = [(domain, none, tuple((lab, _group(g), tuple(g)) for lab, g in groups.items()))]
    while stack:
        cell, ins, live = stack.pop()
        ctx: dict = {}
        survivors = []
        for lab, group, members in live:
            is_in, rest = group.status(cell, ctx, members)
            if is_in:
                ins = ins | singles[lab]
            elif rest:
                survivors.append((lab, group, rest))
        if not survivors:
            if ins:
                key = (ins, none, cell.radius_exp)
                counts[key] = counts.get(key, 0) + 1
        elif cell.radius_exp < max_depth:
            survivors = tuple(survivors)
            for child in cell.subdivide():
                stack.append((child, ins, survivors))
        else:
            key = (ins, frozenset(lab for lab, _, _ in survivors), cell.radius_exp)
            counts[key] = counts.get(key, 0) + 1
    leaves: dict = {}
    for (ins, und, r), n in counts.items():
        leaves[ins, und] = leaves.get((ins, und), 0) + n * Ball(domain.center, r).measure()
    return MeasureResult.from_leaves(leaves, domain.spec.q, domain.d, max_depth)


def _group(members: list):
    """The group of one label's atoms (see ``measure_union``)."""
    truth = next((a for a in members if type(a) is TrueAtom), None)
    first = members[0]
    return truth or (first if getattr(first, "decides_labels", False) else AtomGroup())


class AtomGroup:
    """A label decided by one status(cell, ctx) call per live atom."""

    def status(self, cell: Ball, ctx: dict, live: Sequence) -> tuple:
        rest = []
        for a in live:
            s = a.status(cell, ctx)
            if s == IN:
                return True, ()
            if s == UNKNOWN:
                rest.append(a)
        return False, tuple(rest)


class PolyAbsAtom:
    """Atom |g(x)| <= q^tau on a cell, for a fixed polynomial g.

    tau=None means the threshold is 0, i.e. the condition is g(x) = 0; that
    set has measure zero for nonzero g and the atom answers OUT on cells
    where the value dominates and UNKNOWN elsewhere.

    The variation bound on subcells comes from a VarTable of g over the
    first (largest) cell the engine presents, given or built lazily; it is
    valid on all of that cell's descendants.  The atoms of one g at several
    thresholds share the table and, kept in the cell's ctx, |g(center)|.
    """

    __slots__ = ("g", "tau", "_table")

    def __init__(self, g: MPoly, tau: Optional[int], table: Optional[VarTable] = None):
        self.g = g
        self.tau = tau
        self._table = table

    def status(self, cell: Ball, ctx: dict) -> int:
        if self._table is None:
            self._table = VarTable(self.g, cell)
        var = self._table.var_exp(cell.radius_exp)
        exps = ctx.setdefault("abs_exp", {})  # id(g) -> exponent of |g(center)|
        key = id(self.g)
        if key in exps:
            v_exp = exps[key]
        else:
            v_exp = exps[key] = self.g.eval(cell.center).abs_exp()
        return compare_abs_leq(v_exp, var, self.tau)


class TrueAtom:
    """Vacuously satisfied condition: the group of a label holding one, IN."""

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


def frac_exp(v: Laurent) -> Optional[int]:
    """Exponent of |{v}|, None when the fractional part is zero."""
    if v.prec is not None and v.prec > -1:
        raise PrecisionError("window does not reach degree -1")
    for d, _ in v.terms:
        if d < 0:
            return d
    if v.prec is not None:
        raise PrecisionError("fractional part indistinguishable from 0")
    return None


def compare_abs_leq(v_exp: Optional[int], var_exp: Optional[int], tau: Optional[int]) -> int:
    """Decide |g(x)| <= q^tau for all/no x in a cell, given |g(center)| = q^v
    and a variation bound q^var on the cell.  None exponents mean 0."""
    if tau is None:
        # condition g(x) = 0 exactly
        if v_exp is None and var_exp is None:
            return IN
        if v_exp is not None and (var_exp is None or v_exp > var_exp):
            return OUT
        return UNKNOWN
    if v_exp is None:
        return IN if (var_exp is None or var_exp <= tau) else UNKNOWN
    if var_exp is None:
        return IN if v_exp <= tau else OUT
    if v_exp <= tau and var_exp <= tau:
        return IN
    if v_exp > tau and v_exp > var_exp:
        return OUT
    return UNKNOWN


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


def _sublevel_depth(table: VarTable, ball: Ball, tau: int, resolution: Optional[int],
                    max_depth: Optional[int]) -> int:
    """Default refinement depth resolution + 4 (resolution defaulting to the
    ball's radius exponent + 4), deepened with the size of g's coefficients
    (its VarTable over the ball) so that decisions, which need the
    variation below the threshold, are scaling-invariant."""
    if max_depth is not None:
        return max_depth
    if resolution is None:
        resolution = ball.radius_exp + 4
    depth = resolution + 4
    bound = table.sup_exp
    if bound is not None and bound > tau:
        depth = max(depth, ball.radius_exp + (bound - tau) + 1)
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
    table = VarTable(g, ball)
    depth = _sublevel_depth(table, ball, tau, resolution, max_depth)
    res = measure_union([PolyAbsAtom(g, tau, table)], ball, depth)
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
    table = VarTable(g, ball)
    depth = _sublevel_depth(table, ball, strict_below(min(eps_exps, default=0)), resolution, None)
    return _certify(ball, alpha, sup_norm_on_ball(g, ball), eps_exps,
                    lambda tau: PolyAbsAtom(g, tau, table), depth)


def certify_good_max(
    polys: Sequence[MPoly], ball: Ball, alpha, eps_exps: Sequence
) -> GoodnessCertificate:
    """Goodness certificate for x -> max_i |g_i(x)| (sup of a finite family)."""
    tables = [VarTable(g, ball) for g in polys]
    return _certify(ball, alpha, sup_norm_family(polys, ball), eps_exps,
                    lambda tau: ConjAtom([PolyAbsAtom(g, tau, vt) for g, vt in zip(polys, tables)]),
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
