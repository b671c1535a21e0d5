"""Psi-approximability: witness search, Borel-Cantelli sums, and exact
finite-height measures of the approximation sets.

Every set measured here is a finite union over coefficient vectors a of
conditions of two shapes: dist(g_a(x), Lambda) < threshold (the existential
a_0 collapses to the polynomial part) and gradient-norm comparisons.  Each
(a, cell) pair is decided by ultrametric dominance of the center value over
the certified variation bound; undecided cells split.  All thresholds are
strict in the paper's sense and normalize to the next lower power of q.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .ffield import (
    Ball,
    FieldSpec,
    GridSpec,
    Laurent,
    Poly,
    enumerate_box,
    enumerate_shell,
    shell_count,
    strict_below,
)
from .cells import (
    IN,
    OUT,
    UNKNOWN,
    MapCellData,
    MeasureResult,
    SweepData,
    decide,
    in_lanes,
    measure_union,
)
from .errors import PrecisionError
from .ultracalc import AnalyticMap, row_combo

# ---------------------------------------------------------------------------
# approximating functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ApproxFn:
    """Multivariable approximating function Psi(a) = c * ||a||^-tau, or a
    per-shell table of exponents; values are powers of q.

    Power laws are automatically monotone decreasing componentwise; tables
    are validated to be nonincreasing in t.
    """

    coeff_exp: Fraction = Fraction(0)       # c = q^coeff_exp
    tau: Fraction = Fraction(0)             # decay exponent
    table: Optional[tuple] = None           # shell t -> exponent, None = Psi 0
    zero: bool = False                      # Psi identically 0

    def __post_init__(self):
        object.__setattr__(self, "coeff_exp", Fraction(self.coeff_exp))
        object.__setattr__(self, "tau", Fraction(self.tau))
        if self.table is not None:
            tb = tuple(None if v is None else Fraction(v) for v in self.table)
            object.__setattr__(self, "table", tb)
            known = [v for v in tb if v is not None]
            if any(known[i + 1] > known[i] for i in range(len(known) - 1)):
                raise ValueError("shell table must be nonincreasing")

    @classmethod
    def power_law(cls, tau, coeff_exp=0) -> "ApproxFn":
        return cls(coeff_exp=Fraction(coeff_exp), tau=Fraction(tau))

    @classmethod
    def shell_table(cls, exps: Sequence) -> "ApproxFn":
        return cls(table=tuple(None if e is None else Fraction(e) for e in exps))

    @classmethod
    def zero_fn(cls) -> "ApproxFn":
        return cls(zero=True)

    def exp_at_shell(self, t: int) -> Optional[Fraction]:
        """Exponent e with Psi(a) = q^e on the shell ||a|| = q^t (None: Psi=0)."""
        if self.zero:
            return None
        if self.table is not None:
            if t >= len(self.table):
                raise ValueError(f"shell table has no entry for t={t}")
            return self.table[t]
        return self.coeff_exp - self.tau * t

    def exp_at(self, a: Sequence[Poly]) -> Optional[Fraction]:
        t = max((p.deg for p in a if not p.is_zero), default=None)
        if t is None:
            raise ValueError("Psi is evaluated on nonzero a only")
        return self.exp_at_shell(t)

    def __str__(self) -> str:
        if self.table is not None:
            return f"table{[str(e) for e in self.table]}"
        c = "" if self.coeff_exp == 0 else f"q^{self.coeff_exp}*"
        return f"{c}q^(-{self.tau}*t)"


def psi0_exp(tvec: Sequence[int]) -> int:
    """Exponent of Psi_0(X^{t_1},..,X^{t_n}) = prod |X^{t_i}|^{-1} (c_0 = 1)."""
    return -sum(tvec)


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

@dataclass
class Witness:
    """(a, a0) certifying |f(x).a + a0 + theta(x)| < Psi(a) at a point."""

    a: tuple[Poly, ...]
    a0: Poly
    value: Laurent
    shell: int

    def verify(self, m: AnalyticMap, x: Sequence[Laurent], psi: ApproxFn) -> bool:
        z = lin_comb(m.eval_theta(x), self.a, m.eval(x))
        val = z + self.a0.to_laurent()
        bound = psi.exp_at(self.a)
        if bound is None:
            return False
        e = val.abs_exp()
        return e is None or Fraction(e) < bound


def lin_comb(acc: Laurent, a: Sequence[Poly], vals: Sequence[Laurent]) -> Laurent:
    """acc + sum a_i * vals_i over the nonzero a_i, added left to right."""
    for ai, v in zip(a, vals):
        if not ai.is_zero:
            acc = acc + ai.to_laurent() * v
    return acc


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


def grad_exp(m: AnalyticMap, a: Sequence[Poly], x: Sequence[Laurent]) -> Optional[int]:
    """Exponent of ||grad(a.f + theta)(x)||, None when the gradient is 0."""
    exps = [row_combo(a, row).eval(x).abs_exp() for row in m.partials]
    return max((e for e in exps if e is not None), default=None)


def find_witness(
    m: AnalyticMap,
    x: Sequence[Laurent],
    psi: ApproxFn,
    t: int,
) -> Optional[Witness]:
    """First witness in shell order with |f(x).a + a0 + theta| < Psi(a).

    A point is a cell with zero variation: the shell's witness atoms, one
    label, decide every a at once on the packed digit columns of f(x) and
    theta(x) (``cells.decide``), and only the witness is formed as a
    Laurent value and split into parts."""
    hit, data = _shell_hit(m, x, psi, t)
    if hit is None:
        return None
    vals = data.vals[0]
    head, tail = lin_comb(vals[-1], hit.a, vals).poly_part()
    return Witness(a=hit.a, a0=-head, value=tail, shell=t)


def _shell_hit(m: AnalyticMap, x: Sequence[Laurent], psi: ApproxFn, t: int) -> tuple:
    """(the first witness atom of shell t at x or None, the point's data)."""
    bound = psi.exp_at_shell(t)
    if bound is None:
        return None, None
    sd, live = _shell_label(m, t, strict_below(bound))
    data = MapCellData.at_point(sd, x)
    return decide(data, live)[0], data


@functools.lru_cache(maxsize=32)
def _shell_label(m: AnalyticMap, t: int, tau: int) -> tuple:
    """(SweepData, live members) of the witness atoms of shell t at
    threshold q^tau in enumerate_shell order, one a per F_q^*-orbit without
    theta (``orbit_firsts``), on one SweepData of the map, the members in
    lanes when ``cells.in_lanes`` puts them there; built once per (map, t,
    tau), so every point scan reads the same digit window."""
    sd = SweepData(m)
    atoms = [WitnessAtom(sd, a, tau) for a in orbit_firsts(m, enumerate_shell(m.spec, m.n, t))]
    return sd, in_lanes(sd, tuple(atoms))


# ---------------------------------------------------------------------------
# Borel-Cantelli sums
# ---------------------------------------------------------------------------

@dataclass
class BCSum:
    """Partial sum of sum_a Psi(a) with the power-law convergence verdict."""

    partial: Fraction
    shells: list[Fraction]
    diverges: Optional[bool]
    limit: Optional[Fraction]


def borel_cantelli_sum(psi: ApproxFn, q: int, n: int, T: int) -> BCSum:
    """sum_{t<=T} q^{tn}(q^n - 1) Psi(shell t), exact; closed form when the
    power law has integral exponents."""
    if T < 0:
        raise ValueError("T >= 0 required")
    shells = []
    total = Fraction(0)
    for t in range(T + 1):
        e = psi.exp_at_shell(t)
        if e is None:
            shells.append(Fraction(0))
            continue
        if e.denominator != 1:
            raise ValueError("non-integral exponent: partial sums not rational")
        val = Fraction(q ** int(e)) if e >= 0 else Fraction(1, q ** int(-e))
        term = shell_count(q, n, t) * val
        shells.append(term)
        total += term
    diverges = limit = None
    if psi.zero:
        diverges, limit = False, Fraction(0)
    elif psi.table is None:
        # shell terms are (q^n - 1) * c * q^{t(n - tau)}
        ratio_exp = n - psi.tau
        diverges = ratio_exp >= 0
        if not diverges and psi.coeff_exp.denominator == 1 and ratio_exp.denominator == 1:
            c = Fraction(q) ** int(psi.coeff_exp)
            r = Fraction(q) ** int(ratio_exp)
            limit = (q**n - 1) * c / (1 - r)
    return BCSum(partial=total, shells=shells, diverges=diverges, limit=limit)


# ---------------------------------------------------------------------------
# cell-sweep atoms specialized to a.f + theta combos
# ---------------------------------------------------------------------------

class WitnessAtom:
    """Cell condition: dist(a.f(x)+theta, Lambda) <= q^tau, optionally
    conjoined with gradient-norm constraints on grad(a.f + theta); theta is
    the sweep map's (none when the map has none).

    grad_lower: require ||grad|| >= q^grad_lower (Fraction exponent);
    grad_upper_tau: require ||grad|| <= q^grad_upper_tau (already strict-
    normalized to an integer).

    Every condition asks whether a packed sum of the parts of a.f (+theta)
    has a nonzero digit at or above one degree: the value condition in row
    0 at a degree from max(tau, var) + 1 to -1, the gradient conditions per
    partial d_j in row 1+j at a degree of at least max(var + 1,
    ceil(grad_lower)), or above max(grad_upper_tau, var).

    A witness atom decides a whole label of witness atoms on its SweepData
    (``decides_labels``): ``status`` reads the live members as lanes of one
    packed integer, or a few of them in one loop (``cells.decide``), and a
    member alone is the call with live = (member,).

    A condition IN on a cell is IN on every subcell, and reading it there
    raises no PrecisionError: the subcell's variation var' is at most the
    cell's var; the digits above var are the same at every point of the
    cell; and a horizon can grow at the subcell's center only through a
    coordinate 0 at the cell's center, to at most var (that monomial's
    variation on the cell bounds it).  The value condition is IN with var
    <= tau and its window [tau + 1, -1] zero above a horizon <= tau + 1;
    ||grad|| >= q^L is IN on a nonzero digit of some d_j at a degree above
    var and its horizon; ||grad|| <= q^tau is IN with var <= tau and no
    nonzero digit from tau + 1 up, above a horizon <= tau + 1.  Each reads
    only degrees above var, so the subcell reads the same digits, above its
    horizon.  A member UNKNOWN on a cell with its value condition or its
    gradient conditions IN passes to the subcells as its ``narrowed`` form.
    """

    decides_labels = True

    __slots__ = ("sd", "a", "tau", "grad_lower", "grad_upper_tau", "lower_deg", "parts",
                 "forms")

    def __init__(self, sd: SweepData, a, tau: int, grad_lower=None, grad_upper_tau=None):
        self.sd = sd
        self.a = tuple(a)
        self.tau = tau
        self.grad_lower = None if grad_lower is None else Fraction(grad_lower)
        self.grad_upper_tau = grad_upper_tau
        # ||grad|| >= q^L iff some |d_j| >= q^ceil(L): exponents are integers
        self.lower_deg = None if grad_lower is None else math.ceil(self.grad_lower)
        self.parts = sd.register(self.a, 0, tau + 1) if tau < -1 else ()
        reads = [] if grad_upper_tau is None else [grad_upper_tau + 1]
        if self.lower_deg is not None:
            reads.append(self.lower_deg)
        if reads:  # the same part ids as the value registration's
            self.parts = sd.register(self.a, 1, min(reads))
        self.forms = None

    def narrowed(self, value_in: bool) -> "WitnessAtom":
        """This member without its value condition (value_in) or without
        its gradient conditions: the same a, parts and other conditions,
        made once per member and side.  It holds no reference back to this
        member (that would be a cycle only the cyclic collector frees)."""
        forms = self.forms
        if forms is None:
            forms = self.forms = [None, None]
        got = forms[value_in]
        if got is None:
            got = forms[value_in] = object.__new__(WitnessAtom)
            got.sd, got.a, got.parts, got.forms = self.sd, self.a, self.parts, None
            got.tau = -1 if value_in else self.tau  # tau >= -1: no value condition
            got.grad_lower, got.grad_upper_tau, got.lower_deg = (
                (self.grad_lower, self.grad_upper_tau, self.lower_deg) if value_in
                else (None, None, None))
        return got

    def status(self, cell: Ball, ctx: dict, live: Sequence["WitnessAtom"]) -> tuple:
        """(is_in, survivors) of the live members of a label on the cell
        (``cells.decide``): IN at the first member IN, else the UNKNOWN
        ones."""
        hit, rest = decide(MapCellData.of(self.sd, cell, ctx), live)
        return hit is not None, rest

    def _grad_status(self, data: MapCellData) -> int:
        """Status of the gradient conditions, per partial d_j of a.f
        (+theta) with variation q^var: ||grad|| >= q^L is IN when some d_j
        has a nonzero digit at a degree >= max(var + 1, ceil L), and
        otherwise UNKNOWN when some var >= ceil L; ||grad|| <= q^tau is OUT
        when some d_j has a nonzero digit at a degree > max(tau, var), and
        otherwise UNKNOWN when some var > tau."""
        rows = [data.packed_sum(self.parts, row) for row in range(1, len(self.sd.rows))]
        top = self.sd.top_digit
        out = IN
        lower, tau = self.lower_deg, self.grad_upper_tau
        if lower is not None and all(top(val, max(var + 1, lower), prec, 1) is None
                                     for val, var, prec in rows):
            if all(var < lower for _, var, _ in rows):
                return OUT
            out = UNKNOWN
        if tau is not None:
            if any(top(val, max(var, tau) + 1, prec, 1) is not None for val, var, prec in rows):
                return OUT
            if any(var > tau for _, var, _ in rows):
                out = UNKNOWN
        return out



def orbit_firsts(m: AnalyticMap, vectors) -> Iterator:
    """The a of ``vectors`` a sweep of m evaluates: every a with theta, else
    (c.a for c in F_q^* has a nonzero digit where a has one) the a with a
    monic first nonzero coordinate, its orbit's first in encoding order."""
    return (a for a in vectors
            if m.theta is not None or next((ai.coeffs[-1] for ai in a if ai.coeffs), 1) == 1)


# ---------------------------------------------------------------------------
# exact measures of the headline sets
# ---------------------------------------------------------------------------

@dataclass
class SweepReport:
    """Union measure plus per-shell tallies for a shell-range sweep; the
    union is labelled by shell, so every sub-range reads off it."""

    union: MeasureResult
    per_shell: dict[int, MeasureResult]
    domain_measure: Fraction

    @property
    def certified(self) -> bool:
        return self.union.certified and all(r.certified for r in self.per_shell.values())

    def interval(self, lo: int, hi: int) -> MeasureResult:
        """The union over the shells lo..hi, from the same sweep."""
        return self.union.restrict(range(lo, hi + 1))


def _witness_depth(grid: GridSpec, shells: Sequence[int], taus: Sequence[int]) -> int:
    """Depth at which every (a, cell) pair is decidable: variation below
    min(1/q, threshold) for the largest shell."""
    worst = max((t - min(tau, -1) for t, tau in zip(shells, taus)), default=0)
    return max(grid.N, grid.resolved_domain.radius_exp + worst + 1)


def measure_W(
    m: AnalyticMap,
    psi: ApproxFn,
    t0: int,
    t1: int,
    grid: GridSpec,
) -> SweepReport:
    """Exact measure of {x : some a with ||a|| in [q^t0, q^t1] has a witness}.

    One sweep with the atoms labelled by shell gives the union measure, the
    per-shell hit measures and the union over every sub-range of shells.
    """
    if t0 > t1:
        raise ValueError("need t0 <= t1")
    shells = list(range(t0, t1 + 1))
    exps = [psi.exp_at_shell(t) for t in shells]
    taus = [None if e is None else strict_below(e) for e in exps]
    live = [(t, tau) for t, tau in zip(shells, taus) if tau is not None]
    depth = _witness_depth(grid, [t for t, _ in live], [tau for _, tau in live])
    dom = grid.resolved_domain
    sd = SweepData(m, dom)
    atoms: list = []
    labels: list[int] = []
    for t, tau in live:  # a shell with tau >= -1 holds every point: its
        # first atom, IN on every cell, stands for the shell
        shell = orbit_firsts(m, enumerate_shell(m.spec, m.n, t))
        shell_atoms = [WitnessAtom(sd, a, tau)
                       for a in itertools.islice(shell, None if tau < -1 else 1)]
        atoms.extend(shell_atoms)
        labels.extend([t] * len(shell_atoms))
    union = measure_union(atoms, dom, depth, labels)
    per_shell = {t: union.restrict([t]) for t in shells}
    return SweepReport(union=union, per_shell=per_shell, domain_measure=dom.measure())


def enumerate_exact_degrees(spec: FieldSpec, tvec: Sequence[int]) -> Iterator[tuple[Poly, ...]]:
    """All a with |a_i| = q^{t_i} exactly for every i."""
    opts = []
    for t in tvec:
        polys = [
            Poly(spec, list(lo) + [lead])
            for lead in range(1, spec.q)
            for lo in itertools.product(range(spec.q), repeat=t)
        ]
        opts.append(polys)
    return itertools.product(*opts)


def measure_bigA(
    m: AnalyticMap,
    delta_exps: Sequence[int],
    tvecs: Sequence[Sequence[int]],
    eps: Fraction,
    grid: GridSpec,
    max_depth: Optional[int] = None,
) -> list[tuple[MeasureResult, Fraction]]:
    """Exact measures of the big-gradient sets A(delta) (A_theta when the
    map has a theta) over the given coordinate-degree vectors, one per
    delta = q^delta_exp, each with its ratio measure/(delta |U|).

    Per a with |a_i| = q^{t_i}: |f.a + theta + a_0| < delta q^{-sum t_i}
    and ||grad(f.a + theta)|| >= ||a||^{1-eps}.  One sweep with the atoms
    labelled by delta, to the depth the smallest delta needs, gives every
    set.
    """
    eps = Fraction(eps)
    if not (0 < eps < Fraction(1, 2)):
        raise ValueError("need 0 < eps < 1/2")
    dom = grid.resolved_domain
    sd = SweepData(m, dom)
    boxes = [(max(tvec), sum(tvec), list(orbit_firsts(m, enumerate_exact_degrees(m.spec, tvec))))
             for tvec in tvecs]
    atoms, labels, tmaxes, taus = [], [], [], []
    for de in delta_exps:
        for tmax, tsum, box in boxes:
            tau = strict_below(de - tsum)
            tmaxes.append(tmax)
            taus.append(tau)
            glower = Fraction(tmax) * (1 - eps)
            atoms += [WitnessAtom(sd, a, tau, grad_lower=glower) for a in box]
            labels += [de] * len(box)
    depth = max_depth if max_depth is not None else _witness_depth(grid, tmaxes, taus)
    union = measure_union(atoms, dom, depth, labels)
    out = []
    for de in delta_exps:
        res = union.restrict([de])
        out.append((res, res.included / (Fraction(m.spec.q) ** de * dom.measure())))
    return out


def smallgrad_atoms(sd: SweepData, bounds: Sequence[int], tau_val: int, tau_grad: int) -> list:
    """Atoms of a small-gradient box: per nonzero a with deg a_i <=
    bounds[i] (one per F_q^*-orbit without theta), |f.a + a_0| <= q^tau_val
    and ||grad(f.a)|| <= q^tau_grad."""
    return [WitnessAtom(sd, a, tau_val, grad_upper_tau=tau_grad)
            for a in orbit_firsts(sd.m, enumerate_box(sd.m.spec, bounds))
            if not all(p.is_zero for p in a)]


def measure_smallgrad_S(
    m: AnalyticMap,
    t: int,
    t_prime: int,
    tvec: Sequence[int],
    B: Ball,
    max_depth: Optional[int] = None,
) -> tuple[MeasureResult, Fraction]:
    """Exact measure of S(t,t',t_1..t_n) ∩ B and the theorem's epsilon.

    Hypotheses: t >= 0, t_i >= 1, t' + sum t_i - t - max t_i < 0.
    """
    tvec = tuple(tvec)
    n = len(tvec)
    gap = t_prime + sum(tvec) - t - max(tvec)
    if t < 0 or any(ti < 1 for ti in tvec) or gap >= 0:
        raise ValueError("small-gradient hypotheses violated")
    eps_theory = max(Fraction(-t), Fraction(gap, n + 1))
    atoms = smallgrad_atoms(SweepData(m.homogeneous, B), [ti - 1 for ti in tvec],
                            strict_below(-t), strict_below(t_prime))
    depth = max_depth if max_depth is not None else B.radius_exp + max(tvec) + t + 2
    res = measure_union(atoms, B, depth)
    return res, eps_theory


def in_smallgrad_S_point(
    m: AnalyticMap, x: Sequence[Laurent], t: int, t_prime: int, tvec: Sequence[int]
) -> bool:
    """Pointwise membership in S(t,t',t_i): exhaustive over the a-box."""
    fx = m.eval(x)
    dfx = [[g.eval(x) for g in row[:-1]] for row in m.partials]
    zero = Laurent.zero(m.spec)
    for a in enumerate_box(m.spec, [ti - 1 for ti in tvec]):
        if all(p.is_zero for p in a):
            continue
        e = frac_exp(lin_comb(zero, a, fx))
        if e is not None and e >= -t:
            continue
        exps = (lin_comb(zero, a, row).abs_exp() for row in dfx)
        if all(ge is None or ge < t_prime for ge in exps):
            return True
    return False


def measure_phi_f(
    m: AnalyticMap,
    t: int,
    delta_exp: int,
    B: Ball,
) -> MeasureResult:
    """Exact measure of Phi^f(t, delta) ∩ B: some ||a|| = q^t with
    |f(x).a + a_0| < delta q^{-nt}, the homogeneous W-set on shell t for
    Psi(a) = delta ||a||^-n."""
    if t < 1 or delta_exp >= 0:
        raise ValueError("need t >= 1 and 0 < delta < 1")
    psi = ApproxFn.power_law(m.n, delta_exp)
    return measure_W(m.homogeneous, psi, t, t, GridSpec(m.spec, m.d, B.radius_exp, B)).union


def in_phi_f_point(m: AnalyticMap, x: Sequence[Laurent], t: int, delta_exp: int) -> bool:
    """Pointwise membership in Phi^f(t, delta)."""
    return _shell_hit(m.homogeneous, x, ApproxFn.power_law(m.n, delta_exp), t)[0] is not None


# ---------------------------------------------------------------------------
# transference sets I_t / H_t
# ---------------------------------------------------------------------------

def in_I_t(
    m: AnalyticMap,
    x: Sequence[Laurent],
    alpha: tuple[Poly, Sequence[Poly]],
    tvec: Sequence[int],
    lam_exp: Fraction,
    eps: Fraction,
) -> bool:
    """x in I_t(alpha, lambda): inhomogeneous system with max{1,|a_i|} <= q^{t_i}."""
    a0, a = alpha
    if a0.is_zero and all(p.is_zero for p in a):
        raise ValueError("alpha = 0 is excluded from the index set")
    if any(not p.is_zero and p.deg > ti for p, ti in zip(a, tvec)):
        return False
    lam_exp = Fraction(lam_exp)
    val = lin_comb(m.eval_theta(x), a, m.eval(x)) + a0.to_laurent()
    e = val.abs_exp()
    if e is not None and Fraction(e) >= lam_exp + psi0_exp(tvec):
        return False
    ge = grad_exp(m, a, x)
    return ge is None or Fraction(ge) < lam_exp + max(tvec) * (1 - Fraction(eps))


def in_H_t(
    m: AnalyticMap,
    x: Sequence[Laurent],
    alpha: tuple[Poly, Sequence[Poly]],
    tvec: Sequence[int],
    lam_exp: Fraction,
    eps: Fraction,
) -> bool:
    """x in H_t(alpha, lambda): I_t of the map without theta."""
    return in_I_t(m.homogeneous, x, alpha, tvec, lam_exp, eps)


def phi_delta_exp(delta: Fraction, tvec: Sequence[int]) -> Fraction:
    """Exponent of phi_delta(t) = q^{delta |t|}, |t| = max t_i."""
    return Fraction(delta) * max(tvec)


# the gradient-split parameter of classify_gradient (any 0 < eps < 1/2 works)
GRAD_EPS_DEFAULT = Fraction(1, 4)


def classify_gradient(
    m: AnalyticMap,
    a: Sequence[Poly],
    x: Sequence[Laurent],
) -> str:
    """'large' iff ||grad(f.a + theta)(x)|| >= ||a||^(1 - eps) with eps =
    GRAD_EPS_DEFAULT, else 'small'."""
    t = max((p.deg for p in a if not p.is_zero), default=None)
    if t is None:
        raise ValueError("the split needs a nonzero a")
    ge = grad_exp(m, a, x)
    if ge is None:
        return "small"
    return "large" if Fraction(ge) >= Fraction(t) * (1 - GRAD_EPS_DEFAULT) else "small"
