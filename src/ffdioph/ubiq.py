"""Constructive divergence machinery: resonant sets, ultrametric Newton
roots, the short-vector witness construction with its three verifiable
claims, covering fractions of resonant neighborhoods, and divergence sums.

The resonant family consists of functions g = a_0 + a_1 f_1 + ... + a_n f_n;
near a point x that is not resonance-rich (x outside Phi^f(t, delta)) the
construction produces such a g whose zero set passes within an explicit
distance of x, with the first partial derivative dominating the gradient on
a fixed ball.  Every claimed inequality is re-verified with exact
arithmetic; nothing is trusted from the derivation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import PrecisionError
from .ffield import (
    AbsValue,
    Ball,
    GridSpec,
    Laurent,
    Poly,
    cofactor_det,
    enumerate_box,
    enumerate_polys,
    shell_count,
    strict_below,
)
from .cells import IN, OUT, UNKNOWN, MapCellData, SweepData, measure_union
from .dioph import ApproxFn, Witness, in_phi_f_point, lin_comb
from .latdyn import reduce_lattice
from .ultracalc import AnalyticMap, MPoly, VarTable, row_combo

# ---------------------------------------------------------------------------
# ultrametric Newton
# ---------------------------------------------------------------------------

def _upoly_eval(coeffs: Sequence[Laurent], x: Laurent) -> Laurent:
    spec = coeffs[0].spec
    acc = Laurent.zero(spec)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _linear_radius(h: Sequence[Laurent]) -> Optional[int]:
    """The exponent r of |h_0|/|h_1| for the coefficients h (ascending, at
    the seed) of a polynomial with h_0 != 0, None when h_0 has no known
    digit.  ValueError unless |h_0| < |h_1|^2 and every |h_k| q^(kr), k >= 2,
    is below |h_0|: then the linear term decides h on |eta| <= q^r, and the
    root nearest the seed lies at distance q^r (Hensel's condition alone
    suffices only when every |h_k| <= 1)."""
    h0, h1 = h[0], (h[1] if len(h) > 1 else Laurent.zero(h[0].spec))
    if not h1.terms or (h0.terms and h0.top_deg >= 2 * h1.top_deg):
        raise ValueError("Hensel condition |h(seed)| < |h'(seed)|^2 fails")
    if not h0.terms:
        return None
    r = h0.top_deg - h1.top_deg
    if any(not hk.is_zero and (hk.terms[0][0] if hk.terms else hk.prec - 1) + k * r >= h0.top_deg
           for k, hk in enumerate(h) if k >= 2):
        raise ValueError("a term of order >= 2 reaches |h(seed)| within |h(seed)|/|h'(seed)|")
    return r


def newton_root_1d(
    h: Sequence[Laurent],
    prec: int,
    seed: Optional[Laurent] = None,
) -> Laurent:
    """A root of the univariate polynomial h (coefficients ascending) with
    |h(root)| <= q^(-prec), by Newton iteration from the seed.

    Requires, for h(seed + eta) = sum_k h_k eta^k, the Hensel condition
    |h_0| < |h_1|^2 and |h_k| r^k < |h_0| for k >= 2, r = |h_0|/|h_1|
    (``_linear_radius``), else ValueError; the returned root satisfies
    |root - s| = r (or root = s when h(s) = 0), the standard ultrametric
    Newton contract.  Raises PrecisionError after 64 iterations.
    """
    spec = h[0].spec
    if seed is None:
        seed = Laurent.zero(spec)
    deriv = [c.scale(k % spec.p) for k, c in enumerate(h) if k >= 1]
    x = seed
    at = list(h)  # the coefficients at the seed (Taylor shift)
    if not seed.is_zero:
        for k in range(len(at) - 1):
            for i in range(len(at) - 2, k - 1, -1):
                at[i] = at[i] + seed * at[i + 1]
    if at[0].is_zero:
        return x
    _linear_radius(at)
    for _ in range(64):
        hv = _upoly_eval(h, x)
        if not hv.terms:
            return x
        if hv.top_deg <= -prec:
            return x
        dv = _upoly_eval(deriv, x)
        step = hv.div_to_floor(dv, hv.top_deg - dv.top_deg - 2 * prec - 8)
        x = x - step
    raise PrecisionError("Newton iteration did not reach the target precision")


# ---------------------------------------------------------------------------
# resonant functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResonantFn:
    """g = a_0 + a_1 f_1 + ... + a_n f_n from the family F_n."""

    m: AnalyticMap
    a0: Poly
    a: tuple[Poly, ...]

    def __post_init__(self):
        if self.a0.is_zero and all(p.is_zero for p in self.a):
            raise ValueError("the zero tuple is not in F_n")

    @cached_property
    def with_theta(self) -> MPoly:
        """G = g + theta as an MPoly, built once per function."""
        return self.m.combo(self.a, self.a0)

    @cached_property
    def partials(self) -> tuple[MPoly, ...]:
        """d_j G = sum_i a_i d_j f_i + d_j theta for j = 1..d, from the map's
        cached partials."""
        return tuple(row_combo(self.a, row) for row in self.m.partials)

    def a_norm_exp(self) -> Optional[int]:
        """Exponent of ||(a_1..a_n)||, None when the f-part vanishes."""
        degs = [p.deg for p in self.a if not p.is_zero]
        return max(degs) if degs else None

    def beta_exp(self, k0_exp: int) -> int:
        e = self.a_norm_exp()
        if e is None:
            raise ValueError("beta undefined for constant resonant functions")
        return k0_exp + e


@dataclass(frozen=True)
class UbiquityParams:
    """The scale data of the ubiquitous system built at contraction delta.

    t' is determined by q^-t' <= delta < q^-(t'-1); k_0 = q^-(nt'+1) weights
    the resonant family, rho(r) = k_1 r^-(n+1) with k_1 = q^-nt'.
    gamma = d - 1 is the common dimension.
    """

    n: int
    d: int
    t_prime: int

    @classmethod
    def from_delta(cls, delta_exp: int, n: int, d: int):
        if delta_exp >= 0:
            raise ValueError("need 0 < delta < 1")
        return cls(n=n, d=d, t_prime=-delta_exp)

    @property
    def k0_exp(self) -> int:
        return -(self.n * self.t_prime + 1)

    @property
    def k1_exp(self) -> int:
        return -self.n * self.t_prime

    @property
    def gamma(self) -> int:
        return self.d - 1

    def rho_exp(self, t: int) -> int:
        """Exponent of rho(q^t) = k_1 q^{-t(n+1)}."""
        return self.k1_exp - t * (self.n + 1)

    def rho_decay_ok(self) -> bool:
        """The ubiquity hypothesis rho(q^{t+1}) <= lambda rho(q^t) for some
        lambda < 1.  rho_exp is affine in t, so its step at t = 0 is its step
        everywhere; with lambda = q^-(n+1) the inequality holds with equality."""
        return self.rho_exp(1) - self.rho_exp(0) < 0


# ---------------------------------------------------------------------------
# the gate |d1(g+theta)| > lambda ||grad(g+theta)||
# ---------------------------------------------------------------------------

def resonant_gate(g: ResonantFn, U0: Ball) -> bool:
    """Certify |d1(g+theta)(x)| > (1/q - 1/q^2) ||grad(g+theta)(x)|| on U0.

    On the discrete value group the condition is |d1| >= ||grad||/q
    pointwise.  Certified by dominance of center values over variation
    bounds, refining undecided cells down to radius q^-(r+24) for U0 of
    radius q^-r.
    """
    if U0.radius_exp < 2:
        raise ValueError("gate domain needs diam <= 1/q^2 (radius_exp >= 2)")
    stack = [U0]
    while stack:
        cell = stack.pop()
        decided = _gate_cell(g.partials, cell)
        if decided == OUT:
            return False
        if decided == IN:
            continue
        if cell.radius_exp >= U0.radius_exp + 24:
            raise PrecisionError("gate certification exceeded the depth budget")
        stack.extend(cell.subdivide())
    return True


def _gate_cell(partials: Sequence[MPoly], cell: Ball) -> int:
    vals = []
    for p in partials:
        vt = VarTable(p, cell)
        v_exp = vt.center_exp
        var = vt.var_exp(cell.radius_exp)
        if var is not None and (v_exp is None or v_exp <= var):
            return UNKNOWN
        vals.append(v_exp)
    d1 = vals[0]
    rest = [v for v in vals if v is not None]
    if not rest:
        return OUT  # gradient identically dominated: 0 > lambda*0 is false
    top = max(rest)
    if d1 is None:
        return OUT
    return IN if d1 >= top - 1 else OUT


# ---------------------------------------------------------------------------
# distance to a resonant set (first-axis surrogate)
# ---------------------------------------------------------------------------

@dataclass
class ResonantDistance:
    dist: AbsValue


def dist_to_resonant(x: Sequence[Laurent], g: ResonantFn) -> ResonantDistance:
    """||x - x_eta|| for the axis root x_eta = (x_1 + eta, x_2..x_d) of g+theta.

    With h(eta) = (g+theta)(x + eta e_1) = sum_k h_k eta^k, the root nearest
    0 has |eta| = r = |h_0|/|h_1| when |h_0| < |h_1|^2 (the Hensel condition
    ``newton_root_1d`` checks) and every |h_k| r^k, k >= 2, is below |h_0|
    (the linear term then decides h on |eta| <= r); eta = 0 when h_0 is 0
    or indistinguishable from 0.  ValueError when a condition fails.
    """
    rec = g.with_theta.recenter(x)
    axis = (0,) * (g.m.d - 1)
    h = {mono[0]: c for mono, c in rec.terms.items() if mono[1:] == axis}
    zero = Laurent.zero(g.m.spec)
    if h.get(0, zero).is_zero:
        return ResonantDistance(AbsValue.zero())
    # AbsValue(None) is 0: h_0 indistinguishable from 0
    return ResonantDistance(AbsValue(_linear_radius([h.get(k, zero) for k in range(max(h) + 1)])))


class ResonantDistAtom:
    """Cell atom for dist(x, R_g) <= q^tau along the first axis, on cells of
    radius down to q^-max_depth.

    Pointwise, dist(x) = |G(x)| / |d1 G(x)| with G = g + theta, valid when
    the order >= 2 terms are dominated (checked exactly per cell); the
    condition becomes a sublevel condition on G at threshold tau + |d1 G|.
    |d1 G(c)| and |G(c)| are the top nonzero digits of packed sums of the
    cell's columns: row 1, and row 0 plus a0.  d1 G is read down to its
    variation + 1, below which |d1 G| is undecided, and G down to
    tau + |d1 G| + 1, below which the decision does not depend on the
    digits; both floors are lowest at the variation of d1 G at radius
    q^-max_depth.  A constant d1 G is read down to its exact top digit.
    """

    __slots__ = ("g", "tau", "sd", "sec", "floor", "parts", "a0")

    def __init__(self, g: ResonantFn, tau: int, sd: SweepData, max_depth: int):
        self.g = g
        self.tau = tau
        self.sd = sd
        # weight >= 2 coefficient bounds for G recentered anywhere in the domain
        tables = sd.row_tables(0)
        parts = [(vt, ai.deg) for ai, vt in zip(g.a, tables) if not ai.is_zero]
        self.sec = VarTable.fold(parts + [(tables[-1], 0)], min_weight=2)
        # the lowest degree a cell reads of d1 G, None when d1 G vanishes
        tables = sd.row_tables(1)
        exps = [(vt.var_exp(max_depth), ai.deg) for ai, vt in zip(g.a, tables) if not ai.is_zero]
        exps.append((tables[-1].var_exp(max_depth), 0))
        var1 = max((v + k for v, k in exps if v is not None), default=None)
        if var1 is not None:
            self.floor = var1 + 1
        else:  # d1 G is a constant c: read down to its top digit, or below
            # its window when no digit of it is known, where the read raises
            c = g.partials[0].terms.get((0,) * g.m.d)
            self.floor = None if c is None else c.top_deg if c.terms else c.prec - 1
        self.a0 = None  # a0 in row 0's columns, packed at the first read
        if self.floor is not None:
            sd.register(g.a, 1, self.floor)
            self.parts = sd.register(g.a, 0, tau + self.floor + 1)

    def status(self, cell: Ball, ctx: dict) -> int:
        if self.floor is None:
            return UNKNOWN
        sd = self.sd
        data = MapCellData.of(sd, cell, ctx)
        val, var, prec = data.packed_sum(self.parts, 1)
        g1 = sd.top_digit(val, max(var + 1, self.floor), prec, 1)
        if g1 is None:
            return UNKNOWN  # |d1 G| does not dominate its variation
        thr = self.tau + g1
        if self.a0 is None:
            self.a0 = sd.pack(self.g.a0)
        val, vvar, prec = data.packed_sum(self.parts, 0)
        v = sd.top_digit(val + self.a0, thr + 1, prec, 0)
        # the order >= 2 aggregate of G at joint displacement scale
        # q^max(tau, -r) around any cell point
        sec = self.sec.var_exp(min(-self.tau, cell.radius_exp))
        if v is not None:
            # |G| = q^v > q^thr; when it is constant on the cell, no root
            # lies within q^tau of any x iff order >= 2 cannot fake one: a
            # term as large as |G| could cancel it
            if v > vvar and (sec is None or sec < v):
                return OUT
            return UNKNOWN
        # |G| <= q^thr on the cell once its variation is: a root lies within
        # |G|/|d1 G| <= q^tau of every x (Hensel), once the order >= 2 terms
        # stay below |d1 G| q^tau there
        if vvar <= thr and (sec is None or sec < thr):
            return IN
        return UNKNOWN


# ---------------------------------------------------------------------------
# the witness construction (short vectors -> linear solve -> rounding)
# ---------------------------------------------------------------------------

@dataclass
class ResonantBuild:
    """A resonant function g built near x, with its derivation: the reduced
    basis sorted by norm, the solved coordinates eta, their polynomial
    parts and the audit of the short-vector bounds."""

    g: ResonantFn
    short_basis: list
    eta: list[Laurent]
    rounded: list[Poly]
    minima_exps: list[int]
    audit: dict


@dataclass
class WitnessConstruction(ResonantBuild):
    """A ResonantBuild with its three claims checked at x."""

    U0: Ball
    b1: bool
    b2: bool
    b3: bool
    beta_exp: int
    dist: AbsValue
    rho_exp: int

    @property
    def all_ok(self) -> bool:
        return self.b1 and self.b2 and self.b3


def minkowski_columns(m: AnalyticMap, x: Sequence[Laurent], t: int) -> list:
    """Columns of the lattice whose unit ball is the strict body
    {|a_0 + a.f(x)| < q^{-nt}, |a_i| <= q^t} (first row scaled by X^{nt+1})."""
    n, zero = m.n, Laurent.zero(m.spec)
    cols = [(Laurent.X(m.spec, n * t + 1),) + (zero,) * n]
    for i, v in enumerate(m.eval(x)):
        cols.append((v.shift(n * t + 1),) + tuple(Laurent.X(m.spec, -t) if j == i else zero
                                                   for j in range(n)))
    return cols


def cell_containing(x: Sequence[Laurent], radius_exp: int) -> Ball:
    """The ball of the given radius exponent whose center truncates x."""
    center = []
    for z in x:
        kept = [(dd, c) for dd, c in z.terms if dd > -radius_exp]
        center.append(Laurent(z.spec, kept, None))
    return Ball(tuple(center), radius_exp)


def build_resonant_fn(
    m: AnalyticMap,
    x: Sequence[Laurent],
    t: int,
    delta_exp: int,
    params: UbiquityParams,
) -> ResonantBuild:
    """The g in F_n of the construction at x: short vectors of the Minkowski
    lattice, the linear solve, and the rounding of its solution.

    Raises AssertionError when the short-vector bounds fail although
    lambda_1 > delta, and ValueError when the linear system is singular or
    the rounding gives the zero tuple.
    """
    spec = m.spec
    n = m.n
    t_prime = params.t_prime
    red = reduce_lattice(minkowski_columns(m, x, t))
    minima = red.minima_exps
    # Finite-height reality: x outside Phi^f does not force lambda_1 > delta
    # at degenerate centers.  The construction proceeds regardless and the
    # three claims are verified directly; the gap is recorded in the audit.
    short_gap_ok = minima[0] > delta_exp
    basis = red.by_norm()  # the g_j: the reduced basis sorted by norm
    gs = [coefs for _, coefs, _ in basis]  # each: (a_{j,0}, a_{j,1}..a_{j,n})
    # the g_j(x): row 0 of a reduced column is g_j(x) X^(nt+1)
    gx = [col[0].shift(-(n * t + 1)) for col, _, _ in basis]

    # audit of the short-vector bounds (the g_j estimates); they are
    # theorems only when the short-vector gap holds
    audit: dict = {
        "g_j": [],
        "minima_exps": minima,
        "short_gap_ok": short_gap_ok,
        "bounds_ok": True,
    }
    bound_val = n * t_prime - n * t
    bound_coef = n * t_prime + t
    for coefs, gv in zip(gs, gx):
        ge = gv.abs_exp()
        ce = max((p.deg for p in coefs[1:] if not p.is_zero), default=None)
        audit["g_j"].append({"value_exp": ge, "coef_exp": ce})
        if (ge is not None and ge > bound_val) or (ce is not None and ce > bound_coef):
            audit["bounds_ok"] = False
    if short_gap_ok and not audit["bounds_ok"]:
        raise AssertionError("short-vector bounds violated despite lambda_1 > delta")

    # the linear system: rows g_j(x); d1 g_j(x); a_{j,i} for i = 2..n
    theta_x = m.eval_theta(x)
    *d1fx, d1_theta_x = (g.eval(x) for g in m.partials[0])
    rhs_main = Laurent.X(spec, n * t_prime + t + 1)
    rows = [tuple(gx)]
    rhs = [-theta_x]
    rows.append(tuple(lin_comb(Laurent.zero(spec), cf[1:], d1fx) for cf in gs))
    rhs.append(rhs_main - d1_theta_x)
    for i in range(2, n + 1):
        rows.append(tuple(cf[i].to_laurent() for cf in gs))
        rhs.append(Laurent.zero(spec))
    eta = _solve_laurent(rows, rhs, floor_deg=-4)
    rounded = [e.poly_part()[0] for e in eta]

    a_out = [Poly.zero(spec) for _ in range(n + 1)]
    for r_i, coefs in zip(rounded, gs):
        if r_i.is_zero:
            continue
        for k in range(n + 1):
            a_out[k] = a_out[k] + r_i * coefs[k]
    g = ResonantFn(m=m, a0=a_out[0], a=tuple(a_out[1:]))
    return ResonantBuild(g=g, short_basis=basis, eta=eta, rounded=rounded,
                         minima_exps=minima, audit=audit)


def construct_resonant_witness(
    m: AnalyticMap,
    x: Sequence[Laurent],
    t: int,
    delta_exp: int,
    params: Optional[UbiquityParams] = None,
    check_phi: bool = True,
) -> WitnessConstruction:
    """Build g in F_n (build_resonant_fn) with the three claims verified
    computationally:

    (B1) |d1(g+theta)| > (1/q - 1/q^2) ||grad(g+theta)|| on U0,
    (B2) k0* q^t < beta_g <= q^t,
    (B3) x lies within rho(q^t) of the resonant set R_g.

    Raises if x is resonance-rich (x in Phi^f(t, delta), or the Minkowski
    body has a vector shorter than delta).
    """
    if params is None:
        params = UbiquityParams.from_delta(delta_exp, m.n, m.d)
    if check_phi and in_phi_f_point(m, x, t, delta_exp):
        raise ValueError("x is in Phi^f(t, delta): construction hypothesis fails")
    built = build_resonant_fn(m, x, t, delta_exp, params)
    g = built.g
    U0 = cell_containing(x, 2)
    b1 = resonant_gate(g, U0)
    beta = g.beta_exp(params.k0_exp)
    b2 = (t - 1) < beta <= t
    res = dist_to_resonant(x, g)
    rho = params.rho_exp(t)
    b3 = res.dist < AbsValue(rho)
    built.audit["d1_exp"] = g.partials[0].eval(x).abs_exp()
    built.audit["value_exp"] = g.with_theta.eval(x).abs_exp()
    return WitnessConstruction(**vars(built), U0=U0, b1=b1, b2=b2, b3=b3,
                               beta_exp=beta, dist=res.dist, rho_exp=rho)


def _solve_laurent(rows, rhs, floor_deg: int) -> list[Laurent]:
    """Solve the square Laurent system (k >= 2) by Cramer's rule, each
    quotient expanded down to floor_deg.  One set of cofactors C_ij serves
    every determinant: those of the rows i with rhs_i != 0 (row 0 when
    there is none), each a minor by ``cofactor_det``.  The determinant is
    the expansion along the first of those rows, and the numerator of
    unknown j, the determinant with column j replaced by rhs, is
    sum_i rhs_i C_ij."""
    k = len(rows)
    zero = Laurent.zero(rows[0][0].spec)
    live = [i for i, b in enumerate(rhs) if not b.is_zero] or [0]
    cof = {}
    for i in live:
        others = rows[:i] + rows[i + 1:]
        for j in range(k):
            c = cofactor_det([r[:j] + r[j + 1:] for r in others], zero)
            cof[i, j] = -c if (i + j) % 2 else c
    det = zero
    for j, a in enumerate(rows[live[0]]):
        if not a.is_zero:
            det = det + a * cof[live[0], j]
    if not det.terms:
        raise ValueError("singular system (or undecidable at this precision)")
    sols = []
    for j in range(k):
        num = zero
        for i in live:
            num = num + rhs[i] * cof[i, j]
        sols.append(num.div_to_floor(det, floor_deg))
    return sols


# ---------------------------------------------------------------------------
# the family F_n, covering fractions and Lambda(phi) hits
# ---------------------------------------------------------------------------

def enumerate_family(
    m: AnalyticMap,
    params: UbiquityParams,
    t: int,
    budget: int = 200_000,
) -> Optional[list[ResonantFn]]:
    """All g in F_n with beta_g <= q^t, or None when the box exceeds budget.

    Heights follow the construction's own bounds: ||a|| <= k0^-1 q^t and
    |a_0| <= q^{n t' + t + 1}.
    """
    spec = m.spec
    n = m.n
    ha = t - params.k0_exp  # deg a_i <= t + nt' + 1
    h0 = n * params.t_prime + t + 1
    count = (spec.q ** (ha + 1)) ** n * spec.q ** (h0 + 1)
    if count > budget:
        return None
    out = []
    for a in enumerate_box(spec, [ha] * n):
        if all(p.is_zero for p in a):
            continue
        beta = params.k0_exp + max(p.deg for p in a if not p.is_zero)
        if beta > t:
            continue
        for a0 in enumerate_polys(spec, h0):
            out.append(ResonantFn(m=m, a0=a0, a=tuple(a)))
    return out


def constructed_family(
    m: AnalyticMap,
    t: int,
    delta_exp: int,
    B: Ball,
    params: UbiquityParams,
) -> tuple[list[ResonantFn], int]:
    """The distinct g that build_resonant_fn gives at the centers of B's
    cells outside Phi^f(t, delta), in cell order, and the number of centers
    skipped because the build raised ValueError (a singular system or the
    zero tuple).

    A g built at x stays within rho of every point of x's cell once cells
    are finer than rho, so the centers sit at resolution max(r + 3,
    1 - rho exponent) for B of radius q^-r: the pointwise inclusion of B
    minus Phi^f in the union of the rho-neighborhoods carries over."""
    c_res = max(B.radius_exp + 3, 1 - params.rho_exp(t))
    family = {}
    skipped = 0
    for cell in GridSpec(m.spec, B.d, c_res, B).cells():
        x = cell.center
        if in_phi_f_point(m, x, t, delta_exp):
            continue
        try:
            g = build_resonant_fn(m, x, t, delta_exp, params).g
        except ValueError:
            skipped += 1
            continue
        family.setdefault((g.a0, g.a), g)
    return list(family.values()), skipped


def gate_family(family: Iterable[ResonantFn], dom: Ball) -> tuple[list[ResonantFn], int]:
    """The members with a != 0 whose gate holds on dom, and the number of
    members left out because their gate certification raised
    PrecisionError; a union over the rest is still a certified lower
    bound."""
    kept, skipped = [], 0
    for g in family:
        if g.a_norm_exp() is None:
            continue
        try:
            if resonant_gate(g, dom):
                kept.append(g)
        except PrecisionError:
            skipped += 1
    return kept, skipped


@dataclass
class CoveringReport:
    fraction: Fraction
    measure: Fraction
    undecided: Fraction
    ball_measure: Fraction
    partial: bool            # True when only a constructed subfamily was used
    family_size: int
    gate_skipped: int        # members whose gate raised PrecisionError
    build_skipped: int       # constructed_family centers whose build raised

    @property
    def certified(self) -> bool:
        return self.undecided == 0


def covering_fraction(
    m: AnalyticMap,
    t: int,
    delta_exp: int,
    B: Ball,
    params: Optional[UbiquityParams] = None,
    budget: int = 200_000,
) -> CoveringReport:
    """Exact measure fraction of union over beta_g <= q^t of the rho(q^t)-
    neighborhoods of the resonant sets, within B.

    When the full family exceeds the budget the union runs over the
    subfamily built at the non-resonance-rich grid centers
    (constructed_family: only g is built, no claim is checked); the result
    is then a certified lower bound, flagged partial, since every member's
    neighborhood is decided cell by cell.  With B of radius q^-r the union
    is decided to depth r + 5 + max(0, -tau).
    """
    if params is None:
        params = UbiquityParams.from_delta(delta_exp, m.n, m.d)
    if B.radius_exp < 2:
        raise ValueError("probe ball must have radius_exp >= 2 (diam <= 1/q^2)")
    rho = params.rho_exp(t)
    resolution = B.radius_exp + 3
    family = enumerate_family(m, params, t, budget=budget)
    partial = family is None
    build_skipped = 0
    if family is None:
        family, build_skipped = constructed_family(m, t, delta_exp, B, params)
    tau = strict_below(Fraction(rho))
    depth = resolution + max(0, -tau) + 2
    sd = SweepData(m, B)
    kept, skipped = gate_family(family, B)
    atoms = [ResonantDistAtom(g, tau, sd, depth) for g in kept]
    res = measure_union(atoms, B, depth)
    bm = B.measure()
    return CoveringReport(
        fraction=res.included / bm,
        measure=res.included,
        undecided=res.undecided,
        ball_measure=bm,
        partial=partial,
        family_size=len(atoms),
        gate_skipped=skipped,
        build_skipped=build_skipped,
    )


@dataclass
class LambdaPhiReport:
    measure: Fraction
    undecided: Fraction
    hits: list            # (cell center, g, witness) samples
    all_hits_verified: bool
    gate_skipped: int     # members whose gate raised PrecisionError


def lambda_phi_hits(
    m: AnalyticMap,
    psi: ApproxFn,
    T: int,
    grid: GridSpec,
    params: UbiquityParams,
    budget: int = 200_000,
) -> LambdaPhiReport:
    """Measure of {x : dist(x, R_g) < phi(beta_g) for some g with beta_g <= q^T},
    with phi(r) = k0 r^-1 psi(k0^-1 r); every sampled hit is re-verified as a
    (Psi, theta)-witness through the mean-value chain."""
    family = enumerate_family(m, params, T, budget=budget)
    if family is None:
        raise ValueError("family too large; lower T or raise the budget")
    dom = grid.resolved_domain
    gate_dom = dom if dom.radius_exp >= 2 else cell_containing(dom.center, 2)
    depth = grid.N + 6
    sd = SweepData(m, dom)
    live = (g for g in family
            if g.a_norm_exp() is not None and psi.exp_at_shell(g.a_norm_exp()) is not None)
    kept, skipped = gate_family(live, gate_dom)
    # phi(beta_g) = psi(||a||)/||a||
    per_g = [(g, strict_below(psi.exp_at_shell(g.a_norm_exp()) - g.a_norm_exp())) for g in kept]
    atoms = [ResonantDistAtom(g, tau, sd, depth) for g, tau in per_g]
    res = measure_union(atoms, dom, depth)
    hits = []
    verified = True
    for cell in grid.cells():
        x = cell.center
        for g, tau in per_g:
            if dist_to_resonant(x, g).dist <= AbsValue(tau):
                z = g.with_theta.eval(x)
                e = z.abs_exp()
                ok = e is None or Fraction(e) < psi.exp_at_shell(g.a_norm_exp())
                w = Witness(a=g.a, a0=g.a0, value=z, shell=g.a_norm_exp())
                hits.append((x, g, w, ok))
                verified = verified and ok
                break
    return LambdaPhiReport(
        measure=res.included,
        undecided=res.undecided,
        hits=hits,
        all_hits_verified=verified,
        gate_skipped=skipped,
    )


# ---------------------------------------------------------------------------
# divergence sums
# ---------------------------------------------------------------------------

@dataclass
class UbiquitySum:
    partial: Fraction
    terms: list[Fraction]
    diverges: bool
    closed_form: Optional[Fraction]
    series_exp_slope: Fraction    # exponent increment per t (>= 0 iff divergent)
    khintchine_partial: Optional[Fraction] = None
    khintchine_diverges: Optional[bool] = None


def ubiquity_sum(
    psi: ApproxFn,
    params: UbiquityParams,
    s: Fraction,
    T: int,
    q: int,
) -> UbiquitySum:
    """Partial sums of sum_t phi(q^t)^(s-gamma) / rho(q^t)^(d-gamma) with
    phi(r) = k0 r^-1 psi(k0^-1 r), gamma = d-1; power-law divergence decided
    symbolically.  Also evaluates the Khintchine-side series
    sum_a ||a|| (Psi(a)/||a||)^(s+1-d) shell by shell.
    """
    s = Fraction(s)
    gamma = params.gamma
    d = params.d
    if s <= gamma:
        raise ValueError("need s > gamma")
    if psi.table is not None or psi.zero:
        raise ValueError("ubiquity sums need a power-law psi")
    k0 = params.k0_exp
    tau = psi.tau
    c = psi.coeff_exp
    # phi(q^t) = q^{k0 - t} * psi(q^{t - k0}) = q^{k0 - t + c - tau (t - k0)}
    terms = []
    total = Fraction(0)
    sexp = s - gamma
    for t in range(1, T + 1):
        phi_exp = k0 - t + c - tau * (t - k0)
        e = sexp * phi_exp - (d - gamma) * params.rho_exp(t)
        if e.denominator != 1:
            raise ValueError("non-integral term exponent: not a rational sum")
        term = Fraction(q ** int(e)) if e >= 0 else Fraction(1, q ** int(-e))
        terms.append(term)
        total += term
    slope = -sexp * (1 + tau) + (d - gamma) * (params.n + 1)
    diverges = slope >= 0
    closed = None
    if not diverges and terms and slope.denominator == 1:
        # geometric with ratio q^slope < 1 from t = 1
        closed = terms[0] / (1 - Fraction(q) ** int(slope))
    # Khintchine-side series
    expo = s + 1 - d
    kh_slope = params.n + 1 + expo * (-tau - 1)
    kh_div = kh_slope >= 0
    try:
        kh_total = Fraction(0)
        for t in range(1, T + 1):
            # ||a|| (Psi(a)/||a||)^(s+1-d) summed over the shell ||a|| = q^t
            e = t + expo * (psi.exp_at_shell(t) - t)
            if e.denominator != 1:
                raise ValueError
            val = Fraction(q ** int(e)) if e >= 0 else Fraction(1, q ** int(-e))
            kh_total += shell_count(q, params.n, t) * val
    except ValueError:
        kh_total = None
    return UbiquitySum(
        partial=total,
        terms=terms,
        diverges=diverges,
        closed_form=closed,
        series_exp_slope=slope,
        khintchine_partial=kh_total,
        khintchine_diverges=kh_div,
    )
