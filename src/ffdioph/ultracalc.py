"""Ultrametric calculus on polynomial maps: difference quotients, skew
gradients and the normalization conditions.

Maps are exact polynomial maps U in F^d -> F^n with Laurent coefficients.
Every bound used here is ultrametric: the sup of a monomial c*x^beta over a
ball ||x - c0|| <= q^-r is |c| q^(-r|beta|) after recentering at c0, so sup
norms over balls are certified from coefficient data alone, with grid
refinement reserved for the cancellation cases.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional, Sequence

from .errors import FieldMismatchError, PrecisionError
from .ffield import AbsValue, Ball, FieldSpec, Laurent, Poly, cofactor_det

MultiIndex = tuple[int, ...]


def weight(beta: MultiIndex) -> int:
    return sum(beta)


class MPoly:
    """Polynomial in x1..xd with Laurent coefficients (exact by default)."""

    __slots__ = ("spec", "d", "terms")

    def __init__(self, spec: FieldSpec, d: int, terms=None):
        self.spec = spec
        self.d = d
        clean: dict[MultiIndex, Laurent] = {}
        if terms:
            for m, c in (terms.items() if isinstance(terms, dict) else terms):
                m = tuple(m)
                if len(m) != d:
                    raise ValueError(f"exponent {m} has arity != {d}")
                if not c.is_zero:
                    prev = clean.get(m)
                    c = prev + c if prev is not None else c
                    if c.is_zero:
                        del clean[m]
                    else:
                        clean[m] = c
        self.terms = clean

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, spec: FieldSpec, d: int) -> "MPoly":
        return cls(spec, d)

    @classmethod
    def const(cls, spec: FieldSpec, d: int, c: Laurent) -> "MPoly":
        return cls(spec, d, {(0,) * d: c})

    @classmethod
    def one(cls, spec: FieldSpec, d: int) -> "MPoly":
        return cls.const(spec, d, Laurent.one(spec))

    @classmethod
    def var(cls, spec: FieldSpec, d: int, j: int) -> "MPoly":
        """The coordinate function x_{j+1} (0-based j)."""
        m = tuple(1 if i == j else 0 for i in range(d))
        return cls(spec, d, {m: Laurent.one(spec)})

    @classmethod
    def monomial(cls, spec: FieldSpec, d: int, m: MultiIndex, c: Laurent) -> "MPoly":
        return cls(spec, d, {tuple(m): c})

    # -- structure -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MPoly)
            and self.spec == other.spec
            and self.d == other.d
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.spec, self.d, tuple(sorted(self.terms.items(), key=lambda t: t[0]))))

    # -- arithmetic ------------------------------------------------------

    def _check(self, other: "MPoly") -> None:
        if self.spec != other.spec or self.d != other.d:
            raise FieldMismatchError("mixed polynomial rings")

    def __add__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        acc = dict(self.terms)
        for m, c in other.terms.items():
            s = acc.get(m)
            s = c if s is None else s + c
            if s.is_zero:
                acc.pop(m, None)
            else:
                acc[m] = s
        return MPoly(self.spec, self.d, acc)

    def __neg__(self) -> "MPoly":
        return MPoly(self.spec, self.d, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        acc: dict[MultiIndex, Laurent] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                p = c1 * c2
                s = acc.get(m)
                s = p if s is None else s + p
                if s.is_zero:
                    acc.pop(m, None)
                else:
                    acc[m] = s
        return MPoly(self.spec, self.d, acc)

    def scale(self, c: Laurent) -> "MPoly":
        if c.is_zero:
            return MPoly.zero(self.spec, self.d)
        return MPoly(self.spec, self.d, {m: x * c for m, x in self.terms.items()})

    def partial(self, j: int) -> "MPoly":
        """Formal partial derivative in x_{j+1}."""
        acc: dict[MultiIndex, Laurent] = {}
        p = self.spec.p
        for m, c in self.terms.items():
            k = m[j]
            if k == 0 or k % p == 0:
                continue
            m2 = tuple(x - 1 if i == j else x for i, x in enumerate(m))
            acc[m2] = c.scale(k % p) if m2 not in acc else acc[m2] + c.scale(k % p)
        return MPoly(self.spec, self.d, acc)

    def gradient(self) -> tuple["MPoly", ...]:
        return tuple(self.partial(j) for j in range(self.d))

    def eval(self, point: Sequence[Laurent]) -> Laurent:
        """The value at ``point``.  A coefficient that is an exact field
        constant k scales the monomial's power by k (k = 1 leaves it as is)
        instead of multiplying Laurent series; terms and prec are those of
        the product c * x^beta either way."""
        if len(point) != self.d:
            raise ValueError("point arity mismatch")
        # powers[j][e] = x_j^e, each built from x_j^(e-1) on first use
        powers = [[None, x] for x in point]
        acc = Laurent.zero(self.spec)
        for m, c in self.terms.items():
            k = c.terms[0][1] if c.prec is None and len(c.terms) == 1 and c.terms[0][0] == 0 else 0
            v = None if k else c
            for j, e in enumerate(m):
                if e:
                    pw = powers[j]
                    while len(pw) <= e:
                        pw.append(pw[-1] * point[j])
                    v = pw[e] if v is None else v * pw[e]
            if v is None:
                v = c
            elif k > 1:
                v = v.scale(k)
            acc = acc + v
        return acc

    # -- substitutions ---------------------------------------------------

    def subs_axis(self, j: int, image: "MPoly") -> "MPoly":
        """Substitute x_{j+1} -> image (an MPoly in the same ring)."""
        out = MPoly.zero(self.spec, self.d)
        pow_cache: dict[int, MPoly] = {0: MPoly.one(self.spec, self.d)}

        def img_pow(e: int) -> MPoly:
            if e not in pow_cache:
                pow_cache[e] = img_pow(e - 1) * image
            return pow_cache[e]

        for m, c in self.terms.items():
            rest = tuple(x if i != j else 0 for i, x in enumerate(m))
            out = out + (MPoly.monomial(self.spec, self.d, rest, c) * img_pow(m[j]))
        return out

    def recenter(self, center: Sequence[Laurent]) -> "MPoly":
        """g(x + center) as a polynomial in the displacement x."""
        out = self
        for j, cj in enumerate(center):
            if cj.is_zero:
                continue
            img = MPoly.var(self.spec, self.d, j) + MPoly.const(self.spec, self.d, cj)
            out = out.subs_axis(j, img)
        return out

    def __repr__(self) -> str:
        if not self.terms:
            return "MPoly(0)"
        parts = []
        for m, c in sorted(self.terms.items(), reverse=True):
            mono = "*".join(
                f"x{j+1}" if e == 1 else f"x{j+1}^{e}" for j, e in enumerate(m) if e
            )
            cs = str(c).split(" (")[0]
            parts.append(f"({cs})*{mono}" if mono else f"({cs})")
        return "MPoly(" + " + ".join(parts) + ")"


class VarTable:
    """Ultrametric coefficient bounds of one polynomial g on a ball B and on
    every subcell of it.

    On a ball of radius q^-r about c, |g(x) - g(c)| is at most the max over
    monomials beta of |coefficient of g recentered at c| * q^(-r|beta|).
    Recentering once at B's center bounds, for every weight w, the weight-w
    coefficients of g recentered at any point of B (the order-w difference
    quotients): weight_exp(w).  Weight 0 gives sup_exp, the bound on sup_B |g|
    (None when g vanishes); center_exp is the exponent of |g(center of B)|;
    var_exp(r) bounds the variation of g on any subcell of radius q^-r.
    """

    __slots__ = ("center_exp", "sup_exp", "table", "_memo")

    def __init__(self, g: MPoly, domain: Ball):
        rec = g.recenter(domain.center)
        c0 = rec.terms.get((0,) * g.d)
        self.center_exp = None if c0 is None else c0.abs_exp()
        r0 = domain.radius_exp
        bounds: dict[int, int] = {}
        for mm, c in rec.terms.items():
            wm = weight(mm)
            e = c.abs_exp()
            if e is None:
                continue
            for w in range(wm + 1):
                b = e - r0 * (wm - w)
                if w not in bounds or b > bounds[w]:
                    bounds[w] = b
        self._set(bounds)

    def _set(self, bounds: dict[int, int]) -> None:
        self.sup_exp = bounds.pop(0, None)
        self.table = sorted(bounds.items())
        self._memo: dict[int, Optional[int]] = {}

    @classmethod
    def fold(cls, parts: Sequence[tuple["VarTable", int]], min_weight: int) -> "VarTable":
        """The table of the weight >= min_weight part of sum_k c_k g_k, from
        (table of g_k, exponent of |c_k|) pairs; its center_exp is None."""
        bounds: dict[int, int] = {}
        for vt, shift in parts:
            for w, b in vt.table:
                if w >= min_weight and (w not in bounds or b + shift > bounds[w]):
                    bounds[w] = b + shift
        out = cls.__new__(cls)
        out.center_exp = None
        out._set(bounds)
        return out

    def weight_exp(self, w: int) -> Optional[int]:
        """Bound exponent for the weight-w coefficients (None: all vanish)."""
        if w == 0:
            return self.sup_exp
        return dict(self.table).get(w)

    def var_exp(self, r: int) -> Optional[int]:
        """Bound exponent for |g(x) - g(c)| on a subcell of radius q^-r about
        c; None when g is constant."""
        got = self._memo.get(r, "?")
        if got != "?":
            return got
        best = None
        for w, b in self.table:
            e = b - r * w
            if best is None or e > best:
                best = e
        self._memo[r] = best
        return best


def sup_norm_on_ball(g: MPoly, ball: Ball) -> AbsValue:
    """Exact sup of |g| over the ball (Haar-a.e. sup = max, attained).

    Starts from the ultrametric coefficient bound and refines the cells
    whose bound is not yet attained by an evaluated center.  Terminates
    because center values stabilize while variation bounds decay with depth;
    refinement below radius q^-(r+60) of a ball of radius q^-r raises.
    """
    if g.is_zero:
        return AbsValue.zero()
    best: Optional[int] = None  # exponent of largest |g(center)| seen
    # breadth-first: a whole level's center values feed the lower bound
    # before any refinement, so a path where g vanishes identically (e.g. a
    # diagonal in characteristic 2) cannot starve the termination criterion
    level = [ball]
    while level:
        pending = []
        for cell in level:
            vt = VarTable(g, cell)
            v_exp = vt.center_exp
            if v_exp is not None and (best is None or v_exp > best):
                best = v_exp
            if vt.sup_exp is not None:
                pending.append((cell, vt.sup_exp))
        nxt = []
        for cell, bound in pending:
            if best is not None and bound <= best:
                continue
            if cell.radius_exp >= ball.radius_exp + 60:
                raise PrecisionError("sup-norm refinement exceeded the depth budget")
            nxt.extend(cell.subdivide())
        level = nxt
    return AbsValue.zero() if best is None else AbsValue(best)


# ---------------------------------------------------------------------------
# difference quotients
# ---------------------------------------------------------------------------

def complete_homogeneous(spec: FieldSpec, m: int, values: Sequence[Laurent]) -> Laurent:
    """h_m(values): sum of all degree-m monomials, coefficients 1.

    h_{m-k} evaluated at k+1 points is the k-th divided difference of x^m,
    which is what makes the closed-form extension of Phi^k exact.
    """
    if m < 0:
        return Laurent.zero(spec)
    if m == 0:
        return Laurent.one(spec)
    # DP over values: h[d] for the first i values
    h = [Laurent.one(spec)] + [Laurent.zero(spec)] * m
    for v in values:
        vp = Laurent.one(spec)
        pows = [vp]
        for _ in range(m):
            vp = vp * v
            pows.append(vp)
        newh = list(h)
        for dgr in range(1, m + 1):
            acc = h[dgr]
            for i in range(1, dgr + 1):
                acc = acc + h[dgr - i] * pows[i]
            newh[dgr] = acc
        h = newh
    return h[m]


def difference_quotient(
    g: MPoly, k: int, axis: int, points: Sequence[Laurent]
) -> Laurent:
    """The k-th order difference quotient of g along ``axis`` (0-based):
    multi_difference with beta = k e_axis, for g univariate in that axis.

    Evaluates the unique polynomial extension bar-Phi^k, so coincident
    points are allowed; at pairwise-distinct points it agrees with the
    recursive quotient.
    """
    if len(points) != k + 1:
        raise ValueError(f"need {k + 1} points for order {k}")
    if any(e for m in g.terms for j, e in enumerate(m) if j != axis):
        raise ValueError(
            "difference_quotient needs g univariate in the chosen axis; "
            "use multi_difference for several variables"
        )
    beta = tuple(k if j == axis else 0 for j in range(g.d))
    return multi_difference(g, beta, [points if j == axis else points[:1] for j in range(g.d)])


def multi_difference(
    g: MPoly, beta: MultiIndex, points: Sequence[Sequence[Laurent]]
) -> Laurent:
    """bar-Phi_beta g = the composed iterated quotient Phi_1^{i_1}...Phi_d^{i_d}.

    ``points[j]`` supplies the i_j + 1 evaluation points for axis j.  For a
    monomial prod x_j^{m_j} the value is prod_j h_{m_j - i_j}(points[j]).
    """
    if len(beta) != g.d:
        raise ValueError("multi-index arity mismatch")
    for j, (b, pts) in enumerate(zip(beta, points)):
        if len(pts) != b + 1:
            raise ValueError(f"axis {j} needs {b + 1} points")
    spec = g.spec
    acc = Laurent.zero(spec)
    for m, c in g.terms.items():
        v = c
        dead = False
        for j in range(g.d):
            if m[j] < beta[j]:
                dead = True
                break
            v = v * complete_homogeneous(spec, m[j] - beta[j], points[j])
        if not dead:
            acc = acc + v
    return acc


# ---------------------------------------------------------------------------
# skew gradient
# ---------------------------------------------------------------------------

def skew_gradient(g1: MPoly, g2: MPoly) -> tuple[MPoly, ...]:
    """g1*grad(g2) - g2*grad(g1), componentwise symbolic."""
    return tuple(
        g1 * g2.partial(j) - g2 * g1.partial(j) for j in range(g1.d)
    )


# ---------------------------------------------------------------------------
# analytic maps and the normalization conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnalyticMap:
    """A polynomial map f = (f1..fn): U in F^d -> F^n plus a scalar shift
    theta.  Every set is measured with the theta of the map it is given: a
    map without theta poses the homogeneous problem."""

    spec: FieldSpec
    d: int
    n: int
    components: tuple[MPoly, ...]
    theta: Optional[MPoly] = None
    domain: Optional[Ball] = None

    def __post_init__(self):
        if len(self.components) != self.n:
            raise ValueError("component count != n")
        if self.domain is None:
            object.__setattr__(self, "domain", Ball.unit(self.spec, self.d, 1))

    @property
    def resolved_domain(self) -> Ball:
        return self.domain  # type: ignore[return-value]

    @property
    def theta_or_zero(self) -> MPoly:
        return self.theta if self.theta is not None else MPoly.zero(self.spec, self.d)

    def eval(self, x: Sequence[Laurent]) -> tuple[Laurent, ...]:
        return tuple(f.eval(x) for f in self.components)

    @cached_property
    def partials(self) -> tuple[tuple[MPoly, ...], ...]:
        """partials[j] = (d_j f_1, ..., d_j f_n, d_j theta), built once per
        map (d_j theta is 0 when the map has no theta)."""
        row = self.components + (self.theta_or_zero,)
        return tuple(tuple(g.partial(j) for g in row) for j in range(self.d))

    @cached_property
    def homogeneous(self) -> "AnalyticMap":
        """The map without theta (the map itself when it has none), built
        once, so its partials are too."""
        return self if self.theta is None else replace(self, theta=None)

    def eval_theta(self, x: Sequence[Laurent]) -> Laurent:
        """theta(x); the exact 0, evaluating nothing, when the map has none."""
        if self.theta is None:
            return Laurent.zero(self.spec)
        return self.theta.eval(x)

    def combo(self, a: Sequence[Poly], a0: Optional[Poly] = None) -> MPoly:
        """The scalar function a . f (+ a0) + theta as an MPoly."""
        acc = row_combo(a, self.components + (self.theta_or_zero,))
        if a0 is not None and not a0.is_zero:
            acc = acc + MPoly.const(self.spec, self.d, a0.to_laurent())
        return acc


def row_combo(a: Sequence[Poly], row: Sequence[MPoly]) -> MPoly:
    """sum_i a_i row_i + row[-1] over the nonzero a_i, for a row (f_1..f_n,
    theta) of a map or of its partials."""
    acc = row[-1]
    for ai, g in zip(a, row):
        if not ai.is_zero:
            acc = acc + g.scale(ai.to_laurent())
    return acc


def veronese(spec: FieldSpec, n: int, theta: Optional[MPoly] = None) -> AnalyticMap:
    """The Veronese curve x -> (x, x^2, ..., x^n) with d = 1."""
    comps = tuple(
        MPoly.monomial(spec, 1, (k,), Laurent.one(spec)) for k in range(1, n + 1)
    )
    return AnalyticMap(spec, 1, n, comps, theta=theta)


@dataclass
class ConditionsReport:
    """Outcome of the (II)-(VI) normalization checks on a map."""

    f1_is_x1: bool
    independent: bool
    f_sup_ok: bool
    grad_sup_ok: bool
    second_diff_ok: bool
    theta_ok: bool
    violations: list[str] = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return (
            self.f1_is_x1
            and self.independent
            and self.f_sup_ok
            and self.grad_sup_ok
            and self.second_diff_ok
            and self.theta_ok
        )


def components_independent(m: AnalyticMap) -> bool:
    """Linear independence of 1, f1, ..., fn over F (condition III): some
    maximal minor of their coefficient matrix has a known nonzero term."""
    monos = sorted({k for f in m.components for k in f.terms} | {(0,) * m.d})
    one, zero = Laurent.one(m.spec), Laurent.zero(m.spec)
    rows = [[one if mo == (0,) * m.d else zero for mo in monos]]
    rows += [[f.terms.get(mo, zero) for mo in monos] for f in m.components]
    return any(cofactor_det([[r[c] for c in cols] for r in rows], zero).terms
               for cols in itertools.combinations(range(len(monos)), m.n + 1))


def _sup_exceeds(g: MPoly, ball: Ball, limit_exp: int, vt: Optional[VarTable] = None) -> bool:
    """Does sup_B |g| exceed q^limit_exp?  Exact (bound, then refinement);
    vt is g's table on the ball when the caller already has it."""
    bound = (vt if vt is not None else VarTable(g, ball)).sup_exp
    if bound is None or bound <= limit_exp:
        return False
    return sup_norm_on_ball(g, ball) > AbsValue(limit_exp)


def check_conditions(m: AnalyticMap) -> ConditionsReport:
    """Certify conditions (II)-(IV) for f and (VI) for theta on the map's domain."""
    ball = m.resolved_domain
    violations = []

    x1 = MPoly.var(m.spec, m.d, 0)
    f1_ok = m.components[0] == x1
    if not f1_ok:
        violations.append("condition II: f1(x) != x1")

    indep = components_independent(m)
    if not indep:
        violations.append("condition III: 1, f1..fn linearly dependent over F")

    f_sup_ok = True
    grad_ok = True
    sec_ok = True
    for i, f in enumerate(m.components, start=1):
        vt = VarTable(f, ball)
        if _sup_exceeds(f, ball, 0, vt):
            f_sup_ok = False
            violations.append(f"condition IV: ||f{i}|| > 1 on the domain")
        for j, row in enumerate(m.partials):
            if _sup_exceeds(row[i - 1], ball, 0):
                grad_ok = False
                violations.append(f"condition IV: |d_{j+1} f{i}| > 1 on the domain")
        e = vt.weight_exp(2)
        if e is not None and e > 0:
            sec_ok = False
            violations.append(f"condition IV: second difference of f{i} exceeds 1")

    theta_ok = True
    th = m.theta
    if th is not None and not th.is_zero:
        vt = VarTable(th, ball)
        if _sup_exceeds(th, ball, 0, vt):
            theta_ok = False
            violations.append("condition VI: |theta| > 1 on the domain")
        for j, row in enumerate(m.partials):
            if _sup_exceeds(row[-1], ball, 0):
                theta_ok = False
                violations.append(f"condition VI: |d_{j+1} theta| > 1 on the domain")
        e = vt.weight_exp(2)
        if e is not None and e > 0:
            theta_ok = False
            violations.append("condition VI: second difference of theta exceeds 1")

    return ConditionsReport(
        f1_is_x1=f1_ok,
        independent=indep,
        f_sup_ok=f_sup_ok,
        grad_sup_ok=grad_ok,
        second_diff_ok=sec_ok,
        theta_ok=theta_ok,
        violations=violations,
    )
