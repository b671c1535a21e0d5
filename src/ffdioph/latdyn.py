"""Lattice dynamics over Lambda = F_q[X]: the unipotent encoding U_x, the
diagonal contractions D, exterior algebra with the pi-seminorm, exact
reduction to successive minima, primitive submodules of Gamma, and the
quantitative-nondivergence membership probes.

Reduction is the classical exact algorithm for function-field lattices:
while the leading coefficient vectors of the basis are F_q-dependent, cancel
the dependence with a unimodular column operation, strictly decreasing a
column degree.  The reduced basis is "orthogonal" (the norm of any Lambda-
combination is the max of the scaled column norms), so its sorted norms are
exactly the successive minima and their product is |det|.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .cells import MeasureResult, SweepData, measure_union
from .dioph import smallgrad_atoms
from .errors import PrecisionError
from .ffield import (
    AbsValue,
    Ball,
    FieldSpec,
    GridSpec,
    Laurent,
    Poly,
    cofactor_det,
    enumerate_polys,
    strict_below,
)
from .goodfn import QExp, TrueAtom, certify_good_max
from .ultracalc import AnalyticMap, MPoly

Vec = tuple[Laurent, ...]


def sup_norm_vec(v: Sequence[Laurent]) -> Optional[int]:
    """Exponent of max_i |v_i|; None when all coordinates are exactly zero."""
    best = None
    horizon = None
    for z in v:
        if z.terms:
            e = z.terms[0][0]
            if best is None or e > best:
                best = e
        elif not z.exact:
            h = z.prec - 1
            if horizon is None or h > horizon:
                horizon = h
    if horizon is not None and (best is None or horizon >= best):
        raise PrecisionError("vector norm undecidable at this precision")
    return best


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LaurentMatrix:
    """Row-major matrix of Laurent entries."""

    rows: tuple[Vec, ...]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Laurent]]) -> "LaurentMatrix":
        return cls(tuple(tuple(r) for r in rows))

    @classmethod
    def from_cols(cls, cols: Sequence[Sequence[Laurent]]) -> "LaurentMatrix":
        return cls(tuple(zip(*[tuple(c) for c in cols])))

    @classmethod
    def identity(cls, spec: FieldSpec, m: int) -> "LaurentMatrix":
        one, zero = Laurent.one(spec), Laurent.zero(spec)
        return cls(tuple(tuple(one if i == j else zero for j in range(m)) for i in range(m)))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @property
    def spec(self) -> FieldSpec:
        return self.rows[0][0].spec

    def col(self, j: int) -> Vec:
        return tuple(r[j] for r in self.rows)

    def cols(self) -> list[Vec]:
        return [self.col(j) for j in range(self.ncols)]

    def det(self) -> Laurent:
        """Exact determinant by cofactor expansion (matrices here are tiny)."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        return cofactor_det(self.rows, Laurent.zero(self.spec))


def fq_dependence(spec: FieldSpec, vecs: Sequence[Sequence[int]]) -> Optional[list[int]]:
    """A nontrivial F_q-linear dependence among the vectors, or None.

    Returns coefficients c with sum c_j vecs[j] = 0 and some c_j != 0.
    """
    if not vecs:
        return None
    m = len(vecs[0])
    rows: list[tuple[list[int], list[int], int]] = []
    n = len(vecs)
    for idx, v in enumerate(vecs):
        cur = list(v)
        combo = [0] * n
        combo[idx] = 1
        for rv, rc, piv in rows:
            c = cur[piv]
            if c:
                for i in range(m):
                    cur[i] = spec.sub(cur[i], spec.mul(c, rv[i]))
                for i in range(n):
                    combo[i] = spec.sub(combo[i], spec.mul(c, rc[i]))
        piv = next((i for i, x in enumerate(cur) if x), None)
        if piv is None:
            return combo
        inv = spec.inv(cur[piv])
        cur = [spec.mul(inv, x) for x in cur]
        combo = [spec.mul(inv, x) for x in combo]
        rows.append((cur, combo, piv))
    return None


@dataclass
class ReducedLattice:
    """Result of reduce_lattice: an orthogonalized basis of the column module."""

    columns: list[Vec]               # reduced basis, original order
    coeffs: list[tuple[Poly, ...]]   # columns expressed in the input basis
    norm_exps: list[int]             # per reduced column
    steps: list[dict] = field(default_factory=list)  # pivot history for audit

    @property
    def minima_exps(self) -> list[int]:
        """Successive minima exponents lambda_1 <= ... <= lambda_k."""
        return sorted(self.norm_exps)

    def by_norm(self) -> list[tuple[Vec, tuple[Poly, ...], int]]:
        order = sorted(range(len(self.columns)), key=lambda i: (self.norm_exps[i], i))
        return [(self.columns[i], self.coeffs[i], self.norm_exps[i]) for i in order]


def reduce_lattice(columns: Sequence[Sequence[Laurent]]) -> ReducedLattice:
    """Reduce a basis of the Lambda-module spanned by the columns.

    Column operations over Lambda cancel F_q-dependences among leading
    coefficient vectors until none remain; then the norm of any combination
    sum p_j c_j equals max |p_j| ||c_j||, so sorted column norms realize the
    successive minima.  Raises on F-dependent columns (a column collapses to
    exact zero) and PrecisionError when a pivot cannot be read off a window.
    """
    spec = columns[0][0].spec
    cols = [tuple(c) for c in columns]
    k = len(cols)
    one, zero = Poly.one(spec), Poly.zero(spec)  # immutable: one object each
    coeffs: list[list[Poly]] = [[one if i == j else zero for i in range(k)] for j in range(k)]
    norms: list[Optional[int]] = []
    for c in cols:
        e = sup_norm_vec(c)
        if e is None:
            raise ValueError("zero column: columns are not F-linearly independent")
        norms.append(e)
    steps: list[dict] = []
    rows = range(len(cols[0]))
    leads = [[cols[j][i].coeff(norms[j]) for i in rows] for j in range(k)]
    for _ in range(100000):
        dep = fq_dependence(spec, leads)
        if dep is None:
            return ReducedLattice(
                columns=cols,
                coeffs=[tuple(c) for c in coeffs],
                norm_exps=[int(e) for e in norms],
                steps=steps,
            )
        support = [j for j, c in enumerate(dep) if c]
        j_star = max(support, key=lambda j: (norms[j], j))
        e_star = norms[j_star]
        newcol = tuple(_combine(spec, [(cols[j][i], e_star - norms[j], dep[j]) for j in support])
                       for i in rows)
        newcoef = [Poly.zero(spec)] * k
        for j in support:
            mono = Poly(spec, (0,) * (e_star - norms[j]) + (dep[j],))
            for i in range(k):
                newcoef[i] = newcoef[i] + coeffs[j][i] * mono
        steps.append({"column": j_star, "combo": {j: dep[j] for j in support}, "from_exp": e_star})
        cols[j_star] = newcol
        coeffs[j_star] = newcoef
        e = sup_norm_vec(newcol)
        if e is None:
            raise ValueError("columns are not F-linearly independent")
        norms[j_star] = e
        leads[j_star] = [z.coeff(e) for z in newcol]
    raise RuntimeError("lattice reduction did not terminate (bug or bad input)")


def _combine(spec: FieldSpec, parts: Sequence[tuple[Laurent, int, int]]) -> Laurent:
    """sum c X^k z over the (z, k, c), in one pass over the terms: the
    horizon is the largest z.prec + k, and digits below it are dropped."""
    acc: dict[int, int] = {}
    prec = None
    add, mul = spec.add, spec.mul
    for z, k, c in parts:
        if z.prec is not None and (prec is None or z.prec + k > prec):
            prec = z.prec + k
        for d, x in z.terms:
            acc[d + k] = add(acc.get(d + k, 0), mul(c, x))
    return Laurent._make(spec, tuple(sorted(((d, x) for d, x in acc.items()
                                              if x and (prec is None or d >= prec)),
                                             reverse=True)), prec)


# ---------------------------------------------------------------------------
# exterior algebra with the pi-seminorm
# ---------------------------------------------------------------------------

class WedgeVector:
    """Element of the exterior algebra of F^m over a fixed labeled basis.

    Coefficients are indexed by strictly increasing index tuples; signs from
    antisymmetry are absorbed during multiplication.
    """

    __slots__ = ("spec", "m", "data")

    def __init__(self, spec: FieldSpec, m: int, data: Optional[dict] = None):
        self.spec = spec
        self.m = m
        self.data: dict[tuple[int, ...], Laurent] = {}
        if data:
            for k, c in data.items():
                if not c.is_zero:
                    self.data[tuple(k)] = c

    @classmethod
    def from_vector(cls, v: Sequence[Laurent]) -> "WedgeVector":
        spec = v[0].spec
        return cls(spec, len(v), {(i,): z for i, z in enumerate(v) if not z.is_zero})

    def wedge(self, other: "WedgeVector") -> "WedgeVector":
        out: dict[tuple[int, ...], Laurent] = {}
        for k1, c1 in self.data.items():
            s1 = set(k1)
            for k2, c2 in other.data.items():
                if s1 & set(k2):
                    continue
                merged = k1 + k2
                key, sign = _sort_with_sign(merged)
                c = c1 * c2
                if sign < 0:
                    c = -c
                prev = out.get(key)
                c = c if prev is None else prev + c
                if c.is_zero:
                    out.pop(key, None)
                else:
                    out[key] = c
        return WedgeVector(self.spec, self.m, out)

    def __add__(self, other: "WedgeVector") -> "WedgeVector":
        out = dict(self.data)
        for k, c in other.data.items():
            s = out.get(k)
            s = c if s is None else s + c
            if s.is_zero:
                out.pop(k, None)
            else:
                out[k] = s
        return WedgeVector(self.spec, self.m, out)

    def scale(self, c: Laurent) -> "WedgeVector":
        return WedgeVector(self.spec, self.m, {k: v * c for k, v in self.data.items()})

    def sup_exp(self) -> Optional[int]:
        """Exponent of the full supremum norm over all components."""
        best = None
        for c in self.data.values():
            e = c.abs_exp()
            if e is not None and (best is None or e > best):
                best = e
        return best

    def pi_exp(self, starred: frozenset[int]) -> Optional[int]:
        """Exponent of the pi-seminorm: components with two or more starred
        basis indices are ignored, then the sup norm is taken."""
        best = None
        for k, c in self.data.items():
            if sum(1 for i in k if i in starred) >= 2:
                continue
            e = c.abs_exp()
            if e is not None and (best is None or e > best):
                best = e
        return best

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WedgeVector)
            and self.m == other.m
            and self.data == other.data
        )


def _sort_with_sign(idx: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    lst = list(idx)
    sign = 1
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
    return tuple(lst), sign


def wedge_vectors(vectors: Sequence[Sequence[Laurent]]) -> WedgeVector:
    """v_1 ^ ... ^ v_k for degree-1 vectors."""
    if not vectors:
        raise ValueError("empty wedge")
    acc = WedgeVector.from_vector(vectors[0])
    for v in vectors[1:]:
        acc = acc.wedge(WedgeVector.from_vector(v))
    return acc


def check_orthonormal(vectors: Sequence[Sequence[Laurent]]) -> bool:
    """True iff ||v_1|| = ... = ||v_k|| = ||v_1 ^ ... ^ v_k|| = 1."""
    for v in vectors:
        e = sup_norm_vec(v)
        if e is None or e != 0:
            return False
    return wedge_vectors(vectors).sup_exp() == 0


# ---------------------------------------------------------------------------
# the dynamical encoding: Gamma, U_x, ceil(eps), D
# ---------------------------------------------------------------------------
#
# Basis order of F^m, m = n + d + 1:  e_0, e_1*, ..., e_d*, e_1, ..., e_n.
# Gamma is the Lambda-span of e_0, e_1, ..., e_n: vectors (a0, 0, a).


def starred_indices(d: int) -> frozenset[int]:
    return frozenset(range(1, d + 1))


def build_Ux(m: AnalyticMap, x: Sequence[Laurent]) -> LaurentMatrix:
    """The unipotent matrix with blocks f(x) and grad f(x) in SL_m(F)."""
    spec = m.spec
    d, n = m.d, m.n
    size = n + d + 1
    one, zero = Laurent.one(spec), Laurent.zero(spec)
    fx = m.eval(x)
    rows = []
    row0 = [one] + [zero] * d + list(fx)
    rows.append(tuple(row0))
    for i in range(d):
        row = [zero] * size
        row[1 + i] = one
        for j in range(n):
            row[1 + d + j] = m.partials[i][j].eval(x)
        rows.append(tuple(row))
    for j in range(n):
        row = [zero] * size
        row[1 + d + j] = one
        rows.append(tuple(row))
    return LaurentMatrix(tuple(rows))


def gamma_vector(spec: FieldSpec, d: int, a0: Poly, a: Sequence[Poly]) -> Vec:
    """(a0, 0, a) as a vector of F^(n+d+1)."""
    zero = Laurent.zero(spec)
    return tuple([a0.to_laurent()] + [zero] * d + [p.to_laurent() for p in a])


@dataclass(frozen=True)
class CeilEps:
    """ceil(eps) = X^e with |X^e| >= eps, for the small-gradient parameters."""

    t: int
    t_prime: int
    tvec: tuple[int, ...]
    exp: int                  # ceil(eps) = X^exp
    eps_exp: Fraction         # eps = q^eps_exp


def build_ceil_eps(t: int, t_prime: int, tvec: Sequence[int]) -> CeilEps:
    """The paper's rounding of eps = max(q^-t, q^((t'+sum t_i-t-max t_i)/(n+1)))."""
    tvec = tuple(tvec)
    n = len(tvec)
    if t < 0 or any(ti < 1 for ti in tvec):
        raise ValueError("need t >= 0 and t_i >= 1")
    gap = t_prime + sum(tvec) - t - max(tvec)
    if gap >= 0:
        raise ValueError("hypothesis t' + sum t_i - t - max t_i < 0 violated")
    eps_exp = max(Fraction(-t), Fraction(gap, n + 1))
    if t < Fraction(-gap, n + 1):
        e = -t
    else:
        e = (Fraction(gap, n + 1)).__floor__() + 1
    ce = CeilEps(t=t, t_prime=t_prime, tvec=tvec, exp=e, eps_exp=eps_exp)
    assert Fraction(ce.exp) >= ce.eps_exp, "|ceil(eps)| >= eps must hold"
    return ce


@dataclass(frozen=True)
class DiagonalScaling:
    """D = diag(a_0^-1, a_*^-1 x d, a_1^-1..a_n^-1), stored as monomial exponents.

    ``slot_exps[i]`` is the exponent of the i-th diagonal entry of D itself
    (so the entry is X^slot_exps[i]).
    """

    d: int
    n: int
    a0_exp: int
    astar_exp: int
    ai_exps: tuple[int, ...]

    @property
    def slot_exps(self) -> tuple[int, ...]:
        return tuple(
            [-self.a0_exp] + [-self.astar_exp] * self.d + [-e for e in self.ai_exps]
        )

    def matrix(self, spec: FieldSpec) -> LaurentMatrix:
        zero = Laurent.zero(spec)
        size = self.n + self.d + 1
        exps = self.slot_exps
        return LaurentMatrix(tuple(
            tuple(Laurent.X(spec, exps[i]) if i == j else zero for j in range(size))
            for i in range(size)
        ))


def build_D(ceil: CeilEps, d: int) -> DiagonalScaling:
    """D from (a_0, a_*, a_i) = (X^-t, X^t', X^t_i) / ceil(eps).

    Validates the small-gradient theorem constraints
    0 < |a_0| <= 1 <= |a_1| <= ... <= |a_n| and
    0 < |a_*| <= |a_0 a_1 ... a_{n-1}|^{-1}.
    """
    e = ceil.exp
    a0 = -ceil.t - e
    astar = ceil.t_prime - e
    ais = tuple(ti - e for ti in ceil.tvec)
    if not a0 <= 0:
        raise ValueError("constraint 0 < |a0| <= 1 violated")
    if not all(x >= 0 for x in ais):
        raise ValueError("constraint |a_i| >= 1 violated")
    if list(ais) != sorted(ais):
        raise ValueError("need t_1 <= ... <= t_n (permute coordinates first)")
    if not astar <= -(a0 + sum(ais[:-1])):
        raise ValueError("constraint on |a_*| violated")
    return DiagonalScaling(d=d, n=len(ais), a0_exp=a0, astar_exp=astar, ai_exps=ais)


def dux_columns(m: AnalyticMap, x: Sequence[Laurent], D: DiagonalScaling) -> list[Vec]:
    """Images under D U_x of the Gamma generators (e_0, e_1..e_n)."""
    return [tuple(p.eval(x) for p in col) for col in dux_symbolic_columns(m, D)]


def qn_membership(
    m: AnalyticMap,
    x: Sequence[Laurent],
    D: DiagonalScaling,
    eps_exp: Fraction,
) -> tuple[bool, Optional[tuple[Poly, tuple[Poly, ...]]], int]:
    """Decide ||D U_x v|| < eps for some v in Gamma \\ {0} via lambda_1.

    Returns (member, witness (a0, a) or None, lambda_1 exponent).
    """
    red = reduce_lattice(dux_columns(m, x, D))
    _, coefs, lam1 = red.by_norm()[0]
    member = AbsValue(lam1) < AbsValue(Fraction(eps_exp))
    if not member:
        return False, None, lam1
    a0, a = coefs[0], tuple(coefs[1:])
    return True, (a0, a), lam1


# ---------------------------------------------------------------------------
# primitive submodules of Gamma
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrimitiveSubmodule:
    """A primitive Lambda-submodule of Gamma ~ Lambda^(n+1), canonical basis.

    Basis vectors are in Gamma coordinates (a_0, a_1..a_n), column Hermite
    form: pivot rows strictly increasing, pivots monic, entries of other
    columns at a pivot row reduced mod the pivot.
    """

    rank: int
    basis: tuple[tuple[Poly, ...], ...]  # rank columns, each of length n+1

    def vectors(self, spec: FieldSpec, d: int) -> list[Vec]:
        return [gamma_vector(spec, d, col[0], col[1:]) for col in self.basis]


def poly_gcd(a: Poly, b: Poly) -> Poly:
    while not b.is_zero:
        a, b = b, a % b
    return a.monic() if not a.is_zero else a


def _minors_gcd(cols: Sequence[Sequence[Poly]], k: int) -> Poly:
    spec = cols[0][0].spec
    nrows = len(cols[0])
    g = Poly.zero(spec)
    for rows in itertools.combinations(range(nrows), k):
        sub = [[cols[j][r] for r in rows] for j in range(k)]
        det = cofactor_det(sub, Poly.zero(spec))
        g = poly_gcd(g, det)
        if g.deg == 0 and not g.is_zero:
            return g.monic()
    return g


def is_primitive(cols: Sequence[Sequence[Poly]]) -> bool:
    """Delta = F Delta ∩ Gamma iff the gcd of the maximal minors is a unit."""
    k = len(cols)
    g = _minors_gcd(cols, k)
    return not g.is_zero and g.deg == 0


def primitive_submodules(
    spec: FieldSpec, n: int, max_rank: int, height: int
) -> Iterator[PrimitiveSubmodule]:
    """All primitive submodules of Gamma with canonical bases of entry degree
    <= height, each exactly once (the canonical form is unique)."""
    nrows = n + 1
    all_polys = list(enumerate_polys(spec, height))
    monic = [p for p in all_polys if not p.is_zero and p.coeffs[-1] == 1]
    for rank in range(1, min(max_rank, nrows) + 1):
        for pivot_rows in itertools.combinations(range(nrows), rank):
            for basis in _hermite_bases(spec, nrows, pivot_rows, monic, all_polys, height):
                if is_primitive(basis):
                    yield PrimitiveSubmodule(rank=rank, basis=tuple(tuple(c) for c in basis))


def _hermite_bases(spec, nrows, pivot_rows, monic, all_polys, height):
    rank = len(pivot_rows)
    pivot_choices = itertools.product(monic, repeat=rank)
    free_rows = [
        [r for r in range(nrows) if r > pivot_rows[i] and r not in pivot_rows]
        for i in range(rank)
    ]
    for pivots in pivot_choices:
        # entries at pivot row r_j (j > i) of column i: reduced mod pivot j
        red_choices = []
        for i in range(rank):
            slots = []
            for j in range(i + 1, rank):
                dj = pivots[j].deg
                slots.append([p for p in all_polys if p.is_zero or p.deg < dj])
            red_choices.append(slots)
        free_choices = [[all_polys] * len(free_rows[i]) for i in range(rank)]
        per_col_opts = []
        for i in range(rank):
            per_col_opts.append(list(itertools.product(*(red_choices[i] + free_choices[i]))))
        for chosen in itertools.product(*per_col_opts):
            basis = []
            for i in range(rank):
                col = [Poly.zero(spec)] * nrows
                col[pivot_rows[i]] = pivots[i]
                vals = chosen[i]
                later_pivots = list(range(i + 1, rank))
                for idx, j in enumerate(later_pivots):
                    col[pivot_rows[j]] = vals[idx]
                for idx, r in enumerate(free_rows[i]):
                    col[r] = vals[len(later_pivots) + idx]
                basis.append(col)
            yield basis


def full_gamma(spec: FieldSpec, n: int) -> PrimitiveSubmodule:
    basis = tuple(
        tuple(Poly.one(spec) if i == j else Poly.zero(spec) for i in range(n + 1))
        for j in range(n + 1)
    )
    return PrimitiveSubmodule(rank=n + 1, basis=basis)


# ---------------------------------------------------------------------------
# symbolic h(x) Delta norms and conditions (A)(B)(C)
# ---------------------------------------------------------------------------

def dux_symbolic_columns(m: AnalyticMap, D: DiagonalScaling) -> list[list[MPoly]]:
    """Columns of D U_x on the Gamma generators, as MPoly functions of x."""
    spec = m.spec
    d, n = m.d, m.n
    size = n + d + 1
    exps = D.slot_exps
    zero = MPoly.zero(spec, d)

    def shifted(p: MPoly, e: int) -> MPoly:
        return p.scale(Laurent.X(spec, e))

    cols: list[list[MPoly]] = []
    col0 = [zero] * size
    col0[0] = MPoly.const(spec, d, Laurent.X(spec, exps[0]))
    cols.append(col0)
    for j in range(n):
        col = [zero] * size
        col[0] = shifted(m.components[j], exps[0])
        for i in range(d):
            col[1 + i] = shifted(m.partials[i][j], exps[1 + i])
        col[1 + d + j] = MPoly.const(spec, d, Laurent.X(spec, exps[1 + d + j]))
        cols.append(col)
    return cols


def h_delta_components(
    m: AnalyticMap, D: DiagonalScaling, delta: PrimitiveSubmodule
) -> list[MPoly]:
    """The pi-surviving wedge components of h(x)Delta as polynomials in x.

    The function x -> ||h(x) Delta||_pi is the max of their absolute values.
    """
    spec = m.spec
    d, n = m.d, m.n
    size = n + d + 1
    gen_cols = dux_symbolic_columns(m, D)
    imgs: list[list[MPoly]] = []
    for col in delta.basis:
        acc = [MPoly.zero(spec, d) for _ in range(size)]
        coefs = [col[0]] + list(col[1:])
        for gen, c in zip(gen_cols, coefs):
            if c.is_zero:
                continue
            cl = c.to_laurent()
            for i in range(size):
                acc[i] = acc[i] + gen[i].scale(cl)
        imgs.append(acc)
    starred = starred_indices(d)
    comps = []
    for subset in itertools.combinations(range(size), delta.rank):
        if sum(1 for i in subset if i in starred) >= 2:
            continue
        mat = [[imgs[a][i] for i in subset] for a in range(delta.rank)]
        comps.append(cofactor_det(mat, MPoly.zero(spec, d)))
    return [c for c in comps if not c.is_zero]


@dataclass
class ABCReport:
    """Empirical check of the quantitative-nondivergence conditions."""

    goodness: list[tuple[int, QExp]]        # (rank, certified C) per Delta
    bounded_counts: list[int]               # #{Delta : ||h(x)Delta|| <= 1} per sample x
    sup_exps: list[int]                     # sup_B ||h(x)Delta|| exponent per Delta
    rho_exp: int                            # empirical rho = min of the sups
    alpha: Fraction
    certified: bool


def check_ABC(
    m: AnalyticMap,
    V: Ball,
    D: DiagonalScaling,
    height: int,
    eps_exps: Sequence[int] = (-1, -2, -3),
) -> ABCReport:
    """Certify (A) goodness with alpha = 1/4, (B) finiteness at the centers
    of the cells of radius q^-(r+2) in V = B(c, q^-r), (C) sup >= rho for all
    primitive submodules of Gamma up to the height bound."""
    spec = m.spec
    alpha = Fraction(1, 4)
    deltas = list(primitive_submodules(spec, m.n, m.n + 1, height))
    goodness = []
    sup_exps = []
    certified = True
    comp_cache = []
    for delta in deltas:
        comps = h_delta_components(m, D, delta)
        comp_cache.append(comps)
        if not comps:
            raise ValueError("h(x)Delta vanishes identically: degenerate instance")
        cert = certify_good_max(comps, V, alpha, eps_exps)
        sup_exps.append(int(cert.sup.exp))
        certified = certified and cert.certified
        goodness.append((delta.rank, cert.C))
    rho_exp = min(sup_exps)
    counts = []
    for cell in GridSpec(spec, V.d, V.radius_exp + 2, V).cells():
        x = cell.center
        cnt = 0
        for comps in comp_cache:
            vals = [g.eval(x) for g in comps]
            e = sup_norm_vec(vals)
            if e is not None and e <= 0:
                cnt += 1
        counts.append(cnt)
    return ABCReport(
        goodness=goodness,
        bounded_counts=counts,
        sup_exps=sup_exps,
        rho_exp=rho_exp,
        alpha=alpha,
        certified=certified,
    )


# ---------------------------------------------------------------------------
# qn bound probe
# ---------------------------------------------------------------------------

def qn_short_vector_atoms(
    m: AnalyticMap, D: DiagonalScaling, eps_exps: Sequence, domain: Optional[Ball] = None
) -> tuple[list, list[Fraction]]:
    """Atoms whose union is {x : ||D U_x v|| < eps for some v in Gamma-0},
    for every eps of eps_exps on one SweepData, and their labels eps.

    Scaling out D turns the membership into finitely many coordinate boxes:
    |f.a~ + a~0| < eps|a0|, ||grad(f.a~)|| < eps|a_*|, |a~_i| < eps|a_i|,
    the small-gradient box at D-scaled bounds.
    """
    sd = SweepData(m.homogeneous, domain)
    atoms: list = []
    labels: list[Fraction] = []
    for e in map(Fraction, eps_exps):
        tau0 = strict_below(e + D.a0_exp)
        # a~ = 0 with nonzero a~0 already satisfies everything
        box = [TrueAtom()] if tau0 >= 0 else smallgrad_atoms(
            sd, [strict_below(e + b) for b in D.ai_exps], tau0, strict_below(e + D.astar_exp))
        atoms += box
        labels += [e] * len(box)
    return atoms, labels


def qn_bound_probe(
    m: AnalyticMap,
    B: Ball,
    D: DiagonalScaling,
    eps_exps: Sequence,
    max_depth: Optional[int] = None,
) -> list[tuple[Fraction, MeasureResult]]:
    """Exact measures of the qn_membership sets over an epsilon sweep, from
    one sweep with the atoms labelled by epsilon."""
    atoms, labels = qn_short_vector_atoms(m, D, eps_exps, domain=B)
    depth = max_depth if max_depth is not None else B.radius_exp + 8
    union = measure_union(atoms, B, depth, labels)
    return [(e, union.restrict([e])) for e in map(Fraction, eps_exps)]
