"""Independent oracles used by the test suites.

These deliberately avoid the production code paths they check: the shortest
vector oracle triangularizes by polynomial Hermite elimination and then
enumerates bounded coefficient vectors; the measure oracles sweep cells
naively from the definitions; the witness oracle scans a shell, and the
cell references decide a cell, with Laurent arithmetic; the schoolbook
Laurent helpers build every result through the normalizing constructor,
and the step-by-step lattice reduction and the Cramer solve are the
package's earlier forms of ``reduce_lattice`` and ``ubiq._solve_laurent``
on them.  The last two helpers are no oracles: they read one witness
atom's answer from the package's label call, for the tests to compare
with the oracles.  The last section keeps the package's earlier second
algorithms as references: the Newton inverse, the pointwise D U_x columns,
the grid built by Laurent additions, the recursive difference quotient,
the member loop that reads every condition of every member on every cell,
the constructed family built by one point test and one reduction per
grid center, and the sup norm and resonant gate that recenter their
polynomials at every cell.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from ffdioph.cells import IN, OUT, UNKNOWN
from ffdioph.dioph import frac_exp, in_phi_f_point
from ffdioph.errors import PrecisionError
from ffdioph.ffield import (AbsValue, DEFAULT_INV_TERMS, Ball, GridSpec, Laurent, Poly,
                            enumerate_shell, strict_below)
from ffdioph.latdyn import LaurentMatrix, ReducedLattice, fq_dependence, sup_norm_vec
from ffdioph.ubiq import build_resonant_fn
from ffdioph.ultracalc import VarTable


def laurent_cols_to_poly(cols):
    """Scale all columns by a common X^s so entries become polynomials.

    Returns (poly_cols, s): the lattice norms scale by q^s exactly.
    """
    spec = cols[0][0].spec
    shift = 0
    for col in cols:
        for z in col:
            if z.terms:
                shift = max(shift, -z.terms[-1][0])
    pcols = []
    for col in cols:
        pc = []
        for z in col:
            zz = z.shift(shift)
            coeffs = [0] * (zz.terms[0][0] + 1 if zz.terms else 0)
            for d, c in zz.terms:
                if d < 0:
                    raise ValueError("non-polynomial after shift")
                coeffs[d] = c
            pc.append(Poly(spec, coeffs))
        pcols.append(pc)
    return pcols, shift


def hermite_triangular(cols, nrows):
    """Column echelon form over F_q[X] by Euclidean elimination (in place on
    copies); returns columns with strictly increasing pivot rows."""
    spec = cols[0][0].spec
    work = [list(c) for c in cols]
    done = []
    row = 0
    while work and row < nrows:
        live = [c for c in work if not c[row].is_zero]
        rest = [c for c in work if c[row].is_zero]
        while len(live) > 1:
            live.sort(key=lambda c: c[row].deg, reverse=True)
            a, b = live[0], live[1]
            qq = a[row] // b[row]
            newc = [x - qq * y for x, y in zip(a, b)]
            if newc[row].is_zero:
                rest.append(newc)
                live = live[1:]
            else:
                live[0] = newc
        if live:
            piv = live[0]
            lead = piv[row]
            inv = spec.inv(lead.coeffs[-1])
            done.append(([p.scale(inv) for p in piv], row))
            work = rest
        else:
            work = rest
        row += 1
    return done


def poly_vec_norm_exp(col):
    degs = [p.deg for p in col if not p.is_zero]
    return max(degs) if degs else None


def shortest_vector_oracle(cols, bound_exp, node_budget=50_000):
    """Minimum sup-norm exponent over nonzero lattice vectors of norm <=
    q^bound_exp, by echelon-based exhaustive enumeration; None if the ball
    contains no nonzero vector.

    Raises OracleBudgetExceeded when the enumeration tree outgrows the node
    budget (a cost property of unbalanced Hermite pivots, not of the claim
    being checked; callers may resample such instances).
    """
    spec = cols[0][0].spec
    nrows = len(cols[0])
    tri = hermite_triangular(cols, nrows)
    if len(tri) != len(cols):
        raise ValueError("columns dependent")
    best = [None]
    nodes = [0]
    # instant bail-out when the prefix tree is too large to sweep
    est = 1
    for col, prow in tri:
        est *= spec.q ** max(0, bound_exp - col[prow].deg + 1)
        if est > node_budget:
            raise OracleBudgetExceeded(est)
    boxes = []
    for col, prow in tri:
        max_deg = bound_exp - col[prow].deg
        box = [Poly.zero(spec)]
        if max_deg >= 0:
            box = [
                Poly(spec, digs)
                for digs in itertools.product(range(spec.q), repeat=max_deg + 1)
            ]
        boxes.append(box)

    def rec(idx, partial):
        # columns processed in increasing pivot-row order: once a_idx is
        # chosen, rows below the next pivot receive no further contributions
        if idx == len(tri):
            if any(not p.is_zero for p in partial):
                e = poly_vec_norm_exp(partial)
                if e is not None and (best[0] is None or e < best[0]):
                    best[0] = e
            return
        col, prow = tri[idx]
        pivot = col[prow]
        c = partial[prow]
        # |pivot * a + c| <= q^bound at the pivot row: reduce around the
        # particular solution -(c // pivot), then sweep the residual box
        part = -(c // pivot)
        next_prow = tri[idx + 1][1] if idx + 1 < len(tri) else nrows
        for b in boxes[idx]:
            a = part + b
            nodes[0] += 1
            if nodes[0] > node_budget:
                raise OracleBudgetExceeded(nodes[0])
            val = pivot * a + c
            if not val.is_zero and val.deg > bound_exp:
                continue
            newp = [x + a * y for x, y in zip(partial, col)]
            ok = True
            for r in range(next_prow):
                if not newp[r].is_zero and newp[r].deg > bound_exp:
                    ok = False
                    break
            if ok:
                rec(idx + 1, newp)
    rec(0, [Poly.zero(spec)] * nrows)
    return best[0]


class OracleBudgetExceeded(RuntimeError):
    pass


def laurent_find_witness(m, x, psi, t):
    """The first a of shell t, in enumerate_shell order, with |{a.f(x) +
    theta(x)}| < Psi(a), read off the Laurent series of the sum; returns
    (a, a0, {a.f(x) + theta(x)}) with a0 = -[a.f(x) + theta(x)], or None."""
    bound = psi.exp_at_shell(t)
    if bound is None:
        return None
    tau = strict_below(bound)
    fx = m.eval(x)
    th = m.eval_theta(x)
    for a in enumerate_shell(m.spec, m.n, t):
        z = th
        for ai, v in zip(a, fx):
            if not ai.is_zero:
                z = z + ai.to_laurent() * v
        e = frac_exp(z)
        if e is None or e <= tau:
            head, tail = z.poly_part()
            return a, -head, tail
    return None


def naive_W_measure(m, psi, theta_on, t0, t1, grid, depth):
    """Full-depth recursive sweep straight from the definition of W."""
    spec = m.spec
    dom = grid.resolved_domain
    # each shell enumerated once: a member is its (i, k) pairs, a_i != 0
    # being coeffs[k]
    shells, coeffs, index = [], [], {}
    for t in range(t0, t1 + 1):
        e = psi.exp_at_shell(t)
        if e is None:
            continue
        tau = strict_below(e)
        members = []
        for a in enumerate_shell(spec, m.n, t):
            pairs = []
            for i, ai in enumerate(a):
                if not ai.is_zero:
                    k = index.get(ai)
                    if k is None:
                        k = index[ai] = len(coeffs)
                        coeffs.append(ai.to_laurent())
                    pairs.append((i, k))
            members.append(pairs)
        shells.append((t, tau, members))
    total = Fraction(0)

    def cell_status(x, r):
        # 1 include, 0 exclude, -1 refine
        decided_out = True
        fx = m.eval(x)
        th = m.eval_theta(x) if theta_on else Laurent.zero(spec)
        prods = {}  # (i, k) -> coeffs[k] * f_i(x), each product made once per cell
        for t, tau, members in shells:
            if tau >= -1:
                return 1
            var = t - r  # coefficient bound: ||a|| q^{-r} on normalized maps
            if var > -1:
                decided_out = False
                continue
            for pairs in members:
                z = th
                for ik in pairs:
                    p = prods.get(ik)
                    if p is None:
                        p = prods[ik] = coeffs[ik[1]] * fx[ik[0]]
                    z = z + p
                w = frac_exp(z)
                if (w is None or w <= tau) and var <= tau:
                    return 1
                if w is not None and w > tau and w > var:
                    continue
                decided_out = False
        return 0 if decided_out else -1

    def rec(cell):
        nonlocal total
        s = cell_status(cell.center, cell.radius_exp)
        if s == 1:
            total += cell.measure()
            return
        if s == 0:
            return
        if cell.radius_exp >= depth:
            raise AssertionError("naive oracle undecided; raise depth")
        for child in cell.subdivide():
            rec(child)

    rec(dom)
    return total


def center_row(data, row):
    """(Laurent values, variation exponents) of one row of a MapCellData:
    the values set in the data (a point's, or a test's), else each g of the
    row evaluated at the cell center by MPoly.eval with its variation at
    the cell radius."""
    if data.vals[row] is not None:
        return data.vals[row], data.vars[row]
    center, r = data.cell.center, data.cell.radius_exp
    return ([g.eval(center) for g in data.sd.rows[row]],
            [vt.var_exp(r) for vt in data.sd.row_tables(row)])


def laurent_columns(data, row):
    """(columns, variation, horizon) of each g of one row of a MapCellData
    whose kind's base is fixed, packed digit by digit from the Laurent
    values of center_row: coordinate r of u^e times the digit at degree k,
    by FieldSpec.mul, at bit s * (b * (k - base) + r) of column e."""
    sd = data.sd
    K, s = sd.m.spec, sd.slots[0]
    base = sd.bases[min(row, 1)]
    out = []
    for v, var in zip(*center_row(data, row)):
        cols = [0] * K.b
        for k, c in v.terms:
            for e in range(K.b if k >= base else 0):
                uc = K.mul(K.p**e, c)
                for r in range(K.b):
                    cols[e] += uc // K.p**r % K.p << s * (K.b * (k - base) + r)
        out.append((cols, float("-inf") if var is None else var,
                    float("-inf") if v.prec is None else v.prec))
    return out


def laurent_combo(data, a, row):
    """(value at the cell center, variation bound exponent) of a . row plus
    the row's theta entry (0 when the map has no theta), as Laurent
    products of the cell's row values."""
    vals, vars_ = center_row(data, row)
    acc, var = vals[-1], vars_[-1]
    for ai, v, vi in zip(a, vals, vars_):
        if ai.is_zero:
            continue
        acc = acc + ai.to_laurent() * v
        if vi is not None and (var is None or ai.deg + vi > var):
            var = ai.deg + vi
    return acc, var


def laurent_dist_status(atom, data, cell):
    """The status of a ubiq.ResonantDistAtom on the cell from Laurent values
    of G = a.f + a0 + theta and d1 G at the center."""
    v, vvar = laurent_combo(data, atom.g.a, 0)
    v = v + atom.g.a0.to_laurent()
    g1, g1var = laurent_combo(data, atom.g.a, 1)
    g1_exp = g1.abs_exp()
    if g1_exp is None or (g1var is not None and g1_exp <= g1var):
        return UNKNOWN
    thr = atom.tau + g1_exp
    v_exp = v.abs_exp()
    sec = atom.sec.var_exp(min(-atom.tau, cell.radius_exp))
    if v_exp is not None and (vvar is None or v_exp > vvar):
        # |G| is constant = q^v_exp on the cell
        if v_exp > thr:
            return OUT if sec is None or sec < v_exp else UNKNOWN
        return IN if sec is None or sec < thr else UNKNOWN
    if v_exp is None or v_exp <= thr:
        if (vvar is None or vvar <= thr) and (sec is None or sec < thr):
            return IN
    return UNKNOWN


def compare_abs_leq(v_exp, var_exp, tau):
    """Decide |g(x)| <= q^tau for all/no x in a cell, given |g(center)| = q^v
    and a variation bound q^var on the cell.  None exponents mean 0."""
    if v_exp is None:
        return IN if (var_exp is None or var_exp <= tau) else UNKNOWN
    if var_exp is None:
        return IN if v_exp <= tau else OUT
    if v_exp <= tau and var_exp <= tau:
        return IN
    if v_exp > tau and v_exp > var_exp:
        return OUT
    return UNKNOWN


def laurent_poly_status(sd, i, tau, cell):
    """The status of goodfn.PolyAbsAtom(sd, i, tau) on the cell from the
    Laurent value of polynomial i of sd at the center (MPoly.eval) and
    compare_abs_leq, with the variation of its VarTable over sd's domain."""
    var = sd.row_tables(0)[i].var_exp(cell.radius_exp)
    return compare_abs_leq(sd.rows[0][i].eval(cell.center).abs_exp(), var, tau)


def member_status(atom, cell, ctx):
    """IN, OUT or UNKNOWN of one witness atom: its label call alone."""
    is_in, rest = atom.status(cell, ctx, (atom,))
    return IN if is_in else UNKNOWN if rest else OUT


def value_status(atom, data):
    """Status of the value condition |{a.f + theta}| <= q^tau of a witness
    atom alone, on the cell of data: the atom without its gradient bounds."""
    bare = type(atom)(atom.sd, atom.a, atom.tau)
    return member_status(bare, data.cell, {atom.sd: data})


# ---------------------------------------------------------------------------
# schoolbook Laurent helpers, lattice steps and the Cramer solve
# ---------------------------------------------------------------------------

def school_shift(z, k):
    """X^k z, through the normalizing constructor."""
    return Laurent(z.spec, [(d + k, c) for d, c in z.terms], None if z.prec is None else z.prec + k)


def school_scale(z, c):
    """c z for c in F_q, through the normalizing constructor."""
    K = z.spec
    if c % K.q == 0:
        return Laurent.zero(K) if z.exact else Laurent(K, (), z.prec)
    return Laurent(K, [(d, K.mul(c, x)) for d, x in z.terms], z.prec)


def school_neg(z):
    """-z, through the normalizing constructor."""
    return Laurent(z.spec, [(d, z.spec.neg(c)) for d, c in z.terms], z.prec)


def school_div_to_floor(num, den, floor_deg):
    """num/den down to floor_deg by long division on a chain of Laurent
    values: each step subtracts the shifted, scaled divisor from the
    remainder, whose horizon is the sum's."""
    K = num.spec
    dd, cd = den.terms[0]
    cd_inv = K.inv(cd)
    rem, qterms = num, []
    while rem.terms and rem.terms[0][0] - dd >= floor_deg:
        dr, cr = rem.terms[0]
        f = K.mul(cr, cd_inv)
        qterms.append((dr - dd, f))
        rem = rem + school_neg(school_scale(school_shift(den, dr - dd), f))
    exact = rem.is_zero and num.exact and den.exact
    prec = floor_deg
    if not exact:
        if num.prec is not None:
            prec = max(prec, num.prec - dd)
        if den.prec is not None and num.terms:
            prec = max(prec, den.prec + num.terms[0][0] - 2 * dd)
    return Laurent(K, qterms, None if exact else prec)


def step_reduce_lattice(columns):
    """Lattice reduction one Laurent operation at a time: every step
    re-reads the leading vectors of all columns and forms the new column
    as a sum of shifted, scaled columns, one addition at a time."""
    spec = columns[0][0].spec
    cols = [tuple(c) for c in columns]
    k = len(cols)
    coeffs = [[Poly.one(spec) if i == j else Poly.zero(spec) for i in range(k)] for j in range(k)]
    norms = []
    for c in cols:
        e = sup_norm_vec(c)
        if e is None:
            raise ValueError("zero column")
        norms.append(e)
    steps = []
    while True:
        leads = [[z.coeff(norms[j]) for z in cols[j]] for j in range(k)]
        dep = fq_dependence(spec, leads)
        if dep is None:
            return ReducedLattice(columns=cols, coeffs=[tuple(c) for c in coeffs],
                                  norm_exps=list(norms), steps=steps)
        support = [j for j, c in enumerate(dep) if c]
        j_star = max(support, key=lambda j: (norms[j], j))
        e_star = norms[j_star]
        newcol = [Laurent.zero(spec)] * len(cols[0])
        newcoef = [Poly.zero(spec)] * k
        for j in support:
            shift = e_star - norms[j]
            for i in range(len(newcol)):
                newcol[i] = newcol[i] + school_scale(school_shift(cols[j][i], shift), dep[j])
            mono = Poly(spec, (0,) * shift + (dep[j],))
            for i in range(k):
                newcoef[i] = newcoef[i] + coeffs[j][i] * mono
        steps.append({"column": j_star, "combo": {j: dep[j] for j in support}, "from_exp": e_star})
        cols[j_star] = tuple(newcol)
        coeffs[j_star] = newcoef
        e = sup_norm_vec(newcol)
        if e is None:
            raise ValueError("columns are not F-linearly independent")
        norms[j_star] = e


def cramer_solve(rows, rhs, floor_deg):
    """The square Laurent system by n + 2 full determinants: det A, and per
    unknown j the determinant with column j replaced by rhs, each quotient
    by school_div_to_floor."""
    k = len(rows)
    mat = LaurentMatrix.from_rows(rows)
    det = mat.det()
    if not det.terms:
        raise ValueError("singular system (or undecidable at this precision)")
    sols = []
    for j in range(k):
        cols = [list(mat.col(i)) for i in range(k)]
        cols[j] = list(rhs)
        sols.append(school_div_to_floor(LaurentMatrix.from_cols(cols).det(), det, floor_deg))
    return sols


# ---------------------------------------------------------------------------
# earlier second algorithms: Newton inverse, pointwise D U_x, additive grid,
# recursive difference quotient, the re-reading member loop
# ---------------------------------------------------------------------------

def _truncate(z, prec):
    """z with every coefficient below prec forgotten."""
    if z.prec is not None and z.prec >= prec:
        return z
    return Laurent(z.spec, z.terms, prec)


def newton_inv(z, n_terms=None):
    """1/z from the leading-term seed by the ultrametric Newton step
    y <- y(2 - z y), truncated to n_terms coefficients (the operand's window
    length, or DEFAULT_INV_TERMS for exact input, by default).  It claims
    all n_terms digits whatever z's window, so it is a reference only at the
    default window or for exact z."""
    K = z.spec
    d0, c0 = z.terms[0]
    if len(z.terms) == 1 and z.exact:
        return Laurent.monomial(K, K.inv(c0), -d0)
    if n_terms is None:
        n_terms = z.window_len if not z.exact else DEFAULT_INV_TERMS
    out_prec = -d0 - n_terms + 1
    y = Laurent.monomial(K, K.inv(c0), -d0)
    two = Laurent.const(K, K.add(1, 1))
    correct = 1
    while correct < n_terms:
        y = _truncate(y * (two - (z * y)), out_prec)
        correct *= 2
    return Laurent(K, y.terms, out_prec)


def pointwise_dux_columns(m, x, D):
    """D U_x on the Gamma generators from f(x) and the partials at x, each
    entry then shifted by its diagonal exponent of D."""
    spec = m.spec
    d, n = m.d, m.n
    zero, one = Laurent.zero(spec), Laurent.one(spec)
    fx = m.eval(x)
    cols = [[one] + [zero] * (d + n)]
    for j in range(n):
        cols.append([fx[j]] + [m.partials[i][j].eval(x) for i in range(d)]
                    + [one if jj == j else zero for jj in range(n)])
    return [tuple(z.shift(e) for z, e in zip(col, D.slot_exps)) for col in cols]


def additive_grid_cells(grid):
    """The cells of a GridSpec by per-coordinate digit counters (degree -r
    slowest), each center the domain center plus one monomial per nonzero
    digit."""
    K = grid.spec
    dom = grid.resolved_domain
    r = dom.radius_exp
    degs = range(-r, -grid.N, -1)
    single = []
    for ci in dom.center:
        opts = []
        for digits in itertools.product(K.elements(), repeat=grid.N - r):
            z = ci
            for k, a in zip(degs, digits):
                if a:
                    z = z + Laurent.monomial(K, a, k)
            opts.append(z)
        single.append(opts)
    return [Ball(combo, grid.N) for combo in itertools.product(*single)]


def difference_quotient_recursive(g, k, axis, points):
    """The raw inductive k-th difference quotient of g along ``axis`` at
    pairwise distinct points, the other coordinates 0, each division by
    long division 64 digits deep."""
    if k == 0:
        return g.eval(_axis_point(g, axis, points[0]))
    a = difference_quotient_recursive(g, k - 1, axis, (points[0],) + tuple(points[2:]))
    b = difference_quotient_recursive(g, k - 1, axis, tuple(points[1:]))
    num, den = a - b, points[0] - points[1]
    if den.is_zero:
        raise ZeroDivisionError("coincident points in the recursive quotient")
    if not num.terms:
        prec = None if num.prec is None else num.prec - den.top_deg
        return Laurent(g.spec, (), prec)
    return num.div_to_floor(den, num.top_deg - den.top_deg - 64)


def _axis_point(g, axis, x):
    return [x if j == axis else Laurent.zero(g.spec) for j in range(g.d)]


def rereading_decide(data, live):
    """(the first member IN on the cell or None, the members UNKNOWN there)
    of witness members read in order, every condition of every member read
    on every cell, a survivor passed on as itself: the member loop
    ``cells._decide`` before decided conditions were dropped."""
    rest, packed, sd = [], data.packed[0], data.sd
    for atom in live:
        s = IN
        tau = atom.tau
        if tau < -1:  # else |{z}| <= 1/q <= q^tau always
            val, var, prec = 0, float("-inf"), float("-inf")
            for pid in atom.parts:
                pv, pvar, pprec = packed.get(pid) or data._part(pid, 0)
                val += pv
                if pvar > var:
                    var = pvar
                if pprec > prec:
                    prec = pprec
            if var <= -1:
                if prec > -1:
                    raise PrecisionError("window does not reach degree -1")
                deg = (tau if tau >= var else var) + 1
                start = deg if deg >= prec else prec
                _, sb, lay = sd.slots
                w = val >> (start - sd.bases[0]) * sb & (1 << -start * sb) - 1
                if w and (lay._mod(w, lay.sb) if lay.sb > 1 else
                          w.to_bytes(-start * sb >> 3, "little").translate(None, lay.zeros)):
                    continue
                if start > deg:
                    raise PrecisionError("digits indistinguishable from 0")
            if var > tau:
                s = UNKNOWN
        if atom.lower_deg is not None or atom.grad_upper_tau is not None:
            g = atom._grad_status(data)
            if g == OUT:
                continue
            if g == UNKNOWN:
                s = UNKNOWN
        if s == IN:
            return atom, ()
        rest.append(atom)
    return None, tuple(rest)


def pointwise_constructed_family(m, t, delta_exp, B, params):
    """``ubiq.constructed_family`` at every grid center on its own: one
    in_phi_f_point and one build from reduce_lattice per center, in cell
    order (the family before cells decided Phi^f and shared reductions)."""
    c_res = max(B.radius_exp + 3, 1 - params.rho_exp(t))
    family, skipped = {}, 0
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


def _cell_table(g, cell):
    """(exponent of |g(center)|, VarTable of g on the cell) from one
    recentering at the cell's center."""
    rec = g.recenter(cell.center)
    c0 = rec.terms.get((0,) * g.d)
    zero = tuple(Laurent.zero(g.spec) for _ in range(g.d))
    return (None if c0 is None else c0.abs_exp()), VarTable(rec, Ball(zero, cell.radius_exp))


def percell_sup_norm_on_ball(g, ball):
    """``ultracalc.sup_norm_on_ball`` with a VarTable recentered at every
    cell: its center value and its sup bound on the cell."""
    if g.is_zero:
        return AbsValue.zero()
    best = None
    level = [ball]
    while level:
        pending = []
        for cell in level:
            v_exp, vt = _cell_table(g, cell)
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


def percell_resonant_gate(g, U0):
    """``ubiq.resonant_gate`` with a VarTable of each partial recentered at
    every cell, built only as the cell reaches that partial."""
    if U0.radius_exp < 2:
        raise ValueError("gate domain needs diam <= 1/q^2 (radius_exp >= 2)")
    stack = [U0]
    while stack:
        cell = stack.pop()
        vals, decided = [], None
        for p in g.partials:
            v_exp, vt = _cell_table(p, cell)
            var = vt.var_exp(cell.radius_exp)
            if var is not None and (v_exp is None or v_exp <= var):
                decided = UNKNOWN
                break
            vals.append(v_exp)
        if decided is None:
            rest = [v for v in vals if v is not None]
            decided = IN if rest and vals[0] is not None and vals[0] >= max(rest) - 1 else OUT
        if decided == OUT:
            return False
        if decided == IN:
            continue
        if cell.radius_exp >= U0.radius_exp + 24:
            raise PrecisionError("gate certification exceeded the depth budget")
        stack.extend(cell.subdivide())
    return True
