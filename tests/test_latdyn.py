"""Lattice reduction, wedge algebra, the dynamical encoding, and the
quantitative-nondivergence probes."""

import random
from fractions import Fraction

import pytest

from oracles import (
    OracleBudgetExceeded,
    laurent_cols_to_poly,
    member_status,
    shortest_vector_oracle,
    value_status,
)

from ffdioph.dioph import in_smallgrad_S_point
from ffdioph.ffield import (
    Ball,
    FieldSpec,
    GridSpec,
    Laurent,
    Poly,
    enumerate_box,
    enumerate_polys,
)
from ffdioph.cells import IN, OUT, UNKNOWN, measure_union
from ffdioph.goodfn import sup_norm_family
from ffdioph.latdyn import (
    LaurentMatrix,
    WedgeVector,
    build_ceil_eps,
    build_D,
    build_Ux,
    check_ABC,
    dux_columns,
    fq_dependence,
    full_gamma,
    gamma_vector,
    h_delta_components,
    is_primitive,
    primitive_submodules,
    qn_bound_probe,
    qn_membership,
    qn_short_vector_atoms,
    reduce_lattice,
    starred_indices,
    sup_norm_vec,
    wedge_vectors,
)
from ffdioph.ubiq import minkowski_columns
from ffdioph.ultracalc import AnalyticMap, MPoly, veronese

F2 = FieldSpec(2)
F3 = FieldSpec(3)


def rand_laurent(spec, rng, lo=-3, hi=3):
    return Laurent(spec, [(d, rng.randrange(spec.q)) for d in range(lo, hi + 1)])


def rand_matrix(spec, rng, m):
    while True:
        rows = [[rand_laurent(spec, rng) for _ in range(m)] for _ in range(m)]
        mat = LaurentMatrix.from_rows(rows)
        if mat.det().terms:
            return mat


# ---------------------------------------------------------------------------
# reduction and successive minima
# ---------------------------------------------------------------------------

def test_reduce_identity():
    red = reduce_lattice(LaurentMatrix.identity(F2, 2).cols())
    assert red.minima_exps == [0, 0]


def test_reduce_diag():
    M = LaurentMatrix.from_cols([
        [Laurent.X(F2), Laurent.zero(F2)],
        [Laurent.zero(F2), Laurent.X(F2, -1)],
    ])
    red = reduce_lattice(M.cols())
    assert red.minima_exps == [-1, 1]
    col, _, e = red.by_norm()[0]
    assert e == -1 and col[0].is_zero


def test_reduce_rejects_dependent_columns():
    c = [Laurent.one(F3), Laurent.X(F3)]
    with pytest.raises(ValueError):
        reduce_lattice([c, c])


def test_minkowski_equality_random():
    rng = random.Random(42)
    for _ in range(60):
        m = rng.randrange(2, 5)
        spec = rng.choice([F2, F3])
        mat = rand_matrix(spec, rng, m)
        red = reduce_lattice(mat.cols())
        det_exp = mat.det().abs_exp()
        assert sum(red.minima_exps) == det_exp


def test_lambda1_matches_enum_oracle():
    # instances whose Hermite pivots make the enumeration tree exceed the
    # node budget are resampled (a cost property of the oracle, not of the
    # minimality claim); the resample count is itself bounded
    rng = random.Random(11)
    checked = resampled = 0
    while checked < 25:
        m = rng.randrange(2, 4)
        spec = rng.choice([F2, F3])
        mat = rand_matrix(spec, rng, m)
        red = reduce_lattice(mat.cols())
        pcols, shift = laurent_cols_to_poly(mat.cols())
        try:
            oracle = shortest_vector_oracle(pcols, red.minima_exps[0] + shift)
        except OracleBudgetExceeded:
            resampled += 1
            assert resampled < 60
            continue
        assert oracle - shift == red.minima_exps[0]
        checked += 1


def test_reduced_basis_orthogonality():
    # || sum p_j c_j || = max |p_j| ||c_j|| for the reduced basis
    rng = random.Random(3)
    for _ in range(20):
        spec = rng.choice([F2, F3])
        mat = rand_matrix(spec, rng, 3)
        red = reduce_lattice(mat.cols())
        ps = [Poly(spec, [rng.randrange(spec.q) for _ in range(3)]) for _ in range(3)]
        if all(p.is_zero for p in ps):
            continue
        v = [Laurent.zero(spec)] * 3
        expect = None
        for p, col, e in zip(ps, red.columns, red.norm_exps):
            if p.is_zero:
                continue
            for i in range(3):
                v[i] = v[i] + p.to_laurent() * col[i]
            cand = p.deg + e
            if expect is None or cand > expect:
                expect = cand
        assert sup_norm_vec(v) == expect


def test_short_vectors_sorted():
    rng = random.Random(7)
    mat = rand_matrix(F3, rng, 4)
    red = reduce_lattice(mat.cols())
    sv = red.by_norm()
    norms = [e for _, _, e in sv]
    assert norms == sorted(norms)


def test_minkowski_instance_from_body():
    # the Minkowski body columns for f = x at x = X^-1 + X^-3, n = 1, t = 1, q = 2
    line = AnalyticMap(F2, 1, 1, (MPoly.var(F2, 1, 0),))
    x = [Laurent(F2, [(-1, 1), (-3, 1)])]
    cols = minkowski_columns(line, x, 1)
    red = reduce_lattice(cols)
    pcols, shift = laurent_cols_to_poly(cols)
    oracle = shortest_vector_oracle(pcols, red.minima_exps[0] + shift)
    assert oracle - shift == red.minima_exps[0]
    det_exp = LaurentMatrix.from_cols(cols).det().abs_exp()
    assert sum(red.minima_exps) == det_exp == 1


def test_fq_dependence():
    dep = fq_dependence(F3, [[1, 0], [2, 0], [0, 1]])
    assert dep is not None
    a, b, c = dep
    assert (a + 2 * b) % 3 == 0 and c == 0 and any(dep)
    assert fq_dependence(F3, [[1, 0], [0, 1]]) is None


# ---------------------------------------------------------------------------
# wedge algebra and the pi-seminorm
# ---------------------------------------------------------------------------

def test_wedge_pi_norm_examples():
    # w = e1* ^ e2* has pi-norm 0; sup norm q^0
    w = WedgeVector(F3, 5, {(1, 2): Laurent.one(F3)})
    assert w.pi_exp(starred_indices(2)) is None
    assert w.sup_exp() == 0
    w2 = WedgeVector(F3, 5, {(0, 3): Laurent.X(F3, 2)})
    assert w2.pi_exp(starred_indices(2)) == 2


def test_pi_norm_degree_one_is_sup():
    v = [Laurent.X(F3, -1), Laurent.one(F3), Laurent.zero(F3)]
    w = WedgeVector.from_vector(v)
    assert w.pi_exp(starred_indices(1)) == sup_norm_vec(v) == 0


def test_wedge_antisymmetry():
    v1 = [Laurent.one(F3), Laurent.X(F3), Laurent.zero(F3)]
    v2 = [Laurent.zero(F3), Laurent.one(F3), Laurent.X(F3, -1)]
    w12 = wedge_vectors([v1, v2])
    w21 = wedge_vectors([v2, v1])
    assert (w12 + w21).data == {}
    assert wedge_vectors([v1, v1]).data == {}


def test_pi_norm_submultiplicative_random():
    rng = random.Random(19)
    starred = starred_indices(2)  # ambient F^5: e0, e1*, e2*, e1, e2
    for _ in range(500):
        k1, k2 = rng.randrange(1, 3), rng.randrange(1, 3)
        if k1 + k2 > 5:
            continue
        def rand_wedge(k):
            data = {}
            for _ in range(rng.randrange(1, 4)):
                key = tuple(sorted(rng.sample(range(5), k)))
                data[key] = rand_laurent(F3, rng, -2, 2)
            return WedgeVector(F3, 5, data)
        v, w = rand_wedge(k1), rand_wedge(k2)
        pv, pw = v.pi_exp(starred), w.pi_exp(starred)
        pvw = v.wedge(w).pi_exp(starred)
        if pvw is not None:
            assert pv is not None and pw is not None
            assert pvw <= pv + pw


def test_pi_norm_homogeneous():
    rng = random.Random(23)
    starred = starred_indices(2)
    for _ in range(50):
        data = {}
        for _ in range(rng.randrange(1, 4)):
            key = tuple(sorted(rng.sample(range(5), 2)))
            data[key] = rand_laurent(F3, rng, -2, 2)
        w = WedgeVector(F3, 5, data)
        c = Laurent.X(F3, rng.randrange(-3, 4))
        pe = w.pi_exp(starred)
        scaled = w.scale(c).pi_exp(starred)
        if pe is None:
            assert scaled is None
        else:
            assert scaled == pe + c.abs_exp()


# ---------------------------------------------------------------------------
# U_x, ceil(eps), D
# ---------------------------------------------------------------------------

def test_build_Ux_example():
    m1 = AnalyticMap(F3, 1, 1, (MPoly.var(F3, 1, 0),))
    U = build_Ux(m1, [Laurent.X(F3, -1)])
    assert U.rows[0] == (Laurent.one(F3), Laurent.zero(F3), Laurent.X(F3, -1))
    assert U.rows[1] == (Laurent.zero(F3), Laurent.one(F3), Laurent.one(F3))
    assert U.rows[2] == (Laurent.zero(F3), Laurent.zero(F3), Laurent.one(F3))
    assert U.det() == Laurent.one(F3)


def _matvec(mat, v):
    out = []
    for row in mat.rows:
        acc = Laurent.zero(mat.spec)
        for a, x in zip(row, v):
            acc = acc + a * x
        out.append(acc)
    return tuple(out)


def test_Ux_fixes_e0_and_acts_on_gamma():
    m = veronese(F3, 2)
    x = [Laurent(F3, [(-1, 2), (-2, 1)])]
    U = build_Ux(m, x)
    e0 = gamma_vector(F3, 1, Poly.one(F3), [Poly.zero(F3), Poly.zero(F3)])
    assert _matvec(U, e0) == e0
    a0, a = Poly(F3, (1, 1)), (Poly.X(F3), Poly.one(F3))
    v = gamma_vector(F3, 1, a0, a)
    img = _matvec(U, v)
    fx = m.eval(x)
    expect0 = a0.to_laurent() + a[0].to_laurent() * fx[0] + a[1].to_laurent() * fx[1]
    assert img[0] == expect0
    assert img[2] == a[0].to_laurent() and img[3] == a[1].to_laurent()


def test_ceil_eps_branches():
    # branch two: n=1, t=3, t'=0, t1=1 -> X^([(0+1-3-1)/2]+1) = X^-1
    ce = build_ceil_eps(3, 0, [1])
    assert ce.exp == -1 and ce.eps_exp == Fraction(-3, 2)
    assert Fraction(ce.exp) >= ce.eps_exp
    # branch one: n=1, t=1, t'=-5, t1=1 -> X^-t = X^-1
    ce2 = build_ceil_eps(1, -5, [1])
    assert ce2.exp == -1 and ce2.eps_exp == Fraction(-1)


def test_build_D_constraints_and_det():
    ce = build_ceil_eps(3, 0, [1])
    D = build_D(ce, 1)
    # |a_0| <= 1 <= |a_1|, 0 < |a_*| <= |a_0 a_1..a_{n-1}|^{-1}
    assert D.a0_exp <= 0
    assert all(e >= 0 for e in D.ai_exps)
    assert D.astar_exp <= -(D.a0_exp + sum(D.ai_exps[:-1]))
    # |det D| = |a0 a_*^d a1..an|^{-1}
    assert sum(D.slot_exps) == -(D.a0_exp + D.astar_exp * D.d + sum(D.ai_exps))
    mat = D.matrix(F3)
    assert mat.det().abs_exp() == sum(D.slot_exps)


def test_hypothesis_violations_rejected():
    with pytest.raises(ValueError):
        build_ceil_eps(4, 5, [1, 1])  # t' + sum t_i - t - max t_i >= 0
    with pytest.raises(ValueError):
        build_D(build_ceil_eps(5, 0, (2, 1)), 1)  # needs t_1 <= ... <= t_n


# ---------------------------------------------------------------------------
# primitive submodules
# ---------------------------------------------------------------------------

def test_rank1_height0_count():
    subs = list(primitive_submodules(F3, 1, 1, 0))
    assert len(subs) == 4  # q + 1 lines in P^1(F_3)
    mods = {tuple(tuple(p.coeffs for p in b) for b in s.basis) for s in subs}
    assert len(mods) == 4


def test_full_gamma_is_primitive_unique_full_rank():
    for h in (0, 1):
        subs = [s for s in primitive_submodules(F3, 1, 2, h) if s.rank == 2]
        gam = full_gamma(F3, 1)
        assert gam.basis in {s.basis for s in subs}
        # the full module has a unique canonical basis: the identity
        full = [s for s in subs if s.basis == gam.basis]
        assert len(full) == 1


def test_scaled_line_not_primitive():
    col = [Poly.X(F3), Poly.zero(F3)]
    assert not is_primitive([col])
    assert is_primitive([[Poly.one(F3), Poly.zero(F3)]])


def test_primitive_enumeration_matches_bruteforce_rank1():
    # rank-1 primitive submodules with entries of degree <= 1 over F_2:
    # brute force all nonzero vectors, canonicalize by the monic-pivot rule,
    # keep the primitive ones
    seen = set()
    polys = list(enumerate_polys(F2, 1))
    for v0 in polys:
        for v1 in polys:
            if v0.is_zero and v1.is_zero:
                continue
            col = [v0, v1]
            g = None
            for p in col:
                if not p.is_zero:
                    g = p if g is None else _gcd(g, p)
            if g.deg != 0:
                continue  # not primitive
            seen.add(_canon_line(col))
    subs = [s for s in primitive_submodules(F2, 1, 1, 1)]
    enum = {_canon_line([s.basis[0][0], s.basis[0][1]]) for s in subs}
    assert enum == seen


def _gcd(a, b):
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def _canon_line(col):
    # canonical generator of the rank-1 module spanned by col (entries coprime)
    spec = col[0].spec
    piv = next(p for p in col if not p.is_zero)
    inv = spec.inv(piv.coeffs[-1])
    return tuple(tuple(p.scale(inv).coeffs) for p in col)


# ---------------------------------------------------------------------------
# qn membership and the set identity
# ---------------------------------------------------------------------------

def _veronese_instances():
    return [(2, 0, (1, 1)), (3, 0, (1, 2)), (3, 1, (1, 1)), (4, 0, (2, 2))]


def test_qn_membership_trivial_eps():
    m = veronese(F3, 2)
    ce = build_ceil_eps(2, 0, (1, 1))
    D = build_D(ce, 1)
    x = [Laurent.X(F3, -1)]
    # huge eps: the e0 image has norm |a0^-1| = q^2 < q^5
    member, wit, lam1 = qn_membership(m, x, D, Fraction(5))
    assert member and wit is not None
    member2, _, _ = qn_membership(m, x, D, Fraction(lam1))
    assert not member2  # strict inequality at lambda_1 itself


def test_set_identity_exhaustive():
    # the small-gradient set equals the lattice membership set, cell by cell
    m = veronese(F3, 2)
    for t, tp, tvec in _veronese_instances():
        ce = build_ceil_eps(t, tp, tvec)
        D = build_D(ce, 1)
        for cell in GridSpec(F3, 1, 4).cells():
            x = cell.center
            lhs = in_smallgrad_S_point(m, x, t, tp, tvec)
            rhs, wit, _ = qn_membership(m, x, D, Fraction(ce.exp))
            assert lhs == rhs
            if rhs:
                a0, a = wit
                # re-verify the witness against the defining inequalities
                fx = m.eval(x)
                z = a0.to_laurent()
                for ai, fi in zip(a, fx):
                    z = z + ai.to_laurent() * fi
                e = z.abs_exp()
                assert e is None or e < -t


def test_qn_membership_matches_direct_enumeration():
    # exhaustive v in a box large enough to be provably sufficient
    m = veronese(F3, 2)
    ce = build_ceil_eps(2, 0, (1, 1))
    D = build_D(ce, 1)

    for cell in GridSpec(F3, 1, 3).cells():
        x = cell.center
        member, _, lam1 = qn_membership(m, x, D, Fraction(0))
        # direct: v = (a0, 0, a), |a_i| < q^{ai_exp}, a0 via value bound
        found = False
        cols = dux_columns(m, x, D)
        for a in enumerate_box(F3, [e - 1 for e in D.ai_exps]):
            for enc0 in range(3 ** (max(0, -D.a0_exp) + 2)):
                a0 = Poly.from_encoding(F3, enc0)
                if a0.is_zero and all(p.is_zero for p in a):
                    continue
                v = [Laurent.zero(F3)] * 4
                coefs = [a0] + list(a)
                for cf, col in zip(coefs, cols):
                    if cf.is_zero:
                        continue
                    for i in range(4):
                        v[i] = v[i] + cf.to_laurent() * col[i]
                e = sup_norm_vec(v)
                if e is None or e < 0:
                    found = True
                    break
            if found:
                break
        assert found == member


# ---------------------------------------------------------------------------
# conditions (A)(B)(C) and the qn probe
# ---------------------------------------------------------------------------

def test_check_ABC_veronese():
    m = veronese(F3, 2)
    ce = build_ceil_eps(2, 0, (1, 1))
    D = build_D(ce, 1)
    V = Ball.unit(F3, 1, 1)
    rep = check_ABC(m, V, D, height=0, eps_exps=(-1, -2))
    assert rep.certified
    assert rep.rho_exp <= 0  # e0 direction gives sup >= ... bounded scale
    # (C): every Delta reaches at least rho
    assert all(e >= rep.rho_exp for e in rep.sup_exps)
    # (B): finite counts at all samples
    assert all(isinstance(c, int) for c in rep.bounded_counts)


def test_gamma_e0_sup_at_least_one():
    # h(x) Gamma contains the e0 direction with norm |a0^-1| >= 1
    m = veronese(F3, 2)
    ce = build_ceil_eps(2, 0, (1, 1))
    D = build_D(ce, 1)
    comps = h_delta_components(m, D, full_gamma(F3, 2))
    sup = sup_norm_family(comps, Ball.unit(F3, 1, 1))
    assert not sup.is_zero and sup.exp >= 0


def test_qn_probe_monotone():
    m = veronese(F3, 2)
    ce = build_ceil_eps(6, 0, (4, 4))
    D = build_D(ce, 1)
    B = Ball.unit(F3, 1, 1)
    rows = qn_bound_probe(m, B, D, [-1, -2, -3], max_depth=12)
    ms = [r.included for _, r in rows]
    assert all(r.certified for _, r in rows)
    assert all(ms[i + 1] <= ms[i] for i in range(len(ms) - 1))
    assert ms[0] > 0


def test_qn_probe_agrees_with_membership_at_centers():
    m = veronese(F3, 2)
    ce = build_ceil_eps(6, 0, (4, 4))
    D = build_D(ce, 1)
    B = Ball.unit(F3, 1, 1)
    eps = Fraction(-1)
    atoms, _ = qn_short_vector_atoms(m, D, [eps], domain=B)
    assert measure_union(atoms, B, 10).certified
    # on every cell of resolution 7 the union is IN only where the center is
    # a member, and OUT only where it is not
    seen = {IN: 0, OUT: 0, UNKNOWN: 0}
    for cell in GridSpec(F3, 1, 7, B).cells():
        ctx: dict = {}
        statuses = {member_status(atom, cell, ctx) for atom in atoms}
        union = IN if IN in statuses else OUT if statuses == {OUT} else UNKNOWN
        seen[union] += 1
        if union != UNKNOWN:
            member, _, _ = qn_membership(m, cell.center, D, eps)
            assert member == (union == IN), cell
    assert seen[IN] and seen[OUT], seen


def test_qn_gradient_bound_decides_centers():
    # t = 3, t' = 0, (t_1, t_2) = (1, 2), eps = 1: on some cells every atom
    # that meets the value bound fails the gradient bound q^tau*, so tau*
    # alone puts them outside the union; each decided cell of resolution 6
    # agrees with the lattice membership of its center
    m = veronese(F3, 2)
    D = build_D(build_ceil_eps(3, 0, (1, 2)), 1)
    B = Ball.unit(F3, 1, 1)
    eps = Fraction(0)
    atoms, _ = qn_short_vector_atoms(m, D, [eps], domain=B)
    res = measure_union(atoms, B, 10)
    assert res.certified and res.included == Fraction(1, 9)
    by_gradient = 0
    for cell in GridSpec(F3, 1, 6, B).cells():
        ctx: dict = {}
        statuses = {member_status(atom, cell, ctx) for atom in atoms}
        union = IN if IN in statuses else OUT if statuses == {OUT} else UNKNOWN
        if union == UNKNOWN:
            continue
        member, _, _ = qn_membership(m, cell.center, D, eps)
        assert member == (union == IN), cell
        data = ctx[atoms[0].sd]
        if union == OUT and any(value_status(atom, data) == IN for atom in atoms):
            by_gradient += 1
    assert by_gradient > 0


def test_symbolic_wedge_matches_numeric():
    # the symbolic pi components of h(x)Delta, evaluated at a point, must
    # reproduce the numeric wedge of the D U_x images (the expanded-formula
    # structure) on rank-1 and rank-2 submodules
    m = veronese(F3, 2)
    ce = build_ceil_eps(2, 0, (1, 1))
    D = build_D(ce, 1)
    xs = [[Laurent(F3, [(-1, 1), (-2, 2)])], [Laurent(F3, [(-2, 1), (-3, 1)])]]
    for delta in primitive_submodules(F3, 2, 2, 0):
        comps = h_delta_components(m, D, delta)
        for x in xs:
            sym = None
            for g in comps:
                e = g.eval(x).abs_exp()
                if e is not None and (sym is None or e > sym):
                    sym = e
            cols = dux_columns(m, x, D)
            imgs = []
            for col in delta.basis:
                v = [Laurent.zero(F3)] * 4
                coefs = [col[0]] + list(col[1:])
                for cf, gen in zip(coefs, cols):
                    if cf.is_zero:
                        continue
                    for i in range(4):
                        v[i] = v[i] + cf.to_laurent() * gen[i]
                imgs.append(v)
            num = wedge_vectors(imgs).pi_exp(starred_indices(1))
            assert num == sym


def test_empirical_rho_positive_at_height_one():
    # sup_B ||h(x) Delta|| stays bounded away from 0 over all primitive
    # submodules up to height 1 (the empirical rho of condition (C))
    m = veronese(F3, 2)
    ce = build_ceil_eps(2, 0, (1, 1))
    D = build_D(ce, 1)
    V = Ball.unit(F3, 1, 1)
    worst = None
    count = 0
    for delta in primitive_submodules(F3, 2, 3, 1):
        comps = h_delta_components(m, D, delta)
        sup = sup_norm_family(comps, V)
        assert not sup.is_zero
        if worst is None or sup.exp < worst:
            worst = sup.exp
        count += 1
    assert count > 0 and worst is not None
