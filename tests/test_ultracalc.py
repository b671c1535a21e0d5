"""Difference quotients, skew gradients and condition checks."""

import random

from hypothesis import given, settings, strategies as st

from oracles import difference_quotient_recursive

from ffdioph.ffield import AbsValue, Ball, FieldSpec, GridSpec, Laurent
from ffdioph.ultracalc import (
    AnalyticMap,
    MPoly,
    VarTable,
    check_conditions,
    components_independent,
    difference_quotient,
    multi_difference,
    skew_gradient,
    veronese,
)

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F5 = FieldSpec(5)


def mono(spec, d, m, c=1):
    return MPoly.monomial(spec, d, m, Laurent.const(spec, c))


def rand_point(spec, rng, lo=-3, hi=-1):
    return Laurent(spec, [(d, rng.randrange(spec.q)) for d in range(lo, hi + 1)])


def rand_mpoly(spec, rng, d=1, deg=4):
    terms = {}
    for _ in range(rng.randrange(1, 6)):
        m = tuple(rng.randrange(deg + 1) for _ in range(d))
        if sum(m) > deg:
            continue
        terms[m] = Laurent(spec, [(rng.randrange(-2, 2), rng.randrange(spec.q))])
    return MPoly(spec, d, terms)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_eval_veronese():
    m = veronese(F3, 2)
    x = Laurent.X(F3, -1)
    assert m.eval([x]) == (x, x * x)


def test_eval_zero_map():
    m = AnalyticMap(F3, 1, 1, (MPoly.zero(F3, 1),))
    assert m.eval([Laurent.X(F3, -1)])[0].is_zero


def test_eval_product_map():
    f = AnalyticMap(F2, 2, 2, (MPoly.var(F2, 2, 0), mono(F2, 2, (1, 1))))
    x = [Laurent.X(F2, -1), Laurent.X(F2, -1)]
    v = f.eval(x)
    assert v[0] == Laurent.X(F2, -1)
    assert v[1] == Laurent.X(F2, -2)


def _eval_by_products(g, point):
    """g(point) as sum_beta c_beta * x^beta, every factor a Laurent product."""
    acc = Laurent.zero(g.spec)
    for m, c in g.terms.items():
        v = c
        for x, e in zip(point, m):
            if e:
                pw = x
                for _ in range(e - 1):
                    pw = pw * x
                v = v * pw
        acc = acc + v
    return acc


@st.composite
def _laurents(draw, spec, kind):
    """A nonzero exact constant, an exact Laurent, or one known to a horizon."""
    elem = st.integers(1, spec.q - 1)
    if kind == "constant":
        return Laurent.const(spec, draw(elem))
    degs = draw(st.lists(st.integers(-4, 2), min_size=1, max_size=3, unique=True))
    terms = [(k, draw(elem)) for k in degs]
    prec = draw(st.integers(-6, min(degs))) if kind == "windowed" else None
    return Laurent(spec, terms, prec)


@st.composite
def _evaluations(draw):
    spec = draw(st.sampled_from([F2, F3, FieldSpec.from_order(4)]))
    d = draw(st.integers(1, 2))
    kinds = st.sampled_from(["constant", "exact", "windowed"])
    monos = st.tuples(*[st.integers(0, 3)] * d)
    terms = {m: draw(_laurents(spec, draw(kinds)))
             for m in draw(st.lists(monos, min_size=1, max_size=5, unique=True))}
    point = [draw(_laurents(spec, draw(st.sampled_from(["exact", "windowed"]))))
             for _ in range(d)]
    return MPoly(spec, d, terms), point


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_evaluations())
def test_eval_matches_laurent_products(case):
    g, point = case
    got, want = g.eval(point), _eval_by_products(g, point)
    assert (got.terms, got.prec) == (want.terms, want.prec)


# ---------------------------------------------------------------------------
# difference quotients
# ---------------------------------------------------------------------------

def test_phi1_of_square_is_sum():
    g = mono(F3, 1, (2,))
    p1, p2 = Laurent.X(F3, -1), Laurent.monomial(F3, 2, -2)
    assert difference_quotient(g, 1, 0, [p1, p2]) == p1 + p2


def test_phi2_of_square_is_one():
    g = mono(F5, 1, (2,))
    pts = [Laurent.X(F5, -1), Laurent.X(F5, -2), Laurent.zero(F5)]
    assert difference_quotient(g, 2, 0, pts) == Laurent.one(F5)


def test_derivative_identity_f5():
    # g = x^3 over F_5: 2! PhiBar^2 g(x,x,x) = 6x = g''(x)
    g = mono(F5, 1, (3,))
    x = Laurent.monomial(F5, 2, -1)
    lhs = difference_quotient(g, 2, 0, [x, x, x]).scale(2)
    rhs = g.partial(0).partial(0).eval([x])
    assert lhs == rhs


def test_derivative_identity_vanishing_characteristic():
    # k = 2 in characteristic 2: both sides must vanish
    g = mono(F2, 1, (2,)) + mono(F2, 1, (3,))
    x = Laurent.X(F2, -1)
    lhs = difference_quotient(g, 2, 0, [x, x, x]).scale(2 % 2)
    rhs = g.partial(0).partial(0).eval([x])
    assert lhs.is_zero and rhs.is_zero


def test_symmetry_random():
    rng = random.Random(3)
    for _ in range(40):
        spec = rng.choice([F2, F3, F5])
        g = rand_mpoly(spec, rng)
        k = rng.randrange(1, 4)
        pts = []
        seen = set()
        while len(pts) < k + 1:
            p = rand_point(spec, rng)
            if p.terms not in seen:
                seen.add(p.terms)
                pts.append(p)
        base = difference_quotient(g, k, 0, pts)
        perm = pts[:]
        rng.shuffle(perm)
        assert difference_quotient(g, k, 0, perm) == base


def test_recursive_agrees_with_closed_form():
    rng = random.Random(9)
    for _ in range(25):
        spec = rng.choice([F3, F5])
        g = rand_mpoly(spec, rng)
        k = rng.randrange(1, 3)
        pts = []
        seen = set()
        while len(pts) < k + 1:
            p = rand_point(spec, rng)
            if p.terms not in seen:
                seen.add(p.terms)
                pts.append(p)
        closed = difference_quotient(g, k, 0, pts)
        rec = difference_quotient_recursive(g, k, 0, pts)
        # the recursive route truncates; compare on the common window
        diff = closed - rec
        assert not diff.terms, (closed, rec)


def test_multi_difference_examples():
    g12 = mono(F3, 2, (1, 1))
    pts = [[Laurent.X(F3, -1), Laurent.zero(F3)], [Laurent.X(F3, -2), Laurent.one(F3)]]
    # beta = (1,0): value is the second-axis point product sum -> x2 evaluated
    v = multi_difference(g12, (1, 0), [[Laurent.X(F3, -1), Laurent.zero(F3)], [Laurent.X(F3, -2)]])
    assert v == Laurent.X(F3, -2)
    assert multi_difference(g12, (1, 1), pts) == Laurent.one(F3)
    g = mono(F3, 2, (2, 1))
    v = multi_difference(g, (2, 0), [[Laurent.X(F3, -1), Laurent.zero(F3), Laurent.one(F3)], [Laurent.X(F3, -5)]])
    assert v == Laurent.X(F3, -5)


def test_multi_difference_partial_identity():
    # beta! PhiBar_beta g(diagonal) = partial_beta g
    rng = random.Random(17)
    for _ in range(20):
        spec = rng.choice([F3, F5])
        g = rand_mpoly(spec, rng, d=2, deg=3)
        beta = (rng.randrange(3), rng.randrange(2))
        x = [rand_point(spec, rng), rand_point(spec, rng)]
        pts = [[x[0]] * (beta[0] + 1), [x[1]] * (beta[1] + 1)]
        fact = 1
        for b in beta:
            for i in range(1, b + 1):
                fact *= i
        lhs = multi_difference(g, beta, pts).scale(fact % spec.p)
        rhs = g
        for j, e in enumerate(beta):  # the formal partial d^beta g
            for _ in range(e):
                rhs = rhs.partial(j)
        rhs = rhs.eval(x)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# skew gradient
# ---------------------------------------------------------------------------

def test_skew_gradient_d1_example():
    g1 = MPoly.var(F3, 1, 0)
    g2 = mono(F3, 1, (2,))
    sg = skew_gradient(g1, g2)
    assert sg[0] == mono(F3, 1, (2,))  # 2x^2 - x^2 = x^2 in any characteristic


def test_skew_gradient_diagonal_zero():
    g = mono(F5, 1, (3,)) + MPoly.var(F5, 1, 0)
    assert all(c.is_zero for c in skew_gradient(g, g))


def test_skew_gradient_of_one():
    g = mono(F3, 1, (2,)) + MPoly.one(F3, 1)
    sg = skew_gradient(MPoly.one(F3, 1), g)
    assert sg == g.gradient()


def test_skew_gradient_antisymmetric_bilinear():
    rng = random.Random(23)
    for _ in range(20):
        spec = rng.choice([F2, F3])
        g1, g2 = rand_mpoly(spec, rng, d=2, deg=3), rand_mpoly(spec, rng, d=2, deg=3)
        s12 = skew_gradient(g1, g2)
        s21 = skew_gradient(g2, g1)
        assert all((a + b).is_zero for a, b in zip(s12, s21))
        c = Laurent.X(spec, 1)
        scaled = skew_gradient(g1.scale(c), g2)
        assert all(x == y.scale(c) for x, y in zip(scaled, s12))


# ---------------------------------------------------------------------------
# conditions (II)-(VI)
# ---------------------------------------------------------------------------

def test_veronese_conditions_pass():
    rep = check_conditions(veronese(F3, 2))
    assert rep.all_ok


def test_second_difference_violation_flagged():
    bad = AnalyticMap(
        F3, 1, 2,
        (MPoly.var(F3, 1, 0), MPoly.monomial(F3, 1, (2,), Laurent.X(F3))),
    )
    rep = check_conditions(bad)
    assert not rep.second_diff_ok
    assert any("second difference" in v for v in rep.violations)


def test_constant_map_dependent():
    cm = AnalyticMap(F3, 1, 1, (MPoly.one(F3, 1),))
    rep = check_conditions(cm)
    assert not rep.independent and not rep.f1_is_x1


def test_independence_veronese():
    assert components_independent(veronese(F2, 3))


def test_conditions_with_a_windowed_coefficient():
    # c = 1 + X^-1 + O(X^-4) is known on a window only: the minor c of
    # (1, x1, c x1^2) has a known nonzero term, while 1, x1, c x1 are
    # dependent (c f1 - f2 = 0) and every maximal minor vanishes
    c = Laurent(F3, [(0, 1), (-1, 1)], prec=-4)
    x1 = MPoly.var(F3, 1, 0)
    curve = AnalyticMap(F3, 1, 2, (x1, MPoly.monomial(F3, 1, (2,), c)))
    line = AnalyticMap(F3, 1, 2, (x1, MPoly.monomial(F3, 1, (1,), c)))
    assert check_conditions(curve).all_ok
    rep = check_conditions(line)
    assert not rep.independent
    assert rep.violations == ["condition III: 1, f1..fn linearly dependent over F"]


def test_independence_over_two_variables():
    # five monomials, so five maximal minors: one is nonzero for (x1, x2,
    # x1 x2 + x1^2), and all vanish for (x1, g, x1 + g)
    x1, x2 = MPoly.var(F3, 2, 0), MPoly.var(F3, 2, 1)
    assert components_independent(AnalyticMap(F3, 2, 3, (x1, x2, x1 * x2 + x1 * x1)))
    g = x2 + x1 * x2 + x2 * x2
    assert not components_independent(AnalyticMap(F3, 2, 3, (x1, g, x1 + g)))


def test_theta_conditions():
    theta = MPoly.monomial(F3, 1, (1,), Laurent.X(F3, 2))
    m = veronese(F3, 2, theta=theta)
    rep = check_conditions(m)
    assert not rep.theta_ok  # |d theta| = q^2 q^{-1} = q > 1 on the domain


def test_ultrametric_mean_value_on_grid():
    # |g(x) - g(y)| <= max(grad bound, second-difference bound) ||x - y||
    m = veronese(F3, 2)
    g = m.components[1]
    cells = list(GridSpec(F3, 1, 3).cells())
    pts = [c.center for c in cells]
    for x in pts:
        for y in pts:
            diff = (g.eval(x) - g.eval(y)).abs_value()
            sep = (x[0] - y[0]).abs_value()
            if sep.is_zero:
                assert diff.is_zero
                continue
            # grad and second-difference bounds are both <= 1 here
            assert diff <= AbsValue(0) * sep


# ---------------------------------------------------------------------------
# the coefficient-bound table
# ---------------------------------------------------------------------------

def _coef_max(rec, r, min_w, shift=0):
    """max over monomials of weight >= min_w of |c| q^(-r (w - shift)), as
    an exponent, straight from the recentered terms."""
    exps = [c.abs_exp() - r * (sum(m) - shift)
            for m, c in rec.terms.items() if sum(m) >= min_w]
    return max(exps, default=None)


def _leq(e, bound):
    return e is None or (bound is not None and e <= bound)


def test_var_table_matches_recentered_formulas_and_bounds_subcells():
    rng = random.Random(20261018)
    F4 = FieldSpec(2, 2, (1, 1, 1))
    for spec in (F2, F3, F4):
        for _ in range(6):
            d = rng.choice((1, 2))
            g, h = rand_mpoly(spec, rng, d=d, deg=3), rand_mpoly(spec, rng, d=d, deg=3)
            r0 = rng.randrange(4)
            center = tuple(rand_point(spec, rng, lo=-4, hi=1) for _ in range(d))
            B = Ball(center, r0)
            vt, vh = VarTable(g, B), VarTable(h, B)
            rec = g.recenter(center)
            assert vt.sup_exp == _coef_max(rec, r0, 0)
            assert vt.weight_exp(0) == vt.sup_exp
            assert vt.var_exp(r0) == _coef_max(rec, r0, 1)
            assert vt.weight_exp(2) == _coef_max(rec, r0, 2, shift=2)
            # the weight >= 2 part of X^s1 g + X^s2 h, as ResonantDistAtom folds it
            s1, s2 = rng.randrange(-1, 3), rng.randrange(-1, 3)
            sec = VarTable.fold([(vt, s1), (vh, s2)], min_weight=2)
            assert sec.sup_exp is None
            G = g.scale(Laurent.X(spec, s1)) + h.scale(Laurent.X(spec, s2))
            # soundness on subcells one and two levels down
            level = [B]
            for _ in range(2):
                kids = [k for cell in level for k in cell.subdivide()]
                level = rng.sample(kids, min(3, len(kids)))
                for cell in level:
                    r = cell.radius_exp
                    assert _leq(_coef_max(g.recenter(cell.center), r, 1), vt.var_exp(r))
                    assert _leq(g.eval(cell.center).abs_exp(), vt.sup_exp)
                    assert _leq(_coef_max(G.recenter(cell.center), r, 2), sec.var_exp(r))
