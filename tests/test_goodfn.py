"""Sup norms, sublevel measures, goodness certificates, QExp arithmetic."""

import random
from fractions import Fraction

import pytest

from ffdioph.cells import measure_union
from ffdioph.ffield import AbsValue, Ball, FieldSpec, GridSpec, Laurent, strict_below
from ffdioph.goodfn import (
    PolyAbsAtom,
    QExp,
    certify_good,
    good_bound_holds,
    poly_data,
    sublevel_measure,
    sup_norm_on_ball,
)
from ffdioph.latdyn import check_orthonormal
from ffdioph.ultracalc import MPoly

F2 = FieldSpec(2)
F3 = FieldSpec(3)

O3 = Ball.unit(F3, 1, 0)
O2 = Ball.unit(F2, 1, 0)


def mono(spec, d, m, c=1):
    return MPoly.monomial(spec, d, m, Laurent.const(spec, c))


def naive_sublevel(g, ball, tau, depth):
    """Independent oracle: plain full-depth sweep, no unions, no shortcuts."""
    total = Fraction(0)
    stack = [ball]
    while stack:
        cell = stack.pop()
        rec = g.recenter(cell.center)
        v = rec.terms.get((0,) * g.d)
        v_exp = None if v is None else v.abs_exp()
        var = None
        for mm, c in rec.terms.items():
            w = sum(mm)
            if w == 0:
                continue
            e = c.abs_exp()
            if e is None:
                continue
            e -= cell.radius_exp * w
            if var is None or e > var:
                var = e
        if v_exp is None:
            inside = var is None or var <= tau
            if inside:
                total += cell.measure()
                continue
        else:
            if var is None or v_exp > var:
                if v_exp <= tau and (var is None or var <= tau):
                    total += cell.measure()
                    continue
                if v_exp > tau:
                    continue
            elif v_exp <= tau and var is not None and var <= tau:
                total += cell.measure()
                continue
        if cell.radius_exp >= depth:
            raise AssertionError("oracle undecided; enlarge depth")
        stack.extend(cell.subdivide())
    return total


# ---------------------------------------------------------------------------
# QExp
# ---------------------------------------------------------------------------

def test_qexp_ordering():
    a = QExp(3, Fraction(2, 3), Fraction(1, 2))   # (2/3) sqrt(3) ~ 1.1547
    b = QExp(3, 1, 0)
    assert b < a
    assert QExp(3, 1, Fraction(1, 2)) == QExp(3, 1, Fraction(1, 2))
    assert QExp.zero(3) < QExp(3, Fraction(1, 10**9))


def test_qexp_mul_div_pow():
    a = QExp(2, Fraction(3, 4), 2)
    b = QExp(2, Fraction(1, 2), -1)
    assert a * b == QExp(2, Fraction(3, 8), 1)
    assert a / b == QExp(2, Fraction(3, 2), 3)


def test_qexp_cross_base_rejected():
    with pytest.raises(ValueError):
        QExp(2, 1, 0) * QExp(3, 1, 0)


# ---------------------------------------------------------------------------
# sup norms
# ---------------------------------------------------------------------------

def test_sup_norm_examples():
    assert sup_norm_on_ball(MPoly.var(F3, 1, 0), O3) == AbsValue(0)
    g2 = mono(F3, 1, (2,))
    assert sup_norm_on_ball(g2, Ball.unit(F3, 1, 1)) == AbsValue(-2)


def test_sup_norm_char2_cancellation():
    # x^2 + x on O over F_2: the constant coefficient of x^2+x vanishes for
    # every x (Frobenius), so the sup is q^-1, attained at x with c_{-1} != 0
    g = mono(F2, 1, (2,)) + MPoly.var(F2, 1, 0)
    assert sup_norm_on_ball(g, O2) == AbsValue(-1)


def test_sup_norm_matches_grid_max():
    rng = random.Random(5)
    for _ in range(25):
        spec = rng.choice([F2, F3])
        terms = {}
        for _ in range(rng.randrange(1, 5)):
            terms[(rng.randrange(4),)] = Laurent(
                spec, [(rng.randrange(-2, 2), rng.randrange(spec.q))]
            )
        g = MPoly(spec, 1, terms)
        if g.is_zero:
            continue
        ball = Ball.unit(spec, 1, 1)
        sup = sup_norm_on_ball(g, ball)
        grid_max = AbsValue.zero()
        for cell in GridSpec(spec, 1, 6, ball).cells():
            v = g.eval(cell.center).abs_value()
            if v > grid_max:
                grid_max = v
        assert grid_max <= sup
        assert grid_max == sup  # attained at depth 6 for degree <= 3 data


# ---------------------------------------------------------------------------
# sublevel measures
# ---------------------------------------------------------------------------

def test_sublevel_linear_strict():
    # {|x| < q^-k} = {|x| <= q^-(k+1)}: measure q^-(k+1)
    gx = MPoly.var(F3, 1, 0)
    for k in (1, 2, 3):
        rep = sublevel_measure(gx, O3, -k, resolution=6)
        assert rep.certified and rep.measure == Fraction(1, 3 ** (k + 1))


def test_sublevel_square_boundary():
    # {|x^2| < q^-2} = {|x| <= q^-2}: the boundary |x| = q^-1 is excluded
    g2 = mono(F3, 1, (2,))
    rep = sublevel_measure(g2, O3, -2, resolution=6)
    assert rep.certified and rep.measure == Fraction(1, 9)


def test_sublevel_constant():
    gc = MPoly.const(F3, 1, Laurent.one(F3))
    assert sublevel_measure(gc, O3, 0, resolution=4).measure == 0


def test_sublevel_monotone_and_saturates():
    g = mono(F3, 1, (2,)) + MPoly.var(F3, 1, 0)
    prev = None
    for e in range(-5, 2):
        rep = sublevel_measure(g, O3, e, resolution=8)
        assert rep.certified
        if prev is not None:
            assert rep.measure >= prev
        prev = rep.measure
    assert sublevel_measure(g, O3, 1, resolution=8).measure == O3.measure()


def test_sublevel_matches_naive_oracle():
    rng = random.Random(77)
    for _ in range(20):
        spec = rng.choice([F2, F3])
        ball = Ball.unit(spec, 1, 0)
        terms = {}
        for _ in range(rng.randrange(1, 5)):
            terms[(rng.randrange(4),)] = Laurent(
                spec, [(rng.randrange(-1, 2), rng.randrange(spec.q))]
            )
        g = MPoly(spec, 1, terms)
        if g.is_zero:
            continue
        e = -rng.randrange(1, 4)
        rep = sublevel_measure(g, ball, e, resolution=8, max_depth=12)
        oracle = naive_sublevel(g, ball, strict_below(e), 12)
        assert rep.certified and rep.measure == oracle


# ---------------------------------------------------------------------------
# goodness certification
# ---------------------------------------------------------------------------

def test_certify_good_linear():
    cert = certify_good(MPoly.var(F3, 1, 0), O3, 1, [-1, -2, -3, -4, -5])
    # strict thresholds make the sublevels q^(e-1), so C = 1/q exactly
    assert cert.C == QExp(3, Fraction(1, 3))
    assert cert.certified


def test_certify_good_scaling_invariance():
    g = MPoly.var(F3, 1, 0)
    c1 = certify_good(g, O3, 1, [-1, -2, -3])
    c2 = certify_good(g.scale(Laurent.X(F3, 7)), O3, 1, [-1, -2, -3])
    c3 = certify_good(g.scale(Laurent.monomial(F3, 2, -4)), O3, 1, [-1, -2, -3])
    assert c1.C == c2.C == c3.C


def test_certify_good_square_alpha_half():
    cert = certify_good(mono(F3, 1, (2,)), O3, Fraction(1, 2), [-1, -2, -3, -4, -5])
    assert cert.C <= QExp(3, 1)


def test_good_bound_holds_api():
    q = 3
    C = QExp(q, 1)
    assert good_bound_holds(Fraction(1, 27), Fraction(1), Fraction(0), Fraction(-3), Fraction(1), C, q)
    assert not good_bound_holds(Fraction(1, 3), Fraction(1), Fraction(0), Fraction(-3), Fraction(1), C, q)


def test_poly_goodness_random_family():
    # every random polynomial of degree <= k in one variable is
    # (C, 1/k)-good with the family's certified constant: zero violations
    rng = random.Random(8)
    q = 3
    alpha = Fraction(1, 3)
    certs = []
    polys = []
    for _ in range(12):
        terms = {}
        for e in range(4):
            c = rng.randrange(q)
            if c:
                terms[(e,)] = Laurent.const(F3, c)
        g = MPoly(F3, 1, terms)
        if g.is_zero:
            continue
        polys.append(g)
        certs.append(certify_good(g, O3, alpha, [-1, -2, -3, -4, -5]))
    C = max(c.C for c in certs)
    for g, cert in zip(polys, certs):
        for e, measure, _ in cert.rows:
            assert good_bound_holds(
                measure, O3.measure(), Fraction(cert.sup.exp), e, alpha, C, q
            )


# ---------------------------------------------------------------------------
# orthonormality and Besicovitch
# ---------------------------------------------------------------------------

def test_orthonormal_standard_basis():
    e1 = [Laurent.one(F2), Laurent.zero(F2)]
    e2 = [Laurent.zero(F2), Laurent.one(F2)]
    assert check_orthonormal([e1, e2])


def test_orthonormal_unimodular_pair():
    v1 = [Laurent.one(F2), Laurent.zero(F2)]
    v2 = [Laurent.one(F2), Laurent.one(F2)]
    assert check_orthonormal([v1, v2])


def test_orthonormal_fails_on_short_vector():
    v1 = [Laurent.one(F3), Laurent.zero(F3)]
    v2 = [Laurent.X(F3, -1), Laurent.X(F3, -1)]
    assert not check_orthonormal([v1, v2])


def test_orthonormal_fails_on_wedge_collapse():
    v1 = [Laurent.one(F3), Laurent.zero(F3)]
    v2 = [Laurent.one(F3), Laurent.X(F3, -1)]
    # both norms 1 but the wedge has norm q^-1
    assert not check_orthonormal([v1, v2])


def test_measure_union_or_semantics():
    # union of |x| <= q^-2 and |x - X^-1| <= q^-2 inside X^-1 O
    ball = Ball.unit(F3, 1, 1)
    shifted = MPoly.var(F3, 1, 0) + MPoly.const(F3, 1, Laurent.monomial(F3, 2, -1))
    sd = poly_data([MPoly.var(F3, 1, 0), shifted], ball)
    a1, a2 = PolyAbsAtom(sd, 0, -2), PolyAbsAtom(sd, 1, -2)
    res = measure_union([a1, a2], ball, 6)
    assert res.certified and res.included == Fraction(2, 9)


def test_labelled_sweep_reads_every_subunion():
    # b's set sits inside a's, so cells IN for a stay live for b
    x = MPoly.var(F3, 1, 0)
    c = MPoly.const(F3, 1, Laurent.X(F3, -2))
    sd = poly_data([x, x - c, x * x], O3)
    atoms = [PolyAbsAtom(sd, 0, -1), PolyAbsAtom(sd, 1, -3), PolyAbsAtom(sd, 2, -3)]
    labels = ["a", "b", "a"]
    full = measure_union(atoms, O3, 6, labels)
    plain = measure_union(atoms, O3, 6)
    assert (full.included, full.undecided) == (plain.included, plain.undecided)
    for keep in (["a"], ["b"], ["a", "b"], []):
        alone = measure_union([a for a, lab in zip(atoms, labels) if lab in keep], O3, 6)
        got = full.restrict(keep)
        assert (got.included, got.undecided) == (alone.included, alone.undecided)
    assert full.restrict(["a", "b"]).restrict(["b"]).included == full.restrict(["b"]).included
