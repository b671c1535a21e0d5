"""Field, polynomial, Laurent and grid arithmetic tests."""

import itertools
import random
from fractions import Fraction

import pytest

from ffdioph.errors import PrecisionError
from ffdioph.ffield import (
    AbsValue,
    Ball,
    FieldSpec,
    GridSpec,
    Laurent,
    Poly,
    enumerate_polys,
    enumerate_shell,
    format_laurent,
    parse_laurent,
    parse_poly,
    shell_count,
    strict_below,
)

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F5 = FieldSpec(5)


def rand_laurent(spec, rng, lo=-3, hi=3, exact=True):
    terms = [(d, rng.randrange(spec.q)) for d in range(lo, hi + 1)]
    return Laurent(spec, terms, None if exact else lo)


# ---------------------------------------------------------------------------
# field arithmetic
# ---------------------------------------------------------------------------

def test_prime_field_add():
    assert F3.add(2, 2) == 1


def test_f2_inverse_identity():
    assert F2.inv(1) == 1


def test_f4_generator_square():
    # modulus t^2 + t + 1; generator t encodes as 2, t+1 as 3
    F4 = FieldSpec(2, 2, (1, 1, 1))
    t = 2
    assert F4.mul(t, t) == 3


def test_field_axioms_small():
    for spec in (F2, F3, FieldSpec(2, 2, (1, 1, 1))):
        for a in spec.elements():
            assert spec.add(a, 0) == a
            assert spec.mul(a, 1) == a
            for b in spec.elements():
                assert spec.add(a, b) == spec.add(b, a)
                assert spec.mul(a, b) == spec.mul(b, a)
        for a in range(1, spec.q):
            assert spec.mul(a, spec.inv(a)) == 1


def test_inv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        F3.inv(0)


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError):
        FieldSpec(2, 2, (1, 0, 1))  # t^2 + 1 = (t+1)^2 over F_2


def test_field_from_order():
    assert FieldSpec.from_order(3) == F3
    assert FieldSpec.from_order(4) == FieldSpec(2, 2, (1, 1, 1))
    # t^3 + t + 1 precedes t^3 + t^2 + 1; t^2 + 1 is reducible over F_3
    assert FieldSpec.from_order(8).modulus == (1, 1, 0, 1)
    assert FieldSpec.from_order(9).modulus == (1, 0, 1)
    for bad in (0, 1, 6, 12):
        with pytest.raises(ValueError):
            FieldSpec.from_order(bad)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def test_char2_square():
    x1 = Poly(F2, (1, 1))
    assert x1 * x1 == Poly(F2, (1, 0, 1))


def test_divmod_simple():
    q, r = divmod(Poly(F3, (1, 0, 1)), Poly.X(F3))
    assert q == Poly.X(F3) and r == Poly.one(F3)


def test_poly_cancellation():
    assert Poly(F2, (0, 1, 1)) + Poly(F2, (0, 1)) == Poly(F2, (0, 0, 1))


def test_divmod_random_roundtrip():
    rng = random.Random(7)
    for _ in range(200):
        spec = rng.choice([F2, F3, F5])
        a = Poly(spec, [rng.randrange(spec.q) for _ in range(rng.randrange(1, 7))])
        b = Poly(spec, [rng.randrange(spec.q) for _ in range(rng.randrange(1, 4))])
        if b.is_zero:
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero or r.deg < b.deg


def test_poly_ops_match_field_ops():
    # Poly's prime-field integer shortcuts against coefficientwise FieldSpec
    # arithmetic; F_4 goes through the general branch
    rng = random.Random(11)
    F4 = FieldSpec(2, 2, modulus=(1, 1, 1))
    for _ in range(200):
        K = rng.choice([F2, F3, F5, F4])
        a = [rng.randrange(K.q) for _ in range(rng.randrange(0, 6))]
        b = [rng.randrange(K.q) for _ in range(rng.randrange(0, 6))]
        n = max(len(a), len(b))
        pad = lambda cs: cs + [0] * (n - len(cs))
        total = [K.add(x, y) for x, y in zip(pad(a), pad(b))]
        prod = [0] * max(0, len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = K.add(prod[i + j], K.mul(x, y))
        A, B = Poly(K, a), Poly(K, b)
        assert A + B == Poly(K, total)
        assert -B == Poly(K, [K.neg(y) for y in b])
        assert A * B == Poly(K, prod)
        if not B.is_zero:
            q, r = divmod(A, B)
            assert q * B + r == A
            assert r.is_zero or r.deg < B.deg


# ---------------------------------------------------------------------------
# absolute values
# ---------------------------------------------------------------------------

def test_abs_zero():
    assert Laurent.zero(F3).abs_value().is_zero


def test_abs_low_terms():
    z = Laurent(F3, [(-3, 1), (-5, 1)])
    assert z.abs_value() == AbsValue(-3)


def test_abs_maybe_zero_raises():
    z = Laurent(F3, (), prec=-4)
    with pytest.raises(PrecisionError):
        z.abs_value()


def test_absvalue_order_and_mul():
    assert AbsValue.zero() < AbsValue(-10) < AbsValue(0) < AbsValue(3)
    assert AbsValue(2) * AbsValue(-5) == AbsValue(-3)
    assert (AbsValue(4) / AbsValue(1)) == AbsValue(3)
    assert AbsValue(2) ** Fraction(1, 2) == AbsValue(1)


def test_strict_below():
    assert strict_below(2) == 1
    assert strict_below(0) == -1
    assert strict_below(Fraction(5, 2)) == 2
    assert strict_below(Fraction(-5, 2)) == -3
    assert strict_below(-3) == -4


# ---------------------------------------------------------------------------
# Laurent arithmetic
# ---------------------------------------------------------------------------

def test_inv_x_plus_one():
    x = Laurent.X(F2) + Laurent.one(F2)
    ix = x.inv(4)
    assert ix == Laurent(F2, [(-1, 1), (-2, 1), (-3, 1), (-4, 1)], prec=-4)
    resid = x * ix - Laurent.one(F2)
    # all coefficients of the residual down to degree -3 vanish, so
    # |resid| <= q^-4: the inverse is correct through its whole window
    assert not resid.terms and resid.prec <= -3


def test_inv_monomial_exact():
    ix = Laurent.X(F3).inv()
    assert ix.exact and ix == Laurent.monomial(F3, 1, -1)


def test_add_cancellation_drops_valuation():
    z = Laurent(F2, [(1, 1), (-1, 1)]) + Laurent.X(F2)
    assert z == Laurent(F2, [(-1, 1)])


def test_mul_precision_window():
    a = Laurent(F2, [(0, 1)], prec=-2)  # 1 + O(X^-3)
    b = Laurent(F2, [(1, 1)])           # X, exact
    c = a * b
    assert c.terms == ((1, 1),) and c.prec == -1


def test_inversion_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Laurent.zero(F2).inv()
    with pytest.raises(PrecisionError):
        Laurent(F2, (), prec=0).inv()


def test_ultrametric_law_exhaustive_small():
    # |x+y| <= max(|x|,|y|), equality when |x| != |y|; window degrees -1..1
    degs = [1, 0, -1]
    vals = []
    for coeffs in itertools.product(range(2), repeat=3):
        vals.append(Laurent(F2, list(zip(degs, coeffs))))
    for x in vals:
        for y in vals:
            s = x + y
            ax, ay, asum = x.abs_value(), y.abs_value(), s.abs_value()
            assert asum <= max(ax, ay)
            if ax != ay:
                assert asum == max(ax, ay)


def test_multiplicativity_random():
    rng = random.Random(11)
    for _ in range(300):
        spec = rng.choice([F2, F3])
        x, y = rand_laurent(spec, rng), rand_laurent(spec, rng)
        px, py, pxy = x.abs_value(), y.abs_value(), (x * y).abs_value()
        assert pxy == px * py


def test_poly_part_roundtrip():
    rng = random.Random(13)
    for _ in range(200):
        spec = rng.choice([F2, F3])
        z = rand_laurent(spec, rng, lo=-4, hi=3)
        head, tail = z.poly_part()
        assert head.to_laurent() + tail == z
        assert tail.is_zero or tail.abs_value() <= AbsValue(-1)


def test_poly_part_examples():
    head, tail = Laurent(F3, [(2, 1), (0, 1), (-1, 1)]).poly_part()
    assert head == Poly(F3, (1, 0, 1)) and tail == Laurent.monomial(F3, 1, -1)
    head, tail = Laurent.monomial(F3, 1, -2).poly_part()
    assert head.is_zero and tail == Laurent.monomial(F3, 1, -2)


def test_poly_part_precision_guard():
    with pytest.raises(PrecisionError):
        Laurent(F2, [(3, 1)], prec=2).poly_part()


def test_div_to_floor_exactness():
    num = Laurent(F3, [(3, 1), (0, 2)])
    den = Laurent(F3, [(1, 1), (0, 1)])
    qt = num.div_to_floor(den, -6)
    resid = qt * den - num
    assert not resid.terms
    # division by a monomial is exact
    qt2 = num.div_to_floor(Laurent.X(F3), -10)
    assert qt2.exact and qt2 * Laurent.X(F3) == num


# ---------------------------------------------------------------------------
# shells
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q,n,t", [(2, 1, 0), (2, 1, 2), (2, 2, 1), (3, 1, 0), (3, 2, 1), (3, 1, 3)])
def test_shell_count_matches_formula(q, n, t):
    spec = FieldSpec(q)
    shells = list(enumerate_shell(spec, n, t))
    assert len(shells) == shell_count(q, n, t)
    assert len(set(shells)) == len(shells)
    for a in shells:
        assert max(p.deg for p in a if not p.is_zero) == t


def test_shell_q3_n1_t0():
    shells = list(enumerate_shell(F3, 1, 0))
    assert [a[0].coeffs for a in shells] == [(1,), (2,)]


def test_shell_q2_n1_t2_brute():
    # degree-2 binary polynomials: X^2, X^2+1, X^2+X, X^2+X+1
    shells = {a[0].coeffs for a in enumerate_shell(F2, 1, 2)}
    assert shells == {(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)}


def test_shell_negative_t_rejected():
    with pytest.raises(ValueError):
        list(enumerate_shell(F2, 1, -1))


# ---------------------------------------------------------------------------
# balls / grids
# ---------------------------------------------------------------------------

def test_cells_basic_counts():
    g = GridSpec(F2, 1, 3)
    cells = list(g.cells())
    assert len(cells) == 4 == g.cell_count
    assert sum(c.measure() for c in cells) == Fraction(1, 2)


def test_cells_d2():
    g = GridSpec(F3, 2, 2)
    assert len(list(g.cells())) == 9


def test_cells_identity_partition():
    g = GridSpec(F3, 1, 1)
    cells = list(g.cells())
    assert len(cells) == 1 and cells[0] == g.resolved_domain


def test_cells_disjoint_exhaustive():
    g = GridSpec(F2, 1, 4)
    cells = list(g.cells())
    for b1, b2 in itertools.combinations(cells, 2):
        assert not b1.contains(b2.center)


def test_cell_measures_sum_exact():
    for q, d, N in [(2, 1, 5), (3, 1, 3), (2, 2, 3)]:
        g = GridSpec(FieldSpec(q), d, N)
        assert sum(c.measure() for c in g.cells()) == g.resolved_domain.measure()


def test_balls_disjoint_or_nested_random():
    rng = random.Random(5)
    g = GridSpec(F2, 1, 4)
    cells = list(g.cells())
    for _ in range(100):
        b1, b2 = rng.choice(cells), rng.choice(cells)
        r = rng.randrange(1, 4)
        big = Ball(b1.center, r)
        inter_nested = (b2.radius_exp >= big.radius_exp and big.contains(b2.center)
                        or big.radius_exp >= b2.radius_exp and b2.contains(big.center))
        disjoint = not big.contains(b2.center) and not b2.contains(big.center)
        assert inter_nested or disjoint


def test_subdivide_children_equal_the_added_digit():
    # an exact coordinate ending above degree -r takes the digit appended;
    # the children are the ones of c + a X^-r, in the same order, for exact,
    # zero and windowed coordinates and for a digit at or below -r
    F4 = FieldSpec.from_order(4)
    balls = [
        Ball((Laurent(F3, [(0, 1), (-1, 2)]),), 2),
        Ball((Laurent.zero(F4), Laurent(F4, [(-1, 3)])), 2),
        Ball((Laurent(F3, [(-1, 1)], -5), Laurent.zero(F3)), 2),
        Ball((Laurent(F3, [(-1, 1), (-3, 2)]),), 2),
        Ball((Laurent(F2, [(-2, 1)]), Laurent(F2, [(-1, 1)])), 2),
    ]
    for ball in balls:
        K, r = ball.spec, ball.radius_exp
        want = [tuple(c + Laurent.monomial(K, a, -r) if a else c
                      for c, a in zip(ball.center, digits))
                for digits in itertools.product(K.elements(), repeat=ball.d)]
        got = list(ball.subdivide())
        assert [child.center for child in got] == want
        assert {child.radius_exp for child in got} == {r + 1}


def test_resolution_below_radius_rejected():
    with pytest.raises(ValueError):
        GridSpec(F2, 1, 0)


# ---------------------------------------------------------------------------
# textual interchange format
# ---------------------------------------------------------------------------

def test_format_roundtrip():
    z = Laurent(F3, [(2, 1), (0, 1), (-1, 1)])
    assert format_laurent(z) == "X^2+1+X^-1 (mod 3, prec 4, exact)"
    assert parse_laurent(format_laurent(z)) == z
    w = Laurent(F3, [(0, 2), (-2, 1)], prec=-3)
    assert parse_laurent(format_laurent(w)) == w


def test_format_roundtrip_f4():
    F4 = FieldSpec(2, 2, (1, 1, 1))
    rng = random.Random(4)
    for _ in range(200):
        degs = rng.sample(range(-6, 4), rng.randint(1, 5))
        z = Laurent(F4, [(d, rng.randrange(1, 4)) for d in degs])
        if rng.random() < 0.5:
            z = Laurent(F4, z.terms, min(degs) - rng.randint(0, 3))
        text = format_laurent(z)
        assert "(mod 4," in text
        assert parse_laurent(text) == z
        assert parse_laurent(text, F4) == z


def test_parse_poly():
    p = parse_poly("X^2+2*X+1 (mod 3)")
    assert p == Poly(F3, (1, 2, 1))
    with pytest.raises(ValueError):
        parse_poly("X^-1+1 (mod 3)")


def test_parse_negative_coeff():
    assert parse_laurent("-X+1 (mod 3)") == Laurent(F3, [(1, 2), (0, 1)])


def test_enumerate_polys_count():
    assert len(list(enumerate_polys(F3, 2))) == 27
