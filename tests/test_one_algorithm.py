"""The single algorithms against the package's earlier second ones: the
Laurent inverse by long division against the Newton inverse, D U_x columns
from the symbolic ones against the pointwise columns, GridSpec cells by
subdivision against the grid built by Laurent additions, and the sup norm
and the resonant gate, which read one VarTable per domain, against the
forms that recenter at every cell, over F_2, F_3, F_5, F_4 and F_9 with
exact and windowed values; and the one term splitter, which reads Laurent
literals and map polynomials, on round trips."""

import re

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (additive_grid_cells, newton_inv, percell_resonant_gate,
                     percell_sup_norm_on_ball, pointwise_dux_columns)

from ffdioph.errors import PrecisionError
from ffdioph.ffield import AbsValue, Ball, FieldSpec, GridSpec, Laurent, Poly, parse_laurent
from ffdioph.latdyn import DiagonalScaling, dux_columns
from ffdioph.ubiq import ResonantFn, resonant_gate
from ffdioph.ultracalc import AnalyticMap, MPoly, sup_norm_on_ball
from ffdioph.xcli import parse_mpoly

FIELDS = (FieldSpec(2), FieldSpec(3), FieldSpec(5), FieldSpec.from_order(4),
          FieldSpec.from_order(9))
F3 = FieldSpec(3)


@st.composite
def _units(draw, spec, windowed):
    """A value with a nonzero top digit at degree -3 to 3 and up to 4 digits
    below it; a windowed one is known from 0 to 5 degrees below its top."""
    top = draw(st.integers(-3, 3))
    terms = [(top, draw(st.integers(1, spec.q - 1)))]
    terms += [(top - i, draw(st.integers(0, spec.q - 1))) for i in range(1, draw(st.integers(0, 4)) + 1)]
    return Laurent(spec, terms, top - draw(st.integers(0, 5)) if windowed else None)


@st.composite
def _laurents(draw, spec, windowed, lo=-4, hi=2):
    """Digits (zeros included) at degrees lo..hi; with ``windowed`` maybe
    a horizon anywhere from below lo to above hi."""
    degs = draw(st.lists(st.integers(lo, hi), max_size=4, unique=True))
    terms = [(d, draw(st.integers(0, spec.q - 1))) for d in degs]
    prec = draw(st.integers(lo - 3, hi + 1)) if windowed and draw(st.booleans()) else None
    return Laurent(spec, terms, prec)


# ---------------------------------------------------------------------------
# the inverse
# ---------------------------------------------------------------------------

@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_inverse_matches_newton_at_the_default_window(data):
    spec = data.draw(st.sampled_from(FIELDS))
    z = data.draw(_units(spec, data.draw(st.booleans())))
    assert z.inv() == newton_inv(z)


def _assert_claims_hold(got, z, below):
    """Every digit got claims is that digit of 1/c for c = z completed by
    zeros and for c = z completed by the digits ``below`` under its window."""
    top = z.top_deg
    for c in (Laurent(z.spec, z.terms), Laurent(z.spec, z.terms + tuple(below))):
        want = newton_inv(c, -top - got.prec + 1)
        for d in range(got.prec, -top + 1):
            assert got.coeff(d) == want.coeff(d), (z, c, d)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_inverse_claims_only_digits_its_window_fixes(data):
    spec = data.draw(st.sampled_from(FIELDS))
    z = data.draw(_units(spec, True))
    n = data.draw(st.integers(1, 14))
    got = z.inv(n)
    top = z.top_deg
    # as deep as asked, unless the window stops determining 1/z first
    assert got.prec == max(-top - n + 1, z.prec - 2 * top)
    below = [(z.prec - i, data.draw(st.integers(0, spec.q - 1))) for i in range(1, 5)]
    _assert_claims_hold(got, z, below)


def test_inverse_of_a_window_stops_where_the_window_does():
    # X^3 known down to X^-1: the digits of 1/z are fixed down to X^-7 only;
    # the completion X^3 + X^-2 has 1/z digit 2 at X^-8
    z = Laurent(F3, [(3, 1)], prec=-1)
    got = z.inv(8)
    assert got == Laurent(F3, [(-3, 1)], prec=-7)
    _assert_claims_hold(got, z, [(-2, 1)])
    assert newton_inv(Laurent(F3, [(3, 1), (-2, 1)]), 12).coeff(-8) == 2


# ---------------------------------------------------------------------------
# D U_x columns
# ---------------------------------------------------------------------------

@st.composite
def _maps(draw, spec, d):
    """n = 1 or 2 components of degree at most 3 with up to 3 exact terms."""
    comps = []
    for _ in range(draw(st.integers(1, 2))):
        terms = {}
        for _ in range(draw(st.integers(0, 3))):
            m = tuple(draw(st.integers(0, 3)) for _ in range(d))
            terms[m] = draw(_laurents(spec, False, -2, 1))
        comps.append(MPoly(spec, d, terms))
    return AnalyticMap(spec, d, len(comps), tuple(comps))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_dux_columns_match_pointwise(data):
    spec = data.draw(st.sampled_from(FIELDS))
    d = data.draw(st.integers(1, 2))
    m = data.draw(_maps(spec, d))
    exps = st.integers(-3, 3)
    D = DiagonalScaling(d=d, n=m.n, a0_exp=data.draw(exps), astar_exp=data.draw(exps),
                        ai_exps=tuple(data.draw(exps) for _ in range(m.n)))
    x = [data.draw(_laurents(spec, data.draw(st.booleans()), -4, -1)) for _ in range(d)]
    assert dux_columns(m, x, D) == pointwise_dux_columns(m, x, D)


# ---------------------------------------------------------------------------
# grid cells
# ---------------------------------------------------------------------------

@st.composite
def _grids(draw):
    """At most 729 cells; centers with digits from degree 1 down to below
    the domain's -r, exact or windowed."""
    spec = draw(st.sampled_from(FIELDS))
    d = draw(st.integers(1, 2))
    r = draw(st.integers(0, 2))
    ndig = draw(st.integers(0, 1 if spec.q > 3 and d == 2 else 2))
    center = tuple(draw(_laurents(spec, True, -r - 3, 1)) for _ in range(d))
    return GridSpec(spec, d, r + ndig, Ball(center, r))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_grids())
@example(GridSpec(F3, 1, 4, Ball((Laurent(F3, [(-1, 1), (-3, 2)]),), 1)))
@example(GridSpec(F3, 2, 4, Ball((Laurent(F3, [(-3, 2)]), Laurent(F3, [(0, 1), (-2, 1)], prec=-5)), 1)))
def test_grid_cells_match_additive_grid(grid):
    got = list(grid.cells())
    assert len(got) == grid.cell_count
    assert got == additive_grid_cells(grid)


# ---------------------------------------------------------------------------
# sup norms and the resonant gate: one table per domain
# ---------------------------------------------------------------------------

def _outcome(fn, *args):
    try:
        return fn(*args)
    except PrecisionError:
        return PrecisionError


@st.composite
def _polys(draw, spec, d, max_deg, windowed):
    """1 to 3 terms of total degree <= max_deg, coefficients with digits
    at degrees -3..1, windowed ones maybe known only down to a horizon."""
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        m = tuple(draw(st.integers(0, max_deg)) for _ in range(d))
        if sum(m) <= max_deg:
            terms[m] = draw(_laurents(spec, windowed, -3, 1))
    return MPoly(spec, d, terms)


@st.composite
def _balls(draw, spec, d, radii):
    """A ball about an exact center with digits at degrees -2..1, mostly
    off 0."""
    center = tuple(draw(_laurents(spec, False, -2, 1)) for _ in range(d))
    return Ball(center, draw(st.sampled_from(radii)))


def _completed(data, g):
    """g with each windowed coefficient completed below its horizon by
    zeros or by drawn digits."""
    spec, zeros = g.spec, data.draw(st.booleans())
    terms = {}
    for m, c in g.terms.items():
        tail = [] if c.prec is None or zeros else [
            (c.prec - 1 - i, data.draw(st.integers(0, spec.q - 1))) for i in range(3)]
        terms[m] = Laurent(spec, list(c.terms) + tail)
    return MPoly(spec, g.d, terms)


def test_sup_norm_matches_the_percell_form():
    # the same sup, or the same PrecisionError; one table over the ball
    # reads no cell's recentered coefficients, so where such a read raises
    # it may still certify the sup, and then every completion has that sup
    seen = {"value": 0, "raises": 0, "windowed": 0, "certified": 0}

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(st.data())
    def check(data):
        spec = data.draw(st.sampled_from(FIELDS))
        d = data.draw(st.integers(1, 2))
        windowed = data.draw(st.booleans())
        g = data.draw(_polys(spec, d, 3, windowed))
        ball = data.draw(_balls(spec, d, (0, 1, 2)))
        got = _outcome(sup_norm_on_ball, g, ball)
        want = _outcome(percell_sup_norm_on_ball, g, ball)
        if got is PrecisionError or want is not PrecisionError:
            assert got is want or got == want, (g, ball, got, want)
            seen["raises" if got is PrecisionError else "value"] += 1
            seen["windowed"] += windowed and got is not PrecisionError
            return
        for _ in range(2):
            assert percell_sup_norm_on_ball(_completed(data, g), ball) == got, (g, ball)
        seen["certified"] += 1

    check()
    assert seen["value"] >= 200 and seen["raises"] >= 10 and seen["windowed"] >= 50, seen


def test_sup_norm_certifies_where_a_cell_recentering_raises():
    # X^2 x^3 + 2 x over F_5, X^2 known at degrees >= 1 only and 2 at
    # degrees >= -3, on |x| <= 1/q.  At a cell about x = X^-1 the
    # recentered x coefficient 2 + 3 X^2 x^2 cancels to its horizon, so the
    # per-cell form raises; the center values and the ball's table give
    # q^-1 for every completion
    F5 = FieldSpec(5)
    g = MPoly(F5, 1, {(3,): Laurent(F5, [(2, 1)], 1), (1,): Laurent(F5, [(0, 2)], -3)})
    ball = Ball.unit(F5, 1, 1)
    with pytest.raises(PrecisionError):
        percell_sup_norm_on_ball(g, ball)
    assert sup_norm_on_ball(g, ball) == AbsValue(-1)
    for tail in ([], [(0, 3), (-1, 1)]):
        h = MPoly(F5, 1, {(3,): Laurent(F5, [(2, 1)] + tail), (1,): Laurent(F5, [(0, 2), (-4, 1)])})
        assert percell_sup_norm_on_ball(h, ball) == AbsValue(-1)


@st.composite
def _resonant_fns(draw, spec, d, windowed):
    """g = a0 + a.f for f = (x1, up to two components) and maybe theta: on
    the line, components of degree <= 3; for d = 2, of total degree <= 2
    (affine partials).  a0 and a of degree <= 1."""
    max_deg = 3 if d == 1 else 2
    comps = [MPoly.var(spec, d, 0)]
    comps += [draw(_polys(spec, d, max_deg, windowed)) for _ in range(draw(st.integers(0, 2)))]
    theta = draw(_polys(spec, d, max_deg, windowed)) if draw(st.booleans()) else None
    m = AnalyticMap(spec, d, len(comps), tuple(comps), theta)
    polys = st.lists(st.integers(0, spec.q - 1), max_size=2).map(lambda cs: Poly(spec, cs))
    a = tuple(draw(polys) for _ in comps)
    a0 = draw(polys)
    if a0.is_zero and all(ai.is_zero for ai in a):
        a0 = Poly.one(spec)
    return ResonantFn(m, a0, a)


def _completed_fn(data, g):
    m = g.m
    comps = tuple(_completed(data, f) for f in m.components)
    theta = None if m.theta is None else _completed(data, m.theta)
    return ResonantFn(AnalyticMap(m.spec, m.d, m.n, comps, theta), g.a0, g.a)


def test_resonant_gate_matches_the_percell_form():
    # the same verdict, or the same PrecisionError; where only the per-cell
    # form raises, the verdict holds at every completion
    seen = {True: 0, False: 0, "raises": 0, "windowed": 0, "certified": 0}

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.data())
    def check(data):
        spec = data.draw(st.sampled_from(FIELDS))
        d = data.draw(st.integers(1, 2))
        windowed = data.draw(st.booleans())
        g = data.draw(_resonant_fns(spec, d, windowed))
        U0 = data.draw(_balls(spec, d, (2, 3)))
        got = _outcome(resonant_gate, g, U0)
        want = _outcome(percell_resonant_gate, g, U0)
        if got is PrecisionError or want is not PrecisionError:
            assert got is want, (g.partials, U0, got, want)
            seen["raises" if got is PrecisionError else got] += 1
            seen["windowed"] += windowed and got is not PrecisionError
            return
        for _ in range(2):
            assert percell_resonant_gate(_completed_fn(data, g), U0) is got, (g.partials, U0)
        seen["certified"] += 1

    check()
    assert min(seen[True], seen[False]) >= 30 and seen["raises"] >= 10, seen
    assert seen["windowed"] >= 30, seen


def test_resonant_gate_raises_at_its_cell_budget():
    # G = X x^3 over F_4: d1 G = X x^2 has a double zero at the center of
    # U0.  The per-cell form sees (x + c)^2 = x^2 + c^2 and raises at the
    # depth budget down the zero's chain; the table over U0 bounds the
    # weight-1 part by |X| q^-r0 and leaves a band of undecided cells that
    # narrows like q^(-r/2), so the gate raises at its cell budget
    F4 = FieldSpec.from_order(4)
    x1 = MPoly.var(F4, 1, 0)
    m = AnalyticMap(F4, 1, 2, (x1, x1 * x1 * x1))
    g = ResonantFn(m, Poly.zero(F4), (Poly.zero(F4), Poly.X(F4)))
    U0 = Ball.unit(F4, 1, 3)
    with pytest.raises(PrecisionError, match="depth budget"):
        percell_resonant_gate(g, U0)
    with pytest.raises(PrecisionError, match="cell budget"):
        resonant_gate(g, U0)


# ---------------------------------------------------------------------------
# the term splitter: Laurent literals and map polynomials
# ---------------------------------------------------------------------------

def _term_text(c, d):
    """c X^d, for an encoded field element c != 0."""
    if d == 0:
        return str(c)
    xs = "X" if d == 1 else f"X^{d}"
    return xs if c == 1 else f"{c}*{xs}"


def _laurent_text(draw, z):
    """The terms of z joined by + and -, each one's sign drawn: a term
    after a - is written negated."""
    parts = []
    for d, c in z.terms:
        if draw(st.booleans()):
            parts.append(("-", _term_text(z.spec.neg(c), d)))
        else:
            parts.append(("+", _term_text(c, d)))
    if not parts:
        return "0"
    (sign, first), rest = parts[0], parts[1:]
    return ("-" if sign == "-" else "") + first + "".join(f" {s} {t}" for s, t in rest)


@st.composite
def _texts(draw, spec, d):
    """(an MPoly with exact coefficients, its text): terms joined by + or
    by - and the term negated; coefficients written with subtraction, in
    parentheses, maybe nested, where a product needs them and sometimes
    where it does not."""
    g = draw(_polys(spec, d, 3, False))
    parts = []
    for k, (m, c) in enumerate(g.terms.items()):
        neg = k > 0 and draw(st.booleans())
        coeff = _laurent_text(draw, -c if neg else c)
        # a product needs a sum in parentheses, and "- -" is no sign
        least = 1 if len(c.terms) > 1 or (neg and coeff.startswith("-")) else 0
        for _ in range(draw(st.integers(least, 3))):
            coeff = f"({coeff})"
        mono = [f"x{j + 1}" if e == 1 else f"x{j + 1}^{e}" for j, e in enumerate(m) if e]
        body = "*".join([coeff] + mono)
        parts.append(body if k == 0 else (" - " if neg else " + ") + body)
    return g, "".join(parts) if parts else "0"


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_map_polynomials_round_trip_with_subtraction(data):
    spec = data.draw(st.sampled_from(FIELDS))
    d = data.draw(st.integers(1, 2))
    g, text = data.draw(_texts(spec, d))
    assert parse_mpoly(text, spec, d) == g, text


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_laurent_literals_round_trip_with_subtraction(data):
    spec = data.draw(st.sampled_from(FIELDS))
    z = data.draw(_laurents(spec, False, -5, 3))
    assert parse_laurent(f"{_laurent_text(data.draw, z)} (mod {spec.q})", spec) == z


@pytest.mark.parametrize("text, want", [
    ("x1 - x2", {(1, 0): 1, (0, 1): 2}),
    ("-x1", {(1, 0): 2}),
    ("x1^2 - 1", {(2, 0): 1, (0, 0): 2}),
    ("-(x1 - x2)*x1", {(2, 0): 2, (1, 1): 1}),
    ("X^-1*x1 - (X^-2 - (1 - X))*x2", None),
])
def test_map_polynomials_accept_subtraction(text, want):
    g = parse_mpoly(text, F3, 2)
    if want is None:  # X^-1 x1 - (X^-2 - 1 + X) x2
        want = {(1, 0): Laurent(F3, [(-1, 1)]),
                (0, 1): Laurent(F3, [(1, 2), (0, 1), (-2, 2)])}
    else:
        want = {m: Laurent.const(F3, c) for m, c in want.items()}
    assert g.terms == want


@pytest.mark.parametrize("text, message", [
    ("x1 - ", "empty term"), ("-", "empty term"), ("x1 - -x2", "empty term"),
    ("x1 - x1**2", "empty factor in term '- x1**2'"),
    ("2*x1 + x1**2", "empty factor in term 'x1**2'"),
    ("(X - 1*x1", "unbalanced parens in '(X - 1*x1'"),
    ("x1 - x3", "variable x3 out of range for d=2"),
    ("x1 - Y", "bad term 'Y'"),
])
def test_map_polynomial_errors(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_mpoly(text, F3, 2)
