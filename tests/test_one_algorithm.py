"""The single algorithms against the package's earlier second ones: the
Laurent inverse by long division against the Newton inverse, D U_x columns
from the symbolic ones against the pointwise columns, and GridSpec cells by
subdivision against the grid built by Laurent additions, over F_2, F_3,
F_5, F_4 and F_9 with exact and windowed values."""

from hypothesis import example, given, settings, strategies as st

from oracles import additive_grid_cells, newton_inv, pointwise_dux_columns

from ffdioph.ffield import Ball, FieldSpec, GridSpec, Laurent
from ffdioph.latdyn import DiagonalScaling, dux_columns
from ffdioph.ultracalc import AnalyticMap, MPoly

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
