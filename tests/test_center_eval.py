"""The packed center evaluation of a sweep cell against its Laurent
reference: every row of every cell packs to the same columns, variations
and horizons as the Laurent values MPoly.eval gives at the cell center,
whether those values are packed as a point's or digit by digit, and no
cell sweep (witness or goodness) forms a Laurent product or calls
MPoly.eval."""

from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import center_row, compare_abs_leq, laurent_columns, laurent_poly_status

from ffdioph import dioph, goodfn
from ffdioph.cells import IN, OUT, UNKNOWN, MapCellData, SweepData
from ffdioph.errors import PrecisionError
from ffdioph.dioph import ApproxFn, measure_W
from ffdioph.ffield import Ball, FieldSpec, GridSpec, Laurent, Poly
from ffdioph.goodfn import (
    ConjAtom,
    PolyAbsAtom,
    certify_good,
    certify_good_max,
    poly_data,
    sublevel_measure,
)
from ffdioph.ultracalc import AnalyticMap, MPoly, veronese

F2, F3, F5 = FieldSpec(2), FieldSpec(3), FieldSpec(5)
F4, F8, F9 = FieldSpec.from_order(4), FieldSpec.from_order(8), FieldSpec.from_order(9)
F9_NONMONIC = FieldSpec(3, 2, (2, 0, 2))  # 2u^2 + 2: the fold divides by the lead
F17 = FieldSpec(17)


EXACT = ("one", "constant", "exact")
ANY = EXACT + ("windowed",)


@st.composite
def _coefficients(draw, spec, kinds):
    kind = draw(st.sampled_from(kinds))
    if kind == "one":
        return Laurent.one(spec)
    if kind == "constant":
        return Laurent.const(spec, draw(st.integers(1, spec.q - 1)))
    degs = draw(st.lists(st.integers(-4, 2), min_size=1, max_size=3, unique=True))
    terms = [(k, draw(st.integers(1, spec.q - 1))) for k in degs]
    # a windowed coefficient keeps a known top digit (VarTable reads it)
    return Laurent(spec, terms, draw(st.integers(-7, min(degs))) if kind == "windowed" else None)


@st.composite
def _mpolys(draw, spec, d, kinds):
    monos = st.tuples(*[st.integers(0, 3)] * d)
    return MPoly(spec, d, {m: draw(_coefficients(spec, kinds))
                           for m in draw(st.lists(monos, min_size=1, max_size=4, unique=True))})


@st.composite
def _coordinates(draw, spec, max_len):
    """An exact center coordinate: 0, or digits from a top degree down."""
    length = draw(st.integers(0, max_len))
    top = draw(st.integers(-2, 1))
    return Laurent(spec, [(top - i, draw(st.integers(0, spec.q - 1))) for i in range(length)])


@st.composite
def _cells(draw, fields=(F2, F3, F5, F4, F9, F9_NONMONIC, F8), max_len=10):
    spec = draw(st.sampled_from(fields))
    d = draw(st.integers(1, 2))
    n = draw(st.integers(1, 2))
    comps = tuple(draw(_mpolys(spec, d, ANY)) for _ in range(n))
    theta = draw(_mpolys(spec, d, ANY)) if draw(st.booleans()) else None
    center = tuple(draw(_coordinates(spec, max_len)) for _ in range(d))
    cell = Ball(center, draw(st.integers(1, max_len + 3)))
    jmax = draw(st.integers(0, 2))
    floors = (draw(st.integers(-14, -1)), draw(st.integers(-14, 0)))
    return AnalyticMap(spec, d, n, comps, theta), cell, jmax, floors


def _packed_and_reference(m, cell, jmax, floors):
    """(SweepData, rows): per row, the cell's columns packed from the
    center, the ones packed from the Laurent values of MPoly.eval at the
    center set as a point's values, and the digit-by-digit reference."""
    sd = SweepData(m)
    a = (Poly.X(m.spec, jmax),) + (Poly.one(m.spec),) * (m.n - 1)
    for kind, floor in enumerate(floors):
        sd.register(a, kind, floor)
    data, point = MapCellData(sd, cell), MapCellData(sd, cell)
    rows = []
    for row in range(len(sd.rows)):
        point.vals[row], point.vars[row] = center_row(data, row)
        rows.append((data._columns(row), point._columns(row), laurent_columns(data, row)))
    return sd, rows


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_cells())
def test_packed_center_matches_laurent_eval(case):
    _, rows = _packed_and_reference(*case)
    for got, point, want in rows:
        assert got == point == want


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(_cells(fields=(F3, F5, F9, F17), max_len=80))
def test_packed_center_past_the_one_byte_bound(case):
    # long centers over F_3 and F_5 and every cell over F_17 need working
    # slots wider than a byte; the columns stay the Laurent ones
    _, rows = _packed_and_reference(*case)
    for got, point, want in rows:
        assert got == point == want


def test_wide_working_slots_are_exercised():
    x = MPoly.var(F3, 1, 0)
    m = AnalyticMap(F3, 1, 2, (x, x * x))
    digits = [(-1 - i, 1 + i % 2) for i in range(70)]  # 70 digits: 70 * 4 > 255
    for mp, cell in ((m, Ball((Laurent(F3, digits),), 71)),
                     (veronese(F17, 2), Ball((Laurent(F17, [(-1, 16)]),), 2))):
        sd, rows = _packed_and_reference(mp, cell, 1, (-3, -2))
        assert max(sd.widths.values()) > 1
        for got, point, want in rows:
            assert got == point == want


@st.composite
def _poly_cells(draw, kinds):
    """(polynomials g_1..g_k, a unit ball, a cell of it) for the atoms of
    goodness over F_2, F_3, F_5, F_4 and F_9 in one or two variables."""
    spec = draw(st.sampled_from((F2, F3, F5, F4, F9)))
    d = draw(st.integers(1, 2))
    polys = [draw(_mpolys(spec, d, kinds)) for _ in range(draw(st.integers(1, 3)))]
    ball = cell = Ball.unit(spec, d, draw(st.integers(0, 1)))
    for _ in range(draw(st.integers(0, 5))):
        cell = list(cell.subdivide())[draw(st.integers(0, spec.q ** d - 1))]
    return polys, ball, cell


def _outcome(status, *args):
    try:
        return status(*args)
    except PrecisionError:
        return "raises"


def test_poly_atoms_match_the_laurent_reference():
    # every g_i at every threshold from below its variation on the cell to
    # above its sup on the ball, one SweepData for all: the packed status
    # is the Laurent one (MPoly.eval and compare_abs_leq), or both raise.
    # Where only the Laurent value raises (its known digits cancel) the
    # packed status holds for the completions 0 and q^(prec-1) below it
    seen = set()
    x, z1, z2 = MPoly.var(F3, 1, 0), MPoly.var(F4, 2, 0), MPoly.var(F4, 2, 1)

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(_poly_cells(ANY))
    # g(c) = 0 down to the window of g's constant: the Laurent value raises;
    # the packed reading raises below the window and decides above it
    @example(([x + MPoly.const(F3, 1, Laurent(F3, [(0, 2), (-1, 1)], -3))],
              Ball.unit(F3, 1, 0), Ball((Laurent(F3, [(0, 1), (-1, 2)]),), 6)))
    @example(([z1 + z2 + MPoly.const(F4, 2, Laurent(F4, [(0, 1)], -2))], Ball.unit(F4, 2, 0),
              Ball((Laurent(F4, [(0, 2)]), Laurent(F4, [(0, 3)])), 5)))
    def check(case):
        polys, ball, cell = case
        sd = poly_data(polys, ball)
        tables = sd.row_tables(0)[:len(polys)]
        var = [vt.var_exp(cell.radius_exp) for vt in tables]
        lo = min([v for v in var if v is not None] + [0]) - 2
        hi = max([vt.sup_exp for vt in tables if vt.sup_exp is not None] + [0]) + 2
        atoms = [(i, tau, PolyAbsAtom(sd, i, tau))
                 for i in range(len(polys)) for tau in range(lo, hi + 1)]
        ctx: dict = {}
        for i, tau, atom in atoms:
            got = _outcome(atom.status, cell, ctx)
            ref = _outcome(laurent_poly_status, sd, i, tau, cell)
            if ref != "raises":
                assert got == ref, (polys[i], cell, tau)
                seen.add(got)
            elif got == "raises":
                seen.add("both raise")
            else:
                prec = polys[i].eval(cell.center).prec
                for v_exp in (None, prec - 1):
                    assert got == compare_abs_leq(v_exp, var[i], tau), (polys[i], cell, tau)
                seen.add("only Laurent raises")

    check()
    assert seen == {IN, OUT, UNKNOWN, "both raise", "only Laurent raises"}, seen


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(_poly_cells(EXACT), st.lists(st.integers(-8, 3), min_size=3, max_size=3))
def test_conj_of_poly_atoms_matches_the_laurent_fold(case, taus):
    # a ConjAtom of several PolyAbsAtoms on one SweepData: IN iff every
    # Laurent status is IN, OUT iff one is OUT
    polys, ball, cell = case
    sd = poly_data(polys, ball)
    conj = ConjAtom([PolyAbsAtom(sd, i, taus[i]) for i in range(len(polys))])
    parts = [laurent_poly_status(sd, i, taus[i], cell) for i in range(len(polys))]
    want = OUT if OUT in parts else IN if all(s == IN for s in parts) else UNKNOWN
    assert conj.status(cell, {}) == want


def test_windowed_cell_center_raises():
    # a cell center is an exact point: one known only to q^-4 is refused
    sd = SweepData(veronese(F3, 2))
    sd.register((Poly.one(F3), Poly.one(F3)), 0, -3)
    data = MapCellData(sd, Ball((Laurent(F3, [(-1, 1)], -4),), 2))
    with pytest.raises(PrecisionError):
        data._columns(0)


def test_cell_sweeps_form_no_laurent_products(monkeypatch):
    # MPoly.eval and Laurent.__mul__ calls are counted inside the sweeps
    # (measure_union) of measure_W and of the goodness measures; the sweep
    # data is set up outside (its VarTables recenter with Laurent products)
    counts = Counter()
    live = [False]

    def counted(name, fn):
        def wrapper(*args, **kw):
            if live[0]:
                counts[name] += 1
            return fn(*args, **kw)
        return wrapper

    def sweep(fn):
        def wrapper(*args, **kw):
            live[0] = True
            try:
                return fn(*args, **kw)
            finally:
                live[0] = False
        return wrapper

    for mod in (dioph, goodfn):
        monkeypatch.setattr(mod, "measure_union", sweep(mod.measure_union))
    monkeypatch.setattr(MPoly, "eval", counted("MPoly.eval", MPoly.eval))
    monkeypatch.setattr(Laurent, "__mul__", counted("Laurent.__mul__", Laurent.__mul__))
    line = AnalyticMap(F4, 1, 1, (MPoly.var(F4, 1, 0),))
    for m, t1, grid in ((veronese(F3, 2), 2, 5), (line, 2, 3)):
        rep = measure_W(m, ApproxFn.power_law(3), 1, t1, GridSpec(m.spec, 1, grid))
        assert rep.union.included > 0
        assert counts == Counter(), (m.spec, counts)
    x, y = MPoly.var(F3, 2, 0), MPoly.var(F3, 2, 1)
    g = x * x + y * y * y + x * y
    B = Ball.unit(F3, 2, 0)
    c = MPoly.const(F4, 1, Laurent(F4, [(-1, 2)]))
    z = MPoly.var(F4, 1, 0)
    sweeps = [
        lambda: certify_good(g, B, 1, [-1, -2, -3], resolution=3).rows,
        lambda: certify_good_max([x, g, x * y], B, 1, [-1, -2]).rows,
        lambda: certify_good_max([z * z + c, z * c], Ball.unit(F4, 1, 0), 1, [-1, -3]).rows,
        lambda: sublevel_measure(g, B, -2, resolution=3).measure,
    ]
    for run in sweeps:
        assert run()
        assert counts == Counter(), counts
