"""The packed center evaluation of a sweep cell against its Laurent
reference: every row of every cell packs to the same columns, variations
and horizons as the Laurent values MPoly.eval gives at the cell center,
whether those values are packed as a point's or digit by digit, and a cell
sweep forms no Laurent product once its SweepData exists."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from oracles import center_row, laurent_columns

from ffdioph.errors import PrecisionError
from ffdioph.dioph import ApproxFn, MapCellData, SweepData, measure_W
from ffdioph.ffield import Ball, FieldSpec, GridSpec, Laurent, Poly
from ffdioph.goodfn import PolyAbsAtom, certify_good
from ffdioph.ultracalc import AnalyticMap, MPoly, veronese

F2, F3, F5 = FieldSpec(2), FieldSpec(3), FieldSpec(5)
F4, F8, F9 = FieldSpec.from_order(4), FieldSpec.from_order(8), FieldSpec.from_order(9)
F9_NONMONIC = FieldSpec(3, 2, (2, 0, 2))  # 2u^2 + 2: the fold divides by the lead
F17 = FieldSpec(17)


@st.composite
def _coefficients(draw, spec):
    kind = draw(st.sampled_from(["one", "constant", "exact", "windowed"]))
    if kind == "one":
        return Laurent.one(spec)
    if kind == "constant":
        return Laurent.const(spec, draw(st.integers(1, spec.q - 1)))
    degs = draw(st.lists(st.integers(-4, 2), min_size=1, max_size=3, unique=True))
    terms = [(k, draw(st.integers(1, spec.q - 1))) for k in degs]
    # a windowed coefficient keeps a known top digit (VarTable reads it)
    return Laurent(spec, terms, draw(st.integers(-7, min(degs))) if kind == "windowed" else None)


@st.composite
def _mpolys(draw, spec, d):
    monos = st.tuples(*[st.integers(0, 3)] * d)
    return MPoly(spec, d, {m: draw(_coefficients(spec))
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
    comps = tuple(draw(_mpolys(spec, d)) for _ in range(n))
    theta = draw(_mpolys(spec, d)) if draw(st.booleans()) else None
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


def test_windowed_cell_center_raises():
    # a cell center is an exact point: one known only to q^-4 is refused
    sd = SweepData(veronese(F3, 2))
    sd.register((Poly.one(F3), Poly.one(F3)), 0, -3)
    data = MapCellData(sd, Ball((Laurent(F3, [(-1, 1)], -4),), 2))
    with pytest.raises(PrecisionError):
        data._columns(0)


def test_cell_sweeps_form_no_laurent_products(monkeypatch):
    # MPoly.eval and Laurent.__mul__ calls are counted once the sweep's
    # SweepData exists (its VarTables recenter with Laurent products)
    counts = Counter()
    live = [False]
    init = SweepData.__init__

    def counted_init(self, *args, **kw):
        init(self, *args, **kw)
        live[0] = True

    def counted(name, fn):
        def wrapper(*args, **kw):
            if live[0]:
                counts[name] += 1
            return fn(*args, **kw)
        return wrapper

    monkeypatch.setattr(SweepData, "__init__", counted_init)
    monkeypatch.setattr(MPoly, "eval", counted("MPoly.eval", MPoly.eval))
    monkeypatch.setattr(Laurent, "__mul__", counted("Laurent.__mul__", Laurent.__mul__))
    line = AnalyticMap(F4, 1, 1, (MPoly.var(F4, 1, 0),))
    for m, t1, grid in ((veronese(F3, 2), 2, 5), (line, 2, 3)):
        live[0] = False
        rep = measure_W(m, ApproxFn.power_law(3), 1, t1, GridSpec(m.spec, 1, grid))
        assert rep.union.included > 0
        assert counts == Counter(), (m.spec, counts)


def test_poly_atoms_of_one_g_evaluate_each_cell_once(monkeypatch):
    # certify_good labels one PolyAbsAtom of g per epsilon: g is evaluated
    # once on each cell the sweep visits, however many atoms read it there
    cells, calls = set(), Counter()
    status, evaluate = PolyAbsAtom.status, MPoly.eval

    def recording_status(atom, cell, ctx):
        cells.add((cell.center, cell.radius_exp))
        calls["status"] += 1
        return status(atom, cell, ctx)

    def counted_eval(g, point):
        calls["eval"] += 1
        return evaluate(g, point)

    monkeypatch.setattr(PolyAbsAtom, "status", recording_status)
    monkeypatch.setattr(MPoly, "eval", counted_eval)
    x, y = MPoly.var(F3, 2, 0), MPoly.var(F3, 2, 1)
    cert = certify_good(x * x + y * y * y + x * y, Ball.unit(F3, 2, 0), 1, [-1, -2, -3],
                        resolution=3)
    assert len(cert.rows) == 3
    assert calls["eval"] == len(cells) < calls["status"]
