"""The resonant build's Laurent work against references: the cofactor
solve against the Cramer solve, ``reduce_lattice`` against the
step-by-step reduction, and ``Laurent.shift``/``scale``/``__neg__``/
``div_to_floor`` against their schoolbook forms, over F_2, F_3, F_5, F_4
and F_9 with exact and windowed entries; and the call counts of one
build."""

from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    cramer_solve,
    school_div_to_floor,
    school_neg,
    school_scale,
    school_shift,
    step_reduce_lattice,
)

from ffdioph import xcli
from ffdioph.dioph import in_phi_f_point
from ffdioph.errors import PrecisionError
from ffdioph.ffield import FieldSpec, GridSpec, Laurent
from ffdioph.latdyn import LaurentMatrix, reduce_lattice
from ffdioph.ubiq import UbiquityParams, _solve_laurent, build_resonant_fn
from ffdioph.ultracalc import MPoly

FIELDS = (FieldSpec(2), FieldSpec(3), FieldSpec(5), FieldSpec.from_order(4),
          FieldSpec.from_order(9))
MAPS = Path(__file__).resolve().parent.parent / "maps"


@st.composite
def _laurents(draw, spec, windowed, lo=-4, hi=3):
    """Digits (zeros included) at degrees lo..hi; with ``windowed`` a
    horizon anywhere from below lo to above hi."""
    degs = draw(st.lists(st.integers(lo, hi), max_size=4, unique=True))
    terms = [(d, draw(st.integers(0, spec.q - 1))) for d in degs]
    prec = draw(st.integers(lo - 3, hi + 1)) if windowed and draw(st.booleans()) else None
    return Laurent(spec, terms, prec)


@st.composite
def _entries(draw, spec, windowed):
    """A matrix entry: sometimes 0, else a nonzero top digit at a degree
    from -3 to 2 and up to 3 digits below it; a windowed one is known to
    degree -7 to -11."""
    if draw(st.integers(0, 5)) == 0:
        return Laurent.zero(spec)
    top = draw(st.integers(-3, 2))
    terms = [(top, draw(st.integers(1, spec.q - 1)))]
    terms += [(top - i, draw(st.integers(0, spec.q - 1))) for i in range(1, draw(st.integers(0, 3)) + 1)]
    return Laurent(spec, terms, draw(st.integers(-11, -7)) if windowed and draw(st.booleans()) else None)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_laurent_helpers_match_schoolbook(data):
    spec = data.draw(st.sampled_from(FIELDS))
    z = data.draw(_laurents(spec, True))
    k = data.draw(st.integers(-6, 6))
    c = data.draw(st.integers(0, spec.q - 1))
    assert z.shift(k) == school_shift(z, k)
    assert z.scale(c) == school_scale(z, c)
    assert -z == school_neg(z)
    den = data.draw(_laurents(spec, True))
    if data.draw(st.booleans()):  # a multiple of den: the remainder can vanish
        z = den * data.draw(_laurents(spec, False, -2, 2))
    floor = data.draw(st.integers(-10, 4))
    if not den.terms:
        with pytest.raises((ZeroDivisionError, PrecisionError)):
            z.div_to_floor(den, floor)
        return
    assert z.div_to_floor(den, floor) == school_div_to_floor(z, den, floor)


@st.composite
def _lattices(draw):
    spec = draw(st.sampled_from(FIELDS))
    k = draw(st.integers(2, 4))
    windowed = draw(st.booleans())
    return [tuple(draw(_entries(spec, windowed)) for _ in range(k)) for _ in range(k)]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_lattices())
def test_reduce_lattice_matches_step_reference(cols):
    try:
        want = step_reduce_lattice(cols)
    except (ValueError, PrecisionError) as err:
        with pytest.raises(type(err)):
            reduce_lattice(cols)
        return
    got = reduce_lattice(cols)
    assert got.columns == want.columns
    assert got.coeffs == want.coeffs
    assert got.norm_exps == want.norm_exps
    assert got.steps == want.steps


@st.composite
def _systems(draw):
    """(rows, rhs, floor_deg, windowed): a square system of size 2..4 whose
    right-hand side is often 0 in some rows, sometimes in all, and whose
    last row is sometimes a multiple of its first (a singular system)."""
    spec = draw(st.sampled_from(FIELDS))
    k = draw(st.integers(2, 4))
    windowed = draw(st.booleans())
    rows = [[draw(_entries(spec, windowed)) for _ in range(k)] for _ in range(k)]
    if draw(st.integers(0, 3)) == 0:
        c = draw(_laurents(spec, False, -1, 1))
        rows[-1] = [c * z for z in rows[0]]
    rhs = [draw(_entries(spec, windowed)) if draw(st.integers(0, 2)) else Laurent.zero(spec)
           for _ in range(k)]
    return rows, rhs, draw(st.integers(-6, 0)), windowed


def _solve_or_none(solve, rows, rhs, floor):
    try:
        return solve(rows, rhs, floor)
    except ValueError:  # a singular system, or a determinant its window cannot tell from 0
        return None


def _common_digits_agree(x: Laurent, y: Laurent) -> bool:
    lo = max(z.prec for z in (x, y) if z.prec is not None) if not (x.exact and y.exact) else None
    keep = [(d, c) for d, c in x.terms if lo is None or d >= lo]
    return keep == [(d, c) for d, c in y.terms if lo is None or d >= lo]


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(_systems())
def test_cofactor_solve_matches_cramer(case):
    rows, rhs, floor, windowed = case
    want = _solve_or_none(cramer_solve, rows, rhs, floor)
    got = _solve_or_none(_solve_laurent, rows, rhs, floor)
    if not windowed or want is None:
        assert got == want  # term for term and horizon, or both singular
        return
    assert got is not None and all(_common_digits_agree(g, w) for g, w in zip(got, want))


def test_build_forms_no_determinant_and_evaluates_f_once(monkeypatch):
    m = xcli.load_map_file(MAPS / "veronese2_q3.map")
    params = UbiquityParams.from_delta(-1, m.n, m.d)
    x = next(cell.center for cell in GridSpec(m.spec, m.d, 5, m.resolved_domain).cells()
             if not in_phi_f_point(m, cell.center, 1, -1))
    calls = Counter()
    det, evaluate = LaurentMatrix.det, MPoly.eval

    def counted_det(mat):
        calls["det"] += 1
        return det(mat)

    def counted_eval(g, point):
        calls[id(g)] += 1
        return evaluate(g, point)

    monkeypatch.setattr(LaurentMatrix, "det", counted_det)
    monkeypatch.setattr(MPoly, "eval", counted_eval)
    built = build_resonant_fn(m, x, 1, -1, params)
    assert built.g.a_norm_exp() is not None
    assert calls["det"] == 0
    assert [calls[id(f)] for f in m.components] == [1] * m.n
