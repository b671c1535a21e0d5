"""Decided conditions stay decided: a witness member UNKNOWN on a cell with
its value condition or its gradient conditions IN passes to the subcells
as its narrowed form, which no longer reads them (``cells._decide``).
Checked against the member loop that re-reads every condition on every
cell (tests/oracles.py): cell after cell down a path, and whole sweeps."""

import gc
import itertools
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

from oracles import rereading_decide
from test_lanes import F3, F4, FIELDS, _coordinate, _mpolys, _outcome

from ffdioph import cells, xcli
from ffdioph.cells import MapCellData, SweepData, _Live, decide
from ffdioph.dioph import WitnessAtom, measure_bigA, measure_smallgrad_S
from ffdioph.ffield import Ball, GridSpec, Laurent, Poly
from ffdioph.latdyn import build_ceil_eps, build_D, qn_bound_probe
from ffdioph.ultracalc import AnalyticMap, veronese

ROOT = Path(__file__).resolve().parent.parent


@st.composite
def _labels(draw):
    """(a map with or without theta, 1-40 witness members on one SweepData
    with lower, upper, both or no gradient conditions and value thresholds
    that may be vacuous, a path of nested cells)."""
    spec = draw(st.sampled_from(FIELDS))
    d, n = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    comps = tuple(draw(_mpolys(spec, d)) for _ in range(n))
    theta = draw(_mpolys(spec, d)) if draw(st.booleans()) else None
    sd = SweepData(AnalyticMap(spec, d, n, comps, theta))
    kinds = draw(st.sampled_from([("lower",), ("upper",), ("both",), ("lower", "none"),
                                  ("none", "lower", "upper", "both")]))
    # deep value thresholds keep the values UNKNOWN below the gradients' IN
    taus = draw(st.sampled_from((st.integers(-7, 0), st.integers(-7, -4))))
    members = []
    for _ in range(draw(st.one_of(st.integers(1, 8), st.integers(9, 40)))):
        jmax = draw(st.integers(0, 2))
        a = tuple(Poly(spec, [draw(st.integers(0, spec.q - 1)) for _ in range(jmax + 1)])
                  for _ in range(n))
        if all(ai.is_zero for ai in a):
            a = (Poly.X(spec, jmax),) + a[1:]
        kind = draw(st.sampled_from(kinds))
        kw = {}
        if kind in ("lower", "both"):
            kw["grad_lower"] = draw(st.sampled_from((-4, -2, -1, Fraction(-1, 2), 0, 1)))
        if kind in ("upper", "both"):
            kw["grad_upper_tau"] = draw(st.integers(-4, 1))
        members.append(WitnessAtom(sd, a, draw(taus), **kw))
    digits, r0 = draw(st.integers(0, 8)), draw(st.integers(0, 2))
    x = tuple(draw(_coordinate(spec, digits)) for _ in range(d))
    path = [Ball(tuple(Laurent(spec, [(k, c) for k, c in xi.terms if k > -r]) for xi in x), r)
            for r in range(r0, max(r0, digits) + 1)]
    return sd, tuple(members), path


def _originals(members):
    """Each member and each narrowed form made so far -> its member."""
    return {id(f): a for a in members for f in (a, *(a.forms or ())) if f is not None}


def test_narrowed_members_equal_the_rereading_loop():
    # down a path of nested cells, the survivors of cells.decide passed on
    # as they come (narrowed forms, in the loop or in lanes) and the
    # re-reading loop's as themselves: at every cell the same IN or not,
    # the same original members surviving in the same order, the same
    # PrecisionError message; a narrowed form refers to no member
    seen = {key: 0 for key in ("IN", "raises", "values only", "gradient only", "lanes")}

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(_labels())
    def check(case):
        sd, members, path = case
        got_live, want_live = members, members
        for cell in path:
            got = _outcome(decide, MapCellData(sd, cell), got_live)
            want = _outcome(rereading_decide, MapCellData(sd, cell), want_live)
            origin = _originals(members)
            if want[0] == "raises":
                assert got[:2] == want[:2], (sd.m, cell, members)
                seen["raises"] += 1
                break
            assert got[0] != "raises", (sd.m, cell, members, got)
            assert (got[0] is None) == (want[0] is None), (sd.m, cell, members)
            if got[0] is not None:
                assert origin[id(got[0])] is want[0]
                seen["IN"] += 1
                break
            assert tuple(origin[id(a)] for a in got[1]) == want[1], (sd.m, cell, members)
            if not want[1]:
                break
            for a in got[1]:
                if a is not origin[id(a)]:
                    seen["gradient only" if a.tau == -1 else "values only"] += 1
            seen["lanes"] += type(got[2]) is _Live
            got_live, want_live = got[2], want[2]
        for a in members:
            for form in a.forms or ():
                if form is not None:
                    assert form.forms is None
                    assert not any(r is a for r in gc.get_referents(form))

    check()
    assert min(seen.values()) >= 10, seen


def _sweeps(m):
    """The leaves of the big-gradient, small-gradient and QN sweeps of m."""
    spec = m.spec
    B = Ball.unit(spec, 1, 1)
    tvecs = list(itertools.product(range(2), repeat=m.n))
    big = measure_bigA(m, [-1, -2], tvecs, Fraction(1, 4), GridSpec(spec, 1, 4))
    small, _ = measure_smallgrad_S(m, 2, 0, (1, 1), B, max_depth=8)
    D = build_D(build_ceil_eps(4, 0, (2, 2)), 1)
    qn = qn_bound_probe(m, B, D, [-1, -2, -3], max_depth=8)
    return ([r.leaves for r, _ in big], small.leaves, [r.leaves for _, r in qn])


def test_sweeps_equal_the_rereading_loop(monkeypatch):
    # measure_bigA, measure_smallgrad_S and qn_bound_probe on the F_3 and
    # F_4 Veronese: the same leaves, mass for mass, as with the member loop
    # that re-reads every condition; the gradient conditions, decided before
    # the values there, are dropped on the way down
    narrowed = []
    make = WitnessAtom.narrowed

    def counted(atom, value_in):
        narrowed.append(value_in)
        return make(atom, value_in)

    monkeypatch.setattr(WitnessAtom, "narrowed", counted)
    for m in (veronese(F3, 2), veronese(F4, 2)):
        got = _sweeps(m)
        with monkeypatch.context() as patch:
            patch.setattr(cells, "_decide", rereading_decide)
            want = _sweeps(m)
        assert got == want, m.spec
    assert False in narrowed


def test_gradient_rows_are_read_only_at_the_top(monkeypatch):
    # the bench's big-gradient sweep (F_3 Veronese, delta = q^-1..q^-3,
    # tmax 2, eps = 1/4, grid 6): once its members' gradient conditions are
    # IN they are not read again, so at most 1 % as many cells build the
    # gradient rows' columns as build row 0's
    ver = xcli.load_map_file(ROOT / "maps" / "veronese2_q3.map")
    built = {0: 0, 1: 0}
    columns = MapCellData._columns

    def counted(self, row):
        built[min(row, 1)] += 1
        return columns(self, row)

    monkeypatch.setattr(MapCellData, "_columns", counted)
    report = xcli.run_biggrad(ver, [-1, -2, -3], 2, Fraction(1, 4), 6)
    assert report.all_pass
    assert built[0] > 1000 and 100 * built[1] <= built[0], built
