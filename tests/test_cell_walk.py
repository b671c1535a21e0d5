"""Ubiquity's constructed grid by cells (``ubiq.constructed_family``):
what a cell settles holds at every center inside it.  A cell's decision of
Phi^f against the point test at every center, the replay of a window's
reduction against ``reduce_lattice`` at the window's completions, and the
family against the one built center by center (tests/oracles.py), over
F_2, F_3, F_5, F_4 and F_9, the line, the Veronese curve and d = 2."""

import copy
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracles import pointwise_constructed_family
from test_lanes import FIELDS, _mpolys

from ffdioph import ubiq, xcli
from ffdioph.dioph import in_phi_f_point
from ffdioph.errors import PrecisionError
from ffdioph.ffield import Ball, FieldSpec, GridSpec, Laurent
from ffdioph.latdyn import reduce_lattice, replay_reduction
from ffdioph.ubiq import UbiquityParams, constructed_family, minkowski_columns
from ffdioph.ultracalc import AnalyticMap, MPoly, veronese

ROOT = Path(__file__).resolve().parent.parent
F3 = FieldSpec(3)


def _line(spec):
    return AnalyticMap(spec, 1, 1, (MPoly.var(spec, 1, 0),))


def _surface(spec):
    x1, x2 = MPoly.var(spec, 2, 0), MPoly.var(spec, 2, 1)
    return AnalyticMap(spec, 2, 3, (x1, x2, x1 * x2))


def _plane(spec):
    return AnalyticMap(spec, 2, 2, (MPoly.var(spec, 2, 0), MPoly.var(spec, 2, 1)))


@st.composite
def _maps(draw):
    """The line, the Veronese curve or the surface (x1, x2, x1 x2) over a
    field of FIELDS, or a map of 1-2 random components with coefficients
    that are sometimes known only down to a window."""
    spec = draw(st.sampled_from(FIELDS))
    kind = draw(st.sampled_from(("line", "veronese", "surface", "random")))
    if kind == "line":
        return _line(spec)
    if kind == "veronese":
        return veronese(spec, 2)
    if kind == "surface":
        return _surface(spec)
    d, n = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    return AnalyticMap(spec, d, n, tuple(draw(_mpolys(spec, d)) for _ in range(n)))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (PrecisionError, ValueError) as err:
        return type(err)


def test_replay_equals_reduce_lattice_at_completions():
    # a cell of radius q^-r: the Minkowski columns of its window (the
    # center's digits, known down to degree 1 - r) reduced when they can
    # be, and at exact points of the cell (its center and completions with
    # digits below) the replay equals reduce_lattice term for term, the
    # window's coeffs and steps untouched
    seen = {"returned": 0, "raised": 0, "completions": 0}

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.data())
    def check(data):
        m = data.draw(_maps())
        spec = m.spec
        t = data.draw(st.integers(1, 3))
        r = data.draw(st.integers(1, 9))
        digits = st.integers(0, spec.q - 1)
        center = [[(k, data.draw(digits)) for k in range(0, -r, -1)] for _ in range(m.d)]
        window = tuple(Laurent(spec, c, 1 - r) for c in center)
        red = _outcome(reduce_lattice, minkowski_columns(m, window, t))
        if isinstance(red, type):
            seen["raised"] += 1
            return
        seen["returned"] += 1
        kept = copy.deepcopy((red.coeffs, red.steps, red.norm_exps))
        for _ in range(data.draw(st.integers(1, 3))):
            tail = data.draw(st.integers(0, 4))
            x = tuple(Laurent(spec, c + [(k, data.draw(digits)) for k in range(-r, -r - tail, -1)])
                      for c in center)
            cols = minkowski_columns(m, x, t)
            want = _outcome(reduce_lattice, cols)
            if isinstance(want, type):
                with pytest.raises(want):
                    replay_reduction(cols, red)
                continue
            got = replay_reduction(cols, red)
            assert got.columns == want.columns, (m, x, t)
            assert got.coeffs == want.coeffs and got.norm_exps == want.norm_exps
            assert got.steps == want.steps
            seen["completions"] += 1
        assert (red.coeffs, red.steps, red.norm_exps) == kept

    check()
    assert min(seen.values()) >= 30, seen


COARSE = 8  # the index of the coarse curve below


def _walk_cases():
    """(map, t, delta exponent, B): the bench's and the README's Veronese
    settings, the line over F_2, F_5 and F_9, the F_4 Veronese, the plane
    (x1, x2) over F_2, and an F_3 curve (x, c x^2) with c known only to
    q^-2, whose point tests raise at t = 2 on the cells that stay
    undecided."""
    ver = xcli.load_map_file(ROOT / "maps" / "veronese2_q3.map")
    F2, F5 = FieldSpec(2), FieldSpec(5)
    F4, F9 = FieldSpec.from_order(4), FieldSpec.from_order(9)
    coarse = AnalyticMap(F3, 1, 2, (MPoly.var(F3, 1, 0),
                                   MPoly(F3, 1, {(2,): Laurent(F3, [(0, 1)], -2)})))
    return [
        (ver, 1, -1, Ball.unit(F3, 1, 2)),
        (ver, 1, -2, Ball.unit(F3, 1, 2)),
        (ver, 2, -1, Ball.unit(F3, 1, 2)),
        (_line(F2), 2, -2, Ball.unit(F2, 1, 2)),
        (_line(F5), 1, -1, Ball.unit(F5, 1, 2)),
        (_line(F9), 1, -1, Ball.unit(F9, 1, 2)),
        (veronese(F4, 2), 1, -1, Ball.unit(F4, 1, 2)),
        (_plane(F2), 1, -1, Ball.unit(F2, 2, 2)),
        (coarse, 2, -1, Ball.unit(F3, 1, 2)),
        # B off 0 inside the map's domain, and outside it, where the
        # label is built over B
        (ver, 1, -2, Ball((Laurent(F3, [(-1, 1), (-2, 2)]),), 3)),
        (ver, 1, -2, Ball((Laurent(F3, [(0, 1), (-1, 2)]),), 2)),
    ]


@pytest.mark.parametrize("case", range(len(_walk_cases())))
def test_walk_decides_phi_as_the_point_test(case):
    # every center of a cell where the walk's label is IN is in Phi^f; a
    # center of a cell with no survivors is not; an undecided cell's center
    # is left to the point test, which alone may raise; a center with a
    # shared reduction replays reduce_lattice's result there
    m, t, delta, B = _walk_cases()[case]
    params = UbiquityParams.from_delta(delta, m.n, m.d)
    c_res = max(B.radius_exp + 3, 1 - params.rho_exp(t))
    walked = ubiq._walk(m, t, delta, B, c_res)
    tally = {"in": 0, "out": 0, "undecided": 0, "raises": 0, "replayed": 0}
    for cell in GridSpec(m.spec, B.d, c_res, B).cells():
        x = cell.center
        want = _outcome(in_phi_f_point, m, x, t, delta)
        got = walked.get(x)
        if got is None:
            assert want is True, (x, want)
            tally["in"] += 1
            continue
        undecided, window = got
        if want is PrecisionError:
            assert undecided, x
            tally["raises"] += 1
        elif undecided:
            tally["undecided"] += 1
        else:
            assert want is False, x
            tally["out"] += 1
        if window is not None:
            cols = minkowski_columns(m, x, t)
            got, want = replay_reduction(cols, window), reduce_lattice(cols)
            assert (got.columns, got.coeffs, got.norm_exps, got.steps) == (
                want.columns, want.coeffs, want.norm_exps, want.steps)
            tally["replayed"] += 1
    # the coarse curve's windows all raise; every other case shares some
    assert tally["out"] and tally["raises" if case == COARSE else "replayed"], tally


@pytest.mark.parametrize("case", range(len(_walk_cases())))
def test_constructed_family_equals_pointwise(case):
    # the same family, member for member in order, and the same count of
    # skipped builds as one point test and one reduction per center; where
    # a center's own point test raises, both raise it
    m, t, delta, B = _walk_cases()[case]
    params = UbiquityParams.from_delta(delta, m.n, m.d)
    want = _outcome(pointwise_constructed_family, m, t, delta, B, params)
    if isinstance(want, type):
        with pytest.raises(want):
            constructed_family(m, t, delta, B, params)
        return
    assert constructed_family(m, t, delta, B, params) == want


def test_walk_tries_each_level_in_cell_order(monkeypatch):
    # the README's t = 3: windows return only on the level above the
    # resolution, about half of them.  Each level tries its windows in cell
    # order, so that level keeps trying and shares 969 reductions over 2,907
    # centers; popping the last child first, its first window raised and
    # the level stopped
    ver = xcli.load_map_file(ROOT / "maps" / "veronese2_q3.map")
    B = Ball.unit(F3, 1, 2)
    tried = {}  # radius exponent -> the centers whose windows were reduced
    columns = ubiq.minkowski_columns

    def recording(m, x, t):
        if x[0].prec is not None:
            tried.setdefault(1 - x[0].prec, []).append(tuple(Laurent(F3, z.terms) for z in x))
        return columns(m, x, t)

    monkeypatch.setattr(ubiq, "minkowski_columns", recording)
    walked = ubiq._walk(ver, 3, -1, B, 12)
    for r, centers in tried.items():
        order = {cell.center: k for k, cell in enumerate(GridSpec(F3, 1, r, B).cells())}
        ks = [order[x] for x in centers]
        assert ks == sorted(ks) and len(set(ks)) == len(ks), r
    windows = [w for _, w in walked.values() if w is not None]
    assert len(tried[11]) == 1939 and len(windows) == 2907
    assert len({id(w) for w in windows}) == 969
