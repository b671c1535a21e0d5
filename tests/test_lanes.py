"""Lanes against the member loop: a label of witness members decided as
lanes of one packed integer (``cells.decide``) gives the member loop's
answer (``cells._decide``) on cells and at points: the same first member
IN, the same survivors in the same order, cell after cell down a path, and
the same PrecisionError where the loop raises first.  The point scan that
reads a whole shell in lanes is checked against the Laurent enumeration of
tests/oracles.py."""

from collections import Counter

from hypothesis import given, settings, strategies as st

from oracles import laurent_find_witness

from ffdioph.cells import LANES_MIN, MapCellData, SweepData, _decide, _Live, decide, in_lanes
from ffdioph.dioph import ApproxFn, WitnessAtom, find_witness
from ffdioph.errors import PrecisionError
from ffdioph.ffield import Ball, FieldSpec, Laurent, Poly, shell_count
from ffdioph.ultracalc import AnalyticMap, MPoly

F2, F3, F5 = FieldSpec(2), FieldSpec(3), FieldSpec(5)
F4, F9 = FieldSpec.from_order(4), FieldSpec.from_order(9)
FIELDS = (F2, F3, F5, F4, F9)


@st.composite
def _coefficients(draw, spec, windowed=True):
    """1, or a few digits, exact or (windowed) known only down to a window."""
    if draw(st.booleans()):
        return Laurent.one(spec)
    degs = draw(st.lists(st.integers(-4, 1), min_size=1, max_size=3, unique=True))
    terms = [(k, draw(st.integers(1, spec.q - 1))) for k in degs]
    windowed = windowed and draw(st.integers(0, 3)) == 0
    return Laurent(spec, terms, draw(st.integers(-9, min(degs))) if windowed else None)


@st.composite
def _mpolys(draw, spec, d, windowed=True):
    monos = st.tuples(*[st.integers(0, 2)] * d)
    return MPoly(spec, d, {m: draw(_coefficients(spec, windowed))
                           for m in draw(st.lists(monos, min_size=1, max_size=3, unique=True))})


@st.composite
def _coordinate(draw, spec, length):
    return Laurent(spec, [(-1 - i, draw(st.integers(0, spec.q - 1))) for i in range(length)])


@st.composite
def _labels(draw):
    """(a map with or without theta, a label of witness members of mixed
    degree classes on one SweepData, a path of nested cells, a point)."""
    spec = draw(st.sampled_from(FIELDS))
    d, n = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    comps = tuple(draw(_mpolys(spec, d)) for _ in range(n))
    theta = draw(_mpolys(spec, d)) if draw(st.booleans()) else None
    m = AnalyticMap(spec, d, n, comps, theta)
    sd = SweepData(m)
    taus = draw(st.lists(st.integers(-7, -2), min_size=1, max_size=2, unique=True))
    members = []
    for _ in range(draw(st.sampled_from((LANES_MIN, 20, 40, 80, 120)))):
        jmax = draw(st.integers(0, 2))
        a = tuple(Poly(spec, [draw(st.integers(0, spec.q - 1)) for _ in range(jmax + 1)])
                  for _ in range(n))
        if all(ai.is_zero for ai in a):
            a = (Poly.X(spec, jmax),) + a[1:]
        members.append(WitnessAtom(sd, a, draw(st.sampled_from(taus))))
    digits, r0 = draw(st.integers(0, 8)), draw(st.integers(0, 2))
    x = tuple(draw(_coordinate(spec, digits)) for _ in range(d))
    cells = [Ball(tuple(Laurent(spec, [(k, c) for k, c in xi.terms if k > -r]) for xi in x), r)
             for r in range(r0, max(r0, digits) + 1)]
    return sd, tuple(members), cells, x


def _outcome(fn, data, live):
    """(hit, survivors, the survivors as returned), or ("raises", message)."""
    try:
        hit, rest = fn(data, live)
    except PrecisionError as err:
        return "raises", str(err), None
    return hit, tuple(rest), rest


def test_lanes_equal_the_member_loop():
    # down a path of nested cells, the lanes' survivors passed on as they
    # come (lanes, compacted lanes or a tuple; compacted at every other
    # step) and the loop's as a tuple: every answer, survivor list and
    # error the same, and at a point
    seen = Counter()

    @settings(max_examples=250, derandomize=True, database=None, deadline=None)
    @given(_labels())
    def check(case):
        sd, members, cells, x = case
        assert type(in_lanes(sd, members)) is _Live
        lanes, loop = members, members
        for depth, cell in enumerate(cells):
            got = _outcome(decide, MapCellData(sd, cell), lanes)
            want = _outcome(_decide, MapCellData(sd, cell), loop)
            assert got[:2] == want[:2], (sd.m, cell, members)
            if got[0] == "raises":
                seen["raises"] += 1
            elif got[0] is not None:
                seen["IN"] += 1
            if got[0] is not None or not want[1]:
                break
            lanes, loop = got[2], want[2]
            if type(lanes) is _Live and depth % 2:
                # compact whatever lives, as if fewer than a quarter did
                kept = lanes.lanes._compact(lanes.lanes.indices(lanes.bits))
                lanes = _Live(kept, kept.top)
                assert tuple(lanes) == loop
            if type(lanes) is _Live:
                seen["lanes" if lanes.lanes.atoms == members else "compacted"] += 1
        point = MapCellData.at_point(sd, x)
        got, want = _outcome(decide, point, members), _outcome(_decide, point, members)
        assert got[:2] == want[:2], (sd.m, x, members)
        seen["point", got[0] == "raises", got[0] is None] += 1

    check()
    kinds = ("raises", "IN", "lanes", "compacted", ("point", False, True),
             ("point", False, False), ("point", True, False))
    assert min(seen[k] for k in kinds) >= 5, seen


def test_point_scan_equals_the_enumeration():
    # find_witness, a whole shell in lanes, against the Laurent scan of every
    # a of the shell in order, at exact points for t <= 3 (shells of at most
    # 2,000 vectors)
    seen = set()

    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @given(st.data())
    def check(data):
        draw = data.draw
        spec = draw(st.sampled_from(FIELDS))
        d, n = draw(st.integers(1, 2)), draw(st.integers(1, 2))
        t = draw(st.sampled_from([t for t in range(4) if shell_count(spec.q, n, t) <= 2000]))
        comps = tuple(draw(_mpolys(spec, d, False)) for _ in range(n))
        theta = draw(_mpolys(spec, d, False)) if draw(st.booleans()) else None
        m = AnalyticMap(spec, d, n, comps, theta)
        x = tuple(draw(_coordinate(spec, draw(st.integers(0, 8)))) for _ in range(d))
        psi = ApproxFn.shell_table([draw(st.integers(-9, -2))] * (t + 1))
        got, ref = find_witness(m, x, psi, t), laurent_find_witness(m, x, psi, t)
        assert (got if got is None else (got.a, got.a0, got.value)) == ref, (m, x, t)
        seen.add((t, got is None))

    check()
    assert seen >= {(t, found) for t in (1, 2, 3) for found in (True, False)}, seen
