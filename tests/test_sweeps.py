"""Every threshold grid is one labelled sweep: the delta-sweep of the
big-gradient sets, the epsilon-sweep of the quantitative-nondivergence sets
and the epsilon-grids of the goodness certificates each make one
measure_union call, and each threshold's result, read off that sweep by its
label, equals a sweep over that threshold's atoms alone: at the common
depth always, and at the threshold's own depth whenever that sweep is
certified."""

import itertools
from fractions import Fraction

import pytest

from ffdioph import dioph, goodfn, latdyn, ubiq
from ffdioph.cells import measure_union
from ffdioph.dioph import measure_bigA
from ffdioph.ffield import Ball, FieldSpec, GridSpec, Laurent, strict_below
from ffdioph.goodfn import (
    ConjAtom,
    PolyAbsAtom,
    TrueAtom,
    certify_good,
    certify_good_max,
    poly_data,
)
from ffdioph.latdyn import (
    DiagonalScaling,
    build_ceil_eps,
    build_D,
    qn_bound_probe,
    qn_short_vector_atoms,
)
from ffdioph.ultracalc import MPoly, veronese
from ffdioph.xcli import run_biggrad

F3 = FieldSpec(3)
F4 = FieldSpec(2, 2, modulus=(1, 1, 1))
VER = veronese(F3, 2)
EPS = Fraction(1, 4)
O3 = Ball.unit(F3, 1, 0)


def mono(spec, m, c=1):
    return MPoly.monomial(spec, 1, m, Laurent.const(spec, c))


@pytest.fixture()
def sweeps(monkeypatch):
    """The (atoms, domain, depth, labels) of every measure_union call the
    package makes while the test runs."""
    calls = []

    def spy(atoms, domain, max_depth, labels=None):
        calls.append((atoms, domain, max_depth, labels))
        return measure_union(atoms, domain, max_depth, labels)

    for mod in (dioph, goodfn, latdyn, ubiq):
        monkeypatch.setattr(mod, "measure_union", spy)
    return calls


@pytest.mark.parametrize("m, grid_N, max_depth", [
    (VER, 5, None), (VER, 5, 3), (veronese(F4, 2), 3, None)])
def test_biga_labels_are_single_delta_sweeps(m, grid_N, max_depth, sweeps):
    grid = GridSpec(m.spec, m.d, grid_N, m.resolved_domain)
    tvecs = list(itertools.product(range(2), repeat=m.n))
    deltas = [-1, -2, -3]
    got = measure_bigA(m, deltas, tvecs, EPS, grid, max_depth=max_depth)
    [(_, _, depth, labels)] = sweeps
    assert set(labels) == set(deltas)
    for de, (res, ratio) in zip(deltas, got):
        [(alone, r_alone)] = measure_bigA(m, [de], tvecs, EPS, grid, max_depth=depth)
        assert (res.included, res.undecided, ratio) == (alone.included, alone.undecided, r_alone)
        [(own, r_own)] = measure_bigA(m, [de], tvecs, EPS, grid, max_depth=max_depth)
        if own.certified:
            assert res.certified and (res.included, ratio) == (own.included, r_own)


def test_run_biggrad_is_one_sweep(sweeps):
    rep = run_biggrad(VER, [-1, -2, -3], 1, EPS, 5)
    assert len(sweeps) == 1 and rep.all_pass
    assert [r["deltaExp"] for r in rep.tables["delta_sweep"]] == [-1, -2, -3]


@pytest.mark.parametrize("D, eps_exps", [
    (build_D(build_ceil_eps(6, 0, (4, 4)), 1), [-1, -2, -3]),
    # tau_0 >= 0 at eps = q^2: that label holds the TrueAtom
    (DiagonalScaling(d=1, n=2, a0_exp=-1, astar_exp=0, ai_exps=(1, 1)), [2, 1, 0, -1]),
])
def test_qn_labels_are_single_eps_sweeps(D, eps_exps, sweeps):
    B = Ball.unit(F3, 1, 1)
    rows = qn_bound_probe(VER, B, D, eps_exps, max_depth=8)
    [(atoms, _, depth, labels)] = sweeps
    assert depth == 8 and [e for e, _ in rows] == eps_exps
    assert any(isinstance(a, TrueAtom) for a in atoms) == (eps_exps[0] == 2)
    for e, res in rows:
        alone, _ = qn_short_vector_atoms(VER, D, [e], domain=B)
        assert [lab for lab in labels if lab == e] == [e] * len(alone)
        want = measure_union(alone, B, depth)
        assert (res.included, res.undecided) == (want.included, want.undecided)


@pytest.mark.parametrize("g", [
    mono(F3, (2,)),
    mono(F3, (2,)).scale(Laurent.X(F3, 7)),     # its own depth grows as eps shrinks
    mono(F3, (3,)) + mono(F3, (1,), 2),
])
def test_certify_good_rows_are_single_eps_sweeps(g, sweeps):
    eps_exps = [-1, -2, -3, -4]
    cert = certify_good(g, O3, 1, eps_exps, resolution=3)
    [(_, _, depth, _)] = sweeps
    alones = []
    for e, measure, ratio in cert.rows:
        alone = measure_union([PolyAbsAtom(poly_data([g], O3), 0, strict_below(e))], O3, depth)
        assert measure == alone.included
        alones.append(alone)
        own = certify_good(g, O3, 1, [e], resolution=3)
        if own.certified:
            assert own.rows == [(e, measure, ratio)]
    assert cert.certified == all(a.certified for a in alones)


def test_certify_good_max_rows_are_single_eps_sweeps(sweeps):
    polys = [mono(F3, (1,)), mono(F3, (2,)) + mono(F3, (1,))]
    cert = certify_good_max(polys, O3, Fraction(1, 2), [-1, -2, -3])
    [(_, _, depth, _)] = sweeps
    assert depth == O3.radius_exp + 8 and cert.certified
    for e, measure, _ in cert.rows:
        sd = poly_data(polys, O3)
        atom = ConjAtom([PolyAbsAtom(sd, i, strict_below(e)) for i in range(len(polys))])
        assert measure == measure_union([atom], O3, depth).included


def test_empty_threshold_grids():
    grid = GridSpec(F3, 1, 4, VER.resolved_domain)
    assert measure_bigA(VER, [], [(1, 1)], EPS, grid) == []
    rep = run_biggrad(VER, [], 1, EPS, 4)
    assert rep.tables["delta_sweep"] == [] and rep.summary["ratioConstant"] == "0"
    assert rep.all_pass
    D = build_D(build_ceil_eps(6, 0, (4, 4)), 1)
    assert qn_bound_probe(VER, Ball.unit(F3, 1, 1), D, []) == []
    g = mono(F3, (2,))
    for cert in (certify_good(g, O3, 1, []), certify_good_max([g], O3, 1, [])):
        assert cert.rows == [] and cert.C.is_zero and cert.certified
