"""Label groups and the F_q^*-orbit rule of the cell sweeps.

measure_union decides each label by one ``group.status(cell, ctx, live)``
call; these tests fold the members' own statuses by hand and compare.
Sweeps of a map without theta evaluate one a per F_q^*-orbit
(``dioph.orbit_firsts``); these tests compare the kept vectors with the
orbits built by scalar multiplication, and the measures and witnesses with
the Laurent oracles and brute force.
"""

import random
from fractions import Fraction

import pytest

from oracles import laurent_find_witness, member_status, naive_W_measure

from ffdioph.cells import IN, UNKNOWN, AtomGroup, SweepData, _group, measure_union
from ffdioph.dioph import (
    ApproxFn,
    WitnessAtom,
    enumerate_exact_degrees,
    find_witness,
    frac_exp,
    grad_exp,
    measure_W,
    measure_bigA,
    orbit_firsts,
)
from ffdioph.errors import PrecisionError
from ffdioph.ffield import (
    Ball,
    FieldSpec,
    GridSpec,
    Laurent,
    Poly,
    enumerate_box,
    enumerate_shell,
    strict_below,
)
from ffdioph.goodfn import ConjAtom, PolyAbsAtom, TrueAtom, poly_data
from ffdioph.ubiq import ResonantDistAtom, ResonantFn
from ffdioph.ultracalc import AnalyticMap, MPoly, veronese

F2, F3, F5 = FieldSpec(2), FieldSpec(3), FieldSpec(5)
F4 = FieldSpec.from_order(4)


# ---------------------------------------------------------------------------
# the orbit rule
# ---------------------------------------------------------------------------

def _orbit_key(spec, a):
    """The F_q^*-orbit of a, as a set of coefficient tuples."""
    return frozenset(tuple((Poly.const(spec, c) * ai).coeffs for ai in a)
                     for c in range(1, spec.q))


def _first_of_each_orbit(spec, vectors):
    seen, out = set(), []
    for a in vectors:
        key = _orbit_key(spec, a)
        if key not in seen:
            seen.add(key)
            out.append(a)
    return out


@pytest.mark.parametrize("spec", [F2, F3, F4, F5], ids=lambda s: f"q{s.q}")
def test_orbit_firsts_keep_the_first_of_each_orbit(spec):
    # for each enumerator, the kept a are exactly the first member of each
    # orbit in enumeration order, total / (q - 1) of the nonzero ones; with a
    # theta every a is kept
    x = MPoly.var(spec, 1, 0)
    hom = AnalyticMap(spec, 1, 2, (x, x * x))
    inh = AnalyticMap(spec, 1, 2, (x, x * x), MPoly.const(spec, 1, Laurent.X(spec, -1)))
    cases = [list(enumerate_shell(spec, 2, t)) for t in (0, 1)]
    cases += [[a for a in enumerate_box(spec, b) if any(a)] for b in ((1, 0), (0, -1))]
    cases += [list(enumerate_exact_degrees(spec, tv)) for tv in ((0, 1), (1, 0))]
    for full in cases:
        kept = list(orbit_firsts(hom, full))
        assert kept == _first_of_each_orbit(spec, full)
        assert len(kept) * (spec.q - 1) == len(full)
        assert all(next(ai for ai in a if ai).coeffs[-1] == 1 for a in kept)
        assert list(orbit_firsts(inh, full)) == full


@pytest.mark.parametrize("spec", [F3, F4], ids=lambda s: f"q{s.q}")
def test_homogeneous_measure_W_per_shell_equals_naive_sweep(spec):
    m = veronese(spec, 2)
    psi = ApproxFn.power_law(2, -1)
    grid = GridSpec(spec, 1, 2)
    rep = measure_W(m, psi, 0, 1, grid)
    assert rep.certified
    depth = rep.union.max_depth
    for t in (0, 1):
        assert rep.per_shell[t].included == naive_W_measure(m, psi, False, t, t, grid, depth)
    assert rep.union.included == naive_W_measure(m, psi, False, 0, 1, grid, depth)


def _bigA_center_count(m, delta_exp, tvec, eps, cells):
    """Cells whose center x has some a with |a_i| = q^{t_i}, |{a.f(x)}| <
    q^delta_exp q^(-sum t_i) and ||grad(a.f)(x)|| >= q^(max t_i (1 - eps)),
    from Laurent values, over every a of the box."""
    tau = strict_below(delta_exp - sum(tvec))
    lower = Fraction(max(tvec)) * (1 - eps)
    box = list(enumerate_exact_degrees(m.spec, tvec))
    hits = 0
    for cell in cells:
        x = cell.center
        fx = m.eval(x)
        for a in box:
            z = Laurent.zero(m.spec)
            for ai, v in zip(a, fx):
                z = z + ai.to_laurent() * v
            e = frac_exp(z)
            if e is not None and e > tau:
                continue
            ge = grad_exp(m, a, x)
            if ge is not None and Fraction(ge) >= lower:
                hits += 1
                break
    return hits


@pytest.mark.parametrize("spec, tvec", [(F3, (1, 1)), (F4, (1, 0))], ids=["q3", "q4"])
def test_homogeneous_measure_bigA_equals_brute_force(spec, tvec):
    # a certified sweep's leaves are unions of cells at its depth, so the
    # measure counts the depth cells whose center is a member
    m = veronese(spec, 2)
    eps = Fraction(1, 4)
    [(res, _)] = measure_bigA(m, [-1], [tvec], eps, GridSpec(spec, 1, 2))
    assert res.certified and res.included > 0
    cells = list(GridSpec(spec, 1, res.max_depth).cells())
    assert res.included == _bigA_center_count(m, -1, tvec, eps, cells) * cells[0].measure()


@pytest.mark.parametrize("spec", [F3, F4], ids=lambda s: f"q{s.q}")
def test_find_witness_equals_laurent_scan(spec):
    rng = random.Random(spec.q)
    m = veronese(spec, 2)
    found = 0
    for _ in range(60):
        x = [Laurent(spec, [(-k, rng.randrange(spec.q)) for k in range(1, 9)])]
        t = rng.choice((0, 1, 2))
        psi = ApproxFn.power_law(2, rng.choice((0, -1, -2)))
        w = find_witness(m, x, psi, t)
        ref = laurent_find_witness(m, x, psi, t)
        if ref is None:
            assert w is None
            continue
        found += 1
        assert (w.a, w.a0, w.value) == ref
    assert 0 < found < 60


# ---------------------------------------------------------------------------
# the group protocol
# ---------------------------------------------------------------------------

def _fold(members, cell, ctx):
    """(is_in, survivors) from one status call per member, a witness atom's
    being its label call alone."""
    rest = []
    for a in members:
        s = member_status(a, cell, ctx) if type(a) is WitnessAtom else a.status(cell, ctx)
        if s == IN:
            return True, ()
        if s == UNKNOWN:
            rest.append(a)
    return False, tuple(rest)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except PrecisionError:
        return "raises"


def _random_a(rng, spec, n, t):
    while True:
        a = tuple(Poly(spec, [rng.randrange(spec.q) for _ in range(t + 1)]) for _ in range(n))
        if max((p.deg for p in a if p), default=None) == t:
            return a


def _random_cells(rng, dom, depth, paths):
    cells = [dom]
    for _ in range(paths):
        cell = dom
        for _ in range(depth):
            cell = rng.choice(list(cell.subdivide()))
            cells.append(cell)
    return cells


def _windowed_cases():
    """(map, members that read past a window, cells where they do): f_1 and
    theta over F_2 known down to q^-6 and q^-4, where X^2 f_1 at x = X^-3
    reads an unknown digit at q^-7; and a gradient over F_2 in two
    variables that a = (1, 1) cancels in the window of d_1 f_1."""
    one, X, zero = Poly.one(F2), Poly.X(F2), Poly.zero(F2)
    x = MPoly.var(F2, 1, 0)
    theta = MPoly.const(F2, 1, Laurent(F2, [(0, 1), (-2, 1)], -4))
    f1 = x + MPoly.const(F2, 1, Laurent(F2, [(-3, 1)], -6))
    m1 = AnalyticMap(F2, 1, 2, (f1, x * x), theta)
    x1, x2 = MPoly.var(F2, 2, 0), MPoly.var(F2, 2, 1)
    g1 = MPoly.monomial(F2, 2, (1, 0), Laurent(F2, [(0, 1), (-2, 1)], -4)) + x2 * x2
    g2 = MPoly.monomial(F2, 2, (1, 0), Laurent(F2, [(0, 1), (-2, 1)])) + x1 * x2
    m2 = AnalyticMap(F2, 2, 2, (g1, g2))
    return [
        (m1, [((X * X, zero), -6, {})],
         [Ball((Laurent.X(F2, -3),), r) for r in (6, 8)]),
        (m2, [((one, one), -1, {k: b}) for k, b in (("grad_lower", -6), ("grad_lower", -3),
                                                   ("grad_upper_tau", -7))],
         [Ball((Laurent.X(F2, -1), Laurent.zero(F2)), r) for r in (3, 6, 8)]),
    ]


def test_witness_group_equals_folded_member_statuses():
    # value members and gradient members of both kinds on one SweepData,
    # exact and windowed maps, with and without theta: the group's answer on
    # every cell, or its PrecisionError, is the fold of the members' own
    rng = random.Random(11)
    theta = MPoly.const(F3, 1, Laurent(F3, [(-1, 1), (-3, 2)]))
    cases = [(veronese(F3, 2), [], []), (veronese(F4, 2), [], []),
             (veronese(F3, 2, theta=theta), [], [])] + _windowed_cases()
    seen = set()
    for m, special, spots in cases:
        sd = SweepData(m)
        members = []
        for _ in range(14):
            a = _random_a(rng, m.spec, m.n, rng.randint(0, 2))
            kind = rng.choice(("value", "grad_lower", "grad_upper_tau"))
            if kind == "value":
                members.append(WitnessAtom(sd, a, rng.choice((-1, -2, -3, -4))))
            else:
                bound = rng.choice((-2, -1, 0, 1)) if kind == "grad_upper_tau" else \
                    rng.choice((-3, -1, 0, Fraction(1, 2), 1))
                members.append(WitnessAtom(sd, a, rng.choice((-1, -2, -3)), **{kind: bound}))
        members += [WitnessAtom(sd, a, tau, **kw) for a, tau, kw in special]
        group = _group(members)
        assert group is members[0]
        for cell in _random_cells(rng, m.resolved_domain, 7, 4) + spots:
            # live sets of several sizes, and each special member alone
            lives = [members[k:] for k in range(0, 14, 5)] + [[a] for a in members[14:]]
            for live in map(tuple, lives):
                got = _outcome(group.status, cell, {}, live)
                if got != "raises":  # a survivor may be a member's narrowed form
                    got = got[0], tuple(next(a for a in live if s is a or s in (a.forms or ()))
                                        for s in got[1])
                assert got == _outcome(_fold, live, cell, {}), (m, cell, live)
                seen.add(got if got == "raises" else (got[0], bool(got[1])))
    assert seen >= {(True, False), (False, True), (False, False), "raises"}, seen


def test_a_label_call_reads_its_members_not_its_caller():
    # the atom that decides a label answers for each member as the member
    # itself does: the caller lends only its SweepData
    rng = random.Random(12)
    m = veronese(F3, 2)
    sd = SweepData(m)
    atoms = [WitnessAtom(sd, _random_a(rng, F3, 2, t), tau, grad_lower=g)
             for t in (0, 1, 2) for tau in (-1, -3) for g in (None, 0, 1)]
    for cell in _random_cells(rng, m.resolved_domain, 6, 3):
        ctx: dict = {}
        for atom in atoms:
            assert atoms[0].status(cell, ctx, (atom,)) == atom.status(cell, {}, (atom,))


def test_adapter_groups_equal_folded_member_statuses():
    # PolyAbsAtom, ConjAtom and ResonantDistAtom labels go through AtomGroup,
    # and a TrueAtom, alone in its label, is the label's group: IN everywhere
    rng = random.Random(13)
    x = MPoly.var(F3, 1, 0)
    B = Ball.unit(F3, 1, 1)
    c = MPoly.const(F3, 1, Laurent(F3, [(-1, 1)]))
    gs = poly_data([x, x * x - c, x - c], B)
    polys = [PolyAbsAtom(gs, 0, -2), PolyAbsAtom(gs, 1, -3), PolyAbsAtom(gs, 2, -1)]
    conjs = [ConjAtom([PolyAbsAtom(gs, 0, -1), PolyAbsAtom(gs, 2, -2)]), ConjAtom(polys[:2])]
    m = veronese(F3, 2)
    sd = SweepData(m, B)
    one = Poly.one(F3)
    fams = [ResonantFn(m=m, a0=one, a=(one, Poly.X(F3))), ResonantFn(m=m, a0=Poly.zero(F3),
                                                                      a=(Poly.X(F3), one))]
    dists = [ResonantDistAtom(g, tau, sd, 8) for g in fams for tau in (-1, -3)]
    for members in (polys, conjs, dists):
        group = _group(members)
        assert type(group) is AtomGroup
        for cell in _random_cells(rng, B, 6, 3):
            ctx: dict = {}
            assert group.status(cell, ctx, tuple(members)) == _fold(members, cell, {})
    truth = TrueAtom()
    assert _group([truth]) is truth
    assert truth.status(B, {}, (polys[0],)) == (True, ())
    # labels of each kind in one sweep: each label's measure is its own sweep's
    labels = [0] * 3 + [1] * 2 + [2] * 4
    union = measure_union(polys + conjs + dists, B, 8, labels)
    for lab, members in enumerate((polys, conjs, dists)):
        assert union.restrict([lab]).included == measure_union(members, B, 8).included


def test_labels_on_two_sweep_datas_read_their_own_columns():
    # witness labels of a map with theta and of its homogeneous part in one
    # sweep: each cell keeps one MapCellData per SweepData, so each label's
    # measure is its own sweep's
    rng = random.Random(14)
    theta = MPoly.const(F3, 1, Laurent(F3, [(-1, 1), (-3, 2)]))
    m = veronese(F3, 2, theta=theta)
    B = m.resolved_domain
    labels, atoms = [], []
    for lab, sd in enumerate((SweepData(m, B), SweepData(m.homogeneous, B))):
        for _ in range(6):
            a = _random_a(rng, F3, 2, rng.randint(0, 2))
            atoms.append(WitnessAtom(sd, a, rng.choice((-2, -3, -4))))
            labels.append(lab)
    union = measure_union(atoms, B, 6, labels)
    for lab in (0, 1):
        own = measure_union([a for a, b in zip(atoms, labels) if b == lab], B, 6)
        assert union.restrict([lab]).included == own.included
        assert union.restrict([lab]).undecided == own.undecided
    assert union.restrict([0]).included != union.restrict([1]).included
