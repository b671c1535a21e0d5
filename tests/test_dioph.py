"""Approximating functions, witnesses, Borel-Cantelli sums and the exact
measures of W, the big/small-gradient sets, Phi^f and the transference sets."""

import itertools
import random
from fractions import Fraction

import pytest

from oracles import (
    compare_abs_leq,
    laurent_combo,
    laurent_find_witness,
    member_status,
    naive_W_measure,
    value_status,
)

from ffdioph.ffield import (
    Ball,
    FieldSpec,
    GridSpec,
    Laurent,
    Poly,
    enumerate_box,
    strict_below,
)
from ffdioph.dioph import (
    ApproxFn,
    GRAD_EPS_DEFAULT,
    WitnessAtom,
    borel_cantelli_sum,
    classify_gradient,
    enumerate_exact_degrees,
    find_witness,
    frac_exp,
    in_I_t,
    in_phi_f_point,
    in_smallgrad_S_point,
    lin_comb,
    measure_W,
    measure_bigA,
    measure_phi_f,
    measure_smallgrad_S,
    phi_delta_exp,
    psi0_exp,
)
from ffdioph.errors import PrecisionError
from ffdioph.cells import IN, OUT, UNKNOWN, MapCellData, SweepData
from ffdioph.ultracalc import AnalyticMap, MPoly, veronese

F2 = FieldSpec(2)
F3 = FieldSpec(3)
VER = veronese(F3, 2)
LINE2 = AnalyticMap(F2, 1, 1, (MPoly.var(F2, 1, 0),))


# ---------------------------------------------------------------------------
# ApproxFn
# ---------------------------------------------------------------------------

def test_power_law_monotone_and_values():
    psi = ApproxFn.power_law(2)
    assert psi.exp_at_shell(0) == 0
    assert psi.exp_at_shell(3) == -6
    a = (Poly.X(F3), Poly.one(F3))
    assert psi.exp_at(a) == -2


def test_shell_table_validation():
    with pytest.raises(ValueError):
        ApproxFn.shell_table([-1, 0])
    t = ApproxFn.shell_table([0, -2, None])
    assert t.exp_at_shell(2) is None


def test_psi0():
    assert psi0_exp((1, 2)) == -3


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

def test_find_witness_line_example():
    w = find_witness(LINE2, [Laurent.X(F2, -1)], ApproxFn.power_law(2), 1)
    assert w is not None
    assert w.a == (Poly.X(F2),) and w.a0 == Poly.one(F2)
    assert w.value.is_zero
    assert w.verify(LINE2, [Laurent.X(F2, -1)], ApproxFn.power_law(2))


def test_find_witness_huge_psi():
    # Psi > 1: the first shell element works with a0 = -[z]
    w = find_witness(VER, [Laurent.X(F3, -1)], ApproxFn.shell_table([1, 1]), 1)
    assert w is not None and w.shell == 1


def test_find_witness_none():
    # t=0 over F_2 with Psi = q^-2: constants cannot approximate this center
    x = [Laurent(F2, [(-1, 1)])]
    w = find_witness(LINE2, x, ApproxFn.shell_table([-2]), 0)
    assert w is None


def test_witness_soundness_random():
    rng = random.Random(12)
    psi = ApproxFn.power_law(3)
    grid = GridSpec(F3, 1, 4)
    cells = list(grid.cells())
    for _ in range(30):
        x = rng.choice(cells).center
        t = rng.randrange(1, 3)
        w = find_witness(VER, x, psi, t)
        if w is not None:
            assert w.verify(VER, x, psi)


def _witness_maps():
    F4 = FieldSpec.from_order(4)
    theta = (MPoly.monomial(F3, 1, (2,), Laurent.X(F3, -1))
             + MPoly.const(F3, 1, Laurent(F3, [(0, 1), (-2, 2), (-3, 1)])))
    return [LINE2, VER, veronese(F3, 2, theta=theta),
            AnalyticMap(F4, 1, 1, (MPoly.var(F4, 1, 0),))]


def test_find_witness_matches_laurent_oracle():
    # the packed point scan against the Laurent scan of tests/oracles.py:
    # exact grid centers and windowed points, shells 0..2, thresholds above
    # and below 1/q.  The packed scan raises only where the oracle raises;
    # where only the oracle raises, every fractional digit of the returned
    # sum is known and zero down to q^(tau+1), so the witness holds for
    # every completion of the window
    rng = random.Random(11)
    tally = {"witness": 0, "no witness": 0, "both raise": 0, "only the oracle raises": 0}
    for m in _witness_maps():
        spec = m.spec
        points = [c.center for c in rng.sample(list(GridSpec(spec, 1, 5).cells()), 8)]
        for prec in (-2, -3, -5, -8):
            for _ in range(3):
                digits = [(k, rng.randrange(spec.q)) for k in range(0, prec, -1)]
                points.append([Laurent(spec, digits, prec)])
        for x in points:
            for t in (0, 1, 2):
                for bound in (1, Fraction(-1, 2), -2, -3, -5):
                    psi = ApproxFn.shell_table([bound] * (t + 1))
                    got = _outcome(find_witness, m, x, psi, t)
                    ref = _outcome(laurent_find_witness, m, x, psi, t)
                    if ref != "raises":
                        if got is not None and ref is not None:
                            got = (got.a, got.a0, got.value)
                        assert got == ref, (m, x, t, bound)
                        tally["no witness" if ref is None else "witness"] += 1
                    elif got == "raises":
                        tally["both raise"] += 1
                    else:
                        tau = strict_below(bound)
                        assert got is not None and got.value.prec is not None
                        assert not got.value.terms and (tau >= -1 or got.value.prec <= tau + 1)
                        tally["only the oracle raises"] += 1
    assert all(tally.values()), tally


# ---------------------------------------------------------------------------
# Borel-Cantelli sums
# ---------------------------------------------------------------------------

def test_bc_geometric():
    bc = borel_cantelli_sum(ApproxFn.power_law(2), 2, 1, 10)
    assert bc.limit == 2 and not bc.diverges
    assert bc.partial == Fraction(2047, 1024)


def test_bc_divergent_constant_shells():
    bc = borel_cantelli_sum(ApproxFn.power_law(1), 2, 1, 5)
    assert bc.diverges
    assert all(s == bc.shells[0] for s in bc.shells)


def test_bc_t0_term():
    assert borel_cantelli_sum(ApproxFn.power_law(1), 3, 1, 0).partial == 2


def test_bc_zero():
    bc = borel_cantelli_sum(ApproxFn.zero_fn(), 3, 2, 4)
    assert bc.partial == 0 and bc.diverges is False


# ---------------------------------------------------------------------------
# measure_W
# ---------------------------------------------------------------------------

def test_w_full_when_psi_large():
    g = GridSpec(F3, 1, 4)
    rep = measure_W(VER, ApproxFn.shell_table([1, 1]), 0, 1, g)
    assert rep.union.measure == g.resolved_domain.measure()


def test_w_zero_psi():
    g = GridSpec(F3, 1, 4)
    rep = measure_W(VER, ApproxFn.zero_fn(), 0, 2, g)
    assert rep.union.measure == 0 and rep.certified


def test_w_veronese_golden():
    # frozen from the independent full-depth oracle before wiring the engine
    rep = measure_W(VER, ApproxFn.power_law(4), 1, 1, GridSpec(F3, 1, 5))
    assert rep.certified and rep.union.measure == Fraction(1, 9)


def test_w_matches_naive_oracle():
    g = GridSpec(F3, 1, 4)
    for tau in (3, 4):
        rep = measure_W(VER, ApproxFn.power_law(tau), 1, 1, g)
        oracle = naive_W_measure(VER, ApproxFn.power_law(tau), False, 1, 1, g, depth=8)
        assert rep.certified and rep.union.measure == oracle


def test_w_intervals_of_one_sweep_match_naive_oracle():
    # one sweep labelled by shell gives the union over every sub-range
    theta = MPoly.const(F3, 1, Laurent(F3, [(-1, 2), (-2, 1), (-4, 1)]))
    shifted = AnalyticMap(F3, 1, 2, VER.components, theta=theta, domain=VER.domain)
    line = AnalyticMap(F2, 1, 1, (MPoly.var(F2, 1, 0),))
    cases = [
        (VER, ApproxFn.shell_table([0, -3, -3]), False, GridSpec(F3, 1, 4), 7),
        (shifted, ApproxFn.shell_table([0, -2, -3]), True, GridSpec(F3, 1, 4), 7),
        # Psi(shell 1) = 1: that shell holds every point
        (shifted, ApproxFn.shell_table([0, 0, -3]), True, GridSpec(F3, 1, 4), 7),
        (line, ApproxFn.power_law(2), False, GridSpec(F2, 1, 5), 10),
    ]
    for m, psi, theta_on, grid, depth in cases:
        sweep = measure_W(m if theta_on else m.homogeneous, psi, 1, 2, grid)
        seen = set()
        for lo, hi in ((1, 1), (1, 2), (2, 2)):
            got = sweep.interval(lo, hi)
            want = naive_W_measure(m, psi, theta_on, lo, hi, grid, depth=depth)
            assert got.certified and got.measure == want
            seen.add(want)
        assert len(seen) > 1  # the intervals are told apart
        assert sweep.per_shell[2].measure == sweep.interval(2, 2).measure


def test_w_subadditive_and_monotone():
    g = GridSpec(F3, 1, 4)
    psi_small = ApproxFn.power_law(4)
    psi_big = ApproxFn.power_law(3)
    rep = measure_W(VER, psi_small, 1, 2, g)
    assert rep.union.measure <= sum(
        (r.measure for r in rep.per_shell.values()), Fraction(0)
    )
    rep_big = measure_W(VER, psi_big, 1, 2, g)
    assert rep.union.measure <= rep_big.union.measure


def test_w_theta_changes_the_set():
    theta = MPoly.monomial(F3, 1, (1,), Laurent.monomial(F3, 1, -1))  # X^-1 x
    m = veronese(F3, 2, theta=theta)
    psi = ApproxFn.power_law(4)
    diffs = 0
    for cell in GridSpec(F3, 1, 4).cells():
        x = cell.center
        w_hom = find_witness(m.homogeneous, x, psi, 1)
        w_inh = find_witness(m, x, psi, 1)
        if (w_hom is None) != (w_inh is None):
            diffs += 1
    assert diffs > 0  # the shift genuinely moves the approximable set


def test_cell_data_fills_gradient_rows_only_on_request():
    # d = 2: row 0 is f1, f2, theta; rows 1 and 2 their partials
    x1, x2 = MPoly.var(F3, 2, 0), MPoly.var(F3, 2, 1)
    m = AnalyticMap(F3, 2, 2, (x1, x1 * x2 + x2 * x2))
    sd = SweepData(m)
    a = (Poly.X(F3), Poly.one(F3))
    # both atoms register before a cell is read: the gradient rows come in
    # with the first kind-1 registration, which a made layout refuses
    value, grad = WitnessAtom(sd, a, -3), WitnessAtom(sd, a, -3, grad_lower=0)
    filled = {}
    for cell in GridSpec(F3, 2, 3).cells():
        ctx = {}
        s = member_status(value, cell, ctx)
        assert [v is not None for v in ctx[sd].cols] == [True, False, False]
        ctx = {}
        member_status(grad, cell, ctx)
        filled[s == OUT] = [v is not None for v in ctx[sd].cols]
    assert filled == {True: [True, False, False], False: [True, True, True]}


def _reference_value_status(data, atom, value=None):
    """The value status from Laurent arithmetic: laurent_combo, frac_exp and
    compare_abs_leq (``value`` replaces the center value of a.f + theta)."""
    if atom.tau >= -1:
        return IN
    v, var = laurent_combo(data, atom.a, 0)
    if var is not None and var > -1:
        return UNKNOWN
    return compare_abs_leq(frac_exp(v if value is None else value), var, atom.tau)


def _outcome(status, *args):
    try:
        return status(*args)
    except PrecisionError:
        return "raises"


def _random_mpoly(rng, spec, d):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        mono = tuple(rng.randint(0, 2) for _ in range(d))
        degs = rng.sample(range(-3, 2), 2)
        terms[mono] = Laurent(spec, [(k, rng.randrange(1, spec.q)) for k in degs])
    return MPoly(spec, d, terms)


def _random_a(rng, spec, n, t):
    while True:
        a = tuple(Poly(spec, [rng.randrange(spec.q) for _ in range(t + 1)])
                  for _ in range(n))
        if max((p.deg for p in a if not p.is_zero), default=None) == t:
            return a


def _sweeps(m):
    """One SweepData for a.f + theta and one for a.f (the same one when
    the map has no theta)."""
    sd = SweepData(m)
    return sd, sd if m.theta is None else SweepData(m.homogeneous)


def _random_cells(rng, dom, depth, paths):
    cells = [dom]
    for _ in range(paths):
        cell = dom
        for _ in range(depth):
            cell = rng.choice(list(cell.subdivide()))
            cells.append(cell)
    return cells


def test_packed_value_status_matches_laurent_status():
    # every (atom, cell) pair of small seeded sweeps: atoms of several tau
    # and shell degrees share one SweepData per theta setting, so one digit
    # window serves all
    rng = random.Random(6)
    seen = set()
    for spec in (F2, F3, FieldSpec(5), FieldSpec.from_order(4)):
        for d in (1, 2):
            for with_theta in (False, True):
                n = rng.randint(1, 2)
                comps = tuple(_random_mpoly(rng, spec, d) for _ in range(n))
                theta = _random_mpoly(rng, spec, d) if with_theta else None
                m = AnalyticMap(spec, d, n, comps, theta)
                sd, hom = _sweeps(m)
                atoms = []
                for t in (0, 1, 2):
                    for tau in (-1, -2, -3, -5):
                        a = _random_a(rng, spec, n, t)
                        on = with_theta and rng.random() < 0.7
                        atoms.append(WitnessAtom(sd if on else hom, a, tau))
                atoms.append(WitnessAtom(sd, _random_a(rng, spec, n, 1), -3, grad_lower=0))
                for cell in _random_cells(rng, m.resolved_domain, 8, 3):
                    datas = {s: MapCellData(s, cell) for s in (sd, hom)}
                    for atom in atoms:
                        data = datas[atom.sd]
                        got = value_status(atom, data)
                        assert got == _reference_value_status(data, atom), (spec, cell, atom.a)
                        seen.add(got)
                with pytest.raises(ValueError):
                    WitnessAtom(sd, atoms[0].a, -9)
    assert seen == {IN, OUT, UNKNOWN}


def test_packed_value_status_precision_parity():
    # theta and f_1 known only down to q^-4 and q^-6: the packed path raises
    # only where the Laurent path raises.  It decides where every digit it
    # reads is known and zero, which frac_exp reports as indistinguishable
    # from 0; that decision holds for every completion below the window
    x = MPoly.var(F2, 1, 0)
    theta = MPoly.const(F2, 1, Laurent(F2, [(0, 1), (-2, 1)], -4))
    f1 = x + MPoly.const(F2, 1, Laurent(F2, [(-3, 1)], -6))
    m = AnalyticMap(F2, 1, 2, (f1, x * x), theta)
    sweeps = _sweeps(m)  # (with theta, without)
    rng = random.Random(7)
    atoms = [WitnessAtom(sweeps[not th], _random_a(rng, F2, 2, t), tau)
             for t in (0, 1, 2) for tau in (-2, -3, -4, -6) for th in (False, True)
             for _ in range(3)]
    # X^2 f_1 is 0 at x = X^-3 down to its window floor q^-4: reading
    # degree -5 would take the unknown digit of f_1 at -7 for 0
    atoms.append(WitnessAtom(sweeps[1], (Poly.X(F2, 2), Poly.zero(F2)), -6))
    cells = _random_cells(rng, m.resolved_domain, 8, 4)
    cells += [Ball((Laurent.X(F2, -3),), r) for r in (6, 8)]
    tally = {"both decide": 0, "both raise": 0, "only Laurent raises": 0}
    for cell in cells:
        datas = {s: MapCellData(s, cell) for s in sweeps}
        for atom in atoms:
            data = datas[atom.sd]
            got = _outcome(value_status, atom, data)
            ref = _outcome(_reference_value_status, data, atom)
            if ref != "raises":
                assert got == ref
                tally["both decide"] += 1
            elif got == "raises":
                tally["both raise"] += 1
            else:
                v, _ = laurent_combo(data, atom.a, 0)
                for below in (0, 1):
                    done = Laurent(F2, v.terms + ((v.prec - 1, below),))
                    assert got == _reference_value_status(data, atom, done)
                tally["only Laurent raises"] += 1
    assert all(tally.values()), tally


def _reference_grad_status(data, atom, values=None):
    """The gradient status from Laurent arithmetic: laurent_combo per partial,
    abs_exp and the norm comparisons (``values[j]`` replaces the center
    value of d_j(a.f + theta) where given)."""
    comps = []
    for j in range(data.sd.m.d):
        gv, gvar = laurent_combo(data, atom.a, 1 + j)
        if values is not None and values[j] is not None:
            gv = values[j]
        comps.append((gv.abs_exp(), gvar))
    out = IN
    if atom.grad_lower is not None:
        # max_j |g_j| >= q^lower: IN once some |g_j| is constant on the cell
        # and large enough, UNKNOWN while some variation reaches the bound
        s = OUT
        for v_exp, var in comps:
            if v_exp is not None and (var is None or v_exp > var):
                if Fraction(v_exp) >= atom.grad_lower:
                    s = IN
                    break
            elif var is not None and Fraction(var) >= atom.grad_lower:
                s = UNKNOWN
        if s == OUT:
            return OUT
        if s == UNKNOWN:
            out = UNKNOWN
    if atom.grad_upper_tau is not None:
        for v_exp, var in comps:
            s = compare_abs_leq(v_exp, var, atom.grad_upper_tau)
            if s == OUT:
                return OUT
            if s == UNKNOWN:
                out = UNKNOWN
    return out


def test_packed_grad_status_matches_laurent_status():
    # every (atom, cell) pair of small seeded sweeps: gradient atoms of
    # several thresholds and shell degrees share one SweepData per theta
    # setting with value atoms
    rng = random.Random(7)
    seen = set()
    for spec in (F2, F3, FieldSpec(5), FieldSpec.from_order(4)):
        for d in (1, 2):
            for with_theta in (False, True):
                n = rng.randint(1, 2)
                comps = tuple(_random_mpoly(rng, spec, d) for _ in range(n))
                theta = _random_mpoly(rng, spec, d) if with_theta else None
                m = AnalyticMap(spec, d, n, comps, theta)
                sd, hom = _sweeps(m)
                atoms = []
                for t in (0, 1, 2):
                    for bound in (-1, 0, Fraction(3, 4), Fraction(3, 2), -2, 1):
                        kind = "grad_upper_tau" if bound in (-2, 1) else "grad_lower"
                        for _ in range(2):
                            a, tau = _random_a(rng, spec, n, t), rng.choice((-1, -3))
                            on = with_theta and rng.random() < 0.7
                            atoms.append(WitnessAtom(sd if on else hom, a, tau, **{kind: bound}))
                    atoms.append(WitnessAtom(hom, _random_a(rng, spec, n, t), -1,
                                             grad_upper_tau=0))
                    atoms.append(WitnessAtom(hom, _random_a(rng, spec, n, t), -1,
                                             grad_lower=-1, grad_upper_tau=1))
                for cell in _random_cells(rng, m.resolved_domain, 8, 3):
                    datas = {s: MapCellData(s, cell) for s in (sd, hom)}
                    for atom in atoms:
                        data = datas[atom.sd]
                        got = atom._grad_status(data)
                        assert got == _reference_grad_status(data, atom), (spec, cell, atom.a)
                        seen.add(got)
                        both = {value_status(atom, data), got}
                        assert member_status(atom, cell, {atom.sd: data}) == (
                            OUT if OUT in both else UNKNOWN if UNKNOWN in both else IN)
    assert seen == {IN, OUT, UNKNOWN}


def test_digit_windows_fixed_when_columns_are_built():
    x1, x2 = MPoly.var(F3, 2, 0), MPoly.var(F3, 2, 1)
    m = AnalyticMap(F3, 2, 2, (x1, x1 * x2 + x2 * x2))
    sd = SweepData(m)
    a = (Poly.X(F3), Poly.one(F3))
    cell = next(iter(GridSpec(F3, 2, 3).cells()))
    # a gradient atom registers first: the gradient rows come in with the
    # first kind-1 registration, before any layout is made
    first = WitnessAtom(sd, a, -1, grad_lower=Fraction(1, 2))
    value = WitnessAtom(sd, a, -3)
    # a cell that has built no columns fixes nothing: a deeper value floor goes
    assert member_status(WitnessAtom(sd, a, -1), cell, {}) == IN
    WitnessAtom(sd, a, -5)
    assert sd.floors[0] == -4 and sd.bases[0] is None and sd.slots is None
    member_status(value, cell, {})
    assert sd.bases[0] == -4 - a[0].deg and sd.slots is not None
    WitnessAtom(sd, a, -4)
    with pytest.raises(ValueError):
        WitnessAtom(sd, a, -6)
    assert sd.floors[0] == -4
    # the value window is fixed, the gradient window is not: any floor goes
    WitnessAtom(sd, a, -1, grad_upper_tau=-2)
    assert sd.floors[1] == -1 and sd.bases[1] is None
    member_status(first, cell, {})
    assert sd.bases[1] == -1 - a[0].deg
    # later registrations that read no lower are accepted
    WitnessAtom(sd, a, -1, grad_lower=-1)
    WitnessAtom(sd, a, -1, grad_upper_tau=5)
    with pytest.raises(ValueError):
        WitnessAtom(sd, a, -1, grad_lower=-2)
    with pytest.raises(ValueError):
        WitnessAtom(sd, a, -1, grad_upper_tau=-3)
    with pytest.raises(ValueError):  # a wider shift widens the slots as well
        WitnessAtom(sd, (Poly.X(F3, 2), a[1]), -1, grad_lower=1)
    assert sd.floors[1] == -1
    # once a cell has made a layout, the first gradient registration raises
    sd = SweepData(m)
    member_status(WitnessAtom(sd, a, -3), cell, {})
    assert len(sd.rows) == 1
    with pytest.raises(ValueError):
        WitnessAtom(sd, a, -1, grad_lower=0)
    assert len(sd.rows) == 1


def test_slot_width_holds_a_packed_a0():
    # the largest sum one slot takes over F_3 with n = 1 and deg a_1 = 0:
    # theta's digit, a_1 times f_1's digit and a0's digit, 2 + 2*2 + 2 = 8.
    # The slots hold it, so the top digit of G = 2x + 2 + theta at x = 2 is
    # the one of the Laurent value, 8 = 2 at degree 0
    x = MPoly.var(F3, 1, 0)
    two = Laurent(F3, [(0, 2)])
    m = AnalyticMap(F3, 1, 1, (x,), MPoly.const(F3, 1, two))
    sd = SweepData(m)
    a, a0 = (Poly(F3, [2]),), Poly(F3, [2])
    pids = sd.register(a, 0, -3)
    data = MapCellData.at_point(sd, [two])
    val, _, prec = data.packed_sum(pids, 0)
    g = lin_comb(two, a, [two]) + a0.to_laurent()
    assert g.abs_exp() == 0
    assert sd.top_digit(val + sd.pack(a0), -3, prec, 0) == 0


def test_packed_grad_status_precision_parity():
    # d_1 f_1 is known only down to q^-4, and over F_2 a = (1, 1) cancels it
    # against the exact d_1 f_2 there: d_1(a.f) = x_2 + (0 to q^-4).  The
    # packed path raises only where the Laurent path raises; where only the
    # Laurent path raises, its decision equals the reference on every
    # completion below the window
    x1, x2 = MPoly.var(F2, 2, 0), MPoly.var(F2, 2, 1)
    c = Laurent(F2, [(0, 1), (-2, 1)], -4)
    e = Laurent(F2, [(0, 1), (-2, 1)])
    f1 = MPoly.monomial(F2, 2, (1, 0), c) + x2 * x2
    f2 = MPoly.monomial(F2, 2, (1, 0), e) + x1 * x2
    theta = MPoly.monomial(F2, 2, (0, 1), Laurent(F2, [(-1, 1)], -6))
    m = AnalyticMap(F2, 2, 2, (f1, f2), theta)
    sweeps = _sweeps(m)  # (with theta, without)
    rng = random.Random(8)
    one, X = Poly.one(F2), Poly.X(F2)
    atoms = [WitnessAtom(sweeps[not th], a, -1, **{kind: bound})
             for a in ((one, one), (X, X), (one, Poly.zero(F2)))
             for th in (False, True)
             for kind, bound in (("grad_lower", -6), ("grad_lower", -3),
                                 ("grad_lower", Fraction(1, 2)),
                                 ("grad_upper_tau", -7), ("grad_upper_tau", -2),
                                 ("grad_upper_tau", 0))]
    cells = _random_cells(rng, m.resolved_domain, 8, 4)
    cells += [Ball((Laurent.X(F2, -1), Laurent.zero(F2)), r) for r in (3, 6, 8)]
    tally = {"both decide": 0, "both raise": 0, "only Laurent raises": 0}
    for cell in cells:
        datas = {s: MapCellData(s, cell) for s in sweeps}
        for atom in atoms:
            data = datas[atom.sd]
            got = _outcome(atom._grad_status, data)
            ref = _outcome(_reference_grad_status, data, atom)
            if ref != "raises":
                assert got == ref
                tally["both decide"] += 1
            elif got == "raises":
                tally["both raise"] += 1
            else:
                blank = []
                for j in range(m.d):
                    v, _ = laurent_combo(data, atom.a, 1 + j)
                    blank.append([None] if v.terms or v.exact else
                                 [Laurent(F2, [(v.prec - 1, below)]) for below in (0, 1)])
                for values in itertools.product(*blank):
                    assert got == _reference_grad_status(data, atom, values)
                tally["only Laurent raises"] += 1
    assert all(tally.values()), tally


# ---------------------------------------------------------------------------
# big gradient
# ---------------------------------------------------------------------------

def test_biga_saturates_when_threshold_huge():
    # delta q^{-sum t} > 1 and vacuous gradient bound: the whole domain
    g = GridSpec(F3, 1, 4)
    # use tvec = (0,0): ||a|| = 1, gradient >= 1^{3/4} means >= 1: need a1 != 0
    [(res, ratio)] = measure_bigA(VER, [-1], [(0, 0)], Fraction(1, 4), g, max_depth=8)
    assert res.certified
    # a = (c, d) with c != 0 satisfies the gradient bound; the value condition
    # |{c x + d x^2}| <= q^-2 holds iff |x| <= q^-2 for some choice
    assert res.included > 0


def test_biga_golden_instance():
    g = GridSpec(F3, 1, 6)
    [(res, ratio)] = measure_bigA(VER, [-1], [(1, 1)], Fraction(1, 4), g)
    assert res.certified
    assert res.included == Fraction(31, 243) and ratio == Fraction(31, 27)


def test_biga_ratio_sweep_bounded():
    g = GridSpec(F3, 1, 5)
    tvecs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    ratios = []
    for res, ratio in measure_bigA(VER, [-1, -2, -3], tvecs, Fraction(1, 4), g):
        assert res.certified
        ratios.append(ratio)
    C = max(ratios)
    assert all(r <= C for r in ratios)


def test_biga_theta_in_lambda_is_homogeneous():
    # theta = X lies in Lambda: a.f + X + a_0 runs over the values of
    # a.f + a_0, and grad theta = 0, so A_theta = A
    grid, tvecs = GridSpec(F3, 1, 4), list(itertools.product(range(2), repeat=2))
    shifted = veronese(F3, 2, theta=MPoly.const(F3, 1, Laurent.X(F3)))
    [(hom, _)] = measure_bigA(VER, [-1], tvecs, Fraction(1, 4), grid)
    [(inh, _)] = measure_bigA(shifted, [-1], tvecs, Fraction(1, 4), grid)
    assert hom.certified and inh.certified
    assert inh.included == hom.included == Fraction(23, 81)


def test_biga_theta_matches_pointwise_split():
    # A_theta for theta = X^-1 x^2 against the centers of the sweep's
    # depth-7 grid: some a with |a_i| = q^{t_i} has |{a.f + theta}| <
    # delta q^{-sum t_i} and classify_gradient says "large"
    m = veronese(F3, 2, theta=MPoly.monomial(F3, 1, (2,), Laurent.X(F3, -1)))
    grid, tvecs = GridSpec(F3, 1, 4), list(itertools.product(range(2), repeat=2))
    [(res, _)] = measure_bigA(m, [-1], tvecs, Fraction(1, 4), grid)
    assert res.certified and res.included == Fraction(25, 81)

    def member(x):
        fx, th = m.eval(x), m.eval_theta(x)
        for tvec in tvecs:
            for a in enumerate_exact_degrees(F3, tvec):
                e = frac_exp(lin_comb(th, a, fx))
                if ((e is None or e < -1 - sum(tvec))
                        and classify_gradient(m, a, x) == "large"):
                    return True
        return False

    hits = sum(member(cell.center) for cell in GridSpec(F3, 1, 7).cells())
    assert hits * Fraction(1, 3**7) == res.included


def test_biga_rejects_bad_eps():
    with pytest.raises(ValueError):
        measure_bigA(VER, [-1], [(1, 1)], Fraction(1, 2), GridSpec(F3, 1, 4))


def test_classify_gradient():
    x = [Laurent.X(F3, -1)]
    a = (Poly.X(F3), Poly.zero(F3))  # grad = X: |X| = q >= q^{1(1-eps)}
    assert classify_gradient(VER, a, x) == "large"
    a2 = (Poly.zero(F3), Poly.one(F3))  # grad = 2x: q^-1 < q^0
    assert classify_gradient(VER, a2, x) == "small"


# ---------------------------------------------------------------------------
# small gradient
# ---------------------------------------------------------------------------

def test_smallgrad_huge_t_residual():
    B = Ball.unit(F3, 1, 1)
    res, eps = measure_smallgrad_S(VER, 8, 0, (1, 1), B)
    # only the constants a = (0, c) survive the gradient gate; the value
    # condition |c x^2| < q^-8 pins |x| <= q^-5
    assert res.certified and res.included == Fraction(1, 243)
    assert eps == Fraction(-7, 3)


def test_smallgrad_t0_reduces_to_gradient_sublevel():
    B = Ball.unit(F3, 1, 1)
    res, _ = measure_smallgrad_S(VER, 0, -2, (1, 1), B)
    # S = {x : some constant a has ||grad(a.f)|| < q^-2} = {|x| <= q^-3}
    assert res.certified and res.included == Fraction(1, 27)


def test_smallgrad_gradient_floor_empties():
    # on a ball where |x| = q^-1 exactly, |grad| >= q^-1 for nonzero a
    B = Ball((Laurent.X(F3, -1),), 3)
    res, _ = measure_smallgrad_S(VER, 3, -5, (1, 1), B, max_depth=10)
    assert res.certified and res.included == 0


def test_smallgrad_hypothesis_rejected():
    with pytest.raises(ValueError):
        measure_smallgrad_S(VER, 1, 5, (1, 1), Ball.unit(F3, 1, 1))


def test_smallgrad_pointwise_agrees_with_measure_support():
    B = Ball.unit(F3, 1, 1)
    t, tp, tvec = 2, 0, (1, 1)
    res, _ = measure_smallgrad_S(VER, t, tp, tvec, B, max_depth=9)
    assert res.certified
    # every included cell center at the working resolution is a member
    total = Fraction(0)
    for cell in GridSpec(F3, 1, 5, B).cells():
        if in_smallgrad_S_point(VER, cell.center, t, tp, tvec):
            total += cell.measure()
    # centers only sample, but the exact measure can be reproduced at a
    # resolution where the set is a union of cells; here depth 5 suffices
    assert total == res.included


# ---------------------------------------------------------------------------
# Phi^f
# ---------------------------------------------------------------------------

def test_phi_f_trivial_full():
    # delta q^{-nt} > 1 cannot happen with 0 < delta < 1 and t >= 1, but a
    # shallow threshold saturates: n=1, t=1, delta=q^-1 has tau = -3 < -1,
    # so check monotonicity + the frozen small instance instead
    r = measure_phi_f(LINE2, 1, -1, Ball.unit(F2, 1, 1))
    assert r.certified and r.included == Fraction(3, 16)


def test_phi_f_monotone_in_delta():
    B = Ball.unit(F3, 1, 1)
    prev = None
    for de in (-1, -2, -3):
        r = measure_phi_f(VER, 1, de, B)
        assert r.certified
        if prev is not None:
            assert r.included <= prev
        prev = r.included


def test_phi_f_point_consistent_with_measure():
    B = Ball.unit(F2, 1, 1)
    r = measure_phi_f(LINE2, 1, -1, B)
    total = Fraction(0)
    for cell in GridSpec(F2, 1, 5, B).cells():
        if in_phi_f_point(LINE2, cell.center, 1, -1):
            total += cell.measure()
    assert total == r.included


def test_phi_f_rejects_bad_params():
    with pytest.raises(ValueError):
        measure_phi_f(VER, 0, -1, Ball.unit(F3, 1, 1))
    with pytest.raises(ValueError):
        measure_phi_f(VER, 1, 0, Ball.unit(F3, 1, 1))


# ---------------------------------------------------------------------------
# transference sets I_t / H_t
# ---------------------------------------------------------------------------

THETA = MPoly.monomial(F3, 1, (1,), Laurent.monomial(F3, 1, -1))  # X^-1 x
VER_TH = veronese(F3, 2, theta=THETA)


def test_alpha_zero_excluded():
    x = [Laurent.X(F3, -1)]
    with pytest.raises(ValueError):
        in_I_t(VER_TH, x, (Poly.zero(F3), (Poly.zero(F3), Poly.zero(F3))), (1, 1), Fraction(0), GRAD_EPS_DEFAULT)


def test_it_lambda_huge_contains_slab():
    # enormous lambda: membership reduces to the coordinate degree caps
    x = [Laurent.X(F3, -1)]
    alpha = (Poly.zero(F3), (Poly.one(F3), Poly.zero(F3)))
    assert in_I_t(VER_TH, x, alpha, (1, 1), Fraction(50), GRAD_EPS_DEFAULT)
    big = (Poly.zero(F3), (Poly.X(F3, 3), Poly.zero(F3)))
    assert not in_I_t(VER_TH, x, big, (1, 1), Fraction(50), GRAD_EPS_DEFAULT)


def _candidate_alphas(m, x, tvec, lam_exp, eps):
    """Members alpha of I_t at x: a ranges over the degree box, a0 forced."""
    out = []
    fx = m.eval(x)
    th = m.eval_theta(x)
    for a in enumerate_box(F3, list(tvec)):
        z = th
        for ai, fi in zip(a, fx):
            if not ai.is_zero:
                z = z + ai.to_laurent() * fi
        head, _ = z.poly_part()
        a0 = -head
        if a0.is_zero and all(p.is_zero for p in a):
            continue
        if in_I_t(m, x, (a0, a), tvec, lam_exp, eps):
            out.append((a0, a))
    return out


def test_difference_index_nonzero_a_part():
    # the paper's footnote: if a'' = 0 then |a_0''| < 1 forces a_0'' = 0
    eps = GRAD_EPS_DEFAULT
    delta = Fraction(1, 10)
    tvec = (1, 1)
    lam = phi_delta_exp(delta, tvec)
    for cell in GridSpec(F3, 1, 3).cells():
        x = cell.center
        members = _candidate_alphas(VER_TH, x, tvec, lam, eps)
        for (a0, a), (b0, b) in itertools.combinations(members, 2):
            if all((p - r).is_zero for p, r in zip(a, b)):
                assert (a0 - b0).is_zero
