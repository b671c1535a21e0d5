"""Newton roots, resonant gates, the witness construction, covering
fractions and divergence sums."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from oracles import center_row, laurent_dist_status

from ffdioph import ubiq
from ffdioph.errors import PrecisionError
from ffdioph.ffield import Ball, FieldSpec, GridSpec, Laurent, Poly
from ffdioph.cells import IN, OUT, UNKNOWN, MapCellData, SweepData, measure_union
from ffdioph.dioph import ApproxFn, in_phi_f_point, measure_phi_f
from ffdioph.ubiq import (
    ResonantDistAtom,
    ResonantFn,
    UbiquityParams,
    construct_resonant_witness,
    constructed_family,
    covering_fraction,
    dist_to_resonant,
    gate_family,
    lambda_phi_hits,
    newton_root_1d,
    resonant_gate,
    ubiquity_sum,
)
from ffdioph.ultracalc import AnalyticMap, MPoly, veronese
from ffdioph.xcli import run_ubiquity

F2 = FieldSpec(2)
F3 = FieldSpec(3)
VER = veronese(F3, 2)
LINE3 = AnalyticMap(F3, 1, 1, (MPoly.var(F3, 1, 0),))


# ---------------------------------------------------------------------------
# ultrametric Newton
# ---------------------------------------------------------------------------

def test_newton_linear():
    c = Laurent(F3, [(-1, 2), (-3, 1)])
    root = newton_root_1d([-c, Laurent.one(F3)], prec=20)
    assert root == c


def test_newton_square_root():
    h = [Laurent.monomial(F3, 2, -2), Laurent.zero(F3), Laurent.one(F3)]
    r = newton_root_1d(h, prec=30, seed=Laurent.X(F3, -1))
    resid = r * r - Laurent.monomial(F3, 1, -2)
    assert not resid.terms


def test_newton_hensel_violation():
    # eta^2 - X^-2 at seed 0: h(0) = -X^-2, h'(0) = 0
    h = [Laurent.monomial(F3, 2, -2), Laurent.zero(F3), Laurent.one(F3)]
    with pytest.raises(ValueError):
        newton_root_1d(h, prec=10)


def test_newton_rejects_a_dominant_higher_term():
    # |h(0)| = q < |h'(0)|^2 = q^2, but r = |h(0)|/|h'(0)| = 1 and |h_2| r^2 =
    # q^2 >= |h(0)|: Newton from 0 does not converge here, so the seed is
    # rejected instead of iterating 64 times
    def lau(*terms):
        return Laurent(F3, list(terms))

    h = [lau((1, 1), (0, 1), (-1, 1), (-4, 2), (-5, 2), (-7, 2)),
         lau((1, 1), (0, 1), (-3, 1), (-4, 2)),
         lau((2, 2), (1, 2), (0, 2))]
    with pytest.raises(ValueError, match="order >= 2"):
        newton_root_1d(h, prec=20)
    # the same check reads the coefficients at the seed: h = eta^2 - X^-2 at
    # the seed X^-1 + X^-3 has h(s) = 2X^-4 + X^-6, h'(s) = 2X^-1 + 2X^-3
    # and h_2 = 1, so r = q^-3 and |h_2| r^2 = q^-6 < |h(s)|
    h = [Laurent.monomial(F3, 2, -2), Laurent.zero(F3), Laurent.one(F3)]
    root = newton_root_1d(h, prec=30, seed=lau((-1, 1), (-3, 1)))
    assert (root - lau((-1, 1), (-3, 1))).abs_exp() == -3
    resid = root * root - Laurent.monomial(F3, 1, -2)
    assert not resid.terms or resid.top_deg <= -30


def test_newton_randomized_contract():
    # on Hensel-valid instances: |h(root)| <= q^-prec and
    # |root - seed| <= |h(seed)| / |h'(seed)|    (criterion-10 mechanics)
    rng = random.Random(91)
    done = 0
    while done < 120:
        spec = rng.choice([F2, F3])
        deg = rng.randrange(2, 5)
        coeffs = [
            Laurent(spec, [(d, rng.randrange(spec.q)) for d in range(-4, 1)])
            for _ in range(deg + 1)
        ]
        if coeffs[-1].is_zero:
            continue
        h0, h1 = coeffs[0], coeffs[1]
        if h0.is_zero or h1.is_zero:
            continue
        if h0.top_deg >= 2 * h1.top_deg:
            continue  # Hensel fails; skip
        prec = 25
        root = newton_root_1d(coeffs, prec=prec)
        val = Laurent.zero(spec)
        for c in reversed(coeffs):
            val = val * root + c
        assert not val.terms or val.top_deg <= -prec
        assert root.abs_value() <= h0.abs_value() / h1.abs_value()
        done += 1


# ---------------------------------------------------------------------------
# resonant functions and the gate
# ---------------------------------------------------------------------------

def test_resonant_zero_tuple_rejected():
    with pytest.raises(ValueError):
        ResonantFn(m=VER, a0=Poly.zero(F3), a=(Poly.zero(F3), Poly.zero(F3)))


def test_gate_examples():
    U0 = Ball.unit(F3, 1, 2)
    g = ResonantFn(m=VER, a0=Poly.zero(F3), a=(Poly.one(F3), Poly.zero(F3)))
    assert resonant_gate(g, U0)
    const = ResonantFn(m=VER, a0=Poly.one(F3), a=(Poly.zero(F3), Poly.zero(F3)))
    assert not resonant_gate(const, U0)
    # g depending only on x2 has d1 = 0 on a d=2 domain
    f2 = AnalyticMap(F3, 2, 2, (MPoly.var(F3, 2, 0), MPoly.var(F3, 2, 1)))
    gx2 = ResonantFn(m=f2, a0=Poly.zero(F3), a=(Poly.zero(F3), Poly.one(F3)))
    assert not resonant_gate(gx2, Ball.unit(F3, 2, 2))


def test_gate_domain_guard():
    g = ResonantFn(m=VER, a0=Poly.zero(F3), a=(Poly.one(F3), Poly.zero(F3)))
    with pytest.raises(ValueError):
        resonant_gate(g, Ball.unit(F3, 1, 1))


def test_dist_to_resonant_on_set():
    g = ResonantFn(m=VER, a0=Poly.zero(F3), a=(Poly.one(F3), Poly.zero(F3)))
    res = dist_to_resonant([Laurent.zero(F3)], g)
    assert res.dist.is_zero


def test_dist_to_resonant_linear_case():
    # g + theta = x - c: distance is |x1 - c|
    c = Laurent.monomial(F3, 1, -2)
    theta = MPoly.const(F3, 1, -c)
    m = veronese(F3, 2, theta=theta)
    g = ResonantFn(m=m, a0=Poly.zero(F3), a=(Poly.one(F3), Poly.zero(F3)))
    x = [Laurent.monomial(F3, 2, -1)]
    res = dist_to_resonant(x, g)
    assert res.dist == (x[0] - c).abs_value()


def _axis_coeffs(x, g):
    """The coefficients of h(eta) = (g+theta)(x + eta e_1), ascending."""
    rec = g.with_theta.recenter(x)
    axis = (0,) * (g.m.d - 1)
    top = max((mono[0] for mono in rec.terms), default=0)
    return [rec.terms.get((k,) + axis, Laurent.zero(g.m.spec)) for k in range(top + 1)]


def test_dist_to_resonant_matches_newton():
    # |h(0)|/|h'(0)| against the Newton root from 0 (to q^-60, below every
    # |h(0)| here): the same distance, and the same ValueError where
    # Newton's Hensel condition fails; ValueError too where a term of order
    # >= 2 reaches |h(0)| at that radius, where Newton's contract does not
    # hold (it may not converge); maps in one and two variables, with theta
    rng = random.Random(92)
    x1, x2 = MPoly.var(F3, 2, 0), MPoly.var(F3, 2, 1)
    theta = MPoly.const(F3, 1, Laurent(F3, [(-1, 1), (-4, 2)]))
    maps = [VER, veronese(F3, 2, theta=theta), veronese(F2, 3),
            AnalyticMap(F3, 2, 2, (x1 * x1 + x2, x1 * x2))]
    tally = Counter()
    for _ in range(300):
        m = rng.choice(maps)
        a = tuple(Poly(m.spec, [rng.randrange(m.spec.q) for _ in range(3)]) for _ in range(m.n))
        a0 = Poly(m.spec, [rng.randrange(m.spec.q) for _ in range(2)])
        if a0.is_zero and all(ai.is_zero for ai in a):
            continue
        g = ResonantFn(m=m, a0=a0, a=a)
        x = [Laurent(m.spec, [(-k, rng.randrange(m.spec.q)) for k in range(1, 6)])
             for _ in range(m.d)]
        coeffs = _axis_coeffs(x, g)
        if coeffs[0].is_zero:
            assert dist_to_resonant(x, g).dist.is_zero
            tally["on the set"] += 1
        elif len(coeffs) < 2 or coeffs[1].is_zero or coeffs[0].top_deg >= 2 * coeffs[1].top_deg:
            with pytest.raises(ValueError, match="Hensel"):
                dist_to_resonant(x, g)
            tally["Hensel fails"] += 1
        elif any(hk.terms and hk.top_deg + k * (coeffs[0].top_deg - coeffs[1].top_deg)
                 >= coeffs[0].top_deg for k, hk in enumerate(coeffs[2:], start=2)):
            with pytest.raises(ValueError, match="order >= 2"):
                dist_to_resonant(x, g)
            tally["order 2 reaches"] += 1
        else:
            want = newton_root_1d(coeffs, prec=60).abs_value()
            assert dist_to_resonant(x, g).dist == want, (g, x)
            tally["root"] += 1
    assert len(tally) == 4 and tally["root"] >= 100, tally


def test_dist_atom_sweep_brackets_the_exact_measure_with_quadratic_theta():
    # G = x + X^k x^2 (f_1 = x, theta = X^k x^2) has the roots 0 and
    # -X^-k, so dist(x, R_g) = min(|x|, |x + X^-k|) exactly; X^-2 + x + X^3 x^2
    # has no root (its discriminant 1 - X is not a square).  Only theta has a
    # weight >= 2 part: the atom must fold its table, and weigh it against
    # |G| and |d1 G| q^tau, to stay sound
    x = MPoly.var(F3, 1, 0)
    cases = [(k, (x * x).scale(Laurent.X(F3, k))) for k in (1, 2, 3)]
    cases.append((None, cases[-1][1] + MPoly.const(F3, 1, Laurent.X(F3, -2))))
    decided = 0
    for k, theta in cases:
        m = AnalyticMap(F3, 1, 1, (x,), theta)
        g = ResonantFn(m=m, a0=Poly.zero(F3), a=(Poly.one(F3),))
        B = m.resolved_domain
        for tau in range(-1, -6, -1):
            res = measure_union([ResonantDistAtom(g, tau, SweepData(m, B), 8)], B, 8)
            # two balls of radius q^tau, one when they meet
            exact = 0 if k is None else min(B.measure(), Fraction(2 if tau < -k else 1, 3**-tau))
            assert res.included <= exact <= res.included + res.undecided, (k, tau)
            decided += res.undecided < B.measure() / 3
    assert decided >= 10


def _completed(data, fill):
    """The cell data with every windowed row value completed by the digit
    fill just below its window."""
    done = MapCellData(data.sd, data.cell)
    for r in (0, 1):
        vals, done.vars[r] = center_row(data, r)
        done.vals[r] = [v if v.exact else Laurent(v.spec, v.terms + ((v.prec - 1, fill),))
                        for v in vals]
    return done


class _CheckedDistAtom:
    """A ResonantDistAtom whose every status is compared with the Laurent
    reference; a raise reads UNKNOWN, so the sweep goes on."""

    def __init__(self, atom, tally):
        self.atom, self.tally = atom, tally

    def status(self, cell, ctx):
        atom = self.atom
        try:
            got = atom.status(cell, ctx)
        except PrecisionError:
            got = "raises"
        data = MapCellData.of(atom.sd, cell, ctx)
        try:
            ref = laurent_dist_status(atom, data, cell)
        except PrecisionError:
            ref = "raises"
        if ref != "raises":
            assert got == ref, (cell, atom.g.a, atom.g.a0, atom.tau)
            self.tally[got] += 1
        elif got == "raises":
            self.tally["both raise"] += 1
        else:
            # the packed read decides on known digits only: the same answer
            # as the reference on every completion of the windows
            for fill in (0, 1):
                assert got == laurent_dist_status(atom, _completed(data, fill), cell)
            self.tally["only Laurent raises"] += 1
        return UNKNOWN if got == "raises" else got


def test_dist_atom_matches_laurent_oracle():
    # every cell of whole sweeps, one label per atom: the status read off the
    # packed columns against the Laurent reference, over F_2, F_3 and F_4,
    # theta absent, constant and cubic, the F_3 line (d1 G constant) and a
    # map with windowed coefficients (c x with c known down to q^-2, and a
    # theta known down to q^-1; its g = c x + 1 + theta cancels to 0 in the
    # window at x = 0).  Each family starts with a = (1, .., 1), a0 = 1: over
    # F_2 with f = (c' x, x), c' = 1 known down to q^-2, its d1 G = c' + 1
    # has no known digit
    F4 = FieldSpec.from_order(4)

    def const(spec, terms, prec=None):
        return MPoly.const(spec, 1, Laurent(spec, terms, prec))

    def cubic(spec):
        x = MPoly.var(spec, 1, 0)
        return (x * x * x).scale(Laurent.X(spec, -1)) + const(spec, [(-1, 1)])

    x = MPoly.var(F3, 1, 0)
    windowed = AnalyticMap(F3, 1, 1, (x.scale(Laurent(F3, [(1, 1), (-1, 2)], -2)),),
                           theta=const(F3, [(0, 2)], -1))
    x2 = MPoly.var(F2, 1, 0)
    cancels = AnalyticMap(F2, 1, 2, (x2.scale(Laurent(F2, [(0, 1)], -2)), x2))
    maps = [veronese(F2, 2), veronese(F3, 2, theta=const(F3, [(-1, 1), (-3, 2)])),
            veronese(F3, 2, theta=cubic(F3)), LINE3, veronese(F4, 2, theta=cubic(F4)),
            windowed, cancels]
    rng = random.Random(2)
    tally = Counter()
    for m in maps:
        B, depth = Ball.unit(m.spec, 1, 2), 8
        sd = SweepData(m, B)
        one = Poly.one(m.spec)
        family = [ResonantFn(m=m, a0=one, a=(one,) * m.n)]
        while len(family) < 8:
            a = tuple(Poly(m.spec, [rng.randrange(m.spec.q) for _ in range(rng.randint(1, 3))])
                      for _ in range(m.n))
            a0 = Poly(m.spec, [rng.randrange(m.spec.q) for _ in range(2)])
            if not all(p.is_zero for p in a):
                family.append(ResonantFn(m=m, a0=a0, a=a))
        atoms = []
        for g in family:
            for tau in (-1, -2, -4):
                atoms.append(_CheckedDistAtom(ResonantDistAtom(g, tau, sd, depth), tally))
        measure_union(atoms, B, depth, labels=range(len(atoms)))
    assert set(tally) == {IN, OUT, UNKNOWN, "both raise", "only Laurent raises"}, tally


# ---------------------------------------------------------------------------
# ubiquity parameters
# ---------------------------------------------------------------------------

def test_params_from_delta():
    p = UbiquityParams.from_delta(-1, 2, 1)
    assert p.t_prime == 1 and p.k0_exp == -3 and p.k1_exp == -2
    assert p.gamma == 0
    assert p.rho_exp(1) == -5 and p.rho_exp(2) == -8
    assert p.rho_decay_ok()


def test_rho_decay_identity():
    # rho(q^{t+1}) < lambda rho(q^t) with lambda = q^{-(n+1)} <= ... < 1
    p = UbiquityParams.from_delta(-2, 1, 1)
    for t in range(1, 6):
        assert p.rho_exp(t + 1) == p.rho_exp(t) - (p.n + 1)


# ---------------------------------------------------------------------------
# the witness construction
# ---------------------------------------------------------------------------

def test_construction_rejects_resonance_rich_points():
    params = UbiquityParams.from_delta(-1, 2, 1)
    x = [Laurent.zero(F3)]  # 0 is in Phi^f(1, 1/q)
    assert in_phi_f_point(VER, x, 1, -1)
    with pytest.raises(ValueError):
        construct_resonant_witness(VER, x, 1, -1, params)


def test_construction_small_sweep_all_claims():
    params = UbiquityParams.from_delta(-1, 2, 1)
    checked = 0
    for cell in GridSpec(F3, 1, 4).cells():
        x = cell.center
        if in_phi_f_point(VER, x, 1, -1):
            continue
        con = construct_resonant_witness(VER, x, 1, -1, params)
        assert con.b1 and con.b2 and con.b3
        assert con.beta_exp == 1  # beta_g = q^t exactly at this scale
        # the d1 lower bound: |d1(g+theta)(x)| >= q^{nt'+t}(q-1), here = q^4
        assert con.audit["d1_exp"] == 2 * params.t_prime + 1 + 1
        checked += 1
    assert checked > 0


def test_construction_with_theta():
    theta = MPoly.monomial(F3, 1, (1,), Laurent.monomial(F3, 1, -1))
    m = veronese(F3, 2, theta=theta)
    params = UbiquityParams.from_delta(-1, 2, 1)
    done = 0
    for cell in GridSpec(F3, 1, 4).cells():
        x = cell.center
        if in_phi_f_point(m, x, 1, -1):
            continue
        con = construct_resonant_witness(m, x, 1, -1, params)
        assert con.all_ok
        # the constructed g really vanishes near x: re-verify through the
        # evaluated function, not the construction bookkeeping
        val = con.g.with_theta.eval(x)
        e = val.abs_exp()
        assert e is None or e <= params.t_prime * m.n - m.n - 2
        done += 1
    assert done > 0


def test_short_vector_bounds_audited():
    params = UbiquityParams.from_delta(-1, 2, 1)
    for cell in GridSpec(F3, 1, 4).cells():
        x = cell.center
        if in_phi_f_point(VER, x, 1, -1):
            continue
        con = construct_resonant_witness(VER, x, 1, -1, params)
        assert con.audit["bounds_ok"]
        for gj in con.audit["g_j"]:
            ve, ce = gj["value_exp"], gj["coef_exp"]
            assert ve is None or ve <= params.t_prime * 2 - 2 * 1  # n t' - n t
            assert ce is None or ce <= params.t_prime * 2 + 1      # n t' + t


# ---------------------------------------------------------------------------
# covering fractions
# ---------------------------------------------------------------------------

def test_covering_below_all_heights_is_zero():
    params = UbiquityParams.from_delta(-1, 1, 1)
    rep = covering_fraction(LINE3, -5, -1, Ball.unit(F3, 1, 2), params, budget=10**4)
    assert rep.fraction == 0 and rep.family_size == 0


def test_covering_line_full_enumeration():
    params = UbiquityParams.from_delta(-1, 1, 1)
    B = Ball.unit(F3, 1, 2)
    rep = covering_fraction(LINE3, 1, -1, B, params, budget=10**5)
    assert not rep.partial and rep.certified
    assert 0 < rep.fraction <= 1
    # the resonant zoo at height q covers everything at rho(q) = q^-3
    assert rep.fraction == 1


def test_covering_dominates_nonphi_veronese():
    params = UbiquityParams.from_delta(-1, 2, 1)
    B = Ball.unit(F3, 1, 2)
    rep = covering_fraction(VER, 1, -1, B, params, budget=10**4)
    assert rep.partial  # the full family is way beyond the budget
    assert rep.certified
    phi = measure_phi_f(VER, 1, -1, B)
    assert phi.certified
    non_phi = B.measure() - phi.included
    # the pointwise inclusion B \ Phi^f subset union Delta(R_g, rho), with
    # the constructed family sampled finer than rho, in exact measure
    assert rep.measure >= non_phi


def test_constructed_family_is_the_constructions_g():
    # covering_fraction builds only g at each center: its family is the set
    # of g of the full construction (claims checked) over the same non-Phi
    # centers, in cell order, and the members that pass the gate on B are
    # the atoms of its union
    B = Ball.unit(F3, 1, 2)
    for m in (VER, LINE3):
        params = UbiquityParams.from_delta(-1, m.n, m.d)
        family, skipped = constructed_family(m, 1, -1, B, params)
        c_res = max(B.radius_exp + 3, 1 - params.rho_exp(1))
        want = {}
        for cell in GridSpec(F3, 1, c_res, B).cells():
            if not in_phi_f_point(m, cell.center, 1, -1):
                g = construct_resonant_witness(m, cell.center, 1, -1, params).g
                want.setdefault(g, g)
        assert family == list(want) and len(family) > 1 and skipped == 0
        rep = covering_fraction(m, 1, -1, B, params, budget=10)
        assert rep.partial and rep.family_size == sum(resonant_gate(g, B) for g in family)


def test_constructed_family_counts_build_skips(monkeypatch):
    # a center whose build raises ValueError is left out and counted by
    # constructed_family, covering_fraction and run_ubiquity's covering
    # rows; the build raises at the centers with a digit below q^-3, the
    # resolution of the witness audit grid, so the audit itself still runs
    real = ubiq.build_resonant_fn
    raised = []

    def flaky(m, x, t, delta_exp, params, *window):
        if x[0].terms and x[0].terms[-1][0] < -3:
            raised.append(x)
            raise ValueError("singular system")
        return real(m, x, t, delta_exp, params, *window)

    monkeypatch.setattr(ubiq, "build_resonant_fn", flaky)
    B = Ball.unit(F3, 1, 2)
    params = UbiquityParams.from_delta(-1, VER.n, VER.d)
    family, skipped = constructed_family(VER, 1, -1, B, params)
    assert family and skipped == len(raised) > 0
    raised.clear()
    rep = covering_fraction(VER, 1, -1, B, params, budget=10)
    assert rep.partial and rep.build_skipped == len(raised) == skipped
    raised.clear()
    [row] = run_ubiquity(VER, [1], -1, ApproxFn.power_law(3), Fraction(1), 3).tables["covering"]
    assert row["partialFamily"] and row["buildSkipped"] == len(raised) == skipped


def test_gate_family_counts_precision_skips():
    # G = x^2 on the F_3 Veronese: d1 G = 2x vanishes at the center of B, so
    # its gate raises PrecisionError and is counted; G = x passes, and the
    # constant g (a = 0) is no member of the union
    B = Ball.unit(F3, 1, 2)
    one, zero = Poly.one(F3), Poly.zero(F3)
    gx = ResonantFn(m=VER, a0=zero, a=(one, zero))
    gx2 = ResonantFn(m=VER, a0=zero, a=(zero, one))
    with pytest.raises(PrecisionError):
        resonant_gate(gx2, B)
    const = ResonantFn(m=VER, a0=one, a=(zero, zero))
    assert gate_family([gx2, gx, const], B) == ([gx], 1)


# ---------------------------------------------------------------------------
# divergence sums
# ---------------------------------------------------------------------------

def test_ubiquity_sum_divergent_constant_terms():
    params = UbiquityParams.from_delta(-1, 2, 1)
    us = ubiquity_sum(ApproxFn.power_law(2), params, Fraction(1), 8, 3)
    assert us.diverges and us.series_exp_slope == 0
    assert all(t == us.terms[0] for t in us.terms)
    assert us.khintchine_diverges


def test_ubiquity_sum_convergent_geometric():
    params = UbiquityParams.from_delta(-1, 2, 1)
    us = ubiquity_sum(ApproxFn.power_law(3), params, Fraction(1), 8, 3)
    assert not us.diverges
    assert us.closed_form is not None
    # geometric with ratio q^-1: partial sums approach the closed form
    assert us.partial < us.closed_form
    assert us.closed_form - us.partial == us.terms[-1] / (3 - 1)
    assert us.khintchine_diverges is False


def test_ubiquity_sum_single_term():
    params = UbiquityParams.from_delta(-1, 1, 1)
    us = ubiquity_sum(ApproxFn.power_law(1), params, Fraction(1), 1, 3)
    assert us.partial == us.terms[0]


def test_ubiquity_sum_needs_s_above_gamma():
    params = UbiquityParams.from_delta(-1, 1, 2)  # d = 2, gamma = 1
    with pytest.raises(ValueError):
        ubiquity_sum(ApproxFn.power_law(1), params, Fraction(1), 3, 3)


# ---------------------------------------------------------------------------
# Lambda(phi) hits
# ---------------------------------------------------------------------------

def test_lambda_phi_full_when_phi_huge():
    params = UbiquityParams.from_delta(-1, 1, 1)
    grid = GridSpec(F3, 1, 4, Ball.unit(F3, 1, 2))
    rep = lambda_phi_hits(LINE3, ApproxFn.power_law(0, coeff_exp=5), 1, grid, params, budget=10**5)
    assert rep.measure == grid.resolved_domain.measure()


def test_lambda_phi_hits_all_verified():
    # every hit re-verifies as a (Psi, theta)-witness through the chain
    # |(g+theta)(x)| <= ||a|| ||x-z|| < psi(||a||) = Psi(a)
    params = UbiquityParams.from_delta(-1, 1, 1)
    theta = MPoly.monomial(F3, 1, (1,), Laurent.monomial(F3, 2, -1))
    line = AnalyticMap(F3, 1, 1, (MPoly.var(F3, 1, 0),), theta=theta)
    grid = GridSpec(F3, 1, 4, Ball.unit(F3, 1, 2))
    rep = lambda_phi_hits(line, ApproxFn.power_law(2), 1, grid, params, budget=10**5)
    assert rep.all_hits_verified
    assert len(rep.hits) > 0
