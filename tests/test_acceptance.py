"""Acceptance suite: one test per criterion, exact tolerances, one PASS line
each (run with -s or -rP to see them).

The headline limit statements are not desk-reproducible; these tests pin the
finite-scale mechanisms exactly: exact counts, exact measures (never
floats), independent oracles where the criterion names one, and recorded
constants where boundedness is the claim.
"""

import itertools
import random
import time
from fractions import Fraction

from oracles import (
    OracleBudgetExceeded,
    laurent_cols_to_poly,
    naive_W_measure,
    shortest_vector_oracle,
)

from ffdioph.dioph import (
    ApproxFn,
    GRAD_EPS_DEFAULT,
    borel_cantelli_sum,
    in_H_t,
    in_I_t,
    in_phi_f_point,
    in_smallgrad_S_point,
    measure_W,
    measure_bigA,
    phi_delta_exp,
)
from ffdioph.ffield import (
    Ball,
    FieldSpec,
    GridSpec,
    Laurent,
    Poly,
    enumerate_box,
    enumerate_shell,
    shell_count,
)
from ffdioph.goodfn import certify_good, good_bound_holds
from ffdioph.latdyn import (
    LaurentMatrix,
    build_ceil_eps,
    build_D,
    qn_bound_probe,
    qn_membership,
    reduce_lattice,
)
from ffdioph.ubiq import (
    UbiquityParams,
    construct_resonant_witness,
    newton_root_1d,
    ubiquity_sum,
)
from ffdioph.ultracalc import AnalyticMap, MPoly, veronese

F2 = FieldSpec(2)
F3 = FieldSpec(3)
VER = veronese(F3, 2)


def _report(num, text):
    print(f"PASS criterion {num}: {text}")


# ---------------------------------------------------------------------------
# 1. shell counts
# ---------------------------------------------------------------------------

def test_criterion_01_shell_counts():
    start = time.time()
    for q in (2, 3):
        spec = FieldSpec(q)
        for n in (1, 2, 3):
            for t in range(4):
                got = sum(1 for _ in enumerate_shell(spec, n, t))
                assert got == shell_count(q, n, t) == q ** ((t + 1) * n) - q ** (t * n)
                # independent brute enumeration: all coefficient tuples
                brute = 0
                for encs in itertools.product(range(q ** (t + 1)), repeat=n):
                    degs = [Poly.from_encoding(spec, e).deg for e in encs]
                    if max((d for d in degs if d is not None), default=-1) == t:
                        brute += 1
                assert brute == got
    elapsed = time.time() - start
    assert elapsed < 10
    _report(1, f"shell counts match q^(tn)(q^n-1) and brute enumeration ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. Minkowski equality and the shortest-vector oracle
# ---------------------------------------------------------------------------

def test_criterion_02_minkowski_and_svp_oracle():
    start = time.time()
    rng = random.Random(20260808)
    checked = resampled = 0
    while checked < 200:
        m = rng.randrange(2, 5)
        spec = rng.choice([F2, F3])
        rows = [
            [
                Laurent(spec, [(d, rng.randrange(spec.q)) for d in range(-3, 4)])
                for _ in range(m)
            ]
            for _ in range(m)
        ]
        mat = LaurentMatrix.from_rows(rows)
        det = mat.det()
        if not det.terms:
            continue
        red = reduce_lattice(mat.cols())
        assert sum(red.minima_exps) == det.abs_exp()
        pcols, shift = laurent_cols_to_poly(mat.cols())
        try:
            oracle = shortest_vector_oracle(
                pcols, red.minima_exps[0] + shift, node_budget=12000
            )
        except OracleBudgetExceeded:
            # enumeration-tree size is a cost property of unbalanced Hermite
            # pivots; such instances are resampled, never silently trusted
            resampled += 1
            assert resampled < 400
            continue
        assert oracle - shift == red.minima_exps[0]
        checked += 1
    elapsed = time.time() - start
    assert elapsed < 60
    _report(2, f"200 lattices: prod(minima) = |det| and lambda_1 = oracle "
               f"({resampled} oracle-budget resamples, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 3. polynomial goodness
# ---------------------------------------------------------------------------

def test_criterion_03_polynomial_goodness():
    start = time.time()
    rng = random.Random(7)
    eps_grid = [-1, -2, -3, -4, -5]
    k = 3
    total = 0
    for q in (2, 3):
        spec = FieldSpec(q)
        for m_vars in (1, 2):
            alpha = Fraction(1, m_vars * k)
            ball = Ball.unit(spec, m_vars, 0)
            certs = []
            while len(certs) < 25:
                terms = {}
                for mono in itertools.product(range(k + 1), repeat=m_vars):
                    if sum(mono) > k:
                        continue
                    c = rng.randrange(q)
                    if c:
                        terms[mono] = Laurent.const(spec, c)
                g = MPoly(spec, m_vars, terms)
                if g.is_zero:
                    continue
                cert = certify_good(g, ball, alpha, eps_grid, resolution=8)
                assert cert.certified
                certs.append(cert)
                total += 1
            family_C = max(c.C for c in certs)
            bm = ball.measure()
            for cert in certs:
                for e, measure, _ in cert.rows:
                    assert good_bound_holds(
                        measure, bm, Fraction(cert.sup.exp), e, alpha, family_C, q
                    )
    elapsed = time.time() - start
    assert total == 100 and elapsed < 300
    _report(3, f"100 random polynomials satisfy the (C, 1/mk) bound with the "
               f"family constants; zero violations ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 4. big-gradient scaling
# ---------------------------------------------------------------------------

def test_criterion_04_biggrad_scaling():
    start = time.time()
    grid = GridSpec(F3, 1, 6)
    tvecs = list(itertools.product(range(3), repeat=2))
    ratios = []
    for res, ratio in measure_bigA(VER, [-1, -2, -3, -4], tvecs, Fraction(1, 4), grid):
        assert res.certified
        ratios.append(ratio)
    C = max(ratios)
    assert all(r <= C for r in ratios)
    # frozen from this exact configuration: the recorded constant
    assert C == Fraction(661, 81)
    elapsed = time.time() - start
    assert elapsed < 600
    _report(4, f"|A_delta|/(delta|U|) bounded by C = {C} across "
               f"delta in q^-1..q^-4 ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 5. small-gradient / QN decay
# ---------------------------------------------------------------------------

def test_criterion_05_qn_decay():
    start = time.time()
    ce = build_ceil_eps(6, 0, (4, 4))
    D = build_D(ce, 1)
    B = Ball.unit(F3, 1, 1)
    rows = qn_bound_probe(VER, B, D, [-1, -2, -3, -4, -5], max_depth=12)
    measures = [r.included for _, r in rows]
    assert all(r.certified for _, r in rows)
    assert all(measures[i + 1] <= measures[i] for i in range(len(measures) - 1))
    pts = []
    import math

    for e, r in rows:
        if r.included > 0:
            pts.append((float(e), math.log(float(r.included), 3)))
    assert len(pts) >= 2
    n = len(pts)
    sx = sum(x for x, _ in pts)
    sy = sum(y for _, y in pts)
    sxy = sum(x * y for x, y in pts)
    sxx = sum(x * x for x, _ in pts)
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    assert slope > 0
    elapsed = time.time() - start
    assert elapsed < 600
    _report(5, f"qn measures monotone, log-log slope alpha-hat = {slope:.2f} > 0 "
               f"({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 6. the set identity
# ---------------------------------------------------------------------------

def test_criterion_06_set_identity():
    start = time.time()
    line3 = AnalyticMap(F3, 1, 1, (MPoly.var(F3, 1, 0),))
    instances = [
        (line3, 2, 0, (1,)),
        (line3, 3, 1, (2,)),
        (VER, 2, 0, (1, 1)),
        (VER, 3, 0, (1, 2)),
        (VER, 3, 1, (1, 1)),
        (VER, 4, 0, (2, 2)),
    ]
    mismatches = 0
    points = 0
    for m, t, tp, tvec in instances:
        ce = build_ceil_eps(t, tp, tvec)
        D = build_D(ce, 1)
        for cell in GridSpec(F3, 1, 5).cells():
            x = cell.center
            lhs = in_smallgrad_S_point(m, x, t, tp, tvec)
            rhs, _, _ = qn_membership(m, x, D, Fraction(ce.exp))
            mismatches += lhs != rhs
            points += 1
    assert mismatches == 0 and points == 6 * 81
    elapsed = time.time() - start
    assert elapsed < 600
    _report(6, f"S(t,t',t_i) = {{||D U_x v|| < |ceil(eps)|}} at all {points} "
               f"centers, zero mismatches ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 7. the intersection property
# ---------------------------------------------------------------------------

def test_criterion_07_intersection_property():
    start = time.time()
    theta = MPoly.monomial(F3, 1, (1,), Laurent.monomial(F3, 1, -1))
    m = veronese(F3, 2, theta=theta)
    eps = GRAD_EPS_DEFAULT
    delta = Fraction(1, 10)  # < eps/2

    violations = 0
    pairs = 0
    for tvec in [(1, 1), (1, 2), (2, 2)]:
        lam = phi_delta_exp(delta, tvec)
        for cell in GridSpec(F3, 1, 4).cells():
            x = cell.center
            members = []
            fx = m.eval(x)
            th = m.eval_theta(x)
            for a in enumerate_box(F3, list(tvec)):
                z = th
                for ai, fi in zip(a, fx):
                    if not ai.is_zero:
                        z = z + ai.to_laurent() * fi
                a0 = -z.poly_part()[0]
                if a0.is_zero and all(p.is_zero for p in a):
                    continue
                if in_I_t(m, x, (a0, a), tvec, lam, eps):
                    members.append((a0, a))
            for (a0, a), (b0, b) in itertools.combinations(members, 2):
                d0 = a0 - b0
                dv = tuple(p - r for p, r in zip(a, b))
                if d0.is_zero and all(p.is_zero for p in dv):
                    continue
                pairs += 1
                if not in_H_t(m, x, (d0, dv), tvec, lam, eps):
                    violations += 1
    assert violations == 0 and pairs > 0
    elapsed = time.time() - start
    assert elapsed < 300
    _report(7, f"I_t ∩ I_t' ⊆ H_t with phi* = phi on {pairs} member pairs, "
               f"zero violations ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 8. the Borel-Cantelli mechanism
# ---------------------------------------------------------------------------

# Exact values frozen at first computation (engine agreement with the
# independent naive oracle is asserted in-suite at the N=4 instances, where
# the oracle is feasible); any drift in these is a regression.
GOLDEN_8 = {
    "conv_tail1": Fraction(5825, 19683),
    "conv_tail2": Fraction(9157, 59049),
    "conv_tail3": Fraction(7627, 177147),
    "div_cum1": Fraction(1, 3),
    "div_cum2": Fraction(1, 3),
    "div_cum3": Fraction(1, 3),
    "scaled_div_cum1": Fraction(1, 9),
    "scaled_div_cum2": Fraction(143, 729),
}


def test_criterion_08_borel_cantelli_mechanism():
    start = time.time()
    grid5 = GridSpec(F3, 1, 5)

    # convergent: Psi = ||a||^-(n+1) = ||a||^-3, closed form exact
    psi_c = ApproxFn.power_law(3)
    bc = borel_cantelli_sum(psi_c, 3, 2, 3)
    assert not bc.diverges
    # sum_{t>=0} q^{2t}(q^2-1) q^{-3t} = 8 sum 3^{-t} = 8 * 3/2 = 12, exactly
    assert bc.limit == 12
    tails = []
    sweep = measure_W(VER, psi_c, 1, 3, grid5)
    assert sweep.certified
    for T0 in (1, 2, 3):
        u = sweep.interval(T0, 3)
        tail_sum = sum(
            shell_count(3, 2, t) * Fraction(1, 3 ** (3 * t)) for t in range(T0, 4)
        )
        tails.append((u.measure, tail_sum))
    assert tails == [(GOLDEN_8["conv_tail1"], Fraction(104, 27)),
                     (GOLDEN_8["conv_tail2"], Fraction(32, 27)),
                     (GOLDEN_8["conv_tail3"], Fraction(8, 27))]
    meas = [m for m, _ in tails]
    assert meas[0] >= meas[1] >= meas[2]
    C = max(m / s for m, s in tails)
    for m_, s_ in tails:
        assert m_ <= C * s_

    # divergent: Psi = ||a||^-n = ||a||^-2: nondecreasing cumulative hits,
    # and the engine agrees with the naive oracle bit for bit
    psi_d = ApproxFn.power_law(2)
    assert borel_cantelli_sum(psi_d, 3, 2, 3).diverges
    cums = []
    sweep_d = measure_W(VER, psi_d, 1, 3, grid5)
    assert sweep_d.certified
    for T1 in (1, 2, 3):
        cums.append(sweep_d.interval(1, T1).measure)
    assert cums == [GOLDEN_8["div_cum1"], GOLDEN_8["div_cum2"], GOLDEN_8["div_cum3"]]
    assert cums[0] <= cums[1] <= cums[2]
    grid4 = GridSpec(F3, 1, 4)
    for T1 in (1, 2):
        eng = measure_W(VER, psi_d, 1, T1, grid4).union.measure
        orc = naive_W_measure(VER, psi_d, False, 1, T1, grid4, depth=9)
        assert eng == orc

    # Psi = ||a||^-n saturates at this scale (the shell-1 set already has
    # full measure), so also exercise a scaled divergent variant whose
    # cumulative hits genuinely grow, against the oracle as well
    psi_s = ApproxFn(coeff_exp=-2, tau=2)
    scaled = []
    for T1 in (1, 2):
        eng = measure_W(VER, psi_s, 1, T1, grid4).union.measure
        orc = naive_W_measure(VER, psi_s, False, 1, T1, grid4, depth=11)
        assert eng == orc
        scaled.append(eng)
    assert scaled == [GOLDEN_8["scaled_div_cum1"], GOLDEN_8["scaled_div_cum2"]]
    assert scaled[0] < scaled[1]
    elapsed = time.time() - start
    assert elapsed < 900
    _report(8, f"convergent tails bounded by C = {C} x tail sums; divergent "
               f"cumulatives nondecreasing and oracle-exact ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 9. the ubiquity witness construction
# ---------------------------------------------------------------------------

def test_criterion_09_witness_construction():
    start = time.time()
    params = UbiquityParams.from_delta(-1, 2, 1)
    failures = 0
    constructed = 0
    for t in (1, 2):
        for cell in GridSpec(F3, 1, 5).cells():
            x = cell.center
            if in_phi_f_point(VER, x, t, -1):
                continue
            con = construct_resonant_witness(VER, x, t, -1, params)
            constructed += 1
            if not (con.b1 and con.b2 and con.b3):
                failures += 1
    assert failures == 0 and constructed > 0
    elapsed = time.time() - start
    assert elapsed < 900
    _report(9, f"B1 (gate, lambda = 1/q - 1/q^2), B2 (k0* q^t < beta <= q^t), "
               f"B3 (dist < rho(q^t)) hold at all {constructed} non-resonance-"
               f"rich centers, t <= 2 ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 10. the Newton contract
# ---------------------------------------------------------------------------

def test_criterion_10_newton_contract():
    start = time.time()
    rng = random.Random(5)
    done = 0
    prec = 24
    while done < 500:
        spec = rng.choice([F2, F3, FieldSpec(5)])
        deg = rng.randrange(2, 6)
        coeffs = [
            Laurent(spec, [(d, rng.randrange(spec.q)) for d in range(-4, 1)])
            for _ in range(deg + 1)
        ]
        if coeffs[-1].is_zero or coeffs[0].is_zero or coeffs[1].is_zero:
            continue
        if coeffs[0].top_deg >= 2 * coeffs[1].top_deg:
            continue  # not Hensel-valid at the origin seed
        root = newton_root_1d(coeffs, prec=prec)
        val = Laurent.zero(spec)
        for c in reversed(coeffs):
            val = val * root + c
        assert not val.terms or val.top_deg <= -prec
        assert root.abs_value() <= coeffs[0].abs_value() / coeffs[1].abs_value()
        done += 1
    elapsed = time.time() - start
    assert elapsed < 30
    _report(10, f"500 Hensel-valid instances: h(root) = 0 to q^-{prec} and "
                f"|root| <= |h(0)|/|h'(0)| ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 11. divergence sums
# ---------------------------------------------------------------------------

def test_criterion_11_divergence_sums():
    start = time.time()
    n, d = 2, 1
    params = UbiquityParams.from_delta(-1, n, d)
    s = Fraction(d)
    div = ubiquity_sum(ApproxFn.power_law(n), params, s, 8, 3)
    assert div.diverges and div.khintchine_diverges
    conv = ubiquity_sum(ApproxFn.power_law(n + 1), params, s, 8, 3)
    assert not conv.diverges and conv.khintchine_diverges is False
    assert conv.closed_form is not None
    # geometric from t=1 with ratio 1/q: closed form = first / (1 - 1/q)
    assert conv.closed_form == conv.terms[0] / (1 - Fraction(1, 3))
    elapsed = time.time() - start
    assert elapsed < 1
    _report(11, f"psi = r^-n diverges, psi = r^-(n+1) sums to "
                f"{conv.closed_form} exactly ({elapsed:.1f}s)")
