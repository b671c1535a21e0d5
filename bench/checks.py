"""Correctness checks on one pass's results, run outside the timed region.

Every check recomputes a quantity apart from the program (closed forms,
brute force in ``brute``, the oracles in tests/oracles.py) or tests a
property the method must have.  None compares against stored output.
Each check function returns a list of failure messages.
"""

from __future__ import annotations

import math
from fractions import Fraction

import brute

NAIVE_ORACLE_DEPTH = 12
ORACLE_NODE_BUDGET = 3000


def _qpow(q: int, e) -> Fraction:
    e = Fraction(e)
    if e.denominator != 1:
        raise ValueError(f"non-integral exponent {e}")
    return Fraction(q) ** int(e)


def _divides_q_power(n: int, q: int) -> bool:
    g = math.gcd(n, q)
    while g > 1:
        n //= g
        g = math.gcd(n, q)
    return n == 1


def _measure(errs: list, what: str, value, top: Fraction, q: int) -> Fraction:
    """An exact measure in [0, top] whose denominator divides a power of q
    (a whole number of cells of some q-adic resolution)."""
    v = Fraction(value)
    if isinstance(value, float):
        errs.append(f"{what}: float {value!r}")
    if not 0 <= v <= top:
        errs.append(f"{what}: {v} outside [0, {top}]")
    if not _divides_q_power(v.denominator, q):
        errs.append(f"{what}: denominator {v.denominator} divides no power of {q}")
    return v


# ---------------------------------------------------------------------------
# khintchine reports (khintchine and extfield)
# ---------------------------------------------------------------------------

def check_khintchine(rep, p: dict) -> list[str]:
    errs: list[str] = []
    q, n, c, tau, t0, t1 = p["q"], p["n"], p["c"], p["tau"], p["t0"], p["t1"]
    dom = Fraction(rep.summary["domainMeasure"])
    if dom != Fraction(1, q):
        errs.append(f"domain measure {dom} != 1/q")
    if not rep.all_pass:
        errs.append(f"verdicts {rep.verdicts}")
    shells = {r["t"]: r for r in rep.tables["shells"]}
    tails = {r["T0"]: r for r in rep.tables["tails"]}
    cums = {r["T1"]: r for r in rep.tables["cumulative"]}
    if sorted(shells) != list(range(t0, t1 + 1)) or sorted(tails) != sorted(shells) \
            or sorted(cums) != sorted(shells):
        return errs + ["tables do not cover the shell range"]
    per = {t: _measure(errs, f"shell {t}", r["shellMeasure"], dom, q)
           for t, r in shells.items()}
    for t, r in shells.items():
        if Fraction(r["shellUndecided"]) != 0:
            errs.append(f"shell {t}: undecided mass {r['shellUndecided']}")
    tail = {T0: _measure(errs, f"tail {T0}", r["tailMeasure"], dom, q)
            for T0, r in tails.items()}
    cum = {T1: _measure(errs, f"cumulative {T1}", r["hitMeasure"], dom, q)
           for T1, r in cums.items()}
    if not all(r["certified"] for r in tails.values()):
        errs.append("uncertified tail")
    union = tail[t0]
    if cum[t1] != union:
        errs.append(f"union read two ways: {union} != {cum[t1]}")
    if not max(per.values()) <= union <= min(dom, sum(per.values())):
        errs.append(f"union {union} outside [max shell, min(|U|, sum of shells)]")
    if tail[t1] != per[t1] or cum[t0] != per[t0]:
        errs.append("endpoint tails/cumulatives differ from their single shells")
    for T in range(t0, t1):
        if tail[T + 1] > tail[T]:
            errs.append(f"tail grows from T0={T} to {T + 1}")
        if cum[T + 1] < cum[T]:
            errs.append(f"cumulative shrinks from T1={T} to {T + 1}")
        if Fraction(cums[T]["hitFraction"]) != cum[T] / dom:
            errs.append(f"hit fraction at T1={T} != measure/|U|")
    # Borel-Cantelli sums: shell t carries q^(tn)(q^n - 1) Psi(q^t)
    sums = {t: q ** (t * n) * (q ** n - 1) * _qpow(q, c - tau * t) for t in range(t1 + 1)}
    for t, r in shells.items():
        if Fraction(r["shellSum"]) != sums[t]:
            errs.append(f"shell sum {t}: {r['shellSum']} != {sums[t]}")
    for T0, r in tails.items():
        if Fraction(r["tailSum"]) != sum(sums[t] for t in range(T0, t1 + 1)):
            errs.append(f"tail sum {T0} differs from the recomputed sum")
    if Fraction(rep.summary["partialSum"]) != sum(sums.values()):
        errs.append("partial sum differs from the recomputed sum")
    convergent = tau > n
    if rep.summary["divergent"] == convergent:
        errs.append(f"divergence verdict {rep.summary['divergent']} for tau={tau}, n={n}")
    if convergent:
        # sum_{t>=0} (q^n - 1) q^c q^(t(n - tau)), a geometric series
        closed = (q ** n - 1) * _qpow(q, c) / (1 - _qpow(q, n - tau))
        if Fraction(rep.summary["closedForm"]) != closed:
            errs.append(f"closed form {rep.summary['closedForm']} != {closed}")
    if "brute" in p:
        F = brute.GF(*p["brute"])
        e = {t: int(c - tau * t) for t in range(t0, t1 + 1)}
        for t in range(t0, t1 + 1):
            want = brute.line_W_measure(F, [(t, e[t])])
            if per[t] != want:
                errs.append(f"shell {t}: {per[t]} != brute force {want}")
        for T in range(t0, t1 + 1):
            want = brute.line_W_measure(F, [(t, e[t]) for t in range(T, t1 + 1)])
            if tail[T] != want:
                errs.append(f"tail {T}: {tail[T]} != brute force {want}")
            want = brute.line_W_measure(F, [(t, e[t]) for t in range(t0, T + 1)])
            if cum[T] != want:
                errs.append(f"cumulative {T}: {cum[T]} != brute force {want}")
    for T1 in p.get("oracle", []):
        from ffdioph.ffield import GridSpec
        from oracles import naive_W_measure

        m = p["map"]
        grid = GridSpec(m.spec, m.d, p["grid"], m.resolved_domain)
        want = naive_W_measure(m, p["psi"], p["theta_on"], t0, T1, grid,
                               depth=NAIVE_ORACLE_DEPTH)
        if cum[T1] != want:
            errs.append(f"union over shells {t0}..{T1}: {cum[T1]} != naive oracle {want}")
    return errs


# ---------------------------------------------------------------------------
# gradient
# ---------------------------------------------------------------------------

def check_biggrad(rep, p: dict) -> list[str]:
    errs: list[str] = []
    q, dom = p["q"], p["domain"]
    if not rep.all_pass:
        errs.append(f"verdicts {rep.verdicts}")
    rows = rep.tables["delta_sweep"]
    if [r["deltaExp"] for r in rows] != p["deltas"]:
        return errs + ["delta rows do not match the requested deltas"]
    meas = []
    for r in rows:
        de = r["deltaExp"]
        v = _measure(errs, f"A_delta q^{de}", r["measure"], dom, q)
        if Fraction(r["undecided"]) != 0:
            errs.append(f"A_delta q^{de}: undecided {r['undecided']}")
        if Fraction(r["ratio"]) != v / (_qpow(q, de) * dom):
            errs.append(f"ratio at q^{de} != measure/(delta|U|)")
        meas.append(v)
    if any(meas[i + 1] > meas[i] for i in range(len(meas) - 1)):
        errs.append(f"A_delta grows as delta shrinks: {meas}")
    if Fraction(rep.summary["ratioConstant"]) != max(Fraction(r["ratio"]) for r in rows):
        errs.append("ratio constant is not the largest ratio")
    return errs


def check_qn(rep, p: dict) -> list[str]:
    errs: list[str] = []
    if not rep.all_pass:
        errs.append(f"verdicts {rep.verdicts}")
    rows = rep.tables["eps_sweep"]
    meas = []
    for r in rows:
        meas.append(_measure(errs, f"qn eps q^{r['epsExp']}", r["measure"],
                             p["domain"], p["q"]))
        if Fraction(r["undecided"]) != 0:
            errs.append(f"qn eps q^{r['epsExp']}: undecided {r['undecided']}")
    if any(meas[i + 1] > meas[i] for i in range(len(meas) - 1)):
        errs.append(f"qn measure grows as eps shrinks: {meas}")
    return errs


def _le_qexp(x: Fraction, m: Fraction, u: Fraction, q: int) -> bool:
    """x <= m * q^u for x, m >= 0 and rational u, in Fraction arithmetic."""
    if x == 0:
        return True
    if m == 0:
        return False
    b = u.denominator
    return (x / m) ** b <= Fraction(q) ** int(u * b)


def check_good_family(certs: list, p_list: list[dict]) -> list[str]:
    """measure <= C (eps/sup)^alpha |B| for every row, with the family's
    constant C = max of the certified constants of its class."""
    errs: list[str] = []
    families: dict = {}
    for cert, p in zip(certs, p_list):
        if not cert.certified:
            errs.append(f"{p['family']}: uncertified goodness")
        families.setdefault(p["family"], []).append((cert, p))
    for fam, members in families.items():
        q = fam[0]
        # the largest constant, compared exactly: m1 q^u1 <= m2 q^u2
        C = None
        for cert, _ in members:
            if C is None or not _le_qexp(cert.C.m, C.m, C.u - cert.C.u, q):
                C = cert.C
        for cert, p in members:
            bm, alpha = p["ball"], p["alpha"]
            sup = Fraction(cert.sup.exp)
            for e, measure, _ in cert.rows:
                v = _measure(errs, f"{fam} sublevel q^{e}", measure, bm, q)
                for name, K in (("own", cert.C), ("family", C)):
                    if not _le_qexp(v / bm, K.m, K.u + (Fraction(e) - sup) * alpha, q):
                        errs.append(f"{fam}: row q^{e} breaks the {name} (C, alpha) bound")
    return errs


# ---------------------------------------------------------------------------
# ubiquity
# ---------------------------------------------------------------------------

def _poly_deg(text: str):
    """Degree of a printed F_q[X] polynomial such as '2*X^3+X+1 (mod 3)'."""
    body = text.split("(mod")[0].strip()
    if body == "0":
        return None
    degs = []
    for term in body.split("+"):
        term = term.strip()
        if "X^" in term:
            degs.append(int(term.split("X^")[1]))
        elif term.endswith("X"):
            degs.append(1)
        else:
            degs.append(0)
    return max(degs)


def check_ubiquity(rep, p: dict) -> list[str]:
    errs: list[str] = []
    q, n, d, delta = p["q"], p["n"], p["d"], p["delta"]
    if not rep.all_pass:
        errs.append(f"verdicts {rep.verdicts}")
    rows = rep.tables["covering"]
    if [r["t"] for r in rows] != p["t_range"]:
        errs.append("covering rows do not match the t range")
    for r in rows:
        cov = _measure(errs, f"covering t={r['t']}", r["coveringFraction"], Fraction(1), q)
        non = _measure(errs, f"non-Phi t={r['t']}", r["nonPhiFraction"], Fraction(1), q)
        if cov < non:
            errs.append(f"t={r['t']}: covering fraction {cov} < non-Phi fraction {non}")
        if not r["claimsOk"]:
            errs.append(f"t={r['t']}: witness claims failed")
    # B2: k0 ||a|| with k0 = q^-(n t' + 1), t' = -delta, lies in (q^(t-1), q^t]
    k0_exp = -(n * -delta + 1)
    for w in rep.tables["witnesses"]:
        degs = [_poly_deg(a) for a in w["a"]]
        degs = [x for x in degs if x is not None]
        if not degs:
            errs.append(f"t={w['t']}: witness has a = 0")
            continue
        beta = k0_exp + max(degs)
        if beta != w["betaExp"] or not (w["t"] - 1 < beta <= w["t"]) or not w["b2"]:
            errs.append(f"t={w['t']}: B2 fails (beta exponent {beta}, "
                        f"reported {w['betaExp']})")
    # divergence sum: phi(r) = k0 r^-1 Psi(r/k0), rho(r) = k1 r^-(n+1),
    # k1 = q^(-n t'), gamma = d - 1; terms phi(q^t)^(s-gamma)/rho(q^t)^(d-gamma)
    c, tau, s = p["c"], p["tau"], p["s"]
    gamma, k1_exp = d - 1, -n * -delta

    def term(t):
        phi = k0_exp - t + c - tau * (t - k0_exp)
        rho = k1_exp - t * (n + 1)
        return _qpow(q, (s - gamma) * phi - (d - gamma) * rho)

    T = max(p["t_range"])
    if Fraction(rep.summary["divergenceSumPartial"]) != sum(term(t) for t in range(1, T + 1)):
        errs.append("divergence partial sum differs from the recomputed terms")
    ratio = term(2) / term(1)
    if ratio != term(3) / term(2):
        errs.append("divergence terms are not geometric")
    if ratio < 1:
        closed = term(1) / (1 - ratio)
        if rep.summary["diverges"] or Fraction(rep.summary["closedForm"]) != closed:
            errs.append(f"closed form {rep.summary['closedForm']} != {closed}")
    elif not rep.summary["diverges"]:
        errs.append("divergent series reported as convergent")
    return errs


# ---------------------------------------------------------------------------
# lattices (extfield)
# ---------------------------------------------------------------------------

def check_lattice(red, p: dict) -> tuple[list[str], bool]:
    """Sum of minima = |det| exponent; lambda_1 against the enumeration
    oracle when its tree fits the node budget.  Returns (errors, oracle run)."""
    from oracles import OracleBudgetExceeded, laurent_cols_to_poly, shortest_vector_oracle

    errs: list[str] = []
    minima = red.minima_exps
    if sum(minima) != p["det_exp"]:
        errs.append(f"sum of minima {sum(minima)} != |det| exponent {p['det_exp']}")
    pcols, shift = laurent_cols_to_poly(p["cols"])
    try:
        lam1 = shortest_vector_oracle(pcols, minima[0] + shift,
                                      node_budget=ORACLE_NODE_BUDGET)
    except OracleBudgetExceeded:
        return errs, False
    if lam1 is None or lam1 - shift != minima[0]:
        errs.append(f"lambda_1 exponent {minima[0]} != oracle {lam1}")
    return errs, True


def check_pass(ops, results) -> tuple[list[str], dict]:
    """All checks for one pass; returns (failures, counts of checks run)."""
    errs: list[str] = []
    stats = {"oracle_lattices": 0}
    goods, good_params = [], []
    for op, res in zip(ops, results):
        if res is None:
            continue
        if op.kind == "khintchine":
            e = check_khintchine(res, op.params)
        elif op.kind == "biggrad":
            e = check_biggrad(res, op.params)
        elif op.kind == "qn":
            e = check_qn(res, op.params)
        elif op.kind == "ubiquity":
            e = check_ubiquity(res, op.params)
        elif op.kind == "lattice":
            e, ran = check_lattice(res, op.params)
            stats["oracle_lattices"] += ran
        else:
            goods.append(res)
            good_params.append(op.params)
            e = []
        errs.extend(f"{op.name}: {msg}" for msg in e)
    errs.extend(check_good_family(goods, good_params))
    return errs, stats
