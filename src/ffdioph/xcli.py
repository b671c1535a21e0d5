"""Experiment orchestration and the command-line interface.

Configs are plain key-value text files; every output (CSV tables, JSON
summaries) embeds the full configuration so a run can be replayed
byte-identically.  All measures in verdicts are exact count/resolution
pairs; floating point appears only in clearly labeled fit diagnostics.

Exit codes: 0 all verdicts pass, 2 verdict failure, 1 error.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from .dioph import (
    ApproxFn,
    borel_cantelli_sum,
    find_witness,
    grad_exp,
    in_phi_f_point,
    measure_bigA,
    measure_phi_f,
    measure_W,
)
from .errors import PrecisionError
from .ffield import (
    Ball,
    FieldSpec,
    GridSpec,
    Laurent,
    parse_laurent,
    parse_terms,
    shell_count,
    split_terms,
)
from .goodfn import certify_good, sublevel_measure
from .latdyn import (
    LaurentMatrix,
    build_ceil_eps,
    build_D,
    qn_bound_probe,
    reduce_lattice,
)
from .ubiq import (
    UbiquityParams,
    construct_resonant_witness,
    covering_fraction,
    ubiquity_sum,
)
from .ultracalc import AnalyticMap, MPoly

# ---------------------------------------------------------------------------
# parsing: multivariate polynomials, psi expressions, map files
# ---------------------------------------------------------------------------

_VAR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def parse_mpoly(s: str, spec: FieldSpec, d: int) -> MPoly:
    """Parse 'x1^2', '(X^-1+1)*x1*x2^2', '2*x1+X^2*x2', 'x1^2 - 1',
    '-(x1 - x2)*x1', '0': signed terms, each a product of factors, a factor
    being a variable power, a parenthesized polynomial or a Laurent term."""
    return sum((_parse_term(t.strip(), spec, d) for t in split_terms(s)), MPoly.zero(spec, d))


def _parse_term(term: str, spec: FieldSpec, d: int) -> MPoly:
    neg = term.startswith("-")
    body = term[1:] if neg else term
    if not body.strip():
        raise ValueError("empty term")
    acc = MPoly.one(spec, d)
    for raw in split_terms(body, "*"):
        f = raw.strip()
        if not f:
            raise ValueError(f"empty factor in term {term!r}")
        m = _VAR_RE.match(f)
        if m:
            j = int(m.group(1)) - 1
            if not 0 <= j < d:
                raise ValueError(f"variable {f} out of range for d={d}")
            expo = tuple(int(m.group(2) or 1) if i == j else 0 for i in range(d))
            acc = acc * MPoly.monomial(spec, d, expo, Laurent.one(spec))
        elif f.startswith("("):
            if not f.endswith(")"):
                raise ValueError(f"unbalanced parens in {term!r}")
            acc = acc * parse_mpoly(f[1:-1], spec, d)
        else:
            acc = acc * MPoly.const(spec, d, Laurent(spec, parse_terms(f, spec), None))
    return -acc if neg else acc


_PSI_RE = re.compile(
    r"^(?:q\^(?P<c>-?\d+(?:/\d+)?)\*)?q\^\(?(?P<tau>-?\d+(?:/\d+)?)\*t\)?$"
)


def parse_psi(s: str) -> ApproxFn:
    """Parse 'q^(-3*t)', 'q^2*q^(-3*t)', or '0' (the zero function)."""
    s = s.strip().replace(" ", "")
    if s == "0":
        return ApproxFn.zero_fn()
    m = _PSI_RE.match(s)
    if not m:
        raise ValueError(f"cannot parse psi expression {s!r}")
    c = Fraction(m.group("c")) if m.group("c") else Fraction(0)
    tau = -Fraction(m.group("tau"))
    return ApproxFn(coeff_exp=c, tau=tau)


def load_map_file(path: Path) -> AnalyticMap:
    """Key-value map definition: field, modulus, d, n, f1..fn, theta,
    domain_radius_exp.  ``modulus`` (coefficients, constant first, as in
    FieldSpec) picks the modulus of an extension field; ValueError names
    an unknown key."""
    kv: dict[str, str] = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, val = line.partition(":")
        if not _:
            key, _, val = line.partition("=")
        kv[key.strip()] = val.strip()
    spec = FieldSpec.from_order(int(kv["field"]))
    d = int(kv.get("d", "1"))
    n = int(kv["n"])
    known = {"field", "modulus", "d", "n", "theta", "domain_radius_exp"}
    unknown = sorted(set(kv) - known - {f"f{i}" for i in range(1, n + 1)})
    if unknown:
        raise ValueError(f"unknown map keys: {', '.join(unknown)}")
    if "modulus" in kv:
        spec = FieldSpec(spec.p, spec.b, [int(c) for c in kv["modulus"].split(",")])
    comps = tuple(parse_mpoly(kv[f"f{i}"], spec, d) for i in range(1, n + 1))
    theta = None
    if kv.get("theta") and kv["theta"] != "0":
        theta = parse_mpoly(kv["theta"], spec, d)
    r = int(kv.get("domain_radius_exp", "1"))
    domain = Ball.unit(spec, d, r)
    return AnalyticMap(spec, d, n, comps, theta=theta, domain=domain)


def parse_point(s: str, spec: FieldSpec, d: int) -> tuple[Laurent, ...]:
    parts = [p for p in s.split(";") if p.strip()]
    if len(parts) != d:
        raise ValueError(f"point needs {d} ;-separated coordinates")
    return tuple(parse_laurent(p.strip(), spec) for p in parts)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class ExperimentReport:
    name: str
    config: dict
    tables: dict[str, list[dict]] = field(default_factory=dict)
    summary: dict = field(default_factory=dict)
    verdicts: dict[str, bool] = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(self.verdicts.values())

    def write(self, out_dir: Optional[Path]) -> None:
        payload = {
            "experiment": self.name,
            "config": self.config,
            "summary": self.summary,
            "verdicts": self.verdicts,
            "all_pass": self.all_pass,
        }
        text = json.dumps(payload, indent=2, sort_keys=True)
        if out_dir is None:
            print(text)
            return
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{self.name}.json").write_text(text + "\n")
        for tname, rows in self.tables.items():
            path = out_dir / f"{self.name}_{tname}.csv"
            with open(path, "w", newline="") as fh:
                if rows:
                    w = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
                    w.writeheader()
                    for row in rows:
                        w.writerow(row)
        print(f"wrote {self.name} report to {out_dir}")


def _fit_slope(points: list[tuple[float, float]]) -> Optional[float]:
    """Least-squares slope (float diagnostic, never a verdict input)."""
    pts = [(x, y) for x, y in points if math.isfinite(y)]
    if len(pts) < 2:
        return None
    n = len(pts)
    sx = sum(x for x, _ in pts)
    sy = sum(y for _, y in pts)
    sxx = sum(x * x for x, _ in pts)
    sxy = sum(x * y for x, y in pts)
    denom = n * sxx - sx * sx
    if denom == 0:
        return None
    return (n * sxy - sx * sy) / denom


def _slope_positive(points: Sequence[tuple[Fraction, Fraction]]) -> bool:
    """Whether the least-squares slope of the points (x_i, log mu_i), mu_i > 0,
    is positive, decided exactly: with c_i = n x_i - sum x it has the sign
    of sum c_i log mu_i, that of prod mu_i^(L c_i) - 1 for L the common
    denominator of the c_i."""
    sx = sum(x for x, _ in points)
    cs = [Fraction(len(points) * x - sx) for x, _ in points]
    den = math.lcm(*(c.denominator for c in cs))
    prod = Fraction(1)
    for c, (_, mu) in zip(cs, points):
        prod *= Fraction(mu) ** int(c * den)
    return prod > 1


# ---------------------------------------------------------------------------
# the four headline experiments
# ---------------------------------------------------------------------------

def run_khintchine(
    m: AnalyticMap,
    psi: ApproxFn,
    grid_N: int,
    t0: int,
    t1: int,
    theta_on: bool = True,
    config: Optional[dict] = None,
) -> ExperimentReport:
    """Convergence/divergence mechanism: per-shell sums and hit measures,
    tail measures against tail sums; theta_on=False sweeps m.homogeneous."""
    q = m.spec.q
    grid = GridSpec(m.spec, m.d, grid_N, m.resolved_domain)
    bc = borel_cantelli_sum(psi, q, m.n, t1)
    sweep = measure_W(m if theta_on else m.homogeneous, psi, t0, t1, grid)
    rows = []
    for t in range(t0, t1 + 1):
        shell = sweep.per_shell[t]
        rows.append({
            "t": t,
            "shellSum": str(bc.shells[t]),
            "shellMeasure": str(shell.measure),
            "shellUndecided": str(shell.undecided),
        })
    # tail measures: union over [T0, t1] for increasing T0
    tails = []
    for T0 in range(t0, t1 + 1):
        u = sweep.interval(T0, t1)
        tail_sum = sum(bc.shells[T0:], Fraction(0))
        tails.append({
            "T0": T0,
            "tailSum": str(tail_sum),
            "tailMeasure": str(u.measure),
            "certified": u.certified,
        })
    # cumulative hit fractions for increasing T1 (divergence diagnostics)
    cums = []
    for T1 in range(t0, t1 + 1):
        u = sweep.interval(t0, T1)
        cums.append({
            "T1": T1,
            "hitMeasure": str(u.measure),
            "hitFraction": str(u.measure / sweep.domain_measure),
        })
    tail_meas = [Fraction(r["tailMeasure"]) for r in tails]
    verdicts = {
        "tail_measure_nonincreasing": all(
            tail_meas[i + 1] <= tail_meas[i] for i in range(len(tail_meas) - 1)
        ),
        "certified": sweep.certified and all(r["certified"] for r in tails),
    }
    summary: dict = {
        "divergent": bc.diverges,
        "partialSum": str(bc.partial),
        "closedForm": None if bc.limit is None else str(bc.limit),
        "domainMeasure": str(sweep.domain_measure),
    }
    if bc.diverges is False:
        ratios = []
        for r in tails:
            ts, tm = Fraction(r["tailSum"]), Fraction(r["tailMeasure"])
            if ts > 0:
                ratios.append(tm / ts)
        C = max(ratios) if ratios else Fraction(0)
        summary["tailRatioConstant"] = str(C)
        verdicts["tail_measure_bounded_by_C_tail_sum"] = all(
            Fraction(r["tailMeasure"]) <= C * Fraction(r["tailSum"]) for r in tails
        )
    else:
        hit = [Fraction(r["hitMeasure"]) for r in cums]
        verdicts["hit_measure_nondecreasing"] = all(
            hit[i + 1] >= hit[i] for i in range(len(hit) - 1)
        )
    return ExperimentReport(
        name="khintchine",
        config=config or {},
        tables={"shells": rows, "tails": tails, "cumulative": cums},
        summary=summary,
        verdicts=verdicts,
    )


def run_biggrad(
    m: AnalyticMap,
    delta_exps: Sequence[int],
    tmax: int,
    eps: Fraction,
    grid_N: int,
    config: Optional[dict] = None,
) -> ExperimentReport:
    """delta-sweep of the homogeneous big-gradient set measure; verdict:
    the exact ratios |A_delta| / (delta |U|) stay below one recorded
    constant."""
    if any(de >= 0 for de in delta_exps):
        raise ValueError("delta must satisfy 0 < delta < 1")
    grid = GridSpec(m.spec, m.d, grid_N, m.resolved_domain)
    tvecs = list(itertools.product(range(tmax + 1), repeat=m.n))
    rows = []
    ratios = []
    certified = True
    results = measure_bigA(m.homogeneous, delta_exps, tvecs, eps, grid)
    for de, (res, ratio) in zip(delta_exps, results):
        certified = certified and res.certified
        rows.append({
            "deltaExp": de,
            "measure": str(res.included),
            "undecided": str(res.undecided),
            "ratio": str(ratio),
        })
        ratios.append(ratio)
    C = max(ratios) if ratios else Fraction(0)
    return ExperimentReport(
        name="biggrad",
        config=config or {},
        tables={"delta_sweep": rows},
        summary={"ratioConstant": str(C), "epsilon": str(eps), "tmax": tmax},
        verdicts={
            "ratios_bounded": all(r <= C for r in ratios),
            "certified": certified,
        },
    )


def run_qn(
    m: AnalyticMap,
    t: int,
    t_prime: int,
    tvec: Sequence[int],
    eps_exps: Sequence[int],
    grid_N: int,
    config: Optional[dict] = None,
) -> ExperimentReport:
    """epsilon-sweep of the quantitative-nondivergence membership measure
    with a log-log slope diagnostic."""
    ce = build_ceil_eps(t, t_prime, tvec)
    D = build_D(ce, m.d)
    B = m.resolved_domain
    probe = qn_bound_probe(m, B, D, eps_exps, max_depth=grid_N + 4)
    rows = []
    pts = []  # (eps exponent, measure) where the measure is positive
    measures = []
    certified = True
    for e, res in probe:
        rows.append({
            "epsExp": str(e),
            "measure": str(res.included),
            "undecided": str(res.undecided),
        })
        measures.append(res.included)
        certified = certified and res.certified
        if res.included > 0:
            pts.append((e, res.included))
    slope = _fit_slope([(float(e), math.log(float(mu), m.spec.q)) for e, mu in pts])
    monotone = all(measures[i + 1] <= measures[i] for i in range(len(measures) - 1))
    return ExperimentReport(
        name="qn",
        config=config or {},
        tables={"eps_sweep": rows},
        summary={
            "alphaHat": slope,
            "ceilEpsExp": ce.exp,
            "epsTheoryExp": str(ce.eps_exp),
            "DslotExps": list(D.slot_exps),
        },
        verdicts={
            "monotone_nonincreasing": monotone,
            "alpha_hat_positive": _slope_positive(pts),
            "certified": certified,
        },
    )


def run_ubiquity(
    m: AnalyticMap,
    t_range: Sequence[int],
    delta_exp: int,
    psi: ApproxFn,
    s: Fraction,
    grid_N: int,
    config: Optional[dict] = None,
) -> ExperimentReport:
    """Covering fractions per t, a witness audit, and divergence sums."""
    q = m.spec.q
    params = UbiquityParams.from_delta(delta_exp, m.n, m.d)
    B = Ball.unit(m.spec, m.d, max(2, m.resolved_domain.radius_exp))
    rows = []
    audits = []
    cover_ok = True
    for t in t_range:
        grid = GridSpec(m.spec, m.d, grid_N, B)
        witness = None
        all_b = True
        for cell in grid.cells():
            x = cell.center
            if in_phi_f_point(m, x, t, delta_exp):
                continue
            con = construct_resonant_witness(m, x, t, delta_exp, params, check_phi=False)
            all_b = all_b and con.all_ok
            if witness is None:
                witness = {
                    "x": str(x[0]),
                    "a0": str(con.g.a0),
                    "a": [str(p) for p in con.g.a],
                    "betaExp": con.beta_exp,
                    "distExp": None if con.dist.is_zero else str(con.dist.exp),
                    "rhoExp": con.rho_exp,
                    "b1": con.b1,
                    "b2": con.b2,
                    "b3": con.b3,
                }
        rep = covering_fraction(m, t, delta_exp, B, params)
        phi_res = measure_phi_f(m, t, delta_exp, B)
        non_phi = B.measure() - phi_res.included
        non_phi_frac = non_phi / B.measure()
        covered = rep.measure >= non_phi
        cover_ok = cover_ok and covered and all_b
        rows.append({
            "t": t,
            "coveringFraction": str(rep.fraction),
            "nonPhiFraction": str(non_phi_frac),
            "familySize": rep.family_size,
            "partialFamily": rep.partial,
            "gateSkipped": rep.gate_skipped,
            "buildSkipped": rep.build_skipped,
            "claimsOk": all_b,
        })
        if witness is not None:
            audits.append({"t": t, **witness})
    sums = ubiquity_sum(psi, params, s, max(t_range), q)
    return ExperimentReport(
        name="ubiquity",
        config=config or {},
        tables={"covering": rows, "witnesses": audits},
        summary={
            "divergenceSumPartial": str(sums.partial),
            "diverges": sums.diverges,
            "closedForm": None if sums.closed_form is None else str(sums.closed_form),
            "rhoDecayHypothesis": params.rho_decay_ok(),
        },
        verdicts={"covering_dominates_nonphi": cover_ok},
    )


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

# budget guards: refuse silently huge sweeps unless explicitly overridden
MAX_CELLS = 10**6
MAX_ATOMS = 10**5


def check_budget(m: AnalyticMap, grid_N: int, atoms: int, force: bool) -> None:
    """Guard the grid's cell count and the number of atoms the sweep
    builds; --force overrides."""
    if force:
        return
    cells = m.spec.q ** (m.d * grid_N)
    if cells > MAX_CELLS:
        raise ValueError(
            f"grid has q^(dN) = {cells} > {MAX_CELLS} cells; pass --force to override"
        )
    if atoms > MAX_ATOMS:
        raise ValueError(
            f"the sweep builds {atoms} > {MAX_ATOMS} atoms; pass --force to override"
        )


def _shell_tuples(m: AnalyticMap, lo: int, hi: int) -> int:
    """The witness atoms of the shells lo..hi: one per a in each shell."""
    return sum(shell_count(m.spec.q, m.n, t) for t in range(lo, hi + 1))


def _parse_range(s: str) -> tuple[int, int]:
    a, _, b = s.partition(":")
    return int(a), int(b)


def _parse_stepped(s: str) -> list[int]:
    """'lo:hi' as the integers from lo to hi inclusive, in either direction."""
    lo, hi = _parse_range(s)
    step = -1 if hi < lo else 1
    return list(range(lo, hi + step, step))


def _parse_int_list(s: str) -> list[int]:
    return [int(x) for x in s.replace(",", " ").split()]


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="ffdioph",
        description="Exact Diophantine approximation experiments over F_q((1/X))",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("approx", help="evaluate maps / search witnesses")
    p.add_argument("action", choices=["eval", "witness"])
    p.add_argument("--map", required=True, type=Path)
    p.add_argument("--point", required=True)
    p.add_argument("--psi", default="q^(-2*t)")
    p.add_argument("--shell", type=int, default=1)
    p.add_argument("--homogeneous", action="store_true")

    p = sub.add_parser("measure", help="sublevel measures / goodness")
    p.add_argument("action", choices=["sublevel", "good"])
    p.add_argument("--field", type=int, default=3)
    p.add_argument("--poly", required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--radius-exp", type=int, default=0)
    p.add_argument("--eps", type=str, default="-2")
    p.add_argument("--eps-grid", type=str, default="-1:-5")
    p.add_argument("--alpha", type=str, default="1")
    p.add_argument("--grid", type=int, default=6)

    p = sub.add_parser("khintchine", help="convergence/divergence experiment")
    p.add_argument("--map", required=True, type=Path)
    p.add_argument("--psi", required=True)
    p.add_argument("--grid", type=int, default=5)
    p.add_argument("--shells", type=str, default="0:2")
    p.add_argument("--homogeneous", action="store_true")
    p.add_argument("--force", action="store_true",
                   help="override the cell/atom budget guards")
    p.add_argument("--out", type=Path, default=None)

    p = sub.add_parser("biggrad", help="big-gradient scaling experiment")
    p.add_argument("--map", required=True, type=Path)
    p.add_argument("--deltas", type=str, default="-1:-4")
    p.add_argument("--tmax", type=int, default=2)
    p.add_argument("--eps", type=str, default="1/4")
    p.add_argument("--grid", type=int, default=6)
    p.add_argument("--force", action="store_true")
    p.add_argument("--out", type=Path, default=None)

    p = sub.add_parser("qn", help="quantitative nondivergence decay")
    p.add_argument("--map", required=True, type=Path)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--tprime", type=int, required=True)
    p.add_argument("--tvec", type=str, required=True)
    p.add_argument("--eps-grid", type=str, default="-1:-5")
    p.add_argument("--grid", type=int, default=6)
    p.add_argument("--force", action="store_true")
    p.add_argument("--out", type=Path, default=None)

    p = sub.add_parser("ubiquity", help="covering fractions and divergence sums")
    p.add_argument("--map", required=True, type=Path)
    p.add_argument("--t-range", type=str, default="1:2")
    p.add_argument("--delta", type=int, default=-1)
    p.add_argument("--psi", type=str, default="q^(-3*t)")
    p.add_argument("--s", type=str, default="1")
    p.add_argument("--grid", type=int, default=5)
    p.add_argument("--force", action="store_true")
    p.add_argument("--out", type=Path, default=None)

    p = sub.add_parser("lattice", help="reduce a lattice / successive minima")
    p.add_argument("action", choices=["reduce", "minima"])
    p.add_argument("--field", type=int, default=3)
    p.add_argument("--matrix", required=True, type=Path,
                   help="JSON array of rows of Laurent strings")

    args = ap.parse_args(argv)
    try:
        return _dispatch(args)
    except (ValueError, PrecisionError, KeyError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.cmd == "approx":
        m = load_map_file(args.map)
        x = parse_point(args.point, m.spec, m.d)
        if args.action == "eval":
            vals = m.eval(x)
            print(json.dumps({
                "f(x)": [str(v) for v in vals],
                "theta(x)": str(m.eval_theta(x)),
            }, indent=2))
            return 0
        psi = parse_psi(args.psi)
        if args.homogeneous:
            m = m.homogeneous
        w = find_witness(m, x, psi, args.shell)
        if w is None:
            print(json.dumps({"witness": None}))
            return 0
        print(json.dumps({
            "a": [str(p) for p in w.a],
            "a0": str(w.a0),
            "value": str(w.value),
            "gradExp": grad_exp(m, w.a, x),
            "verified": w.verify(m, x, psi),
        }, indent=2))
        return 0

    if args.cmd == "measure":
        spec = FieldSpec.from_order(args.field)
        g = parse_mpoly(args.poly, spec, args.d)
        ball = Ball.unit(spec, args.d, args.radius_exp)
        if args.action == "sublevel":
            rep = sublevel_measure(g, ball, Fraction(args.eps), resolution=args.grid)
            print(json.dumps(rep.to_json(), indent=2))
            return 0
        grid = _parse_stepped(args.eps_grid)
        cert = certify_good(g, ball, Fraction(args.alpha), grid, resolution=args.grid)
        print(json.dumps({
            "alpha": str(cert.alpha),
            "C": repr(cert.C),
            "C_float": cert.C.to_float(),
            "supExp": str(cert.sup.exp),
            "certified": cert.certified,
        }, indent=2))
        return 0

    if args.cmd == "khintchine":
        m = load_map_file(args.map)
        psi = parse_psi(args.psi)
        t0, t1 = _parse_range(args.shells)
        check_budget(m, args.grid, _shell_tuples(m, t0, t1), args.force)
        rep = run_khintchine(
            m.homogeneous if args.homogeneous else m, psi, args.grid, t0, t1,
            config=_config_of(args),
        )
        rep.write(args.out)
        return 0 if rep.all_pass else 2

    if args.cmd == "biggrad":
        m = load_map_file(args.map)
        deltas = _parse_stepped(args.deltas)
        # one atom per delta and per a with every a_i nonzero of degree <= tmax
        check_budget(m, args.grid, len(deltas) * (m.spec.q ** (args.tmax + 1) - 1) ** m.n,
                     args.force)
        rep = run_biggrad(
            m, deltas, args.tmax, Fraction(args.eps), args.grid,
            config=_config_of(args),
        )
        rep.write(args.out)
        return 0 if rep.all_pass else 2

    if args.cmd == "qn":
        m = load_map_file(args.map)
        check_budget(m, args.grid, 0, args.force)
        rep = run_qn(
            m, args.t, args.tprime, _parse_int_list(args.tvec),
            _parse_stepped(args.eps_grid), args.grid,
            config=_config_of(args),
        )
        rep.write(args.out)
        return 0 if rep.all_pass else 2

    if args.cmd == "ubiquity":
        m = load_map_file(args.map)
        lo, hi = _parse_range(args.t_range)
        check_budget(m, args.grid, _shell_tuples(m, lo, hi), args.force)
        rep = run_ubiquity(
            m, list(range(lo, hi + 1)), args.delta, parse_psi(args.psi),
            Fraction(args.s), args.grid, config=_config_of(args),
        )
        rep.write(args.out)
        return 0 if rep.all_pass else 2

    if args.cmd == "lattice":
        spec = FieldSpec.from_order(args.field)
        rows = json.loads(Path(args.matrix).read_text())
        mat = LaurentMatrix.from_rows(
            [[parse_laurent(z, spec) for z in row] for row in rows]
        )
        red = reduce_lattice(mat.cols())
        out = {"minimaExps": red.minima_exps}
        if args.action == "reduce":
            out["columns"] = [[str(z) for z in col] for col in red.columns]
            out["coefficients"] = [[str(p) for p in cf] for cf in red.coeffs]
            out["pivotHistory"] = [
                {"column": s["column"], "fromExp": s["from_exp"],
                 "combo": {str(k): v for k, v in s["combo"].items()}}
                for s in red.steps
            ]
        print(json.dumps(out, indent=2))
        return 0

    raise ValueError(f"unknown command {args.cmd}")


def _config_of(args) -> dict:
    out = {}
    for k, v in sorted(vars(args).items()):
        if k == "cmd":
            out[k] = v
        elif isinstance(v, Path):
            out[k] = str(v)
        else:
            out[k] = v
    return out


if __name__ == "__main__":
    sys.exit(main())
