"""The four workloads: seeded inputs (set-up) and one pass of operations.

``build(name, seed)`` is the set-up: it imports ffdioph, builds the field
specs and maps and draws every random input from the seed.  The returned
operations call the package through module attributes at call time, so the
tracer's wrappers see them.  Each operation records, besides its callable,
the parameters the checks need to recompute its answer independently.
"""

from __future__ import annotations

import itertools
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("khintchine", "gradient", "ubiquity", "extfield")
GOOD_PER_CLASS = 8       # random polynomials per (q, number of variables)
LATTICES_PER_SIZE = 8    # random F_4 lattices per size 2x2, 3x3, 4x4


@dataclass
class Op:
    name: str
    kind: str          # khintchine | biggrad | qn | good | ubiquity | lattice
    run: object        # zero-argument callable
    params: dict = field(default_factory=dict)


def import_package():
    """Import ffdioph from the checkout's src/ and put tests/ (the oracles)
    on the path; raises if either is absent."""
    src, tests = ROOT / "src", ROOT / "tests"
    for need in (src / "ffdioph" / "__init__.py", tests / "oracles.py"):
        if not need.is_file():
            raise FileNotFoundError(f"{need} is missing")
    sys.path[:0] = [str(src), str(tests)]
    import ffdioph.xcli  # noqa: F401  (imports every layer)


def build(name: str, seed: int) -> list[Op]:
    import_package()
    rng = random.Random(f"{name}:{seed}")
    return {"khintchine": _khintchine, "gradient": _gradient,
            "ubiquity": _ubiquity, "extfield": _extfield}[name](rng)


def _kh_op(name, m, psi_text, grid, t0, t1, theta_on, **extra) -> Op:
    from ffdioph import xcli

    psi = xcli.parse_psi(psi_text)
    params = {"q": m.spec.q, "n": m.n, "c": psi.coeff_exp, "tau": psi.tau,
              "t0": t0, "t1": t1, "grid": grid, "theta_on": theta_on,
              "map": m, "psi": psi, **extra}
    return Op(name, "khintchine",
              lambda: xcli.run_khintchine(m, psi, grid, t0, t1, theta_on=theta_on),
              params)


def _khintchine(rng) -> list[Op]:
    from ffdioph import xcli
    from ffdioph.ffield import Laurent
    from ffdioph.ultracalc import AnalyticMap, MPoly

    ver = xcli.load_map_file(ROOT / "maps" / "veronese2_q3.map")
    line = xcli.load_map_file(ROOT / "maps" / "line_q2.map")
    F3 = ver.spec
    # theta: a constant shift with six seeded digits below the point
    digits = [0] * 6
    while not any(digits):
        digits = [rng.randrange(3) for _ in range(6)]
    theta = Laurent(F3, [(-k, c) for k, c in enumerate(digits, start=1)])
    shifted = AnalyticMap(F3, 1, 2, ver.components,
                          theta=MPoly.const(F3, 1, theta), domain=ver.domain)
    return [
        _kh_op("veronese_q3_convergent", ver, "q^(-3*t)", 5, 1, 2, False,
               oracle=[1]),
        _kh_op("veronese_q3_divergent", ver, "q^(-2*t)", 5, 1, 2, False,
               oracle=[1, 2]),
        _kh_op("veronese_q3_inhomogeneous", shifted, "q^(-2*t)", 5, 1, 2, True,
               oracle=[1], theta=str(theta)),
        _kh_op("line_q2_convergent", line, "q^(-3*t)", 5, 1, 4, False, brute=(2,)),
    ]


def _gradient(rng) -> list[Op]:
    from ffdioph import goodfn, xcli
    from ffdioph.ffield import Ball, FieldSpec, Laurent
    from ffdioph.ultracalc import MPoly

    ver = xcli.load_map_file(ROOT / "maps" / "veronese2_q3.map")
    deltas, tmax, eps, grid = [-1, -2, -3], 2, Fraction(1, 4), 6
    eps_grid = [-1, -2, -3, -4, -5]
    ops = [
        Op("biggrad_veronese_q3", "biggrad",
           lambda: xcli.run_biggrad(ver, deltas, tmax, eps, grid),
           {"q": 3, "deltas": deltas, "domain": ver.resolved_domain.measure()}),
        Op("qn_veronese_q3", "qn",
           lambda: xcli.run_qn(ver, 6, 0, [4, 4], eps_grid, grid),
           {"q": 3, "domain": ver.resolved_domain.measure()}),
    ]
    # random polynomials of total degree <= k with F_q coefficients
    k, good_eps, resolution = 3, [-1, -2, -3], 8
    for q in (2, 3):
        spec = FieldSpec(q)
        for nvars in (1, 2):
            ball = Ball.unit(spec, nvars, 0)
            alpha = Fraction(1, nvars * k)
            for i in range(GOOD_PER_CLASS):
                g = MPoly.zero(spec, nvars)
                while g.is_zero:
                    terms = {}
                    for mono in itertools.product(range(k + 1), repeat=nvars):
                        c = rng.randrange(q)
                        if sum(mono) <= k and c:
                            terms[mono] = Laurent.const(spec, c)
                    g = MPoly(spec, nvars, terms)
                ops.append(Op(
                    f"good_q{q}_m{nvars}_{i}", "good",
                    lambda g=g, ball=ball, alpha=alpha: goodfn.certify_good(
                        g, ball, alpha, good_eps, resolution=resolution),
                    {"q": q, "family": (q, nvars), "ball": ball.measure(),
                     "alpha": alpha}))
    return ops


def _ubiquity(rng) -> list[Op]:
    from ffdioph import xcli

    ver = xcli.load_map_file(ROOT / "maps" / "veronese2_q3.map")
    psi = xcli.parse_psi("q^(-3*t)")
    ops = []
    for delta in (-2, -1):
        ops.append(Op(
            f"ubiquity_veronese_q3_delta{delta}", "ubiquity",
            lambda delta=delta: xcli.run_ubiquity(ver, [1], delta, psi, Fraction(1), 5),
            {"q": 3, "n": 2, "d": 1, "delta": delta, "t_range": [1],
             "c": psi.coeff_exp, "tau": psi.tau, "s": Fraction(1)}))
    return ops


def _extfield(rng) -> list[Op]:
    import brute
    from ffdioph import latdyn, xcli
    from ffdioph.ffield import FieldSpec, Laurent
    from ffdioph.ultracalc import AnalyticMap, MPoly, veronese

    F4 = FieldSpec(2, 2, modulus=(1, 1, 1))
    line = AnalyticMap(F4, 1, 1, (MPoly.var(F4, 1, 0),))
    ver = veronese(F4, 2)
    ops = [
        _kh_op("line_q4_convergent", line, "q^(-3*t)", 3, 1, 2, False, brute=(2, 2, (1, 1, 1))),
        _kh_op("veronese_q4_convergent", ver, "q^(-3*t)", 3, 1, 1, False),
        Op("biggrad_veronese_q4", "biggrad",
           lambda: xcli.run_biggrad(ver, [-1, -2, -3], 1, Fraction(1, 4), 3),
           {"q": 4, "deltas": [-1, -2, -3], "domain": ver.resolved_domain.measure()}),
    ]
    G4 = brute.GF(2, 2, (1, 1, 1))
    for size in (2, 3, 4):
        for i in range(LATTICES_PER_SIZE):
            det = {}
            while not det:
                raw = [[{d: c for d in (-1, 0, 1) if (c := rng.randrange(4))}
                        for _ in range(size)] for _ in range(size)]
                det = brute.laurent_det(G4, raw)
            cols = [tuple(Laurent(F4, sorted(raw[r][j].items())) for r in range(size))
                    for j in range(size)]
            ops.append(Op(
                f"lattice_q4_{size}x{size}_{i}", "lattice",
                lambda cols=cols: latdyn.reduce_lattice(cols),
                {"q": 4, "cols": cols, "det_exp": max(det)}))
    return ops
