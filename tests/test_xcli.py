"""Experiment drivers: parsing, determinism, verdicts and exit codes."""

import json
import re
from fractions import Fraction

import pytest

from ffdioph.dioph import ApproxFn
from ffdioph.ffield import Ball, FieldSpec, Laurent
from ffdioph.ultracalc import AnalyticMap, MPoly, veronese
from ffdioph.xcli import (
    load_map_file,
    main,
    parse_mpoly,
    parse_point,
    parse_psi,
    run_biggrad,
    run_khintchine,
    run_qn,
    run_ubiquity,
)

F3 = FieldSpec(3)

MAP_TEXT = """\
# Veronese curve over F_3
field: 3
d: 1
n: 2
f1: x1
f2: x1^2
theta: 0
domain_radius_exp: 1
"""


@pytest.fixture()
def veronese_map(tmp_path):
    p = tmp_path / "ver.map"
    p.write_text(MAP_TEXT)
    return p


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_mpoly_forms():
    assert parse_mpoly("x1^2", F3, 1) == MPoly.monomial(F3, 1, (2,), Laurent.one(F3))
    g = parse_mpoly("(X^-1+1)*x1*x2^2", F3, 2)
    assert g.terms[(1, 2)] == Laurent(F3, [(0, 1), (-1, 1)])
    h = parse_mpoly("2*x1+X^2*x2", F3, 2)
    assert h.terms[(1, 0)] == Laurent.const(F3, 2)
    assert h.terms[(0, 1)] == Laurent.X(F3, 2)
    assert parse_mpoly("0", F3, 1).is_zero


def test_parse_mpoly_rejects_bad_var():
    with pytest.raises(ValueError):
        parse_mpoly("x3", F3, 2)


@pytest.mark.parametrize("text, term", [
    ("x1**2", "x1**2"), ("x1*", "x1*"), ("*x1", "*x1"), ("2*x1 + x1**2", "x1**2"),
])
def test_parse_mpoly_rejects_empty_factors(text, term):
    # a Python-style power must not read as the factor 2, nor a stray * vanish
    with pytest.raises(ValueError, match=re.escape(f"empty factor in term {term!r}")):
        parse_mpoly(text, F3, 1)


@pytest.mark.parametrize("text", ["x1+", "x1 + + x2", ""])
def test_parse_mpoly_rejects_empty_terms(text):
    with pytest.raises(ValueError, match="empty term"):
        parse_mpoly(text, F3, 2)


def test_parse_psi():
    p = parse_psi("q^(-3*t)")
    assert p.tau == 3 and p.coeff_exp == 0
    p2 = parse_psi("q^2*q^(-1/2*t)")
    assert p2.tau == Fraction(1, 2) and p2.coeff_exp == 2
    assert parse_psi("0").zero
    with pytest.raises(ValueError):
        parse_psi("whatever")


def test_load_map_file(veronese_map):
    m = load_map_file(veronese_map)
    assert m.n == 2 and m.d == 1 and m.spec.q == 3
    assert m.components[0] == MPoly.var(F3, 1, 0)
    assert m.theta is None
    assert m.resolved_domain == Ball.unit(F3, 1, 1)


def test_load_map_file_rejects_python_power(tmp_path):
    p = tmp_path / "pow.map"
    p.write_text(MAP_TEXT.replace("f2: x1^2", "f2: x1**2"))
    with pytest.raises(ValueError, match=re.escape("'x1**2'")):
        load_map_file(p)


def test_parse_point():
    pt = parse_point("X^-1+X^-2 (mod 3); 0 (mod 3)", F3, 2)
    assert pt[0] == Laurent(F3, [(-1, 1), (-2, 1)])
    assert pt[1].is_zero


# ---------------------------------------------------------------------------
# experiments as functions
# ---------------------------------------------------------------------------

def test_run_khintchine_convergent_verdicts():
    m = veronese(F3, 2)
    rep = run_khintchine(m, ApproxFn.power_law(3), 4, 1, 2, theta_on=False)
    assert rep.all_pass
    assert rep.summary["divergent"] is False
    assert rep.summary["closedForm"] is not None
    tails = rep.tables["tails"]
    assert Fraction(tails[-1]["tailMeasure"]) <= Fraction(tails[0]["tailMeasure"])


def test_run_khintchine_divergent_verdicts():
    m = veronese(F3, 2)
    rep = run_khintchine(m, ApproxFn.power_law(2), 4, 1, 2, theta_on=False)
    assert rep.all_pass
    assert rep.summary["divergent"] is True
    assert "hit_measure_nondecreasing" in rep.verdicts


def test_run_biggrad():
    m = veronese(F3, 2)
    rep = run_biggrad(m, [-1, -2], 1, Fraction(1, 4), 5)
    assert rep.all_pass
    rows = rep.tables["delta_sweep"]
    assert len(rows) == 2
    C = Fraction(rep.summary["ratioConstant"])
    assert all(Fraction(r["ratio"]) <= C for r in rows)


def test_run_biggrad_builds_partials_once(monkeypatch):
    # a map without theta is its own homogeneous map: the sweeps of both
    # deltas share its three partials (d_1 f_1, d_1 f_2, d_1 theta)
    built = []
    partial = MPoly.partial
    monkeypatch.setattr(MPoly, "partial", lambda g, j: built.append(j) or partial(g, j))
    run_biggrad(veronese(F3, 2), [-1, -2], 1, Fraction(1, 4), 4)
    assert len(built) == 3


def test_run_qn():
    m = veronese(F3, 2)
    rep = run_qn(m, 6, 0, (4, 4), [-1, -2, -3], 6)
    assert rep.verdicts["monotone_nonincreasing"]
    assert rep.verdicts["alpha_hat_positive"]
    assert rep.summary["alphaHat"] > 0


def test_run_ubiquity_small():
    line = AnalyticMap(F3, 1, 1, (MPoly.var(F3, 1, 0),))
    rep = run_ubiquity(line, [1], -1, ApproxFn.power_law(2), Fraction(1), 4)
    assert rep.all_pass
    assert rep.tables["witnesses"]


# ---------------------------------------------------------------------------
# CLI wiring
# ---------------------------------------------------------------------------

def test_cli_approx_eval(capsys, veronese_map):
    rc = main(["approx", "eval", "--map", str(veronese_map), "--point", "X^-1 (mod 3)"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["f(x)"][1] == "X^-2 (mod 3, prec 1, exact)"


WITNESS_ARGS = ["--point", "X^-1 (mod 3)", "--psi", "q^(-3*t)", "--shell", "1"]
HOMOGENEOUS_WITNESS = {
    "a": ["1 (mod 3)", "2*X (mod 3)"],
    "a0": "0 (mod 3)",
    "value": "0 (mod 3, prec 1, exact)",
    "gradExp": 0,
    "verified": True,
}


def test_cli_witness(capsys, veronese_map):
    rc = main(["approx", "witness", "--map", str(veronese_map), *WITNESS_ARGS,
               "--homogeneous"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == HOMOGENEOUS_WITNESS


def test_cli_witness_reads_theta_unless_homogeneous(capsys, tmp_path):
    p = tmp_path / "shifted.map"
    p.write_text(MAP_TEXT.replace("theta: 0", "theta: (X^-1)*x1"))
    assert main(["approx", "witness", "--map", str(p), *WITNESS_ARGS]) == 0
    shifted = {**HOMOGENEOUS_WITNESS, "a": ["1 (mod 3)", "2*X+2 (mod 3)"]}
    assert json.loads(capsys.readouterr().out) == shifted
    assert main(["approx", "witness", "--map", str(p), *WITNESS_ARGS, "--homogeneous"]) == 0
    assert json.loads(capsys.readouterr().out) == HOMOGENEOUS_WITNESS


def test_cli_measure_sublevel(capsys):
    rc = main([
        "measure", "sublevel", "--field", "3", "--poly", "x1^2",
        "--eps", "-2", "--grid", "6",
    ])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["measure"] == "1/9" and out["certified"]


def test_cli_measure_sublevel_rejects_python_power(capsys):
    rc = main([
        "measure", "sublevel", "--field", "3", "--poly", "x1**2",
        "--eps", "-2", "--grid", "6",
    ])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_cli_measure_good(capsys):
    rc = main([
        "measure", "good", "--field", "3", "--poly", "x1",
        "--alpha", "1", "--eps-grid=-1:-3",
    ])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["certified"] and out["supExp"] == "0"


def test_cli_lattice(tmp_path, capsys):
    mat = tmp_path / "m.json"
    mat.write_text(json.dumps([["X (mod 2)", "0 (mod 2)"], ["0 (mod 2)", "X^-1 (mod 2, prec 4)"]]))
    rc = main(["lattice", "minima", "--field", "2", "--matrix", str(mat)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["minimaExps"] == [-1, 1]
    rc = main(["lattice", "reduce", "--field", "2", "--matrix", str(mat)])
    out = json.loads(capsys.readouterr().out)
    assert "pivotHistory" in out


def test_cli_error_exit_code(capsys):
    rc = main(["approx", "eval", "--map", "/nonexistent.map", "--point", "0 (mod 3)"])
    assert rc == 1


def test_khintchine_cli_writes_deterministic_reports(tmp_path, veronese_map):
    out = tmp_path / "rep"
    argv = [
        "khintchine", "--map", str(veronese_map), "--psi", "q^(-3*t)",
        "--grid", "4", "--shells", "1:2", "--homogeneous",
        "--out", str(out),
    ]
    names = ("khintchine.json", "khintchine_shells.csv", "khintchine_tails.csv")
    assert main(argv) == 0
    first = {n: (out / n).read_bytes() for n in names}
    assert main(argv) == 0
    for n in names:
        assert (out / n).read_bytes() == first[n]


def test_budget_guard(veronese_map, capsys):
    rc = main([
        "khintchine", "--map", str(veronese_map), "--psi", "q^(-3*t)",
        "--grid", "14", "--shells", "1:2", "--homogeneous",
    ])
    assert rc == 1
    assert "force" in capsys.readouterr().err


def test_biggrad_budget_counts_the_sweeps_atoms(veronese_map, capsys):
    # one sweep over 4 deltas x (3^5 - 1)^2 tuples a with every a_i nonzero of
    # degree <= 4: refused before any atom is built
    rc = main(["biggrad", "--map", str(veronese_map), "--tmax", "4", "--deltas=-1:-4"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "234256" in err and "force" in err


def test_khintchine_cli_over_f4_matches_api(tmp_path):
    path = tmp_path / "line4.map"
    path.write_text("field: 4\nd: 1\nn: 1\nf1: x1\ntheta: 0\ndomain_radius_exp: 1\n")
    out = tmp_path / "rep"
    argv = ["khintchine", "--map", str(path), "--psi", "q^(-3*t)",
            "--shells", "1:1", "--grid", "3", "--out", str(out)]
    assert main(argv) == 0
    F4 = FieldSpec(2, 2, modulus=(1, 1, 1))
    line = AnalyticMap(F4, 1, 1, (MPoly.var(F4, 1, 0),))
    rep = run_khintchine(line, parse_psi("q^(-3*t)"), 3, 1, 1)
    got = json.loads((out / "khintchine.json").read_text())
    assert got["summary"] == rep.summary and got["verdicts"] == rep.verdicts
    lines = (out / "khintchine_shells.csv").read_text().splitlines()
    row = rep.tables["shells"][0]
    assert lines[1] == ",".join(str(row[k]) for k in row)
    assert Fraction(row["shellMeasure"]) > 0


def test_khintchine_over_f4_beyond_one_shell():
    # the expected measures come from the independent digit walk
    # bench/brute.py::line_W_measure over F_4 (tests/oracles.py's
    # naive_W_measure takes about 9 s for shell 2 alone over F_4)
    F4 = FieldSpec(2, 2, modulus=(1, 1, 1))
    line = AnalyticMap(F4, 1, 1, (MPoly.var(F4, 1, 0),))
    rep = run_khintchine(line, parse_psi("q^(-3*t)"), 3, 1, 3)
    shells = {r["t"]: (Fraction(r["shellMeasure"]), Fraction(r["shellUndecided"]))
              for r in rep.tables["shells"]}
    assert shells == {1: (Fraction(13, 1024), 0), 2: (Fraction(205, 262144), 0),
                      3: (Fraction(3277, 67108864), 0)}
    tail = rep.tables["tails"][0]
    assert tail["T0"] == 1 and Fraction(tail["tailMeasure"]) == Fraction(883, 65536)
    assert all(r["certified"] for r in rep.tables["tails"])
