"""Brute-force references written from the definitions, importing nothing
from ffdioph.

* ``GF``: the finite field F_{p^b} on the same integer encoding the package
  uses (base-p digits of the residue polynomial, constant digit first),
  with tables built by schoolbook multiplication modulo the modulus.
* ``line_W_measure``: the exact Haar measure of the approximation set of
  the line x -> x over F_q, by a depth-first walk over the digits of x.
* ``laurent_det``: determinants of matrices of Laurent polynomials, held as
  {degree: coefficient} dicts, by cofactor expansion.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


class GF:
    """F_{p^b}: elements are ints in [0, p^b); add/mul by table."""

    def __init__(self, p: int, b: int = 1, modulus=None):
        self.p, self.b, self.q = p, b, p ** b
        q = self.q

        def digits(a):
            return [(a // p ** i) % p for i in range(b)]

        def encode(ds):
            return sum((c % p) * p ** i for i, c in enumerate(ds))

        def mul(x, y):
            prod = [0] * (2 * b - 1)
            for i, u in enumerate(digits(x)):
                for j, v in enumerate(digits(y)):
                    prod[i + j] += u * v
            # reduce by the monic-normalized modulus, top degree first
            lead_inv = pow(modulus[-1], p - 2, p) if b > 1 else 1
            for k in range(len(prod) - 1, b - 1, -1):
                f = prod[k] * lead_inv % p
                for i, mc in enumerate(modulus):
                    prod[k - b + i] -= f * mc
            return encode(prod[:b])

        self.add_t = [[encode([u + v for u, v in zip(digits(x), digits(y))])
                       for y in range(q)] for x in range(q)]
        self.neg_t = [encode([-u for u in digits(x)]) for x in range(q)]
        self.mul_t = [[mul(x, y) if b > 1 else x * y % p for y in range(q)]
                      for x in range(q)]


def line_W_measure(F: GF, shells: list[tuple[int, int]]) -> Fraction:
    """Measure of {x in (1/X)O : |a x + a0| < q^e_t for some a0 and some
    a in F_q[X] of degree exactly t}, for (t, e_t) in ``shells``.

    x = sum_{k>=1} x_k X^-k.  The condition on a is that the coefficients
    of a x at degrees -1 .. e_t all vanish; the one at degree -j is
    sum_i a_i x_{j+i}, known once the first j + t digits are.  A digit
    prefix of length k is a ball of measure q^-(k+1).
    """
    q = F.q
    add, mul = F.add_t, F.mul_t
    cands = []  # (coeffs a_0..a_t, t, number of vanishing coefficients J)
    for t, e in shells:
        J = max(0, -e)
        if J == 0:
            return Fraction(1, q)  # every x qualifies
        for low in itertools.product(range(q), repeat=t):
            for lead in range(1, q):
                cands.append((low + (lead,), t, J))

    def walk(k: int, xs: list[int], live: list) -> Fraction:
        survivors = []
        for a, t, J in live:
            j = k - t
            if 1 <= j <= J:
                c = 0
                for i, ai in enumerate(a):
                    if ai:
                        c = add[c][mul[ai][xs[j + i - 1]]]
                if c:
                    continue
                if j == J:
                    return Fraction(1, q ** (k + 1))
            survivors.append((a, t, J))
        if not survivors:
            return Fraction(0)
        return sum((walk(k + 1, xs + [digit], survivors) for digit in range(q)),
                   Fraction(0))

    return walk(0, [], cands)


# -- Laurent polynomials as {degree: coefficient} ---------------------------

def _lp_add(F: GF, x: dict, y: dict) -> dict:
    out = dict(x)
    for d, c in y.items():
        s = F.add_t[out.get(d, 0)][c]
        if s:
            out[d] = s
        else:
            out.pop(d, None)
    return out


def _lp_mul(F: GF, x: dict, y: dict) -> dict:
    out: dict = {}
    for d1, c1 in x.items():
        for d2, c2 in y.items():
            d = d1 + d2
            s = F.add_t[out.get(d, 0)][F.mul_t[c1][c2]]
            if s:
                out[d] = s
            else:
                out.pop(d, None)
    return out


def laurent_det(F: GF, rows: list[list[dict]]) -> dict:
    """Determinant by cofactor expansion along the first row."""
    m = len(rows)
    if m == 1:
        return dict(rows[0][0])
    acc: dict = {}
    for j in range(m):
        if not rows[0][j]:
            continue
        minor = [[r[i] for i in range(m) if i != j] for r in rows[1:]]
        term = _lp_mul(F, rows[0][j], laurent_det(F, minor))
        if j % 2:
            term = {d: F.neg_t[c] for d, c in term.items()}
        acc = _lp_add(F, acc, term)
    return acc
