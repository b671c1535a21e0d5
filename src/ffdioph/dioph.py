"""Psi-approximability: witness search, Borel-Cantelli sums, and exact
finite-height measures of the approximation sets.

Every set measured here is a finite union over coefficient vectors a of
conditions of two shapes: dist(g_a(x), Lambda) < threshold (the existential
a_0 collapses to the polynomial part) and gradient-norm comparisons.  Each
(a, cell) pair is decided by ultrametric dominance of the center value over
the certified variation bound; undecided cells split.  All thresholds are
strict in the paper's sense and normalize to the next lower power of q.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .ffield import (
    Ball,
    FieldSpec,
    GridSpec,
    Laurent,
    Poly,
    enumerate_box,
    enumerate_shell,
    shell_count,
    strict_below,
)
from .goodfn import (
    IN,
    OUT,
    UNKNOWN,
    MeasureResult,
    TrueAtom,
    frac_exp,
    measure_union,
)
from .errors import PrecisionError
from .ultracalc import AnalyticMap, VarTable, row_combo

# ---------------------------------------------------------------------------
# approximating functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ApproxFn:
    """Multivariable approximating function Psi(a) = c * ||a||^-tau, or a
    per-shell table of exponents; values are powers of q.

    Power laws are automatically monotone decreasing componentwise; tables
    are validated to be nonincreasing in t.
    """

    coeff_exp: Fraction = Fraction(0)       # c = q^coeff_exp
    tau: Fraction = Fraction(0)             # decay exponent
    table: Optional[tuple] = None           # shell t -> exponent, None = Psi 0
    zero: bool = False                      # Psi identically 0

    def __post_init__(self):
        object.__setattr__(self, "coeff_exp", Fraction(self.coeff_exp))
        object.__setattr__(self, "tau", Fraction(self.tau))
        if self.table is not None:
            tb = tuple(None if v is None else Fraction(v) for v in self.table)
            object.__setattr__(self, "table", tb)
            known = [v for v in tb if v is not None]
            if any(known[i + 1] > known[i] for i in range(len(known) - 1)):
                raise ValueError("shell table must be nonincreasing")

    @classmethod
    def power_law(cls, tau, coeff_exp=0) -> "ApproxFn":
        return cls(coeff_exp=Fraction(coeff_exp), tau=Fraction(tau))

    @classmethod
    def shell_table(cls, exps: Sequence) -> "ApproxFn":
        return cls(table=tuple(None if e is None else Fraction(e) for e in exps))

    @classmethod
    def zero_fn(cls) -> "ApproxFn":
        return cls(zero=True)

    def exp_at_shell(self, t: int) -> Optional[Fraction]:
        """Exponent e with Psi(a) = q^e on the shell ||a|| = q^t (None: Psi=0)."""
        if self.zero:
            return None
        if self.table is not None:
            if t >= len(self.table):
                raise ValueError(f"shell table has no entry for t={t}")
            return self.table[t]
        return self.coeff_exp - self.tau * t

    def exp_at(self, a: Sequence[Poly]) -> Optional[Fraction]:
        t = max((p.deg for p in a if not p.is_zero), default=None)
        if t is None:
            raise ValueError("Psi is evaluated on nonzero a only")
        return self.exp_at_shell(t)

    def __str__(self) -> str:
        if self.table is not None:
            return f"table{[str(e) for e in self.table]}"
        c = "" if self.coeff_exp == 0 else f"q^{self.coeff_exp}*"
        return f"{c}q^(-{self.tau}*t)"


def psi0_exp(tvec: Sequence[int]) -> int:
    """Exponent of Psi_0(X^{t_1},..,X^{t_n}) = prod |X^{t_i}|^{-1} (c_0 = 1)."""
    return -sum(tvec)


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

@dataclass
class Witness:
    """(a, a0) certifying |f(x).a + a0 + theta(x)| < Psi(a) at a point."""

    a: tuple[Poly, ...]
    a0: Poly
    value: Laurent
    shell: int

    def verify(self, m: AnalyticMap, x: Sequence[Laurent], psi: ApproxFn) -> bool:
        z = lin_comb(m.eval_theta(x), self.a, m.eval(x))
        val = z + self.a0.to_laurent()
        bound = psi.exp_at(self.a)
        if bound is None:
            return False
        e = val.abs_exp()
        return e is None or Fraction(e) < bound


def lin_comb(acc: Laurent, a: Sequence[Poly], vals: Sequence[Laurent]) -> Laurent:
    """acc + sum a_i * vals_i over the nonzero a_i, added left to right."""
    for ai, v in zip(a, vals):
        if not ai.is_zero:
            acc = acc + ai.to_laurent() * v
    return acc


def grad_exp(m: AnalyticMap, a: Sequence[Poly], x: Sequence[Laurent]) -> Optional[int]:
    """Exponent of ||grad(a.f + theta)(x)||, None when the gradient is 0."""
    exps = [row_combo(a, row).eval(x).abs_exp() for row in m.partials]
    return max((e for e in exps if e is not None), default=None)


def find_witness(
    m: AnalyticMap,
    x: Sequence[Laurent],
    psi: ApproxFn,
    t: int,
) -> Optional[Witness]:
    """First witness in shell order with |f(x).a + a0 + theta| < Psi(a).

    A point is a cell with zero variation: the shell's witness atoms decide
    each a on the packed digit columns of f(x) and theta(x), and only the
    witness is formed as a Laurent value and split into parts."""
    bound = psi.exp_at_shell(t)
    if bound is None:
        return None
    atoms = _shell_atoms(m, t, strict_below(bound))
    data = MapCellData.at_point(atoms[0].sd, x)
    hit = _decide(data, atoms)[0]
    if hit is None:
        return None
    vals = data.vals[0]
    head, tail = lin_comb(vals[-1], hit.a, vals).poly_part()
    return Witness(a=hit.a, a0=-head, value=tail, shell=t)


@functools.lru_cache(maxsize=32)
def _shell_atoms(m: AnalyticMap, t: int, tau: int) -> tuple["WitnessAtom", ...]:
    """The witness atoms of shell t at threshold q^tau in enumerate_shell
    order, one a per F_q^*-orbit without theta (``orbit_firsts``), on one
    SweepData of the map; built once per (map, t, tau), so every point scan
    reads the same digit window."""
    sd = SweepData(m)
    return tuple(WitnessAtom(sd, a, tau) for a in orbit_firsts(m, enumerate_shell(m.spec, m.n, t)))


# ---------------------------------------------------------------------------
# Borel-Cantelli sums
# ---------------------------------------------------------------------------

@dataclass
class BCSum:
    """Partial sum of sum_a Psi(a) with the power-law convergence verdict."""

    partial: Fraction
    shells: list[Fraction]
    diverges: Optional[bool]
    limit: Optional[Fraction]


def borel_cantelli_sum(psi: ApproxFn, q: int, n: int, T: int) -> BCSum:
    """sum_{t<=T} q^{tn}(q^n - 1) Psi(shell t), exact; closed form when the
    power law has integral exponents."""
    if T < 0:
        raise ValueError("T >= 0 required")
    shells = []
    total = Fraction(0)
    for t in range(T + 1):
        e = psi.exp_at_shell(t)
        if e is None:
            shells.append(Fraction(0))
            continue
        if e.denominator != 1:
            raise ValueError("non-integral exponent: partial sums not rational")
        val = Fraction(q ** int(e)) if e >= 0 else Fraction(1, q ** int(-e))
        term = shell_count(q, n, t) * val
        shells.append(term)
        total += term
    diverges = limit = None
    if psi.zero:
        diverges, limit = False, Fraction(0)
    elif psi.table is None:
        # shell terms are (q^n - 1) * c * q^{t(n - tau)}
        ratio_exp = n - psi.tau
        diverges = ratio_exp >= 0
        if not diverges and psi.coeff_exp.denominator == 1 and ratio_exp.denominator == 1:
            c = Fraction(q) ** int(psi.coeff_exp)
            r = Fraction(q) ** int(ratio_exp)
            limit = (q**n - 1) * c / (1 - r)
    return BCSum(partial=total, shells=shells, diverges=diverges, limit=limit)


# ---------------------------------------------------------------------------
# cell-sweep atoms specialized to a.f + theta combos
# ---------------------------------------------------------------------------

# the exponent of |0| (a zero variation) and the knowledge horizon of an exact
# value: below every integer, so comparisons need no None checks
_NEG_INF = float("-inf")


class SweepData:
    """Per-sweep data for one map.  Row 0 is f_1..f_n and theta (zero when
    the map has none), row 1+j their partials d_j; every polynomial of a row
    has a VarTable over the sweep domain, built when the row is first read
    (``row_tables``).  The sweep measures a.f + theta when the
    map has a theta and a.f when it has none: a homogeneous sweep of a map
    with theta takes ``m.homogeneous``.

    The witness atoms of the sweep register the parts of the functions they
    read: a_i * f_i for each nonzero a_i, and theta (part key (n, (1,)))
    when the map has one; a part is the same in every row.  Row 0 is of
    kind 0 (values), the gradient rows of kind 1, and a registration lowers
    its kind's floor to the lowest degree the atom reads.  Every column
    packs the digits of u^e * g(c) from its kind's base, floor - jmax, up,
    the base lowest, each digit in b slots of s bits (coordinate r of a
    digit in the digit's slot r); multiplying by X^j shifts a column j
    digits up.  A packed sum of theta's column and, per part, alpha_{j,e}
    times its shifted columns holds at most (p-1) + n(jmax+1)b(p-1)^2 in a
    slot, and (p-1) more with a packed constant a0 (``pack``); s is that
    bound's bit length rounded up to whole bytes, so no slot carries and
    every slot is whole bytes of the integer.  The slots (s, s*b, the
    evaluation layout that packs reduced digits) are fixed when a cell
    first builds columns, a kind's base when a cell first builds that
    kind's columns; a later registration that would widen a fixed window
    raises ValueError.

    A cell's columns come from integer products on packed digits
    (``_CenterLayout``): ``shapes`` holds, per polynomial, the digit span
    of each monomial's coefficient (None for the coefficient 1) and its
    exponents, from which ``width`` sizes the working slots of a center."""

    __slots__ = ("m", "dom", "rows", "tables", "part_ids", "parts", "jmax", "floors",
                 "bases", "slots", "shapes", "widths", "layouts")

    def __init__(self, m: AnalyticMap, domain: Optional[Ball] = None):
        self.m = m
        self.dom = domain if domain is not None else m.resolved_domain
        self.rows = [list(m.components) + [m.theta_or_zero]] + [list(r) for r in m.partials]
        self.tables: list = [None] * len(self.rows)
        self.part_ids: dict = {}   # (i, coefficients of a_i) -> part id
        self.parts: list = []      # part id -> its key, a _layout_part once slots are fixed
        self.jmax = 0              # largest deg a_i of a part
        self.floors: list = [None, None]  # per kind: lowest degree an atom reads
        self.bases: list = [None, None]   # per kind: lowest column degree
        self.slots = None
        self.shapes = [[[(_coeff_span(c), _exponents(mono)) for mono, c in g.terms.items()]
                        for g in row] for row in self.rows]
        self.widths: dict = {}     # digit spans of a center's coordinates -> slot bytes
        self.layouts: dict = {}    # slot bytes -> _CenterLayout

    def register(self, a: Sequence[Poly], kind: int, floor: int) -> tuple[int, ...]:
        """Part ids of a.f (+ theta) for an atom that reads the digits of the
        rows of ``kind`` from degree ``floor`` up; the ids are the same for
        every kind."""
        jmax = max([self.jmax] + [ai.deg for ai in a if not ai.is_zero])
        old = self.floors[kind]
        lo = floor if old is None else min(old, floor)
        if ((self.slots is not None and jmax != self.jmax)
                or (self.bases[kind] is not None and lo != old)):
            raise ValueError("the digit window is fixed once a cell builds its columns")
        self.jmax, self.floors[kind] = jmax, lo
        keys = [(i, ai.coeffs) for i, ai in enumerate(a) if not ai.is_zero]
        if self.m.theta is not None:
            keys.append((self.m.n, (1,)))
        ids = []
        for key in keys:
            pid = self.part_ids.get(key)
            if pid is None:
                pid = self.part_ids[key] = len(self.parts)
                self.parts.append(self._layout_part(*key) if self.slots else key)
            ids.append(pid)
        return tuple(ids)

    def fix(self, kind: int) -> int:
        """The base of ``kind``, fixing it and the slots on first use."""
        if self.slots is None:
            p, b = self.m.spec.p, self.m.spec.b
            bound = 2 * (p - 1) + self.m.n * (self.jmax + 1) * b * (p - 1) ** 2
            s = -(-bound.bit_length() // 8) * 8
            self.slots = (s, s * b)
            # slots wide enough for a reduced digit pack Laurent values and a0
            self.slots += (self.layout(-(-(p - 1).bit_length() // 8)),)
            self.parts = [self._layout_part(*key) for key in self.parts]
        if self.bases[kind] is None:
            self.bases[kind] = self.floors[kind] - self.jmax
        return self.bases[kind]

    def _layout_part(self, i: int, coeffs: tuple) -> tuple:
        """(i, deg a_i, ((e, sum_j alpha_{j,e} X^j), ..)) of the part a_i f_i,
        alpha_{j,e} the F_p coordinate e of a_i's coefficient of X^j: the
        part is one product per column e (no slot carries)."""
        p, sb = self.m.spec.p, self.slots[1]
        mults = [(e, sum(c // p**e % p << sb * j for j, c in enumerate(coeffs)))
                 for e in range(self.m.spec.b)]
        return i, len(coeffs) - 1, tuple((e, m) for e, m in mults if m)

    def row_tables(self, row: int) -> list:
        """The VarTables of the polynomials of a row, built on first use."""
        if self.tables[row] is None:
            self.tables[row] = [VarTable(g, self.dom) for g in self.rows[row]]
        return self.tables[row]

    def layout(self, width: int) -> "_CenterLayout":
        """The evaluation layout with working slots of ``width`` bytes."""
        got = self.layouts.get(width)
        if got is None:
            got = self.layouts[width] = _CenterLayout(self, width)
        return got

    def width(self, spans: tuple) -> int:
        """Bytes a working slot needs at a center whose coordinate j spans
        spans[j] digits (0 for the coordinate 0).  A product of packed
        series of n and n' digits holds at most min(n, n') b (p-1)^2 in a
        slot: the powers x_j^e (x_j^(e-1) times x_j), the products along a
        monomial, and the sum of the monomials, each unreduced only in its
        last product; a fold adds at most (p-1)^2 to a reduced slot."""
        got = self.widths.get(spans)
        if got is None:
            p, b = self.m.spec.p, self.m.spec.b
            k = b * (p - 1) ** 2
            need = p * (p - 1) if b > 1 else p - 1
            top = [0] * len(spans)  # largest exponent of each coordinate
            for row in self.shapes:
                for shape in row:
                    total = 0
                    for cspan, exps in shape:
                        if any(spans[j] == 0 for j, _ in exps):
                            continue
                        acc, last = cspan, p - 1
                        for j, e in exps:
                            top[j] = max(top[j], e)
                            f = e * (spans[j] - 1) + 1
                            if acc is None:
                                acc = f
                            else:
                                last = k * min(acc, f)
                                need = max(need, last)
                                acc += f - 1
                        total += last
                    need = max(need, total)
            need = max([need] + [k * n for n, e in zip(spans, top) if e >= 2])
            got = self.widths[spans] = -(-need.bit_length() // 8)
        return got

    def pack(self, a0: Poly) -> int:
        """The digits of the polynomial a0 in the columns of row 0."""
        base = self.fix(0)
        lay = self.slots[2]
        terms = tuple((k, c) for k, c in reversed(tuple(enumerate(a0.coeffs))) if c)
        return lay.columns(*lay.pack(terms), base)[0] if terms else 0

    def top_digit(self, val: int, deg: int, prec: float, kind: int) -> Optional[int]:
        """The degree of the top nonzero digit of the packed sum val of a row
        of ``kind`` at a degree >= deg, None when it has none there.  Digits
        below the horizon prec are unknown: when they are the only ones left
        to read, PrecisionError is raised."""
        start = deg if deg >= prec else prec
        s, sb = self.slots[:2]
        p, b = self.m.spec.p, self.m.spec.b
        val >>= (start - self.bases[kind]) * sb
        while val:
            k = (val.bit_length() - 1) // s  # the top nonzero slot
            top = val >> k * s
            if top % p:
                return start + k // b
            val ^= top << k * s
        if start > deg:
            raise PrecisionError("digits indistinguishable from 0")
        return None


def _coeff_span(c: Laurent) -> Optional[int]:
    """Digits from the top known term of a coefficient to its lowest, 0
    with none known, None for the exact 1 (a product skipped)."""
    if c.prec is None and c.terms == ((0, 1),):
        return None
    return c.terms[0][0] - c.terms[-1][0] + 1 if c.terms else 0


def _exponents(mono: tuple) -> tuple:
    """The (coordinate, exponent) pairs of a monomial with exponent > 0."""
    return tuple((j, e) for j, e in enumerate(mono) if e)


class _CenterLayout:
    """Packed evaluation of a sweep's polynomials at exact points, with
    working slots of ``width`` bytes (Kronecker substitution).

    A series is an integer and the degree of its lowest digit.  Each digit
    is a group of 2b-1 slots, slot r holding the F_p coordinate of u^r, so
    one integer product multiplies two series whose digits have u-degree
    < b, each product digit a polynomial in u of degree <= 2b-2 with
    unreduced coordinates.  ``reduce`` takes every slot mod p (one
    bytes.translate with one-byte slots) and folds the slots b..2b-2 down
    by the modulus, u^b = -(m_0 + .. + m_(b-1) u^(b-1))/m_b, by shifted adds
    of the whole integer.  ``columns`` re-strides a reduced series to the
    sweep's columns, b slots of s bits a digit, by bytes slicing, and forms
    the columns of u^e times it there by the same fold."""

    __slots__ = ("p", "b", "wb", "gb", "G", "kb", "s", "sb", "direct", "enc",
                 "table", "zeros", "fold", "progs")

    def __init__(self, sd: SweepData, width: int):
        K = sd.m.spec
        p, b = K.p, K.b
        self.p, self.b, self.wb = p, b, width
        self.gb = (2 * b - 1) * width   # bytes of one digit group
        self.G = 8 * self.gb
        self.kb = -(-(p - 1).bit_length() // 8)  # bytes of a reduced coordinate
        self.s = sd.slots[0]
        self.sb = self.s // 8                    # bytes of a column slot
        self.direct = b == 1 and width == self.sb
        self.enc = [sum(c // p**r % p << 8 * width * r for r in range(b)) for c in K.elements()]
        self.table = bytes(v % p for v in range(256))
        self.zeros = bytes(range(0, 256, p))  # the bytes that are 0 mod p
        self.fold = ()
        if b > 1:
            lead = pow(K.modulus[b], p - 2, p)
            self.fold = tuple((i, -m * lead % p) for i, m in enumerate(K.modulus[:b]) if m)
        # per row, per polynomial: ((packed coefficient or None for 1,
        # exponents, coefficient horizon or None), ...)
        self.progs = [[[(None if _coeff_span(c) is None else self.pack(c.terms),
                         _exponents(mono), c.prec) for mono, c in g.terms.items()]
                       for g in row] for row in sd.rows]

    def pack(self, terms: tuple) -> tuple[int, int]:
        """(packed digits, lowest degree) of descending (degree, digit) terms."""
        if not terms:
            return 0, 0
        lo, enc, G = terms[-1][0], self.enc, self.G
        return sum(enc[c] << G * (k - lo) for k, c in terms), lo

    def _mod(self, v: int, width: int) -> int:
        """Every slot of ``width`` bytes of v mod p."""
        n = (v.bit_length() + 7) // 8
        if width == 1:
            return int.from_bytes(v.to_bytes(n, "little").translate(self.table), "little")
        p = self.p
        bs = v.to_bytes(-(-n // width) * width, "little")
        return int.from_bytes(b"".join((int.from_bytes(bs[i:i + width], "little") % p)
                                       .to_bytes(width, "little")
                                       for i in range(0, len(bs), width)), "little")

    def _fold(self, v: int, k: int, width: int, stride: int) -> int:
        """v with slot k of each digit (``stride`` bytes a digit, slots of
        ``width`` bytes, all reduced) replaced by u^k = u^(k-b) u^b."""
        n = (v.bit_length() + 7) // 8
        bs = v.to_bytes(n, "little")
        top = bytearray(n)
        for i in range(k * width, k * width + self.kb):
            top[i::stride] = bs[i::stride]
        t = int.from_bytes(top, "little")
        v -= t
        for i, c in self.fold:  # slot k of a digit to its slot k - b + i
            v += c * (t >> (self.b - i) * 8 * width)
        return self._mod(v, width)

    def reduce(self, v: int) -> int:
        """Every slot of v mod p, each digit folded to u-degree < b."""
        v = self._mod(v, self.wb)
        for k in range(2 * self.b - 2, self.b - 1, -1):
            v = self._fold(v, k, self.wb, self.gb)
        return v

    def columns(self, v: int, lo: int, base: int) -> list:
        """The columns of u^e times the reduced series v (lowest digit at
        degree lo), e < b, from degree base up, the digits below base
        dropped."""
        v = v << self.G * (lo - base) if lo >= base else v >> self.G * (base - lo)
        if self.direct:
            return [v]
        gb, sb, b = self.gb, self.sb, self.b
        bs = v.to_bytes(-(-v.bit_length() // self.G) * gb, "little")
        out = bytearray(len(bs) // gb * b * sb)
        for r in range(b):
            for i in range(self.kb):
                out[r * sb + i::b * sb] = bs[r * self.wb + i::gb]
        cols = [int.from_bytes(out, "little")]
        for _ in range(1, b):  # u times the last: the slots shift up, slot b folds
            col = cols[-1]
            cols.append(self._fold(col << self.s, b, sb, b * sb))
        return cols


class MapCellData:
    """Per-cell cache shared by all atoms of a sweep over one map.

    A row's values at the cell center and its variation bounds at the cell
    radius are evaluated, as digit columns in the one layout of
    ``SweepData``, the first time an atom reads the row; each part's packed
    product is memoized per (row, part id).  Every cell condition reads
    these columns: the witness atoms and ``ubiq.ResonantDistAtom``.

    A cell is evaluated in packed integers, never as Laurent series: the
    coordinates of its center, an exact point (a windowed one raises
    PrecisionError), are packed once and their powers built by one
    integer product each (``center``), each monomial is its
    coefficient's packed product with the powers (the coefficient 1
    skipped), and a polynomial is the sum of its monomials at their lowest
    degree, reduced once.  A coefficient known only to q^prec gives its
    monomial the horizon prec + sum_j e_j top(x_j), the Laurent product's;
    a zero coordinate makes the monomial exactly 0; a value's horizon is
    its monomials' largest, and its digits below it are cleared.

    A point is a cell with zero variation (``at_point``): ``find_witness``
    reads it through the same columns, packed from its Laurent values
    f(x) and theta(x) in ``vals``; values set there (by a test as well)
    are packed in place of the center's.
    """

    __slots__ = ("sd", "cell", "vals", "vars", "cols", "packed", "center")

    def __init__(self, sd: SweepData, cell: Optional[Ball]):
        self.sd = sd
        self.cell = cell
        rows = len(sd.rows)
        self.vals: list = [None] * rows
        self.vars: list = [None] * rows
        self.cols: list = [None] * rows
        self.packed: list = [{} for _ in range(rows)]
        self.center = None

    @classmethod
    def at_point(cls, sd: SweepData, x: Sequence[Laurent]) -> "MapCellData":
        """The data of the point x, a cell with zero variation: row 0 holds
        f(x) and theta(x) and every variation is None."""
        data = cls(sd, None)
        data.vals[0] = [g.eval(x) for g in sd.rows[0]]
        data.vars[0] = [None] * len(data.vals[0])
        return data

    @classmethod
    def of(cls, sd: SweepData, cell: Ball, ctx: dict) -> "MapCellData":
        """The cell's data for sd, made on the first request of the cell's
        sweep; kept in ctx under sd."""
        data = ctx.get(sd)
        if data is None:
            data = ctx[sd] = cls(sd, cell)
        return data

    def packed_sum(self, pids: Sequence[int], row: int) -> tuple[int, float, float]:
        """(packed digits, variation exponent, knowledge horizon) of the sum
        of the parts pids in row ``row``; an exponent of None reads -inf."""
        packed = self.packed[row]
        val, var, prec = 0, _NEG_INF, _NEG_INF
        for pid in pids:
            pv, pvar, pprec = packed.get(pid) or self._part(pid, row)
            val += pv
            if pvar > var:
                var = pvar
            if pprec > prec:
                prec = pprec
        return val, var, prec

    def _part(self, pid: int, row: int) -> tuple[int, float, float]:
        cols = self.cols[row] or self._columns(row)
        i, deg, mults = self.sd.parts[pid]
        col, var, prec = cols[i]
        v = 0
        for e, m in mults:
            v += col[e] * m
        return self.packed[row].setdefault(pid, (v, var + deg, prec + deg))

    def _columns(self, row: int) -> list:
        """The columns of one row: (b columns, variation, horizon) per g."""
        sd = self.sd
        base = sd.fix(min(row, 1))
        if self.vals[row] is None:
            r = self.cell.radius_exp
            self.vars[row] = [vt.var_exp(r) for vt in sd.row_tables(row)]
            lay = self._center()[0]
            got = [self._eval(prog) for prog in lay.progs[row]]
        else:
            lay = sd.slots[2]
            got = [lay.pack(v.terms) + (_NEG_INF if v.prec is None else v.prec,)
                   for v in self.vals[row]]
        sb = sd.slots[1]
        cols = []
        for (v, lo, prec), var in zip(got, self.vars[row]):
            col = lay.columns(v, lo, base) if v else [0] * lay.b
            if prec > base:  # the digits below the horizon are unknown
                sh = (prec - base) * sb
                col = [c >> sh << sh for c in col]
            cols.append((col, _NEG_INF if var is None else var, prec))
        self.cols[row] = cols
        return cols

    def _center(self) -> tuple:
        """(layout, powers per coordinate, top degree per coordinate) of
        the cell center; powers[j][e] = (packed x_j^e, its lowest degree),
        None for a zero coordinate."""
        if self.center is None:
            spans, tops = [], []
            for x in self.cell.center:
                if x.prec is not None:
                    raise PrecisionError("a cell center is an exact point")
                t = x.terms
                spans.append(t[0][0] - t[-1][0] + 1 if t else 0)
                tops.append(t[0][0] if t else None)
            lay = self.sd.layout(self.sd.width(tuple(spans)))
            self.center = (lay, [[None, lay.pack(x.terms)] if x.terms else None
                                 for x in self.cell.center], tops)
        return self.center

    def _eval(self, prog: list) -> tuple[int, int, float]:
        """(reduced packed value, its lowest degree, horizon) of one
        polynomial at the cell center."""
        lay, powers, tops = self.center
        parts = []
        raw = False  # some part is an unreduced product
        prec = _NEG_INF
        for coef, exps, cprec in prog:
            acc, last = coef, False
            for j, e in exps:
                pw = powers[j]
                if pw is None:  # x_j = 0: the monomial is exactly 0
                    break
                while len(pw) <= e:
                    (v, lo), (x, xlo) = pw[-1], pw[1]
                    pw.append((lay.reduce(v * x), lo + xlo))
                if cprec is not None:
                    cprec += e * tops[j]
                if acc is None:
                    acc = pw[e]
                else:
                    v = lay.reduce(acc[0]) if last else acc[0]
                    acc, last = (v * pw[e][0], acc[1] + pw[e][1]), True
            else:
                parts.append(acc if acc is not None else (lay.enc[1], 0))
                raw = raw or last
                if cprec is not None and cprec > prec:
                    prec = cprec
        if not parts:
            return 0, 0, prec
        if len(parts) == 1 and not raw:
            return parts[0][0], parts[0][1], prec
        lo = min(lo for _, lo in parts)
        G = lay.G
        return lay.reduce(sum(v << G * (vlo - lo) for v, vlo in parts)), lo, prec


class WitnessAtom:
    """Cell condition: dist(a.f(x)+theta, Lambda) <= q^tau, optionally
    conjoined with gradient-norm constraints on grad(a.f + theta); theta is
    the sweep map's (none when the map has none).

    grad_lower: require ||grad|| >= q^grad_lower (Fraction exponent);
    grad_upper_tau: require ||grad|| <= q^grad_upper_tau (already strict-
    normalized to an integer).

    Every condition asks whether a packed sum of the parts of a.f (+theta)
    has a nonzero digit at or above one degree: the value condition in row
    0 at a degree from max(tau, var) + 1 to -1, the gradient conditions per
    partial d_j in row 1+j at a degree of at least max(var + 1,
    ceil(grad_lower)), or above max(grad_upper_tau, var).

    A witness atom decides a whole label of witness atoms on its SweepData
    (``decides_labels``): ``status`` reads the live members in one loop,
    and a member alone is the call with live = (member,).
    """

    decides_labels = True

    __slots__ = ("sd", "a", "tau", "grad_lower", "grad_upper_tau", "lower_deg", "parts")

    def __init__(self, sd: SweepData, a, tau: int, grad_lower=None, grad_upper_tau=None):
        self.sd = sd
        self.a = tuple(a)
        self.tau = tau
        self.grad_lower = None if grad_lower is None else Fraction(grad_lower)
        self.grad_upper_tau = grad_upper_tau
        # ||grad|| >= q^L iff some |d_j| >= q^ceil(L): exponents are integers
        self.lower_deg = None if grad_lower is None else math.ceil(self.grad_lower)
        self.parts = sd.register(self.a, 0, tau + 1) if tau < -1 else ()
        reads = [] if grad_upper_tau is None else [grad_upper_tau + 1]
        if self.lower_deg is not None:
            reads.append(self.lower_deg)
        if reads:  # the same part ids as the value registration's
            self.parts = sd.register(self.a, 1, min(reads))

    def status(self, cell: Ball, ctx: dict, live: Sequence["WitnessAtom"]) -> tuple:
        """(is_in, survivors) of the live members of a label on the cell
        (``_decide``): IN at the first member IN, else the UNKNOWN ones."""
        hit, rest = _decide(MapCellData.of(self.sd, cell, ctx), live)
        return hit is not None, rest

    def _grad_status(self, data: MapCellData) -> int:
        """Status of the gradient conditions, per partial d_j of a.f
        (+theta) with variation q^var: ||grad|| >= q^L is IN when some d_j
        has a nonzero digit at a degree >= max(var + 1, ceil L), and
        otherwise UNKNOWN when some var >= ceil L; ||grad|| <= q^tau is OUT
        when some d_j has a nonzero digit at a degree > max(tau, var), and
        otherwise UNKNOWN when some var > tau."""
        rows = [data.packed_sum(self.parts, row) for row in range(1, len(self.sd.rows))]
        top = self.sd.top_digit
        out = IN
        lower, tau = self.lower_deg, self.grad_upper_tau
        if lower is not None and all(top(val, max(var + 1, lower), prec, 1) is None
                                     for val, var, prec in rows):
            if all(var < lower for _, var, _ in rows):
                return OUT
            out = UNKNOWN
        if tau is not None:
            if any(top(val, max(var, tau) + 1, prec, 1) is not None for val, var, prec in rows):
                return OUT
            if any(var > tau for _, var, _ in rows):
                out = UNKNOWN
        return out


def _decide(data: MapCellData, live: Sequence[WitnessAtom]) -> tuple:
    """(the first member IN on the cell or None, the members UNKNOWN there)
    of witness atoms read in order.  A member is OUT when a digit of its
    packed sum from max(tau, var) + 1 to -1 is nonzero mod p (with one-byte
    slots, a byte left once the multiples of p are deleted) or a gradient
    condition fails; PrecisionError as in ``top_digit``."""
    rest, packed, sd = [], data.packed[0], data.sd
    for atom in live:
        s = IN
        tau = atom.tau
        if tau < -1:  # else |{z}| <= 1/q <= q^tau always
            val, var, prec = 0, _NEG_INF, _NEG_INF
            for pid in atom.parts:
                pv, pvar, pprec = packed.get(pid) or data._part(pid, 0)
                val += pv
                if pvar > var:
                    var = pvar
                if pprec > prec:
                    prec = pprec
            if var <= -1:
                if prec > -1:
                    raise PrecisionError("window does not reach degree -1")
                deg = (tau if tau >= var else var) + 1
                start = deg if deg >= prec else prec
                _, sb, lay = sd.slots
                w = val >> (start - sd.bases[0]) * sb & (1 << -start * sb) - 1
                if w and (lay._mod(w, lay.sb) if lay.sb > 1 else
                          w.to_bytes(-start * sb >> 3, "little").translate(None, lay.zeros)):
                    continue
                if start > deg:
                    raise PrecisionError("digits indistinguishable from 0")
            if var > tau:
                s = UNKNOWN
        if atom.lower_deg is not None or atom.grad_upper_tau is not None:
            g = atom._grad_status(data)
            if g == OUT:
                continue
            if g == UNKNOWN:
                s = UNKNOWN
        if s == IN:
            return atom, ()
        rest.append(atom)
    return None, tuple(rest)


def orbit_firsts(m: AnalyticMap, vectors) -> Iterator:
    """The a of ``vectors`` a sweep of m evaluates: every a with theta, else
    (c.a for c in F_q^* has a nonzero digit where a has one) the a with a
    monic first nonzero coordinate, its orbit's first in encoding order."""
    return (a for a in vectors
            if m.theta is not None or next((ai.coeffs[-1] for ai in a if ai.coeffs), 1) == 1)


# ---------------------------------------------------------------------------
# exact measures of the headline sets
# ---------------------------------------------------------------------------

@dataclass
class SweepReport:
    """Union measure plus per-shell tallies for a shell-range sweep; the
    union is labelled by shell, so every sub-range reads off it."""

    union: MeasureResult
    per_shell: dict[int, MeasureResult]
    domain_measure: Fraction

    @property
    def certified(self) -> bool:
        return self.union.certified and all(r.certified for r in self.per_shell.values())

    def interval(self, lo: int, hi: int) -> MeasureResult:
        """The union over the shells lo..hi, from the same sweep."""
        return self.union.restrict(range(lo, hi + 1))


def _witness_depth(grid: GridSpec, shells: Sequence[int], taus: Sequence[int]) -> int:
    """Depth at which every (a, cell) pair is decidable: variation below
    min(1/q, threshold) for the largest shell."""
    worst = max((t - min(tau, -1) for t, tau in zip(shells, taus)), default=0)
    return max(grid.N, grid.resolved_domain.radius_exp + worst + 1)


def measure_W(
    m: AnalyticMap,
    psi: ApproxFn,
    t0: int,
    t1: int,
    grid: GridSpec,
) -> SweepReport:
    """Exact measure of {x : some a with ||a|| in [q^t0, q^t1] has a witness}.

    One sweep with the atoms labelled by shell gives the union measure, the
    per-shell hit measures and the union over every sub-range of shells.
    """
    if t0 > t1:
        raise ValueError("need t0 <= t1")
    shells = list(range(t0, t1 + 1))
    exps = [psi.exp_at_shell(t) for t in shells]
    taus = [None if e is None else strict_below(e) for e in exps]
    live = [(t, tau) for t, tau in zip(shells, taus) if tau is not None]
    depth = _witness_depth(grid, [t for t, _ in live], [tau for _, tau in live])
    dom = grid.resolved_domain
    sd = SweepData(m, dom)
    atoms: list = []
    labels: list[int] = []
    for t, tau in live:  # a shell with tau >= -1 holds every point
        shell = orbit_firsts(m, enumerate_shell(m.spec, m.n, t)) if tau < -1 else ()
        shell_atoms = [WitnessAtom(sd, a, tau) for a in shell] or [TrueAtom()]
        atoms.extend(shell_atoms)
        labels.extend([t] * len(shell_atoms))
    union = measure_union(atoms, dom, depth, labels)
    per_shell = {t: union.restrict([t]) for t in shells}
    return SweepReport(union=union, per_shell=per_shell, domain_measure=dom.measure())


def enumerate_exact_degrees(spec: FieldSpec, tvec: Sequence[int]) -> Iterator[tuple[Poly, ...]]:
    """All a with |a_i| = q^{t_i} exactly for every i."""
    opts = []
    for t in tvec:
        polys = [
            Poly(spec, list(lo) + [lead])
            for lead in range(1, spec.q)
            for lo in itertools.product(range(spec.q), repeat=t)
        ]
        opts.append(polys)
    return itertools.product(*opts)


def measure_bigA(
    m: AnalyticMap,
    delta_exps: Sequence[int],
    tvecs: Sequence[Sequence[int]],
    eps: Fraction,
    grid: GridSpec,
    max_depth: Optional[int] = None,
) -> list[tuple[MeasureResult, Fraction]]:
    """Exact measures of the big-gradient sets A(delta) (A_theta when the
    map has a theta) over the given coordinate-degree vectors, one per
    delta = q^delta_exp, each with its ratio measure/(delta |U|).

    Per a with |a_i| = q^{t_i}: |f.a + theta + a_0| < delta q^{-sum t_i}
    and ||grad(f.a + theta)|| >= ||a||^{1-eps}.  One sweep with the atoms
    labelled by delta, to the depth the smallest delta needs, gives every
    set.
    """
    eps = Fraction(eps)
    if not (0 < eps < Fraction(1, 2)):
        raise ValueError("need 0 < eps < 1/2")
    dom = grid.resolved_domain
    sd = SweepData(m, dom)
    boxes = [(max(tvec), sum(tvec), list(orbit_firsts(m, enumerate_exact_degrees(m.spec, tvec))))
             for tvec in tvecs]
    atoms, labels, tmaxes, taus = [], [], [], []
    for de in delta_exps:
        for tmax, tsum, box in boxes:
            tau = strict_below(de - tsum)
            tmaxes.append(tmax)
            taus.append(tau)
            glower = Fraction(tmax) * (1 - eps)
            atoms += [WitnessAtom(sd, a, tau, grad_lower=glower) for a in box]
            labels += [de] * len(box)
    depth = max_depth if max_depth is not None else _witness_depth(grid, tmaxes, taus)
    union = measure_union(atoms, dom, depth, labels)
    out = []
    for de in delta_exps:
        res = union.restrict([de])
        out.append((res, res.included / (Fraction(m.spec.q) ** de * dom.measure())))
    return out


def smallgrad_atoms(sd: SweepData, bounds: Sequence[int], tau_val: int, tau_grad: int) -> list:
    """Atoms of a small-gradient box: per nonzero a with deg a_i <=
    bounds[i] (one per F_q^*-orbit without theta), |f.a + a_0| <= q^tau_val
    and ||grad(f.a)|| <= q^tau_grad."""
    return [WitnessAtom(sd, a, tau_val, grad_upper_tau=tau_grad)
            for a in orbit_firsts(sd.m, enumerate_box(sd.m.spec, bounds))
            if not all(p.is_zero for p in a)]


def measure_smallgrad_S(
    m: AnalyticMap,
    t: int,
    t_prime: int,
    tvec: Sequence[int],
    B: Ball,
    max_depth: Optional[int] = None,
) -> tuple[MeasureResult, Fraction]:
    """Exact measure of S(t,t',t_1..t_n) ∩ B and the theorem's epsilon.

    Hypotheses: t >= 0, t_i >= 1, t' + sum t_i - t - max t_i < 0.
    """
    tvec = tuple(tvec)
    n = len(tvec)
    gap = t_prime + sum(tvec) - t - max(tvec)
    if t < 0 or any(ti < 1 for ti in tvec) or gap >= 0:
        raise ValueError("small-gradient hypotheses violated")
    eps_theory = max(Fraction(-t), Fraction(gap, n + 1))
    atoms = smallgrad_atoms(SweepData(m.homogeneous, B), [ti - 1 for ti in tvec],
                            strict_below(-t), strict_below(t_prime))
    depth = max_depth if max_depth is not None else B.radius_exp + max(tvec) + t + 2
    res = measure_union(atoms, B, depth)
    return res, eps_theory


def in_smallgrad_S_point(
    m: AnalyticMap, x: Sequence[Laurent], t: int, t_prime: int, tvec: Sequence[int]
) -> bool:
    """Pointwise membership in S(t,t',t_i): exhaustive over the a-box."""
    fx = m.eval(x)
    dfx = [[g.eval(x) for g in row[:-1]] for row in m.partials]
    zero = Laurent.zero(m.spec)
    for a in enumerate_box(m.spec, [ti - 1 for ti in tvec]):
        if all(p.is_zero for p in a):
            continue
        e = frac_exp(lin_comb(zero, a, fx))
        if e is not None and e >= -t:
            continue
        exps = (lin_comb(zero, a, row).abs_exp() for row in dfx)
        if all(ge is None or ge < t_prime for ge in exps):
            return True
    return False


def measure_phi_f(
    m: AnalyticMap,
    t: int,
    delta_exp: int,
    B: Ball,
) -> MeasureResult:
    """Exact measure of Phi^f(t, delta) ∩ B: some ||a|| = q^t with
    |f(x).a + a_0| < delta q^{-nt}, the homogeneous W-set on shell t for
    Psi(a) = delta ||a||^-n."""
    if t < 1 or delta_exp >= 0:
        raise ValueError("need t >= 1 and 0 < delta < 1")
    psi = ApproxFn.power_law(m.n, delta_exp)
    return measure_W(m.homogeneous, psi, t, t, GridSpec(m.spec, m.d, B.radius_exp, B)).union


def in_phi_f_point(m: AnalyticMap, x: Sequence[Laurent], t: int, delta_exp: int) -> bool:
    """Pointwise membership in Phi^f(t, delta)."""
    return find_witness(m.homogeneous, x, ApproxFn.power_law(m.n, delta_exp), t) is not None


# ---------------------------------------------------------------------------
# transference sets I_t / H_t
# ---------------------------------------------------------------------------

def in_I_t(
    m: AnalyticMap,
    x: Sequence[Laurent],
    alpha: tuple[Poly, Sequence[Poly]],
    tvec: Sequence[int],
    lam_exp: Fraction,
    eps: Fraction,
) -> bool:
    """x in I_t(alpha, lambda): inhomogeneous system with max{1,|a_i|} <= q^{t_i}."""
    a0, a = alpha
    if a0.is_zero and all(p.is_zero for p in a):
        raise ValueError("alpha = 0 is excluded from the index set")
    if any(not p.is_zero and p.deg > ti for p, ti in zip(a, tvec)):
        return False
    lam_exp = Fraction(lam_exp)
    val = lin_comb(m.eval_theta(x), a, m.eval(x)) + a0.to_laurent()
    e = val.abs_exp()
    if e is not None and Fraction(e) >= lam_exp + psi0_exp(tvec):
        return False
    ge = grad_exp(m, a, x)
    return ge is None or Fraction(ge) < lam_exp + max(tvec) * (1 - Fraction(eps))


def in_H_t(
    m: AnalyticMap,
    x: Sequence[Laurent],
    alpha: tuple[Poly, Sequence[Poly]],
    tvec: Sequence[int],
    lam_exp: Fraction,
    eps: Fraction,
) -> bool:
    """x in H_t(alpha, lambda): I_t of the map without theta."""
    return in_I_t(m.homogeneous, x, alpha, tvec, lam_exp, eps)


def phi_delta_exp(delta: Fraction, tvec: Sequence[int]) -> Fraction:
    """Exponent of phi_delta(t) = q^{delta |t|}, |t| = max t_i."""
    return Fraction(delta) * max(tvec)


# the gradient-split parameter of classify_gradient (any 0 < eps < 1/2 works)
GRAD_EPS_DEFAULT = Fraction(1, 4)


def classify_gradient(
    m: AnalyticMap,
    a: Sequence[Poly],
    x: Sequence[Laurent],
) -> str:
    """'large' iff ||grad(f.a + theta)(x)|| >= ||a||^(1 - eps) with eps =
    GRAD_EPS_DEFAULT, else 'small'."""
    t = max((p.deg for p in a if not p.is_zero), default=None)
    if t is None:
        raise ValueError("the split needs a nonzero a")
    ge = grad_exp(m, a, x)
    if ge is None:
        return "small"
    return "large" if Fraction(ge) >= Fraction(t) * (1 - GRAD_EPS_DEFAULT) else "small"
