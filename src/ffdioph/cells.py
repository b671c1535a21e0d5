"""The cell engine: labelled cell sweeps (``measure_union``), the packed
evaluation of a sweep's polynomials at cell centers (``SweepData``,
``MapCellData``) that every cell condition reads, and the decision of a
witness label's members at once, as lanes of one integer (``decide``).
The one module that reads the digit layout: the others ask for packed
sums and their digits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .errors import PrecisionError
from .ffield import Ball, Laurent, Poly
from .ultracalc import AnalyticMap, VarTable

IN, OUT, UNKNOWN = 1, 0, -1


@dataclass
class MeasureResult:
    """Exact outcome of a cell sweep: included mass plus undecided slack.

    ``leaves`` maps (labels IN, labels undecided) to the mass of the sweep's
    leaves with those label sets; ``restrict`` reads off the union over any
    set of labels.
    """

    included: Fraction
    undecided: Fraction
    q: int
    d: int
    max_depth: int
    leaves: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def from_leaves(cls, leaves: dict, q: int, d: int, max_depth: int) -> "MeasureResult":
        included = undecided = Fraction(0)
        for (ins, und), mass in leaves.items():
            if ins:
                included += mass
            elif und:
                undecided += mass
        return cls(included, undecided, q, d, max_depth, leaves)

    def restrict(self, labels) -> "MeasureResult":
        """The union over the atoms whose label lies in ``labels``: a leaf
        counts as included when one of them is IN there, else as undecided
        when one of them is undecided there."""
        keep = frozenset(labels)
        leaves: dict = {}
        for (ins, und), mass in self.leaves.items():
            key = (ins & keep, und & keep)
            if key[0] or key[1]:
                leaves[key] = leaves.get(key, 0) + mass
        return MeasureResult.from_leaves(leaves, self.q, self.d, self.max_depth)

    @property
    def certified(self) -> bool:
        return self.undecided == 0

    @property
    def measure(self) -> Fraction:
        return self.included


def measure_union(atoms: Sequence, domain: Ball, max_depth: int,
                  labels: Optional[Sequence] = None) -> MeasureResult:
    """Exact Haar measure of the union of the atoms' satisfaction sets.

    An atom is IN on a cell when every point satisfies it, OUT when none
    does.  ``labels`` (one per atom; by default all share one) groups the
    atoms, and a label is decided on a cell by one call group.status(cell,
    ctx, live) -> (is_in, survivors) over its atoms still UNKNOWN there: IN
    as soon as one is IN, its other atoms then evaluated neither there nor
    below.  The group (``_group``) is the label's first atom when that
    decides labels (its class sets ``decides_labels``; the label's atoms are
    then of its kind, or it is alone), else an ``AtomGroup``.  ``ctx`` is a
    fresh dict per cell, shared by the groups for caching.

    A cell is split while some label has survivors and is not IN; cells
    undecided at max_depth are tallied separately, never guessed.  Each leaf
    is tallied under its (labels IN, labels undecided), so one sweep yields
    the union over every label set (``MeasureResult.restrict``).
    """
    groups: dict = {}
    for a, lab in zip(atoms, [None] * len(atoms) if labels is None else labels):
        groups.setdefault(lab, []).append(a)
    names = list(groups)  # label k is bit k of the tallies' label sets
    counts: dict = {}  # (labels IN, labels undecided, radius_exp) -> leaf cells
    stack = [(domain, 0, tuple((1 << k, _group(g), tuple(g))
                               for k, g in enumerate(groups.values())))]
    while stack:
        cell, ins, live = stack.pop()
        ctx: dict = {}
        survivors = []
        for bit, group, members in live:
            is_in, rest = group.status(cell, ctx, members)
            if is_in:
                ins |= bit
            elif rest:
                survivors.append((bit, group, rest))
        if not survivors:
            if ins:
                key = (ins, 0, cell.radius_exp)
                counts[key] = counts.get(key, 0) + 1
        elif cell.radius_exp < max_depth:
            survivors = tuple(survivors)
            for child in cell.subdivide():
                stack.append((child, ins, survivors))
        else:
            key = (ins, sum(bit for bit, _, _ in survivors), cell.radius_exp)
            counts[key] = counts.get(key, 0) + 1

    def label_set(bits: int) -> frozenset:
        return frozenset(lab for k, lab in enumerate(names) if bits >> k & 1)

    leaves: dict = {}
    for (ins, und, r), n in counts.items():
        key = (label_set(ins), label_set(und))
        leaves[key] = leaves.get(key, 0) + n * Ball(domain.center, r).measure()
    return MeasureResult.from_leaves(leaves, domain.spec.q, domain.d, max_depth)


def _group(members: list):
    """The group of one label's atoms (see ``measure_union``)."""
    first = members[0]
    return first if getattr(first, "decides_labels", False) else AtomGroup()


class AtomGroup:
    """A label decided by one status(cell, ctx) call per live atom."""

    def status(self, cell: Ball, ctx: dict, live: Sequence) -> tuple:
        rest = []
        for a in live:
            s = a.status(cell, ctx)
            if s == IN:
                return True, ()
            if s == UNKNOWN:
                rest.append(a)
        return False, tuple(rest)


# the exponent of |0| (a zero variation) and the knowledge horizon of an exact
# value: below every integer, so comparisons need no None checks
_NEG_INF = float("-inf")


class SweepData:
    """Per-sweep data for one map (goodfn's polynomials are the components
    of a map without theta).  Row 0 is f_1..f_n and theta (zero when the
    map has none), row 1+j their partials d_j, added when first needed
    (``_gradient_rows``); every polynomial of a row has a VarTable over
    the sweep domain, built when the row is first read (``row_tables``).
    The sweep measures a.f + theta when the map has a theta and a.f when
    it has none: a homogeneous sweep of a map with theta takes
    ``m.homogeneous``.

    The atoms of the sweep register the parts of the functions they read:
    a_i * f_i for each nonzero a_i, and theta (part key (n, (1,))) when the
    map has one; a part is the same in every row.  Row 0 is of
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
        self.rows = [list(m.components) + [m.theta_or_zero]]
        self.tables: list = [None]
        self.part_ids: dict = {}   # (i, coefficients of a_i) -> part id
        self.parts: list = []      # part id -> its key, a _layout_part once slots are fixed
        self.jmax = 0              # largest deg a_i of a part
        self.floors: list = [None, None]  # per kind: lowest degree an atom reads
        self.bases: list = [None, None]   # per kind: lowest column degree
        self.slots = None
        self.shapes = [_shapes(self.rows[0])]
        self.widths: dict = {}     # digit spans of a center's coordinates -> slot bytes
        self.layouts: dict = {}    # slot bytes -> _CenterLayout

    def _gradient_rows(self) -> None:
        """Add the gradient rows and their shapes, on the first kind-1
        registration or read of a gradient row's tables; a layout made
        before them has no programs for them, so that raises ValueError."""
        if len(self.rows) == 1:
            if self.layouts:
                raise ValueError("the gradient rows come after a layout is made")
            self.rows += [list(r) for r in self.m.partials]
            self.tables += [None] * self.m.d
            self.shapes += [_shapes(row) for row in self.rows[1:]]

    def register(self, a: Sequence[Poly], kind: int, floor: int) -> tuple[int, ...]:
        """Part ids of a.f (+ theta) for an atom that reads the digits of the
        rows of ``kind`` from degree ``floor`` up; the ids are the same for
        every kind."""
        if kind == 1:
            self._gradient_rows()
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
        if row:
            self._gradient_rows()
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


def _shapes(row: list) -> list:
    """Per polynomial of a row, (``_coeff_span``, ``_exponents``) of each
    monomial."""
    return [[(_coeff_span(c), _exponents(mono)) for mono, c in g.terms.items()] for g in row]


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
    these columns: ``dioph.WitnessAtom``, ``goodfn.PolyAbsAtom`` and
    ``ubiq.ResonantDistAtom``.

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
        rows = 1 + sd.m.d
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


def _decide(data: MapCellData, live: Sequence) -> tuple:
    """(the first member IN on the cell or None, the members UNKNOWN there)
    of the ``dioph.WitnessAtom`` members of a label, read in order.  A
    member is OUT when a digit of its packed sum from max(tau, var) + 1 to
    -1 is nonzero mod p (with one-byte slots, a byte left once the
    multiples of p are deleted) or a gradient condition fails;
    PrecisionError as in ``top_digit``.  A condition IN on a cell is IN on
    every subcell, with no PrecisionError (``dioph.WitnessAtom``): a member
    UNKNOWN with its value condition IN, or with its gradient conditions
    IN, survives as its ``narrowed`` form without them, so the subcells
    never read them again, and a label whose survivors are all values only
    goes to the lanes."""
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
            if g == IN:
                if s == IN:
                    return atom, ()
                atom = atom.narrowed(False)
            elif s == IN and tau < -1:
                atom = atom.narrowed(True)
        elif s == IN:
            return atom, ()
        rest.append(atom)
    return None, tuple(rest)


# a label of at least this many live members, none with a gradient
# condition, is decided in lanes; a smaller one by the member loop
LANES_MIN = 9


def decide(data: MapCellData, live) -> tuple:
    """(the first member IN on the cell or None, the members UNKNOWN there)
    of the live ``dioph.WitnessAtom`` members of a label: in lanes when
    ``in_lanes`` puts them there, else by the member loop ``_decide``.  The
    survivors are a ``_Live`` while lanes decide them, else a tuple."""
    if type(live) is not _Live and len(live) >= LANES_MIN:
        live = in_lanes(data.sd, live)
    if type(live) is _Live:
        return live.lanes.decide(data, live.bits)
    return _decide(data, live)


def in_lanes(sd: SweepData, members: Sequence):
    """The members of a label as ``decide`` reads them: all of them in
    lanes (a ``_Live``) when there are ``LANES_MIN`` or more, all on sd,
    none with a gradient condition or tau >= -1, and the slots are one
    byte wide; else the members themselves.  Fixes sd's row-0 window."""
    if len(members) < LANES_MIN or not all(
            a.sd is sd and a.tau < -1 and a.lower_deg is None and a.grad_upper_tau is None
            for a in members):
        return members
    sd.fix(0)
    if sd.slots[0] != 8:
        return members
    lanes = _Lanes.build(sd, tuple(members))
    return _Live(lanes, lanes.top)


class _Live:
    """Survivors in lanes: the lanes and the guard bits of the live ones;
    iterating gives the members in order."""

    __slots__ = ("lanes", "bits")

    def __init__(self, lanes: "_Lanes", bits: int):
        self.lanes, self.bits = lanes, bits

    def __iter__(self):
        return (self.lanes.atoms[k] for k in self.lanes.indices(self.bits))


class _Lanes:
    """The members of a label as lanes of one packed integer.

    Lane k, W = (jmax - base) s b + 8 bits from bit k W, holds member k's
    packed sum from degree base to jmax - 1: a label keeps one multiplier
    per (coordinate i, basis power e), the members' alpha_{j,e} X^j in
    their lanes, so the sum over (i, e) of column e of g_i, cut to the
    degrees < 0, times its multiplier is every member's sum at once (no
    slot carries, as in ``SweepData``), and one ``bytes.translate`` takes
    every slot mod p.  The top byte of a lane is a zero guard: with the
    lanes cut to their windows [max(tau, var) + 1, -1], adding 2^(W-8) - 1
    to each sets the guard bit exactly of the lanes with a nonzero digit
    there.  A member's var and horizon depend on its degree class (its
    (i, deg a_i) list and tau) and on the variations and horizons of the
    columns, so the windows and outcomes are built once per class and per
    such signature (``_masks``).

    The lowest lane IN, or raising PrecisionError as the loop would, gives
    the answer; the survivors are their guard bits, compacted by bytes
    slicing to new lanes once fewer than a quarter of the lanes live."""

    __slots__ = ("sd", "atoms", "W", "mults", "classes", "lane_class", "nbytes", "inds",
                 "low", "top", "cut", "table", "masks")

    def __init__(self, sd: SweepData, atoms: tuple, W: int, mults: list, classes: list,
                 lane_class: list):
        self.sd, self.atoms, self.W, self.mults = sd, atoms, W, mults
        self.classes, self.lane_class = classes, lane_class
        wb = W >> 3
        self.nbytes = len(atoms) * wb
        inds: dict = {}  # class -> a 1 at the lowest bit of each of its lanes
        for k, c in enumerate(lane_class):
            inds.setdefault(c, bytearray(self.nbytes))[k * wb] = 1
        self.inds = {c: int.from_bytes(ind, "little") for c, ind in inds.items()}
        ones = int.from_bytes((b"\1" + bytes(wb - 1)) * len(atoms), "little")
        self.low = ones * ((1 << W - 8) - 1)
        self.top = ones << W - 8
        self.cut = (1 << -sd.bases[0] * sd.slots[1]) - 1
        self.table = sd.slots[2].table  # each byte mod p
        self.masks: dict = {}

    @classmethod
    def build(cls, sd: SweepData, atoms: tuple) -> "_Lanes":
        W = (sd.jmax - sd.bases[0]) * sd.slots[1] + 8
        wb = W >> 3
        per: dict = {}      # (i, e) -> the members' multipliers
        classes: dict = {}  # degree class -> its index
        lane_class = []
        for k, atom in enumerate(atoms):
            key = []
            for pid in atom.parts:
                i, deg, mults = sd.parts[pid]
                key.append((i, deg))
                for e, m in mults:
                    per.setdefault((i, e), [0] * len(atoms))[k] = m
            lane_class.append(classes.setdefault((tuple(key), atom.tau), len(classes)))
        mults = [(i, e, int.from_bytes(b"".join(m.to_bytes(wb, "little") for m in ms), "little"))
                 for (i, e), ms in per.items()]
        return cls(sd, atoms, W, mults, list(classes), lane_class)

    def decide(self, data: MapCellData, bits: int) -> tuple:
        """``decide`` for the live lanes ``bits`` (their guard bits)."""
        cols = data.cols[0] or data._columns(0)
        sig = tuple((var, prec) for _, var, prec in cols)
        window, zin, zunk, zraise, araise, aunk = self.masks.get(sig) or self._masks(sig)
        cut, v = self.cut, 0
        for i, e, m in self.mults:
            c = cols[i][0][e] & cut
            if c:
                v += c * m
        v = int.from_bytes(v.to_bytes(self.nbytes, "little").translate(self.table), "little")
        zero = ~(((v & window) + self.low) & self.top)
        ins = zin & zero & bits
        raises = (zraise & zero | araise) & bits
        first = ins | raises
        if first:
            first &= -first
            if first & raises:
                raise PrecisionError("window does not reach degree -1" if first & araise
                                     else "digits indistinguishable from 0")
            return self.atoms[(first.bit_length() - 1) // self.W], ()
        rest = (zunk & zero | aunk) & bits
        k = rest.bit_count()
        if k >= LANES_MIN and 4 * k >= len(self.atoms):
            return None, _Live(self, rest)
        lanes = self.indices(rest)
        if k < LANES_MIN:
            return None, tuple(self.atoms[j] for j in lanes)
        kept = self._compact(lanes)
        return None, _Live(kept, kept.top)

    def indices(self, bits: int) -> list:
        """The lanes whose guard bit is set in ``bits``, in order."""
        wb = self.W >> 3
        flags = bits.to_bytes(self.nbytes, "little")[wb - 1::wb]
        out, k = [], flags.find(1)
        while k >= 0:
            out.append(k)
            k = flags.find(1, k + 1)
        return out

    def _compact(self, lanes: list) -> "_Lanes":
        """New lanes of the given lanes' members, in order."""
        wb = self.W >> 3

        def keep(v: int) -> int:
            bs = v.to_bytes(self.nbytes, "little")
            return int.from_bytes(b"".join(bs[k * wb:k * wb + wb] for k in lanes), "little")

        return _Lanes(self.sd, tuple(self.atoms[k] for k in lanes), self.W,
                      [(i, e, keep(m)) for i, e, m in self.mults], self.classes,
                      [self.lane_class[k] for k in lanes])

    def _masks(self, sig: tuple) -> tuple:
        """(window, then the guard bits of the lanes IN, UNKNOWN and raising
        when their window is 0, raising and UNKNOWN whatever it holds) for
        columns of the variations and horizons sig, as in ``_decide``."""
        base, sb = self.sd.bases[0], self.sd.slots[1]
        window = zin = zunk = zraise = araise = aunk = 0
        for c, ind in self.inds.items():
            key, tau = self.classes[c]
            var = max(sig[i][0] + deg for i, deg in key)
            prec = max(sig[i][1] + deg for i, deg in key)
            if var > -1:
                aunk |= ind
            elif prec > -1:
                araise |= ind
            else:
                deg = (tau if tau >= var else var) + 1
                start = deg if deg >= prec else prec
                if start < 0:
                    window |= ind * (((1 << -start * sb) - 1) << (start - base) * sb)
                if start > deg:
                    zraise |= ind
                elif var > tau:
                    zunk |= ind
                else:
                    zin |= ind
        g = self.W - 8
        got = self.masks[sig] = (window, zin << g, zunk << g, zraise << g, araise << g, aunk << g)
        return got
