"""Exact arithmetic in F_q, Lambda = F_q[X] and truncated Laurent series in 1/X.

The completion of F_q(X) at the degree valuation is the field of Laurent
series in X^-1.  Elements carry an exact leading degree (valuation) and an
explicit knowledge horizon, so every absolute value produced by this module
is either exact or an error; approximate valuations are never returned
silently.

Also provides ultrametric balls in F^d, the exact partition of a ball into
q^(d(N-r)) cells at resolution N, and shell enumeration of polynomial
vectors of prescribed sup norm.  Measures are kept as exact fractions with
power-of-q denominators; no floating point enters any measure.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from typing import Iterator, Optional, Sequence

from .errors import FieldMismatchError, PrecisionError

# Window length used when inverting an exact non-monomial value and no
# target precision was requested.
DEFAULT_INV_TERMS = 24


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def _poly_divides(p: int, div: Sequence[int], mod: Sequence[int]) -> bool:
    """Does div divide mod over F_p?  Both ascending coefficient lists."""
    rem = list(mod)
    dd = len(div) - 1
    inv_lead = pow(div[-1], p - 2, p)
    while len(rem) - 1 >= dd and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < dd:
            break
        f = rem[-1] * inv_lead % p
        shift = len(rem) - 1 - dd
        for i, c in enumerate(div):
            rem[shift + i] = (rem[shift + i] - f * c) % p
    return not any(rem)


def _irreducible(p: int, mod: Sequence[int]) -> bool:
    """Trial division by every monic polynomial of degree <= deg(mod)/2."""
    b = len(mod) - 1
    for deg in range(1, b // 2 + 1):
        for enc in range(p**deg):
            div = [enc // p**i % p for i in range(deg)] + [1]
            if _poly_divides(p, div, mod):
                return False
    return True


class FieldSpec:
    """A finite field F_q with q = p^b, acting on canonically encoded ints.

    Elements are integers in [0, q).  For b = 1 the integer is the residue
    mod p; for b > 1 its base-p digits are the coefficients of the residue
    polynomial mod the given irreducible modulus (constant digit first).
    """

    __slots__ = ("p", "b", "q", "modulus", "_inv_table", "_mul_table")

    def __init__(self, p: int, b: int = 1, modulus: Optional[Sequence[int]] = None):
        if not _is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if b < 1:
            raise ValueError("extension exponent must be >= 1")
        self.p = p
        self.b = b
        self.q = p**b
        if b == 1:
            if modulus is not None:
                raise ValueError("prime fields take no modulus")
            self.modulus = None
        else:
            if modulus is None:
                raise ValueError("extension fields require an irreducible modulus")
            mod = tuple(int(c) % p for c in modulus)
            if len(mod) != b + 1 or mod[-1] == 0:
                raise ValueError(f"modulus must have degree {b}")
            self.modulus = mod
            if not _irreducible(p, mod):
                raise ValueError("modulus is reducible")
        self._mul_table = None
        self._inv_table = None
        if self.q <= 64 and b > 1:
            self._build_tables()

    @classmethod
    def from_order(cls, q: int) -> "FieldSpec":
        """F_q for a prime power q = p^b.  For b > 1 the modulus is the
        smallest irreducible monic one of degree b, ordered by the integer
        encoding of its lower coefficients (constant digit first)."""
        p = next((k for k in range(2, q + 1) if q % k == 0), None)
        b, rest = 0, q
        while p is not None and rest % p == 0:
            rest //= p
            b += 1
        if p is None or rest != 1:
            raise ValueError(f"field order {q} is not a prime power")
        if b == 1:
            return cls(p)
        for enc in range(p**b):
            mod = [enc // p**i % p for i in range(b)] + [1]
            if _irreducible(p, mod):
                return cls(p, b, mod)
        raise AssertionError("every degree has an irreducible polynomial")

    # -- encoding helpers ------------------------------------------------

    def _digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.b):
            out.append(a % self.p)
            a //= self.p
        return out

    def _encode(self, digits: Sequence[int]) -> int:
        a = 0
        for c in reversed(digits):
            a = a * self.p + (c % self.p)
        return a

    def _build_tables(self) -> None:
        q = self.q
        self._mul_table = [[self._mul_slow(a, b) for b in range(q)] for a in range(q)]
        self._inv_table = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if self._mul_table[a][b] == 1:
                    self._inv_table[a] = b
                    break

    # -- arithmetic ------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.b == 1:
            return (a + b) % self.p
        da, db = self._digits(a), self._digits(b)
        return self._encode([(x + y) % self.p for x, y in zip(da, db)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        if self.b == 1:
            return (-a) % self.p
        return self._encode([(-c) % self.p for c in self._digits(a)])

    def _mul_slow(self, a: int, b: int) -> int:
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * self.b - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % self.p
        # reduce mod modulus
        inv_lead = pow(self.modulus[-1], self.p - 2, self.p)
        for k in range(len(prod) - 1, self.b - 1, -1):
            c = prod[k]
            if c:
                f = c * inv_lead % self.p
                for i, m in enumerate(self.modulus):
                    prod[k - self.b + i] = (prod[k - self.b + i] - f * m) % self.p
        return self._encode(prod[: self.b])

    def mul(self, a: int, b: int) -> int:
        if self.b == 1:
            return (a * b) % self.p
        if self._mul_table is not None:
            return self._mul_table[a][b]
        return self._mul_slow(a, b)

    def inv(self, a: int) -> int:
        if a % self.q == 0:
            raise ZeroDivisionError("inversion of zero field element")
        if self.b == 1:
            return pow(a, self.p - 2, self.p)
        if self._inv_table is not None:
            return self._inv_table[a]
        return self.power(a, self.q - 2)

    def power(self, a: int, e: int) -> int:
        acc, base = 1, a
        while e:
            if e & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            e >>= 1
        return acc

    def elements(self) -> range:
        return range(self.q)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldSpec)
            and self.p == other.p
            and self.b == other.b
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.p, self.b, self.modulus))

    def __repr__(self) -> str:
        if self.b == 1:
            return f"FieldSpec(p={self.p})"
        return f"FieldSpec(p={self.p}, b={self.b}, modulus={self.modulus})"


def _check_same_spec(a, b) -> None:
    if a.spec is b.spec:
        return
    if a.spec != b.spec:
        raise FieldMismatchError(f"field mismatch: {a.spec} vs {b.spec}")


@total_ordering
class AbsValue:
    """An absolute value q^e, or 0.  Ordered, multiplicative, exponent exact.

    The exponent may be a Fraction: thresholds such as ||a||^(1-eps) with
    rational eps occur throughout and are compared exactly.
    """

    __slots__ = ("exp",)

    def __init__(self, exp):
        self.exp = exp if exp is None else Fraction(exp)

    @classmethod
    def zero(cls) -> "AbsValue":
        return cls(None)

    @property
    def is_zero(self) -> bool:
        return self.exp is None

    def __eq__(self, other) -> bool:
        if not isinstance(other, AbsValue):
            return NotImplemented
        return self.exp == other.exp

    def __lt__(self, other) -> bool:
        if not isinstance(other, AbsValue):
            return NotImplemented
        if self.exp is None:
            return other.exp is not None
        if other.exp is None:
            return False
        return self.exp < other.exp

    def __hash__(self) -> int:
        return hash(self.exp)

    def __mul__(self, other: "AbsValue") -> "AbsValue":
        if self.exp is None or other.exp is None:
            return AbsValue.zero()
        return AbsValue(self.exp + other.exp)

    def __truediv__(self, other: "AbsValue") -> "AbsValue":
        if other.exp is None:
            raise ZeroDivisionError("division by zero absolute value")
        if self.exp is None:
            return AbsValue.zero()
        return AbsValue(self.exp - other.exp)

    def __pow__(self, e) -> "AbsValue":
        if self.exp is None:
            return AbsValue.zero()
        return AbsValue(self.exp * Fraction(e))

    def __repr__(self) -> str:
        return "|0|" if self.exp is None else f"q^{self.exp}"


def strict_below(e) -> int:
    """Largest integer exponent k with q^k < q^e, for exact rational e.

    The value group is discrete, so every strict threshold |z| < q^e
    normalizes to |z| <= q^k with k = strict_below(e).
    """
    f = Fraction(e)
    fl = math.floor(f)
    return fl - 1 if fl == f else fl


class Poly:
    """Dense polynomial over a FieldSpec; coefficients ascending, exact."""

    __slots__ = ("spec", "coeffs", "_laur")

    def __init__(self, spec: FieldSpec, coeffs: Sequence[int] = ()):
        self.spec = spec
        cs = [c % spec.q for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)
        self._laur = None

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, spec: FieldSpec) -> "Poly":
        return cls(spec)

    @classmethod
    def one(cls, spec: FieldSpec) -> "Poly":
        return cls(spec, (1,))

    @classmethod
    def const(cls, spec: FieldSpec, c: int) -> "Poly":
        return cls(spec, (c,))

    @classmethod
    def X(cls, spec: FieldSpec, k: int = 1) -> "Poly":
        return cls(spec, (0,) * k + (1,))

    @classmethod
    def from_encoding(cls, spec: FieldSpec, enc: int) -> "Poly":
        """Decode the canonical integer encoding sum(c_k q^k)."""
        cs = []
        while enc:
            cs.append(enc % spec.q)
            enc //= spec.q
        return cls(spec, cs)

    # -- structure -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def deg(self) -> Optional[int]:
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.spec == other.spec
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.spec, self.coeffs))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        _check_same_spec(self, other)
        K = self.spec
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        if K.b == 1:
            # prime field: plain integer sums, reduced mod p by the constructor
            for k, c in enumerate(b):
                out[k] += c
            return Poly(K, out)
        for k, c in enumerate(b):
            out[k] = K.add(out[k], c)
        return Poly(K, out)

    def __neg__(self) -> "Poly":
        K = self.spec
        if K.b == 1:
            return Poly(K, [-c for c in self.coeffs])
        return Poly(K, [K.neg(c) for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        _check_same_spec(self, other)
        K = self.spec
        if self.is_zero or other.is_zero:
            return Poly.zero(K)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        if K.b == 1:
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in enumerate(other.coeffs):
                        out[i + j] += a * b
            return Poly(K, out)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = K.add(out[i + j], K.mul(a, b))
        return Poly(K, out)

    def scale(self, c: int) -> "Poly":
        K = self.spec
        return Poly(K, [K.mul(c, x) for x in self.coeffs])

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        _check_same_spec(self, other)
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        K = self.spec
        rem = list(self.coeffs)
        dd = other.deg
        inv_lead = K.inv(other.coeffs[-1])
        quo = [0] * max(0, len(rem) - dd)
        while len(rem) - 1 >= dd and rem:
            if rem[-1] == 0:
                rem.pop()
                continue
            f = K.mul(rem[-1], inv_lead)
            shift = len(rem) - 1 - dd
            quo[shift] = f
            if K.b == 1:
                p = K.p
                for i, c in enumerate(other.coeffs):
                    rem[shift + i] = (rem[shift + i] - f * c) % p
            else:
                for i, c in enumerate(other.coeffs):
                    rem[shift + i] = K.sub(rem[shift + i], K.mul(f, c))
            rem.pop()
        return Poly(K, quo), Poly(K, rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        return self.scale(self.spec.inv(self.coeffs[-1]))

    def to_laurent(self) -> "Laurent":
        if self._laur is None:
            self._laur = Laurent(
                self.spec, [(k, c) for k, c in enumerate(self.coeffs) if c][::-1], None
            )
        return self._laur

    def __repr__(self) -> str:
        return f"Poly({format_terms(self)!r} mod {self.spec.q})"

    def __str__(self) -> str:
        return f"{format_terms(self)} (mod {self.spec.q})"


class Laurent:
    """A Laurent series in 1/X, tracked on an explicit coefficient window.

    ``terms`` holds the nonzero coefficients as (degree, coeff) pairs in
    descending degree order.  ``prec`` is the knowledge horizon: coefficients
    at degrees >= prec are exactly the listed ones; anything below prec is
    unknown.  ``prec is None`` means the value is exact (all omitted
    coefficients are provably zero).  Zero is the exact value with no terms.
    """

    __slots__ = ("spec", "terms", "prec")

    def __init__(self, spec: FieldSpec, terms: Sequence[tuple[int, int]] = (), prec: Optional[int] = None):
        self.spec = spec
        ts = sorted(((d, c % spec.q) for d, c in terms if c % spec.q), reverse=True)
        if prec is not None:
            ts = [(d, c) for d, c in ts if d >= prec]
        self.terms = tuple(ts)
        self.prec = prec

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, spec: FieldSpec) -> "Laurent":
        return cls._make(spec, (), None)

    @classmethod
    def one(cls, spec: FieldSpec) -> "Laurent":
        return cls(spec, [(0, 1)])

    @classmethod
    def const(cls, spec: FieldSpec, c: int) -> "Laurent":
        return cls(spec, [(0, c)])

    @classmethod
    def monomial(cls, spec: FieldSpec, c: int, deg: int) -> "Laurent":
        return cls(spec, [(deg, c)])

    @classmethod
    def X(cls, spec: FieldSpec, k: int = 1) -> "Laurent":
        return cls(spec, [(k, 1)])

    # -- structure -------------------------------------------------------

    @property
    def exact(self) -> bool:
        return self.prec is None

    @property
    def is_zero(self) -> bool:
        """True only for the exact zero."""
        return self.exact and not self.terms

    @property
    def maybe_zero(self) -> bool:
        """Window is empty but the value is not provably zero."""
        return not self.terms and not self.exact

    @property
    def top_deg(self) -> int:
        """The valuation degree k0.  Errors out on (possible) zero."""
        if self.terms:
            return self.terms[0][0]
        if self.exact:
            raise ValueError("zero has no degree")
        raise PrecisionError(
            f"value indistinguishable from 0 at precision q^{self.prec}"
        )

    @property
    def window_len(self) -> int:
        """Length N of the tracked window (>= 1 for displayable values)."""
        if self.terms:
            lo = self.prec if self.prec is not None else self.terms[-1][0]
            return self.terms[0][0] - lo + 1
        return 1

    def abs_value(self) -> AbsValue:
        if self.terms:
            return AbsValue(self.terms[0][0])
        if self.exact:
            return AbsValue.zero()
        raise PrecisionError(
            f"value indistinguishable from 0 at precision q^{self.prec}"
        )

    def abs_exp(self) -> Optional[int]:
        """Valuation exponent, None for exact zero (|0| = 0)."""
        v = self.abs_value()
        return None if v.is_zero else int(v.exp)

    def coeff(self, d: int) -> int:
        """Coefficient at degree d; errors below the knowledge horizon."""
        if self.prec is not None and d < self.prec:
            raise PrecisionError(f"coefficient at degree {d} is below the window")
        for deg, c in self.terms:
            if deg == d:
                return c
            if deg < d:
                return 0
        return 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Laurent)
            and self.spec == other.spec
            and self.terms == other.terms
            and self.prec == other.prec
        )

    def __hash__(self) -> int:
        return hash((self.spec, self.terms, self.prec))

    # -- arithmetic ------------------------------------------------------

    @classmethod
    def _make(cls, spec: FieldSpec, terms_desc: tuple, prec: Optional[int]) -> "Laurent":
        """Internal fast constructor: terms already clean and descending."""
        z = object.__new__(cls)
        z.spec = spec
        z.terms = terms_desc
        z.prec = prec
        return z

    def __add__(self, other: "Laurent") -> "Laurent":
        _check_same_spec(self, other)
        K = self.spec
        if self.prec is None:
            prec = other.prec
        elif other.prec is None:
            prec = self.prec
        else:
            prec = max(self.prec, other.prec)
        # merge two descending term lists
        a, b = self.terms, other.terms
        i = j = 0
        la, lb = len(a), len(b)
        out = []
        while i < la and j < lb:
            da, db = a[i][0], b[j][0]
            if da > db:
                out.append(a[i])
                i += 1
            elif db > da:
                out.append(b[j])
                j += 1
            else:
                s = K.add(a[i][1], b[j][1])
                if s:
                    out.append((da, s))
                i += 1
                j += 1
        out.extend(a[i:])
        out.extend(b[j:])
        if prec is not None:
            out = [t for t in out if t[0] >= prec]
        return Laurent._make(K, tuple(out), prec)

    def __neg__(self) -> "Laurent":
        K = self.spec
        return Laurent._make(K, tuple((d, K.neg(c)) for d, c in self.terms), self.prec)

    def __sub__(self, other: "Laurent") -> "Laurent":
        return self + (-other)

    def _top_bound(self) -> Optional[int]:
        """An exact upper bound on the degree, None when value is 0."""
        if self.terms:
            return self.terms[0][0]
        if self.exact:
            return None
        return self.prec - 1

    def __mul__(self, other: "Laurent") -> "Laurent":
        _check_same_spec(self, other)
        K = self.spec
        if self.is_zero or other.is_zero:
            return Laurent.zero(K)
        dx, dy = self._top_bound(), other._top_bound()
        prec = None
        if self.prec is not None:
            prec = self.prec + dy
        if other.prec is not None:
            p2 = other.prec + dx
            prec = p2 if prec is None else max(prec, p2)
        acc: dict[int, int] = {}
        K_add, K_mul = K.add, K.mul
        for d1, c1 in self.terms:
            for d2, c2 in other.terms:
                d = d1 + d2
                if prec is not None and d < prec:
                    continue
                s = K_add(acc.get(d, 0), K_mul(c1, c2))
                if s:
                    acc[d] = s
                else:
                    acc.pop(d, None)
        return Laurent._make(K, tuple(sorted(acc.items(), reverse=True)), prec)

    def scale(self, c: int) -> "Laurent":
        K = self.spec
        c %= K.q
        if c == 0:
            return Laurent.zero(K) if self.exact else Laurent(K, (), self.prec)
        return Laurent._make(K, tuple((d, K.mul(c, x)) for d, x in self.terms), self.prec)

    def shift(self, k: int) -> "Laurent":
        """Multiply by X^k (exact monomial)."""
        prec = None if self.prec is None else self.prec + k
        return Laurent._make(self.spec, tuple((d + k, c) for d, c in self.terms), prec)

    def inv(self, n_terms: Optional[int] = None) -> "Laurent":
        """Multiplicative inverse, by long division of 1.

        For an exact monomial the result is exact.  Otherwise it is computed
        on a window of ``n_terms`` coefficients (defaulting to the operand's
        own window length, or DEFAULT_INV_TERMS for exact input), cut where
        the operand's window stops determining 1/self.
        """
        if self.is_zero:
            raise ZeroDivisionError("inversion of zero")
        if self.maybe_zero:
            raise PrecisionError("cannot invert a value indistinguishable from 0")
        if n_terms is None:
            n_terms = self.window_len if not self.exact else DEFAULT_INV_TERMS
        return Laurent.one(self.spec).div_to_floor(self, -self.top_deg - n_terms + 1)

    def div_to_floor(self, den: "Laurent", floor_deg: int) -> "Laurent":
        """Quotient self/den with coefficients computed down to floor_deg.

        Long division on the leading terms; exactness is preserved when the
        remainder vanishes identically before the floor is reached.
        """
        _check_same_spec(self, den)
        if den.maybe_zero:
            raise PrecisionError("cannot divide by a value indistinguishable from 0")
        if den.is_zero:
            raise ZeroDivisionError("division by zero")
        K = self.spec
        (dd, cd), low = den.terms[0], den.terms[1:]
        cd_inv = K.inv(cd)
        # the quotient is only trustworthy where both inputs still are
        prec = floor_deg
        if self.prec is not None:
            prec = max(prec, self.prec - dd)
        if den.prec is not None and self.terms:
            prec = max(prec, den.prec + self.terms[0][0] - 2 * dd)
        # the remainder's nonzero digits by degree: each step clears its top
        # digit dr and changes only lower ones
        rem = dict(self.terms)
        qterms: list[tuple[int, int]] = []
        dr = self.terms[0][0] if self.terms else 0
        while rem and dr - dd >= prec:
            cr = rem.pop(dr, 0)
            if cr:
                f = K.mul(cr, cd_inv)
                qterms.append((dr - dd, f))
                nf = K.neg(f)
                for d, c in low:
                    k = d + dr - dd
                    v = K.add(rem.get(k, 0), K.mul(nf, c))
                    if v:
                        rem[k] = v
                    else:
                        rem.pop(k, None)
            dr -= 1
        exact = not rem and self.exact and den.exact
        return Laurent._make(K, tuple(qterms), None if exact else prec)

    # -- decomposition ---------------------------------------------------

    def poly_part(self) -> tuple[Poly, "Laurent"]:
        """Split z = [z] + {z} with deg {z} <= -1, so |{z}| <= 1/q.

        Requires the window to reach degree 0 (prec <= 0) or exactness.
        """
        if self.prec is not None and self.prec > 0:
            raise PrecisionError("window does not reach degree 0")
        K = self.spec
        head = [(d, c) for d, c in self.terms if d >= 0]
        tail = [(d, c) for d, c in self.terms if d < 0]
        coeffs = [0] * (head[0][0] + 1 if head else 0)
        for d, c in head:
            coeffs[d] = c
        return Poly(K, coeffs), Laurent(K, tail, self.prec)

    def __repr__(self) -> str:
        return f"Laurent({str(self)!r})"

    def __str__(self) -> str:
        return format_laurent(self)


# ---------------------------------------------------------------------------
# textual format
# ---------------------------------------------------------------------------

def _term_str(c: int, d: int) -> str:
    if d == 0:
        return str(c)
    xs = "X" if d == 1 else f"X^{d}"
    return xs if c == 1 else f"{c}*{xs}"


def format_terms(value) -> str:
    """Sum-of-terms body shared by Poly and Laurent formatting."""
    if isinstance(value, Poly):
        pairs = [(k, c) for k, c in enumerate(value.coeffs) if c][::-1]
    else:
        pairs = list(value.terms)
    if not pairs:
        return "0"
    return "+".join(_term_str(c, d) for d, c in pairs)


def format_laurent(z: Laurent) -> str:
    tail = ", exact" if z.exact else ""
    return f"{format_terms(z)} (mod {z.spec.q}, prec {z.window_len}{tail})"


_TERM_RE = re.compile(r"^(?:(\d+)\*?)?(?:X(?:\^(-?\d+))?)?$")
_META_RE = re.compile(r"^\(mod\s+(\d+)(?:,\s*prec\s+(\d+))?(,\s*exact)?\)$")


def split_terms(s: str, seps: str = "+-") -> list[str]:
    """The pieces of s between the separators in seps outside parentheses;
    a '-' separates only after a nonblank piece not ending in '^', and the
    piece it starts keeps it as its sign."""
    out, cur, depth = [], "", 0
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and ch in seps and (
                ch != "-" or (cur.strip() and not cur.rstrip().endswith("^"))):
            out.append(cur)
            cur = "-" if ch == "-" else ""
            continue
        cur += ch
    out.append(cur)
    return out


def parse_terms(body: str, spec: FieldSpec) -> list[tuple[int, int]]:
    pairs = []
    for raw in split_terms(body):
        t = raw.strip()
        if not t or t == "0":
            continue
        neg = t.startswith("-")
        if neg:
            t = t[1:].lstrip()
        m = _TERM_RE.match(t)
        if not m or (m.group(1) is None and "X" not in t):
            raise ValueError(f"bad term {raw!r}")
        c = int(m.group(1)) if m.group(1) else 1
        if "X" in t:
            d = int(m.group(2)) if m.group(2) else 1
        else:
            d = 0
        if neg:
            c = spec.neg(c % spec.q)
        pairs.append((d, c))
    return pairs


def parse_laurent(s: str, spec: Optional[FieldSpec] = None) -> Laurent:
    """Parse the interchange format 'X^2+1+X^-1 (mod 3, prec 8, exact)'."""
    s = s.strip()
    if "(" in s:
        body, meta = s.split("(", 1)
        m = _META_RE.match("(" + meta.strip())
        if not m:
            raise ValueError(f"bad Laurent metadata in {s!r}")
        q = int(m.group(1))
        if spec is None:
            spec = FieldSpec.from_order(q)
        elif spec.q != q:
            raise FieldMismatchError(f"literal is mod {q}, expected mod {spec.q}")
        prec_len = int(m.group(2)) if m.group(2) else None
        # a bare "(mod q)" (the Poly form) is exact; "prec N" alone is not
        exact = m.group(3) is not None or prec_len is None
    else:
        body, prec_len, exact = s, None, True
        if spec is None:
            raise ValueError("cannot infer the field: no (mod q) suffix")
    pairs = parse_terms(body.strip(), spec)
    if exact:
        return Laurent(spec, pairs, None)
    top = max((d for d, _ in pairs), default=0)
    n = prec_len if prec_len is not None else DEFAULT_INV_TERMS
    return Laurent(spec, pairs, top - n + 1)


def parse_poly(s: str) -> Poly:
    """An exact polynomial literal with its "(mod q)" field suffix."""
    z = parse_laurent(s)
    if not z.exact:
        raise ValueError("polynomial literals must be exact")
    head, tail = z.poly_part()
    if not tail.is_zero:
        raise ValueError(f"negative exponents in polynomial literal {s!r}")
    return head


# ---------------------------------------------------------------------------
# balls, grids and enumeration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ball:
    """Closed ultrametric ball {x : ||x - center|| <= q^(-radius_exp)} in F^d."""

    center: tuple[Laurent, ...]
    radius_exp: int

    @property
    def d(self) -> int:
        return len(self.center)

    @property
    def spec(self) -> FieldSpec:
        return self.center[0].spec

    def measure(self) -> Fraction:
        """Haar measure, normalized so the closed unit ball has measure 1."""
        e = self.d * self.radius_exp
        q = self.spec.q
        return Fraction(1, q**e) if e >= 0 else Fraction(q**-e)

    def contains(self, point: Sequence[Laurent]) -> bool:
        for c, x in zip(self.center, point):
            diff = x - c
            if diff.terms and diff.terms[0][0] > -self.radius_exp:
                return False
            if diff.maybe_zero and diff.prec > -self.radius_exp:
                raise PrecisionError("membership undecidable at this precision")
        return True

    def subdivide(self) -> Iterator["Ball"]:
        """The q^d disjoint children of radius exponent radius_exp + 1: each
        coordinate c takes every digit a at degree -radius_exp, appended to
        c's terms when c is exact and ends above that degree."""
        K = self.spec
        deg = -self.radius_exp
        options = []
        for c in self.center:
            if c.prec is None and (not c.terms or c.terms[-1][0] > deg):
                options.append([c] + [Laurent._make(K, c.terms + ((deg, a),), None)
                                      for a in range(1, K.q)])
            else:
                options.append([c] + [c + Laurent.monomial(K, a, deg) for a in range(1, K.q)])
        for center in itertools.product(*options):
            yield Ball(center, self.radius_exp + 1)

    @classmethod
    def unit(cls, spec: FieldSpec, d: int, radius_exp: int = 0) -> "Ball":
        return cls(tuple(Laurent.zero(spec) for _ in range(d)), radius_exp)

    def __str__(self) -> str:
        c = ", ".join(format_terms(x) for x in self.center)
        return f"Ball(({c}), q^-{self.radius_exp})"


@dataclass(frozen=True)
class GridSpec:
    """Exact partition of a domain ball in F^d into cells at resolution N.

    The default domain is the d-fold product of (1/X)*O, i.e. the ball of
    radius exponent 1 about the origin.  The partition has exactly
    q^(d(N - r)) cells; cell centers carry coefficients in degrees
    -r .. -(N-1) only.
    """

    spec: FieldSpec
    d: int
    N: int
    domain: Optional[Ball] = None

    def __post_init__(self):
        dom = self.domain
        if dom is None:
            object.__setattr__(self, "domain", Ball.unit(self.spec, self.d, 1))
        if self.N < self.resolved_domain.radius_exp:
            raise ValueError("resolution N must be >= the domain radius exponent")

    @property
    def resolved_domain(self) -> Ball:
        return self.domain  # type: ignore[return-value]

    @property
    def cell_count(self) -> int:
        r = self.resolved_domain.radius_exp
        return self.spec.q ** (self.d * (self.N - r))

    def cells(self) -> Iterator[Ball]:
        """All cells, deterministic order: each coordinate's digits come from
        subdividing its 1-d domain ball down to resolution N (degree -r
        slowest), and the cells are their product, first coordinate slowest."""
        dom = self.resolved_domain
        single: list[list[Laurent]] = []
        for c in dom.center:
            level = [Ball((c,), dom.radius_exp)]
            for _ in range(self.N - dom.radius_exp):
                level = [child for ball in level for child in ball.subdivide()]
            single.append([ball.center[0] for ball in level])
        for combo in itertools.product(*single):
            yield Ball(combo, self.N)


def enumerate_polys(spec: FieldSpec, max_deg: int) -> Iterator[Poly]:
    """All polynomials of degree <= max_deg (including 0), by encoding."""
    for enc in range(spec.q ** (max_deg + 1)):
        yield Poly.from_encoding(spec, enc)


def shell_count(q: int, n: int, t: int) -> int:
    """#{a in Lambda^n : ||a|| = q^t} = q^((t+1)n) - q^(tn) = q^(tn)(q^n - 1)."""
    return q ** ((t + 1) * n) - q ** (t * n)


def enumerate_shell(spec: FieldSpec, n: int, t: int) -> Iterator[tuple[Poly, ...]]:
    """All a in Lambda^n with ||a|| = q^t, each exactly once.

    Order: lexicographic in the per-coordinate integer encodings, first
    coordinate slowest; within a coordinate the encoding reads coefficients
    most significant last.
    """
    if t < 0:
        raise ValueError("shell exponent t must be >= 0")
    polys = list(enumerate_polys(spec, t))
    for combo in itertools.product(polys, repeat=n):
        if any(p.deg == t for p in combo):
            yield combo


def enumerate_box(spec: FieldSpec, bounds: Sequence[int]) -> Iterator[tuple[Poly, ...]]:
    """All a with deg a_i <= bounds[i] (negative bound = forced zero)."""
    opts = [
        list(enumerate_polys(spec, b)) if b >= 0 else [Poly.zero(spec)]
        for b in bounds
    ]
    return itertools.product(*opts)


def cofactor_det(rows: Sequence[Sequence], zero):
    """Determinant by cofactor expansion along the first row, over any ring
    whose elements have is_zero (exactly zero entries are skipped)."""
    k = len(rows)
    if k == 1:
        return rows[0][0]
    acc = zero
    for j, a in enumerate(rows[0]):
        if a.is_zero:
            continue
        minor = [[r[i] for i in range(k) if i != j] for r in rows[1:]]
        term = a * cofactor_det(minor, zero)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc
