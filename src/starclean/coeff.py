"""Exact coefficient rings: Z/n (n odd), GF(p^k) (p odd), Q, and Q(zeta_d).

Elements are plain payloads managed by their ring object, always kept in
canonical form so payload equality is semantic equality:

* ``ModRing`` and ``FiniteField`` elements are integer codes in [0, |R|).
  Finite-field codes are the base-p encoding of the polynomial coefficients.
* ``RationalField`` elements are ``fractions.Fraction`` in lowest terms.
* ``CyclotomicField(d)`` elements are tuples of Fraction of length phi(d),
  the coordinates in the power basis of ``zeta`` modulo Phi_d.

Every constructed ring has 2 as a unit; constructors reject anything else.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from typing import Any, Callable, Iterator, Optional

import numpy as np

from . import numtheory
from .errors import (
    BudgetError,
    CharDividesError,
    NonUnitError,
    ParseError,
    RingSpecError,
)

Payload = Any

_TABLE_CAP = 1024  # largest finite field that gets dense add/mul tables


# --------------------------------------------------------------------------
# integer polynomials (ascending coefficients), used for Phi_d
# --------------------------------------------------------------------------

def _int_poly_div_exact(num: list[int], den: tuple[int, ...]) -> tuple[int, ...]:
    # den is monic; division must be exact
    num = list(num)
    dn = len(den) - 1
    out = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        out[i - dn] = c
        if c:
            for j, dj in enumerate(den):
                num[i - dn + j] -= c * dj
    if any(num):
        raise AssertionError("inexact polynomial division")
    return tuple(out)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(d: int) -> tuple[int, ...]:
    """Coefficients of Phi_d (ascending degree), by exact recursive division.

    Phi_d = (x^d - 1) / prod(Phi_e for e | d, e < d).
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    num = [0] * (d + 1)
    num[0], num[d] = -1, 1
    poly = tuple(num)
    for e in numtheory.divisors(d)[:-1]:
        poly = _int_poly_div_exact(list(poly), cyclotomic_polynomial(e))
    return poly


# --------------------------------------------------------------------------
# ring base class
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class VecOps:
    """Vectorised arithmetic on numpy arrays of element codes."""

    add: Callable[[np.ndarray, np.ndarray], np.ndarray]
    mul: Callable[[np.ndarray, np.ndarray], np.ndarray]
    neg: Callable[[np.ndarray], np.ndarray]


def _scalar_vec(R: CoefficientRing) -> VecOps:
    """Element-wise lifts of R's scalar operations, for fields too large for tables."""
    add = np.frompyfunc(R.add, 2, 1)
    mul = np.frompyfunc(R.mul, 2, 1)
    neg = np.frompyfunc(R.neg, 1, 1)
    return VecOps(
        add=lambda A, B: np.asarray(add(A, B), dtype=np.int64),
        mul=lambda A, B: np.asarray(mul(A, B), dtype=np.int64),
        neg=lambda A: np.asarray(neg(A), dtype=np.int64),
    )


class CoefficientRing:
    """Base class for the exact coefficient rings.

    Subclasses manage raw payloads; all results are canonical, so ``==`` on
    payloads decides equality.  Rings compare equal iff they have identical
    construction parameters, and are safe to share between threads.
    """

    kind: str = "?"
    is_field: bool = False
    char: int = 0
    order: Optional[int] = None  # None = infinite

    # -- arithmetic --------------------------------------------------------
    def add(self, a: Payload, b: Payload) -> Payload:
        raise NotImplementedError

    def mul(self, a: Payload, b: Payload) -> Payload:
        raise NotImplementedError

    def neg(self, a: Payload) -> Payload:
        raise NotImplementedError

    def sub(self, a: Payload, b: Payload) -> Payload:
        return self.add(a, self.neg(b))

    def from_int(self, value: int) -> Payload:
        raise NotImplementedError

    def is_unit(self, a: Payload) -> bool:
        raise NotImplementedError

    def inv(self, a: Payload) -> Payload:
        raise NotImplementedError

    def pow(self, a: Payload, e: int) -> Payload:
        if e < 0:
            a, e = self.inv(a), -e
        out = self.one
        while e:
            if e & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            e >>= 1
        return out

    @property
    def zero(self) -> Payload:
        return self.from_int(0)

    @property
    def one(self) -> Payload:
        return self.from_int(1)

    @property
    def half(self) -> Payload:
        return self.inv(self.from_int(2))

    def is_zero(self, a: Payload) -> bool:
        return a == self.zero

    # -- finite enumeration --------------------------------------------------
    def elements(self) -> Iterator[Payload]:
        raise BudgetError(f"{self!r} is infinite", cardinality=None)

    def encode(self, a: Payload) -> int:
        raise NotImplementedError

    def decode(self, code: int) -> Payload:
        raise NotImplementedError

    # -- vectorised code arithmetic (every finite ring; None when infinite) ---
    @property
    def vec(self) -> Optional[VecOps]:
        return None

    # -- display --------------------------------------------------------------
    def fmt(self, a: Payload) -> str:
        return str(a)

    def parse(self, text: str) -> Payload:
        """The payload that `fmt` writes as `text`; ParseError otherwise.
        Here the digits that `fmt` writes for Z/n and GF(p)."""
        if not (text.isascii() and text.isdigit()):
            raise _parse_error(self, text)
        return self.from_int(int(text))

    def spec_string(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.spec_string()


def _parse_error(R: CoefficientRing, text: str) -> ParseError:
    return ParseError(f"cannot parse coefficient {text!r} for {R!r}")


# one signed term: c*v^i, c*v, v^i, v or c, with c an integer or a fraction
_TERM_RE = re.compile(r"([+-]?)(?:(?:(\d+(?:/\d+)?)\*)?([a-z])(?:\^(\d+))?|(\d+(?:/\d+)?))")


def _parse_poly(R: CoefficientRing, text: str, var: str, degree: int) -> list[Fraction]:
    """Ascending coordinates of a sum of terms in the variable `var` of
    powers below `degree`, the form `fmt` writes polynomial payloads in."""
    coords = [Fraction(0)] * degree
    pos = 0
    while True:
        m = _TERM_RE.match(text, pos)
        if m is None or (pos and not m.group(1)):
            raise _parse_error(R, text)
        sign, coef, v, exp, const = m.groups()
        power = 0 if v is None else int(exp or 1)
        if (v is not None and v != var) or power >= degree:
            raise _parse_error(R, text)
        try:
            value = Fraction(const or coef or 1)
        except ZeroDivisionError:
            raise _parse_error(R, text) from None
        coords[power] += -value if sign == "-" else value
        pos = m.end()
        if pos == len(text):
            return coords


class ModRing(CoefficientRing):
    """Z/n for odd n >= 3.  Elements are residues in [0, n)."""

    kind = "mod"

    def __init__(self, n: int):
        if n < 3 or n % 2 == 0:
            raise RingSpecError(f"Z/{n}: modulus must be odd and >= 3 (2 must be a unit)")
        self.n = n
        self.order = n
        self.char = n
        self.factorization = numtheory.factorize(n)

    def add(self, a, b):
        return (a + b) % self.n

    def mul(self, a, b):
        return (a * b) % self.n

    def neg(self, a):
        return (-a) % self.n

    def from_int(self, value):
        return value % self.n

    def is_unit(self, a):
        return gcd(a, self.n) == 1

    def inv(self, a):
        if not self.is_unit(a):
            raise NonUnitError(f"{a} is not a unit in {self!r}")
        return pow(a, -1, self.n)

    def elements(self):
        return iter(range(self.n))

    def encode(self, a):
        return a

    def decode(self, code):
        return code

    @cached_property
    def vec(self):
        n = self.n
        return VecOps(
            add=lambda A, B: (A + B) % n,
            mul=lambda A, B: (A * B) % n,
            neg=lambda A: (-A) % n,
        )

    def spec_string(self):
        return f"Z/{self.n}"

    def __eq__(self, other):
        return isinstance(other, ModRing) and other.n == self.n

    def __hash__(self):
        return hash(("mod", self.n))


def _gf_poly_mulmod(a, b, modulus, p):
    # dense tuples over F_p, reduced mod the monic modulus
    k = len(modulus) - 1
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    for i in range(len(out) - 1, k - 1, -1):
        c = out[i]
        if c:
            out[i] = 0
            for j in range(k):
                out[i - k + j] = (out[i - k + j] - c * modulus[j]) % p
    return tuple(out[:k]) if len(out) >= k else tuple(out) + (0,) * (k - len(out))


def _gf_poly_powmod(a, e, modulus, p):
    k = len(modulus) - 1
    out = (1,) + (0,) * (k - 1)
    base = a
    while e:
        if e & 1:
            out = _gf_poly_mulmod(out, base, modulus, p)
        base = _gf_poly_mulmod(base, base, modulus, p)
        e >>= 1
    return out


def _gf_poly_gcd(a, b, p):
    a, b = list(a), list(b)

    def deg(x):
        d = len(x) - 1
        while d >= 0 and x[d] % p == 0:
            d -= 1
        return d

    while deg(b) >= 0:
        da, db = deg(a), deg(b)
        if da < db:
            a, b = b, a
            continue
        inv = pow(b[deg(b)], -1, p)
        factor = (a[da] * inv) % p
        shift = da - db
        for j in range(db + 1):
            a[shift + j] = (a[shift + j] - factor * b[j]) % p
        # retry until a's degree drops below b's
        if deg(a) < deg(b):
            a, b = b, a
    d = deg(a)
    return tuple(c % p for c in a[: d + 1])


def _is_irreducible(modulus: tuple[int, ...], p: int) -> bool:
    """Rabin irreducibility test for a monic polynomial over F_p."""
    k = len(modulus) - 1
    x = (0, 1) + (0,) * max(0, k - 2)
    xq = _gf_poly_powmod(x, p**k, modulus, p)
    if xq != tuple(x[:k]):
        return False
    for q, _ in numtheory.factorize(k):
        xe = _gf_poly_powmod(x, p ** (k // q), modulus, p)
        diff = tuple((a - b) % p for a, b in zip(xe, x[:k]))
        g = _gf_poly_gcd(diff + (0,), modulus, p)
        if len(g) - 1 != 0:
            return False
    return True


@lru_cache(maxsize=None)
def _least_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Least monic irreducible of degree k over F_p, ordering candidates
    lexicographically with the top coefficients most significant (so the
    constant term varies fastest and x^k + c is tried first)."""
    for coeffs in itertools.product(range(p), repeat=k):
        candidate = tuple(reversed(coeffs)) + (1,)
        if _is_irreducible(candidate, p):
            return candidate
    raise AssertionError("no irreducible polynomial found")


class FiniteField(CoefficientRing):
    """GF(p^k) for odd prime p.

    Elements are integer codes: the base-p digits of a code are the
    coefficients of the residue polynomial.  For k = 1 this is plain
    arithmetic mod p.  The modulus polynomial is the least lexicographic
    monic irreducible of degree k (deterministic across runs).
    """

    kind = "gf"
    is_field = True

    def __init__(self, p: int, k: int = 1, modulus: tuple[int, ...] | None = None):
        if p == 2:
            raise RingSpecError("p = 2 rejected: 2 must be a unit")
        if not numtheory.is_prime(p):
            raise RingSpecError(f"{p} is not prime")
        if k < 1:
            raise RingSpecError("extension degree must be >= 1")
        self.p = p
        self.k = k
        self.order = p**k
        self.char = p
        if k == 1:
            self.modulus = None
        else:
            self.modulus = tuple(modulus) if modulus is not None else _least_irreducible(p, k)
            if len(self.modulus) - 1 != k or self.modulus[-1] != 1:
                raise RingSpecError("modulus must be monic of degree k")
            if not _is_irreducible(self.modulus, p):
                raise RingSpecError("modulus polynomial is reducible")

    # -- code <-> digit helpers -------------------------------------------
    def digits(self, code: int) -> tuple[int, ...]:
        p = self.p
        return tuple((code // p**i) % p for i in range(self.k))

    def undigits(self, digs) -> int:
        p = self.p
        return sum(int(d) % p * p**i for i, d in enumerate(digs))

    def add(self, a, b):
        if self.k == 1:
            return (a + b) % self.p
        return self.undigits((x + y) % self.p for x, y in zip(self.digits(a), self.digits(b)))

    def neg(self, a):
        if self.k == 1:
            return (-a) % self.p
        return self.undigits((-x) % self.p for x in self.digits(a))

    def mul(self, a, b):
        if self.k == 1:
            return (a * b) % self.p
        prod = _gf_poly_mulmod(self.digits(a), self.digits(b), self.modulus, self.p)
        return self.undigits(prod)

    def from_int(self, value):
        return value % self.p

    def is_unit(self, a):
        return a != 0

    def inv(self, a):
        if a == 0:
            raise NonUnitError(f"0 is not a unit in {self!r}")
        if self.k == 1:
            return pow(a, -1, self.p)
        return self.pow(a, self.order - 2)

    def elements(self):
        return iter(range(self.order))

    def encode(self, a):
        return a

    def decode(self, code):
        return code

    def _tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Dense add, mul and neg tables on codes."""
        q = self.order
        codes = np.arange(q)
        digs = np.stack([(codes // self.p**i) % self.p for i in range(self.k)], axis=1)
        pows = self.p ** np.arange(self.k)
        add = ((digs[:, None, :] + digs[None, :, :]) % self.p @ pows).astype(np.int64)
        neg = ((-digs) % self.p @ pows).astype(np.int64)
        mul = np.zeros((q, q), dtype=np.int64)
        for a in range(q):
            da = self.digits(a)
            for b in range(a, q):
                c = self.undigits(_gf_poly_mulmod(da, self.digits(b), self.modulus, self.p))
                mul[a, b] = c
                mul[b, a] = c
        return add, mul, neg

    @cached_property
    def vec(self):
        p = self.p
        if self.k == 1:
            return VecOps(
                add=lambda A, B: (A + B) % p,
                mul=lambda A, B: (A * B) % p,
                neg=lambda A: (-A) % p,
            )
        if self.order > _TABLE_CAP:
            return _scalar_vec(self)
        addt, mult, negt = self._tables()
        return VecOps(
            add=lambda A, B: addt[A, B],
            mul=lambda A, B: mult[A, B],
            neg=lambda A: negt[A],
        )

    def fmt(self, a):
        if self.k == 1:
            return str(a)
        digs = self.digits(a)
        terms = []
        for i in range(self.k - 1, -1, -1):
            c = digs[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                base = "w" if i == 1 else f"w^{i}"
                terms.append(base if c == 1 else f"{c}*{base}")
        return "+".join(terms) if terms else "0"

    def parse(self, text):
        if self.k == 1:
            return super().parse(text)
        coords = _parse_poly(self, text, "w", self.k)
        if any(c.denominator != 1 for c in coords):
            raise _parse_error(self, text)
        return self.undigits(coords)

    def spec_string(self):
        return f"F{self.p}" if self.k == 1 else f"F{self.p}^{self.k}"

    def __eq__(self, other):
        return (
            isinstance(other, FiniteField)
            and other.p == self.p
            and other.k == self.k
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("gf", self.p, self.k, self.modulus))


class RationalField(CoefficientRing):
    """The rational numbers with exact Fraction arithmetic."""

    kind = "rationals"
    is_field = True

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def from_int(self, value):
        return Fraction(value)

    def is_unit(self, a):
        return a != 0

    def inv(self, a):
        if a == 0:
            raise NonUnitError("0 is not a unit in Q")
        return 1 / a

    def fmt(self, a):
        return str(a)

    def parse(self, text):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise _parse_error(self, text) from None

    def spec_string(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rationals")


def _frac_poly_divmod(num, den):
    num = list(num)
    dn = len(den) - 1
    while dn >= 0 and den[dn] == 0:
        dn -= 1
    if dn < 0:
        raise ZeroDivisionError
    quot = [Fraction(0)] * max(0, len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i] / den[dn]
        if c:
            quot[i - dn] = c
            for j in range(dn + 1):
                num[i - dn + j] -= c * den[j]
    return quot, num[:dn]


class CyclotomicField(CoefficientRing):
    """Q(zeta_d) modelled as Q[x] / Phi_d(x) with Fraction coordinate tuples."""

    kind = "cyclotomic"
    is_field = True

    def __init__(self, d: int):
        if d < 1:
            raise RingSpecError("d must be >= 1")
        self.d = d
        self.modulus = cyclotomic_polynomial(d)
        self.degree = len(self.modulus) - 1
        # reduction rows: x^(degree + i) mod Phi_d for i = 0 .. degree - 2
        rows = []
        if self.degree > 1:
            prev = [Fraction(-c) for c in self.modulus[:-1]]
            rows.append(tuple(prev))
            for _ in range(self.degree - 2):
                shifted = [Fraction(0)] + prev[:-1]
                top = prev[-1]
                if top:
                    for j in range(self.degree):
                        shifted[j] += top * -self.modulus[j]
                prev = shifted
                rows.append(tuple(prev))
        self._red_rows = rows
        # the modulus is monic with integer coefficients, so reduction rows
        # are integral; keep an int64 copy for vectorised squaring
        self._red_int = np.array(
            [[int(c) for c in row] for row in rows], dtype=np.int64
        ).reshape(len(rows), self.degree)
        if self.degree == 1:
            self.zeta = (Fraction(-self.modulus[0]),)
        else:
            self.zeta = tuple(Fraction(1) if i == 1 else Fraction(0) for i in range(self.degree))

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        n = self.degree
        conv = [Fraction(0)] * (2 * n - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        out = conv[:n]
        for i in range(n - 1):
            hi = conv[n + i]
            if hi:
                row = self._red_rows[i]
                for j in range(n):
                    out[j] += hi * row[j]
        return tuple(out)

    def from_int(self, value):
        return tuple(Fraction(value) if i == 0 else Fraction(0) for i in range(self.degree))

    def is_unit(self, a):
        return any(a)

    def inv(self, a):
        if not any(a):
            raise NonUnitError(f"0 is not a unit in {self!r}")
        # extended Euclid in Q[x] against Phi_d
        r0 = [Fraction(c) for c in self.modulus]
        r1 = list(a)
        s0, s1 = [Fraction(0)], [Fraction(1)]

        def deg(p):
            d = len(p) - 1
            while d >= 0 and p[d] == 0:
                d -= 1
            return d

        def padd(p, q):
            out = [Fraction(0)] * max(len(p), len(q))
            for i, c in enumerate(p):
                out[i] += c
            for i, c in enumerate(q):
                out[i] += c
            return out

        def pscale_shift(p, c, k):
            return [Fraction(0)] * k + [c * x for x in p]

        while deg(r1) > 0:
            quot, rem = _frac_poly_divmod(r0, r1)
            s_new = list(s0)
            for i, qc in enumerate(quot):
                if qc:
                    s_new = padd(s_new, pscale_shift(s1, -qc, i))
            r0, r1 = r1, rem
            s0, s1 = s1, s_new
        d1 = deg(r1)
        if d1 != 0:
            raise NonUnitError("element shares a factor with the modulus")
        c = r1[0]
        out = [x / c for x in s1]
        out += [Fraction(0)] * (self.degree - len(out))
        # reduce (should already be reduced since deg(s1) < deg(Phi))
        return tuple(out[: self.degree])

    def square_int_vec(self, u: np.ndarray) -> np.ndarray:
        """Square an integer coordinate vector, staying in int64 arithmetic."""
        conv = np.convolve(u, u)
        out = conv[: self.degree].copy()
        if conv.shape[0] > self.degree:
            hi = conv[self.degree :]
            out = out + hi @ self._red_int[: hi.shape[0]]
        return out

    def fmt(self, a):
        terms = []
        for i in range(self.degree - 1, -1, -1):
            c = a[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                base = "z" if i == 1 else f"z^{i}"
                if c == 1:
                    terms.append(base)
                elif c == -1:
                    terms.append(f"-{base}")
                else:
                    terms.append(f"{c}*{base}")
        return "+".join(terms).replace("+-", "-") if terms else "0"

    def parse(self, text):
        return tuple(_parse_poly(self, text, "z", self.degree))

    def spec_string(self):
        return f"Q(zeta{self.d})"

    def __eq__(self, other):
        return isinstance(other, CyclotomicField) and other.d == self.d

    def __hash__(self):
        return hash(("cyclotomic", self.d))


# --------------------------------------------------------------------------
# factories
# --------------------------------------------------------------------------

_RING_RE = re.compile(
    r"^(?:Z/(?P<mod>\d+)|F(?P<p>\d+)(?:\^(?P<k>\d+))?|Q\(zeta(?P<d>\d+)\)|(?P<q>Q))$"
)


def make_ring(spec: str) -> CoefficientRing:
    """Build a ring from a spec string: ``Z/9``, ``F3``, ``F3^2``, ``Q``, ``Q(zeta7)``."""
    m = _RING_RE.match(spec.strip())
    if not m:
        raise RingSpecError(f"unrecognized ring spec {spec!r}")
    if m.group("mod"):
        return ModRing(int(m.group("mod")))
    if m.group("p"):
        return FiniteField(int(m.group("p")), int(m.group("k") or 1))
    if m.group("d"):
        return CyclotomicField(int(m.group("d")))
    return RationalField()


def extend_with_root(F: CoefficientRing, d: int) -> CoefficientRing:
    """Smallest field extension of F containing a primitive d-th root of unity."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if not F.is_field:
        raise RingSpecError("extend_with_root needs a field")
    if isinstance(F, RationalField):
        return F if d <= 2 else CyclotomicField(d)
    if isinstance(F, CyclotomicField):
        target = lcm(F.d, d)
        return F if target == F.d else CyclotomicField(target)
    if isinstance(F, FiniteField):
        if d % F.char == 0:
            raise CharDividesError(f"char {F.char} divides {d}")
        r = numtheory.multiplicative_order(F.order % d, d) if d > 1 else 1
        return F if r == 1 else FiniteField(F.p, F.k * r)
    raise TypeError(f"cannot extend {F!r}")


# --------------------------------------------------------------------------
# levels and the three-squares equation
# --------------------------------------------------------------------------

class Level(Enum):
    TWO = "2"
    FOUR = "4"
    TWO_OR_FOUR = "2 or 4"


def level_classify_prime(p: int) -> Level:
    """Level of Q(zeta_p) by residue of the odd prime p mod 8."""
    if p == 2 or not numtheory.is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    r = p % 8
    if r in (3, 5):
        return Level.TWO
    if r == 7:
        return Level.FOUR
    return Level.TWO_OR_FOUR


class _Singleton:
    def __init__(self, name):
        self._name = name

    def __repr__(self):
        return self._name


NO_SOLUTION = _Singleton("NoSolution")
UNKNOWN = _Singleton("Unknown")  # no solver returns it; kept for callers that compare


@dataclass(frozen=True)
class ThreeSquaresSolution:
    """A verified triple with x^2 + y^2 + z^2 + 1 = 0 in the ring."""

    ring: CoefficientRing
    x: Payload
    y: Payload
    z: Payload

    def verify(self) -> bool:
        R = self.ring
        total = R.add(
            R.add(R.mul(self.x, self.x), R.mul(self.y, self.y)),
            R.add(R.mul(self.z, self.z), R.one),
        )
        return R.is_zero(total)

    def as_strings(self) -> list[str]:
        return [self.ring.fmt(self.x), self.ring.fmt(self.y), self.ring.fmt(self.z)]


SolveOutcome = Any  # ThreeSquaresSolution | NO_SOLUTION


def _finite_three_squares(R: CoefficientRing) -> SolveOutcome:
    """Exhaustive search over a finite ring, O(|R|^2) via a square-root table."""
    sqrt_of: dict[int, int] = {}
    for a in R.elements():
        s = R.mul(a, a)
        if s not in sqrt_of:
            sqrt_of[s] = a
    minus_one = R.neg(R.one)
    for z in R.elements():
        z2 = R.mul(z, z)
        for y in R.elements():
            target = R.sub(R.sub(minus_one, z2), R.mul(y, y))
            x = sqrt_of.get(target)
            if x is not None:
                return ThreeSquaresSolution(R, x, y, z)
    return NO_SOLUTION


def _prime_subfield_three_squares(F: FiniteField) -> SolveOutcome:
    # constants multiply like integers mod p, so a prime-field solution embeds
    p = F.p
    sqrt_of = {(a * a) % p: a for a in range(p - 1, -1, -1)}
    for y in range(p):
        x = sqrt_of.get((-1 - y * y) % p)
        if x is not None:
            return ThreeSquaresSolution(F, x, y, 0)
    raise AssertionError("x^2+y^2+1=0 is always solvable over an odd prime field")


def _two_squares_from_root_chain(F: CyclotomicField, p: int, n: int):
    """Explicit (x, y) with x^2 + y^2 = -1 in Q(zeta_d), for p | d with p | 2^n + 1.

    Runs the doubling recursion on g = zeta_p:  a^2 + b^2 = prod(1 + g^(2^k),
    k < n) = -g^(-1); multiplying both by g^((p+1)/2) then gives -1.
    """
    g = F.pow(F.zeta, F.d // p)
    a = F.one
    b = F.pow(g, (p + 1) // 2)
    for t in range(n - 1):
        x_fac = F.pow(g, 2**t)
        a, b = F.add(F.mul(a, x_fac), b), F.sub(F.mul(b, x_fac), a)
    w = F.pow(g, (p + 1) // 2)
    return F.mul(a, w), F.mul(b, w)


def _height_shell(degree: int, h: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Candidate coordinate vectors as (numerators, denominator) pairs:
    integer vectors with sup-norm exactly h, then half-integer vectors
    (all coordinates odd halves) with sup-norm h - 1/2."""
    if h == 0:
        yield (0,) * degree, 1
        return
    for vec in itertools.product(range(-h, h + 1), repeat=degree):
        if max(abs(c) for c in vec) == h:
            yield vec, 1
    odd = range(-(2 * h - 1), 2 * h, 2)
    for vec in itertools.product(odd, repeat=degree):
        if max(abs(c) for c in vec) == 2 * h - 1:
            yield vec, 2


def two_squares_search(
    F: CyclotomicField, height_bound: int = 8, candidate_budget: int = 100_000
) -> Optional[tuple[Payload, Payload]]:
    """Bounded meet-in-the-middle search for x^2 + y^2 = -1 in Q(zeta_d).

    Candidates have integer (or all-half-integer) coordinates of sup-norm at
    most ``height_bound`` in the zeta power basis; a semidecision only.  No
    decision calls it: it is kept as an independent reference for the
    closed form of ``solve_three_squares``.
    """
    seen: dict[tuple, tuple] = {}
    count = 0
    for h in range(height_bound + 1):
        for nums, den in _height_shell(F.degree, h):
            count += 1
            if count > candidate_budget:
                return None
            sq = F.square_int_vec(np.array(nums, dtype=np.int64))
            scale = 4 // (den * den)  # normalize values to quarters
            key = tuple(int(c) * scale for c in sq)
            target = tuple(-k - (4 if i == 0 else 0) for i, k in enumerate(key))
            mate = seen.get(target)
            if mate is not None:
                x = tuple(Fraction(c, mate[1]) for c in mate[0])
                y = tuple(Fraction(c, den) for c in nums)
                return x, y
            if key not in seen:
                seen[key] = (nums, den)
    return None


def _cyclotomic_three_squares(F: CyclotomicField) -> SolveOutcome:
    d = F.d
    if F.degree == 1:
        return NO_SOLUTION  # the field is Q itself, formally real
    if d % 4 == 0:
        i = F.pow(F.zeta, d // 4)
        sol = ThreeSquaresSolution(F, i, F.zero, F.zero)
        assert sol.verify()
        return sol
    d_odd = d if d % 2 == 1 else d // 2
    for p, _ in numtheory.factorize(d_odd):
        r = numtheory.multiplicative_order(2, p)
        if r % 2 == 0:
            # p divides 2^(r/2) + 1: the two-squares chain is explicit
            x, y = _two_squares_from_root_chain(F, p, r // 2)
            sol = ThreeSquaresSolution(F, x, y, F.zero)
            assert sol.verify()
            return sol
    # every p | d_odd has odd ord_p(2), so the local degree ord_{d_odd}(2) at 2
    # is odd: -1 is not a sum of two squares, and as levels are powers of 2,
    # not of three either
    return NO_SOLUTION


def local_degree_beyond_paper(F: CoefficientRing) -> Optional[dict]:
    """Data {d, d_odd, ord_2} of the local-degree rule when it, and not the
    paper, shows X^2 + Y^2 + Z^2 + 1 = 0 unsolvable in F = Q(zeta_d).

    With d_odd the odd part of d, the equation has no solution iff 4 does
    not divide d and ord_{d_odd}(2), the local degree at 2, is odd
    (Fein-Gordon-Smith 1971: -1 is a sum of two squares in a totally
    imaginary field iff every local degree at 2 is even; levels are powers
    of 2).  Of those fields the paper settles only Q (d_odd = 1) and d_odd a
    prime = 7 (mod 8), which has level 4; the rest get the data, every other
    ring None.
    """
    if not isinstance(F, CyclotomicField) or F.d % 4 == 0:
        return None
    d_odd = F.d if F.d % 2 == 1 else F.d // 2
    if d_odd == 1 or (d_odd % 8 == 7 and numtheory.is_prime(d_odd)):
        return None
    ord_2 = numtheory.multiplicative_order(2, d_odd)
    if ord_2 % 2 == 0:
        return None
    return {"d": F.d, "d_odd": d_odd, "ord_2": ord_2}


def solve_three_squares(R: CoefficientRing) -> SolveOutcome:
    """Decide solvability of X^2 + Y^2 + Z^2 + 1 = 0 in R.

    Finite rings are searched exhaustively (prime-subfield shortcut for large
    extension fields); Q has no solution by positivity.  Q(zeta_d) gets an
    explicit solution when 4 | d or some p | d has even ord_p(2), and
    NO_SOLUTION otherwise: then the local degree of Q(zeta_d) at 2 is odd
    (see ``local_degree_beyond_paper``).
    """
    if isinstance(R, RationalField):
        return NO_SOLUTION
    if isinstance(R, CyclotomicField):
        return _cyclotomic_three_squares(R)
    if isinstance(R, FiniteField) and R.order > 10_000:
        return _prime_subfield_three_squares(R)
    if R.order is not None:
        return _finite_three_squares(R)
    raise TypeError(f"cannot solve over {R!r}")
