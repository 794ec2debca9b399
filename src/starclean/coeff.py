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
import operator
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
_TABLE_BLOCK_CELLS = 1 << 18  # digit-convolution cells per row block of a table build


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
    """Vectorised arithmetic on numpy arrays of element codes.  Any
    `wide_terms` products from `wide_mul` sum exactly in int64, and
    `wide_reduce` maps such a sum to the code of the sum of the products."""

    add: Callable[[np.ndarray, np.ndarray], np.ndarray]
    mul: Callable[[np.ndarray, np.ndarray], np.ndarray]
    neg: Callable[[np.ndarray], np.ndarray]
    wide_mul: Callable[[np.ndarray, np.ndarray], np.ndarray]
    wide_terms: int
    wide_reduce: Callable[[np.ndarray], np.ndarray]


def _mod_vec(n: int) -> VecOps:
    """Arithmetic mod n: exact on Python ints, and on int64 arrays while n^2 < 2^63."""
    return VecOps(
        add=lambda A, B: (A + B) % n,
        mul=lambda A, B: (A * B) % n,
        neg=lambda A: (-A) % n,
        wide_mul=lambda A, B: A * B,  # the plain product
        wide_terms=(2**63 - 1) // (n - 1) ** 2,
        wide_reduce=lambda S: S % n,
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

    # payloads are immutable, so each ring builds these once
    @cached_property
    def zero(self) -> Payload:
        return self.from_int(0)

    @cached_property
    def one(self) -> Payload:
        return self.from_int(1)

    @cached_property
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


def _fmt_poly(coords, var: str) -> str:
    """The nonzero terms c*var^i of ascending coordinates, highest power
    first, joined by their signs: the form `_parse_poly` reads."""
    terms = []
    for i in range(len(coords) - 1, -1, -1):
        c, base = coords[i], var if i == 1 else f"{var}^{i}"
        if c:
            terms.append(str(c) if i == 0 else {1: base, -1: f"-{base}"}.get(c, f"{c}*{base}"))
    return "+".join(terms).replace("+-", "-") if terms else "0"


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


class _CodeRing(CoefficientRing):
    """A finite ring whose payloads are its codes 0 .. order - 1: scalar
    arithmetic is the vectorised code arithmetic on single codes."""

    is_zero = staticmethod(operator.not_)  # code 0 is zero

    def add(self, a, b):
        return int(self.vec.add(a, b))

    def mul(self, a, b):
        return int(self.vec.mul(a, b))

    def neg(self, a):
        return int(self.vec.neg(a))

    def elements(self):
        return iter(range(self.order))

    def encode(self, a):
        return a

    def decode(self, code):
        return code


class ModRing(_CodeRing):
    """Z/n for odd n >= 3.  Elements are residues in [0, n)."""

    kind = "mod"

    def __init__(self, n: int):
        if n < 3 or n % 2 == 0:
            raise RingSpecError(f"Z/{n}: modulus must be odd and >= 3 (2 must be a unit)")
        self.n = n
        self.order = n
        self.char = n
        self.factorization = numtheory.factorize(n)

    def from_int(self, value):
        return value % self.n

    def is_unit(self, a):
        return gcd(a, self.n) == 1

    def inv(self, a):
        if not self.is_unit(a):
            raise NonUnitError(f"{a} is not a unit in {self!r}")
        return pow(a, -1, self.n)

    @cached_property
    def vec(self):
        return _mod_vec(self.n)

    def spec_string(self):
        return f"Z/{self.n}"

    def __eq__(self, other):
        return isinstance(other, ModRing) and other.n == self.n

    def __hash__(self):
        return hash(("mod", self.n))


def _reduction_rows(modulus: tuple[int, ...], p: Optional[int] = None) -> np.ndarray:
    """x^(k+i) mod the monic integer polynomial `modulus` of degree k, for
    i = 0 .. k-2: one row of ascending int64 coefficients each, reduced mod p
    when p is given.  They fold a product of two residues, of degree at most
    2k-2, back below x^k."""
    k = len(modulus) - 1
    rows, row = [], [-c for c in modulus[:-1]]
    for _ in range(k - 1):
        row = [c % p for c in row] if p else row
        rows.append(row)
        # times x: shift up and replace the x^k term by its reduction
        row = [c - row[-1] * m for c, m in zip([0] + row[:-1], modulus)]
    return np.array(rows, dtype=np.int64).reshape(k - 1, k)


def _gf_mul_digits(A: np.ndarray, B: np.ndarray, rows: np.ndarray, p: int) -> np.ndarray:
    """The GF(p^k) product of base-p digit arrays (..., k), broadcast together.

    The digit convolution is folded back below x^k by the reduction rows.
    Sums are reduced mod p once where k (p - 1)^2 < 2^63, else after every
    product, so no value exceeds p^2 - p: the product is exact while p^2 < 2^63.
    """
    k = rows.shape[1]
    each = k * (p - 1) ** 2 >= 2**63
    conv = np.zeros(np.broadcast_shapes(A.shape, B.shape)[:-1] + (2 * k - 1,), dtype=np.int64)
    for i in range(k):  # in place: a q x q table needs one temporary of its digits
        part = conv[..., i : i + k]
        part += A[..., i, None] * B
        if each:
            part %= p
    conv %= p
    out = conv[..., :k]
    for i in range(k - 1):
        out += conv[..., k + i, None] * rows[i]
        if each:
            out %= p
    out %= p
    return out


def _gf_poly_powmod(a: np.ndarray, e: int, rows: np.ndarray, p: int) -> np.ndarray:
    out = np.zeros_like(a)
    out[0] = 1
    while e:
        if e & 1:
            out = _gf_mul_digits(out, a, rows, p)
        a = _gf_mul_digits(a, a, rows, p)
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
    rows = _reduction_rows(modulus, p)
    x = np.zeros(k, dtype=np.int64)
    x[1] = 1
    if (_gf_poly_powmod(x, p**k, rows, p) != x).any():
        return False
    for q, _ in numtheory.factorize(k):
        diff = (_gf_poly_powmod(x, p ** (k // q), rows, p) - x) % p
        g = _gf_poly_gcd(tuple(diff.tolist()) + (0,), modulus, p)
        if len(g) - 1 != 0:
            return False
    return True


@lru_cache(maxsize=None)
def _least_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Least monic irreducible of degree k over F_p, ordering candidates
    lexicographically with the top coefficients most significant (so the
    constant term varies fastest and x^k + c is tried first).  The x^k + c
    are skipped when all are reducible (Lidl-Niederreiter, Thm 3.75)."""
    binomials = all((p - 1) % r == 0 for r, _ in numtheory.factorize(k)) and (k % 4 or p % 4 == 1)
    for n in range(0 if binomials else p, p**k):  # the base-p digits of n, constant term first
        candidate = tuple(n // p**i % p for i in range(k)) + (1,)
        if _is_irreducible(candidate, p):
            return candidate
    raise AssertionError("no irreducible polynomial found")


class FiniteField(_CodeRing):
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
        elif modulus is None:
            self.modulus = _least_irreducible(p, k)
        else:
            self.modulus = tuple(modulus)
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

    @cached_property
    def vec(self):
        p, k, q = self.p, self.k, self.order
        if k == 1:
            return _mod_vec(p)
        rows = _reduction_rows(self.modulus, p)
        # place values of the digits: int64 while codes fit, else exact ints
        pows = np.array([p**i for i in range(k)], dtype=np.int64 if q < 2**63 else object)
        # a wide product is the product's digits in base W, the largest with
        # W^k < 2^63 (the float root may round up): no sum of (W-1)/(p-1) carries
        W = int(2 ** (63 / k))
        W -= W**k >= 2**63
        wpows = W ** np.arange(k, dtype=np.int64)

        def digits(A):
            return (np.asarray(A)[..., None] // pows % p).astype(np.int64, copy=False)

        add = lambda A, B: (digits(A) + digits(B)) % p @ pows
        mul_digits = lambda A, B: _gf_mul_digits(digits(A), digits(B), rows, p)
        neg = lambda A: -digits(A) % p @ pows
        wide = ((W - 1) // (p - 1), lambda S: S[..., None] // wpows % W % p @ pows)
        if q > _TABLE_CAP:
            mul = lambda A, B: mul_digits(A, B) @ pows
            return VecOps(add, mul, neg, lambda A, B: mul_digits(A, B) @ wpows, *wide)
        # dense tables, built in row blocks that bound the digit convolution
        codes = np.arange(q)
        addt, mult, widet = np.empty((3, q, q), dtype=np.int64)
        step = max(1, _TABLE_BLOCK_CELLS // (q * (2 * k - 1)))
        for r in range(0, q, step):
            t = slice(r, r + step)
            digs = mul_digits(codes[t, None], codes)
            addt[t], mult[t], widet[t] = add(codes[t, None], codes), digs @ pows, digs @ wpows
        negt = neg(codes)
        return VecOps(
            lambda A, B: addt[A, B], lambda A, B: mult[A, B], lambda A: negt[A],
            lambda A, B: widet[A, B], *wide,
        )

    def fmt(self, a):
        return str(a) if self.k == 1 else _fmt_poly(self.digits(a), "w")

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
    is_zero = staticmethod(operator.not_)  # cheaper than == against a Fraction

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
        if self.degree == 1:
            self.zeta = (Fraction(-self.modulus[0]),)
        else:
            self.zeta = tuple(Fraction(1) if i == 1 else Fraction(0) for i in range(self.degree))

    @cached_property
    def _red_rows(self) -> list[list[int]]:
        # built on the first product: deciding over Q(zeta_d) may need none
        return _reduction_rows(self.modulus).tolist()

    def add(self, a, b):
        return tuple(x + y if y else x for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        n = self.degree
        conv = [Fraction(0)] * (2 * n - 1)
        right = [(j, bj) for j, bj in enumerate(b) if bj]
        for i, ai in enumerate(a):
            if ai:
                for j, bj in right:
                    conv[i + j] += ai * bj
        out = conv[:n]
        for i, hi in enumerate(conv[n:]):
            if hi:
                row = self._red_rows[i]
                for j in range(n):
                    out[j] += hi * row[j]
        return tuple(out)

    def from_int(self, value):
        return tuple(Fraction(value) if i == 0 else Fraction(0) for i in range(self.degree))

    def is_zero(self, a):
        return not any(a)

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
            out = out + hi @ np.array(self._red_rows[: hi.shape[0]], dtype=np.int64)
        return out

    def fmt(self, a):
        return _fmt_poly(a, "z")

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


def _finite_three_squares(R: CoefficientRing) -> tuple[int, int, int]:
    """The triple (x, y, 0) with x^2 + y^2 + 1 = 0 in a finite ring of odd
    order, y the least code for which -1 - y^2 is a square, x its least root.

    z = 0 always suffices: in GF(q) the (q + 1)/2 squares and the (q + 1)/2
    values -1 - y^2 must meet (Lidl-Niederreiter, *Finite Fields*), and a
    solution mod an odd prime p has (x, y) != 0 mod p, so it lifts to Z/p^e
    by Hensel's lemma and combines over Z/n by CRT.  Hence an exhaustive
    search over z, then y, meets this same triple first.
    """
    codes = np.arange(R.order)
    squares = R.vec.mul(codes, codes)
    least_root = np.full(R.order, -1)
    found, first = np.unique(squares, return_index=True)
    least_root[found] = first
    x = least_root[R.vec.add(R.vec.neg(squares), R.neg(R.one))]
    y = int(np.argmax(x >= 0))
    if x[y] < 0:
        raise AssertionError(f"x^2 + y^2 + 1 = 0 has no solution in {R!r}")
    return int(x[y]), y, 0


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
    excluded = numtheory.least_excluded_prime(d)
    if excluded is not None:
        # (p, n) with p | d and p | 2^n + 1: the two-squares chain is explicit
        x, y = _two_squares_from_root_chain(F, *excluded)
        sol = ThreeSquaresSolution(F, x, y, F.zero)
        assert sol.verify()
        return sol
    # every odd p | d has odd ord_p(2), so the local degree ord_{d_odd}(2) at 2
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

    Finite rings always have a solution with z = 0, found in one pass over
    y (over the prime subfield for large extension fields); Q has no
    solution by positivity.  Q(zeta_d) gets an
    explicit solution when 4 | d or some p | d has even ord_p(2), and
    NO_SOLUTION otherwise: then the local degree of Q(zeta_d) at 2 is odd
    (see ``local_degree_beyond_paper``).
    """
    if isinstance(R, RationalField):
        return NO_SOLUTION
    if isinstance(R, CyclotomicField):
        return _cyclotomic_three_squares(R)
    if isinstance(R, FiniteField) and R.order > 10_000:
        # constants multiply like integers mod p, so a prime-field solution embeds
        return ThreeSquaresSolution(R, *_finite_three_squares(FiniteField(R.p)))
    if R.order is not None:
        return ThreeSquaresSolution(R, *_finite_three_squares(R))
    raise TypeError(f"cannot solve over {R!r}")
