"""Group-ring arithmetic RG with involution extension, idempotent/unit/
projection predicates, the one unit test and the one lexicographic
candidate stream on code rows, and projection sets by construction.

Elements are dense coefficient tuples indexed by group element.  alpha is
a unit iff its left regular representation is invertible over R.  Over a
finite ring every unit test runs on code rows through `unit_halves`: on a
group with the SLC index layout the e/f halves alpha*e and alpha*f, two
|G|/2 representations (`_half_index`), else one block of |G|, each
eliminated in batched stacks (`_linalg`).  `is_unit`, the scan and the
single-element search of `decide` all share it.  Over Q and Q(zeta_d) the
whole representation is eliminated on payloads.  Batched products of code
rows (`batch_convolve`) are one gathered integer contraction, reduced once.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from . import _linalg
from .coeff import CoefficientRing, Payload
from .errors import BudgetError, CarrierMismatchError, PreconditionError
from .groups import FiniteGroup, InvolutionMap

class GroupRingElement:
    """An element of RG as an immutable dense coefficient vector with its
    exact support: the ascending indices of its nonzero coefficients.
    Arithmetic, comparison and the zero test run over supports only."""

    __slots__ = ("group", "ring", "coeffs", "_support", "_hash")

    def __init__(self, group: FiniteGroup, ring: CoefficientRing, coeffs, support=None):
        self.group = group
        self.ring = ring
        self.coeffs = tuple(coeffs)
        if len(self.coeffs) != group.order:
            raise CarrierMismatchError("coefficient vector length != group order")
        if support is None:
            is_zero = ring.is_zero
            support = tuple(g for g, c in enumerate(self.coeffs) if not is_zero(c))
        self._support = support
        self._hash = None

    # -- plumbing ------------------------------------------------------------
    def _check(self, other: "GroupRingElement") -> None:
        if self.group is not other.group or self.ring != other.ring:
            raise CarrierMismatchError("elements live over different carriers")

    def _from_terms(self, terms: dict) -> "GroupRingElement":
        """The element with coefficient terms[g] at each g; terms that
        cancelled to zero leave the support."""
        R = self.ring
        out = [R.zero] * self.group.order
        support = tuple(g for g in sorted(terms) if not R.is_zero(terms[g]))
        for g in support:
            out[g] = terms[g]
        return GroupRingElement(self.group, R, out, support)

    def _terms(self) -> dict:
        c = self.coeffs
        return {g: c[g] for g in self._support}

    def __eq__(self, other):
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        return (
            self.group is other.group
            and self.ring == other.ring
            and self._support == other._support
            and all(a[g] == b[g] for g in self._support)
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.coeffs)
        return self._hash

    def __repr__(self):
        return f"<{self.to_string()} over {self.ring!r}>"

    def to_string(self) -> str:
        R = self.ring
        terms = []
        for g in self._support:
            name = self.group.names[g]
            cs = R.fmt(self.coeffs[g])
            if name == "1":
                terms.append(cs)
            elif cs == "1":
                terms.append(name)
            else:
                terms.append(f"({cs})*{name}")
        return " + ".join(terms) if terms else "0"

    def to_dict(self) -> dict[str, str]:
        """JSON form {element_name: coefficient_string}, zeros omitted."""
        fmt, names, c = self.ring.fmt, self.group.names, self.coeffs
        return {names[g]: fmt(c[g]) for g in self._support}

    # -- arithmetic ------------------------------------------------------------
    def __add__(self, other):
        self._check(other)
        R = self.ring
        terms = self._terms()
        for h, c in other._terms().items():
            terms[h] = R.add(terms[h], c) if h in terms else c
        return self._from_terms(terms)

    def __sub__(self, other):
        self._check(other)
        R = self.ring
        terms = self._terms()
        for h, c in other._terms().items():
            terms[h] = R.sub(terms[h], c) if h in terms else R.neg(c)
        return self._from_terms(terms)

    def __neg__(self):
        R = self.ring
        return self._from_terms({g: R.neg(c) for g, c in self._terms().items()})

    def __mul__(self, other):
        self._check(other)
        R = self.ring
        a, b = self.coeffs, other.coeffs
        left, right = self._support, other._support
        terms: dict = {}
        if left and right:
            for g, row in zip(left, self.group.mul.take(left, 0).take(right, 1).tolist()):
                cg = a[g]
                for h, k in zip(right, row):
                    t = R.mul(cg, b[h])
                    terms[k] = R.add(terms[k], t) if k in terms else t
        return self._from_terms(terms)

    def scale(self, r: Payload) -> "GroupRingElement":
        R = self.ring
        return self._from_terms({g: R.mul(r, c) for g, c in self._terms().items()})

    def pow_int(self, e: int) -> "GroupRingElement":
        if e < 0:
            raise PreconditionError("negative powers need unit_inverse")
        ring_ctx = GroupRing(self.group, self.ring)
        out = ring_ctx.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def support(self) -> tuple[int, ...]:
        return self._support

    def is_zero(self) -> bool:
        return not self._support

    def is_central(self) -> bool:
        """Commutes with every group element basis vector, i.e. has one
        coefficient on each conjugacy class.  Only the classes of the support
        need checking: the support of a central element is a union of
        classes, and every other class carries 0."""
        mul = self.group.mul
        inv = self.group.inverse
        coeffs = self.coeffs
        for g in self.support():
            c = coeffs[g]
            # h g h^-1 for every h
            if any(coeffs[k] != c for k in np.unique(mul[mul[:, g], inv]).tolist()):
                return False
        return True


@dataclass(eq=False)
class GroupRing:
    """Carrier pair (G, R) with element factories and counting."""

    group: FiniteGroup
    ring: CoefficientRing

    def zero(self) -> GroupRingElement:
        return GroupRingElement(self.group, self.ring, [self.ring.zero] * self.group.order, ())

    def one(self) -> GroupRingElement:
        return self.basis(self.group.identity)

    def basis(self, g: int) -> GroupRingElement:
        R = self.ring
        coeffs = [R.zero] * self.group.order
        coeffs[g] = R.one
        return GroupRingElement(self.group, R, coeffs, (int(g),))

    def from_coeffs(self, coeffs) -> GroupRingElement:
        return GroupRingElement(self.group, self.ring, coeffs)

    def from_dict(self, d: dict[str, Payload]) -> GroupRingElement:
        out = [self.ring.zero] * self.group.order
        for name, c in d.items():
            out[self.group.index_of(name)] = c
        return GroupRingElement(self.group, self.ring, out)

    def element_count(self) -> Optional[int]:
        if self.ring.order is None:
            return None
        return self.ring.order ** self.group.order

    def random_element(self, rng) -> GroupRingElement:
        if self.ring.order is None:
            raise BudgetError("cannot sample from an infinite ring")
        R = self.ring
        return self.from_coeffs(
            R.decode(int(rng.integers(0, R.order))) for _ in range(self.group.order)
        )


# --------------------------------------------------------------------------
# involution extension and predicates
# --------------------------------------------------------------------------

def apply_involution(sigma: InvolutionMap, alpha: GroupRingElement) -> GroupRingElement:
    """Linear extension: sum of alpha_g * sigma(g)."""
    if sigma.group is not alpha.group:
        raise CarrierMismatchError("involution is on a different group")
    out = [alpha.ring.zero] * alpha.group.order
    for g, c in enumerate(alpha.coeffs):
        out[int(sigma.image[g])] = c
    return GroupRingElement(alpha.group, alpha.ring, out)


def is_idempotent(alpha: GroupRingElement) -> bool:
    return alpha * alpha == alpha


def is_projection(alpha: GroupRingElement, sigma: InvolutionMap) -> bool:
    return is_idempotent(alpha) and apply_involution(sigma, alpha) == alpha


def _regrep_index(G: FiniteGroup) -> np.ndarray:
    # T[k, h] = k * h^-1, so that codes[T] is the left regular representation
    return G.mul[:, G.inverse]


def _half_index(G: FiniteGroup) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Tables of the halves RGe and (RG)f, e and f = (1 +- s)/2, for a group
    with the SLC index layout: identity 0 and index 1 a central involution s
    with g*s = s*g = g XOR 1 (see `groups`); None for any other group.

    Over the cosets t of <s> (index pairs 2t, 2t+1), alpha*e is the element
    y = c[0::2] + c[1::2] of R[G/<s>], whose table is Q = mul[::2, ::2] // 2,
    and alpha*f is x = c[0::2] - c[1::2] in the basis (2t)f.  There (2t)f *
    (2h)f is the basis element of the coset of (2t)(2h), negated when
    (2t)(2h) is odd, as s f = -f.  Returns (Q, T, neg), T[k, h] = k * h^-1
    in G/<s>: the representations are y[T], and x[T] negated where neg holds.
    """
    n = G.order
    flip = np.arange(n) ^ 1
    if n % 2 or G.identity != 0 or not (
        np.array_equal(G.mul[1], flip) and np.array_equal(G.mul[:, 1], flip)
    ):
        return None
    Q = G.mul[::2, ::2]
    T = (Q // 2)[:, G.inverse[::2] // 2]
    return Q // 2, T, (Q % 2)[T, np.arange(n // 2)] == 1


# int64 cells of the stacked GF(p)-matrices per elimination: bounded memory
_KERNEL_CELLS = 1 << 16
_HALVES = weakref.WeakKeyDictionary()  # unit_halves(G) by group


class Half:
    """One half of the unit test on code rows.  On a group with the SLC
    index layout (`_half_index`) alpha is a unit iff alpha*e is one of RGe =
    R[G/<s>] (sign 1) and alpha*f one of (RG)f (sign -1), as 2 is a unit of
    R; any other group has one half, alpha itself (sign 0).  `table` is the
    group table of the half's basis, G/<s> or G, and `T` indexes a half row
    into its regular representation, for alpha*f the row [x, -x]."""

    def __init__(self, sign: int, table: np.ndarray, T: np.ndarray):
        self.sign, self.table, self.T = sign, table, T

    def rows(self, vec, codes: np.ndarray) -> np.ndarray:
        """The half rows of code rows: c[0::2] +- c[1::2], or the codes."""
        if not self.sign:
            return codes
        odd = codes[:, 1::2]
        return vec.add(codes[:, 0::2], odd if self.sign > 0 else vec.neg(odd))

    def scatter(self, R: CoefficientRing, rows: np.ndarray) -> np.ndarray:
        """The code rows of RG inside this half with these half rows: y*e
        is y/2 on both indices of each pair, x*f is x/2 and -x/2."""
        if not self.sign:
            return rows
        half = R.vec.mul(rows, R.encode(R.half))
        pair = [half, half if self.sign > 0 else R.vec.neg(half)]
        return np.stack(pair, axis=2).reshape(rows.shape[0], -1)

    def representations(self, R: CoefficientRing, rows: np.ndarray) -> np.ndarray:
        """The regular representations of half rows, a stack of code matrices."""
        if self.sign < 0:
            rows = np.concatenate([rows, R.vec.neg(rows)], axis=1)
        return rows[:, self.T]


def half_units(R: CoefficientRing, halves: Sequence[Half], rows: list[np.ndarray]) -> np.ndarray:
    """Mask of the elements that are units on every half, given their half
    rows `rows[j]` on `halves[j]`: the halves' representations eliminate as
    one batched stack, in stacks of at most _KERNEL_CELLS cells (after the
    GF(p^k) expansion over GF(p))."""
    step = max(1, _KERNEL_CELLS // (len(halves) * halves[0].T.size * getattr(R, "k", 1) ** 2))
    return np.concatenate([
        _linalg.is_invertible_codes(
            R, np.concatenate([h.representations(R, r[i : i + step]) for h, r in zip(halves, rows)])
        ).reshape(len(halves), -1).all(axis=0)
        for i in range(0, rows[0].shape[0], step)
    ])


def unit_halves(G: FiniteGroup) -> tuple[Half, ...]:
    """G's halves: alpha*e and alpha*f on the SLC index layout, else alpha;
    built once per group, which hashes by identity and is read-only."""
    if G not in _HALVES:
        split = _half_index(G)
        if split is None:
            _HALVES[G] = (Half(0, G.mul, _regrep_index(G)),)
        else:
            Q, T, neg = split
            _HALVES[G] = (Half(1, Q, T), Half(-1, Q, T + T.shape[0] * neg))
    return _HALVES[G]


def unit_mask(R: CoefficientRing, halves: Sequence[Half], codes: np.ndarray) -> np.ndarray:
    """Unit mask of code rows of RG over a finite R: a unit on every half."""
    return half_units(R, halves, [h.rows(R.vec, codes) for h in halves])


def _canonical_center(G: FiniteGroup, sigma: InvolutionMap) -> Optional[int]:
    """|Z(G)| if G has the SLC index layout (`_half_index`), Z(G) leads the
    indices and sigma has the canonical image (g for central g, else g*s,
    index g XOR 1), else None.  Then RG = RGe + (RG)f as rings with
    involution, the identity on RGe = R[G/<s>], conjugation on (RG)f."""
    idx = np.arange(G.order)
    central = (G.mul == G.mul.T).all(axis=1)
    nz = int(central.sum())
    canonical = np.array_equal(sigma.image, np.where(central, idx, idx ^ 1))
    ok = canonical and central[:nz].all() and len(unit_halves(G)) == 2 and sigma.check()
    return nz if ok else None


def _character_idempotents(mul: np.ndarray, R: CoefficientRing) -> tuple[np.ndarray, np.ndarray]:
    """(E, cols) for the commutative R[A] of the table `mul`: the code rows
    e_chi = |W|^-1 sum chi(w) w, one per sign character chi of the elements
    W of order <= 2, orthogonal idempotents summing to 1 (2 is a unit of R);
    cols[i, j] = t_i w_j, t_i the least of the i-th coset of W.  R[A]e_chi
    is the span of the t_i e_chi, with coefficient e_chi(w_j) at cols[i, j]."""
    W = [0]
    for w in np.flatnonzero(mul.diagonal() == 0).tolist():
        if w not in W:  # W[j] is the product of the w picked at the bits of j
            W += mul[W, w].tolist()
    bits = np.arange(len(W))
    odd = np.bitwise_count(bits[:, None] & bits) % 2  # chi_i(W[j]) = (-1)^odd
    scale = R.encode(R.pow(R.half, len(W).bit_length() - 1))
    E = np.zeros((len(W), mul.shape[0]), dtype=np.int64)
    E[:, W] = np.where(odd, R.vec.neg(scale), scale)
    return E, mul[np.ix_(np.unique(mul[:, W].min(axis=1)), W)]


def commutative_idempotents(
    mul: np.ndarray, R: CoefficientRing, s: Optional[int] = None
) -> np.ndarray:
    """The idempotents of the commutative R[A] of the table `mul` (identity
    0) as code rows, unsorted; with `s`, those of R[A](1 - s)/2.  Each sums
    one idempotent per component R[A]e_chi (`_character_idempotents`; e_chi
    s = -e_chi if `s` is given), found by the candidate filter over |A/W|."""
    n = mul.shape[0]
    RA = GroupRing(FiniteGroup(n, mul, np.argmax(mul == 0, axis=1), 0, ("",) * n), R)
    E, cols = _character_idempotents(mul, R)
    out = np.zeros((1, n), dtype=np.int64)
    for e in E:
        if s is not None and e[s] == e[0]:
            continue

        def scatter(vals: np.ndarray, e=e[cols[0]]) -> np.ndarray:
            C = np.zeros((vals.shape[0], n), dtype=np.int64)
            C[:, cols] = R.vec.mul(vals[:, :, None], e)
            return C

        chunks, _ = candidate_rows(RA, scatter, cols.shape[0], R.order ** cols.shape[0])
        out = R.vec.add(out[:, None], np.concatenate(list(chunks))[None]).reshape(-1, n)
    return out


def projection_rows(RG: GroupRing, sigma: InvolutionMap) -> Optional[np.ndarray]:
    """The projections of RG as sorted code rows, built from the two sides
    when `_canonical_center` applies (else None): y*e for each idempotent y
    of R[G/<s>], y/2 on both indices of each pair, plus eps*f = eps for each
    idempotent eps of R[Z(G)](1 - s)/2."""
    G, R = RG.group, RG.ring
    nz = _canonical_center(G, sigma)
    if nz is None:
        return None
    e = unit_halves(G)[0]
    E = e.scatter(R, commutative_idempotents(e.table, R))
    F = f_projection_rows(G, R, nz)
    return np.unique(R.vec.add(E[:, None], F[None]).reshape(-1, G.order), axis=0)


def f_projection_rows(G: FiniteGroup, R: CoefficientRing, nz: int) -> np.ndarray:
    """The projections eps*f = eps of (RG)f, eps an idempotent of R[Z(G)](1 - s)/2,
    as code rows of RG, unsorted; Z(G) is the first `nz` indices, s index 1."""
    return np.pad(commutative_idempotents(G.mul[:nz, :nz], R, s=1), ((0, 0), (0, G.order - nz)))


def regular_representation(alpha: GroupRingElement) -> list[list[Payload]]:
    """Matrix of left multiplication by alpha in the group basis, as payload
    rows for the infinite rings Q and Q(zeta_d).

    Row k, column h holds the coefficient of alpha at k * h^-1, so that
    M @ vec(beta) = vec(alpha * beta).
    """
    return [[alpha.coeffs[h] for h in row] for row in _regrep_index(alpha.group).tolist()]


def _codes(alpha: GroupRingElement) -> np.ndarray:
    return np.array([alpha.ring.encode(c) for c in alpha.coeffs], dtype=np.int64)


def is_unit(alpha: GroupRingElement) -> bool:
    """alpha is a unit iff left multiplication by it is invertible over R;
    over a finite R, on each half of `unit_halves`."""
    R = alpha.ring
    if R.order is None:
        return _linalg.is_invertible(R, regular_representation(alpha))
    return bool(unit_mask(R, unit_halves(alpha.group), _codes(alpha)[None])[0])


def unit_inverse(alpha: GroupRingElement) -> Optional[GroupRingElement]:
    """Two-sided inverse recovered from the regular representation, or None."""
    G = alpha.group
    R = alpha.ring
    rhs = [R.one if k == G.identity else R.zero for k in range(G.order)]
    if R.order is None:
        sol = _linalg.solve_column(R, regular_representation(alpha), rhs)
    else:
        sol = _linalg.solve_column(R, _codes(alpha)[_regrep_index(G)], [R.encode(c) for c in rhs])
        sol = None if sol is None else [R.decode(c) for c in sol]
    if sol is None:
        return None
    beta = GroupRingElement(G, R, sol)
    if not (alpha * beta == GroupRing(G, R).one() and beta * alpha == GroupRing(G, R).one()):
        raise AssertionError("regular-representation inverse failed to verify")
    return beta


# codes per block of a candidate stream: bounded memory
_CONVOLVE_CELLS = 1 << 15
# cells of each gathered temporary of batch_convolve (rows x g x |G|)
_GATHER_CELLS = 1 << 16


# --------------------------------------------------------------------------
# batched helpers on int-code matrices
# --------------------------------------------------------------------------

def batch_convolve(RG: GroupRing, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Row-wise group-ring products of paired rows of A and B (code matrices);
    a single-row B multiplies every row of A.  out[:, h] = sum of A[:, g] *
    B[:, g^-1 h] over the columns g that some row of A uses: one gathered
    contraction of the ring's wide products (see `VecOps`), reduced once, in
    slices of at most `wide_terms` g and temporaries of _GATHER_CELLS cells."""
    vec = RG.ring.vec
    G = RG.group
    used = np.flatnonzero(A.any(axis=0))
    left = G.mul[G.inverse[used]]  # left[j, h] = used[j]^-1 h
    span = max(1, min(used.size, vec.wide_terms))
    rows = max(1, _GATHER_CELLS // (span * G.order))
    out = np.zeros_like(A)
    for r in range(0, A.shape[0], rows):
        # g-major copies, so that the contraction runs along contiguous rows
        a = A[r : r + rows].T[used]
        b = np.ascontiguousarray((B if B.shape[0] == 1 else B[r : r + rows]).T)
        for s in range(0, used.size, span):
            g = slice(s, s + span)
            part = vec.wide_reduce(vec.wide_mul(a[g, None], b[left[g]]).sum(axis=0)).T
            out[r : r + rows] = part if s == 0 else vec.add(out[r : r + rows], part)
    return out


def batch_idempotent_mask(RG: GroupRing, C: np.ndarray) -> np.ndarray:
    return (batch_convolve(RG, C, C) == C).all(axis=1)


# --------------------------------------------------------------------------
# the candidate stream
# --------------------------------------------------------------------------

def counter_digits(counters: np.ndarray, q: int, width: int, lex: bool = False) -> np.ndarray:
    """Base-q digits of each counter, least significant first; with `lex`,
    most significant first, so consecutive counters give rows in
    lexicographic order."""
    out = np.empty((counters.shape[0], width), dtype=np.int64)
    rem = counters.astype(np.int64)
    for i in range(width - 1, -1, -1) if lex else range(width):
        out[:, i] = rem % q
        rem //= q
    return out


def _sampled_values(q: int, dims: int, samples: int, low_support_limit: int, seed: int):
    """The low-index-support stratum, then `samples` uniform draws."""
    low = 1
    while low < dims and q ** (low + 1) <= low_support_limit:
        low += 1
    stratum = np.zeros((q**low, dims), dtype=np.int64)
    stratum[:, :low] = counter_digits(np.arange(q**low), q, low)
    rng = np.random.default_rng(seed)
    return [stratum, rng.integers(0, q, size=(samples, dims))]


def candidate_rows(
    RG: GroupRing,
    scatter,  # callable: value matrix (N, dims) -> code matrix (N, |G|)
    dims: int,
    limit: int,
    samples: Optional[int] = None,
    low_support_limit: int = 0,
    seed: int = 0,
    keep=batch_idempotent_mask,  # callable: (RG, code matrix) -> row mask
) -> tuple[Iterator[np.ndarray], bool]:
    """The rows of scatter(v) for v over R^dims that pass `keep`, one array
    per block of _CONVOLVE_CELLS // |G| values, each enumerated, scattered
    and filtered as the blocks are consumed, plus an exhaustiveness flag.

    Within `limit` candidates the values run in lexicographic order (first
    coordinate slowest).  Beyond it, with `samples` given, the candidates are
    the low-index-support stratum of at most `low_support_limit` values plus
    `samples` seeded uniform draws, and rows may repeat; without `samples`
    this raises BudgetError at the call, before any block is computed.
    """
    q = RG.ring.order
    if q is None:
        raise BudgetError(f"{RG.ring!r} is infinite; enumeration impossible")
    card = q**dims
    step = max(1, _CONVOLVE_CELLS // RG.group.order)
    if card <= limit:
        blocks = (
            counter_digits(np.arange(start, min(card, start + step)), q, dims, lex=True)
            for start in range(0, card, step)
        )
        full = True
    elif samples is None:
        raise BudgetError(f"|R|^{dims} = {card} exceeds budget {limit}", cardinality=card)
    else:
        blocks = (
            values[start : start + step]
            for values in _sampled_values(q, dims, samples, low_support_limit, seed)
            for start in range(0, values.shape[0], step)
        )
        full = False

    def chunks() -> Iterator[np.ndarray]:
        for values in blocks:
            C = scatter(values)
            yield C[keep(RG, C)]

    return chunks(), full
