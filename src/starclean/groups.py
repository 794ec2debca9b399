"""Finite groups as dense multiplication tables: abelian groups, the five
SLC presentations, direct products, structural data, and involutions.

Elements are indices 0 .. order-1.  For SLC groups built from a presentation
the index encodes the normal form t_j * a^i * kappa * s^delta, ordered
lexicographically on (j, i, kappa, delta).  kappa = kappa_B + |B| kappa_A
splits into the digit kappa_B of B = <b> x <c> (b least significant) and
the index kappa_A of the abelian factor A (its first factor least
significant), so the digit order is (j, i, kappa_A, kappa_B, delta), most
significant first, and build_slc lays A's table over the core's in one
outer sum.  Consequently the center occupies
indices [0, |Z|), the element s is index 1, the transversal {1, x, y, xy}
sits at indices {0, |Z|, 2|Z|, 3|Z|}, and since s is central of order 2 and
delta is the lowest digit, g*s = s*g has index g XOR 1: the s-cosets are the
index pairs (2t, 2t+1), and G/<s> is the table mul[::2, ::2] // 2.

All structures are immutable after construction and safe to share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional

import numpy as np

from .errors import (
    CapacityError,
    InvalidParameterError,
    PreconditionError,
)

DEFAULT_ORDER_CAP = 4096
_EAGER_VALIDATION_CAP = 512


@dataclass(eq=False)
class FiniteGroup:
    """A finite group given by its full multiplication table."""

    order: int
    mul: np.ndarray  # (order, order) int32
    inverse: np.ndarray  # (order,) int32
    identity: int
    names: tuple[str, ...]
    generators: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        self.mul.setflags(write=False)
        self.inverse.setflags(write=False)

    # -- basic operations ---------------------------------------------------
    def mul_idx(self, a: int, b: int) -> int:
        return int(self.mul[a, b])

    def inv_idx(self, a: int) -> int:
        return int(self.inverse[a])

    def power(self, g: int, e: int) -> int:
        if e < 0:
            g, e = self.inv_idx(g), -e
        out = self.identity
        while e:
            if e & 1:
                out = int(self.mul[out, g])
            g = int(self.mul[g, g])
            e >>= 1
        return out

    def element_order(self, g: int) -> int:
        k, h = 1, g
        while h != self.identity:
            h = int(self.mul[h, g])
            k += 1
        return k

    def elements(self) -> range:
        return range(self.order)

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.mul, self.mul.T))

    def index_of(self, name: str) -> int:
        return self.names.index(name)

    def validate(self, force: bool = False) -> None:
        """Check identity, inverses, and associativity (eager up to order 512)."""
        n = self.order
        e = self.identity
        if not (np.array_equal(self.mul[e], np.arange(n)) and np.array_equal(self.mul[:, e], np.arange(n))):
            raise PreconditionError("identity row/column mismatch")
        idx = np.arange(n)
        if not (np.all(self.mul[idx, self.inverse] == e) and np.all(self.mul[self.inverse, idx] == e)):
            raise PreconditionError("inverse array mismatch")
        if n > _EAGER_VALIDATION_CAP and not force:
            return
        for a in range(n):
            left = self.mul[self.mul[a], :]
            right = self.mul[a][self.mul]
            if not np.array_equal(left, right):
                raise PreconditionError(f"associativity fails at element {a}")


@dataclass(eq=False)
class Subgroup:
    """A subgroup as a sorted index set inside a parent group."""

    parent: FiniteGroup
    members: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, g: int) -> bool:
        return g in self._member_set

    def __post_init__(self):
        self._member_set = frozenset(self.members)


class Presentation(str, Enum):
    D1 = "D1"
    D2 = "D2"
    D3 = "D3"
    D4 = "D4"
    D5 = "D5"


# which central generator x^2 and y^2 land on, per presentation
_X2 = {  # (a-exponent, b-exponent, c-exponent)
    Presentation.D1: (0, 0, 0),
    Presentation.D2: (1, 0, 0),
    Presentation.D3: (0, 0, 0),
    Presentation.D4: (1, 0, 0),
    Presentation.D5: (0, 1, 0),
}
_Y2 = {
    Presentation.D1: (0, 0, 0),
    Presentation.D2: (1, 0, 0),
    Presentation.D3: (0, 1, 0),
    Presentation.D4: (0, 1, 0),
    Presentation.D5: (0, 0, 1),
}


@dataclass(eq=False)
class SLCStructure:
    """An SLC group built from one of the five presentations, with its data.

    ``m = 2^k`` is the order of a, ``s = a^(m/2)`` generates the commutator
    subgroup, the center is <a> x K, and the transversal is fixed as
    {1, x, y, xy}.
    """

    group: FiniteGroup
    ptype: Presentation
    k: int
    k2: Optional[int]
    k3: Optional[int]
    abelian: tuple[int, ...]
    m: int
    s: int
    center: Subgroup
    K: Subgroup
    transversal: tuple[int, int, int, int]

    @property
    def ksize(self) -> int:
        return self.K.order

    @property
    def zsize(self) -> int:
        return self.center.order

    def is_q8_type(self) -> bool:
        """True iff the presentation part is D2 with m = 2, i.e. G = Q8 x A."""
        return self.ptype is Presentation.D2 and self.m == 2

    def spec_string(self) -> str:
        parts = []
        if self.ptype is Presentation.D2 and self.k == 1:
            parts.append("Q8")
        else:
            params = [f"k={self.k}"]
            if self.k2:
                params.append(f"k2={self.k2}")
            if self.k3:
                params.append(f"k3={self.k3}")
            parts.append(f"{self.ptype.value}[{','.join(params)}]")
        parts.extend(f"C{n}" for n in self.abelian)
        return "x".join(parts)


def _check_capacity(order: int) -> None:
    if order > DEFAULT_ORDER_CAP:
        raise CapacityError(f"group order {order} exceeds cap {DEFAULT_ORDER_CAP}")


def _abelian_table(factors) -> tuple[np.ndarray, np.ndarray]:
    """Table and inverses of the product of cyclic groups of these orders,
    indexed by the mixed-radix exponent tuple with the first factor least
    significant: one broadcast outer sum per factor."""
    table = np.zeros((1, 1), dtype=np.int32)
    inverse = np.zeros(1, dtype=np.int32)
    for f in factors:
        n, e = table.shape[0], np.arange(f, dtype=np.int32)
        cyc = (e[:, None] + e) % f * n
        table = (cyc[:, None, :, None] + table[None, :, None, :]).reshape(f * n, f * n)
        inverse = ((-e % f * n)[:, None] + inverse).ravel()
    return table, inverse


def _power_tokens(factors, labels) -> list[str]:
    """Names of the exponent tuples in the same mixed radix, each factor's
    power followed by '*': '' for the identity, 'g1^2*g2*', ..."""
    tokens = [""]
    for f, gen in zip(factors, labels):
        powers = [""] + [f"{gen}*" if e == 1 else f"{gen}^{e}*" for e in range(1, f)]
        tokens = [t + p for p in powers for t in tokens]
    return tokens


def build_abelian(invariant_factors: Iterable[int]) -> FiniteGroup:
    """Direct product of cyclic groups of the given orders.

    Element index is the mixed-radix encoding of the exponent tuple, first
    factor least significant; names follow the pattern ``c1^e1*c2^e2``.
    """
    factors = [int(f) for f in invariant_factors]
    if any(f < 1 for f in factors):
        raise PreconditionError("cyclic factors must be >= 1")
    factors = [f for f in factors if f > 1]
    _check_capacity(math.prod(factors))
    table, inverse = _abelian_table(factors)
    labels = [f"c{pos + 1}" for pos in range(len(factors))]
    strides = np.cumprod([1] + factors[:-1]).tolist()
    return FiniteGroup(
        order=table.shape[0],
        mul=table,
        inverse=inverse,
        identity=0,
        names=tuple(t[:-1] or "1" for t in _power_tokens(factors, labels)),
        generators=dict(zip(labels, strides)),
    )


def cyclic_group(n: int) -> FiniteGroup:
    return build_abelian([n])


def _core_table(ptype: Presentation, m: int, order_b: int, order_c: int):
    """Table and inverses of the presentation core <x, y, a, b, c> (b and c
    of order 1 where unused).  Element t_j z, with t_j = x^(j&1) y^(j>>1)
    and z in Z = <a> x <b> x <c>, has index j |Z| + ((i |B| + kappa_B) * 2
    + delta) for a-exponent i + delta m/2 and kappa_B = b-exponent +
    order_b * c-exponent.

    t_j z * t_j' z' = t_(j^j') z z' w(j, j'), where the central word w
    collects the carries x^2, y^2 (`_X2`, `_Y2`) and an s for moving y past
    x; so each of the 16 (j, j') blocks is Z's table shifted by w(j, j'),
    and (t_j z)^-1 = t_j (z w(j, j))^-1.
    """
    half, nZ = m // 2, m * order_b * order_c
    Zt, Zinv = _abelian_table([m, order_b, order_c])
    u = np.arange(nZ)
    lay = (u % m % half * (nZ // m) + u // m) * 2 + u % m // half  # Zt's index -> layout
    Z = np.empty_like(Zt)
    Z[np.ix_(lay, lay)] = lay[Zt]
    inv = np.empty_like(Zinv)
    inv[lay] = lay[Zinv]

    j = np.arange(4, dtype=np.int32)
    a1, b1, a2, b2 = j[:, None] & 1, j[:, None] >> 1, j & 1, j >> 1
    w = [(b1 & a2) * sw + (a1 & a2) * x2 + (b1 & b2) * y2
         for sw, x2, y2 in zip((half, 0, 0), _X2[ptype], _Y2[ptype])]
    W = lay[w[0] % m + m * (w[1] % order_b + order_b * (w[2] % order_c))]  # (4, 4)
    table = Z[Z[None, :, None, :], W[:, None, :, None]] + (j[:, None] ^ j)[:, None, :, None] * nZ
    inverse = inv[Z[u, W.diagonal()[:, None]]] + j[:, None] * nZ
    return table.reshape(4 * nZ, 4 * nZ), inverse.ravel()


def build_slc(
    ptype: Presentation | str,
    k: int,
    k2: Optional[int] = None,
    k3: Optional[int] = None,
    abelian: Iterable[int] = (),
) -> SLCStructure:
    """Construct D_ptype x A with explicit multiplication table.

    The defining relations: [x, y] = s = a^(m/2) with everything else
    central; x^2 and y^2 land on the central generator dictated by the
    presentation (1, a, b, or c).  K is the complement of <a> in the
    center: A for D1/D2, <b> x A for D3/D4, <b> x <c> x A for D5.
    """
    ptype = Presentation(ptype)
    if k < 1:
        raise InvalidParameterError("k must be >= 1")
    uses_b = ptype in (Presentation.D3, Presentation.D4, Presentation.D5)
    uses_c = ptype is Presentation.D5
    if uses_b and (k2 is None or k2 < 1):
        raise InvalidParameterError(f"{ptype.value} requires k2 >= 1")
    if uses_c and (k3 is None or k3 < 1):
        raise InvalidParameterError(f"{ptype.value} requires k3 >= 1")
    if not uses_b and k2 is not None:
        raise InvalidParameterError(f"{ptype.value} does not use k2")
    if not uses_c and k3 is not None:
        raise InvalidParameterError(f"{ptype.value} does not use k3")

    abelian = tuple(int(f) for f in abelian)
    if any(f < 1 for f in abelian):
        raise PreconditionError("cyclic factors must be >= 1")
    abelian = tuple(f for f in abelian if f > 1)

    m = 2**k
    order_b = 2**k2 if uses_b else 1
    order_c = 2**k3 if uses_c else 1
    ksize = order_b * order_c * math.prod(abelian)
    order = 4 * m * ksize
    _check_capacity(order)

    # core index hi * L + lo, with hi = j*m/2 + i and lo = kappa_B*2 + delta;
    # kappa_A slots in between: index = (hi * |A| + kappa_A) * L + lo, and the
    # table is one outer sum of the two tables, computed along whole rows
    A, A_inv = _abelian_table(abelian)
    L, nA = 2 * order_b * order_c, A.shape[0]
    core, core_inv = (c // L * (nA * L) + c % L for c in _core_table(ptype, m, order_b, order_c))
    H = core.shape[0] // L
    core_rows = np.broadcast_to(core.reshape(H, 1, L, H, 1, L), (H, 1, L, H, nA, L))
    A_rows = np.broadcast_to((A * L).reshape(nA, 1, nA, 1), (nA, H, nA, L))
    table = core_rows.reshape(H, 1, L, order) + A_rows.reshape(nA, 1, order)
    inverse = core_inv.reshape(H, 1, L) + (A_inv * L).reshape(1, nA, 1)

    a_labels = [f"g{pos + 1}" for pos in range(len(abelian))]
    k_labels = ["b", "c"][: uses_b + uses_c] + a_labels
    a_powers = _power_tokens([m // 2], ["a"])
    head = [xt + yt + at for yt in ("", "y*") for xt in ("", "x*") for at in a_powers]
    A_names = _power_tokens(abelian, a_labels)
    B_names = _power_tokens([order_b, order_c], ["b", "c"])
    names = tuple(
        (h + b + a + s)[:-1] or "1"
        for h in head
        for a in A_names
        for b in B_names
        for s in ("", "s*")
    )

    zsize = m * ksize
    gens = {"x": zsize, "y": 2 * zsize, "s": 1}
    gens["a"] = 1 if m == 2 else 2 * ksize
    k_radices = [f for f in (order_b, order_c) if f > 1] + list(abelian)
    for label, stride in zip(k_labels, np.cumprod([1] + k_radices[:-1]).tolist()):
        gens[label] = 2 * stride

    group = FiniteGroup(
        order=order,
        mul=table.reshape(order, order),
        inverse=inverse.reshape(order),
        identity=0,
        names=names,
        generators=gens,
    )

    center_sub = Subgroup(group, tuple(range(zsize)))
    k_sub = Subgroup(group, tuple(2 * t for t in range(ksize)))
    return SLCStructure(
        group=group,
        ptype=ptype,
        k=k,
        k2=k2 if uses_b else None,
        k3=k3 if uses_c else None,
        abelian=abelian,
        m=m,
        s=1,
        center=center_sub,
        K=k_sub,
        transversal=(0, zsize, 2 * zsize, 3 * zsize),
    )


def direct_product(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    """Componentwise product; index of (g, h) is g * |H| + h."""
    order = G.order * H.order
    _check_capacity(order)
    nh = H.order
    table = (G.mul[:, :, None, None].astype(np.int64) * nh + H.mul[None, None, :, :]).transpose(
        0, 2, 1, 3
    ).reshape(order, order)
    inverse = (G.inverse.astype(np.int64)[:, None] * nh + H.inverse[None, :]).reshape(order)
    if G.order == 1:
        names = H.names
    elif H.order == 1:
        names = G.names
    else:
        names = tuple(
            f"({G.names[g]},{H.names[h]})" for g in range(G.order) for h in range(H.order)
        )
    return FiniteGroup(
        order=order,
        mul=table.astype(np.int32),
        inverse=inverse.astype(np.int32),
        identity=G.identity * nh + H.identity,
        names=names,
    )


# --------------------------------------------------------------------------
# structural computations
# --------------------------------------------------------------------------

def center(G: FiniteGroup) -> Subgroup:
    """Exact center by full commutation check."""
    members = [g for g in range(G.order) if np.array_equal(G.mul[g], G.mul[:, g])]
    return Subgroup(G, tuple(members))


def element_orders(G: FiniteGroup) -> np.ndarray:
    """Orders of all elements (vectorised power walk)."""
    n = G.order
    orders = np.zeros(n, dtype=np.int64)
    current = np.arange(n)
    base = np.arange(n)
    k = 1
    while np.any(orders == 0):
        done = (current == G.identity) & (orders == 0)
        orders[done] = k
        current = G.mul[current, base]
        k += 1
        if k > n + 1:
            raise PreconditionError("not a group: an element has unbounded order")
    return orders


# --------------------------------------------------------------------------
# involutions
# --------------------------------------------------------------------------

@dataclass(eq=False)
class InvolutionMap:
    """An order <= 2 antiautomorphism of a group, as an index permutation."""

    group: FiniteGroup
    image: np.ndarray

    def __post_init__(self):
        self.image = np.asarray(self.image, dtype=np.int32)
        self.image.setflags(write=False)

    def check(self) -> bool:
        img = self.image
        G = self.group
        if not np.array_equal(img[img], np.arange(G.order)):
            return False
        lhs = img[G.mul]  # (gh)*
        rhs = G.mul[np.ix_(img, img)].T  # h* g*
        return bool(np.array_equal(lhs, rhs))

    def validate(self) -> None:
        if not self.check():
            raise PreconditionError("not an antiautomorphism of order <= 2")

    def orbits(self) -> list[tuple[int, ...]]:
        """Orbits {g, g*} sorted by smallest member."""
        out = []
        seen = set()
        for g in range(self.group.order):
            if g in seen:
                continue
            h = int(self.image[g])
            seen.add(g)
            seen.add(h)
            out.append((g,) if h == g else (g, h))
        return out


def canonical_involution(S: SLCStructure) -> InvolutionMap:
    """Fixes the center pointwise and sends non-central g to s*g."""
    G = S.group
    idx = np.arange(G.order)
    central = idx < S.zsize  # center occupies the leading index block
    image = np.where(central, idx, G.mul[S.s, idx])
    inv = InvolutionMap(G, image)
    inv.validate()
    return inv


def classical_involution(G: FiniteGroup) -> InvolutionMap:
    """g -> g^-1."""
    inv = InvolutionMap(G, G.inverse.copy())
    inv.validate()
    return inv
