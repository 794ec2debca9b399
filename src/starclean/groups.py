"""Finite groups as dense multiplication tables: abelian groups, the five
SLC presentations, direct products, structural data, and involutions.

Elements are indices 0 .. order-1.  For SLC groups built from a presentation
the index encodes the normal form t_j * a^i * kappa * s^delta, ordered
lexicographically on (j, i, kappa, delta); consequently the center occupies
indices [0, |Z|), the element s is index 1, the transversal {1, x, y, xy}
sits at indices {0, |Z|, 2|Z|, 3|Z|}, and since s is central of order 2 and
delta is the lowest digit, g*s = s*g has index g XOR 1: the s-cosets are the
index pairs (2t, 2t+1), and G/<s> is the table mul[::2, ::2] // 2.

All structures are immutable after construction and safe to share.
"""

from __future__ import annotations

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


def build_abelian(invariant_factors: Iterable[int]) -> FiniteGroup:
    """Direct product of cyclic groups of the given orders.

    Element index is the mixed-radix encoding of the exponent tuple, first
    factor least significant; names follow the pattern ``c1^e1*c2^e2``.
    """
    factors = [int(f) for f in invariant_factors]
    if any(f < 1 for f in factors):
        raise PreconditionError("cyclic factors must be >= 1")
    factors = [f for f in factors if f > 1]
    order = 1
    for f in factors:
        order *= f
    _check_capacity(order)

    idx = np.arange(order)
    digits = []
    rem = idx
    for f in factors:
        digits.append(rem % f)
        rem = rem // f
    table = np.zeros((order, order), dtype=np.int64)
    stride = 1
    for d, f in zip(digits, factors):
        table += ((d[:, None] + d[None, :]) % f) * stride
        stride *= f
    inv = np.zeros(order, dtype=np.int64)
    stride = 1
    for d, f in zip(digits, factors):
        inv += ((-d) % f) * stride
        stride *= f

    names = []
    for i in range(order):
        parts = []
        rem = i
        for pos, f in enumerate(factors):
            rem, e = rem // f, rem % f
            if e:
                gen = f"c{pos + 1}"
                parts.append(gen if e == 1 else f"{gen}^{e}")
        names.append("*".join(parts) if parts else "1")

    gens = {}
    stride = 1
    for pos, f in enumerate(factors):
        gens[f"c{pos + 1}"] = stride
        stride *= f

    return FiniteGroup(
        order=order,
        mul=table.astype(np.int32),
        inverse=inv.astype(np.int32),
        identity=0,
        names=tuple(names),
        generators=gens,
    )


def cyclic_group(n: int) -> FiniteGroup:
    return build_abelian([n])


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
    half_m = m // 2

    # K radices: b, c, then abelian factors; kappa is little-endian mixed radix
    k_radices = []
    k_labels = []
    if uses_b:
        k_radices.append(order_b)
        k_labels.append("b")
    if uses_c:
        k_radices.append(order_c)
        k_labels.append("c")
    for pos, f in enumerate(abelian):
        k_radices.append(f)
        k_labels.append(f"g{pos + 1}")
    ksize = 1
    for f in k_radices:
        ksize *= f
    order = 4 * m * ksize
    _check_capacity(order)

    # index = ((j * half_m + i) * ksize + kappa) * 2 + delta, a-exponent = i + half_m*delta
    idx = np.arange(order)
    delta = idx % 2
    q = idx // 2
    kappa = q % ksize
    q2 = q // ksize
    ii = q2 % half_m
    jj = q2 // half_m
    ea = ii + half_m * delta
    alpha = jj & 1
    beta = jj >> 1

    kd = []
    rem = kappa
    for f in k_radices:
        kd.append(rem % f)
        rem = rem // f

    x2a, x2b, x2c = _X2[ptype]
    y2a, y2b, y2c = _Y2[ptype]
    bpos = k_labels.index("b") if uses_b else None
    cpos = k_labels.index("c") if uses_c else None

    table = np.zeros((order, order), dtype=np.int32)
    chunk = max(1, (1 << 22) // order)
    for start in range(0, order, chunk):
        stop = min(order, start + chunk)
        aA = alpha[start:stop, None]
        bA = beta[start:stop, None]
        aB = alpha[None, :]
        bB = beta[None, :]
        carry_x = aA & aB
        carry_y = bA & bB
        s_extra = bA & aB  # moving y^beta past x^alpha' costs s each swap
        ea_c = ea[start:stop, None] + ea[None, :] + s_extra * half_m
        ea_c = ea_c + carry_x * x2a + carry_y * y2a
        eb_c = None
        if uses_b:
            eb_c = kd[bpos][start:stop, None] + kd[bpos][None, :]
            eb_c = (eb_c + carry_x * x2b + carry_y * y2b) % order_b
        ec_c = None
        if uses_c:
            ec_c = kd[cpos][start:stop, None] + kd[cpos][None, :]
            ec_c = (ec_c + carry_x * x2c + carry_y * y2c) % order_c
        ea_c = ea_c % m
        alpha_c = aA ^ aB
        beta_c = bA ^ bB

        kap_c = np.zeros_like(ea_c)
        stride = 1
        for pos, f in enumerate(k_radices):
            if pos == bpos:
                dc = eb_c
            elif pos == cpos:
                dc = ec_c
            else:
                dc = (kd[pos][start:stop, None] + kd[pos][None, :]) % f
            kap_c += dc * stride
            stride *= f

        i_c = ea_c % half_m
        d_c = ea_c // half_m
        j_c = alpha_c + 2 * beta_c
        table[start:stop] = (((j_c * half_m + i_c) * ksize + kap_c) * 2 + d_c).astype(np.int32)

    inverse = np.argmax(table == 0, axis=1).astype(np.int32)

    names = []
    for g in range(order):
        parts = []
        if alpha[g]:
            parts.append("x")
        if beta[g]:
            parts.append("y")
        if ii[g]:
            parts.append("a" if ii[g] == 1 else f"a^{ii[g]}")
        rem = kappa[g]
        for pos, f in enumerate(k_radices):
            rem, e = rem // f, rem % f
            if e:
                parts.append(k_labels[pos] if e == 1 else f"{k_labels[pos]}^{e}")
        if delta[g]:
            parts.append("s")
        names.append("*".join(parts) if parts else "1")

    zsize = m * ksize
    gens = {"x": zsize, "y": 2 * zsize, "s": 1}
    gens["a"] = 1 if m == 2 else 2 * ksize
    stride = 1
    for pos, f in enumerate(k_radices):
        gens[k_labels[pos]] = 2 * stride
        stride *= f

    group = FiniteGroup(
        order=order,
        mul=table,
        inverse=inverse,
        identity=0,
        names=tuple(names),
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
