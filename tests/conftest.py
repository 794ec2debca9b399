"""Shared fixtures, plus the oracles that the runtime does not need:
exhaustive enumeration of RG, dense group-ring arithmetic over all |G|
coefficients, the per-group-element convolution, the GF(p^k) digit
product reduced digit by digit, the plain least-irreducible search, the
unsplit unit test on the whole regular representation, the
element-by-element brute-force scan, the block-by-block witness
condition-2 check, Theorem B's biconditional, the closed-form involution
on (RG)f, the problem element of a witness, the single-formula SLC table,
and the group-theoretic checks on built groups."""

import itertools

import numpy as np
import pytest
from hypothesis import settings

from starclean import _linalg, canonical as cn, coeff, groups, groupring as gr, witness as wt
from starclean.decide import BruteReport, Reason, Status, Verdict
from starclean.errors import (
    BudgetError,
    CapacityError,
    InvalidParameterError,
    PreconditionError,
)

settings.register_profile("suite", deadline=None, max_examples=30)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def q8():
    return groups.build_slc(groups.Presentation.D2, 1)


@pytest.fixture(scope="session")
def d4():
    # the dihedral group of order 8 as the type-1 presentation
    return groups.build_slc(groups.Presentation.D1, 1)


@pytest.fixture(scope="session")
def f3():
    return coeff.FiniteField(3)


@pytest.fixture(scope="session")
def f5():
    return coeff.FiniteField(5)


@pytest.fixture(scope="session")
def z9():
    return coeff.ModRing(9)


@pytest.fixture(scope="session")
def qq():
    return coeff.RationalField()


@pytest.fixture(scope="session")
def central_ef():
    """(S, R) -> the central idempotents e = (1+s)/2 and f = (1-s)/2 of RG."""
    def build(S, R):
        RG = gr.GroupRing(S.group, R)
        one, s = RG.one(), RG.basis(S.s)
        return (one + s).scale(R.half), (one - s).scale(R.half)
    return build


def group_from_permutations(perms):
    """Independent oracle: close a set of permutation tuples under
    composition and return the multiplication table group."""
    n = len(perms[0])
    identity = tuple(range(n))
    elements = [identity]
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for a in frontier:
            for p in perms:
                c = tuple(a[p[i]] for i in range(n))
                if c not in seen:
                    seen.add(c)
                    elements.append(c)
                    nxt.append(c)
        frontier = nxt
    index = {e: i for i, e in enumerate(elements)}
    order = len(elements)
    table = np.zeros((order, order), dtype=np.int32)
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            table[i, j] = index[tuple(a[b[k]] for k in range(len(b)))]
    return group_from_table(table)


@pytest.fixture(scope="session")
def s3():
    return group_from_permutations([(1, 0, 2), (1, 2, 0)])


@pytest.fixture(scope="session")
def dihedral8_perms():
    # symmetries of the square acting on its vertices
    return group_from_permutations([(1, 2, 3, 0), (1, 0, 3, 2)])


# ---------------------------------------------------------------- oracles

def group_from_table(table, names=None):
    """A FiniteGroup from a raw multiplication table, validated eagerly."""
    mul = np.asarray(table, dtype=np.int32)
    n = mul.shape[0]
    if mul.shape != (n, n):
        raise PreconditionError("table must be square")
    identity = next(
        (e for e in range(n)
         if np.array_equal(mul[e], np.arange(n)) and np.array_equal(mul[:, e], np.arange(n))),
        None,
    )
    if identity is None:
        raise PreconditionError("no identity element")
    G = groups.FiniteGroup(
        order=n,
        mul=mul,
        inverse=np.argmax(mul == identity, axis=1).astype(np.int32),
        identity=identity,
        names=tuple(names) if names is not None else tuple(f"g{i}" for i in range(n)),
    )
    G.validate()
    return G


def is_closed(H):
    """The member set of a Subgroup holds the identity, inverses and products."""
    G = H.parent
    s = set(H.members)
    return G.identity in s and all(
        G.inv_idx(a) in s and all(G.mul_idx(a, b) in s for b in H.members) for a in H.members
    )


def commutator_subgroup(G):
    """The subgroup generated by all commutators g^-1 h^-1 g h."""
    seen = {G.identity}
    frontier = [G.identity]
    comms = {
        G.mul_idx(G.mul_idx(G.mul_idx(G.inv_idx(g), G.inv_idx(h)), g), h)
        for g in range(G.order)
        for h in range(G.order)
    }
    while frontier:
        frontier = [G.mul_idx(a, c) for a in frontier for c in comms]
        frontier = [b for b in dict.fromkeys(frontier) if b not in seen]
        seen.update(frontier)
    return groups.Subgroup(G, tuple(sorted(seen)))


def is_slc(G):
    """True iff G / Z(G) is the Klein four-group."""
    Z = groups.center(G)
    return G.order == 4 * Z.order and all(G.mul_idx(g, g) in Z for g in range(G.order))


def pw_mass(pw):
    """Dimension of FA counted from a Perlis-Walker decomposition."""
    return sum(a * deg for _, a, deg in pw.components)


def from_ints(RG, coeffs):
    return RG.from_coeffs(RG.ring.from_int(c) for c in coeffs)


def enumerate_elements(RG, budget=1 << 23):
    """All of RG in counter order (identity coefficient varies fastest)."""
    count = RG.element_count()
    if count is None or count > budget:
        raise BudgetError(f"|R|^|G| = {count} exceeds budget {budget}", cardinality=count)
    R = RG.ring
    for codes in itertools.product(range(R.order), repeat=RG.group.order):
        yield RG.from_coeffs(R.decode(c) for c in reversed(codes))


def reference_add(a, b):
    """a + b over all |G| coefficients."""
    R = a.ring
    return gr.GroupRingElement(a.group, R, (R.add(x, y) for x, y in zip(a.coeffs, b.coeffs)))


def reference_sub(a, b):
    """a - b over all |G| coefficients."""
    R = a.ring
    return gr.GroupRingElement(a.group, R, (R.sub(x, y) for x, y in zip(a.coeffs, b.coeffs)))


def reference_scale(a, r):
    """r * a over all |G| coefficients."""
    R = a.ring
    return gr.GroupRingElement(a.group, R, (R.mul(r, c) for c in a.coeffs))


def reference_mul(a, b):
    """a * b: every nonzero coefficient of a against every nonzero
    coefficient of b, accumulated into a dense vector."""
    R = a.ring
    mul = a.group.mul
    is_zero = R.is_zero
    out = [R.zero] * a.group.order
    right = [(h, ch) for h, ch in enumerate(b.coeffs) if not is_zero(ch)]
    for g, cg in enumerate(a.coeffs):
        if is_zero(cg):
            continue
        row = mul[g]
        for h, ch in right:
            k = int(row[h])
            out[k] = R.add(out[k], R.mul(cg, ch))
    return gr.GroupRingElement(a.group, R, out)


def reference_is_unit(alpha):
    """Unit test without the e/f split: one elimination of the whole |G| x
    |G| regular representation codes[G.mul[:, G.inverse]] over a finite
    ring."""
    R, G = alpha.ring, alpha.group
    codes = np.array([R.encode(c) for c in alpha.coeffs], dtype=np.int64)
    return bool(_linalg.is_invertible_codes(R, codes[G.mul[:, G.inverse]][None])[0])


def reference_gf_mul_digits(A, B, rows, p):
    """The GF(p^k) product of base-p digit arrays (..., k) with every
    partial sum reduced mod p as soon as a digit product or a reduction row
    joins it, folded back below x^k by the reduction rows `rows`."""
    k = rows.shape[1]
    conv = np.zeros(np.broadcast_shapes(A.shape, B.shape)[:-1] + (2 * k - 1,), dtype=np.int64)
    for i in range(k):
        conv[..., i : i + k] = (conv[..., i : i + k] + A[..., i, None] * B) % p
    out = conv[..., :k]
    for i in range(k - 1):
        out = (out + conv[..., k + i, None] * rows[i]) % p
    return out


def reference_least_irreducible(p, k):
    """The plain search for the least monic irreducible of degree k over
    F_p: a Rabin test on every candidate in the base-p digit order of 0, 1,
    2, ... (constant term first), binomials x^k + c included."""
    for n in range(p**k):
        candidate = tuple(n // p**i % p for i in range(k)) + (1,)
        if coeff._is_irreducible(candidate, p):
            return candidate
    raise AssertionError("no irreducible polynomial found")


def reference_convolve(RG, A, B):
    """Row-wise products of code rows, one modular update per group element
    g: out[:, g h] += A[:, g] * B[:, h] by the ring's `vec` add and mul."""
    vec = RG.ring.vec
    out = np.zeros_like(A)
    for g in range(RG.group.order):
        perm = RG.group.mul[g]
        out[:, perm] = vec.add(out[:, perm], vec.mul(A[:, g, None], B))
    return out


# which central generator x^2 and y^2 land on: (a-, b-, c-exponent)
_REF_X2 = {"D1": (0, 0, 0), "D2": (1, 0, 0), "D3": (0, 0, 0), "D4": (1, 0, 0), "D5": (0, 1, 0)}
_REF_Y2 = {"D1": (0, 0, 0), "D2": (1, 0, 0), "D3": (0, 1, 0), "D4": (0, 1, 0), "D5": (0, 0, 1)}


def reference_build_slc(ptype, k, k2=None, k3=None, abelian=()):
    """`groups.build_slc` by one presentation formula over all of G x G,
    abelian digits included, with inverses found by scanning the table and
    names spelled element by element.

    The defining relations: [x, y] = s = a^(m/2) with everything else
    central; x^2 and y^2 land on the central generator dictated by the
    presentation (1, a, b, or c).  K is the complement of <a> in the
    center: A for D1/D2, <b> x A for D3/D4, <b> x <c> x A for D5.
    """
    ptype = groups.Presentation(ptype)
    if k < 1:
        raise InvalidParameterError("k must be >= 1")
    uses_b = ptype in (groups.Presentation.D3, groups.Presentation.D4, groups.Presentation.D5)
    uses_c = ptype is groups.Presentation.D5
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
    if order > groups.DEFAULT_ORDER_CAP:
        raise CapacityError(f"group order {order} exceeds cap {groups.DEFAULT_ORDER_CAP}")

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

    x2a, x2b, x2c = _REF_X2[ptype.value]
    y2a, y2b, y2c = _REF_Y2[ptype.value]
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

    group = groups.FiniteGroup(
        order=order,
        mul=table,
        inverse=inverse,
        identity=0,
        names=tuple(names),
        generators=gens,
    )

    center_sub = groups.Subgroup(group, tuple(range(zsize)))
    k_sub = groups.Subgroup(group, tuple(2 * t for t in range(ksize)))
    return groups.SLCStructure(
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


def reference_stratum(rng, count, n, q):
    """`count` small-support rows drawn one by one, each from its own
    1 + n + m words in [0, 2^62), m = min(4, n): a size from the first, the
    positions of the smallest of the next n words (ties to the lower
    position), then one nonzero code a position from the last m."""
    m = min(4, n)
    out = np.zeros((count, n), dtype=np.int64)
    for row in out:
        u = [int(w) for w in rng.integers(0, 2**62, size=1 + n + m)]
        size = 1 + u[0] % m
        pos = sorted(range(n), key=lambda i: u[1 + i])[:size]
        for p, w in zip(pos, u[n + 1 :]):
            row[p] = 1 + w % (q - 1)
    return out


def reference_stream(RG, budget):
    """(element code rows, mode) one row at a time: counter order within the
    full-scan limit, else the stratified draw, sparse rows first."""
    n, q = RG.group.order, RG.ring.order
    if q**n <= budget.full_scan_limit:
        rows = (np.array(c[::-1]) for c in itertools.product(range(q), repeat=n))
        return rows, "full"
    rng = np.random.default_rng(budget.seed)

    def sampled():
        sparse = budget.sample_count // 5
        yield from reference_stratum(rng, sparse, n, q)
        for _ in range(budget.sample_count - sparse):
            yield rng.integers(0, q, size=n).astype(np.int64)

    return sampled(), "sampled"


def reference_scan(RG, structure_rows, structure_full, prop, budget):
    """The element-by-element scan: each element of the stream in order
    against each structure row p in order, with alpha - p tested by the
    unsplit `reference_is_unit` behind a memo on its codes, up to the first
    element with no decomposition.  An element seen before in the stream
    takes its decision from a memo on its codes."""
    R = RG.ring
    size = structure_rows.shape[0]
    neg_rows = R.vec.neg(structure_rows)
    units, decomposes = {}, {}

    def unit(codes):
        key = tuple(codes.tolist())
        if key not in units:
            units[key] = reference_is_unit(RG.from_coeffs(R.decode(c) for c in key))
        return units[key]

    stream, mode = reference_stream(RG, budget)
    tested = 0
    for codes in stream:
        tested += 1
        key = tuple(codes.tolist())
        if key not in decomposes:
            decomposes[key] = any(unit(R.vec.add(codes, neg)) for neg in neg_rows)
        if decomposes[key]:
            continue
        alpha = RG.from_coeffs(R.decode(int(c)) for c in codes)
        if structure_full:
            return BruteReport(prop, False, alpha, mode, tested, size, True)
        kind = "projection" if prop == "star-clean" else "idempotent"
        note = f"undecomposed element found, but {kind} set is sampled"
        return BruteReport(prop, None, alpha, mode, tested, size, False, notes=[note])
    if mode == "full":
        return BruteReport(prop, True, None, mode, tested, size, structure_full)
    note = "sampled scan: no counterexample in samples"
    return BruteReport(prop, None, None, mode, tested, size, structure_full, notes=[note])


def reference_check_witness(G, R, sigma, w, s_index, z_budget=200_000):
    """`witness.check_witness` as one loop of its own over blocks of at most
    2^19 codes: the candidates z are code rows in lexicographic order of
    their coefficients on Z(G)'s members, one batched convolution with the
    fixed row tau_w (1 - s) per block, and a failure reports the first z
    with (z - 4^-1 gamma) tau_w (1 - s) = 0."""
    if int(sigma.image[s_index]) != s_index:
        raise PreconditionError("involution must fix s")
    RG = gr.GroupRing(G, R)
    oms = RG.one() - RG.basis(s_index)
    if not ((RG.one() - w.gamma * w.gamma) * w.tau_w * oms).is_zero():
        return wt.CheckOutcome("condition1")
    if R.order is None:
        raise BudgetError("exhaustive condition-2 check needs a finite ring")
    Z = groups.center(G)
    card = R.order ** Z.order
    if card > z_budget:
        raise BudgetError(f"|R|^|Z| = {card} exceeds budget {z_budget}", cardinality=card)
    base = (-w.gamma.scale(R.inv(R.from_int(4)))) * w.tau_w * oms
    tau_oms_row = np.array([[R.encode(c) for c in (w.tau_w * oms).coeffs]], dtype=np.int64)
    base_row = np.array([R.encode(c) for c in base.coeffs], dtype=np.int64)
    block = max(1, (1 << 19) // G.order)
    for start in range(0, card, block):
        counters = np.arange(start, min(card, start + block))
        rows = np.zeros((counters.shape[0], G.order), dtype=np.int64)
        rows[:, list(Z.members)] = gr.counter_digits(counters, R.order, Z.order, lex=True)
        prod = gr.batch_convolve(RG, rows, tau_oms_row)
        hits = (R.vec.add(prod, base_row) == 0).all(axis=1)
        if hits.any():
            z = RG.from_coeffs(R.decode(int(c)) for c in rows[int(np.argmax(hits))])
            return wt.CheckOutcome("condition2", z=z)
    return wt.CheckOutcome("valid")


def reference_three_squares(R):
    """The exhaustive O(|R|^2) search for x^2 + y^2 + z^2 + 1 = 0 over a
    finite ring: z, then y, in code order, with x the least square root of
    -1 - y^2 - z^2; None when there is no solution."""
    sqrt_of = {}
    for a in R.elements():
        sqrt_of.setdefault(R.mul(a, a), a)
    minus_one = R.neg(R.one)
    for z in R.elements():
        z2 = R.mul(z, z)
        for y in R.elements():
            x = sqrt_of.get(R.sub(R.sub(minus_one, z2), R.mul(y, y)))
            if x is not None:
                return x, y, z
    return None


def theorem_b_decide(R, rank, clean_status):
    """Theorem B for G = Q8 x C2^rank: RG is *-clean iff it is clean and
    X^2 + Y^2 + Z^2 + 1 = 0 has no solution in R.  `clean_status` is the
    cleanness of RG as an input (None: undetermined)."""
    out = coeff.solve_three_squares(R)
    if isinstance(out, coeff.ThreeSquaresSolution):
        return Verdict(
            Status.NOT_STAR_CLEAN,
            [Reason("equation-solvable", "TheoremB", {"rank": rank})],
            [{"kind": "three-squares", "ring": R.spec_string(), "triple": out.as_strings()}],
        )
    if clean_status is False:
        return Verdict(Status.NOT_STAR_CLEAN, [Reason("not-clean", "TheoremB", {"rank": rank})])
    if clean_status is None:
        return Verdict(
            Status.UNKNOWN,
            [Reason("undetermined", "TheoremB", {"missing": ["cleanness"], "rank": rank})],
        )
    return Verdict(
        Status.STAR_CLEAN,
        [Reason("clean-and-equation-unsolvable", "TheoremB", {"rank": rank})],
    )


def involution_formula(form):
    """Closed form of the canonical involution on (RG)f: every row but the
    t = 1 row negates."""
    R = form.ring
    rows = [form.rows[0]]
    rows += [tuple(tuple(R.neg(c) for c in entry) for entry in row) for row in form.rows[1:]]
    return cn.FCanonicalForm(form.slc, R, tuple(rows))


def problem_element(S, R, w):
    """h = 4^-1 (1 + gamma)(1 - s), the element a witness leaves undecomposed."""
    RG = gr.GroupRing(S.group, R)
    one = RG.one()
    return ((one + w.gamma) * (one - RG.basis(S.s))).scale(R.inv(R.from_int(4)))
