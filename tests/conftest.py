"""Shared fixtures, plus the oracles that the runtime does not need:
exhaustive enumeration of RG, the per-group-element convolution, the
element-by-element brute-force scan, Theorem B's biconditional, the
closed-form involution on (RG)f, the problem element of a witness, and the
group-theoretic checks on built groups."""

import itertools

import numpy as np
import pytest
from hypothesis import settings

from starclean import canonical as cn, coeff, groups, groupring as gr
from starclean.decide import BruteReport, Reason, Status, Verdict
from starclean.errors import BudgetError, PreconditionError

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


def reference_convolve(RG, A, B):
    """Row-wise products of code rows, one modular update per group element
    g: out[:, g h] += A[:, g] * B[:, h] by the ring's `vec` add and mul."""
    vec = RG.ring.vec
    out = np.zeros_like(A)
    for g in range(RG.group.order):
        perm = RG.group.mul[g]
        out[:, perm] = vec.add(out[:, perm], vec.mul(A[:, g, None], B))
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
        for _ in range(sparse):
            row = np.zeros(n, dtype=np.int64)
            size = int(rng.integers(1, min(4, n) + 1))
            pos = rng.choice(n, size=size, replace=False)
            row[pos] = rng.integers(1, q, size=size)
            yield row
        for _ in range(budget.sample_count - sparse):
            yield rng.integers(0, q, size=n).astype(np.int64)

    return sampled(), "sampled"


def reference_scan(RG, structure_rows, structure_full, prop, budget):
    """The element-by-element scan: each element of the stream in order
    against each structure row p in order, with alpha - p tested by
    groupring.is_unit behind a memo on its codes, up to the first element
    with no decomposition."""
    R = RG.ring
    size = structure_rows.shape[0]
    neg_rows = R.vec.neg(structure_rows)
    memo = {}

    def unit(codes):
        key = tuple(codes.tolist())
        if key not in memo:
            memo[key] = gr.is_unit(RG.from_coeffs(R.decode(c) for c in key))
        return memo[key]

    stream, mode = reference_stream(RG, budget)
    tested = 0
    for codes in stream:
        tested += 1
        if any(unit(R.vec.add(codes, neg)) for neg in neg_rows):
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
