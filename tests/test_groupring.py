import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from starclean import _linalg, cli, coeff, decide, groups, groupring as gr
from starclean.decide import Budget
from starclean.errors import BudgetError, CarrierMismatchError
from conftest import (
    enumerate_elements,
    from_ints,
    reference_add,
    reference_convolve,
    reference_mul,
    reference_scale,
    reference_sub,
)


@pytest.fixture(scope="module")
def rq8_f3(q8, f3):
    return gr.GroupRing(q8.group, f3)


@pytest.fixture(scope="module")
def sigma_q8(q8):
    return groups.canonical_involution(q8)


def _random_elt(RG, rng):
    return RG.random_element(rng)


# ---------------------------------------------------------------- arithmetic

def test_one_is_neutral(rq8_f3):
    rng = np.random.default_rng(7)
    a = _random_elt(rq8_f3, rng)
    assert rq8_f3.one() * a == a
    assert a * rq8_f3.one() == a


def test_one_minus_s_squares_to_twice_itself(rq8_f3, q8, f3):
    oms = rq8_f3.one() - rq8_f3.basis(q8.s)
    assert oms * oms == oms.scale(f3.from_int(2))


def test_xy_vs_yx_differ_by_s(rq8_f3, q8):
    x = rq8_f3.basis(q8.group.generators["x"])
    y = rq8_f3.basis(q8.group.generators["y"])
    s = rq8_f3.basis(q8.s)
    assert x * y == (y * x) * s
    assert x * y != y * x


def test_carrier_mismatch_raises(rq8_f3, f5, q8):
    other = gr.GroupRing(q8.group, f5)
    with pytest.raises(CarrierMismatchError):
        rq8_f3.one() + other.one()


@functools.lru_cache(maxsize=None)
def _oracle_carrier(group, ring):
    G = cli.parse_group_spec(group)
    return gr.GroupRing(getattr(G, "group", G), coeff.make_ring(ring))


@st.composite
def _payloads(draw, R, small=False):
    """A ring element: a code over a finite ring; over Q a small fraction;
    over Q(zeta_d) a coordinate tuple, mostly zeros.  With `small`, an
    integer in {-2, ..., 2}."""
    if small:
        return R.from_int(draw(st.integers(-2, 2)))
    if R.order is not None:
        return R.decode(draw(st.integers(0, R.order - 1)))
    q = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    if isinstance(R, coeff.RationalField):
        return draw(q)
    return tuple(draw(st.one_of(st.just(Fraction(0)), q)) for _ in range(R.degree))


@st.composite
def _group_ring_elements(draw, RG):
    """Sparse (at most 3 terms, arbitrary payloads), dense (every coefficient
    drawn, small integers) or cancelling (some element x minus a copy of it
    with one term changed, so that all other terms cancel)."""
    R, n = RG.ring, RG.group.order
    kind = draw(st.sampled_from(["sparse", "dense", "cancelling"]))
    if kind == "dense":
        return RG.from_coeffs(draw(_payloads(R, small=True)) for _ in range(n))
    coeffs = [R.zero] * n
    for g in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        coeffs[g] = draw(_payloads(R))
    x = RG.from_coeffs(coeffs)
    if kind == "sparse":
        return x
    coeffs[draw(st.integers(0, n - 1))] = draw(_payloads(R))
    return x - RG.from_coeffs(coeffs)


def _assert_matches_dense(x, want):
    """x against the dense reference result: the same coefficients, and the
    support, zero test, JSON form, equality and hash that a scan over all
    |G| coefficients gives."""
    R = x.ring
    assert x.coeffs == want.coeffs
    support = tuple(g for g, c in enumerate(x.coeffs) if c != R.zero)
    assert x.support() == want.support() == support
    assert x.is_zero() == (not support)
    dense_dict = {x.group.names[g]: R.fmt(c) for g, c in enumerate(x.coeffs) if c != R.zero}
    assert list(x.to_dict().items()) == list(dense_dict.items())
    assert x == want and hash(x) == hash(want) == hash(x.coeffs)
    assert x == gr.GroupRingElement(x.group, R, list(x.coeffs))


_ORACLE_RINGS = ["Q", "Q(zeta3)", "Q(zeta7)", "F3", "Z/9", "F3^2"]


@pytest.mark.parametrize("ring", _ORACLE_RINGS)
@pytest.mark.parametrize("group", ["Q8", "D2[k=2]xC3", "C3xC2"])
@given(data=st.data())
def test_support_indexed_arithmetic_matches_dense_reference(group, ring, data):
    RG = _oracle_carrier(group, ring)
    R, G = RG.ring, RG.group
    a, b, c = (data.draw(_group_ring_elements(RG)) for _ in range(3))
    r = data.draw(_payloads(R))
    g = data.draw(st.integers(0, G.order - 1))
    # (1 - g)(1 + g + ... + g^(o-1)) = 0: a product whose terms all cancel
    orbit = RG.zero()
    for i in range(G.element_order(g)):
        orbit = orbit + RG.basis(G.power(g, i))
    one_minus_g = RG.one() - RG.basis(g)
    checks = [
        (a + b, reference_add(a, b)),
        (a - b, reference_sub(a, b)),
        (-a, reference_sub(RG.zero(), a)),
        (a * b, reference_mul(a, b)),
        (a.scale(r), reference_scale(a, r)),
        (a + (-a), RG.zero()),
        (a - a, reference_sub(a, a)),
        (one_minus_g * (orbit * a), reference_mul(one_minus_g, reference_mul(orbit, a))),
    ]
    for got, want in checks:
        _assert_matches_dense(got, want)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert one_minus_g * orbit == RG.zero()


def test_zero_divisor_products_leave_the_support(q8, z9):
    """3 * 3 = 0 in Z/9: the product of 3g and 3h has empty support, and a
    sum in which one term cancels keeps only the other."""
    RG = gr.GroupRing(q8.group, z9)
    three = z9.from_int(3)
    x, y = RG.basis(q8.group.generators["x"]), RG.basis(q8.group.generators["y"])
    prod = x.scale(three) * y.scale(three)
    assert prod.is_zero() and prod.support() == () and prod.to_dict() == {}
    assert prod == RG.zero() and hash(prod) == hash(RG.zero())
    assert (x + y).scale(three).scale(three).support() == ()
    assert (x.scale(three) * (x + y)).support() == tuple(sorted({q8.s, q8.transversal[3]}))


def _central_by_all_h(alpha):
    """Reference: alpha h = h alpha for every group element h."""
    G = alpha.group
    RG = gr.GroupRing(G, alpha.ring)
    return all(alpha * RG.basis(h) == RG.basis(h) * alpha for h in range(G.order))


@pytest.mark.parametrize(
    "presentation,k,k2,abelian",
    [
        (groups.Presentation.D2, 1, None, ()),
        (groups.Presentation.D1, 1, None, ()),
        (groups.Presentation.D3, 1, 1, ()),
        (groups.Presentation.D2, 1, None, (3,)),
    ],
    ids=["Q8", "D1[k=1]", "D3[k=1,k2=1]", "Q8xC3"],
)
def test_is_central_matches_all_h_definition(presentation, k, k2, abelian, f3, qq):
    S = groups.build_slc(presentation, k, k2, None, abelian)
    G = S.group
    rng = np.random.default_rng(11)
    for R in (f3, qq):
        RG = gr.GroupRing(G, R)
        # class sums are central; adding a non-central basis element breaks it
        for g in range(G.order):
            cls = set(G.mul[G.mul[G.inverse, g], np.arange(G.order)].tolist())  # h^-1 g h
            class_sum = from_ints(RG, [1 if x in cls else 0 for x in range(G.order)])
            assert class_sum.is_central() and _central_by_all_h(class_sum)
            for alpha in (RG.basis(g), class_sum + RG.basis(g), class_sum.scale(R.from_int(2))):
                assert alpha.is_central() == _central_by_all_h(alpha)
    RG = gr.GroupRing(G, f3)
    for _ in range(20):
        alpha = RG.random_element(rng)
        assert alpha.is_central() == _central_by_all_h(alpha)


# ---------------------------------------------------------------- involution

def test_involution_on_x_plus_y(rq8_f3, q8, sigma_q8):
    x = rq8_f3.basis(q8.group.generators["x"])
    y = rq8_f3.basis(q8.group.generators["y"])
    s = rq8_f3.basis(q8.s)
    assert gr.apply_involution(sigma_q8, x + y) == s * (x + y)


def test_involution_fixes_central_support(rq8_f3, q8, sigma_q8, f3):
    alpha = from_ints(rq8_f3, [2, 1, 0, 0, 0, 0, 0, 0])  # supported on {1, s}
    assert gr.apply_involution(sigma_q8, alpha) == alpha


@given(st.integers(0, 3**8 - 1), st.integers(0, 3**8 - 1))
def test_involution_antimultiplicative(q8, f3, a_code, b_code):
    RG = gr.GroupRing(q8.group, f3)
    sigma = groups.canonical_involution(q8)
    digits = lambda c: [(c // 3**i) % 3 for i in range(8)]
    a = from_ints(RG, digits(a_code))
    b = from_ints(RG, digits(b_code))
    assert gr.apply_involution(sigma, a * b) == gr.apply_involution(
        sigma, b
    ) * gr.apply_involution(sigma, a)


def test_involution_order_two_and_support(rq8_f3, sigma_q8):
    rng = np.random.default_rng(3)
    a = _random_elt(rq8_f3, rng)
    astar = gr.apply_involution(sigma_q8, a)
    assert gr.apply_involution(sigma_q8, astar) == a
    assert sorted(astar.support()) == sorted(
        int(sigma_q8.image[g]) for g in a.support()
    )


# ---------------------------------------------------------------- predicates

def test_zero_one_projections(rq8_f3, sigma_q8):
    assert gr.is_projection(rq8_f3.zero(), sigma_q8)
    assert gr.is_projection(rq8_f3.one(), sigma_q8)


def test_e_is_projection_x_is_not(q8, f3, rq8_f3, sigma_q8, central_ef):
    e, _ = central_ef(q8, f3)
    assert gr.is_projection(e, sigma_q8)
    x = rq8_f3.basis(q8.group.generators["x"])
    assert not gr.is_idempotent(x)  # x^2 = s != x


def test_central_idempotents_f3(q8, f3, rq8_f3, central_ef):
    e, f = central_ef(q8, f3)
    assert gr.is_idempotent(e) and gr.is_idempotent(f)
    assert (e * f).is_zero() and (f * e).is_zero()
    assert e + f == rq8_f3.one()
    assert e.is_central() and f.is_central()
    assert e.to_dict() == {"1": "2", "s": "2"}
    assert f.to_dict() == {"1": "2", "s": "1"}


# ---------------------------------------------------------------- units

def test_group_elements_are_units(rq8_f3, q8):
    for g in q8.group.elements():
        el = rq8_f3.basis(g)
        assert gr.is_unit(el)
        assert gr.unit_inverse(el) == rq8_f3.basis(q8.group.inv_idx(g))


@pytest.mark.parametrize("spec", ["Q8", "D2[k=2]xC3", "D3[k=1,k2=1]", "D1[k=1]xC2"])
def test_half_representations_are_multiplicative(spec):
    """The e/f halves are ring maps and `_half_index` gives their regular
    representations: for y = c[0::2] + c[1::2] and x = c[0::2] - c[1::2],
    y(alpha beta) = y(alpha)[T] y(beta) and x(alpha beta) = +-x(alpha)[T]
    x(beta), with the signs at `neg`, over F5 against batch_convolve; Q is
    the table of G/<s>, with T[k, h] = k * h^-1 in it."""
    S = cli.parse_group_spec(spec)
    RG = gr.GroupRing(S.group, coeff.FiniteField(5))
    Q, T, neg = gr._half_index(S.group)
    idx = np.arange(Q.shape[0])
    assert (Q[T, idx] == idx[:, None]).all()
    rng = np.random.default_rng(5)
    A, B = rng.integers(0, 5, size=(2, 20, S.group.order))
    AB = gr.batch_convolve(RG, A, B)
    for sign in (1, -1):
        a, b, ab = ((C[:, 0::2] + sign * C[:, 1::2]) % 5 for C in (A, B, AB))
        M = a[:, T] * np.where(neg & (sign < 0), -1, 1)
        assert np.array_equal(np.einsum("nkh,nh->nk", M, b) % 5, ab)
    assert neg.any()


def test_groups_without_the_index_layout_have_no_halves():
    assert gr._half_index(groups.build_abelian((3, 2))) is None
    assert gr._half_index(groups.cyclic_group(9)) is None
    assert gr._half_index(groups.cyclic_group(2)) is not None
    assert [h.sign for h in gr.unit_halves(groups.build_abelian((3, 2)))] == [0]
    assert [h.sign for h in gr.unit_halves(groups.cyclic_group(2))] == [1, -1]


@pytest.mark.parametrize("ring", ["F5", "Z/9", "F3^2"])
@pytest.mark.parametrize("spec", ["Q8", "D3[k=1,k2=1]", "C3xC2"])
def test_half_scatter_inverts_the_fold(spec, ring):
    """Each half's fold gives back the half rows it scattered, and the
    scatters of an element's halves sum to it: alpha = alpha*e + alpha*f
    (alpha itself on a group without the index layout)."""
    G = cli.parse_group_spec(spec)
    G = getattr(G, "group", G)
    R = coeff.make_ring(ring)
    C = np.random.default_rng(11).integers(0, R.order, size=(25, G.order))
    halves = gr.unit_halves(G)
    total = np.zeros_like(C)
    for h in halves:
        rows = h.rows(R.vec, C)
        assert rows.shape[1] == h.T.shape[0] == h.table.shape[0]
        assert np.array_equal(h.rows(R.vec, h.scatter(R, rows)), rows)
        total = R.vec.add(total, h.scatter(R, rows))
    assert np.array_equal(total, C)


def test_one_plus_s_is_not_a_unit(rq8_f3, q8):
    one_plus_s = rq8_f3.one() + rq8_f3.basis(q8.s)
    oms = rq8_f3.one() - rq8_f3.basis(q8.s)
    assert (one_plus_s * oms).is_zero()
    assert not gr.is_unit(one_plus_s)
    assert gr.unit_inverse(one_plus_s) is None


def test_proper_idempotent_not_unit(q8, f3, central_ef):
    _, f = central_ef(q8, f3)
    assert not gr.is_unit(f)


@pytest.mark.parametrize(
    "factors, ring",
    [
        pytest.param([2], "F3", id="factors0"),
        pytest.param([4], "F3", id="factors1"),
        pytest.param([2], "F3^2", id="C2-F9"),
        pytest.param([2], "Z/9", id="C2-Z9"),
        pytest.param([2], "Z/15", id="C2-Z15"),
    ],
)
def test_unit_predicate_matches_exhaustive_inverse_search(factors, ring):
    G = groups.build_abelian(factors)
    RG = gr.GroupRing(G, coeff.make_ring(ring))
    els = list(enumerate_elements(RG))
    one = RG.one()
    for a in els:
        inverse = next((b for b in els if a * b == one), None)
        assert gr.is_unit(a) == (inverse is not None)
        assert gr.unit_inverse(a) == inverse


def _integer_det(M):
    """Exact determinant of an integer matrix (Bareiss elimination)."""
    A = [[int(v) for v in row] for row in M]
    n, sign, prev = len(A), 1, 1
    for k in range(n - 1):
        if A[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if A[i][k]), None)
            if swap is None:
                return 0
            A[k], A[swap] = A[swap], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[-1][-1]


def _reference_invertible(R, M):
    """Per matrix: over Z/n and GF(p) the determinant is a unit; over GF(p^k)
    Gauss-Jordan on payloads finds a pivot in every column."""
    if isinstance(R, coeff.ModRing) or R.k == 1:
        return math.gcd(_integer_det(M) % R.order, R.order) == 1
    return _linalg._field_elim(R, [[R.decode(int(c)) for c in row] for row in M]) is not None


def _seeded_stack(R, rng, N, m):
    """N random m x m code matrices, every third biased toward singular: a
    row times a non-unit scalar, or a last row dependent on the first two."""
    vec = R.vec
    nonunit = R.factorization[0][0] if isinstance(R, coeff.ModRing) else 0
    M = rng.integers(0, R.order, size=(N, m, m))
    for i in range(0, N, 3):
        if m == 1 or i % 2:
            M[i, 0] = vec.mul(M[i, 0], np.int64(nonunit))
        else:
            dep = vec.mul(M[i, 0], np.int64(rng.integers(0, R.order)))
            M[i, -1] = dep if m == 2 else vec.add(dep, M[i, 1])
    return M


@pytest.mark.parametrize("ring", ["F3", "F5", "F13", "Z/9", "Z/15", "Z/25", "F3^2", "F3^3", "F3^7"])
def test_batched_unit_kernel_matches_per_matrix_reference(ring):
    """is_invertible_codes on seeded stacks, stacks of one among them."""
    R = coeff.make_ring(ring)
    rng = np.random.default_rng(7)
    shapes = [(1, 1), (1, 4), (1, 8), (9, 1), (12, 3), (30, 4), (60, 8)]
    if R.order > 1024:  # scalar `vec` and payload reference: keep it small
        shapes = [(1, 1), (1, 4), (9, 1), (9, 3), (18, 6)]
    seen = set()
    for N, m in shapes:
        M = _seeded_stack(R, rng, N, m)
        got = _linalg.is_invertible_codes(R, M)
        expected = [_reference_invertible(R, A) for A in M]
        assert got.dtype == bool and got.shape == (N,)
        assert got.tolist() == expected, (N, m)
        seen.update(expected)
    assert seen == {True, False}


def _near_unit_draws(RG, rng, count):
    """Random elements, alternating with ones biased toward non-units: half
    the coefficients zeroed, and every fourth draw times 1 + g, g != 1."""
    R = RG.ring
    n = RG.group.order
    for i in range(count):
        a = RG.random_element(rng)
        if i % 2:
            coeffs = list(a.coeffs)
            for j in rng.choice(n, size=n // 2, replace=False):
                coeffs[j] = R.zero
            a = RG.from_coeffs(coeffs)
            if i % 4 == 3:
                a = a * (RG.one() + RG.basis(int(rng.integers(1, n))))
        yield a


@pytest.mark.parametrize("ring", ["F3^2", "F5^2", "F3^3", "F3^7"])
@pytest.mark.parametrize("group", ["Q8", "D2[k=2]", "C3xC2"])
def test_expanded_unit_test_matches_payload_elimination(group, ring):
    """The GF(p)-expansion kernel against Gauss-Jordan on GF(p^k) payloads."""
    G = cli.parse_group_spec(group)
    G = getattr(G, "group", G)
    R = coeff.make_ring(ring)
    RG = gr.GroupRing(G, R)
    draws = 6 if R.order > 1024 or G.order > 8 else 24
    identity = [R.one if k == G.identity else R.zero for k in range(G.order)]
    seen = set()
    for a in _near_unit_draws(RG, np.random.default_rng(13), draws):
        expected = _linalg._field_elim(R, gr.regular_representation(a), identity)
        assert gr.is_unit(a) == (expected is not None)
        inv = gr.unit_inverse(a)
        assert (inv is None) == (expected is None)
        if inv is not None:
            assert list(inv.coeffs) == expected
        seen.add(expected is None)
    assert seen == {True, False}


def test_units_over_infinite_rings(q8, qq):
    RG = gr.GroupRing(q8.group, qq)
    x = RG.basis(q8.group.generators["x"])
    assert gr.is_unit(x)
    assert gr.unit_inverse(x) * x == RG.one()
    assert not gr.is_unit(RG.one() + RG.basis(q8.s))


# ---------------------------------------------------------------- batched convolution

def _convolve_cases(RG, rng):
    """(A, B) pairs: paired rows and a single-row B, over dense rows, rows
    with whole columns unused, rows supported on the centre, an all-zero A
    and no rows."""
    G, q = RG.group, RG.ring.order
    A, B = rng.integers(0, q, size=(2, 40, G.order))
    skipped = A.copy()
    skipped[:, rng.choice(G.order, size=G.order // 2, replace=False)] = 0
    central = np.zeros_like(A)
    members = list(groups.center(G).members)
    central[:, members] = rng.integers(0, q, size=(40, len(members)))
    for left in (A, skipped, central, np.zeros_like(A), A[:0]):
        yield left, B[: left.shape[0]]
        yield left, B[:1]


@pytest.mark.parametrize(
    "ring", ["Z/9", "Z/15", "Z/25", "F3", "F13", "F3^2", "F7^2", "F3^5", "F3^7"]
)
@pytest.mark.parametrize("group", ["Q8", "D1[k=1]", "Q8xC2", "C3xC2"])
def test_batch_convolve_matches_per_element_reference(group, ring):
    """The gathered contraction against one modular update per g, over the
    SLC groups Q8, D4, Q8 x C2 and the non-SLC C3 x C2; F3^7 lies above the
    table cap."""
    G = cli.parse_group_spec(group)
    RG = gr.GroupRing(getattr(G, "group", G), coeff.make_ring(ring))
    for A, B in _convolve_cases(RG, np.random.default_rng(5)):
        got = gr.batch_convolve(RG, A, B)
        assert got.dtype == np.int64 and got.shape == A.shape
        assert np.array_equal(got, reference_convolve(RG, A, B))


def test_batch_convolve_slices_sums_that_would_overflow(q8):
    """Over F_(2^31 - 1) eight products (q - 1)^2 pass 2^63: the sum over g
    runs in slices that each stay below it."""
    RG = gr.GroupRing(q8.group, coeff.FiniteField(2147483647))
    assert 8 * (RG.ring.order - 1) ** 2 >= 2**63 and RG.ring.vec.wide_terms < 8
    rng = np.random.default_rng(3)
    A, B = rng.integers(RG.ring.order - 3, RG.ring.order, size=(2, 30, 8))
    for left, right in ((A, B), (A, B[:1])):
        assert np.array_equal(gr.batch_convolve(RG, left, right), reference_convolve(RG, left, right))


# ---------------------------------------------------------------- splitting

def test_f_annihilates_e_side(q8, f5, central_ef):
    RG = gr.GroupRing(q8.group, f5)
    e, f = central_ef(q8, f5)
    oms = RG.one() - RG.basis(q8.s)
    assert (oms * e).is_zero()
    rng = np.random.default_rng(6)
    alpha = RG.random_element(rng)
    assert alpha * f == alpha - alpha * e


# ---------------------------------------------------------------- enumeration

def test_f3_c2_enumeration_counts(f3):
    c2 = groups.cyclic_group(2)
    RG = gr.GroupRing(c2, f3)
    els = list(enumerate_elements(RG))
    assert len(els) == 9
    assert sum(1 for a in els if gr.is_unit(a)) == 4
    idems = [a for a in els if gr.is_idempotent(a)]
    half = f3.half
    e = RG.from_coeffs([half, half])
    f = RG.from_coeffs([half, f3.neg(half)])
    assert set(idems) == {RG.zero(), RG.one(), e, f}


def test_projection_enumeration_symmetric_subspace(q8, f3, sigma_q8, central_ef):
    RG = gr.GroupRing(q8.group, f3)
    rows, full = decide.projection_set(RG, sigma_q8, Budget())
    assert full
    projs = [RG.from_coeffs(f3.decode(int(c)) for c in row) for row in rows]
    assert len(set(projs)) == len(projs)
    pset = set(projs)
    assert {RG.zero(), RG.one(), *central_ef(q8, f3)} <= pset
    for p in projs:
        assert gr.is_projection(p, sigma_q8)


@pytest.mark.parametrize(
    "group,ring,samples",
    [("Q8", "F5", 9_000), ("Q8xC2", "F3", 3_000)],
)
def test_sampled_stream_filters_the_one_drawn_array(group, ring, samples):
    """A sampled stream cuts the stratum and the draws, each drawn at once,
    into blocks of _CONVOLVE_CELLS // |G| values: its chunks, concatenated,
    are the idempotents among the one drawn array, in draw order."""
    S = cli.parse_group_spec(group)
    RG = gr.GroupRing(S.group, coeff.make_ring(ring))
    n, q = RG.group.order, RG.ring.order
    chunks, full = gr.candidate_rows(RG, lambda v: v, n, 10, samples, 100, seed=3)
    chunks = list(chunks)
    assert not full and len(chunks) > 2
    drawn = np.concatenate(gr._sampled_values(q, n, samples, 100, 3))
    expected = drawn[(reference_convolve(RG, drawn, drawn) == drawn).all(axis=1)]
    assert np.array_equal(np.concatenate(chunks), expected)


def test_enumeration_budget_error(f3):
    s = groups.build_slc(groups.Presentation.D2, 1, abelian=[2, 2])
    RG = gr.GroupRing(s.group, f3)
    with pytest.raises(BudgetError) as err:
        list(enumerate_elements(RG))
    assert err.value.cardinality == 3**32


def test_enumerate_units_small(f3, f5):
    # R[C2] = R x R by a -> +-1, so it has (|R| - 1)^2 units
    c2 = groups.cyclic_group(2)
    for R, count in ((f3, 4), (f5, 16)):
        RG = gr.GroupRing(c2, R)
        assert sum(1 for a in enumerate_elements(RG) if gr.is_unit(a)) == count
