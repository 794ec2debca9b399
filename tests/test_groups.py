import numpy as np
import pytest
from hypothesis import given, strategies as st

from starclean import groups
from starclean.groups import Presentation as P
from starclean.errors import CapacityError, InvalidParameterError
from conftest import (
    commutator_subgroup,
    group_from_table,
    is_closed,
    is_slc,
    reference_build_slc,
)


# ---------------------------------------------------------------- abelian

def test_cyclic_two():
    g = groups.build_abelian([2])
    assert g.order == 2
    g.validate(force=True)


def test_klein_group_exponent_two():
    g = groups.build_abelian([2, 2])
    assert g.order == 4
    assert all(g.mul_idx(a, a) == g.identity for a in g.elements())


def test_c7_element_count_by_table_walk():
    g = groups.build_abelian([7])
    count = 0
    for a in g.elements():
        power = g.identity
        for _ in range(7):
            power = g.mul_idx(power, a)
        if power == g.identity and a != g.identity:
            count += 1
    assert count == 6


def test_capacity_error():
    with pytest.raises(CapacityError):
        groups.build_abelian([5000])


# ---------------------------------------------------------------- slc builders

def test_q8_structure(q8):
    G = q8.group
    assert G.order == 8
    orders = sorted(G.element_order(g) for g in G.elements())
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]  # exactly one element of order 2
    x, y = G.generators["x"], G.generators["y"]
    assert G.mul_idx(x, x) == q8.s and G.mul_idx(y, y) == q8.s
    assert groups.center(G).members == (0, 1)


def test_d1_is_dihedral_of_order_eight(d4, dihedral8_perms):
    ours = sorted(d4.group.element_order(g) for g in d4.group.elements())
    independent = sorted(
        dihedral8_perms.element_order(g) for g in dihedral8_perms.elements()
    )
    assert ours == independent == [1, 2, 2, 2, 2, 2, 4, 4]
    assert groups.center(d4.group).order == groups.center(dihedral8_perms).order == 2


def test_d2_k2_center_and_quotient():
    s = groups.build_slc(P.D2, 2)
    G = s.group
    assert G.order == 16
    Z = groups.center(G)
    assert Z.order == 4
    assert is_slc(G)
    a = G.generators["a"]
    assert G.mul_idx(a, a) == s.s  # s = a^2
    assert commutator_subgroup(G).members == (0, s.s)


_ALL_SMALL_PRESENTATIONS = [
    (P.D1, 1, None, None),
    (P.D1, 2, None, None),
    (P.D2, 1, None, None),
    (P.D2, 2, None, None),
    (P.D3, 1, 1, None),
    (P.D3, 1, 2, None),
    (P.D4, 1, 1, None),
    (P.D4, 2, 1, None),
    (P.D5, 1, 1, 1),
]


def _assert_index_layout(s):
    """The layout canonical forms rely on: g*s = s*g is g XOR 1, and the
    center is the leading index block."""
    flip = np.arange(s.group.order) ^ 1
    assert np.array_equal(s.group.mul[:, s.s], flip) and np.array_equal(s.group.mul[s.s], flip)
    assert groups.center(s.group).members == tuple(range(s.zsize))


@pytest.mark.parametrize("ptype,k,k2,k3", _ALL_SMALL_PRESENTATIONS)
def test_presentation_invariants(ptype, k, k2, k3):
    s = groups.build_slc(ptype, k, k2, k3)
    G = s.group
    G.validate(force=True)
    assert is_slc(G)
    assert commutator_subgroup(G).members == (0, s.s)
    assert G.element_order(s.s) == 2
    _assert_index_layout(s)
    # center is the leading index block and equals <a> x K
    assert groups.center(G).members == s.center.members == tuple(range(s.zsize))
    assert is_closed(s.center) and is_closed(s.K)
    # transversal cosets tile the group exactly once
    seen = set()
    for t in s.transversal:
        for z in s.center.members:
            seen.add(G.mul_idx(t, z))
    assert seen == set(G.elements())
    # Z = <a> x K internally: every central element is uniquely a^i * kappa
    a = G.generators["a"]
    pairs = set()
    for i in range(s.m):
        ai = G.power(a, i)
        for kk in s.K.members:
            pairs.add(G.mul_idx(ai, kk))
    assert pairs == set(s.center.members)
    assert s.m * s.K.order == s.zsize


def test_presentation_with_abelian_factor():
    s = groups.build_slc(P.D2, 1, abelian=[3])
    assert s.group.order == 24
    assert is_slc(s.group)
    assert s.K.order == 3
    assert s.spec_string() == "Q8xC3"


_ORACLE_PRESENTATIONS = [
    (ptype, k, k2, k3)
    for ptype in P
    for k in (1, 2, 3)
    for k2 in ((None,) if ptype in (P.D1, P.D2) else (1, 2))
    for k3 in ((1, 2) if ptype is P.D5 else (None,))
]


@pytest.mark.parametrize(
    "abelian", [(), (2,), (3,), (1, 3), (2, 2), (3, 3), (4, 7), (8, 3), (89,), (105,)], ids=str
)
def test_build_slc_matches_single_formula_reference(abelian):
    """Core table times A's table, against one formula over all of G x G:
    the same bytes, names, generators and subgroups, and the same capacity
    errors."""
    built = 0
    for spec in _ORACLE_PRESENTATIONS:
        try:
            want = reference_build_slc(*spec, abelian)
        except CapacityError:
            with pytest.raises(CapacityError):
                groups.build_slc(*spec, abelian)
            continue
        got = groups.build_slc(*spec, abelian)
        for arr in ("mul", "inverse"):
            a, b = getattr(got.group, arr), getattr(want.group, arr)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), (spec, arr)
        assert got.group.names == want.group.names, spec
        assert got.group.generators == want.group.generators, spec
        assert got.center.members == want.center.members and got.K.members == want.K.members
        assert got.transversal == want.transversal and got.s == want.s, spec
        built += 1
    assert built > 0


def test_invalid_parameters():
    with pytest.raises(InvalidParameterError):
        groups.build_slc(P.D1, 1, k2=1)
    with pytest.raises(InvalidParameterError):
        groups.build_slc(P.D3, 1)  # k2 missing
    with pytest.raises(InvalidParameterError):
        groups.build_slc(P.D3, 1, 1, 1)  # k3 unused
    with pytest.raises(InvalidParameterError):
        groups.build_slc(P.D5, 1, 1)  # k3 missing


# ---------------------------------------------------------------- products

def test_direct_product_kleinish():
    c2 = groups.cyclic_group(2)
    g = groups.direct_product(c2, c2)
    assert g.order == 4
    assert all(g.mul_idx(a, a) == g.identity for a in g.elements())


def test_direct_product_q8_c3_center(q8):
    g = groups.direct_product(q8.group, groups.cyclic_group(3))
    assert g.order == 24
    assert groups.center(g).order == 6


def test_direct_product_with_trivial_is_same_table(q8):
    g = groups.direct_product(q8.group, groups.build_abelian([]))
    assert np.array_equal(g.mul, q8.group.mul)
    assert g.names == q8.group.names


# ---------------------------------------------------------------- structure ops

def test_center_of_abelian_is_everything():
    g = groups.build_abelian([6])
    assert groups.center(g).members == tuple(g.elements())


def test_commutator_of_abelian_is_trivial():
    g = groups.build_abelian([4, 2])
    assert commutator_subgroup(g).members == (g.identity,)


def test_s3_is_not_slc(s3):
    assert groups.center(s3).order == 1
    assert not is_slc(s3)


def test_c4_is_not_slc():
    assert not is_slc(groups.cyclic_group(4))


# ---------------------------------------------------------------- involutions

def test_canonical_equals_classical_on_q8(q8):
    can = groups.canonical_involution(q8)
    cla = groups.classical_involution(q8.group)
    assert np.array_equal(can.image, cla.image)


def test_canonical_differs_from_classical_on_d1(d4):
    can = groups.canonical_involution(d4)
    cla = groups.classical_involution(d4.group)
    assert not np.array_equal(can.image, cla.image)
    # x has order 2 but maps to s*x
    x = d4.group.generators["x"]
    assert int(cla.image[x]) == x
    assert int(can.image[x]) == d4.group.mul_idx(d4.s, x)


def test_classical_on_elementary_two_group_is_identity():
    g = groups.build_abelian([2, 2, 2])
    inv = groups.classical_involution(g)
    assert np.array_equal(inv.image, np.arange(8))


def test_classical_on_c3_squares_generator():
    g = groups.cyclic_group(3)
    inv = groups.classical_involution(g)
    assert int(inv.image[1]) == g.power(1, 2)


@pytest.mark.parametrize("ptype,k,k2,k3", _ALL_SMALL_PRESENTATIONS)
def test_canonical_involution_is_antiautomorphism(ptype, k, k2, k3):
    s = groups.build_slc(ptype, k, k2, k3)
    inv = groups.canonical_involution(s)
    assert inv.check()
    # central elements fixed, others multiplied by s
    for g in s.group.elements():
        if g < s.zsize:
            assert int(inv.image[g]) == g
        else:
            assert int(inv.image[g]) == s.group.mul_idx(s.s, g)


@given(
    st.sampled_from([P.D1, P.D2]),
    st.integers(1, 2),
    st.lists(st.sampled_from([2, 3, 4]), max_size=2),
)
def test_random_presentations_are_slc(ptype, k, abelian):
    s = groups.build_slc(ptype, k, abelian=abelian)
    assert is_slc(s.group)
    assert commutator_subgroup(s.group).members == (0, s.s)
    assert groups.canonical_involution(s).check()
    _assert_index_layout(s)


def test_element_orders_vectorised_matches_scalar(q8):
    eo = groups.element_orders(q8.group)
    assert eo.tolist() == [q8.group.element_order(g) for g in q8.group.elements()]


def test_quotient_by_s_is_klein(q8):
    Q = group_from_table(q8.group.mul[::2, ::2] // 2)  # cosets {2t, 2t+1}; validated
    assert Q.order == 4
    assert all(Q.mul_idx(a, a) == Q.identity for a in Q.elements())
