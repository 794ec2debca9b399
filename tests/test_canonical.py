import itertools

import numpy as np
import pytest

from starclean import canonical as cn, cli, coeff, groups, groupring as gr
from starclean.errors import BudgetError, NotInFComponentError
from conftest import involution_formula


@pytest.fixture(scope="module")
def carrier(q8, f3):
    RG = gr.GroupRing(q8.group, f3)
    oms = RG.one() - RG.basis(q8.s)
    return RG, oms


def _all_f_elements(S, RG):
    """Every element of (RG)f as beta * (1 - s) over the delta = 0 reps."""
    R = RG.ring
    n = S.group.order
    reps = [g for g in range(n) if g % 2 == 0]
    oms = RG.one() - RG.basis(S.s)
    for codes in itertools.product(range(R.order), repeat=len(reps)):
        vec = [R.zero] * n
        for rep, c in zip(reps, codes):
            vec[rep] = R.decode(c)
        yield RG.from_coeffs(vec) * oms


def test_decompose_one_minus_s(q8, carrier, f3):
    RG, oms = carrier
    form = cn.decompose_f(q8, oms)
    assert form.rows[0][0] == (f3.one,)
    for j in (1, 2, 3):
        assert form.row_is_zero(j)
    assert cn.is_symmetric_f(form)


def test_decompose_y_row(q8, carrier, f3):
    RG, oms = carrier
    y = RG.basis(q8.transversal[2])
    form = cn.decompose_f(q8, y * oms)
    assert form.rows[2][0] == (f3.one,)
    assert not cn.is_symmetric_f(form)


def test_zero_is_symmetric(q8, carrier):
    RG, _ = carrier
    form = cn.decompose_f(q8, RG.zero())
    assert cn.is_symmetric_f(form)


def test_not_in_f_component_rejected(q8, carrier):
    RG, _ = carrier
    with pytest.raises(NotInFComponentError):
        cn.decompose_f(q8, RG.one())


def test_roundtrip_all_f3_q8_f_elements(q8, carrier):
    RG, _ = carrier
    seen = set()
    for alpha in _all_f_elements(q8, RG):
        form = cn.decompose_f(q8, alpha)
        assert cn.reassemble(form) == alpha
        seen.add(alpha)
    assert len(seen) == 81  # |R|^(|G|/2) distinct f-component elements


def test_roundtrip_random_f5_q8xc3():
    S = groups.build_slc(groups.Presentation.D2, 1, abelian=[3])
    F5 = coeff.FiniteField(5)
    RG = gr.GroupRing(S.group, F5)
    oms = RG.one() - RG.basis(S.s)
    rng = np.random.default_rng(2)
    for _ in range(50):
        alpha = RG.random_element(rng) * oms
        form = cn.decompose_f(S, alpha)
        assert cn.reassemble(form) == alpha


def test_basis_elements_fold_to_their_slot():
    # t_j a^i kappa (1 - s), built by group products, has the single entry 1
    # at rows[j][i][kappa]; m/2 = 2 and |K| = 3 tell the two inner axes apart
    S = cli.parse_group_spec("D2[k=2]xC3")
    R = coeff.make_ring("F5")
    RG = gr.GroupRing(S.group, R)
    G = S.group
    a = G.generators["a"]
    oms = RG.one() - RG.basis(S.s)
    slots = list(itertools.product(range(4), range(S.m // 2), range(S.ksize)))
    for j, i, kappa in slots:
        g = G.mul_idx(G.mul_idx(S.transversal[j], G.power(a, i)), S.K.members[kappa])
        rows = cn.decompose_f(S, RG.basis(g) * oms).rows
        assert [rows[jj][ii][kk] for jj, ii, kk in slots] == [
            R.one if slot == (j, i, kappa) else R.zero for slot in slots
        ]
        assert len(rows) == 4 and all(len(row) == S.m // 2 for row in rows)


def test_uniqueness_distinct_forms_distinct_elements(q8, f3):
    forms = set()
    elements = set()
    RG = gr.GroupRing(q8.group, f3)
    for alpha in _all_f_elements(q8, RG):
        form = cn.decompose_f(q8, alpha)
        forms.add(form.rows)
        elements.add(alpha)
    assert len(forms) == len(elements)


def test_involution_formula_is_an_involution(q8, carrier):
    RG, _ = carrier
    rng = np.random.default_rng(4)
    oms = RG.one() - RG.basis(q8.s)
    for _ in range(20):
        form = cn.decompose_f(q8, RG.random_element(rng) * oms)
        assert involution_formula(involution_formula(form)) == form


def test_involution_formula_agrees_with_linear_extension(q8, carrier):
    RG, _ = carrier
    sigma = groups.canonical_involution(q8)
    for alpha in _all_f_elements(q8, RG):
        form = cn.decompose_f(q8, alpha)
        lhs = cn.reassemble(involution_formula(form))
        assert lhs == gr.apply_involution(sigma, alpha)


def test_x_flips_sign_under_formula(q8, carrier, f3):
    RG, oms = carrier
    x = RG.basis(q8.transversal[1])
    form = cn.decompose_f(q8, x * oms)
    flipped = involution_formula(form)
    assert cn.reassemble(flipped) == -(x * oms)


def test_f_projections_f3_q8(q8, f3, carrier):
    RG, oms = carrier
    projs = cn.f_projections(q8, f3)
    assert set(projs) == {RG.zero(), oms.scale(f3.from_int(2))}


def _span_f_elements(S, RG):
    """Every d(1 - s) with d on the a^i K span, the even indices below |Z|."""
    R = RG.ring
    span = range(0, S.zsize, 2)
    oms = RG.one() - RG.basis(S.s)
    for codes in itertools.product(range(R.order), repeat=len(span)):
        vec = [R.zero] * S.group.order
        for g, c in zip(span, codes):
            vec[g] = R.decode(c)
        yield RG.from_coeffs(vec) * oms


@pytest.mark.parametrize(
    "spec,ring,candidates,count",
    [
        ("Q8", "F3", _all_f_elements, 2),
        ("Q8xC2", "F3", _all_f_elements, 4),
        ("D2[k=2]", "F5", _span_f_elements, 4),
        ("D2[k=3]", "F3", _span_f_elements, 4),
    ],
    ids=["Q8-F3", "Q8xC2-F3", "D2k2-F5", "D2k3-F3"],
)
def test_f_projections_match_exhaustive_scan(spec, ring, candidates, count):
    S = cli.parse_group_spec(spec)
    R = coeff.make_ring(ring)
    RG = gr.GroupRing(S.group, R)
    sigma = groups.canonical_involution(S)
    brute = {p for p in candidates(S, RG) if gr.is_projection(p, sigma)}
    assert len(brute) == count
    assert brute == set(cn.f_projections(S, R))


def test_f_projections_listing_order():
    # counter order of the d coefficients on the a^i K span, first fastest
    S = cli.parse_group_spec("D2[k=2]xC3")
    R = coeff.make_ring("F5")
    span = range(0, S.zsize, 2)
    listed = [tuple(R.encode(p.coeffs[g]) for g in span) for p in cn.f_projections(S, R)]
    assert listed == [
        (0, 0, 0, 0, 0, 0), (3, 0, 0, 0, 0, 0), (1, 1, 1, 0, 0, 0), (2, 4, 4, 0, 0, 0),
        (4, 0, 0, 2, 0, 0), (4, 0, 0, 3, 0, 0), (0, 2, 2, 1, 1, 1), (3, 3, 3, 1, 1, 1),
        (1, 2, 2, 3, 1, 1), (2, 3, 3, 3, 1, 1), (4, 0, 0, 4, 2, 2), (4, 0, 0, 1, 3, 3),
        (1, 2, 2, 2, 4, 4), (2, 3, 3, 2, 4, 4), (0, 2, 2, 4, 4, 4), (3, 3, 3, 4, 4, 4),
    ]


def test_f_projections_budget_error(f3):
    S = groups.build_slc(groups.Presentation.D2, 3, abelian=[4, 4])
    with pytest.raises(BudgetError):
        cn.f_projections(S, f3, budget=10)
