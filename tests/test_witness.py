import itertools

import numpy as np
import pytest

from starclean import coeff, decide, groups, groupring as gr, witness as wt
from starclean.errors import BudgetError, PreconditionError
from starclean.groups import Presentation as P
from conftest import enumerate_elements, problem_element, reference_check_witness


# ---------------------------------------------------------------- two squares

def test_two_squares_base_case_z9_c3(z9):
    RC3 = gr.GroupRing(groups.cyclic_group(3), z9)
    g = RC3.basis(1)
    cert = wt.two_squares(g, 3, 0)
    assert cert.a == RC3.one()
    assert cert.b == g.pow_int(2)
    assert cert.verify()


def test_two_squares_one_step(z9):
    RC3 = gr.GroupRing(groups.cyclic_group(3), z9)
    g = RC3.basis(1)
    cert = wt.two_squares(g, 3, 1)
    # the step formula gives (g + g^2, g^3 - 1), and g^3 = 1 here
    assert cert.a == g + g.pow_int(2)
    assert cert.b == RC3.zero()
    assert cert.verify()


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
@pytest.mark.parametrize("modulus", [9, 25, 49])
def test_two_squares_certificates_sweep(p, modulus):
    ring = coeff.ModRing(modulus)
    RG = gr.GroupRing(groups.cyclic_group(p), ring)
    g = RG.basis(1)
    for t in range(0, 7):
        assert wt.two_squares(g, p, t).verify()


def test_two_squares_rejects_wrong_order(q8, f3):
    RG = gr.GroupRing(q8.group, f3)
    x = RG.basis(q8.group.generators["x"])
    with pytest.raises(PreconditionError):
        wt.two_squares(x, 3, 0)  # x^3 != 1


def test_two_squares_rejects_noncentral(s3, f3):
    RG = gr.GroupRing(s3, f3)
    rot = next(g for g in s3.elements() if s3.element_order(g) == 3)
    with pytest.raises(PreconditionError):
        wt.two_squares(RG.basis(rot), 3, 0)


# ---------------------------------------------------------------- annihilators

def test_annihilator_pair_f7_c3():
    RG = gr.GroupRing(groups.cyclic_group(3), coeff.FiniteField(7))
    a, b = wt.annihilator_pair(RG.basis(1), 3, 1)
    g = RG.basis(1)
    assert ((a * a + b * b + g.pow_int(2)) * (g - RG.one())).is_zero()


def test_annihilator_pair_z11_c5():
    RG = gr.GroupRing(groups.cyclic_group(5), coeff.ModRing(11))
    wt.annihilator_pair(RG.basis(1), 5, 2)


def test_annihilator_rejects_bad_divisibility():
    RG = gr.GroupRing(groups.cyclic_group(7), coeff.FiniteField(5))
    with pytest.raises(PreconditionError):
        wt.annihilator_pair(RG.basis(1), 7, 1)  # 7 does not divide 3


@pytest.mark.parametrize(
    "p,n", [(3, 1), (3, 3), (3, 5), (5, 2), (5, 6), (11, 5), (13, 6)]
)
def test_annihilator_identity_sweep(p, n):
    assert (2**n + 1) % p == 0
    RG = gr.GroupRing(groups.cyclic_group(p), coeff.ModRing(9))
    wt.annihilator_pair(RG.basis(1), p, n)


# ---------------------------------------------------------------- check_witness

def test_check_witness_valid_on_dihedral(d4, f3):
    RG = gr.GroupRing(d4.group, f3)
    sigma = groups.canonical_involution(d4)
    w = wt.NonCleanWitness(RG.basis(d4.transversal[2]), RG.one(), "manual")
    out = wt.check_witness(d4.group, f3, sigma, w, d4.s)
    assert out.is_valid


def test_check_witness_condition1_fails(q8, f3):
    RG = gr.GroupRing(q8.group, f3)
    sigma = groups.canonical_involution(q8)
    w = wt.NonCleanWitness(RG.zero(), RG.one(), "manual")
    assert wt.check_witness(q8.group, f3, sigma, w, q8.s).status == "condition1"


def test_check_witness_condition2_fails_with_counterexample(q8, f3):
    # gamma = 1 passes condition 1 but z = 4^-1 kills condition 2
    RG = gr.GroupRing(q8.group, f3)
    sigma = groups.canonical_involution(q8)
    w = wt.NonCleanWitness(RG.one(), RG.one(), "manual")
    out = wt.check_witness(q8.group, f3, sigma, w, q8.s)
    assert out.status == "condition2"
    oms = RG.one() - RG.basis(q8.s)
    quarter = f3.inv(f3.from_int(4))
    assert ((out.z - RG.one().scale(quarter)) * w.tau_w * oms).is_zero()


def test_check_witness_three_squares_gamma(q8, f3):
    RG = gr.GroupRing(q8.group, f3)
    sigma = groups.canonical_involution(q8)
    x = RG.basis(q8.transversal[1])
    y = RG.basis(q8.transversal[2])
    oms = RG.one() - RG.basis(q8.s)
    gamma = (x + y).scale(f3.half) * oms
    w = wt.NonCleanWitness(gamma, RG.one(), "manual")
    assert wt.check_witness(q8.group, f3, sigma, w, q8.s).is_valid


def _scalar_condition2(G, R, w, s_index):
    """Reference for the batched check: one scalar product per z of R Z(G),
    in itertools.product order of z's coefficients on the center's members."""
    RG = gr.GroupRing(G, R)
    oms = RG.one() - RG.basis(s_index)
    base = (-w.gamma.scale(R.inv(R.from_int(4)))) * w.tau_w * oms
    tau_oms = w.tau_w * oms
    Z = groups.center(G)
    for codes in itertools.product(range(R.order), repeat=Z.order):
        coeffs = [R.zero] * G.order
        for member, code in zip(Z.members, codes):
            coeffs[member] = R.decode(code)
        z = RG.from_coeffs(coeffs)
        if (z * tau_oms + base).is_zero():
            return "condition2", z
    return "valid", None


def _batched_matches_scalar(S, R, w):
    out = wt.check_witness(S.group, R, groups.canonical_involution(S), w, S.s)
    status, z = _scalar_condition2(S.group, R, w, S.s)
    assert out.status == status
    assert out.z == z
    return out


@pytest.mark.parametrize(
    "presentation,k,k2,abelian,ring,case",
    [
        (P.D1, 1, None, (), coeff.FiniteField(3), "presentation-type-1"),
        (P.D3, 1, 1, (), coeff.FiniteField(3), "presentation-type-3-5"),
        (P.D2, 2, None, (), coeff.FiniteField(3), "presentation-type-2-large-m"),
        (P.D2, 1, None, (4,), coeff.FiniteField(3), "order-4-element"),
        (P.D2, 1, None, (3,), coeff.FiniteField(5), "excluded-prime"),
        (P.D2, 1, None, (), coeff.FiniteField(3), "three-squares"),
        (P.D2, 1, None, (), coeff.ModRing(9), "three-squares"),
    ],
)
def test_batched_condition2_matches_scalar_on_generated_witnesses(
    presentation, k, k2, abelian, ring, case
):
    S = groups.build_slc(presentation, k, k2, None, abelian)
    w = wt.generate_witness(S, ring)
    assert w.case_tag == case
    assert _batched_matches_scalar(S, ring, w).is_valid


def test_batched_condition2_matches_scalar_on_failing_pairs(q8, f3, z9, f5):
    # condition 1 holds for each pair ((1 - gamma^2) = 0), condition 2 fails
    # at a nonzero first z
    q8c3 = groups.build_slc(P.D2, 1, abelian=(3,))
    cases = []
    for S, R in [(q8, f3), (q8, z9), (q8c3, f5)]:
        RG = gr.GroupRing(S.group, R)
        g = RG.basis(S.s)
        cases.append((S, R, wt.NonCleanWitness(RG.one(), RG.one(), "manual")))
        cases.append((S, R, wt.NonCleanWitness(g, RG.one(), "manual")))
        cases.append((S, R, wt.NonCleanWitness(-g, RG.one(), "manual")))
    c3 = next(m for m in q8c3.K.members if q8c3.group.element_order(m) == 3)
    RG = gr.GroupRing(q8c3.group, f5)
    cases.append((q8c3, f5, wt.NonCleanWitness(-RG.one(), RG.one() - RG.basis(c3), "manual")))
    for S, R, w in cases:
        out = _batched_matches_scalar(S, R, w)
        assert out.status == "condition2"
        assert not out.z.is_zero()


@pytest.mark.parametrize("gamma", ["one", "minus-one", "generated"])
def test_check_witness_matches_block_loop_across_blocks(gamma):
    """Over Q8xC4/F3 the 3^8 = 6,561 candidates z run in blocks of
    _CONVOLVE_CELLS // 32 = 1,024.  With gamma = tau_w = 1 the first failing
    z is 2s (2s(1 - s) = 1 - s), at lexicographic index 2 * 3^6 = 1,458, in
    the second block; with gamma = -1 it is s, in the first; the generated
    witness passes all seven.  Each outcome is the reference loop's."""
    S = groups.build_slc(P.D2, 1, abelian=(4,))
    R = coeff.FiniteField(3)
    RG = gr.GroupRing(S.group, R)
    sigma = groups.canonical_involution(S)
    Z = groups.center(S.group)
    block = gr._CONVOLVE_CELLS // S.group.order
    assert (R.order**Z.order, block) == (6561, 1024)
    if gamma == "generated":
        w = wt.generate_witness(S, R)
    else:
        w = wt.NonCleanWitness(RG.one() if gamma == "one" else -RG.one(), RG.one(), "manual")
    out = wt.check_witness(S.group, R, sigma, w, S.s)
    ref = reference_check_witness(S.group, R, sigma, w, S.s)
    assert (out.status, out.z) == (ref.status, ref.z)
    if gamma == "generated":
        assert out.is_valid
        return
    assert out.z == RG.basis(S.s).scale(R.from_int(2 if gamma == "one" else 1))
    index = int("".join(str(R.encode(out.z.coeffs[m])) for m in Z.members), 3)
    assert (index >= block) == (gamma == "one")


def test_check_witness_budget_errors(q8, f3, qq):
    w_q = wt.NonCleanWitness(
        gr.GroupRing(q8.group, qq).one(), gr.GroupRing(q8.group, qq).one(), "manual"
    )
    with pytest.raises(BudgetError):
        wt.check_witness(q8.group, qq, groups.canonical_involution(q8), w_q, q8.s)
    RG = gr.GroupRing(q8.group, f3)
    w = wt.NonCleanWitness(RG.one(), RG.one(), "manual")
    with pytest.raises(BudgetError) as exc:
        wt.check_witness(q8.group, f3, groups.canonical_involution(q8), w, q8.s, z_budget=8)
    assert exc.value.cardinality == 9  # |F3|^|Z(Q8)|


# ---------------------------------------------------------------- generation

def test_generate_type1(d4, f3):
    w = wt.generate_witness(d4, f3)
    assert w.case_tag == "presentation-type-1"
    assert w.validation["condition1"] == "0"
    assert "condition2_exhaustive" in w.validation


@pytest.mark.parametrize(
    "ptype,k,k2,k3",
    [(P.D3, 1, 1, None), (P.D4, 1, 1, None), (P.D5, 1, 1, 1)],
)
def test_generate_type345(ptype, k, k2, k3, f3):
    s = groups.build_slc(ptype, k, k2, k3)
    w = wt.generate_witness(s, f3)
    assert w.case_tag == "presentation-type-3-5"


def test_generate_type2_large_m(f3):
    s = groups.build_slc(P.D2, 2)
    w = wt.generate_witness(s, f3)
    assert w.case_tag == "presentation-type-2-large-m"


def test_generate_order4_case(f3):
    s = groups.build_slc(P.D2, 1, abelian=[4])
    w = wt.generate_witness(s, f3)
    assert w.case_tag == "order-4-element"
    # gamma = x*g with tau = 1 - g^2
    G = s.group
    g = next(m for m in s.K.members if G.element_order(m) == 4)
    RG = gr.GroupRing(G, f3)
    assert w.gamma == RG.basis(G.mul_idx(s.transversal[1], g))
    assert w.tau_w == RG.one() - RG.basis(G.power(g, 2))


def test_generate_excluded_prime_case(qq):
    s = groups.build_slc(P.D2, 1, abelian=[3])
    w = wt.generate_witness(s, qq)
    assert w.case_tag == "excluded-prime"
    assert w.data["p"] == 3 and w.data["n"] == 1


def test_generate_three_squares_case(q8, f3):
    w = wt.generate_witness(q8, f3)
    assert w.case_tag == "three-squares"
    assert w.data["triple"] == ["1", "1", "0"]


def test_generate_none_for_q8_over_q(q8, qq):
    assert wt.generate_witness(q8, qq) is None


def test_generate_none_for_q8_c7_over_q(qq):
    s = groups.build_slc(P.D2, 1, abelian=[7])
    assert wt.generate_witness(s, qq) is None


@pytest.mark.parametrize("ptype,k,k2,abelian,ring,case,reason,reduced_to", [
    (P.D1, 1, None, (), "F3", "presentation-type-1",
     ("structure", "TheoremA.structure"), "4^-1 != 0"),
    (P.D3, 1, 1, (), "F3", "presentation-type-3-5",
     ("structure", "TheoremA.structure"), "4^-1 * sum of distinct central powers of y != 0"),
    (P.D2, 2, None, (), "F3", "presentation-type-2-large-m",
     ("structure", "TheoremA.structure"), "4^-1 != 0"),
    (P.D2, 1, None, (4,), "F3", "order-4-element",
     ("order-4-element", "TheoremA.1"), "4^-1 * (1 - g^2) != 0"),
    (P.D2, 1, None, (3,), "Q", "excluded-prime",
     ("excluded-prime", "TheoremA.2"), "alpha(g-1) and beta(g-1) not both 0"),
    (P.D2, 1, None, (), "F3", "three-squares",
     ("equation-solvable", "TheoremA.equation"), "some solution coordinate != 0"),
])
def test_each_case_cites_its_reason_and_condition2_reduction(
    ptype, k, k2, abelian, ring, case, reason, reduced_to
):
    """One carrier per witness case: the reason `necessary_conditions` cites
    first and the symbolic condition-2 reduction the witness records, both
    read from `witness.CASES`; the verdict's first certificate is the
    witness's own."""
    S = groups.build_slc(ptype, k, k2, abelian=abelian)
    R = coeff.make_ring(ring)
    w = wt.generate_witness(S, R)
    assert w.case_tag == case
    assert w.validation["condition2"] == {"mode": "symbolic", "reduced_to": reduced_to}
    v = decide.necessary_conditions(S, R)
    assert (v.reasons[0].criterion, v.reasons[0].citation) == reason
    assert v.reasons[-1].to_json() == {"criterion": "witness", "citation": "Lemma5.1",
                                       "data": {"case": case}}
    assert v.certificates[0] == w.certificate() == {"kind": "witness", **w.to_dict()}
    assert wt.CASES[case] == (*reason, reduced_to)


def test_generate_order4_takes_precedence_over_prime(f3):
    s = groups.build_slc(P.D2, 1, abelian=[4, 3])
    w = wt.generate_witness(s, f3)
    assert w.case_tag == "order-4-element"


def test_generated_witnesses_pass_exhaustive_check(q8, d4, f3, f5):
    for S, R in [(q8, f3), (q8, f5), (d4, f3)]:
        w = wt.generate_witness(S, R)
        sigma = groups.canonical_involution(S)
        assert wt.check_witness(S.group, R, sigma, w, S.s).is_valid


def test_problem_element_has_no_decomposition(q8, f3):
    w = wt.generate_witness(q8, f3)
    h = problem_element(q8, f3, w)
    sigma = groups.canonical_involution(q8)
    assert decide.element_star_clean(h, sigma) is None


# ---------------------------------------------------------------- lifting

def test_lift_from_trivial_group(f3):
    RT = gr.GroupRing(groups.build_abelian([]), f3)
    sigma = groups.classical_involution(RT.group)
    dec = wt.StarCleanDecomposition(RT.from_coeffs([f3.from_int(2)]), RT.zero())
    res = wt.lift_c2(dec, RT, sigma)
    assert res.group.order == 2
    res.decomposition.validate(res.sigma)
    assert res.decomposition.target() == res.target


def test_lift_pure_unit_stays_pure_unit(f3):
    RT = gr.GroupRing(groups.build_abelian([]), f3)
    sigma = groups.classical_involution(RT.group)
    dec = wt.StarCleanDecomposition(RT.one(), RT.zero())
    res = wt.lift_c2(dec, RT, sigma)
    assert res.decomposition.projection.is_zero()


def test_lift_c2_to_klein_random(f3):
    c2 = groups.cyclic_group(2)
    RC2 = gr.GroupRing(c2, f3)
    sigma = groups.classical_involution(c2)  # identity involution
    assert all(int(sigma.image[g]) == g for g in c2.elements())
    count = 0
    for alpha in enumerate_elements(RC2):
        dec = decide.element_star_clean(alpha, sigma)
        if dec is None:
            continue
        res = wt.lift_c2(dec, RC2, sigma)
        assert res.group.order == 4
        res.decomposition.validate(res.sigma)
        count += 1
    assert count == 9  # every element of F3[C2] is *-clean


def _embedded(el, G):
    """el in RH as an element of R[H x C2], on the pairs named (h,1)."""
    H = el.group
    return gr.GroupRing(G, el.ring).from_dict(
        {f"({H.names[h]},1)": c for h, c in enumerate(el.coeffs)}
    )


def test_lift_is_the_embedding(f3):
    # every decomposition of F3[C2], under its identity involution
    c2 = groups.cyclic_group(2)
    RC2 = gr.GroupRing(c2, f3)
    sigma_c2 = groups.classical_involution(c2)
    projs = [p for p in enumerate_elements(RC2) if gr.is_projection(p, sigma_c2)]
    cases = [
        (wt.StarCleanDecomposition(alpha - p, p), RC2, sigma_c2)
        for alpha in enumerate_elements(RC2)
        for p in projs
        if gr.is_unit(alpha - p)
    ]
    assert len(cases) == 16  # F3[C2] = F3 x F3, and F3 has 4 decompositions
    # seeded draws over Q8/F5^2 under both involutions
    q8 = groups.build_slc(P.D2, 1)
    RQ = gr.GroupRing(q8.group, coeff.FiniteField(5, 2))
    rng = np.random.default_rng(21)
    for sigma in (groups.classical_involution(q8.group), groups.canonical_involution(q8)):
        for _ in range(4):
            dec = decide.element_star_clean(RQ.random_element(rng), sigma)
            assert dec is not None
            cases.append((dec, RQ, sigma))
    for dec, RH, sigma in cases:
        res = wt.lift_c2(dec, RH, sigma)
        assert res.decomposition.unit == _embedded(dec.unit, res.group)
        assert res.decomposition.projection == _embedded(dec.projection, res.group)
        assert res.target == _embedded(dec.target(), res.group)


def test_lift_rejects_invalid_decomposition(q8, f3):
    RG = gr.GroupRing(q8.group, f3)
    sigma = groups.canonical_involution(q8)
    bad = wt.StarCleanDecomposition(RG.one() + RG.basis(q8.s), RG.zero())
    with pytest.raises(PreconditionError):
        wt.lift_c2(bad, RG, sigma)
