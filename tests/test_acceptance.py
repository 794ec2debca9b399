"""End-to-end acceptance runs for the whole engine at desk scale.

Each test prints one `[acceptance] <name>: PASS/FAIL` line (visible with
``pytest -s``) and enforces its wall-clock limit where one is stated.
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np

from starclean import (
    canonical as cn,
    cli,
    coeff,
    decide,
    groupring as gr,
    groups,
    numtheory,
    witness as wt,
)
from starclean.decide import Budget
from starclean.groups import Presentation as P
from conftest import enumerate_elements, involution_formula, problem_element, pw_mass


@contextmanager
def criterion(name, limit_s=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    dt = time.perf_counter() - t0
    if limit_s is not None:
        assert dt < limit_s, f"{name} took {dt:.1f}s, over the {limit_s}s limit"
    print(f"[acceptance] {name}: PASS ({dt:.1f}s)")


# -------------------------------------------------------------------------
# 1. brute force vs theory on F3[Q8]
# -------------------------------------------------------------------------

def test_crossval_q8_f3_clean_and_not_star_clean():
    with criterion("crossval Q8/F3: clean, not *-clean, certificate (1,1,0)", 120):
        code, report = cli.run(
            cli.JobSpec(command="crossval", group_spec="Q8", ring_spec="F3")
        )
        assert code == 1
        assert report["agreement"] == "agree"
        assert report["brute"]["clean"]["result"] is True
        assert report["brute"]["clean"]["mode"] == "full"
        assert report["brute"]["star_clean"]["result"] is False
        assert report["theory"]["status"] == "not-star-clean"
        certs = [c for c in report["certificates"] if c["kind"] == "three-squares"]
        assert certs and certs[0]["triple"] == ["1", "1", "0"]


# -------------------------------------------------------------------------
# 2. same for F5 and F7, early exit permitted after certification
# -------------------------------------------------------------------------

def test_crossval_q8_f5_f7_not_star_clean():
    with criterion("crossval Q8/F5 and Q8/F7: not *-clean both ways", 1800):
        for ring in ("F5", "F7"):
            code, report = cli.run(
                cli.JobSpec(command="crossval", group_spec="Q8", ring_spec=ring)
            )
            assert code == 1, ring
            assert report["theory"]["status"] == "not-star-clean"
            star = report["brute"]["star_clean"]
            assert star["result"] is False
            # the counterexample was certified against the full projection set
            assert star["structure_full"] is True
            assert report["agreement"] == "agree"


# -------------------------------------------------------------------------
# 3. f-component projections: closed form vs exhaustive scan
# -------------------------------------------------------------------------

def _exhaustive_f_projections(S, R):
    RG = gr.GroupRing(S.group, R)
    sigma = groups.canonical_involution(S)
    oms = RG.one() - RG.basis(S.s)
    reps = [g for g in range(S.group.order) if g % 2 == 0]
    out = set()
    for codes in itertools.product(range(R.order), repeat=len(reps)):
        vec = [R.zero] * S.group.order
        for rep, c in zip(reps, codes):
            vec[rep] = R.decode(c)
        p = RG.from_coeffs(vec) * oms
        if gr.is_idempotent(p) and gr.apply_involution(sigma, p) == p:
            out.add(p)
    return out


def test_f_projection_formula_matches_exhaustive():
    with criterion("f-projections: idempotent d(1-s) vs exhaustive scan"):
        F3 = coeff.FiniteField(3)
        q8 = groups.build_slc(P.D2, 1)
        RG = gr.GroupRing(q8.group, F3)
        oms = RG.one() - RG.basis(q8.s)
        projs = set(cn.f_projections(q8, F3))
        assert projs == {RG.zero(), oms.scale(F3.from_int(2))}
        assert projs == _exhaustive_f_projections(q8, F3)

        q8c2 = groups.build_slc(P.D2, 1, abelian=[2])
        assert set(cn.f_projections(q8c2, F3)) == _exhaustive_f_projections(q8c2, F3)


# -------------------------------------------------------------------------
# 4. closed-form involution vs linear extension on the f-component
# -------------------------------------------------------------------------

def test_involution_formula_oracle():
    with criterion("involution formula vs linear extension (81 exact + 1000 random)"):
        F3 = coeff.FiniteField(3)
        q8 = groups.build_slc(P.D2, 1)
        RG = gr.GroupRing(q8.group, F3)
        sigma = groups.canonical_involution(q8)
        oms = RG.one() - RG.basis(q8.s)
        reps = [g for g in range(8) if g % 2 == 0]
        count = 0
        for codes in itertools.product(range(3), repeat=4):
            vec = [F3.zero] * 8
            for rep, c in zip(reps, codes):
                vec[rep] = c
            alpha = RG.from_coeffs(vec) * oms
            form = cn.decompose_f(q8, alpha)
            assert cn.reassemble(involution_formula(form)) == gr.apply_involution(
                sigma, alpha
            )
            count += 1
        assert count == 81

        F5 = coeff.FiniteField(5)
        s = groups.build_slc(P.D2, 1, abelian=[3])
        RG5 = gr.GroupRing(s.group, F5)
        sigma5 = groups.canonical_involution(s)
        oms5 = RG5.one() - RG5.basis(s.s)
        rng = np.random.default_rng(0)
        for _ in range(1000):
            alpha = RG5.random_element(rng) * oms5
            form = cn.decompose_f(s, alpha)
            assert cn.reassemble(involution_formula(form)) == gr.apply_involution(
                sigma5, alpha
            )


# -------------------------------------------------------------------------
# 5. square-chain and annihilator identities
# -------------------------------------------------------------------------

def test_square_chain_identities():
    with criterion("two-squares and annihilator certificates (exact sweep)", 60):
        rings = [coeff.ModRing(9), coeff.ModRing(25), coeff.FiniteField(7)]
        for p in (3, 5, 11, 13):
            Cp = groups.cyclic_group(p)
            for R in rings:
                g = gr.GroupRing(Cp, R).basis(1)
                for t in range(0, 7):
                    assert wt.two_squares(g, p, t).verify()
                for n in range(1, 7):
                    if (2**n + 1) % p == 0:
                        wt.annihilator_pair(g, p, n)  # raises if the identity fails


# -------------------------------------------------------------------------
# 6. witness soundness sweep over all presentations of order <= 32
# -------------------------------------------------------------------------

def _presentations_up_to_32():
    out = []
    d_specs = [
        (P.D1, 1, None, None, 8),
        (P.D1, 2, None, None, 16),
        (P.D1, 3, None, None, 32),
        (P.D2, 1, None, None, 8),
        (P.D2, 2, None, None, 16),
        (P.D2, 3, None, None, 32),
        (P.D3, 1, 1, None, 16),
        (P.D3, 1, 2, None, 32),
        (P.D3, 2, 1, None, 32),
        (P.D4, 1, 1, None, 16),
        (P.D4, 1, 2, None, 32),
        (P.D4, 2, 1, None, 32),
        (P.D5, 1, 1, 1, 32),
    ]
    abelian_by_budget = {1: [()], 2: [(2,)], 3: [(3,)], 4: [(4,), (2, 2)]}
    for ptype, k, k2, k3, order in d_specs:
        room = 32 // order
        for budget in range(1, room + 1):
            for ab in abelian_by_budget.get(budget, []):
                out.append(groups.build_slc(ptype, k, k2, k3, ab))
    return out


def test_witness_soundness_sweep():
    with criterion("witness soundness sweep: order <= 32 x {F3, F5, Z/9}"):
        budget = Budget(
            structure_limit=100_000,
            structure_samples=2_000,
            low_support_limit=7_000,
            seed=0,
        )
        rings = [coeff.FiniteField(3), coeff.FiniteField(5), coeff.ModRing(9)]
        carriers = 0
        for S in _presentations_up_to_32():
            sigma = groups.canonical_involution(S)
            for R in rings:
                w = wt.generate_witness(S, R, z_budget=700)
                assert isinstance(w, wt.NonCleanWitness), (S.spec_string(), R)
                h = problem_element(S, R, w)
                # the derived problem element must admit no decomposition
                dec = decide.element_star_clean(h, sigma, budget)
                assert dec is None, (S.spec_string(), R.spec_string())
                carriers += 1
        assert carriers == 75
        # smallest carriers: confirm the full brute scan agrees
        for S in (groups.build_slc(P.D1, 1), groups.build_slc(P.D2, 1)):
            rep = decide.brute_star_clean(
                S.group, groups.canonical_involution(S), coeff.FiniteField(3)
            )
            assert rep.result is False and rep.structure_full


# -------------------------------------------------------------------------
# 7. excluded-prime scan below 10^4
# -------------------------------------------------------------------------

def test_excluded_prime_scan():
    with criterion("2^n + 1 divisibility across odd primes < 10^4", 5):
        for p in numtheory.primes_below(10_000):
            if p == 2:
                continue
            n = numtheory.exists_n_dividing(p)
            if p % 8 == 7:
                assert n is None, p
            elif p % 8 in (3, 5):
                assert n is not None and pow(2, n, p) == p - 1, p
                assert (2**n + 1) % p == 0


# -------------------------------------------------------------------------
# 8. rational verdicts for Q8 x Cp
# -------------------------------------------------------------------------

def test_rational_verdicts():
    with criterion("rational coefficients: Q8xC3, Q8xC5, Q8xC7, Q8xC17"):
        code, report = cli.run(
            cli.JobSpec(command="decide", group_spec="Q8xC3", ring_spec="Q")
        )
        assert code == 1
        assert any(
            r["citation"] == "CorollaryA.1" for r in report["verdict"]["reasons"]
        )

        code, report = cli.run(
            cli.JobSpec(command="decide", group_spec="Q8xC5", ring_spec="Q")
        )
        assert code == 1

        code, report = cli.run(
            cli.JobSpec(command="decide", group_spec="Q8xC7", ring_spec="Q")
        )
        assert code == 0
        assert any(
            r["citation"] == "CorollaryA.2" for r in report["verdict"]["reasons"]
        )

        # 17 = 2^4 + 1 is a Fermat prime, so the excluded-prime test resolves
        # this case definitively (and the cyclotomic construction provides an
        # explicit equation certificate in Q(zeta17) as a cross-check)
        code, report = cli.run(
            cli.JobSpec(command="decide", group_spec="Q8xC17", ring_spec="Q")
        )
        assert code == 1
        reasons = report["verdict"]["reasons"]
        assert any(
            r["citation"] == "TheoremA.2" and r["data"].get("p") == 17 and r["data"].get("n") == 4
            for r in reasons
        )
        assert (2**4 + 1) % 17 == 0
        sol = coeff.solve_three_squares(coeff.CyclotomicField(17))
        assert isinstance(sol, coeff.ThreeSquaresSolution) and sol.verify()


# -------------------------------------------------------------------------
# 9. lifting decompositions across x C2
# -------------------------------------------------------------------------

def test_lift_100_random_decompositions():
    with criterion("lift 100 random decompositions F3[C2] -> F3[C2xC2]", 10):
        F3 = coeff.FiniteField(3)
        c2 = groups.cyclic_group(2)
        RC2 = gr.GroupRing(c2, F3)
        sigma = groups.classical_involution(c2)  # the identity involution here
        projs = [
            p for p in enumerate_elements(RC2) if gr.is_projection(p, sigma)
        ]
        all_decs = []
        for alpha in enumerate_elements(RC2):
            for q in projs:
                u = alpha - q
                if gr.is_unit(u):
                    all_decs.append(wt.StarCleanDecomposition(u, q))
        rng = np.random.default_rng(9)
        assert all_decs
        for _ in range(100):
            dec = all_decs[int(rng.integers(0, len(all_decs)))]
            res = wt.lift_c2(dec, RC2, sigma)
            assert res.group.order == 4
            res.decomposition.validate(res.sigma)  # unit + projection re-checks
            assert res.decomposition.target() == res.target


# -------------------------------------------------------------------------
# 10. semisimple decomposition mass check
# -------------------------------------------------------------------------

def _partitions(n):
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        for rest in _partitions(n - first):
            if not rest or rest[0] <= first:
                yield (first,) + rest


def _abelian_groups_up_to(limit):
    for n in range(1, limit + 1):
        parts_per_prime = []
        for p, e in numtheory.factorize(n):
            parts_per_prime.append([tuple(p**x for x in part) for part in _partitions(e)])
        for combo in itertools.product(*parts_per_prime):
            factors = [f for part in combo for f in part]
            yield groups.build_abelian(factors)


def test_perlis_walker_mass_check():
    with criterion("semisimple decomposition mass: all abelian |A| <= 256"):
        fields = [coeff.RationalField(), coeff.FiniteField(3), coeff.FiniteField(5)]
        checked = 0
        for A in _abelian_groups_up_to(256):
            for F in fields:
                if F.char and A.order % F.char == 0:
                    continue
                pw = decide.perlis_walker(F, A)
                assert pw_mass(pw) == A.order, (A.order, F.spec_string())
                checked += 1
        assert checked > 1000
