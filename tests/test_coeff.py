from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from starclean import coeff
from starclean.errors import CharDividesError, NonUnitError, RingSpecError


# ---------------------------------------------------------------- construction

def test_zmod_two_inverse():
    assert coeff.Zmod(9).inv(2) == 5


def test_f9_modulus_is_least_lex_irreducible():
    F9 = coeff.GF(3, 2)
    assert F9.order == 9
    assert F9.modulus == (1, 0, 1)  # x^2 + 1 has no root mod 3


def test_even_modulus_rejected():
    with pytest.raises(RingSpecError):
        coeff.Zmod(4)
    with pytest.raises(RingSpecError):
        coeff.GF(2)


def test_nonprime_p_rejected():
    with pytest.raises(RingSpecError):
        coeff.GF(9)


def test_make_ring_strings():
    assert coeff.make_ring("Z/9") == coeff.Zmod(9)
    assert coeff.make_ring("F3^2") == coeff.GF(3, 2)
    assert coeff.make_ring("Q") == coeff.rationals()
    assert coeff.make_ring("Q(zeta7)") == coeff.Qzeta(7)
    with pytest.raises(RingSpecError):
        coeff.make_ring("GF(3)")


# ---------------------------------------------------------------- cyclotomics

def _poly_divide_exact(num, den):
    # independent long division oracle over the integers
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(num) - 1, len(den) - 2, -1):
        c = num[i]
        out[i - len(den) + 1] = c
        for j, dj in enumerate(den):
            num[i - len(den) + 1 + j] -= c * dj
    assert not any(num)
    return tuple(out)


def test_cyclotomic_small():
    assert coeff.cyclotomic_polynomial(1) == (-1, 1)
    assert coeff.cyclotomic_polynomial(4) == (1, 0, 1)


def test_cyclotomic_seven_matches_division_oracle():
    x7_minus_1 = (-1, 0, 0, 0, 0, 0, 0, 1)
    expected = _poly_divide_exact(x7_minus_1, (-1, 1))
    assert coeff.cyclotomic_polynomial(7) == expected == (1,) * 7


@pytest.mark.parametrize("d", range(1, 31))
def test_cyclotomic_product_identity(d):
    from starclean import numtheory

    prod = (1,)
    for e in numtheory.divisors(d):
        prod = coeff._int_poly_mul(prod, coeff.cyclotomic_polynomial(e))
    target = [0] * (d + 1)
    target[0], target[d] = -1, 1
    assert prod == tuple(target)


# ---------------------------------------------------------------- extensions

def test_extend_rationals_with_seventh_root():
    E = coeff.extend_with_root(coeff.rationals(), 7)
    assert isinstance(E, coeff.CyclotomicField) and E.degree == 6


def test_extend_f3_with_eighth_root():
    E = coeff.extend_with_root(coeff.GF(3), 8)
    assert isinstance(E, coeff.FiniteField) and E.order == 9
    z = coeff.root_of_unity(E, 8)
    assert E.pow(z, 8) == E.one
    assert all(E.pow(z, e) != E.one for e in range(1, 8))


def test_extend_trivial_root_returns_same_field():
    F = coeff.GF(5)
    assert coeff.extend_with_root(F, 1) is F
    Q = coeff.rationals()
    assert coeff.extend_with_root(Q, 1) is Q


def test_extend_char_divides_rejected():
    with pytest.raises(CharDividesError):
        coeff.extend_with_root(coeff.GF(3), 6)


# ---------------------------------------------------------------- units

def test_three_not_unit_mod_nine(z9):
    assert not z9.is_unit(3)
    with pytest.raises(NonUnitError):
        z9.inv(3)


def test_zeta7_unit_with_power_inverse():
    F = coeff.Qzeta(7)
    assert F.is_unit(F.zeta)
    assert F.inv(F.zeta) == F.pow(F.zeta, 6)


def test_two_inverse_in_f5():
    assert coeff.GF(5).inv(2) == 3


_SAMPLE_RINGS = [
    coeff.Zmod(9),
    coeff.Zmod(15),
    coeff.GF(5),
    coeff.GF(3, 2),
    coeff.rationals(),
    coeff.Qzeta(5),
]


@pytest.mark.parametrize("ring", _SAMPLE_RINGS, ids=lambda r: r.spec_string())
@given(data=st.data())
def test_ring_axioms_on_samples(ring, data):
    def draw():
        if ring.order is not None:
            return ring.decode(data.draw(st.integers(0, ring.order - 1)))
        if isinstance(ring, coeff.RationalField):
            return Fraction(data.draw(st.integers(-9, 9)), data.draw(st.integers(1, 9)))
        return tuple(
            Fraction(data.draw(st.integers(-3, 3))) for _ in range(ring.degree)
        )

    a, b, c = draw(), draw(), draw()
    assert ring.add(a, b) == ring.add(b, a)
    assert ring.mul(a, b) == ring.mul(b, a)
    assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
    assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b), ring.mul(a, c))
    assert ring.add(a, ring.neg(a)) == ring.zero


@pytest.mark.parametrize("ring", _SAMPLE_RINGS, ids=lambda r: r.spec_string())
def test_two_times_half_is_one(ring):
    assert ring.mul(ring.from_int(2), ring.half) == ring.one


# ---------------------------------------------------------------- three squares

def test_three_squares_f3_exact_triple(f3):
    sol = coeff.solve_three_squares(f3)
    assert (sol.x, sol.y, sol.z) == (1, 1, 0)
    assert sol.verify()


def test_three_squares_rationals_has_none(qq):
    assert coeff.solve_three_squares(qq) is coeff.NO_SOLUTION


def test_three_squares_gaussian_field():
    F = coeff.Qzeta(4)
    sol = coeff.solve_three_squares(F)
    assert sol.verify()
    assert sol.x == F.zeta and sol.y == F.zero and sol.z == F.zero


@pytest.mark.parametrize(
    "ring",
    [coeff.GF(3), coeff.GF(5), coeff.GF(7), coeff.GF(3, 2), coeff.Zmod(9),
     coeff.Zmod(15), coeff.Zmod(25), coeff.Zmod(27), coeff.Zmod(81)],
    ids=lambda r: r.spec_string(),
)
def test_three_squares_agrees_with_naive_loop(ring):
    sol = coeff.solve_three_squares(ring)
    naive = None
    for x in ring.elements():
        for y in ring.elements():
            for z in ring.elements():
                total = ring.add(
                    ring.add(ring.mul(x, x), ring.mul(y, y)),
                    ring.add(ring.mul(z, z), ring.one),
                )
                if ring.is_zero(total):
                    naive = (x, y, z)
                    break
            if naive:
                break
        if naive:
            break
    assert (naive is not None) == isinstance(sol, coeff.ThreeSquaresSolution)
    if naive is not None:
        assert sol.verify()


def test_hensel_consistency_prime_powers():
    # every Z/p^k with odd p and p^k <= 343 admits a solution
    from starclean import numtheory

    for p in [3, 5, 7]:
        q = p
        while q <= 343:
            sol = coeff.solve_three_squares(coeff.Zmod(q))
            assert isinstance(sol, coeff.ThreeSquaresSolution) and sol.verify(), q
            q *= p
    sol = coeff.solve_three_squares(coeff.Zmod(343))
    assert sol.verify()


def test_three_squares_large_extension_field_uses_prime_subfield():
    F = coeff.FiniteField(3, 16)
    sol = coeff.solve_three_squares(F)
    assert sol.verify()


# ---------------------------------------------------------------- levels

def test_level_table():
    assert coeff.level_classify_prime(3) is coeff.Level.TWO
    assert coeff.level_classify_prime(7) is coeff.Level.FOUR
    assert coeff.level_classify_prime(17) is coeff.Level.TWO_OR_FOUR


def test_level_rejects_two():
    with pytest.raises(ValueError):
        coeff.level_classify_prime(2)


def test_two_squares_search_gaussian():
    F = coeff.Qzeta(4)
    x, y = coeff.two_squares_search(F, 1)
    assert F.add(F.mul(x, x), F.mul(y, y)) == F.neg(F.one)


@pytest.mark.parametrize("p", [3, 5])
def test_two_squares_search_succeeds_for_level_two_primes(p):
    # the level classification promises a hit for p = 3, 5 within height 8
    assert coeff.level_classify_prime(p) is coeff.Level.TWO
    F = coeff.Qzeta(p)
    pair = coeff.two_squares_search(F, 8)
    assert pair is not None
    x, y = pair
    assert F.add(F.mul(x, x), F.mul(y, y)) == F.neg(F.one)


def test_two_squares_search_finds_nothing_for_level_four():
    assert coeff.two_squares_search(coeff.Qzeta(7), 1) is None


def test_cyclotomic_solution_for_even_order_prime():
    # 17 divides 2^4 + 1, so Q(zeta17) has an explicit two-squares witness
    sol = coeff.solve_three_squares(coeff.Qzeta(17))
    assert isinstance(sol, coeff.ThreeSquaresSolution) and sol.verify()


def test_cyclotomic_level_four_prime_has_no_solution():
    assert coeff.solve_three_squares(coeff.Qzeta(7)) is coeff.NO_SOLUTION


def test_cyclotomic_local_degree_case_has_no_solution():
    # ord_73(2) = 9 is odd and 73 = 1 mod 8: the paper's level table says "2 or
    # 4", the local degree 9 at 2 says no solution
    F = coeff.Qzeta(73)
    assert coeff.solve_three_squares(F) is coeff.NO_SOLUTION
    assert coeff.local_degree_beyond_paper(F) == {"d": 73, "d_odd": 73, "ord_2": 9}


def test_composite_d_inherits_solution_from_prime_divisor():
    sol = coeff.solve_three_squares(coeff.Qzeta(21))  # 3 | 21 gives level 2
    assert isinstance(sol, coeff.ThreeSquaresSolution) and sol.verify()


# ---------------------------------------------------------------- closed form vs sympy

def _odd_part(d):
    while d % 2 == 0:
        d //= 2
    return d


@pytest.mark.parametrize("d", range(1, 101))
def test_cyclotomic_closed_form_matches_local_degree(d):
    """Solvable in Q(zeta_d) iff 4 | d or ord_{d_odd}(2) is even (sympy)."""
    sympy = pytest.importorskip("sympy")
    d_odd = _odd_part(d)
    even = d_odd > 1 and sympy.n_order(2, d_odd) % 2 == 0
    F = coeff.Qzeta(d)
    out = coeff.solve_three_squares(F)
    if d % 4 == 0 or even:
        assert isinstance(out, coeff.ThreeSquaresSolution) and out.verify()
        assert coeff.local_degree_beyond_paper(F) is None
        return
    assert out is coeff.NO_SOLUTION
    # beyond the paper: every unsolvable field but Q and d_odd a prime = 7 mod 8
    paper = d_odd == 1 or (sympy.isprime(d_odd) and d_odd % 8 == 7)
    local = coeff.local_degree_beyond_paper(F)
    if paper:
        assert local is None
    else:
        assert local == {"d": d, "d_odd": d_odd, "ord_2": sympy.n_order(2, d_odd)}


def test_multiplicative_order_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from math import gcd

    from starclean import numtheory

    for n in range(2, 300):
        for a in (2, 3, 5, 10, n - 1):
            if gcd(a, n) == 1:
                assert numtheory.multiplicative_order(a, n) == sympy.n_order(a, n), (a, n)


def test_cyclotomic_polynomial_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for d in range(1, 106):
        expected = sympy.Poly(sympy.cyclotomic_poly(d, x), x).all_coeffs()[::-1]
        assert coeff.cyclotomic_polynomial(d) == tuple(int(c) for c in expected), d


@pytest.mark.parametrize("d", [23, 73])
def test_two_squares_search_finds_nothing_where_closed_form_says_unsolvable(d):
    # the bounded search is independent of the local-degree rule: at height <= 1
    # it finds no x^2 + y^2 = -1 where the closed form says none exists (d = 7:
    # test_two_squares_search_finds_nothing_for_level_four)
    F = coeff.Qzeta(d)
    assert coeff.solve_three_squares(F) is coeff.NO_SOLUTION
    assert coeff.two_squares_search(F, height_bound=1, candidate_budget=3000) is None
