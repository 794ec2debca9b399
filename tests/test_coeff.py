from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import reference_gf_mul_digits, reference_least_irreducible, reference_three_squares
from starclean import coeff, numtheory
from starclean.errors import CharDividesError, NonUnitError, ParseError, RingSpecError


# ---------------------------------------------------------------- construction

def test_zmod_two_inverse():
    assert coeff.ModRing(9).inv(2) == 5


def test_f9_modulus_is_least_lex_irreducible():
    F9 = coeff.FiniteField(3, 2)
    assert F9.order == 9
    assert F9.modulus == (1, 0, 1)  # x^2 + 1 has no root mod 3


def test_explicit_modulus_is_checked():
    F = coeff.FiniteField(3, 2, modulus=(2, 2, 1))  # x^2 + 2x + 2 has no root mod 3
    assert F.modulus == (2, 2, 1) and F.mul(3, 3) == F.undigits((1, 1))  # w^2 = w + 1
    with pytest.raises(RingSpecError):
        coeff.FiniteField(3, 2, modulus=(2, 0, 1))  # x^2 + 2 = (x + 1)(x + 2)
    with pytest.raises(RingSpecError):
        coeff.FiniteField(3, 2, modulus=(1, 0, 2))


def test_even_modulus_rejected():
    with pytest.raises(RingSpecError):
        coeff.ModRing(4)
    with pytest.raises(RingSpecError):
        coeff.FiniteField(2)


def test_nonprime_p_rejected():
    with pytest.raises(RingSpecError):
        coeff.FiniteField(9)


def test_make_ring_strings():
    assert coeff.make_ring("Z/9") == coeff.ModRing(9)
    assert coeff.make_ring("F3^2") == coeff.FiniteField(3, 2)
    assert coeff.make_ring("Q") == coeff.RationalField()
    assert coeff.make_ring("Q(zeta7)") == coeff.CyclotomicField(7)
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


def test_cyclotomic_reduction_rows_are_built_by_the_first_product():
    """Q(zeta_89) is built for Theorem C with no product over it: its 87
    reduction rows wait for a product, and then fold zeta^88 * zeta back to
    -(1 + zeta + ... + zeta^87)."""
    F = coeff.CyclotomicField(89)
    assert "_red_rows" not in vars(F)
    zeta88 = tuple(Fraction(int(i == 87)) for i in range(88))
    assert F.mul(zeta88, F.zeta) == (Fraction(-1),) * 88
    assert "_red_rows" in vars(F)


def _int_poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return tuple(out)


@pytest.mark.parametrize("d", range(1, 31))
def test_cyclotomic_product_identity(d):
    from starclean import numtheory

    prod = (1,)
    for e in numtheory.divisors(d):
        prod = _int_poly_mul(prod, coeff.cyclotomic_polynomial(e))
    target = [0] * (d + 1)
    target[0], target[d] = -1, 1
    assert prod == tuple(target)


# ---------------------------------------------------------------- extensions

def test_extend_rationals_with_seventh_root():
    E = coeff.extend_with_root(coeff.RationalField(), 7)
    assert isinstance(E, coeff.CyclotomicField) and E.degree == 6


def test_extend_f3_with_eighth_root():
    E = coeff.extend_with_root(coeff.FiniteField(3), 8)
    assert isinstance(E, coeff.FiniteField) and E.order == 9
    # some element has multiplicative order exactly 8
    assert any(
        E.pow(z, 8) == E.one and all(E.pow(z, e) != E.one for e in range(1, 8))
        for z in E.elements()
    )


def test_extend_trivial_root_returns_same_field():
    F = coeff.FiniteField(5)
    assert coeff.extend_with_root(F, 1) is F
    Q = coeff.RationalField()
    assert coeff.extend_with_root(Q, 1) is Q


def test_extend_char_divides_rejected():
    with pytest.raises(CharDividesError):
        coeff.extend_with_root(coeff.FiniteField(3), 6)


# ---------------------------------------------------------------- units

def test_three_not_unit_mod_nine(z9):
    assert not z9.is_unit(3)
    with pytest.raises(NonUnitError):
        z9.inv(3)


def test_zeta7_unit_with_power_inverse():
    F = coeff.CyclotomicField(7)
    assert F.is_unit(F.zeta)
    assert F.inv(F.zeta) == F.pow(F.zeta, 6)


def test_two_inverse_in_f5():
    assert coeff.FiniteField(5).inv(2) == 3


_SAMPLE_RINGS = [
    coeff.ModRing(9),
    coeff.ModRing(15),
    coeff.FiniteField(5),
    coeff.FiniteField(3, 2),
    coeff.RationalField(),
    coeff.CyclotomicField(5),
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


# ---------------------------------------------------------------- coefficient strings

@pytest.mark.parametrize(
    "spec", ["Z/9", "Z/15", "F7", "F3^2", "F3^3", "F7^2", "Q", "Q(zeta3)", "Q(zeta12)"]
)
def test_parse_inverts_fmt(spec):
    R = coeff.make_ring(spec)
    if R.order is not None:
        draws = [R.decode(c) for c in range(R.order)]
    else:
        rng = np.random.default_rng(17)

        def coordinate():
            kind = int(rng.integers(0, 4))  # zero, +-1, or a signed fraction
            if kind == 0:
                return Fraction(0)
            if kind == 1:
                return Fraction(int(rng.choice([-1, 1])))
            return Fraction(int(rng.integers(-40, 41)), int(rng.integers(1, 13)))

        dim = getattr(R, "degree", None)
        draws = [
            coordinate() if dim is None else tuple(coordinate() for _ in range(dim))
            for _ in range(300)
        ]
        assert any(R.fmt(a).startswith("-") for a in draws)
        assert any("/" in R.fmt(a) for a in draws)
    for a in draws:
        assert R.parse(R.fmt(a)) == a, R.fmt(a)


def _reference_fmt(R, a):
    """The per-ring polynomial spellings: GF(p^k) digits as c*w^i with c in
    1..p-1, cyclotomic coordinates as c*z^i with -z for -1 and "+-" read as
    "-"; highest power first, the constant bare, 0 for zero."""
    var, coords = ("w", R.digits(a)) if isinstance(R, coeff.FiniteField) else ("z", a)
    terms = []
    for i in reversed(range(len(coords))):
        c = coords[i]
        if c == 0:
            continue
        base = var if i == 1 else f"{var}^{i}"
        if i == 0:
            terms.append(str(c))
        elif c == 1 or c == -1:
            terms.append(base if c == 1 else "-" + base)
        else:
            terms.append(f"{c}*{base}")
    return "+".join(terms).replace("+-", "-") if terms else "0"


@pytest.mark.parametrize("spec", ["F3^3", "F5^2", "Q(zeta7)", "Q(zeta12)"])
def test_one_polynomial_formatter(spec):
    """FiniteField.fmt and CyclotomicField.fmt go through one `_fmt_poly`:
    every code of F3^3 and F5^2, and seeded Q(zeta_d) payloads with zero,
    +-1 and fractional coordinates, spell as the per-ring reference and
    parse back."""
    R = coeff.make_ring(spec)
    if R.order is not None:
        draws = [R.decode(c) for c in range(R.order)]
    else:
        rng = np.random.default_rng(23)
        pool = [Fraction(0), Fraction(1), Fraction(-1), Fraction(3), Fraction(-5, 7)]
        draws = [tuple(pool[i] for i in rng.integers(0, 5, R.degree)) for _ in range(400)]
        draws.append(tuple([Fraction(0)] * R.degree))
    for a in draws:
        assert R.fmt(a) == _reference_fmt(R, a)
        assert R.parse(R.fmt(a)) == a
    assert len({R.fmt(a) for a in draws}) == len(set(draws))


@pytest.mark.parametrize(
    "spec, text",
    [
        ("Z/9", "-1"), ("F3", "w"), ("F3^2", "2w"), ("F3^2", "1/2*w"), ("F3^2", "w^2"),
        ("F3^2", ""), ("Q", "1/0"), ("Q", "z"), ("Q(zeta3)", "w"), ("Q(zeta3)", "z^2"),
        ("Q(zeta3)", "z+"), ("Q(zeta12)", "1--z"),
    ],
)
def test_parse_rejects_malformed(spec, text):
    with pytest.raises(ParseError):
        coeff.make_ring(spec).parse(text)


# ---------------------------------------------------------------- GF(p^k) product vs sympy

# every odd p^k <= 1024 with k >= 2: the fields with dense tables
_TABLE_EXTENSIONS = [
    (p, k) for p in range(3, 32, 2) if numtheory.is_prime(p) for k in range(2, 7) if p**k <= 1024
]
# above the table cap, one beyond int64 codes, and p just below sqrt(2^63) for k = 2
_KERNEL_EXTENSIONS = [(3, 7), (5, 5), (7, 4), (3, 40), (3037000493, 2)]


def _high_first(coeffs):
    return [int(c) for c in reversed(coeffs)]


def _sympy_gf_product(F, a, b):
    """a * b in GF(p^k) by sympy's dense polynomial arithmetic over GF(p)."""
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_mul, gf_rem

    prod = gf_mul(_high_first(F.digits(a)), _high_first(F.digits(b)), F.p, ZZ)
    return F.undigits(reversed(gf_rem(prod, _high_first(F.modulus), F.p, ZZ)))


@pytest.mark.parametrize(
    "p, k", _TABLE_EXTENSIONS + _KERNEL_EXTENSIONS, ids=lambda v: str(v)
)
def test_gf_arithmetic_matches_sympy(p, k):
    """Whole tables for q <= 49, seeded pairs above; `vec` on arrays and the
    scalar operations on single codes give the same exact integers."""
    pytest.importorskip("sympy")
    F = coeff.FiniteField(p, k)
    q = F.order
    if q <= 49:
        pairs = [(a, b) for a in range(q) for b in range(q)]
    else:
        rng = np.random.default_rng(q % 2**32)
        draw = lambda: F.undigits(rng.integers(0, p, size=k))  # noqa: E731
        pairs = [(draw(), draw()) for _ in range(200)]
    expected = [_sympy_gf_product(F, a, b) for a, b in pairs]
    assert [F.mul(a, b) for a, b in pairs] == expected
    assert all(type(F.mul(a, b)) is int for a, b in pairs[:5])
    if q < 2**63:
        A, B = np.array(pairs, dtype=np.int64).T
        assert F.vec.mul(A, B).tolist() == expected
    for a, b in pairs[:50]:
        digit_sum = F.undigits(x + y for x, y in zip(F.digits(a), F.digits(b)))
        assert F.add(a, b) == digit_sum
        assert F.neg(a) == F.undigits(-x for x in F.digits(a))


@pytest.mark.parametrize("p, k", [(3, 2), (5, 2), (3, 3), (7, 2), (3, 4)])
def test_tables_built_in_row_blocks_match_one_block(monkeypatch, p, k):
    """Tables built a few rows at a time (a ragged last block among them)
    equal the one-block build, and each wide product reduces to its code."""
    codes = np.arange(p**k)
    tables = []
    for cells in (1 << 40, 5 * p**k * (2 * k - 1)):
        monkeypatch.setattr(coeff, "_TABLE_BLOCK_CELLS", cells)
        vec = coeff.FiniteField(p, k).vec
        A, B = codes[:, None], codes
        tables.append([vec.add(A, B), vec.mul(A, B), vec.neg(codes), vec.wide_mul(A, B)])
        assert np.array_equal(vec.wide_reduce(vec.wide_mul(A, B)), vec.mul(A, B))
    for one, blocked in zip(*tables):
        assert np.array_equal(one, blocked)


@pytest.mark.parametrize(
    "p, k", [(3, 2), (3, 3), (3, 4), (3, 5), (3, 6), (5, 2), (5, 3), (5, 4), (7, 2), (31, 2)]
)
def test_tables_match_digit_by_digit_reduction(p, k):
    """The mul and wide tables, whose digit sums are reduced mod p once,
    hold the products of the convolution reduced digit by digit, in blocks
    of 64 rows."""
    F = coeff.FiniteField(p, k)
    rows = coeff._reduction_rows(F.modulus, p)
    codes = np.arange(F.order)
    digits = codes[:, None] // p ** np.arange(k) % p
    W = int(2 ** (63 / k))
    W -= W**k >= 2**63
    for r in range(0, F.order, 64):
        want = reference_gf_mul_digits(digits[r : r + 64, None], digits, rows, p)
        A = codes[r : r + 64, None]
        assert np.array_equal(F.vec.mul(A, codes), want @ p ** np.arange(k))
        assert np.array_equal(F.vec.wide_mul(A, codes), want @ W ** np.arange(k))


@pytest.mark.parametrize(
    "p, modulus", [(1_000_000_007, (3, 0, 1)), (1_000_000_007, (2, 1, 0, 1)), (3037000493, (2, 0, 1))]
)
def test_digit_product_matches_digit_by_digit_reduction_for_large_p(p, modulus):
    """With k (p - 1)^2 below 2^63 the digit sums are reduced once and the
    fold's products stay in int64; above it (the last case) every partial
    sum is reduced.  Both give the digits of the reference, for any monic
    modulus."""
    rows = coeff._reduction_rows(modulus, p)
    A, B = np.random.default_rng(p).integers(0, p, size=(2, 500, len(modulus) - 1))
    got = coeff._gf_mul_digits(A, B, rows, p)
    assert np.array_equal(got, reference_gf_mul_digits(A, B, rows, p))


@pytest.mark.parametrize("ring", ["Z/9", "F13", "F2147483647", "F3^2", "F7^2", "F5^4", "F3^6", "F3^7"])
def test_wide_sums_stay_exact_at_wide_terms(ring):
    """`wide_terms` copies of the largest wide product (all products up to
    the table cap, seeded ones above) stay below 2^63 and reduce to that
    many times the product's code."""
    R = coeff.make_ring(ring)
    vec = R.vec
    A, B = np.random.default_rng(2).integers(0, R.order, size=(2, 4096))
    if R.order <= 1024:
        A, B = np.arange(R.order)[:, None], np.arange(R.order)
    wide, codes = vec.wide_mul(A, B).ravel(), vec.mul(A, B).ravel()
    top = int(np.argmax(wide))
    total = vec.wide_terms * int(wide[top])
    assert total < 2**63
    expected = R.mul(R.from_int(vec.wide_terms), int(codes[top]))
    assert int(vec.wide_reduce(np.array(total, dtype=np.int64))) == expected


@pytest.mark.parametrize("p, k", _TABLE_EXTENSIONS + _KERNEL_EXTENSIONS[:3], ids=lambda v: str(v))
def test_modulus_is_least_irreducible_by_sympy(p, k):
    """Candidates run through the base-p digits of 0, 1, 2, ... (constant
    term first); the modulus is the first that sympy finds irreducible."""
    pytest.importorskip("sympy")
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_irreducible_p

    modulus = coeff.FiniteField(p, k).modulus
    code = sum(c * p**i for i, c in enumerate(modulus[:-1]))
    assert gf_irreducible_p(_high_first(modulus), p, ZZ)
    for n in range(code):
        candidate = [n // p**i % p for i in range(k)] + [1]
        assert not gf_irreducible_p(_high_first(candidate), p, ZZ), candidate


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_least_irreducible_matches_the_plain_search(p, k):
    """Skipping the binomials where none is irreducible (a prime factor of k
    not dividing p - 1, or 4 | k with p = 3 mod 4) keeps the modulus."""
    assert coeff._least_irreducible(p, k) == reference_least_irreducible(p, k)


def test_least_irreducible_skips_the_binomials_of_large_p(monkeypatch):
    """F_10007 (3 does not divide p - 1) finds x^3 + x + 1 in a few Rabin
    tests, not after all 10,007 binomials, and F_(10^9+7)^3 builds."""
    rabin = coeff._is_irreducible
    tests = []
    monkeypatch.setattr(coeff, "_is_irreducible", lambda f, p: tests.append(f) or rabin(f, p))
    coeff._least_irreducible.cache_clear()
    assert coeff.FiniteField(10007, 3).modulus == (1, 1, 0, 1)
    assert 0 < len(tests) <= 24
    tests.clear()
    p = 10**9 + 7
    R = coeff.make_ring(f"F{p}^3")
    assert R.order == p**3 and R.modulus[1:] == (1, 0, 1) and 0 < len(tests) <= 24
    assert all(not rabin((c, 1, 0, 1), p) for c in range(R.modulus[0]))


# ---------------------------------------------------------------- three squares

def test_three_squares_f3_exact_triple(f3):
    sol = coeff.solve_three_squares(f3)
    assert (sol.x, sol.y, sol.z) == (1, 1, 0)
    assert sol.verify()


def test_three_squares_rationals_has_none(qq):
    assert coeff.solve_three_squares(qq) is coeff.NO_SOLUTION


def test_three_squares_gaussian_field():
    F = coeff.CyclotomicField(4)
    sol = coeff.solve_three_squares(F)
    assert sol.verify()
    assert sol.x == F.zeta and sol.y == F.zero and sol.z == F.zero


@pytest.mark.parametrize(
    "ring",
    [coeff.FiniteField(3), coeff.FiniteField(5), coeff.FiniteField(7), coeff.FiniteField(3, 2), coeff.ModRing(9),
     coeff.ModRing(15), coeff.ModRing(25), coeff.ModRing(27), coeff.ModRing(81)],
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


def _odd_prime_powers(limit):
    return [(p, k) for p in range(3, limit + 1, 2) if numtheory.is_prime(p)
            for k in range(1, limit.bit_length()) if p**k <= limit]


@pytest.mark.parametrize(
    "ring",
    [coeff.ModRing(n) for n in range(3, 100, 2)]
    + [coeff.FiniteField(p, k) for p, k in _odd_prime_powers(729)],
    ids=lambda r: r.spec_string(),
)
def test_three_squares_triple_matches_exhaustive_search(ring):
    sol = coeff.solve_three_squares(ring)
    assert (sol.x, sol.y, sol.z) == reference_three_squares(ring)
    assert sol.z == 0 and sol.verify()


@pytest.mark.parametrize("p, k", [(3, 9), (5, 6), (101, 2)])
def test_three_squares_large_field_takes_prime_subfield_triple(p, k):
    F = coeff.FiniteField(p, k)
    assert F.order > 10_000
    sol = coeff.solve_three_squares(F)
    assert (sol.x, sol.y, sol.z) == reference_three_squares(coeff.FiniteField(p))
    assert sol.verify()


def test_hensel_consistency_prime_powers():
    # every Z/p^k with odd p and p^k <= 343 admits a solution
    from starclean import numtheory

    for p in [3, 5, 7]:
        q = p
        while q <= 343:
            sol = coeff.solve_three_squares(coeff.ModRing(q))
            assert isinstance(sol, coeff.ThreeSquaresSolution) and sol.verify(), q
            q *= p
    sol = coeff.solve_three_squares(coeff.ModRing(343))
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
    F = coeff.CyclotomicField(4)
    x, y = coeff.two_squares_search(F, 1)
    assert F.add(F.mul(x, x), F.mul(y, y)) == F.neg(F.one)


@pytest.mark.parametrize("p", [3, 5])
def test_two_squares_search_succeeds_for_level_two_primes(p):
    # the level classification promises a hit for p = 3, 5 within height 8
    assert coeff.level_classify_prime(p) is coeff.Level.TWO
    F = coeff.CyclotomicField(p)
    pair = coeff.two_squares_search(F, 8)
    assert pair is not None
    x, y = pair
    assert F.add(F.mul(x, x), F.mul(y, y)) == F.neg(F.one)


def test_two_squares_search_finds_nothing_for_level_four():
    assert coeff.two_squares_search(coeff.CyclotomicField(7), 1) is None


def test_cyclotomic_solution_for_even_order_prime():
    # 17 divides 2^4 + 1, so Q(zeta17) has an explicit two-squares witness
    sol = coeff.solve_three_squares(coeff.CyclotomicField(17))
    assert isinstance(sol, coeff.ThreeSquaresSolution) and sol.verify()


def test_cyclotomic_level_four_prime_has_no_solution():
    assert coeff.solve_three_squares(coeff.CyclotomicField(7)) is coeff.NO_SOLUTION


def test_cyclotomic_local_degree_case_has_no_solution():
    # ord_73(2) = 9 is odd and 73 = 1 mod 8: the paper's level table says "2 or
    # 4", the local degree 9 at 2 says no solution
    F = coeff.CyclotomicField(73)
    assert coeff.solve_three_squares(F) is coeff.NO_SOLUTION
    assert coeff.local_degree_beyond_paper(F) == {"d": 73, "d_odd": 73, "ord_2": 9}


def test_composite_d_inherits_solution_from_prime_divisor():
    sol = coeff.solve_three_squares(coeff.CyclotomicField(21))  # 3 | 21 gives level 2
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
    F = coeff.CyclotomicField(d)
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
    F = coeff.CyclotomicField(d)
    assert coeff.solve_three_squares(F) is coeff.NO_SOLUTION
    assert coeff.two_squares_search(F, height_bound=1, candidate_budget=3000) is None
