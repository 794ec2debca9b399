import numpy as np
import pytest

from starclean import _linalg, cli, coeff, decide, groups, groupring as gr, numtheory
from starclean.decide import Budget, Status
from starclean.errors import CharDividesError, PreconditionError
from starclean.groups import Presentation as P
from conftest import (
    pw_mass,
    reference_is_unit,
    reference_scan,
    reference_stratum,
    reference_stream,
    theorem_b_decide,
)


# ---------------------------------------------------------------- number theory

def test_exists_n_dividing_examples():
    assert numtheory.exists_n_dividing(3) == 1
    assert numtheory.exists_n_dividing(5) == 2
    assert numtheory.exists_n_dividing(7) is None
    assert numtheory.exists_n_dividing(17) == 4  # 17 = 2^4 + 1


def test_exists_n_dividing_verifies():
    for p in [3, 5, 11, 13, 17, 19, 29]:
        n = numtheory.exists_n_dividing(p)
        if n is not None:
            assert (2**n + 1) % p == 0


def test_exists_n_rejects_composite():
    with pytest.raises(PreconditionError):
        numtheory.exists_n_dividing(9)


def test_least_excluded_prime_matches_the_plain_search():
    # the least odd prime p | m dividing some 2^n + 1, n <= p, with the least n
    for m in range(1, 400):
        want = next(
            ((p, n) for p in range(3, m + 1, 2) if m % p == 0 and numtheory.is_prime(p)
             for n in range(1, p + 1) if (2**n + 1) % p == 0),
            None,
        )
        assert numtheory.least_excluded_prime(m) == want, m
    assert numtheory.least_excluded_prime(7 * 73 * 5 * 3) == (3, 1)
    assert numtheory.least_excluded_prime(7 * 73 * 17) == (17, 4)


# ---------------------------------------------------------------- necessary conditions

def test_necessary_q8c3_fails_prime_condition(f3, qq):
    s = groups.build_slc(P.D2, 1, abelian=[3])
    for R in (f3, qq):
        v = decide.necessary_conditions(s, R)
        assert v.status is Status.NOT_STAR_CLEAN
        assert v.cited("TheoremA.2")


def test_necessary_q8c7_over_q_passes(qq):
    s = groups.build_slc(P.D2, 1, abelian=[7])
    v = decide.necessary_conditions(s, qq)
    assert v.status is Status.UNKNOWN
    assert v.cited("TheoremA.necessary")


def test_necessary_dihedral_fails_structure(d4, f3):
    v = decide.necessary_conditions(d4, f3)
    assert v.status is Status.NOT_STAR_CLEAN
    assert v.cited("TheoremA.structure")


def test_necessary_order4_condition(f3):
    s = groups.build_slc(P.D2, 1, abelian=[4])
    v = decide.necessary_conditions(s, f3)
    assert v.status is Status.NOT_STAR_CLEAN
    assert v.cited("TheoremA.1")


def test_necessary_equation_condition(q8, f3):
    v = decide.necessary_conditions(q8, f3)
    assert v.status is Status.NOT_STAR_CLEAN
    assert v.cited("TheoremA.equation")
    cert = next(c for c in v.certificates if c["kind"] == "three-squares")
    assert cert["triple"] == ["1", "1", "0"]


# ---------------------------------------------------------------- perlis-walker

def test_perlis_walker_q_c7(qq):
    pw = decide.perlis_walker(qq, groups.cyclic_group(7))
    assert pw.components == ((1, 1, 1), (7, 1, 6))
    assert pw_mass(pw) == 7


def test_perlis_walker_f3_c8(f3):
    pw = decide.perlis_walker(f3, groups.cyclic_group(8))
    assert pw.components == ((1, 1, 1), (2, 1, 1), (4, 1, 2), (8, 2, 2))
    assert pw_mass(pw) == 8


def test_perlis_walker_trivial(qq):
    assert decide.perlis_walker(qq, groups.build_abelian([])).components == ((1, 1, 1),)


def test_perlis_walker_char_divides(f3):
    with pytest.raises(CharDividesError):
        decide.perlis_walker(f3, groups.cyclic_group(3))


def test_perlis_walker_random_mass(qq, f3, f5):
    rng = np.random.default_rng(0)
    for _ in range(30):
        factors = [int(rng.choice([2, 3, 4, 5, 7, 8, 9])) for _ in range(rng.integers(1, 4))]
        A = groups.build_abelian(factors)
        if A.order > 512:
            continue
        for F in (qq, f3, f5):
            if F.char and A.order % F.char == 0:
                continue
            assert pw_mass(decide.perlis_walker(F, A)) == A.order


# ---------------------------------------------------------------- theorem C / B

def test_theorem_c_rational_c7_star_clean(qq):
    v = decide.theorem_c_decide(qq, groups.cyclic_group(7))
    assert v.status is Status.STAR_CLEAN
    assert v.cited("TheoremC")


def test_theorem_c_rational_c3_not(qq):
    v = decide.theorem_c_decide(qq, groups.cyclic_group(3))
    assert v.status is Status.NOT_STAR_CLEAN


def test_theorem_c_finite_field_trivial_a(f3):
    v = decide.theorem_c_decide(f3, groups.build_abelian([]))
    assert v.status is Status.NOT_STAR_CLEAN
    assert v.certificates and v.certificates[0]["kind"] == "three-squares"


def test_theorem_c_char_divides(f3):
    with pytest.raises(CharDividesError):
        decide.theorem_c_decide(f3, groups.cyclic_group(3))


def test_theorem_b_examples(f3, qq):
    assert theorem_b_decide(f3, 1, True).status is Status.NOT_STAR_CLEAN
    assert theorem_b_decide(qq, 3, True).status is Status.STAR_CLEAN
    assert theorem_b_decide(qq, 1, False).status is Status.NOT_STAR_CLEAN
    assert theorem_b_decide(qq, 1, None).status is Status.UNKNOWN


def test_theorem_b_agrees_with_theorem_c_where_both_apply(qq, f3):
    # rank-0 over a field is the trivial-A case of the semisimple criterion
    for F in (qq, coeff.CyclotomicField(7), f3):
        b = theorem_b_decide(F, 0, True)
        c = decide.theorem_c_decide(F, groups.build_abelian([]))
        assert b.status == c.status


@pytest.mark.parametrize("spec", ["F3", "F5", "Z/9", "Q", "Q(zeta3)", "Q(zeta7)"])
@pytest.mark.parametrize("rank", [0, 1, 2])
def test_decide_agrees_with_theorem_b(spec, rank):
    # RG is clean for each of these rings: finite rings are clean, and over a
    # field of characteristic 0 the group algebra is semisimple
    R = coeff.make_ring(spec)
    S = groups.build_slc(P.D2, 1, abelian=(2,) * rank)
    b = theorem_b_decide(R, rank, True)
    v = decide.decide_star_clean(S, R)
    assert v.status is b.status
    for cert in b.certificates:
        assert cert in v.certificates


# ---------------------------------------------------------------- brute force

def test_brute_clean_f3_c2(f3):
    rep = decide.brute_clean(groups.cyclic_group(2), f3)
    assert rep.result is True and rep.mode == "full"


def test_brute_star_clean_f3_c2_identity_involution(f3):
    c2 = groups.cyclic_group(2)
    rep = decide.brute_star_clean(c2, groups.classical_involution(c2), f3)
    assert rep.result is True and rep.mode == "full"


def test_brute_star_clean_f3_q8_counterexample(q8, f3):
    sigma = groups.canonical_involution(q8)
    rep = decide.brute_star_clean(q8.group, sigma, f3)
    assert rep.result is False
    assert rep.structure_full
    # the counterexample really has no decomposition
    assert decide.element_star_clean(rep.counterexample, sigma) is None
    assert _eager_first_decomposition(rep.counterexample, sigma, Budget()) is None


def test_brute_clean_sampled_mode_with_full_idempotents(q8, f5):
    # force element sampling while the idempotent set stays exhaustive
    budget = Budget(full_scan_limit=1000, sample_count=300, seed=2)
    rep = decide.brute_clean(q8.group, f5, budget)
    assert rep.mode == "sampled"
    assert rep.structure_full
    assert rep.result is None  # no counterexample in the samples, but no proof either


def test_brute_star_clean_sampled_mode(q8, f3):
    sigma = groups.canonical_involution(q8)
    budget = Budget(full_scan_limit=100, sample_count=300, seed=1)
    rep = decide.brute_star_clean(q8.group, sigma, f3, budget)
    assert rep.mode == "sampled"
    # sampling still runs against the full projection set
    assert rep.structure_full
    assert rep.result is False  # counterexamples are dense enough to hit


_SAMPLED = Budget(full_scan_limit=1000, sample_count=300)


@pytest.mark.parametrize(
    "spec,ring,prop,involution,budget",
    [
        ("Q8", "F3", "clean", None, Budget()),
        ("D1[k=1]", "F3", "clean", None, Budget()),
        ("Q8", "F3", "star-clean", "canonical", Budget()),
        ("Q8", "F3", "star-clean", "classical", Budget()),
        ("Q8", "F5", "clean", None, _SAMPLED),
        ("Q8", "Z/9", "star-clean", "canonical", _SAMPLED),
        ("Q8", "Z/15", "star-clean", "canonical", _SAMPLED),
        ("Q8", "F3^2", "star-clean", "canonical", _SAMPLED),
        ("C3xC2", "F5^2", "star-clean", "classical", _SAMPLED),
        ("D2[k=2]", "F3", "clean", None, Budget()),
        ("D1[k=2]", "Z/9", "star-clean", "canonical", Budget()),
        ("Q8xC2", "F3^3", "star-clean", "canonical", Budget(sample_count=60)),
        ("Q8", "F3", "clean", None, Budget(full_scan_limit=1000, sample_count=3000)),
        ("Q8xC2", "F3", "clean", None, Budget(sample_count=300)),
        ("Q8xC2", "F3", "star-clean", "canonical", Budget(sample_count=300)),
    ],
    ids=[
        "Q8-F3-clean", "D1-F3-clean", "Q8-F3-canonical", "Q8-F3-classical",
        "Q8-F5-clean-sampled", "Q8-Z9", "Q8-Z15", "Q8-F9", "C3xC2-F25",
        "D2k2-F3-clean-sampled-set", "D1k2-Z9-stops-at-1", "Q8xC2-F27-no-table",
        "Q8-F3-clean-sampled-repeats", "Q8xC2-F3-clean", "Q8xC2-F3-canonical",
    ],
)
def test_block_scan_matches_element_by_element_reference(spec, ring, prop, involution, budget):
    """The block scan with its split unit test gives the report and
    counterexample of the element-by-element loop on groupring.is_unit."""
    if involution is None:
        RG, _ = _carrier(spec, ring, "classical")
        rows, full = decide.idempotent_set(RG, budget)
        rep = decide.brute_clean(RG.group, RG.ring, budget)
    else:
        RG, sigma = _carrier(spec, ring, involution)
        rows, full = decide.projection_set(RG, sigma, budget)
        rep = decide.brute_star_clean(RG.group, sigma, RG.ring, budget)
    ref = reference_scan(RG, rows, full, prop, budget)
    assert rep.to_json() == ref.to_json()
    assert rep.counterexample == ref.counterexample
    if budget == Budget() and rep.mode == "sampled":
        # a sampled structure set, and a scan that stops in its first two blocks
        assert not rep.structure_full and rep.tested <= decide._FIRST_BLOCK * (1 + 4)
    if spec == "Q8xC2" and ring == "F3^3":
        # 27^8 values a half: above _CACHE_CAP, so the halves keep no table
        assert 27**8 > decide._CACHE_CAP and rep.mode == "sampled"


_SWEEP_16 = [
    "D1[k=1]", "D1[k=1]xC2", "D1[k=2]", "Q8", "Q8xC2", "D2[k=2]", "D3[k=1,k2=1]", "D4[k=1,k2=1]",
]


def _one_factor(RG, rows):
    """`decide._factors` held to its whole-element factor."""
    halves = gr.unit_halves(RG.group)
    negs = RG.ring.vec.neg(rows)
    return [(halves, np.concatenate([h.rows(RG.ring.vec, negs) for h in halves], axis=1))]


def _structure(RG, sigma, prop, budget):
    if prop == "clean":
        return decide.idempotent_set(RG, budget)
    return decide.projection_set(RG, sigma, budget)


@pytest.mark.parametrize(
    "spec,ring,prop,involution",
    [(g, "F3", "clean", "classical") for g in _SWEEP_16]
    + [
        (g, r, "star-clean", inv)
        for r in ("F3", "F5", "Z/9")
        for g in _SWEEP_16
        for inv in ("canonical", "classical")
    ],
)
def test_factored_scan_matches_one_factor_and_reference(spec, ring, prop, involution, monkeypatch):
    """Scanned on its e/f factors wherever the structure set is their
    product, every SLC carrier of order <= 16 gives the report and
    counterexample of the forced whole-element factor at the default
    budget and on a short sampled stream, and of the element-by-element
    reference on the short stream."""
    RG, sigma = _carrier(spec, ring, involution)
    for budget in (Budget(), _SAMPLED):
        rows, full = _structure(RG, sigma, prop, budget)
        got = decide._scan(RG, rows, full, prop, budget)
        with monkeypatch.context() as m:
            m.setattr(decide, "_factors", _one_factor)
            one = decide._scan(RG, rows, full, prop, budget)
        assert got.to_json() == one.to_json() and got.counterexample == one.counterexample
    ref = reference_scan(RG, rows, full, prop, _SAMPLED)
    assert got.to_json() == ref.to_json() and got.counterexample == ref.counterexample


def test_factored_clean_reproducer_matches_reference_and_one_factor(monkeypatch):
    """`brute Q8/F3 --property clean --budget 1000`: 100,000 sampled
    elements against the 224 idempotents, a product of 16 e-parts and 14
    f-parts, give the report of the reference and of the whole element."""
    RG, _ = _carrier("Q8", "F3", "classical")
    budget = Budget(full_scan_limit=1000)
    rows, full = decide.idempotent_set(RG, budget)
    assert [negs.shape for _, negs in decide._factors(RG, rows)] == [(16, 4), (14, 4)]
    got = decide.brute_clean(RG.group, RG.ring, budget)
    monkeypatch.setattr(decide, "_factors", _one_factor)
    assert got.to_json() == decide.brute_clean(RG.group, RG.ring, budget).to_json()
    assert got.to_json() == reference_scan(RG, rows, full, "clean", budget).to_json()
    assert got.mode == "sampled" and got.result is None and got.tested == budget.sample_count


@pytest.mark.parametrize(
    "spec, ring", [("Q8xC2", "F5"), ("D1[k=2]", "F5"), ("D2[k=2]", "F5"), ("Q8xC2", "Z/9")]
)
def test_sampled_product_sets_split(spec, ring):
    """A sampled projection set that is the product of its halves' parts
    splits as an exhaustive one does: Q8xC2/F5 draws 24 = 6 x 4 rows."""
    RG, sigma = _carrier(spec, ring, "canonical")
    rows, full = decide.projection_set(RG, sigma)
    factors = decide._factors(RG, rows)
    assert not full and len(factors) == 2
    assert factors[0][1].shape[0] * factors[1][1].shape[0] == rows.shape[0]


def test_split_is_refused_off_the_index_layout_and_off_products():
    """C3xC2 has no index layout, so one factor; the complete projection
    set of Q8/F3 (32 = 16 x 2 rows) splits, and loses the split when one of
    its rows is dropped, though both halves keep all their parts."""
    RG, sigma = _carrier("C3xC2", "F5", "classical")
    rows, _ = decide.projection_set(RG, sigma)
    assert [len(halves) for halves, _ in decide._factors(RG, rows)] == [1]
    RG, sigma = _carrier("Q8", "F3", "canonical")
    rows, full = decide.projection_set(RG, sigma)
    assert full and [negs.shape for _, negs in decide._factors(RG, rows)] == [(16, 4), (2, 4)]
    for drop in (0, 13, 31):
        fewer = np.delete(rows, drop, axis=0)
        (halves, negs), = decide._factors(RG, fewer)
        assert len(halves) == 2 and negs.shape == (31, 8)
        assert [np.unique(p, axis=0).shape[0] for p in np.hsplit(negs, 2)] == [16, 2]


@pytest.mark.parametrize(
    "spec, ring, count",
    [("Q8", "F3", 50), ("Q8", "Z/15", 23), ("C2", "F7", 50), ("Q8xC2", "F3^3", 400), ("C3xC2", "F13", 7)],
)
def test_sampled_stream_blocks_match_row_by_row_draws(spec, ring, count):
    """Whole-block draws give the rows of the row-by-row generator, in order.
    Blocks hold 4, 16, 64, ... rows and the stratum is count // 5 rows, so
    it ends inside the second or third block, or (count 23) at its edge."""
    RG, _ = _carrier(spec, ring, "classical")
    budget = Budget(full_scan_limit=1, sample_count=count, seed=11)
    blocks, mode = decide._element_stream(RG, budget)
    rows, ref_mode = reference_stream(RG, budget)
    assert mode == ref_mode == "sampled"
    got = np.concatenate(list(blocks))
    assert got.dtype == np.int64
    assert np.array_equal(got, np.array(list(rows)))


@pytest.mark.parametrize(
    "n, q", [(1, 3), (2, 7), (3, 5), (8, 3), (16, 27), (48, 5), (8, 2**31 - 1), (8, 2**32 + 15)]
)
def test_stratum_rows_match_row_by_row_draws(n, q):
    """The batched stratum gives the rows of the row-by-row draws and leaves
    the generator in their state: for sizes up to n, from a generator
    holding half a 64-bit draw, and for a range beyond 32 bits."""
    for seed, count in [(0, 0), (1, 0), (2, 1), (3, 40), (4, 300), (5, 300)]:
        want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        if seed % 2:
            want_rng.integers(0, 5), got_rng.integers(0, 5)
        want = reference_stratum(want_rng, count, n, q)
        assert np.array_equal(decide._stratum_rows(got_rng, count, n, q), want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("n, q", [(8, 3), (2, 7), (16, 5)])
def test_stratum_rows_cover_every_size_code_and_position(n, q):
    """Over 4,000 rows the support sizes are exactly 1..min(4, n), the
    nonzero codes exactly 1..q-1, and every position is used."""
    rows = decide._stratum_rows(np.random.default_rng(0), 4000, n, q)
    assert set((rows != 0).sum(axis=1).tolist()) == set(range(1, min(4, n) + 1))
    assert set(rows[rows != 0].tolist()) == set(range(1, q))
    assert (rows != 0).any(axis=0).all()


def _slc_carriers_up_to_16():
    """Every SLC presentation of order <= 16: the bases and the order-8 ones
    times C2."""
    out = []
    for ptype, k, k2, order in [
        (P.D1, 1, None, 8), (P.D1, 2, None, 16), (P.D2, 1, None, 8), (P.D2, 2, None, 16),
        (P.D3, 1, 1, 16), (P.D4, 1, 1, 16),
    ]:
        out.append(groups.build_slc(ptype, k, k2))
        if order == 8:
            out.append(groups.build_slc(ptype, k, k2, None, (2,)))
    return out


def _unit_probe_rows(RG, rng, count=60):
    """Code rows for the unit oracle: a third uniform, a third two-term
    elements a*g + b*h (units and non-units alike), and a third products
    beta * (1 - g) with g != 1, which are never units."""
    R, G = RG.ring, RG.group
    n, q, third = G.order, R.order, count // 3
    uniform = rng.integers(0, q, size=(third, n))
    two_term = np.zeros((third, n), dtype=np.int64)
    for row in two_term:
        g, h = rng.choice(n, size=2, replace=False)
        row[[g, h]] = rng.integers(1, q, size=2)
    beta = rng.integers(0, q, size=(count - 2 * third, n))
    zero_divisors = np.zeros_like(beta)
    zero_divisors[:, G.identity] = R.encode(R.one)
    zero_divisors[np.arange(beta.shape[0]), rng.integers(1, n, size=beta.shape[0])] = R.encode(
        R.neg(R.one)
    )
    biased = gr.batch_convolve(RG, beta, zero_divisors)
    return np.concatenate([uniform, two_term, biased]).astype(np.int64)


def _unit_table(RG, halves):
    """A factor's unit table: one over the rows of all its halves."""
    return decide._status_table(RG.ring.order, sum(h.T.shape[0] for h in halves))


def _split_mask(RG, halves, units, codes):
    rows = np.concatenate([h.rows(RG.ring.vec, codes) for h in halves], axis=1)
    return decide._is_unit_codes(RG.ring, halves, units, rows)


def _apart_mask(RG, halves, tables, codes):
    """Units on every half, each half a factor with its own unit table."""
    return np.logical_and.reduce([_split_mask(RG, [h], t, codes) for h, t in zip(halves, tables)])


def _oracle_mask(RG, codes):
    R = RG.ring
    elements = (RG.from_coeffs(R.decode(int(c)) for c in row) for row in codes)
    return np.array([reference_is_unit(a) for a in elements])


@pytest.mark.parametrize("ring", ["F3", "F5", "Z/9", "F3^2", "Z/15"])
def test_split_unit_mask_matches_unsplit_is_unit(ring, monkeypatch):
    """On every SLC carrier of order <= 16, on a lift group H x C2 and on
    C3xC2 (no index layout: one block of |G| dims), the unit mask decided on
    the e/f halves, as one factor and as two, is the unsplit elimination's
    on the whole regular representation, and so is groupring.is_unit's.  A
    call makes one stacked `half_units` call, and a repeated call answers
    from the factor's one unit table alone, or from each half's."""
    R = coeff.make_ring(ring)
    carriers = [S.group for S in _slc_carriers_up_to_16()]
    carriers += [groups.direct_product(groups.build_abelian((3, 2)), groups.cyclic_group(2))]
    carriers += [groups.build_abelian((3, 2))]
    rng = np.random.default_rng(7)
    kernel, stacked = _linalg.is_invertible_codes, decide.half_units
    calls, stacks = [], []
    monkeypatch.setattr(
        _linalg, "is_invertible_codes", lambda ring, M: calls.append(M.shape[0]) or kernel(ring, M)
    )
    monkeypatch.setattr(
        decide, "half_units", lambda ring, hs, rows: stacks.append(len(hs)) or stacked(ring, hs, rows)
    )
    seen = set()
    for G in carriers:
        RG = gr.GroupRing(G, R)
        codes = _unit_probe_rows(RG, rng)
        halves = gr.unit_halves(G)
        units, apart = _unit_table(RG, halves), [_unit_table(RG, [h]) for h in halves]
        assert len(halves) == (1 if G.order == 6 else 2)
        ref = _oracle_mask(RG, codes)
        assert not ref[-20:].any()
        stacks.clear()
        assert np.array_equal(_split_mask(RG, halves, units, codes), ref), G.order
        assert stacks == [len(halves)]
        assert np.array_equal(_apart_mask(RG, halves, apart, codes), ref), G.order
        elements = (RG.from_coeffs(R.decode(int(c)) for c in row) for row in codes[::7])
        assert [gr.is_unit(a) for a in elements] == ref[::7].tolist()
        seen.update(ref.tolist())
        calls.clear()
        assert np.array_equal(_split_mask(RG, halves, units, codes), ref)
        assert units[0] is None or not calls
        calls.clear()
        assert np.array_equal(_apart_mask(RG, halves, apart, codes), ref)
        assert any(t is None for t, _ in apart) or not calls
    assert seen == {True, False}


def test_split_unit_mask_without_tables_keeps_rows_apart():
    """Over Q8xC2/F27 a half has 27^8 > _CACHE_CAP values, so no table: rows
    are deduplicated within the call only, and never conflated there.  Not
    e = (1 + s)/2, a non-unit, and e + gf for g = n - 2, a unit, whose
    halves differ in the last coordinate of alpha*f only; not rows v and
    v + 2^64, whose base-27 values wrap to one int64; not duplicates."""
    RG, _ = _carrier("Q8xC2", "F3^3", "classical")
    R, q, n = RG.ring, 27, 16
    halves = gr.unit_halves(RG.group)
    units, apart = _unit_table(RG, halves), [_unit_table(RG, [h]) for h in halves]
    assert q ** (n // 2) > decide._CACHE_CAP and units == (None, None)
    assert all(t is None for t, _ in apart)
    half = R.encode(R.half)
    e, e_gf = np.zeros((2, n), dtype=np.int64)
    e[:2] = e_gf[:2] = half
    e_gf[n - 2], e_gf[n - 1] = half, R.encode(R.neg(R.half))
    wrapped = np.array([[v // q**i % q for i in range(n)] for v in (123456789, 123456789 + 2**64)])
    assert len(set((wrapped @ q ** np.arange(n, dtype=np.int64)).tolist())) == 1
    probe = _unit_probe_rows(RG, np.random.default_rng(3), 30)
    codes = np.concatenate([[e, e_gf], wrapped, probe, probe[::-1], wrapped[::-1], [e_gf, e]])
    ref = _oracle_mask(RG, codes)
    assert not ref[0] and ref[1]
    assert np.array_equal(_split_mask(RG, halves, units, codes), ref)
    assert np.array_equal(_apart_mask(RG, halves, apart, codes), ref)


def test_memo_decides_each_distinct_unknown_row_once():
    """`decide._memo` calls `decide` once a call, on the distinct rows its
    table does not know, and reads the rest back; a repeat call with a table
    decides nothing.  Without a table it decides the distinct rows of each
    call, and rows whose base-q values wrap to one int64 stay apart."""
    decided = []

    def parity(rows):
        decided.append(rows.copy())
        return rows.sum(axis=1) % 2 == 1

    def distinct(rows):
        return {tuple(r) for r in rows.tolist()}

    rng = np.random.default_rng(5)
    rows = rng.integers(0, 3, size=(40, 6))
    rows = np.concatenate([rows, rows[::-1], rows[:5]])
    table, weights = decide._status_table(3, 6)
    assert table.shape == (3**6,)
    assert np.array_equal(decide._memo(table, weights, rows, parity), rows.sum(axis=1) % 2 == 1)
    assert len(decided) == 1 and len(decided[0]) == len(distinct(decided[0])) == len(distinct(rows))
    decided.clear()
    assert np.array_equal(decide._memo(table, weights, rows[::-1], parity), rows[::-1].sum(axis=1) % 2 == 1)
    assert not decided
    more = np.concatenate([rows[:7], rng.integers(0, 3, size=(30, 6)), rows[-3:]])
    assert np.array_equal(decide._memo(table, weights, more, parity), more.sum(axis=1) % 2 == 1)
    assert len(decided) == 1 and distinct(decided[0]) == distinct(more) - distinct(rows)
    decided.clear()
    assert not decide._memo(table, weights, rows[:0], parity).size and not decided

    q, n = 27, 16
    assert decide._status_table(q, n) == (None, None)
    wrapped = np.array([[v // q**i % q for i in range(n)] for v in (123456789, 123456789 + 2**64)])
    assert len(set((wrapped @ q ** np.arange(n, dtype=np.int64)).tolist())) == 1
    codes = np.concatenate([wrapped, wrapped[::-1], wrapped])
    for _ in range(2):
        decided.clear()
        got = decide._memo(None, None, codes, lambda r: decided.append(r) or (r == wrapped[1]).all(axis=1))
        assert got.tolist() == [False, True, True, False, False, True]
        assert len(decided) == 1 and distinct(decided[0]) == distinct(wrapped) and len(decided[0]) == 2


def _eager_first_decomposition(alpha, sigma, budget):
    """Reference: (alpha - p, p) for the first row p of the sorted projection
    set with alpha - p a unit, or None."""
    RG = gr.GroupRing(alpha.group, alpha.ring)
    projs, _ = decide.projection_set(RG, sigma, budget)
    for row in projs:
        p = RG.from_coeffs(alpha.ring.decode(int(c)) for c in row)
        if reference_is_unit(alpha - p):
            return alpha - p, p
    return None


def _carrier(spec, ring, involution):
    S = cli.parse_group_spec(spec)
    G = S.group if isinstance(S, groups.SLCStructure) else S
    if involution == "canonical":
        sigma = groups.canonical_involution(S)
    else:
        sigma = groups.classical_involution(G)
    return gr.GroupRing(G, coeff.make_ring(ring)), sigma


@pytest.mark.parametrize(
    "spec,ring,involution,budget",
    [
        ("Q8", "F3", "canonical", Budget()),
        ("Q8", "F3", "classical", Budget()),
        ("Q8", "F7", "classical", Budget()),  # five convolution chunks
        ("Q8", "F5", "canonical", Budget(structure_limit=100)),  # sampled set
    ],
    ids=["Q8-F3-canonical", "Q8-F3-classical", "Q8-F7-classical", "Q8-F5-sampled"],
)
def test_element_star_clean_matches_eager_search(spec, ring, involution, budget):
    RG, sigma = _carrier(spec, ring, involution)
    chunks, full = decide._projection_rows(RG, sigma, budget)
    chunks = list(chunks) if full else []
    first_chunk = {row.tobytes() for row in chunks[0]} if chunks else set()
    rng = np.random.default_rng(0)
    found = beyond_first_row = beyond_first_chunk = undecomposed = 0
    for _ in range(40):
        alpha = RG.random_element(rng)
        expected = _eager_first_decomposition(alpha, sigma, budget)
        dec = decide.element_star_clean(alpha, sigma, budget)
        if expected is None:
            assert dec is None
            undecomposed += 1
            continue
        assert (dec.unit, dec.projection) == expected
        found += 1
        beyond_first_row += dec.projection != RG.zero()
        codes = np.array([RG.ring.encode(c) for c in dec.projection.coeffs], dtype=np.int64)
        beyond_first_chunk += codes.tobytes() not in first_chunk
    # the draws reach past the zero projection (non-unit alpha), past the
    # first chunk of a chunked stream, and include undecomposable elements
    assert found and beyond_first_row and undecomposed
    assert beyond_first_chunk or len(chunks) < 2


@pytest.mark.parametrize(
    "spec,ring,involution",
    [
        ("Q8", "F3", "canonical"),
        ("Q8", "F3", "classical"),
        ("D1[k=1]", "F3", "canonical"),
        ("D1[k=1]", "F3", "classical"),
        ("D3[k=1,k2=1]", "F3", "canonical"),
        ("D3[k=1,k2=1]", "F3", "classical"),
        ("C3xC2", "F5", "classical"),
        ("Q8", "F7", "classical"),
    ],
)
def test_exhaustive_projection_stream_is_sorted_and_distinct(spec, ring, involution):
    RG, sigma = _carrier(spec, ring, involution)
    # D3 classical has 12 orbits: 3^12 candidates, several candidate blocks
    chunks, full = decide._projection_rows(RG, sigma, Budget(structure_limit=3**12))
    assert full
    rows = np.concatenate(list(chunks))
    # projection_set returns these rows np.unique'd; the stream needs no sort
    assert np.array_equal(rows, np.unique(rows, axis=0))


_SLC_UP_TO_16 = [
    "D1[k=1]", "D1[k=1]xC2", "D1[k=2]", "Q8", "Q8xC2", "D2[k=2]",
    "D3[k=1,k2=1]", "D4[k=1,k2=1]",
]


def _orbit_filter(RG, sigma, budget):
    """The candidate filter over the sigma-symmetric subspace, the path of
    every involution without the canonical image."""
    orbits = sigma.orbits()
    orbit_of = np.empty(RG.group.order, dtype=np.int64)
    for i, orbit in enumerate(orbits):
        orbit_of[list(orbit)] = i
    chunks, full = decide._structure_rows(
        RG, lambda vals: np.take(vals, orbit_of, axis=1), len(orbits), budget
    )
    return np.unique(np.concatenate(list(chunks)), axis=0), full


@pytest.mark.parametrize(
    "spec,ring,involution,limit",
    [(spec, "F3", "canonical", None) for spec in _SLC_UP_TO_16]
    + [
        (spec, ring, "canonical", None)
        for spec in ("Q8", "D1[k=1]")
        for ring in ("F5", "Z/9", "F7", "F3^2")
    ]
    + [
        ("Q8", "F3", "classical", None),
        ("Q8xC2", "F3", "classical", None),
        ("Q8", "Z/15", "canonical", 10**6),
    ],
)
def test_constructed_projection_set_matches_orbit_filter(spec, ring, involution, limit):
    RG, sigma = _carrier(spec, ring, involution)
    budget = Budget() if limit is None else Budget(structure_limit=limit)
    built = gr.projection_rows(RG, sigma)
    assert built is not None
    oracle, oracle_full = _orbit_filter(RG, sigma, budget)
    assert oracle_full and np.array_equal(built, oracle)
    rows, full = decide.projection_set(RG, sigma, budget)
    assert full and np.array_equal(rows, oracle)


@pytest.mark.parametrize(
    "spec,ring", [("Q8xC2", "F3"), ("D1[k=2]", "Z/15"), ("D2[k=2]xC3", "F3^2"), ("C3xC2", "F5")]
)
def test_character_idempotents_are_orthogonal_and_sum_to_one(spec, ring):
    RG, _ = _carrier(spec, ring, "classical")
    G, R = RG.group, RG.ring
    mul = G.mul if G.is_abelian() else G.mul[::2, ::2] // 2  # else G/<s>
    n = mul.shape[0]
    RA = gr.GroupRing(groups.FiniteGroup(n, mul, np.argmax(mul == 0, axis=1), 0, ("",) * n), R)
    E, cols = gr._character_idempotents(mul, R)
    assert np.array_equal(np.sort(cols.ravel()), np.arange(n))  # the cosets tile A
    for i, e in enumerate(E):
        products = gr.batch_convolve(RA, np.repeat(e[None], E.shape[0], axis=0), E)
        expected = np.zeros_like(E)
        expected[i] = e
        assert np.array_equal(products, expected)
    total = E[0]
    for e in E[1:]:
        total = R.vec.add(total, e)
    assert np.array_equal(total, np.eye(1, n, dtype=np.int64)[0])


@pytest.mark.parametrize(
    "spec,ring,involution,size,full",
    [
        ("D2[k=2]", "F3", "classical", 512, True),  # not the canonical image
        ("C3xC2", "F5", "classical", 16, True),  # no SLC index layout
        ("Q8xC2", "F5", "canonical", 24, False),  # 5^10 candidates: sampled
    ],
)
def test_other_carriers_keep_the_orbit_filter(spec, ring, involution, size, full):
    RG, sigma = _carrier(spec, ring, involution)
    rows, flag = decide.projection_set(RG, sigma)
    assert (rows.shape[0], flag) == (size, full)
    oracle, oracle_full = _orbit_filter(RG, sigma, Budget())
    assert oracle_full == full and np.array_equal(rows, oracle)
    if involution == "classical":
        assert gr.projection_rows(RG, sigma) is None


def test_candidate_stream_enumerates_one_block_per_chunk(monkeypatch):
    """C3xC2/F13 classical has 13^4 = 28,561 candidate projections, and no
    SLC index layout, so they stream; the first chunk of the stream
    enumerates one block of _CONVOLVE_CELLS // |G| values and no more, and
    the call itself enumerates nothing."""
    RG, sigma = _carrier("C3xC2", "F13", "classical")
    digits = gr.counter_digits
    enumerated = []

    def recording(*args, **kwargs):
        out = digits(*args, **kwargs)
        enumerated.append(out.shape[0])
        return out

    monkeypatch.setattr(gr, "counter_digits", recording)
    chunks, full = decide._projection_rows(RG, sigma, Budget())
    assert full and not enumerated
    first = next(chunks)
    assert first.shape[0] and sum(enumerated) <= gr._CONVOLVE_CELLS // RG.group.order


def test_element_star_clean_one_yields_unit_plus_zero(q8, f3):
    RG = gr.GroupRing(q8.group, f3)
    sigma = groups.canonical_involution(q8)
    dec = decide.element_star_clean(RG.one(), sigma)
    assert dec.projection == RG.zero() and dec.unit == RG.one()


def test_element_star_clean_central_idempotent(q8, f3, central_ef):
    sigma = groups.canonical_involution(q8)
    e, _ = central_ef(q8, f3)
    dec = decide.element_star_clean(e, sigma)
    assert dec is not None
    dec.validate(sigma)
    assert dec.target() == e


def test_element_star_clean_above_table_cap():
    # GF(3^7) has 2187 elements, too many for dense tables
    R = coeff.FiniteField(3, 7)
    c2 = groups.cyclic_group(2)
    sigma = groups.classical_involution(c2)
    alpha = gr.GroupRing(c2, R).random_element(np.random.default_rng(0))
    dec = decide.element_star_clean(alpha, sigma)
    assert dec is not None
    dec.validate(sigma)
    assert dec.target() == alpha


def test_projection_set_exhaustive_flag(q8, f3):
    RG = gr.GroupRing(q8.group, f3)
    sigma = groups.canonical_involution(q8)
    projs, full = decide.projection_set(RG, sigma)
    assert full and projs.shape[0] == 32
    projs_sampled, full_sampled = decide.projection_set(
        RG, sigma, Budget(structure_limit=10, structure_samples=50, low_support_limit=27)
    )
    assert not full_sampled
    rows = {tuple(r) for r in projs_sampled}
    assert tuple([0] * 8) in rows  # zero always found in the low-index stratum


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_q8_never_star_clean_over_small_odd_fields(q8, p, k):
    R = coeff.FiniteField(p, k)
    sigma = groups.canonical_involution(q8)
    rep = decide.brute_star_clean(q8.group, sigma, R, Budget(sample_count=3000))
    assert rep.result is False and rep.structure_full
    assert decide.necessary_conditions(q8, R).status is Status.NOT_STAR_CLEAN


@pytest.mark.parametrize("p,k", [(5, 2), (3, 3)])
def test_q8_never_star_clean_over_larger_prime_powers(q8, p, k):
    # the projection candidate space needs a raised structure budget here
    R = coeff.FiniteField(p, k)
    sigma = groups.canonical_involution(q8)
    budget = Budget(structure_limit=20_000_000, sample_count=3000)
    rep = decide.brute_star_clean(q8.group, sigma, R, budget)
    assert rep.result is False and rep.structure_full
    assert decide.necessary_conditions(q8, R).status is Status.NOT_STAR_CLEAN


# ---------------------------------------------------------------- cross validation

def test_cross_validate_f3_q8(q8, f3):
    sigma = groups.canonical_involution(q8)
    cr = decide.cross_validate(q8, sigma, f3)
    assert cr.agreement == "agree"
    assert cr.theory.status is Status.NOT_STAR_CLEAN
    assert cr.brute_star.result is False
    assert cr.brute_clean_report.result is True


def test_cross_validate_abelian_theory_na(f3):
    c2 = groups.cyclic_group(2)
    cr = decide.cross_validate(c2, groups.classical_involution(c2), f3)
    assert cr.agreement == "theory-not-applicable"
    assert cr.brute_star.result is True


def test_cross_validate_classical_involution_on_d1_theory_na(d4, f3):
    # the canonical theory only covers its own involution
    cr = decide.cross_validate(d4, groups.classical_involution(d4.group), f3)
    assert cr.theory is None


# ---------------------------------------------------------------- full decide

def test_decide_star_clean_q8c7_over_q(qq):
    s = groups.build_slc(P.D2, 1, abelian=[7])
    v = decide.decide_star_clean(s, qq)
    assert v.status is Status.STAR_CLEAN
    assert v.cited("CorollaryA.2")


def _necessary_and_theorem_c(p: int, d_reason: list) -> list:
    return [
        {"citation": "TheoremA.necessary", "criterion": "necessary-conditions-hold",
         "data": {"abelian_factors": [p], "structure": "Q8 x A"}},
        *d_reason,
        {"citation": "TheoremC", "criterion": "equation-unsolvable-in-all-components",
         "data": {"ds": [1, p], "fields": ["Q"]}},
        {"citation": "PerlisWalker", "criterion": "semisimple-decomposition",
         "data": {"data": [{"components": [{"d": 1, "degree": 1, "multiplicity": 1},
                                           {"d": p, "degree": p - 1, "multiplicity": 1}],
                            "field": "Q"}]}},
    ]


@pytest.mark.parametrize("p,reasons", [
    (7, _necessary_and_theorem_c(7, []) + [
        {"citation": "CorollaryA.2", "criterion": "rational-prime-factor",
         "data": {"p": 7, "p_mod_8": 7}}]),
    (73, _necessary_and_theorem_c(73, [
        {"citation": "FeinGordonSmith1971", "criterion": "equation-unsolvable-local-degree",
         "data": {"basis": "beyond-paper:local-degree", "d": 73, "d_odd": 73, "ord_2": 9}}])),
])
def test_decide_star_clean_rational_reports_are_pinned(qq, p, reasons):
    """The whole verdict of Q8 x C_p over Q, reason by reason and in order:
    Theorem C over the one field Q, then CorollaryA.2 for p = 7, and the
    local-degree reason, which the paper's level table does not give, for 73."""
    v = decide.decide_star_clean(groups.build_slc(P.D2, 1, abelian=[p]), qq)
    assert v.to_json() == {"certificates": [], "reasons": reasons, "status": "star-clean"}


def test_decide_star_clean_plain_group_is_out_of_scope(f3):
    v = decide.decide_star_clean(groups.cyclic_group(4), f3)
    assert v.status is Status.UNKNOWN
    assert v.cited("NotInScope")


def test_decide_star_clean_q8_over_gaussian_field(q8):
    v = decide.decide_star_clean(q8, coeff.CyclotomicField(4))
    assert v.status is Status.NOT_STAR_CLEAN  # i solves the equation


def test_decide_star_clean_q8_over_qzeta7(q8):
    v = decide.decide_star_clean(q8, coeff.CyclotomicField(7))
    assert v.status is Status.STAR_CLEAN
