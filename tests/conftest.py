"""Shared fixtures, plus the paper-facing oracles that the runtime does not
need: exhaustive enumeration of RG, Theorem B's biconditional, the closed-form
involution on (RG)f and the problem element of a witness."""

import itertools

import numpy as np
import pytest
from hypothesis import settings

from starclean import canonical as cn, coeff, groups, groupring as gr
from starclean.decide import Reason, Status, Verdict
from starclean.errors import BudgetError

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
    return groups.FiniteGroup.from_table(table)


@pytest.fixture(scope="session")
def s3():
    return group_from_permutations([(1, 0, 2), (1, 2, 0)])


@pytest.fixture(scope="session")
def dihedral8_perms():
    # symmetries of the square acting on its vertices
    return group_from_permutations([(1, 2, 3, 0), (1, 0, 3, 2)])


# ---------------------------------------------------------------- oracles

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
