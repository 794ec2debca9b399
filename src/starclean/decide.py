"""Decision procedures and brute-force checkers for *-cleanness.

The theory side turns the necessary conditions (structure, order-4 and
excluded-prime elements in the abelian factor, solvability of
X^2+Y^2+Z^2+1 = 0; a failure cites its witness case's `witness.CASES`
reason) plus Theorem C over the coefficient field into Verdicts with
citation-tagged reasons and machine-checked certificates.  The brute
side enumerates or samples RG in blocks of elements, decided on factors:
the e and f halves of `groupring.unit_halves` apart when the structure
set's distinct half rows multiply to its row count, else the whole element.
Each factor keeps one unit table and one decision table per scan, exact on
the base-q values of its rows; the rows its unit table does not know go to
one stacked elimination of their halves.  Cross-validation compares the two
sides and raises on any disagreement.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field
from enum import Enum
from typing import Iterator, Optional, Sequence

import numpy as np

from . import coeff, numtheory, witness as witness_mod
from .coeff import CoefficientRing, FiniteField, RationalField
from .errors import CharDividesError, DiscrepancyError, PreconditionError
from .groupring import (
    GroupRing,
    GroupRingElement,
    Half,
    _codes,
    candidate_rows,
    counter_digits,
    half_units,
    projection_rows,
    unit_halves,
    unit_mask,
)
from .groups import (
    FiniteGroup,
    InvolutionMap,
    SLCStructure,
    build_abelian,
    canonical_involution,
    element_orders,
)


class Status(Enum):
    STAR_CLEAN = "star-clean"
    NOT_STAR_CLEAN = "not-star-clean"
    UNKNOWN = "unknown"


@dataclass
class Reason:
    criterion: str
    citation: str
    data: dict = dc_field(default_factory=dict)

    def to_json(self) -> dict:
        return {"criterion": self.criterion, "citation": self.citation, "data": self.data}


@dataclass
class Verdict:
    status: Status
    reasons: list[Reason] = dc_field(default_factory=list)
    certificates: list[dict] = dc_field(default_factory=list)

    def cited(self, tag: str) -> bool:
        return any(r.citation == tag for r in self.reasons)

    def to_json(self) -> dict:
        return {
            "status": self.status.value,
            "reasons": [r.to_json() for r in self.reasons],
            "certificates": self.certificates,
        }


@dataclass(frozen=True)
class Budget:
    """Enumeration policy.

    ``full_scan_limit`` caps exhaustive element scans (larger carriers get
    ``sample_count`` samples, the first ``sample_count // 5`` of support size
    at most 4); ``structure_limit`` caps the candidates of exhaustive idempotent
    and projection sets, constructed ones too, with the sampled fallback drawing
    ``structure_samples`` plus the low-index stratum of at most ``low_support_limit``.
    """

    full_scan_limit: int = 1 << 23
    structure_limit: int = 500_000
    sample_count: int = 100_000
    structure_samples: int = 5_000
    low_support_limit: int = 10_000
    seed: int = 0


DEFAULT_BUDGET = Budget()


# --------------------------------------------------------------------------
# brute force
# --------------------------------------------------------------------------

@dataclass
class BruteReport:
    property: str  # "clean" | "star-clean"
    result: Optional[bool]  # None = inconclusive within budget
    counterexample: Optional[GroupRingElement]
    mode: str  # "full" | "sampled"
    tested: int
    structure_size: int
    structure_full: bool
    notes: list[str] = dc_field(default_factory=list)

    def to_json(self) -> dict:
        out = {
            "property": self.property,
            "result": self.result,
            "mode": self.mode,
            "tested": self.tested,
            "structure_size": self.structure_size,
            "structure_full": self.structure_full,
            "notes": self.notes,
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample.to_dict()
        return out


# entries (int8, so bytes) of a per-scan status table over the exact base-q
# values of a factor's rows (unit or not, decomposes or not): with more
# values there is no table
_CACHE_CAP = 1 << 21
# element blocks of a scan grow from _FIRST_BLOCK rows by 4x up to _MAX_BLOCK
_FIRST_BLOCK = 4
_MAX_BLOCK = 8192
# candidates per batched unit test once few elements of a block are undecided
_SLICE_CANDIDATES = 256
# status table entries
_UNKNOWN, _YES, _NO = 0, 1, 2


def _status_table(q: int, dims: int):
    """(table, weights): a zeroed status table over the base-q values of
    rows of `dims` codes, and the weights that give a row's value; (None,
    None) when there are more than _CACHE_CAP values."""
    if q**dims > _CACHE_CAP:
        return None, None
    return np.zeros(q**dims, dtype=np.int8), q ** np.arange(dims, dtype=np.int64)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One void scalar per code row, equal iff the rows are (no base-q value
    to wrap); np.unique sorts these about 8x faster than rows on axis=0."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


def _memo(table, weights, rows: np.ndarray, decide) -> np.ndarray:
    """Mask `decide(rows)`, with (table, weights) from `_status_table`: the
    rows the table knows are read from it, and `decide` runs once on the
    distinct unknown rows, whose results go back into the table.  Without a
    table the rows are deduplicated within the call only (`_row_keys`)."""
    keys = _row_keys(rows) if table is None else rows @ weights
    status = np.zeros(rows.shape[0], dtype=np.int8) if table is None else table[keys]
    todo = np.flatnonzero(status == _UNKNOWN)
    if todo.size:
        new, first, at = np.unique(keys[todo], return_index=True, return_inverse=True)
        fresh = np.where(decide(rows[todo[first]]), _YES, _NO).astype(np.int8)
        status[todo] = fresh[at]
        if table is not None:
            table[new] = fresh
    return status == _YES


def _is_unit_codes(
    R: CoefficientRing, halves: Sequence[Half], units: tuple, rows: np.ndarray
) -> np.ndarray:
    """Unit mask of elements given by their factor rows, the rows of each of
    the `halves` (`groupring.unit_halves`) side by side, through the
    factor's unit table `units` (`_memo`): one stacked elimination of the
    halves of the rows it does not know."""
    return _memo(*units, rows, lambda new: half_units(R, halves, np.hsplit(new, len(halves))))


def _structure_rows(RG: GroupRing, scatter, dims: int, budget: Budget):
    """(chunks, full) from candidate_rows under the budget's structure limits."""
    return candidate_rows(
        RG,
        scatter,
        dims,
        budget.structure_limit,
        budget.structure_samples,
        budget.low_support_limit,
        budget.seed,
    )


def _sorted_rows(chunks) -> np.ndarray:
    return np.unique(np.concatenate(list(chunks)), axis=0)


def _projection_rows(RG: GroupRing, sigma: InvolutionMap, budget: Budget):
    """(chunks, full) for the projections of RG; see :func:`projection_set`.

    The orbits are sorted by smallest member, so lexicographic order of the
    orbit values is the sorted order of the scattered code rows: an
    exhaustive stream comes out sorted and distinct, chunk after chunk, as
    does the one chunk of a constructed set.
    """
    orbits = sigma.orbits()
    q = RG.ring.order
    if q is not None and q ** len(orbits) <= budget.structure_limit:
        rows = projection_rows(RG, sigma)
        if rows is not None:
            return iter([rows]), True
    orbit_of = np.empty(RG.group.order, dtype=np.int64)
    for i, orbit in enumerate(orbits):
        orbit_of[list(orbit)] = i
    return _structure_rows(RG, lambda vals: np.take(vals, orbit_of, axis=1), len(orbits), budget)


def projection_set(
    RG: GroupRing, sigma: InvolutionMap, budget: Budget = DEFAULT_BUDGET
) -> tuple[np.ndarray, bool]:
    """Projections of RG as sorted code rows, plus an exhaustiveness flag.

    Within the structure limit the canonical image gets the set by
    construction (`groupring.projection_rows`); other carriers filter the
    candidates of the sigma-symmetric subspace (equal coefficients on each
    orbit of sigma, as projections satisfy alpha* = alpha).
    """
    chunks, full = _projection_rows(RG, sigma, budget)
    return _sorted_rows(chunks), full


def idempotent_set(
    RG: GroupRing, budget: Budget = DEFAULT_BUDGET
) -> tuple[np.ndarray, bool]:
    """Idempotents of RG as sorted code rows, plus an exhaustiveness flag."""
    chunks, full = _structure_rows(RG, lambda vals: vals, RG.group.order, budget)
    return _sorted_rows(chunks), full


def _block_bounds(total: int) -> Iterator[tuple[int, int]]:
    """(start, stop) of each block of a stream of `total` elements: small
    first, so that a scan stopping at its first elements stays cheap, then
    4x larger up to _MAX_BLOCK."""
    start, size = 0, _FIRST_BLOCK
    while start < total:
        yield start, min(total, start + size)
        start, size = start + size, min(4 * size, _MAX_BLOCK)


def _stratum_rows(rng: np.random.Generator, count: int, n: int, q: int) -> np.ndarray:
    """`count` small-support rows, each from 1 + n + m words in [0, 2^62),
    m = min(4, n): size 1 + w % m from the first, positions the first
    `size` columns of the stable argsort of the next n, codes
    1 + w % (q - 1) from the last m.  A range of 2^62 never draws again, so
    a row takes the same words in any block; codes are exact for q < 2^62."""
    m = min(4, n)
    u = rng.integers(0, 2**62, size=(count, 1 + n + m))
    used = np.arange(m) < 1 + u[:, :1] % m
    out = np.zeros((count, n), dtype=np.int64)
    pos = np.argsort(u[:, 1 : n + 1], axis=1, kind="stable")[:, :m]
    np.put_along_axis(out, pos, np.where(used, 1 + u[:, n + 1 :] % (q - 1), 0), axis=1)
    return out


def _element_stream(RG: GroupRing, budget: Budget):
    """(blocks, mode): code-row blocks of the full counter order within
    budget, else of stratified samples (see `_block_bounds`): the
    sample_count // 5 small-support rows of `_stratum_rows`, then uniform
    rows drawn a whole block at a time, each block as its rows one by one."""
    card = RG.element_count()
    n = RG.group.order
    q = RG.ring.order
    if card <= budget.full_scan_limit:
        bounds = _block_bounds(card)
        return (counter_digits(np.arange(a, b, dtype=np.int64), q, n) for a, b in bounds), "full"
    rng = np.random.default_rng(budget.seed)
    sparse = budget.sample_count // 5  # stratum: small-support elements

    def block(a: int, b: int) -> np.ndarray:
        cut = min(max(sparse - a, 0), b - a)  # the block's stratum rows
        stratum = _stratum_rows(rng, cut, n, q)
        return np.concatenate([stratum, rng.integers(0, q, size=(b - a - cut, n))])

    return (block(a, b) for a, b in _block_bounds(budget.sample_count)), "sampled"


def _factor_rows(vec, halves: Sequence[Half], codes: np.ndarray) -> np.ndarray:
    """The rows of code rows on a factor: their rows on each half, side by side."""
    return np.concatenate([h.rows(vec, codes) for h in halves], axis=1)


def _factors(RG: GroupRing, structure_rows: np.ndarray) -> list[tuple[Sequence[Half], np.ndarray]]:
    """(halves, negs) of each factor of a scan over the distinct
    `structure_rows`, negs the factor rows (`_factor_rows`) of the negated
    structure rows: the two halves apart, each with its distinct half rows,
    when those counts multiply to the row count (the fold into halves is
    injective, so the set is their product), else the whole element."""
    vec = RG.ring.vec
    halves = unit_halves(RG.group)
    negs = _factor_rows(vec, halves, vec.neg(structure_rows))
    if len(halves) == 2:
        parts = np.hsplit(negs, 2)
        distinct = [np.unique(_row_keys(p)).view(np.int64).reshape(-1, p.shape[1]) for p in parts]
        if distinct[0].shape[0] * distinct[1].shape[0] == structure_rows.shape[0]:
            return [([h], d) for h, d in zip(halves, distinct)]
    return [(halves, negs)]


def _scan(
    RG: GroupRing,
    structure_rows: np.ndarray,
    structure_full: bool,
    property: str,
    budget: Budget,
) -> BruteReport:
    """Scan RG for an element with no unit + structure-row decomposition.

    Elements are decided on their factors (`_factors`), one block of the
    stream at a time (see `_block_bounds`) and factor by factor: for each
    slice of a factor's negated structure rows in order, the block's still
    undecided factor rows plus those go through the factor's unit test
    (`_is_unit_codes`), and the rows with a unit among them leave.  A slice
    is one row while many rows are undecided and widens to about
    _SLICE_CANDIDATES candidates as they leave.  An element has no
    decomposition iff one of its factor rows is left undecided after the
    last slice: its mask is the OR of its factors', so a factor decides only
    the elements the ones before it left decomposable.  The first such
    element in stream order is the counterexample, and `tested` counts the
    stream up to it, as an element-by-element scan would.  Each factor keeps
    one unit table and one decision table (`_memo`), each over the base-q
    values of its rows while there are at most _CACHE_CAP of them.

    The result is certified whenever it is not None: False needs a complete
    structure set behind the counterexample, True an exhaustive scan.
    """
    kind = "projection" if property == "star-clean" else "idempotent"
    size = structure_rows.shape[0]
    R, vec = RG.ring, RG.ring.vec
    factors = [
        (halves, _status_table(R.order, negs.shape[1]), negs, _status_table(R.order, negs.shape[1]))
        for halves, negs in _factors(RG, structure_rows)
    ]

    def stuck(halves, units, negs: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Mask of the factor rows with no decomposition."""
        undecided = np.arange(rows.shape[0])
        start = 0
        while undecided.size and start < negs.shape[0]:
            stop = min(negs.shape[0], start + max(1, _SLICE_CANDIDATES // undecided.size))
            cands = vec.add(rows[undecided][:, None], negs[None, start:stop]).reshape(-1, negs.shape[1])
            start = stop
            hit = _is_unit_codes(R, halves, units, cands).reshape(undecided.size, -1)
            undecided = undecided[~hit.any(axis=1)]
        return np.bincount(undecided, minlength=rows.shape[0]) > 0

    blocks, mode = _element_stream(RG, budget)
    tested = 0
    for block in blocks:
        no = np.zeros(block.shape[0], dtype=bool)
        for halves, units, negs, decided in factors:
            todo = np.flatnonzero(~no)
            rows = _factor_rows(vec, halves, block[todo])
            no[todo] = _memo(*decided, rows, lambda new: stuck(halves, units, negs, new))
        if not no.any():
            tested += block.shape[0]
            continue
        first_no = int(np.argmax(no))
        tested += first_no + 1
        alpha = RG.from_coeffs(RG.ring.decode(int(c)) for c in block[first_no])
        if structure_full:
            return BruteReport(property, False, alpha, mode, tested, size, True)
        note = f"undecomposed element found, but {kind} set is sampled"
        return BruteReport(property, None, alpha, mode, tested, size, False, notes=[note])
    if mode == "full":
        return BruteReport(property, True, None, mode, tested, size, structure_full)
    note = "sampled scan: no counterexample in samples"
    return BruteReport(property, None, None, mode, tested, size, structure_full, notes=[note])


def brute_star_clean(
    G: FiniteGroup,
    sigma: InvolutionMap,
    R: CoefficientRing,
    budget: Budget = DEFAULT_BUDGET,
) -> BruteReport:
    """Scan RG for an element with no unit + projection decomposition."""
    RG = GroupRing(G, R)
    return _scan(RG, *projection_set(RG, sigma, budget), "star-clean", budget)


def brute_clean(
    G: FiniteGroup, R: CoefficientRing, budget: Budget = DEFAULT_BUDGET
) -> BruteReport:
    """Scan RG for an element with no unit + idempotent decomposition."""
    RG = GroupRing(G, R)
    return _scan(RG, *idempotent_set(RG, budget), "clean", budget)


def element_star_clean(
    alpha: GroupRingElement,
    sigma: InvolutionMap,
    budget: Budget = DEFAULT_BUDGET,
) -> Optional[witness_mod.StarCleanDecomposition]:
    """First decomposition of alpha in sorted projection order, or None.

    Projections come chunk by chunk (one when constructed) in the order of
    :func:`projection_set`, and alpha minus each slice of a chunk (growing
    as the blocks of a scan do, see `_block_bounds`) takes one batched unit
    test on the halves (`groupring.unit_mask`); the search stops at the
    first slice with a unit, so the rest of a filtered set is never built.
    A sampled set is built whole and sorted first.  A None is conclusive
    only when the projection set was exhaustive; use :func:`projection_set`
    directly to check the flag.
    """
    RG = GroupRing(alpha.group, alpha.ring)
    chunks, full = _projection_rows(RG, sigma, budget)
    if not full:
        chunks = [_sorted_rows(chunks)]
    R = alpha.ring
    codes = _codes(alpha)
    for projs in chunks:
        for a, b in _block_bounds(projs.shape[0]):
            rows = projs[a:b]
            cands = R.vec.add(codes, R.vec.neg(rows))
            units = np.flatnonzero(unit_mask(R, unit_halves(RG.group), cands))
            if units.size:
                i = int(units[0])
                q_el = RG.from_coeffs(R.decode(int(c)) for c in rows[i])
                u_el = RG.from_coeffs(R.decode(int(c)) for c in cands[i])
                return witness_mod.StarCleanDecomposition(u_el, q_el)
    return None


# --------------------------------------------------------------------------
# theory side
# --------------------------------------------------------------------------

def necessary_conditions(S: SLCStructure, R: CoefficientRing) -> Verdict:
    """The four necessary checks in order: G = Q8 x A, no order-4 element of
    A, no excluded-prime element of A, equation unsolvable in R.  Failures
    come with the matching constructive witness."""
    w = witness_mod.generate_witness(S, R)
    if w is None:
        return Verdict(
            Status.UNKNOWN,
            [
                Reason(
                    "necessary-conditions-hold",
                    "TheoremA.necessary",
                    {
                        "structure": "Q8 x A",
                        "abelian_factors": list(S.abelian),
                    },
                )
            ],
        )
    case = witness_mod.CASES[w.case_tag]
    reasons = [Reason(case.criterion, case.citation, dict(w.data))]
    # only the excluded-prime witness carries p, only the three-squares one a triple
    if isinstance(R, RationalField) and w.data.get("p", 0) % 8 in (3, 5):
        reasons.append(
            Reason(
                "rational-excluded-prime",
                "CorollaryA.1",
                {"p": w.data["p"], "p_mod_8": w.data["p"] % 8},
            )
        )
    reasons.append(Reason("witness", "Lemma5.1", {"case": w.case_tag}))
    certs = [w.certificate()]
    if "triple" in w.data:
        certs.append({"kind": "three-squares", "triple": w.data["triple"], "ring": R.spec_string()})
    return Verdict(Status.NOT_STAR_CLEAN, reasons, certs)


@dataclass(frozen=True)
class PerlisWalkerDecomposition:
    """Components (d, multiplicity a_d, extension degree) of FA."""

    components: tuple[tuple[int, int, int], ...]

    def to_json(self) -> list[dict]:
        return [
            {"d": d, "multiplicity": a, "degree": deg}
            for d, a, deg in self.components
        ]


def perlis_walker(F: CoefficientRing, A: FiniteGroup) -> PerlisWalkerDecomposition:
    """Decomposition FA = sum over d of a_d F(zeta_d), for F rational or a
    finite field with char(F) coprime to |A|."""
    if not A.is_abelian():
        raise PreconditionError("A must be abelian")
    if isinstance(F, FiniteField):
        if A.order % F.char == 0:
            raise CharDividesError(f"char {F.char} divides |A| = {A.order}")
    elif not isinstance(F, RationalField):
        raise PreconditionError("coefficients must be Q or a finite field")
    orders = element_orders(A)
    counts: dict[int, int] = {}
    for o in orders.tolist():
        counts[o] = counts.get(o, 0) + 1
    comps = []
    for d in sorted(counts):
        if isinstance(F, RationalField):
            degree = numtheory.euler_phi(d)
        else:
            degree = numtheory.multiplicative_order(F.order % d, d) if d > 1 else 1
        count = counts[d]
        if count % degree != 0:
            raise AssertionError("order-count not divisible by extension degree")
        comps.append((d, count // degree, degree))
    return PerlisWalkerDecomposition(tuple(comps))


def theorem_c_decide(F: CoefficientRing, A: FiniteGroup) -> Verdict:
    """Semisimple-coefficient biconditional for G = Q8 x A over the field F:
    *-clean iff the equation has no solution in F(zeta_d) for any element
    order d of A.

    A component that only the local-degree rule shows unsolvable, beyond the
    paper's level table, gets its own reason carrying the checkable data."""
    if not A.is_abelian():
        raise PreconditionError("A must be abelian")
    if not F.is_field:
        raise PreconditionError(f"{F!r} is not a field")
    if F.char and (8 * A.order) % F.char == 0:
        raise CharDividesError(f"char {F.char} divides |G| = {8 * A.order}")
    ds = sorted(set(element_orders(A).tolist()))
    reasons = []
    for d in ds:
        E = coeff.extend_with_root(F, d)
        out = coeff.solve_three_squares(E)
        if isinstance(out, coeff.ThreeSquaresSolution):
            component = {"field": F.spec_string(), "d": d}
            cert = {"kind": "three-squares", "ring": E.spec_string(),
                    "component": dict(component), "triple": out.as_strings()}
            reasons.insert(0, Reason("equation-solvable-in-component", "TheoremC", component))
            return Verdict(Status.NOT_STAR_CLEAN, reasons, [cert])
        local = coeff.local_degree_beyond_paper(E)
        if local is not None:
            reasons.append(
                Reason(
                    "equation-unsolvable-local-degree",
                    "FeinGordonSmith1971",
                    {**local, "basis": "beyond-paper:local-degree"},
                )
            )
    reasons.append(
        Reason(
            "equation-unsolvable-in-all-components",
            "TheoremC",
            {"fields": [F.spec_string()], "ds": ds},
        )
    )
    if isinstance(F, (RationalField, FiniteField)):  # the guard above makes char(F) prime to |A|
        pw_data = [{"field": F.spec_string(), "components": perlis_walker(F, A).to_json()}]
        reasons.append(Reason("semisimple-decomposition", "PerlisWalker", {"data": pw_data}))
    return Verdict(Status.STAR_CLEAN, reasons)


def decide_star_clean(S: SLCStructure | FiniteGroup, R: CoefficientRing) -> Verdict:
    """Full theory-side verdict for RG with the canonical involution."""
    if isinstance(S, FiniteGroup):
        return Verdict(
            Status.UNKNOWN,
            [
                Reason(
                    "not-slc",
                    "NotInScope",
                    {"reason": "group was not built from an SLC presentation"},
                )
            ],
        )
    nec = necessary_conditions(S, R)
    if nec.status is Status.NOT_STAR_CLEAN:
        return nec
    if not S.is_q8_type():
        raise AssertionError("non-Q8 structures always fail a necessary condition")
    A = build_abelian(S.abelian)
    if R.is_field and (R.char == 0 or (8 * A.order) % R.char != 0):
        tc = theorem_c_decide(R, A)
        verdict = Verdict(tc.status, nec.reasons + tc.reasons, tc.certificates)
        if tc.status is Status.STAR_CLEAN and isinstance(R, RationalField):
            if len(S.abelian) == 1 and numtheory.is_prime(S.abelian[0]) and S.abelian[0] % 8 == 7:
                verdict.reasons.append(
                    Reason(
                        "rational-prime-factor",
                        "CorollaryA.2",
                        {"p": S.abelian[0], "p_mod_8": 7},
                    )
                )
        return verdict
    return Verdict(Status.UNKNOWN, nec.reasons, nec.certificates)


# --------------------------------------------------------------------------
# cross-validation
# --------------------------------------------------------------------------

@dataclass
class CrossReport:
    group: str
    ring: str
    involution: str
    theory: Optional[Verdict]
    brute_star: BruteReport
    brute_clean_report: Optional[BruteReport]
    agreement: str
    timings: dict

    def to_json(self) -> dict:
        out = {
            "group": self.group,
            "ring": self.ring,
            "involution": self.involution,
            "theory": self.theory.to_json() if self.theory else None,
            "brute": {
                "star_clean": self.brute_star.to_json(),
            },
            "agreement": self.agreement,
            "timings": self.timings,
        }
        if self.brute_clean_report is not None:
            out["brute"]["clean"] = self.brute_clean_report.to_json()
        return out


def cross_validate(
    S: SLCStructure | FiniteGroup,
    sigma: InvolutionMap,
    R: CoefficientRing,
    budget: Budget = DEFAULT_BUDGET,
    include_clean: Optional[bool] = None,
) -> CrossReport:
    """Run theory and brute force on the same carrier and compare.

    Raises DiscrepancyError when a certified brute result contradicts a
    definite theory verdict (the theorems are proved: disagreement means an
    implementation bug).
    """
    G = S.group if isinstance(S, SLCStructure) else S
    is_canonical = isinstance(S, SLCStructure) and np.array_equal(
        canonical_involution(S).image, sigma.image
    )
    timings = {}
    theory = None
    t0 = time.perf_counter()
    if is_canonical:
        theory = decide_star_clean(S, R)
    timings["theory_s"] = round(time.perf_counter() - t0, 6)

    t0 = time.perf_counter()
    brute_star = brute_star_clean(G, sigma, R, budget)
    timings["brute_star_s"] = round(time.perf_counter() - t0, 6)

    clean_report = None
    if include_clean is None:
        count = GroupRing(G, R).element_count()
        include_clean = count is not None and count <= 100_000
    if include_clean:
        t0 = time.perf_counter()
        clean_report = brute_clean(G, R, budget)
        timings["brute_clean_s"] = round(time.perf_counter() - t0, 6)

    if theory is None:
        agreement = "theory-not-applicable"
    elif theory.status is Status.UNKNOWN:
        agreement = "theory-unknown"
    elif brute_star.result is None:
        agreement = "brute-inconclusive"
    elif brute_star.result == (theory.status is Status.STAR_CLEAN):
        agreement = "agree"
    elif brute_star.result:
        raise DiscrepancyError(
            f"theory says not *-clean but full brute scan found all elements decomposable "
            f"({G.order=}, ring={R.spec_string()})"
        )
    else:
        raise DiscrepancyError(
            f"theory says *-clean but brute force certified a counterexample "
            f"({G.order=}, ring={R.spec_string()})"
        )

    group_str = S.spec_string() if isinstance(S, SLCStructure) else f"order-{G.order}"
    return CrossReport(
        group=group_str,
        ring=R.spec_string(),
        involution="canonical" if is_canonical else "custom",
        theory=theory,
        brute_star=brute_star,
        brute_clean_report=clean_report,
        agreement=agreement,
        timings=timings,
    )
