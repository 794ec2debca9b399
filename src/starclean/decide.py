"""Decision procedures and brute-force checkers for *-cleanness.

The theory side turns the necessary conditions (structure, order-4 and
excluded-prime elements in the abelian factor, solvability of
X^2+Y^2+Z^2+1 = 0) plus the field-coefficient biconditional into Verdicts
with citation-tagged reasons and machine-checked certificates.  The brute
side enumerates or samples RG directly, in blocks of elements: each block
meets the structure rows slice by slice, and the unit tests go through a
per-scan cache exact on code rows, whose misses take one batched
elimination (`_linalg`).  Cross-validation compares the two sides and
raises on any disagreement.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field
from enum import Enum
from typing import Iterator, Optional, Sequence

import numpy as np

from . import _linalg, coeff, numtheory, witness as witness_mod
from .coeff import CoefficientRing, FiniteField, RationalField
from .errors import CharDividesError, DiscrepancyError, PreconditionError
from .groupring import (
    GroupRing,
    GroupRingElement,
    _regrep_index,
    counter_digits,
    idempotent_rows,
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
    stratified sampling of ``sample_count`` elements); ``structure_limit``
    caps exhaustive idempotent/projection precomputation, with the sampled
    fallback drawing ``structure_samples`` candidates plus the full
    low-index-support stratum of at most ``low_support_limit`` candidates.
    """

    full_scan_limit: int = 1 << 23
    structure_limit: int = 500_000
    sample_count: int = 100_000
    structure_samples: int = 5_000
    low_support_limit: int = 10_000
    z_budget: int = 200_000
    seed: int = 0


DEFAULT_BUDGET = Budget()


# --------------------------------------------------------------------------
# number theory entry point
# --------------------------------------------------------------------------

def exists_n_dividing(p: int) -> Optional[int]:
    """Least n with p | 2^n + 1, or None.

    Such n exists iff ord_p(2) is even, and then n = ord_p(2)/2 since
    2^(ord/2) is the nontrivial square root of 1 mod p.
    """
    if p == 2 or not numtheory.is_prime(p):
        raise PreconditionError(f"{p} is not an odd prime")
    order = numtheory.multiplicative_order(2, p)
    return order // 2 if order % 2 == 0 else None


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


# entries of the per-scan unit cache: bounded memory
_CACHE_CAP = 1 << 21
# element blocks of a scan grow from _FIRST_BLOCK rows by 4x up to _MAX_BLOCK
_FIRST_BLOCK = 4
_MAX_BLOCK = 8192
# candidates per batched unit test once few elements of a block are undecided
_SLICE_CANDIDATES = 256
# int64 cells of the stacked GF(p)-matrices per kernel call: bounded memory
_KERNEL_CELLS = 1 << 16


def _units(RG: GroupRing, rows: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Unit mask of code rows by batched elimination on their regular
    representations rows[:, T], in stacks of at most _KERNEL_CELLS cells
    (after the GF(p^k) expansion over GF(p))."""
    step = max(1, _KERNEL_CELLS // (T.size * getattr(RG.ring, "k", 1) ** 2))
    return np.concatenate([
        _linalg.is_invertible_codes(RG.ring, rows[i : i + step][:, T])
        for i in range(0, rows.shape[0], step)
    ])


def _row_keys(codes: np.ndarray, q: int) -> list:
    """Exact cache keys of code rows over a ring of order q: their raw bytes
    in the smallest unsigned dtype that holds a code."""
    codes = codes.astype(np.min_scalar_type(q - 1))
    return codes.view(np.dtype((np.void, codes.itemsize * codes.shape[1]))).ravel().tolist()


def _is_unit_codes(RG: GroupRing, codes: np.ndarray, T: np.ndarray, cache: dict) -> np.ndarray:
    """Unit mask of the code rows: hits from the scan's cache, a dict from
    row keys (see `_row_keys`) to unit status; misses deduplicated and
    decided by one batched elimination."""
    keys = _row_keys(codes, RG.ring.order)
    get = cache.get
    status = np.fromiter((get(k, 2) for k in keys), dtype=np.int8, count=len(keys))
    miss = np.flatnonzero(status == 2).tolist()
    if miss:
        first: dict = {}
        for i in miss:
            first.setdefault(keys[i], i)
        fresh = dict(zip(first, _units(RG, codes[list(first.values())], T).tolist()))
        status[miss] = [fresh[keys[i]] for i in miss]
        if len(cache) < _CACHE_CAP:
            cache.update(fresh)
    return status == 1


def _block_sizes() -> Iterator[int]:
    """Block lengths of a scan: small first, so that a scan stopping at its
    first elements stays cheap, then 4x larger up to _MAX_BLOCK."""
    size = _FIRST_BLOCK
    while True:
        yield size
        size = min(4 * size, _MAX_BLOCK)


def _structure_rows(RG: GroupRing, scatter, dims: int, budget: Budget):
    """(chunks, full) from idempotent_rows under the budget's structure limits."""
    return idempotent_rows(
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
    exhaustive stream comes out sorted and distinct, chunk after chunk.
    """
    orbits = sigma.orbits()
    orbit_of = np.empty(RG.group.order, dtype=np.int64)
    for i, orbit in enumerate(orbits):
        orbit_of[list(orbit)] = i
    return _structure_rows(RG, lambda vals: np.take(vals, orbit_of, axis=1), len(orbits), budget)


def projection_set(
    RG: GroupRing, sigma: InvolutionMap, budget: Budget = DEFAULT_BUDGET
) -> tuple[np.ndarray, bool]:
    """Projections of RG as sorted code rows, plus an exhaustiveness flag.

    Candidates are restricted to the sigma-symmetric subspace (projections
    satisfy alpha* = alpha, i.e. equal coefficients on each orbit of sigma).
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
    """(start, stop) of each block of a stream of `total` elements."""
    start = 0
    for size in _block_sizes():
        if start >= total:
            return
        yield start, min(total, start + size)
        start += size


def _element_stream(RG: GroupRing, budget: Budget):
    """(blocks, mode): code-row blocks of the full counter order within
    budget, else of stratified samples (see `_block_sizes`): small-support
    rows drawn one by one, then uniform rows drawn a whole block at a time."""
    card = RG.element_count()
    n = RG.group.order
    q = RG.ring.order
    if card <= budget.full_scan_limit:
        bounds = _block_bounds(card)
        return (counter_digits(np.arange(a, b, dtype=np.int64), q, n) for a, b in bounds), "full"
    rng = np.random.default_rng(budget.seed)
    sparse = budget.sample_count // 5  # stratum: small-support elements

    def block(a: int, b: int) -> np.ndarray:
        out = np.zeros((b - a, n), dtype=np.int64)
        cut = min(max(sparse - a, 0), b - a)  # the block's stratum rows
        for row in out[:cut]:
            size = int(rng.integers(1, min(4, n) + 1))
            pos = rng.choice(n, size=size, replace=False)
            row[pos] = rng.integers(1, q, size=size)
        out[cut:] = rng.integers(0, q, size=(b - a - cut, n))
        return out

    return (block(a, b) for a, b in _block_bounds(budget.sample_count)), "sampled"


def _scan(
    RG: GroupRing,
    structure_rows: np.ndarray,
    structure_full: bool,
    property: str,
    budget: Budget,
) -> BruteReport:
    """Scan RG for an element with no unit + structure-row decomposition.

    The element stream is decided one block at a time (see `_block_sizes`):
    for each slice of structure rows in order, the block's still undecided
    elements minus those rows go through the cached batched unit test, and
    the elements with a unit among them leave.  A slice is one row while
    many elements are undecided and widens to about _SLICE_CANDIDATES
    candidates as they leave.  An element left undecided after the last row
    has no decomposition; the first such element in stream order is the
    counterexample, and `tested` counts the stream up to it, as an
    element-by-element scan would.

    The result is certified whenever it is not None: False needs a complete
    structure set behind the counterexample, True an exhaustive scan.
    """
    kind = "projection" if property == "star-clean" else "idempotent"
    size = structure_rows.shape[0]
    neg_rows = RG.ring.vec.neg(structure_rows)
    add = RG.ring.vec.add
    n = RG.group.order
    T = _regrep_index(RG.group)
    cache: dict = {}
    blocks, mode = _element_stream(RG, budget)
    tested = 0
    for block in blocks:
        undecided = np.arange(block.shape[0])
        start = 0
        while undecided.size and start < size:
            rows = neg_rows[start : start + max(1, _SLICE_CANDIDATES // undecided.size)]
            start += rows.shape[0]
            cands = add(block[undecided][:, None], rows[None]).reshape(-1, n)
            units = _is_unit_codes(RG, cands, T, cache).reshape(undecided.size, -1)
            undecided = undecided[~units.any(axis=1)]
        if not undecided.size:
            tested += block.shape[0]
            continue
        tested += int(undecided[0]) + 1
        alpha = RG.from_coeffs(RG.ring.decode(int(c)) for c in block[undecided[0]])
        if structure_full:
            return BruteReport(property, False, alpha, mode, tested, size, True)
        return BruteReport(
            property,
            None,
            alpha,
            mode,
            tested,
            size,
            False,
            notes=[f"undecomposed element found, but {kind} set is sampled"],
        )
    if mode == "full":
        return BruteReport(property, True, None, mode, tested, size, structure_full)
    return BruteReport(
        property,
        None,
        None,
        mode,
        tested,
        size,
        structure_full,
        notes=["sampled scan: no counterexample in samples"],
    )


def brute_star_clean(
    G: FiniteGroup,
    sigma: InvolutionMap,
    R: CoefficientRing,
    budget: Budget = DEFAULT_BUDGET,
) -> BruteReport:
    """Scan RG for an element with no unit + projection decomposition."""
    RG = GroupRing(G, R)
    projs, full = projection_set(RG, sigma, budget)
    return _scan(RG, projs, full, "star-clean", budget)


def brute_clean(
    G: FiniteGroup, R: CoefficientRing, budget: Budget = DEFAULT_BUDGET
) -> BruteReport:
    """Scan RG for an element with no unit + idempotent decomposition."""
    RG = GroupRing(G, R)
    idems, full = idempotent_set(RG, budget)
    return _scan(RG, idems, full, "clean", budget)


def element_star_clean(
    alpha: GroupRingElement,
    sigma: InvolutionMap,
    budget: Budget = DEFAULT_BUDGET,
) -> Optional[witness_mod.StarCleanDecomposition]:
    """First decomposition of alpha in sorted projection order, or None.

    Projections are computed chunk by chunk in the order of
    :func:`projection_set`, and alpha minus each slice of them (growing as
    the blocks of a scan do, see `_block_sizes`) takes one batched unit
    test; the search stops at the first slice with a unit, so the rest of
    the set is never built.  A sampled projection set is built whole and
    sorted first.  A None is conclusive
    only when the projection set was exhaustive; use :func:`projection_set`
    directly to check the flag.
    """
    RG = GroupRing(alpha.group, alpha.ring)
    chunks, full = _projection_rows(RG, sigma, budget)
    if not full:
        chunks = [_sorted_rows(chunks)]
    R = alpha.ring
    codes = np.array([R.encode(c) for c in alpha.coeffs], dtype=np.int64)
    T = _regrep_index(alpha.group)
    sizes = _block_sizes()
    for projs in chunks:
        start = 0
        while start < projs.shape[0]:
            rows = projs[start : start + next(sizes)]
            start += rows.shape[0]
            cands = R.vec.add(codes, R.vec.neg(rows))
            units = np.flatnonzero(_units(RG, cands, T))
            if units.size:
                i = int(units[0])
                q_el = RG.from_coeffs(R.decode(int(c)) for c in rows[i])
                u_el = RG.from_coeffs(R.decode(int(c)) for c in cands[i])
                return witness_mod.StarCleanDecomposition(u_el, q_el)
    return None


# --------------------------------------------------------------------------
# theory side
# --------------------------------------------------------------------------

_CASE_CITATION = {
    witness_mod.CASE_TYPE1: ("structure", "TheoremA.structure"),
    witness_mod.CASE_TYPE345: ("structure", "TheoremA.structure"),
    witness_mod.CASE_TYPE2_LARGE_M: ("structure", "TheoremA.structure"),
    witness_mod.CASE_ORDER4: ("order-4-element", "TheoremA.1"),
    witness_mod.CASE_EXCLUDED_PRIME: ("excluded-prime", "TheoremA.2"),
    witness_mod.CASE_THREE_SQUARES: ("equation-solvable", "TheoremA.equation"),
}


def necessary_conditions(
    S: SLCStructure, R: CoefficientRing, budget: Budget = DEFAULT_BUDGET
) -> Verdict:
    """The four necessary checks in order: G = Q8 x A, no order-4 element of
    A, no excluded-prime element of A, equation unsolvable in R.  Failures
    come with the matching constructive witness."""
    w = witness_mod.generate_witness(S, R, budget.z_budget)
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
    criterion, citation = _CASE_CITATION[w.case_tag]
    reasons = [Reason(criterion, citation, dict(w.data))]
    if (
        w.case_tag == witness_mod.CASE_EXCLUDED_PRIME
        and isinstance(R, RationalField)
        and w.data.get("p", 0) % 8 in (3, 5)
    ):
        reasons.append(
            Reason(
                "rational-excluded-prime",
                "CorollaryA.1",
                {"p": w.data["p"], "p_mod_8": w.data["p"] % 8},
            )
        )
    reasons.append(Reason("witness", "Lemma5.1", {"case": w.case_tag}))
    certs = [{"kind": "witness", **w.to_dict()}]
    if w.case_tag == witness_mod.CASE_THREE_SQUARES:
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


def theorem_c_decide(fields: Sequence[CoefficientRing], A: FiniteGroup) -> Verdict:
    """Semisimple-coefficient biconditional for G = Q8 x A: *-clean iff the
    equation has no solution in any F_i(zeta_d) for d an element order of A.

    A component that only the local-degree rule shows unsolvable, beyond the
    paper's level table, gets its own reason carrying the checkable data."""
    if not A.is_abelian():
        raise PreconditionError("A must be abelian")
    for F in fields:
        if not F.is_field:
            raise PreconditionError(f"{F!r} is not a field")
        if F.char and (8 * A.order) % F.char == 0:
            raise CharDividesError(f"char {F.char} divides |G| = {8 * A.order}")
    ds = sorted(set(element_orders(A).tolist()))
    reasons = []
    certs = []
    solution_found = None
    for F in fields:
        for d in ds:
            E = coeff.extend_with_root(F, d)
            out = coeff.solve_three_squares(E)
            if isinstance(out, coeff.ThreeSquaresSolution):
                solution_found = (F, d, out)
                certs.append(
                    {
                        "kind": "three-squares",
                        "ring": E.spec_string(),
                        "component": {"field": F.spec_string(), "d": d},
                        "triple": out.as_strings(),
                    }
                )
                break
            local = coeff.local_degree_beyond_paper(E)
            if local is not None:
                reasons.append(
                    Reason(
                        "equation-unsolvable-local-degree",
                        "FeinGordonSmith1971",
                        {**local, "basis": "beyond-paper:local-degree"},
                    )
                )
        if solution_found:
            break
    if solution_found:
        F, d, out = solution_found
        reasons.insert(
            0,
            Reason(
                "equation-solvable-in-component",
                "TheoremC",
                {"field": F.spec_string(), "d": d},
            ),
        )
        return Verdict(Status.NOT_STAR_CLEAN, reasons, certs)
    pw_data = []
    for F in fields:
        if not isinstance(F, (RationalField, FiniteField)):
            continue
        if F.char == 0 or A.order % F.char != 0:
            pw_data.append(
                {"field": F.spec_string(), "components": perlis_walker(F, A).to_json()}
            )
    reasons.append(
        Reason(
            "equation-unsolvable-in-all-components",
            "TheoremC",
            {"fields": [F.spec_string() for F in fields], "ds": ds},
        )
    )
    if pw_data:
        reasons.append(Reason("semisimple-decomposition", "PerlisWalker", {"data": pw_data}))
    return Verdict(Status.STAR_CLEAN, reasons, certs)


def decide_star_clean(
    S: SLCStructure | FiniteGroup,
    R: CoefficientRing,
    budget: Budget = DEFAULT_BUDGET,
) -> Verdict:
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
    nec = necessary_conditions(S, R, budget)
    if nec.status is Status.NOT_STAR_CLEAN:
        return nec
    if not S.is_q8_type():
        raise AssertionError("non-Q8 structures always fail a necessary condition")
    A = build_abelian(S.abelian)
    if R.is_field and (R.char == 0 or (8 * A.order) % R.char != 0):
        tc = theorem_c_decide([R], A)
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
        theory = decide_star_clean(S, R, budget)
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
