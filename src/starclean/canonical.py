"""Canonical forms on the component (RG)f of an SLC group ring.

Every element of (RG)f is uniquely [sum_j (sum_i x_ij a^i) t_j](1-s) with
x_ij in RK; the form makes the involution a sign flip on the rows j >= 2,
symmetry a vanishing condition, and the projections of (RG)f exactly the
idempotents d(1-s) with d supported on the a^i K span (i < m/2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coeff import CoefficientRing, Payload
from .errors import NotInFComponentError, PreconditionError
from .groupring import GroupRing, GroupRingElement, idempotent_rows
from .groups import SLCStructure

DEFAULT_F_BUDGET = 1 << 22


@dataclass(eq=False)
class FCanonicalForm:
    """Rows indexed by transversal slot j (0..3), then a-power i (< m/2);
    each entry is a coefficient tuple over the members of K."""

    slc: SLCStructure
    ring: CoefficientRing
    rows: tuple[tuple[tuple[Payload, ...], ...], ...]

    def __eq__(self, other):
        return (
            isinstance(other, FCanonicalForm)
            and self.slc is other.slc
            and self.ring == other.ring
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash(self.rows)

    def row_is_zero(self, j: int) -> bool:
        R = self.ring
        return all(R.is_zero(c) for entry in self.rows[j] for c in entry)

    def to_dict(self) -> dict:
        S = self.slc
        R = self.ring
        out = {}
        tnames = ["1", "x", "y", "x*y"]
        for j in range(4):
            for i in range(S.m // 2):
                entry = {
                    S.group.names[S.K.members[t]]: R.fmt(c)
                    for t, c in enumerate(self.rows[j][i])
                    if not R.is_zero(c)
                }
                if entry:
                    out[f"t={tnames[j]},a^{i}"] = entry
        return out


def _index_of(S: SLCStructure, j: int, i: int, kappa: int, delta: int) -> int:
    half_m = S.m // 2
    return ((j * half_m + i) * S.ksize + kappa) * 2 + delta


def in_f_component(S: SLCStructure, alpha: GroupRingElement) -> bool:
    """alpha * f = alpha, i.e. alpha * (1 + s) = 0: coefficients are
    antisymmetric across the s-cosets."""
    R = alpha.ring
    mul_s = S.group.mul[S.s]
    for g, c in enumerate(alpha.coeffs):
        if not R.is_zero(R.add(c, alpha.coeffs[int(mul_s[g])])):
            return False
    return True


def decompose_f(S: SLCStructure, alpha: GroupRingElement) -> FCanonicalForm:
    """The unique x_ij array of alpha in (RG)f; folds the s-components with
    the sign 2^-1 * (c_(delta=0) - c_(delta=1))."""
    if alpha.group is not S.group:
        raise PreconditionError("element lives on a different group")
    if not in_f_component(S, alpha):
        raise NotInFComponentError("element is not in the f-component")
    R = alpha.ring
    half = R.half
    half_m = S.m // 2
    rows = []
    for j in range(4):
        row = []
        for i in range(half_m):
            entry = []
            for kappa in range(S.ksize):
                c0 = alpha.coeffs[_index_of(S, j, i, kappa, 0)]
                c1 = alpha.coeffs[_index_of(S, j, i, kappa, 1)]
                entry.append(R.mul(half, R.sub(c0, c1)))
            row.append(tuple(entry))
        rows.append(tuple(row))
    return FCanonicalForm(S, R, tuple(rows))


def reassemble(form: FCanonicalForm) -> GroupRingElement:
    S = form.slc
    R = form.ring
    coeffs = [R.zero] * S.group.order
    for j in range(4):
        for i in range(S.m // 2):
            for kappa, c in enumerate(form.rows[j][i]):
                coeffs[_index_of(S, j, i, kappa, 0)] = c
                coeffs[_index_of(S, j, i, kappa, 1)] = R.neg(c)
    return GroupRingElement(S.group, R, coeffs)


def is_symmetric_f(form: FCanonicalForm) -> bool:
    """alpha = alpha* iff every row beyond the t_1 row vanishes."""
    return all(form.row_is_zero(j) for j in range(1, 4))


def f_projections(
    S: SLCStructure, R: CoefficientRing, budget: int = DEFAULT_F_BUDGET
) -> list[GroupRingElement]:
    """All projections of (RG)f: the idempotent d(1-s) for d over the a^i K
    span (i < m/2), in counter order of the d coefficients.  Exhaustive;
    raises BudgetError when there are more than `budget` candidates."""
    RG = GroupRing(S.group, R)
    # the d-span is exactly the even indices below |Z|; -d sits on its s-coset
    span = np.arange(0, S.zsize, 2)
    coset = S.group.mul[span, S.s]

    def scatter(vals: np.ndarray) -> np.ndarray:
        out = np.zeros((vals.shape[0], S.group.order), dtype=np.int64)
        # reversed columns: the stream's lexicographic order becomes counter
        # order of the d coefficients
        vals = vals[:, ::-1]
        out[:, span] = vals
        out[:, coset] = R.vec.neg(vals)
        return out

    chunks, _ = idempotent_rows(RG, scatter, span.size, budget)
    return [RG.from_coeffs(R.decode(int(c)) for c in row) for rows in chunks for row in rows]
