"""Canonical forms on the component (RG)f of an SLC group ring.

Every element of (RG)f is uniquely [sum_j (sum_i x_ij a^i) t_j](1-s) with
x_ij in RK; the form makes the involution a sign flip on the rows j >= 2,
symmetry a vanishing condition, and the projections of (RG)f exactly the
idempotents d(1-s) with d supported on the a^i K span (i < m/2).

g*s has index g XOR 1 (see `groups`), so the s-cosets are the index pairs
(2t, 2t+1), delta = 0 first, and every map here is slicing on those pairs:
the form folds each pair to x_t = 2^-1 (c_2t - c_2t+1), in (j, i, kappa)
order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coeff import CoefficientRing, Payload
from .errors import BudgetError, NotInFComponentError, PreconditionError
from .groupring import GroupRing, GroupRingElement, f_projection_rows
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


def _chunks(seq: tuple, size: int) -> tuple:
    return tuple(seq[i : i + size] for i in range(0, len(seq), size))


def fold_f(S: SLCStructure, alpha: GroupRingElement) -> FCanonicalForm:
    """The form of alpha * f, for any alpha in RG: the pair fold."""
    R = alpha.ring
    half = R.half
    c = alpha.coeffs
    x = tuple(R.mul(half, R.sub(c0, c1)) for c0, c1 in zip(c[0::2], c[1::2]))
    return FCanonicalForm(S, R, _chunks(_chunks(x, S.ksize), S.m // 2))


def in_f_component(S: SLCStructure, alpha: GroupRingElement) -> bool:
    """alpha * f = alpha, i.e. alpha * (1 + s) = 0: coefficients are
    antisymmetric across the s-cosets."""
    R = alpha.ring
    c = alpha.coeffs
    return all(R.is_zero(R.add(c0, c1)) for c0, c1 in zip(c[0::2], c[1::2]))


def decompose_f(S: SLCStructure, alpha: GroupRingElement) -> FCanonicalForm:
    """The unique x_ij array of alpha in (RG)f."""
    if alpha.group is not S.group:
        raise PreconditionError("element lives on a different group")
    if not in_f_component(S, alpha):
        raise NotInFComponentError("element is not in the f-component")
    return fold_f(S, alpha)


def reassemble(form: FCanonicalForm) -> GroupRingElement:
    R = form.ring
    flat = (c for row in form.rows for entry in row for c in entry)
    return GroupRingElement(form.slc.group, R, (v for c in flat for v in (c, R.neg(c))))


def is_symmetric_f(form: FCanonicalForm) -> bool:
    """alpha = alpha* iff every row beyond the t_1 row vanishes."""
    return all(form.row_is_zero(j) for j in range(1, 4))


def f_projections(
    S: SLCStructure, R: CoefficientRing, budget: int = DEFAULT_F_BUDGET
) -> list[GroupRingElement]:
    """All projections of (RG)f, the idempotents of R[Z(G)](1-s)/2, as d(1-s)
    with d on the a^i K span (i < m/2), in counter order of the d
    coefficients; BudgetError when there are more than `budget` candidates d."""
    RG = GroupRing(S.group, R)
    dims, nz = S.zsize // 2, S.zsize  # d sits on the even indices below |Z|
    if R.order is None:
        raise BudgetError(f"{R!r} is infinite; its projections cannot be enumerated")
    if R.order**dims > budget:
        raise BudgetError(f"|R|^{dims} candidates exceed budget {budget}")
    rows = f_projection_rows(S.group, R, nz)
    # lexsort's primary key is its last: the first d coefficient runs fastest
    rows = rows[np.lexsort(rows[:, 0:nz:2].T)]
    return [RG.from_coeffs(R.decode(int(c)) for c in row) for row in rows]
