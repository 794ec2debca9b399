"""Constructive certificates: the two-squares recursion, annihilator pairs,
non-*-cleanness witnesses with the six case constructions, and lifting of
*-clean decompositions across a C2 extension.

A witness is a pair (gamma, tau_w) with (1 - gamma^2) tau_w (1 - s) = 0 and
(z - 4^-1 gamma) tau_w (1 - s) != 0 for every z in R Z(G); its existence
certifies that RG is not *-clean.  tau_w is named to avoid the clash with
the transversal.  `CASES` is the one table of the six cases: the reason
`decide` cites for each and the element condition 2 reduces to, which the
case's construction in `generate_witness` checks where it builds the pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from . import coeff
from .coeff import CoefficientRing
from .errors import PreconditionError
from .groupring import (
    GroupRing,
    GroupRingElement,
    batch_convolve,
    candidate_rows,
    is_projection,
    is_unit,
    unit_inverse,  # noqa: F401  unused here; perfbench's tracer test asserts this binding
)
from .groups import (
    FiniteGroup,
    InvolutionMap,
    Presentation,
    SLCStructure,
    canonical_involution,
    center,
    direct_product,
    cyclic_group,
)
from . import numtheory

DEFAULT_Z_BUDGET = 200_000


# --------------------------------------------------------------------------
# the two-squares recursion
# --------------------------------------------------------------------------

@dataclass(eq=False)
class TwoSquaresCertificate:
    """(a, b) with a^2 + b^2 = prod_{k=0..t} (1 + g^(2^k)), exactly."""

    g: GroupRingElement
    p: int
    t: int
    a: GroupRingElement
    b: GroupRingElement

    def verify(self) -> bool:
        RG = GroupRing(self.g.group, self.g.ring)
        prod = RG.one()
        for k in range(self.t + 1):
            prod = prod * (RG.one() + self.g.pow_int(2**k))
        return self.a * self.a + self.b * self.b == prod


def two_squares(g: GroupRingElement, p: int, t: int) -> TwoSquaresCertificate:
    """Run the doubling recursion from the base 1 + g = 1^2 + (g^((p+1)/2))^2.

    Each step (a, b) -> (a g^(2^k) + b, b g^(2^k) - a) multiplies the
    certified product by (1 + g^(2^(k+1))).
    """
    if p < 3 or p % 2 == 0:
        raise PreconditionError("p must be odd and >= 3")
    if t < 0:
        raise PreconditionError("t must be >= 0")
    if not g.pow_int(p) == GroupRing(g.group, g.ring).one():
        raise PreconditionError("g^p != 1")
    if not g.is_central():
        raise PreconditionError("g is not central")
    RG = GroupRing(g.group, g.ring)
    a = RG.one()
    b = g.pow_int((p + 1) // 2)
    for k in range(t):
        x_fac = g.pow_int(2**k)
        a, b = a * x_fac + b, b * x_fac - a
    cert = TwoSquaresCertificate(g, p, t, a, b)
    if not cert.verify():
        raise AssertionError("two-squares certificate failed to verify")
    return cert


def annihilator_pair(
    g: GroupRingElement, p: int, n: int
) -> tuple[GroupRingElement, GroupRingElement]:
    """(alpha, beta) with (alpha^2 + beta^2 + g^(2^n)) (g - 1) = 0.

    Requires p | 2^n + 1; the pair comes from the recursion at depth n - 1
    and the identity is re-verified before returning.
    """
    if (2**n + 1) % p != 0:
        raise PreconditionError(f"{p} does not divide 2^{n}+1 = {2 ** n + 1}")
    cert = two_squares(g, p, n - 1)
    a, b = cert.a, cert.b
    RG = GroupRing(g.group, g.ring)
    lhs = (a * a + b * b + g.pow_int(2**n)) * (g - RG.one())
    if not lhs.is_zero():
        raise AssertionError("annihilator identity failed to verify")
    return a, b


# --------------------------------------------------------------------------
# witnesses
# --------------------------------------------------------------------------

@dataclass(eq=False)
class NonCleanWitness:
    gamma: GroupRingElement
    tau_w: GroupRingElement
    case_tag: str
    data: dict = field(default_factory=dict)
    validation: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "case": self.case_tag,
            "gamma": self.gamma.to_dict(),
            "tau_w": self.tau_w.to_dict(),
            "data": self.data,
            "validation": self.validation,
        }

    def certificate(self) -> dict:
        return {"kind": "witness", **self.to_dict()}


@dataclass(eq=False)
class CheckOutcome:
    status: str  # "valid" | "condition1" | "condition2"
    z: Optional[GroupRingElement] = None

    @property
    def is_valid(self) -> bool:
        return self.status == "valid"


def check_witness(
    G: FiniteGroup,
    R: CoefficientRing,
    sigma: InvolutionMap,
    w: NonCleanWitness,
    s_index: int,
    z_budget: int = DEFAULT_Z_BUDGET,
) -> CheckOutcome:
    """Both witness conditions; condition 2 by exhaustive enumeration of
    R Z(G) (finite R within budget only).

    The candidates z run through `candidate_rows` in lexicographic order of
    their coefficients on Z(G)'s members (first member slowest); a failure
    reports the first z with (z - 4^-1 gamma) tau_w (1 - s) = 0 in that
    order."""
    if int(sigma.image[s_index]) != s_index:
        raise PreconditionError("involution must fix s")
    RG = GroupRing(G, R)
    one = RG.one()
    oms = one - RG.basis(s_index)
    if not ((one - w.gamma * w.gamma) * w.tau_w * oms).is_zero():
        return CheckOutcome("condition1")
    members = list(center(G).members)
    tau_oms = w.tau_w * oms
    base = (-w.gamma.scale(R.inv(R.from_int(4)))) * tau_oms

    def scatter(values: np.ndarray) -> np.ndarray:
        rows = np.zeros((values.shape[0], G.order), dtype=np.int64)
        rows[:, members] = values
        return rows

    def fails(RG: GroupRing, rows: np.ndarray) -> np.ndarray:
        prod = batch_convolve(RG, rows, tau_oms_row)
        return (R.vec.add(prod, base_row) == 0).all(axis=1)  # code 0 is zero

    # raises BudgetError over an infinite ring or beyond z_budget, before
    # `fails` reads the code rows below
    chunks, _ = candidate_rows(RG, scatter, len(members), z_budget, keep=fails)
    tau_oms_row = np.array([[R.encode(c) for c in tau_oms.coeffs]], dtype=np.int64)
    base_row = np.array([R.encode(c) for c in base.coeffs], dtype=np.int64)
    for hits in chunks:
        if hits.shape[0]:
            z = RG.from_coeffs(R.decode(int(c)) for c in hits[0])
            return CheckOutcome("condition2", z=z)
    return CheckOutcome("valid")


CASE_TYPE1 = "presentation-type-1"
CASE_TYPE345 = "presentation-type-3-5"
CASE_TYPE2_LARGE_M = "presentation-type-2-large-m"
CASE_ORDER4 = "order-4-element"
CASE_EXCLUDED_PRIME = "excluded-prime"
CASE_THREE_SQUARES = "three-squares"


class Case(NamedTuple):
    """A witness case: its decide reason and what its condition 2 reduces to."""

    criterion: str
    citation: str
    reduced_to: str


CASES = {
    CASE_TYPE1: Case("structure", "TheoremA.structure", "4^-1 != 0"),
    CASE_TYPE345: Case(
        "structure", "TheoremA.structure", "4^-1 * sum of distinct central powers of y != 0"
    ),
    CASE_TYPE2_LARGE_M: Case("structure", "TheoremA.structure", "4^-1 != 0"),
    CASE_ORDER4: Case("order-4-element", "TheoremA.1", "4^-1 * (1 - g^2) != 0"),
    CASE_EXCLUDED_PRIME: Case(
        "excluded-prime", "TheoremA.2", "alpha(g-1) and beta(g-1) not both 0"
    ),
    CASE_THREE_SQUARES: Case(
        "equation-solvable", "TheoremA.equation", "some solution coordinate != 0"
    ),
}


def generate_witness(S: SLCStructure, R: CoefficientRing, z_budget: int = DEFAULT_Z_BUDGET):
    """First applicable witness in the fixed case order: presentation type 1;
    types 3-5; type 2 with m >= 4; an order-4 element of the abelian factor;
    an element of excluded prime order; a three-squares solution in R.

    Returns a validated NonCleanWitness, or None when no case applies; the
    equation case is always decided (``coeff.solve_three_squares``).  Each
    case checks its own condition-2 reduction (``CASES``, by the uniqueness
    of the f-component canonical form); the witness is also checked
    exhaustively when |R|^|Z(G)| <= z_budget.
    """
    G = S.group
    RG = GroupRing(G, R)
    one = RG.one()
    oms = one - RG.basis(S.s)
    quarter = R.inv(R.from_int(4))
    x = RG.basis(S.transversal[1])
    y = RG.basis(S.transversal[2])
    xy = RG.basis(S.transversal[3])
    data: dict = {}

    if S.ptype is Presentation.D1:
        case, gamma, tau = CASE_TYPE1, y, one
        nonzero = not R.is_zero(quarter)
    elif S.ptype in (Presentation.D3, Presentation.D4, Presentation.D5):
        case = CASE_TYPE345
        r = G.element_order(S.transversal[2])
        if r < 4 or r % 2:
            raise AssertionError("type 3-5 groups have y of order >= 4")
        tau = RG.zero()
        for i in range(r // 2):
            tau = tau + RG.basis(G.power(S.transversal[2], 2 * i))
        gamma = y
        data["y_order"] = r
        nonzero = not tau.scale(quarter).is_zero()
    elif S.ptype is Presentation.D2 and S.m >= 4:
        case = CASE_TYPE2_LARGE_M
        a_pow = G.power(G.generators["a"], (S.m - 4) // 4)
        gamma, tau = xy * RG.basis(a_pow), one
        data["a_exponent"] = (S.m - 4) // 4
        nonzero = not R.is_zero(quarter)
    else:
        # G = Q8 x A with A = K: member 2t of K has the mixed-radix exponents
        # of t over A's factors, so its order is the lcm of f / gcd(e_f, f)
        t, k_orders = np.arange(S.ksize), np.ones(S.ksize, dtype=np.int64)
        for f in S.abelian:
            k_orders = np.lcm(k_orders, f // np.gcd(t % f, f))
            t //= f
        orders, firsts = np.unique(k_orders, return_index=True)
        least_of_order = {int(o): S.K.members[i] for o, i in zip(orders, firsts)}
        g4 = least_of_order.get(4)
        if g4 is not None:
            case = CASE_ORDER4
            g_el = RG.basis(g4)
            gamma = x * g_el
            tau = one - g_el * g_el
            data["g"] = G.names[g4]
            nonzero = not tau.scale(quarter).is_zero()
        elif (excluded := numtheory.least_excluded_prime(S.ksize)) is not None:
            p, n = excluded
            g_idx = least_of_order[p]  # p | |K|, so K has an element of order p
            case = CASE_EXCLUDED_PRIME
            g_el = RG.basis(g_idx)
            alpha, beta = annihilator_pair(g_el, p, n)
            shift = g_el.pow_int(2 ** (n - 1) + 1)
            gamma = alpha * shift * x + beta * shift * y
            tau = g_el - one
            data.update({"g": G.names[g_idx], "p": p, "n": n})
            nonzero = not ((alpha * tau).is_zero() and (beta * tau).is_zero())
        else:
            sol = coeff.solve_three_squares(R)
            if sol is coeff.NO_SOLUTION:
                return None
            case = CASE_THREE_SQUARES
            combo = x.scale(sol.x) + y.scale(sol.y) + xy.scale(sol.z)
            gamma = combo.scale(R.half) * oms
            tau = one
            data["triple"] = sol.as_strings()
            nonzero = any(not R.is_zero(a) for a in (sol.x, sol.y, sol.z))

    if not ((one - gamma * gamma) * tau * oms).is_zero():
        raise AssertionError(f"condition 1 failed for case {case}")
    if not nonzero:
        raise AssertionError(f"symbolic condition-2 check failed for {case}")
    reduction = {"mode": "symbolic", "reduced_to": CASES[case].reduced_to}
    validation = {"condition1": "0", "condition2": reduction}
    if R.order is not None and R.order ** S.zsize <= z_budget:
        outcome = check_witness(
            G, R, canonical_involution(S), NonCleanWitness(gamma, tau, case), S.s, z_budget
        )
        if not outcome.is_valid:
            raise AssertionError(f"exhaustive check contradicts case {case}")
        validation["condition2_exhaustive"] = {
            "mode": "exhaustive",
            "z_count": R.order ** S.zsize,
        }
    return NonCleanWitness(gamma, tau, case, data, validation)


# --------------------------------------------------------------------------
# *-clean decompositions and the C2 lift
# --------------------------------------------------------------------------

@dataclass(eq=False)
class StarCleanDecomposition:
    unit: GroupRingElement
    projection: GroupRingElement

    def target(self) -> GroupRingElement:
        return self.unit + self.projection

    def validate(self, sigma: InvolutionMap) -> None:
        if not is_unit(self.unit):
            raise PreconditionError("unit component is not a unit")
        if not is_projection(self.projection, sigma):
            raise PreconditionError("projection component is not a projection")

    def to_dict(self) -> dict:
        return {"unit": self.unit.to_dict(), "projection": self.projection.to_dict()}


@dataclass(eq=False)
class LiftResult:
    group: FiniteGroup
    ring: CoefficientRing
    sigma: InvolutionMap
    decomposition: StarCleanDecomposition
    target: GroupRingElement


def lift_c2(
    dec: StarCleanDecomposition,
    RH: GroupRing,
    sigma_H: InvolutionMap,
) -> LiftResult:
    """Lift a *-clean decomposition r = u + p in RH to R[H x C2].

    h -> (h, 1) embeds RH in RG as a unital subring closed under the extended
    involution, which fixes the new generator a = (1, c1); so the embedded u
    and p decompose the embedded r.  The pair is re-validated in RG before
    returning.
    """
    dec.validate(sigma_H)
    H = RH.group
    R = RH.ring
    G = direct_product(H, cyclic_group(2))
    image = [int(sigma_H.image[h]) * 2 + c for h in range(H.order) for c in (0, 1)]
    sigma_G = InvolutionMap(G, image)
    sigma_G.validate()
    RG = GroupRing(G, R)

    def embed(el: GroupRingElement) -> GroupRingElement:
        coeffs = [R.zero] * G.order
        coeffs[::2] = el.coeffs  # (h, 1) has index 2h
        return RG.from_coeffs(coeffs)

    out = StarCleanDecomposition(embed(dec.unit), embed(dec.projection))
    out.validate(sigma_G)
    return LiftResult(G, R, sigma_G, out, out.target())
