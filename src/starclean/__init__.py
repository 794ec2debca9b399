"""starclean: exact *-cleanness engine for group rings over SLC-groups.

Builds SLC groups from their five presentations with the canonical
involution, exact coefficient rings (Z/n, GF(p^k), Q, Q(zeta_d)), group-ring
arithmetic with canonical forms on the f-component, constructive
non-*-cleanness witnesses, theory-side decision procedures, and brute-force
cross-validation.
"""

from .coeff import (
    CyclotomicField,
    FiniteField,
    Level,
    ModRing,
    NO_SOLUTION,
    RationalField,
    ThreeSquaresSolution,
    cyclotomic_polynomial,
    extend_with_root,
    level_classify_prime,
    make_ring,
    solve_three_squares,
)
from .decide import (
    Budget,
    Status,
    Verdict,
    brute_clean,
    brute_star_clean,
    cross_validate,
    decide_star_clean,
    element_star_clean,
    necessary_conditions,
    perlis_walker,
    theorem_c_decide,
)
from .groupring import (
    GroupRing,
    GroupRingElement,
    apply_involution,
    is_idempotent,
    is_projection,
    is_unit,
)
from .groups import (
    FiniteGroup,
    InvolutionMap,
    Presentation,
    SLCStructure,
    Subgroup,
    build_abelian,
    build_slc,
    canonical_involution,
    center,
    classical_involution,
    cyclic_group,
    direct_product,
)
from .numtheory import exists_n_dividing
from .witness import (
    NonCleanWitness,
    StarCleanDecomposition,
    TwoSquaresCertificate,
    annihilator_pair,
    check_witness,
    generate_witness,
    lift_c2,
    two_squares,
)

__version__ = "0.1.0"
