"""Seeded job lists for the three benchmark workloads, with expected verdicts.

A job is one `starclean` command line.  Every job carries the verdict the
benchmark expects, derived here from the carrier's structure alone, so that
the output checks never depend on the program under test:

* a finite coefficient ring (odd characteristic) always solves
  X^2+Y^2+Z^2+1 = 0, so every finite carrier is not *-clean (paper,
  Theorem A); every finite ring is semiperfect, hence clean (Camillo-Yu);
* over Q and Q(zeta_e) the verdict for Q8 x A follows Theorem A and
  Theorem C: the equation must be unsolvable in Q(zeta_D) for every
  D = lcm(e, d), d an element order of A.

Solvability in Q(zeta_D) uses the closed-form local-degree rule
(Fein-Gordon-Smith 1971): solvable iff 4 | D or ord_{D_odd}(2) is even.
Where the paper itself settles the case (an explicit two-squares chain,
4 | D, Q itself, or D_odd a prime = 7 mod 8 of level 4) the expectation is
tagged "paper"; everywhere else, e.g. D_odd = 73 or 89, it goes beyond the
paper and is tagged "beyond-paper:local-degree".
"""

from __future__ import annotations

import dataclasses
import random
import re
from dataclasses import dataclass, field
from math import gcd

WORKLOADS = ("decide-ladder", "crossval-sweep", "lift-canonical")

PAPER = "paper"
BEYOND = "beyond-paper:local-degree"
CLEAN_BASIS = "known:finite-rings-are-clean"

# |R|^|Z| above which the program skips the exhaustive witness check
Z_BUDGET = 200_000


@dataclass
class Job:
    """One command line.  Round r of an untraced run runs the job when
    r % every == phase, so a job that takes seconds can sit out rounds."""

    index: int
    stratum: str
    argv: tuple[str, ...]
    expect: dict = field(default_factory=dict)
    every: int = 1
    phase: int = 0

    @property
    def command(self) -> str:
        return self.argv[0]

    def option(self, name: str, default=None):
        if name in self.argv:
            return self.argv[self.argv.index(name) + 1]
        return default


# --------------------------------------------------------------------------
# carrier theory, computed from the spec strings alone
# --------------------------------------------------------------------------

_ATOM = re.compile(r"^(Q8|C(\d+)|D([1-5])\[([^\]]*)\])$")
_RING = re.compile(r"^(?:Z/(\d+)|F(\d+)(?:\^(\d+))?|Q\(zeta(\d+)\)|(Q))$")


def parse_group(spec: str) -> tuple[str, dict, list[int]]:
    """(presentation, params, abelian factors) of a compact group spec."""
    ptype, params, abelian = None, {}, []
    for atom in spec.split("x"):
        m = _ATOM.match(atom)
        if m is None:
            raise ValueError(f"bad group atom {atom!r}")
        if m.group(2):
            abelian.append(int(m.group(2)))
        elif m.group(1) == "Q8":
            ptype, params = "D2", {"k": 1}
        else:
            ptype = f"D{m.group(3)}"
            params = {k: int(v) for k, v in (p.split("=") for p in m.group(4).split(","))}
    return ptype, params, [n for n in abelian if n > 1]


def ring_kind(spec: str) -> tuple[str, int]:
    """("finite", order) | ("Q", 1) | ("cyclotomic", d)."""
    m = _RING.match(spec)
    if m is None:
        raise ValueError(f"bad ring spec {spec!r}")
    if m.group(1):
        return "finite", int(m.group(1))
    if m.group(2):
        return "finite", int(m.group(2)) ** int(m.group(3) or 1)
    if m.group(4):
        return "cyclotomic", int(m.group(4))
    return "Q", 1


def _prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _ord2(m: int) -> int:
    """Multiplicative order of 2 modulo odd m > 1."""
    k, x = 1, 2 % m
    while x != 1:
        x = x * 2 % m
        k += 1
    return k


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def element_orders(abelian: list[int]) -> set[int]:
    orders = {1}
    for n in abelian:
        orders = {a * d // gcd(a, d) for a in orders for d in _divisors(n)}
    return orders


def _odd_part(n: int) -> int:
    while n % 2 == 0:
        n //= 2
    return n


def cyclotomic_solvable(D: int) -> tuple[bool, str]:
    """Is X^2+Y^2+Z^2+1 = 0 solvable in Q(zeta_D)?  With the basis tag."""
    odd = _odd_part(D)
    if D % 4 == 0:
        return True, PAPER  # i = zeta_4 solves it
    if odd == 1:
        return False, PAPER  # the field is Q, formally real
    if _ord2(odd) % 2 == 0:
        return True, PAPER  # the two-squares chain of some p | 2^n + 1
    if _prime_factors(odd) == [odd] and odd % 8 == 7:
        return False, PAPER  # level 4 of Q(zeta_p), p = 7 mod 8
    return False, BEYOND


def _q8_type(ptype: str, params: dict) -> bool:
    return ptype == "D2" and params.get("k") == 1


def _excluded_prime(abelian: list[int]) -> bool:
    primes = {p for n in abelian for p in _prime_factors(n) if p % 2}
    return any(_ord2(p) % 2 == 0 for p in primes)


def _structural_case(group: str) -> bool:
    """A structure, order-4 or excluded-prime witness applies."""
    ptype, params, abelian = parse_group(group)
    return (
        not _q8_type(ptype, params)
        or any(n % 4 == 0 for n in abelian)
        or _excluded_prime(abelian)
    )


def expected_star_clean(group: str, ring: str) -> tuple[str, str]:
    """(status, basis) for RG with the canonical involution."""
    if _structural_case(group):
        return "not-star-clean", PAPER
    kind, e = ring_kind(ring)
    if kind == "finite":
        return "not-star-clean", PAPER
    basis = PAPER
    for d in sorted(element_orders(parse_group(group)[2])):
        D = e * d // gcd(e, d)
        solvable, tag = cyclotomic_solvable(D)
        if solvable:
            return "not-star-clean", tag
        if tag == BEYOND:
            basis = BEYOND
    return "star-clean", basis


def expected_witness(group: str, ring: str) -> str:
    """Outcome of `starclean witness`: a structural witness, or one from a
    solution of the equation in R itself, else no witness."""
    if _structural_case(group):
        return "witness-found"
    kind, e = ring_kind(ring)
    if kind == "finite" or (kind == "cyclotomic" and cyclotomic_solvable(e)[0]):
        return "witness-found"
    return "no-witness"


def _verdict_expectation(command: str, group: str, ring: str) -> dict:
    status, basis = expected_star_clean(group, ring)
    out = {"star_clean": status, "basis": basis}
    if command == "witness":
        out["witness"] = expected_witness(group, ring)
    if ring_kind(ring)[0] == "finite":
        out["clean"] = True
        out["clean_basis"] = CLEAN_BASIS
    return out


def _zsize(group: str) -> int:
    """Order of the center of an SLC group: |<a>| * |K|."""
    ptype, params, abelian = parse_group(group)
    size = 2 ** params["k"]
    if ptype in ("D3", "D4", "D5"):
        size *= 2 ** params["k2"]
    if ptype == "D5":
        size *= 2 ** params["k3"]
    for n in abelian:
        size *= n
    return size


def _cheap_witness_check(group: str, ring: str) -> bool:
    """The program's exhaustive witness check is either skipped or tiny."""
    kind, q = ring_kind(ring)
    if kind != "finite":
        return True
    card = q ** _zsize(group)
    return card <= 729 or card > Z_BUDGET


def _engine_searches(group: str, ring: str) -> bool:
    """True when the verdict needs the bounded height search, which is
    reserved for the hard stratum."""
    if _structural_case(group) or ring_kind(ring)[0] == "finite":
        return False
    return expected_star_clean(group, ring)[1] == BEYOND


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _cli_seed(rng: random.Random) -> str:
    return str(rng.randrange(1, 1_000_000))


class _JobList:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.jobs: list[Job] = []

    def add(self, stratum: str, argv: list[str], expect: dict, every: int = 1, phase: int = 0) -> None:
        argv = argv + ["--seed", _cli_seed(self.rng)]
        self.jobs.append(Job(len(self.jobs), stratum, tuple(argv), expect, every, phase))

    def verdict(self, stratum: str, command: str, group: str, ring: str, extra=(),
                every: int = 1, phase: int = 0) -> None:
        argv = [command, "--group", group, "--ring", ring, *extra]
        self.add(stratum, argv, _verdict_expectation(command, group, ring), every, phase)

    def draw(self, stratum: str, groups_: list[str], rings: list[str], share: float = 0.8) -> None:
        """A seeded sample of `share` of the stratum's (group, ring) pairs,
        each as a `decide` or a `witness` job.  Sampling most of each pool
        keeps the pass's cost profile nearly the same for every seed."""
        pool = [
            (g, r)
            for g in groups_
            for r in rings
            if _cheap_witness_check(g, r) and not _engine_searches(g, r)
        ]
        for g, r in self.rng.sample(pool, max(1, round(share * len(pool)))):
            self.verdict(stratum, self.rng.choice(("decide", "witness")), g, r)

    def shuffled(self) -> list[Job]:
        order = list(range(len(self.jobs)))
        self.rng.shuffle(order)
        return [dataclasses.replace(self.jobs[k], index=i) for i, k in enumerate(order)]


_PRESENTATIONS = {
    "D1": ["D1[k=1]", "D1[k=2]", "D1[k=1]xC3", "D1[k=1]xC2"],
    "D2": ["D2[k=2]", "D2[k=3]", "D2[k=2]xC3", "D2[k=2]xC2"],
    "D3": ["D3[k=1,k2=1]", "D3[k=1,k2=2]", "D3[k=2,k2=1]", "D3[k=1,k2=1]xC3"],
    "D4": ["D4[k=1,k2=1]", "D4[k=1,k2=2]", "D4[k=2,k2=1]", "D4[k=1,k2=1]xC3"],
    "D5": ["D5[k=1,k2=1,k3=1]", "D5[k=1,k2=1,k3=2]", "D5[k=1,k2=1,k3=1]xC3"],
}
_SMALL_RINGS = ["F3", "F5", "F7", "Z/9", "Q", "Q(zeta7)", "Q(zeta3)"]


def decide_ladder(seed: int) -> list[Job]:
    """Theory-side jobs: fixed rungs plus a seeded stratified draw."""
    b = _JobList(_rng("decide-ladder", seed))
    # fixed rungs: the hard stratum (p = 1 mod 8, odd ord_p(2)), the largest
    # group, the exhaustive witness check, CorollaryA.1 at larger p, and
    # excluded primes over a degree-22 field.  The replicated Q8xC4/F3 rung
    # spans the ranks around the eleventh-slowest job run, so the tail latency
    # lands on one rung for every seed.  The two hard decide jobs (seconds
    # each) take turns, one per round.
    for phase, p in enumerate((73, 89)):
        b.verdict("hard", "decide", f"Q8xC{p}", "Q", every=2, phase=phase)
        b.verdict("hard", "witness", f"Q8xC{p}", "Q")
    b.verdict("excluded-prime", "decide", "Q8xC105", "Q")
    for _ in range(3):
        b.verdict("order-4", "witness", "Q8xC4", "F3")
        b.verdict("order-4", "decide", "Q8xC4", "F3")
    for p in (11, 13):
        b.verdict("rational-3-5-mod-8", "decide", f"Q8xC{p}", "Q")
        b.verdict("rational-3-5-mod-8", "witness", f"Q8xC{p}", "Q")
    for g in ("Q8xC3", "Q8xC5"):
        b.verdict("excluded-prime", "decide", g, "Q(zeta23)")
        b.verdict("excluded-prime", "witness", g, "Q(zeta23)")
    # seeded draw: every presentation D1..D5 with a structural witness
    for pres, specs in _PRESENTATIONS.items():
        b.draw(f"presentation-{pres}", specs, _SMALL_RINGS)
    b.draw(
        "order-4",
        ["Q8xC4", "Q8xC8", "Q8xC12", "Q8xC4xC3", "Q8xC4xC7", "Q8xC8xC3"],
        ["F5", "F7", "Z/9", "Q", "Q(zeta7)", "Q(zeta3)"],
    )
    b.draw(
        "excluded-prime",
        ["Q8xC3", "Q8xC5", "Q8xC6", "Q8xC10", "Q8xC3xC3", "Q8xC3xC2"],
        ["F11", "F13", "Z/25", "Q(zeta7)", "Q(zeta5)"],
    )
    b.draw(
        "finite-ring",
        ["Q8", "Q8xC2", "Q8xC7", "Q8xC2xC2", "Q8xC23", "Q8xC7xC2"],
        ["F3", "F5", "F7", "F11", "F13", "Z/9", "Z/15", "Z/25", "Z/21",
         "F3^2", "F5^2", "F3^3", "F7^2"],
    )
    b.draw("rational-3-5-mod-8", ["Q8xC3", "Q8xC5", "Q8xC6", "Q8xC10", "Q8xC3xC3", "Q8xC3xC2"], ["Q"])
    b.draw("rational-7-mod-8", ["Q8xC7", "Q8xC23", "Q8xC31", "Q8xC47", "Q8xC14", "Q8xC7xC2"], ["Q"])
    b.draw(
        "cyclotomic",
        ["Q8", "Q8xC2", "Q8xC7", "Q8xC3", "Q8xC23"],
        ["Q(zeta3)", "Q(zeta5)", "Q(zeta7)", "Q(zeta12)", "Q(zeta15)", "Q(zeta23)"],
    )
    return b.shuffled()


# every SLC presentation of order <= 16
_SWEEP_GROUPS = [
    "D1[k=1]", "D1[k=1]xC2", "D1[k=2]", "Q8", "Q8xC2", "D2[k=2]",
    "D3[k=1,k2=1]", "D4[k=1,k2=1]",
]


def crossval_sweep(seed: int) -> list[Job]:
    """Brute-force jobs: the order <= 16 sweep plus the scan reproducers."""
    b = _JobList(_rng("crossval-sweep", seed))
    # the Z/9 carriers twice, so the median job run falls among their
    # budget-bound scans; the exhaustive F3 scans of order 8 (with the
    # classical involution and the brute clean scan) span the ranks around
    # the eleventh-slowest job run, so the tail lands on them for every seed
    for g in _SWEEP_GROUPS:
        for r in ("F3", "F5", "Z/9", "Z/9"):
            b.verdict("sweep", "crossval", g, r)
    for g in ("Q8", "Q8", "Q8", "D1[k=1]", "D1[k=1]"):
        b.verdict("exhaustive", "crossval", g, "F3")
    b.verdict("crossval", "crossval", "Q8", "F7")
    b.verdict("crossval", "crossval", "Q8", "F3^2", every=2, phase=0)
    b.verdict("crossval", "crossval", "Q8", "F3", ["--involution", "classical"])
    # the exhaustive clean scan, and the sampled scan that exits 0 (a known
    # defect: it claims a proof it does not have, so it counts as failed).
    # The sampled scan takes seconds, so it runs every other round, and the
    # two next-longest jobs run in the rounds between.
    b.verdict("brute-full", "brute", "Q8", "F3", ["--property", "clean"], every=2, phase=0)
    b.verdict("brute-sampled", "brute", "Q8", "F3", ["--property", "clean", "--budget", "1000"],
              every=2, phase=1)
    return b.shuffled()


# (group, ring, jobs per round); many cheap lifts keep the round steady,
# since a lift's cost varies with the drawn element.  The Q8/F13 lifts span
# the ranks around the eleventh-slowest job run, so the tail lands on them.
_LIFT_CARRIERS = [
    ("D2[k=2]", "F3^2", 1),
    ("C3xC2", "F5^2", 6),
    ("Q8", "F3^3", 10),
    ("Q8", "F5^2", 10),
    ("Q8", "F7^2", 10),
    ("Q8", "F11", 8),
    ("Q8", "F13", 10),
]
_CANONICAL_CARRIERS = [
    ("Q8", "F3"), ("Q8", "F5"), ("Q8", "F3^2"), ("Q8xC3", "F5"),
    ("Q8xC2", "F3"), ("D2[k=2]", "F3"), ("D2[k=2]xC3", "F5"), ("D3[k=1,k2=1]", "F3"),
]


def lift_canonical(seed: int, f_element) -> list[Job]:
    """Payload-path jobs: lifts of seeded random decompositions across x C2,
    canonical forms of seeded f-component elements, and f-projection lists.

    `f_element(group, ring, rng)` returns a JSON element of (RG)f.
    """
    b = _JobList(_rng("lift-canonical", seed))
    for g, r, count in _LIFT_CARRIERS:
        for _ in range(count):
            b.add("lift", ["lift", "--group", g, "--ring", r], {"lifted": True})
    for g, r in _CANONICAL_CARRIERS:
        element = f_element(g, r, b.rng)
        b.add("canonical", ["canonical", "--group", g, "--ring", r, "--element", element],
              {"roundtrip": True})
        b.add("canonical", ["canonical", "--group", g, "--ring", r, "--list-projections"],
              {"projections": True})
    return b.shuffled()
