#!/usr/bin/env python3
"""Cross-validate theory vs brute force over a family of small carriers.

Every SLC presentation of order <= MAX_ORDER is paired with each coefficient
ring; the script prints one line per carrier and fails loudly on any
discrepancy (there should never be one).

Usage: python scripts/crossval_sweep.py [--max-order 16] [--rings F3,F5,Z/9]
"""

import argparse
import time

from starclean import coeff, decide, groups
from starclean.decide import Budget
from starclean.groups import Presentation as P


def presentations_up_to(max_order):
    specs = []
    for ptype, kk in [(P.D1, (1, 2, 3)), (P.D2, (1, 2, 3))]:
        for k in kk:
            if 2 ** (k + 2) <= max_order:
                specs.append((ptype, k, None, None))
    for ptype in (P.D3, P.D4):
        for k, k2 in [(1, 1), (1, 2), (2, 1)]:
            if 2 ** (k + k2 + 2) <= max_order:
                specs.append((ptype, k, k2, None))
    if 32 <= max_order:
        specs.append((P.D5, 1, 1, 1))
    out = []
    for ptype, k, k2, k3 in specs:
        base = groups.build_slc(ptype, k, k2, k3)
        room = max_order // base.group.order
        out.append(base)
        for n in (2, 3, 4):
            if n <= room:
                out.append(groups.build_slc(ptype, k, k2, k3, (n,)))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-order", type=int, default=16)
    parser.add_argument("--rings", default="F3,F5,Z/9")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rings = [coeff.make_ring(s) for s in args.rings.split(",")]
    budget = Budget(structure_limit=100_000, structure_samples=2_000, seed=args.seed)
    inconclusive = 0
    total = 0
    # any certified disagreement raises DiscrepancyError and crashes the sweep
    for S in presentations_up_to(args.max_order):
        sigma = groups.canonical_involution(S)
        for R in rings:
            t0 = time.perf_counter()
            report = decide.cross_validate(S, sigma, R, budget)
            dt = time.perf_counter() - t0
            theory = report.theory.status.value if report.theory else "n/a"
            brute = report.brute_star.result
            print(
                f"{S.spec_string():<16} {R.spec_string():<6} "
                f"theory={theory:<16} brute={str(brute):<6} "
                f"{report.agreement:<20} {dt:6.2f}s"
            )
            total += 1
            if report.agreement != "agree":
                inconclusive += 1
    confirmed = total - inconclusive
    print(f"{confirmed}/{total} carriers confirmed, {inconclusive} inconclusive within budget")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
