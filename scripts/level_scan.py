#!/usr/bin/env python3
"""Scan odd primes: residue class mod 8, level of Q(zeta_p), and the least n
with p | 2^n + 1 (which exists exactly when ord_p(2) is even).

The p = 7 mod 8 rows never have such an n; for p = 3, 5 mod 8 the level-2
classification and the divisibility witness always appear together.

Usage: python scripts/level_scan.py [--limit 200]
"""

import argparse

from starclean import coeff, numtheory


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--limit", type=int, default=200)
    args = parser.parse_args()

    print(f"{'p':>6} {'p%8':>4} {'level':>8} {'n: p | 2^n+1':>14}")
    for p in numtheory.primes_below(args.limit):
        if p == 2:
            continue
        level = coeff.level_classify_prime(p)
        n = numtheory.exists_n_dividing(p)
        n_str = str(n) if n is not None else "-"
        print(f"{p:>6} {p % 8:>4} {level.value:>8} {n_str:>14}")
        if p % 8 == 7:
            assert n is None
        if p % 8 in (3, 5):
            assert n is not None and (2**n + 1) % p == 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
