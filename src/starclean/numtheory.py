"""Small exact number-theory helpers (primality, orders, CRT)."""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt
from typing import Optional

from .errors import PreconditionError


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    f = 5
    while f <= isqrt(n):
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


def primes_below(limit: int) -> list[int]:
    if limit <= 2:
        return []
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i in range(limit) if sieve[i]]


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((p, e), ...) with p ascending."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def divisors(n: int) -> list[int]:
    ds = [1]
    for p, e in factorize(n):
        ds = [d * p**i for d in ds for i in range(e + 1)]
    return sorted(ds)


def euler_phi(n: int) -> int:
    out = 1
    for p, e in factorize(n):
        out *= (p - 1) * p ** (e - 1)
    return out


def multiplicative_order(a: int, n: int) -> int:
    """Order of a in (Z/n)*; requires gcd(a, n) = 1."""
    a %= n
    if n == 1:
        return 1
    if gcd(a, n) != 1:
        raise ValueError(f"{a} is not a unit modulo {n}")
    for d in divisors(euler_phi(n)):
        if pow(a, d, n) == 1:
            return d
    raise AssertionError("order must divide euler_phi(n)")


def exists_n_dividing(p: int) -> Optional[int]:
    """Least n with p | 2^n + 1, or None.

    Such n exists iff ord_p(2) is even, and then n = ord_p(2)/2 since
    2^(ord/2) is the nontrivial square root of 1 mod p.
    """
    if p == 2 or not is_prime(p):
        raise PreconditionError(f"{p} is not an odd prime")
    order = multiplicative_order(2, p)
    return order // 2 if order % 2 == 0 else None


def least_excluded_prime(m: int) -> Optional[tuple[int, int]]:
    """(p, n) for the least odd prime p | m with p | 2^n + 1 for some n, n
    the least such (`exists_n_dividing`); None when m has no such prime."""
    hits = ((p, exists_n_dividing(p)) for p, _ in factorize(m) if p % 2)
    return next(((p, n) for p, n in hits if n is not None), None)


def crt(residues: list[int], moduli: list[int]) -> int:
    """Solve x = r_i mod m_i for pairwise coprime moduli."""
    x, m = 0, 1
    for r, mi in zip(residues, moduli):
        t = ((r - x) * pow(m, -1, mi)) % mi
        x += m * t
        m *= mi
    return x % m
