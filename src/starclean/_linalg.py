"""Exact linear algebra over the coefficient rings: unit tests and solves.

A finite coefficient ring is a free module over its prime rings, Z/p^e for
each prime power p^e of Z/n and GF(p) for GF(p^k).  So an int64 code matrix
over a finite ring becomes one matrix per prime ring, and a single modular
elimination decides invertibility and solves: over Z/p^e a column with no
unit entry forces the determinant into p, otherwise a unit pivot always
exists.  Over GF(p^k) each entry expands into the k x k GF(p)-matrix of
multiplication by it.  The infinite fields Q and Q(zeta_d) take a
Gauss-Jordan elimination on lists of payloads.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import numtheory
from .coeff import CoefficientRing, FiniteField, ModRing


def _elim_mod(
    M: np.ndarray, p: int, q: int, rhs: Optional[np.ndarray] = None
) -> Optional[np.ndarray]:
    """Elimination mod the prime power q = p^e; None when det(M) is not a unit.

    With rhs it runs Gauss-Jordan and returns the solution of M x = rhs mod q;
    without rhs it runs forward only and returns an empty solution.
    """
    n = M.shape[0]
    A = M % q if rhs is None else np.concatenate([M, rhs[:, None]], axis=1) % q
    for c in range(n):
        pivots = np.nonzero(A[c:, c] % p)[0]
        if pivots.size == 0:
            return None
        r = c + int(pivots[0])
        if r != c:
            A[[c, r]] = A[[r, c]]
        A[c] = A[c] * pow(int(A[c, c]), -1, q) % q
        if rhs is None:
            if c + 1 < n:
                A[c + 1 :] = (A[c + 1 :] - A[c + 1 :, c, None] * A[c]) % q
        else:
            factors = A[:, c].copy()
            factors[c] = 0
            A = (A - factors[:, None] * A[c]) % q
    return A[:, n:] if rhs is None else A[:, n]


def _elim_codes(
    ring: CoefficientRing, M: np.ndarray, rhs: Optional[np.ndarray] = None
) -> Optional[np.ndarray]:
    """`_elim_mod` on a finite ring's code matrix, piece by prime ring.

    None when M is not invertible; otherwise the solution codes of M x = rhs,
    empty without rhs.  Z/n combines its prime-power pieces by CRT, GF(p^k)
    folds the GF(p) digits of the solution back into codes.
    """
    if isinstance(ring, ModRing):
        parts = []
        for p, e in ring.factorization:
            part = _elim_mod(M, p, p**e, rhs)
            if part is None:
                return None
            parts.append(part)
        if rhs is None:
            return part
        moduli = [p**e for p, e in ring.factorization]
        return np.array(
            [numtheory.crt([int(s[i]) for s in parts], moduli) for i in range(M.shape[0])],
            dtype=np.int64,
        )
    if not isinstance(ring, FiniteField):
        raise TypeError(f"{ring!r} has no code matrices")
    p, k = ring.p, ring.k
    if k == 1:
        return _elim_mod(M, p, p, rhs)
    # column l of block (i, j) holds the digits of M[i, j] * w^l
    n = M.shape[0]
    pows = p ** np.arange(k)
    digits = ring.vec.mul(M[:, :, None], pows)[..., None] // pows % p
    E = digits.transpose(0, 3, 1, 2).reshape(n * k, n * k)
    b = None if rhs is None else (rhs[:, None] // pows % p).reshape(n * k)
    sol = _elim_mod(E, p, p, b)
    if sol is None or rhs is None:
        return sol
    return np.array([ring.undigits(d) for d in sol.reshape(n, k)], dtype=np.int64)


def _field_elim(ring: CoefficientRing, rows: list[list], rhs: list | None = None):
    """Gauss-Jordan elimination over a field on payload rows.

    Returns None when the matrix is singular; otherwise the solution of
    M x = rhs, or the empty list when rhs is None.
    """
    n = len(rows)
    A = [row[:] for row in rows]
    b = rhs[:] if rhs is not None else None
    for c in range(n):
        piv = next((r for r in range(c, n) if not ring.is_zero(A[r][c])), None)
        if piv is None:
            return None
        if piv != c:
            A[c], A[piv] = A[piv], A[c]
            if b is not None:
                b[c], b[piv] = b[piv], b[c]
        pv_inv = ring.inv(A[c][c])
        A[c] = [ring.mul(pv_inv, v) for v in A[c]]
        if b is not None:
            b[c] = ring.mul(pv_inv, b[c])
        for r in range(n):
            if r == c or ring.is_zero(A[r][c]):
                continue
            f = A[r][c]
            A[r] = [ring.sub(v, ring.mul(f, w)) for v, w in zip(A[r], A[c])]
            if b is not None:
                b[r] = ring.sub(b[r], ring.mul(f, b[c]))
    return [] if b is None else b


# --------------------------------------------------------------------------
# public interface
# --------------------------------------------------------------------------

def is_invertible(ring: CoefficientRing, rows: list[list]) -> bool:
    """Invertibility of a payload matrix over Q or Q(zeta_d)."""
    return _field_elim(ring, rows) is not None


def is_invertible_codes(ring: CoefficientRing, M: np.ndarray) -> bool:
    """Invertibility of an int64 code matrix over a finite ring."""
    return _elim_codes(ring, M) is not None


def solve_column(ring: CoefficientRing, rows, rhs: list):
    """Solve M x = rhs exactly; None when M is not invertible.

    Over a finite ring `rows` is an int64 code matrix and the solution is a
    list of codes; over Q and Q(zeta_d) it is a list of payload rows.
    """
    if ring.order is None:
        return _field_elim(ring, rows, list(rhs))
    sol = _elim_codes(ring, rows, np.asarray(rhs, dtype=np.int64))
    return None if sol is None else sol.tolist()
