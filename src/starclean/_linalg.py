"""Exact linear algebra over the coefficient rings: unit tests and solves.

A finite coefficient ring is a free module over its prime rings, Z/p^e for
each prime power p^e of Z/n and GF(p) for GF(p^k).  So a stack of int64 code
matrices over a finite ring becomes one stack per prime ring, and a single
batched modular elimination decides invertibility and solves for every
matrix of the stack at once.  Over Z/p^e a column with no unit entry forces
the determinant into p, otherwise a unit pivot always exists; so a unit test
over Z/n runs mod each prime p | n, and only a solve runs mod p^e.  Over
GF(p^k) each entry expands into the k x k GF(p)-matrix of multiplication by
it, across the whole stack.  The infinite fields Q and Q(zeta_d) take a
Gauss-Jordan elimination on lists of payloads.
"""

from __future__ import annotations

from math import gcd
from typing import Optional

import numpy as np

from . import numtheory
from .coeff import CoefficientRing, FiniteField, ModRing

def _inverse_mod(x: np.ndarray, q: int) -> np.ndarray:
    """Inverses mod q of an array (0 for a non-unit): one pow per distinct
    value."""
    values, at = np.unique(x, return_inverse=True)
    return np.array([pow(v, -1, q) if gcd(v, q) == 1 else 0 for v in values.tolist()], dtype=np.int64)[at]


def _eliminate(
    A: np.ndarray, p: int, q: int, rhs: Optional[np.ndarray] = None
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Batched elimination mod q = p^e on a stack A of shape (N, m, m).

    Returns the mask of invertible matrices and, with rhs of shape (N, m),
    the solutions of A x = rhs mod q (meaningless where A is singular).
    Each step takes a unit pivot in the leading column, moves the leading
    row into the pivot's place and keeps only the Schur complement, so the
    working stack shrinks by a row and a column per step; a matrix whose
    leading column has no unit is singular and goes on with a zero pivot.
    """
    N, m = A.shape[0], A.shape[1]
    S = A % q if rhs is None else np.concatenate([A, rhs[:, :, None]], axis=2) % q
    at = np.arange(N)
    pivots = np.empty((N, m), dtype=np.int64)
    pivot_rows = []  # normalised pivot rows (columns c+1.. and rhs), for back substitution
    for c in range(m):
        r = (S[:, :, 0] if q == p else S[:, :, 0] % p).argmax(axis=1)
        row = S[at, r]  # a row with a unit lead, else row 0
        pivots[:, c] = row[:, 0]
        row = row * _inverse_mod(row[:, 0], q)[:, None] % q
        S[at, r] = S[:, 0]
        rest = S[:, 1:]
        S = (rest[:, :, 1:] - rest[:, :, :1] * row[:, None, 1:]) % q
        if rhs is not None:
            pivot_rows.append(row[:, 1:])
    ok = (pivots % p != 0).all(axis=1)
    if rhs is None:
        return ok, None
    x = np.zeros((N, m), dtype=np.int64)
    for c in range(m - 1, -1, -1):
        row = pivot_rows[c]
        x[:, c] = (row[:, -1] - (row[:, :-1] * x[:, c + 1 :] % q).sum(axis=1)) % q
    return ok, x


def _expand(ring: FiniteField, M: np.ndarray) -> np.ndarray:
    """The GF(p)-matrices of a GF(p^k) code stack (N, n, n): (N, nk, nk).

    Column l of block (i, j) holds the digits of M[i, j] * w^l.
    """
    N, n = M.shape[0], M.shape[1]
    p, k = ring.p, ring.k
    pows = p ** np.arange(k)
    digits = ring.vec.mul(M[..., None], pows)[..., None] // pows % p
    return digits.transpose(0, 1, 4, 2, 3).reshape(N, n * k, n * k)


def _elim_codes(ring: CoefficientRing, M: np.ndarray, rhs: Optional[np.ndarray] = None):
    """`_eliminate` on a finite ring's code stack, piece by prime ring.

    Returns the invertibility mask and, with rhs, the solution codes.  Z/n
    tests invertibility mod each prime p | n and solves mod each p^e,
    combining the pieces by CRT; GF(p^k) expands over GF(p) and folds the
    digits of the solution back into codes.
    """
    if isinstance(ring, ModRing):
        ok = np.ones(M.shape[0], dtype=bool)
        parts = []
        for p, e in ring.factorization:
            mask, sol = _eliminate(M, p, p if rhs is None else p**e, rhs)
            ok &= mask
            parts.append(sol)
        if rhs is None:
            return ok, None
        moduli = [p**e for p, e in ring.factorization]
        residues = zip(*(s.ravel().tolist() for s in parts))
        sol = np.array([numtheory.crt(list(r), moduli) for r in residues], dtype=np.int64)
        return ok, sol.reshape(M.shape[:2])
    if not isinstance(ring, FiniteField):
        raise TypeError(f"{ring!r} has no code matrices")
    p, k = ring.p, ring.k
    if k == 1:
        return _eliminate(M, p, p, rhs)
    N, n = M.shape[0], M.shape[1]
    pows = p ** np.arange(k)
    b = None if rhs is None else (rhs[..., None] // pows % p).reshape(N, n * k)
    ok, sol = _eliminate(_expand(ring, M), p, p, b)
    return ok, None if sol is None else (sol.reshape(N, n, k) * pows).sum(axis=2)


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


def is_invertible_codes(ring: CoefficientRing, M: np.ndarray) -> np.ndarray:
    """Invertibility mask of a stack (N, n, n) of int64 code matrices over a
    finite ring."""
    return _elim_codes(ring, M)[0]


def solve_column(ring: CoefficientRing, rows, rhs: list):
    """Solve M x = rhs exactly; None when M is not invertible.

    Over a finite ring `rows` is an int64 code matrix and the solution is a
    list of codes; over Q and Q(zeta_d) it is a list of payload rows.
    """
    if ring.order is None:
        return _field_elim(ring, rows, list(rhs))
    ok, sol = _elim_codes(ring, np.asarray(rows)[None], np.asarray(rhs, dtype=np.int64)[None])
    return sol[0].tolist() if ok[0] else None
