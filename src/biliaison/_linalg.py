"""Exact dense linear algebra over F_p, numpy-backed.

All degreewise dimension counts, kernels and minimal-generator counts reduce
to ranks/kernels of integer matrices mod p.  Arithmetic stays in int64:
`FieldSpec` admits only p < 2^31, so a product of two residues is below 2^62
and a difference of two such values still fits.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np


def rref_mod_p(a: np.ndarray, p: int) -> Tuple[np.ndarray, List[int]]:
    """Reduced row echelon form mod p; returns (rref, pivot column list)."""
    m = np.array(a, dtype=np.int64) % p
    rows, cols = m.shape
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        inv = pow(int(m[r, c]), p - 2, p)
        m[r, c:] = (m[r, c:] * inv) % p  # row r is zero left of c
        col = m[:, c].copy()
        col[r] = 0
        mask = col != 0
        if mask.any():
            m[mask, c:] = (m[mask, c:] - np.outer(col[mask], m[r, c:])) % p
        pivots.append(c)
        r += 1
    return m, pivots


def pivots_mod_p(a: np.ndarray, p: int) -> List[int]:
    """Pivot columns of the row echelon form mod p, by forward elimination:
    the columns that raise the rank of the columns before them."""
    m = np.array(a, dtype=np.int64) % p
    if m.size == 0:
        return []
    rows, cols = m.shape
    pivots: List[int] = []
    for c in range(cols):
        r = len(pivots)
        if r >= rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        inv = pow(int(m[r, c]), p - 2, p)
        below = m[r + 1:, c:]  # zero left of c, as is row r
        mask = below[:, 0] != 0
        if mask.any():
            factors = (below[mask, 0] * inv) % p
            below[mask] = (below[mask] - factors[:, None] * m[r, c:]) % p
        pivots.append(c)
    return pivots


def rank_mod_p(a: np.ndarray, p: int) -> int:
    return len(pivots_mod_p(a, p))


def det_mod_p(a: np.ndarray, p: int) -> np.ndarray:
    """Determinants mod p of a stack of square matrices, shape (B, n, n).

    Fraction-free elimination of all B matrices at once, each with its own
    pivot rows: at step c every row below the pivot row becomes
    pivot * row - row[c] * pivot_row, which scales the determinant by pivot
    once per row.  The signed product of the pivots is then the determinant
    times prod_c pivot_c^(n-1-c), which one inverse per matrix divides out.
    """
    m = np.array(a, dtype=np.int64) % p
    batch, n = m.shape[0], m.shape[1]
    at = np.arange(batch)
    num = np.ones(batch, dtype=np.int64)  # signed product of the pivots
    den = np.ones(batch, dtype=np.int64)  # prod_c pivot_c^(n-1-c) ...
    running = np.ones(batch, dtype=np.int64)  # ... as a product of prefix products
    for c in range(n):
        r = c + (m[:, c:, c] != 0).argmax(axis=1)  # first nonzero, else c
        swap = r != c
        if swap.any():
            rows = m[at, c].copy()
            m[at, c] = m[at, r]
            m[at, r] = rows
            num[swap] = (p - num[swap]) % p
        piv = m[:, c, c]
        num = num * piv % p
        if c + 1 == n:
            break
        running = running * piv % p
        den = den * running % p
        m[:, c + 1:, c:] = (
            piv[:, None, None] * m[:, c + 1:, c:] - m[:, c + 1:, c, None] * m[:, c, None, c:]
        ) % p
    inv = np.array([pow(int(d), -1, p) if d else 0 for d in den], dtype=np.int64)
    return num * inv % p


def nullspace_mod_p(a: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right kernel as rows of the returned matrix (RREF-canonical)."""
    if a.size == 0:
        cols = a.shape[1] if a.ndim == 2 else 0
        return np.eye(cols, dtype=np.int64)
    m, pivots = rref_mod_p(a, p)
    rows, cols = m.shape
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for r, pc in enumerate(pivots):
            basis[k, pc] = (-int(m[r, fc])) % p
    return basis
