"""Exact dense linear algebra over F_p (numpy-backed) and over Q.

All degreewise dimension counts, kernels and minimal-generator counts reduce
to ranks/kernels of integer matrices mod p.  Arithmetic stays in int64:
`FieldSpec` admits only p < 2^31, so a product of two residues is below 2^62
and a difference of two such values still fits.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

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
        m[r] = (m[r] * inv) % p
        col = m[:, c].copy()
        col[r] = 0
        mask = col != 0
        if mask.any():
            m[mask] = (m[mask] - np.outer(col[mask], m[r])) % p
        pivots.append(c)
        r += 1
    return m, pivots


def rank_mod_p(a: np.ndarray, p: int) -> int:
    if a.size == 0:
        return 0
    m = np.array(a, dtype=np.int64) % p
    rows, cols = m.shape
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
        below = m[r + 1:, c]
        mask = below != 0
        if mask.any():
            factors = (below[mask] * inv) % p
            m[r + 1:][mask] = (m[r + 1:][mask] - factors[:, None] * m[r][None, :]) % p
        r += 1
    return r


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


def rank_frac(rows: Sequence[Sequence[Fraction]]) -> int:
    m = [list(map(Fraction, row)) for row in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for c in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if m[r][c] != 0:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(nrows):
            if r != rank and m[r][c] != 0:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def nullspace_frac(rows: Sequence[Sequence[Fraction]], ncols: int) -> List[List[Fraction]]:
    m = [list(map(Fraction, row)) for row in rows]
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        if r >= len(m):
            break
        piv = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for rr, pc in enumerate(pivots):
            vec[pc] = -m[rr][fc]
        basis.append(vec)
    return basis
