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
