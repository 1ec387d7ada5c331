"""Exact dense linear algebra over F_p, numpy-backed.

All degreewise dimension counts, kernels and minimal-generator counts reduce
to ranks/kernels of integer matrices mod p.  Arithmetic stays in int64:
`FieldSpec` admits only p < 2^31, so a product of two residues is below 2^62
and a difference of two such values still fits.  The seeded residues of
the certificates' random combinations are drawn here too.
"""

from __future__ import annotations

import random
from typing import List, Tuple

import numpy as np


def reduction_delay(p: int) -> int:
    """K = (2^63 - 1 - p) // (p - 1)^2: how many products of two residues a
    value in [0, p) can take, added or subtracted, before it must be reduced
    mod p to stay in int64.  K = 2 at p = 2^31 - 1, the largest prime
    `FieldSpec` admits, and more at every smaller p."""
    return (2 ** 63 - 1 - p) // (p - 1) ** 2


def _eliminate(a: np.ndarray, p: int, reduced: bool) -> Tuple[np.ndarray, List[int]]:
    """Gaussian elimination mod p; returns (echelon form, pivot columns).

    With ``reduced`` every pivot row is made monic and cleared above its
    pivot too (the reduced row echelon form); without it, only below.  Each
    pivot row is reduced mod p when it is chosen and each pivot column is
    read mod p, but the updates are not: an update lowers an entry by at most
    (p - 1)^2, so the block is reduced after every K = `reduction_delay(p)`
    updates and once at the end.  Only the columns from the pivot on are
    updated: the pivot row is zero left of it.  A column with no nonzero
    entry at or below the current row is passed over; from the second such
    column in a row on, one scan of the rows left jumps to the next live
    column, or ends the elimination when none is left.  (A column dead there
    stays dead: later updates only subtract pivot rows, which are zero in
    it.)
    """
    m = np.array(a, dtype=np.int64) % p
    if m.size == 0:
        return m, []
    rows, cols = m.shape
    delay = reduction_delay(p)
    steps = 0
    pivots: List[int] = []
    c, idle = 0, False
    while c < cols and len(pivots) < rows:
        r = len(pivots)
        column = m[:, c] % p
        nz = np.nonzero(column[r:])[0]
        if nz.size == 0:
            if idle:  # a second dead column in a row: jump to the next live one
                live = (m[r:, c + 1:] % p).any(axis=0).nonzero()[0]
                if not live.size:
                    break
                c += int(live[0])
            c, idle = c + 1, True
            continue
        idle = False
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
            column[[r, i]] = column[[i, r]]
        inv = pow(int(column[r]), p - 2, p)
        m[r, c:] %= p
        if reduced:  # a monic pivot row; the factors are the column itself
            m[r, c:] = m[r, c:] * inv % p
            column[r] = 0
        else:
            column[:r + 1] = 0
            column = column * inv % p
        targets = column.nonzero()[0]
        if targets.size:
            if steps == delay:
                m %= p
                steps = 0
            m[targets, c:] -= column[targets, None] * m[r, c:]
            steps += 1
        pivots.append(c)
        c += 1
    m %= p
    return m, pivots


def rref_mod_p(a: np.ndarray, p: int) -> Tuple[np.ndarray, List[int]]:
    """Reduced row echelon form mod p; returns (rref, pivot column list)."""
    return _eliminate(a, p, reduced=True)


def pivots_mod_p(a: np.ndarray, p: int) -> List[int]:
    """Pivot columns of the row echelon form mod p, by forward elimination:
    the columns that raise the rank of the columns before them."""
    return _eliminate(a, p, reduced=False)[1]


def rank_mod_p(a: np.ndarray, p: int) -> int:
    return len(pivots_mod_p(a, p))


def matmul_mod_p(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for residues in int64, stacks broadcast as by `@`.  The
    inner sums are reduced after every K = `reduction_delay(p)` products, so
    no partial sum leaves int64 at any p that `FieldSpec` admits."""
    delay = reduction_delay(p)
    out = a[..., :delay] @ b[..., :delay, :] % p
    for s in range(delay, a.shape[-1], delay):
        out = (out + a[..., s:s + delay] @ b[..., s:s + delay, :]) % p
    return out


def random_residues(rng: random.Random, p: int, count: int) -> np.ndarray:
    """``count`` residues mod p from one draw of 32-bit words of ``rng`` (a
    residue bias matters only to the odds of a certificate, not to its
    truth)."""
    words = rng.getrandbits(32 * count).to_bytes(4 * count, "little")
    return np.frombuffer(words, dtype="<u4").astype(np.int64) % p


def det_mod_p(a: np.ndarray, p: int) -> np.ndarray:
    """Determinants mod p of a stack of square matrices, shape (B, n, n).

    Fraction-free elimination of all B matrices at once, each with its own
    pivot rows: at step c every row below the pivot row becomes
    pivot * row - row[c] * pivot_row, which scales the determinant by pivot
    once per row.  The signed product of the pivots is then the determinant
    times prod_c pivot_c^(n-1-c), which one inverse per matrix divides out.
    A 3 x 3 stack takes the cofactor expansion, in fewer array operations.
    """
    m = np.array(a, dtype=np.int64) % p
    batch, n = m.shape[0], m.shape[1]
    if n == 3:  # each product is reduced, so no sum leaves int64
        (x0, x1, x2), (y0, y1, y2), (z0, z1, z2) = m.transpose(1, 2, 0)
        return (x0 * ((y1 * z2 - y2 * z1) % p) % p + x1 * ((y2 * z0 - y0 * z2) % p) % p
                + x2 * ((y0 * z1 - y1 * z0) % p) % p) % p
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
    return num * _inverses_mod_p(den, p) % p


def _inverses_mod_p(x: np.ndarray, p: int) -> np.ndarray:
    """x^(p - 2) mod p entrywise: the inverses, and 0 for 0.  A short array
    takes Python's pow per entry; a long one square-and-multiply on the
    whole array, whose 2 log2(p) array operations cost less from about 64
    entries on."""
    if len(x) < 64:
        return np.array([pow(int(d), p - 2, p) for d in x], dtype=np.int64)
    out = np.ones_like(x)
    base = x % p
    e = p - 2
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return out


def nullspace_mod_p(a: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right kernel as rows of the returned matrix (RREF-canonical)."""
    if a.size == 0:
        cols = a.shape[1] if a.ndim == 2 else 0
        return np.eye(cols, dtype=np.int64)
    m, pivots = rref_mod_p(a, p)
    free = np.delete(np.arange(m.shape[1]), pivots)
    basis = np.zeros((len(free), m.shape[1]), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = -m[:len(pivots)][:, free].T % p
    return basis
