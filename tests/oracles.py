"""Test oracles: slow, independent routes that the library is checked against.

`minors_fill_top_degree` is the lattice fill of `modgb` with every
rank-level minor enumerated, which the seeded combinations must never beat:
a block they fill, the minors fill.  `hilbert_numerator` is the Hilbert
numerator of a monomial ideal by the same pivot recursion as `modgb`'s,
with a pairwise test for disjoint supports and a plain minimalization.
`q_oracle` bounds q# from below by sampling dissociated submodules.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List, Sequence

import numpy as np

from biliaison import _linalg, families, modgb
from biliaison.grmatrix import CharFunction, GradedMatrix, rank_fraction_field
from biliaison.qprofile import DEFAULT_SEED, coprime_minor_analysis, subseed


class BudgetExceededError(RuntimeError):
    """An instance is too large for the requested (oracle) computation."""


def minors_fill_top_degree(sub: GradedMatrix, r: int) -> bool:
    """Do the r-minors of ``sub`` span every form of their top degree D?

    Every minor of degree e >= 0 is evaluated on the lattice
    {(1, a, b, c, 0) : a + b + c <= D} by batched determinants of the
    block's values, in chunks of at most `modgb._MAX_PIECE` cells; its
    values times those of the monomials of degree D - e span the values of
    I_D, and the chunks stop once their rank is binom3(D).  D >= p, or a
    lattice too large for the span, gives False.
    """
    p = sub.field.characteristic
    top = sum(sorted(sub.col_degrees)[-r:]) - sum(sorted(sub.row_degrees)[:r])
    size = modgb.binom3(top)
    if top >= p or size * size > modgb._MAX_PIECE:
        return False
    lattice = np.array(modgb.monomials_of_degree(top), dtype=np.int64)[:, 1:]
    points = np.zeros((size, 5), dtype=np.int64)
    points[:, 0], points[:, 1:4] = 1, lattice
    values = sub.evaluate_many(points)
    powers = np.ones((top + 1, 3, size), dtype=np.int64)  # powers[k] = (a, b, c)^k
    for k in range(1, top + 1):
        powers[k] = powers[k - 1] * lattice.T % p
    row_sets = np.array(list(itertools.combinations(range(sub.nrows), r)))
    col_sets = np.array(list(itertools.combinations(range(sub.ncols), r)))
    degrees = (np.array(sub.col_degrees)[col_sets].sum(axis=1)
               - np.array(sub.row_degrees)[row_sets].sum(axis=1)[:, None])
    ri, ci = (degrees >= 0).nonzero()
    degrees = degrees[ri, ci]
    multiples = {}  # e -> values of the monomials of degree D - e, one row each
    for e in sorted(set(degrees.tolist())):
        x = np.array(modgb.monomials_of_degree(top - e), dtype=np.int64)
        multiples[e] = powers[x[:, 1], 0] * powers[x[:, 2], 1] % p * powers[x[:, 3], 2] % p
    widest = max(r * r, max(len(v) for v in multiples.values()))
    step = max(1, modgb._MAX_PIECE // (size * widest))
    span = np.zeros((0, size), dtype=np.int64)
    for start in range(0, len(degrees), step):
        at = slice(start, start + step)
        stack = values[:, row_sets[ri[at], :, None], col_sets[ci[at], None, :]]
        dets = _linalg.det_mod_p(stack.swapaxes(0, 1).reshape(-1, r, r), p).reshape(-1, size)
        chunk = degrees[at]
        parts = [span] + [(dets[chunk == e, None] * v).reshape(-1, size) % p
                          for e, v in multiples.items()]
        span, pivots = _linalg.rref_mod_p(np.concatenate(parts), p)
        if len(pivots) == size:
            return True
        span = span[:len(pivots)]
    return False


def minimalize_monomials(gens: List[modgb.Expo4]) -> List[modgb.Expo4]:
    gens = sorted(set(gens), key=lambda e: (sum(e), e))
    out: List[modgb.Expo4] = []
    for e in gens:
        if not any(all(f[i] <= e[i] for i in range(4)) for f in out):
            out.append(e)
    return out


def hilbert_numerator(gens: List[modgb.Expo4]) -> List[int]:
    """Numerator of the Hilbert series of R/I over (1-t)^4, I monomial."""
    gens = minimalize_monomials(gens)
    if not gens:
        return [1]
    if gens[0] == (0, 0, 0, 0):
        return []
    # pairwise support-disjoint generators: product formula
    if all(
        not any(gens[i][v] and gens[j][v] for v in range(4))
        for i in range(len(gens)) for j in range(i + 1, len(gens))
    ):
        num = [1]
        for e in gens:
            num = modgb._poly_mul(num, [1] + [0] * (sum(e) - 1) + [-1])
        return num
    # pivot on the most shared variable
    counts = [sum(1 for e in gens if e[v]) for v in range(4)]
    var = counts.index(max(counts))
    plus = [e for e in gens if e[var] == 0] + [tuple(1 if i == var else 0 for i in range(4))]
    colon = [tuple(max(e[i] - (1 if i == var else 0), 0) for i in range(4)) for e in gens]
    return modgb._poly_shift_add(hilbert_numerator(plus), hilbert_numerator(colon), 1)


def _candidate_shapes(mass: int, degrees: Sequence[int], cap: int = 80) -> List[CharFunction]:
    """Compositions of mass over the given degrees, top-heavy first."""
    out = []
    k = len(degrees)
    for split in itertools.combinations_with_replacement(range(k), mass):
        shape: Dict[int, int] = {}
        for i in split:
            shape[degrees[i]] = shape.get(degrees[i], 0) + 1
        out.append(CharFunction(shape))
    uniq = []
    seen = set()
    for c in out:
        key = tuple(sorted(c.support.items()))
        if key not in seen:
            seen.add(key)
            uniq.append(c)
    uniq.sort(key=lambda c: -c.weighted_sum())
    return uniq[:cap]


def q_oracle(
    s: GradedMatrix,
    n: int,
    trials: int = 50,
    seed: int = DEFAULT_SEED,
) -> int:
    """Certified lower bound for q#(n) by sampling dissociated submodules.

    For each candidate mass (descending) and each candidate degree shape, draw
    random lifts through the presentation and certify injectivity plus a
    torsion-free quotient through the degeneracy criterion.  The returned
    value carries an explicit certificate; `trials` caps the sampled lifts
    per mass level.
    """
    if s.nrows * s.ncols > 96:
        raise BudgetExceededError("oracle reserved for small instances")
    p = s.field.characteristic
    s_t = s.specialize_closed_point()
    r = rank_fraction_field(s_t)
    w_n = s_t.truncate_columns(n)
    m_hi = rank_fraction_field(w_n)
    if m_hi == 0:
        return 0
    degrees = sorted(set(d for d in s.col_degrees if d <= n))
    for mass in range(m_hi, 0, -1):
        shapes = _candidate_shapes(mass, degrees)
        if not shapes:
            continue
        for attempt in range(trials):
            shape = shapes[attempt % len(shapes)]
            rng = random.Random(subseed(seed, "oracle", n, mass, attempt))
            v = families.random_lift(s, shape.degrees(), rng)
            w = families._composite(s, v)
            # cheap numeric pre-filter; discards only, never accepts
            point = tuple(rng.randrange(1, p) for _ in range(5))
            if _linalg.rank_mod_p(w.evaluate(point), p) < mass:
                continue
            if rank_fraction_field(w) != mass:
                continue
            if mass < r:
                analysis = coprime_minor_analysis(
                    w, seed=subseed(seed, "oracle-analysis", n, mass, attempt)
                )
                if analysis.coprime:
                    return mass
            else:
                # full-rank subsheaf: the quotient is torsion-free only if it
                # vanishes, certified by constant rank of w; a block with too
                # many minors to enumerate leaves the lift uncertified
                try:
                    if modgb.has_constant_rank(w):
                        return mass
                except modgb.BudgetExhaustedError:
                    pass
    return 0
