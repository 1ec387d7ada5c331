"""Test oracles: slow, independent routes that the library is checked against.

`minors_fill_top_degree` is the lattice fill of `modgb` with every
rank-level minor enumerated, which the seeded combinations must never beat:
a block they fill, the minors fill.  `hilbert_numerator` is the Hilbert
numerator of a monomial ideal by the same pivot recursion as `modgb`'s,
with a pairwise test for disjoint supports and a plain minimalization.
`q_oracle` bounds q# from below by sampling dissociated submodules.

The references the tests compare the library against, and that no command
runs, live here too, as functions of the object they read:

- `restrict_to_plane`: the symbolic restriction to the plane of
  `grmatrix.random_plane`, where the plane certificate works on values.
- `module_dimension_oracle`: dim of a degree piece of a column module by
  dense linear algebra, independent of the Groebner path.
- `reducers`, `normal_form`, `contains_column` and `hilbert_function` of a
  `modgb.SubmodulePresentation`: membership and the Hilbert function,
  read off its basis.
- `quotient_hilbert_by_basis`: (P_N, P_Q) with P_U read off a full
  Groebner basis of the composite s_t * v, the route that the rank
  certificate replaced in `families.quotient_hilbert_data`.
- `augment_with_free_summand`: a presentation with a free rank-one
  summand added.
- `evaluate`: the value of a `MultiPoly` at a point, term by term.
- `from_degrees` and `add` of `CharFunction`s, and `column` of a
  `GradedMatrix`.
- `alpha` and `beta`: the invariants of one degree, each from its own
  truncation, which the profile rows are compared against.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Iterable, List, Sequence

import numpy as np

from biliaison import _linalg, families, modgb
from biliaison.grmatrix import (
    BudgetExhaustedError,
    CharFunction,
    GradedMatrix,
    identity_matrix,
    random_plane,
    rank_fraction_field,
    stack_blocks,
)
from biliaison.polyring import NVARS, PARAM_INDEX, MultiPoly, Scalar
from biliaison.qprofile import DEFAULT_SEED, coprime_minor_analysis, subseed


class BudgetExceededError(RuntimeError):
    """An instance is too large for the requested (oracle) computation."""


def minors_fill_top_degree(sub: GradedMatrix, r: int) -> bool:
    """Do the r-minors of ``sub`` span every form of their top degree D?

    Every minor of degree e >= 0 is evaluated on the lattice
    {(1, a, b, c, 0) : a + b + c <= D} by batched determinants of the
    block's values, in chunks of at most `modgb._MAX_CELLS` cells; its
    values times those of the monomials of degree D - e span the values of
    I_D, and the chunks stop once their rank is binom3(D).  D >= p, or a
    lattice too large for the span, gives False.
    """
    p = sub.field.characteristic
    top = sum(sorted(sub.col_degrees)[-r:]) - sum(sorted(sub.row_degrees)[:r])
    size = modgb.binom3(top)
    if top >= p or size * size > modgb._MAX_CELLS:
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
    step = max(1, modgb._MAX_CELLS // (size * widest))
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
            v = families.random_matrix(s.field, s.col_degrees, shape.degrees(), rng)
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


# ---------------------------------------------------------------------------
# references moved out of the library: no command runs them


def restrict_to_plane(m: GradedMatrix, seed: int) -> GradedMatrix:
    """Substitute the plane of `random_plane` into every entry.

    The plane certificate works on values instead; this symbolic restriction
    is the reference its tests compare against.
    """
    pairs, a = random_plane(m.field.characteristic, seed)
    x, y = MultiPoly.variable(m.field, "X"), MultiPoly.variable(m.field, "Y")
    images = {i: x.scale(c) + y.scale(d) for i, (c, d) in enumerate(pairs)}
    images[PARAM_INDEX] = MultiPoly.const(m.field, a)
    grid = [[p.substitute(images) for p in row] for row in m.entries]
    return GradedMatrix(m.field, m.row_degrees, m.col_degrees, grid, validate=False)


def module_dimension_oracle(gens: GradedMatrix, n: int) -> int:
    """dim of the degree-n piece of the column module via dense linear algebra.

    Independent of the Groebner path; used as a test oracle.
    """
    mat, _ = modgb._span_matrix_mod_p(gens, n)
    return _linalg.rank_mod_p(mat, gens.field.characteristic)


def reducers(pres: modgb.SubmodulePresentation) -> modgb._Reducers:
    """The reducer tables of the basis of ``pres``."""
    out = modgb._Reducers(modgb._DegreePieces(pres.ambient_degrees), pres.field.characteristic)
    out.basis.extend(pres.gb)
    return out


def _check_degree(pres: modgb.SubmodulePresentation, n: int) -> None:
    if pres.truncated_at is not None and n > pres.truncated_at:
        raise BudgetExhaustedError(
            f"degree {n} exceeds the certified Groebner degree {pres.truncated_at}"
        )


def normal_form(pres: modgb.SubmodulePresentation, vec: modgb._Vec) -> modgb._Vec:
    table = reducers(pres)
    keys = table.pieces(vec.degree)
    work = modgb._normal_form(modgb._dense(vec, keys)[None], table, vec.degree)
    return modgb._row_vec(work[0], keys, vec.degree)


def contains_column(
    pres: modgb.SubmodulePresentation, column: Sequence[MultiPoly], degree: int
) -> bool:
    v = modgb._column_vecs(GradedMatrix(
        pres.field, pres.ambient_degrees, [degree], [[q] for q in column], validate=False))[0]
    if v.is_zero():
        return True
    if pres.truncated_at is not None and degree > pres.truncated_at:
        raise BudgetExhaustedError("membership beyond certified degree")
    return normal_form(pres, v).is_zero()


def hilbert_function(pres: modgb.SubmodulePresentation, n: int) -> int:
    """dim_k of the degree-n piece of the submodule."""
    _check_degree(pres, n)
    return sum(c * modgb.binom3(n - s) for s, c in pres._shift_counts().items())


def quotient_hilbert_by_basis(s: GradedMatrix, v: GradedMatrix) -> tuple:
    """(P_N, P_N - P_U), each read off a full Groebner basis: of s_t, and of
    the composite w = s_t * v, whose column module is U."""
    p_n = modgb.groebner_basis(s.specialize_closed_point()).hilbert_polynomial()
    return p_n, p_n - modgb.groebner_basis(families._composite(s, v)).hilbert_polynomial()


def augment_with_free_summand(s: GradedMatrix, degree: int) -> GradedMatrix:
    """Extend the presentation by a free rank-one summand in the given degree."""
    one_block = identity_matrix(s.field, [degree])
    return stack_blocks([[s, None], [None, one_block]])


def evaluate(poly: MultiPoly, point: Sequence[Scalar]) -> Scalar:
    p = poly.field.characteristic
    total = 0
    for e, c in poly.terms.items():
        v = c
        for i in range(NVARS):
            if e[i]:
                v = (v * pow(point[i], e[i], p)) % p
        total = (total + v) % p
    return total


def from_degrees(degrees: Iterable[int]) -> CharFunction:
    out: Dict[int, int] = {}
    for d in degrees:
        out[d] = out.get(d, 0) + 1
    return CharFunction(out)


def add(f: CharFunction, other: CharFunction) -> CharFunction:
    out = dict(f.support)
    for d, m in other.support.items():
        out[d] = out.get(d, 0) + m
    return CharFunction(out)


def column(m: GradedMatrix, j: int) -> List[MultiPoly]:
    return [row[j] for row in m.entries]


def alpha(s: GradedMatrix, n: int) -> int:
    """Rank of the closed-point truncation s_{n,t} over the fraction field."""
    return rank_fraction_field(s.truncate_columns(n).specialize_closed_point())


def beta(s: GradedMatrix, n: int, seed: int = DEFAULT_SEED) -> int:
    """Largest k such that the k-minors of s_{n,t} have no common factor."""
    w = s.truncate_columns(n).specialize_closed_point()
    return coprime_minor_analysis(w, seed=seed).min_rank
