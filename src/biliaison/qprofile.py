"""Per-degree invariants of a presented sheaf and the q-function.

For a graded matrix s over the valuation ring, write s_n for its restriction
to columns of degree <= n and s_{n,t} for the value at the closed point
(a = 0).  The engine computes, per degree,

  alpha_n = rank of s_{n,t} over the fraction field,
  beta_n  = the largest k such that the k-minors of s_{n,t} are coprime
            (equivalently, the minimum rank of s_{n,t} at codimension-1
            points),
  b0      = the largest n at which alpha_n = beta_n and the column module of
            s_{n,t} is free of rank alpha_n (valid degrees form an interval),

and assembles the cumulative q-function:

  q#(n) = alpha_n               for n <= b0,
  q#(n) = min(alpha_n - 1, beta_n)  for n > b0,

stabilizing at (stable rank) - 1 for non-dissociated presentations.

beta is computed by one minor analysis per block of a block-diagonal matrix,
where k is the rank of the block; the blocks and their ranks are the ones
kept on the matrix (`ranked_blocks`).  No minor is enumerated:

1. Plane certificate.  Restrict the block to a seeded random plane, so every
   entry becomes a binary form in X, Y; the block is only ever evaluated
   there, once per plane, at the images of the points (t : 1) of the line
   Y = 1 for t = 0..N-1, where N - 1 bounds the degree of every entry and
   of every k-minor, at one seeded pivot point (x : 1) per shuffle, and at
   (1 : 0).  One stacked pass over the values of all shuffles at their
   pivot points picks, per shuffle, k pivot rows and columns; their minor
   is nonzero there, hence a nonzero binary form of the known degree D =
   (sum of column degrees) - (sum of row degrees).  Its values at t = 0..D,
   from batched determinants mod p over all witnesses, determine it by
   Newton interpolation, and its value at the pivot point checks it.  Kept
   densely, as Y^m times the coefficients of its value at (t : 1), these
   restricted witness minors feed a running GCD g (Euclid mod p, the least
   power of Y) that stops as soon as it is constant: nonzero restricted
   k-minors with GCD 1 certify that the k-minors are coprime.
2. Restricted rank.  If g stays nonconstant, measure the rank of the
   restricted block modulo g.  Let f = h / gcd(h, h') be the squarefree part
   of h = g(t, 1) (D < p, so this drops exactly the repeated factors), of
   degree e.  The block's coefficients in t come from its values at the
   same nodes; over the ring A = F_p[t]/(f) the block is a map A^cols ->
   A^rows, written over F_p as the (rows e) x (cols e) matrix whose e x e
   blocks are sum_n c_n C^n, with c_n the entry's coefficient of t^n and C
   the companion matrix of f.  A is the product of the fields
   F_p[t]/(f_i) over the irreducible factors f_i of f, so the F_p-rank of
   that matrix is sum_i deg f_i * rank_i, where rank_i <= k is the rank of
   the restricted block modulo f_i; it equals e k exactly when every
   rank_i is k.  If Y divides g, the rank modulo Y is the rank of the
   values at (1 : 0), since each entry there keeps only its X^degree
   term.  Full rank modulo every factor also certifies coprimality.
   Proof: let F be a nonconstant common factor of all k-minors.  The plane
   carries a nonzero witness, so F restricted to the plane is a nonzero
   binary form of positive degree dividing every restricted k-minor, hence
   dividing g.  One of its irreducible components divides f (or is Y), and
   modulo that component every restricted k-minor vanishes, so the
   restricted rank modulo it drops below k.
3. Honest fallback.  Only when the restricted rank drops modulo g is the GCD
   of a few true witness minors taken, by `polyring.gcd` (Brown's dense
   modular GCD, certified by exact division).  Any hypersurface dropping the
   rank below k divides every k-minor, so the squarefree factors of that GCD
   are a complete candidate list; the rank modulo each candidate is then
   measured exactly on the original matrix.

Randomness only chooses which certificate is tried, never the answer.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, field as dc_field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from biliaison import _linalg, modgb
from biliaison.grmatrix import (
    CharFunction,
    GradedMatrix,
    HomogeneityError,
    InterpolationRangeError,
    _newton_coefficients,
    determinant,
    random_plane,
    rank_fraction_field,
    rank_modulo_hypersurface,
    ranked_blocks,
)
from biliaison.polyring import (
    MultiPoly,
    Scalar,
    _poly_divmod,
    _poly_gcd,
    gcd_many,
    squarefree_factors,
)

DEFAULT_SEED = 0xB111A150


class DissociatedSheafError(RuntimeError):
    """The presented sheaf is dissociated; the operation refuses it."""


class WindowExhaustedError(RuntimeError):
    """The degree window ended before the profile stabilized."""


class WindowError(ValueError):
    """A degree window starts above inf L2 - 1 or ends below its start."""


class MassMismatchError(ValueError):
    """A characteristic function has the wrong total mass."""


class ProfileConsistencyError(RuntimeError):
    """Computed invariants violate a structural law; hypotheses likely fail."""


class SingularWitnessError(RuntimeError):
    """A plane witness minor vanishes at the pivot point that chose it."""


class BudgetExceededError(RuntimeError):
    """An instance is too large for the requested (oracle) computation."""


def subseed(seed: int, *labels) -> int:
    """Stable derived seed; identical across platforms and sessions."""
    text = ":".join([str(seed)] + [str(x) for x in labels])
    return int(hashlib.sha256(text.encode()).hexdigest()[:16], 16)


# ---------------------------------------------------------------------------
# profile containers


@dataclass
class DegreeRecord:
    n: int
    alpha: int
    beta: int
    q_sharp: int


@dataclass
class QProfile:
    records: List[DegreeRecord]
    b0: Optional[int]
    b0_is_lower_bound: bool
    stable_rank: int
    dissociated: bool
    stabilized: bool
    inf_l2: Optional[int]
    warnings: List[str] = dc_field(default_factory=list)

    def window(self) -> Tuple[Optional[int], Optional[int]]:
        if not self.records:
            return (None, None)
        return (self.records[0].n, self.records[-1].n)

    def record(self, n: int) -> Optional[DegreeRecord]:
        for r in self.records:
            if r.n == n:
                return r
        return None

    def alpha(self, n: int) -> int:
        lo, hi = self.window()
        if lo is None or n < lo:
            return 0
        if n > hi:
            return self.records[-1].alpha
        return self.record(n).alpha

    def q_sharp(self, n: int) -> int:
        lo, hi = self.window()
        if lo is None or n < lo:
            return 0
        if n > hi:
            return self.records[-1].q_sharp
        return self.record(n).q_sharp

    def q_function(self) -> CharFunction:
        out: Dict[int, int] = {}
        prev = 0
        for r in self.records:
            d = r.q_sharp - prev
            if d:
                out[r.n] = d
            prev = r.q_sharp
        return CharFunction(out)

    def to_json(self) -> dict:
        return {
            "window": list(self.window()),
            "rows": [
                {"n": r.n, "alpha": r.alpha, "beta": r.beta, "q_sharp": r.q_sharp}
                for r in self.records
            ],
            "q": self.q_function().to_json(),
            "b0": self.b0,
            "b0_is_lower_bound": self.b0_is_lower_bound,
            "stable_rank": self.stable_rank,
            "dissociated": self.dissociated,
            "stabilized": self.stabilized,
            "warnings": list(self.warnings),
        }


# ---------------------------------------------------------------------------
# minor-GCD analysis


@dataclass
class MinorAnalysis:
    level: int
    min_rank: int
    common_factor: Optional[MultiPoly]
    factor_ranks: Dict[str, int]
    notes: List[str]

    @property
    def coprime(self) -> bool:
        return self.min_rank >= self.level


_Run = Tuple[List[int], List[int], Tuple[Scalar, ...]]  # row order, column order, point


def _pivot_runs(m: GradedMatrix, seed: int, count: int) -> List[_Run]:
    """The seeded runs of the witness search: (row order, column order, point).

    The first run keeps the order of the rows and columns, later runs
    shuffle them; every run then sorts the columns stably by degree, which
    keeps the minors' degrees low, and draws a point (x, 1, z, w, 0).
    """
    rng = random.Random(seed)
    p = m.field.characteristic
    runs = []
    for t in range(count):
        rp = list(range(m.nrows))
        cp = list(range(m.ncols))
        if t:
            rng.shuffle(rp)
            rng.shuffle(cp)
        cp.sort(key=lambda j: m.col_degrees[j])
        x, z, w = (rng.randrange(1, p) for _ in range(3))
        runs.append((rp, cp, (x, 1, z, w, 0)))
    return runs


def _pivot_sets(
    runs: Sequence[_Run], values: np.ndarray, k: int, p: int
) -> List[Tuple[Tuple[int, ...], Tuple[int, ...], int]]:
    """(rows, cols, run index) of k x k minors nonzero at the run's point.

    values[t] holds the matrix's values at the point of runs[t].  One stacked
    pass (`_linalg.row_pivots_mod_p`) over all runs, each in its own row and
    column order, picks the first k rows that raise the rank of the rows
    before them, and their pivot columns.  A minor nonzero at a point is a
    nonzero polynomial, so every index set is a certified witness.  Runs
    short of rank k and repeated index sets are skipped.
    """
    at = np.arange(len(runs))
    rp, cp = (np.array([run[i] for run in runs], dtype=np.int64) for i in (0, 1))
    found, rows, leads = _linalg.row_pivots_mod_p(
        values[at[:, None, None], rp[:, :, None], cp[:, None, :]], k, p)
    sets = [(tuple(sorted(rp[t, rows[t]].tolist())), tuple(sorted(cp[t, leads[t]].tolist())), t)
            for t in found.nonzero()[0].tolist()]
    return [s for n, s in enumerate(sets) if s[:2] not in [u[:2] for u in sets[:n]]]


def _regular_rank(coeffs: np.ndarray, f: List[int], p: int) -> int:
    """F_p-rank of the matrix over F_p[t]/(f), f monic, whose entries have
    the coefficients coeffs[n] of t^n: entry (i, j) becomes the matrix of
    multiplication by it on 1, t, ..., t^(e-1), column b = entry * t^b mod f.
    """
    e = len(f) - 1
    low = np.array(f[:-1], dtype=np.int64)

    def times_t(r: np.ndarray, c=0) -> np.ndarray:  # t * r + c mod f
        out = np.empty_like(r)
        out[..., 1:] = r[..., :-1]
        out[..., 0] = c
        return (out - r[..., -1:] * low) % p

    r = np.zeros(coeffs.shape[1:] + (e,), dtype=np.int64)
    for c in coeffs[::-1]:
        r = times_t(r, c)
    columns = [r]
    for _ in range(e - 1):
        columns.append(times_t(columns[-1]))
    nrows, ncols = coeffs.shape[1:]
    big = np.stack(columns, axis=-1).transpose(0, 2, 1, 3).reshape(nrows * e, ncols * e)
    return _linalg.rank_mod_p(big, p)


def _plane_values(
    block: GradedMatrix, k: int, seed: int, attempt: int, count: int
) -> Tuple[List[_Run], np.ndarray, int]:
    """(runs, values, top): the attempt's `count` witness-search runs and the
    block's values on its seeded plane at (t : 1) for t = 0..top, at the
    runs' pivot points (x : 1), and at (1 : 0), in this order.  top bounds
    the degree of every entry and k-minor; top >= p raises
    `InterpolationRangeError`.
    """
    p = block.field.characteristic
    rd, cd = block.row_degrees, block.col_degrees
    top = max(sum(sorted(cd)[-k:]) - sum(sorted(rd)[:k]), max(cd) - min(rd))
    if top >= p:
        raise InterpolationRangeError(
            f"a minor of degree {top} needs {top + 1} interpolation points, "
            f"more than F_{p} has"
        )
    pairs, _ = random_plane(p, subseed(seed, "plane", attempt))
    runs = _pivot_runs(block, subseed(seed, "plane-shuffle", attempt), count)
    line = np.array(pairs, dtype=np.int64)  # (t : 1) -> c t + d, (1 : 0) -> c
    ts = np.array(list(range(top + 1)) + [x for _, _, (x, *_) in runs], dtype=np.int64)
    points = np.zeros((len(ts) + 1, 5), dtype=np.int64)
    points[:-1, :4] = (ts[:, None] * line[:, 0] + line[:, 1]) % p
    points[-1, :4] = line[:, 0]
    return runs, block.evaluate_many(points), top


def _plane_witnesses(
    block: GradedMatrix, k: int, runs: Sequence[_Run], values: np.ndarray, top: int
) -> Iterator[Tuple[Tuple[int, ...], Tuple[int, ...], List[int], int]]:
    """Nonzero restricted k-minors in run order: (rows, cols, minor, power of Y).

    The minor of degree D is Y^power times the form whose value at (t : 1)
    has the coefficients `minor`, lowest power first, the last nonzero.  It
    is interpolated from its values at t = 0..D and checked at the run's
    pivot point (else `HomogeneityError`, or `SingularWitnessError` for a
    value 0 there).  The (D + 2) x k x k stacks of the witnesses go to
    `det_mod_p` in chunks of whole witnesses, at most `modgb._MAX_PIECE`
    cells a call, each chunk only once its first witness is asked for.
    """
    p = block.field.characteristic
    rd, cd = block.row_degrees, block.col_degrees
    cap = max(1, modgb._MAX_PIECE // (k * k))  # matrices per det_mod_p call
    chunks: List[list] = []
    for rows, cols, t in _pivot_sets(runs, values[top + 1:-1], k, p):
        degree = sum(cd[j] for j in cols) - sum(rd[i] for i in rows)
        if degree < 0:
            raise HomogeneityError(f"a {k} x {k} minor is not homogeneous of degree {degree}")
        if not chunks or sum(d + 2 for *_, d in chunks[-1]) + degree + 2 > cap:
            chunks.append([])  # a witness larger than a chunk goes alone, in slices
        chunks[-1].append((rows, cols, t, degree))
    for chunk in chunks:
        stack = np.concatenate([values[np.ix_(list(range(d + 1)) + [top + 1 + t], rows, cols)]
                                for rows, cols, t, d in chunk])
        dets = np.concatenate([_linalg.det_mod_p(stack[i:i + cap], p)
                               for i in range(0, len(stack), cap)])
        for rows, cols, t, degree in chunk:
            own, dets = dets[:degree + 2], dets[degree + 2:]
            if not own[-1]:
                raise SingularWitnessError(f"witness {rows} x {cols} vanishes at its pivot point")
            minor = np.trim_zeros(_newton_coefficients(own[:-1], 0, p), "b").tolist()
            if sum(c * pow(runs[t][2][0], n, p) for n, c in enumerate(minor)) % p != own[-1]:
                raise HomogeneityError(f"a {k} x {k} minor is not homogeneous of degree {degree}")
            yield rows, cols, minor, degree + 1 - len(minor)


def _restricted_minor_gcd(
    block: GradedMatrix, k: int, seed: int, sample_size: int = 6
) -> Tuple[bool, List[Tuple[Tuple[int, ...], Tuple[int, ...]]]]:
    """Plane certificate: (verdict, witness index sets).

    Verdict True certifies exactly that the k-minors of the block are
    coprime, by a constant GCD of restricted witness minors or by full
    restricted rank modulo that GCD (module docstring); False means the GCD
    lowered the restricted rank, or no plane kept rank k.  The index sets
    carry provably nonzero minors of the original block.  An attempt
    evaluates the block once (`_plane_values`), picks all its witnesses in
    one stacked pass, and takes determinant chunks until the GCD is constant.
    """
    p = block.field.characteristic
    for attempt in range(3):
        runs, values, top = _plane_values(block, k, seed, attempt, sample_size)
        index_sets = []
        g: Optional[List[int]] = None  # the running GCD: Y^y_power times the form
        # whose value at (t : 1) is the monic g(t)
        y_power = 0
        for rows, cols, minor, y in _plane_witnesses(block, k, runs, values, top):
            index_sets.append((rows, cols))
            y_power = y if g is None else min(y_power, y)
            g = _poly_gcd(minor, [] if g is None else g, p)
            if len(g) == 1 and not y_power:
                return True, index_sets
        if g is None:
            continue  # unlucky plane: restricted rank dropped
        coprime = True
        if len(g) > 1:
            slope = [i * c % p for i, c in enumerate(g)][1:]
            radical = _poly_divmod(g, _poly_gcd(g, slope, p), p)[0]
            entry_top = max(block.col_degrees) - min(block.row_degrees)
            coeffs = _newton_coefficients(values[:entry_top + 1], 0, p)
            coprime = _regular_rank(coeffs, radical, p) == (len(radical) - 1) * k
        if y_power:
            coprime = coprime and _linalg.rank_mod_p(values[-1], p) == k
        return coprime, index_sets
    return False, []


def coprime_minor_analysis(w: GradedMatrix, seed: int = DEFAULT_SEED) -> MinorAnalysis:
    """Exact analysis of the k-minors of w at its level k = rank(w), the sum
    of the ranks of its kept blocks.

    Returns the minimum rank of w at codimension-1 points (= beta at this
    level) together with the discovered common factor, if any.
    """
    notes: List[str] = []
    blocks = ranked_blocks(w)
    k = sum(kb for _, kb in blocks)
    overall = MultiPoly.one(w.field)
    for bi, (sub, kb) in enumerate(blocks):
        coprime, index_sets = _restricted_minor_gcd(sub, kb, subseed(seed, "block", bi))
        if coprime:
            continue
        notes.append(f"block {bi}: plane certificate inconclusive, honest fallback")
        g = _honest_sampled_gcd(sub, kb, subseed(seed, "honest", bi), index_sets)
        if not g.is_constant():
            overall = overall * g
    if overall.is_constant():
        return MinorAnalysis(k, k, None, {}, notes)
    factor_ranks: Dict[str, int] = {}
    min_rank = k
    for f in squarefree_factors(overall):
        r = rank_modulo_hypersurface(w, f)
        factor_ranks[str(f)] = r
        min_rank = min(min_rank, r)
    return MinorAnalysis(k, min_rank, overall, factor_ranks, notes)


def _honest_sampled_gcd(
    sub: GradedMatrix,
    k: int,
    seed: int,
    index_sets: Sequence[Tuple[Tuple[int, ...], Tuple[int, ...]]] = (),
    sample_size: int = 4,
) -> MultiPoly:
    """GCD of a seeded sample of true k-minors, all provably nonzero.

    Index sets discovered on a plane restriction stay usable here: a nonzero
    restricted minor forces the true minor to be nonzero.
    """
    picks = list(index_sets[:sample_size])
    if len(picks) < sample_size:
        runs = _pivot_runs(sub, seed, sample_size - len(picks))
        values = sub.evaluate_many([point for _, _, point in runs])
        found = _pivot_sets(runs, values, k, sub.field.characteristic)
        picks += [(rows, cols) for rows, cols, _ in found if (rows, cols) not in picks]
    if not picks:
        raise ValueError("no nonsingular witness of the requested size")
    acc: Optional[MultiPoly] = None
    for rp, cp in picks:
        val = determinant(sub.submatrix(rp, cp))
        if val.is_zero():
            continue
        acc = val.monic() if acc is None else gcd_many([acc, val])
        if acc.is_constant():
            break
    if acc is None:
        raise ValueError("all sampled witness minors vanished unexpectedly")
    return acc


# ---------------------------------------------------------------------------
# the four headline operations


def alpha(s: GradedMatrix, n: int) -> int:
    """Rank of the closed-point truncation s_{n,t} over the fraction field."""
    return rank_fraction_field(s.truncate_columns(n).specialize_closed_point())


def beta(s: GradedMatrix, n: int, seed: int = DEFAULT_SEED) -> int:
    """Largest k such that the k-minors of s_{n,t} have no common factor."""
    w = s.truncate_columns(n).specialize_closed_point()
    return coprime_minor_analysis(w, seed=seed).min_rank


def _column_module_free(w: GradedMatrix, target_rank: int) -> bool:
    """Freeness of the column module via mu(F) = rank(F)."""
    if w.ncols == 0:
        return target_rank == 0
    mu = modgb.minimal_generator_count(w)
    return mu.rank() == target_rank


def compute_q_profile(
    s: GradedMatrix,
    window: Optional[Tuple[Optional[int], Optional[int]]] = None,
    seed: int = DEFAULT_SEED,
) -> QProfile:
    """Full per-degree profile (alpha, beta, q#) with b0 and the stable rank.

    The window defaults to [inf L2 - 1, sup L2 + 8] and the scan stops as
    soon as the profile provably stabilizes.  A window must start at or
    below inf L2 - 1, where q# is 0, and must not end below its start;
    otherwise `WindowError` is raised.  The profile is kept on s by
    (window, seed): a second call returns the same object.
    """
    return s.kept(("profile", window, seed), lambda: _scan_profile(s, window, seed))


def _scan_profile(
    s: GradedMatrix, window: Optional[Tuple[Optional[int], Optional[int]]], seed: int
) -> QProfile:
    """`compute_q_profile` without keeping the result."""
    s_t = s.specialize_closed_point()
    if s.ncols == 0 or s_t.is_zero_matrix():
        return QProfile(
            records=[], b0=None, b0_is_lower_bound=True, stable_rank=0,
            dissociated=True, stabilized=True,
            inf_l2=min(s.col_degrees) if s.col_degrees else None,
            warnings=["zero presentation: the image sheaf is 0"],
        )
    r = rank_fraction_field(s_t)
    inf_l2 = min(s.col_degrees)
    sup_l2 = max(s.col_degrees)
    n_min = inf_l2 - 1
    n_cap = sup_l2 + 8
    if window is not None:
        if window[0] is not None:
            n_min = window[0]
        if window[1] is not None:
            n_cap = window[1]
    if n_min > inf_l2 - 1 or n_cap < n_min:
        raise WindowError(
            f"window [{n_min}, {n_cap}] must start at or below inf L2 - 1 = {inf_l2 - 1} "
            "and must not end below its start"
        )
    records: List[DegreeRecord] = []
    warnings: List[str] = []
    b0: Optional[int] = None
    in_free_regime = True
    dissociated = False
    stabilized = False
    for n in range(n_min, n_cap + 1):
        w = s_t.truncate_columns(n)
        alpha_n = rank_fraction_field(w)
        beta_n = coprime_minor_analysis(w, seed=subseed(seed, "beta", n)).min_rank
        if in_free_regime:
            conditions = alpha_n == beta_n and _column_module_free(w, alpha_n)
            if conditions:
                b0 = n
            else:
                in_free_regime = False
        q_sharp = alpha_n if in_free_regime else min(alpha_n - 1, beta_n)
        records.append(DegreeRecord(n, alpha_n, beta_n, q_sharp))
        if in_free_regime and alpha_n == r:
            dissociated = True
            stabilized = True
            break
        if not in_free_regime and alpha_n == r and q_sharp == r - 1:
            stabilized = True
            break
    if not stabilized:
        warnings.append(
            f"window [{n_min}, {n_cap}] exhausted before stabilization at rank {r}"
        )
    profile = QProfile(
        records=records,
        b0=b0,
        b0_is_lower_bound=in_free_regime,
        stable_rank=r,
        dissociated=dissociated,
        stabilized=stabilized,
        inf_l2=inf_l2,
        warnings=warnings,
    )
    violations = profile_invariant_violations(profile)
    if violations:
        raise ProfileConsistencyError(
            "; ".join(violations) + "; the presentation violates the standing hypotheses"
        )
    return profile


# ---------------------------------------------------------------------------
# admissibility


def check_p_admissible(
    p: CharFunction, profile: QProfile
) -> Tuple[bool, str]:
    """Decide whether p is the shape of an admissible dissociated subsheaf.

    Conditions: (1) p#(n) <= q#(n) everywhere; (2) whenever p#(n) = q#(n) for
    some n <= b0, the restriction of p below n is the obligatory part, i.e.
    p#(m) = alpha_m for every m <= n.
    """
    if profile.dissociated:
        raise DissociatedSheafError("admissibility undefined for a dissociated sheaf")
    if not profile.stabilized:
        raise WindowExhaustedError("profile did not stabilize; enlarge the window")
    if p.rank() != profile.stable_rank - 1:
        raise MassMismatchError(
            f"p has total mass {p.rank()}, expected stable rank - 1 = {profile.stable_rank - 1}"
        )
    lo, hi = profile.window()
    degrees = sorted(set(list(p.support) + [n for n in range(lo, hi + 1)]))
    for n in degrees:
        if p.cumulative(n) > profile.q_sharp(n):
            return False, f"p#({n}) = {p.cumulative(n)} exceeds q#({n}) = {profile.q_sharp(n)}"
    b0 = profile.b0
    if b0 is not None:
        witnesses = [n for n in range(lo, b0 + 1) if p.cumulative(n) == profile.q_sharp(n)]
        if witnesses:
            n_star = max(witnesses)
            for m in range(lo, n_star + 1):
                if p.cumulative(m) != profile.alpha(m):
                    return False, (
                        f"p#({n_star}) = q#({n_star}) forces the obligatory part, but "
                        f"p#({m}) = {p.cumulative(m)} differs from alpha_{m} = {profile.alpha(m)}"
                    )
    return True, "admissible"


# ---------------------------------------------------------------------------
# the sampling oracle for q#


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
    from biliaison import families  # local import to avoid a cycle

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


# ---------------------------------------------------------------------------
# structural laws (checked by compute_q_profile on every profile it builds)


def profile_invariant_violations(profile: QProfile) -> List[str]:
    """Check the structural laws of a profile; return violations."""
    out = []
    prev = 0
    for rec in profile.records:
        if not (0 <= rec.q_sharp <= rec.beta <= rec.alpha):
            out.append(f"n={rec.n}: expected 0 <= q# <= beta <= alpha, got {rec}")
        if rec.q_sharp < prev:
            out.append(f"n={rec.n}: q# decreases")
        prev = rec.q_sharp
        if profile.b0 is not None:
            if rec.n <= profile.b0 and rec.q_sharp != rec.alpha:
                out.append(f"n={rec.n} <= b0 but q# != alpha")
            if rec.n > profile.b0 and rec.q_sharp != min(rec.alpha - 1, rec.beta):
                out.append(f"n={rec.n} > b0 but q# != min(alpha-1, beta)")
    if profile.inf_l2 is not None and profile.b0 is not None:
        if profile.b0 < profile.inf_l2 - 1:
            out.append(f"b0 = {profile.b0} below inf L2 - 1 = {profile.inf_l2 - 1}")
    if profile.stabilized and not profile.dissociated and profile.records:
        if profile.records[-1].q_sharp != profile.stable_rank - 1:
            out.append("stabilized profile does not end at stable_rank - 1")
    return out
