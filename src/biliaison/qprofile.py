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

1. Plane certificate.  Restrict the block to a seeded random line, so every
   entry becomes a binary form in X, Y, and evaluate it there once per
   attempt: at (t : 1) for t = 0..e, where e bounds the degree of every
   entry, at one seeded extra node, and at (1 : 0).  The values at t = 0..e
   give the coefficient matrices of B(t) = sum_n C_n t^n.  For seeded V
   (k x rows) and U (cols x k) over F_p, Cauchy-Binet gives
   c(t) = det(V B(t) U) = sum_{I,J} det V[:, I] det B(t)[I, J] det U[J, :],
   a combination of every restricted k-minor, of degree at most top, the
   largest degree of a k-minor.  Two such combinations are taken at once:
   their values at t = 0..top (from P(t) = sum_n (V C_n U) t^n by Horner's
   rule), at the extra node and at (1 : 0) (from the values there) by
   batched determinants mod p, in slabs of at most `_MAX_CELLS` cells (one
   slab on every fixture block), their coefficients by Newton interpolation,
   checked at the extra node.  Let g be their GCD (Euclid mod p).  If g is
   constant and a determinant at (1 : 0) is nonzero, the k-minors are
   coprime.  Proof: that determinant makes the rank at (1 : 0) k, so some
   k-minor is nonzero there.  A nonconstant common factor F of all k-minors
   divides every restricted k-minor, and the combinations are nonzero, so F
   restricted to the line is a nonzero binary form whose value at (t : 1)
   divides both combinations, hence g.  With g constant, F restricts to a
   multiple of Y^(deg F) and vanishes at (1 : 0): a contradiction.  A zero
   combination, or two zero determinants at (1 : 0), move the certificate
   to the next line; a nonconstant g, or three lines without a
   certificate, leave the block to the fallback.  Random V and U are the
   preconditioners of Kaltofen, Krishnamoorthy and Saunders (Linear Algebra
   Appl. 136, 1990); they choose only the certificate.  The certificate,
   and the fallback's GCD when it fails, are kept on the block: a block
   that truncations share (`ranked_blocks`) is analysed once, and a verdict
   read at another seed is still a proof.  A block that
   `modgb.has_constant_rank` kept as locally free skips this step: the
   CLI's check runs on the same s_t, whose truncations hold its whole
   blocks.  Its k-minors have no common zero in P^3, and a nonconstant
   common factor would vanish on a surface, so they are coprime.
2. Honest fallback.  Only when the plane certificate fails is the GCD of
   a few true witness minors taken, picked by pivoting at seeded points,
   by `polyring.gcd` (Brown's dense modular GCD, certified by exact
   division).  Any hypersurface dropping the rank below k divides every
   k-minor, so the squarefree factors of that GCD are a complete candidate
   list; the rank modulo each candidate is then measured exactly on the
   original matrix.  A nonconstant g comes here without a second test: a
   genuine common factor must be decided here anyway, and one that comes
   only from an unlucky V, U or line is rare.  On the fixtures at five
   seeds and on `rao_family` no block reaches the fallback; a profile of
   `fixtures.rank_drop_sigma1` reaches it once, at its genuine common
   factor.

The maximal minors of a matrix, k its column count, need no block and no
rank (`certify_maximal_minors`, for the composite of a lift in `families`):
a True plane certificate of the matrix itself also proves rank k.

Randomness only chooses which certificate is tried, never the answer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from biliaison import _linalg, modgb
from biliaison.grmatrix import (
    CharFunction,
    GradedMatrix,
    HomogeneityError,
    InterpolationRangeError,
    _MAX_CELLS,
    _newton_coefficients,
    determinant,
    random_plane,
    rank_fraction_field,
    rank_modulo_hypersurface,
    ranked_blocks,
    sha256,
)
from biliaison.polyring import (
    MultiPoly,
    _horner,
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


def subseed(seed: int, *labels) -> int:
    """Stable derived seed; identical across platforms and sessions: the first
    64 bits of the SHA-256 digest of the labels, taken with the interpreter's
    built-in module (`grmatrix.sha256`), equal bit for bit to OpenSSL's."""
    text = ":".join([str(seed)] + [str(x) for x in labels])
    return int(sha256(text.encode()).hexdigest()[:16], 16)


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
    notes: List[str]

    @property
    def coprime(self) -> bool:
        return self.min_rank >= self.level


class PlaneCertificate(NamedTuple):
    """How `_restricted_minor_gcd` decided a block: the verdict, the number
    of combinations taken, deg g in the last attempt that took one (None if
    every combination vanished), and whether the determinants at (1 : 0)
    were consulted, which happens only after a constant g."""

    coprime: bool
    combinations: int
    gcd_degree: Optional[int]
    at_infinity: bool


def _combinations(rng: random.Random, p: int, k: int, nrows: int, ncols: int):
    """Two seeded pairs over F_p: V of shape (2, k, nrows), U of (2, ncols, k)."""
    draws = _linalg.random_residues(rng, p, 2 * k * (nrows + ncols))
    return draws[:2 * k * nrows].reshape(2, k, nrows), draws[2 * k * nrows:].reshape(2, ncols, k)


def _restricted_minor_gcd(block: GradedMatrix, k: int, seed: int) -> PlaneCertificate:
    """Plane certificate of the k-minors of the block (module docstring).

    Verdict True certifies exactly that the k-minors are coprime.  False
    means the two combinations had a nonconstant GCD, or no line of three
    gave nonzero combinations with a nonzero determinant at (1 : 0); the
    honest fallback then decides.  An attempt evaluates the block once and
    takes the two combinations' determinants at t = 0..top, at the extra
    node and at (1 : 0) in slabs of at most `_MAX_CELLS` cells, the last two
    nodes in the last slab, so a block with 2 (top + 3) k^2 <= `_MAX_CELLS`
    takes one `det_mod_p` call.  A value at the extra node off the
    interpolated combination raises `HomogeneityError`; top >= p raises
    `InterpolationRangeError`.
    """
    p = block.field.characteristic
    rd, cd = block.row_degrees, block.col_degrees
    e = max(cd) - min(rd)
    top = max(sum(sorted(cd)[-k:]) - sum(sorted(rd)[:k]), e)
    if top >= p:
        raise InterpolationRangeError(
            f"a minor of degree {top} needs {top + 1} interpolation points, "
            f"more than F_{p} has"
        )
    step = max(1, _MAX_CELLS // (2 * k * k))  # nodes per slab
    done = PlaneCertificate(False, 0, None, False)
    for attempt in range(3):
        pairs, _ = random_plane(p, subseed(seed, "plane", attempt))
        rng = random.Random(subseed(seed, "combination", attempt))
        extra = rng.randrange(1, p)
        v, u = _combinations(rng, p, k, block.nrows, block.ncols)
        line = np.array(pairs, dtype=np.int64)  # (t : 1) -> c t + d, (1 : 0) -> c
        ts = np.array(list(range(e + 1)) + [extra], dtype=np.int64)
        points = np.zeros((e + 3, 5), dtype=np.int64)
        points[:-1, :4] = (ts[:, None] * line[:, 0] + line[:, 1]) % p
        points[-1, :4] = line[:, 0]
        values = block.evaluate_many(points)
        coeffs = _newton_coefficients(values[:e + 1], 0, p)
        small = _linalg.matmul_mod_p(_linalg.matmul_mod_p(v[:, None], coeffs, p), u[:, None], p)
        tail = _linalg.matmul_mod_p(_linalg.matmul_mod_p(v[:, None], values[e + 1:], p),
                                    u[:, None], p)  # at the extra node, then at (1 : 0)
        slabs = []
        for lo in range(0, top + 3, step):
            hi = min(lo + step, top + 3)
            nodes = np.arange(lo, min(hi, top + 1), dtype=np.int64)[:, None, None]
            at = np.zeros((2, len(nodes), k, k), dtype=np.int64)
            for n in range(e, -1, -1):
                at = (at * nodes + small[:, n, None]) % p
            if hi > top + 1:
                at = np.concatenate([at, tail[:, max(lo - top - 1, 0):hi - top - 1]], axis=1)
            slabs.append(_linalg.det_mod_p(at.reshape(-1, k, k), p).reshape(2, -1))
        dets = np.concatenate(slabs, axis=1)
        c1, c2 = (np.trim_zeros(c, "b").tolist()
                  for c in _newton_coefficients(dets[:, :top + 1], 1, p))
        if [_horner(c1, extra, p), _horner(c2, extra, p)] != dets[:, top + 1].tolist():
            raise HomogeneityError(f"a {k} x {k} minor is not homogeneous of degree <= {top}")
        done = done._replace(combinations=done.combinations + 2)
        if not c1 or not c2:
            continue  # the restricted k-minors vanish, or V and U were unlucky
        done = done._replace(gcd_degree=len(_poly_gcd(c1, c2, p)) - 1)
        if done.gcd_degree:
            return done
        done = done._replace(at_infinity=True)
        if dets[:, top + 2].any():  # rank k at (1 : 0)
            return done._replace(coprime=True)
    return done


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
        if sub.known("locally_free") or sub.kept("plane_certificate", lambda: _restricted_minor_gcd(
                sub, kb, subseed(seed, "block", bi))).coprime:
            continue
        notes.append(f"block {bi}: plane certificate inconclusive, honest fallback")
        g = sub.kept("honest_gcd", lambda: _honest_sampled_gcd(sub, kb, subseed(seed, "honest", bi)))
        if not g.is_constant():
            overall = overall * g
    if overall.is_constant():
        return MinorAnalysis(k, k, None, notes)
    min_rank = min([k] + [rank_modulo_hypersurface(w, f) for f in squarefree_factors(overall)])
    return MinorAnalysis(k, min_rank, overall, notes)


def certify_maximal_minors(w: GradedMatrix, seed: int = DEFAULT_SEED) -> bool:
    """Whether the plane certificate of w's k-minors, k = w.ncols >= 1, taken
    on w itself at the seed `coprime_minor_analysis` gives block 0, proves
    them coprime.  True also proves rank w = k: its nonzero determinant at
    (1 : 0) is a nonzero k-minor.  False proves nothing."""
    if w.has_parameter():
        raise ValueError("specialize the parameter first")
    return _restricted_minor_gcd(w, w.ncols, subseed(seed, "block", 0)).coprime


def _honest_sampled_gcd(sub: GradedMatrix, k: int, seed: int) -> MultiPoly:
    """GCD of up to four true k-minors, each provably nonzero.

    Run by run: the first run keeps the order of the rows and columns, later
    runs shuffle them; each then sorts the columns stably by degree, which
    keeps the minors' degrees low, and evaluates the block at a seeded point
    (x, 1, z, w, 0).  The first k rows that raise the rank of the rows
    before them and the pivot columns of those rows give a minor nonzero at
    the point, hence a nonzero polynomial.  Runs short of rank k and
    repeated index sets are skipped; the loop stops once the GCD is
    constant.
    """
    rng = random.Random(seed)
    p = sub.field.characteristic
    picked: List[Tuple[Tuple[int, ...], Tuple[int, ...]]] = []
    acc: Optional[MultiPoly] = None
    for run in range(4):
        rp, cp = list(range(sub.nrows)), list(range(sub.ncols))
        if run:
            rng.shuffle(rp)
            rng.shuffle(cp)
        cp.sort(key=lambda j: sub.col_degrees[j])
        x, z, w = (rng.randrange(1, p) for _ in range(3))
        values = sub.evaluate((x, 1, z, w, 0))[np.ix_(rp, cp)]
        rows = _linalg.pivots_mod_p(values.T, p)[:k]
        if len(rows) < k:
            continue  # the point lowered the rank
        cols = _linalg.pivots_mod_p(values[rows], p)
        pick = (tuple(sorted(rp[i] for i in rows)), tuple(sorted(cp[j] for j in cols)))
        if pick in picked:
            continue
        picked.append(pick)
        val = determinant(sub.submatrix(*pick))
        acc = val.monic() if acc is None else gcd_many([acc, val])
        if acc.is_constant():
            break
    if acc is None:
        raise ValueError("no nonsingular witness of the requested size")
    return acc


# ---------------------------------------------------------------------------
# the profile


def _column_module_free(w: GradedMatrix, target_rank: int) -> bool:
    """Freeness of the column module F of rank target_rank via mu(F) =
    rank(F).  Columns as many as the rank are independent over the fraction
    field, so over S too, and generate F freely: no generator count."""
    if w.ncols == target_rank:
        return True
    return modgb.minimal_generator_count(w).rank() == target_rank


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
    """`compute_q_profile` without keeping the result.  Each distinct
    truncation is analysed once: at a degree no column has, alpha, beta and
    freeness are those of the degree before."""
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
    analysed = -1  # the column count of the truncation alpha_n and beta_n belong to
    for n in range(n_min, n_cap + 1):
        w = s_t.truncate_columns(n)
        if w.ncols != analysed:  # else no column has degree n, and s_n = s_{n-1}
            analysed = w.ncols
            alpha_n = rank_fraction_field(w)
            beta_n = coprime_minor_analysis(w, seed=subseed(seed, "beta", n)).min_rank
            if in_free_regime:
                in_free_regime = alpha_n == beta_n and _column_module_free(w, alpha_n)
        if in_free_regime:
            b0 = n
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
