"""Curve families: sheaf degree, minimal shift, and (degree, genus) extraction.

A verified morphism from a dissociated sheaf of rank r-1 into the presented
sheaf N yields a flat family of space curves with twisted ideal sheaf
J_C(h).  The shift is h = sum n*p(n) + deg N; degree and genus are read off
the Hilbert polynomial of the quotient module

    Q = (column module of s at a=0) / (columns of s*v at a=0),

which is saturation-invariant, so the unsaturated quotient suffices:

    P_Q(n) = C(n+h+3, 3) - d*(n+h) - 1 + g.

Verification is the degeneracy-locus criterion: the specialized composite
W = (s*v)|_{a=0} must have rank r-1 (injectivity at the closed point, hence
flatness) and coprime (r-1)-minors (degeneracy locus of codimension >= 2,
hence a torsion-free cokernel).

Every Hilbert polynomial here is exact.  P_N is read off the leading terms
of a full Groebner basis of the closed-point column module N (`modgb`,
"Hilbert polynomials, exact"), which also gives deg N.  P_Q = P_N - P_U for
the column module U of W = s_t * v, which lies in N, and U needs no basis:
W has rank v.ncols over the fraction field (the rank certificate), so W is
injective, U is isomorphic to the free module P of the lift's column
degrees, and P_U = P_P, read off v's column degrees in one place
(`quotient_hilbert_data`).  So P_Q + P_P = P_N holds by construction when
W is injective, and the law's one run-time check tests that by one exact
rank, independent of the point rank and of Buchberger.  At top = the
largest column degree of v, the degree-top span matrix of W
(`modgb._span_matrix_mod_p`) must have full column rank dim P_top, so W has
no syzygy of degree <= top; else `ConservationError`, which nothing else
raises.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from biliaison import _linalg, modgb
from biliaison.grmatrix import CharFunction, GradedMatrix, rank_fraction_field
from biliaison.modgb import HilbertPolynomial
from biliaison.polyring import FieldSpec
from biliaison.qprofile import (
    DEFAULT_SEED,
    DissociatedSheafError,
    QProfile,
    WindowExhaustedError,
    check_p_admissible,
    coprime_minor_analysis,
    subseed,
)


class InadmissibleShapeError(ValueError):
    """The candidate characteristic function fails the admissibility test."""


class RankDeficiencyError(RuntimeError):
    """Sampled morphism is not injective at the closed point; resample."""


class TorsionError(RuntimeError):
    """Sampled morphism has a codimension-1 degeneracy (torsion); resample."""


class ShapeMismatchError(RuntimeError):
    """Quotient Hilbert polynomial is not that of a twisted curve ideal."""


class RetryExhaustedError(RuntimeError):
    """No general morphism found within the retry cap."""


class PresentationError(RuntimeError):
    """The presentation produced a non-integral sheaf degree."""


class ConservationError(RuntimeError):
    """A verified morphism violates the Hilbert conservation P_Q + P_P = P_N."""


RETRY_CAP = 10  # lifts `minimal_family` draws before it gives up


@dataclass
class Certificate:
    rank: int
    coprime: bool
    seed: int
    retries: int = 0
    notes: List[str] = dc_field(default_factory=list)

    def summary(self) -> dict:
        return {
            "rank": self.rank,
            "coprime_minors": self.coprime,
            "seed": self.seed,
            "retries": self.retries,
            "notes": list(self.notes),
        }


@dataclass
class MinimalFamilyReport:
    q: CharFunction
    deg_N: int
    h0: int
    d0: int
    g0: int
    ideal_sheaf_polynomial: HilbertPolynomial
    seed: int
    certificate: Certificate
    conservation: Tuple[HilbertPolynomial, HilbertPolynomial, HilbertPolynomial]

    def to_json(self) -> dict:
        return {
            "q": self.q.to_json(),
            "deg_N": self.deg_N,
            "h0": self.h0,
            "d0": self.d0,
            "g0": self.g0,
            "hilbert_polynomial": self.ideal_sheaf_polynomial.to_json(),
            "seed": self.seed,
            "certificate": self.certificate.summary(),
        }

    def to_json_string(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=1)


# ---------------------------------------------------------------------------
# sheaf degree and minimal shift


def sheaf_degree(s: GradedMatrix, profile: QProfile) -> int:
    """First Chern number of the presented sheaf, from Hilbert bookkeeping.

    With P_N the Hilbert polynomial of the closed-point column module and r
    the stable rank of ``profile``, the profile of s,
    deg N = 2 * ([n^2] P_N - r).
    """
    r = profile.stable_rank
    p_n = modgb.groebner_basis(s.specialize_closed_point()).hilbert_polynomial()
    if p_n.coeffs[3] != Fraction(r, 6):
        raise PresentationError(
            f"leading Hilbert coefficient {p_n.coeffs[3]} does not match rank {r}"
        )
    deg = 2 * (p_n.coeffs[2] - r)
    if deg.denominator != 1:
        raise PresentationError(f"sheaf degree {deg} is not an integer")
    return int(deg)


def minimal_shift(profile: QProfile, deg_n: int) -> int:
    """h0 = sum n*q(n) + deg N."""
    if profile.dissociated:
        raise DissociatedSheafError("minimal shift undefined for a dissociated sheaf")
    if not profile.stabilized:
        raise WindowExhaustedError("profile did not stabilize")
    return profile.q_function().weighted_sum() + deg_n


# ---------------------------------------------------------------------------
# sampling lifts


def random_matrix(
    field: FieldSpec, row_degrees: Sequence[int], col_degrees: Sequence[int], rng: random.Random
) -> GradedMatrix:
    """A matrix of seeded random forms, the package's one random form: entry
    by entry, row by row, one draw rng.randrange(p) per monomial of degree
    col_degrees[j] - row_degrees[i], in the order of `modgb.monomials_of_degree`;
    the nonzero draws are the entry's coefficients."""
    degrees = [d - e for e in row_degrees for d in col_degrees]
    monomials = {m: np.array([e + (0,) for e in modgb.monomials_of_degree(m)], dtype=np.int64).reshape(-1, 5)
                 for m in set(degrees)}
    count = np.array([len(monomials[m]) for m in degrees], dtype=np.int64)
    draws = np.array([rng.randrange(field.characteristic) for _ in range(count.sum())], dtype=np.int64)
    drawn = np.concatenate([monomials[m] for m in degrees] + [np.zeros((0, 5), dtype=np.int64)])
    cells = np.repeat(np.arange(len(degrees)), count)
    # a cell draws for its monomials largest first, and a table lists them
    # smallest first: slot t of the table holds draw back[t], of the same cell
    back = np.repeat(2 * count.cumsum() - count - 1, count) - np.arange(len(draws))
    back = back[draws[back] != 0]
    return GradedMatrix.from_terms(field, row_degrees, col_degrees, cells[back], drawn[back], draws[back])


def sample_general_morphism(
    s: GradedMatrix, p: CharFunction, profile: QProfile, seed: int = DEFAULT_SEED
) -> GradedMatrix:
    """Random lift v : P -> L2 for a shape p admissible under ``profile``,
    the profile of s (deterministic in seed)."""
    ok, reason = check_p_admissible(p, profile)
    if not ok:
        raise InadmissibleShapeError(reason)
    return random_matrix(s.field, s.col_degrees, p.degrees(), random.Random(subseed(seed, "lift")))


def verify_general_morphism(
    s: GradedMatrix, v: GradedMatrix, profile: QProfile, seed: int = DEFAULT_SEED
) -> Certificate:
    """Certify injectivity at the closed point and a torsion-free cokernel,
    from the composite s_t * v; ``profile`` is the profile of s."""
    r = profile.stable_rank
    if v.ncols != r - 1:
        raise ValueError(f"lift has {v.ncols} columns, expected rank - 1 = {r - 1}")
    w = _composite(s, v)
    rank = rank_fraction_field(w)
    if rank != r - 1:
        raise RankDeficiencyError(
            f"composite has rank {rank} at the closed point, needs {r - 1}"
        )
    analysis = coprime_minor_analysis(w, seed=subseed(seed, "verify"))
    if not analysis.coprime:
        raise TorsionError(
            f"(r-1)-minors share the factor {analysis.common_factor}; "
            f"degeneracy in codimension 1"
        )
    return Certificate(rank=rank, coprime=True, seed=seed, notes=analysis.notes)


def _composite(s: GradedMatrix, v: GradedMatrix) -> GradedMatrix:
    """W = (s*v)|_{a=0} = s_t * v for a lift v free of the parameter, so the
    a*I block of s is never multiplied.  (A lift with the parameter leaves
    it in W, and the rank of W refuses it.)  W is kept on v, so every step
    taken with one lift shares W and what W keeps."""
    return v.kept(("composite", s), lambda: s.specialize_closed_point() @ v)


# ---------------------------------------------------------------------------
# Hilbert polynomial of the quotient and (d, g)


def quotient_hilbert_data(
    s: GradedMatrix, v: GradedMatrix
) -> Tuple[HilbertPolynomial, HilbertPolynomial]:
    """(P_N, P_Q) for Q = column module of s_t modulo columns of (s*v)_t:
    the columns of the composite w = s_t * v lie in the column module of
    s_t, so P_Q = P_N - P_U with U the column module of w, and P_U = P_P
    for an injective w (module docstring).  Two exact gates come first:
    the rank of w that `rank_fraction_field` keeps must be v.ncols, else
    `RankDeficiencyError`; and w's degree-top span matrix must have full
    column rank, else `ConservationError`.  Both are kept on w."""
    w = _composite(s, v)
    rank = rank_fraction_field(w)
    if rank != v.ncols:
        raise RankDeficiencyError(f"composite has rank {rank}, needs {v.ncols} for P_U = P_P")
    w.kept("injective_to_top", lambda: _check_injective_to_top(w))
    p_n = modgb.groebner_basis(s.specialize_closed_point()).hilbert_polynomial()
    return p_n, p_n - HilbertPolynomial.shifted(Counter(v.col_degrees))


def _check_injective_to_top(w: GradedMatrix) -> None:
    """Raise `ConservationError` unless w's columns have no syzygy of degree
    <= top, the largest column degree: a syzygy of degree e times x0^(top-e)
    is one of degree top, so full column rank of the degree-top span matrix
    rules them all out."""
    top = max(w.col_degrees, default=0)
    mat, labels = modgb._span_matrix_mod_p(w, top)
    rank = _linalg.rank_mod_p(mat, w.field.characteristic)
    if rank != len(labels):
        raise ConservationError(
            f"the composite's degree-{top} span has rank {rank} < {len(labels)} = dim P_{top}: "
            f"it has a syzygy, so P_Q + P_P = P_N fails for a rank-certified morphism"
        )


def family_degree_genus(
    s: GradedMatrix, v: GradedMatrix, p: CharFunction, profile: QProfile
) -> Tuple[int, int, int]:
    """(h, d, g) of the curve family cut out by a verified morphism;
    ``profile`` is the profile of s."""
    h = sheaf_degree(s, profile) + p.weighted_sum()
    _, p_q = quotient_hilbert_data(s, v)
    return (h,) + _degree_genus(h, p_q)


def _degree_genus(h: int, p_q: HilbertPolynomial) -> Tuple[int, int]:
    """(d, g) read off the quotient Hilbert polynomial P_Q for shift h."""
    # P_Q(n) = C(n+h+3,3) - d*(n+h) - 1 + g
    twisted = HilbertPolynomial.binomial_shift(-h)
    diff = twisted - p_q  # should be d*(n+h) + 1 - g, a linear polynomial
    if diff.coeffs[3] != 0 or diff.coeffs[2] != 0:
        raise ShapeMismatchError(
            f"quotient Hilbert polynomial is not a twisted curve ideal: residual {diff}"
        )
    d = diff.coeffs[1]
    if d.denominator != 1 or d <= 0:
        raise ShapeMismatchError(f"curve degree {d} is not a positive integer")
    d = int(d)
    g = d * h + 1 - diff.coeffs[0]
    if g.denominator != 1:
        raise ShapeMismatchError(f"genus {g} is not an integer")
    return d, int(g)


def hilbert_conservation(
    s: GradedMatrix, v: GradedMatrix, p: CharFunction
) -> Tuple[HilbertPolynomial, HilbertPolynomial, HilbertPolynomial]:
    """(P_N, P_P, P_Q) for a lift v of shape p, else `ValueError`.  P_P is
    read off v's column degrees by `quotient_hilbert_data`, and
    P_Q + P_P = P_N holds once it returns: its rank gate makes the composite
    injective, so P_U = P_P, and its span gate checks that the composite has
    no syzygy up to the lift's top degree."""
    if p.degrees() != sorted(v.col_degrees):
        raise ValueError(f"p = {p} is not the lift's shape {CharFunction(Counter(v.col_degrees))}")
    p_n, p_q = quotient_hilbert_data(s, v)
    return p_n, p_n - p_q, p_q


# ---------------------------------------------------------------------------
# the minimal family


def minimal_family(
    s: GradedMatrix,
    seed: int = DEFAULT_SEED,
    *,
    profile: QProfile,
) -> MinimalFamilyReport:
    """Minimal-shift curve family for the presented sheaf (p = q);
    ``profile`` is the profile of s."""
    if profile.dissociated:
        raise DissociatedSheafError("no minimal curve family for a dissociated sheaf")
    if not profile.stabilized:
        raise WindowExhaustedError("profile did not stabilize")
    q = profile.q_function()
    deg_n = sheaf_degree(s, profile)
    h0 = minimal_shift(profile, deg_n)
    last_error: Optional[Exception] = None
    for attempt in range(RETRY_CAP):
        attempt_seed = subseed(seed, "minimal-family", attempt)
        v = sample_general_morphism(s, q, seed=attempt_seed, profile=profile)
        try:
            cert = verify_general_morphism(s, v, profile, seed=attempt_seed)
            p_n, p_q = quotient_hilbert_data(s, v)
            d, g = _degree_genus(h0, p_q)
        except (RankDeficiencyError, TorsionError) as exc:
            last_error = exc
            continue
        cert.retries = attempt
        cert.seed = seed
        ideal_poly = HilbertPolynomial.binomial_shift(0) - HilbertPolynomial.from_coeffs(
            [Fraction(1) - g, Fraction(d)]
        )
        return MinimalFamilyReport(
            q=q,
            deg_N=deg_n,
            h0=h0,
            d0=d,
            g0=g,
            ideal_sheaf_polynomial=ideal_poly,
            seed=seed,
            certificate=cert,
            conservation=(p_n, p_n - p_q, p_q),
        )
    raise RetryExhaustedError(
        f"no general morphism found in {RETRY_CAP} attempts; last failure: {last_error}"
    )
