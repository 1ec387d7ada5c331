"""Groebner bases for submodules of graded free modules over k[X,Y,Z,T].

The engine powers four consumers: ranks (the count of leading components),
Hilbert polynomials (read off the leading-term module through Hilbert-series
numerators), degreewise syzygies and minimal generator counts (plain exact
linear algebra, independent of the Groebner machinery), and the
local-freeness check: `has_constant_rank` asks whether the rank-level
minors of each block cut out the empty set, first from the values of seeded
combinations of them (below), and otherwise by `is_empty_projective_locus`
on the distinct symbolic minors, which is one uncapped basis.

Local freeness by values.  Let I be the ideal of the r-minors of a block B
of rank r, and D their top degree: the r largest column degrees minus the r
smallest row degrees.  If I_D = S_D, then I holds every monomial of degree D
and cuts out the empty set (the converse needs a higher degree in general,
so a block that does not fill at D takes the symbolic route, which
decides).  I_D is spanned by the products of each minor of degree e >= 0
with the monomials of degree D - e.  The minors are not enumerated.  A
degree pattern is how many rows and how many columns of each degree an
r-minor takes; every minor of a pattern has the same degree e.  For a
pattern, draw V (r x rows) and U (cols x r) at random over F_p, zero outside
its degree classes: m_a rows of V live on the rows of degree a, and n_b
columns of U on the columns of degree b, as the pattern says.  By
Cauchy-Binet, det(V B U) = sum_{I,J} det V[:, I] det B[I, J] det U[J, :],
and det V[:, I] = 0 unless I takes m_a rows of each degree a (V[:, I] is
block diagonal by degree, with a block that is not square otherwise), and
likewise for U.  So det(V B U) is a combination of the minors of that
pattern, a form of degree e in I, and its products with the monomials of
degree D - e lie in I_D.  Each pattern takes min(its minors, binom3(e) + 2)
combinations, lowest e first: k of them span the k-dimensional span of its
minors except with probability at most 2 r k / p, as their coefficients
det V[:, I] det U[J, :] have degree 2r in the draws and selection matrices
pick any k minors (Schwartz-Zippel; the preconditioners of Kaltofen,
Krishnamoorthy and Saunders, Linear Algebra Appl. 136, 1990).
The draws are seeded by the block's `fingerprint`, as the rank's point
is (`grmatrix._eval_points`), so a block takes the same combinations in
every run.  They choose only the certificate: whatever they are, their
span lies in I_D, so a full span proves I_D = S_D, and a span that falls
short sends the block to the symbolic route.  Setting X = 1 maps S_D
isomorphically onto the polynomials of degree <= D in Y, Z, T, and for
p > D these are determined by their values on the lattice
{(a, b, c) : a + b + c <= D} of binom3(D) points, which is unisolvent
(Chung and Yao, SIAM J. Numer. Anal. 14, 1977): in the falling-factorial
basis (Y)_i (Z)_j (T)_k the evaluation matrix is triangular under the
componentwise order, with diagonal a! b! c! != 0 mod p.  So the rank of the
values of those products on the lattice is the dimension of their span,
and rank binom3(D) certifies the block.  The values of a combination are
batched determinants of V B(x) U at the lattice points
(`_minors_fill_top_degree`).

Module order: term-over-position extension of graded reverse lex, ties
broken toward the smaller component index.  Buchberger runs degree by degree
(inputs are homogeneous) with F4's normal strategy (Faugere, J. Pure Appl.
Algebra 139, 1999): at the lowest pending degree d, the input generators of
degree d and the S-pairs of degree d that survive the chain criterion are
reduced together, as the rows of one block over the degree-d piece, and the
reduced row echelon form of what is left, with the columns in descending
order so that pivots are leads, gives the new elements.  They are monic,
reduced by every earlier element and interreduced, and no earlier element
holds a term of degree d, so the basis is reduced at every stage: there is
no minimalizing filter and no final tail reduction.  This is sound for
homogeneous input: a new element of degree d has a lead that no earlier
lead divides, so all of its pairs have degree > d.  An optional degree cap
stops the run before the first degree above it, so a capped run holds no
element above the cap, input generators included; it certifies every
leading term up to the cap, and gives no Hilbert polynomial.  The order of
the reductions changes no result: a reduced Groebner basis, capped or not,
is unique for a fixed order, and every consumer reads only the module and
that basis.

Packed term keys.  Inside the engine a term (comp, e0, e1, e2, e3) is one
int holding five fixed-width fields of _BITS = 10 bits, most significant
first:

    deg = e0 + e1 + e2 + e3,  R - e3,  R - e2,  R - e1,  R - comp

with R = 2**_BITS - 1 = 1023.  Integer order is then exactly the module
order, and multiplying a term by x^m adds the constant
key(x^m * t) - key(t), so a reducer's terms are shifted by one integer
addition each.  The supported range is at most R + 1 = 1024 components and
monomial degree at most R in every component: a vector of degree d over
ambient degrees a_c only holds terms of monomial degree d - a_c, so
d - min(a) <= R keeps every field of every term, and of every multiple
formed while reducing it, inside [0, R].  Inputs and S-pairs outside that
range raise `TermRangeError`; nothing wraps silently.  A vector is stored
once, as two int64 arrays: its keys, strictly ascending, so the lead is the
last, and their nonzero coefficients.  The input columns are packed from
the term table of their matrix in one pass and one sort (`_column_vecs`),
and keys become tuples only in a basis's leads.

Dense normal forms.  Every vector Buchberger reduces is homogeneous, so it
lives in the degree-d piece of the ambient module, spanned by the
sum_c binom3(d - a_c) terms of monomial degree d - a_c in component c.  A
block of such vectors is an int64 array, one row per vector over the sorted
keys of that piece (keys are below 2**50).  `_normal_form` goes down the
columns: at a column that some basis element reduces, one vectorised
update subtracts that element's multiple, scaled per row by the column
read mod p, from every row that is nonzero there.  A reduction only
creates terms smaller than the one it removes, so each column is visited
once, and each row takes exactly the steps it would take alone.  The
updates are not reduced mod p: entries start in [0, p) and a step lowers
one by at most (p - 1)**2, so the block is reduced mod p after every
K = `_linalg.reduction_delay(p)` steps, and once at the end: K >= 2 for
every admitted p (K = 2 at p = 2**31 - 1, and about 9e9 at the default p).
The work arrays cost memory in proportion to the piece, so a piece of more
than `_MAX_CELLS` terms raises `TermRangeError`, and a degree's rows are
reduced in chunks of at most `_MAX_CELLS` cells.  Each chunk is reduced by
the elements of lower degree and echeloned together with the elements the
chunks before it found; the row space, and so its reduced echelon form,
is that of one block of all the rows.

Hilbert polynomials, exact.  A module and its leading-term module have the
same Hilbert function (Macaulay's basis theorem; Eisenbud, Commutative
Algebra, GTM 150, ch. 15).  In component c of degree a_c the leads generate
a monomial ideal I_c, and S/I_c has the Hilbert series
N_c(t) / (1 - t)^4 (`_hilbert_numerator`), so the module's Hilbert series is
sum_s count_s t^s / (1 - t)^4, where each leading component adds +1 at
s = a_c and -c_j at s = a_c + j for the coefficients c_j of N_c.  Its
Hilbert function is sum_s count_s binom3(n - s), and binom3(m) agrees with
the cubic C(m + 3, 3) for m >= -3, so from n = max s - 3 on the function
equals sum_s count_s C(n - s + 3, 3): that sum is the Hilbert polynomial,
with no window to guess.  A basis truncated at its cap knows no lead above
it, so it has no polynomial.

Reducer tables.  Which basis element reduces a term is decided once per
degree piece, not once per step (F4's symbolic preprocessing): an int32
table over the piece holds, for each term, the index of the first basis
element in insertion order whose lead divides it, or -1.  A table is built
on first use by marking each element's multiples: its lead key plus the
shifts of the monomials of the missing degree, found by `searchsorted`.
Buchberger adds a degree's elements once the degree is finished, so adding
drops the tables instead of marking finished degrees.  The table names the
reducer a scan of the basis would pick.

Minimal syzygies, one echelon form per degree.  The syzygies of degree d
are the kernel K_d of the span matrix whose columns are the products of the
generators with the monomials of the complementary degree, filled from the
term table in one indexed store; a kernel vector is an int64 row over
those (generator, monomial) labels.  A variable maps the labels of degree
d - 1 into those of degree d (`_monomial_index`), so the variable
multiples of K_{d-1}, which span the degree-d syzygies that are not
minimal, are rows over the same labels.  One forward elimination of the
transposed stack [multiples; K_d] names its pivot rows, the rows outside
the span of the rows above them, and those in K_d are the new minimal
syzygies.  This is the greedy pick that re-ranks the stack once per kernel
vector, in the same order: a kernel row passed over lies in the span of
the multiples and the rows picked before it, so the span above each row,
and with it each decision, is the same.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from biliaison import _linalg
from biliaison.grmatrix import (
    _MAX_CELLS, BudgetExhaustedError, CharFunction, GradedMatrix, HomogeneityError, minors,
    ranked_blocks,
)
from biliaison.polyring import FieldSpec, MultiPoly

Expo4 = Tuple[int, int, int, int]
Term = Tuple[int, int, int, int, int]  # (component, e0, e1, e2, e3)


InhomogeneousError = HomogeneityError  # generators must be homogeneous


class TermRangeError(BudgetExhaustedError):
    """A degree or component index does not fit the packed term key."""


_BITS = 10
_R = (1 << _BITS) - 1


def _pack(t: Term) -> int:
    """Packed key of a term; integer order is the module order."""
    comp, e0, e1, e2, e3 = t
    deg = e0 + e1 + e2 + e3
    if not (0 <= comp <= _R and min(e0, e1, e2, e3) >= 0 and deg <= _R):
        raise TermRangeError(f"term {t} exceeds the packed key range (degree, component <= {_R})")
    return ((((deg << _BITS | _R - e3) << _BITS | _R - e2) << _BITS | _R - e1) << _BITS) | _R - comp


def _pack_many(comps, e: np.ndarray) -> np.ndarray:
    """`_pack` of the terms with components ``comps`` and exponent rows
    ``e`` (e0, e1, e2, e3), as int64 keys; the caller checks the range."""
    deg = e.sum(axis=1)
    return (((deg << _BITS | _R - e[:, 3]) << _BITS | _R - e[:, 2]) << _BITS
            | _R - e[:, 1]) << _BITS | _R - comps


def _unpack(k: int) -> Term:
    comp = _R - (k & _R)
    e1 = _R - (k >> _BITS & _R)
    e2 = _R - (k >> 2 * _BITS & _R)
    e3 = _R - (k >> 3 * _BITS & _R)
    return (comp, (k >> 4 * _BITS) - e1 - e2 - e3, e1, e2, e3)


def _check_range(degree: int, ambient_degrees: Sequence[int]) -> None:
    """Every term of a degree-`degree` vector, and of every multiple formed
    while reducing it, fits the packed key (see the module docstring)."""
    if len(ambient_degrees) > _R + 1 or degree - min(ambient_degrees, default=0) > _R:
        raise TermRangeError(
            f"degree {degree} over ambient degrees {tuple(ambient_degrees)} exceeds "
            f"the packed key range (monomial degree <= {_R}, at most {_R + 1} components)"
        )


def _mono_divides(a: Term, b: Term) -> bool:
    """Does the monomial of a divide that of b (same component)?"""
    return a[1] <= b[1] and a[2] <= b[2] and a[3] <= b[3] and a[4] <= b[4]


def binom3(m: int) -> int:
    """dim of the degree-m piece of k[X,Y,Z,T]; 0 for m < 0."""
    if m < 0:
        return 0
    return (m + 3) * (m + 2) * (m + 1) // 6


def monomials_of_degree(d: int) -> List[Expo4]:
    """All exponent vectors of total degree d, in a fixed deterministic order."""
    if d < 0:
        return []
    out = []
    for e0 in range(d, -1, -1):
        for e1 in range(d - e0, -1, -1):
            for e2 in range(d - e0 - e1, -1, -1):
                out.append((e0, e1, e2, d - e0 - e1 - e2))
    return out


class _Vec:
    """Homogeneous element of the ambient free module (internal): its packed
    term keys, int64 and strictly ascending, and their nonzero coefficients,
    int64 in [1, p); the lead is the last key."""

    __slots__ = ("keys", "coefs", "degree")

    def __init__(self, keys: np.ndarray, coefs: np.ndarray, degree: int):
        self.keys = keys
        self.coefs = coefs
        self.degree = degree

    def lead_key(self) -> int:
        return int(self.keys[-1])

    def lead(self) -> Term:
        return _unpack(self.lead_key())

    def is_zero(self) -> bool:
        return not len(self.keys)


class _DegreePieces:
    """Sorted packed keys of the degree pieces of one ambient module, built on
    first use (one instance per Buchberger run or presentation)."""

    __slots__ = ("ambient_degrees", "_keys", "_monomial_keys")

    def __init__(self, ambient_degrees: Sequence[int]):
        self.ambient_degrees = ambient_degrees
        self._keys: Dict[int, np.ndarray] = {}
        self._monomial_keys: Dict[int, np.ndarray] = {}

    def _monomials(self, m: int) -> np.ndarray:
        """Keys of the degree-m monomials in component 0 (m <= _R, checked by
        the callers' `_check_range`)."""
        keys = self._monomial_keys.get(m)
        if keys is None:
            keys = _pack_many(0, np.array(monomials_of_degree(m), dtype=np.int64).reshape(-1, 4))
            self._monomial_keys[m] = keys
        return keys

    def shifts(self, m: int) -> np.ndarray:
        """key(x^u t) - key(t) for every monomial x^u of degree m."""
        return self._monomials(m) - self._monomials(0)[0]

    def __call__(self, d: int) -> np.ndarray:
        keys = self._keys.get(d)
        if keys is None:
            _check_range(d, self.ambient_degrees)
            size = sum(binom3(d - a) for a in self.ambient_degrees)
            if size > _MAX_CELLS:
                raise TermRangeError(
                    f"the degree-{d} piece has {size} terms, more than {_MAX_CELLS}"
                )
            # the component is the lowest field, stored as R - comp
            parts = [self._monomials(d - a) - comp for comp, a in enumerate(self.ambient_degrees)]
            keys = np.sort(np.concatenate(parts)) if parts else np.empty(0, np.int64)
            self._keys[d] = keys
        return keys


class _Reducers:
    """Monic basis elements with a reducer table per degree piece.

    For each degree piece d in use, ``table(d)[i]`` is the index (in insertion
    order) of the first element whose lead divides the term ``pieces(d)[i]``,
    or -1 if none does.  A table is built on first use from the elements
    present then; adding an element drops the tables, so a table always
    names the reducer the first-divisor rule picks, and a finished degree's
    table, which Buchberger never reads again, is not marked.
    """

    __slots__ = ("pieces", "basis", "p", "_tables")

    def __init__(self, pieces: _DegreePieces, p: int):
        self.pieces = pieces
        self.p = p
        self.basis: List[_Vec] = []
        self._tables: Dict[int, np.ndarray] = {}

    def add(self, v: _Vec) -> int:
        """Append v; returns its index."""
        self.basis.append(v)
        self._tables.clear()
        return len(self.basis) - 1

    def table(self, d: int) -> np.ndarray:
        table = self._tables.get(d)
        if table is None:
            keys = self.pieces(d)
            table = np.full(len(keys), -1, dtype=np.int32)
            for i, g in enumerate(self.basis):
                m = d - g.degree  # the lead has monomial degree g.degree - a_comp
                if m >= 0:
                    pos = keys.searchsorted(g.lead_key() + self.pieces.shifts(m))
                    table[pos[table[pos] < 0]] = i
            self._tables[d] = table
        return table


class SubmodulePresentation:
    """A submodule of a graded free module with a cached Groebner basis."""

    def __init__(
        self,
        field: FieldSpec,
        ambient_degrees: Tuple[int, ...],
        gb: List[_Vec],
        truncated_at: Optional[int],
    ):
        self.field = field
        self.ambient_degrees = ambient_degrees
        self.gb = gb
        self.truncated_at = truncated_at
        self._by_component: Dict[int, List[_Vec]] = {}
        for v in gb:
            self._by_component.setdefault(v.lead()[0], []).append(v)
        self._shifts: Optional[Dict[int, int]] = None  # s -> count_s of the Hilbert series

    # --- leading term data -------------------------------------------------
    def leading_components(self) -> List[int]:
        return sorted(self._by_component)

    def lt_generators(self, comp: int) -> List[Expo4]:
        """Minimal generators of the leading-term ideal in ``comp``: the leads
        of the reduced basis there."""
        return [v.lead()[1:] for v in self._by_component.get(comp, [])]

    # --- Hilbert data ----------------------------------------------------------
    def _shift_counts(self) -> Dict[int, int]:
        """count_s of the Hilbert series sum_s count_s t^s / (1 - t)^4, read off
        the leads (see "Hilbert polynomials, exact")."""
        if self._shifts is None:
            counts: Dict[int, int] = {}
            for comp in self._by_component:
                a = self.ambient_degrees[comp]
                counts[a] = counts.get(a, 0) + 1
                for j, c in enumerate(_hilbert_numerator(self.lt_generators(comp))):
                    counts[a + j] = counts.get(a + j, 0) - c
            self._shifts = counts
        return self._shifts

    def hilbert_polynomial(self) -> "HilbertPolynomial":
        """The Hilbert polynomial, exact: equal to the Hilbert function from
        degree max s - 3 on.  A truncated basis raises `BudgetExhaustedError`."""
        if self.truncated_at is not None:
            raise BudgetExhaustedError(
                f"the basis is truncated at degree {self.truncated_at}; "
                "its Hilbert polynomial needs a full basis"
            )
        return HilbertPolynomial.shifted(self._shift_counts())


@dataclass(frozen=True)
class HilbertPolynomial:
    """Polynomial in n of degree <= 3 with rational coefficients (c0..c3)."""

    coeffs: Tuple[Fraction, Fraction, Fraction, Fraction]

    @staticmethod
    def from_coeffs(cs: Sequence) -> "HilbertPolynomial":
        cs = [Fraction(c) for c in cs]
        while len(cs) < 4:
            cs.append(Fraction(0))
        if len(cs) > 4:
            raise ValueError("degree must be <= 3")
        return HilbertPolynomial(tuple(cs))

    @staticmethod
    def binomial_shift(k: int) -> "HilbertPolynomial":
        """C(n - k + 3, 3) as a cubic in n."""
        return HilbertPolynomial.shifted({k: 1})

    @staticmethod
    def shifted(counts: Dict[int, int]) -> "HilbertPolynomial":
        """sum_s counts[s] * C(n - s + 3, 3), summed in integers as six
        times the coefficients: C(n - s + 3, 3) = (n + a)(n + b)(n + c) / 6
        with a, b, c = 3 - s, 2 - s, 1 - s."""
        six = [0, 0, 0, 0]
        for s, m in counts.items():
            a, b, c = 3 - s, 2 - s, 1 - s
            for i, x in enumerate((a * b * c, a * b + a * c + b * c, a + b + c, 1)):
                six[i] += m * x
        return HilbertPolynomial(tuple(Fraction(x, 6) for x in six))

    def __call__(self, n: int) -> Fraction:
        c0, c1, c2, c3 = self.coeffs
        return c0 + n * (c1 + n * (c2 + n * c3))

    def __add__(self, other: "HilbertPolynomial") -> "HilbertPolynomial":
        return HilbertPolynomial(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "HilbertPolynomial") -> "HilbertPolynomial":
        return HilbertPolynomial(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def to_json(self) -> List[str]:
        return [str(c) for c in self.coeffs]

    def __str__(self) -> str:
        return " + ".join(f"({c})*n^{k}" for k, c in enumerate(self.coeffs) if c != 0) or "0"


# ---------------------------------------------------------------------------
# conversion between term tables and vectors


def _column_vecs(gens: GradedMatrix) -> List[_Vec]:
    """The columns of ``gens`` as vectors over its row degrees, packed from
    its term table: the component of a term is its row."""
    if gens.ncols:
        _check_range(max(gens.col_degrees), gens.row_degrees)
    if gens.has_parameter():
        raise ValueError("specialize the parameter before Groebner computations")
    gens.validate_homogeneity()
    _, exps, coefs = gens.term_table()
    comps, cols = gens.term_rows_cols()
    keys = _pack_many(comps, exps[:, :4])
    order = np.lexsort((keys, cols))  # by column, then ascending key
    keys, coefs = keys[order], coefs[order]
    bounds = cols[order].searchsorted(np.arange(gens.ncols + 1)).tolist()
    return [_Vec(keys[lo:hi], coefs[lo:hi], degree)
            for degree, lo, hi in zip(gens.col_degrees, bounds, bounds[1:])]


# ---------------------------------------------------------------------------
# reduction and Buchberger


def _dense(vec: _Vec, keys: np.ndarray) -> np.ndarray:
    """Coefficient array of vec over the degree piece with sorted ``keys``.

    A key outside the piece raises `TermRangeError`; it never lands in the
    neighbouring slot that `searchsorted` would name.
    """
    pos = keys.searchsorted(vec.keys)
    if not (pos < len(keys)).all() or (keys[pos] != vec.keys).any():
        raise TermRangeError(f"a term of the vector is not in the degree-{vec.degree} piece")
    work = np.zeros(len(keys), dtype=np.int64)
    work[pos] = vec.coefs
    return work


def _row_vec(row: np.ndarray, keys: np.ndarray, degree: int) -> _Vec:
    """The vector with the coefficients ``row`` at the ascending term keys
    ``keys``, zero coefficients dropped."""
    nz = row.nonzero()[0]
    return _Vec(keys[nz], row[nz], degree)


def _sub_scaled(flat: np.ndarray, at: np.ndarray, gc: np.ndarray, coeffs: np.ndarray) -> None:
    """One reduction step: flat[at[k]] -= coeffs[k] * gc for every k, in place
    and without reducing mod p, where ``at[k]`` are the flat positions of
    x^m * g in the k-th row and ``gc`` its coefficients."""
    flat[at] -= coeffs[:, None] * gc


def _normal_form(work: np.ndarray, reducers: _Reducers, degree: int) -> np.ndarray:
    """Fully reduce every row of the block ``work`` (entries in [0, p)) over
    the degree piece; returns the reduced block, entries in [0, p), which is
    ``work`` itself when it is C-contiguous.

    Columns are visited from the largest down.  At a column the piece's table
    names a reducer for, one `_sub_scaled` step removes that column, read
    mod p, from every row that is nonzero there.  A reduction at a column
    only changes columns below it, so each row takes exactly the steps it
    would take alone.  Only columns that are nonzero in the input or in a
    multiple used since can be nonzero: those are the candidates.  The
    steps do not reduce mod p: a step lowers an entry by at most (p - 1)^2,
    so the block is reduced mod p after every K steps (see the module
    docstring) and once at the end.
    """
    p = reducers.p
    keys = reducers.pieces(degree)
    table = reducers.table(degree)
    reducible = table >= 0
    work = np.ascontiguousarray(work)
    flat, width = work.reshape(-1), work.shape[1]
    delay = _linalg.reduction_delay(p)
    steps = 0
    candidates = work.any(axis=0) & reducible
    top = width
    while True:
        live = candidates[:top].nonzero()[0]
        if not live.size:
            work %= p
            return work
        top = int(live[-1])
        column = work[:, top] % p
        rows = column.nonzero()[0]
        if rows.size:
            if steps == delay:
                work %= p
                steps = 0
            g = reducers.basis[table[top]]
            pos = keys.searchsorted(g.keys + (int(keys[top]) - g.lead_key()))
            _sub_scaled(flat, rows[:, None] * width + pos, g.coefs, column[rows])
            steps += 1
            candidates[pos[reducible[pos]]] = True


def _s_vectors(
    pairs: Sequence[Tuple[int, int, int]], basis: List[_Vec], keys: np.ndarray, p: int
) -> np.ndarray:
    """Block of the S-vectors x^mi g_i - x^mj g_j over the piece ``keys``, one
    row per pair (i, j, key of the lcm of the leads) of monic elements."""
    n = len(keys)
    work = np.zeros((len(pairs), n), dtype=np.int64)
    flat = work.reshape(-1)
    offsets = np.arange(len(pairs)) * n
    for side, sign in ((0, 1), (1, -1)):
        gs = [basis[pair[side]] for pair in pairs]
        shifted = [g.keys + (pair[2] - g.lead_key()) for g, pair in zip(gs, pairs)]
        at = keys.searchsorted(np.concatenate(shifted)) + np.repeat(offsets, [len(k) for k in shifted])
        flat[at] = (flat[at] + sign * np.concatenate([g.coefs for g in gs])) % p
    return work


def _echelon_basis(work: np.ndarray, keys: np.ndarray, degree: int, p: int) -> List[_Vec]:
    """Monic elements spanning the rows of a reduced block, interreduced: the
    reduced row echelon form over the live columns, largest key first, so
    each pivot is its row's lead.  Each row is handed over reversed, so its
    keys ascend."""
    work = work[work.any(axis=1)]
    cols = work.any(axis=0).nonzero()[0][::-1]
    rref, pivots = _linalg.rref_mod_p(work[:, cols], p)
    keys = keys[cols[::-1]]
    return [_row_vec(row[::-1], keys, degree) for row in rref[:len(pivots)]]


def _buchberger(
    gens: List[_Vec], field: FieldSpec, ambient_degrees: Tuple[int, ...],
    degree_cap: Optional[int],
) -> Tuple[List[_Vec], Optional[int]]:
    pieces = _DegreePieces(ambient_degrees)
    p = field.characteristic
    reducers = _Reducers(pieces, p)
    basis = reducers.basis
    leads: List[Term] = []
    by_comp: Dict[int, List[int]] = {}  # component -> indices of the elements leading there

    pairs: List[Tuple[int, int, int, int]] = []  # heap of (degree, counter, i, j)
    counter = 0
    processed = set()

    def lcm_term(a: Term, b: Term) -> Term:
        return (a[0], max(a[1], b[1]), max(a[2], b[2]), max(a[3], b[3]), max(a[4], b[4]))

    def add(v: _Vec) -> None:
        nonlocal counter
        j = reducers.add(v)
        lj = v.lead()
        leads.append(lj)
        same = by_comp.setdefault(lj[0], [])
        for i in same:
            L = lcm_term(leads[i], lj)
            deg = L[1] + L[2] + L[3] + L[4] + ambient_degrees[lj[0]]
            heapq.heappush(pairs, (deg, counter, i, j))
            counter += 1
        same.append(j)

    pending: Dict[int, List[_Vec]] = {}  # degree -> generators not yet fed in
    for g in gens:
        if not g.is_zero():
            pending.setdefault(g.degree, []).append(g)

    truncated_at: Optional[int] = None
    while pairs or pending:
        deg = min(list(pending) + ([pairs[0][0]] if pairs else []))
        if degree_cap is not None and deg > degree_cap:
            truncated_at = degree_cap
            break
        # every pair of the lowest degree at once: an element found here has a
        # lead no earlier lead divides, so all of its pairs have higher degree
        batch: List[Tuple[int, int, int]] = []
        while pairs and pairs[0][0] == deg:
            _, _, i, j = heapq.heappop(pairs)
            L = lcm_term(leads[i], leads[j])
            # chain criterion: an element k with LT_k | lcm and both (i,k), (j,k)
            # already handled makes this pair redundant
            if not any(
                k != i and k != j and _mono_divides(leads[k], L)
                and (min(i, k), max(i, k)) in processed and (min(j, k), max(j, k)) in processed
                for k in by_comp[L[0]]
            ):
                batch.append((i, j, _pack(L)))
            processed.add((i, j))
        rows = pending.pop(deg, [])
        if not batch and not rows:
            continue
        # the generators of this degree, then the S-vectors, in chunks of at
        # most _MAX_CELLS cells; each chunk is echeloned together with the
        # elements found before it
        keys = pieces(deg)
        new: List[_Vec] = []
        step = max(1, _MAX_CELLS // len(keys))
        for start in range(0, len(rows) + len(batch), step):
            stop = start + step
            parts = [_dense(g, keys)[None] for g in rows[start:stop]]
            chunk = batch[max(0, start - len(rows)):max(0, stop - len(rows))]
            if chunk:
                parts.append(_s_vectors(chunk, basis, keys, p))
            work = _normal_form(np.concatenate(parts), reducers, deg)
            found = [_dense(v, keys)[None] for v in new]
            new = _echelon_basis(np.concatenate(found + [work]), keys, deg, p)
        for v in new:
            add(v)
    return basis, truncated_at


def groebner_basis(gens: GradedMatrix, degree_cap: Optional[int] = None) -> SubmodulePresentation:
    """Reduced Groebner basis of the column module of ``gens``.

    ``degree_cap`` bounds the degree of the S-pairs and of the generators
    the run takes in; None, the default, means no cap.  The presentations
    are kept on ``gens`` by cap, and a run that never reached its cap is a
    full basis, which serves every cap.
    """
    bases = gens.kept("groebner", dict)  # cap -> presentation; None -> a full basis
    pres = bases.get(degree_cap, bases.get(None))
    if pres is None:
        field = gens.field
        ambient_degrees = gens.row_degrees
        gb, truncated_at = _buchberger(_column_vecs(gens), field, ambient_degrees, degree_cap)
        pres = SubmodulePresentation(field, ambient_degrees, gb, truncated_at)
        bases[degree_cap] = pres
        if truncated_at is None:
            bases[None] = pres
    return pres


def leading_component_rank(gens: GradedMatrix) -> int:
    """Rank of the column module = number of components hit by leading terms."""
    return len(groebner_basis(gens).leading_components())


# ---------------------------------------------------------------------------
# Hilbert-series numerator of a monomial ideal


def _minimalize_monomials(gens: List[Expo4]) -> List[Expo4]:
    """The minimal generators of the monomial ideal, by ascending degree."""
    out: List[Expo4] = []
    for e in sorted(set(gens), key=sum):
        a, b, c, d = e
        if not any(f0 <= a and f1 <= b and f2 <= c and f3 <= d for f0, f1, f2, f3 in out):
            out.append(e)
    return out


def _poly_shift_add(a: List[int], b: List[int], shift: int) -> List[int]:
    n = max(len(a), len(b) + shift)
    out = [0] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i + shift] += c
    while out and out[-1] == 0:
        out.pop()
    return out


def _hilbert_numerator(gens: List[Expo4]) -> List[int]:
    """Numerator of the Hilbert series of R/I over (1-t)^4, I monomial."""
    gens = _minimalize_monomials(gens)
    if not gens:
        return [1]
    if gens[0] == (0, 0, 0, 0):
        return []
    counts = [sum(1 for e in gens if e[v]) for v in range(4)]
    if max(counts) <= 1:  # pairwise support-disjoint generators: product formula
        num = [1]
        for e in gens:
            num = _poly_mul(num, [1] + [0] * (sum(e) - 1) + [-1])
        return num
    # pivot on the most shared variable
    var = counts.index(max(counts))
    unit = (0,) * var + (1,) + (0,) * (3 - var)
    plus = [e for e in gens if e[var] == 0] + [unit]
    colon = [e[:var] + (e[var] - 1,) + e[var + 1:] if e[var] else e for e in gens]
    return _poly_shift_add(_hilbert_numerator(plus), _hilbert_numerator(colon), 1)


def _poly_mul(a: List[int], b: List[int]) -> List[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return out


# ---------------------------------------------------------------------------
# degreewise linear algebra: dimensions, minimal generators, syzygies


def _monomial_index(e: np.ndarray) -> np.ndarray:
    """Position of each exponent row (e0, e1, e2, e3) (last axis) in
    `monomials_of_degree` of its degree: C(e1+e2+e3+2, 3) monomials come first
    by a larger e0, C(e2+e3+1, 2) by a larger e1, and e3 by a larger e2."""
    s1, s2 = e[..., 1:].sum(axis=-1), e[..., 2:].sum(axis=-1)
    return (s1 + 2) * (s1 + 1) * s1 // 6 + (s2 + 1) * s2 // 2 + e[..., 3]


def _span_matrix_mod_p(gens: GradedMatrix, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Matrix whose columns are monomial multiples of generator columns.

    Rows are indexed by the degree-n basis of the ambient module, and
    columns by their labels (generator, e0, e1, e2, e3), generator-major,
    each generator's monomials in the order of `monomials_of_degree`; the
    labels are returned with the matrix.  Every term of a generator meets
    every column of that generator, and no two terms of one column land in
    the same row, so one indexed store fills the matrix.
    """
    row_at = np.cumsum([0] + [binom3(n - d) for d in gens.row_degrees])  # where each component starts
    labels = np.array([(j,) + e for j, d in enumerate(gens.col_degrees) for e in monomials_of_degree(n - d)],
                      dtype=np.int64).reshape(-1, 5)
    col_at = labels[:, 0].searchsorted(np.arange(gens.ncols + 1))
    _, exps, coefs = gens.term_table()
    comps, gen = gens.term_rows_cols()
    count = col_at[gen + 1] - col_at[gen]  # the columns each term meets
    term = np.repeat(np.arange(len(coefs)), count)
    col = np.arange(len(term)) + np.repeat(col_at[gen] - (count.cumsum() - count), count)
    mat = np.zeros((row_at[-1], col_at[-1]), dtype=np.int64)
    mat[row_at[comps[term]] + _monomial_index(exps[term, :4] + labels[col, 1:]), col] = coefs[term]
    return mat, labels


def minimal_generator_count(gens: GradedMatrix) -> CharFunction:
    """Minimal generators needed per degree (dim F_d modulo m*F at each d).

    The multiples in m*F are the columns of the degree-d span matrix whose
    generator has degree < d.
    """
    if gens.ncols == 0:
        return CharFunction()
    if gens.has_parameter():
        raise ValueError("specialize the parameter first")
    p = gens.field.characteristic
    out: Dict[int, int] = {}
    for d in range(min(gens.col_degrees), max(gens.col_degrees) + 1):
        full, labels = _span_matrix_mod_p(gens, d)
        proper = np.flatnonzero(np.array(gens.col_degrees)[labels[:, 0]] < d)
        mu = _linalg.rank_mod_p(full, p) - _linalg.rank_mod_p(full[:, proper], p)
        if mu:
            out[d] = mu
    return CharFunction(out)


def syzygies(gens: GradedMatrix, up_to_degree: int) -> GradedMatrix:
    """Minimal syzygies among the columns, in degrees <= up_to_degree.

    Degree by degree, the pivot rows that fall in K_d of the stack
    [variable multiples of K_{d-1}; K_d], from one forward elimination: the
    greedy pick over the kernel basis in its order, since a kernel row
    passed over lies in the span of the multiples and the rows picked
    before it (see "Minimal syzygies" above).
    """
    if gens.has_parameter():
        raise ValueError("specialize the parameter first")
    p = gens.field.characteristic
    picked: List[Tuple[int, np.ndarray, np.ndarray]] = []  # (d, row, labels)
    prev = np.zeros((0, 0), dtype=np.int64)  # K_{d-1}
    prev_labels = np.zeros((0, 5), dtype=np.int64)
    for d in range(min(gens.col_degrees, default=0), up_to_degree + 1):
        mat, labels = _span_matrix_mod_p(gens, d)
        kernel = _linalg.nullspace_mod_p(mat, p)
        # shift[v, i]: the degree-d column of x_v times degree-(d-1) label i
        up = prev_labels[None, :, 1:] + np.eye(4, dtype=np.int64)[:, None, :]
        shift = labels[:, 0].searchsorted(prev_labels[:, 0]) + _monomial_index(up)
        multiples = np.zeros((len(prev), 4, len(labels)), dtype=np.int64)
        multiples[:, np.arange(4)[:, None], shift] = prev[:, None, :]
        stack = np.vstack([multiples.reshape(4 * len(prev), len(labels)), kernel])
        new = [i - 4 * len(prev) for i in _linalg.pivots_mod_p(stack.T, p) if i >= 4 * len(prev)]
        picked += [(d, kernel[i], labels) for i in new]
        prev, prev_labels = kernel, labels
    # the syzygy matrix: a row per generator column of the input, a column per syzygy
    parts = [(np.zeros(0, dtype=np.int64), np.zeros((0, 4), dtype=np.int64), np.zeros(0, dtype=np.int64))]
    for c, (_, row, labels) in enumerate(picked):
        nz = np.flatnonzero(row)
        parts.append((labels[nz, 0] * len(picked) + c, labels[nz, 1:], row[nz]))
    cells, monos, coefs = (np.concatenate(a) for a in zip(*parts))
    exps = np.pad(monos, ((0, 0), (0, 1)))
    order = np.lexsort(tuple(exps.T[::-1]) + (cells,))  # the order of a term table
    return GradedMatrix.from_terms(gens.field, gens.col_degrees, [d for d, _, _ in picked],
                                   cells[order], exps[order], coefs[order])


# ---------------------------------------------------------------------------
# local freeness: constant rank and empty projective loci

MINOR_LIMIT = 20000  # most rank-level minors of one block that are enumerated


def has_constant_rank(m: GradedMatrix) -> bool:
    """Does m (free of the parameter) have its generic rank at every point of P^3?

    Exactly then the cokernel sheaf is locally free (Fitting ideals; Eisenbud,
    Commutative Algebra, GTM 150, ch. 20).  Per block of rank r the r-minors
    must cut out the empty set; a block with more than `MINOR_LIMIT`
    rank-level minors raises `BudgetExhaustedError` before any certificate
    work.  `_minors_fill_top_degree` certifies a block when seeded
    combinations det(V B U), one family per degree pattern of the minors,
    span every form of the minors' top degree; the draws are seeded by the
    block's fingerprint and choose only the certificate (see "Local
    freeness by values").  A block it leaves open takes the symbolic minors
    and `is_empty_projective_locus`, which decides.  Each block keeps its
    verdict ("locally_free"), so a second check is free, and `qprofile`
    counts a block kept as locally free as coprime at its rank.
    """
    for sub, r in ranked_blocks(m):
        count = comb(sub.nrows, r) * comb(sub.ncols, r)
        if count > MINOR_LIMIT:
            raise BudgetExhaustedError(
                f"a {sub.nrows}x{sub.ncols} block of rank {r} has {count} rank-level "
                f"minors, more than the {MINOR_LIMIT} that are enumerated"
            )
        if not sub.kept("locally_free", lambda: _minors_fill_top_degree(sub, r)
                        or _minors_cut_out_nothing(sub, r)):
            return False
    return True


def _minors_cut_out_nothing(sub: GradedMatrix, r: int) -> bool:
    """The symbolic route: do the distinct r-minors cut out the empty set?"""
    return is_empty_projective_locus(dict.fromkeys(d.monic() for d in minors(sub, r) if not d.is_zero()))


def _degree_patterns(degrees: Tuple[int, ...], r: int) -> List[Tuple[Tuple[int, ...], int]]:
    """Each multiset of degrees that r distinct indices of ``degrees`` take,
    ascending, with the number of index sets that take it."""
    have = [(d, degrees.count(d)) for d in sorted(set(degrees))]
    out = [((), 1)]
    for i, (d, n) in enumerate(have):
        later = sum(k for _, k in have[i + 1:])
        out = [(pick + (d,) * j, count * comb(n, j)) for pick, count in out
               for j in range(max(0, r - len(pick) - later), min(n, r - len(pick)) + 1)]
    return out


def _minors_fill_top_degree(sub: GradedMatrix, r: int) -> bool:
    """Do seeded combinations of the r-minors of ``sub`` span every form of
    their top degree D?

    If so the minors cut out the empty set; False only means that these
    combinations do not decide at D (see "Local freeness by values").  They
    are evaluated on the lattice {(1, a, b, c, 0) : a + b + c <= D} in
    chunks of at most _MAX_CELLS cells, and the chunks stop as soon as the
    span is full.  D >= p, or a lattice too large for a _MAX_CELLS-cell
    span, leaves the block to the symbolic route.
    """
    p = sub.field.characteristic
    top = sum(sorted(sub.col_degrees)[-r:]) - sum(sorted(sub.row_degrees)[:r])
    size = binom3(top)
    if top >= p or size * size > _MAX_CELLS:
        return False
    lattice = np.array(monomials_of_degree(top), dtype=np.int64)[:, 1:]
    points = np.zeros((size, 5), dtype=np.int64)
    points[:, 0], points[:, 1:4] = 1, lattice
    values = sub.evaluate_many(points)[None]
    powers = np.ones((top + 1, 3, size), dtype=np.int64)  # powers[k] = (a, b, c)^k
    for k in range(1, top + 1):
        powers[k] = powers[k - 1] * lattice.T % p
    # the degree patterns of degree e >= 0, lowest first, and the combinations
    # each takes; V and U of a combination are zero outside its pattern's classes
    patterns = sorted(((sum(cols) - sum(rows), rows, cols, m * n)
                       for rows, m in _degree_patterns(sub.row_degrees, r)
                       for cols, n in _degree_patterns(sub.col_degrees, r) if sum(cols) >= sum(rows)),
                      key=lambda pattern: pattern[0])
    takes = [min(count, binom3(e) + 2) for e, _, _, count in patterns]
    degrees = np.repeat([e for e, _, _, _ in patterns], takes)
    row_mask = np.repeat([np.equal.outer(rows, sub.row_degrees) for _, rows, _, _ in patterns], takes, axis=0)
    col_mask = np.repeat([np.equal.outer(sub.col_degrees, cols) for _, _, cols, _ in patterns], takes, axis=0)
    multiples = {}  # e -> values of the monomials of degree D - e, one row each
    for e in sorted(set(degrees.tolist())):
        x = np.array(monomials_of_degree(top - e), dtype=np.int64)
        multiples[e] = powers[x[:, 1], 0] * powers[x[:, 2], 1] % p * powers[x[:, 3], 2] % p
    widest = max(r * sub.ncols, max(len(v) for v in multiples.values()))
    step = max(1, _MAX_CELLS // (size * widest))
    rng = random.Random(int(sub.fingerprint()[12:24], 16))  # `_eval_points` takes [:12]
    span = np.zeros((0, size), dtype=np.int64)
    for start in range(0, len(degrees), step):
        at = slice(start, start + step)
        chunk = degrees[at]
        draws = _linalg.random_residues(rng, p, len(chunk) * r * (sub.nrows + sub.ncols))
        cut = len(chunk) * r * sub.nrows
        v = draws[:cut].reshape(-1, 1, r, sub.nrows) * row_mask[at, None]
        u = draws[cut:].reshape(-1, 1, sub.ncols, r) * col_mask[at, None]
        stack = _linalg.matmul_mod_p(_linalg.matmul_mod_p(v, values, p), u, p)
        dets = _linalg.det_mod_p(stack.reshape(-1, r, r), p).reshape(-1, size)
        parts = [span] + [(dets[chunk == e, None] * mono).reshape(-1, size) % p
                          for e, mono in multiples.items()]
        span, pivots = _linalg.rref_mod_p(np.concatenate(parts), p)
        if len(pivots) == size:
            return True
        span = span[:len(pivots)]
    return False


def is_empty_projective_locus(gens: Iterable[MultiPoly]) -> bool:
    """Do homogeneous generators, free of the parameter, cut out the empty set in P^3?

    A nonzero constant settles it at once.  Otherwise one uncapped Groebner
    basis decides: the locus is empty iff its leading-term ideal contains a
    pure power of each variable.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return False
    for g in gens:
        if g.has_parameter():
            raise ValueError("locus generators must not involve the parameter a")
        if not g.is_homogeneous():
            raise InhomogeneousError("locus generators must be homogeneous")
        if g.is_constant():
            return True
    matrix = GradedMatrix(gens[0].field, [0], [int(g.degree) for g in gens], [gens], validate=False)
    lts = groebner_basis(matrix).lt_generators(0)
    return all(any(e[var] == sum(e) for e in lts) for var in range(4))
