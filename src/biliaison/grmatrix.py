"""Graded free modules, characteristic functions and graded matrices.

A `GradedMatrix` is a degree-zero map between graded free modules, stored as
row degrees, column degrees and one term table: the cell, exponent and
coefficient of every term as int64 arrays, sorted (entry (i, j) is
homogeneous of degree col_deg[j] - row_deg[i]; the parameter `a` counts
degree 0).  On top of it: column truncations, closed-point specialization,
exact rank over the fraction field, minor enumeration, and rank over
the local ring at a codimension-1 point (a hypersurface).

Submatrices, truncations, the block decomposition, stacking, identities,
homogeneity checks, the batched evaluation at many points, the fingerprint
and the determinant grids all work on term tables, as do the product and
the closed-point specialization, kept on the matrix.  The product joins two
tables on the inner index, run by run: a run is a stretch of consecutive
rows of A meeting at most `_MAX_CELLS // 8` pairs of terms, or a single
row, so a run's pairs, not the whole product's, bound its memory.  The
grid of `MultiPoly` entries is a view for the symbolic paths only:
parsing, printing and JSON, and rank modulo a hypersurface.  A matrix
built from a grid keeps it; any other builds it from the table on first
use.

A result about a matrix is kept on that matrix (`GradedMatrix.kept`), and
every module stores through that one method: the entries, the
fingerprint and the closed point here, the block decomposition, the
blocks with their ranks (`ranked_blocks`) and each block's point
rank, each block's local-freeness verdict (`modgb.has_constant_rank`,
which `qprofile` reads with `GradedMatrix.known`, building nothing), the
Groebner presentations by degree cap (`modgb.groebner_basis`), the
q-profiles by window and seed (`qprofile.compute_q_profile`), and the
composite s_t * v on a lift v (`families`).  Each is computed once per
matrix and freed with it by reference counting alone: no kept result refers
back to the matrix that keeps it (a matrix free of the parameter is its own
closed point, and a Groebner presentation holds its basis, not its
generators), so nothing waits for the cyclic collector.  There is no
module-level cache: a matrix derived again is a new object with nothing
kept, so code that needs a result twice passes the matrix it already has.
`truncate_columns` returns the matrix itself when it keeps every column,
and else keeps on the truncation a parent free of the parameter.

Minors and determinants of every size take one route, evaluation plus
exact linear algebra mod p (`_interpolated_minors`): the matrix is
evaluated once on a grid, the determinants of all the submatrices asked
for are taken mod p in one batch, and interpolation recovers each minor at
its own degree (a minor up to 3 x 3 too large for the grid expands along
its first row into smaller ones).  Evaluation at a seeded point
certifies a block whose rank there meets an exact upper bound (its size, a
block that kills it, or the block of the matrix it was truncated from; see
`ranked_blocks`); any other block takes a Groebner leading-component count.
Rank modulo a linear form substitutes for one variable; rank modulo a
hypersurface f of higher degree is the one symbolic elimination, pivoting
on entries coprime to f over S/(f) (`_eliminate_mod`).  Neither accepts the
parameter a.  Everything is exact; sampling only ever produces
certificates, never answers.
"""

from __future__ import annotations

import itertools
import json
import random
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

# SHA-256 from the interpreter's built-in module, the one the standard
# library falls back to without OpenSSL: the same digests, and no libcrypto
# (3.5 MB resident) loaded into the process.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:  # an interpreter built without either
        from hashlib import sha256

from biliaison import _linalg
from biliaison.polyring import (
    FieldSpec,
    MultiPoly,
    PARAM_INDEX,
    gcd,
)

T = TypeVar("T")


class HomogeneityError(ValueError):
    """An entry fails the degree constraint col_deg - row_deg."""


class BudgetExhaustedError(RuntimeError):
    """A degree budget was too small for the requested computation."""


class InterpolationRangeError(BudgetExhaustedError):
    """A determinant needs more interpolation points than the field has."""


class RankBoundError(RuntimeError):
    """A block's rank at a point exceeds the exact upper bound on its rank:
    a product or an evaluation is broken."""


class CharFunction:
    """Finitely supported map degree -> multiplicity (the shape of L)."""

    __slots__ = ("support",)

    def __init__(self, support: Optional[Dict[int, int]] = None):
        self.support: Dict[int, int] = {}
        if support:
            for d, m in support.items():
                if m < 0:
                    raise ValueError("multiplicities must be >= 0")
                if m:
                    self.support[int(d)] = int(m)

    def degrees(self) -> List[int]:
        """Sorted degree list with multiplicity."""
        out: List[int] = []
        for d in sorted(self.support):
            out.extend([d] * self.support[d])
        return out

    def rank(self) -> int:
        return sum(self.support.values())

    def __call__(self, n: int) -> int:
        return self.support.get(n, 0)

    def cumulative(self, n: int) -> int:
        """f#(n) = sum of multiplicities in degrees <= n."""
        return sum(m for d, m in self.support.items() if d <= n)

    def weighted_sum(self) -> int:
        """Sum of n * f(n)."""
        return sum(d * m for d, m in self.support.items())

    def __eq__(self, other) -> bool:
        return isinstance(other, CharFunction) and self.support == other.support

    def __hash__(self):
        return hash(tuple(sorted(self.support.items())))

    def __repr__(self):
        inner = ", ".join(f"{d}->{m}" for d, m in sorted(self.support.items()))
        return f"CharFunction({{{inner}}})"

    def to_json(self) -> Dict[str, int]:
        return {str(d): m for d, m in sorted(self.support.items())}

    @staticmethod
    def from_json(obj: Dict[str, int]) -> "CharFunction":
        """The map of a JSON object {"degree": multiplicity}: a float or a
        bool is refused with `ValueError`, not truncated."""
        if not isinstance(obj, dict) or not all(type(m) is int for m in obj.values()):
            raise ValueError("expected an object of integer multiplicities")
        return CharFunction({int(d): m for d, m in obj.items()})


class GradedMatrix:
    """Homogeneous matrix presenting a degree-0 map L2 -> L1."""

    __slots__ = ("field", "row_degrees", "col_degrees", "_terms", "_kept")

    def __init__(
        self,
        field: FieldSpec,
        row_degrees: Sequence[int],
        col_degrees: Sequence[int],
        entries: Sequence[Sequence[MultiPoly]],
        validate: bool = True,
    ):
        """The matrix with a grid of `MultiPoly` entries: converted to the term
        table once, and kept as the matrix's `entries`."""
        grid = tuple(tuple(row) for row in entries)
        if len(grid) != len(row_degrees) or any(len(row) != len(col_degrees) for row in grid):
            raise ValueError("the grid's shape does not match the row and column degrees")
        cells, exps, coefs = [], [], []
        for cell, poly in enumerate(itertools.chain.from_iterable(grid)):
            if validate and poly.field != field:
                raise HomogeneityError(f"entry {divmod(cell, len(col_degrees))} over wrong field")
            keys = sorted(poly.terms)
            cells += [cell] * len(keys)
            exps += keys
            coefs += map(poly.terms.__getitem__, keys)
        self._set(field, row_degrees, col_degrees, (
            np.array(cells, dtype=np.int64),
            np.array(exps, dtype=np.int64).reshape(-1, 5),
            np.array(coefs, dtype=np.int64)))
        self._kept["entries"] = grid
        if validate:
            self.validate_homogeneity()

    @staticmethod
    def from_terms(
        field: FieldSpec, row_degrees: Sequence[int], col_degrees: Sequence[int],
        cells: np.ndarray, exps: np.ndarray, coefs: np.ndarray,
    ) -> "GradedMatrix":
        """The matrix with the term table (cells, exps, coefs), laid out as
        `term_table` describes."""
        m = object.__new__(GradedMatrix)
        m._set(field, row_degrees, col_degrees, (cells, exps, coefs))
        return m

    def _set(self, field: FieldSpec, row_degrees: Sequence[int], col_degrees: Sequence[int], terms) -> None:
        self.field = field
        self.row_degrees = tuple(int(d) for d in row_degrees)
        self.col_degrees = tuple(int(d) for d in col_degrees)
        self._terms = terms
        self._kept: Dict[Hashable, object] = {}

    # shape ----------------------------------------------------------------
    @property
    def nrows(self) -> int:
        return len(self.row_degrees)

    @property
    def ncols(self) -> int:
        return len(self.col_degrees)

    def term_rows_cols(self) -> Tuple[np.ndarray, np.ndarray]:
        """The row and the column of every term of the table."""
        return np.divmod(self._terms[0], max(self.ncols, 1))

    def validate_homogeneity(self) -> None:
        exps, (rows, cols) = self._terms[1], self.term_rows_cols()
        want = (np.array(self.col_degrees, dtype=np.int64)[cols]
                - np.array(self.row_degrees, dtype=np.int64)[rows])
        bad = np.flatnonzero(exps[:, :PARAM_INDEX].sum(axis=1) != want)
        if bad.size:
            i, j = int(rows[bad[0]]), int(cols[bad[0]])
            raise HomogeneityError(
                f"entry ({i},{j}) = {self.entries[i][j]} is not homogeneous of degree {want[bad[0]]}"
            )

    def kept(self, key: Hashable, build: Callable[[], T]) -> T:
        """The result about this matrix kept under ``key``: ``build()`` on the
        first call, the same object on every later one, freed with the matrix."""
        if key not in self._kept:
            self._kept[key] = build()
        return self._kept[key]

    def known(self, key: Hashable):
        """The result kept under ``key``, or None if none is; builds nothing."""
        return self._kept.get(key)

    def fingerprint(self) -> str:
        """Hash of p, the degrees and the sorted term table: the hex SHA-256
        digest, taken with the interpreter's built-in module (`sha256`), equal
        bit for bit to the one OpenSSL gives."""
        def build() -> str:
            h = sha256()
            h.update(repr((self.field.characteristic, self.row_degrees, self.col_degrees)).encode())
            for a in self._terms:
                h.update(a.tobytes())
            return h.hexdigest()
        return self.kept("fingerprint", build)

    def term_table(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(cells, exponents, coefficients) of every term, as int64 arrays.

        Term t is coefficients[t] * x^exponents[t] in the flat cell
        cells[t] = i * ncols + j, with coefficients[t] in [1, p).  The terms
        are sorted by cell, then by exponent, so equal matrices have equal
        tables.
        """
        return self._terms

    @property
    def entries(self) -> Tuple[Tuple[MultiPoly, ...], ...]:
        """The grid of `MultiPoly` entries: the grid the matrix was built from,
        or else built from the term table on first use and kept."""
        return self.kept("entries", self._grid)

    def _grid(self) -> Tuple[Tuple[MultiPoly, ...], ...]:
        cells, exps, coefs = self._terms
        ncols = self.ncols
        bounds = cells.searchsorted(np.arange(self.nrows * ncols + 1)).tolist()
        keys, values = list(map(tuple, exps.tolist())), coefs.tolist()
        flat = [MultiPoly(self.field, dict(zip(keys[lo:hi], values[lo:hi])))
                for lo, hi in zip(bounds, bounds[1:])]
        return tuple(tuple(flat[i * ncols:(i + 1) * ncols]) for i in range(self.nrows))

    # basic operations -------------------------------------------------------
    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "GradedMatrix":
        """The listed rows and columns, each at most once, in the listed order."""
        rows, cols = list(rows), list(cols)
        new_row, new_col = np.full(self.nrows, -1), np.full(self.ncols, -1)
        new_row[rows], new_col[cols] = range(len(rows)), range(len(cols))
        i, j = self.term_rows_cols()
        cells = np.where((new_row[i] < 0) | (new_col[j] < 0), -1, new_row[i] * len(cols) + new_col[j])
        kept = np.argsort(cells, kind="stable")[(cells < 0).sum():]  # a cell's terms keep their order
        return GradedMatrix.from_terms(
            self.field, [self.row_degrees[r] for r in rows], [self.col_degrees[c] for c in cols],
            cells[kept], self._terms[1][kept], self._terms[2][kept])

    def truncate_columns(self, n: int) -> "GradedMatrix":
        """Keep exactly the columns of degree <= n; the matrix itself, with
        what it keeps, when that is every column.

        A truncation of a matrix free of the parameter keeps that matrix as
        its parent: each block of the truncation is a submatrix of the parent
        block with the same rows, whose rank bounds its own (`ranked_blocks`).
        A parent with the parameter, which cannot be ranked, is not kept.
        """
        keep = [j for j, d in enumerate(self.col_degrees) if d <= n]
        if len(keep) == self.ncols:
            return self
        out = self.submatrix(range(self.nrows), keep)
        if not self.has_parameter():
            out._kept["truncated_from"] = self
        return out

    def specialize_closed_point(self) -> "GradedMatrix":
        """Set the parameter a := 0 in every entry: the terms free of a.
        A matrix free of a is its own closed point; any other builds it on
        first use and keeps it."""
        if not self.has_parameter():
            return self

        def build() -> GradedMatrix:
            cells, exps, coefs = self._terms
            keep = exps[:, PARAM_INDEX] == 0
            return GradedMatrix.from_terms(
                self.field, self.row_degrees, self.col_degrees, cells[keep], exps[keep], coefs[keep])
        return self.kept("closed", build)

    def has_parameter(self) -> bool:
        return bool(self._terms[1][:, PARAM_INDEX].any())

    def is_zero_matrix(self) -> bool:
        return not len(self._terms[0])

    def __matmul__(self, other: "GradedMatrix") -> "GradedMatrix":
        """Product on the term tables: every term of A[i, k] meets every term
        of B[k, j]; exponents add, coefficients multiply mod p, and equal
        (cell, exponent) keys are summed.

        The join runs over runs of consecutive rows of A.  A run takes rows
        while its pairs of terms stay within `_MAX_CELLS // 8`, and at least
        one row, so the pair arrays of one run (about 150 bytes a pair, under
        20 MB a run), not the whole product, bound the memory.  Runs hold
        disjoint cells in row order, so their summed tables concatenate into
        the sorted table.
        """
        if self.col_degrees != other.row_degrees:
            raise ValueError("inner degree profiles do not match")
        p = self.field.characteristic
        nrows, inner, ncols = self.nrows, self.ncols, other.ncols
        a_cells, a_exps, a_coefs = self._terms
        b_cells, b_exps, b_coefs = other._terms
        a_k = a_cells % inner  # no terms, so no division, when inner == 0
        b_k = b_cells // ncols  # nondecreasing: the table is sorted by cell
        met = np.bincount(b_k, minlength=inner)[a_k]  # terms of B each term of A meets

        def join(lo: int, hi: int):
            """The summed table of the terms lo:hi of A times B."""
            run = met[lo:hi]
            a_at = np.repeat(np.arange(lo, hi), run)
            b_at = np.repeat(b_k.searchsorted(a_k[lo:hi]) - (run.cumsum() - run), run) + np.arange(len(a_at))
            cells = a_cells[a_at] // inner * ncols + b_cells[b_at] % ncols
            exps = a_exps[a_at] + b_exps[b_at]
            order = np.lexsort(tuple(exps.T[::-1]) + (cells,))  # by cell, then by exponent
            cells, exps = cells[order], exps[order]
            coefs = a_coefs[a_at][order] * b_coefs[b_at][order] % p
            first = np.ones(len(cells), dtype=bool)
            first[1:] = (cells[1:] != cells[:-1]) | (exps[1:] != exps[:-1]).any(axis=1)
            starts = first.nonzero()[0]
            coefs = np.add.reduceat(coefs, starts) % p
            keep = starts[coefs != 0]
            return cells[keep], exps[keep], coefs[coefs != 0]

        budget = _MAX_CELLS // 8
        if met.sum() <= budget:  # one run, with nothing to split or concatenate
            cells, exps, coefs = join(0, len(a_k))
        else:
            bounds = a_cells.searchsorted(np.arange(nrows + 1) * inner)  # the terms of each row
            before = np.concatenate(([0], met.cumsum()))[bounds]  # pairs met before each row
            runs, row = [], 0
            while row < nrows:
                stop = max(row + 1, int(before.searchsorted(before[row] + budget, side="right")) - 1)
                runs.append(join(int(bounds[row]), int(bounds[stop])))
                row = stop
            cells, exps, coefs = (np.concatenate(parts) for parts in zip(*runs))
        return GradedMatrix.from_terms(self.field, self.row_degrees, other.col_degrees, cells, exps, coefs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradedMatrix)
            and self.field == other.field
            and self.row_degrees == other.row_degrees
            and self.col_degrees == other.col_degrees
            and all(np.array_equal(a, b) for a, b in zip(self._terms, other._terms))
        )

    def __hash__(self):
        return hash(self.fingerprint())

    def __repr__(self):
        return f"GradedMatrix({self.nrows}x{self.ncols}, rows={self.row_degrees}, cols={self.col_degrees})"

    # serialization ----------------------------------------------------------
    def to_json(self) -> dict:
        return {
            "field": self.field.to_json(),
            "row_degrees": list(self.row_degrees),
            "col_degrees": list(self.col_degrees),
            "entries": [[str(p) for p in row] for row in self.entries],
        }

    @staticmethod
    def from_json(obj: dict) -> "GradedMatrix":
        field = FieldSpec.from_json(obj["field"])
        degrees = (obj["row_degrees"], obj["col_degrees"])
        if not all(isinstance(ds, list) and all(type(d) is int for d in ds) for ds in degrees):
            raise ValueError("row_degrees and col_degrees must be lists of integers")
        rows = obj["entries"]
        if not (isinstance(rows, list) and all(
                isinstance(row, list) and all(isinstance(s, str) for s in row) for row in rows)):
            raise ValueError("entries must be a list of rows, each a list of polynomial strings")
        entries = [[MultiPoly.parse(s, field) for s in row] for row in rows]
        return GradedMatrix(field, *degrees, entries)

    @staticmethod
    def load(path: str) -> "GradedMatrix":
        with open(path, "r", encoding="utf-8") as fh:
            return GradedMatrix.from_json(json.load(fh))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=1)
            fh.write("\n")

    # evaluation ---------------------------------------------------------------
    def evaluate(self, point: Sequence) -> np.ndarray:
        """Evaluate all entries at a point of F_p^5."""
        return self.evaluate_many([point])[0]

    def evaluate_many(self, points: Sequence[Sequence]) -> np.ndarray:
        """Values of all entries at each point of F_p^5, shape (points, rows, cols).

        One pass over the term table: the powers of the coordinates up to
        the largest exponent, each term's value, and their sums per cell.
        """
        p = self.field.characteristic
        cells, exps, coefs = self._terms
        at = np.array(points, dtype=np.int64).reshape(-1, 5).T % p
        powers = np.ones((int(exps.max(initial=0)) + 1,) + at.shape, dtype=np.int64)
        for e in range(1, len(powers)):
            powers[e] = powers[e - 1] * at % p
        values = np.repeat(coefs[:, None], at.shape[1], axis=1)
        for v in range(5):  # in place: a large matrix at many points makes big arrays
            values *= powers[exps[:, v], v]
            values %= p
        out = np.zeros((self.nrows * self.ncols, at.shape[1]), dtype=np.int64)
        np.add.at(out, cells, values)
        return (out % p).T.reshape(at.shape[1], self.nrows, self.ncols)


# ---------------------------------------------------------------------------
# block decomposition


def block_decomposition(m: GradedMatrix) -> List[Tuple[List[int], List[int]]]:
    """Connected components of the nonzero-entry bipartite graph.

    Rows or columns without nonzero entries belong to no block.
    """
    parent = list(range(m.nrows + m.ncols))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        parent[find(x)] = find(y)

    active_rows, active_cols = set(), set()
    cells = m.term_table()[0]  # sorted, so a nonzero cell starts where the value steps
    rows, cols = np.divmod(cells[np.diff(cells, prepend=-1) != 0], max(m.ncols, 1))
    for i, j in zip(rows.tolist(), cols.tolist()):
        union(i, m.nrows + j)
        active_rows.add(i)
        active_cols.add(j)
    groups: Dict[int, Tuple[List[int], List[int]]] = {}
    for i in sorted(active_rows):
        groups.setdefault(find(i), ([], []))[0].append(i)
    for j in sorted(active_cols):
        groups.setdefault(find(m.nrows + j), ([], []))[1].append(j)
    return [groups[k] for k in sorted(groups, key=lambda k: (min(groups[k][0] + [m.nrows]), min(groups[k][1] + [m.ncols])))]


# ---------------------------------------------------------------------------
# determinants by evaluation and interpolation


# cells of one int64 work array (8 MB), the one memory bound.  Its users:
# determinant slabs (here, in `qprofile`'s plane certificate and `modgb`'s
# lattice), degree pieces (`modgb`) and, an eighth of it in pairs of terms,
# the runs of a product (`GradedMatrix.__matmul__`)
_MAX_CELLS = 1 << 20


def determinant(m: GradedMatrix) -> MultiPoly:
    """Exact determinant of a square graded matrix free of the parameter: its
    one minor on every row and column (`_interpolated_minors`), homogeneous
    of degree D = (sum of column degrees) - (sum of row degrees).  D >= p,
    or a matrix beyond 3 x 3 whose grid passes `_MAX_CELLS`, raises
    `InterpolationRangeError`."""
    if m.nrows != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    every = tuple(range(m.nrows))
    return _interpolated_minors(m, [(every, every)])[0]


def _interpolated_minors(
    m: GradedMatrix, index_sets: Sequence[Tuple[Sequence[int], Sequence[int]]],
) -> List[MultiPoly]:
    """The k x k minors of m on the listed (rows, columns) index sets, by
    dense evaluation and interpolation (Brown, JACM 18, 1971).

    Let v_1..v_f, u be the variables the entries use.  A minor is a form of
    degree d <= D, the largest degree of the listed minors, so it is fixed by
    its value at u = 1, a polynomial of degree <= D in each v_i, and so by
    its values on the grid {0..D}^f.  The matrix is evaluated once on the
    grid, in slabs of nodes of the v_i of highest degree: term by term in
    that variable, by Horner's rule in the others.  Every index set's
    submatrix is gathered from the values, `_linalg.det_mod_p` takes all
    their determinants in one batch per slab, Newton interpolation along
    each axis turns them back into coefficients, and each minor is
    rehomogenized at its own degree d.

    No array holds more than `_MAX_CELLS` cells: not the work arrays of a
    slab (powers of the first variable, terms, values, gathered
    submatrices), nor the determinants on the grid, which Newton's passes
    copy.  Index sets that would need more, or with k <= 3 whose grid times
    the D + 1 sweeps of Newton's passes exceeds the bound, split in halves,
    each on the submatrix of the rows and columns it uses
    (`_minors_of_submatrix`), down to one set on its own k x k submatrix.
    With k <= 3 that set expands along its first row: k entries times
    (k - 1)-minors taken here at a lower degree, at most six products of
    entries, so no degree below p is out of range.  A larger set raises
    `InterpolationRangeError` before anything is allocated, as does D >= p.
    k = 0 gives the minor 1; the parameter raises `ValueError`, and an
    interpolated minor with terms off its degree `HomogeneityError`.
    """
    field = m.field
    p = field.characteristic
    rows = np.array([r for r, _ in index_sets], dtype=np.int64)
    cols = np.array([c for _, c in index_sets], dtype=np.int64)
    sets, k = rows.shape
    degrees = (np.array(m.col_degrees, dtype=np.int64)[cols].sum(axis=1)
               - np.array(m.row_degrees, dtype=np.int64)[rows].sum(axis=1))
    top = int(degrees.max())
    if top >= p:
        raise InterpolationRangeError(
            f"a minor of degree {top} needs {top + 1} interpolation points, "
            f"more than F_{p} has"
        )
    if not k:
        return [MultiPoly.one(field) for _ in range(sets)]
    cells, exps, coefs = m.term_table()
    used = np.flatnonzero(exps.any(axis=0)).tolist()
    if PARAM_INDEX in used:
        raise ValueError("specialize the parameter first")
    if not len(cells) or top < 0:
        return [MultiPoly.zero(field) for _ in range(sets)]
    # the free variables by falling largest exponent: the first is evaluated
    # term by term into a dense array of the others' coefficients (highest
    # power first), which Horner's rule then evaluates, the fewest
    # coefficients last; with no free variable, one slab of one node
    highest, last = exps.max(axis=0), (used[-1] if used else None)
    free = sorted(used[:-1], key=lambda v: -highest[v])
    f, grid = len(free), top + 1
    lead = exps[:, free[0]] if f else np.zeros(len(cells), dtype=np.int64)
    tops = exps[:, free[1:]].max(axis=0)
    width = max(m.nrows * m.ncols, sets * k * k)  # cells at one node of the first variable
    for e in tops.tolist():
        width *= max(e + 1, grid)
    width = max(width, len(cells), int(lead.max()) + 1)
    swept = k <= 3 and grid ** (f + 1) > _MAX_CELLS  # Newton sweeps a grid D + 1 times an axis
    if width > _MAX_CELLS or sets * grid ** f > _MAX_CELLS or swept:
        if sets > 1:
            return (_minors_of_submatrix(m, index_sets[:sets // 2])
                    + _minors_of_submatrix(m, index_sets[sets // 2:]))
        if k > 3:
            raise InterpolationRangeError(f"a {k} x {k} minor's interpolation needs {width} "
                                          f"cells a node and {grid ** f} nodes, over {_MAX_CELLS}")
        (first, *below), columns = index_sets[0]
        columns = list(columns)
        smaller = _interpolated_minors(m, [(below, columns[:j] + columns[j + 1:]) for j in range(k)])
        terms = [m.entries[first][c] * minor for c, minor in zip(columns, smaller)]
        return [sum(terms[::2], MultiPoly.zero(field)) - sum(terms[1::2], MultiPoly.zero(field))]
    place = (slice(None),) + tuple(tops[:, None] - exps[:, free[1:]].T) + (cells,)
    gather = (rows[:, :, None] * m.ncols + cols[:, None, :]).reshape(-1)
    nodes, step = np.arange(grid if f else 1, dtype=np.int64), _MAX_CELLS // width
    slabs = []
    for start in range(0, len(nodes), step):
        at = nodes[start:start + step, None]
        powers = np.ones((len(at), int(lead.max()) + 1), dtype=np.int64)
        for e in range(1, powers.shape[1]):
            powers[:, e] = powers[:, e - 1] * at[:, 0] % p
        values = np.zeros((len(at),) + tuple(tops + 1) + (m.nrows * m.ncols,), dtype=np.int64)
        np.add.at(values, place, powers[:, lead] * coefs % p)
        values %= p
        for axis in range(1, f):
            values = _horner(values, axis, nodes, p)
        at_points = values[..., gather].reshape(-1, k, k)
        slabs.append(_linalg.det_mod_p(at_points, p).reshape(values.shape[:-1] + (sets,)))
    dets = np.moveaxis(np.concatenate(slabs), -1, 0)  # with no free variable, one node
    for axis in range(1, f + 1):
        dets = _newton_coefficients(dets, axis, p)
    index = np.nonzero(dets)  # grouped by index set, which comes first
    out = np.zeros((len(index[0]), 5), dtype=np.int64)
    for axis, v in enumerate(free, start=1):
        out[:, v] = index[axis]
    rest = degrees[index[0]] - out.sum(axis=1)
    bad = np.flatnonzero(rest < 0 if last is not None else rest != 0)
    if bad.size:
        raise HomogeneityError(
            f"a {k} x {k} minor is not homogeneous of degree {degrees[index[0][bad[0]]]}")
    if last is not None:
        out[:, last] = rest
    keys, found = list(map(tuple, out.tolist())), dets[index].tolist()
    bounds = index[0].searchsorted(np.arange(sets + 1)).tolist()
    return [MultiPoly(field, dict(zip(keys[lo:hi], found[lo:hi]))) for lo, hi in zip(bounds, bounds[1:])]


def _minors_of_submatrix(
    m: GradedMatrix, index_sets: Sequence[Tuple[Sequence[int], Sequence[int]]],
) -> List[MultiPoly]:
    """`_interpolated_minors` of the index sets on the submatrix of the rows
    and columns they use."""
    rows = sorted(set().union(*(r for r, _ in index_sets)))
    cols = sorted(set().union(*(c for _, c in index_sets)))
    row_at, col_at = {i: n for n, i in enumerate(rows)}, {j: n for n, j in enumerate(cols)}
    return _interpolated_minors(m.submatrix(rows, cols), [
        ([row_at[i] for i in r], [col_at[j] for j in c]) for r, c in index_sets])


def _horner(values: np.ndarray, axis: int, at: np.ndarray, p: int) -> np.ndarray:
    """Evaluate along ``axis`` (at least two coefficients, highest power
    first) at the points ``at``; that axis then indexes the points."""
    x = at.reshape((-1,) + (1,) * (values.ndim - axis - 1))
    index = [slice(None)] * values.ndim
    index[axis] = slice(0, 1)
    acc = values[tuple(index)]
    for i in range(1, values.shape[axis]):
        index[axis] = slice(i, i + 1)
        acc = (acc * x + values[tuple(index)]) % p
    return acc


def _newton_coefficients(values: np.ndarray, axis: int, p: int) -> np.ndarray:
    """Values at the nodes 0..D along ``axis`` -> coefficients of x^0..x^D,
    by Newton's divided differences (with these nodes, those of step s
    divide by s)."""
    dd = values.swapaxes(0, axis).copy()
    size = dd.shape[0]
    for s in range(1, size):
        dd[s:] = (dd[s:] - dd[s - 1:-1]) * pow(s, -1, p) % p
    coeffs = np.zeros_like(dd)
    coeffs[0] = dd[-1]
    for i in range(size - 2, -1, -1):  # coeffs := coeffs * (x - i) + dd[i]
        coeffs[1:] = (coeffs[:-1] - i * coeffs[1:]) % p
        coeffs[0] = (dd[i] - i * coeffs[0]) % p
    return coeffs.swapaxes(0, axis)


# ---------------------------------------------------------------------------
# rank over the fraction field


def _eval_points(m: GradedMatrix) -> Tuple[int, ...]:
    """The seeded point of m, coordinates in 1..p-1, drawn from its fingerprint."""
    p = m.field.characteristic
    rng = random.Random(int(m.fingerprint()[:12], 16))
    return tuple(rng.randrange(1, p) for _ in range(5))


def random_plane(p: int, seed: int) -> Tuple[List[Tuple[int, int]], int]:
    """A seeded plane: X, Y, Z, T restrict to c X + d Y for the four listed
    (c, d), and the parameter a to the returned constant."""
    rng = random.Random(seed)
    return [(rng.randrange(p), rng.randrange(p)) for _ in range(4)], rng.randrange(p)


def ranked_blocks(m: GradedMatrix) -> List[Tuple[GradedMatrix, int]]:
    """The blocks of m (`block_decomposition`) as submatrices, each with its
    rank over the fraction field.  Kept on m: each matrix is decomposed once
    and each block ranked once.  On a truncation (`truncate_columns`), a
    block equal to the parent block holding its rows, so with all of its
    columns, is that parent block: the same object, with its rank and all
    it keeps.

    Each other block phi gets an exact upper bound on its rank (`_block_rank`):
    min(rows, cols), lowered, while phi's point rank falls short of
    it, first to the rank of the parent block holding phi on a truncation
    (`truncate_columns`), then to rows(phi) - pointrank(psi) for each other
    block psi with psi @ phi = 0 and cols(phi) - pointrank(psi) for each
    with phi @ psi = 0, products formed only where the degrees match.
    Proof: psi phi = 0 puts im phi in ker psi over Frac(k[X,Y,Z,T]), so
    rank phi <= rows phi - rank psi (Sylvester); a point rank never exceeds
    the rank, as evaluation never makes a zero minor nonzero; a submatrix
    ranks no higher than its matrix.  In the DVR recipe
    s = [[sigma1, 0], [a I, sigma2]], sigma1 @ sigma2 = 0 pairs two blocks
    of s_t.
    """
    def build() -> List[Tuple[GradedMatrix, int]]:
        if m.has_parameter():
            raise ValueError("specialize the parameter first")
        parts = _decomposition(m)
        parent = m.known("truncated_from")
        # the parent block holding each block's rows; a block equal to it is it
        held = [None if parent is None else _parent_block(parent, rows[0]) for rows, _ in parts]
        subs = [m.submatrix(rows, cols) for rows, cols in parts]
        subs = [whole[0] if whole is not None and whole[0] == sub else sub for sub, whole in zip(subs, held)]
        ranked = []
        for whole, sub in zip(held, subs):
            if whole is not None and whole[0] is sub:
                ranked.append(whole)
                continue
            bound = min(sub.nrows, sub.ncols)
            if _point_rank(sub) < bound and whole is not None:
                bound = min(bound, whole[1])
            if _point_rank(sub) < bound:
                bound = min([bound] + _partner_bounds(sub, subs))
            ranked.append((sub, _block_rank(sub, bound)))
        return ranked
    return m.kept("blocks", build)


def _decomposition(m: GradedMatrix) -> List[Tuple[List[int], List[int]]]:
    """`block_decomposition(m)`, computed once and kept on m."""
    return m.kept("decomposition", lambda: block_decomposition(m))


def _parent_block(m: GradedMatrix, row: int) -> Tuple[GradedMatrix, int]:
    """The ranked block of m that holds ``row``."""
    return next(block for (rows, _), block in zip(_decomposition(m), ranked_blocks(m)) if row in rows)


def _point_rank(sub: GradedMatrix) -> int:
    """The rank of sub at its seeded point, a lower bound on its rank;
    kept on sub, for its own rank and its partners' bounds."""
    def build() -> int:
        return _linalg.rank_mod_p(sub.evaluate(_eval_points(sub)), sub.field.characteristic)
    return sub.kept("point_rank", build)


def _partner_bounds(phi: GradedMatrix, blocks: Sequence[GradedMatrix]) -> List[int]:
    """rows(phi) - pointrank(psi) for each other block psi with psi @ phi
    zero, and cols(phi) - pointrank(psi) for each with phi @ psi zero; a
    product is formed only when the degrees match."""
    bounds = []
    for psi in blocks:
        if psi is phi:
            continue
        if psi.col_degrees == phi.row_degrees and (psi @ phi).is_zero_matrix():
            bounds.append(phi.nrows - _point_rank(psi))
        if phi.col_degrees == psi.row_degrees and (phi @ psi).is_zero_matrix():
            bounds.append(phi.ncols - _point_rank(psi))
    return bounds


def rank_fraction_field(m: GradedMatrix) -> int:
    """Exact rank over Frac(k[X,Y,Z,T]), the sum of the block ranks; equals
    the largest nonzero minor size."""
    return sum(r for _, r in ranked_blocks(m))


def _block_rank(sub: GradedMatrix, bound: int) -> int:
    """The rank of a block, given an exact upper ``bound`` on it: the rank at
    its seeded point if it meets the bound, else the Groebner
    leading-component count.  An unlucky point costs time, never an answer.
    A rank above the bound raises `RankBoundError`."""
    rank = _point_rank(sub)
    if rank < bound:
        from biliaison import modgb

        rank = modgb.leading_component_rank(sub)
    if rank > bound:
        raise RankBoundError(
            f"a {sub.nrows}x{sub.ncols} block has rank {rank}, above its bound {bound}"
        )
    return rank


# ---------------------------------------------------------------------------
# minors


def minors(m: GradedMatrix, k: int) -> List[MultiPoly]:
    """All k x k minors, in the lexicographic order of (row set, column set),
    taken together by `_interpolated_minors`."""
    if k < 0 or k > min(m.nrows, m.ncols):
        raise ValueError(f"minor size {k} out of range for {m.nrows}x{m.ncols}")
    return _interpolated_minors(m, list(itertools.product(
        itertools.combinations(range(m.nrows), k), itertools.combinations(range(m.ncols), k))))


# ---------------------------------------------------------------------------
# rank modulo a hypersurface


class _SplitDiscovered(Exception):
    """Elimination met a zero divisor exposing a coprime factorization of f."""

    def __init__(self, factor: MultiPoly):
        self.factor = factor


def rank_modulo_hypersurface(m: GradedMatrix, f: MultiPoly) -> int:
    """Rank of m over the fraction field of k[X,Y,Z,T]/(f).

    ``f`` must be nonconstant; for reducible f the result is the minimum of
    the ranks over its irreducible components, and a repeated factor counts
    as its component.  Components are never listed explicitly: elimination
    proceeds with pivots invertible modulo every component, splitting f
    whenever a zero divisor turns up.
    """
    if f.is_constant():
        raise ValueError("hypersurface polynomial must be nonconstant")
    if f.has_parameter():
        raise ValueError("hypersurface must not involve the parameter a")
    return _rank_modulo_whole(m, f.monic())


def _rank_modulo_whole(m: GradedMatrix, f: MultiPoly) -> int:
    """min over the components of f; blockwise sums are valid per component."""
    try:
        total = 0
        for sub, _ in ranked_blocks(m):
            if f.degree == 1:
                total += _rank_modulo_linear(sub, f)
            else:
                reduced = [[p.reduce_mod(f) for p in row] for row in sub.entries]
                total += _eliminate_mod(reduced, f, sub.field)
        return total
    except _SplitDiscovered as split:
        g = split.factor.monic()
        other = f.exact_divide(split.factor).monic()
        return min(_rank_modulo_whole(m, g), _rank_modulo_whole(m, other))


def _rank_modulo_linear(sub: GradedMatrix, f: MultiPoly) -> int:
    # solve the linear form for its leading variable and substitute
    field = sub.field
    lead = f.leading_expo()
    var = next(i for i in range(4) if lead[i] == 1)
    coeff = f.terms[lead]
    inv = field.invert(coeff)
    rest = MultiPoly(field, {e: c for e, c in f.terms.items() if e != lead})
    image = (-rest).scale(inv)
    images = {var: image}
    grid = [[p.substitute(images) for p in row] for row in sub.entries]
    return rank_fraction_field(
        GradedMatrix(field, sub.row_degrees, sub.col_degrees, grid, validate=False)
    )


def _eliminate_mod(rows: List[List[MultiPoly]], f: MultiPoly, field: FieldSpec) -> int:
    """Rank by unit-pivot elimination in R/(f).

    Pivots must be coprime to f, making every row operation valid over each
    residue field at once; a nonzero entry sharing a proper factor with f is
    a zero divisor and raises `_SplitDiscovered` for the caller to branch on.
    """
    rows = [[p for p in row] for row in rows]
    rank = 0
    while True:
        nonzero = []
        for i, row in enumerate(rows):
            for j, p in enumerate(row):
                if not p.is_zero():
                    nonzero.append((len(p.terms), p.degree, i, j))
        if not nonzero:
            return rank
        nonzero.sort()
        pivot = None
        for _, _, i, j in nonzero:
            g = gcd(rows[i][j], f)
            if g.is_constant():
                pivot = (i, j)
                break
        if pivot is None:
            # every candidate shares a proper factor with f (entries are
            # reduced, so the gcd is never f itself): expose the first one
            _, _, i, j = nonzero[0]
            raise _SplitDiscovered(gcd(rows[i][j], f))
        pi, pj = pivot
        pv = rows[pi][pj]
        new_rows = []
        for i, row in enumerate(rows):
            if i == pi:
                continue
            c = row[pj]
            if c.is_zero():
                new_rows.append([p for j, p in enumerate(row) if j != pj])
            else:
                new_rows.append([
                    (pv * row[j] - c * rows[pi][j]).reduce_mod(f)
                    for j in range(len(row)) if j != pj
                ])
        rows = new_rows
        rank += 1
        if not rows or not rows[0]:
            return rank


# ---------------------------------------------------------------------------
# assembly helpers


def identity_matrix(field: FieldSpec, degrees: Sequence[int], scale: Optional[MultiPoly] = None) -> GradedMatrix:
    s = scale if scale is not None else MultiPoly.one(field)
    keys, n = sorted(s.terms), len(degrees)
    return GradedMatrix.from_terms(
        field, degrees, degrees, np.repeat(np.arange(n, dtype=np.int64) * (n + 1), len(keys)),
        np.tile(np.array(keys, dtype=np.int64).reshape(-1, 5), (n, 1)),
        np.tile(np.array([s.terms[e] for e in keys], dtype=np.int64), n))


def stack_blocks(blocks: Sequence[Sequence[Optional[GradedMatrix]]]) -> GradedMatrix:
    """Assemble a block matrix; None blocks are zero.  A block row or column
    takes the degrees of its last concrete block."""
    concrete = [(bi, bj, b) for bi, row in enumerate(blocks) for bj, b in enumerate(row) if b is not None]
    if not concrete:
        raise ValueError("all blocks are None")
    row_degs = {bi: b.row_degrees for bi, _, b in concrete}
    col_degs = {bj: b.col_degrees for _, bj, b in concrete}
    for kind, degs, count in (("row", row_degs, len(blocks)), ("column", col_degs, len(blocks[0]))):
        if len(degs) < count:
            raise ValueError(f"block {kind} {min(set(range(count)) - set(degs))} has no concrete block")
    row_at = np.cumsum([0] + [len(row_degs[bi]) for bi in range(len(blocks))])
    col_at = np.cumsum([0] + [len(col_degs[bj]) for bj in range(len(blocks[0]))])
    parts = []
    for bi, bj, b in concrete:
        if (b.nrows, b.ncols) != (len(row_degs[bi]), len(col_degs[bj])):
            raise ValueError(f"block ({bi},{bj}) does not fit its block row and column")
        i, j = b.term_rows_cols()
        parts.append(((i + row_at[bi]) * col_at[-1] + j + col_at[bj],) + b.term_table()[1:])
    cells, exps, coefs = (np.concatenate(a) for a in zip(*parts))
    order = np.argsort(cells, kind="stable")  # a cell's terms come from one block, in order
    out = GradedMatrix.from_terms(
        concrete[-1][2].field, [d for bi in sorted(row_degs) for d in row_degs[bi]],
        [d for bj in sorted(col_degs) for d in col_degs[bj]], cells[order], exps[order], coefs[order])
    out.validate_homogeneity()
    return out
