from __future__ import annotations

import json
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF, symbols
from sympy.polys.matrices import DomainMatrix

import oracles
from biliaison import _linalg, families, fixtures, grmatrix, modgb, qprofile
from biliaison.grmatrix import (
    CharFunction,
    GradedMatrix,
    HomogeneityError,
    block_decomposition,
    determinant,
    minors,
    rank_fraction_field,
    rank_modulo_hypersurface,
)
from biliaison.polyring import FieldSpec, MultiPoly

F = FieldSpec.prime()


def P(text: str) -> MultiPoly:
    return MultiPoly.parse(text, F)


def M(row_degs, col_degs, rows) -> GradedMatrix:
    return GradedMatrix(F, row_degs, col_degs, [[P(s) for s in r] for r in rows])


_RING = GF(32003)[symbols("X Y Z T")]


def _sympy_matrix(grid) -> DomainMatrix:
    """A grid of parameter-free polynomials as a sympy matrix over GF(p)[X,Y,Z,T]."""
    return DomainMatrix(
        [[_RING.ring.from_dict({e[:4]: c for e, c in q.terms.items()}) for q in row]
         for row in grid],
        (len(grid), len(grid[0]) if grid else 0), _RING)


def _sympy_rank(grid) -> int:
    """Rank over GF(p)(X,Y,Z,T) by sympy, an oracle independent of this package:
    the pivots of its fraction-free echelon form over GF(p)[X,Y,Z,T] are
    those over the fraction field (and sympy's rank over the fraction field
    itself takes seconds where this takes milliseconds)."""
    return len(_sympy_matrix(grid).rref_den()[2])


# ---------------------------------------------------------------------------
# characteristic functions


def test_char_function_basics():
    c = CharFunction({1: 4, 2: 6})
    assert c.rank() == 10
    assert c.cumulative(0) == 0
    assert c.cumulative(1) == 4
    assert c.cumulative(5) == 10
    assert c.weighted_sum() == 4 + 12
    assert CharFunction.from_json(c.to_json()) == c
    with pytest.raises(ValueError):
        CharFunction({1: -1})


# ---------------------------------------------------------------------------
# construction and validation


def test_homogeneity_enforced():
    with pytest.raises(HomogeneityError):
        M([0], [1], [["X^2"]])
    # the parameter a counts degree 0
    m = M([0], [1], [["X + a*Y"]])
    assert m.entries[0][0] == P("X + a*Y")


def test_truncate_columns():
    desc = fixtures.example("3.4")
    t1 = desc.matrix.truncate_columns(1)
    assert t1.ncols == 1
    col = [str(p) for p in oracles.column(t1, 0)]
    # the single degree-1 column: transpose (X, -Y, a, 0, ..., 0); the sign of
    # the parameter entry is a unit and the printed reference flips it
    assert col[0] == "X" and col[1] == "-Y" and col[2] in ("a", "-a")
    assert all(s == "0" for s in col[3:])
    # truncating below every column degree leaves no columns
    assert desc.matrix.truncate_columns(0).ncols == 0
    # nested truncations compose through the minimum
    s = fixtures.example("3.2").matrix
    assert s.truncate_columns(2).truncate_columns(1) == s.truncate_columns(1)
    assert s.truncate_columns(1).ncols == 4


def test_specialize_closed_point():
    s = fixtures.example("3.2").matrix
    s_t = s.specialize_closed_point()
    assert not s_t.has_parameter()
    # the a*I block vanished: rows 1..4 of the first four columns are zero
    for i in range(1, 5):
        for j in range(4):
            assert s_t.entries[i][j].is_zero()
    assert M([0], [1], [["a*X"]]).specialize_closed_point().entries[0][0].is_zero()
    # a matrix free of a is its own closed point, and keeps nothing for it,
    # so it holds no reference to itself
    unchanged = M([0], [1], [["X"]])
    assert unchanged.specialize_closed_point() is unchanged
    assert unchanged.known("closed") is None
    assert s.known("closed") is s_t


# ---------------------------------------------------------------------------
# rank


def test_rank_examples():
    s = fixtures.example("3.2").matrix
    assert rank_fraction_field(s.truncate_columns(1).specialize_closed_point()) == 1
    assert rank_fraction_field(s.truncate_columns(2).specialize_closed_point()) == 4
    zero = M([0, 0], [1, 1], [["0", "0"], ["0", "0"]])
    assert rank_fraction_field(zero) == 0


def test_rank_equals_max_nonzero_minor_exhaustively():
    rng = random.Random(7)
    for trial in range(12):
        nrows = rng.randrange(1, 6)
        ncols = rng.randrange(1, 8)
        grid = []
        for i in range(nrows):
            row = []
            for j in range(ncols):
                # sparse linear entries keep the exhaustive oracle honest
                terms = {}
                for v in range(4):
                    if rng.random() < 0.4:
                        e = [0] * 5
                        e[v] = 1
                        terms[tuple(e)] = rng.randrange(1, 32003)
                row.append(MultiPoly(F, terms))
            grid.append(row)
        m = GradedMatrix(F, [0] * nrows, [1] * ncols, grid)
        assert rank_fraction_field(m) == _largest_nonzero_minor(m), f"trial {trial}"
        # beside up to three of its syzygies, which it kills: every block of
        # the pair still ranks as its largest nonzero minor
        syz = modgb.syzygies(m, 2)
        if syz.ncols:
            phi = syz.submatrix(range(syz.nrows), range(min(3, syz.ncols)))
            pair = grmatrix.stack_blocks([[m, None], [None, phi]])
            for sub, r in grmatrix.ranked_blocks(pair):
                assert r == _largest_nonzero_minor(sub), f"trial {trial}"


def _largest_nonzero_minor(m: GradedMatrix) -> int:
    return max([k for k in range(1, min(m.nrows, m.ncols) + 1)
                if any(not d.is_zero() for d in minors(m, k))], default=0)


def test_gb_rank_agrees_with_bareiss():
    # the Groebner leading-component rank against sympy's fraction-field rank
    # (the oracle was this package's own Bareiss elimination, now deleted)
    rng = random.Random(3)
    for _ in range(8):
        nrows = rng.randrange(2, 5)
        ncols = rng.randrange(2, 6)
        grid = [[
            MultiPoly(F, {
                tuple([1 if v == k else 0 for k in range(4)] + [0]): rng.randrange(32003)
                for v in range(4)
            })
            for _ in range(ncols)] for _ in range(nrows)]
        m = GradedMatrix(F, [0] * nrows, [1] * ncols, grid, validate=False)
        assert modgb.leading_component_rank(m) == _sympy_rank(m.entries)


def _killed_pair(nrows: int, ncols: int, seed: int):
    """(psi, phi) with psi @ phi = 0: psi of random linear forms, phi some of
    its syzygies and X times the first of them, one degree higher."""
    rng = random.Random(seed)
    psi = families.random_matrix(F, [0] * nrows, [1] * ncols, rng)
    syz = modgb.syzygies(psi, nrows + 1)
    cols = sorted(rng.sample(range(syz.ncols), rng.randrange(1, syz.ncols + 1)))
    first = syz.submatrix(range(syz.nrows), cols[:1])
    times_x = first @ M(first.col_degrees, [first.col_degrees[0] + 1], [["X"]])
    return psi, grmatrix.stack_blocks([[syz.submatrix(range(syz.nrows), cols), times_x]])


@settings(max_examples=25, deadline=None)
@given(nrows=st.integers(1, 2), extra=st.integers(1, 3), psi_first=st.booleans(),
       truncate=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_block_ranks_beside_a_killing_block_match_the_oracles(nrows, extra, psi_first, truncate, seed):
    # the partner bound (and, truncated, the parent's block rank) against the
    # Groebner leading-component count and, on small blocks, sympy
    psi, phi = _killed_pair(nrows, nrows + extra, seed)
    assert (psi @ phi).is_zero_matrix()
    m = grmatrix.stack_blocks([[psi, None], [None, phi]] if psi_first else [[phi, None], [None, psi]])
    if truncate:
        m = m.truncate_columns(min(phi.col_degrees))
    for sub, r in grmatrix.ranked_blocks(m):
        assert r == modgb.leading_component_rank(sub)
        if sub.nrows * sub.ncols <= 24:
            assert r == _sympy_rank(sub.entries)


def _recorded_bounds(monkeypatch) -> list:
    """(rows, cols, bound) of every `_block_rank` call from now on."""
    seen, real = [], grmatrix._block_rank

    def recorded(sub, bound):
        seen.append((sub.nrows, sub.ncols, bound))
        return real(sub, bound)

    monkeypatch.setattr(grmatrix, "_block_rank", recorded)
    return seen


def test_a_pair_with_a_nonzero_product_bounds_nothing(monkeypatch):
    # phi kills the syzygies of another matrix of the same degrees: its
    # product with psi is nonzero, so its bound stays its size, and the
    # Groebner count ranks it
    rng = random.Random(5)
    psi = families.random_matrix(F, [0, 0], [1] * 5, rng)
    phi = modgb.syzygies(families.random_matrix(F, [0, 0], [1] * 5, rng), 3)
    assert psi.col_degrees == phi.row_degrees and not (psi @ phi).is_zero_matrix()
    bounds = _recorded_bounds(monkeypatch)
    ranked = grmatrix.ranked_blocks(grmatrix.stack_blocks([[psi, None], [None, phi]]))
    assert [r for _, r in ranked] == [2, 3] == [modgb.leading_component_rank(sub) for sub, _ in ranked]
    assert bounds == [(2, 5, 2), (5, 10, 5)]


def test_killing_blocks_and_the_parent_block_bound_the_rank(monkeypatch):
    # syzygies of a 2 x 5 matrix have rank 3, short of their size; the block
    # that kills them bounds it by 5 - 2, and on a truncation the parent
    # block bounds it too.  psi keeps all its columns there, so the
    # truncation holds the parent's psi, ranked once
    psi = families.random_matrix(F, [0, 0], [1] * 5, random.Random(5))
    syz = modgb.syzygies(psi, 3)
    first = syz.submatrix(range(5), [0])
    phi = grmatrix.stack_blocks([[syz, first @ M([3], [4], [["X"]])]])
    bounds = _recorded_bounds(monkeypatch)
    m = grmatrix.stack_blocks([[phi, None], [None, psi]])
    assert [r for _, r in grmatrix.ranked_blocks(m)] == [3, 2]
    assert bounds == [(5, 11, 3), (2, 5, 2)]
    bounds.clear()
    truncation = m.truncate_columns(3)
    assert rank_fraction_field(truncation) == 5  # phi loses X * syz[0]
    assert bounds == [(5, 10, 3)]
    (held, rank), = [block for block in grmatrix.ranked_blocks(truncation) if block[0].nrows == 2]
    assert held is grmatrix.ranked_blocks(m)[1][0] and rank == 2
    # alone, phi has no partner and takes the Groebner count; its truncation
    # is bounded by that rank
    bounds.clear()
    assert rank_fraction_field(phi.truncate_columns(3)) == 3
    assert bounds == [(5, 11, 5), (5, 10, 3)]


def test_a_rank_above_the_bound_raises(monkeypatch):
    # a product patched to zero pairs the syzygies of one matrix with a
    # 3 x 5 matrix of rank 3: the bound 5 - 3 falls below the point rank 3
    rng = random.Random(5)
    psi = families.random_matrix(F, [0] * 3, [1] * 5, rng)
    phi = modgb.syzygies(families.random_matrix(F, [0, 0], [1] * 5, rng), 3)
    m = grmatrix.stack_blocks([[psi, None], [None, phi]])

    def zero_product(a, b):
        empty = np.zeros(0, dtype=np.int64)
        return GradedMatrix.from_terms(a.field, a.row_degrees, b.col_degrees,
                                       empty, empty.reshape(0, 5), empty)

    monkeypatch.setattr(GradedMatrix, "__matmul__", zero_product)
    with pytest.raises(grmatrix.RankBoundError, match="rank 3, above its bound 2"):
        rank_fraction_field(m)


def test_rank_refuses_the_parameter():
    with pytest.raises(ValueError, match="specialize the parameter first"):
        rank_fraction_field(M([0], [1, 1], [["X", "a*Y"]]))
    with pytest.raises(ValueError, match="specialize the parameter first"):
        determinant(M([0, 0], [1, 1], [["X", "a*Y"], ["Z", "T"]]))
    with pytest.raises(ValueError, match="specialize the parameter first"):
        determinant(M([0] * 4, [1] * 4, [
            ["X", "Y", "0", "0"], ["0", "a*Y", "0", "0"], ["0", "0", "Z", "0"], ["0", "0", "0", "T"]]))


# ---------------------------------------------------------------------------
# minors


def test_minor_counts_and_values():
    _, V, _ = fixtures.koszul_matrices()
    all2 = minors(V, 2)
    assert len(all2) == 6 * 15  # C(4,2) * C(6,2)
    # brute-force 2x2 determinant oracle
    idx = 0
    for rows in combinations(range(4), 2):
        for cols in combinations(range(6), 2):
            a = V.entries[rows[0]][cols[0]]
            b = V.entries[rows[0]][cols[1]]
            c = V.entries[rows[1]][cols[0]]
            d = V.entries[rows[1]][cols[1]]
            assert all2[idx] == a * d - b * c
            idx += 1


def test_one_minors_are_entries():
    col = M([0, 0, 1, 1, 1], [1], [["X"], ["-Y"], ["0"], ["0"], ["0"]])
    vals = minors(col, 1)
    assert [str(v) for v in vals] == ["X", "-Y", "0", "0", "0"]


def test_minor_size_out_of_range():
    with pytest.raises(ValueError):
        minors(M([0], [1], [["X"]]), 2)


# ---------------------------------------------------------------------------
# rank modulo a hypersurface


def test_rank_modulo_examples():
    assert rank_modulo_hypersurface(
        M([0, 0], [1, 1], [["X", "0"], ["0", "X"]]), P("X")) == 0
    m = M([0, 0], [1, 1], [["X", "Y"], ["0", "Z"]])
    assert rank_modulo_hypersurface(m, P("X")) == 1
    U, _, _ = fixtures.koszul_matrices()
    assert rank_modulo_hypersurface(U, P("X")) == 1
    with pytest.raises(ValueError):
        rank_modulo_hypersurface(m, P("5"))


def test_rank_modulo_numeric_oracle():
    # evaluate on random points of the plane X = 0 and compare numeric ranks
    m = M([0, 0], [1, 1], [["X", "Y"], ["0", "Z"]])
    claimed = rank_modulo_hypersurface(m, P("X"))
    rng = random.Random(13)
    best = 0
    for _ in range(20):
        point = (0, rng.randrange(1, 32003), rng.randrange(1, 32003), rng.randrange(1, 32003), 0)
        best = max(best, _linalg.rank_mod_p(m.evaluate(point), 32003))
    assert claimed == best


def test_rank_modulo_reducible_and_quadric():
    # modulo X*Y the rank is the min over the two planes
    m = M([0, 0], [1, 1], [["X", "0"], ["0", "Y"]])
    assert rank_modulo_hypersurface(m, P("X*Y")) == 1
    # modulo an irreducible quadric, a generic matrix keeps full rank
    g = M([0, 0], [1, 1], [["X", "Y"], ["Z", "T"]])
    assert rank_modulo_hypersurface(g, P("X*T - Y*Z + X^2")) == 2
    # a repeated factor counts as its component
    u = M([0, 0], [1, 1], [["X", "Y"], ["0", "Z"]])
    assert rank_modulo_hypersurface(u, P("X^2")) == 1
    assert rank_modulo_hypersurface(u, P("X^3*Y")) == 1
    assert rank_modulo_hypersurface(g, P("X + Y") ** 2) == 2
    assert rank_modulo_hypersurface(m, P("X^2*Y")) == 1


def test_rank_modulo_bounded_by_rank():
    rng = random.Random(17)
    for _ in range(6):
        grid = [[
            MultiPoly(F, {
                tuple([1 if v == k else 0 for k in range(4)] + [0]): rng.randrange(32003)
                for v in range(4)
            })
            for _ in range(4)] for _ in range(3)]
        m = GradedMatrix(F, [0] * 3, [1] * 4, grid, validate=False)
        for f in (P("X"), P("X + Y"), P("X*Y - Z*T")):
            assert rank_modulo_hypersurface(m, f) <= rank_fraction_field(m)


def _linear_form(nvars: int, rng: random.Random) -> MultiPoly:
    """A random nonzero linear form in the first ``nvars`` of X, Y, Z, T."""
    while True:
        form = MultiPoly(F, {
            tuple(1 if k == v else 0 for k in range(4)) + (0,): rng.randrange(32003)
            for v in range(nvars) if rng.random() < 0.7
        })
        if not form.is_zero():
            return form


def _sympy_rank_modulo_linear(m: GradedMatrix, f: MultiPoly) -> int:
    """Oracle: solve the linear form f for one of its variables, substitute,
    and take sympy's rank of the grid."""
    var = next(v for v in range(4) if any(e[v] for e in f.terms))
    unit = tuple(1 if k == var else 0 for k in range(4)) + (0,)
    rest = MultiPoly(F, {e: c for e, c in f.terms.items() if e != unit})
    image = (-rest).scale(F.invert(f.terms[unit]))
    return _sympy_rank([[q.substitute({var: image}) for q in row] for row in m.entries])


@settings(max_examples=25, deadline=None)
@given(
    nrows=st.integers(1, 3),
    ncols=st.integers(1, 4),
    factors=st.integers(1, 3),
    on_plane=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_rank_modulo_product_of_linear_forms(nrows, ncols, factors, on_plane, seed):
    # f is a product of distinct linear forms; on a plane-restricted block
    # they are forms in X, Y, which the restricted minor GCDs produce
    rng = random.Random(seed)
    row_degs = [rng.randrange(2) for _ in range(nrows)]
    col_degs = [rng.randrange(1, 3) for _ in range(ncols)]
    grid = [[
        MultiPoly(F, {
            mono + (0,): rng.randrange(1, 32003)
            for mono in modgb.monomials_of_degree(c - r) if rng.random() < 0.4
        })
        for c in col_degs] for r in row_degs]
    m = GradedMatrix(F, row_degs, col_degs, grid, validate=False)
    if on_plane:
        m = oracles.restrict_to_plane(m, seed)
    nvars = 2 if on_plane else 4
    components = []
    while len(components) < factors:
        form = _linear_form(nvars, rng).monic()
        if form not in components:
            components.append(form)
    f = components[0]
    for form in components[1:]:
        f = f * form
    oracle = min(_sympy_rank_modulo_linear(m, form) for form in components)
    assert rank_modulo_hypersurface(m, f) == oracle


@settings(max_examples=25, deadline=None)
@given(
    nrows=st.integers(1, 6),
    ncols=st.integers(1, 7),
    seed=st.integers(0, 2**32 - 1),
)
def test_rank_modulo_linear_factor_planted(nrows, ncols, seed):
    # entry (i, j) is c_ij Y^(d_j - e_i) + X * (a form of degree d_j - e_i - 1)
    # with C = (c_ij) of planted rank r: modulo X the block is C in Y alone,
    # whose rank is read off one evaluation
    rng = random.Random(seed)
    r = rng.randrange(min(nrows, ncols) + 1)
    left = [[rng.randrange(32003) for _ in range(r)] for _ in range(nrows)]
    right = [[rng.randrange(32003) for _ in range(ncols)] for _ in range(r)]
    c = [[sum(left[i][t] * right[t][j] for t in range(r)) % 32003 for j in range(ncols)]
         for i in range(nrows)]
    planted = DomainMatrix([[GF(32003)(x) for x in row] for row in c], (nrows, ncols), GF(32003)).rank()
    row_degs = [rng.randrange(2) for _ in range(nrows)]
    col_degs = [rng.randrange(1, 4) for _ in range(ncols)]
    grid = []
    for i, e in enumerate(row_degs):
        line = []
        for j, d in enumerate(col_degs):
            terms = {(0, d - e, 0, 0, 0): c[i][j]} if c[i][j] else {}
            for mono in modgb.monomials_of_degree(d - e - 1):
                if rng.random() < 0.5:
                    terms[(mono[0] + 1,) + tuple(mono[1:]) + (0,)] = rng.randrange(1, 32003)
            line.append(MultiPoly(F, terms))
        grid.append(line)
    m = GradedMatrix(F, row_degs, col_degs, grid)
    assert rank_modulo_hypersurface(m, P("X")) == planted
    assert _sympy_rank_modulo_linear(m, P("X")) == planted
    on_line = GradedMatrix(F, row_degs, col_degs, [
        [MultiPoly(F, {(0, d - e, 0, 0, 0): c[i][j]} if c[i][j] else {})
         for j, d in enumerate(col_degs)] for i, e in enumerate(row_degs)])
    assert rank_fraction_field(on_line) == planted


# ---------------------------------------------------------------------------
# blocks, products, serialization


def test_block_decomposition():
    s_t = fixtures.example("3.3").matrix.specialize_closed_point()
    blocks = block_decomposition(s_t)
    assert [(len(r), len(c)) for r, c in blocks] == [(4, 6), (6, 4)]


def test_results_are_kept_on_the_matrix():
    # a matrix read from a file has nothing kept; a second call on the same
    # matrix returns the same object, and no module holds results by key
    s = GradedMatrix.from_json(fixtures.example("3.2").matrix.to_json())
    s_t = s.specialize_closed_point()
    assert grmatrix.ranked_blocks(s_t) is grmatrix.ranked_blocks(s_t)
    pres = modgb.groebner_basis(s_t)
    assert modgb.groebner_basis(s_t) is pres
    # the default cap is not reached, so the basis serves every cap
    assert pres.truncated_at is None and modgb.groebner_basis(s_t, degree_cap=None) is pres
    assert qprofile.compute_q_profile(s) is qprofile.compute_q_profile(s)
    assert s_t.truncate_columns(max(s_t.col_degrees)) is s_t
    for mod in (grmatrix, modgb, qprofile):
        assert not [name for name, value in vars(mod).items()
                    if isinstance(value, dict) and not name.startswith("__")], mod.__name__


def test_matrix_product_degrees():
    U, V, _ = fixtures.koszul_matrices()
    uv = U @ V
    assert uv.row_degrees == (0,) and uv.col_degrees == (2,) * 6
    assert uv.is_zero_matrix()


def _reference_product(a: GradedMatrix, b: GradedMatrix) -> GradedMatrix:
    """The product entry by entry: sum over k of A[i, k] * B[k, j]."""
    zero = MultiPoly.zero(a.field)
    grid = [[sum((a.entries[i][k] * b.entries[k][j] for k in range(a.ncols)), zero)
             for j in range(b.ncols)] for i in range(a.nrows)]
    return GradedMatrix(a.field, a.row_degrees, b.col_degrees, grid, validate=False)


def _random_grid(field, nrows, ncols, rng):
    """Entries of up to three terms, exponents up to 6, some in a, some zero."""
    p = field.characteristic
    return [[MultiPoly(field, {
        tuple(rng.randrange(7) if rng.random() < 0.5 else 0 for _ in range(4))
        + (rng.randrange(3) if rng.random() < 0.3 else 0,): rng.randrange(1, p)
        for _ in range(rng.randrange(4))}) for _ in range(ncols)] for _ in range(nrows)]


@settings(max_examples=60, deadline=None)
@given(
    shape=st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
    large_prime=st.booleans(),
    cancel=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_product_matches_the_entrywise_product(shape, large_prime, cancel, seed):
    # the term-table product must equal the entrywise one: the entries, their
    # printed form and the fingerprint.  Zero rows of A, zero columns of B,
    # and 0 x n and n x 0 shapes come from the draws; ``cancel`` plants
    # A[:, k2] = A[:, k1] and B[k2] = -B[k1], so those terms cancel in every cell
    field = FieldSpec.prime(2**31 - 1 if large_prime else 32003)
    rng = random.Random(seed)
    nrows, inner, ncols = shape
    left, right = _random_grid(field, nrows, inner, rng), _random_grid(field, inner, ncols, rng)
    if rng.random() < 0.3 and nrows:
        left[rng.randrange(nrows)] = [MultiPoly.zero(field)] * inner
    if rng.random() < 0.3 and ncols:
        j = rng.randrange(ncols)
        for row in right:
            row[j] = MultiPoly.zero(field)
    if cancel and inner >= 2:
        k1, k2 = rng.sample(range(inner), 2)
        for row in left:
            row[k2] = row[k1]
        right[k2] = [-q for q in right[k1]]
    a = GradedMatrix(field, [0] * nrows, [0] * inner, left, validate=False)
    b = GradedMatrix(field, [0] * inner, [0] * ncols, right, validate=False)
    got, want = a @ b, _reference_product(a, b)
    assert got == want
    assert [[str(q) for q in row] for row in got.entries] == \
        [[str(q) for q in row] for row in want.entries]
    assert got.fingerprint() == want.fingerprint()
    assert (got.nrows, got.ncols) == (nrows, ncols)


def test_product_of_the_34_composite_prints_as_before(example_runs):
    desc, profile, _ = example_runs.get("3.4")
    s = desc.matrix
    v = families.sample_general_morphism(s, profile.q_function(), profile=profile)
    for a in (s, s.specialize_closed_point()):
        got, want = a @ v, _reference_product(a, v)
        assert [[str(q) for q in row] for row in got.entries] == \
            [[str(q) for q in row] for row in want.entries]
        assert got.fingerprint() == want.fingerprint()


def _product_in_runs(a: GradedMatrix, b: GradedMatrix, max_cells: int) -> GradedMatrix:
    """A @ B with `_MAX_CELLS` set to max_cells: runs of at most
    max_cells // 8 pairs of terms, or of one row."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grmatrix, "_MAX_CELLS", max_cells)
        return a @ b


@settings(max_examples=60, deadline=None)
@given(
    shape=st.tuples(st.integers(0, 5), st.integers(0, 4), st.integers(0, 4)),
    max_cells=st.integers(0, 48),
    empty=st.sampled_from(["none", "left", "right"]),
    cancel=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_product_in_row_runs_has_the_one_run_table(shape, max_cells, empty, cancel, seed):
    # a budget of 0 to 6 pairs splits every product with more pairs into
    # runs, most of one row; rows whose pairs alone pass the budget, empty
    # operands, an inner dimension of 0 and cancelling terms (as in the test
    # above) must all give the table of the one-run product
    rng = random.Random(seed)
    nrows, inner, ncols = shape
    left, right = _random_grid(F, nrows, inner, rng), _random_grid(F, inner, ncols, rng)
    if empty == "left":
        left = [[MultiPoly.zero(F)] * inner for _ in range(nrows)]
    elif empty == "right":
        right = [[MultiPoly.zero(F)] * ncols for _ in range(inner)]
    if cancel and inner >= 2:
        k1, k2 = rng.sample(range(inner), 2)
        for row in left:
            row[k2] = row[k1]
        right[k2] = [-q for q in right[k1]]
    a = GradedMatrix(F, [0] * nrows, [0] * inner, left, validate=False)
    b = GradedMatrix(F, [0] * inner, [0] * ncols, right, validate=False)
    one_run, runs = a @ b, _product_in_runs(a, b, max_cells)
    assert runs == one_run and runs.fingerprint() == one_run.fingerprint()
    assert one_run == _reference_product(a, b)


def test_a_row_over_the_budget_is_a_run_of_its_own():
    # row 0 meets 6 pairs and row 2 meets 4, against a budget of 1 pair;
    # row 1 is zero, and X*X - X*X cancels in cell (2, 0)
    a = M([0, 0, 0], [1, 1], [["X + Y", "Z"], ["0", "0"], ["X", "-X"]])
    b = M([1, 1], [2, 2], [["X", "T"], ["X", "Y"]])
    got, one_run = _product_in_runs(a, b, 8), a @ b
    assert got == one_run == _reference_product(a, b)
    assert got.fingerprint() == one_run.fingerprint()
    assert got.entries[2][0].is_zero()


def test_the_r8_composite_keeps_its_fingerprint():
    # rao_family(8, 4, 1)'s composite joins its 508,476 pairs of terms in 4 runs
    s = fixtures.rao_family(8, 4, 1)
    profile = qprofile.compute_q_profile(s)
    seed = qprofile.subseed(qprofile.DEFAULT_SEED, "minimal-family", 0)
    v = families.sample_general_morphism(s, profile.q_function(), seed=seed, profile=profile)
    assert families._composite(s, v).fingerprint() == \
        "9c60f017a6d8f6082da6607f6299d34631456cec40552941f7fbd8c30087a949"


@settings(max_examples=40, deadline=None)
@given(nrows=st.integers(0, 4), ncols=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
def test_specialization_from_the_term_table(nrows, ncols, seed):
    # a := 0 drops the terms in a; the result, and its table, must be those
    # of the entrywise specialization
    rng = random.Random(seed)
    m = GradedMatrix(F, [0] * nrows, [0] * ncols, _random_grid(F, nrows, ncols, rng),
                     validate=False)
    closed = m.specialize_closed_point()
    grid = [[MultiPoly(F, {e: c for e, c in q.terms.items() if e[4] == 0}) for q in row]
            for row in m.entries]
    assert closed == GradedMatrix(F, m.row_degrees, m.col_degrees, grid, validate=False)
    rebuilt = GradedMatrix(F, m.row_degrees, m.col_degrees, closed.entries, validate=False)
    for got, want in zip(closed.term_table(), rebuilt.term_table()):
        assert got.dtype == want.dtype and got.shape == want.shape and (got == want).all()
    assert m.specialize_closed_point() is closed
    assert not closed.has_parameter()


def _assert_same_matrix(got: GradedMatrix, want: GradedMatrix) -> None:
    """The same degrees, printed entries and fingerprint."""
    assert (got.row_degrees, got.col_degrees) == (want.row_degrees, want.col_degrees)
    assert [[str(q) for q in row] for row in got.entries] == \
        [[str(q) for q in row] for row in want.entries]
    assert got.fingerprint() == want.fingerprint()


def _reference_forms(field, row_degs, col_degs, rng):
    """The grid `random_matrix` must draw: row by row, one draw per monomial of
    each entry's degree, in the order of `monomials_of_degree`."""
    p = field.characteristic
    return [[MultiPoly(field, {e + (0,): c for e in modgb.monomials_of_degree(d - r)
                               if (c := rng.randrange(p))}) for d in col_degs] for r in row_degs]


@settings(max_examples=40, deadline=None)
@given(
    row_degs=st.lists(st.integers(0, 2), max_size=4),
    col_degs=st.lists(st.integers(0, 3), max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_table_operations_match_the_grid(row_degs, col_degs, seed):
    # every operation that builds a term table gives the matrix that the
    # equivalent MultiPoly grid gives: a lift, submatrices in any row and
    # column order, truncations, identities, stacked blocks and syzygies
    zero = MultiPoly.zero(F)
    grid = _reference_forms(F, row_degs, col_degs, random.Random(seed))
    m = families.random_matrix(F, row_degs, col_degs, random.Random(seed))
    _assert_same_matrix(m, GradedMatrix(F, row_degs, col_degs, grid))
    rng = random.Random(seed + 1)
    rows = rng.sample(range(len(row_degs)), rng.randrange(len(row_degs) + 1))
    cols = rng.sample(range(len(col_degs)), rng.randrange(len(col_degs) + 1))
    _assert_same_matrix(m.submatrix(rows, cols), GradedMatrix(
        F, [row_degs[i] for i in rows], [col_degs[j] for j in cols],
        [[grid[i][j] for j in cols] for i in rows]))
    n = rng.randrange(-1, 4)
    keep = [j for j, d in enumerate(col_degs) if d <= n]
    _assert_same_matrix(m.truncate_columns(n), GradedMatrix(
        F, row_degs, [col_degs[j] for j in keep], [[row[j] for j in keep] for row in grid]))
    scale = rng.choice([None, P("5"), P("a"), P("a - 2")])
    one = MultiPoly.one(F) if scale is None else scale
    ident = grmatrix.identity_matrix(F, col_degs, scale)
    diagonal = [[one if i == j else zero for j in range(len(col_degs))] for i in range(len(col_degs))]
    _assert_same_matrix(ident, GradedMatrix(F, col_degs, col_degs, diagonal))
    _assert_same_matrix(grmatrix.stack_blocks([[m, None], [ident, ident]]), GradedMatrix(
        F, row_degs + col_degs, col_degs * 2,
        [row + [zero] * len(col_degs) for row in grid] + [row * 2 for row in diagonal]))
    sy = modgb.syzygies(m, max(col_degs, default=0) + 1)
    _assert_same_matrix(sy, GradedMatrix(F, sy.row_degrees, sy.col_degrees, sy.entries))
    assert (m @ sy).is_zero_matrix()


def test_json_roundtrip(tmp_path):
    s = fixtures.example("3.2").matrix
    path = tmp_path / "m.json"
    s.save(str(path))
    loaded = GradedMatrix.load(str(path))
    assert loaded == s
    obj = json.loads(path.read_text())
    assert set(obj) == {"field", "row_degrees", "col_degrees", "entries"}


@settings(max_examples=40, deadline=None)
@given(
    nrows=st.integers(0, 4),
    ncols=st.integers(0, 4),
    npoints=st.integers(1, 4),
    large_prime=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_evaluate_many_matches_entry_evaluation(nrows, ncols, npoints, large_prime, seed):
    # entries with up to three terms, exponents up to 40, some in a; the
    # term table's batched values must equal MultiPoly.evaluate entry by entry
    field = FieldSpec.prime(2**31 - 1 if large_prime else 32003)
    p = field.characteristic
    rng = random.Random(seed)
    grid = [[MultiPoly(field, {
        tuple(rng.randrange(41) if rng.random() < 0.5 else 0 for _ in range(4))
        + (rng.randrange(41) if rng.random() < 0.2 else 0,): rng.randrange(1, p)
        for _ in range(rng.randrange(4))}) for _ in range(ncols)] for _ in range(nrows)]
    m = GradedMatrix(field, [0] * nrows, [0] * ncols, grid, validate=False)
    points = [tuple(rng.choice((0, 1, p - 1, rng.randrange(p))) for _ in range(5))
              for _ in range(npoints)]
    values = m.evaluate_many(points)
    assert values.shape == (npoints, nrows, ncols)
    for q, point in enumerate(points):
        assert values[q].tolist() == [[oracles.evaluate(e, point) for e in row] for row in grid]
        assert (m.evaluate(point) == values[q]).all()


def test_fingerprint_ignores_the_order_of_terms():
    terms = [{(1, 0, 0, 0, 0): 3, (0, 1, 0, 0, 0): 5, (0, 0, 0, 1, 0): 7},
             {(0, 0, 1, 0, 0): 2}, {}, {(0, 0, 0, 1, 0): 1, (1, 0, 0, 0, 0): 4}]

    def build(order, bump=0):
        entries = [MultiPoly(F, dict(order(list(t.items())))) for t in terms]
        if bump:
            first = dict(entries[0].terms)
            first[(1, 0, 0, 0, 0)] += bump
            entries[0] = MultiPoly(F, first)
        return GradedMatrix(F, [0, 0], [1, 1], [entries[:2], entries[2:]])

    forward, backward = build(list), build(lambda items: items[::-1])
    assert forward == backward
    assert forward.fingerprint() == backward.fingerprint()
    assert build(list, bump=1).fingerprint() != forward.fingerprint()


def test_digests_equal_hashlib_sha256():
    # the fingerprint and the derived seeds take SHA-256 from the
    # interpreter's built-in module; any drift would move every seed and golden
    import hashlib

    m = M([0, 1], [1, 2], [["X + 3*Y", "Z^2"], ["0", "T - X"]])
    want = hashlib.sha256(repr((F.characteristic, m.row_degrees, m.col_degrees)).encode())
    for a in m.term_table():
        want.update(a.tobytes())
    assert m.fingerprint() == want.hexdigest()
    for seed, labels in ((qprofile.DEFAULT_SEED, ("minimal-family", 0)), (7, ("lift",)), (0, ())):
        text = ":".join(map(str, (seed,) + labels))
        assert qprofile.subseed(seed, *labels) == int(hashlib.sha256(text.encode()).hexdigest()[:16], 16)


def test_determinant_signs():
    m = M([0, 0], [1, 1], [["X", "Y"], ["Z", "T"]])
    assert determinant(m) == P("X*T - Y*Z")
    m4 = M([0] * 4, [1] * 4, [
        ["X", "0", "0", "0"],
        ["0", "Y", "0", "0"],
        ["0", "0", "0", "Z"],
        ["0", "0", "T", "0"],
    ])
    assert determinant(m4) == P("-X*Y*Z*T")


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 5),
    kind=st.sampled_from(["mixed", "plane", "one-variable", "constant"]),
    density=st.sampled_from([0.3, 0.7, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_determinant_matches_sympy(n, kind, density, seed):
    # mixed row and column degrees, entries zero with probability 1 - density;
    # entries stay quadric from 4 x 4 on, where sympy's det takes seconds on cubics
    rng = random.Random(seed)
    if kind == "constant":
        row_degs = col_degs = [rng.randrange(3)] * n
    else:
        row_degs = [rng.randrange(2) for _ in range(n)]
        col_degs = [rng.randrange(1, 4 if n < 4 else 3) for _ in range(n)]
    grid = []
    for r in row_degs:
        line = []
        for c in col_degs:
            monos = [(0, c - r, 0, 0)] if kind == "one-variable" else modgb.monomials_of_degree(c - r)
            line.append(MultiPoly(F, {
                tuple(mono) + (0,): rng.randrange(1, 32003)
                for mono in monos if rng.random() < density
            }))
        grid.append(line)
    m = GradedMatrix(F, row_degs, col_degs, grid)
    if kind == "plane":
        m = oracles.restrict_to_plane(m, seed)
    oracle = _sympy_matrix(m.entries).det()
    expected = MultiPoly(F, {e + (0,): int(c) % 32003 for e, c in oracle.items() if int(c) % 32003})
    assert determinant(m) == expected


def test_determinant_of_a_16_minor_of_the_34_composite(example_runs):
    desc, profile, _ = example_runs.get("3.4")
    v = families.sample_general_morphism(
        desc.matrix, profile.q_function(), profile=profile,
        seed=qprofile.subseed(qprofile.DEFAULT_SEED, "minimal-family", 0))
    w = families._composite(desc.matrix, v)
    sub = w.submatrix([i for i in range(w.nrows) if i not in (3, 7, 11)], range(w.ncols))
    degree = sum(sub.col_degrees) - sum(sub.row_degrees)
    det = determinant(sub)
    assert degree == 19 and det.is_homogeneous(degree) and len(det.terms) == 935
    # points with T = 1 and other coordinates above the degree lie off the grid
    rng = random.Random(34)
    for _ in range(3):
        point = tuple(rng.randrange(degree + 1, 32003) for _ in range(3)) + (1, 0)
        assert oracles.evaluate(det, point) == _linalg.det_mod_p(sub.evaluate(point)[None], 32003)[0]
