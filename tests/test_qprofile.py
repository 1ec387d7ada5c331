from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

import oracles
from biliaison import _linalg, families, fixtures, modgb, qprofile
from biliaison.grmatrix import (
    CharFunction,
    GradedMatrix,
    HomogeneityError,
    determinant,
    minors,
    rank_fraction_field,
    rank_modulo_hypersurface,
    ranked_blocks,
)
from biliaison.polyring import FieldSpec, MultiPoly, gcd_many, squarefree_factors

F = FieldSpec.prime()
P31 = 2**31 - 1  # the largest prime FieldSpec admits


def P(text: str) -> MultiPoly:
    return MultiPoly.parse(text, F)


def M(row_degs, col_degs, rows) -> GradedMatrix:
    return GradedMatrix(F, row_degs, col_degs, [[P(s) for s in r] for r in rows])


# ---------------------------------------------------------------------------
# alpha


def test_alpha_small_example(example_runs):
    desc, profile, _ = example_runs.get("3.3")
    assert oracles.alpha(desc.matrix, 2) == 3
    assert oracles.alpha(desc.matrix, 3) == 6
    assert oracles.alpha(desc.matrix, 1) == 0  # below every column degree


# ---------------------------------------------------------------------------
# beta


def test_beta_values(example_runs):
    desc32, _, _ = example_runs.get("3.2")
    assert oracles.beta(desc32.matrix, 2) == 4
    desc34, _, _ = example_runs.get("3.4")
    assert oracles.beta(desc34.matrix, 1) == 1


def test_beta_common_factor_column():
    col = M([0, 0], [2], [["X^2"], ["X*Y"]])
    assert oracles.beta(col, 2) == 0


def _exhaustive_min_rank(w: GradedMatrix, k: int) -> int:
    """Oracle: measure every squarefree factor of the GCD of all k-minors."""
    g = gcd_many([m for m in minors(w, k) if not m.is_zero()])
    if g.is_constant():
        return k
    return min(rank_modulo_hypersurface(w, f) for f in squarefree_factors(g))


def _random_form(degree: int, rng: random.Random, field: FieldSpec = F) -> MultiPoly:
    """Sparse form: at most two terms keep the exhaustive minor GCD cheap."""
    form = MultiPoly.zero(field)
    for mono in rng.sample(modgb.monomials_of_degree(degree), 2):
        form = form + MultiPoly.monomial(field, tuple(mono) + (0,),
                                         rng.randrange(field.characteristic))
    return form


def _random_block(nrows, ncols, quadratic_col, scale, index, seed, field=F) -> GradedMatrix:
    """Linear entries, quadratic in at most one column; `scale` ("row", "col"
    or None) multiplies one row or column of linear entries by a shared
    linear form."""
    rng = random.Random(seed)
    row_degs = [0] * nrows
    col_degs = [1] * ncols
    if scale is None and quadratic_col is not None:
        col_degs[quadratic_col % ncols] = 2
    grid = [[_random_form(d, rng, field) for d in col_degs] for _ in range(nrows)]
    form = _random_form(1, rng, field)
    if scale == "row":
        i = index % nrows
        grid[i] = [form * p for p in grid[i]]
        row_degs[i] = -1
    elif scale == "col":
        j = index % ncols
        for row in grid:
            row[j] = form * row[j]
        col_degs[j] = 2
    return GradedMatrix(field, row_degs, col_degs, grid)


def test_square_block_with_a_common_column_factor():
    # a square block of positive degree: its only rank-level minor is the
    # determinant, so the plane certificate is inconclusive and the honest
    # fallback finds the common factor of the first column
    rng = random.Random(3)
    form = _random_form(1, rng).monic()
    grid = [[_random_form(1, rng) for _ in range(3)] for _ in range(3)]
    for row in grid:
        row[0] = form * row[0]
    w = GradedMatrix(F, [0, 0, 0], [2, 1, 1], grid)
    assert rank_fraction_field(w) == 3
    analysis = qprofile.coprime_minor_analysis(w, seed=1)
    assert analysis.min_rank == 2 == _exhaustive_min_rank(w, 3)
    assert form * analysis.common_factor.exact_divide(form) == analysis.common_factor
    assert rank_modulo_hypersurface(w, form) == 2


@settings(max_examples=40, deadline=None)
@given(
    nrows=st.integers(2, 4),
    ncols=st.integers(2, 4),
    quadratic_col=st.one_of(st.none(), st.integers(0, 3)),
    scale=st.sampled_from([None, "row", "col"]),
    index=st.integers(0, 3),
    large_prime=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_minor_analysis_matches_exhaustive_oracle(
    nrows, ncols, quadratic_col, scale, index, large_prime, seed
):
    # at P31 the combinations' products reduce two terms at a time
    w = _random_block(nrows, ncols, quadratic_col, scale, index, seed,
                      FieldSpec.prime(P31) if large_prime else F)
    k = rank_fraction_field(w)
    if k == 0:
        return
    analysis = qprofile.coprime_minor_analysis(w, seed=seed)
    assert analysis.min_rank == _exhaustive_min_rank(w, k)


@settings(max_examples=30, deadline=None)
@given(
    nrows=st.integers(1, 4),
    ncols=st.integers(1, 4),
    p=st.sampled_from([32003, 10007, P31]),
    per_slab=st.one_of(st.none(), st.integers(1, 3)),
    seed=st.integers(0, 2**32 - 1),
)
def test_combination_determinants_match_a_python_int_reference(nrows, ncols, p, per_slab, seed):
    # random forms of degree 0-3, some entries zero.  Every matrix the first
    # attempt hands to det_mod_p must be V B U, with B the symbolic plane
    # restriction at (t : 1) for t = 0..top, then at the extra node, then at
    # (1 : 0), and every determinant must be that of a Python-int
    # reference.  With per_slab set, the grid bound holds that many nodes of
    # both combinations, so the nodes come in several slabs; otherwise in one
    field = FieldSpec.prime(p)
    rng = random.Random(seed)
    row_degs = [rng.randrange(2) for _ in range(nrows)]
    col_degs = [rng.randrange(1, 4) for _ in range(ncols)]
    grid = []
    for r in row_degs:
        line = []
        for c in col_degs:
            terms = {}
            if rng.random() < 0.8:
                for mono in rng.sample(modgb.monomials_of_degree(c - r), 2 if c > r else 1):
                    terms[tuple(mono) + (0,)] = field.normalize(rng.randrange(1, p))
            line.append(MultiPoly(field, terms))
        grid.append(line)
    block = GradedMatrix(field, row_degs, col_degs, grid)
    restricted = oracles.restrict_to_plane(block, qprofile.subseed(seed, "plane", 0))
    k = rank_fraction_field(restricted)
    if k == 0:
        return
    drawn, stacks = [], []
    combinations, det_mod_p = qprofile._combinations, _linalg.det_mod_p

    def spy_combinations(*args):
        drawn.append((combinations(*args), len(stacks)))
        return drawn[-1][0]

    def spy_det(stack, p):
        stacks.append((stack, det_mod_p(stack, p)))
        return stacks[-1][1]

    grid = qprofile._MAX_CELLS if per_slab is None else per_slab * 2 * k * k
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qprofile, "_combinations", spy_combinations)
        mp.setattr(_linalg, "det_mod_p", spy_det)
        mp.setattr(qprofile, "_MAX_CELLS", grid)
        qprofile._restricted_minor_gcd(block, k, seed)
    (v, u), _ = drawn[0]
    first = stacks[:drawn[1][1]] if len(drawn) > 1 else stacks
    assert all(stack.size <= grid for stack, _ in first)
    # each slab holds its nodes of the first combination, then of the second
    stack = np.concatenate([s.reshape(2, -1, k, k) for s, _ in first], axis=1).reshape(-1, k, k)
    dets = np.concatenate([d.reshape(2, -1) for _, d in first], axis=1).reshape(-1)
    top = len(stack) // 2 - 3
    assert len(first) == (1 if per_slab is None else -(-(top + 3) // per_slab))
    # the extra node is the first draw of the attempt's generator
    extra = random.Random(qprofile.subseed(seed, "combination", 0)).randrange(1, p)
    K = GF(p)
    for i in range(2):
        nodes = [(t, 1) for t in range(top + 1)] + [(extra, 1), (1, 0)]
        for n, (tx, ty) in enumerate(nodes):
            b = [[oracles.evaluate(e, (tx, ty, 0, 0, 0)) for e in row] for row in restricted.entries]
            vb = [[sum(int(x) * y for x, y in zip(row, col)) % p for col in zip(*b)]
                  for row in v[i].tolist()]
            want = [[sum(x * int(y) for x, y in zip(row, col)) % p for col in zip(*u[i].tolist())]
                    for row in vb]
            assert stack[i * (top + 3) + n].tolist() == want
            det = DomainMatrix([[K(x) for x in row] for row in want], (k, k), K).det()
            assert dets[i * (top + 3) + n] == int(det) % p


@settings(max_examples=30, deadline=None)
@given(
    nrows=st.integers(1, 6),
    ncols=st.integers(1, 6),
    base=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_fallback_picks_rank_raising_rows_and_columns(nrows, ncols, base, seed):
    # rows beyond the first `base` are combinations of them and some columns
    # repeat earlier ones, so there are rows and columns to skip
    rng = random.Random(seed)
    col_degs = [rng.randrange(1, 3) for _ in range(ncols)]
    source = [rng.randrange(j + 1) if rng.random() < 0.3 else j for j in range(ncols)]
    forms = [[MultiPoly(F, {tuple(mono) + (0,): rng.randrange(1, 32003)
                            for mono in modgb.monomials_of_degree(col_degs[j])
                            if rng.random() < 0.6}) for j in range(ncols)]
             for _ in range(min(base, nrows))]
    grid = [list(row) for row in forms]
    while len(grid) < nrows:
        row = [MultiPoly.zero(F)] * ncols
        for base_row in forms:
            c = MultiPoly.const(F, rng.randrange(3))
            row = [a + c * b for a, b in zip(row, base_row)]
        grid.append(row)
    grid = [[row[source[j]] for j in range(ncols)] for row in grid]
    col_degs = [col_degs[source[j]] for j in range(ncols)]
    m = GradedMatrix(F, [0] * nrows, col_degs, grid)
    k = rank_fraction_field(m)
    if k == 0:
        return
    # the first run draws only its point (x, 1, z, w, 0)
    rng = random.Random(seed)
    x, z, w = (rng.randrange(1, 32003) for _ in range(3))
    values = m.evaluate((x, 1, z, w, 0))

    def rank(a):
        return _linalg.rank_mod_p(a, 32003) if a.size else 0

    if rank(values) < k:
        return  # the point lowered the rank; the first run claims no witness

    class Picked(Exception):
        pass

    def first_pick(self, rows, cols):
        raise Picked(rows, cols)

    with pytest.MonkeyPatch.context() as mp, pytest.raises(Picked) as picked:
        mp.setattr(GradedMatrix, "submatrix", first_pick)
        qprofile._honest_sampled_gcd(m, k, seed)
    rows, cols = picked.value.args
    # the first run keeps the row order and sorts the columns stably by degree
    for i in range(nrows):
        assert (i in rows) == (rank(values[:i + 1]) > rank(values[:i]))
    order = sorted(range(ncols), key=lambda j: col_degs[j])
    chosen = values[list(rows)][:, order]
    for t, j in enumerate(order):
        assert (j in cols) == (rank(chosen[:, :t + 1]) > rank(chosen[:, :t]))
    minor = values[np.ix_(rows, cols)]
    assert _linalg.det_mod_p(minor[None], 32003)[0] != 0


def test_interpolation_raises_typed_errors():
    # a degree-1009 minor needs 1010 points, more than F_1009 has
    small = FieldSpec.prime(1009)
    x_power = MultiPoly.monomial(small, (1009, 0, 0, 0, 0))
    with pytest.raises(qprofile.InterpolationRangeError):
        qprofile._restricted_minor_gcd(GradedMatrix(small, [0], [1009], [[x_power]]), 1, 0)
    # an entry above its column degree fails the check at the extra node
    wrong = GradedMatrix(F, [0], [2], [[P("X^3 + Y^3")]], validate=False)
    with pytest.raises(HomogeneityError):
        qprofile._restricted_minor_gcd(wrong, 1, 0)
    # the same for 4 x 4 combinations
    wrong4 = GradedMatrix(F, [0] * 4, [1, 1, 1, 2], [
        [P(x) for x in row] for row in (("X", "0", "0", "0"), ("0", "X", "0", "0"),
                                        ("0", "0", "X", "0"), ("0", "0", "0", "X^3 + Y^3"))
    ], validate=False)
    with pytest.raises(HomogeneityError):
        qprofile._restricted_minor_gcd(wrong4, 4, 0)
    # 4 x 4, degree 256 in four variables: one slice of the 257^3 grid
    # holds 16 * 257^2 cells, more than the grid bound
    wide = GradedMatrix(F, [0] * 4, [64] * 4, [
        [P(v + "^64") if i == j else P("0") for j in range(4)] for i, v in enumerate("XYZT")])
    with pytest.raises(qprofile.InterpolationRangeError):
        determinant(wide)


def test_nonconstant_combination_gcd_goes_to_the_fallback(monkeypatch):
    # combinations that never weigh the cubic are both multiples of X, a
    # factor the 1-minors do not share: the GCD is X on the line, so the
    # plane certificate gives up at once, and the honest fallback, whose
    # witness minors include the cubic, certifies the block coprime
    row = M([0], [2, 2, 2, 3], [["X*Y", "X*Z", "X*T", "Y^3 + Z^3 + T^3"]])
    combinations = qprofile._combinations

    def without_the_cubic(*args):
        v, u = combinations(*args)
        u[:, 3] = 0
        return v, u

    monkeypatch.setattr(qprofile, "_combinations", without_the_cubic)
    assert qprofile._restricted_minor_gcd(row, 1, 0) == (False, 2, 1, False)
    analysis = qprofile.coprime_minor_analysis(row)
    assert analysis.coprime and analysis.notes == ["block 0: plane certificate inconclusive, "
                                                   "honest fallback"]


@pytest.mark.parametrize("last, coprime", [
    ("Y^3 + Z^3 + T^3", True), ("X*Y^2 + X*Z^2 + X*T^2", False),
])
def test_plane_through_the_gcd_measures_the_rank_at_infinity(monkeypatch, last, coprime):
    # a plane on which X restricts to Y: every restricted 1-minor is divisible
    # by Y, which is constant at (t : 1), so the combinations' GCD is constant
    # and only the rank at (1 : 0) decides; the second row fails it on every
    # attempt
    row = M([0], [2, 2, 2, 3], [["X*Y", "X*Z", "X*T", last]])
    plane = ([(0, 1), (1, 0), (1, 2), (3, 1)], 0)  # X -> Y, Y -> X, Z -> X + 2Y, T -> 3X + Y
    monkeypatch.setattr(qprofile, "random_plane", lambda p, seed: plane)
    certificate = qprofile._restricted_minor_gcd(row, 1, 0)
    assert certificate == (coprime, 2 if coprime else 6, 0, True)


def test_vanishing_combinations_try_three_lines_then_fall_back(monkeypatch):
    # zero combinations move to the next line; after three the honest
    # fallback decides, exactly
    row = M([0], [2, 2, 2, 3], [["X*Y", "X*Z", "X*T", "Y^3 + Z^3 + T^3"]])
    monkeypatch.setattr(_linalg, "det_mod_p", lambda stack, p: np.zeros(len(stack), np.int64))
    assert qprofile._restricted_minor_gcd(row, 1, 0) == (False, 6, None, False)
    analysis = qprofile.coprime_minor_analysis(row)
    assert analysis.coprime and analysis.notes == ["block 0: plane certificate inconclusive, "
                                                   "honest fallback"]


def test_line_through_the_rank_drop_locus_falls_back(monkeypatch):
    # X and Y are coprime, but a line through a point of X = Y = 0 makes
    # every restricted 1-minor vanish there: the combinations share t - 1,
    # and the honest fallback certifies
    row = M([0], [1, 1], [["X", "Y"]])
    plane = ([(1, 32002), (2, 32001), (1, 0), (0, 1)], 0)  # X -> X - Y, Y -> 2X - 2Y
    monkeypatch.setattr(qprofile, "random_plane", lambda p, seed: plane)
    assert qprofile._restricted_minor_gcd(row, 1, 0) == (False, 2, 1, False)
    analysis = qprofile.coprime_minor_analysis(row)
    assert analysis.coprime and len(analysis.notes) == 1


def test_vanishing_determinants_at_infinity_move_to_the_next_line(monkeypatch):
    # the two determinants at (1 : 0) close each attempt's batch; forced to
    # zero, they move the certificate to the next line as a rank drop there
    # does, and after three lines the honest fallback decides
    row = M([0], [1, 1, 1, 1], [["X", "Y", "Z", "T"]])
    det_mod_p, zeroed, attempts = _linalg.det_mod_p, [], [0]
    batch = 2 * (1 + 3)  # two combinations at the nodes 0..top, the extra node and (1 : 0); top = 1

    def zero_at_infinity(stack, p):
        if len(stack) != batch:  # the honest fallback's witness minors pass through
            return det_mod_p(stack, p)
        dets = det_mod_p(stack, p).reshape(2, -1)
        if len(zeroed) < attempts[0]:  # one batch per attempt on this block
            zeroed.append(dets[:, -1].tolist())
            dets[:, -1] = 0
        return dets.reshape(-1)

    monkeypatch.setattr(_linalg, "det_mod_p", zero_at_infinity)
    for count, certificate in ((1, (True, 4, 0, True)), (3, (False, 6, 0, True))):
        attempts[0] = count
        zeroed.clear()
        assert qprofile._restricted_minor_gcd(row, 1, 0) == certificate
        assert len(zeroed) == count and all(any(dets) for dets in zeroed)
    zeroed.clear()
    analysis = qprofile.coprime_minor_analysis(row)
    assert analysis.coprime and len(analysis.notes) == 1


def test_a_block_analysed_twice_is_certified_once(monkeypatch):
    # what the analysis learns is kept on the block object: a second
    # analysis, at another seed, makes no plane certificate, and a block the
    # certificate leaves to the fallback takes one sampled GCD
    calls = []

    def counted(name):
        real = getattr(qprofile, name)

        def spy(*args):
            calls.append(name)
            return real(*args)
        return spy

    monkeypatch.setattr(qprofile, "_restricted_minor_gcd", counted("_restricted_minor_gcd"))
    monkeypatch.setattr(qprofile, "_honest_sampled_gcd", counted("_honest_sampled_gcd"))
    coprime = M([0, 0], [1, 1, 1], [["X", "Y", "Z"], ["Y", "Z", "T"]])
    common = M([0], [2, 2, 2, 3], [["X*Y", "X*Z", "X*T", "X*Y^2 + X*Z^2 + X*T^2"]])
    for w, made, min_rank in ((coprime, ["_restricted_minor_gcd"], 2),
                              (common, ["_restricted_minor_gcd", "_honest_sampled_gcd"], 0)):
        calls.clear()
        first = qprofile.coprime_minor_analysis(w, seed=1)
        second = qprofile.coprime_minor_analysis(w, seed=2)
        assert calls == made
        assert first.min_rank == second.min_rank == min_rank
        assert first.common_factor == second.common_factor


PLANE_PINS = Path(__file__).parent / "golden" / "plane-certificates.json"


@pytest.mark.parametrize("name, seed", [
    (name, seed) for name in ("3.2", "3.3", "3.4") for seed in (qprofile.DEFAULT_SEED, 11)
] + [("3.4", 902), ("3.4", 100)])
def test_plane_certificates_are_pinned(name, seed, monkeypatch):
    # every block that cold qprofile and minimal-family certify, in call
    # order: (rows, cols, k, block seed, verdict, combinations taken, deg g,
    # whether the rank at (1 : 0) was measured).  At
    # seeds 902 and 100 single restricted witness minors of 3.4 share
    # nonlinear factors that the combinations do not
    calls = []
    certify = qprofile._restricted_minor_gcd

    def spy(block, k, block_seed):
        certificate = certify(block, k, block_seed)
        calls.append([block.nrows, block.ncols, k, block_seed, *certificate])
        return certificate

    monkeypatch.setattr(qprofile, "_restricted_minor_gcd", spy)
    m = fixtures.example(name).matrix
    cold = GradedMatrix(m.field, m.row_degrees, m.col_degrees, m.entries)
    families.minimal_family(cold, seed=seed, profile=qprofile.compute_q_profile(cold, seed=seed))
    assert calls == json.loads(PLANE_PINS.read_text())[f"{name} seed {seed}"]


@settings(max_examples=40, deadline=None)
@given(
    nrows=st.integers(1, 4),
    ncols=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_rank_at_infinity_is_the_rank_modulo_y(nrows, ncols, seed):
    # on the line, the point (1 : 0) measures the rank modulo Y
    rng = random.Random(seed)
    col_degs = [rng.randrange(1, 3) for _ in range(ncols)]
    grid = [[MultiPoly(F, {tuple(mono) + (0,): rng.randrange(1, 32003)
                           for mono in modgb.monomials_of_degree(c) if rng.random() < 0.5})
             for c in col_degs] for _ in range(nrows)]
    plane = qprofile.subseed(seed, "plane")
    restricted = oracles.restrict_to_plane(GradedMatrix(F, [0] * nrows, col_degs, grid), plane)
    at_infinity = _linalg.rank_mod_p(restricted.evaluate((1, 0, 0, 0, 0)), 32003)
    assert at_infinity == rank_modulo_hypersurface(restricted, P("Y"))


def test_genuine_common_factor_reaches_fallback(monkeypatch):
    row = M([0], [2, 2, 2, 3], [["X*Y", "X*Z", "X*T", "X*Y^2 + X*Z^2 + X*T^2"]])
    calls = []
    honest = qprofile._honest_sampled_gcd

    def counted(*args, **kwargs):
        calls.append(args)
        return honest(*args, **kwargs)

    monkeypatch.setattr(qprofile, "_honest_sampled_gcd", counted)
    analysis = qprofile.coprime_minor_analysis(row)
    assert calls
    assert analysis.min_rank == 0
    assert analysis.common_factor == P("X")


@pytest.mark.parametrize("shape, rows", [
    ((4, 1, 3), [(1, 0, 0, 0), (2, 3, 0, 0), (3, 4, 4, 3)]),
    ((5, 2, 4), [(2, 0, 0, 0), (3, 4, 0, 0), (4, 5, 5, 4)]),
])
def test_rank_drop_profile(shape, rows):
    # the columns of degree f + 1 share a form of degree f: beta is 0 there,
    # below alpha - 1, and the honest fallback's GCD finds the common factor
    r, f, ncommon = shape
    for seed in (1, 2):
        s = fixtures.rank_drop_sigma1(r, f, ncommon, seed)
        profile = qprofile.compute_q_profile(s)
        assert [(x.n, x.alpha, x.beta, x.q_sharp) for x in profile.records] == rows
        if shape == (4, 1, 3):  # the oracle takes all four 3-minors of the 4 x 3 block
            w = s.truncate_columns(f + 1)
            assert _exhaustive_min_rank(w, ncommon) == profile.record(f + 1).beta


# ---------------------------------------------------------------------------
# b0


def test_b0_values(example_runs):
    for name, want in (("3.2", 0), ("3.3", 1), ("3.4", 1)):
        _, profile, _ = example_runs.get(name)
        assert profile.b0 == want, name
        assert not profile.b0_is_lower_bound


def test_b0_standalone_operation(example_runs):
    desc, _, _ = example_runs.get("3.2")
    profile = qprofile.compute_q_profile(desc.matrix)
    assert (profile.b0, profile.b0_is_lower_bound) == (0, False)


# ---------------------------------------------------------------------------
# the q profile


def test_profiles_match_published_values(example_runs):
    for name in fixtures.FIXTURE_NAMES:
        desc, profile, _ = example_runs.get(name)
        q = profile.q_function()
        assert {d: q(d) for d in q.support} == desc.expected["q"], name
        assert profile.stable_rank == desc.expected["stable_rank"], name
        for n, a in desc.expected["alpha"].items():
            assert profile.alpha(n) == a, (name, n)
        for n, b in desc.expected["beta"].items():
            assert profile.record(n).beta == b, (name, n)


def test_profile_row_values_32(example_runs):
    _, profile, _ = example_runs.get("3.2")
    rows = [(r.n, r.alpha, r.beta, r.q_sharp) for r in profile.records]
    assert rows == [(0, 0, 0, 0), (1, 1, 1, 0), (2, 4, 4, 3)]


def test_empty_presentation_profile():
    empty = GradedMatrix(F, [0], [], [[]])
    profile = qprofile.compute_q_profile(empty)
    assert profile.records == []
    assert profile.stable_rank == 0
    assert profile.dissociated


def test_dissociated_detection():
    ident = M([1, 2], [1, 2], [["1", "0"], ["0", "1"]])
    profile = qprofile.compute_q_profile(ident)
    assert profile.dissociated
    assert profile.b0_is_lower_bound
    assert profile.stable_rank == 2


def test_profile_invariants_on_fixtures(example_runs):
    for name in fixtures.FIXTURE_NAMES:
        _, profile, _ = example_runs.get(name)
        assert qprofile.profile_invariant_violations(profile) == [], name


def test_profile_json_roundtrip(example_runs):
    _, profile, _ = example_runs.get("3.2")
    obj = profile.to_json()
    assert obj["b0"] == 0
    assert obj["stable_rank"] == 4
    assert obj["q"] == {"2": 3}
    assert [r["q_sharp"] for r in obj["rows"]] == [0, 0, 3]


def test_gapped_degrees_are_analysed_once_per_truncation(monkeypatch):
    # no column has degree 2 or 3, so s_2 = s_3 = s_1: the scan analyses
    # the truncations with 0, 1 and 2 columns once each, and every row
    # still equals alpha and beta computed at its own degree
    s = M([0, 0], [1, 4], [["X", "Z^4"], ["Y", "T^4"]])
    calls = []
    analyse = qprofile.coprime_minor_analysis

    def counted(w, seed=qprofile.DEFAULT_SEED):
        calls.append(w.ncols)
        return analyse(w, seed=seed)

    monkeypatch.setattr(qprofile, "coprime_minor_analysis", counted)
    profile = qprofile.compute_q_profile(s)
    assert calls == [0, 1, 2]
    monkeypatch.undo()
    assert [rec.n for rec in profile.records] == [0, 1, 2, 3, 4]
    for rec in profile.records:
        assert (rec.alpha, rec.beta) == (oracles.alpha(s, rec.n), oracles.beta(s, rec.n))
    assert [rec.q_sharp for rec in profile.records] == [0, 1, 1, 1, 1]
    assert profile.b0 == 3 and profile.stabilized


def _buchberger_runs(monkeypatch) -> list:
    """The basis sizes of every `modgb._buchberger` run from now on."""
    runs, real = [], modgb._buchberger

    def counted(*args):
        basis, truncated_at = real(*args)
        runs.append(len(basis))
        return basis, truncated_at

    monkeypatch.setattr(modgb, "_buchberger", counted)
    return runs


@pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
@pytest.mark.parametrize("seed", [qprofile.DEFAULT_SEED, 902, 100])
def test_profiles_of_recipe_inputs_compute_no_groebner_basis(name, seed, monkeypatch):
    # every block of s_t and of its truncations meets the bound of the block
    # that kills it (sigma1 @ sigma2 = 0) or of the block of s_t it lies in
    desc = fixtures.example(name)
    s = GradedMatrix.from_json(desc.matrix.to_json())
    runs = _buchberger_runs(monkeypatch)
    profile = qprofile.compute_q_profile(s, seed=seed)
    assert runs == []
    assert profile.q_function().support == desc.expected["q"]


def test_rao_family_profile_computes_no_groebner_basis(monkeypatch):
    s = fixtures.rao_family(5, 3, 1)
    runs = _buchberger_runs(monkeypatch)
    assert qprofile.compute_q_profile(s).q_function() == CharFunction({1: 3, 2: 13, 3: 36})
    assert runs == []


def test_a_short_block_without_bound_takes_the_groebner_count(monkeypatch):
    # [[X, Y], [X, Y]] has rank 1 < 2, and the block beside it has other
    # degrees: no partner, no parent, so the Groebner count ranks it.  So
    # does [[Y, Y], [Y, Y]]: its entries involve one variable, but a point
    # rank below the bound goes to the count all the same
    for m, ranks in (
        (M([0, 0, 1], [1, 1, 2], [["X", "Y", "0"], ["X", "Y", "0"], ["0", "0", "Z"]]), [1, 1]),
        (M([0, 0], [1, 1], [["Y", "Y"], ["Y", "Y"]]), [1]),
    ):
        runs = _buchberger_runs(monkeypatch)
        assert [r for _, r in ranked_blocks(m)] == ranks
        assert len(runs) == 1
        monkeypatch.undo()


def test_as_many_columns_as_the_rank_count_no_generators(monkeypatch):
    # 3.4's truncation at n = 1 is one column of rank 1: free without a
    # minimal generator count; the 19 x 17 truncation at n = 2 takes one
    m = fixtures.example("3.4").matrix
    cold = GradedMatrix(m.field, m.row_degrees, m.col_degrees, m.entries)
    counted, count = [], modgb.minimal_generator_count

    def spy(w):
        counted.append((w.nrows, w.ncols))
        return count(w)

    monkeypatch.setattr(modgb, "minimal_generator_count", spy)
    assert qprofile.compute_q_profile(cold).b0 == 1
    assert counted == [(19, 17)]


@settings(max_examples=25, deadline=None)
@given(nrows=st.integers(1, 3), ncols=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_column_module_freeness_matches_the_generator_count(nrows, ncols, seed):
    # every truncation of a random matrix with column degrees 1 and 2, some
    # columns a multiple of another by a linear form
    rng = random.Random(seed)
    col_degs = sorted(rng.randrange(1, 3) for _ in range(ncols))
    grid = [[_random_form(c, rng) for c in col_degs] for _ in range(nrows)]
    for j, c in enumerate(col_degs):
        if c == 2 and col_degs[0] == 1 and rng.random() < 0.5:
            form = _random_form(1, rng)
            for row in grid:
                row[j] = form * row[0]
    s = GradedMatrix(F, [0] * nrows, col_degs, grid)
    for n in (1, 2):
        w = s.truncate_columns(n)
        if w.ncols:
            rank = rank_fraction_field(w)
            want = modgb.minimal_generator_count(w).rank() == rank
            assert qprofile._column_module_free(w, rank) == want


def test_window_override_caps_scan():
    desc = fixtures.example("3.2")
    profile = qprofile.compute_q_profile(desc.matrix, window=(0, 1))
    assert not profile.stabilized
    assert profile.warnings


def test_window_must_start_where_q_sharp_vanishes():
    s = fixtures.example("3.2").matrix  # inf L2 - 1 = 0
    for window in ((5, 5), (1, None), (8, 2), (None, -1)):
        with pytest.raises(qprofile.WindowError):
            qprofile.compute_q_profile(s, window=window)
    assert qprofile.compute_q_profile(s, window=(-2, None)).q_function().to_json() == {"2": 3}


# ---------------------------------------------------------------------------
# admissibility


def test_q_itself_is_admissible(example_runs):
    for name in fixtures.FIXTURE_NAMES:
        _, profile, _ = example_runs.get(name)
        ok, reason = qprofile.check_p_admissible(profile.q_function(), profile)
        assert ok, (name, reason)


def test_admissibility_rejects_excess(example_runs):
    _, profile, _ = example_runs.get("3.2")
    ok, reason = qprofile.check_p_admissible(CharFunction({1: 1, 2: 2}), profile)
    assert not ok
    assert "q#(1)" in reason


def test_admissibility_mass_mismatch(example_runs):
    _, profile, _ = example_runs.get("3.2")
    with pytest.raises(qprofile.MassMismatchError):
        qprofile.check_p_admissible(CharFunction({2: 1}), profile)


def test_admissibility_obligatory_part(example_runs):
    _, profile, _ = example_runs.get("3.4")
    # shifting the obligatory degree-1 generator to degree 0 violates p# <= q#
    ok, reason = qprofile.check_p_admissible(CharFunction({0: 1, 3: 15}), profile)
    assert not ok and "q#(0)" in reason
    # the minimal shape itself passes
    ok, _ = qprofile.check_p_admissible(CharFunction({1: 1, 3: 15}), profile)
    assert ok


def test_admissibility_obligatory_condition_two():
    # synthetic profile with an alpha jump inside the free regime: the second
    # condition has content there (equality of p# and q# at n <= b0 forces
    # p to match alpha below)
    records = [
        qprofile.DegreeRecord(0, 0, 0, 0),
        qprofile.DegreeRecord(1, 1, 1, 1),
        qprofile.DegreeRecord(2, 3, 3, 3),
        qprofile.DegreeRecord(3, 5, 4, 4),
    ]
    profile = qprofile.QProfile(
        records=records, b0=2, b0_is_lower_bound=False, stable_rank=5,
        dissociated=False, stabilized=True, inf_l2=1,
    )
    ok, _ = qprofile.check_p_admissible(CharFunction({1: 1, 2: 2, 3: 1}), profile)
    assert ok
    ok, reason = qprofile.check_p_admissible(CharFunction({2: 3, 3: 1}), profile)
    assert not ok and "obligatory" in reason


def test_admissibility_refuses_dissociated():
    ident = M([1, 2], [1, 2], [["1", "0"], ["0", "1"]])
    profile = qprofile.compute_q_profile(ident)
    with pytest.raises(qprofile.DissociatedSheafError):
        qprofile.check_p_admissible(CharFunction({1: 1}), profile)


# ---------------------------------------------------------------------------
# the sampling oracle


def test_oracle_on_small_example(example_runs):
    desc, profile, _ = example_runs.get("3.2")
    assert oracles.q_oracle(desc.matrix, 2, trials=20) == 3 == profile.q_sharp(2)
    assert oracles.q_oracle(desc.matrix, 1, trials=20) == 0
    assert oracles.q_oracle(desc.matrix, 0, trials=5) == 0


def test_oracle_budget_guard(example_runs):
    desc, _, _ = example_runs.get("3.4")
    with pytest.raises(oracles.BudgetExceededError):
        oracles.q_oracle(desc.matrix, 3)


def test_oracle_matches_profile_on_random_linear_matrix():
    rng = random.Random(77)
    grid = [[
        MultiPoly(F, {
            tuple([1 if v == k else 0 for k in range(4)] + [0]): rng.randrange(32003)
            for v in range(4)
        })
        for _ in range(4)] for _ in range(3)]
    s = GradedMatrix(F, [0] * 3, [1] * 4, grid, validate=False)
    profile = qprofile.compute_q_profile(s)
    for rec in profile.records:
        assert oracles.q_oracle(s, rec.n, trials=50) == rec.q_sharp


# ---------------------------------------------------------------------------
# seeds


def test_subseed_stability():
    assert qprofile.subseed(1, "x") == qprofile.subseed(1, "x")
    assert qprofile.subseed(1, "x") != qprofile.subseed(2, "x")
    assert qprofile.subseed(1, "x") != qprofile.subseed(1, "y")
