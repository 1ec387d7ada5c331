from __future__ import annotations

import random
from math import comb

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from biliaison import families, fixtures, modgb, qprofile
from biliaison.grmatrix import CharFunction, GradedMatrix
from biliaison.modgb import HilbertPolynomial
from biliaison.polyring import FieldSpec, MultiPoly

F = FieldSpec.prime()


def P(text: str) -> MultiPoly:
    return MultiPoly.parse(text, F)


def M(row_degs, col_degs, rows) -> GradedMatrix:
    return GradedMatrix(F, row_degs, col_degs, [[P(s) for s in r] for r in rows])


def _random_matrix(rng, row_degs, col_degs, density, field=F) -> GradedMatrix:
    """Random homogeneous entries: entry (i, j) has degree col_degs[j] - row_degs[i]
    (zero when negative), each monomial kept with probability ``density``."""
    grid = [[
        MultiPoly(field, {
            mono + (0,): rng.randrange(1, field.characteristic)
            for mono in modgb.monomials_of_degree(cd - rd) if rng.random() < density
        })
        for cd in col_degs] for rd in row_degs]
    return GradedMatrix(field, row_degs, col_degs, grid, validate=False)


def _mixed_degree_matrices(rng, count):
    """Matrices whose row degrees are drawn from {0, 1, 2}, so one degree piece
    holds terms of different monomial degrees in different components."""
    for _ in range(count):
        row_degs = [rng.choice([0, 1, 2]) for _ in range(rng.randrange(2, 4))]
        col_degs = sorted(rng.choice([1, 2, 3]) for _ in range(rng.randrange(2, 5)))
        yield _random_matrix(rng, row_degs, col_degs, 0.5)


def _vec(terms, degree):
    """The engine's vector with the terms {packed key: coefficient}."""
    keys = sorted(terms)
    return modgb._Vec(np.array(keys, dtype=np.int64),
                      np.array([terms[k] for k in keys], dtype=np.int64), degree)


def _vec_terms(vec):
    """The terms {packed key: coefficient} of an engine vector."""
    return dict(zip(vec.keys.tolist(), vec.coefs.tolist()))


def _vec_to_column(vec, ambient_degrees, field=F):
    """A vector of the engine as a column of polynomials, one per component."""
    polys = [dict() for _ in ambient_degrees]
    for k, c in _vec_terms(vec).items():
        comp, *e = modgb._unpack(k)
        polys[comp][tuple(e) + (0,)] = c
    return [MultiPoly(field, d) for d in polys]


def _member_by_linear_algebra(gens: GradedMatrix, column, degree: int) -> bool:
    """Membership oracle: does adding the element increase the span?"""
    extended = GradedMatrix(
        gens.field,
        gens.row_degrees,
        list(gens.col_degrees) + [degree],
        [list(row) + [column[i]] for i, row in enumerate(gens.entries)],
        validate=False,
    )
    return oracles.module_dimension_oracle(extended, degree) == \
        oracles.module_dimension_oracle(gens, degree)


# ---------------------------------------------------------------------------
# Groebner bases


def test_gb_single_generator():
    gens = M([0, 1, 1, 1, 1], [1], [["X"], ["-1"], ["0"], ["0"], ["0"]])
    pres = modgb.groebner_basis(gens)
    assert len(pres.gb) == 1
    assert oracles.contains_column(pres, oracles.column(gens, 0), 1)


def test_gb_maximal_ideal():
    gens = M([0], [1, 1, 1, 1], [["X", "Y", "Z", "T"]])
    pres = modgb.groebner_basis(gens)
    assert len(pres.gb) == 4
    assert oracles.contains_column(pres, [P("X^2*Y - Z*T^2")], 3)
    assert not oracles.contains_column(pres, [P("1")], 0)


def test_gb_koszul_image_absorbs_next_differential():
    _, V, Vp = fixtures.koszul_matrices()
    pres = modgb.groebner_basis(V)
    composite = V @ Vp  # zero by exactness; its columns reduce to zero
    for j in range(composite.ncols):
        assert oracles.contains_column(pres, oracles.column(composite, j), composite.col_degrees[j])
    # a nontrivial member: X times the first column of V
    member = [P("X") * p for p in oracles.column(V, 0)]
    assert oracles.contains_column(pres, member, 3)
    # and a non-member
    assert not oracles.contains_column(pres, [P("X^2"), P("0"), P("0"), P("0")], 3)


def test_gb_inhomogeneous_rejected():
    gens = GradedMatrix(F, [0], [2], [[P("X^2 + Y")]], validate=False)
    with pytest.raises(modgb.InhomogeneousError):
        modgb.groebner_basis(gens)


def _membership_cases():
    """Random modules: linear columns, then columns over mixed row degrees."""
    rng = random.Random(23)
    cases = []
    for _ in range(6):
        nrows = rng.randrange(1, 3)
        ncols = rng.randrange(1, 4)
        grid = [[
            MultiPoly(F, {
                tuple([1 if v == k else 0 for k in range(4)] + [0]): rng.randrange(32003)
                for v in range(4) if rng.random() < 0.7
            })
            for _ in range(ncols)] for _ in range(nrows)]
        cases.append(GradedMatrix(F, [0] * nrows, [1] * ncols, grid, validate=False))
    cases.extend(_mixed_degree_matrices(random.Random(24), 4))
    return cases


def test_gb_two_way_membership_random():
    for gens in _membership_cases():
        pres = modgb.groebner_basis(gens)
        # every generator reduces to zero against the basis
        for j in range(gens.ncols):
            assert oracles.contains_column(pres, oracles.column(gens, j), gens.col_degrees[j])
        # every basis element lies in the module spanned by the generators
        for vec in pres.gb:
            col = _vec_to_column(vec, gens.row_degrees)
            assert _member_by_linear_algebra(gens, col, vec.degree)


def test_vectors_are_sorted_keys_and_nonzero_coefficients():
    # a vector is stored once: strictly ascending keys, the lead the last of
    # them, and coefficients in [1, p), for the input columns and the basis
    p = F.characteristic
    for gens in _membership_cases() + _hilbert_oracle_cases():
        pres = modgb.groebner_basis(gens)
        vecs = modgb._column_vecs(gens) + pres.gb
        assert pres.gb
        for v in vecs:
            assert v.keys.dtype == v.coefs.dtype == np.int64
            assert len(v.keys) == len(v.coefs)
            assert (np.diff(v.keys) > 0).all()
            assert ((1 <= v.coefs) & (v.coefs < p)).all()
            if not v.is_zero():
                assert v.lead_key() == v.keys[-1]


def _scan_normal_form(gb, vec, p):
    """Reference reducer: rescan the terms, largest first, for the first basis
    element whose lead divides one; returns (terms, reduction steps)."""
    terms = _vec_terms(vec)
    steps = 0
    while True:
        for key in sorted(terms, reverse=True):
            t = modgb._unpack(key)
            g = next((g for g in gb if g.lead()[0] == t[0]
                      and all(a <= b for a, b in zip(g.lead()[1:], t[1:]))), None)
            if g is not None:
                break
        else:
            return terms, steps
        c, shift = terms[key], key - g.lead_key()
        for gk, gc in _vec_terms(g).items():
            value = (terms.get(gk + shift, 0) - c * gc) % p
            if value:
                terms[gk + shift] = value
            else:
                terms.pop(gk + shift, None)
        steps += 1


def test_table_normal_form_matches_scan_reducer(monkeypatch):
    # the reducer table must pick the same reducer at every step as a scan
    # over the basis: same normal form, same number of `_sub_scaled` steps
    steps = []
    sub_scaled = modgb._sub_scaled

    def counted(*args):
        steps.append(args)
        return sub_scaled(*args)

    rng = random.Random(25)
    checked = 0
    for gens in _membership_cases():
        pres = modgb.groebner_basis(gens)
        monkeypatch.setattr(modgb, "_sub_scaled", counted)
        lo = min(gens.col_degrees)
        for degree in range(lo, lo + 3):
            for _ in range(4):
                terms = {}
                for comp, a in enumerate(gens.row_degrees):
                    for mono in modgb.monomials_of_degree(degree - a):
                        if rng.random() < 0.5:
                            terms[modgb._pack((comp,) + mono)] = rng.randrange(1, 32003)
                if not terms:
                    continue
                vec = _vec(terms, degree)
                steps.clear()
                nf = oracles.normal_form(pres, vec)
                want, want_steps = _scan_normal_form(pres.gb, vec, F.characteristic)
                assert _vec_terms(nf) == want
                assert len(steps) == want_steps
                checked += want_steps
        monkeypatch.undo()
    assert checked > 100


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), nrows=st.integers(1, 6))
def test_block_reduces_like_its_rows(seed, nrows):
    # reducing a block of same-degree vectors gives, row by row, the normal
    # form of each row reduced alone
    rng = random.Random(seed)
    gens = rng.choice(_membership_cases())
    pres = modgb.groebner_basis(gens)
    degree = min(gens.col_degrees) + rng.randrange(3)
    reducers = oracles.reducers(pres)
    keys = reducers.pieces(degree)
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.15 and rows:
            rows.append(rows[rng.randrange(len(rows))] * rng.randrange(32003) % 32003)
        elif kind < 0.25:
            rows.append(np.zeros(len(keys), dtype=np.int64))
        else:
            density = rng.choice([0.1, 0.5, 1.0])
            rows.append(np.array([rng.randrange(1, 32003) if rng.random() < density else 0
                                  for _ in keys], dtype=np.int64))
    block = modgb._normal_form(np.stack(rows), reducers, degree)
    for row, reduced in zip(rows, block):
        alone = oracles.normal_form(pres, modgb._row_vec(row, keys, degree))
        assert _vec_terms(modgb._row_vec(reduced, keys, degree)) == _vec_terms(alone)


def _reduced_basis(gens, monkeypatch, chunk_cells=None):
    """Reduced basis of the columns of ``gens``, element by element, its
    truncation degree, the (degree, rows, piece size) of each block that
    `_normal_form` reduces, and the size of the largest degree piece the run
    builds; ``chunk_cells`` patches the cell bound of a block."""
    blocks, pieces = [], []
    normal_form, build = modgb._normal_form, modgb._DegreePieces.__call__

    def reduced(work, reducers, degree):
        blocks.append((degree,) + work.shape)
        return normal_form(work, reducers, degree)

    def built(self, d):
        keys = build(self, d)
        pieces.append(len(keys))
        return keys

    monkeypatch.setattr(modgb, "_normal_form", reduced)
    monkeypatch.setattr(modgb._DegreePieces, "__call__", built)
    if chunk_cells is not None:
        monkeypatch.setattr(modgb, "_MAX_CELLS", chunk_cells)
    gb, truncated_at = modgb._buchberger(
        modgb._column_vecs(gens), F, gens.row_degrees, None)
    monkeypatch.undo()
    return [sorted(_vec_terms(v).items()) for v in gb], truncated_at, blocks, max(pieces)


def _fixture_34_bases():
    """3.4's s_t and the composite w = s_t v of the first lift minimal_family tries."""
    desc = fixtures.example("3.4")
    profile = qprofile.compute_q_profile(desc.matrix)
    v = families.sample_general_morphism(
        desc.matrix, profile.q_function(), profile=profile,
        seed=qprofile.subseed(qprofile.DEFAULT_SEED, "minimal-family", 0))
    return desc.matrix.specialize_closed_point(), families._composite(desc.matrix, v)


def test_chunked_blocks_give_the_same_basis(monkeypatch):
    # a cell bound as small as the largest piece the run builds splits the
    # rows of a degree into several blocks; the reduced basis must not
    # change, element by element
    s_t, w = _fixture_34_bases()
    split = []
    for gens in _hilbert_oracle_cases() + [s_t, w]:
        whole = _reduced_basis(gens, monkeypatch)
        bound = whole[3]
        chunked = _reduced_basis(gens, monkeypatch, bound)
        assert chunked[:2] == whole[:2]
        assert all(rows * n <= bound for _, rows, n in chunked[2])
        if any(rows * n > bound for _, rows, n in whole[2]):
            assert len(chunked[2]) > len(whole[2])
            split.append(gens)
        if gens is s_t:
            # the one basis a command computes: every generator and every
            # S-pair that survives the chain criterion is reduced, 111 rows
            # in one block per degree, and in the chunked run degree 4 takes
            # its 26 rows one 250-term row per block
            assert [(d, rows) for d, rows, _ in whole[2]] == [(1, 1), (2, 16), (3, 68), (4, 26)]
            assert sum(rows for _, rows, _ in chunked[2]) == 111
            assert [b for b in chunked[2] if b[0] == 4] == [(4, 1, 250)] * 26
    assert s_t in split and w in split


def _sympy_reduced_basis(polys, p):
    """Reduced grevlex basis of an ideal by sympy, monic, as sorted term lists."""
    xs = sympy.symbols("X Y Z T")
    exprs = [sympy.Poly({e[:4]: c for e, c in q.terms.items()}, *xs) for q in polys]
    out = []
    for g in sympy.groebner(exprs, *xs, order="grevlex", modulus=p).polys:
        inv = pow(int(g.LC(order="grevlex")) % p, -1, p)  # the default LC() is lex
        out.append(sorted((tuple(e) + (0,), int(c) * inv % p) for e, c in g.terms()))
    return sorted(out)


def _check_ideal_gb_against_sympy(seed, field):
    """Random homogeneous ideals: 2-4 generators of degree 2-3 in one row."""
    rng = random.Random(seed)
    degrees = [rng.choice([2, 3]) for _ in range(rng.randrange(2, 5))]
    gens = _random_matrix(rng, [0], degrees, 0.4, field)
    polys = [q for q in gens.entries[0] if not q.is_zero()]
    if not polys:
        return
    pres = modgb.groebner_basis(gens, degree_cap=None)
    ours = sorted(sorted(_vec_to_column(v, (0,), field)[0].terms.items()) for v in pres.gb)
    assert ours == _sympy_reduced_basis(polys, field.characteristic)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_ideal_gb_matches_sympy(seed):
    _check_ideal_gb_against_sympy(seed, F)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_ideal_gb_matches_sympy_at_the_largest_prime(seed):
    # at p = 2^31 - 1 a block is reduced mod p after every second step, so
    # the delayed reduction is exercised on every longer normal form
    _check_ideal_gb_against_sympy(seed, FieldSpec.prime(2**31 - 1))


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), name=st.sampled_from(["3.2", "3.3"]))
def test_random_composites_match_the_dense_oracle(seed, name):
    # a composite s_t v is free on its columns when v is injective: its
    # basis must still give the Hilbert function of the dense oracle
    s = fixtures.example(name).matrix
    rng = random.Random(seed)
    shape = qprofile.compute_q_profile(s).q_function()
    v = families.random_matrix(s.field, s.col_degrees, shape.degrees(), rng)
    w = families._composite(s, v)
    pres = modgb.groebner_basis(w, degree_cap=None)
    _assert_reduced(pres.gb)
    lo = min(w.col_degrees)
    for n in range(lo, lo + 4):
        assert oracles.hilbert_function(pres, n) == oracles.module_dimension_oracle(w, n)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_random_complete_intersections_match_sympy_and_the_oracle(seed):
    # 1-4 dense forms of degrees 1-3 are a regular sequence at random: the
    # basis must be sympy's, and its Hilbert function the dense oracle's
    rng = random.Random(seed)
    degrees = sorted(rng.choice([1, 2, 3]) for _ in range(rng.randrange(1, 5)))
    gens = _random_matrix(rng, [0], degrees, 1.0)
    pres = modgb.groebner_basis(gens, degree_cap=None)
    ours = sorted(sorted(_vec_to_column(v, (0,))[0].terms.items()) for v in pres.gb)
    assert ours == _sympy_reduced_basis(gens.entries[0], F.characteristic)
    for n in range(degrees[0], degrees[-1] + 4):
        assert oracles.hilbert_function(pres, n) == oracles.module_dimension_oracle(gens, n)


def _assert_reduced(gb):
    """Monic leads, and no lead divides a term of another element."""
    for v in gb:
        assert _vec_terms(v)[v.lead_key()] == 1
        for w in gb:
            if w is not v:
                assert not any(modgb._unpack(k)[0] == w.lead()[0]
                               and modgb._mono_divides(w.lead(), modgb._unpack(k))
                               for k in _vec_terms(v))


def _with_redundant_columns(gens: GradedMatrix, rng) -> GradedMatrix:
    """gens plus zero columns, duplicates, scalar multiples and monomial
    multiples of its columns (divisible by a lower-degree column), shuffled."""
    cols = [(gens.col_degrees[j], oracles.column(gens, j)) for j in range(gens.ncols)]
    extra = [(rng.randrange(4), [MultiPoly.zero(gens.field)] * gens.nrows)]
    for d, col in rng.sample(cols, min(3, len(cols))):
        extra.append((d, col))
        c = rng.randrange(2, 32003)
        extra.append((d, [q.scale(c) for q in col]))
        mono = MultiPoly.monomial(gens.field, rng.choice(modgb.monomials_of_degree(1)) + (0,))
        extra.append((d + 1, [q * mono for q in col]))
    cols += extra
    rng.shuffle(cols)
    return GradedMatrix(gens.field, gens.row_degrees, [d for d, _ in cols],
                        [[col[i] for _, col in cols] for i in range(gens.nrows)], validate=False)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_redundant_generators_give_the_same_reduced_basis(seed):
    # generators enter as rows of their degree's block; zero, repeated,
    # proportional and divisible ones must vanish there and leave the
    # reduced basis, born reduced without a tail pass, as it was
    rng = random.Random(seed)
    gens = next(_mixed_degree_matrices(rng, 1))
    padded = _with_redundant_columns(gens, rng)
    whole = modgb.groebner_basis(gens, degree_cap=None)
    pres = modgb.groebner_basis(padded, degree_cap=None)
    assert {tuple(sorted(_vec_terms(v).items())) for v in pres.gb} == \
        {tuple(sorted(_vec_terms(v).items())) for v in whole.gb}
    _assert_reduced(pres.gb)
    lo = min(padded.col_degrees)
    for n in range(lo, lo + 4):
        assert oracles.hilbert_function(pres, n) == oracles.module_dimension_oracle(padded, n)


def test_redundant_ideal_generators_match_sympy():
    gens = M([0], [2, 2, 2, 3, 3, 4, 0], [[
        "X^2 + Y*Z", "X^2 + Y*Z", "3*X^2 + 3*Y*Z", "X^3 + X*Y*Z", "Y^2*T - Z^3", "0", "0"]])
    pres = modgb.groebner_basis(gens, degree_cap=None)
    ours = sorted(sorted(_vec_to_column(v, (0,))[0].terms.items()) for v in pres.gb)
    polys = [q for q in gens.entries[0] if not q.is_zero()]
    assert ours == _sympy_reduced_basis(polys, F.characteristic)
    _assert_reduced(pres.gb)


def test_capped_basis_holds_nothing_above_the_cap():
    # generators of degree 1 and 5 under a cap of 3: the degree-5 generator
    # is pending when the run stops, so it is left out and the basis is
    # marked truncated, even though no S-pair lies above the cap
    gens = M([0, 0], [1, 5], [["X", "0"], ["0", "Y^5"]])
    pres = modgb.groebner_basis(gens, degree_cap=3)
    assert [v.degree for v in pres.gb] == [1]
    assert pres.truncated_at == 3
    assert modgb.groebner_basis(gens, degree_cap=5).truncated_at is None


def test_dense_normal_form_range_errors():
    pres = modgb.groebner_basis(M([0], [1, 1, 1, 1], [["X", "Y", "Z", "T"]]))
    # a key of the wrong degree is not in the degree-2 piece: it must raise,
    # not be written into a neighbouring slot
    stray = _vec({modgb._pack((0, 2, 0, 0, 0)): 1, modgb._pack((0, 0, 1, 0, 0)): 1}, 2)
    with pytest.raises(modgb.TermRangeError):
        oracles.normal_form(pres, stray)
    beyond = _vec({modgb._pack((1, 2, 0, 0, 0)): 1}, 2)  # a component the module lacks
    with pytest.raises(modgb.TermRangeError):
        oracles.normal_form(pres, beyond)
    assert oracles.normal_form(pres, _vec({modgb._pack((0, 1, 1, 0, 0)): 5}, 2)).is_zero()
    # the degree-200 piece (1373701 terms) is refused before it is built
    with pytest.raises(modgb.TermRangeError):
        modgb.groebner_basis(M([0], [200], [["X^200"]]))


# ---------------------------------------------------------------------------
# Hilbert functions and polynomials


def test_hilbert_function_full_ring():
    pres = modgb.groebner_basis(M([0], [0], [["1"]]))
    for n in range(7):
        assert oracles.hilbert_function(pres, n) == comb(n + 3, 3)
    assert pres.hilbert_polynomial() == HilbertPolynomial.binomial_shift(0)


def test_hilbert_function_principal_ideal_shift():
    pres = modgb.groebner_basis(M([0], [1], [["X"]]))
    for n in range(7):
        assert oracles.hilbert_function(pres, n) == comb(n - 1 + 3, 3)


def test_hilbert_polynomial_shifted_free_module():
    pres = modgb.groebner_basis(M([2], [2], [["1"]]))
    assert pres.hilbert_polynomial() == HilbertPolynomial.binomial_shift(2)


def test_hilbert_vs_dense_oracle_on_example():
    s_t = fixtures.example("3.2").matrix.specialize_closed_point()
    pres = modgb.groebner_basis(s_t)
    for n in range(7):
        assert oracles.hilbert_function(pres, n) == oracles.module_dimension_oracle(s_t, n)


def _hilbert_oracle_cases():
    rng = random.Random(31)
    cases = []
    for _ in range(5):
        nrows = rng.randrange(1, 3)
        ncols = rng.randrange(1, 4)
        col_degs = sorted(rng.choice([1, 2]) for _ in range(ncols))
        cases.append(_random_matrix(rng, [0] * nrows, col_degs, 0.5))
    cases.extend(_mixed_degree_matrices(random.Random(32), 4))
    return cases


def test_hilbert_vs_dense_oracle_random():
    for gens in _hilbert_oracle_cases():
        pres = modgb.groebner_basis(gens)
        for n in range(7):
            assert oracles.hilbert_function(pres, n) == oracles.module_dimension_oracle(gens, n)


@settings(max_examples=200, deadline=None)
@given(gens=st.lists(st.tuples(*[st.integers(0, 3)] * 4), max_size=10))
def test_hilbert_numerator_matches_the_pairwise_oracle(gens):
    # the per-variable support counts decide the product formula, and the
    # minimalization unrolls its divisibility test
    assert modgb._hilbert_numerator(gens) == oracles.hilbert_numerator(gens)


def test_late_saturating_row_has_the_exact_polynomial():
    # (X, Y, Z, T^12) agrees with C(n + 3, 3) only from degree 12 on: the
    # leads give the polynomial with no window to find
    gens = M([0], [1, 1, 1, 12], [["X", "Y", "Z", "T^12"]])
    pres = modgb.groebner_basis(gens)
    assert pres.hilbert_polynomial() == HilbertPolynomial.binomial_shift(0)
    assert oracles.hilbert_function(pres, 11) == comb(14, 3) - 1
    assert oracles.hilbert_function(pres, 12) == comb(15, 3)


def _random_module(seed, mixed):
    """One of the random modules the oracle tests draw."""
    rng = random.Random(seed)
    if mixed:
        return next(_mixed_degree_matrices(rng, 1))
    col_degs = sorted(rng.choice([1, 2]) for _ in range(rng.randrange(1, 4)))
    return _random_matrix(rng, [0] * rng.randrange(1, 3), col_degs, 0.5)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), mixed=st.booleans())
def test_hilbert_polynomial_matches_function_from_the_numerator_degree(seed, mixed):
    # binom3(n - s) is the cubic C(n - s + 3, 3) from n = s - 3 on, so from
    # the largest shift a_c + deg N_c, less 3, the polynomial read off the
    # leads is the Hilbert function, and the dense oracle agrees (a unit
    # lead has N_c = 0 and the one shift a_c)
    gens = _random_module(seed, mixed)
    pres = modgb.groebner_basis(gens)
    hp = pres.hilbert_polynomial()
    numerators = {c: modgb._hilbert_numerator(pres.lt_generators(c)) for c in pres.leading_components()}
    start = max((pres.ambient_degrees[c] + max(len(num) - 1, 0) for c, num in numerators.items()),
                default=0) - 3
    for n in range(start, start + 3):
        assert hp(n) == oracles.hilbert_function(pres, n) == oracles.module_dimension_oracle(gens, n)


# ---------------------------------------------------------------------------
# minimal generators and freeness


def test_minimal_generators_maximal_ideal():
    gens = M([0], [1, 1, 1, 1], [["X", "Y", "Z", "T"]])
    assert modgb.minimal_generator_count(gens) == CharFunction({1: 4})


def test_minimal_generators_free_basis():
    gens = M([1, 2], [1, 2], [["1", "0"], ["0", "1"]])
    assert modgb.minimal_generator_count(gens) == CharFunction({1: 1, 2: 1})


def test_minimal_generators_redundant_column():
    gens = M([0], [1, 2], [["X", "X^2"]])
    assert modgb.minimal_generator_count(gens) == CharFunction({1: 1})


def test_minimal_generators_of_large_example_truncation():
    desc = fixtures.example("3.4")
    w = desc.matrix.truncate_columns(1).specialize_closed_point()
    assert modgb.minimal_generator_count(w) == CharFunction({1: 1})


def test_freeness_criterion_both_directions():
    from biliaison.grmatrix import rank_fraction_field

    # free: columns X*e1 and X*e2 generate a free module of rank 2
    free = M([0, 1], [1, 2], [["X", "0"], ["0", "X"]])
    mu = modgb.minimal_generator_count(free)
    assert mu.rank() == rank_fraction_field(free) == 2
    assert modgb.syzygies(free, 5).ncols == 0
    # not free: two generators of rank 1 admit a syzygy
    nonfree = M([0], [1, 1], [["X", "Y"]])
    mu2 = modgb.minimal_generator_count(nonfree)
    assert mu2.rank() == 2 > rank_fraction_field(nonfree) == 1
    assert modgb.syzygies(nonfree, 4).ncols > 0


# ---------------------------------------------------------------------------
# syzygies


def test_syzygy_of_two_variables():
    sy = modgb.syzygies(M([0], [1, 1], [["X", "Y"]]), 3)
    assert sy.ncols == 1 and sy.col_degrees == (2,)
    assert [str(p) for p in oracles.column(sy, 0)] == ["-Y", "X"]


def test_syzygies_of_no_generators_and_of_a_zero_column():
    empty = modgb.syzygies(GradedMatrix(F, [0], [], [[]]), 3)
    assert (empty.nrows, empty.ncols) == (0, 0)
    sy = modgb.syzygies(M([0], [1, 1], [["X", "0"]]), 3)
    assert sy.col_degrees == (1,)
    assert [str(p) for p in oracles.column(sy, 0)] == ["0", "1"]


def test_syzygies_of_koszul_row_are_the_koszul_matrix():
    U, V, _ = fixtures.koszul_matrices()
    sy = modgb.syzygies(U, 2)
    assert sy.ncols == 6 and set(sy.col_degrees) == {2}
    # same column span in degree 2 as the printed Koszul matrix
    both = GradedMatrix(F, sy.row_degrees, list(sy.col_degrees) + list(V.col_degrees),
                        [list(a) + list(b) for a, b in zip(sy.entries, V.entries)],
                        validate=False)
    assert oracles.module_dimension_oracle(both, 2) == \
        oracles.module_dimension_oracle(V, 2) == \
        oracles.module_dimension_oracle(sy, 2) == 6


def test_syzygies_of_large_example_presentation():
    desc = fixtures.example("3.4")
    # reconstructed during fixture assembly; re-derive here explicitly
    sigma1 = desc.matrix.submatrix([0, 1], range(17)).specialize_closed_point()
    sy = modgb.syzygies(sigma1, 3)
    assert sy.ncols == 34
    assert set(sy.col_degrees) == {3}
    # and every syzygy column composes to zero with sigma1
    assert (sigma1 @ sy).is_zero_matrix()


@settings(max_examples=25, deadline=None)
@given(
    nrows=st.integers(1, 3),
    col_degs=st.lists(st.integers(1, 2), min_size=2, max_size=5),
    density=st.sampled_from([0.3, 0.7]),
    seed=st.integers(0, 2**32 - 1),
)
def test_syzygies_generate_every_syzygy_and_are_minimal(nrows, col_degs, density, seed):
    # the columns of sy are syzygies; in every degree up to the bound they
    # span the whole kernel of the span matrix; and none is redundant
    gens = _random_matrix(random.Random(seed), [0] * nrows, col_degs, density)
    bound = 4
    sy = modgb.syzygies(gens, bound)
    assert (gens @ sy).is_zero_matrix()
    assert max(sy.col_degrees, default=bound) <= bound
    for d in range(bound + 1):
        mat, columns = modgb._span_matrix_mod_p(gens, d)
        assert oracles.module_dimension_oracle(sy, d) == \
            len(columns) - modgb._linalg.rank_mod_p(mat, F.characteristic)
    assert modgb.minimal_generator_count(sy) == oracles.from_degrees(sy.col_degrees)


def _rao_sigma1(r, nlin, seed):
    s = fixtures.rao_family(r, nlin, seed)
    return s.submatrix(range(r), range(nlin + 10 * r)).specialize_closed_point()


def test_syzygies_are_pinned_entry_for_entry():
    # the fingerprint hashes the degrees and every term of every entry
    sigma1 = fixtures.example("3.4").matrix.submatrix([0, 1], range(17)).specialize_closed_point()
    assert modgb.syzygies(sigma1, 3).fingerprint() == \
        "6b1f1d11efb31a97b37a11919496a7ca3e2bb105461481f1644a9a0cfd2f9941"
    assert modgb.syzygies(_rao_sigma1(5, 3, 1), 3).fingerprint() == \
        "5f04027f2d40e7bc4de82069f00a8e55ad1daa41e4f22e8d7d538d8b4dddc6b5"


def test_syzygies_take_one_echelon_form_per_degree(monkeypatch):
    # minimalization is one forward elimination per degree, not a rank per
    # kernel vector
    calls = []
    pivots_mod_p = modgb._linalg.pivots_mod_p

    def counted(a, p):
        calls.append(a.shape)
        return pivots_mod_p(a, p)

    def refuse(a, p):
        raise AssertionError("syzygies takes no rank")

    sigma1 = _rao_sigma1(5, 3, 1)
    monkeypatch.setattr(modgb._linalg, "pivots_mod_p", counted)
    monkeypatch.setattr(modgb._linalg, "rank_mod_p", refuse)
    sy = modgb.syzygies(sigma1, 3)
    assert sy.ncols == 94
    assert len(calls) <= 3 - min(sigma1.col_degrees) + 1


# ---------------------------------------------------------------------------
# emptiness certificates


def test_empty_locus_examples():
    assert modgb.is_empty_projective_locus([P("X"), P("Y"), P("Z"), P("T")])
    assert not modgb.is_empty_projective_locus([P("X"), P("Y")])
    assert modgb.is_empty_projective_locus([P("X^2"), P("Y^3"), P("Z"), P("T^2")])
    assert modgb.is_empty_projective_locus([P("X*Y"), P("3")])
    assert not modgb.is_empty_projective_locus([])


def test_empty_locus_of_rank_level_minors():
    from biliaison.grmatrix import block_decomposition, minors, rank_fraction_field

    s_t = fixtures.example("3.2").matrix.specialize_closed_point()
    for rows, cols in block_decomposition(s_t):
        sub = s_t.submatrix(rows, cols)
        assert modgb.is_empty_projective_locus(minors(sub, rank_fraction_field(sub)))
    assert modgb.has_constant_rank(s_t)


def test_empty_locus_rejects_parameter():
    with pytest.raises(ValueError):
        modgb.is_empty_projective_locus([P("a*X")])


@st.composite
def _forms(draw):
    """1-5 sparse forms of degree 1-3, pure powers drawn as often as the rest;
    a planted case has no pure power of T, so every form vanishes at (0:0:0:1)."""
    planted = draw(st.booleans())
    forms = []
    for _ in range(draw(st.integers(1, 5))):
        d = draw(st.integers(1, 3))
        monos = [e for e in modgb.monomials_of_degree(d) if not (planted and e[3] == d)]
        pure = [e for e in monos if max(e) == d]
        term = st.sampled_from(pure) | st.sampled_from(monos)
        picked = draw(st.lists(term, min_size=1, max_size=3, unique=True))
        forms.append(MultiPoly(F, {e + (0,): draw(st.integers(1, 32002)) for e in picked}))
    return planted, forms


def _locus_is_empty_by_oracle(forms) -> bool:
    """Do the forms cut out the empty set?  By the dense Macaulay rank at
    D = 4 * delta - 3 (see `test_empty_locus_matches_macaulay_oracle`)."""
    forms = [f for f in forms if not f.is_zero()]
    if not forms:
        return False
    top = max(4 * max(int(f.degree) for f in forms) - 3, 0)
    gens = GradedMatrix(F, [0], [int(f.degree) for f in forms], [forms], validate=False)
    return oracles.module_dimension_oracle(gens, top) == modgb.binom3(top)


@settings(max_examples=40, deadline=None)
@given(_forms())
def test_empty_locus_matches_macaulay_oracle(case):
    """Differential test against the dense Macaulay rank at D = 4*delta - 3.

    The oracle is exact.  An ideal I generated in degrees <= delta that is
    primary to m = (X, Y, Z, T) is still m-primary when generated by its
    degree-delta piece, so over the algebraic closure I contains four general
    forms of degree delta.  They form a regular sequence, whose quotient
    vanishes beyond degree 4 * (delta - 1); hence I contains m^(4*delta - 3)
    and dim I_D = binom3(D).  If I is not m-primary, I_D is a proper subspace
    of S_D in every degree.  Field extension does not change the rank of the degree-D
    span, so the dense rank over F_p decides emptiness over the closure.
    """
    planted, forms = case
    oracle = _locus_is_empty_by_oracle(forms)
    assert modgb.is_empty_projective_locus(forms) == oracle
    if planted:
        assert not oracle


def test_constant_rank_of_blocks():
    # the rank-level minors X, Y of a 1x2 block vanish on a line
    assert not modgb.has_constant_rank(M([0], [1, 1], [["X", "Y"]]))
    # two blocks: a constant 1-minor settles the first, X..T the second
    assert modgb.has_constant_rank(
        M([0, 1], [0, 2, 2, 2, 2], [["1", "0", "0", "0", "0"], ["0", "X", "Y", "Z", "T"]]))


@st.composite
def _blocks(draw):
    """Small matrices with row degrees in {0, 1} and column degrees in {1, 2},
    so minors of one size can have different degrees; each entry is 0 to 3
    terms, pure powers drawn as often as the rest.  A planted case has no
    pure power of T, so every entry vanishes at (0:0:0:1)."""
    planted = draw(st.booleans())
    row_degs = draw(st.lists(st.integers(0, 1), min_size=1, max_size=2))
    col_degs = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    grid = []
    for rd in row_degs:
        row = []
        for cd in col_degs:
            monos = [e for e in modgb.monomials_of_degree(cd - rd)
                     if not (planted and e[3] == cd - rd)]
            pure = [e for e in monos if max(e) == cd - rd]
            term = st.sampled_from(pure) | st.sampled_from(monos) if monos else st.nothing()
            picked = draw(st.lists(term, max_size=3 if monos else 0, unique=True))
            row.append(MultiPoly(F, {e + (0,): draw(st.integers(1, 32002)) for e in picked}))
        grid.append(row)
    return planted, GradedMatrix(F, row_degs, col_degs, grid, validate=False)


@settings(max_examples=40, deadline=None)
@given(_blocks())
def test_constant_rank_matches_symbolic_minors_and_oracle(case):
    """The certified answer equals the symbolic route and the dense oracle,
    block by block."""
    from biliaison.grmatrix import block_decomposition, minors, rank_fraction_field

    planted, m = case
    symbolic, oracle = True, True
    for rows, cols in block_decomposition(m):
        sub = m.submatrix(rows, cols)
        forms = minors(sub, rank_fraction_field(sub))
        symbolic = symbolic and modgb.is_empty_projective_locus(forms)
        oracle = oracle and _locus_is_empty_by_oracle(forms)
    assert modgb.has_constant_rank(m) == symbolic == oracle
    if planted and block_decomposition(m):
        assert not oracle


def test_constant_rank_fallback_and_certificate(monkeypatch):
    calls = []
    enumerate_minors = modgb.minors

    def spy(m, k):
        calls.append((m.nrows, m.ncols, k))
        return enumerate_minors(m, k)

    monkeypatch.setattr(modgb, "minors", spy)
    # locally free, but X^2, Y^2, Z^2, T^2 span 4 of the 10 quadrics: the
    # values leave the block open and the symbolic route decides
    assert modgb.has_constant_rank(M([0], [2, 2, 2, 2], [["X^2", "Y^2", "Z^2", "T^2"]]))
    assert calls == [(1, 4, 1)]
    # minors of degrees 1 and 2: X, Y, Z times the linear forms and T^2
    # fill the quadrics
    calls.clear()
    assert modgb.has_constant_rank(M([0], [1, 1, 1, 2], [["X", "Y", "Z", "T^2"]]))
    assert calls == []
    # not locally free: X, Y vanish on a line, and only the symbolic route says so
    assert not modgb.has_constant_rank(M([0], [1, 1], [["X", "Y"]]))
    assert calls == [(1, 2, 1)]


def test_constant_rank_at_degree_p_takes_the_symbolic_route():
    # the 1-minor Z^1010 of degree >= p has no lattice certificate; the
    # symbolic route refuses it as the determinant does
    f = FieldSpec.prime(1009)
    m = GradedMatrix(f, [0], [1, 1010], [[MultiPoly.parse("X", f), MultiPoly.parse("Z^1010", f)]])
    with pytest.raises(modgb.BudgetExhaustedError, match="more than F_1009 has"):
        modgb.has_constant_rank(m)


def test_minor_values_in_chunks(monkeypatch):
    # 720 cells: a 20-point lattice and two combinations of the 80 cubic
    # 3-minors per chunk, up to 22 of them; the rank is carried from chunk to
    # chunk, and the chunks stop once it is full, after the twentieth
    from biliaison.grmatrix import block_decomposition

    s_t = fixtures.example("3.2").matrix.specialize_closed_point()
    rows, cols = block_decomposition(s_t)[1]
    block = s_t.submatrix(rows, cols)  # 4 x 6 of rank 3
    chunks = []
    det_mod_p = modgb._linalg.det_mod_p

    def spy(stack, p):
        chunks.append(len(stack))
        return det_mod_p(stack, p)

    monkeypatch.setattr(modgb, "_MAX_CELLS", 720)
    monkeypatch.setattr(modgb._linalg, "det_mod_p", spy)
    assert modgb._minors_fill_top_degree(block, 3)
    assert chunks == [2 * 20] * 10
    # 600 cells: a 10-point lattice and five combinations of the twelve
    # squares per chunk; they span 4 of the 10 quadrics, so they take every
    # chunk, and the symbolic route decides
    monkeypatch.setattr(modgb, "_MAX_CELLS", 600)
    chunks.clear()
    squares = M([0], [2] * 12, [["X^2", "Y^2", "Z^2", "T^2"] * 3])
    assert not modgb._minors_fill_top_degree(squares, 1)
    assert chunks == [5 * 10, 5 * 10, 2 * 10]
    calls = []
    enumerate_minors = modgb.minors
    monkeypatch.setattr(modgb, "minors", lambda m, k: calls.append(k) or enumerate_minors(m, k))
    assert modgb.has_constant_rank(squares)
    assert calls == [1]


@settings(max_examples=40, deadline=None)
@given(_blocks())
def test_combinations_fill_only_where_the_minors_fill(case):
    """Every block the seeded combinations fill at its top degree, the
    enumerated minors fill too: each combination lies in the span of the
    minors of its degree."""
    from biliaison.grmatrix import ranked_blocks

    _, m = case
    for sub, r in ranked_blocks(m):
        if modgb._minors_fill_top_degree(sub, r):
            assert oracles.minors_fill_top_degree(sub, r)


@pytest.mark.parametrize("name", ["3.2", "3.3"])
def test_fixture_blocks_are_certified_from_values(name, monkeypatch):
    # every block of 3.2 and 3.3 fills at its top degree: no symbolic minor
    # and no locus basis
    def refuse(*args):
        raise AssertionError("the symbolic route ran")

    s_t = fixtures.example(name).matrix.specialize_closed_point()
    monkeypatch.setattr(modgb, "minors", refuse)
    monkeypatch.setattr(modgb, "is_empty_projective_locus", refuse)
    assert modgb.has_constant_rank(s_t)


# ---------------------------------------------------------------------------
# degree budgets


def test_truncated_basis_raises_beyond_certified_degree():
    # the S-pairs of (X, Y, Z, T) have degree 2, above a cap of 1
    gens = M([0], [1, 1, 1, 1], [["X", "Y", "Z", "T"]])
    pres = modgb.groebner_basis(gens, degree_cap=1)
    assert pres.truncated_at == 1
    assert oracles.hilbert_function(pres, 1) == 4
    with pytest.raises(modgb.BudgetExhaustedError):
        oracles.hilbert_function(pres, 2)


def test_hilbert_polynomial_budget_error():
    gens = M([0], [1, 1, 1, 1], [["X", "Y", "Z", "T"]])
    pres = modgb.groebner_basis(gens, degree_cap=1)
    assert pres.truncated_at == 1
    with pytest.raises(modgb.BudgetExhaustedError):
        oracles.hilbert_function(pres, 2)
    with pytest.raises(modgb.BudgetExhaustedError):
        pres.hilbert_polynomial()
    assert modgb.groebner_basis(gens).hilbert_polynomial() == HilbertPolynomial.binomial_shift(0)


# ---------------------------------------------------------------------------
# packed term keys


def _module_order(t):
    """The module order: monomial degree, reverse lex, smaller component first."""
    comp, e0, e1, e2, e3 = t
    return (e0 + e1 + e2 + e3, -e3, -e2, -e1, -comp)


_exps = st.integers(0, 120)
_terms = st.tuples(st.integers(0, 1023), _exps, _exps, _exps, _exps)
_monos = st.tuples(_exps, _exps, _exps, _exps)


@settings(max_examples=200, deadline=None)
@given(_terms, _terms)
def test_packed_order_is_module_order(a, b):
    ka, kb = modgb._pack(a), modgb._pack(b)
    assert (ka < kb) == (_module_order(a) < _module_order(b))
    assert (ka == kb) == (a == b)
    assert modgb._unpack(ka) == a


@settings(max_examples=200, deadline=None)
@given(_terms, _terms, _monos)
def test_packed_monomial_multiplication_is_one_addition(t, u, m):
    def times(term):
        return (term[0],) + tuple(e + x for e, x in zip(term[1:], m))

    shift = modgb._pack(times(u)) - modgb._pack(u)
    assert modgb._pack(times(t)) == modgb._pack(t) + shift


def test_packed_key_range_raises_typed_error():
    modgb._pack((1023, 1023, 0, 0, 0))
    for bad in ((0, 1024, 0, 0, 0), (0, 600, 424, 0, 0), (1024, 0, 0, 0, 0), (0, -1, 0, 0, 0)):
        with pytest.raises(modgb.TermRangeError):
            modgb._pack(bad)
    # through the public API: an input column, and an S-pair of degree 1200
    with pytest.raises(modgb.TermRangeError):
        modgb.groebner_basis(M([0], [1024], [["X^1024"]]))
    with pytest.raises(modgb.TermRangeError):
        modgb.groebner_basis(M([0, 0], [601, 601], [["X^600*Y", "X*Y^600"], ["0", "0"]]),
                             degree_cap=None)
    # every term fits, but reducing a degree-10 vector may create terms of
    # monomial degree 10 + 1014 in the second component
    modgb._check_range(10, (0, -1013))
    with pytest.raises(modgb.TermRangeError):
        modgb.groebner_basis(M([0, -1014], [10], [["X^10"], ["0"]]))
