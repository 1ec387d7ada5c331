from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from biliaison import _linalg
from biliaison.polyring import FieldSpec

P31 = 2**31 - 1  # the largest prime FieldSpec admits


@settings(max_examples=40, deadline=None)
@given(
    nrows=st.integers(1, 6),
    ncols=st.integers(1, 7),
    inner=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_rank_mod_p_matches_sympy_at_largest_prime(nrows, ncols, inner, seed):
    # a product through an inner dimension caps the rank, so deficient
    # ranks are as common as full ones
    rng = random.Random(seed)
    left = [[rng.randrange(P31) for _ in range(inner)] for _ in range(nrows)]
    right = [[rng.randrange(P31) for _ in range(ncols)] for _ in range(inner)]
    a = [[sum(x * y for x, y in zip(row, col)) % P31 for col in zip(*right)] for row in left]
    K = GF(P31)
    oracle = DomainMatrix([[K(x) for x in row] for row in a], (nrows, ncols), K).rank()
    assert _linalg.rank_mod_p(np.array(a, dtype=np.int64), P31) == oracle


@settings(max_examples=40, deadline=None)
@given(
    nrows=st.integers(0, 16),
    ncols=st.integers(0, 18),
    inner=st.integers(1, 16),
    seed=st.integers(0, 2**32 - 1),
)
def test_pivots_mod_p_are_the_rref_pivots(nrows, ncols, inner, seed):
    # forward elimination finds the pivot columns of the reduced echelon form;
    # at this p both reduce the block mod p after every second update.  Runs
    # of zero columns, and a low rank, leave runs of columns dead at and below
    # the current row, which one scan passes over
    rng = random.Random(seed)
    left = [[rng.randrange(P31) for _ in range(inner)] for _ in range(nrows)]
    right = [[rng.randrange(P31) if rng.random() < 0.7 else 0 for _ in range(ncols)]
             for _ in range(inner)]
    for start in rng.sample(range(ncols), min(3, ncols)):
        stop = min(ncols, start + rng.randrange(1, 6))
        for row in right:
            row[start:stop] = [0] * (stop - start)
    a = np.array([[sum(x * y for x, y in zip(row, col)) % P31 for col in zip(*right)]
                  for row in left], dtype=np.int64).reshape(nrows, ncols)
    pivots = _linalg.pivots_mod_p(a, P31)
    rref, rref_pivots = _linalg.rref_mod_p(a, P31)
    assert pivots == rref_pivots
    if a.size:
        K = GF(P31)
        oracle, oracle_pivots = DomainMatrix(
            [[K(int(x)) for x in row] for row in a], a.shape, K).rref()
        assert pivots == list(oracle_pivots)
        assert rref.tolist() == [[int(x) % P31 for x in row] for row in oracle.to_list()]


def test_reduction_delay_at_both_ends_of_the_admitted_primes():
    # K falls as p grows, so K at the smallest and the largest prime that
    # FieldSpec admits bounds it at every admitted p; a residue plus K
    # products of two residues stays in int64
    for q in range(1000, 1009):
        with pytest.raises(ValueError):
            FieldSpec(q)
    for p in (1009, P31):
        FieldSpec(p)
        k = _linalg.reduction_delay(p)
        assert k >= 2 and p - 1 + k * (p - 1) ** 2 < 2**63
    assert _linalg.reduction_delay(P31) == 2


@settings(max_examples=40, deadline=None)
@given(
    batch=st.integers(1, 3),
    nrows=st.integers(0, 5),
    inner=st.integers(0, 9),
    ncols=st.integers(0, 5),
    p=st.sampled_from([32003, P31]),
    seed=st.integers(0, 2**32 - 1),
)
def test_matmul_mod_p_matches_python_ints(batch, nrows, inner, ncols, p, seed):
    # a stack times one matrix, broadcast as by `@`; half the entries are
    # p - 1, so at P31 three products would overflow int64 in one sum
    rng = random.Random(seed)

    def draw(*shape):
        return np.array([p - 1 if rng.random() < 0.5 else rng.randrange(p)
                         for _ in range(int(np.prod(shape)))], dtype=np.int64).reshape(shape)

    a, b = draw(batch, nrows, inner), draw(inner, ncols)
    want = [[[sum(int(x) * int(y) for x, y in zip(row, col)) % p for col in b.T] for row in m]
            for m in a]
    assert _linalg.matmul_mod_p(a, b, p).tolist() == want


@settings(max_examples=60, deadline=None)
@given(
    nrows=st.integers(0, 7),
    ncols=st.integers(0, 9),
    p=st.sampled_from([2, 3, 5, 7, 1009]),
    seed=st.integers(0, 2**32 - 1),
)
def test_nullspace_mod_p_matches_sympy(nrows, ncols, p, seed):
    # at these small p random matrices are often rank-deficient; the basis
    # is sympy's, with its last entry of each row made 1
    rng = random.Random(seed)
    a = np.array([[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)],
                 dtype=np.int64).reshape(nrows, ncols)
    basis = _linalg.nullspace_mod_p(a, p)
    assert basis.shape == (ncols - _linalg.rank_mod_p(a, p), ncols)
    assert not (a @ basis.T % p).any()
    if a.size:
        K = GF(p)
        oracle = DomainMatrix([[K(int(x)) for x in row] for row in a], a.shape, K)
        want = oracle.nullspace(divide_last=True).to_Matrix().tolist()
        assert basis.tolist() == [[int(x) % p for x in row] for row in want]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 16),
    batch=st.sampled_from([1, 2, 3, 4, 70]),
    p=st.sampled_from([32003, P31]),
    seed=st.integers(0, 2**32 - 1),
)
def test_det_mod_p_matches_sympy(n, batch, p, seed):
    # sparse entries move the pivots off the diagonal, so the sign matters;
    # a planted combination of rows makes some matrices singular; a batch of
    # 70 divides out its pivots by array exponentiation
    rng = random.Random(seed)
    K = GF(p)
    stack = []
    for _ in range(batch):
        density = rng.choice([0.15, 0.5, 1.0])
        a = [[rng.randrange(p) if rng.random() < density else 0 for _ in range(n)]
             for _ in range(n)]
        if n > 1 and rng.random() < 0.3:
            i, j = rng.sample(range(n), 2)
            c = rng.randrange(p)
            a[i] = [c * x % p for x in a[j]]
        stack.append(a)
    got = _linalg.det_mod_p(np.array(stack, dtype=np.int64), p)
    assert got.shape == (batch,)
    for a, det in zip(stack, got.tolist()):
        oracle = DomainMatrix([[K(x) for x in row] for row in a], (n, n), K).det()
        assert det == int(oracle) % p


@pytest.mark.parametrize("p", [10007, 32003, P31])
def test_3x3_determinants_by_cofactors_match_sympy(p):
    # a 3 x 3 stack takes the cofactor expansion: entries near p - 1 make
    # every product near p^2, and the last matrix is singular
    rng = random.Random(p)
    stack = [[[p - 1 - rng.randrange(3) for _ in range(3)] for _ in range(3)] for _ in range(40)]
    stack.append([[1, 2, 3], [2, 4, 6], [p - 1, 5, 7]])
    K = GF(p)
    got = _linalg.det_mod_p(np.array(stack, dtype=np.int64), p).tolist()
    assert got == [int(DomainMatrix([[K(x) for x in row] for row in a], (3, 3), K).det()) % p
                   for a in stack]
    assert got[-1] == 0


@pytest.mark.parametrize("p", [1009, 10007, 32003, P31])
@pytest.mark.parametrize("count", [0, 1, 1621, 4099])
def test_random_below_reads_the_words_of_randrange(p, count):
    # the same residues as count calls rng.randrange(p), and the same state
    # after.  A word is rejected with odds 1 - p / 2^bits: 39 % at 10007,
    # under 3 % at 1009 and 32003, and almost never at 2^31 - 1
    batched, one_by_one = random.Random(count * p), random.Random(count * p)
    draws = _linalg.random_below(batched, p, count)
    assert draws.dtype == np.int64 and draws.shape == (count,)
    assert draws.tolist() == [one_by_one.randrange(p) for _ in range(count)]
    assert batched.getstate() == one_by_one.getstate()
