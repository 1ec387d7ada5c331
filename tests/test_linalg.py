from __future__ import annotations

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from biliaison import _linalg

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
