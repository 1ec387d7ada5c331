from __future__ import annotations

import pytest

from biliaison import families, fixtures, modgb, qprofile
from biliaison.grmatrix import GradedMatrix, rank_fraction_field
from biliaison.polyring import FieldSpec

F = FieldSpec.prime()
G = FieldSpec.prime(10007)  # a second prime field


def test_koszul_identities():
    U, V, Vp = fixtures.koszul_matrices()
    assert (U @ V).is_zero_matrix()
    assert (V @ Vp).is_zero_matrix()
    assert (U.nrows, U.ncols) == (1, 4)
    assert (V.nrows, V.ncols) == (4, 6)
    assert (Vp.nrows, Vp.ncols) == (6, 4)
    assert all(p.is_zero() or p.degree == 1 for row in V.entries for p in row)


def test_koszul_ranks():
    U, V, Vp = fixtures.koszul_matrices()
    assert rank_fraction_field(U) == 1
    assert rank_fraction_field(V) == 3
    assert rank_fraction_field(Vp) == 3


def test_block_construction_shapes():
    d32 = fixtures.example("3.2")
    assert (d32.matrix.nrows, d32.matrix.ncols) == (5, 10)
    d33 = fixtures.example("3.3")
    assert (d33.matrix.nrows, d33.matrix.ncols) == (10, 10)
    d34 = fixtures.example("3.4")
    assert (d34.matrix.nrows, d34.matrix.ncols) == (19, 51)
    assert d34.matrix.col_degrees == (1,) + (2,) * 16 + (3,) * 34


def test_block_requires_matching_degrees():
    U, V, Vp = fixtures.koszul_matrices()
    with pytest.raises(ValueError):
        fixtures.block_dvr_matrix(U, Vp)  # 4 columns vs 6 rows


def test_block_specializes_to_diagonal():
    d = fixtures.example("3.2")
    s_t = d.matrix.specialize_closed_point()
    for i in range(1, 5):
        for j in range(4):
            assert s_t.entries[i][j].is_zero()


def test_identity_block_size_note_recorded():
    d33 = fixtures.example("3.3")
    assert any("size 6" in note for note in d33.notes)
    # the identity block really is 6x6: the a-entries sit on the diagonal of
    # the lower-left block
    m = d33.matrix
    for k in range(6):
        assert str(m.entries[4 + k][k]) == "a"


def test_large_example_syzygy_reconstruction():
    d34 = fixtures.example("3.4")
    assert d34.expected["syzygy_count"] == 34
    sigma1 = d34.matrix.submatrix([0, 1], range(17)).specialize_closed_point()
    sigma2 = d34.matrix.submatrix(range(2, 19), range(17, 51)).specialize_closed_point()
    assert (sigma1 @ sigma2).is_zero_matrix()
    assert not d34.hypothesis_certifiable
    assert any("asserted by construction" in n for n in d34.notes)


def test_fixture_construction_is_field_parametric():
    for name in fixtures.FIXTURE_NAMES:
        mp = fixtures.example(name, F).matrix
        mq = fixtures.example(name, G).matrix
        assert mp.row_degrees == mq.row_degrees
        assert mp.col_degrees == mq.col_degrees
        for ra, rb in zip(mp.entries, mq.entries):
            for a, b in zip(ra, rb):
                assert str(a) == str(b)


def test_fixture_export_roundtrip(tmp_path):
    for name in fixtures.FIXTURE_NAMES:
        m = fixtures.example(name).matrix
        path = tmp_path / f"{name}.json"
        m.save(str(path))
        assert GradedMatrix.load(str(path)) == m


def test_unknown_fixture_name():
    with pytest.raises(KeyError):
        fixtures.example("9.9")


def test_rao_family_invariants_at_r5():
    # r = 5 generators in degree 0, 3 linear columns: two seeds agree
    for seed in (1, 2):
        s = fixtures.rao_family(5, 3, seed=seed)
        assert (s.nrows, s.ncols) == (58, 147)
        sigma1 = s.submatrix(range(5), range(53)).specialize_closed_point()
        assert sigma1.col_degrees == (1,) * 3 + (2,) * 50
        assert set(s.col_degrees[53:]) <= {2, 3}
        assert (sigma1 @ s.submatrix(range(5, 58), range(53, 147))).is_zero_matrix()
        profile = qprofile.compute_q_profile(s)
        assert profile.q_function().to_json() == {"1": 3, "2": 13, "3": 36}
        report = families.minimal_family(s, profile=profile)
        assert (report.deg_N, report.h0, report.d0, report.g0) == (-103, 34, 666, 14875)
