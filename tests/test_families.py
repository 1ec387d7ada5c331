from __future__ import annotations

import gc
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from biliaison import families, fixtures, grmatrix, modgb, qprofile
from biliaison.grmatrix import CharFunction, GradedMatrix
from biliaison.modgb import HilbertPolynomial
from biliaison.polyring import FieldSpec, MultiPoly

F = FieldSpec.prime()


def P(text: str) -> MultiPoly:
    return MultiPoly.parse(text, F)


def M(row_degs, col_degs, rows) -> GradedMatrix:
    return GradedMatrix(F, row_degs, col_degs, [[P(s) for s in r] for r in rows])


# ---------------------------------------------------------------------------
# sheaf degree


def test_sheaf_degree_of_single_free_summand():
    for k in (0, 1, 3):
        s = M([k], [k], [["1"]])
        assert families.sheaf_degree(s, qprofile.compute_q_profile(s)) == -k


def test_sheaf_degree_additivity_on_free_sum():
    s = M([1, 2], [1, 2], [["1", "0"], ["0", "1"]])
    assert families.sheaf_degree(s, qprofile.compute_q_profile(s)) == -3


def test_sheaf_degree_of_examples(example_runs):
    for name, want in (("3.2", -4), ("3.3", -12), ("3.4", -33)):
        desc, profile, _ = example_runs.get(name)
        assert families.sheaf_degree(desc.matrix, profile) == want, name


# ---------------------------------------------------------------------------
# minimal shift


def test_minimal_shift_values(example_runs):
    for name, want in (("3.2", 2), ("3.3", 1), ("3.4", 13)):
        desc, profile, _ = example_runs.get(name)
        deg = families.sheaf_degree(desc.matrix, profile)
        assert families.minimal_shift(profile, deg) == want, name


def test_minimal_shift_is_plain_arithmetic(example_runs):
    _, profile, _ = example_runs.get("3.2")
    # q = {2: 3}, deg N = -4: 6 - 4 = 2
    assert profile.q_function().weighted_sum() == 6
    assert families.minimal_shift(profile, -4) == 2


def test_minimal_shift_refuses_dissociated():
    ident = M([1], [1], [["1"]])
    profile = qprofile.compute_q_profile(ident)
    with pytest.raises(qprofile.DissociatedSheafError):
        families.minimal_shift(profile, -1)


# ---------------------------------------------------------------------------
# sampling and verification


def test_sampling_is_deterministic(example_runs):
    desc, profile, _ = example_runs.get("3.2")
    q = profile.q_function()
    a = families.sample_general_morphism(desc.matrix, q, seed=5, profile=profile)
    b = families.sample_general_morphism(desc.matrix, q, seed=5, profile=profile)
    c = families.sample_general_morphism(desc.matrix, q, seed=6, profile=profile)
    assert a == b
    assert a != c


def test_sample_shape_matches_p(example_runs):
    desc, profile, _ = example_runs.get("3.3")
    q = profile.q_function()
    v = families.sample_general_morphism(desc.matrix, q, profile=profile)
    assert oracles.from_degrees(v.col_degrees) == q
    assert v.row_degrees == desc.matrix.col_degrees
    v.validate_homogeneity()


def test_sample_rejects_inadmissible(example_runs):
    desc, profile, _ = example_runs.get("3.2")
    with pytest.raises(families.InadmissibleShapeError):
        families.sample_general_morphism(
            desc.matrix, CharFunction({1: 1, 2: 2}), profile=profile
        )


def test_verify_passes_on_general_lift(example_runs):
    desc, profile, _ = example_runs.get("3.2")
    q = profile.q_function()
    v = families.sample_general_morphism(desc.matrix, q, profile=profile)
    cert = families.verify_general_morphism(desc.matrix, v, profile=profile)
    assert cert.rank == profile.stable_rank - 1
    assert cert.coprime


def test_verify_zero_lift_fails(example_runs):
    desc, profile, _ = example_runs.get("3.2")
    q = profile.q_function()
    zero = GradedMatrix(
        F, desc.matrix.col_degrees, q.degrees(),
        [[MultiPoly.zero(F)] * q.rank() for _ in desc.matrix.col_degrees],
        validate=False,
    )
    with pytest.raises(families.RankDeficiencyError):
        families.verify_general_morphism(desc.matrix, zero, profile=profile)


def test_verify_detects_torsion_on_toy_instance():
    # rank-2 presentation; the lift forces the composite to be X times a column
    s = M([0, 0], [1, 1], [["X", "Y"], ["-Y", "X"]])
    profile = qprofile.compute_q_profile(s)
    assert profile.stable_rank == 2
    v_bad = M(list(s.col_degrees), [2], [["X"], ["0"]])
    with pytest.raises(families.TorsionError):
        families.verify_general_morphism(s, v_bad, profile=profile)
    v_good = M(list(s.col_degrees), [1], [["1"], ["0"]])
    cert = families.verify_general_morphism(s, v_good, profile=profile)
    assert cert.coprime


def test_verify_refuses_a_lift_with_the_parameter(example_runs):
    desc, profile, _ = example_runs.get("3.2")
    v = families.sample_general_morphism(desc.matrix, profile.q_function(), profile=profile)
    with_a = GradedMatrix(F, v.row_degrees, v.col_degrees, [[e * P("1 + a") for e in row] for row in v.entries])
    with pytest.raises(ValueError, match="specialize the parameter first"):
        families.verify_general_morphism(desc.matrix, with_a, profile=profile)


def _certified_blocks(monkeypatch):
    """Spy on the plane certificate: the list it fills with (block, k, seed,
    certificate) per call."""
    calls = []
    certify = qprofile._restricted_minor_gcd

    def spy(block, k, seed):
        calls.append((block, k, seed, certify(block, k, seed)))
        return calls[-1][3]

    monkeypatch.setattr(qprofile, "_restricted_minor_gcd", spy)
    return calls


def _ranked(monkeypatch):
    """Spy on the ranks `families` takes: the list of matrices it ranks."""
    ranked = []
    rank = families.rank_fraction_field
    monkeypatch.setattr(families, "rank_fraction_field", lambda m: ranked.append(m) or rank(m))
    return ranked


@pytest.mark.parametrize("name", ["3.2", "3.3", "3.4"])
def test_minimal_family_certifies_the_composite_once(name, monkeypatch):
    # the plane certificate of W's maximal minors, taken on W itself, proves
    # its rank and its coprimality: W is never decomposed or point-ranked,
    # and the quotient's rank gate reads the kept verdict
    s = GradedMatrix.from_json(fixtures.example(name).matrix.to_json())
    profile = qprofile.compute_q_profile(s)
    calls, ranked = _certified_blocks(monkeypatch), _ranked(monkeypatch)
    report = families.minimal_family(s, profile=profile)
    [(w, k, seed, certificate)] = calls
    assert k == w.ncols == profile.stable_rank - 1 and w.nrows == s.nrows
    seed_0 = qprofile.subseed(qprofile.DEFAULT_SEED, "minimal-family", 0)
    assert seed == qprofile.subseed(qprofile.subseed(seed_0, "verify"), "block", 0)
    assert certificate.coprime and w.known("maximal_minors_coprime") is True
    assert [w.known(key) for key in ("blocks", "decomposition", "point_rank")] == [None] * 3
    assert ranked == []
    assert report.certificate == families.Certificate(rank=k, coprime=True, seed=qprofile.DEFAULT_SEED)


def test_a_failed_composite_certificate_takes_the_ranked_path(example_runs, monkeypatch):
    # with W's own certificate forced False, W is ranked and its one block
    # certified again at the same seed, and the certificate is the one the
    # ranked path has always given; the quotient's rank gate ranks W too
    desc, profile, _ = example_runs.get("3.2")
    s = desc.matrix
    v = families.sample_general_morphism(s, profile.q_function(), seed=3, profile=profile)
    w = families._composite(s, v)
    calls, ranked = _certified_blocks(monkeypatch), _ranked(monkeypatch)
    spy = qprofile._restricted_minor_gcd
    failed = qprofile.PlaneCertificate(False, 6, None, False)
    monkeypatch.setattr(qprofile, "_restricted_minor_gcd",
                        lambda block, k, seed: failed if block is w else spy(block, k, seed))
    cert = families.verify_general_morphism(s, v, profile=profile, seed=3)
    assert cert == families.Certificate(rank=3, coprime=True, seed=3)
    [(block, k, seed, certificate)] = calls
    assert block is not w and block == w and k == 3 and certificate.coprime
    assert seed == qprofile.subseed(qprofile.subseed(3, "verify"), "block", 0)
    assert w.known("maximal_minors_coprime") is False and w.known("blocks") is not None
    families.quotient_hilbert_data(s, v)
    assert ranked == [w, w]


def test_minimal_family_34_at_seed_11(example_runs):
    # at this seed single restricted (r-1)-minors share a linear factor that
    # does not divide all of them; two random combinations of all of them
    # settle it without the honest fallback and its gcd of exact 16-minors
    desc, profile, _ = example_runs.get("3.4")
    report = families.minimal_family(desc.matrix, seed=11, profile=profile)
    exp = desc.expected
    assert (report.deg_N, report.h0, report.d0, report.g0) == (
        exp["deg_N"], exp["h0"], exp["d0"], exp["g0"]
    )
    assert report.q.support == exp["q"]


def _koszul_dvr(k: int) -> GradedMatrix:
    """The DVR block matrix of sigma1 = (X, Y, Z, T^k) and its Koszul
    syzygies: the V of `koszul_matrices` with T replaced by T^k."""
    _, V, _ = fixtures.koszul_matrices(F)
    sigma1 = M([0], [1, 1, 1, k], [["X", "Y", "Z", f"T^{k}"]])
    grid = [[str(q).replace("T", f"T^{k}") for q in row] for row in V.entries]
    col_degrees = [2, 2, k + 1, 2, k + 1, k + 1]  # the pairs XY, XZ, XT^k, YZ, YT^k, ZT^k
    return fixtures.block_dvr_matrix(sigma1, M(sigma1.col_degrees, col_degrees, grid))


def test_minimal_family_of_a_late_saturating_koszul_input():
    # N's column module agrees with its Hilbert polynomial only from about
    # degree k on; the polynomial read off the leads needs no window
    s = _koszul_dvr(10)
    report = families.minimal_family(s, profile=qprofile.compute_q_profile(s))
    assert (report.deg_N, report.h0, report.d0, report.g0) == (-13, 2, 15, 57)
    p_n = report.conservation[0]
    s_t = s.specialize_closed_point()
    for n in (10, 11):
        assert p_n(n) == oracles.module_dimension_oracle(s_t, n)


# ---------------------------------------------------------------------------
# degree and genus


def test_family_degree_genus_values(example_runs):
    for name, (h_want, d_want, g_want) in (
        ("3.2", (2, 6, 3)),
        ("3.3", (1, 6, 3)),
        ("3.4", (13, 120, 1001)),
    ):
        desc, profile, report = example_runs.get(name)
        assert (report.h0, report.d0, report.g0) == (h_want, d_want, g_want), name


def test_degree_genus_refuses_what_is_not_a_twisted_curve_ideal():
    # P_Q(n) = C(n+h+3, 3) - d(n+h) - 1 + g; the difference from the twisted
    # binomial must be linear, with d a positive integer and g an integer
    h = 2
    twisted = HilbertPolynomial.binomial_shift(-h)

    def p_q(c0, c1, c2=0):  # twisted - (c0 + c1 n + c2 n^2)
        return twisted - HilbertPolynomial.from_coeffs([c0, c1, c2])

    assert families._degree_genus(h, p_q(6 * h + 1 - 3, 6)) == (6, 3)
    with pytest.raises(families.ShapeMismatchError, match="residual"):
        families._degree_genus(h, p_q(1, 6, 1))
    for d in (0, -2, Fraction(1, 2)):
        with pytest.raises(families.ShapeMismatchError, match="not a positive integer"):
            families._degree_genus(h, p_q(d * h, d))
    with pytest.raises(families.ShapeMismatchError, match="genus 5/2 is not an integer"):
        families._degree_genus(h, p_q(6 * h + 1 - Fraction(5, 2), 6))


def test_reports_are_deterministic(example_runs):
    desc, profile, _ = example_runs.get("3.2")
    r1 = families.minimal_family(desc.matrix, seed=123, profile=profile)
    r2 = families.minimal_family(desc.matrix, seed=123, profile=profile)
    assert r1.to_json_string() == r2.to_json_string()


def test_report_schema(example_runs):
    _, _, report = example_runs.get("3.2")
    obj = report.to_json()
    assert set(obj) == {"q", "deg_N", "h0", "d0", "g0", "hilbert_polynomial",
                        "seed", "certificate"}
    assert obj["q"] == {"2": 3}
    # chi(J_C(m)) = C(m+3,3) - d m - 1 + g evaluated at m = 0 gives g - d... at 0: 1 - 1 + 3
    hp = report.ideal_sheaf_polynomial
    assert hp(0) == 1 - 1 + 3
    assert hp(1) == 4 - 6 - 1 + 3


def test_shift_identity_for_admissible_shapes(example_runs):
    rng = random.Random(99)
    for name in ("3.2", "3.3"):
        desc, profile, report = example_runs.get(name)
        q = profile.q_function()
        for _ in range(10):
            p = _random_admissible(profile, rng)
            if p is None:
                continue
            h = report.deg_N + p.weighted_sum()
            assert h >= report.h0
            if p != q:
                assert h > report.h0


def test_full_pipeline_on_non_minimal_shape(example_runs):
    # run the whole verified pipeline for an admissible p != q on 3.2:
    # push one degree-2 generator up to degree 3
    desc, profile, report = example_runs.get("3.2")
    p = CharFunction({2: 2, 3: 1})
    ok, _ = qprofile.check_p_admissible(p, profile)
    assert ok
    v = families.sample_general_morphism(desc.matrix, p, seed=4, profile=profile)
    families.verify_general_morphism(desc.matrix, v, profile=profile)
    h, d, g = families.family_degree_genus(desc.matrix, v, p, profile=profile)
    assert h == report.h0 + 1
    assert d >= report.d0 and g >= report.g0
    # conservation holds for this morphism too
    p_n, p_p, p_q = families.hilbert_conservation(desc.matrix, v, p)
    assert p_q + p_p == p_n


def _random_admissible(profile, rng):
    q = profile.q_function()
    support = dict(q.support)
    for _ in range(rng.randrange(1, 3)):
        froms = [d for d, m in support.items() if m > 0]
        if not froms:
            return None
        src = rng.choice(froms)
        dst = src + rng.randrange(1, 3)
        support[src] -= 1
        support[dst] = support.get(dst, 0) + 1
    p = CharFunction({d: m for d, m in support.items() if m})
    ok, _ = qprofile.check_p_admissible(p, profile)
    return p if ok else None


# ---------------------------------------------------------------------------
# conservation and augmentation


def test_minimal_family_computes_quotient_data_once(monkeypatch):
    desc = fixtures.example("3.2")
    profile = qprofile.compute_q_profile(desc.matrix)
    calls = []
    real = families.quotient_hilbert_data

    def counted(s, v):
        calls.append(v)
        return real(s, v)

    monkeypatch.setattr(families, "quotient_hilbert_data", counted)
    report = families.minimal_family(desc.matrix, profile=profile)
    assert len(calls) == 1
    p_n, p_p, p_q = report.conservation
    assert p_q + p_p == p_n


def test_minimal_family_forms_the_composite_once_per_attempt(monkeypatch):
    # verification and the quotient Hilbert fit share one composite s*v
    desc = fixtures.example("3.2")
    profile = qprofile.compute_q_profile(desc.matrix)
    products = []
    real = GradedMatrix.__matmul__

    def counted(a, b):
        products.append(b)
        return real(a, b)

    monkeypatch.setattr(GradedMatrix, "__matmul__", counted)
    report = families.minimal_family(desc.matrix, profile=profile)
    assert len(products) == report.certificate.retries + 1 == 1


def test_one_lift_forms_its_composite_once_and_no_basis_of_it(monkeypatch):
    # the composite s_t * v and what it keeps are kept on the lift, so the
    # public steps applied to one lift share them; its Hilbert polynomial
    # comes from the rank certificate, so it never gets a Groebner basis
    s = fixtures.example("3.2").matrix
    profile = qprofile.compute_q_profile(s)
    p = CharFunction({2: 2, 3: 1})
    products, bases = [], []
    real_product, real_basis = GradedMatrix.__matmul__, modgb.groebner_basis

    def product(a, b):
        products.append(b)
        return real_product(a, b)

    def basis(gens, *args, **kwargs):
        bases.append(gens)
        return real_basis(gens, *args, **kwargs)

    monkeypatch.setattr(GradedMatrix, "__matmul__", product)
    monkeypatch.setattr(modgb, "groebner_basis", basis)
    v = families.sample_general_morphism(s, p, seed=4, profile=profile)
    families.verify_general_morphism(s, v, profile=profile)
    families.family_degree_genus(s, v, p, profile=profile)
    families.hilbert_conservation(s, v, p)
    assert products == [v]
    w = families._composite(s, v)
    assert not any(gens is w for gens in bases)
    assert w.known("groebner") is None


@pytest.mark.parametrize("name", ["3.2", "3.3", "3.4"])
def test_cold_minimal_family_runs_buchberger_once_for_s_t(name, monkeypatch):
    # a matrix read from a file keeps nothing: the one Groebner basis of
    # minimal_family is that of s_t, which gives P_N and deg N
    s = GradedMatrix.from_json(fixtures.example(name).matrix.to_json())
    profile = qprofile.compute_q_profile(s)
    runs = []
    real = modgb._buchberger

    def counted(*args):
        runs.append(args)
        return real(*args)

    monkeypatch.setattr(modgb, "_buchberger", counted)
    families.minimal_family(s, profile=profile)
    assert len(runs) == 1
    assert None in s.specialize_closed_point().known("groebner")


@pytest.mark.parametrize("build", [
    lambda: GradedMatrix.from_json(fixtures.example("3.4").matrix.to_json()),
    lambda: fixtures.rao_family(5, 3, 1),
], ids=["3.4", "rao_family(5, 3, 1)"])
def test_cold_minimal_family_leaves_no_cycles(build):
    # nothing a solve keeps refers back to the matrix that keeps it, so
    # dropping the input frees every matrix and basis without the collector
    s = build()
    gc.collect()
    gc.disable()
    try:
        families.minimal_family(s, profile=qprofile.compute_q_profile(s))
        del s
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        left = [o for o in gc.garbage if isinstance(o, (GradedMatrix, modgb.SubmodulePresentation))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert left == []


def test_cold_minimal_family_decomposes_each_matrix_once(monkeypatch):
    # fixture 3.4 read from a file keeps nothing; the ranks, the minor
    # analyses and the constant-rank checks share one decomposition per matrix
    desc = fixtures.example("3.4")
    s = GradedMatrix.from_json(desc.matrix.to_json())
    seen = []
    real = grmatrix.block_decomposition

    def counted(m):
        seen.append(m)
        return real(m)

    monkeypatch.setattr(grmatrix, "block_decomposition", counted)
    report = families.minimal_family(s, profile=qprofile.compute_q_profile(s))
    assert [report.h0, report.d0, report.g0] == [desc.expected[k] for k in ("h0", "d0", "g0")]
    assert len({id(m) for m in seen}) == len(seen) <= 5


def test_minimal_family_raises_on_conservation_mismatch(example_runs, monkeypatch):
    # every lift gets two equal columns, and the rank certificate wrongly
    # claims full rank: the composite has a syzygy, so P_Q + P_P = P_N
    # fails, and the span gate refuses it
    desc, profile, _ = example_runs.get("3.2")
    real = families.sample_general_morphism

    def equal_columns(s, p, profile, seed):
        return _with_equal_columns(real(s, p, profile=profile, seed=seed))

    monkeypatch.setattr(families, "sample_general_morphism", equal_columns)
    monkeypatch.setattr(families, "rank_fraction_field", lambda m: m.ncols)
    with pytest.raises(families.ConservationError, match="degree-2 span has rank 2 < 3"):
        families.minimal_family(desc.matrix, profile=profile)


def test_hilbert_conservation(example_runs):
    for name in fixtures.FIXTURE_NAMES:
        _, _, report = example_runs.get(name)
        p_n, p_p, p_q = report.conservation
        assert p_q + p_p == p_n, name


def _assert_matches_the_composite_basis(s, p, v):
    # the reference route: P_U read off a full Groebner basis of the
    # composite is the Hilbert polynomial of the free module P, and gives
    # the same P_Q
    w = families._composite(s, v)
    assert modgb.groebner_basis(w).hilbert_polynomial() == HilbertPolynomial.shifted(p.support)
    assert families.quotient_hilbert_data(s, v) == oracles.quotient_hilbert_by_basis(s, v)


@pytest.mark.parametrize("name", ["3.2", "3.3", "3.4"])
def test_quotient_hilbert_matches_the_composite_basis(name):
    # the first lift minimal_family draws, at the default seed and two more
    s = fixtures.example(name).matrix
    profile = qprofile.compute_q_profile(s)
    q = profile.q_function()
    for seed in (qprofile.DEFAULT_SEED, 1, 2):
        lift_seed = qprofile.subseed(seed, "minimal-family", 0)
        v = families.sample_general_morphism(s, q, seed=lift_seed, profile=profile)
        _assert_matches_the_composite_basis(s, q, v)


def test_quotient_hilbert_matches_the_composite_basis_on_a_rao_family():
    s = fixtures.rao_family(5, 3, 1)
    profile = qprofile.compute_q_profile(s)
    q = profile.q_function()
    _assert_matches_the_composite_basis(s, q, families.sample_general_morphism(s, q, profile=profile))


@settings(max_examples=25, deadline=None)
@given(shape_seed=st.integers(0, 2**32 - 1), lift_seed=st.integers(0, 2**32 - 1))
def test_quotient_hilbert_matches_the_composite_basis_on_random_lifts(example_runs, shape_seed, lift_seed):
    # admissible shapes of 3.2, generators pushed up by one or two degrees;
    # where the rank gate refuses a lift, the basis gives another P_U
    desc, profile, _ = example_runs.get("3.2")
    p = _random_admissible(profile, random.Random(shape_seed))
    assume(p is not None)
    v = families.sample_general_morphism(desc.matrix, p, seed=lift_seed, profile=profile)
    w = families._composite(desc.matrix, v)
    if families.rank_fraction_field(w) < v.ncols:
        with pytest.raises(families.RankDeficiencyError):
            families.quotient_hilbert_data(desc.matrix, v)
        assert modgb.groebner_basis(w).hilbert_polynomial() != HilbertPolynomial.shifted(p.support)
        return
    _assert_matches_the_composite_basis(desc.matrix, p, v)


def _with_equal_columns(v: GradedMatrix) -> GradedMatrix:
    """v with its first column in place of its second, of the same degree."""
    rows = [[row[0], row[0], *row[2:]] for row in v.entries]
    return GradedMatrix(F, v.row_degrees, v.col_degrees, rows)


def _lift_with_equal_columns(example_runs):
    desc, profile, _ = example_runs.get("3.2")
    q = profile.q_function()
    v = families.sample_general_morphism(desc.matrix, q, profile=profile)
    return desc.matrix, q, _with_equal_columns(v)


def test_hilbert_conservation_refuses_a_lift_of_lower_rank(example_runs):
    s, q, v = _lift_with_equal_columns(example_runs)
    with pytest.raises(families.RankDeficiencyError, match="needs 3"):
        families.hilbert_conservation(s, v, q)


def test_hilbert_conservation_refuses_a_p_other_than_the_lift_shape(example_runs):
    # 3.2's default lift has q's shape {2: 3}; P_P is read off the lift, so
    # another p is refused, naming both shapes
    desc, profile, _ = example_runs.get("3.2")
    v = families.sample_general_morphism(desc.matrix, profile.q_function(), profile=profile)
    with pytest.raises(ValueError, match=r"CharFunction\(\{2->2, 3->1\}\).*CharFunction\(\{2->3\}\)"):
        families.hilbert_conservation(desc.matrix, v, CharFunction({2: 2, 3: 1}))


def test_span_gate_refuses_a_composite_with_a_syzygy(example_runs, monkeypatch):
    # past a rank certificate that wrongly claims full rank, the span of
    # the composite at the lift's top degree still finds its syzygy
    s, q, v = _lift_with_equal_columns(example_runs)
    monkeypatch.setattr(families, "rank_fraction_field", lambda m: m.ncols)
    with pytest.raises(families.ConservationError, match="degree-2 span has rank 2 < 3"):
        families.hilbert_conservation(s, v, q)


def test_free_summand_augmentation(example_runs):
    # a trivial elementary step: add a free summand at degree m and ask for
    # one extra generator at degree m + 1; the computed shift rises by one
    desc, profile, report = example_runs.get("3.2")
    m = profile.inf_l2
    s2 = oracles.augment_with_free_summand(desc.matrix, m)
    prof2 = qprofile.compute_q_profile(s2)
    assert prof2.stable_rank == profile.stable_rank + 1
    # q# gains exactly the new free summand's cumulative step
    for rec in prof2.records:
        assert rec.q_sharp == profile.q_sharp(rec.n) + (1 if rec.n >= m else 0)
    deg2 = families.sheaf_degree(s2, prof2)
    assert deg2 == report.deg_N - m
    assert families.minimal_shift(prof2, deg2) == report.h0
    p_up = oracles.add(profile.q_function(), CharFunction({m + 1: 1}))
    ok, reason = qprofile.check_p_admissible(p_up, prof2)
    assert ok, reason
    assert deg2 + p_up.weighted_sum() == report.h0 + 1
