from __future__ import annotations

import random

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from biliaison import polyring
from biliaison.grmatrix import GradedMatrix, determinant
from biliaison.modgb import monomials_of_degree
from biliaison.polyring import (
    FieldSpec,
    FieldMismatchError,
    InexactDivisionError,
    MultiPoly,
    gcd,
    gcd_many,
    squarefree_factors,
)

F = FieldSpec.prime()
G = FieldSpec.prime(10007)  # a second prime field


def P(text: str, field=F) -> MultiPoly:
    return MultiPoly.parse(text, field)


# ---------------------------------------------------------------------------
# field spec


def test_field_spec_validation():
    assert FieldSpec.prime().characteristic == 32003
    with pytest.raises(ValueError):
        FieldSpec(32004)  # not prime
    with pytest.raises(ValueError):
        FieldSpec(101)  # too small for generic sampling
    assert FieldSpec.parse("prime:32003") == F
    assert FieldSpec.parse("prime:10007") == G
    # F_p is the only coefficient field: the rationals are rejected
    for text in ("rationals", "q", "qq"):
        with pytest.raises(ValueError):
            FieldSpec.parse(text)
    with pytest.raises(ValueError):
        FieldSpec.from_json({"kind": "rationals", "characteristic": 0})
    assert FieldSpec.from_json(F.to_json()) == F
    assert F.to_json() == {"kind": "prime", "characteristic": 32003}


# ---------------------------------------------------------------------------
# arithmetic


def test_commutativity_example():
    assert P("X") * P("Y") + P("Y") * P("X") == P("2*X*Y")


def test_difference_of_squares():
    assert (P("X") + P("Y")) * (P("X") - P("Y")) == P("X^2 - Y^2")


def _schoolbook(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """The product as the sum of its term products, one pair at a time."""
    out = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = (out.get(e, 0) + ca * cb) % F.characteristic
    return MultiPoly(F, {e: c for e, c in out.items() if c})


def test_dense_product_with_keys_beyond_int64():
    # 150 x 150 terms of high degree: exponents up to 3299
    a = MultiPoly(F, {(3150 + i, i % 3, 0, 0, 0): i + 1 for i in range(150)})
    b = MultiPoly(F, {(3150 + i, 0, i % 2, 0, 0): 2 * i + 1 for i in range(150)})
    assert a * b == _schoolbook(a, b)


def test_dense_product_matches_schoolbook():
    # about 160 x 160 terms of low degree, so many products share a monomial
    rng = random.Random(5)
    a, b = (MultiPoly(F, {tuple(rng.randrange(6) for _ in range(4)) + (0,): rng.randrange(1, 32003)
                          for _ in range(160)}) for _ in range(2))
    assert len(a.terms) * len(b.terms) >= 20000
    assert a * b == _schoolbook(a, b)


def test_exact_divide_example():
    assert P("X^2*Y").exact_divide(P("X")) == P("X*Y")
    with pytest.raises(InexactDivisionError):
        P("X^2*Y + Z^3").exact_divide(P("X"))


def test_field_mismatch_rejected():
    with pytest.raises(FieldMismatchError):
        P("X") + P("X", G)


# ---------------------------------------------------------------------------
# gcds


def test_gcd_examples():
    assert gcd(P("X"), P("Y")) == P("1")
    assert gcd_many([P("X*Y"), P("X*Z"), P("X*T")]) == P("X")
    # 1-minors of the single degree-1 column of the large example, at a = 0
    assert gcd_many([P("X"), P("-Y")]) == P("1")


def test_gcd_errors():
    with pytest.raises(ValueError):
        gcd_many([MultiPoly.zero(F), MultiPoly.zero(F)])


def test_gcd_divides_and_idempotent():
    rng = random.Random(11)
    for _ in range(25):
        f = _random_poly(rng)
        g = _random_poly(rng)
        h = _random_poly(rng)
        a, b = f * h, g * h
        if a.is_zero() or b.is_zero():
            continue
        d = gcd(a, b)
        assert d.divides(a) and d.divides(b)
        if not h.is_zero():
            assert h.monic().divides(d)
        assert gcd_many([a, b, d]) == gcd_many([a, b])


_XS = sympy.symbols("X Y Z T")


def _random_form(rng, degree: int) -> MultiPoly:
    while True:
        terms = {m + (0,): rng.randrange(1, F.characteristic)
                 for m in monomials_of_degree(degree) if rng.random() < 0.4}
        if terms:
            return MultiPoly(F, terms)


def _to_sympy(f: MultiPoly, gens=_XS) -> sympy.Poly:
    return sympy.Poly({e[:len(gens)]: c for e, c in f.terms.items()}, *gens,
                      modulus=F.characteristic)


def _from_sympy(g: sympy.Poly) -> MultiPoly:
    pad = (0,) * (5 - len(g.gens))
    return MultiPoly(F, {tuple(e) + pad: int(c) % F.characteristic for e, c in g.terms()})


def _at_t1(f: MultiPoly) -> sympy.Poly:
    """f at T = 1, in X, Y, Z.  A form is T^m times a form that its value at
    T = 1 determines, and sympy's GCD mod p is far faster in three variables."""
    return _to_sympy(f).eval(_XS[3], 1)


def _t_power(f: MultiPoly) -> int:
    return min(e[3] for e in f.terms)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_gcd_matches_sympy(seed):
    rng = random.Random(seed)
    # degree <= 7: at 8, sympy took 4-18 s for the 30 examples
    common = _random_form(rng, rng.randrange(1, 5))
    a = _random_form(rng, rng.randrange(1, 4)) * common
    b = _random_form(rng, rng.randrange(1, 4)) * common
    g = gcd(a, b)
    expected = sympy.gcd(_at_t1(a), _at_t1(b))
    assert g.is_homogeneous() and g == g.monic()
    assert g.degree == expected.total_degree() + min(_t_power(a), _t_power(b))
    assert _at_t1(g).monic() == expected.monic()


def _assert_radical_matches_sympy(f: MultiPoly, factors) -> None:
    # a form: the factors multiply to its radical, which at T = 1 is
    # f / gcd(f, df/dX, df/dY, df/dZ)
    fs = _at_t1(f)
    repeated = fs
    for x in _XS[:3]:
        repeated = sympy.gcd(repeated, fs.diff(x))
    expected = sympy.div(fs, repeated)[0]
    radical = MultiPoly.one(F)
    for q in factors:
        radical = radical * q
    assert radical.degree == expected.total_degree() + (_t_power(f) > 0)
    assert _at_t1(radical).monic() == expected.monic()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_squarefree_factors_match_sympy(seed):
    rng = random.Random(seed)
    # degree <= 6: at 7, sympy took 2-15 s for the 30 examples
    f = _random_form(rng, rng.choice([1, 2])) ** 2 * _random_form(rng, rng.choice([1, 2]))
    _assert_radical_matches_sympy(f, squarefree_factors(f))
    # one variable: factors grouped by multiplicity are sqf_list's layers
    # (sympy 1.14 has no multivariate sqf_list over F_p)
    root = MultiPoly(F, {(1, 0, 0, 0, 0): 1, (0, 0, 0, 0, 0): rng.randrange(F.characteristic)})
    u = root ** 2 * MultiPoly(F, {(k, 0, 0, 0, 0): rng.randrange(1, F.characteristic)
                                  for k in range(rng.randrange(2, 8))})
    layers = {}
    for q in squarefree_factors(u):
        m, rest = 0, u
        while q.divides(rest):
            rest, m = rest.exact_divide(q), m + 1
        layers[m] = layers.get(m, MultiPoly.one(F)) * q
    _, expected = sympy.sqf_list(_to_sympy(u, _XS[:1]))
    assert {m: q.monic() for m, q in layers.items()} == \
        {m: _from_sympy(g).monic() for g, m in expected}


def test_gcd_drops_an_unlucky_node(monkeypatch):
    # Z has the least degree, so it is evaluated first, at the nodes 1, 2, ...
    # At Z = 1 both cofactors become Y, so that image is Y * h(Z = 1)
    h = P("X^3 + Y^3 + X*Y*Z + 5")
    f, g = P("Y + Z - 1") * h, P("Y - Z + 1") * h
    one = {2: MultiPoly.one(F)}
    assert gcd(f.substitute(one), g.substitute(one)) == (P("Y") * h.substitute(one)).monic()
    calls = []
    modular = polyring._modular_gcd

    def spy(f, g, variables, certify=False):
        result = modular(f, g, variables, certify)
        calls.append((tuple(variables), result))
        return result

    monkeypatch.setattr(polyring, "_modular_gcd", spy)
    assert gcd(f, g) == h.monic()
    assert calls[-1][0][0] == 2  # the outermost call evaluates Z
    images = [result for variables, result in calls if len(variables) == 2]
    assert [q.degree for q in images[:2]] == [4, 3]


def test_gcd_out_of_nodes_raises(monkeypatch):
    # with every candidate refused, the GCD takes each node of F_1009 once
    # and then ends with a typed error
    H = FieldSpec.prime(1009)
    f, g = P("X^2 + Y + 1", H) * P("X + Y", H), P("X^2 + Y + 1", H) * P("X - Y", H)
    monkeypatch.setattr(MultiPoly, "divides", lambda self, other: False)
    with pytest.raises(polyring.GcdNodesExhaustedError):
        gcd(f, g)


def test_squarefree_split_of_a_block_determinant():
    # the determinant of a 4 x 4 block of three-term forms of degrees 1, 1,
    # 1, 2: a square block's only rank-level minor, which the honest fallback
    # splits
    rng = random.Random(1)
    degrees = [1, 1, 1, 2]
    grid = [[MultiPoly(F, {m + (0,): rng.randrange(1, F.characteristic)
                           for m in rng.sample(monomials_of_degree(d), 3)}) for d in degrees]
            for _ in range(4)]
    det = determinant(GradedMatrix(F, [0] * 4, degrees, grid))
    assert det.degree == 5
    _assert_radical_matches_sympy(det, squarefree_factors(det))
    # times a square and a cube, it splits into its three layers
    lin, quad = _random_form(rng, 1), _random_form(rng, 2)
    assert set(squarefree_factors(det * lin ** 2 * quad ** 3)) == \
        {det.monic(), lin.monic(), quad.monic()}


# ---------------------------------------------------------------------------
# squarefree splitting


def test_squarefree_examples():
    fs = squarefree_factors(P("X^2*Y"))
    assert sorted(str(f) for f in fs) == ["X", "Y"]
    assert squarefree_factors(P("X")) == [P("X")]
    with pytest.raises(ValueError):
        squarefree_factors(P("7"))


def _assert_valid_split(p: MultiPoly, factors):
    # product with multiplicities reproduces p up to a scalar
    rest = p
    for f in factors:
        assert f.divides(rest) or f.divides(p)
        while f.divides(rest):
            rest = rest.exact_divide(f)
    assert rest.is_constant()
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            assert gcd(factors[i], factors[j]).is_constant()
        # factors are squarefree: coprime to their own derivative overall
        f = factors[i]
        sq = gcd_many([f] + [f.derivative(v) for v in f.variables()])
        assert sq.is_constant()


def test_squarefree_split_is_valid():
    cases = [
        P("X^2 - Y^2"),
        P("X^2*Y"),
        P("X^3*Y^2*Z"),
        P("X^2 + 2*X*Y + Y^2"),  # (X+Y)^2
        P("X*Y*Z*T"),
        P("X^2*Z + X*Y*Z"),  # X Z (X + Y)
    ]
    for p in cases:
        _assert_valid_split(p, squarefree_factors(p))


def test_squarefree_random_products():
    rng = random.Random(5)
    lin = [P("X + Y"), P("X - Z"), P("Y + T"), P("Z"), P("T - X")]
    for _ in range(10):
        picks = rng.sample(lin, rng.randrange(1, 4))
        exps = [rng.randrange(1, 3) for _ in picks]
        p = MultiPoly.one(F)
        for q, e in zip(picks, exps):
            p = p * q ** e
        _assert_valid_split(p, squarefree_factors(p))


# ---------------------------------------------------------------------------
# property tests (hypothesis)


def _random_poly(rng: random.Random) -> MultiPoly:
    terms = {}
    for _ in range(rng.randrange(0, 4)):
        e = tuple(rng.randrange(0, 3) for _ in range(4)) + (0,)
        terms[e] = rng.randrange(1, 32003)
    return MultiPoly(F, terms)


@st.composite
def polys(draw):
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        e = tuple(draw(st.integers(0, 2)) for _ in range(5))
        c = draw(st.integers(-6, 6))
        if c:
            terms[e] = c % 32003
    return MultiPoly(F, {e: c for e, c in terms.items() if c})


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_distributivity(p, q, r):
    assert (p + q) * r == p * r + q * r


@settings(max_examples=40, deadline=None)
@given(polys())
def test_parse_roundtrip(p):
    assert MultiPoly.parse(str(p), F) == p


def _over_second_prime(p: MultiPoly) -> MultiPoly:
    """The same polynomial with its coefficients reduced mod 10007."""
    return MultiPoly(G, {e: c % 10007 for e, c in p.terms.items() if c % 10007})


@settings(max_examples=80, deadline=None)
@given(polys(), polys(), st.booleans())
def test_divmod_is_division_with_reduced_remainder(f, d, second_prime):
    if second_prime:
        f, d = _over_second_prime(f), _over_second_prime(d)
    assume(not d.is_zero())
    q, r = f._divmod(d)
    assert q * d + r == f
    lead = d.leading_expo()
    assert not any(all(e[i] >= lead[i] for i in range(5)) for e in r.terms)


@settings(max_examples=80, deadline=None)
@given(polys(), polys())
def test_exact_divide_recovers_both_factors(f, g):
    assume(not f.is_zero() and not g.is_zero())
    h = f * g
    assert h.exact_divide(g) == f
    assert h.exact_divide(f) == g


def test_field_spec_bounds_p_for_int64_kernels():
    assert FieldSpec.prime(2**31 - 1).characteristic == 2**31 - 1
    for too_large in (2**31 + 11, 4294967311):
        with pytest.raises(ValueError, match="2\\^31"):
            FieldSpec.prime(too_large)
    with pytest.raises(ValueError):
        FieldSpec.parse("prime:4294967311")


def test_degree_of_zero_is_minus_infinity():
    z = MultiPoly.zero(F)
    assert z.degree == float("-inf")
    assert P("X*Y^2").degree == 3
    assert P("a^3").degree == 0  # the parameter counts 0
