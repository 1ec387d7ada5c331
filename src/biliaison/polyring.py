"""Exact multivariate polynomial arithmetic over a prime field F_p.

Everything downstream is built on `MultiPoly`: a polynomial in the four
projective coordinates X, Y, Z, T plus a degree-zero deformation parameter
``a`` (the uniformizer of the base valuation ring).  Coefficients are exact:
Python ints reduced mod p.

`gcd` is Brown's dense modular GCD (Brown, JACM 18, 1971), with no modulus
to choose since the field is F_p already.  For two forms, one variable v is
set to 1 first; the GCD found is rehomogenized and multiplied by the power
of v that divides both.  One variable at a time is evaluated at the nodes
1, 2, 3, ..., down to Euclid mod p in the last one (`_poly_gcd`, which the
plane certificate of `qprofile` shares).  Images are normalized by the GCD
of the leading coefficients, unlucky ones are dropped by their leading
monomial, and Newton interpolation joins the rest.  A result is accepted
only if it divides both inputs exactly; if every node fails,
`GcdNodesExhaustedError` ends the search.  `squarefree_factors` strips the
variables dividing f and takes the layers of the rest by multiplicity from
gcd(f, df/dX, ..., df/da), in the manner of Yun (SYMSAC 1976).  Full
irreducible factorization is out of scope; callers are written to be
correct with any coprime squarefree split.
"""

from __future__ import annotations

import heapq
import operator
import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

NVARS = 5
VAR_NAMES = ("X", "Y", "Z", "T", "a")
PARAM_INDEX = 4  # the slot of the deformation parameter `a`
DEFAULT_PRIME = 32003
MINUS_INFINITY = float("-inf")

Expo = Tuple[int, int, int, int, int]
Scalar = int  # a residue mod p, kept in [0, p)

_ZERO_EXPO: Expo = (0, 0, 0, 0, 0)


class FieldMismatchError(ValueError):
    """Two operands live over different coefficient fields."""


class InexactDivisionError(ArithmeticError):
    """Polynomial division left a nonzero remainder."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """The coefficient field F_p, for a prime 1000 <= p < 2^31.

    It is the only coefficient field.  The lower bound leaves room for
    generic sampling; the upper one keeps every product of two reduced
    residues below 2^62, so the numpy kernels of `_linalg` cannot overflow
    int64.  Anything else, the rationals included, raises `ValueError`.
    """

    characteristic: int

    def __post_init__(self):
        p = self.characteristic
        if p < 1000:
            raise ValueError("prime field too small for generic sampling (need >= 1000)")
        if p >= 2 ** 31:
            raise ValueError("prime too large for the int64 kernels (need p < 2^31)")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")

    @staticmethod
    def prime(p: int = DEFAULT_PRIME) -> "FieldSpec":
        return FieldSpec(p)

    @staticmethod
    def parse(text: str) -> "FieldSpec":
        text = text.strip().lower()
        if text.startswith("prime"):
            if ":" in text:
                return FieldSpec.prime(int(text.split(":", 1)[1]))
            return FieldSpec.prime()
        raise ValueError(f"cannot parse field spec {text!r}: expected prime:P, 1000 <= P < 2^31")

    # scalar helpers -----------------------------------------------------
    def normalize(self, c: Scalar) -> Scalar:
        return int(c) % self.characteristic

    def invert(self, c: Scalar) -> Scalar:
        return pow(int(c), self.characteristic - 2, self.characteristic)

    def neg(self, c: Scalar) -> Scalar:
        return (-int(c)) % self.characteristic

    def to_json(self) -> dict:
        return {"kind": "prime", "characteristic": self.characteristic}

    @staticmethod
    def from_json(obj: dict) -> "FieldSpec":
        if obj.get("kind") != "prime":
            raise ValueError(f"unsupported field kind {obj.get('kind')!r}: only prime fields are supported")
        p = obj["characteristic"]
        if type(p) is not int:
            raise ValueError(f"characteristic {p!r} is not an integer")
        return FieldSpec(p)


def monomial_key(e: Expo) -> tuple:
    """Graded reverse lexicographic sort key; the parameter `a` sorts last."""
    return (e[0] + e[1] + e[2] + e[3] + e[4], -e[4], -e[3], -e[2], -e[1])


def _heap_key(e: Expo) -> tuple:
    """Min-heap entry that pops the largest monomial first; e rides last."""
    return (-(e[0] + e[1] + e[2] + e[3] + e[4]), e[4], e[3], e[2], e[1], e)


class MultiPoly:
    """Immutable exact polynomial in X, Y, Z, T, a.

    Terms map exponent 5-tuples to nonzero field scalars.  Total degree and
    homogeneity count X, Y, Z, T only: the parameter `a` has degree 0.
    """

    __slots__ = ("field", "terms", "_degree")

    def __init__(self, field: FieldSpec, terms: Dict[Expo, Scalar]):
        self.field = field
        self.terms = terms
        self._degree: Optional[float] = None

    # construction -------------------------------------------------------
    @staticmethod
    def zero(field: FieldSpec) -> "MultiPoly":
        return MultiPoly(field, {})

    @staticmethod
    def const(field: FieldSpec, c: Scalar) -> "MultiPoly":
        c = field.normalize(c)
        return MultiPoly(field, {} if c == 0 else {_ZERO_EXPO: c})

    @staticmethod
    def one(field: FieldSpec) -> "MultiPoly":
        return MultiPoly.const(field, 1)

    @staticmethod
    def variable(field: FieldSpec, name: str) -> "MultiPoly":
        i = VAR_NAMES.index(name)
        e = [0] * NVARS
        e[i] = 1
        return MultiPoly(field, {tuple(e): field.normalize(1)})

    @staticmethod
    def monomial(field: FieldSpec, expo: Expo, c: Scalar = 1) -> "MultiPoly":
        c = field.normalize(c)
        return MultiPoly(field, {} if c == 0 else {tuple(expo): c})

    def _new(self, terms: Dict[Expo, Scalar]) -> "MultiPoly":
        return MultiPoly(self.field, terms)

    # predicates ---------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(e == _ZERO_EXPO for e in self.terms)

    @property
    def degree(self) -> float:
        """Total degree in X, Y, Z, T (the parameter counts 0); -inf for 0."""
        if self._degree is None:
            if not self.terms:
                self._degree = MINUS_INFINITY
            else:
                self._degree = max(e[0] + e[1] + e[2] + e[3] for e in self.terms)
        return self._degree

    def is_homogeneous(self, degree: Optional[int] = None) -> bool:
        if not self.terms:
            return True
        degs = {e[0] + e[1] + e[2] + e[3] for e in self.terms}
        if len(degs) > 1:
            return False
        return degree is None or degs == {degree}

    def has_parameter(self) -> bool:
        return any(e[PARAM_INDEX] > 0 for e in self.terms)

    def variables(self) -> Tuple[int, ...]:
        used = [False] * NVARS
        for e in self.terms:
            for i in range(NVARS):
                if e[i]:
                    used[i] = True
        return tuple(i for i in range(NVARS) if used[i])

    # arithmetic ---------------------------------------------------------
    def _check_field(self, other: "MultiPoly") -> None:
        if self.field != other.field:
            raise FieldMismatchError(f"{self.field} vs {other.field}")

    def __eq__(self, other) -> bool:
        return isinstance(other, MultiPoly) and self.field == other.field and self.terms == other.terms

    def __hash__(self):
        return hash((self.field, frozenset(self.terms.items())))

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_field(other)
        p = self.field.characteristic
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = (out.get(e, 0) + c) % p
            if v:
                out[e] = v
            elif e in out:
                del out[e]
        return self._new(out)

    def __neg__(self) -> "MultiPoly":
        neg = self.field.neg
        return self._new({e: neg(c) for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def scale(self, c: Scalar) -> "MultiPoly":
        c = self.field.normalize(c)
        if c == 0:
            return MultiPoly.zero(self.field)
        p = self.field.characteristic
        return self._new({e: (v * c) % p for e, v in self.terms.items()})

    def mul_monomial(self, expo: Expo, c: Scalar) -> "MultiPoly":
        c = self.field.normalize(c)
        if c == 0 or not self.terms:
            return MultiPoly.zero(self.field)
        p = self.field.characteristic
        return self._new({
            (e[0] + expo[0], e[1] + expo[1], e[2] + expo[2], e[3] + expo[3], e[4] + expo[4]): (v * c) % p
            for e, v in self.terms.items()
        })

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_field(other)
        if not self.terms or not other.terms:
            return MultiPoly.zero(self.field)
        if len(self.terms) == 1:
            (e, c), = self.terms.items()
            return other.mul_monomial(e, c)
        if len(other.terms) == 1:
            (e, c), = other.terms.items()
            return self.mul_monomial(e, c)
        out: Dict[Expo, Scalar] = {}
        p = self.field.characteristic
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3], e1[4] + e2[4])
                out[e] = (out.get(e, 0) + c1 * c2) % p
        return self._new({e: c for e, c in out.items() if c != 0})

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power")
        result = MultiPoly.one(self.field)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # leading term / normalization ----------------------------------------
    def leading_expo(self) -> Expo:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return max(self.terms, key=monomial_key)

    def leading_coeff(self) -> Scalar:
        return self.terms[self.leading_expo()]

    def monic(self) -> "MultiPoly":
        if not self.terms:
            return self
        inv = self.field.invert(self.leading_coeff())
        return self.scale(inv)

    # division -----------------------------------------------------------
    def exact_divide(self, divisor: "MultiPoly") -> "MultiPoly":
        q, r = self._divmod(divisor)
        if not r.is_zero():
            raise InexactDivisionError("division is not exact")
        return q

    def divides(self, other: "MultiPoly") -> bool:
        try:
            other.exact_divide(self)
            return True
        except InexactDivisionError:
            return False

    def reduce_mod(self, divisor: "MultiPoly") -> "MultiPoly":
        """Normal form of self modulo the principal ideal (divisor)."""
        _, r = self._divmod(divisor)
        return r

    def _divmod(self, divisor: "MultiPoly") -> Tuple["MultiPoly", "MultiPoly"]:
        """(quotient, remainder) of division by one polynomial.

        Terms are taken largest first from a heap over the remainder: a term
        divisible by LT(divisor) is reduced, any other one is final, since a
        reduction step only creates terms below the term it cancels.
        """
        self._check_field(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        field = self.field
        lead_d = divisor.leading_expo()
        d0, d1, d2, d3, d4 = lead_d
        inv_lc = field.invert(divisor.terms[lead_d])
        tail = [(e, c) for e, c in divisor.terms.items() if e != lead_d]
        rem = dict(self.terms)
        heap = [_heap_key(e) for e in rem]
        heapq.heapify(heap)
        quo: Dict[Expo, Scalar] = {}
        out: Dict[Expo, Scalar] = {}
        p = field.characteristic
        while heap:
            e = heapq.heappop(heap)[-1]
            c = rem.pop(e, None)
            if c is None:
                continue  # cancelled since it was pushed
            if e[0] < d0 or e[1] < d1 or e[2] < d2 or e[3] < d3 or e[4] < d4:
                out[e] = c
                continue
            qe = (e[0] - d0, e[1] - d1, e[2] - d2, e[3] - d3, e[4] - d4)
            qc = (c * inv_lc) % p
            quo[qe] = qc
            for e2, c2 in tail:
                t = (qe[0] + e2[0], qe[1] + e2[1], qe[2] + e2[2], qe[3] + e2[3], qe[4] + e2[4])
                old = rem.get(t)
                if old is None:
                    rem[t] = (-qc * c2) % p
                    heapq.heappush(heap, _heap_key(t))
                    continue
                v = (old - qc * c2) % p
                if v:
                    rem[t] = v
                else:
                    del rem[t]
        return self._new(quo), self._new(out)

    # substitution -----------------------------------------------------------
    def substitute(self, images: Dict[int, "MultiPoly"]) -> "MultiPoly":
        """Substitute variables by polynomials (variable index -> image)."""
        result = MultiPoly.zero(self.field)
        pow_cache: Dict[Tuple[int, int], MultiPoly] = {}

        def power(i: int, k: int) -> MultiPoly:
            key = (i, k)
            if key not in pow_cache:
                pow_cache[key] = images[i] ** k
            return pow_cache[key]

        for e, c in self.terms.items():
            piece = MultiPoly.const(self.field, c)
            rest = [0] * NVARS
            for i in range(NVARS):
                if e[i]:
                    if i in images:
                        piece = piece * power(i, e[i])
                    else:
                        rest[i] = e[i]
            if any(rest):
                piece = piece.mul_monomial(tuple(rest), 1)
            result = result + piece
        return result

    def derivative(self, var: int) -> "MultiPoly":
        out: Dict[Expo, Scalar] = {}
        p = self.field.characteristic
        for e, c in self.terms.items():
            k = e[var]
            if not k:
                continue
            c2 = (c * k) % p
            if c2 == 0:
                continue
            e2 = list(e)
            e2[var] = k - 1
            out[tuple(e2)] = c2
        return self._new(out)

    # printing / parsing ---------------------------------------------------
    def __str__(self) -> str:
        if not self.terms:
            return "0"
        items = sorted(self.terms.items(), key=lambda kv: monomial_key(kv[0]), reverse=True)
        parts: List[str] = []
        p = self.field.characteristic
        for e, c in items:
            mono = "*".join(
                f"{VAR_NAMES[i]}^{e[i]}" if e[i] > 1 else VAR_NAMES[i]
                for i in range(NVARS) if e[i]
            )
            if c > p // 2:
                c -= p  # balanced residue
            if mono:
                if c == 1:
                    text = mono
                elif c == -1:
                    text = f"-{mono}"
                else:
                    text = f"{c}*{mono}"
            else:
                text = str(c)
            if parts and not text.startswith("-"):
                parts.append("+ " + text)
            elif parts:
                parts.append("- " + text[1:])
            else:
                parts.append(text)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"MultiPoly({self})"

    _TOKEN = re.compile(r"\s*(?:(?P<num>\d+)|(?P<var>[XYZTa])|(?P<op>[-+*^()/]))")

    @staticmethod
    def parse(text: str, field: FieldSpec) -> "MultiPoly":
        """Parse the polynomial string grammar.

        Signed integer coefficients, variables X Y Z T a, optional `*`,
        `^` for powers, `+`/`-` separators; whitespace ignored.
        """
        pos = 0
        tokens: List[Tuple[str, str]] = []
        while pos < len(text):
            m = MultiPoly._TOKEN.match(text, pos)
            if not m:
                if text[pos:].strip() == "":
                    break
                raise ValueError(f"bad character in polynomial at {text[pos:]!r}")
            pos = m.end()
            for kind in ("num", "var", "op"):
                if m.group(kind) is not None:
                    tokens.append((kind, m.group(kind)))
        result = MultiPoly.zero(field)
        i = 0
        n = len(tokens)
        sign = 1
        term: Optional[MultiPoly] = None

        def flush():
            nonlocal result, term, sign
            if term is not None:
                result = result + (term if sign > 0 else -term)
            term = None
            sign = 1

        while i < n:
            kind, val = tokens[i]
            if kind == "op" and val in "+-":
                flush()
                sign = -1 if val == "-" else 1
                i += 1
                continue
            if kind == "op" and val == "*":
                i += 1
                continue
            if kind == "num":
                factor = MultiPoly.const(field, int(val))
                i += 1
            elif kind == "var":
                exp = 1
                if i + 2 < n and tokens[i + 1] == ("op", "^") and tokens[i + 2][0] == "num":
                    exp = int(tokens[i + 2][1])
                    i += 3
                else:
                    i += 1
                factor = MultiPoly.variable(field, val) ** exp
            else:
                raise ValueError(f"unexpected token {val!r}")
            term = factor if term is None else term * factor
        flush()
        return result


# ---------------------------------------------------------------------------
# univariate Euclid mod p, on dense coefficient lists (lowest power first)


def _poly_divmod(a: List[int], b: List[int], p: int) -> Tuple[List[int], List[int]]:
    """Quotient and remainder mod p of dense polynomials (b has a nonzero
    last coefficient)."""
    r = list(a)
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(a) - len(b) + 1, 0)
    for s in range(len(q) - 1, -1, -1):
        q[s] = c = r[s + len(b) - 1] * inv % p
        for i, bi in enumerate(b):
            r[s + i] = (r[s + i] - c * bi) % p
    r = r[:len(b) - 1]
    while r and not r[-1]:
        r.pop()
    return q, r


def _poly_gcd(a: List[int], b: List[int], p: int) -> List[int]:
    """Monic GCD of two dense polynomials mod p, a nonzero (Euclid)."""
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _horner(a: List[int], x: int, p: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


# ---------------------------------------------------------------------------
# GCDs


class GcdNodesExhaustedError(ArithmeticError):
    """The modular GCD used every node of F_p without a certified result."""


def gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Monic greatest common divisor (dense modular GCD, module docstring);
    `GcdNodesExhaustedError` if no node of F_p gives a certified one."""
    if f.field != g.field:
        raise FieldMismatchError("gcd over different fields")
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    used = sorted(set(f.variables()) | set(g.variables()))
    degree = {u: min(max(e[u] for e in q.terms) for q in (f, g)) for u in used}
    forms = [u for u in used if u != PARAM_INDEX]
    if not forms or not (f.is_homogeneous() and g.is_homogeneous()):
        return _modular_gcd(f, g, sorted(used, key=degree.get), certify=True)
    # q = v^m q0 with v not dividing q0: set v := 1, then rehomogenize
    v = max(forms, key=degree.get)
    low = min(min(e[v] for e in q.terms) for q in (f, g))
    h = _modular_gcd(*(MultiPoly(f.field, {e[:v] + (0,) + e[v + 1:]: c for e, c in q.terms.items()})
                       for q in (f, g)), sorted((u for u in used if u != v), key=degree.get), certify=True)
    top = h.degree + low
    return MultiPoly(f.field, {e[:v] + (top - e[0] - e[1] - e[2] - e[3],) + e[v + 1:]: c
                               for e, c in h.terms.items()}).monic()


def _modular_gcd(f: MultiPoly, g: MultiPoly, variables: Sequence[int], certify: bool = False) -> MultiPoly:
    """Monic GCD of nonzero f and g, polynomials in the listed variables.

    The first variable v is evaluated at the nodes 1, 2, ...; the rest
    recurse, down to Euclid in the last one.  Over F_p[v], f and g split into
    contents and primitive parts, and gamma is the GCD of the primitive
    parts' leading coefficients; monomials in the rest compare
    lexicographically, the last variable first, so a wrong image is never
    smaller than a right one.  Each image at v = x is scaled by gamma(x); an
    image whose leading monomial is not the least seen is unlucky and
    dropped, and a constant one proves the primitive parts coprime.  Newton
    interpolation in v joins the images.  Once they reach the degree bound in
    v, the primitive part of the interpolant, times the GCD of the contents,
    is the candidate.  With `certify` it is accepted only if it divides f and
    g; otherwise the images so far were all unlucky, and fresh nodes follow.
    """
    field = f.field
    p = field.characteristic
    if f.is_constant() or g.is_constant():
        return MultiPoly.one(field)
    v, rest = variables[0], variables[1:]
    if not rest:
        dense = [[0] * (max(e[v] for e in q.terms) + 1) for q in (f, g)]
        for row, q in zip(dense, (f, g)):
            for e, c in q.terms.items():
                row[e[v]] = c
        return _in_variable(_poly_gcd(*dense, p), v, field)
    order = operator.itemgetter(*reversed(rest))
    parts = []
    for q in (f, g):
        coeffs: Dict[Expo, List[int]] = {}  # monomial in the rest -> coefficients in v
        for e, c in q.terms.items():
            row = coeffs.setdefault(e[:v] + (0,) + e[v + 1:], [])
            row.extend([0] * (e[v] + 1 - len(row)))
            row[e[v]] = c
        parts.append(_primitive(coeffs, p))
    (cont_f, pf), (cont_g, pg) = parts
    cont = _in_variable(_poly_gcd(cont_f, cont_g, p), v, field)
    gamma = _poly_gcd(pf[max(pf, key=order)], pg[max(pg, key=order)], p)
    bound = len(gamma) - 1 + min(max(map(len, q.values())) - 1 for q in (pf, pg))
    lead = None
    for x in range(1, p):
        scale = _horner(gamma, x, p)
        if not scale:
            continue
        image = _modular_gcd(*(MultiPoly(field, {e: y for e, row in q.items() if (y := _horner(row, x, p))})
                               for q in (pf, pg)), rest)
        if image.is_constant():
            return cont
        top = max(image.terms, key=order)
        key = order(top)
        if lead is not None and key > lead:
            continue  # unlucky node
        scale = scale * pow(image.terms[top], -1, p) % p
        if lead is None or key < lead:
            lead, interp, basis = key, {}, [1]  # (re)start interpolating
        shift = pow(_horner(basis, x, p), -1, p)
        for e in set(interp) | set(image.terms):
            row = interp.setdefault(e, [])
            step = (image.terms.get(e, 0) * scale - _horner(row, x, p)) * shift % p
            row.extend([0] * (len(basis) - len(row)))
            for i, b in enumerate(basis):
                row[i] = (row[i] + step * b) % p
        basis = [0] + basis  # basis := basis * (v - x)
        for i in range(len(basis) - 1):
            basis[i] = (basis[i] - x * basis[i + 1]) % p
        if len(basis) != bound + 2:
            continue
        candidate = cont * MultiPoly(field, {e[:v] + (i,) + e[v + 1:]: c
                                             for e, row in _primitive(interp, p)[1].items()
                                             for i, c in enumerate(row) if c})
        if not certify or (candidate.divides(f) and candidate.divides(g)):
            return candidate.monic()
    raise GcdNodesExhaustedError(f"no certified gcd from the {p - 1} nodes of F_{p}")


def _primitive(coeffs: Dict[Expo, List[int]], p: int) -> Tuple[List[int], Dict[Expo, List[int]]]:
    """(content, primitive part) of a polynomial over F_p[v], given by its
    nonzero coefficient lists in v; the content is monic."""
    rows = {}
    for e, row in coeffs.items():
        rows[e] = row = list(row)
        while not row[-1]:
            row.pop()
    content: List[int] = []
    for row in rows.values():
        content = _poly_gcd(row, content, p)
        if len(content) == 1:
            return content, rows
    return content, {e: _poly_divmod(row, content, p)[0] for e, row in rows.items()}


def _in_variable(a: List[int], v: int, field: FieldSpec) -> MultiPoly:
    """The dense polynomial a (lowest power first) in variable v."""
    return MultiPoly(field, {(0,) * v + (i,) + (0,) * (NVARS - 1 - v): c for i, c in enumerate(a) if c})


def gcd_many(polys: Iterable[MultiPoly]) -> MultiPoly:
    """Monic GCD of a collection; 1 exactly when the inputs are coprime."""
    polys = [q for q in polys if not q.is_zero()]
    if not polys:
        raise ValueError("gcd of all-zero inputs")
    acc = polys[0].monic()
    for q in polys[1:]:
        if acc.is_constant():
            break
        if not acc.divides(q):
            acc = gcd(acc, q)
    return acc


def squarefree_factors(f: MultiPoly) -> List[MultiPoly]:
    """Pairwise-coprime squarefree factors whose product divides f exactly.

    The product of the factors, raised to suitable multiplicities, recovers f
    up to a scalar.  Factors are monic and need not be irreducible: each
    variable dividing f, then the layers of the rest by multiplicity.
    """
    if f.is_zero():
        raise ValueError("squarefree factorization of zero")
    if f.is_constant():
        raise ValueError("squarefree factorization of a constant")
    mins = [min(e[i] for e in f.terms) for i in range(NVARS)]
    factors = [MultiPoly.variable(f.field, VAR_NAMES[i]) for i in range(NVARS) if mins[i]]
    f = MultiPoly(f.field, {tuple(e[i] - mins[i] for i in range(NVARS)): c for e, c in f.terms.items()})
    if f.is_constant():
        return factors
    # Musser's layers: repeated = prod p^(m - 1) over the factors p^m of f,
    # radical = prod p; layer m is the product of the factors of multiplicity m
    partials = [d for d in (f.derivative(v) for v in f.variables()) if not d.is_zero()]
    if not partials:
        raise ArithmeticError("vanishing derivatives; degree exceeds characteristic")
    repeated = gcd_many([f] + partials)
    radical = f.exact_divide(repeated)
    while not radical.is_constant():
        deeper = gcd(radical, repeated)
        factors.append(radical.exact_divide(deeper))
        radical, repeated = deeper, repeated.exact_divide(deeper)
    return [q.monic() for q in factors if not q.is_constant()]
