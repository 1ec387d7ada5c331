"""Exact multivariate polynomial arithmetic over a prime field F_p.

Everything downstream is built on `MultiPoly`: a polynomial in the four
projective coordinates X, Y, Z, T plus a degree-zero deformation parameter
``a`` (the uniformizer of the base valuation ring).  Coefficients are exact:
Python ints reduced mod p.

The module also provides multivariate GCDs (recursive content / primitive
part, with a fast path for binary forms) and a coprime squarefree splitting
used by the minor-GCD analysis.  Full irreducible factorization is out of
scope; callers are written to be correct with any coprime squarefree split.
"""

from __future__ import annotations

import heapq
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
        return FieldSpec(int(obj["characteristic"]))


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
        if len(self.terms) * len(other.terms) >= 20000:
            dense = _mul_dense_prime(self, other)
            if dense is not None:
                return dense
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

    # substitution / evaluation -------------------------------------------
    def specialize_parameter(self, value: Scalar) -> "MultiPoly":
        """Substitute a := value; realizes the closed fiber at value 0."""
        value = self.field.normalize(value)
        out: Dict[Expo, Scalar] = {}
        p = self.field.characteristic
        for e, c in self.terms.items():
            k = e[PARAM_INDEX]
            if k:
                c = (c * pow(value, k, p)) % p
                if c == 0:
                    continue
            e = (e[0], e[1], e[2], e[3], 0)
            v = (out.get(e, 0) + c) % p
            if v:
                out[e] = v
            elif e in out:
                del out[e]
        return self._new(out)

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

    def evaluate(self, point: Sequence[Scalar]) -> Scalar:
        p = self.field.characteristic
        total = 0
        for e, c in self.terms.items():
            v = c
            for i in range(NVARS):
                if e[i]:
                    v = (v * pow(point[i], e[i], p)) % p
            total = (total + v) % p
        return total

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


def _mul_dense_prime(a: MultiPoly, b: MultiPoly) -> Optional[MultiPoly]:
    """Dense product over F_p via packed exponent keys and bincount.

    Exponents are packed in base 2 * maxexp + 1, so a sum of two keys is
    below base**5; None when that does not fit int64.
    """
    import numpy as np

    p = a.field.characteristic
    maxexp = 0
    for poly in (a, b):
        for e in poly.terms:
            maxexp = max(maxexp, max(e))
    base = 2 * maxexp + 1
    if base ** 5 >= 2 ** 63:
        return None

    def pack(poly: MultiPoly):
        keys = np.empty(len(poly.terms), dtype=np.int64)
        coeffs = np.empty(len(poly.terms), dtype=np.int64)
        for idx, (e, c) in enumerate(poly.terms.items()):
            keys[idx] = ((((e[0] * base + e[1]) * base + e[2]) * base + e[3]) * base) + e[4]
            coeffs[idx] = c
        return keys, coeffs

    ka, ca = pack(a)
    kb, cb = pack(b)
    keys = (ka[:, None] + kb[None, :]).ravel()
    prods = ((ca[:, None] * cb[None, :]) % p).ravel()
    uniq, inv = np.unique(keys, return_inverse=True)
    sums = np.bincount(inv, weights=prods.astype(np.float64), minlength=len(uniq))
    sums = np.mod(sums.astype(np.int64), p)
    out: Dict[Expo, Scalar] = {}
    for key, c in zip(uniq.tolist(), sums.tolist()):
        if c == 0:
            continue
        e4 = key % base
        key //= base
        e3 = key % base
        key //= base
        e2 = key % base
        key //= base
        e1 = key % base
        e0 = key // base
        out[(e0, e1, e2, e3, e4)] = int(c)
    return MultiPoly(a.field, out)


# ---------------------------------------------------------------------------
# GCDs


def _content_and_pp(f: MultiPoly, var: int) -> Tuple[MultiPoly, MultiPoly]:
    """Content (gcd of coefficients w.r.t. var) and primitive part."""
    coeffs: Dict[int, Dict[Expo, Scalar]] = {}
    for e, c in f.terms.items():
        k = e[var]
        e2 = list(e)
        e2[var] = 0
        coeffs.setdefault(k, {})[tuple(e2)] = c
    polys = [MultiPoly(f.field, d) for d in coeffs.values()]
    cont = gcd_many(polys)
    pp = f.exact_divide(cont)
    return cont, pp


def _degree_in(f: MultiPoly, var: int) -> int:
    return max((e[var] for e in f.terms), default=-1)


def _lead_coeff_in(f: MultiPoly, var: int) -> MultiPoly:
    d = _degree_in(f, var)
    out: Dict[Expo, Scalar] = {}
    for e, c in f.terms.items():
        if e[var] == d:
            e2 = list(e)
            e2[var] = 0
            out[tuple(e2)] = c
    return MultiPoly(f.field, out)


def _pseudo_remainder(f: MultiPoly, g: MultiPoly, var: int) -> MultiPoly:
    """prem(f, g) w.r.t. var: remainder after lc(g)-scaled division."""
    dg = _degree_in(g, var)
    if dg <= 0:
        raise ValueError("pseudo-division needs a divisor of positive degree")
    lc_g = _lead_coeff_in(g, var)
    r = f
    while not r.is_zero():
        dr = _degree_in(r, var)
        if dr < dg:
            break
        lc_r = _lead_coeff_in(r, var)
        shift = [0] * NVARS
        shift[var] = dr - dg
        r = r * lc_g - g.mul_monomial(tuple(shift), 1) * lc_r
    return r


def _univariate_gcd(f: MultiPoly, g: MultiPoly, var: int) -> MultiPoly:
    a, b = f, g
    while not b.is_zero():
        _, r = a._divmod(b)
        a, b = b, r
    return a.monic()


def _binary_form_gcd(f: MultiPoly, g: MultiPoly, v1: int, v2: int) -> MultiPoly:
    """GCD of two homogeneous polynomials in exactly two variables."""
    field = f.field

    def split(h: MultiPoly) -> Tuple[int, int, MultiPoly]:
        m1 = min(e[v1] for e in h.terms)
        m2 = min(e[v2] for e in h.terms)
        strip = [0] * NVARS
        strip[v1], strip[v2] = m1, m2
        core: Dict[Expo, Scalar] = {}
        for e, c in h.terms.items():
            e2 = list(e)
            e2[v1] -= m1
            e2[v2] -= m2
            core[tuple(e2)] = c
        return m1, m2, MultiPoly(field, core)

    a1, a2, fa = split(f)
    b1, b2, gb = split(g)
    # dehomogenize: v1 := 1, leaving a univariate polynomial in v2
    fa_u = fa.substitute({v1: MultiPoly.one(field)})
    gb_u = gb.substitute({v1: MultiPoly.one(field)})
    u = _univariate_gcd(fa_u, gb_u, v2)
    # rehomogenize to the degree of the gcd
    du = _degree_in(u, v2)
    out: Dict[Expo, Scalar] = {}
    for e, c in u.terms.items():
        e2 = list(e)
        e2[v1] = du - e[v2]
        out[tuple(e2)] = c
    core = MultiPoly(field, out)
    strip = [0] * NVARS
    strip[v1] = min(a1, b1)
    strip[v2] = min(a2, b2)
    return core.mul_monomial(tuple(strip), 1).monic()


def gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Monic greatest common divisor."""
    if f.field != g.field:
        raise FieldMismatchError("gcd over different fields")
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    if f.is_constant() or g.is_constant():
        return MultiPoly.one(f.field)
    fv, gv = f.variables(), g.variables()
    shared = [v for v in fv if v in gv]
    if not shared:
        return MultiPoly.one(f.field)
    both = sorted(set(fv) | set(gv))
    if len(both) == 1:
        return _univariate_gcd(f, g, both[0])
    if len(both) == 2 and f.is_homogeneous() and g.is_homogeneous() \
            and not f.has_parameter() and not g.has_parameter():
        return _binary_form_gcd(f, g, both[0], both[1])
    # eliminate variables present in only one operand through contents
    for v in fv:
        if v not in gv:
            cont, _ = _content_and_pp(f, v)
            return gcd(cont, g)
    for v in gv:
        if v not in fv:
            cont, _ = _content_and_pp(g, v)
            return gcd(f, cont)
    var = min(shared, key=lambda v: min(_degree_in(f, v), _degree_in(g, v)))
    cf, pf = _content_and_pp(f, var)
    cg, pg = _content_and_pp(g, var)
    cont = gcd(cf, cg)
    a, b = pf, pg
    if _degree_in(a, var) < _degree_in(b, var):
        a, b = b, a
    while True:
        if b.is_zero():
            core = a
            break
        if _degree_in(b, var) == 0:
            # primitive parts are coprime in var
            core = MultiPoly.one(f.field)
            break
        r = _pseudo_remainder(a, b, var)
        if not r.is_zero():
            _, r = _content_and_pp(r, var)
        a, b = b, r
    return (cont * core).monic()


def gcd_many(polys: Iterable[MultiPoly]) -> MultiPoly:
    """Monic GCD of a collection; 1 exactly when the inputs are coprime."""
    polys = [q for q in polys if not q.is_zero()]
    if not polys:
        raise ValueError("gcd of all-zero inputs")
    acc = polys[0].monic()
    for q in polys[1:]:
        if acc.is_constant():
            break
        acc = gcd(acc, q)
    return acc


def squarefree_factors(f: MultiPoly) -> List[MultiPoly]:
    """Pairwise-coprime squarefree factors whose product divides f exactly.

    The product of the factors, raised to suitable multiplicities, recovers f
    up to a scalar.  Factors are monic and need not be irreducible.
    """
    if f.is_zero():
        raise ValueError("squarefree factorization of zero")
    if f.is_constant():
        raise ValueError("squarefree factorization of a constant")
    field = f.field
    factors: List[MultiPoly] = []
    # strip monomial content
    mins = [min(e[i] for e in f.terms) for i in range(NVARS)]
    for i in range(NVARS):
        if mins[i] > 0:
            factors.append(MultiPoly.variable(field, VAR_NAMES[i]))
    if any(mins):
        strip = tuple(-m for m in mins)
        f = MultiPoly(field, {
            tuple(e[i] + strip[i] for i in range(NVARS)): c for e, c in f.terms.items()
        })
    if f.is_constant():
        return _dedupe_monic(factors)
    factors.extend(_squarefree_core(f))
    return _dedupe_monic(factors)


def _squarefree_core(f: MultiPoly) -> List[MultiPoly]:
    if f.is_constant():
        return []
    var = f.variables()[0]
    cont, pp = _content_and_pp(f, var)
    out: List[MultiPoly] = []
    if not cont.is_constant():
        out.extend(_squarefree_core(cont))
    if pp.is_constant():
        return out
    # multiplicity layers w.r.t. var; primitivity means every factor uses var,
    # so gcd-with-derivative iterates drop each multiplicity by exactly one
    chain = [pp]
    while not chain[-1].is_constant():
        d = chain[-1].derivative(var)
        if d.is_zero():
            raise ArithmeticError("vanishing derivative; degree exceeds characteristic")
        chain.append(gcd(chain[-1], d))
    radicals = [chain[k].exact_divide(chain[k + 1]) for k in range(len(chain) - 1)]
    for m in range(1, len(radicals) + 1):
        layer = radicals[m - 1]
        if m < len(radicals):
            layer = layer.exact_divide(radicals[m])
        if not layer.is_constant():
            out.extend(_split_by_contents(layer))
    return out


def _split_by_contents(f: MultiPoly) -> List[MultiPoly]:
    """Opportunistic coprime splitting via contents in each variable."""
    if f.is_constant():
        return []
    for var in f.variables():
        cont, pp = _content_and_pp(f, var)
        if not cont.is_constant() and not pp.is_constant():
            return _split_by_contents(cont) + _split_by_contents(pp)
    return [f.monic()]


def _dedupe_monic(polys: List[MultiPoly]) -> List[MultiPoly]:
    out: List[MultiPoly] = []
    for q in polys:
        q = q.monic()
        if q not in out and not q.is_constant():
            out.append(q)
    return out
