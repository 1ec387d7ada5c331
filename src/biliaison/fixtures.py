"""Built-in example presentations: Koszul matrices and the DVR block family.

The three shipped examples follow one recipe: take consecutive maps
sigma2, sigma1 from a graded free resolution over k[X,Y,Z,T] whose first
cokernel sheaf is locally free, then form the block matrix

    s = [[sigma1,      0],
         [a * I,  sigma2]]

over the valuation ring k[a].  At the closed point (a = 0) the blocks
decouple, which is what makes the large example tractable.  `rao_family`
builds seeded instances of the same recipe, larger than the examples.

Expected values attached to the descriptors mark their provenance:
"stated" values are the published ones for these classical examples;
"derived" values are forced from the stated ones by the shift identity
h0 = sum n*q(n) + deg N and Euler-characteristic bookkeeping, and were
cross-checked by hand before being frozen here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from biliaison import modgb
from biliaison.families import random_matrix
from biliaison.grmatrix import CharFunction, GradedMatrix, identity_matrix, stack_blocks
from biliaison.polyring import FieldSpec, MultiPoly


class FixtureError(RuntimeError):
    """A fixture failed its construction-time self-check."""


@dataclass
class ExampleDescriptor:
    name: str
    matrix: GradedMatrix
    expected: Dict[str, object]
    notes: List[str] = dc_field(default_factory=list)
    hypothesis_certifiable: bool = True


def _parse_grid(field: FieldSpec, rows: List[List[str]]) -> List[List[MultiPoly]]:
    return [[MultiPoly.parse(s, field) for s in row] for row in rows]


@lru_cache(maxsize=None)
def koszul_matrices(field: FieldSpec = FieldSpec.prime()) -> Tuple[GradedMatrix, GradedMatrix, GradedMatrix]:
    """The Koszul maps U (1x4), V (4x6), V' (6x4) of the regular sequence X,Y,Z,T.

    Signs are preserved character-for-character from the printed matrices.
    Cached per field, like `example`.
    """
    U = GradedMatrix(field, [0], [1, 1, 1, 1], _parse_grid(field, [["X", "Y", "Z", "T"]]))
    V = GradedMatrix(field, [1] * 4, [2] * 6, _parse_grid(field, [
        ["Y", "Z", "T", "0", "0", "0"],
        ["-X", "0", "0", "Z", "T", "0"],
        ["0", "-X", "0", "-Y", "0", "T"],
        ["0", "0", "-X", "0", "-Y", "-Z"],
    ]))
    Vp = GradedMatrix(field, [2] * 6, [3] * 4, _parse_grid(field, [
        ["0", "0", "-T", "Z"],
        ["0", "T", "0", "-Y"],
        ["0", "-Z", "Y", "0"],
        ["-T", "0", "0", "X"],
        ["Z", "0", "-X", "0"],
        ["-Y", "X", "0", "0"],
    ]))
    return U, V, Vp


def block_dvr_matrix(sigma1: GradedMatrix, sigma2: GradedMatrix) -> GradedMatrix:
    """Assemble s = [[sigma1, 0], [a*I, sigma2]] over the valuation ring.

    The identity block is forced to be square of size = number of columns of
    sigma1, which must match the rows of sigma2 degree for degree.
    """
    if sigma1.field != sigma2.field:
        raise ValueError("blocks over different fields")
    if tuple(sigma1.col_degrees) != tuple(sigma2.row_degrees):
        raise ValueError(
            "column degrees of sigma1 must equal row degrees of sigma2 "
            f"({sigma1.col_degrees} vs {sigma2.row_degrees})"
        )
    a = MultiPoly.variable(sigma1.field, "a")
    aI = identity_matrix(sigma1.field, sigma1.col_degrees, scale=a)
    return stack_blocks([[sigma1, None], [aI, sigma2]])


def _sigma1_ex34(field: FieldSpec) -> GradedMatrix:
    """Presentation matrix of a generic finite-length module with dims (2, 7)."""
    row1 = ["X", "Y^2", "Z^2", "T^2", "Y*Z", "Y*T", "Z*T"] + ["0"] * 10
    row2 = ["-Y"] + ["0"] * 6 + ["X^2", "Y^2", "Z^2", "T^2", "X*Y", "X*Z", "X*T", "Y*Z", "Y*T", "Z*T"]
    return GradedMatrix(field, [0, 0], [1] + [2] * 16, _parse_grid(field, [row1, row2]))


@lru_cache(maxsize=None)
def example(name: str, field: FieldSpec = FieldSpec.prime()) -> ExampleDescriptor:
    """Construct one of the shipped examples ("3.2", "3.3", "3.4").

    Cached: at most the three names times the fields in use.  Every caller
    then holds the same matrix object, so the results kept on it are shared.
    """
    U, V, Vp = koszul_matrices(field)
    if name == "3.2":
        s = block_dvr_matrix(U, V)
        expected = {
            "alpha": {1: 1, 2: 4},          # stated
            "beta": {1: 1, 2: 4},           # stated
            "b0": 0,                         # stated
            "q": {2: 3},                     # stated
            "stable_rank": 4,                # derived: rank of the closed-point blocks
            "deg_N": -4,                     # derived: forced by h0 = sum n*q(n) + deg N
            "h0": 2,                         # stated (twist of the ideal sheaf)
            "d0": 6,                         # stated
            "g0": 3,                         # stated
        }
        return ExampleDescriptor(name, s, expected)
    if name == "3.3":
        s = block_dvr_matrix(V, Vp)
        expected = {
            "alpha": {2: 3, 3: 6},           # stated
            "beta": {2: 3, 3: 6},            # stated
            "b0": 1,                          # stated
            "q": {2: 2, 3: 3},               # stated
            "stable_rank": 6,                # derived
            "deg_N": -12,                    # derived
            "h0": 1,                          # derived: 13 + (-12)
            "d0": 6,                          # stated
            "g0": 3,                          # stated
        }
        return ExampleDescriptor(
            name, s, expected,
            notes=[
                "identity block printed as size 4 in the source example, but the "
                "block construction forces size 6 (= columns of V); suspected typo, "
                "size 6 used",
                "the printed 'a_3' is read as alpha_3",
            ],
        )
    if name == "3.4":
        sigma1 = _sigma1_ex34(field)
        sigma2 = modgb.syzygies(sigma1, 3)
        if sigma2.ncols != 34 or set(sigma2.col_degrees) != {3}:
            raise FixtureError(
                f"expected 34 minimal degree-3 syzygies, got {sigma2.ncols} "
                f"in degrees {sorted(set(sigma2.col_degrees))}"
            )
        s = block_dvr_matrix(sigma1, sigma2)
        expected = {
            "alpha": {1: 1, 3: 17},          # alpha_1 stated; alpha_3 derived (full rank 2 + 15)
            "beta": {1: 1},                  # stated
            "b0": 1,                          # stated as >= 1; exact value derived
            "q": {1: 1, 3: 15},              # stated
            "stable_rank": 17,               # derived
            "deg_N": -33,                    # derived
            "h0": 13,                         # derived: 46 + (-33)
            "d0": 120,                        # stated
            "g0": 1001,                       # stated
            "syzygy_count": 34,              # stated (resolution shape)
            "syzygy_degree": 3,              # stated
        }
        return ExampleDescriptor(
            name, s, expected,
            notes=[
                "local freeness of the cokernel at the closed point is asserted by "
                "construction; certifying it would need the 15-minors of a 17x34 "
                "block, far more than the 20000 rank-level minors enumerated per block",
            ],
            hypothesis_certifiable=False,
        )
    raise KeyError(f"unknown example {name!r}; choose 3.2, 3.3 or 3.4")


FIXTURE_NAMES = ("3.2", "3.3", "3.4")


def _finite_length_sigma1(m: GradedMatrix, top: int) -> GradedMatrix:
    """m (row degrees 0) followed, for each row in turn, by its monomials of
    degree ``top`` as single-entry columns: every form of that degree lies in
    each row's image, so the cokernel has finite length."""
    monomials = [MultiPoly.monomial(m.field, e + (0,)) for e in modgb.monomials_of_degree(top)]
    row = GradedMatrix(m.field, [0], [top] * len(monomials), [monomials])
    diagonal = stack_blocks([[row if i == j else None for j in range(m.nrows)] for i in range(m.nrows)])
    return stack_blocks([[m, diagonal]])


def rao_family(r: int, nlin: int, seed: int) -> GradedMatrix:
    """A seeded instance beyond the shipped examples, of size about 12r x 30r.

    sigma1 is r x (nlin + 10r) with all row degrees 0: ``nlin`` columns of
    random linear forms drawn from ``seed``, then, for each row in turn, its
    ten quadric monomials as single-entry columns.  Its cokernel has finite
    length, because every quadric lies in each row's image.  sigma2 is
    `modgb.syzygies(sigma1, 3)`, and the result is `block_dvr_matrix`.
    """
    lin = random_matrix(FieldSpec.prime(), [0] * r, [1] * nlin, random.Random(seed))
    sigma1 = _finite_length_sigma1(lin, 2)
    return block_dvr_matrix(sigma1, modgb.syzygies(sigma1, 3))


def rank_drop_sigma1(r: int, f: int, ncommon: int, seed: int) -> GradedMatrix:
    """A seeded r-row presentation whose beta drops below alpha - 1.

    Its ``ncommon`` < r columns of degree f + 1 are F * l_j, where F is a
    random form of degree f and each l_j a column of random linear forms,
    all drawn from ``seed``; every monomial of degree f + 2 follows as a
    single-entry column of each row.  At n = f + 1 the ncommon-minors share
    F^ncommon, so beta is 0 there, and the profile is
    [(f, 0, 0, 0), (f + 1, ncommon, 0, 0), (f + 2, r, r, r - 1)].
    """
    field = FieldSpec.prime()
    rng = random.Random(seed)
    common = random_matrix(field, [0], [f], rng).entries[0][0]
    lin = random_matrix(field, [0] * r, [1] * ncommon, rng)
    grid = [[common * form for form in row] for row in lin.entries]
    return _finite_length_sigma1(GradedMatrix(field, [0] * r, [f + 1] * ncommon, grid), f + 2)
