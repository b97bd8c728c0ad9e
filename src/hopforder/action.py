"""Fields as structure-constant data and Hopf actions as coordinate tables.

A field (or etale algebra) of degree n over K is presented by the
structure constants of a distinguished basis; a Hopf action is the n x n
table of coordinate vectors w_i . gamma_j.  From the table we assemble
the n^2 x n action matrix whose columns are the column-major
vectorizations of the representing matrices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .linalg import (
    CoefficientRing,
    DimensionMismatchError,
    LinAlgError,
    Matrix,
    determinant,
    rank,
    solve,
    unvec,
    vec,
)


class ValidationError(Exception):
    """A structural invariant of the input data is violated."""


class NotInImageError(LinAlgError):
    pass


@dataclass(frozen=True)
class FieldPresentation:
    """Degree-n commutative K-algebra with a distinguished integral basis.

    structure_constants[j][k][l] is the gamma_l coordinate of
    gamma_j * gamma_k.
    """

    dim: int
    basis_labels: tuple
    structure_constants: tuple  # n x n x n of Fraction
    one_index: int = 0

    def __post_init__(self):
        n = self.dim
        sc = tuple(
            tuple(tuple(Fraction(x) for x in row) for row in plane)
            for plane in self.structure_constants
        )
        object.__setattr__(self, "structure_constants", sc)
        object.__setattr__(self, "basis_labels", tuple(self.basis_labels))
        if len(self.basis_labels) != n or len(sc) != n:
            raise ValidationError("basis size mismatch")
        if any(len(p) != n or any(len(r) != n for r in p) for p in sc):
            raise ValidationError("structure constant array is not n x n x n")
        if not 0 <= self.one_index < n:
            raise ValidationError("one_index out of range")

    def validate(self):
        """Check commutativity, associativity and the unit axiom."""
        n, sc, j0 = self.dim, self.structure_constants, self.one_index
        for j in range(n):
            for k in range(n):
                if sc[j][k] != sc[k][j]:
                    raise ValidationError(f"commutativity fails at ({j},{k})")
        for k in range(n):
            for l in range(n):
                if sc[j0][k][l] != (1 if k == l else 0):
                    raise ValidationError("unit axiom fails")
        # g[a*n+b][c*n:c*n+n] holds the coordinates of (gamma_a gamma_b) gamma_c
        # over g's denominator; by commutativity gamma_a (gamma_b gamma_c)
        # is (gamma_b gamma_c) gamma_a, at g[b*n+c][a*n:a*n+n]
        planes = [itertools.chain.from_iterable(plane) for plane in sc]
        g = (Matrix([ab for plane in sc for ab in plane]) @ Matrix(planes)).ints
        for a, b, c in itertools.product(range(n), repeat=3):
            if g[a * n + b][c * n : c * n + n] != g[b * n + c][a * n : a * n + n]:
                raise ValidationError(f"associativity fails at ({a},{b},{c})")

    def multiply(self, x, y):
        """Coordinates of the product of two coordinate vectors."""
        return mult_matrix(self, x).apply(y)

    def one(self):
        return tuple(
            Fraction(1 if j == self.one_index else 0) for j in range(self.dim)
        )

    def trace(self, x) -> Fraction:
        m = mult_matrix(self, x)
        return sum(m[i, i] for i in range(self.dim))

    def discriminant(self) -> Fraction:
        """Determinant of the trace form of the distinguished basis."""
        sc = self.structure_constants
        return determinant(Matrix([[self.trace(jk) for jk in plane] for plane in sc]))


def _vec_mult(fieldp: FieldPresentation) -> Matrix:
    """The n^2 x n matrix whose column j is vec(L_j), where
    L_j = Matrix.from_cols(sc[j]) is the matrix of y -> gamma_j y."""
    return Matrix.from_cols(
        [itertools.chain.from_iterable(plane) for plane in fieldp.structure_constants]
    )


def mult_matrix(fieldp: FieldPresentation, x) -> Matrix:
    """Matrix of y -> x*y in the distinguished basis, sum_j x_j L_j."""
    n = fieldp.dim
    if len(x) != n:
        raise DimensionMismatchError("coordinate vector length != dim")
    return unvec(_vec_mult(fieldp).apply(x), n)


@dataclass(frozen=True)
class ActionTable:
    """The table (w_i . gamma_j) of a Hopf action, in field coordinates."""

    hopf_labels: tuple
    field: FieldPresentation
    entries: tuple  # n x n of coordinate vectors

    def __post_init__(self):
        n = self.field.dim
        object.__setattr__(self, "hopf_labels", tuple(self.hopf_labels))
        ent = tuple(
            tuple(tuple(Fraction(x) for x in v) for v in row)
            for row in self.entries
        )
        object.__setattr__(self, "entries", ent)
        if len(self.hopf_labels) != n:
            raise ValidationError("Hopf basis size must equal field degree")
        if len(ent) != n or any(
            len(r) != n or any(len(v) != n for v in r) for r in ent
        ):
            raise ValidationError("action table is not n x n of length-n vectors")

    @property
    def dim(self) -> int:
        return self.field.dim


@dataclass(frozen=True)
class ActionReport:
    rank_ok: bool
    j_bijective: bool


@dataclass(frozen=True)
class ActionBundle:
    """ActionTable together with its derived matrices M and M_j."""

    table: ActionTable
    ring: CoefficientRing
    M: Matrix = field(compare=False, default=None)
    blocks: tuple = field(compare=False, default=None)

    @property
    def dim(self) -> int:
        return self.table.dim


def rep_matrix_basis(table: ActionTable, i: int) -> Matrix:
    """Matrix of the i-th Hopf basis element acting on the field."""
    return Matrix.from_cols([table.entries[i][j] for j in range(table.dim)])


def build_bundle(table: ActionTable, ring: CoefficientRing) -> ActionBundle:
    """Assemble M(H, L) columnwise and cut it into the blocks M_j."""
    n = table.dim
    m = Matrix.from_cols([vec(rep_matrix_basis(table, i)) for i in range(n)])
    blocks = tuple(m.submatrix(n * j, n * (j + 1), 0, n) for j in range(n))
    return ActionBundle(table=table, ring=ring, M=m, blocks=blocks)


def rep_matrix(bundle: ActionBundle, h) -> Matrix:
    """Matrix of x -> h.x for h given in the Hopf basis."""
    n = bundle.dim
    if len(h) != n:
        raise DimensionMismatchError("h length != dim")
    return unvec(bundle.M.apply(h), n)


def verify_action(bundle: ActionBundle) -> ActionReport:
    """Rank-n check for M, and matrix-level bijectivity of j.

    j is bijective iff the n^2 products mult(gamma_j) . rho(w_i) are
    K-linearly independent.
    """
    n = bundle.dim
    rank_ok = rank(bundle.M) == n
    reps = [rep_matrix_basis(bundle.table, i) for i in range(n)]
    # a row per product, its integer rows end to end: neither the order of
    # the entries nor a row's denominator changes the rank
    prods = [
        itertools.chain.from_iterable((mj @ rep).ints)
        for mj in map(Matrix.from_cols, bundle.table.field.structure_constants)
        for rep in reps
    ]
    j_bijective = rank(Matrix._of(prods)) == n * n
    return ActionReport(rank_ok=rank_ok, j_bijective=j_bijective)


def express_endomorphism(bundle: ActionBundle, t: Matrix):
    """The unique h with sum h_i rho(w_i) = t, via M(H,L) x = vec(t)."""
    n = bundle.dim
    if (t.rows, t.cols) != (n, n):
        raise DimensionMismatchError("endomorphism must be n x n")
    x = solve(bundle.M, vec(t))
    if x is None:
        raise NotInImageError("endomorphism is outside the span of the action")
    return x
