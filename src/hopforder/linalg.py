"""Exact linear algebra over Z and Z localized at a prime.

Inputs and results are exact rationals (`fractions.Fraction`), so no
rounding ever happens.  Products, solves and eliminations run on
integers: one helper clears denominators, matrix products multiply the
cleared integers, and one fraction-free Gauss-Jordan kernel serves rank,
determinant, inverse and solves, each elimination answering any number
of right-hand sides.  The central routine is :func:`hnf`, a row-style
Hermite normal form whose unimodular left transform is built only when
read; the order computation relies on it.  Lattices are compared by
mutual membership, never entrywise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul


class LinAlgError(Exception):
    pass


class ZeroMatrixError(LinAlgError):
    pass


class ColumnRankDeficientError(LinAlgError):
    pass


class SingularError(LinAlgError):
    pass


class DimensionMismatchError(LinAlgError):
    pass


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class CoefficientRing:
    """The coefficient PID: Z, or Z localized at a prime p.

    Localizing at p keeps exactly the rationals whose denominator is
    coprime to p, which is the faithful model for p-adic integral data
    given by rational coordinates.
    """

    kind: str  # "integers" or "local"
    prime: int | None = None

    def __post_init__(self):
        if self.kind not in ("integers", "local"):
            raise ValueError(f"unknown ring kind {self.kind!r}")
        if self.kind == "local":
            if self.prime is None or not _is_prime(self.prime):
                raise ValueError(f"{self.prime!r} is not prime")
        elif self.prime is not None:
            raise ValueError("prime only makes sense for a local ring")

    @staticmethod
    def integers() -> "CoefficientRing":
        return CoefficientRing("integers")

    @staticmethod
    def localized_at(p: int) -> "CoefficientRing":
        return CoefficientRing("local", p)

    @property
    def is_local(self) -> bool:
        return self.kind == "local"

    def valuation(self, x: Fraction | int) -> int:
        """p-adic valuation; only defined for local rings and x != 0."""
        if not self.is_local:
            raise ValueError("valuation needs a local ring")
        x = Fraction(x)
        if x == 0:
            raise ValueError("valuation of zero is undefined")
        p = self.prime
        v = 0
        n = x.numerator
        while n % p == 0:
            n //= p
            v += 1
        d = x.denominator
        while d % p == 0:
            d //= p
            v -= 1
        return v

    def is_integral(self, x: Fraction | int) -> bool:
        x = Fraction(x)
        if self.kind == "integers":
            return x.denominator == 1
        return x == 0 or self.valuation(x) >= 0

    def is_unit(self, x: Fraction | int) -> bool:
        x = Fraction(x)
        if x == 0:
            return False
        if self.kind == "integers":
            return x in (1, -1)
        return self.valuation(x) == 0

    def content(self, entries) -> Fraction:
        """The scalar d such that entries/d are integral with unit content."""
        nonzero = [Fraction(x) for x in entries if x != 0]
        if not nonzero:
            raise ZeroMatrixError("content of the zero matrix")
        if self.kind == "integers":
            g = 0
            l = 1
            for x in nonzero:
                g = gcd(g, abs(x.numerator))
                l = lcm(l, x.denominator)
            return Fraction(g, l)
        v = min(self.valuation(x) for x in nonzero)
        return Fraction(self.prime) ** v


class Matrix:
    """Immutable dense matrix of Fractions, row-major."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows_of_entries):
        data = tuple(tuple(Fraction(x) for x in row) for row in rows_of_entries)
        if data and any(len(r) != len(data[0]) for r in data):
            raise DimensionMismatchError("ragged rows")
        object.__setattr__(self, "_data", data)
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", len(data[0]) if data else 0)

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    def __getitem__(self, ij):
        i, j = ij
        return self._data[i][j]

    def row(self, i):
        return self._data[i]

    def col(self, j):
        return tuple(r[j] for r in self._data)

    def entries(self):
        return itertools.chain.from_iterable(self._data)

    def tolists(self):
        return [list(r) for r in self._data]

    def __eq__(self, other):
        return isinstance(other, Matrix) and self._data == other._data

    def __hash__(self):
        return hash(self._data)

    def __repr__(self):
        return f"Matrix({[list(map(str, r)) for r in self._data]})"

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(m: int, n: int) -> "Matrix":
        return Matrix([[0] * n for _ in range(m)])

    @staticmethod
    def from_cols(cols) -> "Matrix":
        cols = [list(c) for c in cols]
        return Matrix([[c[i] for c in cols] for i in range(len(cols[0]))])

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries())

    def transpose(self) -> "Matrix":
        return Matrix([self.col(j) for j in range(self.cols)])

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatchError("shape mismatch in +")
        return Matrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self._data, other._data)
            ]
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatchError("shape mismatch in -")
        return Matrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self._data, other._data)
            ]
        )

    def scale(self, c) -> "Matrix":
        c = Fraction(c)
        return Matrix([[c * x for x in r] for r in self._data])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """(s a) (t b) / (s t): the product of the integer matrices left
        by clearing the denominators of each factor."""
        if self.cols != other.rows:
            raise DimensionMismatchError("shape mismatch in @")
        a, s = _integer_rows(self._data)
        b, t = _integer_rows(other._data)
        cols = list(zip(*b))
        return Matrix(
            [[Fraction(sum(map(mul, row, col)), s * t) for col in cols] for row in a]
        )

    def apply(self, v):
        """Matrix times a coordinate vector, returned as a tuple."""
        if len(v) != self.cols:
            raise DimensionMismatchError("vector length mismatch")
        return (self @ Matrix([[x] for x in v])).col(0)

    def stack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise DimensionMismatchError("column mismatch in stack")
        return Matrix(list(self._data) + list(other._data))

    def submatrix(self, row_lo, row_hi, col_lo, col_hi) -> "Matrix":
        return Matrix([r[col_lo:col_hi] for r in self._data[row_lo:row_hi]])


def kronecker(a: Matrix, b: Matrix) -> Matrix:
    """Standard Kronecker product: block (i, j) equals a[i, j] * b."""
    out = []
    for i in range(a.rows):
        for p in range(b.rows):
            out.append(
                [a[i, j] * b[p, q] for j in range(a.cols) for q in range(b.cols)]
            )
    return Matrix(out)


def vec(m: Matrix):
    """Column-major vectorization: stacked ordered columns of m."""
    return tuple(m[i, j] for j in range(m.cols) for i in range(m.rows))


def unvec(v, n: int) -> Matrix:
    if len(v) != n * n:
        raise DimensionMismatchError("vector is not n^2 long")
    return Matrix([[v[n * j + i] for j in range(n)] for i in range(n)])


# --- the integer elimination kernel ----------------------------------------


def _integer_rows(rows):
    """(a, s): the rows times the lcm s of their denominators, as lists
    of ints."""
    s = lcm(*{x.denominator for row in rows for x in row})
    if s == 1:
        return [[x.numerator for x in row] for row in rows], 1
    return [[x.numerator * (s // x.denominator) for x in row] for row in rows], s


def _echelon(a, n_cols):
    """Fraction-free Gauss-Jordan elimination of integer rows, in place,
    pivoting only in the first n_cols columns.

    Returns (pivot_cols, d, sign).  Afterwards a = d * RREF of the input
    with its rows swapped, and sign is the sign of those swaps; the
    columns from n_cols on (right-hand sides) are carried along.  d is
    the determinant of the pivot submatrix of the swapped input, so
    every division below is exact (Bareiss 1968; Cohen, GTM 138, 2.2).
    """
    m = len(a)
    piv_cols = []
    d, sign, r = 1, 1, 0
    for c in range(n_cols):
        pr = next((i for i in range(r, m) if a[i][c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            a[r], a[pr] = a[pr], a[r]
            sign = -sign
        pivot_row = a[r]
        p = pivot_row[c]
        for i in range(m):
            f = a[i][c]
            # a new pivot rescales every other row from d to p
            if i == r or (f == 0 and p == d):
                continue
            a[i] = [(p * x - f * y) // d for x, y in zip(a[i], pivot_row)]
        d = p
        piv_cols.append(c)
        r += 1
    return piv_cols, d, sign


def rank(m: Matrix) -> int:
    return len(_echelon(_integer_rows(m._data)[0], m.cols)[0])


def solve_columns(m: Matrix, vs) -> list:
    """For each v in vs, the unique solution x of m @ x = v, or None if
    inconsistent, from one elimination of [m | v_1 ... v_k].

    A consistent v requires m to have full column rank (the only case
    this package needs).
    """
    if any(len(v) != m.rows for v in vs):
        raise DimensionMismatchError("rhs length mismatch")
    n = m.cols
    a, _ = _integer_rows(
        [row + tuple(v[i] for v in vs) for i, row in enumerate(m._data)]
    )
    piv_cols, d, _ = _echelon(a, n)
    r = len(piv_cols)
    out = []
    for j in range(n, n + len(vs)):
        if any(row[j] for row in a[r:]):
            out.append(None)  # a zero row of m meets a nonzero entry of v
        elif r < n:
            raise ColumnRankDeficientError("matrix does not have full column rank")
        else:
            out.append(tuple(Fraction(row[j], d) for row in a[:n]))
    return out


def solve(m: Matrix, v):
    """The unique solution x of m @ x = v, or None if inconsistent.

    Requires m to have full column rank (the only case this package needs).
    """
    return solve_columns(m, [v])[0]


def determinant(m: Matrix) -> Fraction:
    """Exact determinant: sign * d / s^n from the elimination of s * m."""
    if m.rows != m.cols:
        raise DimensionMismatchError("determinant of a non-square matrix")
    a, s = _integer_rows(m._data)
    piv_cols, d, sign = _echelon(a, m.cols)
    if len(piv_cols) < m.rows:
        return Fraction(0)
    return Fraction(sign * d, s**m.rows)


def det_inverse(m: Matrix):
    """Exact determinant and inverse; raises Singular when det = 0.

    One elimination of [s * m | I] ends at d * [I | (s * m)^-1].
    """
    if m.rows != m.cols:
        raise DimensionMismatchError("determinant of a non-square matrix")
    n = m.rows
    a, s = _integer_rows(m._data)
    for i, row in enumerate(a):
        row.extend(1 if i == j else 0 for j in range(n))
    piv_cols, d, sign = _echelon(a, n)
    if len(piv_cols) < n:
        raise SingularError("matrix is singular")
    inverse = Matrix([[Fraction(s * x, d) for x in row[n:]] for row in a])
    return Fraction(sign * d, s**n), inverse


# --- Hermite normal form -------------------------------------------------


@dataclass(frozen=True)
class HnfResult:
    """Outcome of hnf: U @ (matrix / content) = D stacked over zero rows.

    D is the integer-style Hermite normal form (positive pivots, entries
    above a pivot reduced into [0, pivot)).  For a local ring the input is
    first scaled by the unit lcm of its denominators; use
    :meth:`local_normal_form` for the p-power-pivot canonical shape.
    """

    matrix: Matrix  # the input
    D: Matrix
    content: Fraction
    zero_rows: int
    ring: CoefficientRing

    @cached_property
    def U(self) -> Matrix:
        """The unimodular transform, built on first read: the same HNF
        run on [matrix / content | I] ends at [D; 0 | U]."""
        a, _ = _integer_rows(self.matrix.scale(1 / self.content)._data)
        n, m = self.matrix.cols, len(a)
        for i, row in enumerate(a):
            row.extend(1 if i == j else 0 for j in range(m))
        _hnf_int(a, n)
        return Matrix([row[n:] for row in a])

    def local_normal_form(self) -> Matrix:
        """Canonical form over Z_(p): each row divided by the unit part of
        its pivot, entries above a pivot reduced to residues in [0, p^k)."""
        if not self.ring.is_local:
            raise ValueError("local normal form needs a local ring")
        p = self.ring.prime
        n = self.D.rows
        rows = self.D.tolists()
        for i in range(n):
            piv = rows[i][i]
            k = self.ring.valuation(piv)
            unit = piv / Fraction(p) ** k
            rows[i] = [x / unit for x in rows[i]]
        # reduce above pivots with ring-integral multiples of the pivot row
        for j in range(n - 1, -1, -1):
            pk = rows[j][j]  # now p^k
            mod = int(pk)
            for i in range(j):
                x = rows[i][j]
                if x == 0:
                    continue
                # canonical residue of x mod p^k as an integer in [0, p^k)
                r = (x.numerator * pow(x.denominator, -1, mod)) % mod
                c = (x - r) / pk
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[j])]
        return Matrix(rows)


def _hnf_int(a, n_cols):
    """Row HNF of an integer matrix (list of lists) in place, pivoting
    only in the first n_cols columns; returns the rank.

    The row operations depend on those columns alone, so the columns
    after them carry the unimodular transform when they start as I.
    """
    m = len(a)

    def rowop(i1, i2, s, t, x, y):
        # (row i1, row i2) <- (s*row i1 + t*row i2, x*row i1 + y*row i2)
        r1, r2 = a[i1], a[i2]
        a[i1] = [s * p + t * q for p, q in zip(r1, r2)]
        a[i2] = [x * p + y * q for p, q in zip(r1, r2)]

    r = 0
    for c in range(n_cols):
        pr = next((i for i in range(r, m) if a[i][c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            a[r], a[pr] = a[pr], a[r]
        for i in range(r + 1, m):
            if a[i][c] == 0:
                continue
            p, q = a[r][c], a[i][c]
            if p % q == 0:
                # cheap path: plain elimination
                f = p // q
                rowop(r, i, 0, 1, 1, -f)
                continue
            g = gcd(p, q)
            # extended gcd: s*p + t*q = g
            s, t = _gcdex(p, q)
            rowop(r, i, s, t, -q // g, p // g)
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
        piv = a[r][c]
        for i in range(r):
            if not 0 <= a[i][c] < piv:
                f = a[i][c] // piv
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def _gcdex(p, q):
    s0, s1, t0, t1 = 1, 0, 0, 1
    while q != 0:
        f, p, q = p // q, q, p % q
        s0, s1 = s1, s0 - f * s1
        t0, t1 = t1, t0 - f * t1
    if p < 0:
        s0, t0 = -s0, -t0
    return s0, t0


def hnf(m: Matrix, ring: CoefficientRing) -> HnfResult:
    """Hermite normal form with content extraction and transform.

    Returns D, content and (on first read) U with U unimodular over the
    ring and U @ (m / content) = [D; 0], D upper triangular with nonzero
    pivots.  Raises ColumnRankDeficient when rank < cols.
    """
    if m.is_zero():
        raise ZeroMatrixError("hnf of the zero matrix")
    d = ring.content(m.entries())
    # over a local ring entries can be non-integers with unit denominator;
    # scale them away by a unit before the integer HNF
    a, s = _integer_rows(m.scale(1 / d)._data)
    r = _hnf_int(a, m.cols)
    if r < m.cols:
        raise ColumnRankDeficientError(f"rank {r} < {m.cols} columns")
    d_mat = Matrix(a[: m.cols]).scale(Fraction(1, s))
    return HnfResult(matrix=m, D=d_mat, content=d, zero_rows=m.rows - m.cols, ring=ring)


# --- lattices ------------------------------------------------------------


@dataclass(frozen=True)
class LatticeBasis:
    """A free O_K-lattice in K^ambient_dim given by basis columns."""

    ambient_dim: int
    basis: Matrix  # ambient_dim x rank, columns are basis vectors
    ring: CoefficientRing

    def __post_init__(self):
        if self.basis.rows != self.ambient_dim:
            raise DimensionMismatchError("basis rows != ambient_dim")
        if rank(self.basis) != self.basis.cols:
            raise ColumnRankDeficientError("basis columns are dependent")

    @property
    def rank(self) -> int:
        return self.basis.cols


def lattice_contains(lat: LatticeBasis, v) -> bool:
    """True iff v is an O_K-combination of the basis columns."""
    if len(v) != lat.ambient_dim:
        raise DimensionMismatchError("vector length != ambient_dim")
    return _contains_all(lat, [v])


def _contains_all(lat: LatticeBasis, vs) -> bool:
    """lattice_contains for every v in vs, from one elimination."""
    return all(
        x is not None and all(lat.ring.is_integral(c) for c in x)
        for x in solve_columns(lat.basis, vs)
    )


def lattice_equal(a: LatticeBasis, b: LatticeBasis) -> bool:
    """Mutual inclusion, one elimination per side; bases are never
    compared entrywise."""
    if a.ambient_dim != b.ambient_dim or a.ring != b.ring or a.rank != b.rank:
        raise DimensionMismatchError("lattices live in different spaces")
    return all(
        _contains_all(outer, [inner.basis.col(j) for j in range(inner.rank)])
        for outer, inner in ((b, a), (a, b))
    )
