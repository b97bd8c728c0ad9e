"""Exact linear algebra over Z and Z localized at a prime.

A :class:`Matrix` holds integer rows over one positive denominator, in
a reduced form that equal matrices share; entries read back as exact
rationals (`fractions.Fraction`), so no rounding ever happens.
Products and eliminations run on the stored integer rows: one
fraction-free Gauss-Jordan kernel serves rank, determinant, inverse and
solves, each elimination answering any number of right-hand sides.
A rank is first computed modulo one fixed prime; rank mod p never
exceeds rank over Q, so a full modular rank is proved, and any lower
one falls back to the exact kernel.  Every other result (determinants,
inverses, solutions, HNF) is exact and never reduced mod p.
The central routine is :func:`hnf`, a row-style Hermite normal form
whose unimodular left transform is built only when read; the order
computation relies on it.  Lattices are compared by mutual membership,
never entrywise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, lcm
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
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


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
            return Fraction(
                gcd(*(x.numerator for x in nonzero)),
                lcm(*(x.denominator for x in nonzero)),
            )
        v = min(self.valuation(x) for x in nonzero)
        return Fraction(self.prime) ** v


class Matrix:
    """Immutable dense rational matrix: entry (i, j) is ints[i][j] / den.

    ints is a tuple of integer rows and den a positive integer with
    gcd(den, every entry) = 1.  That form is canonical, so equal
    matrices have equal (ints, den).  Entries read back as Fractions.
    """

    __slots__ = ("rows", "cols", "ints", "den")

    def __init__(self, rows_of_entries):
        data = [
            [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
            for row in rows_of_entries
        ]
        if data and any(len(r) != len(data[0]) for r in data):
            raise DimensionMismatchError("ragged rows")
        # over s, the lcm of the reduced denominators, the form is canonical
        s = lcm(*(x.denominator for row in data for x in row))
        self._fill([[x.numerator * (s // x.denominator) for x in r] for r in data], s)

    def _fill(self, ints, den):
        ints = tuple(map(tuple, ints))
        shape = (len(ints), len(ints[0]) if ints else 0)
        for name, value in zip(self.__slots__, shape + (ints, den)):
            object.__setattr__(self, name, value)
        return self

    @staticmethod
    def _of(ints, den=1) -> "Matrix":
        """The matrix ints / den of integer rows, put in canonical form."""
        g = 1 if den == 1 else gcd(den, *(gcd(*row) for row in ints))
        g = g if den > 0 else -g
        if g != 1:
            ints = [[x // g for x in row] for row in ints]
        return object.__new__(Matrix)._fill(ints, den // g)

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    def __getitem__(self, ij):
        i, j = ij
        return Fraction(self.ints[i][j], self.den)

    def row(self, i):
        return tuple(Fraction(x, self.den) for x in self.ints[i])

    def col(self, j):
        return tuple(Fraction(r[j], self.den) for r in self.ints)

    def entries(self):
        return (Fraction(x, self.den) for row in self.ints for x in row)

    def tolists(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def __eq__(self, other):
        same = isinstance(other, Matrix) and self.den == other.den
        return same and self.ints == other.ints

    def __hash__(self):
        return hash((self.ints, self.den))

    def __repr__(self):
        return f"Matrix({[list(map(str, r)) for r in self.tolists()]})"

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix._of([[int(i == j) for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(m: int, n: int) -> "Matrix":
        return Matrix._of([[0] * n for _ in range(m)])

    @staticmethod
    def from_cols(cols) -> "Matrix":
        return Matrix(cols).transpose()

    def is_zero(self) -> bool:
        return not any(map(any, self.ints))

    def transpose(self) -> "Matrix":
        return Matrix._of(tuple(zip(*self.ints)), self.den)

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatchError("shape mismatch in +")
        s, t = self.den, other.den
        rows = zip(self.ints, other.ints)
        return Matrix._of([[x * t + y * s for x, y in zip(*ab)] for ab in rows], s * t)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + other.scale(-1)

    def scale(self, c) -> "Matrix":
        c = Fraction(c)
        return Matrix._of(
            [[c.numerator * x for x in r] for r in self.ints], self.den * c.denominator
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """(a / s) (b / t) = (a b) / (s t), a product of integer rows."""
        if self.cols != other.rows:
            raise DimensionMismatchError("shape mismatch in @")
        cols = list(zip(*other.ints))
        return Matrix._of(
            [[sum(map(mul, row, col)) for col in cols] for row in self.ints],
            self.den * other.den,
        )

    def apply(self, v):
        """Matrix times a coordinate vector, returned as a tuple."""
        if len(v) != self.cols:
            raise DimensionMismatchError("vector length mismatch")
        return (self @ Matrix([[x] for x in v])).col(0)

    def stack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise DimensionMismatchError("column mismatch in stack")
        s, t = self.den, other.den
        top = [[x * t for x in r] for r in self.ints]
        return Matrix._of(top + [[x * s for x in r] for r in other.ints], s * t)

    def submatrix(self, row_lo, row_hi, col_lo, col_hi) -> "Matrix":
        return Matrix._of(
            [r[col_lo:col_hi] for r in self.ints[row_lo:row_hi]], self.den
        )


def kronecker(a: Matrix, b: Matrix) -> Matrix:
    """Standard Kronecker product: block (i, j) equals a[i, j] * b."""
    return Matrix._of(
        [[x * y for x in ra for y in rb] for ra in a.ints for rb in b.ints],
        a.den * b.den,
    )


def vec(m: Matrix):
    """Column-major vectorization: stacked ordered columns of m."""
    return tuple(Fraction(x, m.den) for col in zip(*m.ints) for x in col)


def unvec(v, n: int) -> Matrix:
    if len(v) != n * n:
        raise DimensionMismatchError("vector is not n^2 long")
    return Matrix([[v[n * j + i] for j in range(n)] for i in range(n)])


# --- the integer elimination kernel ----------------------------------------


def _echelon(a, n_cols):
    """Fraction-free Gauss-Jordan elimination of integer rows, in place,
    pivoting only in the first n_cols columns.

    Returns (pivot_cols, d, sign).  Afterwards a = d * RREF of the input
    with its rows swapped, and sign is the sign of those swaps; the
    columns from n_cols on (right-hand sides) are carried along.  d is
    the determinant of the pivot submatrix of the swapped input, so
    every division below is exact (Bareiss 1968; Cohen, GTM 138, 2.2).
    Rows are replaced, never changed, so a may hold tuples.
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


def _with_identity(ints):
    """The integer rows [ints | I]."""
    m = len(ints)
    return [row + (0,) * i + (1,) + (0,) * (m - 1 - i) for i, row in enumerate(ints)]


# the Mersenne prime 2^31 - 1, small enough for _is_prime's trial
# division; a full-rank integer matrix has a lower rank mod _P only when
# _P divides every maximal minor
_P = (1 << 31) - 1


def _rank_mod_p(a, n_cols) -> int:
    """Rank over F_p, p = _P, of integer rows: Gaussian elimination on
    residues, each pivot row scaled so the pivot cancels by addition."""
    p, m = _P, len(a)
    rows = [[x % p for x in row] for row in a]
    r = 0
    for c in range(n_cols):
        pr = next((i for i in range(r, m) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = -pow(rows[r][c], -1, p)
        pivot_row = [x * inv % p for x in rows[r]]
        for i in range(r + 1, m):
            f = rows[i][c]
            if f:
                rows[i] = [(x + f * y) % p for x, y in zip(rows[i], pivot_row)]
        r += 1
    return r


def rank(m: Matrix) -> int:
    """Exact rank over Q.

    Rank mod p never exceeds rank over Q, so a full rank, min(rows,
    cols), modulo the prime _P proves itself; any lower modular rank
    falls back to the exact elimination.
    """
    full = min(m.rows, m.cols)
    if _rank_mod_p(m.ints, m.cols) == full:
        return full
    return len(_echelon(list(m.ints), m.cols)[0])


def solve_columns(m: Matrix, vs) -> list:
    """For each v in vs, the unique solution x of m @ x = v, or None if
    inconsistent, from one elimination of [m | v_1 ... v_k].

    A consistent v requires m to have full column rank (the only case
    this package needs).
    """
    if any(len(v) != m.rows for v in vs):
        raise DimensionMismatchError("rhs length mismatch")
    n = m.cols
    b = Matrix.from_cols(vs)
    # with m = a / s and b = c / t, m x = b means a x = (s / t) c
    a = [row + rhs for row, rhs in zip(m.ints, b.ints)]
    piv_cols, d, _ = _echelon(a, n)
    r = len(piv_cols)
    out = []
    for j in range(n, n + len(vs)):
        if any(row[j] for row in a[r:]):
            out.append(None)  # a zero row of m meets a nonzero entry of v
        elif r < n:
            raise ColumnRankDeficientError("matrix does not have full column rank")
        else:
            out.append(tuple(Fraction(row[j] * m.den, d * b.den) for row in a[:n]))
    return out


def solve(m: Matrix, v):
    """solve_columns for the one right-hand side v."""
    return solve_columns(m, [v])[0]


def pivot_rows(m: Matrix) -> list:
    """Indices of the rows of m not spanned by the rows before them, in
    order, from one elimination of the transpose of m."""
    return _echelon(list(zip(*m.ints)), m.rows)[0]


def determinant(m: Matrix) -> Fraction:
    """Exact determinant: sign * d / den^n from the elimination of ints."""
    if m.rows != m.cols:
        raise DimensionMismatchError("determinant of a non-square matrix")
    piv_cols, d, sign = _echelon(list(m.ints), m.cols)
    if len(piv_cols) < m.rows:
        return Fraction(0)
    return Fraction(sign * d, m.den**m.rows)


def det_inverse(m: Matrix):
    """Exact determinant and inverse; raises Singular when det = 0.

    With m = a / s, one elimination of [a | I] ends at d * [I | a^-1],
    and m^-1 = s a^-1.
    """
    if m.rows != m.cols:
        raise DimensionMismatchError("determinant of a non-square matrix")
    n = m.rows
    a = _with_identity(m.ints)
    piv_cols, d, sign = _echelon(a, n)
    if len(piv_cols) < n:
        raise SingularError("matrix is singular")
    inverse = Matrix._of([[m.den * x for x in row[n:]] for row in a], d)
    return Fraction(sign * d, m.den**n), inverse


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
        a = _with_identity(self.matrix.scale(1 / self.content).ints)
        n = self.matrix.cols
        _hnf_int(a, n)
        return Matrix._of([row[n:] for row in a])

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
    """Row HNF of a list of integer rows in place, pivoting
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
    # the content of the entries is the content of their gcd over den
    d = ring.content([Fraction(gcd(*(gcd(*row) for row in m.ints)), m.den)])
    # over a local ring m / d can keep a unit denominator; the integer
    # HNF runs on its integer rows and D is divided by it again
    scaled = m.scale(1 / d)
    a = list(scaled.ints)
    r = _hnf_int(a, m.cols)
    if r < m.cols:
        raise ColumnRankDeficientError(f"rank {r} < {m.cols} columns")
    d_mat = Matrix._of(a[: m.cols], scaled.den)
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
