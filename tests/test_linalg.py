"""Exact linear algebra: HNF, determinants, Kronecker products, lattices."""

import itertools
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopforder import linalg
from hopforder.linalg import (
    CoefficientRing,
    ColumnRankDeficientError,
    DimensionMismatchError,
    LatticeBasis,
    Matrix,
    SingularError,
    ZeroMatrixError,
    _echelon,
    _is_prime,
    det_inverse,
    determinant,
    hnf,
    kronecker,
    lattice_contains,
    lattice_equal,
    pivot_rows,
    rank,
    solve,
    solve_columns,
    unvec,
    vec,
)

Z = CoefficientRing.integers()
Z3 = CoefficientRing.localized_at(3)


# --- coefficient rings ---------------------------------------------------


def test_ring_constructors_reject_bad_input():
    with pytest.raises(ValueError):
        CoefficientRing.localized_at(4)
    with pytest.raises(ValueError):
        CoefficientRing("local", None)
    with pytest.raises(ValueError):
        CoefficientRing("weird")


def test_integrality_and_units_over_z():
    assert Z.is_integral(5) and Z.is_integral(Fraction(-7))
    assert not Z.is_integral(Fraction(1, 2))
    assert Z.is_unit(1) and Z.is_unit(-1)
    assert not Z.is_unit(2) and not Z.is_unit(0)


def test_integrality_and_units_localized():
    assert Z3.is_integral(Fraction(1, 2))
    assert not Z3.is_integral(Fraction(1, 3))
    assert Z3.is_unit(Fraction(2, 5))
    assert not Z3.is_unit(Fraction(3)) and not Z3.is_unit(0)
    assert Z3.valuation(Fraction(18)) == 2
    assert Z3.valuation(Fraction(2, 9)) == -2


def test_content_over_z_is_gcd_over_lcm():
    assert Z.content([4, 6, 10]) == 2
    assert Z.content([Fraction(1, 2), Fraction(3, 4)]) == Fraction(1, 4)


def test_content_localized_is_p_power():
    assert Z3.content([6, 9]) == 3
    assert Z3.content([Fraction(2, 3), 6]) == Fraction(1, 3)
    with pytest.raises(ZeroMatrixError):
        Z3.content([0, 0])


# --- matrices ------------------------------------------------------------


def test_matrix_basic_ops():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[0, 1], [1, 0]])
    assert (a @ b) == Matrix([[2, 1], [4, 3]])
    assert (a + b) - b == a
    assert a.scale(2) == Matrix([[2, 4], [6, 8]])
    assert a.transpose() == Matrix([[1, 3], [2, 4]])
    assert a.apply((1, 0)) == (1, 3)
    assert Matrix.from_cols([(1, 3), (2, 4)]) == a


def test_matrix_shape_errors():
    with pytest.raises(DimensionMismatchError):
        Matrix([[1, 2], [3]])
    with pytest.raises(DimensionMismatchError):
        Matrix([[1]]) @ Matrix([[1, 2], [3, 4]])


def test_vec_is_column_major():
    m = Matrix([[1, 2], [3, 4]])
    assert vec(m) == (1, 3, 2, 4)
    assert unvec(vec(m), 2) == m


def test_kronecker_small():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[0, 1], [1, 0]])
    k = kronecker(a, b)
    assert k.rows == 4 and k.cols == 4
    assert k == Matrix(
        [[0, 1, 0, 2], [1, 0, 2, 0], [0, 3, 0, 4], [3, 0, 4, 0]]
    )


def test_kronecker_mixed_product_identity():
    a = Matrix([[1, 2], [0, 1]])
    b = Matrix([[2, 1], [1, 1]])
    c = Matrix([[1, 1], [1, 2]])
    d = Matrix([[0, 1], [1, 3]])
    assert kronecker(a @ c, b @ d) == kronecker(a, b) @ kronecker(c, d)


# --- rank / solve / determinant ------------------------------------------


def test_rank_and_solve():
    m = Matrix([[1, 2], [2, 4], [0, 1]])
    assert rank(m) == 2
    assert solve(m, (5, 10, 2)) == (1, 2)
    assert solve(m, (1, 0, 0)) is None
    assert solve_columns(m, [(1, 0, 0), (5, 10, 2)]) == [None, (1, 2)]
    assert solve_columns(m, []) == []
    with pytest.raises(ColumnRankDeficientError):
        solve(Matrix([[1, 2], [2, 4]]), (1, 2))
    with pytest.raises(DimensionMismatchError):
        solve_columns(m, [(5, 10, 2), (1, 2)])


def test_pivot_rows_skip_rows_spanned_by_earlier_ones():
    m = Matrix([[0, 0], [1, 2], [2, 4], [Fraction(1, 3), 0], [1, 1]])
    assert pivot_rows(m) == [1, 3]
    assert pivot_rows(Matrix.identity(2)) == [0, 1]
    assert pivot_rows(Matrix.zero(3, 2)) == []


def test_rank_falls_back_to_exact_elimination(monkeypatch):
    assert _is_prime(linalg._P)
    eliminations = []
    real = linalg._echelon

    def counting(a, n_cols):
        eliminations.append(n_cols)
        return real(a, n_cols)

    monkeypatch.setattr(linalg, "_echelon", counting)
    # rank 2 over Q but 1 mod p: only the exact elimination finds 2
    m = Matrix([[linalg._P, 0], [0, 1]])
    assert linalg._rank_mod_p(m.ints, m.cols) == 1
    assert rank(m) == 2
    assert eliminations == [2]
    eliminations.clear()
    assert rank(Matrix([[1, 2], [3, 4]])) == 2
    assert eliminations == []
    assert rank(Matrix([])) == 0
    assert rank(Matrix([[0, 0, 0]])) == 0
    assert rank(Matrix([[1, 2], [2, 4]])) == 1


def test_determinant_known_values():
    assert determinant(Matrix([[1, 2], [3, 4]])) == -2
    assert determinant(Matrix([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])) == Fraction(1, 6)
    assert determinant(Matrix([[1, 2], [2, 4]])) == 0
    assert determinant(Matrix([[0, 1], [1, 0]])) == -1


def test_det_inverse_matches_adjugate_oracle():
    m = Matrix([[2, 1, 0], [1, 3, 1], [0, 1, 2]])
    d, inv = det_inverse(m)
    # independent oracle: cofactor expansion adjugate
    n = 3

    def minor(i, j):
        rows = [
            [m[a, b] for b in range(n) if b != j] for a in range(n) if a != i
        ]
        return determinant(Matrix(rows))

    adj = Matrix(
        [[(-1) ** (i + j) * minor(j, i) / d for j in range(n)] for i in range(n)]
    )
    assert inv == adj
    assert m @ inv == Matrix.identity(3)


def test_det_inverse_singular():
    with pytest.raises(SingularError):
        det_inverse(Matrix([[1, 2], [2, 4]]))


# --- Hermite normal form -------------------------------------------------


def test_hnf_quadratic_example():
    m = Matrix([[1, 1], [0, 0], [0, 0], [1, -1]])
    res = hnf(m, Z)
    assert res.D == Matrix([[1, 1], [0, 2]])
    assert res.content == 1
    # U is unimodular and transforms m/d into [D; 0]
    assert determinant(res.U) in (1, -1)
    assert res.U @ m == res.D.stack(Matrix.zero(2, 2))


def test_hnf_content_extraction():
    m = Matrix([[2, 4], [0, 6]])
    res = hnf(m, Z)
    assert res.content == 2
    assert res.D == Matrix([[1, 2], [0, 3]])


def test_hnf_errors():
    with pytest.raises(ZeroMatrixError):
        hnf(Matrix.zero(2, 2), Z)
    with pytest.raises(ColumnRankDeficientError):
        hnf(Matrix([[1, 2], [2, 4]]), Z)


def test_hnf_local_content_and_unit_denominators():
    m = Matrix([[Fraction(3, 2), 3], [0, 9]])
    res = hnf(m, Z3)
    assert res.content == 3
    # D integral with unit content over Z_(3)
    assert all(Z3.is_integral(x) for x in res.D.entries())


def test_local_normal_form_has_p_power_pivots():
    m = Matrix([[2, 0], [0, 6]])
    res = hnf(m, Z3)
    lnf = res.local_normal_form()
    for i in range(2):
        piv = lnf[i, i]
        assert piv == Fraction(3) ** Z3.valuation(piv)
    # rows still span the same lattice as D's rows
    rows_d = LatticeBasis(2, res.D.transpose(), Z3)
    rows_l = LatticeBasis(2, lnf.transpose(), Z3)
    assert lattice_equal(rows_d, rows_l)


def test_local_normal_form_requires_local_ring():
    res = hnf(Matrix([[1, 0], [0, 2]]), Z)
    with pytest.raises(ValueError):
        res.local_normal_form()


# --- lattices ------------------------------------------------------------


def test_lattice_membership_and_equality():
    basis = Matrix([[1, Fraction(-1, 2)], [0, Fraction(1, 2)]])
    lat = LatticeBasis(2, basis, Z)
    assert lattice_contains(lat, (1, 0))
    assert lattice_contains(lat, (Fraction(-1, 2), Fraction(1, 2)))
    assert not lattice_contains(lat, (Fraction(1, 3), 0))
    other = LatticeBasis(
        2, Matrix([[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(-1, 2)]]), Z
    )
    assert lattice_equal(lat, other)


def test_lattice_equal_eliminates_once_per_side(monkeypatch):
    # one elimination of [basis | other's columns] per side, not one per column
    from hopforder import linalg

    basis = Matrix([[1, 0, 0, 0], [0, 3, 0, 0], [0, 0, Fraction(1, 2), 0], [0, 0, 0, 9]])
    change = Matrix([[1, 2, 0, -1], [0, 1, 5, 0], [0, 0, 1, 3], [0, 0, 0, 1]])
    lat = LatticeBasis(4, basis, Z)
    same = LatticeBasis(4, basis @ change, Z)
    finer = LatticeBasis(4, basis @ Matrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 3]]), Z)
    eliminations = []
    real = linalg._echelon

    def counting(a, n_cols):
        eliminations.append(n_cols)
        return real(a, n_cols)

    monkeypatch.setattr(linalg, "_echelon", counting)
    assert lattice_equal(lat, same)
    assert eliminations == [4, 4]
    eliminations.clear()
    # lat is not inside the sublattice `finer`, which ends the test after one side
    assert not lattice_equal(lat, finer)
    assert eliminations == [4]


def test_lattice_rejects_dependent_basis():
    with pytest.raises(ColumnRankDeficientError):
        LatticeBasis(2, Matrix([[1, 2], [2, 4]]), Z)


# --- property tests ------------------------------------------------------

entry = st.integers(min_value=-20, max_value=20)


def matrices(rows, cols):
    return st.lists(
        st.lists(entry, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    ).map(Matrix)


def full_rank_3x2():
    return matrices(3, 2).filter(lambda m: rank(m) == 2 and not m.is_zero())


@settings(max_examples=100, deadline=None)
@given(full_rank_3x2())
def test_hnf_round_trip_property(m):
    res = hnf(m, Z)
    assert res.U @ m.scale(1 / res.content) == res.D.stack(
        Matrix.zero(res.zero_rows, m.cols)
    )
    assert determinant(res.U) in (1, -1)


@settings(max_examples=100, deadline=None)
@given(full_rank_3x2())
def test_hnf_idempotence_property(m):
    d1 = hnf(m, Z).D
    res2 = hnf(d1, Z)
    assert res2.content == 1
    assert res2.D == d1


@settings(max_examples=100, deadline=None)
@given(matrices(2, 2).filter(lambda m: determinant(m) != 0))
def test_det_inverse_property(m):
    d, inv = det_inverse(m)
    assert d == determinant(m)
    assert m @ inv == Matrix.identity(2)


@settings(max_examples=100, deadline=None)
@given(matrices(2, 2), matrices(2, 2))
def test_kronecker_det_property(a, b):
    assert determinant(kronecker(a, b)) == determinant(a) ** 2 * determinant(b) ** 2


# --- property tests with rational entries --------------------------------
#
# Denominators exercise the clearing of denominators, and low-rank
# products exercise the singular and rank-deficient paths; every expected
# value comes from an oracle that does not eliminate.

rational = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


def rational_grid(rows, cols):
    return st.lists(
        st.lists(rational, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    ).map(Matrix)


@st.composite
def rational_matrices(draw, rows, cols):
    """Rational matrices of every rank up to min(rows, cols): products of
    rows x k and k x cols factors, with k = 0 the zero matrix."""
    k = draw(st.integers(min_value=0, max_value=min(rows, cols)))
    if k == 0:
        return Matrix.zero(rows, cols)
    return draw(rational_grid(rows, k)) @ draw(rational_grid(k, cols))


def leibniz_det(m):
    n = m.rows
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction((-1) ** inversions)
        for i in range(n):
            term *= m[i, perm[i]]
        total += term
    return total


def minor_rank(m):
    """Size of the largest nonzero minor."""
    for k in range(min(m.rows, m.cols), 0, -1):
        for rs in itertools.combinations(range(m.rows), k):
            for cs in itertools.combinations(range(m.cols), k):
                if leibniz_det(Matrix([[m[i, j] for j in cs] for i in rs])) != 0:
                    return k
    return 0


@settings(max_examples=100, deadline=None)
@given(rational_matrices(4, 4))
def test_determinant_rational_property(m):
    assert determinant(m) == leibniz_det(m)


@settings(max_examples=100, deadline=None)
@given(rational_matrices(3, 3))
def test_det_inverse_rational_property(m):
    expected = leibniz_det(m)
    if expected == 0:
        with pytest.raises(SingularError):
            det_inverse(m)
        return
    d, inv = det_inverse(m)
    assert d == expected
    assert m @ inv == Matrix.identity(3)
    assert inv @ m == Matrix.identity(3)


@settings(max_examples=100, deadline=None)
@given(
    rational_matrices(3, 2),
    st.lists(rational, min_size=2, max_size=2).map(tuple),
    rational.filter(lambda t: t != 0),
)
def test_solve_rational_property(m, x, t):
    # the cross product of the two columns is normal to the column space,
    # and it is zero exactly when the columns are dependent
    (a1, a2, a3), (b1, b2, b3) = m.col(0), m.col(1)
    normal = (a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1)
    v = m.apply(x)
    if not any(normal):
        with pytest.raises(ColumnRankDeficientError):
            solve(m, v)
        return
    assert solve(m, v) == x
    assert m.apply(solve(m, v)) == v
    off_span = tuple(c + t * e for c, e in zip(v, normal))
    assert solve(m, off_span) is None


@settings(max_examples=100, deadline=None)
@given(
    rational_matrices(3, 2),
    st.lists(
        st.tuples(
            st.lists(rational, min_size=2, max_size=2).map(tuple),
            st.one_of(st.just(Fraction(0)), rational),
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_solve_columns_rational_property(m, columns):
    # column k is m @ x_k moved off the span by t_k times the cross
    # product of m's columns, so it is consistent exactly when t_k = 0
    (a1, a2, a3), (b1, b2, b3) = m.col(0), m.col(1)
    normal = (a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1)
    vs = [
        tuple(c + t * e for c, e in zip(m.apply(x), normal)) for x, t in columns
    ]
    if not any(normal):
        with pytest.raises(ColumnRankDeficientError):
            solve_columns(m, vs)
        return
    assert solve_columns(m, vs) == [x if t == 0 else None for x, t in columns]
    assert solve_columns(m, vs) == [solve(m, v) for v in vs]


@settings(max_examples=100, deadline=None)
@given(rational_matrices(3, 4))
def test_rank_rational_property(m):
    assert rank(m) == rank(m.transpose()) == minor_rank(m)


@st.composite
def rational_matrices_with_prime_rows(draw):
    """rational_matrices of 1 to 4 rows and columns with some rows
    multiplied by the kernel's prime.  Such a row vanishes mod p, so a
    draw can have a lower rank mod p than over Q, which only the exact
    elimination corrects."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    m = draw(rational_matrices(rows, cols))
    times_p = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
    return Matrix(
        [[x * linalg._P if t else x for x in row] for row, t in zip(m.tolists(), times_p)]
    )


@settings(max_examples=200, deadline=None)
@given(rational_matrices_with_prime_rows())
def test_rank_matches_exact_elimination_property(m):
    assert rank(m) == len(_echelon(list(m.ints), m.cols)[0])


@settings(max_examples=100, deadline=None)
@given(rational_matrices(3, 2), st.sampled_from([Z, Z3]))
def test_hnf_rational_round_trip_property(m, ring):
    if minor_rank(m) < 2:
        with pytest.raises((ColumnRankDeficientError, ZeroMatrixError)):
            hnf(m, ring)
        return
    res = hnf(m, ring)
    assert res.U @ m.scale(1 / res.content) == res.D.stack(Matrix.zero(1, 2))
    assert determinant(res.U) in (1, -1)


# --- the stored form -------------------------------------------------------


def assert_canonical(m):
    """den > 0, gcd(den, entries) = 1, and the same entries stored again
    give an equal matrix with an equal hash."""
    assert m.den > 0
    assert gcd(m.den, *itertools.chain.from_iterable(m.ints)) == 1
    again = Matrix(m.tolists())
    assert (again.ints, again.den) == (m.ints, m.den)
    assert again == m and hash(again) == hash(m)


@settings(max_examples=100, deadline=None)
@given(rational_grid(3, 3), rational_grid(2, 3), rational)
def test_every_construction_is_canonical(a, b, c):
    built = [
        a,
        Matrix.from_cols(a.tolists()),
        b @ a,
        a.scale(c),
        a.scale(-c),
        a.scale(-1 - c),
        kronecker(b, a),
        a.submatrix(1, 3, 0, 2),
        b.transpose(),
        a + a.scale(c),
        a - a,
        b.stack(a),
        unvec(vec(a), 3),
    ]
    if determinant(a) != 0:
        _, inv = det_inverse(a)
        assert a @ inv == Matrix.identity(3)
        built += [inv, det_inverse(a.scale(-1))[1]]
    for m in built:
        assert_canonical(m)


@settings(max_examples=100, deadline=None)
@given(rational_grid(2, 3), st.integers(-6, 6).filter(bool))
def test_equal_entries_make_equal_matrices(m, c):
    # the same entries reached by other routes, or given as ints or strings
    routes = [
        m.scale(c).scale(Fraction(1, c)),
        m.transpose().transpose(),
        Matrix.identity(2) @ m,
        Matrix([[str(x) for x in row] for row in m.tolists()]),
        Matrix([[int(x) if x.denominator == 1 else x for x in r] for r in m.tolists()]),
    ]
    for other in routes:
        assert other == m and hash(other) == hash(m)
        assert (other.ints, other.den) == (m.ints, m.den)
