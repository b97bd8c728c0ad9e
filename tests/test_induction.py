"""Tensor induction of actions and the product behavior of orders."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopforder.action import (
    ActionReport,
    ValidationError,
    mult_matrix,
    rep_matrix_basis,
    verify_action,
)
from hopforder.documents import parse_document
from hopforder.induction import (
    NotArithmeticallyDisjointError,
    are_arithmetically_disjoint,
    base_change_order,
    induce_action,
    permute_rows,
    product_field,
    tensor_order_lattice,
    tracy_singh_permutation,
    verify_induced_generator,
    verify_kronecker_theorem,
    verify_tensor_order,
)
from hopforder.linalg import (
    CoefficientRing,
    LatticeBasis,
    Matrix,
    determinant,
    kronecker,
    lattice_equal,
    rank,
    vec,
)
from hopforder.order import associated_order

from conftest import FIELD_FIXTURES, i_over_3_document, load, one_based_cycles

Z3 = CoefficientRing.localized_at(3)


def setup_cubic_alt_with_i():
    left = load("cubic_eisenstein_alt")
    right = load("quadratic_i_local3")
    return left, right, induce_action(left.hopf, right.hopf, Z3)


def setup_cubic_with_sqrtm3():
    left = load("cubic_eisenstein")
    right = load("quadratic_sqrtm3_local3")
    return left, right, induce_action(left.hopf, right.hopf, Z3)


# --- permutation ---------------------------------------------------------


def test_tracy_singh_cycles_2x2():
    assert one_based_cycles(tracy_singh_permutation(2, 2)) == (
        (3, 5),
        (4, 6),
        (11, 13),
        (12, 14),
    )


def test_tracy_singh_cycles_3x2():
    assert one_based_cycles(tracy_singh_permutation(3, 2)) == (
        (3, 5, 9, 7),
        (4, 6, 10, 8),
        (15, 17, 21, 19),
        (16, 18, 22, 20),
        (27, 29, 33, 31),
        (28, 30, 34, 32),
    )


def test_tracy_singh_is_a_permutation():
    for r, u in ((1, 1), (2, 3), (3, 2), (2, 2)):
        dest = tracy_singh_permutation(r, u)
        assert sorted(dest) == list(range((r * u) ** 2))


def test_permute_rows_round_trip():
    m = Matrix([[1], [2], [3], [4]])
    dest = (2, 0, 3, 1)
    pm = permute_rows(m, dest)
    for i in range(4):
        assert pm.row(dest[i]) == m.row(i)


# --- product field -------------------------------------------------------


def test_product_field_is_a_valid_algebra():
    left = load("cubic_eisenstein")
    right = load("quadratic_sqrtm3_local3")
    prod = product_field(left.field, right.field)
    prod.validate()
    assert prod.dim == 6
    assert prod.one_index == 0


def test_product_field_kronecker_order():
    left = load("cubic_eisenstein")
    right = load("quadratic_i_local3")
    prod = product_field(left.field, right.field)
    # left index slow, right index fast: 1, z, a, a z, a2, a2 z
    assert prod.basis_labels == ("1*1", "1*z", "a*1", "a*z", "a2*1", "a2*z")


# --- Kronecker theorem ---------------------------------------------------


def test_kronecker_theorem_cubic_with_sqrtm3():
    _, _, setup = setup_cubic_with_sqrtm3()
    assert verify_kronecker_theorem(setup)
    lhs = permute_rows(setup.bundle.M, setup.perm)
    assert lhs == kronecker(setup.left.M, setup.right.M)


def test_kronecker_theorem_cubic_alt_with_i():
    _, _, setup = setup_cubic_alt_with_i()
    assert verify_kronecker_theorem(setup)


def test_induced_table_diagonal_row():
    # the element w2*e2 acts diagonally with entries (0,0,3,-3,-3,3)
    _, _, setup = setup_cubic_with_sqrtm3()
    row = setup.bundle.table.entries[3]
    expected_diag = (0, 0, 3, -3, -3, 3)
    for j in range(6):
        assert row[j] == tuple(
            expected_diag[j] if l == j else 0 for l in range(6)
        )


# --- the second route to j ------------------------------------------------


def j_rows(bundle):
    """The matrix of j: row a*n + i is vec(mult(gamma_a) rho(w_i))."""
    n = bundle.dim
    mults = [
        mult_matrix(bundle.table.field, [int(k == a) for k in range(n)])
        for a in range(n)
    ]
    reps = [rep_matrix_basis(bundle.table, i) for i in range(n)]
    return [vec(m @ rho) for m in mults for rho in reps]


def vec_kronecker_order(r, u):
    """For r x r A and u x u B, entry k of vec(A (x) B) is entry order[k]
    of vec(A) (x) vec(B)."""
    return [
        (s * r + p) * u * u + t * u + q
        for s in range(r)
        for t in range(u)
        for p in range(r)
        for q in range(u)
    ]


@pytest.mark.parametrize("left_name,right_name", itertools.product(FIELD_FIXTURES, repeat=2))
def test_induced_j_is_the_tensor_of_the_factor_js(left_name, right_name):
    # mult(gamma_a z_c) rho(w_i w'_j) = (mult(gamma_a) rho(w_i)) (x)
    # (mult(z_c) rho(w'_j)), so up to a fixed reordering each row of the
    # induced j is the Kronecker product of a left and a right row
    left, right = load(left_name), load(right_name)
    setup = induce_action(left.hopf, right.hopf, left.ring)
    r, u = setup.left.dim, setup.right.dim
    n = r * u
    j_left, j_right, j_induced = (
        j_rows(b) for b in (setup.left, setup.right, setup.bundle)
    )
    order = vec_kronecker_order(r, u)
    for (a, c), (i, j) in itertools.product(
        itertools.product(range(r), range(u)), repeat=2
    ):
        kron = [x * y for x in j_left[a * r + i] for y in j_right[c * u + j]]
        row = j_induced[(a * u + c) * n + i * u + j]
        assert row == tuple(kron[k] for k in order)
    ranks = [rank(Matrix(rows)) for rows in (j_left, j_right, j_induced)]
    assert ranks[2] == ranks[0] * ranks[1]
    left_rep, right_rep = verify_action(setup.left), verify_action(setup.right)
    assert verify_action(setup.bundle) == ActionReport(
        rank_ok=left_rep.rank_ok and right_rep.rank_ok,
        j_bijective=left_rep.j_bijective and right_rep.j_bijective,
    )
    assert left_rep.j_bijective == (ranks[0] == r * r)
    assert right_rep.j_bijective == (ranks[1] == u * u)


def test_trivial_right_factor_is_identity_behavior():
    left = load("cubic_eisenstein")
    triv = load("trivial")
    setup = induce_action(left.hopf, triv.hopf, Z3)
    assert setup.bundle.dim == 3
    assert setup.bundle.M == setup.left.M
    assert verify_kronecker_theorem(setup)
    lob = associated_order(setup.left)
    iob = associated_order(setup.bundle)
    assert lattice_equal(lob.lattice(), iob.lattice())


# --- arithmetic disjointness ---------------------------------------------


def test_disjointness_verdicts():
    cubic = load("cubic_eisenstein").field
    qi = load("quadratic_i_local3").field
    qs3 = load("quadratic_sqrtm3_local3").field
    assert are_arithmetically_disjoint(cubic, qi, Z3)
    assert not are_arithmetically_disjoint(cubic, qs3, Z3)


def test_disjointness_over_z():
    z = CoefficientRing.integers()
    cubic = load("cubic_eisenstein").field
    qi = load("quadratic_i_local3").field
    # disc -243 and disc -4 are coprime over Z
    assert are_arithmetically_disjoint(cubic, qi, z)
    assert not are_arithmetically_disjoint(cubic, cubic, z)


def test_disjointness_rejects_non_integral_basis():
    field = parse_document(i_over_3_document()).field
    assert field.discriminant() == Fraction(-4, 9)
    cubic = load("cubic_eisenstein").field
    for ring in (CoefficientRing.integers(), Z3):
        for pair in ((field, cubic), (cubic, field)):
            with pytest.raises(ValidationError, match="not integral"):
                are_arithmetically_disjoint(*pair, ring)


# --- what the setup computes on first read -------------------------------


def test_setup_orders_match_fresh_computation_and_are_kept():
    _, _, setup = setup_cubic_alt_with_i()
    assert setup.disjoint is True
    for name, bundle in (
        ("left_order", setup.left),
        ("right_order", setup.right),
        ("order", setup.bundle),
    ):
        ob = getattr(setup, name)
        assert ob.basis_in_w == associated_order(bundle).basis_in_w
        assert getattr(setup, name) is ob


# --- tensor order --------------------------------------------------------


def test_tensor_order_theorem_holds_when_disjoint():
    _, _, setup = setup_cubic_alt_with_i()
    assert verify_tensor_order(setup)
    iob = associated_order(setup.bundle)
    assert lattice_equal(iob.lattice(), tensor_order_lattice(setup))


def test_tensor_order_refused_when_not_disjoint():
    _, _, setup = setup_cubic_with_sqrtm3()
    with pytest.raises(NotArithmeticallyDisjointError):
        verify_tensor_order(setup)
    assert not {"left_order", "right_order", "order"} & set(vars(setup))
    # action-level claim still fine
    assert verify_kronecker_theorem(setup)


def test_induced_hnf_factors_as_kronecker():
    _, _, setup = setup_cubic_alt_with_i()
    iob = associated_order(setup.bundle)
    lob = associated_order(setup.left)
    rob = associated_order(setup.right)
    assert iob.hnf_result.D == kronecker(lob.hnf_result.D, rob.hnf_result.D)


# --- induced generators --------------------------------------------------


def test_induced_generator_alpha_times_one_plus_z():
    _, _, setup = setup_cubic_alt_with_i()
    rep = verify_induced_generator(setup, (0, 1, 0), (1, 1))
    assert rep.free
    assert rep.product_beta == (0, 0, 1, 1, 0, 0)
    assert rep.kronecker_factorization_ok
    assert rep.product_candidate.d_beta == kronecker(
        rep.left_candidate.d_beta, rep.right_candidate.d_beta
    )


def test_induced_generator_reference_bases_det():
    _, _, setup = setup_cubic_alt_with_i()
    b1 = Matrix([[1, 0, Fraction(1, 3)], [0, 1, 0], [0, 0, Fraction(1, 3)]])
    bbar = Matrix([[1, Fraction(1, 2)], [0, Fraction(1, 2)]])
    rep = verify_induced_generator(
        setup, (0, 1, 0), (1, 1), left_basis=b1, right_basis=bbar
    )
    assert rep.left_candidate.det == -2
    assert rep.right_candidate.det == -1
    assert rep.product_candidate.det == -4
    assert rep.free and rep.kronecker_factorization_ok


def test_induced_generator_needs_the_tensor_order():
    _, _, setup = setup_cubic_alt_with_i()
    # a setup whose induced order is not the tensor of the factor orders
    object.__setattr__(setup, "tensor_order_ok", False)
    with pytest.raises(ValueError, match="different lattice"):
        verify_induced_generator(setup, (0, 1, 0), (1, 1))


def test_induced_generator_refused_when_not_disjoint():
    _, _, setup = setup_cubic_with_sqrtm3()
    with pytest.raises(NotArithmeticallyDisjointError):
        verify_induced_generator(setup, (0, 1, 0), (1, 1))


# --- base change ---------------------------------------------------------


def test_base_change_order_is_product_lattice():
    _, _, setup = setup_cubic_alt_with_i()
    rep = base_change_order(setup, gamma=(0, 1, 0))
    assert rep.lattice_eq
    assert rep.gamma_free
    lob = associated_order(setup.left)
    expected = LatticeBasis(
        6, kronecker(lob.basis_in_w, Matrix.identity(2)), Z3
    )
    assert lattice_equal(rep.order.lattice(), expected)


def test_base_change_searches_gamma_when_omitted():
    _, _, setup = setup_cubic_alt_with_i()
    rep = base_change_order(setup)
    assert rep.lattice_eq and rep.gamma_free
    assert rep.gamma is not None


# --- property tests ------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5))
def test_tracy_singh_permutation_property(r, u):
    dest = tracy_singh_permutation(r, u)
    n = r * u
    assert sorted(dest) == list(range(n * n))
    # the identity block rows (b = d slices) line up with the index law
    if r > 1 and u > 1:
        assert dest[0] == 0 and dest[-1] == n * n - 1


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.lists(st.integers(-3, 3), min_size=2, max_size=2), min_size=2, max_size=2).map(Matrix),
    st.lists(st.lists(st.integers(-3, 3), min_size=2, max_size=2), min_size=2, max_size=2).map(Matrix),
)
def test_kronecker_det_exponent_law(a, b):
    # det(A (x) B) = det(A)^u det(B)^r with r = u = 2
    assert determinant(kronecker(a, b)) == determinant(a) ** 2 * determinant(b) ** 2
