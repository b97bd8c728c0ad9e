"""Associated orders: basis computation, membership, verification."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopforder import linalg
from hopforder.induction import induce_action
from hopforder.linalg import (
    CoefficientRing,
    LatticeBasis,
    Matrix,
    determinant,
    lattice_equal,
)
from hopforder.order import (
    associated_order,
    order_membership,
    order_membership_by_lattice,
    verify_order,
)

from conftest import bundle_for, load

Z = CoefficientRing.integers()
Z3 = CoefficientRing.localized_at(3)


def test_quadratic_order_basis():
    ob = associated_order(bundle_for("quadratic"))
    assert ob.hnf_result.D == Matrix([[1, 1], [0, 2]])
    assert ob.hnf_result.content == 1
    # canonical basis {1, (-1 + s)/2}
    assert ob.basis_in_w == Matrix([[1, Fraction(-1, 2)], [0, Fraction(1, 2)]])


def test_action_table_is_computed_on_first_read():
    ob = associated_order(bundle_for("cubic_eisenstein"))
    assert "action_table" not in vars(ob)
    table = ob.action_table
    assert vars(ob)["action_table"] is table
    assert "action_table" not in vars(ob.with_basis(ob.basis_in_w))


def test_hnf_transform_is_built_on_first_read():
    ob = associated_order(bundle_for("cubic_eisenstein"))
    res = ob.hnf_result
    assert "U" not in vars(res)
    u = res.U
    assert vars(res)["U"] is u
    assert u @ ob.bundle.M.scale(1 / res.content) == res.D.stack(
        Matrix.zero(res.zero_rows, 3)
    )
    assert determinant(u) in (1, -1)


def test_verify_order_eliminates_twice(monkeypatch):
    # degree 6: one elimination of M for the unit and all 36 products,
    # and one of the order basis for their membership, not one per target
    left, right = load("cubic_eisenstein_alt"), load("quadratic_i_local3")
    ob = induce_action(left.hopf, right.hopf, left.ring).order
    eliminations = []
    real = linalg._echelon

    def counting(a, n_cols):
        eliminations.append(n_cols)
        return real(a, n_cols)

    monkeypatch.setattr(linalg, "_echelon", counting)
    rep = verify_order(ob)
    assert rep.integral_action and rep.contains_one and rep.ring_closed
    assert eliminations == [6, 6]


def test_quadratic_idempotent_basis_is_same_lattice():
    ob = associated_order(bundle_for("quadratic"))
    half = Fraction(1, 2)
    idem = Matrix([[half, half], [half, -half]])
    assert lattice_equal(ob.lattice(), LatticeBasis(2, idem, Z))
    ob2 = ob.with_basis(idem)
    assert ob2.basis_in_w == idem
    # orthogonal idempotents act as projections onto 1 and z
    assert ob2.action_table[0][0] == (1, 0) and ob2.action_table[0][1] == (0, 0)
    assert ob2.action_table[1][0] == (0, 0) and ob2.action_table[1][1] == (0, 1)


def test_with_basis_rejects_different_lattice():
    ob = associated_order(bundle_for("quadratic"))
    with pytest.raises(ValueError):
        ob.with_basis(Matrix.identity(2))


def test_cubic_order_basis_and_diagonal_action():
    ob = associated_order(bundle_for("cubic_eisenstein"))
    assert ob.hnf_result.D == Matrix([[1, 0, 2], [0, 3, 3], [0, 0, 6]])
    third, sixth = Fraction(1, 3), Fraction(1, 6)
    reference = Matrix(
        [
            [third, 2 * sixth, 2 * sixth],
            [0, sixth, -sixth],
            [third, -sixth, -sixth],
        ]
    )
    assert lattice_equal(ob.lattice(), LatticeBasis(3, reference, Z3))
    # in the reference basis the action is by orthogonal idempotents:
    # b_i . gamma_j = delta_ij gamma_j
    ob2 = ob.with_basis(reference)
    for i in range(3):
        for j in range(3):
            expected = tuple(
                Fraction(1 if (l == j and i == j) else 0) for l in range(3)
            )
            assert ob2.action_table[i][j] == expected


def test_cubic_alt_order_basis():
    ob = associated_order(bundle_for("cubic_eisenstein_alt"))
    assert ob.hnf_result.D == Matrix([[1, 0, 2], [0, 1, 3], [0, 0, 6]])
    reference = Matrix([[1, 0, Fraction(1, 3)], [0, 1, 0], [0, 0, Fraction(1, 3)]])
    assert lattice_equal(ob.lattice(), LatticeBasis(3, reference, Z3))


def test_trivial_order_is_unit_lattice():
    ob = associated_order(bundle_for("trivial"))
    assert ob.basis_in_w == Matrix([[1]])


def test_verify_order_all_true_on_fixtures():
    for name in ("quadratic", "cubic_eisenstein", "cubic_eisenstein_alt", "trivial"):
        rep = verify_order(associated_order(bundle_for(name)))
        assert rep.integral_action and rep.contains_one and rep.ring_closed, name


def test_membership_matches_lattice_route_on_known_points():
    ob = associated_order(bundle_for("cubic_eisenstein"))
    third, sixth = Fraction(1, 3), Fraction(1, 6)
    inside = [
        (third, 0, third),
        (2 * sixth, sixth, -sixth),
        (1, 0, 1),
        (0, 0, 0),
    ]
    outside = [(third, 0, 0), (0, 0, third), (sixth, 0, 0)]
    for h in inside:
        assert order_membership(ob, h) and order_membership_by_lattice(ob, h)
    for h in outside:
        assert not order_membership(ob, h)
        assert not order_membership_by_lattice(ob, h)


# --- property tests ------------------------------------------------------

coord = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


@settings(max_examples=200, deadline=None)
@given(st.tuples(coord, coord, coord))
def test_membership_two_routes_agree(h):
    ob = associated_order(bundle_for("cubic_eisenstein_alt"))
    assert order_membership(ob, h) == order_membership_by_lattice(ob, h)


# every 2x2 matrix with entries in [-3, 3] and det +-1
UNIMODULAR = [
    m
    for m in (
        Matrix([[a, b], [c, d]])
        for a, b, c, d in itertools.product(range(-3, 4), repeat=4)
    )
    if determinant(m) in (1, -1)
]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(UNIMODULAR))
def test_unimodular_change_of_basis_keeps_the_lattice(u):
    ob = associated_order(bundle_for("quadratic"))
    changed = ob.basis_in_w @ u
    assert lattice_equal(ob.lattice(), LatticeBasis(2, changed, Z))
    ob2 = ob.with_basis(changed)
    assert lattice_equal(ob.lattice(), ob2.lattice())
