"""Associated orders: basis computation, membership, verification."""

import itertools
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopforder import linalg
from hopforder.action import ActionReport, ActionTable, build_bundle, verify_action
from hopforder.induction import induce_action
from hopforder.linalg import (
    CoefficientRing,
    ColumnRankDeficientError,
    LatticeBasis,
    Matrix,
    determinant,
    lattice_equal,
)
from hopforder.order import (
    OrderBasis,
    OrderReport,
    associated_order,
    order_membership,
    order_membership_by_lattice,
    verify_order,
)

from conftest import FIELD_FIXTURES, bundle_for, load
from order_oracle import verify_order_oracle

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


def test_verify_order_eliminates_once_and_inverts_one_minor(monkeypatch):
    # degree 6: one elimination of the 6 x 36 transpose of M picks the
    # pivot rows, one of [M_R | I] inverts them, and no target is solved for
    left, right = load("cubic_eisenstein_alt"), load("quadratic_i_local3")
    ob = induce_action(left.hopf, right.hopf, left.ring).order
    eliminations, solves = [], []
    real_echelon, real_solve = linalg._echelon, linalg.solve_columns

    def counting_echelon(a, n_cols):
        eliminations.append((len(a), n_cols))
        return real_echelon(a, n_cols)

    def counting_solve(m, vs):
        solves.append(len(vs))
        return real_solve(m, vs)

    monkeypatch.setattr(linalg, "_echelon", counting_echelon)
    monkeypatch.setattr(linalg, "solve_columns", counting_solve)
    rep = verify_order(ob)
    assert rep.integral_action and rep.contains_one and rep.ring_closed
    assert eliminations == [(6, 36), (6, 6)]
    assert solves == []


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


# --- verify_order against the order-level oracle ---------------------------

ALL_TRUE = OrderReport(integral_action=True, contains_one=True, ring_closed=True)


@pytest.mark.parametrize("name", FIELD_FIXTURES)
def test_verify_order_matches_the_oracle_on_fixtures(name):
    ob = associated_order(bundle_for(name))
    assert verify_order(ob) == verify_order_oracle(ob) == ALL_TRUE


@pytest.mark.parametrize(
    "left_name,right_name", itertools.product(FIELD_FIXTURES, repeat=2)
)
def test_verify_order_matches_the_oracle_on_induced_pairs(left_name, right_name):
    left, right = load(left_name), load(right_name)
    ob = induce_action(left.hopf, right.hopf, left.ring).order
    assert verify_order(ob) == verify_order_oracle(ob)


def test_verify_order_matches_the_oracle_at_degrees_6_and_12():
    base, quad = load("cubic_eisenstein_alt"), load("quadratic_i_local3")
    table = base.hopf
    for degree in (6, 12):
        setup = induce_action(table, quad.hopf, base.ring)
        table = setup.bundle.table
        assert table.dim == degree
        assert verify_order(setup.order) == verify_order_oracle(setup.order)
        assert verify_order(setup.order) == ALL_TRUE


def rebased(table, a):
    """The same action in the Hopf basis w'_i = sum_k a[k][i] w_k."""
    n = table.dim
    entries = [
        [
            [sum(a[k][i] * table.entries[k][j][l] for k in range(n)) for l in range(n)]
            for j in range(n)
        ]
        for i in range(n)
    ]
    return ActionTable(hopf_labels=table.hopf_labels, field=table.field, entries=entries)


@st.composite
def hopf_base_changes(draw):
    """A fixture name and a unimodular n x n integer matrix: a signed
    row permutation of a unit lower times a unit upper triangular one."""
    name = draw(st.sampled_from(FIELD_FIXTURES))
    n = load(name).hopf.dim
    entry = st.integers(-2, 2)
    lower = [[1 if i == j else draw(entry) if j < i else 0 for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else draw(entry) if j > i else 0 for j in range(n)] for i in range(n)]
    lu = (Matrix(lower) @ Matrix(upper)).ints
    perm = draw(st.permutations(range(n)))
    signs = [draw(st.sampled_from((-1, 1))) for _ in range(n)]
    return name, [[s * x for x in lu[p]] for s, p in zip(signs, perm)]


@settings(max_examples=60, deadline=None)
@given(hopf_base_changes())
def test_verify_order_matches_the_oracle_after_a_hopf_base_change(change):
    name, a = change
    assert determinant(Matrix(a)) in (1, -1)
    doc = load(name)
    ob = associated_order(build_bundle(rebased(doc.hopf, a), doc.ring))
    assert verify_order(ob) == verify_order_oracle(ob) == ALL_TRUE


def unit_matrix(n, i, j):
    return Matrix([[int((r, c) == (i, j)) for c in range(n)] for r in range(n)])


def with_representations(name, reps):
    """The field of fixture `name` with the Hopf action rho(w_i) = reps[i]."""
    doc = load(name)
    n = doc.hopf.dim
    entries = [[m.col(j) for j in range(n)] for m in reps]
    table = ActionTable(
        hopf_labels=[f"w{i}" for i in range(n)], field=doc.field, entries=entries
    )
    return build_bundle(table, doc.ring)


# rho(H) = span{E12, E21} misses id and E12 E21 = E11; span{I, E12, E21}
# holds id but not E11
FALSE_VERDICTS = [
    (
        "quadratic_i_local3",
        [unit_matrix(2, 0, 1), unit_matrix(2, 1, 0)],
        OrderReport(integral_action=True, contains_one=False, ring_closed=False),
    ),
] + [
    (
        name,
        [Matrix.identity(3), unit_matrix(3, 0, 1), unit_matrix(3, 1, 0)],
        OrderReport(integral_action=True, contains_one=True, ring_closed=False),
    )
    for name in ("cubic_eisenstein", "cubic_eisenstein_alt")
]


@pytest.mark.parametrize("name,reps,expected", FALSE_VERDICTS)
def test_false_order_verdicts_on_both_routes(name, reps, expected):
    bundle = with_representations(name, reps)
    assert verify_action(bundle) == ActionReport(rank_ok=True, j_bijective=True)
    ob = associated_order(bundle)
    assert verify_order(ob) == verify_order_oracle(ob) == expected


def test_verify_order_refuses_an_unfaithful_action():
    # rho(w_0) = rho(w_1) = id: M has rank 1, so hnf refuses it and a
    # hand-built order basis is refused by both routes
    bundle = with_representations("quadratic", [Matrix.identity(2)] * 2)
    assert not verify_action(bundle).rank_ok
    with pytest.raises(ColumnRankDeficientError):
        associated_order(bundle)
    ob = OrderBasis(bundle=bundle, basis_in_w=Matrix.identity(2), hnf_result=None)
    for route in (verify_order, verify_order_oracle):
        with pytest.raises(ColumnRankDeficientError):
            route(ob)


def test_verify_order_reads_a_hand_built_basis_only_for_integral_action():
    # 3 times the order basis spans 3A, closed under products but without
    # 1: the oracle tests that lattice, verify_order the order A
    ob = associated_order(bundle_for("cubic_eisenstein"))
    sub = replace(ob, basis_in_w=ob.basis_in_w.scale(3))
    assert verify_order(sub) == ALL_TRUE
    assert verify_order_oracle(sub) == OrderReport(
        integral_action=True, contains_one=False, ring_closed=True
    )
