"""Field presentations and Hopf action tables."""

import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopforder import linalg
from hopforder.action import (
    ActionTable,
    FieldPresentation,
    NotInImageError,
    ValidationError,
    build_bundle,
    express_endomorphism,
    mult_matrix,
    rep_matrix,
    rep_matrix_basis,
    verify_action,
)
from hopforder.induction import induce_action, product_field
from hopforder.linalg import CoefficientRing, Matrix, vec

from conftest import load

Z = CoefficientRing.integers()
Z3 = CoefficientRing.localized_at(3)


def quadratic_field(a=-1):
    return FieldPresentation(
        dim=2,
        basis_labels=("1", "z"),
        structure_constants=[[[1, 0], [0, 1]], [[0, 1], [a, 0]]],
    )


def test_field_validate_passes_for_quadratic():
    quadratic_field().validate()


def test_field_validate_rejects_noncommutative():
    f = FieldPresentation(
        dim=2,
        basis_labels=("1", "z"),
        structure_constants=[[[1, 0], [0, 1]], [[1, 1], [0, 0]]],
    )
    with pytest.raises(ValidationError, match="commutativity"):
        f.validate()


def test_field_validate_rejects_bad_unit():
    f = FieldPresentation(
        dim=2,
        basis_labels=("1", "z"),
        structure_constants=[[[2, 0], [0, 2]], [[0, 2], [1, 0]]],
    )
    with pytest.raises(ValidationError, match="unit"):
        f.validate()


def test_field_validate_rejects_nonassociative():
    # commutative with correct unit but broken associativity
    f = FieldPresentation(
        dim=3,
        basis_labels=("1", "x", "y"),
        structure_constants=[
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
            [[0, 0, 1], [1, 0, 0], [0, 0, 1]],
        ],
    )
    with pytest.raises(ValidationError, match="associativity"):
        f.validate()


def associates(f, a, b, c) -> bool:
    """(gamma_a gamma_b) gamma_c == gamma_a (gamma_b gamma_c), summed
    entry by entry from the structure constants."""
    n, sc = f.dim, f.structure_constants
    left = [sum(sc[a][b][e] * sc[e][c][l] for e in range(n)) for l in range(n)]
    right = [sum(sc[b][c][e] * sc[a][e][l] for e in range(n)) for l in range(n)]
    return left == right


def first_associativity_failure(f):
    """The reference triple loop: the first failing (a, b, c), or None."""
    triples = itertools.product(range(f.dim), repeat=3)
    return next((t for t in triples if not associates(f, *t)), None)


FIELDS = [load(name).field for name in ("quadratic", "cubic_eisenstein")] + [
    product_field(load("cubic_eisenstein").field, load("quadratic").field)
]


@st.composite
def perturbed_fields(draw):
    """A fixture's table with a few symmetric changes away from the unit
    row and column, so it stays commutative and unital."""
    f = draw(st.sampled_from(FIELDS))
    n = f.dim
    sc = [[list(row) for row in plane] for plane in f.structure_constants]
    others = [j for j in range(n) if j != f.one_index]
    for _ in range(draw(st.integers(0, 2))):
        j, k = draw(st.sampled_from(others)), draw(st.sampled_from(others))
        l = draw(st.integers(0, n - 1))
        delta = draw(st.fractions(-2, 2, max_denominator=3))
        sc[j][k][l] += delta
        if j != k:
            sc[k][j][l] += delta
    return FieldPresentation(
        dim=n,
        basis_labels=f.basis_labels,
        structure_constants=sc,
        one_index=f.one_index,
    )


@settings(max_examples=100, deadline=None)
@given(perturbed_fields())
def test_validate_matches_the_triple_loop(f):
    expected = first_associativity_failure(f)
    if expected is None:
        f.validate()
        return
    with pytest.raises(ValidationError, match="associativity fails") as exc:
        f.validate()
    named = tuple(map(int, re.search(r"\((\d+),(\d+),(\d+)\)", str(exc.value)).groups()))
    assert not associates(f, *named)
    assert named == expected


def test_multiply_and_one():
    f = quadratic_field()
    assert f.multiply((0, 1), (0, 1)) == (-1, 0)
    assert f.multiply(f.one(), (3, 4)) == (3, 4)


def test_mult_matrix_and_trace():
    f = quadratic_field()
    m = mult_matrix(f, (0, 1))
    assert m == Matrix([[0, -1], [1, 0]])
    assert f.trace((1, 0)) == 2
    assert f.trace((0, 1)) == 0


def test_discriminant_values():
    assert quadratic_field(-1).discriminant() == -4
    assert quadratic_field(-3).discriminant() == -12
    cubic = load("cubic_eisenstein")
    # disc(x^3 + 3) = -27 * 9 = -243
    assert cubic.field.discriminant() == -243


def test_action_table_shape_checked():
    f = quadratic_field()
    with pytest.raises(ValidationError):
        ActionTable(hopf_labels=("1",), field=f, entries=[[[1, 0], [0, 1]]])


def test_bundle_matrix_quadratic():
    doc = load("quadratic")
    b = build_bundle(doc.hopf, Z)
    assert b.M == Matrix([[1, 1], [0, 0], [0, 0], [1, -1]])
    assert b.blocks[0] == Matrix([[1, 1], [0, 0]])
    assert b.blocks[1] == Matrix([[0, 0], [1, -1]])


def test_bundle_columns_are_vectorized_representations():
    doc = load("cubic_eisenstein")
    b = build_bundle(doc.hopf, Z3)
    for i in range(3):
        assert b.M.col(i) == vec(rep_matrix_basis(doc.hopf, i))


def test_verify_action_true_for_fixtures():
    for name in ("quadratic", "cubic_eisenstein", "cubic_eisenstein_alt", "trivial"):
        doc = load(name)
        rep = verify_action(build_bundle(doc.hopf, doc.ring))
        assert rep.rank_ok and rep.j_bijective, name


def test_verify_action_fails_for_degenerate_table():
    f = quadratic_field()
    # both Hopf elements act identically: rank drops
    t = ActionTable(
        hopf_labels=("1", "s"),
        field=f,
        entries=[[[1, 0], [0, 1]], [[1, 0], [0, 1]]],
    )
    rep = verify_action(build_bundle(t, Z))
    assert not rep.rank_ok and not rep.j_bijective


def test_verify_action_certifies_full_rank_without_exact_elimination(monkeypatch):
    # degree 6: M and the 36 products both have full rank mod p
    left, right = load("cubic_eisenstein_alt"), load("quadratic_i_local3")
    bundle = induce_action(left.hopf, right.hopf, left.ring).bundle
    eliminations = []
    real = linalg._echelon

    def counting(a, n_cols):
        eliminations.append(n_cols)
        return real(a, n_cols)

    monkeypatch.setattr(linalg, "_echelon", counting)
    rep = verify_action(bundle)
    assert rep.rank_ok and rep.j_bijective
    assert eliminations == []


def test_rep_matrix_is_linear_combination():
    doc = load("cubic_eisenstein")
    b = build_bundle(doc.hopf, Z3)
    h = (Fraction(1, 3), 0, Fraction(1, 3))
    m = rep_matrix(b, h)
    expected = (
        rep_matrix_basis(doc.hopf, 0).scale(Fraction(1, 3))
        + rep_matrix_basis(doc.hopf, 2).scale(Fraction(1, 3))
    )
    assert m == expected


def test_express_endomorphism_round_trip():
    doc = load("cubic_eisenstein")
    b = build_bundle(doc.hopf, Z3)
    h = (Fraction(1, 2), 3, Fraction(-2, 5))
    assert express_endomorphism(b, rep_matrix(b, h)) == h


def test_express_endomorphism_outside_image():
    doc = load("quadratic")
    b = build_bundle(doc.hopf, Z)
    # the action span is diagonal matrices; a nilpotent is outside
    with pytest.raises(NotInImageError):
        express_endomorphism(b, Matrix([[0, 1], [0, 0]]))
