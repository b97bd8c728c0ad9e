"""Regular subgroups, translation actions, classification, induction detection."""

import functools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopforder.groups import (
    DegreeTooLargeError,
    GroupData,
    GroupValidationError,
    NoDecompositionError,
    Permutation,
    RegularSubgroup,
    classify_type,
    complements_of,
    detect_induced,
    enumerate_regular_subgroups,
    iota,
    is_isomorphic,
    translation_actions,
    with_complement,
    _standard_models,
)

from conftest import load
from enumeration_oracle import search_regular_subgroups


def s3() -> GroupData:
    return load("group_s3").group


def c2() -> GroupData:
    return load("group_c2").group


def klein() -> GroupData:
    return load("group_c2xc2").group


def cyclic_group(n) -> GroupData:
    return GroupData(order=n, cayley=[[(i + j) % n for j in range(n)] for i in range(n)])


def relabelled(table, perm) -> GroupData:
    """The group with element x renamed perm[x]."""
    n = len(table)
    cayley = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            cayley[perm[a]][perm[b]] = perm[table[a][b]]
    return GroupData(order=n, cayley=cayley)


def model(name) -> tuple:
    return next(t for n in range(1, 16) for m, t in _standard_models(n) if m == name)


SMALL_GROUPS = [m for n in range(1, 9) for m, _ in _standard_models(n)]


# --- permutations --------------------------------------------------------


def test_permutation_basics():
    p = Permutation((1, 2, 0))
    assert p * p == Permutation((2, 0, 1))
    assert p.inverse() * p == Permutation.identity(3)
    assert p.order() == 3
    assert p.is_fixed_point_free()
    assert p.cycles() == ((0, 1, 2),)


def test_permutation_rejects_non_bijection():
    with pytest.raises(GroupValidationError):
        Permutation((0, 0, 1))


def test_from_cycles():
    p = Permutation.from_cycles(4, [(0, 1), (2, 3)])
    assert p == Permutation((1, 0, 3, 2))


# --- group data ----------------------------------------------------------


def test_group_data_validates_axioms():
    with pytest.raises(GroupValidationError):
        GroupData(order=2, cayley=((0, 1), (0, 1)))
    # non-associative magma with valid rows/columns: no such order-2 case,
    # so use a doctored order-3 table
    with pytest.raises(GroupValidationError):
        GroupData(order=3, cayley=((0, 1, 2), (1, 0, 2), (2, 2, 0)))


def test_group_data_decomposition_checks():
    g = s3()
    assert set(g.J) == {0, 1, 2} and set(g.Gprime) == {0, 3}
    with pytest.raises(GroupValidationError):
        # Gprime = J fails trivial intersection / order count
        GroupData(order=6, cayley=g.cayley, J=g.J, Gprime=g.J)
    with pytest.raises(GroupValidationError):
        # J not normal: take J = <s>
        GroupData(order=6, cayley=g.cayley, J=(0, 3), Gprime=(0, 1, 2))


def test_group_data_rejects_indices_outside_the_group():
    g = s3()
    with pytest.raises(GroupValidationError, match="J has an index outside"):
        GroupData(order=6, cayley=g.cayley, J=(0, 1, 9), Gprime=g.Gprime)
    with pytest.raises(GroupValidationError, match="Gprime has an index outside"):
        GroupData(order=6, cayley=g.cayley, J=g.J, Gprime=(-3, 0))
    cayley = [list(r) for r in g.cayley]
    cayley[2][3] = "x"
    with pytest.raises(GroupValidationError, match="integer indices"):
        GroupData(order=6, cayley=cayley)


def test_factorize_unique():
    g = s3()
    fact = g.factorize()
    assert len(fact) == 6
    for x, (sig, tau) in fact.items():
        assert g.mul(sig, tau) == x


def test_factorize_requires_decomposition():
    with pytest.raises(NoDecompositionError):
        c2().factorize()


# --- translation actions -------------------------------------------------


def test_c2_translations():
    acts = translation_actions(c2())
    assert acts.lam == (Permutation((0, 1)), Permutation((1, 0)))


def test_lambda_rho_commute_and_are_regular():
    g = s3()
    acts = translation_actions(g)
    for a in acts.lam:
        for b in acts.rho:
            assert a * b == b * a
    for fam in (acts.lam, acts.rho):
        assert len(set(fam)) == 6
        for p in fam:
            assert p.is_identity() or p.is_fixed_point_free()


def test_lambda_c_coset_formula():
    g = s3()
    acts = translation_actions(g)
    # lambda_c(s) fixes the identity coset and swaps the other two
    # (conjugation by s inverts r)
    s_idx = 3
    assert acts.lambda_c[s_idx] == Permutation((0, 2, 1))
    # lambda_c restricted to J is left translation on J
    assert acts.lambda_c[1] == Permutation((1, 2, 0))


def test_lambda_prime_is_left_regular_on_gprime():
    g = s3()
    acts = translation_actions(g)
    assert acts.lambda_prime == (Permutation((0, 1)), Permutation((1, 0)))


# --- enumeration ---------------------------------------------------------


def test_enumeration_degree_2():
    subs = enumerate_regular_subgroups(c2())
    assert len(subs) == 1
    assert classify_type(subs[0]) == "C2"


def test_enumeration_degree_3_with_s3_normalizer():
    gens = [Permutation((1, 0, 2)), Permutation((1, 2, 0))]
    subs = search_regular_subgroups(3, gens)
    assert len(subs) == 1
    assert classify_type(subs[0]) == "C3"


def test_enumeration_s3_contents():
    g = s3()
    acts = translation_actions(g)
    subs = enumerate_regular_subgroups(g)
    families = [frozenset(s.elements) for s in subs]
    assert frozenset(acts.lam) in families
    assert frozenset(acts.rho) in families
    types = sorted(classify_type(s) for s in subs)
    assert types.count("C6") == 3
    assert types.count("S3") == 2


def test_enumeration_results_are_valid_and_normalized():
    g = s3()
    acts = translation_actions(g)
    for sub in enumerate_regular_subgroups(g):
        sub.validate()
        sub.validate(base_point=4)  # regularity is base-point independent
        elems = set(sub.elements)
        for gperm in acts.lam:
            for p in sub.elements:
                assert gperm * p * gperm.inverse() in elems


def test_enumeration_degree_cap():
    with pytest.raises(DegreeTooLargeError):
        enumerate_regular_subgroups(cyclic_group(16))


def test_enumeration_is_deterministic():
    a = enumerate_regular_subgroups(s3())
    b = enumerate_regular_subgroups(s3())
    assert [s.elements for s in a] == [s.elements for s in b]


@pytest.mark.parametrize("name", SMALL_GROUPS)
def test_holomorph_route_matches_the_search_oracle(name):
    # every group of order <= 8, relabelled so that the identity is
    # rarely element 0
    table = model(name)
    perm = list(range(len(table)))
    random.Random(name).shuffle(perm)
    g = relabelled(table, perm)
    oracle = search_regular_subgroups(g.order, translation_actions(g).lam)
    assert enumerate_regular_subgroups(g) == oracle


@functools.cache
def model_enumeration(name):
    table = model(name)
    return enumerate_regular_subgroups(relabelled(table, range(len(table))))


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(["S3", "C2xC2", "C3xC3", "D10", "Q8"]), st.randoms(use_true_random=False))
def test_enumeration_is_relabelling_equivariant(name, rnd):
    table = model(name)
    perm = list(range(len(table)))
    rnd.shuffle(perm)
    moved = Permutation(tuple(perm))
    expected = {
        frozenset(moved * p * moved.inverse() for p in s.elements)
        for s in model_enumeration(name)
    }
    after = enumerate_regular_subgroups(relabelled(table, perm))
    assert {frozenset(s.elements) for s in after} == expected


@pytest.mark.parametrize(
    "name, types",
    [("C10", {"C10": 1, "D10": 2}), ("D10", {"C10": 5, "D10": 2})],
)
def test_order_10_counts(name, types):
    # Byott's counts for |G| = pq with q = 2, p = 5: 2q - 1 = 3 for the
    # cyclic group and 2 + p(2q - 3) = 7 for the dihedral group
    subs = enumerate_regular_subgroups(relabelled(model(name), range(10)))
    assert Counter(classify_type(s) for s in subs) == types


@pytest.mark.parametrize("name", SMALL_GROUPS + ["C10", "D10"])
def test_enumeration_carries_the_type_of_each_subgroup(name):
    # the model each subgroup was built from, against the isomorphism search
    subs = model_enumeration(name)
    assert all(s.type_name == classify_type(s) for s in subs)


@pytest.mark.parametrize("name", ["C12", "C2xC6", "D12", "Dic3", "A4"])
def test_order_12_results_are_valid_and_normalized(name):
    g = relabelled(model(name), range(12))
    acts = translation_actions(g)
    subs = enumerate_regular_subgroups(g)
    families = {frozenset(s.elements) for s in subs}
    assert frozenset(acts.lam) in families and frozenset(acts.rho) in families
    for sub in subs:
        sub.validate()
        elems = set(sub.elements)
        for gperm in acts.lam:
            for p in sub.elements:
                assert gperm * p * gperm.inverse() in elems


# --- classification ------------------------------------------------------


def test_classify_klein_group():
    elems = (
        Permutation((0, 1, 2, 3)),
        Permutation((1, 0, 3, 2)),
        Permutation((2, 3, 0, 1)),
        Permutation((3, 2, 1, 0)),
    )
    assert classify_type(RegularSubgroup(elements=elems, degree=4)) == "C2xC2"


def test_classify_c4():
    p = Permutation((1, 2, 3, 0))
    elems = (Permutation.identity(4), p, p * p, p * p * p)
    assert classify_type(RegularSubgroup(elements=elems, degree=4)) == "C4"


def test_classify_order_cap():
    p = Permutation(tuple(list(range(1, 16)) + [0]))
    elems = []
    q = Permutation.identity(16)
    for _ in range(16):
        elems.append(q)
        q = q * p
    with pytest.raises(DegreeTooLargeError):
        classify_type(RegularSubgroup(elements=tuple(elems), degree=16))


def test_is_isomorphic_distinguishes_c4_from_klein():
    c4 = ((0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2))
    v4 = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))
    assert not is_isomorphic(c4, v4)
    assert is_isomorphic(c4, c4)


def test_classify_s3_models():
    g = s3()
    acts = translation_actions(g)
    sub = RegularSubgroup(elements=tuple(acts.lam), degree=6)
    assert classify_type(sub) == "S3"


# --- induced detection ---------------------------------------------------


def test_detect_induced_c6_in_s3():
    g = s3()
    acts = translation_actions(g)
    subs = enumerate_regular_subgroups(g)
    c6s = [s for s in subs if classify_type(s) == "C6"]
    assert len(c6s) == 3
    comps = complements_of(g)
    assert comps == [(0, 3), (0, 4), (0, 5)]
    hits = {}
    for sub in c6s:
        found = [c for c in comps if detect_induced(with_complement(g, c), sub)]
        assert len(found) == 1
        hits[found[0]] = sub
    # each complement flags exactly one of the three C6 structures
    assert set(hits) == set(comps)


def test_detect_induced_reconstructs_via_iota():
    g = s3()
    acts = translation_actions(g)
    subs = enumerate_regular_subgroups(g)
    for sub in subs:
        pair = detect_induced(g, sub)
        if pair is None:
            continue
        n1, n2 = pair
        assert classify_type(n1) == "C3" and classify_type(n2) == "C2"
        rebuilt = {iota(g, phi, psi) for phi in n1.elements for psi in n2.elements}
        assert rebuilt == set(sub.elements)


def test_lambda_s3_is_not_induced():
    g = s3()
    acts = translation_actions(g)
    sub = RegularSubgroup(elements=tuple(acts.lam), degree=6)
    for c in complements_of(g):
        assert detect_induced(with_complement(g, c), sub) is None


def test_klein_rho_is_induced():
    g = klein()
    acts = translation_actions(g)
    sub = RegularSubgroup(elements=tuple(acts.rho), degree=4)
    pair = detect_induced(g, sub)
    assert pair is not None
    n1, n2 = pair
    assert classify_type(n1) == "C2" and classify_type(n2) == "C2"


def test_detect_induced_requires_decomposition():
    g = c2()
    acts = translation_actions(g)
    sub = RegularSubgroup(elements=tuple(acts.lam), degree=2)
    with pytest.raises(NoDecompositionError):
        detect_induced(g, sub)


# --- property tests ------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(st.permutations(list(range(6))))
def test_permutation_inverse_property(images):
    p = Permutation(tuple(images))
    assert p * p.inverse() == Permutation.identity(6)
    assert p.inverse().inverse() == p


@settings(max_examples=50, deadline=None)
@given(st.permutations(list(range(5))), st.permutations(list(range(5))))
def test_composition_associativity_property(a, b):
    p, q = Permutation(tuple(a)), Permutation(tuple(b))
    r = p * q
    for x in range(5):
        assert r(x) == p(q(x))
