"""Induced (tensor) Hopf actions and their associated orders.

Two actions compose through the Kronecker product of their
representations.  One global ordering convention is used everywhere:
product bases are Kronecker-ordered with the left index slow and the
right index fast, so the row permutation aligning the induced action
matrix with the Kronecker product of the factors is exactly the
Tracy-Singh index law.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from fractions import Fraction
from math import gcd

from .action import (
    ActionBundle,
    ActionTable,
    FieldPresentation,
    ValidationError,
    build_bundle,
    verify_action,
)
from .freeness import GeneratorCandidate, generator_matrix, search_free_generator
from .linalg import (
    CoefficientRing,
    LatticeBasis,
    Matrix,
    kronecker,
    lattice_equal,
)
from .order import OrderBasis, associated_order


class NotArithmeticallyDisjointError(Exception):
    pass


def tracy_singh_permutation(r: int, u: int):
    """Row permutation P with P M(H, L) = M(H1, E) (x) M(Hbar, F).

    Returned as a tuple `dest` over 0-based indices: row i of the input
    moves to row dest[i].  The underlying index law, for 1 <= a, b <= r
    and 1 <= c, d <= u with n = r u, sends row
    nu(b-1) + n(d-1) + u(a-1) + c to position
    nu(b-1) + u^2(a-1) + u(d-1) + c.
    """
    if r < 1 or u < 1:
        raise ValueError("factors must have degree >= 1")
    n = r * u
    dest = [None] * (n * n)
    for a in range(1, r + 1):
        for b in range(1, r + 1):
            for c in range(1, u + 1):
                for d in range(1, u + 1):
                    src = n * u * (b - 1) + n * (d - 1) + u * (a - 1) + c
                    dst = n * u * (b - 1) + u * u * (a - 1) + u * (d - 1) + c
                    dest[src - 1] = dst - 1
    return tuple(dest)


def permute_rows(m: Matrix, dest) -> Matrix:
    rows = [None] * m.rows
    for i in range(m.rows):
        rows[dest[i]] = list(m.row(i))
    return Matrix(rows)


def product_field(
    left: FieldPresentation, right: FieldPresentation
) -> FieldPresentation:
    """L = E (x) F with basis alpha_k z_l in Kronecker order."""
    r, u = left.dim, right.dim
    n = r * u
    labels = tuple(
        f"{left.basis_labels[k]}*{right.basis_labels[l]}"
        for k in range(r)
        for l in range(u)
    )
    # (alpha_a z_c)(alpha_b z_d) = (alpha_a alpha_b)(z_c z_d): coordinates
    # scE[a][b] (x) scF[c][d], every index pair in Kronecker order; the
    # tables are sparse, and a zero factor skips the Fraction product
    sc = [
        [
            tuple(x * y if x and y else 0 for x in ab for y in cd)
            for ab in planeE
            for cd in planeF
        ]
        for planeE in left.structure_constants
        for planeF in right.structure_constants
    ]
    return FieldPresentation(
        dim=n,
        basis_labels=labels,
        structure_constants=sc,
        one_index=u * left.one_index + right.one_index,
    )


def _tensor_table(
    left: ActionTable, right: ActionTable, prod: FieldPresentation
) -> ActionTable:
    r, u = left.dim, right.dim
    labels = tuple(
        f"{left.hopf_labels[i]}*{right.hopf_labels[j]}"
        for i in range(r)
        for j in range(u)
    )
    # entry (u*i + j, u*k + l) is left.entries[i][k] (x) right.entries[j][l]
    entries = tuple(
        tuple(tuple(x * y for x in ve for y in vf) for ve in row_e for vf in row_f)
        for row_e in left.entries
        for row_f in right.entries
    )
    return ActionTable(hopf_labels=labels, field=prod, entries=entries)


@dataclass(frozen=True)
class InducedSetup:
    """The induced action on E (x) F and its two factor actions.

    `disjoint`, the associated orders `left_order`, `right_order` and
    `order` (induced), and `tensor_order_ok` are computed on first read
    and then kept, so a refused, non-disjoint pair computes no order.
    """

    left: ActionBundle
    right: ActionBundle
    product_field: FieldPresentation
    bundle: ActionBundle  # the induced action on the product field
    perm: tuple  # Tracy-Singh row permutation, dest form

    @property
    def ring(self) -> CoefficientRing:
        return self.bundle.ring

    @cached_property
    def disjoint(self) -> bool:
        return are_arithmetically_disjoint(
            self.left.table.field, self.right.table.field, self.ring
        )

    @cached_property
    def left_order(self) -> OrderBasis:
        return associated_order(self.left)

    @cached_property
    def right_order(self) -> OrderBasis:
        return associated_order(self.right)

    @cached_property
    def order(self) -> OrderBasis:
        return associated_order(self.bundle)

    @cached_property
    def tensor_order_ok(self) -> bool:
        """Whether the induced order is the tensor of the factor orders."""
        return lattice_equal(self.order.lattice(), tensor_order_lattice(self))


def induce_action(
    left: ActionTable, right: ActionTable, ring: CoefficientRing
) -> InducedSetup:
    """Compose two verified actions into the induced action on E (x) F."""
    left_bundle = build_bundle(left, ring)
    right_bundle = build_bundle(right, ring)
    for name, b in (("left", left_bundle), ("right", right_bundle)):
        rep = verify_action(b)
        if not (rep.rank_ok and rep.j_bijective):
            raise ValidationError(f"{name} table is not a Hopf Galois action")
    prod = product_field(left.field, right.field)
    table = _tensor_table(left, right, prod)
    return InducedSetup(
        left=left_bundle,
        right=right_bundle,
        product_field=prod,
        bundle=build_bundle(table, ring),
        perm=tracy_singh_permutation(left.dim, right.dim),
    )


def verify_kronecker_theorem(setup: InducedSetup) -> bool:
    """Exact check of P M(H, L) = M(H1, E) (x) M(Hbar, F)."""
    lhs = permute_rows(setup.bundle.M, setup.perm)
    rhs = kronecker(setup.left.M, setup.right.M)
    return lhs == rhs


def are_arithmetically_disjoint(
    left_field: FieldPresentation,
    right_field: FieldPresentation,
    ring: CoefficientRing,
) -> bool:
    """Coprimality of the trace-form discriminants over the ring.

    A non-integral discriminant means the field basis is not integral
    over the ring; that input is rejected with ValidationError.
    """
    d1 = left_field.discriminant()
    d2 = right_field.discriminant()
    for d in (d1, d2):
        if not ring.is_integral(d):
            raise ValidationError(
                f"discriminant {d} is not integral: the field basis is not "
                "integral over the ring"
            )
    if d1 == 0 or d2 == 0:
        return False
    if ring.is_local:
        return ring.valuation(d1) == 0 or ring.valuation(d2) == 0
    return gcd(d1.numerator, d2.numerator) == 1


def _require_disjoint(setup: InducedSetup):
    if not setup.disjoint:
        raise NotArithmeticallyDisjointError(
            "factor extensions are not arithmetically disjoint"
        )


def tensor_order_lattice(setup: InducedSetup) -> LatticeBasis:
    """Kronecker product of the two factor order bases, as a lattice."""
    return LatticeBasis(
        ambient_dim=setup.bundle.dim,
        basis=kronecker(setup.left_order.basis_in_w, setup.right_order.basis_in_w),
        ring=setup.ring,
    )


def verify_tensor_order(setup: InducedSetup) -> bool:
    """Compare the induced order with the tensor of the factor orders."""
    _require_disjoint(setup)
    return setup.tensor_order_ok


@dataclass(frozen=True)
class InducedGeneratorReport:
    free: bool
    product_beta: tuple
    left_candidate: GeneratorCandidate
    right_candidate: GeneratorCandidate
    product_candidate: GeneratorCandidate
    kronecker_factorization_ok: bool


def verify_induced_generator(
    setup: InducedSetup, gamma, delta, left_basis=None, right_basis=None
) -> InducedGeneratorReport:
    """Check that gamma*delta generates, and that its generator matrix is
    the Kronecker product of the factor generator matrices.

    Optional `left_basis`/`right_basis` present the factor orders in
    other bases of the same lattices; the product order follows suit.
    """
    _require_disjoint(setup)
    left_ob, right_ob = setup.left_order, setup.right_order
    if left_basis is not None:
        left_ob = left_ob.with_basis(left_basis)
    if right_basis is not None:
        right_ob = right_ob.with_basis(right_basis)
    # present the induced order in the product basis v_i mu_j; any bases
    # of the factor orders span the same tensor lattice
    if not setup.tensor_order_ok:
        raise ValueError("proposed basis spans a different lattice")
    tensor_basis = kronecker(left_ob.basis_in_w, right_ob.basis_in_w)
    tensored_ob = replace(setup.order, basis_in_w=tensor_basis)

    gamma = tuple(Fraction(x) for x in gamma)
    delta = tuple(Fraction(x) for x in delta)
    product_beta = tuple(g * d for g in gamma for d in delta)

    cg = generator_matrix(left_ob, gamma)
    cd = generator_matrix(right_ob, delta)
    cp = generator_matrix(tensored_ob, product_beta)
    return InducedGeneratorReport(
        free=setup.ring.is_unit(cp.det),
        product_beta=product_beta,
        left_candidate=cg,
        right_candidate=cd,
        product_candidate=cp,
        kronecker_factorization_ok=cp.d_beta == kronecker(cg.d_beta, cd.d_beta),
    )


@dataclass(frozen=True)
class BaseChangeReport:
    lattice_eq: bool
    gamma_free: bool | None
    gamma: tuple | None
    order: OrderBasis


def base_change_order(setup: InducedSetup, gamma=None) -> BaseChangeReport:
    """Order of the left Hopf algebra extended by the right field.

    The extended algebra H1 (x) F acts on L with the right factor acting
    by multiplication; its associated order is computed as an O_K-lattice
    and compared with the span of the products v_i z_l.
    """
    _require_disjoint(setup)
    right_field = setup.right.table.field
    u = right_field.dim
    mult_table = ActionTable(
        hopf_labels=right_field.basis_labels,
        field=right_field,
        entries=tuple(
            tuple(right_field.structure_constants[l][m] for m in range(u))
            for l in range(u)
        ),
    )
    table = _tensor_table(setup.left.table, mult_table, setup.product_field)
    bundle = build_bundle(table, setup.ring)
    ob = associated_order(bundle)

    expected = LatticeBasis(
        ambient_dim=bundle.dim,
        basis=kronecker(setup.left_order.basis_in_w, Matrix.identity(u)),
        ring=setup.ring,
    )
    lattice_eq = lattice_equal(ob.lattice(), expected)

    if gamma is None:
        found = search_free_generator(setup.left_order, 3)
        gamma = found.beta if found is not None else None
    if gamma is None:
        return BaseChangeReport(lattice_eq=lattice_eq, gamma_free=None, gamma=None, order=ob)
    one_f = right_field.one()
    beta = tuple(Fraction(g) * z for g in gamma for z in one_f)
    cand = generator_matrix(ob, beta)
    return BaseChangeReport(
        lattice_eq=lattice_eq,
        gamma_free=setup.ring.is_unit(cand.det),
        gamma=tuple(Fraction(g) for g in gamma),
        order=ob,
    )
