"""Associated orders of Hopf actions.

The associated order is the lattice of Hopf elements carrying the ring
of integers into itself.  Its canonical basis comes from the Hermite
normal form of the action matrix: the columns of (1/d_M) D^{-1}, read in
the Hopf basis.  Any other basis of the same lattice is accepted through
:meth:`OrderBasis.with_basis`, compared by lattice equality only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from .action import ActionBundle, NotInImageError, express_endomorphism, rep_matrix
from .linalg import (
    DimensionMismatchError,
    HnfResult,
    LatticeBasis,
    Matrix,
    det_inverse,
    hnf,
    lattice_contains,
    lattice_equal,
)


@dataclass(frozen=True)
class OrderBasis:
    """An O_K-basis of the associated order, in Hopf-basis coordinates.

    Column i of basis_in_w holds the w-coordinates of the basis element
    v_i; action_table[i][j] holds the field coordinates of v_i . gamma_j.
    action_table is computed on first read and then kept.
    """

    bundle: ActionBundle
    basis_in_w: Matrix
    hnf_result: HnfResult

    @property
    def dim(self) -> int:
        return self.bundle.dim

    def lattice(self) -> LatticeBasis:
        return LatticeBasis(
            ambient_dim=self.dim, basis=self.basis_in_w, ring=self.bundle.ring
        )

    def with_basis(self, basis_in_w: Matrix) -> "OrderBasis":
        """Same order presented in another basis of the same lattice."""
        other = LatticeBasis(
            ambient_dim=self.dim, basis=basis_in_w, ring=self.bundle.ring
        )
        if not lattice_equal(self.lattice(), other):
            raise ValueError("proposed basis spans a different lattice")
        return replace(self, basis_in_w=basis_in_w)

    @cached_property
    def action_table(self) -> tuple:
        blocks, n = self.bundle.blocks, self.dim
        return tuple(
            tuple(blocks[j].apply(self.basis_in_w.col(i)) for j in range(n))
            for i in range(n)
        )


def associated_order(bundle: ActionBundle) -> OrderBasis:
    """O_K-basis of the associated order from the HNF of M(H, L)."""
    res = hnf(bundle.M, bundle.ring)
    _, d_inv = det_inverse(res.D)
    basis_in_w = d_inv.scale(1 / res.content)
    return OrderBasis(bundle=bundle, basis_in_w=basis_in_w, hnf_result=res)


def order_membership(ob: OrderBasis, h) -> bool:
    """Membership via integrality of M(H, L) h.

    The lattice route (coordinates in the order basis) is the
    independent cross-check exercised by the tests.
    """
    bundle = ob.bundle
    if len(h) != bundle.dim:
        raise DimensionMismatchError("h length != dim")
    image = bundle.M.apply(h)
    return all(bundle.ring.is_integral(x) for x in image)


def order_membership_by_lattice(ob: OrderBasis, h) -> bool:
    return lattice_contains(ob.lattice(), h)


@dataclass(frozen=True)
class OrderReport:
    integral_action: bool
    contains_one: bool
    ring_closed: bool


def verify_order(ob: OrderBasis) -> OrderReport:
    """Order axioms at the matrix level.

    Ring closure multiplies basis elements through their representing
    matrices and pulls the product back along rho, which is faithful
    once j is bijective.
    """
    bundle = ob.bundle
    ring = bundle.ring
    n = ob.dim
    integral_action = all(
        ring.is_integral(x) for row in ob.action_table for v in row for x in v
    )
    lat = ob.lattice()

    try:
        one = express_endomorphism(bundle, Matrix.identity(n))
        contains_one = lattice_contains(lat, one)
    except NotInImageError:
        contains_one = False

    ring_closed = True
    reps = [rep_matrix(bundle, ob.basis_in_w.col(i)) for i in range(n)]
    for i in range(n):
        for k in range(n):
            try:
                prod = express_endomorphism(bundle, reps[i] @ reps[k])
            except NotInImageError:
                ring_closed = False
                break
            if not lattice_contains(lat, prod):
                ring_closed = False
                break
        if not ring_closed:
            break
    return OrderReport(
        integral_action=integral_action,
        contains_one=contains_one,
        ring_closed=ring_closed,
    )
