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

from .action import ActionBundle, rep_matrix
from .linalg import (
    DimensionMismatchError,
    HnfResult,
    LatticeBasis,
    Matrix,
    det_inverse,
    hnf,
    lattice_contains,
    lattice_equal,
    solve_columns,
    vec,
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
    once j is bijective.  The unit and the n^2 products are pulled back
    by one elimination of M and tested for membership by one of the
    order basis.
    """
    bundle = ob.bundle
    ring = bundle.ring
    n = ob.dim
    integral_action = all(
        ring.is_integral(x) for row in ob.action_table for v in row for x in v
    )
    reps = [rep_matrix(bundle, ob.basis_in_w.col(i)) for i in range(n)]
    targets = [Matrix.identity(n)] + [x @ y for x in reps for y in reps]
    pulled_back = solve_columns(bundle.M, [vec(t) for t in targets])
    # the basis is invertible, so a target outside the image of rho
    # (None) can stand in as zero and be rejected below
    coords = solve_columns(ob.basis_in_w, [h or (0,) * n for h in pulled_back])
    member = [
        h is not None and all(ring.is_integral(x) for x in c)
        for h, c in zip(pulled_back, coords)
    ]
    contains_one, ring_closed = member[0], all(member[1:])
    return OrderReport(
        integral_action=integral_action,
        contains_one=contains_one,
        ring_closed=ring_closed,
    )
