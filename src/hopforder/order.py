"""Associated orders of Hopf actions.

The associated order is the lattice of Hopf elements carrying the ring
of integers into itself.  Its canonical basis comes from the Hermite
normal form of the action matrix: the columns of (1/d_M) D^{-1}, read in
the Hopf basis.  Any other basis of the same lattice is accepted through
:meth:`OrderBasis.with_basis`, compared by lattice equality only.

:func:`verify_order` reads integrality of the action from the order
basis, and decides the unit and ring closure on rho(H), the span of the
rho(w_i) in End_K(L).  These match the order-level axioms because the
HNF lattice is the whole stabiliser {h : rho(h) O_L <= O_L} (Childs,
*Taming Wild Extensions*, AMS Surveys 80, 2000) and rho is faithful, as
M has rank n: an element of rho(H) that keeps O_L, such as id or a
product of two that do, comes from an element of the order, and the
order spans H, so its products span those of rho(H).  A hand-built
:class:`OrderBasis` must therefore span that lattice, as
:func:`associated_order` and :meth:`OrderBasis.with_basis` guarantee;
of any other basis only the integrality of its action is checked.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace
from functools import cached_property

from .action import ActionBundle
from .linalg import (
    ColumnRankDeficientError,
    DimensionMismatchError,
    HnfResult,
    LatticeBasis,
    Matrix,
    det_inverse,
    hnf,
    lattice_contains,
    lattice_equal,
    pivot_rows,
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
    """Order axioms: integral action of the order basis, then the unit
    and ring closure decided on rho(H) in the Hopf basis w.

    The order is the whole stabiliser of O_L and rho is faithful (see
    the module docstring), so it contains 1 exactly when id lies in
    rho(H), and is closed exactly when every rho(w_i) rho(w_j) does.
    This assumes ob spans the associated order of its bundle.
    Membership in rho(H), the column span of M's integer rows, is read
    off n pivot rows R of M, picked by one elimination and inverted
    once: x = M_R^-1 t_R, and t is accepted only if M x = t exactly.
    Raises ColumnRankDeficientError when M has rank below n.
    """
    bundle = ob.bundle
    ring = bundle.ring
    n = ob.dim
    integral_action = all(
        ring.is_integral(x) for row in ob.action_table for v in row for x in v
    )
    m = bundle.M.ints
    rows = pivot_rows(bundle.M)
    if len(rows) < n:
        raise ColumnRankDeficientError("rho is not faithful: M has rank < n")
    _, inv = det_inverse(Matrix._of([m[r] for r in rows]))
    # column i of m is vec(rho(w_i)) over M's denominator; keep its
    # nonzero entries, and those of each column w_i . gamma_k of rho(w_i)
    cols = [[(r, a) for r, a in enumerate(col) if a] for col in zip(*m)]
    images = [[[] for _ in range(n)] for _ in range(n)]
    for image, col in zip(images, cols):
        for r, a in col:
            image[r // n].append((r % n, a))

    def in_image(t) -> bool:
        # t maps vec indices to entries; m x = t for x = inv t_R, over inv.den
        t_r = [(k, t[r]) for k, r in enumerate(rows) if r in t]
        y = [0] * (n * n)
        for inv_row, col in zip(inv.ints, cols):
            x = sum(inv_row[k] * v for k, v in t_r)
            if x:
                for r, a in col:
                    y[r] += a * x
        for r, v in t.items():
            y[r] -= inv.den * v
        return not any(y)

    def product(i, j) -> dict:
        # column c of rho(w_i) rho(w_j) is sum_k (w_j . gamma_c)_k (w_i . gamma_k)
        t = defaultdict(int)
        for c, wj_c in enumerate(images[j]):
            for k, f in wj_c:
                for r, a in images[i][k]:
                    t[n * c + r] += f * a
        return t

    unit = {n * c + c: 1 for c in range(n)}
    return OrderReport(
        integral_action=integral_action,
        contains_one=in_image(unit),
        ring_closed=all(in_image(product(i, j)) for i in range(n) for j in range(n)),
    )
