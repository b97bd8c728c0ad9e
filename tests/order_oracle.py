"""Reference verification of the order axioms at the order level.

This is the route `hopforder.order.verify_order` took before it decided
the unit and ring closure on rho(H).  It multiplies the representing
matrices of the order basis, pulls the unit and every product back
along rho by one elimination of M, and tests each preimage for
membership in the order lattice by one elimination of the order basis.
It reads the order basis where the new route reads only the Hopf-basis
table, so tests compare the two.
"""

from hopforder.action import rep_matrix
from hopforder.linalg import Matrix, solve_columns, vec
from hopforder.order import OrderReport


def verify_order_oracle(ob) -> OrderReport:
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
    return OrderReport(
        integral_action=integral_action,
        contains_one=member[0],
        ring_closed=all(member[1:]),
    )
