"""Seeded input generators for the benchmark.

Everything here is built from the shipped `fixtures/` documents.  The
program under test only ever receives the JSON documents written from
these functions; it never sees a seed.

- `ladder_tables`: the degree ladder 2, 3, 6, 12, 24, obtained by
  tensoring `cubic_eisenstein_alt` with copies of `quadratic_i_local3`.
- `change_hopf_basis`: a unimodular change of Hopf basis w' = w . A with
  A in GL_n(Z) (`unimodular_matrix`), which keeps verdicts and 3-adic
  valuations of determinants while making every document new.
- `cayley_from_generators` and `relabel`: Cayley-table documents for
  groups given by permutation generators, relabelled by a seeded
  permutation.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

from hopforder.action import ActionTable
from hopforder.documents import format_rational
from hopforder.induction import product_field

# --- documents ------------------------------------------------------------


def read_fixture(root: Path, name: str) -> dict:
    with open(root / "fixtures" / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def write_document(path: Path, doc: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return str(path)


def action_document(name: str, table: ActionTable, prime: int) -> dict:
    """A field-and-action document with every rational as a "p/q" string."""
    f = table.field
    return {
        "name": name,
        "ring": {"kind": "local", "prime": prime},
        "field": {
            "dim": f.dim,
            "basis_labels": list(f.basis_labels),
            "one_index": f.one_index,
            "structure_constants": [
                [[format_rational(x) for x in row] for row in plane]
                for plane in f.structure_constants
            ],
        },
        "hopf": {
            "labels": list(table.hopf_labels),
            "action": [[[format_rational(x) for x in v] for v in row] for row in table.entries],
        },
    }


# --- the tensor ladder ----------------------------------------------------


def tensor_tables(left: ActionTable, right: ActionTable) -> ActionTable:
    """The induced action table on the product field, Kronecker-ordered
    (left index slow, right index fast), as `induce_action` builds it."""
    prod = product_field(left.field, right.field)
    r, u = left.dim, right.dim
    labels = tuple(
        f"{left.hopf_labels[i]}*{right.hopf_labels[j]}"
        for i in range(r)
        for j in range(u)
    )
    entries = tuple(
        tuple(
            tuple(
                ve[e] * vf[f]
                for e in range(r)
                for f in range(u)
            )
            for ve in left.entries[i]
            for vf in right.entries[j]
        )
        for i in range(r)
        for j in range(u)
    )
    return ActionTable(hopf_labels=labels, field=prod, entries=entries)


LADDER_BASE = "cubic_eisenstein_alt"
LADDER_FACTOR = "quadratic_i_local3"
LADDER_GAMMA = (0, 1, 0)
LADDER_DELTA = (1, 1)


def ladder_tables(cubic: ActionTable, quad: ActionTable):
    """[(degree, table, beta)] for degrees 2, 3, 6, 12, 24.

    beta is gamma (x) delta (x) ... (x) delta, free at every degree."""
    out = [(2, quad, LADDER_DELTA), (3, cubic, LADDER_GAMMA)]
    table, beta = cubic, LADDER_GAMMA
    while table.dim < 24:
        table = tensor_tables(table, quad)
        beta = tuple(b * d for b in beta for d in LADDER_DELTA)
        out.append((table.dim, table, beta))
    return out


# --- unimodular change of Hopf basis ---------------------------------------


def unimodular_matrix(n: int, rng: random.Random, bound: int = 1):
    """A in GL_n(Z) with small entries: signed permutation times unit
    lower and unit upper triangular factors with entries in
    [-bound, bound]."""
    def entry():
        return rng.randint(-bound, bound)

    lower = [[1 if i == j else (entry() if j < i else 0) for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else (entry() if j > i else 0) for j in range(n)] for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    lu = [[sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[signs[i] * lu[perm[i]][j] for j in range(n)] for i in range(n)]


def change_hopf_basis(doc: dict, a) -> dict:
    """The same action in the Hopf basis w'_i = sum_k a[k][i] w_k."""
    hopf = doc["hopf"]
    rows = [[[Fraction(x) for x in v] for v in row] for row in hopf["action"]]
    n = len(rows)
    new_rows = [
        [
            [format_rational(sum(a[k][i] * rows[k][j][l] for k in range(n))) for l in range(n)]
            for j in range(n)
        ]
        for i in range(n)
    ]
    out = dict(doc)
    out["hopf"] = {"labels": [f"{lab}'" for lab in hopf["labels"]], "action": new_rows}
    return out


# --- groups -----------------------------------------------------------------


def _compose(p, q):
    """(p * q)(x) = p(q(x)), the convention of `hopforder.groups`."""
    return tuple(p[q[x]] for x in range(len(q)))


def cayley_from_generators(gens):
    """Elements in discovery order from the identity, and the Cayley table."""
    deg = len(gens[0])
    elems = [tuple(range(deg))]
    pos = {elems[0]: 0}
    i = 0
    while i < len(elems):
        for g in gens:
            c = _compose(g, elems[i])
            if c not in pos:
                pos[c] = len(elems)
                elems.append(c)
        i += 1
    return elems, [[pos[_compose(a, b)] for b in elems] for a in elems]


def subgroup_indices(elems, gens):
    """Indices of the subgroup generated by `gens` (permutation images)."""
    sub = cayley_from_generators(gens)[0]
    pos = {e: i for i, e in enumerate(elems)}
    return sorted(pos[e] for e in sub)


def relabel(cayley, perm, j=None, gprime=None):
    """Cayley table, J and G' after renaming element x to perm[x]."""
    m = len(cayley)
    new = [[0] * m for _ in range(m)]
    for a in range(m):
        for b in range(m):
            new[perm[a]][perm[b]] = perm[cayley[a][b]]
    mapped = lambda s: sorted(perm[x] for x in s) if s is not None else None
    return new, mapped(j), mapped(gprime)


def group_document(name, cayley, j=None, gprime=None) -> dict:
    group = {"order": len(cayley), "cayley": cayley}
    if j is not None:
        group["J"] = j
        group["Gprime"] = gprime
    return {"name": name, "group": group}
