"""JSON input documents and report serialization.

Rationals cross the process boundary as strings "p/q" (or "p"), never
floats, so serializing a report and reparsing it reproduces identical
values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .action import ActionTable, FieldPresentation
from .groups import GroupData, Permutation
from .linalg import CoefficientRing, Matrix


class ParseError(Exception):
    """Input document is malformed; message carries the location."""


def parse_rational(s, where: str = "value") -> Fraction:
    if isinstance(s, bool) or isinstance(s, float):
        raise ParseError(f"{where}: rationals must be strings or integers, got {s!r}")
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, str):
        try:
            return Fraction(s.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"{where}: bad rational {s!r}") from exc
    raise ParseError(f"{where}: bad rational {s!r}")


def format_rational(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def rational_rows(m: Matrix):
    return [[format_rational(x) for x in row] for row in m.tolists()]


def rational_vector(v):
    return [format_rational(Fraction(x)) for x in v]


def parse_ring(obj, where: str = "ring") -> CoefficientRing:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError(f"{where}: expected an object with a 'kind'")
    kind = obj["kind"]
    if kind == "integers":
        return CoefficientRing.integers()
    if kind == "local":
        p = obj.get("prime")
        if not isinstance(p, int):
            raise ParseError(f"{where}: local ring needs an integer 'prime'")
        try:
            return CoefficientRing.localized_at(p)
        except ValueError as exc:
            raise ParseError(f"{where}: {exc}") from exc
    raise ParseError(f"{where}: unknown ring kind {kind!r}")


def ring_to_json(ring: CoefficientRing):
    if ring.is_local:
        return {"kind": "local", "prime": ring.prime}
    return {"kind": "integers"}


def parse_ring_flag(s: str) -> CoefficientRing:
    """Command-line ring spec: 'z' or 'zp:<prime>'."""
    s = s.strip().lower()
    if s == "z":
        return CoefficientRing.integers()
    if s.startswith("zp:"):
        try:
            return CoefficientRing.localized_at(int(s[3:]))
        except ValueError as exc:
            raise ParseError(f"--ring: {exc}") from exc
    raise ParseError(f"--ring: expected 'z' or 'zp:<prime>', got {s!r}")


def parse_coordinates(s: str, n: int, where: str):
    parts = s.split(",")  # an empty part is a bad rational, never dropped
    if len(parts) != n:
        raise ParseError(f"{where}: expected {n} coordinates, got {len(parts)}")
    return tuple(parse_rational(p, where) for p in parts)


def _parse_field(obj, where: str = "field") -> FieldPresentation:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object")
    try:
        dim = obj["dim"]
        labels = obj["basis_labels"]
        sc = obj["structure_constants"]
    except KeyError as exc:
        raise ParseError(f"{where}: missing {exc.args[0]!r}") from exc
    if not isinstance(dim, int) or dim < 1:
        raise ParseError(f"{where}.dim: expected a positive integer")
    if not isinstance(labels, list) or len(labels) != dim:
        raise ParseError(f"{where}.basis_labels: expected {dim} labels")
    if (
        not isinstance(sc, list)
        or len(sc) != dim
        or any(
            not isinstance(p, list)
            or len(p) != dim
            or any(not isinstance(r, list) or len(r) != dim for r in p)
            for p in sc
        )
    ):
        raise ParseError(f"{where}.structure_constants: expected a {dim}^3 array")
    consts = [
        [
            [
                parse_rational(sc[j][k][l], f"{where}.structure_constants[{j}][{k}][{l}]")
                for l in range(dim)
            ]
            for k in range(dim)
        ]
        for j in range(dim)
    ]
    one = obj.get("one_index", 0)
    if not isinstance(one, int):
        raise ParseError(f"{where}.one_index: expected an integer")
    return FieldPresentation(
        dim=dim, basis_labels=tuple(labels), structure_constants=consts, one_index=one
    )


def _parse_hopf(obj, fieldp: FieldPresentation, where: str = "hopf") -> ActionTable:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object")
    try:
        labels = obj["labels"]
        table = obj["action"]
    except KeyError as exc:
        raise ParseError(f"{where}: missing {exc.args[0]!r}") from exc
    n = fieldp.dim
    if not isinstance(labels, list) or len(labels) != n:
        raise ParseError(f"{where}.labels: expected {n} labels")
    if (
        not isinstance(table, list)
        or len(table) != n
        or any(
            not isinstance(r, list)
            or len(r) != n
            or any(not isinstance(v, list) or len(v) != n for v in r)
            for r in table
        )
    ):
        raise ParseError(f"{where}.action: expected an {n}x{n} table of length-{n} vectors")
    entries = [
        [
            [parse_rational(table[i][j][l], f"{where}.action[{i}][{j}][{l}]") for l in range(n)]
            for j in range(n)
        ]
        for i in range(n)
    ]
    return ActionTable(hopf_labels=tuple(labels), field=fieldp, entries=entries)


def _parse_group(obj, where: str = "group") -> GroupData:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object")
    try:
        order = obj["order"]
    except KeyError as exc:
        raise ParseError(f"{where}: missing 'order'") from exc
    if not isinstance(order, int) or order < 1:
        raise ParseError(f"{where}.order: expected a positive integer")
    if "cayley" in obj:
        cay = obj["cayley"]
        if (
            not isinstance(cay, list)
            or len(cay) != order
            or any(not isinstance(r, list) or len(r) != order for r in cay)
        ):
            raise ParseError(f"{where}.cayley: expected an {order}x{order} index table")
        cayley = tuple(tuple(r) for r in cay)
    elif "generators" in obj:
        cayley = _cayley_from_generators(obj["generators"], order, where)
    else:
        raise ParseError(f"{where}: need 'cayley' or 'generators'")
    names = obj.get("element_names")
    j = obj.get("J")
    gp = obj.get("Gprime")
    for name, s in (("J", j), ("Gprime", gp)):
        if s is not None and (
            not isinstance(s, list) or any(not isinstance(x, int) for x in s)
        ):
            raise ParseError(f"{where}.{name}: expected a list of indices")
    return GroupData(
        order=order,
        cayley=cayley,
        element_names=tuple(names) if names else None,
        J=tuple(j) if j else None,
        Gprime=tuple(gp) if gp else None,
    )


def _cayley_from_generators(gens, order, where):
    """Cayley table of the permutation group generated by image arrays.

    Element indices follow discovery order from the identity; the group
    must have exactly `order` elements."""
    if not isinstance(gens, list) or not gens:
        raise ParseError(f"{where}.generators: expected a nonempty list")
    try:
        perms = [Permutation(tuple(g)) for g in gens]
    except Exception as exc:
        raise ParseError(f"{where}.generators: {exc}") from exc
    deg = perms[0].degree
    if any(p.degree != deg for p in perms):
        raise ParseError(f"{where}.generators: mixed degrees")
    elems = [Permutation.identity(deg)]
    seen = {elems[0]}
    i = 0
    while i < len(elems):
        for g in perms:
            c = g * elems[i]
            if c not in seen:
                seen.add(c)
                elems.append(c)
                if len(elems) > order:
                    raise ParseError(f"{where}: generated group exceeds order {order}")
        i += 1
    if len(elems) != order:
        raise ParseError(
            f"{where}: generators produce order {len(elems)}, expected {order}"
        )
    pos = {p: i for i, p in enumerate(elems)}
    return tuple(tuple(pos[a * b] for b in elems) for a in elems)


@dataclass(frozen=True)
class InputDocument:
    ring: CoefficientRing = None
    field: FieldPresentation = None
    hopf: ActionTable = None
    group: GroupData = None
    name: str = None


def parse_document(obj) -> InputDocument:
    if not isinstance(obj, dict):
        raise ParseError("document: expected a JSON object")
    ring = parse_ring(obj["ring"]) if "ring" in obj else None
    fieldp = _parse_field(obj["field"]) if "field" in obj else None
    hopf = None
    if "hopf" in obj:
        if fieldp is None:
            raise ParseError("hopf: needs a field section")
        hopf = _parse_hopf(obj["hopf"], fieldp)
    group = _parse_group(obj["group"]) if "group" in obj else None
    return InputDocument(
        ring=ring, field=fieldp, hopf=hopf, group=group, name=obj.get("name")
    )


def load_document(path: str) -> InputDocument:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return parse_document(obj)


def dump_report(report: dict) -> str:
    """Deterministic JSON for a report dictionary."""
    return json.dumps(report, indent=2, sort_keys=True)
