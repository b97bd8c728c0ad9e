"""Command-line front end.

Subcommands read JSON input documents and emit deterministic reports,
as JSON (exact rational strings) or as human-readable tables.  Exit
status is 0 exactly when no error occurred; a refused order-level claim
under failed arithmetic disjointness is a reported verdict, not an
error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time

from .action import ValidationError, build_bundle, verify_action
from .documents import (
    InputDocument,
    ParseError,
    dump_report,
    format_rational,
    load_document,
    parse_coordinates,
    parse_ring_flag,
    rational_rows,
    rational_vector,
    ring_to_json,
)
from .freeness import (
    NonIntegralBetaError,
    generator_matrix,
    search_free_generator,
)
from .groups import (
    DegreeTooLargeError,
    GroupValidationError,
    Permutation,
    classify_type,
    complements_of,
    detect_induced,
    enumerate_regular_subgroups,
    with_complement,
)
from .induction import (
    NotArithmeticallyDisjointError,
    base_change_order,
    induce_action,
    verify_induced_generator,
    verify_kronecker_theorem,
    verify_tensor_order,
)
from .linalg import CoefficientRing, LinAlgError
from .order import associated_order, verify_order


class CliError(Exception):
    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


def _resolve_ring(doc: InputDocument, args) -> CoefficientRing:
    if getattr(args, "ring", None):
        return parse_ring_flag(args.ring)
    if doc.ring is not None:
        return doc.ring
    raise CliError("missing-ring", "no ring in the document; pass --ring")


def _require_action(doc: InputDocument):
    if doc.field is None or doc.hopf is None:
        raise CliError("missing-section", "document needs 'field' and 'hopf' sections")


def _checked_bundle(doc: InputDocument, ring: CoefficientRing):
    _require_action(doc)
    doc.field.validate()
    bundle = build_bundle(doc.hopf, ring)
    return bundle, verify_action(bundle)


def cmd_check(args) -> dict:
    doc = load_document(args.document)
    ring = _resolve_ring(doc, args)
    _require_action(doc)
    field_ok, field_reason = True, None
    try:
        doc.field.validate()
    except ValidationError as exc:
        field_ok, field_reason = False, str(exc)
    report = {
        "command": "check",
        "input": {"document": args.document, "ring": ring_to_json(ring)},
        "field_axioms_ok": field_ok,
    }
    if field_reason:
        report["field_axioms_reason"] = field_reason
    if field_ok:
        bundle = build_bundle(doc.hopf, ring)
        rep = verify_action(bundle)
        report["rank_ok"] = rep.rank_ok
        report["j_bijective"] = rep.j_bijective
        report["action_matrix"] = rational_rows(bundle.M)
    return report


def _order_section(ob) -> dict:
    res = ob.hnf_result
    return {
        "hnf_D": rational_rows(res.D),
        "content": format_rational(res.content),
        "order_basis_in_hopf_coordinates": rational_rows(ob.basis_in_w),
        "order_action_table": [
            [rational_vector(v) for v in row] for row in ob.action_table
        ],
    }


def cmd_order(args) -> dict:
    doc = load_document(args.document)
    ring = _resolve_ring(doc, args)
    bundle, rep = _checked_bundle(doc, ring)
    if not (rep.rank_ok and rep.j_bijective):
        raise CliError("not-an-action", "input table fails the action checks")
    ob = associated_order(bundle)
    order_rep = verify_order(ob)
    report = {
        "command": "order",
        "input": {"document": args.document, "ring": ring_to_json(ring)},
        "verify_order": {
            "integral_action": order_rep.integral_action,
            "contains_one": order_rep.contains_one,
            "ring_closed": order_rep.ring_closed,
        },
    }
    report.update(_order_section(ob))
    return report


def cmd_free(args) -> dict:
    doc = load_document(args.document)
    ring = _resolve_ring(doc, args)
    bundle, rep = _checked_bundle(doc, ring)
    if not (rep.rank_ok and rep.j_bijective):
        raise CliError("not-an-action", "input table fails the action checks")
    ob = associated_order(bundle)
    report = {
        "command": "free",
        "input": {"document": args.document, "ring": ring_to_json(ring)},
    }
    if args.beta is not None:
        beta = parse_coordinates(args.beta, bundle.dim, "--beta")
        cand = generator_matrix(ob, beta)
        report["beta"] = rational_vector(cand.beta)
        report["generator_matrix"] = rational_rows(cand.d_beta)
        report["det"] = format_rational(cand.det)
        report["module_index"] = format_rational(cand.module_index)
        report["free"] = ring.is_unit(cand.det)
    else:
        bound = args.search_bound if args.search_bound is not None else 3
        cand = search_free_generator(ob, bound)
        report["search_bound"] = bound
        if cand is None:
            # a bounded search that finds nothing decides nothing
            report["free"] = None
            report["found"] = False
        else:
            report["free"] = True
            report["found"] = True
            report["beta"] = rational_vector(cand.beta)
            report["generator_matrix"] = rational_rows(cand.d_beta)
            report["det"] = format_rational(cand.det)
    return report


def cmd_induce(args) -> dict:
    left_doc = load_document(args.left)
    right_doc = load_document(args.right)
    ring = _resolve_ring(left_doc, args)
    _require_action(left_doc)
    _require_action(right_doc)
    left_doc.field.validate()
    right_doc.field.validate()
    setup = induce_action(left_doc.hopf, right_doc.hopf, ring)
    report = {
        "command": "induce",
        "input": {
            "left": args.left,
            "right": args.right,
            "ring": ring_to_json(ring),
        },
        "induced_action": [
            [rational_vector(v) for v in row] for row in setup.bundle.table.entries
        ],
        "row_permutation_cycles": [
            [i + 1 for i in c] for c in Permutation(setup.perm).cycles()
        ],
        "kronecker_factorization_ok": verify_kronecker_theorem(setup),
        "arithmetically_disjoint": setup.disjoint,
    }
    if not setup.disjoint:
        report["order_level"] = {
            "refused": True,
            "reason": "factor extensions are not arithmetically disjoint",
        }
        return report
    order_level = {
        "refused": False,
        "tensor_order_ok": verify_tensor_order(setup),
    }
    order_level.update(_order_section(setup.order))
    if args.gamma is not None or args.delta is not None:
        if args.gamma is None or args.delta is None:
            raise CliError("missing-flag", "--gamma and --delta come together")
        gamma = parse_coordinates(args.gamma, setup.left.dim, "--gamma")
        delta = parse_coordinates(args.delta, setup.right.dim, "--delta")
        gen = verify_induced_generator(setup, gamma, delta)
        order_level["generator"] = {
            "gamma": rational_vector(gamma),
            "delta": rational_vector(delta),
            "product_beta": rational_vector(gen.product_beta),
            "free": gen.free,
            "det": format_rational(gen.product_candidate.det),
            "kronecker_factorization_ok": gen.kronecker_factorization_ok,
        }
    bc = base_change_order(setup)
    order_level["base_change"] = {
        "lattice_matches_product_basis": bc.lattice_eq,
        "gamma_free": bc.gamma_free,
        "gamma": rational_vector(bc.gamma) if bc.gamma is not None else None,
    }
    report["order_level"] = order_level
    return report


def cmd_enum(args) -> dict:
    doc = load_document(args.document)
    if doc.group is None:
        raise CliError("missing-section", "document needs a 'group' section")
    g = doc.group
    subs = enumerate_regular_subgroups(g)
    lam_set = frozenset(g.translations.lam)
    rho_set = frozenset(g.translations.rho)
    if args.detect_induced:
        if g.J is None:
            raise CliError(
                "missing-decomposition",
                "--detect-induced needs J and Gprime in the group section",
            )
        # try the document's complement first, then every other
        # complement of J: a structure is induced when it factors
        # through any of the decompositions G = J x| G'_d
        decompositions = [g] + [
            with_complement(g, c) for c in complements_of(g) if c != g.Gprime
        ]
    entries = []
    for sub in subs:
        entry = {
            "elements": [list(p.images) for p in sub.elements],
            "type": sub.type_name,
            "is_left_translations": frozenset(sub.elements) == lam_set,
            "is_right_translations": frozenset(sub.elements) == rho_set,
        }
        if args.detect_induced:
            pair, used = None, None
            for gd in decompositions:
                pair = detect_induced(gd, sub)
                if pair is not None:
                    used = gd.Gprime
                    break
            entry["induced"] = pair is not None
            if pair is not None:
                n1, n2 = pair
                entry["factors"] = {
                    "Gprime": list(used),
                    "N1": [list(p.images) for p in n1.elements],
                    "N2": [list(p.images) for p in n2.elements],
                    "N1_type": classify_type(n1),
                    "N2_type": classify_type(n2),
                }
        entries.append(entry)
    return {
        "command": "enum",
        "input": {"document": args.document},
        "degree": g.order,
        "count": len(subs),
        "subgroups": entries,
    }


def _format_table(report: dict, indent: int = 0, out=None) -> str:
    """Flat human-readable rendering of a report dictionary."""
    lines = [] if out is None else out
    pad = "  " * indent
    for key, value in report.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            _format_table(value, indent + 1, lines)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{pad}{key}:")
            for k, item in enumerate(value):
                lines.append(f"{pad}  [{k}]")
                _format_table(item, indent + 2, lines)
        elif isinstance(value, list) and value and isinstance(value[0], list):
            lines.append(f"{pad}{key}:")
            for row in value:
                lines.append(f"{pad}  {row}")
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(lines) if out is None else ""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopforder",
        description="Exact computations with Hopf algebra actions: "
        "associated orders, free generators, tensor induction, and "
        "regular-subgroup enumeration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, document=True):
        if document:
            p.add_argument("document", help="path to a JSON input document")
        p.add_argument("--ring", help="coefficient ring: z or zp:<prime>")
        p.add_argument("--output", help="write the report to this path")
        p.add_argument("--format", choices=("json", "table"), default="json")

    p = sub.add_parser("check", help="verify field axioms and the action conditions")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("order", help="compute and verify the associated order")
    common(p)
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("free", help="test or search free generators")
    common(p)
    p.add_argument("--beta", help="candidate coordinates, e.g. '0,1,0'")
    p.add_argument("--search-bound", type=int, help="max-norm search bound")
    p.set_defaults(func=cmd_free)

    p = sub.add_parser("induce", help="compose two actions and verify the induced order")
    p.add_argument("left", help="left input document")
    p.add_argument("right", help="right input document")
    p.add_argument("--ring", help="coefficient ring: z or zp:<prime>")
    p.add_argument("--output", help="write the report to this path")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.add_argument("--gamma", help="left generator coordinates")
    p.add_argument("--delta", help="right generator coordinates")
    p.set_defaults(func=cmd_induce)

    p = sub.add_parser("enum", help="enumerate regular subgroups for a group document")
    common(p)
    p.add_argument(
        "--detect-induced",
        action="store_true",
        help="flag subgroups induced from the J/Gprime decomposition",
    )
    p.set_defaults(func=cmd_enum)
    return parser


def _is_coordinate_flag(arg) -> bool:
    # argparse also accepts a unique prefix such as '--gam'
    return len(arg) > 2 and any(
        flag.startswith(arg) for flag in ("--beta", "--gamma", "--delta")
    )


def _join_negative_coordinates(argv):
    """Rewrite '--gamma -1,0,2' as '--gamma=-1,0,2': argparse takes a
    separate value starting with '-<digit>' for an option."""
    out = []
    for arg in argv:
        flag = out[-1] if out else ""
        if _is_coordinate_flag(flag) and re.match(r"-\d", arg):
            out[-1] = f"{flag}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(
        _join_negative_coordinates(sys.argv[1:] if argv is None else argv)
    )
    start = time.monotonic()
    try:
        report = args.func(args)
    except (
        ParseError,
        CliError,
        ValidationError,
        LinAlgError,
        NonIntegralBetaError,
        NotArithmeticallyDisjointError,
        DegreeTooLargeError,
        GroupValidationError,
        ValueError,  # e.g. a --search-bound below 1
    ) as exc:
        error = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(dump_report(error), file=sys.stderr)
        return 1
    report["timings"] = {"seconds": round(time.monotonic() - start, 6)}
    if args.format == "table":
        timings = report.pop("timings")
        text = _format_table(report)
        text += f"\nelapsed: {timings['seconds']}s"
    else:
        text = dump_report(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
