"""Command line interface.

Usage: kpalg <command> <graph-file> [arguments] [options]

Every command reads a presentation in the kgraph v1 format and prints
text by default, JSON with --json. Exit status 0 means success or a
definite answer, 1 a semantic failure (invalid presentation, unsettled
search, bad input at the math level), 2 a usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .aperiodicity import aperiodicity_check, check_input
from .classify import aperiodicity_json, check_vertices, classify_pure_infiniteness, report_json
from .degrees import parse_degree
from .expr import format_element, parse_expression
from .field import FieldError, parse_field
from .ideals import enumerate_sat_her, quotient, sat_her_closure
from .kgraph import (
    KGraph,
    KGraphError,
    Path,
    format_kgraph,
    load_kgraph,
    validate,
)
from .kpelement import normal_form
from .steinberg import locally_contracting_on
from .witness import prove_vertex_properly_infinite, vertex_report_json


def _parse_path(g: KGraph, text: str) -> Path:
    text = text.strip()
    if g.has_vertex(text):
        return g.trivial_path(text)
    return g.path_from_edges([s for s in text.split(".") if s])


def _vertex_list(text: str) -> List[str]:
    return [s.strip() for s in text.split(",") if s.strip()]


def _depth(text: str) -> int:
    # argparse type for --depth: a bound below 1 would make every search
    # vacuous; other text fails with the message type=int gives
    try:
        depth = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text)
    if depth < 1:
        raise argparse.ArgumentTypeError("depth must be >= 1, got %d" % depth)
    return depth


def _status_text(verd) -> str:
    # an aperiodicity status with what it rests on
    if verd.basis == "certified":
        return "%s (certified)" % verd.status
    return "%s (bounded at depth %d)" % (verd.status, verd.depth)


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def cmd_validate(g: KGraph, args) -> int:
    rep = validate(g)
    if args.json:
        _print_json(
            {
                "ok": rep.ok,
                "violations": [
                    {"kind": v.kind, "items": list(v.items), "message": v.message}
                    for v in rep.violations
                ],
            }
        )
    else:
        print(rep)
    return 0 if rep.ok else 1


def cmd_paths(g: KGraph, args) -> int:
    if not g.has_vertex(args.vertex):
        raise KGraphError("unknown vertex %r" % args.vertex)
    n = parse_degree(args.degree, g.k)
    if args.boundary:
        # listed by degree in lexicographic order, then by word
        ps = sorted(g.boundary_paths(args.vertex, n), key=lambda p: p.degree)
    else:
        ps = g.paths(args.vertex, n)
    if args.json:
        _print_json(
            {
                "vertex": args.vertex,
                "degree": list(n),
                "boundary": bool(args.boundary),
                "paths": [str(p) for p in ps],
            }
        )
    else:
        for p in ps:
            print(p)
    return 0


def cmd_mce(g: KGraph, args) -> int:
    mu = _parse_path(g, args.mu)
    nu = _parse_path(g, args.nu)
    res = g.mce(mu, nu)
    if args.json:
        _print_json({"mu": str(mu), "nu": str(nu), "mce": [str(p) for p in res]})
    else:
        for p in res:
            print(p)
    return 0


def cmd_closure(g: KGraph, args) -> int:
    h = sat_her_closure(g, _vertex_list(args.vertices))
    if args.json:
        _print_json({"closure": list(h)})
    else:
        for v in h:
            print(v)
    return 0


def cmd_ideals(g: KGraph, args) -> int:
    lat = enumerate_sat_her(g)
    if args.json:
        _print_json(
            {
                "sets": [list(h) for h in lat.sets],
                "covers": [list(c) for c in lat.covers],
            }
        )
    else:
        for h in lat.sets:
            print("{%s}" % ", ".join(h))
    return 0


def cmd_quotient(g: KGraph, args) -> int:
    gq = quotient(g, tuple(_vertex_list(args.vertices)))
    if args.json:
        _print_json({"kgraph": format_kgraph(gq)})
    else:
        sys.stdout.write(format_kgraph(gq))
    return 0


def cmd_aperiodic(g: KGraph, args) -> int:
    check_vertices(g)
    verd = aperiodicity_check(g, args.depth)
    if args.json:
        _print_json(aperiodicity_json(verd))
    elif verd.status == "periodic":
        c = verd.certificate
        print("%s: pair (%s, %s) at %s" % (_status_text(verd), c.alpha, c.beta, c.vertex))
    elif verd.status == "aperiodic":
        print(_status_text(verd))
    else:
        print("unknown at depth %d%s" % (verd.depth, ": " + verd.note if verd.note else ""))
    return 0 if verd.status in ("aperiodic", "periodic") else 1


def cmd_classify(g: KGraph, args) -> int:
    fld = parse_field(args.field)
    rep = classify_pure_infiniteness(g, args.depth, fld, args.assert_aperiodic)
    if args.json:
        _print_json(report_json(rep))
    else:
        print("verdict: %s" % rep.verdict)
        print("field: %s  depth: %d" % (rep.field_name, rep.depth))
        if rep.assumed_aperiodic:
            print("aperiodicity assumed where the check was unsettled")
        for c in rep.conditions:
            cyc = "none" if c.cycle is None else "%s via %s" % (c.cycle, c.via)
            print(
                "vertex %s: receives=%s cycle=%s"
                % (c.vertex, "yes" if c.receives else "no", cyc)
            )
        for h, verd in rep.sweep:
            print("ideal {%s}: %s" % (", ".join(h), _status_text(verd)))
        for w in rep.witnesses:
            print("vertex %s: %s (%d case(s))" % (w.vertex, w.status, len(w.cases)))
        for note in rep.notes:
            print("note: %s" % note)
    return 0 if rep.verdict != "Inconclusive" else 1


def cmd_witness(g: KGraph, args) -> int:
    fld = parse_field(args.field)
    rep = prove_vertex_properly_infinite(g, args.vertex, args.depth, fld)
    if args.json:
        _print_json(vertex_report_json(rep))
    else:
        print("vertex %s: %s" % (rep.vertex, rep.status))
        for case in rep.cases:
            print(
                "trace {%s}, ideal {%s}: %s route, certificate verified"
                % (", ".join(case.trace), ", ".join(case.ideal), case.route)
            )
        if rep.proper is not None:
            print("properly infinite over the full graph: verified")
        if rep.failure:
            print("failure: %s" % rep.failure)
    return 0 if rep.status == "ProperlyInfinite" else 1


def cmd_eval(g: KGraph, args) -> int:
    fld = parse_field(args.field)
    if args.exprfile == "-":
        src = sys.stdin.read()
    else:
        with open(args.exprfile, "r", encoding="utf-8") as fh:
            src = fh.read()
    el = parse_expression(src, g, fld)
    nf = normal_form(el)
    if args.json:
        _print_json(
            {
                "value": format_element(el),
                "normal_form": format_element(nf),
                "is_zero": nf.is_zero(),
            }
        )
    else:
        print(format_element(nf))
    return 0


def cmd_contract(g: KGraph, args) -> int:
    kappa = _parse_path(g, args.path)
    res = locally_contracting_on(g, kappa, args.depth)
    if res:
        cyc = res.cycle
        if args.json:
            _print_json(
                {
                    "found": True,
                    "bisection": str(res.bisection),
                    "mu": str(cyc.mu),
                    "nu": str(cyc.nu),
                    "entrance": str(cyc.entrance),
                    "region": str(res.region),
                    "containment_checked": res.containment.checked,
                }
            )
        else:
            print("contracting bisection: %s" % res.bisection)
            print("cycle pair: (%s, %s) with entrance %s" % (cyc.mu, cyc.nu, cyc.entrance))
            print("region: Z(%s)" % res.region)
        return 0
    if args.json:
        _print_json({"found": False, "depth": res.depth, "detail": res.detail})
    else:
        print(
            "no contracting bisection found up to depth %d%s"
            % (res.depth, "; " + res.detail if res.detail else "")
        )
    return 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("graph", help="presentation file in kgraph v1 format")
    common.add_argument("--json", action="store_true", help="emit JSON")
    common.add_argument(
        "--depth", type=_depth, default=6, help="search depth bound, >= 1 (default 6)"
    )
    common.add_argument(
        "--field", default="Q", help="coefficient field, Q or F<prime> (default Q)"
    )

    parser = argparse.ArgumentParser(
        prog="kpalg",
        description="finite k-graphs, their algebras, and pure infiniteness",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("validate", parents=[common], help="check the presentation")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("paths", parents=[common], help="list paths at a vertex")
    p.add_argument("vertex")
    p.add_argument("degree", help="comma-separated degree, e.g. 2,1")
    p.add_argument(
        "--boundary", action="store_true", help="boundary paths instead of exact"
    )
    p.set_defaults(func=cmd_paths)

    p = sub.add_parser("mce", parents=[common], help="minimal common extensions")
    p.add_argument("mu", help="path: vertex id or dotted edge ids")
    p.add_argument("nu")
    p.set_defaults(func=cmd_mce)

    p = sub.add_parser(
        "closure", parents=[common], help="hereditary saturated closure"
    )
    p.add_argument("vertices", help="comma-separated vertex ids")
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser(
        "ideals", parents=[common], help="lattice of hereditary saturated sets"
    )
    p.set_defaults(func=cmd_ideals)

    p = sub.add_parser(
        "quotient", parents=[common], help="quotient by a hereditary saturated set"
    )
    p.add_argument("vertices", help="comma-separated vertex ids")
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("aperiodic", parents=[common], help="aperiodicity check")
    p.set_defaults(func=cmd_aperiodic)

    p = sub.add_parser(
        "classify", parents=[common], help="decide proper pure infiniteness"
    )
    p.add_argument(
        "--assert-aperiodic",
        action="store_true",
        help="proceed when the aperiodicity check is unsettled (recorded; "
        "never overrides a certified periodic pair)",
    )
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser(
        "witness", parents=[common], help="per-vertex infiniteness certificates"
    )
    p.add_argument("vertex")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser(
        "eval", parents=[common], help="evaluate an algebra expression file"
    )
    p.add_argument("exprfile", help="expression file, or - for stdin")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser(
        "contract", parents=[common], help="contracting bisection inside a cylinder"
    )
    p.add_argument("path", help="cylinder base path: vertex id or dotted edge ids")
    p.set_defaults(func=cmd_contract)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        g = load_kgraph(args.graph)
        if args.func is not cmd_validate:
            # every other command answers only about a valid presentation
            check_input(g, args.depth)
        return args.func(g, args)
    except (OSError, KGraphError, FieldError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
