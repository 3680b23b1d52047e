"""Command-line surface: validate, stats, mis, dim, subdivide, svg.

Exit codes: 0 success, 1 validation/domain failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import dimension, oracle
from .errors import MeshError, NonConstantSmoothness
from .formats import (
    apply_history,
    document_mesh,
    document_smoothness,
    format_rational,
    format_tmesh,
    format_tsub,
    MeshDocument,
    parse_tmesh,
    parse_tsub,
)
from .mesh import ascii_int, check_counting_identities, stats as mesh_stats
from .segments import analyze_segments, blocking, segment_weight
from .svg import render_svg


def nonnegative_int(text):
    value = ascii_int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="tsplinedim",
        description="Exact dimensions of bivariate spline spaces on planar T-meshes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, smooth=False, degree=False, ordering=False):
        p.add_argument("file", help="input file")
        p.add_argument("--json", action="store_true", help="emit JSON on stdout")
        if degree:
            p.add_argument("-m", type=nonnegative_int, required=True, help="degree bound in s")
            p.add_argument("-n", type=nonnegative_int, required=True, help="degree bound in t")
        if smooth:
            p.add_argument("--smooth", metavar="R,R'", help="constant smoothness override")
        if ordering:
            p.add_argument("--ordering", choices=("auto", "search"), default="auto")
            p.add_argument("--history", metavar="TSUB", help="subdivision history for the appearance order")

    common(sub.add_parser("validate", help="parse and validate a tmesh file"))
    common(sub.add_parser("stats", help="face counts and counting identities"))
    common(sub.add_parser("mis", help="maximal interior segments, weights, blocking"),
           smooth=True, degree=True, ordering=True)
    p_dim = sub.add_parser("dim", help="dimension bounds (and exact dimension with --exact)")
    common(p_dim, smooth=True, degree=True, ordering=True)
    p_dim.add_argument(
        "--exact",
        action="store_true",
        help="exact dimension: the combinatorial term plus the defect of the segment presentation",
    )
    p_dim.add_argument("--dump-matrix", metavar="PATH", help="write the constraint system as triplets")
    p_sub = sub.add_parser("subdivide", help="apply a tsub history, print the resulting tmesh")
    p_sub.add_argument("file", help="tsub v1 history file")
    p_sub.add_argument("--json", action="store_true")
    p_sub.add_argument("-m", type=nonnegative_int, help="degree bound in s (for weighted splits)")
    p_sub.add_argument("-n", type=nonnegative_int, help="degree bound in t (for weighted splits)")
    p_sub.add_argument("--smooth", metavar="R,R'", help="constant smoothness (for weighted splits)")
    p_sub.add_argument("--weighted", metavar="K,K'", help="run every split through the (k,k') rule")
    p_sub.add_argument("--emit-history", metavar="PATH", help="write the expanded elementary history")
    sub.add_parser("svg", help="render the mesh as SVG").add_argument("file", help="input file")
    return parser


def _parse_pair(text, flag, parser):
    try:
        a, b = text.split(",")
        return nonnegative_int(a), nonnegative_int(b)
    except ValueError:
        parser.error(f"{flag} expects two integers like 1,1")
    except argparse.ArgumentTypeError as exc:
        parser.error(f"{flag} {exc}")


def _read(path, parser):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        parser.error(f"cannot read {path}: {exc}")


def _write(path, text, parser):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        parser.error(f"cannot write {path}: {exc}")


def _emit_error(exc, as_json):
    name = type(exc).__name__
    if as_json:
        print(json.dumps({"error": name, "detail": str(exc)}))
    else:
        print(f"{name}: {exc}")
    return 1


def _counts_dict(mesh):
    """The face counts, then euler, then the identity checks, in field order."""
    counts = mesh_stats(mesh)
    return {
        **counts._asdict(),
        "euler": counts.euler,
        "identities": check_counting_identities(mesh)._asdict(),
    }


def _smoothness_for(args, doc, mesh, parser):
    override = _parse_pair(args.smooth, "--smooth", parser) if args.smooth else None
    dist = document_smoothness(doc, mesh, override)
    if dist is None:
        parser.error("no smoothness given: pass --smooth or declare it in the file")
    return dist


def _history_for(args, parser, dist, degree):
    """The --history file, each wsplit line expanded into its elementary
    splits by the weighted rule under the query's degree and smoothness."""
    if not args.history:
        return None
    history = parse_tsub(_read(args.history, parser))
    if any(ev.rule is not None for ev in history.events):
        constant = dist.is_constant()
        if constant is None:
            raise NonConstantSmoothness(
                "a wsplit line in --history runs the weighted rule, which needs constant smoothness"
            )
        history = apply_history(history, constant, degree)[1]
    return history


def cmd_validate(args, parser):
    doc = parse_tmesh(_read(args.file, parser))
    mesh = document_mesh(doc)
    if args.json:
        print(json.dumps({"ok": True, **_counts_dict(mesh)}))
    else:
        print(f"ok: {len(mesh.cells)} cells, {len(mesh.edges)} edges, {len(mesh.vertices)} vertices")
    return 0


def cmd_stats(args, parser):
    mesh = document_mesh(parse_tmesh(_read(args.file, parser)))
    payload = _counts_dict(mesh)
    if args.json:
        print(json.dumps(payload))
    else:
        ids = payload.pop("identities")
        for key, value in payload.items():
            print(f"{key} {value}")
        print(f"euler_ok {ids['euler_ok']}")
        print(f"nbf {'n/a' if not ids['rectangular'] else (ids['nbf_f2_ok'], ids['nbf_f1_ok'], ids['nbf_f0_ok'])}")
    return 0


def cmd_mis(args, parser):
    doc = parse_tmesh(_read(args.file, parser))
    mesh = document_mesh(doc)
    dist = _smoothness_for(args, doc, mesh, parser)
    degree = (args.m, args.n)
    analysis = analyze_segments(mesh)
    history = _history_for(args, parser, dist, degree)
    ordering, _ = dimension._choose_ordering(analysis, dist, degree, args.ordering, history)
    blocks = {}
    for a, b in blocking(analysis):
        blocks.setdefault(a, []).append(b)
    records = []
    for sid in analysis.mis:
        seg = analysis.segments[sid]
        w = segment_weight(analysis, dist, degree, ordering, sid)
        gamma = [list(map(format_rational, mesh.vertices[v].position)) for v in w.vertices]
        records.append(
            {
                "id": sid,
                "direction": seg.direction,
                "coord": format_rational(seg.coord),
                "span": [format_rational(seg.lo), format_rational(seg.hi)],
                "rank": ordering.index[sid],
                "lambda": w.count,
                "omega": w.weight,
                "gamma": gamma,
                "blocks": sorted(blocks.get(sid, [])),
            }
        )
    if args.json:
        print(json.dumps({"mis": records}))
    else:
        for rec in records:
            gamma = " ".join(f"({x},{y})" for x, y in rec["gamma"])
            print(
                f"mis {rec['id']} {rec['direction']} at {rec['coord']} span [{rec['span'][0]},{rec['span'][1]}]"
                f" lambda={rec['lambda']} omega={rec['omega']} gamma={gamma}"
                f" blocks={','.join(map(str, rec['blocks'])) or '-'}"
            )
        if not records:
            print("no maximal interior segments")
    return 0


def cmd_dim(args, parser):
    doc = parse_tmesh(_read(args.file, parser))
    mesh = document_mesh(doc)
    dist = _smoothness_for(args, doc, mesh, parser)
    degree = (args.m, args.n)
    history = _history_for(args, parser, dist, degree)
    analysis = analyze_segments(mesh)
    report = dimension.dimension_bounds(mesh, dist, degree, args.ordering, history, analysis=analysis)
    if args.dump_matrix:
        _write(args.dump_matrix, oracle.build_spline_system(mesh, dist, degree).dump_triplets(), parser)
    if args.exact:
        # dim = combinatorial term + h.  When the bounds pin h (a certificate
        # fired, or the paper's upper bound is 0), h is that value and nothing
        # is ranked; otherwise h is the rank defect of the segment
        # presentation, built on lattice ints.  The kernel of the cell system,
        # oracle.spline_dimension_exact, is the reference the tests hold this to.
        if report.h_lower == report.h_upper:
            h_value = report.h_lower
        else:
            h_value = oracle.h_via_mis_presentation(mesh, dist, degree, analysis)
        dim_value = report.combinatorial + h_value
        certificate = report.certificate
        if certificate == dimension.CERT_NONE:
            certificate = dimension.CERT_ORACLE
        report = report._replace(
            h_lower=h_value,
            h_upper=h_value,
            dim_lower=dim_value,
            dim_upper=dim_value,
            certificate=certificate,
            dim_exact=dim_value,
            h_exact=h_value,
        )
    if args.json:
        print(json.dumps(report.to_json_dict()))
    else:
        print(f"combinatorial {report.combinatorial}")
        print(f"h bounds [{report.h_lower}, {report.h_upper}] certificate {report.certificate}")
        print(f"dim bounds [{report.dim_lower}, {report.dim_upper}]")
        for part in report.per_segment:
            print(f"mis {part.segment} omega={part.weight} contribution={part.contribution}")
        if report.dim_exact is not None:
            print(f"dim {report.dim_exact}")
            print(f"h {report.h_exact}")
    return 0


def cmd_subdivide(args, parser):
    history = parse_tsub(_read(args.file, parser))
    rule = _parse_pair(args.weighted, "--weighted", parser) if args.weighted else None
    needs_rule = rule is not None or any(ev.rule is not None for ev in history.events)
    smoothness = degree = None
    if needs_rule:
        if not args.smooth or args.m is None or args.n is None:
            parser.error("weighted subdivision needs --smooth, -m and -n")
        smoothness = _parse_pair(args.smooth, "--smooth", parser)
        degree = (args.m, args.n)
    mesh, expanded = apply_history(history, smoothness, degree, rule)
    if args.emit_history:
        _write(args.emit_history, format_tsub(expanded), parser)
    doc = MeshDocument.make([c.rect for c in mesh.cells])
    if args.json:
        print(json.dumps({"cells": len(mesh.cells), "tmesh": format_tmesh(doc)}))
    else:
        sys.stdout.write(format_tmesh(doc))
    return 0


def cmd_svg(args, parser):
    mesh = document_mesh(parse_tmesh(_read(args.file, parser)))
    sys.stdout.write(render_svg(mesh))
    return 0


_COMMANDS = {
    "validate": cmd_validate,
    "stats": cmd_stats,
    "mis": cmd_mis,
    "dim": cmd_dim,
    "subdivide": cmd_subdivide,
    "svg": cmd_svg,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return _COMMANDS[args.command](args, parser)
    except SystemExit as exc:  # parser.error inside a command
        return int(exc.code) if exc.code else 0
    except MeshError as exc:
        return _emit_error(exc, getattr(args, "json", False))


if __name__ == "__main__":
    sys.exit(main())
