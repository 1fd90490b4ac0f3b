"""Command-line front end.

Exit codes: 0 success, 1 usage or parse failure, 2 the region is
certified not rigidly convex (with the witness in the output), 3 a
construction or reduction failed.  All randomness flows from --seed;
identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii
from typing import List, Optional, Sequence

from .construct import MISMATCH, represent, verify_representation
from .errors import (CertifiedNotRZError, ConstructionError, LmicertError,
                     ParseError, ReductionError)
from .pencil import (determinant_polynomial, format_pencil, parse_pencil,
                     reduce_to_monic)
from .poly import format_polynomial, format_rational, parse_polynomial, \
    parse_rational
from .rzcheck import (BoundaryData, RaySampler, RZVerdict, boundary_samples,
                      hyperbolicity_check, rigid_convexity_check)
from .topology import nesting_consistency_report, oval_profile

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_RZ = 2
EXIT_CONSTRUCTION = 3


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _json(document) -> str:
    """json.dumps(document, indent=2, sort_keys=True) plus a newline,
    the same bytes, written by one recursive pass: with indent set,
    json.dumps falls back to its pure-Python encoder, which takes about
    twice as long on the golden documents.  Keys must be strings.  The
    line tests' verdicts and the boundary samples do not come here:
    _verdict_json and _boundary_json write their records to text in one
    pass from a % template, with no document built."""
    return _json_text(document, "\n") + "\n"


# the writer of each exact scalar type, as json.dumps writes it; a
# subclass takes json.dumps itself
_SCALAR_JSON = {str: encode_basestring_ascii, int: int.__repr__,
                float: json.dumps, bool: ("false", "true").__getitem__,
                type(None): lambda _: "null"}


def _json_text(value, newline: str) -> str:
    """value's JSON text; newline is the line break and indent that come
    before its closing bracket."""
    scalar = _SCALAR_JSON.get
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        return ("[" + inner + ("," + inner).join([
            w(v) if (w := scalar(type(v))) else _json_text(v, inner)
            for v in value]) + newline + "]")
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        return ("{" + inner + ("," + inner).join([
            encode_basestring_ascii(k) + ": "
            + (w(v) if (w := scalar(type(v))) else _json_text(v, inner))
            for k, v in sorted(value.items())]) + newline + "}")
    write = scalar(type(value))
    return write(value) if write else json.dumps(value)


def _parse_point(text: Optional[str], num_vars: int):
    if text is None:
        return (Fraction(0),) * num_vars
    parts = [t.strip() for t in text.split(",")]
    if len(parts) != num_vars:
        raise ParseError(f"--point needs {num_vars} comma-separated values")
    return tuple(parse_rational(t) for t in parts)


def _parse_tol(text: str) -> float:
    """A finite tolerance >= 0: an infinite one accepts any pencil."""
    try:
        tol = float(text)
        if tol >= 0 and math.isfinite(tol):
            return tol
    except ValueError:
        pass
    raise ParseError(f"--tol must be a finite number >= 0, got {text!r}")


def _sampler(args, num_vars: int, extra_directions=()) -> RaySampler:
    return RaySampler(num_vars, deterministic_count=args.rays,
                      random_count=args.random, seed=args.seed,
                      extra_directions=extra_directions)


def _fmt_direction(direction) -> List[str]:
    return list(map(str, direction))


# one per-ray record at its depth in the verdict; a direction's entries
# are str(Fraction), the format_rational text, which JSON writes as it
# is, quoted
_RAY_JSON = ('{\n      "at_infinity": %d,\n      "degree": %d,\n'
             '      "direction": [\n        "%s"\n      ],\n'
             '      "distinct": %d,\n      "with_multiplicity": %d\n    }')


def _verdict_json(verdict: RZVerdict) -> str:
    """The verdict's JSON text, in the layout of
    json.dumps(document, indent=2, sort_keys=True) plus a newline, each
    record written to text as it is read."""
    rays = ",\n    ".join([
        _RAY_JSON % (r.at_infinity, r.degree,
                     '",\n        "'.join(map(str, r.direction)),
                     r.distinct, r.with_multiplicity)
        for r in verdict.per_ray])
    witness = ("null" if verdict.witness is None else '[\n    "%s"\n  ]'
               % '",\n    "'.join(map(str, verdict.witness[0])))
    return ('{\n  "degenerate_flag": %s,\n  "kind": %s,\n'
            '  "per_ray": %s,\n  "ray_count": %d,\n  "seed": %d,\n'
            '  "witness_direction": %s\n}\n'
            % (_json_text(verdict.degenerate, ""),
               encode_basestring_ascii(verdict.kind),
               "[\n    " + rays + "\n  ]" if rays else "[]",
               verdict.rays_checked, verdict.seed, witness))


def cmd_scan(args) -> int:
    p = parse_polynomial(_read(args.input))
    point = _parse_point(args.point, p.num_vars)
    # looked up per call: the parser is cached and holds no check
    check = (rigid_convexity_check if args.command == "check"
             else hyperbolicity_check)
    verdict = check(p, point, _sampler(args, p.num_vars))
    _emit(_verdict_json(verdict), args.out)
    return EXIT_OK if verdict.kind == "ProbablyRZ" else EXIT_NOT_RZ


def cmd_represent(args) -> int:
    p = parse_polynomial(_read(args.input))
    if any(_parse_point(args.point, p.num_vars)):
        raise ValueError(f"--point {args.point} is not the origin; "
                         "represent builds the pencil at the origin")
    factors = None
    if args.factors:
        factors = _parse_factor_file(_read(args.factors))
    result = represent(p, tol=args.tol, factors=factors, seed=args.seed,
                       sampler=_sampler(args, p.num_vars))
    pencil_text = format_pencil(result.pencil)
    report = {
        "method": result.method,
        "residual": result.residual,
        "kind": result.outcome.kind,
        "constant": (None if result.outcome.constant is None
                     else format_rational(result.outcome.constant)),
        "coordinate_change": (None if result.coordinate_change is None
                              else [[format_rational(v) for v in row]
                                    for row in result.coordinate_change]),
        "size": result.pencil.size,
        "pencil": pencil_text,
    }
    if args.out:
        _emit(pencil_text, args.out)
    sys.stdout.write(_json(report))
    return EXIT_OK


def _parse_factor_file(text: str) -> List:
    """Factor files hold several polynomial documents separated by
    blank lines; each block follows the usual polynomial format."""
    blocks: List[List[str]] = [[]]
    for raw in text.splitlines():
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            if blocks[-1]:
                blocks.append([])
            continue
        blocks[-1].append(raw)
    if not blocks[-1]:
        blocks.pop()
    if not blocks:
        raise ParseError("factor file holds no polynomials")
    return [parse_polynomial("\n".join(block)) for block in blocks]


def cmd_verify(args) -> int:
    p = parse_polynomial(_read(args.input))
    pencil = parse_pencil(_read(args.pencil))
    outcome = verify_representation(p, pencil, tol=args.tol)
    document = {
        "kind": outcome.kind,
        "constant": (None if outcome.constant is None
                     else format_rational(outcome.constant)),
        "residual": outcome.residual,
        "worst_monomial": (None if outcome.worst_monomial is None
                           else list(outcome.worst_monomial)),
        "membership_points": outcome.membership_points,
    }
    _emit(_json(document), args.out)
    return EXIT_OK if outcome.kind != MISMATCH else EXIT_CONSTRUCTION


def cmd_det(args) -> int:
    pencil = parse_pencil(_read(args.input))
    _emit(format_polynomial(determinant_polynomial(pencil)), args.out)
    return EXIT_OK


def cmd_reduce_monic(args) -> int:
    pencil = parse_pencil(_read(args.input))
    reduction = reduce_to_monic(pencil)
    document = {
        "det_scale": format_rational(reduction.det_scale),
        "rank": reduction.rank,
        "pencil": format_pencil(reduction.pencil),
    }
    _emit(_json(document), args.out)
    return EXIT_OK


def cmd_topology(args) -> int:
    p = parse_polynomial(_read(args.input))
    point = _parse_point(args.point, p.num_vars)
    sampler = _sampler(args, p.num_vars, extra_directions=((1, 0), (0, 1)))
    profile = oval_profile(p, point, sampler, resolution=args.resolution)
    if args.format == "csv":
        lines = ["ray,direction_x,direction_y,parameter,multiplicity"]
        for idx, ray in enumerate(profile.rays):
            dx, dy = _fmt_direction(ray.direction)
            for value, mult in ray.parameters:
                lines.append(f"{idx},{dx},{dy},{format_rational(value)},"
                             f"{mult}")
        _emit("\n".join(lines) + "\n", args.out)
        return EXIT_OK
    flagged = nesting_consistency_report(profile)
    document = {
        "degree": profile.degree,
        "ovals": profile.ovals,
        "pseudo_line": profile.pseudo_line,
        "consistent": profile.consistent,
        "ray_count": len(profile.rays),
        "flagged_rays": [
            {
                "direction": _fmt_direction(r.direction),
                "negative_count": r.negative_count,
                "positive_count": r.positive_count,
                "at_infinity": r.at_infinity,
                "has_multiple_root": r.has_multiple_root,
            }
            for r in flagged
        ],
    }
    _emit(_json(document), args.out)
    return EXIT_OK


def _boundary_csv(data: BoundaryData) -> str:
    by_ray = {}
    for sample in data.samples:
        by_ray.setdefault(sample.direction, [None, None])
        if sample.parameter > 0:
            by_ray[sample.direction][1] = sample.parameter
        else:
            by_ray[sample.direction][0] = sample.parameter
    lines = ["angle,mu_minus,mu_plus,x,y"]
    for sample in data.samples:
        mu_minus, mu_plus = by_ray[sample.direction]
        lines.append(",".join([
            format_rational(sample.angle),
            "" if mu_minus is None else format_rational(mu_minus),
            "" if mu_plus is None else format_rational(mu_plus),
            format_rational(sample.point[0]),
            format_rational(sample.point[1]),
        ]))
    return "\n".join(lines) + "\n"


def _boundary_svg(data: BoundaryData) -> str:
    pts = [(float(s.point[0]), float(s.point[1])) for s in data.samples]
    if not pts:
        return ('<svg xmlns="http://www.w3.org/2000/svg" '
                'viewBox="0 0 10 10"></svg>\n')
    xs, ys = [x for x, _ in pts], [y for _, y in pts]
    lo_x, hi_x, lo_y, hi_y = min(xs), max(xs), min(ys), max(ys)
    span = max(hi_x - lo_x, hi_y - lo_y, 1e-9)
    pad = 0.1 * span
    view = "%.6f %.6f %.6f %.6f" % (lo_x - pad, -(hi_y + pad),
                                    hi_x - lo_x + 2 * pad,
                                    hi_y - lo_y + 2 * pad)
    # y flipped so the picture is in the usual orientation; the loop is
    # closed only when every scan direction found a crossing
    coords = " ".join("%.6f,%.6f" % (x, -y) for x, y in pts)
    tag = "polyline" if data.unbounded_angles else "polygon"
    return (
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="' + view + '">\n'
        '  <' + tag + ' points="' + coords + '" fill="none" stroke="black"'
        ' stroke-width="%.6f"/>\n' % (0.02 * span) +
        "</svg>\n")


# one boundary sample at its depth in the document; every entry is a
# str(Fraction), which JSON writes as it is, quoted
_SAMPLE_JSON = ('{\n      "angle": "%s",\n      "direction": [\n'
                '        "%s",\n        "%s"\n      ],\n'
                '      "parameter": "%s",\n      "x": "%s",\n'
                '      "y": "%s"\n    }')


def _boundary_json(data: BoundaryData) -> str:
    """The boundary samples' JSON text, in the layout of
    json.dumps(document, indent=2, sort_keys=True) plus a newline, each
    sample written to text as it is read."""
    samples = ",\n    ".join([
        _SAMPLE_JSON % (s.angle, *s.direction, s.parameter, *s.point)
        for s in data.samples])
    angles = '",\n    "'.join(map(str, data.unbounded_angles))
    return ('{\n  "samples": %s,\n  "unbounded_angles": %s\n}\n'
            % ("[\n    " + samples + "\n  ]" if samples else "[]",
               '[\n    "' + angles + '"\n  ]' if angles else "[]"))


def cmd_boundary(args) -> int:
    p = parse_polynomial(_read(args.input))
    point = _parse_point(args.point, p.num_vars)
    data = boundary_samples(p, point, rays=args.rays,
                            resolution=args.resolution)
    if args.format == "csv":
        _emit(_boundary_csv(data), args.out)
    elif args.format == "svg":
        _emit(_boundary_svg(data), args.out)
    else:
        _emit(_boundary_json(data), args.out)
    return EXIT_OK


# every option, declared once; a command takes only those it reads
_OPTIONS = {
    "--point": dict(help="base point, comma-separated rationals "
                         "(default: origin)"),
    "--rays": dict(type=int, default=181,
                   help="deterministic ray count (default 181)"),
    "--random": dict(type=int, default=64,
                     help="random ray count (default 64)"),
    "--seed": dict(type=int, default=0,
                   help="seed for all randomness (default 0)"),
    "--tol": dict(type=_parse_tol, default=1e-9,
                  help="numeric tolerance (default 1e-9)"),
    "--resolution": dict(type=parse_rational, default=Fraction(1, 2 ** 20),
                         help="root isolation width (default 1/1048576)"),
    "--out": dict(help="output file (default: stdout)"),
    "--format": dict(default="json", help="output format where supported"),
    "--factors": dict(help="file of factor polynomials separated by blank "
                           "lines; the result is their direct sum"),
}


def _options(parser, *names, **extra) -> argparse.ArgumentParser:
    for name in names:
        parser.add_argument(name, **_OPTIONS[name], **extra)
    return parser


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built by the first main call and reused."""
    parser = argparse.ArgumentParser(
        prog="lmicert",
        description="certify rigid convexity of plane algebraic regions "
                    "and build monic pencil representations")
    # parents share their option objects, cheaper than adding each anew
    out = _options(argparse.ArgumentParser(add_help=False), "--out")
    scan = _options(argparse.ArgumentParser(add_help=False, parents=[out]),
                    "--point", "--rays", "--random", "--seed")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, *options, parent=out):
        p = sub.add_parser(name, help=help_text, parents=[parent])
        p.add_argument("input", help="input file")
        p.set_defaults(func=func, parser=p)
        return _options(p, *options)

    add("check", cmd_scan, "line test for rigid convexity at a base point",
        parent=scan)
    add("hyperbolic", cmd_scan, "line test for the homogenized polynomial",
        parent=scan)
    add("represent", cmd_represent,
        "build a monic pencil whose determinant matches the polynomial",
        "--tol", "--factors", parent=scan)
    add("verify", cmd_verify,
        "compare a pencil determinant against a polynomial",
        "--tol").add_argument("pencil", help="pencil file")
    add("det", cmd_det, "expand a pencil determinant to a polynomial file")
    add("reduce-monic", cmd_reduce_monic,
        "convert a pencil with positive semidefinite constant term to "
        "an equivalent monic one")
    _options(add("topology", cmd_topology,
                 "count nested ovals of the region's boundary curve",
                 "--resolution", parent=scan),
             "--format", choices=["json", "csv"])
    _options(add("boundary", cmd_boundary,
                 "sample the region boundary along rays from the base point",
                 "--point", "--rays", "--resolution"),
             "--format", choices=["json", "csv", "svg"])
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        # argparse passes on the ParseError of --resolution's or --tol's type
        args, extra = parser.parse_known_args(argv)
        if extra:
            # the command's own parser prints the command's usage
            args.parser.error("unrecognized arguments: " + " ".join(extra))
        return args.func(args)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    except CertifiedNotRZError as exc:
        document = {"error": str(exc), "kind": "CertifiedNotRZ"}
        if exc.verdict is not None and exc.verdict.witness is not None:
            document["witness_direction"] = _fmt_direction(
                exc.verdict.witness[0])
        sys.stdout.write(_json(document))
        return EXIT_NOT_RZ
    except (ConstructionError, ReductionError) as exc:
        document = {"error": str(exc), "kind": type(exc).__name__}
        residual = getattr(exc, "residual", None)
        if residual is not None:
            document["residual"] = residual
        sys.stdout.write(_json(document))
        return EXIT_CONSTRUCTION
    except (LmicertError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
