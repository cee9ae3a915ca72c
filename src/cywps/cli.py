"""Command-line front end.

Exit codes: 0 success, 1 internal inconsistency detected by ``verify``
(Euler-number methods disagree), 2 usage or parse errors, 3 domain errors
(e.g. ``stringy`` on a weight vector without the IP-property).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .errors import DomainError
from .euler import (
    mirror_test,
    stringy_mirror_closed,
    stringy_polytope,
    vafa_double_sum,
    vafa_subset_sum,
)
from .exact import format_rational
from .mirror import ghv_polynomial
from .quasismooth import census_tsv, has_ip_property, is_transverse
from .wps import WeightVector, mirror_lattice, mirror_simplex, weight_flags


def _parse_weights(text: str) -> WeightVector:
    return WeightVector.parse(text)


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload))
    else:
        for key, value in payload.items():
            if isinstance(value, list):
                value = "; ".join(str(v) for v in value)
            print(f"{key}: {value}")


def _cmd_check(args) -> int:
    w = _parse_weights(args.weights)
    well_formed, gorenstein = weight_flags(w)
    _emit(
        {
            "weights": list(w.weights) if args.format == "json" else str(w),
            "degree": w.degree,
            "well_formed": well_formed,
            "gorenstein": gorenstein,
            "ip": has_ip_property(w),
            "transverse": is_transverse(w),
        },
        args.format,
    )
    return 0


def _cmd_euler(args) -> int:
    w = _parse_weights(args.weights)
    payload: dict = {
        "weights": list(w.weights) if args.format == "json" else str(w),
        "degree": w.degree,
        "method": args.method,
    }
    value = None
    if args.method in ("double-sum", "both"):
        value = vafa_double_sum(w)
        payload["chi_orb_double_sum"] = format_rational(value)
    if args.method in ("subset", "both"):
        result = vafa_subset_sum(w)
        value = result.value if value is None else value
        payload["chi_orb_subset_sum"] = format_rational(result.value)
        payload["subset_partials"] = [format_rational(p) for p in result.partials]
    payload["chi_orb_formula"] = format_rational(value)
    _emit(payload, args.format)
    return 0


def _cmd_stringy(args) -> int:
    w = _parse_weights(args.weights)
    payload: dict = {
        "weights": list(w.weights) if args.format == "json" else str(w),
        "degree": w.degree,
        "method": args.method,
    }
    value = None
    if args.method in ("closed-form", "both"):
        value = stringy_mirror_closed(w)
        payload["chi_str_closed_form"] = format_rational(value)
    if args.method in ("polytope", "both"):
        poly_value = stringy_polytope(mirror_lattice(w))
        value = poly_value if value is None else value
        payload["chi_str_polytope"] = format_rational(poly_value)
    payload["chi_str_mirror"] = format_rational(value)
    _emit(payload, args.format)
    return 0


def _cmd_mirror(args) -> int:
    w = _parse_weights(args.weights)
    poly = ghv_polynomial(w)
    if args.format == "json":
        print(json.dumps(poly.to_json_obj()))
    else:
        print(poly.to_text())
    return 0


def _cmd_verify(args) -> int:
    w = _parse_weights(args.weights)
    report = mirror_test(w)
    if args.dump_polytope:
        simplex = mirror_simplex(mirror_lattice(w))
        with open(args.dump_polytope, "w", encoding="ascii") as fh:
            fh.write(simplex.dump())
    if args.format == "json":
        print(report.to_json())
    else:
        _emit(report.to_dict(), "text")
    return 0 if report.methods_agree else 1


def _cmd_census(args) -> int:
    lines = census_tsv(args.dim, args.max_degree, args.filter, args.jobs or None)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            for line in lines:
                fh.write(line + "\n")
    else:
        for line in lines:
            print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cywps",
        description="Exact Euler numbers and polytope tests for Calabi-Yau "
        "hypersurfaces in weighted projective spaces",
    )
    parser.add_argument("--version", action="version", version=f"cywps {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_fmt(p, default="json", choices=("json", "text")):
        p.add_argument("--format", choices=choices, default=default)

    p = sub.add_parser("check", help="well-formed / Gorenstein / IP / transverse flags")
    p.add_argument("weights")
    add_fmt(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("euler", help="orbifold Euler number of the hypersurface")
    p.add_argument("weights")
    p.add_argument("--method", choices=("double-sum", "subset", "both"), default="both")
    add_fmt(p)
    p.set_defaults(func=_cmd_euler)

    p = sub.add_parser("stringy", help="stringy Euler number of the mirror")
    p.add_argument("weights")
    p.add_argument("--method", choices=("closed-form", "polytope", "both"), default="both")
    add_fmt(p)
    p.set_defaults(func=_cmd_stringy)

    p = sub.add_parser("mirror", help="Givental-Hori-Vafa mirror Laurent polynomial")
    p.add_argument("weights")
    add_fmt(p, default="text", choices=("text", "json"))
    p.set_defaults(func=_cmd_mirror)

    p = sub.add_parser("verify", help="full report with cross-checked methods")
    p.add_argument("weights")
    p.add_argument("--dump-polytope", metavar="PATH", default=None,
                   help="write the mirror simplex vertices to PATH, one per line")
    add_fmt(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("census", help="enumerate weight systems as TSV")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--filter", choices=("transverse", "ip", "all"), default="transverse")
    p.add_argument("--jobs", type=int, default=0, help="workers (default: CYWPS_JOBS or 1)")
    p.add_argument("--out", metavar="PATH", default=None)
    p.set_defaults(func=_cmd_census)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
