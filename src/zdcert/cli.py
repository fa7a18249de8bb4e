"""Command-line interface.

Exit codes: 0 all checks pass, 1 some check failed, 2 input or usage error.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .certify import load_input, run_certificate
from .errors import InputDataError, ResourceLimitError
from .orders import (
    CLASS_GROUP_BOUND,
    FracIdeal,
    class_group,
    fundamental_unit,
    maximal_order,
    principal_generator,
)
from .quadratic import QuadElement
from .weil import DEFAULT_STABILITY_BOUND, frobenius_charpoly, is_ordinary

BUNDLED_DATASET = "newform276.json"


def bundled_dataset_path() -> Path:
    return Path(str(resources.files("zdcert").joinpath("data", BUNDLED_DATASET)))


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zdcert",
        description="Exact-arithmetic certificate for a zero-divisor pair built "
        "from abelian-variety classes over a class-number-2 field.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the full certificate pipeline on a dataset")
    p_verify.add_argument("file", nargs="?", help="JSON input file")
    p_verify.add_argument("--bundled", action="store_true", help="use the bundled dataset")
    p_verify.add_argument("--bound", type=int, default=DEFAULT_STABILITY_BOUND,
                          help="power-stability bound (default %(default)s)")
    p_verify.add_argument("--report", metavar="OUT.json", help="write the JSON report here")

    p_cg = sub.add_parser("classgroup", help="class group of the maximal order of Q(sqrt(d))")
    p_cg.add_argument("--d", type=int, required=True)

    p_unit = sub.add_parser("unit", help="fundamental unit of a real quadratic order")
    p_unit.add_argument("--d", type=int, required=True)

    p_weil = sub.add_parser("weil", help="Frobenius quartic from an eigenvalue a + b*sqrt(d)")
    p_weil.add_argument("--p", type=int, required=True)
    p_weil.add_argument("--a", type=_fraction, required=True)
    p_weil.add_argument("--b", type=_fraction, required=True)
    p_weil.add_argument("--d", type=int, required=True)

    p_prin = sub.add_parser("principal", help="principality of the ideal (1/q)(aZ + (b+w)Z)")
    p_prin.add_argument("--d", type=int, required=True)
    p_prin.add_argument("--a", type=int, required=True)
    p_prin.add_argument("--b", type=int, required=True)
    p_prin.add_argument("--q", type=int, default=1)

    return parser


def _cmd_verify(args) -> int:
    if args.bundled == (args.file is not None):
        print("verify: provide exactly one of an input file or --bundled", file=sys.stderr)
        return 2
    path = bundled_dataset_path() if args.bundled else Path(args.file)
    try:
        inp = load_input(path)
    except InputDataError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    if args.bound < 2:
        print("--bound must be at least 2", file=sys.stderr)
        return 2
    cert = run_certificate(inp, bound=args.bound)
    print(cert.render_text())
    if args.report:
        Path(args.report).write_text(cert.to_json())
        print(f"report written to {args.report}")
    return 0 if cert.verdict == "pass" else 1


def _cmd_classgroup(args) -> int:
    # |disc| >= |d|: refuse before maximal_order's trial-division squarefree test
    if abs(args.d) > CLASS_GROUP_BOUND:
        raise ResourceLimitError(f"|d| = {abs(args.d)} exceeds the bound {CLASS_GROUP_BOUND}")
    order = maximal_order(args.d)
    cg = class_group(order)
    print(f"discriminant: {order.disc}")
    print(f"class group: {cg} (h = {cg.h})")
    for ideal in cg.generators:
        print(f"  generator ideal: {ideal}")
    for cls in cg.classes:
        print(f"  class representative: {cls.rep}")
    return 0


def _cmd_unit(args) -> int:
    u = fundamental_unit(maximal_order(args.d))
    print(f"fundamental unit: {u}")
    print(f"norm: {u.norm()}")
    return 0


def _cmd_weil(args) -> int:
    a_p = QuadElement(args.d, args.a, args.b)
    quartic = frobenius_charpoly(a_p, args.p)
    print(f"charpoly: {quartic.poly}")
    print(f"coefficients (constant first): {list(quartic.poly.coeffs)}")
    print(f"ordinary: {is_ordinary(quartic)}")
    return 0


def _cmd_principal(args) -> int:
    order = maximal_order(args.d)
    ideal = FracIdeal(order, args.a, args.b, Fraction(1, args.q))
    gen = principal_generator(ideal)
    if gen is None:
        print(f"{ideal}: not principal")
    else:
        print(f"{ideal}: principal, generated by {gen}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "verify": _cmd_verify,
        "classgroup": _cmd_classgroup,
        "unit": _cmd_unit,
        "weil": _cmd_weil,
        "principal": _cmd_principal,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, ZeroDivisionError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
