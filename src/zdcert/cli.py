"""Command-line interface.

Exit codes: 0 all checks pass, 1 some check failed, 2 input or usage error.
Each subcommand's handler imports the layers it uses, so `classgroup`,
`unit` and `principal` load only `quadratic` and `orders`; only `verify`
loads `pathlib`.
"""

from __future__ import annotations

import argparse
import sys

from .errors import InputDataError, ResourceLimitError

BUNDLED_DATASET = "newform276.json"


def bundled_dataset_path():
    """The bundled dataset's pathlib.Path."""
    from pathlib import Path

    return Path(__file__).with_name("data") / BUNDLED_DATASET


def _fraction(text: str):
    from fractions import Fraction

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
    from pathlib import Path

    from .certify import load_input, run_certificate

    if args.bundled == (args.file is not None):
        print("verify: provide exactly one of an input file or --bundled", file=sys.stderr)
        return 2
    path = bundled_dataset_path() if args.bundled else Path(args.file)
    try:
        inp = load_input(path)
    except InputDataError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    cert = run_certificate(inp)
    print(cert.render_text())
    if args.report:
        try:
            Path(args.report).write_text(cert.to_json())
        except OSError as exc:
            print(f"error: cannot write report to {args.report}: {exc.strerror or exc}", file=sys.stderr)
            return 2
        print(f"report written to {args.report}")
    return 0 if cert.verdict == "pass" else 1


def _cmd_classgroup(args) -> int:
    from .orders import class_group, maximal_order

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
    from .orders import fundamental_unit, maximal_order

    u = fundamental_unit(maximal_order(args.d))
    print(f"fundamental unit: {u}")
    print(f"norm: {u.norm()}")
    return 0


def _cmd_weil(args) -> int:
    from .quadratic import QuadElement
    from .weil import frobenius_charpoly, is_ordinary

    a_p = QuadElement(args.d, args.a, args.b)
    quartic = frobenius_charpoly(a_p, args.p)
    print(f"charpoly: {quartic.poly}")
    print(f"coefficients (constant first): {list(quartic.poly.coeffs)}")
    print(f"ordinary: {is_ordinary(quartic)}")
    return 0


def _cmd_principal(args) -> int:
    from fractions import Fraction

    from .orders import FracIdeal, maximal_order, principal_generator

    order = maximal_order(args.d)
    ideal = FracIdeal(order, args.a, args.b, Fraction(1, args.q))
    gen = principal_generator(ideal)
    if gen is None:
        print(f"{ideal}: not principal")
    else:
        print(f"{ideal}: principal, generated by {gen}")
    return 0


def main(argv: list[str] | None = None) -> int:
    if hasattr(sys.stdout, "reconfigure"):  # a stdout that cannot encode √ prints it as \u221a
        sys.stdout.reconfigure(errors="backslashreplace")
    args = build_parser().parse_args(argv)
    handlers = {
        "verify": _cmd_verify,
        "classgroup": _cmd_classgroup,
        "unit": _cmd_unit,
        "weil": _cmd_weil,
        "principal": _cmd_principal,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()  # inside the try, so a reader that already left is caught here
        return code
    except BrokenPipeError:
        # the reader closed stdout (say `| head`): send what is still buffered
        # to os.devnull, so the interpreter's final flush raises nothing either
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except (ValueError, ZeroDivisionError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
