"""End-to-end certificate: from newform input data to a zero-divisor witness.

The pipeline rebuilds, in order: the class group of the Hecke-field order,
nonprincipality of the chosen ideal, the Frobenius quartics at two good
primes, their irreducibility / ordinarity / power-stability, the field
distinctness, the endomorphism-ring deduction, the Steinitz-level
square isomorphism, the dimension check, and finally the witness pair
whose product vanishes in the monoid ring of abelian-variety classes.

Facts that are used but not recomputed (they are theorems quoted from the
literature, not finite computations) are listed in the certificate as
assumed-by-citation, so the report is explicit about what was computed.
"""

from __future__ import annotations

import datetime
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any

from .errors import DeductionRefused, InputDataError, InvalidEigenvalueError
from .monoidring import AVMonoid, albanese_image, zero_divisor_witness
from .orders import FracIdeal, class_group, ideal_class, maximal_order, principal_generator
from .polynomials import IntPoly
from .quadratic import QuadElement
from .steinitz import ModuleClass, class_of_ideal_sum, direct_sum, free_module, tensor_av
from .weil import (
    DEFAULT_STABILITY_BOUND,
    NewformDatum,
    ReductionCertificate,
    certify_reduction,
    deduce_endomorphism_ring,
    distinct_fields_certificate,
)

COMPUTED = "computed"
ASSUMED = "assumed-by-citation"

BASE_TAG = "A"


@dataclass
class Check:
    name: str
    claim: str
    citation: str
    provenance: str
    inputs: dict[str, Any] = field(default_factory=dict)
    outputs: dict[str, Any] = field(default_factory=dict)
    verdict: str | None = None  # "pass" / "fail" for computed checks, None for assumed

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "claim": self.claim,
            "citation": self.citation,
            "provenance": self.provenance,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "verdict": self.verdict,
        }


@dataclass
class Certificate:
    input_echo: dict[str, Any]
    parameters: dict[str, Any]
    checks: list[Check]
    generated_at: str

    @property
    def computed_checks(self) -> list[Check]:
        return [c for c in self.checks if c.provenance == COMPUTED]

    @property
    def assumed_checks(self) -> list[Check]:
        return [c for c in self.checks if c.provenance == ASSUMED]

    @property
    def verdict(self) -> str:
        return "pass" if all(c.verdict == "pass" for c in self.computed_checks) else "fail"

    @property
    def failed_checks(self) -> list[Check]:
        return [c for c in self.computed_checks if c.verdict != "pass"]

    def to_dict(self) -> dict[str, Any]:
        return {
            "input": self.input_echo,
            "parameters": self.parameters,
            "checks": [c.to_dict() for c in self.checks],
            "verdict": self.verdict,
            "generated_at": self.generated_at,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def render_text(self) -> str:
        lines = []
        for i, c in enumerate(self.computed_checks, 1):
            mark = "PASS" if c.verdict == "pass" else "FAIL"
            lines.append(f"[{i:2d}] {mark}  {c.name}: {c.claim}")
            if c.verdict != "pass" and c.outputs.get("detail"):
                lines.append(f"           {c.outputs['detail']}")
        lines.append("")
        lines.append("assumed by citation (used, not recomputed):")
        for c in self.assumed_checks:
            lines.append(f"  - {c.name}: {c.claim} [{c.citation}]")
        lines.append("")
        n_pass = sum(1 for c in self.computed_checks if c.verdict == "pass")
        lines.append(
            f"OVERALL: {self.verdict.upper()} "
            f"({n_pass}/{len(self.computed_checks)} computed checks pass)"
        )
        return "\n".join(lines)


@dataclass(frozen=True)
class VerificationInput:
    datum: NewformDatum
    ideal_a: int
    ideal_b: int
    ideal_q: int
    golden_charpoly: IntPoly | None
    raw: dict[str, Any]


def _require(raw: dict, key: str, kind, location: str):
    if key not in raw:
        raise InputDataError(f"missing field '{key}'", location)
    value = raw[key]
    if kind is int and (not isinstance(value, int) or isinstance(value, bool)):
        raise InputDataError(f"field '{key}' must be an integer", location)
    if kind is list and not isinstance(value, list):
        raise InputDataError(f"field '{key}' must be an array", location)
    if kind is dict and not isinstance(value, dict):
        raise InputDataError(f"field '{key}' must be an object", location)
    return value


def parse_input(raw: dict[str, Any]) -> VerificationInput:
    level = _require(raw, "level", int, "level")
    d = _require(raw, "hecke_field_d", int, "hecke_field_d")
    expected_dim = _require(raw, "expected_dim", int, "expected_dim")
    eigen_raw = _require(raw, "eigenvalues", list, "eigenvalues")

    eigenvalues: dict[int, QuadElement] = {}
    for i, entry in enumerate(eigen_raw):
        loc = f"eigenvalues[{i}]"
        if not isinstance(entry, dict):
            raise InputDataError("eigenvalue entries must be objects", loc)
        p = _require(entry, "p", int, loc)
        coords = _require(entry, "a", list, loc)
        if len(coords) != 4 or not all(isinstance(c, int) for c in coords):
            raise InputDataError(
                "eigenvalue coordinates must be [a_num, a_den, b_num, b_den]", loc
            )
        if coords[1] == 0 or coords[3] == 0:
            raise InputDataError("denominators cannot be zero", loc)
        if p in eigenvalues:
            raise InputDataError(f"duplicate eigenvalue prime {p}", loc)
        try:
            eigenvalues[p] = QuadElement(
                d, Fraction(coords[0], coords[1]), Fraction(coords[2], coords[3])
            )
        except ValueError as exc:
            raise InputDataError(str(exc), loc) from exc

    if len(eigenvalues) < 2:
        raise InputDataError("need eigenvalues at two distinct good primes", "eigenvalues")

    ideal_raw = _require(raw, "ideal", dict, "ideal")
    ia = _require(ideal_raw, "a", int, "ideal.a")
    ib = _require(ideal_raw, "b", int, "ideal.b")
    iq = _require(ideal_raw, "q", int, "ideal.q")
    if ia <= 0:
        raise InputDataError("ideal parameter a must be positive", "ideal.a")
    if not 0 <= ib < ia:
        raise InputDataError("ideal parameter b must satisfy 0 <= b < a", "ideal.b")
    if iq <= 0:
        raise InputDataError("ideal denominator q must be positive", "ideal.q")

    golden = None
    if raw.get("paper_charpoly") is not None:
        coeffs = raw["paper_charpoly"]
        if not (isinstance(coeffs, list) and len(coeffs) == 5
                and all(isinstance(c, int) for c in coeffs)):
            raise InputDataError(
                "reference charpoly must be an array of 5 integers, constant term first",
                "paper_charpoly",
            )
        golden = IntPoly(coeffs)

    try:
        datum = NewformDatum(level, d, expected_dim, eigenvalues)
    except (ValueError, InvalidEigenvalueError) as exc:
        raise InputDataError(str(exc), "eigenvalues") from exc

    # the ideal triple must denote an actual ideal of the order
    try:
        order = maximal_order(d)
        FracIdeal(order, ia, ib, Fraction(1, iq))
    except ValueError as exc:
        raise InputDataError(str(exc), "ideal") from exc

    return VerificationInput(datum, ia, ib, iq, golden, raw)


def load_input(path: str | Path) -> VerificationInput:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputDataError(f"cannot read input file: {exc}", str(path)) from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputDataError(f"invalid JSON: {exc}", str(path)) from exc
    if not isinstance(raw, dict):
        raise InputDataError("input document must be a JSON object", str(path))
    return parse_input(raw)


def _fmt_poly(poly: IntPoly) -> list[int]:
    return list(poly.coeffs)


def run_certificate(inp: VerificationInput, bound: int = DEFAULT_STABILITY_BOUND) -> Certificate:
    """Run the full pipeline; every check lands in the certificate, pass or fail."""
    datum = inp.datum
    d = datum.hecke_field_d
    order = maximal_order(d)
    ideal = FracIdeal(order, inp.ideal_a, inp.ideal_b, Fraction(1, inp.ideal_q))
    checks: list[Check] = []

    def run(check: Check, body) -> Any:
        try:
            result = body()
            check.verdict = "pass"
            return result
        except _CheckFailure as exc:
            check.verdict = "fail"
            check.outputs["detail"] = str(exc)
            return exc.partial
        except (ValueError, ArithmeticError) as exc:
            check.verdict = "fail"
            check.outputs["detail"] = f"{type(exc).__name__}: {exc}"
            return None
        finally:
            checks.append(check)

    # (1) class group
    c1 = Check(
        "class_group",
        f"Pic of the maximal order of Q(√{d}) is Z/2 (class number 2)",
        "class group via reduction of ideals below the Minkowski bound",
        COMPUTED,
        inputs={"d": d, "disc": order.disc},
    )

    def body1():
        cg = class_group(order)
        c1.outputs.update({"h": cg.h, "invariants": list(cg.invariants)})
        if cg.invariants != (2,):
            raise _CheckFailure(f"class group is {cg} (h = {cg.h}), not Z/2", cg)
        return cg

    cg = run(c1, body1)

    # (2) the chosen ideal is nonprincipal with square trivial
    c2 = Check(
        "nonprincipal_ideal",
        "the chosen ideal I is nonprincipal and [I]^2 is trivial",
        "principality via the continued-fraction reduction cycle",
        COMPUTED,
        inputs={"ideal": str(ideal)},
    )

    def body2():
        gen = principal_generator(ideal)
        cls = ideal_class(ideal)
        square_trivial = (cls * cls).is_trivial
        c2.outputs.update(
            {"principal": gen is not None, "class_square_trivial": square_trivial}
        )
        if gen is not None:
            raise _CheckFailure(f"ideal is principal with generator {gen}", cls)
        if not square_trivial:
            raise _CheckFailure("the class of I does not square to the trivial class", cls)
        return cls

    ideal_cls = run(c2, body2)

    # (3) Frobenius characteristic polynomials at the two smallest good primes
    p1, p2 = datum.good_primes()[:2]
    c3 = Check(
        "frobenius_charpoly",
        f"the Frobenius quartics at p = {p1}, {p2} match the Hecke data"
        + (", and the first equals the reference polynomial" if inp.golden_charpoly else ""),
        "norm form of x^2 - a_p x + p (Eichler-Shimura congruence)",
        COMPUTED,
        inputs={
            "p1": p1,
            "a_p1": str(datum.eigenvalues[p1]),
            "p2": p2,
            "a_p2": str(datum.eigenvalues[p2]),
        },
    )

    def body3():
        from .weil import frobenius_charpoly

        q1 = frobenius_charpoly(datum.eigenvalues[p1], p1)
        q2 = frobenius_charpoly(datum.eigenvalues[p2], p2)
        c3.outputs.update({"charpoly_p1": _fmt_poly(q1.poly), "charpoly_p2": _fmt_poly(q2.poly)})
        if inp.golden_charpoly is not None and q1.poly != inp.golden_charpoly:
            raise _CheckFailure(
                f"computed {q1.poly} differs from the reference polynomial "
                f"{inp.golden_charpoly}",
                (q1, q2),
            )
        return q1, q2

    quartics = run(c3, body3)

    # (4)-(5) per-reduction certificates: shape, irreducibility, ordinarity, stability
    c4 = Check(
        "surface_checks",
        "both quartics are irreducible with Weil shape and ordinary middle coefficient",
        "rational-root and quadratic-pair factor search; gcd(c2, p) = 1",
        COMPUTED,
    )
    certs: dict[int, ReductionCertificate] = {}

    def body4():
        failures = []
        for p in (p1, p2):
            cert = certify_reduction(datum.eigenvalues[p], p, bound)
            certs[p] = cert
            c4.outputs[f"p{p}"] = {
                "irreducible": cert.irreducible,
                "ordinary": cert.ordinary,
                "middle_coefficient": cert.quartic.c2,
            }
            if not cert.irreducible:
                failures.append(f"quartic at {p} is reducible")
            if not cert.ordinary:
                failures.append(f"reduction at {p} is not ordinary")
        if failures:
            raise _CheckFailure("; ".join(failures), certs)
        return certs

    run(c4, body4)

    c5 = Check(
        "power_stability",
        f"Q(pi^n) = Q(pi) for n = 2..{bound} at both primes",
        "minimal polynomial of pi^n as squarefree part of Res_y(P(y), x - y^n); "
        "a root of unity in a quartic field has order at most 12, so bound 12 suffices",
        COMPUTED,
        inputs={"bound": bound},
    )

    def body5():
        failures = []
        for p in (p1, p2):
            cert = certs.get(p)
            if cert is None or cert.stability is None:
                failures.append(f"no stability report at {p} (quartic reducible?)")
                continue
            c5.outputs[f"p{p}"] = {
                "stable": cert.stability.stable,
                "minpoly_degrees": list(cert.stability.degrees),
            }
            if not cert.stability.stable:
                failures.append(f"stability fails at {p}: {cert.stability}")
        if failures:
            raise _CheckFailure("; ".join(failures), None)

    run(c5, body5)

    # (6) distinct quartic fields
    c6 = Check(
        "distinct_fields",
        "the two quartic Frobenius fields are distinct",
        "discriminant ratio is not a rational square (one-sided test)",
        COMPUTED,
    )

    def body6():
        if not quartics:
            raise _CheckFailure("no quartics available", None)
        verdict = distinct_fields_certificate(quartics[0], quartics[1])
        c6.outputs["distinctness"] = verdict
        if verdict != "distinct":
            raise _CheckFailure("discriminant ratio is a rational square: inconclusive", verdict)
        return verdict

    distinctness = run(c6, body6)

    # (7) endomorphism-ring deduction
    c7 = Check(
        "endomorphism_ring",
        f"the endomorphism ring over any characteristic-zero extension is the "
        f"maximal order of Q(√{d})",
        "dimension squeeze: embeds in two distinct quartic fields, contains Q(√d) "
        "(Howe-Zhu endomorphism criterion for the per-prime inputs)",
        COMPUTED,
    )

    def body7():
        try:
            conclusion = deduce_endomorphism_ring(
                d, certs.get(p1), certs.get(p2), distinctness or "inconclusive"
            )
        except DeductionRefused as exc:
            raise _CheckFailure(f"deduction refused: {exc}", None)
        c7.outputs.update(
            {"conclusion": conclusion.conclusion, "hypotheses": list(conclusion.hypotheses)}
        )
        return conclusion

    run(c7, body7)

    # (8) Steinitz: O + O = I + I, hence A x A = B x B while A != B over the closure
    c8 = Check(
        "steinitz_squares",
        "O + O and I + I have the same module class, so A x A = B x B; "
        "I nonprincipal keeps A and B nonisomorphic",
        "projective modules over a Dedekind domain are classified by (rank, Steinitz class)",
        COMPUTED,
    )

    def body8():
        if ideal_cls is None:
            raise _CheckFailure("no ideal class available", None)
        free2 = free_module(order, 2)
        sum_ii = class_of_ideal_sum([ideal_cls, ideal_cls])
        also_sum = direct_sum(ModuleClass(1, ideal_cls), ModuleClass(1, ideal_cls))
        c8.outputs.update(
            {"class_O_plus_O": str(free2), "class_I_plus_I": str(sum_ii)}
        )
        if sum_ii != free2 or also_sum != free2:
            raise _CheckFailure(f"I + I has class {sum_ii}, O + O has class {free2}", None)
        a_cls = tensor_av(free_module(order, 1), BASE_TAG)
        b_cls = tensor_av(ModuleClass(1, ideal_cls), BASE_TAG)
        if tensor_av(free2, BASE_TAG) != tensor_av(sum_ii, BASE_TAG):
            raise _CheckFailure("A x A and B x B classes differ under the tensor functor", None)
        if a_cls == b_cls:
            raise _CheckFailure("A and B coincide, the witness would be trivial", None)
        return a_cls, b_cls

    ab = run(c8, body8)

    # (9) dimension check
    c9 = Check(
        "dimension",
        "the declared dimension equals the degree of the Hecke eigenvalue field",
        "dim A_f = [F : Q] for the field F generated by the eigenvalues",
        COMPUTED,
        inputs={"expected_dim": datum.expected_dim},
    )

    def body9():
        # the eigenvalues generate Q(√d) iff one of them has a nonzero √d part
        degree = 2 if any(a_p.b != 0 for a_p in datum.eigenvalues.values()) else 1
        c9.outputs["hecke_field_degree"] = degree
        if datum.expected_dim != degree:
            raise _CheckFailure(
                f"declared dimension {datum.expected_dim} != field degree {degree}", None
            )

    run(c9, body9)

    # (10) the zero-divisor witness in Z[AV]
    c10 = Check(
        "zero_divisor_witness",
        "x = e[A] + e[B] and y = e[A] - e[B] are nonzero with x*y = 0 in Z[AV]",
        "monoid-ring convolution over abelian-variety classes; "
        "images under the Albanese functor",
        COMPUTED,
    )

    def body10():
        if ideal_cls is None or not ab:
            raise _CheckFailure("earlier checks left no A, B classes to compare", None)
        monoid = AVMonoid(BASE_TAG, order)
        e_a = albanese_image(monoid, [free_module(order, 1)])
        e_b = albanese_image(monoid, [ModuleClass(1, ideal_cls)])
        report = zero_divisor_witness(e_a + e_b, e_a - e_b)
        c10.outputs.update(
            {
                "x": report.x_canonical,
                "y": report.y_canonical,
                "product": report.product_canonical,
                "accepted": report.accepted,
            }
        )
        if not report.accepted:
            raise _CheckFailure(f"witness refused: {report.reason}", report)
        return report

    run(c10, body10)

    checks.extend(_assumed_checks(datum, d, p1, p2))

    parameters = {"stability_bound": bound, "base_tag": BASE_TAG}
    generated_at = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return Certificate(dict(inp.raw), parameters, checks, generated_at)


class _CheckFailure(Exception):
    def __init__(self, message: str, partial: Any):
        super().__init__(message)
        self.partial = partial


def _assumed_checks(datum: NewformDatum, d: int, p1: int, p2: int) -> list[Check]:
    mk = lambda name, claim, citation: Check(name, claim, citation, ASSUMED)
    return [
        mk(
            "good_reduction",
            f"the modular abelian surface has good reduction at {p1} and {p2} "
            f"(primes not dividing the level {datum.level})",
            "Shimura's construction of A_f as a quotient of J_1(N); "
            "reduction theory of abelian varieties",
        ),
        mk(
            "eichler_shimura",
            "the Frobenius characteristic polynomial at p is the norm form of "
            "x^2 - a_p x + p",
            "Eichler-Shimura congruence relation",
        ),
        mk(
            "reduction_injects",
            "End over any extension field injects into the endomorphism ring of the "
            "reduction at a place of good reduction",
            "specialization of endomorphisms of abelian varieties",
        ),
        mk(
            "hecke_subring",
            f"Z[√{d}] acts on the surface through the Hecke correspondences, "
            "so it embeds in End over every extension",
            "Hecke action on modular abelian varieties",
        ),
        mk(
            "grothendieck_to_monoid_ring",
            "the class map from the variety Grothendieck ring through stable "
            "birational classes to Z[AV] is a ring homomorphism in characteristic zero, "
            "so nonvanishing in Z[AV] lifts to nonvanishing there",
            "Larsen-Lunts presentation of the Grothendieck ring; "
            "Albanese functoriality; resolution of singularities and weak factorization",
        ),
        mk(
            "eigenvalue_tables",
            f"the level-{datum.level} newform has the recorded eigenvalues "
            f"a_{p1}, a_{p2} generating Q(√{d})",
            "published modular-form tables",
        ),
    ]
