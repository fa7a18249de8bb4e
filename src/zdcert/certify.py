"""End-to-end certificate: from newform input data to a zero-divisor witness.

The ten computed checks are the rows of _CHECKS, which run_certificate runs in
order in one loop, the only place that sets verdicts.  They rebuild: the class
group of the Hecke-field order, nonprincipality of the chosen ideal, the
Frobenius quartics at two good primes, their irreducibility / ordinarity /
power-stability, the field distinctness, the endomorphism-ring deduction, the
Steinitz-level square isomorphism, the dimension check, and finally the
witness pair whose product vanishes in the monoid ring of abelian-variety
classes.

Facts that are used but not recomputed (theorems quoted from the literature,
not finite computations) are the rows of _ASSUMED, listed in the certificate
as assumed-by-citation, so the report is explicit about what was computed.
"""

from __future__ import annotations

import datetime
import json
from fractions import Fraction
from pathlib import Path

from .errors import DeductionRefused, InputDataError
from .monoidring import AVMonoid, albanese_image, zero_divisor_witness
from .orders import (
    FracIdeal,
    IdealClass,
    QuadOrder,
    class_group,
    ideal_class,
    maximal_order,
    principal_generator,
)
from .polynomials import IntPoly
from .quadratic import CLASS_GROUP_BOUND, QuadElement, _element, _Value
from .steinitz import AVClass, ModuleClass, class_of_ideal_sum, direct_sum, free_module, tensor_av
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

# size caps of parse_input, checked before any trial division: the level is
# factored by trial division up to its square root, so 10^12 keeps that within
# 10^6 steps; the eigenvalue primes share the bound, far inside is_prime's proven
# range, and it keeps the power sums of the stability sweep (about
# 3 * DEFAULT_STABILITY_BOUND * log2(p) bits) small
LEVEL_BOUND = 10**12
PRIME_BOUND = 10**12


class Check:
    __slots__ = ("name", "claim", "citation", "provenance", "inputs", "outputs", "verdict")

    def __init__(self, name: str, claim: str, citation: str, provenance: str,
                 inputs: dict[str, object] | None = None, outputs: dict[str, object] | None = None,
                 verdict: str | None = None):
        self.name, self.claim, self.citation, self.provenance = name, claim, citation, provenance
        self.inputs = {} if inputs is None else inputs
        self.outputs = {} if outputs is None else outputs
        self.verdict = verdict  # "pass" / "fail" for computed checks, None for assumed

    def to_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "claim": self.claim,
            "citation": self.citation,
            "provenance": self.provenance,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "verdict": self.verdict,
        }


class Certificate:
    __slots__ = ("input_echo", "parameters", "checks", "generated_at")

    def __init__(self, input_echo: dict[str, object], parameters: dict[str, object], checks: list[Check],
                 generated_at: str):
        self.input_echo, self.parameters, self.checks = input_echo, parameters, checks
        self.generated_at = generated_at

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

    def to_dict(self) -> dict[str, object]:
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


class VerificationInput(_Value):
    """(datum, ideal, golden_charpoly, raw): the parsed input, its reference
    polynomial or None, and the raw JSON document."""

    __slots__ = ("datum", "ideal", "golden_charpoly", "raw")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)  # JSON true is no integer


def _require(raw: dict, key: str, kind, location: str):
    if key not in raw:
        raise InputDataError(f"missing field '{key}'", location)
    value = raw[key]
    if kind is int and not _is_int(value):
        raise InputDataError(f"field '{key}' must be an integer", location)
    if kind is list and not isinstance(value, list):
        raise InputDataError(f"field '{key}' must be an array", location)
    if kind is dict and not isinstance(value, dict):
        raise InputDataError(f"field '{key}' must be an object", location)
    return value


def parse_input(raw: dict[str, object]) -> VerificationInput:
    """The validated input, or a located InputDataError; sizes are capped before any factoring."""
    if not isinstance(raw, dict):
        raise InputDataError("input document must be a JSON object")
    level = _require(raw, "level", int, "level")
    if level > LEVEL_BOUND:
        raise InputDataError(f"level exceeds the bound {LEVEL_BOUND}", "level")
    if level < 1:
        raise InputDataError("level must be a positive integer", "level")
    d = _require(raw, "hecke_field_d", int, "hecke_field_d")
    if abs(d) > CLASS_GROUP_BOUND:
        raise InputDataError(f"|hecke_field_d| exceeds the bound {CLASS_GROUP_BOUND}", "hecke_field_d")
    try:
        order = maximal_order(d)
    except ValueError as exc:
        raise InputDataError(str(exc), "hecke_field_d") from exc
    if d <= 1:
        raise InputDataError("the Hecke field must be real quadratic (d > 1)", "hecke_field_d")
    expected_dim = _require(raw, "expected_dim", int, "expected_dim")
    if expected_dim < 1:
        raise InputDataError("expected dimension must be positive", "expected_dim")
    eigen_raw = _require(raw, "eigenvalues", list, "eigenvalues")

    eigenvalues: dict[int, QuadElement] = {}
    for i, entry in enumerate(eigen_raw):
        loc = f"eigenvalues[{i}]"
        if not isinstance(entry, dict):
            raise InputDataError("eigenvalue entries must be objects", loc)
        p = _require(entry, "p", int, loc)
        if p > PRIME_BOUND:
            raise InputDataError(f"eigenvalue prime exceeds the bound {PRIME_BOUND}", loc)
        coords = _require(entry, "a", list, loc)
        if len(coords) != 4 or not all(_is_int(c) for c in coords):
            raise InputDataError(
                "eigenvalue coordinates must be [a_num, a_den, b_num, b_den]", loc
            )
        if coords[1] == 0 or coords[3] == 0:
            raise InputDataError("denominators cannot be zero", loc)
        if p in eigenvalues:
            raise InputDataError(f"duplicate eigenvalue prime {p}", loc)
        # d was checked once, by maximal_order
        eigenvalues[p] = _element(d, Fraction(coords[0], coords[1]), Fraction(coords[2], coords[3]))

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
                and all(_is_int(c) for c in coeffs)):
            raise InputDataError(
                "reference charpoly must be an array of 5 integers, constant term first",
                "paper_charpoly",
            )
        golden = IntPoly(coeffs)

    try:
        datum = NewformDatum(level, d, expected_dim, eigenvalues)
    except ValueError as exc:  # InvalidEigenvalueError included
        raise InputDataError(str(exc), "eigenvalues") from exc

    # the ideal triple must denote an actual ideal of the order
    try:
        ideal = FracIdeal(order, ia, ib, Fraction(1, iq))
    except ValueError as exc:
        raise InputDataError(str(exc), "ideal") from exc

    return VerificationInput(datum, ideal, golden, raw)


def load_input(path: str | Path) -> VerificationInput:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputDataError(f"cannot read input file: {exc}", str(path)) from exc
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and an integer over the digit limit;
        # RecursionError, arrays or objects nested too deep
        raise InputDataError(f"invalid JSON: {exc}", str(path)) from exc
    if not isinstance(raw, dict):
        raise InputDataError("input document must be a JSON object", str(path))
    return parse_input(raw)


class _Run:
    """One run's input, and what each check stores for the checks after it."""

    __slots__ = ("inp", "order", "p1", "p2", "ideal_cls", "certs", "distinctness", "ab")

    def __init__(self, inp: VerificationInput, order: QuadOrder, p1: int, p2: int):
        self.inp, self.order, self.p1, self.p2 = inp, order, p1, p2
        self.ideal_cls: IdealClass | None = None
        self.certs: dict[int, ReductionCertificate] = {}
        self.distinctness = "inconclusive"
        self.ab: tuple[AVClass, AVClass] | None = None  # set only when check 8 passes


# Each check fills check.inputs, then check.outputs, stores on the run what later
# checks read (before judging, so a failed check still passes its results on),
# and returns the failure detail, or None on a pass.


def _check_class_group(run: _Run, check: Check) -> str | None:
    check.inputs.update({"d": run.order.d, "disc": run.order.disc})
    cg = class_group(run.order)
    check.outputs.update({"h": cg.h, "invariants": list(cg.invariants)})
    if cg.invariants != (2,):
        return f"class group is {cg} (h = {cg.h}), not Z/2"
    return None


def _check_nonprincipal_ideal(run: _Run, check: Check) -> str | None:
    ideal = run.inp.ideal
    check.inputs["ideal"] = str(ideal)
    cls = ideal_class(ideal)
    gen = principal_generator(ideal) if cls.is_trivial else None
    square_trivial = (cls * cls).is_trivial
    run.ideal_cls = cls
    check.outputs.update({"principal": gen is not None, "class_square_trivial": square_trivial})
    if gen is not None:
        return f"ideal is principal with generator {gen}"
    if not square_trivial:
        return "the class of I does not square to the trivial class"
    return None


def _check_frobenius_charpoly(run: _Run, check: Check) -> str | None:
    eigenvalues = run.inp.datum.eigenvalues
    check.inputs.update({
        "p1": run.p1,
        "a_p1": str(eigenvalues[run.p1]),
        "p2": run.p2,
        "a_p2": str(eigenvalues[run.p2]),
    })
    run.certs = {p: certify_reduction(eigenvalues[p], p) for p in (run.p1, run.p2)}
    q1, q2 = (cert.quartic for cert in run.certs.values())
    check.outputs.update({"charpoly_p1": list(q1.poly.coeffs), "charpoly_p2": list(q2.poly.coeffs)})
    reference = run.inp.golden_charpoly
    if reference is not None and q1.poly != reference:
        return f"computed {q1.poly} differs from the reference polynomial {reference}"
    return None


def _check_surface_checks(run: _Run, check: Check) -> str | None:
    if len(run.certs) < 2:
        return "no quartics available"
    failures = []
    for p, cert in run.certs.items():
        check.outputs[f"p{p}"] = {
            "irreducible": cert.irreducible,
            "ordinary": cert.ordinary,
            "middle_coefficient": cert.quartic.c2,
        }
        if not cert.irreducible:
            failures.append(f"quartic at {p} is reducible")
        if not cert.ordinary:
            failures.append(f"reduction at {p} is not ordinary")
    return "; ".join(failures) or None


def _check_power_stability(run: _Run, check: Check) -> str | None:
    check.inputs["bound"] = DEFAULT_STABILITY_BOUND
    failures = []
    for p in (run.p1, run.p2):
        cert = run.certs.get(p)
        if cert is None or cert.stability is None:
            failures.append(f"no stability report at {p} (quartic reducible?)")
            continue
        check.outputs[f"p{p}"] = {
            "stable": cert.stability.stable,
            "minpoly_degrees": list(cert.stability.degrees),
        }
        if not cert.stability.stable:
            failures.append(f"stability fails at {p}: {cert.stability}")
    return "; ".join(failures) or None


def _check_distinct_fields(run: _Run, check: Check) -> str | None:
    if len(run.certs) < 2:
        return "no quartics available"
    run.distinctness = distinct_fields_certificate(*(cert.quartic for cert in run.certs.values()))
    check.outputs["distinctness"] = run.distinctness
    if run.distinctness != "distinct":
        return "discriminant ratio is a rational square: inconclusive"
    return None


def _check_endomorphism_ring(run: _Run, check: Check) -> str | None:
    try:
        conclusion = deduce_endomorphism_ring(
            run.order.d, run.certs.get(run.p1), run.certs.get(run.p2), run.distinctness,
            conductor=run.inp.datum.hecke_conductor,
        )
    except DeductionRefused as exc:
        return f"deduction refused: {exc}"
    check.outputs.update(
        {"conclusion": conclusion.conclusion, "hypotheses": list(conclusion.hypotheses)}
    )
    return None


def _check_steinitz_squares(run: _Run, check: Check) -> str | None:
    # O + O = I + I, hence A x A = B x B while A != B over the closure
    cls = run.ideal_cls
    if cls is None:
        return "no ideal class available"
    free2 = free_module(run.order, 2)
    sum_ii = class_of_ideal_sum([cls, cls])
    also_sum = direct_sum(ModuleClass(1, cls), ModuleClass(1, cls))
    check.outputs.update({"class_O_plus_O": str(free2), "class_I_plus_I": str(sum_ii)})
    if sum_ii != free2 or also_sum != free2:
        return f"I + I has class {sum_ii}, O + O has class {free2}"
    a_cls = tensor_av(free_module(run.order, 1), BASE_TAG)
    b_cls = tensor_av(ModuleClass(1, cls), BASE_TAG)
    if tensor_av(free2, BASE_TAG) != tensor_av(sum_ii, BASE_TAG):
        return "A x A and B x B classes differ under the tensor functor"
    if a_cls == b_cls:
        return "A and B coincide, the witness would be trivial"
    run.ab = (a_cls, b_cls)
    return None


def _check_dimension(run: _Run, check: Check) -> str | None:
    datum = run.inp.datum
    check.inputs["expected_dim"] = datum.expected_dim
    # the eigenvalues generate Q(√d) iff one of them has a nonzero √d part
    degree = 2 if any(a_p.b != 0 for a_p in datum.eigenvalues.values()) else 1
    check.outputs["hecke_field_degree"] = degree
    if datum.expected_dim != degree:
        return f"declared dimension {datum.expected_dim} != field degree {degree}"
    return None


def _check_zero_divisor_witness(run: _Run, check: Check) -> str | None:
    if run.ab is None:
        return "earlier checks left no A, B classes to compare"
    monoid = AVMonoid(BASE_TAG, run.order)
    e_a, e_b = (albanese_image(monoid, [cls]) for cls in run.ab)
    report = zero_divisor_witness(e_a + e_b, e_a - e_b)
    check.outputs.update({
        "x": report.x_canonical,
        "y": report.y_canonical,
        "product": report.product_canonical,
        "accepted": report.accepted,
    })
    if not report.accepted:
        return f"witness refused: {report.reason}"
    return None


# (name, claim template, citation, check function), in the order they run; a
# claim may use {d}, {p1}, {p2} and {reference}
_CHECKS = (
    ("class_group", "Pic of the maximal order of Q(√{d}) is Z/2 (class number 2)",
     "class group via reduction of ideals below the Minkowski bound", _check_class_group),
    ("nonprincipal_ideal", "the chosen ideal I is nonprincipal and [I]^2 is trivial",
     "principality via the continued-fraction reduction cycle", _check_nonprincipal_ideal),
    ("frobenius_charpoly",
     "the Frobenius quartics at p = {p1}, {p2} match the Hecke data{reference}",
     "norm form of x^2 - a_p x + p (Eichler-Shimura congruence)", _check_frobenius_charpoly),
    ("surface_checks",
     "both quartics are irreducible with Weil shape and ordinary middle coefficient",
     "rational-root and quadratic-pair factor search; gcd(c2, p) = 1", _check_surface_checks),
    ("power_stability", f"Q(pi^n) = Q(pi) for n = 2..{DEFAULT_STABILITY_BOUND} at both primes",
     "minimal polynomial of pi^n as squarefree part of Res_y(P(y), x - y^n); "
     "a root of unity in a quartic field has order at most 12, so bound 12 suffices",
     _check_power_stability),
    ("distinct_fields", "the two quartic Frobenius fields are distinct",
     "discriminant ratio is not a rational square (one-sided test)", _check_distinct_fields),
    ("endomorphism_ring", "the endomorphism ring over any characteristic-zero extension is the "
     "maximal order of Q(√{d})",
     "dimension squeeze: embeds in two distinct quartic fields, contains Q(√d) "
     "(Howe-Zhu endomorphism criterion for the per-prime inputs)", _check_endomorphism_ring),
    ("steinitz_squares", "O + O and I + I have the same module class, so A x A = B x B; "
     "I nonprincipal keeps A and B nonisomorphic",
     "projective modules over a Dedekind domain are classified by (rank, Steinitz class)",
     _check_steinitz_squares),
    ("dimension", "the declared dimension equals the degree of the Hecke eigenvalue field",
     "dim A_f = [F : Q] for the field F generated by the eigenvalues", _check_dimension),
    ("zero_divisor_witness",
     "x = e[A] + e[B] and y = e[A] - e[B] are nonzero with x*y = 0 in Z[AV]",
     "monoid-ring convolution over abelian-variety classes; "
     "images under the Albanese functor", _check_zero_divisor_witness),
)


# (name, claim template, citation) of the facts used but not recomputed; a claim
# may use the fields above and {level}
_ASSUMED = (
    ("good_reduction",
     "the modular abelian surface has good reduction at {p1} and {p2} "
     "(primes not dividing the level {level})",
     "Shimura's construction of A_f as a quotient of J_1(N); "
     "reduction theory of abelian varieties"),
    ("eichler_shimura",
     "the Frobenius characteristic polynomial at p is the norm form of "
     "x^2 - a_p x + p",
     "Eichler-Shimura congruence relation"),
    ("reduction_injects",
     "End over any extension field injects into the endomorphism ring of the "
     "reduction at a place of good reduction",
     "specialization of endomorphisms of abelian varieties"),
    ("hecke_subring",
     "Z[√{d}] acts on the surface through the Hecke correspondences, "
     "so it embeds in End over every extension",
     "Hecke action on modular abelian varieties"),
    ("grothendieck_to_monoid_ring",
     "the class map from the variety Grothendieck ring through stable "
     "birational classes to Z[AV] is a ring homomorphism in characteristic zero, "
     "so nonvanishing in Z[AV] lifts to nonvanishing there",
     "Larsen-Lunts presentation of the Grothendieck ring; "
     "Albanese functoriality; resolution of singularities and weak factorization"),
    ("eigenvalue_tables",
     "the level-{level} newform has the recorded eigenvalues "
     "a_{p1}, a_{p2} generating Q(√{d})",
     "published modular-form tables"),
)


def run_certificate(inp: VerificationInput) -> Certificate:
    """Run the checks of _CHECKS in order; every check lands in the certificate, pass or fail."""
    datum, order = inp.datum, inp.ideal.order
    p1, p2 = datum.good_primes()[:2]  # the Frobenius quartics are taken at these
    run = _Run(inp, order, p1, p2)
    reference = ", and the first equals the reference polynomial" if inp.golden_charpoly else ""
    fields = dict(d=order.d, p1=p1, p2=p2, level=datum.level, reference=reference)
    checks: list[Check] = []
    for name, claim, citation, body in _CHECKS:
        check = Check(name, claim.format(**fields), citation, COMPUTED)
        try:
            detail = body(run, check)
        except (ValueError, ArithmeticError) as exc:
            detail = f"{type(exc).__name__}: {exc}"
        check.verdict = "pass" if detail is None else "fail"
        if detail is not None:
            check.outputs["detail"] = detail
        checks.append(check)
    checks.extend(Check(name, claim.format(**fields), citation, ASSUMED)
                  for name, claim, citation in _ASSUMED)

    parameters = {"stability_bound": DEFAULT_STABILITY_BOUND, "base_tag": BASE_TAG}
    generated_at = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return Certificate(dict(inp.raw), parameters, checks, generated_at)
