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
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from .errors import DeductionRefused, InputDataError
from .monoidring import AVMonoid, albanese_image, zero_divisor_witness
from .orders import FracIdeal, QuadOrder, _generator_of, class_group, ideal_class, maximal_order
from .polynomials import IntPoly
from .quadratic import CLASS_GROUP_BOUND, QuadElement, _element, _Value
from .steinitz import AVClass, ModuleClass, class_of_ideal_sum, free_module, tensor_av
from .weil import (
    DEFAULT_STABILITY_BOUND,
    NewformDatum,
    certify_reduction,
    deduce_endomorphism_ring,
    distinct_fields_certificate,
)

COMPUTED = "computed"
ASSUMED = "assumed-by-citation"

BASE_TAG = "A"

# size caps of parse_input, checked before any trial division: the level is never
# factored, only reduced mod each eigenvalue prime and printed, and 10^12 keeps it
# a 13-digit integer; the eigenvalue primes share the bound, far inside is_prime's proven
# range, and it keeps the stability sweep's integers small: every root has absolute
# value sqrt(p), so the largest, squares in weil._is_square_in at n = 12, stay
# below 2^11 p^24 (2 * DEFAULT_STABILITY_BOUND * log2(p) + 11 bits, under 970)
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
        """json.dumps(self.to_dict(), indent=2, sort_keys=True) and a newline, the same bytes,
        joined from each row's frame (built at import for every row of the check tables)
        and the run's values; to_dict is not built."""
        rows = []
        for c in self.checks:
            frame = _FRAMES.get((c.name, c.citation, c.provenance)) or _frame(c.name, c.citation, c.provenance)
            head, inputs, outputs, verdict, tail = frame
            rows.append(f"{head}{_json(c.claim, _ROW)}{inputs}{_json(c.inputs, _ROW)}"
                        f"{outputs}{_json(c.outputs, _ROW)}{verdict}{_json(c.verdict, _ROW)}{tail}")
        checks = f"[{_CHECK}{f',{_CHECK}'.join(rows)}\n  ]" if rows else "[]"
        return (f'{{\n  "checks": {checks},\n  "generated_at": {_json(self.generated_at, _TOP)},'
                f'\n  "input": {_json(self.input_echo, _TOP)},'
                f'\n  "parameters": {_json(self.parameters, _TOP)},'
                f'\n  "verdict": {_quote(self.verdict)}\n}}\n')

    def render_text(self) -> str:
        computed = self.computed_checks
        lines = []
        for i, c in enumerate(computed, 1):
            mark = "PASS" if c.verdict == "pass" else "FAIL"
            lines.append(f"[{i:2d}] {mark}  {c.name}: {c.claim}")
            if c.verdict != "pass" and c.outputs.get("detail"):
                lines.append(f"           {c.outputs['detail']}")
        lines.append("")
        lines.append("assumed by citation (used, not recomputed):")
        for c in self.assumed_checks:
            lines.append(f"  - {c.name}: {c.claim} [{c.citation}]")
        lines.append("")
        n_pass = sum(1 for c in computed if c.verdict == "pass")
        verdict = "PASS" if n_pass == len(computed) else "FAIL"
        lines.append(f"OVERALL: {verdict} ({n_pass}/{len(computed)} computed checks pass)")
        return "\n".join(lines)


def _json(value, newline: str) -> str:
    """json.dumps(value, indent=2, sort_keys=True), as nested under newline (a newline and
    the enclosing indent): the same bytes, without json's pure-Python encoder, which is
    what indent selects.  Dict keys must be strings: the string encoder raises TypeError on
    any other.  A dict writes a member of the exact type str, int or bool without a call
    (an f-string formats an int as its repr), and a list of plain ints is one join."""
    cls = value.__class__
    if cls is str:
        return _quote(value)
    if cls is int:
        return int.__repr__(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        items = []
        for key in sorted(value):
            item = value[key]
            cls = item.__class__
            text = (_quote(item) if cls is str else item if cls is int
                    else ("true" if item else "false") if cls is bool else _json(item, inner))
            items.append(f"{_quote(key)}: {text}")
        return f"{{{inner}{f',{inner}'.join(items)}{newline}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        if all(item.__class__ is int for item in value):
            items = map(int.__repr__, value)
        else:
            items = [_json(item, inner) for item in value]
        return f"[{inner}{f',{inner}'.join(items)}{newline}]"
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return "NaN" if value != value else _INFINITIES.get(value) or float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# json's names for the infinite floats; it writes NaN as NaN
_INFINITIES = {float("inf"): "Infinity", float("-inf"): "-Infinity"}

# what precedes a member of the certificate, a check row in its list, and a member of a row
_TOP, _CHECK, _ROW = "\n  ", "\n    ", "\n      "


def _frame(name, citation, provenance) -> tuple[str, str, str, str, str]:
    """The JSON text of a check row around its per-run members claim, inputs, outputs and
    verdict: five pieces, holding the row's braces, its keys and its fixed members."""
    return (f'{{{_ROW}"citation": {_json(citation, _ROW)},{_ROW}"claim": ',
            f',{_ROW}"inputs": ',
            f',{_ROW}"name": {_json(name, _ROW)},{_ROW}"outputs": ',
            f',{_ROW}"provenance": {_json(provenance, _ROW)},{_ROW}"verdict": ',
            f"{_CHECK}}}")


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
        text = Path(path).read_text(encoding="utf-8")
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
    """One run's input, the facts that several checks read, computed once before any
    check (neither call can fail on parsed input), and what each check stores for the
    checks after it."""

    __slots__ = ("inp", "order", "p1", "p2", "ideal_cls", "certs", "distinctness", "ab")

    def __init__(self, inp: VerificationInput, order: QuadOrder, p1: int, p2: int):
        self.inp, self.order, self.p1, self.p2 = inp, order, p1, p2
        self.ideal_cls = ideal_class(inp.ideal)  # read by checks 2 and 8
        eigenvalues = inp.datum.eigenvalues  # the reductions at p1, p2, read by checks 3-7
        self.certs = {p: certify_reduction(eigenvalues[p], p) for p in (p1, p2)}
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
    cls = run.ideal_cls
    gen = _generator_of(ideal) if cls.is_trivial else None
    square_trivial = (cls * cls).is_trivial
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
    q1, q2 = (cert.quartic for cert in run.certs.values())
    check.outputs.update({"charpoly_p1": list(q1.poly.coeffs), "charpoly_p2": list(q2.poly.coeffs)})
    reference = run.inp.golden_charpoly
    if reference is not None and q1.poly != reference:
        return f"computed {q1.poly} differs from the reference polynomial {reference}"
    return None


def _check_surface_checks(run: _Run, check: Check) -> str | None:
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
        cert = run.certs[p]
        if cert.stability is None:
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
    run.distinctness = distinct_fields_certificate(*(cert.quartic for cert in run.certs.values()))
    check.outputs["distinctness"] = run.distinctness
    if run.distinctness != "distinct":
        return "discriminant ratio is a rational square: inconclusive"
    return None


def _check_endomorphism_ring(run: _Run, check: Check) -> str | None:
    try:
        conclusion = deduce_endomorphism_ring(
            run.order.d, run.certs[run.p1], run.certs[run.p2], run.distinctness,
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
    free2 = free_module(run.order, 2)
    sum_ii = class_of_ideal_sum([cls, cls])
    check.outputs.update({"class_O_plus_O": str(free2), "class_I_plus_I": str(sum_ii)})
    # AVClass equality is that of tag and module, so this also decides A x A = B x B
    if sum_ii != free2:
        return f"I + I has class {sum_ii}, O + O has class {free2}"
    a_cls = tensor_av(free_module(run.order, 1), BASE_TAG)
    b_cls = tensor_av(ModuleClass(1, cls), BASE_TAG)
    if a_cls == b_cls:
        return "A and B coincide, the witness would be trivial"
    run.ab = (a_cls, b_cls)
    return None


def _check_dimension(run: _Run, check: Check) -> str | None:
    datum = run.inp.datum
    check.inputs["expected_dim"] = datum.expected_dim
    # the eigenvalues generate Q(√d) iff one has a nonzero √d part, iff their conductor is nonzero
    degree = 2 if datum.hecke_conductor else 1
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

# the frame of every row above, keyed by what it is built from; a hand-built row gets its own
_FRAMES = {(name, citation, provenance): _frame(name, citation, provenance)
           for rows, provenance in ((_CHECKS, COMPUTED), (_ASSUMED, ASSUMED))
           for name, _, citation, *_ in rows}


def run_certificate(inp: VerificationInput) -> Certificate:
    """Run the checks of _CHECKS in order; every check lands in the certificate, pass or fail."""
    datum, order = inp.datum, inp.ideal.order
    p1, p2 = datum.good_primes()[:2]  # the Frobenius quartics are taken at these
    run = _Run(inp, order, p1, p2)
    reference = ", and the first equals the reference polynomial" if inp.golden_charpoly else ""
    fields = dict(d=order.d, p1=p1, p2=p2, level=datum.level, reference=reference)
    checks: list[Check] = []
    for name, claim, citation, body in _CHECKS:
        # a claim without a placeholder is kept as it is: 10 of the 16 are
        check = Check(name, claim.format(**fields) if "{" in claim else claim, citation, COMPUTED)
        try:
            detail = body(run, check)
        except (ValueError, ArithmeticError) as exc:
            detail = f"{type(exc).__name__}: {exc}"
        check.verdict = "pass" if detail is None else "fail"
        if detail is not None:
            check.outputs["detail"] = detail
        checks.append(check)
    checks.extend(Check(name, claim.format(**fields) if "{" in claim else claim, citation, ASSUMED)
                  for name, claim, citation in _ASSUMED)

    parameters = {"stability_bound": DEFAULT_STABILITY_BOUND, "base_tag": BASE_TAG}
    generated_at = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return Certificate(dict(inp.raw), parameters, checks, generated_at)
