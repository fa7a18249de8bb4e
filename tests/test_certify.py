import copy
import json
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from zdcert.certify import load_input, parse_input, run_certificate
from zdcert.cli import bundled_dataset_path, main
from zdcert.errors import InputDataError

DATASET = json.loads(bundled_dataset_path().read_text())
GOLDEN = [Path(__file__).parent / "data" / name
          for name in ("golden_bundled.json", "golden_level11_unstable.json")]
GOLDEN_CLASSGROUP = Path(__file__).parent / "data" / "golden_classgroup.txt"
GOLDEN_MUTATION_FAILURES = Path(__file__).parent / "data" / "golden_mutation_failures.json"


def fresh(**overrides):
    raw = copy.deepcopy(DATASET)
    raw.update(overrides)
    return raw


def run_raw(raw):
    return run_certificate(parse_input(raw))


def test_bundled_dataset_passes_all_checks():
    cert = run_raw(DATASET)
    assert cert.verdict == "pass"
    assert len(cert.computed_checks) == 10
    assert all(c.verdict == "pass" for c in cert.computed_checks)
    assert cert.assumed_checks, "assumed-by-citation section must be present"


def test_every_check_has_verdict_or_assumed_marker():
    cert = run_raw(DATASET)
    for check in cert.checks:
        if check.provenance == "computed":
            assert check.verdict in ("pass", "fail")
        else:
            assert check.provenance == "assumed-by-citation"
            assert check.verdict is None
            assert check.citation


def test_determinism_up_to_timestamp():
    d1 = run_raw(DATASET).to_dict()
    d2 = run_raw(DATASET).to_dict()
    d1.pop("generated_at")
    d2.pop("generated_at")
    assert d1 == d2


@pytest.mark.parametrize("path", GOLDEN, ids=lambda path: path.stem)
def test_certificate_matches_golden_fixture(path):
    # each fixture is a certificate's JSON minus generated_at; its input echo
    # is the dataset it was made from
    expected = path.read_text()
    blob = json.loads(run_raw(json.loads(expected)["input"]).to_json())
    blob.pop("generated_at")
    assert json.dumps(blob, indent=2, sort_keys=True) + "\n" == expected


def _mutate(raw, path, value):
    raw = copy.deepcopy(raw)
    target = raw
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return raw


# ten single-scalar mutations, each expected to flip at least one check
MUTATIONS = [
    ("hecke_d_to_2", ["hecke_field_d"], 2, "class_group"),
    ("hecke_d_to_6", ["hecke_field_d"], 6, "class_group"),
    ("a17_rational_part", ["eigenvalues", 0, "a", 0], 5, "frobenius_charpoly"),
    ("a17_root_part_zeroed", ["eigenvalues", 0, "a", 2], 0, "frobenius_charpoly"),
    ("a17_denominator", ["eigenvalues", 0, "a", 1], 2, "frobenius_charpoly"),
    ("a19_root_part_zeroed", ["eigenvalues", 1, "a", 2], 0, "surface_checks"),
    ("a19_rational_part_zeroed", ["eigenvalues", 1, "a", 0], 0, "power_stability"),
    ("ideal_to_unit", ["ideal", "a"], 1, "nonprincipal_ideal"),
    ("expected_dim", ["expected_dim"], 3, "dimension"),
    ("golden_constant_term", ["paper_charpoly", 0], 290, "frobenius_charpoly"),
]


@pytest.mark.parametrize("name,path,value,expected_check", [m for m in MUTATIONS])
def test_single_scalar_mutations_flip_a_check(name, path, value, expected_check):
    cert = run_raw(_mutate(DATASET, path, value))
    assert cert.verdict == "fail", name
    assert expected_check in {c.name for c in cert.failed_checks}, name


def test_mutation_failures_match_golden_fixture():
    # the fixture maps each mutation to its ordered (failed check, detail) pairs; it pins
    # what later checks read from failed earlier ones, e.g. a17_rational_part fails only
    # frobenius_charpoly because distinct_fields still gets the mismatched quartics
    expected = json.loads(GOLDEN_MUTATION_FAILURES.read_text())
    assert list(expected) == [name for name, *_ in MUTATIONS]
    for name, path, value, _ in MUTATIONS:
        cert = run_raw(_mutate(DATASET, path, value))
        got = [[c.name, c.outputs.get("detail")] for c in cert.failed_checks]
        assert got == expected[name], name


def test_wrong_field_fails_at_nonprincipality_too():
    # with d = 2 (class number 1) there is no nonprincipal ideal at all
    raw = _mutate(DATASET, ["hecke_field_d"], 2)
    cert = run_raw(raw)
    failed = {c.name for c in cert.failed_checks}
    assert "class_group" in failed and "nonprincipal_ideal" in failed


def test_corrupted_a17_reports_detail():
    cert = run_raw(_mutate(DATASET, ["eigenvalues", 0, "a", 0], 5))
    check = next(c for c in cert.failed_checks if c.name == "frobenius_charpoly")
    assert "reference polynomial" in check.outputs["detail"]


def test_rational_eigenvalues_fail_dimension_check():
    raw = _mutate(DATASET, ["eigenvalues", 0, "a"], [4, 1, 0, 1])
    raw = _mutate(raw, ["eigenvalues", 1, "a"], [2, 1, 0, 1])
    check = next(c for c in run_raw(raw).failed_checks if c.name == "dimension")
    assert check.outputs["hecke_field_degree"] == 1
    assert check.outputs["detail"] == "declared dimension 2 != field degree 1"


def test_input_validation_errors():
    for raw, location in [
        (fresh(level="x"), "level"),
        (fresh(hecke_field_d=12), "hecke_field_d"),  # 12 is not squarefree
        (fresh(level=0), "level: level must be a positive integer"),
        (fresh(expected_dim=0), "expected_dim: expected dimension must be positive"),
        (fresh(hecke_field_d=-5), "hecke_field_d: the Hecke field must be real quadratic"),
        (fresh(hecke_field_d=1), "hecke_field_d: field parameter must be squarefree"),
        (_mutate(DATASET, ["eigenvalues", 0, "a"], [4, True, -1, True]), "eigenvalues[0]"),
        (_mutate(DATASET, ["paper_charpoly", 4], True), "paper_charpoly"),
        (_mutate(DATASET, ["eigenvalues", 0, "p"], 15), "eigenvalues"),
        (_mutate(DATASET, ["eigenvalues", 0, "p"], 23), "eigenvalues"),  # divides 276
        (_mutate(DATASET, ["eigenvalues", 0, "a", 0], 40), "eigenvalues"),  # Weil bound
        (_mutate(DATASET, ["eigenvalues", 0, "a", 1], 0), "eigenvalues[0]"),
        (_mutate(DATASET, ["ideal", "a"], 7), "ideal"),  # 7 inert: (7, w) not an ideal
        (_mutate(DATASET, ["ideal", "b"], 5), "ideal.b"),
        (_mutate(DATASET, ["ideal", "q"], 0), "ideal.q"),
        (fresh(paper_charpoly=[1, 2]), "paper_charpoly"),
        (fresh(eigenvalues=[DATASET["eigenvalues"][0]]), "eigenvalues"),
    ]:
        with pytest.raises(InputDataError) as err:
            parse_input(raw)
        assert location in str(err.value), raw


def test_huge_ideal_error_stays_short():
    raw = _mutate(DATASET, ["ideal", "a"], 10**3999 + 7)
    with pytest.raises(InputDataError) as err:
        parse_input(raw)
    assert err.value.location == "ideal"
    assert "<4000-digit integer>" in str(err.value) and len(str(err.value)) < 200


# a_p in Z[√65], which has index 2 in the maximal order Z[(1+√65)/2]; every other
# check passes, so only the conductor of the eigenvalue order stops the deduction
CONDUCTOR_2_DATASET = {
    "level": 1,
    "hecke_field_d": 65,
    "expected_dim": 2,
    "eigenvalues": [{"p": 23, "a": [-1, 1, 1, 1]}, {"p": 29, "a": [-2, 1, -1, 1]}],
    "ideal": {"a": 2, "b": 0, "q": 1},
}


def test_eigenvalues_of_a_nonmaximal_order_refuse_the_deduction():
    cert = run_raw(CONDUCTOR_2_DATASET)
    assert cert.verdict == "fail"
    assert [c.name for c in cert.failed_checks] == ["endomorphism_ring"]
    detail = cert.failed_checks[0].outputs["detail"]
    assert detail == ("deduction refused: the Hecke eigenvalues generate Z + 2O, "
                      "not the maximal order O of Q(√65)")
    # one eigenvalue with omega-part 1 makes the eigenvalue order maximal again
    raw = copy.deepcopy(CONDUCTOR_2_DATASET)
    raw["eigenvalues"].append({"p": 31, "a": [1, 2, 1, 2]})  # (1 + √65)/2 = ω
    assert run_raw(raw).verdict == "pass"


def test_degree_6_splitting_fails_the_fixed_stability_sweep(tmp_path, capsys):
    # a_37 = -9 - √10: c3 = 18, c2 = 145, so c3^2 = 3 c2 - 3p, Howe-Zhu's degree-6
    # case; pi^6 drops degree, which a sweep stopping below 6 would miss
    raw = copy.deepcopy(DATASET)
    raw["eigenvalues"][1] = {"p": 37, "a": [-9, 1, -1, 1]}
    del raw["paper_charpoly"]
    path = tmp_path / "a37.json"
    path.write_text(json.dumps(raw))
    assert main(["verify", str(path)]) == 1
    failed = re.findall(r"^\[\s*\d+\] FAIL  (\w+):", capsys.readouterr().out, re.M)
    assert failed == ["power_stability", "endomorphism_ring"]
    # the sweep length is not an option: a shorter one once certified this input
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", str(path), "--bound", "3"])
    assert exit_info.value.code == 2


def test_field_at_the_d_cap_gets_a_full_certificate(tmp_path, capsys):
    # |d| is within the cap though |disc| = 4d is not: the class group is still computed
    raw = copy.deepcopy(DATASET)
    raw.update(hecke_field_d=300003, ideal={"a": 1, "b": 0, "q": 1})
    raw["eigenvalues"] = [{"p": 17, "a": [1, 1, 0, 1]}, {"p": 19, "a": [1, 1, 0, 1]}]
    del raw["paper_charpoly"]
    path = tmp_path / "d300003.json"
    path.write_text(json.dumps(raw))
    assert main(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert "error:" not in captured.err
    assert len(re.findall(r"^\[\s*\d+\] (?:PASS|FAIL)  ", captured.out, re.M)) == 10
    assert "OVERALL: FAIL" in captured.out
    check = next(c for c in run_raw(raw).computed_checks if c.name == "class_group")
    assert check.verdict == "fail"
    assert check.outputs["detail"] == "class group is Z/2 x Z/8 (h = 16), not Z/2"


def _count_calls(monkeypatch, fn) -> list[int]:
    """Wrap fn at every zdcert module binding, since each `from .x import` makes its
    own; the returned one-item list counts the calls."""
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return fn(*args)

    for name, module in list(sys.modules.items()):
        if name == "zdcert" or name.startswith("zdcert."):
            for binding, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, binding, counting)
    return calls


def test_one_run_builds_each_frobenius_quartic_once(monkeypatch):
    from zdcert.weil import frobenius_charpoly

    calls = _count_calls(monkeypatch, frobenius_charpoly)
    assert run_raw(DATASET).verdict == "pass"
    assert calls == [2]


def test_one_run_reads_each_quartics_factor_data_once_per_frobenius_call(monkeypatch):
    # certify_reduction (through is_irreducible), endomorphism_stability and
    # distinct_fields_certificate each read it once per quartic, their guards included
    from zdcert.weil import WeilQuartic

    factor_data, calls = WeilQuartic.factor_data, [0]

    def counting(self):
        calls[0] += 1
        return factor_data(self)

    monkeypatch.setattr(WeilQuartic, "factor_data", counting)
    assert run_raw(DATASET).verdict == "pass"
    assert calls == [6]


def test_one_run_factors_only_the_field_parameter(monkeypatch):
    # maximal_order's squarefree test factors d; good reduction is level % p, so the
    # level is never factored
    from zdcert.quadratic import prime_divisors

    calls = _count_calls(monkeypatch, prime_divisors)
    assert run_raw(DATASET).verdict == "pass"
    assert calls == [1]


def test_prime_level_just_under_the_cap_parses_without_factoring_and_certifies(monkeypatch):
    from zdcert.certify import LEVEL_BOUND
    from zdcert.quadratic import is_prime, prime_divisors

    level = 999999999989  # the largest prime below the cap
    assert level < LEVEL_BOUND and is_prime(level)
    assert not any(is_prime(n) for n in range(level + 1, LEVEL_BOUND + 1))
    calls = _count_calls(monkeypatch, prime_divisors)
    inp = parse_input(fresh(level=level))
    assert calls == [1]  # d = 10, in maximal_order
    cert = run_certificate(inp)
    assert calls == [1]
    assert cert.verdict == "pass" and inp.datum.level == level
    assert [c.verdict for c in cert.computed_checks] == ["pass"] * 10


def test_one_run_checks_the_field_parameter_once(monkeypatch):
    # maximal_order(d) checks d; every element over that order's d skips the check
    from zdcert.quadratic import _check_d

    calls = _count_calls(monkeypatch, _check_d)
    assert run_raw(DATASET).verdict == "pass"
    assert calls == [1]


def test_one_run_tests_each_quartic_prime_once(monkeypatch):
    # 17 and 19 once each in NewformDatum and once each in frobenius_charpoly; class_group
    # sieves its primes up to the Minkowski bound and tests none of them with is_prime
    from zdcert.quadratic import is_prime

    calls = _count_calls(monkeypatch, is_prime)
    assert run_raw(DATASET).verdict == "pass"
    assert calls == [4]


def test_one_run_reduces_the_chosen_ideal_once(monkeypatch):
    # check 2 reads principality off the class it reduces, and builds the
    # generator of a principal ideal without reducing it a second time
    from zdcert.orders import ideal_class

    calls = _count_calls(monkeypatch, ideal_class)
    assert run_raw(DATASET).verdict == "pass"
    assert calls == [1]
    raw = copy.deepcopy(DATASET)
    raw["ideal"] = {"a": 9, "b": 1, "q": 1}  # (9, 1 + √10) = (1 + √10)
    calls[0] = 0
    cert = run_raw(raw)
    assert calls == [1]
    check = next(c for c in cert.checks if c.name == "nonprincipal_ideal")
    assert check.outputs["principal"] and check.verdict == "fail"


def test_one_run_builds_the_ideal_class_and_both_reductions_once(monkeypatch):
    # the run builds them before any check, and checks 2-8 read them
    from zdcert.orders import ideal_class
    from zdcert.weil import certify_reduction

    classes, reductions = _count_calls(monkeypatch, ideal_class), _count_calls(monkeypatch, certify_reduction)
    assert run_raw(DATASET).verdict == "pass"
    assert (classes, reductions) == ([1], [2])


def test_zero_divisor_witness_matches_a_model_of_z_av():
    # an independent model of Z[AV] for Q(√10): a class is (rank, Steinitz class in Z/2),
    # and a product of varieties adds the ranks and the Steinitz classes
    from zdcert.orders import class_group, maximal_order

    labels = [str(cls) for cls in class_group(maximal_order(10)).classes]  # [O], then [I]

    def mul(x, y):
        out = {}
        for (r1, c1), a in x.items():
            for (r2, c2), b in y.items():
                key = (r1 + r2, (c1 + c2) % 2)
                out[key] = out.get(key, 0) + a * b
        return {key: c for key, c in out.items() if c}

    def render(x):
        text = ""
        for (rank, cls), c in sorted(x.items()):
            term = f"e[(rank {rank}, {labels[cls]})]"
            term = term if abs(c) == 1 else f"{abs(c)}*{term}"
            text = f"{text} {'-' if c < 0 else '+'} {term}" if text else f"{'-' if c < 0 else ''}{term}"
        return text or "0"

    x, y = {(1, 0): 1, (1, 1): 1}, {(1, 0): 1, (1, 1): -1}  # e[A] + e[B], e[A] - e[B]
    assert x and y and mul(x, y) == {}
    check = next(c for c in run_raw(DATASET).checks if c.name == "zero_divisor_witness")
    assert check.outputs == {"x": render(x), "y": render(y), "product": render(mul(x, y)),
                             "accepted": True}
    assert render(x) == "e[(rank 1, [1Z + (0 + √10)Z])] + e[(rank 1, [2Z + (0 + √10)Z])]"


def test_one_run_hashes_no_class_chain_and_validates_only_input_ideals(monkeypatch):
    # one bundled operation: monoid-ring terms are summed by sort key and a basis
    # element is built as its one term, so nothing is hashed; class ideals come from
    # reduced forms without FracIdeal.__init__ (left: the input ideal and the three
    # prime ideals above 2 and 3); a trivial class factor skips the composition, and
    # check 8 composes [I]^2 once; ω is written from d, not built
    from zdcert.orders import FracIdeal, QuadOrder, _compose
    from zdcert.quadratic import _Value

    counts = {}

    def count(owner, name):
        fn = getattr(owner, name)
        counts[name] = 0

        def counting(*args):
            counts[name] += 1
            return fn(*args)

        monkeypatch.setattr(owner, name, counting)

    count(_Value, "__hash__")
    count(FracIdeal, "__init__")
    count(QuadOrder, "omega")
    compose_calls = _count_calls(monkeypatch, _compose)
    cert = run_raw(DATASET)
    assert cert.verdict == "pass" and cert.to_json() and cert.render_text()
    assert counts["__hash__"] == 0
    assert counts["__init__"] <= 4
    assert compose_calls[0] <= 5
    assert counts["omega"] == 0


@pytest.mark.parametrize("value", [
    float("nan"), float("inf"), float("-inf"), -0.0, 0.1, 1e300, 5e-324, 2**64, -(2**64) - 1, 10**100,
    True, False, None, 0, "", "é ☃ 𝄞 \u2028", "\x00\x1f\x7f \"\\/\n\t", "lone \ud800 and \udfff",
    {"\ud83d": "\udc4d", "é": [-0.0], "\x00": None, "\n": {"": []}},
    [], {}, [[]], [{}], {"a": {}}, {"a": []}, [[], {}, [[{}]]], (), ((),), (1, (2.5, "x"), [()]),
    {"b": (None, True, False), "a": [float("nan"), float("-inf")], "B": {"z": 1, "Z": 2}},
])
def test_json_writer_matches_json_dumps(value):
    from zdcert.certify import _json

    assert _json(value, "\n") == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [Fraction(1, 2), {1, 2}, b"x", {1: "integer key"}, [object()]])
def test_json_writer_refuses_what_json_loads_cannot_return(value):
    from zdcert.certify import _json

    with pytest.raises(TypeError):
        _json(value, "\n")


@pytest.mark.parametrize("path", GOLDEN, ids=lambda path: path.stem)
def test_to_json_equals_json_dumps_of_to_dict(path):
    cert = run_raw(json.loads(path.read_text())["input"])
    assert cert.to_json() == json.dumps(cert.to_dict(), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name,path,value", [m[:3] for m in MUTATIONS], ids=[m[0] for m in MUTATIONS])
def test_to_json_equals_json_dumps_of_to_dict_on_failing_certificates(name, path, value):
    cert = run_raw(_mutate(DATASET, path, value))
    assert cert.verdict == "fail" and any("detail" in c.outputs for c in cert.checks)
    assert cert.to_json() == json.dumps(cert.to_dict(), indent=2, sort_keys=True) + "\n"


def test_to_json_writes_a_hand_built_row_like_json_dumps():
    from zdcert.certify import _FRAMES, Certificate, Check

    frames = dict(_FRAMES)
    checks = [
        Check("made_up", "a claim with \"quotes\" and √2", "no citation", "computed",
              inputs={"x": 0.5, "nan": float("nan"), "pair": (1, (2.5, "y")), "empty": ()},
              outputs={"inf": [float("-inf")], "flags": [True, None]}, verdict="fail"),
        Check("class_group", "its name is in the table, its citation is not", "another citation",
              "assumed-by-citation"),
    ]
    cert = Certificate({"level": 1.5, "list": (3, 4)}, {}, checks, "then")
    assert cert.to_json() == json.dumps(cert.to_dict(), indent=2, sort_keys=True) + "\n"
    assert _FRAMES == frames
    empty = Certificate({}, {}, [], "never")
    assert empty.to_json() == json.dumps(empty.to_dict(), indent=2, sort_keys=True) + "\n"


def test_frame_table_has_one_entry_per_row_and_never_grows():
    from zdcert.certify import _ASSUMED, _CHECKS, _FRAMES, ASSUMED, COMPUTED

    rows = {(name, citation, COMPUTED) for name, _, citation, _ in _CHECKS}
    rows |= {(name, citation, ASSUMED) for name, _, citation in _ASSUMED}
    assert len(rows) == len(_CHECKS) + len(_ASSUMED) == len(_FRAMES)
    assert set(_FRAMES) == rows
    inputs = [DATASET] + [_mutate(DATASET, path, value) for _, path, value, _ in MUTATIONS]
    for i in range(50):
        cert = run_raw(inputs[i % len(inputs)])
        assert cert.to_json() and cert.render_text()
        assert len(_FRAMES) == len(rows)


def test_golden_charpoly_optional():
    raw = copy.deepcopy(DATASET)
    del raw["paper_charpoly"]
    cert = run_raw(raw)
    assert cert.verdict == "pass"


def test_report_json_round_trip(tmp_path):
    cert = run_raw(DATASET)
    blob = json.loads(cert.to_json())
    assert blob["verdict"] == "pass"
    assert len(blob["checks"]) == len(cert.checks)
    assert blob["input"]["level"] == 276


def test_load_input_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(InputDataError):
        load_input(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputDataError):
        load_input(bad)
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    with pytest.raises(InputDataError):
        load_input(listy)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "zdcert", *args], capture_output=True, text=True
    )


def test_cli_verify_bundled_exits_zero():
    result = _cli("verify", "--bundled")
    assert result.returncode == 0, result.stderr
    assert "OVERALL: PASS" in result.stdout


def test_cli_verify_report(tmp_path):
    out = tmp_path / "report.json"
    result = _cli("verify", "--bundled", "--report", str(out))
    assert result.returncode == 0
    blob = json.loads(out.read_text())
    assert blob["verdict"] == "pass"


def test_cli_verify_failing_input_exits_one(tmp_path):
    raw = _mutate(DATASET, ["ideal", "a"], 1)
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(raw))
    result = _cli("verify", str(path))
    assert result.returncode == 1
    assert "FAIL" in result.stdout


def test_cli_verify_invalid_input_exits_two(tmp_path):
    path = tmp_path / "invalid.json"
    path.write_text("{")
    assert _cli("verify", str(path)).returncode == 2
    assert _cli("verify").returncode == 2  # neither file nor --bundled


def test_cli_classgroup():
    result = _cli("classgroup", "--d", "10")
    assert result.returncode == 0
    assert "Z/2" in result.stdout and "h = 2" in result.stdout
    assert _cli("classgroup", "--d", "12").returncode == 2


def test_cli_classgroup_matches_golden_fixture(capsys):
    # the fixture is the stdout of each listed call, under a "$ zdcert ..." header
    expected = GOLDEN_CLASSGROUP.read_text()
    out = []
    for d in re.findall(r"^\$ zdcert classgroup --d (-?\d+)$", expected, re.M):
        assert main(["classgroup", "--d", d]) == 0
        out.append(f"$ zdcert classgroup --d {d}\n" + capsys.readouterr().out)
    assert len(out) == 6
    assert "".join(out) == expected


def test_cli_unit():
    result = _cli("unit", "--d", "10")
    assert result.returncode == 0
    assert "3 + √10" in result.stdout and "-1" in result.stdout


def test_cli_weil():
    result = _cli("weil", "--p", "17", "--a", "4", "--b", "-1", "--d", "10")
    assert result.returncode == 0
    assert "[289, -136, 40, -8, 1]" in result.stdout
    bad = _cli("weil", "--p", "17", "--a", "400", "--b", "-1", "--d", "10")
    assert bad.returncode == 2


def test_cli_principal():
    nonprin = _cli("principal", "--d", "10", "--a", "2", "--b", "0")
    assert nonprin.returncode == 0 and "not principal" in nonprin.stdout
    prin = _cli("principal", "--d", "10", "--a", "9", "--b", "1")
    assert prin.returncode == 0 and "generated by" in prin.stdout


def test_main_callable_directly(tmp_path, capsys):
    assert main(["verify", "--bundled"]) == 0
    captured = capsys.readouterr()
    assert "OVERALL: PASS" in captured.out


def test_main_resource_limit_exits_two(capsys):
    assert main(["classgroup", "--d", "1000003"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert captured.out == ""


def test_main_classgroup_refuses_huge_d_before_factoring(capsys):
    # trial division of a d this size would not finish; the |d| bound must come first
    t0 = time.perf_counter()
    assert main(["classgroup", "--d", "1000000000000000003"]) == 2
    assert time.perf_counter() - t0 < 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""
