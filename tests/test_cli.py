"""The CLI's lazy layer loading, its help texts, and inputs that must end in exit 2."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zdcert
from zdcert.cli import bundled_dataset_path, main

SRC = Path(zdcert.__file__).resolve().parent.parent
GOLDEN_HELP = Path(__file__).parent / "data" / "golden_help.json"
HUGE_D = "1000000000000000003"


def _python(*args, timeout=60, env=(), **kwargs):
    """Run a fresh interpreter that imports zdcert from this source tree, with env's variables set."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env={**os.environ, **dict(env), "PYTHONPATH": path},
                          text=True, timeout=timeout, **kwargs)


def test_classgroup_loads_only_its_layers():
    code = ("import sys\nfrom zdcert.cli import main\nassert main(['classgroup', '--d', '10']) == 0\n"
            "print(' '.join(m for m in sys.modules if m.startswith('zdcert.')), file=sys.stderr)")
    result = _python("-c", code, capture_output=True)
    assert result.returncode == 0, result.stderr
    loaded = set(result.stderr.split())
    assert {"zdcert.orders", "zdcert.quadratic"} <= loaded
    assert not loaded & {f"zdcert.{m}" for m in ("polynomials", "weil", "steinitz", "monoidring", "certify")}


@pytest.mark.parametrize("args", [["verify", "--bundled"], ["classgroup", "--d", "10"],
                                  ["weil", "--p", "17", "--a", "4", "--b", "-1", "--d", "10"]],
                         ids=lambda args: args[0])
def test_cli_imports_neither_dataclasses_nor_inspect(args):
    # -S: no site, so whatever a .pth file imports is not counted against zdcert
    code = (f"import sys\nfrom zdcert.cli import main\nassert main({args!r}) == 0\n"
            "print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)), file=sys.stderr)")
    result = _python("-S", "-c", code, capture_output=True)
    assert (result.returncode, result.stderr) == (0, "\n")


@pytest.mark.parametrize("args", [["classgroup", "--d", "10"], ["unit", "--d", "10"],
                                  ["weil", "--p", "17", "--a", "4", "--b", "-1", "--d", "10"],
                                  ["principal", "--d", "10", "--a", "2", "--b", "0"]],
                         ids=lambda args: args[0])
def test_only_verify_imports_pathlib(args):
    code = (f"import sys\nfrom zdcert.cli import main\nassert main({args!r}) == 0\n"
            "print('pathlib' in sys.modules, file=sys.stderr)")
    result = _python("-S", "-c", code, capture_output=True)
    assert (result.returncode, result.stderr) == (0, "False\n")


def test_package_exports_resolve_to_their_submodules():
    assert len(set(zdcert.__all__)) == len(zdcert.__all__)
    for name in zdcert.__all__:
        obj = getattr(zdcert, name)
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name
    with pytest.raises(AttributeError):
        getattr(zdcert, "no_such_name")
    # submodules resolve too, in a fresh interpreter that imported only the package
    code = ("import sys, zdcert\nassert 'zdcert.orders' not in sys.modules\n"
            "print(zdcert.orders.class_group(zdcert.orders.maximal_order(10)).h)")
    result = _python("-c", code, capture_output=True)
    assert (result.returncode, result.stdout) == (0, "2\n"), result.stderr


def test_help_texts_match_golden_fixture(monkeypatch, capsys):
    # argparse wraps help to the terminal width, which COLUMNS sets
    monkeypatch.setenv("COLUMNS", "80")
    for command, expected in json.loads(GOLDEN_HELP.read_text()).items():
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"] if command == "zdcert" else [command, "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out == expected, command


def test_closed_stdout_exits_two_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        result = _python("-m", "zdcert", "classgroup", "--d", "-250007", stdout=write_end,
                         stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert result.returncode == 2
    assert result.stderr == ""


@pytest.mark.parametrize("target", ["missing-dir/out.json", "."], ids=["missing-directory", "a-directory"])
def test_unwritable_report_exits_two_without_traceback(tmp_path, target):
    report = tmp_path / target
    result = _python("-m", "zdcert", "verify", "--bundled", "--report", str(report), capture_output=True)
    assert result.returncode == 2
    assert result.stderr.startswith(f"error: cannot write report to {report}: ")
    assert "Traceback" not in result.stderr
    assert "OVERALL: PASS" in result.stdout and "report written" not in result.stdout


@pytest.mark.parametrize("args", [["unit", "--d", HUGE_D], ["principal", "--d", HUGE_D, "--a", "2", "--b", "1"],
                                  ["weil", "--p", "17", "--a", "1", "--b", "1", "--d", HUGE_D]])
def test_huge_d_is_refused_at_once(args):
    result = _python("-m", "zdcert", *args, capture_output=True, timeout=1)
    assert result.returncode == 2
    assert result.stderr.startswith("error:") and "exceeds the bound" in result.stderr


def test_imaginary_generator_of_a_huge_prime_ideal_in_bounded_time():
    # a prime ideal of norm about 10^20 in Z[i]: a search over |y| <= sqrt(4a/|D|) would try
    # about 10^10 values; Gauss reduction with the basis change takes O(log a) steps
    args = ["principal", "--d", "-1", "--a", "100000000000000000129", "--b", "44237909966037281987"]
    result = _python("-m", "zdcert", *args, capture_output=True, timeout=10)
    assert result.returncode == 0
    assert result.stdout == ("100000000000000000129Z + (44237909966037281987 + √(-1))Z: "
                             "principal, generated by 4418521500 - 8970878873√(-1)\n")


@pytest.mark.parametrize("text", ["[" * 100_000, '{"level": ' + "9" * 5000 + "}"],
                         ids=["nested-100000-deep", "integer-5000-digits"])
def test_hostile_json_is_a_located_input_error(tmp_path, capsys, text):
    path = tmp_path / "hostile.json"
    path.write_text(text)
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {path}: invalid JSON:")


def _bundled_with(**changes):
    raw = json.loads(bundled_dataset_path().read_text())
    raw.update(changes)
    return raw


_EXTRA_PRIME = _bundled_with()
_EXTRA_PRIME["eigenvalues"].append({"p": 10**18 + 9, "a": [0, 1, 0, 1]})  # prime, and a_p = 0 obeys the Weil bound


# each is refused before the trial division or stability sweep it would start, which would run for hours
@pytest.mark.parametrize("raw,extra,message", [
    (_bundled_with(level=2**61 - 1), [], "level: level exceeds the bound"),
    (_EXTRA_PRIME, [], "eigenvalues[2]: eigenvalue prime exceeds the bound"),
    (_bundled_with(hecke_field_d=3 * (2**61 - 1)), [], "hecke_field_d: |hecke_field_d| exceeds the bound"),
    (None, ["--bound", "100000"], "unrecognized arguments: --bound"),
], ids=["level-2^61-1", "extra-prime-10^18+9", "d-3*(2^61-1)", "bound-100000"])
def test_oversized_input_exits_two_at_once(tmp_path, raw, extra, message):
    if raw is None:
        source = ["--bundled"]
    else:
        source = [str(tmp_path / "input.json")]
        Path(source[0]).write_text(json.dumps(raw))
    result = _python("-m", "zdcert", "verify", *source, *extra, capture_output=True, timeout=2)
    assert result.returncode == 2
    assert message in result.stderr and result.stdout == ""


# the C locale, with neither locale coercion nor UTF-8 mode: open() defaults to ASCII
ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0", "PYTHONIOENCODING": "utf-8"}


def test_input_is_read_as_utf8_whatever_the_locale(tmp_path):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(_bundled_with(note="Hecke field Q(√10)"), ensure_ascii=False), encoding="utf-8")
    result = _python("-m", "zdcert", "verify", str(path), capture_output=True, env=ASCII_LOCALE)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "OVERALL: PASS (10/10 computed checks pass)"
    path.write_bytes(b'{"level": "\xff"}')  # not UTF-8
    result = _python("-m", "zdcert", "verify", str(path), capture_output=True, env=ASCII_LOCALE)
    assert result.returncode == 2
    assert result.stderr.startswith(f"input error: {path}: cannot read input file:")


@pytest.mark.parametrize("args", [["verify", "--bundled"], ["classgroup", "--d", "10"]], ids=lambda args: args[0])
def test_ascii_stdout_prints_escapes_and_keeps_the_exit_code(args):
    result = _python("-m", "zdcert", *args, capture_output=True, env={"PYTHONIOENCODING": "ascii"})
    assert (result.returncode, result.stderr) == (0, "")
    assert "\\u221a10" in result.stdout and "√" not in result.stdout
    if args[0] == "verify":
        assert result.stdout.splitlines()[-1] == "OVERALL: PASS (10/10 computed checks pass)"
