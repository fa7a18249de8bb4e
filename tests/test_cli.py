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


def _python(*args, timeout=60, **kwargs):
    """Run a fresh interpreter that imports zdcert from this source tree."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": path}, text=True,
                          timeout=timeout, **kwargs)


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


@pytest.mark.parametrize("args", [["unit", "--d", HUGE_D], ["principal", "--d", HUGE_D, "--a", "2", "--b", "1"],
                                  ["weil", "--p", "17", "--a", "1", "--b", "1", "--d", HUGE_D]])
def test_huge_d_is_refused_at_once(args):
    result = _python("-m", "zdcert", *args, capture_output=True, timeout=1)
    assert result.returncode == 2
    assert result.stderr.startswith("error:") and "exceeds the bound" in result.stderr


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
