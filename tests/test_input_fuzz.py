"""Fuzzing of the input layer: any JSON value, mutated dataset or file bytes given to
parse_input / load_input ends in a VerificationInput or an InputDataError, and
nothing else, in bounded time; every input that parses then goes through
run_certificate, to_json and render_text in bounded time without raising.  The
certificate's JSON writer matches json.dumps(indent=2, sort_keys=True) on any JSON value.
"""

import copy
import json
import time

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zdcert.certify import VerificationInput, _json, load_input, parse_input, run_certificate
from zdcert.cli import bundled_dataset_path
from zdcert.errors import InputDataError

BUNDLED_TEXT = bundled_dataset_path().read_bytes()
BUNDLED = json.loads(BUNDLED_TEXT)
SECONDS_PER_CALL = 2
FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])

# sizes at and around the parse_input caps, and values that used to hang trial division
_EDGE_INTEGERS = [0, 1, -1, 2, 10, 65, 2**61 - 1, 3 * (2**61 - 1), 10**18 + 9, 10**6, 10**6 + 1,
                  -(10**6) - 1, 10**12, 10**12 + 39, 3317044064679887385961981, -(10**30)]
integers = st.integers() | st.sampled_from(_EDGE_INTEGERS) | st.integers(-(10**40), 10**40)
scalars = st.none() | st.booleans() | integers | st.floats() | st.text(max_size=12)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=12), inner, max_size=5),
    max_leaves=25,
)


def _paths(node, path=()):
    """Every position in a JSON tree: dict keys and list indices, root first."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


BUNDLED_PATHS = list(_paths(BUNDLED))[1:]


@st.composite
def mutated_datasets(draw):
    """The bundled dataset with a few positions replaced by arbitrary JSON values, or deleted."""
    raw = copy.deepcopy(BUNDLED)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(BUNDLED_PATHS))
        parent = raw
        try:
            for key in path[:-1]:
                parent = parent[key]
            if draw(st.booleans()):
                parent[path[-1]] = draw(json_values)
            elif isinstance(parent, dict):
                parent.pop(path[-1], None)
        except (KeyError, IndexError, TypeError):
            continue  # an earlier mutation removed or replaced this position
    return raw


def _at(raw, path):
    for key in path:
        raw = raw[key]
    return raw


INTEGER_PATHS = [path for path in BUNDLED_PATHS if type(_at(BUNDLED, path)) is int]


@st.composite
def integer_mutated_datasets(draw):
    """The bundled dataset with one to three integers replaced by small or edge integers,
    so that many still parse and reach every check."""
    raw = copy.deepcopy(BUNDLED)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(INTEGER_PATHS))
        _at(raw, path[:-1])[path[-1]] = draw(st.integers(-30, 30) | st.sampled_from(_EDGE_INTEGERS))
    return raw


def _bounded(call, *args):
    t0 = time.perf_counter()
    try:
        result = call(*args)
    except InputDataError:
        result = None
    assert time.perf_counter() - t0 < SECONDS_PER_CALL, args
    assert result is None or isinstance(result, VerificationInput)
    if result is not None:
        t0 = time.perf_counter()
        cert = run_certificate(result)
        assert cert.verdict in ("pass", "fail") and cert.to_json() and cert.render_text()
        assert time.perf_counter() - t0 < SECONDS_PER_CALL, args


@FUZZ
@given(json_values)
def test_parse_input_on_any_json_value(raw):
    _bounded(parse_input, raw)


@FUZZ
@given(mutated_datasets())
def test_parse_input_on_mutated_bundled_dataset(raw):
    _bounded(parse_input, raw)


@FUZZ
@given(integer_mutated_datasets())
def test_certificate_on_integer_mutations_of_bundled_dataset(raw):
    _bounded(parse_input, raw)


@FUZZ
@given(st.data())
def test_load_input_on_mutated_file_bytes(tmp_path_factory, data):
    text = bytearray(BUNDLED_TEXT)
    for _ in range(data.draw(st.integers(1, 4))):
        i = data.draw(st.integers(0, len(text) - 1))
        text[i:i + 1] = data.draw(st.binary(max_size=3))
    path = tmp_path_factory.mktemp("fuzz") / "input.json"
    path.write_bytes(bytes(text))
    _bounded(load_input, path)


@FUZZ
@given(json_values)
def test_json_writer_matches_json_dumps(value):
    assert _json(value, "\n") == json.dumps(value, indent=2, sort_keys=True)
