"""The report writer and the per-process argument parser of the CLI.

`cli._json_text(value)` must be json.dumps(value, sort_keys=True,
indent=2, default=cli._json_default), byte for byte, on every value the
stdlib accepts, and raise the same exception type on every value it
refuses. `main` takes its parser from a cache, so a second request in one
process must give the bytes a fresh process gives.
"""

import gc
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bosewit import cli
from bosewit.cli import _json_default, _json_text, main

DATA = os.path.join(os.path.dirname(__file__), "data")
TS = "2026-01-01T00:00:00+00:00"


def stdlib_text(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2, default=_json_default)


def assert_same_as_stdlib(value):
    try:
        expected = stdlib_text(value)
    except Exception as exc:  # the writer must refuse it the same way
        with pytest.raises(type(exc)):
            _json_text(value)
        return
    assert _json_text(value) == expected


# --- property test ------------------------------------------------------------------

_FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
_PYTHON_SCALARS = (
    _FLOATS
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2250738585072014e-308])
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.sampled_from([2**64, -(2**64) - 1, 2**200])
    | st.booleans()
    | st.none()
    | st.text()
    | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "café ☃ \U0001f600", "a\nb\tc\rd"])
)
_NUMPY_SCALARS = (
    _FLOATS.map(np.float64)
    | st.floats(width=32).map(np.float32)
    | st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64)
    | st.booleans().map(np.bool_)
    | hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3))
    | hnp.arrays(np.int64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=3))
)
_KEYS = st.text() | st.integers() | st.floats() | st.booleans() | st.none()


def _containers(children):
    return (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        # one key type per dict; a mix fails the stdlib's sort, as tested below
        | st.dictionaries(st.text(), children, max_size=5)
        | st.dictionaries(_KEYS, children, max_size=3)
    )


_VALUES = st.recursive(_PYTHON_SCALARS | _NUMPY_SCALARS, _containers, max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(_VALUES)
def test_writer_is_the_stdlib_dump_byte_for_byte(value):
    assert_same_as_stdlib(value)


@pytest.mark.parametrize(
    "value",
    [
        {},
        [],
        (),
        {"a": {}, "b": [], "c": [[], {}, [[{}]]], "d": [{"e": []}]},
        [[[[]]]],
        np.zeros((0, 3)),
        np.zeros((2, 0)),
        np.array(1.5),
        np.array([[math.nan, math.inf], [-math.inf, -0.0]]),
        [np.float64(math.nan), np.float64(-math.inf), np.float64(1e-310)],
        {1.5: "float key", 2: "int key"},
        {True: 1, None: 2},
        {math.inf: 1, -math.inf: 2, math.nan: 3},
        [True, False, None, 0, 1, -1, 2**64, -(2**100)],
        ["\x00", " ", "\ud800", '"\\/'],
    ],
)
def test_writer_on_edge_values(value):
    assert_same_as_stdlib(value)


@pytest.mark.parametrize(
    "value",
    [object(), {"a": {1, 2}}, [1, b"bytes"], {(1, 2): 3}, {"a": 1, 2: 3}, np.array([object()])],
)
def test_writer_refuses_what_the_stdlib_refuses(value):
    with pytest.raises(TypeError):
        stdlib_text(value)
    with pytest.raises(TypeError):
        _json_text(value)


def test_float_subclasses_take_the_float_repr_path(monkeypatch):
    # np.float64 subclasses float: it is written by float.__repr__, never
    # through the default hook (which would see it as an np.generic)
    def refuse(value):
        raise AssertionError(f"default hook called on {value!r}")

    monkeypatch.setattr(cli, "_json_default", refuse)
    values = [np.float64(0.1), np.float64(math.nan), {"x": np.float64(-math.inf)}]
    assert _json_text(values) == json.dumps([0.1, math.nan, {"x": -math.inf}], indent=2)


# --- every CLI report kind ----------------------------------------------------------

REPORTS = {
    "fig1": ["fig1", "--format", "json"],
    "fig1-no-approx": ["fig1", "--format", "json", "--no-include-approx", "--n", "40"],
    "pure": ["witness", "--state", os.path.join(DATA, "css_050.state")],
    "pure-failing": ["witness", "--state", os.path.join(DATA, "twin_fock_20.state")],
    "mixture": ["witness", "--state", os.path.join(DATA, "masked_mixture.state")],
    "per-sector": [
        "witness",
        "--state",
        os.path.join(DATA, "masked_mixture.state"),
        "--per-sector",
        "--witness",
        "all",
        "--witness",
        "csi:2",
        "--witness",
        "qfi:x",
    ],
    "scan-fixed": ["scan-separable", "--samples", "5", "--n", "12", "--seed", "3"],
    "scan-fluctuating": [
        "scan-separable",
        "--samples",
        "3",
        "--fluctuating",
        "poisson:20",
        "--seed",
        "3",
    ],
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_every_report_kind_is_the_stdlib_dump(name, capsys, monkeypatch):
    payloads = []
    emit = cli._emit_json

    def recording(payload, out):
        payloads.append(payload)
        emit(payload, out)

    monkeypatch.setattr(cli, "_emit_json", recording)
    code = main(REPORTS[name] + ["--timestamp", TS])
    out = capsys.readouterr().out
    assert code in (0, 3)
    (payload,) = payloads
    assert out == stdlib_text(payload) + "\n"


# --- no cyclic garbage --------------------------------------------------------------


def test_requests_leave_no_cyclic_garbage(capsys):
    requests = [argv + ["--timestamp", TS] for argv in REPORTS.values()]
    requests.append(REPORTS["fig1"][:1] + ["--timestamp", TS])  # CSV
    for argv in requests:  # first calls fill the module-level caches
        main(argv)
    capsys.readouterr()
    gc.collect()
    gc.disable()
    try:
        for argv in requests:
            main(argv)
            capsys.readouterr()
            assert gc.collect() == 0, argv
    finally:
        gc.enable()


def test_a_failed_shared_qfi_call_leaves_no_cyclic_garbage(capsys, monkeypatch):
    from bosewit.errors import EmptyState

    def failing(state, directions):
        raise EmptyState("no particles")

    monkeypatch.setattr(cli, "qfi", failing)
    argv = ["witness", "--state", os.path.join(DATA, "css_050.state"), "--timestamp", TS]
    argv += ["--witness", "qfi:x", "--witness", "qfi:y"]
    assert main(argv) == 3
    capsys.readouterr()
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 3
        entries = json.loads(capsys.readouterr().out)["witnesses"]
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert entries["qfi:x"] == entries["qfi:y"] == {"error": "EmptyState", "message": "no particles"}


# --- one parser per process ---------------------------------------------------------


def test_main_builds_its_parser_once():
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()


def test_a_repeated_request_gives_the_same_bytes(capsys):
    argv = REPORTS["per-sector"] + ["--timestamp", TS]
    outputs = []
    for _ in range(2):
        code = main(list(argv))
        outputs.append((code, capsys.readouterr().out))
    assert outputs[0] == outputs[1]


def test_witness_lists_do_not_accumulate(capsys):
    state = os.path.join(DATA, "css_050.state")
    main(["witness", "--state", state, "--witness", "csi:2", "--timestamp", TS])
    first = json.loads(capsys.readouterr().out)
    main(["witness", "--state", state, "--witness", "eta2", "--timestamp", TS])
    second = json.loads(capsys.readouterr().out)
    assert sorted(first["witnesses"]) == ["csi:2"]
    assert sorted(second["witnesses"]) == ["eta2"]
    main(["witness", "--state", state, "--timestamp", TS])
    default = json.loads(capsys.readouterr().out)
    assert sorted(default["witnesses"]) == ["csi:1", "eta2", "qfi:z", "xi2"]


def test_a_parse_error_leaves_the_next_request_alone(capsys):
    argv = ["witness", "--state", os.path.join(DATA, "css_050.state"), "--timestamp", TS]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    assert main(["witness", "--format", "xml", "--state", "x"]) == 2
    assert main(["scan-separable", "--samples", "many"]) == 2
    assert main(["no-such-command"]) == 2
    error = capsys.readouterr()
    assert error.out == "" and "invalid choice" in error.err
    assert main(argv) == 0
    assert capsys.readouterr().out == expected

