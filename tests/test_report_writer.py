"""The report writer and the per-process argument parser of the CLI.

`cli._json_text(value)` must be json.dumps(value, sort_keys=True,
indent=2, default=cli._json_default), byte for byte, on every value the
stdlib accepts, and raise the same exception type on every value it
refuses. `main` takes its parser from a cache, so a second request in one
process must give the bytes a fresh process gives.
"""

import copy
import gc
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bosewit import cli, witnesses
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


# regular tables, which the writer writes from one template per shape: lists
# of same-key dicts, of same-length lists, and dicts of such lists
_TABLE_LEAVES = (
    _FLOATS
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0])
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.booleans()
    | st.none()
    | st.text(max_size=4)
    | _FLOATS.map(np.float64)
    | st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64)
)
_FLOAT_LEAVES = _FLOATS | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
_TABLE_KEYS = st.text(max_size=4) | st.sampled_from(
    ["%", "%s", "%%", "%(a)s", '"', "\\", "\x00\x1f\x7f", "café ☃", "\U0001f600", "a\nb"]
)


@st.composite
def _row_shapes(draw):
    """Rows of one shape: same-key dicts with 1 to 5 keys, or lists of one
    length from 1 to 5, with leaves of one kind or of many."""
    leaves = draw(st.sampled_from([_TABLE_LEAVES, _FLOAT_LEAVES]))
    if draw(st.booleans()):
        keys = draw(st.lists(_TABLE_KEYS, min_size=1, max_size=5, unique=True))
        return st.fixed_dictionaries({key: leaves for key in keys})
    width = draw(st.integers(min_value=1, max_value=5))
    return st.lists(leaves, min_size=width, max_size=width)


_TABLES = _row_shapes().flatmap(lambda row: st.lists(row, min_size=1, max_size=6))
_TABLE_VALUES = (
    _TABLES
    # dicts of tables of one shape, as an ensemble's sectors, and of many
    | _row_shapes().flatmap(
        lambda row: st.dictionaries(_TABLE_KEYS, st.lists(row, min_size=1, max_size=4), max_size=4)
    )
    | st.dictionaries(_TABLE_KEYS, _TABLES, max_size=4)
)


@settings(max_examples=400, deadline=None)
@given(_TABLE_VALUES, st.integers(min_value=0, max_value=2))
def test_tables_are_the_stdlib_dump_byte_for_byte(table, depth):
    value = table
    for _ in range(depth):  # at a deeper pad, as in a report
        value = {"x": [value, 1]}
    assert_same_as_stdlib(value)


@pytest.mark.parametrize(
    "value",
    [
        # keys that compare equal but print differently are not one shape
        [{1: 0.5}, {1.0: 0.5}],
        [{True: 1.0}, {1: 1.0}],
        [{0.0: 1.0}, {-0.0: 1.0}],
        {"a": [{1: 0.5}], "b": [{1.0: 0.5}]},
        {"a": [{"%s": 1.0, "%": 2.0, "%%": 3.0}], "%d": [{"%s": 4.0, "%": 5.0, "%%": 6.0}]},
        [{"a": 1.0}, {"b": 1.0}],
        [{"a": 1.0, "b": 2.0}, {"a": 1.0, "c": 2.0}],
        [{"a": 1.0}, {"a": 1.0, "b": 2.0}],
        [[1.0], [2.0, 3.0]],
        [[1.0, [2.0]], [3.0, 4.0]],
        [{"a": 1.0}, [1.0]],
        [{"a": np.float32(0.5)}, {"a": np.bool_(True)}],
        {"a": [[1.0]], "b": []},
        {"a": [[1.0]], "b": [{"c": 1.0}]},
        {"a": [[1.0, math.nan]], "b": [[math.inf, -math.inf]]},
        [[1e308, 1e308], [-0.0, 5e-324]],
        [(1.0, 2.0), [3.0, 4.0]],
    ],
)
def test_near_tables_are_the_stdlib_dump(value):
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


# --- shared subtrees -----------------------------------------------------------------


class CountingDict(dict):
    """A dict that counts the reads of its items."""

    reads = 0

    def items(self):
        self.reads += 1
        return super().items()


def _shared_cases():
    shared = {"weight": 0.25, "z": [0.5, {"phi": -1.0}]}
    nested = {"ensemble": shared, "order_m": 2}
    empty = {}
    numeric = {"w": np.float64(0.125), "n": np.int64(3), "rows": np.arange(4.0).reshape(2, 2)}
    return {
        "same depth": {"a": shared, "b": shared, "c": [1, 2]},
        "two depths": {"a": shared, "b": {"c": shared}, "d": [shared, [shared]]},
        "list and dict": {"dict": {"x": shared}, "list": [shared, 5], "tuple": (shared,)},
        "nested shares": [nested, {"ensemble": shared}, nested, shared],
        "empty": {"a": empty, "b": [empty, empty], "c": {"d": empty}},
        "numpy values": {"a": numeric, "b": [numeric], "c": {"d": numeric}, "e": numeric},
    }


@pytest.mark.parametrize("name", sorted(_shared_cases()))
def test_shared_dicts_are_the_stdlib_dump(name):
    assert_same_as_stdlib(_shared_cases()[name])


def test_a_dict_shared_at_one_depth_is_walked_once():
    shared = CountingDict(weight=0.5, z=[0.25, 0.75])
    one_pad = {"bounds": [{"worst_sample": shared}, {"worst_sample": shared}], "last": [{"x": shared}]}
    two_pads = {"a": shared, "b": {"c": shared}, "d": shared}
    for value, reads in ((one_pad, 1), (two_pads, 2)):
        expected = stdlib_text(value)
        shared.reads = 0
        assert _json_text(value) == expected
        assert shared.reads == reads


def test_an_ensemble_shared_by_several_bounds_is_walked_once():
    ensemble = CountingDict(
        number_weights=[[0, 0.25], [1, 0.75]],
        sectors={
            "0": [{"phi": 0.5, "weight": 1.0, "z": 0.25}],
            "1": [{"phi": -1.0, "weight": 0.5, "z": 0.5}, {"phi": 2.0, "weight": 0.5, "z": 0.75}],
        },
    )
    flat = CountingDict(weight=0.5, z=0.25)
    bounds = [
        {"name": f"bound {i}", "rows": [flat, flat], "worst_sample": {"ensemble": ensemble}}
        for i in range(4)
    ]
    value = {"bounds": bounds}
    expected = stdlib_text(value)
    ensemble.reads = flat.reads = 0
    assert _json_text(value) == expected
    assert ensemble.reads == 1
    assert flat.reads == 1


# --- lists of records ---------------------------------------------------------------
#
# A list of records (dicts of str keys whose values are scalars or records,
# such as the per_sector rows of witness) is written row by row: the first
# row of a shape teaches the writer its keys, getter and template, and each
# further row of that shape is taken by them. These lists repeat one nested
# shape and then break it, row by row.

_RECORD_LEAVES = (
    st.floats(allow_nan=False, allow_infinity=False)
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.booleans()
    | st.none()
    | st.text(max_size=4)
)


@st.composite
def _record_shapes(draw, depth=2):
    """{key: None for a leaf, or the shape of a nested record}."""
    keys = draw(st.lists(_TABLE_KEYS, min_size=1, max_size=4, unique=True))
    return {key: draw(_record_shapes(depth - 1)) if depth and draw(st.booleans()) else None for key in keys}


def _records_of(shape):
    return st.fixed_dictionaries(
        {key: _RECORD_LEAVES if inner is None else _records_of(inner) for key, inner in shape.items()}
    )


def _slots(record):
    """(dict, key) of every value of a record and of its nested records."""
    slots = [(record, key) for key in record]
    for item in list(record.values()):
        if type(item) is dict:
            slots += _slots(item)
    return slots


_BREAKS = ("order", "missing", "extra", "list", "none", "nonfinite", "nonstr", "intkeys", "shared")


def _broken(draw, row, rows):
    """A copy of `row` with one break of its shape, or a row of `rows`
    itself, shared."""
    kind = draw(st.sampled_from(_BREAKS))
    if kind == "shared":
        return draw(st.sampled_from(rows))
    row = copy.deepcopy(row)
    if not _slots(row):  # a row emptied by an earlier break
        return row
    record, key = draw(st.sampled_from(_slots(row)))
    value = record[key]
    if kind == "order":  # the same keys, inserted in another order
        target = value if type(value) is dict else record
        items = list(target.items())
        target.clear()
        target.update(reversed(items))
    elif kind == "missing":
        del record[key]
    elif kind == "extra":
        record[f"{key}+"] = draw(_RECORD_LEAVES)
    elif kind == "list":
        record[key] = list(value.values()) if type(value) is dict else [value]
    elif kind == "none":
        record[key] = None
    elif kind == "nonfinite":
        record[key] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif kind == "nonstr":  # beside str keys: the stdlib's sort refuses it
        record[draw(st.sampled_from([1, 2.5, True, None]))] = 0.5
    else:  # a nested record of int keys only
        record[key] = dict(enumerate(value.values())) if type(value) is dict else {0: value}
    return row


@settings(max_examples=400, deadline=None)
@given(st.data(), st.integers(min_value=0, max_value=2))
def test_lists_of_records_that_break_their_shape_are_the_stdlib_dump(data, depth):
    shape = data.draw(_record_shapes())
    rows = data.draw(st.lists(_records_of(shape), min_size=2, max_size=8))
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        at = data.draw(st.integers(min_value=0, max_value=len(rows) - 1))
        rows[at] = _broken(data.draw, rows[at], rows)
    value = rows
    for _ in range(depth):
        value = {"x": [value, 1]}
    assert_same_as_stdlib(value)


def _sector_row(n, broken=None):
    entry = {"value": 0.5 + n, "bound": 1.0, "flag": False}
    row = {
        "n": n,
        "weight": 0.125,
        "witnesses": {"csi:1": dict(entry), "eta2": {"value": 0.25, "bound": None, "flag": None}},
        "verdicts": {"any_entangled": False, "entangled_by_csi": n % 2 == 0},
    }
    if broken == "error":
        row["witnesses"]["csi:1"] = {"error": "DegenerateLocalCorrelation", "message": "too small"}
    elif broken == "none":
        row["verdicts"] = None
    elif broken == "numpy":
        row["weight"] = np.float64(0.125)
    elif broken == "list":
        row["witnesses"]["eta2"] = [0.25, None]
    return row


@pytest.mark.parametrize("broken", [None, "error", "none", "numpy", "list"])
def test_rows_of_one_shape_take_the_shape_of_the_row_before(broken, monkeypatch):
    # the rows of the first shape teach the writer once; a row of another
    # shape in the middle teaches it again, and the row after it once more
    learned = []
    record = cli._record
    monkeypatch.setattr(cli, "_record", lambda value, memo: learned.append(value) or record(value, memo))
    rows = [_sector_row(n, broken if n == 5 else None) for n in range(10)]
    assert _json_text(rows) == stdlib_text(rows)
    tops = [value for value in learned if any(value is row for row in rows)]
    if broken is None:
        assert tops == [rows[0]]
    elif broken == "error":  # a row of its own shape
        assert tops == [rows[0], rows[5], rows[6]]
    # else a leaf of no leaf kind, or a record where the shape of the row
    # before holds None: no list of records, the rows walked dict by dict


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
    "scan-one-component": ["scan-separable", "--samples", "3", "--n", "12", "--components", "1"],
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

