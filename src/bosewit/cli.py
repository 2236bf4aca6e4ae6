"""Command-line front end.

Three subcommands: `fig1` tabulates the exact twin-Fock Cauchy-Schwarz
ratio against its large-N approximation, `witness` evaluates requested
entanglement witnesses on a described state, and `scan-separable` sweeps
random separable ensembles against every bound. All outputs embed a run
manifest (command, arguments, seed, PRNG, version, timestamp) so a report
is reproducible from its own header; pass --timestamp to pin the one
field that would otherwise differ between identical runs.

Exit codes: 0 success, 2 input error (an --out file that cannot be
written among them), 3 at least one witness failed (others are still
reported), 4 a separable sample broke a bound.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import math
import operator
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cache
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from ._version import __version__
from .errors import StateSpecError, WitnessError
from .scan import run_scan
from .separable import PRNG_NAME, NumberDistribution
from .statespec import parse_state_file
from .witnesses import (
    _parse_witness_request,
    _readings,
    twin_fock_csi_approx,
    twin_fock_csi_exact,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_WITNESS = 3
EXIT_VIOLATION = 4


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility header embedded verbatim in every output."""

    command: str
    arguments: list
    seed: int | None
    prng: str
    version: str
    timestamp: str

    @classmethod
    def create(cls, command: str, argv: list, seed: int | None, timestamp: str | None):
        if timestamp is None:
            timestamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        return cls(command, list(argv), seed, PRNG_NAME, __version__, timestamp)

    def as_dict(self) -> dict:
        """dataclasses.asdict(self), without its recursive deep copy (a
        twentieth of its cost): the fields are scalars and one str list."""
        return {**vars(self), "arguments": list(self.arguments)}


def _json_default(value):
    """json.dumps hook for numpy values: arrays as nested lists, scalars as
    the Python values they hold. (numpy's float64 subclasses float, which
    json writes through float.__repr__, so it never gets here.)"""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# --- report writer -----------------------------------------------------------------
#
# _json_text(value) is json.dumps(value, sort_keys=True, indent=2,
# default=_json_default), byte for byte. json.dumps writes an indented dump
# through nested pure-Python generators (the C encoder of CPython 3.10 and
# 3.11 takes no indent), each chunk passing up through every enclosing one;
# this writer appends each piece once to one list. A dict's text depends
# only on its contents and its pad, and a scan report embeds one sample's
# ensemble dict in every bound it is worst for, so each nonempty dict
# records the range of chunks it emitted and at what pad: met again at the
# same pad, its chunks are copied instead of walked again. The record holds
# the dict itself, so its id cannot be reused while the record exists. A
# regular table (a list of same-key dicts or of same-length lists, every
# value a scalar, such as a sector's components; or a dict of such lists,
# such as an ensemble's sectors) is one template for its shape, made once
# per call and filled by % with the texts of its leaves, from one
# map(float.__repr__) pass when all are floats. A list whose first row holds
# a container is no table, and no leaf is formatted before the whole table
# is known to be flat. A list of records (dicts of str keys whose values are
# scalars or records, such as the per_sector rows of witness) is one % as
# well: a shape is walked at its first row, further rows taken by its
# getters. The recursion is a module-level function, and the list
# and the memo are locals of one _json_text call that nothing they hold
# refers back to, so a call leaves no reference cycle behind.

_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_LEAF_KINDS = {str, int, float, bool, type(None)}  # a table's leaves (numpy's are walked)
_RECORD_KINDS = _LEAF_KINDS | {dict}
_LEAF_TEXTS = {str: encode_basestring_ascii, int: int.__repr__, float: float.__repr__,  # but for _FLOAT_WORDS
               bool: {True: "true", False: "false"}.__getitem__, type(None): {None: "null"}.__getitem__}


def _scalar_text(value) -> str | None:
    """The JSON text json.dumps gives a str, None, bool, int or float (a
    float subclass, such as numpy's float64, included); None for any other
    value."""
    if isinstance(value, float):
        text = float.__repr__(value)
        return _FLOAT_WORDS.get(text, text)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    return None


def _key_text(key) -> str:
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    text = _scalar_text(key)
    if text is None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return encode_basestring_ascii(text)


def _wrap(parts, pad: str, brackets: str = "[]") -> str:
    inner = pad + "  "
    return brackets[0] + "\n" + inner + (",\n" + inner).join(parts) + "\n" + pad + brackets[1]


def _key_part(key, part: str) -> str:
    return _key_text(key).replace("%", "%%") + ": " + part


def _table(lists: list):
    """(shape, leaves, whether all are floats) of nonempty lists whose rows
    are dicts of the same str keys (shape the sorted keys) or lists of one
    length (shape that length), all values scalars; None for other lists."""
    if set(map(type, lists)) != {list} or not all(lists):
        return None
    rows = list(chain.from_iterable(lists))
    first = rows[0]
    kinds = set(map(type, rows))
    if kinds == {dict} and set(map(type, first)) == {str}:
        shape, heads = tuple(sorted(first)), first.values()
    elif kinds <= {list, tuple}:
        shape, heads = len(first), first
    else:
        return None
    if not heads or set(map(len, rows)) != {len(heads)} or not set(map(type, heads)) <= _LEAF_KINDS:
        return None
    if type(shape) is int:
        leaves = list(chain.from_iterable(rows))
    else:
        try:  # a row as long as the first that holds all its keys has its keys
            leaves = [row[key] for row in rows for key in shape]
        except KeyError:
            return None
    kinds = set(map(type, leaves))
    return (shape, leaves, kinds == {float}) if kinds <= _LEAF_KINDS else None


def _template(shape, count: int, pad: str, memo: dict) -> str:
    """The text of `count` rows of `shape` at `pad`, %s for each leaf."""
    place = shape, count, pad
    if place not in memo:
        if type(shape) is int:
            row = _wrap(["%s"] * shape, pad + "  ")
        else:
            row = _wrap([_key_part(key, "%s") for key in shape], pad + "  ", "{}")
        memo[place] = _wrap([row] * count, pad)
    return memo[place]


def _record(value, memo: dict):
    """The shape of a record, a nonempty dict of str keys whose values are
    scalars or records: (its size, a getter of its values in sorted key
    order, the (position, shape) of each value that is a record, its
    description: the sorted keys, a record's key as (key, its
    description)); None for other values. memo keeps the sorted keys and
    the getter of each key order."""
    if type(value) is not dict or not value or not set(map(type, value.values())) <= _RECORD_KINDS:
        return None
    order = memo.get((tuple(value),))
    if order is None:
        keys = tuple(sorted(value)) if set(map(type, value)) == {str} else ()
        order = memo[(tuple(value),)] = keys, operator.itemgetter(*keys) if len(keys) > 1 else lambda row: (row[keys[0]],)
    keys, get = order
    if not keys:
        return None
    nested, description = [], []
    for position, (key, item) in enumerate(zip(keys, get(value))):
        if type(item) is dict:
            shape = _record(item, memo)
            if shape is None:
                return None
            nested.append((position, shape))
            key = key, shape[3]
        description.append(key)
    return len(keys), get, tuple(nested), tuple(description)


def _take(row, shape, leaves: list) -> bool:
    """Append the leaves of a record of `shape` to `leaves` in its order;
    False, some perhaps appended, for a row of another size, keys (a row of
    the shape's size that holds all its keys has its keys) or records."""
    size, get, nested, _ = shape
    if type(row) is not dict or len(row) != size:
        return False
    try:
        items = get(row)
    except KeyError:
        return False
    if not nested:
        leaves += items
        return True
    start = 0
    for position, inner in nested:
        leaves += items[start:position]
        if not _take(items[position], inner, leaves):
            return False
        start = position + 1
    leaves += items[start:]
    return True


def _records(rows: list, pad: str, memo: dict) -> str | None:
    """The text of a list of records at `pad`, or None for other lists:
    each row by the template of its shape, learned from the first row of
    that shape (_record) and taken by every further one (_take), the list
    filled by one %. A row that fits the shape of the row before in all but
    a leaf's kind (a record, a list, a numpy scalar in a leaf's place)
    fails the fill, and the list is no list of records."""
    leaves, parts, shape = [], [], None
    for row in rows:
        mark = len(leaves)
        if shape is None or not _take(row, shape, leaves):
            del leaves[mark:]
            shape = _record(row, memo)
            if shape is None:
                return None
            _take(row, shape, leaves)
            template = _record_template(shape[3], pad + "  ", memo)
        parts.append(template)
    try:
        return _fill(_wrap(parts, pad), leaves, False)
    except KeyError:  # a leaf of no leaf kind (_LEAF_TEXTS)
        return None


def _nests_scalars(value: dict) -> bool:
    """Whether a dict and the dicts it holds hold only scalars and dicts:
    a first row's cheap test before _record sorts any keys."""
    return set(map(type, value.values())) <= _RECORD_KINDS and all(
        _nests_scalars(item) for item in value.values() if type(item) is dict)


def _record_template(description, pad: str, memo: dict) -> str:
    """The text of a record of `description` at `pad`, %s for each leaf."""
    if (description, pad) not in memo:
        parts = [_key_part(key, "%s") if type(key) is str else
                 _key_part(key[0], _record_template(key[1], pad + "  ", memo)) for key in description]
        memo[description, pad] = _wrap(parts, pad, "{}")
    return memo[description, pad]


def _fill(template: str, leaves: list, floats: bool) -> str:
    if floats and math.isfinite(sum(leaves)):  # else some leaf may be NaN or inf
        return template % tuple(map(float.__repr__, leaves))
    texts = [_LEAF_TEXTS[type(leaf)](leaf) for leaf in leaves]
    if not _FLOAT_WORDS.keys().isdisjoint(texts):
        texts = [_FLOAT_WORDS.get(text, text) for text in texts]
    return template % tuple(texts)


def _put_value(value, pad: str, chunks: list, memo: dict) -> None:
    """Append the text of `value`, indented from `pad`, to `chunks`. `memo`
    maps (id, pad) of each nonempty dict written so far to (the dict, its
    first chunk, its end chunk), and (shape, row count, pad) of each table
    to its template."""
    put = chunks.append
    if isinstance(value, dict):
        if not value:
            put("{}")
            return
        place = id(value), pad
        record = memo.get(place)
        if record is not None:
            chunks.extend(chunks[record[1] : record[2]])
            return
        start = len(chunks)
        inner = pad + "  "
        items = sorted(value.items())
        table = _table([item for _, item in items]) if type(items[0][1]) is list else None
        if table is not None:  # a dict of tables
            shape, leaves, floats = table
            parts = [_key_part(key, _template(shape, len(rows), inner, memo)) for key, rows in items]
            put(_fill(_wrap(parts, pad, "{}"), leaves, floats))
            memo[place] = value, start, len(chunks)
            return
        separator = "{\n" + inner
        for key, item in items:
            key = encode_basestring_ascii(key) if type(key) is str else _key_text(key)
            text = _scalar_text(item)
            if text is None:
                put(separator + key + ": ")
                _put_value(item, inner, chunks, memo)
            else:
                put(separator + key + ": " + text)
            separator = ",\n" + inner
        put("\n" + pad + "}")
        memo[place] = value, start, len(chunks)
    elif isinstance(value, (list, tuple)):
        if not value:
            put("[]")
            return
        table = _table([value]) if isinstance(value[0], (dict, list, tuple)) else None
        if table is not None:
            shape, leaves, floats = table
            put(_fill(_template(shape, len(value), pad, memo), leaves, floats))
            return
        text = _records(value, pad, memo) if type(value[0]) is dict and _nests_scalars(value[0]) else None
        if text is not None:
            put(text)
            return
        texts = list(map(_scalar_text, value))
        if None not in texts:
            put(_wrap(texts, pad))
            return
        inner = pad + "  "
        separator = "[\n" + inner
        for item, text in zip(value, texts):
            if text is None:
                put(separator)
                _put_value(item, inner, chunks, memo)
            else:
                put(separator + text)
            separator = ",\n" + inner
        put("\n" + pad + "]")
    else:
        text = _scalar_text(value)
        if text is None:
            _put_value(_json_default(value), pad, chunks, memo)
        else:
            put(text)


def _json_text(value) -> str:
    chunks = []
    _put_value(value, "", chunks, {})
    return "".join(chunks)


def _emit_json(payload: dict, out: str | None) -> None:
    _write_text(_json_text(payload) + "\n", out)


def _write_text(text: str, out: str | None) -> None:
    """Write a report to stdout or to the --out file. A file that cannot be
    written is an input error: its message, then SystemExit(2), which main
    returns as it does argparse's own."""
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise SystemExit(_fail(f"cannot write {out}: {exc.strerror or exc}")) from exc


def _check_out(out: str | None) -> None:
    """Refuse, before any work and before the file is made or truncated, an
    --out file whose directory is missing or not writable."""
    if out is None:
        return
    folder = os.path.dirname(out) or "."
    reason = errno.EACCES if os.path.isdir(folder) else errno.ENOENT
    if reason == errno.ENOENT or not os.access(folder, os.W_OK):
        raise SystemExit(_fail(f"cannot write {out}: {os.strerror(reason)}"))


def _manifest_comment(manifest: RunManifest) -> str:
    return "# manifest: " + json.dumps(manifest.as_dict(), sort_keys=True, default=_json_default)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT


def _parse_int_list(text: str, what: str) -> list:
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"{what} must be a comma-separated integer list; got {text!r}")
    if not values:
        raise ValueError(f"{what} must name at least one value")
    return values


# --- fig1 ------------------------------------------------------------------------


def _cmd_fig1(args, argv) -> int:
    try:
        n_list = _parse_int_list(args.n, "--n")
        orders = _parse_int_list(args.orders, "--orders")
    except ValueError as exc:
        return _fail(str(exc))
    for n in n_list:
        if n <= 0 or n % 2:
            return _fail(f"--n values must be positive even integers; got {n}")
    for order in orders:
        if order <= 0 or order % 2:
            return _fail(f"--orders values must be positive even integers; got {order}")
    for n in n_list:
        for order in orders:
            if order > n // 2:
                return _fail(
                    f"order 2m = {order} exceeds N/2 for the pair (N = {n}, 2m = {order})"
                )
    manifest = RunManifest.create("fig1", argv, None, args.timestamp)
    rows = []
    for n in sorted(n_list):
        for order in sorted(orders):
            m = order // 2
            try:
                exact = twin_fock_csi_exact(n, m)
                approx = twin_fock_csi_approx(n, m) if args.include_approx else None
            except WitnessError as exc:
                return _fail(f"the pair (N = {n}, 2m = {order}): {exc}")
            rel_dev = None if approx is None else abs(approx - exact) / exact
            rows.append(
                {
                    "n": n,
                    "order_2m": order,
                    "exact": exact,
                    "approx": approx,
                    "rel_dev": rel_dev,
                }
            )
    if args.format == "json":
        _emit_json({"manifest": manifest.as_dict(), "rows": rows}, args.out)
    else:
        buffer = io.StringIO()
        buffer.write(_manifest_comment(manifest) + "\n")
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["n", "order_2m", "exact", "approx", "rel_dev"])
        for row in rows:
            writer.writerow(
                [
                    row["n"],
                    row["order_2m"],
                    format(row["exact"], ".15g"),
                    "" if row["approx"] is None else format(row["approx"], ".15g"),
                    "" if row["rel_dev"] is None else format(row["rel_dev"], ".15g"),
                ]
            )
        _write_text(buffer.getvalue(), args.out)
    return EXIT_OK


# --- witness ---------------------------------------------------------------------


# the requests `all` stands for
_ALL_WITNESSES = ("csi:1", "eta2", "xi2", "qfi:z")


def _expand_witness_requests(raw_requests):
    """The (key, kind, parameter) requests of --witness values in order,
    with `all` expanded; the first request of each report key wins, so a
    report shows exactly what was judged."""
    requests = {}
    for text in raw_requests:
        request = _parse_witness_request(text)
        expanded = map(_parse_witness_request, _ALL_WITNESSES) if request[1] == "all" else [request]
        for key, kind, param in expanded:
            requests.setdefault(key, (key, kind, param))
    return list(requests.values())


def _entries(columns) -> list:
    """[(entries, verdicts, had_error)] of each reading, from the columns
    of witnesses._readings: each entry has value/bound/flag or
    error/message, so a failed witness aborts no other; verdicts, those of
    classify, come from the flags of the entries that hold, and are None
    when no witness of the reading computed."""
    keys, values, bounds, flags, failures, verdicts = columns
    entries = [{} for _ in verdicts]
    for key, *column in zip(keys, values, bounds, flags):
        for entry, value, bound, flag in zip(entries, *column):
            entry[key] = {"value": value, "bound": bound, "flag": flag}
    readings = [
        (entry, {"entangled_by_csi": csi, "entangled_by_qfi": qfi, "entangled_by_spin_squeezing": xi2, "any_entangled": any_},
         False)
        for entry, (csi, qfi, xi2, any_) in zip(entries, verdicts)
    ]
    for s, failed in failures.items():
        for key, failure in failed.items():
            entries[s][key] = {"error": failure.error.__name__, "message": failure.message}
        readings[s] = entries[s], None if len(failed) == len(keys) else readings[s][1], True
    return readings


def _cmd_witness(args, argv) -> int:
    try:
        requests = _expand_witness_requests(args.witness or ["all"])
    except ValueError as exc:
        return _fail(str(exc))
    try:
        spec = parse_state_file(args.state)
        state = spec.build()
    except StateSpecError as exc:
        return _fail(str(exc))
    n_reference = state.mean_n
    manifest = RunManifest.create("witness", argv, None, args.timestamp)
    sectors, columns = _readings(state, requests, args.per_sector)
    (entries, verdicts, had_error), *readings = _entries(columns)
    payload = {
        "manifest": manifest.as_dict(),
        "state": spec.describe(),
        "n_reference": n_reference,
        "witnesses": entries,
        "verdicts": verdicts,
    }
    if args.per_sector:
        had_error = had_error or any(error for _, _, error in readings)
        payload["per_sector"] = [
            {"n": n, "weight": weight, "witnesses": sector_entries, "verdicts": sector_verdicts}
            for (n, weight), (sector_entries, sector_verdicts, _) in zip(sectors, readings)
        ]
    if args.format == "json":
        _emit_json(payload, args.out)
    else:
        buffer = io.StringIO()
        buffer.write(_manifest_comment(manifest) + "\n")
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["scope", "witness", "value", "bound", "flag", "error"])

        def rows_for(scope, witness_entries):
            for key in sorted(witness_entries):
                entry = witness_entries[key]
                if "value" in entry:
                    writer.writerow(
                        [
                            scope,
                            key,
                            format(entry["value"], ".15g"),
                            "" if entry["bound"] is None else format(entry["bound"], ".15g"),
                            "" if entry["flag"] is None else str(entry["flag"]).lower(),
                            "",
                        ]
                    )
                else:
                    writer.writerow([scope, key, "", "", "", entry["error"]])

        rows_for("overall", entries)
        for sector_report in payload.get("per_sector", []):
            rows_for(f"n={sector_report['n']}", sector_report["witnesses"])
        _write_text(buffer.getvalue(), args.out)
    return EXIT_WITNESS if had_error else EXIT_OK


# --- scan-separable ----------------------------------------------------------------


# the form of each --fluctuating kind, named when its parameters do not parse
_DISTRIBUTION_FORMS = {
    "poisson": "poisson:MEAN with a number MEAN",
    "binomial": "binomial:TRIALS,PROB with an integer TRIALS and a number PROB",
    "deterministic": "deterministic:N with an integer N",
}


def _parse_distribution(text: str) -> NumberDistribution:
    kind, _, param = text.partition(":")
    kind = kind.strip().lower()
    if kind not in _DISTRIBUTION_FORMS:
        raise ValueError(
            f"unknown distribution {text!r}; use poisson:MEAN, binomial:TRIALS,PROB "
            "or deterministic:N"
        )
    try:
        if kind == "binomial":
            trials, prob = param.split(",")
            numbers = int(trials), float(prob)
        else:
            numbers = (float(param) if kind == "poisson" else int(param),)
    except ValueError:
        form = _DISTRIBUTION_FORMS[kind]
        raise ValueError(f"--fluctuating {kind} needs {form}; got {text!r}") from None
    return getattr(NumberDistribution, kind)(*numbers)


def _cmd_scan(args, argv) -> int:
    if (args.n is None) == (args.fluctuating is None):
        return _fail("give exactly one of --n or --fluctuating")
    distribution = None
    if args.fluctuating is not None:
        try:
            distribution = _parse_distribution(args.fluctuating)
        except ValueError as exc:
            return _fail(str(exc))
    manifest = RunManifest.create("scan-separable", argv, args.seed, args.timestamp)
    try:
        report = run_scan(
            samples=args.samples,
            seed=args.seed,
            n_total=args.n,
            distribution=distribution,
            n_components=args.components,
            n_directions=args.directions,
        )
    except ValueError as exc:
        return _fail(str(exc))
    payload = {"manifest": manifest.as_dict(), **report}
    _emit_json(payload, args.out)
    if report["total_violations"] > 0:
        print(
            f"error: {report['total_violations']} separable sample(s) violated a bound; "
            "this indicates an implementation bug",
            file=sys.stderr,
        )
        return EXIT_VIOLATION
    return EXIT_OK


# --- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bosewit",
        description="Two-mode bosonic entanglement witnesses and separable-bound checks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    fig1 = sub.add_parser(
        "fig1",
        help="exact twin-Fock Cauchy-Schwarz ratios against the large-N approximation",
    )
    fig1.add_argument("--n", default="100,250,500,1000", help="comma-separated even N values")
    fig1.add_argument("--orders", default="2,4,6,8", help="comma-separated even 2m values")
    fig1.add_argument(
        "--include-approx",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="also emit exp(eps^2 N / 2) and the relative deviation",
    )
    fig1.add_argument("--format", choices=("csv", "json"), default="csv")
    fig1.add_argument("--out", default=None, help="output path (default stdout)")
    fig1.add_argument("--timestamp", default=None, help="pin the manifest timestamp")
    fig1.set_defaults(handler=_cmd_fig1)

    witness = sub.add_parser("witness", help="evaluate witnesses on a described state")
    witness.add_argument("--state", required=True, help="state description file")
    witness.add_argument(
        "--witness",
        action="append",
        metavar="SPEC",
        help="csi[:m] | eta2 | xi2 | qfi[:x|y|z|nx,ny,nz] | all (repeatable; default all)",
    )
    witness.add_argument(
        "--per-sector",
        action="store_true",
        help="also evaluate each particle-number sector of a fluctuating state",
    )
    witness.add_argument("--format", choices=("json", "csv"), default="json")
    witness.add_argument("--out", default=None)
    witness.add_argument("--timestamp", default=None)
    witness.set_defaults(handler=_cmd_witness)

    scan = sub.add_parser(
        "scan-separable", help="random separable ensembles against every bound"
    )
    scan.add_argument("--samples", type=int, required=True)
    scan.add_argument("--n", type=int, default=None, help="fixed total particle number")
    scan.add_argument(
        "--fluctuating",
        default=None,
        metavar="DIST",
        help="poisson:MEAN | binomial:TRIALS,PROB | deterministic:N",
    )
    scan.add_argument("--seed", type=int, default=42)
    scan.add_argument("--components", type=int, default=4)
    scan.add_argument("--directions", type=int, default=10)
    scan.add_argument("--out", default=None)
    scan.add_argument("--timestamp", default=None)
    scan.set_defaults(handler=_cmd_scan)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built once per process: parse_args keeps no
    state between calls."""
    return build_parser()


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parser().parse_args(argv)
        _check_out(args.out)
        return args.handler(args, list(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
