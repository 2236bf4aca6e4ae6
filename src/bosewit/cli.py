"""Command-line front end.

Three subcommands: `fig1` tabulates the exact twin-Fock Cauchy-Schwarz
ratio against its large-N approximation, `witness` evaluates requested
entanglement witnesses on a described state, and `scan-separable` sweeps
random separable ensembles against every bound. All outputs embed a run
manifest (command, arguments, seed, PRNG, version, timestamp) so a report
is reproducible from its own header; pass --timestamp to pin the one
field that would otherwise differ between identical runs.

Exit codes: 0 success, 2 input error, 3 at least one witness failed
(others are still reported), 4 a separable sample broke a bound.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from functools import cache
from json.encoder import encode_basestring_ascii

import numpy as np

from ._version import __version__
from .errors import NonFiniteWitnessValue, SectorTooLarge, StateSpecError, WitnessError
from .fock import DEFAULT_N_MAX, GeneratorSpec, NumberSectorMixture
from .scan import run_scan
from .separable import PRNG_NAME, NumberDistribution
from .statespec import parse_state_file
from .witnesses import (
    classify,
    csi_ratio,
    integrated_g2m_orders,
    number_squeezing_direct,
    qfi,
    spin_squeezing,
    twin_fock_csi_approx,
    twin_fock_csi_exact,
    witness_verdict,
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
# this writer appends each piece once to one list. The recursion is a
# module-level function handed the list's append, so a call leaves no
# reference cycle behind.

_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


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


def _put_value(value, pad: str, put) -> None:
    """Append the text of `value`, indented from `pad`, piece by piece."""
    if isinstance(value, dict):
        if not value:
            put("{}")
            return
        inner = pad + "  "
        separator = "{\n" + inner
        for key, item in sorted(value.items()):
            text = _scalar_text(item)
            if text is None:
                put(separator + _key_text(key) + ": ")
                _put_value(item, inner, put)
            else:
                put(separator + _key_text(key) + ": " + text)
            separator = ",\n" + inner
        put("\n" + pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            put("[]")
            return
        inner = pad + "  "
        texts = list(map(_scalar_text, value))
        if None not in texts:
            put("[\n" + inner + (",\n" + inner).join(texts) + "\n" + pad + "]")
            return
        separator = "[\n" + inner
        for item, text in zip(value, texts):
            if text is None:
                put(separator)
                _put_value(item, inner, put)
            else:
                put(separator + text)
            separator = ",\n" + inner
        put("\n" + pad + "]")
    else:
        text = _scalar_text(value)
        if text is None:
            _put_value(_json_default(value), pad, put)
        else:
            put(text)


def _json_text(value) -> str:
    chunks = []
    _put_value(value, "", chunks.append)
    return "".join(chunks)


def _emit_json(payload: dict, out: str | None) -> None:
    _write_text(_json_text(payload) + "\n", out)


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _manifest_comment(manifest: RunManifest) -> str:
    return "# manifest: " + json.dumps(asdict(manifest), sort_keys=True, default=_json_default)


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
            exact = twin_fock_csi_exact(n, m)
            if args.include_approx:
                approx = twin_fock_csi_approx(n, m)
                rel_dev = abs(approx - exact) / exact
            else:
                approx = None
                rel_dev = None
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
        _emit_json({"manifest": asdict(manifest), "rows": rows}, args.out)
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


def _parse_witness_request(text: str):
    """One --witness value -> (kind, parameter). Raises ValueError."""
    name, _, param = text.partition(":")
    name = name.strip().lower()
    if name == "all":
        if param:
            raise ValueError("'all' takes no parameter")
        return ("all", None)
    if name == "csi":
        m = int(param) if param else 1
        if m < 1:
            raise ValueError(f"csi order m must be >= 1; got {m}")
        return ("csi", m)
    if name in ("eta2", "xi2"):
        if param:
            raise ValueError(f"{name!r} takes no parameter")
        return (name, None)
    if name == "qfi":
        if not param:
            return ("qfi", GeneratorSpec.axis("z"))
        if param in ("x", "y", "z"):
            return ("qfi", GeneratorSpec.axis(param))
        parts = [float(p) for p in param.split(",")]
        if len(parts) != 3:
            raise ValueError("qfi direction needs 'x'|'y'|'z' or three components")
        return ("qfi", GeneratorSpec.from_vector(np.array(parts)))
    raise ValueError(f"unknown witness {text!r}")


def _expand_witness_requests(raw_requests):
    requests = []
    for text in raw_requests:
        kind, param = _parse_witness_request(text)
        if kind == "all":
            requests.extend(
                [("csi", 1), ("eta2", None), ("xi2", None), ("qfi", GeneratorSpec.axis("z"))]
            )
        else:
            requests.append((kind, param))
    deduplicated = []
    seen = set()
    for kind, param in requests:
        key = (kind, param.key() if isinstance(param, GeneratorSpec) else param)
        if key not in seen:
            seen.add(key)
            deduplicated.append((kind, param))
    return deduplicated


def _witness_key(kind: str, param) -> str:
    if kind == "csi":
        return f"csi:{param}"
    if kind == "qfi":
        nx, ny, nz = param.direction
        for axis in ("x", "y", "z"):
            if param.key() == GeneratorSpec.axis(axis).key():
                return f"qfi:{axis}"
        return f"qfi:{nx:g},{ny:g},{nz:g}"
    return kind


def _evaluate_witnesses(state, n_reference: float, requests) -> tuple:
    """Returns ({key: entry}, verdicts, had_error). Each entry has
    value/bound/flag or error/message; witness failures never abort the
    other witnesses. verdicts is None when no witness computed.

    All csi requests are evaluated by one integrated_g2m_orders call, and
    all qfi requests by one qfi call on their direction stack, so the
    correlator rows are streamed once and each sector is factorized once;
    if the qfi call fails, every qfi entry carries the error.
    """
    csi_orders = [param for kind, param in requests if kind == "csi"]
    csi_integrals = {}
    if csi_orders:
        csi_integrals = dict(zip(csi_orders, integrated_g2m_orders(state, csi_orders)))
    qfi_params = [param for kind, param in requests if kind == "qfi"]
    qfi_values, qfi_failure = {}, None
    if qfi_params:
        try:
            stack = np.array([param.direction for param in qfi_params])
            qfi_values = dict(zip((p.key() for p in qfi_params), qfi(state, stack)))
        except WitnessError as exc:
            # kept as its entry: the exception would hold this frame through
            # its traceback, a reference cycle
            qfi_failure = {"error": type(exc).__name__, "message": str(exc)}
    entries = {}
    computed = {"csi_by_order": {}, "qfi_by_generator": {}}
    had_error = False
    for kind, param in requests:
        key = _witness_key(kind, param)
        if kind == "qfi" and qfi_failure is not None:
            had_error = True
            entries[key] = dict(qfi_failure)
            continue
        try:
            if kind == "csi":
                value = csi_ratio(csi_integrals[param])
            elif kind == "eta2":
                value = number_squeezing_direct(state)
            elif kind == "xi2":
                value = spin_squeezing(state)
            else:
                value = float(qfi_values[param.key()])
            if not math.isfinite(value):
                raise NonFiniteWitnessValue(
                    f"{key} evaluated to {value!r}, which no bound can judge"
                )
        except WitnessError as exc:
            had_error = True
            entries[key] = {"error": type(exc).__name__, "message": str(exc)}
            continue
        bound, flag = witness_verdict(kind, value, n_reference)
        entries[key] = {"value": value, "bound": bound, "flag": flag}
        if kind == "csi":
            computed["csi_by_order"][param] = value
        elif kind == "qfi":
            computed["qfi_by_generator"][key] = value
        else:
            computed[kind] = value
    if all("error" in entry for entry in entries.values()):
        return entries, None, had_error
    report = classify(n_reference, **computed)
    verdicts = {
        "entangled_by_csi": report.entangled_by_csi,
        "entangled_by_qfi": report.entangled_by_qfi,
        "entangled_by_spin_squeezing": report.entangled_by_spin_squeezing,
        "any_entangled": report.any_entangled,
    }
    return entries, verdicts, had_error


def _cmd_witness(args, argv) -> int:
    try:
        requests = _expand_witness_requests(args.witness or ["all"])
    except ValueError as exc:
        return _fail(str(exc))
    try:
        spec = parse_state_file(args.state)
        state = spec.build(n_max=args.n_max)
    except (StateSpecError, SectorTooLarge) as exc:
        return _fail(str(exc))
    n_reference = state.mean_n
    manifest = RunManifest.create("witness", argv, None, args.timestamp)
    entries, verdicts, had_error = _evaluate_witnesses(state, n_reference, requests)
    payload = {
        "manifest": asdict(manifest),
        "state": spec.describe(),
        "n_reference": n_reference,
        "witnesses": entries,
        "verdicts": verdicts,
    }
    if args.per_sector:
        if isinstance(state, NumberSectorMixture):
            sector_reports = []
            for weight, sector in state.sectors:
                sector_entries, sector_verdicts, sector_error = _evaluate_witnesses(
                    sector, float(sector.n_total), requests
                )
                had_error = had_error or sector_error
                sector_reports.append(
                    {
                        "n": sector.n_total,
                        "weight": weight,
                        "witnesses": sector_entries,
                        "verdicts": sector_verdicts,
                    }
                )
            payload["per_sector"] = sector_reports
        else:
            payload["per_sector"] = []
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


def _parse_distribution(text: str) -> NumberDistribution:
    kind, _, param = text.partition(":")
    kind = kind.strip().lower()
    if kind == "poisson":
        return NumberDistribution.poisson(float(param))
    if kind == "binomial":
        parts = param.split(",")
        if len(parts) != 2:
            raise ValueError("binomial needs 'binomial:TRIALS,PROB'")
        return NumberDistribution.binomial(int(parts[0]), float(parts[1]))
    if kind == "deterministic":
        return NumberDistribution.deterministic(int(param))
    raise ValueError(
        f"unknown distribution {text!r}; use poisson:MEAN, binomial:TRIALS,PROB "
        "or deterministic:N"
    )


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
            n_max=args.n_max,
        )
    except (ValueError, SectorTooLarge) as exc:
        return _fail(str(exc))
    payload = {"manifest": asdict(manifest), **report}
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
    witness.add_argument("--n-max", type=int, default=DEFAULT_N_MAX)
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
    scan.add_argument("--n-max", type=int, default=DEFAULT_N_MAX)
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
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    return args.handler(args, list(argv))


if __name__ == "__main__":
    sys.exit(main())
