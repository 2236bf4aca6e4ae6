"""Output checks for every request the benchmark sends.

A request passes only if its exit code is expected, its output parses
(JSON with the non-standard NaN/Infinity tokens rejected) and every value
it reports agrees with an oracle computed here from exact integers or
with the separable bound it must respect. A failed check is counted as a
failed operation; no request is ever dropped.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

EXACT_REL_TOL = 1e-12  # twin-Fock / Dicke ratios and fig1 cells against the oracle
COHERENT_ABS_TOL = 1e-9  # C_2m of a coherent spin state is exactly 1
BOUND_TOL = 1e-9  # C_2m <= 1 and xi^2 >= 1 on separable states
QFI_REL_TOL = 1e-6  # F_Q <= N (or mean N) on separable states

FIG1_DEFAULT_GRID = tuple((n, order) for n in (100, 250, 500, 1000) for order in (2, 4, 6, 8))

EXIT_OK = 0
EXIT_WITNESS = 3


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON token {token}")


def strict_json(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def _falling(n: int, k: int) -> int:
    return math.prod(range(n - k + 1, n + 1)) if k <= n else 0


def twin_fock_ratio(n_total: int, m: int) -> float:
    """Correctly rounded C_2m = n! (n-2m)! / ((n-m)!)^2 with n = N/2."""
    n = n_total // 2
    return float(Fraction(_falling(n, m), _falling(n - m, m)))


def dicke_ratio(n_total: int, k: int, m: int) -> float | None:
    """C_2m of |k, N-k>, or None where the local correlators vanish."""
    den = _falling(k, 2 * m) * _falling(n_total - k, 2 * m)
    if den == 0:
        return None
    num = (_falling(k, m) * _falling(n_total - k, m)) ** 2
    return math.sqrt(float(Fraction(num, den)))


def _rel_close(value: float, reference: float, tol: float) -> bool:
    return abs(value - reference) <= tol * abs(reference)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


# --- witness ------------------------------------------------------------------


def _scope_problems(scope: str, desc: dict, entries: dict, n_ref: float) -> list:
    """Physics checks for one state (the whole state or one sector)."""
    problems = []
    kind = desc["kind"]
    separable = kind in ("coherent_spin", "mixture") or desc.get("separable", False)
    for key, entry in entries.items():
        if "value" not in entry:
            continue
        value = entry["value"]
        where = f"{scope} {key}={value!r}"
        if key.startswith("csi:"):
            m = int(key[4:])
            if kind == "twin_fock":
                reference = twin_fock_ratio(desc["n"], m)
                if not _rel_close(value, reference, EXACT_REL_TOL):
                    problems.append(f"{where}, exact twin-Fock ratio is {reference!r}")
            elif kind == "dicke":
                reference = dicke_ratio(desc["n"], desc["k"], m)
                if reference is None or not _rel_close(value, reference, EXACT_REL_TOL):
                    problems.append(f"{where}, exact Dicke ratio is {reference!r}")
            elif kind == "coherent_spin" and abs(value - 1.0) > COHERENT_ABS_TOL:
                problems.append(f"{where}, a coherent spin state has C_2m = 1")
            if separable and value > 1.0 + BOUND_TOL:
                problems.append(f"{where} breaks the separable bound C_2m <= 1")
        elif key.startswith("qfi:"):
            if separable and value > n_ref * (1.0 + QFI_REL_TOL) + QFI_REL_TOL:
                problems.append(f"{where} breaks the separable bound F_Q <= {n_ref!r}")
        elif key == "xi2":
            if separable and value < 1.0 - BOUND_TOL:
                problems.append(f"{where} breaks the separable bound xi^2 >= 1")
    return problems


def _entries_problems(scope: str, entries, expected_keys, error_names) -> tuple[list, bool]:
    if not isinstance(entries, dict):
        return [f"{scope}: witnesses is not an object"], False
    problems = []
    if sorted(entries) != sorted(expected_keys):
        problems.append(f"{scope}: witnesses {sorted(entries)} != requested {sorted(expected_keys)}")
    had_error = False
    for key, entry in entries.items():
        if "error" in entry:
            had_error = True
            if entry["error"] not in error_names:
                problems.append(f"{scope} {key}: {entry['error']!r} is not a named witness error")
        elif not _is_number(entry.get("value")):
            problems.append(f"{scope} {key}: value {entry.get('value')!r} is not a finite number")
    return problems, had_error


def check_witness(expect: dict, rc: int, out: str, error_names) -> list:
    """Problems with one `witness` request's output; empty when correct."""
    if rc not in (EXIT_OK, EXIT_WITNESS):
        return [f"exit code {rc} not in (0, 3)"]
    try:
        payload = strict_json(out)
    except ValueError as exc:
        return [f"output is not strict JSON: {exc}"]
    desc = expect["state"]
    keys = expect["keys"]
    problems, had_error = _entries_problems("overall", payload.get("witnesses"), keys, error_names)
    n_ref = payload.get("n_reference")
    if not _is_number(n_ref) or not _rel_close(n_ref, expect["n_reference"], 1e-9):
        problems.append(f"n_reference {n_ref!r} != {expect['n_reference']!r}")
        n_ref = expect["n_reference"]
    if desc["kind"] != "fluctuating" or desc.get("separable"):
        problems += _scope_problems("overall", desc, payload.get("witnesses", {}), n_ref)
    if expect["per_sector"]:
        sectors = payload.get("per_sector")
        if not isinstance(sectors, list) or not sectors:
            return problems + ["per_sector report missing"]
        by_n = expect.get("sectors")
        if by_n is not None and sorted(by_n) != [s.get("n") for s in sectors]:
            problems.append(f"per_sector numbers {[s.get('n') for s in sectors]} != {sorted(by_n)}")
        for sector in sectors:
            n = sector.get("n")
            scope = f"n={n}"
            more, sector_error = _entries_problems(scope, sector.get("witnesses"), keys, error_names)
            problems += more
            had_error = had_error or sector_error
            if by_n is not None:
                sector_desc = by_n.get(n)
            else:
                sector_desc = {**desc["sector"], "n": n}
            if sector_desc is not None and not more:
                problems += _scope_problems(scope, sector_desc, sector["witnesses"], float(n))
    if had_error != (rc == EXIT_WITNESS):
        problems.append(f"exit code {rc} but witness errors reported: {had_error}")
    return problems


# --- fig1 ---------------------------------------------------------------------


def check_fig1(expect: dict, rc: int, out: str) -> list:
    if rc != EXIT_OK:
        return [f"exit code {rc} != 0"]
    rows = []
    if expect["format"] == "json":
        try:
            payload = strict_json(out)
        except ValueError as exc:
            return [f"output is not strict JSON: {exc}"]
        for row in payload.get("rows", []):
            rows.append((row.get("n"), row.get("order_2m"), row.get("exact")))
    else:
        lines = out.splitlines()
        if not lines or not lines[0].startswith("# manifest: "):
            return ["CSV output lacks its manifest comment"]
        try:
            strict_json(lines[0][len("# manifest: "):])
            for record in csv.DictReader(io.StringIO("\n".join(lines[1:]))):
                rows.append((int(record["n"]), int(record["order_2m"]), float(record["exact"])))
        except (ValueError, KeyError) as exc:
            return [f"CSV output does not parse: {exc}"]
    if sorted((n, order) for n, order, _ in rows) != sorted(FIG1_DEFAULT_GRID):
        return [f"fig1 rows {[(n, o) for n, o, _ in rows]} are not the default grid"]
    problems = []
    for n, order, exact in rows:
        reference = twin_fock_ratio(n, order // 2)
        if not _is_number(exact) or not _rel_close(exact, reference, EXACT_REL_TOL):
            problems.append(f"fig1 N={n} 2m={order}: exact={exact!r}, oracle {reference!r}")
    return problems


# --- scan-separable -------------------------------------------------------------


def check_scan(expect: dict, rc: int, out: str) -> list:
    if rc != EXIT_OK:
        return [f"exit code {rc} != 0"]
    try:
        report = strict_json(out)
    except ValueError as exc:
        return [f"output is not strict JSON: {exc}"]
    problems = []
    if report.get("samples") != expect["samples"]:
        problems.append(f"samples {report.get('samples')!r} != {expect['samples']}")
    if report.get("total_violations") != 0:
        problems.append(f"total_violations = {report.get('total_violations')!r}")
    bounds = report.get("bounds")
    if not isinstance(bounds, list) or not bounds:
        return problems + ["report has no bounds"]
    for bound in bounds:
        if bound.get("evaluations", 0) > 0 and not _is_number(bound.get("worst_value")):
            problems.append(f"bound {bound.get('name')}: worst_value {bound.get('worst_value')!r}")
    return problems


def check(expect: dict, rc: int, out: str, error_names) -> list:
    """Dispatch on the request type recorded when the input was generated."""
    if expect["type"] == "witness":
        return check_witness(expect, rc, out, error_names)
    if expect["type"] == "fig1":
        return check_fig1(expect, rc, out)
    if expect["type"] == "scan":
        return check_scan(expect, rc, out)
    raise ValueError(f"unknown request type {expect['type']!r}")
