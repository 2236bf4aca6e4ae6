"""State files of coherent kinds, evaluated from their product components.

`StateSpec.build` holds coherent_spin, mixture, distribution and component
sector files as separable ensembles, and every witness takes them through
the closed forms the scans use (C_2m from witnesses._product_correlators,
F_Q from witnesses._component_forms, eta^2 and xi^2 from
separable._part_moments), with no amplitude row. Rows underflow at high
orders, where the true C_2m of a coherent state is still exactly 1; the
components do not. These tests hold the closed forms to 1 at every order
up to N = 10^4, to the log-space loop `oracles.product_csi_loop`, and, at
desk scale where rows are exact, to the rows route; and they pin which
sectors of a `--per-sector` report fail, and why.
"""

import json
import math
import os
import re
import tracemalloc

import numpy as np
import pytest

from bosewit.cli import main
from bosewit._factorials import falling_factorial
from bosewit.errors import EmptyState, WitnessError
from bosewit.fock import GeneratorSpec, NumberSectorMixture
from bosewit.separable import FluctuatingEnsemble, SeparableEnsemble, ensemble_to_state
from bosewit.statespec import parse_state_text
from bosewit.witnesses import (
    _readings,
    csi_ratio,
    integrated_g2m_orders,
    number_squeezing_direct,
    qfi,
    spin_squeezing,
)

import oracles

TS = "2026-01-01T00:00:00+00:00"
DATA = os.path.join(os.path.dirname(__file__), "data")


def _witness(capsys, path, *requests, per_sector=False):
    argv = ["witness", "--state", str(path), "--timestamp", TS]
    for request in requests:
        argv += ["--witness", request]
    code = main(argv + (["--per-sector"] if per_sector else []))
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("n", [200, 1000, 10**4])
@pytest.mark.parametrize("z", [0.0015, 0.01, 0.3])
def test_coherent_files_sit_on_csi_one_at_every_order(n, z, tmp_path, capsys):
    # through the rows, populations below 1e-308 were lost: n = 200 at z =
    # 0.0015 flagged csi:66 and raised DegenerateLocalCorrelation from
    # csi:67 on, and n = 10^4 at z = 0.3 missed 1 by up to 3e307
    path = tmp_path / "coherent.state"
    path.write_text(f"kind = coherent_spin\nn = {n}\nz = {z!r}\nphi = 0.4\n")
    orders = range(1, n // 2 + 1)
    code, report = _witness(capsys, path, *(f"csi:{m}" for m in orders))
    assert code == 0 and report["verdicts"]["any_entangled"] is False
    values = np.array([report["witnesses"][f"csi:{m}"]["value"] for m in orders])
    assert np.abs(values - 1.0).max() <= 1e-9


def test_the_repros_of_false_flags_give_one(tmp_path, capsys):
    path = tmp_path / "n200.state"
    path.write_text("kind = coherent_spin\nn = 200\nz = 0.0015226236985564912\nphi = 0.6985025955147579\n")
    code, report = _witness(capsys, path, "csi:66", "csi:67")
    assert code == 0 and report["verdicts"]["entangled_by_csi"] is False
    path = tmp_path / "n2000.state"
    path.write_text("kind = coherent_spin\nn = 2000\nz = 0.3\n")
    code, report = _witness(capsys, path, "csi:900")
    assert code == 0
    for entry in report["witnesses"].values():
        assert abs(entry["value"] - 1.0) <= 1e-9 and entry["flag"] is False


MIXTURE = (
    "kind = mixture\nn = 500\n"
    "component:\n    weight = 0.2\n    z = 0.003\n    phi = 1.0\n"
    "component:\n    weight = 0.5\n    z = 0.45\n    phi = -2.0\n"
    "component:\n    weight = 0.3\n    z = 0.97\n"
)
DISTRIBUTION = (
    "kind = fluctuating\nz = 0.02\nphi = 0.3\n"
    "distribution:\n    kind = binomial\n    trials = 300\n    prob = 0.4\n"
)


@pytest.mark.parametrize("text, kind", [(MIXTURE, SeparableEnsemble), (DISTRIBUTION, FluctuatingEnsemble)])
def test_mixture_and_distribution_files_match_the_product_loop(text, kind):
    state = parse_state_text(text).build()
    assert type(state) is kind
    orders = [1, 2, 5, 17, 60, 120, 150]
    for m, integrals in zip(orders, integrated_g2m_orders(state, orders)):
        expected = oracles.product_csi_loop(state, m)
        assert expected is not None
        assert csi_ratio(integrals) == pytest.approx(expected, rel=1e-12), m


MIXED = """\
kind = fluctuating
sector:
    weight = 0.2
    n = 6
    kind = twin_fock
sector:
    weight = 0.15
    n = 9
    kind = dicke
    k = 3
sector:
    weight = 0.25
    n = 12
    component:
        weight = 0.6
        z = 0.2
        phi = 0.5
    component:
        weight = 0.4
        z = 0.7
        phi = -1.2
sector:
    weight = 0.4
    n = 15
    kind = coherent_spin
    z = 0.35
    phi = 2.0
"""


def _reader(columns, s):
    """read(key, kind, parameter) of reading s of witnesses._readings'
    columns: its value of a request, or the error it carries, raised."""

    keys, values, _, _, failures, _ = columns

    def read(key, kind, param):
        failure = failures.get(s, {}).get(key)
        if failure is not None:
            raise failure.error(failure.message)
        return float(values[keys.index(key)][s])

    return read


def _state_reader(state, requests):
    return _reader(_readings(state, requests, False)[1], 0)


def _sector_readers(state, requests):
    """(N, p, read) of each sector of a fluctuating state, read with
    --per-sector (the readings after the whole state's)."""
    sectors, columns = _readings(state, requests, True)
    return [(n, p, _reader(columns, 1 + s)) for s, (n, p) in enumerate(sectors)]


def _public(state, requests):
    """read(key, kind, parameter) through the public witnesses: the
    reference of the CLI's readers. The csi orders go in one
    integrated_g2m_orders call, as the readers take them: the kernel's sum
    over a sector's components rounds differently with the number of
    orders it takes at once."""
    orders = [param for _, kind, param in requests if kind == "csi"]

    def read(key, kind, param):
        if kind == "csi":
            return csi_ratio(integrated_g2m_orders(state, orders)[orders.index(param)])
        if kind == "qfi":
            return qfi(state, GeneratorSpec(param))
        return number_squeezing_direct(state) if kind == "eta2" else spin_squeezing(state)

    return read


def _rows(state):
    """The rows route's input for a state: each sector held as components
    expanded into its amplitude rows."""
    if isinstance(state, NumberSectorMixture):
        return NumberSectorMixture(tuple((p, _rows(sector)) for p, sector in state.sectors))
    return ensemble_to_state(state) if isinstance(state, SeparableEnsemble) else state


def _all_values(state):
    orders = (1, 2, 3)
    values = [csi_ratio(integrals) for integrals in integrated_g2m_orders(state, orders)]
    values += list(qfi(state, np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [0.6, 0, 0.8]])))
    return values + [number_squeezing_direct(state)]


def test_a_mixed_sector_file_matches_the_rows_route():
    state = parse_state_text(MIXED).build()
    assert isinstance(state, NumberSectorMixture)
    kinds = [type(sector).__name__ for _, sector in state.sectors]
    assert kinds == ["FockVector", "FockVector", "SeparableEnsemble", "SeparableEnsemble"]
    rows = _rows(state)
    assert _all_values(state) == pytest.approx(_all_values(rows), rel=1e-12, abs=1e-12)
    assert spin_squeezing(state) == pytest.approx(spin_squeezing(rows), rel=1e-12)
    # and per sector, the components' stack against each sector's rows
    requests = [("csi:1", "csi", 1), ("csi:2", "csi", 2), ("qfi:x", "qfi", np.array([1.0, 0, 0])),
                ("eta2", "eta2", None)]
    for (n, _, read), (_, sector) in zip(_sector_readers(state, requests), rows.sectors):
        assert n == sector.n_total
        for request in requests:
            _assert_same(read, _public(sector, requests), request, rel=1e-12)


def _assert_same(read, alone, request, rel):
    """read and alone give the same value, within rel, or the same error,
    by type and text."""
    try:
        expected = alone(*request)
    except WitnessError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            read(*request)
        return
    if rel:
        assert read(*request) == pytest.approx(expected, rel=rel, abs=rel), request
    else:
        assert read(*request) == expected, request


UNEVEN = """\
kind = fluctuating
sector:
    weight = 0.3
    n = 7
    component:
        weight = 0.5
        z = 0.1
        phi = 0.3
    component:
        weight = 0.5
        z = 0.8
        phi = -1.0
sector:
    weight = 0.3
    n = 11
    kind = coherent_spin
    z = 0.45
sector:
    weight = 0.4
    n = 16
    component:
        weight = 0.25
        z = 0.6
    component:
        weight = 0.5
        z = 0.05
        phi = 2.5
    component:
        weight = 0.25
        z = 0.9
        phi = 1.0
"""


@pytest.mark.parametrize("text", [
    "kind = fluctuating\nz = 0.3\nphi = 0.4\ndistribution:\n    kind = poisson\n    mean = 20\n", UNEVEN,
])
def test_the_sector_stack_reads_each_sector_as_the_public_witnesses_do(text):
    # the component sectors of --per-sector read as one stack, with the
    # bits of the public witnesses on each sector alone (C_2m, eta^2, xi^2;
    # F_Q to rounding), whatever the sectors' component counts
    state = parse_state_text(text).build()
    assert isinstance(state, FluctuatingEnsemble)
    requests = [("csi:1", "csi", 1), ("csi:3", "csi", 3), ("eta2", "eta2", None), ("xi2", "xi2", None),
                ("qfi:y", "qfi", np.array([0.0, 1.0, 0.0]))]
    readers = _sector_readers(state, requests)
    assert [n for n, _, _ in readers] == [n for n, _ in state.number_weights]
    for n, _, read in readers:
        for request in requests:
            rel = 1e-12 if request[1] == "qfi" else 0.0
            _assert_same(read, _public(state.per_sector[n], requests), request, rel=rel)


def test_prefactor_alpha_is_the_exact_number_weighted_falling_factorial():
    state = parse_state_text(MIXED).build()
    for m, integrals in zip((1, 2, 3), integrated_g2m_orders(state, (1, 2, 3))):
        exact = sum(p * falling_factorial(sector.n_total, 2 * m) for p, sector in state.sectors)
        assert integrals.prefactor_alpha == exact


def test_uneven_component_counts_are_evaluated_without_padding():
    # one sector of 3000 components beside 400 of one component each: the
    # witnesses group the sectors by component count, where padding every
    # sector to the largest count would hold 400 x 3000 entries per array
    lines = ["kind = fluctuating", "sector:", "    weight = 0.5", "    n = 1"]
    for _ in range(3000):
        lines += ["    component:", f"        weight = {1.0 / 3000!r}", "        z = 0.4", "        phi = 0.7"]
    for n in range(2, 402):
        lines += ["sector:", f"    weight = {0.5 / 400!r}", f"    n = {n}", "    kind = coherent_spin",
                  f"    z = {0.1 + n / 1000!r}"]
    state = parse_state_text("\n".join(lines) + "\n").build()
    requests = [(f"csi:{m}", "csi", m) for m in (1, 2, 5)] + [
        ("qfi:x", "qfi", np.array([1.0, 0.0, 0.0])), ("eta2", "eta2", None), ("xi2", "xi2", None)]
    tracemalloc.start()
    try:
        values = [_state_reader(state, requests)(*request) for request in requests]
        sector_values = []
        for _, _, read in _sector_readers(state, requests):
            for request in requests:
                try:
                    sector_values.append(read(*request))
                except WitnessError:  # orders past a small sector's N
                    pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(np.isfinite(values)) and len(sector_values) > 6 * 390
    assert peak < 4 * 2**20, peak


def _group_numbers(groups):
    """The particle numbers of the sectors of component groups
    (separable._component_groups), in the order of their sectors."""
    numbers = {}
    for at, *_, group_numbers in groups:
        numbers.update(zip(at, group_numbers))
    return [numbers[j] for j in sorted(numbers)]


def _failing_for(n_failing, calls):
    """A stand-in for witnesses._part_forms that records the particle
    numbers of each call and fails on any stack that holds a sector of
    n_failing particles."""
    from bosewit import witnesses

    original = witnesses._part_forms

    def part_forms(groups):
        numbers = _group_numbers(groups)
        calls.append(numbers)
        if n_failing in numbers:
            raise EmptyState("no particles")
        return original(groups)

    return part_forms


def test_a_failed_kernel_runs_once_per_state(capsys, monkeypatch):
    from bosewit import witnesses

    calls = []
    monkeypatch.setattr(witnesses, "_part_forms", _failing_for(50, calls))
    code, report = _witness(capsys, os.path.join(DATA, "css_050.state"), "qfi:x", "qfi:y", "qfi:z")
    assert code == 3 and calls == [[50]]
    for entry in report["witnesses"].values():
        assert entry == {"error": "EmptyState", "message": "no particles"}


def test_a_failed_stack_marks_only_the_sectors_that_fail_alone(tmp_path, capsys, monkeypatch):
    from bosewit import witnesses

    path = tmp_path / "poisson5.state"
    path.write_text("kind = fluctuating\nz = 0.3\nphi = 0.4\ndistribution:\n    kind = poisson\n    mean = 5\n")
    numbers = [n for n, _ in parse_state_text(path.read_text()).build().number_weights]
    calls = []
    monkeypatch.setattr(witnesses, "_part_forms", _failing_for(3, calls))
    code, report = _witness(capsys, path, "qfi:x", "qfi:z", "csi:2", per_sector=True)
    assert code == 3
    # the stack of the sectors, which the whole state shares, then each
    # sector alone
    assert calls == [numbers] + [[n] for n in numbers]
    assert "error" in report["witnesses"]["qfi:x"] and "value" in report["witnesses"]["csi:2"]
    failed = {(s["n"], key) for s in report["per_sector"] for key, e in s["witnesses"].items() if "error" in e}
    # csi:2 needs N >= 4 in every reading
    assert failed == {(3, "qfi:x"), (3, "qfi:z")} | {(n, "csi:2") for n in range(4)}


def test_structural_skips_still_fail_their_sectors(tmp_path, capsys):
    # N = 0 has no C_2, no eta^2 and no mean spin, N = 1 no C_2: named
    # errors, and exit 3, as with rows
    path = tmp_path / "poisson5.state"
    path.write_text("kind = fluctuating\nz = 0.3\nphi = 0.4\ndistribution:\n    kind = poisson\n    mean = 5\n")
    code, report = _witness(capsys, path, per_sector=True)
    assert code == 3
    assert not [key for key, entry in report["witnesses"].items() if "error" in entry]
    failures = {
        (sector["n"], key, entry["error"])
        for sector in report["per_sector"]
        for key, entry in sector["witnesses"].items()
        if "error" in entry
    }
    assert failures == {
        (0, "csi:1", "DegenerateLocalCorrelation"),
        (0, "eta2", "EmptyState"),
        (0, "xi2", "ZeroMeanSpinDirection"),
        (1, "csi:1", "DegenerateLocalCorrelation"),
    }
    # the twin-Fock sector of masked_mixture has no mean spin: exit 3
    code, report = _witness(capsys, os.path.join(DATA, "masked_mixture.state"), per_sector=True)
    assert code == 3
    errors = [(s["n"], key) for s in report["per_sector"] for key, e in s["witnesses"].items() if "error" in e]
    assert errors == [(4, "xi2")]


def test_one_spin_moment_pass_per_exact_state(tmp_path, capsys, monkeypatch):
    # eta^2 and xi^2 of a state held as rows read one centred pass over its
    # rows; the sectors held as components read none
    from bosewit import witnesses

    calls = []
    shared = witnesses._spin_mean_covariance

    def counting(state):
        calls.append(state.n_total)
        return shared(state)

    monkeypatch.setattr(witnesses, "_spin_mean_covariance", counting)
    path = tmp_path / "dicke.state"
    path.write_text("kind = dicke\nn = 40\nk = 13\n")
    code, report = _witness(capsys, path, "eta2", "xi2", "csi:1")
    # a number state: eta^2 = 0, and no mean spin for xi^2 (exit 3)
    assert code == 3 and report["witnesses"]["eta2"]["value"] == 0.0 and calls == [40]
    calls.clear()
    code, _ = _witness(capsys, os.path.join(DATA, "masked_mixture.state"), "eta2", "xi2", per_sector=True)
    # the whole state's twin-Fock sector, then that sector alone
    assert code == 3 and calls == [4, 4]


def test_a_distribution_file_is_read_whole_and_per_sector_in_one_kernel_pass(tmp_path, capsys, monkeypatch):
    # the whole state joins the F_Q forms and spin moments of its sectors'
    # stack; C_2m takes a call for the whole state (normalized at its
    # largest N) and one for the stack (each sector at its own N)
    from bosewit import witnesses

    calls = []
    for name in ("_part_correlators", "_part_forms", "_part_moments"):
        kernel = getattr(witnesses, name)
        monkeypatch.setattr(witnesses, name, lambda *args, kernel=kernel, name=name: calls.append(name) or kernel(*args))
    path = tmp_path / "poisson20.state"
    path.write_text("kind = fluctuating\nz = 0.3\nphi = 0.4\ndistribution:\n    kind = poisson\n    mean = 20\n")
    code, report = _witness(capsys, path, "all", "qfi:x", "csi:2", per_sector=True)
    assert code == 3 and len(report["per_sector"]) > 50
    assert sorted(calls) == ["_part_correlators", "_part_correlators", "_part_forms", "_part_moments"]


@pytest.mark.parametrize(
    "text,requests,per_sector",
    [
        # the whole state and the stack of its 60 sectors
        ("kind = fluctuating\nz = 0.3\nphi = 0.4\ndistribution:\n    kind = poisson\n    mean = 20\n",
         ("all", "qfi:x", "csi:2"), True),
        # C_2m, F_Q and the spin moments of one mixture read whole
        ("kind = mixture\nn = 30\ncomponent:\n    weight = 0.4\n    z = 0.2\n"
         "component:\n    weight = 0.6\n    z = 0.7\n    phi = 1.0\n", ("all",), False),
    ],
)
def test_a_request_groups_its_component_sectors_once(text, requests, per_sector, tmp_path, capsys, monkeypatch):
    # every kernel of the request takes the one grouping by component count
    from bosewit import separable, witnesses

    calls = []
    grouping = separable._component_groups

    def counting(parts):
        calls.append(len(parts))
        return grouping(parts)

    monkeypatch.setattr(separable, "_component_groups", counting)
    monkeypatch.setattr(witnesses, "_component_groups", counting)
    path = tmp_path / "components.state"
    path.write_text(text)
    code, report = _witness(capsys, path, *requests, per_sector=per_sector)
    assert code in (0, 3) and len(report.get("per_sector", [])) == (60 if per_sector else 0)
    assert calls == [60 if per_sector else 1]


def test_building_a_distribution_file_makes_no_coherent_spin_state(monkeypatch):
    # its sectors are checked and held as one array of components
    from bosewit import separable

    made = []
    checks = separable.CoherentSpinState.__post_init__
    monkeypatch.setattr(separable.CoherentSpinState, "__post_init__", lambda self: made.append(self) or checks(self))
    spec = parse_state_text("kind = fluctuating\nz = 0.3\nphi = 0.4\ndistribution:\n    kind = poisson\n    mean = 20\n")
    state = spec.build()
    assert isinstance(state, FluctuatingEnsemble) and len(state.number_weights) > 50
    assert made == []
    # the components read back as the coherent spin states they hold
    assert state.per_sector[20].components == ((1.0, separable.CoherentSpinState(0.3, 0.4, 20)),)


def test_non_finite_sector_values_fail_only_their_entries(tmp_path, capsys, monkeypatch):
    # non-finite F_Q forms in two sectors of the stack: each of those
    # sectors' qfi entries carries the error of the sector's first non-finite
    # qfi value, as that sector alone gives it; every other entry keeps its value
    from bosewit import witnesses

    original = witnesses._part_forms

    def part_forms(groups):
        forms = original(groups)
        numbers = _group_numbers(groups)
        if 3 in numbers:
            forms[numbers.index(3)] = np.nan
        if 7 in numbers:  # qfi:x is inf, qfi:z nan (0 inf): the first names the error
            forms[numbers.index(7)] = [np.inf, 0, 0, 0, 0, 0, 0, 0, 1.0]
        return forms

    monkeypatch.setattr(witnesses, "_part_forms", part_forms)
    path = tmp_path / "poisson5.state"
    path.write_text("kind = fluctuating\nz = 0.3\nphi = 0.4\ndistribution:\n    kind = poisson\n    mean = 5\n")
    code, report = _witness(capsys, path, "qfi:x", "qfi:z", "csi:2", per_sector=True)
    assert code == 3
    # the whole state takes the stack's forms, so it fails as well
    assert report["witnesses"]["qfi:x"]["error"] == "NonFiniteWitnessValue" and "value" in report["witnesses"]["csi:2"]
    for sector in report["per_sector"]:
        for key in ("qfi:x", "qfi:z"):
            entry = sector["witnesses"][key]
            if sector["n"] in (3, 7):
                bad = "nan" if sector["n"] == 3 else "inf"
                assert entry == {"error": "NonFiniteWitnessValue",
                                 "message": f"qfi evaluated to {bad}, which no bound can judge"}, sector
            else:
                assert "value" in entry and math.isfinite(entry["value"]), sector


def test_a_sector_of_weight_zero_keeps_the_whole_state_to_its_own_forms(tmp_path, capsys):
    # the whole state leaves out a sector of weight 0, whose presence in a
    # run of the stack would change the route of n = 1 (K = 3 > N + 1): its
    # F_Q is the public witness's, bit for bit, with and without --per-sector
    text = "kind = fluctuating\nsector:\n    weight = 1.0\n    n = 1\n"
    for w, z, phi in ((0.3, 0.2, 0.3), (0.3, 0.7, -1.1), (0.4, 0.45, 2.0)):
        text += f"    component:\n        weight = {w}\n        z = {z}\n        phi = {phi}\n"
    text += "sector:\n    weight = 0.0\n    n = 9\n"
    for w, z, phi in ((0.2, 0.1, 0.0), (0.5, 0.6, 0.5), (0.3, 0.9, -2.5)):
        text += f"    component:\n        weight = {w}\n        z = {z}\n        phi = {phi}\n"
    path = tmp_path / "zero.state"
    path.write_text(text)
    state = parse_state_text(text).build()
    requests = ("qfi:x", "qfi:z", "qfi:0.6,0,0.8")
    for per_sector in (False, True):
        code, report = _witness(capsys, path, *requests, per_sector=per_sector)
        assert code == 0
        for key, direction in zip(requests, ([1.0, 0, 0], [0, 0, 1.0], [0.6, 0, 0.8])):
            assert report["witnesses"][key]["value"] == qfi(state, GeneratorSpec(np.array(direction)))
    assert [s["n"] for s in report["per_sector"]] == [1, 9]


def test_sectors_of_weight_zero_among_the_groups_leave_the_others_forms_alone(tmp_path, capsys):
    # sectors of weight 0 before, between and after the others, in both
    # component groups: the whole state's F_Q is, bit for bit, the one of
    # the file without them, read whole or with --per-sector
    def sector(weight, n, components):
        lines = f"sector:\n    weight = {weight}\n    n = {n}\n"
        for w, z, phi in components:
            lines += f"    component:\n        weight = {w}\n        z = {z}\n        phi = {phi}\n"
        return lines

    two, one = [(0.5, 0.2, 0.3), (0.5, 0.75, -1.0)], [(1.0, 0.4, 2.0)]
    kept = [sector(0.25, 5, two), sector(0.5, 8, one), sector(0.25, 12, two)]
    zero = [sector(0.0, 3, two), sector(0.0, 6, one), sector(0.0, 10, two), sector(0.0, 20, one)]
    with_zero = "".join([zero[0], kept[0], zero[1], kept[1], zero[2], kept[2], zero[3]])
    requests = ("qfi:x", "qfi:z", "qfi:0.6,0,0.8")
    reports = []
    for name, text in (("kept", "".join(kept)), ("zero", with_zero)):
        path = tmp_path / f"{name}.state"
        path.write_text("kind = fluctuating\n" + text)
        for per_sector in (False, True):
            code, report = _witness(capsys, path, *requests, per_sector=per_sector)
            assert code == 0
            reports.append([report["witnesses"][key]["value"] for key in requests])
    assert reports[0] == reports[1] == reports[2] == reports[3]
