import json
import math
from fractions import Fraction

import numpy as np
import pytest

from bosewit.fock import GeneratorSpec
from bosewit.scan import _BoundTable, run_scan
from bosewit.separable import NumberDistribution, ensemble_to_state, sample_ensemble
from bosewit.witnesses import csi_ratio, integrated_g2m, qfi


def test_fixed_scan_structure_and_zero_violations():
    report = run_scan(samples=40, seed=5, n_total=10)
    assert report["mode"] == "fixed"
    assert report["n_total"] == 10
    assert report["total_violations"] == 0
    names = [b["name"] for b in report["bounds"]]
    assert names == [f"csi_order_{m}" for m in range(1, 6)] + ["qfi", "spin_squeezing"]
    for bound in report["bounds"]:
        if bound["evaluations"]:
            assert bound["worst_value"] is not None
            assert bound["worst_sample"] is not None
    qfi_bound = next(b for b in report["bounds"] if b["name"] == "qfi")
    assert qfi_bound["bound"] == 10.0
    assert qfi_bound["worst_value"] <= 10.0 + 1e-6


def test_scan_is_deterministic_per_seed():
    a = run_scan(samples=15, seed=123, n_total=8)
    b = run_scan(samples=15, seed=123, n_total=8)
    assert a == b
    c = run_scan(samples=15, seed=124, n_total=8)
    assert c != a


def test_scan_directions_are_unit_vectors():
    report = run_scan(samples=2, seed=9, n_total=6, n_directions=7)
    directions = np.array(report["directions"])
    assert directions.shape == (7, 3)
    np.testing.assert_allclose(np.linalg.norm(directions, axis=1), 1.0, atol=1e-12)


def test_worst_sample_replays_exactly():
    report = run_scan(samples=25, seed=77, n_total=12, csi_orders=[1, 2])
    csi_record = next(b for b in report["bounds"] if b["name"] == "csi_order_2")
    worst = csi_record["worst_sample"]
    ensemble = sample_ensemble(worst["sample_seed"], 12, report["n_components"])
    state = ensemble_to_state(ensemble)
    value = csi_ratio(integrated_g2m(state, 2))
    assert value == pytest.approx(csi_record["worst_value"], rel=1e-12)
    recorded = worst["ensemble"]["components"]
    assert [c.z for _, c in ensemble.components] == [c["z"] for c in recorded]

    qfi_record = next(b for b in report["bounds"] if b["name"] == "qfi")
    worst = qfi_record["worst_sample"]
    ensemble = sample_ensemble(worst["sample_seed"], 12, report["n_components"])
    state = ensemble_to_state(ensemble)
    g = GeneratorSpec.from_vector(np.array(worst["generator"]))
    assert qfi(state, g) == pytest.approx(qfi_record["worst_value"], rel=1e-9)


def test_fluctuating_scan_bounds():
    report = run_scan(
        samples=8, seed=4, distribution=NumberDistribution.binomial(6, 0.5)
    )
    assert report["mode"] == "fluctuating"
    assert report["mean_n"] == pytest.approx(3.0, abs=1e-12)
    assert report["csi_orders"] == [1]
    assert report["total_violations"] == 0
    qfi_record = next(b for b in report["bounds"] if b["name"] == "qfi")
    assert qfi_record["bound"] == pytest.approx(3.0, abs=1e-12)
    assert report["distribution"] == {"kind": "binomial", "params": [6, 0.5]}


def test_scan_argument_validation():
    with pytest.raises(ValueError, match="one of"):
        run_scan(samples=2, seed=1)
    with pytest.raises(ValueError, match="one of"):
        run_scan(samples=2, seed=1, n_total=6, distribution=NumberDistribution.deterministic(4))
    with pytest.raises(ValueError, match="sample"):
        run_scan(samples=0, seed=1, n_total=6)
    with pytest.raises(ValueError, match="orders"):
        run_scan(samples=2, seed=1, n_total=6, csi_orders=[4])
    with pytest.raises(ValueError, match="direction"):
        run_scan(samples=2, seed=1, n_total=6, n_directions=0)


@pytest.mark.parametrize("orders, bad", [
    ([1.7, 2.2], "1.7"), ([1.0], "1.0"), ([0], "0"), ([2, -1], "-1"), ([True], "True"), ([2, False], "False"),
])
@pytest.mark.parametrize("mode", [{"n_total": 6}, {"distribution": NumberDistribution.poisson(3.0)}])
def test_scan_orders_must_be_positive_integers(orders, bad, mode):
    # fractional orders used to be truncated and reported as [1, 2], and
    # [True] (bool subclasses int) ran as [1]
    with pytest.raises(ValueError, match=f"positive integer; got {bad}$"):
        run_scan(samples=2, seed=1, csi_orders=orders, **mode)


def _record(table, values, skip=None, payload_of=lambda i, c: {"sample": i}):
    values = np.atleast_2d(np.array(values, dtype=float))
    table.record(values, np.zeros(values.shape, dtype=bool) if skip is None else np.array(skip), payload_of)


@pytest.mark.parametrize("direction", ["upper", "lower"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_value_is_a_violation(direction, value):
    table = _BoundTable([("probe", 1.0, direction, 1e-9)])
    _record(table, [value], payload_of=lambda i, c: {"sample": 0})
    (report,) = table.report([0])
    assert report["violations"] == 1
    assert report["evaluations"] == 1
    assert report["worst_value"] is None
    assert report["worst_sample"] is None
    json.dumps(report, allow_nan=False)


@pytest.mark.parametrize(("direction", "worst", "milder"), [("upper", 0.75, 0.5), ("lower", 1.25, 1.5)])
def test_finite_worst_value_survives_a_nan(direction, worst, milder):
    table = _BoundTable([("probe", 1.0, direction, 1e-9)])
    for sample, value in enumerate((math.nan, worst, math.nan, milder)):
        _record(table, [value], payload_of=lambda i, c: {"sample": sample})
    (report,) = table.report([0])
    assert report["worst_value"] == worst
    assert report["worst_sample"] == {"sample": 1}
    assert report["violations"] == 2
    assert report["evaluations"] == 4


def test_one_record_call_judges_an_upper_and_a_lower_column():
    table = _BoundTable([("up", 1.0, "upper", 1e-9), ("down", 1.0, "lower", 1e-9)])
    # per column: a NaN, an infinity, a tie for the worst value and a
    # skipped entry that would beat it
    values = [[0.5, 1.5], [math.nan, 0.25], [1.5, -math.inf], [math.inf, 0.25], [1.5, math.nan], [2.0, 0.0]]
    skip = [[False, False]] * 5 + [[True, True]]
    calls = []

    def payload_of(index, column):
        calls.append((index, column))
        return {"sample": index}

    _record(table, values, skip, payload_of)
    # a tie does not replace the worst value in a later call either
    _record(table, [[1.5, 0.25]], payload_of=payload_of)
    assert sorted(calls) == [(1, 1), (2, 0)]
    up, down = table.report([0, 1])
    assert (up["worst_value"], up["worst_sample"]) == (1.5, {"sample": 2})
    assert (down["worst_value"], down["worst_sample"]) == (0.25, {"sample": 1})
    for report in (up, down):
        assert (report["violations"], report["evaluations"], report["skipped"]) == (5, 6, 1)
        json.dumps(report, allow_nan=False)


@pytest.mark.parametrize(
    "arguments",
    [
        dict(samples=30, seed=4, n_total=12, csi_orders=[1, 2, 1, 3, 2]),
        dict(samples=3, seed=4, distribution=NumberDistribution.poisson(3.0), csi_orders=[1, 1]),
    ],
)
def test_repeated_csi_orders_are_reported_once_per_request(arguments):
    report = run_scan(**arguments)
    orders = arguments["csi_orders"]
    assert report["csi_orders"] == orders
    csi = report["bounds"][: len(orders)]
    assert [b["name"] for b in report["bounds"]] == [f"csi_order_{m}" for m in orders] + ["qfi", "spin_squeezing"]
    for m, bound in zip(orders, csi):
        assert bound["evaluations"] == arguments["samples"] * orders.count(m)
        assert bound["skipped"] == 0
        assert all(other == bound for other in csi if other["name"] == bound["name"])


@pytest.mark.parametrize(
    "overrides,message",
    [
        ({"samples": 10**7 + 1}, "samples must be at most 10000000"),
        ({"n_directions": 1001}, "n_directions must be at most 1000"),
        ({"n_components": 1001}, "n_components must be at most 1000"),
    ],
)
def test_scan_caps_are_checked_before_anything_is_built(overrides, message, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a generator was built before the caps were checked")

    # the master generator and the child generators, which are seeded from
    # their SeedSequence words without default_rng
    monkeypatch.setattr("bosewit.scan.np.random.default_rng", refuse)
    monkeypatch.setattr("bosewit.scan.np.random.PCG64", refuse)
    arguments = {"samples": 2, "seed": 1, "n_total": 6, **overrides}
    with pytest.raises(ValueError, match=message):
        run_scan(**arguments)


def test_scan_at_n_200_certifies_finite_values_up_to_the_local_overflow():
    report = run_scan(samples=3, seed=5, n_total=200)
    worst = {b["name"]: b["worst_value"] for b in report["bounds"]}
    # orders whose local product G_aa G_bb overflows while both stay finite
    # now have a real ratio instead of a vacuous 0.0
    for m in range(1, 75):
        assert worst[f"csi_order_{m}"] > 0.0, m
    # the worst C_100 against exact rational sums over the same populations
    record = next(b for b in report["bounds"] if b["name"] == "csi_order_50")
    state = ensemble_to_state(sample_ensemble(record["worst_sample"]["sample_seed"], 200, 4))
    populations = [Fraction(float(p)) for p in state.occupation_probabilities()]

    def falling(k, order):
        return math.prod(range(k - order + 1, k + 1)) if k >= order else 0

    g_aa = sum(p * falling(k, 100) for k, p in enumerate(populations))
    g_bb = sum(p * falling(200 - k, 100) for k, p in enumerate(populations))
    g_ab = sum(p * falling(k, 50) * falling(200 - k, 50) for k, p in enumerate(populations))
    exact = math.sqrt(float(g_ab**2 / (g_aa * g_bb)))
    assert worst["csi_order_50"] == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize(
    "arguments",
    [
        dict(samples=3, seed=5, n_total=200),
        dict(samples=20, seed=5, n_total=300),
        dict(samples=3, seed=42, n_total=1000),
    ],
)
def test_scans_past_n_150_certify_every_order(arguments):
    # the raw falling-factorial rows overflowed here: exit 4 with 24 and
    # 1500 false violations, and vacuous 0.0 worst values
    report = run_scan(**arguments)
    assert report["total_violations"] == 0
    csi = [b for b in report["bounds"] if b["name"].startswith("csi")]
    assert len(csi) == arguments["n_total"] // 2
    for bound in csi:
        assert bound["skipped"] == 0 and bound["evaluations"] == arguments["samples"]
        assert math.isfinite(bound["worst_value"]) and 0.0 < bound["worst_value"] <= 1.0, bound["name"]
