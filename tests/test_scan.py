import json
import math

import numpy as np
import pytest

from bosewit.fock import GeneratorSpec
from bosewit.scan import _BoundTracker, run_scan
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


@pytest.mark.parametrize("direction", ["upper", "lower"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_value_is_a_violation(direction, value):
    tracker = _BoundTracker("probe", 1.0, direction, 1e-9)
    tracker.record(value, {"sample": 0})
    report = tracker.report()
    assert report["violations"] == 1
    assert report["evaluations"] == 1
    assert report["worst_value"] is None
    assert report["worst_sample"] is None
    json.dumps(report, allow_nan=False)


@pytest.mark.parametrize(("direction", "worst", "milder"), [("upper", 0.75, 0.5), ("lower", 1.25, 1.5)])
def test_finite_worst_value_survives_a_nan(direction, worst, milder):
    tracker = _BoundTracker("probe", 1.0, direction, 1e-9)
    for sample, value in enumerate((math.nan, worst, math.nan, milder)):
        tracker.record(value, {"sample": sample})
    report = tracker.report()
    assert report["worst_value"] == worst
    assert report["worst_sample"] == {"sample": 1}
    assert report["violations"] == 2
    assert report["evaluations"] == 4
