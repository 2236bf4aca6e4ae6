"""The scan's array kernels against the object API, bit for bit.

run_scan draws every chunk as (weights, z, phi) arrays, builds the padded
coherent rows of all its sectors in one call, evaluates the closed-form
spin moments over the whole chunk and builds a report payload only for a
new worst case. These tests hold each kernel to the per-object result: the
one-state row (`oracles.coherent_amplitudes_scalar`, `to_fock`), the
scalar moment loop (`oracles.spin_moments_loop`, `analytic_spin_moments`,
`spin_squeezing`) and the payload of the ensemble object
(`oracles.ensemble_payload`). The moment loop is the one closed form for
fixed and fluctuating N alike, with Var J_z a sum of nonnegative terms
about the sector and ensemble means (the law of total variance), so
`_spin_moments` takes no fixed/fluctuating switch.
"""

import json
import math

import numpy as np
import pytest

from bosewit.errors import ZeroMeanSpinDirection
from bosewit.scan import _draw_chunk, _ensemble_payload, run_scan
from bosewit.separable import (
    CoherentSpinState,
    FluctuatingEnsemble,
    NumberDistribution,
    SeparableEnsemble,
    _check_draws,
    _coherent_rows,
    _spin_moments,
    analytic_spin_moments,
    sample_ensemble,
    sample_fluctuating_ensemble,
    to_fock,
)
from bosewit.witnesses import _squeezing, spin_squeezing

import oracles


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.complex128).tobytes()


def test_padded_rows_equal_the_rows_of_each_sector_alone():
    rng = np.random.default_rng(31)
    numbers = [0, 1, 2, 7, 30, 257]
    z = rng.random((3, len(numbers), 5))
    phi = rng.uniform(-math.pi, math.pi, z.shape)
    z[0, :, 1] = 0.0
    z[1, :, 3] = 1.0
    z[2, :, 0] = 1e-300
    rows = _coherent_rows(numbers, z, phi)
    assert rows.shape == (3, len(numbers), 5, max(numbers) + 1)
    for j, n in enumerate(numbers):
        alone = _coherent_rows(n, z[:, j].ravel(), phi[:, j].ravel()).reshape(3, 5, n + 1)
        assert _bits(rows[:, j, :, : n + 1]) == _bits(alone)
        padding = rows[:, j, :, n + 1 :]
        assert not padding.any()
        assert not np.signbit(padding.view(np.float64)).any()
        for s in range(3):
            for i in range(5):
                scalar = oracles.coherent_amplitudes_scalar(n, z[s, j, i], phi[s, j, i])
                assert _bits(rows[s, j, i, : n + 1]) == _bits(scalar), (s, n, i)
                state = CoherentSpinState(z[s, j, i], phi[s, j, i], n)
                assert _bits(rows[s, j, i, : n + 1]) == _bits(to_fock(state).amplitudes)


def test_array_spin_moments_equal_the_scalar_loop():
    distribution = NumberDistribution.poisson(6.0)
    number_weights = distribution.weights()
    seeds = [101, 102, 103, 104]
    weights, z, phi = _draw_chunk(seeds, len(number_weights), 3)
    moments = _spin_moments(number_weights, weights, z, phi)
    for i, seed in enumerate(seeds):
        ensemble = sample_fluctuating_ensemble(seed, distribution, 3)
        expected = oracles.spin_moments_loop(ensemble)
        assert np.array([value[i] for value in moments]).tobytes() == np.array(expected).tobytes()
        assert np.array(analytic_spin_moments(ensemble)).tobytes() == np.array(expected).tobytes()

    # enough samples that a square or a sum rounded another way shows
    seeds = list(range(3000))
    weights, z, phi = _draw_chunk(seeds, 1, 5)
    moments = _spin_moments(((40, 1.0),), weights, z, phi)
    for i, seed in enumerate(seeds):
        expected = oracles.spin_moments_loop(sample_ensemble(seed, 40, 5))
        assert np.array([value[i] for value in moments]).tobytes() == np.array(expected).tobytes()


def test_object_moments_of_sectors_with_different_component_counts():
    sectors = {
        3: sample_ensemble(1, 3, 1),
        5: sample_ensemble(2, 5, 4),
        8: sample_ensemble(3, 8, 2),
    }
    ensemble = FluctuatingEnsemble(((3, 0.25), (5, 0.5), (8, 0.25)), sectors)
    expected = oracles.spin_moments_loop(ensemble)
    assert np.array(analytic_spin_moments(ensemble)).tobytes() == np.array(expected).tobytes()


def test_chunk_squeezing_skips_the_sample_without_mean_spin():
    rng = np.random.default_rng(4)
    weights = rng.dirichlet(np.ones(3), size=(3, 1))
    z = rng.random((3, 1, 3))
    phi = rng.uniform(-math.pi, math.pi, (3, 1, 3))
    z[1, 0] = [0.0, 1.0, 0.0]  # every component a basis state: <J_x> = <J_y> = 0
    values, zero = _squeezing(12.0, *_spin_moments(((12, 1.0),), weights, z, phi))
    assert list(zero) == [False, True, False]
    for s in range(3):
        ensemble = SeparableEnsemble(
            12,
            tuple(
                (w, CoherentSpinState(zi, p, 12))
                for w, zi, p in zip(weights[s, 0].tolist(), z[s, 0].tolist(), phi[s, 0].tolist())
            ),
        )
        if zero[s]:
            with pytest.raises(ZeroMeanSpinDirection):
                spin_squeezing(ensemble)
        else:
            assert spin_squeezing(ensemble) == values[s]


@pytest.mark.parametrize(
    "case",
    [
        dict(samples=30, seed=8, n_total=10),
        dict(samples=6, seed=9, distribution=NumberDistribution.binomial(6, 0.4)),
    ],
)
def test_worst_case_payloads_from_arrays_equal_the_object_payloads(case):
    report = run_scan(**case)
    for bound in report["bounds"]:
        sample = bound["worst_sample"]
        if "n_total" in case:
            ensemble = sample_ensemble(sample["sample_seed"], case["n_total"], 4)
        else:
            ensemble = sample_fluctuating_ensemble(sample["sample_seed"], case["distribution"], 4)
        expected = oracles.ensemble_payload(ensemble)
        assert sample["ensemble"] == expected
        assert json.dumps(sample["ensemble"], sort_keys=True) == json.dumps(expected, sort_keys=True)


def test_payload_of_one_drawn_sample_equals_its_object_payload():
    distribution = NumberDistribution.poisson(2.0)
    number_weights = distribution.weights()
    weights, z, phi = _draw_chunk([5, 6], len(number_weights), 3)
    payload = _ensemble_payload(number_weights, False, weights[1], z[1], phi[1])
    expected = oracles.ensemble_payload(sample_fluctuating_ensemble(6, distribution, 3))
    assert json.dumps(payload, sort_keys=True) == json.dumps(expected, sort_keys=True)
    weights, z, phi = _draw_chunk([5], 1, 3)
    payload = _ensemble_payload(((7, 1.0),), True, weights[0], z[0], phi[0])
    expected = oracles.ensemble_payload(sample_ensemble(5, 7, 3))
    assert json.dumps(payload, sort_keys=True) == json.dumps(expected, sort_keys=True)


def test_drawn_components_are_checked_as_the_objects_check_them():
    weights, z, phi = _draw_chunk([1, 2], 3, 4)
    _check_draws(weights, z, phi)
    for name, index, value in (
        ("z", (1, 2, 0), 1.5),
        ("z", (0, 0, 3), math.nan),
        ("phi", (1, 0, 1), 4.0),
        ("weights", (0, 1, 2), -0.25),
        ("weights", (1, 1, 1), math.inf),
    ):
        bad = {"weights": weights.copy(), "z": z.copy(), "phi": phi.copy()}
        bad[name][index] = value
        with pytest.raises(ValueError, match="drawn components"):
            _check_draws(bad["weights"], bad["z"], bad["phi"])
    with pytest.raises(ValueError, match="drawn components"):
        _check_draws(weights * 1.01, z, phi)
