"""Factored sector densities against dense oracles.

A separable sector is held as weights and coherent amplitude rows. Every
quantity computed from the factors is checked here against the dense
(N+1)^2 matrix they stand for, on the shapes where a factorization is
easiest to get wrong: repeated rows, basis rows at z = 0 and z = 1, zero
weights, more rows than the sector dimension, and N from 0 to 256.
"""

import math
import os

import numpy as np
import pytest

from bosewit import cli
from bosewit.fock import (
    GeneratorSpec,
    NumberSectorMixture,
    SectorDensity,
    angular_moments,
    normally_ordered_moment,
)
from bosewit.scan import run_scan
from bosewit.separable import (
    CoherentSpinState,
    NumberDistribution,
    SeparableEnsemble,
    ensemble_to_state,
    sample_fluctuating_ensemble,
    to_fock,
)
from bosewit.witnesses import qfi

import oracles

SECTOR_NS = (0, 1, 2, 40, 256)
CASES = ("random", "duplicates", "poles", "zero_weights", "more_rows_than_dim")
MOMENT_ORDERS = ((1, 0, 0, 1), (0, 1, 1, 0), (1, 0, 1, 0), (0, 1, 0, 1), (2, 0, 0, 2), (1, 1, 1, 1), (2, 1, 1, 2))


def _components(case, n):
    """(weight, z, phi) triples for one test case."""
    rng = np.random.default_rng(1000 * CASES.index(case) + n)
    if case == "random":
        k = 4
    elif case == "more_rows_than_dim":
        k = n + 3
    else:
        k = 0
    if k:
        weights = rng.dirichlet(np.ones(k))
        return list(zip(weights, rng.random(k), rng.uniform(-math.pi, math.pi, k)))
    if case == "duplicates":
        return [(0.25, 0.3, 1.2), (0.25, 0.3, 1.2), (0.5, 0.8, -0.4)]
    if case == "poles":
        return [(0.3, 0.0, 0.0), (0.3, 1.0, 2.1), (0.4, 0.5, -1.0)]
    return [(0.0, 0.2, 0.1), (0.6, 0.7, 0.5), (0.0, 0.9, -2.0), (0.4, 0.4, 3.0)]


def _sector(case, n):
    comps = _components(case, n)
    ensemble = SeparableEnsemble(n, tuple((w, CoherentSpinState(z, phi, n)) for w, z, phi in comps))
    return comps, ensemble_to_state(ensemble)


def _directions():
    rng = np.random.default_rng(5)
    random = rng.normal(size=(5, 3))
    return np.vstack([np.eye(3), random / np.linalg.norm(random, axis=1)[:, None]])


ALL_CASES = [(case, n) for case in CASES for n in SECTOR_NS]


@pytest.mark.parametrize("case,n", ALL_CASES)
def test_rows_are_bit_equal_to_the_scalar_formula(case, n):
    comps, state = _sector(case, n)
    assert state.vectors.shape == (len(comps), n + 1)
    for (_, z, phi), row in zip(comps, state.vectors):
        want = oracles.coherent_amplitudes_scalar(n, z, phi)
        assert np.array_equal(row.view(np.uint64), want.view(np.uint64))
        pure = to_fock(CoherentSpinState(z, phi, n)).amplitudes
        assert np.array_equal(pure.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("case,n", ALL_CASES)
def test_populations_and_moments_match_the_dense_density(case, n):
    comps, state = _sector(case, n)
    rho = oracles.dense_density([w for w, _, _ in comps], state.vectors)
    populations = state.occupation_probabilities()
    assert np.max(np.abs(populations - np.clip(np.diag(rho).real, 0.0, None))) <= 1e-12
    scale = max(1, n)
    for p, q, r, s in MOMENT_ORDERS:
        got = normally_ordered_moment(state, p, q, r, s)
        want = oracles.density_moment_oracle(rho, p, q, r, s)
        # 1e-12 on the moment's natural scale N^(p+q)
        assert abs(got - want) <= 1e-12 * scale ** (p + q)
    jmats = (oracles.jx_dense(n), oracles.jy_dense(n), oracles.jz_dense(n))
    for direction in _directions():
        jn = sum(c * m for c, m in zip(direction, jmats))
        mean = np.trace(rho @ jn).real
        var = np.trace(rho @ jn @ jn).real - mean**2
        got_mean, got_var = angular_moments(state, GeneratorSpec(direction))
        assert abs(got_mean - mean) <= 1e-12 * scale
        assert abs(got_var - var) <= 1e-12 * scale**2


@pytest.mark.parametrize("case,n", ALL_CASES)
def test_qfi_stack_matches_the_dense_spectral_formula(case, n):
    comps, state = _sector(case, n)
    rho = oracles.dense_density([w for w, _, _ in comps], state.vectors)
    directions = _directions()
    got = qfi(state, directions)
    want = oracles.qfi_dense(rho, directions)
    # Where the spectrum reaches below the 1e-12 cutoff, the support formula
    # and the full-basis formula are different truncations of the exact
    # QFI; each moves it by at most about N^2 times the spectral mass cut.
    lam = np.linalg.eigvalsh(rho)
    cut_mass = float(np.sum(lam[(lam > 0.0) & (lam <= 1e-12)]))
    tolerance = 1e-10 * np.maximum(np.abs(want), 1.0) + n**2 * cut_mass
    assert np.all(np.abs(got - want) <= tolerance)


def test_dense_input_is_factorized_to_the_same_density():
    rng = np.random.default_rng(17)
    for n in (0, 1, 5, 30):
        rho = oracles.random_density_matrix(rng, n)
        state = SectorDensity(rho)
        assert np.max(np.abs(state.matrix - rho)) < 1e-14
        assert state.vectors.shape[1] == n + 1
        assert state.vectors.shape[0] <= min(3, n + 1)
        assert np.all(state.weights > 1e-12)


def test_from_factors_validation():
    row = np.array([[0.6, 0.8j]])
    assert SectorDensity.from_factors([1.0], row).n_total == 1
    with pytest.raises(ValueError, match="trace"):
        SectorDensity.from_factors([0.5], row)
    with pytest.raises(ValueError, match="nonnegative"):
        SectorDensity.from_factors([1.5, -0.5], np.vstack([row, row]))
    with pytest.raises(ValueError, match="K weights"):
        SectorDensity.from_factors([0.5, 0.5], row)
    with pytest.raises(ValueError, match="finite"):
        SectorDensity.from_factors([1.0], np.array([[np.nan, 1.0]]))


def test_factors_are_read_only():
    state = SectorDensity.from_factors([1.0], np.array([[0.6, 0.8]]))
    for array in (state.weights, state.vectors, state.matrix):
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_mixture_qfi_stack_matches_single_directions_and_dense_sectors():
    state = ensemble_to_state(sample_fluctuating_ensemble(3, NumberDistribution.poisson(6), 4))
    assert isinstance(state, NumberSectorMixture)
    directions = _directions()
    values = qfi(state, directions)
    for axis, value in zip("xyz", values[:3]):
        assert value == qfi(state, GeneratorSpec.axis(axis))
    for direction, value in zip(directions[3:], values[3:]):
        assert value == pytest.approx(qfi(state, GeneratorSpec(direction)), rel=1e-12)
    want = sum(w * oracles.qfi_dense(s.matrix, directions) for w, s in state.sectors)
    assert np.all(np.abs(values - want) <= 1e-10 * np.maximum(np.abs(want), 1.0))


def _refuse_dense(self):
    raise AssertionError("a dense sector matrix was built")


def test_scans_and_per_sector_witnesses_never_build_a_dense_matrix(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(SectorDensity, "matrix", property(_refuse_dense))
    fixed = run_scan(samples=3, seed=1, n_total=12)
    fluctuating = run_scan(samples=3, seed=1, distribution=NumberDistribution.poisson(6))
    assert fixed["total_violations"] == fluctuating["total_violations"] == 0
    path = tmp_path / "poisson.state"
    path.write_text("kind = fluctuating\ndistribution:\n    kind = poisson\n    mean = 8\nz = 0.3\n")
    masked = os.path.join(os.path.dirname(__file__), "data", "masked_mixture.state")
    for state_file in (path, masked):
        code = cli.main(["witness", "--state", str(state_file), "--per-sector", "--witness", "all",
                         "--witness", "qfi:x", "--timestamp", "T"])
        assert code in (0, 3)
        assert '"per_sector"' in capsys.readouterr().out
