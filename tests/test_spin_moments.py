"""Spin moments taken about their means, at the largest N the code accepts.

Every coherent spin state lies exactly on the spin-squeezing bound xi^2 = 1,
and every number state has eta^2 = 0, so a variance formed as the
difference of two O(N^2) raw moments can cross the bound, or go below
zero, by rounding alone. These tests hold the one centred route of exact
states (fock._spin_mean_covariance: number_squeezing_direct,
spin_squeezing, angular_moments) and the one closed form of ensembles
(separable._spin_moments: analytic_spin_moments, the scan, the climber) to
the exact values at N up to 10^6.
"""

import tracemalloc

import numpy as np
import pytest

from bosewit.fock import (
    GeneratorSpec,
    NumberSectorMixture,
    SectorDensity,
    angular_moments,
    basis_state,
    twin_fock,
)
from bosewit.scan import maximize_witness
from bosewit.separable import (
    CoherentSpinState,
    FluctuatingEnsemble,
    SeparableEnsemble,
    analytic_spin_moments,
    to_fock,
)
from bosewit.witnesses import number_squeezing_direct, spin_squeezing, witness_verdict

EPS = float(np.finfo(float).eps)
Z_GRID = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 0.995, 0.999
)
PHASES = (0.0, 0.4, -2.9)


def _assert_on_the_bound(state, n, z):
    xi2 = spin_squeezing(state)
    eta2 = number_squeezing_direct(state)
    assert abs(xi2 - 1.0) <= 2e-10, (n, z, xi2)
    assert eta2 == pytest.approx(4.0 * z * (1.0 - z), rel=2e-10), (n, z, eta2)
    assert witness_verdict("xi2", xi2, float(n)) == (1.0, False), (n, z, xi2)


def test_coherent_states_sit_on_the_squeezing_bound():
    for z in Z_GRID:
        for phi in PHASES:
            _assert_on_the_bound(to_fock(CoherentSpinState(z, phi, 10**4)), 10**4, z)


@pytest.mark.parametrize("z,phi", [(0.01, -2.9), (0.95, 0.4), (0.995, 0.0), (0.999, -2.9)])
def test_coherent_states_sit_on_the_squeezing_bound_at_the_particle_cap(z, phi):
    _assert_on_the_bound(to_fock(CoherentSpinState(z, phi, 10**6)), 10**6, z)


@pytest.mark.parametrize("n", [20, 400, 10**6])
def test_number_states_have_exactly_zero_number_squeezing(n):
    assert number_squeezing_direct(twin_fock(n)) == 0.0
    for k in (0, 1, n - 3):
        assert number_squeezing_direct(basis_state(n, k)) == 0.0, k


# Coherent sectors N = 10 and 10^5 at z = 0.9, mixed 1e-4 : 1 - 1e-4: the
# between-sector term carries 95% of Var J_z, and the raw second moment
# <J_z^2> is about 1e4 times the variance.
MIX_Z, MIX_PHI = 0.9, 0.4
MIX_WEIGHTS = ((10, 1e-4), (10**5, 1.0 - 1e-4))


def _mixture_moments():
    """(<N>, Var J_z) of the two-sector mixture by the law of total variance."""
    z = MIX_Z
    mean_n = sum(p * n for n, p in MIX_WEIGHTS)
    mu = sum(p * n * (z - 0.5) for n, p in MIX_WEIGHTS)
    within = sum(p * n * z * (1.0 - z) for n, p in MIX_WEIGHTS)
    between = sum(p * (n * (z - 0.5) - mu) ** 2 for n, p in MIX_WEIGHTS)
    return mean_n, within + between


def test_number_mixture_adds_the_between_sector_variance():
    mixture = NumberSectorMixture(
        tuple((p, to_fock(CoherentSpinState(MIX_Z, MIX_PHI, n))) for n, p in MIX_WEIGHTS)
    )
    mean_n, var_z = _mixture_moments()
    transverse = mean_n * mean_n * MIX_Z * (1.0 - MIX_Z)
    assert number_squeezing_direct(mixture) == pytest.approx(4.0 * var_z / mean_n, rel=1e-12)
    assert spin_squeezing(mixture) == pytest.approx(mean_n * var_z / transverse, rel=1e-12)
    assert angular_moments(mixture, GeneratorSpec.axis("z"))[1] == pytest.approx(var_z, rel=1e-12)


def test_fluctuating_ensemble_adds_the_between_sector_variance():
    sectors = {
        n: SeparableEnsemble(n, ((1.0, CoherentSpinState(MIX_Z, MIX_PHI, n)),))
        for n, _ in MIX_WEIGHTS
    }
    ensemble = FluctuatingEnsemble(MIX_WEIGHTS, sectors)
    _, var_z = _mixture_moments()
    assert analytic_spin_moments(ensemble)[2] == pytest.approx(var_z, rel=1e-12)


@pytest.mark.parametrize("n", [40, 2895, 10**6])
def test_one_component_closed_form_sits_on_the_squeezing_bound(n):
    for z in (1e-6, 1e-3, 0.5, 1.0 - 1e-3, 1.0 - 1e-6):
        for phi in PHASES:
            ensemble = SeparableEnsemble(n, ((1.0, CoherentSpinState(z, phi, n)),))
            assert abs(spin_squeezing(ensemble) - 1.0) <= 4.0 * EPS, (z, phi)


def test_squeezing_climber_finds_no_value_below_the_bound():
    value, _ = maximize_witness("xi2", 2895, budget=3000, seed=3, n_components=1, restarts=5)
    assert value >= 1.0 - 1e-12


def test_centred_moments_peak_at_five_times_the_rows():
    # the weighted rows, the three axis actions and one centring temporary
    rng = np.random.default_rng(8)
    rows = rng.normal(size=(64, 2048)) + 1j * rng.normal(size=(64, 2048))
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    state = SectorDensity.from_factors(np.full(64, 1.0 / 64), rows)
    g = GeneratorSpec.axis("z")
    for reader in (spin_squeezing, number_squeezing_direct, lambda s: angular_moments(s, g)):
        tracemalloc.start()
        reader(state)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= 5 * rows.nbytes + 64 * 1024, peak
