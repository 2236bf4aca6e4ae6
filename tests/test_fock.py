"""Sector types, ladder moments, collective-spin moments, rotations."""

import math

import numpy as np
import pytest

from bosewit import fock
from bosewit.errors import EigendecompositionFailure, NonHermitianInput
from bosewit.fock import (
    FockVector,
    GeneratorSpec,
    NumberSectorMixture,
    SectorDensity,
    aligning_rotation_axis,
    angular_moments,
    basis_state,
    generator_matrix,
    hermitian_eig,
    normally_ordered_moment,
    rotate,
    twin_fock,
)

import oracles

TOL = 1e-10


def test_fock_vector_validates_norm():
    FockVector(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        FockVector(np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        FockVector(np.zeros(0))


def test_fock_vector_is_read_only():
    state = basis_state(4, 2)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 1.0


def test_basis_state_and_twin_fock():
    state = basis_state(3, 1)
    assert state.n_total == 3
    assert state.amplitudes[1] == 1.0
    assert twin_fock(20).amplitudes[10] == 1.0
    with pytest.raises(ValueError):
        twin_fock(7)
    with pytest.raises(ValueError):
        basis_state(3, 4)


def test_sector_density_validation():
    rho = SectorDensity.from_pure(twin_fock(4))
    assert rho.n_total == 4
    assert abs(rho.matrix.trace() - 1.0) < 1e-15
    with pytest.raises(NonHermitianInput):
        SectorDensity(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValueError):
        SectorDensity(np.eye(3, dtype=complex))  # trace 3


def test_sector_density_enforces_positivity():
    with pytest.raises(ValueError, match="not positive semidefinite"):
        SectorDensity(np.diag([1.5, -0.5]))
    # eigenvalues down to -1e-10 are rounding noise: accepted, then dropped
    rho = SectorDensity(np.diag([1.0 + 5e-11, -5e-11, 0.0]))
    assert rho.weights.tolist() == [1.0 + 5e-11]
    assert rho.n_total == 2
    assert rho.occupation_probabilities()[0] == pytest.approx(1.0, abs=1e-10)


def test_mixture_validation():
    rho4 = SectorDensity.from_pure(twin_fock(4))
    rho2 = SectorDensity.from_pure(twin_fock(2))
    mix = NumberSectorMixture(((0.75, rho4), (0.25, rho2)))
    # sectors come back sorted by particle number
    assert [s.n_total for _, s in mix.sectors] == [2, 4]
    assert abs(mix.mean_n - 3.5) < 1e-15
    with pytest.raises(ValueError):
        NumberSectorMixture(((0.5, rho4), (0.5, rho4)))
    with pytest.raises(ValueError):
        NumberSectorMixture(((0.9, rho4),))
    with pytest.raises(ValueError):
        NumberSectorMixture(((-0.1, rho4), (1.1, rho2)))


def test_generator_spec():
    g = GeneratorSpec.from_vector([0.0, 0.0, 2.0])
    assert np.allclose(g.direction, [0, 0, 1])
    assert GeneratorSpec.axis("x").key() == (1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        GeneratorSpec(np.array([1.0, 1.0, 0.0]))
    for bad in ((0.0, 0.0, 0.0), (np.nan, 0.0, 1.0), (np.inf, 0.0, 0.0), (1e308, -np.inf, 0.0)):
        with pytest.raises(ValueError, match="finite and nonzero"):
            GeneratorSpec.from_vector(bad)
    with pytest.raises(ValueError):
        GeneratorSpec.axis("w")


@pytest.mark.parametrize("vector, unit", [
    ((1e-200, 1e-200, 0.0), (0.5**0.5, 0.5**0.5, 0.0)),
    ((3e-170, 0.0, 4e-170), (0.6, 0.0, 0.8)),
    ((1e-160, -1e-160, 0.0), (0.5**0.5, -(0.5**0.5), 0.0)),
    ((5e-324, 0.0, 0.0), (1.0, 0.0, 0.0)),
    ((1e308, 1e308, 0.0), (0.5**0.5, 0.5**0.5, 0.0)),
    ((0.0, -3e300, 4e300), (0.0, -0.6, 0.8)),
])
def test_a_direction_whose_squared_norm_leaves_the_float_range(vector, unit):
    # each was refused as "finite and nonzero" (1e308 with a RuntimeWarning)
    # or as no unit vector
    with np.errstate(all="raise"):
        direction = GeneratorSpec.from_vector(vector).direction
    np.testing.assert_allclose(direction, unit, rtol=0, atol=1e-15)


def test_a_direction_in_the_float_range_keeps_its_bits():
    rng = np.random.default_rng(3)
    for vector in rng.normal(size=(2000, 3)) * np.exp(rng.uniform(-300, 300, (2000, 1))):
        assert np.array_equal(
            GeneratorSpec.from_vector(vector).direction, vector / float(np.linalg.norm(vector))
        )


def test_from_pure_takes_every_norm_a_fock_vector_takes():
    # norm^2 1 + 5e-9 is within the FockVector guard (1e-8); from_pure used
    # to judge the copy against the density trace tolerance (1e-10)
    state = FockVector([math.sqrt(1.0 + 5e-9), 0.0, 0.0])
    density = SectorDensity.from_pure(state)
    assert type(density) is SectorDensity
    assert density.weights.tolist() == [1.0]
    assert np.array_equal(density.vectors, state.vectors)
    assert not np.shares_memory(density.vectors, state.vectors)
    assert not density.vectors.flags.writeable


def test_twin_fock_ladder_moments():
    state = twin_fock(4)
    assert normally_ordered_moment(state, 2, 0, 0, 2) == pytest.approx(2.0, abs=TOL)
    assert normally_ordered_moment(state, 1, 1, 1, 1) == pytest.approx(4.0, abs=TOL)
    # order exceeding every occupation is exactly zero
    assert normally_ordered_moment(state, 5, 0, 0, 5) == 0j
    # number conservation kills unbalanced moments exactly
    assert normally_ordered_moment(state, 1, 0, 0, 2) == 0j


def test_moment_rejects_bad_orders():
    with pytest.raises(ValueError):
        normally_ordered_moment(twin_fock(4), -1, 0, 0, 1)
    with pytest.raises(TypeError):
        normally_ordered_moment(np.eye(3), 1, 0, 0, 1)


def test_moments_match_dense_oracle_pure():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        amps = oracles.random_pure_amplitudes(rng, n)
        state = FockVector(amps)
        orders = rng.integers(0, 4, size=4)
        p, q, r, s = (int(v) for v in orders)
        got = normally_ordered_moment(state, p, q, r, s)
        want = oracles.moment_oracle(amps, p, q, r, s)
        assert got == pytest.approx(want, abs=1e-11)


def test_moments_match_dense_oracle_density():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(1, 8))
        mat = oracles.random_density_matrix(rng, n)
        rho = SectorDensity(mat)
        p, q, r, s = (int(v) for v in rng.integers(0, 3, size=4))
        got = normally_ordered_moment(rho, p, q, r, s)
        want = oracles.density_moment_oracle(rho.matrix, p, q, r, s)
        assert got == pytest.approx(want, abs=1e-11)


def test_density_moment_consistent_with_pure():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 10))
        amps = oracles.random_pure_amplitudes(rng, n)
        state = FockVector(amps)
        rho = SectorDensity.from_pure(state)
        for (p, q, r, s) in ((1, 0, 0, 1), (2, 0, 0, 2), (1, 1, 1, 1), (0, 2, 2, 0)):
            assert normally_ordered_moment(rho, p, q, r, s) == pytest.approx(
                normally_ordered_moment(state, p, q, r, s), abs=1e-11
            )


def test_commutation_identity():
    # <n_a^2> = <a^dag^2 a^2> + <n_a> on arbitrary states
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(1, 12))
        state = FockVector(oracles.random_pure_amplitudes(rng, n))
        na = normally_ordered_moment(state, 1, 0, 0, 1).real
        naa = normally_ordered_moment(state, 2, 0, 0, 2).real
        k = np.arange(n + 1)
        na_sq = float(np.sum(k**2 * state.occupation_probabilities()))
        assert naa + na == pytest.approx(na_sq, abs=1e-10)


def test_moment_real_when_symmetric():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(1, 10))
        state = FockVector(oracles.random_pure_amplitudes(rng, n))
        value = normally_ordered_moment(state, 2, 1, 1, 2)
        assert abs(value.imag) < 1e-12


def test_angular_moments_css():
    amps = oracles.css_amplitudes(10, 0.5, 0.0)
    state = FockVector(amps)
    mean, var = angular_moments(state, GeneratorSpec.axis("x"))
    assert mean == pytest.approx(5.0, abs=TOL)
    mean_z, var_z = angular_moments(state, GeneratorSpec.axis("z"))
    assert mean_z == pytest.approx(0.0, abs=TOL)
    assert var_z == pytest.approx(2.5, abs=TOL)


def test_angular_moments_twin_fock_and_css_variance():
    mean, var = angular_moments(twin_fock(20), GeneratorSpec.axis("z"))
    assert mean == pytest.approx(0.0, abs=TOL)
    assert var == pytest.approx(0.0, abs=TOL)
    state = FockVector(oracles.css_amplitudes(50, 0.3, 0.0))
    _, var_z = angular_moments(state, GeneratorSpec.axis("z"))
    assert var_z == pytest.approx(10.5, abs=1e-9)


def test_angular_moments_match_dense_oracle():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(1, 14))
        amps = oracles.random_pure_amplitudes(rng, n)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        g = GeneratorSpec(direction)
        jmat = (
            direction[0] * oracles.jx_dense(n)
            + direction[1] * oracles.jy_dense(n)
            + direction[2] * oracles.jz_dense(n)
        )
        mean_ref = float(np.vdot(amps, jmat @ amps).real)
        second_ref = float(np.vdot(jmat @ amps, jmat @ amps).real)
        mean, var = angular_moments(FockVector(amps), g)
        assert mean == pytest.approx(mean_ref, abs=1e-10)
        assert var == pytest.approx(second_ref - mean_ref**2, abs=1e-9)
        # dense generator agrees with the oracle matrix entrywise
        assert np.max(np.abs(generator_matrix(n, g) - jmat)) < 1e-12


def test_angular_moments_density_and_mixture():
    rng = np.random.default_rng(19)
    g = GeneratorSpec.axis("y")
    rho4 = SectorDensity(oracles.random_density_matrix(rng, 4))
    rho7 = SectorDensity(oracles.random_density_matrix(rng, 7))
    m4, s4 = angular_moments(rho4, g)
    mix = NumberSectorMixture(((0.3, rho4), (0.7, rho7)))
    mean_mix, var_mix = angular_moments(mix, g)
    m7, s7 = angular_moments(rho7, g)
    mean_ref = 0.3 * m4 + 0.7 * m7
    second_ref = 0.3 * (s4 + m4**2) + 0.7 * (s7 + m7**2)
    assert mean_mix == pytest.approx(mean_ref, abs=1e-12)
    assert var_mix == pytest.approx(second_ref - mean_ref**2, abs=1e-12)
    assert var_mix > -1e-12


def test_rotate_identity_and_phase():
    state = FockVector(oracles.css_amplitudes(10, 0.5, 0.0))
    assert rotate(state, np.zeros(3)) is state
    for chi in (0.3, 1.2, 2.9):
        rotated = rotate(state, np.array([0.0, 0.0, chi]))
        mean_x, _ = angular_moments(rotated, GeneratorSpec.axis("x"))
        assert mean_x == pytest.approx(5.0 * math.cos(chi), abs=1e-9)
        assert np.sum(np.abs(rotated.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-10)


def test_rotate_round_trip():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(1, 16))
        state = FockVector(oracles.random_pure_amplitudes(rng, n))
        axis = rng.normal(size=3)
        back = rotate(rotate(state, axis), -axis)
        assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-9


def test_aligning_rotation_axis_moves_generator_to_z():
    rng = np.random.default_rng(29)
    for _ in range(15):
        n = int(rng.integers(2, 14))
        state = FockVector(oracles.random_pure_amplitudes(rng, n))
        g = GeneratorSpec.from_vector(rng.normal(size=3))
        axis = aligning_rotation_axis(g)
        rotated = rotate(state, axis)
        _, var_n = angular_moments(state, g)
        _, var_z = angular_moments(rotated, GeneratorSpec.axis("z"))
        assert var_z == pytest.approx(var_n, abs=1e-8)
    # the two degenerate branches
    assert np.allclose(aligning_rotation_axis(GeneratorSpec.axis("z")), np.zeros(3))
    down = GeneratorSpec(np.array([0.0, 0.0, -1.0]))
    state = FockVector(oracles.random_pure_amplitudes(np.random.default_rng(1), 6))
    rotated = rotate(state, aligning_rotation_axis(down))
    _, var_n = angular_moments(state, down)
    _, var_z = angular_moments(rotated, GeneratorSpec.axis("z"))
    assert var_z == pytest.approx(var_n, abs=1e-9)


def test_hermitian_eig_contract():
    rng = np.random.default_rng(31)
    raw = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    mat = raw + raw.conj().T
    evals, evecs = hermitian_eig(mat)
    assert np.all(np.diff(evals) >= -1e-12)
    residual = np.linalg.norm(mat @ evecs - evecs * evals)
    assert residual <= 1e-10 * np.linalg.norm(mat)
    recon = (evecs * evals) @ evecs.conj().T
    assert np.max(np.abs(recon - mat)) < 1e-10 * np.linalg.norm(mat)
    # unitarity of the eigenvector matrix
    assert np.max(np.abs(evecs.conj().T @ evecs - np.eye(8))) < 1e-12


def test_hermitian_eig_diagonal_example():
    evals, evecs = hermitian_eig(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(evals, [1.0, 2.0, 3.0])
    # columns are permuted unit vectors
    assert np.allclose(np.abs(evecs), np.eye(3)[:, [1, 2, 0]])


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(NonHermitianInput):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_hermitian_matrices_must_be_finite(bad):
    # hermitian_eig used to return a NaN eigenvalue for a NaN entry
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        hermitian_eig(np.array([[bad, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="density entries must be finite"):
        SectorDensity(np.array([[bad, 0.0], [0.0, 1.0]]))


def test_hermitian_checks_name_their_input_and_tolerance():
    with pytest.raises(NonHermitianInput, match=r"^density deviates .* \(tolerance 1e-12\)$"):
        SectorDensity(np.array([[0.5, 1e-11], [0.0, 0.5]]))
    with pytest.raises(NonHermitianInput, match=r"^matrix deviates .* \(tolerance 1e-10\)$"):
        hermitian_eig(np.array([[0.5, 1e-9], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="^matrix must be a non-empty square matrix$"):
        hermitian_eig(np.zeros((2, 3)))
    # a matrix laid out column-major is read like any other
    mat = np.asfortranarray(np.array([[1.0, 2j], [-2j, 1.0]]))
    assert hermitian_eig(mat)[0].tolist() == [-1.0, 3.0]


def test_generator_matrix_is_built_from_the_spin_coefficients(monkeypatch):
    calls = []
    build = fock._build_spin_coefficients

    def spy(n, width):
        calls.append((n, width))
        return build(n, width)

    monkeypatch.setattr(fock, "_build_spin_coefficients", spy)
    for n in (0, 1, 7, 300):
        for direction in ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.48, -0.6, 0.64]):
            g = GeneratorSpec(direction)
            nx, ny, nz = g.direction
            diagonal, coupling = build(n, n + 1)
            expected = np.zeros((n + 1, n + 1), dtype=np.complex128)
            k = np.arange(n + 1)
            expected[k, k] = nz * diagonal
            expected[k[1:], k[:-1]] = (nx - 1j * ny) * coupling
            expected[k[:-1], k[1:]] = (nx + 1j * ny) * coupling
            assert generator_matrix(n, g).tobytes() == expected.tobytes()
    assert set(calls) == {(0, 1), (1, 2), (7, 8), (300, 301)}
    assert issubclass(EigendecompositionFailure, Exception)
