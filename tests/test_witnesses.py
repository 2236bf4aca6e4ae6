"""Correlation integrals, Cauchy-Schwarz ratios, number and spin squeezing,
quantum Fisher information, and combined verdicts."""

import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from bosewit import scan, witnesses
from bosewit._factorials import ratio_rows
from bosewit.errors import (
    DegenerateLocalCorrelation,
    EmptyState,
    NonFiniteWitnessValue,
    OrderTooHigh,
    ZeroMeanSpinDirection,
)
from bosewit.fock import (
    WITNESS_TOLERANCE,
    FockVector,
    GeneratorSpec,
    NumberSectorMixture,
    SectorDensity,
    angular_moments,
    basis_state,
    normally_ordered_moment,
    twin_fock,
)
from bosewit.separable import (
    MAX_PARTICLES,
    CoherentSpinState,
    NumberDistribution,
    SeparableEnsemble,
    ensemble_to_state,
    sample_ensemble,
    to_fock,
)
from bosewit.witnesses import (
    CorrelationIntegrals,
    classify,
    csi_ratio,
    integrated_g2m,
    number_squeezing_direct,
    number_squeezing_from_g2,
    number_squeezing_symmetric,
    qfi,
    spin_squeezing,
    twin_fock_csi_approx,
    twin_fock_csi_exact,
    witness_verdict,
)

import oracles

EPS = float(np.finfo(float).eps)


def test_integrated_examples():
    c = integrated_g2m(twin_fock(4), 1)
    assert (c.g_aa, c.g_bb, c.g_ab) == pytest.approx((2.0, 2.0, 4.0), abs=1e-10)
    assert c.prefactor_alpha == pytest.approx(12.0)
    css = to_fock(CoherentSpinState(0.3, 0.0, 50))
    assert integrated_g2m(css, 1).g_aa == pytest.approx(220.5, abs=1e-9)
    c2 = integrated_g2m(twin_fock(8), 2)
    assert (c2.g_aa, c2.g_bb, c2.g_ab) == pytest.approx((24.0, 24.0, 144.0), abs=1e-9)
    # vanishing identically above the sector occupation
    c3 = integrated_g2m(twin_fock(4), 3)
    assert (c3.g_aa, c3.g_bb, c3.g_ab, c3.prefactor_alpha) == (0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        integrated_g2m(twin_fock(4), 0)


@pytest.mark.parametrize("order", [True, False])
def test_a_bool_is_not_a_correlation_order(order):
    # bool subclasses int: True used to give the order-1 integrals
    with pytest.raises(ValueError, match=f"positive integer; got {order}$"):
        integrated_g2m(twin_fock(4), order)
    with pytest.raises(ValueError, match=f"positive integer; got {order}$"):
        witnesses.integrated_g2m_orders(twin_fock(4), [1, order])


def test_integrated_matches_ladder_moments():
    # population path against the independent normally ordered ladder route
    rng = np.random.default_rng(71)
    for _ in range(25):
        n = int(rng.integers(2, 16))
        state = FockVector(oracles.random_pure_amplitudes(rng, n))
        m = int(rng.integers(1, max(2, n // 2 + 1)))
        c = integrated_g2m(state, m)
        g_aa = normally_ordered_moment(state, 2 * m, 0, 0, 2 * m).real
        g_bb = normally_ordered_moment(state, 0, 2 * m, 2 * m, 0).real
        g_ab = normally_ordered_moment(state, m, m, m, m).real
        assert c.g_aa == pytest.approx(g_aa, abs=1e-9, rel=1e-11)
        assert c.g_bb == pytest.approx(g_bb, abs=1e-9, rel=1e-11)
        assert c.g_ab == pytest.approx(g_ab, abs=1e-9, rel=1e-11)


def test_integrated_mixture_is_weighted_sum():
    rho4 = SectorDensity.from_pure(twin_fock(4))
    rho20 = SectorDensity.from_pure(twin_fock(20))
    mix = NumberSectorMixture(((0.25, rho4), (0.75, rho20)))
    c = integrated_g2m(mix, 1)
    assert c.g_aa == pytest.approx(0.25 * 2.0 + 0.75 * 90.0, abs=1e-10)
    assert c.g_ab == pytest.approx(0.25 * 4.0 + 0.75 * 100.0, abs=1e-10)
    assert c.prefactor_alpha == pytest.approx(0.25 * 12.0 + 0.75 * 380.0, abs=1e-10)


def test_csi_ratio_examples():
    assert csi_ratio(CorrelationIntegrals(1, 2.0, 2.0, 4.0, 12.0)) == pytest.approx(2.0)
    twin20 = integrated_g2m(twin_fock(20), 1)
    assert (twin20.g_aa, twin20.g_bb, twin20.g_ab) == pytest.approx((90.0, 90.0, 100.0), abs=1e-9)
    assert csi_ratio(twin20) == pytest.approx(10.0 / 9.0, abs=1e-12)
    with pytest.raises(DegenerateLocalCorrelation):
        csi_ratio(integrated_g2m(twin_fock(4), 2))


@pytest.mark.parametrize("m", [40, 50, 60])
def test_csi_survives_an_overflowing_local_product(m):
    integrals = integrated_g2m(twin_fock(400), m)
    assert math.isfinite(integrals.g_aa) and math.isfinite(integrals.g_bb)
    assert math.isinf(integrals.g_aa * integrals.g_bb)
    assert csi_ratio(integrals) == pytest.approx(twin_fock_csi_exact(400, m), rel=1e-14)


@pytest.mark.parametrize("m", [25, 30])
def test_csi_of_a_large_coherent_state_stays_one(m):
    integrals = integrated_g2m(to_fock(CoherentSpinState(0.5, 0.0, 10**4)), m)
    assert math.isinf(integrals.g_aa * integrals.g_bb)
    assert csi_ratio(integrals) == pytest.approx(1.0, abs=1e-14)


def test_csi_ratio_keeps_the_bits_of_a_finite_product():
    rng = np.random.default_rng(29)
    for g_aa, g_bb, g_ab in 10.0 ** rng.uniform(-12, 150, size=(200, 3)):
        value = csi_ratio(CorrelationIntegrals(1, g_aa, g_bb, g_ab, 1.0))
        assert value == g_ab / math.sqrt(g_aa * g_bb)
    # an infinite factor is not rescued: the ratio is 0 as before
    assert csi_ratio(CorrelationIntegrals(1, math.inf, 1.0, 5.0, 1.0)) == 0.0


@pytest.mark.parametrize("n", [20, 100, 400])
def test_integrated_route_is_exact_for_twin_fock_at_every_order(n):
    state = twin_fock(n)
    for m in range(1, n // 4 + 1):
        expected = twin_fock_csi_exact(n, m)
        assert csi_ratio(integrated_g2m(state, m)) == pytest.approx(expected, rel=1e-14), m


def test_integrated_route_is_exact_for_twin_fock_at_n_2000():
    # the highest orders fall below the floor of the normalized sums and
    # come from the log-sum-exp; HEAD of the raw rows got 454 of 500 wrong
    state = twin_fock(2000)
    logged = 0
    for m in range(1, 501):
        integrals = integrated_g2m(state, m)
        logged += min(integrals.normalized[0]) < witnesses._NORMALIZED_FLOOR
        assert csi_ratio(integrals) == pytest.approx(twin_fock_csi_exact(2000, m), rel=1e-11), m
    assert logged > 0


def test_csi_of_a_large_coherent_state_is_one_at_every_order_to_100():
    state = to_fock(CoherentSpinState(0.37, 0.8, 10**4))
    for m in range(1, 101):
        assert csi_ratio(integrated_g2m(state, m)) == pytest.approx(1.0, abs=1e-12), m


def test_csi_past_the_float_range_is_a_named_error():
    # C_2000 of twin-Fock N = 4000 is C(2000, 1000) ~ 2e600: no bound can
    # judge it, by the correlators or by the closed form
    integrals = integrated_g2m(twin_fock(4000), 1000)
    with pytest.raises(NonFiniteWitnessValue, match=r"^csi:1000 evaluated to inf, which no bound"):
        csi_ratio(integrals)
    with pytest.raises(NonFiniteWitnessValue, match="C_2000 .* N = 4000 evaluated to inf"):
        twin_fock_csi_exact(4000, 1000)
    # exp(eps^2 N / 2) = exp(1250) passes the float range as well
    with pytest.raises(NonFiniteWitnessValue, match="evaluated to inf"):
        twin_fock_csi_approx(40000, 5000)
    assert csi_ratio(integrated_g2m(twin_fock(4000), 250)) == pytest.approx(
        twin_fock_csi_exact(4000, 250), rel=1e-11
    )


def test_mixture_csi_against_exact_integer_sums():
    # twin-Fock sectors of 1000 and 2000 particles: in the common scale of
    # the larger sector the smaller one's terms pass the floor, so some
    # orders take the log-sum-exp of a two-sector mixture
    mix = NumberSectorMixture(
        ((0.25, SectorDensity.from_pure(twin_fock(1000))), (0.75, SectorDensity.from_pure(twin_fock(2000))))
    )
    weights = {1000: Fraction(1, 4), 2000: Fraction(3, 4)}

    def falling(k, order):
        return math.perm(k, order) if k >= order else 0

    logged = 0
    for m in (1, 7, 60, 160, 250, 450, 500):
        integrals = integrated_g2m(mix, m)
        logged += min(integrals.normalized[0]) < witnesses._NORMALIZED_FLOOR
        g_aa = sum(w * falling(n // 2, 2 * m) for n, w in weights.items())
        g_ab = sum(w * falling(n // 2, m) ** 2 for n, w in weights.items())
        # symmetric sectors: G_bb = G_aa, so C = G_ab / G_aa
        assert csi_ratio(integrals) == pytest.approx(float(g_ab / g_aa), rel=1e-11), m
    assert logged > 0


def test_mixture_wider_than_one_stack_is_summed_over_sector_runs():
    # 370 sectors of up to 369 particles pass STACK_AMPLITUDES, so the
    # sectors are taken in runs; coherent sectors of one (z, phi) give C = 1
    weights = NumberDistribution.poisson(250.0).weights()
    mix = NumberSectorMixture(
        tuple((w, SectorDensity.from_pure(to_fock(CoherentSpinState(0.3, 0.5, n)))) for n, w in weights)
    )
    assert len(weights) * len(weights) > witnesses.STACK_AMPLITUDES
    for m in (1, 10, 100):
        integrals = integrated_g2m(mix, m)
        assert csi_ratio(integrals) == pytest.approx(1.0, abs=1e-12), m
        if m < 100:  # the sector sums below pass the float range at m = 100
            parts = [(w, integrated_g2m(sector, m)) for w, sector in mix.sectors]
            for name in ("g_aa", "g_bb", "g_ab"):
                total = sum(w * getattr(part, name) for w, part in parts)
                assert getattr(integrals, name) == pytest.approx(total, rel=1e-13), (m, name)


def test_mixture_of_one_wide_and_many_narrow_sectors_streams_the_wide_rows_once(monkeypatch):
    # 200 narrow sectors beside one of 2 * 10^4 particles: padding every
    # sector to the wide one would hold 32 MB and stream its rows once per
    # run of narrow sectors; each run takes only its own columns instead
    numbers = list(range(1, 201)) + [20_000]
    weight = 1.0 / len(numbers)
    mix = NumberSectorMixture(
        tuple((weight, SectorDensity.from_pure(to_fock(CoherentSpinState(0.3, 0.5, n)))) for n in numbers)
    )
    streamed = []

    def counting_rows(n, ks):
        streamed.append(n)
        return ratio_rows(n, ks)

    for m in (1, 10):
        monkeypatch.setattr(witnesses, "ratio_rows", counting_rows)
        tracemalloc.start()
        integrals = integrated_g2m(mix, m)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        monkeypatch.undo()
        assert streamed == [20_000]
        assert peak < 8e6, peak
        streamed.clear()
        assert csi_ratio(integrals) == pytest.approx(1.0, abs=1e-12), m
        parts = [(w, integrated_g2m(sector, m)) for w, sector in mix.sectors]
        for name in ("g_aa", "g_bb", "g_ab"):
            total = sum(w * getattr(part, name) for w, part in parts)
            assert getattr(integrals, name) == pytest.approx(total, rel=1e-13), (m, name)


def test_csi_is_one_for_single_coherent_component():
    rng = np.random.default_rng(73)
    for _ in range(15):
        n = int(rng.integers(4, 40))
        state = to_fock(CoherentSpinState(float(rng.uniform(0.1, 0.9)), float(rng.uniform(-3, 3)), n))
        for m in range(1, min(4, n // 2) + 1):
            value = csi_ratio(integrated_g2m(state, m))
            assert value == pytest.approx(1.0, abs=1e-10)


def test_twin_fock_exact_values():
    assert twin_fock_csi_exact(4, 1) == pytest.approx(2.0)
    assert twin_fock_csi_exact(8, 2) == pytest.approx(6.0)
    assert twin_fock_csi_exact(100, 1) == pytest.approx(50.0 / 49.0, rel=1e-14)
    assert twin_fock_csi_exact(100, 4) == pytest.approx(5527200.0 / 3916440.0, rel=1e-14)
    with pytest.raises(OrderTooHigh):
        twin_fock_csi_exact(20, 6)
    with pytest.raises(ValueError):
        twin_fock_csi_exact(7, 1)
    with pytest.raises(ValueError):
        twin_fock_csi_exact(8, 0)


def test_twin_fock_exact_matches_integrated_path():
    for n in (4, 8, 20, 100):
        for m in range(1, n // 4 + 1):
            closed = twin_fock_csi_exact(n, m)
            direct = csi_ratio(integrated_g2m(twin_fock(n), m))
            assert abs(closed - direct) / closed < 1e-10


def test_twin_fock_approx():
    assert twin_fock_csi_approx(100, 1) == pytest.approx(math.exp(0.02), rel=1e-14)
    assert twin_fock_csi_approx(100, 0) == 1.0
    exact = twin_fock_csi_exact(100, 4)
    approx = twin_fock_csi_approx(100, 4)
    assert abs(exact - approx) / exact < 0.03
    assert approx == pytest.approx(math.exp(0.32), rel=1e-14)


def test_twin_fock_exact_is_monotonic():
    values_in_m = [twin_fock_csi_exact(1000, m) for m in range(1, 5)]
    assert all(b > a for a, b in zip(values_in_m, values_in_m[1:]))
    values_in_n = [twin_fock_csi_exact(n, 2) for n in (100, 250, 500, 1000)]
    assert all(b < a for a, b in zip(values_in_n, values_in_n[1:]))


def test_number_squeezing_direct_examples():
    assert number_squeezing_direct(twin_fock(20)) == 0.0
    css_half = to_fock(CoherentSpinState(0.5, 0.0, 30))
    assert number_squeezing_direct(css_half) == pytest.approx(1.0, abs=1e-10)
    css_split = to_fock(CoherentSpinState(0.3, 0.0, 50))
    assert number_squeezing_direct(css_split) == pytest.approx(0.84, abs=1e-10)
    with pytest.raises(EmptyState):
        number_squeezing_direct(basis_state(0, 0))


def test_number_squeezing_from_g2_identity():
    # twin-Fock closed numbers
    c = integrated_g2m(twin_fock(20), 1)
    assert number_squeezing_from_g2(c, 0.0, 20.0) == pytest.approx(0.0, abs=1e-12)
    # identity against the direct path on random states and densities
    rng = np.random.default_rng(79)
    for _ in range(30):
        n = int(rng.integers(1, 24))
        if rng.random() < 0.5:
            state = FockVector(oracles.random_pure_amplitudes(rng, n))
        else:
            state = SectorDensity(oracles.random_density_matrix(rng, n))
        direct = number_squeezing_direct(state)
        c1 = integrated_g2m(state, 1)
        na = normally_ordered_moment(state, 1, 0, 0, 1).real
        nb = normally_ordered_moment(state, 0, 1, 1, 0).real
        via_g = number_squeezing_from_g2(c1, na - nb, na + nb)
        assert via_g == pytest.approx(direct, abs=1e-10)
    with pytest.raises(ValueError):
        number_squeezing_from_g2(integrated_g2m(twin_fock(8), 2), 0.0, 8.0)


def test_number_squeezing_symmetric_shortcut():
    # C_2 = 1 leaves shot noise untouched
    assert number_squeezing_symmetric(1.0, 123.4, 50.0) == pytest.approx(1.0)
    # twin-Fock: eta^2 = 1 + 2(1 - 10/9) 90/20 = 0 exactly
    assert number_squeezing_symmetric(10.0 / 9.0, 90.0, 20.0) == pytest.approx(0.0, abs=1e-12)
    # random symmetric states: shortcut == exact variance identity
    rng = np.random.default_rng(83)
    for _ in range(20):
        n = int(rng.integers(2, 20))
        amps = oracles.random_pure_amplitudes(rng, n)
        amps = amps + amps[::-1]  # mode-swap symmetric
        amps = amps / np.linalg.norm(amps)
        state = FockVector(amps)
        c = integrated_g2m(state, 1)
        if c.g_aa * c.g_bb <= 1e-24:
            continue
        eta_direct = number_squeezing_direct(state)
        eta_short = number_squeezing_symmetric(
            csi_ratio(c), c.g_aa, 1.0 * n
        )
        assert eta_short == pytest.approx(eta_direct, abs=1e-9)


def test_squeezing_csi_sign_equivalence():
    # symmetric separable ensembles sit on the other side of both bounds
    rng = np.random.default_rng(89)
    for _ in range(10):
        n = int(rng.integers(2, 16)) * 2
        z = float(rng.uniform(0.05, 0.95))
        phi = float(rng.uniform(-3, 3))
        ens = SeparableEnsemble(
            n,
            (
                (0.5, CoherentSpinState(z, phi, n)),
                (0.5, CoherentSpinState(1.0 - z, -phi, n)),
            ),
        )
        rho = ensemble_to_state(ens)
        c = integrated_g2m(rho, 1)
        ratio = csi_ratio(c)
        eta = number_squeezing_direct(rho)
        assert (1.0 - eta) == pytest.approx(2.0 * (ratio - 1.0) * c.g_aa / n, abs=1e-9)
        assert ratio <= 1.0 + 1e-9
        assert eta >= 1.0 - 1e-9


def test_qfi_pure_states():
    # coherent split: F_Q(J_z) = 4 N z (1-z)
    state = to_fock(CoherentSpinState(0.3, 0.0, 50))
    assert qfi(state, GeneratorSpec.axis("z")) == pytest.approx(42.0, abs=1e-9)
    # twin-Fock: J_z is sharp, J_x carries N(N+2)/4 variance -> F_Q = 220 at N = 20
    assert qfi(twin_fock(20), GeneratorSpec.axis("z")) == pytest.approx(0.0, abs=1e-10)
    assert qfi(twin_fock(20), GeneratorSpec.axis("x")) == pytest.approx(220.0, abs=1e-9)


@pytest.mark.parametrize("z,phi", [(0.3, 0.7), (0.05, -2.0)])
def test_qfi_of_a_coherent_state_at_the_largest_n(z, phi):
    # a pure state is the one-row sector at every N it accepts, up to
    # MAX_PARTICLES: F_Q = 4 Var(J_n) = n^T N (I - b b^T) n, b the Bloch
    # vector, to the rounding of N^2 terms (about 8 eps N^2 here)
    n = MAX_PARTICLES
    radial = 2.0 * math.sqrt(z * (1.0 - z))
    bloch = np.array([radial * math.cos(phi), -radial * math.sin(phi), 2.0 * z - 1.0])
    exact = n * (1.0 - bloch**2)
    values = qfi(to_fock(CoherentSpinState(z, phi, n)), np.eye(3))
    np.testing.assert_allclose(values, exact, rtol=0, atol=16 * EPS * n * n)


@pytest.mark.parametrize("k", [1, 300_000])
def test_qfi_of_a_number_state_at_the_largest_n(k):
    # |k, N - k> is the Dicke state |j, m>, j = N/2 and m = k - N/2: F_Q =
    # 4 Var(J_x) = 2 (j (j + 1) - m^2) along x and y, and 0 along z
    n = MAX_PARTICLES
    j, m = n / 2, k - n / 2
    exact = np.array([2.0 * (j * (j + 1.0) - m * m)] * 2 + [0.0])
    values = qfi(basis_state(n, k), np.eye(3))
    np.testing.assert_allclose(values, exact, rtol=0, atol=2 * EPS * exact.max())


def test_qfi_rank_one_density_equals_pure():
    rng = np.random.default_rng(97)
    for _ in range(15):
        n = int(rng.integers(1, 18))
        state = FockVector(oracles.random_pure_amplitudes(rng, n))
        g = GeneratorSpec.from_vector(rng.normal(size=3))
        pure = qfi(state, g)
        dens = qfi(SectorDensity.from_pure(state), g)
        assert dens == pytest.approx(pure, abs=1e-9, rel=1e-9)


def test_qfi_convexity():
    rng = np.random.default_rng(101)
    for _ in range(25):
        n = int(rng.integers(2, 14))
        rho1 = SectorDensity(oracles.random_density_matrix(rng, n))
        rho2 = SectorDensity(oracles.random_density_matrix(rng, n))
        g = GeneratorSpec.from_vector(rng.normal(size=3))
        lam = float(rng.uniform(0.1, 0.9))
        blended = SectorDensity(lam * rho1.matrix + (1 - lam) * rho2.matrix)
        left = qfi(blended, g)
        right = lam * qfi(rho1, g) + (1 - lam) * qfi(rho2, g)
        assert left <= right + 1e-8


def test_qfi_rotation_covariance():
    rng = np.random.default_rng(103)
    for _ in range(20):
        n = int(rng.integers(2, 16))
        state = FockVector(oracles.random_pure_amplitudes(rng, n))
        g = GeneratorSpec.from_vector(rng.normal(size=3))
        rotated = oracles.rotate(state, oracles.aligning_rotation_axis(g))
        assert qfi(state, g) == pytest.approx(
            qfi(rotated, GeneratorSpec.axis("z")), abs=1e-8
        )


def test_qfi_mixture_is_sector_weighted():
    rng = np.random.default_rng(107)
    rho3 = SectorDensity(oracles.random_density_matrix(rng, 3))
    rho6 = SectorDensity(oracles.random_density_matrix(rng, 6))
    mix = NumberSectorMixture(((0.4, rho3), (0.6, rho6)))
    g = GeneratorSpec.axis("y")
    assert qfi(mix, g) == pytest.approx(0.4 * qfi(rho3, g) + 0.6 * qfi(rho6, g), abs=1e-10)


def _stack_case(kind):
    rng = np.random.default_rng(109)
    if kind == "pure":
        state = FockVector(oracles.random_pure_amplitudes(rng, 9))
        return state, [(1.0, np.outer(state.amplitudes, state.amplitudes.conj()))]
    rho3 = SectorDensity(oracles.random_density_matrix(rng, 3))
    rho8 = SectorDensity(oracles.random_density_matrix(rng, 8))
    if kind == "density":
        return rho8, [(1.0, rho8.matrix)]
    return NumberSectorMixture(((0.4, rho3), (0.6, rho8))), [(0.4, rho3.matrix), (0.6, rho8.matrix)]


@pytest.mark.parametrize("kind", ["pure", "density", "mixture"])
def test_qfi_direction_stack_matches_single_directions(kind):
    state, weighted_matrices = _stack_case(kind)
    rng = np.random.default_rng(113)
    random_directions = rng.normal(size=(6, 3))
    random_directions /= np.linalg.norm(random_directions, axis=1)[:, None]
    stack = np.vstack([np.eye(3), random_directions, [[0.6, 0.8, 0.0]]])
    values = qfi(state, stack)
    assert values.shape == (len(stack),)
    for axis, value in zip("xyz", values[:3]):
        assert value == qfi(state, GeneratorSpec.axis(axis))
    for direction, value in zip(stack[3:], values[3:]):
        assert value == pytest.approx(qfi(state, GeneratorSpec(direction)), rel=1e-12)
        oracle = sum(w * oracles.qfi_dense(m, direction)[0] for w, m in weighted_matrices)
        assert value == pytest.approx(oracle, rel=1e-10)


def test_qfi_rejects_malformed_direction_stacks():
    rho = SectorDensity.from_pure(twin_fock(4))
    for bad in (np.ones(3), np.ones((2, 2)), [[1.0, 1.0, 0.0]], [[np.nan, 0.0, 0.0]]):
        with pytest.raises(ValueError, match="unit"):
            qfi(rho, bad)


def test_spin_squeezing_examples():
    css = to_fock(CoherentSpinState(0.5, 0.0, 50))
    assert spin_squeezing(css) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ZeroMeanSpinDirection):
        spin_squeezing(twin_fock(20))
    # ensembles never dip below unity
    for seed in range(10):
        ens = sample_ensemble(seed, 24, 3)
        assert spin_squeezing(ens) >= 1.0 - 1e-9


def test_spin_squeezing_ensemble_matches_density():
    rng = np.random.default_rng(109)
    for _ in range(10):
        ens = sample_ensemble(int(rng.integers(1 << 31)), 18, 3)
        try:
            analytic = spin_squeezing(ens)
        except ZeroMeanSpinDirection:
            continue
        exact = spin_squeezing(ensemble_to_state(ens))
        assert analytic == pytest.approx(exact, rel=1e-9, abs=1e-9)


def test_classify_twin_fock_flags():
    state = twin_fock(20)
    report = classify(
        n_reference=20.0,
        csi_by_order={2: csi_ratio(integrated_g2m(state, 1))},
        qfi_by_generator={(1.0, 0.0, 0.0): qfi(state, GeneratorSpec.axis("x"))},
        eta2=number_squeezing_direct(state),
    )
    assert report.entangled_by_csi
    assert report.entangled_by_qfi
    assert not report.entangled_by_spin_squeezing
    assert report.any_entangled


def test_classify_coherent_state_is_clean():
    state = to_fock(CoherentSpinState(0.5, 0.0, 50))
    report = classify(
        n_reference=50.0,
        csi_by_order={2: csi_ratio(integrated_g2m(state, 1))},
        qfi_by_generator={(0.0, 0.0, 1.0): qfi(state, GeneratorSpec.axis("z"))},
        eta2=number_squeezing_direct(state),
        xi2=spin_squeezing(state),
    )
    assert not report.any_entangled


def test_classify_split_ensemble_is_clean():
    state = to_fock(CoherentSpinState(0.3, 0.0, 50))
    report = classify(
        n_reference=50.0,
        csi_by_order={2: csi_ratio(integrated_g2m(state, 1))},
        eta2=number_squeezing_direct(state),
        xi2=spin_squeezing(state),
        qfi_by_generator={(0.0, 0.0, 1.0): qfi(state, GeneratorSpec.axis("z"))},
    )
    assert report.eta2 == pytest.approx(0.84, abs=1e-10)
    assert not report.any_entangled


@pytest.mark.parametrize(
    "kind,below,above",
    [("csi", False, True), ("qfi", False, True), ("xi2", True, False)],
)
def test_witness_verdict_flags_only_beyond_the_tolerance(kind, below, above):
    # the margin is 1e-9 x max(1, |bound|): 12e-9 for F_Q at N = 12
    bound = 12.0 if kind == "qfi" else 1.0
    margin = 1e-9 * bound
    for within in (bound - 0.5 * margin, bound, bound + 0.5 * margin):
        assert witness_verdict(kind, within, 12.0) == (bound, False)
    assert witness_verdict(kind, bound - 2 * margin, 12.0) == (bound, below)
    assert witness_verdict(kind, bound + 2 * margin, 12.0) == (bound, above)
    if kind == "qfi":
        # below N = 1 the margin stays 1e-9
        assert witness_verdict(kind, 0.5 + 0.5e-9, 0.5) == (0.5, False)
        assert witness_verdict(kind, 0.5 + 2e-9, 0.5) == (0.5, True)


@pytest.mark.parametrize("n", [10**4, 10**5, 10**6])
def test_coherent_qfi_perpendicular_to_the_bloch_vector_is_never_flagged(n):
    # F_Q = N along any direction normal to the mean spin; its rounding
    # grows with N (|F_Q - N| up to ~2e-4 at N = 10^6), past an absolute 1e-9
    state = to_fock(CoherentSpinState(0.2, 0.7, n))
    mean = np.array([angular_moments(state, GeneratorSpec.axis(a))[0] for a in "xyz"])
    first = np.cross(mean, [0.0, 0.0, 1.0])
    first /= np.linalg.norm(first)
    second = np.cross(mean, first)
    second /= np.linalg.norm(second)
    values = qfi(state, np.array([first, second]))
    assert np.allclose(values, n, rtol=1e-8, atol=0.0)
    for value in values:
        assert witness_verdict("qfi", float(value), n) == (float(n), False)
    assert not classify(n_reference=n, qfi_by_generator={(1, 0, 0): values[0], (0, 1, 0): values[1]}).entangled_by_qfi
    # a twin-Fock state still flags: F_Q along x is N (N + 2) / 2
    assert witness_verdict("qfi", qfi(twin_fock(40), GeneratorSpec.axis("x")), 40) == (40.0, True)


def test_a_scan_judges_coherent_qfi_at_the_margin_of_witness_reports(monkeypatch):
    # 40 one-component samples at N = 10^6, each with the direction normal to
    # its mean spin among the scan's directions, so its worst F_Q is N up to
    # rounding (+4.9e-5 at most here): within 1e-9 x N, the margin of witness
    # reports. An absolute margin of 1e-6 would flag 18 of the 40.
    n, rng = 10**6, np.random.default_rng(3)
    z, phi = rng.random(40), rng.uniform(-np.pi, np.pi, 40)
    draws = np.array([np.ones(40), z, phi])[:, :, None, None]
    radius = np.sqrt(z * (1.0 - z))  # mean spin per particle: (r cos phi, -r sin phi, z - 1/2)
    normals = np.cross(np.column_stack([radius * np.cos(phi), -radius * np.sin(phi), z - 0.5]), [0.0, 0.0, 1.0])
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    drawn = []

    def draw_chunk(seeds, sectors, n_components, words=None):
        drawn.extend(seeds)
        return draws[:, len(drawn) - len(seeds) : len(drawn)].copy()

    monkeypatch.setattr(scan, "_draw_chunk", draw_chunk)
    monkeypatch.setattr(scan, "_draw_directions", lambda rng, count: normals[:count])
    report = scan.run_scan(40, 0, n_total=n, n_components=1, n_directions=40, csi_orders=[1])
    assert len(drawn) == 40
    (bound,) = [b for b in report["bounds"] if b["name"] == "qfi"]
    assert (bound["violations"], bound["evaluations"], bound["tolerance"]) == (0, 40, 1e-9 * n)
    assert 1e-6 < bound["worst_value"] - n <= 1e-9 * n
    assert report["total_violations"] == 0


# a scan shape whose F_Q bound is each reference number of the cases below
_SCAN_SHAPES = {
    1.0: dict(distribution=NumberDistribution.deterministic(1)),
    0.5: dict(distribution=NumberDistribution.binomial(1, 0.5)),
    12.0: dict(n_total=12),
    40.0: dict(n_total=40),
    1e6: dict(n_total=10**6, n_components=1, csi_orders=[1]),
    19.999999999982865: dict(distribution=NumberDistribution.poisson(20.0)),
}
_SCAN_COLUMNS = {"csi": "csi_order_1", "qfi": "qfi", "xi2": "spin_squeezing"}


def _scan_spec(kind, n):
    """The spec of `kind`'s column in the bound table run_scan builds for a
    one-sample scan whose F_Q bound is n."""
    built = []

    class Recording(scan._BoundTable):
        def __init__(self, specs):
            built.append(specs)
            super().__init__(specs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scan, "_BoundTable", Recording)
        scan.run_scan(1, 0, **_SCAN_SHAPES[n])
    (spec,) = [spec for spec in built[0] if spec[0] == _SCAN_COLUMNS[kind]]
    return spec


@pytest.mark.parametrize("kind, n", [("csi", 12.0), ("xi2", 12.0), ("qfi", 12.0), ("qfi", 0.5), ("qfi", -0.0),
                                     ("qfi", 1.0), ("qfi", 40.0), ("qfi", 1e6), ("qfi", 19.999999999982865),
                                     ("csi", 1e6), ("xi2", 19.999999999982865), ("eta2", 1e6)])
def test_array_verdicts_follow_the_scalar_rule(kind, n):
    # exactly at the bound, at bound +- WITNESS_TOLERANCE max(1, |bound|)
    # and one float past each, at -0.0, at N = 1, 40 and 10^6 and at the
    # mean of poisson:20; each value also recorded alone by the column of a
    # scan's bound table, which counts a violation exactly where the
    # verdict flags (no scan has the F_Q bound -0.0)
    bound = n if kind == "qfi" else 1.0
    margin = WITNESS_TOLERANCE * max(1.0, abs(bound))
    values = [bound, bound + margin, bound - margin, -0.0, 0.0]
    values += [np.nextafter(bound + margin, np.inf), np.nextafter(bound - margin, -np.inf)]
    values = np.array(values)
    bounds, flags = witness_verdict(kind, values, np.full(values.shape, n))
    if kind == "eta2":
        assert (bounds, flags) == (None, None)
        return
    assert flags.dtype == bool
    for value, array_bound, flag in zip(values.tolist(), np.broadcast_to(bounds, values.shape).tolist(), flags.tolist()):
        assert (array_bound, flag) == witness_verdict(kind, value, n), value
    # and the margin scales with max(1, |bound|): a quarter of it inside
    # flags nothing, a quarter of it outside flags
    sign = -1.0 if kind == "xi2" else 1.0
    near = np.array([bound + sign * 0.75 * margin, bound + sign * 1.25 * margin])
    assert witness_verdict(kind, near, np.full(2, n))[1].tolist() == [False, True]
    if n not in _SCAN_SHAPES:
        return
    spec = _scan_spec(kind, n)
    for value in [*values.tolist(), *near.tolist(), math.nan, math.inf, -math.inf]:
        table = scan._BoundTable([spec])
        table.record(np.array([[value]]), np.zeros((1, 1), dtype=bool), lambda index, column: {})
        # a NaN or an infinity, which no verdict judges, is a violation
        flag = not math.isfinite(value) or witness_verdict(kind, value, n)[1]
        assert table.counts[:, 0].tolist() == [1, 0, int(flag)], value


@pytest.mark.parametrize("kind", ["csi", "qfi", "xi2", "eta2"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_array_verdicts_refuse_the_first_non_finite_value_as_alone(kind, bad):
    values = np.array([0.5, bad, np.nan if bad != bad else 1.5, -bad])
    with pytest.raises(NonFiniteWitnessValue) as alone:
        witness_verdict(kind, bad, 12.0)
    with pytest.raises(NonFiniteWitnessValue, match=re.escape(str(alone.value))):
        witness_verdict(kind, values, np.full(values.shape, 12.0))


def test_one_verdict_pass_judges_each_entry_as_its_scalar_rule_alone():
    # witnesses._columns judges every key of every reading in one pass; each
    # entry must carry the value, bound and flag of witness_verdict on its
    # value alone, or the error and message of its scalar rule (_csi_value,
    # _judgeable, _eta2, _xi2) or of its failed kernel, and each reading the
    # verdicts of classify over the entries that hold
    from bosewit.cli import _entries
    from bosewit.errors import WitnessError
    from bosewit.witnesses import _columns, _csi_value, _eta2, _Failure, _judgeable, _xi2

    n_refs = [0.0, 1.0, 12.0, 40.0, 19.999999999982865, 1e6, 12.0, 40.0]
    up = lambda value: float(np.nextafter(value, np.inf))
    margin = lambda n: WITNESS_TOLERANCE * max(1.0, n)
    # (ratio, degenerate, log G_aa G_bb) of csi:1 and csi:3 per reading
    csi = [
        [(math.nan, 1.0, -math.inf), (0.0, 1.0, -800.0)],  # both degenerate
        [(math.nan, 0.0, 1.0), (1.0 + margin(1.0), 0.0, 1.0)],
        [(math.inf, 0.0, 1.0), (up(1.0 + margin(1.0)), 0.0, 1.0)],
        [(-math.inf, 0.0, 1.0), (0.99, 0.0, 1.0)],
        [(1.0, 0.0, 2.0), (-0.0, 0.0, 2.0)],
        [(1.0 + 2 * margin(1.0), 0.0, 3.0), (1.0 - margin(1.0), 0.0, 3.0)],
        [(0.5, 0.0, 1.0), (1.5, 0.0, 1.0)],
        [(1.5, 1.0, -700.0), (0.5, 1.0, -710.0)],  # degenerate, though a value
    ]
    qfi = [  # along x and z; at most one NaN or infinity per reading
        [0.0, 0.0],
        [math.inf, 0.5],
        [12.0 + margin(12.0), up(12.0 + margin(12.0))],
        [-math.inf, 40.5],
        [19.999999999982865 + 2 * margin(20.0), 19.0],
        [1e6 + margin(1e6), 1e6 + 2 * margin(1e6)],
        [math.nan, math.nan],  # its kernel failed
        [math.nan, math.nan],
    ]
    spin = [  # <J_x>, <J_y>, Var J_z
        [0.0, 0.0, 0.0],  # no particle, no mean spin
        [0.3, 0.1, 0.2],
        [1.0, 2.0, math.nan],
        [1e-10, 0.0, 4.0],  # a mean spin below the guard
        [3.0, 4.0, 0.5],  # xi^2 = 0.4
        [1e5, 0.0, math.inf],
        [2.0, 0.0, 3.0],
        [0.0, 0.0, math.nan],
    ]
    values = {
        "csi": np.array(csi).transpose(0, 2, 1),
        "qfi": np.array(qfi),
        "spin": np.array(spin),
    }
    failed = {"csi": {}, "qfi": {6: _Failure(EmptyState, "no particles"), 7: _Failure(EmptyState, "none")}, "spin": {}}
    requests = [("csi:1", "csi", 1), ("qfi:x", "qfi", None), ("eta2", "eta2", None), ("csi:3", "csi", 3),
                ("xi2", "xi2", None), ("qfi:z", "qfi", None)]

    def alone(key, kind, s):
        n = n_refs[s]
        failure = failed.get("spin" if kind in ("eta2", "xi2") else kind, {}).get(s)
        if failure is not None:
            return {"error": failure.error.__name__, "message": failure.message}
        try:
            if kind == "csi":
                i = [1, 3].index(int(key[4:]))
                value = _csi_value(int(key[4:]), *csi[s][i])
            elif kind == "qfi":
                value = _judgeable(qfi[s]["xz".index(key[4:])], "qfi")
            elif kind == "eta2":
                value = _eta2(n, spin[s][2])
            else:
                value = _xi2(n, *spin[s])
            bound, flag = witness_verdict(kind, value, n)
        except WitnessError as exc:
            return {"error": type(exc).__name__, "message": str(exc)}
        return {"value": value, "bound": bound, "flag": flag}

    readings = _entries(_columns(requests, n_refs, values, failed))
    assert len(readings) == len(n_refs)
    kinds_flagged = set()
    for s, (entries, verdicts, had_error) in enumerate(readings):
        expected = {key: alone(key, kind, s) for key, kind, _ in requests}
        assert entries == expected, s
        assert had_error == any("error" in entry for entry in expected.values())
        holding = {key: entry for key, entry in expected.items() if "value" in entry}
        if not holding:
            assert verdicts is None, s
            continue
        flagged = {kind for key, kind, _ in requests if holding.get(key, {}).get("flag")}
        kinds_flagged |= flagged
        assert verdicts == {
            "entangled_by_csi": "csi" in flagged,
            "entangled_by_qfi": "qfi" in flagged,
            "entangled_by_spin_squeezing": "xi2" in flagged,
            "any_entangled": bool(flagged),
        }, s
    # every kind of error and every side of a bound came up
    errors = {entry["error"] for entries, _, _ in readings for entry in entries.values() if "error" in entry}
    assert errors == {"DegenerateLocalCorrelation", "NonFiniteWitnessValue", "EmptyState", "ZeroMeanSpinDirection"}
    assert kinds_flagged == {"csi", "qfi", "xi2"}
    assert readings[7][1] is None


def test_a_flag_of_eta2_sets_no_verdict(monkeypatch):
    # the verdicts of a reading come from its C_2m, F_Q and xi^2 flags
    # alone: an eta^2 judged against a bound sets none of them
    from bosewit import witnesses
    from bosewit.cli import _entries

    monkeypatch.setitem(witnesses._BOUND_SIDES, "eta2", "lower")
    columns = witnesses._columns([("eta2", "eta2", None)], [12.0], {"spin": np.array([[3.0, 4.0, 0.5]])}, {"spin": {}})
    assert columns[3] == [[True]]  # eta^2 = 1/6, past its bound
    (entries, verdicts, had_error), = _entries(columns)
    assert entries["eta2"]["flag"] is True and not had_error
    assert not any(verdicts.values())


def test_witness_verdict_never_flags_eta2():
    assert witness_verdict("eta2", 0.1, 12.0) == (None, None)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kind", ["csi", "qfi", "xi2", "eta2"])
def test_a_non_finite_value_is_judged_by_no_bound(kind, bad):
    with pytest.raises(NonFiniteWitnessValue, match=f"^{kind} evaluated to {bad!r}"):
        witness_verdict(kind, bad, 12.0)
    # classify judges every value, also after one that already flags
    values = {
        "csi": {"csi_by_order": {1: 2.0, 2: bad}},
        "qfi": {"qfi_by_generator": {(1.0, 0.0, 0.0): 20.0, (0.0, 0.0, 1.0): bad}},
        "xi2": {"xi2": bad, "csi_by_order": {1: 2.0}},
        "eta2": {"eta2": bad, "csi_by_order": {1: 2.0}},
    }[kind]
    with pytest.raises(NonFiniteWitnessValue):
        classify(n_reference=12.0, **values)


def test_classify_requires_a_witness():
    with pytest.raises(ValueError):
        classify(n_reference=10.0)


def _integral_bits(integrals):
    return repr(
        (
            integrals.order_m,
            integrals.g_aa,
            integrals.g_bb,
            integrals.g_ab,
            integrals.prefactor_alpha,
            integrals.normalized,
        )
    )


# one memoized sector, one streamed sector, a mixture of several runs, and
# a sector whose R_m rows pass STACK_AMPLITUDES on their own
_ORDER_PASS_STATES = {
    "coherent-50": lambda: to_fock(CoherentSpinState(0.5, 0.3, 50)),
    "coherent-300": lambda: to_fock(CoherentSpinState(0.3, 0.7, 300)),
    "twin-fock-400": lambda: twin_fock(400),
    "poisson-250": lambda: NumberSectorMixture(
        tuple(
            (w, SectorDensity.from_pure(to_fock(CoherentSpinState(0.3, 0.5, n))))
            for n, w in NumberDistribution.poisson(250.0).weights()
        )
    ),
    "coherent-70000": lambda: to_fock(CoherentSpinState(0.4, 0.0, 70000)),
}


@pytest.mark.parametrize("name", sorted(_ORDER_PASS_STATES))
def test_all_orders_in_one_pass_equal_one_call_per_order(name):
    state = _ORDER_PASS_STATES[name]()
    n = max(sector.n_total for _, sector in witnesses._sectors(state))
    orders = [3, 1, 2, 7, 1, n // 2, n // 2 + 1, 10**9] if n < 1000 else [3, 1, 2]
    together = witnesses.integrated_g2m_orders(state, orders)
    assert [_integral_bits(i) for i in together] == [
        _integral_bits(integrated_g2m(state, m)) for m in orders
    ]


def test_no_orders_give_no_integrals():
    assert witnesses.integrated_g2m_orders(to_fock(CoherentSpinState(0.3, 0.0, 20)), []) == []
