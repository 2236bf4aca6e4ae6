import math
import warnings

import numpy as np
import pytest

from bosewit.errors import (
    DimensionMismatch,
    IncompletePovm,
    NegativeElement,
    NonHermitianInput,
    OrderTooHigh,
    UnknownLabel,
)
from bosewit.fock import FockVector, SectorDensity, basis_state, twin_fock
from bosewit.povm import (
    OutcomeRegion,
    PovmElement,
    PovmSet,
    SingleParticleState,
    integrated_gm_separable,
    random_complete_povm,
    region_response,
    second_quantized_g2,
    validate_povm,
)
from bosewit.separable import CoherentSpinState, SeparableEnsemble, ensemble_to_state
from bosewit.witnesses import csi_ratio, integrated_g2m

from oracles import random_pure_amplitudes


def projective_two_mode():
    ea = np.diag([1.0, 0.0])
    eb = np.diag([0.0, 1.0])
    return PovmSet(2, (PovmElement("a", ea), PovmElement("b", eb)))


def test_validate_accepts_projective_pair():
    report = validate_povm(projective_two_mode())
    assert report.completeness_deviation <= 1e-12
    assert report.min_eigenvalue >= -1e-12


def test_validate_accepts_scaled_identity_triple():
    povm = PovmSet(
        3,
        (
            PovmElement("p", 0.6 * np.eye(3)),
            PovmElement("q", 0.4 * np.eye(3)),
        ),
    )
    validate_povm(povm)


def test_validate_rejects_incomplete_set():
    lone = PovmSet(2, (PovmElement("a", np.diag([1.0, 0.0])),))
    with pytest.raises(IncompletePovm, match="1.000e"):
        validate_povm(lone)


def test_validate_rejects_negative_element():
    bad = PovmSet(
        2,
        (
            PovmElement("up", np.diag([1.5, 0.0])),
            PovmElement("down", np.diag([-0.5, 1.0])),
        ),
    )
    with pytest.raises(NegativeElement, match="down"):
        validate_povm(bad)


def test_element_rejects_non_hermitian_matrix():
    with pytest.raises(ValueError, match="hermiticity"):
        PovmElement("x", np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_non_finite_povm_inputs_are_refused():
    # a NaN element used to pass validate_povm with a NaN deviation, and a
    # NaN or infinite state made region_response NaN
    with pytest.raises(ValueError, match="element 'a' entries must be finite"):
        validate_povm(
            PovmSet(2, (PovmElement("a", [[math.nan, 0.0], [0.0, 0.5]]),
                        PovmElement("b", np.diag([1.0, 0.5]))))
        )
    with pytest.raises(ValueError, match="state vector must be finite"):
        SingleParticleState([math.nan, 1.0])
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="must be finite"):
        SingleParticleState.two_mode(0.5, math.inf)


@pytest.mark.parametrize("phi", [math.inf, -math.inf, math.nan])
def test_two_mode_refuses_a_non_finite_phase_before_any_warning(phi):
    # np.exp(1j * inf) used to warn "invalid value encountered in exp"
    # ahead of the ValueError, so under -W error the warning escaped
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"relative phase phi={phi!r} must be finite"):
            SingleParticleState.two_mode(0.5, phi)


def test_non_hermitian_element_is_a_value_error():
    with pytest.raises(NonHermitianInput, match=r"element 'x' deviates .* \(tolerance 1e-10\)"):
        PovmElement("x", np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert issubclass(NonHermitianInput, ValueError)
    # within the tolerance the element is kept as (E + E^dag)/2
    element = PovmElement("x", np.array([[1.0, 4e-11], [0.0, 0.0]]))
    assert element.matrix[0, 1] == element.matrix[1, 0] == 2e-11


def test_region_response_edges():
    povm = projective_two_mode()
    state = SingleParticleState.two_mode(0.3, 0.7)
    full = OutcomeRegion.of("a", "b")
    empty = OutcomeRegion(frozenset())
    assert region_response(povm, full, state) == pytest.approx(1.0, abs=1e-12)
    assert region_response(povm, empty, state) == 0.0
    assert region_response(povm, OutcomeRegion.of("a"), state) == pytest.approx(
        0.3, abs=1e-12
    )


def test_region_response_unknown_label():
    with pytest.raises(UnknownLabel, match="ghost"):
        region_response(
            projective_two_mode(),
            OutcomeRegion.of("ghost"),
            SingleParticleState.two_mode(0.5, 0.0),
        )


def test_single_component_integrals_balanced():
    state = SingleParticleState.two_mode(0.5, 0.0)
    integrals = integrated_gm_separable(
        projective_two_mode(),
        [(1.0, state)],
        n_total=4,
        m=1,
        region_a=OutcomeRegion.of("a"),
        region_b=OutcomeRegion.of("b"),
    )
    assert integrals.prefactor_alpha == pytest.approx(12.0)
    assert integrals.g_aa == pytest.approx(3.0, abs=1e-12)
    assert integrals.g_bb == pytest.approx(3.0, abs=1e-12)
    assert integrals.g_ab == pytest.approx(3.0, abs=1e-12)
    assert csi_ratio(integrals) == pytest.approx(1.0, abs=1e-12)


def test_single_component_saturates_any_measurement():
    rng = np.random.default_rng(7)
    for trial in range(6):
        povm = random_complete_povm(rng, 2, 3)
        validate_povm(povm)
        labels = povm.labels()
        region_a = OutcomeRegion.of(labels[0])
        region_b = OutcomeRegion.of(*labels[1:])
        state = SingleParticleState.two_mode(rng.uniform(0.05, 0.95), rng.uniform(-3, 3))
        for m in (1, 2):
            integrals = integrated_gm_separable(
                povm, [(1.0, state)], 12, m, region_a, region_b
            )
            assert csi_ratio(integrals) == pytest.approx(1.0, abs=1e-12)


def test_two_component_mixture_drops_below_bound():
    povm = projective_two_mode()
    components = [
        (0.5, SingleParticleState.two_mode(0.1, 0.0)),
        (0.5, SingleParticleState.two_mode(0.9, 0.0)),
    ]
    integrals = integrated_gm_separable(
        povm, components, 10, 1, OutcomeRegion.of("a"), OutcomeRegion.of("b")
    )
    ratio = csi_ratio(integrals)
    assert ratio == pytest.approx(0.09 / 0.41, rel=1e-12)
    assert ratio < 1.0


def test_separable_integrals_match_fock_route():
    rng = np.random.default_rng(21)
    povm = projective_two_mode()
    region_a = OutcomeRegion.of("a")
    region_b = OutcomeRegion.of("b")
    for trial in range(8):
        n = int(rng.integers(6, 16))
        k = int(rng.integers(1, 4))
        zs = rng.uniform(0.05, 0.95, size=k)
        phis = rng.uniform(-np.pi, np.pi, size=k)
        weights = rng.dirichlet(np.ones(k))
        ensemble = SeparableEnsemble(
            n,
            tuple(
                (float(w), CoherentSpinState(float(z), float(p), n))
                for w, z, p in zip(weights, zs, phis)
            ),
        )
        density = ensemble_to_state(ensemble)
        pairs = [
            (float(w), SingleParticleState.two_mode(float(z), float(p)))
            for w, z, p in zip(weights, zs, phis)
        ]
        for m in range(1, n // 2 + 1):
            via_povm = integrated_gm_separable(povm, pairs, n, m, region_a, region_b)
            via_fock = integrated_g2m(density, m)
            assert via_povm.g_aa == pytest.approx(via_fock.g_aa, rel=1e-10, abs=1e-10)
            assert via_povm.g_bb == pytest.approx(via_fock.g_bb, rel=1e-10, abs=1e-10)
            assert via_povm.g_ab == pytest.approx(via_fock.g_ab, rel=1e-10, abs=1e-10)


def test_high_order_ratio_past_the_float_range():
    # alpha_2m and every G pass the float range at N = 400, m = 100; the
    # ratio is held to sum w Fa^m Fb^m / sqrt(sum w Fa^2m sum w Fb^2m)
    povm = random_complete_povm(np.random.default_rng(1), 4, 4)
    region_a, region_b = OutcomeRegion.of("e0", "e1"), OutcomeRegion.of("e2", "e3")
    rng = np.random.default_rng(2)
    states = []
    for _ in range(2):
        vector = rng.normal(size=4) + 1j * rng.normal(size=4)
        states.append(SingleParticleState(vector / np.linalg.norm(vector)))
    ensemble = [(0.5, state) for state in states]
    fa = np.array([region_response(povm, region_a, state) for state in states])
    fb = np.array([region_response(povm, region_b, state) for state in states])
    ratios = {}
    for n, m in [(200, 50), (400, 100)]:
        integrals = integrated_gm_separable(povm, ensemble, n, m, region_a, region_b)
        expected = np.mean(fa**m * fb**m) / math.sqrt(np.mean(fa ** (2 * m)) * np.mean(fb ** (2 * m)))
        ratios[n] = csi_ratio(integrals)
        assert 0.0 <= ratios[n] <= 1.0
        assert ratios[n] == pytest.approx(expected, rel=1e-12)
    assert math.isinf(integrals.g_aa) and math.isinf(integrals.prefactor_alpha)
    assert ratios[200] == pytest.approx(1.1566087112997927e-4, rel=1e-12)


def test_separable_integrals_rejects_high_order():
    state = SingleParticleState.two_mode(0.5, 0.0)
    with pytest.raises(OrderTooHigh):
        integrated_gm_separable(
            projective_two_mode(),
            [(1.0, state)],
            4,
            3,
            OutcomeRegion.of("a"),
            OutcomeRegion.of("b"),
        )


def test_separable_integrals_warns_on_overlap():
    state = SingleParticleState.two_mode(0.5, 0.0)
    with pytest.warns(RuntimeWarning, match="overlap"):
        integrated_gm_separable(
            projective_two_mode(),
            [(1.0, state)],
            4,
            1,
            OutcomeRegion.of("a"),
            OutcomeRegion.of("a", "b"),
        )


def test_coincidence_matches_cross_moment_on_twin_fock():
    state = twin_fock(4)
    povm = projective_two_mode()
    assert second_quantized_g2(state, povm, "a", "b") == pytest.approx(4.0, abs=1e-12)
    assert second_quantized_g2(state, povm, "a", "a") == pytest.approx(2.0, abs=1e-12)


def test_coincidence_sum_rule_counts_pairs():
    rng = np.random.default_rng(5)
    state = twin_fock(6)
    for trial in range(4):
        povm = random_complete_povm(rng, 2, int(rng.integers(2, 5)))
        total = sum(
            second_quantized_g2(state, povm, l1, l2)
            for l1 in povm.labels()
            for l2 in povm.labels()
        )
        assert total == pytest.approx(30.0, rel=1e-10)


def test_coincidence_uniform_split():
    povm = PovmSet(
        2,
        (PovmElement("l", np.eye(2) / 2), PovmElement("r", np.eye(2) / 2)),
    )
    for n in (2, 5, 9):
        state = FockVector(random_pure_amplitudes(np.random.default_rng(n), n))
        expected = n * (n - 1) / 4
        for pair in (("l", "l"), ("l", "r"), ("r", "r")):
            assert second_quantized_g2(state, povm, *pair) == pytest.approx(
                expected, rel=1e-10
            )


def test_coincidence_projective_matches_integrated_correlators():
    rng = np.random.default_rng(33)
    povm = projective_two_mode()
    for trial in range(10):
        n = int(rng.integers(2, 12))
        state = FockVector(random_pure_amplitudes(rng, n))
        integrals = integrated_g2m(state, 1)
        assert second_quantized_g2(state, povm, "a", "a") == pytest.approx(
            integrals.g_aa, rel=1e-9, abs=1e-9
        )
        assert second_quantized_g2(state, povm, "b", "b") == pytest.approx(
            integrals.g_bb, rel=1e-9, abs=1e-9
        )
        assert second_quantized_g2(state, povm, "a", "b") == pytest.approx(
            integrals.g_ab, rel=1e-9, abs=1e-9
        )


def test_coincidence_supports_densities():
    rng = np.random.default_rng(12)
    amps = random_pure_amplitudes(rng, 6)
    pure = FockVector(amps)
    dens = SectorDensity.from_pure(pure)
    povm = projective_two_mode()
    for pair in (("a", "a"), ("a", "b"), ("b", "b")):
        assert second_quantized_g2(dens, povm, *pair) == pytest.approx(
            second_quantized_g2(pure, povm, *pair), abs=1e-11
        )


def test_coincidence_rejects_other_dimensions():
    povm = PovmSet(
        3,
        (
            PovmElement("p", 0.5 * np.eye(3)),
            PovmElement("q", 0.5 * np.eye(3)),
        ),
    )
    with pytest.raises(DimensionMismatch):
        second_quantized_g2(basis_state(2, 1), povm, "p", "q")


def test_twin_fock_ratio_from_coincidences():
    state = twin_fock(20)
    povm = projective_two_mode()
    g_aa = second_quantized_g2(state, povm, "a", "a")
    g_bb = second_quantized_g2(state, povm, "b", "b")
    g_ab = second_quantized_g2(state, povm, "a", "b")
    assert g_aa == pytest.approx(90.0, abs=1e-10)
    assert g_ab == pytest.approx(100.0, abs=1e-10)
    ratio = g_ab / np.sqrt(g_aa * g_bb)
    assert ratio == pytest.approx(10.0 / 9.0, rel=1e-12)


def test_random_povm_is_complete_and_positive():
    rng = np.random.default_rng(99)
    for dim, k in ((2, 2), (2, 5), (3, 4), (4, 3)):
        povm = random_complete_povm(rng, dim, k)
        report = validate_povm(povm)
        assert report.completeness_deviation <= 1e-10
        assert len(povm.labels()) == k


def test_weight_validation_in_separable_integrals():
    state = SingleParticleState.two_mode(0.4, 0.0)
    with pytest.raises(ValueError, match="sum"):
        integrated_gm_separable(
            projective_two_mode(),
            [(0.7, state)],
            6,
            1,
            OutcomeRegion.of("a"),
            OutcomeRegion.of("b"),
        )


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_separable_integrals_refuse_non_finite_weights(bad):
    # a NaN weight passes every comparison of a hand-written check and would
    # come back as NaN correlators
    state = SingleParticleState.two_mode(0.4, 0.0)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        integrated_gm_separable(
            projective_two_mode(),
            [(1.0, state), (bad, state)],
            6,
            1,
            OutcomeRegion.of("a"),
            OutcomeRegion.of("b"),
        )
