"""Coherent-spin constructors, ensembles, samplers, closed-form moments,
and the stochastic bound prober."""

import hashlib
import math

import numpy as np
import pytest

from bosewit import scan, witnesses
from bosewit.errors import SectorTooLarge
from bosewit.scan import MAX_COMPONENTS, _draw_chunk, maximize_witness
from bosewit.fock import (
    FockVector,
    GeneratorSpec,
    NumberSectorMixture,
    SectorDensity,
    angular_moments,
    normally_ordered_moment,
)
from bosewit.separable import (
    MAX_EXPANDED_SIZE,
    CoherentSpinState,
    FluctuatingEnsemble,
    NumberDistribution,
    SeparableEnsemble,
    _draw_components,
    analytic_spin_moments,
    ensemble_to_state,
    sample_ensemble,
    sample_fluctuating_ensemble,
    to_fock,
)
from bosewit.witnesses import csi_ratio, integrated_g2m, qfi, spin_squeezing

import oracles


def test_coherent_spin_state_validation():
    CoherentSpinState(0.0, 0.0, 0)
    CoherentSpinState(1.0, math.pi, 5)
    with pytest.raises(ValueError):
        CoherentSpinState(1.5, 0.0, 5)
    with pytest.raises(ValueError):
        CoherentSpinState(0.5, 4.0, 5)
    with pytest.raises(ValueError):
        CoherentSpinState(0.5, 0.0, -1)


def test_to_fock_matches_binomial_oracle():
    rng = np.random.default_rng(41)
    for _ in range(20):
        n = int(rng.integers(0, 40))
        z = float(rng.random())
        phi = float(rng.uniform(-math.pi, math.pi))
        got = to_fock(CoherentSpinState(z, phi, n)).amplitudes
        want = oracles.css_amplitudes(n, z, phi)
        assert np.max(np.abs(got - want)) < 1e-12


def test_to_fock_edges_and_examples():
    # all particles in mode a: single amplitude with phase N phi
    state = to_fock(CoherentSpinState(1.0, 0.7, 5))
    assert abs(state.amplitudes[5] - np.exp(1j * 5 * 0.7)) < 1e-15
    assert np.all(state.amplitudes[:5] == 0)
    state0 = to_fock(CoherentSpinState(0.0, 1.2, 5))
    assert state0.amplitudes[0] == 1.0
    # balanced two-particle state
    amps = to_fock(CoherentSpinState(0.5, 0.0, 2)).amplitudes
    assert np.allclose(amps, [0.5, 1.0 / math.sqrt(2), 0.5], atol=1e-12)


def test_to_fock_norm_and_mean_occupation():
    state = to_fock(CoherentSpinState(0.3, 0.4, 50))
    assert np.sum(np.abs(state.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-10)
    na = normally_ordered_moment(state, 1, 0, 0, 1).real
    assert na == pytest.approx(15.0, abs=1e-9)


def test_to_fock_large_n_stays_normalized():
    state = to_fock(CoherentSpinState(0.37, -1.1, 20000))
    assert np.sum(np.abs(state.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-10)
    na = normally_ordered_moment(state, 1, 0, 0, 1).real
    assert na == pytest.approx(0.37 * 20000, rel=1e-9)


def test_ladder_relation_for_css():
    # a|z,phi;N> = sqrt(N z) e^{i phi} |z,phi;N-1>
    z, phi, n = 0.42, 0.9, 30
    upper = to_fock(CoherentSpinState(z, phi, n)).amplitudes
    lower = to_fock(CoherentSpinState(z, phi, n - 1)).amplitudes
    k = np.arange(1, n + 1)
    applied = np.sqrt(k) * upper[1:]
    expected = math.sqrt(n * z) * np.exp(1j * phi) * lower
    assert np.max(np.abs(applied - expected)) < 1e-10


def test_ensemble_validation():
    css = CoherentSpinState(0.5, 0.0, 4)
    SeparableEnsemble(4, ((1.0, css),))
    with pytest.raises(ValueError):
        SeparableEnsemble(4, ((0.5, css),))
    with pytest.raises(ValueError):
        SeparableEnsemble(5, ((1.0, css),))
    with pytest.raises(ValueError):
        SeparableEnsemble(4, ((-0.2, css), (1.2, css)))


def test_ensemble_to_state_rank_one_and_diagonal():
    pure = SeparableEnsemble(6, ((1.0, CoherentSpinState(0.3, 0.2, 6)),))
    rho = ensemble_to_state(pure)
    amps = to_fock(CoherentSpinState(0.3, 0.2, 6)).amplitudes
    assert np.max(np.abs(rho.matrix - np.outer(amps, amps.conj()))) < 1e-14
    # orthogonal extremes mix to a two-point diagonal
    ens = SeparableEnsemble(
        3,
        ((0.5, CoherentSpinState(0.0, 0.0, 3)), (0.5, CoherentSpinState(1.0, 0.0, 3))),
    )
    rho2 = ensemble_to_state(ens)
    expected = np.zeros((4, 4))
    expected[0, 0] = 0.5
    expected[3, 3] = 0.5
    assert np.max(np.abs(rho2.matrix - expected)) < 1e-14


def test_ensemble_to_state_linearity_in_moments():
    comps = (
        (0.25, CoherentSpinState(0.2, 0.1, 8)),
        (0.75, CoherentSpinState(0.7, -0.5, 8)),
    )
    rho = ensemble_to_state(SeparableEnsemble(8, comps))
    g = GeneratorSpec.axis("z")
    mean_mix, _ = angular_moments(rho, g)
    mean_parts = sum(
        w * angular_moments(to_fock(c), g)[0] for w, c in comps
    )
    assert mean_mix == pytest.approx(mean_parts, abs=1e-12)


def test_ensemble_to_state_sector_cap():
    big = SeparableEnsemble(300, ((1.0, CoherentSpinState(0.5, 0.0, 300)),))
    with pytest.raises(SectorTooLarge):
        ensemble_to_state(big)
    # the cap stays where results may be densified, past the scan budget too
    with pytest.raises(SectorTooLarge):
        ensemble_to_state(sample_ensemble(3, 4000, 2))


def test_fluctuating_ensemble_and_mixture():
    dist = NumberDistribution.binomial(4, 0.5)
    ens = sample_fluctuating_ensemble(3, dist, 2)
    assert isinstance(ens, FluctuatingEnsemble)
    assert ens.mean_n == pytest.approx(2.0, abs=1e-12)
    mix = ensemble_to_state(ens)
    assert isinstance(mix, NumberSectorMixture)
    assert [s.n_total for _, s in mix.sectors] == [0, 1, 2, 3, 4]
    assert mix.mean_n == pytest.approx(2.0, abs=1e-12)


def test_number_distributions():
    det = NumberDistribution.deterministic(7)
    assert det.weights() == ((7, 1.0),)
    pois = NumberDistribution.poisson(20.0).weights()
    mass = sum(p for _, p in pois)
    assert mass == pytest.approx(1.0, abs=1e-14)
    mean = sum(n * p for n, p in pois)
    assert mean == pytest.approx(20.0, abs=1e-9)
    binom = NumberDistribution.binomial(10, 0.3).weights()
    assert sum(p for _, p in binom) == pytest.approx(1.0, abs=1e-14)
    assert sum(n * p for n, p in binom) == pytest.approx(3.0, abs=1e-12)
    with pytest.raises(ValueError):
        NumberDistribution.poisson(-1.0)
    with pytest.raises(ValueError):
        NumberDistribution.binomial(5, 1.5)


def test_distribution_support_is_capped_at_a_million_particles():
    # the Poisson truncation point int(mean + 20 sqrt(mean) + 60) decides
    edge = 980_140.0  # reaches exactly 10^6; edge + 1 reaches 10^6 + 1
    assert NumberDistribution.poisson(edge).params == (edge,)
    for refused in (
        lambda: NumberDistribution.poisson(edge + 1.0),
        lambda: NumberDistribution.poisson(1e12),
        lambda: NumberDistribution.binomial(10**6 + 1, 0.5),
        lambda: NumberDistribution.deterministic(10**6 + 1),
    ):
        with pytest.raises(ValueError, match="at most 1000000 particles"):
            refused()
    assert NumberDistribution.binomial(10**6, 0.5).params == (10**6, 0.5)
    assert NumberDistribution.deterministic(10**6).weights() == ((10**6, 1.0),)


def test_expanded_size_is_the_sum_of_sector_widths():
    for distribution in (
        NumberDistribution.deterministic(7),
        NumberDistribution.binomial(12, 0.4),
        NumberDistribution.binomial(12, 0.0),
        NumberDistribution.binomial(12, 1.0),
        NumberDistribution.poisson(0.0),
    ):
        size = sum(n + 1 for n, _ in distribution.weights())
        assert distribution.expanded_size() == size
    # a Poisson support is bounded by its truncation point, int(mean + 20 sqrt(mean) + 60)
    poisson = NumberDistribution.poisson(20.0)
    assert poisson.expanded_size() == 170 * 171 // 2
    assert poisson.expanded_size() >= sum(n + 1 for n, _ in poisson.weights())


def test_expanded_size_cap_accepts_the_workloads_and_refuses_beyond():
    for accepted in (
        NumberDistribution.poisson(20.0),
        NumberDistribution.poisson(1900.0),
        NumberDistribution.binomial(2000, 0.5),
        NumberDistribution.deterministic(10**6),
    ):
        assert accepted.expanded_size() <= MAX_EXPANDED_SIZE
    # weights() checks the size before it expands anything
    for refused, size in (
        (NumberDistribution.poisson(5000.0), 20966050),
        (NumberDistribution.binomial(3000, 0.5), 4504501),
        (NumberDistribution.poisson(980_140.0), 500001500001),
    ):
        assert refused.expanded_size() == size > MAX_EXPANDED_SIZE
        with pytest.raises(ValueError, match=f"expands into {size} .* at most {MAX_EXPANDED_SIZE}"):
            refused.weights()


def test_scan_draws_match_the_public_samplers():
    distribution = NumberDistribution.poisson(6.0)
    numbers = [n for n, _ in distribution.weights()]
    weights, z, phi = _draw_chunk([17, 18], len(numbers), 3)
    for i, seed in enumerate([17, 18]):
        public = sample_fluctuating_ensemble(seed, distribution, 3)
        assert [n for n, _ in public.number_weights] == numbers
        for j, n in enumerate(numbers):
            drawn = tuple(
                (w, CoherentSpinState(zi, p, n))
                for w, zi, p in zip(weights[i, j].tolist(), z[i, j].tolist(), phi[i, j].tolist())
            )
            assert public.per_sector[n].components == drawn
    weights, z, phi = _draw_chunk([5], 1, 4)
    fixed = sample_ensemble(5, 12, 4)
    assert [(w, c.z, c.phi) for w, c in fixed.components] == list(
        zip(weights[0, 0].tolist(), z[0, 0].tolist(), phi[0, 0].tolist())
    )


@pytest.mark.parametrize("depth", [*range(1, 10), 16, 50, 200, MAX_COMPONENTS])
def test_draws_are_the_three_call_stream_bit_for_bit(depth):
    # three sectors in turn from one generator, then its state, so a drift
    # in the words a draw consumes shows as well as a drift in its values;
    # past 8 gammas a pairwise sum of the weights moves their last bit
    for seed in range(200):
        ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            drawn = _draw_components(ours, depth)
            expected = oracles.draw_components_three_calls(reference, depth)
            assert [part.tobytes() for part in drawn] == [part.tobytes() for part in expected]
        assert ours.bit_generator.state == reference.bit_generator.state


def test_binomial_weights_stay_finite_for_many_trials():
    weights = NumberDistribution.binomial(2000, 0.5).weights()
    probabilities = np.array([p for _, p in weights])
    assert len(weights) == 2001 and np.all(np.isfinite(probabilities))
    assert probabilities.sum() == pytest.approx(1.0, abs=1e-12)
    assert sum(n * p for n, p in weights) == pytest.approx(1000.0, rel=1e-12)
    # the middle weight against the exact integer pmf
    exact = math.comb(2000, 1000) / 2**2000
    assert weights[1000][1] == pytest.approx(exact, rel=1e-11)


def test_sampler_determinism_and_ranges():
    a = sample_ensemble(1234, 12, 4)
    b = sample_ensemble(1234, 12, 4)
    assert a.components == b.components
    c = sample_ensemble(1235, 12, 4)
    assert a.components != c.components
    weights = [w for w, _ in a.components]
    assert sum(weights) == pytest.approx(1.0, abs=1e-12)
    for _, comp in a.components:
        assert 0.0 <= comp.z <= 1.0
        assert -math.pi <= comp.phi <= math.pi


def test_sampler_population_fraction_is_uniform():
    rng_total = 10_000
    values = [
        sample_ensemble(seed, 2, 1).components[0][1].z for seed in range(rng_total)
    ]
    assert 0.49 < float(np.mean(values)) < 0.51


def test_fluctuating_sampler_determinism():
    dist = NumberDistribution.poisson(5.0)
    a = sample_fluctuating_ensemble(9, dist, 2)
    b = sample_fluctuating_ensemble(9, dist, 2)
    assert a.number_weights == b.number_weights
    for n, _ in a.number_weights:
        assert a.per_sector[n].components == b.per_sector[n].components


def test_analytic_spin_moments_single_component():
    ens = SeparableEnsemble(10, ((1.0, CoherentSpinState(0.5, 0.0, 10)),))
    jx, jy, var_z = analytic_spin_moments(ens)
    assert jx == pytest.approx(5.0, abs=1e-12)
    assert jy == pytest.approx(0.0, abs=1e-12)
    assert var_z == pytest.approx(2.5, abs=1e-12)
    split = SeparableEnsemble(50, ((1.0, CoherentSpinState(0.3, 0.0, 50)),))
    assert analytic_spin_moments(split)[2] == pytest.approx(10.5, abs=1e-12)


def test_analytic_moments_match_fock_path_fixed_n():
    rng = np.random.default_rng(57)
    for _ in range(25):
        n = int(rng.integers(1, 30))
        ens = sample_ensemble(int(rng.integers(1 << 31)), n, int(rng.integers(1, 5)))
        jx_a, jy_a, var_a = analytic_spin_moments(ens)
        rho = ensemble_to_state(ens)
        jx_f, _ = angular_moments(rho, GeneratorSpec.axis("x"))
        jy_f, _ = angular_moments(rho, GeneratorSpec.axis("y"))
        _, var_f = angular_moments(rho, GeneratorSpec.axis("z"))
        assert jx_a == pytest.approx(jx_f, abs=1e-9)
        assert jy_a == pytest.approx(jy_f, abs=1e-9)
        assert var_a == pytest.approx(var_f, abs=1e-9)


def test_analytic_moments_match_fock_path_fluctuating():
    rng = np.random.default_rng(61)
    for _ in range(10):
        dist = NumberDistribution.binomial(int(rng.integers(2, 14)), float(rng.random()))
        ens = sample_fluctuating_ensemble(int(rng.integers(1 << 31)), dist, 3)
        jx_a, jy_a, var_a = analytic_spin_moments(ens)
        mix = ensemble_to_state(ens)
        jx_f, _ = angular_moments(mix, GeneratorSpec.axis("x"))
        jy_f, _ = angular_moments(mix, GeneratorSpec.axis("y"))
        _, var_f = angular_moments(mix, GeneratorSpec.axis("z"))
        assert jx_a == pytest.approx(jx_f, abs=1e-9)
        assert jy_a == pytest.approx(jy_f, abs=1e-9)
        assert var_a == pytest.approx(var_f, abs=1e-9)


def test_maximize_csi_stays_bounded():
    best, ensemble = maximize_witness("csi:1", 20, budget=2000, seed=7)
    assert ensemble is not None
    assert best <= 1.0 + 1e-9
    assert best >= 0.999


def test_maximize_qfi_approaches_supremum():
    best, ensemble = maximize_witness("qfi:z", 20, budget=2000, seed=11)
    assert ensemble is not None
    assert best <= 20.0 + 1e-6
    assert best >= 20.0 - 0.01


def test_maximize_squeezing_cannot_beat_unity():
    xi2, ensemble = maximize_witness("xi2", 16, budget=1500, seed=3)
    assert ensemble is not None
    assert xi2 >= 1.0 - 1e-9


def test_maximize_is_deterministic():
    a = maximize_witness("csi:1", 8, budget=200, seed=5, n_components=2)
    b = maximize_witness("csi:1", 8, budget=200, seed=5, n_components=2)
    assert a[0] == b[0]
    assert a[1].components == b[1].components
    with pytest.raises(ValueError):
        maximize_witness("csi:1", 8, budget=0, seed=5)


# (value, sha256 of the ensemble's (w, z, phi) rows) of each climb, as
# recorded with three generator calls per draw and an lgamma table built
# afresh for every proposal
@pytest.mark.parametrize(
    "request_text, n_total, budget, seed, n_components, value, digest",
    [
        ("csi:1", 40, 30, 3, 2, 1.0, "2b31401c0950d4a0"),
        ("csi:2", 300, 20, 5, 3, 0.9998931768772897, "dbd26cd1353eff67"),
        ("qfi:x", 12, 25, 7, 4, 11.169809808475573, "4b7ea84321c41296"),
        ("xi2", 20, 25, 9, 3, 1.0000000000000002, "58d7e99c4f50da33"),
        ("csi:1", 2895, 12, 1, 1, 1.0000000000000002, "ef63710fe1b91d81"),
    ],
)
def test_a_climb_replays_its_recorded_result(request_text, n_total, budget, seed, n_components,
                                             value, digest):
    best, ensemble = maximize_witness(request_text, n_total, budget, seed, n_components, restarts=4)
    rows = np.array([[w, c.z, c.phi] for w, c in ensemble.components])
    assert (best, hashlib.sha256(rows.tobytes()).hexdigest()[:16]) == (value, digest)


@pytest.mark.parametrize("n_total", [2, 20, 256])
@pytest.mark.parametrize("request_text, n_components", [("csi:1", 1), ("csi:1", 3), ("qfi:z", 2), ("xi2", 3)])
def test_the_climb_returns_the_value_of_its_ensemble(request_text, n_components, n_total):
    # the climb evaluates arrays through the scan's kernels; its best value
    # is the witness of the ensemble it returns, as a density gives it
    best, ensemble = maximize_witness(request_text, n_total, budget=60, seed=n_total, n_components=n_components)
    state = ensemble_to_state(ensemble)
    if request_text == "csi:1":
        expected = csi_ratio(integrated_g2m(state, 1))
    elif request_text == "qfi:z":
        expected = qfi(state, GeneratorSpec.axis("z"))
    else:
        expected = spin_squeezing(state)
        assert best == spin_squeezing(ensemble)  # the closed form, bit for bit
    assert best == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("request_text, n_total, n_components, skipped", [
    # C_2m from the closed form of the product correlators: no F_Q, no row
    ("csi:1", 20, 2, ("_evaluate_qfi", "_product_forms", "_qfi_forms", "_coherent_rows")),
    # K <= N + 1: F_Q from the closed form, with no amplitude row at all
    ("qfi:z", 20, 2, ("_evaluate_csi", "_product_correlators", "_coherent_rows")),
    # K > N + 1: F_Q from the complex rows, and still no correlator
    ("qfi:z", 3, 5, ("_evaluate_csi", "_product_correlators", "_product_forms")),
    # and C_2m builds no row where K > N + 1 either
    ("csi:1", 3, 5, ("_evaluate_qfi", "_product_forms", "_qfi_forms", "_coherent_rows")),
])
def test_each_climb_computes_only_its_own_witness(request_text, n_total, n_components, skipped, monkeypatch):
    def refused(*_):
        raise AssertionError("the climb computed what its witness does not need")

    # the scan's halves and the kernels it binds, or those of the F_Q rule
    # it shares with the witnesses (witnesses._component_forms)
    for name in skipped:
        monkeypatch.setattr(scan if hasattr(scan, name) else witnesses, name, refused)
    best, ensemble = maximize_witness(request_text, n_total, budget=40, seed=6, n_components=n_components)
    assert ensemble is not None and math.isfinite(best)


@pytest.mark.parametrize("request_text, bound", [("csi:1", 1.0), ("qfi:x", 300.0)])
def test_a_climb_past_the_dense_cap_stays_within_its_bound(request_text, bound):
    # the objectives built a density capped at DEFAULT_N_MAX = 256 particles
    # for every proposal, so N = 300 raised SectorTooLarge
    best, ensemble = maximize_witness(request_text, 300, budget=80, seed=2, n_components=2)
    assert ensemble.n_total == 300
    assert bound - 0.1 * bound < best <= bound + 1e-9 * bound
    with pytest.raises(SectorTooLarge):
        ensemble_to_state(ensemble)


@pytest.mark.parametrize("args, kwargs, message", [
    (("eta2", 20), {}, "not 'eta2'"),
    (("all", 20), {}, "not 'all'"),
    (("parity", 20), {}, "unknown witness 'parity'"),
    (("xi2:1", 20), {}, "takes no parameter"),
    (("csi:0", 20), {}, "must take the form"),
    (("qfi:0,0,0", 20), {}, "must take the form"),
    (("csi:11", 20), {}, "2m <= n_total"),
    (("xi2", 1), {}, "n_total >= 2"),
    (("qfi:z", 20), {"n_components": 0}, "at least one component"),
    (("qfi:z", 20), {"n_components": 1001}, "n_components must be at most 1000"),
    (("xi2", 10**6 + 1), {}, "n_total must be at most 1000000"),
    (("xi2", 10**6), {"n_components": 5}, "an input may expand into at most 4194304"),
    (("csi:5", 10**6), {}, "its cap on a scan's C_2m bounds"),
    (("csi:1", 20), {"restarts": 0}, "budget and restarts must be at least 1"),
])
def test_the_climb_refuses_what_a_scan_refuses_before_any_draw(args, kwargs, message, monkeypatch):
    def no_draw(*_):
        raise AssertionError("drew a proposal")

    monkeypatch.setattr(scan, "_draw_components", no_draw)
    with pytest.raises(ValueError, match=message):
        maximize_witness(*args, budget=10, seed=1, **kwargs)
