"""Separable two-mode bosonic states and their closed-form spin moments.

A coherent spin state puts every particle in the same single-particle
superposition of the two modes; finite positive mixtures of such states
(optionally with a fluctuating total particle number) exhaust the
separable states this toolkit certifies bounds against. Continuous
ensembles are represented by discrete sampling. The module also carries
the seeded samplers and the stochastic hill-climbing maximizer used to
probe separability bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from ._factorials import log_binomial_row
from .errors import SectorTooLarge, WitnessError
from .fock import DEFAULT_N_MAX, FockVector, NumberSectorMixture, SectorDensity

# Name of the bit generator behind numpy.random.default_rng, recorded in
# run manifests so published numbers can be regenerated exactly.
PRNG_NAME = "PCG64"

_WEIGHT_SUM_TOL = 1e-10
_POISSON_MASS = 1.0 - 1e-12

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class CoherentSpinState:
    """All n_total particles in sqrt(z) e^{i phi}|a> + sqrt(1-z)|b>."""

    z: float
    phi: float
    n_total: int

    def __post_init__(self):
        if not (isinstance(self.n_total, (int, np.integer)) and self.n_total >= 0):
            raise ValueError("particle number must be a nonnegative integer")
        object.__setattr__(self, "n_total", int(self.n_total))
        z = float(self.z)
        phi = float(self.phi)
        if not (math.isfinite(z) and 0.0 <= z <= 1.0):
            raise ValueError(f"population fraction z={z!r} outside [0, 1]")
        if not (math.isfinite(phi) and -math.pi <= phi <= math.pi):
            raise ValueError(f"relative phase phi={phi!r} outside [-pi, pi]")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "phi", phi)


@dataclass(frozen=True, eq=False)
class SeparableEnsemble:
    """Finite positive mixture of coherent spin states at fixed N."""

    n_total: int
    components: tuple

    def __post_init__(self):
        object.__setattr__(self, "n_total", int(self.n_total))
        comps = []
        for item in self.components:
            weight, state = item
            w = float(weight)
            if not isinstance(state, CoherentSpinState):
                raise TypeError("components must be (weight, CoherentSpinState)")
            if not math.isfinite(w) or w < 0.0:
                raise ValueError(f"component weight {w!r} must be nonnegative")
            if state.n_total != self.n_total:
                raise ValueError(
                    f"component particle number {state.n_total} != ensemble {self.n_total}"
                )
            comps.append((w, state))
        if not comps:
            raise ValueError("ensemble needs at least one component")
        total = sum(w for w, _ in comps)
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(f"component weights sum to {total!r}, expected 1")
        object.__setattr__(self, "components", tuple(comps))


@dataclass(frozen=True, eq=False)
class FluctuatingEnsemble:
    """Separable ensembles per particle number, mixed by number weights."""

    number_weights: tuple
    per_sector: Mapping[int, SeparableEnsemble]

    def __post_init__(self):
        weights = []
        for item in self.number_weights:
            n, p = item
            n = int(n)
            p = float(p)
            if n < 0:
                raise ValueError("particle numbers must be nonnegative")
            if not math.isfinite(p) or p < 0.0:
                raise ValueError(f"number weight {p!r} must be nonnegative")
            weights.append((n, p))
        if not weights:
            raise ValueError("need at least one particle-number sector")
        weights.sort()
        numbers = [n for n, _ in weights]
        if len(set(numbers)) != len(numbers):
            raise ValueError("duplicate particle number in distribution")
        total = sum(p for _, p in weights)
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(f"number weights sum to {total!r}, expected 1")
        sectors = dict(self.per_sector)
        if set(sectors) != set(numbers):
            raise ValueError("per-sector ensembles must cover exactly the weighted numbers")
        for n, ens in sectors.items():
            if not isinstance(ens, SeparableEnsemble) or ens.n_total != n:
                raise ValueError(f"sector {n} holds an ensemble with the wrong N")
        object.__setattr__(self, "number_weights", tuple(weights))
        object.__setattr__(self, "per_sector", sectors)

    @property
    def mean_n(self) -> float:
        return float(sum(n * p for n, p in self.number_weights))


@dataclass(frozen=True)
class NumberDistribution:
    """Distribution over total particle number, materialized as weights.

    Kinds: ``deterministic`` (a single N), ``poisson`` (truncated once the
    cumulative mass reaches 1 - 1e-12, then renormalized) and ``binomial``
    (full exact support).
    """

    kind: str
    params: tuple

    @classmethod
    def deterministic(cls, n: int) -> "NumberDistribution":
        if n < 0:
            raise ValueError("particle number must be nonnegative")
        return cls("deterministic", (int(n),))

    @classmethod
    def poisson(cls, mean: float) -> "NumberDistribution":
        mean = float(mean)
        if not math.isfinite(mean) or mean < 0.0:
            raise ValueError("poisson mean must be finite and nonnegative")
        return cls("poisson", (mean,))

    @classmethod
    def binomial(cls, trials: int, prob: float) -> "NumberDistribution":
        trials = int(trials)
        prob = float(prob)
        if trials < 0:
            raise ValueError("trial count must be nonnegative")
        if not 0.0 <= prob <= 1.0:
            raise ValueError("success probability must lie in [0, 1]")
        return cls("binomial", (trials, prob))

    def weights(self) -> tuple:
        """Sorted (n, probability) pairs; probabilities sum to 1."""
        if self.kind == "deterministic":
            return ((self.params[0], 1.0),)
        if self.kind == "poisson":
            return _poisson_weights(self.params[0])
        if self.kind == "binomial":
            return _binomial_weights(self.params[0], self.params[1])
        raise ValueError(f"unknown distribution kind {self.kind!r}")


def _poisson_weights(lam: float) -> tuple:
    if lam == 0.0:
        return ((0, 1.0),)
    entries = []
    cumulative = 0.0
    cap = int(lam + 20.0 * math.sqrt(lam) + 60.0)
    for k in range(cap + 1):
        p = math.exp(-lam + k * math.log(lam) - math.lgamma(k + 1))
        entries.append((k, p))
        cumulative += p
        if cumulative >= _POISSON_MASS:
            break
    else:
        raise RuntimeError("poisson truncation failed to reach target mass")
    return tuple((k, p / cumulative) for k, p in entries)


def _binomial_weights(trials: int, prob: float) -> tuple:
    if prob == 0.0:
        return ((0, 1.0),)
    if prob == 1.0:
        return ((trials, 1.0),)
    raw = [
        (k, float(math.comb(trials, k) * prob**k * (1.0 - prob) ** (trials - k)))
        for k in range(trials + 1)
    ]
    total = sum(p for _, p in raw)
    return tuple((k, p / total) for k, p in raw)


def to_fock(state: CoherentSpinState) -> FockVector:
    """Amplitude vector sqrt(C(N,k)) z^{k/2} (1-z)^{(N-k)/2} e^{i k phi}.

    Amplitudes are built in log space (so N up to 10^6 cannot overflow)
    and renormalized once, keeping the norm at 1 to machine precision.
    """
    n = state.n_total
    if state.z == 0.0:
        amps = np.zeros(n + 1, dtype=np.complex128)
        amps[0] = 1.0
        return FockVector(amps)
    if state.z == 1.0:
        amps = np.zeros(n + 1, dtype=np.complex128)
        amps[n] = np.exp(1j * n * state.phi)
        return FockVector(amps)
    k = np.arange(n + 1)
    log_choose = log_binomial_row(n)
    half_log = 0.5 * (log_choose + k * math.log(state.z) + (n - k) * math.log1p(-state.z))
    amps = np.exp(half_log + 1j * k * state.phi)
    amps /= math.sqrt(float(np.sum(np.abs(amps) ** 2)))
    return FockVector(amps)


def ensemble_to_state(ensemble, n_max: int = DEFAULT_N_MAX):
    """Exact density of an ensemble: SectorDensity, or NumberSectorMixture
    for a fluctuating particle number.

    Refuses to allocate sectors above ``n_max`` (dense (N+1)^2 matrices)
    with SectorTooLarge.
    """
    if isinstance(ensemble, SeparableEnsemble):
        n = ensemble.n_total
        if n > n_max:
            raise SectorTooLarge(
                f"sector N={n} exceeds the dense-matrix cap n_max={n_max}"
            )
        rho = np.zeros((n + 1, n + 1), dtype=np.complex128)
        for weight, comp in ensemble.components:
            amps = to_fock(comp).amplitudes
            rho += weight * np.outer(amps, amps.conj())
        return SectorDensity(rho)
    if isinstance(ensemble, FluctuatingEnsemble):
        worst = max(n for n, _ in ensemble.number_weights)
        if worst > n_max:
            raise SectorTooLarge(
                f"sector N={worst} exceeds the dense-matrix cap n_max={n_max}"
            )
        sectors = tuple(
            (p, ensemble_to_state(ensemble.per_sector[n], n_max))
            for n, p in ensemble.number_weights
        )
        return NumberSectorMixture(sectors)
    raise TypeError(f"unsupported ensemble type {type(ensemble).__name__}")


# --- seeded sampling ----------------------------------------------------------


def _sample_components(rng: np.random.Generator, n_total: int, n_components: int) -> SeparableEnsemble:
    if n_components < 1:
        raise ValueError("need at least one component")
    z = rng.random(n_components)
    phi = rng.uniform(-math.pi, math.pi, n_components)
    weights = rng.dirichlet(np.ones(n_components))
    comps = tuple(
        (float(w), CoherentSpinState(float(zi), float(pi), n_total))
        for w, zi, pi in zip(weights, z, phi)
    )
    return SeparableEnsemble(n_total, comps)


def sample_ensemble(seed: int, n_total: int, n_components: int) -> SeparableEnsemble:
    """Seeded random ensemble: z uniform on [0,1), phi uniform on [-pi,pi),
    weights from a flat Dirichlet simplex draw. Same seed, same ensemble."""
    rng = np.random.default_rng(seed)
    return _sample_components(rng, n_total, n_components)


def sample_fluctuating_ensemble(
    seed: int, distribution: NumberDistribution, n_components: int
) -> FluctuatingEnsemble:
    """Seeded fluctuating-number ensemble with an independent random
    separable ensemble in every sector the distribution supports."""
    rng = np.random.default_rng(seed)
    weights = distribution.weights()
    per_sector = {n: _sample_components(rng, n, n_components) for n, _ in weights}
    return FluctuatingEnsemble(weights, per_sector)


# --- closed-form collective-spin moments --------------------------------------


def analytic_spin_moments(ensemble) -> tuple[float, float, float]:
    """(<J_x>, <J_y>, Var J_z) from the ensemble parameters alone.

    Fixed N:
        <J_x> =  N sum_k w_k sqrt(z_k(1-z_k)) cos phi_k
        <J_y> = -N sum_k w_k sqrt(z_k(1-z_k)) sin phi_k
        Var J_z = N/4 + N(N-1) E[(z-1/2)^2] - N^2 (E[z-1/2])^2
    The J_y sign follows from the ladder convention a|z,phi;N> =
    sqrt(N z) e^{i phi} |z,phi;N-1>, under which <a^dag b> carries
    e^{-i phi}; it matches the exact Fock-space path bit for bit.

    Fluctuating N keeps per-sector expectations and mixes them with the
    number weights; the cross term then carries <N(N-1)> = <N^2> - <N>:
        Var J_z = <N>/4 + sum_N p_N N(N-1) E_N[(z-1/2)^2]
                  - (sum_N p_N N E_N[z-1/2])^2
    The deterministic-N limit fixes that coefficient uniquely: a
    (<N^2> - <N>^2) variant would collapse to N/4 - N^2 (...)^2 for a
    single sector and go negative.
    """
    if isinstance(ensemble, SeparableEnsemble):
        n = ensemble.n_total
        s_cos, s_sin, m1, m2 = _component_sums(ensemble)
        jx = n * s_cos
        jy = -n * s_sin
        var_z = n / 4.0 + n * (n - 1.0) * m2 - (n * m1) ** 2
        return jx, jy, var_z
    if isinstance(ensemble, FluctuatingEnsemble):
        jx = 0.0
        jy = 0.0
        second = 0.0
        first = 0.0
        for n, p in ensemble.number_weights:
            s_cos, s_sin, m1, m2 = _component_sums(ensemble.per_sector[n])
            jx += p * n * s_cos
            jy += -p * n * s_sin
            second += p * (n / 4.0 + n * (n - 1.0) * m2)
            first += p * n * m1
        return jx, jy, second - first * first
    raise TypeError(f"unsupported ensemble type {type(ensemble).__name__}")


def _component_sums(ensemble: SeparableEnsemble) -> tuple[float, float, float, float]:
    s_cos = 0.0
    s_sin = 0.0
    m1 = 0.0
    m2 = 0.0
    for w, comp in ensemble.components:
        radius = math.sqrt(comp.z * (1.0 - comp.z))
        s_cos += w * radius * math.cos(comp.phi)
        s_sin += w * radius * math.sin(comp.phi)
        centered = comp.z - 0.5
        m1 += w * centered
        m2 += w * centered * centered
    return s_cos, s_sin, m1, m2


# --- stochastic maximization ---------------------------------------------------


def _wrap_phase(values: np.ndarray) -> np.ndarray:
    return (values + math.pi) % _TWO_PI - math.pi


def _project_simplex(values: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    u = np.sort(values)[::-1]
    cumsum = np.cumsum(u)
    rho_candidates = u * np.arange(1, values.size + 1) > (cumsum - 1.0)
    rho = int(np.nonzero(rho_candidates)[0][-1])
    tau = (cumsum[rho] - 1.0) / (rho + 1)
    return np.maximum(values - tau, 0.0)


def _ensemble_from_arrays(n_total, weights, z, phi) -> SeparableEnsemble:
    comps = tuple(
        (float(w), CoherentSpinState(float(zi), float(pi), n_total))
        for w, zi, pi in zip(weights, z, phi)
    )
    return SeparableEnsemble(n_total, comps)


def maximize_witness(
    objective: Callable[[SeparableEnsemble], float],
    n_total: int,
    budget: int,
    seed: int,
    n_components: int = 1,
    restarts: int = 20,
) -> tuple[float, SeparableEnsemble | None]:
    """Stochastic hill climbing of ``objective`` over separable ensembles.

    ``budget`` counts objective evaluations in total, split across random
    restarts. Proposals perturb (z, phi, weights) with Gaussian noise
    (sigma 0.05 / 0.2 / 0.1), clip z to [0,1], wrap phi, and project the
    weights back onto the simplex. A WitnessError from the objective marks
    the proposal infeasible (treated as -inf) instead of aborting the
    search. Deterministic for a fixed seed. Returns (best value, best
    ensemble); the ensemble is None only if every evaluation errored.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if restarts < 1:
        raise ValueError("need at least one restart")
    rng = np.random.default_rng(seed)
    per_restart = max(1, math.ceil(budget / restarts))
    evals_left = budget
    best_value = -math.inf
    best_ensemble: SeparableEnsemble | None = None

    def evaluate(candidate: SeparableEnsemble) -> float:
        try:
            return float(objective(candidate))
        except WitnessError:
            return -math.inf

    while evals_left > 0:
        start = _sample_components(rng, n_total, n_components)
        weights = np.array([w for w, _ in start.components])
        z = np.array([c.z for _, c in start.components])
        phi = np.array([c.phi for _, c in start.components])
        current = start
        current_value = evaluate(current)
        evals_left -= 1
        if current_value > best_value:
            best_value, best_ensemble = current_value, current
        for _ in range(per_restart - 1):
            if evals_left <= 0:
                break
            z_new = np.clip(z + rng.normal(0.0, 0.05, z.size), 0.0, 1.0)
            phi_new = _wrap_phase(phi + rng.normal(0.0, 0.2, phi.size))
            if weights.size > 1:
                w_new = _project_simplex(weights + rng.normal(0.0, 0.1, weights.size))
            else:
                w_new = weights
            candidate = _ensemble_from_arrays(n_total, w_new, z_new, phi_new)
            value = evaluate(candidate)
            evals_left -= 1
            if value > current_value:
                current, current_value = candidate, value
                weights, z, phi = w_new, z_new, phi_new
                if value > best_value:
                    best_value, best_ensemble = value, candidate
    return best_value, best_ensemble
