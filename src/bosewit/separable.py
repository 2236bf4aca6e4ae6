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

from ._factorials import log_binomial_rows
from .errors import SectorTooLarge, WitnessError
from .fock import (
    _POISSON_MASS,
    _WEIGHT_SUM_TOL,
    DEFAULT_N_MAX,
    FockVector,
    NumberSectorMixture,
    SectorDensity,
)

# Name of the bit generator behind numpy.random.default_rng, recorded in
# run manifests so published numbers can be regenerated exactly.
PRNG_NAME = "PCG64"

# The most particles a state may hold, the range to_fock's log-space
# amplitudes are documented for: the cap on a pure state's n in a state
# file and on the support of a number distribution, checked before
# anything is allocated.
MAX_PARTICLES = 10**6

# The most amplitudes a number distribution may expand into: the sum of
# N + 1 over the particle numbers its support may reach (one coherent row
# per sector, 64 MiB of complex amplitudes). NumberDistribution.weights
# checks it before any weight or row is built.
MAX_EXPANDED_SIZE = 2**22

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
    (full exact support). The constructors refuse, with ValueError, any
    parameters whose support reaches past MAX_PARTICLES = 10^6: the
    deterministic n, the binomial trials, or the Poisson truncation point
    int(mean + 20 sqrt(mean) + 60). ``weights``, the one method that
    expands the support, first refuses with ValueError a support that
    expands into more than MAX_EXPANDED_SIZE amplitudes (see expanded_size).
    """

    kind: str
    params: tuple

    @classmethod
    def deterministic(cls, n: int) -> "NumberDistribution":
        if n < 0:
            raise ValueError("particle number must be nonnegative")
        _check_reach("deterministic n", int(n))
        return cls("deterministic", (int(n),))

    @classmethod
    def poisson(cls, mean: float) -> "NumberDistribution":
        mean = float(mean)
        if not math.isfinite(mean) or mean < 0.0:
            raise ValueError("poisson mean must be finite and nonnegative")
        _check_reach(f"poisson mean {mean!r}", _poisson_cap(mean))
        return cls("poisson", (mean,))

    @classmethod
    def binomial(cls, trials: int, prob: float) -> "NumberDistribution":
        trials = int(trials)
        prob = float(prob)
        if trials < 0:
            raise ValueError("trial count must be nonnegative")
        if not 0.0 <= prob <= 1.0:
            raise ValueError("success probability must lie in [0, 1]")
        _check_reach("binomial trials", trials)
        return cls("binomial", (trials, prob))

    def expanded_size(self) -> int:
        """The sum of N + 1 over the particle numbers the support may reach
        (a Poisson support up to its truncation point int(mean + 20
        sqrt(mean) + 60)), from the parameters alone."""
        if self.kind == "deterministic":
            return self.params[0] + 1
        if self.kind == "poisson":
            top = _poisson_cap(self.params[0]) if self.params[0] > 0.0 else 0
            return (top + 1) * (top + 2) // 2
        if self.kind != "binomial":
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        trials, prob = self.params
        if prob == 0.0:
            return 1
        if prob == 1.0:
            return trials + 1
        return (trials + 1) * (trials + 2) // 2

    def weights(self) -> tuple:
        """Sorted (n, probability) pairs; probabilities sum to 1. Raises
        ValueError, before any weight is built, when the support expands
        into more than MAX_EXPANDED_SIZE amplitudes."""
        size = self.expanded_size()
        if size > MAX_EXPANDED_SIZE:
            raise ValueError(
                f"{self.kind} distribution {list(self.params)} expands into {size} "
                f"amplitudes (the sum of N + 1 over its support); distributions may "
                f"expand into at most {MAX_EXPANDED_SIZE}"
            )
        if self.kind == "deterministic":
            return ((self.params[0], 1.0),)
        if self.kind == "poisson":
            return _poisson_weights(self.params[0])
        return _binomial_weights(self.params[0], self.params[1])


def _check_reach(what: str, largest_n: int) -> None:
    if largest_n > MAX_PARTICLES:
        raise ValueError(
            f"{what} reaches N = {largest_n}; distributions may reach at most "
            f"{MAX_PARTICLES} particles"
        )


def _poisson_cap(lam: float) -> int:
    """The last particle number the Poisson truncation may reach."""
    return int(lam + 20.0 * math.sqrt(lam) + 60.0)


def _poisson_weights(lam: float) -> tuple:
    if lam == 0.0:
        return ((0, 1.0),)
    entries = []
    cumulative = 0.0
    for k in range(_poisson_cap(lam) + 1):
        p = math.exp(-lam + k * math.log(lam) - math.lgamma(k + 1))
        entries.append((k, p))
        cumulative += p
        if cumulative >= _POISSON_MASS:
            break
    else:
        raise RuntimeError("poisson truncation failed to reach target mass")
    return tuple((k, p / cumulative) for k, p in entries)


def _binomial_weights(trials: int, prob: float) -> tuple:
    # log-pmf through lgamma, as for the Poisson weights: finite and O(1)
    # per entry for every accepted trial count
    if prob == 0.0:
        return ((0, 1.0),)
    if prob == 1.0:
        return ((trials, 1.0),)
    log_p, log_q = math.log(prob), math.log1p(-prob)
    top = math.lgamma(trials + 1)
    raw = [
        (
            k,
            math.exp(
                top - math.lgamma(k + 1) - math.lgamma(trials - k + 1)
                + k * log_p + (trials - k) * log_q
            ),
        )
        for k in range(trials + 1)
    ]
    total = sum(p for _, p in raw)
    return tuple((k, p / total) for k, p in raw)


def _coherent_rows(numbers, z, phi) -> np.ndarray:
    """Amplitude rows sqrt(C(N,k)) z^{k/2} (1-z)^{(N-k)/2} e^{i k phi}, one
    per (z, phi) pair. `numbers` is one N for every pair, with z and phi
    (..., K) arrays, which gives (..., K, N+1) rows; or the J numbers of a
    padded stack, with z and phi (..., J, K) arrays whose axis -2 runs over
    them, which gives (..., J, K, W) rows, W = max N + 1, zero past each N.

    Amplitudes are built in log space (so N up to 10^6 cannot overflow)
    from one stacked table of log-binomial rows, and each row is
    renormalized once over its own N + 1 columns, keeping its norm at 1 to
    machine precision. z = 0 and z = 1 give the basis rows |0, N> and
    e^{i N phi} |N, 0> exactly. A row is, bit for bit, the one its (N, z,
    phi) gives alone.
    """
    single = np.ndim(numbers) == 0
    sizes = [int(numbers)] if single else [int(n) for n in numbers]
    z = np.asarray(z, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if single:
        z, phi = z[..., None, :], phi[..., None, :]
    width = max(sizes) + 1
    table = np.zeros((len(sizes), 1, width))
    for row, n, values in zip(table, sizes, log_binomial_rows(sizes)):
        row[0, : n + 1] = values
    inner = (z > 0.0) & (z < 1.0)
    # math.log and math.log1p per value keep every row bit-identical to the
    # one-row case; numpy's vector log may round differently. Boundary rows
    # are set below; meanwhile they take z = 1/2, which overflows at no N.
    values = np.where(inner, z, 0.5).ravel().tolist()
    log_z = np.array([math.log(v) for v in values]).reshape(*z.shape, 1)
    log_rest = np.array([math.log1p(-v) for v in values]).reshape(*z.shape, 1)
    k = np.arange(width)
    n = np.array(sizes)[:, None, None]
    # the operations of 0.5 (table + k log z + (n - k) log(1 - z)) + i k phi,
    # taken in place; a padded stack takes only the columns up to each N
    half_log = k * log_z
    half_log += table
    half_log += (n - k) * log_rest
    half_log *= 0.5
    if min(sizes) == max(sizes):
        rows = 1j * k * phi[..., None]
        rows += half_log
        np.exp(rows, out=rows)
    else:
        valid = np.broadcast_to(k <= n, half_log.shape)
        amps = np.broadcast_to(1j * k, valid.shape)[valid]
        amps *= np.broadcast_to(phi[..., None], valid.shape)[valid]
        amps += half_log[valid]
        rows = np.zeros(valid.shape, dtype=np.complex128)
        rows[valid] = np.exp(amps, out=amps)
    # each norm sums its own N + 1 columns: a sum over the padded width
    # would group numpy's pairwise summation differently
    power = np.abs(rows)
    power *= power
    norms = np.empty(z.shape)
    for j, size in enumerate(sizes):
        np.sum(power[..., j, :, : size + 1], axis=-1, out=norms[..., j, :])
    rows /= np.sqrt(norms)[..., None]
    rows[~inner] = 0.0
    rows[z == 0.0, 0] = 1.0
    top = z == 1.0
    tops = np.array(sizes)[np.nonzero(top)[-2]]
    rows[top, tops] = np.exp(1j * tops * phi[top])
    return rows[..., 0, :, :] if single else rows


def to_fock(state: CoherentSpinState) -> FockVector:
    """Amplitude vector of one coherent spin state (see _coherent_rows)."""
    return FockVector(_coherent_rows(state.n_total, [state.z], [state.phi])[0])


def _check_sector_cap(n: int, n_max: int) -> None:
    """Raise SectorTooLarge for a sector of more than n_max particles."""
    if n > n_max:
        raise SectorTooLarge(f"sector N={n} exceeds the dense-matrix cap n_max={n_max}")


def ensemble_to_state(ensemble, n_max: int = DEFAULT_N_MAX):
    """Exact density of an ensemble: SectorDensity, or NumberSectorMixture
    for a fluctuating particle number.

    Each sector is held as its K component weights and coherent amplitude
    rows, so building it costs O(K N). Sectors above ``n_max`` are still
    refused with SectorTooLarge.
    """
    if isinstance(ensemble, SeparableEnsemble):
        n = ensemble.n_total
        _check_sector_cap(n, n_max)
        weights, z, phi = np.array(
            [(w, comp.z, comp.phi) for w, comp in ensemble.components]
        ).T
        return SectorDensity.from_factors(weights, _coherent_rows(n, z, phi))
    if isinstance(ensemble, FluctuatingEnsemble):
        _check_sector_cap(max(n for n, _ in ensemble.number_weights), n_max)
        sectors = tuple(
            (p, ensemble_to_state(ensemble.per_sector[n], n_max))
            for n, p in ensemble.number_weights
        )
        return NumberSectorMixture(sectors)
    raise TypeError(f"unsupported ensemble type {type(ensemble).__name__}")


# --- seeded sampling ----------------------------------------------------------


def _draw_components(rng: np.random.Generator, n_components: int) -> tuple:
    """(weights, z, phi) of one sector's components, each (n_components,):
    z uniform on [0,1), phi uniform on [-pi,pi), weights from a flat
    Dirichlet simplex draw, in that order from `rng`, for every sampler."""
    if n_components < 1:
        raise ValueError("need at least one component")
    z = rng.random(n_components)
    phi = rng.uniform(-math.pi, math.pi, n_components)
    weights = rng.dirichlet(np.ones(n_components))
    return weights, z, phi


def _check_draws(weights, z, phi) -> None:
    """The checks of CoherentSpinState and SeparableEnsemble on (..., K)
    arrays of drawn components (a NaN fails every comparison)."""
    in_range = ((z >= 0.0) & (z <= 1.0)).all() and (np.abs(phi) <= math.pi).all()
    sums = np.sum(weights, axis=-1)
    if not (in_range and (weights >= 0.0).all() and (np.abs(sums - 1.0) <= _WEIGHT_SUM_TOL).all()):
        raise ValueError("drawn components leave z in [0, 1], phi in [-pi, pi] or the simplex")


def _sample_components(rng: np.random.Generator, n_total: int, n_components: int) -> SeparableEnsemble:
    return _ensemble_from_arrays(n_total, *_draw_components(rng, n_components))


def sample_ensemble(seed: int, n_total: int, n_components: int) -> SeparableEnsemble:
    """Seeded random ensemble: z uniform on [0,1), phi uniform on [-pi,pi),
    weights from a flat Dirichlet simplex draw. Same seed, same ensemble."""
    rng = np.random.default_rng(seed)
    return _sample_components(rng, n_total, n_components)


def sample_fluctuating_ensemble(
    seed: int, distribution: NumberDistribution, n_components: int
) -> FluctuatingEnsemble:
    """Seeded fluctuating-number ensemble with an independent random
    separable ensemble in every sector the distribution supports, drawn
    from one generator in ascending N."""
    rng = np.random.default_rng(seed)
    number_weights = distribution.weights()
    per_sector = {n: _sample_components(rng, n, n_components) for n, _ in number_weights}
    return FluctuatingEnsemble(number_weights, per_sector)


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
    single sector and go negative. The scan evaluates the same closed
    forms on whole chunks through _spin_moments.
    """
    if isinstance(ensemble, SeparableEnsemble):
        number_weights, fluctuating = ((ensemble.n_total, 1.0),), False
        sectors = (ensemble,)
    elif isinstance(ensemble, FluctuatingEnsemble):
        number_weights, fluctuating = ensemble.number_weights, True
        sectors = [ensemble.per_sector[n] for n, _ in number_weights]
    else:
        raise TypeError(f"unsupported ensemble type {type(ensemble).__name__}")
    # zero-weight padding for sectors with fewer components adds exact zeros
    params = np.zeros((3, len(sectors), max(len(s.components) for s in sectors)))
    for j, sector in enumerate(sectors):
        params[:, j, : len(sector.components)] = np.array(
            [(w, comp.z, comp.phi) for w, comp in sector.components]
        ).T
    moments = _spin_moments(number_weights, *params, fluctuating)
    return tuple(float(value) for value in moments)


def _spin_moments(number_weights, weights, z, phi, fluctuating: bool) -> tuple:
    """(<J_x>, <J_y>, Var J_z) of the closed forms of analytic_spin_moments,
    each (...,), for ensembles given as (..., J, K) component weights, z
    and phi over the J sectors of `number_weights` ((n, p) pairs; one
    sector with fluctuating False).

    The sums run in order from 0.0, and cos, sin and the fixed-N square go
    through math and float per value, so every value is, bit for bit, the
    one a scalar loop over the components gives.
    """
    radius = np.sqrt(z * (1.0 - z))
    phases = phi.ravel().tolist()
    cos = np.array([math.cos(v) for v in phases]).reshape(phi.shape)
    sin = np.array([math.sin(v) for v in phases]).reshape(phi.shape)
    s_cos = _in_order(weights * radius * cos)
    s_sin = _in_order(weights * radius * sin)
    centered = z - 0.5
    m1 = _in_order(weights * centered)
    m2 = _in_order(weights * centered * centered)
    if not fluctuating:
        ((n, _),) = number_weights
        shift = n * m1[..., 0]
        squares = np.array([v**2 for v in shift.ravel().tolist()]).reshape(shift.shape)
        var_z = n / 4.0 + n * (n - 1.0) * m2[..., 0] - squares
        return n * s_cos[..., 0], -n * s_sin[..., 0], var_z
    n = np.array([n for n, _ in number_weights])
    p = np.array([p for _, p in number_weights])
    jx = _in_order(p * n * s_cos)
    jy = _in_order(-p * n * s_sin)
    second = _in_order(p * (n / 4.0 + n * (n - 1.0) * m2))
    first = _in_order(p * n * m1)
    return jx, jy, second - first * first


def _in_order(terms: np.ndarray) -> np.ndarray:
    """Sums over the last axis taken in order from 0.0, as a loop would
    (adding 0.0 turns an all-(-0.0) sum into the loop's 0.0)."""
    return np.cumsum(terms, axis=-1)[..., -1] + 0.0


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
