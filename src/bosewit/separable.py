"""Separable two-mode bosonic states and their closed-form spin moments.

A coherent spin state puts every particle in the same single-particle
superposition of the two modes; finite positive mixtures of such states
(optionally with a fluctuating total particle number) exhaust the
separable states this toolkit certifies bounds against. Continuous
ensembles are represented by discrete sampling. The module also carries
the seeded samplers that define the draw stream of the scans and of
scan.maximize_witness, which evaluate the drawn (weights, z, phi) arrays
directly.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ._factorials import log_binomial_rows
from .errors import SectorTooLarge
from .fock import (
    _POISSON_MASS,
    DEFAULT_N_MAX,
    _WEIGHT_SUM_TOL,
    FockVector,
    NumberSectorMixture,
    SectorDensity,
    _check_weights,
)

# Name of the bit generator behind numpy.random.default_rng, recorded in
# run manifests so published numbers can be regenerated exactly.
PRNG_NAME = "PCG64"

# The most particles a state may hold, the range to_fock's log-space
# amplitudes are documented for: the cap on a pure state's n in a state
# file and on the support of a number distribution, checked before
# anything is allocated.
MAX_PARTICLES = 10**6

# The most amplitudes one input may expand into (64 MiB of complex
# amplitudes), checked by _check_expanded_size before anything is built:
# a number distribution (the sum of N + 1 over its support), a state file
# or a scan sample (the sum of K (N + 1) over its sectors of K components),
# and a scan's csi orders, and so the bounds of its report (max m (N + 1)).
MAX_EXPANDED_SIZE = 2**22


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


@dataclass(frozen=True, eq=False, init=False)
class SeparableEnsemble:
    """Finite positive mixture of coherent spin states at fixed N, held as
    `params`, the (3, K) read-only array of its component weights, z and
    phi; `components` gives them as (weight, CoherentSpinState) pairs."""

    n_total: int
    params: np.ndarray

    def __init__(self, n_total: int, components):
        comps = tuple(components)
        for _, state in comps:
            if not isinstance(state, CoherentSpinState):
                raise TypeError("components must be (weight, CoherentSpinState)")
            if state.n_total != int(n_total):
                raise ValueError(f"component particle number {state.n_total} != ensemble {int(n_total)}")
        weights = _check_weights([w for w, _ in comps], "component")
        params = np.array([weights, [s.z for _, s in comps], [s.phi for _, s in comps]])
        params.setflags(write=False)
        _hold(self, int(n_total), params)

    @property
    def components(self) -> tuple:
        weights, z, phi = self.params.tolist()
        return tuple((w, CoherentSpinState(zi, p, self.n_total)) for w, zi, p in zip(weights, z, phi))

    @property
    def mean_n(self) -> float:
        return float(self.n_total)


def _hold(ensemble: SeparableEnsemble, n_total: int, params: np.ndarray) -> SeparableEnsemble:
    object.__setattr__(ensemble, "n_total", n_total)
    object.__setattr__(ensemble, "params", params)
    return ensemble


def _ensembles(numbers, params: np.ndarray, sizes) -> list:
    """SeparableEnsembles of numbers[j] particles, sector j holding the next
    sizes[j] columns of the (3, sum K) component weights, z and phi `params`
    as a view, all checked at once as SeparableEnsemble(n, components)
    checks each (the first failure raising CoherentSpinState's or
    fock._check_weights' own error)."""
    if not all(isinstance(n, (int, np.integer)) and n >= 0 for n in numbers):
        raise ValueError("particle number must be a nonnegative integer")
    if 0 in sizes:
        raise ValueError("need at least one component weight")
    ends = list(itertools.accumulate(sizes))
    starts = [end - size for end, size in zip(ends, sizes)]
    weights, z, phi = params
    # by the extremes (a NaN fails every comparison) and the sums in one
    # pass, which differ from a sector's own by ulps: half the tolerance
    # leaves every sector that may fail to the checks of the sector alone
    (w_low, z_low, phi_low), (w_high, z_high, phi_high) = (
        (params.min(axis=1).tolist(), params.max(axis=1).tolist()) if ends else ((0.0,) * 3, (0.0,) * 3))
    in_range = w_low >= 0.0 and w_high < math.inf and 0.0 <= z_low and z_high <= 1.0 and -math.pi <= phi_low <= phi_high <= math.pi
    sums = np.add.reduceat(weights, starts).tolist() if ends else []
    if not (in_range and all(abs(total - 1.0) <= 0.5 * _WEIGHT_SUM_TOL for total in sums)):
        for a, b in zip(starts, ends):
            for zi, pi in zip(z[a:b], phi[a:b]):
                CoherentSpinState(zi, pi, 0)
            _check_weights(weights[a:b], "component")
    params.setflags(write=False)  # and so every view of it
    return [_hold(object.__new__(SeparableEnsemble), int(n), params[:, a:b]) for n, a, b in zip(numbers, starts, ends)]


@dataclass(frozen=True, eq=False)
class FluctuatingEnsemble:
    """Separable ensembles per particle number, mixed by number weights."""

    number_weights: tuple
    per_sector: Mapping[int, SeparableEnsemble]

    def __post_init__(self):
        pairs = tuple(self.number_weights)
        numbers = [int(n) for n, _ in pairs]
        if any(n < 0 for n in numbers):
            raise ValueError("particle numbers must be nonnegative")
        if len(set(numbers)) != len(numbers):
            raise ValueError("duplicate particle number in distribution")
        weights = sorted(zip(numbers, _check_weights([p for _, p in pairs], "number").tolist()))
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
        _check_expanded_size(
            f"{self.kind} distribution {list(self.params)}",
            self.expanded_size(),
            "the sum of N + 1 over its support",
        )
        if self.kind == "deterministic":
            return ((self.params[0], 1.0),)
        if self.kind == "poisson":
            return _poisson_weights(self.params[0])
        return _binomial_weights(self.params[0], self.params[1])


def _check_expanded_size(what: str, size: int, rule: str) -> None:
    """The one size rule for inputs: ValueError when `what` expands into
    more than MAX_EXPANDED_SIZE amplitudes, counted by `rule`."""
    if size > MAX_EXPANDED_SIZE:
        raise ValueError(
            f"{what} expands into {size} amplitudes ({rule}); an input may "
            f"expand into at most {MAX_EXPANDED_SIZE}"
        )


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


def _normalized(rows, sizes, z, inner, phi) -> np.ndarray:
    """Rows of amplitudes renormalized over their own N + 1 columns, with
    the boundary rows set: z = 0 gives |0, N> and z = 1 gives
    e^{i N phi} |N, 0>."""
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
    return rows


def _coherent_rows(numbers, z, phi) -> np.ndarray:
    """Amplitude rows sqrt(C(N,k)) z^{k/2} (1-z)^{(N-k)/2} e^{i k phi}, one
    per (z, phi) pair. `numbers` is one N for every pair, with z and phi
    (..., K) arrays, which gives (..., K, N+1) rows; or the J numbers of a
    padded stack, with z and phi (..., J, K) arrays whose axis -2 runs over
    them, which gives (..., J, K, W) rows, W = max N + 1, zero past each N.

    Amplitudes are built in log space, as the exponentials of 0.5 (log C(N,
    k) + k log z + (N - k) log(1 - z)) + i k phi (so N up to 10^6 cannot
    overflow), from one stacked table of log-binomial rows, and each row is
    renormalized once over its own N + 1 columns, keeping its norm at 1 to
    machine precision. z = 0 and z = 1 give the basis rows |0, N> and
    e^{i N phi} |N, 0> exactly; the logs take z = 1/2 for them, which
    overflows at no N. A row is, bit for bit, the one its (N, z, phi) gives
    alone.
    """
    sizes = [int(numbers)] if np.ndim(numbers) == 0 else [int(n) for n in numbers]
    z, phi = np.asarray(z, dtype=float), np.asarray(phi, dtype=float)
    if np.ndim(numbers) == 0:
        z, phi = z[..., None, :], phi[..., None, :]
    width = max(sizes) + 1
    table = np.zeros((len(sizes), 1, width))
    for row, n, values in zip(table, sizes, log_binomial_rows(sizes)):
        row[0, : n + 1] = values
    inner = (z > 0.0) & (z < 1.0)
    # math.log and math.log1p per value keep every row bit-identical to the
    # one-row case; numpy's vector log may round differently
    values = np.where(inner, z, 0.5).ravel().tolist()
    log_z = np.array([math.log(v) for v in values]).reshape(*z.shape, 1)
    log_rest = np.array([math.log1p(-v) for v in values]).reshape(*z.shape, 1)
    k = np.arange(width)
    n = np.array(sizes)[:, None, None]
    # the operations of 0.5 (table + k log z + (n - k) log(1 - z)), taken
    # in place
    half_log = k * log_z
    half_log += table
    half_log += (n - k) * log_rest
    half_log *= 0.5
    # + i k phi, and the exponential of the columns up to each N
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
    rows = _normalized(rows, sizes, z, inner, phi)
    return rows[..., 0, :, :] if np.ndim(numbers) == 0 else rows


def to_fock(state: CoherentSpinState) -> FockVector:
    """Amplitude vector of one coherent spin state (see _coherent_rows)."""
    return FockVector(_coherent_rows(state.n_total, [state.z], [state.phi])[0])


def ensemble_to_state(ensemble):
    """Exact density of an ensemble: SectorDensity, or NumberSectorMixture
    for a fluctuating particle number.

    Each sector is held as its K component weights and coherent amplitude
    rows, so building it costs O(K N). Before any is built, a sector above
    DEFAULT_N_MAX = 256 particles is refused with SectorTooLarge, since
    callers may densify the result (``.matrix``, an eigensolve); state files
    and scans are bounded by MAX_EXPANDED_SIZE instead.
    """
    parts = [part for _, part in _ensemble_sectors(ensemble)]
    top = max(part.n_total for part in parts)
    if top > DEFAULT_N_MAX:
        raise SectorTooLarge(f"sector N={top} exceeds the dense-matrix cap n_max={DEFAULT_N_MAX}")
    densities = []
    for part in parts:
        weights, z, phi = part.params
        densities.append(SectorDensity.from_factors(weights, _coherent_rows(part.n_total, z, phi)))
    if isinstance(ensemble, SeparableEnsemble):
        return densities[0]
    return NumberSectorMixture(tuple(zip((p for _, p in ensemble.number_weights), densities)))


# --- seeded sampling ----------------------------------------------------------


# The hash constants of numpy's SeedSequence, tabulated: the k-th hash of
# a seed's entropy pool takes INIT * MULT^k and INIT * MULT^(k + 1) (mod
# 2^32) whatever the data, 16 of them to fill and mix a pool of four words,
# and 8 more of their own to give the eight words PCG64 seeds itself from.
def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    constants = [init]
    for _ in range(count):
        constants.append(constants[-1] * mult & 0xFFFFFFFF)
    return np.array(constants, dtype=np.uint32)


_POOL_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_STATE_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_LEFT, _MIX_RIGHT, _XSHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
_OTHER_WORDS = [[d for d in range(4) if d != s] for s in range(4)]


def _hashmix(values: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of (..., n) uint32 values against a run of
    n + 1 constants, all in uint32 so that no promotion rule matters."""
    values = (values ^ constants[:-1]) * constants[1:]
    return values ^ (values >> _XSHIFT)


def _seed_words(seeds) -> np.ndarray:
    """(S, 4) uint64 words, np.random.SeedSequence(s).generate_state(4,
    np.uint64) of each seed s, from one vectorized pass of SeedSequence's
    hash over the S seeds. A seed's entropy is its low and high 32-bit
    words; a seed below 2^32 has only the low one, and SeedSequence pads
    its pool with hashes of 0, so it hashes as if the high word were 0.
    Seeds outside [0, 2^64) are a ValueError. The words are put together
    with shifts, so they hold on any byte order."""
    if not (isinstance(seeds, np.ndarray) and seeds.dtype.kind in "iu"):
        # a list mixing ints past 2^63 with others makes a float64 array
        seeds = np.array([operator.index(s) for s in seeds], dtype=object)
    if seeds.size and not (int(seeds.min()) >= 0 and int(seeds.max()) < 2**64):
        raise ValueError("child seeds must be integers in [0, 2**64)")
    seeds = seeds.astype(np.uint64)
    pool = np.zeros((seeds.size, 4), dtype=np.uint32)
    pool[:, 0] = seeds & np.uint64(0xFFFFFFFF)
    pool[:, 1] = seeds >> np.uint64(32)
    pool = _hashmix(pool, _POOL_HASH[:5])
    # each word in turn is hashed into every other word
    for source, others in enumerate(_OTHER_WORDS):
        hashed = _hashmix(pool[:, source, None], _POOL_HASH[4 + 3 * source : 8 + 3 * source])
        mixed = pool[:, others] * _MIX_LEFT - hashed * _MIX_RIGHT
        pool[:, others] = mixed ^ (mixed >> _XSHIFT)
    state = _hashmix(np.tile(pool, 2), _STATE_HASH).astype(np.uint64)
    return state[:, 0::2] | (state[:, 1::2] << np.uint64(32))


@functools.cache
def _seed_words_type() -> type:
    """The SeedSequence of a seed whose words _seed_words has computed, as
    PCG64 asks for it: generate_state(4, np.uint64) gives those words. The
    class is made on first use, because importing numpy.random (about 5 MB
    and 9 ms) is left to the commands that draw."""

    class SeedWords(np.random.bit_generator.ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise NotImplementedError("only PCG64's four uint64 words are known")
            return self.words

    return SeedWords


def _child_generator(words: np.ndarray) -> np.random.Generator:
    """The generator default_rng(seed) gives, for the seed whose
    _seed_words row is `words`: PCG64 seeds itself in C from them."""
    return np.random.Generator(np.random.PCG64(_seed_words_type()(words)))


def _fill_sectors(rng: np.random.Generator, draws: np.ndarray) -> None:
    """Draw each (3K,) row of `draws`, one sector of K components, from
    `rng` in turn, in place, in two generator calls: 2K uniforms, then K
    unit gammas. _components maps them to (weights, z, phi)."""
    uniforms = 2 * (draws.shape[-1] // 3)
    for sector in draws:
        rng.random(out=sector[:uniforms])
        rng.standard_gamma(1.0, out=sector[uniforms:])


def _components(draws: np.ndarray) -> np.ndarray:
    """(3, ..., K) weights, z and phi of (..., 3K) sector draws made by
    _fill_sectors, in one pass over all of them: z uniform on [0,1), phi
    uniform on [-pi,pi), weights from a flat Dirichlet simplex draw.

    For each sector this is, bit for bit, what the three calls
    rng.random(K), rng.uniform(-pi, pi, K) and rng.dirichlet(np.ones(K))
    give from the same words: z the first K uniforms, phi the next K mapped
    to -pi + 2 pi u as uniform maps them, the weights the K gammas scaled
    by the reciprocal of their sum taken in order, as dirichlet does for
    alpha >= 0.1 (g.sum() adds pairwise past 8 terms, which can move the
    last bit). Both maps are elementwise or in-order sums, so a chunk of
    sectors gives each sector's values."""
    k = draws.shape[-1] // 3
    components = np.empty((3, *draws.shape[:-1], k))
    weights, z, phi = components
    gammas = draws[..., 2 * k :]
    np.multiply(gammas, 1.0 / np.add.accumulate(gammas, axis=-1)[..., -1:], out=weights)
    z[...] = draws[..., :k]
    np.multiply(draws[..., k : 2 * k], 2.0 * math.pi, out=phi)
    phi += -math.pi
    return components


def _draw_sectors(rng: np.random.Generator, sectors: int, n_components: int) -> np.ndarray:
    """(3, J, K) weights, z and phi of J = `sectors` sectors of K =
    n_components components, drawn from `rng` in turn (_fill_sectors,
    _components), as every sampler draws them."""
    if n_components < 1:
        raise ValueError("need at least one component")
    draws = np.empty((sectors, 3 * n_components))
    _fill_sectors(rng, draws)
    return _components(draws)


def _draw_components(rng: np.random.Generator, n_components: int) -> np.ndarray:
    """(weights, z, phi) of one sector's K = n_components components, each
    (K,), drawn from `rng` as _draw_sectors draws a sector."""
    return _draw_sectors(rng, 1, n_components)[:, 0]


def _check_draws(weights, z, phi) -> None:
    """The checks of CoherentSpinState and SeparableEnsemble on (..., K)
    arrays of drawn components (a NaN fails every comparison)."""
    if not (((z >= 0.0) & (z <= 1.0)).all() and (np.abs(phi) <= math.pi).all()):
        raise ValueError("drawn components leave z in [0, 1] or phi in [-pi, pi]")
    _check_weights(weights, "drawn components'")


def sample_ensemble(seed: int, n_total: int, n_components: int) -> SeparableEnsemble:
    """Seeded random ensemble: z uniform on [0,1), phi uniform on [-pi,pi),
    weights from a flat Dirichlet simplex draw, all from the two generator
    calls of _draw_sectors, equal bit for bit to the three calls random,
    uniform and dirichlet. Same seed, same ensemble."""
    return _ensembles([n_total], _draw_components(np.random.default_rng(seed), n_components), [n_components])[0]


def sample_fluctuating_ensemble(
    seed: int, distribution: NumberDistribution, n_components: int
) -> FluctuatingEnsemble:
    """Seeded fluctuating-number ensemble with an independent random
    separable ensemble in every sector the distribution supports, drawn
    from one generator in ascending N."""
    number_weights = distribution.weights()
    numbers = [n for n, _ in number_weights]
    sectors = _draw_sectors(np.random.default_rng(seed), len(numbers), n_components)
    ensembles = _ensembles(numbers, sectors.reshape(3, -1), [n_components] * len(numbers))
    return FluctuatingEnsemble(number_weights, dict(zip(numbers, ensembles)))


# --- closed-form collective-spin moments --------------------------------------


def analytic_spin_moments(ensemble) -> tuple[float, float, float]:
    """(<J_x>, <J_y>, Var J_z) from the ensemble parameters alone.

    A component |z_k, phi_k>^{x N} has <J_x> = N r_k cos phi_k and <J_y> =
    -N r_k sin phi_k (r_k = sqrt(z_k(1-z_k)); the sign follows from the
    ladder convention a|z,phi;N> = sqrt(N z) e^{i phi} |z,phi;N-1>), <J_z>
    = N (z_k - 1/2) and Var J_z = N z_k(1-z_k). The means mix with the
    weights w_k and p_N, the variance by the law of total variance:
        Var J_z = sum_N p_N [N sum_k w_k z_k(1-z_k) + N^2 sum_k w_k (z_k - zbar_N)^2]
                  + sum_N p_N (mu_N - mu)^2,
    zbar_N = sum_k w_k z_k, mu_N = N (zbar_N - 1/2), mu = sum_N p_N mu_N.
    Every term is nonnegative, never a difference of raw moments, so one
    coherent state gives xi^2 = 1 to a few ulp at any N. A fixed N is the
    one-sector case; the scan evaluates the same form through _spin_moments.
    """
    sectors = _ensemble_sectors(ensemble)
    parts = [part for _, part in sectors]
    p = np.array([p for p, _ in sectors])
    n = np.array([part.n_total for part in parts], dtype=float)
    return tuple(float(value) for value in _joined_moments(p, n, _part_moments(parts)))


def _component_groups(parts):
    """Yield (at, weights, z, phi) for the sectors held as components
    (SeparableEnsembles) `parts`, one group per component count K: `at`
    lists the group's positions in parts, and weights, z and phi are its
    (G, K) arrays, stacked from the sectors' params. No sector is padded to
    another's K, so the groups hold sum_j K_j entries in all."""
    depths = {}
    for j, part in enumerate(parts):
        depths.setdefault(part.params.shape[1], []).append(j)
    for depth, at in depths.items():
        yield at, *np.concatenate([parts[j].params for j in at], axis=1).reshape(3, len(at), depth)


def _part_moments(parts) -> np.ndarray:
    """The (4, J) spin moments of _sector_moments for the J sectors held
    as components `parts`, evaluated per component count
    (_component_groups)."""
    moments = np.empty((4, len(parts)))
    for at, weights, z, phi in _component_groups(parts):
        n = np.array([parts[j].n_total for j in at], dtype=float)
        moments[:, at] = _sector_moments(weights, z, phi, n)
    return moments


def _ensemble_sectors(ensemble) -> list:
    """The (p, SeparableEnsemble) sectors of an ensemble in ascending N, a
    fixed N as the one sector (1.0, ensemble); TypeError for any other
    input."""
    if isinstance(ensemble, SeparableEnsemble):
        return [(1.0, ensemble)]
    if isinstance(ensemble, FluctuatingEnsemble):
        return [(p, ensemble.per_sector[n]) for n, p in ensemble.number_weights]
    raise TypeError(f"unsupported ensemble type {type(ensemble).__name__}")


def _spin_moments(number_weights, weights, z, phi) -> tuple:
    """(<J_x>, <J_y>, Var J_z) of the closed form of analytic_spin_moments,
    each (...,), for ensembles given as (..., J, K) component weights, z
    and phi over the J sectors of `number_weights` ((n, p) pairs).

    The sums run in order from 0.0, and cos and sin go through math per
    value, so every value is, bit for bit, the one a scalar loop over the
    components and sectors gives.
    """
    # N as a float: every product below is exact in integers and in floats
    pairs = np.asarray(number_weights, dtype=float)
    n, p = pairs[..., 0], pairs[..., 1]
    return _joined_moments(p, n, _sector_moments(weights, z, phi, n))


def _sector_moments(weights, z, phi, n) -> tuple:
    """Each sector's spin moments, (x, y, <J_z>, Var J_z), each (..., J),
    for (..., J, K) component weights, z and phi at N = n (..., J): x and
    y are <J_x> / N and <J_y> / N, sum_k w_k r_k cos phi_k and -sum_k w_k
    r_k sin phi_k, and <J_z> = N (zbar - 1/2) and Var J_z = N sum_k w_k
    z_k (1 - z_k) + N^2 sum_k w_k (z_k - zbar)^2 are those of
    analytic_spin_moments. Components of weight 0 (zero padding) add exact
    zeros."""
    spread = z * (1.0 - z)
    radius = np.sqrt(spread)
    phases = phi.ravel().tolist()
    cos = np.array([math.cos(v) for v in phases]).reshape(phi.shape)
    sin = np.array([math.sin(v) for v in phases]).reshape(phi.shape)
    mean_z = _in_order(weights * z)
    deviation = z - mean_z[..., None]
    within = n * _in_order(weights * spread) + n * n * _in_order(weights * deviation * deviation)
    return _in_order(weights * radius * cos), -_in_order(weights * radius * sin), n * (mean_z - 0.5), within


def _joined_moments(p, scale, moments) -> tuple:
    """(<J_x>, <J_y>, Var J_z) of sectors mixed with probabilities p over
    the last axis, from each sector's (x, y, <J_z>, Var J_z) `moments`:
    the means are sum_j p_j scale_j x_j and sum_j p_j scale_j y_j (scale N
    for the per-particle means of _sector_moments, 1 for means as they
    are), and the variance joins by the law of total variance, Var J_z =
    sum_j p_j [V_j + (mu_j - mu)^2] with mu = sum_j p_j mu_j. Every sum
    runs in order from 0.0. The one join of every closed form and of the
    witnesses' sectors, whichever route gave their moments."""
    x, y, mean_z, var_z = moments
    weights = p * scale
    between = mean_z - _in_order(p * mean_z)[..., None]
    return _in_order(weights * x), _in_order(weights * y), _in_order(p * (var_z + between * between))


def _in_order(terms: np.ndarray) -> np.ndarray:
    """Sums over the last axis taken in order from 0.0, as a loop would
    (adding 0.0 turns an all-(-0.0) sum into the loop's 0.0)."""
    return np.cumsum(terms, axis=-1)[..., -1] + 0.0
