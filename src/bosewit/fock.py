"""Exact linear algebra on two-mode bosonic number sectors.

A fixed-N two-mode state lives in the (N+1)-dimensional sector spanned by
|k>_a |N-k>_b. Every sector state is held in factored form, rho = sum_i
w_i |v_i><v_i|, as K nonnegative weights and K amplitude rows
(SectorDensity); a pure state (FockVector) is the one-row case, weight 1.
A superselected state carries one sector per particle number
(NumberSectorMixture), and a lone sector is read as the one-sector
mixture (_sectors), so every kernel takes one path. Mode and spin moments
act on the rows by ladder and tridiagonal generator actions, O(K N) per
sector, and every spin variance is taken about its mean. Dense (N+1)^2
matrices appear only where a caller hands one in or asks for one
(``SectorDensity.matrix``, ``generator_matrix``). The package's one table
of tolerances and cutoffs is below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import EigendecompositionFailure, NonHermitianInput

# Dense sector matrices above this dimension are refused by constructors
# that would allocate them implicitly (see separable.ensemble_to_state).
DEFAULT_N_MAX = 256

# Rows and tables of sectors up to this many particles are memoized: the
# ratio rows (_factorials) and the spin coefficients below.
# The correlator loop (witnesses._population_integrals) reads memoized
# ratio rows when its largest sector is this small and streams them above,
# with the same bits either way. Measured without the memos (2-vCPU x86-64,
# OpenBLAS on one thread), a pure N = 50 state took 109-121 us in
# integrated_g2m_orders (66 with them) and 108-119 us in qfi (84-98), and
# witness_mix lost 9% throughput.
_MEMO_N_MAX = 256

# --- tolerances and cutoffs: every one of the package, absolute unless noted --
# input checks: a value outside its tolerance is refused
_NORM_GUARD = 1e-8  # |amplitudes|^2 of a FockVector against 1
_STATE_NORM_TOL = 1e-10  # |phi| of a povm.SingleParticleState against 1
_TRACE_TOL = 1e-10  # trace of a sector density against 1
_WEIGHT_SUM_TOL = 1e-10  # weights of a mixture, ensemble or draw against 1
_INPUT_WEIGHT_SUM_TOL = 1e-9  # weights in a state file or a POVM ensemble against 1
_UNIT_TOL = 1e-12  # |n| of a generator direction against 1
_HERMITICITY_TOL = 1e-12  # max |rho - rho^dag| of a dense density
_EIG_HERMITICITY_TOL = 1e-10  # max |A - A^dag| of a matrix hermitian_eig takes
_ELEMENT_HERMITICITY_TOL = 1e-10  # max |E - E^dag| of a POVM element
_PSD_TOL = 1e-10  # how far below 0 an eigenvalue of a dense density may go
_POSITIVITY_TOL = 1e-12  # how far below 0 an eigenvalue of a POVM element may go
_COMPLETENESS_TOL = 1e-10  # max |sum E - I| of a POVM
# cutoffs: a quantity at or below its cutoff counts as zero
_SPECTRAL_CUTOFF = 1e-12  # eigenvalues of a density at or below it are not its support
_AMPLITUDE_FLUSH = 1e-150  # |sqrt(w) v| below it is zero in F_Q: no subnormal products
_DEGENERATE_PRODUCT = 1e-24  # G_aa G_bb at or below it: C_2m is 0/0
_EMPTY_STATE_TOL = 1e-12  # <N> at or below it: eta^2 has no reference
_MEAN_SPIN_GUARD = 1e-18  # <J_x>^2 + <J_y>^2 at or below it x max(n^2, 1): no xi^2
_NORMALIZED_FLOOR = 1e-250  # normalized correlator sums below it are redone in logs
_POISSON_MASS = 1.0 - 1e-12  # cumulative mass at which a Poisson support ends
_DRAW_NORM_GUARD = 1e-8  # Gaussian draws of smaller norm give no scan direction
_DEGENERATE_DRAW = 1e-12  # smallest eigenvalue of a random POVM's sum at or below it
# verdict margin: a witness flags entanglement only this x max(1, |bound|) past its bound
WITNESS_TOLERANCE = 1e-9  # the one margin of every bound, in witness reports and scans


@dataclass(frozen=True, eq=False, init=False)
class SectorDensity:
    """Positive semidefinite unit-trace density on one fixed-N sector,
    held as factors: rho = sum_i weights[i] |vectors[i]><vectors[i]|.

    ``weights`` has shape (K,) and ``vectors`` shape (K, N+1); both are
    read-only. ``SectorDensity(matrix)`` takes a dense hermitian matrix
    and factorizes it once by its eigendecomposition, keeping eigenvalues
    above 1e-12 and refusing any below -1e-10 (not positive semidefinite).
    ``from_factors`` builds one from weights and rows directly, with no
    dense matrix and no eigensolve; every separable ensemble is built that
    way, and a pure state is the subclass FockVector, one row of weight 1.
    """

    weights: np.ndarray
    vectors: np.ndarray

    def __init__(self, matrix):
        mat = _hermitian(matrix, "density", _HERMITICITY_TOL)
        trace = float(mat.trace().real)
        if abs(trace - 1.0) > _TRACE_TOL:
            raise ValueError(f"density trace is {trace!r}, expected 1")
        evals, evecs = hermitian_eig(mat)
        if evals[0] < -_PSD_TOL:
            raise ValueError(
                f"density has eigenvalue {float(evals[0])!r} below -{_PSD_TOL:g}; "
                "it is not positive semidefinite"
            )
        keep = evals > _SPECTRAL_CUTOFF
        self._set(evals[keep], evecs[:, keep].T)

    @classmethod
    def from_factors(cls, weights, vectors) -> "SectorDensity":
        """The density sum_i weights[i] |vectors[i]><vectors[i]|.

        Weights must be finite and nonnegative, rows finite, and the trace
        sum_i weights[i] |vectors[i]|^2 within 1e-10 of 1. Rows need not be
        orthogonal, distinct or fewer than N+1.
        """
        w = np.array(weights, dtype=float, copy=True)
        vecs = np.array(vectors, dtype=np.complex128, copy=True)
        if w.ndim != 1 or vecs.ndim != 2 or vecs.shape[0] != w.size or vecs.size == 0:
            raise ValueError("factors must be K weights and a (K, N+1) array of rows")
        _check_factors(w, vecs)
        # K weighted rows are no pure state, so never a FockVector
        density = SectorDensity.__new__(SectorDensity)
        density._set(w, vecs)
        return density

    def _set(self, weights: np.ndarray, vectors: np.ndarray) -> None:
        weights.setflags(write=False)
        vectors.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "vectors", vectors)

    @property
    def n_total(self) -> int:
        return self.vectors.shape[1] - 1

    @property
    def matrix(self) -> np.ndarray:
        """The dense (N+1) x (N+1) matrix, built on each access."""
        mat = (self.vectors.T * self.weights) @ self.vectors.conj()
        mat.setflags(write=False)
        return mat

    @classmethod
    def from_pure(cls, state: FockVector) -> "SectorDensity":
        """A plain SectorDensity copy of a pure state's one row, whose norm
        the FockVector has judged already."""
        density = SectorDensity.__new__(SectorDensity)
        density._set(np.ones(1), np.array(state.vectors))
        return density

    @property
    def mean_n(self) -> float:
        return float(self.n_total)

    def occupation_probabilities(self) -> np.ndarray:
        return _factor_populations(self.weights, self.vectors)


class FockVector(SectorDensity):
    """Pure two-mode state at fixed particle number: the one-row sector of
    weight 1.

    ``amplitudes[k]`` multiplies |k>_a |n_total - k>_b; the constructor
    takes a complex 1-D vector whose norm^2 is within 1e-8 of 1.
    ``amplitudes`` is the read-only row ``vectors[0]``. A pure state may
    hold up to 10^6 particles, so it offers no dense ``matrix``;
    ``SectorDensity.from_pure(state).matrix`` builds one.
    """

    def __init__(self, amplitudes):
        arr = np.array(amplitudes, dtype=np.complex128, copy=True)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("amplitudes must form a non-empty 1-D sequence")
        _check_finite(arr, "amplitudes")
        norm_sq = float(np.sum(np.abs(arr) ** 2))
        if abs(norm_sq - 1.0) > _NORM_GUARD:
            raise ValueError(f"amplitude norm^2 is {norm_sq!r}, expected 1")
        self._set(np.ones(1), arr[None])

    @property
    def amplitudes(self) -> np.ndarray:
        return self.vectors[0]

    @property
    def matrix(self):
        raise AttributeError("a FockVector offers no dense matrix; use SectorDensity.from_pure")


def basis_state(n_total: int, k: int) -> FockVector:
    """The number state |k>_a |n_total - k>_b."""
    if n_total < 0:
        raise ValueError("particle number must be nonnegative")
    if not 0 <= k <= n_total:
        raise ValueError(f"occupation k={k} outside sector 0..{n_total}")
    amps = np.zeros(n_total + 1, dtype=np.complex128)
    amps[k] = 1.0
    return FockVector(amps)


def twin_fock(n_total: int) -> FockVector:
    """The balanced number state |N/2>_a |N/2>_b (N even and positive)."""
    if n_total <= 0 or n_total % 2:
        raise ValueError("twin-Fock state needs a positive even particle number")
    return basis_state(n_total, n_total // 2)


def _check_factors(weights: np.ndarray, vectors: np.ndarray) -> None:
    """The contract of factored sectors, checked over a whole stack:
    weights (..., K) finite and nonnegative, rows (..., K, W) finite, and
    each sector's trace sum_i weights[i] |vectors[i]|^2 within 1e-10 of 1.
    Raises ValueError naming the first failure."""
    if not np.all(np.isfinite(weights)) or np.any(weights < 0.0):
        raise ValueError("factor weights must be finite and nonnegative")
    _check_finite(vectors, "factor rows")
    traces = np.sum(weights * np.sum(np.abs(vectors) ** 2, axis=-1), axis=-1)
    bad = np.abs(traces - 1.0) > _TRACE_TOL
    if np.any(bad):
        raise ValueError(f"density trace is {float(traces[bad].flat[0])!r}, expected 1")


def _check_finite(values: np.ndarray, what: str) -> None:
    """The contract of finite arrays: ValueError(f"{what} must be finite")
    unless every entry of `values` is finite. A complex array (contiguous
    along its last axis) is read through its float view, in one pass."""
    if np.iscomplexobj(values):
        values = values.view(values.real.dtype)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} must be finite")


def _hermitian(matrix, what: str, tol: float) -> np.ndarray:
    """The contract of hermitian matrices: a non-empty square matrix with
    finite entries and max |A - A^dag| <= `tol` (one of the hermiticity
    tolerances above). Returns (A + A^dag)/2 as a new complex array; raises
    ValueError naming `what`, NonHermitianInput (a ValueError) for a
    deviation past `tol`."""
    mat = np.ascontiguousarray(matrix, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] == 0:
        raise ValueError(f"{what} must be a non-empty square matrix")
    _check_finite(mat, f"{what} entries")
    deviation = float(np.max(np.abs(mat - mat.conj().T)))
    if deviation > tol:
        raise NonHermitianInput(
            f"{what} deviates from hermiticity by {deviation:.3e} (tolerance {tol:g})"
        )
    return (mat + mat.conj().T) / 2.0


def _check_weights(weights, what: str, tol: float = _WEIGHT_SUM_TOL) -> np.ndarray:
    """The contract of probability weights, over the last axis of an array:
    at least one, each finite and nonnegative, and each set summing to 1
    within `tol` (_WEIGHT_SUM_TOL; _INPUT_WEIGHT_SUM_TOL for weights read
    from input). Returns the weights as a float array; raises ValueError
    naming `what` and the first failure."""
    w = np.asarray(weights, dtype=float)
    if w.size == 0:
        raise ValueError(f"need at least one {what} weight")
    bad = ~(np.isfinite(w) & (w >= 0.0))
    if bad.any():
        raise ValueError(f"{what} weight {float(w[bad][0])!r} must be finite and nonnegative")
    sums = np.sum(w, axis=-1)
    off = np.abs(sums - 1.0) > tol
    if off.any():
        raise ValueError(f"{what} weights sum to {float(sums[off].flat[0])!r}, expected 1")
    return w


def _factor_populations(weights: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Occupation probabilities sum_i weights[i] |vectors[i, k]|^2 of factored
    sectors: (K,) weights and (K, W) rows give (W,), a (..., K) and
    (..., K, W) stack gives (..., W)."""
    populations = (weights[..., None, :] @ (np.abs(vectors) ** 2))[..., 0, :]
    return np.clip(populations, 0.0, None)


@dataclass(frozen=True, eq=False)
class NumberSectorMixture:
    """Probability-weighted sector states, one per particle number.

    Cross-sector coherence is unrepresentable by construction, which is
    exactly the superselection structure of particle-number-conserving
    sources. Sectors are kept sorted by particle number. A sector is a
    SectorDensity (held as rows) or a separable.SeparableEnsemble (held as
    product components), as a state file that mixes basis states with
    coherent kinds builds it; only the witnesses read the second kind.
    """

    sectors: tuple

    def __post_init__(self):
        from .separable import SeparableEnsemble  # separable imports this module

        entries = tuple(self.sectors)
        for _, sector in entries:
            if not isinstance(sector, (SectorDensity, SeparableEnsemble)):
                raise TypeError("mixture entries must be (weight, SectorDensity or SeparableEnsemble)")
        entries = sorted(entries, key=lambda e: e[1].n_total)
        numbers = [s.n_total for _, s in entries]
        if len(set(numbers)) != len(numbers):
            raise ValueError("duplicate particle-number sector in mixture")
        weights = _check_weights([w for w, _ in entries], "sector").tolist()
        object.__setattr__(self, "sectors", tuple(zip(weights, (s for _, s in entries))))

    @property
    def mean_n(self) -> float:
        return float(sum(w * s.n_total for w, s in self.sectors))


def _sectors(state) -> tuple:
    """The (weight, SectorDensity) pairs of a state held as rows: a number
    mixture's sectors, or a lone sector (a pure state among them) as the
    one-sector mixture ((1.0, state),). Any other type, a mixture with a
    sector held as components among them, raises TypeError."""
    if isinstance(state, NumberSectorMixture):
        if not all(isinstance(sector, SectorDensity) for _, sector in state.sectors):
            raise TypeError("a sector held as product components has no amplitude rows")
        return state.sectors
    if isinstance(state, SectorDensity):
        return ((1.0, state),)
    raise TypeError(f"unsupported state type {type(state).__name__}")


@dataclass(frozen=True, eq=False)
class GeneratorSpec:
    """Unit direction picking the collective-spin generator J_n = n . J.

    J_x = (a^dag b + b^dag a)/2, J_y = (a^dag b - b^dag a)/2i,
    J_z = (a^dag a - b^dag b)/2.
    """

    direction: np.ndarray

    def __post_init__(self):
        vec = _unit_directions(self.direction, 1)
        vec.setflags(write=False)
        object.__setattr__(self, "direction", vec)

    @classmethod
    def from_vector(cls, vector) -> "GeneratorSpec":
        """Normalize an arbitrary finite nonzero 3-vector into a generator.
        Where v / |v| is no unit vector, because |v|^2 underflowed or
        overflowed, v is first divided by its largest |entry|."""
        vec = np.asarray(vector, dtype=float)
        if vec.shape != (3,):
            raise ValueError("direction must be a 3-vector")
        top = float(np.max(np.abs(vec)))
        if not (math.isfinite(top) and top > 0.0):
            raise ValueError("direction must be finite and nonzero")
        with np.errstate(all="ignore"):
            try:
                return cls(vec / np.linalg.norm(vec))
            except ValueError:
                vec = vec / top
                return cls(vec / np.linalg.norm(vec))

    @classmethod
    def axis(cls, name: str) -> "GeneratorSpec":
        try:
            idx = "xyz".index(name)
        except ValueError:
            raise ValueError(f"unknown axis {name!r}, expected x, y or z") from None
        vec = np.zeros(3)
        vec[idx] = 1.0
        return cls(vec)

    def key(self) -> tuple[float, float, float]:
        """Hashable identity used when reporting per-generator results."""
        return (float(self.direction[0]), float(self.direction[1]), float(self.direction[2]))


def _unit_directions(values, ndim: int) -> np.ndarray:
    """The contract of generator directions: a float copy of `values` with
    `ndim` axes (1 for one direction, 2 for a (k, 3) stack), the last
    holding finite 3-vectors of unit norm within 1e-12. Raises ValueError."""
    vec = np.array(values, dtype=float)
    # a NaN or an infinity makes its norm fail the comparison
    if vec.ndim != ndim or vec.shape[-1] != 3 or not all(
        abs(math.hypot(*row) - 1.0) <= _UNIT_TOL for row in vec.reshape(-1, 3).tolist()
    ):
        shape = "(3,)" if ndim == 1 else "(k, 3)"
        raise ValueError(f"directions must be finite unit 3-vectors in a {shape} array")
    return vec


# --- ladder actions ---------------------------------------------------------
# a |k, N-k> = sqrt(k) |k-1, N-k>  and  b |k, N-k> = sqrt(N-k) |k, N-1-k>;
# both land in sector N-1, so a sector-N amplitude vector just shrinks by one
# entry per application. A vector of size zero is the annihilated result.
# The actions work on the last axis, so a (K, N+1) stack of rows is K vectors.


def _apply_a(vec: np.ndarray) -> np.ndarray:
    k = np.arange(1, vec.shape[-1])
    return np.sqrt(k) * vec[..., 1:]


def _apply_b(vec: np.ndarray) -> np.ndarray:
    n = vec.shape[-1] - 1
    k = np.arange(0, max(n, 0))
    return np.sqrt(n - k) * vec[..., :-1]


def _lower(vec: np.ndarray, n_a: int, n_b: int) -> np.ndarray:
    """b^n_b a^n_a applied to an amplitude vector or a stack of rows."""
    for _ in range(n_a):
        vec = _apply_a(vec)
    for _ in range(n_b):
        vec = _apply_b(vec)
    return vec


def normally_ordered_moment(state, p: int, q: int, r: int, s: int) -> complex:
    """<a^dag^p b^dag^q b^r a^s> by repeated ladder action.

    Exactly zero whenever p + q != r + s (particle-number conservation
    kills every off-diagonal block) or when the annihilators exhaust each
    occupied basis component. With the rows u_i = sqrt(w_i) v_i of a
    sector, the moment is one overlap of the stacks b^q a^p u and b^r a^s
    u, O((p+q) K N); a pure state is the case K = 1, and a number mixture
    weights its sectors' moments.
    """
    for name, value in (("p", p), ("q", q), ("r", r), ("s", s)):
        if not isinstance(value, (int, np.integer)) or value < 0:
            raise ValueError(f"{name} must be a nonnegative integer")
    if p + q != r + s:
        return 0j
    total = 0j
    for weight, sector in _sectors(state):
        if r + s <= sector.n_total:
            rows = np.sqrt(sector.weights)[:, None] * sector.vectors
            ket = _lower(rows, s, r)
            # a diagonal moment (p, q) = (s, r) is the squared norm of the ket
            bra = ket if (p, q) == (s, r) else _lower(rows, p, q)
            total += weight * complex(np.vdot(bra, ket))
    return total


# --- collective-spin generators ----------------------------------------------


def _build_spin_coefficients(n: int, width: int) -> tuple:
    k = np.arange(width)
    diagonal = np.where(k <= n, k - n / 2.0, 0.0)
    j = k[1:]
    coupling = 0.5 * np.sqrt(np.maximum(j * (n - j + 1.0), 0.0))
    diagonal.setflags(write=False)
    coupling.setflags(write=False)
    return diagonal, coupling


# Tables of sectors up to _MEMO_N_MAX padded to at most _MEMO_N_MAX + 1
# columns are memoized (at most 1024 x 2 x 257 x 8 B = 4.2 MB); a per-sector
# report asks for the same few dozen again and again, and so do a scan's
# runs with K > N + 1, its only route to _axis_actions.
_cached_spin_coefficients = lru_cache(maxsize=1024)(_build_spin_coefficients)


def _spin_coefficients(n: int, width: int) -> tuple:
    """(diagonal, coupling) of an n-particle sector padded to `width`
    columns: J_z has k - n/2 on its diagonal and J_x, J_y couple k-1 and k
    through 0.5 sqrt(k (n - k + 1)); both are zero past k = n. Read-only."""
    if width <= _MEMO_N_MAX + 1:
        return _cached_spin_coefficients(n, width)
    return _build_spin_coefficients(n, width)


def _axis_actions(rows: np.ndarray, numbers) -> np.ndarray:
    """J_x, J_y and J_z applied to each amplitude row of a padded (B, K, W)
    stack, as one (B, 3, K, W) array (the tridiagonal actions, O(B K W)).

    Sector b holds numbers[b] particles in the first numbers[b] + 1
    columns of its rows. Past that, both the coupling and the diagonal
    are zero, so padding columns neither feed nor receive any amplitude.
    """
    tables = [_spin_coefficients(int(n), rows.shape[-1]) for n in numbers]
    diagonal = np.array([d for d, _ in tables])[:, None, :]
    coupling = np.array([c for _, c in tables])[:, None, :]
    out = np.empty((rows.shape[0], 3) + rows.shape[1:], dtype=np.complex128)
    jx, jy, jz = out[:, 0], out[:, 1], out[:, 2]
    # raised (a^dag b, onto k = 1..W-1) into jx, lowered (b^dag a, onto
    # k = 0..W-2) into jz for the moment: J_x = raised + lowered and
    # J_y = -i (raised - lowered)
    jx[..., 0] = 0.0
    np.multiply(coupling, rows[..., :-1], out=jx[..., 1:])
    jz[..., -1] = 0.0
    np.multiply(coupling, rows[..., 1:], out=jz[..., :-1])
    np.subtract(jx, jz, out=jy)
    jy *= -1j
    jx += jz
    np.multiply(diagonal, rows, out=jz)
    return out


def generator_matrix(n_total: int, g: GeneratorSpec) -> np.ndarray:
    """Dense (N+1) x (N+1) matrix of the collective-spin generator J_n, from
    the sector's spin coefficients."""
    if n_total < 0:
        raise ValueError("particle number must be nonnegative")
    nx, ny, nz = (float(c) for c in g.direction)
    diagonal, coupling = _build_spin_coefficients(n_total, n_total + 1)
    mat = np.zeros((n_total + 1, n_total + 1), dtype=np.complex128)
    k = np.arange(n_total + 1)
    mat[k, k] = nz * diagonal
    mat[k[1:], k[:-1]] = (nx - 1j * ny) * coupling
    mat[k[:-1], k[1:]] = (nx + 1j * ny) * coupling
    return mat


def _spin_mean_covariance(state) -> tuple:
    """(mu, C): the mean (3,) of (J_x, J_y, J_z) and their symmetrized
    covariance (3, 3). With the rows u_i = sqrt(w_i) v_i of a sector, one
    _axis_actions call gives J_a u, mu_a = sum_i Re<u_i|J_a u_i>, and the
    actions, centred in place, give C_ab = sum_i Re<(J_a - mu_a) u_i|(J_b -
    mu_b) u_i>: each variance a sum of nonnegative terms (0 exactly on a
    number state), never a difference of raw moments. Sectors combine by
    the law of total variance, C = sum_N p_N [C_N + (mu_N - mu)(mu_N - mu)^T].
    Peak memory: five times a sector's rows."""
    parts = []
    for weight, sector in _sectors(state):
        rows = np.sqrt(sector.weights)[:, None] * sector.vectors
        # Re<x|y> of complex arrays is the dot product of their float views
        actions = _axis_actions(rows[None], [sector.n_total]).view(float).reshape(3, -1)
        flat = rows.view(float).ravel()
        mean = actions @ flat
        for action, value in zip(actions, mean):
            action -= value * flat
        parts.append((weight, mean, actions @ actions.T))
    mu = sum(weight * mean for weight, mean, _ in parts)
    cov = sum(weight * (cov + np.outer(mean - mu, mean - mu)) for weight, mean, cov in parts)
    return mu, cov


def angular_moments(state, g: GeneratorSpec) -> tuple[float, float]:
    """(<J_n>, Var J_n) = (n . mu, n^T C n) of _spin_mean_covariance, for a
    pure state, sector density, or mixture."""
    mu, cov = _spin_mean_covariance(state)
    return float(g.direction @ mu), float(g.direction @ cov @ g.direction)


def hermitian_eig(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a hermitian matrix.

    The input must be finite and hermitian within 1e-10 in max-abs
    deviation, else ValueError or NonHermitianInput; solver non-convergence
    surfaces as EigendecompositionFailure. Columns of the returned matrix are the
    eigenvectors, and A V = V diag(w) holds with residual far below
    1e-10 * ||A||_F.
    """
    return _eigh(_hermitian(matrix, "matrix", _EIG_HERMITICITY_TOL))


def _eigh(matrices) -> tuple:
    """np.linalg.eigh of a stack of hermitian matrices; a LAPACK failure is
    raised as EigendecompositionFailure."""
    try:
        return np.linalg.eigh(matrices)
    except np.linalg.LinAlgError as exc:
        raise EigendecompositionFailure(str(exc)) from exc
