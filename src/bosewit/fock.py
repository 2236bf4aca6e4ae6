"""Exact linear algebra on two-mode bosonic number sectors.

A fixed-N two-mode state lives in the (N+1)-dimensional sector spanned by
|k>_a |N-k>_b. Pure states are amplitude vectors over k, mixed states are
hermitian sector densities, and superselected states carry one density per
particle number. Mode moments are evaluated by repeated ladder action on
amplitude vectors, which keeps pure-state expectation values O(N); dense
operator matrices appear only where rotations, mixed states, or
eigendecompositions genuinely need them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EigendecompositionFailure, NonHermitianInput

# Dense sector matrices above this dimension are refused by constructors
# that would allocate them implicitly (see separable.ensemble_to_state).
DEFAULT_N_MAX = 256

_NORM_GUARD = 1e-8
_HERMITICITY_TOL = 1e-12
_EIG_HERMITICITY_TOL = 1e-10
_TRACE_TOL = 1e-10
_WEIGHT_SUM_TOL = 1e-10
_UNIT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class FockVector:
    """Pure two-mode state at fixed particle number.

    ``amplitudes[k]`` multiplies |k>_a |n_total - k>_b; the vector is
    complex, one-dimensional and unit-norm.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = np.array(self.amplitudes, dtype=np.complex128, copy=True)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("amplitudes must form a non-empty 1-D sequence")
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise ValueError("amplitudes must be finite")
        norm_sq = float(np.sum(np.abs(arr) ** 2))
        if abs(norm_sq - 1.0) > _NORM_GUARD:
            raise ValueError(f"amplitude norm^2 is {norm_sq!r}, expected 1")
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)

    @property
    def n_total(self) -> int:
        return self.amplitudes.size - 1

    def occupation_probabilities(self) -> np.ndarray:
        """|amplitude|^2 per mode-a occupation number k."""
        return np.abs(self.amplitudes) ** 2


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


@dataclass(frozen=True, eq=False)
class SectorDensity:
    """Hermitian unit-trace density matrix on one fixed-N sector.

    The stored matrix is symmetrized, so downstream eigensolves see an
    exactly hermitian operand. Positive semidefiniteness is a contract on
    values rather than a per-construction eigensolve; it is exercised by
    the property tests and by every spectral consumer.
    """

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=np.complex128, copy=True)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] == 0:
            raise ValueError("density must be a non-empty square matrix")
        if not np.all(np.isfinite(mat.view(np.float64))):
            raise ValueError("density entries must be finite")
        deviation = float(np.max(np.abs(mat - mat.conj().T)))
        if deviation > _HERMITICITY_TOL:
            raise NonHermitianInput(
                f"density deviates from hermiticity by {deviation:.3e}"
            )
        trace = float(mat.trace().real)
        if abs(trace - 1.0) > _TRACE_TOL:
            raise ValueError(f"density trace is {trace!r}, expected 1")
        mat = (mat + mat.conj().T) / 2.0
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def n_total(self) -> int:
        return self.matrix.shape[0] - 1

    @classmethod
    def from_pure(cls, state: FockVector) -> "SectorDensity":
        return cls(np.outer(state.amplitudes, state.amplitudes.conj()))

    def occupation_probabilities(self) -> np.ndarray:
        return np.clip(self.matrix.diagonal().real, 0.0, None)


@dataclass(frozen=True, eq=False)
class NumberSectorMixture:
    """Probability-weighted sector densities, one per particle number.

    Cross-sector coherence is unrepresentable by construction, which is
    exactly the superselection structure of particle-number-conserving
    sources. Sectors are kept sorted by particle number.
    """

    sectors: tuple

    def __post_init__(self):
        entries = []
        for item in self.sectors:
            weight, sector = item
            w = float(weight)
            if not isinstance(sector, SectorDensity):
                raise TypeError("mixture entries must be (weight, SectorDensity)")
            if not math.isfinite(w) or w < 0.0:
                raise ValueError(f"sector weight {w!r} must be nonnegative")
            entries.append((w, sector))
        if not entries:
            raise ValueError("mixture needs at least one sector")
        entries.sort(key=lambda e: e[1].n_total)
        numbers = [s.n_total for _, s in entries]
        if len(set(numbers)) != len(numbers):
            raise ValueError("duplicate particle-number sector in mixture")
        total = sum(w for w, _ in entries)
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(f"sector weights sum to {total!r}, expected 1")
        object.__setattr__(self, "sectors", tuple(entries))

    @property
    def mean_n(self) -> float:
        return float(sum(w * s.n_total for w, s in self.sectors))


@dataclass(frozen=True, eq=False)
class GeneratorSpec:
    """Unit direction picking the collective-spin generator J_n = n . J.

    J_x = (a^dag b + b^dag a)/2, J_y = (a^dag b - b^dag a)/2i,
    J_z = (a^dag a - b^dag b)/2.
    """

    direction: np.ndarray

    def __post_init__(self):
        vec = np.array(self.direction, dtype=float, copy=True)
        if vec.shape != (3,) or not np.all(np.isfinite(vec)):
            raise ValueError("direction must be a finite 3-vector")
        if abs(float(np.linalg.norm(vec)) - 1.0) > _UNIT_TOL:
            raise ValueError("direction must have unit norm")
        vec.setflags(write=False)
        object.__setattr__(self, "direction", vec)

    @classmethod
    def from_vector(cls, vector) -> "GeneratorSpec":
        """Normalize an arbitrary nonzero 3-vector into a generator."""
        vec = np.asarray(vector, dtype=float)
        if vec.shape != (3,):
            raise ValueError("direction must be a 3-vector")
        norm = float(np.linalg.norm(vec))
        if not math.isfinite(norm) or norm == 0.0:
            raise ValueError("direction must be finite and nonzero")
        return cls(vec / norm)

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


# --- ladder actions ---------------------------------------------------------
# a |k, N-k> = sqrt(k) |k-1, N-k>  and  b |k, N-k> = sqrt(N-k) |k, N-1-k>;
# both land in sector N-1, so a sector-N amplitude vector just shrinks by one
# entry per application. A vector of size zero is the annihilated result.


def _apply_a(vec: np.ndarray) -> np.ndarray:
    k = np.arange(1, vec.size)
    return np.sqrt(k) * vec[1:]


def _apply_b(vec: np.ndarray) -> np.ndarray:
    n = vec.size - 1
    k = np.arange(0, max(n, 0))
    return np.sqrt(n - k) * vec[:-1]


def _apply_a_rows(mat: np.ndarray) -> np.ndarray:
    k = np.arange(1, mat.shape[0])
    return np.sqrt(k)[:, None] * mat[1:, :]


def _apply_b_rows(mat: np.ndarray) -> np.ndarray:
    n = mat.shape[0] - 1
    k = np.arange(0, max(n, 0))
    return np.sqrt(n - k)[:, None] * mat[:-1, :]


def _apply_a_cols(mat: np.ndarray) -> np.ndarray:
    # right-multiplication by a^dag: (M a^dag)[:, j] = sqrt(j+1) M[:, j+1]
    k = np.arange(1, mat.shape[1])
    return np.sqrt(k)[None, :] * mat[:, 1:]


def _apply_b_cols(mat: np.ndarray) -> np.ndarray:
    n = mat.shape[1] - 1
    k = np.arange(0, max(n, 0))
    return np.sqrt(n - k)[None, :] * mat[:, :-1]


def normally_ordered_moment(state, p: int, q: int, r: int, s: int) -> complex:
    """<a^dag^p b^dag^q b^r a^s> by repeated ladder action.

    Exactly zero whenever p + q != r + s (particle-number conservation
    kills every off-diagonal block) or when the annihilators exhaust each
    occupied basis component. Pure states cost O((p+q) N); densities cost
    O((p+q) N^2) via left action of b^r a^s and right action of the
    daggered pair, then a trace.
    """
    for name, value in (("p", p), ("q", q), ("r", r), ("s", s)):
        if not isinstance(value, (int, np.integer)) or value < 0:
            raise ValueError(f"{name} must be a nonnegative integer")
    if p + q != r + s:
        return 0j
    if isinstance(state, FockVector):
        ket = state.amplitudes
        for _ in range(s):
            ket = _apply_a(ket)
        for _ in range(r):
            ket = _apply_b(ket)
        if ket.size == 0:
            return 0j
        bra = state.amplitudes
        for _ in range(p):
            bra = _apply_a(bra)
        for _ in range(q):
            bra = _apply_b(bra)
        return complex(np.vdot(bra, ket))
    if isinstance(state, SectorDensity):
        if r + s > state.n_total:
            return 0j
        mat = state.matrix
        for _ in range(s):
            mat = _apply_a_rows(mat)
        for _ in range(r):
            mat = _apply_b_rows(mat)
        for _ in range(p):
            mat = _apply_a_cols(mat)
        for _ in range(q):
            mat = _apply_b_cols(mat)
        return complex(np.trace(mat))
    raise TypeError(f"unsupported state type {type(state).__name__}")


# --- collective-spin generators ----------------------------------------------


def _apply_generator(vec: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """J_n applied to a sector amplitude vector (tridiagonal action, O(N))."""
    n = vec.size - 1
    nx, ny, nz = (float(c) for c in direction)
    k = np.arange(n + 1)
    out = (nz * (k - n / 2.0)) * vec
    if n > 0:
        j = np.arange(1, n + 1)
        coupling = 0.5 * np.sqrt(j * (n - j + 1.0))
        out[1:] += (nx - 1j * ny) * coupling * vec[:-1]
        out[:-1] += (nx + 1j * ny) * coupling * vec[1:]
    return out


def _generator_dense(n_total: int, vector) -> np.ndarray:
    """Dense matrix of vector . J (the vector need not be unit length)."""
    nx, ny, nz = (float(c) for c in vector)
    dim = n_total + 1
    mat = np.zeros((dim, dim), dtype=np.complex128)
    k = np.arange(dim)
    mat[k, k] = nz * (k - n_total / 2.0)
    if n_total > 0:
        j = np.arange(1, dim)
        coupling = 0.5 * np.sqrt(j * (n_total - j + 1.0))
        mat[j, j - 1] = (nx - 1j * ny) * coupling
        mat[j - 1, j] = (nx + 1j * ny) * coupling
    return mat


def generator_matrix(n_total: int, g: GeneratorSpec) -> np.ndarray:
    """Dense (N+1) x (N+1) matrix of the collective-spin generator J_n."""
    if n_total < 0:
        raise ValueError("particle number must be nonnegative")
    return _generator_dense(n_total, g.direction)


def _generator_first_two(state, g: GeneratorSpec) -> tuple[float, float]:
    if isinstance(state, FockVector):
        jv = _apply_generator(state.amplitudes, g.direction)
        mean = float(np.vdot(state.amplitudes, jv).real)
        second = float(np.vdot(jv, jv).real)
        return mean, second
    if isinstance(state, SectorDensity):
        jmat = generator_matrix(state.n_total, g)
        w = state.matrix @ jmat
        mean = float(np.trace(w).real)
        second = float(np.trace(w @ jmat).real)
        return mean, second
    if isinstance(state, NumberSectorMixture):
        mean = 0.0
        second = 0.0
        for weight, sector in state.sectors:
            m1, m2 = _generator_first_two(sector, g)
            mean += weight * m1
            second += weight * m2
        return mean, second
    raise TypeError(f"unsupported state type {type(state).__name__}")


def angular_moments(state, g: GeneratorSpec) -> tuple[float, float]:
    """(<J_n>, Var J_n) for a pure state, sector density, or mixture."""
    mean, second = _generator_first_two(state, g)
    return mean, second - mean * mean


def rotate(state: FockVector, axis) -> FockVector:
    """exp(-i axis . J) |state>; the length of ``axis`` is the angle.

    A zero axis returns the input unchanged. The unitary is applied
    through the eigendecomposition of axis . J, so the norm survives to
    machine precision.
    """
    if not isinstance(state, FockVector):
        raise TypeError("rotate acts on pure FockVector states")
    vec = np.asarray(axis, dtype=float)
    if vec.shape != (3,) or not np.all(np.isfinite(vec)):
        raise ValueError("rotation axis must be a finite 3-vector")
    if np.all(vec == 0.0):
        return state
    evals, evecs = hermitian_eig(_generator_dense(state.n_total, vec))
    phases = np.exp(-1j * evals)
    rotated = evecs @ (phases * (evecs.conj().T @ state.amplitudes))
    return FockVector(rotated)


def aligning_rotation_axis(g: GeneratorSpec) -> np.ndarray:
    """Axis v with exp(i v.J) J_z exp(-i v.J) = J_n.

    Rotating a state by ``rotate(state, v)`` therefore turns statistics of
    J_n into statistics of J_z: Var_{rotated}(J_z) = Var_{state}(J_n).
    """
    nx, ny, nz = (float(c) for c in g.direction)
    angle = math.acos(min(1.0, max(-1.0, nz)))
    if angle < 1e-15:
        return np.zeros(3)
    # rotation axis n x z_hat = (ny, -nx, 0); degenerate only when n ~ -z_hat
    norm = math.hypot(nx, ny)
    if norm < 1e-15:
        return np.array([angle, 0.0, 0.0])
    return (angle / norm) * np.array([ny, -nx, 0.0])


def hermitian_eig(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a hermitian matrix.

    The input must be hermitian within 1e-10 in max-abs deviation, else
    NonHermitianInput; solver non-convergence surfaces as
    EigendecompositionFailure. Columns of the returned matrix are the
    eigenvectors, and A V = V diag(w) holds with residual far below
    1e-10 * ||A||_F.
    """
    mat = np.asarray(matrix, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] == 0:
        raise ValueError("eigendecomposition needs a non-empty square matrix")
    deviation = float(np.max(np.abs(mat - mat.conj().T)))
    if deviation > _EIG_HERMITICITY_TOL:
        raise NonHermitianInput(
            f"matrix deviates from hermiticity by {deviation:.3e} (tolerance 1e-10)"
        )
    try:
        evals, evecs = np.linalg.eigh((mat + mat.conj().T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise EigendecompositionFailure(str(exc)) from exc
    return evals, evecs


def mixture_expectation(
    mix: NumberSectorMixture, sector_functional: Callable[[SectorDensity], float]
) -> float:
    """Probability-weighted sector sum sum_N p_N f(rho_N)."""
    if not isinstance(mix, NumberSectorMixture):
        raise TypeError("mixture_expectation needs a NumberSectorMixture")
    return float(sum(w * float(sector_functional(sector)) for w, sector in mix.sectors))
