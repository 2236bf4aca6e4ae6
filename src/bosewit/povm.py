"""Counting statistics behind arbitrary single-particle measurements.

A POVM {E(xi)} on the single-particle Hilbert space lifts to the second
quantized observable E_hat(xi) = sum_{mu nu} E(xi)_{mu nu} c^dag_mu c_nu.
Coincidence rates between outcome regions then reduce to normally ordered
mode moments, and for separable ensembles the integrated correlators
factor through per-component region responses, which is what makes the
Cauchy-Schwarz bound measurement-independent.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import product as _cartesian
from typing import Sequence

import numpy as np

from ._factorials import falling_factorial
from .errors import (
    DimensionMismatch,
    IncompletePovm,
    NegativeElement,
    OrderTooHigh,
    UnknownLabel,
)
from .fock import (
    _COMPLETENESS_TOL,
    _DEGENERATE_DRAW,
    _ELEMENT_HERMITICITY_TOL,
    _INPUT_WEIGHT_SUM_TOL,
    _POSITIVITY_TOL,
    _STATE_NORM_TOL,
    _check_finite,
    _check_weights,
    _hermitian,
    normally_ordered_moment,
)
from .witnesses import CorrelationIntegrals, _check_order, _product_correlators, _scaled


@dataclass(frozen=True, eq=False)
class PovmElement:
    """One outcome: a label and its hermitian effect matrix, finite and
    hermitian within 1e-10 (else ValueError or NonHermitianInput), kept
    as (E + E^dag)/2."""

    label: str
    matrix: np.ndarray

    def __post_init__(self):
        if not isinstance(self.label, str) or not self.label:
            raise ValueError("outcome label must be a non-empty string")
        mat = _hermitian(self.matrix, f"element {self.label!r}", _ELEMENT_HERMITICITY_TOL)
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class PovmSet:
    """A finite outcome set on a d-dimensional single-particle space."""

    dim: int
    elements: tuple

    def __post_init__(self):
        object.__setattr__(self, "dim", int(self.dim))
        elements = tuple(self.elements)
        if not elements:
            raise ValueError("measurement needs at least one outcome")
        labels = set()
        for element in elements:
            if not isinstance(element, PovmElement):
                raise TypeError("elements must be PovmElement values")
            if element.dim != self.dim:
                raise DimensionMismatch(
                    f"element {element.label!r} has dimension {element.dim}, "
                    f"expected {self.dim}"
                )
            if element.label in labels:
                raise ValueError(f"duplicate outcome label {element.label!r}")
            labels.add(element.label)
        object.__setattr__(self, "elements", elements)

    def labels(self) -> tuple:
        return tuple(e.label for e in self.elements)

    def element(self, label: str) -> PovmElement:
        for candidate in self.elements:
            if candidate.label == label:
                return candidate
        raise UnknownLabel(f"no outcome labelled {label!r} in this measurement")


@dataclass(frozen=True, eq=False)
class OutcomeRegion:
    """A subset of outcome labels integrated into one detector region."""

    labels: frozenset

    def __post_init__(self):
        labels = frozenset(self.labels)
        if not all(isinstance(l, str) and l for l in labels):
            raise ValueError("region labels must be non-empty strings")
        object.__setattr__(self, "labels", labels)

    @classmethod
    def of(cls, *labels: str) -> "OutcomeRegion":
        return cls(frozenset(labels))


@dataclass(frozen=True, eq=False)
class SingleParticleState:
    """A finite single-particle vector |phi> of norm 1 within 1e-10."""

    vector: np.ndarray

    def __post_init__(self):
        vec = np.array(self.vector, dtype=np.complex128, copy=True)
        if vec.ndim != 1 or vec.size == 0:
            raise ValueError("state vector must be non-empty and 1-D")
        _check_finite(vec, "state vector")
        norm = float(np.linalg.norm(vec))
        if abs(norm - 1.0) > _STATE_NORM_TOL:
            raise ValueError(f"state norm {norm!r}, expected 1")
        vec.setflags(write=False)
        object.__setattr__(self, "vector", vec)

    @property
    def dim(self) -> int:
        return self.vector.size

    @classmethod
    def two_mode(cls, z: float, phi: float) -> "SingleParticleState":
        """sqrt(z) e^{i phi} |a> + sqrt(1-z) |b> on the d = 2 mode space."""
        z, phi = float(z), float(phi)
        if not 0.0 <= z <= 1.0:
            raise ValueError(f"population fraction z={z!r} outside [0, 1]")
        if not math.isfinite(phi):
            raise ValueError(f"relative phase phi={phi!r} must be finite")
        return cls(
            np.array(
                [math.sqrt(z) * np.exp(1j * phi), math.sqrt(1.0 - z)],
                dtype=np.complex128,
            )
        )


@dataclass(frozen=True)
class PovmValidation:
    """Successful validation outcome: the measured deviations."""

    completeness_deviation: float
    min_eigenvalue: float


def validate_povm(povm: PovmSet) -> PovmValidation:
    """Check positivity of every element and completeness of their sum.

    Raises NegativeElement naming the offending outcome when any
    eigenvalue drops below -1e-12, and IncompletePovm with the measured
    deviation when max|sum E - I| exceeds 1e-10. Returns the measured
    deviations on success.
    """
    min_eig = math.inf
    for element in povm.elements:
        eigs = np.linalg.eigvalsh(element.matrix)
        low = float(eigs[0])
        if low < -_POSITIVITY_TOL:
            raise NegativeElement(
                f"element {element.label!r} has eigenvalue {low:.3e} below -1e-12"
            )
        min_eig = min(min_eig, low)
    total = np.zeros((povm.dim, povm.dim), dtype=np.complex128)
    for element in povm.elements:
        total = total + element.matrix
    deviation = float(np.max(np.abs(total - np.eye(povm.dim))))
    if deviation > _COMPLETENESS_TOL:
        raise IncompletePovm(
            f"outcome sum deviates from identity by {deviation:.3e} (tolerance 1e-10)"
        )
    return PovmValidation(deviation, min_eig)


def region_response(povm: PovmSet, region: OutcomeRegion, state: SingleParticleState) -> float:
    """Total detection probability sum_{xi in region} <phi|E(xi)|phi>."""
    if state.dim != povm.dim:
        raise DimensionMismatch(
            f"state dimension {state.dim} does not match measurement dimension {povm.dim}"
        )
    unknown = sorted(region.labels - set(povm.labels()))
    if unknown:
        raise UnknownLabel(f"labels {unknown} are not outcomes of this measurement")
    vec = state.vector
    total = 0.0
    for label in sorted(region.labels):
        mat = povm.element(label).matrix
        total += float(np.vdot(vec, mat @ vec).real)
    return total


def integrated_gm_separable(
    povm: PovmSet,
    ensemble: Sequence,
    n_total: int,
    m: int,
    region_a: OutcomeRegion,
    region_b: OutcomeRegion,
) -> CorrelationIntegrals:
    """Integrated order-2m correlators of a separable ensemble behind an
    arbitrary POVM, via per-component region responses:

        G_ij = alpha_2m sum_k w_k F_i(phi_k)^m F_j(phi_k)^m,
        alpha_2m = N!/(N-2m)!,  F_i = region response of region i.

    ``ensemble`` is a sequence of (weight, SingleParticleState) pairs. The
    two regions are conventionally disjoint; overlap triggers a warning
    (not an error) because the bound itself survives. Orders with
    2m > n_total raise OrderTooHigh. A G value past the float range is inf,
    but the sums without alpha_2m travel with the integrals, with their
    logs: they are those of one sector of witnesses._product_correlators
    (a response rounded below 0 taken as 0), so csi_ratio stays finite
    wherever the true ratio is.
    """
    m = _check_order(m)
    if n_total < 0:
        raise ValueError("particle number must be nonnegative")
    if 2 * m > n_total:
        raise OrderTooHigh(f"order 2m = {2 * m} exceeds the particle number {n_total}")
    if region_a.labels & region_b.labels:
        warnings.warn(
            "outcome regions overlap; coincidences double-count shared outcomes",
            RuntimeWarning,
            stacklevel=2,
        )
    pairs = tuple(ensemble)
    weights = _check_weights([w for w, _ in pairs], "ensemble", _INPUT_WEIGHT_SUM_TOL)
    fa, fb = np.array(
        [[region_response(povm, region, state) for _, state in pairs] for region in (region_a, region_b)]
    )
    # a response rounded below 0 is 0, whose powers are 0
    fa, fb = np.maximum(fa, 0.0)[None], np.maximum(fb, 0.0)[None]
    sums, logs, (log_alpha, _, _) = _product_correlators(
        weights[None], fa, fb, np.ones(1), (int(n_total),), (m,)
    )
    sums, logs, log_alpha = sums[:, 0].tolist(), logs[:, 0].tolist(), float(log_alpha[0])
    alpha = falling_factorial(int(n_total), 2 * m)
    g_aa, g_bb, g_ab = (_scaled(value, log, alpha, log_alpha) for value, log in zip(sums, logs))
    return CorrelationIntegrals(m, g_aa, g_bb, g_ab, alpha, (sums, logs, (log_alpha, 1.0, 0.0)))


def second_quantized_g2(state, povm: PovmSet, label_1: str, label_2: str) -> float:
    """Second-order coincidence G2(xi, xi') = <: E_hat(xi) E_hat(xi') :>
    on a two-mode state, expanded into normally ordered mode moments:

        sum_{mu nu rho sigma} E(xi)_{mu nu} E(xi')_{rho sigma}
            <c^dag_mu c^dag_rho c_sigma c_nu>.

    Any state normally_ordered_moment takes is accepted (a number mixture
    weights its sectors). Only d = 2 measurements fit the two-mode sector
    engine; anything else raises DimensionMismatch. Summing over all
    outcome pairs of a complete POVM gives <N(N-1)> exactly.
    """
    if povm.dim != 2:
        raise DimensionMismatch(
            f"two-mode coincidences need d = 2 outcomes, got d = {povm.dim}"
        )
    e1 = povm.element(label_1).matrix
    e2 = povm.element(label_2).matrix
    total = 0j
    for mu, nu, rho, sigma in _cartesian(range(2), repeat=4):
        coeff = e1[mu, nu] * e2[rho, sigma]
        if coeff == 0:
            continue
        p = (mu == 0) + (rho == 0)
        q = (mu == 1) + (rho == 1)
        s = (sigma == 0) + (nu == 0)
        r = (sigma == 1) + (nu == 1)
        total += coeff * normally_ordered_moment(state, p, q, r, s)
    return float(total.real)


def random_complete_povm(rng: np.random.Generator, dim: int, n_elements: int) -> PovmSet:
    """Random complete POVM: positive draws A_i = G_i^dag G_i normalized by
    the inverse square root of their sum, so the set always resolves the
    identity."""
    if dim < 1 or n_elements < 1:
        raise ValueError("need a positive dimension and at least one element")
    draws = []
    for _ in range(n_elements):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        draws.append(g.conj().T @ g)
    total = np.sum(draws, axis=0)
    evals, evecs = np.linalg.eigh(total)
    if float(evals[0]) <= _DEGENERATE_DRAW:
        raise ValueError("degenerate draw; retry with a different generator state")
    inv_sqrt = (evecs * (1.0 / np.sqrt(evals))) @ evecs.conj().T
    elements = tuple(
        PovmElement(f"e{i}", inv_sqrt @ a @ inv_sqrt) for i, a in enumerate(draws)
    )
    return PovmSet(dim, elements)
