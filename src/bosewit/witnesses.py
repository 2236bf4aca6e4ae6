"""Particle-entanglement witnesses for two-mode bosons.

Integrated correlation functions of order 2m,

    G_aa = <a^dag^{2m} a^{2m}>,  G_bb = <b^dag^{2m} b^{2m}>,
    G_ab = <a^dag^m b^dag^m b^m a^m>,

obey the Cauchy-Schwarz inequality G_ab <= sqrt(G_aa G_bb) on every
separable state, so the ratio C_2m = G_ab / sqrt(G_aa G_bb) exceeding one
witnesses particle entanglement. The same logic yields number squeezing
(via an exact variance identity), the quantum Fisher information bound
F_Q <= N, and spin squeezing xi^2 >= 1; this module computes all of them
for pure sector states, sector densities, and fluctuating-number mixtures,
and wraps the verdicts in a report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._factorials import balanced_factorial_ratio, falling_factorial_row
from .errors import (
    DegenerateLocalCorrelation,
    EmptyState,
    OrderTooHigh,
    ZeroMeanSpinDirection,
)
from .fock import (
    DEFAULT_N_MAX,
    FockVector,
    GeneratorSpec,
    NumberSectorMixture,
    SectorDensity,
    angular_moments,
    generator_matrix,
    hermitian_eig,
    normally_ordered_moment,
)
from .separable import (
    FluctuatingEnsemble,
    SeparableEnsemble,
    analytic_spin_moments,
    ensemble_to_state,
)

# A witness flags entanglement only beyond this margin past its bound.
WITNESS_TOLERANCE = 1e-9

_DEGENERATE_PRODUCT = 1e-24
_EMPTY_STATE_TOL = 1e-12
_QFI_SPECTRAL_CUTOFF = 1e-12
_MEAN_SPIN_GUARD = 1e-18


@dataclass(frozen=True)
class CorrelationIntegrals:
    """The three integrated correlators of one order plus the prefactor
    alpha_2m = N!/(N-2m)! shared by all of them."""

    order_m: int
    g_aa: float
    g_bb: float
    g_ab: float
    prefactor_alpha: float


@dataclass(frozen=True)
class WitnessReport:
    """Computed witness values plus boolean verdicts at WITNESS_TOLERANCE."""

    n_reference: float
    csi_by_order: dict = field(default_factory=dict)
    eta2: float | None = None
    xi2: float | None = None
    qfi_by_generator: dict = field(default_factory=dict)
    entangled_by_csi: bool = False
    entangled_by_qfi: bool = False
    entangled_by_spin_squeezing: bool = False

    @property
    def any_entangled(self) -> bool:
        return (
            self.entangled_by_csi
            or self.entangled_by_qfi
            or self.entangled_by_spin_squeezing
        )


# --- integrated correlators -----------------------------------------------------


def _population_integrals(populations: np.ndarray, n: int, m: int) -> CorrelationIntegrals:
    # All three correlators are diagonal in the |k, N-k> basis:
    #   <a^dag^{2m} a^{2m}>          = sum_k P(k) k!/(k-2m)!
    #   <b^dag^{2m} b^{2m}>          = sum_k P(k) (N-k)!/(N-k-2m)!
    #   <a^dag^m b^dag^m b^m a^m>    = sum_k P(k) k!/(k-m)! (N-k)!/(N-k-m)!
    # and the prefactor alpha_2m = N!/(N-2m)! is the last entry of the 2m row.
    ff_a_2m = falling_factorial_row(n, 2 * m)
    ff_b_2m = ff_a_2m[::-1]
    ff_a_m = falling_factorial_row(n, m)
    ff_b_m = ff_a_m[::-1]
    g_aa = float(np.dot(populations, ff_a_2m))
    g_bb = float(np.dot(populations, ff_b_2m))
    g_ab = float(np.dot(populations, ff_a_m * ff_b_m))
    return CorrelationIntegrals(m, g_aa, g_bb, g_ab, float(ff_a_2m[n]))


def integrated_g2m(state, m: int) -> CorrelationIntegrals:
    """Integrated correlators of order 2m for a state or mixture.

    The operators are diagonal in the sector basis, so the values come
    from occupation populations in O(N); the ladder-moment route through
    normally_ordered_moment gives identical numbers and the tests hold the
    two to each other. Orders with 2m > N vanish identically.
    """
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError("correlation order m must be a positive integer")
    m = int(m)
    if isinstance(state, NumberSectorMixture):
        g_aa = g_bb = g_ab = alpha = 0.0
        for weight, sector in state.sectors:
            part = integrated_g2m(sector, m)
            g_aa += weight * part.g_aa
            g_bb += weight * part.g_bb
            g_ab += weight * part.g_ab
            alpha += weight * part.prefactor_alpha
        return CorrelationIntegrals(m, g_aa, g_bb, g_ab, alpha)
    if isinstance(state, (FockVector, SectorDensity)):
        n = state.n_total
        if 2 * m > n:
            return CorrelationIntegrals(m, 0.0, 0.0, 0.0, 0.0)
        return _population_integrals(state.occupation_probabilities(), n, m)
    raise TypeError(f"unsupported state type {type(state).__name__}")


def csi_ratio(integrals: CorrelationIntegrals) -> float:
    """Cauchy-Schwarz ratio C_2m = G_ab / sqrt(G_aa G_bb).

    Separable states satisfy C_2m <= 1; any excess beyond numerical noise
    witnesses particle entanglement. Raises DegenerateLocalCorrelation
    when both local correlators vanish and the ratio is 0/0.
    """
    product = integrals.g_aa * integrals.g_bb
    if product <= _DEGENERATE_PRODUCT:
        raise DegenerateLocalCorrelation(
            f"local correlators G_aa*G_bb = {product!r} too small for a ratio "
            f"at order 2m = {2 * integrals.order_m}"
        )
    return integrals.g_ab / math.sqrt(product)


def twin_fock_csi_exact(n_total: int, m: int) -> float:
    """Closed-form C_2m of the twin-Fock state |N/2, N/2>.

    With n = N/2: C_2m = n! (n-2m)! / ((n-m)!)^2, exceeding 1 for every
    feasible order. Exact to 1 ulp wherever the integer path applies
    (m <= 2048, any N). Orders with 2m > N/2 annihilate the cross
    correlator's constituents and raise OrderTooHigh.
    """
    if n_total <= 0 or n_total % 2:
        raise ValueError("twin-Fock state needs a positive even particle number")
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError("correlation order m must be a positive integer")
    if 2 * m > n_total // 2:
        raise OrderTooHigh(
            f"order 2m = {2 * m} exceeds N/2 = {n_total // 2} for the twin-Fock ratio"
        )
    return balanced_factorial_ratio(n_total // 2, int(m))


def twin_fock_csi_approx(n_total: int, m: int) -> float:
    """Large-N approximation exp(eps^2 N / 2) with eps = 2m/N.

    Accurate to a few percent up to eps ~ 0.1 and to 0.1% for
    eps <= 0.02; the m -> 0 limit is exactly 1.
    """
    if n_total < 2:
        raise ValueError("need at least two particles")
    if m < 0:
        raise ValueError("correlation order must be nonnegative")
    eps = 2.0 * m / n_total
    return math.exp(eps * eps * n_total / 2.0)


# --- number squeezing ------------------------------------------------------------


def _raw_number_moments(state) -> tuple[float, float, float, float, float]:
    """(<n_a>, <n_b>, G_aa, G_bb, G_ab) at order m = 1."""
    if isinstance(state, NumberSectorMixture):
        acc = np.zeros(5)
        for weight, sector in state.sectors:
            acc += weight * np.array(_raw_number_moments(sector))
        return tuple(acc)  # type: ignore[return-value]
    na = normally_ordered_moment(state, 1, 0, 0, 1).real
    nb = normally_ordered_moment(state, 0, 1, 1, 0).real
    gaa = normally_ordered_moment(state, 2, 0, 0, 2).real
    gbb = normally_ordered_moment(state, 0, 2, 2, 0).real
    gab = normally_ordered_moment(state, 1, 1, 1, 1).real
    return na, nb, gaa, gbb, gab


def number_squeezing_direct(state) -> float:
    """eta^2 = Var(n_a - n_b) / <n_a + n_b> from first principles.

    Uses <n_i^2> = <i^dag^2 i^2> + <n_i>, so only normally ordered
    moments enter. Raises EmptyState when the state carries no particles.
    """
    na, nb, gaa, gbb, gab = _raw_number_moments(state)
    n_tot = na + nb
    if n_tot <= _EMPTY_STATE_TOL:
        raise EmptyState(f"total particle number {n_tot!r} is too small")
    second = gaa + na + gbb + nb - 2.0 * gab
    return (second - (na - nb) ** 2) / n_tot


def number_squeezing_from_g2(
    integrals: CorrelationIntegrals, n_mean_diff: float, n_tot: float
) -> float:
    """eta^2 from order-1 integrated correlators via the exact identity

        Var(n_a - n_b) = G_aa + G_bb - 2 G_ab + n_tot - <n_a - n_b>^2.
    """
    if integrals.order_m != 1:
        raise ValueError("number squeezing needs the order m = 1 integrals")
    if n_tot <= _EMPTY_STATE_TOL:
        raise EmptyState(f"total particle number {n_tot!r} is too small")
    return 1.0 + (integrals.g_aa + integrals.g_bb - 2.0 * integrals.g_ab - n_mean_diff**2) / n_tot


def number_squeezing_symmetric(c2: float, g_aa: float, n_tot: float) -> float:
    """Symmetric-state shortcut eta^2 = 1 + 2 (1 - C_2) G_aa / n_tot.

    Valid when G_aa = G_bb and <n_a - n_b> = 0, where it is algebraically
    identical to the variance identity. The sign in front of the bracket
    is fixed by that identity: with a minus sign the twin-Fock state would
    report eta^2 = 2 instead of the exact 0, and the equivalence
    sign(1 - eta^2) = sign(C_2 - 1) would fail. The form makes explicit
    that sub-shot-noise number fluctuations (eta^2 < 1) and a
    Cauchy-Schwarz violation (C_2 > 1) appear together for symmetric
    states.
    """
    if n_tot <= _EMPTY_STATE_TOL:
        raise EmptyState(f"total particle number {n_tot!r} is too small")
    return 1.0 + 2.0 * (1.0 - c2) * g_aa / n_tot


# --- quantum Fisher information ---------------------------------------------------


def _qfi_spectral_weights(evals: np.ndarray) -> np.ndarray:
    """The pair matrix 2 (lam_i - lam_j)^2 / (lam_i + lam_j), with pairs
    below the spectral cutoff zeroed."""
    lam_i = evals[:, None]
    lam_j = evals[None, :]
    denom = lam_i + lam_j
    numer = (lam_i - lam_j) ** 2
    mask = denom > _QFI_SPECTRAL_CUTOFF
    ratio = np.zeros_like(denom)
    np.divide(numer, denom, out=ratio, where=mask)
    return 2.0 * ratio


def _qfi_sector(sector: SectorDensity, g: GeneratorSpec) -> float:
    evals, evecs = hermitian_eig(sector.matrix)
    jmat = generator_matrix(sector.n_total, g)
    w = evecs.conj().T @ jmat @ evecs
    return float(np.sum(_qfi_spectral_weights(evals) * np.abs(w) ** 2))


def qfi(state, g: GeneratorSpec) -> float:
    """Quantum Fisher information for rotations generated by J_n.

    Pure states: F_Q = 4 Var(J_n). Sector densities: the spectral formula
    F_Q = 2 sum_{ij} (lam_i - lam_j)^2 / (lam_i + lam_j) |<i|J_n|j>|^2
    with pairs below the 1e-12 spectral cutoff skipped. Number mixtures:
    generators conserve N, so the matrix is block diagonal and F_Q is the
    weight-averaged sector value. Any separable state obeys F_Q <= N
    (or <N> for fluctuating number); more is entanglement.
    """
    if isinstance(state, FockVector):
        _, variance = angular_moments(state, g)
        return 4.0 * variance
    if isinstance(state, SectorDensity):
        return _qfi_sector(state, g)
    if isinstance(state, NumberSectorMixture):
        return float(sum(w * _qfi_sector(s, g) for w, s in state.sectors if w > 0.0))
    raise TypeError(f"unsupported state type {type(state).__name__}")


# --- spin squeezing ----------------------------------------------------------------


def spin_squeezing(state, fluctuating: bool | None = None) -> float:
    """xi^2 = n_ref Var(J_z) / (<J_x>^2 + <J_y>^2); separable states give
    xi^2 >= 1, and xi^2 < 1 witnesses entanglement useful for phase
    estimation.

    Accepts exact states (FockVector, SectorDensity, NumberSectorMixture)
    and parameterized ensembles (SeparableEnsemble, FluctuatingEnsemble;
    evaluated from the closed-form moments). n_ref is the total particle
    number, or its mean when the number fluctuates. The ``fluctuating``
    flag is inferred from the input type; passing it explicitly merely
    asserts the expectation and raises ValueError on a mismatch.

    Raises ZeroMeanSpinDirection when the mean spin has no transverse
    component to reference the variance against.
    """
    if isinstance(state, (FockVector, SectorDensity)):
        inferred = False
        n_ref = float(state.n_total)
        jx, _ = angular_moments(state, GeneratorSpec.axis("x"))
        jy, _ = angular_moments(state, GeneratorSpec.axis("y"))
        _, var_z = angular_moments(state, GeneratorSpec.axis("z"))
    elif isinstance(state, NumberSectorMixture):
        inferred = True
        n_ref = state.mean_n
        jx, _ = angular_moments(state, GeneratorSpec.axis("x"))
        jy, _ = angular_moments(state, GeneratorSpec.axis("y"))
        _, var_z = angular_moments(state, GeneratorSpec.axis("z"))
    elif isinstance(state, SeparableEnsemble):
        inferred = False
        n_ref = float(state.n_total)
        jx, jy, var_z = analytic_spin_moments(state)
    elif isinstance(state, FluctuatingEnsemble):
        inferred = True
        n_ref = state.mean_n
        jx, jy, var_z = analytic_spin_moments(state)
    else:
        raise TypeError(f"unsupported state type {type(state).__name__}")
    if fluctuating is not None and bool(fluctuating) != inferred:
        raise ValueError(
            f"fluctuating={fluctuating} contradicts the input type "
            f"{type(state).__name__}"
        )
    denom = jx * jx + jy * jy
    if denom <= _MEAN_SPIN_GUARD * max(n_ref * n_ref, 1.0):
        raise ZeroMeanSpinDirection(
            f"mean transverse spin squared {denom!r} is negligible against "
            f"n_ref = {n_ref!r}"
        )
    return n_ref * var_z / denom


# --- combined verdicts ---------------------------------------------------------------


def classify(
    n_reference: float,
    csi_by_order: dict | None = None,
    eta2: float | None = None,
    xi2: float | None = None,
    qfi_by_generator: dict | None = None,
) -> WitnessReport:
    """Assemble witness values into verdicts at WITNESS_TOLERANCE.

    Flags: any C_2m > 1, any F_Q > n_reference, or xi^2 < 1, each beyond
    the 1e-9 margin. Number squeezing eta^2 is reported but never flags on
    its own (sub-shot-noise fluctuations alone do not certify
    entanglement). At least one witness value must be supplied.
    """
    if csi_by_order is None and eta2 is None and xi2 is None and qfi_by_generator is None:
        raise ValueError("at least one computed witness is required")
    csi = dict(csi_by_order or {})
    qfi_values = dict(qfi_by_generator or {})
    by_csi = any(v > 1.0 + WITNESS_TOLERANCE for v in csi.values())
    by_qfi = any(v > n_reference + WITNESS_TOLERANCE for v in qfi_values.values())
    by_squeezing = xi2 is not None and xi2 < 1.0 - WITNESS_TOLERANCE
    return WitnessReport(
        n_reference=float(n_reference),
        csi_by_order=csi,
        eta2=eta2,
        xi2=xi2,
        qfi_by_generator=qfi_values,
        entangled_by_csi=by_csi,
        entangled_by_qfi=by_qfi,
        entangled_by_spin_squeezing=by_squeezing,
    )


# --- ready-made maximizer objectives --------------------------------------------------


def csi_objective(m: int = 1, n_max: int = DEFAULT_N_MAX):
    """Objective returning C_2m of the ensemble's exact density."""

    def objective(ensemble: SeparableEnsemble) -> float:
        return csi_ratio(integrated_g2m(ensemble_to_state(ensemble, n_max), m))

    return objective


def qfi_objective(g: GeneratorSpec, n_max: int = DEFAULT_N_MAX):
    """Objective returning F_Q[rho, J_n] of the ensemble's exact density."""

    def objective(ensemble: SeparableEnsemble) -> float:
        return qfi(ensemble_to_state(ensemble, n_max), g)

    return objective


def squeezing_objective():
    """Objective returning -xi^2 from the closed-form ensemble moments,
    so maximizing it searches for the strongest squeezing."""

    def objective(ensemble: SeparableEnsemble) -> float:
        return -spin_squeezing(ensemble)

    return objective
