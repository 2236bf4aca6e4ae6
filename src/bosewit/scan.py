"""Stochastic certification that separable states respect every bound.

Random separable ensembles are drawn, converted to exact densities, and
every witness is evaluated against its separability bound. Any violation
beyond tolerance marks an implementation bug, not physics: the bounds are
theorems for these states. Reports are deterministic per seed.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import WitnessError
from .fock import DEFAULT_N_MAX
from .separable import (
    FluctuatingEnsemble,
    NumberDistribution,
    PRNG_NAME,
    SeparableEnsemble,
    ensemble_to_state,
    sample_ensemble,
    sample_fluctuating_ensemble,
)
from .witnesses import (
    WITNESS_TOLERANCE,
    csi_ratio,
    integrated_g2m,
    qfi,
    spin_squeezing,
)

QFI_TOLERANCE = 1e-6

# Input caps, checked before any array is built: the seed array grows with
# the samples, the direction stack with the directions, and every sector's
# factor rows with the components.
MAX_SAMPLES = 10**7
MAX_DIRECTIONS = 1000
MAX_COMPONENTS = 1000


class _BoundTracker:
    """Running worst case for one bound, in the adverse direction."""

    def __init__(self, name: str, bound: float, direction: str, tolerance: float):
        assert direction in ("upper", "lower")
        self.name = name
        self.bound = float(bound)
        self.direction = direction
        self.tolerance = float(tolerance)
        self.worst_value = None
        self.worst_sample = None
        self.evaluations = 0
        self.skipped = 0
        self.violations = 0

    def record(self, value: float, sample_payload: dict):
        self.evaluations += 1
        value = float(value)
        if not math.isfinite(value):
            # A NaN compares False against the bound and would pass; inf would
            # become a worst value that JSON cannot carry. Both are failures.
            self.violations += 1
            return
        adverse = (
            self.worst_value is None
            or (self.direction == "upper" and value > self.worst_value)
            or (self.direction == "lower" and value < self.worst_value)
        )
        if adverse:
            self.worst_value = value
            self.worst_sample = sample_payload
        if self.direction == "upper":
            violated = value > self.bound + self.tolerance
        else:
            violated = value < self.bound - self.tolerance
        if violated:
            self.violations += 1

    def skip(self):
        self.skipped += 1

    def report(self) -> dict:
        return {
            "name": self.name,
            "bound": self.bound,
            "direction": self.direction,
            "tolerance": self.tolerance,
            "worst_value": self.worst_value,
            "violations": self.violations,
            "evaluations": self.evaluations,
            "skipped": self.skipped,
            "worst_sample": self.worst_sample,
        }


def _unit_directions(rng: np.random.Generator, count: int) -> np.ndarray:
    directions = np.empty((count, 3))
    filled = 0
    while filled < count:
        draw = rng.normal(size=3)
        norm = float(np.linalg.norm(draw))
        if norm < 1e-8:
            continue
        directions[filled] = draw / norm
        filled += 1
    return directions


def _ensemble_payload(ensemble) -> dict:
    if isinstance(ensemble, SeparableEnsemble):
        return {
            "n_total": ensemble.n_total,
            "components": [
                {"weight": w, "z": c.z, "phi": c.phi}
                for w, c in ensemble.components
            ],
        }
    if isinstance(ensemble, FluctuatingEnsemble):
        return {
            "number_weights": [[n, w] for n, w in ensemble.number_weights],
            "sectors": {
                str(n): [
                    {"weight": w, "z": c.z, "phi": c.phi}
                    for w, c in sector.components
                ]
                for n, sector in sorted(ensemble.per_sector.items())
            },
        }
    raise TypeError(f"unsupported ensemble type {type(ensemble).__name__}")


def run_scan(
    samples: int,
    seed: int,
    n_total: int | None = None,
    distribution: NumberDistribution | None = None,
    n_components: int = 4,
    n_directions: int = 10,
    csi_orders: Sequence[int] | None = None,
    n_max: int = DEFAULT_N_MAX,
) -> dict:
    """Draw `samples` random separable ensembles and test every bound.

    Exactly one of `n_total` (fixed particle number) or `distribution`
    (fluctuating) selects the mode. Fixed mode checks C_2m <= 1 for all
    feasible orders (or `csi_orders`), F_Q(J_n) <= N over `n_directions`
    random directions, and xi^2 >= 1. Fluctuating mode checks the averaged
    C_2 <= 1, F_Q <= <N>, and the mean-number-referenced xi^2 >= 1.

    The master seed fixes the generator directions and one child seed per
    sample, so reports are reproducible and individual samples can be
    replayed in isolation. `samples` above MAX_SAMPLES, `n_directions`
    above MAX_DIRECTIONS and `n_components` above MAX_COMPONENTS raise
    ValueError before anything is built.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    for name, value, cap in (
        ("samples", samples, MAX_SAMPLES),
        ("n_directions", n_directions, MAX_DIRECTIONS),
        ("n_components", n_components, MAX_COMPONENTS),
    ):
        if value > cap:
            raise ValueError(f"{name} must be at most {cap}; got {value}")
    if (n_total is None) == (distribution is None):
        raise ValueError("give exactly one of n_total or distribution")
    if n_directions < 1:
        raise ValueError("need at least one generator direction")
    master = np.random.default_rng(seed)
    directions = _unit_directions(master, n_directions)
    sample_seeds = master.integers(2**63, size=samples)

    if n_total is not None:
        if n_total < 2:
            raise ValueError("fixed-number scans need n_total >= 2")
        mode = "fixed"
        if csi_orders is None:
            orders = tuple(range(1, n_total // 2 + 1))
        else:
            orders = tuple(int(m) for m in csi_orders)
            if any(m < 1 or 2 * m > n_total for m in orders):
                raise ValueError("csi orders must satisfy 1 <= m and 2m <= n_total")
    else:
        mode = "fluctuating"
        orders = (1,) if csi_orders is None else tuple(int(m) for m in csi_orders)
        if any(m < 1 for m in orders):
            raise ValueError("csi orders must be positive")

    trackers = {}
    qfi_bound = None  # set after the first state (mean N is sample independent)
    for m in orders:
        trackers[f"csi_order_{m}"] = _BoundTracker(
            f"csi_order_{m}", 1.0, "upper", WITNESS_TOLERANCE
        )
    trackers["spin_squeezing"] = _BoundTracker(
        "spin_squeezing", 1.0, "lower", WITNESS_TOLERANCE
    )

    for index, child_seed in enumerate(sample_seeds):
        child_seed = int(child_seed)
        if mode == "fixed":
            ensemble = sample_ensemble(child_seed, int(n_total), n_components)
        else:
            ensemble = sample_fluctuating_ensemble(child_seed, distribution, n_components)
        state = ensemble_to_state(ensemble, n_max=n_max)
        base_payload = {
            "sample_index": index,
            "sample_seed": child_seed,
            "ensemble": _ensemble_payload(ensemble),
        }

        if qfi_bound is None:
            if mode == "fixed":
                qfi_bound = float(n_total)
            else:
                qfi_bound = state.mean_n
            trackers["qfi"] = _BoundTracker("qfi", qfi_bound, "upper", QFI_TOLERANCE)

        for m in orders:
            tracker = trackers[f"csi_order_{m}"]
            try:
                value = csi_ratio(integrated_g2m(state, m))
            except WitnessError:
                tracker.skip()
                continue
            tracker.record(value, {**base_payload, "order_m": m})

        qfi_values = qfi(state, directions)
        worst_direction = int(np.argmax(qfi_values))
        trackers["qfi"].record(
            float(qfi_values[worst_direction]),
            {**base_payload, "generator": directions[worst_direction].tolist()},
        )

        tracker = trackers["spin_squeezing"]
        try:
            value = spin_squeezing(ensemble)
        except WitnessError:
            tracker.skip()
        else:
            tracker.record(value, dict(base_payload))

    bounds = [trackers[f"csi_order_{m}"].report() for m in orders]
    bounds.append(trackers["qfi"].report())
    bounds.append(trackers["spin_squeezing"].report())
    total_violations = int(sum(b["violations"] for b in bounds))
    report = {
        "mode": mode,
        "samples": int(samples),
        "seed": int(seed),
        "n_components": int(n_components),
        "n_directions": int(n_directions),
        "csi_orders": [int(m) for m in orders],
        "directions": [d.tolist() for d in directions],
        "prng": PRNG_NAME,
        "bounds": bounds,
        "total_violations": total_violations,
    }
    if mode == "fixed":
        report["n_total"] = int(n_total)
    else:
        report["distribution"] = {
            "kind": distribution.kind,
            "params": list(distribution.params),
        }
        report["mean_n"] = qfi_bound
    return report
