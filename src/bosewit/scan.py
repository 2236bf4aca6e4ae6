"""Stochastic certification that separable states respect every bound.

Random separable ensembles are drawn as (weights, z, phi) arrays, and
every witness is evaluated on them against its separability bound by the
chunk kernels, each a half of its own: C_2m from the closed-form
correlators of the drawn product components (no row at all), F_Q from
their K x K closed forms (complex amplitude rows only where K > N + 1),
and xi^2 from closed-form spin moments. Any violation beyond tolerance
marks an implementation bug, not physics: the bounds are theorems for
these states. Reports are deterministic per seed. maximize_witness climbs
one witness toward its bound through the same kernels, one proposal per
one-sample chunk, and computes only the witness it climbs.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import WitnessError
from .fock import _DRAW_NORM_GUARD
from .separable import (
    MAX_PARTICLES,
    NumberDistribution,
    PRNG_NAME,
    SeparableEnsemble,
    _check_draws,
    _check_expanded_size,
    _child_generator,
    _components,
    _draw_components,
    _ensembles,
    _fill_sectors,
    _seed_words,
    _spin_moments,
)
from .witnesses import (
    STACK_AMPLITUDES,
    _BOUND_SIDES,
    _bound_rule,
    _check_order,
    _component_forms,
    _csi_ratios,
    _parse_witness_request,
    _product_correlators,
    _squeezing,
)

# Input caps, checked before any array is built: the seed array grows with
# the samples, the direction stack with the directions, and every sector's
# factor rows with the components.
MAX_SAMPLES = 10**7
MAX_DIRECTIONS = 1000
MAX_COMPONENTS = 1000

# Samples whose child seeds are hashed in one pass (_seed_words), rounded
# down to whole chunks: the pass has a fixed cost of tens of microseconds,
# several times a per-seed hash, and its words take 32 bytes per sample.
SEED_BLOCK = 4096


class _BoundTable:
    """Running worst cases of a scan's bounds, one column per bound of spec
    (name, bound, "upper" or "lower", tolerance). A lower bound is judged
    on negated values, which negation keeps exact, so every column keeps
    its most adverse value as a maximum: `worst` (-inf until a finite value
    is recorded), with that sample's payload."""

    def __init__(self, specs):
        self.specs = specs
        self.sign = np.array([1.0 if direction == "upper" else -1.0 for _, _, direction, _ in specs])
        self.limit = np.array([s * bound + tol for s, (_, bound, _, tol) in zip(self.sign, specs)])
        self.worst = np.full(len(specs), -np.inf)
        self.payloads = [None] * len(specs)
        self.counts = np.zeros((3, len(specs)), dtype=int)  # evaluations, skipped, violations

    def record(self, values, skip, payload_of) -> None:
        """Record (S, B) values in sample order, leaving out the entries
        `skip` marks. A NaN compares False against a bound and would pass,
        and an infinity would become a worst value that JSON cannot carry:
        both are violations, never worst values. In each column the first of
        the most adverse values replaces the worst value only if it beats
        it, and only then is `payload_of(i, column)` called for its sample
        index i."""
        signed = values * self.sign
        kept, finite = ~skip, np.isfinite(signed)
        self.counts += np.count_nonzero([kept, skip, kept & (~finite | (signed > self.limit))], axis=1)
        candidates = np.where(kept & finite, signed, -np.inf)
        index = np.argmax(candidates, axis=0)
        best = candidates[index, np.arange(index.size)]
        for column in np.flatnonzero(best > self.worst):
            self.worst[column] = best[column]
            self.payloads[column] = payload_of(int(index[column]), int(column))

    def report(self, columns) -> list:
        """One report entry per column in `columns`. A column listed r times
        stands for r requests of its bound, so its counts are taken r times."""
        counts = (np.bincount(columns, minlength=len(self.specs)) * self.counts).T.tolist()
        worst = (self.sign * self.worst).tolist()
        entries = []
        for c in columns:
            name, bound, direction, tolerance = self.specs[c]
            evaluations, skipped, violations = counts[c]
            entries.append({
                "name": name, "bound": bound, "direction": direction, "tolerance": tolerance,
                "worst_value": worst[c] if self.payloads[c] is not None else None,
                "violations": violations, "evaluations": evaluations, "skipped": skipped,
                "worst_sample": self.payloads[c],
            })
        return entries


def _draw_directions(rng: np.random.Generator, count: int) -> np.ndarray:
    directions = np.empty((count, 3))
    filled = 0
    while filled < count:
        draw = rng.normal(size=3)
        norm = float(np.linalg.norm(draw))
        if norm < _DRAW_NORM_GUARD:
            continue
        directions[filled] = draw / norm
        filled += 1
    return directions


def _draw_chunk(seeds, sectors: int, n_components: int, words=None) -> np.ndarray:
    """(weights, z, phi) of one ensemble per seed, as a (3, S, J, K) array.
    Each seed's child generator is the one default_rng(seed) gives, seeded
    in C from the seed's SeedSequence words (`words`, the (S, 4) rows
    _seed_words gives for `seeds`, when run_scan has hashed them with their
    block; else hashed here). It draws its J sectors in turn, as
    sample_ensemble and sample_fluctuating_ensemble do for that seed, two
    generator calls per sector into the chunk's array (_fill_sectors: 2K
    uniforms, then K unit gammas), and _components maps the whole chunk at
    once to what random, uniform and dirichlet give, bit for bit."""
    if words is None:
        words = _seed_words(seeds)
    draws = np.empty((len(words), sectors, 3 * n_components))
    for sample_words, sample in zip(words, draws):
        _fill_sectors(_child_generator(sample_words), sample)
    draws = _components(draws)
    _check_draws(*draws)
    return draws


def _ensemble_payload(number_weights, fixed: bool, weights, z, phi) -> dict:
    """The report form of one sample's ensemble from its (J, K) weights, z
    and phi over the sectors of `number_weights`."""
    sectors = [
        [{"weight": w, "z": zi, "phi": p} for w, zi, p in zip(*sector)]
        for sector in zip(weights.tolist(), z.tolist(), phi.tolist())
    ]
    if fixed:
        return {"n_total": number_weights[0][0], "components": sectors[0]}
    return {
        "number_weights": [[n, p] for n, p in number_weights],
        "sectors": {str(n): sector for (n, _), sector in zip(number_weights, sectors)},
    }


def _evaluate_csi(weights, z, numbers, probabilities, orders) -> tuple:
    """The C_2m half of a chunk's evaluation: C_2m of every order with its
    degenerate mask, both (S, M), for S samples given as (S, J, K) weights
    and z over the J particle numbers with their probabilities. Each
    component is a product, so _product_correlators takes the closed form of
    the correlators, with the mode responses z and 1 - z: no row is built."""
    return _csi_ratios(*_product_correlators(weights, z, 1.0 - z, probabilities, numbers, orders))


def _evaluate_qfi(weights, z, phi, numbers, probabilities, directions) -> np.ndarray:
    """The F_Q half of a chunk's evaluation: F_Q of every direction, (S, k),
    for S samples given as (S, J, K) weights, z and phi over the J particle
    numbers (a tuple) with their probabilities, which average each sample's
    sector forms. The forms come from witnesses._component_forms, whose one
    rule takes a run of sectors from the K x K closed forms of its product
    components, or from complex amplitude rows where K > N + 1.
    """
    forms = (probabilities @ _component_forms(weights, z, phi, numbers)).reshape(-1, 3, 3)
    return np.einsum("ka,sab,kb->sk", directions, forms, directions)


def _checked_scan(samples, n_total, distribution, n_components, n_directions, csi_orders) -> tuple:
    """run_scan's input checks, made before anything is drawn. Returns the
    csi orders, the (n, p) sectors and a sample's amplitudes K (N + 1)
    summed over them."""
    if samples < 1:
        raise ValueError("need at least one sample")
    if (n_total is None) == (distribution is None):
        raise ValueError("give exactly one of n_total or distribution")
    for name, value, cap in (
        ("samples", samples, MAX_SAMPLES),
        ("n_directions", n_directions, MAX_DIRECTIONS),
        ("n_components", n_components, MAX_COMPONENTS),
        ("n_total", n_total or 0, MAX_PARTICLES),
    ):
        if value > cap:
            raise ValueError(f"{name} must be at most {cap}; got {value}")
    if n_directions < 1:
        raise ValueError("need at least one generator direction")
    if n_components < 1:
        raise ValueError("need at least one component")

    orders = None if csi_orders is None else tuple(_check_order(m) for m in csi_orders)
    if n_total is not None:
        if n_total < 2:
            raise ValueError("fixed-number scans need n_total >= 2")
        if orders is None:
            orders = tuple(range(1, n_total // 2 + 1))
        elif any(2 * m > n_total for m in orders):
            raise ValueError("csi orders must satisfy 1 <= m and 2m <= n_total")
        number_weights = ((int(n_total), 1.0),)
    else:
        orders = (1,) if orders is None else orders
        number_weights = distribution.weights()
    numbers = tuple(n for n, _ in number_weights)
    width, top = max(numbers) + 1, max(orders, default=0)
    amplitudes = n_components * sum(n + 1 for n in numbers)
    _check_expanded_size(f"a sample of {len(numbers)} sectors x {n_components} components",
                         amplitudes, "K (N + 1) summed over its sectors")
    _check_expanded_size(f"csi order m = {top} at max N = {width - 1}", top * width,
                         "its cap on a scan's C_2m bounds, m (max N + 1)")
    return orders, number_weights, amplitudes


def run_scan(
    samples: int,
    seed: int,
    n_total: int | None = None,
    distribution: NumberDistribution | None = None,
    n_components: int = 4,
    n_directions: int = 10,
    csi_orders: Sequence[int] | None = None,
) -> dict:
    """Draw `samples` random separable ensembles and test every bound.

    Exactly one of `n_total` (fixed particle number) or `distribution`
    (fluctuating) selects the mode. Fixed mode checks C_2m <= 1 for all
    feasible orders (or `csi_orders`, positive integers with 2m <= N),
    F_Q(J_n) <= N over `n_directions` random directions, and xi^2 >= 1.
    Fluctuating mode checks the averaged C_2 <= 1 (or C_2m at
    `csi_orders`), F_Q <= <N>, and the mean-number-referenced xi^2 >= 1.

    The master seed fixes the generator directions and one child seed per
    sample, so reports are reproducible and individual samples can be
    replayed in isolation: a sample's child generator is the one
    default_rng(child seed) gives, seeded from the same SeedSequence words,
    which _seed_words computes for the child seeds of SEED_BLOCK samples
    (rounded down to whole chunks, at least one) in one pass. Before
    anything is drawn, ValueError refuses inputs past MAX_SAMPLES,
    MAX_DIRECTIONS, MAX_COMPONENTS or (n_total) MAX_PARTICLES, and past
    MAX_EXPANDED_SIZE amplitudes a sample's rows, K (N + 1) summed over its
    sectors as for a state file. The same budget caps the csi orders, and
    so the report's bounds, by m (max N + 1) for the largest order m: a
    full-order fixed scan reaches N = 2895.

    Samples are evaluated in chunks of as many as that sum lets fit in
    STACK_AMPLITUDES (at least one sample each), as (S, J, K) arrays of
    weights, z and phi drawn as sample_ensemble and
    sample_fluctuating_ensemble draw them (_draw_chunk): two generator
    calls per sector into the chunk's array, mapped for the whole chunk at
    once to the draws of the three calls random, uniform and dirichlet, bit
    for bit; no ensemble object is built, and a worst-case payload only
    when needed. _evaluate_csi gives every C_2m of the chunk from the
    closed-form correlators of its product components
    (_product_correlators), in logs where a sum would underflow, so no row
    is built and no value is lost to underflow at any N. _evaluate_qfi
    splits the chunk's sectors into padded runs and gives every F_Q, from
    the K x K closed forms of the product components (_product_forms) in
    each run with K <= W = max N + 1, and from complex amplitude rows and
    _qfi_forms in a deeper run, where the K x K eigensolve would cost more
    than the W x W one (the one rule of witnesses._component_forms, which
    the witnesses share). One _spin_moments call gives every xi^2 (bit for
    bit that of the ensemble object). C_2m and F_Q equal, to rounding,
    those of each sample's own density. One _BoundTable.record call judges
    every bound of the chunk at the side and margin of witnesses._bound_rule:
    C_2m of each distinct order, the worst direction's F_Q and xi^2, as
    (S, B) values with one skip mask (degenerate C_2m, zero mean spin).
    """
    orders, number_weights, amplitudes = _checked_scan(
        samples, n_total, distribution, n_components, n_directions, csi_orders
    )
    mode = "fixed" if distribution is None else "fluctuating"
    numbers = tuple(n for n, _ in number_weights)
    probabilities = np.array([p for _, p in number_weights])
    qfi_bound = float(sum(n * p for n, p in number_weights))
    master = np.random.default_rng(seed)
    directions = _draw_directions(master, n_directions)
    sample_seeds = master.integers(2**63, size=samples)

    # one column per distinct order, from its first request, reported once
    # per request of it
    distinct, first, column_of = np.unique(
        np.array(orders, dtype=int), return_index=True, return_inverse=True
    )
    distinct = distinct.tolist()
    rule = {kind: _bound_rule(kind, qfi_bound) for kind in ("csi", "qfi", "xi2")}
    table = _BoundTable([*((f"csi_order_{m}", *rule["csi"]) for m in distinct),
                         ("qfi", *rule["qfi"]), ("spin_squeezing", *rule["xi2"])])

    chunk = max(1, STACK_AMPLITUDES // amplitudes)
    block = chunk * max(1, SEED_BLOCK // chunk)
    for start in range(0, samples, chunk):
        if start % block == 0:
            block_words = _seed_words(sample_seeds[start : start + block])
        seeds = sample_seeds[start : start + chunk].tolist()
        count = len(seeds)
        words = block_words[start % block : start % block + count]
        weights, z, phi = _draw_chunk(seeds, len(numbers), n_components, words)
        ratios, degenerate = _evaluate_csi(weights, z, numbers, probabilities, orders)
        qfi_values = _evaluate_qfi(weights, z, phi, numbers, probabilities, directions)
        squeezing, zero_spin = _squeezing(qfi_bound, *_spin_moments(number_weights, weights, z, phi))
        worst_directions = np.argmax(qfi_values, axis=1)
        values = np.column_stack(
            [ratios[:, first], qfi_values[np.arange(count), worst_directions], squeezing]
        )
        skip = np.column_stack([degenerate[:, first], np.zeros(count, dtype=bool), zero_spin])

        payloads = {}

        def payload_of(index, column):
            if index not in payloads:
                payloads[index] = {
                    "sample_index": start + index,
                    "sample_seed": seeds[index],
                    "ensemble": _ensemble_payload(
                        number_weights, mode == "fixed", weights[index], z[index], phi[index]
                    ),
                }
            if column < len(distinct):
                return {**payloads[index], "order_m": distinct[column]}
            if column == len(distinct):
                return {**payloads[index], "generator": directions[worst_directions[index]].tolist()}
            return {**payloads[index]}

        table.record(values, skip, payload_of)

    bounds = table.report([*column_of.tolist(), len(distinct), len(distinct) + 1])
    total_violations = int(sum(b["violations"] for b in bounds))
    report = {
        "mode": mode,
        "samples": int(samples),
        "seed": int(seed),
        "n_components": int(n_components),
        "n_directions": int(n_directions),
        "csi_orders": list(orders),
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


# --- stochastic maximization ---------------------------------------------------


def _project_simplex(values: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    u = np.sort(values)[::-1]
    cumsum = np.cumsum(u)
    rho_candidates = u * np.arange(1, values.size + 1) > (cumsum - 1.0)
    rho = int(np.nonzero(rho_candidates)[0][-1])
    tau = (cumsum[rho] - 1.0) / (rho + 1)
    return np.maximum(values - tau, 0.0)


def maximize_witness(request: str, n_total: int, budget: int, seed: int, n_components: int = 1,
                     restarts: int = 20) -> tuple[float, SeparableEnsemble | None]:
    """Stochastic hill climbing of one witness request, in the --witness
    form, over separable ensembles: ``csi:<m>`` and ``qfi:x|y|z|nx,ny,nz``
    are maximized, ``xi2`` is minimized. Each proposal is a one-sample
    chunk of the scan's kernel for that witness alone (_evaluate_csi,
    _evaluate_qfi, or _squeezing of _spin_moments for xi^2), so no density
    is built, and no other witness is computed. A
    degenerate C_2m, a zero mean spin, a WitnessError or a non-finite value
    makes a proposal infeasible: it is never kept.

    ``budget`` counts evaluations in total, split across random restarts,
    each starting from a draw as sample_ensemble makes one. Proposals
    perturb z, phi and the weights, in that order, with Gaussian noise
    (sigma 0.05 / 0.2 / 0.1), clip z to [0,1], wrap phi and project the
    weights back onto the simplex. Deterministic for a fixed seed. Before
    any draw, ValueError refuses eta2, `all`, what the parser or run_scan
    (one sample of n_total particles) refuses, and a budget or restart
    count below one. Returns (best value, best ensemble); the ensemble is
    None, and the value -inf (inf for xi2), if no proposal was feasible.
    """
    _, kind, param = _parse_witness_request(request)
    if _BOUND_SIDES.get(kind) is None:
        raise ValueError(f"maximize_witness climbs csi, qfi or xi2, not {request!r}")
    if budget < 1 or restarts < 1:
        raise ValueError("budget and restarts must be at least 1")
    orders, number_weights, _ = _checked_scan(
        1, n_total, None, n_components, 1, [param if kind == "csi" else 1]
    )
    numbers, probabilities = (number_weights[0][0],), np.ones(1)
    directions = np.reshape(param if kind == "qfi" else [], (-1, 3))
    sign = 1.0 if _BOUND_SIDES[kind] == "upper" else -1.0

    def score(weights, z, phi) -> float:
        """sign * the witness of one ensemble, -inf if it is infeasible."""
        chunk = weights[None, None], z[None, None], phi[None, None]
        try:
            if kind == "xi2":
                value, skip = _squeezing(float(numbers[0]), *_spin_moments(number_weights, *chunk))
            elif kind == "csi":
                value, skip = _evaluate_csi(*chunk[:2], numbers, probabilities, orders)
            else:
                value, skip = _evaluate_qfi(*chunk, numbers, probabilities, directions), False
        except WitnessError:
            return -math.inf
        value = float(value.flat[0])
        return sign * value if math.isfinite(value) and not np.any(skip) else -math.inf

    rng = np.random.default_rng(seed)
    per_restart = max(1, math.ceil(budget / restarts))
    best_score, best = -math.inf, None
    for step in range(budget):
        if step % per_restart == 0:
            proposal = _draw_components(rng, n_components)
        else:
            weights, z, phi = current
            z = np.clip(z + rng.normal(0.0, 0.05, z.size), 0.0, 1.0)
            phi = (phi + rng.normal(0.0, 0.2, phi.size) + math.pi) % (2.0 * math.pi) - math.pi
            if weights.size > 1:
                weights = _project_simplex(weights + rng.normal(0.0, 0.1, weights.size))
            proposal = weights, z, phi
        value = score(*proposal)
        # the best score bounds the current one, so a new best is a new current point
        if step % per_restart == 0 or value > current_score:
            current, current_score = proposal, value
        if value > best_score:
            best_score, best = value, proposal
    return sign * best_score, None if best is None else _ensembles(numbers[:1], np.array(best), [n_components])[0]
