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

A state is evaluated sector by sector along one of two routes, chosen in
one place (_routes): a sector held as amplitude rows (a basis state or a
density) from its rows, and a sector held as product components (a
separable ensemble, as state files give the coherent kinds) from the
closed forms the separable scans use, with no row.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from ._factorials import (
    balanced_factorial_ratio,
    log_factorials,
    order_scales,
    ratio_row,
    ratio_rows,
)
from .errors import (
    DegenerateLocalCorrelation,
    EmptyState,
    NonFiniteWitnessValue,
    OrderTooHigh,
    WitnessError,
    ZeroMeanSpinDirection,
)
from .fock import (
    _AMPLITUDE_FLUSH,
    _DEGENERATE_PRODUCT,
    _EMPTY_STATE_TOL,
    _MEAN_SPIN_GUARD,
    _MEMO_N_MAX,
    _NORMALIZED_FLOOR,
    _SPECTRAL_CUTOFF,
    WITNESS_TOLERANCE,
    GeneratorSpec,
    NumberSectorMixture,
    SectorDensity,
    _axis_actions,
    _check_factors,
    _eigh,
    _factor_populations,
    _sectors,
    _spin_mean_covariance,
    _unit_directions,
)
from .separable import (
    FluctuatingEnsemble,
    SeparableEnsemble,
    _coherent_rows,
    _component_groups,
    _ensemble_sectors,
    _in_order,
    _joined_moments,
    _part_moments,
)

# The tolerances and cutoffs, WITNESS_TOLERANCE among them, are in fock.
_LOG_DEGENERATE_PRODUCT = math.log(_DEGENERATE_PRODUCT)
_TINY = float(np.finfo(float).tiny)

# Complex amplitudes in one padded factor stack (1 MiB of rows): the
# sectors of a mixture or a scan chunk go in runs of at most this many
# (_stack_runs; a wider sector is a run of its own), and a scan chunk holds
# as many samples as their rows fit in it (at least one), so the stacked
# temporaries stay within a fixed multiple of it.
STACK_AMPLITUDES = 2**16


@dataclass(frozen=True)
class CorrelationIntegrals:
    """The three integrated correlators of one order plus the prefactor
    alpha_2m = N!/(N-2m)! shared by all of them (its number-weighted mean
    for a mixture). Values past the float range are inf.

    `normalized` carries the (sums, logs, scales) _csi_ratios takes for
    this order when the integrals come from a state or from
    povm.integrated_gm_separable, so csi_ratio never forms G_aa G_bb; it
    is None for integrals built from values."""

    order_m: int
    g_aa: float
    g_bb: float
    g_ab: float
    prefactor_alpha: float
    normalized: tuple | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class WitnessReport:
    """Computed witness values plus boolean verdicts by witness_verdict."""

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


def _check_order(m) -> int:
    """The contract of a correlation order: m as an int, or ValueError
    naming m unless it is a positive integer (a bool is not one)."""
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError(f"correlation order m must be a positive integer; got {m}")
    return int(m)


def _judgeable(values, what: str):
    """`values` unchanged when all are finite, else NonFiniteWitnessValue
    naming `what` and the first NaN or infinity: no bound can judge it. Each
    public witness returns its value through here; witness_verdict too."""
    flat = values.ravel().tolist() if isinstance(values, np.ndarray) else (float(values),)
    if math.isfinite(sum(flat)):  # else a NaN or infinity, or a sum past the float range
        return values
    for value in flat:
        if not math.isfinite(value):
            raise NonFiniteWitnessValue(f"{what} evaluated to {value!r}, which no bound can judge")
    return values


def _routes(state) -> tuple:
    """The one dispatch of every witness: (sectors, rows, parts) of a
    state, its (p, sector) pairs in ascending N and the positions among
    them of the sectors held as amplitude rows (SectorDensity: basis states
    and densities) and of those held as product components
    (SeparableEnsemble). A SeparableEnsemble is its own one sector, a
    FluctuatingEnsemble gives its sectors, and a NumberSectorMixture may
    hold both kinds; any other type raises TypeError."""
    if isinstance(state, (SeparableEnsemble, FluctuatingEnsemble)):
        sectors = _ensemble_sectors(state)
        return sectors, [], list(range(len(sectors)))
    if isinstance(state, NumberSectorMixture):
        sectors = state.sectors
    else:
        sectors = _sectors(state)
    rows = [j for j, (_, sector) in enumerate(sectors) if isinstance(sector, SectorDensity)]
    parts = [j for j, (_, sector) in enumerate(sectors) if not isinstance(sector, SectorDensity)]
    return sectors, rows, parts


# --- integrated correlators -----------------------------------------------------


def _population_integrals(runs, orders, n: int) -> tuple:
    """Normalized correlators (sums, logs) of every order m in `orders`
    (ints), for runs of weighted sector populations: each run is (weighted,
    numbers), p_j P_j (J, W) of J sectors with numbers[j] particles each
    (zero past a sector's own count, W the run's largest count + 1). N = n
    is at least the largest count of all runs.

    The correlators are diagonal in the |l, n-l> basis. With the ratio
    rows R_k(l) = [l!/(l-k)!] / [N!/(N-k)!] in [0, 1] (_factorials), alpha
    = N!/(N-2m)! and kappa = N!(N-2m)!/((N-m)!)^2, G_aa = alpha a, G_bb =
    alpha b and G_ab = alpha kappa c, where
        a = sum_j p_j P_j . R_2m,
        b = sum_j p_j P_j . R_2m(n_j - .),
        c = sum_j p_j P_j . (R_m * R_m(n_j - .)).
    So C_2m = kappa c / sqrt(a b), and a, b, c never overflow.

    One loop takes the rows R_k of every k = m and 2m in ascending k,
    memoized (ratio_row) when N <= _MEMO_N_MAX, else streamed once
    (ratio_rows); no table of all orders is held. An order holds its R_m
    until its R_2m comes, then takes its three sums from one _order_rows
    block per run, so it gets the bits a call with that order alone gives.
    A sum is within about 2k eps relative for row k.

    A sum below _NORMALIZED_FLOOR may have lost terms to underflow: only
    that entry is recomputed, as a log-sum-exp over log(p_j P_j(l)) plus
    log R_k from one lgamma table, within about eps N log N absolute. A sum
    with no population where its row is nonzero is zero by structure: its
    terms are all -inf and its log stays -inf.

    Returns sums and logs, (3, M) arrays of a, b, c and their logs over
    the M orders (the scales of N are order_scales'). Orders with 2m > N
    give zero sums.
    """
    stacks = [(weighted.reshape(1, -1), _mirror(weighted.shape[-1], numbers)) for weighted, numbers in runs]
    single = set(orders)
    wanted = sorted(single | {2 * m for m in single})
    rows = (ratio_row(n, k) for k in wanted) if n <= _MEMO_N_MAX else ratio_rows(n, wanted)
    held, done = {}, {}  # R_m of the orders awaiting R_2m; (c, a, b) of those done
    for k, row in zip(wanted, rows):
        if k % 2 == 0 and k // 2 in held:
            r_m = held.pop(k // 2)
            done[k // 2] = sum(flat @ _order_rows(r_m, row, mirror, np.multiply).T for flat, mirror in stacks)
        if k in single:
            held[k] = row
    # sums[i, kind] of order i, kinds c, a, b as _order_rows gives them
    sums = np.array([done[m] for m in orders]).reshape(len(orders), 3)

    log_rows = None
    with np.errstate(divide="ignore"):
        logs = np.log(sums)
        for i in np.flatnonzero((sums < _NORMALIZED_FLOOR).any(axis=1)):
            if log_rows is None:
                log_rows, log_flats = _log_ratio_rows(n), [np.log(flat) for flat, _ in stacks]
            m, lost = orders[i], sums[i] < _NORMALIZED_FLOOR
            r_m, r_2m = log_rows(m), log_rows(2 * m)
            logs[i, lost] = np.logaddexp.reduce([
                _log_sum_exp(log_flat + _order_rows(r_m, r_2m, mirror, np.add)[lost])
                for log_flat, (_, mirror) in zip(log_flats, stacks)
            ])
    # rows a, b, c from the kinds c, a, b
    return sums.T[[1, 2, 0]], logs.T[[1, 2, 0]]


def _order_rows(r_m, r_2m, mirror, pair) -> np.ndarray:
    """One order's (3, J W) rows over a run's flattened columns, from the
    first W entries of its R_m and R_2m, for the (J, W) `mirror` of the
    run: pair(R_m, R_m mirrored) (c), R_2m in each of the J sectors (a),
    and R_2m mirrored (b). pair is np.multiply for the values and np.add
    for their logs."""
    width = mirror.shape[-1]
    head_m, head_2m = r_m[:width], r_2m[:width]
    rows = np.empty((3,) + mirror.shape, head_m.dtype)
    pair(head_m, head_m[mirror], out=rows[0])
    rows[1] = head_2m
    rows[2] = head_2m[mirror]
    return rows.reshape(3, -1)


def _mirror(width: int, numbers):
    """Index of the mode-b occupation n_j - l of column l in each sector
    j of a run `width` columns wide; a column past n_j holds no population
    and keeps its own index."""
    columns, sizes = np.arange(width), np.array(numbers)[:, None]
    return np.where(columns <= sizes, sizes - columns, columns)


def _log_ratio_rows(n: int):
    """k -> log R_k(l) for l = 0..n (-inf below l = k) from one lgamma
    table g: (g[l] - g[l-k]) - (g[n] - g[n-k])."""
    g = log_factorials(n)

    def row(k):
        values = np.full(n + 1, -np.inf)
        if k <= n:
            values[k:] = (g[k:] - g[: n + 1 - k]) - (g[n] - g[n - k])
        return values

    return row


def _log_sum_exp(terms: np.ndarray) -> np.ndarray:
    """log sum exp over the last axis; -inf where every term is -inf."""
    top = np.max(terms, axis=-1, keepdims=True)
    top[~np.isfinite(top)] = 0.0
    return np.log(np.sum(np.exp(terms - top), axis=-1)) + top[..., 0]


def _log(value: float) -> float:
    """math.log that gives -inf at 0 and nan below it."""
    if value > 0.0:
        return math.log(value)
    return -math.inf if value == 0.0 else math.nan


def _scaled(value: float, log_value: float, scale: float, log_scale: float) -> float:
    """value * scale as a float (inf past the float range), from the logs
    where the value may have lost terms or the scale is inf."""
    if value >= _NORMALIZED_FLOOR and scale < math.inf:
        return value * scale
    try:
        return math.exp(log_value + log_scale)
    except OverflowError:
        return math.inf


def integrated_g2m(state, m: int) -> CorrelationIntegrals:
    """Integrated correlators of order 2m for a state or mixture.

    The operators are diagonal in the sector basis. A sector held as rows
    gives its values from occupation populations in O(N) per sector and
    order, through the one row loop of _population_integrals (a mixture's
    sectors in padded runs of consecutive sectors, _stack_runs, so a wide
    sector never pads narrow ones to its width); the ladder-moment route
    through normally_ordered_moment gives the same numbers and the tests
    hold the two to each other. A sector held as product components gives
    them from the closed form of _product_correlators, with no row, exact
    in logs where its populations would underflow. Orders with 2m > N
    vanish identically. A G value past the float range is inf, but the
    normalized sums travel with it, so csi_ratio stays finite wherever the
    true C_2m is.
    """
    (integrals,) = integrated_g2m_orders(state, (m,))
    return integrals


def integrated_g2m_orders(state, orders) -> list:
    """[integrated_g2m(state, m) for m in orders] from one pass over the
    populations and the ratio rows R_m and R_2m of all the orders (a row
    past the memo is streamed once for all of them, where one call per
    order streams every row from k = 0 again), bit for bit for a state
    held as rows, and one _product_correlators call per component count
    for the sectors held as components (_part_correlators), to rounding:
    that kernel's powers and sums over a sector's components round
    differently with the number of orders it takes at once (as in the
    scans). No orders give [].

    Both routes normalize by alpha = (N)_2m at the largest N of the state.
    Rows give G_ab = alpha kappa c, components G_ab = alpha c, so a state
    with sectors of both kinds adds the components' c / kappa to the rows'
    c, under the rows' scales (log alpha, kappa, log kappa) of
    order_scales; components alone keep the scales (log alpha, 1, 0) of
    _product_correlators, with alpha from its lgamma table, to about eps N
    relative. The sectors held as components add their sums in order and
    their logs by log-sum-exp. The prefactor, sum_j p_j (N_j)_2m, is exact
    from order_scales for every state alike.
    """
    orders = [_check_order(m) for m in orders]
    if not orders:
        return []
    sectors, sums, logs, scales = _normalized_correlators(state, orders)
    integrals = []
    columns = zip(orders, sums.T.tolist(), logs.T.tolist(), *(np.asarray(x).tolist() for x in scales))
    for m, order_sums, order_logs, alpha_m, log_alpha_m, kappa_m, log_kappa_m in columns:
        prefactor = sum(p * order_scales(sector.n_total, m)[0] for p, sector in sectors)
        scales = (alpha_m, alpha_m, alpha_m * kappa_m), (log_alpha_m, log_alpha_m, log_alpha_m + log_kappa_m)
        g_aa, g_bb, g_ab = map(_scaled, order_sums, order_logs, *scales)
        normalized = (order_sums, order_logs, (log_alpha_m, kappa_m, log_kappa_m))
        integrals.append(CorrelationIntegrals(m, g_aa, g_bb, g_ab, prefactor, normalized))
    return integrals


def _normalized_correlators(state, orders, groups=None) -> tuple:
    """(sectors, sums, logs, (alpha, log alpha, kappa, log kappa)) of
    integrated_g2m_orders: sums and logs (3, M), scales (M,); `groups` are
    the _component_groups of its sectors held as components, if given."""
    sectors, rows, parts = _routes(state)
    top = max(sector.n_total for _, sector in sectors)
    if rows:
        row_sectors = [sectors[j][1] for j in rows]
        number_weights = np.array([sectors[j][0] for j in rows])
        runs = [
            (_factor_populations(weights, amplitudes) * number_weights[run, None], run_numbers)
            for run, weights, amplitudes, run_numbers in _padded_stacks(row_sectors)
        ]
        sums, logs = _population_integrals(runs, orders, top)
        alpha, log_alpha, kappa, log_kappa = np.array([order_scales(top, m) for m in orders]).T
    if parts:
        probabilities = np.array([sectors[j][0] for j in parts])
        if groups is None:
            groups = _component_groups([sectors[j][1] for j in parts])
        part_sums, part_logs, part_log_alpha = _part_correlators(groups, probabilities, np.full(len(parts), top), orders)
        part_sums, part_logs = _in_order(part_sums.swapaxes(1, 2)), np.logaddexp.reduce(part_logs, axis=1)
        if rows:
            part_sums[2] /= kappa
            part_logs[2] -= log_kappa
            sums, logs = sums + part_sums, np.logaddexp(logs, part_logs)
        else:
            # every sector shares the one alpha of N = top
            sums, logs, log_alpha = part_sums, part_logs, part_log_alpha[0]
            with np.errstate(over="ignore"):
                alpha = np.exp(log_alpha)
            kappa, log_kappa = np.ones(len(orders)), np.zeros(len(orders))
    return sectors, sums, logs, (alpha, log_alpha, kappa, log_kappa)


def _part_correlators(groups, probabilities, tops, orders) -> tuple:
    """The normalized correlators of _product_correlators, sums and logs
    (3, J, M) and log alpha (J, M), of the J sectors of the component
    groups `groups` (_component_groups), each its own mixture: sector j
    weighs probabilities[j] and is normalized by alpha = (N)_2m at N =
    tops[j]. One kernel call per group, so no sector is padded to another's
    K."""
    sums = np.empty((3, len(probabilities), len(orders)))
    logs = np.empty_like(sums)
    log_alpha = np.empty((len(probabilities), len(orders)))
    for at, weights, z, _, numbers in groups:
        sums[:, at], logs[:, at], (log_alpha[at], _, _) = _product_correlators(
            weights[:, None], z[:, None], 1.0 - z[:, None], probabilities[at, None], np.reshape(numbers, (-1, 1)), orders, tops[at]
        )
    return sums, logs, log_alpha


def _csi_ratios(sums, logs, scales) -> tuple:
    """(C_2m, degenerate) elementwise from normalized correlators: sums
    (a, b, c) and their logs as _population_integrals gives them, with
    the scales (log alpha, kappa, log kappa) of order_scales, or the sums,
    logs and scales (log alpha, 1, 0) of _product_correlators, for values
    or arrays. Plain correlator values (G_aa, G_bb, G_ab) go in with scales
    (0, 1, 0).

    C_2m = kappa c / sqrt(a b). `degenerate` marks the products G_aa G_bb
    <= _DEGENERATE_PRODUCT, tested as log a + log b + 2 log alpha, where
    both local correlators vanish and the ratio is 0/0; those entries carry
    no ratio. Where a sum lies below _NORMALIZED_FLOOR or kappa is inf, the
    ratio is exp(log kappa + log c - (log a + log b)/2), so only a C_2m
    whose true value passes the float range is inf. A product a b outside
    the normal float range is rooted factor by factor, sqrt(a) sqrt(b);
    every other entry keeps the bits of c / sqrt(a b) * kappa (for plain
    values, G_ab / sqrt(G_aa G_bb)).
    """
    (a, b, c), (log_a, log_b, log_c), (log_alpha, kappa, log_kappa) = sums, logs, scales
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        product = a * b
        ratio = c / np.sqrt(product) * kappa
        normal = (product >= _TINY) & (product < math.inf)
        linear = (a >= _NORMALIZED_FLOOR) & (b >= _NORMALIZED_FLOOR) & (c >= _NORMALIZED_FLOOR)
        exact = normal & linear & (kappa < math.inf)
        # one value gives a bool, which has no .all()
        if not (exact if isinstance(exact, bool) else exact.all()):
            # where a factor is itself inf, sqrt(a) sqrt(b) is inf as well
            root = np.where(normal, np.sqrt(product), np.sqrt(a) * np.sqrt(b))
            ratio = np.where(
                linear & (kappa < math.inf),
                c / root * kappa,
                np.exp(log_kappa + log_c - 0.5 * (log_a + log_b)),
            )
        return ratio, log_a + log_b + 2.0 * log_alpha <= _LOG_DEGENERATE_PRODUCT


def csi_ratio(integrals: CorrelationIntegrals) -> float:
    """Cauchy-Schwarz ratio C_2m = G_ab / sqrt(G_aa G_bb).

    Separable states satisfy C_2m <= 1; any excess beyond numerical noise
    witnesses particle entanglement. Raises DegenerateLocalCorrelation
    when both local correlators vanish and the ratio is 0/0, and
    NonFiniteWitnessValue when it is NaN or infinite. Integrals from
    integrated_g2m give the ratio from their normalized sums, so it is
    finite wherever the true C_2m is; integrals built from values give
    G_ab / sqrt(G_aa G_bb) (see _csi_ratios).
    """
    normalized = integrals.normalized
    if normalized is None:
        sums = (integrals.g_aa, integrals.g_bb, integrals.g_ab)
        normalized = (sums, [_log(value) for value in sums], (0.0, 1.0, 0.0))
    ratio, degenerate = _csi_ratios(*normalized)
    (log_a, log_b, _), (log_alpha, *_) = normalized[1], normalized[2]
    return _csi_value(integrals.order_m, ratio, degenerate, log_a + log_b + 2.0 * log_alpha)


def _csi_value(m: int, ratio, degenerate, log_product) -> float:
    """C_2m as a float, or DegenerateLocalCorrelation naming the product
    G_aa G_bb from its log (a product of the values may be inf * 0), or
    NonFiniteWitnessValue."""
    if degenerate:
        raise DegenerateLocalCorrelation(
            f"local correlators G_aa*G_bb = {math.exp(log_product)!r} too small "
            f"for a ratio at order 2m = {2 * m}"
        )
    return _judgeable(float(ratio), f"csi:{m}")


def twin_fock_csi_exact(n_total: int, m: int) -> float:
    """Closed-form C_2m of the twin-Fock state |N/2, N/2>.

    With n = N/2: C_2m = n! (n-2m)! / ((n-m)!)^2, exceeding 1 for every
    feasible order. Exact to 1 ulp wherever the integer path applies
    (m <= 2048, any N). Orders with 2m > N/2 annihilate the cross
    correlator's constituents and raise OrderTooHigh; a ratio past the
    float range (N = 4000 at m = 1000, C(2000, 1000) ~ 2e600) raises
    NonFiniteWitnessValue.
    """
    if n_total <= 0 or n_total % 2:
        raise ValueError("twin-Fock state needs a positive even particle number")
    m = _check_order(m)
    if 2 * m > n_total // 2:
        raise OrderTooHigh(
            f"order 2m = {2 * m} exceeds N/2 = {n_total // 2} for the twin-Fock ratio"
        )
    value = balanced_factorial_ratio(n_total // 2, m)
    return _judgeable(value, f"twin-Fock C_{2 * m} at N = {n_total}")


def twin_fock_csi_approx(n_total: int, m: int) -> float:
    """Large-N approximation exp(eps^2 N / 2) with eps = 2m/N.

    Accurate to a few percent up to eps ~ 0.1 and to 0.1% for
    eps <= 0.02; the m -> 0 limit is exactly 1. A value past the float
    range raises NonFiniteWitnessValue.
    """
    if n_total < 2:
        raise ValueError("need at least two particles")
    if m < 0:
        raise ValueError("correlation order must be nonnegative")
    eps = 2.0 * m / n_total
    try:
        value = math.exp(eps * eps * n_total / 2.0)
    except OverflowError:
        value = math.inf
    return _judgeable(value, f"exp(eps^2 N / 2) at N = {n_total}, 2m = {2 * m}")


# --- number squeezing ------------------------------------------------------------


def number_squeezing_direct(state) -> float:
    """eta^2 = Var(n_a - n_b) / <n_a + n_b> = 4 Var(J_z) / <N> of a state,
    with Var(J_z) about its mean from one spin-moment pass (_spin_stats): a
    sum of nonnegative terms, so eta^2 never goes below 0, a number state
    gives exactly 0 and a coherent one 4 z (1 - z) to a few ulp. Raises
    EmptyState when the state carries no particles.
    """
    n_ref, _, _, var_z = _spin_stats(state)
    return _eta2(n_ref, var_z)


def _eta2(n_ref: float, var_z: float) -> float:
    if n_ref <= _EMPTY_STATE_TOL:
        raise EmptyState(f"total particle number {n_ref!r} is too small")
    return _judgeable(4.0 * var_z / n_ref, "eta2")


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
    value = 1.0 + (integrals.g_aa + integrals.g_bb - 2.0 * integrals.g_ab - n_mean_diff**2) / n_tot
    return _judgeable(value, "eta2")


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
    return _judgeable(1.0 + 2.0 * (1.0 - c2) * g_aa / n_tot, "eta2")


# --- quantum Fisher information ---------------------------------------------------


def _gram_forms(gram, blocks, second) -> np.ndarray:
    """The F_Q quadratic forms T (..., 3, 3) of densities rho = sum_k
    |u_k><u_k| given in the space of their K vectors: F_Q(J_n) = n^T T n.

    gram (..., K, K) holds G_kl = <u_k|u_l>, blocks (..., K, 3, K) the
    generator blocks M_a,kl = <u_k|J_a|u_l> at [k, a, l], and second
    (..., 3, 3) the first term 4 Tr(rho J_a J_b). A batched eigh of G gives
    rho's eigenvalues lam_i and, through V, its support, on which <i|J_a|j>
    = (V^dag M_a V)_ij / sqrt(lam_i lam_j). Then

        T_ab = 4 Tr(rho J_a J_b)
               - 8 sum_{ij kept} Re[(V^dag M_a V)_ij conj((V^dag M_b V)_ij)]
                 / (lam_i + lam_j),

    the pair term of the spectral formula over the pairs of eigenvalues
    above the 1e-12 cutoff, with no division by sqrt(lam). The cost is
    O(K^3) per density. _qfi_forms and _product_forms both end here.
    """
    lead, depth = gram.shape[:-2], gram.shape[-1]
    lam, vectors = _eigh(gram)
    # V^dag M_a V for the three axes at once, as [i, a, j] and then [a, i, j]
    blocks = blocks.reshape(*lead, 3 * depth, depth) @ vectors
    blocks = vectors.conj().swapaxes(-1, -2) @ blocks.reshape(*lead, depth, 3 * depth)
    elements = np.ascontiguousarray(blocks.reshape(*lead, depth, 3, depth).swapaxes(-3, -2))
    # an eigenvalue at or below the cutoff counts as infinite: its pairs
    # weigh 1 / inf = 0, and no 0/0 arises
    kept = np.where(lam > _SPECTRAL_CUTOFF, lam, np.inf)
    inverse = 1.0 / (kept[..., :, None] + kept[..., None, :])
    weighted = elements * inverse[..., None, :, :]
    # Re(sum_ij conj(x_ij) y_ij) is the real dot product of the (re, im) views
    elements = elements.reshape(*lead, 3, -1).view(np.float64)
    weighted = weighted.reshape(*lead, 3, -1).view(np.float64)
    return second - 8.0 * (elements @ weighted.swapaxes(-1, -2))


def _qfi_forms(weights, rows, numbers) -> np.ndarray:
    """The F_Q quadratic forms of B factored sectors, as a (B, 3, 3) array:
    F_Q(J_n) of sector b is n^T forms[b] n.

    Sector b is rho_b = sum_i weights[b, i] |rows[b, i]><rows[b, i]|, with
    numbers[b] particles in the first numbers[b] + 1 columns of its rows;
    weights is (B, K) and rows (B, K, W). With S = sqrt(w) v the scaled
    rows u_k, rho = S^T conj(S). Entries of S below 1e-150 in modulus are
    set to zero first: they carry less than 1e-300 of a row's norm, and on
    coherent tails at N ~ 10^3 their subnormal products would dominate the
    cost. A stack deeper than it is wide (K > W) then swaps S for W rows
    that carry the same density: the eigh rho = X diag(lam) X^dag of its
    W x W density gives them as sqrt(lam) X^T. _gram_forms takes the rest
    from G = conj(S) S^T, the blocks M_a,kl = <u_k|J_a|u_l> and the first
    term 4 sum_k Re<J_a u_k|J_b u_k>, with the axis generators applied
    tridiagonally to the rows (_axis_actions). The cost is O(B W K min(W,
    K)) for the products and O(B min(W, K)^3) for the eigensolves; the
    stack, a run of _stack_runs or one sector, is taken whole.
    """
    scaled = np.sqrt(weights)[..., None] * rows
    scaled[np.abs(scaled) < _AMPLITUDE_FLUSH] = 0.0
    count, depth, width = scaled.shape
    if depth > width:
        # a rounded eigenvalue may lie just below zero
        lam, vectors = _eigh(scaled.transpose(0, 2, 1) @ scaled.conj())
        scaled = np.sqrt(np.maximum(lam, 0.0))[..., None] * vectors.transpose(0, 2, 1)
        depth = width
    bras = scaled.conj()
    gram = bras @ scaled.transpose(0, 2, 1)
    actions = _axis_actions(scaled, numbers)
    # Re<J_a u|J_b u> is the real dot product of the (re, im) views
    spread = actions.reshape(count, 3, -1).view(np.float64)
    second = 4.0 * (spread @ spread.transpose(0, 2, 1))
    blocks = bras @ actions.reshape(count, 3 * depth, width).transpose(0, 2, 1)
    del actions, spread  # the (3, K, W) actions are the largest array here
    return _gram_forms(gram, blocks.reshape(count, depth, 3, depth), second)


def _product_forms(weights, z, phi, numbers) -> np.ndarray:
    """The F_Q quadratic forms of _qfi_forms, (..., J, 3, 3), for sectors
    that mix products: sector j of (..., J, K) weights, z and phi holds
    rho = sum_k w_k |psi_k><psi_k|^{(x) N_j}, N_j = numbers[j], with psi_k =
    (a_k, b_k) = (sqrt(z_k) e^{i phi_k}, sqrt(1 - z_k)), as scans draw them.

    Everything _gram_forms takes has a closed form over the K components,
    so no amplitude row is built and the cost, O(K^3) per sector, does not
    grow with N; it pays where K <= N + 1, and a deeper sector is cheaper
    on its rows. _product_blocks gives G and M, and the first term is
    4 Tr(rho J_a J_b) = N sum_k w_k delta_ab + N (N - 1) sum_k w_k n_k,a n_k,b
    with the Bloch vectors n_k = (2 Re conj(a) b, 2 Im conj(a) b, 2z - 1).
    """
    n = np.asarray(numbers, dtype=float)[:, None, None]
    gram, blocks = _product_blocks(weights, z, phi, n)
    radial = 2.0 * np.sqrt(z * (1.0 - z))
    bloch = np.stack([radial * np.cos(phi), -radial * np.sin(phi), 2.0 * z - 1.0], axis=-1)
    spread = (weights[..., None] * bloch).swapaxes(-1, -2) @ bloch
    total = np.sum(weights, axis=-1)[..., None, None] * np.eye(3)
    return _gram_forms(gram, blocks, n * total + n * (n - 1.0) * spread)


def _product_blocks(weights, z, phi, n) -> tuple:
    """The Gram matrices G (..., J, K, K) and generator blocks M (..., J,
    K, 3, K) of _product_forms, M_a,kl at [k, a, l], for N = n (J, 1, 1).

    With s_kl = <psi_k|psi_l> (s_kk set to exactly 1), G_kl = sqrt(w_k w_l)
    s_kl^N and M_a,kl = sqrt(w_k w_l) N s_kl^{N-1} <psi_k|sigma_a/2|psi_l>
    (zero at N = 0, and exact for orthogonal components, s = 0)."""
    unit = np.exp(1j * phi)
    a = np.sqrt(z) * unit
    b = np.sqrt(1.0 - z)
    # conj(a_k) a_l and b_k b_l from one square root each and a phase that
    # is exactly 1 between equal phases, so two equal components overlap by
    # exactly 1 (a product of the rounded a would miss it by an ulp, which
    # s^N multiplies by N)
    phase = unit.conj()[..., :, None] * unit[..., None, :]
    phase[phi[..., :, None] == phi[..., None, :]] = 1.0
    tops = np.sqrt(z[..., :, None] * z[..., None, :]) * phase
    bottoms = np.sqrt((1.0 - z[..., :, None]) * (1.0 - z[..., None, :]))
    overlap = tops + bottoms
    depth = z.shape[-1]
    overlap[..., range(depth), range(depth)] = 1.0
    # 2 <psi_k|sigma_a/2|psi_l> at [k, a, l], a = x, y, z
    cross, rising = a.conj()[..., :, None] * b[..., None, :], b[..., :, None] * a[..., None, :]
    blocks = np.stack([cross + rising, 1j * (rising - cross), tops - bottoms], axis=-2)
    # sqrt(w_k w_l) s^{N-1} (s^0 = 1, so N = 1 needs no case; at N = 0 the
    # blocks are zero, and no Gram matrix can move a form), in polar form:
    # a complex power costs several times more. The entries
    # below 1e-150 change no eigenvalue and no form past rounding, and the
    # subnormal products of far components would dominate the cost
    exponent = np.maximum(n - 1.0, 0.0)
    turn = exponent * np.angle(overlap)
    lower = np.abs(overlap) ** exponent * np.sqrt(weights[..., :, None] * weights[..., None, :])
    lower = lower * np.exp(1j * turn)
    lower[np.abs(lower) < _AMPLITUDE_FLUSH] = 0.0
    gram = lower * overlap
    gram[np.abs(gram) < _AMPLITUDE_FLUSH] = 0.0
    blocks *= (0.5 * n * lower)[..., :, None, :]
    return gram, blocks


def _log_falling(g, numbers, orders) -> np.ndarray:
    """log (N)_2m = log N!/(N - 2m)! from the lgamma table g (log_factorials
    of at least the largest N), over numbers and orders broadcast together
    (ints); -inf where 2m > N."""
    numbers, twice = np.asarray(numbers), 2 * np.asarray(orders)
    return np.where(numbers >= twice, g[numbers] - g[np.maximum(numbers - twice, 0)], -np.inf)


def _product_correlators(weights, f_a, f_b, probabilities, numbers, orders, top=None) -> tuple:
    """The normalized correlators (sums, logs, scales) _csi_ratios takes, of
    every order m in `orders`, for sectors that mix products: sector j of
    (..., J, K) weights holds sum_k w_k |psi_k><psi_k|^{(x) N_j} with
    probability p_j, N_j = numbers[j], and f_a, f_b (..., J, K) are the
    responses of the two regions to each psi_k (z and 1 - z for the modes).
    numbers and probabilities are (J,), one set for every mixture, or (...,
    J), one set each.

    A product gives G_aa = (N_j)_2m f_a^2m, G_bb = (N_j)_2m f_b^2m and G_ab =
    (N_j)_2m (f_a f_b)^m, so no row is built. With alpha = (N)_2m at N =
    `top` (by default each mixture's largest N_j) and r_j = (N_j)_2m /
    alpha, both from one lgamma table, G_aa = alpha a, G_bb = alpha b and
    G_ab = alpha c for
        a = sum_j p_j r_j sum_k w_k f_a^2m,
    and b and c alike with f_b^2m and f_a^m f_b^m: the scales are (log
    alpha, 1, 0). A sum below _NORMALIZED_FLOOR takes its log from a
    log-sum-exp of log p_j + log r_j + log w_k + m (2 log f_a, 2 log f_b or
    log f_a + log f_b), whose terms are exact, so nothing underflows. The
    orders go in blocks of at most STACK_AMPLITUDES powers over the three
    sums (one order at a time past that), so the temporaries stay within a
    fixed multiple of it. Returns sums and logs, both (3, ..., M), and the
    scales, log alpha (M,) for (J,) numbers, else (..., M).
    """
    lead = weights.shape[:-2]
    weights, f_a, f_b = (np.reshape(x, (-1, *x.shape[-2:]))[..., None] for x in (weights, f_a, f_b))
    orders = np.array(orders, dtype=int)
    numbers = np.asarray(numbers)
    top = np.max(numbers, axis=-1) if top is None else np.asarray(top)
    # (1 or S, J, 1) numbers and (1 or S, J) probabilities, S the mixtures
    sizes = numbers.reshape(-1, numbers.shape[-1], 1)
    probabilities = np.reshape(probabilities, sizes.shape[:-1])
    g = log_factorials(int(max(np.max(top), np.max(numbers))))
    log_alpha = _log_falling(g, top.reshape(-1, 1), orders)
    sums = np.empty((3, len(weights), orders.size))
    logs = np.empty_like(sums)
    step = max(1, STACK_AMPLITUDES // (3 * weights.size))
    for start in range(0, orders.size, step):
        block = slice(start, start + step)
        m = orders[block]
        # log r_j over (J, B); a sector short of 2m particles has r_j = 0
        # (where alpha is 0 as well, the masked difference is -inf - -inf)
        with np.errstate(invalid="ignore"):
            log_ratios = np.where(sizes >= 2 * m, _log_falling(g, sizes, m) - log_alpha[:, None, block], -np.inf)
        weighted = probabilities[..., None] * np.exp(log_ratios)
        half_a, half_b = f_a**m, f_b**m
        terms = np.stack([f_a ** (2 * m), f_b ** (2 * m), half_a * half_b]) * weights
        sums[..., block] = np.sum(np.sum(terms, axis=-2) * weighted, axis=-2)
        lost = sums[..., block] < _NORMALIZED_FLOOR
        with np.errstate(divide="ignore"):
            logs[..., block] = np.log(sums[..., block])
            if not lost.any():
                continue
            half_a, half_b = m * np.log(f_a), m * np.log(f_b)
            terms = np.stack([2.0 * half_a, 2.0 * half_b, half_a + half_b]) + np.log(weights)
            terms += (np.log(probabilities)[..., None] + log_ratios)[:, :, None]
            # the (J, K) terms of each sum last, for one log-sum-exp
            terms = np.moveaxis(terms, -1, 2).reshape(*lost.shape, -1)
            logs[..., block] = np.where(lost, _log_sum_exp(terms), logs[..., block])
    shape = (3, *lead, orders.size)
    return sums.reshape(shape), logs.reshape(shape), (log_alpha.reshape(*top.shape, orders.size), 1.0, 0.0)


def _stack_runs(shapes):
    """Split consecutive (depth, width) shapes into runs whose padded stack,
    length x largest depth x largest width, holds at most STACK_AMPLITUDES
    entries, or a single shape; yield each run as a slice of the shapes."""
    start, depth, width = 0, 0, 0
    for i, shape in enumerate(shapes):
        grown = (max(depth, shape[0]), max(width, shape[1]))
        if i > start and (i - start + 1) * grown[0] * grown[1] > STACK_AMPLITUDES:
            yield slice(start, i)
            start, grown = i, shape
        depth, width = grown
    yield slice(start, len(shapes))


def _padded_stacks(sectors):
    """Yield (run, weights (B, K), rows (B, K, W), numbers) for runs of
    consecutive sector densities (_stack_runs; `run` slices the sectors):
    each run is one padded stack, with zero-weight zero rows below its
    shallower sectors and zero columns past each N. A run of one sector is
    a read-only view of its own factors, with no copy."""
    for run in _stack_runs([(sector.weights.size, sector.n_total + 1) for sector in sectors]):
        group = sectors[run]
        numbers = [sector.n_total for sector in group]
        if len(group) == 1:
            yield run, group[0].weights[None], group[0].vectors[None], numbers
            continue
        weights = np.zeros((len(group), max(sector.weights.size for sector in group)))
        rows = np.zeros(weights.shape + (max(numbers) + 1,), dtype=np.complex128)
        for b, sector in enumerate(group):
            weights[b, : sector.weights.size] = sector.weights
            rows[b, : sector.weights.size, : sector.n_total + 1] = sector.vectors
        yield run, weights, rows, numbers


def _component_forms(weights, z, phi, numbers) -> np.ndarray:
    """The F_Q forms (S, J, 9) of S ensembles of products, as (S, J, K)
    weights, z and phi over the J particle numbers (a tuple): form [s, j]
    is sector j of ensemble s, F_Q(J_n) = n^T form n.

    The sectors go in the runs of _stack_runs, each padded only to its own
    width W = max N + 1. A deep run, one whose K exceeds W, takes its forms
    from complex amplitude rows (_coherent_rows, checked by _check_factors,
    then _qfi_forms, which an eigh of the W x W density compresses to W
    rows: O(K W^2) per sector). Any other run takes them from the K x K
    closed forms of _product_forms (O(K^3) per sector, no row). Both end in
    the same K-space kernel, _gram_forms. The scans and the witnesses of
    states held as components both take F_Q through here.
    """
    count, _, depth = weights.shape
    forms = []
    for run in _stack_runs([(count * depth, n + 1) for n in numbers]):
        run_weights, run_numbers = weights[:, run], numbers[run]
        if depth <= max(run_numbers) + 1:
            forms.append(_product_forms(run_weights, z[:, run], phi[:, run], run_numbers))
            continue
        rows = _coherent_rows(run_numbers, z[:, run], phi[:, run])
        _check_factors(run_weights, rows)
        stack = run_weights.reshape(-1, depth), rows.reshape(-1, depth, rows.shape[-1])
        forms.append(_qfi_forms(*stack, run_numbers * count))
    return np.concatenate([form.reshape(count, -1, 9) for form in forms], axis=1)


def _part_forms(groups) -> np.ndarray:
    """The F_Q forms (J, 9) of the J sectors of the component groups
    `groups` (_component_groups), through _component_forms, in one stack
    per group: no sector is padded to another's K, whose K x K eigensolve
    would cost it K^3."""
    forms = np.empty((sum(len(at) for at, *_ in groups), 9))
    for at, weights, z, phi, numbers in groups:
        # the group as the sectors of one ensemble
        forms[at] = _component_forms(weights[None], z[None], phi[None], numbers)[0]
    return forms


def qfi(state, g):
    """Quantum Fisher information for rotations generated by J_n.

    Generators conserve N, so a number mixture's matrix is block diagonal
    and F_Q is the weight-averaged sector value: the number weights average
    the sectors' quadratic forms (F_Q(J_n) = n^T T n). A sector held as
    rows takes its form from one routine, _qfi_forms: the spectral formula
    F_Q = 2 sum_{ij} (lam_i - lam_j)^2 / (lam_i + lam_j) |<i|J_n|j>|^2,
    evaluated on the support of each sector (eigenvalues above the 1e-12
    cutoff) from its K factor rows in O(N K min(N, K)), in the space of at
    most min(K, N + 1) rows (_gram_forms), the sectors in padded stacks of
    up to STACK_AMPLITUDES amplitudes. A pure state is the one-row sector,
    and its F_Q is 4 Var(J_n) to rounding. Sectors held as product
    components take their forms as the scans do (_component_forms): the K
    x K closed forms, with no row, unless K > N + 1. Any separable state
    obeys F_Q <= N (or <N> for fluctuating number); more is entanglement.

    `g` is one GeneratorSpec, which returns a float, or a (k, 3) stack of
    unit directions (checked as GeneratorSpec checks its one), which returns
    the k values as an array. A stack factorizes each sector once for all
    its directions, and each value equals the one its direction gives
    alone. A NaN or infinite value raises NonFiniteWitnessValue.
    """
    single = isinstance(g, GeneratorSpec)
    directions = g.direction[None] if single else _unit_directions(g, 2)
    values = _judgeable(_qfi_values(state, directions), "qfi")
    return float(values[0]) if single else values


def _qfi_values(state, directions, part_forms=None) -> np.ndarray:
    """F_Q of a state along each of the (k, 3) directions, unjudged;
    part_forms(), if given, gives the forms of its sectors held as
    components."""
    sectors, rows, parts = _routes(state)
    # a sector of weight 0 adds nothing, and is not evaluated
    rows = [j for j in rows if sectors[j][0] > 0.0]
    parts = [j for j in parts if sectors[j][0] > 0.0]
    forms = np.empty((len(sectors), 9))
    if rows:
        stacks = _padded_stacks([sectors[j][1] for j in rows])
        forms[rows] = np.concatenate([_qfi_forms(*stack) for _, *stack in stacks]).reshape(-1, 9)
    if parts:
        forms[parts] = part_forms() if part_forms else _part_forms(_component_groups([sectors[j][1] for j in parts]))
    kept = sorted(rows + parts)
    number_weights = np.array([sectors[j][0] for j in kept])
    form = (number_weights @ forms[kept]).reshape(3, 3)
    return np.einsum("ka,ab,kb->k", directions, form, directions)


# --- spin squeezing ----------------------------------------------------------------


def spin_squeezing(state) -> float:
    """xi^2 = n_ref Var(J_z) / (<J_x>^2 + <J_y>^2); separable states give
    xi^2 >= 1, and xi^2 < 1 witnesses entanglement useful for phase
    estimation.

    Accepts every state the witnesses take (_spin_stats): exact states from
    their rows, ensembles from the closed-form moments, with Var J_z taken
    about its mean: every coherent spin state lies on the bound, which a
    difference of raw moments would cross by rounding. n_ref is the total
    particle number, or its mean when the number fluctuates.

    Raises ZeroMeanSpinDirection when the mean spin has no transverse
    component to reference the variance against, and NonFiniteWitnessValue
    when xi^2 is NaN or infinite.
    """
    return _xi2(*_spin_stats(state))


def _xi2(n_ref: float, jx: float, jy: float, var_z: float) -> float:
    value, zero = _squeezing(n_ref, jx, jy, var_z)
    if zero:
        raise ZeroMeanSpinDirection(
            f"mean transverse spin squared {jx * jx + jy * jy!r} is negligible against "
            f"n_ref = {n_ref!r}"
        )
    return _judgeable(float(value), "xi2")


def _spin_stats(state, part_moments=None) -> tuple:
    """(n_ref, <J_x>, <J_y>, Var J_z) of a state, as floats, from one pass:
    eta^2 and xi^2 both read it. Each sector gives its own moments, from
    one centred pass over its rows (fock._spin_mean_covariance) or from the
    closed form of its components (separable._part_moments, whose
    transverse means are per particle, so they weigh p N), and
    separable._joined_moments joins them by the law of total variance. A
    state of rows alone gets the bits of _spin_mean_covariance, and one of
    components alone those of analytic_spin_moments. part_moments(), if
    given, gives those of the sectors held as components."""
    sectors, rows, parts = _routes(state)
    scale = np.ones(len(sectors))
    moments = np.empty((4, len(sectors)))
    for j in rows:
        mu, cov = _spin_mean_covariance(sectors[j][1])
        moments[:, j] = (*mu, cov[2, 2])
    if parts:
        moments[:, parts] = part_moments() if part_moments else _part_moments(_component_groups([sectors[j][1] for j in parts]))
        scale[parts] = [sectors[j][1].n_total for j in parts]
    p = np.array([p for p, _ in sectors])
    return (state.mean_n, *(float(value) for value in _joined_moments(p, scale, moments)))


def _squeezing(n_ref: float, jx, jy, var_z) -> tuple:
    """(xi^2, zero) elementwise from the spin moments and n_ref, for values
    or arrays: `zero` marks a mean transverse spin <J_x>^2 + <J_y>^2 at or
    below 1e-18 max(n_ref^2, 1), which leaves no direction to reference the
    variance against; those entries carry no ratio."""
    denom = jx * jx + jy * jy
    zero = denom <= _MEAN_SPIN_GUARD * np.maximum(n_ref * n_ref, 1.0)
    return n_ref * var_z / np.where(zero, 1.0, denom), zero


# --- combined verdicts ---------------------------------------------------------------


_BOUND_SIDES = {"csi": "upper", "qfi": "upper", "xi2": "lower", "eta2": None}


def _bound_rule(kind: str, n_reference) -> tuple:
    """(bound, side, margin) of a kind's separable bound in witness reports
    and scans: C_2m upper at 1, F_Q upper at n_reference (arrays for an
    array), xi^2 lower at 1, each with margin WITNESS_TOLERANCE x max(1,
    |bound|), as a coherent state's F_Q misses N by rounding that grows with
    N. eta^2 has side None: sub-shot-noise fluctuations alone prove nothing."""
    if kind not in _BOUND_SIDES:
        raise ValueError(f"unknown witness kind {kind!r}")
    bound = (n_reference if isinstance(n_reference, np.ndarray) else float(n_reference)) if kind == "qfi" else 1.0
    scale = np.maximum(1.0, np.abs(bound)) if isinstance(bound, np.ndarray) else max(1.0, abs(bound))
    return bound, _BOUND_SIDES[kind], WITNESS_TOLERANCE * scale


def witness_verdict(kind: str, value, n_reference) -> tuple:
    """(bound, flag) of one witness value: the flag marks a value past its
    separable bound, on the side _bound_rule gives, by more than its margin;
    eta^2 has no bound and gives (None, None). A NaN or infinite value, of
    any kind, raises NonFiniteWitnessValue. An array is judged elementwise
    against n_reference broadcast with it; its first NaN or infinity raises
    as it does alone."""
    _judgeable(value, kind)
    bound, side, margin = _bound_rule(kind, n_reference)
    if side is None:
        return None, None
    flag = value > bound + margin if side == "upper" else value < bound - margin
    return bound, flag if isinstance(flag, np.ndarray) else bool(flag)


def classify(
    n_reference: float,
    csi_by_order: dict | None = None,
    eta2: float | None = None,
    xi2: float | None = None,
    qfi_by_generator: dict | None = None,
) -> WitnessReport:
    """Assemble witness values into verdicts: any C_2m, F_Q or xi^2 that
    witness_verdict flags; eta^2 is reported but never flags. At least one
    witness value must be supplied, and every one is judged, so a NaN or
    infinite value raises NonFiniteWitnessValue."""
    if csi_by_order is None and eta2 is None and xi2 is None and qfi_by_generator is None:
        raise ValueError("at least one computed witness is required")
    csi = dict(csi_by_order or {})
    qfi_values = dict(qfi_by_generator or {})

    def flags(kind, values):
        # a list, not a generator: any() would stop before judging the rest
        return any([witness_verdict(kind, v, n_reference)[1] for v in values])

    flags("eta2", [] if eta2 is None else [eta2])  # judged, though it never flags
    return WitnessReport(
        n_reference=float(n_reference),
        csi_by_order=csi,
        eta2=eta2,
        xi2=xi2,
        qfi_by_generator=qfi_values,
        entangled_by_csi=flags("csi", csi.values()),
        entangled_by_qfi=flags("qfi", qfi_values.values()),
        entangled_by_spin_squeezing=xi2 is not None and flags("xi2", [xi2]),
    )



# --- witness requests ----------------------------------------------------------------


# the report key of each axis direction, and the form of each request that
# takes a parameter, quoted when a value is refused
_AXIS_KEYS = {(1.0, 0.0, 0.0): "x", (0.0, 1.0, 0.0): "y", (0.0, 0.0, 1.0): "z"}
_WITNESS_FORMS = {"csi": "csi:<m>, m a positive integer", "qfi": "qfi:x|y|z or qfi:<nx>,<ny>,<nz>"}


def _parse_witness_request(text: str):
    """One witness request, the --witness form -> (report key, kind,
    parameter); the parameter is a checked csi order, a checked unit qfi
    direction or None, and a qfi key names a direction along an axis by its
    axis. A name and an axis letter are read stripped and lower-cased.
    Raises ValueError, quoting a refused csi or qfi value and the form it
    takes."""
    name, _, param = text.partition(":")
    name = name.strip().lower()
    if name in ("all", "eta2", "xi2"):
        if param:
            raise ValueError(f"{name!r} takes no parameter")
        return (name, name, None)
    if name not in _WITNESS_FORMS:
        raise ValueError(f"unknown witness {text!r}")
    try:
        if name == "csi":
            m = _check_order(int(param) if param else 1)
            return (f"csi:{m}", "csi", m)
        axis = param.strip().lower()
        if axis in ("", "x", "y", "z"):
            generator = GeneratorSpec.axis(axis or "z")
        else:
            parts = [float(p) for p in param.split(",")]
            if len(parts) != 3:
                raise ValueError(f"got {len(parts)} components")
            generator = GeneratorSpec.from_vector(np.array(parts))
    except ValueError as exc:
        raise ValueError(f"--witness {text!r} must take the form {_WITNESS_FORMS[name]} ({exc})") from None
    key = generator.key()
    label = _AXIS_KEYS.get(key) or "{:g},{:g},{:g}".format(*key)
    return (f"qfi:{label}", "qfi", generator.direction)


@dataclass(frozen=True)
class _Failure:
    """A WitnessError as its type and message (not its traceback's frames)."""

    error: type
    message: str


def _attempt(compute):
    """compute(), or the _Failure of the WitnessError it raises."""
    try:
        return compute()
    except WitnessError as exc:
        return _Failure(type(exc), str(exc))


def _value_or_raise(value):
    """`value`, or the WitnessError of a _Failure, raised again."""
    if isinstance(value, _Failure):
        raise value.error(value.message)
    return value


def _readings(state, requests, per_sector: bool) -> tuple:
    """(sectors, columns): the _columns of the (key, kind, parameter)
    requests over the readings of the state, whole first, then, with
    per_sector, of each sector of a NumberSectorMixture or a
    FluctuatingEnsemble, whose (N, p) pairs `sectors` lists ([] otherwise).

    The sectors held as components are grouped once (_component_groups),
    and every kernel of the request takes those groups. Each kind takes one
    pass for all its requests. A sector held as rows is read alone; the
    sectors held as components, as one stack, whose F_Q forms and spin
    moments the whole state joins (its C_2m normalizes at its largest N: a
    call of its own; and it leaves out sectors of weight 0, so it shares
    the forms only where none weighs 0, as a run of _stack_runs takes its
    route from its sectors). A stack that raises a WitnessError fails the
    whole state, and each sector is read alone. Each stack is evaluated
    when first read, so a state read whole takes only those it joins."""
    orders = [param for _, kind, param in requests if kind == "csi"]
    directions = np.array([param for _, kind, param in requests if kind == "qfi"]).reshape(-1, 3)
    spin = any(kind in ("eta2", "xi2") for _, kind, _ in requests)
    kinds = [kind for kind, wanted in zip(("csi", "qfi", "spin"), (orders, len(directions), spin)) if wanted]
    shapes = {"csi": (3, len(orders)), "qfi": (len(directions),), "spin": (3,)}
    sectors, rows, parts = _routes(state)
    group = [sectors[j][1] for j in parts]
    groups = _component_groups(group)
    numbers = np.array([part.n_total for part in group], dtype=int)
    kernels = {  # of the sectors of `groups`, each at its own N, `tops`
        "csi": lambda groups, tops: _part_correlators(groups, np.ones(len(tops)), tops, orders),
        "qfi": lambda groups, tops: _part_forms(groups),
        "spin": lambda groups, tops: _part_moments(groups),
    }
    split = per_sector and isinstance(state, (NumberSectorMixture, FluctuatingEnsemble))
    stacks = {}

    def stack(kind):  # a kernel over `groups`, or its failure, evaluated when first read
        if kind not in stacks:
            stacks[kind] = _attempt(lambda: kernels[kind](groups, numbers))
        return stacks[kind]

    shared = {kind: lambda kind=kind: _value_or_raise(stack(kind)) for kind in ("qfi", "spin")}
    if not all(sectors[j][0] > 0.0 for j in parts):
        del shared["qfi"]
    whole = _read(state, orders, directions, kinds, groups, shared)
    if not split:
        failed = {kind: {0: value} if isinstance(value, _Failure) else {} for kind, value in whole.items()}
        values = {kind: np.full((1, *shapes[kind]), np.nan) if failed[kind] else whole[kind] for kind in kinds}
        return [], _columns(requests, [state.mean_n], values, failed)
    values = {kind: np.full((1 + len(sectors), *shapes[kind]), np.nan) for kind in kinds}
    failed = {kind: {} for kind in kinds}

    def put(kind, at, value):  # the values of the readings at positions `at`, or their failure
        if isinstance(value, _Failure):
            failed[kind].update(dict.fromkeys(at, value))
        else:
            values[kind][at] = value

    for kind, value in whole.items():
        put(kind, [0], value)
    for j in rows:
        for kind, value in _read(sectors[j][1], orders, directions, kinds).items():
            put(kind, [1 + j], value)
    for kind in kinds if parts else ():
        stacked = stack(kind)
        if not isinstance(stacked, _Failure):
            put(kind, [1 + j for j in parts], _stack_values(kind, stacked, numbers, directions))
            continue
        for l, j in enumerate(parts):
            value = _attempt(lambda: kernels[kind](_component_groups([group[l]]), numbers[[l]]))
            put(kind, [1 + j], value if isinstance(value, _Failure) else _stack_values(kind, value, numbers[[l]], directions))
    pairs = [(sector.n_total, p) for p, sector in sectors]
    return pairs, _columns(requests, [state.mean_n] + [float(n) for n, _ in pairs], values, failed)


def _read(state, orders, directions, kinds, groups=None, shared=None) -> dict:
    """{kind: (1, ...) value or _Failure} of a state read whole: the rows
    of _csi_rows, F_Q along each direction, and (<J_x>, <J_y>, Var J_z).
    `groups` are the _component_groups of its sectors held as components,
    and `shared` maps "qfi" and "spin", if given, to functions that give
    their F_Q forms and spin moments."""
    shared = shared or {}
    compute = {
        "csi": lambda: _csi_rows(*_normalized_correlators(state, orders, groups)[1:]),
        "qfi": lambda: _qfi_values(state, directions, shared.get("qfi")),
        "spin": lambda: _spin_stats(state, shared.get("spin"))[1:],
    }
    return {kind: _attempt(lambda: np.asarray(compute[kind]())[None]) for kind in kinds}


def _csi_rows(sums, logs, scales) -> np.ndarray:
    """(..., 3, M) rows C_2m, degenerate (1.0 or 0.0) and log(G_aa G_bb) of
    _csi_ratios, from normalized correlators and the last 3 of their scales."""
    scales = scales[-3:]
    ratios, degenerate = _csi_ratios(sums, logs, scales)
    return np.array([ratios, degenerate, logs[0] + logs[1] + 2.0 * scales[0]]).swapaxes(0, -2)


def _stack_values(kind, stacked, numbers, directions) -> np.ndarray:
    """`kind`'s values of each sector of a stack read alone, from its kernel output."""
    if kind == "csi":
        return _csi_rows(stacked[0], stacked[1], (stacked[2], 1.0, 0.0))
    if kind == "qfi":
        return np.einsum("ka,sab,kb->sk", directions, stacked.reshape(-1, 3, 3), directions)
    return np.array(_joined_moments(1.0, numbers[:, None].astype(float), stacked[..., None])).T


_VERDICT_SLOTS = {"csi": 0, "qfi": 1, "xi2": 2}  # eta^2 gives no verdict; 3 is any of them


def _columns(requests, n_refs, values, failed) -> tuple:
    """(keys, values, bounds, flags, failures, verdicts) of the (key, kind,
    parameter) requests over S readings of reference numbers n_refs, from
    each kernel kind's (S, ...) values and {s: _Failure}: the keys by kind,
    C_2m, F_Q, xi^2, eta^2; one row of S values, bounds and flags per key
    (eta^2 has bound and flag None); {s: {key: _Failure}}; and S rows of
    whether an entry that holds flags, among the C_2m, the F_Q, the xi^2 and
    all. Each kind's values come from one array pass over the readings, and
    each row is judged against the limit row, bound plus or minus margin,
    of _bound_rule, by the one comparison of its side. A failed kernel
    fails its kind; the scalar rules (_csi_value, qfi's _judgeable, _eta2,
    _xi2) run only on the entries they may refuse (a NaN or infinity, a
    degenerate C_2m, an empty reference or no mean spin) and give the other
    errors."""
    n_list = [float(n) for n in n_refs]
    n_refs, none = np.array(n_list), [None] * len(n_list)
    asked = {"csi": [], "qfi": [], "xi2": [], "eta2": []}
    for key, kind, param in requests:
        asked[kind].append((key, param))
    csi, qfi, spin = values.get("csi"), values.get("qfi"), values.get("spin")
    rules = {
        "csi": lambda s, i: _csi_value(asked["csi"][i][1], *csi[s, :, i]),
        "qfi": lambda s, i: _judgeable(qfi[s], "qfi"),
        "xi2": lambda s, i: _xi2(n_list[s], *spin[s].tolist()),
        "eta2": lambda s, i: _eta2(n_list[s], float(spin[s, 2])),
    }
    keys, table, bounds, flags, failures = [], [], [], [], {}
    verdicts = [[False] * 4 for _ in n_list]
    for kind, wanted in asked.items():
        if not wanted:
            continue
        if kind == "csi":  # each row of values, and of the entries the rule may refuse
            rows, guards = csi[:, 0].T.tolist(), csi[:, 1].T.tolist()
        elif kind == "qfi":
            rows, guards = qfi.T.tolist(), None
        elif kind == "xi2":
            rows, guards = ([row] for row in np.array(_squeezing(n_refs, *spin.T)).tolist())
        else:
            rows = [(4.0 * spin[:, 2] / np.maximum(n_refs, _EMPTY_STATE_TOL)).tolist()]
            guards = [[n <= _EMPTY_STATE_TOL for n in n_list]]
        bound, side, margin = _bound_rule(kind, n_refs)
        limit = bound + margin if side == "upper" else bound - margin
        bound, limit = ([bound] * len(n_list), [limit] * len(n_list)) if side is None or isinstance(bound, float) else (bound.tolist(), limit.tolist())
        passes = operator.gt if side == "upper" else operator.lt
        for i, ((key, _), row) in enumerate(zip(wanted, rows)):
            flag = none if side is None else list(map(passes, row, limit))
            if not math.isfinite(sum(row)) or guards and True in guards[i]:
                for s in [s for s, value in enumerate(row) if not math.isfinite(value) or guards and guards[i][s]]:
                    failure = failed["spin" if kind in ("xi2", "eta2") else kind].get(s) or _attempt(lambda: rules[kind](s, i))
                    if isinstance(failure, _Failure):
                        failures.setdefault(s, {})[key] = failure
                        if side is not None:
                            flag[s] = False  # no verdict of it
            for s in [s for s, hit in enumerate(flag) if hit] if kind in _VERDICT_SLOTS and True in flag else ():
                verdicts[s][_VERDICT_SLOTS[kind]] = verdicts[s][3] = True
            keys.append(key)
            table.append(row)
            bounds.append(none if side is None else bound)
            flags.append(flag)
    return keys, table, bounds, flags, failures, verdicts
