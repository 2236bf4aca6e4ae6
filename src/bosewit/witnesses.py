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

from ._factorials import (
    balanced_factorial_ratio,
    correlator_rows,
    log_factorials,
    order_scales,
    ratio_rows,
)
from .errors import (
    DegenerateLocalCorrelation,
    EigendecompositionFailure,
    EmptyState,
    OrderTooHigh,
    ZeroMeanSpinDirection,
)
from .fock import (
    _DEGENERATE_PRODUCT,
    _EMPTY_STATE_TOL,
    _MEAN_SPIN_GUARD,
    _NORMALIZED_FLOOR,
    _SPECTRAL_CUTOFF,
    _UNIT_TOL,
    DEFAULT_N_MAX,
    WITNESS_TOLERANCE,
    GeneratorSpec,
    NumberSectorMixture,
    _axis_actions,
    _generator_first_two,
    _sectors,
    normally_ordered_moment,
)
from .separable import (
    FluctuatingEnsemble,
    SeparableEnsemble,
    analytic_spin_moments,
    ensemble_to_state,
)

# The tolerances and cutoffs, WITNESS_TOLERANCE among them, are in fock.
_LOG_DEGENERATE_PRODUCT = math.log(_DEGENERATE_PRODUCT)
_TINY = float(np.finfo(float).tiny)

# Complex amplitudes in one padded factor stack (1 MiB of rows). The F_Q
# kernel takes longer stacks in slices of this size, a mixture's sectors
# are stacked in runs of at most this size, and a scan chunk holds as many
# samples as fit (never fewer than one sector or sample), so the stacked
# temporaries stay within a fixed multiple of it.
STACK_AMPLITUDES = 2**16


@dataclass(frozen=True)
class CorrelationIntegrals:
    """The three integrated correlators of one order plus the prefactor
    alpha_2m = N!/(N-2m)! shared by all of them (its number-weighted mean
    for a mixture). Values past the float range are inf.

    `normalized` carries the (sums, logs, scales) _csi_ratios takes for
    this order when the integrals come from a state, so csi_ratio never
    forms G_aa G_bb; it is None for integrals built from values."""

    order_m: int
    g_aa: float
    g_bb: float
    g_ab: float
    prefactor_alpha: float
    normalized: tuple | None = field(default=None, repr=False, compare=False)


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


def _population_integrals(runs, orders, per_order: bool = False) -> tuple:
    """Normalized correlators (sums, logs) of every order m in `orders`,
    for runs of weighted sector populations: each run is (weighted,
    numbers), p_j P_j (..., J, W) of J sectors with numbers[j] particles
    each (zero past a sector's own count, W the run's largest count + 1),
    and every run has the same leading shape. N is the largest count of
    all runs.

    The correlators are diagonal in the |l, n-l> basis. With the ratio
    rows R_k(l) = [l!/(l-k)!] / [N!/(N-k)!] in [0, 1] (_factorials), alpha
    = N!/(N-2m)! and kappa = N!(N-2m)!/((N-m)!)^2, G_aa = alpha a, G_bb =
    alpha b and G_ab = alpha kappa c, where
        a = sum_j p_j P_j . R_2m,
        b = sum_j p_j P_j . R_2m(n_j - .),
        c = sum_j p_j P_j . (R_m * R_m(n_j - .));
    one sector gives a = P . R_2m, b = P . reverse(R_2m) and c = P . (R_m *
    reverse(R_m)). So C_2m = kappa c / sqrt(a b), and a, b, c never
    overflow. A run of W columns takes the first W entries of each row, so
    the rows are streamed once, over the orders, however many runs there
    are; each run meets the rows of every order in one BLAS product per
    block of at most STACK_AMPLITUDES row entries, so no table of all
    orders is held. One sector of N <= DEFAULT_N_MAX takes memoized rows
    (_factorials.correlator_rows). A sum is within about 2k eps relative
    for row k.

    A BLAS product rounds a row's sum differently with the number of rows
    it takes. With `per_order`, every order keeps a block of its own, so
    each order gets the bits a call with that order alone gives; an order
    then holds its R_m rows, below STACK_AMPLITUDES entries, until R_2m
    comes. Otherwise the orders share their blocks.

    A sum below _NORMALIZED_FLOOR may have lost terms to underflow: only
    that entry is recomputed, as a log-sum-exp over log(p_j P_j(l)) plus
    log R_k from one lgamma table, within about eps N log N absolute. A sum
    with no population where its row is nonzero is zero by structure and
    is not recomputed.

    Returns sums and logs, both (3, ..., M): a, b, c and their logs (the
    scales of N come from _log_scales). Orders with 2m > N give zero sums.
    """
    n = max(max(numbers) for _, numbers in runs)
    lead = runs[0][0].shape[:-2]
    flats = [weighted.reshape(-1, weighted.shape[-2] * weighted.shape[-1]) for weighted, _ in runs]
    orders = [int(m) for m in orders]
    total = len(orders)
    widths = [weighted.shape[-1] for weighted, _ in runs]
    mirrors = [_mirror(width, numbers) for width, (_, numbers) in zip(widths, runs)]
    if len(runs) == 1 and len(runs[0][1]) == 1 and n <= DEFAULT_N_MAX:
        rows = [correlator_rows(n, m) for m in orders]
        blocks = [[order_rows] for order_rows in rows] if per_order else [rows]
        sums = np.hstack([flats[0] @ np.concatenate(block).T for block in blocks])
    else:
        # sums[:, 3 i + kind] of order i; kinds a, b, c
        sums = np.empty((len(flats[0]), 3 * total))
        columns = sum(flat.shape[1] for flat in flats)
        group = range(total) if per_order else [0] * total  # the block of each order
        at_single, at_double, last = {}, {}, {}
        for i, m in enumerate(orders):
            at_single.setdefault(m, []).append(i)
            at_double.setdefault(2 * m, []).append(i)
            last[group[i]] = max(last.get(group[i], 0), 2 * m)
        wanted = sorted(at_single.keys() | at_double.keys())
        pending = {}  # group -> (a block of rows per run, their columns of sums)
        for k, row in zip(wanted, ratio_rows(n, wanted)):
            heads = [row[:width] for width in widths]
            for i in at_double.get(k, ()):
                blocks, targets = pending.setdefault(group[i], ([[] for _ in runs], []))
                for block, head, mirror, (_, numbers) in zip(blocks, heads, mirrors, runs):
                    block += [_kind_row(head, mirror, len(numbers), kind, None) for kind in (0, 1)]
                targets += [3 * i, 3 * i + 1]
            for i in at_single.get(k, ()):
                blocks, targets = pending.setdefault(group[i], ([[] for _ in runs], []))
                for block, head, mirror, (_, numbers) in zip(blocks, heads, mirrors, runs):
                    block.append(_kind_row(head, mirror, len(numbers), 2, np.multiply))
                targets.append(3 * i + 2)
            for g in {group[i] for i in at_double.get(k, []) + at_single.get(k, [])}:
                blocks, targets = pending[g]
                if len(targets) * columns >= STACK_AMPLITUDES or k == last[g]:
                    sums[:, targets] = sum(flat @ np.array(block).T for flat, block in zip(flats, blocks))
                    del pending[g]
    sums = sums.reshape(-1, total, 3)

    lost = sums < _NORMALIZED_FLOOR
    if not lost.any():
        return _by_kind(sums, lead), _by_kind(np.log(sums), lead)
    # A sum with no population where its row is nonzero (l >= k; mirrored
    # for b, both for c), as every sum of an order with 2m > N, is zero by
    # structure: its log is -inf, which the fallback would give as well.
    for i, kind in zip(*np.nonzero(lost.any(axis=0))):
        samples = np.flatnonzero(lost[:, i, kind])
        k = orders[i] if kind == 2 else 2 * orders[i]
        reached = False
        for flat, width, mirror, (_, numbers) in zip(flats, widths, mirrors, runs):
            support = _kind_row(np.arange(width) >= k, mirror, len(numbers), kind, np.logical_and)
            reached = reached | (flat[samples][:, support] > 0.0).any(axis=1)
        lost[samples, i, kind] = reached
    with np.errstate(divide="ignore"):
        logs = np.log(sums)
        if lost.any():
            log_flats = [np.log(flat) for flat in flats]
            log_rows = _log_ratio_rows(n)
            for i, kind in zip(*np.nonzero(lost.any(axis=0))):
                row = log_rows(orders[i] if kind == 2 else 2 * orders[i])
                samples = np.flatnonzero(lost[:, i, kind])
                parts = []
                for log_flat, width, mirror, (_, numbers) in zip(log_flats, widths, mirrors, runs):
                    terms = _kind_row(row[:width], mirror, len(numbers), kind, np.add)
                    parts.append(_log_sum_exp(log_flat[samples] + terms))
                logs[samples, i, kind] = np.logaddexp.reduce(parts)
    return _by_kind(sums, lead), _by_kind(logs, lead)


def _kind_row(head, mirror, count: int, kind: int, pair):
    """One order's row over a run's flattened (J W) columns, from its first
    W entries `head`: head in each of the `count` sectors (kind a), its
    mirror (b), or pair(head, mirror) (c)."""
    if kind == 0:
        return np.tile(head, count)
    if kind == 1:
        return head[mirror].ravel()
    return pair(head, head[mirror]).ravel()


def _mirror(width: int, numbers):
    """Index of the mode-b occupation n_j - l of column l in each sector
    j of a run `width` columns wide; a column past n_j holds no population
    and keeps its own index. One full-width sector is a reversal."""
    if len(numbers) == 1 and numbers[0] == width - 1:
        return slice(None, None, -1)
    columns, sizes = np.arange(width), np.array(numbers)[:, None]
    return np.where(columns <= sizes, sizes - columns, columns)


def _by_kind(values: np.ndarray, lead: tuple) -> np.ndarray:
    """(S, M, 3) values as (3, *lead, M)."""
    return values.transpose(2, 0, 1).reshape(3, *lead, values.shape[1])


def _log_scales(n: int, orders) -> np.ndarray:
    """(log alpha, kappa, log kappa) of N = n for every order, as (3, M):
    the scales _csi_ratios takes with the sums of _population_integrals."""
    return np.array([order_scales(n, int(m))[1:] for m in orders]).T


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

    The operators are diagonal in the sector basis, so the values come
    from occupation populations in O(N) per sector, through the normalized
    rows of _population_integrals (a mixture's sectors in padded runs of
    consecutive sectors, _stack_runs, so a wide sector never pads narrow
    ones to its width); the ladder-moment route through normally_ordered_moment
    gives the same numbers and the tests hold the two to each other.
    Orders with 2m > N vanish identically. A G value past the float range
    is inf, but the normalized sums travel with it, so csi_ratio stays
    finite wherever the true C_2m is.
    """
    (integrals,) = integrated_g2m_orders(state, (m,))
    return integrals


def integrated_g2m_orders(state, orders) -> list:
    """[integrated_g2m(state, m) for m in orders], bit for bit, from one
    pass over the populations and the ratio rows: each row is streamed
    once for all the orders, where one call per order streams every row
    from k = 0 again."""
    for m in orders:
        if not isinstance(m, (int, np.integer)) or m < 1:
            raise ValueError("correlation order m must be a positive integer")
    orders = [int(m) for m in orders]
    sectors = _sectors(state)
    numbers = [sector.n_total for _, sector in sectors]
    runs = []
    for run in _stack_runs([(1, n + 1) for n in numbers]):
        weighted = np.zeros((len(run), max(numbers[j] for j in run) + 1))
        for row, j in zip(weighted, run):
            weight, sector = sectors[j]
            row[: numbers[j] + 1] = weight * sector.occupation_probabilities()
        runs.append((weighted, numbers[run.start : run.stop]))
    all_sums, all_logs = _population_integrals(runs, orders, per_order=True)
    integrals = []
    for i, m in enumerate(orders):
        alpha, log_alpha, kappa, log_kappa = order_scales(max(numbers), m)
        prefactor = sum(weight * order_scales(sector.n_total, m)[0] for weight, sector in sectors)
        sums, logs = all_sums[:, i].tolist(), all_logs[:, i].tolist()
        g_aa, g_bb, g_ab = map(
            _scaled,
            sums,
            logs,
            (alpha, alpha, alpha * kappa),
            (log_alpha, log_alpha, log_alpha + log_kappa),
        )
        normalized = (sums, logs, (log_alpha, kappa, log_kappa))
        integrals.append(CorrelationIntegrals(m, g_aa, g_bb, g_ab, prefactor, normalized))
    return integrals


def _csi_ratios(sums, logs, scales) -> tuple:
    """(C_2m, degenerate) elementwise from normalized correlators: sums
    (a, b, c) and their logs as _population_integrals returns them, with
    the scales (log alpha, kappa, log kappa) of _log_scales, for values or
    arrays. Plain correlator values (G_aa, G_bb, G_ab) go in with scales
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
    when both local correlators vanish and the ratio is 0/0. Integrals from
    integrated_g2m give the ratio from their normalized sums, so it is
    finite wherever the true C_2m is; integrals built from values give
    G_ab / sqrt(G_aa G_bb) (see _csi_ratios).
    """
    normalized = integrals.normalized
    if normalized is None:
        sums = (integrals.g_aa, integrals.g_bb, integrals.g_ab)
        normalized = (sums, [_log(value) for value in sums], (0.0, 1.0, 0.0))
    ratio, degenerate = _csi_ratios(*normalized)
    if degenerate:
        raise DegenerateLocalCorrelation(
            f"local correlators G_aa*G_bb = {integrals.g_aa * integrals.g_bb!r} too small "
            f"for a ratio at order 2m = {2 * integrals.order_m}"
        )
    return float(ratio)


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


def number_squeezing_direct(state) -> float:
    """eta^2 = Var(n_a - n_b) / <n_a + n_b> from first principles.

    Uses <n_i^2> = <i^dag^2 i^2> + <n_i>, so only normally ordered
    moments enter. Raises EmptyState when the state carries no particles.
    """
    # <n_a>, <n_b> and the order m = 1 correlators G_aa, G_bb, G_ab
    na, nb, gaa, gbb, gab = (
        normally_ordered_moment(state, *orders).real
        for orders in ((1, 0, 0, 1), (0, 1, 1, 0), (2, 0, 0, 2), (0, 2, 2, 0), (1, 1, 1, 1))
    )
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


def _qfi_forms(weights, rows, numbers) -> np.ndarray:
    """The F_Q quadratic forms of B factored sectors, as a (B, 3, 3) array:
    F_Q(J_n) of sector b is n^T forms[b] n.

    Sector b is rho_b = sum_i weights[b, i] |rows[b, i]><rows[b, i]|, with
    numbers[b] particles in the first numbers[b] + 1 columns of its rows;
    weights is (B, K) and rows (B, K, W). A batched thin SVD of the rows
    scaled by sqrt(w) gives each support: eigenvalues lam_i = sigma_i^2
    above the 1e-12 cutoff and their eigenvectors |i>. A stack of depth
    K = 1 (pure states, one-component ensembles) needs no SVD: its one
    eigenpair is lam = w |v|^2 with support v / |v|. Restricted to the
    support,

        F_Q = 4 sum_i lam_i <i|J_n^2|i>
              - 8 sum_{ij} lam_i lam_j / (lam_i + lam_j) |<i|J_n|j>|^2,

    and J_n = sum_a n_a J_a makes F_Q = n^T T n for one real symmetric
    3 x 3 matrix T per sector, built from the three axis generators applied
    tridiagonally to the support. Eigenvalues at or below the cutoff, among
    them those of zero-weight padding rows, are set to zero, and the pair
    weights of two such eigenvalues are masked, so they add nothing and no
    0/0 arises. The cost is O(B W K min(W, K)); no dense W^2 matrix is
    formed, and a stack of more than STACK_AMPLITUDES amplitudes is taken
    in slices of at most that many (at least one sector each).
    """
    step = max(1, STACK_AMPLITUDES // (rows.shape[1] * rows.shape[2]))
    if len(numbers) > step:
        return np.concatenate(
            [
                _qfi_forms(weights[i : i + step], rows[i : i + step], numbers[i : i + step])
                for i in range(0, len(numbers), step)
            ]
        )
    scaled = np.sqrt(weights)[..., None] * rows
    if rows.shape[1] == 1:
        # one row u = sqrt(w) v per sector: its one eigenpair is lam = |u|^2
        # with support u / |u| (a zero row keeps a zero support and lam = 0)
        sigma = np.linalg.norm(scaled, axis=-1)
        support = scaled / np.maximum(sigma, _TINY)[..., None]
    else:
        try:
            # rho = scaled^T conj(scaled) = vh^T diag(sigma^2) conj(vh), so
            # the rows of vh are the eigenvectors
            _, sigma, support = np.linalg.svd(scaled, full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise EigendecompositionFailure(str(exc)) from exc
    lam = sigma**2
    lam[lam <= _SPECTRAL_CUTOFF] = 0.0
    count = lam.shape[0]
    actions = _axis_actions(support, numbers)
    # <j|J_a|i> for every pair (the pair weights are symmetric, so the form
    # needs no transpose), then <J_a i|J_b i> summed with weights lam_i: the
    # actions are scaled in place once the overlaps no longer need them
    overlaps = (actions @ support.conj().transpose(0, 2, 1)[:, None]).reshape(count, 3, -1)
    actions *= np.sqrt(lam)[:, None, :, None]
    lam_i, lam_j = lam[:, :, None], lam[:, None, :]
    # a kept pair sums to more than the cutoff, so the floor only turns the
    # 0/0 of two dropped eigenvalues into 0
    pair = lam_i * lam_j / np.maximum(lam_i + lam_j, _TINY)
    weighted = overlaps * pair.reshape(count, 1, -1)
    # Re(sum_i conj(x_i) y_i) is the real dot product of the (re, im) views
    spread = actions.reshape(count, 3, -1).view(np.float64)
    overlaps = overlaps.view(np.float64)
    return (
        4.0 * (spread @ spread.transpose(0, 2, 1))
        - 8.0 * (weighted.view(np.float64) @ overlaps.transpose(0, 2, 1))
    )


def _stack_runs(shapes):
    """Split consecutive (depth, width) shapes into runs whose padded stack,
    length x largest depth x largest width, holds at most STACK_AMPLITUDES
    entries, or a single shape; yield each run's index range."""
    start, depth, width = 0, 0, 0
    for i, shape in enumerate(shapes):
        grown = (max(depth, shape[0]), max(width, shape[1]))
        if i > start and (i - start + 1) * grown[0] * grown[1] > STACK_AMPLITUDES:
            yield range(start, i)
            start, grown = i, shape
        depth, width = grown
    yield range(start, len(shapes))


def _padded_stacks(sectors):
    """Yield (weights (B, K), rows (B, K, W), numbers) for runs of
    consecutive sector densities (_stack_runs): each run is one padded
    stack, with zero-weight zero rows below its shallower sectors and zero
    columns past each N."""
    for run in _stack_runs([(sector.weights.size, sector.n_total + 1) for sector in sectors]):
        group = [sectors[j] for j in run]
        numbers = [sector.n_total for sector in group]
        weights = np.zeros((len(group), max(sector.weights.size for sector in group)))
        rows = np.zeros(weights.shape + (max(numbers) + 1,), dtype=np.complex128)
        for b, sector in enumerate(group):
            weights[b, : sector.weights.size] = sector.weights
            rows[b, : sector.weights.size, : sector.n_total + 1] = sector.vectors
        yield weights, rows, numbers


def qfi(state, g):
    """Quantum Fisher information for rotations generated by J_n.

    Every state goes through one routine, _qfi_forms: the spectral formula
    F_Q = 2 sum_{ij} (lam_i - lam_j)^2 / (lam_i + lam_j) |<i|J_n|j>|^2,
    evaluated on the support of each sector (eigenvalues above the 1e-12
    cutoff) from its K factor rows in O(N K min(N, K)). A pure state is
    the one-row sector, whose eigenpair needs no SVD, and its F_Q is 4
    Var(J_n) to rounding. Generators conserve N, so a number mixture's
    matrix is block diagonal and F_Q is the weight-averaged sector value;
    the sectors go through padded stacks of up to STACK_AMPLITUDES
    amplitudes, and the number weights average their quadratic forms. Any
    separable state obeys F_Q <= N (or <N> for fluctuating number); more is
    entanglement.

    `g` is one GeneratorSpec, which returns a float, or a (k, 3) stack of
    unit directions, which returns the k values as an array. A stack
    factorizes each sector once for all its directions, and each value
    equals the one its direction gives alone.
    """
    single = isinstance(g, GeneratorSpec)
    if single:
        rows = [g.direction.tolist()]
    else:
        directions = np.asarray(g, dtype=float)
        rows = directions.tolist()
        if directions.ndim != 2 or directions.shape[1] != 3 or not all(
            abs(math.hypot(*row) - 1.0) <= _UNIT_TOL for row in rows
        ):
            raise ValueError("directions must be a GeneratorSpec or a (k, 3) stack of unit vectors")
    sectors = [(weight, sector) for weight, sector in _sectors(state) if weight > 0.0]
    stacks = _padded_stacks([sector for _, sector in sectors])
    forms = np.concatenate([_qfi_forms(*stack) for stack in stacks])
    number_weights = np.array([weight for weight, _ in sectors])
    form = (number_weights @ forms.reshape(len(sectors), 9)).reshape(3, 3)
    directions = np.array(rows)
    values = np.einsum("ka,ab,kb->k", directions, form, directions)
    return float(values[0]) if single else values


# --- spin squeezing ----------------------------------------------------------------


def spin_squeezing(state, fluctuating: bool | None = None) -> float:
    """xi^2 = n_ref Var(J_z) / (<J_x>^2 + <J_y>^2); separable states give
    xi^2 >= 1, and xi^2 < 1 witnesses entanglement useful for phase
    estimation.

    Accepts exact states (SectorDensity, a pure FockVector among them, and
    NumberSectorMixture) and parameterized ensembles (SeparableEnsemble,
    FluctuatingEnsemble; evaluated from the closed-form moments). n_ref is
    the total particle number, or its mean when the number fluctuates. The ``fluctuating``
    flag is inferred from the input type; passing it explicitly merely
    asserts the expectation and raises ValueError on a mismatch.

    Raises ZeroMeanSpinDirection when the mean spin has no transverse
    component to reference the variance against.
    """
    if isinstance(state, (SeparableEnsemble, FluctuatingEnsemble)):
        inferred = isinstance(state, FluctuatingEnsemble)
        n_ref = state.mean_n if inferred else float(state.n_total)
        jx, jy, var_z = analytic_spin_moments(state)
    else:
        # any other type than an exact state raises TypeError here
        (jx, jy, jz), (_, _, second_z) = _generator_first_two(state, np.eye(3))
        var_z = second_z - jz * jz
        inferred = isinstance(state, NumberSectorMixture)
        n_ref = state.mean_n
    if fluctuating is not None and bool(fluctuating) != inferred:
        raise ValueError(
            f"fluctuating={fluctuating} contradicts the input type "
            f"{type(state).__name__}"
        )
    value, zero = _squeezing(n_ref, jx, jy, var_z)
    if zero:
        raise ZeroMeanSpinDirection(
            f"mean transverse spin squared {jx * jx + jy * jy!r} is negligible against "
            f"n_ref = {n_ref!r}"
        )
    return float(value)


def _squeezing(n_ref: float, jx, jy, var_z) -> tuple:
    """(xi^2, zero) elementwise from the spin moments, for values or
    arrays: `zero` marks a mean transverse spin <J_x>^2 + <J_y>^2 at or
    below 1e-18 max(n_ref^2, 1), which leaves no direction to reference the
    variance against; those entries carry no ratio."""
    denom = jx * jx + jy * jy
    zero = denom <= _MEAN_SPIN_GUARD * max(n_ref * n_ref, 1.0)
    return n_ref * var_z / np.where(zero, 1.0, denom), zero


# --- combined verdicts ---------------------------------------------------------------


def witness_verdict(kind: str, value: float, n_reference: float) -> tuple:
    """(bound, flag) of one witness value against its separable bound.

    C_2m <= 1 and F_Q <= n_reference flag a value above the bound, xi^2 >= 1
    one below it, each beyond WITNESS_TOLERANCE. Number squeezing eta^2 has
    no bound of its own (sub-shot-noise fluctuations alone do not certify
    entanglement) and gives (None, None).
    """
    if kind == "csi":
        return 1.0, value > 1.0 + WITNESS_TOLERANCE
    if kind == "qfi":
        return float(n_reference), value > n_reference + WITNESS_TOLERANCE
    if kind == "xi2":
        return 1.0, value < 1.0 - WITNESS_TOLERANCE
    if kind == "eta2":
        return None, None
    raise ValueError(f"unknown witness kind {kind!r}")


def classify(
    n_reference: float,
    csi_by_order: dict | None = None,
    eta2: float | None = None,
    xi2: float | None = None,
    qfi_by_generator: dict | None = None,
) -> WitnessReport:
    """Assemble witness values into verdicts by witness_verdict.

    Flags: any C_2m > 1, any F_Q > n_reference, or xi^2 < 1, each beyond
    the 1e-9 margin; eta^2 is reported but never flags. At least one
    witness value must be supplied.
    """
    if csi_by_order is None and eta2 is None and xi2 is None and qfi_by_generator is None:
        raise ValueError("at least one computed witness is required")
    csi = dict(csi_by_order or {})
    qfi_values = dict(qfi_by_generator or {})

    def flags(kind, values):
        return any(witness_verdict(kind, v, n_reference)[1] for v in values)

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
