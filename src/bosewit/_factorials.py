"""Factorial-ratio helpers that stay stable for large particle numbers.

Scalar helpers work in exact integers for small products (1 ulp at desk
scale) and fall back to float products or log-Gamma for huge orders.

Row helpers give one sector's worth of values as numpy arrays:

- ``ratio_rows(n, ks)`` streams the normalized falling-factorial rows
  R_k(j) = [j!/(j-k)!] / [n!/(n-k)!], j = 0..n, for ascending k by the
  recurrence R_{k+1}(j) = R_k(j) (j-k)/(n-k). Every entry lies in [0, 1],
  so no row overflows; row k takes 2k - 1 roundings, within k eps of the
  exact ratio wherever that is a normal float. No table of all orders is
  held. ``ratio_row(n, k)`` is one such row.
- ``log_binomial_row(n)`` is [log_binomial(n, i) for i in 0..n], bit for
  bit, from the one growing table of log-factorials (``log_factorials``);
  ``log_binomial_rows(sizes)`` gives the rows of many sizes from one
  prefix of that table, of the largest size. Neither is memoized: the
  table is the memo, and a row is three vector operations on it.

Ratio rows with n <= ``fock._MEMO_N_MAX`` (256; what dropping the memo
cost is noted there) are memoized, read-only, in one LRU cache of 512 rows
(at most 512 x 257 x 8 B = 1.05 MB, twice the rows the C_2m of exact
states read for every order at n = 256; scans read none);
``order_scales`` keeps 1024 quadruples of floats. Larger sectors stream
their ratio rows on every call.
"""

import math
from functools import lru_cache

import numpy as np

from .fock import _MEMO_N_MAX

# Entries of the factor rows ratio_rows forms at once (128 kB).
_ROW_BLOCK = 2**14

# Largest number of factors evaluated in exact integer arithmetic. Integer
# products of this size cost microseconds; beyond it the float fallbacks
# keep the cost linear at ~k*eps relative error.
_EXACT_TERM_LIMIT = 2048


def falling_factorial(n: int, k: int) -> float:
    """n (n-1) ... (n-k+1), exactly 0.0 when k exceeds n.

    Exact-integer path for k <= 2048 (single rounding); log-Gamma beyond,
    with relative error growing like k * eps. Values above float range
    return inf.
    """
    if k < 0:
        raise ValueError("order must be nonnegative")
    if k == 0:
        return 1.0
    if n < k:
        return 0.0
    if k <= _EXACT_TERM_LIMIT:
        try:
            return float(math.prod(range(n - k + 1, n + 1)))
        except OverflowError:
            return math.inf
    try:
        return math.exp(math.lgamma(n + 1) - math.lgamma(n - k + 1))
    except OverflowError:
        return math.inf


def balanced_factorial_ratio(n: int, m: int) -> float:
    """n! (n-2m)! / ((n-m)!)^2 for integers n >= 2m >= 0.

    Evaluated as prod_{k=1..m} (n-m+k)/(n-2m+k): exact integers for
    m <= 2048 (correctly rounded quotient), float ratio product beyond
    (relative error ~ 2m * eps). A ratio past the float range is inf on
    either path.
    """
    if m < 0:
        raise ValueError("order must be nonnegative")
    if n < 2 * m:
        raise ValueError(f"need n >= 2m, got n={n}, m={m}")
    if m == 0:
        return 1.0
    if m <= _EXACT_TERM_LIMIT:
        num = math.prod(range(n - m + 1, n + 1))
        den = math.prod(range(n - 2 * m + 1, n - m + 1))
        try:
            return num / den
        except OverflowError:
            return math.inf
    value = 1.0
    for k in range(1, m + 1):
        value *= (n - m + k) / (n - 2 * m + k)
    return value


@lru_cache(maxsize=1024)
def order_scales(n: int, m: int) -> tuple:
    """(alpha, log alpha, kappa, log kappa) of the order-2m correlators at
    n particles: alpha = falling_factorial(n, 2m) = n!/(n-2m)! and kappa =
    balanced_factorial_ratio(n, m) = n!(n-2m)!/((n-m)!)^2, each inf where
    it passes the float range.

    log alpha and, where kappa is inf, log kappa are sums of logs,
    sum_{i<2m} log(n-i) and sum_{k=1..m} log1p(m/(n-2m+k)), to about eps
    relative. Orders with 2m > n give (0.0, -inf, 1.0, 0.0). Memoized per
    (n, m).
    """
    if 2 * m > n:
        return 0.0, -math.inf, 1.0, 0.0
    log_alpha = float(np.sum(np.log(np.arange(n - 2 * m + 1, n + 1, dtype=float))))
    kappa = balanced_factorial_ratio(n, m)
    if math.isinf(kappa):
        log_kappa = float(np.sum(np.log1p(m / np.arange(n - 2 * m + 1, n - m + 1, dtype=float))))
    else:
        log_kappa = math.log(kappa)
    return falling_factorial(n, 2 * m), log_alpha, kappa, log_kappa


def log_binomial(n: int, k: int) -> float:
    """log of the binomial coefficient C(n, k) via lgamma."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _read_only(values) -> np.ndarray:
    row = np.array(values, dtype=float)
    row.flags.writeable = False
    return row


# lgamma(i + 1) for i = 0, 1, ...: one read-only table, grown on demand to
# the largest n asked for (8 MB at MAX_PARTICLES). Each entry is computed
# alone, so growing it leaves every entry's bits as they were.
_log_factorial_table = _read_only([0.0])


def log_factorials(n: int) -> np.ndarray:
    """[lgamma(i + 1) for i in 0..n], the logs of 0!..n!, as a read-only
    prefix of one table that grows on demand."""
    global _log_factorial_table
    table = _log_factorial_table
    if n >= table.size:
        table = _read_only(
            np.concatenate([table, [math.lgamma(i + 1) for i in range(table.size, n + 1)]])
        )
        _log_factorial_table = table
    return table[: n + 1]


def _log_binomial_from(g: np.ndarray, n: int) -> np.ndarray:
    # the scalar loop's operations in its order: (g[n] - g[i]) - g[n - i];
    # g may run past n, its entries up to n are the same
    return g[n] - g[: n + 1] - g[n::-1]


def _build_ratio_row(n: int, k: int) -> np.ndarray:
    (row,) = ratio_rows(n, (k,))
    return _read_only(row)


# 512 rows hold the 256 distinct (n, k) that witnesses._population_integrals,
# the one reader (scans read none), takes for every order of a state at
# n = 256, with room to spare, so such a call never cycles the LRU order.
_cached_ratio_row = lru_cache(maxsize=512)(_build_ratio_row)


def ratio_rows(n: int, ks):
    """Yield R_k = [j!/(j-k)! / (n!/(n-k)!) for j in 0..n] for each k of the
    ascending orders `ks`, streamed over k (rows past k = n are zero).

    The factors (j-i)/(n-i) of the recurrence R_{i+1}(j) = R_i(j)
    (j-i)/(n-i) are formed in blocks of at most _ROW_BLOCK entries. The
    factor at i = n zeroes every entry, so the recurrence stops there and
    an order far past n costs no more than k = n + 1."""
    row, done, columns = np.ones(n + 1), 0, np.arange(n + 1.0)
    step = max(1, _ROW_BLOCK // (n + 1))
    for k in ks:
        last = min(k, n + 1)
        while done < last:
            steps = np.arange(done, min(last, done + step))
            # zero for j <= i, so every row from i = n on is zero
            factors = np.maximum(columns - steps[:, None], 0.0)
            factors /= np.maximum(n - steps, 1)[:, None]
            for factor in factors:
                row = row * factor
            done += steps.size
        yield row


def ratio_row(n: int, k: int) -> np.ndarray:
    """R_k of ratio_rows as a read-only array, memoized for n <= _MEMO_N_MAX."""
    if n <= _MEMO_N_MAX:
        return _cached_ratio_row(n, k)
    return _build_ratio_row(n, k)


def log_binomial_row(n: int) -> np.ndarray:
    """[log_binomial(n, i) for i in 0..n], bit for bit."""
    return _log_binomial_from(log_factorials(n), n)


def log_binomial_rows(sizes) -> list:
    """[log_binomial_row(n) for n in sizes], bit for bit, from one prefix of
    the log-factorial table, of the largest n."""
    g = log_factorials(max(sizes))
    return [_log_binomial_from(g, n) for n in sizes]
