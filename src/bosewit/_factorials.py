"""Factorial-ratio helpers that stay stable for large particle numbers.

Small products are done in exact integer arithmetic and rounded once at the
end, so every desk-scale value is correct to 1 ulp; genuinely huge orders
fall back to float products or log-Gamma with documented error growth.

The row builders ``falling_factorial_row`` and ``log_binomial_row`` return
one whole sector's worth of the scalar helpers, entry for entry the same
floats. Rows with n <= ``fock.DEFAULT_N_MAX`` (256, the largest sector a
scan or a dense density reaches) are memoized in one LRU cache per builder:
512 falling-factorial rows (at most 512 x 257 x 8 B = 1.05 MB) and one
log-binomial row per n (at most 257 rows, 0.26 MB), so the caches retain
about 1.3 MB at most, whatever the input. Larger sectors build their rows
on every call. Rows are read-only numpy arrays, because a memoized row is
shared by every caller.
"""

import math
from functools import lru_cache

import numpy as np

from .fock import DEFAULT_N_MAX

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
    (relative error ~ 2m * eps).
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
        return num / den
    value = 1.0
    for k in range(1, m + 1):
        value *= (n - m + k) / (n - 2 * m + k)
    return value


def log_binomial(n: int, k: int) -> float:
    """log of the binomial coefficient C(n, k) via lgamma."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _read_only(values: list) -> np.ndarray:
    row = np.array(values, dtype=float)
    row.flags.writeable = False
    return row


def _build_falling_factorial_row(n: int, k: int) -> np.ndarray:
    return _read_only([falling_factorial(i, k) for i in range(n + 1)])


def _build_log_binomial_row(n: int) -> np.ndarray:
    return _read_only([log_binomial(n, i) for i in range(n + 1)])


# 512 rows hold the 192 distinct (n, k) of a full-order scan at n = 256 with
# room to spare, so a scan never cycles the LRU order.
_cached_falling_factorial_row = lru_cache(maxsize=512)(_build_falling_factorial_row)
_cached_log_binomial_row = lru_cache(maxsize=DEFAULT_N_MAX + 1)(_build_log_binomial_row)


def falling_factorial_row(n: int, k: int) -> np.ndarray:
    """[falling_factorial(i, k) for i in 0..n] as a read-only array."""
    if n <= DEFAULT_N_MAX:
        return _cached_falling_factorial_row(n, k)
    return _build_falling_factorial_row(n, k)


def log_binomial_row(n: int) -> np.ndarray:
    """[log_binomial(n, i) for i in 0..n] as a read-only array."""
    if n <= DEFAULT_N_MAX:
        return _cached_log_binomial_row(n)
    return _build_log_binomial_row(n)
