import math
import time

import numpy as np
import pytest

from bosewit import _factorials
from bosewit._factorials import (
    log_binomial,
    log_binomial_row,
    order_scales,
    ratio_row,
    ratio_rows,
)
from bosewit.fock import _MEMO_N_MAX
from bosewit.separable import CoherentSpinState, to_fock
from bosewit.witnesses import integrated_g2m

_SIZES = list(range(81)) + [255, 256, 257, 1000, 4000]
_EPS = np.finfo(float).eps
_SMALLEST = 5e-324  # the least subnormal


def _exact_ratios(n, k):
    """[j!/(j-k)! / (n!/(n-k)!) for j in 0..n], each correctly rounded."""
    if k > n:
        return np.zeros(n + 1)
    top = math.perm(n, k)
    return np.array([math.perm(j, k) / top for j in range(n + 1)])


def _assert_within_k_eps(row, n, k):
    # row k takes 2k - 1 roundings of at most eps/2 each; an entry that went
    # subnormal on the way may also carry about one least subnormal per step
    exact = _exact_ratios(n, k)
    assert np.all(np.abs(row - exact) <= k * _EPS * exact + k * _SMALLEST), (n, k)


def _scalar_ratios(n, ks):
    """R_k(j) for each k of the ascending `ks`, one entry at a time by the
    recurrence R_{i+1}(j) = R_i(j) (j-i)/(n-i) in Python floats."""
    rows = np.zeros((len(ks), n + 1))
    for j in range(n + 1):
        value, i = 1.0, 0
        for row, k in zip(rows, ks):
            while i < min(k, j):
                value = value * ((j - i) / (n - i))
                i += 1
            # a factor (j - i) with i >= j is zero, and so is every later product
            row[j] = value if k <= j else 0.0
    return rows


@pytest.mark.parametrize("n", _SIZES)
def test_ratio_rows_match_exact_ratios(n):
    ks = sorted({0, 1, 2, 3, n // 2, n, n + 1})
    for k, row in zip(ks, ratio_rows(n, ks)):
        assert row.shape == (n + 1,)
        _assert_within_k_eps(row, n, k)
        if k <= n:
            assert row[n] == 1.0 and np.all(row[:k] == 0.0)


# The falling-factorial rows are the normalized rows R_k = ratio_row(n, k):
# their blocked numpy products must be the one-entry-at-a-time loop, bit for bit.
@pytest.mark.parametrize("n", _SIZES)
def test_falling_factorial_row_is_bitwise_the_scalar_loop(n):
    ks = sorted({0, 1, 2, 3, n // 2, n, n + 1})
    for k, row, expected in zip(ks, ratio_rows(n, ks), _scalar_ratios(n, ks)):
        assert row.tobytes() == expected.tobytes(), (n, k)
        assert ratio_row(n, k).tobytes() == expected.tobytes(), (n, k)


@pytest.mark.parametrize(("n", "k"), [(4000, 150), (4200, 2100)])
def test_falling_factorial_row_overflow_and_lgamma_paths(n, k):
    # n!/(n-k)! passes 1e308 here, on the exact-integer path (k = 150) and on
    # the lgamma path (k = 2100 > 2048); its normalized row stays in [0, 1]
    assert math.isinf(_factorials.falling_factorial(n, k))
    row = ratio_row(n, k)
    assert np.all((row >= 0.0) & (row <= 1.0))
    assert row.tobytes() == _scalar_ratios(n, [k])[0].tobytes()
    _assert_within_k_eps(row, n, k)


def test_orders_far_past_n_stop_at_the_zero_row():
    # the factor at i = n zeroes every entry, so an order of 10^12 costs what
    # k = n + 1 costs instead of 10^12 steps of the recurrence
    start = time.perf_counter()
    for n in (20, 300):
        rows = list(ratio_rows(n, [3, n + 1, 10**9, 10**12]))
        assert rows[0].any()
        assert all(not row.any() and row.shape == (n + 1,) for row in rows[1:])
        assert not ratio_row(n, 10**12).any()
    assert time.perf_counter() - start < 5.0


def test_order_scales_against_exact_integers():
    for n, m in ((10, 1), (40, 20), (400, 75), (2000, 500), (20000, 5000)):
        alpha, log_alpha, kappa, log_kappa = order_scales(n, m)
        assert alpha == _factorials.falling_factorial(n, 2 * m)
        assert log_alpha == pytest.approx(math.lgamma(n + 1) - math.lgamma(n - 2 * m + 1), rel=1e-13)
        exact_log_kappa = (
            math.lgamma(n + 1) + math.lgamma(n - 2 * m + 1) - 2 * math.lgamma(n - m + 1)
        )
        assert log_kappa == pytest.approx(exact_log_kappa, rel=1e-11)
        if log_kappa < 700:
            assert kappa == _factorials.balanced_factorial_ratio(n, m)
        else:
            assert math.isinf(kappa)
    assert order_scales(6, 4) == (0.0, -math.inf, 1.0, 0.0)


def _binomial_reference(n):
    return np.array([log_binomial(n, i) for i in range(n + 1)], dtype=float)


@pytest.mark.parametrize("n", _SIZES + [4200])
def test_log_binomial_row_is_bitwise_the_scalar_loop(n):
    assert log_binomial_row(n).tobytes() == _binomial_reference(n).tobytes()


@pytest.mark.parametrize("n", [40, 257])
def test_rows_are_read_only(n):
    with pytest.raises(ValueError):
        ratio_row(n, 2)[0] = 0.0


def test_full_order_scan_rows_are_cache_hits_on_the_second_pass():
    n = _MEMO_N_MAX
    state = to_fock(CoherentSpinState(0.3, 0.2, n))
    orders = range(1, n // 2 + 1)
    for m in orders:
        integrated_g2m(state, m)
    before = _factorials._cached_ratio_row.cache_info()
    for m in orders:
        integrated_g2m(state, m)
    after = _factorials._cached_ratio_row.cache_info()
    assert after.misses == before.misses
    assert after.hits - before.hits == 2 * len(orders)


def test_rows_above_the_dense_cap_are_not_retained():
    n = _MEMO_N_MAX + 1
    rows = _factorials._cached_ratio_row.cache_info()
    ratio_row(n, 3)
    assert _factorials._cached_ratio_row.cache_info() == rows


def test_log_factorials_are_read_only_prefixes_of_one_table():
    # every entry is its own lgamma, whatever size the table has grown to
    for n in (3, 3000, 0, 40, 3001):
        g = _factorials.log_factorials(n)
        assert g.tobytes() == np.array([math.lgamma(i + 1) for i in range(n + 1)]).tobytes()
        assert not g.flags.writeable
    assert np.shares_memory(_factorials.log_factorials(10), _factorials.log_factorials(2000))


def test_log_binomial_rows_share_one_lgamma_table(monkeypatch):
    # sizes on both sides of _MEMO_N_MAX in one call
    sizes = [3, 300, 0, 4200, 256, 257, 1000]
    expected = [_binomial_reference(n).tobytes() for n in sizes]
    tables = []
    build = _factorials.log_factorials

    def counting(n):
        tables.append(n)
        return build(n)

    monkeypatch.setattr(_factorials, "log_factorials", counting)
    rows = _factorials.log_binomial_rows(sizes)
    assert [row.tobytes() for row in rows] == expected
    assert tables == [4200]


def test_coherent_rows_past_the_memo_equal_each_sector_alone():
    from bosewit.separable import _coherent_rows

    rng = np.random.default_rng(5)
    numbers = [257, 40, 1000, 300]
    z = rng.random((len(numbers), 2))
    phi = rng.uniform(-math.pi, math.pi, z.shape)
    rows = _coherent_rows(numbers, z, phi)
    for j, n in enumerate(numbers):
        alone = _coherent_rows(n, z[j], phi[j])
        assert rows[j, :, : n + 1].tobytes() == alone.tobytes()
