import numpy as np
import pytest

from bosewit import _factorials
from bosewit._factorials import (
    falling_factorial,
    falling_factorial_row,
    log_binomial,
    log_binomial_row,
)
from bosewit.fock import DEFAULT_N_MAX
from bosewit.separable import CoherentSpinState, to_fock
from bosewit.witnesses import integrated_g2m

_SIZES = list(range(81)) + [255, 256, 257, 1000, 4000]


def _falling_reference(n, k):
    return np.array([falling_factorial(i, k) for i in range(n + 1)], dtype=float)


def _binomial_reference(n):
    return np.array([log_binomial(n, i) for i in range(n + 1)], dtype=float)


@pytest.mark.parametrize("n", _SIZES)
def test_falling_factorial_row_is_bitwise_the_scalar_loop(n):
    for k in sorted({0, 1, 2, 3, n // 2, n, n + 1}):
        assert falling_factorial_row(n, k).tobytes() == _falling_reference(n, k).tobytes()


@pytest.mark.parametrize(("n", "k"), [(4000, 150), (4200, 2100)])
def test_falling_factorial_row_overflow_and_lgamma_paths(n, k):
    row = falling_factorial_row(n, k)
    assert row.tobytes() == _falling_reference(n, k).tobytes()
    assert np.isinf(row[-1])


@pytest.mark.parametrize("n", _SIZES + [4200])
def test_log_binomial_row_is_bitwise_the_scalar_loop(n):
    assert log_binomial_row(n).tobytes() == _binomial_reference(n).tobytes()


@pytest.mark.parametrize("n", [40, 257])
def test_rows_are_read_only(n):
    for row in (falling_factorial_row(n, 2), log_binomial_row(n)):
        with pytest.raises(ValueError):
            row[0] = 0.0


# The highest orders overflow the raw correlators at this N; only the row
# lookups matter here.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_full_order_scan_rows_are_cache_hits_on_the_second_pass():
    n = DEFAULT_N_MAX
    state = to_fock(CoherentSpinState(0.3, 0.2, n))
    orders = range(1, n // 2 + 1)
    for m in orders:
        integrated_g2m(state, m)
    before = _factorials._cached_falling_factorial_row.cache_info()
    for m in orders:
        integrated_g2m(state, m)
    after = _factorials._cached_falling_factorial_row.cache_info()
    assert after.misses == before.misses
    assert after.hits - before.hits == 2 * len(orders)

    binomial_before = _factorials._cached_log_binomial_row.cache_info()
    to_fock(CoherentSpinState(0.6, 1.0, n))
    binomial_after = _factorials._cached_log_binomial_row.cache_info()
    assert binomial_after.misses == binomial_before.misses
    assert binomial_after.hits == binomial_before.hits + 1


def test_rows_above_the_dense_cap_are_not_retained():
    n = DEFAULT_N_MAX + 1
    falling = _factorials._cached_falling_factorial_row.cache_info()
    binomial = _factorials._cached_log_binomial_row.cache_info()
    falling_factorial_row(n, 3)
    log_binomial_row(n)
    assert _factorials._cached_falling_factorial_row.cache_info() == falling
    assert _factorials._cached_log_binomial_row.cache_info() == binomial
