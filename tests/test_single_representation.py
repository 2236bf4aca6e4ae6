"""A pure state is the one-row sector of weight 1.

Every public kernel must give a FockVector and the plain SectorDensity of
its one row the same value, bit for bit: there is one state representation
and one path through each kernel, at every size the kernels accept.
"""

import itertools

import numpy as np
import pytest

from bosewit import separable, witnesses
from bosewit.errors import DegenerateLocalCorrelation, WitnessError
from bosewit.fock import (
    FockVector,
    GeneratorSpec,
    NumberSectorMixture,
    SectorDensity,
    angular_moments,
    normally_ordered_moment,
)
from bosewit.povm import random_complete_povm, second_quantized_g2
from bosewit.separable import CoherentSpinState, FluctuatingEnsemble, NumberDistribution, to_fock
from bosewit.statespec import parse_state_text
from bosewit.witnesses import (
    csi_ratio,
    integrated_g2m,
    number_squeezing_direct,
    qfi,
    spin_squeezing,
)

import oracles

SIZES = [1, 20, 256, 2000]


def _states(n):
    rng = np.random.default_rng(n)
    return {
        "random": FockVector(oracles.random_pure_amplitudes(rng, n)),
        "coherent": to_fock(CoherentSpinState(0.3, 0.7, n)),
    }


def _outcome(kernel, state):
    """A kernel's value, or the type of the witness error it raises."""
    try:
        return kernel(state)
    except WitnessError as exc:
        return type(exc)


def _same(left, right):
    if isinstance(left, np.ndarray):
        return left.dtype == right.dtype and left.tobytes() == right.tobytes()
    if isinstance(left, tuple):
        return all(_same(a, b) for a, b in zip(left, right))
    return left == right


def _kernels(n):
    rng = np.random.default_rng(100 + n)
    axis = GeneratorSpec.from_vector(rng.normal(size=3))
    povm = random_complete_povm(rng, 2, 3)
    kernels = {}
    for p, q, r, s in itertools.product(range(3), repeat=4):
        kernels[f"moment{(p, q, r, s)}"] = lambda st, o=(p, q, r, s): normally_ordered_moment(st, *o)
    for name in ("x", "y", "z"):
        kernels[f"angular:{name}"] = lambda st, g=GeneratorSpec.axis(name): angular_moments(st, g)
    kernels["angular:random"] = lambda st: angular_moments(st, axis)
    for m in (1, 2, 7):
        kernels[f"csi:{m}"] = lambda st, m=m: csi_ratio(integrated_g2m(st, m))
    kernels["eta2"] = number_squeezing_direct
    kernels["xi2"] = spin_squeezing
    kernels["g2"] = lambda st: second_quantized_g2(st, povm, "e0", "e1")
    directions = np.vstack([np.eye(3), axis.direction])
    kernels["qfi"] = lambda st: qfi(st, directions)
    return kernels


@pytest.mark.parametrize("n", SIZES)
def test_a_pure_state_and_its_one_row_sector_are_bit_equal(n):
    for label, state in _states(n).items():
        sector = SectorDensity.from_factors([1.0], state.amplitudes[None])
        assert type(sector) is SectorDensity
        for name, kernel in _kernels(n).items():
            pure, factored = _outcome(kernel, state), _outcome(kernel, sector)
            assert _same(pure, factored), (label, name, pure, factored)


def test_fock_vector_keeps_its_amplitudes_and_norm_guard():
    amplitudes = np.array([0.6, 0.8j])
    state = FockVector(amplitudes)
    assert isinstance(state, SectorDensity)
    assert state.weights.tolist() == [1.0]
    assert state.amplitudes.tolist() == amplitudes.tolist()
    assert state.amplitudes.base is not None and not state.amplitudes.flags.writeable
    FockVector(amplitudes * (1.0 + 4e-9))  # norm^2 within the 1e-8 guard
    with pytest.raises(ValueError, match="norm"):
        FockVector(amplitudes * (1.0 + 1e-8))
    # a pure state builds no dense matrix, however large; its SectorDensity does
    assert getattr(state, "matrix", None) is None
    assert SectorDensity.from_pure(state).matrix.shape == (2, 2)


def test_structural_zero_sums_stay_zero_through_the_log_sum_exp():
    # csi:1 on the Dicke state |1, 39>: G_aa = <a^dag^2 a^2> is zero because
    # no population sits at l >= 2; the log-sum-exp over its terms, all
    # -inf, leaves the sum 0 and its log -inf, so the ratio is degenerate
    message = r"^local correlators G_aa\*G_bb = 0\.0 too small for a ratio at order 2m = 2$"
    for k in (0, 1, 39, 40):
        with pytest.raises(DegenerateLocalCorrelation, match=message):
            csi_ratio(integrated_g2m(FockVector(np.eye(41)[k]), 1))
    sums, logs, _ = integrated_g2m(FockVector(np.eye(41)[1]), 1).normalized
    assert sums[0] == 0.0 and logs[0] == -np.inf
    # a mixture of |1, N-1> for N = 3..400 is summed over several padded
    # runs, and no run holds a population at l >= 2, so G_aa is zero by
    # structure in every run
    numbers = range(3, 401)
    mixture = NumberSectorMixture(tuple((1.0 / len(numbers), FockVector(np.eye(n + 1)[1])) for n in numbers))
    assert len(list(witnesses._padded_stacks([sector for _, sector in mixture.sectors]))) > 1
    assert integrated_g2m(mixture, 1).g_aa == 0.0
    with pytest.raises(DegenerateLocalCorrelation, match=message):
        csi_ratio(integrated_g2m(mixture, 1))


@pytest.mark.parametrize("mean", [20.0, 250.0])
def test_a_distribution_block_builds_no_row(mean, monkeypatch):
    # poisson:20 (60 sectors up to N = 80) and poisson:250 (370 sectors up to
    # N = 369) are held as their product components: every row builder ends
    # in _normalized, and the build calls none
    def refuse(*_):
        raise AssertionError("the build made an amplitude row")

    monkeypatch.setattr(separable, "_normalized", refuse)
    text = (
        "kind = fluctuating\nz = 0.37\nphi = -2.1\n"
        f"distribution:\n    kind = poisson\n    mean = {mean}\n"
    )
    state = parse_state_text(text).build()
    assert type(state) is FluctuatingEnsemble
    assert state.number_weights == NumberDistribution.poisson(mean).weights()
    for n, _ in state.number_weights:
        ((weight, component),) = state.per_sector[n].components
        assert weight == 1.0 and component == CoherentSpinState(0.37, -2.1, n)
