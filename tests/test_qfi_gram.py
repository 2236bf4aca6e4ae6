"""The eigenpairs behind F_Q: witnesses._qfi_forms against the dense oracle
and a thin SVD.

A stack of depth K and width W is factored by an eigh of its smaller Gram
matrix (the K x K overlaps when K <= W, the W x W density when K > W),
after amplitudes below 1e-150 are flushed to zero. Every form here is held
to `oracles.qfi_dense` and to `oracles.qfi_forms_svd`, a thin SVD of the
unflushed rows, within FORM_TOLERANCE of the largest entry of the sector's
form.
"""

import math

import numpy as np
import pytest

from bosewit import scan, witnesses
from bosewit.errors import EigendecompositionFailure
from bosewit.fock import NumberSectorMixture, SectorDensity
from bosewit.scan import run_scan
from bosewit.separable import NumberDistribution, _coherent_rows
from bosewit.witnesses import qfi

import oracles

FORM_TOLERANCE = 1e-10


def _sector(n, weights, seed, duplicate=False):
    rng = np.random.default_rng(seed)
    z, phi = rng.random(len(weights)), rng.uniform(-math.pi, math.pi, len(weights))
    if duplicate:
        # every component twice: rank K / 2 from K rows
        z[len(z) // 2 :], phi[len(phi) // 2 :] = z[: len(z) // 2], phi[: len(phi) // 2]
    return SectorDensity.from_factors(weights, _coherent_rows(n, z, phi))


def _weights(rng, depth, zeros=0):
    weights = rng.dirichlet(np.ones(depth))
    weights[: min(zeros, depth - 1)] = 0.0
    return weights / weights.sum()


def _assert_forms_match(forms, sectors, reference):
    rng = np.random.default_rng(5)
    directions = np.vstack([np.eye(3), rng.normal(size=(4, 3))])
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    for form, sector, other in zip(forms, sectors, reference):
        scale = max(np.abs(other).max(), 1.0)
        np.testing.assert_allclose(form, other, rtol=0, atol=FORM_TOLERANCE * scale)
        dense = oracles.dense_density(sector.weights, sector.vectors)
        values = np.einsum("ka,ab,kb->k", directions, form, directions)
        np.testing.assert_allclose(
            values, oracles.qfi_dense(dense, directions), rtol=0, atol=FORM_TOLERANCE * scale
        )


def _ragged(rng, numbers, depths, zeros=0, duplicate=False):
    return [
        _sector(n, _weights(rng, depth, zeros), int(rng.integers(1 << 30)), duplicate)
        for n, depth in zip(numbers, depths)
    ]


# (numbers, depths) of ragged stacks: padded to K = max depth and W = max N + 1
SHAPES = {
    "K<<W": ([40, 7, 23, 0], [2, 3, 1, 3]),
    "K=W": ([11, 5, 8], [12, 6, 9]),
    "K>W": ([7, 3, 5, 1], [30, 12, 20, 4]),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("zeros,duplicate", [(0, False), (1, False), (0, True)])
def test_gram_route_matches_the_oracle_and_the_svd(shape, zeros, duplicate):
    rng = np.random.default_rng([sorted(SHAPES).index(shape), zeros, duplicate])
    numbers, depths = SHAPES[shape]
    if duplicate:
        depths = [2 * (d // 2) or 2 for d in depths]
    sectors = _ragged(rng, numbers, depths, zeros, duplicate)
    ((_, *stack),) = witnesses._padded_stacks(sectors)
    depth, width = stack[1].shape[1:]
    assert {"K<<W": depth < width, "K=W": depth == width, "K>W": depth > width}[shape]
    forms = witnesses._qfi_forms(*stack)
    _assert_forms_match(forms, sectors, oracles.qfi_forms_svd(*stack))


@pytest.mark.parametrize("n,depth", [(12, 3), (2, 6)])
@pytest.mark.parametrize("small", [0.5e-12, 1e-12, 1.5e-12, 1e-11])
def test_eigenvalues_near_the_cutoff(n, depth, small):
    # basis rows, repeated past N + 1: the eigenvalues are the weights
    # themselves, one of them at, just below or just above the cutoff
    rows = np.eye(n + 1, dtype=complex)[np.arange(depth) % (n + 1)]
    weights = np.zeros(depth)
    weights[1:3] = 1.0 - small, small
    sector = SectorDensity.from_factors(weights, rows)
    stack = sector.weights[None], sector.vectors[None], [n]
    forms = witnesses._qfi_forms(*stack)
    assert np.isfinite(forms).all()
    _assert_forms_match(forms, [sector], oracles.qfi_forms_svd(*stack))


def test_a_sector_of_near_cutoff_weights_on_coherent_rows():
    rng = np.random.default_rng(3)
    weights = np.array([1.0 - 3e-12, 1e-12, 2e-12, 0.0])
    sector = _sector(30, weights, 4)
    stack = sector.weights[None], sector.vectors[None], [30]
    forms = witnesses._qfi_forms(*stack)
    _assert_forms_match(forms, [sector], oracles.qfi_forms_svd(*stack))
    # the same sector in a ragged stack with deeper and wider ones
    sectors = [sector] + _ragged(rng, [50, 4], [6, 2])
    ((_, *stack),) = witnesses._padded_stacks(sectors)
    forms = witnesses._qfi_forms(*stack)
    _assert_forms_match(forms, sectors, oracles.qfi_forms_svd(*stack))


def test_no_stack_calls_the_svd(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    rng = np.random.default_rng(9)
    # both K and W past 96: K = W - 1, K >> W and K << W, the last two on
    # coherent tails that reach below 1e-154
    deep = _ragged(rng, [97, 199, 4193], [97, 1000, 128])
    stacks = [(sector.weights[None], sector.vectors[None], [sector.n_total]) for sector in deep]
    references = [oracles.qfi_forms_svd(*stack) for stack in stacks]
    monkeypatch.setattr(np.linalg, "svd", refused)
    for sector, stack, reference in zip(deep, stacks, references):
        forms = witnesses._qfi_forms(*stack)
        if sector.n_total < 1000:
            _assert_forms_match(forms, [sector], reference)
        else:  # a dense 4194 x 4194 density is too large for the oracle
            scale = max(np.abs(reference).max(), 1.0)
            np.testing.assert_allclose(forms, reference, rtol=0, atol=FORM_TOLERANCE * scale)
    for sector in _ragged(rng, [1000, 95], [96, 1000]):
        assert np.isfinite(qfi(sector, np.eye(3))).all()
    sectors = _ragged(rng, [0, 1, 7, 40], [1, 4, 30, 2])
    mixture = NumberSectorMixture(tuple(zip((0.1, 0.2, 0.3, 0.4), sectors)))
    assert np.isfinite(qfi(mixture, np.eye(3))).all()
    run_scan(samples=3, seed=2, distribution=NumberDistribution.poisson(20.0))
    run_scan(samples=3, seed=2, n_total=12, n_components=1000)


@pytest.mark.parametrize("depth", [2, 128])
@pytest.mark.parametrize("z", [0.05, 0.5])
def test_copies_of_one_coherent_row_at_the_budget_edge(depth, z):
    # N = 4193 is the largest N a 1000-component sector may have (2^22
    # amplitudes); copies of one coherent row are that coherent state,
    # whose form is N (I - b b^T) with b its Bloch vector
    n, phi = 4193, 0.7
    rows = np.repeat(_coherent_rows(n, np.array([z]), np.array([phi])), depth, axis=0)
    assert (np.abs(rows) < 1e-154).mean() > 0.4
    weights = _weights(np.random.default_rng(depth), depth)
    forms = witnesses._qfi_forms(weights[None], rows[None], [n])
    radial = 2.0 * math.sqrt(z * (1.0 - z))
    bloch = np.array([radial * math.cos(phi), -radial * math.sin(phi), 2.0 * z - 1.0])
    exact = n * (np.eye(3) - np.outer(bloch, bloch))
    np.testing.assert_allclose(forms[0], exact, rtol=0, atol=1e-10 * n)


@pytest.mark.parametrize("depth,n", [(3, 10), (10, 3), (97, 97)])
def test_a_failed_eigensolve_is_named(depth, n, monkeypatch):
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    (sector,) = _ragged(np.random.default_rng(1), [n], [depth])
    with pytest.raises(EigendecompositionFailure, match="did not converge"):
        witnesses._qfi_forms(sector.weights[None], sector.vectors[None], [n])


# the four scans whose reports tests/test_report_digests.py pins
DIGEST_SCANS = {
    "fixed-40": dict(samples=20, seed=3, n_total=40),
    "poisson-20": dict(samples=5, seed=3, distribution=NumberDistribution.poisson(20.0)),
    "binomial-10": dict(samples=5, seed=3, distribution=NumberDistribution.binomial(10, 0.5)),
    "fixed-12-multichunk": dict(samples=12, seed=3, n_total=12, n_components=1000),
}


@pytest.mark.parametrize("name", sorted(DIGEST_SCANS))
def test_scan_worst_values_match_the_svd_route(name, monkeypatch):
    report = run_scan(**DIGEST_SCANS[name])
    with monkeypatch.context() as patch:
        patch.setattr(scan, "_qfi_forms", oracles.qfi_forms_svd)
        svd = run_scan(**DIGEST_SCANS[name])
    for bound, other in zip(report["bounds"], svd["bounds"]):
        worst, expected = bound.pop("worst_value"), other.pop("worst_value")
        if bound["name"] == "qfi":
            assert abs(worst - expected) <= FORM_TOLERANCE * max(abs(expected), 1.0)
        else:
            assert worst == expected
        assert bound == other
    assert report == svd
