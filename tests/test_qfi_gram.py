"""The eigenpairs behind F_Q: witnesses._qfi_forms and the scan's closed
form witnesses._product_forms against the dense oracle and a thin SVD.

Both end in one kernel, witnesses._gram_forms, an eigh of the K x K Gram
matrix of a stack's rows. _qfi_forms flushes amplitudes below 1e-150 to
zero first, and compresses a stack deeper than it is wide (K > W) to W
rows by an eigh of its W x W density. A mixture of products
|psi_k>^{(x) N}, as scans draw them, has its K x K Gram matrix and
generator blocks in closed form, with no amplitude row. Every form here is
held to `oracles.qfi_dense` and to `oracles.qfi_forms_svd`, a thin SVD of
the unflushed rows, within FORM_TOLERANCE of the largest entry of the
sector's form, or to an exact form.
"""

import math

import numpy as np
import pytest

from bosewit import scan, witnesses
from bosewit.errors import EigendecompositionFailure
from bosewit.fock import NumberSectorMixture, SectorDensity, twin_fock
from bosewit.scan import run_scan
from bosewit.separable import NumberDistribution, _coherent_rows, _draw_components
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
    weights, z, phi = (part[None, None] for part in _draw_components(np.random.default_rng(2), depth))
    with pytest.raises(EigendecompositionFailure, match="did not converge"):
        witnesses._product_forms(weights, z, phi, [n])


def test_every_route_forms_its_pair_term_in_the_one_kernel(monkeypatch):
    # a pure state, a K <= W and a K > W sector, and a scan's closed form
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    shallow, deep = _ragged(np.random.default_rng(11), [20, 3], [4, 12])
    assert shallow.weights.size <= shallow.n_total + 1 and deep.weights.size > deep.n_total + 1
    monkeypatch.setattr(witnesses, "_gram_forms", reached)
    for state in (twin_fock(20), shallow, deep):
        with pytest.raises(Reached):
            qfi(state, np.eye(3))
    with pytest.raises(Reached):
        run_scan(samples=1, seed=1, n_total=12)


# --- the closed form of product mixtures --------------------------------------

EPS = float(np.finfo(float).eps)


def _bloch(z, phi):
    radial = 2.0 * math.sqrt(z * (1.0 - z))
    return np.array([radial * math.cos(phi), -radial * math.sin(phi), 2.0 * z - 1.0])


def _rows_route(weights, z, phi, numbers, forms=witnesses._qfi_forms):
    """The forms of (..., J, K) product components from their complex
    amplitude rows, through `forms` (_qfi_forms or the SVD oracle)."""
    rows = _coherent_rows(list(numbers), z, phi)
    depth, width = rows.shape[-2:]
    count = math.prod(weights.shape[:-2])
    stack = weights.reshape(-1, depth), rows.reshape(-1, depth, width), list(numbers) * count
    return forms(*stack).reshape(*weights.shape[:-1], 3, 3)


@pytest.mark.parametrize("n", [2, 3, 40, 1000, 2895])
def test_orthogonal_components_give_the_exact_form(n):
    # |0, N> and e^{i N phi} |N, 0> (z = 0 and z = 1) overlap by s = 0: the
    # mixture has F_Q(J_x) = F_Q(J_y) = N and F_Q(J_z) = 0 for N >= 2. With
    # dyadic weights every step of the closed form is exact.
    z, phi = np.array([[0.0, 1.0]]), np.array([[0.3, -2.9]])
    for weights in ([0.5, 0.5], [0.25, 0.75], [0.125, 0.875]):
        forms = witnesses._product_forms(np.array([weights]), z, phi, [n])
        np.testing.assert_array_equal(forms[0], np.diag([n, n, 0.0]))
    forms = witnesses._product_forms(np.array([[0.3, 0.7]]), z, phi, [n])
    np.testing.assert_allclose(forms[0], np.diag([n, n, 0.0]), rtol=0, atol=4 * EPS * n * n)


@pytest.mark.parametrize("n", [2, 40, 1000, 2895, 10**5, 10**6])
def test_one_coherent_state_split_in_two_components(n):
    # two components with the same (z, phi) are that coherent state, whose
    # form is N (I - b b^T) with b its Bloch vector; the two overlap by
    # exactly 1, so the error stays at the rounding of N^2 terms (at most
    # 5.8 eps N^2 over 300 random cases), where an overlap an ulp off 1
    # would grow like N^3 eps
    cases = [(0.3, 0.7, 0.37), (0.05, -2.0, 0.5), (0.5, 3.1, 0.9), (0.9, 0.0, 0.01),
             (0.123, 1.234, 0.6), (0.77, -0.3, 0.2)]
    for z, phi, weight in cases:
        weights = np.array([[weight, 1.0 - weight]])
        forms = witnesses._product_forms(weights, np.full((1, 2), z), np.full((1, 2), phi), [n])
        exact = n * (np.eye(3) - np.outer(_bloch(z, phi), _bloch(z, phi)))
        np.testing.assert_allclose(forms[0], exact, rtol=0, atol=8 * EPS * n * n)


def test_sectors_of_zero_and_one_particle_and_single_components():
    rng = np.random.default_rng(17)
    weights, z, phi = (part[None, :] for part in _draw_components(rng, 5))
    # no particle: no generator acts, and no 0 * s^-1 arises at s = 0
    z[0, :2] = 0.0, 1.0
    np.testing.assert_array_equal(witnesses._product_forms(weights, z, phi, [0])[0], np.zeros((3, 3)))
    # one particle, five components: rank 2 from five rows
    sectors = [SectorDensity.from_factors(weights[0], _coherent_rows(1, z[0], phi[0]))]
    _assert_forms_match(witnesses._product_forms(weights, z, phi, [1]), sectors,
                        _rows_route(weights, z, phi, [1], oracles.qfi_forms_svd))
    # one component is the coherent state itself, at every N
    for n in (0, 1, 2, 40, 2895):
        form = witnesses._product_forms(np.ones((1, 1)), z[:, :1], phi[:, :1], [n])[0]
        exact = n * (np.eye(3) - np.outer(_bloch(z[0, 0], phi[0, 0]), _bloch(z[0, 0], phi[0, 0])))
        np.testing.assert_allclose(form, exact, rtol=0, atol=4 * EPS * max(n, 1) ** 2)


# (numbers, depth, samples) of product stacks against the rows route
PRODUCT_SHAPES = {
    "poisson-like": ([0, 1, 2, 3, 7, 20, 41], 4, 3),
    "deep-and-shallow": ([1, 2, 5, 30], 12, 2),
    "wide": ([200], 64, 1),
    "large N": ([1000, 2895], 4, 2),
}


@pytest.mark.parametrize("shape", sorted(PRODUCT_SHAPES))
def test_random_product_stacks_match_the_rows_route_and_the_svd(shape):
    numbers, depth, count = PRODUCT_SHAPES[shape]
    rng = np.random.default_rng(sorted(PRODUCT_SHAPES).index(shape))
    draws = np.array([[_draw_components(rng, depth) for _ in numbers] for _ in range(count)])
    weights, z, phi = draws.transpose(2, 0, 1, 3)
    # a duplicated component, a zero weight and both boundary values of z
    z[..., 1], phi[..., 1] = z[..., 0], phi[..., 0]
    z[0, :, 2], z[-1, :, 3 % depth] = 0.0, 1.0
    weights[-1, :, -1] = 0.0
    weights /= weights.sum(axis=-1, keepdims=True)
    forms = witnesses._product_forms(weights, z, phi, numbers)
    assert forms.shape == (count, len(numbers), 3, 3)
    for reference in (_rows_route(weights, z, phi, numbers),
                      _rows_route(weights, z, phi, numbers, oracles.qfi_forms_svd)):
        for form, other in zip(forms.reshape(-1, 3, 3), reference.reshape(-1, 3, 3)):
            scale = max(np.abs(other).max(), 1.0)
            np.testing.assert_allclose(form, other, rtol=0, atol=FORM_TOLERANCE * scale)


# the four scans whose reports tests/test_report_digests.py pins
DIGEST_SCANS = {
    "fixed-40": dict(samples=20, seed=3, n_total=40),
    "poisson-20": dict(samples=5, seed=3, distribution=NumberDistribution.poisson(20.0)),
    "binomial-10": dict(samples=5, seed=3, distribution=NumberDistribution.binomial(10, 0.5)),
    "fixed-12-multichunk": dict(samples=12, seed=3, n_total=12, n_components=1000),
}


@pytest.mark.parametrize("name", sorted(DIGEST_SCANS))
def test_scan_worst_values_match_the_svd_route(name, monkeypatch):
    # every F_Q of the patched scan comes from complex amplitude rows and a
    # thin SVD: the closed form's sectors (K <= N + 1) through _rows_route,
    # and the deep chunks of fixed-12-multichunk (K > N + 1) in place of
    # _qfi_forms
    calls = {"closed": 0, "rows": 0}

    def closed(weights, z, phi, numbers):
        calls["closed"] += 1
        return _rows_route(weights, z, phi, numbers, oracles.qfi_forms_svd)

    def rows(weights, vectors, numbers):
        calls["rows"] += 1
        return oracles.qfi_forms_svd(weights, vectors, numbers)

    report = run_scan(**DIGEST_SCANS[name])
    with monkeypatch.context() as patch:
        patch.setattr(witnesses, "_product_forms", closed)
        patch.setattr(witnesses, "_qfi_forms", rows)
        svd = run_scan(**DIGEST_SCANS[name])
    deep = name == "fixed-12-multichunk"
    assert (calls["closed"] > 0, calls["rows"] > 0) == (not deep, deep)
    for bound, other in zip(report["bounds"], svd["bounds"]):
        worst, expected = bound.pop("worst_value"), other.pop("worst_value")
        if bound["name"] == "qfi":
            assert abs(worst - expected) <= FORM_TOLERANCE * max(abs(expected), 1.0)
        else:
            assert worst == expected
        assert bound == other
    assert report == svd
