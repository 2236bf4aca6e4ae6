"""The chunked scan against the scan evaluated one sample at a time.

run_scan takes the sectors of every sample of a chunk in runs of padded
factor stacks (witnesses._stack_runs). These tests hold it to
`oracles.scan_per_sample`, which builds each sample's density and calls
the public witnesses on it, on scans that span at least three chunks with
a short last one and on a sample that spans several runs, and hold the
padded QFI stack to the dense oracle sector by sector. Runs with K > N + 1
take F_Q from complex amplitude rows, the others from the K x K closed
form of their product components; the cases cover both.
"""

import math

import numpy as np
import pytest

from bosewit import scan, separable, witnesses
from bosewit.fock import NumberSectorMixture, SectorDensity, _axis_actions
from bosewit.scan import run_scan
from bosewit.separable import NumberDistribution, _coherent_rows
from bosewit.witnesses import STACK_AMPLITUDES, WITNESS_TOLERANCE, qfi

import oracles

# Each case with the F_Q routes its runs take: "rows" for runs with K > N + 1
# (complex amplitude rows and _qfi_forms), "closed" for the others
# (_product_forms).
CASES = {
    "fixed-6": dict(samples=20, seed=11, n_total=6, n_components=1000),
    "fixed-12": dict(samples=12, seed=12, n_total=12, n_components=1000),
    "fixed-40": dict(samples=8, seed=13, n_total=40, n_components=400),
    "poisson-6": dict(
        samples=15, seed=14, distribution=NumberDistribution.poisson(6.0), n_components=20
    ),
    "binomial-10": dict(
        samples=10, seed=15, distribution=NumberDistribution.binomial(10, 0.5),
        n_components=200, csi_orders=[1, 5, 6],
    ),
    "fixed-200": dict(samples=12, seed=17, n_total=200, n_components=64, csi_orders=[1, 50, 100]),
    "poisson-20": dict(
        samples=19, seed=18, distribution=NumberDistribution.poisson(20.0), n_components=4
    ),
    # the first run of a 17-sample chunk (sectors up to N = 14) is deep
    "binomial-20": dict(
        samples=40, seed=19, distribution=NumberDistribution.binomial(20, 0.5), n_components=16
    ),
}
ROUTES = {
    "fixed-6": {"rows"},
    "fixed-12": {"rows"},
    "fixed-40": {"rows"},
    "poisson-6": {"closed"},
    "binomial-10": {"rows"},
    "fixed-200": {"closed"},
    "poisson-20": {"closed"},
    "binomial-20": {"rows", "closed"},
}


def _chunk_size(case):
    if "n_total" in case:
        numbers = [case["n_total"]]
    else:
        numbers = [n for n, _ in case["distribution"].weights()]
    return max(1, STACK_AMPLITUDES // (case["n_components"] * sum(n + 1 for n in numbers)))


@pytest.mark.parametrize("name", sorted(CASES))
def test_chunked_scan_matches_the_per_sample_loop(name, monkeypatch):
    case = CASES[name]
    chunk = _chunk_size(case)
    # at least three chunks, the last one short
    assert case["samples"] > 2 * chunk and case["samples"] % chunk
    if "distribution" in case:
        assert {0, 1} <= {n for n, _ in case["distribution"].weights()}

    masks = []

    def recording(g_aa, g_bb, g_ab):
        ratios, degenerate = witnesses._csi_ratios(g_aa, g_bb, g_ab)
        masks.append(degenerate)
        return ratios, degenerate

    routes = set()

    def route(name, forms):
        def recorded(*args):
            routes.add(name)
            return forms(*args)

        return recorded

    monkeypatch.setattr(scan, "_csi_ratios", recording)
    monkeypatch.setattr(witnesses, "_qfi_forms", route("rows", witnesses._qfi_forms))
    monkeypatch.setattr(witnesses, "_product_forms", route("closed", witnesses._product_forms))
    report = run_scan(**case)
    sizes = [chunk] * (len(masks) - 1) + [case["samples"] % chunk]
    assert [len(mask) for mask in masks] == sizes
    assert routes == ROUTES[name]

    expected = oracles.scan_per_sample(**case)
    for column, bound in enumerate(b for b in report["bounds"] if b["name"].startswith("csi")):
        skipped_at = np.concatenate(masks)[:, column]
        assert list(skipped_at) == [v is None for v in expected[bound["name"]]]
    _assert_matches_the_oracle(report, expected)


def _assert_matches_the_oracle(report, expected):
    assert [b["name"] for b in report["bounds"]] == list(expected)
    for bound in report["bounds"]:
        # the margin written out here, not read from the report
        margin = WITNESS_TOLERANCE * max(1.0, abs(bound["bound"]))
        summary = oracles.bound_summary(
            expected[bound["name"]], bound["bound"], bound["direction"], margin
        )
        for key in ("evaluations", "skipped", "violations"):
            assert bound[key] == summary[key], (bound["name"], key)
        if summary["worst_index"] is None:
            assert bound["worst_value"] is None and bound["worst_sample"] is None
            continue
        assert bound["worst_sample"]["sample_index"] == summary["worst_index"], bound["name"]
        assert bound["worst_value"] == pytest.approx(summary["worst_value"], rel=1e-12), bound["name"]


def test_a_sample_past_the_stack_budget_is_taken_in_runs(monkeypatch):
    # 40 components over the 61 sectors of binomial:60,0.5 take 40 x 1891 =
    # 75640 amplitudes, past STACK_AMPLITUDES: one sample per chunk, and its
    # sectors in several runs, each within the budget or a single sector
    case = dict(samples=3, seed=16, distribution=NumberDistribution.binomial(60, 0.5), n_components=40)
    shapes = []

    def rows(numbers, z, phi):
        built = _coherent_rows(numbers, z, phi)
        shapes.append(built.shape)
        return built

    product_forms = witnesses._product_forms

    def closed(weights, z, phi, numbers):
        shapes.append((*weights.shape, max(numbers) + 1))
        return product_forms(weights, z, phi, numbers)

    # each run takes F_Q once: complex rows where K > N + 1 (the sectors up
    # to N = 38), the closed form elsewhere, with the shape its padded
    # stack of rows would have
    monkeypatch.setattr(witnesses, "_coherent_rows", rows)
    monkeypatch.setattr(witnesses, "_product_forms", closed)
    report = run_scan(**case)
    per_sample = len(shapes) // case["samples"]
    assert per_sample >= 2 and len(shapes) == per_sample * case["samples"]
    for shape in shapes:
        assert shape[0] == 1
        assert math.prod(shape) <= STACK_AMPLITUDES or shape[1] == 1
    assert sum(shape[1] for shape in shapes[:per_sample]) == 61
    _assert_matches_the_oracle(report, oracles.scan_per_sample(**case))


@pytest.mark.parametrize("n_total, n_components", [(300, 8), (7, 8)])
def test_a_scan_with_k_at_most_n_plus_1_builds_no_row(n_total, n_components, monkeypatch):
    # C_2m from the closed form of the product components' correlators and
    # F_Q from their K x K closed forms: no amplitude or modulus row, up to
    # K = N + 1 (every row builder ends in _normalized)
    def refuse(*_):
        raise AssertionError("the scan built a row")

    monkeypatch.setattr(witnesses, "_coherent_rows", refuse)
    monkeypatch.setattr(separable, "_normalized", refuse)
    report = run_scan(samples=4, seed=21, n_total=n_total, n_components=n_components)
    assert len(report["csi_orders"]) == n_total // 2
    assert report["total_violations"] == 0
    assert all(bound["skipped"] == 0 for bound in report["bounds"])


def _sector(n, weights, seed):
    rng = np.random.default_rng(seed)
    z, phi = rng.random(len(weights)), rng.uniform(-math.pi, math.pi, len(weights))
    rows = _coherent_rows(n, z, phi)
    return SectorDensity.from_factors(weights, rows)


def test_padded_stack_matches_the_dense_oracle_per_sector():
    sectors = [
        _sector(0, [1.0], 1),
        _sector(1, [0.0, 0.7, 0.3], 2),
        _sector(2, [0.5, 0.0, 0.0, 0.5], 3),
        _sector(59, [0.25, 0.0, 0.75], 4),
    ]
    ((run, weights, rows, numbers),) = witnesses._padded_stacks(sectors)
    assert run == slice(0, 4)
    assert weights.shape == (4, 4) and rows.shape == (4, 4, 60) and list(numbers) == [0, 1, 2, 59]
    for b, sector in enumerate(sectors):
        depth = sector.weights.size
        assert not weights[b, depth:].any() and not rows[b, depth:].any()
        assert not rows[b, :, sector.n_total + 1 :].any()
    forms = witnesses._qfi_forms(weights, rows, numbers)
    rng = np.random.default_rng(5)
    directions = np.vstack([np.eye(3), rng.normal(size=(4, 3))])
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    for sector, form in zip(sectors, forms):
        oracle = oracles.qfi_dense(oracles.dense_density(sector.weights, sector.vectors), directions)
        values = np.einsum("ka,ab,kb->k", directions, form, directions)
        np.testing.assert_allclose(values, oracle, rtol=1e-10, atol=1e-10)
    mixture = NumberSectorMixture(tuple(zip((0.1, 0.2, 0.3, 0.4), sectors)))
    expected = sum(
        w * oracles.qfi_dense(oracles.dense_density(s.weights, s.vectors), directions)
        for w, s in mixture.sectors
    )
    np.testing.assert_allclose(qfi(mixture, directions), expected, rtol=1e-10)


def test_padding_columns_neither_feed_nor_receive():
    rng = np.random.default_rng(8)
    numbers = [0, 1, 5, 9]
    rows = rng.normal(size=(4, 3, 10)) + 1j * rng.normal(size=(4, 3, 10))
    actions = _axis_actions(rows, numbers)
    for b, n in enumerate(numbers):
        alone = _axis_actions(rows[b : b + 1, :, : n + 1], [n])[0]
        np.testing.assert_array_equal(actions[b, :, :, : n + 1], alone)
        assert not actions[b, :, :, n + 1 :].any()


def test_a_mixture_is_stacked_in_runs_within_the_budget():
    # one wide sector among narrow ones: padding all of them to its width
    # would take 6 x 20001 amplitudes
    sectors = [_sector(n, [0.5, 0.5], n) for n in (0, 1, 2, 3, 4)] + [_sector(20000, [1.0], 9)]
    stacks = list(witnesses._padded_stacks(sectors))
    assert [run for run, *_ in stacks] == [slice(0, 5), slice(5, 6)]
    assert [list(numbers) for *_, numbers in stacks] == [[0, 1, 2, 3, 4], [20000]]
    for _, weights, rows, _ in stacks:
        assert rows.size <= STACK_AMPLITUDES or len(rows) == 1
    mixture = NumberSectorMixture(tuple(zip((0.1, 0.1, 0.2, 0.2, 0.2, 0.2), sectors)))
    directions = np.array([[0.0, 0.0, 1.0], [0.6, 0.0, 0.8], [0.0, 1.0, 0.0]])
    expected = sum(w * qfi(s, directions) for w, s in mixture.sectors)
    np.testing.assert_allclose(qfi(mixture, directions), expected, rtol=1e-12)


def test_qfi_forms_of_a_stack_match_each_sector_alone():
    rng = np.random.default_rng(21)
    numbers = list(rng.integers(0, 60, size=40))
    sectors = [_sector(int(n), list(rng.dirichlet(np.ones(40))), i) for i, n in enumerate(numbers)]
    weights = np.array([s.weights for s in sectors])
    rows = np.zeros((40, 40, 60), dtype=np.complex128)
    for b, s in enumerate(sectors):
        rows[b, :, : s.n_total + 1] = s.vectors
    assert rows.size > STACK_AMPLITUDES
    forms = witnesses._qfi_forms(weights, rows, numbers)
    for b, s in enumerate(sectors):
        alone = witnesses._qfi_forms(s.weights[None], s.vectors[None], [s.n_total])[0]
        np.testing.assert_allclose(forms[b], alone, rtol=1e-12, atol=1e-12 * np.abs(alone).max())
