"""The scan's C_2m against a closed form that no row can underflow.

Every component a scan draws is a product |psi>^{(x) N}, so its order-2m
correlators are (N)_2m z^2m, (N)_2m (1 - z)^2m and (N)_2m z^m (1 - z)^m,
and the scan takes them from that closed form
(witnesses._product_correlators). These tests hold every C_2m the scan
computes to `oracles.product_csi_loop`, plain log-space loops over the
sectors and components, at every order up to the largest N a full-order
scan accepts; a scan of one coherent component, which sits on C_2m = 1 at
every order, reports no violation and no skip there; and the kernel's
working set stays within a fixed multiple of STACK_AMPLITUDES.
"""

import math
import tracemalloc

import numpy as np
import pytest

from bosewit import scan, witnesses
from bosewit.scan import _draw_directions, run_scan
from bosewit.separable import NumberDistribution, sample_ensemble, sample_fluctuating_ensemble
from bosewit.witnesses import STACK_AMPLITUDES

import oracles


def _recorded_ratios(monkeypatch):
    """Every (C_2m, degenerate) pair the scan's chunks compute, in order."""
    recorded = []

    def recording(*normalized):
        ratios, degenerate = witnesses._csi_ratios(*normalized)
        recorded.append((ratios, degenerate))
        return ratios, degenerate

    monkeypatch.setattr(scan, "_csi_ratios", recording)
    return recorded


def _ensembles(case):
    """The ensembles run_scan draws for `case`, one per sample."""
    master = np.random.default_rng(case["seed"])
    _draw_directions(master, 10)
    for seed in master.integers(2**63, size=case["samples"]):
        if "n_total" in case:
            yield sample_ensemble(int(seed), case["n_total"], case["n_components"])
        else:
            yield sample_fluctuating_ensemble(int(seed), case["distribution"], case["n_components"])


CASES = {
    **{
        f"fixed-{n}-k{k}": dict(samples=20, seed=3, n_total=n, n_components=k)
        for n in (200, 1000, 2895)
        for k in (1, 4)
    },
    "binomial-60": dict(
        samples=4, seed=3, distribution=NumberDistribution.binomial(60, 0.5), n_components=4,
        csi_orders=list(range(1, 31)),
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_scan_csi_matches_the_log_space_loop_at_every_order(name, monkeypatch):
    case = CASES[name]
    recorded = _recorded_ratios(monkeypatch)
    report = run_scan(**case)
    ratios = np.concatenate([ratio for ratio, _ in recorded])
    degenerate = np.concatenate([mask for _, mask in recorded])
    orders = report["csi_orders"]
    assert ratios.shape == (case["samples"], len(orders))
    for s, ensemble in enumerate(_ensembles(case)):
        for i, m in enumerate(orders):
            expected = oracles.product_csi_loop(ensemble, m)
            assert expected is not None and not degenerate[s, i], (s, m)
            assert ratios[s, i] == pytest.approx(expected, rel=1e-9), (s, m)


@pytest.mark.parametrize("n_total", [200, 1000, 2895])
def test_a_one_component_scan_has_no_violation_and_no_skip(n_total):
    # populations that underflowed past N ~ 130 gave 682 false violations
    # and 2272 skips at N = 1000
    report = run_scan(20, 3, n_total=n_total, n_components=1)
    assert report["total_violations"] == 0
    for bound in report["bounds"]:
        assert bound["skipped"] == 0 and bound["evaluations"] == 20, bound["name"]
        if bound["name"].startswith("csi"):
            assert bound["worst_value"] == pytest.approx(1.0, rel=1e-11), bound["name"]


def test_the_correlator_kernel_works_within_a_fixed_multiple_of_the_stack(monkeypatch):
    # 4 components over the 1001 sectors of binomial:1000,0.5 at 250 orders:
    # rows or populations of every sector would take 40 times the stack
    peaks = []
    evaluate = scan._evaluate_csi

    def measured(*args):
        tracemalloc.start()
        try:
            return evaluate(*args)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(scan, "_evaluate_csi", measured)
    report = run_scan(
        samples=1, seed=3, distribution=NumberDistribution.binomial(1000, 0.5),
        csi_orders=range(1, 251),
    )
    assert report["total_violations"] == 0
    assert peaks and max(peaks) <= 6 * 8 * STACK_AMPLITUDES
