"""Acceptance gate: every stated requirement, one test each, at the
stated tolerance. Run with `pytest tests/test_acceptance.py -v -s` to see
one [PASS] line per criterion."""

import json
import os
import time

import numpy as np
import pytest

from bosewit.cli import main
from bosewit.fock import (
    FockVector,
    GeneratorSpec,
    NumberSectorMixture,
    SectorDensity,
    angular_moments,
    twin_fock,
)
from bosewit.povm import (
    OutcomeRegion,
    PovmElement,
    PovmSet,
    random_complete_povm,
    second_quantized_g2,
    validate_povm,
)
from bosewit.separable import CoherentSpinState, to_fock
from bosewit.statespec import parse_state_file
from bosewit.witnesses import (
    classify,
    csi_ratio,
    integrated_g2m,
    number_squeezing_direct,
    number_squeezing_from_g2,
    number_squeezing_symmetric,
    qfi,
    twin_fock_csi_exact,
)

import oracles

TS = "2026-01-01T00:00:00+00:00"


def _fig1_rows(tmp_path):
    out = tmp_path / "fig1.json"
    started = time.perf_counter()
    code = main(
        [
            "fig1",
            "--n",
            "100,250,500,1000",
            "--orders",
            "2,4,6,8",
            "--format",
            "json",
            "--out",
            str(out),
            "--timestamp",
            TS,
        ]
    )
    elapsed = time.perf_counter() - started
    assert code == 0
    return json.loads(out.read_text())["rows"], elapsed


def test_criterion_01_fig1_reproduction(tmp_path):
    rows, elapsed = _fig1_rows(tmp_path)
    assert elapsed < 1.0
    assert len(rows) == 16
    assert all(row["exact"] > 1.0 for row in rows)
    by_key = {(row["n"], row["order_2m"]): row["exact"] for row in rows}
    for n in (100, 250, 500, 1000):
        values = [by_key[(n, order)] for order in (2, 4, 6, 8)]
        assert values == sorted(values) and len(set(values)) == 4
    for order in (2, 4, 6, 8):
        values = [by_key[(n, order)] for n in (100, 250, 500, 1000)]
        assert values == sorted(values, reverse=True) and len(set(values)) == 4
    assert by_key[(100, 2)] == pytest.approx(50.0 / 49.0, rel=1e-12)
    assert by_key[(100, 8)] == pytest.approx(5527200.0 / 3916440.0, rel=1e-12)
    print(
        f"[PASS] criterion 1: fig1 grid of 16 rows in {elapsed:.3f}s, monotone in both "
        "axes, spot values at 1e-12 relative"
    )


def test_criterion_02_approximation_quality(tmp_path):
    rows, _ = _fig1_rows(tmp_path)
    worst_overall = max(row["rel_dev"] for row in rows)
    assert worst_overall <= 0.03
    tight = [row for row in rows if row["order_2m"] / row["n"] <= 0.02]
    assert tight, "grid contains small-epsilon points"
    worst_tight = max(row["rel_dev"] for row in tight)
    assert worst_tight <= 1e-3
    print(
        f"[PASS] criterion 2: approximation within 3% everywhere (worst "
        f"{worst_overall:.3%}) and within 0.1% for eps <= 0.02 (worst {worst_tight:.4%})"
    )


def test_criterion_03_dual_path_csi():
    checked = 0
    for n in (4, 8, 20, 100):
        state = twin_fock(n)
        for m in range(1, n // 4 + 1):
            exact = twin_fock_csi_exact(n, m)
            via_state = csi_ratio(integrated_g2m(state, m))
            assert abs(via_state - exact) / exact <= 1e-10
            checked += 1
    print(
        f"[PASS] criterion 3: exact and state-integral CSI agree to 1e-10 relative on "
        f"{checked} (N, m) pairs"
    )


def _mean_number_difference(state) -> float:
    mean_jz, _ = angular_moments(state, GeneratorSpec.axis("z"))
    return 2.0 * mean_jz


def test_criterion_04_number_squeezing_identity():
    rng = np.random.default_rng(2024)
    for trial in range(500):
        n = int(rng.integers(1, 31))
        if trial % 2:
            state = FockVector(oracles.random_pure_amplitudes(rng, n))
        else:
            state = SectorDensity(oracles.random_density_matrix(rng, n))
        direct = number_squeezing_direct(state)
        via_g2 = number_squeezing_from_g2(
            integrated_g2m(state, 1), _mean_number_difference(state), float(n)
        )
        assert via_g2 == pytest.approx(direct, rel=1e-10, abs=1e-10)

    tf = twin_fock(12)
    direct = number_squeezing_direct(tf)
    integrals = integrated_g2m(tf, 1)
    via_g2 = number_squeezing_from_g2(integrals, 0.0, 12.0)
    assert direct == pytest.approx(0.0, abs=1e-12)
    assert via_g2 == pytest.approx(0.0, abs=1e-12)
    shortcut = number_squeezing_symmetric(csi_ratio(integrals), integrals.g_aa, 12.0)
    assert shortcut == pytest.approx(0.0, abs=1e-12)

    # the shortcut's plus sign is what makes it an identity for symmetric states
    assert "sign" in number_squeezing_symmetric.__doc__
    for trial in range(20):
        n = int(rng.integers(2, 25))
        amps = rng.normal(size=n + 1)
        amps = amps + amps[::-1]  # mode-swap symmetric, so G_aa = G_bb
        state = FockVector(amps / np.linalg.norm(amps))
        integrals = integrated_g2m(state, 1)
        shortcut = number_squeezing_symmetric(
            csi_ratio(integrals), integrals.g_aa, float(n)
        )
        assert shortcut == pytest.approx(number_squeezing_direct(state), abs=1e-9)
    print(
        "[PASS] criterion 4: variance and correlation-integral eta^2 agree to 1e-10 on "
        "500 states; twin-Fock gives 0 via both paths and via the sign-corrected "
        "symmetric shortcut"
    )


def test_criterion_05_coherent_split_example():
    state = to_fock(CoherentSpinState(0.3, 0.0, 50))
    integrals = integrated_g2m(state, 1)
    assert integrals.g_aa == pytest.approx(220.5, abs=1e-10)
    assert integrals.g_ab == pytest.approx(514.5, abs=1e-10)
    assert csi_ratio(integrals) == pytest.approx(1.0, abs=1e-10)
    assert number_squeezing_direct(state) == pytest.approx(0.84, abs=1e-10)
    print(
        "[PASS] criterion 5: z=0.3, N=50 split gives G_aa=220.5, G_ab=514.5, C_2=1, "
        "eta^2=0.84 at 1e-10: sub-shot-noise without any CSI violation"
    )


def test_criterion_06_separable_bound_certification(tmp_path):
    started = time.perf_counter()
    fixed_out = tmp_path / "fixed.json"
    code = main(
        [
            "scan-separable",
            "--samples",
            "1000",
            "--n",
            "40",
            "--seed",
            "42",
            "--out",
            str(fixed_out),
            "--timestamp",
            TS,
        ]
    )
    assert code == 0
    fluct_out = tmp_path / "fluct.json"
    code = main(
        [
            "scan-separable",
            "--samples",
            "200",
            "--fluctuating",
            "poisson:20",
            "--seed",
            "43",
            "--out",
            str(fluct_out),
            "--timestamp",
            TS,
        ]
    )
    assert code == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0

    fixed = json.loads(fixed_out.read_text())
    assert fixed["total_violations"] == 0
    assert fixed["n_directions"] == 10
    bounds = {b["name"]: b for b in fixed["bounds"]}
    assert set(bounds) == {f"csi_order_{m}" for m in range(1, 21)} | {
        "qfi",
        "spin_squeezing",
    }
    for m in range(1, 21):
        record = bounds[f"csi_order_{m}"]
        if record["evaluations"]:
            assert record["worst_value"] <= 1.0 + 1e-9
    assert bounds["qfi"]["bound"] == 40.0
    assert bounds["qfi"]["worst_value"] <= 40.0 + 1e-6
    assert bounds["spin_squeezing"]["worst_value"] >= 1.0 - 1e-9

    fluct = json.loads(fluct_out.read_text())
    assert fluct["total_violations"] == 0
    fbounds = {b["name"]: b for b in fluct["bounds"]}
    assert fbounds["csi_order_1"]["worst_value"] <= 1.0 + 1e-9
    assert abs(fluct["mean_n"] - 20.0) < 1e-6
    assert fbounds["qfi"]["worst_value"] <= 20.0 + 1e-6
    assert fbounds["spin_squeezing"]["worst_value"] >= 1.0 - 1e-9
    print(
        f"[PASS] criterion 6: 1000 fixed-N and 200 fluctuating-N separable samples, "
        f"zero bound violations, {elapsed:.1f}s"
    )


def test_criterion_07_twin_fock_detection():
    state = twin_fock(20)
    c2 = csi_ratio(integrated_g2m(state, 1))
    assert c2 == pytest.approx(10.0 / 9.0, rel=1e-12)
    fq = qfi(state, GeneratorSpec.axis("x"))
    assert fq == pytest.approx(220.0, rel=1e-12)
    assert fq > 20.0
    report = classify(20.0, csi_by_order={1: c2}, qfi_by_generator={"x": fq})
    assert report.entangled_by_csi
    assert report.entangled_by_qfi
    print(
        "[PASS] criterion 7: twin-Fock N=20 flags entangled_by_csi (C_2 = 10/9) and "
        "entangled_by_qfi (F_Q(J_x) = 220 > 20)"
    )


def test_criterion_08_qfi_properties():
    rng = np.random.default_rng(808)
    for _ in range(100):
        n = int(rng.integers(2, 13))
        rho1 = oracles.random_density_matrix(rng, n)
        rho2 = oracles.random_density_matrix(rng, n)
        p = float(rng.uniform(0.05, 0.95))
        g = GeneratorSpec.from_vector(rng.normal(size=3))
        mixed = SectorDensity(p * rho1 + (1.0 - p) * rho2)
        lhs = qfi(mixed, g)
        rhs = p * qfi(SectorDensity(rho1), g) + (1.0 - p) * qfi(SectorDensity(rho2), g)
        assert lhs <= rhs + 1e-8

    for _ in range(20):
        n = int(rng.integers(2, 16))
        state = FockVector(oracles.random_pure_amplitudes(rng, n))
        g = GeneratorSpec.from_vector(rng.normal(size=3))
        rotated = oracles.rotate(state, oracles.aligning_rotation_axis(g))
        assert qfi(state, g) == pytest.approx(
            qfi(rotated, GeneratorSpec.axis("z")), abs=1e-8
        )

    for _ in range(15):
        n = int(rng.integers(2, 16))
        state = FockVector(oracles.random_pure_amplitudes(rng, n))
        g = GeneratorSpec.from_vector(rng.normal(size=3))
        _, variance = angular_moments(state, g)
        assert qfi(SectorDensity.from_pure(state), g) == pytest.approx(
            4.0 * variance, rel=1e-9, abs=1e-9
        )
    print(
        "[PASS] criterion 8: QFI convexity on 100 mixture pairs (1e-8), rotation "
        "covariance on 20 directions (1e-8), spectral = 4 Var on pure states (1e-9)"
    )


def test_criterion_09_povm_sum_rule():
    rng = np.random.default_rng(909)
    povms = [random_complete_povm(rng, 2, int(rng.integers(2, 5))) for _ in range(10)]
    for povm in povms:
        validate_povm(povm)
    states = []
    for _ in range(50):
        n = int(rng.integers(2, 21))
        states.append(FockVector(oracles.random_pure_amplitudes(rng, n)))
    for state in states:
        n = state.n_total
        for povm in povms:
            total = sum(
                second_quantized_g2(state, povm, l1, l2)
                for l1 in povm.labels()
                for l2 in povm.labels()
            )
            assert total == pytest.approx(n * (n - 1), rel=1e-8)

    projective = PovmSet(
        2,
        (PovmElement("a", np.diag([1.0, 0.0])), PovmElement("b", np.diag([0.0, 1.0]))),
    )
    for state in states[:15]:
        integrals = integrated_g2m(state, 1)
        assert second_quantized_g2(state, projective, "a", "a") == pytest.approx(
            integrals.g_aa, rel=1e-9, abs=1e-9
        )
        assert second_quantized_g2(state, projective, "b", "b") == pytest.approx(
            integrals.g_bb, rel=1e-9, abs=1e-9
        )
        assert second_quantized_g2(state, projective, "a", "b") == pytest.approx(
            integrals.g_ab, rel=1e-9, abs=1e-9
        )
    print(
        "[PASS] criterion 9: coincidence sum rule N(N-1) on 50 states x 10 random "
        "POVMs (1e-8); projective coincidences match the integral route (1e-9)"
    )


def test_criterion_10_sector_masking():
    spec = parse_state_file(
        os.path.join(os.path.dirname(__file__), "data", "masked_mixture.state")
    )
    state = spec.build()
    assert isinstance(state, NumberSectorMixture)

    # the small sector alone breaks the bound
    entangled_sector = next(s for _, s in state.sectors if s.n_total == 4)
    sector_c2 = csi_ratio(integrated_g2m(entangled_sector, 1))
    assert sector_c2 == pytest.approx(twin_fock_csi_exact(4, 1), rel=1e-12)
    assert sector_c2 > 1.0

    # averaged over sectors the violation disappears
    overall_c2 = csi_ratio(integrated_g2m(state, 1))
    assert overall_c2 <= 1.0
    overall = classify(state.mean_n, csi_by_order={1: overall_c2})
    assert not overall.entangled_by_csi

    # while the per-sector analysis still flags it
    flags = {}
    for _, sector in state.sectors:
        c2 = csi_ratio(integrated_g2m(sector, 1))
        flags[sector.n_total] = classify(
            float(sector.n_total), csi_by_order={1: c2}
        ).entangled_by_csi
    assert flags == {4: True, 20: False}
    print(
        f"[PASS] criterion 10: averaged C_2 = {overall_c2:.4f} <= 1 hides the "
        f"twin-Fock sector (C_2 = {sector_c2:.1f}); per-sector analysis flags it"
    )
