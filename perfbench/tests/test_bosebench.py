"""Tests of the benchmark itself: python -m pytest perfbench/tests"""

import json
from pathlib import Path

import pytest

from bosebench import checks, runner
from bosebench.speed import REFERENCE_S, SpeedProbe
from bosebench.tracing import LAYERS, Tracer
from bosebench.workloads import WORKLOADS, overflow_probes

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _generate(name, seed, workdir):
    workdir.mkdir()
    stream, warmup = WORKLOADS[name].generate(seed, workdir)
    files = {p.name: p.read_text() for p in sorted(workdir.iterdir())}
    strip = lambda argv: tuple(a.replace(str(workdir), "<dir>") for a in argv)
    return [strip(r.argv) for r in [warmup, *stream]], [r.expect for r in stream], files


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_identical_per_seed(name, tmp_path):
    first = _generate(name, 7, tmp_path / "a")
    assert first == _generate(name, 7, tmp_path / "b")
    assert first[0] != _generate(name, 8, tmp_path / "c")[0]


def test_strict_json_rejects_nan_and_infinity():
    for token in ("NaN", "Infinity", "-Infinity"):
        with pytest.raises(ValueError):
            checks.strict_json('{"value": %s}' % token)
    assert checks.strict_json('{"value": 1.5}') == {"value": 1.5}


def _twin_expect(n, orders):
    return {
        "type": "witness",
        "state": {"kind": "twin_fock", "n": n},
        "keys": [f"csi:{m}" for m in orders],
        "n_reference": float(n),
        "per_sector": False,
        "sectors": None,
    }


def _twin_output(n, values):
    witnesses = {f"csi:{m}": {"value": v, "bound": 1.0, "flag": True} for m, v in values.items()}
    return json.dumps({"n_reference": float(n), "witnesses": witnesses}, allow_nan=True)


def test_witness_check_accepts_exact_and_rejects_overflowed_values():
    errors = {"ZeroMeanSpinDirection"}
    exact = {m: checks.twin_fock_ratio(400, m) for m in (1, 25, 50)}
    assert checks.check(_twin_expect(400, exact), 0, _twin_output(400, exact), errors) == []
    wrong = {**exact, 50: 0.0}
    assert checks.check(_twin_expect(400, wrong), 0, _twin_output(400, wrong), errors)
    bare_nan = {**exact, 50: float("nan")}
    problems = checks.check(_twin_expect(400, bare_nan), 0, _twin_output(400, bare_nan), errors)
    assert problems and "strict JSON" in problems[0]


def test_malformed_or_crashing_output_is_a_failed_op(tmp_path, monkeypatch):
    client, stream, _, _ = runner.setup(WORKLOADS["witness_mix"], 2, tmp_path / "work")
    witness = next(r for r in stream if r.kind == "witness.pure")

    def prints_a_list(argv):
        print("[1, 2]")
        return 0

    def crashes(argv):
        raise RuntimeError("boom")

    for fake in (prints_a_list, crashes):
        monkeypatch.setattr(client.cli, "main", fake)
        assert client.send(witness).problems


def test_speed_probe_scales_by_the_kernel_times_around_the_work():
    probe = SpeedProbe()
    first = probe.refresh(force=True)
    assert probe.refresh() == first  # within the interval: no new timing
    probe.refresh(force=True)
    before, after = probe.kernel_s
    assert probe.factor(first) == 2 * REFERENCE_S / (before + after)


def test_oracles_match_closed_forms():
    assert checks.twin_fock_ratio(20, 1) == 10 / 9
    assert checks.dicke_ratio(20, 10, 1) == pytest.approx(10 / 9, rel=1e-15)
    assert checks.dicke_ratio(6, 1, 1) is None


def _tracer_wrappers():
    """(binding, name) of every tracer wrapper left in a loaded bosewit module."""
    import sys

    found = []
    for module_name, module in list(sys.modules.items()):
        if module_name == "bosewit" or module_name.startswith("bosewit."):
            for binding in (module, getattr(module, "StateSpec", module)):
                for name, value in vars(binding).items():
                    if getattr(value, "__qualname__", "").startswith("Tracer."):
                        found.append((binding, name))
    return found


def test_wrappers_are_gone_after_a_traced_run(tmp_path):
    client, stream, _, _ = runner.setup(WORKLOADS["witness_mix"], 3, tmp_path / "work")
    tracer = Tracer()
    tracer.install()
    try:
        assert len(_tracer_wrappers()) >= len(LAYERS)
        runner.measure(client, stream, 0.05, 0, SpeedProbe(), tracer)
    finally:
        tracer.uninstall()
    assert tracer.spans
    assert _tracer_wrappers() == []
    spans_before = len(tracer.spans)
    runner.measure(client, stream, 0.0, 0, SpeedProbe())
    assert len(tracer.spans) == spans_before


def test_each_witness_error_is_counted_once():
    import importlib

    witnesses = importlib.import_module("bosewit.witnesses")
    state = importlib.import_module("bosewit.fock").twin_fock(20)
    tracer = Tracer()
    tracer.install()
    try:
        for _ in range(50):  # separate errors, each freed before the next is raised
            with pytest.raises(witnesses.ZeroMeanSpinDirection):
                witnesses.spin_squeezing(state)
    finally:
        tracer.uninstall()
    assert tracer.errors == {"ZeroMeanSpinDirection": 50}


def test_overflow_probes_fail_their_checks_today(tmp_path):
    client, _, _, _ = runner.setup(WORKLOADS["scan_fixed"], 1, tmp_path / "work")
    tmp_path.joinpath("probes").mkdir()
    for probe in overflow_probes(tmp_path / "probes"):
        assert client.send(probe).problems, probe.kind


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_each_workload_completes_a_smoke_run(name):
    result, detail = runner.run(ROOT, name, 5, 0.2, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert detail["env"]["seed"] == 5 and detail["env"]["nproc"] >= 1


def test_traced_smoke_run_reports_every_per_layer_metric():
    result, detail = runner.run(ROOT, "scan_fixed", 5, 0.2, trace=True)
    assert result["correct"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    sweep = detail["scaling_sweep_s"]
    assert sweep["fock.eig"]["4000"].startswith("not applicable: SectorTooLarge")
    assert isinstance(sweep["separable.to_fock"]["4000"], float)
