import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from bosewit import cli, separable, witnesses
from bosewit.cli import RunManifest, _emit_json, _manifest_comment, main
from bosewit.witnesses import classify, twin_fock_csi_exact

DATA = os.path.join(os.path.dirname(__file__), "data")
TS = "2026-01-01T00:00:00+00:00"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fig1_csv_default_grid(capsys):
    code, out, err = run_cli(capsys, "fig1", "--timestamp", TS)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# manifest: ")
    manifest = json.loads(lines[0][len("# manifest: ") :])
    assert manifest["command"] == "fig1"
    assert manifest["timestamp"] == TS
    assert lines[1] == "n,order_2m,exact,approx,rel_dev"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 16
    keys = [(int(r[0]), int(r[1])) for r in rows]
    assert keys == sorted(keys)
    by_key = {(int(r[0]), int(r[1])): r for r in rows}
    assert float(by_key[(100, 2)][2]) == pytest.approx(50.0 / 49.0, rel=1e-12)
    assert float(by_key[(100, 8)][2]) == pytest.approx(1.41128, rel=1e-4)
    assert float(by_key[(100, 8)][3]) == pytest.approx(1.37713, rel=1e-4)
    assert float(by_key[(100, 8)][4]) == pytest.approx(0.0242, rel=1e-2)
    assert all(float(r[2]) > 1.0 for r in rows)


def test_fig1_json_round_trip(capsys):
    code, out, err = run_cli(capsys, "fig1", "--format", "json", "--timestamp", TS)
    assert code == 0
    payload = json.loads(out)
    assert payload["manifest"]["version"]
    assert payload["manifest"]["prng"] == "PCG64"
    assert len(payload["rows"]) == 16
    assert json.loads(json.dumps(payload, sort_keys=True)) == payload


def test_fig1_rejects_bad_pairs(capsys):
    code, out, err = run_cli(capsys, "fig1", "--n", "100", "--orders", "60")
    assert code == 2
    assert "100" in err and "60" in err
    code, _, err = run_cli(capsys, "fig1", "--n", "7")
    assert code == 2
    assert "even" in err
    code, _, err = run_cli(capsys, "fig1", "--orders", "3")
    assert code == 2


@pytest.mark.parametrize("n, order", [(4000, 2000), (40000, 10000)])
def test_fig1_pair_past_the_float_range_exits_2(capsys, n, order):
    # 4000/2000: the exact integer quotient C(2000, 1000) ~ 2e600 overflows;
    # 40000/10000: the float product is inf and exp(1250) overflows
    for extra in ([], ["--format", "json"], ["--no-include-approx"]):
        code, out, err = run_cli(capsys, "fig1", "--n", str(n), "--orders", f"2,{order}", *extra)
        assert code == 2
        assert out == ""
        assert f"the pair (N = {n}, 2m = {order})" in err and "no bound can judge" in err


def test_fig1_without_approximation(capsys):
    code, out, _ = run_cli(
        capsys, "fig1", "--n", "20", "--orders", "2,4", "--no-include-approx", "--timestamp", TS
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[2].endswith(",,")
    code, out, _ = run_cli(
        capsys,
        "fig1",
        "--n",
        "20",
        "--orders",
        "2",
        "--no-include-approx",
        "--format",
        "json",
        "--timestamp",
        TS,
    )
    payload = json.loads(out)
    assert payload["rows"][0]["approx"] is None


def test_fig1_writes_output_file(tmp_path, capsys):
    out_path = tmp_path / "fig1.csv"
    code, out, _ = run_cli(
        capsys, "fig1", "--n", "8", "--orders", "2", "--out", str(out_path), "--timestamp", TS
    )
    assert code == 0
    assert out == ""
    content = out_path.read_text()
    assert content.startswith("# manifest: ")


def test_witness_all_on_balanced_coherent_split(capsys):
    code, out, err = run_cli(
        capsys,
        "witness",
        "--state",
        os.path.join(DATA, "css_050.state"),
        "--timestamp",
        TS,
    )
    assert code == 0
    payload = json.loads(out)
    w = payload["witnesses"]
    assert w["csi:1"]["value"] == pytest.approx(1.0, abs=1e-12)
    assert w["eta2"]["value"] == pytest.approx(1.0, abs=1e-12)
    assert w["xi2"]["value"] == pytest.approx(1.0, abs=1e-12)
    assert w["qfi:z"]["value"] == pytest.approx(50.0, abs=1e-9)
    assert all(entry["flag"] in (False, None) for entry in w.values())
    assert payload["verdicts"]["any_entangled"] is False


def test_witness_twin_fock_flags(capsys):
    code, out, _ = run_cli(
        capsys,
        "witness",
        "--state",
        os.path.join(DATA, "twin_fock_20.state"),
        "--witness",
        "csi:1",
        "--witness",
        "qfi:x",
        "--timestamp",
        TS,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["witnesses"]["csi:1"]["value"] == pytest.approx(10.0 / 9.0, rel=1e-12)
    assert payload["witnesses"]["csi:1"]["flag"] is True
    assert payload["witnesses"]["qfi:x"]["value"] == pytest.approx(220.0, rel=1e-9)
    assert payload["witnesses"]["qfi:x"]["flag"] is True
    assert payload["verdicts"]["entangled_by_csi"] is True
    assert payload["verdicts"]["entangled_by_qfi"] is True


def test_witness_partial_error_exits_3(capsys):
    code, out, _ = run_cli(
        capsys,
        "witness",
        "--state",
        os.path.join(DATA, "twin_fock_20.state"),
        "--timestamp",
        TS,
    )
    assert code == 3
    payload = json.loads(out)
    assert payload["witnesses"]["xi2"]["error"] == "ZeroMeanSpinDirection"
    assert payload["witnesses"]["csi:1"]["value"] == pytest.approx(10.0 / 9.0, rel=1e-12)
    assert payload["verdicts"]["entangled_by_csi"] is True


def test_witness_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.state"
    bad.write_text("kind = twin_fock\nn = seven\n")
    code, _, err = run_cli(capsys, "witness", "--state", str(bad))
    assert code == 2
    assert "bad.state:2" in err
    code, _, err = run_cli(capsys, "witness", "--state", str(tmp_path / "absent.state"))
    assert code == 2


def test_a_state_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.state"
    bad.write_bytes(b"\xff\xfe")
    code, out, err = run_cli(capsys, "witness", "--state", str(bad))
    assert code == 2
    assert out == ""
    assert f"{bad}:1:1: cannot read file: " in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["fig1"],
        ["witness", "--state", os.path.join(DATA, "css_050.state")],
        ["scan-separable", "--samples", "2", "--n", "6"],
    ],
    ids=lambda argv: argv[0],
)
def test_an_out_file_that_cannot_be_written_exits_2(argv, tmp_path, capsys):
    target = tmp_path / "absent" / "report.json"
    code, out, err = run_cli(capsys, *argv, "--out", str(target), "--timestamp", TS)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert not target.exists()


@pytest.mark.parametrize("command", ["witness", "scan-separable", "fig1"])
@pytest.mark.parametrize("folder_exists", [False, True])
def test_an_unwritable_out_is_refused_before_the_work(command, folder_exists, tmp_path, capsys, monkeypatch):
    # a missing directory, or one that may not be written (os.access is
    # patched: the tests may run as root), exits 2 before the state file is
    # read or a sample drawn, and leaves an existing file as it was
    def no_work(*args, **kwargs):
        raise AssertionError("the work began")

    monkeypatch.setattr("bosewit.cli.parse_state_file", no_work)
    monkeypatch.setattr("bosewit.cli.run_scan", no_work)
    monkeypatch.setattr("bosewit.cli.twin_fock_csi_exact", no_work)
    argv = {
        "witness": ["witness", "--state", os.path.join(DATA, "css_050.state")],
        "scan-separable": ["scan-separable", "--samples", "2", "--n", "6"],
        "fig1": ["fig1"],
    }[command]
    if folder_exists:  # but os.access refuses it
        target = tmp_path / "report.json"
        target.write_text("kept")
        real_access = os.access
        monkeypatch.setattr("os.access", lambda path, mode: False if str(path) == str(tmp_path) else real_access(path, mode))
        reason = "Permission denied"
    else:
        target = tmp_path / "absent" / "report.json"
        reason = "No such file or directory"
    code, out, err = run_cli(capsys, *argv, "--out", str(target), "--timestamp", TS)
    assert code == 2 and out == ""
    assert err == f"error: cannot write {target}: {reason}\n"
    assert target.read_text() == "kept" if folder_exists else not target.exists()


def test_witness_unknown_selection_exits_2(capsys):
    code, _, err = run_cli(
        capsys,
        "witness",
        "--state",
        os.path.join(DATA, "twin_fock_20.state"),
        "--witness",
        "parity",
    )
    assert code == 2
    assert "parity" in err


@pytest.mark.parametrize("request_text, message", [
    ("csi:0", "correlation order m must be a positive integer; got 0"),
    ("csi:-2", "correlation order m must be a positive integer; got -2"),
    ("csi:1.5", "invalid literal for int()"),
])
def test_witness_bad_csi_order_exits_2(request_text, message, capsys):
    code, out, err = run_cli(
        capsys, "witness", "--state", os.path.join(DATA, "css_050.state"), "--witness", request_text
    )
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("request_text, cause", [
    ("csi:1.5", "invalid literal for int()"),
    ("csi:0", "got 0"),
    ("qfi:a,b,c", "could not convert string to float: 'a'"),
    ("qfi:1,2", "got 2 components"),
    ("qfi:0,0,0", "finite and nonzero"),
])
def test_a_refused_witness_value_is_quoted_with_its_form(request_text, cause, capsys):
    # the raw parse error used to be all the message said
    code, out, err = run_cli(
        capsys, "witness", "--state", os.path.join(DATA, "css_050.state"), "--witness", request_text
    )
    assert (code, out) == (2, "")
    name = request_text.partition(":")[0]
    assert f"--witness {request_text!r} must take the form {witnesses._WITNESS_FORMS[name]} (" in err
    assert cause in err


@pytest.mark.parametrize("request_text, parsed", [
    ("QFI:z", ("qfi:z", "qfi", (0.0, 0.0, 1.0))),
    ("qfi:X", ("qfi:x", "qfi", (1.0, 0.0, 0.0))),
    ("qfi: x", ("qfi:x", "qfi", (1.0, 0.0, 0.0))),
    (" Qfi : Y ", ("qfi:y", "qfi", (0.0, 1.0, 0.0))),
    ("qfi:", ("qfi:z", "qfi", (0.0, 0.0, 1.0))),
    ("csi: 2", ("csi:2", "csi", 2)),
    ("XI2", ("xi2", "xi2", None)),
    ("qfi:1e-200,1e-200,0", ("qfi:0.707107,0.707107,0", "qfi", (0.5**0.5, 0.5**0.5, 0.0))),
    ("qfi:3e-170,0,4e-170", ("qfi:0.6,0,0.8", "qfi", (0.6, 0.0, 0.8))),
])
def test_a_request_is_read_stripped_and_lower_cased(request_text, parsed):
    # the name was read that way, the axis letter was not: qfi:X exited 2
    key, kind, param = witnesses._parse_witness_request(request_text)
    assert (key, kind) == parsed[:2]
    if kind == "qfi":
        np.testing.assert_allclose(param, parsed[2], rtol=0, atol=1e-15)
    else:
        assert param == parsed[2]


def test_upper_case_axes_and_tiny_directions_reach_the_report(capsys):
    # both requests exited 2: the axis letter was not lower-cased, and the
    # squared norm of (1e-200, 1e-200, 0) underflowed to 0
    code, out, err = run_cli(
        capsys, "witness", "--state", os.path.join(DATA, "css_050.state"), "--timestamp", TS,
        "--witness", "QFI:X", "--witness", "qfi:1e-200,1e-200,0",
    )
    assert (code, err) == (0, "")
    entries = json.loads(out)["witnesses"]
    assert sorted(entries) == ["qfi:0.707107,0.707107,0", "qfi:x"]
    assert all(math.isfinite(entry["value"]) for entry in entries.values())


def test_witness_requests_are_deduplicated_by_report_key(capsys):
    # two directions 4e-7 apart both print as qfi:0.6,0.8,0; both used to be
    # evaluated, with the later value reported
    def witnesses(*directions):
        argv = ["witness", "--state", os.path.join(DATA, "css_050.state"), "--timestamp", TS]
        for direction in directions:
            argv += ["--witness", f"qfi:{direction}"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        return json.loads(out)["witnesses"]

    first, second = "0.6,0.8,0", "0.6000004,0.7999997,0"
    alone = witnesses(first), witnesses(second)
    assert list(alone[0]) == list(alone[1]) == ["qfi:0.6,0.8,0"]
    assert alone[0] != alone[1]
    assert witnesses(first, second) == alone[0]
    assert witnesses(second, first) == alone[1]
    # a direction along an axis is keyed, and deduplicated, by its axis
    code, out, _ = run_cli(capsys, "witness", "--state", os.path.join(DATA, "css_050.state"),
                           "--witness", "qfi:0,0,3", "--witness", "all", "--timestamp", TS)
    assert code == 0
    assert sorted(json.loads(out)["witnesses"]) == ["csi:1", "eta2", "qfi:z", "xi2"]


def test_witness_per_sector_unmasks_hidden_sector(capsys):
    code, out, _ = run_cli(
        capsys,
        "witness",
        "--state",
        os.path.join(DATA, "masked_mixture.state"),
        "--witness",
        "csi:1",
        "--per-sector",
        "--timestamp",
        TS,
    )
    assert code == 0
    payload = json.loads(out)
    overall = payload["witnesses"]["csi:1"]
    assert overall["value"] == pytest.approx(31.18 / 140.42, rel=1e-10)
    assert overall["flag"] is False
    sectors = {s["n"]: s for s in payload["per_sector"]}
    assert sectors[4]["witnesses"]["csi:1"]["value"] == pytest.approx(2.0, rel=1e-12)
    assert sectors[4]["witnesses"]["csi:1"]["flag"] is True
    assert sectors[20]["witnesses"]["csi:1"]["flag"] is False


def test_witness_csv_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "witness",
        "--state",
        os.path.join(DATA, "masked_mixture.state"),
        "--witness",
        "csi:1",
        "--per-sector",
        "--format",
        "csv",
        "--timestamp",
        TS,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# manifest: ")
    assert lines[1] == "scope,witness,value,bound,flag,error"
    scopes = {line.split(",")[0] for line in lines[2:]}
    assert scopes == {"overall", "n=4", "n=20"}


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def strict_json(text):
    return json.loads(text, parse_constant=_reject_constant)


@pytest.mark.parametrize("name", ["css_050", "masked_mixture", "twin_fock_20"])
def test_witness_verdicts_equal_classify(name, capsys):
    code, out, _ = run_cli(
        capsys, "witness", "--state", os.path.join(DATA, f"{name}.state"),
        "--witness", "all", "--witness", "qfi:x", "--witness", "csi:2", "--per-sector",
        "--timestamp", TS,
    )
    payload = strict_json(out)
    scopes = [(payload["n_reference"], payload)] + [
        (float(s["n"]), s) for s in payload.get("per_sector", [])
    ]
    for n_reference, scope in scopes:
        values = {k: e["value"] for k, e in scope["witnesses"].items() if "value" in e}
        report = classify(
            n_reference,
            csi_by_order={int(k[4:]): v for k, v in values.items() if k.startswith("csi:")},
            eta2=values.get("eta2"),
            xi2=values.get("xi2"),
            qfi_by_generator={k: v for k, v in values.items() if k.startswith("qfi:")},
        )
        assert scope["verdicts"] == {
            "entangled_by_csi": report.entangled_by_csi,
            "entangled_by_qfi": report.entangled_by_qfi,
            "entangled_by_spin_squeezing": report.entangled_by_spin_squeezing,
            "any_entangled": report.any_entangled,
        }
    assert code == (0 if name == "css_050" else 3)


def test_witness_all_failed_gives_null_verdicts(capsys):
    code, out, _ = run_cli(
        capsys, "witness", "--state", os.path.join(DATA, "twin_fock_20.state"),
        "--witness", "csi:11", "--witness", "xi2", "--timestamp", TS,
    )
    assert code == 3
    payload = strict_json(out)
    assert payload["verdicts"] is None
    assert payload["witnesses"]["csi:11"]["error"] == "DegenerateLocalCorrelation"
    assert payload["witnesses"]["xi2"]["error"] == "ZeroMeanSpinDirection"


def test_a_degenerate_ratio_is_named_from_the_logs(tmp_path, capsys):
    # every particle in mode a: G_aa = (4000)_2000 passes the float range and
    # G_bb = 0, so the product of the values is inf * 0 = nan; that of the
    # logs is 0.0
    path = tmp_path / "dicke.state"
    path.write_text("kind = dicke\nn = 4000\nk = 4000\n")
    code, out, _ = run_cli(
        capsys, "witness", "--state", str(path), "--witness", "csi:1000", "--timestamp", TS
    )
    assert code == 3
    entry = strict_json(out)["witnesses"]["csi:1000"]
    assert entry == {
        "error": "DegenerateLocalCorrelation",
        "message": "local correlators G_aa*G_bb = 0.0 too small for a ratio at order 2m = 2000",
    }


def test_witness_non_finite_value_is_a_named_error(tmp_path, capsys):
    # C_2000 of the twin-Fock state at N = 4000 is C(2000, 1000) ~ 2e600,
    # past the float range; the report must stay strict JSON and exit 3.
    pure = tmp_path / "tf4000.state"
    pure.write_text("kind = twin_fock\nn = 4000\n")
    mixed = tmp_path / "tf4000_sector.state"
    mixed.write_text(
        "kind = fluctuating\nsector:\n    weight = 1.0\n    n = 4000\n    kind = twin_fock\n"
    )
    for path, extra in ((pure, []), (mixed, ["--per-sector"])):
        code, out, _ = run_cli(
            capsys, "witness", "--state", str(path), "--witness", "csi:1",
            "--witness", "csi:1000", *extra, "--timestamp", TS,
        )
        assert code == 3
        payload = strict_json(out)
        scopes = [payload] + payload.get("per_sector", [])
        assert len(scopes) == (2 if extra else 1)
        for scope in scopes:
            assert scope["witnesses"]["csi:1000"]["error"] == "NonFiniteWitnessValue"
            assert scope["witnesses"]["csi:1"]["flag"] is True
            assert scope["verdicts"]["entangled_by_csi"] is True


def test_witness_csi_order_far_past_n_exits_3_at_once(tmp_path, capsys):
    # every correlator of an order 2m > N vanishes; an order of 10^9 must not
    # step the row recurrence 2 * 10^9 times before it says so
    mixed = tmp_path / "poisson.state"
    mixed.write_text("kind = fluctuating\nz = 0.3\ndistribution:\n    kind = poisson\n    mean = 300\n")
    cases = ((os.path.join(DATA, "twin_fock_20.state"), []), (str(mixed), ["--per-sector"]))
    start = time.perf_counter()
    for path, extra in cases:
        code, out, _ = run_cli(
            capsys, "witness", "--state", path, "--witness", "csi:1000000000", *extra, "--timestamp", TS
        )
        assert code == 3
        payload = strict_json(out)
        for scope in [payload] + payload.get("per_sector", []):
            assert scope["witnesses"]["csi:1000000000"]["error"] == "DegenerateLocalCorrelation"
    assert time.perf_counter() - start < 30.0


def test_scan_smoke_and_round_trip(capsys):
    code, out, err = run_cli(
        capsys,
        "scan-separable",
        "--samples",
        "5",
        "--n",
        "8",
        "--seed",
        "3",
        "--timestamp",
        TS,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["total_violations"] == 0
    names = {b["name"] for b in payload["bounds"]}
    assert names == {"csi_order_1", "csi_order_2", "csi_order_3", "csi_order_4", "qfi", "spin_squeezing"}
    assert json.loads(json.dumps(payload, sort_keys=True)) == payload


def test_scan_byte_identical_reports(tmp_path, capsys):
    path = tmp_path / "scan.json"
    argv = [
        "scan-separable",
        "--samples",
        "4",
        "--n",
        "6",
        "--seed",
        "11",
        "--timestamp",
        TS,
        "--out",
        str(path),
    ]
    assert run_cli(capsys, *argv)[0] == 0
    first = path.read_bytes()
    assert run_cli(capsys, *argv)[0] == 0
    assert first == path.read_bytes()
    assert len(first) > 100


def test_scan_argument_errors(capsys):
    code, _, err = run_cli(capsys, "scan-separable", "--samples", "3")
    assert code == 2
    code, _, err = run_cli(
        capsys, "scan-separable", "--samples", "3", "--n", "6", "--fluctuating", "poisson:4"
    )
    assert code == 2
    code, _, err = run_cli(
        capsys, "scan-separable", "--samples", "3", "--fluctuating", "gaussian:4"
    )
    assert code == 2
    assert "gaussian" in err


@pytest.mark.parametrize(
    "dist,form",
    [
        ("poisson:", "poisson:MEAN with a number MEAN"),
        ("poisson:abc", "poisson:MEAN with a number MEAN"),
        ("binomial:,0.5", "binomial:TRIALS,PROB with an integer TRIALS and a number PROB"),
        ("binomial:10,", "binomial:TRIALS,PROB with an integer TRIALS and a number PROB"),
        ("deterministic:", "deterministic:N with an integer N"),
        ("deterministic:2.5", "deterministic:N with an integer N"),
    ],
)
def test_a_fluctuating_value_that_does_not_parse_names_the_flag_and_form(dist, form, capsys):
    code, out, err = run_cli(capsys, "scan-separable", "--samples", "1", "--fluctuating", dist)
    assert code == 2
    assert out == ""
    kind = dist.partition(":")[0]
    assert err == f"error: --fluctuating {kind} needs {form}; got {dist!r}\n"


def test_scan_fluctuating_smoke(capsys):
    code, out, _ = run_cli(
        capsys,
        "scan-separable",
        "--samples",
        "3",
        "--fluctuating",
        "binomial:6,0.5",
        "--seed",
        "2",
        "--timestamp",
        TS,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "fluctuating"
    assert payload["mean_n"] == pytest.approx(3.0, abs=1e-9)
    assert payload["total_violations"] == 0


def test_module_entry_point():
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(repo, "src")
    proc = subprocess.run(
        [sys.executable, "-m", "bosewit", "fig1", "--n", "8", "--orders", "2"],
        capture_output=True,
        text=True,
        env=env,
        cwd=repo,
    )
    assert proc.returncode == 0
    assert "n,order_2m,exact,approx,rel_dev" in proc.stdout


def test_version_and_missing_subcommand(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    assert "0.1.0" in out
    code, _, err = run_cli(capsys)
    assert code == 2


def test_qfi_requests_share_one_factorization_per_sector(capsys, monkeypatch):
    from bosewit import witnesses

    calls = []

    def counting(name, kernel):
        def counted(*args):
            calls.append((name, list(args[-1])))
            return kernel(*args)

        return counted

    # the twin-Fock sector (N = 4) is held as rows, the mixture sector (N =
    # 20) as product components
    monkeypatch.setattr(witnesses, "_qfi_forms", counting("rows", witnesses._qfi_forms))
    monkeypatch.setattr(witnesses, "_product_forms", counting("closed", witnesses._product_forms))
    argv = ["witness", "--state", os.path.join(DATA, "masked_mixture.state"),
            "--witness", "all", "--witness", "qfi:x", "--witness", "qfi:y", "--timestamp", TS]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    # each sector in one factorization, which serves all three directions
    # at once
    assert calls == [("rows", [4]), ("closed", [20])]
    assert sorted(strict_json(out)["witnesses"]) == ["csi:1", "eta2", "qfi:x", "qfi:y", "qfi:z", "xi2"]
    calls.clear()
    run_cli(capsys, *argv, "--per-sector")
    # the rows sector again alone; the component sector's forms serve the
    # whole state and the sector
    assert sorted(calls) == [("closed", [20]), ("rows", [4]), ("rows", [4])]


def test_failed_qfi_call_marks_every_qfi_entry(capsys, monkeypatch):
    from bosewit.errors import EmptyState

    def failing(parts):
        raise EmptyState("no particles")

    # the F_Q forms of the file's one component sector
    monkeypatch.setattr("bosewit.witnesses._part_forms", failing)
    code, out, _ = run_cli(
        capsys, "witness", "--state", os.path.join(DATA, "css_050.state"),
        "--witness", "csi:1", "--witness", "qfi:x", "--witness", "qfi:0,0.6,0.8", "--timestamp", TS,
    )
    assert code == 3
    entries = strict_json(out)["witnesses"]
    assert "value" in entries["csi:1"]
    for key in ("qfi:x", "qfi:0,0.6,0.8"):
        assert entries[key] == {"error": "EmptyState", "message": "no particles"}


def test_pure_state_n_above_the_cap_exits_2(capsys, tmp_path):
    path = tmp_path / "big.state"
    path.write_text("kind = coherent_spin\nn = 1000001\nz = 0.5\n")
    code, out, err = run_cli(capsys, "witness", "--state", str(path))
    assert code == 2
    assert out == ""
    assert "big.state:2:1: 'n' must be <= 1000000" in err


@pytest.mark.parametrize(
    "flag,value", [("--samples", "10000001"), ("--directions", "1001"), ("--components", "1001")]
)
def test_scan_caps_exit_2(capsys, flag, value):
    argv = {"--samples": "2", "--directions": "10", "--components": "4"}
    argv[flag] = value
    code, out, err = run_cli(
        capsys, "scan-separable", "--n", "12", *[x for kv in argv.items() for x in kv]
    )
    assert code == 2
    assert out == ""
    assert "must be at most" in err


@pytest.mark.parametrize(
    "dist,message",
    [
        ("poisson:1e12", "poisson mean 1000000000000.0 reaches N = 1000020000060"),
        ("binomial:2000000,0.5", "binomial trials reaches N = 2000000"),
        ("binomial:2000,0.5", "a sample of 2001 sectors x 4 components expands into 8012004 amplitudes"),
    ],
)
def test_scan_distribution_past_a_cap_exits_2(capsys, dist, message):
    code, out, err = run_cli(capsys, "scan-separable", "--samples", "1", "--fluctuating", dist)
    assert code == 2
    assert out == ""
    assert message in err


def test_witness_distribution_past_the_particle_cap_exits_2(capsys, tmp_path):
    path = tmp_path / "huge.state"
    path.write_text("kind = fluctuating\nz = 0.3\ndistribution:\n    kind = poisson\n    mean = 1e12\n")
    code, out, err = run_cli(capsys, "witness", "--state", str(path))
    assert code == 2
    assert out == ""
    assert "huge.state:3:1: poisson mean 1000000000000.0 reaches N = 1000020000060" in err


def test_distribution_past_the_expanded_size_cap_exits_2(capsys, tmp_path, monkeypatch):
    # Poisson mean 5000 stays below 10^6 particles but expands into about
    # 2.1e7 amplitudes; nothing may be built before the refusal
    def refuse(*_):
        raise AssertionError("weights built before the size check")

    monkeypatch.setattr(separable, "_poisson_weights", refuse)
    path = tmp_path / "wide.state"
    path.write_text("kind = fluctuating\nz = 0.3\ndistribution:\n    kind = poisson\n    mean = 5000\n")
    code, out, err = run_cli(capsys, "witness", "--state", str(path))
    assert (code, out) == (2, "")
    assert "wide.state:3:1: poisson distribution [5000.0] expands into 20966050 amplitudes" in err
    code, out, err = run_cli(
        capsys, "scan-separable", "--samples", "1", "--fluctuating", "poisson:5000"
    )
    assert (code, out) == (2, "")
    assert "expands into 20966050 amplitudes" in err


def test_witness_csi_past_the_product_overflow(capsys, tmp_path):
    path = tmp_path / "tf400.state"
    path.write_text("kind = twin_fock\nn = 400\n")
    code, out, _ = run_cli(
        capsys, "witness", "--state", str(path), "--witness", "csi:50", "--witness", "csi:75", "--timestamp", TS
    )
    entries = strict_json(out)["witnesses"]
    assert entries["csi:50"]["value"] == pytest.approx(22547867.43929954, rel=1e-14)
    assert entries["csi:50"]["flag"] is True
    # here the local correlators themselves pass the float range; the
    # normalized sums still give the exact ratio
    assert entries["csi:75"]["value"] == pytest.approx(twin_fock_csi_exact(400, 75), rel=1e-14)
    assert entries["csi:75"]["flag"] is True
    assert code == 0


def test_scan_spanning_several_chunks(capsys):
    code, out, _ = run_cli(
        capsys, "scan-separable", "--samples", "12", "--n", "12", "--components", "1000", "--timestamp", TS
    )
    assert code == 0
    report = strict_json(out)
    assert report["total_violations"] == 0
    assert all(b["evaluations"] + b["skipped"] == 12 for b in report["bounds"])


def test_emit_writes_numpy_values_as_the_plain_values_they_hold(capsys):
    payload = {
        "float": np.float64(0.1),
        "small": np.float32(0.5),
        "count": np.int64(7),
        "flag": np.bool_(True),
        "rows": np.array([[1.5, -2.0], [1e-300, 3.0]]),
        "pair": (np.int32(1), np.bool_(False)),
        "nothing": None,
        "nested": [{"z": np.float64(2.0 / 3.0), "n": np.uint16(3)}],
    }
    plain = {
        "float": 0.1,
        "small": 0.5,
        "count": 7,
        "flag": True,
        "rows": [[1.5, -2.0], [1e-300, 3.0]],
        "pair": [1, False],
        "nothing": None,
        "nested": [{"z": 2.0 / 3.0, "n": 3}],
    }
    _emit_json(payload, None)
    text = capsys.readouterr().out
    assert text == json.dumps(plain, sort_keys=True, indent=2) + "\n"
    assert '"flag": true' in text and '"z": 0.6666666666666666' in text
    manifest = RunManifest("scan-separable", ["--seed", "3"], np.int64(3), "PCG64", "0", TS)
    assert _manifest_comment(manifest) == "# manifest: " + json.dumps(
        {"arguments": ["--seed", "3"], "command": "scan-separable", "prng": "PCG64",
         "seed": 3, "timestamp": TS, "version": "0"},
        sort_keys=True,
    )
    with pytest.raises(TypeError, match="not JSON serializable"):
        _emit_json({"state": object()}, None)


@pytest.mark.parametrize("components", ["0", "-1"])
def test_scan_without_components_exits_2(capsys, components):
    code, out, err = run_cli(
        capsys, "scan-separable", "--samples", "2", "--n", "12", "--components", components
    )
    assert code == 2
    assert out == ""
    assert "need at least one component" in err


def test_csi_requests_share_one_correlator_pass(capsys, monkeypatch):
    # every csi order of a scope comes from one correlator pass, the one of
    # integrated_g2m_orders (the sectors held as components from one
    # stacked kernel call), with the bits of one integrated_g2m call per
    # order and its errors per entry
    from bosewit import witnesses
    from bosewit.errors import DegenerateLocalCorrelation
    from bosewit.statespec import parse_state_file
    from bosewit.witnesses import csi_ratio, integrated_g2m

    calls = []
    shared = witnesses._normalized_correlators

    def counting(state, orders, *groups):
        calls.append(list(orders))
        return shared(state, orders, *groups)

    monkeypatch.setattr(witnesses, "_normalized_correlators", counting)
    path = os.path.join(DATA, "masked_mixture.state")
    orders = [3, 1, 7, 2, 12]
    argv = ["witness", "--state", path, "--per-sector", "--witness", "qfi:x"]
    for m in orders:
        argv += ["--witness", f"csi:{m}"]
    code, out, _ = run_cli(capsys, *argv, "--timestamp", TS)
    payload = json.loads(out)
    state = parse_state_file(path).build()
    scopes = [(state, payload["witnesses"])]
    for (_, sector), report in zip(state.sectors, payload["per_sector"]):
        scopes.append((sector, report["witnesses"]))
    # the whole state and its twin-Fock sector; not the mixture sector
    assert calls == [orders] * 2
    errors = 0
    for scope_state, entries in scopes:
        for m in orders:
            entry = entries[f"csi:{m}"]
            try:
                expected = csi_ratio(integrated_g2m(scope_state, m))
            except DegenerateLocalCorrelation:
                errors += 1
                assert entry["error"] == "DegenerateLocalCorrelation"
            else:
                assert entry["value"] == expected
        assert "value" in entries["qfi:x"]
    assert errors > 0 and code == 3
